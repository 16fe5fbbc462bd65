"""Decreasing rearrangements and the one-dimensional averaging integrals.

A step function on the tree has a decreasing rearrangement: a non-increasing,
left-continuous step function on (0, 1]. Power-law profiles ``c * t**(-a)``
are kept symbolic so their averaging integrals evaluate in closed form; for
step profiles the integrals fall back to piecewise adaptive Gauss quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bellman import _check_p
from .errors import DivergentIntegralError, DomainError, ShapeError
from .tree import StepFunction, Tree

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_REL_TOL = 1e-10  # a bisection that moves a panel by at most this times the scale stops
_MAX_SPLITS = 24  # a panel this many bisections deep is accepted as it is
_PANEL_ROWS = 1 << 12  # Gauss panels per batch: a ~1 MB node-value temporary


# ---------------------------------------------------------------------------
# profiles on (0, 1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineStepFunction:
    """Step function on (0, 1]: ``values[i]`` on ``(breakpoints[i], breakpoints[i+1]]``.

    Breakpoints are strictly increasing from 0 to 1; left-continuity is the
    representation convention and matters only on the null set of jumps.
    """

    breakpoints: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size + 1:
            raise ShapeError("need k+1 breakpoints for k piece values")
        if t[0] != 0.0 or abs(t[-1] - 1.0) > 1e-12 or np.any(np.diff(t) <= 0):
            raise ShapeError("breakpoints must increase strictly from 0 to 1")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise DomainError("piece values must be finite and nonnegative")
        t = t.copy()
        v = v.copy()
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", t)
        object.__setattr__(self, "values", v)

    @property
    def piece_count(self) -> int:
        return self.values.size

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def prefix_integrals(self) -> np.ndarray:
        """Integral from 0 up to each breakpoint (leading 0 included)."""
        return np.concatenate(([0.0], np.cumsum(self.values * self.widths())))

    def integral(self) -> float:
        return float((self.values * self.widths()).sum())

    def power_integral(self, r: float) -> float:
        """Exact integral of ``g**r`` (finite sum; no quadrature needed)."""
        return float((self.values**r * self.widths()).sum())

    def is_non_increasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 0))


@dataclass(frozen=True)
class PowerLawFunction:
    """The profile ``g(t) = c * t**(-a)`` on (0, 1], kept in closed form.

    ``a`` must lie in [0, 1) so the mean exists; p-th power integrability
    (``a * p < 1``) is checked where it is needed. The normalization is
    ``integral == c / (1 - a)``.
    """

    c: float
    a: float

    def __post_init__(self):
        if self.c <= 0:
            raise DomainError(f"coefficient must be positive, got {self.c}")
        if not 0.0 <= self.a < 1.0:
            raise DomainError(f"exponent must lie in [0, 1), got {self.a}")

    @classmethod
    def from_mean_and_exponent(cls, f: float, alpha: float) -> "PowerLawFunction":
        """Profile ``f*(1-alpha) * t**(-alpha)`` with mean exactly ``f``."""
        if f <= 0:
            raise DomainError(f"mean must be positive, got {f}")
        return cls(c=f * (1.0 - alpha), a=alpha)

    @classmethod
    def self_similar(cls, f: float, alpha: float) -> "PowerLawFunction":
        """Profile ``(f/alpha) * t**(-1+1/alpha)`` whose running average is
        ``alpha`` times itself; ``alpha >= 1`` is the extremal-curve location."""
        if f <= 0 or alpha < 1.0:
            raise DomainError(f"need f > 0 and alpha >= 1, got f={f}, alpha={alpha}")
        return cls(c=f / alpha, a=1.0 - 1.0 / alpha)

    def integral(self) -> float:
        return self.c / (1.0 - self.a)

    def power_integral(self, r: float) -> float:
        if self.a * r >= 1.0:
            raise DivergentIntegralError(
                f"t**(-{self.a * r:g}) is not integrable near 0"
            )
        return self.c**r / (1.0 - self.a * r)


# ---------------------------------------------------------------------------
# rearrangement and discretization
# ---------------------------------------------------------------------------


def decreasing_rearrangement(phi: StepFunction) -> LineStepFunction:
    """Sort the leaf values descending onto (0, 1] with cumulative measures.

    The sort is stable, so equal values keep their canonical leaf order and
    repeated runs produce identical golden files. The result is
    equimeasurable with ``phi``: level sets match exactly for every lambda.
    """
    order = np.argsort(-phi.leaf_values, kind="stable")
    n = phi.tree.leaf_count
    breakpoints = np.arange(n + 1, dtype=np.float64) / n
    return LineStepFunction(breakpoints, phi.leaf_values[order])


def discretize(g, pieces: int) -> LineStepFunction:
    """Replace ``g`` by its exact cell averages on ``pieces`` equal cells.

    Averaging preserves the integral exactly and can only shrink p-th
    moments, so discretized profiles approach the original from below.
    """
    if pieces < 1:
        raise DomainError(f"need at least one piece, got {pieces}")
    edges = np.arange(pieces + 1, dtype=np.float64) / pieces
    if isinstance(g, PowerLawFunction):
        # antiderivative c * t**(1-a) / (1-a), exact per cell
        primitive = g.c * edges ** (1.0 - g.a) / (1.0 - g.a)
        cell_means = np.diff(primitive) * pieces
    elif isinstance(g, LineStepFunction):
        prefix = g.prefix_integrals()
        idx = np.clip(
            np.searchsorted(g.breakpoints, edges, side="left") - 1,
            0,
            g.piece_count - 1,
        )
        at_edges = prefix[idx] + g.values[idx] * (edges - g.breakpoints[idx])
        at_edges[0] = 0.0
        cell_means = np.diff(at_edges) * pieces
    else:
        raise DomainError(f"cannot discretize {type(g).__name__}")
    return LineStepFunction(edges, cell_means)


def random_rearrangement(g: LineStepFunction, tree: Tree, seed=None) -> StepFunction:
    """Scatter the pieces of ``g`` over the tree leaves as a step function.

    ``g`` must consist of exactly ``leaf_count`` equal-width pieces (use
    :func:`discretize` first). ``seed=None`` keeps the identity arrangement;
    an integer seed draws a uniformly random, reproducible permutation.
    Every moment of the result equals the corresponding integral of ``g``
    exactly, because the value multiset is unchanged.
    """
    n = tree.leaf_count
    if g.piece_count != n:
        raise ShapeError(f"profile has {g.piece_count} pieces, tree has {n} leaves")
    if np.max(np.abs(g.breakpoints - np.arange(n + 1) / n)) > 1e-12:
        raise ShapeError("profile pieces must have equal width 1/leaf_count")
    values = g.values
    if seed is not None:
        rng = np.random.default_rng(seed)
        values = values[rng.permutation(n)]
    return StepFunction(tree, values)


# ---------------------------------------------------------------------------
# averaging integrals
# ---------------------------------------------------------------------------


def _gauss_panels(lo, hi, v, offset, weight, r) -> np.ndarray:
    """32-node Gauss panel of ``weight * (v + offset/x)**r`` on every row's
    ``[lo, hi]`` at once."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GAUSS_X
    y = weight[:, None] * (v[:, None] + offset[:, None] / x) ** r
    # one dot per row: a matrix-vector product sums in another order
    return half * np.fromiter(map(_GAUSS_W.dot, y), np.float64, len(y))


def _adaptive_gauss(lo, hi, v, offset, weight, r, scale) -> np.ndarray:
    """Integral of ``weight * (v + offset/x)**r`` over every row's ``[lo, hi]``.

    A 32-node Gauss panel is bisected until that moves it by at most
    ``_REL_TOL * scale`` or it is ``_MAX_SPLITS`` deep, and a row's accepted
    ``left + right`` values are added right to left from 0.0, as a depth-first
    stack pushing the right half last would. Each round bisects the rightmost
    ``_PANEL_ROWS`` open panels and adds the accepted ones no open panel lies
    right of, so the panels in hand stay bounded however deep a row refines.
    """

    def gauss(a, b, row):
        k = row.astype(np.intp)
        return _gauss_panels(a, b, v[k], offset[k], weight[k], r)

    n = lo.size
    # an open panel is a column (row, start, width, lo, hi, Gauss value); start and
    # width count 2**-_MAX_SPLITS of the row's interval, integers exact in float64
    todo = np.array((np.arange(n), np.zeros(n), np.full(n, 2.0**_MAX_SPLITS), lo, hi, np.empty(n)))
    for chunk in np.split(todo, range(_PANEL_ROWS, n, _PANEL_ROWS), axis=1):  # views of todo
        chunk[5] = gauss(chunk[3], chunk[4], chunk[0])
    done = np.empty((3, 0))  # accepted (row, start, left + right), not yet added
    total = [0.0] * n
    while todo.shape[1]:
        cut = max(todo.shape[1] - _PANEL_ROWS, 0)
        order = np.argpartition(todo[1], cut)
        todo, (row, start, width, a, b, estimate) = todo[:, order[:cut]], todo[:, order[cut:]]
        mid = 0.5 * (a + b)
        left, right = gauss(a, mid, row), gauss(mid, b, row)
        split = left + right
        ok = (np.abs(split - estimate) <= _REL_TOL * scale) | (width == 1.0)
        half = 0.5 * width
        todo = np.concatenate((todo, np.array((row, start, half, a, mid, left))[:, ~ok],
                               np.array((row, start + half, half, mid, b, right))[:, ~ok]), axis=1)
        done = np.concatenate((done, np.array((row, start, split))[:, ok]), axis=1)
        edge = np.full(n, -1.0)  # start of each row's rightmost open panel
        np.maximum.at(edge, todo[0].astype(np.intp), todo[1])
        final = done[1] > edge[done[0].astype(np.intp)]
        ready, done = done[:, final], done[:, ~final]
        ready = ready[:, np.lexsort((-ready[1], ready[0]))]
        for i, value in zip(ready[0].astype(np.intp).tolist(), ready[2].tolist()):
            total[i] += value  # one float at a time: a pairwise sum rounds apart
    return np.array(total)


def hardy_moment(g, p: float, q: float) -> float:
    """``integral of (running average of g)**(p-q) * g**q over (0, 1]``.

    Power laws use the closed form ``c**p * (1-a)**(q-p) / (1 - a*p)``;
    step profiles are integrated piece by piece with adaptive Gauss panels
    (the running average restricted to one piece is smooth), all pieces
    refined in one batch.
    """
    p = _check_p(p)  # a NaN or infinite p would split every Gauss panel to the limit
    if q != 0.0 and not 1.0 <= q <= p:
        raise DomainError(f"q must lie in [1, p] (or 0 for the pure power), got {q}")
    q = float(q)
    if isinstance(g, PowerLawFunction):
        if g.a * p >= 1.0:
            raise DivergentIntegralError(
                f"averaging integral diverges: a*p = {g.a * p:g} >= 1"
            )
        return g.c**p * (1.0 - g.a) ** (q - p) / (1.0 - g.a * p)
    if not isinstance(g, LineStepFunction):
        raise DomainError(f"unsupported profile {type(g).__name__}")
    if q == p:
        return g.power_integral(p)

    t = g.breakpoints
    v = g.values
    r = p - q
    scale = max(abs(g.integral()) ** p, 1.0)
    offset = g.prefix_integrals()[:-1] - v * t[:-1]  # running avg = v + offset/t on a piece
    # scalar powers, one per piece: the array power may round one ulp apart
    weight = np.array([vi**q for vi in v])  # 1.0 for the pure power q = 0
    value = np.zeros(g.piece_count)  # g**q kills a piece of weight 0
    flat = np.flatnonzero((weight != 0.0) & (offset == 0.0))  # running average v: closed form
    value[flat] = weight[flat] * np.array([vi**r for vi in v[flat]]) * (t[flat + 1] - t[flat])
    smooth = np.flatnonzero((weight != 0.0) & (offset != 0.0))
    value[smooth] = _adaptive_gauss(t[smooth], t[smooth + 1], v[smooth], offset[smooth],
                                    weight[smooth], r, scale)
    # piece by piece from the left, not pairwise; + 0.0 turns a sum of -0.0
    # pieces into 0.0, as a running total started at 0.0 gives
    return float(np.cumsum(value)[-1]) + 0.0


def hardy_power(g, p: float) -> float:
    """``integral of (running average of g)**p over (0, 1]``."""
    return hardy_moment(g, p, 0.0)
