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


def _gauss_panel(fn, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(_GAUSS_W, fn(mid + half * _GAUSS_X)))


def _adaptive_gauss(fn, lo, hi, scale, rel_tol=_REL_TOL, max_splits=24) -> float:
    """32-node Gauss panels, bisected until the refinement stops moving the
    panel value relative to ``scale``."""
    whole = _gauss_panel(fn, lo, hi)
    stack = [(lo, hi, whole, 0)]
    total = 0.0
    while stack:
        a, b, estimate, level = stack.pop()
        m = 0.5 * (a + b)
        left = _gauss_panel(fn, a, m)
        right = _gauss_panel(fn, m, b)
        if abs(left + right - estimate) <= rel_tol * scale or level >= max_splits:
            total += left + right
        else:
            stack.append((a, m, left, level + 1))
            stack.append((m, b, right, level + 1))
    return total


def _gauss_panels(lo, hi, v, offset, weight, r) -> np.ndarray:
    """:func:`_gauss_panel` of ``weight * (v + offset/x)**r`` on every row's
    ``[lo, hi]`` at once, bit for bit."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GAUSS_X
    y = weight[:, None] * (v[:, None] + offset[:, None] / x) ** r
    # one dot per row: a matrix-vector product sums in another order
    return half * np.fromiter(map(_GAUSS_W.dot, y), np.float64, len(y))


def _first_splits(lo, hi, v, offset, weight, r, scale) -> list:
    """The first bisection of :func:`_adaptive_gauss` for many pieces at once:
    ``left + right`` where it is accepted, None where the piece must be
    refined."""
    mid = 0.5 * (lo + hi)
    whole = _gauss_panels(lo, hi, v, offset, weight, r)
    left = _gauss_panels(lo, mid, v, offset, weight, r)
    split = left + _gauss_panels(mid, hi, v, offset, weight, r)
    accepted = np.abs(split - whole) <= _REL_TOL * scale
    return [value if ok else None for value, ok in zip(split, accepted)]


def _check_hardy_exponents(p: float, q: float) -> tuple[float, float]:
    p = _check_p(p)  # a NaN or infinite p would split every Gauss panel to the limit
    if q != 0.0 and not 1.0 <= q <= p:
        raise DomainError(f"q must lie in [1, p] (or 0 for the pure power), got {q}")
    return float(p), float(q)


def hardy_moment(g, p: float, q: float) -> float:
    """``integral of (running average of g)**(p-q) * g**q over (0, 1]``.

    Power laws use the closed form ``c**p * (1-a)**(q-p) / (1 - a*p)``;
    step profiles are integrated piece by piece with adaptive Gauss panels
    (the running average restricted to one piece is smooth), the first
    bisection of every piece taken in one batch.
    """
    p, q = _check_hardy_exponents(p, q)
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
    smooth = np.flatnonzero((weight != 0.0) & (offset != 0.0))
    first = iter(_first_splits(t[smooth], t[smooth + 1], v[smooth], offset[smooth],
                               weight[smooth], r, scale))
    total = 0.0
    for i in range(g.piece_count):
        if weight[i] == 0.0:
            continue  # g**q kills the piece
        if offset[i] == 0.0:
            # running average equals v[i] on the whole piece: closed form
            total += weight[i] * v[i] ** r * (t[i + 1] - t[i])
            continue
        value = next(first)
        if value is None:  # the first bisection moved the panel too much
            w, vi, c = weight[i], v[i], offset[i]
            value = _adaptive_gauss(lambda x: w * (vi + c / x) ** r, t[i], t[i + 1], scale)
        total += value
    return total


def hardy_power(g, p: float) -> float:
    """``integral of (running average of g)**p over (0, 1]``."""
    return hardy_moment(g, p, 0.0)
