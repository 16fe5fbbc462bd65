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
from .errors import DivergentIntegralError, DomainError, ShapeError, finite
from .tree import StepFunction, Tree

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_REL_TOL = 1e-10  # a bisection that moves a panel by at most this times the scale stops
_MAX_SPLITS = 24  # a panel this many bisections deep is accepted as it is
_PANEL_ROWS = 1 << 12  # Gauss panels per _gauss_panels call: a ~1 MB node-value buffer


# ---------------------------------------------------------------------------
# profiles on (0, 1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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
        if t[0] != 0.0 or abs(t[-1] - 1.0) > 1e-12 or not np.all(np.diff(t) > 0):
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
        with np.errstate(over="ignore"):  # an infinite sum raises in finite
            total = float((self.values**r * self.widths()).sum())
        return finite(f"the integral of g**{r:g} overflows", lambda: total)

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
        return finite(f"the integral of g**{r:g} overflows", lambda: self.c**r / (1.0 - self.a * r))


# ---------------------------------------------------------------------------
# rearrangement and discretization
# ---------------------------------------------------------------------------


def decreasing_rearrangement(phi: StepFunction) -> LineStepFunction:
    """Sort the leaf values descending onto (0, 1] with cumulative measures.

    The sort is stable, so equal values keep their canonical leaf order and
    repeated runs write identical bytes. The result is
    equimeasurable with ``phi``: level sets match exactly for every lambda.
    """
    order = np.argsort(-phi.leaf_values, kind="stable")
    n = phi.tree.leaf_count
    breakpoints = np.arange(n + 1, dtype=np.float64) / n
    return LineStepFunction(breakpoints, phi.leaf_values[order])


def discretize(g, pieces: int) -> LineStepFunction:
    """Replace ``g`` by its exact cell averages on ``pieces`` equal cells.

    Averaging preserves the integral exactly and can only shrink p-th
    moments, so discretized profiles approach the original from below. A step
    profile already on those cells (to 1e-12) is returned as it is.
    """
    if pieces < 1:
        raise DomainError(f"need at least one piece, got {pieces}")
    edges = np.arange(pieces + 1, dtype=np.float64) / pieces
    if isinstance(g, PowerLawFunction):
        # antiderivative c * t**(1-a) / (1-a), exact per cell
        primitive = g.c * edges ** (1.0 - g.a) / (1.0 - g.a)
        cell_means = np.diff(primitive) * pieces
    elif isinstance(g, LineStepFunction):
        if g.piece_count == pieces and np.max(np.abs(g.breakpoints - edges)) <= 1e-12:
            return g
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


def _gauss_panels(lo, hi, v, offset, weight, r, nodes) -> np.ndarray:
    """32-node Gauss panel of ``weight * (v + offset/x)**r`` on every row's
    ``[lo, hi]`` at once. ``nodes``, a ``(rows, 32)`` array, is overwritten
    with the node values: each step is the ufunc the expression
    ``weight * (v + offset / (mid + half * x))**r * w`` calls, in its order."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = np.multiply(half[:, None], _GAUSS_X, out=nodes)
    np.add(mid[:, None], y, out=y)
    np.divide(offset[:, None], y, out=y)
    np.add(v[:, None], y, out=y)
    np.power(y, r, out=y)
    np.multiply(weight[:, None], y, out=y)
    np.multiply(y, _GAUSS_W, out=y)
    # a row sum as one row alone sums it; a matrix-vector product sums in another order
    return half * y.sum(axis=1)


def _adaptive_gauss(lo, hi, v, offset, weight, r, scale) -> np.ndarray:
    """Integral of ``weight * (v + offset/x)**r`` over every row's ``[lo, hi]``.

    A 32-node Gauss panel is bisected until that moves it by at most
    ``_REL_TOL * scale`` of its row or it is ``_MAX_SPLITS`` deep. The open panels of a
    depth are bisected together, a kept panel's halves side by side, and the
    panels a depth accepts are summed per row from 0.0, left to right, into the
    row's total: only open panels are held, and no batch size moves a bit.
    """

    nodes = np.empty((0, _GAUSS_X.size))  # one node-value buffer for every batch

    def gauss(a, b, row):
        nonlocal nodes
        if nodes.shape[0] < min(a.size, _PANEL_ROWS):
            nodes = np.empty((min(a.size, _PANEL_ROWS), _GAUSS_X.size))
        out = np.empty(a.size)
        for s in range(0, a.size, _PANEL_ROWS):
            cut, k = slice(s, s + _PANEL_ROWS), row[s : s + _PANEL_ROWS]
            out[cut] = _gauss_panels(a[cut], b[cut], v[k], offset[k], weight[k], r, nodes[: k.size])
        return out

    row, a, b = np.arange(lo.size), lo, hi
    estimate = gauss(a, b, row)
    total, tolerance = np.zeros(lo.size), _REL_TOL * scale
    for depth in range(_MAX_SPLITS + 1):
        mid = 0.5 * (a + b)
        left, right = gauss(a, mid, row), gauss(mid, b, row)
        split = left + right
        ok = (np.abs(split - estimate) <= tolerance[row]) | (depth == _MAX_SPLITS)
        # one weight at a time in index order: a row's panels left to right
        total += np.bincount(row[ok], split[ok], minlength=lo.size)
        if ok.all():
            return total
        keep = ~ok  # each kept panel's two halves side by side, left then right
        row, estimate = np.repeat(row[keep], 2), np.column_stack((left[keep], right[keep])).ravel()
        a = np.column_stack((a[keep], mid[keep])).ravel()
        b = np.column_stack((mid[keep], b[keep])).ravel()


def hardy_moments(profiles, p: float, q: float) -> np.ndarray:
    """``integral of (running average of g)**(p-q) * g**q over (0, 1]``, for each g of ``profiles``.

    Power laws use the closed form ``c**p * (1-a)**(q-p) / (1 - a*p)``. The
    pieces of all step profiles take adaptive Gauss panels in one batch (the
    running average is smooth on a piece), each to ``_REL_TOL`` times its own
    profile's ``max(integral of g**p, 1)``: a profile gets its bits alone. A
    closed form, an integrand or a ``g**p`` beyond the float range raises
    ``OverflowError`` before any refinement.
    """
    p = _check_p(p)  # a NaN or infinite p would split every Gauss panel to the limit
    if q != 0.0 and not 1.0 <= q <= p:
        raise DomainError(f"q must lie in [1, p] (or 0 for the pure power), got {q}")
    q = float(q)
    out, steps = np.empty(len(profiles)), []
    for k, g in enumerate(profiles):
        if isinstance(g, PowerLawFunction):
            if g.a * p >= 1.0:
                raise DivergentIntegralError(
                    f"averaging integral diverges: a*p = {g.a * p:g} >= 1"
                )
            out[k] = finite(
                f"the integral of g**{q:g} * (running average)**{p - q:g} overflows",
                lambda: g.c**p * (1.0 - g.a) ** (q - p) / (1.0 - g.a * p),
            )
        elif not isinstance(g, LineStepFunction):
            raise DomainError(f"unsupported profile {type(g).__name__}")
        elif q == p:
            out[k] = g.power_integral(p)
        else:
            steps.append(k)
    if not steps:
        return out
    gs = [profiles[k] for k in steps]
    counts = [g.piece_count for g in gs]
    lo, hi = (np.concatenate([g.breakpoints[cut] for g in gs]) for cut in (slice(-1), slice(1, None)))
    v = np.concatenate([g.values for g in gs])
    r = p - q
    offset = np.concatenate([g.prefix_integrals()[:-1] for g in gs]) - v * lo  # running avg v + offset/t
    with np.errstate(over="ignore"):
        # scalar powers, one per piece: the array power may round one ulp apart
        weight = np.array([vi**q for vi in v])  # 1.0 for the pure power q = 0
        value = np.zeros(v.size)  # g**q kills a piece of weight 0
        flat = np.flatnonzero((weight != 0.0) & (offset == 0.0))  # running average v: closed form
        value[flat] = weight[flat] * np.array([vi**r for vi in v[flat]]) * (hi[flat] - lo[flat])
        smooth = np.flatnonzero((weight != 0.0) & (offset != 0.0))
        lo, hi = lo[smooth], hi[smooth]
        # the running average is monotone on a piece, so the integrand peaks at an end
        peaks = [weight[smooth] * (v[smooth] + offset[smooth] / x) ** r for x in (lo, hi)]
        # for a non-increasing g, J lies between the integral of g**p and
        # (p/(p-1))**p times it; the floor stops a tiny profile refining forever
        scale = np.repeat([max(g.power_integral(p), 1.0) for g in gs], counts)
    if not (np.isfinite(value).all() and np.isfinite(peaks).all()):
        raise OverflowError(f"(running average)**{r:g} or g**{q:g} exceeds the float range")
    value[smooth] = _adaptive_gauss(lo, hi, v[smooth], offset[smooth], weight[smooth], r, scale[smooth])
    # piece by piece from the left, not pairwise; + 0.0 turns a sum of -0.0
    # pieces into 0.0, as a running total started at 0.0 gives
    out[steps] = [np.cumsum(piece)[-1] + 0.0 for piece in np.split(value, np.cumsum(counts)[:-1])]
    return out


def hardy_moment(g, p: float, q: float) -> float:
    """:func:`hardy_moments` of the one profile ``g``."""
    return float(hardy_moments([g], p, q)[0])


def hardy_power(g, p: float) -> float:
    """``integral of (running average of g)**p over (0, 1]``."""
    return hardy_moment(g, p, 0.0)
