"""Constants, deficits, and extremizer families for the averaging inequalities.

The inequalities checked here bound the p-th moment of the maximal function
(or of the running average on the line) by a two-term right-hand side: a
negative multiple of ``f**p`` plus a positive multiple of the mixed moment
``integral of phi**q * (M phi)**(p-q)``. The deficit of an instance is
``rhs - lhs``; every valid instance has a nonnegative deficit up to floating
roundoff, and the power-law families below drive it to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .bellman import _bisect, _check_p
from .errors import DomainError, InvariantViolation, finite
from .maximal import batch_maximal_leaves
from .rearrange import LineStepFunction, PowerLawFunction, hardy_moments
from .tree import StepFunction

# A computed deficit may dip below zero by accumulated rounding only; this is
# the relative slack before we call it a genuine violation.
DEFICIT_SLACK = 1e-9
# c1 and c2 grow like 1/(p-1) while a deficit stays O(1), so nearer p = 1 the
# rounding of the right-hand side alone passes DEFICIT_SLACK; at this gap the
# worst measured q = 1 (1.10) row stays 10x below the slack.
P_GAP = 1e-5


def beyond_slack(deficit, rhs):
    """True where a deficit is below ``-DEFICIT_SLACK * max(1, |rhs|)``: a
    genuine violation, not rounding. Scalars or arrays alike."""
    return deficit < -DEFICIT_SLACK * np.maximum(1.0, np.abs(rhs))


@dataclass(frozen=True)
class IneqParams:
    """Exponents and parameters shared by the inequality family."""

    p: float
    q: float = 1.0
    beta: float = 1.0
    f: float = 1.0

    def __post_init__(self):
        if _check_p(self.p) - 1.0 < P_GAP:
            raise DomainError(f"p must exceed 1 by at least {P_GAP:g}, got p={self.p}")
        if not 1.0 <= self.q <= self.p:
            raise DomainError(f"q must lie in [1, p], got q={self.q}, p={self.p}")
        if not 0.0 < self.beta < math.inf:
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 < self.f < math.inf:
            raise DomainError(f"f must be positive and finite, got {self.f}")


def _quotient(name: str, k: float, e: float, p: float, q: float, beta: float) -> float:
    """``k (beta+1)**e / ((p-1) q beta + (p-q))``; one ``beta + 1`` is divided first if need be."""
    denominator = (p - 1.0) * q * beta + (p - q)
    message = f"the constant {name} or its denominator overflows at p={p}, q={q}, beta={beta}"
    if not 0.0 < denominator < math.inf:  # the constant would read 0.0 or nan, or divide by zero
        raise OverflowError(message)
    return finite(
        message,
        lambda: k * (beta + 1.0) ** e / denominator,
        lambda: k * (beta + 1.0) ** (e - 1.0) * ((beta + 1.0) / denominator),
    )


def first_constant(p: float, q: float, beta: float) -> float:
    """Coefficient c1 of ``-f**p`` on the right-hand side."""
    return _quotient("c1", q, 1.0, p, q, beta)


def second_constant(p: float, q: float, beta: float) -> float:
    """Coefficient c2 of the mixed moment on the right-hand side."""
    return _quotient("c2", p, q, p, q, beta)


def coupling_constant(p: float, q: float, beta: float) -> float:
    """``A(p, q, beta)``: the reciprocal of :func:`second_constant`, i.e. the
    weight for which ``mixed moment >= A * J0 + (q/p)(beta+1)**(1-q) f**p``.
    Where ``(beta + 1)**q`` overflows, ``beta / (beta + 1)`` is taken first."""
    return finite(
        f"the constant A overflows at p={p}, q={q}, beta={beta}",
        lambda: (q - 1.0) * beta / (beta + 1.0) ** q + (p - q) / p * (beta + 1.0) ** (1.0 - q),
        lambda: ((q - 1.0) * (beta / (beta + 1.0)) + (p - q) / p) * (beta + 1.0) ** (1.0 - q),
    )


def root_function(t: float, p: float, q: float, coupling: float) -> float:
    """``F(t) = A + (q-1) t**q - q (p-1)/p * t**(q-1)``; strictly increasing
    beyond ``t0 = (p-1)/p`` when q > 1, identically zero when q == 1."""
    return coupling + t ** (q - 1.0) * ((q - 1.0) * t - q * (p - 1.0) / p)


def t_beta(p: float, q: float, beta: float) -> float:
    """The unique root of :func:`root_function` at or above ``t0 = (p-1)/p``.
    ``1/(beta+1)`` is always a root, and it lies at or above ``t0`` exactly
    when beta <= 1/(p-1). Past that the root function is negative at ``t0``,
    and the root is bisected on the sign of the root function divided by
    ``(q-1) t**(q-1)``, where ``expm1`` keeps the digits as q -> 1. For q == 1
    the root function vanishes everywhere, and ``1/(beta+1)`` is returned by
    convention; past 1/(p-1) the q -> 1+ limit of the root differs from it."""
    IneqParams(p, q, beta)  # validates the parameter triple
    if q == 1.0 or beta <= 1.0 / (p - 1.0):
        return 1.0 / (beta + 1.0)

    def scaled(t: float) -> float:
        u = (beta + 1.0) * t  # inf only for beta near the float maximum
        x = (q - 1.0) * (math.log(u) if u < math.inf else math.log1p(beta) + math.log(t))
        return t - math.exp(-x) / (beta + 1.0) + q * (p - 1.0) / p * math.expm1(-x) / (q - 1.0)

    hi = 1.0 / (beta + 1.0) + 1.0
    while scaled(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise InvariantViolation("failed to bracket the envelope root")
    return _bisect(lambda t: scaled(t) < 0.0, (p - 1.0) / p, hi)


# ---------------------------------------------------------------------------
# deficits
# ---------------------------------------------------------------------------

Profile = Union[LineStepFunction, PowerLawFunction]

_TREE_INEQUALITIES = ("1.7", "1.8", "1.9")


def right_hand_side(inequality: str, p: float, q: float, beta: float, fp, j1, jq):
    """Right-hand side of (1.7), (1.8) or (1.9) from ``f**p`` and the mixed
    moments ``J1`` and ``Jq``; scalars or arrays alike.

    (1.7) is the two-term bound with q = 1, (1.8) its q-parameterized
    sharpening, (1.9) the (q, beta) family containing both. The line
    inequality (1.10) shares the (1.9) right-hand side. A c2 out of range
    raises from :func:`second_constant`; an overflowing product or difference
    gives ``inf`` or ``nan`` unwarned (numpy's error state is per thread, so
    it is set here), and the battery rejects such a row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if inequality == "1.7":
            return p / (p - 1.0) * j1 - fp / (p - 1.0)
        if inequality == "1.8":
            return (p / (p - 1.0)) ** q * jq - q / (p - 1.0) * fp
        return second_constant(p, q, beta) * jq - first_constant(p, q, beta) * fp


def tree_moments(v: np.ndarray, m: np.ndarray, p: float, q: float, out=None):
    """Per-row ``f, F, J0, J1, Jq`` of step functions ``v`` (one row each)
    and their maximal functions ``m``: the means of ``v``, ``v**p``,
    ``m**p``, ``v * m**(p-1)`` and ``v**q * m**(p-q)``.

    ``m`` is at least the row mean on every leaf, so it vanishes only on the
    zero function. ``out``, two arrays shaped like ``v``, holds the powers
    and products instead of new temporaries; every ufunc is the one the
    operators call, so the bits are the same.
    """
    a, b = (None, None) if out is None else out
    mp = np.power(m, p, out=a)
    vp = np.power(v, p, out=b)
    f, big_f, j0 = v.mean(axis=1), vp.mean(axis=1), mp.mean(axis=1)
    t = np.divide(mp, m, out=b)
    j1 = np.multiply(v, t, out=t).mean(axis=1)
    if q == 1.0:
        jq = j1
    elif q == p:
        jq = big_f
    else:
        t = np.power(m, q, out=b)
        np.divide(mp, t, out=t)
        s = np.power(v, q, out=a)  # m**p is read for the last time above
        jq = np.multiply(s, t, out=s).mean(axis=1)
    return f, big_f, j0, j1, jq


def weak_type_sides(v: np.ndarray, m: np.ndarray, lam: np.ndarray):
    """Both sides of the weak-type bound (1.2) at one level per row: the
    measure of ``{M phi > lam}`` and ``1/lam`` times the integral of ``phi``
    over that set."""
    if not np.all(lam > 0.0):
        raise DomainError(f"lambda must be positive, got {lam}")
    mask = m > lam[:, None]
    return mask.mean(axis=1), (v * mask).sum(axis=1) / (v.shape[1] * lam)


@dataclass(frozen=True)
class DeficitReport:
    """One inequality instance: both sides, the slack, and the moment data."""

    inequality: str
    lhs: float
    rhs: float
    deficit: float
    f: float
    F: float
    J0: float
    J1: float
    Jq: float
    params: IneqParams


def _report(inequality, params, rhs, f, big_f, j0, j1, jq) -> DeficitReport:
    """The report of one instance (its lhs is ``J0``), raised as a violation
    when the deficit is below the rounding slack."""
    report = DeficitReport(inequality, j0, rhs, rhs - j0, f, big_f, j0, j1, jq, params)
    if beyond_slack(report.deficit, report.rhs):
        raise InvariantViolation(
            f"inequality ({report.inequality}) violated beyond rounding slack: "
            f"lhs={report.lhs!r} rhs={report.rhs!r}"
        )
    return report


def _resolve_f(params: IneqParams, actual: float) -> IneqParams:
    if abs(actual - params.f) <= 1e-12 * max(1.0, abs(params.f)):
        return params
    return replace(params, f=actual)


def deficit(inequality: str, phi: StepFunction, params: IneqParams) -> DeficitReport:
    """Deficit of one tree inequality on a step function.

    ``inequality`` selects the right-hand side ("1.7", "1.8" or "1.9", see
    :func:`right_hand_side`). This is the one-row case of the battery's
    :func:`tree_moments`, so it reproduces a battery row bit for bit. If the
    measured mean of ``phi`` differs from ``params.f``, the measured value is
    used and recorded in the returned report.
    """
    if inequality not in _TREE_INEQUALITIES:
        raise DomainError(
            f"unknown inequality {inequality!r}, expected one of {_TREE_INEQUALITIES}"
        )
    p, q = params.p, params.q
    params = _resolve_f(params, float(phi.leaf_values.mean()))  # rejects phi = 0
    v = phi.leaf_values[None, :]
    m = batch_maximal_leaves(v, phi.tree.arity, phi.tree.depth)
    moments = tree_moments(v, m, p, q)
    f, _, _, j1, jq = moments
    rhs = right_hand_side(inequality, p, q, params.beta, f**p, j1, jq)
    return _report(inequality, params, float(rhs[0]), *(float(x[0]) for x in moments))


def line_moments(profiles: list[Profile], p: float, q: float):
    """Per-profile ``f, F, J0, J1, Jq`` of non-increasing profiles: the
    integrals of ``g``, ``g**p`` and ``(running average)**p``, and
    :func:`hardy_moments` at 1 and ``q``. The line :func:`tree_moments`."""
    if any(isinstance(g, LineStepFunction) and not g.is_non_increasing() for g in profiles):
        raise DomainError("profile must be non-increasing")
    j0 = hardy_moments(profiles, p, 0.0)
    j1 = hardy_moments(profiles, p, 1.0)
    jq = j1 if q == 1.0 else hardy_moments(profiles, p, q)
    f = np.array([g.integral() for g in profiles])
    return f, np.array([g.power_integral(p) for g in profiles]), j0, j1, jq


def hardy_deficit(g: Profile, params: IneqParams) -> DeficitReport:
    """Deficit of the line inequality (running averages instead of the tree
    maximal operator) for a non-increasing profile. With ``params.f`` the
    profile's mean, this is a battery (1.10) row bit for bit."""
    p, q = params.p, params.q
    f, big_f, j0, j1, jq = (float(x[0]) for x in line_moments([g], p, q))
    params = _resolve_f(params, f)
    rhs = right_hand_side("1.9", p, q, params.beta, params.f**p, j1, jq)
    return _report("1.10", params, rhs, params.f, big_f, j0, j1, jq)


# ---------------------------------------------------------------------------
# sharpness families
# ---------------------------------------------------------------------------


def _alpha_admissible(alpha: float, p: float) -> bool:
    """Power-law exponents whose p-th power is integrable: (0, 1/p)."""
    return 0.0 < alpha < 1.0 / p


def _beta_admissible(beta: float, p: float) -> bool:
    """Parameters of the matched profiles: (0, 1/(p-1)], up to rounding."""
    return 0.0 < beta <= 1.0 / (p - 1.0) + 1e-12


def sharpness_G(alpha: float, p: float, q: float) -> float:
    """Normalized deficit rate ``((p/(p-1))**q (1-alpha)**q - 1) / (1 - alpha p)``
    of the power-law family; tends to ``q/(p-1)`` as ``alpha -> 1/p``."""
    IneqParams(p, q)
    if not _alpha_admissible(alpha, p):
        raise DomainError(f"alpha must lie in (0, 1/p), got {alpha}")
    return ((p / (p - 1.0)) ** q * (1.0 - alpha) ** q - 1.0) / (1.0 - alpha * p)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of an extremizer sweep."""

    family: str
    grid_value: float
    alpha: float
    admissible: bool
    reason: str = ""
    report: Optional[DeficitReport] = None
    residual: float = math.nan
    residual_target: float = math.nan


def beta_family_residual(p: float, q: float, beta: float, f: float) -> tuple[float, float]:
    """Residual ``Jq - A*J0`` of the matched power-law profile, with its
    closed-form target ``(q/p) (beta+1)**(1-q) f**p``.

    Both integrals carry the factor ``1/(1 - alpha p)``, which diverges as
    ``beta -> 1/(p-1)``; it cancels in the difference, so the residual is
    the product form ``(q/p) c**p (beta+1)**(p-q+1)`` with ``c = f/(beta+1)``
    at every admissible beta, the endpoint included, and no digits are lost
    to a subtraction.
    """
    _check_p(p)
    if not _beta_admissible(beta, p):
        raise DomainError(f"beta must lie in (0, 1/(p-1)], got {beta}")
    c = f / (beta + 1.0)  # = f * (1 - alpha)
    message = f"the residual Jq - A*J0 or its target overflows at p={p}, q={q}, beta={beta}, f={f}"
    target = finite(message, lambda: (q / p) * (beta + 1.0) ** (1.0 - q) * f**p)
    return finite(message, lambda: (q / p) * c**p * (beta + 1.0) ** (p - q + 1.0)), target


def extremizer_sweep(
    params: IneqParams, family: str, grid
) -> list[SweepPoint]:
    """Evaluate an extremizer family along a parameter grid.

    ``family="g_alpha"`` sweeps the mean-normalized power laws
    ``f(1-alpha) t**(-alpha)`` over alpha values; the line deficit shrinks to
    zero as alpha approaches 1/p (and vanishes identically for q = 1).
    ``family="g_beta"`` sweeps the matched profiles with
    ``alpha = beta/(beta+1)`` over beta values and records the residual
    identity that pins the first constant. Inadmissible grid points are kept
    in the output with a reason instead of raising.
    """
    if family == "g_alpha":
        admissible, reason = _alpha_admissible, "alpha outside (0, 1/p)"
    elif family == "g_beta":
        admissible, reason = _beta_admissible, "beta outside (0, 1/(p-1)]"
    else:
        raise DomainError(f"unknown family {family!r}, expected g_alpha or g_beta")
    p, q, f = params.p, params.q, params.f
    on_beta = family == "g_beta"
    points: list[SweepPoint] = []
    for x in map(float, grid):
        alpha = x
        if on_beta:
            alpha = x / (x + 1.0) if x != -1.0 else math.nan
        if not admissible(x, p):
            points.append(SweepPoint(family, x, alpha, False, reason))
            continue
        matched, residual, target = params, math.nan, math.nan
        if on_beta:
            matched = replace(params, beta=x)
            residual, target = beta_family_residual(p, q, x, f)
        report = None
        # the matched profile at beta = 1/(p-1) has alpha = 1/p: no p-th moment
        if not on_beta or alpha * p < 1.0 - 1e-12:
            g = PowerLawFunction.from_mean_and_exponent(f, alpha)
            report = hardy_deficit(g, matched)
        points.append(SweepPoint(family, x, alpha, True, "", report, residual, target))
    return points
