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
from .errors import DomainError, InvariantViolation
from .maximal import batch_maximal_leaves
from .rearrange import (
    LineStepFunction,
    PowerLawFunction,
    hardy_moment,
    hardy_power,
)
from .tree import StepFunction

# A computed deficit may dip below zero by accumulated rounding only; this is
# the relative slack before we call it a genuine violation.
DEFICIT_SLACK = 1e-9


@dataclass(frozen=True)
class IneqParams:
    """Exponents and parameters shared by the inequality family."""

    p: float
    q: float = 1.0
    beta: float = 1.0
    f: float = 1.0

    def __post_init__(self):
        _check_p(self.p)
        if not 1.0 <= self.q <= self.p:
            raise DomainError(f"q must lie in [1, p], got q={self.q}, p={self.p}")
        if not 0.0 < self.beta < math.inf:
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not 0.0 < self.f < math.inf:
            raise DomainError(f"f must be positive and finite, got {self.f}")


def first_constant(p: float, q: float, beta: float) -> float:
    """Coefficient of ``-f**p`` on the right-hand side."""
    return q * (beta + 1.0) / ((p - 1.0) * q * beta + (p - q))


def second_constant(p: float, q: float, beta: float) -> float:
    """Coefficient of the mixed moment on the right-hand side."""
    return p * (beta + 1.0) ** q / ((p - 1.0) * q * beta + (p - q))


def coupling_constant(p: float, q: float, beta: float) -> float:
    """``A(p, q, beta)``: the reciprocal of :func:`second_constant`, i.e. the
    weight for which ``mixed moment >= A * J0 + (q/p)(beta+1)**(1-q) f**p``."""
    return (q - 1.0) * beta / (beta + 1.0) ** q + (p - q) / p * (beta + 1.0) ** (
        1.0 - q
    )


def root_function(t: float, p: float, q: float, coupling: float) -> float:
    """``F(t) = A + (q-1) t**q - q (p-1)/p * t**(q-1)``; strictly increasing
    beyond ``t0 = (p-1)/p`` when q > 1, identically zero when q == 1."""
    return coupling + t ** (q - 1.0) * ((q - 1.0) * t - q * (p - 1.0) / p)


@dataclass(frozen=True)
class Constants:
    """All derived constants of one parameter triple (p, q, beta).

    ``t_beta`` is the unique root of :func:`root_function` above ``t0``; for
    beta <= 1/(p-1) it coincides with ``1/(beta+1)``. For q == 1 the root
    function degenerates to zero everywhere, so ``t_beta`` carries the
    continuous-in-q value ``1/(beta+1)``.
    """

    A: float
    c1: float
    c2: float
    t0: float
    t_beta: float
    h_val: float


def _locate_t_beta(p: float, q: float, coupling: float, beta: float) -> float:
    t0 = (p - 1.0) / p
    f_lo = coupling - t0**q  # root_function(t0) simplified
    if f_lo >= 0.0:
        # only at beta = 1/(p-1), where the root collides with t0
        return t0
    hi = max(1.0, 1.0 / (beta + 1.0) + 1.0)
    while root_function(hi, p, q, coupling) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise InvariantViolation("failed to bracket the envelope root")
    return _bisect(lambda t: root_function(t, p, q, coupling) < 0.0, t0, hi)


def constants(params: IneqParams) -> Constants:
    """Fill every derived constant for the parameter triple."""
    p, q, beta = params.p, params.q, params.beta
    coupling = coupling_constant(p, q, beta)
    t0 = (p - 1.0) / p
    if q == 1.0:
        # root function is identically zero; keep the q -> 1 limit value
        t_beta = 1.0 / (beta + 1.0)
    else:
        t_beta = _locate_t_beta(p, q, coupling, beta)
    return Constants(
        A=coupling,
        c1=first_constant(p, q, beta),
        c2=second_constant(p, q, beta),
        t0=t0,
        t_beta=t_beta,
        h_val=coupling,
    )


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
    inequality (1.10) shares the (1.9) right-hand side.
    """
    if inequality == "1.7":
        return p / (p - 1.0) * j1 - fp / (p - 1.0)
    if inequality == "1.8":
        return (p / (p - 1.0)) ** q * jq - q / (p - 1.0) * fp
    return second_constant(p, q, beta) * jq - first_constant(p, q, beta) * fp


def tree_moments(v: np.ndarray, m: np.ndarray, p: float, q: float):
    """Per-row ``f, F, J0, J1, Jq`` of step functions ``v`` (one row each)
    and their maximal functions ``m``: the means of ``v``, ``v**p``,
    ``m**p``, ``v * m**(p-1)`` and ``v**q * m**(p-q)``.

    ``m`` is at least the row mean on every leaf, so it vanishes only on the
    zero function.
    """
    mp = m**p
    vp = v**p
    j1 = (v * (mp / m)).mean(axis=1)
    if q == 1.0:
        jq = j1
    elif q == p:
        jq = vp.mean(axis=1)
    else:
        jq = ((v**q) * (mp / m**q)).mean(axis=1)
    return v.mean(axis=1), vp.mean(axis=1), mp.mean(axis=1), j1, jq


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

    def scale(self) -> float:
        return max(1.0, abs(self.rhs))


def _report(inequality, params, rhs, f, big_f, j0, j1, jq) -> DeficitReport:
    """The report of one instance (its lhs is ``J0``), raised as a violation
    when the deficit is below the rounding slack."""
    report = DeficitReport(inequality, j0, rhs, rhs - j0, f, big_f, j0, j1, jq, params)
    if report.deficit < -DEFICIT_SLACK * report.scale():
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


def hardy_deficit(g: Profile, params: IneqParams) -> DeficitReport:
    """Deficit of the line inequality (running averages instead of the tree
    maximal operator) for a non-increasing profile."""
    if isinstance(g, LineStepFunction) and not g.is_non_increasing():
        raise DomainError("profile must be non-increasing")
    p, q = params.p, params.q
    params = _resolve_f(params, g.integral())
    f = params.f

    j0 = hardy_power(g, p)
    j1 = hardy_moment(g, p, 1.0)
    jq = hardy_moment(g, p, q)
    rhs = right_hand_side("1.9", p, q, params.beta, f**p, j1, jq)
    return _report("1.10", params, rhs, f, g.power_integral(p), j0, j1, jq)


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

    The two integrals diverge together as ``beta -> 1/(p-1)``; their
    difference has a removable singularity there, evaluated by the cancelled
    product form. Interior betas use the honest difference of closed forms.
    """
    _check_p(p)
    if not _beta_admissible(beta, p):
        raise DomainError(f"beta must lie in (0, 1/(p-1)], got {beta}")
    alpha = beta / (beta + 1.0)
    c = f / (beta + 1.0)  # = f * (1 - alpha)
    target = (q / p) * (beta + 1.0) ** (1.0 - q) * f**p
    one_minus_ap = 1.0 - alpha * p
    if one_minus_ap <= 1e-12:
        # endpoint: both integrals are infinite, the difference survives
        residual = (q / p) * c**p * (beta + 1.0) ** (p - q + 1.0)
        return residual, target
    coupling = coupling_constant(p, q, beta)
    j0 = (beta + 1.0) ** p * c**p / one_minus_ap
    jq = (beta + 1.0) ** (p - q) * c**p / one_minus_ap
    return jq - coupling * j0, target


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
    p, q, f = params.p, params.q, params.f
    points: list[SweepPoint] = []
    if family == "g_alpha":
        for alpha in grid:
            alpha = float(alpha)
            if not _alpha_admissible(alpha, p):
                points.append(
                    SweepPoint(family, alpha, alpha, False, "alpha outside (0, 1/p)")
                )
                continue
            g = PowerLawFunction.from_mean_and_exponent(f, alpha)
            report = hardy_deficit(g, params)
            points.append(SweepPoint(family, alpha, alpha, True, report=report))
    elif family == "g_beta":
        for beta in grid:
            beta = float(beta)
            alpha = beta / (beta + 1.0) if beta != -1.0 else math.nan
            if not _beta_admissible(beta, p):
                points.append(
                    SweepPoint(family, beta, alpha, False, "beta outside (0, 1/(p-1)]")
                )
                continue
            residual, target = beta_family_residual(p, q, beta, f)
            report = None
            if alpha * p < 1.0 - 1e-12:
                g = PowerLawFunction.from_mean_and_exponent(f, alpha)
                matched = replace(params, beta=beta)
                report = hardy_deficit(g, matched)
            points.append(
                SweepPoint(
                    family,
                    beta,
                    alpha,
                    True,
                    report=report,
                    residual=residual,
                    residual_target=target,
                )
            )
    else:
        raise DomainError(f"unknown family {family!r}, expected g_alpha or g_beta")
    return points
