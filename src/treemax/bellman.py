"""Closed-form extremal curve of the two-variable problem.

``h_p`` is the decreasing bijection of [1, p/(p-1)] onto [0, 1] whose inverse
``omega_p`` parameterizes the sharp upper bound ``F * omega_p(f**p/F)**p``
for the p-th moment of the maximal function at prescribed moments (f, F).
The one-parameter family ``envelope_bound`` is an upper envelope whose
minimum over the parameter reproduces the same value.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, InfeasibleMomentsError

# z**p overflows well before p does; desk-scale exponent guard.
P_MAX = 64.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step


def _check_p(p: float) -> float:
    p = float(p)
    if not 1.0 < p <= P_MAX:
        raise DomainError(f"p must lie in (1, {P_MAX:g}], got {p}")
    return p


def h_p(z: float, p: float) -> float:
    """``-(p-1)*z**p + p*z**(p-1)``, evaluated in the factored form
    ``z**(p-1) * (p - (p-1)*z)`` which is exact at both endpoints."""
    p = _check_p(p)
    z_max = p / (p - 1.0)
    if not 1.0 - 1e-12 <= z <= z_max * (1.0 + 1e-12):
        raise DomainError(f"z must lie in [1, {z_max}], got {z}")
    return z ** (p - 1.0) * (p - (p - 1.0) * z)


def omega_p(x: float, p: float, tolerance: float = 0.0) -> float:
    """Inverse of :func:`h_p` on [0, 1] by bisection.

    The default ``tolerance = 0`` runs the bracket down to collapse (at most
    ~60 halvings), so the result reproduces x under :func:`h_p` to a few
    ulps; a positive tolerance stops once the bracket is that narrow. The
    bracket endpoints are exact roots for x = 1 and x = 0.
    """
    p = _check_p(p)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    z_max = p / (p - 1.0)
    if x == 1.0:
        return 1.0
    if x == 0.0:
        return z_max
    lo, hi = 1.0, z_max  # h(lo) = 1 >= x >= 0 ~ h(hi)
    for _ in range(200):
        if hi - lo <= tolerance:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h_p(mid, p) >= x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class BellmanPoint:
    """Sharp bound at one moment pair, with its extremal parameters.

    ``alpha`` is the inverse-curve location ``omega_p(f**p/F)`` and ``K`` the
    matching power-law coefficient ``f/alpha``; together they describe the
    decreasing profile ``K * t**(-1 + 1/alpha)`` whose running average is
    ``alpha`` times itself.
    """

    p: float
    f: float
    F: float
    value: float
    alpha: float
    K: float


def bellman_value(p: float, f: float, big_f: float) -> BellmanPoint:
    """Evaluate ``F * omega_p(f**p/F)**p`` with its extremal parameters."""
    p = _check_p(p)
    if f <= 0 or big_f <= 0:
        raise DomainError("moments f and F must be positive")
    ratio = f**p / big_f
    if ratio > 1.0 + 1e-12:
        raise InfeasibleMomentsError(
            f"f**p = {f**p} exceeds F = {big_f}; no nonnegative function has these moments"
        )
    alpha = omega_p(min(ratio, 1.0), p)
    return BellmanPoint(
        p=p, f=f, F=big_f, value=big_f * alpha**p, alpha=alpha, K=f / alpha
    )


def _envelope(p: float, f: float, big_f: float, beta: float) -> float:
    """The envelope member at ``beta``, for arguments already checked."""
    return (beta + 1.0) / beta * ((beta + 1.0) ** (p - 1.0) * big_f - f**p) / (p - 1.0)


def envelope_bound(p: float, f: float, big_f: float, beta: float) -> float:
    """One member of the parametric upper envelope at the pair (f, F)."""
    p = _check_p(p)
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if f <= 0 or big_f <= 0 or f**p > big_f * (1.0 + 1e-12):
        raise InfeasibleMomentsError(f"invalid moments f={f}, F={big_f}")
    return _envelope(p, f, big_f, beta)


def minimize_envelope(
    p: float, f: float, big_f: float, beta_tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section minimum of the envelope over beta in (0, 1/(p-1)].

    Returns ``(beta_opt, min_value)``. The minimum matches the closed form of
    :func:`bellman_value`; the boundary pair F = f**p degenerates to the
    limit value f**p at beta -> 0.
    """
    p = _check_p(p)
    if f <= 0 or big_f <= 0 or f**p > big_f * (1.0 + 1e-12):
        raise InfeasibleMomentsError(f"invalid moments f={f}, F={big_f}")
    if big_f <= f**p:
        return 0.0, f**p

    envelope = functools.partial(_envelope, p, f, big_f)
    lo, hi = 1e-12, 1.0 / (p - 1.0)
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = envelope(x1), envelope(x2)
    while hi - lo > beta_tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = envelope(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = envelope(x2)
    beta_opt = 0.5 * (lo + hi)
    min_value = envelope(beta_opt)
    edge = min(envelope(1e-12), envelope(1.0 / (p - 1.0)))
    if min_value > edge * (1.0 + 1e-9):
        # not expected: the envelope is strictly unimodal on the bracket
        warnings.warn("envelope minimum not interior; result may be inaccurate")
    return beta_opt, min_value
