"""Closed-form extremal curve of the two-variable problem.

``h_p`` is the decreasing bijection of [1, p/(p-1)] onto [0, 1] whose inverse
``omega_p`` parameterizes the sharp upper bound ``F * omega_p(f**p/F)**p``
for the p-th moment of the maximal function at prescribed moments (f, F).
A one-parameter family of upper bounds, the envelope, has the same value as
its minimum over the parameter (:func:`minimize_envelope`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InfeasibleMomentsError, finite

# z**p overflows well before p does; desk-scale exponent guard.
P_MAX = 64.0

# Step cap of every bisection: brackets collapse to adjacent floats within
# ~100 halvings; the cap ends those that cannot.
_MAX_STEPS = 200


def _check_p(p: float) -> float:
    p = float(p)
    if not 1.0 < p <= P_MAX:
        raise DomainError(f"p must lie in (1, {P_MAX:g}], got {p}")
    return p


def _bisect(go_right, lo: float, hi: float) -> float:
    """Midpoint of ``[lo, hi]`` after halving it toward the half that
    ``go_right(mid)`` selects, until the bracket collapses to adjacent floats
    (or ``_MAX_STEPS`` halvings pass)."""
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if go_right(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def h_p(z: float, p: float) -> float:
    """``-(p-1)*z**p + p*z**(p-1)``, evaluated in the factored form
    ``z**(p-1) * (p - (p-1)*z)`` which is exact at both endpoints."""
    p = _check_p(p)
    z_max = p / (p - 1.0)
    if not 1.0 - 1e-12 <= z <= z_max * (1.0 + 1e-12):
        raise DomainError(f"z must lie in [1, {z_max}], got {z}")
    return z ** (p - 1.0) * (p - (p - 1.0) * z)


def omega_p(x: float, p: float) -> float:
    """Inverse of :func:`h_p` on [0, 1] by bisection.

    The bracket runs down to collapse (at most ~60 halvings), so the result
    reproduces x under :func:`h_p` to a few ulps. The bracket endpoints are
    exact roots for x = 1 and x = 0.
    """
    p = _check_p(p)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    z_max = p / (p - 1.0)
    if x == 1.0:
        return 1.0
    if x == 0.0:
        return z_max
    # h(1) = 1 >= x >= 0 ~ h(z_max)
    return _bisect(lambda z: h_p(z, p) >= x, 1.0, z_max)


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


def _check_moments(p: float, f: float, big_f: float) -> float:
    """The ratio ``f**p / F`` of a feasible moment pair (at most 1 up to
    rounding); raises on non-positive, non-finite or infeasible moments."""
    if not (0.0 < f < math.inf and 0.0 < big_f < math.inf):
        raise DomainError(f"moments f and F must be positive and finite, got f={f}, F={big_f}")
    try:
        fp = f**p
    except OverflowError:  # beyond every finite F
        fp = math.inf
    if fp / big_f > 1.0 + 1e-12:
        raise InfeasibleMomentsError(
            f"f**p = {fp} exceeds F = {big_f}; no nonnegative function has these moments"
        )
    return fp / big_f


def bellman_value(p: float, f: float, big_f: float) -> BellmanPoint:
    """Evaluate ``F * omega_p(f**p/F)**p`` with its extremal parameters."""
    p = _check_p(p)
    alpha = omega_p(min(_check_moments(p, f, big_f), 1.0), p)
    value = finite(f"the bound F*omega**p overflows at p={p}, f={f}, F={big_f}", lambda: big_f * alpha**p)
    return BellmanPoint(p=p, f=f, F=big_f, value=value, alpha=alpha, K=f / alpha)


def _envelope(p: float, f: float, big_f: float, beta: float) -> float:
    """The envelope member at ``beta``, for arguments already checked."""
    return (beta + 1.0) / beta * ((beta + 1.0) ** (p - 1.0) * big_f - f**p) / (p - 1.0)


def _scaled_slope(p: float, ratio: float, beta: float) -> float:
    """The envelope's slope times ``beta**2 (p-1) / F``, with ``ratio = f**p / F``.
    It increases with beta > 0, from ``ratio - 1 < 0`` at 0 to ``ratio > 0``
    at ``1/(p-1)``, where ``(beta+1)**(p-1) <= e``: nothing here overflows."""
    return ratio + (beta + 1.0) ** (p - 1.0) * (beta * (p - 1.0) - 1.0)


def minimize_envelope(p: float, f: float, big_f: float) -> tuple[float, float]:
    """Minimum of the envelope over beta in (0, 1/(p-1)], at the one sign
    change of its slope (:func:`_scaled_slope`), bisected to adjacent floats.

    Returns ``(beta_opt, min_value)``. The minimum matches the closed form of
    :func:`bellman_value`, and ``beta_opt + 1`` is ``omega_p(f**p/F)``; the
    boundary pair F = f**p degenerates to the limit value f**p at beta -> 0.
    """
    p = _check_p(p)
    ratio = _check_moments(p, f, big_f)
    if big_f <= f**p:
        return 0.0, f**p
    beta_opt = _bisect(lambda beta: _scaled_slope(p, ratio, beta) < 0.0, 0.0, 1.0 / (p - 1.0))
    return beta_opt, _envelope(p, f, big_f, beta_opt)
