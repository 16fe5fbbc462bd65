"""A 40-digit mpmath reference for the extremal curve and the inequality constants.

Every reference takes the float arguments exactly (``mpf(x)`` is the double
itself) and works at 40 digits (60 for the envelope minimum), bisecting in
mpmath where the package bisects in floats, so its own error is far below the
float results it checks. The tolerances are the claimed ones: 1e-12 for
``omega_p``, ``bellman_value`` and ``minimize_envelope``, a few ulps for the
closed forms and for ``t_beta``.
"""

import math

import mpmath
import pytest

from treemax import bellman_value, beta_family_residual, minimize_envelope, omega_p, t_beta
from treemax.sweeps import BATTERY_PS, battery_betas, battery_qs

DPS = 40
CLOSED_FORM_ULPS = 4  # largest achieved: 3.4 (residual toward the endpoint, p = 5)


def _ulps(value: float, reference) -> float:
    """Distance of ``value`` from ``reference`` in ulps of the reference."""
    return float(abs(mpmath.mpf(value) - reference)) / math.ulp(float(reference))


def _bisect(go_right, lo, hi):
    """150 halvings: a bracket of width at most 1000 shrinks below 1e-42."""
    for _ in range(150):
        mid = (lo + hi) / 2
        if go_right(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _omega(x: float, p: float):
    """The root of ``z**(p-1) * (p - (p-1) z) = x`` on [1, p/(p-1)]."""
    x, p = mpmath.mpf(x), mpmath.mpf(p)
    return _bisect(lambda z: z ** (p - 1) * (p - (p - 1) * z) >= x, mpmath.mpf(1), p / (p - 1))


def _coupling(p, q, beta):
    return (q - 1) * beta / (beta + 1) ** q + (p - q) / p * (beta + 1) ** (1 - q)


def _residual_target(p: float, q: float, beta: float, f: float):
    """``(q/p) (beta+1)**(1-q) f**p``: the value of ``Jq - A*J0`` at every
    admissible beta, and its limit at the endpoint."""
    p, q, beta, f = map(mpmath.mpf, (p, q, beta, f))
    return q / p * (beta + 1) ** (1 - q) * f**p


def _residual_difference(p: float, q: float, beta: float, f: float):
    """``Jq - A*J0`` of the matched power law, from its two closed forms."""
    p, q, beta, f = map(mpmath.mpf, (p, q, beta, f))
    c = f / (beta + 1)
    one_minus_ap = 1 - beta / (beta + 1) * p
    j0 = (beta + 1) ** p * c**p / one_minus_ap
    jq = (beta + 1) ** (p - q) * c**p / one_minus_ap
    return jq - _coupling(p, q, beta) * j0


def _t_beta(p: float, q: float, beta: float):
    """The root of the envelope's root function above ``t0 = (p-1)/p``; for
    q = 1 the function vanishes and ``t_beta`` is ``1/(beta+1)`` by
    convention (past ``1/(p-1)`` the q -> 1+ limit of the root differs)."""
    p, q, beta = map(mpmath.mpf, (p, q, beta))
    if q == 1:
        return 1 / (beta + 1)
    coupling = _coupling(p, q, beta)

    def root_function(t):
        return coupling + t ** (q - 1) * ((q - 1) * t - q * (p - 1) / p)

    t0 = (p - 1) / p
    if root_function(t0) >= 0:
        return t0
    hi = mpmath.mpf(1)
    while root_function(hi) <= 0:
        hi *= 2
    return _bisect(lambda t: root_function(t) < 0, t0, hi)


def _battery_cells():
    return [(p, q, beta) for p in BATTERY_PS for q in battery_qs(p) for beta in battery_betas(p)]


@pytest.mark.parametrize("p", BATTERY_PS)
def test_omega_p_within_1e_12(p):
    xs = (0.0, 1e-12, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6, 1.0)
    with mpmath.workdps(DPS):
        errors = [float(abs(omega_p(x, p) - _omega(x, p))) for x in xs]
    assert max(errors) <= 1e-12, dict(zip(xs, errors))


@pytest.mark.parametrize("p", BATTERY_PS)
def test_bellman_value_within_1e_12(p):
    """Moment pairs from far inside the feasible set to ``F/f**p = 1 + 1e-6``,
    and the Jensen boundary at f = 1. At ``F = f**p`` for another f the
    rounding of ``f**p`` moves the exact pair off the boundary, where
    ``omega_p`` has an infinite slope: that one rounding moves the exact value
    by about 1e-8 relative, which no float evaluation of the pair can see."""
    pairs = [(f, f**p / x) for f in (0.5, 1.0, 3.0) for x in (1e-6, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6)]
    with mpmath.workdps(DPS):
        for f, big_f in pairs + [(1.0, 1.0)]:
            point = bellman_value(p, f, big_f)
            alpha = _omega(mpmath.mpf(f) ** p / mpmath.mpf(big_f), p)
            reference = mpmath.mpf(big_f) * alpha**p
            assert abs(point.alpha - alpha) <= 1e-12, (f, big_f)
            assert abs(point.value - reference) <= 1e-12 * reference, (f, big_f)


@pytest.mark.parametrize("p", [1.001, 1.2, 1.5, 2.0, 3.0, 5.0, 16.0, 64.0])
def test_envelope_minimum_against_the_inverse_curve(p):
    """``beta_opt + 1`` is ``omega_p(f**p/F)`` and the envelope's minimum the
    Bellman value ``F omega**p``, here at 60 digits. Nearer the Jensen
    boundary ``F = f**p`` the minimizer is ill-conditioned, so this grid
    stops at ``F/f**p = 1.01``."""
    with mpmath.workdps(60):
        for ratio in (1.01, 1.5, 3.0, 100.0, 1e6):
            for f in (0.3, 1.0, 2.5):
                big_f = f**p * ratio
                beta_opt, min_value = minimize_envelope(p, f, big_f)
                alpha = _omega(mpmath.mpf(f) ** p / mpmath.mpf(big_f), p)
                reference = mpmath.mpf(big_f) * alpha**p
                assert abs(beta_opt - (alpha - 1)) <= 1e-12 * (alpha - 1), (ratio, f)
                assert abs(min_value - reference) <= 1e-12 * reference, (ratio, f)


@pytest.mark.parametrize("p", BATTERY_PS)
def test_beta_family_residual_at_the_battery_betas(p):
    """The three admissible battery betas (the last is the endpoint
    ``1/(p-1)``); ``2/(p-1)`` lies past the endpoint and raises."""
    with mpmath.workdps(DPS):
        for q in battery_qs(p):
            for beta in battery_betas(p)[:3]:
                for f in (1.0, 3.0):
                    residual, target = beta_family_residual(p, q, beta, f)
                    reference = _residual_target(p, q, beta, f)
                    assert _ulps(residual, reference) <= CLOSED_FORM_ULPS, (q, beta, f)
                    assert _ulps(target, reference) <= CLOSED_FORM_ULPS, (q, beta, f)


@pytest.mark.parametrize("p", BATTERY_PS)
def test_beta_family_residual_toward_the_endpoint(p):
    """The two closed forms whose difference is the residual both grow like
    ``1/(1 - alpha p)``; the product form cancels that factor, so its error
    stays within a few ulps however close beta comes to ``1/(p-1)``."""
    with mpmath.workdps(DPS):
        for q in battery_qs(p):
            for gap in (1e-3, 1e-6, 1e-9, 1e-11):
                beta = (1.0 - gap) / (p - 1.0)
                residual, _ = beta_family_residual(p, q, beta, 1.0)
                reference = _residual_target(p, q, beta, 1.0)
                # the 40-digit difference of the closed forms is the identity
                assert abs(_residual_difference(p, q, beta, 1.0) - reference) <= 1e-25 * reference
                assert _ulps(residual, reference) <= CLOSED_FORM_ULPS, (q, gap)


def test_t_beta_off_the_double_root():
    """Every battery cell except ``beta = 1/(p-1)`` with ``q > 1``."""
    with mpmath.workdps(DPS):
        for p, q, beta in _battery_cells():
            if q > 1.0 and beta == 1.0 / (p - 1.0):
                continue
            assert _ulps(t_beta(p, q, beta), _t_beta(p, q, beta)) <= 4, (p, q, beta)


@pytest.mark.parametrize("p,beta", [(2.0, 2.0), (5.0, 1.0), (1.5, 10.0)])
def test_t_beta_as_q_nears_one(p, beta):
    """Past ``beta = 1/(p-1)`` the root function is a difference of terms
    that agree to ``q - 1``; with that factor taken out the root keeps its
    digits."""
    with mpmath.workdps(DPS):
        for gap in (1e-6, 1e-9, 1e-12, 1e-14):
            q = 1.0 + gap
            assert _ulps(t_beta(p, q, beta), _t_beta(p, q, beta)) <= 8, gap


def test_t_beta_where_beta_plus_one_times_t_overflows():
    """Near the float maximum ``(beta+1) t`` is inf, and the logarithm of
    the product is taken as a sum."""
    with mpmath.workdps(DPS):
        for q in (1.001, 1.5):
            for beta in (1e300, 1.7e308):
                assert _ulps(t_beta(2.0, q, beta), _t_beta(2.0, q, beta)) <= 4, (q, beta)


@pytest.mark.parametrize("p", BATTERY_PS)
def test_t_beta_at_the_double_root(p):
    """At ``beta = 1/(p-1)`` the root function touches zero at ``t0`` without
    crossing it, where a float bisection could stop about ``sqrt(eps)`` away
    (4.8e-9 at p = 2, q = 1.5); the closed form ``1/(beta+1)`` is within a
    few ulps."""
    beta = 1.0 / (p - 1.0)
    with mpmath.workdps(DPS):
        for q in battery_qs(p)[1:]:
            reference = _t_beta(p, q, beta)
            assert abs(reference - 1 / (mpmath.mpf(beta) + 1)) <= 1e-18
            assert _ulps(t_beta(p, q, beta), reference) <= 4, q
