"""Extremal curve: h_p and its inverse, closed-form value, envelope minimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemax import (
    DomainError,
    InfeasibleMomentsError,
    bellman_value,
    h_p,
    maximal_function,
    minimize_envelope,
    moment,
    omega_p,
)

from conftest import random_step_function

P_GRID = [1.1, 1.5, 2.0, 3.0, 5.0, 10.0]


def omega_2_analytic(x: float) -> float:
    """Quadratic oracle for p = 2: solve 2z - z**2 = x on [1, 2]."""
    return 1.0 + math.sqrt(1.0 - x)


class TestHp:
    @pytest.mark.parametrize("p", P_GRID)
    def test_endpoints(self, p):
        assert h_p(1.0, p) == 1.0
        assert h_p(p / (p - 1.0), p) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        assert h_p(1.5, 2.0) == 0.75  # 2*1.5 - 1.5**2

    @pytest.mark.parametrize("p", P_GRID)
    def test_strictly_decreasing(self, p):
        zs = np.linspace(1.0, p / (p - 1.0), 200)
        values = [h_p(float(z), p) for z in zs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            h_p(0.5, 2.0)
        with pytest.raises(DomainError):
            h_p(2.5, 2.0)
        with pytest.raises(DomainError):
            h_p(1.0, 1.0)  # p must exceed 1
        with pytest.raises(DomainError):
            h_p(1.0, 100.0)  # beyond the overflow guard


class TestOmegaP:
    @pytest.mark.parametrize("p", P_GRID)
    def test_endpoints_exact(self, p):
        assert omega_p(1.0, p) == 1.0
        assert omega_p(0.0, p) == p / (p - 1.0)

    def test_quadratic_oracle(self):
        for x in np.linspace(0.0, 1.0, 21):
            assert omega_p(float(x), 2.0) == pytest.approx(
                omega_2_analytic(float(x)), abs=1e-13
            )

    @pytest.mark.parametrize("p", P_GRID)
    def test_round_trip(self, p):
        for x in np.linspace(0.0, 1.0, 41):
            assert h_p(omega_p(float(x), p), p) == pytest.approx(
                float(x), abs=1e-12
            )

    @pytest.mark.parametrize("p", P_GRID)
    def test_strictly_decreasing(self, p):
        xs = np.linspace(0.0, 1.0, 100)
        ws = [omega_p(float(x), p) for x in xs]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    @pytest.mark.parametrize("p", P_GRID)
    def test_normalized_power_decreasing(self, p):
        # U(x) = omega_p(x)**p / x decreases on (0, 1]; this monotonicity is
        # what makes the level-m approximation argument close
        xs = np.linspace(0.01, 1.0, 100)
        us = [omega_p(float(x), p) ** p / x for x in xs]
        assert all(a > b for a, b in zip(us, us[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            omega_p(1.5, 2.0)
        with pytest.raises(DomainError):
            omega_p(-0.1, 2.0)


class TestBellmanValue:
    def test_feasibility_boundary(self):
        point = bellman_value(2.0, 1.5, 1.5**2)
        assert point.value == pytest.approx(1.5**2, rel=1e-14)
        assert point.alpha == 1.0

    def test_golden_pair(self):
        point = bellman_value(2.0, 1.0, 2.0)
        assert point.value == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-12)
        assert point.alpha == pytest.approx(omega_2_analytic(0.5), abs=1e-13)
        assert point.K == pytest.approx(1.0 / omega_2_analytic(0.5), abs=1e-13)

    def test_second_pair_quadratic_oracle(self):
        expected = 10.0 * omega_2_analytic(0.1) ** 2
        assert bellman_value(2.0, 1.0, 10.0).value == pytest.approx(
            expected, abs=1e-10
        )
        assert expected == pytest.approx(37.9736659610, abs=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_range_invariants(self, p, rng):
        for _ in range(25):
            f = float(rng.uniform(0.2, 2.0))
            ratio = float(rng.uniform(0.02, 1.0))
            big_f = f**p / ratio
            point = bellman_value(p, f, big_f)
            assert big_f * (1 - 1e-12) <= point.value
            assert point.value <= (p / (p - 1.0)) ** p * big_f * (1 + 1e-12)
            assert 1.0 <= point.alpha <= p / (p - 1.0)
            assert h_p(point.alpha, p) == pytest.approx(f**p / big_f, abs=1e-12)

    def test_infeasible_moments(self):
        with pytest.raises(InfeasibleMomentsError):
            bellman_value(2.0, 2.0, 1.0)

    def test_overflowing_bound(self):
        # F is finite but F * omega**p is not
        with pytest.raises(DomainError):
            bellman_value(3.0, 65.0, 1e308)

    def test_upper_bound_on_random_step_functions(self, rng):
        # the closed form really does dominate the maximal moment
        for p in (1.5, 2.0, 3.0):
            for _ in range(15):
                phi = random_step_function(rng, arity=2, depth=6)
                f, big_f = moment(phi, 1), moment(phi, p)
                bound = bellman_value(p, f, big_f).value
                observed = moment(maximal_function(phi).m_phi, p)
                assert observed <= bound * (1 + 1e-9)


class TestEnvelope:
    def test_hand_value(self):
        # p=2, (f, F) = (1, 4/3): the envelope (beta+1)((beta+1)F - f**2)/beta
        # is 4/3 beta + 5/3 + 1/(3 beta), least at beta = 1/2 with value 3
        beta_opt, value = minimize_envelope(2.0, 1.0, 4.0 / 3.0)
        assert beta_opt == pytest.approx(0.5, abs=1e-6)
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_calculus_oracle_minimum(self):
        # for p=2 the stationarity condition is beta**2 = (F - f**2)/F, where
        # the envelope is 2F - f**2 + 2 sqrt(F (F - f**2)); at (f, F) = (1, 2)
        # that gives beta = 1/sqrt(2) and value 3+2*sqrt(2)
        for f, big_f in [(1.0, 2.0), (0.5, 1.0), (2.0, 4.5), (1.0, 10.0)]:
            beta_opt, value = minimize_envelope(2.0, f, big_f)
            gap = big_f - f**2
            assert beta_opt == pytest.approx(math.sqrt(gap / big_f), abs=1e-6)
            assert value == pytest.approx(
                2.0 * big_f - f**2 + 2.0 * math.sqrt(big_f * gap), rel=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            minimize_envelope(1.0, 1.0, 2.0)
        with pytest.raises(InfeasibleMomentsError):
            minimize_envelope(2.0, 2.0, 1.0)

    def test_minimize_golden(self):
        beta_opt, value = minimize_envelope(2.0, 1.0, 2.0)
        assert beta_opt == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        assert value == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-10)

    def test_minimize_matches_closed_form(self):
        for p, f, big_f in [(2.0, 1.0, 10.0), (3.0, 0.7, 4.0), (1.5, 1.2, 9.0)]:
            _, value = minimize_envelope(p, f, big_f)
            assert value == pytest.approx(
                bellman_value(p, f, big_f).value, rel=1e-6
            )

    def test_minimizer_tracks_inverse_curve(self, rng):
        # beta_opt + 1 = omega_p(f**p/F), verified numerically on a grid
        for _ in range(25):
            p = float(rng.uniform(1.2, 6.0))
            f = float(rng.uniform(0.3, 2.0))
            ratio = float(rng.uniform(0.01, 0.99))
            big_f = f**p / ratio
            beta_opt, _ = minimize_envelope(p, f, big_f)
            assert beta_opt + 1.0 == pytest.approx(omega_p(ratio, p), abs=1e-6)

    def test_float_spacing_above_tolerance(self):
        # beta_opt ~ 1e7, where adjacent floats lie further apart than the
        # search's bracket tolerance; the step cap ends the search
        _, value = minimize_envelope(1.0000001, 2.0, 64.0)
        assert value == pytest.approx(bellman_value(1.0000001, 2.0, 64.0).value, rel=1e-9)

    def test_non_finite_moments(self):
        for f, big_f in [(math.nan, 2.0), (1.0, math.inf), (0.0, 1.0)]:
            with pytest.raises(DomainError):
                minimize_envelope(2.0, f, big_f)

    def test_boundary_limit(self):
        beta_opt, value = minimize_envelope(2.0, 1.5, 1.5**2)
        assert beta_opt == 0.0
        assert value == 1.5**2


class TestYoungInequality:
    @settings(deadline=None, max_examples=300)
    @given(
        x=st.floats(min_value=1e-6, max_value=1e6),
        y=st.floats(min_value=1e-6, max_value=1e6),
        p=st.floats(min_value=1.01, max_value=30.0),
    )
    def test_elementary_inequality(self, x, y, p):
        # p*x*y**(p-1) <= x**p + (p-1)*y**p, the one-line engine of the
        # linearization proof
        lhs = p * x * y ** (p - 1.0)
        rhs = x**p + (p - 1.0) * y**p
        assert lhs <= rhs * (1 + 1e-12)

    def test_equality_on_diagonal(self):
        for p in (1.5, 2.0, 4.0):
            x = 1.7
            assert p * x * x ** (p - 1.0) == pytest.approx(
                x**p + (p - 1.0) * x**p, rel=1e-14
            )
