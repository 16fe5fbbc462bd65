"""Rearrangements, power-law profiles, and the averaging integrals."""

import math

import numpy as np
import pytest

from treemax import (
    DivergentIntegralError,
    DomainError,
    LineStepFunction,
    PowerLawFunction,
    ShapeError,
    StepFunction,
    Tree,
    bellman_value,
    decreasing_rearrangement,
    discretize,
    hardy_moment,
    hardy_power,
    maximal_function,
    moment,
    random_rearrangement,
)
from treemax.sweeps import orbit_sample_max

from conftest import random_step_function


def step_hardy_power_p2(g: LineStepFunction) -> float:
    """Independent closed-form oracle for the p = 2 averaging integral of a
    step profile: per piece the running average is v + w/t with antiderivative
    v**2 t + 2 v w ln t - w**2 / t."""
    t = g.breakpoints
    v = g.values
    prefix = g.prefix_integrals()
    total = 0.0
    for i in range(g.piece_count):
        w = prefix[i] - v[i] * t[i]
        lo, hi = t[i], t[i + 1]
        if w == 0.0:
            total += v[i] ** 2 * (hi - lo)
        else:
            total += (
                v[i] ** 2 * (hi - lo)
                + 2.0 * v[i] * w * math.log(hi / lo)
                - w**2 * (1.0 / hi - 1.0 / lo)
            )
    return total


def step_hardy_moment_p2_q1(g: LineStepFunction) -> float:
    """Oracle for p = 2, q = 1: integrand v*(v + w/t) has antiderivative
    v**2 t + v w ln t."""
    t = g.breakpoints
    v = g.values
    prefix = g.prefix_integrals()
    total = 0.0
    for i in range(g.piece_count):
        w = prefix[i] - v[i] * t[i]
        lo, hi = t[i], t[i + 1]
        total += v[i] ** 2 * (hi - lo)
        if w != 0.0:
            total += v[i] * w * math.log(hi / lo)
    return total


class TestLineStepFunction:
    def test_validation(self):
        with pytest.raises(ShapeError):
            LineStepFunction([0.0, 0.5], [1.0, 2.0])
        with pytest.raises(ShapeError):
            LineStepFunction([0.1, 0.5, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            LineStepFunction([0.0, 0.5, 1.0], [1.0, -2.0])

    def test_integrals_and_evaluation(self):
        g = LineStepFunction([0.0, 0.25, 1.0], [2.0, 1.0])
        assert g.integral() == 0.5 + 0.75
        assert g.power_integral(2) == 4 * 0.25 + 1 * 0.75
        assert g(0.25) == 2.0  # left-continuous
        assert g(0.26) == 1.0
        assert g.running_average(0.5) == pytest.approx((0.5 + 0.25) / 0.5, rel=1e-15)

    def test_level_measure(self):
        g = LineStepFunction([0.0, 0.25, 1.0], [2.0, 1.0])
        assert g.level_measure(1.5) == 0.25
        assert g.level_measure(0.5) == 1.0
        assert g.level_measure(2.5) == 0.0


class TestPowerLawFunction:
    def test_mean_normalization(self):
        g = PowerLawFunction.from_mean_and_exponent(1.0, 0.25)
        assert g.c == 0.75
        assert g.integral() == pytest.approx(1.0, rel=1e-15)

    def test_self_similar_profile(self):
        # running average equals alpha * g everywhere on a 1000-point grid
        point = bellman_value(2.0, 1.0, 2.0)
        g = PowerLawFunction.self_similar(1.0, point.alpha)
        ts = np.linspace(1e-6, 1.0, 1000)
        np.testing.assert_allclose(
            g.running_average(ts), point.alpha * g(ts), rtol=1e-12
        )
        assert g.integral() == pytest.approx(1.0, rel=1e-14)

    def test_self_similar_power_integral_hits_target_moment(self):
        # with alpha from the inverse curve the p-th power integral equals F
        for p, f, big_f in [(2.0, 1.0, 2.0), (3.0, 1.0, 4.0)]:
            point = bellman_value(p, f, big_f)
            g = PowerLawFunction.self_similar(f, point.alpha)
            assert g.power_integral(p) == pytest.approx(big_f, rel=1e-12)

    def test_divergent_power(self):
        g = PowerLawFunction(c=1.0, a=0.5)
        with pytest.raises(DivergentIntegralError):
            g.power_integral(2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PowerLawFunction(c=-1.0, a=0.2)
        with pytest.raises(DomainError):
            PowerLawFunction(c=1.0, a=1.0)


class TestDecreasingRearrangement:
    def test_descending_sort_with_equal_measures(self):
        phi = StepFunction(Tree(2, 2), [1, 3, 2, 2])
        g = decreasing_rearrangement(phi)
        np.testing.assert_array_equal(g.values, [3, 2, 2, 1])
        np.testing.assert_array_equal(g.breakpoints, [0, 0.25, 0.5, 0.75, 1.0])

    def test_constant(self):
        phi = StepFunction(Tree(2, 1), [0.7, 0.7])
        np.testing.assert_array_equal(decreasing_rearrangement(phi).values, [0.7, 0.7])

    def test_equimeasurable(self, rng):
        for _ in range(20):
            phi = random_step_function(rng, arity=2, depth=5)
            g = decreasing_rearrangement(phi)
            leaf_measure = phi.tree.leaf_measure
            for lam in rng.uniform(0.0, 5.0, 20):
                exact = float((phi.leaf_values > lam).sum()) * leaf_measure
                assert g.level_measure(float(lam)) == exact
            # values themselves as thresholds exercise the tie handling
            for lam in phi.leaf_values[:5]:
                exact = float((phi.leaf_values > lam).sum()) * leaf_measure
                assert g.level_measure(float(lam)) == exact

    def test_moment_identity(self, rng):
        phi = random_step_function(rng, arity=3, depth=3)
        g = decreasing_rearrangement(phi)
        for p in (1.0, 2.0, 3.0):
            assert g.power_integral(p) == pytest.approx(moment(phi, p), rel=1e-13)

    def test_moment_identity_golden(self):
        phi = StepFunction(Tree(2, 2), [4, 2, 1, 1])
        g = decreasing_rearrangement(phi)
        for p in (1.0, 2.0, 3.0):
            assert g.power_integral(p) == moment(phi, p)


class TestDiscretize:
    def test_power_law_cells(self):
        g = PowerLawFunction.from_mean_and_exponent(1.0, 0.25)
        cells = discretize(g, 256)
        assert cells.integral() == pytest.approx(g.integral(), rel=1e-13)
        assert cells.is_non_increasing()
        # averaging shrinks the p-th moment
        assert cells.power_integral(2.0) < g.power_integral(2.0)

    def test_line_step_refinement_consistency(self):
        g = LineStepFunction([0.0, 0.25, 1.0], [2.0, 1.0])
        fine = discretize(g, 64)
        assert fine.integral() == pytest.approx(g.integral(), rel=1e-14)
        # refinement is exact when cell edges align with the original pieces
        np.testing.assert_allclose(
            fine.power_integral(2.0), g.power_integral(2.0), rtol=1e-14
        )

    def test_bad_piece_count(self):
        with pytest.raises(DomainError):
            discretize(PowerLawFunction(c=1.0, a=0.0), 0)


class TestHardyIntegrals:
    def test_power_law_closed_forms(self):
        g = PowerLawFunction(c=0.75, a=0.25)  # mean exactly 1
        assert hardy_power(g, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert hardy_moment(g, 2.0, 2.0) == pytest.approx(9.0 / 8.0, rel=1e-14)
        assert hardy_moment(g, 2.0, 1.0) == pytest.approx(3.0 / 2.0, rel=1e-14)

    def test_constant_profile(self):
        g = PowerLawFunction(c=1.3, a=0.0)
        for q in (1.0, 1.5, 2.0):
            assert hardy_moment(g, 2.0, q) == pytest.approx(1.3**2, rel=1e-14)
        step = LineStepFunction([0.0, 1.0], [1.3])
        assert hardy_power(step, 2.0) == pytest.approx(1.3**2, rel=1e-12)

    def test_self_similar_profile_matches_extremal_value(self):
        # the averaging power of the matched profile equals F*omega**p
        for p, f, big_f in [(2.0, 1.0, 2.0), (3.0, 1.0, 4.0), (1.5, 1.0, 3.0)]:
            point = bellman_value(p, f, big_f)
            g = PowerLawFunction.self_similar(f, point.alpha)
            assert hardy_power(g, p) == pytest.approx(point.value, rel=1e-12)

    def test_quadrature_agrees_with_p2_oracle(self, rng):
        for pieces in (7, 64):
            values = np.sort(rng.exponential(1.0, pieces))[::-1]
            g = LineStepFunction(np.arange(pieces + 1) / pieces, values)
            assert hardy_power(g, 2.0) == pytest.approx(
                step_hardy_power_p2(g), rel=1e-9
            )
            assert hardy_moment(g, 2.0, 1.0) == pytest.approx(
                step_hardy_moment_p2_q1(g), rel=1e-9
            )

    def test_quadrature_on_discretized_power_law(self):
        # closed form for the continuum profile vs quadrature on its cells:
        # the discretized value converges from below at the n**(-(1-a*p))
        # rate dictated by the singular first cell (here 1/sqrt(n))
        g = PowerLawFunction(c=0.75, a=0.25)
        exact = hardy_power(g, 2.0)
        gaps = []
        for pieces in (64, 256, 1024):
            value = hardy_power(discretize(g, pieces), 2.0)
            assert value < exact
            gaps.append(exact - value)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] / gaps[0] == pytest.approx(0.5, abs=0.1)
        assert gaps[2] / gaps[1] == pytest.approx(0.5, abs=0.1)

    def test_interior_q_against_analytic_oracle(self, rng):
        # q strictly inside (1, p) takes the general quadrature branch; for
        # p = 3, q = 2 the integrand v**2 (v + w/t) has the exact
        # antiderivative v**3 t + v**2 w ln t
        pieces = 32
        values = np.sort(rng.exponential(1.0, pieces))[::-1]
        g = LineStepFunction(np.arange(pieces + 1) / pieces, values)
        t, v = g.breakpoints, g.values
        prefix = g.prefix_integrals()
        expected = 0.0
        for i in range(pieces):
            w = prefix[i] - v[i] * t[i]
            expected += v[i] ** 3 * (t[i + 1] - t[i])
            if w != 0.0:
                expected += v[i] ** 2 * w * math.log(t[i + 1] / t[i])
        assert hardy_moment(g, 3.0, 2.0) == pytest.approx(expected, rel=1e-9)

    def test_exponent_domain_errors(self):
        g = PowerLawFunction(c=1.0, a=0.4)
        with pytest.raises(DivergentIntegralError):
            hardy_power(g, 3.0)  # a*p = 1.2
        with pytest.raises(DomainError):
            hardy_moment(g, 2.0, 0.5)
        with pytest.raises(DomainError):
            hardy_moment(g, 2.0, 2.5)
        with pytest.raises(DomainError):
            hardy_power(g, 1.0)


class TestRandomRearrangement:
    def test_identity_when_unseeded(self):
        tree = Tree(2, 3)
        g = discretize(PowerLawFunction(c=0.75, a=0.25), tree.leaf_count)
        phi = random_rearrangement(g, tree, seed=None)
        np.testing.assert_array_equal(phi.leaf_values, g.values)

    def test_moments_preserved_exactly(self):
        # the value multiset is unchanged, so moments agree to the last ulp
        # (the two summation orders may differ by one rounding)
        tree = Tree(2, 5)
        g = discretize(PowerLawFunction(c=0.75, a=0.25), tree.leaf_count)
        phi = random_rearrangement(g, tree, seed=99)
        for p in (1.0, 2.0, 2.7):
            assert moment(phi, p) == pytest.approx(g.power_integral(p), rel=1e-14)
        np.testing.assert_array_equal(
            np.sort(phi.leaf_values), np.sort(g.values)
        )

    def test_rearrangement_round_trip(self):
        tree = Tree(2, 4)
        g = discretize(PowerLawFunction(c=0.5, a=0.3), tree.leaf_count)
        phi = random_rearrangement(g, tree, seed=5)
        back = decreasing_rearrangement(phi)
        np.testing.assert_array_equal(back.values, g.values)

    def test_seeded_runs_reproduce(self):
        tree = Tree(2, 4)
        g = discretize(PowerLawFunction(c=0.5, a=0.3), tree.leaf_count)
        a = random_rearrangement(g, tree, seed=123)
        b = random_rearrangement(g, tree, seed=123)
        np.testing.assert_array_equal(a.leaf_values, b.leaf_values)

    def test_piece_count_mismatch(self):
        tree = Tree(2, 3)
        g = discretize(PowerLawFunction(c=0.75, a=0.25), 7)
        with pytest.raises(ShapeError):
            random_rearrangement(g, tree, seed=1)

    def test_unequal_widths_rejected(self):
        tree = Tree(2, 1)
        g = LineStepFunction([0.0, 0.3, 1.0], [2.0, 1.0])
        with pytest.raises(ShapeError):
            random_rearrangement(g, tree, seed=1)


class TestSymmetrizationDomination:
    def test_maximal_moment_below_rearranged_average_power(self, rng):
        # one direction of the symmetrization principle: the tree maximal
        # moment never exceeds the averaging power of the rearrangement
        for _ in range(5):
            phi = random_step_function(rng, arity=2, depth=6)
            g = decreasing_rearrangement(phi)
            for p in (1.5, 2.0):
                lhs = moment(maximal_function(phi).m_phi, p)
                assert lhs <= hardy_power(g, p) + 1e-9 * max(1.0, lhs)

    @pytest.mark.xfail(
        reason="sampling 200 random rearrangements reaches only ~half of the "
        "averaging target at depth 10, and even the discretized profile's "
        "own closed-form cap sits ~20% below that target",
        strict=True,
    )
    def test_sampled_orbit_max_within_five_percent_of_target(self):
        p, f, big_f = 2.0, 1.0, 2.0
        tree = Tree(2, 10)
        point = bellman_value(p, f, big_f)
        g = PowerLawFunction.self_similar(f, point.alpha)
        cells = discretize(g, tree.leaf_count)
        sampled = orbit_sample_max(cells, tree, p, n_seeds=200, seed=7)
        target = hardy_power(g, p)
        assert sampled <= target
        assert sampled >= 0.95 * target
