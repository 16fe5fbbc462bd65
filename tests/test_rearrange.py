"""Rearrangements, power-law profiles, and the averaging integrals."""

import math
import tracemalloc

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
from treemax import rearrange
from treemax.sweeps import mixture_values, orbit_sample_max

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


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_REL_TOL = 1e-10


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


def per_piece_hardy_moment(g: LineStepFunction, p: float, q: float, panels=None) -> float:
    """Reference for ``hardy_moment`` on a step profile: every piece on its
    own in scalar arithmetic, one depth-first adaptive Gauss integration
    (above) per piece whose running average is not constant. The number of
    Gauss panels each such piece takes is appended to ``panels``."""
    if q == p:
        return g.power_integral(p)
    t = g.breakpoints
    v = g.values
    prefix = g.prefix_integrals()
    scale = max(abs(g.integral()) ** p, 1.0)
    total = 0.0
    for i in range(g.piece_count):
        vi = v[i]
        offset = prefix[i] - vi * t[i]  # running avg = vi + offset/t on the piece
        weight = vi**q  # 1.0 for the pure power q = 0
        if weight == 0.0:
            continue  # g**q kills the piece
        if offset == 0.0:
            # running average equals vi on the whole piece: closed form
            total += weight * vi ** (p - q) * (t[i + 1] - t[i])
        else:
            calls = [0]

            def fn(x):
                calls[0] += 1
                return weight * (vi + offset / x) ** (p - q)

            total += _adaptive_gauss(fn, t[i], t[i + 1], scale)
            if panels is not None:
                panels.append(calls[0])
    return total


def mixture_profile(seed: int) -> LineStepFunction:
    """A 64-piece decreasing profile as ``verify --ineq 1.10`` draws it."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = np.sort(mixture_values(rng, 1, 64)[0])[::-1]
    return LineStepFunction(np.arange(65) / 64.0, values)


def assert_same_bits(got, expected, context):
    got, expected = np.float64(got), np.float64(expected)
    assert got.view(np.int64) == expected.view(np.int64), (context, got, expected)


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


class TestPowerLawFunction:
    def test_mean_normalization(self):
        g = PowerLawFunction.from_mean_and_exponent(1.0, 0.25)
        assert g.c == 0.75
        assert g.integral() == pytest.approx(1.0, rel=1e-15)

    def test_self_similar_profile(self):
        # the running average of c t**(-a) is c t**(-a) / (1-a), which is
        # alpha times the profile when 1/(1-a) = alpha
        point = bellman_value(2.0, 1.0, 2.0)
        g = PowerLawFunction.self_similar(1.0, point.alpha)
        assert 1.0 / (1.0 - g.a) == pytest.approx(point.alpha, rel=1e-12)
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
                assert float(g.widths()[g.values > lam].sum()) == exact
            # values themselves as thresholds exercise the tie handling
            for lam in phi.leaf_values[:5]:
                exact = float((phi.leaf_values > lam).sum()) * leaf_measure
                assert float(g.widths()[g.values > lam].sum()) == exact

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

    def test_step_profiles_match_per_piece_reference_bit_for_bit(self, rng):
        """The batched refinement gives exactly the per-piece depth-first
        values, and the profiles exercise it: some pieces, but few, need
        panels below their first bisection."""
        profiles = [
            # zero pieces, and a second piece whose running average is its value
            LineStepFunction([0.0, 0.25, 0.5, 0.55, 0.7, 0.9, 1.0], [2.0, 2.0, 0.0, 1.5, 0.0, 0.75]),
            # a tall narrow first piece: the next one's running average is steep
            LineStepFunction([0.0, 0.02, 0.3, 1.0], [6.0, 1.0, 0.5]),
            LineStepFunction(
                np.arange(65) / 64, np.round(np.sort(rng.exponential(1.0, 64))[::-1], 1)
            ),
            # -0.0 pieces: at odd p every closed-form piece is -0.0, the sum 0.0
            LineStepFunction([0.0, 0.5, 1.0], [-0.0, -0.0]),
        ]
        # short random profiles: a one-ulp error in a piece's weight seldom
        # survives in a long sum, so many short sums are needed to see it
        for pieces in [8] * 30 + [40]:
            breakpoints = np.concatenate(([0.0], np.sort(rng.random(pieces - 1)), [1.0]))
            profiles.append(
                LineStepFunction(breakpoints, np.sort(rng.exponential(1.0, pieces))[::-1])
            )
        panels = []  # Gauss panels of every smooth piece in the reference
        for k, g in enumerate(profiles):
            for p in (1.5, 2.0, 3.0, 5.0, 12.0):
                for q in {0.0, 1.0, (1.0 + p) / 2.0} | ({3.0} if 3.0 <= p else set()):
                    expected = per_piece_hardy_moment(g, p, q, panels)
                    assert_same_bits(hardy_moment(g, p, q), expected, (k, p, q))
        refined = sum(count > 3 for count in panels)  # first split rejected
        assert 0 < refined < len(panels) / 10

    def test_deep_refinement_matches_reference_bit_for_bit(self):
        """At p = 15 the mixture profile's pieces refine thousands of panels
        deep, over many rounds of the batched refinement."""
        g = mixture_profile(0)
        panels = []
        for q in (0.0, 1.0, 8.0):
            expected = per_piece_hardy_moment(g, 15.0, q, panels)
            assert_same_bits(hardy_moment(g, 15.0, q), expected, q)
        assert sum(panels) > 7 * rearrange._PANEL_ROWS  # about 30k, 15.6k in one piece

    @pytest.mark.parametrize("cap", [1, 3, 64])
    def test_panel_batch_size_does_not_change_bits(self, cap, monkeypatch):
        profiles = [mixture_profile(seed) for seed in range(4)]
        profiles.append(LineStepFunction([0.0, 0.02, 0.3, 1.0], [6.0, 1.0, 0.5]))
        expected = [hardy_moment(g, 12.0, q) for g in profiles for q in (0.0, 4.0)]
        monkeypatch.setattr(rearrange, "_PANEL_ROWS", cap)
        got = [hardy_moment(g, 12.0, q) for g in profiles for q in (0.0, 4.0)]
        for k, (x, y) in enumerate(zip(got, expected)):
            assert_same_bits(x, y, k)

    def test_gauss_batches_and_panels_in_hand_stay_bounded(self, monkeypatch):
        rows = []  # rows of every _gauss_panels call
        real = rearrange._gauss_panels

        def recording(lo, *args):
            rows.append(lo.size)
            return real(lo, *args)

        monkeypatch.setattr(rearrange, "_gauss_panels", recording)
        point = bellman_value(2.0, 1.0, 2.0)
        wide = discretize(PowerLawFunction.self_similar(1.0, point.alpha), 1 << 14)
        hardy_power(wide, 2.0)
        # every piece but the first (its running average is constant) takes
        # three panels: whole, left and right
        assert sum(rows) == 3 * ((1 << 14) - 1)
        assert max(rows) <= rearrange._PANEL_ROWS
        deep = mixture_profile(0)
        del rows[:]
        hardy_power(deep, 16.0)  # about 160k panels in 40 full batches
        assert sum(rows) > 35 * rearrange._PANEL_ROWS
        assert max(rows) <= rearrange._PANEL_ROWS

        # a p = 15 moment takes about 19k panels; 16 at a time, rightmost
        # first, the open and the accepted-but-unadded panels stay few: the
        # peak is about 50 kB, and taking the oldest first passes 200 kB
        monkeypatch.setattr(rearrange, "_PANEL_ROWS", 16)
        tracemalloc.start()
        try:
            hardy_power(deep, 15.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

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
