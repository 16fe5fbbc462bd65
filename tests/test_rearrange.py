"""Rearrangements, power-law profiles, and the averaging integrals."""

import math
import tracemalloc

import mpmath
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
from treemax.rearrange import hardy_moments
from treemax.sweeps import mixture_values, orbit_sample_max

from conftest import random_step_function, steep_profile


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
    return half * float((_GAUSS_W * fn(mid + half * _GAUSS_X)).sum())


def _adaptive_gauss(fn, lo, hi, scale, rel_tol=_REL_TOL, max_splits=24) -> float:
    """32-node Gauss panels, bisected one depth at a time until the refinement
    stops moving the panel value relative to ``scale``. The panels a depth
    accepts are summed left to right from 0.0, and that sum is added to the
    total."""
    panels = [(lo, hi, _gauss_panel(fn, lo, hi))]  # the open panels, left to right
    total = 0.0
    for level in range(max_splits + 1):
        accepted, still_open = 0.0, []
        for a, b, estimate in panels:
            m = 0.5 * (a + b)
            left = _gauss_panel(fn, a, m)
            right = _gauss_panel(fn, m, b)
            if abs(left + right - estimate) <= rel_tol * scale or level == max_splits:
                accepted += left + right
            else:
                still_open += [(a, m, left), (m, b, right)]
        total += accepted
        panels = still_open
        if not panels:
            break
    return total


def per_piece_hardy_moment(
    g: LineStepFunction, p: float, q: float, panels=None, rel_tol=_REL_TOL
) -> float:
    """Reference for ``hardy_moment`` on a step profile: every piece on its
    own in scalar arithmetic, one breadth-first adaptive Gauss integration
    (above) per piece whose running average is not constant, to ``rel_tol``
    times ``max(integral of g**p, 1)``. The number of Gauss panels each such
    piece takes is appended to ``panels``."""
    if q == p:
        return g.power_integral(p)
    t = g.breakpoints
    v = g.values
    prefix = g.prefix_integrals()
    scale = max(g.power_integral(p), 1.0)
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

            total += _adaptive_gauss(fn, t[i], t[i + 1], scale, rel_tol)
            if panels is not None:
                panels.append(calls[0])
    return total


def mixture_profile(seed: int) -> LineStepFunction:
    """A 64-piece decreasing profile as ``verify --ineq 1.10`` draws it."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = np.sort(mixture_values(rng, 1, 64)[0])[::-1]
    return LineStepFunction(np.arange(65) / 64.0, values)


# far below the default: the mixture profile then refines thousands of panels
# deep at p = 15, down to rounding noise
DEEP_REL_TOL = 1e-27


def mp_hardy_moment(g: LineStepFunction, p: float, q: float):
    """40-digit reference for ``hardy_moment`` on a step profile: the running
    average ``v + offset/t`` of each piece from exact prefix sums, and
    mpmath's quadrature of ``v**q * (v + offset/t)**(p-q)`` over the piece."""
    with mpmath.workdps(40):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        total = prefix = mpmath.mpf(0)
        t, v = g.breakpoints.tolist(), g.values.tolist()
        for lo, hi, vi in zip(map(mpmath.mpf, t[:-1]), map(mpmath.mpf, t[1:]), map(mpmath.mpf, v)):
            offset = prefix - vi * lo
            prefix += vi * (hi - lo)
            if offset == 0:
                total += vi**p * (hi - lo)
            elif vi != 0 or q == 0:
                total += mpmath.quad(lambda x: vi**q * (vi + offset / x) ** (p - q), [lo, hi])
        return total


def assert_same_bits(got, expected, context):
    got, expected = np.float64(got), np.float64(expected)
    assert got.view(np.int64) == expected.view(np.int64), (context, got, expected)


class TestLineStepFunction:
    def test_validation(self):
        with pytest.raises(ShapeError):
            LineStepFunction([0.0, 0.5], [1.0, 2.0])
        with pytest.raises(ShapeError):
            LineStepFunction([0.1, 0.5, 1.0], [1.0, 2.0])
        with pytest.raises(ShapeError):
            LineStepFunction([0.0, np.nan, 1.0], [1.0, 2.0])
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

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning would raise
    def test_closed_forms_beyond_the_float_range_raise(self):
        # the plain expressions, bit for bit, wherever they are finite
        g = PowerLawFunction(c=1.5, a=0.3)
        assert g.power_integral(2.0) == 1.5**2.0 / (1.0 - 0.3 * 2.0)
        assert hardy_moment(g, 2.0, 1.5) == 1.5**2.0 * (1.0 - 0.3) ** (1.5 - 2.0) / (1.0 - 0.3 * 2.0)
        line = LineStepFunction([0.0, 0.25, 1.0], [3.0, 1.0])
        assert line.power_integral(5.0) == float((np.array([3.0, 1.0]) ** 5.0 * [0.25, 0.75]).sum())
        assert hardy_moment(line, 5.0, 5.0) == line.power_integral(5.0)
        big = PowerLawFunction(c=1e10, a=0.0)  # c**64 raises
        with pytest.raises(OverflowError, match=r"^the integral of g\*\*64 overflows$"):
            big.power_integral(64.0)
        message = r"^the integral of g\*\*0 \* \(running average\)\*\*64 overflows$"
        with pytest.raises(OverflowError, match=message):
            hardy_power(big, 64.0)
        steep = PowerLawFunction(c=1e150, a=0.5 - 5e-11)  # c**2 / (1 - 2a) is inf
        with pytest.raises(OverflowError, match=r"g\*\*2 overflows"):
            steep.power_integral(2.0)
        with pytest.raises(OverflowError, match=r"\(running average\)\*\*1 overflows"):
            hardy_moment(steep, 2.0, 1.0)
        # (1e150)**5 is inf in numpy: the step integral of g**5 read inf, with a warning
        with pytest.raises(OverflowError, match=r"^the integral of g\*\*5 overflows$"):
            steep_profile().power_integral(5.0)
        with pytest.raises(OverflowError, match=r"^the integral of g\*\*5 overflows$"):
            hardy_moment(steep_profile(), 5.0, 5.0)
        with pytest.raises(OverflowError, match=r"^the integral of g\*\*5 overflows$"):
            hardy_moments([line, steep_profile()], 5.0, 5.0)

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

    @pytest.mark.parametrize("p", [2.0, 12.0, 20.0])
    def test_step_profiles_against_mpmath(self, p):
        # the tolerance is 1e-10 of the integral of g**p per Gauss panel;
        # on these profiles the achieved error is below 1e-15
        profiles = [mixture_profile(0), LineStepFunction([0.0, 0.02, 0.3, 1.0], [6.0, 1.0, 0.5])]
        for k, g in enumerate(profiles):
            for q in (0.0, (1.0 + p) / 2.0):
                expected = mp_hardy_moment(g, p, q)
                assert abs(hardy_moment(g, p, q) - expected) <= 1e-12 * expected, (k, q)

    def test_step_profiles_match_per_piece_reference_bit_for_bit(self, rng):
        """The batched refinement gives exactly the per-piece breadth-first
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

    def test_deep_refinement_matches_reference_bit_for_bit(self, monkeypatch):
        """The steep profile refines up to 30 levels deep at p = 2, and the
        mixture profile thousands of panels deep at p = 15 and a far smaller
        tolerance, over many depths of the batched refinement; the 2**14
        pieces of ``symmetrize --depth 14`` span several batches in one depth."""
        point = bellman_value(2.0, 1.0, 2.0)
        wide = discretize(PowerLawFunction.self_similar(1.0, point.alpha), 1 << 14)
        assert_same_bits(hardy_power(wide, 2.0), per_piece_hardy_moment(wide, 2.0, 0.0), "wide")
        g = steep_profile()
        panels = []
        for q in (0.0, 1.0, 1.5):
            expected = per_piece_hardy_moment(g, 2.0, q, panels)
            assert_same_bits(hardy_moment(g, 2.0, q), expected, q)
        assert sum(panels) > 8000 and max(panels) > 60  # 8850, 63 in one piece
        monkeypatch.setattr(rearrange, "_REL_TOL", DEEP_REL_TOL)
        g = mixture_profile(0)
        for q in (0.0, 4.0, 8.0):
            expected = per_piece_hardy_moment(g, 15.0, q, panels, DEEP_REL_TOL)
            assert_same_bits(hardy_moment(g, 15.0, q), expected, q)
        assert sum(panels) > 8 * rearrange._PANEL_ROWS  # about 36k, 15.2k in one piece
        # short profiles refined to 1e-18 accept many panels of a piece at
        # one depth, whose summation order then shows in the last bit
        monkeypatch.setattr(rearrange, "_REL_TOL", 1e-18)
        rng = np.random.default_rng(5)
        for k in range(60):
            breakpoints = np.concatenate(([0.0], np.sort(rng.random(7)), [1.0]))
            g = LineStepFunction(breakpoints, np.sort(rng.exponential(1.0, 8))[::-1])
            for p in (3.0, 12.0):
                expected = per_piece_hardy_moment(g, p, 0.0, rel_tol=1e-18)
                assert_same_bits(hardy_power(g, p), expected, (k, p))

    @pytest.mark.parametrize("cap", [1, 3, 64])
    def test_panel_batch_size_does_not_change_bits(self, cap, monkeypatch):
        profiles = [mixture_profile(seed) for seed in range(4)]
        profiles.append(LineStepFunction([0.0, 0.02, 0.3, 1.0], [6.0, 1.0, 0.5]))
        cases = [(g, 12.0, q) for g in profiles for q in (0.0, 4.0)]
        cases += [(steep_profile(), 2.0, q) for q in (0.0, 1.5)]
        expected = [hardy_moment(*case) for case in cases]
        monkeypatch.setattr(rearrange, "_PANEL_ROWS", cap)
        got = [hardy_moment(*case) for case in cases]
        for k, (x, y) in enumerate(zip(got, expected)):
            assert_same_bits(x, y, k)

    @pytest.mark.parametrize("p", [2.0, 5.0])
    @pytest.mark.parametrize("q_kind", ["zero", "one", "mid", "p"])
    def test_batched_profiles_match_one_profile_calls_bit_for_bit(self, monkeypatch, p, q_kind):
        """All step profiles of a batch are refined together, each against
        its own scale, and every entry has the bits of its profile alone."""
        q = {"zero": 0.0, "one": 1.0, "mid": (1.0 + p) / 2.0, "p": p}[q_kind]
        mixture = mixture_profile(3)
        profiles = [
            mixture,
            PowerLawFunction.from_mean_and_exponent(1.3, 0.1),
            # flat pieces (running average = value) on the left, zero weights on the right
            LineStepFunction([0.0, 0.2, 0.45, 0.5, 0.8, 1.0], [3.0, 3.0, 1.0, 0.0, 0.0]),
            # pieces refined many levels deep beside pieces accepted at once
            steep_profile() if p == 2.0 else LineStepFunction([0.0, 0.02, 0.3, 1.0], [6.0, 1.0, 0.5]),
            # the same shape at scales far apart: a tolerance per profile, not per batch
            LineStepFunction(mixture.breakpoints, mixture.values * 1e4),
            LineStepFunction(mixture.breakpoints, mixture.values * 1e-4),
            LineStepFunction([0.0, 0.5, 1.0], [-0.0, -0.0]),
            mixture_profile(4),
        ]
        monkeypatch.setattr(rearrange, "_REL_TOL", 1e-16)  # profiles refine to their own depths
        alone = np.array([hardy_moment(g, p, q) for g in profiles])
        refinements, panels = [], []
        refine, gauss = rearrange._adaptive_gauss, rearrange._gauss_panels

        def counting(*args):
            refinements.append(args[0].size)
            return refine(*args)

        def recording(lo, *args):
            panels.append(lo.size)
            return gauss(lo, *args)

        monkeypatch.setattr(rearrange, "_adaptive_gauss", counting)
        monkeypatch.setattr(rearrange, "_gauss_panels", recording)
        batched = hardy_moments(profiles, p, q)
        np.testing.assert_array_equal(batched.view(np.int64), alone.view(np.int64))
        # one refinement of the pieces of every step profile, past its first depth
        # (whole panels, then left and right halves per depth); none at q = p
        assert len(refinements) == (q != p) and (len(panels) > 3) == (q != p)

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
        monkeypatch.setattr(rearrange, "_REL_TOL", DEEP_REL_TOL)
        deep = mixture_profile(0)
        del rows[:]
        hardy_power(deep, 16.0)  # about 250k panels in 61 full batches
        assert sum(rows) > 35 * rearrange._PANEL_ROWS
        assert max(rows) <= rearrange._PANEL_ROWS

        # only the open panels of one depth are held, each accepted one is
        # summed as its depth ends: at 16 panels per batch the peak stays
        # about 11-15 B per Gauss panel evaluated (about 20k panels at p = 15,
        # 250k at 16)
        monkeypatch.setattr(rearrange, "_PANEL_ROWS", 16)
        for p in (15.0, 16.0):
            del rows[:]
            tracemalloc.start()
            try:
                hardy_power(deep, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 20 * sum(rows), (p, peak, sum(rows))

    @pytest.mark.parametrize("values", [(1e8, 1.0), (1.0, 1e5)])
    def test_overflowing_integrand_raises_before_refinement(self, values, monkeypatch):
        # a flat first piece, then a smooth piece whose running average
        # overflows **64 at its left end, or at its right end
        def no_refinement(*args):
            raise AssertionError("refined an overflowing integrand")

        monkeypatch.setattr(rearrange, "_adaptive_gauss", no_refinement)
        g = LineStepFunction([0.0, 1e-4, 1.0], values)
        with pytest.raises(OverflowError):
            hardy_power(g, 64.0)
        with pytest.raises(OverflowError):
            hardy_moment(g, 64.0, 2.0)

    def test_overflowing_tolerance_scale_raises_before_refinement(self, monkeypatch):
        # a narrow last piece: its running average stays near 1, but g**64
        # there, and so the integral of g**64 that scales the tolerance, overflows
        def no_refinement(*args):
            raise AssertionError("refined against an infinite tolerance")

        monkeypatch.setattr(rearrange, "_adaptive_gauss", no_refinement)
        g = LineStepFunction([0.0, 1.0 - 1e-9, 1.0], [1.0, 1e5])
        with pytest.raises(OverflowError):
            hardy_moment(g, 64.0, 2.0)

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
