"""Constants, deficits, sharpness families, and their closed-form identities."""

import math
import re

import numpy as np
import pytest

from treemax import (
    DomainError,
    IneqParams,
    LineStepFunction,
    PowerLawFunction,
    StepFunction,
    Tree,
    bellman_value,
    beta_family_residual,
    coupling_constant,
    deficit,
    discretize,
    extremizer_sweep,
    first_constant,
    hardy_deficit,
    root_function,
    second_constant,
    sharpness_G,
    t_beta,
)

from treemax import rearrange
from treemax.errors import InvariantViolation, finite
from treemax.inequalities import _report, beyond_slack, line_moments

from conftest import random_step_function, steep_profile


def golden_phi():
    return StepFunction(Tree(2, 2), [4, 2, 1, 1])


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            IneqParams(p=2.0, q=0.5)
        with pytest.raises(DomainError):
            IneqParams(p=2.0, q=2.5)
        with pytest.raises(DomainError):
            IneqParams(p=2.0, beta=0.0)
        with pytest.raises(DomainError):
            IneqParams(p=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                IneqParams(p=2.0, beta=bad)
            with pytest.raises(DomainError):
                IneqParams(p=2.0, f=bad)


class TestConstants:
    def test_quadratic_cell(self):
        # p=q=2, beta=1/2: A = 2/9 and the root of t**2 - t + 2/9 above 1/2
        # is 2/3 = 1/(1+beta)
        a, t = coupling_constant(2.0, 2.0, 0.5), t_beta(2.0, 2.0, 0.5)
        assert a == pytest.approx(2.0 / 9.0, abs=1e-15)
        assert t == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert abs(root_function(t, 2.0, 2.0, a)) < 1e-13

    def test_coupling_maximum_cell(self):
        assert coupling_constant(2.0, 2.0, 1.0) == pytest.approx(0.25, abs=1e-15)  # ((p-1)/p)**q
        assert t_beta(2.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-12)  # boundary double root

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_q_one_degenerates(self, p):
        a = coupling_constant(p, 1.0, 0.7)
        assert a == pytest.approx((p - 1.0) / p, abs=1e-15)
        # the root function vanishes identically; t_beta keeps the limit value
        assert t_beta(p, 1.0, 0.7) == pytest.approx(1.0 / 1.7, abs=1e-15)
        for t in (0.6, 1.0, 2.0):
            assert root_function(t, p, 1.0, a) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 2.0), (5.0, 3.0)])
    def test_t_beta_closed_form_below_threshold(self, p, q):
        beta0 = 1.0 / (p - 1.0)
        for beta in np.linspace(beta0 / 40, beta0 * 0.98, 25):
            t = t_beta(p, q, float(beta))
            assert t == pytest.approx(1.0 / (beta + 1.0), abs=1e-12)
            assert t > (p - 1.0) / p

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 2.0), (5.0, 3.0)])
    def test_t_beta_root_above_threshold(self, p, q):
        beta0 = 1.0 / (p - 1.0)
        for beta in np.linspace(beta0 * 1.05, beta0 * 4.0, 25):
            t = t_beta(p, q, float(beta))
            assert abs(root_function(t, p, q, coupling_constant(p, q, float(beta)))) < 1e-12
            assert t > (p - 1.0) / p
            # above the threshold, 1/(beta+1) drops below t0 and is no longer
            # the relevant root
            assert t > 1.0 / (beta + 1.0)

    @pytest.mark.parametrize(
        "p,q,beta", [(2.0, 2.5, 3.0), (2.0, 0.5, 3.0), (1.0, 1.0, 3.0), (2.0, 2.0, 0.0)]
    )
    def test_t_beta_rejects_out_of_domain(self, p, q, beta):
        with pytest.raises(DomainError):
            t_beta(p, q, beta)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.7), (5.0, 4.0)])
    def test_root_function_strictly_increasing(self, p, q):
        a = coupling_constant(p, q, 0.4)
        t0 = (p - 1.0) / p
        ts = np.linspace(t0 * 1.001, t0 + 3.0, 100)
        step = 1e-7
        for t in ts:
            slope = (
                root_function(t + step, p, q, a)
                - root_function(t - step, p, q, a)
            ) / (2 * step)
            assert slope > 0.0

    @pytest.mark.filterwarnings("error")
    def test_finite_is_the_first_finite_form(self):
        # a power that raises, inf and nan are not finite; a later form is not evaluated
        forms = [lambda: 10.0**400, lambda: math.inf, lambda: math.nan, lambda: 2.5, lambda: 1 / 0]
        assert finite("unused", *forms) == 2.5
        with pytest.raises(OverflowError, match="^the value overflows$"):
            finite("the value overflows", *forms[:3])

    @pytest.mark.filterwarnings("error")
    def test_second_constant_past_the_range_of_its_power(self):
        # the plain quotient, bit for bit, wherever it is finite
        plain = 3.0 * (0.4 + 1.0) ** 1.7 / (2.0 * 1.7 * 0.4 + (3.0 - 1.7))
        assert second_constant(3.0, 1.7, 0.4) == plain
        # (beta + 1)**2 raises, but 2 (beta + 1)**2 / (2 beta) is about beta
        assert second_constant(2.0, 2.0, 1e160) == pytest.approx(1e160, rel=1e-15)
        # (beta + 1)**64 is finite, 64 times it is not, and the quotient is again
        denominator = 63.0 * 64.0 * 63000.0
        expected = math.exp(math.log(64.0) + 64.0 * math.log(63001.0) - math.log(denominator))
        assert second_constant(64.0, 64.0, 63000.0) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(OverflowError, match=r"c2 .* p=64.0, q=64.0, beta=10000000000.0$"):
            second_constant(64.0, 64.0, 1e10)
        # an infinite denominator: the plain quotient is nan or raises, the divided one 0.0,
        # though c2 is about 1.5 and 1.6e154
        for p, q, beta in [(3.0, 1.0, 1e308), (2.0, 1.5, 1.5e308)]:
            message = f"the constant c2 or its denominator overflows at p={p}, q={q}, beta={beta}"
            with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
                second_constant(p, q, beta)
        # a zero denominator: the plain quotient divides by zero
        p = q = 1.0000000000000002
        message = f"the constant c2 or its denominator overflows at p={p}, q={q}, beta=5e-324"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            second_constant(p, q, 5e-324)

    @pytest.mark.filterwarnings("error")
    def test_first_constant_past_the_range_of_its_quotient(self):
        # the plain quotient, bit for bit, wherever it is finite
        assert first_constant(3.0, 1.7, 0.4) == 1.7 * (0.4 + 1.0) / (2.0 * 1.7 * 0.4 + (3.0 - 1.7))
        # q (beta + 1) is inf, the denominator is not: dividing first gives c1, about 1/(p-1)
        assert first_constant(1.5, 1.2, 1.6e308) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "p,q,beta",
        [(3.0, 1.0, 1e308), (2.0, 1.5, 1.5e308), (1.0000000000000002, 1.0000000000000002, 5e-324)],
    )
    def test_first_constant_past_the_range_of_its_denominator(self, p, q, beta):
        # an infinite denominator read c1 as 0.0 or nan, though c1 is about 0.5 and 1;
        # a zero one divided by zero
        message = f"the constant c1 or its denominator overflows at p={p}, q={q}, beta={beta}"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            first_constant(p, q, beta)

    @pytest.mark.filterwarnings("error")
    def test_coupling_constant_past_the_range_of_its_power(self):
        # the plain sum, bit for bit, wherever it is finite
        plain = 0.7 * 0.4 / (0.4 + 1.0) ** 1.7 + (3.0 - 1.7) / 3.0 * (0.4 + 1.0) ** (1.0 - 1.7)
        assert coupling_constant(3.0, 1.7, 0.4) == plain
        # (beta + 1)**2 raises, but A = (beta / (beta + 1) + 0) / (beta + 1) is about 1/beta
        assert coupling_constant(2.0, 2.0, 1e160) == pytest.approx(1e-160, rel=1e-15)
        # the root of A + t (t - 1), 1 - A to within rounding
        assert t_beta(2.0, 2.0, 1e160) == 1.0
        # an infinite beta reads both forms as nan
        with pytest.raises(OverflowError, match=r"^the constant A overflows at p=2.0, q=1.5, beta=inf$"):
            coupling_constant(2.0, 1.5, math.inf)

    @pytest.mark.filterwarnings("error")
    def test_beta_family_residual_past_the_float_range(self):
        # the plain products, bit for bit, wherever they are finite
        residual = (1.7 / 3.0) * (2.0 / 1.25) ** 3.0 * 1.25 ** (3.0 - 1.7 + 1.0)
        target = (1.7 / 3.0) * 1.25 ** (1.0 - 1.7) * 2.0**3.0
        assert beta_family_residual(3.0, 1.7, 0.25, 2.0) == (residual, target)
        message = (
            "the residual Jq - A*J0 or its target overflows at p=64.0, q=64.0, beta=0.01, "
            "f=10000000000.0"
        )
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            beta_family_residual(64.0, 64.0, 0.01, 1e10)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 2.0), (4.0, 3.0)])
    def test_coupling_max_at_threshold(self, p, q):
        beta0 = 1.0 / (p - 1.0)
        peak = coupling_constant(p, q, beta0)
        assert peak == pytest.approx(((p - 1.0) / p) ** q, abs=1e-12)
        for beta in np.geomspace(beta0 / 100, beta0 * 100, 100):
            assert coupling_constant(p, q, float(beta)) <= peak * (1 + 1e-14)


class TestTreeDeficits:
    def test_golden_theorem_a(self):
        report = deficit("1.7", golden_phi(), IneqParams(p=2.0, f=2.0))
        assert report.J0 == 8.25
        assert report.J1 == 6.5
        assert report.rhs == 9.0  # -4 + 2*6.5
        assert report.deficit == 0.75

    def test_golden_two_parameter(self):
        report = deficit(
            "1.9", golden_phi(), IneqParams(p=2.0, q=2.0, beta=1.0, f=2.0)
        )
        assert report.Jq == 5.5
        assert report.rhs == 14.0  # c1=2, c2=4
        assert report.deficit == 5.75

    def test_beta_threshold_matches_q_family(self, rng):
        # at beta = 1/(p-1) both right-hand sides coincide algebraically
        for p, q in [(2.0, 1.5), (3.0, 2.0)]:
            phi = random_step_function(rng, arity=2, depth=5)
            a = deficit("1.8", phi, IneqParams(p=p, q=q))
            b = deficit("1.9", phi, IneqParams(p=p, q=q, beta=1.0 / (p - 1.0)))
            assert a.rhs == pytest.approx(b.rhs, rel=1e-12)
            assert a.deficit == pytest.approx(b.deficit, rel=1e-9, abs=1e-12)

    def test_q_equal_p_reproduces_two_moment_envelope(self, rng):
        # with q = p the mixed moment collapses to F and the rhs equals the
        # closed-form envelope member (beta+1)/beta ((beta+1)**(p-1) F - f**p)/(p-1)
        from treemax import moment

        p, beta = 2.5, 0.4
        phi = random_step_function(rng, arity=2, depth=5)
        report = deficit("1.9", phi, IneqParams(p=p, q=p, beta=beta))
        envelope = (
            (beta + 1.0) / beta
            * ((beta + 1.0) ** (p - 1.0) * report.F - report.f**p)
            / (p - 1.0)
        )
        assert report.Jq == pytest.approx(moment(phi, p), rel=1e-13)
        assert report.rhs == pytest.approx(envelope, rel=1e-12)

    def test_holder_chain(self, rng):
        for _ in range(25):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.0, p))
            phi = random_step_function(rng, arity=2, depth=6)
            report = deficit("1.8", phi, IneqParams(p=p, q=q))
            bound = report.Jq ** (1.0 / q) * report.J0 ** ((q - 1.0) / q)
            assert report.J1 <= bound + 1e-12 * max(1.0, bound)

    def test_measured_mean_recorded(self):
        report = deficit("1.7", golden_phi(), IneqParams(p=2.0, f=1.0))
        assert report.f == 2.0
        assert report.params.f == 2.0

    def test_unknown_inequality(self):
        with pytest.raises(DomainError):
            deficit("2.1", golden_phi(), IneqParams(p=2.0))

    def test_random_battery_small(self, rng):
        for _ in range(40):
            p = float(rng.uniform(1.3, 5.0))
            q = float(rng.uniform(1.0, p))
            beta = float(rng.uniform(0.05, 3.0))
            phi = random_step_function(
                rng, arity=int(rng.choice([2, 3])), depth=int(rng.integers(2, 5))
            )
            for ineq in ("1.7", "1.8", "1.9"):
                report = deficit(ineq, phi, IneqParams(p=p, q=q, beta=beta))
                assert report.deficit >= -1e-9 * max(1.0, abs(report.rhs))

    def test_slack_scales_with_rhs_floored_at_one(self):
        # a violation is a deficit below -1e-9 * max(1, |rhs|), for the battery
        # counts and the single-instance reports alike
        assert beyond_slack(-1.2e-9, 0.5) and not beyond_slack(-0.8e-9, 0.5)
        assert beyond_slack(-4e-9, -3.0) and not beyond_slack(-2e-9, -3.0)
        rows = beyond_slack(np.array([-0.8e-9, -2e-9, np.nan]), np.array([0.5, 3.0, 1.0]))
        assert rows.tolist() == [False, False, False]
        with pytest.raises(InvariantViolation):
            _report("1.7", IneqParams(p=2.0), 0.5, 1.0, 1.0, 0.5 + 1.2e-9, 0.0, 0.0)


class TestHardyDeficits:
    def test_constant_equality_q1(self):
        # q = 1 with beta = 1/(p-1): equality for a constant profile
        for p in (2.0, 3.0):
            g = PowerLawFunction(c=1.4, a=0.0)
            report = hardy_deficit(g, IneqParams(p=p, q=1.0, beta=1.0 / (p - 1.0)))
            assert report.deficit == pytest.approx(0.0, abs=1e-12)

    def test_power_law_equality_q1(self):
        # the classical equality case: any decreasing profile under q = 1,
        # beta = 1/(p-1); closed forms make it exact
        g = PowerLawFunction(c=0.75, a=0.25)
        report = hardy_deficit(g, IneqParams(p=2.0, q=1.0, beta=1.0))
        assert report.lhs == pytest.approx(2.0, rel=1e-14)
        assert report.rhs == pytest.approx(2.0, rel=1e-14)
        assert report.deficit == pytest.approx(0.0, abs=1e-10)

    def test_any_beta_constant_profile_q1(self):
        # for q = 1 the two constants differ by exactly one for every beta
        for beta in (0.2, 1.0, 4.0):
            g = PowerLawFunction(c=0.9, a=0.0)
            report = hardy_deficit(g, IneqParams(p=2.5, q=1.0, beta=beta))
            assert report.deficit == pytest.approx(0.0, abs=1e-12)

    def test_matched_beta_family_is_equality(self):
        # g_beta with the *same* beta in the inequality: deficit is exactly 0
        # and factors through the residual identity
        p, q, beta, f = 2.0, 2.0, 0.5, 1.0
        params = IneqParams(p=p, q=q, beta=beta, f=f)
        g = PowerLawFunction.from_mean_and_exponent(f, beta / (beta + 1.0))
        report = hardy_deficit(g, params)
        residual, target = beta_family_residual(p, q, beta, f)
        c2 = second_constant(p, q, beta)
        assert residual == pytest.approx(2.0 / 3.0, rel=1e-12)  # (q/p)(1.5)**-1
        assert target == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert report.deficit == pytest.approx(c2 * (residual - target), abs=1e-12)
        assert report.deficit == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_q1_line_deficit_is_quadrature_error_alone(self, p):
        # at q = 1 both sides of (1.10) agree by integration by parts, so the
        # deficit of a profile at its own mean is the quadrature error only
        self_similar = PowerLawFunction.self_similar(1.0, bellman_value(p, 1.0, 2.0).alpha)
        profiles = [self_similar, discretize(self_similar, 1024)]
        if p == 2.0:
            profiles.append(steep_profile())
        for g in profiles:
            report = hardy_deficit(g, IneqParams(p, 1.0, 1.0, f=g.integral()))
            assert abs(report.deficit) <= 1e-12 * max(1.0, abs(report.rhs)), g

    def test_non_increasing_required(self):
        g = LineStepFunction([0.0, 0.5, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            hardy_deficit(g, IneqParams(p=2.0))

    def test_random_decreasing_profiles_nonnegative(self, rng):
        for _ in range(15):
            pieces = int(rng.integers(4, 40))
            values = np.sort(rng.exponential(1.0, pieces))[::-1]
            g = LineStepFunction(np.arange(pieces + 1) / pieces, values)
            p = float(rng.uniform(1.5, 4.0))
            q = float(rng.uniform(1.0, p))
            beta = float(rng.uniform(0.1, 2.0))
            report = hardy_deficit(g, IneqParams(p=p, q=q, beta=beta))
            assert report.deficit >= -1e-9 * max(1.0, abs(report.rhs))


    @pytest.mark.parametrize("q, refinements", [(1.0, 2), (1.5, 3), (2.0, 2)])
    def test_line_moments_refine_each_distinct_integral_once(self, monkeypatch, q, refinements):
        # J0 and J1 are refined; Jq is J1 at q = 1, the integral of g**p at
        # q = p, and refined on its own only in between
        calls = []

        def counting(*args):
            calls.append(args)
            return refine(*args)

        refine = rearrange._adaptive_gauss
        monkeypatch.setattr(rearrange, "_adaptive_gauss", counting)
        g = LineStepFunction(np.arange(5) / 4.0, [4.0, 3.0, 2.0, 1.0])
        _, _, _, j1, jq = line_moments([g], 2.0, q)
        assert len(calls) == refinements
        assert (jq[0] == j1[0]) == (q == 1.0)


class TestSharpnessG:
    def test_p2_q1_collapses_to_one(self):
        for alpha in np.linspace(0.01, 0.49, 49):
            assert sharpness_G(float(alpha), 2.0, 1.0) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_p2_q2_linear_form(self):
        for alpha in np.linspace(0.01, 0.49, 49):
            assert sharpness_G(float(alpha), 2.0, 2.0) == pytest.approx(
                3.0 - 2.0 * alpha, abs=1e-12
            )

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("q_kind", ["one", "two", "p"])
    def test_limit_at_upper_endpoint(self, p, q_kind):
        q = {"one": 1.0, "two": 2.0, "p": p}[q_kind]
        limit = q / (p - 1.0)
        value = sharpness_G(1.0 / p - 1e-6, p, q)
        assert abs(value - limit) <= 1e-3 * limit

    def test_near_limit_p3(self):
        assert sharpness_G(1.0 / 3.0 - 1e-6, 3.0, 1.0) == pytest.approx(
            0.5, abs=1e-3
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            sharpness_G(0.5, 2.0, 1.0)
        with pytest.raises(DomainError):
            sharpness_G(0.0, 2.0, 1.0)


class TestResidualIdentity:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_grid_matches_target(self, p):
        for q in (1.0, (1.0 + p) / 2.0, p):
            for beta in (0.2, 0.5, 1.0 / (p - 1.0)):
                residual, target = beta_family_residual(p, q, beta, f=1.0)
                assert residual == pytest.approx(target, rel=1e-10), (
                    f"residual identity failed at p={p}, q={q}, beta={beta}"
                )

    def test_scales_like_f_to_the_p(self):
        r1, t1 = beta_family_residual(2.0, 1.5, 0.3, f=1.0)
        r2, t2 = beta_family_residual(2.0, 1.5, 0.3, f=2.0)
        assert r2 == pytest.approx(r1 * 2.0**2, rel=1e-12)
        assert t2 == pytest.approx(t1 * 2.0**2, rel=1e-12)

    def test_beta_out_of_range(self):
        with pytest.raises(DomainError):
            beta_family_residual(2.0, 1.0, 1.5, f=1.0)


class TestExtremizerSweep:
    def test_alpha_family_q1_exact_equality(self):
        params = IneqParams(p=2.0, q=1.0, beta=1.0, f=1.0)
        points = extremizer_sweep(params, "g_alpha", [0.3, 0.4, 0.49, 0.499])
        assert all(pt.admissible for pt in points)
        for pt in points:
            assert pt.report.deficit == pytest.approx(0.0, abs=1e-9)

    def test_alpha_family_deficit_shrinks_toward_endpoint(self):
        # beta pinned at 1/(p-1): deficits decay to zero as alpha -> 1/p
        params = IneqParams(p=2.0, q=2.0, beta=1.0, f=1.0)
        grid = [0.3, 0.4, 0.45, 0.49, 0.499]
        points = extremizer_sweep(params, "g_alpha", grid)
        deficits = [pt.report.deficit for pt in points]
        assert all(d >= -1e-12 for d in deficits)
        assert deficits == sorted(deficits, reverse=True)
        assert deficits[-1] < 1e-2 * deficits[0]

    def test_beta_family_residuals(self):
        params = IneqParams(p=2.0, q=2.0, beta=0.5, f=1.0)
        points = extremizer_sweep(params, "g_beta", [0.2, 0.5, 1.0])
        for pt in points:
            assert pt.admissible
            assert pt.residual == pytest.approx(pt.residual_target, rel=1e-10)
        # interior points carry the full equality report, the endpoint cannot
        assert points[0].report is not None
        assert points[-1].report is None  # alpha*p = 1 diverges

    def test_inadmissible_points_recorded(self):
        params = IneqParams(p=2.0, q=1.0, beta=1.0, f=1.0)
        points = extremizer_sweep(params, "g_alpha", [0.6])
        assert not points[0].admissible
        assert "alpha" in points[0].reason
        points = extremizer_sweep(params, "g_beta", [2.0])
        assert not points[0].admissible

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            extremizer_sweep(IneqParams(p=2.0), "g_gamma", [0.1])

    def test_first_second_constants_coupling(self):
        # c2 * A = 1 and c1 = c2 * (q/p) (beta+1)**(1-q): the bridge between
        # the inequality form and the residual form
        for p, q, beta in [(2.0, 2.0, 0.5), (3.0, 2.0, 0.3), (2.5, 1.7, 0.8)]:
            c1 = first_constant(p, q, beta)
            c2 = second_constant(p, q, beta)
            assert c2 * coupling_constant(p, q, beta) == pytest.approx(1.0, rel=1e-14)
            assert c1 == pytest.approx(
                c2 * (q / p) * (beta + 1.0) ** (1.0 - q), rel=1e-14
            )
