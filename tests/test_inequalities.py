"""Constants, deficits, sharpness families, and their closed-form identities."""

import numpy as np
import pytest

from treemax import (
    DomainError,
    IneqParams,
    LineStepFunction,
    PowerLawFunction,
    StepFunction,
    Tree,
    beta_family_residual,
    constants,
    deficit,
    extremizer_sweep,
    first_constant,
    hardy_deficit,
    root_function,
    second_constant,
    sharpness_G,
)

from conftest import random_step_function


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
        c = constants(IneqParams(p=2.0, q=2.0, beta=0.5))
        assert c.A == pytest.approx(2.0 / 9.0, abs=1e-15)
        assert c.t_beta == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert abs(root_function(c.t_beta, 2.0, 2.0, c.A)) < 1e-13
        assert c.t0 == 0.5

    def test_coupling_maximum_cell(self):
        c = constants(IneqParams(p=2.0, q=2.0, beta=1.0))
        assert c.A == pytest.approx(0.25, abs=1e-15)  # ((p-1)/p)**q
        assert c.t_beta == pytest.approx(0.5, abs=1e-12)  # boundary double root

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_q_one_degenerates(self, p):
        c = constants(IneqParams(p=p, q=1.0, beta=0.7))
        assert c.A == pytest.approx((p - 1.0) / p, abs=1e-15)
        # the root function vanishes identically; t_beta keeps the limit value
        assert c.t_beta == pytest.approx(1.0 / 1.7, abs=1e-15)
        for t in (0.6, 1.0, 2.0):
            assert root_function(t, p, 1.0, c.A) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 2.0), (5.0, 3.0)])
    def test_t_beta_closed_form_below_threshold(self, p, q):
        beta0 = 1.0 / (p - 1.0)
        for beta in np.linspace(beta0 / 40, beta0 * 0.98, 25):
            c = constants(IneqParams(p=p, q=q, beta=float(beta)))
            assert c.t_beta == pytest.approx(1.0 / (beta + 1.0), abs=1e-12)
            assert c.t_beta > c.t0

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 2.0), (5.0, 3.0)])
    def test_t_beta_root_above_threshold(self, p, q):
        beta0 = 1.0 / (p - 1.0)
        for beta in np.linspace(beta0 * 1.05, beta0 * 4.0, 25):
            c = constants(IneqParams(p=p, q=q, beta=float(beta)))
            assert abs(root_function(c.t_beta, p, q, c.A)) < 1e-12
            assert c.t_beta > c.t0
            # above the threshold, 1/(beta+1) drops below t0 and is no longer
            # the relevant root
            assert c.t_beta > 1.0 / (beta + 1.0)

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 1.7), (5.0, 4.0)])
    def test_root_function_strictly_increasing(self, p, q):
        c = constants(IneqParams(p=p, q=q, beta=0.4))
        t0 = (p - 1.0) / p
        ts = np.linspace(t0 * 1.001, t0 + 3.0, 100)
        step = 1e-7
        for t in ts:
            slope = (
                root_function(t + step, p, q, c.A)
                - root_function(t - step, p, q, c.A)
            ) / (2 * step)
            assert slope > 0.0

    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (3.0, 2.0), (4.0, 3.0)])
    def test_coupling_max_at_threshold(self, p, q):
        beta0 = 1.0 / (p - 1.0)
        peak = constants(IneqParams(p=p, q=q, beta=beta0)).h_val
        assert peak == pytest.approx(((p - 1.0) / p) ** q, abs=1e-12)
        for beta in np.geomspace(beta0 / 100, beta0 * 100, 100):
            h = constants(IneqParams(p=p, q=q, beta=float(beta))).h_val
            assert h <= peak * (1 + 1e-14)


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
                assert report.deficit >= -1e-9 * report.scale()


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
            assert report.deficit >= -1e-9 * report.scale()


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
        from treemax import coupling_constant

        for p, q, beta in [(2.0, 2.0, 0.5), (3.0, 2.0, 0.3), (2.5, 1.7, 0.8)]:
            c1 = first_constant(p, q, beta)
            c2 = second_constant(p, q, beta)
            assert c2 * coupling_constant(p, q, beta) == pytest.approx(1.0, rel=1e-14)
            assert c1 == pytest.approx(
                c2 * (q / p) * (beta + 1.0) ** (1.0 - q), rel=1e-14
            )
