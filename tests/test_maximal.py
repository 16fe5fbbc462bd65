"""Maximal operator, linearization, weak-type and L^p bounds, level coarsening."""

import numpy as np
import pytest

from treemax import (
    DomainError,
    IneqParams,
    StepFunction,
    Tree,
    averages,
    deficit,
    level_approximation,
    linearize,
    maximal_function,
    moment,
)
from treemax.inequalities import weak_type_sides
from treemax.maximal import _level_averages, reconstruct_maximal

from conftest import random_step_function


def golden_phi():
    return StepFunction(Tree(2, 2), [4, 2, 1, 1])


def weak_type_row(phi, lam):
    """Both sides of the weak-type bound (1.2) at level ``lam``: the
    battery's computation on a one-row batch."""
    v = phi.leaf_values[None, :]
    m = maximal_function(phi).m_phi.leaf_values[None, :]
    lhs, rhs = weak_type_sides(v, m, np.array([lam]))
    return float(lhs[0]), float(rhs[0])


def brute_force_maximal(phi):
    """Independent oracle: per-leaf rescan of every ancestor's average,
    with averages taken as direct block means over the raw leaf slice."""
    tree = phi.tree
    v = phi.leaf_values
    n = tree.leaf_count
    out = np.empty(n)
    attain = np.empty(n, dtype=np.int64)
    for leaf in range(n):
        best, best_id = -np.inf, -1
        index = leaf
        for level in range(tree.depth, -1, -1):  # leaf upward
            block = tree.arity ** (tree.depth - level)
            avg = v[index * block : (index + 1) * block].mean()
            if avg >= best:  # ties move the attaining node closer to the root
                best, best_id = avg, int(tree.offsets[level]) + index
            index //= tree.arity
        out[leaf] = best
        attain[leaf] = best_id
    return out, attain


class TestAverages:
    def test_golden_levels(self):
        avg = averages(golden_phi())
        np.testing.assert_array_equal(avg, [2.0, 3.0, 1.0, 4.0, 2.0, 1.0, 1.0])

    def test_constant(self):
        phi = StepFunction(Tree(3, 2), np.full(9, 0.7))
        np.testing.assert_allclose(averages(phi), 0.7, rtol=1e-15)

    def test_single_spike(self):
        phi = StepFunction(Tree(2, 2), [1, 0, 0, 0])
        np.testing.assert_array_equal(
            averages(phi), [0.25, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0]
        )

    def test_root_average_is_mean(self, rng):
        phi = random_step_function(rng, arity=3, depth=4)
        assert averages(phi)[0] == pytest.approx(moment(phi, 1), rel=1e-13)

    def test_level_averages_are_numpy_means_bit_for_bit(self, rng):
        """Every level equals ``.mean(axis=2)`` of its children to the bit, for
        each arity (explicit child sums below 8, numpy above) and row count,
        at every depth with at most 70 000 leaf values in the batch. A numpy
        that changes its summation order fails here."""
        for arity in range(2, 17):
            for rows in (1, 2, 3, 17, 257):
                depth = 1
                while rows * arity**depth <= 70_000:
                    n = rows * arity**depth
                    values = 10.0 ** rng.uniform(-300, 300, n) * rng.choice([-1.0, 1.0], n)
                    kind = rng.random(n)
                    values[kind < 0.1] = 0.0
                    values[(kind >= 0.1) & (kind < 0.25)] = -0.0
                    values[(kind >= 0.25) & (kind < 0.35)] = 1.5  # ties
                    values = values.reshape(rows, -1)
                    values[:, :arity] = -0.0  # one node of all -0.0 children per row
                    expected = [values]
                    for _ in range(depth):
                        expected.append(expected[-1].reshape(rows, -1, arity).mean(axis=2))
                    levels = _level_averages(values, arity, depth)
                    assert len(levels) == depth + 1
                    for got, want in zip(levels, reversed(expected)):
                        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
                            arity, rows, depth
                        )
                    depth += 1


class TestMaximalFunction:
    def test_golden_case_exact(self):
        result = maximal_function(golden_phi())
        np.testing.assert_array_equal(result.m_phi.leaf_values, [4, 3, 2, 2])
        # leaf 0 attains at itself (id 3), leaf 1 at the level-1 node (id 1),
        # leaves 2 and 3 at the root
        np.testing.assert_array_equal(result.attaining_node, [3, 1, 0, 0])

    def test_constant_attains_at_root(self):
        phi = StepFunction(Tree(2, 3), np.full(8, 1.3))
        result = maximal_function(phi)
        np.testing.assert_allclose(result.m_phi.leaf_values, 1.3, rtol=0)
        assert set(result.attaining_node.tolist()) == {0}

    def test_single_spike(self):
        phi = StepFunction(Tree(2, 2), [1, 0, 0, 0])
        result = maximal_function(phi)
        np.testing.assert_array_equal(
            result.m_phi.leaf_values, [1.0, 0.5, 0.25, 0.25]
        )

    def test_dominates_phi_and_mean(self, rng):
        phi = random_step_function(rng, arity=3, depth=3)
        m = maximal_function(phi).m_phi.leaf_values
        assert np.all(m >= phi.leaf_values)
        assert np.all(m >= moment(phi, 1) * (1 - 1e-13))

    @pytest.mark.parametrize("arity,depth", [(2, 5), (3, 3), (2, 8)])
    def test_against_brute_force(self, rng, arity, depth):
        phi = random_step_function(rng, arity=arity, depth=depth)
        result = maximal_function(phi)
        expected, _ = brute_force_maximal(phi)
        np.testing.assert_allclose(
            result.m_phi.leaf_values, expected, rtol=1e-12, atol=0
        )

    def test_against_brute_force_exact_on_dyadic(self, rng):
        # dyadic-rational values make every average exact, so the sweep and
        # the rescan must agree bit for bit, attaining nodes included
        tree = Tree(2, 6)
        values = rng.integers(0, 64, tree.leaf_count) / 16.0
        phi = StepFunction(tree, values)
        result = maximal_function(phi)
        expected, attain = brute_force_maximal(phi)
        np.testing.assert_array_equal(result.m_phi.leaf_values, expected)
        np.testing.assert_array_equal(result.attaining_node, attain)

    def test_idempotent_on_maximal(self):
        # M(M(phi)) >= M(phi) trivially; equality of first moments fails,
        # but the maximal function of a constant stays put
        phi = StepFunction(Tree(2, 4), np.full(16, 2.0))
        twice = maximal_function(maximal_function(phi).m_phi).m_phi
        np.testing.assert_array_equal(twice.leaf_values, phi.leaf_values)


class TestLinearize:
    def test_golden_structure(self):
        lin = linearize(golden_phi())
        np.testing.assert_array_equal(lin.s_phi, [0, 1, 3])
        assert lin.a_mass == {0: 0.5, 1: 0.25, 3: 0.25}
        assert lin.y_avg == {0: 2.0, 1: 3.0, 3: 4.0}
        assert lin.star == {1: 0, 3: 1}

    def test_golden_dump_format(self):
        dump = linearize(golden_phi()).to_dict()
        assert dump == {
            "s_phi": [0, 1, 3],
            "a": [0.5, 0.25, 0.25],
            "y": [2.0, 3.0, 4.0],
            "star": {"1": 0, "3": 1},
        }

    def test_constant_collapses_to_root(self):
        lin = linearize(StepFunction(Tree(2, 3), np.full(8, 0.8)))
        np.testing.assert_array_equal(lin.s_phi, [0])
        assert lin.a_mass == {0: 1.0}
        assert lin.star == {}
        assert lin.y_avg[0] == 0.8

    def test_masses_partition_space(self, rng):
        for _ in range(20):
            phi = random_step_function(rng, arity=2, depth=5)
            lin = linearize(phi)
            assert sum(lin.a_mass.values()) == pytest.approx(1.0, abs=1e-13)

    def test_mass_identity_lemma(self, rng):
        # a_I = mu(I) - sum of mu(J) over members J with J* = I
        for arity, depth in [(2, 5), (3, 3)]:
            phi = random_step_function(rng, arity=arity, depth=depth)
            tree = phi.tree
            lin = linearize(phi)
            for node_id in lin.s_phi.tolist():
                mu = tree.measure_at_level(tree.level_of(node_id))
                covered = sum(
                    tree.measure_at_level(tree.level_of(j))
                    for j, parent in lin.star.items()
                    if parent == node_id
                )
                assert lin.a_mass[node_id] == pytest.approx(mu - covered, abs=1e-12)

    def test_nesting_dichotomy(self, rng):
        # leaves attaining at J either avoid I entirely or J sits inside I
        phi = random_step_function(rng, arity=2, depth=6)
        tree = phi.tree
        result = maximal_function(phi)
        lin = linearize(phi)

        def leaf_range(node_id):
            level = tree.level_of(node_id)
            index = node_id - int(tree.offsets[level])
            block = tree.arity ** (tree.depth - level)
            return index * block, (index + 1) * block

        members = lin.s_phi.tolist()
        attain = result.attaining_node
        for i in members:
            lo_i, hi_i = leaf_range(i)
            for j in members:
                lo_j, hi_j = leaf_range(j)
                leaves_j = np.nonzero(attain == j)[0]
                inside = (leaves_j >= lo_i) & (leaves_j < hi_i)
                if inside.any():
                    assert lo_i <= lo_j and hi_j <= hi_i, (
                        f"A(phi,{j}) meets {i} but {j} is not nested in {i}"
                    )

    def test_weighted_power_sum_matches_maximal_moment(self, rng):
        for p in (1.5, 2.0, 3.0):
            phi = random_step_function(rng, arity=2, depth=6)
            lin = linearize(phi)
            m_phi = maximal_function(phi).m_phi
            weighted = sum(
                lin.a_mass[i] * lin.y_avg[i] ** p for i in lin.s_phi.tolist()
            )
            assert weighted == pytest.approx(moment(m_phi, p), rel=1e-13)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("arity,depth", [(2, 6), (3, 4), (4, 3)])
    def test_star_points_to_smallest_strict_superset(self, rng, arity, depth, ties):
        phi = random_step_function(rng, arity=arity, depth=depth)
        if ties:
            # rounded values tie children with their ancestors' averages
            phi = StepFunction(phi.tree, np.round(phi.leaf_values))
        tree = phi.tree
        lin = linearize(phi)
        members = set(lin.s_phi.tolist())
        for node_id, parent in lin.star.items():
            # the star target is a strict ancestor and a member...
            assert parent in members
            chain = []
            walk = tree.parent_of(node_id)
            while walk is not None:
                chain.append(walk)
                walk = tree.parent_of(walk)
            assert parent in chain
            # ...and no member lies strictly between
            for mid in chain[: chain.index(parent)]:
                assert mid not in members
        assert set(lin.star) == members - {0}

    def test_reconstruction_matches_maximal_exactly(self, rng):
        phi = random_step_function(rng, arity=3, depth=4)
        lin = linearize(phi)
        m_phi = lin.result.m_phi.leaf_values
        np.testing.assert_array_equal(reconstruct_maximal(lin), m_phi)
        np.testing.assert_array_equal(m_phi, maximal_function(phi).m_phi.leaf_values)


class TestWeakType:
    def test_golden_level(self):
        lhs, rhs = weak_type_row(golden_phi(), 2.5)
        assert lhs == 0.5
        assert rhs - lhs == pytest.approx(0.1, abs=1e-15)

    def test_empty_level_set(self):
        phi = StepFunction(Tree(2, 3), np.full(8, 1.0))
        assert weak_type_row(phi, 2.0) == (0.0, 0.0)

    def test_single_spike(self):
        phi = StepFunction(Tree(2, 2), [1, 0, 0, 0])
        lhs, rhs = weak_type_row(phi, 0.3)
        assert rhs - lhs == pytest.approx(1 / 3, abs=1e-15)

    def test_lambda_must_be_positive(self):
        with pytest.raises(DomainError):
            weak_type_row(golden_phi(), 0.0)

    def test_nonnegative_on_random_inputs(self, rng):
        for _ in range(50):
            phi = random_step_function(rng, arity=2, depth=6)
            lam = float(rng.uniform(0.05, 3.0))
            lhs, rhs = weak_type_row(phi, lam)
            assert rhs - lhs >= -1e-12


class TestLpBound:
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_crude_bound_holds(self, rng, p):
        # Doob: J0 = integral of (M phi)**p <= (p/(p-1))**p F
        for _ in range(20):
            phi = random_step_function(rng, arity=2, depth=6)
            report = deficit("1.7", phi, IneqParams(p=p))
            slack = (p / (p - 1)) ** p * report.F - report.J0
            assert slack >= -1e-9 * max(1.0, report.F)


class TestLevelApproximation:
    def test_extremes(self, rng):
        phi = random_step_function(rng, arity=2, depth=4)
        np.testing.assert_array_equal(
            level_approximation(phi, phi.tree.depth).leaf_values, phi.leaf_values
        )
        coarse = level_approximation(phi, 0)
        np.testing.assert_allclose(
            coarse.leaf_values, moment(phi, 1), rtol=1e-13
        )

    def test_level_out_of_range(self, rng):
        phi = random_step_function(rng, arity=2, depth=3)
        with pytest.raises(DomainError):
            level_approximation(phi, 4)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_monotone_approximation(self, rng, arity):
        # coarsened maximal functions increase pointwise toward the full one,
        # means are preserved, p-th moments only grow with the level
        depth = 6 if arity == 2 else 4
        phi = random_step_function(rng, arity=arity, depth=depth)
        full = maximal_function(phi).m_phi.leaf_values
        tolerance = 1e-12
        previous = None
        previous_moment = 0.0
        for level in range(1, depth + 1):
            phi_m = level_approximation(phi, level)
            assert moment(phi_m, 1) == pytest.approx(moment(phi, 1), rel=1e-13)
            current_moment = moment(phi_m, 2.5)
            assert current_moment <= moment(phi, 2.5) * (1 + 1e-13)
            assert current_moment >= previous_moment * (1 - 1e-13)
            previous_moment = current_moment
            current = maximal_function(phi_m).m_phi.leaf_values
            assert np.all(current <= full + tolerance)
            if previous is not None:
                assert np.all(previous <= current + tolerance)
            previous = current
