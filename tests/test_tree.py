"""Tree construction, step functions, and exact moments."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemax import (
    DomainError,
    ShapeError,
    SizeError,
    StepFunction,
    Tree,
    load_step_function,
    moment,
    save_step_function,
)

from conftest import random_step_function
from treemax import tree as tree_module


class TestBuildUniformTree:
    def test_binary_depth_two(self):
        tree = Tree(2, 2)
        assert tree.node_count == 7
        assert tree.leaf_count == 4
        assert tree.leaf_measure == 0.25

    def test_degenerate_root_only(self):
        tree = Tree(2, 0)
        assert tree.node_count == 1
        assert tree.leaf_count == 1
        assert tree.leaf_measure == 1.0
        assert tree.parent_of(0) is None

    def test_ternary_depth_two(self):
        tree = Tree(3, 2)
        assert tree.node_count == 13
        assert tree.leaf_count == 9
        assert tree.leaf_measure == pytest.approx(1 / 9, abs=0)

    def test_arity_below_two_rejected(self):
        with pytest.raises(DomainError):
            Tree(1, 3)

    def test_negative_depth_rejected(self):
        with pytest.raises(DomainError):
            Tree(2, -1)

    def test_node_budget_guard(self):
        with pytest.raises(SizeError):
            Tree(2, 25)

    @pytest.mark.parametrize("arity,depth", [(2, 3), (3, 2), (4, 2)])
    def test_structure_invariants(self, arity, depth):
        tree = Tree(arity, depth)
        assert tree.measure_at_level(0) == 1.0
        # children partition each parent: every non-leaf node has exactly
        # `arity` children whose measures sum back exactly for dyadic
        # arities, within 1e-12 otherwise
        tolerance = 0.0 if arity == 2 else 1e-12
        child_count = np.zeros(tree.node_count, dtype=np.int64)
        child_sum = np.zeros(tree.node_count)
        for node_id in range(1, tree.node_count):
            parent = tree.parent_of(node_id)
            assert tree.level_of(parent) == tree.level_of(node_id) - 1
            child_count[parent] += 1
            child_sum[parent] += tree.measure_at_level(tree.level_of(node_id))
        for node_id in range(tree.node_count):
            level = tree.level_of(node_id)
            if level == depth:
                assert child_count[node_id] == 0
            else:
                assert child_count[node_id] == arity
                assert abs(child_sum[node_id] - tree.measure_at_level(level)) <= tolerance

    def test_level_measure_shrinks_with_depth(self):
        tree = Tree(3, 5)
        measures = [tree.measure_at_level(m) for m in range(6)]
        assert measures == sorted(measures, reverse=True)
        assert measures[-1] == 3.0**-5

    def test_frozen(self):
        tree = Tree(2, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.depth = 9
        with pytest.raises(ValueError):
            tree.offsets[1] = 5
        assert (tree.leaf_count, tree.node_count) == (8, 15)
        assert tree == Tree(2, 3) and tree != Tree(2, 9)
        assert hash(tree) == hash((2, 3))
        assert repr(tree) == "Tree(arity=2, depth=3)"

    def test_ancestor_chain(self):
        tree = Tree(2, 3)
        chain = [int(tree.offsets[3]) + 5]
        while chain[-1] != 0:
            chain.append(tree.parent_of(chain[-1]))
        assert chain == [12, 5, 2, 0]
        assert [tree.level_of(i) for i in chain] == [3, 2, 1, 0]


class TestStepFunction:
    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            StepFunction(Tree(2, 1), [1.0, -0.5])

    def test_rejects_wrong_count(self):
        with pytest.raises(ShapeError):
            StepFunction(Tree(2, 2), [1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            StepFunction(Tree(2, 1), [1.0, float("nan")])

    def test_values_frozen(self):
        phi = StepFunction(Tree(2, 1), [1.0, 2.0])
        with pytest.raises(ValueError):
            phi.leaf_values[0] = 3.0

    def test_writable_array_is_copied(self):
        values = np.array([1.0, 2.0])
        phi = StepFunction(Tree(2, 1), values)
        values[0] = 7.0
        np.testing.assert_array_equal(phi.leaf_values, [1.0, 2.0])

    def test_read_only_view_is_copied(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        view = base[:2]
        view.setflags(write=False)
        phi = StepFunction(Tree(2, 1), view)
        base[0] = 7.0
        np.testing.assert_array_equal(phi.leaf_values, [1.0, 2.0])

    def test_frozen_owned_array_is_kept(self):
        values = np.array([1.0, 2.0])
        values.setflags(write=False)
        assert StepFunction(Tree(2, 1), values).leaf_values is values

    def test_integral_is_weighted_sum(self):
        phi = StepFunction(Tree(2, 2), [4, 2, 1, 1])
        assert moment(phi, 1.0) == 2.0


class TestMoment:
    def test_hand_sum_first_moment(self):
        phi = StepFunction(Tree(2, 2), [4, 2, 1, 1])
        assert moment(phi, 1) == 2.0  # (4+2+1+1)/4

    def test_hand_sum_second_moment(self):
        phi = StepFunction(Tree(2, 2), [4, 2, 1, 1])
        assert moment(phi, 2) == 5.5  # (16+4+1+1)/4

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_constant_function(self, p):
        phi = StepFunction(Tree(3, 3), np.full(27, 1.7))
        assert moment(phi, p) == pytest.approx(1.7**p, rel=1e-14)

    def test_order_must_be_positive(self):
        phi = StepFunction(Tree(2, 1), np.full(2, 1.0))
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                moment(phi, bad)

    def test_overflow_rejected(self):
        phi = StepFunction(Tree(2, 1), [1e10, 1.0])
        assert moment(phi, 1) == (1e10 + 1.0) / 2
        with pytest.raises(OverflowError):
            moment(phi, 64)

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning would raise
    def test_moment_is_the_plain_sum_or_raises(self):
        values = np.array([1e10, 1.0, 3.5, 0.25])
        phi = StepFunction(Tree(2, 2), values)
        assert moment(phi, 2.5) == float((values**2.5).sum()) * 0.25
        with pytest.raises(OverflowError, match=r"^the moment of order 64 overflows$"):
            moment(phi, 64)

    @settings(deadline=None, max_examples=50)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        r=st.floats(min_value=0.5, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_homogeneity(self, scale, r, seed):
        rng = np.random.default_rng(seed)
        phi = random_step_function(rng, arity=2, depth=3)
        scaled = StepFunction(phi.tree, scale * phi.leaf_values)
        assert moment(scaled, r) == pytest.approx(
            scale**r * moment(phi, r), rel=1e-12
        )

    @settings(deadline=None, max_examples=50)
    @given(
        p=st.floats(min_value=1.1, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_power_mean_inequality(self, p, seed):
        rng = np.random.default_rng(seed)
        phi = random_step_function(rng, arity=2, depth=4)
        assert moment(phi, 1) ** p <= moment(phi, p) * (1 + 1e-12)

    def test_power_mean_strict_unless_constant(self, rng):
        phi = random_step_function(rng, depth=5)
        assert moment(phi, 1) ** 2 < moment(phi, 2)
        const = StepFunction(phi.tree, np.full(phi.tree.leaf_count, 0.9))
        assert moment(const, 1) ** 2 == pytest.approx(moment(const, 2), rel=1e-14)


class TestStepFunctionFile:
    def test_round_trip(self, tmp_path, rng):
        phi = random_step_function(rng, arity=3, depth=2)
        path = tmp_path / "phi.csv"
        save_step_function(phi, path)
        back = load_step_function(path)
        assert back.tree == phi.tree
        np.testing.assert_array_equal(back.leaf_values, phi.leaf_values)

    @pytest.mark.parametrize("chunk", [1, 4, 4096])
    def test_saved_lines_do_not_depend_on_the_chunk(self, tmp_path, rng, monkeypatch, chunk):
        monkeypatch.setattr(tree_module, "_WRITE_CHUNK", chunk)
        phi = random_step_function(rng, arity=3, depth=2)
        path = tmp_path / "phi.csv"
        save_step_function(phi, path)
        lines = "".join(f"{v:.17g}\n" for v in phi.leaf_values)
        assert path.read_text() == f"3,2\n{lines}"

    def test_accepts_column_name_line(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("arity,depth\n2,1\n1.5\n0.5\n")
        phi = load_step_function(path)
        assert phi.tree == Tree(2, 1)
        np.testing.assert_array_equal(phi.leaf_values, [1.5, 0.5])

    def test_rejects_bad_values(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("2,1\n1.0\noops\n")
        with pytest.raises(ShapeError):
            load_step_function(path)

    def test_rejects_negative_values(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("2,1\n1.0\n-2.0\n")
        with pytest.raises(DomainError):
            load_step_function(path)

    def test_load_peak_memory_per_leaf(self, tmp_path):
        """The parsed array is the function's own, so loading holds about
        one leaf array of 8 bytes a leaf, not a second copy."""
        leaves = 2**16
        path = tmp_path / "phi.csv"
        values = np.random.default_rng(16).exponential(1.0, leaves)
        save_step_function(StepFunction(Tree(2, 16), values), path)
        load_step_function(path)  # one-time caches are not counted
        tracemalloc.start()
        try:
            load_step_function(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * leaves, f"{peak / leaves:.1f} bytes per leaf"
