"""Batch verification engine and the rearrangement-orbit search."""

import copy
import io
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from treemax import (
    DomainError,
    IneqParams,
    InfeasibleMomentsError,
    LineStepFunction,
    PowerLawFunction,
    StepFunction,
    Tree,
    bellman_value,
    deficit,
    discretize,
    hardy_deficit,
    hardy_power,
    linearize,
    maximal_function,
    oracle_sup,
    orbit_sample_max,
    run_battery,
)
from treemax import sweeps
from treemax.cli import main
from treemax.inequalities import line_moments
from treemax.sweeps import (
    CellOutcome,
    _orbit_values,
    batch_maximal_leaves,
    cell_seed,
    evaluate_cell,
    format_cell_rows,
    mixture_values,
)


def _mixture_values_by_mask(rng, rows, cols):
    """Reference draw: one uniform per value, scattered by boolean masks."""
    u = 3.0 * rng.random((rows, cols))
    component = np.floor(u)
    w = u - component
    values = w.copy()
    mask = component == 1
    values[mask] = -np.log1p(-w[mask])
    mask = component == 2
    values[mask] = np.where(w[mask] < 0.1, 12.0, 0.05)
    return values


def _format_rows_per_row(outcome, inequalities):
    """Reference CSV rows: one f-string per row, every float formatted there."""
    prefix = {
        k: f"{k},{outcome.p:.17g},{outcome.q:.17g},{outcome.beta:.17g},{outcome.seed}"
        for k in inequalities
    }
    rows = []
    f, big_f = outcome.f, outcome.F
    for i in range(f.size):
        moments = f",{f[i]:.17g},{big_f[i]:.17g},"
        for k in inequalities:
            rows.append(f"{prefix[k]}{moments}{outcome.lhs[k][i]:.17g},{outcome.rhs[k][i]:.17g}\n")
    return rows


# one row per block, three rows per block, and every row of a shape at once
BLOCK_SIZES = {"one-row": lambda leaves: 1, "three-rows": lambda leaves: 3 * leaves,
               "all-rows": lambda leaves: 1 << 20}


def _assert_same_bits(out, reference):
    """Every number of two cell outcomes agrees bit for bit."""
    for name in ("f", "F"):
        np.testing.assert_array_equal(
            getattr(out, name).view(np.int64), getattr(reference, name).view(np.int64)
        )
    for key in reference.rhs:
        for part in ("lhs", "rhs"):
            np.testing.assert_array_equal(
                getattr(out, part)[key].view(np.int64),
                getattr(reference, part)[key].view(np.int64),
                err_msg=f"{part} {key}",
            )


class TestBatchEvaluation:
    def test_matches_single_function_path(self, rng):
        for arity, depth in [(2, 5), (3, 3)]:
            tree = Tree(arity, depth)
            values = rng.exponential(1.0, (8, tree.leaf_count))
            batch = batch_maximal_leaves(values, arity, depth)
            for row in range(8):
                phi = StepFunction(tree, values[row])
                expected = maximal_function(phi).m_phi.leaf_values
                np.testing.assert_array_equal(batch[row], expected)

    def test_mixture_values_are_valid(self):
        rng = np.random.default_rng(3)
        v = mixture_values(rng, 50, 64)
        assert v.shape == (50, 64)
        assert np.all(v >= 0) and np.all(np.isfinite(v))
        # all three components appear
        assert (v > 5.0).any() and (v == 0.05).any()

    @pytest.mark.parametrize("rows,cols", [(1, 1), (7, 64), (64, 1 << 14)])
    def test_mixture_values_match_mask_reference(self, rows, cols):
        got = mixture_values(np.random.default_rng(rows), rows, cols)
        expected = _mixture_values_by_mask(np.random.default_rng(rows), rows, cols)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_mixture_deterministic(self):
        a = mixture_values(np.random.default_rng(11), 10, 32)
        b = mixture_values(np.random.default_rng(11), 10, 32)
        np.testing.assert_array_equal(a, b)


class TestEvaluateCell:
    def test_deterministic(self):
        a = evaluate_cell(2.0, 1.5, 0.5, trials=200, seed=42)
        b = evaluate_cell(2.0, 1.5, 0.5, trials=200, seed=42)
        for key in a.rhs:
            np.testing.assert_array_equal(a.rhs[key] - a.lhs[key], b.rhs[key] - b.lhs[key])
        np.testing.assert_array_equal(a.f, b.f)

    def test_all_deficits_nonnegative(self):
        out = evaluate_cell(2.5, 2.0, 0.8, trials=500, seed=7)
        for key, rhs in out.rhs.items():
            deficits = rhs - out.lhs[key]
            scale = np.maximum(1.0, np.abs(rhs))
            assert (deficits >= -1e-9 * scale).all(), f"violation in {key}"

    def test_requested_inequalities_only(self):
        out = evaluate_cell(
            2.0, 1.0, 1.0, trials=50, seed=1, inequalities=("1.7",)
        )
        assert set(out.lhs) == set(out.rhs) == {"1.7"}

    @pytest.mark.parametrize("keys", [("1.10",), ("1.7", "9.9")])
    def test_unknown_inequality_rejected(self, keys):
        with pytest.raises(DomainError):
            evaluate_cell(2.0, 1.0, 1.0, 4, 0, shapes=[(2, 3)], inequalities=keys)

    def test_single_shape(self):
        out = evaluate_cell(
            2.0, 1.0, 1.0, trials=50, seed=1, shapes=[(2, 3)]
        )
        assert out.f.shape == (50,)

    @pytest.mark.parametrize("arity,depth", [(2, 5), (3, 3)])
    @pytest.mark.parametrize("q_kind", ["one", "mid", "p"])
    def test_rows_match_single_function_deficit(self, monkeypatch, arity, depth, q_kind):
        # deficit() is the one-row case of the battery: it reproduces every
        # (1.7)/(1.8)/(1.9) row bit for bit from the leaf values the cell drew
        p, beta = 2.5, 0.4
        q = {"one": 1.0, "mid": (1.0 + p) / 2.0, "p": p}[q_kind]
        draws = []

        def recording(rng, rows, cols, out=None):
            values = mixture_values(rng, rows, cols, out=out)
            draws.append(values.copy())
            return values

        monkeypatch.setattr(sweeps, "mixture_values", recording)
        keys = ("1.7", "1.8", "1.9")
        out = evaluate_cell(p, q, beta, 40, 5, shapes=[(arity, depth)], inequalities=keys)
        (values,) = draws  # one shape, one row block: row i is trial i
        tree = Tree(arity, depth)
        for trial, row in enumerate(values):
            phi = StepFunction(tree, row)
            for key in keys:
                report = deficit(key, phi, IneqParams(p, q, beta))
                assert report.lhs == out.lhs[key][trial], (key, trial)
                assert report.rhs == out.rhs[key][trial], (key, trial)

    @pytest.mark.parametrize("p", [2.5, 12.0])
    @pytest.mark.parametrize("q_kind", ["one", "mid", "p"])
    def test_line_rows_match_hardy_deficit(self, monkeypatch, p, q_kind):
        # hardy_deficit at a profile's own mean is the one-row case of a
        # (1.10) cell: it reproduces every column of every row bit for bit
        beta = 0.4
        q = {"one": 1.0, "mid": (1.0 + p) / 2.0, "p": p}[q_kind]
        profiles = []

        def recording(gs, *args):
            profiles.extend(gs)
            return line_moments(gs, *args)

        monkeypatch.setattr(sweeps, "line_moments", recording)
        out = sweeps._line_cell(p, q, beta, 12, 5)
        assert [type(g) for g in profiles] == [LineStepFunction, PowerLawFunction] * 6
        assert {g.piece_count for g in profiles[::2]} == {64}
        for trial, g in enumerate(profiles):
            report = hardy_deficit(g, IneqParams(p, q, beta, f=g.integral()))
            lhs, rhs = out.lhs["1.10"], out.rhs["1.10"]
            columns = [out.f, out.F, lhs, rhs, rhs - lhs]
            got = np.array([column[trial] for column in columns])
            want = np.array([report.f, report.F, report.lhs, report.rhs, report.deficit])
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestRowBlocks:
    """Evaluating a drawn batch in row blocks moves no bit of any result."""

    @pytest.mark.parametrize("arity,depth", [(2, 5), (3, 3)])
    @pytest.mark.parametrize("q_kind", ["one", "mid", "p"])
    def test_evaluate_cell_independent_of_block_size(self, monkeypatch, arity, depth, q_kind):
        p, beta = 3.0, 0.3
        q = {"one": 1.0, "mid": (1.0 + p) / 2.0, "p": p}[q_kind]
        outcomes = []
        for size in BLOCK_SIZES.values():
            monkeypatch.setattr(sweeps, "BLOCK_ELEMENTS", size(arity**depth))
            outcomes.append(evaluate_cell(p, q, beta, 40, 8, shapes=[(arity, depth)]))
        for out in outcomes[:-1]:
            _assert_same_bits(out, outcomes[-1])

    def test_evaluate_cell_several_shapes(self, monkeypatch):
        # 1 element is one row of every shape; 3 * 27 elements are 3 rows of
        # (3, 3), 20 of (2, 2) and 1 of (2, 6)
        shapes = [(2, 2), (3, 3), (2, 6)]
        outcomes = []
        for blocks in (1, 3 * 27, 1 << 20):
            monkeypatch.setattr(sweeps, "BLOCK_ELEMENTS", blocks)
            outcomes.append(evaluate_cell(2.0, 1.5, 1.0, 300, 3, shapes=shapes))
        for out in outcomes[:-1]:
            _assert_same_bits(out, outcomes[-1])

    def test_trial_rebuilt_from_its_stream_position(self):
        # after one shape draw and one level fraction per trial, the stream
        # holds the leaf values shape by shape, trial by trial, one double each
        p, q, beta, trials, seed, trial = 2.5, 1.75, 0.4, 300, 3, 123
        shapes = [(2, 2), (3, 3), (2, 6)]
        keys = ("1.7", "1.8", "1.9")
        out = evaluate_cell(p, q, beta, trials, seed, shapes=shapes, inequalities=keys)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        shape_idx = rng.choice(len(shapes), size=trials, p=sweeps._shape_probabilities(shapes))
        s = shape_idx[trial]
        leaves = [arity**depth for arity, depth in shapes]
        position = 2 * trials
        position += sum(int((shape_idx == t).sum()) * leaves[t] for t in range(s))
        position += int((shape_idx[:trial] == s).sum()) * leaves[s]
        bit_generator = np.random.PCG64(np.random.SeedSequence(seed)).advance(position)
        values = mixture_values(np.random.Generator(bit_generator), 1, leaves[s])[0]
        phi = StepFunction(Tree(*shapes[s]), values)
        assert s == 1  # a trial after the first shape's rows
        for key in keys:
            report = deficit(key, phi, IneqParams(p, q, beta))
            assert (report.f, report.F) == (out.f[trial], out.F[trial]), key
            assert report.lhs == out.lhs[key][trial], key
            assert report.rhs == out.rhs[key][trial], key

    def test_moment_lhs_is_one_shared_array(self):
        out = evaluate_cell(2.0, 1.5, 1.0, 20, 3, shapes=[(2, 3)])
        assert out.lhs["1.7"] is out.lhs["1.8"] is out.lhs["1.9"]
        assert out.lhs["1.2"] is not out.lhs["1.7"]

    @pytest.mark.parametrize("arity,depth", [(2, 6), (3, 4)])
    def test_orbit_values_independent_of_block_size(self, monkeypatch, arity, depth):
        x = mixture_values(np.random.default_rng(arity), 10, arity**depth)
        found = []
        for size in BLOCK_SIZES.values():
            monkeypatch.setattr(sweeps, "BLOCK_ELEMENTS", size(arity**depth))
            found.append(_orbit_values(x, arity, depth, 1.5))
        for values in found[:-1]:
            np.testing.assert_array_equal(values.view(np.int64), found[-1].view(np.int64))

    def test_orbit_search_independent_of_block_size(self, monkeypatch):
        tree = Tree(2, 6)
        g = PowerLawFunction.self_similar(1.0, bellman_value(2.0, 1.0, 2.0).alpha)
        cells = discretize(g, tree.leaf_count)
        results = []
        for size in BLOCK_SIZES.values():
            monkeypatch.setattr(sweeps, "BLOCK_ELEMENTS", size(tree.leaf_count))
            results.append((
                oracle_sup(2.0, 1.0, 2.0, depth=6, budget=50, seed=4),
                orbit_sample_max(cells, tree, 2.0, n_seeds=40, seed=4),
            ))
        assert results[0] == results[1] == results[2]


class TestCsvRows:
    @staticmethod
    def _outcome(inequalities, trials=6, seed=0):
        rng = np.random.default_rng(seed)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])

        def column():
            values = rng.standard_normal(trials) * 10.0 ** rng.integers(-300, 300, trials)
            values[: special.size] = rng.permutation(special)[:trials]
            return values

        return CellOutcome(
            p=1.5, q=1.25, beta=1 / 3, seed=2**64 - 1, f=column(), F=column(),
            lhs={k: column() for k in inequalities},
            rhs={k: column() for k in inequalities},
        )

    @pytest.mark.parametrize(
        "keys", [("1.2",), ("1.8",), ("1.10",), ("1.2", "1.7", "1.8", "1.9"), ("1.9", "1.2")]
    )
    def test_matches_per_row_reference(self, keys):
        out = self._outcome(keys, trials=8)
        assert format_cell_rows(out) == "".join(_format_rows_per_row(out, keys))

    def test_shared_lhs_matches_per_row_reference(self):
        keys = ("1.2", "1.7", "1.8", "1.9")
        out = evaluate_cell(3.0, 2.0, 0.25, 30, 9, shapes=[(2, 4), (3, 2)])
        assert format_cell_rows(out) == "".join(_format_rows_per_row(out, keys))


@pytest.mark.parametrize(
    "make",
    [
        lambda: linearize(StepFunction(Tree(2, 2), [4.0, 2.0, 1.0, 1.0])),
        lambda: LineStepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0])),
        lambda: evaluate_cell(2.0, 1.0, 1.0, 3, 0, shapes=[(2, 2)]),
    ],
    ids=["Linearization", "LineStepFunction", "CellOutcome"],
)
def test_array_records_compare_by_identity(make):
    """``==`` on a record of arrays is a bool, never an ambiguous array."""
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False


class TestRunBattery:
    def test_summary_and_determinism(self):
        cells = [(2.0, 1.0, 1.0), (3.0, 2.0, 0.5)]
        sink_a, sink_b = io.StringIO(), io.StringIO()
        sum_a, sum_b = (
            run_battery(
                base_seed=5, trials_per_cell=100, cells=cells, csv_sink=sink,
                header_lines=("config: test",),
            )
            for sink in (sink_a, sink_b)
        )
        assert sink_a.getvalue() == sink_b.getvalue()
        assert sum_a == sum_b
        assert sum_a["violations"] == 0
        assert sum_a["min_deficit"] >= -1e-9
        assert sum_a["argmin"]["ineq"] in ("1.2", "1.7", "1.8", "1.9")

    def test_csv_layout(self):
        sink = io.StringIO()
        run_battery(
            base_seed=5,
            trials_per_cell=3,
            cells=[(2.0, 1.0, 1.0)],
            csv_sink=sink,
            header_lines=("config: {}",),
        )
        lines = sink.getvalue().strip().split("\n")
        assert lines[0] == "# config: {}"
        assert lines[1] == "ineq,p,q,beta,seed,f,F,lhs,rhs"
        assert len(lines) == 2 + 3 * 4  # 3 trials x 4 inequalities
        first = lines[2].split(",")
        assert first[0] == "1.2"
        assert first[4] == str(cell_seed(5, 0))

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_csv_is_every_cell_in_order(self, count, monkeypatch):
        """The rows of each cell in turn, whether the worker or the parent
        formatted them; only a battery of more than one cell opens the one
        worker, and none is left running."""
        opened, format_pool = [], sweeps._format_pool
        monkeypatch.setattr(sweeps, "_format_pool", lambda: opened.append(1) or format_pool())
        cells = sweeps.battery_cells()[5 : 5 + count]
        shapes, keys = [(2, 3), (3, 2)], sweeps.BATTERY_INEQUALITIES
        sink = io.StringIO()
        run_battery(
            base_seed=8, trials_per_cell=9, cells=cells, shapes=shapes, csv_sink=sink,
            header_lines=("config: test",),
        )
        assert multiprocessing.active_children() == []
        assert len(opened) == (count > 1)
        expected = "# config: test\nineq,p,q,beta,seed,f,F,lhs,rhs\n"
        for index, (p, q, beta) in enumerate(cells):
            outcome = evaluate_cell(p, q, beta, 9, cell_seed(8, index), shapes, keys)
            expected += format_cell_rows(outcome)
        assert sink.getvalue() == expected

    def test_different_seeds_differ(self):
        a, b = io.StringIO(), io.StringIO()
        run_battery(base_seed=1, trials_per_cell=20, cells=[(2.0, 1.0, 1.0)], csv_sink=a)
        run_battery(base_seed=2, trials_per_cell=20, cells=[(2.0, 1.0, 1.0)], csv_sink=b)
        assert a.getvalue() != b.getvalue()


# 2 rows of (2, 14) and 38 of (2, 3): one large block of 2 * 2**14 leaf
# values (two at BLOCK_ELEMENTS = 2**14) and one small block
LARGE_CELL = (2.5, 1.75, 0.4, 40, 5)
LARGE_SHAPES = [(2, 14), (2, 3)]


def _on_helper() -> bool:
    return threading.current_thread() is not threading.main_thread()


class TestLargeBlockWorkers:
    """Large row blocks run on helper threads next to the calling thread."""

    def test_worker_count_changes_no_bit(self, monkeypatch):
        ran_on, barrier = set(), threading.Barrier(2, timeout=10)
        real = sweeps.batch_maximal_leaves

        def recording(*args, **kwargs):
            if args[2] == 14 and sweeps.BLOCK_ELEMENTS == 1 << 14 and sweeps._worker_count() == 2:
                ran_on.add(threading.get_ident())
                barrier.wait()  # each of the two workers takes one of the two blocks
            return real(*args, **kwargs)

        monkeypatch.setattr(sweeps, "batch_maximal_leaves", recording)
        outcomes = []
        for blocks in (sweeps.BLOCK_ELEMENTS, 1 << 14):
            monkeypatch.setattr(sweeps, "BLOCK_ELEMENTS", blocks)
            for workers in (1, 2):
                monkeypatch.setattr(sweeps, "_worker_count", lambda w=workers: w)
                outcomes.append(evaluate_cell(*LARGE_CELL, shapes=LARGE_SHAPES))
        assert len(ran_on) == 2
        for out in outcomes[1:]:
            _assert_same_bits(out, outcomes[0])

    def test_more_workers_than_cores_take_every_block_once(self, monkeypatch):
        # 200 large blocks of two rows each, four workers, frequent switches
        monkeypatch.setattr(sweeps, "BLOCK_ELEMENTS", 1 << 9)
        taken, real = [], sweeps.tree_moments

        def moments(v, *args, **kwargs):
            taken.append(v.shape[0])
            return real(v, *args, **kwargs)

        monkeypatch.setattr(sweeps, "tree_moments", moments)
        cell = (3.0, 2.0, 0.25, 400, 11)
        monkeypatch.setattr(sweeps, "_worker_count", lambda: 1)
        serial = evaluate_cell(*cell, shapes=[(2, 8)])
        monkeypatch.setattr(sweeps, "_worker_count", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            del taken[:]
            shared = evaluate_cell(*cell, shapes=[(2, 8)])
        finally:
            sys.setswitchinterval(interval)
        assert taken == [2] * 200
        _assert_same_bits(shared, serial)

    def test_large_block_from_an_advanced_copy_is_part_of_one_draw(self):
        rng = np.random.default_rng(np.random.SeedSequence(5))
        ahead = copy.copy(rng.bit_generator)
        whole = mixture_values(rng, 6, 1 << 14)
        ahead.advance(2 << 14)
        block = mixture_values(np.random.Generator(ahead), 3, 1 << 14, out=np.empty((3, 1 << 14)))
        np.testing.assert_array_equal(block.view(np.int64), whole[2:5].view(np.int64))

    def test_format_worker_forks_before_any_helper_and_none_is_left(self, monkeypatch):
        monkeypatch.setattr(sweeps, "_worker_count", lambda: 2)
        at_fork, format_pool = [], sweeps._format_pool
        monkeypatch.setattr(
            sweeps, "_format_pool", lambda: at_fork.append(threading.active_count()) or format_pool()
        )
        calls, real = [], sweeps.tree_moments

        def moments(*args, **kwargs):
            calls.append(_on_helper())
            if len(calls) > 8 and fail:  # in the third cell
                raise DomainError("third cell")
            return real(*args, **kwargs)

        monkeypatch.setattr(sweeps, "tree_moments", moments)
        cells = sweeps.battery_cells()[:3]
        before = threading.active_count()
        for fail in (False, True):
            del at_fork[:], calls[:]
            # 16 trials of (2, 14): four large blocks per cell
            run = lambda: run_battery(  # noqa: E731
                base_seed=2, trials_per_cell=16, cells=cells, shapes=[(2, 14)],
                csv_sink=io.StringIO(),
            )
            if fail:
                with pytest.raises(DomainError, match="third cell"):
                    run()
            else:
                run()
                assert len(calls) == 12
            assert at_fork == [before]
            assert threading.active_count() == before
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [DomainError, KeyboardInterrupt])
    def test_error_in_a_helper_block_is_raised_after_the_workers(self, error, monkeypatch):
        monkeypatch.setattr(sweeps, "_worker_count", lambda: 2)
        helper_in, calls, real = threading.Event(), [], sweeps.tree_moments

        def moments(*args, **kwargs):
            calls.append(_on_helper())
            if _on_helper():
                helper_in.set()
                raise error("helper block")
            assert helper_in.wait(10)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweeps, "tree_moments", moments)
        before = threading.active_count()
        with pytest.raises(error, match="helper block"):
            evaluate_cell(2.5, 1.75, 0.4, 40, 5, shapes=[(2, 14)])  # ten large blocks
        assert threading.active_count() == before
        # the calling thread finished the block it held; no other block started
        assert calls.count(True) == 1 and len(calls) <= 2

    def test_interrupt_on_the_calling_thread_cancels_the_other_blocks(self, monkeypatch):
        monkeypatch.setattr(sweeps, "_worker_count", lambda: 2)
        helper_in, calls, real = threading.Event(), [], sweeps.tree_moments

        def moments(*args, **kwargs):
            calls.append(_on_helper())
            if not _on_helper():
                assert helper_in.wait(10)
                raise KeyboardInterrupt
            helper_in.set()
            time.sleep(0.05)  # still running when the interrupt comes
            return real(*args, **kwargs)

        monkeypatch.setattr(sweeps, "tree_moments", moments)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            evaluate_cell(2.5, 1.75, 0.4, 40, 5, shapes=[(2, 14)])
        assert threading.active_count() == before
        assert sorted(calls) == [False, True]

    def test_cli_reports_a_helper_error_in_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sweeps, "_worker_count", lambda: 2)

        def moments(*args, **kwargs):
            raise DomainError("no moments here")

        monkeypatch.setattr(sweeps, "tree_moments", moments)
        summary = tmp_path / "large.json"
        status = main([
            "verify", "--ineq", "1.8", "--p", "2.5", "--q", "1.75", "--beta", "0.4",
            "--arity", "2", "--depth", "14", "--trials", "40", "--seed", "5",
            "--summary", str(summary),
        ])
        err = capsys.readouterr().err
        assert status == 1
        assert err.splitlines() == ["error: no moments here"]
        assert not summary.exists()


class TestOracle:
    def test_constant_case(self):
        best, info = oracle_sup(2.0, 1.5, 1.5**2, depth=6, budget=10, seed=0)
        assert best == 1.5**2
        assert info["best_from"] == "constant"

    def test_infeasible(self):
        with pytest.raises(InfeasibleMomentsError):
            oracle_sup(2.0, 2.0, 1.0, depth=6, budget=10, seed=0)

    def test_never_exceeds_achieved_bound(self):
        for p, f, big_f in [(2.0, 1.0, 2.0), (3.0, 1.0, 4.0)]:
            best, info = oracle_sup(p, f, big_f, depth=8, budget=60, seed=3)
            assert best <= info["bound_achieved"] * (1 + 1e-9)
            assert best <= info["bound_requested"] * (1 + 1e-9)

    def test_sorted_arrangement_included(self, monkeypatch):
        # the search can never fall below the sorted arrangement it starts at
        p, f, big_f, depth = 2.0, 1.0, 2.0, 8
        monkeypatch.setattr(sweeps, "SWAP_ROUNDS", 0)
        best, _ = oracle_sup(p, f, big_f, depth=depth, budget=0, seed=0)
        tree = Tree(2, depth)
        g = PowerLawFunction.self_similar(f, bellman_value(p, f, big_f).alpha)
        sorted_value = (
            batch_maximal_leaves(
                discretize(g, tree.leaf_count).values[None, :], 2, depth
            )
            ** p
        ).mean()
        assert best >= sorted_value * (1 - 1e-12)

    def test_swap_ascent_beats_the_sorted_arrangement(self):
        # a ternary tree, where the ascent can win; no recorded binary run has
        p, f, big_f, depth = 2.0, 1.0, 4.0, 2
        best, info = oracle_sup(p, f, big_f, depth=depth, budget=0, seed=0, arity=3)
        assert info["best_from"] == "swaps"
        assert info["improving_swaps"] == 1
        g = PowerLawFunction.self_similar(f, bellman_value(p, f, big_f).alpha)
        values = discretize(g, 3**depth).values[None, :]
        sorted_value = (batch_maximal_leaves(values, 3, depth) ** p).mean()
        assert sorted_value < best <= info["bound_achieved"] * (1 + 1e-9)

    def test_achieved_moments_recorded(self):
        _, info = oracle_sup(2.0, 1.0, 2.0, depth=8, budget=20, seed=1)
        assert info["f_achieved"] == pytest.approx(1.0, rel=1e-12)
        assert info["F_achieved"] < 2.0
        assert info["bound_achieved"] <= info["bound_requested"]

    def test_deterministic(self):
        a = oracle_sup(2.0, 1.0, 2.0, depth=7, budget=40, seed=9)
        b = oracle_sup(2.0, 1.0, 2.0, depth=7, budget=40, seed=9)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_realistic_orbit_coverage_depth_12(self):
        # measured reality of the sharpness substitute: at depth 12 the
        # search recovers at least 70% of the bound at the *achieved*
        # moments (the discretized profile cannot reach the bound at the
        # requested moments; see the decisions ledger)
        best, info = oracle_sup(2.0, 1.0, 2.0, depth=12, budget=100, seed=2024)
        assert best >= 0.70 * info["bound_achieved"]
        assert best <= info["bound_achieved"] * (1 + 1e-9)


class TestOrbitSampling:
    def test_bounded_by_discretized_target(self):
        tree = Tree(2, 8)
        g = PowerLawFunction.self_similar(1.0, bellman_value(2.0, 1.0, 2.0).alpha)
        cells = discretize(g, tree.leaf_count)
        sampled = orbit_sample_max(cells, tree, 2.0, n_seeds=50, seed=4)
        assert sampled <= hardy_power(cells, 2.0) * (1 + 1e-9)

    def test_includes_identity(self):
        tree = Tree(2, 6)
        g = PowerLawFunction.self_similar(1.0, bellman_value(2.0, 1.0, 2.0).alpha)
        cells = discretize(g, tree.leaf_count)
        identity_only = orbit_sample_max(cells, tree, 2.0, n_seeds=0, seed=0)
        sampled = orbit_sample_max(cells, tree, 2.0, n_seeds=30, seed=0)
        assert sampled >= identity_only
