"""Command-line interface: dispatch, formats, exit codes, determinism."""

import argparse
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import treemax
from treemax import cli, sweeps
from treemax.cli import build_parser, main, parse_profile, to_json
from treemax.errors import DomainError, InvariantViolation
from treemax.inequalities import beyond_slack
from treemax.rearrange import LineStepFunction, PowerLawFunction, discretize, hardy_power
from treemax.tree import StepFunction, Tree, save_step_function


def run_cli(capsys, *argv) -> tuple[int, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


GOLDEN_PHI = "2,2\n4\n2\n1\n1\n"


def _summary_from_rows(path) -> dict:
    """The summary fields that a verify CSV alone determines. A row's
    deficit is ``float(rhs) - float(lhs)``; a tie goes to the earliest
    cell, then inequality, then trial, as the battery folds them."""
    rows, cells, keys, trials = [], {}, {}, {}
    for line in path.read_text().splitlines()[2:]:
        key, p, q, beta, seed, _, _, lhs, rhs = line.split(",")
        trial = trials[key, seed] = trials.get((key, seed), -1) + 1
        order = (cells.setdefault(seed, len(cells)), keys.setdefault(key, len(keys)), trial)
        argmin = {"ineq": key, "p": float(p), "q": float(q), "beta": float(beta),
                  "seed": int(seed), "trial": trial}
        rows.append((float(rhs) - float(lhs), order, float(rhs), argmin))
    per_inequality = {}
    for deficit, _, _, argmin in rows:
        key = argmin["ineq"]
        per_inequality[key] = min(per_inequality.get(key, math.inf), deficit)
    worst = min(rows, key=lambda row: row[:2])
    return {
        "min_deficit": worst[0],
        "argmin": worst[3],
        "violations": sum(bool(beyond_slack(d, rhs)) for d, _, rhs, _ in rows),
        "per_inequality": per_inequality,
    }


class TestSerialization:
    def test_float_format(self):
        assert to_json(0.1) == "0.10000000000000001"
        assert to_json(2.0) == "2"
        assert to_json(float("nan")) == "NaN"
        assert to_json(float("inf")) == "Infinity"
        assert to_json(float("-inf")) == "-Infinity"
        assert to_json(np.float64(0.1)) == "0.10000000000000001"
        assert to_json(np.float32(0.1)) == "0.10000000149011612"
        assert to_json(np.int64(-7)) == "-7"
        assert to_json(np.bool_(True)) == "true"
        assert to_json(np.bool_(False)) == "false"

    def test_containers(self):
        assert to_json({}) == "{}"
        assert to_json(np.array([])) == "[]"
        nested = {"a": {"b": np.array([1, 2.5]), "c": {}}, "d": np.array([1.0, np.nan])}
        assert to_json(nested) == (
            '{\n  "a": {\n    "b": [1, 2.5],\n    "c": {}\n  },\n  "d": [1, NaN]\n}'
        )

    def test_sequences_format_like_their_values(self, rng):
        """A sequence formatted in one pass reads exactly as its values
        formatted one by one."""
        floats = np.concatenate((
            rng.normal(0.0, 1.0, 50), 10.0 ** rng.uniform(-320, 308, 50),
            [0.0, -0.0, 1.0, 5e-324, -1.7976931348623157e308, 1e16, 123456789.0],
        ))
        sequences = [
            floats, floats[:50].astype(np.float32),
            np.append(floats, np.nan), np.append(floats, -np.inf), np.append(floats, np.inf),
            rng.integers(-10**12, 10**12, 40), rng.integers(0, 200, 40).astype(np.uint8),
            np.array([3, -4, 0]), np.array([1, 2.5]), np.array([True, False]),
        ]
        for values in sequences:
            expected = ", ".join(to_json(x) for x in list(values))
            assert to_json(values) == f"[{expected}]"
        keys = {"12": 1, "-3": 2, "²": 3, 'a"b': 4, 7: 5}
        assert to_json(keys) == (
            '{\n  "12": 1,\n  "-3": 2,\n  "\\u00b2": 3,\n  "a\\"b": 4,\n  "7": 5\n}'
        )

    def test_chunks_format_like_their_values(self, monkeypatch):
        """Chunks of three items cut every sequence, some of them with a
        non-finite value, and read as the values one by one."""
        monkeypatch.setattr(cli, "_CHUNK", 3)
        floats = [0.1, 2.0, 1e300, 5e-324, -0.0, np.nan, 7.25, np.inf]
        for values in (np.array(floats), np.arange(-4, 4), np.array([True, False] * 4)):
            expected = ", ".join(to_json(x) for x in list(values))
            assert to_json(values) == f"[{expected}]"
        assert to_json(cli._IntMap(np.arange(1, 8), np.arange(7) // 2), indent=2) == (
            '{\n    "1": 0,\n    "2": 0,\n    "3": 1,\n    "4": 1,\n    "5": 2,\n'
            '    "6": 2,\n    "7": 3\n  }'
        )
        assert to_json(cli._IntMap(np.arange(0), np.arange(0))) == "{}"

    def test_lists_and_objects_are_not_written(self):
        for value in ([1, 2.5], (1, 2), {"a": [0.5]}, object()):
            with pytest.raises(TypeError):
                to_json(value)

    def test_key_order_preserved(self):
        assert to_json({"b": 1, "a": 2}).index('"b"') < to_json({"b": 1, "a": 2}).index('"a"')

    def test_parse_profile_powerlaw(self):
        g = parse_profile("powerlaw:f=1,alpha=0.25")
        assert isinstance(g, PowerLawFunction)
        assert g.c == 0.75 and g.a == 0.25

    def test_parse_profile_csv(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.5,2.0\n1.0,1.0\n")
        g = parse_profile(str(path))
        assert isinstance(g, LineStepFunction)
        np.testing.assert_array_equal(g.values, [2.0, 1.0])


class TestBellmanCommand:
    def test_golden_output(self, capsys):
        status, out = run_cli(capsys, "bellman", "--p", "2", "--f", "1", "--F", "2")
        assert status == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-9)
        assert payload["alpha"] == pytest.approx(1 + math.sqrt(0.5), abs=1e-12)
        assert payload["beta_opt"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert payload["min_value"] == pytest.approx(payload["value"], rel=1e-9)
        assert payload["config"]["command"] == "bellman"

    def test_infeasible_moments_exit_one(self, capsys):
        status, _ = run_cli(capsys, "bellman", "--p", "2", "--f", "2", "--F", "1")
        assert status == 1


class TestMaximalCommand:
    def test_golden_report(self, capsys, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text(GOLDEN_PHI)
        status, out = run_cli(capsys, "maximal", "--input", str(path))
        assert status == 0
        payload = json.loads(out)
        assert payload["m_phi"] == [4, 3, 2, 2]
        assert payload["linearization"]["a"] == [0.5, 0.25, 0.25]
        assert payload["linearization"]["y"] == [2, 3, 4]
        assert payload["reconstruction_exact"] is True

    def test_missing_file_exit_one(self, capsys, tmp_path):
        status, _ = run_cli(capsys, "maximal", "--input", str(tmp_path / "nope.csv"))
        assert status == 1

    def test_peak_memory_per_leaf(self, capsys, tmp_path):
        """The report is built of arrays and written in bounded pieces, so
        its traced peak stays a small multiple of the 8 bytes of a leaf."""
        leaves = 2**14
        path = tmp_path / "phi.csv"
        values = np.random.default_rng(14).exponential(1.0, leaves)
        save_step_function(StepFunction(Tree(2, 14), values), path)
        argv = ["maximal", "--input", str(path), "--output", str(tmp_path / "out.json")]
        assert main(argv) == 0  # imports and one-time caches are not counted
        tracemalloc.start()
        try:
            status = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak <= 200 * leaves, f"{peak / leaves:.0f} bytes per leaf"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_overflow_after_loading_writes_nothing(self, capsys, tmp_path, to_file):
        path = tmp_path / "phi.csv"
        values = np.ones(2**14)
        values[-1] = 1e10
        save_step_function(StepFunction(Tree(2, 14), values), path)
        argv = ["maximal", "--input", str(path), "--p", "64"]
        status = main(argv + ["--output", str(tmp_path / "out.json")] if to_file else argv)
        assert status == 1
        assert capsys.readouterr() == ("", "error: floating-point overflow: the moment of order 64.0 overflows\n")
        assert list(tmp_path.iterdir()) == [path]

    def test_report_does_not_depend_on_the_chunk_size(self, capsys, tmp_path, monkeypatch):
        """Pieces of 7 items cut every array and the star map many times,
        and give the bytes of the default pieces."""
        path = tmp_path / "phi.csv"
        values = np.round(np.random.default_rng(7).exponential(1.0, 3**5), 1)
        save_step_function(StepFunction(Tree(3, 5), values), path)
        reports = []
        for chunk in (cli._CHUNK, 7):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            status, out = run_cli(capsys, "maximal", "--input", str(path))
            assert status == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert len(json.loads(reports[1])["linearization"]["star"]) > 7

    @pytest.mark.parametrize("chunk", [cli._CHUNK, 7])
    @pytest.mark.parametrize(
        "arity,depth,leaves",
        [
            (2, 4, [-0.0, -0.0, 0.0, -0.0] * 4),  # -0.0 leaves under 0.0 averages
            (2, 3, [1.25] * 8),  # constant: one member, the root
            (3, 5, "rounded"),  # rounded values tie with their ancestors' averages
            (9, 2, "rounded"),
            (2, 13, "exponential"),  # 8192 leaves: longer than one default chunk
        ],
        ids=["signed-zeros", "constant", "arity-3", "arity-9", "two-chunks"],
    )
    def test_table_form_writes_the_plain_arrays(self, capsys, tmp_path, monkeypatch, arity,
                                                 depth, leaves, chunk):
        """Numbers written once and repeated as text give the bytes of every
        array written value by value."""
        values = np.random.default_rng(depth).exponential(1.0, arity**depth)
        if leaves == "rounded":
            values = np.round(values, 1)
        elif leaves != "exponential":
            values = np.array(leaves)
        path = tmp_path / "phi.csv"
        save_step_function(StepFunction(Tree(arity, depth), values), path)
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        status, tabled = run_cli(capsys, "maximal", "--input", str(path))
        assert status == 0

        real = cli._json_pieces

        def plain_pieces(obj, indent=0):
            if isinstance(obj, cli._Table):  # the numbers themselves, not their text
                obj = obj.text[obj.index]
            return real(obj, indent)

        monkeypatch.setattr(cli, "_entries", lambda table: table)
        monkeypatch.setattr(cli, "_gathered", lambda array, *table: array)
        monkeypatch.setattr(cli, "_json_pieces", plain_pieces)
        status, plain = run_cli(capsys, "maximal", "--input", str(path))
        assert status == 0
        assert tabled == plain

    def test_table_form_only_for_the_same_bits(self):
        # np.array_equal calls -0.0 equal to 0.0, but they print apart
        array, index = np.array([-0.0, 1.0, 1.0]), np.array([0, 1, 1])
        assert cli._gathered(array, np.array([0.0, 1.0]), cli._entries(np.array([0.0, 1.0])), index) is array
        table = cli._gathered(array, np.array([-0.0, 1.0]), cli._entries(np.array([-0.0, 1.0])), index)
        assert cli.to_json(table) == cli.to_json(array) == "[-0, 1, 1]"

    @pytest.mark.parametrize(
        "header, message",
        [
            ("2,30", "arity**depth = 2**30 exceeds the node budget 16777216"),
            ("1,3", "arity must be >= 2, got 1"),
            ("2,-1", "depth must be >= 0, got -1"),
            ("2,x", "{path}: bad header line '2,x'"),
            ("2,3,4", "{path}: bad header line '2,3,4'"),
        ],
    )
    def test_header_errors_keep_their_message(self, capsys, tmp_path, header, message):
        """A header that parses but names no valid tree reports the tree's
        own error; only a header that does not parse is a bad header."""
        path = tmp_path / "phi.csv"
        path.write_text(f"{header}\n1\n")
        status = main(["maximal", "--input", str(path)])
        assert status == 1
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "{path}: empty step-function file"),
            ("\n \n", "{path}: empty step-function file"),
            ("arity,depth\n", "{path}: missing arity,depth line"),
            ("2,2\n4\n2\nx\n1\n", "{path}: leaf values must parse as decimals"),
            # a bad value past the leaf count is still a parse error
            ("2,2\n4\n2\n1\n1\n1\nx\n", "{path}: leaf values must parse as decimals"),
            ("2,2\n4\n2\n1\n", "expected 4 leaf values, got shape (3,)"),
            ("2,2\n4\n2\n1\n1\n5\n", "expected 4 leaf values, got shape (5,)"),
            ("2,2\n4\n2\nnan\n1\n", "leaf values must be finite"),
            ("2,2\n4\n2\n-1\n1\n", "leaf values must be nonnegative"),
        ],
        ids=[
            "empty", "blank", "lone-header", "bad-value", "bad-extra-value",
            "too-few", "too-many", "non-finite", "negative",
        ],
    )
    def test_load_errors_write_nothing(self, capsys, tmp_path, text, message):
        path = tmp_path / "phi.csv"
        path.write_text(text)
        out = tmp_path / "out.json"
        status = main(["maximal", "--input", str(path), "--output", str(out)])
        assert status == 1
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("leaves", [3, 2**14], ids=["first-block", "later-block"])
    def test_undecodable_value_keeps_the_codec_message(self, capsys, tmp_path, leaves):
        """A byte that is not UTF-8 is reported as such, whether it is
        decoded with the header or long after it."""
        path = tmp_path / "phi.csv"
        path.write_bytes(f"2,{leaves.bit_length() - 1}\n".encode() + b"1.5\n" * leaves + b"\xff\n")
        status = main(["maximal", "--input", str(path)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert captured.err.count("\n") == 1

    def test_loader_tolerates_blank_lines_spaces_and_a_column_line(self, capsys, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_bytes(b"\r\n arity, depth \r\n\r\n2, 2\r\n 4 \r\n\r\n2\n1e0\n\n1_0\n\n")
        status, out = run_cli(capsys, "maximal", "--input", str(path))
        assert status == 0
        assert json.loads(out)["phi"] == [4, 2, 1, 10]


class TestVerifyCommand:
    def test_single_cell_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "v.csv"
        status, out = run_cli(
            capsys, "verify", "--ineq", "1.7", "--p", "2", "--trials", "3",
            "--depth", "2", "--seed", "7", "--output", str(out_csv),
        )
        assert status == 0
        body = out_csv.read_text().strip().split("\n")
        assert body[0].startswith("# config:")
        assert body[1] == "ineq,p,q,beta,seed,f,F,lhs,rhs"
        rows = [r.split(",") for r in body[2:]]
        assert len(rows) == 3
        assert all(float(rhs) - float(lhs) >= 0.0 for *_, lhs, rhs in rows)
        summary = json.loads(out)
        assert summary["violations"] == 0

    @pytest.mark.parametrize("ineq", ["1.9", "1.10"])
    def test_constant_past_the_range_of_its_power(self, capsys, ineq):
        # (beta + 1)**q overflows, but c2, every row and the deficits are finite
        status, out = run_cli(
            capsys, "verify", "--ineq", ineq, "--p", "2", "--q", "2", "--beta", "1e160",
            "--trials", "3", "--depth", "2",
        )
        assert status == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        assert 1e159 < summary["min_deficit"] < math.inf

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            status, _ = run_cli(
                capsys, "verify", "--ineq", "1.9", "--p", "3", "--q", "2",
                "--beta", "0.5", "--trials", "20", "--depth", "4",
                "--seed", "11", "--output", str(path),
            )
            assert status == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_ignores_thread_environment(self, capsys, tmp_path, monkeypatch):
        outputs = []
        for threads in (None, "1", "3"):
            if threads is None:
                monkeypatch.delenv("MAXTREE_THREADS", raising=False)
            else:
                monkeypatch.setenv("MAXTREE_THREADS", threads)
            rows, summary = tmp_path / f"{threads}.csv", tmp_path / f"{threads}.json"
            status, _ = run_cli(
                capsys, "verify", "--ineq", "1.9", "--p", "3", "--q", "2",
                "--beta", "0.5", "--trials", "20", "--depth", "4", "--seed", "11",
                "--output", str(rows), "--summary", str(summary),
            )
            assert status == 0
            outputs.append((rows.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert "threads" not in json.loads(outputs[0][1])["config"]

    def test_line_inequality_sweep(self, capsys, tmp_path):
        """``--ineq 1.10`` is a one-cell battery: its rows carry the cell's
        sub-seed, and the summary's argmin replays the worst trial."""
        out_csv = tmp_path / "line.csv"
        line = ["verify", "--ineq", "1.10", "--p", "2", "--q", "1.5", "--beta", "0.8",
                "--trials", "6", "--seed", "3"]
        status, out = run_cli(capsys, *line, "--output", str(out_csv))
        assert status == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        rows = out_csv.read_text().strip().split("\n")[2:]
        assert len(rows) == 6
        assert all(r.startswith("1.10,") for r in rows)
        argmin = summary["argmin"]
        assert argmin["seed"] == sweeps.cell_seed(3, 0)
        assert {r.split(",")[4] for r in rows} == {str(argmin["seed"])}
        replay = sweeps._line_cell(argmin["p"], argmin["q"], argmin["beta"], 6, argmin["seed"])
        lhs, rhs = replay.lhs["1.10"][argmin["trial"]], replay.rhs["1.10"][argmin["trial"]]
        assert rhs - lhs == summary["min_deficit"]
        assert summary["per_inequality"] == {"1.10": summary["min_deficit"]}

        # the line inequality builds no tree, but its echoed shape is validated
        for shape in (["--depth", "40"], ["--arity", "1"]):
            assert run_cli(capsys, *line, *shape)[0] == 1

    @pytest.mark.parametrize("ineq", ["1.2", "1.7", "1.8", "1.9", "1.10", "grid"])
    def test_violating_rows_are_written_and_counted(self, capfd, tmp_path, monkeypatch, ineq):
        """A violating row of any inequality is written, counted and named by
        ``argmin`` like every other row, and the run exits 2 with both files
        in place. The first and last rows of the first right-hand-side batch
        get a negative bound."""
        forced = []

        def forcing(real, rhs_of):
            def forced_rhs(*args):
                out = real(*args)
                rhs = rhs_of(out)
                if not forced:
                    for at, bound in zip(sorted({0, rhs.size - 1}), (-1e6, -1e3)):
                        rhs[at] = bound
                        forced.append(bound)
                return out

            return forced_rhs

        if ineq == "1.2":
            patched = forcing(sweeps.weak_type_sides, lambda sides: sides[1])
            monkeypatch.setattr(sweeps, "weak_type_sides", patched)
        else:
            patched = forcing(sweeps.right_hand_side, lambda rhs: rhs)
            monkeypatch.setattr(sweeps, "right_hand_side", patched)
        rows_path, summary_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        status = main([
            "verify", "--ineq", ineq, "--trials", "6", "--depth", "3", "--seed", "5",
            "--output", str(rows_path), "--summary", str(summary_path),
        ])
        assert status == 2
        assert capfd.readouterr() == ("", "")
        summary = json.loads(summary_path.read_text())
        rows = [row.split(",") for row in rows_path.read_text().splitlines()[2:]]
        assert len(rows) == (48 * 6 * 4 if ineq == "grid" else 6)
        assert summary["violations"] == len(forced) >= 1
        assert sum(float(row[8]) in forced for row in rows) == len(forced)
        trials, worst = {}, None
        for key, p, q, beta, seed, *_, lhs, rhs in rows:
            trial = trials[key, seed] = trials.get((key, seed), -1) + 1
            if float(rhs) == -1e6:
                worst = {"ineq": key, "p": float(p), "q": float(q), "beta": float(beta),
                         "seed": int(seed), "trial": trial}
                assert summary["min_deficit"] == float(rhs) - float(lhs)
        assert summary["argmin"] == worst
        assert summary["per_inequality"][worst["ineq"]] == summary["min_deficit"]
        del summary["config"]
        assert _summary_from_rows(rows_path) == summary

    @pytest.mark.parametrize("argv", [
        "verify --ineq grid --trials 3 --seed 303",
        "verify --ineq 1.10 --p 3 --q 2 --beta 0.4 --trials 30 --seed 8",
    ])
    def test_csv_alone_reproduces_the_summary(self, capsys, tmp_path, argv):
        """Every summary number but the config is read back from the rows."""
        rows_path = tmp_path / "rows.csv"
        status, out = run_cli(capsys, *argv.split(), "--output", str(rows_path))
        assert status == 0
        summary = json.loads(out)
        del summary["config"]
        assert _summary_from_rows(rows_path) == summary

    def test_weak_type_cell(self, capsys):
        status, out = run_cli(
            capsys, "verify", "--ineq", "1.2", "--trials", "50",
            "--depth", "5", "--seed", "21",
        )
        assert status == 0
        assert json.loads(out)["violations"] == 0

    def test_full_grid_small(self, capsys, tmp_path):
        out_csv = tmp_path / "grid.csv"
        status, out = run_cli(
            capsys, "verify", "--ineq", "grid", "--trials", "5",
            "--seed", "303", "--output", str(out_csv),
        )
        assert status == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        rows = out_csv.read_text().strip().split("\n")[2:]
        assert len(rows) == 48 * 5 * 4  # cells x trials x inequalities


CONFIG_RUNS = {
    "maximal": ["--input", "phi.csv"],
    "bellman": ["--p", "3", "--f", "1", "--F", "2"],
    "verify": ["--ineq", "1.7", "--trials", "2", "--depth", "2"],
    "sharpness": ["--family", "G", "--p", "2", "--points", "2"],
    "oracle": ["--p", "2", "--f", "1", "--F", "2", "--depth", "3", "--budget", "2"],
    "symmetrize": ["--depth", "3", "--seeds", "2"],
}


@pytest.mark.parametrize("command", list(CONFIG_RUNS))
def test_config_echoes_every_option_in_parser_order(command, capsys, tmp_path, monkeypatch):
    """The echoed ``config`` holds the command and every option of its
    parser but ``--output``/``--summary``, in parser order; ``maximal``
    echoes the arity and depth it read from its file."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(CONFIG_RUNS)
    options = [
        action.dest
        for action in commands.choices[command]._actions
        if action.dest not in ("help", "output", "summary")
    ]
    if command == "maximal":
        assert options == ["input", "p"]
        options = ["input", "arity", "depth", "p"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "phi.csv").write_text(GOLDEN_PHI)
    status, out = run_cli(capsys, command, *CONFIG_RUNS[command])
    assert status == 0
    if out.startswith("# config: "):
        config = json.loads(out.split("\n", 1)[0][len("# config: "):])
    else:
        config = json.loads(out)["config"]
    assert list(config) == ["command", *options]
    assert config["command"] == command


def _exit_in_worker(outcome):
    """Stands in for ``sweeps.format_cell_rows``: the formatting worker dies."""
    assert multiprocessing.parent_process() is not None, "formatted in the parent"
    os._exit(1)


class TestCsvWorker:
    """A battery with CSV output formats its cells in a forked worker; a
    failure on either side leaves no output file and no process behind."""

    @staticmethod
    def _grid(tmp_path, capfd):
        status = main([
            "verify", "--ineq", "grid", "--trials", "2", "--seed", "3",
            "--output", str(tmp_path / "grid.csv"), "--summary", str(tmp_path / "grid.json"),
        ])
        return status, capfd.readouterr()

    def test_dead_worker_exits_one(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr(sweeps, "format_cell_rows", _exit_in_worker)
        status, captured = self._grid(tmp_path, capfd)
        assert status == 1
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "error, expected, prefix",
        [(DomainError, 1, "error: "), (InvariantViolation, 2, "invariant violation: ")],
    )
    def test_failing_cell_joins_the_worker(self, tmp_path, capfd, monkeypatch, error, expected, prefix):
        self._fail_on_third_cell(monkeypatch, error)
        status, captured = self._grid(tmp_path, capfd)
        assert status == expected
        assert captured.err == f"{prefix}third cell\n"
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_interrupt_joins_the_worker(self, tmp_path, capfd, monkeypatch):
        self._fail_on_third_cell(monkeypatch, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            self._grid(tmp_path, capfd)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    @staticmethod
    def _fail_on_third_cell(monkeypatch, error):
        evaluate_cell, calls = sweeps.evaluate_cell, []

        def third_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise error("third cell")
            return evaluate_cell(*args, **kwargs)

        monkeypatch.setattr(sweeps, "evaluate_cell", third_fails)


class TestSharpnessCommand:
    def test_g_table_p2_q1(self, capsys):
        status, out = run_cli(
            capsys, "sharpness", "--family", "G", "--p", "2", "--q", "1",
            "--points", "10",
        )
        assert status == 0
        rows = [r for r in out.strip().split("\n") if not r.startswith("#")][1:]
        assert len(rows) == 10
        for row in rows:
            assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_beta_family_sweep(self, capsys):
        status, out = run_cli(
            capsys, "sharpness", "--family", "g_beta", "--p", "2", "--q", "2",
            "--beta", "0.5", "--grid", "0.2,0.5,1.0",
        )
        assert status == 0
        rows = [r for r in out.strip().split("\n") if not r.startswith("#")][1:]
        assert len(rows) == 3
        for row in rows:
            fields = row.split(",")
            assert float(fields[5]) == pytest.approx(float(fields[6]), rel=1e-10)

    def test_beta_minus_one_records_nan_alpha(self, capsys):
        status, out = run_cli(
            capsys, "sharpness", "--family", "g_beta", "--p", "2", "--grid", "-1",
        )
        assert status == 0
        row = out.strip().split("\n")[-1].split(",")
        assert row[:4] == ["g_beta", "-1", "nan", "0"]

    def test_inadmissible_grid_points_kept(self, capsys):
        status, out = run_cli(
            capsys, "sharpness", "--family", "g_alpha", "--p", "2", "--q", "1",
            "--grid", "0.3,0.7",
        )
        assert status == 0
        rows = [r for r in out.strip().split("\n") if not r.startswith("#")][1:]
        assert rows[0].split(",")[3] == "1"
        assert rows[1].split(",")[3] == "0"


class TestOracleCommand:
    def test_sandwich_fields(self, capsys):
        status, out = run_cli(
            capsys, "oracle", "--p", "2", "--f", "1", "--F", "2",
            "--depth", "8", "--budget", "30", "--seed", "5",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["best_value"] <= payload["bound_achieved"] * (1 + 1e-9)
        assert payload["ratio_achieved"] <= 1 + 1e-9
        assert payload["config"]["seed"] == 5


@pytest.mark.parametrize("command", ["oracle", "symmetrize"])
@pytest.mark.parametrize("f, big_f", [(1.0, 2.0), (0.3, 0.18)])  # bound above 1, below 1
@pytest.mark.parametrize("excess", [0.9e-9, 1.1e-9])  # times max(1, bound)
def test_orbit_verdict_is_beyond_slack(command, f, big_f, excess, capsys, monkeypatch):
    """``oracle`` and ``symmetrize`` exit 2 exactly when ``beyond_slack``
    calls the value's excess over its bound a violation."""

    def above(bound):
        return bound + excess * max(1.0, bound)

    if command == "oracle":
        real = cli.oracle_sup

        def oracle(*args, **kwargs):
            info = real(*args, **kwargs)[1]
            return above(info["bound_achieved"]), info

        monkeypatch.setattr(cli, "oracle_sup", oracle)
        extra, keys = ["--budget", "2"], ("bound_achieved", "best_value")
    else:
        monkeypatch.setattr(cli, "orbit_sample_max", lambda cells, *_: above(hardy_power(cells, 2.0)))
        extra, keys = ["--seeds", "2"], ("hardy_target_discretized", "sampled_max")
    status, out = run_cli(
        capsys, command, "--p", "2", "--f", str(f), "--F", str(big_f), "--depth", "3", *extra
    )
    bound, value = (json.loads(out)[key] for key in keys)
    assert (bound > 1.0) == (f == 1.0)
    assert bool(beyond_slack(bound - value, bound)) == (excess > 1e-9)
    assert status == (2 if excess > 1e-9 else 0)


class TestSymmetrizeCommand:
    def test_default_profile(self, capsys):
        status, out = run_cli(
            capsys, "symmetrize", "--p", "2", "--f", "1", "--F", "2",
            "--depth", "6", "--seeds", "20", "--seed", "9",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["sampled_max"] <= payload["hardy_target_discretized"] * (1 + 1e-9)
        assert payload["rearrangement_roundtrip_exact"] is True

    def test_explicit_powerlaw_profile(self, capsys):
        status, out = run_cli(
            capsys, "symmetrize", "--p", "2", "--depth", "5",
            "--seeds", "10", "--seed", "2", "--g", "powerlaw:f=1,alpha=0.25",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["ratio"] < 1.0

    @pytest.mark.parametrize(
        "rows, as_is",
        [
            # four pieces of unequal width on a four-leaf tree: discretized
            ("t,value\n0.1,5\n0.5,2\n0.7,1\n1.0,0.5\n", False),
            # four pieces on the four leaf cells: used as they are
            ("t,value\n0.25,5\n0.5,2\n0.75,1\n1.0,0.5\n", True),
        ],
    )
    def test_csv_profile_with_leaf_count_pieces(self, capsys, tmp_path, rows, as_is):
        path = tmp_path / "prof.csv"
        path.write_text(rows)
        status, out = run_cli(capsys, "symmetrize", "--depth", "2", "--seeds", "3", "--g", str(path))
        assert status == 0
        g = parse_profile(str(path))
        cells = discretize(g, 4)
        assert (cells is g) == as_is
        expected = np.float64(hardy_power(cells, 2.0))
        got = np.float64(json.loads(out)["hardy_target_discretized"])
        assert got.view(np.int64) == expected.view(np.int64)


class TestErrorPaths:
    def test_unknown_ineq_choice(self, capsys):
        status, _ = run_cli(capsys, "verify", "--ineq", "9.9")
        assert status == 1

    def test_bad_powerlaw_spec(self, capsys):
        status = main(["symmetrize", "--depth", "4", "--g", "powerlaw:oops"])
        assert status == 1
        assert capsys.readouterr().err == (
            "error: bad power-law spec 'powerlaw:oops' (expected powerlaw:f=<v>,alpha=<v>)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --ineq 1.7 --p 1",
            "verify --ineq 1.9 --beta -1",
            "verify --ineq 1.9 --p 0.5",
            "verify --ineq 1.9 --p 2 --q 7",
            "verify --ineq 1.7 --arity 1",
            "verify --ineq 1.7 --depth 25",
            "verify --trials 0",
            "verify --trials -1",
            "verify --ineq 1.10 --trials 0",
            "verify --ineq 1.10 --beta nan",
            "verify --ineq grid --p 0.5 --depth -3 --trials 1",
            "verify --ineq 1.10 --arity 1 --depth -3 --trials 1",
            "sharpness --family G --p 1",
            "sharpness --family G --p 0.5 --points 0",
            "sharpness --family g_beta --p 1",
            "bellman --p 2 --f 1 --F inf",
            "symmetrize --seeds -1",
            "symmetrize --p nan --depth 4 --g powerlaw:f=1,alpha=0.25",
            "bellman --p 3 --f 1e200 --F 1e300",
            "bellman --p 3 --f 65 --F 1e308",
            "oracle --p 2 --f 1e200 --F 1e300 --depth 3 --budget 2",
            "symmetrize --p 64 --depth 4 --g powerlaw:f=1e10,alpha=0.01",
            "symmetrize --depth 4 --g powerlaw:f",
            "symmetrize --depth 4 --g powerlaw:f=1,alpha=0.2,c=3",
            "sharpness --family g_alpha --p 2 --grid 0.1 --f 1e308",
            "sharpness --family G --p 2 --points 0",
            "sharpness --family g_alpha --p 2 --points 0",
        ],
    )
    def test_out_of_domain_verify_exits_one(self, capsys, tmp_path, argv):
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"old\n")
        status = main(argv.split() + ["--output", str(keep)])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        # a rejected run leaves an existing output file as it was
        assert keep.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [keep]

    @pytest.mark.parametrize(
        "profile, message",
        [
            ("0.5,2,3\n1,1\n", "line 1: expected 't,value', got '0.5,2,3'"),
            ("t,value\n0.5,2\n1\n", "line 3: expected 't,value', got '1'"),
            ("0.5,x\n1,1\n", "line 1: expected 't,value', got '0.5,x'"),
            # the line integral overflows: rejected before any quadrature
            ("0.0001,1e8\n1,1\n", "floating-point overflow"),
            # the Hardy target bounds the orbit of a non-increasing profile only
            ("0.5,1\n1,3\n", "prof.csv: profile must be non-increasing with a positive integral"),
            # a zero target: the ratio would divide by zero
            ("0.5,0\n1,0\n", "prof.csv: profile must be non-increasing with a positive integral"),
        ],
    )
    def test_bad_profile_csv_exits_one(self, capsys, tmp_path, profile, message):
        path = tmp_path / "prof.csv"
        path.write_text(profile)
        out = tmp_path / "out.json"
        start = time.perf_counter()
        status = main([
            "symmetrize", "--p", "64", "--depth", "1", "--g", str(path), "--output", str(out),
        ])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert list(tmp_path.iterdir()) == [path]

    def test_overflowing_moment_exits_one(self, capsys, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("2,1\n1e10\n1\n")
        status = main(["maximal", "--p", "64", "--input", str(path)])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # a numpy warning would raise, not print
    @pytest.mark.parametrize("ineq", ["1.9", "1.10"])
    def test_non_finite_battery_row_exits_one(self, capsys, tmp_path, ineq):
        # c2 * Jq - c1 * f**p is inf - inf: the right-hand side of trial 0 is not finite
        status = main([
            "verify", "--ineq", ineq, "--p", "64", "--q", "64", "--beta", "1e-300",
            "--trials", "3", "--depth", "2", "--seed", "0",
            "--output", str(tmp_path / "rows.csv"), "--summary", str(tmp_path / "s.json"),
        ])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err.startswith(f"error: floating-point overflow: inequality ({ineq}) ")
        assert "trial 0:" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_one(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cli, "run_battery", exhausted)
        status = main([
            "verify", "--ineq", "1.7", "--trials", "3", "--depth", "2",
            "--output", str(tmp_path / "rows.csv"), "--summary", str(tmp_path / "s.json"),
        ])
        assert status == 1
        message = "error: out of memory: Unable to allocate 72.8 TiB for an array\n"
        assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["verify", "--ineq", "1.9", "--p", "64", "--q", "64", "--beta", "1e10",
                 "--trials", "3", "--depth", "2"],
                "floating-point overflow: the constant c2 or its denominator overflows"
                " at p=64.0, q=64.0, beta=10000000000.0",
            ),
            (
                # the denominator is inf: c2 would read nan or 0.0, c1 0.0, every deficit -J0
                ["verify", "--ineq", "1.9", "--p", "3", "--q", "1", "--beta", "1e308",
                 "--trials", "3", "--depth", "2"],
                "floating-point overflow: the constant c2 or its denominator overflows"
                " at p=3.0, q=1.0, beta=1e+308",
            ),
            (
                ["bellman", "--p", "64", "--f", "1e10", "--F", "1e300"],
                "f**p = inf exceeds F = 1e+300; no nonnegative function has these moments",
            ),
            (
                ["sharpness", "--family", "g_alpha", "--p", "64", "--q", "64", "--f", "1e10",
                 "--points", "3"],
                "floating-point overflow: the integral of g**0 * (running average)**64 overflows",
            ),
            (
                ["sharpness", "--family", "g_alpha", "--p", "2", "--grid", ","],
                "bad --grid item: could not convert string to float: ''",
            ),
            (
                # f**64 = 1e640 in the residual target of the first grid point
                ["sharpness", "--family", "g_beta", "--p", "64", "--q", "64", "--f", "1e10",
                 "--points", "3"],
                "floating-point overflow: the residual Jq - A*J0 or its target overflows"
                " at p=64.0, q=64.0, beta=0.003968253968253968, f=10000000000.0",
            ),
            (
                ["bellman", "--p", "3", "--f", "65", "--F", "1e308"],
                "floating-point overflow: the bound F*omega**p overflows at p=3.0, f=65.0, F=1e+308",
            ),
            # (p-1) q beta + (p-q) is 0.0: c2 would divide by zero
            *(
                (
                    argv + ["--p", "1.00001", "--q", "1.00001", "--beta", "5e-324"],
                    "floating-point overflow: the constant c2 or its denominator overflows"
                    " at p=1.00001, q=1.00001, beta=5e-324",
                )
                for argv in (
                    ["verify", "--ineq", "1.9", "--trials", "3", "--depth", "2"],
                    ["verify", "--ineq", "1.10", "--trials", "3"],
                    ["sharpness", "--family", "g_beta", "--grid", "5e-324"],
                )
            ),
            # c1 and c2 grow like 1/(p-1): nearer p = 1 rounding alone would read as a counterexample
            *(
                (argv, "p must exceed 1 by at least 1e-05, got p=" + p)
                for argv, p in (
                    (["verify", "--ineq", "1.10", "--p", "1.000000001", "--q", "1", "--beta", "0.5",
                      "--trials", "200", "--seed", "3"], "1.000000001"),
                    (["verify", "--ineq", "1.7", "--p", "1.0000000000000002", "--trials", "200",
                      "--seed", "3"], "1.0000000000000002"),
                    (["sharpness", "--family", "g_alpha", "--p", "1.0000001", "--q", "1",
                      "--points", "20"], "1.0000001"),
                )
            ),
        ],
        ids=[
            "verify-c2", "verify-c2-denominator", "bellman-f-power", "sharpness-closed-form",
            "sharpness-grid-item", "sharpness-beta-residual", "bellman-bound",
            "verify-1.9-zero-denominator", "verify-1.10-zero-denominator",
            "sharpness-zero-denominator", "verify-1.10-p-near-one", "verify-1.7-p-near-one",
            "sharpness-p-near-one",
        ],
    )
    @pytest.mark.filterwarnings("error")  # a numpy warning would raise, not print
    def test_error_line_names_what_failed(self, capsys, tmp_path, argv, message):
        status = main(argv + ["--output", str(tmp_path / "out")])
        assert status == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_empty_grid_is_rejected(self, capsys):
        status = main(["sharpness", "--family", "g_beta", "--p", "2", "--grid", ""])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("ineq", ["1.7", "1.10"])
    def test_failed_summary_write_leaves_no_csv(self, capsys, tmp_path, ineq):
        rows = tmp_path / "rows.csv"
        status = main([
            "verify", "--ineq", ineq, "--trials", "2", "--depth", "2",
            "--output", str(rows), "--summary", str(tmp_path / "nodir" / "s.json"),
        ])
        assert status == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_invariant_violation_maps_to_exit_two(self, capsys, monkeypatch):
        from treemax.errors import InvariantViolation

        def boom(*args, **kwargs):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setattr("treemax.cli.bellman_value", boom)
        status, _ = run_cli(capsys, "bellman", "--p", "2", "--f", "1", "--F", "2")
        assert status == 2


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "treemax.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "maxtree" in result.stdout


def test_pool_modules_load_only_for_a_csv_battery(tmp_path):
    """``import treemax.cli`` and a battery without CSV, or a one-cell one
    with CSV, never load the process-pool modules: they start no process and
    pay no import time. A grid battery with CSV does load them."""
    code = """if True:
        import sys
        import treemax.cli

        def loaded():
            print(sorted({"concurrent.futures.process", "multiprocessing"} & set(sys.modules)))

        summary, rows = sys.argv[1:]
        loaded()
        treemax.cli.main(["verify", "--ineq", "grid", "--trials", "2", "--summary", summary])
        loaded()
        treemax.cli.main(["verify", "--ineq", "1.7", "--trials", "2", "--output", rows, "--summary", summary])
        loaded()
        treemax.cli.main(["verify", "--ineq", "grid", "--trials", "2", "--output", rows, "--summary", summary])
        loaded()
    """
    src = str(Path(treemax.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.json"), str(tmp_path / "v.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]", "[]", "[]", "['concurrent.futures.process', 'multiprocessing']",
    ]
