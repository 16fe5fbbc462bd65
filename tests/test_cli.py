"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from treemax.cli import main, parse_profile, to_json
from treemax.rearrange import LineStepFunction, PowerLawFunction


def run_cli(capsys, *argv) -> tuple[int, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


GOLDEN_PHI = "2,2\n4\n2\n1\n1\n"


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
        assert to_json([]) == "[]"
        nested = {"a": {"b": [1, 2.5], "c": {}}, "d": np.array([1.0, np.nan])}
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
            floats, floats.tolist(), tuple(floats.tolist()), floats[:50].astype(np.float32),
            np.append(floats, np.nan), np.append(floats, -np.inf), floats.tolist() + [np.inf],
            rng.integers(-10**12, 10**12, 40), rng.integers(0, 200, 40).astype(np.uint8),
            [3, -4, 0], [1, 2.5], [True, 1], np.array([True, False]), [np.float64(0.1), 0.2],
        ]
        for values in sequences:
            expected = ", ".join(to_json(x) for x in list(values))
            assert to_json(values) == f"[{expected}]"
        keys = {"12": 1, "-3": 2, "²": 3, 'a"b': 4, 7: 5}
        assert to_json(keys) == (
            '{\n  "12": 1,\n  "-3": 2,\n  "\\u00b2": 3,\n  "a\\"b": 4,\n  "7": 5\n}'
        )

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
        assert body[1] == "ineq,p,q,beta,seed,f,F,lhs,rhs,deficit"
        rows = body[2:]
        assert len(rows) == 3
        assert all(float(r.split(",")[-1]) >= 0.0 for r in rows)
        summary = json.loads(out)
        assert summary["violations"] == 0

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

    def test_line_inequality_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "line.csv"
        status, out = run_cli(
            capsys, "verify", "--ineq", "1.10", "--p", "2", "--q", "1.5",
            "--beta", "0.8", "--trials", "6", "--seed", "3",
            "--output", str(out_csv),
        )
        assert status == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        rows = out_csv.read_text().strip().split("\n")[2:]
        assert len(rows) == 6
        assert all(r.startswith("1.10,") for r in rows)

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


class TestErrorPaths:
    def test_unknown_ineq_choice(self, capsys):
        status, _ = run_cli(capsys, "verify", "--ineq", "9.9")
        assert status == 1

    def test_bad_powerlaw_spec(self, capsys):
        status, _ = run_cli(
            capsys, "symmetrize", "--depth", "4", "--g", "powerlaw:oops"
        )
        assert status == 1

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

    def test_overflowing_moment_exits_one(self, capsys, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("2,1\n1e10\n1\n")
        status = main(["maximal", "--p", "64", "--input", str(path)])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error:") and err.count("\n") == 1

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
