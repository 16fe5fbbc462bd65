"""The four workloads: the inputs each makes from its seed, the command list
of one pass, and the check on every command's output.

Why each exists (see README.md for the full map of layers to metrics):

* ``grid-csv``   the acceptance battery as users run it, with its CSV; the
                 only workload whose serial tail formats a large CSV.
* ``cell-large`` one large cell and no CSV: it bypasses CSV work, runs on a
                 single thread and takes the generic-q moment branch.
* ``orbit``      criterion 10's oracle calls plus a deep ``symmetrize``: few
                 rows over many small kernel calls.
* ``exact``      the single-function paths (``maximal`` on large files, line
                 profiles, ``bellman``, ``sharpness``), which no battery uses.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("grid-csv", "cell-large", "orbit", "exact")

GRID_CELLS = 48  # len(treemax.sweeps.battery_cells())
GRID_INEQUALITIES = 4
GRID_TRIALS = 500
LARGE_TRIALS = 600
# acceptance criterion 10, kept exactly: its swap ascent stalls, which must stay visible
ORACLE_CASES = ((2.0, 1.0, 2.0), (3.0, 1.0, 4.0), (1.5, 1.0, 3.0))
ORACLE_ARGS = ("--depth", "12", "--budget", "500", "--seed", "1234")
SYMMETRIZE_DEPTH = 14
SYMMETRIZE_SEEDS = 200
STEP_SHAPES = ((2, 16), (3, 10))
LINE_TRIALS = 100
BELLMAN_PAIRS = 6
SHARPNESS_POINTS = 20
BELLMAN_RTOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI call. ``check`` returns ``(trials evaluated, failure or None)``
    once the call has exited 0; ``outputs`` are the files it writes."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[], tuple[int, Optional[str]]]
    csv: Optional[str] = None


def _sub_seed(seed: int, index: int) -> int:
    return random.Random(f"{seed}:{index}").randrange(2**31)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def csv_data_rows(path: str) -> int:
    """Rows of a verify CSV other than comments and the column header."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if not line.startswith(b"#")) - 1


def _violations_check(summary: str, trials: int, csv: Optional[str] = None, rows: int = 0):
    def check():
        violations = _load(summary)["violations"]
        if violations != 0:
            return trials, f"{violations} violations"
        if csv is not None and csv_data_rows(csv) != rows:
            return trials, f"{csv_data_rows(csv)} CSV rows, expected {rows}"
        return trials, None

    return check


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _leaf_value(rng: random.Random) -> float:
    # the battery's mixture law: uniform, exponential, skewed two-point
    component = rng.randrange(3)
    if component == 0:
        return rng.random()
    if component == 1:
        return rng.expovariate(1.0)
    return 12.0 if rng.random() < 0.1 else 0.05


def _step_file(work_dir: str, arity: int, depth: int) -> str:
    return os.path.join(work_dir, f"phi_{arity}_{depth}.csv")


def _moment_pairs(seed: int) -> list[tuple[float, float, float]]:
    rng = random.Random(_sub_seed(seed, 2))
    pairs = []
    for i in range(BELLMAN_PAIRS):
        p = (1.5, 2.0, 3.0)[i % 3]
        f = rng.uniform(0.5, 2.0)
        pairs.append((p, f, f**p * (1.0 + rng.uniform(0.1, 3.0))))
    return pairs


def write_inputs(workload: str, seed: int, work_dir: str) -> list[str]:
    """Write the workload's input files; the same seed gives the same bytes."""
    if workload != "exact":
        return []
    paths = []
    for k, (arity, depth) in enumerate(STEP_SHAPES):
        rng = random.Random(_sub_seed(seed, 10 + k))
        path = _step_file(work_dir, arity, depth)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{arity},{depth}\n")
            fh.writelines(f"{_leaf_value(rng):.17g}\n" for _ in range(arity**depth))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# command lists
# ---------------------------------------------------------------------------


def _grid(seed: int, d: str) -> list[Command]:
    csv, summary = os.path.join(d, "grid.csv"), os.path.join(d, "grid.json")
    trials = GRID_CELLS * GRID_TRIALS
    argv = ("verify", "--ineq", "grid", "--trials", str(GRID_TRIALS), "--seed", str(seed),
            "--output", csv, "--summary", summary)
    rows = GRID_INEQUALITIES * trials
    return [Command(argv, (csv, summary), _violations_check(summary, trials, csv, rows), csv)]


def _large(seed: int, d: str) -> list[Command]:
    summary = os.path.join(d, "large.json")
    argv = ("verify", "--ineq", "1.8", "--p", "3", "--q", "2", "--beta", "0.25",
            "--arity", "2", "--depth", "14", "--trials", str(LARGE_TRIALS),
            "--seed", str(seed), "--summary", summary)
    return [Command(argv, (summary,), _violations_check(summary, LARGE_TRIALS))]


def _orbit(seed: int, d: str) -> list[Command]:
    commands = []
    for i, (p, f, big_f) in enumerate(ORACLE_CASES):
        out = os.path.join(d, f"oracle_{i}.json")
        argv = ("oracle", "--p", str(p), "--f", str(f), "--F", str(big_f), *ORACLE_ARGS,
                "--output", out)
        # exit 0 means the closed-form upper bound held
        commands.append(Command(argv, (out,), lambda out=out: (_load(out)["evaluations"], None)))

    out = os.path.join(d, "symmetrize.json")
    argv = ("symmetrize", "--depth", str(SYMMETRIZE_DEPTH), "--seeds", str(SYMMETRIZE_SEEDS),
            "--seed", str(_sub_seed(seed, 1)), "--output", out)

    def check():
        exact = _load(out)["rearrangement_roundtrip_exact"] is True
        return SYMMETRIZE_SEEDS + 1, None if exact else "rearrangement round trip not exact"

    commands.append(Command(argv, (out,), check))
    return commands


def _exact(seed: int, d: str) -> list[Command]:
    commands = []
    for arity, depth in STEP_SHAPES:
        out = os.path.join(d, f"maximal_{arity}_{depth}.json")
        argv = ("maximal", "--input", _step_file(d, arity, depth), "--output", out)

        def check(out=out):
            exact = _load(out)["reconstruction_exact"] is True
            return 1, None if exact else "reconstruction not exact"

        commands.append(Command(argv, (out,), check))

    csv, summary = os.path.join(d, "line.csv"), os.path.join(d, "line.json")
    argv = ("verify", "--ineq", "1.10", "--p", "2", "--q", "1.5", "--beta", "0.5",
            "--trials", str(LINE_TRIALS), "--seed", str(_sub_seed(seed, 3)),
            "--output", csv, "--summary", summary)
    commands.append(
        Command(argv, (csv, summary), _violations_check(summary, LINE_TRIALS, csv, LINE_TRIALS), csv)
    )

    for i, (p, f, big_f) in enumerate(_moment_pairs(seed)):
        out = os.path.join(d, f"bellman_{i}.json")
        argv = ("bellman", "--p", repr(p), "--f", repr(f), "--F", repr(big_f), "--output", out)

        def check(out=out):
            payload = _load(out)
            value, low = payload["value"], payload["min_value"]
            if abs(value - low) > BELLMAN_RTOL * abs(value):
                return 1, f"value {value!r} and envelope minimum {low!r} disagree"
            return 1, None

        commands.append(Command(argv, (out,), check))

        out = os.path.join(d, f"sharpness_{i}.csv")
        argv = ("sharpness", "--family", "g_beta", "--p", repr(p), "--q", repr((1.0 + p) / 2.0),
                "--f", repr(f), "--points", str(SHARPNESS_POINTS), "--output", out)
        commands.append(Command(argv, (out,), lambda: (SHARPNESS_POINTS, None)))
    return commands


_COMMAND_LISTS = {"grid-csv": _grid, "cell-large": _large, "orbit": _orbit, "exact": _exact}


def build(workload: str, seed: int, work_dir: str) -> list[Command]:
    """The command list of one pass; inputs must already be written."""
    return _COMMAND_LISTS[workload](seed, work_dir)
