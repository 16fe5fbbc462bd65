"""One benchmark run in one process: a closed loop over the workload's
command list through ``treemax.cli.main``, with checks after every pass.

Usage: ``python3 perfbench/worker.py <config.json>``; ``run.py`` writes the
config and reads the result file named in it. With ``trace`` set, passes
alternate untraced and traced, so the tracing overhead is measured in the
same process and on the same inputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import layers
import workloads
from tracing import Tracer


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _csv_counts(commands) -> dict:
    rows = size = 0
    for c in commands:
        if c.csv is not None:
            rows += workloads.csv_data_rows(c.csv)
            size += os.path.getsize(c.csv)
    return {"rows": rows, "bytes": size}


def _call(main, argv) -> str | int:
    """Exit code of one CLI call, or the exception it raised (traceback logged)."""
    try:
        return main(list(argv))
    except Exception as exc:  # a crash is a failed command, not a failed run
        traceback.print_exc()
        return f"raised {type(exc).__name__}: {exc}"


def run(config: dict) -> dict:
    import numpy
    import treemax
    import treemax.cli

    src = os.path.realpath(config["src"])
    if not os.path.realpath(treemax.__file__).startswith(src + os.sep):
        raise SystemExit(f"treemax imported from {treemax.__file__}, not from {src}")

    commands = workloads.build(config["workload"], config["seed"], config["work_dir"])
    trace = bool(config["trace"])
    tracer = Tracer(layers.PACKAGE, layers.TARGETS) if trace else None
    min_passes = 4 if trace else 3

    walls, traced_walls, command_walls, trials, failures = [], [], [], [], []
    reference: dict[str, str] = {}
    attempted = 0
    start = perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
        t0 = perf_counter()
        codes, ends = [], []
        for c in commands:
            codes.append(_call(treemax.cli.main, c.argv))
            ends.append(perf_counter())
        wall = ends[-1] - t0
        if traced:
            tracer.uninstall()
        (traced_walls if traced else walls).append(wall)
        if not traced:
            command_walls.append([b - a for a, b in zip([t0, *ends], ends)])

        pass_trials = 0
        for c, code in zip(commands, codes):
            attempted += 1
            reason = None
            if isinstance(code, str):
                reason = code
            elif code != 0:
                reason = f"exit {code}"
            else:
                n, reason = c.check()
                pass_trials += n
            for path in c.outputs:
                digest = _digest(path) if os.path.exists(path) else "missing"
                if reference.setdefault(path, digest) != digest and reason is None:
                    reason = f"{os.path.basename(path)} differs from the first pass"
            if reason is not None:
                failures.append(f"pass {len(walls) + len(traced_walls)}: {c.argv[0]}: {reason}")
        if not traced:
            trials.append(pass_trials)

        elapsed = perf_counter() - start
        passes = len(walls) + len(traced_walls)
        if passes >= min_passes and elapsed + statistics.mean(walls + traced_walls) > config["seconds"]:
            break

    result = {
        "passes": len(walls),
        "wall_s": walls,
        "command_wall_s": command_walls,
        "trials": trials,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failures": failures,
        "digests": {os.path.basename(p): d for p, d in reference.items()},
        "numpy": numpy.__version__,
    }
    if trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        per_layer, missing = layers.per_layer_metrics(
            tracer.spans,
            len(traced_walls),
            int(os.environ["MAXTREE_THREADS"]),
            tracer.absent,
            tracer.count_errors,
            _csv_counts(commands),
            overhead,
        )
        result.update(traced_passes=len(traced_walls), per_layer=per_layer, missing=missing)
    return result


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        config = json.load(fh)
    result = run(config)
    with open(config["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
