"""treemax benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload grid-csv --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

The run writes the workload's inputs from ``--seed`` into a scratch
directory of the checkout and starts one worker process that runs the
workload's commands in a closed loop for ``--seconds`` seconds, timing
each command, and checks every output. Before and after the worker it
times fresh interpreters up to ``import treemax.cli`` and one small call
(``setup_s``). The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. Lines before it are the human-readable report,
the machine, every command's time in every pass and the output digests.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_work"
SETUP_STARTS = 9  # split before and after the worker, so they sample two moments of the host
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 60  # the last pass may run past --seconds; keeps a run under 180 s
SETUP_CALL = ("verify", "--ineq", "1.7", "--trials", "4", "--depth", "3", "--seed", "0")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
}


def _env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["MAXTREE_THREADS"] = str(threads)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop. It does not enter any metric;
    it shows in the report when the host itself ran slower or faster."""
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        sum(i * i for i in range(200_000))
        samples.append((perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def typical_pass_wall(command_walls: list[list[float]]) -> float:
    """Sum over the commands of a pass of each command's median time.

    Each command is timed on its own in every pass, so a slow spell of the
    host that hits one command of a pass does not move the others."""
    return sum(statistics.median(times) for times in zip(*command_walls))


def measure_setup(env: dict, work_dir: str, starts: int) -> list[float]:
    """Wall time of fresh interpreters importing treemax.cli and making one
    small call; several starts, because a single one swings with the page
    cache."""
    summary = os.path.join(work_dir, "setup.json")
    code = (
        "import sys, treemax.cli; "
        f"sys.exit(treemax.cli.main({list(SETUP_CALL)!r} + ['--summary', {summary!r}]))"
    )
    samples = []
    for _ in range(starts):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT)
        # a blocking wait; Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the sample
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
        samples.append(perf_counter() - t0)
        if returncode != 0:
            raise RuntimeError(f"set-up call exited {returncode}")
    return samples


def run_worker(workload: str, seed: int, seconds: int, trace: int, env: dict, work_dir: str) -> dict:
    config_path = os.path.join(work_dir, "config.json")
    result_path = os.path.join(work_dir, "result.json")
    log_path = os.path.join(work_dir, "worker.log")
    config = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work_dir": work_dir,
        "src": str(SRC),
        "result": result_path,
    }
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    worker = Path(__file__).resolve().parent / "worker.py"
    with open(log_path, "w", encoding="utf-8") as log:
        done = subprocess.run(
            [sys.executable, str(worker), config_path],
            env=env,
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=seconds + WORKER_GRACE_S,
        )
    if done.returncode != 0 or not os.path.exists(result_path):
        with open(log_path, "r", encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"worker exited {done.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run; prints the report and returns the result object of the last output line."""
    threads = min(2, os.cpu_count() or 1)
    env = _env(threads)
    SCRATCH.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    try:
        workloads.write_inputs(workload, seed, work_dir)
        probe_before = host_probe_ms()
        setup = measure_setup(env, work_dir, SETUP_STARTS // 2)
        worker = run_worker(workload, seed, seconds, trace, env, work_dir)
        setup += measure_setup(env, work_dir, SETUP_STARTS - SETUP_STARTS // 2)
        probe_after = host_probe_ms()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # left in place while another run uses it

    machine = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "MAXTREE_THREADS": threads,
        "host_probe_ms": [round(probe_before, 3), round(probe_after, 3)],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    print(f"machine {json.dumps(machine)}")
    failed = len(worker["failures"])
    attempted = worker["attempted"]
    for line in worker["failures"]:
        print(f"FAILED {line}")

    wall = typical_pass_wall(worker["command_wall_s"])
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "trials_per_s": statistics.median(worker["trials"]) / wall,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    passes = len(worker["wall_s"])
    notes = {
        "setup_s": "median of {} starts, quartiles {:.6g} .. {:.6g}".format(
            len(setup), *_quartiles(setup)[::2]),
        "wall_s": "sum over commands of the median of {} passes; pass median {:.6g}".format(
            passes, statistics.median(worker["wall_s"])),
        "trials_per_s": "trials of one pass / wall_s",
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    end_to_end = {}
    for name, unit in END_TO_END.items():
        end_to_end[name] = {"value": values[name], "unit": unit}
        print(f"{workload:10s} {name:14s} {values[name]:14.6g} {unit:9s} {notes[name]}")
    print(f"{workload:10s} {'failed_ratio':14s} {failed / attempted:14.6g} {'1':9s} "
          f"{failed} of {attempted} commands failed their check")

    metrics = end_to_end
    if trace:
        metrics = {}
        for name, value in worker["per_layer"].items():
            unit = layers.PER_LAYER[name][0]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{workload:10s} {name:46s} {value:14.6g} {unit}")
        print(f"{workload:10s} traced passes {worker['traced_passes']}, untraced {worker['passes']}")
        for name in worker["missing"]:
            print(f"{workload:10s} {name:46s} absent (function not found)")
    print(f"passes {json.dumps(worker['command_wall_s'])}")
    print(f"digests {json.dumps(worker['digests'])}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "treemax" / "cli.py").is_file():
        print(f"error: no treemax sources under {SRC}", file=sys.stderr)
        return 1

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
