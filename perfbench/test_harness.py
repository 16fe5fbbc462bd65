"""Fast self-check of the benchmark harness; needs neither numpy nor treemax.

    python3 -m pytest -q perfbench/test_harness.py
"""
from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import layers
import run
import workloads
from tracing import Span, Target, Tracer, children_of, covered, pool_idle, self_time

HERE = Path(__file__).resolve().parent


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert covered([(2.0, 3.0), (0.0, 10.0)]) == 10.0


def test_self_time_subtracts_the_union_of_children():
    root = Span("battery", None, 0.0, 10.0)
    # two pool threads overlap on [2, 4]; the union of children is [1, 6]
    a = Span("cell", root, 1.0, 4.0)
    b = Span("cell", root, 2.0, 6.0)
    inner = Span("draw", a, 1.5, 2.5)
    children = children_of([root, a, b, inner])
    assert self_time(root, children) == 10.0 - 5.0
    assert self_time(a, children) == 3.0 - 1.0
    assert self_time(b, children) == 4.0
    assert pool_idle(root, "cell", children, threads=2) == 2 * 5.0 - (3.0 + 4.0)
    assert pool_idle(root, "cell", children, threads=1) == 1 * 5.0 - 7.0


def _fake_package():
    """``fakepkg.a`` defines ``walk`` (recursive) and ``work``; ``fakepkg.b``
    binds copies, as ``from .a import walk, work`` would."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")

    def walk(n):
        return 0 if n == 0 else 1 + a.walk(n - 1)

    def work(n):
        return [a.walk(n) for _ in range(n)]

    a.walk, a.work = walk, work
    b = types.ModuleType("fakepkg.b")
    b.walk, b.work = walk, work
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


def test_tracer_wraps_copies_outermost_recursion_and_threads(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    tracer = Tracer(
        "fakepkg",
        [Target("a.work", lambda args, kwargs, result: {"items": len(result)}),
         Target("a.walk"), Target("a.gone")],
    )
    tracer.install()
    b = modules["fakepkg.b"]
    try:
        assert b.work(3) == [3, 3, 3]
        worker = threading.Thread(target=b.walk, args=(5,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert b.walk is modules["fakepkg.a"].walk  # bindings restored
    assert tracer.absent == {"a.gone"}
    names = [s.name for s in tracer.spans]
    # one span per outermost walk: three inside work, one on the thread
    assert names.count("a.walk") == 4 and names.count("a.work") == 1
    work = next(s for s in tracer.spans if s.name == "a.work")
    assert work.counts == {"items": 3}
    walks = [s for s in tracer.spans if s.name == "a.walk"]
    assert sum(s.parent is work for s in walks) == 3
    assert sum(s.parent is None for s in walks) == 1  # nothing was open on the main thread


def test_missing_function_is_reported_not_raised():
    metrics, missing = layers.per_layer_metrics(
        [], 1, 2, {"sweeps.oracle_sup"}, {"maximal.linearize"}, {"rows": 0, "bytes": 0}, 0.0
    )
    assert "sweeps.oracle_sup.busy_s" in missing
    assert "maximal.linearize.members" in missing
    assert "maximal.linearize.busy_s" in metrics
    assert set(metrics) | set(missing) == set(layers.PER_LAYER)


def test_sweep_bytes_from_shapes():
    # one row, binary depth 1: L = 3 elements, n = 2 leaves
    assert layers.maximal_sweep_bytes(1, 2, 1) == 8 * ((2 + 1) + (1 + 4 * 2))


def _read_all(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_identical_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first, again, other = (tmp_path / name / k for k in ("first", "again", "other"))
        for d in (first, again, other):
            d.mkdir(parents=True)
        workloads.write_inputs(name, 7, str(first))
        workloads.write_inputs(name, 7, str(again))
        workloads.write_inputs(name, 8, str(other))
        assert _read_all(first) == _read_all(again)
        # the seed reaches the program through its arguments or its files
        argv = [c.argv for c in workloads.build(name, 7, str(first))]
        assert argv != [c.argv for c in workloads.build(name, 8, str(first))]
        if name == "exact":
            assert _read_all(first).keys() == _read_all(other).keys()
            assert _read_all(first) != _read_all(other)


def test_benchmark_json_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END


def test_typical_pass_wall_takes_each_commands_median():
    # passes x commands: the medians come from different passes
    assert run.typical_pass_wall([[1.0, 0.5], [0.8, 0.7], [0.9, 0.6]]) == 0.9 + 0.6
    assert run.typical_pass_wall([[2.0, 3.0]]) == 5.0
