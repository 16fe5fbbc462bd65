"""The treemax functions the traced run wraps, and the per-layer metrics.

Every metric is per pass of the workload's command list (the mean over the
traced passes), except ``max_s``, the slowest single call of the run.
"""
from __future__ import annotations

from tracing import Target, children_of, pool_idle, self_time

PACKAGE = "treemax"


def maximal_sweep_bytes(rows: int, arity: int, depth: int) -> int:
    """Bytes the batched prefix-max sweep reads and writes, computed from the
    array shapes (float64), not measured.

    With ``L`` the element count of all levels of one row and ``n`` its
    leaves: the upward averaging reads every level but the root and writes
    every level but the leaves; each downward step reads the coarser best
    row, writes its repeat, reads that and the level, and writes the new
    best row.
    """
    n = arity**depth
    levels = sum(n // arity**k for k in range(depth + 1))
    up = (levels - 1) + (levels - n)
    down = (levels - n) + 4 * (levels - 1)
    return 8 * rows * (up + down)


def _draw_counts(args, kwargs, result) -> dict:
    return {"elements": int(result.size)}


def _sweep_counts(args, kwargs, result) -> dict:
    values, arity, depth = args
    rows, leaves = values.shape
    return {
        "elements": rows * leaves,
        "bytes": maximal_sweep_bytes(rows, int(arity), int(depth)),
    }


def _oracle_counts(args, kwargs, result) -> dict:
    info = result[1]
    return {
        "evaluations": int(info["evaluations"]),
        "improving_swaps": int(info["improving_swaps"]),
    }


def _linearize_counts(args, kwargs, result) -> dict:
    return {"members": len(result.s_phi)}


def _json_counts(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


TARGETS = (
    Target("cli.main"),
    Target("cli.to_json", _json_counts),
    Target("sweeps.run_battery"),
    Target("sweeps.evaluate_cell"),
    Target("sweeps.mixture_values", _draw_counts),
    Target("sweeps.batch_maximal_leaves", _sweep_counts),
    Target("sweeps.oracle_sup", _oracle_counts),
    Target("sweeps.orbit_sample_max"),
    Target("rearrange.hardy_power"),
    Target("rearrange.discretize"),
    Target("bellman.bellman_value"),
    Target("bellman.minimize_envelope"),
    Target("tree.load_step_function"),
    Target("maximal.maximal_function"),
    Target("maximal.linearize", _linearize_counts),
    Target("maximal.reconstruct_maximal"),
    Target("inequalities.hardy_deficit"),
)

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "sweeps.mixture_values.busy_s": ("s", "lower"),
    "sweeps.mixture_values.elements": ("count", "lower"),
    "sweeps.mixture_values.ms_per_melement": ("ms/Melement", "lower"),
    "sweeps.batch_maximal_leaves.busy_s": ("s", "lower"),
    "sweeps.batch_maximal_leaves.calls": ("count", "lower"),
    "sweeps.batch_maximal_leaves.elements": ("count", "lower"),
    "sweeps.batch_maximal_leaves.gbytes_computed": ("GB", "lower"),
    "sweeps.batch_maximal_leaves.ms_per_melement": ("ms/Melement", "lower"),
    "sweeps.evaluate_cell.busy_s": ("s", "lower"),
    "sweeps.evaluate_cell.self_s": ("s", "lower"),
    "sweeps.evaluate_cell.max_s": ("s", "lower"),
    "sweeps.pool.idle_s": ("s", "lower"),
    "sweeps.run_battery.busy_s": ("s", "lower"),
    "sweeps.run_battery.self_s": ("s", "lower"),
    "sweeps.run_battery.self_share": ("1", "lower"),
    "csv.rows": ("count", "lower"),
    "csv.bytes": ("B", "lower"),
    "sweeps.oracle_sup.busy_s": ("s", "lower"),
    "sweeps.oracle_sup.self_s": ("s", "lower"),
    "sweeps.oracle_sup.evaluations": ("count", "lower"),
    "sweeps.oracle_sup.improving_swaps": ("count", "higher"),
    "sweeps.oracle_sup.useful_ratio": ("1", "higher"),
    "sweeps.orbit_sample_max.busy_s": ("s", "lower"),
    "rearrange.hardy_power.busy_s": ("s", "lower"),
    "rearrange.discretize.busy_s": ("s", "lower"),
    "bellman.bellman_value.calls": ("count", "lower"),
    "bellman.bellman_value.us_per_call": ("us", "lower"),
    "tree.load_step_function.busy_s": ("s", "lower"),
    "maximal.maximal_function.busy_s": ("s", "lower"),
    "maximal.linearize.busy_s": ("s", "lower"),
    "maximal.linearize.members": ("count", "lower"),
    "maximal.reconstruct_maximal.busy_s": ("s", "lower"),
    "cli.to_json.busy_s": ("s", "lower"),
    "cli.to_json.bytes": ("B", "lower"),
    "inequalities.hardy_deficit.busy_s": ("s", "lower"),
    "inequalities.hardy_deficit.calls": ("count", "lower"),
    "bellman.minimize_envelope.busy_s": ("s", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# statistics computed from the work counts of the calls, not from span times
_COUNTED = {
    "elements", "gbytes_computed", "ms_per_melement", "evaluations",
    "improving_swaps", "useful_ratio", "members", "bytes",
}


def _missing(metric: str, absent, count_errors) -> bool:
    """True when the metric's function was not found, or its counter could
    not read the call (the function was removed or changed shape)."""
    head, _, stat = metric.rpartition(".")
    if head in ("csv", "trace"):
        return False
    if metric == "sweeps.pool.idle_s":
        return bool({"sweeps.run_battery", "sweeps.evaluate_cell"} & set(absent))
    return head in absent or (stat in _COUNTED and head in count_errors)


def per_layer_metrics(
    spans, passes: int, threads: int, absent, count_errors, csv_counts: dict, overhead_s: float
) -> tuple[dict, list[str]]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    Returns ``(metrics, missing)``: ``missing`` names every metric whose
    function was not found (removed or renamed) and which is left out.
    """
    children = children_of(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def group(key):
        return by_name.get(key, [])

    def busy(key):
        return sum(s.duration for s in group(key))

    def total(key, count):
        return sum(s.counts.get(count, 0) for s in group(key))

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    idle = sum(
        pool_idle(s, "sweeps.evaluate_cell", children, threads)
        for s in group("sweeps.run_battery")
    )
    values = {}
    for metric in PER_LAYER:
        head, _, stat = metric.rpartition(".")
        if metric == "sweeps.pool.idle_s":
            values[metric] = per_pass(idle)
        elif metric == "trace.overhead_s":
            values[metric] = overhead_s
        elif head == "csv":
            values[metric] = csv_counts[stat]
        elif stat == "busy_s":
            values[metric] = per_pass(busy(head))
        elif stat == "self_s":
            values[metric] = per_pass(sum(self_time(s, children) for s in group(head)))
        elif stat == "max_s":
            values[metric] = max((s.duration for s in group(head)), default=0.0)
        elif stat == "calls":
            values[metric] = per_pass(len(group(head)))
        elif stat == "self_share":
            values[metric] = ratio(sum(self_time(s, children) for s in group(head)), busy(head))
        elif stat == "gbytes_computed":
            values[metric] = per_pass(total(head, "bytes")) / 1e9
        elif stat == "ms_per_melement":
            values[metric] = ratio(busy(head), total(head, "elements")) * 1e9
        elif stat == "us_per_call":
            values[metric] = ratio(busy(head), len(group(head))) * 1e6
        elif stat == "useful_ratio":
            values[metric] = ratio(total(head, "improving_swaps"), total(head, "evaluations"))
        else:
            values[metric] = per_pass(total(head, stat))

    missing = [m for m in PER_LAYER if _missing(m, absent, count_errors)]
    for m in missing:
        values.pop(m)
    return values, missing
