"""Randomized verification sweeps and the rearrangement-orbit search.

These are the batch engines behind the `verify`, `oracle`, and `symmetrize`
commands: thousands of seeded random step functions per parameter cell, all
evaluated as matrices (one row per trial) so a whole batch shares each tree
sweep. The battery evaluates its cells one after another in a single loop,
so the output depends only on the arguments and the seed; with CSV output,
one forked worker formats each cell's rows while the loop evaluates the
next cell. The worker is forked between cells, when no helper thread exists.

Within a cell, the trials go in row blocks. A block of at least
``BLOCK_ELEMENTS // 2`` leaf values is shared out between the calling
thread and helper threads, one worker per CPU the process may use (the
calling thread included), because numpy releases the GIL in such a block's
draw, sweep and reductions; smaller blocks stay on the calling thread, where
handing the GIL back and forth would cost more than it gains. One runner,
``_evaluate_blocks``, schedules every block of a cell: each worker draws a
block from its own generator set to the block's stream position, into a
buffer it reuses from block to block, so the worker count changes no byte,
and every helper is joined before the cell returns or raises.
"""
from __future__ import annotations

import contextlib
import copy
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .bellman import bellman_value
from .errors import DomainError
from .inequalities import (
    IneqParams,
    beyond_slack,
    line_moments,
    right_hand_side,
    tree_moments,
    weak_type_sides,
)
from .maximal import batch_maximal_leaves
from .rearrange import LineStepFunction, PowerLawFunction, discretize
from .tree import Tree

# Default verification grid: exponent/parameter cells and tree shapes.
BATTERY_PS = (1.5, 2.0, 3.0, 5.0)
BATTERY_SHAPES = tuple((arity, depth) for arity in (2, 3) for depth in range(2, 11))
BATTERY_INEQUALITIES = ("1.2", "1.7", "1.8", "1.9")

# Largest matrix drawn and swept at once: trials go in row blocks of at most
# this many leaf values, so every temporary stays cache-sized. Each leaf value
# is one double at a fixed stream position and every per-row result is
# independent of how rows are grouped, so this fixes no output byte.
BLOCK_ELEMENTS = 1 << 16

SWAP_ROUNDS = 800  # rounds of the orbit search's ascent
SWAP_BATCH = 96  # candidate leaf swaps per round of the orbit search's ascent
STALL_LIMIT = 60  # consecutive rounds without an improving swap that end it


def battery_qs(p: float) -> tuple[float, ...]:
    return (1.0, (1.0 + p) / 2.0, p)


def battery_betas(p: float) -> tuple[float, ...]:
    return (0.1, 0.5 / (p - 1.0), 1.0 / (p - 1.0), 2.0 / (p - 1.0))


def battery_cells() -> list[tuple[float, float, float]]:
    return [
        (p, q, beta)
        for p in BATTERY_PS
        for q in battery_qs(p)
        for beta in battery_betas(p)
    ]


def _shape_probabilities(shapes) -> np.ndarray:
    # favor small trees ~ 1/sqrt(leaves): every shape is exercised but the
    # cost is not dominated by the largest one
    w = np.array([(a**d) ** -0.5 for a, d in shapes])
    return w / w.sum()


# ---------------------------------------------------------------------------
# batched tree evaluation
# ---------------------------------------------------------------------------


def mixture_values(rng: np.random.Generator, rows: int, cols: int, out=None) -> np.ndarray:
    """I.i.d. leaf values from a mixture of uniform, exponential, and a
    skewed two-point law; the heavy components stress the near-extremal
    regime where deficits get small. Each value is one uniform ``u``:
    ``c = int(3u)`` picks the component and ``w = 3u - c`` feeds it, so
    draws of any sizes give the values of one draw. ``out``, a C-contiguous
    ``(rows, cols)`` float64 array, receives the values instead of a new one."""
    values = rng.random((rows, cols), out=out)
    values *= 3.0
    component = values.astype(np.int8).reshape(-1)
    values -= component.reshape(rows, cols)
    flat = values.reshape(-1)
    at = np.flatnonzero(component == 1)
    flat[at] = -np.log1p(-flat[at])
    at = np.flatnonzero(component == 2)
    flat[at] = np.where(flat[at] < 0.1, 12.0, 0.05)
    return values


def _row_blocks(rows: int, leaves: int) -> list[slice]:
    """Consecutive row slices of at most ``BLOCK_ELEMENTS`` leaf values each
    (at least one row), so every temporary of a block's sweep stays small."""
    step = max(1, BLOCK_ELEMENTS // leaves)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


@dataclass(eq=False)
class CellOutcome:
    """Trial-ordered raw numbers of one parameter cell; a row's deficit is
    ``rhs - lhs`` in float64, computed where it is read.

    The keys of ``rhs`` name the cell's inequalities in row order. The
    (1.7), (1.8) and (1.9) left-hand sides are all ``J0``, so their ``lhs``
    entries are one shared array: writing into one writes into all.
    """

    p: float
    q: float
    beta: float
    seed: int
    f: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    lhs: dict = field(repr=False, default_factory=dict)
    rhs: dict = field(repr=False, default_factory=dict)


def evaluate_cell(
    p: float,
    q: float,
    beta: float,
    trials: int,
    seed: int,
    shapes=BATTERY_SHAPES,
    inequalities=BATTERY_INEQUALITIES,
) -> CellOutcome:
    """Run ``trials`` random step functions through the requested deficits.

    Each trial draws a tree shape, i.i.d. mixture leaf values, and a
    weak-type level; every deficit is an exact finite sum per trial. The
    generator is owned by the cell, so a (seed, cell) pair fully determines
    every number here. After a shape index and a level fraction per trial,
    the stream holds the leaf values shape by shape, trial by trial, one
    double each, drawn and evaluated in row blocks of ``BLOCK_ELEMENTS`` by
    :func:`_evaluate_blocks`. Out-of-domain parameters, tree shapes, trial
    counts or inequality keys raise before anything is drawn.
    """
    IneqParams(p, q, beta)  # validates the parameter triple
    if not set(inequalities) <= set(BATTERY_INEQUALITIES):
        raise DomainError(f"inequalities must be among {BATTERY_INEQUALITIES}, got {inequalities}")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    shapes = list(shapes)
    trees = [Tree(arity, depth) for arity, depth in shapes]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    shape_idx = (
        rng.choice(len(shapes), size=trials, p=_shape_probabilities(shapes))
        if len(shapes) > 1
        else np.zeros(trials, dtype=np.int64)
    )
    lam_frac = rng.uniform(0.1, 1.0, trials)

    j0 = np.empty(trials)
    out = CellOutcome(
        p=p,
        q=q,
        beta=beta,
        seed=seed,
        f=np.empty(trials),
        F=np.empty(trials),
        lhs={k: np.empty(trials) if k == "1.2" else j0 for k in inequalities},
        rhs={k: np.empty(trials) for k in inequalities},
    )
    moment_keys = [k for k in inequalities if k != "1.2"]

    def evaluate(block_rng, idx, tree, buffer):
        # one row block: draw, sweep and reduce into ``buffer``, a worker's
        # room for four arrays of the block's shape, and write every row's numbers
        rows, leaves = idx.size, tree.leaf_count
        v, m, *scratch = buffer[: 4 * rows * leaves].reshape(4, rows, leaves)
        mixture_values(block_rng, rows, leaves, out=v)
        batch_maximal_leaves(v, tree.arity, tree.depth, out=m)
        f, big_f, j0[idx], j1, jq = tree_moments(v, m, p, q, out=scratch)
        out.f[idx], out.F[idx] = f, big_f
        if "1.2" in out.lhs:
            lam = lam_frac[idx] * m.max(axis=1)
            out.lhs["1.2"][idx], out.rhs["1.2"][idx] = weak_type_sides(v, m, lam)
        fp = f**p
        for key in moment_keys:
            out.rhs[key][idx] = right_hand_side(key, p, q, beta, fp, j1, jq)

    blocks = []
    for s, tree in enumerate(trees):
        rows = np.nonzero(shape_idx == s)[0]
        blocks += [(rows[block], tree) for block in _row_blocks(rows.size, tree.leaf_count)]
    _evaluate_blocks(evaluate, rng, blocks)
    return out


def _worker_count() -> int:
    """Workers for the large row blocks, the calling thread included: one
    per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluate_blocks(evaluate, rng, blocks) -> None:
    """``evaluate(rng, rows, tree, buffer)`` on every ``(rows, tree)`` block
    of ``blocks``, which are in stream order from ``rng``'s position on.

    The small blocks (fewer than ``BLOCK_ELEMENTS // 2`` leaf values) run
    first, on the calling thread, in stream order, from ``rng``, which only
    advances past a large block and records its state. The large blocks then
    go to the calling thread and helper threads: one worker per CPU this
    process may use, at most one per large block. Each worker takes the next
    block nobody has taken until none is left, and draws it from its own
    generator, set to the block's state, into its own buffer of four
    block-sized arrays, reused from block to block, so which worker takes a
    block changes no bit. After an error or an interrupt no further block
    starts; every helper is joined before this returns or raises, and an
    error raised on a helper is raised here.
    """
    sizes = [rows.size * tree.leaf_count for rows, tree in blocks]
    workers = max(1, min(_worker_count(), sum(size >= BLOCK_ELEMENTS // 2 for size in sizes)))
    # one array holds every worker's buffer: separate ones, all freed at the
    # end of a cell, went back to the OS and were faulted in again each cell
    buffers = np.empty((workers, 4 * max(sizes)))
    large = []  # (stream state, rows, tree) of every large block
    for (rows, tree), size in zip(blocks, sizes):
        if size >= BLOCK_ELEMENTS // 2:
            large.append((rng.bit_generator.state, rows, tree))
            rng.bit_generator.advance(size)
        else:
            evaluate(rng, rows, tree, buffers[0])
    if not large:
        return  # no executor: a run of small blocks loads no thread machinery
    from concurrent.futures import ThreadPoolExecutor

    taken, stop = itertools.count(), []

    def run(buffer):
        worker_rng = np.random.Generator(copy.copy(rng.bit_generator))
        try:
            while not stop and (i := next(taken)) < len(large):
                state, rows, tree = large[i]
                worker_rng.bit_generator.state = state
                evaluate(worker_rng, rows, tree, buffer)
        finally:
            stop.append(True)  # no block is left, or an error stops every worker

    # the pool starts one thread per helper; the calling thread is worker 0
    with ThreadPoolExecutor(workers) as pool:
        try:
            helpers = [pool.submit(run, buffer) for buffer in buffers[1:]]
            run(buffers[0])
        finally:
            stop.append(True)
    for helper in helpers:
        helper.result()  # a helper's error, raised again


def _line_cell(p: float, q: float, beta: float, trials: int, seed: int) -> CellOutcome:
    """The line inequality (1.10) on ``trials`` random non-increasing
    profiles from the cell's own generator: even trials are 64 equal pieces
    of sorted mixture values, odd trials power laws of random mean and
    exponent. Each row is :func:`hardy_deficit`'s at the profile's mean,
    unjudged: the battery counts the violations."""
    IneqParams(p, q, beta)  # validates the parameter triple
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    profiles = []
    for trial in range(trials):
        if trial % 2 == 0:
            values = np.sort(mixture_values(rng, 1, 64)[0])[::-1]
            profiles.append(LineStepFunction(np.arange(65) / 64.0, values))
        else:
            alpha = rng.uniform(0.0, 0.95 / p)
            profiles.append(PowerLawFunction.from_mean_and_exponent(rng.uniform(0.5, 2.0), alpha))
    f, big_f, j0, j1, jq = line_moments(profiles, p, q)
    # a scalar power per trial: the array power may round one ulp apart
    fp = np.array([x**p for x in f.tolist()])
    rhs = right_hand_side("1.9", p, q, beta, fp, j1, jq)
    return CellOutcome(p, q, beta, seed, f, big_f, {"1.10": j0}, {"1.10": rhs})


# ---------------------------------------------------------------------------
# full battery with CSV emission
# ---------------------------------------------------------------------------

def cell_seed(base_seed: int, cell_index: int) -> int:
    """Stable per-cell sub-seed derived from the run seed."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(cell_index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def format_cell_rows(outcome: CellOutcome) -> str:
    """The CSV rows of one cell, trial by trial, each trial a row per
    inequality of the record. Each distinct column array is formatted once
    (the (1.7)/(1.8)/(1.9) ``lhs`` share one), then one template is filled."""
    columns = []
    for k in outcome.rhs:
        columns += [outcome.f, outcome.F, outcome.lhs[k], outcome.rhs[k]]
    text = {}
    for a in columns:
        if id(a) not in text:
            text[id(a)] = ["%.17g" % x for x in a.tolist()]
    template = "".join(
        f"{k},{outcome.p:.17g},{outcome.q:.17g},{outcome.beta:.17g},{outcome.seed},%s,%s,%s,%s\n"
        for k in outcome.rhs
    )
    return "".join([template % fields for fields in zip(*(text[id(a)] for a in columns))])


def _fold_cell(summary: dict, outcome: CellOutcome) -> None:
    """Fold one cell's inequalities into ``summary``. A strict ``<`` keeps
    the earliest cell, inequality and trial on a tie; the first deficit that
    is not finite raises ``OverflowError``."""
    for k, rhs in outcome.rhs.items():
        deficit = rhs - outcome.lhs[k]
        bad = np.flatnonzero(~np.isfinite(deficit))
        if bad.size:
            raise OverflowError(
                f"inequality ({k}) in cell p={outcome.p!r}, q={outcome.q!r}, beta={outcome.beta!r}, "
                f"trial {bad[0]}: lhs={outcome.lhs[k][bad[0]]:.17g}, rhs={rhs[bad[0]]:.17g}"
            )
        summary["violations"] += int(beyond_slack(deficit, rhs).sum())
        i = int(np.argmin(deficit))
        if deficit[i] < summary["per_inequality"][k]:
            summary["per_inequality"][k] = float(deficit[i])
        if deficit[i] < summary["min_deficit"]:
            summary["min_deficit"] = float(deficit[i])
            summary["argmin"] = {
                "ineq": k,
                "p": outcome.p,
                "q": outcome.q,
                "beta": outcome.beta,
                "seed": outcome.seed,
                "trial": i,
            }


def _format_pool():
    """One worker process that formats cells. It is forked, so it starts
    with numpy and the package already imported, and it ignores SIGINT, so
    an interrupt reaches only the parent, which then joins it."""
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    )


def run_battery(
    base_seed: int,
    trials_per_cell: int,
    cells=None,
    shapes=BATTERY_SHAPES,
    inequalities=BATTERY_INEQUALITIES,
    csv_sink=None,
    header_lines=(),
) -> dict:
    """Evaluate every cell of the grid and return the summary: the global
    minimum deficit, where it happened, the minimum per inequality and the
    violation count (rows :func:`beyond_slack` calls violations; they are
    written and can be the argmin like any other row). ``inequalities=
    ("1.10",)`` evaluates the line inequality on random profiles, and
    ``shapes`` is then unused.

    One loop evaluates the cells in order and folds each into the summary
    (a deficit that is not finite raises ``OverflowError``). With a
    ``csv_sink`` (any object with ``write``), one forked worker formats each
    cell's rows while the loop evaluates the next cell, and the loop writes
    them in cell order; the last cell, with nothing left to overlap, is
    formatted in place, so a one-cell battery starts no process. The worker
    never writes to ``csv_sink`` and is joined before this returns or
    raises. Rows are in cell-major, trial-major, inequality-major order with
    17-significant-digit floats, so two runs with the same seed produce
    byte-identical output.
    """
    cells = battery_cells() if cells is None else list(cells)
    if csv_sink is not None:
        comments = "".join(f"# {line}\n" for line in header_lines)
        csv_sink.write(comments + "ineq,p,q,beta,seed,f,F,lhs,rhs\n")
    summary = {
        "min_deficit": np.inf,
        "argmin": None,
        "violations": 0,
        "per_inequality": dict.fromkeys(inequalities, np.inf),
    }
    with contextlib.ExitStack() as stack:
        pool = pending = None  # pending: the previous cell's rows, being formatted
        for index, (p, q, beta) in enumerate(cells):
            seed = cell_seed(base_seed, index)
            outcome = (
                _line_cell(p, q, beta, trials_per_cell, seed)
                if inequalities == ("1.10",)
                else evaluate_cell(p, q, beta, trials_per_cell, seed, shapes, inequalities)
            )
            if csv_sink is not None:
                last = index == len(cells) - 1
                if not last and pool is None:
                    pool = stack.enter_context(_format_pool())
                submitted = None if last else pool.submit(format_cell_rows, outcome)
                if pending is not None:
                    csv_sink.write(pending.result())
                pending = submitted
                if last:
                    csv_sink.write(format_cell_rows(outcome))
            _fold_cell(summary, outcome)
            del outcome  # release this cell before the next is drawn
    return summary


# ---------------------------------------------------------------------------
# rearrangement-orbit search for the extremal problem
# ---------------------------------------------------------------------------


def _orbit_values(x: np.ndarray, arity: int, depth: int, p: float) -> np.ndarray:
    x = np.atleast_2d(x)
    out = np.empty(x.shape[0])
    for block in _row_blocks(*x.shape):
        out[block] = (batch_maximal_leaves(x[block], arity, depth) ** p).mean(axis=1)
    return out


def _orbit_best(values: np.ndarray, tree: Tree, p: float, count: int, rng):
    """Best p-th moment of the maximal function over ``values`` in the given
    order and ``count`` seeded random arrangements of it, as ``(value,
    arrangement, from_random)``; ties keep the earliest arrangement."""
    if count < 0:
        raise DomainError(f"arrangement count must be nonnegative, got {count}")
    n = tree.leaf_count
    best_value = float(_orbit_values(values, tree.arity, tree.depth, p)[0])
    best, from_random = values, False
    for block in _row_blocks(int(count), n):
        rows = block.stop - block.start
        candidates = rng.permuted(np.broadcast_to(values, (rows, n)), axis=1)
        found = _orbit_values(candidates, tree.arity, tree.depth, p)
        i = int(np.argmax(found))
        if found[i] > best_value:
            best_value, best, from_random = float(found[i]), candidates[i].copy(), True
    return best_value, best, from_random


def oracle_sup(
    p: float,
    f: float,
    big_f: float,
    depth: int,
    budget: int,
    seed: int,
    arity: int = 2,
) -> tuple[float, dict]:
    """Lower-bound search for the extremal value at moments (f, F).

    The extremal decreasing profile is discretized onto the leaf level by
    exact cell averages; the search then explores its rearrangement orbit:
    the sorted arrangement, ``budget`` seeded random arrangements, and a
    greedy ascent of pairwise leaf swaps accepted when they increase the
    p-th moment of the maximal function. Swaps preserve both moments
    exactly, so every candidate respects the constraint set.

    Returns ``(best_value, summary)`` where the summary records the achieved
    moments of the discretized profile, the closed-form bound at both the
    requested and the achieved moments, and where the best candidate came
    from.
    """
    if budget < 0:
        raise DomainError(f"budget must be nonnegative, got {budget}")
    requested = bellman_value(p, f, big_f)  # validates the moment pair
    tree = Tree(arity, depth)
    n = tree.leaf_count

    if big_f <= f**p * (1.0 + 1e-12):
        # Jensen equality: only the constant arrangement exists
        summary = {
            "f_achieved": f,
            "F_achieved": f**p,
            "bound_requested": requested.value,
            "bound_achieved": f**p,
            "best_from": "constant",
            "improving_swaps": 0,
            "evaluations": 1,
        }
        return f**p, summary

    profile = PowerLawFunction.self_similar(f, requested.alpha)
    cells = discretize(profile, n)
    base = cells.values.copy()  # descending cell averages
    f_achieved = float(base.mean())
    big_f_achieved = float((base**p).mean())
    bound_achieved = bellman_value(p, f_achieved, big_f_achieved).value

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best_value, best, from_random = _orbit_best(base, tree, p, budget, rng)
    best_from = "random" if from_random else "sorted"
    evaluations = 1 + budget

    current = best.copy()
    current_value = best_value
    improving = 0
    stall = 0
    for _ in range(SWAP_ROUNDS):
        if stall >= STALL_LIMIT:
            break
        stall += 1  # reset below by an improving swap
        i = rng.integers(0, n, SWAP_BATCH)
        j = rng.integers(0, n, SWAP_BATCH)
        keep = (i != j) & (current[i] != current[j])
        if not keep.any():
            continue
        i, j = i[keep], j[keep]
        candidates = np.repeat(current[None, :], i.size, axis=0)
        rows = np.arange(i.size)
        candidates[rows, i] = current[j]
        candidates[rows, j] = current[i]
        values = _orbit_values(candidates, arity, depth, p)
        evaluations += i.size
        k = int(np.argmax(values))
        if values[k] > current_value:
            current_value = float(values[k])
            current = candidates[k]
            improving += 1
            stall = 0
    if current_value > best_value:
        best_value = current_value
        best_from = "swaps"

    summary = {
        "f_achieved": f_achieved,
        "F_achieved": big_f_achieved,
        "bound_requested": requested.value,
        "bound_achieved": bound_achieved,
        "best_from": best_from,
        "improving_swaps": improving,
        "evaluations": evaluations,
    }
    return best_value, summary


def orbit_sample_max(g: LineStepFunction, tree: Tree, p: float, n_seeds: int, seed: int) -> float:
    """Largest p-th moment of the maximal function over ``n_seeds`` random
    rearrangements of the profile's pieces (plus the given order itself)."""
    n = tree.leaf_count
    if g.piece_count != n:
        raise DomainError(
            f"profile has {g.piece_count} pieces, tree has {n} leaves"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _orbit_best(g.values, tree, p, n_seeds, rng)[0]
