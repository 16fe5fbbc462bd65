"""Randomized verification sweeps and the rearrangement-orbit search.

These are the batch engines behind the `verify`, `oracle`, and `symmetrize`
commands: thousands of seeded random step functions per parameter cell, all
evaluated as matrices (one row per trial) so a whole batch shares each tree
sweep. Results are merged in deterministic trial order regardless of how the
work is scheduled.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bellman import bellman_value
from .errors import DomainError
from .inequalities import (
    DEFICIT_SLACK,
    IneqParams,
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

# Largest matrix (rows * leaves) drawn at once. The draw sizes fix the
# generator stream, so this constant fixes the output bytes.
MAX_BATCH_ELEMENTS = 1 << 20
# Largest matrix swept at once: a drawn batch is evaluated in row blocks of
# at most this many leaf values, which keeps every temporary of the tree
# sweep and the moment reduction cache-sized. Every per-row result is
# independent of how rows are grouped, so this changes no output byte.
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


def thread_count() -> int:
    """Worker cap: MAXTREE_THREADS if set, else the machine parallelism."""
    env = os.environ.get("MAXTREE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# batched tree evaluation
# ---------------------------------------------------------------------------


def mixture_values(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """I.i.d. leaf values from a mixture of uniform, exponential, and a
    skewed two-point law; the heavy components stress the near-extremal
    regime where deficits get small."""
    # int8 before the next draw: the draw is the battery's memory peak
    component = rng.integers(0, 3, size=(rows, cols)).astype(np.int8).reshape(-1)
    values = rng.random((rows, cols))
    flat = values.reshape(-1)
    at = np.flatnonzero(component == 1)
    flat[at] = rng.exponential(1.0, at.size)
    at = np.flatnonzero(component == 2)
    flat[at] = np.where(rng.random(at.size) < 0.1, 12.0, 0.05)
    return values


def _row_blocks(rows: int, leaves: int) -> list[slice]:
    """Consecutive row slices of at most ``BLOCK_ELEMENTS`` leaf values each
    (at least one row), so every temporary of a block's sweep stays small."""
    step = max(1, BLOCK_ELEMENTS // leaves)
    return [slice(start, start + step) for start in range(0, rows, step)]


@dataclass
class CellOutcome:
    """Trial-ordered raw numbers of one parameter cell.

    The (1.7), (1.8) and (1.9) left-hand sides are all ``J0``, so their
    ``lhs`` entries are one shared array: writing into one writes into all.
    """

    p: float
    q: float
    beta: float
    seed: int
    f: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    lhs: dict = field(repr=False, default_factory=dict)
    rhs: dict = field(repr=False, default_factory=dict)
    deficit: dict = field(repr=False, default_factory=dict)


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
    every number here. Leaf values are drawn in batches of at most
    ``MAX_BATCH_ELEMENTS`` and evaluated in row blocks of at most
    ``BLOCK_ELEMENTS``. Out-of-domain parameters, tree shapes, trial counts
    or inequality keys raise before anything is drawn.
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
        deficit={k: np.empty(trials) for k in inequalities},
    )
    moment_keys = [k for k in inequalities if k != "1.2"]
    for s, tree in enumerate(trees):
        rows = np.nonzero(shape_idx == s)[0]
        if rows.size == 0:
            continue
        leaves = tree.leaf_count
        step = max(1, MAX_BATCH_ELEMENTS // leaves)
        for start in range(0, rows.size, step):
            batch = rows[start : start + step]
            values = mixture_values(rng, batch.size, leaves)
            for block in _row_blocks(batch.size, leaves):
                idx, v = batch[block], values[block]
                m = batch_maximal_leaves(v, tree.arity, tree.depth)
                f, big_f, j0[idx], j1, jq = tree_moments(v, m, p, q)
                out.f[idx], out.F[idx] = f, big_f
                if "1.2" in out.lhs:
                    lam = lam_frac[idx] * m.max(axis=1)
                    out.lhs["1.2"][idx], out.rhs["1.2"][idx] = weak_type_sides(v, m, lam)
                fp = f**p
                for key in moment_keys:
                    out.rhs[key][idx] = right_hand_side(key, p, q, beta, fp, j1, jq)
            del values, v  # v is a view of values; hold no batch across the next draw

    for key in inequalities:
        out.deficit[key] = out.rhs[key] - out.lhs[key]
    return out


# ---------------------------------------------------------------------------
# full battery with CSV emission
# ---------------------------------------------------------------------------

CSV_HEADER = "ineq,p,q,beta,seed,f,F,lhs,rhs,deficit"


def cell_seed(base_seed: int, cell_index: int) -> int:
    """Stable per-cell sub-seed derived from the run seed."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(cell_index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _format_cell_rows(outcome: CellOutcome, inequalities) -> list[str]:
    """The CSV rows of one cell, one string per trial holding its row of
    every inequality. Each distinct column array is formatted once (the
    (1.7)/(1.8)/(1.9) ``lhs`` share one), then one row template is filled."""
    columns = []
    for k in inequalities:
        columns += [outcome.f, outcome.F, outcome.lhs[k], outcome.rhs[k], outcome.deficit[k]]
    text = {}
    for a in columns:
        if id(a) not in text:
            text[id(a)] = ["%.17g" % x for x in a.tolist()]
    template = "".join(
        f"{k},{outcome.p:.17g},{outcome.q:.17g},{outcome.beta:.17g},{outcome.seed},%s,%s,%s,%s,%s\n"
        for k in inequalities
    )
    return [template % fields for fields in zip(*(text[id(a)] for a in columns))]


def write_csv(sink, header_lines, outcomes, inequalities) -> None:
    """Comment lines, the column names, then the rows of every outcome."""
    for line in header_lines:
        sink.write(f"# {line}\n")
    sink.write(CSV_HEADER + "\n")
    for outcome in outcomes:
        sink.writelines(_format_cell_rows(outcome, inequalities))


def summarize_outcomes(outcomes, inequalities) -> dict:
    """Global minimum deficit, where it happened, and the violation count
    (deficits below ``-DEFICIT_SLACK * max(1, |rhs|)``)."""
    min_deficit = np.inf
    argmin = None
    violations = 0
    per_inequality = {k: np.inf for k in inequalities}
    for outcome in outcomes:
        for k in inequalities:
            deficit = outcome.deficit[k]
            scale = np.maximum(1.0, np.abs(outcome.rhs[k]))
            violations += int((deficit < -DEFICIT_SLACK * scale).sum())
            i = int(np.argmin(deficit))
            if deficit[i] < per_inequality[k]:
                per_inequality[k] = float(deficit[i])
            if deficit[i] < min_deficit:
                min_deficit = float(deficit[i])
                argmin = {
                    "ineq": k,
                    "p": outcome.p,
                    "q": outcome.q,
                    "beta": outcome.beta,
                    "seed": outcome.seed,
                    "trial": i,
                }
    return {
        "min_deficit": min_deficit,
        "argmin": argmin,
        "violations": violations,
        "per_inequality": per_inequality,
    }


def run_battery(
    base_seed: int,
    trials_per_cell: int,
    cells=None,
    shapes=BATTERY_SHAPES,
    inequalities=BATTERY_INEQUALITIES,
    csv_sink=None,
    header_lines=(),
) -> dict:
    """Evaluate every cell of the grid and return the summary.

    ``csv_sink`` is any object with ``write``; rows are emitted in cell-major,
    trial-major, inequality-major order with 17-significant-digit floats, so
    two runs with the same seed produce byte-identical output. Cells may be
    evaluated concurrently; emission order never depends on scheduling.
    """
    if cells is None:
        cells = battery_cells()
    seeds = [cell_seed(base_seed, i) for i in range(len(cells))]

    def work(i: int) -> CellOutcome:
        p, q, beta = cells[i]
        return evaluate_cell(
            p, q, beta, trials_per_cell, seeds[i], shapes, inequalities
        )

    workers = thread_count()
    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(work, range(len(cells))))
    else:
        outcomes = [work(i) for i in range(len(cells))]

    if csv_sink is not None:
        write_csv(csv_sink, header_lines, outcomes, inequalities)
    return summarize_outcomes(outcomes, inequalities)


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
    chunk = max(1, MAX_BATCH_ELEMENTS // n)
    remaining = int(count)
    while remaining > 0:
        rows = min(chunk, remaining)
        remaining -= rows
        keys = rng.random((rows, n))
        for block in _row_blocks(rows, n):
            candidates = values[np.argsort(keys[block], axis=1)]
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
        i = rng.integers(0, n, SWAP_BATCH)
        j = rng.integers(0, n, SWAP_BATCH)
        keep = (i != j) & (current[i] != current[j])
        if not keep.any():
            stall += 1
            if stall >= STALL_LIMIT:
                break
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
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                break
    if current_value > best_value:
        best_value = current_value
        best = current
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
