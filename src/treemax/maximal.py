"""Tree maximal operator, its linearization, and the weak-type deficit.

Everything here is exact finite arithmetic on step functions: node averages
are built bottom-up level by level, the maximal function is one root-to-leaf
prefix-max sweep, and the linearization recovers the partition of X by the
largest average-attaining ancestor of each leaf. The sweep is batched, one
row per trial, and a single step function is the one-row case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tree import StepFunction, moment


def _level_averages(values: np.ndarray, arity: int, depth: int) -> list[np.ndarray]:
    """Node averages of every level, root level first, one row per trial.

    ``levels[m][r]`` holds the level-m averages of row r in node order. A
    parent's average is the plain mean of its children (children have equal
    measure on a uniform tree), so the root column is the global mean.
    """
    rows = values.shape[0]
    levels = [values]
    for _ in range(depth):
        levels.append(levels[-1].reshape(rows, -1, arity).mean(axis=2))
    levels.reverse()
    return levels


def _prefix_max(levels: list[np.ndarray], arity: int) -> np.ndarray:
    """Root-to-leaf running maximum of the level averages: the leaf values of
    the maximal function, one row per trial."""
    best = levels[0]
    for level in levels[1:]:
        best = np.maximum(level, np.repeat(best, arity, axis=1))
    return best


def batch_maximal_leaves(values: np.ndarray, arity: int, depth: int) -> np.ndarray:
    """Leaf values of the maximal function, one row per trial."""
    return _prefix_max(_level_averages(values, arity, depth), arity)


def _levels_of(phi: StepFunction) -> list[np.ndarray]:
    tree = phi.tree
    return _level_averages(phi.leaf_values[None, :], tree.arity, tree.depth)


def averages(phi: StepFunction) -> np.ndarray:
    """Average of ``phi`` over every node, as a flat array indexed by node id."""
    return np.concatenate(_levels_of(phi), axis=1)[0]


@dataclass(frozen=True)
class MaximalResult:
    """Maximal function of a step function plus per-leaf attaining nodes.

    ``attaining_node[i]`` is the id of the largest (closest to the root)
    ancestor of leaf i whose average realizes the maximum; ties between an
    ancestor and any descendant resolve to the ancestor.
    """

    phi: StepFunction
    m_phi: StepFunction
    attaining_node: np.ndarray


def _maximal(phi: StepFunction) -> tuple[list[np.ndarray], MaximalResult]:
    """The one-row sweep, returning the level averages alongside the result.

    The attaining node of a leaf is its shallowest ancestor whose average
    equals the maximal value there. Comparing with ``==`` is exact because
    ``np.maximum`` returns one of its inputs bit for bit.
    """
    tree = phi.tree
    levels = _levels_of(phi)
    best = _prefix_max(levels, tree.arity)[0]
    attain = tree.offsets[tree.depth] + np.arange(tree.leaf_count, dtype=np.int64)
    for m in range(tree.depth - 1, -1, -1):  # shallower hits overwrite deeper
        nodes = levels[m].shape[1]
        hit = best.reshape(nodes, -1) == levels[m][0][:, None]
        ids = tree.offsets[m] + np.arange(nodes, dtype=np.int64)
        np.copyto(attain.reshape(nodes, -1), ids[:, None], where=hit)
    return levels, MaximalResult(phi, StepFunction(tree, best), attain)


def maximal_function(phi: StepFunction) -> MaximalResult:
    """Evaluate the tree maximal operator by a single prefix-max sweep."""
    return _maximal(phi)[1]


@dataclass(frozen=True)
class Linearization:
    """The average-attaining partition of X induced by a step function.

    ``s_phi`` always contains the root and is sorted by node id (level-major,
    so the root comes first). ``star`` maps every member except the root to
    the smallest member strictly containing it.
    """

    s_phi: np.ndarray
    a_mass: dict[int, float]
    y_avg: dict[int, float]
    star: dict[int, int]

    def to_dict(self) -> dict:
        """JSON-friendly dump: parallel lists over ``s_phi`` plus the star map."""
        ids = [int(i) for i in self.s_phi]
        return {
            "s_phi": ids,
            "a": [self.a_mass[i] for i in ids],
            "y": [self.y_avg[i] for i in ids],
            "star": {str(i): int(self.star[i]) for i in ids if i in self.star},
        }


def linearize(phi: StepFunction) -> Linearization:
    """Compute the attaining-node partition, its masses, and the star map.

    Any step function is admissible here: ancestor chains are finite, so the
    supremum defining the maximal function is attained at every leaf.
    """
    tree = phi.tree
    levels, result = _maximal(phi)
    node_avg = np.concatenate(levels, axis=1)[0]

    members, counts = np.unique(result.attaining_node, return_counts=True)
    mass = dict(zip(members.tolist(), (counts * tree.leaf_measure).tolist()))
    if 0 not in mass:
        # constant-on-top functions attain somewhere below the root only;
        # the root belongs to the family by definition, with zero mass.
        mass[0] = 0.0
    ids = np.array(sorted(mass), dtype=np.int64)

    member_set = set(mass)
    star: dict[int, int] = {}
    for node_id in ids.tolist():
        if node_id == 0:
            continue
        parent = tree.parent_of(node_id)
        while parent not in member_set:
            parent = tree.parent_of(parent)
        star[node_id] = parent

    y = {i: float(node_avg[i]) for i in ids.tolist()}
    return Linearization(s_phi=ids, a_mass=mass, y_avg=y, star=star)


def reconstruct_maximal(lin: Linearization, result: MaximalResult) -> np.ndarray:
    """Per-leaf maximal values rebuilt from the linearization weights."""
    lookup = {i: lin.y_avg[i] for i in lin.s_phi.tolist()}
    return np.array([lookup[int(i)] for i in result.attaining_node])


def weak_type_deficit(phi: StepFunction, lam: float) -> float:
    """Slack of the weak-type bound at level ``lam``.

    Returns ``(1/lam) * integral of phi over {M phi > lam}`` minus the
    measure of that set; nonnegative up to floating roundoff.
    """
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    m_phi = maximal_function(phi).m_phi.leaf_values
    mask = m_phi > lam
    leaf_measure = phi.tree.leaf_measure
    restricted = float(phi.leaf_values[mask].sum()) * leaf_measure
    return restricted / lam - float(mask.sum()) * leaf_measure


def level_approximation(phi: StepFunction, level: int) -> StepFunction:
    """Coarsen ``phi`` to the given level by node averages.

    The result is still represented on the leaf level (constant on each
    level-``level`` node), so it composes with every other operation here.
    Its integral equals ``phi``'s and its p-th moments can only shrink.
    """
    tree = phi.tree
    if not 0 <= level <= tree.depth:
        raise DomainError(f"level must be in [0, {tree.depth}], got {level}")
    avg = _levels_of(phi)[level][0]
    block = tree.arity ** (tree.depth - level)
    return StepFunction(tree, np.repeat(avg, block))


def lp_bound_deficit(phi: StepFunction, p: float) -> float:
    """Slack of the crude p-th power bound ``(p/(p-1))**p * F`` over the
    maximal function's p-th moment; nonnegative for every p > 1."""
    if p <= 1:
        raise DomainError(f"p must be > 1, got {p}")
    m_phi = maximal_function(phi).m_phi
    return (p / (p - 1)) ** p * moment(phi, p) - moment(m_phi, p)
