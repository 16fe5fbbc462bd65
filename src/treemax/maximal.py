"""Tree maximal operator and its linearization.

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
from .tree import StepFunction


def _level_averages(values: np.ndarray, arity: int, depth: int) -> list[np.ndarray]:
    """Node averages of every level, root level first, one row per trial.

    ``levels[m][r]`` holds the level-m averages of row r in node order. A
    parent's average is the plain mean of its children (children have equal
    measure on a uniform tree), so the root column is the global mean.

    Below arity 8 the mean is written out as numpy sums it, from +0.0 and
    left to right, which is bit for bit ``.mean(axis=2)`` at a fraction of
    its per-call cost. From arity 8 on numpy sums pairwise in eight partial
    sums, an order no short loop reproduces, so those levels call it.
    """
    rows = values.shape[0]
    levels = [values]
    for _ in range(depth):
        children = levels[-1].reshape(rows, -1, arity)
        if arity >= 8:
            levels.append(children.mean(axis=2))
            continue
        total = children[:, :, 0] + children[:, :, 1]
        for k in range(2, arity):
            total += children[:, :, k]
        total += 0.0  # numpy's +0.0 start: all -0.0 children sum to 0.0
        total /= arity
        levels.append(total)
    levels.reverse()
    return levels


def _prefix_max(levels: list[np.ndarray], arity: int, out=None) -> np.ndarray:
    """Root-to-leaf running maximum of the level averages: the leaf values of
    the maximal function, one row per trial, written into ``out`` if given.

    Every level between the root and the leaves is overwritten with its own
    running maximum. A level is updated one child position at a time, as a
    strided ``np.maximum`` against the parent level, so no parent is copied
    out to its children and nothing is allocated but the leaf result.
    """
    rows = levels[-1].shape[0]
    if out is None:
        out = np.empty(levels[-1].shape)
    best = levels[0]
    for level, into in zip(levels[1:], levels[1:-1] + [out]):
        children, dest = level.reshape(rows, -1, arity), into.reshape(rows, -1, arity)
        for j in range(arity):
            np.maximum(children[:, :, j], best, out=dest[:, :, j])
        best = into
    if len(levels) == 1:
        np.copyto(out, best)
    return out


def batch_maximal_leaves(values: np.ndarray, arity: int, depth: int, out=None) -> np.ndarray:
    """Leaf values of the maximal function, one row per trial. ``out``, a
    C-contiguous float64 array shaped like ``values``, receives them instead
    of a new array."""
    return _prefix_max(_level_averages(values, arity, depth), arity, out)


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
    # the sweep overwrites every level but the leaves, which it only reads
    best = _prefix_max([level.copy() for level in levels[:-1]] + levels[-1:], tree.arity)[0]
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
    so the root comes first). The other arrays run parallel to it: ``mass``
    holds each member's mass a, ``average`` its average y, and
    ``star_parent`` the smallest member strictly containing it (-1 for the
    root). ``result`` is the maximal function the partition was read from.
    """

    s_phi: np.ndarray
    mass: np.ndarray
    average: np.ndarray
    star_parent: np.ndarray
    result: MaximalResult

    @property
    def a_mass(self) -> dict[int, float]:
        return dict(zip(self.s_phi.tolist(), self.mass.tolist()))

    @property
    def y_avg(self) -> dict[int, float]:
        return dict(zip(self.s_phi.tolist(), self.average.tolist()))

    @property
    def star(self) -> dict[int, int]:
        """Member -> its star, for every member but the root."""
        return dict(zip(self.s_phi[1:].tolist(), self.star_parent[1:].tolist()))

    def to_dict(self) -> dict:
        """JSON-friendly dump: parallel lists over ``s_phi`` plus the star map."""
        return {
            "s_phi": self.s_phi.tolist(),
            "a": self.mass.tolist(),
            "y": self.average.tolist(),
            "star": {str(i): j for i, j in self.star.items()},
        }


def linearize(phi: StepFunction) -> Linearization:
    """Compute the attaining-node partition, its masses, and the star map.

    Any step function is admissible here: ancestor chains are finite, so the
    supremum defining the maximal function is attained at every leaf.
    """
    tree = phi.tree
    arity, depth, offsets = tree.arity, tree.depth, tree.offsets
    levels, result = _maximal(phi)

    ids, counts = np.unique(result.attaining_node, return_counts=True)
    mass = counts * tree.leaf_measure
    if ids[0] != 0:
        # constant-on-top functions attain somewhere below the root only;
        # the root belongs to the family by definition, with zero mass.
        ids, mass = np.concatenate(([0], ids)), np.concatenate(([0.0], mass))

    # members of level m are ids[bounds[m]:bounds[m + 1]]
    bounds = np.searchsorted(ids, offsets)
    member_level = np.repeat(np.arange(depth + 1), np.diff(bounds))
    average = np.empty(ids.size)
    for m, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        average[lo:hi] = levels[m][0][ids[lo:hi] - offsets[m]]

    # the star of a member is its deepest member ancestor; the level-k
    # ancestor of a member is found from the first leaf below it
    first_leaf = (ids - offsets[member_level]) * arity ** (depth - member_level)
    star_parent = np.full(ids.size, -1, dtype=np.int64)
    for k in range(depth - 1, -1, -1):
        todo = np.flatnonzero((star_parent < 0) & (member_level > k))
        ancestor = offsets[k] + first_leaf[todo] // arity ** (depth - k)
        hit = np.isin(ancestor, ids[bounds[k] : bounds[k + 1]])
        star_parent[todo[hit]] = ancestor[hit]
    return Linearization(ids, mass, average, star_parent, result)


def reconstruct_maximal(lin: Linearization) -> np.ndarray:
    """Per-leaf maximal values rebuilt from the linearization weights."""
    return lin.average[np.searchsorted(lin.s_phi, lin.result.attaining_node)]


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

