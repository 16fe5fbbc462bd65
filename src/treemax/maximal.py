"""Tree maximal operator and its linearization.

Everything here is exact finite arithmetic on step functions: node averages
are built bottom-up level by level, and one root-to-leaf prefix-max sweep
gives the maximal function and, from where its running maxima rise, the
attaining nodes, S_phi with its masses and averages, and the star map. The
sweep is batched, one row per trial; one step function is the one-row case.
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


@dataclass(frozen=True, eq=False)
class Linearization:
    """The maximal function of a step function and the average-attaining
    partition of X it induces.

    ``s_phi`` always contains the root and is sorted by node id (level-major,
    so the root comes first). The next three arrays run parallel to it:
    ``mass`` holds each member's mass a, ``average`` its average y, and
    ``star_parent`` the smallest member strictly containing it (-1 for the
    root). ``m_phi`` is the maximal function the partition was read from, and
    ``attaining_node[i]`` the id of the shallowest ancestor of leaf i whose
    average realizes the maximum, so a tie resolves to the ancestor.
    """

    s_phi: np.ndarray
    mass: np.ndarray
    average: np.ndarray
    star_parent: np.ndarray
    m_phi: StepFunction
    attaining_node: np.ndarray

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


def maximal_function(phi: StepFunction) -> Linearization:
    """Evaluate the tree maximal operator by a single prefix-max sweep."""
    return linearize(phi)


def linearize(phi: StepFunction) -> Linearization:
    """The maximal function, its attaining nodes, and the attaining-node
    partition with its masses and star map, read off one prefix-max sweep.

    The sweep leaves each level holding its running maximum R. Where R rises
    strictly above the parent's R it is the node's own average (``np.maximum``
    returns one of its inputs). A node attains at the deepest rise on its root
    path, or at the root, so ties go to the ancestor, and a rise's star is its
    parent's attaining node. The members are the root and the rises some leaf
    attains at, with mass their leaf count times the leaf measure.
    """
    tree = phi.tree
    running = _levels_of(phi)
    best = np.empty(tree.leaf_count)  # the one leaf array m_phi keeps
    running[-1] = _prefix_max(running, tree.arity, best[None, :])
    best.setflags(write=False)
    # rises are numbered in level-major order, the root first; ``owner`` holds
    # the number of the rise each node of the current level attains at, and
    # each level adds the id, the average and the star of each of its rises
    rises = [(np.zeros(1, np.int64), running[0][0], np.full(1, -1))]
    owner, count = np.zeros(1, np.int64), 1
    for m in range(1, tree.depth + 1):
        rose = np.flatnonzero(running[m].reshape(-1, tree.arity) > running[m - 1].reshape(-1, 1))
        owner = np.repeat(owner, tree.arity)
        rises.append((tree.offsets[m] + rose, running[m][0][rose], owner[rose]))
        owner[rose] = np.arange(count, count + rose.size)
        count += rose.size
    ids, average, star = (np.concatenate(column) for column in zip(*rises))
    del rises
    counts = np.bincount(owner, minlength=count)
    attaining = ids[owner]
    del running, owner  # free what the result does not keep
    # A rounded mean can lie below all of its children (three equal ones, say):
    # such a node rises although no leaf attains there, so it is no member and
    # the stars below it pass on to its own star.
    empty = counts == 0
    empty[0] = False
    while (lift := np.flatnonzero(empty[star[1:]]) + 1).size:
        star[lift] = star[star[lift]]
    member = np.flatnonzero(~empty)
    star_parent = ids[star[member]]
    star_parent[0] = -1
    mass = counts[member] * tree.leaf_measure
    m_phi = StepFunction(tree, best)
    return Linearization(ids[member], mass, average[member], star_parent, m_phi, attaining)


def reconstruct_maximal(lin: Linearization) -> np.ndarray:
    """Per-leaf maximal values rebuilt from the linearization weights."""
    return lin.average[np.searchsorted(lin.s_phi, lin.attaining_node)]


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

