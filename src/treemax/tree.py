"""Finite uniform measure trees and step functions on their leaves.

The tree is the hierarchy of a non-atomic probability space: the root X has
measure 1, every node splits into ``arity`` children of equal measure, and
level m therefore consists of ``arity**m`` nodes of measure ``arity**(-m)``.
Nodes are addressed by a single integer id in level-major order (root is 0),
so parent/child lookups are index arithmetic and whole-level sweeps are
contiguous array slices.

A :class:`StepFunction` is a nonnegative function constant on the leaves of
the deepest level; every integral of it is an exact finite sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError, SizeError

# Hard cap on the leaf count of a single tree; desk-scale guard, not a
# physical limit.
NODE_BUDGET = 2**24


def _level_offsets(arity: int, depth: int) -> np.ndarray:
    """Id of the first node of each level, plus one-past-the-end sentinel."""
    counts = arity ** np.arange(depth + 1, dtype=np.int64)
    return np.concatenate(([0], np.cumsum(counts)))


class Tree:
    """Uniform ``arity``-ary tree of the given depth over a probability space.

    Parameters
    ----------
    arity : int
        Number of children of every non-leaf node, at least 2.
    depth : int
        Number of splitting generations; ``depth == 0`` is the single root.

    Notes
    -----
    Instances are immutable after construction and safe to share across
    threads. All node measures are exact powers ``arity**(-level)``.
    """

    __slots__ = ("arity", "depth", "offsets", "node_count", "leaf_count")

    def __init__(self, arity: int, depth: int):
        if arity < 2:
            raise DomainError(f"arity must be >= 2, got {arity}")
        if depth < 0:
            raise DomainError(f"depth must be >= 0, got {depth}")
        if arity**depth > NODE_BUDGET:
            raise SizeError(
                f"arity**depth = {arity}**{depth} exceeds the node budget {NODE_BUDGET}"
            )
        self.arity = arity
        self.depth = depth
        self.offsets = _level_offsets(arity, depth)
        self.node_count = int(self.offsets[-1])
        self.leaf_count = arity**depth

    # -- node addressing -------------------------------------------------

    def level_of(self, node_id: int) -> int:
        return int(np.searchsorted(self.offsets, node_id, side="right")) - 1

    def measure_at_level(self, level: int) -> float:
        return float(self.arity) ** (-level)

    def parent_of(self, node_id: int) -> Optional[int]:
        if node_id == 0:
            return None
        level = self.level_of(node_id)
        index = node_id - int(self.offsets[level])
        return int(self.offsets[level - 1]) + index // self.arity

    @property
    def leaf_measure(self) -> float:
        return self.measure_at_level(self.depth)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tree)
            and other.arity == self.arity
            and other.depth == self.depth
        )

    def __hash__(self) -> int:
        return hash((self.arity, self.depth))

    def __repr__(self) -> str:
        return f"Tree(arity={self.arity}, depth={self.depth})"


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative function constant on the leaves of a tree's deepest level.

    ``leaf_values[i]`` is the value on the i-th leaf in canonical depth-first
    left-to-right order. The array is copied and frozen at construction.
    """

    tree: Tree
    leaf_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.leaf_values, dtype=np.float64)
        if values.shape != (self.tree.leaf_count,):
            raise ShapeError(
                f"expected {self.tree.leaf_count} leaf values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("leaf values must be finite")
        if np.any(values < 0):
            raise DomainError("leaf values must be nonnegative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "leaf_values", values)

    def integral(self) -> float:
        """Exact integral over X, i.e. the measure-weighted sum of leaves."""
        return float(self.leaf_values.sum()) * self.tree.leaf_measure

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepFunction)
            and other.tree == self.tree
            and np.array_equal(other.leaf_values, self.leaf_values)
        )


def moment(phi: StepFunction, r: float) -> float:
    """Integral of ``phi**r`` over X as an exact finite sum.

    ``r == 1`` is the mean value f; ``r == p`` is the p-th moment F used by
    the two-variable extremal problem.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"moment order must be positive and finite, got {r}")
    v = phi.leaf_values
    with np.errstate(over="ignore"):  # an overflow is reported below
        powered = v if r == 1.0 else v**r
        result = float(powered.sum()) * phi.tree.leaf_measure
    if not math.isfinite(result):
        raise DomainError(f"the moment of order {r} overflows")
    return result


# -- file format --------------------------------------------------------
#
# Step-function CSV: a header line "arity,depth" holding the two integers,
# then one leaf value per line in canonical order.


def save_step_function(phi: StepFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{phi.tree.arity},{phi.tree.depth}\n")
        for v in phi.leaf_values:
            fh.write(f"{v:.17g}\n")


def load_step_function(path) -> StepFunction:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ShapeError(f"{path}: empty step-function file")
    header = lines[0]
    if header.replace(" ", "") == "arity,depth":
        # tolerate a literal column-name line before the numbers
        lines = lines[1:]
        if not lines:
            raise ShapeError(f"{path}: missing arity,depth line")
        header = lines[0]
    try:
        arity_s, depth_s = header.split(",")
        tree = Tree(int(arity_s), int(depth_s))
    except ValueError as exc:
        raise ShapeError(f"{path}: bad header line {header!r}") from exc
    try:
        values = np.array([float(s) for s in lines[1:]], dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"{path}: leaf values must parse as decimals") from exc
    return StepFunction(tree, values)
