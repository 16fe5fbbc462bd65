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

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError, SizeError, finite

# Hard cap on the leaf count of a single tree; desk-scale guard, not a
# physical limit.
NODE_BUDGET = 2**24


def _level_offsets(arity: int, depth: int) -> np.ndarray:
    """Id of the first node of each level, plus one-past-the-end sentinel."""
    counts = arity ** np.arange(depth + 1, dtype=np.int64)
    return np.concatenate(([0], np.cumsum(counts)))


@dataclass(frozen=True)
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
    Instances are immutable after construction, so one instance can serve
    every function on the same shape. All node measures are exact powers
    ``arity**(-level)``.
    """

    arity: int
    depth: int
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    node_count: int = field(init=False, repr=False, compare=False)
    leaf_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arity < 2:
            raise DomainError(f"arity must be >= 2, got {self.arity}")
        if self.depth < 0:
            raise DomainError(f"depth must be >= 0, got {self.depth}")
        leaves = self.arity**self.depth
        if leaves > NODE_BUDGET:
            raise SizeError(
                f"arity**depth = {self.arity}**{self.depth} exceeds the node budget {NODE_BUDGET}"
            )
        offsets = _level_offsets(self.arity, self.depth)
        offsets.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "node_count", int(offsets[-1]))
        object.__setattr__(self, "leaf_count", leaves)

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


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative function constant on the leaves of a tree's deepest level.

    ``leaf_values[i]`` is the value on the i-th leaf in canonical depth-first
    left-to-right order. A read-only array that owns its memory is kept;
    anything else, a writable array or a view, is copied and frozen.
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
        if values.flags.writeable or not values.flags.owndata:
            values = values.copy()
            values.setflags(write=False)
        object.__setattr__(self, "leaf_values", values)

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
    with np.errstate(over="ignore"):  # an infinite sum raises in finite
        total = float((phi.leaf_values if r == 1.0 else phi.leaf_values**r).sum())
    return finite(f"the moment of order {r} overflows", lambda: total * phi.tree.leaf_measure)


# -- file format --------------------------------------------------------
#
# Step-function CSV: a header line "arity,depth" holding the two integers,
# then one leaf value per line in canonical order.


_WRITE_CHUNK = 4096  # leaf values formatted by one ``%`` in save_step_function


def save_step_function(phi: StepFunction, path) -> None:
    values = phi.leaf_values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{phi.tree.arity},{phi.tree.depth}\n")
        for start in range(0, values.size, _WRITE_CHUNK):
            chunk = values[start : start + _WRITE_CHUNK].tolist()
            fh.write("%.17g\n" * len(chunk) % tuple(chunk))


def load_step_function(path) -> StepFunction:
    """Read a step-function file line by line, straight into one array.

    Blank lines and surrounding whitespace are ignored, and a literal
    ``arity,depth`` column line may precede the header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = filter(None, map(str.strip, fh))
        header = next(lines, None)
        if header is None:
            raise ShapeError(f"{path}: empty step-function file")
        if header.replace(" ", "") == "arity,depth":
            header = next(lines, None)
            if header is None:
                raise ShapeError(f"{path}: missing arity,depth line")
        try:
            arity, depth = (int(s) for s in header.split(","))
        except ValueError as exc:
            raise ShapeError(f"{path}: bad header line {header!r}") from exc
        tree = Tree(arity, depth)
        try:
            values = np.fromiter(map(float, itertools.islice(lines, tree.leaf_count)), np.float64)
            extra = sum(1 for _ in map(float, lines))  # every line must parse
        except UnicodeDecodeError:
            raise  # the file is not UTF-8: its own message
        except ValueError as exc:
            raise ShapeError(f"{path}: leaf values must parse as decimals") from exc
    if extra:
        # StepFunction's own message, without holding the surplus values
        raise ShapeError(
            f"expected {tree.leaf_count} leaf values, got shape {(values.size + extra,)}"
        )
    values.setflags(write=False)  # kept by StepFunction, not copied
    return StepFunction(tree, values)
