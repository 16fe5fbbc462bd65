import numpy as np
import pytest

from treemax import LineStepFunction, StepFunction, Tree


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def random_step_function(rng, arity=2, depth=4) -> StepFunction:
    """Mixed-texture random step function: smooth bulk plus heavy spikes."""
    tree = Tree(arity, depth)
    n = tree.leaf_count
    values = rng.exponential(1.0, n)
    spikes = rng.random(n) < 0.1
    values[spikes] *= 25.0
    return StepFunction(tree, values)


def steep_profile() -> LineStepFunction:
    """``t**-0.5`` taken at the right ends of 51 pieces that span six decades
    each, from 1e-300 to 1. Every piece holds about the same share of the
    integral of g**2, and its running average falls a thousandfold across it,
    so at p = 2 most pieces refine many levels deep at the default tolerance."""
    t = np.concatenate(([0.0], 10.0 ** -np.arange(300, 0, -6, dtype=float), [1.0]))
    return LineStepFunction(t, t[1:] ** -0.5)
