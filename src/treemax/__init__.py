"""Computational laboratory for the maximal operator on probability trees.

Exact evaluation of the tree maximal operator and its linearization on step
functions, the closed-form extremal curve of the two-moment problem,
decreasing rearrangements with one-dimensional averaging integrals, and
randomized verification sweeps for the whole family of sharp inequalities.
"""

from .bellman import (
    BellmanPoint,
    bellman_value,
    h_p,
    minimize_envelope,
    omega_p,
)
from .errors import (
    DivergentIntegralError,
    DomainError,
    InfeasibleMomentsError,
    InvariantViolation,
    ShapeError,
    SizeError,
)
from .inequalities import (
    Constants,
    DeficitReport,
    IneqParams,
    SweepPoint,
    beta_family_residual,
    constants,
    coupling_constant,
    deficit,
    extremizer_sweep,
    first_constant,
    hardy_deficit,
    root_function,
    second_constant,
    sharpness_G,
)
from .maximal import (
    Linearization,
    MaximalResult,
    averages,
    level_approximation,
    linearize,
    maximal_function,
)
from .rearrange import (
    LineStepFunction,
    PowerLawFunction,
    decreasing_rearrangement,
    discretize,
    hardy_moment,
    hardy_power,
    random_rearrangement,
)
from .sweeps import (
    evaluate_cell,
    oracle_sup,
    orbit_sample_max,
    run_battery,
)
from .tree import (
    StepFunction,
    Tree,
    load_step_function,
    moment,
    save_step_function,
)

__version__ = "0.1.0"
