"""Toolkit for stochastic differential-algebraic equations.

Classification (index-1 / high-index / uncontrollable-noise / ill-posed),
exact index-1 reduction, index reduction for high-index problems, a
contraction-based existence check with a Picard solver, and two approximate
methods (unit-probability constraint band; gain-stabilised bounded
m-solution), on top of a seeded Euler-Maruyama engine with reproducible
Monte Carlo statistics.
"""

__version__ = "0.2.0"

from .bounded import (
    BoundedMConfig,
    SolveMode,
    build_bounded_constraint,
    choose_b,
    gain_threshold,
    run_bounded_ensemble,
    solve_bounded,
    sup_trace,
    verify_bound,
)
from .errors import SdaeError
from .expr import Expression, differentiate, evaluate, parse, to_text
from .index1 import build_index1_sde, solve_index1
from .index_reduction import compute_index, reduce_once
from .integrator import (
    AugmentedSde,
    Ensemble,
    SamplePath,
    constraint_process,
    derive_seed,
    euler_maruyama,
    wiener_increments,
)
from .picard import check_contraction, picard_solve
from .problem import (
    Classification,
    ProblemKind,
    SdaeProblem,
    Verdict,
    builtin,
    builtin_names,
    classify,
    load_problem,
    load_problem_file,
    print_problem,
)
from .stats import ViolationReport, run_ensemble, violation_stats
from .unit_prob import (
    CharacteristicSpec,
    build_unit_prob_sde,
    consistent_init,
    paper_example_spec,
    solve_unit_prob,
)
from .wellposedness import is_ill_posed, suspend, tangency_residual

__all__ = [
    "__version__",
    "AugmentedSde",
    "BoundedMConfig",
    "CharacteristicSpec",
    "Classification",
    "Ensemble",
    "Expression",
    "ProblemKind",
    "SamplePath",
    "SdaeError",
    "SdaeProblem",
    "SolveMode",
    "Verdict",
    "ViolationReport",
    "build_bounded_constraint",
    "build_index1_sde",
    "build_unit_prob_sde",
    "builtin",
    "builtin_names",
    "check_contraction",
    "choose_b",
    "classify",
    "compute_index",
    "consistent_init",
    "constraint_process",
    "derive_seed",
    "differentiate",
    "euler_maruyama",
    "evaluate",
    "gain_threshold",
    "is_ill_posed",
    "load_problem",
    "load_problem_file",
    "parse",
    "paper_example_spec",
    "picard_solve",
    "print_problem",
    "reduce_once",
    "run_bounded_ensemble",
    "run_ensemble",
    "solve_bounded",
    "solve_index1",
    "solve_unit_prob",
    "sup_trace",
    "suspend",
    "tangency_residual",
    "to_text",
    "verify_bound",
    "violation_stats",
    "wiener_increments",
]
