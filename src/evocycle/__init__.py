"""Deterministic evolutionary games on graphs.

Mean-payoff imitation dynamics with exact rational arithmetic, builders for
graph families that realize any prescribed minimal period, integer-parameter
solvers with exact inequality certificates, and verifiers that replay a
built instance against the pattern it was designed for.
"""

from .analysis import (
    InvariantViolation,
    check_local_lemmas,
    f_of_t,
    replay,
    verify_fcsh_dynamics,
    verify_hdpd_dynamics,
    verify_tree_invariants,
)
from .constructions import (
    ConstructedInstance,
    Role,
    build_fcsh,
    build_hdpd,
    build_tree,
)
from .dynamics import (
    NonGenericParamsWarning,
    Quotient,
    TrajectoryBudgetError,
    TrajectoryReport,
    argmax_strategies,
    step,
    trajectory,
)
from .game import (
    GameParams,
    Graph,
    Scenario,
    StrategyVector,
    as_rational,
    classify_scenario,
    mean_utility,
    normalize_params,
)
from .solver import (
    CertificateFailure,
    FcshCertificate,
    HdpdCertificate,
    ScenarioError,
    SearchBudgetError,
    SolverError,
    TreeCertificate,
    check_fcsh,
    check_hdpd,
    check_tree,
    hdpd_q_bounds,
    hdpd_slopes,
    solve_fcsh,
    solve_hdpd,
    solve_tree,
)

__version__ = "0.1.0"

__all__ = [
    "GameParams",
    "Scenario",
    "Graph",
    "StrategyVector",
    "as_rational",
    "classify_scenario",
    "normalize_params",
    "mean_utility",
    "argmax_strategies",
    "step",
    "trajectory",
    "Quotient",
    "TrajectoryReport",
    "TrajectoryBudgetError",
    "NonGenericParamsWarning",
    "Role",
    "ConstructedInstance",
    "build_fcsh",
    "build_hdpd",
    "build_tree",
    "SolverError",
    "ScenarioError",
    "CertificateFailure",
    "SearchBudgetError",
    "FcshCertificate",
    "HdpdCertificate",
    "TreeCertificate",
    "check_fcsh",
    "solve_fcsh",
    "check_hdpd",
    "solve_hdpd",
    "hdpd_q_bounds",
    "hdpd_slopes",
    "check_tree",
    "solve_tree",
    "f_of_t",
    "replay",
    "verify_fcsh_dynamics",
    "verify_hdpd_dynamics",
    "verify_tree_invariants",
    "check_local_lemmas",
    "InvariantViolation",
    "__version__",
]
