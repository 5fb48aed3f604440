"""Randomized and query-model solvers for initial-value problems.

The solver advances a degree ``r + 1`` Taylor piece per step and corrects
each step with an estimate of the integral of the scaled Taylor residual.
Swapping the integral estimator switches the computational model: exact
quadrature, deterministic function values, Monte Carlo with a control
variate, or a simulated bounded-error quantum counting oracle.  Error is
measured in the sup norm over the whole interval and costs are tracked per
model so empirical convergence orders and cost exponents can be compared
against the predicted power laws.
"""

from .errors import (
    ContractViolationError,
    DivergenceError,
    DomainError,
    StationaryStartError,
    UnknownProblemError,
)
from .problem import (
    MAX_ORDER,
    CostLedger,
    HolderSmoothness,
    IVPProblem,
    catalog,
    catalog_names,
    eval_partial,
    eval_rhs,
)
from .taylor import (
    ResidualIntegrand,
    TaylorMap,
    VecPolynomial,
    build_l,
    build_w,
    integrate_w_of_l,
    local_derivatives,
    residual,
)
from .quad import (
    KINDS,
    QUANTUM_REFERENCE_NODES,
    IntegralEstimate,
    OracleConfig,
    boost_median,
    derive_seed,
    integrate_deterministic,
    integrate_quantum_sim,
    integrate_randomized,
    integrate_reference,
    quantum_reference,
    repetitions_for,
)
from .solver import (
    BOOSTED_MODES,
    MODES,
    SolveConfig,
    Trajectory,
    eval_trajectory,
    solve,
    sup_error,
)
from .cli import (
    ExperimentConfig,
    SweepRow,
    estimate_cost_exponent,
    estimate_order,
    rows_to_csv,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BOOSTED_MODES",
    "ContractViolationError",
    "CostLedger",
    "DivergenceError",
    "DomainError",
    "ExperimentConfig",
    "HolderSmoothness",
    "IVPProblem",
    "IntegralEstimate",
    "KINDS",
    "MAX_ORDER",
    "MODES",
    "OracleConfig",
    "QUANTUM_REFERENCE_NODES",
    "ResidualIntegrand",
    "SolveConfig",
    "StationaryStartError",
    "SweepRow",
    "TaylorMap",
    "Trajectory",
    "UnknownProblemError",
    "VecPolynomial",
    "boost_median",
    "build_l",
    "build_w",
    "catalog",
    "catalog_names",
    "derive_seed",
    "estimate_cost_exponent",
    "estimate_order",
    "eval_partial",
    "eval_rhs",
    "eval_trajectory",
    "integrate_deterministic",
    "integrate_quantum_sim",
    "integrate_randomized",
    "integrate_reference",
    "integrate_w_of_l",
    "local_derivatives",
    "quantum_reference",
    "repetitions_for",
    "residual",
    "rows_to_csv",
    "run_sweep",
    "solve",
    "sup_error",
    "__version__",
]
