"""Solvers and evaluation tools for discrete-time finite-horizon finite mean
field games: exact and entropy-regularized fixed-point iteration, fictitious
play, prior descent, particle simulation, Q-network approximation, and
exploitability measurement."""

__version__ = "0.1.0"

from .core import (
    MeanField,
    Policy,
    meanfield_distance,
    mix,
    policy_distance,
    tv_distance,
)
from .dp import (
    FlowTables,
    QTable,
    boltzmann_policy,
    contractivity_threshold,
    flow_tables,
    greedy_policy,
    induced_mean_field,
    objective_value,
    optimal_q,
    policy_q,
    regularized_objective,
    soft_q,
)
from .envs import (
    EnvironmentSpec,
    load_custom_env,
    make_lr,
    make_rps,
    make_sis,
    make_taxi,
    make_toy_lr,
)
from .exploitability import (
    ExploitabilityReport,
    exploitability_exact,
    exploitability_stochastic,
)
from .sim import (
    EmpiricalMeanField,
    ParticleConfig,
    evaluate_policy_stochastic,
    simulate_mean_field,
)
from .solvers import (
    IterationLog,
    PriorDescentConfig,
    SolverConfig,
    boltzmann_iteration,
    detect_limit_cycle,
    exact_fpi,
    prior_descent,
)

# perfbench/worker.py builds its games by this older name; it is kept for
# that caller only, until the next benchmark change calls EnvironmentSpec.
make_affine_env = EnvironmentSpec

__all__ = [
    "__version__",
    "MeanField",
    "Policy",
    "tv_distance",
    "policy_distance",
    "meanfield_distance",
    "mix",
    "QTable",
    "FlowTables",
    "flow_tables",
    "optimal_q",
    "soft_q",
    "policy_q",
    "greedy_policy",
    "boltzmann_policy",
    "induced_mean_field",
    "objective_value",
    "regularized_objective",
    "contractivity_threshold",
    "EnvironmentSpec",
    "make_affine_env",
    "load_custom_env",
    "make_lr",
    "make_toy_lr",
    "make_rps",
    "make_sis",
    "make_taxi",
    "ExploitabilityReport",
    "exploitability_exact",
    "exploitability_stochastic",
    "ParticleConfig",
    "EmpiricalMeanField",
    "simulate_mean_field",
    "evaluate_policy_stochastic",
    "SolverConfig",
    "PriorDescentConfig",
    "IterationLog",
    "exact_fpi",
    "boltzmann_iteration",
    "prior_descent",
    "detect_limit_cycle",
]
