"""Inventory policy learning lab: simulation, fitting, and generalization experiments."""

__version__ = "0.1.0"

from .core import (
    BaseStock,
    BudgetError,
    Dataset,
    NonStationary,
    Policy,
    SsPolicy,
    SystemParams,
    Trajectory,
    delta_breakpoints,
    read_demands_csv,
    reorder_schedule,
    simulate,
    write_demands_csv,
)
from .demand import (
    DemandModel,
    FiniteSupport,
    IndependentNormals,
    InstanceHyper,
    draw,
    marginal_pmfs,
    sample_instance,
)
from .estimators import ge_estimate, rademacher_estimate
from .evaluate import (
    base_stock_loss,
    dataset_risk,
    exact_risk,
    finite_support_risk,
)
from .experiments import ExperimentConfig, MetricsRecord, run_experiment
from .emit import emit_results
from .fitters import (
    FitResult,
    StOptions,
    erm_St,
    erm_base_stock,
    erm_eoq_base_stock,
    erm_sS,
    grid_oracle,
)
from .perm import (
    build_marginals,
    perm_fit,
    perm_risk,
    product_partition,
    solve_dp,
)
from .shatter import (
    ShatterInstance,
    discretization_gap,
    gen_sS_prime_shatter,
    gen_st_K_shatter,
    gen_st_shatter,
    verify_shattering,
)

__all__ = [
    "BaseStock",
    "BudgetError",
    "Dataset",
    "DemandModel",
    "ExperimentConfig",
    "FiniteSupport",
    "FitResult",
    "IndependentNormals",
    "InstanceHyper",
    "MetricsRecord",
    "NonStationary",
    "Policy",
    "ShatterInstance",
    "SsPolicy",
    "StOptions",
    "SystemParams",
    "Trajectory",
    "base_stock_loss",
    "build_marginals",
    "dataset_risk",
    "delta_breakpoints",
    "discretization_gap",
    "draw",
    "emit_results",
    "erm_St",
    "erm_base_stock",
    "erm_eoq_base_stock",
    "erm_sS",
    "exact_risk",
    "finite_support_risk",
    "ge_estimate",
    "gen_sS_prime_shatter",
    "gen_st_K_shatter",
    "gen_st_shatter",
    "grid_oracle",
    "marginal_pmfs",
    "perm_fit",
    "perm_risk",
    "product_partition",
    "rademacher_estimate",
    "read_demands_csv",
    "reorder_schedule",
    "run_experiment",
    "sample_instance",
    "simulate",
    "solve_dp",
    "verify_shattering",
    "write_demands_csv",
]
