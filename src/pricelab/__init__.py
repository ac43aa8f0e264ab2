"""Dynamic-pricing laboratory.

A deterministic elasticity-based retail demand model, a tabular
Q-learning pricing agent, classical optimization baselines, and an
experiment harness that compares them product by product.
"""

from .baselines import (
    Method,
    Optimum,
    analytic_optimum,
    grid_search_optimum,
    line_search_optimum,
    optima,
    profit_at,
)
from .catalog import (
    RejectReason,
    RowOutcome,
    ValidationReport,
    parse_catalog,
    sample_catalog,
    serialize_catalog,
)
from .domain import (
    DayModulation,
    DayType,
    PriceGrid,
    ProductSpec,
    default_price_grid,
    demand,
    price_grids,
    reward,
    revenue_curve,
    zero_demand_price,
)
from .experiment import (
    Comparison,
    ComparisonRow,
    CostPolicy,
    ExperimentConfig,
    compare_columns,
    export_revenue_curves,
    render_report,
    run_experiment,
)
from .qlearn import (
    GreedyOutcome,
    Hyperparams,
    QTable,
    TrainingTrace,
    epsilon_at,
    epsilon_schedule,
    evaluate_greedy,
    select_action,
    train,
    update_q,
)
from .rng import XorShift64, split_seed, splitmix64

__version__ = "0.1.0"

__all__ = [
    "Comparison",
    "ComparisonRow",
    "CostPolicy",
    "DayModulation",
    "DayType",
    "ExperimentConfig",
    "GreedyOutcome",
    "Hyperparams",
    "Method",
    "Optimum",
    "PriceGrid",
    "ProductSpec",
    "QTable",
    "RejectReason",
    "RowOutcome",
    "TrainingTrace",
    "ValidationReport",
    "XorShift64",
    "analytic_optimum",
    "compare_columns",
    "default_price_grid",
    "demand",
    "epsilon_at",
    "epsilon_schedule",
    "evaluate_greedy",
    "export_revenue_curves",
    "grid_search_optimum",
    "line_search_optimum",
    "optima",
    "parse_catalog",
    "price_grids",
    "profit_at",
    "render_report",
    "revenue_curve",
    "reward",
    "run_experiment",
    "sample_catalog",
    "select_action",
    "serialize_catalog",
    "split_seed",
    "splitmix64",
    "train",
    "update_q",
    "zero_demand_price",
]
