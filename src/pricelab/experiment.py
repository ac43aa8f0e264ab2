"""Per-product comparison of the learned policy against the baselines.

For every product the harness trains one agent, reads off the greedy
price per day type, runs the three classical optimizers on the same
price interval, and emits one comparison row per (product, day type).
Reports render as CSV, JSON (full precision, with a config provenance
block), or Markdown.

Everything is deterministic given the catalog and config: per-product
seeds are derived from the master seed and the catalog index by a frozen
splitting function (see ``pricelab.rng.split_seed``), and large catalogs
train in lockstep with results bitwise equal to training each product
alone.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import Optimum, analytic_optimum, grid_search_optimum, line_search_optimum
from .domain import DayModulation, DayType, PriceGrid, ProductSpec, default_price_grid, demand
from .qlearn import Hyperparams, QTable, evaluate_greedy, reward_tables, train, train_lockstep
from .rng import MASK64, split_seed

COST_POLICY_KINDS = ("catalog", "zero", "fraction")


@dataclass(frozen=True)
class CostPolicy:
    """How unit costs are set for a run: taken from the catalog, forced
    to zero, or a fixed fraction of each product's base price."""

    kind: str = "catalog"
    fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in COST_POLICY_KINDS:
            raise ValueError(f"cost policy kind must be one of {COST_POLICY_KINDS}")
        if not (0 <= self.fraction < 1):
            raise ValueError("cost fraction must be in [0, 1)")

    def apply(self, spec: ProductSpec) -> ProductSpec:
        if self.kind == "zero":
            return dataclasses.replace(spec, unit_cost=0.0)
        if self.kind == "fraction":
            return dataclasses.replace(spec, unit_cost=self.fraction * spec.base_price)
        return spec


@dataclass(frozen=True)
class ExperimentConfig:
    hyperparams: Hyperparams = Hyperparams()
    grid_points: int = 21
    grid_span: tuple[float, float] = (0.5, 2.0)
    modulation: DayModulation = DayModulation()
    cost_policy: CostPolicy = CostPolicy()
    master_seed: int = 0

    def __post_init__(self):
        lo, hi = self.grid_span
        if not (0 < lo < hi < math.inf):
            raise ValueError("grid_span must be finite and satisfy 0 < lo < hi")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if not (0 <= self.master_seed <= MASK64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ComparisonRow:
    """One product under one day type, across all methods."""

    product_name: str
    day_type: DayType
    rl_price: float | None = None
    rl_demand: float | None = None
    rl_profit: float | None = None
    analytic: Optimum | None = None
    grid_search: Optimum | None = None
    line_search: Optimum | None = None
    rl_vs_best_profit_ratio: float | None = None
    error: str | None = None


# Catalogs with at least this many trainable products train in lockstep
# (``qlearn.train_lockstep``); smaller ones train product by product, where
# the scalar kernel's lower fixed cost per step wins.  Both give the same
# tables, so the choice changes speed only.
LOCKSTEP_MIN_PRODUCTS = 16

_DAYS = (DayType.WEEKDAY, DayType.WEEKEND)


def derive_product_seed(master_seed: int, product_index: int) -> int:
    """Frozen master-seed splitting; documented in ``pricelab.rng``."""
    return split_seed(master_seed, product_index)


@dataclass(frozen=True)
class _Setup:
    """One product ready to train: costed spec, price grid, seeded
    hyperparameters and its reward table."""

    costed: ProductSpec
    grid: PriceGrid
    hp: Hyperparams
    rewards: np.ndarray


def _setup(spec: ProductSpec, index: int, config: ExperimentConfig) -> _Setup:
    costed = config.cost_policy.apply(spec)
    lo_ratio, hi_ratio = config.grid_span
    grid = default_price_grid(costed, config.grid_points, lo_ratio, hi_ratio)
    hp = replace(config.hyperparams, seed=derive_product_seed(config.master_seed, index))
    demand_table, margins = reward_tables(costed, grid, config.modulation, hp.gamma)
    return _Setup(costed, grid, hp, margins * demand_table)


def _comparison_rows(name: str, setup: _Setup, q: QTable, config: ExperimentConfig) -> list[ComparisonRow]:
    costed, grid = setup.costed, setup.grid
    bounds = (grid.lo, grid.hi)
    greedy = evaluate_greedy(q, costed, grid, config.modulation)

    rows = []
    for day, rl in zip(_DAYS, greedy):
        mult = config.modulation.multiplier(day)
        ana = analytic_optimum(costed, bounds, mult)
        gs = grid_search_optimum(costed, grid, mult)
        ls = line_search_optimum(costed, bounds, mult)
        best = max(ana.profit, gs.profit, ls.profit)
        ratio = rl.profit / best if best > 0 else None
        rows.append(
            ComparisonRow(
                product_name=name,
                day_type=day,
                rl_price=rl.price,
                rl_demand=rl.demand,
                rl_profit=rl.profit,
                analytic=ana,
                grid_search=gs,
                line_search=ls,
                rl_vs_best_profit_ratio=ratio,
            )
        )
    return rows


def run_experiment(catalog: list[ProductSpec], config: ExperimentConfig) -> list[ComparisonRow]:
    """Train and compare every product; rows come back in catalog order.

    Three phases: set every product up (cost policy, grid, seed, reward
    table), train them all, then evaluate each greedy policy against the
    baselines.  A product that fails any phase contributes error-marked
    rows instead of aborting the batch; its seed comes from its catalog
    index, so it never shifts the seeds of the others.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")

    per_product: list[list[ComparisonRow]] = [[] for _ in catalog]

    def fail(index: int, exc: Exception) -> None:
        # a failed product becomes marked rows; the batch continues
        per_product[index] = [
            ComparisonRow(product_name=catalog[index].name, day_type=day, error=str(exc)) for day in _DAYS
        ]

    setups: dict[int, _Setup] = {}
    for index, spec in enumerate(catalog):
        try:
            setups[index] = _setup(spec, index, config)
        except Exception as exc:
            fail(index, exc)

    tables: dict[int, QTable] = {}
    if len(setups) >= LOCKSTEP_MIN_PRODUCTS:
        rewards = np.stack([s.rewards for s in setups.values()])
        seeds = [s.hp.seed for s in setups.values()]
        tables = dict(zip(setups, train_lockstep(rewards, config.hyperparams, seeds)))
    else:
        for index, s in setups.items():
            try:
                tables[index], _ = train(s.costed, s.grid, config.modulation, s.hp)
            except Exception as exc:
                fail(index, exc)

    for index, q in tables.items():
        try:
            per_product[index] = _comparison_rows(catalog[index].name, setups[index], q, config)
        except Exception as exc:
            fail(index, exc)

    return [row for rows in per_product for row in rows]


# --- rendering -------------------------------------------------------------

_CSV_COLUMNS = [
    "product", "day",
    "rl_optimal_price", "rl_optimal_demand", "rl_profit",
    "analytic_optimal_price", "analytic_optimal_demand", "analytic_profit", "analytic_clamped",
    "grid_optimal_price", "grid_optimal_demand", "grid_profit", "grid_clamped",
    "line_optimal_price", "line_optimal_demand", "line_profit", "line_clamped",
    "rl_vs_best_profit_ratio", "error",
]


def _f1(v: float | None) -> str:
    return "" if v is None else f"{v:.1f}"


def _f2(v: float | None) -> str:
    return "" if v is None else f"{v:.2f}"


def _csv_cells(row: ComparisonRow) -> list[str]:
    cells = [row.product_name, row.day_type.label, _f1(row.rl_price), _f1(row.rl_demand), _f2(row.rl_profit)]
    for opt in (row.analytic, row.grid_search, row.line_search):
        if opt is None:
            cells += ["", "", "", ""]
        else:
            cells += [_f1(opt.price), _f1(opt.demand), _f2(opt.profit), str(opt.clamped).lower()]
    ratio = "" if row.rl_vs_best_profit_ratio is None else f"{row.rl_vs_best_profit_ratio:.6f}"
    cells += [ratio, row.error or ""]
    return cells


def _row_as_dict(row: ComparisonRow) -> dict:
    def opt_dict(opt: Optimum | None):
        if opt is None:
            return None
        return {"price": opt.price, "demand": opt.demand, "profit": opt.profit, "clamped": opt.clamped}

    return {
        "product": row.product_name,
        "day": row.day_type.label,
        "rl": None
        if row.rl_price is None
        else {"price": row.rl_price, "demand": row.rl_demand, "profit": row.rl_profit},
        "analytic": opt_dict(row.analytic),
        "grid_search": opt_dict(row.grid_search),
        "line_search": opt_dict(row.line_search),
        "rl_vs_best_profit_ratio": row.rl_vs_best_profit_ratio,
        "error": row.error,
    }


def _config_as_dict(config: ExperimentConfig) -> dict:
    return {
        "hyperparams": dataclasses.asdict(config.hyperparams),
        "grid_points": config.grid_points,
        "grid_span": list(config.grid_span),
        "modulation": {"weekday": config.modulation.weekday, "weekend": config.modulation.weekend},
        "cost_policy": {"kind": config.cost_policy.kind, "fraction": config.cost_policy.fraction},
        "master_seed": config.master_seed,
    }


_MD_HEADERS = [
    "Product", "Day",
    "RL Optimal Price", "RL Optimal Demand", "RL Profit",
    "Analytic Optimal Price", "Analytic Optimal Demand", "Analytic Profit",
    "Grid Optimal Price", "Grid Optimal Demand", "Grid Profit",
    "Line Optimal Price", "Line Optimal Demand", "Line Profit",
    "RL/Best Profit",
]


def markdown_escape(text: str) -> str:
    """A Markdown table cell: a literal ``|`` would end the cell."""
    return text.replace("|", "\\|")


def render_report(
    rows: list[ComparisonRow], format: str = "csv", config: ExperimentConfig | None = None
) -> str:
    """Render comparison rows; prices and demands at 1 decimal, profits at 2.

    JSON output carries full precision and, when a config is supplied,
    a provenance block describing the run.  Markdown footnotes clamped
    baseline prices.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow(_csv_cells(row))
        return buf.getvalue()

    if format == "json":
        doc = {"rows": [_row_as_dict(r) for r in rows]}
        if config is not None:
            doc = {"config": _config_as_dict(config), "rows": doc["rows"]}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"

    if format == "markdown":
        lines = ["| " + " | ".join(_MD_HEADERS) + " |", "| " + " | ".join(["---"] * len(_MD_HEADERS)) + " |"]
        any_clamped = False

        def price_cell(opt: Optimum | None) -> list[str]:
            nonlocal any_clamped
            if opt is None:
                return ["", "", ""]
            mark = ""
            if opt.clamped:
                any_clamped = True
                mark = "†"
            return [f"{opt.price:.1f}{mark}", f"{opt.demand:.1f}", f"{opt.profit:.2f}"]

        for row in rows:
            name = markdown_escape(row.product_name)
            if row.error:
                cells = [name, row.day_type.label] + [""] * 12 + [f"error: {row.error}"]
            else:
                ratio = "" if row.rl_vs_best_profit_ratio is None else f"{row.rl_vs_best_profit_ratio:.4f}"
                cells = (
                    [name, row.day_type.label, _f1(row.rl_price), _f1(row.rl_demand), _f2(row.rl_profit)]
                    + price_cell(row.analytic)
                    + price_cell(row.grid_search)
                    + price_cell(row.line_search)
                    + [ratio]
                )
            lines.append("| " + " | ".join(cells) + " |")
        if any_clamped:
            lines.append("")
            lines.append("† optimum clamped to the search interval boundary.")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown report format {format!r}")


def export_revenue_curves(
    catalog: list[ProductSpec], config: ExperimentConfig, samples_per_curve: int = 101
) -> str:
    """Long-format CSV of (product, day, price, demand, revenue, profit).

    Prices sample the grid span uniformly; values are written at full
    precision so downstream plots and checks see exactly what the model
    computed.
    """
    if samples_per_curve < 2:
        raise ValueError("samples_per_curve must be >= 2")
    lo_ratio, hi_ratio = config.grid_span
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["product", "day", "price", "demand", "revenue", "profit"])
    for spec in catalog:
        costed = config.cost_policy.apply(spec)
        prices = np.linspace(lo_ratio * costed.base_price, hi_ratio * costed.base_price, samples_per_curve)
        for day in (DayType.WEEKDAY, DayType.WEEKEND):
            mult = config.modulation.multiplier(day)
            for price in prices:
                d = demand(costed, float(price), mult)
                writer.writerow(
                    [
                        spec.name,
                        day.label,
                        repr(float(price)),
                        repr(d),
                        repr(float(price) * d),
                        repr((float(price) - costed.unit_cost) * d),
                    ]
                )
    return buf.getvalue()
