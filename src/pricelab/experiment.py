"""Per-product comparison of the learned policy against the baselines.

For every product the harness trains one agent, reads off the greedy
price per day type, runs the three classical optimizers on the same
price interval, and emits one comparison row per (product, day type).
Reports render as CSV, JSON (full precision, with a config provenance
block), or Markdown.

Every product reaches training by one path, shared with the CLI's
``train`` and ``optimize``: ``prepare_products`` applies the cost policy
and builds all price grids in one call, reporting each unusable product
with its reason, and ``ExperimentConfig.seeded`` gives a product its
hyperparameters, with a seed split from the master seed and its catalog
index by a frozen function (see ``pricelab.rng.split_seed``).  So
everything is deterministic given the catalog and config, and large
catalogs train in lockstep with results bitwise equal to training each
product alone.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

# perfbench/tracing.py times the one-product optimizers and default_price_grid as
# attributes of this module, so they stay importable here; the evaluation makes one
# batch call per day type, and prepare_products builds every grid in one call
from .baselines import Optimum, analytic_optimum, grid_search_optimum, line_search_optimum, optima_by_day  # noqa: F401
from .domain import default_price_grid  # noqa: F401
from .domain import DayModulation, DayType, PriceGrid, ProductLanes, ProductSpec, _uniform_grids, price_grids
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

    def seeded(self, index: int) -> Hyperparams:
        """The hyperparameters of the product at catalog ``index``, seeded
        from the master seed by the frozen ``pricelab.rng.split_seed``."""
        return replace(self.hyperparams, seed=split_seed(self.master_seed, index))


def prepare_products(
    catalog: list[ProductSpec], config: ExperimentConfig
) -> tuple[list[ProductSpec], np.ndarray, dict[int, str]]:
    """Every product's costed spec and price grid, from one grid build.

    Returns the specs under the cost policy, the ``(len(catalog),
    grid_points)`` grids, and ``{index: reason}`` for every product that
    cannot be used; such a product's spec and grid row are placeholders.
    """
    grids, unusable = _uniform_grids([s.base_price for s in catalog], config.grid_points, *config.grid_span)
    costed = []
    for index, spec in enumerate(catalog):
        try:
            spec = config.cost_policy.apply(spec)
        except ValueError as exc:  # a cost fraction of a subnormal price can round up to the price
            unusable[index] = str(exc)
        costed.append(spec)
    return costed, grids, unusable


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
LOCKSTEP_MIN_PRODUCTS = 32

_DAYS = (DayType.WEEKDAY, DayType.WEEKEND)


@dataclass(frozen=True)
class _Setup:
    """One product ready to train: costed spec, price grid, seeded
    hyperparameters and its reward table."""

    costed: ProductSpec
    grid: PriceGrid
    hp: Hyperparams
    rewards: np.ndarray


def _comparison_rows(
    name: str, setup: _Setup, q: QTable, config: ExperimentConfig, by_day: tuple[tuple[Optimum, ...], ...]
) -> list[ComparisonRow]:
    greedy = evaluate_greedy(q, setup.costed, setup.grid, config.modulation)
    rows = []
    for day, rl, (ana, gs, ls) in zip(_DAYS, greedy, by_day):
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
    baselines.  A product whose input fails any phase (a ``ValueError``)
    contributes error-marked rows instead of aborting the batch; its seed
    comes from its catalog index, so it never shifts the seeds of the
    others.  Any other exception is a defect and propagates.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")

    per_product: list[list[ComparisonRow]] = [[] for _ in catalog]

    def fail(index: int, error: str) -> None:
        # a failed product becomes marked rows; the batch continues
        per_product[index] = [
            ComparisonRow(product_name=catalog[index].name, day_type=day, error=error) for day in _DAYS
        ]

    costed, grids, unusable = prepare_products(catalog, config)
    setups: dict[int, _Setup] = {}
    for index, spec in enumerate(costed):
        if index in unusable:
            fail(index, unusable[index])
            continue
        grid = PriceGrid(tuple(grids[index].tolist()))
        hp = config.seeded(index)
        try:
            demand_table, margins = reward_tables(spec, grid, config.modulation, hp.gamma)
        except ValueError as exc:
            fail(index, str(exc))
            continue
        setups[index] = _Setup(spec, grid, hp, margins * demand_table)

    tables: dict[int, QTable] = {}
    if len(setups) >= LOCKSTEP_MIN_PRODUCTS:
        rewards = np.stack([s.rewards for s in setups.values()])
        seeds = [s.hp.seed for s in setups.values()]
        tables = dict(zip(setups, train_lockstep(rewards, config.hyperparams, seeds)))
    else:
        for index, s in setups.items():
            try:
                tables[index], _ = train(s.costed, s.grid, config.modulation, s.hp)
            except ValueError as exc:
                fail(index, str(exc))

    # the baselines of every trained product in one batch per day type
    trained = list(tables)
    baselines = optima_by_day([costed[index] for index in trained], grids[trained], config.modulation)
    for (index, q), by_day in zip(tables.items(), baselines):
        try:
            per_product[index] = _comparison_rows(catalog[index].name, setups[index], q, config, by_day)
        except ValueError as exc:
            fail(index, str(exc))

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


def _md_cells(row: ComparisonRow) -> list[str]:
    if row.error:
        cells = [row.product_name, row.day_type.label] + [""] * 12 + [f"error: {row.error}"]
    else:
        cells = [row.product_name, row.day_type.label, _f1(row.rl_price), _f1(row.rl_demand), _f2(row.rl_profit)]
        for opt in (row.analytic, row.grid_search, row.line_search):
            if opt is None:
                cells += ["", "", ""]
            else:
                cells += [f"{opt.price:.1f}{'†' if opt.clamped else ''}", f"{opt.demand:.1f}", f"{opt.profit:.2f}"]
        ratio = "" if row.rl_vs_best_profit_ratio is None else f"{row.rl_vs_best_profit_ratio:.4f}"
        cells.append(ratio)
    return [markdown_escape(cell) for cell in cells]


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


def csv_table(header: list[str], rows) -> str:
    """A header and rows of cells as CSV, with ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def markdown_table(header: list[str], rows, footer: str | None) -> str:
    """A header and rows of (already escaped) cells as a Markdown table,
    followed by ``footer`` after a blank line unless it is None."""
    lines = "".join(f"| {' | '.join(cells)} |\n" for cells in [header, ["---"] * len(header), *rows])
    return lines if footer is None else f"{lines}\n{footer}\n"


def render_report(
    rows: list[ComparisonRow], format: str = "csv", config: ExperimentConfig | None = None
) -> str:
    """Render comparison rows; prices and demands at 1 decimal, profits at 2.

    JSON output carries full precision and, when a config is supplied,
    a provenance block describing the run.  Markdown footnotes clamped
    baseline prices.
    """
    if format == "csv":
        return csv_table(_CSV_COLUMNS, map(_csv_cells, rows))

    if format == "json":
        doc = {"rows": [_row_as_dict(r) for r in rows]}
        if config is not None:
            doc = {"config": dataclasses.asdict(config), **doc}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"

    if format == "markdown":
        clamped = any(
            opt is not None and opt.clamped
            for row in rows
            if not row.error
            for opt in (row.analytic, row.grid_search, row.line_search)
        )
        footer = "† optimum clamped to the search interval boundary." if clamped else None
        return markdown_table(_MD_HEADERS, map(_md_cells, rows), footer)

    raise ValueError(f"unknown report format {format!r}")


# products per block of the curve export: bounds the arrays and strings
# held at once (unblocked, peak memory grows with the catalog)
_CURVE_BLOCK = 64


def export_revenue_curves(
    catalog: list[ProductSpec], config: ExperimentConfig, samples_per_curve: int = 101
) -> str:
    """Long-format CSV of (product, day, price, demand, revenue, profit).

    Prices sample the grid span uniformly; values are written at full
    precision (``repr``) so downstream plots and checks see exactly what
    the model computed.  A product whose grid is unusable is an error
    naming it.
    """
    if samples_per_curve < 2:
        raise ValueError("samples_per_curve must be >= 2")
    lo_ratio, hi_ratio = config.grid_span
    days = [(day.label, config.modulation.multiplier(day)) for day in _DAYS]
    parts = ["product,day,price,demand,revenue,profit\n"]
    names = io.StringIO()
    quote = csv.writer(names, lineterminator="\n")
    for start in range(0, len(catalog), _CURVE_BLOCK):
        block = catalog[start : start + _CURVE_BLOCK]
        costed = [config.cost_policy.apply(spec) for spec in block]
        prices = price_grids(costed, samples_per_curve, lo_ratio, hi_ratio)
        lanes = ProductLanes.of(costed)
        # equal day multipliers give equal curves: format each distinct one once
        curves = {}
        for _, mult in days:
            if mult not in curves:
                d = lanes.demand(prices, mult)
                with np.errstate(over="ignore", invalid="ignore"):
                    revenue = prices * d
                columns = zip(prices.tolist(), d.tolist(), revenue.tolist(), lanes.reward(prices, d).tolist())
                curves[mult] = [list(map("%r,%r,%r,%r".__mod__, zip(*rows))) for rows in columns]
        # each name as the csv module quotes it; writerow returns the row's length
        names.seek(0)
        names.truncate()
        ends = list(itertools.accumulate(quote.writerow([spec.name]) for spec in block))
        text = names.getvalue()
        lines = []
        for i, (a, b) in enumerate(zip([0, *ends], ends)):
            name = text[a : b - 1]
            for label, mult in days:
                prefix = f"{name},{label},"
                lines.append(prefix + ("\n" + prefix).join(curves[mult][i]) + "\n")
        parts.append("".join(lines))
    return "".join(parts)
