"""Per-product comparison of the learned policy against the baselines.

For every product the harness trains one agent, reads off the greedy
price per day type, runs the three classical optimizers on the same
price interval, and emits one comparison row per (product, day type).
Reports render as CSV, JSON (full precision, with a config provenance
block), or Markdown.

Every product is set up by one path, shared with the CLI's ``train``,
``optimize`` and ``curve``: ``prepare_products`` applies the cost policy
and builds all price grids in one call, reporting each unusable product
with its reason (``check_products`` makes the first one in catalog order,
or an earlier product whose optimum or curve overflows, an error naming
it), and ``ExperimentConfig.seeded`` gives a product its
hyperparameters, with a seed split from the master seed and its catalog
index by a frozen function (see ``pricelab.rng.split_seed``).  So
everything is deterministic given the catalog and config.

The setup (``qlearn.reward_lanes``), the training (``qlearn.train_lanes``,
which picks the kernel), the greedy evaluation (``qlearn.greedy_lanes``)
and the baselines (``baselines.optima_by_day``) are passes over the whole
catalog.  Training raises nothing on products that setup accepted, so
an exception from it propagates.  The JSON report is written row by row
from a fixed template that equals ``json.dumps(report, indent=2,
allow_nan=False)`` byte for byte: ``json.dumps`` uses its C encoder only
without ``indent``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, replace

import numpy as np

# perfbench/tracing.py times the one-product optimizers, default_price_grid, train
# and evaluate_greedy as attributes of this module, so they stay importable here;
# the pipeline runs each stage over the whole catalog (prepare_products,
# reward_lanes, train_lanes, greedy_lanes, one optima call per day multiplier)
from .baselines import Optimum, analytic_optimum, grid_search_optimum, line_search_optimum, optima_by_day  # noqa: F401
from .domain import default_price_grid  # noqa: F401
from .domain import DayModulation, DayType, ProductLanes, ProductSpec, _uniform_grids
from .qlearn import evaluate_greedy, train  # noqa: F401
from .qlearn import Hyperparams, greedy_lanes, reward_lanes, train_lanes
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

    def seed(self, index: int) -> int:
        """The seed of the product at catalog ``index``, split from the
        master seed by the frozen ``pricelab.rng.split_seed``."""
        return split_seed(self.master_seed, index)

    def seeded(self, index: int) -> Hyperparams:
        """The hyperparameters of the product at catalog ``index``, with
        its ``seed``."""
        return replace(self.hyperparams, seed=self.seed(index))


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


def check_products(catalog: list[ProductSpec], errors: dict[int, str]) -> None:
    """Raise a ValueError naming the first product, in catalog order, in
    ``errors`` (``{index: reason}``), if there is one."""
    if errors:
        index = min(errors)
        raise ValueError(f"product {catalog[index].name!r}: {errors[index]}")


def csv_quoted(cells: list[str]) -> list[str]:
    """Each cell as the csv module writes it inside a row, quoted only if
    it must be."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # each row is the cell, a comma and a line end; writerow returns its length
    ends = list(itertools.accumulate(writer.writerow([cell, ""]) for cell in cells))
    text = buf.getvalue()
    return [text[a : b - 2] for a, b in zip([0, *ends], ends)]


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


_DAYS = (DayType.WEEKDAY, DayType.WEEKEND)


def run_experiment(catalog: list[ProductSpec], config: ExperimentConfig) -> list[ComparisonRow]:
    """Train and compare every product; rows come back in catalog order.

    Three phases, each a pass over the whole catalog: set every product up
    (cost policy, grid, seed, reward table), train them all, then read
    every greedy policy and run the baselines.  A product that fails
    setup contributes error-marked rows instead of aborting the batch; its
    seed comes from its catalog index, so it never shifts the seeds of the
    others.  Training raises nothing on the products setup accepted, so
    any exception from it is a defect and propagates.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")

    costed, grids, errors = prepare_products(catalog, config)
    demand_table, margins, overflow = reward_lanes(
        ProductLanes.of(costed), grids, config.modulation, config.hyperparams.gamma
    )
    for index, reason in overflow.items():
        errors.setdefault(index, reason)  # an unusable grid is the first error
    trained = [index for index in range(len(catalog)) if index not in errors]
    seeds = [config.seed(index) for index in trained]
    values = train_lanes(demand_table[trained], margins[trained], config.hyperparams, seeds)

    # every trained product's greedy policy and baselines in one pass
    specs = [costed[index] for index in trained]
    trained_grids = grids[trained]
    greedy = greedy_lanes(values, ProductLanes.of(specs), trained_grids, config.modulation)
    baselines = optima_by_day(specs, trained_grids, config.modulation)
    evaluated = dict(zip(trained, zip(*(a.tolist() for a in greedy), baselines)))

    rows = []
    for index, spec in enumerate(catalog):
        if index in errors:
            rows += [ComparisonRow(product_name=spec.name, day_type=day, error=errors[index]) for day in _DAYS]
            continue
        for day, price, d, profit, (ana, gs, ls) in zip(_DAYS, *evaluated[index]):
            best = max(ana.profit, gs.profit, ls.profit)
            rows.append(
                ComparisonRow(
                    product_name=spec.name,
                    day_type=day,
                    rl_price=price,
                    rl_demand=d,
                    rl_profit=profit,
                    analytic=ana,
                    grid_search=gs,
                    line_search=ls,
                    rl_vs_best_profit_ratio=profit / best if best > 0 else None,
                )
            )
    return rows


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


# render_report's JSON as json.dumps(indent=2) lays it out: one comparison
# row, its RL block and one optimum
_JSON_ROW = (
    '    {\n      "product": %s,\n      "day": %s,\n      "rl": %s,\n      "analytic": %s,\n'
    '      "grid_search": %s,\n      "line_search": %s,\n      "rl_vs_best_profit_ratio": %s,\n'
    '      "error": %s\n    }'
)
_JSON_RL = '{\n        "price": %s,\n        "demand": %s,\n        "profit": %s\n      }'
_JSON_OPT = '{\n        "price": %s,\n        "demand": %s,\n        "profit": %s,\n        "clamped": %s\n      }'
_JSON_BOOL = {True: "true", False: "false"}


def _json_float(v: float | None, _repr=float.__repr__) -> str:
    """``v`` as ``json.dumps(allow_nan=False)`` writes a float or None."""
    if v is None:
        return "null"
    if v - v == 0.0:  # finite: inf - inf and nan - nan are nan
        return _repr(v)
    raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")


def _json_row(row: ComparisonRow) -> str:
    # the values are formatted in document order, so the first non-finite
    # one raises, as it would in json.dumps
    f = _json_float
    rl = "null" if row.rl_price is None else _JSON_RL % (f(row.rl_price), f(row.rl_demand), f(row.rl_profit))
    opts = [
        "null" if opt is None else _JSON_OPT % (f(opt.price), f(opt.demand), f(opt.profit), _JSON_BOOL[opt.clamped])
        for opt in (row.analytic, row.grid_search, row.line_search)
    ]
    error = "null" if row.error is None else encode_basestring_ascii(row.error)
    return _JSON_ROW % (
        encode_basestring_ascii(row.product_name), encode_basestring_ascii(row.day_type.label), rl, *opts,
        f(row.rl_vs_best_profit_ratio), error,
    )


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
        head = {} if config is None else {"config": dataclasses.asdict(config)}
        text = json.dumps({**head, "rows": []}, indent=2, allow_nan=False)
        if rows:  # the rows replace the '[]\n}' json.dumps ends with
            text = text[: -len("[]\n}")] + "[\n" + ",\n".join(map(_json_row, rows)) + "\n  ]\n}"
        return text + "\n"

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
    the model computed.  Products are set up as for training, with
    ``samples_per_curve`` grid points; a product that cannot be set up,
    or whose curve overflows, is an error naming it.
    """
    if samples_per_curve < 2:
        raise ValueError("samples_per_curve must be >= 2")
    sampled = replace(config, grid_points=samples_per_curve)
    days = [(day.label, config.modulation.multiplier(day)) for day in _DAYS]
    parts = ["product,day,price,demand,revenue,profit\n"]
    for start in range(0, len(catalog), _CURVE_BLOCK):
        block = catalog[start : start + _CURVE_BLOCK]
        costed, prices, errors = prepare_products(block, sampled)
        lanes = ProductLanes.of(costed)
        # equal day multipliers give equal curves: format each distinct one once
        curves = {}
        finite = np.ones(len(block), dtype=bool)
        for _, mult in days:
            if mult not in curves:
                d = lanes.demand(prices, mult)
                with np.errstate(over="ignore", invalid="ignore"):
                    revenue = prices * d
                profit = lanes.reward(prices, d)
                finite &= np.isfinite(np.hstack([d, revenue, profit])).all(axis=1)
                columns = zip(prices.tolist(), d.tolist(), revenue.tolist(), profit.tolist())
                curves[mult] = [list(map("%r,%r,%r,%r".__mod__, zip(*rows))) for rows in columns]
        if not finite.all():  # an unusable product keeps its setup error
            errors.setdefault(int(finite.argmin()), "revenue curve overflows")
        check_products(block, errors)
        lines = []
        for i, name in enumerate(csv_quoted([spec.name for spec in block])):
            for label, mult in days:
                prefix = f"{name},{label},"
                lines.append(prefix + ("\n" + prefix).join(curves[mult][i]) + "\n")
        parts.append("".join(lines))
    return "".join(parts)
