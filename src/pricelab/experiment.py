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

``compare_columns`` runs a comparison as passes over the whole catalog:
the setup (``qlearn.reward_lanes``), the baselines
(``baselines.columns_by_day``), the training (``qlearn.train_lanes``,
which picks the kernel) and the greedy evaluation
(``qlearn.greedy_lanes``).  Its result is a ``Comparison`` of arrays, with
no object per row; ``run_experiment``'s ``ComparisonRow`` list is a view
of it.  Training raises nothing on the products it gets, so an exception
from it propagates.

``render_report`` (``compare``) and ``render_optimize`` (``optimize``)
write all three formats from such arrays through one writer, ``_rows``:
each row is one ``%`` of its format's row template, and an error row
comes from its own template.  The JSON equals ``json.dumps(report,
indent=2, allow_nan=False)`` byte for byte, including the error for the
first non-finite value (``json.dumps`` uses its C encoder only without
``indent``).
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
# reward_lanes, columns_by_day, train_lanes, greedy_lanes)
from .baselines import analytic_optimum, grid_search_optimum, line_search_optimum  # noqa: F401
from .baselines import Columns, Method, Optimum, columns_by_day
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


@dataclass(frozen=True)
class Comparison:
    """A whole comparison as arrays, one entry per product in catalog order.

    ``rl_price``, ``rl_demand`` and ``rl_profit`` have shape ``(n, 2)``,
    Weekday then Weekend; ``baselines`` is the ``(n, 2, 3)`` table of
    ``columns_by_day``; ``ratio`` is the RL profit over the best baseline
    profit where ``rated`` (that profit is > 0), and 0 elsewhere.  A
    product in ``errors`` (``{index: reason}``) holds zeros in every array.
    """

    names: list[str]
    rl_price: np.ndarray
    rl_demand: np.ndarray
    rl_profit: np.ndarray
    baselines: Columns
    ratio: np.ndarray
    rated: np.ndarray
    errors: dict[int, str]

    def rows(self) -> list[ComparisonRow]:
        """The comparison as rows, with Python floats and bools (``tolist``)."""
        columns = (self.rl_price, self.rl_demand, self.rl_profit, *self.baselines, self.ratio, self.rated)
        rows = []
        for index, (name, *days) in enumerate(zip(self.names, *(a.tolist() for a in columns))):
            if index in self.errors:
                rows += [ComparisonRow(name, day, error=self.errors[index]) for day in _DAYS]
                continue
            for day, price, d, profit, p3, d3, f3, k3, ratio, rated in zip(_DAYS, *days):
                optima = map(Optimum, p3, d3, f3, Method, k3)
                rows.append(ComparisonRow(name, day, price, d, profit, *optima, ratio if rated else None))
        return rows


def compare_columns(catalog: list[ProductSpec], config: ExperimentConfig) -> Comparison:
    """Train and compare every product, as arrays in catalog order.

    Each phase is a pass over the whole catalog: set every product up
    (cost policy, grid, seed, reward table), run the baselines, train, then
    read every greedy policy.  A product that fails setup, or whose
    baseline optimum overflows, gets error rows instead of aborting the
    batch and is not trained; its seed comes from its catalog index, so it
    never shifts the seeds of the others.  Training raises nothing on the
    products it gets, so any exception from it is a defect and propagates.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")

    costed, grids, errors = prepare_products(catalog, config)
    demand_table, margins, overflow = reward_lanes(
        ProductLanes.of(costed), grids, config.modulation, config.hyperparams.gamma
    )
    for index, reason in overflow.items():
        errors.setdefault(index, reason)  # an unusable grid is the first error
    usable = [index for index in range(len(catalog)) if index not in errors]
    table = columns_by_day([costed[index] for index in usable], grids[usable], config.modulation)
    for row, reason in optimize_overflow(table).items():
        errors[usable[row]] = reason
    trained = [index for index in usable if index not in errors]
    seeds = [config.seed(index) for index in trained]
    values = train_lanes(demand_table[trained], margins[trained], config.hyperparams, seeds)
    greedy = greedy_lanes(values, ProductLanes.of([costed[i] for i in trained]), grids[trained], config.modulation)

    def full(part):  # the trained products' rows, zeros for the others
        out = np.zeros((len(catalog), *part.shape[1:]), dtype=part.dtype)
        out[trained] = part
        return out

    kept = [row for row, index in enumerate(usable) if index not in errors]
    price, d, profit = map(full, greedy)
    baselines = Columns(*(full(a[kept]) for a in table))
    best = baselines.profit[..., 0]  # as max(analytic, grid, line): a later profit wins only if greater
    for method in range(1, len(Method)):
        best = np.where(baselines.profit[..., method] > best, baselines.profit[..., method], best)
    rated = best > 0
    with np.errstate(over="ignore"):
        ratio = np.divide(profit, best, out=np.zeros_like(profit), where=rated)
    return Comparison([spec.name for spec in catalog], price, d, profit, baselines, ratio, rated, errors)


def run_experiment(catalog: list[ProductSpec], config: ExperimentConfig) -> list[ComparisonRow]:
    """Train and compare every product; rows come back in catalog order,
    as the view ``compare_columns(catalog, config).rows()``."""
    return compare_columns(catalog, config).rows()


# --- rendering -------------------------------------------------------------
# compare and optimize write each format from column lists through one
# writer: a row is one % of its format's row template on a prefix (the
# product cell and the row's slot cells) and the row's cells

_BOOL = ("false", "true")  # CSV and JSON spelling of a clamped flag
_DAGGER = ("", "†")  # Markdown marks a clamped price instead

_CSV_COLUMNS = [
    "product", "day",
    "rl_optimal_price", "rl_optimal_demand", "rl_profit",
    "analytic_optimal_price", "analytic_optimal_demand", "analytic_profit", "analytic_clamped",
    "grid_optimal_price", "grid_optimal_demand", "grid_profit", "grid_clamped",
    "line_optimal_price", "line_optimal_demand", "line_profit", "line_clamped",
    "rl_vs_best_profit_ratio", "error",
]
_MD_HEADERS = [
    "Product", "Day",
    "RL Optimal Price", "RL Optimal Demand", "RL Profit",
    "Analytic Optimal Price", "Analytic Optimal Demand", "Analytic Profit",
    "Grid Optimal Price", "Grid Optimal Demand", "Grid Profit",
    "Line Optimal Price", "Line Optimal Demand", "Line Profit",
    "RL/Best Profit",
]
# render_report's rows after their product and day: the RL cells, each
# method's cells and the ratio, or (an error row) blanks and the error;
# the JSON ones as json.dumps(indent=2) lays them out
_CSV_ROW = "%s,%.1f,%.1f,%.2f" + ",%.1f,%.1f,%.2f,%s" * 3 + ",%s,\n"
_CSV_ERROR = "%s" + "," * 17 + "%s\n"
_MD_ROW = "%s | %.1f | %.1f | %.2f" + " | %.1f%s | %.1f | %.2f" * 3 + " | %s |\n"
_MD_ERROR = "%s" + " | " * 13 + "error: %s |\n"
_JSON_OPTIMUM = '{\n        "price": %r,\n        "demand": %r,\n        "profit": %r,\n        "clamped": %s\n      }'
_JSON_ROW = (
    '%s,\n      "rl": {\n        "price": %r,\n        "demand": %r,\n        "profit": %r\n      },\n'
    f'      "analytic": {_JSON_OPTIMUM},\n      "grid_search": {_JSON_OPTIMUM},\n'
    f'      "line_search": {_JSON_OPTIMUM},\n      "rl_vs_best_profit_ratio": %s,\n      "error": null\n    }}'
)
_JSON_ERROR = (
    '%s,\n      "rl": null,\n      "analytic": null,\n      "grid_search": null,\n      "line_search": null,\n'
    '      "rl_vs_best_profit_ratio": null,\n      "error": %s\n    }'
)

_OPTIMIZE_COLUMNS = ["product", "day", "method", "optimal_price", "optimal_demand", "profit", "clamped"]
_OPTIMIZE_HEADERS = ["Product", "Day", "Method", "Optimal Price", "Optimal Demand", "Profit", "Clamped"]
# the (day, method) of each of a product's rows, in the order of columns_by_day's last two axes
_OPTIMIZE_SLOTS = [(day.label, method.value) for day in DayType for method in Method]
# one optimize row after its product, day and method (day labels and method
# names need no escapes)
_OPTIMIZE_CSV_ROW = "%s,%.1f,%.1f,%.2f,%s\n"
_OPTIMIZE_MD_ROW = "%s | %.1f | %.1f | %.2f | %s |\n"
_OPTIMIZE_JSON_ROW = '%s,\n    "price": %r,\n    "demand": %r,\n    "profit": %r,\n    "clamped": %s\n  }'


def markdown_escape(text: str) -> str:
    """A Markdown table cell: a literal ``|`` would end the cell."""
    return text.replace("|", "\\|")


def _header(format: str, columns: list[str]) -> str:
    """A CSV header line (no column name needs quoting), or a Markdown
    header line and its rule."""
    if format == "csv":
        return ",".join(columns) + "\n"
    return f"| {' | '.join(columns)} |\n|{' --- |' * len(columns)}\n"


def _rows(line: str, names: list[str], slots: list[str], columns, errors: dict[int, str], error: str, sep="") -> str:
    """Each product's rows, one per slot, joined by ``sep``: ``line % (name
    + slot, *cells)``, the cells taken in turn from ``columns``, with one
    ``%`` per row; the rows of a product in ``errors`` (``{index: escaped
    reason}``) are ``error % (name + slot, reason)`` instead."""
    prefixes = [name + slot for name in names for slot in slots]
    rows = list(map(line.__mod__, zip(prefixes, *columns)))
    for index, reason in errors.items():
        for row in range(index * len(slots), (index + 1) * len(slots)):
            rows[row] = error % (prefixes[row], reason)
    return sep.join(rows)


def _check_json(*columns: np.ndarray) -> None:
    """Raise the error ``json.dumps(allow_nan=False)`` raises for the first
    non-finite float of a document whose floats are ``columns`` (arrays of
    one shape) taken entry by entry."""
    cells = np.stack(columns, axis=-1)
    finite = np.isfinite(cells)
    if not finite.all():
        raise ValueError(f"Out of range float values are not JSON compliant: {cells.flat[finite.argmin()].item()!r}")


def render_report(result: Comparison, format: str = "csv", config: ExperimentConfig | None = None) -> str:
    """Render a comparison; prices and demands at 1 decimal, profits at 2.

    JSON output carries full precision and, when a config is supplied,
    a provenance block describing the run.  Markdown footnotes clamped
    baseline prices.
    """
    if format not in ("csv", "json", "markdown"):
        raise ValueError(f"unknown report format {format!r}")
    rl = (result.rl_price, result.rl_demand, result.rl_profit)
    columns = [a.ravel().tolist() for a in rl]
    flags = _DAGGER if format == "markdown" else _BOOL
    for method in range(len(Method)):
        price, demand, profit = (a[..., method].ravel().tolist() for a in result.baselines[:3])
        flag = list(map(flags.__getitem__, result.baselines.clamped[..., method].ravel().tolist()))
        columns += [price, flag, demand, profit] if format == "markdown" else [price, demand, profit, flag]
    ratio_format, blank = {"csv": ("%.6f", ""), "json": ("%r", "null"), "markdown": ("%.4f", "")}[format]
    ratios = zip(result.ratio.ravel().tolist(), result.rated.ravel().tolist())
    columns.append([ratio_format % r if rated else blank for r, rated in ratios])
    days = [day.label for day in _DAYS]
    reasons = list(result.errors.values())

    if format == "csv":
        names = csv_quoted(result.names)
        errors = dict(zip(result.errors, csv_quoted(reasons)))
        rows = _rows(_CSV_ROW, names, [f",{day}" for day in days], columns, errors, _CSV_ERROR)
        return _header(format, _CSV_COLUMNS) + rows

    if format == "markdown":
        names = [f"| {markdown_escape(name)}" for name in result.names]
        errors = dict(zip(result.errors, map(markdown_escape, reasons)))
        rows = _rows(_MD_ROW, names, [f" | {day}" for day in days], columns, errors, _MD_ERROR)
        clamped = result.baselines.clamped.any()  # an error product's flags are False
        footer = "\n† optimum clamped to the search interval boundary.\n" if clamped else ""
        return _header(format, _MD_HEADERS) + rows + footer

    _check_json(*rl, *(a[..., method] for method in range(len(Method)) for a in result.baselines[:3]), result.ratio)
    head = {} if config is None else {"config": dataclasses.asdict(config)}
    text = json.dumps({**head, "rows": []}, indent=2, allow_nan=False)
    names = [f'    {{\n      "product": {name}' for name in map(encode_basestring_ascii, result.names)]
    errors = dict(zip(result.errors, map(encode_basestring_ascii, reasons)))
    rows = _rows(_JSON_ROW, names, [f',\n      "day": "{day}"' for day in days], columns, errors, _JSON_ERROR, ",\n")
    if rows:  # the rows replace the '[]\n}' json.dumps ends with, in one copy
        return "".join([text[: -len("[]\n}")], "[\n", rows, "\n  ]\n}\n"])
    return text + "\n"


def optimize_overflow(table: Columns) -> dict[int, str]:
    """``{product: reason}`` for every product of a ``columns_by_day`` table
    whose demand or profit is not finite, naming its first such day and
    method, in that order; empty if there is none."""
    finite = np.isfinite(table.demand) & np.isfinite(table.profit)
    methods = list(Method)
    return {
        product: f"{methods[finite[product].argmin() % len(methods)].value} optimum overflows"
        for product in np.flatnonzero(~finite.all(axis=(1, 2))).tolist()
    }


def render_optimize(names: list[str], table: Columns, format: str) -> str:
    """The ``optimize`` report of a ``columns_by_day`` table, one row per
    product, day and method; prices and demands at 1 decimal and profits at
    2, except in JSON, which carries full precision."""
    columns = [a.ravel().tolist() for a in table[:3]]
    columns.append(list(map(_BOOL.__getitem__, table.clamped.ravel().tolist())))
    if format == "json":
        _check_json(*table[:3])
        cells = [f'  {{\n    "product": {name}' for name in map(encode_basestring_ascii, names)]
        slots = [f',\n    "day": "{day}",\n    "method": "{method}"' for day, method in _OPTIMIZE_SLOTS]
        rows = _rows(_OPTIMIZE_JSON_ROW, cells, slots, columns, {}, "", ",\n")
        return "[\n" + rows + "\n]\n" if rows else "[]\n"
    if format == "markdown":
        head, line, sep = _header(format, _OPTIMIZE_HEADERS), _OPTIMIZE_MD_ROW, " | "
        cells = [f"| {markdown_escape(name)}" for name in names]
    else:
        head, line, sep = _header("csv", _OPTIMIZE_COLUMNS), _OPTIMIZE_CSV_ROW, ","
        cells = csv_quoted(names)
    slots = [f"{sep}{day}{sep}{method}" for day, method in _OPTIMIZE_SLOTS]
    return head + _rows(line, cells, slots, columns, {}, "")


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
