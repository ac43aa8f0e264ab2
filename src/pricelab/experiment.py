"""Per-product comparison of the learned policy against the baselines.

For every product the harness trains one agent, reads off the greedy
price per day type, runs the three classical optimizers on the same
price interval, and emits one comparison row per (product, day type).
Reports render as CSV, JSON (full precision, with a config provenance
block), or Markdown.

Every product is set up by one path, shared with the CLI's ``train``,
``optimize`` and ``curve``: ``prepare_products`` builds a catalog's costed
``ProductLanes`` (which later stages read rows of through ``take``) and
price grids once per chunk of ``_CHUNK`` products (``curve``: once per
block), reporting each unusable product with its reason
(``check_products`` makes the first one in catalog order, or an earlier
product whose optimum or curve overflows, an error naming it), and
``ExperimentConfig.seeded`` gives a product its hyperparameters, with a
seed split from the master seed and its catalog index by a frozen function
(see ``pricelab.rng.split_seed``).  So everything is deterministic.

``compare_columns`` and ``optimize_columns`` share one loop,
``_run_chunks``, over contiguous chunks of ``_CHUNK`` products: each chunk
runs the setup (``prepare_products``, ``qlearn.reward_lanes``), the
baselines (``baselines.columns_by_day``), the training
(``qlearn.train_lanes``, which picks the kernel for the chunk) and the
greedy evaluation (``qlearn.greedy_lanes``), and writes its rows into
per-product result arrays; ``optimize`` stops after the setup and the
baselines.  So only those arrays grow with the catalog.  The result of
``compare_columns`` is a ``Comparison`` of arrays, with no object per
row; ``run_experiment``'s ``ComparisonRow`` list is a view of it.
Training raises nothing on the products it gets, so an exception from it
propagates.

``compare_report`` (``compare``) and ``optimize_report`` (``optimize``)
write each of the ``REPORT_FORMATS`` from such arrays through one writer,
``_rows``: each row is one ``%`` of its format's row template, and an
error row comes from its own template.  The JSON equals
``json.dumps(report, indent=2, allow_nan=False)`` byte for byte, including
the error for the first non-finite value (``json.dumps`` uses its C
encoder only without ``indent``).  These and ``revenue_curve_blocks``
(``curve``) run a whole catalog through one part runner, ``_run_parts``:
contiguous parts, one per process (``compare``: up to ``--jobs``;
``optimize`` and ``curve``: one per usable CPU, at most one per block).
Each part runs every check that can fail first, an unknown format
included, then the report is a lazy sequence of text blocks of ``_BLOCK``
products, so a writer holds one block at a time; ``render_report`` and
``export_revenue_curves`` are the blocks joined into one string, and
``optimize_blocks`` gives the blocks of one table in this process.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass, replace

import numpy as np

# perfbench/tracing.py times the one-product optimizers, default_price_grid, train
# and evaluate_greedy as attributes of this module, so they stay importable here;
# the pipeline runs each stage on chunks of products (prepare_products,
# reward_lanes, columns_by_day, train_lanes, greedy_lanes)
from .baselines import analytic_optimum, grid_search_optimum, line_search_optimum  # noqa: F401
from .baselines import Columns, Method, Optimum, columns_by_day
from .domain import default_price_grid  # noqa: F401
from .domain import DayModulation, DayType, ProductLanes, _uniform_grids
from ._parts import Helper
from .qlearn import evaluate_greedy, train  # noqa: F401
from .qlearn import Hyperparams, epsilon_schedule, greedy_lanes, require_integers, reward_lanes, train_lanes
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

    def apply(self, lanes: ProductLanes) -> ProductLanes:
        """``lanes`` with this policy's unit costs (``prepare_products`` checks them)."""
        if self.kind == "zero":
            return replace(lanes, unit_cost=np.zeros_like(lanes.unit_cost))
        if self.kind == "fraction":
            return replace(lanes, unit_cost=self.fraction * lanes.base_price)
        return lanes


@dataclass(frozen=True)
class ExperimentConfig:
    hyperparams: Hyperparams = Hyperparams()
    grid_points: int = 21
    grid_span: tuple[float, float] = (0.5, 2.0)
    modulation: DayModulation = DayModulation()
    cost_policy: CostPolicy = CostPolicy()
    master_seed: int = 0

    def __post_init__(self):
        require_integers(self, "grid_points", "master_seed")
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
    catalog: ProductLanes, config: ExperimentConfig
) -> tuple[ProductLanes, np.ndarray, dict[int, str]]:
    """Every product's costed lanes and price grid, from one build each.

    Returns the catalog's lanes under the cost policy, the
    ``(len(catalog), grid_points)`` grids, and ``{index: reason}`` for every
    product that cannot be used; its lanes and grid row are placeholders.
    """
    lanes = config.cost_policy.apply(catalog)
    grids, unusable = _uniform_grids(lanes.base_price, config.grid_points, *config.grid_span)
    # a cost fraction of a subnormal price can round up to the price
    for index in np.flatnonzero(lanes.unit_cost >= lanes.base_price).tolist():
        unusable[index] = "unit_cost must be < base_price"
    return lanes, grids, unusable


def check_products(names: list[str], errors: dict[int, str]) -> None:
    """Raise a ValueError naming the first product, in catalog order, in
    ``errors`` (``{index: reason}``), if there is one."""
    if errors:
        index = min(errors)
        raise ValueError(f"product {names[index]!r}: {errors[index]}")


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
                rows += [ComparisonRow(name, day, error=self.errors[index]) for day in DayType]
                continue
            for day, price, d, profit, p3, d3, f3, k3, ratio, rated in zip(DayType, *days):
                optima = map(Optimum, p3, d3, f3, Method, k3)
                rows.append(ComparisonRow(name, day, price, d, profit, *optima, ratio if rated else None))
        return rows


# products per chunk of the pipeline: setup, rewards, baselines, training and
# greedy evaluation run on one chunk at a time, so their arrays and the
# kernel's stay chunk-sized however large the catalog is.  train_lanes on 100k
# products at 50 episodes took 2.3 s in chunks of 2,048, against 2.3-3.1 s in
# chunks of 4,096, 3.7-3.9 s in chunks of 1,024 and 3.8 s in one call.
_CHUNK = 2048


def _zero_columns(count: int) -> Columns:
    """A ``columns_by_day`` table of ``count`` products, all zeros (False)."""
    shape = (count, len(DayType), len(Method))
    return Columns(*(np.zeros(shape, dtype=dtype) for dtype in (np.float64,) * 3 + (bool,)))


def _run_chunks(
    catalog: ProductLanes, config: ExperimentConfig, start: int, table: Columns, rl: list[np.ndarray] | None
) -> dict[int, str]:
    """Run the pipeline over contiguous chunks of ``_CHUNK`` products and
    return ``{index: reason}`` for every product that fails.

    Each chunk is set up (``prepare_products``), its usable products'
    optima are written into ``table`` (``_zero_columns``) and, when ``rl``
    is given (``compare``), its rewards are built (``reward_lanes``), and
    the products whose setup, rewards and optima are usable are trained
    (``train_lanes``, which picks the kernel per chunk) and their greedy
    price, demand and profit written into the three ``(n, 2)`` arrays of
    ``rl``.  An unusable grid or cost is a product's first error, then
    overflowing rewards, then an overflowing optimum.  ``catalog`` may be
    the part of a larger catalog that begins at catalog index ``start``;
    every product's seed comes from its catalog index.  Without ``rl``
    (``optimize``) every error is fatal, so no chunk after the first one
    with an error is run.
    """
    errors = {}
    for lo in range(0, len(catalog), _CHUNK):
        chunk = catalog.take(slice(lo, lo + _CHUNK))
        lanes, grids, failed = prepare_products(chunk, config)
        if rl is not None:
            rewards, overflow = reward_lanes(lanes, grids, config.modulation, config.hyperparams.gamma)
            for index, reason in overflow.items():
                failed.setdefault(index, reason)  # an unusable grid is the first error
        usable = [index for index in range(len(chunk)) if index not in failed]
        optima = columns_by_day(lanes.take(usable), grids[usable], config.modulation)
        for row, reason in optimize_overflow(optima).items():
            failed[usable[row]] = reason
        errors.update((lo + index, reason) for index, reason in failed.items())
        if rl is None and failed:
            break
        kept = [row for row, index in enumerate(usable) if index not in failed]
        trained = [usable[row] for row in kept]
        at = [lo + index for index in trained]
        for out, column in zip(table, optima):
            out[at] = column[kept]
        if rl is not None:
            seeds = [config.seed(start + index) for index in at]
            values = train_lanes(rewards[trained], config.hyperparams, seeds)
            for out, column in zip(rl, greedy_lanes(values, lanes.take(trained), grids[trained], config.modulation)):
                out[at] = column
    return errors


def compare_columns(catalog: ProductLanes, config: ExperimentConfig, start: int = 0) -> Comparison:
    """Train and compare every product, as arrays in catalog order.

    The products run through ``_run_chunks``, chunk by chunk: set up
    (cost policy, grid, seed, reward table), run the baselines, train, then
    read every greedy policy.  A product that fails setup, or whose
    baseline optimum overflows, gets error rows instead of aborting the
    batch and is not trained; its seed comes from its catalog index, so it
    never shifts the seeds of the others.  ``catalog`` may be the part of a
    larger catalog that begins at catalog index ``start``.  Training raises
    nothing on the products it gets, so any exception from it is a defect
    and propagates.
    """
    price, d, profit = rl = [np.zeros((len(catalog), len(DayType))) for _ in range(3)]
    baselines = _zero_columns(len(catalog))
    errors = _run_chunks(catalog, config, start, baselines, rl)
    best = baselines.profit.max(axis=-1)
    rated = best > 0
    with np.errstate(over="ignore"):
        ratio = np.divide(profit, best, out=np.zeros_like(profit), where=rated)
    return Comparison(catalog.names, price, d, profit, baselines, ratio, rated, errors)


def optimize_columns(catalog: ProductLanes, config: ExperimentConfig) -> Columns:
    """Every product's baseline optima (``optimize``), as one
    ``columns_by_day`` table in catalog order, from ``_run_chunks`` without
    training.  The first product in catalog order that cannot be set up or
    whose optimum overflows is an error naming it."""
    table = _zero_columns(len(catalog))
    check_products(catalog.names, _run_chunks(catalog, config, 0, table, None))
    return table


def run_experiment(catalog: ProductLanes, config: ExperimentConfig) -> list[ComparisonRow]:
    """Train and compare every product; rows come back in catalog order,
    as the view ``compare_columns(catalog, config).rows()``."""
    return compare_columns(catalog, config).rows()


# --- rendering -------------------------------------------------------------
# compare and optimize write each format from column lists through one
# writer: a row is one % of its format's row template on a prefix (the
# product cell and the row's slot cells) and the row's cells

REPORT_FORMATS = ("csv", "json", "markdown")
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


def _text_cells(format: str, indent: str):
    """A report format's name cells (in JSON, a row object's opening at
    ``indent`` up to the name) and its escape of error reasons, each a
    function of a list of texts; an unknown format is a ValueError."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    if format == "csv":
        return csv_quoted, csv_quoted
    if format == "markdown":
        escape, prefix = markdown_escape, "| "
    else:
        escape, prefix = encode_basestring_ascii, f'{indent}{{\n{indent}  "product": '
    return (lambda names: [prefix + escape(name) for name in names]), (lambda reasons: list(map(escape, reasons)))


def _header(format: str, columns: list[str]) -> str:
    """A CSV header line (no column name needs quoting), or a Markdown
    header line and its rule."""
    if format == "csv":
        return ",".join(columns) + "\n"
    return f"| {' | '.join(columns)} |\n|{' --- |' * len(columns)}\n"


# products per block of every report: a report is written block by block, so
# the arrays and strings held at once do not grow with the catalog
_BLOCK = 128


def _document(head: str, count: int, block, sep: str, tail: str) -> Iterator[str]:
    """``head``, then ``block(start)`` for each block of ``count`` products
    in turn, joined by ``sep``, then ``tail``."""
    yield head
    for start in range(0, count, _BLOCK):
        if start:
            yield sep
        yield block(start)
    yield tail


def _report_part(catalog: ProductLanes, config: ExperimentConfig, format: str, start: int):
    """Compare the part of a catalog that begins at catalog index ``start``:
    its rows' block function, the separator between blocks, and whether it
    has a clamped optimum, after every check of its rows."""
    result = compare_columns(catalog, config, start)
    block, sep = _report_rows(result, format)
    return block, sep, bool(result.baselines.clamped.any())


@contextlib.contextmanager
def _run_parts(catalog: ProductLanes, parts: int, part, frame) -> Iterator[Iterator[str]]:
    """The blocks of a report of ``catalog`` computed in ``parts`` contiguous
    parts, one per process.

    ``part(products, start)`` sets up, checks and computes the products that
    begin at catalog index ``start``, and returns their rows' block function,
    the separator between blocks and a status; ``frame(statuses)`` gives the
    report's head and tail from every part's status in catalog order.  Part 0
    runs in this process and each other part in a forked ``Helper``.  The
    context is entered once every part has passed its checks, so a failed run
    writes nothing; otherwise the error of the first failing part in catalog
    order is raised.  The blocks it yields stream part 0 as it renders, then
    each helper's text in turn.  Every helper is reaped when the context is
    left, on every path.
    """
    bounds = [-(-len(catalog) * k // parts) for k in range(parts + 1)]
    helpers = []

    def run(products: ProductLanes, start: int):  # a helper's part is never the first: each block follows a separator
        block, sep, status = part(products, start)
        return status, _document(sep, len(products), block, sep, "")

    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            helpers.append(Helper(functools.partial(run, catalog.take(slice(start, stop)), start)))
        # one part reads the catalog itself: a slice would copy its names
        block, sep, status = part(catalog if parts == 1 else catalog.take(slice(bounds[1])), 0)
        head, tail = frame([status, *(helper.checked() for helper in helpers)])

        def blocks() -> Iterator[str]:
            yield from _document(head, bounds[1], block, sep, "")
            for helper in helpers:
                yield from helper.text()
            yield tail

        yield blocks()
    finally:
        for helper in helpers:
            helper.close()


def _cpu_parts(catalog: ProductLanes) -> int:
    """The parts ``curve`` and ``optimize`` run in: one per usable CPU (one
    where os.sched_getaffinity is missing, as on macOS and Windows), and at
    most one per block of ``_BLOCK`` products."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, -(-len(catalog) // _BLOCK)))


def compare_report(
    catalog: ProductLanes, config: ExperimentConfig, format: str = "csv", jobs: int = 1
) -> contextlib.AbstractContextManager[Iterator[str]]:
    """A context manager giving the blocks of ``render_report(compare_columns(catalog,
    config), format, config)``, the same text, computed in up to ``jobs`` processes.

    The catalog is split into contiguous parts (``_run_parts``), one per
    process, capped at the usable CPUs and the product count.  Every part
    compares its products with the seeds of their catalog indices and the
    kernel the ``train_lanes`` rule picks for it, so every table is the same
    bits at any ``jobs``.
    """
    # an unknown format, and an episode count too large to hold for the schedule
    # every part reads, fail here, before any fork or training
    _text_cells(format, "")
    epsilon_schedule(config.hyperparams)
    parts = max(1, min(jobs, len(catalog)))
    if parts > 1:  # os.sched_getaffinity is missing on some platforms (macOS, Windows)
        if not hasattr(os, "sched_getaffinity"):
            raise ValueError("more than one job needs os.sched_getaffinity, which this platform lacks")
        parts = min(parts, len(os.sched_getaffinity(0)))
    return _run_parts(catalog, parts, lambda products, start: _report_part(products, config, format, start),
                      lambda clamped: _report_frame(format, config, bool(catalog), any(clamped)))


def _rows(line: str, names: list[str], slots: list[str], columns, errors: dict[int, str], error: str, sep="",
          start=0) -> str:
    """Each product's rows, one per slot, joined by ``sep``: ``line % (name
    + slot, *cells)``, the cells taken in turn from ``columns``, with one
    ``%`` per row; the rows of a product in ``errors`` (``{catalog index:
    escaped reason}``, ``names[0]`` at index ``start``) are ``error % (name
    + slot, reason)`` instead."""
    prefixes = [name + slot for name in names for slot in slots]
    rows = list(map(line.__mod__, zip(prefixes, *columns)))
    for index in range(len(names)):
        if start + index in errors:
            for row in range(index * len(slots), (index + 1) * len(slots)):
                rows[row] = error % (prefixes[row], errors[start + index])
    return sep.join(rows)


def _check_json(*columns: np.ndarray) -> None:
    """Raise the error ``json.dumps(allow_nan=False)`` raises for the first
    non-finite float of a document whose floats are ``columns`` (arrays of
    one shape, one product per entry of the first axis) taken entry by
    entry."""
    for start in range(0, len(columns[0]), _BLOCK):
        cells = np.stack([a[start : start + _BLOCK] for a in columns], axis=-1)
        finite = np.isfinite(cells)
        if not finite.all():
            value = cells.flat[finite.argmin()].item()
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _report_rows(result: Comparison, format: str):
    """The block function of ``result``'s report rows and the separator
    between blocks, after every check that can fail: the format, and in
    JSON every value's finiteness."""
    cells, escape = _text_cells(format, "    ")
    rl = (result.rl_price, result.rl_demand, result.rl_profit)
    flags = _DAGGER if format == "markdown" else _BOOL
    ratio_format, blank = {"csv": ("%.6f", ""), "json": ("%r", "null"), "markdown": ("%.4f", "")}[format]
    errors = dict(zip(result.errors, escape(list(result.errors.values()))))
    if format == "json":
        _check_json(*rl, *(a[..., method] for method in range(len(Method)) for a in result.baselines[:3]),
                    result.ratio)
    line, error, sep, slot = {
        "csv": (_CSV_ROW, _CSV_ERROR, "", ",%s"),
        "markdown": (_MD_ROW, _MD_ERROR, "", " | %s"),
        "json": (_JSON_ROW, _JSON_ERROR, ",\n", ',\n      "day": "%s"'),
    }[format]
    slots = [slot % day.label for day in DayType]

    def block(start: int) -> str:
        part = slice(start, start + _BLOCK)
        columns = [a[part].ravel().tolist() for a in rl]
        for method in range(len(Method)):
            price, demand, profit = (a[part, ..., method].ravel().tolist() for a in result.baselines[:3])
            flag = list(map(flags.__getitem__, result.baselines.clamped[part, ..., method].ravel().tolist()))
            columns += [price, flag, demand, profit] if format == "markdown" else [price, demand, profit, flag]
        ratios = zip(result.ratio[part].ravel().tolist(), result.rated[part].ravel().tolist())
        columns.append([ratio_format % r if rated else blank for r, rated in ratios])
        return _rows(line, cells(result.names[part]), slots, columns, errors, error, sep, start)

    return block, sep


def _report_frame(format: str, config: ExperimentConfig | None, rows: bool, clamped: bool) -> tuple[str, str]:
    """The head and the tail of a report that has ``rows`` or none, and a
    clamped optimum (an error product's flags are False) or none."""
    if format == "csv":
        return _header(format, _CSV_COLUMNS), ""
    if format == "markdown":
        return _header(format, _MD_HEADERS), "\n† optimum clamped to the search interval boundary.\n" if clamped else ""
    provenance = {} if config is None else {"config": dataclasses.asdict(config)}
    text = json.dumps({**provenance, "rows": []}, indent=2, allow_nan=False)
    # the rows replace the '[]\n}' json.dumps ends with
    return (text[: -len("[]\n}")] + "[\n", "\n  ]\n}\n") if rows else (text + "\n", "")


def render_report(result: Comparison, format: str = "csv", config: ExperimentConfig | None = None) -> str:
    """Render a comparison; prices and demands at 1 decimal, profits at 2.

    JSON output carries full precision and, when a config is supplied,
    a provenance block describing the run.  Markdown footnotes clamped
    baseline prices.  Every check that can fail runs before any row is
    formatted: the format, and in JSON every value's finiteness.
    """
    block, sep = _report_rows(result, format)
    head, tail = _report_frame(format, config, bool(result.names), bool(result.baselines.clamped.any()))
    return "".join(_document(head, len(result.names), block, sep, tail))


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


def _optimize_rows(names: list[str], table: Columns, format: str):
    """The block function of the ``optimize`` rows of a ``columns_by_day``
    table and the separator between blocks, after every check that can
    fail: the format, and in JSON every value's finiteness."""
    cells, _ = _text_cells(format, "  ")
    if format == "json":
        _check_json(*table[:3])
        line, sep = _OPTIMIZE_JSON_ROW, ",\n"
        slots = [f',\n    "day": "{day}",\n    "method": "{method}"' for day, method in _OPTIMIZE_SLOTS]
    else:
        line, cell_sep = (_OPTIMIZE_MD_ROW, " | ") if format == "markdown" else (_OPTIMIZE_CSV_ROW, ",")
        sep, slots = "", [f"{cell_sep}{day}{cell_sep}{method}" for day, method in _OPTIMIZE_SLOTS]

    def block(start: int) -> str:
        part = slice(start, start + _BLOCK)
        columns = [a[part].ravel().tolist() for a in table[:3]]
        columns.append(list(map(_BOOL.__getitem__, table.clamped[part].ravel().tolist())))
        return _rows(line, cells(names[part]), slots, columns, {}, "", sep)

    return block, sep


def _optimize_frame(format: str, rows: bool) -> tuple[str, str]:
    """The head and the tail of an ``optimize`` report that has ``rows`` or none."""
    if format == "json":
        return ("[\n", "\n]\n") if rows else ("[]\n", "")
    return _header(format, _OPTIMIZE_HEADERS if format == "markdown" else _OPTIMIZE_COLUMNS), ""


def optimize_blocks(names: list[str], table: Columns, format: str) -> Iterator[str]:
    """The ``optimize`` report of a ``columns_by_day`` table as blocks of
    ``_BLOCK`` products, one row per product, day and method; prices and
    demands at 1 decimal and profits at 2, except in JSON, which carries
    full precision.  Every check that can fail runs first: the format, and
    in JSON every value's finiteness."""
    block, sep = _optimize_rows(names, table, format)
    head, tail = _optimize_frame(format, bool(names))
    return _document(head, len(names), block, sep, tail)


def optimize_report(
    catalog: ProductLanes, config: ExperimentConfig, format: str = "csv"
) -> contextlib.AbstractContextManager[Iterator[str]]:
    """A context manager giving the blocks of ``optimize_blocks(catalog.names,
    optimize_columns(catalog, config), format)``, the same text, computed in
    ``_run_parts`` across the usable CPUs; the first product in catalog order
    that cannot be set up or whose optimum overflows is an error naming it."""
    _text_cells(format, "")  # an unknown format fails before any fork

    def part(products: ProductLanes, start: int):
        return (*_optimize_rows(products.names, optimize_columns(products, config), format), None)

    return _run_parts(catalog, _cpu_parts(catalog), part, lambda statuses: _optimize_frame(format, bool(catalog)))


def _curves(products: ProductLanes, sampled: ExperimentConfig) -> tuple:
    """The sampled prices of ``products``, their setup errors, and
    ``{multiplier: (demand, revenue, profit)}`` for each distinct day
    multiplier (equal multipliers give equal curves)."""
    lanes, prices, errors = prepare_products(products, sampled)
    curves = {}
    for mult in {sampled.modulation.multiplier(day) for day in DayType}:
        d = lanes.demand(prices, mult)
        with np.errstate(over="ignore", invalid="ignore"):
            revenue = prices * d
        curves[mult] = (d, revenue, lanes.reward(prices, d))
    return prices, errors, curves


def check_samples(samples_per_curve: int) -> None:
    """Raise a ValueError unless a revenue curve can take that many samples."""
    if samples_per_curve < 2:
        raise ValueError("samples_per_curve must be >= 2")


def _curve_part(catalog: ProductLanes, sampled: ExperimentConfig):
    """The block function of ``catalog``'s revenue-curve rows, the separator
    between blocks and no status, after a first pass that sets every product
    up and tests its curve values, formatting nothing; the first product that
    cannot be set up or whose curve overflows is an error naming it."""
    days = [(day.label, sampled.modulation.multiplier(day)) for day in DayType]
    for start in range(0, len(catalog), _BLOCK):
        products = catalog.take(slice(start, start + _BLOCK))
        _, errors, curves = _curves(products, sampled)
        finite = np.ones(len(products), dtype=bool)
        for curve in curves.values():
            finite &= np.isfinite(np.hstack(curve)).all(axis=1)
        if not finite.all():  # an unusable product keeps its setup error
            errors.setdefault(int(finite.argmin()), "revenue curve overflows")
        check_products(products.names, errors)

    def block(start: int) -> str:
        products = catalog.take(slice(start, start + _BLOCK))
        prices, _, curves = _curves(products, sampled)
        rows = {}
        for mult, (d, revenue, profit) in curves.items():
            columns = zip(prices.tolist(), d.tolist(), revenue.tolist(), profit.tolist())
            rows[mult] = [list(map("%r,%r,%r,%r".__mod__, zip(*product))) for product in columns]
        lines = []
        for i, name in enumerate(csv_quoted(products.names)):
            for label, mult in days:
                prefix = f"{name},{label},"
                lines.append(prefix + ("\n" + prefix).join(rows[mult][i]) + "\n")
        return "".join(lines)

    return block, "", None


def revenue_curve_blocks(
    catalog: ProductLanes, config: ExperimentConfig, samples_per_curve: int = 101
) -> contextlib.AbstractContextManager[Iterator[str]]:
    """A context manager giving ``export_revenue_curves``'s text as blocks of
    ``_BLOCK`` products, computed in ``_run_parts`` across the usable CPUs,
    after every check that can fail: the samples, then each part's
    ``_curve_part`` pass."""
    check_samples(samples_per_curve)
    sampled = replace(config, grid_points=samples_per_curve)
    return _run_parts(catalog, _cpu_parts(catalog), lambda products, start: _curve_part(products, sampled),
                      lambda statuses: ("product,day,price,demand,revenue,profit\n", ""))


def export_revenue_curves(
    catalog: ProductLanes, config: ExperimentConfig, samples_per_curve: int = 101
) -> str:
    """Long-format CSV of (product, day, price, demand, revenue, profit).

    Prices sample the grid span uniformly; values are written at full
    precision (``repr``) so downstream plots and checks see exactly what
    the model computed.  Products are set up as for training, with
    ``samples_per_curve`` grid points; a product that cannot be set up,
    or whose curve overflows, is an error naming it.  The text of
    ``revenue_curve_blocks``, joined.
    """
    with revenue_curve_blocks(catalog, config, samples_per_curve) as blocks:
        return "".join(blocks)
