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

``report_blocks`` (``compare``) and ``optimize_blocks`` (``optimize``)
write all three formats from such arrays through one writer, ``_rows``:
each row is one ``%`` of its format's row template, and an error row
comes from its own template.  The JSON equals ``json.dumps(report,
indent=2, allow_nan=False)`` byte for byte, including the error for the
first non-finite value (``json.dumps`` uses its C encoder only without
``indent``).  These and ``revenue_curve_blocks`` (``curve``) run every
check that can fail first, then return the report as a lazy sequence of
text blocks of ``_BLOCK`` products, so a writer holds one block at a time;
``render_report``, ``render_optimize`` and ``export_revenue_curves`` are
the blocks joined into one string.

``compare_report`` (``compare``) gives ``report_blocks``' text for a
whole catalog, compared and rendered in contiguous parts, one per
process.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import tempfile
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
from .domain import DayModulation, DayType, ProductLanes, ProductSpec, _uniform_grids
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
    catalog: list[ProductSpec], config: ExperimentConfig
) -> tuple[ProductLanes, np.ndarray, dict[int, str]]:
    """Every product's costed lanes and price grid, from one build each.

    Returns the catalog's ``ProductLanes`` under the cost policy, the
    ``(len(catalog), grid_points)`` grids, and ``{index: reason}`` for every
    product that cannot be used; its lanes and grid row are placeholders.
    """
    lanes = config.cost_policy.apply(ProductLanes.of(catalog))
    grids, unusable = _uniform_grids(lanes.base_price, config.grid_points, *config.grid_span)
    # a cost fraction of a subnormal price can round up to the price
    for index in np.flatnonzero(lanes.unit_cost >= lanes.base_price).tolist():
        unusable[index] = "unit_cost must be < base_price"
    return lanes, grids, unusable


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
    catalog: list[ProductSpec], config: ExperimentConfig, start: int, table: Columns, rl: list[np.ndarray] | None
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
        chunk = catalog[lo : lo + _CHUNK]
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


def compare_columns(catalog: list[ProductSpec], config: ExperimentConfig, start: int = 0) -> Comparison:
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
    best = baselines.profit[..., 0]  # as max(analytic, grid, line): a later profit wins only if greater
    for method in range(1, len(Method)):
        best = np.where(baselines.profit[..., method] > best, baselines.profit[..., method], best)
    rated = best > 0
    with np.errstate(over="ignore"):
        ratio = np.divide(profit, best, out=np.zeros_like(profit), where=rated)
    return Comparison([spec.name for spec in catalog], price, d, profit, baselines, ratio, rated, errors)


def optimize_columns(catalog: list[ProductSpec], config: ExperimentConfig) -> Columns:
    """Every product's baseline optima (``optimize``), as one
    ``columns_by_day`` table in catalog order, from ``_run_chunks`` without
    training.  The first product in catalog order that cannot be set up or
    whose optimum overflows is an error naming it."""
    table = _zero_columns(len(catalog))
    check_products(catalog, _run_chunks(catalog, config, 0, table, None))
    return table


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


def _report_part(catalog: list[ProductSpec], config: ExperimentConfig, format: str, start: int):
    """Compare the part of a catalog that begins at catalog index ``start``:
    its rows' block function, the separator between blocks, and whether it
    has a clamped optimum, after every check of its rows."""
    result = compare_columns(catalog, config, start)
    block, sep = _report_rows(result, format)
    return block, sep, bool(result.baselines.clamped.any())


class _Helper:
    """A forked process that runs ``_report_part`` on one part of a catalog.

    It sends the part's clamped flag, or the exception of a failed check,
    through a pipe as soon as its checks end, then renders its rows into
    an unlinked temporary file and exits.  Its part is never the first, so
    each of its blocks follows a separator.
    """

    def __init__(self, catalog: list[ProductSpec], config: ExperimentConfig, format: str, start: int):
        self.out = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        self.status, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (self.status, write):
                os.close(fd)
            self.out.close()
            raise
        if self.pid == 0:
            code = 1
            try:  # the helper leaves only through os._exit, so it flushes none of the parent's buffers
                try:
                    block, sep, status = _report_part(catalog, config, format, start)
                except Exception as exc:
                    status = exc
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(status))
                if not isinstance(status, Exception):
                    self.out.writelines(_document(sep, len(catalog), block, sep, ""))
                    self.out.flush()
                    code = 0
            finally:
                os._exit(code)
        os.close(write)  # so the pipe ends when the helper closes it, and no later helper holds it

    def checked(self) -> bool:
        """Whether the part has a clamped optimum, once its checks have
        passed; a failed check raises its error here."""
        with open(self.status, "rb") as pipe:
            self.status = None
            data = pipe.read()
        if not data:
            raise ChildProcessError(f"a compare helper process exited with status {self._wait()}")
        status = pickle.loads(data)
        if isinstance(status, Exception):
            raise status
        return status

    def text(self) -> Iterator[str]:
        """The part's rendered text, in chunks, once the helper has exited."""
        code = self._wait()
        if code:
            raise ChildProcessError(f"a compare helper process exited with status {code}")
        self.out.seek(0)
        yield from iter(lambda: self.out.read(1 << 16), "")

    def _wait(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def close(self) -> None:
        """Stop the helper if it still runs (its text is not wanted), reap
        it, and release its pipe and file."""
        if self.pid is not None:
            import signal  # imported where it is used, so importing pricelab loads no module numpy does not

            os.kill(self.pid, signal.SIGKILL)
            self._wait()
        if self.status is not None:
            os.close(self.status)
        self.out.close()


@contextlib.contextmanager
def compare_report(
    catalog: list[ProductSpec], config: ExperimentConfig, format: str = "csv", jobs: int = 1
) -> Iterator[Iterator[str]]:
    """``report_blocks(compare_columns(catalog, config), format, config)``,
    the same text, computed in up to ``jobs`` processes.

    The catalog is split into contiguous parts, one per process, capped at
    the usable CPUs and the product count.  Part 0 runs in this process and
    each other part in a forked ``_Helper``; every part compares its
    products with the seeds of their catalog indices and the kernel the
    ``train_lanes`` rule picks for it, so every table is the same bits at
    any ``jobs``.  The context is entered once every part has passed its
    checks, so a failed run writes nothing; otherwise the error of the
    first failing part in catalog order is raised.  The blocks it yields
    stream part 0 as it renders, then each helper's text in turn.  Every
    helper is reaped when the context is left, on every path.
    """
    # every part reads this schedule, and an episode count too large to hold fails here, before any fork
    epsilon_schedule(config.hyperparams)
    parts = max(1, min(jobs, len(catalog)))
    if parts > 1:  # os.sched_getaffinity is missing on some platforms (macOS, Windows)
        if not hasattr(os, "sched_getaffinity"):
            raise ValueError("more than one job needs os.sched_getaffinity, which this platform lacks")
        parts = min(parts, len(os.sched_getaffinity(0)))
    bounds = [-(-len(catalog) * k // parts) for k in range(parts + 1)]
    helpers = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            helpers.append(_Helper(catalog[start:stop], config, format, start))
        block, sep, clamped = _report_part(catalog[: bounds[1]], config, format, 0)
        for helper in helpers:
            clamped |= helper.checked()
        head, tail = _report_frame(format, config, bool(catalog), clamped)

        def blocks() -> Iterator[str]:
            yield from _document(head, bounds[1], block, sep, "")
            for helper in helpers:
                yield from helper.text()
            yield tail

        yield blocks()
    finally:
        for helper in helpers:
            helper.close()


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
    if format not in ("csv", "json", "markdown"):
        raise ValueError(f"unknown report format {format!r}")
    rl = (result.rl_price, result.rl_demand, result.rl_profit)
    flags = _DAGGER if format == "markdown" else _BOOL
    ratio_format, blank = {"csv": ("%.6f", ""), "json": ("%r", "null"), "markdown": ("%.4f", "")}[format]
    days = [day.label for day in _DAYS]
    reasons = list(result.errors.values())
    sep = ""
    if format == "csv":
        line, error = _CSV_ROW, _CSV_ERROR
        cells, slots = csv_quoted, [f",{day}" for day in days]
        errors = dict(zip(result.errors, csv_quoted(reasons)))
    elif format == "markdown":
        line, error = _MD_ROW, _MD_ERROR
        cells, slots = lambda names: [f"| {markdown_escape(name)}" for name in names], [f" | {day}" for day in days]
        errors = dict(zip(result.errors, map(markdown_escape, reasons)))
    else:
        _check_json(*rl, *(a[..., method] for method in range(len(Method)) for a in result.baselines[:3]),
                    result.ratio)
        line, error, sep = _JSON_ROW, _JSON_ERROR, ",\n"
        cells = lambda names: [f'    {{\n      "product": {name}' for name in map(encode_basestring_ascii, names)]
        slots = [f',\n      "day": "{day}"' for day in days]
        errors = dict(zip(result.errors, map(encode_basestring_ascii, reasons)))

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


def report_blocks(result: Comparison, format: str = "csv", config: ExperimentConfig | None = None) -> Iterator[str]:
    """``render_report``'s text as blocks of ``_BLOCK`` products, after
    every check that can fail: the format, and in JSON every value's
    finiteness."""
    block, sep = _report_rows(result, format)
    head, tail = _report_frame(format, config, bool(result.names), bool(result.baselines.clamped.any()))
    return _document(head, len(result.names), block, sep, tail)


def render_report(result: Comparison, format: str = "csv", config: ExperimentConfig | None = None) -> str:
    """Render a comparison; prices and demands at 1 decimal, profits at 2.

    JSON output carries full precision and, when a config is supplied,
    a provenance block describing the run.  Markdown footnotes clamped
    baseline prices.  The text of ``report_blocks``, joined.
    """
    return "".join(report_blocks(result, format, config))


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


def optimize_blocks(names: list[str], table: Columns, format: str) -> Iterator[str]:
    """``render_optimize``'s text as blocks of ``_BLOCK`` products, after
    every check that can fail: in JSON, every value's finiteness."""
    sep, tail = "", ""
    if format == "json":
        _check_json(*table[:3])
        head, tail = ("[\n", "\n]\n") if names else ("[]\n", "")
        line, sep = _OPTIMIZE_JSON_ROW, ",\n"
        cells = lambda names: [f'  {{\n    "product": {name}' for name in map(encode_basestring_ascii, names)]
        slots = [f',\n    "day": "{day}",\n    "method": "{method}"' for day, method in _OPTIMIZE_SLOTS]
    else:
        if format == "markdown":
            head, line, cell_sep = _header(format, _OPTIMIZE_HEADERS), _OPTIMIZE_MD_ROW, " | "
            cells = lambda names: [f"| {markdown_escape(name)}" for name in names]
        else:
            head, line, cell_sep = _header("csv", _OPTIMIZE_COLUMNS), _OPTIMIZE_CSV_ROW, ","
            cells = csv_quoted
        slots = [f"{cell_sep}{day}{cell_sep}{method}" for day, method in _OPTIMIZE_SLOTS]

    def block(start: int) -> str:
        part = slice(start, start + _BLOCK)
        columns = [a[part].ravel().tolist() for a in table[:3]]
        columns.append(list(map(_BOOL.__getitem__, table.clamped[part].ravel().tolist())))
        return _rows(line, cells(names[part]), slots, columns, {}, "", sep)

    return _document(head, len(names), block, sep, tail)


def render_optimize(names: list[str], table: Columns, format: str) -> str:
    """The ``optimize`` report of a ``columns_by_day`` table, one row per
    product, day and method; prices and demands at 1 decimal and profits at
    2, except in JSON, which carries full precision.  The text of
    ``optimize_blocks``, joined."""
    return "".join(optimize_blocks(names, table, format))


def _curves(specs: list[ProductSpec], sampled: ExperimentConfig) -> tuple:
    """The sampled prices of ``specs``, their setup errors, and ``{multiplier:
    (demand, revenue, profit)}`` for each distinct day multiplier (equal
    multipliers give equal curves)."""
    lanes, prices, errors = prepare_products(specs, sampled)
    curves = {}
    for mult in {sampled.modulation.multiplier(day) for day in _DAYS}:
        d = lanes.demand(prices, mult)
        with np.errstate(over="ignore", invalid="ignore"):
            revenue = prices * d
        curves[mult] = (d, revenue, lanes.reward(prices, d))
    return prices, errors, curves


def revenue_curve_blocks(
    catalog: list[ProductSpec], config: ExperimentConfig, samples_per_curve: int = 101
) -> Iterator[str]:
    """``export_revenue_curves``'s text as blocks of ``_BLOCK`` products,
    after every check that can fail: a first pass sets every product up and
    tests its curve values, with nothing formatted, and the first product
    that cannot be set up or whose curve overflows is an error naming it."""
    if samples_per_curve < 2:
        raise ValueError("samples_per_curve must be >= 2")
    sampled = replace(config, grid_points=samples_per_curve)
    days = [(day.label, config.modulation.multiplier(day)) for day in _DAYS]
    for start in range(0, len(catalog), _BLOCK):
        specs = catalog[start : start + _BLOCK]
        _, errors, curves = _curves(specs, sampled)
        finite = np.ones(len(specs), dtype=bool)
        for curve in curves.values():
            finite &= np.isfinite(np.hstack(curve)).all(axis=1)
        if not finite.all():  # an unusable product keeps its setup error
            errors.setdefault(int(finite.argmin()), "revenue curve overflows")
        check_products(specs, errors)

    def block(start: int) -> str:
        specs = catalog[start : start + _BLOCK]
        prices, _, curves = _curves(specs, sampled)
        rows = {}
        for mult, (d, revenue, profit) in curves.items():
            columns = zip(prices.tolist(), d.tolist(), revenue.tolist(), profit.tolist())
            rows[mult] = [list(map("%r,%r,%r,%r".__mod__, zip(*product))) for product in columns]
        lines = []
        for i, name in enumerate(csv_quoted([spec.name for spec in specs])):
            for label, mult in days:
                prefix = f"{name},{label},"
                lines.append(prefix + ("\n" + prefix).join(rows[mult][i]) + "\n")
        return "".join(lines)

    return _document("product,day,price,demand,revenue,profit\n", len(catalog), block, "", "")


def export_revenue_curves(
    catalog: list[ProductSpec], config: ExperimentConfig, samples_per_curve: int = 101
) -> str:
    """Long-format CSV of (product, day, price, demand, revenue, profit).

    Prices sample the grid span uniformly; values are written at full
    precision (``repr``) so downstream plots and checks see exactly what
    the model computed.  Products are set up as for training, with
    ``samples_per_curve`` grid points; a product that cannot be set up,
    or whose curve overflows, is an error naming it.  The text of
    ``revenue_curve_blocks``, joined.
    """
    return "".join(revenue_curve_blocks(catalog, config, samples_per_curve))
