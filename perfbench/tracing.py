"""In-process span tracing of pricelab's modules, from outside the package.

The tracer replaces public functions with timing wrappers at the module
attribute their callers look them up through (``pricelab.experiment.train``,
``pricelab._kernels.run_train_kernel``, ...), and restores them afterwards.
Each call records one span: run id, span id, parent span id, name, thread
id, start and end (wall clock), and the thread's CPU time at start and end.
Spans stay in memory until the caller writes them.

Threads started by the program (``compare --jobs N`` trains in a thread
pool) begin with an empty span stack; their top-level spans are parented
to the innermost open span of the main thread, which is the call that
started the pool.  Pool threads take turns on the interpreter lock, so
the wall time of a span there counts the other thread's work too; such a
span is timed by its thread's CPU time instead.

A target the program no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (module where callers look the function up, attribute, span name)
TARGETS = (
    ("pricelab.cli", "main", "cli.main"),
    ("pricelab.cli", "parse_catalog", "catalog.parse"),
    ("pricelab.cli", "run_experiment", "experiment.run_experiment"),
    ("pricelab.cli", "render_report", "experiment.render_report"),
    ("pricelab.cli", "export_revenue_curves", "experiment.revenue_curves"),
    ("pricelab.cli", "default_price_grid", "domain.price_grid"),
    ("pricelab.cli", "train", "qlearn.train"),
    ("pricelab.cli", "analytic_optimum", "baselines.analytic"),
    ("pricelab.cli", "grid_search_optimum", "baselines.grid_search"),
    ("pricelab.cli", "line_search_optimum", "baselines.line_search"),
    ("pricelab.experiment", "split_seed", "rng.split_seed"),
    ("pricelab.experiment", "default_price_grid", "domain.price_grid"),
    ("pricelab.experiment", "train", "qlearn.train"),
    ("pricelab.experiment", "evaluate_greedy", "qlearn.evaluate_greedy"),
    ("pricelab.experiment", "analytic_optimum", "baselines.analytic"),
    ("pricelab.experiment", "grid_search_optimum", "baselines.grid_search"),
    ("pricelab.experiment", "line_search_optimum", "baselines.line_search"),
    ("pricelab.qlearn", "epsilon_schedule", "qlearn.epsilon_schedule"),
    ("pricelab._kernels", "run_train_kernel", "kernels.train_kernel"),
)

SPAN_FIELDS = ("run", "span", "parent", "name", "thread", "start", "end", "cpu_start", "cpu_end")
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _count_parse(counts, args, kwargs, result):
    _, report = result
    counts["catalog.rows"] += len(report.outcomes)
    counts["catalog.rejected"] += len(report.rejections)


def _count_rows(counts, args, kwargs, result):
    for row in result:
        counts["qlearn.oracle_rows"] += 1
        if row.grid_search is not None and row.rl_price == row.grid_search.price:
            counts["qlearn.oracle_matches"] += 1


def _count_text(counts, args, kwargs, result):
    counts["experiment.output_bytes"] += len(result) if result.isascii() else len(result.encode())


def _count_updates(counts, args, kwargs, result):
    day_types = kwargs.get("day_types", args[2] if len(args) > 2 else ())
    schedule = kwargs.get("eps_schedule", args[4] if len(args) > 4 else ())
    counts["qlearn.q_updates"] += len(day_types) * len(schedule)


COUNTERS = {
    "catalog.parse": _count_parse,
    "experiment.run_experiment": _count_rows,
    "experiment.render_report": _count_text,
    "experiment.revenue_curves": _count_text,
    "kernels.train_kernel": _count_updates,
}


class Tracer:
    """Installs the wrappers, records spans and counts, and restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # see SPAN_FIELDS
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = next(self._ids)
            stack.append(span)
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu_end = time.thread_time()
                stack.pop()
                self.spans.append((self.run_id, span, parent, name, threading.get_ident(),
                                   start, end, cpu_start, cpu_end))
            if count is not None:
                count(self.counts[self.run_id], args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the ones that were missing."""
        missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def layer_metrics(spans: list[tuple], counts: dict[str, float], main_thread: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counts.

    A span's time is its wall time on the main thread and its thread's CPU
    time on a pool thread.  ``<span>_s`` is the total time of the spans of
    that name, children included; a self time is a span's time minus its
    children's.
    """
    def took(s: tuple) -> float:
        return s[6] - s[5] if s[4] == main_thread else s[8] - s[7]

    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        children[s[2]].append(s)

    def self_time(name: str, only: str | None = None) -> float:
        return sum(
            took(s) - sum(took(c) for c in children[s[1]] if only is None or c[3] == only)
            for s in spans
            if s[3] == name
        )

    m = {f"{name}_s": 0.0 for name in SPAN_NAMES}
    calls = defaultdict(int)
    for s in spans:
        m[f"{s[3]}_s"] += took(s)
        calls[s[3]] += 1
    kernel_s = m["kernels.train_kernel_s"]
    updates = counts.get("qlearn.q_updates", 0.0)
    oracle_rows = counts.get("qlearn.oracle_rows", 0.0)
    m.update(
        {
            "kernels.updates_per_s": updates / kernel_s if kernel_s > 0 else 0.0,
            "rng.split_seed_calls": calls["rng.split_seed"],
            "qlearn.train_self_s": self_time("qlearn.train", only="kernels.train_kernel"),
            "qlearn.q_updates": updates,
            "qlearn.oracle_match_ratio": (
                counts.get("qlearn.oracle_matches", 0.0) / oracle_rows if oracle_rows else 0.0
            ),
            "catalog.rows": counts.get("catalog.rows", 0.0),
            "catalog.rejected": counts.get("catalog.rejected", 0.0),
            "baselines.calls": sum(calls[n] for n in ("baselines.analytic", "baselines.grid_search",
                                                      "baselines.line_search")),
            "experiment.self_s": self_time("experiment.run_experiment"),
            "experiment.output_bytes": counts.get("experiment.output_bytes", 0.0),
            "cli.self_s": self_time("cli.main"),
        }
    )
    return m
