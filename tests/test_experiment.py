import csv
import dataclasses
import io
import json
import math
import random
import re

import numpy as np
import pytest

from pricelab.baselines import Columns, Method
from pricelab.catalog import sample_catalog
from pricelab.domain import DayModulation, DayType, ProductLanes, ProductSpec, default_price_grid
from pricelab.experiment import (
    _CSV_COLUMNS,
    _MD_HEADERS,
    Comparison,
    ComparisonRow,
    CostPolicy,
    ExperimentConfig,
    compare_columns,
    compare_report,
    export_revenue_curves,
    optimize_blocks,
    prepare_products,
    render_report,
    run_experiment,
)
from pricelab.qlearn import Hyperparams
from pricelab.rng import split_seed

S24 = ProductSpec(name='Samsung 24" HD', base_demand=80.0, base_price=109.2, elasticity=-0.5)


def quick_config(**kw):
    base = dict(
        hyperparams=Hyperparams(episodes=300),
        cost_policy=CostPolicy("zero"),
        master_seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestCostPolicy:
    def test_kinds(self):
        lanes = ProductLanes.of([ProductSpec(name="x", base_demand=10.0, base_price=100.0, elasticity=-1.0, unit_cost=20.0)])
        assert CostPolicy("catalog").apply(lanes).unit_cost.item() == 20.0
        assert CostPolicy("zero").apply(lanes).unit_cost.item() == 0.0
        assert CostPolicy("fraction", 0.3).apply(lanes).unit_cost.item() == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostPolicy("discounted")
        with pytest.raises(ValueError):
            CostPolicy("fraction", 1.0)
        with pytest.raises(ValueError):
            CostPolicy("fraction", -0.1)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.grid_points == 21
        assert config.grid_span == (0.5, 2.0)
        assert config.modulation == DayModulation()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid_span=(2.0, 0.5))
        with pytest.raises(ValueError):
            ExperimentConfig(grid_span=(0.0, 2.0))
        with pytest.raises(ValueError):
            ExperimentConfig(grid_points=1)
        for span in ((0.5, float("inf")), (float("nan"), 2.0), (0.5, float("nan"))):
            with pytest.raises(ValueError):
                ExperimentConfig(grid_span=span)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                ExperimentConfig(master_seed=seed)

    @pytest.mark.parametrize("field, value", [("grid_points", 2.5), ("master_seed", 0.5), ("grid_points", False)])
    def test_integer_fields_reject_other_values(self, field, value):
        # a 2.5-point grid would otherwise run on 3 points, and a 0.5 seed fail inside split_seed
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(**{field: value})
        assert str(excinfo.value) == f"{field} must be an integer, got {value!r}"


class TestSeedSplitting:
    def test_matches_documented_function(self):
        config = quick_config(master_seed=12345)
        for i in range(14):
            assert config.seeded(i) == Hyperparams(episodes=300, seed=split_seed(12345, i))

    def test_distinct_per_product(self):
        seeds = [quick_config().seeded(i).seed for i in range(14)]
        assert len(set(seeds)) == 14


class TestPrepareProducts:
    def test_costs_and_grids_in_one_call(self, sample_specs):
        config = quick_config(cost_policy=CostPolicy("fraction", 0.4), grid_points=11, grid_span=(0.4, 2.5))
        lanes, grids, unusable = prepare_products(ProductLanes.of(sample_specs), config)
        assert unusable == {}
        columns = np.hstack([lanes.base_demand, lanes.base_price, lanes.elasticity, lanes.unit_cost])
        assert columns.tolist() == [[s.base_demand, s.base_price, s.elasticity, 0.4 * s.base_price] for s in sample_specs]
        rows = [default_price_grid(spec, 11, 0.4, 2.5).prices for spec in sample_specs]
        assert grids.tobytes() == np.array(rows).tobytes()

    def test_reports_every_unusable_product(self):
        catalog = [S24, ProductSpec("Huge", 1.0, 1.7e308, -0.5), S24, ProductSpec("Tiny", 10.0, 5e-324, -1.0)]
        _, _, unusable = prepare_products(ProductLanes.of(catalog), quick_config())
        assert unusable == {1: "grid upper bound 2.0 * base_price overflows", 3: "prices must be > 0"}
        # a cost fraction of a subnormal price can round up to the price itself
        sub = ProductSpec("Sub", 10.0, 1e-320, -1.0)
        config = quick_config(grid_points=2, cost_policy=CostPolicy("fraction", 0.99999))
        _, _, unusable = prepare_products(ProductLanes.of([sub]), config)
        assert unusable == {0: "unit_cost must be < base_price"}

    def test_every_unusable_product_becomes_error_rows(self):
        catalog = [S24, ProductSpec("Huge", 1.0, 1.7e308, -0.5), ProductSpec("Tiny", 10.0, 5e-324, -1.0)]
        rows = run_experiment(ProductLanes.of(catalog), quick_config())
        assert [(r.product_name, r.error) for r in rows[2:]] == [
            ("Huge", "grid upper bound 2.0 * base_price overflows")] * 2 + [("Tiny", "prices must be > 0")] * 2
        assert rows[:2] == run_experiment(ProductLanes.of([S24]), quick_config())


class TestRunExperiment:
    def test_cardinality_and_order(self, sample_specs):
        rows = run_experiment(ProductLanes.of(sample_specs), quick_config())
        assert len(rows) == 28
        assert [r.product_name for r in rows[:4]] == [
            sample_specs[0].name,
            sample_specs[0].name,
            sample_specs[1].name,
            sample_specs[1].name,
        ]
        assert [r.day_type for r in rows[:2]] == [DayType.WEEKDAY, DayType.WEEKEND]

    def test_deterministic(self, sample_specs):
        config = quick_config()
        catalog = ProductLanes.of(sample_specs[:3])
        assert run_experiment(catalog, config) == run_experiment(catalog, config)

    @pytest.mark.parametrize(
        "config",
        [
            quick_config(),
            quick_config(
                hyperparams=Hyperparams(episodes=300, steps_per_episode=10, alpha=0.3, gamma=0.7),
                modulation=DayModulation(1.0, 1.2),
                cost_policy=CostPolicy("fraction", 0.4),
                master_seed=2**63 + 7,
            ),
        ],
        ids=["zero-cost", "fraction-weekend-uplift"],
    )
    def test_lockstep_rows_equal_per_product_training(self, config, monkeypatch):
        from pricelab import _kernels, qlearn

        catalog = [
            ProductSpec(name=f"P{i}", base_demand=20.0 + 7 * i, base_price=30.0 + 11 * i,
                        elasticity=-0.3 - 0.4 * (i % 9), unit_cost=0.3 * (i % 3) * (30.0 + 11 * i))
            for i in range(qlearn.LOCKSTEP_MIN_PRODUCTS + 3)
        ]
        # fails setup: its rewards overflow
        catalog.insert(5, ProductSpec(name="Big", base_demand=1e307, base_price=100.0, elasticity=-0.5))

        def no_scalar_training(*args, **kwargs):
            raise AssertionError("trained product by product")

        with monkeypatch.context() as m:
            m.setattr(_kernels, "run_train_kernel", no_scalar_training)
            lockstep = run_experiment(ProductLanes.of(catalog), config)
        monkeypatch.setattr(qlearn, "LOCKSTEP_MIN_PRODUCTS", len(catalog) + 1)
        assert lockstep == run_experiment(ProductLanes.of(catalog), config)
        assert [r.error is not None for r in lockstep].count(True) == 2
        assert "rewards overflow" in lockstep[10].error

    def test_empty_catalog_gives_empty_reports(self, monkeypatch):
        # a header, a bare table or an empty list of rows, on both paths
        from pricelab import qlearn

        config = quick_config()
        for threshold in (0, 10**9):
            monkeypatch.setattr(qlearn, "LOCKSTEP_MIN_PRODUCTS", threshold)
            result = compare_columns(ProductLanes.of([]), config)
            assert result.names == [] and result.rl_price.shape == (0, 2) and result.errors == {}
            assert result.rows() == []
            for fmt in ("csv", "json", "markdown"):
                assert render_report(result, fmt, config) == oracle_report([], fmt, config)

    def test_defect_propagates(self, sample_specs, monkeypatch):
        # only setup errors become rows; an exception from training is a bug
        from pricelab import _kernels

        def broken_train(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(_kernels, "run_train_kernel", broken_train)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(ProductLanes.of(sample_specs[:2]), quick_config())

    def test_rl_matches_grid_search_at_full_defaults(self, sample_specs):
        config = ExperimentConfig(cost_policy=CostPolicy("zero"))
        rows = run_experiment(ProductLanes.of(sample_specs[:2]), config)
        for row in rows:
            assert row.rl_price == row.grid_search.price
            assert row.rl_profit >= 0.999 * row.grid_search.profit
            assert row.rl_vs_best_profit_ratio <= 1.0 + 1e-12

    def test_ratio_well_defined_for_positive_profits(self):
        rows = run_experiment(ProductLanes.of([S24]), quick_config())
        assert all(r.rl_vs_best_profit_ratio is not None for r in rows)
        assert all(0 < r.rl_vs_best_profit_ratio <= 1.0 + 1e-12 for r in rows)


@pytest.fixture(scope="module")
def result(sample_specs):
    # MU6290 (index 4) clamps at the default span; include it
    return compare_columns(ProductLanes.of([sample_specs[0], sample_specs[4]]), quick_config())


@pytest.fixture(scope="module")
def rows(result):
    return result.rows()


def comparison(names, errors=(), **values):
    """A ``Comparison`` of ``len(names)`` products, rated, with no clamped
    optimum and 1.0 in every float, except for the arrays ``values`` gives;
    the products in ``errors`` ({index: reason}) hold zeros, as
    ``compare_columns`` writes them."""
    n = len(names)
    floats = {key: values.get(key, np.ones((n, 2))) for key in ("rl_price", "rl_demand", "rl_profit", "ratio")}
    baselines = values.get("baselines", Columns(*(np.ones((n, 2, 3)) for _ in range(3)), np.zeros((n, 2, 3), bool)))
    rated = values.get("rated", np.ones((n, 2), bool))
    errors = dict(errors)
    for a in (*floats.values(), *baselines, rated):
        a[list(errors)] = 0
    return Comparison(list(names), baselines=baselines, rated=rated, errors=errors, **floats)


class TestCompareColumns:
    def test_rows_are_a_view(self, sample_specs):
        catalog = [*sample_specs[:3], ProductSpec("Huge", 1.0, 1.7e308, -0.5)]
        result = compare_columns(ProductLanes.of(catalog), quick_config())
        assert result.rows() == run_experiment(ProductLanes.of(catalog), quick_config())
        assert result.names == [spec.name for spec in catalog]
        assert result.errors == {3: "grid upper bound 2.0 * base_price overflows"}
        assert result.rl_price.shape == result.ratio.shape == result.rated.shape == (4, 2)
        assert result.baselines.profit.shape == (4, 2, 3)
        # an error product holds zeros and is not rated
        for a in (result.rl_price, result.rl_demand, result.rl_profit, *result.baselines, result.ratio, result.rated):
            assert not a[3].any()

    def test_ratio_over_the_first_best_baseline_profit(self, sample_specs, monkeypatch):
        import pricelab.experiment as experiment

        # per product and day: analytic, grid-search and line-search profit
        profits = [(1.0, 2.0, 3.0), (3.0, 2.0, 1.0), (2.0, 5.0, 5.0), (0.0, -0.0, 0.0), (-1.0, -2.0, -0.5),
                   (-0.0, 0.0, 5e-324)]
        real = experiment.columns_by_day

        def crafted(specs, grids, modulation):
            table = real(specs, grids, modulation)
            table.profit[:] = np.array(profits).reshape(table.profit.shape)
            return table

        monkeypatch.setattr(experiment, "columns_by_day", crafted)
        rows = run_experiment(ProductLanes.of(sample_specs[:3]), quick_config())
        for row, want in zip(rows, profits, strict=True):
            best = max(want)
            assert (row.analytic.profit, row.grid_search.profit, row.line_search.profit) == want
            ratio = row.rl_profit / best if best > 0 else None
            assert repr(row.rl_vs_best_profit_ratio) == repr(ratio)


def chunked_catalog(bad_rows=True):
    """148 products: with chunks of ``LOCKSTEP_MIN_PRODUCTS`` (64), the first
    chunk holds an unusable grid, overflowing rewards and an overflowing
    optimum and trains fewer than 64 products, the second trains 64 and the
    third is short."""
    catalog = [
        ProductSpec(name=f"P{i}", base_demand=20.0 + 7 * i, base_price=30.0 + 11 * i,
                    elasticity=-0.3 - 0.4 * (i % 9), unit_cost=0.3 * (i % 3) * (30.0 + 11 * i))
        for i in range(148)
    ]
    if bad_rows:
        catalog[5] = ProductSpec("Huge", 1.0, 1.7e308, -0.5)
        catalog[6] = ProductSpec("Big", 1e307, 100.0, -0.5)
        catalog[7] = ProductSpec("Edge", 1.7978e154, 1e154, -1.0)  # rewards finite at gamma 0, optimum not
    return catalog


class TestChunks:
    """``compare_columns`` and ``optimize_columns`` run their products in
    contiguous chunks of ``experiment._CHUNK``; no result may depend on
    where the chunks end."""

    SIZES = (1, 5, 64)
    # test_golden.py's "uplift-cost" setting
    UPLIFT_COST = dict(modulation=DayModulation(1.0, 1.2), cost_policy=CostPolicy("fraction", 0.4))

    @pytest.mark.parametrize("kernel", ["lockstep", "scalar", "rule"])
    def test_tables_bitwise_equal_across_chunk_sizes(self, kernel, monkeypatch):
        import pricelab.experiment as experiment
        from pricelab import _kernels, qlearn

        if kernel != "rule":
            monkeypatch.setattr(qlearn, "LOCKSTEP_MIN_PRODUCTS", 1 if kernel == "lockstep" else 10**9)
        catalog = chunked_catalog()
        default_size = experiment._CHUNK
        calls, lockstep = [], []
        train_lanes, run_lockstep_kernel = experiment.train_lanes, _kernels.run_lockstep_kernel

        def recording_train_lanes(rewards, hp, seeds):
            values = train_lanes(rewards, hp, seeds)
            calls.append((seeds, values))
            return values

        def recording_lockstep(rewards, *args):
            lockstep.append(len(rewards))
            return run_lockstep_kernel(rewards, *args)

        monkeypatch.setattr(experiment, "train_lanes", recording_train_lanes)
        monkeypatch.setattr(_kernels, "run_lockstep_kernel", recording_lockstep)
        bad_rows = {5: "grid upper bound 2.0 * base_price overflows",
                    6: "rewards overflow: max |reward| / (1 - gamma) is inf"}
        settings = [  # (episodes, setting, errors): Edge's optimum overflows only at zero cost
            (60, dict(modulation=DayModulation(0.8, 1.0)), {**bad_rows, 7: "Analytic optimum overflows"}),
            (20, self.UPLIFT_COST, bad_rows),
        ]
        for episodes, setting, errors in settings:
            config = quick_config(hyperparams=Hyperparams(episodes=episodes, gamma=0.0), **setting)
            runs = {}
            for size in (default_size, *self.SIZES):
                monkeypatch.setattr(experiment, "_CHUNK", size)
                calls.clear()
                lockstep.clear()
                result = compare_columns(ProductLanes.of(catalog), config)
                assert max(len(seeds) for seeds, _ in calls) <= size
                seeds = [seed for part, _ in calls for seed in part]
                runs[size] = result, seeds, np.concatenate([values for _, values in calls])
                if kernel == "rule" and size == 64:
                    assert lockstep == [64]  # the second chunk; the others train product by product
            whole, seeds, values = runs.pop(default_size)
            assert seeds == [config.seed(i) for i in range(len(catalog)) if i not in errors]
            assert whole.errors == errors
            for size, (result, chunk_seeds, chunk_values) in runs.items():
                assert chunk_seeds == seeds and chunk_values.tobytes() == values.tobytes(), size
                assert result.errors == whole.errors and result.names == whole.names, size
                for got, want in zip(arrays(result), arrays(whole)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), size

    def test_optimize_columns_equal_across_chunk_sizes(self, monkeypatch):
        import pricelab.experiment as experiment

        catalog = chunked_catalog(bad_rows=False)
        default_size = experiment._CHUNK
        for setting in (dict(modulation=DayModulation(1.0, 1.2)), self.UPLIFT_COST):
            monkeypatch.setattr(experiment, "_CHUNK", default_size)
            whole = experiment.optimize_columns(ProductLanes.of(catalog), quick_config(**setting))
            assert whole.profit.shape == (len(catalog), 2, 3)
            for size in self.SIZES:
                monkeypatch.setattr(experiment, "_CHUNK", size)
                table = experiment.optimize_columns(ProductLanes.of(catalog), quick_config(**setting))
                for got, want in zip(table, whole):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), size
            # the same optima compare reports next to the trained policies
            trained_once = quick_config(hyperparams=Hyperparams(episodes=1), **setting)
            for got, want in zip(compare_columns(ProductLanes.of(catalog), trained_once).baselines, whole):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_optimize_names_the_first_failing_product_after_a_boundary(self, size, monkeypatch):
        import pricelab.experiment as experiment

        monkeypatch.setattr(experiment, "_CHUNK", size)
        catalog = chunked_catalog(bad_rows=False)
        # the first product of the second chunk overflows; an unusable grid follows in the same chunk
        # (or the next) and another in the chunk after
        catalog[size] = ProductSpec("Big", 1e307, 100.0, -0.5)
        catalog[size + 1] = ProductSpec("Huge", 1.0, 1.7e308, -0.5)
        catalog[2 * size + 2] = ProductSpec("Tiny", 10.0, 5e-324, -1.0)
        with pytest.raises(ValueError, match=r"^product 'Big': GridSearch optimum overflows$"):
            experiment.optimize_columns(ProductLanes.of(catalog), quick_config())
        result = compare_columns(ProductLanes.of(catalog), quick_config(hyperparams=Hyperparams(episodes=5)))
        assert result.errors == {size: "rewards overflow: max |reward| / (1 - gamma) is inf",
                                 size + 1: "grid upper bound 2.0 * base_price overflows",
                                 2 * size + 2: "prices must be > 0"}


def arrays(result):
    return (result.rl_price, result.rl_demand, result.rl_profit, *result.baselines, result.ratio, result.rated)


class TestRenderReport:
    def test_csv_shape_and_formatting(self, result, rows):
        text = render_report(result, "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0][:5] == ["product", "day", "rl_optimal_price", "rl_optimal_demand", "rl_profit"]
        assert len(parsed) == 1 + len(rows)
        first = parsed[1]
        assert first[0] == 'Samsung 24" HD'
        assert first[1] == "Weekday"
        # one decimal for price/demand, two for profit
        assert first[2].count(".") == 1 and len(first[2].split(".")[1]) == 1
        assert len(first[4].split(".")[1]) == 2

    def test_empty_result_header_only(self):
        text = render_report(comparison([]), "csv")
        assert text.splitlines() == [render_report(comparison([]), "csv").splitlines()[0]]

    def test_csv_deterministic(self, result):
        assert render_report(result, "csv") == render_report(result, "csv")

    def test_json_full_precision_round_trip(self, result, rows):
        config = quick_config()
        doc = json.loads(render_report(result, "json", config))
        assert doc["config"]["master_seed"] == 0
        assert doc["config"]["hyperparams"]["episodes"] == 300
        assert doc["config"]["cost_policy"]["kind"] == "zero"
        for row, rendered in zip(rows, doc["rows"], strict=True):
            assert rendered["rl"]["price"] == row.rl_price
            assert rendered["rl"]["profit"] == row.rl_profit
            assert rendered["analytic"]["price"] == row.analytic.price
            assert rendered["grid_search"]["clamped"] == row.grid_search.clamped

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(),
            ExperimentConfig(
                hyperparams=Hyperparams(episodes=300, steps_per_episode=10, alpha=0.3, gamma=0.7, seed=3),
                grid_points=11,
                grid_span=(0.25, 3.0),
                modulation=DayModulation(1.0, 1.2),
                cost_policy=CostPolicy("fraction", 0.4),
                master_seed=2**63 + 7,
            ),
        ],
        ids=["default", "non-default"],
    )
    def test_json_config_block_spells_out_every_field(self, config):
        hp = config.hyperparams
        block = {
            "hyperparams": {
                "alpha": hp.alpha, "gamma": hp.gamma, "epsilon_start": hp.epsilon_start,
                "epsilon_min": hp.epsilon_min, "epsilon_decay": hp.epsilon_decay, "episodes": hp.episodes,
                "steps_per_episode": hp.steps_per_episode, "seed": hp.seed,
            },
            "grid_points": config.grid_points,
            "grid_span": list(config.grid_span),
            "modulation": {"weekday": config.modulation.weekday, "weekend": config.modulation.weekend},
            "cost_policy": {"kind": config.cost_policy.kind, "fraction": config.cost_policy.fraction},
            "master_seed": config.master_seed,
        }
        expected = json.dumps({"config": block, "rows": []}, indent=2) + "\n"
        assert render_report(comparison([]), "json", config) == expected

    def test_json_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            render_report(comparison(["x"], rl_profit=np.array([[1.0, math.inf]])), "json")

    def test_markdown_headers_and_footnote(self, result):
        text = render_report(result, "markdown")
        header = text.splitlines()[0]
        assert "Optimal Price" in header
        assert "Optimal Demand" in header
        assert "†" in text  # MU6290's analytic optimum clamps at the span edge
        assert "clamped" in text

    def test_markdown_footnote_marks_any_clamped_optimum(self):
        footer = "\n† optimum clamped to the search interval boundary.\n"
        assert not render_report(comparison(["x", "y"]), "markdown").endswith(footer)
        for day in range(2):
            for method in range(len(Method)):
                result = comparison(["x", "y"])
                result.baselines.clamped[1, day, method] = True
                text = render_report(result, "markdown")
                assert text.endswith(footer) and text.count("†") == 2, (day, method)

    def test_markdown_renders_error_rows(self):
        assert "error: boom" in render_report(comparison(["x"], {0: "boom"}), "markdown")

    def test_markdown_escapes_every_cell(self):
        # a reward-overflow message and a product name, each holding a literal |
        error = "rewards overflow: max |reward| / (1 - gamma) is inf"
        lines = render_report(comparison(["c|d", "a|b"], {1: error}), "markdown").splitlines()
        # a table line is "| cell | ... |": the unescaped pipes bound 15 cells
        counts = [len(re.split(r"(?<!\\)\|", line)) - 2 for line in lines[:6]]
        assert counts == [15] * 6
        assert r"error: rewards overflow: max \|reward\| / (1 - gamma) is inf" in lines[4]
        assert lines[2].startswith(r"| c\|d |") and lines[4].startswith(r"| a\|b |")

    def test_unknown_format_rejected(self, result):
        with pytest.raises(ValueError):
            render_report(result, "xml")

    def test_every_writer_rejects_an_unknown_format_before_any_work(self, sample_specs, monkeypatch):
        import os

        import pricelab.experiment as experiment

        message = "^unknown report format 'xml'$"
        table = comparison(["x", "y"]).baselines
        with pytest.raises(ValueError, match=message):
            "".join(optimize_blocks(["x", "y"], table, "xml"))

        def no_work(*args):
            raise AssertionError("work began before the format was checked")

        monkeypatch.setattr(os, "fork", no_work)
        monkeypatch.setattr(experiment, "train_lanes", no_work)
        catalog = ProductLanes.of(sample_specs)
        for jobs in (1, 2):
            with pytest.raises(ValueError, match=message), compare_report(catalog, quick_config(), "xml", jobs):
                pass


# --- report renderer oracle ---------------------------------------------------


def _f1(v: float | None) -> str:
    return "" if v is None else f"{v:.1f}"


def _f2(v: float | None) -> str:
    return "" if v is None else f"{v:.2f}"


def oracle_csv_cells(row: ComparisonRow) -> list[str]:
    cells = [row.product_name, row.day_type.label, _f1(row.rl_price), _f1(row.rl_demand), _f2(row.rl_profit)]
    for opt in (row.analytic, row.grid_search, row.line_search):
        if opt is None:
            cells += ["", "", "", ""]
        else:
            cells += [_f1(opt.price), _f1(opt.demand), _f2(opt.profit), str(opt.clamped).lower()]
    ratio = "" if row.rl_vs_best_profit_ratio is None else f"{row.rl_vs_best_profit_ratio:.6f}"
    cells += [ratio, row.error or ""]
    return cells


def oracle_md_cells(row: ComparisonRow) -> list[str]:
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
    return [cell.replace("|", "\\|") for cell in cells]


def oracle_row_as_dict(row: ComparisonRow) -> dict:
    """The row dict that ``render_report`` once passed to ``json.dumps``."""

    def opt_dict(opt):
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


def oracle_report(rows: list[ComparisonRow], fmt: str, config=None) -> str:
    """The row-by-row renderer ``render_report`` used before it rendered
    from columns: one list of cells per ``ComparisonRow`` through the csv
    module or the Markdown cell join, or one dict per row through
    ``json.dumps``."""
    if fmt == "json":
        doc = {"rows": [oracle_row_as_dict(r) for r in rows]}
        if config is not None:
            doc = {"config": dataclasses.asdict(config), **doc}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(map(oracle_csv_cells, rows))
        return buf.getvalue()
    clamped = any(
        opt is not None and opt.clamped
        for row in rows
        if not row.error
        for opt in (row.analytic, row.grid_search, row.line_search)
    )
    body = [_MD_HEADERS, ["---"] * len(_MD_HEADERS), *map(oracle_md_cells, rows)]
    lines = "".join(f"| {' | '.join(cells)} |\n" for cells in body)
    return lines + "\n† optimum clamped to the search interval boundary.\n" if clamped else lines


def rendered_or_error(render, *args) -> str:
    """What ``render(*args)`` writes, or its error message."""
    try:
        return render(*args)
    except ValueError as exc:
        return f"error: {exc}"


# characters the csv module quotes on, and ones JSON escapes or writes as
# \uXXXX: quote, backslash, control characters, non-ASCII (one outside the
# BMP, one lone surrogate); "/" is not escaped; "|" is escaped in Markdown
NAME_CHARS = [",", "\r", '"', "\\", "/", "\t", "\n", "\x00", "\x1f", "\x7f", "é", "€", " ", "\U0001f600", "\ud800"]
NAME_CHARS += ["a", " ", "|"]
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 2.0**53, 1e16, 1e-7, 0.1, 1 / 3]


def random_result(seed, products=30):
    """A random ``Comparison``: edge and random floats, clamped optima,
    unrated days, error products, and names and error reasons that need CSV
    quoting and Markdown or JSON escapes."""
    rng = random.Random(seed)

    def floats(*shape):
        values = [
            rng.choice(EDGE_FLOATS) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)
            for _ in range(math.prod(shape))
        ]
        return np.array(values, dtype=np.float64).reshape(shape)

    def flags(p, *shape):
        return np.array([rng.random() < p for _ in range(math.prod(shape))], dtype=bool).reshape(shape)

    def text():
        return "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 10)))

    names = [text() for _ in range(products)]
    errors = {index: text() for index in range(products) if rng.random() < 0.2}
    rated = flags(0.8, products, 2)
    return comparison(
        names,
        errors,
        rl_price=floats(products, 2),
        rl_demand=floats(products, 2),
        rl_profit=floats(products, 2),
        baselines=Columns(*(floats(products, 2, 3) for _ in range(3)), flags(0.5, products, 2, 3)),
        ratio=np.where(rated, floats(products, 2), 0.0),
        rated=rated,
    )


NON_DEFAULT = ExperimentConfig(
    hyperparams=Hyperparams(episodes=300, alpha=0.3, gamma=0.7, seed=3),
    grid_span=(0.25, 3.0),
    modulation=DayModulation(1.0, 1.2),
    cost_policy=CostPolicy("fraction", 0.4),
    master_seed=2**64 - 1,
)
FORMATS = ["csv", "json", "markdown"]


class TestReportMatchesOracle:
    """``render_report`` writes what the row-by-row oracle writes for the
    comparison's rows, in every format."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("products", [0, 1, 7, 30])
    def test_random_results(self, fmt, products):
        for seed in range(5):
            result = random_result(seed * 100 + products, products)
            assert render_report(result, fmt) == oracle_report(result.rows(), fmt)

    @pytest.mark.parametrize(
        "config", [None, ExperimentConfig(), NON_DEFAULT], ids=["none", "default", "non-default"]
    )
    def test_json_config_block(self, config):
        for seed in range(3):
            result = random_result(seed)
            assert render_report(result, "json", config) == oracle_report(result.rows(), "json", config)
        assert render_report(comparison([]), "json", config) == oracle_report([], "json", config)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_run_result(self, result, fmt):
        assert render_report(result, fmt, quick_config()) == oracle_report(result.rows(), fmt, quick_config())

    FIELDS = ["rl_price", "rl_demand", "rl_profit", "ratio"] + [
        f"{field}.{method}" for method in range(len(Method)) for field in ("price", "demand", "profit")
    ]

    @staticmethod
    def inject(result, field, product, day, value):
        name, _, method = field.partition(".")
        if method:
            getattr(result.baselines, name)[product, day, int(method)] = value
        else:
            getattr(result, name)[product, day] = value

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", FIELDS)
    def test_non_finite_value(self, fmt, field, value):
        result = comparison(["x", "y"], {0: "unusable"})
        self.inject(result, field, 1, 1, value)
        want = rendered_or_error(oracle_report, result.rows(), fmt)
        assert rendered_or_error(render_report, result, fmt) == want
        if fmt == "json":  # raised as json.dumps raises it
            assert want == f"error: Out of range float values are not JSON compliant: {value!r}"

    @pytest.mark.parametrize(
        "cells, named",
        [
            # rows in product then day order, whatever the field
            ([("rl_price", 2, 0, math.inf), ("ratio", 1, 1, math.nan)], "nan"),
            ([("profit.2", 1, 0, math.inf), ("rl_demand", 1, 1, -math.inf)], "inf"),
            # within a row: RL, then each method's price, demand and profit, then the ratio
            ([("ratio", 1, 1, math.nan), ("demand.0", 1, 1, math.inf), ("rl_profit", 1, 1, -math.inf)], "-inf"),
            ([("price.2", 1, 0, math.inf), ("profit.1", 1, 0, math.nan)], "nan"),
        ],
        ids=["by-product", "by-day", "rl-first", "by-method"],
    )
    def test_json_names_the_first_non_finite_value(self, cells, named):
        result = comparison(["ok", "x", "y"], {0: "unusable"})
        for cell in cells:
            self.inject(result, *cell)
        want = f"error: Out of range float values are not JSON compliant: {named}"
        assert rendered_or_error(oracle_report, result.rows(), "json") == want
        assert rendered_or_error(render_report, result, "json") == want


class TestExportRevenueCurves:
    def test_cardinality(self):
        text = export_revenue_curves(ProductLanes.of([S24]), quick_config(), samples_per_curve=2)
        lines = text.strip().splitlines()
        assert lines[0] == "product,day,price,demand,revenue,profit"
        assert len(lines) == 1 + 4  # 1 product x 2 days x 2 samples

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            export_revenue_curves(ProductLanes.of([S24]), quick_config(), samples_per_curve=1)

    def test_weekend_scales_weekday_revenue(self):
        config = quick_config(modulation=DayModulation(weekday=1.0, weekend=1.2))
        text = export_revenue_curves(ProductLanes.of([S24]), config, samples_per_curve=11)
        rows = list(csv.DictReader(io.StringIO(text)))
        weekday = [r for r in rows if r["day"] == "Weekday"]
        weekend = [r for r in rows if r["day"] == "Weekend"]
        for wd, we in zip(weekday, weekend):
            assert wd["price"] == we["price"]
            assert float(we["revenue"]) == pytest.approx(1.2 * float(wd["revenue"]), rel=1e-12)

    def test_max_revenue_near_vertex(self, sample_specs):
        config = quick_config()
        text = export_revenue_curves(ProductLanes.of(sample_specs), config, samples_per_curve=101)
        rows = list(csv.DictReader(io.StringIO(text)))
        for spec in sample_specs:
            vertex = spec.base_price * (spec.elasticity - 1) / (2 * spec.elasticity)
            lo, hi = 0.5 * spec.base_price, 2.0 * spec.base_price
            if not (lo < vertex < hi):
                continue
            mine = [r for r in rows if r["product"] == spec.name and r["day"] == "Weekday"]
            prices = [float(r["price"]) for r in mine]
            revenues = [float(r["revenue"]) for r in mine]
            step = prices[1] - prices[0]
            assert abs(prices[revenues.index(max(revenues))] - vertex) <= step

    def test_profit_column_uses_cost_policy(self):
        config = quick_config(cost_policy=CostPolicy("fraction", 0.3))
        text = export_revenue_curves(ProductLanes.of([S24]), config, samples_per_curve=3)
        rows = list(csv.DictReader(io.StringIO(text)))
        c = 0.3 * S24.base_price
        for r in rows:
            price, d = float(r["price"]), float(r["demand"])
            assert float(r["revenue"]) == pytest.approx(price * d, rel=1e-12)
            assert float(r["profit"]) == pytest.approx((price - c) * d, rel=1e-12, abs=1e-9)
