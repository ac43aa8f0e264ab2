import csv
import dataclasses
import io
import json
import re

import pytest

from pricelab.catalog import sample_catalog
from pricelab.domain import DayModulation, DayType, ProductSpec, price_grids
from pricelab.experiment import (
    ComparisonRow,
    CostPolicy,
    ExperimentConfig,
    export_revenue_curves,
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
        spec = ProductSpec(name="x", base_demand=10.0, base_price=100.0, elasticity=-1.0, unit_cost=20.0)
        assert CostPolicy("catalog").apply(spec).unit_cost == 20.0
        assert CostPolicy("zero").apply(spec).unit_cost == 0.0
        assert CostPolicy("fraction", 0.3).apply(spec).unit_cost == pytest.approx(30.0)

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
        costed, grids, unusable = prepare_products(sample_specs, config)
        assert unusable == {}
        assert costed == [config.cost_policy.apply(spec) for spec in sample_specs]
        assert grids.tobytes() == price_grids(sample_specs, 11, 0.4, 2.5).tobytes()

    def test_reports_every_unusable_product(self):
        catalog = [S24, ProductSpec("Huge", 1.0, 1.7e308, -0.5), S24, ProductSpec("Tiny", 10.0, 5e-324, -1.0)]
        _, _, unusable = prepare_products(catalog, quick_config())
        assert unusable == {1: "grid upper bound 2.0 * base_price overflows", 3: "prices must be > 0"}
        # a cost fraction of a subnormal price can round up to the price itself
        sub = ProductSpec("Sub", 10.0, 1e-320, -1.0)
        _, _, unusable = prepare_products([sub], quick_config(grid_points=2, cost_policy=CostPolicy("fraction", 0.99999)))
        assert unusable == {0: "unit_cost must be < base_price"}

    def test_every_unusable_product_becomes_error_rows(self):
        catalog = [S24, ProductSpec("Huge", 1.0, 1.7e308, -0.5), ProductSpec("Tiny", 10.0, 5e-324, -1.0)]
        rows = run_experiment(catalog, quick_config())
        assert [(r.product_name, r.error) for r in rows[2:]] == [
            ("Huge", "grid upper bound 2.0 * base_price overflows")] * 2 + [("Tiny", "prices must be > 0")] * 2
        assert rows[:2] == run_experiment([S24], quick_config())


class TestRunExperiment:
    def test_cardinality_and_order(self, sample_specs):
        rows = run_experiment(sample_specs, quick_config())
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
        assert run_experiment(sample_specs[:3], config) == run_experiment(sample_specs[:3], config)

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
        import pricelab.experiment as experiment_module

        catalog = [
            ProductSpec(name=f"P{i}", base_demand=20.0 + 7 * i, base_price=30.0 + 11 * i,
                        elasticity=-0.3 - 0.4 * (i % 9), unit_cost=0.3 * (i % 3) * (30.0 + 11 * i))
            for i in range(experiment_module.LOCKSTEP_MIN_PRODUCTS + 3)
        ]
        # fails setup: its rewards overflow
        catalog.insert(5, ProductSpec(name="Big", base_demand=1e307, base_price=100.0, elasticity=-0.5))

        def no_scalar_training(*args, **kwargs):
            raise AssertionError("trained product by product")

        with monkeypatch.context() as m:
            m.setattr(experiment_module, "train", no_scalar_training)
            lockstep = run_experiment(catalog, config)
        monkeypatch.setattr(experiment_module, "LOCKSTEP_MIN_PRODUCTS", len(catalog) + 1)
        assert lockstep == run_experiment(catalog, config)
        assert [r.error is not None for r in lockstep].count(True) == 2
        assert "rewards overflow" in lockstep[10].error

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            run_experiment([], quick_config())

    def test_failed_product_marked_not_fatal(self, sample_specs, monkeypatch):
        import pricelab.experiment as experiment_module

        real_train = experiment_module.train

        def flaky_train(spec, *args, **kwargs):
            if spec.name == sample_specs[1].name:
                raise ValueError("boom")
            return real_train(spec, *args, **kwargs)

        monkeypatch.setattr(experiment_module, "train", flaky_train)
        rows = run_experiment(sample_specs[:3], quick_config())
        assert len(rows) == 6
        failed = [r for r in rows if r.error]
        assert len(failed) == 2
        assert all(r.product_name == sample_specs[1].name for r in failed)
        assert all("boom" in r.error for r in failed)
        assert all(r.rl_price is None and r.analytic is None for r in failed)

    def test_defect_propagates(self, sample_specs, monkeypatch):
        # only input errors (ValueError) become rows; anything else is a bug
        import pricelab.experiment as experiment_module

        def broken_train(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(experiment_module, "train", broken_train)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(sample_specs[:2], quick_config())

    def test_rl_matches_grid_search_at_full_defaults(self, sample_specs):
        config = ExperimentConfig(cost_policy=CostPolicy("zero"))
        rows = run_experiment(sample_specs[:2], config)
        for row in rows:
            assert row.rl_price == row.grid_search.price
            assert row.rl_profit >= 0.999 * row.grid_search.profit
            assert row.rl_vs_best_profit_ratio <= 1.0 + 1e-12

    def test_ratio_well_defined_for_positive_profits(self):
        rows = run_experiment([S24], quick_config())
        assert all(r.rl_vs_best_profit_ratio is not None for r in rows)
        assert all(0 < r.rl_vs_best_profit_ratio <= 1.0 + 1e-12 for r in rows)


@pytest.fixture(scope="module")
def rows(sample_specs):
    # MU6290 (index 4) clamps at the default span; include it
    return run_experiment([sample_specs[0], sample_specs[4]], quick_config())


class TestRenderReport:
    def test_csv_shape_and_formatting(self, rows):
        text = render_report(rows, "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0][:5] == ["product", "day", "rl_optimal_price", "rl_optimal_demand", "rl_profit"]
        assert len(parsed) == 1 + len(rows)
        first = parsed[1]
        assert first[0] == 'Samsung 24" HD'
        assert first[1] == "Weekday"
        # one decimal for price/demand, two for profit
        assert first[2].count(".") == 1 and len(first[2].split(".")[1]) == 1
        assert len(first[4].split(".")[1]) == 2

    def test_empty_rows_header_only(self):
        text = render_report([], "csv")
        assert text.splitlines() == [render_report([], "csv").splitlines()[0]]

    def test_csv_deterministic(self, rows):
        assert render_report(rows, "csv") == render_report(rows, "csv")

    def test_json_full_precision_round_trip(self, rows):
        config = quick_config()
        doc = json.loads(render_report(rows, "json", config))
        assert doc["config"]["master_seed"] == 0
        assert doc["config"]["hyperparams"]["episodes"] == 300
        assert doc["config"]["cost_policy"]["kind"] == "zero"
        for row, rendered in zip(rows, doc["rows"]):
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
        assert render_report([], "json", config) == expected

    def test_json_rejects_non_finite_values(self):
        row = ComparisonRow(
            product_name="x", day_type=DayType.WEEKDAY, rl_price=1.0, rl_demand=1.0, rl_profit=float("inf")
        )
        with pytest.raises(ValueError):
            render_report([row], "json")

    def test_markdown_headers_and_footnote(self, rows):
        text = render_report(rows, "markdown")
        header = text.splitlines()[0]
        assert "Optimal Price" in header
        assert "Optimal Demand" in header
        assert "†" in text  # MU6290's analytic optimum clamps at the span edge
        assert "clamped" in text

    def test_markdown_renders_error_rows(self):
        rows = [ComparisonRow(product_name="x", day_type=DayType.WEEKDAY, error="boom")]
        text = render_report(rows, "markdown")
        assert "error: boom" in text

    def test_markdown_escapes_every_cell(self, rows):
        # a reward-overflow message and a product name, each holding a literal |
        error = "rewards overflow: max |reward| / (1 - gamma) is inf"
        bad = [ComparisonRow(product_name="a|b", day_type=day, error=error) for day in DayType]
        good = [dataclasses.replace(row, product_name="c|d") for row in rows[:2]]
        lines = render_report(good + bad, "markdown").splitlines()
        # a table line is "| cell | ... |": the unescaped pipes bound 15 cells
        counts = [len(re.split(r"(?<!\\)\|", line)) - 2 for line in lines[:6]]
        assert counts == [15] * 6
        assert r"error: rewards overflow: max \|reward\| / (1 - gamma) is inf" in lines[4]
        assert lines[2].startswith(r"| c\|d |") and lines[4].startswith(r"| a\|b |")

    def test_unknown_format_rejected(self, rows):
        with pytest.raises(ValueError):
            render_report(rows, "xml")


class TestExportRevenueCurves:
    def test_cardinality(self):
        text = export_revenue_curves([S24], quick_config(), samples_per_curve=2)
        lines = text.strip().splitlines()
        assert lines[0] == "product,day,price,demand,revenue,profit"
        assert len(lines) == 1 + 4  # 1 product x 2 days x 2 samples

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            export_revenue_curves([S24], quick_config(), samples_per_curve=1)

    def test_weekend_scales_weekday_revenue(self):
        config = quick_config(modulation=DayModulation(weekday=1.0, weekend=1.2))
        text = export_revenue_curves([S24], config, samples_per_curve=11)
        rows = list(csv.DictReader(io.StringIO(text)))
        weekday = [r for r in rows if r["day"] == "Weekday"]
        weekend = [r for r in rows if r["day"] == "Weekend"]
        for wd, we in zip(weekday, weekend):
            assert wd["price"] == we["price"]
            assert float(we["revenue"]) == pytest.approx(1.2 * float(wd["revenue"]), rel=1e-12)

    def test_max_revenue_near_vertex(self, sample_specs):
        config = quick_config()
        text = export_revenue_curves(sample_specs, config, samples_per_curve=101)
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
        text = export_revenue_curves([S24], config, samples_per_curve=3)
        rows = list(csv.DictReader(io.StringIO(text)))
        c = 0.3 * S24.base_price
        for r in rows:
            price, d = float(r["price"]), float(r["demand"])
            assert float(r["revenue"]) == pytest.approx(price * d, rel=1e-12)
            assert float(r["profit"]) == pytest.approx((price - c) * d, rel=1e-12, abs=1e-9)
