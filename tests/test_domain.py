import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from pricelab.domain import (
    DayModulation,
    DayType,
    PriceGrid,
    ProductSpec,
    _uniform_grids,
    default_price_grid,
    demand,
    reward,
    zero_demand_price,
)
from pricelab.experiment import ExperimentConfig, check_products, prepare_products
from pricelab.rng import XorShift64


def spec_of(e, p0, d0, c=0.0, name="tv"):
    return ProductSpec(name=name, base_demand=d0, base_price=p0, elasticity=e, unit_cost=c)


class TestProductSpecValidation:
    def test_valid(self):
        spec_of(-0.5, 109.2, 80.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_price=0.0),
            dict(base_price=-1.0),
            dict(base_demand=-1.0),
            dict(elasticity=0.0),
            dict(elasticity=0.4),
            dict(unit_cost=-0.1),
            dict(unit_cost=120.0),  # exceeds base price
            dict(unit_cost=100.0),  # equals base price
            dict(base_price=float("nan")),
            dict(elasticity=float("-inf")),
            dict(name=""),
        ],
    )
    def test_rejections(self, kwargs):
        base = dict(name="tv", base_demand=50.0, base_price=100.0, elasticity=-1.0, unit_cost=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ProductSpec(**base)


class TestValueTypes:
    """``ProductSpec`` and ``catalog.RowOutcome`` hold slots, not a
    ``__dict__``; they still compare, hash, replace and pickle by value."""

    @pytest.mark.parametrize("kind", ["spec", "outcome"])
    def test_slots_keep_value_semantics(self, kind):
        from pricelab.catalog import RejectReason, RowOutcome

        if kind == "spec":
            value, other = spec_of(-1.5, 100.0, 10.0, 20.0, name="A"), {"name": "B"}
        else:
            value, other = RowOutcome(3, False, RejectReason.MALFORMED_FIELD, "bad CSV", "A"), {"row_number": 4}
        assert not hasattr(value, "__dict__")
        copy = dataclasses.replace(value)
        assert copy == value and copy is not value and hash(copy) == hash(value)
        changed = dataclasses.replace(value, **other)
        assert changed != value and len({value, copy, changed}) == 2
        assert pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, next(iter(other)), 1)

    def test_replace_still_validates(self):
        with pytest.raises(ValueError, match="elasticity must be < 0"):
            dataclasses.replace(spec_of(-1.5, 100.0, 10.0), elasticity=0.5)


class TestDayTypes:
    def test_ordering_and_values(self):
        assert DayType.WEEKDAY < DayType.WEEKEND
        assert list(DayType) == [DayType.WEEKDAY, DayType.WEEKEND]
        assert DayType.WEEKDAY.label == "Weekday"
        assert DayType.WEEKEND.label == "Weekend"

    def test_modulation(self):
        mod = DayModulation(weekday=1.0, weekend=1.2)
        assert mod.multiplier(DayType.WEEKDAY) == 1.0
        assert mod.multiplier(DayType.WEEKEND) == 1.2
        with pytest.raises(ValueError):
            DayModulation(weekday=0.0)
        with pytest.raises(ValueError):
            DayModulation(weekend=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                DayModulation(weekday=bad)
            with pytest.raises(ValueError):
                DayModulation(weekend=bad)


class TestPriceGrid:
    def test_valid(self):
        g = PriceGrid((1.0, 2.0, 4.0))
        assert len(g) == 3
        assert g.lo == 1.0 and g.hi == 4.0
        assert g.step == 2.0
        assert list(g) == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("prices", [(1.0,), (2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)])
    def test_rejections(self, prices):
        with pytest.raises(ValueError):
            PriceGrid(prices)


class TestDemand:
    def test_anchor_point_exact(self, sample_specs):
        for spec in sample_specs:
            assert demand(spec, spec.base_price, 1.0) == spec.base_demand

    def test_linear_falloff(self):
        spec = spec_of(-1.7, 674.3, 54.0)
        assert demand(spec, 800.0, 1.0) == pytest.approx(36.89, abs=0.01)

    def test_clipped_to_zero(self):
        spec = spec_of(-8.4, 2011.6, 60.0)
        assert demand(spec, 2 * 2011.6, 1.0) == 0.0

    def test_samsung_anchor(self):
        assert demand(spec_of(-0.5, 109.2, 80.0), 109.2, 1.0) == 80.0

    def test_monotone_non_increasing(self):
        rng = XorShift64(31337)
        for _ in range(200):
            e = -(0.1 + 9.9 * rng.uniform())
            p0 = 10.0 + 990.0 * rng.uniform()
            d0 = 200.0 * rng.uniform()
            spec = spec_of(e, p0, d0)
            p1 = p0 * (0.1 + 2.9 * rng.uniform())
            p2 = p0 * (0.1 + 2.9 * rng.uniform())
            lo, hi = min(p1, p2), max(p1, p2)
            assert demand(spec, hi) <= demand(spec, lo) + 1e-12

    def test_linearity_in_multiplier(self):
        spec = spec_of(-0.8, 418.4, 56.0)
        for price in (300.0, 418.4, 500.0):
            assert demand(spec, price, 2.4) == pytest.approx(2.0 * demand(spec, price, 1.2), rel=1e-12)

    def test_non_negative_everywhere(self):
        spec = spec_of(-6.5, 1300.0, 36.0)
        for ratio in (0.1, 0.5, 1.0, 1.5, 2.0, 5.0):
            assert demand(spec, ratio * 1300.0) >= 0.0


class TestReward:
    def test_pure_revenue_at_zero_cost(self):
        assert reward(spec_of(-1.0, 100.0, 50.0, c=0.0), 100.0, 50.0) == 5000.0

    def test_cost_subtracted(self):
        assert reward(spec_of(-1.0, 100.0, 50.0, c=40.0), 100.0, 50.0) == 3000.0

    def test_zero_margin(self):
        spec = spec_of(-1.0, 100.0, 50.0, c=60.0)
        assert reward(spec, 60.0, 123.0) == 0.0

    def test_factorization(self):
        spec = spec_of(-2.0, 80.0, 30.0, c=15.0)
        rng = XorShift64(7)
        for _ in range(100):
            p = 1.0 + 200.0 * rng.uniform()
            d = 500.0 * rng.uniform()
            assert reward(spec, p, d) == pytest.approx((p - 15.0) * d, rel=1e-12)
        assert reward(spec, 50.0, 0.0) == 0.0

    def test_profit_example_at_vertex(self):
        # vertex price for the 24-inch sample product
        spec = spec_of(-0.5, 109.2, 80.0)
        d = demand(spec, 163.8, 1.0)
        assert d == pytest.approx(60.0, rel=1e-12)
        assert reward(spec, 163.8, d) == pytest.approx(9828.0, rel=1e-12)


class TestDayMultiplierArgmaxInvariance:
    def test_grid_argmax_same_for_all_multipliers(self, sample_specs):
        for spec in sample_specs[:5]:
            grid = default_price_grid(spec)
            for mult in (0.5, 1.0, 1.2, 3.0):
                profits = [reward(spec, p, demand(spec, p, mult)) for p in grid]
                base = [reward(spec, p, demand(spec, p, 1.0)) for p in grid]
                assert profits.index(max(profits)) == base.index(max(base))


class TestDefaultPriceGrid:
    def test_two_points(self):
        grid = default_price_grid(spec_of(-1.0, 100.0, 10.0), 2)
        assert list(grid) == [50.0, 200.0]

    def test_four_points(self):
        grid = default_price_grid(spec_of(-1.0, 100.0, 10.0), 4)
        assert list(grid) == pytest.approx([50.0, 100.0, 150.0, 200.0])

    def test_default_21_point_step(self):
        grid = default_price_grid(spec_of(-0.5, 109.2, 80.0), 21)
        assert len(grid) == 21
        steps = [b - a for a, b in zip(grid, list(grid)[1:])]
        assert steps == pytest.approx([8.19] * 20, abs=1e-9)

    def test_rejects_bad_args(self):
        spec = spec_of(-1.0, 100.0, 10.0)
        with pytest.raises(ValueError):
            default_price_grid(spec, 1)
        with pytest.raises(ValueError):
            default_price_grid(spec, 5, lo_ratio=2.0, hi_ratio=1.0)

    def test_rejects_overflowing_upper_bound(self):
        with pytest.raises(ValueError, match="overflows"):
            default_price_grid(spec_of(-1.0, 1.7e308, 10.0))


class TestPriceGrids:
    @pytest.mark.parametrize("points, tiny_ok", [(2, True), (3, True), (21, False), (101, False)])
    def test_rows_equal_per_product_linspace(self, points, tiny_ok):
        rng = random.Random(points)
        bases = [math.exp(rng.uniform(math.log(1e-300), math.log(1e300))) for _ in range(200)]
        # 1e-323 spans 3 subnormal steps: from 21 points on, its step underflows
        # to 0 (np.linspace on the stacked bounds would then alter its neighbours)
        bases[100:100] = [109.2, 1e-323, 444.7]
        grids, unusable = _uniform_grids(bases, points, 0.5, 2.0)
        assert unusable == ({} if tiny_ok else {101: "prices must be strictly increasing"})
        for i, p0 in enumerate(bases):
            if i not in unusable:
                assert grids[i].tobytes() == np.linspace(0.5 * p0, 2.0 * p0, points).tobytes(), i

    def test_reports_every_unusable_row(self):
        bases = [100.0, 1.7e308, 250.0, 5e-324, 1e-323]
        grids, unusable = _uniform_grids(bases, 21, 0.5, 2.0)
        assert unusable == {
            1: "grid upper bound 2.0 * base_price overflows",
            3: "prices must be > 0",
            4: "prices must be strictly increasing",
        }
        for i in (0, 2):
            assert grids[i].tobytes() == np.linspace(0.5 * bases[i], 2.0 * bases[i], 21).tobytes()

    @pytest.mark.parametrize(
        "p0, reason",
        [
            (1.7e308, "grid upper bound 2.0 * base_price overflows"),
            (5e-324, "prices must be > 0"),
            (1e-323, "prices must be strictly increasing"),
        ],
    )
    def test_names_the_first_bad_product(self, p0, reason):
        specs = [spec_of(-1.0, 100.0, 10.0, name="ok"), spec_of(-1.0, p0, 10.0, name="bad"),
                 spec_of(-1.0, 1.7e308, 10.0, name="later")]
        _, _, unusable = prepare_products(specs, ExperimentConfig())
        with pytest.raises(ValueError) as excinfo:
            check_products(specs, unusable)
        assert str(excinfo.value) == f"product 'bad': {reason}"
        with pytest.raises(ValueError) as excinfo:
            default_price_grid(specs[1], 21)
        assert str(excinfo.value) == reason


class TestZeroDemandPrice:
    def test_formula(self):
        assert zero_demand_price(spec_of(-0.5, 100.0, 10.0)) == pytest.approx(300.0)
        assert zero_demand_price(spec_of(-1.0, 100.0, 10.0)) == pytest.approx(200.0)

    def test_demand_vanishes_beyond(self):
        spec = spec_of(-8.4, 2011.6, 60.0)
        pz = zero_demand_price(spec)
        assert demand(spec, pz * 1.0001) == 0.0
        assert demand(spec, pz * 0.99) > 0.0
