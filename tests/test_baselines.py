import dataclasses
import math
import random

import numpy as np
import pytest

from pricelab.baselines import (
    Method,
    Optimum,
    analytic_optimum,
    columns_by_day,
    grid_search_optimum,
    line_search_optimum,
    optima,
    optimum_columns,
    profit_at,
)
from pricelab.domain import (
    DayModulation,
    DayType,
    PriceGrid,
    ProductSpec,
    default_price_grid,
    demand,
    price_grids,
    reward,
    zero_demand_price,
)

S24 = ProductSpec(name='Samsung 24" HD', base_demand=80.0, base_price=109.2, elasticity=-0.5)
MU6290 = ProductSpec(name="MU6290", base_demand=57.0, base_price=444.7, elasticity=-0.3)


def vertex_price(spec):
    return spec.unit_cost / 2 + spec.base_price * (spec.elasticity - 1) / (2 * spec.elasticity)


class TestAnalytic:
    def test_interior_vertex(self):
        opt = analytic_optimum(S24, (54.6, 218.4))
        assert opt.method is Method.ANALYTIC
        assert opt.price == pytest.approx(163.8, rel=1e-12)
        assert opt.demand == pytest.approx(60.0, rel=1e-12)
        assert opt.profit == pytest.approx(9828.0, rel=1e-12)
        assert not opt.clamped

    def test_clamped_at_upper_bound(self):
        # low-elasticity product whose vertex (~963.5) exceeds the span
        opt = analytic_optimum(MU6290, (222.35, 889.4))
        assert opt.clamped
        assert opt.price == 889.4
        assert vertex_price(MU6290) == pytest.approx(963.5167, abs=1e-3)

    def test_clamped_at_lower_bound(self):
        spec = ProductSpec(name="steep", base_demand=60.0, base_price=2011.6, elasticity=-8.4)
        # vertex at ~0.5595 * p0 sits below a [0.6, 2.0] ratio window
        opt = analytic_optimum(spec, (0.6 * 2011.6, 2 * 2011.6))
        assert opt.clamped
        assert opt.price == 0.6 * 2011.6

    def test_upper_bound_capped_by_zero_demand_price(self):
        spec = ProductSpec(name="wide", base_demand=60.0, base_price=100.0, elasticity=-8.4, unit_cost=90.0)
        pz = zero_demand_price(spec)
        opt = analytic_optimum(spec, (50.0, 100000.0))
        assert opt.price <= pz

    def test_cost_shifts_vertex(self):
        costed = dataclasses.replace(S24, unit_cost=30.0)
        opt = analytic_optimum(costed, (54.6, 218.4))
        assert opt.price == pytest.approx(163.8 + 15.0, rel=1e-12)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            analytic_optimum(S24, (0.0, 100.0))
        with pytest.raises(ValueError):
            analytic_optimum(S24, (100.0, 100.0))
        for optimum in (analytic_optimum, line_search_optimum):
            with pytest.raises(ValueError):
                optimum(S24, (100.0, float("inf")))


class TestGridSearch:
    def test_default_grid_argmax(self):
        grid = default_price_grid(S24, 21)
        opt = grid_search_optimum(S24, grid)
        assert opt.method is Method.GRID_SEARCH
        assert opt.price == grid[13]
        assert opt.price == pytest.approx(161.07, abs=1e-9)
        assert not opt.clamped

    def test_exhaustive_against_direct_scan(self, sample_specs):
        for spec in sample_specs:
            grid = default_price_grid(spec, 21)
            profits = [profit_at(spec, p) for p in grid]
            expected = grid[profits.index(max(profits))]
            assert grid_search_optimum(spec, grid).price == expected

    def test_tie_breaks_to_lowest_price(self):
        # unit elasticity is symmetric around the anchor: 50*1.5*D == 150*0.5*D
        spec = ProductSpec(name="sym", base_demand=8.0, base_price=100.0, elasticity=-1.0)
        grid = PriceGrid((50.0, 150.0))
        assert profit_at(spec, 50.0) == profit_at(spec, 150.0)
        assert grid_search_optimum(spec, grid).price == 50.0

    def test_two_point_grid_single_profitable_price(self):
        spec = ProductSpec(name="margin", base_demand=10.0, base_price=100.0, elasticity=-1.0, unit_cost=60.0)
        grid = PriceGrid((50.0, 120.0))  # 50 is below cost
        assert grid_search_optimum(spec, grid).price == 120.0

    def test_endpoint_maximizer_flagged_clamped(self):
        grid = default_price_grid(MU6290, 21)
        opt = grid_search_optimum(MU6290, grid)
        assert opt.price == grid[20]
        assert opt.clamped

    def test_refinement_approaches_vertex(self):
        target = vertex_price(S24)
        last_err = None
        for points in (41, 81, 161):
            grid = default_price_grid(S24, points)
            err = abs(grid_search_optimum(S24, grid).price - target)
            assert err <= grid.step
            if last_err is not None:
                assert err <= last_err + 1e-9
            last_err = err


class TestLineSearch:
    def test_matches_analytic_vertex(self):
        opt = line_search_optimum(S24, (54.6, 218.4), tolerance=1e-4)
        assert opt.method is Method.LINE_SEARCH
        assert abs(opt.price - 163.8) <= 1e-3
        assert not opt.clamped

    def test_collapsed_bounds_return_midpoint(self):
        opt = line_search_optimum(S24, (100.0, 100.0 + 1e-6), tolerance=1e-4)
        assert opt.price == pytest.approx(100.0 + 5e-7, abs=1e-9)

    def test_clamped_on_monotone_profit(self):
        opt = line_search_optimum(MU6290, (222.35, 889.4), tolerance=1e-4)
        assert opt.clamped
        assert abs(opt.price - 889.4) <= 1e-3

    def test_flat_clipped_region_terminates(self):
        spec = ProductSpec(name="steep", base_demand=60.0, base_price=2011.6, elasticity=-8.4)
        lo, hi = 1.2 * 2011.6, 2.0 * 2011.6  # fully beyond the zero-demand price
        opt = line_search_optimum(spec, (lo, hi), tolerance=1e-3)
        assert opt.profit >= profit_at(spec, lo)
        assert opt.profit >= profit_at(spec, hi)
        assert opt.profit == 0.0

    def test_dominates_coarse_grid_up_to_discretization(self, sample_specs):
        for spec in sample_specs:
            for cost_ratio in (0.0, 0.3):
                costed = dataclasses.replace(spec, unit_cost=cost_ratio * spec.base_price)
                grid = default_price_grid(costed, 21)
                gs = grid_search_optimum(costed, grid)
                ls = line_search_optimum(costed, (grid.lo, grid.hi))
                # profit slope is linear in price on the unclipped stretch
                d0, e, p0, c = costed.base_demand, costed.elasticity, costed.base_price, costed.unit_cost
                a_coef = d0 * (1 - e)
                b_coef = d0 * e / p0
                slope_bound = max(
                    abs(a_coef + 2 * b_coef * grid.lo - c * b_coef),
                    abs(a_coef + 2 * b_coef * grid.hi - c * b_coef),
                )
                assert ls.profit >= gs.profit - slope_bound * grid.step - 1e-9

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            line_search_optimum(S24, (54.6, 218.4), tolerance=0.0)


class TestCrossMethodInvariants:
    def test_profit_consistency(self, sample_specs):
        for spec in sample_specs[:6]:
            costed = dataclasses.replace(spec, unit_cost=0.25 * spec.base_price)
            grid = default_price_grid(costed, 21)
            bounds = (grid.lo, grid.hi)
            for opt in (
                analytic_optimum(costed, bounds, 1.2),
                grid_search_optimum(costed, grid, 1.2),
                line_search_optimum(costed, bounds, 1.2),
            ):
                expected = (opt.price - costed.unit_cost) * demand(costed, opt.price, 1.2)
                assert opt.profit == pytest.approx(expected, rel=1e-9)
                assert opt.demand >= 0.0

    def test_day_multiplier_price_invariance(self, sample_specs):
        for spec in sample_specs:
            grid = default_price_grid(spec, 21)
            bounds = (grid.lo, grid.hi)
            for mult in (1.0, 1.2):
                assert analytic_optimum(spec, bounds, mult).price == analytic_optimum(spec, bounds, 1.0).price
                assert grid_search_optimum(spec, grid, mult).price == grid_search_optimum(spec, grid, 1.0).price
                assert line_search_optimum(spec, bounds, mult).price == pytest.approx(
                    line_search_optimum(spec, bounds, 1.0).price, abs=1e-9
                )

    def test_profit_scales_with_multiplier(self):
        grid = default_price_grid(S24, 21)
        base = grid_search_optimum(S24, grid, 1.0)
        bumped = grid_search_optimum(S24, grid, 1.2)
        assert bumped.profit == pytest.approx(1.2 * base.profit, rel=1e-12)


# --- scalar oracle ----------------------------------------------------------
# The one-product Python-float loops the batch lanes replaced.  Every lane of
# ``optima`` and every one-lane call must reproduce them bit for bit.

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def oracle_analytic(spec, bounds, multiplier=1.0):
    lo, hi = bounds
    vertex = spec.unit_cost / 2.0 + spec.base_price * (spec.elasticity - 1.0) / (2.0 * spec.elasticity)
    hi_eff = min(hi, zero_demand_price(spec))
    price = min(max(vertex, lo), hi_eff)
    d = demand(spec, price, multiplier)
    return Optimum(price, d, reward(spec, price, d), Method.ANALYTIC, price != vertex)


def oracle_grid_search(spec, prices, multiplier=1.0):
    best_i = 0
    best = profit_at(spec, prices[0], multiplier)
    for i in range(1, len(prices)):
        p = profit_at(spec, prices[i], multiplier)
        if p > best:
            best = p
            best_i = i
    price = prices[best_i]
    d = demand(spec, price, multiplier)
    clamped = best_i in (0, len(prices) - 1)
    return Optimum(price, d, reward(spec, price, d), Method.GRID_SEARCH, clamped)


def oracle_line_search(spec, bounds, multiplier=1.0, tolerance=1e-4):
    lo, hi = bounds
    a, b = lo, hi
    h = b - a
    if h > tolerance:
        n = int(math.ceil(math.log(tolerance / h) / math.log(_INV_PHI)))
        c = a + _INV_PHI_SQ * h
        d_pt = a + _INV_PHI * h
        fc = profit_at(spec, c, multiplier)
        fd = profit_at(spec, d_pt, multiplier)
        for _ in range(n - 1):
            if fc > fd:
                b = d_pt
                d_pt = c
                fd = fc
                h = _INV_PHI * h
                c = a + _INV_PHI_SQ * h
                fc = profit_at(spec, c, multiplier)
            else:
                a = c
                c = d_pt
                fc = fd
                h = _INV_PHI * h
                d_pt = a + _INV_PHI * h
                fd = profit_at(spec, d_pt, multiplier)
        if fc > fd:
            b = d_pt
        else:
            a = c
    price = (a + b) / 2.0
    d = demand(spec, price, multiplier)
    clamped = (price - lo) <= tolerance or (hi - price) <= tolerance
    return Optimum(price, d, reward(spec, price, d), Method.LINE_SEARCH, clamped)


def same_float(a, b):
    """Equal as the reports print them: same value and sign, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same(got, want):
    assert type(got.price) is float and type(got.clamped) is bool
    assert got.method is want.method
    assert got.clamped == want.clamped, (got, want)
    for field in ("price", "demand", "profit"):
        assert same_float(getattr(got, field), getattr(want, field)), (field, got, want)


def random_specs(count, seed):
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        p0 = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
        specs.append(
            ProductSpec(
                name=f"p{i}",
                base_demand=rng.choice([0.0, rng.uniform(0.0, 500.0), 1e308]),
                base_price=p0,
                elasticity=-math.exp(rng.uniform(math.log(0.01), math.log(30.0))),
                unit_cost=rng.choice([0.0, p0 * rng.uniform(0.0, 0.99)]),
            )
        )
    return specs


def edge_lanes():
    """(spec, grid prices) lanes that stress each batch rule."""
    inf_demand = dict(base_demand=1e308, base_price=100.0, elasticity=-10.0)
    return [
        # NaN profit at grid index 0: unit cost on the first price, infinite demand
        (ProductSpec("nan-first", unit_cost=50.0, **inf_demand), [50.0, 60.0, 70.0, 80.0, 90.0]),
        # NaN mid-row, +inf after it: the first strictly greater profit must win
        (ProductSpec("nan-mid", unit_cost=60.0, **inf_demand), [50.0, 60.0, 70.0, 80.0, 90.0]),
        # exact 0.0 ties beyond the zero-demand price (105): the first one wins
        (
            ProductSpec("zero-ties", base_demand=40.0, base_price=100.0, elasticity=-20.0, unit_cost=99.5),
            [50.0, 80.0, 99.0, 110.0, 120.0, 130.0],
        ),
        # zero base demand: every profit is 0.0
        (ProductSpec("no-demand", base_demand=0.0, base_price=10.0, elasticity=-1.0), [5.0, 10.0, 20.0]),
        # brackets under the tolerance (no golden-section step), one step, and many
        (ProductSpec("narrow", base_demand=5.0, base_price=1e-4, elasticity=-2.0), [4e-5, 1e-4]),
        (ProductSpec("one-step", base_demand=5.0, base_price=1e-4, elasticity=-2.0), [5e-5, 2e-4]),
        (ProductSpec("wide", base_demand=5.0, base_price=1e9, elasticity=-0.5), [5e8, 1e9, 2e9]),
        # a vertex that overflows to NaN: p0 * (e - 1) / (2e) is -inf / -inf
        (ProductSpec("nan-vertex", base_demand=1.0, base_price=1e308, elasticity=-1e308), [5e307, 1e308]),
    ]


class TestLanesMatchScalarOracle:
    @pytest.mark.parametrize("multiplier", [1.0, 1.2, 0.7])
    @pytest.mark.parametrize("points, span", [(21, (0.5, 2.0)), (7, (0.3, 3.0)), (2, (0.9, 1.1))])
    def test_random_catalog(self, multiplier, points, span):
        specs = random_specs(300, seed=points * 31 + int(multiplier * 10))
        grids = price_grids(specs, points, *span)
        ana, gs, ls = optima(specs, grids, multiplier)
        for spec, row, a, g, l in zip(specs, grids.tolist(), ana, gs, ls):
            bounds = (row[0], row[-1])
            assert_same(a, oracle_analytic(spec, bounds, multiplier))
            assert_same(g, oracle_grid_search(spec, row, multiplier))
            assert_same(l, oracle_line_search(spec, bounds, multiplier))

    @pytest.mark.parametrize("multiplier", [1.0, 1.2])
    def test_edge_lanes_in_one_batch(self, multiplier):
        lanes = edge_lanes()
        points = max(len(prices) for _, prices in lanes)
        # pad each row with prices above its last so every lane has the same width
        rows = [prices + [prices[-1] * (1.01 + 0.01 * k) for k in range(points - len(prices))] for _, prices in lanes]
        specs = [spec for spec, _ in lanes]
        ana, gs, ls = optima(specs, np.array(rows), multiplier)
        for spec, row, a, g, l in zip(specs, rows, ana, gs, ls):
            bounds = (row[0], row[-1])
            assert_same(a, oracle_analytic(spec, bounds, multiplier))
            assert_same(g, oracle_grid_search(spec, row, multiplier))
            assert_same(l, oracle_line_search(spec, bounds, multiplier))

    def test_edge_lanes_pick_the_scalar_indices(self):
        by_name = {spec.name: (spec, prices) for spec, prices in edge_lanes()}
        picks = {}
        for name in ("nan-first", "nan-mid", "zero-ties", "no-demand"):
            spec, prices = by_name[name]
            picks[name] = grid_search_optimum(spec, PriceGrid(tuple(prices))).price
        assert picks == {"nan-first": 50.0, "nan-mid": 70.0, "zero-ties": 110.0, "no-demand": 5.0}

    @pytest.mark.parametrize("bounds", [(float("nan"), 300.0), (50.0, float("nan")), (54.6, 218.4)])
    def test_one_lane_calls_with_unchecked_bounds(self, bounds):
        # a NaN bound is rejected (it once passed the check, every comparison
        # being false); valid bounds match the scalar oracle
        for mult in (1.0, 1.2):
            if math.isnan(sum(bounds)):
                for optimum in (analytic_optimum, line_search_optimum):
                    with pytest.raises(ValueError, match="need 0 < lo < hi < inf"):
                        optimum(S24, bounds, mult)
            else:
                assert_same(analytic_optimum(S24, bounds, mult), oracle_analytic(S24, bounds, mult))
                assert_same(line_search_optimum(S24, bounds, mult), oracle_line_search(S24, bounds, mult))

    def test_one_lane_calls(self):
        for spec, prices in edge_lanes():
            bounds = (prices[0], prices[-1])
            assert_same(analytic_optimum(spec, bounds), oracle_analytic(spec, bounds))
            assert_same(grid_search_optimum(spec, PriceGrid(tuple(prices))), oracle_grid_search(spec, prices))
            assert_same(line_search_optimum(spec, bounds), oracle_line_search(spec, bounds))

    def test_empty_catalog(self):
        assert optima([], price_grids([])) == ([], [], [])


class TestColumnsByDay:
    @pytest.mark.parametrize(
        "modulation, calls",
        [(DayModulation(), [1.0]), (DayModulation(1.0, 1.2), [1.0, 1.2]), (DayModulation(1.3, 1.3), [1.3])],
    )
    def test_one_optimum_columns_call_per_distinct_multiplier(self, monkeypatch, modulation, calls):
        import pricelab.baselines as baselines_module

        seen = []

        def counted(specs, grids, multiplier):
            seen.append(multiplier)
            return optimum_columns(specs, grids, multiplier)

        specs = random_specs(60, seed=9)
        grids = price_grids(specs)
        with monkeypatch.context() as m:
            m.setattr(baselines_module, "optimum_columns", counted)
            table = columns_by_day(specs, grids, modulation)
        assert seen == calls
        assert table.price.shape == table.clamped.shape == (len(specs), len(DayType), len(Method))
        # every (product, day, method) entry is bitwise that day's optimum
        for j, day in enumerate(DayType):
            for k, per_product in enumerate(optima(specs, grids, modulation.multiplier(day))):
                for i, want in enumerate(per_product):
                    price, d, profit, clamped = (a[i, j, k].item() for a in table)
                    assert_same(Optimum(price, d, profit, want.method, clamped), want)
