import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from pricelab import _kernels, qlearn
from pricelab.domain import (
    DayModulation,
    DayType,
    PriceGrid,
    ProductLanes,
    ProductSpec,
    default_price_grid,
    demand,
    noisy_demand,
    price_grids,
    reward,
)
from pricelab.qlearn import (
    GreedyOutcome,
    Hyperparams,
    QTable,
    calendar_day_types,
    calendar_next_day_types,
    epsilon_at,
    epsilon_schedule,
    evaluate_greedy,
    greedy_lanes,
    hyperparams_to_json,
    qtable_from_csv,
    qtable_to_csv,
    reward_lanes,
    reward_tables,
    select_action,
    train,
    train_lanes,
    update_q,
)
from pricelab.rng import XorShift64, seed_to_state

S24 = ProductSpec(name='Samsung 24" HD', base_demand=80.0, base_price=109.2, elasticity=-0.5)


def small_hp(**kw):
    base = dict(episodes=60, seed=7)
    base.update(kw)
    return Hyperparams(**base)


class TestHyperparams:
    def test_defaults_valid(self):
        hp = Hyperparams()
        assert hp.alpha == 0.1 and hp.gamma == 0.9 and hp.episodes == 10_000
        assert hp.steps_per_episode == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(gamma=1.0),
            dict(gamma=-0.1),
            dict(epsilon_start=1.2),
            dict(epsilon_min=-0.1),
            dict(epsilon_min=0.9, epsilon_start=0.5),
            dict(epsilon_decay=0.0),
            dict(epsilon_decay=1.5),
            dict(episodes=0),
            dict(steps_per_episode=0),
            dict(seed=-1),
            dict(seed=2**64),
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)


class TestEpsilonSchedule:
    def test_no_decay(self):
        hp = Hyperparams(epsilon_start=1.0, epsilon_min=0.0, epsilon_decay=1.0)
        for episode in (0, 1, 500):
            assert epsilon_at(hp, episode) == 1.0

    def test_decay_value(self):
        hp = Hyperparams(epsilon_start=1.0, epsilon_min=0.05, epsilon_decay=0.995)
        assert epsilon_at(hp, 100) == pytest.approx(0.6058, abs=1e-4)

    def test_floor_reached(self):
        hp = Hyperparams(epsilon_start=1.0, epsilon_min=0.05, epsilon_decay=0.995)
        assert epsilon_at(hp, 10_000) == 0.05

    def test_negative_episode_rejected(self):
        with pytest.raises(ValueError):
            epsilon_at(Hyperparams(), -1)

    def test_schedule_matches_pointwise(self):
        hp = small_hp(episodes=40)
        sched = epsilon_schedule(hp)
        assert sched.shape == (40,)
        assert all(sched[k] == epsilon_at(hp, k) for k in range(40))

    def test_schedule_is_a_new_array_per_call(self):
        # built once per setting, whatever the seed, and copied out
        hp = small_hp(episodes=40)
        epsilon_schedule(hp)[:] = 2.0
        again = epsilon_schedule(replace(hp, seed=99))
        assert all(again[k] == epsilon_at(hp, k) for k in range(40))


class TestSelectAction:
    def test_pure_exploitation_unique_max(self):
        q = QTable(np.array([[1.0, 5.0, 3.0]]))
        assert select_action(q, 0, 0.0, XorShift64(1)) == 1

    def test_tie_breaks_to_lowest_index(self):
        q = QTable(np.array([[2.0, 2.0, 0.0]]))
        assert select_action(q, 0, 0.0, XorShift64(1)) == 0

    def test_full_exploration_uniform(self):
        q = QTable(np.array([[9.0, 0.0, 0.0, 0.0]]))
        rng = XorShift64(123)
        n = 10_000
        counts = [0, 0, 0, 0]
        for _ in range(n):
            counts[select_action(q, 0, 1.0, rng)] += 1
        sigma = math.sqrt(n * 0.25 * 0.75)
        for c in counts:
            assert abs(c - n / 4) <= 3 * sigma

    def test_draw_consumption(self):
        # exploitation consumes one uniform, exploration two
        q = QTable(np.zeros((1, 3)))
        rng = XorShift64(5)
        select_action(q, 0, 0.0, rng)
        mirror = XorShift64(5)
        mirror.next_u64()
        assert rng.state == mirror.state
        select_action(q, 0, 1.0, rng)
        mirror.next_u64()
        mirror.next_u64()
        assert rng.state == mirror.state

    def test_epsilon_out_of_range(self):
        q = QTable(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            select_action(q, 0, 1.5, XorShift64(0))


class TestUpdateQ:
    def test_zero_bootstrap(self):
        q = QTable.zeros(2, 3)
        hp = Hyperparams(alpha=0.1, gamma=0.9)
        assert update_q(q, 0, 1, 100.0, 1, hp) == pytest.approx(10.0, rel=1e-15)

    def test_hand_arithmetic(self):
        q = QTable(np.array([[10.0, 0.0], [10.0, 4.0]]))
        hp = Hyperparams(alpha=0.1, gamma=0.9)
        assert update_q(q, 0, 0, 100.0, 1, hp) == pytest.approx(19.9, rel=1e-15)

    def test_full_replacement_myopic(self):
        q = QTable(np.array([[123.0, -5.0]]))
        hp = Hyperparams(alpha=1.0, gamma=0.0)
        assert update_q(q, 0, 0, 42.5, 0, hp) == 42.5

    def test_only_target_entry_changes(self):
        q = QTable(np.arange(6, dtype=float).reshape(2, 3))
        before = q.values.copy()
        update_q(q, 1, 2, 7.0, 0, Hyperparams())
        changed = q.values != before
        assert changed.sum() == 1 and changed[1, 2]

    def test_rejects_non_finite_reward(self):
        with pytest.raises(ValueError):
            update_q(QTable.zeros(1, 2), 0, 0, float("nan"), 0, Hyperparams())


class TestCalendar:
    def test_week_shape(self):
        assert calendar_day_types(7).tolist() == [0, 0, 0, 0, 0, 1, 1]
        assert calendar_next_day_types(7).tolist() == [0, 0, 0, 0, 1, 1, 0]

    def test_repeats_beyond_one_week(self):
        assert calendar_day_types(14).tolist() == [0, 0, 0, 0, 0, 1, 1] * 2

    def test_short_episode(self):
        assert calendar_day_types(3).tolist() == [0, 0, 0]
        assert calendar_next_day_types(3).tolist() == [0, 0, 0]


class TestTrainContract:
    def test_same_seed_identical(self):
        grid = default_price_grid(S24, 9)
        hp = small_hp(episodes=200)
        q1, t1 = train(S24, grid, hp=hp)
        q2, t2 = train(S24, grid, hp=hp)
        assert np.array_equal(q1.values, q2.values)
        assert np.array_equal(t1.episode_rewards, t2.episode_rewards)

    def test_different_seed_differs(self):
        grid = default_price_grid(S24, 9)
        q1, _ = train(S24, grid, hp=small_hp(seed=1, episodes=200))
        q2, _ = train(S24, grid, hp=small_hp(seed=2, episodes=200))
        assert not np.array_equal(q1.values, q2.values)

    def test_zero_init_means_untouched_entries_stay_zero(self):
        grid = default_price_grid(S24, 21)
        q, trace = train(S24, grid, hp=Hyperparams(episodes=1, epsilon_start=0.0, epsilon_min=0.0, seed=3))
        # one greedy-only episode touches a single action per state
        assert (trace.visit_counts > 0).sum() <= 2
        assert np.count_nonzero(q.values) <= 2
        # the all-zero rows tie, and ties break toward the lowest index
        assert trace.visit_counts[:, 0].sum() == 7

    def test_trace_contents(self):
        grid = default_price_grid(S24, 5)
        hp = small_hp(episodes=80)
        q, trace = train(S24, grid, hp=hp)
        assert len(trace) == 80
        assert np.array_equal(trace.epsilons, epsilon_schedule(hp))
        assert trace.episode_rewards.shape == (80,)
        assert np.isfinite(trace.episode_rewards).all()
        assert trace.visit_counts.sum() == 80 * hp.steps_per_episode
        assert trace.greedy_policies is None

    def test_policy_snapshots(self):
        grid = default_price_grid(S24, 5)
        q, trace = train(S24, grid, hp=small_hp(episodes=50), record_policies=True)
        assert trace.greedy_policies.shape == (50, 2)
        assert trace.greedy_policies[-1, 0] == q.argmax_action(0)
        assert trace.greedy_policies[-1, 1] == q.argmax_action(1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            train(S24, default_price_grid(S24, 5), hp=small_hp(), noise_sigma=-0.1)

    def test_q_bounds_invariant(self, monkeypatch):
        grid = default_price_grid(S24, 11)
        hp = small_hp(episodes=400)
        demand_table, margins = reward_tables(S24, grid, DayModulation(), hp.gamma)
        scalar, _ = train(S24, grid, hp=hp)
        monkeypatch.setattr(qlearn, "LOCKSTEP_MIN_PRODUCTS", 1)
        [lockstep] = train_lanes(demand_table[None], margins[None], hp, [hp.seed])
        r_max = max(reward(S24, p, demand(S24, p)) for p in grid)
        for values in (scalar.values, lockstep):
            assert (values >= 0.0).all()
            assert (values <= r_max / (1.0 - hp.gamma) * (1 + 1e-12)).all()

    def test_visit_counts_cover_week_shape(self):
        grid = default_price_grid(S24, 5)
        _, trace = train(S24, grid, hp=small_hp(episodes=100))
        # 5 of 7 steps are weekdays
        assert trace.visit_counts[0].sum() == 100 * 5
        assert trace.visit_counts[1].sum() == 100 * 2


def assert_train_lanes_paths(monkeypatch, demand_table, margins, hp, seeds, expected):
    """``train_lanes`` in lockstep (threshold n) and product by product
    (threshold n + 1) each give ``expected`` bit for bit, and each path
    runs only its own kernel."""

    def unused(*args, **kwargs):
        raise AssertionError("the other kernel ran")

    n = len(seeds)
    for threshold, other in ((n, "run_train_kernel"), (n + 1, "run_lockstep_kernel")):
        with monkeypatch.context() as m:
            m.setattr(qlearn, "LOCKSTEP_MIN_PRODUCTS", threshold)
            m.setattr(_kernels, other, unused)
            tables = train_lanes(demand_table, margins, hp, seeds)
        assert tables.shape == demand_table.shape
        assert [t.tobytes() for t in tables] == [e.tobytes() for e in expected]


class TestLockstep:
    @pytest.mark.parametrize(
        "hp",
        [
            small_hp(episodes=300, steps_per_episode=10, alpha=0.3, gamma=0.7, epsilon_decay=0.99),
            # never explores: every choice from the zero table is a greedy tie
            small_hp(epsilon_start=0.0, epsilon_min=0.0),
        ],
        ids=["explore", "greedy-ties"],
    )
    def test_tables_bitwise_equal_to_train(self, hp, monkeypatch):
        specs = [
            S24,
            ProductSpec(name="b", base_demand=40.0, base_price=20.0, elasticity=-3.1, unit_cost=12.0),
            ProductSpec(name="c", base_demand=0.0, base_price=5.0, elasticity=-1.0),
        ]
        modulation = DayModulation(1.0, 1.2)
        seeds = [0, 2**64 - 1, 12345]
        grids = [default_price_grid(spec, 9) for spec in specs]
        demand_table, margins, _ = reward_lanes(
            ProductLanes.of(specs), np.array([g.as_array() for g in grids]), modulation, hp.gamma
        )
        expected = [
            train(spec, grid, modulation, replace(hp, seed=seed))[0].values
            for spec, grid, seed in zip(specs, grids, seeds)
        ]
        assert_train_lanes_paths(monkeypatch, demand_table, margins, hp, seeds, expected)

    def test_zero_lanes(self, monkeypatch):
        hp = small_hp()
        assert_train_lanes_paths(monkeypatch, np.empty((0, 2, 9)), np.empty((0, 9)), hp, [], [])

    def test_rejects_overflowing_rewards(self):
        big = ProductSpec(name="big", base_demand=1e307, base_price=100.0, elasticity=-0.5)
        with pytest.raises(ValueError, match="overflow"):
            train(big, default_price_grid(big, 5), hp=small_hp())
        # finite rewards whose discounted bound overflows
        near = ProductSpec(name="near", base_demand=1e306, base_price=100.0, elasticity=-0.5)
        with pytest.raises(ValueError, match="overflow"):
            reward_tables(near, default_price_grid(near, 5), DayModulation(), 0.9)


class TestReplayParity:
    """Training must equal a step-by-step replay through the public ops."""

    def replay(self, spec, grid, modulation, hp, noise_sigma):
        """Returns the table, per-episode reward totals, visit counts and
        per-episode greedy policies."""
        q = QTable.zeros(2, len(grid))
        rng = XorShift64(hp.seed)
        days = calendar_day_types(hp.steps_per_episode)
        nxt = calendar_next_day_types(hp.steps_per_episode)
        visits = np.zeros((2, len(grid)), dtype=np.int64)
        totals = []
        policies = []
        for episode in range(hp.episodes):
            eps = epsilon_at(hp, episode)
            total = 0.0
            for t in range(hp.steps_per_episode):
                s = int(days[t])
                a = select_action(q, s, eps, rng)
                price = grid[a]
                mult = modulation.multiplier(DayType(s))
                r = reward(spec, price, noisy_demand(spec, price, mult, noise_sigma, rng))
                update_q(q, s, a, r, int(nxt[t]), hp)
                visits[s, a] += 1
                total += r
            totals.append(total)
            policies.append([q.argmax_action(0), q.argmax_action(1)])
        return q, np.array(totals), visits, np.array(policies, dtype=np.int64)

    @pytest.mark.parametrize(
        "unit_cost, noise_sigma, hp",
        [
            pytest.param(30.0, 0.0, small_hp(episodes=120, seed=42), id="0.0"),
            pytest.param(30.0, 0.2, small_hp(episodes=120, seed=42), id="0.2"),
            # negative margins below the cost: zero demand earns a reward of -0.0
            pytest.param(0.9 * 142.7, 0.0, small_hp(episodes=120, seed=42), id="negative-margin-0.0"),
            pytest.param(0.9 * 142.7, 0.5, small_hp(episodes=120, seed=42), id="negative-margin-0.5"),
            pytest.param(0.9 * 142.7, 2.0, small_hp(episodes=120, seed=42), id="negative-margin-2.0"),
            # greedy only: each losing greedy value falls and the row's best moves on
            pytest.param(
                0.9 * 142.7, 0.0, small_hp(episodes=120, seed=42, epsilon_start=0.0, epsilon_min=0.0), id="greedy-only"
            ),
        ],
    )
    def test_kernel_matches_public_ops(self, unit_cost, noise_sigma, hp):
        spec = ProductSpec(name="costy", base_demand=40.0, base_price=142.7, elasticity=-1.9, unit_cost=unit_cost)
        grid = default_price_grid(spec, 7)
        modulation = DayModulation(weekday=1.0, weekend=1.2)
        q_train, trace = train(spec, grid, modulation, hp, noise_sigma=noise_sigma, record_policies=True)
        q_replay, totals, visits, policies = self.replay(spec, grid, modulation, hp, noise_sigma)
        assert np.array_equal(q_train.values, q_replay.values)
        assert np.array_equal(trace.episode_rewards, totals)
        assert np.array_equal(trace.visit_counts, visits)
        assert np.array_equal(trace.greedy_policies, policies)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_kernel_tie_breaks_match_public_ops(self, gamma):
        # integer demands with repeated values: with alpha = 1 many updates
        # write a value equal to the row's best, at a lower or higher index
        demand_table = np.array([[0.0, 5.0, 0.0, 5.0, 2.0, 5.0], [1.0, 3.0, 3.0, 0.0, 3.0, 1.0]])
        margins = np.ones(6)
        days = calendar_day_types(7)
        nxt = calendar_next_day_types(7)
        for seed in range(20):
            hp = Hyperparams(alpha=1.0, gamma=gamma, epsilon_decay=0.9, episodes=30, seed=seed)
            eps = epsilon_schedule(hp)
            values, _, _, policies = _kernels.run_train_kernel(
                demand_table, margins, days, nxt, eps, hp.alpha, hp.gamma, seed_to_state(seed), record_policies=True
            )
            q = QTable.zeros(2, 6)
            rng = XorShift64(seed)
            expected = []
            for episode_eps in eps:
                for s, ns in zip(days, nxt):
                    a = select_action(q, int(s), float(episode_eps), rng)
                    update_q(q, int(s), a, margins[a] * demand_table[s, a], int(ns), hp)
                expected.append([q.argmax_action(0), q.argmax_action(1)])
            assert values.tobytes() == q.values.tobytes(), seed
            assert policies.tolist() == expected, seed


class TestNoiseHook:
    def test_noise_off_by_default_matches_sigma_zero(self):
        grid = default_price_grid(S24, 5)
        hp = small_hp(episodes=50)
        q_default, _ = train(S24, grid, hp=hp)
        q_zero, _ = train(S24, grid, hp=hp, noise_sigma=0.0)
        assert np.array_equal(q_default.values, q_zero.values)

    def test_noise_deterministic(self):
        grid = default_price_grid(S24, 5)
        hp = small_hp(episodes=50)
        q1, _ = train(S24, grid, hp=hp, noise_sigma=0.2)
        q2, _ = train(S24, grid, hp=hp, noise_sigma=0.2)
        assert np.array_equal(q1.values, q2.values)
        q3, _ = train(S24, grid, hp=hp, noise_sigma=0.0)
        assert not np.array_equal(q1.values, q3.values)
        assert np.isfinite(q1.values).all()


class TestConvergence:
    def test_greedy_equals_grid_argmax_at_defaults(self):
        grid = default_price_grid(S24, 21)
        q, _ = train(S24, grid, hp=Hyperparams(seed=0))
        profits = [reward(S24, p, demand(S24, p)) for p in grid]
        oracle = profits.index(max(profits))
        assert q.argmax_action(0) == oracle
        assert q.argmax_action(1) == oracle
        # the 21-point grid's best price (vertex itself is off-grid)
        assert grid[oracle] == pytest.approx(161.07, abs=1e-9)


class TestEvaluateGreedy:
    def test_all_zero_table_reports_first_price(self):
        grid = default_price_grid(S24, 5)
        out = evaluate_greedy(QTable.zeros(2, 5), S24, grid)
        assert [o.day_type for o in out] == [DayType.WEEKDAY, DayType.WEEKEND]
        assert all(o.price == grid[0] for o in out)

    def test_profit_recomputed_from_domain(self):
        grid = default_price_grid(S24, 5)
        values = np.zeros((2, 5))
        values[0, 3] = 1.0
        values[1, 2] = 1.0
        mod = DayModulation(weekday=1.0, weekend=1.2)
        out = evaluate_greedy(QTable(values), S24, grid, mod)
        for o, expected_action in zip(out, (3, 2)):
            price = grid[expected_action]
            d = demand(S24, price, mod.multiplier(o.day_type))
            assert o.price == price
            assert o.demand == d
            assert o.profit == reward(S24, price, d)

    def test_no_mutation(self):
        grid = default_price_grid(S24, 5)
        q = QTable(np.random.default_rng(0).random((2, 5)))
        before = q.values.copy()
        evaluate_greedy(q, S24, grid)
        assert np.array_equal(q.values, before)

    def test_day_invariant_price_after_training(self):
        grid = default_price_grid(S24, 21)
        mod = DayModulation(weekday=1.0, weekend=1.2)
        q, _ = train(S24, grid, mod, Hyperparams(seed=0, episodes=4000))
        out = evaluate_greedy(q, S24, grid, mod)
        assert isinstance(out[0], GreedyOutcome)
        # multiplicative day effect scales profit but not the argmax of profit
        assert out[0].profit * 1.2 == pytest.approx(out[1].profit, rel=1e-9) or out[0].price == out[1].price


def random_specs(count, seed):
    """Prices from 1e-3 to 1e6; some demands big enough that rewards or
    their discounted bound overflow."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        p0 = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
        specs.append(
            ProductSpec(
                name=f"p{i}",
                base_demand=rng.choice([0.0, rng.uniform(0.0, 500.0), 1e306, 1e308]),
                base_price=p0,
                elasticity=-math.exp(rng.uniform(math.log(0.01), math.log(30.0))),
                unit_cost=rng.choice([0.0, p0 * rng.uniform(0.0, 0.99)]),
            )
        )
    return specs


def same_bits(got, want) -> bool:
    return np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


def oracle_reward_tables(spec, prices, modulation, gamma):
    """The scalar build ``reward_lanes`` replaced: (demand, margins, the
    overflow message or None)."""
    mults = (modulation.weekday, modulation.weekend)
    demand_table = np.empty((2, len(prices)))
    for s in range(2):
        for a, price in enumerate(prices):
            demand_table[s, a] = demand(spec, price, mults[s])
    margins = np.array(prices) - spec.unit_cost
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.abs(margins * demand_table).max()) / (1.0 - gamma)
    error = None if math.isfinite(bound) else f"rewards overflow: max |reward| / (1 - gamma) is {bound}"
    return demand_table, margins, error


# rewards of inf, finite rewards whose bound overflows at gamma 0.9, and a
# NaN reward: infinite demand at the grid price that equals the unit cost
OVERFLOWING = [
    ProductSpec(name="big", base_demand=1e307, base_price=100.0, elasticity=-0.5),
    ProductSpec(name="near", base_demand=1e306, base_price=100.0, elasticity=-0.5),
    ProductSpec(name="nan", base_demand=1e308, base_price=100.0, elasticity=-1e308, unit_cost=50.0),
]


class TestRewardLanes:
    @pytest.mark.parametrize(
        "modulation, gamma",
        [(DayModulation(), 0.9), (DayModulation(1.0, 1.2), 0.0), (DayModulation(0.7, 1.3), 0.999)],
    )
    def test_rows_equal_scalar_oracle(self, modulation, gamma):
        specs = random_specs(300, seed=int(gamma * 1000)) + OVERFLOWING
        grids = price_grids(specs, 21)
        demand_table, margins, overflow = reward_lanes(ProductLanes.of(specs), grids, modulation, gamma)
        assert demand_table.shape == (len(specs), 2, 21) and margins.shape == (len(specs), 21)
        errors = {}
        for i, (spec, prices) in enumerate(zip(specs, grids.tolist())):
            want_demand, want_margins, error = oracle_reward_tables(spec, prices, modulation, gamma)
            assert same_bits(demand_table[i], want_demand), spec
            assert same_bits(margins[i], want_margins), spec
            if error is not None:
                errors[i] = error
        assert overflow == errors
        assert {"inf", "nan"} <= {message.rsplit(" ", 1)[1] for message in errors.values()}

    def test_one_product_call(self):
        modulation = DayModulation(1.0, 1.2)
        for spec in random_specs(40, seed=3) + OVERFLOWING:
            grid = default_price_grid(spec, 9)
            want_demand, want_margins, error = oracle_reward_tables(spec, list(grid), modulation, 0.9)
            if error is None:
                got_demand, got_margins = reward_tables(spec, grid, modulation, 0.9)
                assert same_bits(got_demand, want_demand) and same_bits(got_margins, want_margins)
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                    reward_tables(spec, grid, modulation, 0.9)

    def test_empty_catalog(self):
        demand_table, margins, overflow = reward_lanes(ProductLanes.of([]), price_grids([], 5), DayModulation(), 0.9)
        assert demand_table.shape == (0, 2, 5) and margins.shape == (0, 5) and overflow == {}


def oracle_greedy(q, spec, prices, modulation):
    """The per-product greedy read ``greedy_lanes`` replaced."""
    out = []
    for day in (DayType.WEEKDAY, DayType.WEEKEND):
        price = prices[q.argmax_action(int(day))]
        d = demand(spec, price, modulation.multiplier(day))
        out.append((price, d, reward(spec, price, d)))
    return out


class TestGreedyLanes:
    @pytest.mark.parametrize("modulation", [DayModulation(), DayModulation(1.0, 1.2)])
    def test_rows_equal_scalar_oracle(self, modulation):
        specs = random_specs(300, seed=11)
        grids = price_grids(specs, 9)
        rng = np.random.default_rng(5)
        # values 0, 1 and 2 only: most rows hold ties, which break toward the lowest index
        values = rng.integers(0, 3, size=(len(specs), 2, 9)).astype(np.float64)
        values[::7] = 0.0
        values[1::7] = -0.0
        lanes = greedy_lanes(values, ProductLanes.of(specs), grids, modulation)
        assert [a.shape for a in lanes] == [(len(specs), 2)] * 3
        for i, spec in enumerate(specs):
            want = oracle_greedy(QTable(values[i]), spec, grids[i].tolist(), modulation)
            got = list(zip(*(a[i].tolist() for a in lanes)))
            assert same_bits(got, want), spec
            outcomes = evaluate_greedy(QTable(values[i]), spec, PriceGrid(tuple(grids[i].tolist())), modulation)
            assert [o.day_type for o in outcomes] == [DayType.WEEKDAY, DayType.WEEKEND]
            assert same_bits([(o.price, o.demand, o.profit) for o in outcomes], want)
            assert all(type(o.price) is float for o in outcomes)

    def test_ties_pick_the_lowest_index(self):
        grids = np.array([[1.0, 2.0, 3.0, 4.0]])
        values = np.array([[[0.0, 5.0, 5.0, 1.0], [2.0, 2.0, 2.0, 2.0]]])
        prices, _, _ = greedy_lanes(values, ProductLanes.of([S24]), grids)
        assert prices.tolist() == [[2.0, 1.0]]


class TestSerialization:
    def test_csv_round_trip(self):
        grid = default_price_grid(S24, 6)
        q, _ = train(S24, grid, hp=small_hp(episodes=30))
        text = qtable_to_csv(q, grid)
        labels, prices, values = qtable_from_csv(text)
        assert labels == ["Weekday", "Weekend"]
        assert prices == list(grid)
        assert np.array_equal(values, q.values)

    def test_header_carries_grid_prices(self):
        grid = default_price_grid(S24, 4)
        text = qtable_to_csv(QTable.zeros(2, 4), grid)
        header = text.splitlines()[0]
        assert header.startswith("state,")
        assert repr(grid[0]) in header and repr(grid[3]) in header

    def test_hyperparams_sidecar_round_trip(self):
        import json

        hp = small_hp(episodes=123, alpha=0.25)
        loaded = json.loads(hyperparams_to_json(hp))
        assert Hyperparams(**loaded) == hp
