import csv
import io
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
    qtable_to_csv,
    reward_lanes,
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

    @pytest.mark.parametrize("field, value", [("episodes", 2.5), ("steps_per_episode", True), ("seed", 1.5)])
    def test_integer_fields_reject_other_values(self, field, value):
        # rejected where constructed, not later by numpy or an & on the seed
        with pytest.raises(ValueError) as excinfo:
            Hyperparams(**{field: value})
        assert str(excinfo.value) == f"{field} must be an integer, got {value!r}"
        assert getattr(Hyperparams(**{field: np.int64(3)}), field) == 3


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
        q = QTable(np.zeros((2, 3)))
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
            update_q(QTable(np.zeros((1, 2))), 0, 0, float("nan"), 0, Hyperparams())


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
        assert len(trace.epsilons) == 80
        assert np.array_equal(trace.epsilons, epsilon_schedule(hp))
        assert trace.episode_rewards.shape == (80,)
        assert np.isfinite(trace.episode_rewards).all()
        assert trace.visit_counts.sum() == 80 * hp.steps_per_episode
        assert trace.greedy_policies.shape == (80, 2)

    def test_policy_snapshots(self):
        grid = default_price_grid(S24, 5)
        q, trace = train(S24, grid, hp=small_hp(episodes=50))
        assert trace.greedy_policies.shape == (50, 2)
        assert trace.greedy_policies[-1, 0] == q.argmax_action(0)
        assert trace.greedy_policies[-1, 1] == q.argmax_action(1)

    def test_q_bounds_invariant(self, monkeypatch):
        grid = default_price_grid(S24, 11)
        hp = small_hp(episodes=400)
        rewards, _ = reward_lanes(ProductLanes.of([S24]), grid.as_array()[None], DayModulation(), hp.gamma)
        scalar, _ = train(S24, grid, hp=hp)
        monkeypatch.setattr(qlearn, "LOCKSTEP_MIN_PRODUCTS", 1)
        [lockstep] = train_lanes(rewards, hp, [hp.seed])
        r_max = max(reward(S24, p, demand(S24, p)) for p in grid.prices)
        for values in (scalar.values, lockstep):
            assert (values >= 0.0).all()
            assert (values <= r_max / (1.0 - hp.gamma) * (1 + 1e-12)).all()

    def test_visit_counts_cover_week_shape(self):
        grid = default_price_grid(S24, 5)
        _, trace = train(S24, grid, hp=small_hp(episodes=100))
        # 5 of 7 steps are weekdays
        assert trace.visit_counts[0].sum() == 100 * 5
        assert trace.visit_counts[1].sum() == 100 * 2


def assert_train_lanes_paths(monkeypatch, rewards, hp, seeds, expected):
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
            tables = train_lanes(rewards, hp, seeds)
        assert tables.shape == rewards.shape
        assert [t.tobytes() for t in tables] == [e.tobytes() for e in expected]


def varied_specs(n: int, seed: int) -> list[ProductSpec]:
    """Products whose grids reach below cost and past zero demand: negative
    margins, and rewards of 0.0 and -0.0 (some sell nothing at all)."""
    rng = random.Random(seed)
    specs = []
    for i in range(n):
        price = round(rng.uniform(1.0, 500.0), 2)
        specs.append(
            ProductSpec(
                name=f"p{i}",
                base_demand=0.0 if i % 5 == 0 else round(rng.uniform(1.0, 80.0), 1),
                base_price=price,
                elasticity=-round(rng.uniform(0.3, 4.0), 2),
                unit_cost=round(price * rng.uniform(0.0, 0.95), 2),
            )
        )
    return specs


THREE = [
    S24,
    ProductSpec(name="b", base_demand=40.0, base_price=20.0, elasticity=-3.1, unit_cost=12.0),
    ProductSpec(name="c", base_demand=0.0, base_price=5.0, elasticity=-1.0),
]

# how the lockstep kernel draws each lane's words ahead
LOCKSTEP_DRAWS = {
    "blocks": {},
    # two jump-ahead lanes of 16 words at 44 lanes: lanes run out of a
    # block every dozen steps or so
    "short-blocks": {"_BLOCK_WORDS": 32 * 44},
    # no jump-ahead: 4 words a lane, stepped from the lane's own state
    "stepped-blocks": {"_BLOCK_WORDS": 1},
}


class TestLockstep:
    @pytest.mark.parametrize("draws", list(LOCKSTEP_DRAWS))
    @pytest.mark.parametrize(
        "specs, hp",
        [
            pytest.param(THREE, small_hp(episodes=300, steps_per_episode=10, alpha=0.3, gamma=0.7, epsilon_decay=0.99), id="explore"),
            # never explores: every choice from the zero table is a greedy tie
            pytest.param(THREE, small_hp(epsilon_start=0.0, epsilon_min=0.0), id="greedy-ties"),
            # rewards of -0.0 below cost, and greedy values that fall
            pytest.param(varied_specs(6, 1), small_hp(episodes=300, epsilon_decay=0.97), id="negative-margins"),
            # each update overwrites: equal values, ties at lower and higher indices
            pytest.param(varied_specs(6, 2), small_hp(episodes=300, alpha=1.0, epsilon_decay=0.97), id="alpha-1"),
            # the floor starts at step 0
            pytest.param(varied_specs(6, 3), small_hp(episodes=200, epsilon_start=0.35), id="floor-from-start"),
            pytest.param(varied_specs(6, 4), small_hp(episodes=1, steps_per_episode=1), id="1-step"),
            pytest.param(varied_specs(6, 5), small_hp(episodes=40, steps_per_episode=1, epsilon_start=0.35), id="1-step-floor"),
            # past the floor (episode 21 at decay 0.95) every lane reads its own
            # number of words from each block
            pytest.param(varied_specs(44, 6), small_hp(episodes=400, alpha=1.0, epsilon_decay=0.95), id="44-lanes"),
        ],
    )
    def test_tables_bitwise_equal_to_train(self, specs, hp, draws, monkeypatch):
        modulation = DayModulation(1.0, 1.2)
        seeds = [0, 2**64 - 1, 12345, *range(1, len(specs) - 2)]
        grids = [default_price_grid(spec, 9) for spec in specs]
        rewards, overflow = reward_lanes(
            ProductLanes.of(specs), np.array([g.as_array() for g in grids]), modulation, hp.gamma
        )
        assert not overflow
        expected = [
            train(spec, grid, modulation, replace(hp, seed=seed))[0].values
            for spec, grid, seed in zip(specs, grids, seeds)
        ]
        for name, value in LOCKSTEP_DRAWS[draws].items():
            monkeypatch.setattr(_kernels, name, value)
        assert_train_lanes_paths(monkeypatch, rewards, hp, seeds, expected)

    @pytest.mark.parametrize("hp", [small_hp(), small_hp(epsilon_start=0.35)], ids=["decay", "floor"])
    def test_zero_lanes(self, hp, monkeypatch):
        assert_train_lanes_paths(monkeypatch, np.empty((0, 2, 9)), hp, [], [])

    def test_rejects_overflowing_rewards(self):
        # inf rewards, finite rewards whose discounted bound overflows, and a NaN reward
        for spec in OVERFLOWING:
            grid = default_price_grid(spec, 9)
            _, error = oracle_reward_tables(spec, list(grid.prices), DayModulation(), 0.9)
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                train(spec, grid, hp=small_hp())


class TestReplayParity:
    """Training must equal a step-by-step replay through the public ops."""

    def replay(self, spec, grid, modulation, hp):
        """Returns the table, per-episode reward totals, visit counts and
        per-episode greedy policies."""
        q = QTable(np.zeros((2, len(grid.prices))))
        rng = XorShift64(hp.seed)
        days = calendar_day_types(hp.steps_per_episode)
        nxt = calendar_next_day_types(hp.steps_per_episode)
        visits = np.zeros((2, len(grid.prices)), dtype=np.int64)
        totals = []
        policies = []
        for episode in range(hp.episodes):
            eps = epsilon_at(hp, episode)
            total = 0.0
            for t in range(hp.steps_per_episode):
                s = int(days[t])
                a = select_action(q, s, eps, rng)
                price = grid.prices[a]
                r = reward(spec, price, demand(spec, price, modulation.multiplier(DayType(s))))
                update_q(q, s, a, r, int(nxt[t]), hp)
                visits[s, a] += 1
                total += r
            totals.append(total)
            policies.append([q.argmax_action(0), q.argmax_action(1)])
        return q, np.array(totals), visits, np.array(policies, dtype=np.int64)

    @pytest.mark.parametrize(
        "unit_cost, hp",
        [
            pytest.param(30.0, small_hp(episodes=120, seed=42), id="decay"),
            # negative margins below the cost: zero demand earns a reward of -0.0
            pytest.param(0.9 * 142.7, small_hp(episodes=120, seed=42), id="negative-margin"),
            # greedy only: each losing greedy value falls and the row's best moves on
            pytest.param(0.9 * 142.7, small_hp(episodes=120, seed=42, epsilon_start=0.0, epsilon_min=0.0), id="greedy-only"),
            # past the floor (episode 21 at decay 0.95) the codes come in multi-episode blocks
            pytest.param(30.0, small_hp(episodes=400, seed=43, epsilon_decay=0.95), id="floor"),
            pytest.param(0.9 * 142.7, small_hp(episodes=400, seed=44, epsilon_decay=0.95), id="floor-negative-margin"),
            pytest.param(30.0, small_hp(episodes=400, seed=45, epsilon_decay=0.95, steps_per_episode=1), id="floor-1-step"),
            pytest.param(30.0, small_hp(episodes=400, seed=46, epsilon_decay=0.95, steps_per_episode=10), id="floor-10-steps"),
            pytest.param(30.0, small_hp(episodes=1, seed=47), id="1-episode"),
            pytest.param(30.0, small_hp(episodes=400, seed=48, epsilon_min=1.0), id="epsilon-1"),
            # a decay over many draw blocks, with episodes that end inside a block
            pytest.param(30.0, small_hp(episodes=1500, seed=49, epsilon_decay=0.999, steps_per_episode=5), id="decay-0.999-5-steps"),
        ],
    )
    def test_kernel_matches_public_ops(self, unit_cost, hp):
        spec = ProductSpec(name="costy", base_demand=40.0, base_price=142.7, elasticity=-1.9, unit_cost=unit_cost)
        grid = default_price_grid(spec, 7)
        modulation = DayModulation(weekday=1.0, weekend=1.2)
        q_train, trace = train(spec, grid, modulation, hp)
        q_replay, totals, visits, policies = self.replay(spec, grid, modulation, hp)
        assert np.array_equal(q_train.values, q_replay.values)
        assert trace.episode_rewards.tobytes() == totals.tobytes()
        assert np.array_equal(trace.visit_counts, visits)
        assert np.array_equal(trace.greedy_policies, policies)

    def test_reward_totals_keep_the_sign_of_zero(self):
        # nothing sells and the greedy price is below cost: every reward is
        # -0.0, and a total summed from 0.0 is 0.0
        spec = ProductSpec(name="idle", base_demand=0.0, base_price=142.7, elasticity=-1.9, unit_cost=0.9 * 142.7)
        grid = default_price_grid(spec, 7)
        hp = small_hp(episodes=30, epsilon_start=0.0, epsilon_min=0.0)
        _, trace = train(spec, grid, DayModulation(), hp)
        _, totals, _, _ = self.replay(spec, grid, DayModulation(), hp)
        assert trace.episode_rewards.tobytes() == totals.tobytes() == np.zeros(30).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reward_totals_overflow_to_inf_without_a_warning(self):
        # every reward is finite, so training at gamma 0 accepts the product,
        # but a week of them sums past the float maximum, as a scalar sum does
        spec = ProductSpec(name="Edge", base_demand=1.7978e154, base_price=1e154, elasticity=-1.0)
        grid = default_price_grid(spec)
        hp = small_hp(episodes=40, gamma=0.0)
        _, trace = train(spec, grid, DayModulation(), hp)
        _, totals, _, _ = self.replay(spec, grid, DayModulation(), hp)
        assert np.isinf(totals).any()
        assert trace.episode_rewards.tobytes() == totals.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_kernel_tie_breaks_match_public_ops(self, gamma, monkeypatch):
        # integer demands with repeated values: with alpha = 1 many updates
        # write a value equal to the row's best, at a lower or higher index
        demand_table = np.array([[0.0, 5.0, 0.0, 5.0, 2.0, 5.0], [1.0, 3.0, 3.0, 0.0, 3.0, 1.0]])
        margins = np.ones(6)
        monkeypatch.setattr(qlearn, "reward_lanes", lambda *args: ((margins * demand_table)[None], {}))
        grid = default_price_grid(S24, 6)  # only its size matters here
        days = calendar_day_types(7)
        nxt = calendar_next_day_types(7)
        for seed in range(20):
            hp = Hyperparams(alpha=1.0, gamma=gamma, epsilon_decay=0.9, episodes=300, seed=seed)
            values, trace = train(S24, grid, hp=hp)
            q = QTable(np.zeros((2, 6)))
            rng = XorShift64(seed)
            visits = np.zeros((2, 6), dtype=np.int64)
            expected = []
            for episode_eps in epsilon_schedule(hp):
                for s, ns in zip(days, nxt):
                    a = select_action(q, int(s), float(episode_eps), rng)
                    update_q(q, int(s), a, margins[a] * demand_table[s, a], int(ns), hp)
                    visits[s, a] += 1
                expected.append([q.argmax_action(0), q.argmax_action(1)])
            assert values.values.tobytes() == q.values.tobytes(), seed
            assert trace.greedy_policies.tolist() == expected, seed
            assert np.array_equal(trace.visit_counts, visits), seed


class TestConvergence:
    def test_greedy_equals_grid_argmax_at_defaults(self):
        grid = default_price_grid(S24, 21)
        q, _ = train(S24, grid, hp=Hyperparams(seed=0))
        profits = [reward(S24, p, demand(S24, p)) for p in grid.prices]
        oracle = profits.index(max(profits))
        assert q.argmax_action(0) == oracle
        assert q.argmax_action(1) == oracle
        # the 21-point grid's best price (vertex itself is off-grid)
        assert grid.prices[oracle] == pytest.approx(161.07, abs=1e-9)


class TestEvaluateGreedy:
    def test_all_zero_table_reports_first_price(self):
        grid = default_price_grid(S24, 5)
        out = evaluate_greedy(QTable(np.zeros((2, 5))), S24, grid)
        assert [o.day_type for o in out] == [DayType.WEEKDAY, DayType.WEEKEND]
        assert all(o.price == grid.prices[0] for o in out)

    def test_profit_recomputed_from_domain(self):
        grid = default_price_grid(S24, 5)
        values = np.zeros((2, 5))
        values[0, 3] = 1.0
        values[1, 2] = 1.0
        mod = DayModulation(weekday=1.0, weekend=1.2)
        out = evaluate_greedy(QTable(values), S24, grid, mod)
        for o, expected_action in zip(out, (3, 2)):
            price = grid.prices[expected_action]
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


def grid_rows(specs, points):
    """Each product's ``default_price_grid`` as one row of an array."""
    return np.array([default_price_grid(s, points).prices for s in specs]).reshape(-1, points)


def same_bits(got, want) -> bool:
    return np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


def oracle_reward_tables(spec, prices, modulation, gamma):
    """The scalar build ``reward_lanes`` replaced: (the scalar
    ``margin * demand`` per day type and price, the overflow message or
    None)."""
    mults = (modulation.weekday, modulation.weekend)
    rewards = np.array([[(price - spec.unit_cost) * demand(spec, price, m) for price in prices] for m in mults])
    bound = float(np.abs(rewards).max()) / (1.0 - gamma)
    error = None if math.isfinite(bound) else f"rewards overflow: max |reward| / (1 - gamma) is {bound}"
    return rewards, error


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
        grids = grid_rows(specs, 21)
        rewards, overflow = reward_lanes(ProductLanes.of(specs), grids, modulation, gamma)
        assert rewards.shape == (len(specs), 2, 21)
        errors = {}
        for i, (spec, prices) in enumerate(zip(specs, grids.tolist())):
            want, error = oracle_reward_tables(spec, prices, modulation, gamma)
            assert same_bits(rewards[i], want), spec
            if error is not None:
                errors[i] = error
        assert overflow == errors
        assert {"inf", "nan"} <= {message.rsplit(" ", 1)[1] for message in errors.values()}

    def test_empty_catalog(self):
        rewards, overflow = reward_lanes(ProductLanes.of([]), grid_rows([], 5), DayModulation(), 0.9)
        assert rewards.shape == (0, 2, 5) and overflow == {}


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
        grids = grid_rows(specs, 9)
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
        header, *rows = csv.reader(io.StringIO(qtable_to_csv(q, grid)))
        assert header == ["state"] + [repr(p) for p in grid.prices]
        assert [r[0] for r in rows] == ["Weekday", "Weekend"]
        assert np.array_equal([[float(v) for v in r[1:]] for r in rows], q.values)

    def test_header_carries_grid_prices(self):
        grid = default_price_grid(S24, 4)
        text = qtable_to_csv(QTable(np.zeros((2, 4))), grid)
        header = text.splitlines()[0]
        assert header.startswith("state,")
        assert repr(grid.prices[0]) in header and repr(grid.prices[3]) in header

    def test_hyperparams_sidecar_round_trip(self):
        import json

        hp = small_hp(episodes=123, alpha=0.25)
        loaded = json.loads(hyperparams_to_json(hp))
        assert Hyperparams(**loaded) == hp
