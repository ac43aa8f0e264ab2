"""Tabular Q-learning over the pricing environment.

The agent learns action values for a two-row table (one row per day
type) whose actions are the prices of a fixed grid.  Training walks a
repeating 7-day calendar, five weekdays then two weekend days, one
simulated week per episode; the value update bootstraps against the next
calendar day's state.  Action selection is epsilon-greedy with a
per-episode exponentially decaying epsilon held above a floor.

Given identical inputs (including the seed carried by Hyperparams) a
training run is bitwise deterministic.  ``train_lockstep`` trains many
products in one pass and gives each the table ``train`` would.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .domain import DayModulation, DayType, PriceGrid, ProductSpec, demand, reward
from .rng import MASK64, XorShift64, seed_to_state


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs; construction rejects out-of-range values.

    The epsilon floor is high (0.35) on purpose: with a fixed learning
    rate on this deterministic environment, rarely-tried prices keep a
    stale value estimate unless exploration keeps revisiting them, and
    the floor is what drives every action's value to its fixed point
    within the default episode budget.  Exploration costs nothing here
    because evaluation is exploration-free.
    """

    alpha: float = 0.1
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_min: float = 0.35
    epsilon_decay: float = 0.995
    episodes: int = 10_000
    steps_per_episode: int = 7
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")
        if not (0 <= self.gamma < 1):
            raise ValueError("gamma must be in [0, 1)")
        if not (0 <= self.epsilon_start <= 1):
            raise ValueError("epsilon_start must be in [0, 1]")
        if not (0 <= self.epsilon_min <= self.epsilon_start):
            raise ValueError("epsilon_min must be in [0, epsilon_start]")
        if not (0 < self.epsilon_decay <= 1):
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.steps_per_episode < 1:
            raise ValueError("steps_per_episode must be >= 1")
        if not (0 <= self.seed <= MASK64):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass
class QTable:
    """Dense action-value table indexed by (state, action)."""

    values: np.ndarray

    @classmethod
    def zeros(cls, state_count: int, action_count: int) -> "QTable":
        return cls(np.zeros((state_count, action_count)))

    @property
    def state_count(self) -> int:
        return self.values.shape[0]

    @property
    def action_count(self) -> int:
        return self.values.shape[1]

    def argmax_action(self, state_index: int) -> int:
        """Greedy action; ties break toward the lowest index."""
        return int(np.argmax(self.values[state_index]))


@dataclass
class TrainingTrace:
    """Per-episode observability: epsilon used, total reward, optional
    greedy-policy snapshots, and the state/action visit counts."""

    epsilons: np.ndarray
    episode_rewards: np.ndarray
    visit_counts: np.ndarray
    greedy_policies: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.epsilons)


@dataclass(frozen=True)
class GreedyOutcome:
    """Exploration-free result for one state."""

    day_type: DayType
    price: float
    demand: float
    profit: float


def epsilon_at(hp: Hyperparams, episode: int) -> float:
    """Exploration rate for an episode: decayed start, floored at the minimum."""
    if episode < 0:
        raise ValueError("episode must be >= 0")
    return max(hp.epsilon_min, hp.epsilon_start * hp.epsilon_decay**episode)


def epsilon_schedule(hp: Hyperparams) -> np.ndarray:
    """``epsilon_at`` of every episode, as a new array.

    The products of a run differ only in their seeds, so the schedule is
    built once per setting and copied out.
    """
    return _schedule(dataclasses.replace(hp, seed=0)).copy()


@functools.lru_cache(maxsize=8)
def _schedule(hp: Hyperparams) -> np.ndarray:
    return np.array([epsilon_at(hp, k) for k in range(hp.episodes)])


def select_action(q: QTable, state_index: int, epsilon: float, rng: XorShift64) -> int:
    """Epsilon-greedy pick over the actions of one state.

    Consumes one uniform draw for the explore test and, only when
    exploring, a second draw for the action.
    """
    if not (0 <= epsilon <= 1):
        raise ValueError("epsilon must be in [0, 1]")
    if rng.uniform() < epsilon:
        return rng.randbelow(q.action_count)
    return q.argmax_action(state_index)


def update_q(
    q: QTable,
    state_index: int,
    action_index: int,
    reward_value: float,
    next_state_index: int,
    hp: Hyperparams,
) -> float:
    """Blend the old value with the bootstrapped target; returns the new entry.

    Only the (state, action) entry changes:
    ``q <- (1 - alpha) * q + alpha * (reward + gamma * max_a' q[next, a'])``.
    """
    if not np.isfinite(reward_value):
        raise ValueError("reward must be finite")
    best_next = float(np.max(q.values[next_state_index]))
    new_value = (1.0 - hp.alpha) * q.values[state_index, action_index] + hp.alpha * (
        reward_value + hp.gamma * best_next
    )
    q.values[state_index, action_index] = new_value
    return new_value


def calendar_day_types(steps: int) -> np.ndarray:
    """Day-type state per step of the repeating week (5 weekday, 2 weekend)."""
    return np.array([0 if t % 7 < 5 else 1 for t in range(steps)], dtype=np.int64)


def calendar_next_day_types(steps: int) -> np.ndarray:
    """Day-type state of each step's following calendar day."""
    return np.array([0 if (t + 1) % 7 < 5 else 1 for t in range(steps)], dtype=np.int64)


def reward_tables(
    spec: ProductSpec, grid: PriceGrid, modulation: DayModulation, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free demand per (day type, price) plus per-price margins.

    Rejects a product whose rewards (margin times demand) overflow: when
    every reward is finite and so is the bound ``max|r| / (1 - gamma)``,
    every Q entry stays within that bound (Watkins & Dayan, 1992) and no
    update can reach inf or NaN.
    """
    # Python floats, not numpy scalars: the same IEEE results, but an
    # overflow yields inf silently instead of a RuntimeWarning
    mults = (modulation.weekday, modulation.weekend)
    demand_table = np.empty((2, len(grid)))
    for s in range(2):
        for a, price in enumerate(grid.prices):
            demand_table[s, a] = demand(spec, price, mults[s])
    margins = grid.as_array() - spec.unit_cost
    # a NaN or inf reward propagates through the max, so one test covers both
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.abs(margins * demand_table).max()) / (1.0 - gamma)
    if not math.isfinite(bound):
        raise ValueError(f"rewards overflow: max |reward| / (1 - gamma) is {bound}")
    return demand_table, margins


def train(
    spec: ProductSpec,
    grid: PriceGrid,
    modulation: DayModulation = DayModulation(),
    hp: Hyperparams = Hyperparams(),
    *,
    noise_sigma: float = 0.0,
    record_policies: bool = False,
) -> tuple[QTable, TrainingTrace]:
    """Run the full training loop for one product.

    Returns the learned table and a per-episode trace; ``record_policies``
    adds the greedy action per state after every episode to the trace.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    demand_table, margins = reward_tables(spec, grid, modulation, hp.gamma)
    eps = epsilon_schedule(hp)
    values, episode_rewards, visits, policies = _kernels.run_train_kernel(
        demand_table,
        margins,
        calendar_day_types(hp.steps_per_episode),
        calendar_next_day_types(hp.steps_per_episode),
        eps,
        hp.alpha,
        hp.gamma,
        seed_to_state(hp.seed),
        noise_sigma=noise_sigma,
        record_policies=record_policies,
    )
    trace = TrainingTrace(
        epsilons=eps,
        episode_rewards=episode_rewards,
        visit_counts=visits,
        greedy_policies=policies if record_policies else None,
    )
    return QTable(values), trace


def train_lockstep(rewards: np.ndarray, hp: Hyperparams, seeds: list[int]) -> list[QTable]:
    """Train many products at once, without noise or a trace.

    ``rewards[p]`` is product ``p``'s noise-free reward table (margins
    times the demand of ``reward_tables``) and ``seeds[p]`` its seed;
    ``hp.seed`` is not used.  Each table is bitwise equal to the one
    ``train`` returns for that product and seed.
    """
    values = _kernels.run_lockstep_kernel(
        rewards,
        calendar_day_types(hp.steps_per_episode),
        calendar_next_day_types(hp.steps_per_episode),
        epsilon_schedule(hp),
        hp.alpha,
        hp.gamma,
        np.array([seed_to_state(seed) for seed in seeds], dtype=np.uint64),
    )
    return [QTable(v) for v in values]


def evaluate_greedy(
    q: QTable,
    spec: ProductSpec,
    grid: PriceGrid,
    modulation: DayModulation = DayModulation(),
) -> list[GreedyOutcome]:
    """Best-known action per state, with demand and profit recomputed.

    No exploration and no table mutation; results are ordered Weekday
    then Weekend.
    """
    out = []
    for day in (DayType.WEEKDAY, DayType.WEEKEND):
        a = q.argmax_action(int(day))
        price = grid[a]
        d = demand(spec, price, modulation.multiplier(day))
        out.append(GreedyOutcome(day, price, d, reward(spec, price, d)))
    return out


def qtable_to_csv(q: QTable, grid: PriceGrid) -> str:
    """Serialize: header row of grid prices, one row per state label."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["state"] + [repr(p) for p in grid])
    for s in range(q.state_count):
        writer.writerow([DayType(s).label] + [repr(float(v)) for v in q.values[s]])
    return buf.getvalue()


def qtable_from_csv(text: str) -> tuple[list[str], list[float], np.ndarray]:
    """Inverse of ``qtable_to_csv``: (state labels, grid prices, values)."""
    rows = list(csv.reader(io.StringIO(text)))
    prices = [float(p) for p in rows[0][1:]]
    labels = [r[0] for r in rows[1:]]
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return labels, prices, values


def hyperparams_to_json(hp: Hyperparams) -> str:
    """Provenance sidecar for a serialized table."""
    return json.dumps(dataclasses.asdict(hp), indent=2) + "\n"
