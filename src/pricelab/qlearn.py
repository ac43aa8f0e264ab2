"""Tabular Q-learning over the pricing environment.

The agent learns action values for a two-row table (one row per day
type) whose actions are the prices of a fixed grid.  Training walks a
repeating 7-day calendar, five weekdays then two weekend days, one
simulated week per episode; the value update bootstraps against the next
calendar day's state.  Action selection is epsilon-greedy with a
per-episode exponentially decaying epsilon held above a floor.

Given identical inputs (including the seed carried by Hyperparams) a
training run is bitwise deterministic.  ``reward_lanes``, ``train_lanes``
(which picks the kernel) and ``greedy_lanes`` set up, train and evaluate
many products at once (``pricelab.experiment`` calls them on each chunk
of a catalog), and ``train`` and ``evaluate_greedy`` are one-product
calls of them.  Training raises nothing on rewards ``reward_lanes``
accepted; any exception from it propagates.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import json
import csv
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .domain import DayModulation, DayType, PriceGrid, ProductLanes, ProductSpec
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
        require_integers(self, "episodes", "steps_per_episode", "seed")
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


def require_integers(instance, *names: str) -> None:
    """Raise a ValueError naming the first of the fields ``names`` of
    ``instance`` that holds a bool or a value ``operator.index`` rejects."""
    for name in names:
        value = getattr(instance, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class QTable:
    """Dense action-value table indexed by (state, action)."""

    values: np.ndarray

    def argmax_action(self, state_index: int) -> int:
        """Greedy action; ties break toward the lowest index."""
        return int(np.argmax(self.values[state_index]))


@dataclass
class TrainingTrace:
    """Per-episode observability: epsilon used, total reward and the greedy
    action per state after the episode, and the state/action visit counts."""

    epsilons: np.ndarray
    episode_rewards: np.ndarray
    visit_counts: np.ndarray
    greedy_policies: np.ndarray


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
    # allocated first, so an episode count too large to hold fails at once
    try:
        schedule = np.empty(hp.episodes)
    except (ValueError, MemoryError):  # more than numpy can index, or than memory holds
        raise ValueError(f"episodes is too large: {hp.episodes} epsilon values cannot be allocated") from None
    schedule[:] = [epsilon_at(hp, k) for k in range(hp.episodes)]
    return schedule


def select_action(q: QTable, state_index: int, epsilon: float, rng: XorShift64) -> int:
    """Epsilon-greedy pick over the actions of one state.

    Consumes one uniform draw for the explore test and, only when
    exploring, a second draw for the action.
    """
    if not (0 <= epsilon <= 1):
        raise ValueError("epsilon must be in [0, 1]")
    if rng.uniform() < epsilon:
        return rng.randbelow(q.values.shape[1])
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
    return calendar_day_types(steps + 1)[1:]


def reward_lanes(
    lanes: ProductLanes, grids: np.ndarray, modulation: DayModulation, gamma: float
) -> tuple[np.ndarray, dict[int, str]]:
    """Every product's reward (margin times demand) per (day type, price),
    shape ``(n, 2, points)``, and ``{row: reason}`` for each product whose
    rewards overflow.

    ``grids`` is the ``(n, points)`` array of ``prepare_products``; rows
    it reports unusable give placeholder results.  A product is rejected
    unless every reward is finite and so is the bound
    ``max|r| / (1 - gamma)``; then every Q entry stays within that bound
    (Watkins & Dayan, 1992) and no update can reach inf or NaN.  Each
    reward equals the scalar ``demand`` and margin arithmetic of its
    product bit for bit.
    """
    demand_table = np.stack([lanes.demand(grids, m) for m in (modulation.weekday, modulation.weekend)], axis=1)
    # a NaN or inf reward propagates through the max, so one test covers both
    with np.errstate(over="ignore", invalid="ignore"):
        rewards = (grids - lanes.unit_cost)[:, None, :] * demand_table
        bounds = np.abs(rewards).max(axis=(1, 2)) / (1.0 - gamma)
    bad = np.flatnonzero(~np.isfinite(bounds)).tolist()
    overflow = {i: f"rewards overflow: max |reward| / (1 - gamma) is {bounds[i].item()}" for i in bad}
    return rewards, overflow


def _shared_kernel_args(hp: Hyperparams) -> tuple:
    """The kernel arguments every product trained under ``hp`` shares: the
    calendar, its next-day states, the epsilon schedule, alpha and gamma."""
    steps = hp.steps_per_episode
    return calendar_day_types(steps), calendar_next_day_types(steps), epsilon_schedule(hp), hp.alpha, hp.gamma


def train(
    spec: ProductSpec,
    grid: PriceGrid,
    modulation: DayModulation = DayModulation(),
    hp: Hyperparams = Hyperparams(),
) -> tuple[QTable, TrainingTrace]:
    """Run the full training loop for one product.

    Returns the learned table and a per-episode trace.
    """
    rewards, overflow = reward_lanes(ProductLanes.of([spec]), grid.as_array()[None], modulation, hp.gamma)
    if overflow:
        raise ValueError(overflow[0])
    rewards = rewards[0]
    days, next_days, epsilons, alpha, gamma = _shared_kernel_args(hp)
    pieces = []
    values, log = _kernels.run_train_kernel(
        rewards, seed_to_state(hp.seed), days, next_days, epsilons, alpha, gamma, codes=pieces
    )
    codes = np.fromiter(itertools.chain.from_iterable(pieces), dtype=np.int64)
    return QTable(values), TrainingTrace(epsilons, *_replay_log(rewards, days, codes, log))


def _replay_log(
    rewards: np.ndarray, days: np.ndarray, codes: np.ndarray, log: list[tuple[int, int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Episode rewards, visit counts and per-episode greedy policies of a
    scalar walk, from its step codes and greedy-change log.

    The action of a greedy step is the state's greedy action before it: the
    last change logged at an earlier step, else 0.  Each episode's reward
    is summed step by step from 0.0, as a scalar ``total += r`` does, and
    reads inf where that sum overflows.
    """
    n_states, n_actions = rewards.shape
    steps = len(days)
    ends = np.arange(1, len(codes) // steps + 1) * steps  # the step after each episode
    states = np.tile(days, len(ends))
    changed_at, changed_state, changed_to = np.array(log, dtype=np.int64).reshape(-1, 3).T
    actions = codes.copy()
    policies = np.empty((len(ends), n_states), dtype=np.int64)
    for s in range(n_states):
        mine = changed_state == s
        greedy = np.append(0, changed_to[mine])  # greedy[k]: the action after its k-th change
        at = np.flatnonzero((states == s) & (codes < 0))
        actions[at] = greedy[np.searchsorted(changed_at[mine], at)]
        policies[:, s] = greedy[np.searchsorted(changed_at[mine], ends)]
    visits = np.zeros((n_states, n_actions), dtype=np.int64)
    np.add.at(visits, (states, actions), 1)
    totals = np.zeros(len(ends))
    with np.errstate(over="ignore"):  # a sum that overflows is inf, silently, as a scalar sum is
        for column in rewards[states, actions].reshape(-1, steps).T:
            totals += column
    return totals, visits, policies


# Catalogs with at least this many products train in lockstep
# (``_kernels.run_lockstep_kernel``); smaller ones train product by product,
# where the scalar kernel's lower fixed cost per step wins.  Both give the
# same tables, so the choice changes speed only.  Measured at the default
# 10,000 episodes on the sample rows repeated: the two paths are level at
# 56 to 64 products, and from 72 on lockstep is faster.
LOCKSTEP_MIN_PRODUCTS = 64


def train_lanes(rewards: np.ndarray, hp: Hyperparams, seeds: list[int]) -> np.ndarray:
    """Train many products at once, without a trace; returns
    their Q tables, shape ``(n, 2, points)``.

    ``rewards`` holds rows of ``reward_lanes`` that do not overflow, read in
    place (in lockstep, any layout but C order is copied once), and
    ``seeds[p]`` is product ``p``'s seed; ``hp.seed`` is not used.  Each
    table is bitwise equal to the one ``train`` returns for that product
    and seed.
    """
    shared = _shared_kernel_args(hp)
    if len(seeds) >= LOCKSTEP_MIN_PRODUCTS:
        states = np.array([seed_to_state(seed) for seed in seeds], dtype=np.uint64)
        return _kernels.run_lockstep_kernel(rewards, states, *shared)
    values = np.empty(rewards.shape)
    for p, seed in enumerate(seeds):
        values[p], _ = _kernels.run_train_kernel(rewards[p], seed_to_state(seed), *shared)
    return values


def greedy_lanes(
    values: np.ndarray, lanes: ProductLanes, grids: np.ndarray, modulation: DayModulation = DayModulation()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every product's greedy price, demand and profit per day type.

    ``values`` stacks the products' Q tables, shape ``(n, 2, points)``;
    ``grids`` is their ``(n, points)`` price array.  Each result has shape
    ``(n, 2)``, Weekday then Weekend.  Ties break toward the lowest index,
    as ``QTable.argmax_action`` does, and demand and profit are recomputed
    from the model with no exploration and no table mutation.
    """
    prices = np.take_along_axis(grids, values.argmax(axis=2), axis=1)
    demands = lanes.demand(prices, np.array([modulation.weekday, modulation.weekend]))
    return prices, demands, lanes.reward(prices, demands)


def evaluate_greedy(
    q: QTable,
    spec: ProductSpec,
    grid: PriceGrid,
    modulation: DayModulation = DayModulation(),
) -> list[GreedyOutcome]:
    """One product's ``greedy_lanes``, ordered Weekday then Weekend."""
    lanes = greedy_lanes(q.values[None], ProductLanes.of([spec]), grid.as_array()[None], modulation)
    return [GreedyOutcome(day, *out) for day, out in zip(DayType, zip(*(a[0].tolist() for a in lanes)))]


def qtable_to_csv(q: QTable, grid: PriceGrid) -> str:
    """Serialize: header row of grid prices, one row per state label."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["state"] + [repr(p) for p in grid.prices])
    for s in range(len(q.values)):
        writer.writerow([DayType(s).label] + [repr(float(v)) for v in q.values[s]])
    return buf.getvalue()


def hyperparams_to_json(hp: Hyperparams) -> str:
    """Provenance sidecar for a serialized table."""
    return json.dumps(dataclasses.asdict(hp), indent=2) + "\n"
