"""Training inner loops: a scalar Q-learning walk and its lockstep twin.

The Q-update walk is inherently sequential (each step reads the table the
previous step wrote), so ``run_train_kernel`` is a tight scalar loop over
Python floats.  It draws from the same xorshift64 bit stream as
``pricelab.rng.XorShift64`` and applies float operations in the same order
as the public ``select_action``, ``noisy_demand`` and ``update_q`` ops; the
test suite replays training through those ops and asserts bitwise-equal
results.

Each update changes one entry, so the scalar walk keeps every state's
greedy result current instead of scanning its row twice per step:
``best[s]`` is the float ``max(q[s])`` would return and ``arg[s]`` the
lowest index holding it.  Greedy selection reads ``arg[s]`` and the
bootstrap reads ``best[ns]`` before the write.  After ``q[s][a] = v``, a
value above the best, or equal to it at an index no higher than
``arg[s]``, becomes the new best; a fall of the greedy entry itself
rescans the row; any other write leaves both unchanged.  This keeps the
lowest-index tie-break and even the sign of a zero best.

``run_lockstep_kernel`` walks many products at once: products that share a
calendar, an epsilon schedule and an action count step together as numpy
lanes, one array operation per lane-wide step.  Every lane performs the
same float operations as the scalar walk, so each lane's table is bitwise
equal to that product's scalar result.  Its fixed cost per step is higher,
so it pays off only for many products.

Kernel conventions: uniform doubles are the top 53 bits of each 64-bit
word scaled by 2**-53; an exploration step consumes one draw for the
epsilon test plus one for the action; a Gaussian (noise only) consumes
two more.  Greedy argmax ties break toward the lowest action index.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import _INV_2_53, MASK64

_TWO_PI = 6.283185307179586

HAVE_NUMBA = False  # read by the benchmark manifest


def resolve_backend() -> str:
    """Name of the training kernel; read by the benchmark manifest."""
    return "python"


def run_train_kernel(
    demand_table: np.ndarray,
    margins: np.ndarray,
    day_types: np.ndarray,
    next_day_types: np.ndarray,
    eps_schedule: np.ndarray,
    alpha: float,
    gamma: float,
    rng_state: int,
    noise_sigma: float = 0.0,
    record_policies: bool = False,
):
    """Train one Q table; returns (q, episode_rewards, visits, policies).

    ``demand_table`` holds the noise-free demand per (state, action),
    ``margins`` the price minus unit cost per action, ``day_types`` and
    ``next_day_types`` the state of each calendar step and of its
    following day, ``eps_schedule`` the epsilon per episode, and
    ``rng_state`` a nonzero xorshift64 state.
    """
    n_states, n_actions = demand_table.shape
    alpha = float(alpha)
    gamma = float(gamma)
    keep = 1.0 - alpha
    noise_sigma = float(noise_sigma)

    # plain Python floats/ints: same IEEE values, much faster scalar ops
    dem = demand_table.tolist()
    marg = margins.tolist()
    x = int(rng_state)

    q = [[0.0] * n_actions for _ in range(n_states)]
    visits = [[0] * n_actions for _ in range(n_states)]
    # best[s] is the float max(q[s]) returns, arg[s] the lowest index holding it
    best = [0.0] * n_states
    arg = [0] * n_states
    calendar = [
        (s, ns, q[s], dem[s], visits[s]) for s, ns in zip(day_types.tolist(), next_day_types.tolist())
    ]
    episode_rewards = []
    policies = []

    for eps in eps_schedule.tolist():
        # for an integer k: k * 2**-53 < eps  <=>  k < ceil(eps * 2**53)
        explore_below = math.ceil(eps * 9007199254740992.0)
        total = 0.0
        for s, ns, row, dem_s, visits_s in calendar:
            x ^= (x << 13) & MASK64
            x ^= x >> 7
            x ^= (x << 17) & MASK64
            if (x >> 11) < explore_below:
                x ^= (x << 13) & MASK64
                x ^= x >> 7
                x ^= (x << 17) & MASK64
                a = int((x >> 11) * _INV_2_53 * n_actions)
            else:
                a = arg[s]

            d = dem_s[a]
            if noise_sigma > 0.0:
                x ^= (x << 13) & MASK64
                x ^= x >> 7
                x ^= (x << 17) & MASK64
                u1 = ((x >> 11) + 1) * _INV_2_53
                x ^= (x << 13) & MASK64
                x ^= x >> 7
                x ^= (x << 17) & MASK64
                u2 = (x >> 11) * _INV_2_53
                z = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
                d = d * (1.0 + noise_sigma * z)
                if d < 0.0:
                    d = 0.0
            r = marg[a] * d

            # bootstrap read before the write: ns may equal s
            v = keep * row[a] + alpha * (r + gamma * best[ns])
            row[a] = v
            if v > best[s] or (v == best[s] and a <= arg[s]):
                best[s] = v
                arg[s] = a
            elif a == arg[s]:
                # the greedy value fell: rescan the row
                b = max(row)
                best[s] = b
                arg[s] = row.index(b)
            visits_s[a] += 1
            total += r
        episode_rewards.append(total)
        if record_policies:
            policies.append(list(arg))

    return (
        np.array(q, dtype=np.float64),
        np.array(episode_rewards, dtype=np.float64),
        np.array(visits, dtype=np.int64),
        np.array(policies, dtype=np.int64).reshape(-1, n_states),
    )


_SHIFT_7 = np.uint64(7)
_SHIFT_11 = np.uint64(11)
_SHIFT_13 = np.uint64(13)
_SHIFT_17 = np.uint64(17)


def _xorshift_lanes(src: np.ndarray, dst: np.ndarray, tmp: np.ndarray) -> None:
    """One xorshift64 step of every lane of ``src``, written to ``dst``."""
    np.left_shift(src, _SHIFT_13, out=tmp)
    np.bitwise_xor(src, tmp, out=dst)
    np.right_shift(dst, _SHIFT_7, out=tmp)
    dst ^= tmp
    np.left_shift(dst, _SHIFT_17, out=tmp)
    dst ^= tmp


def run_lockstep_kernel(
    rewards: np.ndarray,
    day_types: np.ndarray,
    next_day_types: np.ndarray,
    eps_schedule: np.ndarray,
    alpha: float,
    gamma: float,
    rng_states: np.ndarray,
) -> np.ndarray:
    """Train one Q table per lane; returns the ``(lanes, states, actions)`` tables.

    ``rewards[p, s, a]`` is lane ``p``'s noise-free reward (margin times
    demand), ``rng_states`` one nonzero xorshift64 state per lane; the
    calendar, epsilon schedule, ``alpha`` and ``gamma`` are shared.  Each
    lane's table is bitwise equal to ``run_train_kernel`` on that lane's
    inputs without noise.
    """
    n_lanes, n_states, n_actions = rewards.shape
    alpha = float(alpha)
    gamma = float(gamma)
    keep = 1.0 - alpha

    # state-major layout: the rows of one state are one contiguous block
    q = np.zeros((n_states, n_lanes, n_actions))
    q_flat = [q[s].reshape(-1) for s in range(n_states)]
    r_flat = [np.ascontiguousarray(rewards[:, s, :]).reshape(-1) for s in range(n_states)]
    lane_offsets = np.arange(n_lanes) * n_actions
    x = np.array(rng_states, dtype=np.uint64)
    x2 = np.empty_like(x)
    top = np.empty_like(x)
    tmp = np.empty_like(x)
    # k * 2**-53 is exact, so k * (n * 2**-53) rounds exactly as the scalar
    # (k * 2**-53) * n does
    action_scale = np.float64(n_actions * _INV_2_53)
    steps = list(zip(day_types.tolist(), next_day_types.tolist()))

    for eps in eps_schedule.tolist():
        # for an integer k: k * 2**-53 < eps  <=>  k < ceil(eps * 2**53)
        explore_below = np.uint64(math.ceil(eps * 9007199254740992.0))
        for s, ns in steps:
            _xorshift_lanes(x, x, tmp)
            np.right_shift(x, _SHIFT_11, out=top)
            explore = top < explore_below
            # every lane draws the action word; only exploring lanes keep it
            _xorshift_lanes(x, x2, tmp)
            np.right_shift(x2, _SHIFT_11, out=top)
            a = q[s].argmax(axis=1)  # ties break toward the lowest index
            np.copyto(a, (top * action_scale).astype(a.dtype), where=explore)
            np.copyto(x, x2, where=explore)

            idx = lane_offsets + a
            best_next = q[ns].max(axis=1)
            qs = q_flat[s]
            qs[idx] = keep * qs[idx] + alpha * (r_flat[s][idx] + gamma * best_next)

    return np.ascontiguousarray(q.transpose(1, 0, 2))
