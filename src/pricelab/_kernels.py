"""Training inner loop: one scalar Q-learning walk over Python floats.

The Q-update walk is inherently sequential (each step reads the table the
previous step wrote), so the hot path is a tight scalar loop.  It draws
from the same xorshift64 bit stream as ``pricelab.rng.XorShift64`` and
applies float operations in the same order as the public
``select_action``, ``noisy_demand`` and ``update_q`` ops; the test suite
replays training through those ops and asserts bitwise-equal results.

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
    noise_sigma = float(noise_sigma)

    # plain Python floats/ints: same IEEE values, much faster scalar ops
    dem = demand_table.tolist()
    marg = margins.tolist()
    steps = list(zip(day_types.tolist(), next_day_types.tolist()))
    x = int(rng_state)

    q = [[0.0] * n_actions for _ in range(n_states)]
    visits = [[0] * n_actions for _ in range(n_states)]
    episode_rewards = []
    policies = []

    for eps in eps_schedule.tolist():
        total = 0.0
        for s, ns in steps:
            row = q[s]

            x ^= (x << 13) & MASK64
            x ^= x >> 7
            x ^= (x << 17) & MASK64
            if (x >> 11) * _INV_2_53 < eps:
                x ^= (x << 13) & MASK64
                x ^= x >> 7
                x ^= (x << 17) & MASK64
                a = int((x >> 11) * _INV_2_53 * n_actions)
            else:
                a = row.index(max(row))

            d = dem[s][a]
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

            row[a] = (1.0 - alpha) * row[a] + alpha * (r + gamma * max(q[ns]))
            visits[s][a] += 1
            total += r
        episode_rewards.append(total)
        if record_policies:
            policies.append([row.index(max(row)) for row in q])

    return (
        np.array(q, dtype=np.float64),
        np.array(episode_rewards, dtype=np.float64),
        np.array(visits, dtype=np.int64),
        np.array(policies, dtype=np.int64).reshape(-1, n_states),
    )
