"""The exploration stream the scalar kernel draws ahead of its walk."""

import itertools
import math

import numpy as np
import pytest

from pricelab import _kernels
from pricelab.qlearn import Hyperparams, epsilon_schedule
from pricelab.rng import _INV_2_53, _SPLITMIX_GAMMA, MASK64, XorShift64, seed_to_state

# the state seed_to_state gives the one seed whose SplitMix64 output is 0
REMAPPED_ZERO = _SPLITMIX_GAMMA


def scalar_stream(state: int) -> XorShift64:
    rng = XorShift64()
    rng.state = state
    return rng


@pytest.mark.parametrize("spacing", [1, 2, 64, 8192])
@pytest.mark.parametrize("state", [seed_to_state(1), REMAPPED_ZERO, 1, MASK64], ids=["seed1", "zero", "one", "ones"])
def test_lanes_start_spacing_words_apart(spacing, state):
    lanes = 5  # not a power of two: the table's last doubling is partial
    starts = _kernels._lane_starts(np.uint64(state), _kernels._jump_table(spacing, lanes))
    rng = scalar_stream(state)
    expected = []
    for _ in range(lanes):
        expected.append(rng.state)
        for _ in range(spacing):
            rng.next_u64()
    assert starts.tolist() == expected


def test_default_table_jumps_across_all_lanes():
    spacing, lanes = _kernels._SPACING, _kernels._LANES
    state = seed_to_state(2024)
    starts = _kernels._lane_starts(np.uint64(state), _kernels._jump_table(spacing, lanes))
    rng = scalar_stream(state)
    for j in range(lanes):
        assert starts[j] == rng.state, j
        for _ in range(spacing):
            rng.next_u64()


def test_lane_starts_of_many_states_equal_each_state_alone():
    states = np.array([seed_to_state(1), REMAPPED_ZERO, 1, MASK64], dtype=np.uint64)
    table = _kernels._jump_table(16, 5)
    starts = _kernels._lane_starts(states, table)
    assert starts.shape == (5, len(states))
    for j, state in enumerate(states):
        assert starts[:, j].tolist() == _kernels._lane_starts(state, table).tolist()


def test_chunks_follow_the_scalar_stream():
    chunks = _kernels._top_chunks(REMAPPED_ZERO)
    got = np.concatenate([next(chunks) for _ in range(3)]).tolist()
    rng = scalar_stream(REMAPPED_ZERO)
    assert got == [rng.next_u64() >> 11 for _ in got]


def walk_words(tops, below, n_actions):
    """The (test word, code) of each step of a run of words at one threshold,
    read word by word, and whether the last step's action word lies past the end."""
    steps, i = [], 0
    while i < len(tops):
        if tops[i] < below:
            if i + 1 == len(tops):
                return steps, True
            steps.append((i, int(tops[i + 1] * _INV_2_53 * n_actions)))
            i += 2
        else:
            steps.append((i, -1))
            i += 1
    return steps, False


@pytest.mark.parametrize("eps", [0.0, 0.35, 1.0])
def test_run_parity_layout_equals_a_word_walk(eps):
    below = math.ceil(eps * 2.0**53)
    n_actions = 21
    tops = next(_kernels._top_chunks(seed_to_state(9)))[:1500]
    steps, expected_carry = walk_words(tops.tolist(), below, n_actions)
    # cut at arbitrary words and, unless nothing explores, right after an
    # exploring test word, so that its action word opens the next piece
    cuts = {0, 301, 302, 777, len(tops)}
    if eps > 0:
        cuts.add(next(t for t, code in steps if code >= 0 and t >= 200) + 1)
    codes, carry = [], False
    for a, b in itertools.pairwise(sorted(cuts)):
        piece, carry = _kernels._fixed_layout(tops[a:b], np.uint64(below), carry, np.float64(n_actions * _INV_2_53))
        codes += piece.tolist()
    assert codes == [code for _, code in steps]
    assert carry == expected_carry


def reference_draws(eps_schedule, n_steps, n_actions, state):
    """Per-step codes, drawn as select_action draws."""
    rng = scalar_stream(state)
    return [
        rng.randbelow(n_actions) if rng.uniform() < eps else -1 for eps in eps_schedule.tolist() for _ in range(n_steps)
    ]


@pytest.mark.parametrize(
    "hp, n_steps",
    [
        # decays for 104 episodes, then some 18,000 words at the floor
        (Hyperparams(episodes=2000, epsilon_decay=0.99, seed=3), 7),
        (Hyperparams(episodes=1500, epsilon_start=0.0, epsilon_min=0.0, seed=4), 5),
        (Hyperparams(episodes=1500, epsilon_start=0.35, epsilon_min=0.35, seed=5), 5),
        (Hyperparams(episodes=1500, epsilon_start=1.0, epsilon_min=1.0), 5),
    ],
    ids=["decay-then-floor", "eps-0", "eps-0.35", "eps-1-seed-0"],
)
def test_episode_draws_equal_scalar_draws(hp, n_steps):
    eps = epsilon_schedule(hp)
    state = seed_to_state(hp.seed)
    codes = []
    for piece in _kernels._episode_draws(eps, n_steps, 13, state):
        # handed over in pieces: a chunk's steps, plus those left over from
        # the chunks before, that end on an episode boundary
        assert len(piece) % n_steps == 0
        assert len(piece) < _kernels._LANES * _kernels._SPACING + n_steps
        codes += piece
    assert codes == reference_draws(eps, n_steps, 13, state)
