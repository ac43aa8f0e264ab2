"""The exploration stream both kernels draw ahead of their walks, in blocks."""

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


@pytest.mark.parametrize("lanes", [1, 16, _kernels._LANES])
def test_blocks_resumed_from_a_word_continue_the_scalar_stream(lanes):
    # each block starts at the state after the last word read from the one before
    x, got = np.uint64(REMAPPED_ZERO), []
    for read in (1, 7, lanes * _kernels._SPACING, 5):
        words = _kernels._stream_words(x, lanes)
        assert len(words) == lanes * _kernels._SPACING
        got += words[:read].tolist()
        x = words[read - 1]
    rng = scalar_stream(REMAPPED_ZERO)
    assert got == [rng.next_u64() for _ in got]


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
    tops = (_kernels._stream_words(np.uint64(seed_to_state(9)), _kernels._LANES) >> np.uint64(11))[:1500]
    steps, past_end = walk_words(tops.tolist(), below, n_actions)
    # blocks end at arbitrary words and, unless nothing explores, right after
    # an exploring test word; each block starts at the first word not read
    ends = {301, 302, 777, len(tops)}
    explored = next((t for t, code in steps if code >= 0 and t >= 200), None)
    if explored is not None:
        ends.add(explored + 1)
    codes, start = [], 0
    for end in sorted(ends):
        piece, read = _kernels._fixed_layout(tops[start:end], np.uint64(below), np.float64(n_actions * _INV_2_53))
        if explored is not None and end == explored + 1:
            # the step whose exploring test is the last word is left out
            assert read == explored - start
        codes += piece.tolist()
        start += read
    assert codes == [code for _, code in steps]
    assert start == len(tops) - past_end


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
        # decays for about 1,050 episodes, over many blocks
        (Hyperparams(episodes=1500, epsilon_decay=0.999, seed=6), 5),
        (Hyperparams(episodes=1500, epsilon_decay=0.9999, seed=7), 7),
        (Hyperparams(episodes=1, seed=8), 1),
    ],
    ids=["decay-then-floor", "eps-0", "eps-0.35", "eps-1-seed-0", "decay-0.999", "floor-never-reached", "1-step"],
)
def test_episode_draws_equal_scalar_draws(hp, n_steps):
    eps = epsilon_schedule(hp)
    state = seed_to_state(hp.seed)
    codes = []
    for piece in _kernels._step_codes(eps, n_steps, 13, state):
        # one piece per block of words, a step per word at most
        assert len(piece) <= _kernels._LANES * _kernels._SPACING
        codes += piece
    assert codes == reference_draws(eps, n_steps, 13, state)
