import math

import numpy as np
import pytest

from pricelab.rng import MASK64, XorShift64, seed_to_state, split_seed, splitmix64

# Published reference outputs of SplitMix64 for seed 1234567.
SPLITMIX_SEED = 1234567
SPLITMIX_REFERENCE = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_splitmix64_reference_vectors():
    state = SPLITMIX_SEED
    outs = []
    for _ in range(5):
        state, out = splitmix64(state)
        outs.append(out)
    assert outs == SPLITMIX_REFERENCE


def test_splitmix64_outputs_in_64_bit_range():
    state = 0
    for _ in range(1000):
        state, out = splitmix64(state)
        assert 0 <= out <= MASK64
        assert 0 <= state <= MASK64


def test_seed_to_state_nonzero():
    for seed in [0, 1, 42, 2**63, MASK64]:
        assert seed_to_state(seed) != 0


def test_split_seed_is_stream_output():
    # child i must be the (i+1)-th output of the stream seeded by master;
    # the large masters make the state wrap around 2**64
    for master in (0, 99, 2**63 + 7, MASK64):
        state = master
        for i in range(300):
            state, out = splitmix64(state)
            assert split_seed(master, i) == out, (master, i)


def test_split_seed_distinct_and_deterministic():
    seeds = [split_seed(7, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert seeds == [split_seed(7, i) for i in range(200)]


def test_split_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        split_seed(0, -1)


def test_xorshift_deterministic():
    a = XorShift64(123)
    b = XorShift64(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_xorshift_matches_uint64_arithmetic():
    # independent recomputation with numpy's wrapping uint64 ops
    def step(x):
        x = np.uint64(x)
        x ^= x << np.uint64(13)
        x ^= x >> np.uint64(7)
        x ^= x << np.uint64(17)
        return int(x)

    rng = XorShift64(2024)
    state = seed_to_state(2024)
    for _ in range(500):
        state = step(state)
        assert rng.next_u64() == state


def test_uniform_range_and_mean():
    rng = XorShift64(5)
    draws = [rng.uniform() for _ in range(20_000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.01


def test_randbelow_bounds_and_uniformity():
    rng = XorShift64(11)
    n = 10_000
    k = 4
    counts = [0] * k
    for _ in range(n):
        i = rng.randbelow(k)
        counts[i] += 1
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    for c in counts:
        assert abs(c - n / k) <= 3 * sigma


def test_different_seeds_diverge():
    assert XorShift64(1).next_u64() != XorShift64(2).next_u64()
