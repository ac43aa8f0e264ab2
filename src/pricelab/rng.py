"""Seeded, portable pseudo-random numbers for reproducible simulations.

The generator is Marsaglia's xorshift64 (shift triple 13, 7, 17), chosen
because its state transition uses only shifts and xors, so the exact same
bit stream is produced by this class, the training kernel, and any other
faithful port.  Seeds are expanded into a nonzero initial
state with the SplitMix64 finalizer, which also provides the stream
splitting used to derive independent per-product seeds from one master
seed.

Uniform doubles come from the top 53 bits of each output word; the scaled
value lies in [0, 1).  ``randbelow`` maps a uniform double onto an index
range by truncation (bias below 2**-50 for any practical range).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2**-53; multiplying the top 53 bits by this gives a double in [0, 1)
_INV_2_53 = 1.0 / 9007199254740992.0


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 stream once; returns (new_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return state, z ^ (z >> 31)


def seed_to_state(seed: int) -> int:
    """Expand a 64-bit seed into a nonzero xorshift64 state."""
    _, out = splitmix64(seed & MASK64)
    # xorshift64 has a single fixed point at zero; remap that one seed
    return out if out != 0 else _SPLITMIX_GAMMA


def split_seed(master_seed: int, index: int) -> int:
    """Derive the ``index``-th child seed from a master seed.

    Child ``i`` is the ``(i + 1)``-th output of the SplitMix64 stream
    seeded with ``master_seed``.  The mapping is frozen: serialized runs
    refer to it for reproducibility.  The stream's state is a Weyl
    sequence, so the state before that output is ``master + i * gamma``
    and one mix computes it (Steele, Lea & Flood, OOPSLA 2014).
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    _, out = splitmix64((master_seed + index * _SPLITMIX_GAMMA) & MASK64)
    return out


class XorShift64:
    """Marsaglia xorshift64 stream over Python integers."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        self.state = seed_to_state(seed)

    def next_u64(self) -> int:
        x = self.state
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        self.state = x
        return x

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)
