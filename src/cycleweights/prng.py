"""Deterministic 64-bit generator (SplitMix64) behind every seeded stream.

The exact update and output sequence is part of the reproducibility
contract: the same seed must produce the same stream on every platform,
so nothing here may ever be replaced by ``random`` or NumPy generators.

State update per draw, all arithmetic mod 2**64:

    state += 0x9E3779B97F4A7C15
    x = state
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    output = x ^ (x >> 31)

Unit floats take the top 53 bits: ``(output >> 11) * 2.0**-53``.

The state after k draws is seed + k * 0x9E3779B97F4A7C15 mod 2**64 (Steele, Lea &
Flood, OOPSLA 2014), so :func:`stream_draws` finalizes many streams' states at once
in 128-bit lanes of one int: SIMD within a register (Fisher & Dietz, LCPC 1998).
"""

import struct
from functools import lru_cache

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _finalize(x: int) -> int:
    x = ((x ^ (x >> 30)) * _MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & MASK64
    return x ^ (x >> 31)


def mix64(z: int) -> int:
    """First output of a stream seeded with ``z``.

    Used to derive independent per-trial (and per-restart) seeds as
    ``mix64(seed + index)`` so trial streams never overlap.
    """
    return _finalize((z + _GAMMA) & MASK64)


def draws(seed: int, count: int) -> list:
    """Top 53 bits of the first ``count`` outputs of ``SplitMix64(seed)``."""
    return stream_draws((seed,), count)


@lru_cache(maxsize=64)
def _lanes(streams: int, count: int) -> tuple:
    """Lane mask, step vector (k * gamma, unreduced, in lane k of a stream) and unpacker."""
    steps = b"".join((k * _GAMMA).to_bytes(16, "little") for k in range(1, count + 1))
    return (int.from_bytes(MASK64.to_bytes(16, "little") * streams * count, "little"),
            int.from_bytes(steps * streams, "little"), struct.Struct("<" + "Q8x" * streams * count))


def stream_draws(seeds, count: int) -> list:
    """``draws(seed, count)`` of each seed in the sequence ``seeds``, one stream after
    another.  Lane k of a stream holds seed + k * gamma masked to 64 bits, and a 64-bit value
    times a 64-bit multiplier stays below 2**128, so no product carries into the next lane.  A
    right shift pulls the next lane's low bits into this lane's high half: a mask clears them
    before each multiply, and the unpacker skips them after the last.  Bytes are little-endian."""
    mask, steps, lanes = _lanes(len(seeds), count)
    packed = b"".join((s & MASK64).to_bytes(16, "little") * count for s in seeds)
    x = (int.from_bytes(packed, "little") + steps) & mask
    x = ((x ^ (x >> 30)) & mask) * _MUL1 & mask
    x = ((x ^ (x >> 27)) & mask) * _MUL2 & mask
    return list(lanes.unpack(((x ^ (x >> 31)) >> 11).to_bytes(lanes.size, "little")))


class SplitMix64:
    """Sequential form of the generator; one instance per stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        return _finalize(self.state)

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53
