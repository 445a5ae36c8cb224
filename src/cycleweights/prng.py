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

The state after k draws is seed + k * 0x9E3779B97F4A7C15 mod 2**64, a
closed form in k (Steele, Lea & Flood, OOPSLA 2014), so :func:`stream_draws`
takes the first unit draws of many streams with no generator object.
"""

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


def stream_draws(seeds, count: int) -> list:
    """``draws(seed, count)`` of each seed in ``seeds``, one stream after another.

    State k = 1..count comes from the closed form, and the finalizer is
    inlined, so a draw costs no call.
    """
    steps = [k * _GAMMA for k in range(1, count + 1)]
    # each one-element ``for z in [...]`` is one step of the finalizer;
    # CPython (3.9 on) compiles it to a plain assignment
    return [
        (z ^ (z >> 31)) >> 11
        for seed in seeds
        for step in steps
        for z in [(seed + step) & MASK64]
        for z in [(z ^ (z >> 30)) * _MUL1 & MASK64]
        for z in [(z ^ (z >> 27)) * _MUL2 & MASK64]
    ]


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
