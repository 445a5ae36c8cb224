import math

from cycleweights.prng import MASK64, SplitMix64, draws, mix64, stream_draws

# first outputs for seed 0, cross-checked against the reference
# C implementation of SplitMix64
SEED0_U64 = [16294208416658607535, 7960286522194355700, 487617019471545679]


def test_known_stream_seed0():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_U64


def test_mix64_is_first_stream_output():
    assert mix64(0) == SEED0_U64[0]
    assert mix64(42) == SplitMix64(42).next_u64()
    assert mix64(42) == 13679457532755275413


def test_seed_wraps_mod_2_64():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()
    assert mix64(((1 << 64) + 5) & MASK64) == mix64(5)


def test_seed1_unit_floats_frozen():
    rng = SplitMix64(1)
    assert [rng.next_unit() for _ in range(4)] == [
        0.5665615751722809,
        0.7457817572627011,
        0.9710027535867962,
        0.4443592170557721,
    ]


def test_unit_floats_in_range_and_deterministic():
    rng = SplitMix64(12345)
    xs = [rng.next_unit() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    rng2 = SplitMix64(12345)
    assert xs == [rng2.next_unit() for _ in range(1000)]


def test_unit_floats_are_53_bit_dyadics():
    rng = SplitMix64(7)
    for _ in range(200):
        x = rng.next_unit()
        assert x == math.floor(x * 2**53) / 2**53


def test_streams_with_different_seeds_differ():
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_closed_form_draws_match_the_sequential_stream():
    for seed in (0, 1, 42, 2**64 - 1, 2**64, -1):
        rng = SplitMix64(seed)
        assert draws(seed, 40) == [rng.next_u64() >> 11 for _ in range(40)]
    assert draws(5, 0) == []


def test_stream_draws_are_the_single_streams_end_to_end():
    seeds = [0, 1, 42, 2**64 - 1, 2**64, -1, mix64(7)]
    for count in (0, 1, 10, 15):
        expected = []
        for seed in seeds:
            rng = SplitMix64(seed)
            expected += [rng.next_u64() >> 11 for _ in range(count)]
        assert stream_draws(seeds, count) == expected
        assert stream_draws(seeds, count) == [x for s in seeds for x in draws(s, count)]
    assert stream_draws([], 10) == []
