import hashlib
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cycleweights.prng import MASK64, SplitMix64, _lanes, draws, mix64, stream_draws

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


def sequential(seeds, count):
    """The first ``count`` draws of each seed's generator object, in turn."""
    out = []
    for seed in seeds:
        rng = SplitMix64(seed)
        out += [rng.next_u64() >> 11 for _ in range(count)]
    return out


def test_stream_draws_are_the_single_streams_end_to_end():
    seeds = [0, 1, 42, 2**64 - 1, 2**64, -1, mix64(7)]
    for count in (0, 1, 10, 15):
        assert stream_draws(seeds, count) == sequential(seeds, count)
        assert stream_draws(seeds, count) == [x for s in seeds for x in draws(s, count)]
    assert stream_draws([], 10) == []


# SHA-256 of the draws, each as 8 little-endian bytes, of the first chunk
# `verify --n 5 --fuzz` draws (85 trial streams), in 2-D and in 3-D.  They
# pin the streams bit for bit on every Python version the tests run on.
CHUNK_DIGESTS = {
    10: "4cea50c291940c9211361d9191ed606591bb2ce3ed307120f54e33618fe9a994",
    15: "7a2febe76e99c64b6383d36b48234811f6609db131f639ed76768d66527135d6",
}


def test_first_fuzz_chunk_digests_are_pinned():
    seeds = [mix64(i) for i in range(85)]
    for count, digest in CHUNK_DIGESTS.items():
        xs = stream_draws(seeds, count)
        assert len(xs) == 85 * count
        blob = b"".join(x.to_bytes(8, "little") for x in xs)
        assert hashlib.sha256(blob).hexdigest() == digest


GAMMA = 0x9E3779B97F4A7C15
PINNED = [0, MASK64, 2**64, -1, 2**70]

# seeds within 40 steps of 2**64, so a lane's state sum carries past bit 64
seed_lists = st.lists(st.one_of(
    st.sampled_from(PINNED),
    st.integers(2**64 - 40 * GAMMA, 2**64 + 40 * GAMMA),
    st.integers(-(2**80), 2**80),
), max_size=12)


@settings(max_examples=300, deadline=None)
@given(seed_lists, st.integers(0, 40))
def test_packed_lanes_are_the_sequential_streams(seeds, count):
    for xs in (seeds, PINNED + seeds, []):
        got = stream_draws(xs, count)
        assert got == sequential(xs, count)
        assert all(type(x) is int for x in got)


def test_lane_cache_keeps_at_most_64_shapes():
    for streams in range(1, 21):
        for count in range(10):
            stream_draws([streams] * streams, count)
    assert _lanes.cache_info().currsize <= 64
