"""Tests for the counter-based generator.

The reference oracle below is an independent pure-Python transcription of
the documented construction. It is deliberately not imported from the
package: if any constant or mixing step in the implementation drifts, the
comparison fails and GENERATOR_ID must be bumped.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refineloop import rng

_MASK = (1 << 64) - 1


def _ref_mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def reference_uniform(seed: int, stream: int, index: int) -> float:
    base = _ref_mix(seed + 0x9E3779B97F4A7C15)
    key = _ref_mix(base ^ _ref_mix((stream * 0xD1342543DE82EF95 + 0x9E3779B97F4A7C15) & _MASK))
    gamma = _ref_mix(key ^ 0x5851F42D4C957F2D) | 1
    bits = _ref_mix((key + index * gamma) & _MASK)
    return (bits >> 11) * 2.0**-53


def test_generator_id_is_pinned():
    assert rng.GENERATOR_ID == "splitmix64-counter/v1"


@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    index=st.integers(0, 2**64 - 1),
)
def test_matches_reference_oracle(seed, stream, index):
    assert rng.uniforms(seed, stream, index) == reference_uniform(seed, stream, index)


def test_vector_call_equals_scalar_calls():
    seed = 2024
    streams = np.arange(7, dtype=np.uint64)
    indices = np.arange(11, dtype=np.uint64)
    grid = rng.uniforms(seed, streams[:, None], indices[None, :])
    for s in range(7):
        for i in range(11):
            assert grid[s, i] == rng.uniforms(seed, s, i)


def test_order_independence():
    seed = 99
    idx = np.arange(1000)
    base = rng.uniforms(seed, 5, idx)
    perm = np.random.default_rng(3).permutation(1000)
    shuffled = rng.uniforms(seed, 5, idx[perm])
    assert np.array_equal(shuffled, base[perm])


def test_chunked_equals_monolithic():
    seed = 7
    idx = np.arange(5000)
    whole = rng.uniforms(seed, 42, idx)
    parts = np.concatenate([rng.uniforms(seed, 42, idx[a : a + 617]) for a in range(0, 5000, 617)])
    assert np.array_equal(whole, parts)


def test_arguments_are_never_written():
    # uint64 arrays pass through np.asarray uncopied, so an in-place step
    # applied to them would show here
    streams = np.arange(5, dtype=np.uint64)
    indices = np.arange(5, dtype=np.uint64) + np.uint64(2**63)
    assert np.asarray(streams, dtype=np.uint64) is streams
    for st, ix in ((streams, indices), (streams[:, None], indices[None, :]), (7, indices), (streams, 3)):
        rng.uniforms(11, st, ix)
        assert np.array_equal(streams, np.arange(5, dtype=np.uint64))
        assert np.array_equal(indices, np.arange(5, dtype=np.uint64) + np.uint64(2**63))
    # the bootstrap draws every column chunk of a tile with one keys pair
    keys = rng._stream_keys(11, streams[:, None])
    saved = tuple(part.copy() for part in keys)
    for ix in (indices[None, :], indices[None, :2]):
        out = np.empty((5, ix.shape[1]), dtype=np.uint64)
        rng._fill(*keys, ix, out, np.empty_like(out))
        assert all(np.array_equal(part, copy) for part, copy in zip(keys, saved))
        assert np.array_equal(streams, np.arange(5, dtype=np.uint64))
        assert np.array_equal(indices, np.arange(5, dtype=np.uint64) + np.uint64(2**63))


_coordinate = st.integers(0, 2**64 - 1)


@given(
    seed=_coordinate,
    coordinates=st.one_of(
        st.tuples(_coordinate, _coordinate),
        st.tuples(st.lists(_coordinate, min_size=1, max_size=6), _coordinate).map(
            lambda c: (np.array(c[0], dtype=np.uint64), c[1])
        ),
        st.tuples(_coordinate, st.lists(_coordinate, min_size=1, max_size=6)).map(
            lambda c: (c[0], np.array(c[1], dtype=np.uint64))
        ),
        st.tuples(st.lists(_coordinate, min_size=1, max_size=4), st.lists(_coordinate, min_size=1, max_size=4)).map(
            lambda c: (np.array(c[0], dtype=np.uint64)[:, None], np.array(c[1], dtype=np.uint64)[None, :])
        ),
    ),
)
def test_keys_change_no_bit(seed, coordinates):
    # the bootstrap draws through rng._fill with keys derived once per call;
    # scaled as uniforms scales them, its bits are uniforms' bits
    stream, index = coordinates
    index = np.asarray(index, dtype=np.uint64)
    out = np.empty(np.broadcast_shapes(np.shape(stream), index.shape), dtype=np.uint64)
    rng._fill(*rng._stream_keys(seed, stream), index, out, np.empty_like(out))
    direct = rng.uniforms(seed, stream, index)
    assert out.shape == np.shape(direct) and (out >> np.uint64(53) == 0).all()
    assert (out * 2.0**-53).tobytes() == np.asarray(direct).tobytes()


@pytest.mark.parametrize(
    "stream, index, message",
    [
        (0, np.array([-1]), "index must hold ints in [0, 2**64), got -1"),  # would wrap to 2**64 - 1
        (0, np.array([1.7]), "index must hold ints in [0, 2**64), got dtype float64"),  # would truncate to 1
        (0, -1, "index must hold ints in [0, 2**64), got -1"),
        (0, 2**64, "index must hold ints in [0, 2**64), got dtype object"),
        (0, np.array([True]), "index must hold ints in [0, 2**64), got dtype bool"),
        (np.array([3, -2]), 0, "stream must hold ints in [0, 2**64), got -2"),
        (2.0, 0, "stream must hold ints in [0, 2**64), got dtype float64"),
    ],
)
def test_coordinates_that_are_not_non_negative_ints_are_refused(stream, index, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        rng.uniforms(1, stream, index)
    if message.startswith("stream"):  # deriving the stream's keys refuses it too
        with pytest.raises(ValueError, match=re.escape(message)):
            rng._stream_keys(1, stream)


def test_signed_and_unsigned_coordinates_draw_alike():
    idx = np.arange(50)
    assert np.array_equal(rng.uniforms(4, np.int32(9), idx), rng.uniforms(4, 9, idx.astype(np.uint64)))
    assert rng.uniforms(4, 9, np.arange(0)).shape == (0,)


@pytest.mark.parametrize(
    "stream, index, shape",
    [
        (3, 4, ()),
        (3, np.arange(6), (6,)),
        (np.arange(6), np.arange(6), (6,)),
        (np.arange(4)[:, None], np.arange(6)[None, :], (4, 6)),
    ],
)
def test_shape_and_dtype(stream, index, shape):
    u = rng.uniforms(1, stream, index)
    assert u.shape == shape
    assert u.dtype == np.float64


def test_range_and_moments():
    u = rng.uniforms(12345, 0, np.arange(200_000))
    assert (u >= 0.0).all() and (u < 1.0).all()
    # mean 1/2 and variance 1/12; bounds are ~5 sigma for this sample size
    assert abs(u.mean() - 0.5) < 0.004
    assert abs(u.var() - 1.0 / 12.0) < 0.003


def test_streams_are_distinct():
    idx = np.arange(256)
    a = rng.uniforms(0, 0, idx)
    b = rng.uniforms(0, 1, idx)
    assert not np.array_equal(a, b)
    # same coordinates under a different seed also move
    c = rng.uniforms(1, 0, idx)
    assert not np.array_equal(a, c)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**64 - 1))
def test_deterministic_across_calls(seed):
    idx = np.arange(32)
    assert np.array_equal(rng.uniforms(seed, 3, idx), rng.uniforms(seed, 3, idx))


def test_seed_validation():
    with pytest.raises(ValueError):
        rng.check_seed(-1)
    with pytest.raises(ValueError):
        rng.check_seed(1 << 64)
    with pytest.raises(ValueError):
        rng.check_seed(1.5)
    with pytest.raises(ValueError):
        rng.check_seed(True)
    assert rng.check_seed(0) == 0
    assert rng.check_seed(2**64 - 1) == 2**64 - 1
    for bad in (np.bool_(True), np.float64(3.0), "3", np.int64(-1)):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            rng.check_seed(bad)
    for seed in (np.int64(3), np.uint64(2**64 - 1), np.uint8(0)):
        assert rng.check_seed(seed) == seed and type(rng.check_seed(seed)) is int


def test_stream_blocks_do_not_collide():
    # the reserved stream bases are far enough apart that realistic
    # transition/resample counts cannot overlap
    assert rng.SIM_INIT_STREAM == 0
    assert rng.SIM_TRANSITION_BASE == 1
    assert rng.BOOTSTRAP_STREAM_BASE == 1 << 32
    assert rng.VOTE_STREAM_BASE == 1 << 33
    assert rng.BOOTSTRAP_STREAM_BASE - rng.SIM_TRANSITION_BASE > 10**6
    assert rng.VOTE_STREAM_BASE - rng.BOOTSTRAP_STREAM_BASE > 10**6
