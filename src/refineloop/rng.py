"""Deterministic counter-based uniform draws.

Every value is a pure function of ``(seed, stream, index)``: there is no
generator object and no mutable state, so draws can be produced for any
subset of indices, in any order, on any number of workers, and the result
is always bit-identical. Streams isolate independent consumers (one per
simulated transition, per bootstrap resample, and so on); the index
enumerates draws within a stream.

Construction: a splitmix64 finalizer applied to ``key + index * gamma``,
where the starting state ``key`` and the odd per-stream increment
``gamma`` are themselves mixed from ``(seed, stream)``. ``GENERATOR_ID``
names this exact construction; changing any constant below is a format
break and must bump the version suffix.

A draw has two stages. The derivation stage, ``_stream_keys``, mixes
each stream's ``(key, gamma)`` pair: three finalizers per stream, a fixed
cost of about 30 small numpy calls whatever the number of streams. The
draw stage, ``_fill``, mixes one ``key + index * gamma`` per coordinate
into a buffer its caller owns, and keeps its top 53 bits. ``uniforms``
runs both stages on checked arguments and scales the bits to [0, 1). A
caller that draws from the same streams many times (the bootstrap, one
tile of problems at a time) derives the keys once and calls ``_fill``
itself, with buffers it reuses; ``_fill`` checks nothing.
"""

import numpy as np

from .dynamics import _check_int

GENERATOR_ID = "splitmix64-counter/v1"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1342543DE82EF95
_GAMMA_SALT = 0x5851F42D4C957F2D
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Stream-id blocks reserved per consumer, so one seed never reuses a
# stream across features of the library.
SIM_INIT_STREAM = 0
SIM_TRANSITION_BASE = 1  # + transition index
BOOTSTRAP_STREAM_BASE = 1 << 32  # + resample index
VOTE_STREAM_BASE = 1 << 33  # + sample index


def check_seed(seed: int) -> int:
    """``seed`` as an int, refused unless it is an integer (numpy's included) in [0, 2**64)."""
    seed = _check_int("seed", seed)
    if seed >= 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, in place on the uint64 array ``z``.

    One scratch buffer of ``z``'s shape, ``tmp`` or a new one, holds each
    shifted copy. uint64 arithmetic wraps modulo 2**64, which is exactly
    what the scalar reference implementation does with explicit masking.
    """
    tmp = np.empty_like(z) if tmp is None else tmp
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_A)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_B)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _coordinates(name: str, value) -> np.ndarray:
    """``value`` as a uint64 array, refused unless it holds integers in [0, 2**64).

    Only a signed dtype is searched for negative values, so uint64 input
    costs no pass over its elements and is returned uncopied.
    """
    arr = np.asarray(value)  # an int past 2**64 - 1 gives dtype object
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold ints in [0, 2**64), got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and arr.size and arr.min() < 0:
        raise ValueError(f"{name} must hold ints in [0, 2**64), got {arr.min()}")
    return arr.astype(np.uint64, copy=False)


def _stream_keys(seed: int, stream) -> tuple[np.ndarray, np.ndarray]:
    """The starting state ``key`` and odd increment ``gamma`` of each stream.

    Both are new uint64 arrays of ``stream``'s shape, as ``_fill`` takes them.
    """
    base = np.uint64(_mix_int(check_seed(seed) + _GOLDEN))
    st = _coordinates("stream", stream)
    with np.errstate(over="ignore"):
        # np.asarray: a ufunc on 0-d arrays returns a scalar, which cannot
        # be updated in place. Each array below is new, never the caller's.
        key = _mix(np.asarray(st * np.uint64(_STREAM_SALT) + np.uint64(_GOLDEN)))
        key ^= base
        _mix(key)
        gamma = _mix(np.asarray(key ^ np.uint64(_GAMMA_SALT)))
        gamma |= np.uint64(1)
    return key, gamma


def _fill(key: np.ndarray, gamma: np.ndarray, index: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Write each draw's 53 random bits, ``mix(key + index * gamma) >> 11``, into ``out``.

    ``key`` and ``gamma`` (``_stream_keys``' pair) broadcast against the
    uint64 ``index`` to the shape of ``out`` and of the scratch ``tmp``:
    two uint64 arrays that share no memory with the others. Nothing is checked.
    """
    np.multiply(index, gamma, out=out)
    out += key
    _mix(out, tmp)
    out >>= np.uint64(11)


def uniforms(seed: int, stream, index) -> np.ndarray:
    """Uniform [0, 1) draws at the given ``(stream, index)`` coordinates.

    ``stream`` and ``index`` may be non-negative ints or integer arrays;
    they broadcast against each other. Each draw carries 53 random bits.
    The arguments are never written to.
    """
    key, gamma = _stream_keys(seed, stream)  # checks the seed, then the stream
    ix = _coordinates("index", index)
    bits = np.empty(np.broadcast_shapes(key.shape, ix.shape), dtype=np.uint64)
    _fill(key, gamma, ix, bits, np.empty_like(bits))  # uint64 arrays wrap without a warning
    # the value is below 2**53: converting it as signed is exact and faster
    u = bits.view(np.int64).astype(np.float64)
    u *= 2.0**-53
    return u[()]  # a numpy scalar for 0-d inputs, as the ufuncs give
