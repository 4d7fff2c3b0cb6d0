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


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on the uint64 array ``z``.

    One scratch buffer holds each shifted copy. uint64 arithmetic wraps
    modulo 2**64, which is exactly what the scalar reference
    implementation does with explicit masking.
    """
    tmp = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_A)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_B)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def uniforms(seed: int, stream, index) -> np.ndarray:
    """Uniform [0, 1) draws at the given ``(stream, index)`` coordinates.

    ``stream`` and ``index`` may be non-negative ints or integer arrays;
    they broadcast against each other. Each draw carries 53 random bits.
    The arguments are never written to.
    """
    seed = check_seed(seed)
    with np.errstate(over="ignore"):
        st = np.asarray(stream, dtype=np.uint64)
        ix = np.asarray(index, dtype=np.uint64)
        base = np.uint64(_mix_int(seed + _GOLDEN))
        # np.asarray: a ufunc on 0-d arrays returns a scalar, which cannot
        # be updated in place. Each array below is new, never the caller's.
        key = _mix(np.asarray(st * np.uint64(_STREAM_SALT) + np.uint64(_GOLDEN)))
        key ^= base
        _mix(key)
        gamma = _mix(np.asarray(key ^ np.uint64(_GAMMA_SALT)))
        gamma |= np.uint64(1)
        bits = np.asarray(ix * gamma)
        bits += key
        _mix(bits)
        bits >>= np.uint64(11)
    # the value is below 2**53: converting it as signed is exact and faster
    u = bits.view(np.int64).astype(np.float64)
    u *= 2.0**-53
    return u[()]  # a numpy scalar for 0-d inputs, as the ufuncs give

