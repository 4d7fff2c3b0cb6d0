"""Paired significance tests for correctness columns.

McNemar's test compares two paired boolean columns through their
discordant counts b (first correct, second not) and c (the reverse),
using the uncorrected statistic (b - c)^2 / (b + c) against a chi-square
tail with one degree of freedom. The paired percentile bootstrap
resamples problems with replacement, one counter-based stream per
resample, so the interval is seed-deterministic and order-independent.
Its draws are made in tiles of about 2**16: a set of resamples times a
range of problems, so that a tile's temporaries stay in cache; past 2**16
problems a resample is split into column chunks whose exact integer sums
are added up. The tiles run on every usable core, up to a fixed cap: the
calling thread works them alongside helper threads, and each tile writes
only its own resamples' sums. Every stream's counter keys, and the
positions that serve every column chunk, are derived once per call, and
each worker draws into scratch it allocates once, so a tile pays only for
its draws. Any tile shape or worker count gives the same bits. When every
problem's paired difference is the same (two runs that agree on every
answer, or one that is right wherever the other is wrong), every
resample sums to n times that difference whatever its draws, so no draw
is made. Either way each delta is computed once from its resample's
exact sum.

The chi-square tail is for one degree of freedom only, the case McNemar
needs. It is computed here from the regularized incomplete gamma function
at a = 1/2 (series for small arguments, Lentz continued fraction for
large), accurate to well under 1e-10 in relative terms across the range
a test can produce; no table lookups and no external dependency.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import rng
from .dynamics import _check_int, _check_real
from .logs import _check_correctness

__all__ = [
    "McNemarResult",
    "BootstrapDelta",
    "chi_square_survival",
    "mcnemar",
    "mcnemar_from_logs",
    "paired_bootstrap_delta",
]

ALPHA = 0.05  # McNemar significance level
_A = 0.5  # incomplete-gamma shape: half of McNemar's one degree of freedom
_EPS = 1e-16
_MAX_ITER = 500
_TILE_DRAWS = 1 << 16  # bootstrap draws per tile: its temporaries stay in cache
# Threads that work bootstrap tiles at once. Each holds one tile's
# temporaries, so the cap keeps the kernel's peak memory under the 8 MiB
# that test_bootstrap_memory_stays_cache_sized allows, on any host.
_MAX_WORKERS = 4


def _regularized_gamma_series(x: float) -> float:
    """Lower regularized P(a, x) by power series, before its prefactor; valid for x < a + 1."""
    term = 1.0 / _A
    total = term
    denom = _A
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total


def _regularized_gamma_cf(x: float) -> float:
    """Upper regularized Q(a, x) by Lentz's continued fraction, before its prefactor; x >= a + 1."""
    b = x + 1.0 - _A
    c = math.inf  # Lentz's 1 / tiny: the first step sets c = b
    d = 1.0 / b
    h = d
    # No tiny floor: at x >= a + 1 each denominator b_i + a_i / D is >= b_i / 2 >= i + 1 (by induction), c alike
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - _A)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def chi_square_survival(x: float) -> float:
    """P(X >= x) for a chi-square variable with one degree of freedom."""
    half = _check_real("statistic", x, 0.0, math.inf) / 2.0
    if half == 0.0:  # tested after halving: the smallest subnormal halves to 0.0
        return 1.0
    if half == math.inf:  # the prefactor would be exp(-inf + inf), nan
        return 0.0
    scale = math.exp(-half + _A * math.log(half) - math.lgamma(_A))  # the prefactor x^a e^-x / Gamma(a)
    if half < _A + 1.0:
        return 1.0 - _regularized_gamma_series(half) * scale
    return _regularized_gamma_cf(half) * scale


@dataclass(frozen=True)
class McNemarResult:
    b: int
    c: int
    statistic: float
    p_value: float
    significant: bool  # p_value < ALPHA
    no_discordance: bool = False


def mcnemar(b: int, c: int) -> McNemarResult:
    """Uncorrected McNemar test from the two discordant counts.

    ``b + c == 0`` is reported as a flagged no-discordance result
    (statistic 0, p-value 1) rather than an error.
    """
    b, c = _check_int("b", b), _check_int("c", c)
    if b + c == 0:
        return McNemarResult(b=b, c=c, statistic=0.0, p_value=1.0, significant=False, no_discordance=True)
    statistic = (b - c) ** 2 / (b + c)
    p_value = chi_square_survival(statistic)
    return McNemarResult(b=b, c=c, statistic=statistic, p_value=p_value, significant=p_value < ALPHA)


def _paired_difference(col_a, col_b) -> np.ndarray:
    """Each problem's ``col_b - col_a`` as int8: -1, 0 or +1. Both columns are checked first."""
    a = _check_correctness(col_a)
    b = _check_correctness(col_b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("columns must be 1-d")
    if a.shape != b.shape:
        raise ValueError(f"paired columns differ in length: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise ValueError("paired columns must be non-empty")
    return b.astype(np.int8) - a.astype(np.int8)


def mcnemar_from_logs(col_a, col_b) -> McNemarResult:
    """McNemar test on two aligned correctness columns.

    b counts problems correct in ``col_a`` but not ``col_b``; c the reverse.
    """
    diff = _paired_difference(col_a, col_b)
    return mcnemar(b=int(np.count_nonzero(diff < 0)), c=int(np.count_nonzero(diff > 0)))


@dataclass(frozen=True)
class BootstrapDelta:
    """Percentile bootstrap interval for a paired accuracy difference.

    ``delta_pp`` and the interval are in percentage points, oriented as
    second column minus first.
    """

    delta_pp: float
    ci_lo: float
    ci_hi: float
    resamples: int
    seed: int
    confidence: float = 0.95


def _workers() -> int:
    """Usable cores, up to ``_MAX_WORKERS``."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return min(usable, _MAX_WORKERS)


def _run_tiles(new_tile, starts: range) -> None:
    """Call ``tile(start)`` once for every start, on the caller's thread and helpers.

    Each worker makes its own ``tile = new_tile()`` once, so a tile's
    scratch is set up once per worker, not once per tile. Tiles are handed
    out one at a time, so a worker that falls behind takes fewer. The first
    exception any worker raises is re-raised here after every helper has
    stopped.
    """
    pending = iter(starts)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        try:
            tile = new_tile()
            while True:
                with lock:
                    start = None if errors else next(pending, None)
                if start is None:
                    return
                tile(start)
        except BaseException as exc:  # re-raised on the caller's thread below
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(min(_workers(), len(starts)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _drawn_sums(diff: np.ndarray, resamples: int, seed: int) -> np.ndarray:
    """Each resample's exact int64 sum of ``diff`` over its drawn indices.

    The keys of all ``resamples`` streams are derived once per call
    (``rng._stream_keys``): 24 B per resample, beside the 8 B of the
    returned sums. Each worker draws its tiles through ``rng._fill`` into
    three buffers of one tile's size that it allocates once.
    """
    n = diff.shape[0]
    rows = max(1, min(resamples, _TILE_DRAWS // n))
    cols = min(n, _TILE_DRAWS)
    sums = np.zeros(resamples, dtype=np.int64)
    streams = np.arange(resamples, dtype=np.uint64)[:, None] + np.uint64(rng.BOOTSTRAP_STREAM_BASE)
    key, gamma = rng._stream_keys(seed, streams)
    positions = np.arange(cols, dtype=np.uint64)  # of every chunk, counted from its first column
    # n * 2**-53 is exact, so m * scale rounds m * n / 2**53 once, as (m * 2**-53) * n does.
    # The top draw m = 2**53 - 1 floors to n - 1: take's mode="clip" is a guard, moving no index
    scale = n * 2.0**-53

    def new_tile():
        bits, tmp = np.empty(rows * cols, dtype=np.uint64), np.empty(rows * cols, dtype=np.uint64)
        picked = np.empty(rows * cols, dtype=np.int8)

        def tile(start: int) -> None:
            stop = min(start + rows, resamples)
            for col in range(0, n, cols):
                shape = (stop - start, min(cols, n - col))
                size = shape[0] * shape[1]
                out, scratch = bits[:size].reshape(shape), tmp[:size].reshape(shape)
                # (key + col * gamma) + i * gamma wraps to key + (col + i) * gamma: the draw at col + i
                keys = key[start:stop] + np.uint64(col) * gamma[start:stop] if col else key[start:stop]
                rng._fill(keys, gamma[start:stop], positions[: shape[1]], out, scratch)
                np.multiply(out.view(np.int64), scale, out=scratch.view(np.float64))
                np.copyto(out.view(np.int64), scratch.view(np.float64), casting="unsafe")
                g = np.take(diff, out.view(np.int64), out=picked[:size].reshape(shape), mode="clip")
                # a chunk of at most 2**16 draws of -1, 0 or +1 sums exactly in int32
                sums[start:stop] += np.add.reduce(g, axis=1, dtype=np.int32)

        return tile

    _run_tiles(new_tile, range(0, resamples, rows))
    return sums


def paired_bootstrap_delta(
    col_a,
    col_b,
    resamples: int = 10_000,
    seed: int = 0,
    confidence: float = 0.95,
) -> BootstrapDelta:
    """Percentile bootstrap CI for accuracy(col_b) - accuracy(col_a).

    Problems are resampled with replacement; resample r draws its indices
    from counter stream ``BOOTSTRAP_STREAM_BASE + r``, so the result does
    not depend on evaluation order or worker count. ValueError unless both
    columns hold only 0/1 entries. When every problem's difference is the
    same value v, nothing is drawn: every resample's exact sum is ``n * v``
    whatever its indices.
    """
    diff = _paired_difference(col_a, col_b)
    resamples = _check_int("resamples", resamples, 1)
    confidence = _check_real("confidence", confidence, open=True)
    seed = rng.check_seed(seed)
    n = diff.shape[0]
    delta_pp = float(diff.mean()) * 100.0
    if diff.min() == diff.max():
        sums = np.full(resamples, n * int(diff[0]), dtype=np.int64)
    else:
        sums = _drawn_sums(diff, resamples, seed)
    deltas = sums / n * 100.0
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(deltas, [100.0 * tail, 100.0 * (1.0 - tail)])
    return BootstrapDelta(
        delta_pp=delta_pp,
        ci_lo=float(lo),
        ci_hi=float(hi),
        resamples=resamples,
        seed=seed,
        confidence=confidence,
    )
