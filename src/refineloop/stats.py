"""Paired significance tests for correctness columns.

McNemar's test compares two paired boolean columns through their
discordant counts b (first correct, second not) and c (the reverse),
using the uncorrected statistic (b - c)^2 / (b + c) against a chi-square
tail with one degree of freedom. The paired percentile bootstrap
resamples problems with replacement, one counter-based stream per
resample, so the interval is seed-deterministic and order-independent.
Resamples are drawn in cache-sized blocks; any block size gives the same
bits.

The chi-square tail is for one degree of freedom only, the case McNemar
needs. It is computed here from the regularized incomplete gamma function
at a = 1/2 (series for small arguments, Lentz continued fraction for
large), accurate to well under 1e-10 in relative terms across the range
a test can produce; no table lookups and no external dependency.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .estimate import transition_counts

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
_BLOCK_DRAWS = 1 << 16  # bootstrap draws per block: its temporaries stay in cache


def _regularized_gamma_series(x: float) -> float:
    """Lower regularized P(a, x) by power series; valid for x < a + 1."""
    term = 1.0 / _A
    total = term
    denom = _A
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + _A * math.log(x) - math.lgamma(_A))


def _regularized_gamma_cf(x: float) -> float:
    """Upper regularized Q(a, x) by Lentz's continued fraction; x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - _A
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - _A)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + _A * math.log(x) - math.lgamma(_A))


def chi_square_survival(x: float) -> float:
    """P(X >= x) for a chi-square variable with one degree of freedom."""
    if x < 0.0:
        raise ValueError(f"statistic must be >= 0, got {x}")
    half = x / 2.0
    if half == 0.0:  # tested after halving: the smallest subnormal halves to 0.0
        return 1.0
    if half < _A + 1.0:
        return 1.0 - _regularized_gamma_series(half)
    return _regularized_gamma_cf(half)


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
    for name, value in (("b", b), ("c", c)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a non-negative int, got {value!r}")
    if b + c == 0:
        return McNemarResult(b=b, c=c, statistic=0.0, p_value=1.0, significant=False, no_discordance=True)
    statistic = (b - c) ** 2 / (b + c)
    p_value = chi_square_survival(statistic)
    return McNemarResult(b=b, c=c, statistic=statistic, p_value=p_value, significant=p_value < ALPHA)


def _paired_columns(col_a, col_b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(col_a, dtype=bool)
    b = np.asarray(col_b, dtype=bool)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("columns must be 1-d")
    if a.shape != b.shape:
        raise ValueError(f"paired columns differ in length: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise ValueError("paired columns must be non-empty")
    return a, b


def mcnemar_from_logs(col_a, col_b) -> McNemarResult:
    """McNemar test on two aligned correctness columns.

    b counts problems correct in ``col_a`` but not ``col_b``; c the reverse.
    """
    a, b = _paired_columns(col_a, col_b)
    _, n_ci, n_ic, _ = transition_counts(np.column_stack([a, b]))[0].tolist()
    return mcnemar(b=n_ci, c=n_ic)


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
    not depend on evaluation order or worker count.
    """
    a, b = _paired_columns(col_a, col_b)
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rng.check_seed(seed)
    n = a.shape[0]
    diff = b.astype(np.int8) - a.astype(np.int8)  # per-problem paired contribution
    delta_pp = float(diff.mean()) * 100.0
    deltas = np.empty(resamples)
    positions = np.arange(n)
    rows = max(1, min(resamples, _BLOCK_DRAWS // n))
    for start in range(0, resamples, rows):
        streams = np.arange(start, min(start + rows, resamples)) + rng.BOOTSTRAP_STREAM_BASE
        u = rng.uniforms(seed, streams[:, None], positions[None, :])
        u *= n
        idx = u.astype(np.int64)
        np.minimum(idx, n - 1, out=idx)
        deltas[start : start + len(streams)] = diff[idx].mean(axis=1) * 100.0
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
