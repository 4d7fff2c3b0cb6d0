"""Rate estimation from correctness logs.

Transition rates are conditional frequencies: eir is estimated among the
problems that entered a transition correct, ecr among those that entered
it incorrect. An empty conditioning pool leaves the rate undefined
(``None``), never silently zero. Pooled rates sum counts across
transitions before dividing, which is the maximum-likelihood estimate for
a homogeneous chain and what a running stop-rule should consume.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .dynamics import AccuracyPoint, _check_int, _check_real
from .logs import CorrectnessLog, _check_correctness

__all__ = [
    "TransitionCounts",
    "TransitionEstimate",
    "RateEstimates",
    "transition_counts",
    "pooled_rates",
    "accuracy_series",
    "estimate_rates",
    "wilson_interval",
]


@dataclass(frozen=True)
class TransitionCounts:
    """2x2 flow counts across one transition (c=correct, i=incorrect)."""

    n_cc: int
    n_ci: int
    n_ic: int
    n_ii: int

    @property
    def n_correct_before(self) -> int:
        return self.n_cc + self.n_ci

    @property
    def n_incorrect_before(self) -> int:
        return self.n_ic + self.n_ii

    @property
    def total(self) -> int:
        return self.n_cc + self.n_ci + self.n_ic + self.n_ii


@dataclass(frozen=True)
class TransitionEstimate:
    """Per-transition rates with Wilson intervals; None where the pool is empty."""

    counts: TransitionCounts
    eir: float | None
    ecr: float | None
    eir_interval: tuple[float, float] | None
    ecr_interval: tuple[float, float] | None


@dataclass(frozen=True)
class RateEstimates:
    per_transition: tuple[TransitionEstimate, ...]
    pooled_eir: float | None
    pooled_ecr: float | None
    accuracy_series: tuple[AccuracyPoint, ...]


def transition_counts(matrix) -> np.ndarray:
    """(K, 4) int array of n_cc, n_ci, n_ic, n_ii per transition t -> t+1 of an N x (K+1) matrix.

    ValueError unless ``matrix`` is 2-d with every entry 0 or 1. Each
    transition takes three counts of set cells, over whole columns: of the
    column before (a), the column after (b), and both (a and b).
    """
    m = _check_correctness(matrix)
    if m.ndim != 2:
        raise ValueError(f"correctness must be a 2-d matrix, got shape {m.shape}")
    columns = np.ascontiguousarray(m.T)  # each column one row, counted in one pass
    ones = [np.count_nonzero(column) for column in columns]
    both = [np.count_nonzero(a & b) for a, b in zip(columns[:-1], columns[1:])]
    # n_cc = |a and b|, n_ci = |a| - n_cc, n_ic = |b| - n_cc, n_ii = N - |a| - |b| + n_cc
    table = np.array([[cc, a - cc, b - cc, len(m) - a - b + cc] for cc, a, b in zip(both, ones, ones[1:])],
                     dtype=np.intp)
    return table.reshape(len(both), 4)


def pooled_rates(counts: np.ndarray) -> tuple[float | None, float | None]:
    """Count-pooled (eir, ecr) over the rows of a ``transition_counts`` table."""
    n_cc, n_ci, n_ic, n_ii = (int(n) for n in np.sum(counts, axis=0))
    return (_rate(n_ci, n_cc + n_ci), _rate(n_ic, n_ic + n_ii))


def accuracy_series(log: CorrectnessLog) -> list[AccuracyPoint]:
    """Per-iteration accuracy and net benefit, derived from integer counts."""
    n = log.n_problems
    counts = [int(np.count_nonzero(column)) for column in np.ascontiguousarray(log.correctness.T)]
    points = [AccuracyPoint(iteration=0, accuracy=counts[0] / n)]
    for k in range(1, len(counts)):
        points.append(
            AccuracyPoint(
                iteration=k,
                accuracy=counts[k] / n,
                net_benefit=(counts[k] - counts[k - 1]) / n,
            )
        )
    return points


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Always contains the point estimate; degenerate ``trials == 0`` returns
    the vacuous interval (0, 1).
    """
    successes, n = _check_int("successes", successes), _check_int("trials", trials)
    if successes > n:
        raise ValueError(f"need successes <= trials, got {successes}/{n}")
    confidence = _check_real("confidence", confidence, open=True)
    if n == 0:
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
    # at the degenerate point estimates the bound is exactly the estimate,
    # but center - half leaves ~1 ulp of residue; pin it
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def _rate(successes: int, pool: int) -> float | None:
    return successes / pool if pool > 0 else None


def _pool_estimate(successes: int, pool: int, confidence: float) -> tuple[float | None, tuple[float, float] | None]:
    """A pool's (rate, Wilson interval); both None for an empty pool."""
    rate = _rate(successes, pool)
    return rate, (None if rate is None else wilson_interval(successes, pool, confidence))


def estimate_rates(log: CorrectnessLog, confidence: float = 0.95) -> RateEstimates:
    """Per-transition and pooled rate estimates for one log."""
    confidence = _check_real("confidence", confidence, open=True)  # a one-column log reaches no wilson_interval
    table = transition_counts(log.correctness)
    per = []
    for row in table.tolist():
        counts = TransitionCounts(*row)
        eir, eir_interval = _pool_estimate(counts.n_ci, counts.n_correct_before, confidence)
        ecr, ecr_interval = _pool_estimate(counts.n_ic, counts.n_incorrect_before, confidence)
        per.append(TransitionEstimate(counts, eir, ecr, eir_interval, ecr_interval))
    pooled_eir, pooled_ecr = pooled_rates(table)
    return RateEstimates(
        per_transition=tuple(per),
        pooled_eir=pooled_eir,
        pooled_ecr=pooled_ecr,
        accuracy_series=tuple(accuracy_series(log)),
    )

