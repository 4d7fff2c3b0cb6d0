"""Self-consistency (majority vote) baseline, exact and simulated.

For k independent samples each correct with probability p, majority vote
is correct exactly when more than half the samples are, which for odd k
is a binomial tail sum. Real samples are not independent: errors share
causes. The common-cause model here interpolates with a weight rho --
with probability rho all k samples clone a single draw, otherwise they
are independent -- so vote accuracy falls linearly from the i.i.d. value
to p as rho goes 0 to 1. A fitted rho is a descriptive summary of error
correlation, not a mechanistic claim.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import rng
from .dynamics import _check_int, _check_real

__all__ = [
    "VoteOutcome",
    "CorrelatedSampleModel",
    "majority_vote",
    "theoretical_sc_accuracy",
    "mixture_sc_accuracy",
    "simulate_self_consistency",
    "fit_common_cause_weight",
]


@dataclass(frozen=True)
class VoteOutcome:
    """Plurality winner; ties break toward the earliest-seen answer."""

    chosen: Any
    counts: dict[Any, int]
    tie_broken: bool


def majority_vote(answers: Sequence[Any]) -> VoteOutcome:
    if len(answers) == 0:
        raise ValueError("cannot vote over zero answers")
    counts = Counter(answers)  # preserves first-seen order of keys
    top = max(counts.values())
    leaders = [answer for answer, n in counts.items() if n == top]
    return VoteOutcome(chosen=leaders[0], counts=dict(counts), tie_broken=len(leaders) > 1)


# The closed form multiplies math.comb(k, j) by a float, which converts the
# integer to a float; from k = 1031 the central coefficient exceeds the
# largest float and the conversion overflows, whatever p is.
_MAX_K = 1029


def _check_odd_k(k) -> int:
    k = _check_int("k", k, 1)
    if k % 2 == 0 or k > _MAX_K:
        raise ValueError(f"k must be odd and at most {_MAX_K}, got {k}")
    return k


def theoretical_sc_accuracy(p: float, k: int) -> float:
    """Probability a strict majority of k i.i.d. Bernoulli(p) samples is correct.

    For k = 3 this is p**3 + 3 * p**2 * (1 - p). Odd k only, so there are
    no ties to adjudicate. The float sum can round above 1 (at p = 0.6275,
    k = 1029 it reaches 1 + 4e-16), so it is capped at 1: a probability,
    and the i.i.d. end that ``fit_common_cause_weight`` accepts.
    """
    p = _check_real("p", p)
    k = _check_odd_k(k)
    q = 1.0 - p
    total = sum(math.comb(k, j) * p**j * q ** (k - j) for j in range(k // 2 + 1, k + 1))
    return min(1.0, total)


@dataclass(frozen=True)
class CorrelatedSampleModel:
    """k samples at accuracy p; with probability rho all clone one draw."""

    p: float
    rho: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_real("p", self.p))
        object.__setattr__(self, "rho", _check_real("rho", self.rho))
        _check_odd_k(self.k)


def mixture_sc_accuracy(p: float, rho: float, k: int) -> float:
    """Closed-form vote accuracy under the common-cause model."""
    p, rho = _check_real("p", p), _check_real("rho", rho)
    return rho * p + (1.0 - rho) * theoretical_sc_accuracy(p, k)


def simulate_self_consistency(model: CorrelatedSampleModel, n_problems: int, seed: int) -> float:
    """Empirical vote accuracy over ``n_problems`` seeded instances.

    The vote is between the correct answer and the modal wrong answer
    (wrong samples are not distinguished), matching the closed form:
    the correct answer wins exactly on strict majorities.
    """
    n_problems = _check_int("n_problems", n_problems, 1)
    seed = rng.check_seed(seed)
    idx = np.arange(n_problems, dtype=np.uint64)  # rng's dtype: no copy
    common_correct = rng.uniforms(seed, rng.VOTE_STREAM_BASE, idx) < model.p
    use_common = rng.uniforms(seed, rng.VOTE_STREAM_BASE + 1, idx) < model.rho
    correct_counts = np.zeros(n_problems, dtype=np.int64)
    for j in range(model.k):
        u = rng.uniforms(seed, rng.VOTE_STREAM_BASE + 2 + j, idx)
        correct_counts += u < model.p
    iid_win = 2 * correct_counts > model.k
    wins = np.where(use_common, common_correct, iid_win)
    return float(np.count_nonzero(wins)) / n_problems


def fit_common_cause_weight(p: float, k: int, target_accuracy: float) -> float:
    """Bisect for the rho whose closed-form vote accuracy hits the target.

    Vote accuracy decreases monotonically in rho when p > 1/2, from the
    i.i.d. value at rho=0 down to p at rho=1, so the target must lie in
    that interval. A target at an end of the interval gives that end's
    rho exactly, rho=0 first (where p equals the i.i.d. value, as at k=1
    or p=1/2, every rho attains the target).
    """
    p = _check_real("p", p)
    target_accuracy = _check_real("target_accuracy", target_accuracy)
    iid = theoretical_sc_accuracy(p, k)
    lo_acc, hi_acc = min(p, iid), max(p, iid)
    if not lo_acc <= target_accuracy <= hi_acc:
        raise ValueError(
            f"target {target_accuracy} outside the attainable range [{lo_acc}, {hi_acc}]"
        )
    for end in (0.0, 1.0):  # the bisection below would stop short of either end
        if mixture_sc_accuracy(p, end, k) == target_accuracy:
            return end
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:  # 40 halvings of [0, 1]
        mid = (lo + hi) / 2.0
        value = mixture_sc_accuracy(p, mid, k)
        # accuracy is decreasing in rho when iid >= p (and increasing otherwise):
        # rho moves up past mid exactly when that direction lowers a too-high value.
        if (value > target_accuracy) == (iid >= p):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
