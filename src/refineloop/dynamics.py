"""Closed-form dynamics of a two-state correctness chain.

An iterative refinement loop moves each problem between Correct and
Incorrect. Per iteration, a correct answer is spoiled with probability
``eir`` (error introduction rate) and an incorrect answer is fixed with
probability ``ecr`` (error correction rate). Population accuracy then
obeys the linear recurrence

    acc' = acc * (1 - eir) + (1 - acc) * ecr

and everything of interest has an exact expression: the net benefit of
one more pass, the break-even condition ``ecr/eir = acc/(1-acc)``, the
long-run accuracy ``ecr/(eir+ecr)``, and the geometric rate
``1 - eir - ecr`` at which it is approached. On measured counts the
break-even test is n_ic > n_ci (``verdict_from_counts``, used by
``report`` and the ASC controller). The package's argument rules live
here: ``_check_int`` for every count and seed, ``_check_real`` for every
bounded real.
"""

import math
import numbers
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "EQUILIBRIUM_TOLERANCE",
    "TransitionRates",
    "AccuracyPoint",
    "Verdict",
    "EquilibriumVerdict",
    "SteadyStateSummary",
    "step_accuracy",
    "net_benefit",
    "equilibrium_ratio",
    "rate_ratio",
    "stop_or_iterate",
    "verdict_from_counts",
    "steady_state",
    "closed_form_accuracy",
]

# |net benefit| at or below this is treated as sitting on the equilibrium
# manifold; keeps verdicts stable under float noise near the break-even line.
EQUILIBRIUM_TOLERANCE = 1e-12


def _check_real(name: str, value, low: float = 0.0, high: float = 1.0, open: bool = False) -> float:
    """``value`` as a float, refused unless it is a real (not a bool) in [low, high], or (low, high) if ``open``."""
    real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
    if real and (low < value < high if open else low <= value <= high):  # NaN compares False
        try:
            return float(value)
        except OverflowError:  # an int past the float range, let in by an infinite bound
            pass
    bounds = f"({low:g}, {high:g})" if open else f"[{low:g}, {high:g}]"
    raise ValueError(f"{name} must be a number in {bounds}, got {value!r}")


def _check_int(name: str, value, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int, refused unless it is an integer (not a bool) in [``low``, ``high``); ``low`` is 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < low:
        raise ValueError(f"{name} must be a {'positive' if low else 'non-negative'} int, got {value!r}")
    if high is not None and value >= high:
        raise ValueError(f"{name} must be below {high}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TransitionRates:
    """One iteration's pair of flip probabilities."""

    eir: float
    ecr: float

    def __post_init__(self):
        object.__setattr__(self, "eir", _check_real("eir", self.eir))
        object.__setattr__(self, "ecr", _check_real("ecr", self.ecr))

    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Row-stochastic transition matrix over (Correct, Incorrect)."""
        return ((1.0 - self.eir, self.eir), (self.ecr, 1.0 - self.ecr))


@dataclass(frozen=True)
class AccuracyPoint:
    """Accuracy at one iteration; net_benefit is None at iteration 0."""

    iteration: int
    accuracy: float
    net_benefit: float | None = None


class Verdict(Enum):
    ITERATE = "iterate"
    STOP = "stop"
    AT_EQUILIBRIUM = "at-equilibrium"


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Outcome of the stop-or-iterate diagnostic.

    ``rate_ratio`` is ecr/eir (+inf when eir == 0 < ecr, nan when both are
    zero) and ``accuracy_odds`` is acc/(1-acc); another pass helps exactly
    when the first strictly exceeds the second.
    """

    verdict: Verdict
    rate_ratio: float
    accuracy_odds: float
    net_benefit: float


@dataclass(frozen=True)
class SteadyStateSummary:
    """Long-run accuracy and the eigenvalue governing approach to it.

    ``accuracy`` is nan when the chain is absorbing (eir == ecr == 0), in
    which case every starting accuracy is already stationary.
    """

    accuracy: float
    eigenvalue: float
    absorbing: bool


def step_accuracy(accuracy: float, rates: TransitionRates) -> float:
    """Accuracy after one refinement pass at the given rates."""
    acc = _check_real("accuracy", accuracy)
    return acc * (1.0 - rates.eir) + (1.0 - acc) * rates.ecr


def net_benefit(accuracy: float, rates: TransitionRates) -> float:
    """Accuracy change produced by one more pass (may be negative)."""
    return step_accuracy(accuracy, rates) - _check_real("accuracy", accuracy)


def equilibrium_ratio(accuracy: float) -> float:
    """Odds acc/(1-acc) that one more pass must beat to help; +inf at 1."""
    acc = _check_real("accuracy", accuracy)
    if acc == 1.0:
        return math.inf
    return acc / (1.0 - acc)


def rate_ratio(rates: TransitionRates) -> float:
    """ecr/eir on the extended reals: +inf when eir == 0 < ecr, nan at 0/0."""
    if rates.eir > 0.0:
        return rates.ecr / rates.eir
    return math.inf if rates.ecr > 0.0 else math.nan


def stop_or_iterate(accuracy: float, rates: TransitionRates) -> EquilibriumVerdict:
    """Decide whether another pass helps at the current accuracy.

    The verdict is driven by the sign of the net benefit, with values
    inside ``EQUILIBRIUM_TOLERANCE`` reported as AT_EQUILIBRIUM. The
    degenerate absorbing case eir == ecr == 0 lands there as well, since
    no pass can then change anything. On counts, :func:`verdict_from_counts`
    decides without a tolerance.
    """
    nb = net_benefit(accuracy, rates)
    if abs(nb) <= EQUILIBRIUM_TOLERANCE:
        verdict = Verdict.AT_EQUILIBRIUM
    elif nb > 0.0:
        verdict = Verdict.ITERATE
    else:
        verdict = Verdict.STOP
    return _verdict_record(verdict, accuracy, rates)


def _verdict_record(verdict: Verdict, accuracy: float, rates: TransitionRates) -> EquilibriumVerdict:
    """``verdict`` with the rate ratio, accuracy odds and net benefit at ``accuracy`` and ``rates``."""
    return EquilibriumVerdict(verdict, rate_ratio(rates), equilibrium_ratio(accuracy), net_benefit(accuracy, rates))


def verdict_from_counts(n_cc: int, n_ci: int, n_ic: int, n_ii: int) -> Verdict | None:
    """Stop-or-iterate from a transition's (or a pool's) counts; None if either pool is empty.

    With Acc*EIR = n_ci/n and (1-Acc)*ECR = n_ic/n from these counts,
    ``ecr/eir > acc/(1-acc)`` is exactly n_ic > n_ci: iterate iff more
    answers were fixed than broken.
    """
    n_cc, n_ci, n_ic, n_ii = map(_check_int, ("n_cc", "n_ci", "n_ic", "n_ii"), (n_cc, n_ci, n_ic, n_ii))
    if not (n_cc + n_ci and n_ic + n_ii):
        return None
    return Verdict.ITERATE if n_ic > n_ci else Verdict.STOP if n_ic < n_ci else Verdict.AT_EQUILIBRIUM


def steady_state(rates: TransitionRates) -> SteadyStateSummary:
    """Long-run accuracy ecr/(eir+ecr) and eigenvalue 1 - eir - ecr."""
    total = rates.eir + rates.ecr
    if total == 0.0:
        return SteadyStateSummary(accuracy=math.nan, eigenvalue=1.0, absorbing=True)
    return SteadyStateSummary(
        accuracy=rates.ecr / total, eigenvalue=1.0 - total, absorbing=False
    )


def closed_form_accuracy(k: int, rates: TransitionRates, initial_accuracy: float) -> float:
    """Accuracy after ``k`` passes at fixed rates, without iterating.

    Equals ``pi + lam**k * (acc0 - pi)`` with ``pi = ecr/(eir+ecr)`` and
    ``lam = 1 - eir - ecr``; when the chain is absorbing the accuracy
    never moves. Matches k-fold :func:`step_accuracy` to float precision.
    """
    k = _check_int("k", k)
    acc0 = _check_real("initial_accuracy", initial_accuracy)
    if k == 0:
        return acc0
    summary = steady_state(rates)
    if summary.absorbing:
        return acc0
    return summary.accuracy + summary.eigenvalue**k * (acc0 - summary.accuracy)
