"""Per-iteration rate schedules and published model presets.

A schedule assigns a :class:`~refineloop.dynamics.TransitionRates` pair to
each transition of a refinement loop. Presets carry the measured
per-transition rates for several models on GSM8K together with the
iteration-0 accuracy they started from, so their trajectories can be
replayed without any model access. Preset tables are written in percent,
exactly as measured; conversion to probabilities happens once, here.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .dynamics import TransitionRates, _check_int

__all__ = ["RateSchedule", "ScheduleExhaustedError", "preset", "preset_baseline", "preset_names"]


class ScheduleExhaustedError(ValueError):
    """Raised when a transition index runs past a non-stationary schedule."""


@dataclass(frozen=True)
class RateSchedule:
    """Rates for transitions 0..len-1, optionally repeating the last entry.

    With ``stationary_tail`` set, indices past the end reuse the final
    entry, turning the tail of the loop into a homogeneous chain. Without
    it, out-of-range lookups raise, so a simulation cannot silently run
    on rates that were never specified.
    """

    transitions: tuple[TransitionRates, ...]
    name: str | None = None
    stationary_tail: bool = False

    def __post_init__(self):
        entries = tuple(self.transitions)
        if not entries:
            raise ValueError("a schedule needs at least one transition entry")
        for entry in entries:
            if not isinstance(entry, TransitionRates):
                raise ValueError(f"schedule entries must be TransitionRates, got {entry!r}")
        object.__setattr__(self, "transitions", entries)

    def __len__(self) -> int:
        return len(self.transitions)

    def rates_for(self, transition: int) -> TransitionRates:
        _check_int("transition index", transition)
        if transition < len(self.transitions):
            return self.transitions[transition]
        if self.stationary_tail:
            return self.transitions[-1]
        raise ScheduleExhaustedError(
            f"schedule {self.name or ''!r} has {len(self.transitions)} transitions, "
            f"index {transition} requested and no stationary tail declared"
        )

    @classmethod
    def from_pairs(cls, pairs, name=None, stationary_tail=False) -> "RateSchedule":
        """Build from (eir, ecr) probability pairs."""
        return cls(
            transitions=tuple(TransitionRates(eir, ecr) for eir, ecr in pairs),
            name=name,
            stationary_tail=stationary_tail,
        )


class _Preset(NamedTuple):
    baseline: float  # iteration-0 accuracy, as a probability
    percent_pairs: tuple[tuple[float, float], ...]  # (eir%, ecr%) per transition
    stationary_tail: bool


# Measured per-transition (EIR%, ECR%) on GSM8K, 500 problems, 4 refinement
# passes. The o4-mini entry is a single stationary pair: only its average
# EIR (0.2%) was reported, with accuracy holding station at 96.8%; the ECR
# below is the unique value that makes 96.8% the stationary point.
_PRESETS: dict[str, _Preset] = {
    "gpt-4o-mini": _Preset(0.912, ((1.3, 0.0), (0.9, 4.0), (3.8, 3.8), (2.1, 1.5)), False),
    "gpt-4.1": _Preset(0.946, ((0.4, 3.7), (0.0, 0.0), (0.2, 0.0), (0.0, 3.4)), False),
    "claude-sonnet-4": _Preset(0.968, ((0.8, 6.2), (0.2, 5.3), (0.8, 5.3), (0.4, 9.1)), False),
    "gpt-5": _Preset(0.962, ((1.9, 10.5), (0.8, 7.7), (0.0, 3.6), (0.4, 3.7)), False),
    "claude-opus-4.6": _Preset(0.976, ((0.2, 25.0), (0.2, 20.0), (0.4, 11.1), (0.2, 20.0)), False),
    "o3-mini": _Preset(0.932, ((0.0, 44.1), (0.0, 10.5), (0.0, 0.0), (0.0, 0.0)), False),
    "o4-mini": _Preset(0.968, ((0.2, 6.05),), True),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def _lookup(name: str) -> _Preset:
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown preset {name!r}; available presets: {known}") from None


def preset(name: str) -> RateSchedule:
    """Rate schedule for a named model preset."""
    entry = _lookup(name)
    return RateSchedule.from_pairs(
        ((eir / 100.0, ecr / 100.0) for eir, ecr in entry.percent_pairs),
        name=name,
        stationary_tail=entry.stationary_tail,
    )


def preset_baseline(name: str) -> float:
    """Iteration-0 accuracy the preset's trajectory starts from."""
    return _lookup(name).baseline
