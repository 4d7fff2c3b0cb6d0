"""Monte Carlo and analytic trajectories of refinement loops.

The population simulator runs N independent two-state chains under a rate
schedule. All randomness comes from the counter-based generator in
:mod:`refineloop.rng`: iteration k of problem i consumes the draw at
(seed, stream k+1, index i), so any subset of problems can be simulated
in any order (or on any worker count) with bit-identical results.
Iteration 0 is deterministic: exactly round(N * acc0) problems start
correct, those with the smallest seeded keys, ties to the lower index.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .dynamics import AccuracyPoint, TransitionRates, step_accuracy, _check_int, _check_real
from .logs import CorrectnessLog, _IdGrid
from .schedule import RateSchedule

__all__ = ["SimConfig", "SimTrajectory", "simulate_population", "analytic_trajectory", "deterministic_replay"]


@dataclass(frozen=True)
class SimConfig:
    n_problems: int
    n_iterations: int
    initial_accuracy: float
    seed: int
    schedule: RateSchedule

    def __post_init__(self):
        _check_int("n_problems", self.n_problems, 1)
        _check_int("n_iterations", self.n_iterations, 1)
        object.__setattr__(self, "initial_accuracy", _check_real("initial_accuracy", self.initial_accuracy))
        object.__setattr__(self, "seed", rng.check_seed(self.seed))
        if not isinstance(self.schedule, RateSchedule):
            raise ValueError("schedule must be a RateSchedule")


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class SimTrajectory:
    """Simulated correctness log plus an echo of the config that made it."""

    log: CorrectnessLog
    config: SimConfig


def _problem_ids(n: int) -> _IdGrid:
    """``p`` and i zero-padded to the width of n - 1, for i < n, as one byte grid.

    Distinct indices at one width give distinct ids, so the grid is an
    ``_IdGrid``, which ``CorrectnessLog`` takes without its type and
    uniqueness passes and keeps for ``write_log``.
    """
    width = len(str(n - 1))
    grid = np.empty((n, width + 1), dtype=np.uint8)
    grid[:, 0] = ord("p")
    index = np.arange(n)
    for col in range(width, 0, -1):  # the last digit first
        index, grid[:, col] = np.divmod(index, 10)
    grid[:, 1:] += ord("0")
    return _IdGrid(grid)


def _resolved_rates(schedule: RateSchedule, n_iterations: int) -> list[TransitionRates]:
    # Resolve every transition up front so an under-specified schedule
    # fails before any step runs.
    return [schedule.rates_for(t) for t in range(n_iterations)]


def _chain_log(state: np.ndarray, rates: list, step, metadata: dict, name: str | None) -> CorrectnessLog:
    """The log of a chain from ``state``, one ``step(t, state, rates[t])`` per transition, under schedule ``name``."""
    columns = [state]
    for t, r in enumerate(rates):
        state = step(t, state, r)
        columns.append(state)
    if name:
        metadata["schedule_name"] = name
    return CorrectnessLog(
        problem_ids=_problem_ids(len(state)),
        correctness=np.column_stack(columns),
        metadata=metadata,
    )


def _initial_column(keys: np.ndarray, accuracy: float) -> np.ndarray:
    """Iteration 0: the k = round(n * accuracy) problems with the smallest keys start correct.

    Keys tied with the k-th smallest go to the lowest indices, so the set
    is the first k of a stable argsort. ``np.partition`` finds the k-th
    smallest key by selection, in O(n); nothing is sorted.
    """
    k = int(round(len(keys) * accuracy))
    if k == 0:
        return np.zeros(len(keys), dtype=bool)
    kth = np.partition(keys, k - 1)[k - 1]
    state = keys < kth
    ties = np.flatnonzero(keys == kth)
    state[ties[: k - np.count_nonzero(state)]] = True
    return state


def simulate_population(config: SimConfig) -> SimTrajectory:
    """Simulate N chains under the config's schedule; fully seed-determined."""
    rates = _resolved_rates(config.schedule, config.n_iterations)
    indices = np.arange(config.n_problems, dtype=np.uint64)  # rng's dtype: no copy
    keys = rng.uniforms(config.seed, rng.SIM_INIT_STREAM, indices)
    state = _initial_column(keys, config.initial_accuracy)

    def step(t, state, r):
        u = rng.uniforms(config.seed, rng.SIM_TRANSITION_BASE + t, indices)
        # A correct answer survives when u >= eir; an incorrect one is
        # fixed when u < ecr.
        return np.where(state, u >= r.eir, u < r.ecr)

    metadata = {
        "generator": rng.GENERATOR_ID,
        "seed": str(config.seed),
        "initial_accuracy": repr(config.initial_accuracy),
        "n_problems": str(config.n_problems),
        "n_iterations": str(config.n_iterations),
        "schedule": ";".join(f"{r.eir!r}:{r.ecr!r}" for r in rates),
    }
    return SimTrajectory(log=_chain_log(state, rates, step, metadata, config.schedule.name), config=config)


def analytic_trajectory(schedule: RateSchedule, initial_accuracy: float, n_iterations: int) -> list[AccuracyPoint]:
    """Exact population accuracy under the schedule, no sampling noise."""
    acc = _check_real("initial_accuracy", initial_accuracy)
    rates = _resolved_rates(schedule, _check_int("n_iterations", n_iterations))
    points = [AccuracyPoint(iteration=0, accuracy=acc)]
    for t, r in enumerate(rates):
        nxt = step_accuracy(acc, r)
        points.append(AccuracyPoint(iteration=t + 1, accuracy=nxt, net_benefit=nxt - acc))
        acc = nxt
    return points


def deterministic_replay(schedule: RateSchedule, initial_accuracy: float, n_problems: int,
                         n_iterations: int | None = None) -> CorrectnessLog:
    """Integer-exact replay: each transition flips round(pool * rate) problems.

    No randomness at all; the spoiled answers are taken from the top of
    the correct pool and the fixed ones from the bottom of the incorrect
    pool. Useful for reconstructing published aggregate tables, whose
    counts are exactly these rounded pools.
    """
    k = _check_int("n_iterations", len(schedule) if n_iterations is None else n_iterations, 1)
    n_problems = _check_int("n_problems", n_problems, 1)
    acc = _check_real("initial_accuracy", initial_accuracy)
    rates = _resolved_rates(schedule, k)
    state = _initial_column(np.arange(n_problems), acc)

    def step(t, state, r):
        correct_idx = np.flatnonzero(state)
        incorrect_idx = np.flatnonzero(~state)
        n_spoil = int(round(len(correct_idx) * r.eir))
        n_fix = int(round(len(incorrect_idx) * r.ecr))
        state = state.copy()
        if n_spoil:
            state[correct_idx[-n_spoil:]] = False
        if n_fix:
            state[incorrect_idx[:n_fix]] = True
        return state

    metadata = {
        "builder": "deterministic-replay",
        "initial_accuracy": repr(acc),
        "n_problems": str(n_problems),
    }
    return _chain_log(state, rates, step, metadata, schedule.name)
