"""Population simulator, analytic trajectories, and deterministic replay.

The frozen trajectory below is the oracle for the gpt-4o-mini preset: the
exact recurrence values computed independently here with plain floats,
whose one-decimal roundings are 91.2, 90.0, 89.6, 86.6, 85.0.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from refineloop import simulate
from refineloop.dynamics import TransitionRates, closed_form_accuracy
from refineloop.logs import CorrectnessLog, _IdGrid
from refineloop.schedule import RateSchedule, ScheduleExhaustedError, preset, preset_baseline
from refineloop.simulate import (
    SimConfig,
    _initial_column,
    _problem_ids,
    analytic_trajectory,
    deterministic_replay,
    simulate_population,
)


def _recurrence(schedule, acc0, k):
    acc = acc0
    out = [acc]
    for t in range(k):
        r = schedule.rates_for(t)
        acc = acc * (1.0 - r.eir) + (1.0 - acc) * r.ecr
        out.append(acc)
    return out


def test_analytic_trajectory_gpt_4o_mini():
    points = analytic_trajectory(preset("gpt-4o-mini"), 0.912, 4)
    got = [p.accuracy for p in points]
    want = _recurrence(preset("gpt-4o-mini"), 0.912, 4)
    assert got == pytest.approx(want, abs=1e-15)
    # one-decimal prints of the percent values
    assert [round(a * 100.0, 1) for a in got] == [91.2, 90.0, 89.6, 86.6, 85.0]
    # four-decimal anchor for the exact values
    assert [round(a * 100.0, 4) for a in got] == [91.2, 90.0144, 89.6037, 86.5938, 84.9764]


def test_analytic_trajectory_o3_mini():
    points = analytic_trajectory(preset("o3-mini"), preset_baseline("o3-mini"), 4)
    assert [round(p.accuracy * 100.0, 1) for p in points] == [93.2, 96.2, 96.6, 96.6, 96.6]


def test_analytic_trajectory_net_benefit_chain():
    points = analytic_trajectory(preset("gpt-5"), 0.962, 4)
    assert points[0].net_benefit is None
    for prev, cur in zip(points, points[1:]):
        assert cur.net_benefit == pytest.approx(cur.accuracy - prev.accuracy, abs=1e-15)


def test_deterministic_replay_reproduces_published_counts():
    log = deterministic_replay(preset("gpt-4o-mini"), 0.912, 500)
    counts = [int(log.correctness[:, k].sum()) for k in range(5)]
    assert counts == [456, 450, 448, 433, 425]


def test_deterministic_replay_flip_counts_per_transition():
    log = deterministic_replay(preset("gpt-4o-mini"), 0.912, 500)
    flips = []
    for t in range(4):
        before, after = log.correctness[:, t], log.correctness[:, t + 1]
        flips.append((int((before & ~after).sum()), int((~before & after).sum())))
    # round(pool * rate) spoil/fix counts for each transition
    assert flips == [(6, 0), (4, 2), (17, 2), (9, 1)]


def test_initial_column_count_is_exact():
    for n, acc0 in ((500, 0.912), (1000, 0.9115), (7, 0.5), (3, 1.0)):
        config = SimConfig(
            n_problems=n,
            n_iterations=1,
            initial_accuracy=acc0,
            seed=11,
            schedule=RateSchedule.from_pairs([(0.1, 0.1)]),
        )
        traj = simulate_population(config)
        assert int(traj.log.correctness[:, 0].sum()) == round(n * acc0)


@given(
    keys=st.lists(st.integers(0, 4), min_size=1, max_size=60),  # few values: ties are frequent
    accuracy=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
)
def test_initial_column_is_the_stable_argsort_prefix(keys, accuracy):
    keys = np.array(keys)
    want = np.zeros(len(keys), dtype=bool)
    want[np.argsort(keys, kind="stable")[: round(len(keys) * accuracy)]] = True
    assert np.array_equal(_initial_column(keys, accuracy), want)


def test_simulation_is_bit_identical():
    config = SimConfig(
        n_problems=400,
        n_iterations=6,
        initial_accuracy=0.8,
        seed=123,
        schedule=RateSchedule.from_pairs([(0.05, 0.15)], stationary_tail=True),
    )
    a = simulate_population(config)
    b = simulate_population(config)
    assert np.array_equal(a.log.correctness, b.log.correctness)
    assert a.log.problem_ids == b.log.problem_ids
    assert a.log.metadata == b.log.metadata


def test_different_seeds_differ():
    base = dict(
        n_problems=400,
        n_iterations=3,
        initial_accuracy=0.8,
        schedule=RateSchedule.from_pairs([(0.05, 0.15)], stationary_tail=True),
    )
    a = simulate_population(SimConfig(seed=1, **base))
    b = simulate_population(SimConfig(seed=2, **base))
    assert not np.array_equal(a.log.correctness, b.log.correctness)


def test_metadata_echo():
    config = SimConfig(
        n_problems=10,
        n_iterations=2,
        initial_accuracy=0.5,
        seed=9,
        schedule=preset("o4-mini"),
    )
    meta = simulate_population(config).log.metadata
    assert meta["generator"] == "splitmix64-counter/v1"
    assert meta["seed"] == "9"
    assert meta["schedule_name"] == "o4-mini"
    assert meta["n_problems"] == "10"


def test_problem_ids_are_zero_padded_and_unique():
    config = SimConfig(
        n_problems=120,
        n_iterations=1,
        initial_accuracy=0.5,
        seed=0,
        schedule=RateSchedule.from_pairs([(0.1, 0.1)]),
    )
    ids = simulate_population(config).log.problem_ids
    assert ids[0] == "p000"
    assert ids[-1] == "p119"
    assert len(set(ids)) == 120


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 100, 101, 1000, 1001, 100001])
def test_problem_ids_match_the_nested_format_spec(n):
    width = len(str(n - 1))
    assert list(_problem_ids(n)) == [f"p{i:0{width}d}" for i in range(n)]


def test_built_logs_hold_plain_tuple_ids():
    config = SimConfig(n_problems=12, n_iterations=2, initial_accuracy=0.5, seed=3, schedule=preset("o4-mini"))
    for log in (simulate_population(config).log, deterministic_replay(preset("o4-mini"), 0.5, 12, n_iterations=2)):
        assert type(log.problem_ids) is tuple
        assert log.problem_ids == tuple(_problem_ids(12))


def test_distinct_ids_still_meet_the_row_count_check():
    assert type(_problem_ids(3)) is _IdGrid
    with pytest.raises(ValueError, match="3 problem ids for 2 matrix rows"):
        CorrectnessLog(problem_ids=_problem_ids(3), correctness=np.ones((2, 1), dtype=bool))


_UNDERSPECIFIED = {  # gpt-4o-mini has 4 transitions and no tail; each run asks for 5
    "simulate": lambda: simulate_population(SimConfig(
        n_problems=10, n_iterations=5, initial_accuracy=0.5, seed=0, schedule=preset("gpt-4o-mini"))),
    "replay": lambda: deterministic_replay(preset("gpt-4o-mini"), 0.5, 10, n_iterations=5),
    "analytic": lambda: analytic_trajectory(preset("gpt-4o-mini"), 0.5, 5),
}


def test_underspecified_schedule_fails_before_simulating():
    config = SimConfig(
        n_problems=10,
        n_iterations=5,
        initial_accuracy=0.5,
        seed=0,
        schedule=preset("gpt-4o-mini"),  # 4 transitions, no tail
    )
    with pytest.raises(ScheduleExhaustedError):
        simulate_population(config)


@pytest.mark.parametrize("site", sorted(_UNDERSPECIFIED))
def test_underspecified_schedule_refuses_before_any_step(site, monkeypatch):
    steps = []
    monkeypatch.setattr(simulate, "step_accuracy", lambda *args: steps.append(args) or 0.5)
    monkeypatch.setattr(simulate.rng, "uniforms", lambda *args, **kwargs: steps.append(args))
    with pytest.raises(ScheduleExhaustedError):
        _UNDERSPECIFIED[site]()
    assert steps == []  # neither an analytic step nor a draw came before the refusal


def test_unbiasedness_across_seeds():
    # mean accuracy over 200 seeds tracks the closed form within 4 standard
    # errors at every iteration (N=1000 per run)
    n, k, runs = 1000, 5, 200
    rates = TransitionRates(0.05, 0.15)
    schedule = RateSchedule.from_pairs([(rates.eir, rates.ecr)], stationary_tail=True)
    acc0 = 0.7
    sums = np.zeros(k + 1)
    for seed in range(runs):
        config = SimConfig(
            n_problems=n, n_iterations=k, initial_accuracy=acc0, seed=seed, schedule=schedule
        )
        log = simulate_population(config).log
        sums += log.correctness.sum(axis=0)
    means = sums / (runs * n)
    for it in range(k + 1):
        expect = closed_form_accuracy(it, rates, acc0)
        se = np.sqrt(max(expect * (1.0 - expect), 1e-9) / (runs * n))
        assert abs(means[it] - expect) < 4.0 * se


def test_replay_requires_transition():
    with pytest.raises(ValueError):
        deterministic_replay(preset("gpt-4o-mini"), 0.912, 500, n_iterations=0)


def test_config_validation():
    schedule = RateSchedule.from_pairs([(0.1, 0.1)])
    with pytest.raises(ValueError):
        SimConfig(n_problems=0, n_iterations=1, initial_accuracy=0.5, seed=0, schedule=schedule)
    with pytest.raises(ValueError):
        SimConfig(n_problems=5, n_iterations=0, initial_accuracy=0.5, seed=0, schedule=schedule)
    with pytest.raises(ValueError):
        SimConfig(n_problems=5, n_iterations=1, initial_accuracy=1.5, seed=0, schedule=schedule)
    with pytest.raises(ValueError):
        SimConfig(n_problems=5, n_iterations=1, initial_accuracy=0.5, seed=-1, schedule=schedule)
    with pytest.raises(ValueError):
        SimConfig(n_problems=5, n_iterations=1, initial_accuracy=0.5, seed=0, schedule="nope")
    config = SimConfig(n_problems=5, n_iterations=1, initial_accuracy=np.float32(0.5), seed=np.uint64(3),
                       schedule=schedule)
    assert (config.initial_accuracy, config.seed) == (0.5, 3)
    assert (type(config.initial_accuracy), type(config.seed)) == (float, int)
