"""Rate estimation: exact counting identities and interval behavior."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refineloop.logs import CorrectnessLog
from refineloop.estimate import (
    accuracy_series,
    estimate_rates,
    pooled_rates,
    transition_counts,
    wilson_interval,
)
from refineloop.report import build_report, diagnose_runs
from refineloop.schedule import RateSchedule, preset
from refineloop.simulate import SimConfig, deterministic_replay, simulate_population

scipy_stats = pytest.importorskip("scipy.stats")


def _log_from_bits(rows):
    return CorrectnessLog(
        problem_ids=[f"p{i}" for i in range(len(rows))],
        correctness=np.array(rows, dtype=bool),
    )


def test_transition_counts_by_hand():
    log = _log_from_bits([[1, 1], [1, 0], [0, 1], [0, 0], [1, 1]])
    assert transition_counts(log.correctness).tolist() == [[2, 1, 1, 1]]
    counts = estimate_rates(log).per_transition[0].counts
    assert (counts.n_cc, counts.n_ci, counts.n_ic, counts.n_ii) == (2, 1, 1, 1)
    assert counts.n_correct_before == 3
    assert counts.n_incorrect_before == 2
    assert counts.total == 5


@pytest.mark.parametrize("bad", [2, 0.5, -1, np.nan])
def test_transition_counts_refuses_entries_other_than_0_and_1(bad):
    # a bool cast would read each of these as "correct"
    with pytest.raises(ValueError, match=re.escape("correctness entries must be 0/1")):
        transition_counts(np.array([[1, 0], [0, bad]]))
    assert transition_counts(np.array([[1, 0], [0, 1.0]])).tolist() == [[0, 1, 1, 0]]


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
def test_transition_counts_refuses_input_that_is_not_2d(shape):
    with pytest.raises(ValueError, match=re.escape(f"correctness must be a 2-d matrix, got shape {shape}")):
        transition_counts(np.ones(shape, dtype=bool))


@given(arrays(bool, st.tuples(st.integers(1, 40), st.integers(2, 7))))
@example(np.array([[True, False]]))
@example(np.array([[False, False]]))
@settings(max_examples=200)
def test_transition_counts_match_naive_masks(matrix):
    naive = [
        [int(np.count_nonzero(mask)) for mask in (b & a, b & ~a, ~b & a, ~b & ~a)]
        for b, a in zip(matrix[:, :-1].T, matrix[:, 1:].T)
    ]
    table = transition_counts(matrix)
    assert table.shape == (matrix.shape[1] - 1, 4)
    assert table.tolist() == naive
    n_cc, n_ci, n_ic, n_ii = np.sum(naive, axis=0).tolist()
    eir = n_ci / (n_cc + n_ci) if n_cc + n_ci else None
    ecr = n_ic / (n_ic + n_ii) if n_ic + n_ii else None
    pooled = pooled_rates(table)
    assert pooled == (eir, ecr)
    # plain floats: a numpy scalar would change every repr'd artifact cell
    assert all(rate is None or type(rate) is float for rate in pooled)


def test_rates_on_replay_log():
    log = deterministic_replay(preset("gpt-4o-mini"), 0.912, 500)
    est = estimate_rates(log)
    # transition 0: 6 of 456 spoiled, 0 of 44 fixed
    assert est.per_transition[0].eir == pytest.approx(6 / 456)
    assert est.per_transition[0].ecr == 0.0
    # count-pooled: 36 introductions over 1787 correct-slots
    assert est.pooled_eir == pytest.approx(36 / 1787)
    assert est.pooled_ecr == pytest.approx(5 / 213)
    assert round(est.pooled_eir * 100, 2) == 2.01


def test_accounting_identity_exact():
    # Acc(k+1) * N == n_cc + n_ic, on every transition of a simulated log
    config = SimConfig(
        n_problems=777,
        n_iterations=6,
        initial_accuracy=0.63,
        seed=5,
        schedule=RateSchedule.from_pairs([(0.07, 0.21)], stationary_tail=True),
    )
    log = simulate_population(config).log
    series = accuracy_series(log)
    for t, row in enumerate(transition_counts(log.correctness).tolist()):
        n_cc, n_ci, n_ic, _ = row
        # the identity holds on integer counts, so both sides are the same
        # exact division and compare bitwise equal
        assert series[t + 1].accuracy == (n_cc + n_ic) / log.n_problems
        assert int(series[t + 1].accuracy * log.n_problems + 0.5) == n_cc + n_ic
        # net benefit identity: NB(k+1) == (n_ic - n_ci) / N exactly
        assert series[t + 1].net_benefit == (n_ic - n_ci) / log.n_problems


def test_undefined_rates_flagged_not_zero():
    # second column all correct: the incorrect pool for transition 1 is empty
    log = _log_from_bits([[1, 1, 1], [0, 1, 1], [1, 1, 0]])
    est = estimate_rates(log)
    assert est.per_transition[1].ecr is None
    assert est.per_transition[1].ecr_interval is None
    assert est.per_transition[1].eir == pytest.approx(1 / 3)
    # pooled ecr still defined: transition 0 had an incorrect pool
    assert est.pooled_ecr == pytest.approx(1 / 1)


def test_all_correct_log_has_undefined_ecr_everywhere():
    log = _log_from_bits([[1, 1], [1, 1]])
    est = estimate_rates(log)
    assert est.pooled_ecr is None
    assert est.per_transition[0].ecr is None
    assert est.pooled_eir == 0.0


def test_running_pooled_rates_prefixes():
    log = deterministic_replay(preset("gpt-4o-mini"), 0.912, 500)
    table = transition_counts(log.correctness)
    assert len(table) == 4
    eir0, ecr0 = pooled_rates(table[:1])
    assert eir0 == pytest.approx(6 / 456)
    assert ecr0 == 0.0
    eir3, ecr3 = pooled_rates(table[:4])
    assert eir3 == pytest.approx(36 / 1787)
    assert ecr3 == pytest.approx(5 / 213)


def test_pooling_is_count_weighted():
    config = SimConfig(
        n_problems=300,
        n_iterations=4,
        initial_accuracy=0.7,
        seed=21,
        schedule=RateSchedule.from_pairs([(0.1, 0.2)], stationary_tail=True),
    )
    log = simulate_population(config).log
    est = estimate_rates(log)
    num = sum(item.counts.n_ci for item in est.per_transition)
    den = sum(item.counts.n_correct_before for item in est.per_transition)
    assert est.pooled_eir == num / den


# -- Wilson interval -----------------------------------------------------------


def test_wilson_against_closed_form_oracle():
    # independent recomputation with scipy's normal quantile
    z = float(scipy_stats.norm.ppf(0.975))
    for successes, trials in ((0, 456), (6, 456), (17, 448), (50, 50), (1, 3)):
        lo, hi = wilson_interval(successes, trials)
        phat = successes / trials
        denom = 1 + z * z / trials
        center = (phat + z * z / (2 * trials)) / denom
        half = z / denom * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2))
        assert lo == pytest.approx(max(0.0, center - half), abs=1e-12)
        assert hi == pytest.approx(min(1.0, center + half), abs=1e-12)


def test_wilson_frozen_zero_numerator():
    lo, hi = wilson_interval(0, 456)
    assert lo == 0.0
    assert hi == pytest.approx(0.008353876639452865, rel=1e-12)


def test_wilson_degenerate_and_bounds():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(5, 5)
    assert hi == 1.0
    assert 0.0 < lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(3, 2)
    with pytest.raises(ValueError):
        wilson_interval(-1, 2)
    with pytest.raises(ValueError):
        wilson_interval(1, 2, confidence=1.0)
    for bad in (None, "0.9", float("nan"), True, np.bool_(True), 0):
        with pytest.raises(ValueError, match=re.escape(f"confidence must be a number in (0, 1), got {bad!r}")):
            wilson_interval(1, 3, confidence=bad)
    assert wilson_interval(1, 3, np.float32(0.9)) == wilson_interval(1, 3, float(np.float32(0.9)))


def test_estimate_rates_checks_confidence_without_a_transition():
    log = _log_from_bits([[1], [0]])  # one column: no transition, so no wilson_interval call
    for bad in ("x", float("nan"), True, 2.0):
        for estimate in (estimate_rates, diagnose_runs, build_report):
            with pytest.raises(ValueError, match=re.escape(f"confidence must be a number in (0, 1), got {bad!r}")):
                estimate(log if estimate is estimate_rates else {"run": log}, confidence=bad)


@given(
    successes=st.integers(0, 200),
    trials=st.integers(1, 200),
)
@settings(max_examples=200)
def test_wilson_contains_point_estimate(successes, trials):
    if successes > trials:
        successes = trials
    lo, hi = wilson_interval(successes, trials)
    assert lo <= successes / trials <= hi
    assert 0.0 <= lo <= hi <= 1.0


def test_wilson_width_shrinks_with_trials():
    widths = []
    for trials in (10, 40, 160, 640, 2560):
        successes = trials // 4
        lo, hi = wilson_interval(successes, trials)
        widths.append(hi - lo)
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_simulated_rates_inside_99_percent_intervals():
    # fixed seed documented here: 2718 gives full coverage on all four
    # transitions; the coverage *rate* across many seeds is checked in the
    # acceptance suite
    config = SimConfig(
        n_problems=10_000,
        n_iterations=4,
        initial_accuracy=0.7,
        seed=2718,
        schedule=RateSchedule.from_pairs([(0.05, 0.15)], stationary_tail=True),
    )
    log = simulate_population(config).log
    est = estimate_rates(log, confidence=0.99)
    for item in est.per_transition:
        lo, hi = item.eir_interval
        assert lo <= 0.05 <= hi
        lo, hi = item.ecr_interval
        assert lo <= 0.15 <= hi


def _layouts(matrix):
    """``matrix`` as C, Fortran-order, non-contiguous, read-only and int 0/1 arrays."""
    wide = np.repeat(matrix, 2, axis=1)
    frozen = matrix.copy()
    frozen.flags.writeable = False
    return {"c": matrix, "fortran": np.asfortranarray(matrix), "strided": wide[:, ::2], "read-only": frozen,
            "int": matrix.astype(np.int64)}


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (5, 1), (5, 2), (37, 6)])
def test_column_counts_match_naive_masks_on_any_layout(shape):
    matrix = np.random.default_rng(sum(shape)).random(shape) < 0.6
    naive = [
        [int(np.count_nonzero(mask)) for mask in (b & a, b & ~a, ~b & a, ~b & ~a)]
        for b, a in zip(matrix[:, :-1].T, matrix[:, 1:].T)
    ]
    correct = matrix.sum(axis=0).tolist()
    for name, layout in _layouts(matrix).items():
        table = transition_counts(layout)
        assert table.shape == (shape[1] - 1, 4) and table.tolist() == naive, name
        series = accuracy_series(CorrectnessLog(problem_ids=[f"p{i}" for i in range(shape[0])], correctness=layout))
        # plain floats: a numpy scalar would change every repr'd artifact cell
        assert [type(point.accuracy) for point in series] == [float] * shape[1], name
        assert [point.accuracy for point in series] == [c / shape[0] for c in correct], name
        assert [point.net_benefit for point in series[1:]] == [
            (b - a) / shape[0] for a, b in zip(correct, correct[1:])], name
