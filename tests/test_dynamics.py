"""Closed-form dynamics: frozen anchor values and algebraic properties."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refineloop import rng
from refineloop.asc import AscConfig
from refineloop.baselines import (
    CorrelatedSampleModel,
    fit_common_cause_weight,
    mixture_sc_accuracy,
    simulate_self_consistency,
    theoretical_sc_accuracy,
)
from refineloop.dynamics import (
    EQUILIBRIUM_TOLERANCE,
    TransitionRates,
    Verdict,
    closed_form_accuracy,
    equilibrium_ratio,
    net_benefit,
    rate_ratio,
    steady_state,
    step_accuracy,
    stop_or_iterate,
    verdict_from_counts,
)
from refineloop.estimate import wilson_interval
from refineloop.schedule import RateSchedule
from refineloop.simulate import SimConfig, analytic_trajectory, deterministic_replay, simulate_population
from refineloop.stats import chi_square_survival, mcnemar, paired_bootstrap_delta

probabilities = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


# -- frozen anchors ------------------------------------------------------------


def test_step_accuracy_anchor():
    # 0.912 * 0.987 + 0.088 * 0.0
    assert step_accuracy(0.912, TransitionRates(0.013, 0.0)) == pytest.approx(0.900144, abs=1e-12)


def test_equilibrium_ratio_anchors():
    assert equilibrium_ratio(0.5) == 1.0
    assert equilibrium_ratio(0.0) == 0.0
    assert equilibrium_ratio(1.0) == math.inf
    assert equilibrium_ratio(0.896) == pytest.approx(8.615384615384615, rel=1e-12)
    assert equilibrium_ratio(0.976) == pytest.approx(40.666666666666664, rel=1e-12)


def test_rate_ratio_extended_reals():
    assert rate_ratio(TransitionRates(0.002, 0.25)) == 125.0
    assert rate_ratio(TransitionRates(0.0, 0.1)) == math.inf
    assert math.isnan(rate_ratio(TransitionRates(0.0, 0.0)))
    assert rate_ratio(TransitionRates(0.1, 0.0)) == 0.0


def test_stop_or_iterate_anchor_iterate():
    verdict = stop_or_iterate(0.976, TransitionRates(eir=0.002, ecr=0.25))
    assert verdict.verdict is Verdict.ITERATE
    assert verdict.rate_ratio == 125.0
    assert verdict.accuracy_odds == pytest.approx(40.666666666666664, rel=1e-12)
    assert verdict.net_benefit > 0


def test_stop_or_iterate_anchor_stop():
    verdict = stop_or_iterate(0.912, TransitionRates(eir=0.013, ecr=0.0))
    assert verdict.verdict is Verdict.STOP
    assert verdict.net_benefit == pytest.approx(-0.011856, abs=1e-12)


def test_absorbing_pair_is_at_equilibrium():
    verdict = stop_or_iterate(0.7, TransitionRates(0.0, 0.0))
    assert verdict.verdict is Verdict.AT_EQUILIBRIUM
    assert verdict.net_benefit == 0.0
    assert math.isnan(verdict.rate_ratio)


def test_stationary_point_is_at_equilibrium():
    # acc equal to ecr/(eir+ecr) zeroes the net benefit
    verdict = stop_or_iterate(0.75, TransitionRates(0.05, 0.15))
    assert verdict.verdict is Verdict.AT_EQUILIBRIUM


def test_verdict_from_counts_anchors():
    assert verdict_from_counts(472, 9, 2, 17) is Verdict.STOP  # gpt-5's first pass: 9 broken, 2 fixed
    assert verdict_from_counts(466, 0, 15, 19) is Verdict.ITERATE  # o3-mini's: none broken, 15 fixed
    assert verdict_from_counts(483, 1, 1, 15) is Verdict.AT_EQUILIBRIUM  # o4-mini's: one of each
    assert verdict_from_counts(0, 0, 3, 4) is None  # no correct answer to break
    assert verdict_from_counts(5, 1, 0, 0) is None  # no incorrect answer to fix


def test_steady_state_values():
    summary = steady_state(TransitionRates(0.05, 0.15))
    assert summary.accuracy == pytest.approx(0.75, abs=1e-15)
    assert summary.eigenvalue == pytest.approx(0.8, abs=1e-15)
    assert not summary.absorbing

    frozen = steady_state(TransitionRates(0.0, 0.0))
    assert math.isnan(frozen.accuracy)
    assert frozen.eigenvalue == 1.0
    assert frozen.absorbing


def test_subdominant_eigenvalue():
    assert steady_state(TransitionRates(0.05, 0.15)).eigenvalue == pytest.approx(0.8)
    assert steady_state(TransitionRates(1.0, 1.0)).eigenvalue == pytest.approx(-1.0)
    assert steady_state(TransitionRates(0.0, 0.0)).eigenvalue == 1.0


def test_closed_form_iteration_zero_is_exact():
    assert closed_form_accuracy(0, TransitionRates(0.3, 0.4), 0.123456789) == 0.123456789


def test_closed_form_absorbing_never_moves():
    for k in (1, 5, 50):
        assert closed_form_accuracy(k, TransitionRates(0.0, 0.0), 0.37) == 0.37


def test_input_validation():
    with pytest.raises(ValueError):
        TransitionRates(-0.1, 0.5)
    with pytest.raises(ValueError):
        TransitionRates(0.1, 1.5)
    with pytest.raises(ValueError):
        step_accuracy(1.2, TransitionRates(0.1, 0.1))
    with pytest.raises(ValueError):
        closed_form_accuracy(-1, TransitionRates(0.1, 0.1), 0.5)
    with pytest.raises(ValueError):
        closed_form_accuracy(2.0, TransitionRates(0.1, 0.1), 0.5)
    with pytest.raises(ValueError, match="eir must be a number in"):
        TransitionRates("0.1", 0.2)


# -- count arguments -----------------------------------------------------------

_TAIL = RateSchedule.from_pairs([(0.1, 0.2)], stationary_tail=True)
_COL = np.array([True, False, True])
# every count argument of the package, called with the count n
_COUNT_SITES = {
    "asc-max-iterations": lambda n: AscConfig(max_iterations=n),
    "vote-k": lambda n: theoretical_sc_accuracy(0.7, n),
    "model-k": lambda n: CorrelatedSampleModel(0.7, 0.1, n),
    "vote-n-problems": lambda n: simulate_self_consistency(CorrelatedSampleModel(0.7, 0.1, 3), n, seed=1),
    "closed-form-k": lambda n: closed_form_accuracy(n, TransitionRates(0.1, 0.2), 0.5),
    "rates-for": lambda n: _TAIL.rates_for(n),
    "sim-n-problems": lambda n: simulate_population(SimConfig(n, 2, 0.5, 1, _TAIL)).log.correctness,
    "sim-n-iterations": lambda n: simulate_population(SimConfig(4, n, 0.5, 1, _TAIL)).log.correctness,
    "replay-n-iterations": lambda n: deterministic_replay(_TAIL, 0.5, 4, n_iterations=n).correctness,
    "replay-n-problems": lambda n: deterministic_replay(_TAIL, 0.5, n, n_iterations=2).correctness,
    "analytic-n-iterations": lambda n: analytic_trajectory(_TAIL, 0.5, n),
    "mcnemar-b": lambda n: mcnemar(n, 2),
    "mcnemar-c": lambda n: mcnemar(2, n),
    "bootstrap-resamples": lambda n: paired_bootstrap_delta(_COL, ~_COL, resamples=n),
    "wilson-successes": lambda n: wilson_interval(n, 5),
    "wilson-trials": lambda n: wilson_interval(1, n),
    "verdict-n-cc": lambda n: verdict_from_counts(n, 2, 1, 1),
    "verdict-n-ci": lambda n: verdict_from_counts(2, n, 1, 1),
    "verdict-n-ic": lambda n: verdict_from_counts(2, 1, n, 1),
    "verdict-n-ii": lambda n: verdict_from_counts(2, 1, 1, n),
}
_POSITIVE = {"asc-max-iterations", "vote-k", "model-k", "vote-n-problems", "sim-n-problems",
             "sim-n-iterations", "replay-n-iterations", "replay-n-problems", "bootstrap-resamples"}


@pytest.mark.parametrize("site", sorted(_COUNT_SITES))
def test_counts_refuse_bools_floats_and_negatives(site):
    rule = "positive" if site in _POSITIVE else "non-negative"
    for bad in (True, False, np.bool_(True), 2.5, 3.0, np.float64(3.0), "3", -3, np.int64(-3)):
        with pytest.raises(ValueError, match=re.escape(f"must be a {rule} int, got {bad!r}")):
            _COUNT_SITES[site](bad)


@pytest.mark.parametrize("site", sorted(_COUNT_SITES))
def test_counts_accept_numpy_integers(site):
    want = _COUNT_SITES[site](3)
    for n in (np.int64(3), np.uint8(3), np.int32(3)):
        got = _COUNT_SITES[site](n)
        assert got == want if not isinstance(want, np.ndarray) else np.array_equal(got, want)


def test_positive_counts_refuse_zero():
    for site in _POSITIVE:
        with pytest.raises(ValueError, match="must be a positive int, got 0"):
            _COUNT_SITES[site](0)


# -- probability and seed arguments --------------------------------------------

_RATES = TransitionRates(0.1, 0.2)


def _log_state(log):
    return log.correctness.tobytes(), log.metadata, tuple(log.problem_ids)


# every probability argument of the package: the name its message gives, and a call with the probability x
_PROBABILITY_SITES = {
    "eir": ("eir", lambda x: TransitionRates(x, 0.2)),
    "ecr": ("ecr", lambda x: TransitionRates(0.1, x)),
    "step-accuracy": ("accuracy", lambda x: step_accuracy(x, _RATES)),
    "net-benefit": ("accuracy", lambda x: net_benefit(x, _RATES)),
    "equilibrium-ratio": ("accuracy", equilibrium_ratio),
    "stop-or-iterate": ("accuracy", lambda x: stop_or_iterate(x, _RATES)),
    "closed-form": ("initial_accuracy", lambda x: closed_form_accuracy(3, _RATES, x)),
    "sim": ("initial_accuracy", lambda x: _log_state(simulate_population(SimConfig(9, 2, x, 1, _TAIL)).log)),
    "analytic": ("initial_accuracy", lambda x: analytic_trajectory(_TAIL, x, 2)),
    "replay": ("initial_accuracy", lambda x: _log_state(deterministic_replay(_TAIL, x, 9, 2))),
    "vote-p": ("p", lambda x: theoretical_sc_accuracy(x, 3)),
    "model-p": ("p", lambda x: CorrelatedSampleModel(x, 0.1, 3)),
    "model-rho": ("rho", lambda x: CorrelatedSampleModel(0.7, x, 3)),
    "vote-sim-p": ("p", lambda x: simulate_self_consistency(CorrelatedSampleModel(x, 0.1, 3), 50, 1)),
    "mixture-p": ("p", lambda x: mixture_sc_accuracy(x, 0.1, 3)),
    "mixture-rho": ("rho", lambda x: mixture_sc_accuracy(0.7, x, 3)),
    "fit-p": ("p", lambda x: fit_common_cause_weight(x, 3, 0.75)),
    "fit-target": ("target_accuracy", lambda x: fit_common_cause_weight(0.7, 3, x)),
}
# the fit has an attainable range narrower than [0, 1]; the bounds are tested in test_baselines
_RANGE_LIMITED = {"fit-p", "fit-target"}


@pytest.mark.parametrize("site", sorted(_PROBABILITY_SITES))
def test_probabilities_refuse_bools_non_numbers_nan_and_out_of_range(site):
    name, call = _PROBABILITY_SITES[site]
    for bad in (True, False, np.bool_(False), "0.5", None, math.nan, np.float64("nan"),
                -0.1, 1.5, math.inf, np.float32(1.5), np.int64(2), np.int8(-1)):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number in [0, 1], got {bad!r}")):
            call(bad)


@pytest.mark.parametrize("site", sorted(set(_PROBABILITY_SITES) - _RANGE_LIMITED))
def test_probabilities_accept_numpy_and_python_reals(site):
    call = _PROBABILITY_SITES[site][1]
    for x in (np.float32(0.3), np.float16(0.6), np.float64(0.7), np.int64(0), np.uint8(1), Fraction(1, 3)):
        want, got = call(float(x)), call(x)
        assert got == want and type(got) is type(want), (x, got, want)


def test_range_limited_probabilities_accept_numpy_reals():
    want = fit_common_cause_weight(float(np.float32(0.7)), 3, 0.75)
    assert fit_common_cause_weight(np.float32(0.7), 3, np.float16(0.75)) == want


def test_reals_past_the_float_range_are_refused_not_overflowed():
    # [0, inf] lets in an int of any size, and float() of one past 1.8e308 overflows
    for bad in (10**400, -(10**400), 2**1024, Fraction(10**400)):
        with pytest.raises(ValueError, match=re.escape(f"statistic must be a number in [0, inf], got {bad!r}")):
            chi_square_survival(bad)
    assert chi_square_survival(10**308) == 0.0  # an int the float range holds still converts


def _sim_with_seed(seed):
    trajectory = simulate_population(SimConfig(9, 2, 0.5, seed, _TAIL))
    return _log_state(trajectory.log), type(trajectory.config.seed)


def _bootstrap_with_seed(seed):
    col = np.array([True, False, True, True, False, False, True, False])
    delta = paired_bootstrap_delta(col, col[::-1], resamples=40, seed=seed)
    return delta, type(delta.seed)


# every seed argument of the package, called with the seed s; a kept seed is an int
_SEED_SITES = {
    "uniforms": lambda s: rng.uniforms(s, 3, np.arange(6)).tobytes(),
    "sim": _sim_with_seed,
    "vote": lambda s: simulate_self_consistency(CorrelatedSampleModel(0.7, 0.1, 3), 50, s),
    "bootstrap": _bootstrap_with_seed,
}


@pytest.mark.parametrize("site", sorted(_SEED_SITES))
def test_seeds_accept_numpy_integers_with_identical_results(site):
    want = _SEED_SITES[site](7)
    for s in (np.int64(7), np.uint64(7), np.uint8(7)):
        assert _SEED_SITES[site](s) == want


def test_seeds_refuse_bools_floats_and_out_of_range():
    for bad in (True, np.bool_(True), 7.0, np.float64(7.0), "7", -1, np.int64(-1)):
        for site in _SEED_SITES:
            with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative int, got {bad!r}")):
                _SEED_SITES[site](bad)
    for site in _SEED_SITES:
        with pytest.raises(ValueError, match=re.escape("seed must be in [0, 2**64), got 18446744073709551616")):
            _SEED_SITES[site](1 << 64)


# -- matrix-power oracle -------------------------------------------------------


def _matrix_power_accuracy(k: int, eir: float, ecr: float, acc0: float) -> float:
    """Independent oracle: (acc, 1-acc) times the k-th matrix power."""
    T = np.array([[1.0 - eir, eir], [ecr, 1.0 - ecr]])
    row = np.array([acc0, 1.0 - acc0]) @ np.linalg.matrix_power(T, k)
    return float(row[0])


def test_matrix_power_oracle_random_tuples():
    gen = np.random.default_rng(20240815)
    for _ in range(1000):
        eir, ecr, acc0 = gen.random(3)
        k = int(gen.integers(0, 65))
        want = _matrix_power_accuracy(k, eir, ecr, acc0)
        got = closed_form_accuracy(k, TransitionRates(eir, ecr), acc0)
        assert abs(got - want) <= 1e-12


# -- algebraic properties ------------------------------------------------------


@given(eir=probabilities, ecr=probabilities, acc0=probabilities, k=st.integers(0, 64))
@settings(max_examples=300)
def test_closed_form_matches_recurrence(eir, ecr, acc0, k):
    rates = TransitionRates(eir, ecr)
    acc = acc0
    for _ in range(k):
        acc = step_accuracy(acc, rates)
    assert abs(closed_form_accuracy(k, rates, acc0) - acc) <= 1e-12


@given(eir=probabilities, ecr=probabilities)
def test_matrix_rows_sum_to_one_exactly(eir, ecr):
    matrix = TransitionRates(eir, ecr).matrix()
    assert matrix[0][0] + matrix[0][1] == 1.0
    assert matrix[1][0] + matrix[1][1] == 1.0


@given(
    eir=st.floats(1e-6, 1.0, allow_nan=False),
    ecr=probabilities,
    acc=st.floats(0.0, 1.0 - 1e-9, allow_nan=False),
)
def test_verdict_agrees_with_net_benefit_sign(eir, ecr, acc):
    rates = TransitionRates(eir, ecr)
    nb = net_benefit(acc, rates)
    verdict = stop_or_iterate(acc, rates).verdict
    if nb > EQUILIBRIUM_TOLERANCE:
        assert verdict is Verdict.ITERATE
    elif nb < -EQUILIBRIUM_TOLERANCE:
        assert verdict is Verdict.STOP
    else:
        assert verdict is Verdict.AT_EQUILIBRIUM


@given(eir=st.floats(1e-9, 1.0), ecr=st.floats(1e-9, 1.0))
def test_steady_state_is_fixed_point(eir, ecr):
    rates = TransitionRates(eir, ecr)
    pi = steady_state(rates).accuracy
    assert abs(step_accuracy(pi, rates) - pi) <= 1e-12


@given(acc=st.floats(1e-5, 1.0 - 1e-5, allow_nan=False))
def test_equilibrium_ratio_reciprocal_symmetry(acc):
    # near the endpoints the rounding of 1 - acc alone moves the product
    # by ~eps/min(acc, 1 - acc), so the domain stays away from them
    product = equilibrium_ratio(acc) * equilibrium_ratio(1.0 - acc)
    assert product == pytest.approx(1.0, rel=1e-9)


def test_equilibrium_ratio_strictly_increasing_on_grid():
    grid = np.linspace(0.0, 0.999, 400)
    values = [equilibrium_ratio(float(a)) for a in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


@given(
    eir=st.floats(1e-4, 0.9),
    ecr=st.floats(1e-4, 0.9),
    acc0=probabilities,
)
@settings(max_examples=200)
def test_distance_to_steady_state_shrinks_geometrically(eir, ecr, acc0):
    rates = TransitionRates(eir, ecr)
    summary = steady_state(rates)
    lam = abs(summary.eigenvalue)
    gap = abs(acc0 - summary.accuracy)
    acc = acc0
    for _ in range(8):
        acc = step_accuracy(acc, rates)
        new_gap = abs(acc - summary.accuracy)
        # geometric with ratio |lambda|, allowing float slack near zero
        assert new_gap <= lam * gap + 1e-12
        gap = new_gap
