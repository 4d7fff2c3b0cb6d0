"""Majority-vote baseline: enumeration oracle, mixture model, rho fitting."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refineloop.baselines import (
    CorrelatedSampleModel,
    fit_common_cause_weight,
    majority_vote,
    mixture_sc_accuracy,
    simulate_self_consistency,
    theoretical_sc_accuracy,
)


def _brute_force_vote_accuracy(p: float, k: int) -> float:
    """Enumerate all 2^k correctness patterns; no binomial shortcut."""
    total = 0.0
    for bits in product((0, 1), repeat=k):
        prob = 1.0
        for bit in bits:
            prob *= p if bit else (1.0 - p)
        if sum(bits) > k / 2:
            total += prob
    return total


# -- majority vote -------------------------------------------------------------


def test_majority_vote_plain():
    out = majority_vote(["a", "b", "a"])
    assert out.chosen == "a"
    assert out.counts == {"a": 2, "b": 1}
    assert not out.tie_broken


def test_majority_vote_tie_breaks_to_first_seen():
    out = majority_vote(["x", "y"])
    assert out.chosen == "x"
    assert out.tie_broken
    out = majority_vote(["y", "x", "x", "y"])
    assert out.chosen == "y"
    assert out.tie_broken


def test_majority_vote_rejects_empty():
    with pytest.raises(ValueError):
        majority_vote([])


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=9))
def test_majority_vote_chooses_a_maximal_answer(answers):
    out = majority_vote(answers)
    top = max(out.counts.values())
    assert out.counts[out.chosen] == top
    assert out.tie_broken == (sum(1 for v in out.counts.values() if v == top) > 1)


# -- closed forms --------------------------------------------------------------


def test_theoretical_matches_enumeration_oracle():
    for k in (1, 3, 5, 7):
        for p in (0.0, 0.1, 0.5, 0.7, 0.912, 1.0):
            want = _brute_force_vote_accuracy(p, k)
            assert theoretical_sc_accuracy(p, k) == pytest.approx(want, abs=1e-14)


def test_theoretical_frozen_values():
    assert theoretical_sc_accuracy(0.912, 3) == pytest.approx(0.978130944, abs=1e-15)
    assert theoretical_sc_accuracy(0.9, 5) == pytest.approx(0.99144, abs=1e-12)


@given(p=st.floats(0.0, 1.0, allow_nan=False))
def test_single_sample_is_identity(p):
    assert theoretical_sc_accuracy(p, 1) == pytest.approx(p, abs=1e-15)


def test_strictly_increasing_in_p():
    grid = np.linspace(0.01, 0.99, 60)
    values = [theoretical_sc_accuracy(float(p), 3) for p in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_amplification_in_k():
    # above one half more samples help, below they hurt
    for p in (0.6, 0.75, 0.912):
        acc = [theoretical_sc_accuracy(p, k) for k in (1, 3, 5, 7)]
        assert all(b > a for a, b in zip(acc, acc[1:]))
    for p in (0.1, 0.4):
        acc = [theoretical_sc_accuracy(p, k) for k in (1, 3, 5, 7)]
        assert all(b < a for a, b in zip(acc, acc[1:]))


def test_even_or_bad_k_rejected():
    for bad in (0, 2, 4, -3, 3.0, True):
        with pytest.raises(ValueError):
            theoretical_sc_accuracy(0.9, bad)


# -- mixture model -------------------------------------------------------------


def test_mixture_endpoints():
    assert mixture_sc_accuracy(0.912, 0.0, 3) == theoretical_sc_accuracy(0.912, 3)
    assert mixture_sc_accuracy(0.912, 1.0, 3) == pytest.approx(0.912, abs=1e-15)


@given(rho=st.floats(0.0, 1.0, allow_nan=False))
def test_mixture_is_linear_in_rho(rho):
    p, k = 0.8, 5
    iid = theoretical_sc_accuracy(p, k)
    assert mixture_sc_accuracy(p, rho, k) == pytest.approx(rho * p + (1 - rho) * iid, abs=1e-15)


def test_mixture_monotone_nonincreasing_for_good_p():
    grid = np.linspace(0.0, 1.0, 30)
    values = [mixture_sc_accuracy(0.75, float(r), 5) for r in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))


# -- fitting -------------------------------------------------------------------


def test_fit_round_trip():
    rho = fit_common_cause_weight(0.912, 3, 0.934)
    assert 0.0 < rho < 1.0
    assert rho == pytest.approx(0.667326690512689, abs=1e-9)
    assert mixture_sc_accuracy(0.912, rho, 3) == pytest.approx(0.934, abs=1e-9)


@given(target=st.floats(0.76, 0.98))
@settings(max_examples=60)
def test_fit_inverts_mixture(target):
    p, k = 0.75, 5
    lo = min(p, theoretical_sc_accuracy(p, k))
    hi = max(p, theoretical_sc_accuracy(p, k))
    if not lo <= target <= hi:
        return
    rho = fit_common_cause_weight(p, k, target)
    assert mixture_sc_accuracy(p, rho, k) == pytest.approx(target, abs=1e-9)


def test_fit_below_one_half_orientation():
    # for p < 1/2 voting hurts, so accuracy increases with rho
    p, k = 0.3, 3
    iid = theoretical_sc_accuracy(p, k)
    assert iid < p
    rho = fit_common_cause_weight(p, k, (p + iid) / 2.0)
    assert mixture_sc_accuracy(p, rho, k) == pytest.approx((p + iid) / 2.0, abs=1e-9)


@pytest.mark.parametrize(
    "p,k,target,rho",
    [
        (0.912, 3, 0.978130944, 0.0),  # the i.i.d. accuracy
        (0.912, 3, 0.912, 1.0),  # p itself
        (0.7, 1, 0.7, 0.0),  # one sample: the i.i.d. accuracy is p, and every rho attains it
        (0.5, 3, 0.5, 0.0),  # p = 1/2: likewise
        (0.912, 3, 0.934, 0.6673266905122546),  # inside the range: the bisection's bits
    ],
)
def test_fit_at_the_ends_of_the_range_is_exact(p, k, target, rho):
    assert fit_common_cause_weight(p, k, target) == rho


def test_iid_accuracy_is_capped_at_one_and_its_fit_is_rho_zero():
    # the float binomial sum rounds to 1 + 4e-16 here; the fit must accept its own i.i.d. end
    iid = theoretical_sc_accuracy(0.6275, 1029)
    assert iid <= 1.0
    assert fit_common_cause_weight(0.6275, 1029, iid) == 0.0


def test_fit_rejects_unattainable_target():
    with pytest.raises(ValueError, match="attainable"):
        fit_common_cause_weight(0.912, 3, 0.99)
    with pytest.raises(ValueError, match="attainable"):
        fit_common_cause_weight(0.912, 3, 0.90)


# -- simulation ----------------------------------------------------------------


def test_simulation_is_deterministic():
    model = CorrelatedSampleModel(p=0.8, rho=0.3, k=3)
    assert simulate_self_consistency(model, 5000, seed=4) == simulate_self_consistency(
        model, 5000, seed=4
    )


def test_simulation_iid_matches_closed_form():
    model = CorrelatedSampleModel(p=0.912, rho=0.0, k=3)
    want = theoretical_sc_accuracy(0.912, 3)
    n = 40_000
    se = np.sqrt(want * (1 - want) / n)
    for seed in (0, 1, 2):
        got = simulate_self_consistency(model, n, seed)
        assert abs(got - want) < 4 * se


def test_simulation_fully_correlated_matches_p():
    model = CorrelatedSampleModel(p=0.6, rho=1.0, k=5)
    n = 40_000
    se = np.sqrt(0.6 * 0.4 / n)
    got = simulate_self_consistency(model, n, seed=8)
    assert abs(got - 0.6) < 4 * se


def test_simulation_mixture_interpolates():
    model = CorrelatedSampleModel(p=0.912, rho=0.667, k=3)
    want = mixture_sc_accuracy(0.912, 0.667, 3)
    n = 60_000
    se = np.sqrt(want * (1 - want) / n)
    got = simulate_self_consistency(model, n, seed=12)
    assert abs(got - want) < 4 * se


def test_model_validation():
    with pytest.raises(ValueError):
        CorrelatedSampleModel(p=1.2, rho=0.0, k=3)
    with pytest.raises(ValueError):
        CorrelatedSampleModel(p=0.5, rho=-0.1, k=3)
    with pytest.raises(ValueError):
        CorrelatedSampleModel(p=0.5, rho=0.0, k=2)
    with pytest.raises(ValueError, match="at most 1029"):  # comb(1031, 515) overflows a float
        CorrelatedSampleModel(p=0.5, rho=0.0, k=1031)
    assert 0.0 < theoretical_sc_accuracy(0.5, 1029) < 1.0
    with pytest.raises(ValueError):
        simulate_self_consistency(CorrelatedSampleModel(0.5, 0.0, 3), 0, seed=0)
