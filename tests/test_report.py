"""Diagnostic report assembly, classification rule, and rendering."""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refineloop.dynamics import TransitionRates, Verdict, stop_or_iterate, verdict_from_counts
from refineloop.logs import CorrectnessLog
from refineloop.report import (
    CLASS_HARMFUL,
    CLASS_TIER1,
    CLASS_TIER2,
    build_report,
    classify_run,
    diagnose_runs,
    render_tables,
)
from refineloop.schedule import preset, preset_baseline
from refineloop.simulate import deterministic_replay


def _replay(name):
    return deterministic_replay(preset(name), preset_baseline(name), 500)


# -- classification rule --------------------------------------------------------


@pytest.mark.parametrize(
    "delta_pp,pooled_eir,expected",
    [
        # flat trajectory with suppressed eir stays tier-1 even when the
        # delta is mildly positive
        (0.2, 0.0, CLASS_TIER1),
        (0.0, 0.002, CLASS_TIER1),
        (-0.4, 0.005, CLASS_TIER1),
        # the cutoffs themselves are inside
        (0.5, 0.005, CLASS_TIER1),
        (-0.5, 0.005, CLASS_TIER1),
        # outside the band, sign decides
        (3.4, 0.0, CLASS_TIER2),
        (0.6, 0.002, CLASS_TIER2),
        (0.6, 0.02, CLASS_TIER2),
        (-0.6, 0.0, CLASS_HARMFUL),
        (-6.2, 0.02, CLASS_HARMFUL),
        (0.51, 0.0, CLASS_TIER2),
        (-0.51, 0.0, CLASS_HARMFUL),
        # inside the band but eir above the cap: not tier-1, sign decides
        (0.2, 0.02, CLASS_TIER2),
        (-0.2, 0.02, CLASS_HARMFUL),
        (0.0, 0.02, CLASS_HARMFUL),
        (0.0, 0.0051, CLASS_HARMFUL),
    ],
)
def test_classification_rule(delta_pp, pooled_eir, expected):
    assert classify_run(delta_pp, pooled_eir) == expected


def test_classification_undefined_eir_cannot_be_tier1():
    assert classify_run(0.0, None) == CLASS_HARMFUL
    assert classify_run(1.0, None) == CLASS_TIER2


# -- report assembly ------------------------------------------------------------


def test_report_for_degrading_replay():
    report = build_report({"gpt-4o-mini": _replay("gpt-4o-mini")})
    run = report.runs[0]
    assert run.label == "gpt-4o-mini"
    assert run.classification.tag == CLASS_HARMFUL
    assert run.classification.delta_pp == pytest.approx(-6.2, abs=1e-9)
    series = run.estimates.accuracy_series
    assert [round(p.accuracy * 100, 1) for p in series] == [91.2, 90.0, 89.6, 86.6, 85.0]
    assert report.paired is None
    # transition McNemar rows match the frozen published values
    stats = [(t.b, t.c, round(t.statistic, 2)) for t in run.transition_tests]
    assert stats == [(6, 0, 6.0), (4, 2, 0.67), (17, 2, 11.84), (9, 1, 6.4)]


def test_report_for_beneficial_replay():
    report = build_report({"o3-mini": _replay("o3-mini")})
    run = report.runs[0]
    assert run.classification.tag == CLASS_TIER2
    assert run.classification.delta_pp == pytest.approx(3.4, abs=1e-9)
    assert run.estimates.pooled_eir == 0.0


def test_report_steady_state_from_pooled_rates():
    report = build_report({"run": _replay("gpt-4o-mini")})
    run = report.runs[0]
    est = run.estimates
    expect = est.pooled_ecr / (est.pooled_eir + est.pooled_ecr)
    assert run.steady.accuracy == pytest.approx(expect)
    assert not run.steady.absorbing


def test_report_verdicts_defined_only_with_both_rates():
    # second transition of this log has an empty incorrect pool
    log = CorrectnessLog(
        problem_ids=["a", "b", "c"],
        correctness=np.array([[1, 1, 1], [0, 1, 1], [1, 1, 0]], dtype=bool),
    )
    report = build_report({"run": log})
    verdicts = report.runs[0].verdicts
    assert verdicts[0] is not None
    assert verdicts[1] is None


def test_two_runs_pair_automatically_in_order():
    report = build_report(
        {"first": _replay("gpt-4o-mini"), "second": _replay("o3-mini")},
        resamples=500,
    )
    paired = report.paired
    assert (paired.label_a, paired.label_b) == ("first", "second")
    # delta oriented second minus first at the final column
    assert paired.delta_pp_by_iteration[-1] == pytest.approx(96.6 - 85.0, abs=1e-9)
    assert len(paired.delta_pp_by_iteration) == 5


def test_explicit_pair_selection():
    runs = {
        "a": _replay("gpt-4o-mini"),
        "b": _replay("o3-mini"),
        "c": _replay("gpt-5"),
    }
    report = build_report(runs, pair=("c", "a"), resamples=300)
    assert report.paired.label_a == "c"
    assert report.paired.label_b == "a"
    with pytest.raises(ValueError, match="unknown run"):
        build_report(runs, pair=("a", "zz"), resamples=300)
    with pytest.raises(ValueError, match="cannot pair run 'a' with itself"):
        build_report(runs, pair=("a", "a"), resamples=300)


def test_confidence_reaches_the_paired_bootstrap():
    runs = {"a": _replay("gpt-4o-mini"), "b": _replay("o3-mini")}
    report = build_report(runs, resamples=300, confidence=0.8)
    assert report.paired.final_bootstrap.confidence == 0.8
    assert "80% CI" in render_tables(report)["report.txt"]
    assert "95% CI" in render_tables(build_report(runs, resamples=300))["report.txt"]
    for bad in ("x", None, float("nan"), True, 1.0):
        with pytest.raises(ValueError, match="confidence must be a number in"):
            build_report(runs, resamples=300, confidence=bad)


def test_three_runs_no_automatic_pair():
    runs = {
        "a": _replay("gpt-4o-mini"),
        "b": _replay("o3-mini"),
        "c": _replay("gpt-5"),
    }
    assert build_report(runs, resamples=300).paired is None


def test_pairing_requires_same_problems_and_width():
    a = CorrectnessLog(problem_ids=["x"], correctness=np.array([[1, 0]], dtype=bool))
    b = CorrectnessLog(problem_ids=["y"], correctness=np.array([[1, 0]], dtype=bool))
    with pytest.raises(ValueError, match="different problem sets"):
        build_report({"a": a, "b": b}, resamples=50)
    c = CorrectnessLog(problem_ids=["x"], correctness=np.array([[1, 0, 1]], dtype=bool))
    with pytest.raises(ValueError, match="iteration counts"):
        build_report({"a": a, "c": c}, resamples=50)


# -- rendering ------------------------------------------------------------------


def test_render_produces_all_tables():
    report = build_report({"solo": _replay("gpt-4.1")})
    artifacts = render_tables(report)
    assert set(artifacts) == {
        "report.txt",
        "accuracy.csv",
        "rates.csv",
        "verdicts.csv",
        "tests.csv",
        "summary.csv",
    }
    paired = build_report(
        {"a": _replay("gpt-4.1"), "b": _replay("gpt-5")}, resamples=300
    )
    assert "paired.csv" in render_tables(paired)


def test_render_is_deterministic():
    def render():
        report = build_report(
            {"a": _replay("gpt-4o-mini"), "b": _replay("o3-mini")}, resamples=400, seed=5
        )
        return render_tables(report)

    assert render() == render()


def test_text_report_prints_one_decimal_trajectory():
    report = build_report({"gpt-4o-mini": _replay("gpt-4o-mini")})
    text = render_tables(report)["report.txt"]
    assert "91.2" in text and "85.0" in text
    assert "-6.2" in text
    assert "harmful" in text
    assert "stop" in text


def test_csv_cells_round_trip_full_precision():
    report = build_report({"run": _replay("claude-sonnet-4")})
    rates_csv = render_tables(report)["rates.csv"]
    rows = [line.split(",") for line in rates_csv.strip().splitlines()[1:]]
    est = report.runs[0].estimates
    for row, item in zip(rows, est.per_transition):
        assert float(row[6]) == item.eir
        assert float(row[9]) == item.ecr
    summary_csv = render_tables(report)["summary.csv"]
    delta_cell = summary_csv.strip().splitlines()[1].split(",")[1]
    assert float(delta_cell) == report.runs[0].classification.delta_pp


def test_undefined_cells_render_empty_or_na():
    log = CorrectnessLog(
        problem_ids=["a", "b"], correctness=np.array([[1, 1], [1, 1]], dtype=bool)
    )
    report = build_report({"run": log})
    artifacts = render_tables(report)
    assert "undefined" in artifacts["verdicts.csv"]
    # no incorrect answer, so no pooled ecr: "n/a" takes no percent sign
    tag = report.runs[0].classification.tag
    lines = artifacts["report.txt"].splitlines()
    assert f"run: delta +0.0 pp, pooled eir 0.0%, pooled ecr n/a -> {tag}" in lines
    assert "run    it0->it1  0.0  n/a  undefined" in lines


def test_run_without_flips_renders_as_absorbing():
    log = CorrectnessLog(problem_ids=["a", "b", "c"], correctness=np.array([[1, 1], [0, 0], [1, 1]], dtype=bool))
    artifacts = render_tables(build_report({"run": log}))
    assert "run: absorbing at pooled rates (no flips observed)" in artifacts["report.txt"].splitlines()
    summary = list(csv.DictReader(io.StringIO(artifacts["summary.csv"])))
    assert len(summary) == 1
    assert (summary[0]["steady_accuracy"], summary[0]["eigenvalue"], summary[0]["absorbing"]) == ("", "1.0", "1")


def test_signed_delta_never_prints_negative_zero():
    # a run that loses 0.04 pp rounds to a displayed +0.0, not -0.0
    bits = np.ones((2500, 2), dtype=bool)
    bits[0, 1] = False
    log = CorrectnessLog(problem_ids=[f"p{i}" for i in range(2500)], correctness=bits)
    text = render_tables(build_report({"run": log}))["report.txt"]
    assert "-0.0" not in text
    assert "+0.0" in text


def test_station_keeping_replay_classifies_tier1():
    # the o4-mini replay holds its baseline exactly: one spoil, one fix
    report = build_report({"o4-mini": _replay("o4-mini")})
    run = report.runs[0]
    assert run.classification.delta_pp == pytest.approx(0.0, abs=1e-12)
    assert run.estimates.pooled_eir == pytest.approx(1 / 484)
    assert run.classification.tag == CLASS_TIER1


def test_transition_tests_use_the_rate_counts():
    runs = {"a": _replay("gpt-4o-mini"), "b": _replay("o3-mini")}
    artifacts = render_tables(build_report(runs, resamples=100))
    rates = list(csv.DictReader(io.StringIO(artifacts["rates.csv"])))
    tests = list(csv.DictReader(io.StringIO(artifacts["tests.csv"])))
    assert len(rates) == len(tests) == 8
    for rate, test in zip(rates, tests):
        assert test["run"] == rate["run"]
        assert test["comparison"] == f"it{rate['transition']}->it{int(rate['transition']) + 1}"
        assert (test["b"], test["c"]) == (rate["n_ci"], rate["n_ic"])


# -- a verdict is McNemar's discordant comparison --------------------------------
# With rates estimated from the same transition, Acc*EIR = n_ci/n and
# (1 - Acc)*ECR = n_ic/n, so ECR/EIR > Acc/(1 - Acc) exactly when n_ic > n_ci.


def _sign_verdict(b, c):
    """The verdict read off McNemar's b = n_ci and c = n_ic."""
    return Verdict.ITERATE if c > b else Verdict.STOP if c < b else Verdict.AT_EQUILIBRIUM


# (pool size, flips out of it); both pools non-empty
_pools = st.integers(1, 10**6).flatmap(lambda pool: st.tuples(st.just(pool), st.integers(0, pool)))


@given(correct=_pools, incorrect=_pools)
@example(correct=(999_999, 3), incorrect=(7, 3))
@example(correct=(10**6, 500_000), incorrect=(10**6, 500_001))
@example(correct=(10**6, 500_001), incorrect=(10**6, 500_000))
def test_verdict_is_the_sign_of_the_discordant_counts(correct, incorrect):
    (n_correct, n_ci), (n_incorrect, n_ic) = correct, incorrect
    accuracy = n_correct / (n_correct + n_incorrect)
    rates = TransitionRates(n_ci / n_correct, n_ic / n_incorrect)
    assert stop_or_iterate(accuracy, rates).verdict is _sign_verdict(n_ci, n_ic)
    assert verdict_from_counts(n_correct - n_ci, n_ci, n_ic, n_incorrect - n_ic) is _sign_verdict(n_ci, n_ic)


@given(arrays(bool, st.tuples(st.integers(1, 40), st.integers(2, 6))))
def test_report_verdicts_agree_with_the_transition_tests(matrix):
    log = CorrectnessLog(problem_ids=[f"p{i}" for i in range(len(matrix))], correctness=matrix)
    run = diagnose_runs({"run": log}).runs[0]
    for verdict, test, item, before in zip(run.verdicts, run.transition_tests, run.estimates.per_transition,
                                           run.estimates.accuracy_series):
        if item.eir is None or item.ecr is None:
            assert verdict is None
        else:
            assert verdict.verdict is _sign_verdict(test.b, test.c)
            # the record's floats are stop_or_iterate's; repr, since rate_ratio is nan when both rates are 0
            want = stop_or_iterate(before.accuracy, TransitionRates(item.eir, item.ecr))
            for field in ("rate_ratio", "accuracy_odds", "net_benefit"):
                assert repr(getattr(verdict, field)) == repr(getattr(want, field))


def _text_table_keys(text, title):
    """(run, transition) of each row of one of report.txt's per-transition tables."""
    lines = text.splitlines()
    rows = itertools.takewhile(bool, lines[lines.index(title) + 2:])  # past the title and header, to a blank
    return [tuple(row.split()[:2]) for row in rows]


@given(st.lists(arrays(bool, st.tuples(st.integers(1, 20), st.integers(2, 5))), min_size=1, max_size=4))
def test_per_transition_tables_share_one_order(matrices):
    runs = {
        f"r{i}": CorrectnessLog(problem_ids=[f"p{j}" for j in range(len(m))], correctness=m)
        for i, m in enumerate(matrices)
    }
    tables = render_tables(diagnose_runs(runs))

    def csv_keys(name):  # rates.csv and verdicts.csv number a transition, tests.csv names it
        rows = list(csv.reader(io.StringIO(tables[name])))[1:]
        return [(run, key if key.startswith("it") else f"it{key}->it{int(key) + 1}") for run, key, *_ in rows]

    expected = [(label, f"it{t}->it{t + 1}") for label, log in runs.items() for t in range(log.n_iterations)]
    for name in ("rates.csv", "verdicts.csv", "tests.csv"):
        assert csv_keys(name) == expected, name
    for title in ("per-transition rates (%)", "adjacent-iteration mcnemar"):
        assert _text_table_keys(tables["report.txt"], title) == expected, title


def test_no_runs_renders_headers_only():
    tables = render_tables(diagnose_runs({}))
    assert tables == render_tables(build_report({}))
    full = render_tables(diagnose_runs({"a": _replay("gpt-4o-mini")}))
    assert set(tables) == set(full) and "paired.csv" not in tables
    assert tables["report.txt"] == "refinement loop diagnostic\n\n(no runs)\n"
    for name in ("accuracy.csv", "rates.csv", "verdicts.csv", "tests.csv", "summary.csv"):
        header = full[name].splitlines(keepends=True)[0]
        assert tables[name] == header, name
