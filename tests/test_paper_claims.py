"""Claims ledger: one test per numeric claim in the paper's abstract.

Each test is named for the claim it checks. Where the library reproduces
the claim, the test asserts it; where it does not, the test asserts what
the library gives and its docstring says why. Every run is the preset's
integer-exact ``deterministic_replay`` at N=500 for 4 iterations from the
preset's baseline, and the seven runs go through one ``build_report``.
README's "Paper claims" table lists each claim with the test that pins it.

Two claims are pinned elsewhere and only cited here: the stability
threshold ECR/EIR > Acc/(1 - Acc) by
``test_acceptance::test_02_equilibrium_ratio_constants_and_iterate_verdict``,
and ASC's 3.8 pp confidence-elicitation cost by
``test_asc::test_confidence_tax_published_magnitude``.
"""

import dataclasses
from functools import cache

import pytest

from refineloop import (
    CLASS_HARMFUL,
    CLASS_TIER1,
    CLASS_TIER2,
    TransitionRates,
    Verdict,
    build_report,
    deterministic_replay,
    preset,
    preset_baseline,
    preset_names,
)
from refineloop.report import BAND_PP, EIR_THRESHOLD

N_PROBLEMS = 500
N_ITERATIONS = 4


def _replay(name: str, zero_eir: bool = False):
    schedule = preset(name)
    if zero_eir:  # the same schedule with no error introduced: what verify-first aims for
        schedule = dataclasses.replace(
            schedule, transitions=tuple(TransitionRates(0.0, t.ecr) for t in schedule.transitions)
        )
    return deterministic_replay(schedule, preset_baseline(name), N_PROBLEMS, N_ITERATIONS)


@cache
def _runs():
    report = build_report({name: _replay(name) for name in preset_names()})
    return {run.label: run for run in report.runs}


def _delta_pp(name: str) -> float:
    return _runs()[name].classification.delta_pp


def _zero_eir_pair(name: str, resamples: int = 10):
    """The zero-EIR replay minus the standard one, final iteration, paired."""
    report = build_report({"standard": _replay(name), "zero-eir": _replay(name, zero_eir=True)},
                          seed=1, resamples=resamples)
    return report.paired


def test_seven_models():
    """"7 models" (and 3 datasets): the presets hold 7 models, one starting accuracy each.

    The library has no dataset dimension. The abstract's own groups name
    3 non-degrading models, GPT-5 and four others that lose accuracy:
    3 + 1 + 4 = 8, one more than the 7 it states.
    """
    assert len(preset_names()) == 7
    assert len(_runs()) == 7


def test_near_zero_eir_boundary_separates_the_runs():
    """"EIR <~ 0.5% separates beneficial from harmful": it does, with a 0.5 pp band.

    Every preset under the boundary ends within 0.5 pp of its start or
    above it; every preset over it loses more than 0.5 pp.
    """
    assert (EIR_THRESHOLD, BAND_PP) == (0.005, 0.5)
    for name, run in _runs().items():
        under = run.estimates.pooled_eir <= EIR_THRESHOLD
        assert (run.classification.delta_pp >= -BAND_PP) is under, name


@pytest.mark.parametrize("name, delta_pp, tag", [
    ("o3-mini", 3.4, CLASS_TIER2),
    ("claude-opus-4.6", 0.6, CLASS_TIER2),
    ("o4-mini", 0.0, CLASS_TIER1),
])
def test_named_non_degrading_models(name, delta_pp, tag):
    """"only o3-mini (+3.4 pp), Claude Opus 4.6 (+0.6 pp), and o4-mini (±0 pp) stay non-degrading"."""
    assert _delta_pp(name) == pytest.approx(delta_pp, abs=1e-9)
    assert _runs()[name].classification.tag == tag


def test_gpt5_and_the_others_lose_accuracy():
    """"GPT-5 and four others lose accuracy": the library gives GPT-5 and three others.

    gpt-4.1 loses 0.2 pp at a pooled EIR of 0.16%, under the boundary and
    inside the 0.5 pp band, so the tier rule tags it non-degrading: four
    presets do. The abstract names three. The stability threshold, not
    the EIR boundary, separates gpt-4.1: it says stop at transitions 0
    and 2, the two that lose an answer.
    """
    losers = sorted(name for name in preset_names() if _delta_pp(name) < 0.0)
    assert losers == ["claude-sonnet-4", "gpt-4.1", "gpt-4o-mini", "gpt-5"]
    harmful = sorted(name for name, run in _runs().items() if run.classification.tag == CLASS_HARMFUL)
    assert harmful == ["claude-sonnet-4", "gpt-4o-mini", "gpt-5"]
    gpt41 = _runs()["gpt-4.1"]
    assert gpt41.classification.tag == CLASS_TIER1
    assert gpt41.classification.delta_pp == pytest.approx(-0.2, abs=1e-9)
    assert gpt41.estimates.pooled_eir == pytest.approx(0.0016, abs=5e-5)
    assert [v.verdict for v in gpt41.verdicts] == [
        Verdict.STOP, Verdict.AT_EQUILIBRIUM, Verdict.STOP, Verdict.ITERATE
    ]


def test_gpt4o_mini_degrades_at_two_percent_eir():
    """"GPT-4o-mini's EIR [of] 2% ... a -6.2 pp degradation"."""
    run = _runs()["gpt-4o-mini"]
    assert run.estimates.pooled_eir == pytest.approx(0.020, abs=5e-4)
    assert run.classification.delta_pp == pytest.approx(-6.2, abs=1e-9)


def test_verify_first_converts_the_degradation():
    """"drives ... EIR from 2% to 0% and converts a -6.2 pp degradation into +0.2 pp (McNemar p < 1e-4)".

    The abstract gives the intervention's outcome, not its per-transition
    rates, so no preset reproduces +0.2 pp. The library's stand-in is the
    gpt-4o-mini schedule with every EIR set to 0 and every ECR kept: it
    ends +1.0 pp over its start, 7.2 pp over the standard replay, with
    McNemar b = 0, c = 36, p = 1.97e-9, which meets p < 1e-4.
    """
    zero = _replay("gpt-4o-mini", zero_eir=True)
    assert build_report({"zero-eir": zero}).runs[0].estimates.pooled_eir == 0.0
    paired = _zero_eir_pair("gpt-4o-mini", resamples=2000)
    assert _delta_pp("gpt-4o-mini") + paired.delta_pp_by_iteration[-1] == pytest.approx(1.0, abs=1e-9)
    test = paired.final_mcnemar
    assert (test.b, test.c) == (0, 36)
    assert test.p_value == pytest.approx(1.97e-9, rel=1e-2)
    assert test.p_value < 1e-4


def test_zero_eir_changes_little_on_sub_threshold_models():
    """"negligible change on already-sub-threshold models": at most +0.8 pp, against +7.2 pp.

    The same zero-EIR stand-in on each preset under the 0.5% boundary
    gains 0.0 pp (o3-mini, whose EIR is already 0) to +0.8 pp; on
    gpt-4o-mini it gains +7.2 pp.
    """
    under = [name for name, run in _runs().items() if run.estimates.pooled_eir <= EIR_THRESHOLD]
    assert sorted(under) == ["claude-opus-4.6", "gpt-4.1", "o3-mini", "o4-mini"]
    gains = {name: _zero_eir_pair(name).delta_pp_by_iteration[-1] for name in under}
    assert gains["o3-mini"] == 0.0
    assert max(gains.values()) == pytest.approx(0.8, abs=1e-9)
    assert _zero_eir_pair("gpt-4o-mini").delta_pp_by_iteration[-1] == pytest.approx(7.2, abs=1e-9)
