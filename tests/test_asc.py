"""Adaptive stopping controller: golden traces and batch behavior.

The golden traces are frozen call sequences from hand executions of the
control flow: generate, score, early return on confidence; otherwise
refine/score rounds with the confidence check strictly before the
equilibrium check, equilibrium returning the previous answer.
"""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refineloop import asc
from refineloop.asc import (
    AscBackendError,
    AscConfig,
    AscOutcome,
    BatchSummary,
    EquilibriumMode,
    Scenario,
    ScenarioError,
    ScriptedBackend,
    ScriptedProblem,
    StopReason,
    load_scenario,
    run_asc_batch,
    run_asc_instance,
    run_scenario,
)
from refineloop.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, main
from refineloop.dynamics import TransitionRates, Verdict, verdict_from_counts
from refineloop.estimate import transition_counts
from refineloop.logs import CorrectnessLog
from refineloop.report import build_report
from refineloop.schedule import preset, preset_baseline
from refineloop.simulate import deterministic_replay
from test_bench_hooks import _bench_module
from test_golden import SCENARIOS


def _scripted(pid, confidences, n_answers=None):
    n = n_answers if n_answers is not None else len(confidences)
    return ScriptedProblem(
        problem_id=pid,
        answers=tuple(f"{pid}-r{k}" for k in range(n)),
        confidences=tuple(float(g) for g in confidences),
    )


# -- single-instance golden traces ----------------------------------------------


def test_trace_confident_at_generation():
    backend = ScriptedBackend([_scripted("q1", [9.0])])
    outcome = run_asc_instance("q1", backend, AscConfig())
    assert outcome.stop_reason is StopReason.CONFIDENCE
    assert outcome.iterations_used == 0
    assert outcome.final_answer == "q1-r0"
    assert outcome.confidence_trace == (9.0,)
    assert backend.calls == [("generate", "q1"), ("confidence", "q1")]


def test_scripted_backend_refuses_an_unknown_problem():
    backend = ScriptedBackend([_scripted("q1", [9.0])])
    with pytest.raises(KeyError, match="no script for problem 'q9'"):
        backend.generate("q9")


def test_scripted_backend_refuses_a_score_before_any_answer():
    # confidences[-1] would score the last scripted answer
    backend = ScriptedBackend([ScriptedProblem("a", ("x0", "x1"), (5.0, 9.0))])
    with pytest.raises(RuntimeError, match="confidence for 'a' asked before any answer was generated"):
        backend.confidence("a", "anything")
    backend.generate("a")
    assert backend.confidence("a", "x0") == 5.0


def test_scripted_backend_scores_only_the_latest_answer():
    # a score is a position in the script: it belongs to the answer handed out last
    backend = ScriptedBackend([ScriptedProblem("a", ("x0", "x1"), (5.0, 9.0))])
    backend.generate("a")
    with pytest.raises(RuntimeError, match="confidence for 'a' asked for 'x1', not its latest answer 'x0'"):
        backend.confidence("a", "x1")
    assert backend.refine("a", "x0") == "x1"
    with pytest.raises(RuntimeError, match="confidence for 'a' asked for 'x0', not its latest answer 'x1'"):
        backend.confidence("a", "x0")
    assert backend.confidence("a", "".join(["x", "1"])) == 9.0  # an equal answer, not the same object


def test_scripted_backend_scores_an_array_answer_by_identity():
    answer = np.array([1, 2])  # an array has no single truth value to compare by
    backend = ScriptedBackend([ScriptedProblem("a", (answer,), (9.0,))])
    outcome = run_asc_instance("a", backend, AscConfig())
    assert outcome.final_answer is answer and outcome.confidence_trace == (9.0,)


def test_trace_budget_exhaustion():
    backend = ScriptedBackend([_scripted("q2", [5, 5, 5, 5, 5])])
    outcome = run_asc_instance("q2", backend, AscConfig(tau=8.0, max_iterations=4))
    assert outcome.stop_reason is StopReason.BUDGET
    assert outcome.iterations_used == 4
    assert outcome.final_answer == "q2-r4"
    assert outcome.confidence_trace == (5.0, 5.0, 5.0, 5.0, 5.0)
    assert backend.calls == [
        ("generate", "q2"),
        ("confidence", "q2"),
        ("refine", "q2"),
        ("confidence", "q2"),
        ("refine", "q2"),
        ("confidence", "q2"),
        ("refine", "q2"),
        ("confidence", "q2"),
        ("refine", "q2"),
        ("confidence", "q2"),
    ]


def test_trace_calibration_equilibrium_returns_previous():
    backend = ScriptedBackend([_scripted("q3", [5, 5])])
    config = AscConfig(
        tau=8.0,
        max_iterations=4,
        calibration_rates=TransitionRates(eir=0.02, ecr=0.01),
        equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY,
    )
    outcome = run_asc_instance("q3", backend, config)
    assert outcome.stop_reason is StopReason.EQUILIBRIUM
    # the refinement that triggered the stop is discarded
    assert outcome.final_answer == "q3-r0"
    assert outcome.iterations_used == 0
    assert backend.calls == [
        ("generate", "q3"),
        ("confidence", "q3"),
        ("refine", "q3"),
        ("confidence", "q3"),
    ]


def test_traces_are_reproducible():
    def run_all():
        traces = []
        for conf, config in (
            ([9.0], AscConfig()),
            ([5, 5, 5, 5, 5], AscConfig()),
            (
                [5, 5],
                AscConfig(
                    calibration_rates=TransitionRates(0.02, 0.01),
                    equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY,
                ),
            ),
        ):
            backend = ScriptedBackend([_scripted("p", conf, n_answers=5)])
            outcome = run_asc_instance("p", backend, config)
            traces.append((tuple(backend.calls), outcome.stop_reason, outcome.iterations_used))
        return traces

    assert run_all() == run_all()


def test_confidence_checked_before_equilibrium():
    # round 1 hits tau, so the equilibrium criterion (which would also
    # fire) must never be consulted and the refined answer is kept
    backend = ScriptedBackend([_scripted("q4", [5, 9])])
    config = AscConfig(
        calibration_rates=TransitionRates(eir=0.5, ecr=0.0),
        equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY,
    )
    outcome = run_asc_instance("q4", backend, config)
    assert outcome.stop_reason is StopReason.CONFIDENCE
    assert outcome.iterations_used == 1
    assert outcome.final_answer == "q4-r1"


def test_equilibrium_tie_stops():
    backend = ScriptedBackend([_scripted("q5", [5, 5])])
    config = AscConfig(
        calibration_rates=TransitionRates(eir=0.03, ecr=0.03),
        equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY,
    )
    outcome = run_asc_instance("q5", backend, config)
    assert outcome.stop_reason is StopReason.EQUILIBRIUM


def test_pooled_labels_consulted_each_round():
    # round 1 breaks the answer with no incorrect pool yet, so the check is
    # skipped; round 2 fills that pool and the one break outweighs no fix
    backend = ScriptedBackend([_scripted("q6", [5, 5, 5])])
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    outcome = run_asc_instance("q6", backend, config, labels={"q6": (True, False, False)})
    assert outcome.stop_reason is StopReason.EQUILIBRIUM
    assert outcome.iterations_used == 1
    assert outcome.final_answer == "q6-r1"


def test_online_mode_without_labels_rejected():
    backend = ScriptedBackend([_scripted("q7", [5, 5])])
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    with pytest.raises(ValueError, match="online-labeled equilibrium mode needs labels"):
        run_asc_instance("q7", backend, config)


def test_scripted_backend_refuses_a_repeated_problem_id():
    # a dict of scripts would keep the last one silently, so "a" would answer y0
    repeated = [ScriptedProblem("a", ("x0", "x1"), (5.0, 9.0)), ScriptedProblem("a", ("y0",), (9.0,))]
    with pytest.raises(ValueError, match="problem ids must be unique; 'a' appears more than once"):
        ScriptedBackend(repeated)
    with pytest.raises(ValueError, match="'b' appears more than once"):
        ScriptedBackend([_scripted("a", [9]), _scripted("b", [9]), _scripted("c", [9]), _scripted("b", [9])])


def test_backend_error_carries_partial_trace():
    class Flaky:
        def generate(self, problem):
            return "first"

        def confidence(self, problem, answer):
            return 5.0

        def refine(self, problem, previous):
            raise RuntimeError("remote model unavailable")

    with pytest.raises(AscBackendError) as err:
        run_asc_instance("p", Flaky(), AscConfig())
    assert err.value.answers == ["first"]
    assert err.value.scores == [5.0]
    assert "refine" in str(err.value)


class _ScoredBy:
    """A backend whose every answer gets the one given score."""

    def __init__(self, score):
        self.score = score

    def generate(self, problem):
        return "first"

    def refine(self, problem, previous):
        return "next"

    def confidence(self, problem, answer):
        return self.score


@pytest.mark.parametrize("score", ["9", 42, True, math.nan, 0.95, None, np.bool_(True), np.float64(10.5)])
def test_backend_score_off_the_scale_is_a_backend_error(score):
    with pytest.raises(AscBackendError, match=re.escape(f"confidence must be a number in [1, 10], got {score!r}")) as err:
        run_asc_instance("p", _ScoredBy(score), AscConfig())
    assert err.value.answers == ["first"]
    assert err.value.scores == []


def test_backend_score_may_be_any_real_on_the_scale():
    for score in (np.float32(9.5), np.int64(9), 8):
        outcome = run_asc_instance("p", _ScoredBy(score), AscConfig())
        assert outcome.stop_reason is StopReason.CONFIDENCE
        assert outcome.confidence_trace == (float(score),)
        assert type(outcome.confidence_trace[0]) is float


def test_config_validation():
    with pytest.raises(ValueError):
        AscConfig(tau=0.5)
    with pytest.raises(ValueError):
        AscConfig(tau=10.5)
    with pytest.raises(ValueError):
        AscConfig(max_iterations=0)
    with pytest.raises(ValueError):
        AscConfig(equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY)
    with pytest.raises(ValueError, match=re.escape("tau must be a number in [1, 10], got True")):
        AscConfig(tau=True)  # True == 1.0, yet it is no confidence threshold
    for bad in ("8", None, math.nan, np.bool_(True), np.float32(10.5)):
        with pytest.raises(ValueError, match=re.escape(f"tau must be a number in [1, 10], got {bad!r}")):
            AscConfig(tau=bad)
    for tau in (np.float32(8.5), np.int64(9), 7):
        config = AscConfig(tau=tau)
        assert type(config.tau) is float and config.tau == float(tau)
    # the driver's int64 columns hold up to max_iterations + 1 answers
    int64_max = 2**63 - 1
    for bad in (int64_max, 10**20):
        with pytest.raises(ValueError, match=f"max_iterations must be below {int64_max}, got {bad}"):
            AscConfig(max_iterations=bad)
    outcome = run_asc_instance("p", ScriptedBackend([ScriptedProblem("p", ("a",), (9.0,))]),
                               AscConfig(max_iterations=int64_max - 1))
    assert (outcome.final_answer, outcome.stop_reason) == ("a", StopReason.CONFIDENCE)
    # calibration rates are read in calibration-only mode alone, so no other mode takes them
    for mode in (EquilibriumMode.DISABLED, EquilibriumMode.ONLINE_LABELED):
        with pytest.raises(ValueError, match=f"calibration_rates are used only in calibration-only "
                                             f"equilibrium mode, not {mode.value}"):
            AscConfig(calibration_rates=TransitionRates(0.02, 0.01), equilibrium_mode=mode)
    # a mode's value or a bare pair is refused, not coerced
    with pytest.raises(ValueError, match="equilibrium_mode must be an EquilibriumMode, got 'online-labeled'"):
        AscConfig(equilibrium_mode="online-labeled")
    with pytest.raises(ValueError, match=re.escape("calibration_rates must be TransitionRates, got (0.1, 0.2)")):
        AscConfig(calibration_rates=(0.1, 0.2), equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY)


# -- batch mode -----------------------------------------------------------------


def _replay_batch(preset_name):
    log = deterministic_replay(preset(preset_name), preset_baseline(preset_name), 500)
    problems = []
    labels = {}
    for pid, row in zip(log.problem_ids, log.correctness):
        problems.append(_scripted(pid, [5] * 5))
        labels[pid] = tuple(bool(x) for x in row)
    return problems, labels


def test_all_confident_batch_halts_at_iteration_zero():
    problems = [_scripted(f"p{i}", [9]) for i in range(50)]
    backend = ScriptedBackend(problems)
    outcomes, summary = run_asc_batch([p.problem_id for p in problems], backend, AscConfig())
    assert all(o.iterations_used == 0 for o in outcomes)
    assert all(o.stop_reason is StopReason.CONFIDENCE for o in outcomes)
    assert summary.rounds_executed == 0
    assert summary.iterations_histogram == {0: 50}
    assert sum(1 for call in backend.calls if call[0] == "refine") == 0
    assert sum(1 for call in backend.calls if call[0] == "generate") == 50


def test_batch_online_labeled_fires_on_first_harmful_round():
    problems, labels = _replay_batch("gpt-4o-mini")
    backend = ScriptedBackend(problems)
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    outcomes, summary = run_asc_batch(
        [p.problem_id for p in problems], backend, config, labels=labels
    )
    # first round already pools eir 6/456 >= ecr 0/44
    assert summary.equilibrium_fired_round == 1
    assert summary.iterations_histogram == {0: 500}
    assert summary.stop_reasons == {StopReason.EQUILIBRIUM: 500}
    assert all(o.final_answer.endswith("-r0") for o in outcomes)
    assert summary.final_pooled_rates.eir == pytest.approx(6 / 456)
    assert summary.final_pooled_rates.ecr == 0.0


def test_batch_online_labeled_never_fires_for_pure_corrector():
    problems, labels = _replay_batch("o3-mini")
    backend = ScriptedBackend(problems)
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    outcomes, summary = run_asc_batch(
        [p.problem_id for p in problems], backend, config, labels=labels
    )
    assert summary.equilibrium_fired_round is None
    assert summary.iterations_histogram == {4: 500}
    assert summary.stop_reasons == {StopReason.BUDGET: 500}
    assert summary.rounds_executed == 4


# Each of these passes breaks at least as many answers as it fixes, yet its
# rates keep eir below ecr, so a stop on ``eir >= ecr`` would run on through it.
_COSTLY_PASSES = [("gpt-5", 0), ("gpt-5", 1), ("gpt-5", 3), ("claude-sonnet-4", 0), ("claude-sonnet-4", 1),
                  ("claude-sonnet-4", 2), ("claude-sonnet-4", 3), ("gpt-4o-mini", 1), ("gpt-4o-mini", 2),
                  ("claude-opus-4.6", 2), ("gpt-4.1", 0), ("o4-mini", 0)]


@pytest.mark.parametrize("preset_name, t", _COSTLY_PASSES)
def test_batch_online_labeled_stops_a_pass_that_fixes_no_more_than_it_breaks(preset_name, t):
    log = deterministic_replay(preset(preset_name), preset_baseline(preset_name), 500)
    columns = log.correctness[:, t : t + 2]
    n_cc, n_ci, n_ic, n_ii = transition_counts(columns)[0].tolist()
    assert n_ci >= n_ic and n_ci / (n_cc + n_ci) < n_ic / (n_ic + n_ii)
    labels = {pid: tuple(row) for pid, row in zip(log.problem_ids, columns.tolist())}
    backend = ScriptedBackend([_scripted(pid, [5, 5]) for pid in labels])
    config = AscConfig(max_iterations=1, equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    outcomes, summary = run_asc_batch(list(labels), backend, config, labels=labels)
    assert summary.stop_reasons == {StopReason.EQUILIBRIUM: 500}
    assert all(o.final_answer.endswith("-r0") for o in outcomes)


@pytest.mark.parametrize(
    "preset_name, t, counts, verdict",
    [
        ("gpt-4o-mini", 2, [431, 17, 2, 50], Verdict.STOP),
        ("claude-sonnet-4", 1, [480, 1, 1, 18], Verdict.AT_EQUILIBRIUM),
        ("claude-sonnet-4", 3, [476, 2, 2, 20], Verdict.AT_EQUILIBRIUM),
    ],
)
def test_replay_passes_pinned_to_their_count_verdicts(preset_name, t, counts, verdict):
    log = deterministic_replay(preset(preset_name), preset_baseline(preset_name), 500, 4)
    assert transition_counts(log.correctness)[t].tolist() == counts
    assert verdict_from_counts(*counts) is verdict


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(0, 40)] * 4))
def test_batch_online_labeled_stops_iff_the_count_verdict_is_not_iterate(counts):
    # one refinement round over problems labeled by their transition
    n_cc, n_ci, n_ic, n_ii = counts
    pairs = [(True, True)] * n_cc + [(True, False)] * n_ci + [(False, True)] * n_ic + [(False, False)] * n_ii
    labels = {f"p{i}": pair for i, pair in enumerate(pairs)}
    backend = ScriptedBackend([_scripted(pid, [5, 5]) for pid in labels])
    config = AscConfig(max_iterations=1, equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    _, summary = run_asc_batch(list(labels), backend, config, labels=labels)
    verdict = verdict_from_counts(*counts)
    stopped = verdict is not None and verdict is not Verdict.ITERATE
    # the check waits for both pools; ties stop
    assert stopped == bool(n_cc + n_ci and n_ic + n_ii and n_ci >= n_ic)
    reason = StopReason.EQUILIBRIUM if stopped else StopReason.BUDGET
    assert summary.stop_reasons == ({reason: len(pairs)} if pairs else {})
    assert summary.equilibrium_fired_round == (1 if stopped else None)


def test_batch_skips_round_with_undefined_pool():
    # all problems stay correct through it1, so the incorrect pool is
    # empty for two rounds and the criterion must not fire on 0/0; once
    # the pool fills at round 3 the accumulated eir dominates and it fires
    labels = {f"p{i}": (True, True, False, False, False) for i in range(3)}
    problems = [_scripted(pid, [5] * 5) for pid in labels]
    backend = ScriptedBackend(problems)
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    outcomes, summary = run_asc_batch(list(labels), backend, config, labels=labels)
    assert summary.equilibrium_fired_round == 3
    assert all(o.stop_reason is StopReason.EQUILIBRIUM for o in outcomes)
    assert all(o.iterations_used == 2 for o in outcomes)


def test_batch_online_requires_labels():
    problems = [_scripted("p0", [5, 5])]
    backend = ScriptedBackend(problems)
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    with pytest.raises(ValueError, match="labels"):
        run_asc_batch(["p0"], backend, config)
    with pytest.raises(ValueError, match="no label"):
        run_asc_batch(["p0"], backend, config, labels={"other": (True,)})


class _CountedRow(tuple):
    """A problem's labels that count each read of an iteration into ``reads``."""

    def __new__(cls, problem, row, reads):
        self = super().__new__(cls, row)
        self.problem, self.reads = problem, reads
        return self

    def __getitem__(self, k):
        self.reads[self.problem, k] += 1
        return super().__getitem__(k)


def test_online_batch_reads_each_label_once():
    reads = Counter()
    labels = {pid: _CountedRow(pid, (True, True, True), reads) for pid in ("a", "b")}
    config = AscConfig(max_iterations=2, equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    backend = ScriptedBackend([_scripted(pid, [5, 5, 5]) for pid in labels])
    outcomes, summary = run_asc_batch(list(labels), backend, config, labels=labels)
    assert [o.stop_reason for o in outcomes] == [StopReason.BUDGET] * 2  # the incorrect pool stays empty
    assert summary.rounds_executed == 2
    assert reads == {(pid, k): 1 for pid in labels for k in range(3)}


@pytest.mark.parametrize("label", ["false", 1, None], ids=repr)
def test_online_labels_must_be_bools(label):
    # bool("false") is True: a label that is not a bool would count as whatever its truth value is
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    labels = {"a": (label, True), "b": (False, False)}
    message = re.escape(f"label for problem 'a', iteration 0 must be a bool, got {label!r}")
    with pytest.raises(ValueError, match=message):
        run_asc_batch(["a", "b"], ScriptedBackend([_scripted("a", [5, 5]), _scripted("b", [5, 5])]), config,
                      labels=labels)
    with pytest.raises(ValueError, match=message):
        run_asc_instance("a", ScriptedBackend([_scripted("a", [5, 5])]), config, labels=labels)
    late = {"a": (True, label)}  # refused when the round reaches it, too
    with pytest.raises(ValueError, match=re.escape(f"problem 'a', iteration 1 must be a bool, got {label!r}")):
        run_asc_instance("a", ScriptedBackend([_scripted("a", [5, 5])]), config, labels=late)
    numpy_labels = {"a": tuple(np.array([True, False, False]))}  # numpy bools are accepted
    outcome = run_asc_instance("a", ScriptedBackend([_scripted("a", [5, 5, 5])]), config, labels=numpy_labels)
    assert (outcome.stop_reason, outcome.iterations_used) == (StopReason.EQUILIBRIUM, 1)


def test_batch_mixed_stop_reasons():
    problems = [
        _scripted("confident", [9]),
        _scripted("late", [5, 5, 9], n_answers=3),
        _scripted("never", [5, 5, 5, 5, 5]),
    ]
    backend = ScriptedBackend(problems)
    outcomes, summary = run_asc_batch(
        [p.problem_id for p in problems], backend, AscConfig()
    )
    by_id = {p.problem_id: o for p, o in zip(problems, outcomes)}
    assert by_id["confident"].stop_reason is StopReason.CONFIDENCE
    assert by_id["confident"].iterations_used == 0
    assert by_id["late"].stop_reason is StopReason.CONFIDENCE
    assert by_id["late"].iterations_used == 2
    assert by_id["never"].stop_reason is StopReason.BUDGET
    assert by_id["never"].iterations_used == 4
    assert summary.stop_reasons == {StopReason.CONFIDENCE: 2, StopReason.BUDGET: 1}
    assert summary.n_instances == 3


@pytest.mark.parametrize(
    "confidences, correct",
    [
        ([9], (True,)),
        ([5, 5, 5, 5, 5], (True, True, True, True, True)),
        ([5, 5, 5, 5, 5], (False, True, True, False, True)),
        ([5, 5, 9], (True, False, True)),
        ([5, 5, 5, 5, 5], (True, True, False, False, False)),
        ([5, 5, 5, 5, 5], (False, False, True, True, False)),
    ],
)
def test_instance_is_a_batch_of_one(confidences, correct):
    calibrated = AscConfig(
        equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY, calibration_rates=TransitionRates(0.03, 0.03)
    )
    online = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    for config in (AscConfig(), calibrated, online):
        script = [_scripted("q", confidences, n_answers=5)]
        alone, batch = ScriptedBackend(script), ScriptedBackend(script)
        outcome = run_asc_instance("q", alone, config, labels={"q": correct})
        outcomes, _ = run_asc_batch(["q"], batch, config, labels={"q": correct})
        assert outcomes == [outcome]
        assert alone.calls == batch.calls


# -- scenario files -------------------------------------------------------------


def _scenario_doc():
    return {
        "format": "asc-scenario/v1",
        "tau": 8.0,
        "max_iterations": 4,
        "equilibrium_mode": "disabled",
        "problems": [
            {"id": "p0", "answers": ["a", "b"], "confidences": [5, 9]},
            {"id": "p1", "answers": ["x"], "confidences": [10]},
        ],
        "metadata": {"note": "fixture"},
    }


def test_load_and_run_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_scenario_doc()))
    scenario = load_scenario(path)
    assert scenario.config.tau == 8.0
    assert scenario.metadata == {"note": "fixture"}
    assert scenario.ids == ["p0", "p1"]
    assert scenario.answers == [["a", "b"], ["x"]]
    assert scenario.counts.tolist() == [2, 1]
    np.testing.assert_array_equal(scenario.confidences, [[5.0, 9.0], [10.0, np.nan]])
    assert scenario.labels is None
    outcomes, summary, backend = run_scenario(scenario)
    assert outcomes.iterations_used.tolist() == [1, 0]
    assert [scenario.answers[i][k] for i, k in enumerate(outcomes.iterations_used)] == ["b", "x"]
    assert outcomes.stop_codes.tolist() == [list(StopReason).index(StopReason.CONFIDENCE)] * 2
    assert outcomes.answers_asked.tolist() == [2, 1]
    assert summary.n_instances == 2
    assert backend.calls == [("generate", "p0"), ("confidence", "p0"), ("generate", "p1"),
                             ("confidence", "p1"), ("refine", "p0"), ("confidence", "p0")]
    # byte-identical traces on a second run
    again, _, backend2 = run_scenario(scenario)
    assert backend2.calls == backend.calls
    assert again.iterations_used.tolist() == outcomes.iterations_used.tolist()


def test_scenario_without_settings_loads_the_config_defaults(tmp_path):
    doc = _scenario_doc()
    for key in ("tau", "max_iterations", "equilibrium_mode"):
        del doc[key]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path).config == AscConfig()


def test_scenario_with_calibration_rates(tmp_path):
    doc = _scenario_doc()
    doc["equilibrium_mode"] = "calibration-only"
    doc["calibration_rates"] = {"eir": 0.02, "ecr": 0.01}
    doc["problems"] = [{"id": "p0", "answers": ["a", "b"], "confidences": [5, 5]}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    outcomes, summary, _ = run_scenario(load_scenario(path))
    assert outcomes.stop_codes.tolist() == [list(StopReason).index(StopReason.EQUILIBRIUM)]
    assert outcomes.iterations_used.tolist() == [0]  # the answer "a"
    assert summary.stop_reasons == {StopReason.EQUILIBRIUM: 1}


_SCENARIO_FAULTS = [
    (lambda d: d.update(format="nope"), "format"),
    (lambda d: d.update(equilibrium_mode="sometimes"), "equilibrium_mode"),
    (lambda d: d.update(tau=0.0), "tau"),
    (lambda d: d.update(problems=[]), "non-empty problems"),
    (lambda d: d["problems"][0].update(confidences=[5]), "answers vs"),
    (lambda d: d["problems"][0].update(confidences=[5, 11]), "1-10 scale"),
    (lambda d: d["problems"].append(dict(d["problems"][0])), "unique"),
    (lambda d: d["problems"][0].pop("answers"), "missing field"),
    (lambda d: d["problems"][0].update(correct=["false", True]), "correct must hold booleans"),
    (lambda d: d["problems"][0].update(correct=[1.0, 0]), "correct must hold booleans .or 0/1., got 1.0"),
    (lambda d: d["problems"][0].update(correct=5), "correct must be an array"),
    (lambda d: d.update(max_iterations=2.7), "max_iterations must be a positive int, got 2.7"),
    (lambda d: d.update(max_iterations=True), "max_iterations must be a positive int, got True"),
    (lambda d: d["problems"][0].update(answers="xy"), "answers must be an array"),
    (lambda d: d.update(tau=None), "tau must be a number"),
    (lambda d: d["problems"][0].update(confidences=[None, 9]), "confidences must hold numbers"),
    (lambda d: d.update(metadata=[1, 2]), "metadata must be an object"),
    (lambda d: d["problems"].append(5), r"problems\[2\] must be an object"),
    (lambda d: d["problems"][0].update(answers=[], confidences=[]), "at least the initial answer"),
    (lambda d: d["problems"][0].update(correct=[2, 1]), r"correct must hold booleans .or 0/1., got 2"),
    (lambda d: d["problems"][0].update(correct=[True]), "correct length must match answers"),
    (lambda d: d.update(calibration_rates={"eir": 0.1}), "calibration_rates must be"),
    (lambda d: d["problems"][0].update(id=None), r"problems\[0\].id must be a string, got None"),
    (lambda d: d["problems"][1].update(id=1), r"problems\[1\].id must be a string, got 1"),
    (lambda d: d.update(metadata={"seed": 7}), "metadata.seed must be a string, got 7"),
    (lambda d: d.update(metadata={"note": None}), "metadata.note must be a string, got None"),
    (lambda d: d["problems"][1].update(confidences=[10**400]),
     r"problems\[1\]: confidence 10{400} outside the 1-10 scale"),
    (lambda d: d.update(max_iterations=10**20),
     "max_iterations must be below 9223372036854775807, got 10{20}"),
    (lambda d: d.update(calibration_rates={"eir": 0.02, "ecr": 0.01}),
     "calibration_rates are used only in calibration-only equilibrium mode, not disabled"),
    (lambda d: d.update(calibration_rates={"eir": 0.02, "ecr": 0.01}, equilibrium_mode="online-labeled"),
     "calibration_rates are used only in calibration-only equilibrium mode, not online-labeled"),
    (lambda d: d.update(max_iteratons=1), "scenario has unknown key 'max_iteratons'"),
    (lambda d: d["problems"][1].update(corect=[True]), r"problems\[1\] has unknown key 'corect'"),
    (lambda d: d.update(equilibrium_mode="calibration-only", calibration_rates={"eir": 0.1, "ecr": 0.2, "ecrr": 0}),
     "calibration_rates has unknown key 'ecrr'"),
    (lambda d: d.update(equilibrium_mode="calibration-only", calibration_rates=[0.02, 0.01]),
     re.escape("calibration_rates must be an object {eir, ecr}, got [0.02, 0.01]")),
    (lambda d: d.update(equilibrium_mode="calibration-only", calibration_rates={"eir": 0.02}),
     re.escape("calibration_rates must be {eir, ecr} probabilities, missing 'ecr'")),
    (lambda d: d.update(equilibrium_mode="calibration-only", calibration_rates={"eir": 2, "ecr": 0.1}),
     re.escape("calibration_rates must be {eir, ecr} probabilities: eir must be a number in [0, 1], got 2")),
    (lambda d: d.update(equilibrium_mode="calibration-only", calibration_rates={"eir": True, "ecr": 0.1}),
     re.escape("calibration_rates must be {eir, ecr} probabilities: eir must be a number in [0, 1], got True")),
    (lambda d: d.update(equilibrium_mode="calibration-only", calibration_rates={"eir": "x", "ecr": 0.1}),
     re.escape("calibration_rates must be {eir, ecr} probabilities: eir must be a number in [0, 1], got 'x'")),
]


@pytest.mark.parametrize("mutate,fragment", _SCENARIO_FAULTS)
def test_scenario_validation_errors(tmp_path, mutate, fragment):
    doc = _scenario_doc()
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=fragment):
        load_scenario(path)


def test_scenario_accepts_zero_one_labels(tmp_path):
    doc = _scenario_doc()
    doc["problems"][0]["correct"] = [0, 1]
    doc["problems"][1]["correct"] = [True]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    labels = load_scenario(path).labels
    assert labels.dtype == bool
    assert labels.tolist() == [[False, True], [True, False]]  # False past p1's one answer


def test_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


def test_scenario_that_is_not_utf8_is_a_scenario_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps(_scenario_doc()).encode().replace(b'"p1"', b'"p\xff"'))
    with pytest.raises(ScenarioError, match="^not UTF-8: 'utf-8' codec can't decode byte 0xff"):
        load_scenario(path)
    assert main(["asc", str(path), "--out", str(tmp_path / "out")]) == EXIT_DATA


def test_scenario_whose_answers_run_out_names_the_first_problem(tmp_path):
    doc = _scenario_doc()
    doc["problems"][0].update(confidences=[5, 5])  # not confident, so round 2 asks for a third answer
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=re.escape(
            "answers of problem 'p0' ran out after 2; max_iterations 4 can ask for up to 5")):
        run_scenario(load_scenario(path))
    # a script that runs out in an earlier round is named first, whatever its place
    doc["problems"].append({"id": "p2", "answers": ["z"], "confidences": [5]})
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="answers of problem 'p2' ran out after 1;"):
        run_scenario(load_scenario(path))


def test_online_scenario_requires_correct_fields(tmp_path):
    doc = _scenario_doc()
    doc["equilibrium_mode"] = "online-labeled"
    doc["problems"] = [{"id": "p0", "answers": ["a", "b"], "confidences": [5, 5]}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="label"):
        run_scenario(load_scenario(path))


def test_online_scenario_with_one_problem_unlabeled_is_refused(tmp_path, capsys):
    doc = _scenario_doc()
    doc["equilibrium_mode"] = "online-labeled"
    doc["problems"][0]["correct"] = [False, True]  # p1 stays unlabeled
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    message = "online-labeled scenarios must label every problem"
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        run_scenario(load_scenario(path))
    out = tmp_path / "out"
    assert main(["asc", str(path), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"refineloop: bad input: {message}\n"
    assert not (out / "outcomes.csv").exists()


# -- columns against one state machine per problem ---------------------------------


class _RanOut(Exception):
    def __init__(self, problem, k):
        super().__init__(problem, k)
        self.problem, self.k = problem, k


def _reference_rates(flows):
    n_cc, n_ci, n_ic, n_ii = flows
    if n_cc + n_ci and n_ic + n_ii:
        return TransitionRates(n_ci / (n_cc + n_ci), n_ic / (n_ic + n_ii))
    return None


def _reference_run(scripts, config):
    """The controller as a plain loop with one state machine per problem.

    ``scripts`` maps each id to (answers, confidences, labels). Returns
    (outcomes in script order, summary, backend calls); raises
    ``_RanOut`` for the first answer a script lacks.
    """
    answers = {pid: [] for pid in scripts}
    scores = {pid: [] for pid in scripts}
    stopped = {}  # pid -> (kept index, reason)
    calls = []
    flows = [0, 0, 0, 0]  # n_cc, n_ci, n_ic, n_ii
    rounds, fired = 0, None
    for k in range(config.max_iterations + 1):
        refining = [pid for pid in scripts if pid not in stopped]
        if not refining:
            break
        for pid in refining:
            script_answers, script_scores, _ = scripts[pid]
            calls.append(("refine" if k else "generate", pid))
            if k >= len(script_answers):
                raise _RanOut(pid, k)
            answers[pid].append(script_answers[k])
            calls.append(("confidence", pid))
            scores[pid].append(float(script_scores[k]))
            if scores[pid][-1] >= config.tau:
                stopped[pid] = (k, StopReason.CONFIDENCE)
        if k == 0:
            continue
        rounds = k
        halt = False
        if config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED:
            for pid in refining:
                was, now = scripts[pid][2][k - 1], scripts[pid][2][k]
                flows[2 * (not was) + (not now)] += 1
            n_cc, n_ci, n_ic, n_ii = flows  # both pools filled, and no more fixed than broken
            halt = bool(n_cc + n_ci and n_ic + n_ii and n_ci >= n_ic)
        elif config.equilibrium_mode is EquilibriumMode.CALIBRATION_ONLY:
            halt = config.calibration_rates.eir >= config.calibration_rates.ecr
        if halt:
            stopping = [pid for pid in refining if pid not in stopped]
            for pid in stopping:
                stopped[pid] = (k - 1, StopReason.EQUILIBRIUM)
            if stopping and fired is None:
                fired = k
    outcomes = []
    for pid in scripts:
        k, reason = stopped.get(pid, (len(answers[pid]) - 1, StopReason.BUDGET))
        outcomes.append(AscOutcome(answers[pid][k], k, reason, tuple(scores[pid])))
    online = config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED
    summary = BatchSummary(
        n_instances=len(outcomes),
        rounds_executed=rounds,
        iterations_histogram=dict(sorted(Counter(o.iterations_used for o in outcomes).items())),
        stop_reasons=dict(Counter(o.stop_reason for o in outcomes)),
        equilibrium_fired_round=fired,
        final_pooled_rates=_reference_rates(flows) if online else None,
    )
    return outcomes, summary, calls


@pytest.mark.parametrize("text, key", [
    ('"tau": 1, "tau": 9', "tau"),
    ('"metadata": {"note": "a", "note": "b"}', "note"),
    ('"problems": [{"id": "p0", "answers": ["a"], "confidences": [9], "id": "p1"}]', "id"),
])
def test_scenario_refuses_a_repeated_key(tmp_path, text, key):
    # JSON would keep the last value of a repeated key; a scenario names the key instead
    doc = _scenario_doc()
    head = json.dumps(doc)[:-1]  # the document without its closing brace
    path = tmp_path / "scenario.json"
    path.write_text(f"{head}, {text}}}")
    with pytest.raises(ScenarioError, match=f"key '{key}' appears more than once in one object"):
        load_scenario(path)


@st.composite
def _scenarios(draw):
    max_iterations = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    scripts = {}
    for i in range(n):
        length = draw(st.integers(1, max_iterations + 2))  # ragged: a script may run out, or hold spares
        scores = draw(st.lists(st.integers(1, 10) | st.floats(1.0, 10.0), min_size=length, max_size=length))
        labels = draw(st.lists(st.booleans(), min_size=length, max_size=length))
        scripts[f"q{i}"] = ([f"q{i}-r{k}" for k in range(length)], scores, labels)
    mode = draw(st.sampled_from(EquilibriumMode))
    rates = None
    if mode is EquilibriumMode.CALIBRATION_ONLY:
        rates = TransitionRates(draw(st.sampled_from([0.0, 0.1, 0.3])), draw(st.sampled_from([0.0, 0.1, 0.3])))
    config = AscConfig(tau=draw(st.integers(1, 10) | st.floats(1.0, 10.0)), max_iterations=max_iterations,
                       calibration_rates=rates, equilibrium_mode=mode)
    return scripts, config


def _drawn_doc(scripts, config):
    """The scenario document of a ``_scenarios()`` draw."""
    doc = {
        "format": "asc-scenario/v1",
        "tau": config.tau,
        "max_iterations": config.max_iterations,
        "equilibrium_mode": config.equilibrium_mode.value,
        "problems": [{"id": pid, "answers": a, "confidences": g, "correct": c} for pid, (a, g, c) in scripts.items()],
    }
    if config.calibration_rates is not None:
        doc["calibration_rates"] = {"eir": config.calibration_rates.eir, "ecr": config.calibration_rates.ecr}
    return doc


@settings(max_examples=300, deadline=None)
@given(_scenarios())
def test_columns_match_a_state_machine_per_problem(tmp_path_factory, drawn):
    scripts, config = drawn
    try:
        want, want_summary, want_calls = _reference_run(scripts, config)
        ran_out = None
    except _RanOut as exc:
        ran_out = exc
    path = tmp_path_factory.getbasetemp() / "columns-property.json"
    path.write_text(json.dumps(_drawn_doc(scripts, config)))
    scenario = load_scenario(path)
    backend = ScriptedBackend([ScriptedProblem(pid, tuple(a), tuple(map(float, g)))
                               for pid, (a, g, _) in scripts.items()])
    labels = {pid: tuple(c) for pid, (_, _, c) in scripts.items()}
    if ran_out is not None:
        message = f"answers of problem {ran_out.problem!r} ran out after {ran_out.k};"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run_scenario(scenario)
        with pytest.raises(AscBackendError) as err:
            run_asc_batch(list(scripts), backend, config, labels=labels)
        assert (err.value.problem, len(err.value.answers)) == (ran_out.problem, ran_out.k)
        return
    outcomes, summary, replay = run_scenario(scenario)
    assert outcomes.iterations_used.tolist() == [o.iterations_used for o in want]
    assert [list(StopReason)[c] for c in outcomes.stop_codes.tolist()] == [o.stop_reason for o in want]
    assert outcomes.answers_asked.tolist() == [len(o.confidence_trace) for o in want]
    assert summary == want_summary and list(summary.stop_reasons) == list(want_summary.stop_reasons)
    assert replay.calls == want_calls
    batch, batch_summary = run_asc_batch(list(scripts), backend, config, labels=labels)
    assert batch == want
    assert batch_summary == want_summary
    assert backend.calls == want_calls


# -- columns checked and built whole; the per-problem check only words a refusal ---


def _columns_key(columns):
    """The five scenario columns, comparable: reprs hold NaN equal to NaN and 5 apart from 5.0."""
    ids, answers, confidences, counts, labels = columns
    return (repr(ids), repr(answers), confidences.dtype, repr(confidences.tolist()), counts.dtype, counts.tolist(),
            None if labels is None else (labels.dtype, labels.tolist()))


def _expected_columns(raw_problems):
    """The columns of well-formed parsed problems, built one problem at a time."""
    counts = [len(p["answers"]) for p in raw_problems]
    width = max(counts)
    confidences = np.array([[float(g) for g in p["confidences"]] + [math.nan] * (width - n)
                            for p, n in zip(raw_problems, counts)])
    labels = None
    if all("correct" in p for p in raw_problems):
        labels = np.array([[bool(c) for c in p["correct"]] + [False] * (width - n)
                           for p, n in zip(raw_problems, counts)])
    return ([p["id"] for p in raw_problems], [p["answers"] for p in raw_problems], confidences,
            np.array(counts, dtype=np.int64), labels)


def _refuses_a_problem(raw_problems):
    """Whether ``_refuse_problem`` refuses some problem."""
    for index, entry in enumerate(raw_problems):
        try:
            asc._refuse_problem(index, entry)
        except ScenarioError:
            return True
    return False


def _load_outcome(path):
    """``load_scenario(path)`` in comparable form, or the text of its refusal."""
    try:
        s = load_scenario(path)
    except ScenarioError as exc:
        return str(exc)
    return s.config, s.metadata, _columns_key((s.ids, s.answers, s.confidences, s.counts, s.labels))


def _assert_columns_or_refusal(path):
    """``_scenario_columns`` gives None exactly when ``_refuse_problem`` refuses a problem, else the plain columns."""
    doc = json.loads(path.read_text())
    raw = doc.get("problems") if isinstance(doc, dict) else None
    if isinstance(raw, list) and raw:  # as load_scenario hands them over
        columns = asc._scenario_columns(raw)
        if _refuses_a_problem(raw):
            assert columns is None
        else:
            assert _columns_key(columns) == _columns_key(_expected_columns(raw))
    _load_outcome(path)  # loads or refuses, never an internal breach


_COLUMN_CASES = [
    lambda d: d["problems"][0].update(confidences=[5.5, 9]),  # float and int scores
    lambda d: d["problems"][0].update(confidences=[1, 10.0]),  # the scale's ends
    lambda d: [p.update(correct=[1] * len(p["answers"])) for p in d["problems"]],
    lambda d: [p.update(correct=[False] * len(p["answers"])) for p in d["problems"]],
    lambda d: [p.update(correct=[True, 0][:len(p["answers"])]) for p in d["problems"]],
    lambda d: d["problems"][0].update(correct=[True, False]),  # labeled and unlabeled problems mixed
    lambda d: [p.update(correct=[True]) for p in d["problems"]],  # one label short
    lambda d: [p.update(correct=c) for p, c in zip(d["problems"], ([True], [True, False]))],  # as many in all
    lambda d: d["problems"][1].update(correct=[1.0]),
    lambda d: d["problems"][1].update(correct=[math.nan]),
    lambda d: d["problems"][0].update(confidences=[math.nan, 9]),
    lambda d: d["problems"][0].update(confidences=[5, "1e309"]),  # written as the bare number 1e309
    lambda d: d["problems"][0].update(confidences=[5, 9.000000000000002]),
    lambda d: d["problems"][0].update(confidences=[True, 9]),
    lambda d: d["problems"][1].update(answers=[None], id=""),
    lambda d: d["problems"][1].update(answers=[["x"]]),
    lambda d: d["problems"].insert(0, {"confidences": [9], "answers": ["z"], "id": "z"}),  # keys in another order
]


@pytest.mark.parametrize("mutate", [mutate for mutate, _ in _SCENARIO_FAULTS] + _COLUMN_CASES)
def test_column_check_gives_the_loop_columns_or_nothing(tmp_path, mutate):
    doc = _scenario_doc()
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"1e309"', "1e309"))
    _assert_columns_or_refusal(path)


@settings(max_examples=100, deadline=None)
@given(_scenarios(), st.booleans())
def test_column_check_on_drawn_scenarios(tmp_path_factory, drawn, unlabel_first):
    doc = _drawn_doc(*drawn)
    if unlabel_first:
        del doc["problems"][0]["correct"]
    path = tmp_path_factory.getbasetemp() / "column-check-property.json"
    path.write_text(json.dumps(doc))
    _assert_columns_or_refusal(path)


def _no_refusal(index, entry):
    raise AssertionError("a scenario reached the per-problem check")


def test_bench_and_golden_scenarios_take_the_column_check(tmp_path, monkeypatch):
    workloads = _bench_module("workloads")
    bench = tmp_path / "bench.json"
    workloads._asc_scenario(1, workloads.SIZES["smoke"]["paper-scale"]["asc_n"], bench)
    paths = [bench]
    for name, doc in {**SCENARIOS, "fixture.json": _scenario_doc()}.items():  # int scores, 0/1 labels
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc, indent=1))
    monkeypatch.setattr(asc, "_refuse_problem", _no_refusal)
    for path in paths:
        s = load_scenario(path)
        want = _expected_columns(json.loads(path.read_text())["problems"])
        assert _columns_key((s.ids, s.answers, s.confidences, s.counts, s.labels)) == _columns_key(want)


def test_mixed_labels_are_built_by_the_columns(tmp_path, monkeypatch):
    doc = _scenario_doc()
    doc["problems"][1]["correct"] = [True]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with monkeypatch.context() as patch:
        patch.setattr(asc, "_refuse_problem", _no_refusal)
        s = load_scenario(path)
    assert s.labels is None
    assert _columns_key((s.ids, s.answers, s.confidences, s.counts, s.labels)) == _columns_key(
        _expected_columns(doc["problems"]))
    doc["problems"][0]["correct"] = [2, 1]  # the labeled problem, beside an unlabeled one
    del doc["problems"][1]["correct"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=re.escape("problems[0].correct must hold booleans (or 0/1), got 2")):
        load_scenario(path)


def test_a_column_refusal_no_problem_words_is_an_internal_breach(tmp_path, monkeypatch, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_scenario_doc()))
    monkeypatch.setattr(asc, "_scenario_columns", lambda raw_problems: None)
    with pytest.raises(AssertionError, match="per-problem check"):
        load_scenario(path)
    assert main(["asc", str(path), "--out", str(tmp_path / "out")]) == EXIT_INTERNAL


_SWEEP_VALUES = [None, True, False, 0, 1, -1, 0.5, 10, 11, 10**400, math.nan, math.inf, "", "x",
                 [], [None], [1], [True], ["a"], {}, {"eir": 0.1}]


def test_golden_scenario_variants_exit_ok_or_refused(tmp_path, capsys):
    # every top-level field, per-problem field, and first score and label set to each value:
    # a clean exit or a refusal, never a crash
    golden = SCENARIOS["online.json"]
    variants = []
    for key in sorted(asc._SCENARIO_KEYS):
        variants += [{**golden, key: value} for value in _SWEEP_VALUES]
    for i, problem in enumerate(golden["problems"]):
        for key in sorted(asc._PROBLEM_KEYS):
            for value in _SWEEP_VALUES:
                edits = [value] + ([[value, *problem[key][1:]]] if key in ("confidences", "correct") else [])
                variants += [{**golden, "problems": [*golden["problems"][:i], {**problem, key: edit},
                                                     *golden["problems"][i + 1:]]} for edit in edits]
    codes = Counter()
    for n, doc in enumerate(variants):
        path = tmp_path / f"variant{n}.json"
        path.write_text(json.dumps(doc))
        code = main(["asc", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_DATA), (path.read_text(), err)
        codes[code] += 1
    assert codes == {EXIT_OK: 46, EXIT_DATA: 731}


# -- confidence tax: build_report's paired comparison at iteration 0 ------------


def _column_log(n_correct, n, prefix="p"):
    bits = np.zeros((n, 1), dtype=bool)
    bits[:n_correct, 0] = True
    return CorrectnessLog(problem_ids=[f"{prefix}{i}" for i in range(n)], correctness=bits)


def _tax(with_prompt, without, **kwargs):
    """Iteration-0 accuracy with minus without confidence elicitation, paired by id."""
    return build_report({"without": without, "with": with_prompt}, **kwargs).paired


def test_confidence_tax_identical_logs():
    log = _column_log(400, 500)
    tax = _tax(log, log, resamples=200)
    assert tax.final_bootstrap.delta_pp == 0.0
    assert tax.final_mcnemar.no_discordance
    assert tax.final_bootstrap.ci_lo == tax.final_bootstrap.ci_hi == 0.0


def test_confidence_tax_published_magnitude():
    with_prompt = _column_log(437, 500)  # 87.4%
    without = _column_log(456, 500)  # 91.2%
    report = build_report({"without": without, "with": with_prompt}, seed=1, resamples=2000)
    assert [run.estimates.accuracy_series[0].accuracy for run in report.runs] == [0.912, 0.874]
    tax = report.paired
    assert tax.delta_pp_by_iteration[0] == pytest.approx(-3.8, abs=1e-9)
    assert tax.final_bootstrap.delta_pp == pytest.approx(-3.8, abs=1e-9)
    assert tax.final_mcnemar.b == 19  # correct without, spoiled with
    assert tax.final_mcnemar.c == 0
    assert (tax.final_bootstrap.ci_lo, tax.final_bootstrap.ci_hi) == pytest.approx((-5.6, -2.2), abs=1e-9)


def test_confidence_tax_degenerate_single_problem():
    a = CorrectnessLog(problem_ids=["p0"], correctness=np.array([[True]]))
    b = CorrectnessLog(problem_ids=["p0"], correctness=np.array([[False]]))
    assert _tax(a, b, resamples=50).final_bootstrap.delta_pp == 100.0
    assert _tax(b, a, resamples=50).final_bootstrap.delta_pp == -100.0


def test_confidence_tax_requires_same_problems():
    a = _column_log(1, 2, prefix="a")
    b = _column_log(1, 2, prefix="b")
    with pytest.raises(ValueError, match="different problem sets"):
        _tax(a, b)


def test_confidence_tax_aligns_by_id():
    # same underlying outcomes, rows permuted; delta must be zero
    a = CorrectnessLog(problem_ids=["x", "y"], correctness=np.array([[1], [0]], dtype=bool))
    b = CorrectnessLog(problem_ids=["y", "x"], correctness=np.array([[0], [1]], dtype=bool))
    tax = _tax(a, b, resamples=50)
    assert tax.final_bootstrap.delta_pp == 0.0
    assert tax.final_mcnemar.no_discordance
