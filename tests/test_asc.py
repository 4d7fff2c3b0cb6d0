"""Adaptive stopping controller: golden traces and batch behavior.

The golden traces are frozen call sequences from hand executions of the
control flow: generate, score, early return on confidence; otherwise
refine/score rounds with the confidence check strictly before the
equilibrium check, equilibrium returning the previous answer.
"""

import json

import numpy as np
import pytest

from refineloop.asc import (
    AscBackendError,
    AscConfig,
    EquilibriumMode,
    Scenario,
    ScenarioError,
    ScriptedBackend,
    ScriptedProblem,
    StopReason,
    confidence_tax_report,
    load_scenario,
    run_asc_batch,
    run_asc_instance,
    run_scenario,
)
from refineloop.dynamics import TransitionRates
from refineloop.estimate import pooled_rates, transition_counts
from refineloop.logs import CorrectnessLog
from refineloop.schedule import preset, preset_baseline
from refineloop.simulate import deterministic_replay


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


def test_equilibrium_feed_consulted_each_round():
    feeds = [None, TransitionRates(0.1, 0.0)]
    backend = ScriptedBackend([_scripted("q6", [5, 5, 5])])
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    outcome = run_asc_instance("q6", backend, config, equilibrium_feed=lambda: feeds.pop(0))
    assert outcome.stop_reason is StopReason.EQUILIBRIUM
    assert outcome.iterations_used == 1
    assert outcome.final_answer == "q6-r1"


def test_online_mode_without_feed_rejected():
    backend = ScriptedBackend([_scripted("q7", [5, 5])])
    config = AscConfig(equilibrium_mode=EquilibriumMode.ONLINE_LABELED)
    with pytest.raises(ValueError, match="equilibrium_feed"):
        run_asc_instance("q7", backend, config)


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


def test_config_validation():
    with pytest.raises(ValueError):
        AscConfig(tau=0.5)
    with pytest.raises(ValueError):
        AscConfig(tau=10.5)
    with pytest.raises(ValueError):
        AscConfig(max_iterations=0)
    with pytest.raises(ValueError):
        AscConfig(equilibrium_mode=EquilibriumMode.CALIBRATION_ONLY)


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


def _labeled_feed(correct):
    """The rates a one-problem online-labeled batch pools after each round."""
    flows = transition_counts(np.array([correct]))
    feeds = []
    for k in range(1, len(correct)):
        eir, ecr = pooled_rates(flows[:k])
        feeds.append(None if eir is None or ecr is None else TransitionRates(eir, ecr))
    return iter(feeds).__next__


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
    for config, feed in ((AscConfig(), None), (calibrated, None), (online, _labeled_feed(correct))):
        script = [_scripted("q", confidences, n_answers=5)]
        alone, batch = ScriptedBackend(script), ScriptedBackend(script)
        outcome = run_asc_instance("q", alone, config, equilibrium_feed=feed)
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
    outcomes, summary, backend = run_scenario(scenario)
    assert outcomes[0].final_answer == "b"
    assert outcomes[0].iterations_used == 1
    assert outcomes[1].iterations_used == 0
    assert summary.n_instances == 2
    # byte-identical traces on a second run
    again, _, backend2 = run_scenario(scenario)
    assert backend2.calls == backend.calls
    assert [o.final_answer for o in again] == [o.final_answer for o in outcomes]


def test_scenario_with_calibration_rates(tmp_path):
    doc = _scenario_doc()
    doc["equilibrium_mode"] = "calibration-only"
    doc["calibration_rates"] = {"eir": 0.02, "ecr": 0.01}
    doc["problems"] = [{"id": "p0", "answers": ["a", "b"], "confidences": [5, 5]}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    outcomes, _, _ = run_scenario(load_scenario(path))
    assert outcomes[0].stop_reason is StopReason.EQUILIBRIUM
    assert outcomes[0].final_answer == "a"


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(format="nope"), "format"),
        (lambda d: d.update(equilibrium_mode="sometimes"), "equilibrium_mode"),
        (lambda d: d.update(tau=0.0), "tau"),
        (lambda d: d.update(problems=[]), "non-empty problems"),
        (lambda d: d["problems"][0].update(confidences=[5]), "answers vs"),
        (lambda d: d["problems"][0].update(confidences=[5, 11]), "1-10 scale"),
        (lambda d: d["problems"].append(dict(d["problems"][0])), "unique"),
        (lambda d: d["problems"][0].pop("answers"), "missing field"),
    ],
)
def test_scenario_validation_errors(tmp_path, mutate, fragment):
    doc = _scenario_doc()
    mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=fragment):
        load_scenario(path)


def test_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


def test_online_scenario_requires_correct_fields(tmp_path):
    doc = _scenario_doc()
    doc["equilibrium_mode"] = "online-labeled"
    doc["problems"] = [{"id": "p0", "answers": ["a", "b"], "confidences": [5, 5]}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="label"):
        run_scenario(load_scenario(path))


# -- confidence tax -------------------------------------------------------------


def _column_log(n_correct, n, prefix="p"):
    bits = np.zeros((n, 1), dtype=bool)
    bits[:n_correct, 0] = True
    return CorrectnessLog(problem_ids=[f"{prefix}{i}" for i in range(n)], correctness=bits)


def test_confidence_tax_identical_logs():
    log = _column_log(400, 500)
    report = confidence_tax_report(log, log, resamples=200)
    assert report.delta_pp == 0.0
    assert report.test.no_discordance
    assert report.bootstrap.ci_lo == report.bootstrap.ci_hi == 0.0


def test_confidence_tax_published_magnitude():
    with_prompt = _column_log(437, 500)  # 87.4%
    without = _column_log(456, 500)  # 91.2%
    report = confidence_tax_report(with_prompt, without, resamples=2000, seed=1)
    assert report.accuracy_with == pytest.approx(0.874)
    assert report.accuracy_without == pytest.approx(0.912)
    assert report.delta_pp == pytest.approx(-3.8, abs=1e-9)
    assert report.test.b == 19  # correct without, spoiled with
    assert report.test.c == 0
    assert report.bootstrap.ci_hi < 0.0


def test_confidence_tax_degenerate_single_problem():
    a = CorrectnessLog(problem_ids=["p0"], correctness=np.array([[True]]))
    b = CorrectnessLog(problem_ids=["p0"], correctness=np.array([[False]]))
    report = confidence_tax_report(a, b, resamples=50)
    assert report.delta_pp == 100.0
    report = confidence_tax_report(b, a, resamples=50)
    assert report.delta_pp == -100.0


def test_confidence_tax_requires_same_problems():
    a = _column_log(1, 2, prefix="a")
    b = _column_log(1, 2, prefix="b")
    with pytest.raises(ValueError, match="different problem sets"):
        confidence_tax_report(a, b)


def test_confidence_tax_aligns_by_id():
    # same underlying outcomes, rows permuted; delta must be zero
    a = CorrectnessLog(problem_ids=["x", "y"], correctness=np.array([[1], [0]], dtype=bool))
    b = CorrectnessLog(problem_ids=["y", "x"], correctness=np.array([[0], [1]], dtype=bool))
    report = confidence_tax_report(a, b, resamples=50)
    assert report.delta_pp == 0.0
    assert report.test.no_discordance
