"""Adaptive stopping controller for refinement loops.

One instance runs: generate an answer, score confidence; if confident,
stop. Otherwise refine up to ``max_iterations`` times, and after each
refinement stop on the first of two criteria, checked in this order:

* confidence: the new answer's score reaches ``tau`` -- keep it;
* equilibrium: the running error-introduction rate has caught up with the
  error-correction rate (``eir >= ecr``, ties stop) -- the loop is no
  longer expected to help, so keep the *previous* answer.

If neither fires, the budget runs out and the last answer stands. Where
the rates come from is explicit: a calibration pair fixed up front, a
live labeled estimate (online-labeled mode), or nothing (criterion
disabled).

One lockstep loop runs every instance; a single problem is a batch of
one. With labels the batch pools transition counts across instances
after every round and applies one shared equilibrium decision to the
still-active instances.
"""

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping, Protocol, Sequence

import numpy as np

from .dynamics import TransitionRates, _check_int, _check_real
from .estimate import pooled_rates, transition_counts
from .logs import align_rows
from .stats import McNemarResult, BootstrapDelta, mcnemar_from_logs, paired_bootstrap_delta

__all__ = [
    "StopReason",
    "EquilibriumMode",
    "AscConfig",
    "RefinementBackend",
    "AscBackendError",
    "AscOutcome",
    "BatchSummary",
    "run_asc_instance",
    "run_asc_batch",
    "ScriptedBackend",
    "ScenarioError",
    "Scenario",
    "load_scenario",
    "run_scenario",
    "ConfidenceTaxReport",
    "confidence_tax_report",
]


class StopReason(Enum):
    CONFIDENCE = "confidence"
    EQUILIBRIUM = "equilibrium"
    BUDGET = "budget"


class EquilibriumMode(Enum):
    DISABLED = "disabled"
    CALIBRATION_ONLY = "calibration-only"
    ONLINE_LABELED = "online-labeled"


@dataclass(frozen=True)
class AscConfig:
    tau: float = 8.0
    max_iterations: int = 4
    calibration_rates: TransitionRates | None = None
    equilibrium_mode: EquilibriumMode = EquilibriumMode.DISABLED

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_real("tau", self.tau, 1.0, 10.0))
        _check_int("max_iterations", self.max_iterations, 1)
        if self.equilibrium_mode is EquilibriumMode.CALIBRATION_ONLY and self.calibration_rates is None:
            raise ValueError("calibration-only equilibrium mode needs calibration_rates")


class RefinementBackend(Protocol):
    """What the controller needs from a model."""

    def generate(self, problem: Any) -> Any: ...

    def refine(self, problem: Any, previous: Any) -> Any: ...

    def confidence(self, problem: Any, answer: Any) -> float: ...


class AscBackendError(RuntimeError):
    """Backend failure, with the partial trace gathered before it."""

    def __init__(self, message: str, problem: Any, answers: list, scores: list):
        super().__init__(message)
        self.problem = problem
        self.answers = list(answers)
        self.scores = list(scores)


@dataclass(frozen=True)
class AscOutcome:
    final_answer: Any
    iterations_used: int  # also the index k of the kept answer r^(k)
    stop_reason: StopReason
    confidence_trace: tuple[float, ...]


class _Instance:
    """State machine for one problem; driven one round at a time."""

    def __init__(self, problem: Any, backend: RefinementBackend, config: AscConfig):
        self.problem = problem
        self.backend = backend
        self.config = config
        self.answers: list[Any] = []
        self.scores: list[float] = []
        self.outcome: AscOutcome | None = None

    @property
    def active(self) -> bool:
        return self.outcome is None

    def _call(self, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise AscBackendError(
                f"backend failed during {fn.__name__}: {exc}", self.problem, self.answers, self.scores
            ) from exc

    def stop(self, index: int, reason: StopReason) -> None:
        self.outcome = AscOutcome(
            final_answer=self.answers[index],
            iterations_used=index,
            stop_reason=reason,
            confidence_trace=tuple(self.scores),
        )

    def round(self) -> None:
        """Generate the first answer, or refine the latest; stop if confident."""
        if self.answers:
            answer = self._call(self.backend.refine, self.problem, self.answers[-1])
        else:
            answer = self._call(self.backend.generate, self.problem)
        self.answers.append(answer)
        score = self._call(self.backend.confidence, self.problem, answer)
        try:
            score = _check_real("confidence", score, 1.0, 10.0)
        except ValueError as exc:  # the partial trace ends at the answer that was scored
            raise AscBackendError(f"backend {exc}", self.problem, self.answers, self.scores) from None
        self.scores.append(score)
        if score >= self.config.tau:
            self.stop(len(self.answers) - 1, StopReason.CONFIDENCE)


def _run_rounds(instances: list[_Instance], config: AscConfig, labeled_rates) -> tuple[int, int | None]:
    """Drive ``instances`` in lockstep rounds to completion.

    Round 0 generates; round k >= 1 refines every active instance, then
    takes the rates that decide it -- ``labeled_rates(k, refining)`` in
    online-labeled mode, the calibration pair in calibration-only mode,
    none when disabled. Returns (refinement rounds run, first round in
    which equilibrium stopped an instance, or None).
    """
    mode = config.equilibrium_mode
    fixed = config.calibration_rates if mode is EquilibriumMode.CALIBRATION_ONLY else None
    rounds, fired_round = 0, None
    for k in range(config.max_iterations + 1):
        refining = [inst for inst in instances if inst.active]
        if not refining:
            break
        for inst in refining:
            inst.round()
        if k == 0:
            continue
        rounds = k
        rates = labeled_rates(k, refining) if mode is EquilibriumMode.ONLINE_LABELED else fixed
        # Ties stop: once introductions keep pace with corrections the
        # expected net benefit is not positive. The answer produced by the
        # round that triggered the stop is discarded in favor of its
        # predecessor.
        if rates is not None and rates.eir >= rates.ecr:
            stopping = [inst for inst in refining if inst.active]
            for inst in stopping:
                inst.stop(len(inst.answers) - 2, StopReason.EQUILIBRIUM)
            if stopping and fired_round is None:
                fired_round = k
    for inst in instances:
        if inst.active:
            inst.stop(len(inst.answers) - 1, StopReason.BUDGET)
    return rounds, fired_round


def run_asc_instance(
    problem: Any,
    backend: RefinementBackend,
    config: AscConfig,
    equilibrium_feed: Callable[[], TransitionRates | None] | None = None,
) -> AscOutcome:
    """Run the controller to completion for a single problem: a batch of one.

    In online-labeled mode ``equilibrium_feed()`` gives the rates after
    each refinement that leaves the instance running.
    """
    if config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED and equilibrium_feed is None:
        raise ValueError("online-labeled equilibrium mode needs an equilibrium_feed")
    inst = _Instance(problem, backend, config)
    _run_rounds([inst], config, lambda k, refining: equilibrium_feed() if inst.active else None)
    return inst.outcome


@dataclass(frozen=True)
class BatchSummary:
    n_instances: int
    rounds_executed: int
    iterations_histogram: dict[int, int]
    stop_reasons: dict[StopReason, int]
    equilibrium_fired_round: int | None
    final_pooled_rates: TransitionRates | None


def _equilibrium_rates(flows: np.ndarray) -> TransitionRates | None:
    # Both pools must be populated before the criterion can compare the
    # two estimates; otherwise it is skipped for the round.
    eir, ecr = pooled_rates(flows)
    if eir is None or ecr is None:
        return None
    return TransitionRates(eir=eir, ecr=ecr)


def _label_lookup(labels, problem: Any, iteration: int) -> bool:
    try:
        return bool(labels[problem][iteration])
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(
            f"online-labeled mode: no label for problem {problem!r}, iteration {iteration}"
        ) from exc


def run_asc_batch(
    problems: Sequence[Any],
    backend: RefinementBackend,
    config: AscConfig,
    labels: Mapping[Any, Sequence[bool]] | None = None,
) -> tuple[list[AscOutcome], BatchSummary]:
    """Run many instances in lockstep rounds under one shared stop rule.

    In online-labeled mode ``labels[problem][k]`` must give the
    correctness of that problem's iteration-k answer; rates are re-pooled
    after every round from all transitions executed so far, and one
    equilibrium decision is applied to every still-active instance.
    """
    online = config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED
    if online:
        if labels is None:
            raise ValueError("online-labeled equilibrium mode needs labels for every problem")
        for problem in problems:
            _label_lookup(labels, problem, 0)
    flows = np.zeros((1, 4), dtype=np.int64)  # pooled n_cc, n_ci, n_ic, n_ii

    def pooled_after(k: int, refining: list[_Instance]) -> TransitionRates | None:
        # Every instance that refined this round contributes its observed
        # transition, including ones that just stopped on confidence; their
        # labels are data like any other.
        was = [_label_lookup(labels, inst.problem, k - 1) for inst in refining]
        now = [_label_lookup(labels, inst.problem, k) for inst in refining]
        flows[:] += transition_counts(np.column_stack([was, now]))
        return _equilibrium_rates(flows)

    instances = [_Instance(p, backend, config) for p in problems]
    rounds, fired_round = _run_rounds(instances, config, pooled_after)
    outcomes = [inst.outcome for inst in instances]
    return outcomes, BatchSummary(
        n_instances=len(outcomes),
        rounds_executed=rounds,
        iterations_histogram=dict(sorted(Counter(o.iterations_used for o in outcomes).items())),
        stop_reasons=dict(Counter(o.stop_reason for o in outcomes)),
        equilibrium_fired_round=fired_round,
        final_pooled_rates=_equilibrium_rates(flows) if online else None,
    )


# -- scripted scenarios -------------------------------------------------------

SCENARIO_VERSION = "asc-scenario/v1"


class ScenarioError(ValueError):
    """A scenario file violated the format."""


@dataclass(frozen=True)
class ScriptedProblem:
    problem_id: str
    answers: tuple[Any, ...]  # r^(0), r^(1), ...
    confidences: tuple[float, ...]
    correct: tuple[bool, ...] | None = None


class ScriptedBackend:
    """Replays scripted answers and confidence scores; records every call.

    ``calls`` accumulates (method, problem_id) tuples in invocation order,
    which doubles as the golden trace in tests.
    """

    def __init__(self, problems: Sequence[ScriptedProblem]):
        self._scripts = {p.problem_id: p for p in problems}
        self._cursor = {p.problem_id: 0 for p in problems}
        self.calls: list[tuple[str, str]] = []

    def _script(self, problem: str) -> ScriptedProblem:
        try:
            return self._scripts[problem]
        except KeyError:
            raise KeyError(f"no script for problem {problem!r}") from None

    def _next_answer(self, problem: str) -> Any:
        script = self._script(problem)
        k = self._cursor[problem]
        if k >= len(script.answers):
            raise IndexError(f"script for {problem!r} exhausted after {k} answers")
        self._cursor[problem] = k + 1
        return script.answers[k]

    def generate(self, problem: str) -> Any:
        self.calls.append(("generate", problem))
        return self._next_answer(problem)

    def refine(self, problem: str, previous: Any) -> Any:
        self.calls.append(("refine", problem))
        return self._next_answer(problem)

    def confidence(self, problem: str, answer: Any) -> float:
        self.calls.append(("confidence", problem))
        script = self._script(problem)
        return script.confidences[self._cursor[problem] - 1]


@dataclass(frozen=True)
class Scenario:
    config: AscConfig
    problems: tuple[ScriptedProblem, ...]
    metadata: dict[str, str]

    def labels(self) -> dict[str, tuple[bool, ...]] | None:
        if any(p.correct is None for p in self.problems):
            return None
        return {p.problem_id: p.correct for p in self.problems}


def _scenario_array(entry: dict, field: str, index: int, types=None, rule: str = "") -> tuple:
    """``entry[field]`` as a tuple, refused unless it is a JSON array whose items' types are in ``types``."""
    value = entry[field]
    if not isinstance(value, list):
        raise ScenarioError(f"problems[{index}].{field} must be an array, got {value!r}")
    if types is not None and not set(map(type, value)) <= types:  # bool is not int here
        bad = next(item for item in value if type(item) not in types)
        raise ScenarioError(f"problems[{index}].{field} must hold {rule}, got {bad!r}")
    return tuple(value)


def _scenario_problem(entry, index: int) -> ScriptedProblem:
    if not isinstance(entry, dict):
        raise ScenarioError(f"problems[{index}] must be an object")
    try:
        pid = entry["id"]
        answers = _scenario_array(entry, "answers", index)
        confidences = tuple(map(float, _scenario_array(entry, "confidences", index, {int, float}, "numbers")))
    except KeyError as exc:
        raise ScenarioError(f"problems[{index}] missing field {exc}") from None
    if not isinstance(pid, str):
        raise ScenarioError(f"problems[{index}].id must be a string, got {pid!r}")
    if len(answers) != len(confidences):
        raise ScenarioError(
            f"problems[{index}]: {len(answers)} answers vs {len(confidences)} confidences"
        )
    if not answers:
        raise ScenarioError(f"problems[{index}]: needs at least the initial answer")
    for g in confidences:
        if not 1.0 <= g <= 10.0:
            raise ScenarioError(f"problems[{index}]: confidence {g} outside the 1-10 scale")
    correct = None
    if "correct" in entry:
        rule = "booleans (or 0/1)"
        labels = _scenario_array(entry, "correct", index, {bool, int}, rule)
        if not set(labels) <= {0, 1}:  # False == 0 and True == 1
            bad = next(c for c in labels if c not in (0, 1))
            raise ScenarioError(f"problems[{index}].correct must hold {rule}, got {bad!r}")
        correct = tuple(map(bool, labels))
        if len(correct) != len(answers):
            raise ScenarioError(f"problems[{index}]: correct length must match answers")
    return ScriptedProblem(problem_id=pid, answers=answers, confidences=confidences, correct=correct)


def load_scenario(path) -> Scenario:
    """Parse a declarative scenario file (JSON, versioned)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != SCENARIO_VERSION:
        raise ScenarioError(f"expected a JSON object with format={SCENARIO_VERSION!r}")
    try:
        mode = EquilibriumMode(doc.get("equilibrium_mode", "disabled"))
    except ValueError:
        raise ScenarioError(
            f"equilibrium_mode must be one of {[m.value for m in EquilibriumMode]}"
        ) from None
    rates = None
    if "calibration_rates" in doc:
        pair = doc["calibration_rates"]
        try:
            rates = TransitionRates(pair["eir"], pair["ecr"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ScenarioError(f"calibration_rates must be {{eir, ecr}} probabilities: {exc}") from None
    try:
        config = AscConfig(
            tau=doc.get("tau", 8.0),
            max_iterations=doc.get("max_iterations", 4),
            calibration_rates=rates,
            equilibrium_mode=mode,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    raw_problems = doc.get("problems")
    if not isinstance(raw_problems, list) or not raw_problems:
        raise ScenarioError("scenario needs a non-empty problems list")
    problems = tuple(_scenario_problem(entry, i) for i, entry in enumerate(raw_problems))
    if len({p.problem_id for p in problems}) != len(problems):
        raise ScenarioError("problem ids must be unique")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ScenarioError(f"metadata must be an object, got {metadata!r}")
    for key, value in metadata.items():  # a JSON object's keys are strings already
        if not isinstance(value, str):
            raise ScenarioError(f"metadata.{key} must be a string, got {value!r}")
    return Scenario(config=config, problems=problems, metadata=dict(metadata))


def run_scenario(scenario: Scenario) -> tuple[list[AscOutcome], BatchSummary, ScriptedBackend]:
    """Run a scripted scenario through the lockstep batch controller."""
    labels = scenario.labels()
    if scenario.config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED and labels is None:
        raise ScenarioError("online-labeled scenarios must label every problem")
    backend = ScriptedBackend(scenario.problems)
    try:
        outcomes, summary = run_asc_batch(
            [p.problem_id for p in scenario.problems], backend, scenario.config, labels=labels
        )
    except AscBackendError as exc:  # a scripted backend fails only when a script runs out
        n = scenario.config.max_iterations
        raise ScenarioError(f"answers of problem {exc.problem!r} ran out after {len(exc.answers)}; "
                            f"max_iterations {n} can ask for up to {n + 1}") from exc
    return outcomes, summary, backend


# -- confidence tax -----------------------------------------------------------


@dataclass(frozen=True)
class ConfidenceTaxReport:
    """Iteration-0 cost of confidence elicitation, with paired tests."""

    accuracy_with: float
    accuracy_without: float
    delta_pp: float  # with-elicitation minus without
    test: McNemarResult
    bootstrap: BootstrapDelta


def confidence_tax_report(log_with, log_without, resamples: int = 10_000, seed: int = 0) -> ConfidenceTaxReport:
    """Compare iteration-0 accuracy with vs without confidence elicitation.

    Both logs must cover the same problems; rows are aligned by id.
    """
    col_without = align_rows(log_with, log_without)[:, 0]
    col_with = log_with.correctness[:, 0]
    n = log_with.n_problems
    return ConfidenceTaxReport(
        accuracy_with=float(col_with.sum()) / n,
        accuracy_without=float(col_without.sum()) / n,
        delta_pp=float(col_with.sum() - col_without.sum()) / n * 100.0,
        test=mcnemar_from_logs(col_without, col_with),
        bootstrap=paired_bootstrap_delta(col_without, col_with, resamples=resamples, seed=seed),
    )
