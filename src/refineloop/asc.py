"""Adaptive stopping controller for refinement loops.

One instance runs: generate an answer, score confidence; if confident,
stop. Otherwise refine up to ``max_iterations`` times, and after each
refinement stop on the first of two criteria, checked in this order:

* confidence: the new answer's score reaches ``tau`` -- keep it;
* equilibrium: another pass is not expected to help -- keep the
  *previous* answer.

If neither fires, the budget runs out and the last answer stands. The
equilibrium stop is the paper's threshold: iterate only while
ECR/EIR > Acc/(1 - Acc); ties stop. Online-labeled mode pools every
round's labeled transitions, so rates and accuracy come from one set of
counts and the rule is exactly n_ic > n_ci (``verdict_from_counts``),
checked once both pools are filled. Calibration-only mode holds an
(eir, ecr) pair but no accuracy, so it takes the threshold at
Acc = 1/2: stop when ``eir >= ecr``. The paper's abstract calls ASC
"adaptive self-consistency", the name of Aggarwal et al. (EMNLP 2023),
and states no stop rule.

One lockstep loop runs every instance on two columns: the kept-answer
index and the stop code of each instance, which reads budget while the
instance runs. Each entry point hands it two closures: ``scores(k, idx)``
gives the scores of the k-th answers of the running instances, and
``labels_at(k, idx)`` their correctness labels. For a backend they ask
it one instance at a time and look up a labels mapping; for a scenario
they slice its confidence and label columns. A single problem is a
batch of one; one equilibrium decision per round applies to every
running instance. Answers asked, rounds run and the first equilibrium
round are derived from the two columns once the loop ends.

One function, ``_scenario_columns``, checks and builds a scenario's
columns; only a refused scenario is walked problem by problem.
"""

import json
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress
from typing import Any, Mapping, Protocol, Sequence

import numpy as np

from .dynamics import TransitionRates, Verdict, _check_int, _check_real, verdict_from_counts
from .estimate import pooled_rates, transition_counts

__all__ = [
    "StopReason",
    "EquilibriumMode",
    "AscConfig",
    "RefinementBackend",
    "AscBackendError",
    "AscOutcome",
    "AscOutcomes",
    "BatchSummary",
    "run_asc_instance",
    "run_asc_batch",
    "ScriptedProblem",
    "ScriptedBackend",
    "ScenarioError",
    "Scenario",
    "ScenarioReplay",
    "load_scenario",
    "run_scenario",
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
        if not isinstance(self.equilibrium_mode, EquilibriumMode):
            raise ValueError(f"equilibrium_mode must be an EquilibriumMode, got {self.equilibrium_mode!r}")
        if not isinstance(self.calibration_rates, (TransitionRates, type(None))):
            raise ValueError(f"calibration_rates must be TransitionRates, got {self.calibration_rates!r}")
        # the driver counts answers, up to max_iterations + 1, in int64 columns
        _check_int("max_iterations", self.max_iterations, 1, np.iinfo(np.int64).max)
        calibrated = self.equilibrium_mode is EquilibriumMode.CALIBRATION_ONLY
        if calibrated and self.calibration_rates is None:
            raise ValueError("calibration-only equilibrium mode needs calibration_rates")
        if not calibrated and self.calibration_rates is not None:
            raise ValueError(f"calibration_rates are used only in calibration-only equilibrium mode, "
                             f"not {self.equilibrium_mode.value}")


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


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class AscOutcomes:
    """Every instance's outcome of one lockstep run, as columns in instance order."""

    iterations_used: np.ndarray  # int64: the index k of the kept answer r^(k)
    stop_codes: np.ndarray  # int8: the position of the stop reason in ``StopReason``
    answers_asked: np.ndarray  # int64: answers generated, one score each


_REASONS = tuple(StopReason)  # a stop code is a position here
_CONFIDENCE, _EQUILIBRIUM, _BUDGET = map(_REASONS.index, (StopReason.CONFIDENCE, StopReason.EQUILIBRIUM,
                                                          StopReason.BUDGET))


@dataclass(frozen=True)
class BatchSummary:
    n_instances: int
    rounds_executed: int
    iterations_histogram: dict[int, int]
    stop_reasons: dict[StopReason, int]
    equilibrium_fired_round: int | None
    final_pooled_rates: TransitionRates | None


def _run_batch(n: int, config: AscConfig, scores, labels_at) -> tuple[AscOutcomes, BatchSummary]:
    """Drive ``n`` instances in lockstep rounds under one shared stop rule and summarise them.

    Round 0 generates; round k >= 1 refines. Each round ``scores(k, idx)``
    returns the score of the k-th answer of every running instance
    ``idx`` (ascending). In online-labeled mode ``labels_at(k, idx)``
    gives the correctness of those instances' k-th answers: column 0 of
    every instance is read before round 0, and each later column once, in
    the round that produced it.
    """
    kept = np.full(n, config.max_iterations, dtype=np.int64)  # what the budget stop keeps
    stop = np.full(n, _BUDGET, dtype=np.int8)  # an instance runs while its code reads budget
    flows = np.zeros((1, 4), dtype=np.int64)  # pooled n_cc, n_ci, n_ic, n_ii
    online = config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED
    rates = config.calibration_rates  # set in calibration-only mode alone
    halt = rates is not None and rates.eir >= rates.ecr  # the threshold at Acc = 1/2; online mode decides each round
    if online:
        previous = labels_at(0, np.arange(n))  # a copy: the driver writes into it
    for k in range(config.max_iterations + 1):
        idx = np.flatnonzero(stop == _BUDGET)
        if not idx.size:
            break
        confident = scores(k, idx) >= config.tau
        done = idx[confident]
        kept[done], stop[done] = k, _CONFIDENCE
        if k == 0:
            continue
        if online:
            # Every instance that refined this round contributes its observed
            # transition, including ones that just stopped on confidence; their
            # labels are data like any other.
            current = labels_at(k, idx)
            flows[:] += transition_counts(np.column_stack([previous[idx], current]))
            previous[idx] = current
            halt = verdict_from_counts(*flows[0].tolist()) in (Verdict.STOP, Verdict.AT_EQUILIBRIUM)  # None waits
        if halt:
            # The answer produced by the round that triggered the stop is
            # discarded in favor of its predecessor.
            rest = idx[~confident]
            kept[rest], stop[rest] = k - 1, _EQUILIBRIUM
    equilibrium = stop == _EQUILIBRIUM
    asked = kept + 1 + equilibrium  # an equilibrium stop in round k asked for answer k and kept k - 1
    iterations, per_iteration = np.unique(kept, return_counts=True)
    codes, first, per_code = np.unique(stop, return_index=True, return_counts=True)
    order = np.argsort(first)  # reasons in the order instances first show them
    eir, ecr = pooled_rates(flows)
    return AscOutcomes(kept, stop, asked), BatchSummary(
        n_instances=n,
        rounds_executed=int(asked.max(initial=1)) - 1,
        iterations_histogram=dict(zip(iterations.tolist(), per_iteration.tolist())),
        stop_reasons={_REASONS[c]: m for c, m in zip(codes[order].tolist(), per_code[order].tolist())},
        equilibrium_fired_round=int(kept[equilibrium].min()) + 1 if equilibrium.any() else None,
        final_pooled_rates=TransitionRates(eir, ecr) if eir is not None and ecr is not None else None,
    )


def run_asc_batch(
    problems: Sequence[Any],
    backend: RefinementBackend,
    config: AscConfig,
    labels: Mapping[Any, Sequence[bool]] | None = None,
) -> tuple[list[AscOutcome], BatchSummary]:
    """Run many instances in lockstep rounds under one shared stop rule.

    In online-labeled mode ``labels[problem][k]`` must give the
    correctness of that problem's iteration-k answer; the transition
    counts are re-pooled after every round from all transitions executed
    so far, and one equilibrium decision is applied to every running
    instance.
    """
    if config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED and labels is None:
        raise ValueError("online-labeled equilibrium mode needs labels for every problem")
    answers: list[list] = [[] for _ in problems]
    confidences: list[list[float]] = [[] for _ in problems]

    def call(i: int, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise AscBackendError(f"backend failed during {fn.__name__}: {exc}", problems[i], answers[i],
                                  confidences[i]) from exc

    def scores(k: int, idx: np.ndarray) -> np.ndarray:
        out = np.empty(idx.size)
        for j, i in enumerate(idx.tolist()):
            problem, trace = problems[i], answers[i]  # a running instance holds k answers
            trace.append(call(i, backend.refine, problem, trace[-1]) if k else call(i, backend.generate, problem))
            score = call(i, backend.confidence, problem, trace[-1])
            try:
                score = _check_real("confidence", score, 1.0, 10.0)
            except ValueError as exc:  # the partial trace ends at the answer that was scored
                raise AscBackendError(f"backend {exc}", problem, trace, confidences[i]) from None
            confidences[i].append(score)
            out[j] = score
        return out

    def labels_at(k: int, idx: np.ndarray) -> np.ndarray:
        out = np.empty(idx.size, dtype=bool)
        for j, i in enumerate(idx.tolist()):
            try:
                label = labels[problems[i]][k]
            except (KeyError, IndexError, TypeError) as exc:
                raise ValueError(f"online-labeled mode: no label for problem {problems[i]!r}, iteration {k}") from exc
            if not isinstance(label, (bool, np.bool_)):  # bool("false") is True
                raise ValueError(f"online-labeled mode: label for problem {problems[i]!r}, iteration {k} "
                                 f"must be a bool, got {label!r}")
            out[j] = label
        return out

    columns, summary = _run_batch(len(problems), config, scores, labels_at)
    kept, codes = columns.iterations_used.tolist(), columns.stop_codes.tolist()
    return [AscOutcome(trace[k], k, _REASONS[code], tuple(scored))
            for trace, scored, k, code in zip(answers, confidences, kept, codes)], summary


def run_asc_instance(
    problem: Any,
    backend: RefinementBackend,
    config: AscConfig,
    labels: Mapping[Any, Sequence[bool]] | None = None,
) -> AscOutcome:
    """Run the controller to completion for a single problem: ``run_asc_batch`` on a batch of one."""
    outcomes, _ = run_asc_batch([problem], backend, config, labels)
    return outcomes[0]


# -- scripted scenarios -------------------------------------------------------

SCENARIO_VERSION = "asc-scenario/v1"


class ScenarioError(ValueError):
    """A scenario file violated the format."""


@dataclass(frozen=True)
class ScriptedProblem:
    problem_id: str
    answers: tuple[Any, ...]  # r^(0), r^(1), ...
    confidences: tuple[float, ...]


class ScriptedBackend:
    """Replays scripted answers and confidence scores; records every call.

    ``calls`` accumulates (method, problem_id) tuples in invocation order,
    which doubles as the golden trace in tests.
    """

    def __init__(self, problems: Sequence[ScriptedProblem]):
        self._scripts = {p.problem_id: p for p in problems}
        if len(self._scripts) != len(problems):  # a dict would keep the last script silently
            repeated = next(pid for pid, n in Counter(p.problem_id for p in problems).items() if n > 1)
            raise ValueError(f"problem ids must be unique; {repeated!r} appears more than once")
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
        k = self._cursor[problem]
        if not k:  # confidences[-1] would score the last scripted answer
            raise RuntimeError(f"confidence for {problem!r} asked before any answer was generated")
        latest = script.answers[k - 1]
        if answer is not latest and answer != latest:  # identity first: an array answer has no truth value
            raise RuntimeError(f"confidence for {problem!r} asked for {answer!r}, not its latest answer {latest!r}")
        return script.confidences[k - 1]


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class Scenario:
    """A scripted scenario held as columns, one row per problem in file order."""

    config: AscConfig
    ids: list[str]
    answers: list[list]  # each problem's answers r^(0), r^(1), ... as parsed
    confidences: np.ndarray  # float (n, width): the scores, NaN past a problem's answers
    counts: np.ndarray  # int64: answers per problem
    labels: np.ndarray | None  # bool (n, width), False past a problem's answers; None unless every problem is labeled
    metadata: dict[str, str]


class ScenarioReplay:
    """The calls a ``ScriptedBackend`` would have recorded replaying a scenario run.

    ``calls`` lists (method, problem_id) tuples in invocation order; it is
    built on first access.
    """

    def __init__(self, ids: list[str], answers_asked: np.ndarray):
        self._ids = ids
        self._asked = answers_asked

    @cached_property
    def calls(self) -> list[tuple[str, str]]:
        calls: list[tuple[str, str]] = []
        for k in range(int(self._asked.max(initial=0))):
            method = "refine" if k else "generate"
            for i in np.flatnonzero(self._asked > k).tolist():
                calls += ((method, self._ids[i]), ("confidence", self._ids[i]))
        return calls


_SCENARIO_KEYS = {"format", "tau", "max_iterations", "equilibrium_mode", "calibration_rates", "problems", "metadata"}
_PROBLEM_KEYS = {"id", "answers", "confidences", "correct"}
_RATE_KEYS = {"eir", "ecr"}
_PROBLEM_SHAPES = {frozenset(_PROBLEM_KEYS), frozenset(_PROBLEM_KEYS - {"correct"})}  # labeled, or not


def _unknown_key(obj: dict, known: set, where: str) -> ScenarioError:
    """The refusal naming the first key of ``obj`` not in ``known``, built once a check has failed."""
    return ScenarioError(f"{where} has unknown key {next(key for key in obj if key not in known)!r}")


def _scenario_array(entry: dict, field: str, index: int, types=None, rule: str = "") -> list:
    """``entry[field]``, refused unless it is a JSON array whose items' types are in ``types``."""
    value = entry[field]
    if not isinstance(value, list):
        raise ScenarioError(f"problems[{index}].{field} must be an array, got {value!r}")
    if types is not None and not set(map(type, value)) <= types:  # bool is not int here
        bad = next(item for item in value if type(item) not in types)
        raise ScenarioError(f"problems[{index}].{field} must hold {rule}, got {bad!r}")
    return value


def _scenario_columns(raw_problems: list) -> tuple[list, list, np.ndarray, np.ndarray, np.ndarray | None] | None:
    """The parsed problems as (ids, answers, confidences, counts, labels), or None if any problem is bad.

    Every check runs on a whole column at once: types with
    ``set(map(type, ...))``, key sets, lengths (each labeled problem's
    labels against its own answers), every score against 1-10 in one
    numpy comparison (NaN and inf fail it) and labels as bools or ints in
    {0, 1}. ``labels`` is None unless every problem is labeled. None
    words no refusal: ``_refuse_problem`` does.
    """
    if set(map(type, raw_problems)) != {dict} or not set(map(frozenset, raw_problems)) <= _PROBLEM_SHAPES:
        return None
    ids = [entry["id"] for entry in raw_problems]
    answers = [entry["answers"] for entry in raw_problems]
    scores = [entry["confidences"] for entry in raw_problems]
    labeled = ["correct" in entry for entry in raw_problems]
    label_rows = [entry["correct"] for entry in compress(raw_problems, labeled)]
    if set(map(type, ids)) != {str} or set(map(type, chain(answers, scores, label_rows))) != {list}:
        return None
    counts = list(map(len, answers))
    if 0 in counts or counts != list(map(len, scores)) or list(compress(counts, labeled)) != list(map(len, label_rows)):
        return None
    flat_scores = list(chain.from_iterable(scores))
    if not set(map(type, flat_scores)) <= {int, float}:  # bool is not int here
        return None
    try:
        flat_scores = np.array(flat_scores, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    if not ((flat_scores >= 1) & (flat_scores <= 10)).all():  # NaN fails both
        return None
    flat_labels = list(chain.from_iterable(label_rows))
    types = set(map(type, flat_labels))
    if not (types <= {bool} or types <= {bool, int} and set(flat_labels) <= {0, 1}):
        return None
    counts = np.array(counts, dtype=np.int64)
    filled = np.arange(counts.max()) < counts[:, None]  # row-major, as the flat columns run
    confidences = np.full(filled.shape, np.nan)
    confidences[filled] = flat_scores
    labels = None
    if all(labeled):
        labels = np.zeros(filled.shape, dtype=bool)
        labels[filled] = flat_labels
    return ids, answers, confidences, counts, labels


def _refuse_problem(index: int, entry: Any) -> None:
    """Raise the ``ScenarioError`` naming the first bad field of ``problems[index]``, if it has one."""
    if not isinstance(entry, dict):
        raise ScenarioError(f"problems[{index}] must be an object")
    if not _PROBLEM_KEYS.issuperset(entry):
        raise _unknown_key(entry, _PROBLEM_KEYS, f"problems[{index}]")
    try:
        pid = entry["id"]
        answers = _scenario_array(entry, "answers", index)
        scores = _scenario_array(entry, "confidences", index, {int, float}, "numbers")
    except KeyError as exc:
        raise ScenarioError(f"problems[{index}] missing field {exc}") from None
    if not isinstance(pid, str):
        raise ScenarioError(f"problems[{index}].id must be a string, got {pid!r}")
    if len(answers) != len(scores):
        raise ScenarioError(f"problems[{index}]: {len(answers)} answers vs {len(scores)} confidences")
    if not answers:
        raise ScenarioError(f"problems[{index}]: needs at least the initial answer")
    for g in scores:  # the raw value: an int past the float range must not reach float()
        if not 1 <= g <= 10:
            shown = g if type(g) is int and abs(g) > sys.float_info.max else float(g)
            raise ScenarioError(f"problems[{index}]: confidence {shown} outside the 1-10 scale")
    if "correct" in entry:
        rule = "booleans (or 0/1)"
        labels = _scenario_array(entry, "correct", index, {bool, int}, rule)
        if not set(labels) <= {0, 1}:  # False == 0 and True == 1
            bad = next(c for c in labels if c not in (0, 1))
            raise ScenarioError(f"problems[{index}].correct must hold {rule}, got {bad!r}")
        if len(labels) != len(answers):
            raise ScenarioError(f"problems[{index}]: correct length must match answers")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refused if a key repeats (JSON would keep the last silently)."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ScenarioError(f"key {repeated!r} appears more than once in one object")
    return doc


def load_scenario(path) -> Scenario:
    """Parse a declarative scenario file (JSON, versioned).

    ``_scenario_columns`` checks and builds the problems' columns a whole
    column at a time. Only when it refuses them does ``_refuse_problem``
    walk the problems, to name the first bad field of the first bad one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"not UTF-8: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != SCENARIO_VERSION:
        raise ScenarioError(f"expected a JSON object with format={SCENARIO_VERSION!r}")
    if not _SCENARIO_KEYS.issuperset(doc):
        raise _unknown_key(doc, _SCENARIO_KEYS, "scenario")
    try:
        mode = EquilibriumMode(doc.get("equilibrium_mode", AscConfig.equilibrium_mode))
    except ValueError:
        raise ScenarioError(
            f"equilibrium_mode must be one of {[m.value for m in EquilibriumMode]}"
        ) from None
    rates = None
    if "calibration_rates" in doc:
        pair = doc["calibration_rates"]
        if not isinstance(pair, dict):
            raise ScenarioError(f"calibration_rates must be an object {{eir, ecr}}, got {pair!r}")
        if not _RATE_KEYS.issuperset(pair):
            raise _unknown_key(pair, _RATE_KEYS, "calibration_rates")
        if not _RATE_KEYS.issubset(pair):
            missing = min(_RATE_KEYS.difference(pair))
            raise ScenarioError(f"calibration_rates must be {{eir, ecr}} probabilities, missing {missing!r}")
        try:
            rates = TransitionRates(pair["eir"], pair["ecr"])
        except ValueError as exc:
            raise ScenarioError(f"calibration_rates must be {{eir, ecr}} probabilities: {exc}") from None
    try:
        config = AscConfig(
            tau=doc.get("tau", AscConfig.tau),
            max_iterations=doc.get("max_iterations", AscConfig.max_iterations),
            calibration_rates=rates,
            equilibrium_mode=mode,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    raw_problems = doc.get("problems")
    if not isinstance(raw_problems, list) or not raw_problems:
        raise ScenarioError("scenario needs a non-empty problems list")
    columns = _scenario_columns(raw_problems)
    if columns is None:
        for index, entry in enumerate(raw_problems):
            _refuse_problem(index, entry)
        raise AssertionError("the scenario column check failed on problems that each pass the per-problem check")
    ids, answers, confidences, counts, labels = columns
    if len(set(ids)) != len(ids):
        raise ScenarioError("problem ids must be unique")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ScenarioError(f"metadata must be an object, got {metadata!r}")
    for key, value in metadata.items():  # a JSON object's keys are strings already
        if not isinstance(value, str):
            raise ScenarioError(f"metadata.{key} must be a string, got {value!r}")
    return Scenario(config=config, ids=ids, answers=answers, confidences=confidences, counts=counts,
                    labels=labels, metadata=dict(metadata))


def run_scenario(scenario: Scenario) -> tuple[AscOutcomes, BatchSummary, ScenarioReplay]:
    """Run a scripted scenario through the lockstep batch controller, on its columns."""
    config, labels = scenario.config, scenario.labels
    if config.equilibrium_mode is EquilibriumMode.ONLINE_LABELED and labels is None:
        raise ScenarioError("online-labeled scenarios must label every problem")

    def scores(k: int, idx: np.ndarray) -> np.ndarray:
        short = scenario.counts[idx] <= k
        if short.any():
            n = config.max_iterations
            raise ScenarioError(f"answers of problem {scenario.ids[idx[short.argmax()]]!r} ran out after {k}; "
                                f"max_iterations {n} can ask for up to {n + 1}")
        return scenario.confidences[idx, k]

    outcomes, summary = _run_batch(len(scenario.ids), config, scores, lambda k, idx: labels[idx, k])
    return outcomes, summary, ScenarioReplay(scenario.ids, outcomes.answers_asked)
