"""The names the benchmark reads from the package still resolve and still count.

The bench tracer (``bench/spans.py``) wraps package functions by module
and attribute name, and counts ASC backend calls from the replay that
``run_scenario`` returns. A refactor that renames either breaks the
benchmark; this test makes it break the test suite too.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from refineloop.asc import StopReason, load_scenario, run_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _bench_module("spans")


@pytest.mark.parametrize("module, attribute", [(m, a) for m, a, _, _ in spans.WRAPS])
def test_every_wrapped_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_bench_scenario_replay_counts_two_calls_per_answer(tmp_path):
    path = tmp_path / "scenario.json"
    _bench_module("workloads")._asc_scenario(1, 200, path)
    result = run_scenario(load_scenario(path))
    outcomes, summary, replay = result
    assert len(replay.calls) == 2 * int(outcomes.answers_asked.sum())
    counts = defaultdict(float)
    spans._count_run_scenario(counts, (), {}, result)
    assert counts["asc.backend_calls"] == len(replay.calls)
    assert counts["asc.rounds"] == summary.rounds_executed
    assert counts["asc.stopped_equilibrium"] == summary.stop_reasons.get(StopReason.EQUILIBRIUM, 0) > 0
