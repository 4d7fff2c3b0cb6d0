"""The names the benchmark reads from the package still resolve and still count.

The bench tracer (``bench/spans.py``) wraps package functions by module
and attribute name, and counts ASC backend calls from the replay that
``run_scenario`` returns. A refactor that renames either, or that stops
calling a layer through the name the tracer wraps, breaks the benchmark;
these tests make it break the test suite too.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from refineloop import cli
from refineloop.asc import StopReason, load_scenario, run_scenario
from refineloop.logs import CorrectnessLog, read_log, write_log

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _bench_module("spans")
smoke = _bench_module("smoke")


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


def _pass(workloads, workload, size, inputs, out) -> dict[str, bytes]:
    """Run one pass of ``workload`` through ``cli.main`` and return its ``--out`` tree."""
    for step, argv in workloads.pass_steps(workload, 1, size, inputs, out):
        assert cli.main(argv) == 0, step  # looked up on the module, so a traced main is the one called
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


# The bootstrap draws through rng._fill, so paired-bootstrap no longer calls
# rng.uniforms; the smoke list that still names it waits for a benchmark change.
_NOT_YET_FIRED = {"paired-bootstrap": {"rng.uniforms"}}


@pytest.mark.parametrize("workload", smoke.EXERCISED)
def test_every_exercised_layer_fires_in_a_traced_smoke_pass(tmp_path, workload):
    # a span is exercised if one of the workload's smoke prefixes names one of its metrics
    workloads = _bench_module("workloads")
    size = workloads.SIZES["smoke"][workload]
    inputs = tmp_path / "inputs"
    workloads.generate_inputs(workload, 1, size, inputs)
    plain = _pass(workloads, workload, size, inputs, tmp_path / "plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _pass(workloads, workload, size, inputs, tmp_path / "traced")
    finally:
        tracer.uninstall()
    fired = {span["name"] for span in tracer.spans}
    exercised = [name for _, _, name, _ in spans.WRAPS
                 if any(f"{name}.".startswith(p) or p.startswith(f"{name}.") for p in smoke.EXERCISED[workload])]
    assert exercised
    assert [name for name in exercised if name not in fired and name not in _NOT_YET_FIRED.get(workload, ())] == []
    assert plain and traced == plain


def test_traced_log_roundtrip_report_draws_nothing_but_still_counts_its_bootstrap(tmp_path):
    # the report pairs a record log with its own compact copy, so every paired
    # difference is 0 and the bootstrap needs no draw; its span still fires
    workloads = _bench_module("workloads")
    size = workloads.SIZES["smoke"]["log-roundtrip"]
    steps = workloads.pass_steps("log-roundtrip", 1, size, tmp_path / "inputs", tmp_path / "out")
    assert [step for step, _ in steps] == ["records", "compact", "report"]
    for step, argv in steps[:-1]:
        assert cli.main(argv) == 0, step
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(steps[-1][1]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.take_counts()
    assert counts.get("rng.uniforms.calls", 0) == 0
    assert counts["stats.paired_bootstrap_delta.index_draws"] == size["resamples"] * size["n"]
    assert "stats.paired_bootstrap_delta" in {span["name"] for span in tracer.spans}


def test_log_roundtrip_pass_reads_back_as_simulated(tmp_path):
    # the bench's read-back check compares ids with "!=", so an id type for which
    # that is not one bool breaks it; it fails here, not as a failed bench pass
    workloads = _bench_module("workloads")
    size = workloads.SIZES["smoke"]["log-roundtrip"]
    out = tmp_path / "out"
    for step, argv in workloads.pass_steps("log-roundtrip", 1, size, tmp_path / "inputs", out):
        assert cli.main(argv) == 0, step
    assert workloads.readback("log-roundtrip", 1, size, out) == {}
    path = out / "compact" / "log.csv"  # one id changed: the check must see it
    log = read_log(path)
    ids = ["q" + log.problem_ids[0], *log.problem_ids[1:]]
    write_log(CorrectnessLog(problem_ids=ids, correctness=log.correctness, metadata=log.metadata), path,
              form="compact", run_label=workloads.ROUNDTRIP_COMPACT_LABEL)
    assert workloads.readback("log-roundtrip", 1, size, out) == {"compact": "problem ids differ from the simulation"}
