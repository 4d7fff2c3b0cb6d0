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


def _paper_scale_pass(workloads, size, inputs, out) -> dict[str, bytes]:
    """Run one smoke-size paper-scale pass through ``cli.main`` and return its ``--out`` tree."""
    for step, argv in workloads.pass_steps("paper-scale", 1, size, inputs, out):
        assert cli.main(argv) == 0, step  # looked up on the module, so a traced main is the one called
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def test_every_wrapped_layer_fires_in_a_traced_paper_scale_pass(tmp_path):
    workloads = _bench_module("workloads")
    size = workloads.SIZES["smoke"]["paper-scale"]
    inputs = tmp_path / "inputs"
    workloads.generate_inputs("paper-scale", 1, size, inputs)
    plain = _paper_scale_pass(workloads, size, inputs, tmp_path / "plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _paper_scale_pass(workloads, size, inputs, tmp_path / "traced")
    finally:
        tracer.uninstall()
    fired = {span["name"] for span in tracer.spans}
    assert [name for _, _, name, _ in spans.WRAPS if name not in fired] == []
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
