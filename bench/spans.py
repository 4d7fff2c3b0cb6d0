"""Outside-in layer tracing for the benchmark.

The tracer replaces each layer's public function at the name its caller
looks it up under (``refineloop.cli.read_runs``, ``refineloop.rng.uniforms``
and so on) with a wrapper that records a span: name, start, end, parent
span and pass index. Nothing inside ``refineloop`` is edited. Counters
(rows, bytes, draws) are taken from each call's arguments and result,
after the span has ended.

Spans stay in memory and are written out once, when the run ends.
"""

import functools
import gc
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

# Per-layer metrics, in the order the benchmark prints them.
PER_LAYER = (
    ("rng.uniforms.s", "s"),
    ("rng.uniforms.calls", "count"),
    ("rng.uniforms.draws", "count"),
    ("stats.paired_bootstrap_delta.s", "s"),
    ("stats.paired_bootstrap_delta.self_s", "s"),
    ("stats.paired_bootstrap_delta.index_draws", "count"),
    ("stats.mcnemar_from_logs.s", "s"),
    ("stats.mcnemar_from_logs.calls", "count"),
    ("logs.read_runs.s", "s"),
    ("logs.read_runs.rows", "count"),
    ("logs.read_runs.bytes", "B"),
    ("logs.write_log.s", "s"),
    ("logs.write_log.bytes", "B"),
    ("report.build_report.s", "s"),
    ("report.build_report.self_s", "s"),
    ("report.render_tables.s", "s"),
    ("report.render_tables.bytes", "B"),
    ("simulate.simulate_population.s", "s"),
    ("simulate.simulate_population.cells", "count"),
    ("estimate.estimate_rates.s", "s"),
    ("estimate.estimate_rates.calls", "count"),
    ("asc.load_scenario.s", "s"),
    ("asc.run_scenario.s", "s"),
    ("asc.backend_calls", "count"),
    ("asc.rounds", "count"),
    ("asc.stopped_equilibrium", "count"),
    ("baselines.simulate_self_consistency.s", "s"),
    ("baselines.fit_common_cause_weight.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.failures", "count"),
    ("python.gc_s", "s"),
    ("python.gc_collections", "count"),
    ("process.cpu_s", "s"),
    ("process.threads_max", "count"),
    ("host.slowdown", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def thread_count() -> int:
    """OS threads of this process (BLAS pools included), or Python threads if unknown."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def _log_rows(path) -> int:
    """Data rows of a correctness log: one per cell in record form, one per problem in compact form."""
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip() and not line.startswith("#"))
    return lines - 1


def _count_read_runs(counts, args, kwargs, result):
    counts["logs.read_runs.rows"] += _log_rows(args[0])
    counts["logs.read_runs.bytes"] += os.path.getsize(args[0])


def _count_write_log(counts, args, kwargs, result):
    counts["logs.write_log.bytes"] += os.path.getsize(args[1])


def _count_uniforms(counts, args, kwargs, result):
    counts["rng.uniforms.calls"] += 1
    counts["rng.uniforms.draws"] += result.size


def _count_bootstrap(counts, args, kwargs, result):
    counts["stats.paired_bootstrap_delta.index_draws"] += result.resamples * len(args[0])


def _count_render(counts, args, kwargs, result):
    counts["report.render_tables.bytes"] += sum(len(text.encode("utf-8")) for text in result.values())


def _count_simulate(counts, args, kwargs, result):
    counts["simulate.simulate_population.cells"] += result.log.correctness.size


def _count_run_scenario(counts, args, kwargs, result):
    from refineloop.asc import StopReason

    _, summary, backend = result
    counts["asc.backend_calls"] += len(backend.calls)
    counts["asc.rounds"] += summary.rounds_executed
    counts["asc.stopped_equilibrium"] += summary.stop_reasons.get(StopReason.EQUILIBRIUM, 0)


def _count_calls(metric):
    def count(counts, args, kwargs, result):
        counts[metric] += 1
    return count


def _count_main(counts, args, kwargs, result):
    counts["cli.main.calls"] += 1
    counts["cli.main.failures"] += result != 0


# (module, attribute, span name, counter): each attribute is the name the
# calling layer resolves at call time, so wrapping it intercepts the call.
WRAPS = (
    ("refineloop.cli", "main", "cli.main", _count_main),
    ("refineloop.cli", "read_runs", "logs.read_runs", _count_read_runs),
    ("refineloop.cli", "write_log", "logs.write_log", _count_write_log),
    ("refineloop.cli", "build_report", "report.build_report", None),
    ("refineloop.cli", "render_tables", "report.render_tables", _count_render),
    ("refineloop.cli", "simulate_population", "simulate.simulate_population", _count_simulate),
    ("refineloop.cli", "load_scenario", "asc.load_scenario", None),
    ("refineloop.cli", "run_scenario", "asc.run_scenario", _count_run_scenario),
    ("refineloop.cli", "simulate_self_consistency", "baselines.simulate_self_consistency", None),
    ("refineloop.cli", "fit_common_cause_weight", "baselines.fit_common_cause_weight", None),
    ("refineloop.report", "estimate_rates", "estimate.estimate_rates",
     _count_calls("estimate.estimate_rates.calls")),
    ("refineloop.report", "mcnemar_from_logs", "stats.mcnemar_from_logs",
     _count_calls("stats.mcnemar_from_logs.calls")),
    ("refineloop.report", "paired_bootstrap_delta", "stats.paired_bootstrap_delta", _count_bootstrap),
    ("refineloop.rng", "uniforms", "rng.uniforms", _count_uniforms),
)


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.threads_max = thread_count()
        self.pass_index: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "parent": tracer._stack[-1] if tracer._stack else None,
                    "name": name, "pass": tracer.pass_index}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            tracer.threads_max = max(tracer.threads_max, thread_count())
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer.threads_max = max(tracer.threads_max, thread_count())
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["python.gc_s"] += time.perf_counter() - self._gc_start
            self.counts["python.gc_collections"] += 1

    def install(self) -> None:
        import importlib

        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take_counts(self) -> dict[str, float]:
        """Counters since the previous call (one pass), then reset."""
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def layer_times(self, pass_index: int) -> dict[str, float]:
        """Inclusive ``<span>.s`` and exclusive ``<span>.self_s`` sums for one pass."""
        spans = [s for s in self.spans if s["pass"] == pass_index]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        times: dict[str, float] = defaultdict(float)
        for s in spans:
            duration = s["end"] - s["start"]
            times[f"{s['name']}.s"] += duration
            times[f"{s['name']}.self_s"] += duration - child_time[s["id"]]
        return times

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of every per-layer metric; layers a workload never calls read 0."""
    return {name: median(p.get(name, 0.0) for p in passes) for name, _ in PER_LAYER}
