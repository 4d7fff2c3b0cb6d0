"""Run one workload's passes through ``refineloop.cli.main`` and report them.

Started by ``bench/run.py`` in a fresh process, after the inputs exist, so
the process's peak resident memory covers importing the package and
running the passes, not generating inputs. One caller, one pass at a time
(a closed loop). Prints one JSON object as its last stdout line.

Without ``--trace`` every pass is untraced. With it, passes alternate
untraced and traced, so tracing overhead is measured inside one run; the
artifact digests of both kinds of pass are checked against one reference.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import refineloop.cli  # noqa: E402

import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Artifact digests recorded for one seed; a run at that seed must reproduce them.
PINNED = Path(__file__).resolve().parent / "digests.json"


def pinned_digests(size: str, workload: str, seed: int) -> dict | None:
    pins = json.loads(PINNED.read_text())
    if seed != pins["seed"]:
        return None
    return pins[size].get(workload)


def digest_tree(out: Path, steps) -> dict[str, dict[str, str]]:
    """SHA-256 of every file each step wrote, ``{step: {file: hex}}``."""
    digests = {}
    for step, _ in steps:
        files = sorted(p for p in (out / step).rglob("*") if p.is_file()) if (out / step).is_dir() else []
        digests[step] = {p.relative_to(out / step).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in files}
    return digests


def run_pass(steps) -> tuple[float, dict[str, int]]:
    """Time each ``cli.main`` call; return the summed wall seconds and each step's exit code."""
    wall = 0.0
    codes = {}
    for step, argv in steps:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = refineloop.cli.main(argv)
            wall += time.perf_counter() - start
        codes[step] = code
        if code != 0:
            print(f"step {step} exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
    return wall, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="directory holding inputs/ and out/")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)

    size = workloads.SIZES[args.size][args.workload]
    inputs, out = args.work / "inputs", args.work / "out"
    steps = workloads.pass_steps(args.workload, args.seed, size, inputs, out)
    reference = pinned_digests(args.size, args.workload, args.seed)
    first_digests = None
    tracer = spans.Tracer() if args.trace else None
    verified_logs: set[tuple[str, str]] = set()
    threads_max = spans.thread_count()
    untraced_walls, traced_walls, traced_layers = [], [], []
    slowdowns = []  # host slowdown around each untraced pass
    memory_share = workloads.MEMORY_SHARE[args.workload]
    slowdown_before = host.slowdown(memory_share)
    attempted = failed = 0
    failures: list[str] = []

    started = time.perf_counter()
    while True:
        index = len(untraced_walls) + len(traced_walls)
        traced = tracer is not None and index % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # every pass starts from a collected heap, as a fresh CLI process would
        pass_start = time.perf_counter()
        if traced:
            tracer.pass_index = index
            cpu = time.process_time()
            tracer.install()
            try:
                wall, codes = run_pass(steps)
            finally:
                tracer.uninstall()
            layers = tracer.layer_times(index)
            layers.update(tracer.take_counts())
            layers["process.cpu_s"] = time.process_time() - cpu
            traced_walls.append(wall)
            traced_layers.append(layers)
        else:
            wall, codes = run_pass(steps)
            untraced_walls.append(wall)
        slowdown_after = host.slowdown(memory_share)
        slowdown = (slowdown_before + slowdown_after) / 2.0
        slowdown_before = slowdown_after
        if traced:
            layers["host.slowdown"] = slowdown
            layers["trace.wall_s"] = wall / slowdown
        else:
            slowdowns.append(slowdown)
        threads_max = max(threads_max, spans.thread_count())

        digests = digest_tree(out, steps)
        if first_digests is None:
            first_digests = digests
            reference = reference or digests
        bad = {step: f"exit code {code}" for step, code in codes.items() if code != 0}
        for step, files in digests.items():
            if step not in bad and files != reference.get(step):
                bad[step] = "artifact digests differ from the reference"
        log_key = tuple((step, files.get("log.csv", "")) for step, files in digests.items())
        if not bad and log_key not in verified_logs:
            bad.update(workloads.readback(args.workload, args.seed, size, out))
            if not bad:
                verified_logs.add(log_key)
        attempted += len(steps)
        failed += len(bad)
        failures += [f"pass {index} step {step}: {why}" for step, why in sorted(bad.items())]

        elapsed = time.perf_counter() - started
        pass_cost = time.perf_counter() - pass_start
        enough = len(untraced_walls) >= MIN_PASSES if tracer is None else min(
            len(untraced_walls), len(traced_walls)) >= MIN_TRACED_PASSES
        if enough and elapsed + pass_cost > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "walls": untraced_walls,
        "slowdowns": slowdowns,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads_max": threads_max,
        "digests": first_digests,
    }
    if tracer is not None:
        threads_max = max(threads_max, tracer.threads_max)
        untraced = median(w / f for w, f in zip(untraced_walls, slowdowns))
        for layers in traced_layers:
            layers["process.threads_max"] = threads_max
            layers["trace.untraced_wall_s"] = untraced
            layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
        result["threads_max"] = threads_max
        result["traced_walls"] = traced_walls
        result["layers"] = spans.per_layer_metrics(traced_layers)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
