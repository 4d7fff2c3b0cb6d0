"""refineloop benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paired-bootstrap --seed 1 --seconds 25 --trace 0

The run generates the workload's inputs from ``--seed``, measures the cost
of ``import refineloop`` in fresh interpreters (``setup_s``), then starts
``bench/worker.py``, which runs passes of the workload through
``refineloop.cli.main`` for ``--seconds`` seconds and checks every
artifact. It prints a host record, the artifact digests, and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Workloads and metrics are described in ``bench/README.md``.

Everything it writes stays under ``.bench_work/`` in the checkout; a
traced run leaves its spans in ``.bench_work/traces/``.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TIME_LIMIT_S = 175.0
SETUP_SAMPLES = 10
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import refineloop; "
                 "print(time.perf_counter() - t)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Wall seconds of ``import refineloop`` in each of ``samples`` fresh interpreters."""
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def host_record(threads_max: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "process.threads_max": threads_max,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES), help="input size profile")
    args = parser.parse_args(argv)

    if not (SRC / "refineloop" / "__init__.py").is_file():
        print(f"bench: no refineloop package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = WORK / f"{args.workload}-{args.size}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    size = workloads.SIZES[args.size][args.workload]
    workloads.generate_inputs(args.workload, args.seed, size, work / "inputs")

    # setup_s: half the import samples before the passes and half after,
    # so that the median spans the run. One untimed import first writes
    # the bytecode cache, which a user pays once per install.
    setup_samples = []
    if not args.trace:
        measure_setup(1, deadline)
        setup_samples += measure_setup(SETUP_SAMPLES // 2, deadline)

    spans_path = WORK / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.jsonl"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--spans", str(spans_path)]
    try:
        done = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"bench: worker did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        print(f"bench: worker exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        setup_samples += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline)
        print(f"import seconds: {' '.join(f'{t:.4f}' for t in setup_samples)}")

    print("host " + json.dumps(host_record(result["threads_max"])))
    for step, files in result["digests"].items():
        for name, digest in files.items():
            print(f"sha256 {args.workload}/{step}/{name} {digest}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"passes: {len(result['walls'])} untraced, {len(result.get('traced_walls', []))} traced; "
          f"{result['attempted']} cli.main calls, {result['failed']} failed")
    print(f"untraced pass seconds: {' '.join(f'{w:.4f}' for w in result['walls'])}")
    print(f"host slowdown:         {' '.join(f'{f:.4f}' for f in result['slowdowns'])}")
    if result["walls"]:
        print(f"raw wall_s median: {median(result['walls']):.4f}")

    if args.trace:
        units = dict(spans.PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in result["layers"].items()}
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        attempted = result["attempted"]
        metrics = {"setup_s": {"value": median(setup_samples), "unit": "s"}}
        metrics["wall_s"] = {"value": median(w / f for w, f in zip(result["walls"], result["slowdowns"])),
                             "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"}
        metrics["ok_ratio"] = {"value": (attempted - result["failed"]) / attempted, "unit": "ratio"}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
