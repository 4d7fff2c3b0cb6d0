"""Smoke self-test of the benchmark.

Runs every workload once at reduced size (the ``smoke`` profile), untraced
and traced, at the seed whose artifact digests are pinned, and checks that

* each run exits 0 and ends with the result object the benchmark promises;
* every check passed (``correct``, no failed operation);
* every metric ``BENCHMARK.json`` names is printed, with its unit;
* every layer the workload exercises reports a non-zero time and count;
* traced and untraced runs wrote byte-identical artifacts;
* in a directory holding only ``BENCHMARK.json`` and ``bench/`` the
  benchmark exits non-zero without printing a result.

Usage, from the root of a checkout: ``python3 bench/smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Metric-name prefixes each workload must move off zero in a traced run.
_COMMON = ("rng.uniforms.", "stats.paired_bootstrap_delta.", "stats.mcnemar_from_logs.",
           "logs.read_runs.", "report.", "estimate.estimate_rates.", "cli.main.s",
           "cli.main.self_s", "cli.main.calls", "process.", "trace.wall_s")
EXERCISED = {
    "paired-bootstrap": _COMMON,
    "log-roundtrip": _COMMON + ("logs.write_log.", "simulate.simulate_population."),
    "paper-scale": _COMMON + ("logs.write_log.", "simulate.simulate_population.", "asc.", "baselines."),
}


def run(workload: str, trace: int, seed: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done, expected: dict[str, str]) -> dict:
    assert done.returncode == 0, f"exit {done.returncode}: {done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected, f"metrics/units differ: {sorted(set(units.items()) ^ set(expected.items()))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    return result


def digest_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("sha256 ")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    import workloads

    seed = json.loads((BENCH / "digests.json").read_text())["seed"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in workloads.WORKLOADS:
        plain = run(workload, 0, seed)
        check_result(plain, end_to_end)
        traced = run(workload, 1, seed)
        layers = check_result(traced, per_layer)["metrics"]
        assert digest_lines(plain.stdout) and digest_lines(plain.stdout) == digest_lines(traced.stdout), \
            f"{workload}: traced artifacts differ from untraced"
        quiet = [name for name in per_layer
                 if name.startswith(EXERCISED[workload]) and layers[name]["value"] <= 0]
        assert not quiet, f"{workload}: exercised layers report zero: {quiet}"
        print(f"ok {workload}: {len(end_to_end)} end-to-end and {len(per_layer)} per-layer metrics")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(workloads.WORKLOADS[0], 0, seed, cwd=bare)
        assert done.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"metrics"' not in done.stdout, "benchmark printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare checkout: exits", done.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
