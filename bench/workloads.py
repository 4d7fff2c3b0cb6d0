"""Benchmark workloads: seeded inputs, the CLI steps of one pass, read-back checks.

Each workload is a fixed list of ``refineloop`` command lines (one *pass*).
Inputs are generated from the benchmark seed before any timing, in the
parent process, so input generation never counts toward the worker's
time or peak memory. The seed also feeds every ``--seed`` the CLI gets,
so one seed fixes every byte the pass writes.

Sizes come in two profiles: ``full`` (what the benchmark measures) and
``smoke`` (a reduced copy that ``bench/smoke.py`` runs in seconds).
"""

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("paired-bootstrap", "log-roundtrip", "paper-scale")

SIZES = {
    "full": {
        "paired-bootstrap": {"n": 20_000, "resamples": 2_000},
        "log-roundtrip": {"n": 50_000, "iterations": 6, "resamples": 200},
        "paper-scale": {"n": 500, "resamples": 10_000, "asc_n": 20_000, "sc_n": 100_000},
    },
    "smoke": {
        "paired-bootstrap": {"n": 500, "resamples": 200},
        "log-roundtrip": {"n": 500, "iterations": 6, "resamples": 50},
        "paper-scale": {"n": 100, "resamples": 200, "asc_n": 200, "sc_n": 1_000},
    },
}

# Share of each pass that is memory-bound numpy work, from the predicted
# layer mix; it weights the host-speed reference (host.slowdown) that the
# pass's wall time is divided by.
MEMORY_SHARE = {"paired-bootstrap": 0.95, "log-roundtrip": 0.1, "paper-scale": 0.5}

# paired-bootstrap: two compact logs over one id set, B's rows permuted.
PAIRED_RUNS = ("gpt-4o-mini", "claude-sonnet-4")
PAIRED_ITERATIONS = 4
# paper-scale: every preset at the paper's population size, each compared
# with o4-mini; 4 transitions so that every pair has equal iteration counts.
PAPER_BASE = "o4-mini"
PAPER_PRESETS = ("gpt-4o-mini", "gpt-4.1", "claude-sonnet-4", "gpt-5",
                 "claude-opus-4.6", "o3-mini", "o4-mini")
PAPER_ITERATIONS = 4
ROUNDTRIP_PRESET = "o4-mini"
ROUNDTRIP_COMPACT_LABEL = "o4c"
# Words that make up the quoted problem ids ("<word>,<n>").
_ID_WORDS = ("algebra", "geometry", "counting", "number theory", "probability",
             "calculus", "logic", "word problem")


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def _quoted_ids(seed: int, n: int) -> list[str]:
    """Unique ids that all contain a comma, so the CSV writer quotes each one."""
    words = _rng(seed, 1).integers(0, len(_ID_WORDS), size=n)
    return [f"{_ID_WORDS[w]},{i}" for i, w in enumerate(words)]


def _paired_logs(seed: int, size: dict, inputs: Path) -> None:
    from refineloop import CorrectnessLog, SimConfig, preset, preset_baseline, simulate_population, write_log

    n = size["n"]
    ids = _quoted_ids(seed, n)
    order = _rng(seed, 2).permutation(n)
    for which, name in enumerate(PAIRED_RUNS):
        config = SimConfig(n_problems=n, n_iterations=PAIRED_ITERATIONS,
                           initial_accuracy=preset_baseline(name), seed=seed + which,
                           schedule=preset(name))
        log = simulate_population(config).log
        matrix = log.correctness
        row_ids = ids
        if which == 1:
            matrix = matrix[order]
            row_ids = [ids[i] for i in order]
        write_log(CorrectnessLog(problem_ids=row_ids, correctness=matrix, metadata=log.metadata),
                  inputs / f"{name}.csv", form="compact", run_label=name)


def _asc_scenario(seed: int, n: int, path: Path) -> None:
    """Scripted online-labeled batch in which the equilibrium stop fires after round 1.

    Round 0 stops about 30% of problems on confidence; round 1 stops about
    20% of the rest. The labels give the round-1 transitions an error
    introduction rate near 0.3 against a correction rate near 0.1, so the
    pooled EIR exceeds the pooled ECR and every remaining instance stops on
    equilibrium.
    """
    g = _rng(seed, 3)
    depth = 5  # answers per problem: r^(0) plus max_iterations refinements
    correct0 = g.random(n) < 0.8
    flip = g.random(n)
    correct1 = np.where(correct0, flip >= 0.3, flip < 0.1)
    later = g.random((n, depth - 2)) < 0.5
    conf = g.integers(2, 8, size=(n, depth)).astype(float)
    conf[:, 0] = np.where(g.random(n) < 0.3, 9.0, conf[:, 0])
    conf[:, 1] = np.where(g.random(n) < 0.2, 10.0, conf[:, 1])
    problems = []
    for i in range(n):
        labels = [bool(correct0[i]), bool(correct1[i])] + [bool(x) for x in later[i]]
        problems.append({
            "id": f"q{i:05d}",
            "answers": [f"a{i}.{k}" for k in range(depth)],
            "confidences": [float(c) for c in conf[i]],
            "correct": labels,
        })
    doc = {
        "format": "asc-scenario/v1",
        "tau": 8.0,
        "max_iterations": depth - 1,
        "equilibrium_mode": "online-labeled",
        "metadata": {"source": "bench", "seed": str(seed)},
        "problems": problems,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def generate_inputs(workload: str, seed: int, size: dict, inputs: Path) -> None:
    """Write the workload's input files under ``inputs`` (pure in seed and size)."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "paired-bootstrap":
        _paired_logs(seed, size, inputs)
    elif workload == "paper-scale":
        _asc_scenario(seed, size["asc_n"], inputs / "scenario.json")


def pass_steps(workload: str, seed: int, size: dict, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The ``(step, argv)`` list of one pass; step ``s`` writes into ``out / s``."""
    s = str(seed)
    if workload == "paired-bootstrap":
        logs = [str(inputs / f"{name}.csv") for name in PAIRED_RUNS]
        return [("report", ["report", *logs, "--resamples", str(size["resamples"]),
                            "--seed", s, "--out", str(out / "report")])]
    if workload == "log-roundtrip":
        sim = ["simulate", "--preset", ROUNDTRIP_PRESET, "--iterations", str(size["iterations"]),
               "--n", str(size["n"]), "--seed", s]
        return [
            ("records", sim + ["--out", str(out / "records")]),
            ("compact", sim + ["--form", "compact", "--label", ROUNDTRIP_COMPACT_LABEL,
                               "--out", str(out / "compact")]),
            ("report", ["report", str(out / "records" / "log.csv"), str(out / "compact" / "log.csv"),
                        "--resamples", str(size["resamples"]), "--seed", s, "--out", str(out / "report")]),
        ]
    if workload == "paper-scale":
        steps = [(f"sim-{name}", ["simulate", "--preset", name, "--n", str(size["n"]),
                                  "--iterations", str(PAPER_ITERATIONS), "--seed", s,
                                  "--out", str(out / f"sim-{name}")])
                 for name in PAPER_PRESETS]
        base = str(out / f"sim-{PAPER_BASE}" / "log.csv")
        steps += [(f"report-{name}", ["report", str(out / f"sim-{name}" / "log.csv"), base,
                                      "--resamples", str(size["resamples"]), "--seed", s,
                                      "--out", str(out / f"report-{name}")])
                  for name in PAPER_PRESETS if name != PAPER_BASE]
        steps.append(("asc", ["asc", str(inputs / "scenario.json"), "--out", str(out / "asc")]))
        steps.append(("sc", ["sc", "--p", "0.912", "--k", "3", "--n", str(size["sc_n"]),
                             "--fit-target", "0.934", "--seed", s, "--out", str(out / "sc")]))
        return steps
    raise ValueError(f"unknown workload {workload!r}")


def readback(workload: str, seed: int, size: dict, out: Path) -> dict[str, str]:
    """Re-read the logs a pass wrote and compare them with a direct simulation.

    Returns ``{step: reason}`` for every step whose log does not hold the
    simulated matrix. Only log-roundtrip writes logs that are checked here;
    paper-scale's logs feed reports whose digests are checked instead.
    """
    if workload != "log-roundtrip":
        return {}
    from refineloop import SimConfig, preset, preset_baseline, read_runs, simulate_population

    config = SimConfig(n_problems=size["n"], n_iterations=size["iterations"],
                       initial_accuracy=preset_baseline(ROUNDTRIP_PRESET), seed=seed,
                       schedule=preset(ROUNDTRIP_PRESET))
    expected = simulate_population(config).log
    failures = {}
    for step, label in (("records", ROUNDTRIP_PRESET), ("compact", ROUNDTRIP_COMPACT_LABEL)):
        runs = read_runs(out / step / "log.csv")
        got = runs.get(label)
        if set(runs) != {label}:
            failures[step] = f"expected one run {label!r}, read {sorted(runs)}"
        elif got.problem_ids != expected.problem_ids:
            failures[step] = "problem ids differ from the simulation"
        elif not np.array_equal(got.correctness, expected.correctness):
            failures[step] = "correctness matrix differs from the simulation"
    return failures
