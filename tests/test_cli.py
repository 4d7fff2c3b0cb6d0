"""End-to-end command-line tests, run in process through main()."""

import argparse
import csv
import dataclasses
import importlib
import inspect
import json
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import refineloop
from refineloop import cli, logs
from refineloop.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, _build_parser, main
from refineloop.logs import CorrectnessLog, read_log, read_runs, write_log


def _simulate(tmp_path, *extra, out="sim"):
    out_dir = tmp_path / out
    argv = ["simulate", *extra, "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    return out_dir / "log.csv"


def test_simulate_preset_writes_log(tmp_path, capsys):
    path = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--seed", "3")
    assert path.exists()
    log = read_log(path)
    assert log.n_problems == 500
    assert log.n_iterations == 4
    assert log.metadata["seed"] == "3"
    assert log.metadata["schedule_name"] == "gpt-4o-mini"
    printed = capsys.readouterr().out
    assert "500 problems" in printed
    assert "91.2%" in printed


def test_simulate_custom_rates(tmp_path):
    path = _simulate(
        tmp_path,
        "--eir", "0.05", "--ecr", "0.15", "--acc0", "0.7",
        "--iterations", "6", "--n", "200", "--seed", "1", "--label", "toy",
    )
    runs = read_runs(path)
    assert list(runs) == ["toy"]
    assert runs["toy"].n_iterations == 6
    assert runs["toy"].accuracy(0) == pytest.approx(0.7)


def test_simulate_compact_form(tmp_path):
    path = _simulate(
        tmp_path, "--preset", "o3-mini", "--form", "compact", "--seed", "2"
    )
    first = path.read_text().splitlines()
    assert first[0] == "#correctness-log/v1"
    assert any(line.startswith("problem_id,it0") for line in first)


def test_simulate_keeps_an_empty_compact_label(tmp_path):
    path = _simulate(tmp_path, "--preset", "o3-mini", "--n", "20", "--form", "compact", "--label", "")
    assert list(read_runs(path)) == [""]


def test_simulate_stationary_tail_flag(tmp_path):
    path = _simulate(
        tmp_path, "--preset", "gpt-4o-mini", "--iterations", "8",
        "--stationary-tail", "--seed", "4",
    )
    assert read_log(path).n_iterations == 8


def test_simulate_usage_errors(tmp_path):
    out = str(tmp_path / "x")
    assert main(["simulate", "--preset", "nope", "--out", out]) == EXIT_USAGE
    assert main(["simulate", "--eir", "0.1", "--out", out]) == EXIT_USAGE
    assert main(["simulate", "--eir", "0.1", "--ecr", "0.2", "--iterations", "3",
                 "--out", out]) == EXIT_USAGE  # missing --acc0
    assert main(["simulate", "--preset", "o3-mini", "--eir", "0.1", "--out", out]) == EXIT_USAGE
    assert main(["simulate", "--preset", "o3-mini", "--ecr", "0.9", "--out", out]) == EXIT_USAGE
    # custom rates outside [0, 1] are refused like any other out-of-range flag
    assert main(["simulate", "--eir", "1.5", "--ecr", "0.1", "--acc0", "0.5", "--iterations", "3",
                 "--out", out]) == EXIT_USAGE
    assert main(["simulate", "--eir", "0.1", "--ecr", "nan", "--acc0", "0.5", "--iterations", "3",
                 "--out", out]) == EXIT_USAGE
    assert main(["simulate", "--preset", "o3-mini", "--n", "0", "--out", out]) == EXIT_USAGE
    # more iterations than the schedule defines, without --stationary-tail
    assert main(["simulate", "--preset", "gpt-4o-mini", "--iterations", "6",
                 "--out", out]) == EXIT_USAGE
    assert main(["bogus-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert not (tmp_path / "x").exists()


def test_simulate_preset_exhausted_is_data_error(tmp_path, capsys):
    # Running past the schedule without --stationary-tail is a flag combination,
    # so it is reported as a usage error (exit 1), not as bad input (exit 2).
    out = tmp_path / "x"
    code = main(["simulate", "--preset", "gpt-4o-mini", "--iterations", "9",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "--stationary-tail" in capsys.readouterr().err
    assert not (out / "log.csv").exists()


def test_analyze_and_diagnose_artifacts(tmp_path, capsys):
    log = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--seed", "5")
    other = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--seed", "6", "--label", "other", out="sim2")

    def files(*argv):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        return {p.name for p in out.iterdir()}

    assert files("analyze", str(log)) == {"accuracy.csv", "rates.csv"}
    assert files("diagnose", str(log)) == {"verdicts.csv", "summary.csv"}
    assert "harmful" in (tmp_path / "diagnose" / "summary.csv").read_text()
    tables = {"report.txt", "accuracy.csv", "rates.csv", "verdicts.csv", "tests.csv", "summary.csv"}
    assert files("report", str(log), "--resamples", "50") == tables
    paired = files("report", str(log), str(other), "--resamples", "50")
    assert paired == tables | {"paired.csv"}
    printed = capsys.readouterr().out
    assert "->" in printed


def test_analyze_never_pairs_runs_over_different_problems(tmp_path, capsys):
    log_a = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--n", "200", out="a")
    log_b = _simulate(tmp_path, "--preset", "o3-mini", "--n", "300", out="b")
    out = tmp_path / "analysis"
    assert main(["report", str(log_a), str(log_b), "--out", str(tmp_path / "r")]) == EXIT_DATA
    assert main(["analyze", str(log_a), str(log_b), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "accuracy.csv").read_text().splitlines()))
    assert {row["run"] for row in rows} == {"gpt-4o-mini", "o3-mini"}
    assert "paired" not in capsys.readouterr().out
    assert not (out / "paired.csv").exists()


def test_diagnose_never_pairs_runs_of_different_lengths(tmp_path, capsys):
    log_a = _simulate(tmp_path, "--preset", "gpt-4o-mini", out="a")
    log_b = _simulate(tmp_path, "--eir", "0.05", "--ecr", "0.15", "--acc0", "0.7",
                      "--iterations", "6", "--label", "toy", out="b")
    out = tmp_path / "diagnosis"
    assert main(["report", str(log_a), str(log_b), "--out", str(tmp_path / "r")]) == EXIT_DATA
    assert main(["diagnose", str(log_a), str(log_b), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "verdicts.csv").read_text().splitlines()))
    assert [row["transition"] for row in rows if row["run"] == "toy"] == [str(t) for t in range(6)]
    assert "paired" not in capsys.readouterr().out


def test_analyze_and_diagnose_draw_no_bootstrap(tmp_path, monkeypatch):
    log_a = _simulate(tmp_path, "--preset", "gpt-4o-mini", out="a")
    log_b = _simulate(tmp_path, "--preset", "o3-mini", out="b")

    def refuse(*args, **kwargs):
        raise AssertionError("bootstrap drawn")

    monkeypatch.setattr("refineloop.report.paired_bootstrap_delta", refuse)
    for command in ("analyze", "diagnose"):
        assert main([command, str(log_a), str(log_b), "--out", str(tmp_path / command)]) == EXIT_OK


def test_report_pairs_two_runs(tmp_path, capsys):
    log_a = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--seed", "5",
                      "--label", "standard", out="a")
    log_b = _simulate(tmp_path, "--preset", "o3-mini", "--seed", "5",
                      "--label", "alternative", out="b")
    out = tmp_path / "rep"
    code = main(["report", str(log_a), str(log_b), "--seed", "0",
                 "--resamples", "400", "--out", str(out)])
    assert code == EXIT_OK
    for name in ("report.txt", "accuracy.csv", "rates.csv", "verdicts.csv",
                 "tests.csv", "summary.csv", "paired.csv"):
        assert (out / name).exists(), name
    assert "paired comparison: alternative minus standard" in (out / "report.txt").read_text()
    assert "mcnemar p" in capsys.readouterr().out


def test_report_stdout_rounds_deltas_as_report_txt_does(tmp_path, capsys):
    # runs a and b lose one and two of 5,000 correct answers: deltas -0.02 and -0.04 pp, paired -0.02 pp
    ids = [f"p{i}" for i in range(5000)]
    paths = []
    for label, lost in (("a", 1), ("b", 2)):
        bits = np.ones((5000, 2), dtype=bool)
        bits[:lost, 1] = False
        paths.append(tmp_path / f"{label}.csv")
        write_log(CorrectnessLog(problem_ids=ids, correctness=bits), paths[-1], run_label=label)
    out = tmp_path / "rep"
    assert main(["report", *map(str, paths), "--resamples", "200", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    text = (out / "report.txt").read_text().splitlines()
    for label in ("a", "b"):
        shown = next(line for line in printed if line.startswith(f"{label}: delta "))
        assert shown.startswith(f"{label}: delta +0.0 pp -> ")
        assert any(line.startswith(f"{label}: delta +0.0 pp, ") for line in text)
    paired = next(line for line in printed if line.startswith("paired "))
    final = next(line for line in text if line.startswith("final iteration: delta "))
    assert paired.startswith("paired b - a: +0.0 pp, CI ")
    assert final.startswith("final iteration: delta +0.0 pp, ")
    # the CI bounds print as report.txt prints them
    assert paired.split("CI ")[1].split(" pp")[0] == final.split("CI ")[1].split(" pp")[0]


def test_report_explicit_pair_flag(tmp_path):
    log_a = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--label", "a", out="a")
    log_b = _simulate(tmp_path, "--preset", "o3-mini", "--label", "b", out="b")
    out = tmp_path / "rep"
    code = main(["report", str(log_a), str(log_b), "--pair", "b", "a",
                 "--resamples", "300", "--out", str(out)])
    assert code == EXIT_OK
    first_row = (out / "paired.csv").read_text().splitlines()[1]
    assert first_row.startswith("b,a,")


def test_report_refuses_to_pair_a_run_with_itself(tmp_path, capsys):
    log_a = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--label", "a", out="a")
    log_b = _simulate(tmp_path, "--preset", "o3-mini", "--label", "b", out="b")
    out = tmp_path / "rep"
    code = main(["report", str(log_a), str(log_b), "--pair", "a", "a", "--out", str(out)])
    assert code == EXIT_DATA
    assert "cannot pair run 'a' with itself" in capsys.readouterr().err
    assert not (out / "paired.csv").exists()


def test_duplicate_run_labels_rejected(tmp_path):
    log_a = _simulate(tmp_path, "--preset", "o3-mini", "--label", "same", out="a")
    log_b = _simulate(tmp_path, "--preset", "gpt-5", "--label", "same", out="b")
    assert main(["report", str(log_a), str(log_b), "--out", str(tmp_path / "r")]) == EXIT_DATA


def test_missing_and_malformed_inputs(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.csv"), "--out", str(tmp_path)]) == EXIT_DATA
    bad = tmp_path / "bad.csv"
    bad.write_text("not a log\n")
    assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_DATA
    # a directory where a log should be, and a file where --out wants a directory
    assert main(["report", str(tmp_path), "--out", str(tmp_path / "r")]) == EXIT_DATA
    assert main(["simulate", "--preset", "o3-mini", "--out", str(bad)]) == EXIT_DATA


def test_internal_errors_exit_three(tmp_path, monkeypatch):
    log = _simulate(tmp_path, "--preset", "o3-mini")

    def boom(*args, **kwargs):
        raise RuntimeError("invariant breached")

    monkeypatch.setattr("refineloop.cli.build_report", boom)
    assert main(["report", str(log), "--out", str(tmp_path / "r")]) == EXIT_INTERNAL


def test_the_seed_comes_only_from_the_flag(tmp_path, monkeypatch, capsys):
    # the seed comes only from --seed: REFINELOOP_SEED in the environment is not read, whatever it holds
    for i, value in enumerate(("77", "not-a-number")):
        monkeypatch.setenv("REFINELOOP_SEED", value)
        path = _simulate(tmp_path, "--preset", "o3-mini", out=f"env{i}")
        assert "#meta:seed=0" in path.read_text().splitlines()
        assert main(["report", str(path), "--out", str(tmp_path / f"r{i}")]) == EXIT_OK
        printed = capsys.readouterr()
        assert "seed 0)" in printed.out and printed.err == ""


def test_parser_is_built_at_import(tmp_path):
    # one parser serves every call, so a flag given to one call must not become the next call's default
    with mock.patch.object(cli, "_Parser", wraps=cli._Parser) as built:  # counts top-level parsers only
        for i, seed in enumerate(("91", None, "93", None)):
            flag = () if seed is None else ("--seed", seed)
            path = _simulate(tmp_path, "--preset", "o3-mini", "--n", "20", *flag, out=f"run{i}")
            assert read_log(path).metadata["seed"] == (seed or "0")
    assert built.call_count == 0


def test_asc_scenario_command(tmp_path, capsys):
    doc = {
        "format": "asc-scenario/v1",
        "tau": 8,
        "max_iterations": 4,
        "equilibrium_mode": "calibration-only",
        "calibration_rates": {"eir": 0.02, "ecr": 0.01},
        "problems": [
            {"id": "p0", "answers": ["a", "b"], "confidences": [5, 5]},
            {"id": "p1", "answers": ["x"], "confidences": [9]},
        ],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "asc"
    assert main(["asc", str(scenario), "--out", str(out)]) == EXIT_OK
    outcomes = (out / "outcomes.csv").read_text().splitlines()
    assert outcomes[0] == "problem_id,iterations_used,stop_reason,answer_index,final_answer"
    assert "p0,0,equilibrium,0,a" in outcomes
    assert "p1,0,confidence,0,x" in outcomes
    summary = (out / "asc_summary.csv").read_text()
    assert "n_instances,2" in summary
    assert "stopped_equilibrium,1" in summary
    assert "histogram" in capsys.readouterr().out


def test_asc_online_labeled_summary(tmp_path):
    # round 1 pools 0 broken answers against 2 fixed and q3 stops on confidence;
    # round 2 pools 3 broken against 2 fixed, so equilibrium stops the rest on
    # their round-1 answers
    labels = {"q0": [True, True, False], "q1": [False, True, False], "q2": [False, True, False],
              "q3": [True, True], "q4": [False, False, False]}
    doc = {
        "format": "asc-scenario/v1",
        "max_iterations": 2,
        "equilibrium_mode": "online-labeled",
        "problems": [{"id": pid, "answers": [f"{pid}.{k}" for k in range(len(correct))],
                      "confidences": [5, 9] if pid == "q3" else [5, 5, 5], "correct": correct}
                     for pid, correct in labels.items()],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "asc"
    assert main(["asc", str(scenario), "--out", str(out)]) == EXIT_OK
    assert (out / "asc_summary.csv").read_text() == (
        "key,value\nn_instances,5\nrounds_executed,2\n"
        "stopped_confidence,1\nstopped_equilibrium,4\nstopped_budget,0\n"
        "iterations_1,5\nequilibrium_fired_round,2\npooled_eir,0.6\npooled_ecr,0.5\n"
    )


def test_asc_outcomes_are_quoted_csv(tmp_path):
    doc = {
        "format": "asc-scenario/v1",
        "problems": [{"id": "p,1", "answers": ["x, y"], "confidences": [9]},
                     {"id": "null", "answers": [None], "confidences": [9]}],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "asc"
    assert main(["asc", str(scenario), "--out", str(out)]) == EXIT_OK
    with open(out / "outcomes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["p,1", "0", "confidence", "0", "x, y"]
    assert rows[2] == ["null", "0", "confidence", "0", "None"]  # a kept null answer


def test_asc_rejects_bad_scenario(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{}")
    assert main(["asc", str(scenario), "--out", str(tmp_path)]) == EXIT_DATA
    assert main(["asc", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_DATA


@pytest.mark.parametrize("problem, field", [
    ({"id": "p0", "answers": ["a"], "confidences": [None]}, "confidences"),
    ({"id": "p0", "answers": ["a"], "confidences": [5], "correct": 5}, "correct"),
    ({"id": "p0", "answers": ["a", "b"], "confidences": [5, 5]}, "max_iterations"),  # script runs out
])
def test_asc_scenario_faults_exit_two(tmp_path, capsys, problem, field):
    doc = {"format": "asc-scenario/v1", "max_iterations": 2, "problems": [problem]}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["asc", str(scenario), "--out", str(tmp_path / "asc")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("refineloop: bad input: ") and field in err


def test_sc_command(tmp_path, capsys):
    out = tmp_path / "sc"
    code = main(["sc", "--p", "0.912", "--k", "3", "--n", "2000", "--seed", "0",
                 "--fit-target", "0.934", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "self_consistency.csv").read_text().splitlines()
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert float(cells["theoretical_iid_accuracy"]) == pytest.approx(0.978130944, abs=1e-12)
    assert float(cells["fitted_rho"]) == pytest.approx(0.667326690512689, abs=1e-9)
    assert float(cells["empirical_accuracy"]) == pytest.approx(0.978130944, abs=0.02)
    assert cells["seed"] == "0"
    printed = capsys.readouterr().out
    assert "97.81%" in printed
    assert "fitted rho 0.6673" in printed


def test_sc_usage_errors(tmp_path):
    out = str(tmp_path)
    assert main(["sc", "--p", "1.5", "--out", out]) == EXIT_USAGE
    assert main(["sc", "--p", "0.9", "--k", "2", "--out", out]) == EXIT_USAGE
    # from k = 1031 the closed form's binomial coefficients overflow a float
    assert main(["sc", "--p", "0.9", "--k", "1029", "--n", "10", "--out", out]) == EXIT_OK
    assert main(["sc", "--p", "0.9", "--k", "1031", "--n", "10", "--out", out]) == EXIT_USAGE
    assert main(["sc", "--p", "0.912", "--fit-target", "0.5", "--out", out]) == EXIT_USAGE
    assert main(["sc"]) == EXIT_USAGE  # --p is required


def test_sc_refuses_an_unattainable_fit_target_before_any_work(tmp_path, capsys):
    out = tmp_path / "sc"
    assert main(["sc", "--p", "0.912", "--fit-target", "0.99", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refineloop: error: " in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "o3-mini", "--acc0", "1.5"],
    ["simulate", "--preset", "o3-mini", "--ecr", "0.9"],
    ["sc", "--p", "1.5"],
    ["simulate", "--preset", "o3-mini", "--bogus", "1"],
    ["sc", "--p", "0.9", "extra"],
    ["simulate", "--eir", "0.1", "--ecr", "0.2", "--acc0", "0.5"],  # custom rates need --iterations
])
def test_usage_error_after_parsing_prints_the_subcommand_usage(tmp_path, capsys, argv):
    # these are refused by the command, not by an argparse type, or are
    # arguments the subcommand does not know; each names its flags
    assert main(argv + ["--out", str(tmp_path / "x")]) == EXIT_USAGE
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith(f"usage: refineloop {argv[0]} [-h]"), first


@pytest.mark.parametrize("argv, last", [
    pytest.param(["report", "{log}", "--confidence", "1.5"],
                 "argument --confidence: confidence must be a number in (0, 1), got 1.5", id="report-confidence-1.5"),
    pytest.param(["report", "{log}", "--confidence", "0"],
                 "argument --confidence: confidence must be a number in (0, 1), got 0.0", id="report-confidence-0"),
    pytest.param(["analyze", "{log}", "--confidence", "1.5"],
                 "argument --confidence: confidence must be a number in (0, 1), got 1.5", id="analyze-confidence-1.5"),
    pytest.param(["analyze", "{log}", "--confidence", "nan"],
                 "argument --confidence: confidence must be a number in (0, 1), got nan", id="analyze-confidence-nan"),
    pytest.param(["report", "{log}", "{other}", "--resamples", "0"],
                 "argument --resamples: resamples must be a positive int, got 0", id="report-resamples-0"),
    pytest.param(["report", "{log}", "--resamples", "many"],
                 "argument --resamples: invalid int value: 'many'", id="report-resamples-many"),
    pytest.param(["report", "{log}", "--resamples", "1.5"],
                 "argument --resamples: invalid int value: '1.5'", id="report-resamples-1.5"),
    pytest.param(["diagnose", "{log}", "--confidence", "0.9"],
                 "unrecognized arguments: --confidence 0.9", id="diagnose-has-no-confidence"),
    pytest.param(["sc", "--p", "0.9", "--n", "0"],
                 "argument --n: n_problems must be a positive int, got 0", id="sc-n-0"),
    pytest.param(["sc", "--p", "0.9", "--seed", "-1"],
                 "argument --seed: seed must be a non-negative int, got -1", id="sc-seed-negative"),
    pytest.param(["report", "{log}", "--seed", "-1"],
                 "argument --seed: seed must be a non-negative int, got -1", id="report-one-run-seed-negative"),
    pytest.param(["report", "{log}", "{other}", "--seed", "18446744073709551616"],
                 "argument --seed: seed must be in [0, 2**64), got 18446744073709551616", id="report-seed-2-64"),
    pytest.param(["diagnose", "{log}", "--band", "1"], "unrecognized arguments: --band 1", id="diagnose-has-no-band"),
    pytest.param(["simulate", "--preset", "o3-mini", "--label", ""],
                 "run label must be a one-line string, non-empty in record form, got ''",
                 id="simulate-empty-record-label"),
    pytest.param(["simulate", "--preset", "o3-mini", "--label", "a\nb"],
                 "run label must be a one-line string, non-empty in record form, got 'a\\nb'",
                 id="simulate-multiline-label"),
    pytest.param(["simulate", "--preset", "o3-mini", "--form", "compact", "--label", "a\rb"],
                 "run label must be a one-line string, non-empty in record form, got 'a\\rb'",
                 id="simulate-multiline-compact-label"),
])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, argv, last):
    # exit 1, the subcommand's usage line, then a message that names the flag or value
    log = _simulate(tmp_path, "--preset", "o3-mini", "--n", "20")
    other = _simulate(tmp_path, "--preset", "o3-mini", "--n", "20", "--label", "other", out="other")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [arg.format(log=log, other=other) for arg in argv] + ["--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage: refineloop {argv[0]} [-h]")
    assert err.splitlines()[-1] == f"refineloop: error: {last}"
    assert not out.exists()


@pytest.mark.parametrize("argv, code, stream, first", [
    (["--version"], EXIT_OK, "stdout", "refineloop 0.1.0"),
    ([], EXIT_USAGE, "stderr", "usage: refineloop [-h] [--version] command ..."),
])
def test_python_dash_m_runs_the_cli(argv, code, stream, first):
    done = subprocess.run([sys.executable, "-m", "refineloop", *argv], capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert getattr(done, stream).splitlines()[0] == first


def test_package_reexports_every_public_name():
    for info in pkgutil.iter_modules(refineloop.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"refineloop.{info.name}")
            missing = [name for name in getattr(module, "__all__", ()) if not hasattr(refineloop, name)]
            assert not missing, (info.name, missing)
            if hasattr(module, "__all__"):  # every public class and function it defines is listed
                unlisted = [name for name, obj in vars(module).items()
                            if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
                            and obj.__module__ == module.__name__ and name not in module.__all__]
                assert not unlisted, (info.name, unlisted)


def test_exported_dataclasses_are_frozen():
    # a record is set once, by its checked constructor; no exported dataclass takes a later assignment
    exported = [obj for name in dir(refineloop) if dataclasses.is_dataclass(obj := getattr(refineloop, name))
                and inspect.isclass(obj)]
    assert exported
    mutable = sorted(cls.__name__ for cls in exported if not cls.__dataclass_params__.frozen)
    assert not mutable, mutable


def test_module_public_names_are_disjoint():
    # the package root star-imports every module, so a name in two lists would be shadowed silently
    owner = {}
    for info in pkgutil.iter_modules(refineloop.__path__):
        if info.name != "__main__":
            for name in getattr(importlib.import_module(f"refineloop.{info.name}"), "__all__", ()):
                assert name not in owner, (name, owner.get(name), info.name)
                owner[name] = info.name
    assert owner  # the modules do declare their public names


def test_pipeline_is_byte_identical(tmp_path):
    def run(tag):
        base = tmp_path / tag
        log = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--seed", "9", out=f"{tag}-sim")
        assert main(["report", str(log), "--seed", "4", "--resamples", "500",
                     "--out", str(base)]) == EXIT_OK
        files = sorted(p.name for p in base.iterdir())
        return {name: (base / name).read_bytes() for name in files} | {
            "log.csv": log.read_bytes()
        }

    assert run("one") == run("two")


def test_readme_commands_parse():
    # Every command line README shows must still parse: a deleted flag fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("refineloop ")]
    parser = _build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subcommands.choices)
    for argv in commands:  # so a subcommand added without a handler fails here
        assert callable(parser.parse_args(argv).run)


def test_report_on_simulated_logs_builds_no_id_strs(tmp_path):
    # every id of a simulated log stays in its byte grid, through the read, the pairing and the report
    paths = [_simulate(tmp_path, "--preset", name, "--seed", "2", "--n", "300", "--iterations", "4", out=name)
             for name in ("gpt-4o-mini", "o4-mini")]
    with mock.patch.object(logs._IdGrid, "__iter__", autospec=True, side_effect=logs._IdGrid.__iter__) as split:
        assert main(["report", *map(str, paths), "--resamples", "50", "--out", str(tmp_path / "report")]) == EXIT_OK
    assert split.call_count == 0
