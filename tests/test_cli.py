"""End-to-end command-line tests, run in process through main()."""

import csv
import json

import pytest

from refineloop.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from refineloop.logs import read_log, read_runs


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
    assert main(["simulate", "--preset", "o3-mini", "--n", "0", "--out", out]) == EXIT_USAGE
    # more iterations than the schedule defines, without --stationary-tail
    assert main(["simulate", "--preset", "gpt-4o-mini", "--iterations", "6",
                 "--out", out]) == EXIT_USAGE
    assert main(["bogus-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


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
    out = tmp_path / "analysis"
    assert main(["analyze", str(log), "--out", str(out)]) == EXIT_OK
    assert (out / "accuracy.csv").exists()
    assert (out / "rates.csv").exists()
    assert not (out / "report.txt").exists()
    assert main(["diagnose", str(log), "--out", str(out)]) == EXIT_OK
    assert (out / "verdicts.csv").exists()
    assert (out / "summary.csv").exists()
    assert "harmful" in (out / "summary.csv").read_text()
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


def test_report_explicit_pair_flag(tmp_path):
    log_a = _simulate(tmp_path, "--preset", "gpt-4o-mini", "--label", "a", out="a")
    log_b = _simulate(tmp_path, "--preset", "o3-mini", "--label", "b", out="b")
    out = tmp_path / "rep"
    code = main(["report", str(log_a), str(log_b), "--pair", "b", "a",
                 "--resamples", "300", "--out", str(out)])
    assert code == EXIT_OK
    first_row = (out / "paired.csv").read_text().splitlines()[1]
    assert first_row.startswith("b,a,")


def test_duplicate_run_labels_rejected(tmp_path):
    log_a = _simulate(tmp_path, "--preset", "o3-mini", "--label", "same", out="a")
    log_b = _simulate(tmp_path, "--preset", "gpt-5", "--label", "same", out="b")
    assert main(["report", str(log_a), str(log_b), "--out", str(tmp_path / "r")]) == EXIT_DATA


def test_missing_and_malformed_inputs(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.csv"), "--out", str(tmp_path)]) == EXIT_DATA
    bad = tmp_path / "bad.csv"
    bad.write_text("not a log\n")
    assert main(["analyze", str(bad), "--out", str(tmp_path)]) == EXIT_DATA


def test_internal_errors_exit_three(tmp_path, monkeypatch):
    log = _simulate(tmp_path, "--preset", "o3-mini")

    def boom(*args, **kwargs):
        raise RuntimeError("invariant breached")

    monkeypatch.setattr("refineloop.cli.build_report", boom)
    assert main(["report", str(log), "--out", str(tmp_path / "r")]) == EXIT_INTERNAL


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("REFINELOOP_SEED", "77")
    path = _simulate(tmp_path, "--preset", "o3-mini", out="env")
    assert read_log(path).metadata["seed"] == "77"
    # explicit flag wins over the environment
    path = _simulate(tmp_path, "--preset", "o3-mini", "--seed", "5", out="flag")
    assert read_log(path).metadata["seed"] == "5"
    monkeypatch.setenv("REFINELOOP_SEED", "not-a-number")
    assert main(["simulate", "--preset", "o3-mini", "--out", str(tmp_path / "z")]) == EXIT_USAGE


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


def test_asc_outcomes_are_quoted_csv(tmp_path):
    doc = {
        "format": "asc-scenario/v1",
        "problems": [{"id": "p,1", "answers": ["x, y"], "confidences": [9]}],
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "asc"
    assert main(["asc", str(scenario), "--out", str(out)]) == EXIT_OK
    with open(out / "outcomes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["p,1", "0", "confidence", "0", "x, y"]


def test_asc_rejects_bad_scenario(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{}")
    assert main(["asc", str(scenario), "--out", str(tmp_path)]) == EXIT_DATA
    assert main(["asc", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_DATA


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
    assert main(["sc", "--p", "0.912", "--fit-target", "0.5", "--out", out]) == EXIT_USAGE
    assert main(["sc"]) == EXIT_USAGE  # --p is required


@pytest.mark.parametrize("argv", [
    pytest.param(["report", "{log}", "--confidence", "1.5"], id="report-confidence-1.5"),
    pytest.param(["report", "{log}", "--confidence", "0"], id="report-confidence-0"),
    pytest.param(["analyze", "{log}", "--confidence", "1.5"], id="analyze-confidence-1.5"),
    pytest.param(["report", "{log}", "{other}", "--resamples", "0"], id="report-resamples-0"),
    pytest.param(["report", "{log}", "--resamples", "many"], id="report-resamples-many"),
    pytest.param(["diagnose", "{log}", "--confidence", "0.9"], id="diagnose-has-no-confidence"),
    pytest.param(["sc", "--p", "0.9", "--n", "0"], id="sc-n-0"),
])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, argv):
    log = _simulate(tmp_path, "--preset", "o3-mini", "--n", "20")
    other = _simulate(tmp_path, "--preset", "o3-mini", "--n", "20", "--label", "other", out="other")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [arg.format(log=log, other=other) for arg in argv] + ["--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage: refineloop")
    assert not out.exists()


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
