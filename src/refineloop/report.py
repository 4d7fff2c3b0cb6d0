"""Diagnostic reports over correctness logs.

A report bundles, per run: the accuracy trajectory, per-transition rate
estimates with intervals, a stop-or-iterate verdict wherever both rates
are defined, the steady state implied by the pooled rates, adjacent-
iteration McNemar tests, and a three-way classification of the loop:

* ``tier-1 non-degrading``: final-minus-initial accuracy within a small
  band (default 0.5 pp) and pooled eir at or under a cap (default 0.5%);
* ``tier-2 beneficial``: accuracy moved up beyond the tier-1 band;
* ``harmful``: everything else.

The band is checked first, so a flat-but-controlled loop is not promoted
to beneficial on rounding noise. When the report covers exactly two runs
(or a pair is requested) it adds a paired final-iteration comparison:
McNemar plus a seeded percentile bootstrap for the accuracy difference.

Rendering produces plain-text tables (percentages at one decimal, the
published print style) plus machine-readable CSVs carrying full float
precision. Output is a pure function of inputs and seed: no timestamps,
no environment leakage, byte-identical across runs and worker counts.
"""

import io
import csv
import math
from dataclasses import dataclass
from typing import Mapping

from .dynamics import (
    EquilibriumVerdict,
    SteadyStateSummary,
    TransitionRates,
    steady_state,
    stop_or_iterate,
)
from .estimate import RateEstimates, estimate_rates
from .logs import CorrectnessLog, align_rows
from .stats import BootstrapDelta, McNemarResult, mcnemar, mcnemar_from_logs, paired_bootstrap_delta

__all__ = [
    "CLASS_HARMFUL",
    "CLASS_TIER1",
    "CLASS_TIER2",
    "Classification",
    "RunDiagnostics",
    "PairedComparison",
    "DiagnosticReport",
    "classify_run",
    "diagnose_runs",
    "build_report",
    "render_tables",
]

CLASS_HARMFUL = "harmful"
CLASS_TIER1 = "tier-1 non-degrading"
CLASS_TIER2 = "tier-2 beneficial"

DEFAULT_BAND_PP = 0.5
DEFAULT_EIR_THRESHOLD = 0.005


def classify_run(
    delta_pp: float,
    pooled_eir: float | None,
    band_pp: float = DEFAULT_BAND_PP,
    eir_threshold: float = DEFAULT_EIR_THRESHOLD,
) -> str:
    """Pure classification rule; thresholds are explicit arguments."""
    if pooled_eir is not None and abs(delta_pp) <= band_pp and pooled_eir <= eir_threshold:
        return CLASS_TIER1
    if delta_pp > 0.0:
        return CLASS_TIER2
    return CLASS_HARMFUL


@dataclass(frozen=True)
class Classification:
    tag: str
    delta_pp: float


@dataclass(frozen=True)
class RunDiagnostics:
    label: str
    estimates: RateEstimates
    verdicts: tuple[EquilibriumVerdict | None, ...]
    steady: SteadyStateSummary | None
    transition_tests: tuple[McNemarResult, ...]
    classification: Classification


@dataclass(frozen=True)
class PairedComparison:
    """Final-iteration comparison, oriented second-run minus first-run."""

    label_a: str
    label_b: str
    delta_pp_by_iteration: tuple[float, ...]
    final_mcnemar: McNemarResult
    final_bootstrap: BootstrapDelta


@dataclass(frozen=True)
class DiagnosticReport:
    runs: tuple[RunDiagnostics, ...]
    paired: PairedComparison | None


def _diagnose_run(label: str, log: CorrectnessLog, confidence: float,
                  band_pp: float, eir_threshold: float) -> RunDiagnostics:
    est = estimate_rates(log, confidence=confidence)
    verdicts = []
    for t, item in enumerate(est.per_transition):
        if item.eir is None or item.ecr is None:
            verdicts.append(None)
        else:
            acc_before = est.accuracy_series[t].accuracy
            verdicts.append(stop_or_iterate(acc_before, TransitionRates(item.eir, item.ecr)))
    steady = None
    if est.pooled_eir is not None and est.pooled_ecr is not None:
        steady = steady_state(TransitionRates(est.pooled_eir, est.pooled_ecr))
    # adjacent-iteration McNemar: b and c are the transition's n_ci and n_ic
    tests = tuple(
        mcnemar(b=item.counts.n_ci, c=item.counts.n_ic) for item in est.per_transition
    )
    delta_pp = (est.accuracy_series[-1].accuracy - est.accuracy_series[0].accuracy) * 100.0
    tag = classify_run(delta_pp, est.pooled_eir, band_pp, eir_threshold)
    return RunDiagnostics(
        label=label,
        estimates=est,
        verdicts=tuple(verdicts),
        steady=steady,
        transition_tests=tests,
        classification=Classification(tag=tag, delta_pp=delta_pp),
    )


def diagnose_runs(
    runs: Mapping[str, CorrectnessLog],
    confidence: float = 0.95,
    band_pp: float = DEFAULT_BAND_PP,
    eir_threshold: float = DEFAULT_EIR_THRESHOLD,
) -> DiagnosticReport:
    """Diagnose every run on its own: no paired comparison, no resamples drawn."""
    return DiagnosticReport(
        runs=tuple(_diagnose_run(label, log, confidence, band_pp, eir_threshold) for label, log in runs.items()),
        paired=None,
    )


def build_report(
    runs: Mapping[str, CorrectnessLog],
    seed: int = 0,
    resamples: int = 10_000,
    confidence: float = 0.95,
    band_pp: float = DEFAULT_BAND_PP,
    eir_threshold: float = DEFAULT_EIR_THRESHOLD,
    pair: tuple[str, str] | None = None,
) -> DiagnosticReport:
    """Diagnose every run; pair two of them when asked or when obvious.

    ``runs`` preserves insertion order. With exactly two runs and no
    explicit ``pair``, they are compared in that order (delta = second
    minus first).
    """
    report = diagnose_runs(runs, confidence, band_pp, eir_threshold)
    if pair is None and len(runs) == 2:
        pair = tuple(runs)
    if pair is None:
        return report
    a_label, b_label = pair
    for label in (a_label, b_label):
        if label not in runs:
            raise ValueError(f"cannot pair unknown run {label!r}")
    mat_a, mat_b = runs[a_label].correctness, align_rows(runs[a_label], runs[b_label])
    if mat_a.shape != mat_b.shape:
        raise ValueError("paired runs have different iteration counts")
    # a column's accuracy is its count over n, so pairing rows cannot change it
    series = {run.label: run.estimates.accuracy_series for run in report.runs}
    deltas = tuple((b.accuracy - a.accuracy) * 100.0 for a, b in zip(series[a_label], series[b_label]))
    paired = PairedComparison(
        label_a=a_label,
        label_b=b_label,
        delta_pp_by_iteration=deltas,
        final_mcnemar=mcnemar_from_logs(mat_a[:, -1], mat_b[:, -1]),
        final_bootstrap=paired_bootstrap_delta(
            mat_a[:, -1], mat_b[:, -1], resamples=resamples, seed=seed, confidence=confidence
        ),
    )
    return DiagnosticReport(runs=report.runs, paired=paired)


# -- rendering ----------------------------------------------------------------


def _cell(value) -> str:
    """Full-precision machine cell; None -> empty, floats via repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pct(value: float) -> str:
    return f"{value * 100.0:.1f}"


def _signed_pp(value: float) -> str:
    rounded = round(value, 1) + 0.0  # normalize -0.0
    return f"{rounded:+.1f}"


def _csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def _accuracy_csv(report: DiagnosticReport) -> str:
    rows = [["run", "iteration", "accuracy", "net_benefit"]]
    for run in report.runs:
        for point in run.estimates.accuracy_series:
            rows.append([run.label, point.iteration, _cell(point.accuracy), _cell(point.net_benefit)])
    return _csv(rows)


def _rates_csv(report: DiagnosticReport) -> str:
    rows = [[
        "run", "transition", "n_cc", "n_ci", "n_ic", "n_ii",
        "eir", "eir_lo", "eir_hi", "ecr", "ecr_lo", "ecr_hi",
    ]]
    for run in report.runs:
        for t, item in enumerate(run.estimates.per_transition):
            eir_lo, eir_hi = item.eir_interval if item.eir_interval else (None, None)
            ecr_lo, ecr_hi = item.ecr_interval if item.ecr_interval else (None, None)
            c = item.counts
            rows.append([
                run.label, t, c.n_cc, c.n_ci, c.n_ic, c.n_ii,
                _cell(item.eir), _cell(eir_lo), _cell(eir_hi),
                _cell(item.ecr), _cell(ecr_lo), _cell(ecr_hi),
            ])
    return _csv(rows)


def _verdicts_csv(report: DiagnosticReport) -> str:
    rows = [["run", "transition", "verdict", "rate_ratio", "accuracy_odds", "net_benefit"]]
    for run in report.runs:
        for t, verdict in enumerate(run.verdicts):
            if verdict is None:
                rows.append([run.label, t, "undefined", "", "", ""])
            else:
                rows.append([
                    run.label, t, verdict.verdict.value,
                    _cell(verdict.rate_ratio), _cell(verdict.accuracy_odds),
                    _cell(verdict.net_benefit),
                ])
    return _csv(rows)


def _tests_csv(report: DiagnosticReport) -> str:
    rows = [["run", "comparison", "b", "c", "statistic", "p_value", "significant"]]
    for run in report.runs:
        for t, test in enumerate(run.transition_tests):
            rows.append([
                run.label, f"it{t}->it{t + 1}", test.b, test.c,
                _cell(test.statistic), _cell(test.p_value), _cell(test.significant),
            ])
    return _csv(rows)


def _summary_csv(report: DiagnosticReport) -> str:
    rows = [[
        "run", "delta_pp", "pooled_eir", "pooled_ecr",
        "steady_accuracy", "eigenvalue", "absorbing", "classification",
    ]]
    for run in report.runs:
        steady = run.steady
        rows.append([
            run.label,
            _cell(run.classification.delta_pp),
            _cell(run.estimates.pooled_eir),
            _cell(run.estimates.pooled_ecr),
            _cell(None if steady is None or math.isnan(steady.accuracy) else steady.accuracy),
            _cell(None if steady is None else steady.eigenvalue),
            _cell(None if steady is None else steady.absorbing),
            run.classification.tag,
        ])
    return _csv(rows)


def _paired_csv(paired: PairedComparison) -> str:
    rows = [[
        "run_a", "run_b", "delta_pp", "ci_lo", "ci_hi", "resamples", "seed",
        "mcnemar_b", "mcnemar_c", "mcnemar_statistic", "mcnemar_p_value",
    ]]
    rows.append([
        paired.label_a, paired.label_b,
        _cell(paired.final_bootstrap.delta_pp),
        _cell(paired.final_bootstrap.ci_lo),
        _cell(paired.final_bootstrap.ci_hi),
        paired.final_bootstrap.resamples,
        paired.final_bootstrap.seed,
        paired.final_mcnemar.b, paired.final_mcnemar.c,
        _cell(paired.final_mcnemar.statistic), _cell(paired.final_mcnemar.p_value),
    ])
    return _csv(rows)


def _text_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        # left-align the first column, right-align numeric columns
        parts = [row[0].ljust(widths[0])]
        parts += [cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0]
        return "  ".join(parts).rstrip()
    return [fmt(headers)] + [fmt(r) for r in rows]


def _report_text(report: DiagnosticReport) -> str:
    lines: list[str] = ["refinement loop diagnostic", ""]
    if not report.runs:
        lines.append("(no runs)")
        return "\n".join(lines) + "\n"

    width = max(len(run.estimates.accuracy_series) for run in report.runs)
    headers = ["run"] + [f"it{k}" for k in range(width)] + ["delta"]
    acc_rows = []
    for run in report.runs:
        series = run.estimates.accuracy_series
        cells = [_pct(p.accuracy) for p in series]
        cells += [""] * (width - len(cells))
        # print-style delta: difference of the displayed one-decimal values
        shown_delta = round(series[-1].accuracy * 100.0, 1) - round(series[0].accuracy * 100.0, 1)
        acc_rows.append([run.label] + cells + [_signed_pp(shown_delta)])
    lines += ["accuracy (%)"] + _text_table(headers, acc_rows) + [""]

    lines.append("per-transition rates (%)")
    rate_rows = []
    for run in report.runs:
        for t, item in enumerate(run.estimates.per_transition):
            rate_rows.append([
                run.label,
                f"it{t}->it{t + 1}",
                _pct(item.eir) if item.eir is not None else "n/a",
                _pct(item.ecr) if item.ecr is not None else "n/a",
                (run.verdicts[t].verdict.value if run.verdicts[t] is not None else "undefined"),
            ])
    lines += _text_table(["run", "transition", "eir", "ecr", "verdict"], rate_rows) + [""]

    for run in report.runs:
        c, est = run.classification, run.estimates
        pooled_eir = _pct(est.pooled_eir) if est.pooled_eir is not None else "n/a"
        pooled_ecr = _pct(est.pooled_ecr) if est.pooled_ecr is not None else "n/a"
        lines.append(
            f"{run.label}: delta {_signed_pp(c.delta_pp)} pp, "
            f"pooled eir {pooled_eir}%, pooled ecr {pooled_ecr}% -> {c.tag}"
        )
        if run.steady is not None and not run.steady.absorbing:
            lines.append(
                f"{run.label}: steady-state accuracy {_pct(run.steady.accuracy)}%, "
                f"eigenvalue {run.steady.eigenvalue:.4f}"
            )
        elif run.steady is not None:
            lines.append(f"{run.label}: absorbing at pooled rates (no flips observed)")
    lines.append("")

    lines.append("adjacent-iteration mcnemar")
    test_rows = []
    for run in report.runs:
        for t, test in enumerate(run.transition_tests):
            note = "no discordant pairs" if test.no_discordance else (
                "significant" if test.significant else "not significant"
            )
            test_rows.append([
                run.label, f"it{t}->it{t + 1}", str(test.b), str(test.c),
                f"{test.statistic:.2f}", f"{test.p_value:.3f}", note,
            ])
    lines += _text_table(["run", "transition", "b", "c", "statistic", "p", "verdict"], test_rows)

    if report.paired is not None:
        p = report.paired
        lines += ["", f"paired comparison: {p.label_b} minus {p.label_a}"]
        per_it = "  ".join(_signed_pp(d) for d in p.delta_pp_by_iteration)
        lines.append(f"delta by iteration (pp): {per_it}")
        lines.append(
            f"final iteration: delta {_signed_pp(p.final_bootstrap.delta_pp)} pp, "
            f"{p.final_bootstrap.confidence * 100:g}% CI "
            f"[{p.final_bootstrap.ci_lo:+.1f}, {p.final_bootstrap.ci_hi:+.1f}] pp "
            f"({p.final_bootstrap.resamples} resamples, seed {p.final_bootstrap.seed})"
        )
        lines.append(
            f"final iteration mcnemar: b={p.final_mcnemar.b} c={p.final_mcnemar.c} "
            f"statistic {p.final_mcnemar.statistic:.2f}, p {p.final_mcnemar.p_value:.2e}"
        )
    return "\n".join(lines) + "\n"


def render_tables(report: DiagnosticReport) -> dict[str, str]:
    """Render every artifact; keys are file names, values full contents."""
    artifacts = {
        "report.txt": _report_text(report),
        "accuracy.csv": _accuracy_csv(report),
        "rates.csv": _rates_csv(report),
        "verdicts.csv": _verdicts_csv(report),
        "tests.csv": _tests_csv(report),
        "summary.csv": _summary_csv(report),
    }
    if report.paired is not None:
        artifacts["paired.csv"] = _paired_csv(report.paired)
    return artifacts
