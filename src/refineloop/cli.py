"""Command-line interface.

Subcommands::

    simulate   write a simulated correctness log from a preset or custom rates
    analyze    estimate per-transition and pooled rates from a log
    diagnose   stop-or-iterate verdicts, steady state, and classification
    asc        run a scripted adaptive-stopping scenario
    sc         self-consistency closed form, simulation, and rho fitting
    report     full diagnostic report (all tables, optional paired tests)

All artifacts land in the directory given by ``--out`` (default ``.``).
Exit codes: 0 success, 1 usage error, 2 malformed input data, 3 internal
invariant breach. ``REFINELOOP_SEED`` supplies the default seed.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

from . import __version__
from .asc import StopReason, load_scenario, run_scenario
from .baselines import (
    CorrelatedSampleModel,
    fit_common_cause_weight,
    mixture_sc_accuracy,
    simulate_self_consistency,
    theoretical_sc_accuracy,
)
from .logs import read_runs, write_log
from .report import DEFAULT_BAND_PP, DEFAULT_EIR_THRESHOLD, build_report, diagnose_runs, render_tables
from .schedule import RateSchedule, preset, preset_baseline, preset_names
from .simulate import SimConfig, simulate_population

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

SEED_ENV_VAR = "REFINELOOP_SEED"


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own
    # exit-code scheme instead (usage errors are 1 here).
    def error(self, message):
        raise _UsageError(message, self)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}", _build_parser()) from None


def _checked(kind, ok, rule: str):
    """An argparse type: ``kind(text)``, refused as a usage error unless ``ok``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value: ..."
    return parse


_open_unit = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="refineloop", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"refineloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sim = sub.add_parser(
        "simulate",
        help="write a simulated correctness log",
        description="Simulate a population of refinement chains and write the log. "
        f"Presets: {', '.join(preset_names())}.",
    )
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named rate schedule (see above)")
    group.add_argument("--eir", type=float, help="stationary error-introduction probability")
    sim.add_argument("--ecr", type=float, help="stationary error-correction probability (with --eir)")
    sim.add_argument("--n", type=int, default=500, help="population size (default 500)")
    sim.add_argument("--iterations", type=int, help="refinement passes (default: schedule length)")
    sim.add_argument("--acc0", type=float, help="initial accuracy (default: preset baseline)")
    sim.add_argument("--seed", type=int, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    sim.add_argument("--label", help="run label stored in the log (default: preset name or 'run')")
    sim.add_argument("--form", choices=("records", "compact"), default="records")
    sim.add_argument("--stationary-tail", action="store_true",
                     help="repeat the final schedule entry past its end")
    sim.add_argument("--out", default=".", help="output directory (default .)")

    for name, text in (("analyze", "estimate rates from a log"),
                       ("diagnose", "verdicts, steady state, and classification")):
        p = sub.add_parser(name, help=text)
        p.add_argument("logs", nargs="+", metavar="LOG")
        if name == "analyze":  # diagnose writes no interval
            p.add_argument("--confidence", type=_open_unit, default=0.95)
        p.add_argument("--band", type=float, default=DEFAULT_BAND_PP,
                       help="tier-1 |delta| band in pp (default 0.5)")
        p.add_argument("--eir-threshold", type=float, default=DEFAULT_EIR_THRESHOLD,
                       help="tier-1 pooled-eir cap as a probability (default 0.005)")
        p.add_argument("--out", default=".")

    asc_p = sub.add_parser("asc", help="run a scripted adaptive-stopping scenario")
    asc_p.add_argument("scenario", metavar="SCENARIO")
    asc_p.add_argument("--out", default=".")

    sc_p = sub.add_parser("sc", help="self-consistency baseline numbers")
    sc_p.add_argument("--p", type=float, required=True, help="per-sample accuracy")
    sc_p.add_argument("--k", type=int, default=3, help="samples per problem (odd, default 3)")
    sc_p.add_argument("--rho", type=float, default=0.0, help="common-cause weight (default 0)")
    sc_p.add_argument("--n", type=_positive_int, default=100_000, help="simulated problems (default 100000)")
    sc_p.add_argument("--seed", type=int)
    sc_p.add_argument("--fit-target", type=float,
                      help="also fit the rho whose closed-form accuracy hits this value")
    sc_p.add_argument("--out", default=".")

    rep = sub.add_parser("report", help="full diagnostic report")
    rep.add_argument("logs", nargs="+", metavar="LOG")
    rep.add_argument("--pair", nargs=2, metavar=("RUN_A", "RUN_B"),
                     help="paired comparison (default: automatic when exactly two runs)")
    rep.add_argument("--seed", type=int)
    rep.add_argument("--resamples", type=_positive_int, default=10_000)
    rep.add_argument("--confidence", type=_open_unit, default=0.95)
    rep.add_argument("--band", type=float, default=DEFAULT_BAND_PP)
    rep.add_argument("--eir-threshold", type=float, default=DEFAULT_EIR_THRESHOLD)
    rep.add_argument("--out", default=".")
    return parser


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)


def _seed_of(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _collect_runs(paths) -> dict:
    runs: dict = {}
    for raw in paths:
        for label, log in read_runs(raw).items():
            if label in runs:
                raise ValueError(f"run label {label!r} appears in more than one input")
            runs[label] = log
    return runs


def _cmd_simulate(args, parser) -> int:
    seed = _seed_of(args)
    if args.preset is not None:
        try:
            schedule = preset(args.preset)
        except KeyError as exc:
            raise _UsageError(str(exc.args[0]), parser) from None
        acc0 = args.acc0 if args.acc0 is not None else preset_baseline(args.preset)
        label = args.label or args.preset
        iterations = args.iterations if args.iterations is not None else len(schedule)
        if args.stationary_tail and not schedule.stationary_tail:
            schedule = RateSchedule(schedule.transitions, schedule.name, stationary_tail=True)
        if iterations > len(schedule) and not schedule.stationary_tail:
            raise _UsageError(f"preset {args.preset!r} defines {len(schedule)} transitions; "
                              f"--iterations {iterations} needs --stationary-tail", parser)
    else:
        if args.ecr is None:
            raise _UsageError("--eir requires --ecr", parser)
        if args.iterations is None:
            raise _UsageError("custom rates require --iterations", parser)
        if args.acc0 is None:
            raise _UsageError("custom rates require --acc0", parser)
        schedule = RateSchedule.from_pairs([(args.eir, args.ecr)], stationary_tail=True)
        acc0 = args.acc0
        label = args.label or "run"
        iterations = args.iterations
    try:
        config = SimConfig(
            n_problems=args.n,
            n_iterations=iterations,
            initial_accuracy=acc0,
            seed=seed,
            schedule=schedule,
        )
    except ValueError as exc:
        raise _UsageError(str(exc), parser) from None
    trajectory = simulate_population(config)
    out = _out_dir(args)
    target = out / "log.csv"
    write_log(trajectory.log, target, form=args.form, run_label=label)
    final = trajectory.log.accuracy(iterations)
    print(f"wrote {target} ({args.n} problems, {iterations} iterations, seed {seed})")
    print(f"accuracy {trajectory.log.accuracy(0) * 100.0:.1f}% -> {final * 100.0:.1f}%")
    return EXIT_OK


_ANALYZE_FILES = ("accuracy.csv", "rates.csv")
_DIAGNOSE_FILES = ("verdicts.csv", "summary.csv")
_REPORT_FILES = None  # everything render_tables produces


def _cmd_tables(args, which) -> int:
    runs = _collect_runs(args.logs)
    if which is not None:  # analyze and diagnose never pair runs
        report = diagnose_runs(runs, getattr(args, "confidence", 0.95), args.band, args.eir_threshold)
    else:
        report = build_report(
            runs,
            seed=_seed_of(args),
            resamples=args.resamples,
            confidence=args.confidence,
            band_pp=args.band,
            eir_threshold=args.eir_threshold,
            pair=tuple(args.pair) if args.pair else None,
        )
    artifacts = render_tables(report)
    out = _out_dir(args)
    names = which if which is not None else tuple(artifacts)
    for name in names:
        _write(out / name, artifacts[name])
    for run in report.runs:
        c = run.classification
        print(f"{run.label}: delta {c.delta_pp:+.1f} pp -> {c.tag}")
    if report.paired is not None:
        b = report.paired.final_bootstrap
        print(
            f"paired {report.paired.label_b} - {report.paired.label_a}: "
            f"{b.delta_pp:+.1f} pp, CI [{b.ci_lo:+.1f}, {b.ci_hi:+.1f}] pp, "
            f"mcnemar p {report.paired.final_mcnemar.p_value:.2e}"
        )
    print(f"wrote {', '.join(str(out / n) for n in names)}")
    return EXIT_OK


def _cmd_analyze(args, parser) -> int:
    return _cmd_tables(args, _ANALYZE_FILES)


def _cmd_diagnose(args, parser) -> int:
    return _cmd_tables(args, _DIAGNOSE_FILES)


def _cmd_report(args, parser) -> int:
    return _cmd_tables(args, _REPORT_FILES)


def _cmd_asc(args, parser) -> int:
    scenario = load_scenario(args.scenario)
    outcomes, summary, _ = run_scenario(scenario)
    out = _out_dir(args)
    with open(out / "outcomes.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["problem_id", "iterations_used", "stop_reason", "answer_index", "final_answer"])
        writer.writerows(  # answer_index is iterations_used; str keeps a None answer as "None"
            [p.problem_id, o.iterations_used, o.stop_reason.value, o.iterations_used, str(o.final_answer)]
            for p, o in zip(scenario.problems, outcomes)
        )
    srows = ["key,value", f"n_instances,{summary.n_instances}", f"rounds_executed,{summary.rounds_executed}"]
    for reason in StopReason:
        srows.append(f"stopped_{reason.value},{summary.stop_reasons.get(reason, 0)}")
    for k, n in summary.iterations_histogram.items():
        srows.append(f"iterations_{k},{n}")
    if summary.equilibrium_fired_round is not None:
        srows.append(f"equilibrium_fired_round,{summary.equilibrium_fired_round}")
    if summary.final_pooled_rates is not None:
        srows.append(f"pooled_eir,{summary.final_pooled_rates.eir!r}")
        srows.append(f"pooled_ecr,{summary.final_pooled_rates.ecr!r}")
    _write(out / "asc_summary.csv", "\n".join(srows) + "\n")
    hist = ", ".join(f"{k}:{n}" for k, n in summary.iterations_histogram.items())
    print(f"{summary.n_instances} instances, iterations histogram {{{hist}}}")
    print(f"wrote {out / 'outcomes.csv'}, {out / 'asc_summary.csv'}")
    return EXIT_OK


def _cmd_sc(args, parser) -> int:
    seed = _seed_of(args)
    try:
        model = CorrelatedSampleModel(p=args.p, rho=args.rho, k=args.k)
    except ValueError as exc:
        raise _UsageError(str(exc), parser) from None
    iid = theoretical_sc_accuracy(args.p, args.k)
    mixture = mixture_sc_accuracy(args.p, args.rho, args.k)
    empirical = simulate_self_consistency(model, args.n, seed)
    rows = [
        "key,value",
        f"p,{args.p!r}",
        f"k,{args.k}",
        f"rho,{args.rho!r}",
        f"theoretical_iid_accuracy,{iid!r}",
        f"mixture_accuracy,{mixture!r}",
        f"empirical_accuracy,{empirical!r}",
        f"n_problems,{args.n}",
        f"seed,{seed}",
    ]
    print(f"i.i.d. closed form {iid * 100.0:.2f}%, mixture {mixture * 100.0:.2f}%, "
          f"empirical {empirical * 100.0:.2f}% (n={args.n}, seed {seed})")
    if args.fit_target is not None:
        try:
            rho = fit_common_cause_weight(args.p, args.k, args.fit_target)
        except ValueError as exc:
            raise _UsageError(str(exc), parser) from None
        rows.append(f"fitted_rho,{rho!r}")
        rows.append(f"fit_target,{args.fit_target!r}")
        print(f"fitted rho {rho:.4f} for target {args.fit_target * 100.0:.1f}%")
    out = _out_dir(args)
    _write(out / "self_consistency.csv", "\n".join(rows) + "\n")
    print(f"wrote {out / 'self_consistency.csv'}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "diagnose": _cmd_diagnose,
    "asc": _cmd_asc,
    "sc": _cmd_sc,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, parser)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"refineloop: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FileNotFoundError) as exc:  # LogFormatError and ScenarioError included
        print(f"refineloop: bad input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - invariant breach boundary
        print(f"refineloop: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
