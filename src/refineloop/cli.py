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
invariant breach. The seed of ``simulate``, ``sc`` and ``report`` comes
only from ``--seed`` (default 0); no environment variable is read.
"""

import argparse
import itertools
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .asc import _REASONS, load_scenario, run_scenario
from .baselines import (
    CorrelatedSampleModel,
    fit_common_cause_weight,
    mixture_sc_accuracy,
    simulate_self_consistency,
    theoretical_sc_accuracy,
)
from .dynamics import _check_int, _check_real
from .logs import _DEFAULT_RUN, _check_label, read_runs, write_log
from .report import _csv, _signed_pp, build_report, diagnose_runs, render_tables
from .rng import check_seed
from .schedule import RateSchedule, preset, preset_baseline, preset_names
from .simulate import SimConfig, simulate_population

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own
    # exit-code scheme instead (usage errors are 1 here).
    def error(self, message):
        raise _UsageError(message, self)


def _checked(kind, check):
    """An argparse type: ``kind(text)``, then the library's own ``check``; either refusal is a usage error."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


# each flag is checked by the rule of the library argument it feeds
_confidence = _checked(float, partial(_check_real, "confidence", open=True))
_resamples = _checked(int, partial(_check_int, "resamples", low=1))
_n_problems = _checked(int, partial(_check_int, "n_problems", low=1))
_seed = _checked(int, check_seed)


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)


def _collect_runs(paths) -> dict:
    runs: dict = {}
    for raw in paths:
        for label, log in read_runs(raw).items():
            if label in runs:
                raise ValueError(f"run label {label!r} appears in more than one input")
            runs[label] = log
    return runs


def _cmd_simulate(args, parser) -> int:
    if args.preset is not None:
        if args.ecr is not None:
            raise _UsageError("--ecr goes with --eir, not with --preset", parser)
        try:
            schedule = preset(args.preset)
        except KeyError as exc:
            raise _UsageError(str(exc.args[0]), parser) from None
        acc0 = args.acc0 if args.acc0 is not None else preset_baseline(args.preset)
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
        acc0 = args.acc0
        iterations = args.iterations
    label = args.label if args.label is not None else args.preset or _DEFAULT_RUN
    try:  # a label the log cannot hold, or an out-of-range rate, accuracy or size, is a usage error
        _check_label(label, args.form)
        if args.preset is None:
            schedule = RateSchedule.from_pairs([(args.eir, args.ecr)], stationary_tail=True)
        config = SimConfig(
            n_problems=args.n,
            n_iterations=iterations,
            initial_accuracy=acc0,
            seed=args.seed,
            schedule=schedule,
        )
    except ValueError as exc:
        raise _UsageError(str(exc), parser) from None
    trajectory = simulate_population(config)
    out = _out_dir(args)
    target = out / "log.csv"
    write_log(trajectory.log, target, form=args.form, run_label=label)
    final = trajectory.log.accuracy(iterations)
    print(f"wrote {target} ({args.n} problems, {iterations} iterations, seed {args.seed})")
    print(f"accuracy {trajectory.log.accuracy(0) * 100.0:.1f}% -> {final * 100.0:.1f}%")
    return EXIT_OK


def _cmd_tables(args, parser) -> int:
    runs = _collect_runs(args.logs)
    if args.files is None:  # report
        report = build_report(runs, seed=args.seed, resamples=args.resamples, confidence=args.confidence,
                              pair=tuple(args.pair) if args.pair else None)
    else:  # analyze and diagnose never pair runs
        report = diagnose_runs(runs, args.confidence)
    artifacts = render_tables(report)
    out = _out_dir(args)
    names = args.files or tuple(artifacts)
    for name in names:
        _write(out / name, artifacts[name])
    for run in report.runs:
        c = run.classification
        print(f"{run.label}: delta {_signed_pp(c.delta_pp)} pp -> {c.tag}")
    if report.paired is not None:
        b = report.paired.final_bootstrap
        print(
            f"paired {report.paired.label_b} - {report.paired.label_a}: "
            f"{_signed_pp(b.delta_pp)} pp, CI [{b.ci_lo:+.1f}, {b.ci_hi:+.1f}] pp, "
            f"mcnemar p {report.paired.final_mcnemar.p_value:.2e}"
        )
    print(f"wrote {', '.join(str(out / n) for n in names)}")
    return EXIT_OK


def _cmd_asc(args, parser) -> int:
    scenario = load_scenario(args.scenario)
    outcomes, summary, _ = run_scenario(scenario)
    out = _out_dir(args)
    reasons = [reason.value for reason in _REASONS]  # indexed by stop code
    header = ["problem_id", "iterations_used", "stop_reason", "answer_index", "final_answer"]
    rows = (  # answer_index is iterations_used; str keeps a None answer as "None"
        [pid, k, reasons[code], k, str(answers[k])]
        for pid, answers, k, code in zip(scenario.ids, scenario.answers, outcomes.iterations_used.tolist(),
                                         outcomes.stop_codes.tolist())
    )
    _write(out / "outcomes.csv", _csv(itertools.chain([header], rows)))
    srows = [["key", "value"], ["n_instances", summary.n_instances], ["rounds_executed", summary.rounds_executed]]
    srows += [[f"stopped_{reason.value}", summary.stop_reasons.get(reason, 0)] for reason in _REASONS]
    srows += [[f"iterations_{k}", n] for k, n in summary.iterations_histogram.items()]
    if summary.equilibrium_fired_round is not None:
        srows.append(["equilibrium_fired_round", summary.equilibrium_fired_round])
    if summary.final_pooled_rates is not None:
        srows += [["pooled_eir", summary.final_pooled_rates.eir], ["pooled_ecr", summary.final_pooled_rates.ecr]]
    _write(out / "asc_summary.csv", _csv(srows))
    hist = ", ".join(f"{k}:{n}" for k, n in summary.iterations_histogram.items())
    print(f"{summary.n_instances} instances, iterations histogram {{{hist}}}")
    print(f"wrote {out / 'outcomes.csv'}, {out / 'asc_summary.csv'}")
    return EXIT_OK


def _cmd_sc(args, parser) -> int:
    try:  # every flag is checked before any work is done or any line printed
        model = CorrelatedSampleModel(p=args.p, rho=args.rho, k=args.k)
        rho = None if args.fit_target is None else fit_common_cause_weight(args.p, args.k, args.fit_target)
    except ValueError as exc:
        raise _UsageError(str(exc), parser) from None
    iid = theoretical_sc_accuracy(args.p, args.k)
    mixture = mixture_sc_accuracy(args.p, args.rho, args.k)
    empirical = simulate_self_consistency(model, args.n, args.seed)
    rows = [
        ["key", "value"], ["p", args.p], ["k", args.k], ["rho", args.rho],
        ["theoretical_iid_accuracy", iid], ["mixture_accuracy", mixture], ["empirical_accuracy", empirical],
        ["n_problems", args.n], ["seed", args.seed],
    ]
    print(f"i.i.d. closed form {iid * 100.0:.2f}%, mixture {mixture * 100.0:.2f}%, "
          f"empirical {empirical * 100.0:.2f}% (n={args.n}, seed {args.seed})")
    if rho is not None:
        rows += [["fitted_rho", rho], ["fit_target", args.fit_target]]
        print(f"fitted rho {rho:.4f} for target {args.fit_target * 100.0:.1f}%")
    out = _out_dir(args)
    _write(out / "self_consistency.csv", _csv(rows))
    print(f"wrote {out / 'self_consistency.csv'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser; each subcommand's own parser sets ``run``, its handler, and ``parser``, itself."""
    parser = _Parser(prog="refineloop", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"refineloop {__version__}")
    sub = parser.add_subparsers(required=True, metavar="command")

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
    sim.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    sim.add_argument("--label", help="run label stored in the log (default: preset name or 'run')")
    sim.add_argument("--form", choices=("records", "compact"), default="records")
    sim.add_argument("--stationary-tail", action="store_true",
                     help="repeat the final schedule entry past its end")
    sim.add_argument("--out", default=".", help="output directory (default .)")
    sim.set_defaults(run=_cmd_simulate, parser=sim)

    for name, text, files in (
        ("analyze", "estimate rates from a log", ("accuracy.csv", "rates.csv")),
        ("diagnose", "verdicts, steady state, and classification", ("verdicts.csv", "summary.csv")),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("logs", nargs="+", metavar="LOG")
        if name == "analyze":  # diagnose writes no interval, so its level is only the default below
            p.add_argument("--confidence", type=_confidence)
        p.add_argument("--out", default=".")
        p.set_defaults(run=_cmd_tables, parser=p, files=files, confidence=0.95)

    asc_p = sub.add_parser("asc", help="run a scripted adaptive-stopping scenario")
    asc_p.add_argument("scenario", metavar="SCENARIO")
    asc_p.add_argument("--out", default=".")
    asc_p.set_defaults(run=_cmd_asc, parser=asc_p)

    sc_p = sub.add_parser("sc", help="self-consistency baseline numbers")
    sc_p.add_argument("--p", type=float, required=True, help="per-sample accuracy")
    sc_p.add_argument("--k", type=int, default=3, help="samples per problem (odd, default 3)")
    sc_p.add_argument("--rho", type=float, default=0.0, help="common-cause weight (default 0)")
    sc_p.add_argument("--n", type=_n_problems, default=100_000, help="simulated problems (default 100000)")
    sc_p.add_argument("--seed", type=_seed, default=0)
    sc_p.add_argument("--fit-target", type=float,
                      help="also fit the rho whose closed-form accuracy hits this value")
    sc_p.add_argument("--out", default=".")
    sc_p.set_defaults(run=_cmd_sc, parser=sc_p)

    rep = sub.add_parser("report", help="full diagnostic report")
    rep.add_argument("logs", nargs="+", metavar="LOG")
    rep.add_argument("--pair", nargs=2, metavar=("RUN_A", "RUN_B"),
                     help="paired comparison (default: automatic when exactly two runs)")
    rep.add_argument("--seed", type=_seed, default=0)
    rep.add_argument("--resamples", type=_resamples, default=10_000)
    rep.add_argument("--confidence", type=_confidence, default=0.95)
    rep.add_argument("--out", default=".")
    rep.set_defaults(run=_cmd_tables, parser=rep, files=None)  # every file render_tables returns
    return parser


# argparse only reads a parser, so one serves every call. It is built with the module: built at
# the first call instead, among that call's short-lived objects, it kept 2-5 MB more of the heap
# resident over later calls.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args, extra = _PARSER.parse_known_args(argv)
        # a usage error found after parsing names the subcommand's flags
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args, args.parser)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"refineloop: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # LogFormatError, ScenarioError and path errors included
        print(f"refineloop: bad input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - invariant breach boundary
        print(f"refineloop: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
