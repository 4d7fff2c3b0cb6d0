"""Markov feedback diagnostics for iterative self-correction loops.

Models a refinement loop as a two-state chain over per-problem
correctness, driven by an error-introduction rate (eir) and an
error-correction rate (ecr). Provides exact dynamics, a seeded Monte
Carlo population simulator, rate estimation from correctness logs,
paired significance tests, an adaptive stopping controller, and the
self-consistency voting baseline.
"""

__version__ = "0.1.0"

from .dynamics import (
    EQUILIBRIUM_TOLERANCE,
    AccuracyPoint,
    EquilibriumVerdict,
    SteadyStateSummary,
    TransitionRates,
    Verdict,
    closed_form_accuracy,
    equilibrium_ratio,
    net_benefit,
    rate_ratio,
    steady_state,
    step_accuracy,
    stop_or_iterate,
)
from .schedule import RateSchedule, ScheduleExhaustedError, preset, preset_baseline, preset_names
from .simulate import (
    SimConfig,
    SimTrajectory,
    analytic_trajectory,
    deterministic_replay,
    simulate_population,
)
from .logs import FORMAT_VERSION, CorrectnessLog, LogFormatError, align_rows, read_log, read_runs, write_log
from .estimate import (
    RateEstimates,
    TransitionCounts,
    TransitionEstimate,
    accuracy_series,
    estimate_rates,
    pooled_rates,
    transition_counts,
    wilson_interval,
)
from .stats import (
    BootstrapDelta,
    McNemarResult,
    chi_square_survival,
    mcnemar,
    mcnemar_from_logs,
    paired_bootstrap_delta,
)
from .asc import (
    AscBackendError,
    AscConfig,
    AscOutcome,
    AscOutcomes,
    BatchSummary,
    ConfidenceTaxReport,
    EquilibriumMode,
    RefinementBackend,
    Scenario,
    ScenarioError,
    ScenarioReplay,
    ScriptedBackend,
    StopReason,
    confidence_tax_report,
    load_scenario,
    run_asc_batch,
    run_asc_instance,
    run_scenario,
)
from .baselines import (
    CorrelatedSampleModel,
    VoteOutcome,
    fit_common_cause_weight,
    majority_vote,
    mixture_sc_accuracy,
    simulate_self_consistency,
    theoretical_sc_accuracy,
)
from .report import (
    CLASS_HARMFUL,
    CLASS_TIER1,
    CLASS_TIER2,
    Classification,
    DiagnosticReport,
    PairedComparison,
    RunDiagnostics,
    build_report,
    classify_run,
    diagnose_runs,
    render_tables,
)
