//! `fsim` — command-line concurrent fault simulation for synchronous
//! sequential circuits (Lee & Reddy, DAC 1992).
//!
//! ```text
//! fsim check <circuit> [--format text|json]
//! fsim analyze <circuit> [--format text|json]
//! fsim impact <base> <edited> [--format text|json]
//! fsim stats <circuit>
//! fsim sim <circuit> [--random N | --patterns FILE] [--variant base|v|m|mv|all]
//!                    [--simulator csim|proofs|serial|deductive] [--uncollapsed]
//!                    [--prune] [--threads N] [--shard-plan PLAN]
//!                    [--batch-windows W] [--steal] [--quiesce-window W]
//!                    [--checkpoint-every K --checkpoint-out DIR] [--resume-from FILE]
//!                    [--incremental --baseline-report FILE] [--baseline-out FILE]
//!                    [--detections FILE] [--stats] [--stats-json FILE]
//!                    [--trace-every N] [--trace-out FILE] [--trace-capacity N]
//!                    [--trace-window W] [--no-check] [--paranoid]
//! fsim transition <circuit> [--random N | --patterns FILE]
//!                    [--prune] [--threads N] [--shard-plan PLAN]
//!                    [--batch-windows W] [--steal] [--quiesce-window W]
//!                    [--checkpoint-every K --checkpoint-out DIR] [--resume-from FILE]
//!                    [--incremental --baseline-report FILE] [--baseline-out FILE]
//!                    [--detections FILE] [--stats] [--stats-json FILE]
//!                    [--trace-every N] [--trace-out FILE] [--trace-capacity N]
//!                    [--trace-window W] [--no-check] [--paranoid]
//! fsim explain <circuit> <fault-id> [--random N | --patterns FILE]
//!                    [--uncollapsed] [--trace-window W] [--no-check]
//! fsim heatmap <circuit> [--random N | --patterns FILE] [--uncollapsed]
//!                    [--top K] [--format text|json] [--no-check]
//! fsim atpg <circuit> [--max-frames K] [--random N] [--out FILE]
//! fsim generate <name> [--out FILE]
//! fsim mutate <circuit> --edit retype|rewire|dead-logic [--choice N] [--out FILE]
//! ```
//!
//! `<circuit>` is a `.bench` file path, or `@name` for a built-in circuit
//! (`@s27` or a generated benchmark such as `@s298g`). Flags accept both
//! `--flag value` and `--flag=value`; unknown flags are an error.
//!
//! `--threads N` fault-shards the concurrent simulators across `N` worker
//! threads (`--shard-plan round-robin|contiguous|level-aware|weight-aware`
//! picks the partition; `weight-aware` balances shards by SCOAP-derived
//! fault weights); results are bit-identical for every thread count.
//! `--detections FILE` writes the deterministic detection list — one
//! `pattern fault` line per detected fault, sorted by pattern then fault
//! index — which is the artifact to diff across thread counts.
//!
//! `--batch-windows W` adds the second parallelism axis: the pattern
//! sequence splits into windows of `W` patterns (`0` = one whole-run
//! window), a 64-lane pattern-parallel good machine produces each
//! window's settled traces, and (shard × window) tasks run under the
//! work-stealing scheduler — a shard's windows stay in order because the
//! shard engine carries the sequential DFF state across the boundary.
//! `--steal` lets idle workers steal runnable shards (and overshards the
//! fault universe 2× so there is spare work to take). Detections remain
//! bit-identical to the serial simulator for every window size, thread
//! count, and steal schedule.
//!
//! `fsim check` runs the `cfs-check` static analyses and prints the
//! diagnostics (stable rule codes, severities, `.bench` line spans; JSON
//! under `--format json`), exiting nonzero on any error-severity finding.
//! `sim` and `transition` run the same analyses as a preflight and refuse
//! error-ridden netlists unless `--no-check` is given. `--paranoid` turns
//! on the engine's per-pattern invariant verifier even in release builds.
//!
//! `fsim analyze` runs the fault-universe analyses — ternary constant
//! propagation, structural observability, fault dominance, SCOAP scores —
//! and reports how far they shrink the stuck-at and transition universes.
//! `--prune` on `sim`/`transition` applies those proofs: only surviving
//! exact-class representatives are simulated, and the detection report is
//! expanded back to the full uncollapsed universe (pruned faults report
//! as untestable), bit-identical to an `--uncollapsed` run.
//!
//! `--stats` attaches the telemetry probe and prints the per-run metric
//! table (plus phase times and list-length/queue-depth histograms for the
//! concurrent simulators); `--stats-json FILE` streams one JSON line per
//! pattern plus a summary record; `--trace-every N` prints a progress line
//! every N patterns (under `--threads N` the per-shard records merge into
//! one deterministic line per milestone). `--variant all` runs all four
//! concurrent variants and renders them in one comparison table.
//!
//! `--trace-out FILE` attaches the `cfs-trace` event recorder alongside
//! the metrics probe and writes a Chrome Trace Event / Perfetto JSON
//! document: one track per shard worker with pattern and phase spans plus
//! fault-lifecycle instants (divergence, convergence, drop, detection,
//! quiescence), and a counter track for live fault-list elements and
//! event-queue depth. `--trace-capacity N` bounds each shard's event ring
//! (oldest events drop beyond it); `--trace-window W` sets the quiescence
//! window in patterns (0 disables).
//!
//! `--quiesce-window W` turns on the engine's quiescence gate: a node
//! whose good value and fault list have not changed for more than `W`
//! consecutive patterns is *dormant*, and the per-pattern sweeps
//! (primary-input refresh, output detection taps, flip-flop collection,
//! transition prev-pin recording) fence dormant nodes out instead of
//! re-walking their lists. Any state change re-activates the node on the
//! spot, so gated detections are bit-identical to ungated for every
//! window. When both `--quiesce-window` and `--trace-window` are given
//! they must agree; with only `--quiesce-window W` (W > 0), the trace
//! recorder's quiescence window follows it.
//!
//! `--checkpoint-every K --checkpoint-out DIR` snapshots the complete
//! engine state (flip-flop values, fault lists, statuses, scheduler
//! frontier, gating clocks) every `K` patterns into
//! `DIR/ckpt-NNNNNN.bin`; `--resume-from FILE` restores one such
//! snapshot and replays only the remaining patterns, producing the same
//! report as the uninterrupted run. Checkpointing captures one serial
//! engine, so it needs `--threads 1`, a single `--variant`, and no
//! `--batch-windows`/`--trace-out`.
//!
//! `fsim impact` runs the static change-impact analysis between two
//! netlists: the structural diff (added/removed/retyped/rewired gates,
//! output-tap changes, keyed by signal name), the affected-cone fixpoint
//! (forward fan-out closure crossing DFF boundaries, intersected with the
//! observability cone, closed backward over both circuits), and the
//! resulting split of the stuck-at and transition universes into faults
//! that must re-simulate and faults whose baseline fate provably
//! transfers. `--baseline-out FILE` on `sim`/`transition` records a run's
//! full-universe fates (plus the canonical netlist and a stimulus
//! fingerprint); `--incremental --baseline-report FILE` then re-simulates
//! only the affected cone of an edited netlist and expands the report
//! back over the full universe, bit-identical to a cold full run.
//! `--paranoid` on an incremental run cold-re-simulates everything and
//! cross-checks every transferred fate (`I003`, exit 2 on mismatch).
//! `fsim mutate` applies one deterministic scripted edit (gate retype,
//! fanin rewire, dead-logic insertion) to a netlist — the workload
//! generator for incremental-equivalence testing.
//!
//! `fsim explain` replays one fault's recorded lifecycle as a timeline —
//! first excitation, every divergence/convergence, detection — from a
//! serial gate-level traced run. Unknown or statically-pruned fault ids
//! exit with status 2 and a `cfs-check`-style diagnostic. `fsim heatmap`
//! ranks nodes by fault-list activity (divergences + convergences +
//! drops), the measured counterpart of the static SCOAP weights.

use std::fmt;
use std::fs;
use std::io;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cfs_atpg::{generate_tests, random_patterns, AtpgOptions};
use cfs_baselines::{DeductiveSim, ProofsSim, SerialSim};
use cfs_check::{
    analysis_findings, analyze_circuit, classify_stuck_at, classify_transition, cross_check_fates,
    diff_netlists, impact_analysis, impact_findings, learn_findings, prune_stuck_at,
    prune_stuck_at_learned, prune_transition, prune_transition_learned, stuck_weights,
    transition_weights, CircuitAnalysis, EditKind, ImpactAnalysis, ImplicationGraph, LearnOptions,
    RuleCode, Severity,
};
use cfs_core::{
    detections_of, BatchOptions, Checkpoint, ConcurrentSim, CsimOptions, CsimVariant, FaultMachine,
    NullProbe, Probe, SchedStats, ShardPlan, ShardedSim, TransitionOptions, TransitionSim,
};
use cfs_faults::{
    collapse_stuck_at, dominance_collapse, enumerate_stuck_at, enumerate_transition, FaultFate,
    FaultSimReport, FaultStatus, ImpactStats, ImpactUniverse, PruneReason, PrunedUniverse, StuckAt,
    TransitionFault,
};
use cfs_logic::{format_pattern, parse_pattern, Logic};
use cfs_netlist::{
    apply_edit, edit_candidates, extract_macros, parse_bench, parse_bench_with_provenance,
    write_bench, BenchEdit, BenchProvenance, Circuit, GateId,
};
use cfs_telemetry::{
    render_histogram, render_phase_table, render_summary_table, write_json_string, JsonValue,
    JsonlWriter, Log2Histogram, MetricsSnapshot, PairProbe, Phase, SimMetrics,
};
use cfs_trace::{
    write_chrome_trace_with_sched, FaultTimeline, Heatmap, SchedSpan, SchedSteal, SchedTrack,
    TraceConfig, TraceEvent, TraceRecorder, TrackTrace,
};

#[derive(Debug)]
struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(CliError(msg.into()))
}

/// An already-rendered `cfs-check`-style diagnostic (`severity: CODE
/// [slug] message`): printed verbatim, exits with status 2 so scripts can
/// tell a diagnosed input (2) from an operational failure (1).
#[derive(Debug)]
struct DiagnosticError(String);

impl fmt::Display for DiagnosticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DiagnosticError {}

fn diag(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(DiagnosticError(msg.into()))
}

fn main() -> ExitCode {
    restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<DiagnosticError>() => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("fsim: {e}");
            ExitCode::from(1)
        }
    }
}

/// Rust ignores `SIGPIPE`, so a closed stdout (`fsim … | head`) turns
/// the next `println!` into a panic. A command-line filter should die
/// quietly instead, as the default signal disposition does.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: the declaration matches libc's `sighandler_t signal(int,
    // sighandler_t)` (a handler is pointer-sized; `SIG_DFL` is 0), and
    // installing the default disposition touches no memory of ours.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match command.as_str() {
        "check" => cmd_check(rest),
        "analyze" => cmd_analyze(rest),
        "rules" => cmd_rules(rest),
        "implications" => cmd_implications(rest),
        "impact" => cmd_impact(rest),
        "stats" => cmd_stats(rest),
        "mutate" => cmd_mutate(rest),
        "sim" => cmd_sim(rest),
        "transition" => cmd_transition(rest),
        "explain" => cmd_explain(rest),
        "heatmap" => cmd_heatmap(rest),
        "atpg" => cmd_atpg(rest),
        "generate" => cmd_generate(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(err(format!("unknown command {other:?} (try --help)"))),
    }
}

fn print_usage() {
    eprintln!(
        "fsim — concurrent fault simulation for synchronous sequential circuits\n\
         \n\
         usage:\n\
         \u{20}  fsim check <circuit> [--format text|json]\n\
         \u{20}  fsim analyze <circuit> [--format text|json] [--learn] [--learn-frames K]\n\
         \u{20}  fsim rules [CODE] [--format text|json]\n\
         \u{20}  fsim implications <circuit> <net> [--format text|json] [--learn-frames K]\n\
         \u{20}  fsim impact <base> <edited> [--format text|json]\n\
         \u{20}  fsim stats <circuit>\n\
         \u{20}  fsim sim <circuit> [--random N | --patterns FILE] [--variant base|v|m|mv|all]\n\
         \u{20}                     [--simulator csim|proofs|serial|deductive] [--uncollapsed]\n\
         \u{20}                     [--prune] [--threads N] [--shard-plan PLAN]\n\
         \u{20}                     [--batch-windows W] [--steal] [--quiesce-window W]\n\
         \u{20}                     [--checkpoint-every K --checkpoint-out DIR] [--resume-from FILE]\n\
         \u{20}                     [--incremental --baseline-report FILE] [--baseline-out FILE]\n\
         \u{20}                     [--detections FILE] [--stats] [--stats-json FILE]\n\
         \u{20}                     [--trace-every N] [--trace-out FILE] [--trace-capacity N]\n\
         \u{20}                     [--trace-window W] [--no-check] [--paranoid]\n\
         \u{20}  fsim transition <circuit> [--random N | --patterns FILE]\n\
         \u{20}                     [--prune] [--threads N] [--shard-plan PLAN]\n\
         \u{20}                     [--batch-windows W] [--steal] [--quiesce-window W]\n\
         \u{20}                     [--checkpoint-every K --checkpoint-out DIR] [--resume-from FILE]\n\
         \u{20}                     [--incremental --baseline-report FILE] [--baseline-out FILE]\n\
         \u{20}                     [--detections FILE] [--stats] [--stats-json FILE]\n\
         \u{20}                     [--trace-every N] [--trace-out FILE] [--trace-capacity N]\n\
         \u{20}                     [--trace-window W] [--no-check] [--paranoid]\n\
         \u{20}  fsim explain <circuit> <fault-id> [--random N | --patterns FILE]\n\
         \u{20}                     [--uncollapsed] [--trace-window W] [--no-check]\n\
         \u{20}  fsim heatmap <circuit> [--random N | --patterns FILE] [--uncollapsed]\n\
         \u{20}                     [--top K] [--format text|json] [--no-check]\n\
         \u{20}  fsim atpg <circuit> [--max-frames K] [--random N] [--out FILE]\n\
         \u{20}  fsim generate <name> [--out FILE]\n\
         \u{20}  fsim mutate <circuit> --edit retype|rewire|dead-logic [--choice N] [--out FILE]\n\
         \n\
         <circuit>: a .bench file, or @name for a built-in (@s27, @s298g, …)\n\
         flags take either `--flag value` or `--flag=value`\n\
         --prune       simulate only faults the static analyses cannot prove\n\
         \u{20}             undetectable; reports expand to the full universe\n\
         --learn       add implication learning to --prune (and to analyze):\n\
         \u{20}             conflict-untestable faults (F004) are pruned too\n\
         --learn-frames  unrolled time frames for --learn (default 2)\n\
         --baseline-out    record the run's full-universe fates for later\n\
         \u{20}             --incremental runs (needs --uncollapsed on sim)\n\
         --incremental     re-simulate only the faults a netlist edit could\n\
         \u{20}             affect; the rest transfer from --baseline-report\n\
         --threads     fault-shard the concurrent simulator across N workers\n\
         --shard-plan  round-robin (default) | contiguous | level-aware | weight-aware\n\
         --batch-windows  pattern-batch axis: windows of W patterns under the\n\
         \u{20}             work-stealing scheduler (0 = one whole-run window)\n\
         --steal       let idle workers steal runnable shards (overshards 2×;\n\
         \u{20}             needs --batch-windows)\n\
         --quiesce-window  fence nodes untouched for more than W patterns out of\n\
         \u{20}             the per-pattern sweeps (0 = off; detections unchanged)\n\
         --checkpoint-every  snapshot engine state every K patterns (serial runs;\n\
         \u{20}             needs --checkpoint-out DIR, writes DIR/ckpt-NNNNNN.bin)\n\
         --resume-from restore a checkpoint file and replay only the rest\n\
         --detections  write the sorted `pattern fault` detection list\n\
         --stats       print the metric table (plus phase times and histograms)\n\
         --stats-json  write one JSON line per pattern plus a summary record\n\
         --trace-every print a progress line every N patterns (concurrent sims)\n\
         --trace-out   write a Chrome Trace / Perfetto JSON event trace\n\
         --trace-capacity  per-shard trace ring capacity in events (default 1M)\n\
         --trace-window    quiescence window in patterns, 0 disables (default 32)\n\
         --variant all run all four concurrent variants into one comparison table\n\
         --no-check    skip the cfs-check preflight (sim/transition refuse on errors)\n\
         --paranoid    verify engine invariants after every pattern, even in release\n\
         --format      check output: text (default) | json"
    );
}

/// Simple flag scanner: returns the value of `flag`, given either as
/// `--flag value` or `--flag=value`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return args.get(i + 1).map(String::as_str);
        }
        if let Some(rest) = a.strip_prefix(flag) {
            if let Some(value) = rest.strip_prefix('=') {
                return Some(value);
            }
        }
    }
    None
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value of a positive count flag (`--threads`, `--trace-every`, …):
/// `None` when absent, an error on zero or a non-number.
fn count_flag(args: &[String], flag: &str) -> Result<Option<usize>, Box<dyn std::error::Error>> {
    flag_value(args, flag)
        .map(|v| match v.parse::<usize>() {
            Ok(0) => Err(err(format!("{flag} must be at least 1"))),
            Ok(n) => Ok(n),
            Err(_) => Err(err(format!("{flag} needs a number"))),
        })
        .transpose()
}

/// Per-command flag table: `(name, takes_value)`.
type FlagSpec = &'static [(&'static str, bool)];

const STATS_FLAGS: FlagSpec = &[];
const CHECK_FLAGS: FlagSpec = &[("--format", true)];
const ANALYZE_FLAGS: FlagSpec = &[
    ("--format", true),
    ("--learn", false),
    ("--learn-frames", true),
];
const RULES_FLAGS: FlagSpec = &[("--format", true)];
const IMPLICATIONS_FLAGS: FlagSpec = &[("--format", true), ("--learn-frames", true)];
const SIM_FLAGS: FlagSpec = &[
    ("--patterns", true),
    ("--random", true),
    ("--seed", true),
    ("--variant", true),
    ("--simulator", true),
    ("--uncollapsed", false),
    ("--prune", false),
    ("--learn", false),
    ("--learn-frames", true),
    ("--incremental", false),
    ("--baseline-report", true),
    ("--baseline-out", true),
    ("--threads", true),
    ("--shard-plan", true),
    ("--batch-windows", true),
    ("--steal", false),
    ("--quiesce-window", true),
    ("--checkpoint-every", true),
    ("--checkpoint-out", true),
    ("--resume-from", true),
    ("--detections", true),
    ("--stats", false),
    ("--stats-json", true),
    ("--trace-every", true),
    ("--trace-out", true),
    ("--trace-capacity", true),
    ("--trace-window", true),
    ("--no-check", false),
    ("--paranoid", false),
];
const TRANSITION_FLAGS: FlagSpec = &[
    ("--patterns", true),
    ("--random", true),
    ("--seed", true),
    ("--prune", false),
    ("--learn", false),
    ("--learn-frames", true),
    ("--incremental", false),
    ("--baseline-report", true),
    ("--baseline-out", true),
    ("--threads", true),
    ("--shard-plan", true),
    ("--batch-windows", true),
    ("--steal", false),
    ("--quiesce-window", true),
    ("--checkpoint-every", true),
    ("--checkpoint-out", true),
    ("--resume-from", true),
    ("--detections", true),
    ("--stats", false),
    ("--stats-json", true),
    ("--trace-every", true),
    ("--trace-out", true),
    ("--trace-capacity", true),
    ("--trace-window", true),
    ("--no-check", false),
    ("--paranoid", false),
];
const EXPLAIN_FLAGS: FlagSpec = &[
    ("--patterns", true),
    ("--random", true),
    ("--seed", true),
    ("--uncollapsed", false),
    ("--trace-window", true),
    ("--no-check", false),
];
const HEATMAP_FLAGS: FlagSpec = &[
    ("--patterns", true),
    ("--random", true),
    ("--seed", true),
    ("--uncollapsed", false),
    ("--top", true),
    ("--format", true),
    ("--no-check", false),
];
const ATPG_FLAGS: FlagSpec = &[("--max-frames", true), ("--random", true), ("--out", true)];
const GENERATE_FLAGS: FlagSpec = &[("--out", true)];
const IMPACT_FLAGS: FlagSpec = &[("--format", true)];
const MUTATE_FLAGS: FlagSpec = &[("--edit", true), ("--choice", true), ("--out", true)];

/// Rejects unknown flags, missing values, values on boolean flags, and
/// stray positionals. The single positional (circuit or benchmark name)
/// must come first.
fn validate_flags(
    cmd: &str,
    args: &[String],
    spec: FlagSpec,
) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags_n(cmd, args, spec, 1)
}

/// [`validate_flags`] generalized to commands taking up to `max_pos`
/// leading positionals (`fsim implications <circuit> <net>`).
fn validate_flags_n(
    cmd: &str,
    args: &[String],
    spec: FlagSpec,
    max_pos: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            let (name, inline_value) = match a.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (a.as_str(), None),
            };
            let Some(&(_, takes_value)) = spec.iter().find(|(n, _)| *n == name) else {
                return Err(err(format!("{cmd}: unknown flag {name} (try --help)")));
            };
            if takes_value {
                if inline_value.is_none() {
                    match args.get(i + 1) {
                        Some(v) if !v.starts_with("--") => i += 1,
                        _ => return Err(err(format!("{cmd}: flag {name} needs a value"))),
                    }
                }
            } else if inline_value.is_some() {
                return Err(err(format!("{cmd}: flag {name} does not take a value")));
            }
        } else if i >= max_pos {
            return Err(err(format!(
                "{cmd}: unexpected argument {a:?} (positionals must come first)"
            )));
        }
        i += 1;
    }
    Ok(())
}

/// Parses `--learn` / `--learn-frames` into [`LearnOptions`]. `None` when
/// learning is off; `--learn-frames` without `--learn` is rejected.
fn learn_opts(
    cmd: &str,
    args: &[String],
) -> Result<Option<LearnOptions>, Box<dyn std::error::Error>> {
    let frames = flag_value(args, "--learn-frames");
    if !has_flag(args, "--learn") {
        if frames.is_some() {
            return Err(err(format!("{cmd}: --learn-frames needs --learn")));
        }
        return Ok(None);
    }
    let frames = match frames {
        None => cfs_check::DEFAULT_LEARN_FRAMES,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Err(err(format!(
                    "{cmd}: --learn-frames wants a positive frame count, got {s:?}"
                )))
            }
        },
    };
    Ok(Some(LearnOptions { frames }))
}

/// Telemetry-related options shared by `sim` and `transition`.
struct TelemetryOpts {
    stats: bool,
    stats_json: Option<String>,
    trace_every: Option<usize>,
    /// Chrome Trace / Perfetto JSON output path (`--trace-out`).
    trace_out: Option<String>,
    /// Per-shard event-recorder tuning (`--trace-capacity`,
    /// `--trace-window`).
    trace_cfg: TraceConfig,
    /// Wall time the `cfs-check` preflight took, folded into the phase
    /// table of every snapshot the run emits.
    check_time: Duration,
}

impl TelemetryOpts {
    fn parse(args: &[String]) -> Result<Self, Box<dyn std::error::Error>> {
        let trace_every = count_flag(args, "--trace-every")?;
        let mut trace_cfg = TraceConfig::default();
        if let Some(n) = count_flag(args, "--trace-capacity")? {
            trace_cfg.capacity = n;
        }
        // One quiescence-window source of truth: the engine gate
        // (`--quiesce-window`) and the trace recorder (`--trace-window`)
        // must agree. With only the gate flag set (and nonzero), the
        // recorder follows it; giving both with different values is an
        // error rather than a silent disagreement.
        let gate_window: Option<u32> = match flag_value(args, "--quiesce-window") {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| err("--quiesce-window needs a number (0 disables)"))?,
            ),
            None => None,
        };
        if let Some(v) = flag_value(args, "--trace-window") {
            let w: u32 = v
                .parse()
                .map_err(|_| err("--trace-window needs a number (0 disables)"))?;
            if let Some(g) = gate_window {
                if g != w {
                    return Err(err(format!(
                        "--trace-window {w} disagrees with --quiesce-window {g}; \
                         give one flag, or the same value to both"
                    )));
                }
            }
            trace_cfg.quiescence_window = w;
        } else if let Some(g) = gate_window {
            if g > 0 {
                trace_cfg.quiescence_window = g;
            }
        }
        Ok(TelemetryOpts {
            stats: has_flag(args, "--stats"),
            stats_json: flag_value(args, "--stats-json").map(str::to_owned),
            trace_every,
            trace_out: flag_value(args, "--trace-out").map(str::to_owned),
            trace_cfg,
            check_time: Duration::ZERO,
        })
    }

    /// Whether the run needs the recording probe attached at all.
    fn enabled(&self) -> bool {
        self.stats
            || self.stats_json.is_some()
            || self.trace_every.is_some()
            || self.trace_out.is_some()
    }
}

/// Upper bound on `--threads`: every worker drives at least one shard,
/// and every shard is a full engine, so the count must stay far below
/// what the OS would refuse to spawn.
const MAX_THREADS: usize = 256;

/// Fault-sharding and engine options shared by `sim` and `transition`.
struct ParallelOpts {
    threads: usize,
    plan: ShardPlan,
    /// `--batch-windows` turns on the two-dimensional scheduler; `None`
    /// keeps the historical fault-shard-only dispatch.
    batch: Option<BatchOptions>,
    detections: Option<String>,
    /// `--baseline-out`: write a fate-baseline report for later
    /// `--incremental` runs once the run finishes.
    baseline_out: Option<String>,
    paranoid: bool,
    /// `--quiesce-window`: the engine's quiescence-gating window in
    /// patterns (0 = gating off). Applied to every engine the run
    /// builds; detections are bit-identical for every window.
    quiesce_window: u32,
}

impl ParallelOpts {
    fn parse(args: &[String]) -> Result<Self, Box<dyn std::error::Error>> {
        let threads = count_flag(args, "--threads")?.unwrap_or(1);
        if threads > MAX_THREADS {
            return Err(err(format!("--threads must be at most {MAX_THREADS}")));
        }
        let plan = match flag_value(args, "--shard-plan") {
            Some(v) => ShardPlan::parse(v).ok_or_else(|| {
                err(format!(
                    "unknown shard plan {v:?} (round-robin, contiguous, level-aware, weight-aware)"
                ))
            })?,
            None => ShardPlan::RoundRobin,
        };
        let batch = match flag_value(args, "--batch-windows") {
            Some(v) => {
                let window: usize = v.parse().map_err(|_| {
                    err("--batch-windows needs a number (0 = one whole-run window)")
                })?;
                Some(BatchOptions {
                    window,
                    steal: has_flag(args, "--steal"),
                    ..BatchOptions::default()
                })
            }
            None => {
                if has_flag(args, "--steal") {
                    return Err(err("--steal needs --batch-windows"));
                }
                None
            }
        };
        let quiesce_window = match flag_value(args, "--quiesce-window") {
            Some(v) => v
                .parse()
                .map_err(|_| err("--quiesce-window needs a number (0 disables)"))?,
            None => 0,
        };
        Ok(ParallelOpts {
            threads,
            plan,
            batch,
            detections: flag_value(args, "--detections").map(str::to_owned),
            baseline_out: flag_value(args, "--baseline-out").map(str::to_owned),
            paranoid: has_flag(args, "--paranoid"),
            quiesce_window,
        })
    }

    /// Fault-shard count: `--steal` overshards 2× so idle workers have
    /// spare runnable shards to take; otherwise one shard per worker.
    fn shards(&self) -> usize {
        match &self.batch {
            Some(b) if b.steal => self.threads * 2,
            _ => self.threads,
        }
    }
}

/// Pattern-granular checkpointing options (`--checkpoint-every`,
/// `--checkpoint-out`, `--resume-from`). A checkpoint captures one
/// serial engine at a pattern boundary, so [`refuse_unsupported`] refuses
/// the sharded, batched, and traced dispatches up front.
struct CheckpointOpts {
    /// Snapshot cadence in patterns.
    every: Option<usize>,
    /// Directory receiving `ckpt-NNNNNN.bin` snapshots.
    out: Option<String>,
    /// Checkpoint file to restore before the first pattern.
    resume: Option<String>,
}

impl CheckpointOpts {
    fn parse(args: &[String]) -> Result<Self, Box<dyn std::error::Error>> {
        let every = count_flag(args, "--checkpoint-every")?;
        let out = flag_value(args, "--checkpoint-out").map(str::to_owned);
        if every.is_some() != out.is_some() {
            return Err(err(
                "--checkpoint-every and --checkpoint-out go together (cadence and directory)",
            ));
        }
        Ok(CheckpointOpts {
            every,
            out,
            resume: flag_value(args, "--resume-from").map(str::to_owned),
        })
    }

    /// Whether the run writes or restores checkpoints at all.
    fn active(&self) -> bool {
        self.every.is_some() || self.resume.is_some()
    }
}

/// Loads and deserializes a `--resume-from` checkpoint file. Corrupt or
/// mismatched files are diagnosed inputs (exit 2), not operational
/// failures.
fn load_checkpoint_file(path: &str) -> Result<Checkpoint, Box<dyn std::error::Error>> {
    let bytes = fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    Checkpoint::from_bytes(&bytes)
        .map_err(|e| diag(format!("error: K001 [checkpoint-invalid] {path}: {e}")))
}

/// Serializes one checkpoint into `dir/ckpt-NNNNNN.bin` (the number is
/// the pattern index the snapshot covers), creating `dir` on first use.
fn write_checkpoint_file(
    dir: &str,
    ckpt: &Checkpoint,
) -> Result<String, Box<dyn std::error::Error>> {
    fs::create_dir_all(dir).map_err(|e| err(format!("cannot create {dir}: {e}")))?;
    let path = format!("{dir}/ckpt-{:06}.bin", ckpt.pattern_index());
    fs::write(&path, ckpt.to_bytes()).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    Ok(path)
}

/// Writes the deterministic detection list: one `pattern fault` line per
/// detected fault, sorted by pattern then fault index. Byte-identical for
/// every thread count and shard plan.
fn write_detections(
    path: &str,
    statuses: &[FaultStatus],
) -> Result<(), Box<dyn std::error::Error>> {
    let dets = detections_of(statuses);
    let mut text = String::with_capacity(dets.len() * 12);
    for (fault, pattern) in &dets {
        text.push_str(&format!("{pattern} {fault}\n"));
    }
    fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    println!("wrote {} detections to {path}", dets.len());
    Ok(())
}

/// How a run's per-simulated-fault statuses map back onto the full
/// enumeration universe — and which universe-reduction counters the
/// driver stamps onto the telemetry snapshot. Both rewrites happen
/// before the first pattern, so the probes never see them.
#[derive(Clone, Copy)]
enum Expansion<'a, F> {
    /// The simulated fault list is the reported universe as-is.
    Verbatim,
    /// `--prune`: class representatives expand to the full uncollapsed
    /// universe; statically-pruned faults report untestable.
    Pruned(&'a PrunedUniverse<F>),
    /// `--incremental`: the affected cone expands to the full uncollapsed
    /// universe; unaffected faults copy their baseline fate verbatim.
    Incremental {
        universe: &'a ImpactUniverse<F>,
        baseline: &'a [FaultStatus],
    },
}

impl<F: Copy> Expansion<'_, F> {
    /// Expands the report's statuses to full-universe indices, so every
    /// report and detection list downstream speaks one index language.
    fn expand(&self, report: &mut FaultSimReport) {
        match self {
            Expansion::Verbatim => {}
            Expansion::Pruned(u) => report.statuses = u.expand_statuses(&report.statuses),
            Expansion::Incremental { universe, baseline } => {
                report.statuses = universe.expand_statuses(&report.statuses, baseline);
            }
        }
    }

    /// Stamps the universe-reduction counters onto a telemetry snapshot.
    fn stamp(&self, snap: &mut MetricsSnapshot) {
        match self {
            Expansion::Verbatim => {}
            Expansion::Pruned(u) => {
                snap.faults_full = u.stats.full as u64;
                snap.faults_sim = u.stats.sim as u64;
                snap.pruned_unexcitable = u.stats.unexcitable as u64;
                snap.pruned_unobservable = u.stats.unobservable as u64;
                snap.pruned_conflict = u.stats.conflict as u64;
            }
            Expansion::Incremental { universe, .. } => {
                snap.faults_full = universe.stats.full as u64;
                snap.faults_sim = universe.stats.affected as u64;
                snap.faults_affected = universe.stats.affected as u64;
                snap.faults_transferred = universe.stats.transferred as u64;
            }
        }
    }
}

/// `--paranoid` on an `--incremental` run: cold-re-simulates the full
/// edited universe through `cold_run` and cross-checks every transferred
/// fate against it. A mismatch means the cone-transfer argument was
/// violated (`I003`) — diagnostics print and the run exits with status 2.
fn verify_incremental<F: Copy>(
    circuit: &str,
    exp: Expansion<'_, F>,
    paranoid: bool,
    incremental: &[FaultStatus],
    cold_run: impl FnOnce(&[F]) -> Vec<FaultStatus>,
) -> Result<(), Box<dyn std::error::Error>> {
    let Expansion::Incremental { universe, .. } = exp else {
        return Ok(());
    };
    if !paranoid {
        return Ok(());
    }
    let cold = cold_run(&universe.full);
    let mut report = cfs_check::Report::new(circuit);
    let mismatches = cross_check_fates(universe, incremental, &cold, &mut report);
    if mismatches > 0 {
        return Err(diag(format!(
            "{}fsim: {mismatches} transferred fate(s) disagree with the cold full re-run",
            report.render_text()
        )));
    }
    println!(
        "paranoid: all {} transferred fate(s) agree with a cold full re-run",
        universe.stats.transferred
    );
    Ok(())
}

/// FNV-1a over the formatted pattern lines, masked to 53 bits so the
/// fingerprint survives a round trip through JSON's doubles. Guards an
/// `--incremental` run against replaying a different stimulus than the
/// baseline recorded — transferred first-detection patterns would be
/// meaningless.
fn pattern_fingerprint(patterns: &[Vec<Logic>]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in patterns {
        for b in format_pattern(p).bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h = (h ^ u64::from(b'\n')).wrapping_mul(PRIME);
    }
    h & ((1 << 53) - 1)
}

/// Baseline status text: one token per full-universe fault — `u`
/// undetected, `x` untestable, or the 0-based first-detection pattern.
fn statuses_to_text(statuses: &[FaultStatus]) -> String {
    let tokens: Vec<String> = statuses
        .iter()
        .map(|s| match s {
            FaultStatus::Undetected => "u".to_owned(),
            FaultStatus::Untestable => "x".to_owned(),
            FaultStatus::Detected { pattern } => pattern.to_string(),
        })
        .collect();
    tokens.join(" ")
}

fn statuses_from_text(text: &str) -> Result<Vec<FaultStatus>, String> {
    text.split_whitespace()
        .map(|tok| match tok {
            "u" => Ok(FaultStatus::Undetected),
            "x" => Ok(FaultStatus::Untestable),
            n => n
                .parse::<usize>()
                .map(|pattern| FaultStatus::Detected { pattern })
                .map_err(|_| format!("bad status token {tok:?} (u, x, or a pattern number)")),
        })
        .collect()
}

/// Writes a fate-baseline report (`--baseline-out`): the canonical
/// `.bench` text, a stimulus fingerprint, and one status per
/// full-universe fault — everything a later `--incremental` run needs.
fn write_baseline(
    path: &str,
    model: &str,
    universe: &str,
    c: &Circuit,
    patterns: &[Vec<Logic>],
    statuses: &[FaultStatus],
) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = String::from("{\"type\":\"fsim-baseline\",\"model\":");
    write_json_string(&mut out, model);
    out.push_str(",\"universe\":");
    write_json_string(&mut out, universe);
    out.push_str(",\"circuit\":");
    write_json_string(&mut out, c.name());
    out.push_str(&format!(
        ",\"patterns\":{},\"pattern_hash\":{}",
        patterns.len(),
        pattern_fingerprint(patterns)
    ));
    out.push_str(",\"inputs\":[");
    for (i, &id) in c.inputs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, c.gate(id).name());
    }
    out.push_str(&format!("],\"faults\":{}", statuses.len()));
    out.push_str(",\"bench\":");
    write_json_string(&mut out, &write_bench(c));
    out.push_str(",\"statuses\":");
    write_json_string(&mut out, &statuses_to_text(statuses));
    out.push_str("}\n");
    fs::write(path, out).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    println!(
        "wrote {model} baseline ({} faults) to {path}",
        statuses.len()
    );
    Ok(())
}

/// A parsed `--baseline-report` file: the pre-edit circuit (rebuilt from
/// its recorded canonical text, with provenance for diff spans) and its
/// full-universe fates.
struct Baseline {
    circuit: Circuit,
    provenance: BenchProvenance,
    statuses: Vec<FaultStatus>,
    patterns: usize,
    pattern_hash: u64,
}

/// Loads and structurally validates a baseline report. Model or universe
/// mismatches are `I002` diagnostics (exit 2), not operational errors:
/// the file is a valid baseline, just not for this run.
fn load_baseline(
    path: &str,
    model: &str,
    universe: &str,
) -> Result<Baseline, Box<dyn std::error::Error>> {
    let text = fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let v = JsonValue::parse(text.trim())
        .map_err(|e| err(format!("{path}: not a baseline report: {e}")))?;
    let field = |key: &str| -> Result<&str, Box<dyn std::error::Error>> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err(format!("{path}: not a baseline report (missing {key:?})")))
    };
    if field("type")? != "fsim-baseline" {
        return Err(err(format!("{path}: not a baseline report")));
    }
    let got_model = field("model")?;
    if got_model != model {
        return Err(diag(format!(
            "error: I002 [baseline-invalidated] {path} records {got_model} fates, \
             but this is a {model} run"
        )));
    }
    let got_universe = field("universe")?;
    if got_universe != universe {
        return Err(diag(format!(
            "error: I002 [baseline-invalidated] {path} records the {got_universe} \
             universe, but this run reports the {universe} universe"
        )));
    }
    let name = field("circuit")?.to_owned();
    let bench = field("bench")?;
    let (circuit, provenance) = parse_bench_with_provenance(&name, bench)
        .map_err(|e| err(format!("{path}: embedded bench text does not parse: {e}")))?;
    let statuses =
        statuses_from_text(field("statuses")?).map_err(|e| err(format!("{path}: {e}")))?;
    let faults = v.get("faults").and_then(JsonValue::as_u64).ok_or_else(|| {
        err(format!(
            "{path}: not a baseline report (missing \"faults\")"
        ))
    })?;
    if statuses.len() as u64 != faults {
        return Err(err(format!(
            "{path}: records {faults} faults but {} statuses",
            statuses.len()
        )));
    }
    let patterns = v
        .get("patterns")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| {
            err(format!(
                "{path}: not a baseline report (missing \"patterns\")"
            ))
        })?;
    let pattern_hash = v
        .get("pattern_hash")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| {
            err(format!(
                "{path}: not a baseline report (missing \"pattern_hash\")"
            ))
        })?;
    Ok(Baseline {
        circuit,
        provenance,
        statuses,
        patterns: patterns as usize,
        pattern_hash,
    })
}

/// Diffs the baseline circuit against the edited one, validates that the
/// baseline's stimulus replays here, prints the impact findings, and
/// classifies the edited universe. `I002` (changed inputs, different
/// stimulus) refuses with exit 2 — transferred fates would be unsound.
fn prepare_incremental<F: Copy>(
    edited: &Circuit,
    baseline: Baseline,
    patterns: &[Vec<Logic>],
    classify: fn(&Circuit, &Circuit, &ImpactAnalysis) -> ImpactUniverse<F>,
) -> Result<(ImpactUniverse<F>, Vec<FaultStatus>), Box<dyn std::error::Error>> {
    if patterns.len() != baseline.patterns || pattern_fingerprint(patterns) != baseline.pattern_hash
    {
        return Err(diag(format!(
            "error: I002 [baseline-invalidated] this run replays {} pattern(s) but the \
             baseline recorded {} (fingerprint mismatch): first-detection patterns would \
             not transfer; re-run with the baseline's --patterns/--random/--seed, or \
             record a new baseline with --baseline-out",
            patterns.len(),
            baseline.patterns
        )));
    }
    let diff = diff_netlists(&baseline.circuit, edited, Some(&baseline.provenance), None);
    let analysis = impact_analysis(&baseline.circuit, edited, diff);
    let mut report = cfs_check::Report::new(edited.name());
    impact_findings(&analysis, &mut report);
    if !report.diagnostics.is_empty() {
        print!("{}", report.render_text());
    }
    if report.has_errors() {
        return Err(diag(
            "fsim: the baseline does not apply to this netlist (see I002 above)".to_owned(),
        ));
    }
    let universe = classify(&baseline.circuit, edited, &analysis);
    if baseline.statuses.len() != universe.stats.baseline_full {
        return Err(err(format!(
            "baseline records {} statuses but its bench text enumerates {} faults",
            baseline.statuses.len(),
            universe.stats.baseline_full
        )));
    }
    Ok((universe, baseline.statuses))
}

/// Prints what an `--incremental` run is about to simulate.
fn print_impact_banner(model: &str, stats: &ImpactStats) {
    println!(
        "incremental: {} of {} {model} faults affected, {} fates transfer from the \
         baseline; re-simulating {:.1}% of the universe",
        stats.affected,
        stats.full,
        stats.transferred,
        100.0 * stats.ratio()
    );
}

fn load_circuit(spec: &str) -> Result<Circuit, Box<dyn std::error::Error>> {
    if let Some(name) = spec.strip_prefix('@') {
        if name == "s27" {
            return Ok(cfs_netlist::data::s27());
        }
        return cfs_netlist::generate::benchmark(name)
            .ok_or_else(|| err(format!("unknown built-in circuit {name:?}")));
    }
    let text = fs::read_to_string(spec).map_err(|e| err(format!("cannot read {spec}: {e}")))?;
    Ok(parse_bench(circuit_name_of(spec), &text)?)
}

/// Display name of a circuit spec: the file stem, or the built-in name.
fn circuit_name_of(spec: &str) -> &str {
    spec.strip_prefix('@').unwrap_or_else(|| {
        std::path::Path::new(spec)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("circuit")
    })
}

/// Runs the full `cfs-check` analysis over a circuit spec. Files are
/// analyzed as raw source so spans point at the actual file lines;
/// built-ins go through their canonical serialization.
fn check_spec(spec: &str) -> Result<cfs_check::Report, Box<dyn std::error::Error>> {
    if spec.starts_with('@') {
        return Ok(cfs_check::check_circuit(&load_circuit(spec)?));
    }
    let text = fs::read_to_string(spec).map_err(|e| err(format!("cannot read {spec}: {e}")))?;
    Ok(cfs_check::check_bench_source(circuit_name_of(spec), &text))
}

/// Loads a circuit for simulation, running the `cfs-check` preflight
/// first (unless `--no-check`): on error-severity findings the
/// diagnostics go to stderr and the run refuses to start. Returns the
/// circuit and the preflight's wall time for the phase table.
fn load_circuit_checked(
    spec: &str,
    args: &[String],
) -> Result<(Circuit, Duration), Box<dyn std::error::Error>> {
    if has_flag(args, "--no-check") {
        return Ok((load_circuit(spec)?, Duration::ZERO));
    }
    let started = Instant::now();
    let report = check_spec(spec)?;
    let elapsed = started.elapsed();
    if report.has_errors() {
        eprint!("{}", report.render_text());
        return Err(err(format!(
            "{spec}: refusing to simulate a netlist with check errors (use --no-check to bypass)"
        )));
    }
    Ok((load_circuit(spec)?, elapsed))
}

fn cmd_check(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("check", args, CHECK_FLAGS)?;
    let spec = args.first().ok_or_else(|| err("check: missing circuit"))?;
    let format = flag_value(args, "--format").unwrap_or("text");
    let report = check_spec(spec)?;
    match format {
        "text" => print!("{}", report.render_text()),
        "json" => println!("{}", report.render_json()),
        other => return Err(err(format!("unknown format {other:?} (text, json)"))),
    }
    if report.has_errors() {
        return Err(err(format!(
            "{spec}: {} error(s)",
            report.count(cfs_check::Severity::Error)
        )));
    }
    Ok(())
}

/// `fsim analyze`: run the fault-universe analyses and report how far they
/// shrink the stuck-at and transition universes, plus the per-net findings.
fn cmd_analyze(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("analyze", args, ANALYZE_FLAGS)?;
    let spec = args
        .first()
        .ok_or_else(|| err("analyze: missing circuit"))?;
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(err(format!("unknown format {format:?} (text, json)")));
    }
    // Files are analyzed with provenance so findings carry .bench spans;
    // built-ins have no source file to point at.
    let (c, prov) = if spec.starts_with('@') {
        (load_circuit(spec)?, None)
    } else {
        let text = fs::read_to_string(spec).map_err(|e| err(format!("cannot read {spec}: {e}")))?;
        let (c, p) = parse_bench_with_provenance(circuit_name_of(spec), &text)?;
        (c, Some(p))
    };
    let learn = learn_opts("analyze", args)?;
    let analysis = analyze_circuit(&c);
    let mut stuck = prune_stuck_at(&c, &analysis);
    let mut transition = prune_transition(&c, &analysis);
    // With --learn the reported universes are the learned ones: the F004
    // fates flow into the findings below exactly as the base prunes do.
    let learned = learn.map(|options| {
        let graph = ImplicationGraph::build(&c, &analysis, options);
        let ls = prune_stuck_at_learned(&c, &analysis, &graph);
        stuck = ls.universe.clone();
        transition = prune_transition_learned(&c, &analysis, &graph);
        (graph, ls)
    });
    let dom = dominance_collapse(&c);
    let mut report = cfs_check::Report::new(c.name());
    analysis_findings(
        &c,
        &analysis,
        &stuck,
        &transition,
        prov.as_ref(),
        &mut report,
    );
    if let Some((_, ls)) = &learned {
        learn_findings(&c, ls, prov.as_ref(), &mut report);
    }
    let constant_nets = (0..c.num_nodes())
        .filter(|&i| analysis.constant_of(GateId::from_index(i)).is_some())
        .count();
    let observable = (0..c.num_nodes())
        .filter(|&i| analysis.is_observable(GateId::from_index(i)))
        .count();
    let s = &stuck.stats;
    let t = &transition.stats;
    if format == "json" {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"nodes\":{},\"constant_nets\":{constant_nets},\"observable_nodes\":{observable},",
            c.num_nodes()
        ));
        out.push_str(&format!(
            "\"stuck\":{{\"full\":{},\"classes\":{},\"sim\":{},\"unexcitable\":{},\"unobservable\":{},\"conflict\":{},\"ratio\":{:.4}}},",
            s.full, s.classes, s.sim, s.unexcitable, s.unobservable, s.conflict, s.ratio()
        ));
        out.push_str(&format!(
            "\"transition\":{{\"full\":{},\"sim\":{},\"unexcitable\":{},\"unobservable\":{},\"conflict\":{},\"ratio\":{:.4}}},",
            t.full, t.sim, t.unexcitable, t.unobservable, t.conflict, t.ratio()
        ));
        if let Some((graph, ls)) = &learned {
            out.push_str(&format!(
                "\"learn\":{{\"frames\":{},\"direct_edges\":{},\"learned_edges\":{},\"dominance_pairs\":{}}},",
                graph.frames(),
                graph.num_direct(),
                graph.num_learned(),
                ls.dominance.len()
            ));
        }
        out.push_str(&format!(
            "\"dominance\":{{\"classes\":{},\"edges\":{},\"kept\":{},\"dropped\":{}}},",
            dom.base.num_classes(),
            dom.edges.len(),
            dom.kept.len(),
            dom.dropped()
        ));
        out.push_str(&format!("\"findings\":{}}}", report.render_json()));
        println!("{out}");
        return Ok(());
    }
    println!("{c}");
    println!(
        "value reachability: {constant_nets} constant net(s), {observable}/{} nodes observable",
        c.num_nodes()
    );
    if let Some((graph, ls)) = &learned {
        println!(
            "implication learning: {} direct + {} learned edge(s) over {} frame(s), \
             {} dominance pair(s)",
            graph.num_direct(),
            graph.num_learned(),
            graph.frames(),
            ls.dominance.len()
        );
    }
    let conflict_part = |n: usize| {
        if learned.is_some() {
            format!(", {n} conflict-untestable")
        } else {
            String::new()
        }
    };
    println!(
        "stuck-at: {} faults, {} exact classes, {} simulated \
         (pruned {}: {} unexcitable, {} unobservable{}; {:.1}% of full)",
        s.full,
        s.classes,
        s.sim,
        s.pruned(),
        s.unexcitable,
        s.unobservable,
        conflict_part(s.conflict),
        100.0 * s.ratio()
    );
    println!(
        "dominance: {} edge(s), {} of {} classes kept as analysis targets",
        dom.edges.len(),
        dom.kept.len(),
        dom.base.num_classes()
    );
    println!(
        "transition: {} faults, {} simulated \
         (pruned {}: {} unexcitable, {} unobservable{}; {:.1}% of full)",
        t.full,
        t.sim,
        t.pruned(),
        t.unexcitable,
        t.unobservable,
        conflict_part(t.conflict),
        100.0 * t.ratio()
    );
    if !report.diagnostics.is_empty() {
        println!();
        print!("{}", report.render_text());
    }
    Ok(())
}

/// Diagnostic codes minted by the CLI layer itself (not `cfs-check`
/// rules): operational inputs the driver rejects with exit 2.
const CLI_CODES: &[(&str, &str, Severity, &str)] = &[
    (
        "K001",
        "checkpoint-invalid",
        Severity::Error,
        "a --resume-from file is corrupt or truncated",
    ),
    (
        "K002",
        "checkpoint-mismatch",
        Severity::Error,
        "a checkpoint does not match the circuit, fault set, or patterns of this run",
    ),
    (
        "E001",
        "unknown-fault-id",
        Severity::Error,
        "an explain fault id is outside the selected fault universe",
    ),
    (
        "E002",
        "unknown-rule-code",
        Severity::Error,
        "a rules query names a diagnostic code that does not exist",
    ),
    (
        "E003",
        "unknown-net",
        Severity::Error,
        "an implications query names a net the circuit does not contain",
    ),
];

/// `fsim rules`: the diagnostic-code registry, straight from
/// [`RuleCode::ALL`] plus the CLI-layer codes — the single source the
/// docs table is checked against.
fn cmd_rules(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("rules", args, RULES_FLAGS)?;
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(err(format!("unknown format {format:?} (text, json)")));
    }
    let filter = args.first().filter(|a| !a.starts_with("--"));
    let rows: Vec<(String, &str, Severity, &str)> = RuleCode::ALL
        .iter()
        .map(|&code| {
            (
                code.code().to_owned(),
                code.slug(),
                code.default_severity(),
                code.description(),
            )
        })
        .chain(
            CLI_CODES
                .iter()
                .map(|&(code, slug, sev, desc)| (code.to_owned(), slug, sev, desc)),
        )
        .collect();
    let rows: Vec<_> = match filter {
        None => rows,
        Some(wanted) => {
            let hits: Vec<_> = rows
                .into_iter()
                .filter(|(code, slug, ..)| code == wanted || *slug == wanted.as_str())
                .collect();
            if hits.is_empty() {
                return Err(diag(format!(
                    "error: E002 [unknown-rule-code] {wanted:?} names no diagnostic \
                     (try `fsim rules` for the full list)"
                )));
            }
            hits
        }
    };
    if format == "json" {
        let mut out = String::from("[");
        for (i, (code, slug, sev, desc)) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{code}\",\"slug\":\"{slug}\",\"severity\":\"{}\",\"description\":\"{desc}\"}}",
                sev.name()
            ));
        }
        out.push(']');
        println!("{out}");
        return Ok(());
    }
    for (code, slug, sev, desc) in &rows {
        println!("{code}  {:<7}  {slug:<32}  {desc}", sev.name());
    }
    Ok(())
}

/// `fsim implications <circuit> <net>`: query the implication graph for
/// everything a net's binary values force, across time frames.
fn cmd_implications(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags_n("implications", args, IMPLICATIONS_FLAGS, 2)?;
    let spec = args
        .first()
        .ok_or_else(|| err("implications: missing circuit"))?;
    let net_name = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| err("implications: missing net name (fsim implications <circuit> <net>)"))?;
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(err(format!("unknown format {format:?} (text, json)")));
    }
    let frames = match flag_value(args, "--learn-frames") {
        None => cfs_check::DEFAULT_LEARN_FRAMES,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Err(err(format!(
                    "implications: --learn-frames wants a positive frame count, got {s:?}"
                )))
            }
        },
    };
    let c = load_circuit(spec)?;
    let Some(net) = c.find(net_name) else {
        return Err(diag(format!(
            "error: E003 [unknown-net] {} has no net {net_name:?}",
            c.name()
        )));
    };
    let analysis = analyze_circuit(&c);
    let graph = ImplicationGraph::build(&c, &analysis, LearnOptions { frames });
    let horizon = 2 * (frames - 1);
    if format == "json" {
        let mut out = format!(
            "{{\"circuit\":\"{}\",\"net\":\"{net_name}\",\"frames\":{frames},\
             \"valid_from_cycle\":{horizon},\"implications\":[",
            c.name()
        );
        let mut first = true;
        for value in [false, true] {
            for imp in graph.implications_of(net, value) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"source_value\":{},\"target\":\"{}\",\"value\":{},\"delta\":{},\"learned\":{}}}",
                    u8::from(value),
                    c.gate(imp.target).name(),
                    u8::from(imp.value),
                    imp.delta,
                    imp.learned
                ));
            }
        }
        out.push_str("]}");
        println!("{out}");
        return Ok(());
    }
    println!(
        "implications of {} net {net_name:?} over {frames} frame(s) \
         ({} direct + {} learned edges in the graph)",
        c.name(),
        graph.num_direct(),
        graph.num_learned()
    );
    for value in [false, true] {
        let imps = graph.implications_of(net, value);
        println!(
            "  {net_name}={}: {} implication(s)",
            u8::from(value),
            imps.len()
        );
        for imp in imps {
            let frame = match imp.delta {
                0 => "@t".to_owned(),
                d if d > 0 => format!("@t+{d}"),
                d => format!("@t{d}"),
            };
            let learned = if imp.learned { "  (learned)" } else { "" };
            println!(
                "    -> {}={} {frame}{learned}",
                c.gate(imp.target).name(),
                u8::from(imp.value)
            );
        }
    }
    if horizon > 0 {
        println!("facts are guaranteed at steady-state cycles t >= {horizon}");
    }
    Ok(())
}

/// Loads a circuit spec together with its source provenance when the spec
/// is a file; built-ins have no source lines to point at.
fn load_circuit_with_provenance(
    spec: &str,
) -> Result<(Circuit, Option<BenchProvenance>), Box<dyn std::error::Error>> {
    if spec.starts_with('@') {
        return Ok((load_circuit(spec)?, None));
    }
    let text = fs::read_to_string(spec).map_err(|e| err(format!("cannot read {spec}: {e}")))?;
    let (c, p) = parse_bench_with_provenance(circuit_name_of(spec), &text)?;
    Ok((c, Some(p)))
}

/// One human-readable line per structural edit.
fn render_edit(e: &cfs_check::NetlistEdit) -> String {
    let detail = match &e.kind {
        EditKind::Retyped { from, to } => format!(" ({from} -> {to})"),
        EditKind::Rewired { from, to } => {
            format!(" ({} -> {})", from.join(", "), to.join(", "))
        }
        _ => String::new(),
    };
    let lines = match (e.base_line, e.edited_line) {
        (Some(b), Some(ed)) => format!("  [base:{b} edited:{ed}]"),
        (Some(b), None) => format!("  [base:{b}]"),
        (None, Some(ed)) => format!("  [edited:{ed}]"),
        (None, None) => String::new(),
    };
    format!("  {:<14} {}{detail}{lines}", e.kind.label(), e.name)
}

/// `fsim impact <base> <edited>`: structural diff, affected-cone sizes,
/// and the stuck-at/transition transfer split — the static half of an
/// incremental re-simulation, without running any patterns.
fn cmd_impact(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let base_spec = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| err("impact: missing circuits (fsim impact <base> <edited>)"))?;
    let edited_spec = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| err("impact: missing edited circuit (fsim impact <base> <edited>)"))?;
    if let Some(stray) = args.get(2).filter(|a| !a.starts_with("--")) {
        return Err(err(format!(
            "impact: unexpected argument {stray:?} (the two circuits come first)"
        )));
    }
    validate_flags("impact", &args[2..], IMPACT_FLAGS)?;
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(err(format!("unknown format {format:?} (text, json)")));
    }
    let (base, base_prov) = load_circuit_with_provenance(base_spec)?;
    let (edited, edited_prov) = load_circuit_with_provenance(edited_spec)?;
    let diff = diff_netlists(&base, &edited, base_prov.as_ref(), edited_prov.as_ref());
    let analysis = impact_analysis(&base, &edited, diff);
    let stuck = classify_stuck_at(&base, &edited, &analysis);
    let transition = classify_transition(&base, &edited, &analysis);
    let mut report = cfs_check::Report::new(edited.name());
    impact_findings(&analysis, &mut report);
    if format == "json" {
        let mut out = String::new();
        out.push_str("{\"base\":");
        write_json_string(&mut out, base.name());
        out.push_str(",\"edited\":");
        write_json_string(&mut out, edited.name());
        out.push_str(",\"diff\":{\"edits\":[");
        for (i, e) in analysis.diff.edits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&mut out, &e.name);
            out.push_str(",\"kind\":");
            write_json_string(&mut out, e.kind.label());
            out.push_str(&format!(
                ",\"base_line\":{},\"edited_line\":{}}}",
                e.base_line.map_or("null".into(), |l| l.to_string()),
                e.edited_line.map_or("null".into(), |l| l.to_string())
            ));
        }
        out.push_str(&format!(
            "],\"inputs_changed\":{}}},",
            analysis.diff.inputs_changed
        ));
        out.push_str(&format!(
            "\"cone\":{{\"base_nodes\":{},\"edited_nodes\":{},\"affected_names\":{},\"disconnected\":{}}},",
            analysis.base_cone_nodes,
            analysis.edited_cone_nodes,
            analysis.affected_names.len(),
            analysis.disconnected
        ));
        for (key, s) in [("stuck", &stuck.stats), ("transition", &transition.stats)] {
            out.push_str(&format!(
                "\"{key}\":{{\"full\":{},\"affected\":{},\"transferred\":{},\"ratio\":{:.4}}},",
                s.full,
                s.affected,
                s.transferred,
                s.ratio()
            ));
        }
        out.push_str(&format!("\"findings\":{}}}", report.render_json()));
        println!("{out}");
        return Ok(());
    }
    println!("impact: {} -> {}", base.name(), edited.name());
    if analysis.diff.is_empty() {
        println!("no structural differences; every fault's fate transfers");
    } else {
        println!(
            "{} edit(s){}:",
            analysis.diff.edits.len(),
            if analysis.diff.inputs_changed {
                ", primary inputs changed"
            } else {
                ""
            }
        );
        const MAX_SHOWN: usize = 20;
        for e in analysis.diff.edits.iter().take(MAX_SHOWN) {
            println!("{}", render_edit(e));
        }
        if analysis.diff.edits.len() > MAX_SHOWN {
            println!("  ... {} more", analysis.diff.edits.len() - MAX_SHOWN);
        }
    }
    println!(
        "affected cone: {} node(s) in base, {} in edited, {} signal name(s){}",
        analysis.base_cone_nodes,
        analysis.edited_cone_nodes,
        analysis.affected_names.len(),
        if analysis.disconnected {
            " (includes disconnected logic)"
        } else {
            ""
        }
    );
    for (model, s) in [
        ("stuck-at", &stuck.stats),
        ("transition", &transition.stats),
    ] {
        println!(
            "{model}: {} of {} faults affected ({} transfer; re-simulate {:.1}%)",
            s.affected,
            s.full,
            s.transferred,
            100.0 * s.ratio()
        );
    }
    if !report.diagnostics.is_empty() {
        println!();
        print!("{}", report.render_text());
    }
    Ok(())
}

/// `fsim mutate <circuit> --edit KIND`: apply one deterministic scripted
/// edit and emit the mutated `.bench` text, for building incremental test
/// workloads without hand-editing netlists.
fn cmd_mutate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("mutate", args, MUTATE_FLAGS)?;
    let spec = args.first().ok_or_else(|| err("mutate: missing circuit"))?;
    let edit_name = flag_value(args, "--edit")
        .ok_or_else(|| err("mutate: missing --edit (retype, rewire, dead-logic)"))?;
    let edit = BenchEdit::parse(edit_name).ok_or_else(|| {
        err(format!(
            "unknown edit {edit_name:?} (retype, rewire, dead-logic)"
        ))
    })?;
    let choice: usize = match flag_value(args, "--choice") {
        Some(v) => v.parse().map_err(|_| err("--choice needs a number"))?,
        None => 0,
    };
    let c = load_circuit(spec)?;
    let candidates = edit_candidates(&c, edit);
    let applied = apply_edit(&c, edit, choice)?;
    if let Some(path) = flag_value(args, "--out") {
        fs::write(path, &applied.text).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        println!(
            "{} (choice {} of {candidates}); wrote {path}",
            applied.description,
            choice % candidates.max(1)
        );
    } else {
        eprintln!(
            "{} (choice {} of {candidates})",
            applied.description,
            choice % candidates.max(1)
        );
        print!("{}", applied.text);
    }
    Ok(())
}

fn load_patterns(
    circuit: &Circuit,
    args: &[String],
    default_random: usize,
) -> Result<Vec<Vec<Logic>>, Box<dyn std::error::Error>> {
    if let Some(file) = flag_value(args, "--patterns") {
        let text = fs::read_to_string(file).map_err(|e| err(format!("cannot read {file}: {e}")))?;
        let mut patterns = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p = parse_pattern(line).map_err(|e| err(format!("{file}:{}: {e}", lineno + 1)))?;
            if p.len() != circuit.num_inputs() {
                return Err(err(format!(
                    "{file}:{}: pattern has {} bits, circuit has {} inputs",
                    lineno + 1,
                    p.len(),
                    circuit.num_inputs()
                )));
            }
            patterns.push(p);
        }
        return Ok(patterns);
    }
    let n = match flag_value(args, "--random") {
        Some(v) => v.parse().map_err(|_| err("--random needs a number"))?,
        None => default_random,
    };
    let seed = match flag_value(args, "--seed") {
        Some(v) => v.parse().map_err(|_| err("--seed needs a number"))?,
        None => 1,
    };
    Ok(random_patterns(circuit, n, seed))
}

fn cmd_stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("stats", args, STATS_FLAGS)?;
    let spec = args.first().ok_or_else(|| err("stats: missing circuit"))?;
    let c = load_circuit(spec)?;
    println!("{c}");
    let all = enumerate_stuck_at(&c);
    let collapsed = collapse_stuck_at(&c);
    println!(
        "stuck-at faults: {} ({} collapsed, ratio {:.2})",
        all.len(),
        collapsed.num_classes(),
        collapsed.ratio()
    );
    println!("transition faults: {}", enumerate_transition(&c).len());
    let macros = extract_macros(&c, cfs_netlist::DEFAULT_MACRO_MAX_INPUTS);
    println!(
        "macro cells: {} ({:.2} gates/cell, {} KiB of LUTs)",
        macros.num_cells(),
        c.num_comb_gates() as f64 / macros.num_cells() as f64,
        macros.lut_memory_bytes() / 1024
    );
    Ok(())
}

fn print_report(report: &FaultSimReport) {
    println!("{report}");
    println!(
        "  events: {}, faulty-machine evaluations: {}",
        report.events, report.evaluations
    );
}

type JsonlFile = JsonlWriter<io::BufWriter<fs::File>>;

fn open_jsonl(path: &Option<String>) -> Result<Option<JsonlFile>, Box<dyn std::error::Error>> {
    match path {
        Some(p) => {
            let file = fs::File::create(p).map_err(|e| err(format!("cannot write {p}: {e}")))?;
            Ok(Some(JsonlWriter::new(io::BufWriter::new(file))))
        }
        None => Ok(None),
    }
}

fn close_jsonl(
    jsonl: Option<JsonlFile>,
    path: &Option<String>,
) -> Result<(), Box<dyn std::error::Error>> {
    if let (Some(mut w), Some(p)) = (jsonl, path.as_ref()) {
        w.flush()
            .map_err(|e| err(format!("cannot write {p}: {e}")))?;
        println!("wrote telemetry to {p}");
    }
    Ok(())
}

/// Streams every per-pattern record plus the run summary as JSON lines.
fn emit_jsonl(
    w: &mut JsonlFile,
    metrics: &SimMetrics,
    snap: &MetricsSnapshot,
) -> Result<(), Box<dyn std::error::Error>> {
    for record in metrics.records() {
        w.write_pattern(record)
            .map_err(|e| err(format!("cannot write telemetry: {e}")))?;
    }
    w.write_summary(snap)
        .map_err(|e| err(format!("cannot write telemetry: {e}")))
}

/// Converts the scheduler's run record into the trace crate's worker
/// tracks, shifting its task/steal timestamps (microseconds from
/// scheduler start) onto the recorders' epoch by `offset_micros` so the
/// tracks line up with the shard events.
fn sched_track_of(stats: Option<&SchedStats>, offset_micros: u64) -> Option<SchedTrack> {
    let st = stats?;
    Some(SchedTrack {
        workers: st.workers as u32,
        spans: st
            .spans
            .iter()
            .map(|s| SchedSpan {
                worker: s.worker,
                shard: s.shard,
                window: s.window,
                patterns: s.patterns,
                start: s.start_micros + offset_micros,
                end: s.end_micros + offset_micros,
            })
            .collect(),
        steals: st
            .steal_events
            .iter()
            .map(|e| SchedSteal {
                worker: e.worker,
                victim: e.victim,
                shard: e.shard,
                window: e.window,
                ts: e.ts_micros + offset_micros,
            })
            .collect(),
    })
}

/// Writes the Chrome Trace / Perfetto JSON document for a finished traced
/// run: one track per shard (fault ids remapped local→global through each
/// shard's map) plus the merged counter track, and — for batched runs —
/// one worker track per scheduler thread with task spans and steal
/// instants.
fn write_trace_file(
    path: &str,
    process_name: &str,
    doc: &TraceDoc,
    recorded: u64,
    dropped: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let tracks: Vec<TrackTrace<'_>> = doc
        .shards
        .iter()
        .enumerate()
        .map(|(k, (events, map))| TrackTrace {
            label: format!("shard {k}"),
            events,
            fault_map: Some(map),
        })
        .collect();
    let file = fs::File::create(path).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    let mut out = io::BufWriter::new(file);
    write_chrome_trace_with_sched(&mut out, process_name, &tracks, doc.sched.as_ref())
        .and_then(|()| out.flush())
        .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    if dropped > 0 {
        eprintln!(
            "fsim: note: trace ring overflowed; {dropped} oldest events were \
             discarded (raise --trace-capacity)"
        );
    }
    println!("wrote trace to {path} ({recorded} events recorded, {dropped} dropped)");
    Ok(())
}

/// The per-run detail blocks behind `--stats`: phase times and the two
/// engine histograms, merged across every shard's probe (one shard on
/// the serial path).
fn print_stats_detail<'a>(snap: &MetricsSnapshot, shards: impl Iterator<Item = &'a SimMetrics>) {
    let mut list_hist = Log2Histogram::default();
    let mut queue_hist = Log2Histogram::default();
    for m in shards {
        list_hist.merge(&m.list_len_hist);
        queue_hist.merge(&m.queue_depth_hist);
    }
    // Gated runs only: ungated output stays what it always was.
    if snap.quiesce_skips > 0 || snap.quiesce_wakes > 0 {
        println!(
            "  quiescence: {} sweep elements skipped, {} wakes",
            snap.quiesce_skips, snap.quiesce_wakes
        );
    }
    print!("{}", render_phase_table(&snap.phases));
    print!(
        "{}",
        render_histogram("fault-list length per node", &list_hist)
    );
    print!(
        "{}",
        render_histogram("event-queue depth per level", &queue_hist)
    );
}

/// `--trace-every N` milestones: replays the per-shard per-pattern records
/// up to `done` finished patterns and prints one line per multiple of
/// `every`. The run driver calls [`Progress::advance`] from the run
/// callback, when every shard has settled, so it reads only finished
/// records — the output is deterministic and identical for every thread
/// count (per-pattern counters sum across shards; the mean list length
/// over nodes sums because the shards partition the fault universe over
/// the same node array).
struct Progress {
    every: usize,
    /// The first pattern the probes recorded: the resume point.
    first: usize,
    /// Patterns replayed so far.
    cursor: usize,
    /// Running detection count, starting from what a resumed run restored.
    detected: u64,
    total: usize,
}

impl Progress {
    fn advance(&mut self, shards: &[&SimMetrics], done: usize) {
        while self.cursor < done {
            let record = self.cursor - self.first;
            let mut avg = 0.0;
            let mut events = 0u64;
            for m in shards {
                if let Some(r) = m.records().get(record) {
                    self.detected += r.counters.detected;
                    avg += r.avg_list_len;
                    events += r.counters.activations;
                }
            }
            self.cursor += 1;
            if self.cursor.is_multiple_of(self.every) {
                println!(
                    "  pattern {:>6}: detected {}/{}  avg |F| {avg:.1}  events {events}",
                    self.cursor, self.detected, self.total
                );
            }
        }
    }
}

/// The probe attached by `--trace-out`: aggregate metrics and the event
/// recorder, driven by one engine pass.
type TraceProbe = PairProbe<SimMetrics, TraceRecorder>;

/// The probes a concurrent run can attach. Which one is picked once, at
/// dispatch ([`Probes::pick`]); the run driver is generic over it.
trait RunProbe: Probe + Send {
    /// One shard's probe; `epoch` is the trace clock every shard shares,
    /// so cross-track timestamps line up.
    fn attach(epoch: Instant, cfg: TraceConfig) -> Self;

    /// The metrics half, when the probe records.
    fn metrics(&self) -> Option<&SimMetrics> {
        None
    }

    /// The event recorder, when the probe traces.
    fn recorder(&self) -> Option<&TraceRecorder> {
        None
    }
}

impl RunProbe for NullProbe {
    fn attach(_: Instant, _: TraceConfig) -> Self {
        NullProbe
    }
}

impl RunProbe for SimMetrics {
    fn attach(_: Instant, _: TraceConfig) -> Self {
        SimMetrics::new()
    }

    fn metrics(&self) -> Option<&SimMetrics> {
        Some(self)
    }
}

impl RunProbe for TraceProbe {
    fn attach(epoch: Instant, cfg: TraceConfig) -> Self {
        PairProbe(SimMetrics::new(), TraceRecorder::new(epoch, cfg))
    }

    fn metrics(&self) -> Option<&SimMetrics> {
        Some(&self.0)
    }

    fn recorder(&self) -> Option<&TraceRecorder> {
        Some(&self.1)
    }
}

/// The probe kind a run attaches.
#[derive(Clone, Copy)]
enum Probes {
    /// No telemetry: zero instrumentation cost.
    Null,
    /// `--stats`, `--stats-json`, `--trace-every`, or a `--variant all`
    /// comparison table.
    Metrics,
    /// `--trace-out`: metrics plus the event recorder.
    Trace,
}

impl Probes {
    fn pick(tel: &TelemetryOpts, variants: usize) -> Probes {
        if tel.trace_out.is_some() {
            Probes::Trace
        } else if tel.enabled() || variants > 1 {
            Probes::Metrics
        } else {
            Probes::Null
        }
    }
}

/// Flag combinations the run driver cannot serve, refused before
/// dispatch. `variants` counts the concurrent variants the run simulates.
fn refuse_unsupported(
    variants: usize,
    tel: &TelemetryOpts,
    par: &ParallelOpts,
    ck: &CheckpointOpts,
) -> Result<(), Box<dyn std::error::Error>> {
    if ck.active() {
        if par.threads > 1 {
            return Err(err(
                "checkpointing captures one serial engine; it needs --threads 1",
            ));
        }
        if par.batch.is_some() {
            return Err(err("checkpointing cannot combine with --batch-windows"));
        }
        if tel.trace_out.is_some() {
            return Err(err("checkpointing cannot combine with --trace-out"));
        }
    }
    if variants > 1 {
        for (on, what) in [
            (par.detections.is_some(), "--detections"),
            (par.baseline_out.is_some(), "--baseline-out"),
            (ck.active(), "checkpointing"),
            (tel.trace_out.is_some(), "--trace-out"),
        ] {
            if on {
                return Err(err(format!("{what} needs a single --variant")));
            }
        }
    }
    Ok(())
}

/// One `sim`/`transition` run's inputs, shared by every machine it drives.
struct Run<'a, F> {
    c: &'a Circuit,
    patterns: &'a [Vec<Logic>],
    universe: &'a Universe<F>,
    tel: &'a TelemetryOpts,
    par: &'a ParallelOpts,
    ck: &'a CheckpointOpts,
}

/// A finished traced run's Chrome Trace content: each shard's events
/// with its local→global fault map, plus the scheduler's worker tracks.
struct TraceDoc {
    shards: Vec<(Vec<TraceEvent>, Vec<usize>)>,
    sched: Option<SchedTrack>,
}

/// What one machine's run leaves for the shared output stage.
struct Outcome {
    report: FaultSimReport,
    snap: Option<MetricsSnapshot>,
    trace: Option<TraceDoc>,
}

/// `--checkpoint-every` bookkeeping, driven from the run callback.
struct Checkpointing<'a> {
    ck: &'a CheckpointOpts,
    total: usize,
    time: Duration,
    written: u32,
    failed: Option<Box<dyn std::error::Error>>,
}

impl Checkpointing<'_> {
    /// Snapshots at every cadence boundary but the last (the final
    /// boundary is the finished report). A write failure stops further
    /// snapshots and is returned once the run ends.
    fn after<M: FaultMachine>(&mut self, sim: &ShardedSim<M>, done: usize) {
        let (Some(every), Some(dir)) = (self.ck.every, self.ck.out.as_deref()) else {
            return;
        };
        if !done.is_multiple_of(every) || done >= self.total || self.failed.is_some() {
            return;
        }
        let t = Instant::now();
        match write_checkpoint_file(dir, &sim.checkpoint()) {
            Ok(_) => self.written += 1,
            Err(e) => self.failed = Some(e),
        }
        self.time += t.elapsed();
    }
}

/// The one run driver: builds the sharded machine `M` (one shard on the
/// serial path) with the probe picked at dispatch, resumes and
/// checkpoints it, runs it serially, sharded, or batched, and prints the
/// report, the scheduler line, and the `--stats` detail. Files and the
/// summary table come after every variant has run ([`finish_run`]).
fn simulate<M>(
    run: &Run<'_, M::Fault>,
    options: M::Options,
    jsonl: &mut Option<JsonlFile>,
    cold: impl FnOnce(&[M::Fault]) -> Vec<FaultStatus>,
) -> Result<Outcome, Box<dyn std::error::Error>>
where
    M: FaultMachine + Send,
    M::Probe: RunProbe,
{
    let (c, patterns, universe) = (run.c, run.patterns, run.universe);
    let (tel, par, ck) = (run.tel, run.par, run.ck);
    let exp = universe.expansion();
    let epoch = Instant::now();
    let mut sim = ShardedSim::<M>::with_probes_sharded(
        c,
        &universe.faults,
        options,
        par.threads,
        par.shards(),
        par.plan,
        universe.keys.as_deref(),
        |_| M::Probe::attach(epoch, tel.trace_cfg),
    );
    if par.paranoid {
        sim.set_paranoid(true);
    }
    let start_at = match &ck.resume {
        Some(path) => {
            let snap = load_checkpoint_file(path)?;
            sim.restore(&snap)
                .map_err(|e| diag(format!("error: K002 [checkpoint-mismatch] {path}: {e}")))?;
            let done = snap.pattern_index() as usize;
            if done > patterns.len() {
                return Err(err(format!(
                    "{path} already covers {done} pattern(s) but this run replays only {}",
                    patterns.len()
                )));
            }
            println!("resumed from {path} at pattern {done}");
            done
        }
        None => 0,
    };
    let mut progress = tel.trace_every.map(|every| Progress {
        every,
        first: start_at,
        cursor: start_at,
        detected: sim.detected() as u64,
        total: universe.faults.len(),
    });
    let mut ckpt = Checkpointing {
        ck,
        total: patterns.len(),
        time: Duration::ZERO,
        written: 0,
        failed: None,
    };
    let after = |s: &ShardedSim<M>, done: usize| {
        if let Some(progress) = progress.as_mut() {
            let shards: Vec<&SimMetrics> =
                s.shard_probes().filter_map(|(p, _)| p.metrics()).collect();
            progress.advance(&shards, start_at + done);
        }
        ckpt.after(s, start_at + done);
    };
    // Scheduler timestamps count from run start; measure that start on
    // the recorders' epoch so the worker tracks line up with the shards.
    let sched_offset = epoch.elapsed().as_micros() as u64;
    let mut report = match &par.batch {
        Some(b) => sim.run_batched_with(patterns, b, after),
        None => sim.run_with(&patterns[start_at..], after),
    };
    report.patterns = patterns.len();
    if let Some(e) = ckpt.failed {
        return Err(e);
    }
    if let Some(dir) = ck.out.as_deref() {
        if ckpt.written > 0 {
            println!(
                "wrote {} checkpoint(s) to {dir} ({:.1} ms)",
                ckpt.written,
                ckpt.time.as_secs_f64() * 1e3
            );
        }
    }
    exp.expand(&mut report);
    print_report(&report);
    verify_incremental(c.name(), exp, par.paranoid, &report.statuses, cold)?;
    let shard_metrics = || sim.shard_probes().filter_map(|(p, _)| p.metrics());
    let recorders = || sim.shard_probes().filter_map(|(p, _)| p.recorder());
    let snap = if shard_metrics().next().is_some() {
        let mut snap = sim.snapshot_by(|p| p.metrics().expect("every shard records"));
        // Phase spans nest, so the wall clock is the honest total.
        snap.cpu_seconds = report.cpu.as_secs_f64();
        snap.phases.add(Phase::Check, tel.check_time);
        if ck.active() {
            snap.phases.add(Phase::Checkpoint, ckpt.time);
        }
        exp.stamp(&mut snap);
        snap.trace_events = recorders().map(TraceRecorder::recorded_events).sum();
        snap.trace_dropped = recorders().map(TraceRecorder::dropped_events).sum();
        if tel.stats {
            // Batched runs only: plain `--threads N` output stays what it
            // always was.
            if let (Some(_), Some(st)) = (&par.batch, sim.sched_stats()) {
                println!(
                    "  scheduler: {} windows × {} shards = {} tasks on {} workers, {} steals",
                    st.windows,
                    sim.num_shards(),
                    st.tasks,
                    st.workers,
                    st.steals
                );
            }
            print_stats_detail(&snap, shard_metrics());
        }
        if let Some(w) = jsonl.as_mut() {
            match shard_metrics().next() {
                // A serial run's single shard recorded the serial
                // per-pattern records; sharded runs carry only the merged
                // summary.
                Some(m) if par.threads == 1 && par.batch.is_none() => emit_jsonl(w, m, &snap)?,
                _ => w
                    .write_summary(&snap)
                    .map_err(|e| err(format!("cannot write telemetry: {e}")))?,
            }
        }
        Some(snap)
    } else {
        None
    };
    let trace = tel.trace_out.as_ref().map(|_| TraceDoc {
        shards: sim
            .shard_probes()
            .filter_map(|(p, map)| Some((p.recorder()?.events().copied().collect(), map.to_vec())))
            .collect(),
        // Worker tracks only for batched runs: the plain sharded document
        // keeps its one-track-per-shard shape.
        sched: par
            .batch
            .as_ref()
            .and_then(|_| sched_track_of(sim.sched_stats(), sched_offset)),
    });
    Ok(Outcome {
        report,
        snap,
        trace,
    })
}

/// The shared tail of a concurrent run, in one order for every mode: the
/// summary table (under `--stats`, or comparing `--variant all`), then
/// the files — telemetry, detections, baseline, trace. Only the telemetry
/// stream may span several variants; the other files need a single one.
fn finish_run<F>(
    run: &Run<'_, F>,
    outcomes: &[Outcome],
    jsonl: Option<JsonlFile>,
    (model, universe): (&str, &str),
) -> Result<(), Box<dyn std::error::Error>> {
    let snaps: Vec<MetricsSnapshot> = outcomes.iter().filter_map(|o| o.snap.clone()).collect();
    if run.tel.stats || outcomes.len() > 1 {
        println!();
        print!("{}", render_summary_table(&snaps));
    }
    close_jsonl(jsonl, &run.tel.stats_json)?;
    let Some(last) = outcomes.last() else {
        return Ok(());
    };
    if let Some(path) = &run.par.detections {
        write_detections(path, &last.report.statuses)?;
    }
    if let Some(path) = &run.par.baseline_out {
        write_baseline(
            path,
            model,
            universe,
            run.c,
            run.patterns,
            &last.report.statuses,
        )?;
    }
    if let (Some(path), Some(doc)) = (&run.tel.trace_out, &last.trace) {
        let (recorded, dropped) = last
            .snap
            .as_ref()
            .map_or((0, 0), |s| (s.trace_events, s.trace_dropped));
        write_trace_file(
            path,
            &format!("{} · {}", run.c.name(), last.report.simulator),
            doc,
            recorded,
            dropped,
        )?;
    }
    Ok(())
}

/// Prints what a `--prune` run is about to simulate.
fn print_prune_banner(model: &str, stats: &cfs_faults::PruneStats) {
    let conflict = if stats.conflict > 0 {
        format!(", {} conflict-untestable", stats.conflict)
    } else {
        String::new()
    };
    println!(
        "pruned {} of {} {model} faults ({} unexcitable, {} unobservable{conflict}); \
         simulating {} class representatives",
        stats.pruned(),
        stats.full,
        stats.unexcitable,
        stats.unobservable,
        stats.sim
    );
}

/// The simulated universe of a `sim`/`transition` run: the faults handed
/// to the machine, how its report expands back to the full universe, and
/// the weight-aware plan's balance keys.
struct Universe<F> {
    faults: Vec<F>,
    pruned: Option<PrunedUniverse<F>>,
    incr: Option<(ImpactUniverse<F>, Vec<FaultStatus>)>,
    keys: Option<Vec<u32>>,
}

impl<F: Copy> Universe<F> {
    fn expansion(&self) -> Expansion<'_, F> {
        match (&self.pruned, &self.incr) {
            (Some(u), _) => Expansion::Pruned(u),
            (None, Some((u, baseline))) => Expansion::Incremental {
                universe: u,
                baseline,
            },
            _ => Expansion::Verbatim,
        }
    }
}

/// One fault model's hooks into [`prepare_universe`].
struct ModelHooks<F> {
    /// The model in banners (`stuck-at`, `transition`).
    label: &'static str,
    /// The baseline report's model and reported-universe labels.
    baseline: (&'static str, &'static str),
    prune: fn(&Circuit, &CircuitAnalysis) -> PrunedUniverse<F>,
    prune_learned: fn(&Circuit, &CircuitAnalysis, &ImplicationGraph) -> PrunedUniverse<F>,
    classify: fn(&Circuit, &Circuit, &ImpactAnalysis) -> ImpactUniverse<F>,
    weights: fn(&Circuit, &CircuitAnalysis, &[F]) -> Vec<u32>,
}

const STUCK: ModelHooks<StuckAt> = ModelHooks {
    label: "stuck-at",
    baseline: ("stuck", "uncollapsed"),
    prune: prune_stuck_at,
    prune_learned: |c, a, g| prune_stuck_at_learned(c, a, g).universe,
    classify: classify_stuck_at,
    weights: stuck_weights,
};

const TRANSITION: ModelHooks<TransitionFault> = ModelHooks {
    label: "transition",
    baseline: ("transition", "full"),
    prune: prune_transition,
    prune_learned: prune_transition_learned,
    classify: classify_transition,
    weights: transition_weights,
};

/// Checks the universe-rewriting flags `sim` and `transition` share:
/// `--learn` extends `--prune`, and `--incremental` pairs with
/// `--baseline-report` but not with `--prune`.
fn universe_flags(
    cmd: &str,
    args: &[String],
) -> Result<(bool, Option<LearnOptions>), Box<dyn std::error::Error>> {
    let prune = has_flag(args, "--prune");
    let learn = learn_opts(cmd, args)?;
    if learn.is_some() && !prune {
        return Err(err("--learn extends --prune; add --prune"));
    }
    let incremental = has_flag(args, "--incremental");
    if incremental && prune {
        return Err(err(
            "--incremental and --prune both rewrite the simulated universe; pick one",
        ));
    }
    if incremental && flag_value(args, "--baseline-report").is_none() {
        return Err(err("--incremental needs --baseline-report FILE"));
    }
    if !incremental && flag_value(args, "--baseline-report").is_some() {
        return Err(err("--baseline-report needs --incremental"));
    }
    Ok((prune, learn))
}

/// The shared `sim`/`transition` preparation: `--prune` (with `--learn`),
/// `--incremental`, and the weight-aware plan's keys, over the model's
/// `full` default universe.
#[allow(clippy::too_many_arguments)]
fn prepare_universe<F: Copy>(
    c: &Circuit,
    args: &[String],
    patterns: &[Vec<Logic>],
    par: &ParallelOpts,
    prune: bool,
    learn: Option<LearnOptions>,
    hooks: &ModelHooks<F>,
    full: impl FnOnce(&Circuit) -> Vec<F>,
) -> Result<Universe<F>, Box<dyn std::error::Error>> {
    let weighted = par.plan == ShardPlan::WeightAware && par.threads > 1;
    // The weight-aware plan and --prune share one static analysis pass.
    let analysis = (prune || weighted).then(|| analyze_circuit(c));
    let pruned = match &analysis {
        Some(a) if prune => Some(match learn {
            Some(options) => (hooks.prune_learned)(c, a, &ImplicationGraph::build(c, a, options)),
            None => (hooks.prune)(c, a),
        }),
        _ => None,
    };
    let incr = match flag_value(args, "--baseline-report") {
        Some(path) if has_flag(args, "--incremental") => {
            let (model, universe) = hooks.baseline;
            let baseline = load_baseline(path, model, universe)?;
            Some(prepare_incremental(c, baseline, patterns, hooks.classify)?)
        }
        _ => None,
    };
    let faults = match (&pruned, &incr) {
        (Some(u), _) => {
            print_prune_banner(hooks.label, &u.stats);
            u.sim.clone()
        }
        (None, Some((u, _))) => {
            print_impact_banner(hooks.label, &u.stats);
            u.affected.clone()
        }
        (None, None) => full(c),
    };
    let keys = match &analysis {
        Some(a) if weighted => Some((hooks.weights)(c, a, &faults)),
        _ => None,
    };
    Ok(Universe {
        faults,
        pruned,
        incr,
        keys,
    })
}

/// Parses `--variant` for the concurrent simulator.
fn parse_variants(name: &str) -> Result<Vec<CsimVariant>, Box<dyn std::error::Error>> {
    Ok(match name {
        "all" => CsimVariant::ALL.to_vec(),
        "base" => vec![CsimVariant::Base],
        "v" => vec![CsimVariant::V],
        "m" => vec![CsimVariant::M],
        "mv" => vec![CsimVariant::Mv],
        other => return Err(err(format!("unknown variant {other:?}"))),
    })
}

fn cmd_sim(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("sim", args, SIM_FLAGS)?;
    let spec = args.first().ok_or_else(|| err("sim: missing circuit"))?;
    let simulator = flag_value(args, "--simulator").unwrap_or("csim");
    let uncollapsed = has_flag(args, "--uncollapsed");
    let (prune, learn) = universe_flags("sim", args)?;
    let incremental = has_flag(args, "--incremental");
    if prune && uncollapsed {
        return Err(err(
            "--prune already reports the full uncollapsed universe (pruned faults \
             as untestable); drop --uncollapsed",
        ));
    }
    if incremental && uncollapsed {
        return Err(err(
            "--incremental already reports the full uncollapsed universe; drop --uncollapsed",
        ));
    }
    if flag_value(args, "--baseline-out").is_some() && !(prune || incremental || uncollapsed) {
        return Err(err(
            "--baseline-out records fates over the full uncollapsed universe; add \
             --uncollapsed (or --prune / --incremental, which already report it)",
        ));
    }
    let mut tel = TelemetryOpts::parse(args)?;
    let par = ParallelOpts::parse(args)?;
    let ck = CheckpointOpts::parse(args)?;
    let variants = if simulator == "csim" {
        parse_variants(flag_value(args, "--variant").unwrap_or("mv"))?
    } else {
        for (on, flag) in [
            (prune, "--prune"),
            (incremental, "--incremental"),
            (ck.active(), "checkpointing"),
            (tel.trace_out.is_some(), "--trace-out"),
            (par.threads > 1, "--threads"),
            (par.batch.is_some(), "--batch-windows"),
            (par.paranoid, "--paranoid"),
            (par.quiesce_window > 0, "--quiesce-window"),
        ] {
            if on {
                return Err(err(format!(
                    "{flag} needs the concurrent simulator, not {simulator:?}"
                )));
            }
        }
        Vec::new()
    };
    refuse_unsupported(variants.len(), &tel, &par, &ck)?;
    let (c, check_time) = load_circuit_checked(spec, args)?;
    tel.check_time = check_time;
    let patterns = load_patterns(&c, args, 256)?;
    let universe = prepare_universe(&c, args, &patterns, &par, prune, learn, &STUCK, |c| {
        if uncollapsed {
            enumerate_stuck_at(c)
        } else {
            collapse_stuck_at(c).representatives
        }
    })?;
    let run = Run {
        c: &c,
        patterns: &patterns,
        universe: &universe,
        tel: &tel,
        par: &par,
        ck: &ck,
    };
    let mut jsonl = open_jsonl(&tel.stats_json)?;
    if simulator == "csim" {
        let probes = Probes::pick(&tel, variants.len());
        let mut outcomes = Vec::with_capacity(variants.len());
        for variant in variants {
            let options = CsimOptions {
                quiesce_window: par.quiesce_window,
                ..variant.options()
            };
            // Cold cross-check re-runs stay ungated on purpose: a gating
            // bug cannot mask itself from the paranoid comparison.
            let cold = |full: &[StuckAt]| {
                ConcurrentSim::new(&c, full, variant.options())
                    .run(&patterns)
                    .statuses
            };
            outcomes.push(match probes {
                Probes::Null => simulate::<ConcurrentSim>(&run, options, &mut jsonl, cold)?,
                Probes::Metrics => {
                    simulate::<ConcurrentSim<SimMetrics>>(&run, options, &mut jsonl, cold)?
                }
                Probes::Trace => {
                    simulate::<ConcurrentSim<TraceProbe>>(&run, options, &mut jsonl, cold)?
                }
            });
        }
        return finish_run(&run, &outcomes, jsonl, STUCK.baseline);
    }
    let faults = &universe.faults;
    let report = match simulator {
        "proofs" => ProofsSim::new(&c, faults).run(&patterns),
        "serial" => SerialSim::new(&c, faults).run(&patterns),
        "deductive" => {
            let reset = vec![Logic::Zero; c.num_dffs()];
            DeductiveSim::new(&c, faults, reset).run(&patterns)?
        }
        other => return Err(err(format!("unknown simulator {other:?}"))),
    };
    print_report(&report);
    // The baseline simulators report only run totals: a headline-only
    // snapshot through the same table and JSON path.
    let snap = tel.enabled().then(|| {
        if tel.trace_every.is_some() {
            eprintln!("fsim: note: --trace-every needs a concurrent simulator; ignored");
        }
        MetricsSnapshot::from_basic(
            &report.simulator,
            &report.circuit,
            report.patterns as u64,
            report.detected() as u64,
            report.events,
            report.evaluations,
            report.memory_bytes as u64,
            report.cpu.as_secs_f64(),
        )
    });
    if let (Some(w), Some(snap)) = (jsonl.as_mut(), &snap) {
        w.write_summary(snap)
            .map_err(|e| err(format!("cannot write telemetry: {e}")))?;
    }
    let outcome = Outcome {
        report,
        snap,
        trace: None,
    };
    finish_run(&run, &[outcome], jsonl, STUCK.baseline)
}

fn cmd_transition(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("transition", args, TRANSITION_FLAGS)?;
    let spec = args
        .first()
        .ok_or_else(|| err("transition: missing circuit"))?;
    let mut tel = TelemetryOpts::parse(args)?;
    let par = ParallelOpts::parse(args)?;
    let ck = CheckpointOpts::parse(args)?;
    refuse_unsupported(1, &tel, &par, &ck)?;
    let (prune, learn) = universe_flags("transition", args)?;
    let (c, check_time) = load_circuit_checked(spec, args)?;
    tel.check_time = check_time;
    let patterns = load_patterns(&c, args, 256)?;
    let universe = prepare_universe(
        &c,
        args,
        &patterns,
        &par,
        prune,
        learn,
        &TRANSITION,
        enumerate_transition,
    )?;
    let run = Run {
        c: &c,
        patterns: &patterns,
        universe: &universe,
        tel: &tel,
        par: &par,
        ck: &ck,
    };
    let options = TransitionOptions {
        quiesce_window: par.quiesce_window,
        ..TransitionOptions::default()
    };
    let cold = |full: &[TransitionFault]| {
        TransitionSim::new(&c, full, TransitionOptions::default())
            .run(&patterns)
            .statuses
    };
    let mut jsonl = open_jsonl(&tel.stats_json)?;
    let outcome = match Probes::pick(&tel, 1) {
        Probes::Null => simulate::<TransitionSim>(&run, options, &mut jsonl, cold)?,
        Probes::Metrics => simulate::<TransitionSim<SimMetrics>>(&run, options, &mut jsonl, cold)?,
        Probes::Trace => simulate::<TransitionSim<TraceProbe>>(&run, options, &mut jsonl, cold)?,
    };
    finish_run(&run, &[outcome], jsonl, TRANSITION.baseline)
}

/// Display name of a gate-level node. Gate-level networks keep node id ==
/// circuit gate index; `explain` and `heatmap` replay through `csim-V`
/// (split lists, no macros) for exactly this reason — macro collapsing
/// renumbers nodes.
fn node_name(c: &Circuit, node: u32) -> &str {
    c.gate(GateId::from_index(node as usize)).name()
}

/// `fsim explain <circuit> <fault-id>`: replay the fault universe through
/// a serial gate-level traced run and print the one fault's recorded
/// lifecycle. Unknown and statically-untestable ids exit with status 2
/// and a `cfs-check`-style diagnostic instead of a timeline.
fn cmd_explain(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let spec = args
        .first()
        .ok_or_else(|| err("explain: missing circuit"))?;
    let id_arg = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| err("explain: missing fault id (fsim explain <circuit> <fault-id>)"))?;
    if let Some(stray) = args.get(2).filter(|a| !a.starts_with("--")) {
        return Err(err(format!(
            "explain: unexpected argument {stray:?} (the circuit and fault id come first)"
        )));
    }
    validate_flags("explain", &args[2..], EXPLAIN_FLAGS)?;
    let id: usize = id_arg.parse().map_err(|_| {
        err(format!(
            "explain: fault id must be a number, got {id_arg:?}"
        ))
    })?;
    let (c, _check_time) = load_circuit_checked(spec, args)?;
    let uncollapsed = has_flag(args, "--uncollapsed");
    let universe = if uncollapsed {
        enumerate_stuck_at(&c)
    } else {
        collapse_stuck_at(&c).representatives
    };
    if id >= universe.len() {
        let kind = if uncollapsed {
            "uncollapsed"
        } else {
            "collapsed"
        };
        return Err(diag(format!(
            "error: E001 [unknown-fault-id] fault {id} is outside the {kind} stuck-at \
             universe of {} (valid ids: 0..{})",
            c.name(),
            universe.len()
        )));
    }
    let fault = universe[id];
    // A statically-untestable fault has no lifecycle to explain; say why
    // up front instead of replaying to an empty timeline.
    let analysis = analyze_circuit(&c);
    let pu = prune_stuck_at(&c, &analysis);
    if let Some(pos) = pu.full.iter().position(|&f| f == fault) {
        if let FaultFate::Pruned(reason) = pu.fate[pos] {
            let why = match reason {
                PruneReason::Unexcitable => {
                    "its site is provably constant at the stuck value, so it can never be excited"
                }
                PruneReason::Unobservable => "no primary output can ever observe its site",
                PruneReason::ConflictUntestable => {
                    "its mandatory assignments contradict under the implication closure"
                }
            };
            let code = match reason {
                PruneReason::ConflictUntestable => "F004 [conflict-untestable-fault]",
                _ => "F002 [statically-untestable-fault]",
            };
            return Err(diag(format!(
                "error: {code} fault {id} ({}): {why}; \
                 no pattern sequence can detect it",
                fault.describe(&c)
            )));
        }
    }
    let mut cfg = TraceConfig::default();
    if let Some(v) = flag_value(args, "--trace-window") {
        cfg.quiescence_window = v
            .parse()
            .map_err(|_| err("--trace-window needs a number (0 disables)"))?;
    }
    let patterns = load_patterns(&c, args, 256)?;
    let mut sim = ConcurrentSim::with_probe(
        &c,
        &universe,
        CsimVariant::V.options(),
        TraceRecorder::new(Instant::now(), cfg),
    );
    for p in &patterns {
        sim.step(p);
    }
    let rec = sim.probe();
    if rec.dropped_events() > 0 {
        eprintln!(
            "fsim: note: trace ring overflowed ({} events dropped); the timeline may be \
             missing early events (replay fewer patterns)",
            rec.dropped_events()
        );
    }
    let timeline = FaultTimeline::collect(rec.events(), id as u32);
    println!("fault {id}: {}", fault.describe(&c));
    println!(
        "  replayed {} patterns through csim-V (gate-level, serial)",
        patterns.len()
    );
    println!();
    const MAX_LINES: usize = 80;
    for e in timeline.events.iter().take(MAX_LINES) {
        match *e {
            TraceEvent::Divergence {
                pattern, node, ts, ..
            } => println!(
                "  pattern {pattern:>6}  +{ts:>9} µs  diverged at {}",
                node_name(&c, node)
            ),
            TraceEvent::Convergence {
                pattern, node, ts, ..
            } => println!(
                "  pattern {pattern:>6}  +{ts:>9} µs  converged at {}",
                node_name(&c, node)
            ),
            TraceEvent::Dropped {
                pattern, node, ts, ..
            } => println!(
                "  pattern {pattern:>6}  +{ts:>9} µs  dropped at {} (detected; element purged)",
                node_name(&c, node)
            ),
            TraceEvent::Detected {
                pattern,
                po_node,
                ts,
                ..
            } => println!(
                "  pattern {pattern:>6}  +{ts:>9} µs  DETECTED at output {}",
                node_name(&c, po_node)
            ),
            TraceEvent::Quiescent {
                since_pattern,
                at_pattern,
                ts,
                ..
            } => println!(
                "  pattern {at_pattern:>6}  +{ts:>9} µs  quiescent since pattern {since_pattern}"
            ),
            _ => {}
        }
    }
    if timeline.events.len() > MAX_LINES {
        println!("  … {} more events", timeline.events.len() - MAX_LINES);
    }
    println!();
    let (div, conv) = timeline.activity_counts();
    if timeline.is_empty() {
        println!(
            "verdict: never excited in {} patterns (no fault effect entered any list)",
            patterns.len()
        );
    } else if let Some((pattern, po, _)) = timeline.detection() {
        println!(
            "verdict: detected at pattern {pattern} at output {} \
             ({div} divergences, {conv} convergences)",
            node_name(&c, po)
        );
    } else {
        match timeline.first_excitation() {
            Some((p0, n0, _)) => println!(
                "verdict: excited but never detected ({div} divergences, {conv} convergences; \
                 first recorded excitation at pattern {p0} at {})",
                node_name(&c, n0)
            ),
            None => println!(
                "verdict: active but never detected \
                 ({div} divergences, {conv} convergences recorded)"
            ),
        }
    }
    Ok(())
}

/// `fsim heatmap <circuit>`: rank nodes by recorded fault-list activity
/// from a serial gate-level traced run — the measured counterpart of the
/// static SCOAP observability weights `--shard-plan weight-aware` uses.
fn cmd_heatmap(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("heatmap", args, HEATMAP_FLAGS)?;
    let spec = args
        .first()
        .ok_or_else(|| err("heatmap: missing circuit"))?;
    let format = flag_value(args, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(err(format!("unknown format {format:?} (text, json)")));
    }
    let top = count_flag(args, "--top")?.unwrap_or(20);
    let (c, _check_time) = load_circuit_checked(spec, args)?;
    let faults = if has_flag(args, "--uncollapsed") {
        enumerate_stuck_at(&c)
    } else {
        collapse_stuck_at(&c).representatives
    };
    let patterns = load_patterns(&c, args, 256)?;
    // The per-node totals come from the recorder's exact counters, which
    // ring overflow cannot touch, so the ring itself can be minimal.
    let cfg = TraceConfig {
        capacity: 1,
        quiescence_window: 0,
    };
    let mut sim = ConcurrentSim::with_probe(
        &c,
        &faults,
        CsimVariant::V.options(),
        TraceRecorder::new(Instant::now(), cfg),
    );
    for p in &patterns {
        sim.step(p);
    }
    let mut heat = Heatmap::new();
    heat.add_recorder(sim.probe());
    let ranked = heat.ranked();
    let shown = ranked.len().min(top);
    if format == "json" {
        let mut out = String::new();
        out.push_str("{\"circuit\":");
        write_json_string(&mut out, c.name());
        out.push_str(&format!(
            ",\"patterns\":{},\"faults\":{},\"active_nodes\":{},\"total_activity\":{},\"nodes\":[",
            patterns.len(),
            faults.len(),
            ranked.len(),
            heat.total()
        ));
        for (i, (node, act)) in ranked.iter().take(top).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"node\":{node},\"name\":"));
            write_json_string(&mut out, node_name(&c, *node));
            out.push_str(&format!(
                ",\"level\":{},\"divergences\":{},\"convergences\":{},\"drops\":{},\"total\":{}}}",
                c.level(GateId::from_index(*node as usize)),
                act.divergences,
                act.convergences,
                act.drops,
                act.total()
            ));
        }
        out.push_str("]}");
        println!("{out}");
        return Ok(());
    }
    println!(
        "fault-list activity of {} ({} patterns, {} faults, {} events at {} active nodes)",
        c.name(),
        patterns.len(),
        faults.len(),
        heat.total(),
        ranked.len()
    );
    println!(
        "  {:<24} {:>5} {:>10} {:>10} {:>8} {:>10}",
        "node", "level", "diverge", "converge", "drops", "total"
    );
    for (node, act) in ranked.iter().take(top) {
        println!(
            "  {:<24} {:>5} {:>10} {:>10} {:>8} {:>10}",
            node_name(&c, *node),
            c.level(GateId::from_index(*node as usize)),
            act.divergences,
            act.convergences,
            act.drops,
            act.total()
        );
    }
    if ranked.len() > shown {
        println!(
            "  … {} more active node(s) (raise --top)",
            ranked.len() - shown
        );
    }
    Ok(())
}

fn cmd_atpg(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("atpg", args, ATPG_FLAGS)?;
    let spec = args.first().ok_or_else(|| err("atpg: missing circuit"))?;
    let c = load_circuit(spec)?;
    let faults = collapse_stuck_at(&c).representatives;
    let options = AtpgOptions {
        max_frames: match flag_value(args, "--max-frames") {
            Some(v) => v.parse().map_err(|_| err("--max-frames needs a number"))?,
            None => 8,
        },
        random_patterns: match flag_value(args, "--random") {
            Some(v) => v.parse().map_err(|_| err("--random needs a number"))?,
            None => 128,
        },
        ..Default::default()
    };
    let outcome = generate_tests(&c, &faults, options);
    println!("{outcome}");
    if let Some(path) = flag_value(args, "--out") {
        let mut text = String::new();
        for p in &outcome.patterns {
            text.push_str(&format_pattern(p));
            text.push('\n');
        }
        fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        println!("wrote {} patterns to {path}", outcome.patterns.len());
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    validate_flags("generate", args, GENERATE_FLAGS)?;
    let name = args.first().ok_or_else(|| err("generate: missing name"))?;
    let c = cfs_netlist::generate::benchmark(name)
        .ok_or_else(|| err(format!("unknown benchmark {name:?}")))?;
    let text = write_bench(&c);
    match flag_value(args, "--out") {
        Some(path) => {
            fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))?;
            println!("wrote {c} to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}
