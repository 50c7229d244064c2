//! `fsim` — command-line concurrent fault simulation for synchronous
//! sequential circuits (Lee & Reddy, DAC 1992).
//!
//! `fsim --help` lists every command with the flags it accepts. It is
//! rendered from the `FLAGS` table the parser reads, so it cannot drift
//! from what the parser accepts; `FLAG_RULES` lists the flag combinations
//! every command refuses before any work starts.
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
    let Some(name) = args.first() else {
        print_usage();
        return Ok(());
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        print_usage();
        return Ok(());
    }
    let &(cmd, synopsis, handler) = COMMANDS
        .iter()
        .find(|(cmd, ..)| cmd == name)
        .ok_or_else(|| err(format!("unknown command {name:?} (try --help)")))?;
    let flags = Flags::parse(cmd, synopsis, &args[1..])?;
    if let Some(refusal) = flags.refusals().next() {
        return Err(err(refusal));
    }
    handler(&flags)
}

type Handler = fn(&Flags<'_>) -> Result<(), Box<dyn std::error::Error>>;

/// Every command: its name, its positionals (which must come first), and
/// its handler.
const COMMANDS: &[(&str, &str, Handler)] = &[
    ("check", "<circuit>", cmd_check),
    ("analyze", "<circuit>", cmd_analyze),
    ("rules", "[CODE]", cmd_rules),
    ("implications", "<circuit> <net>", cmd_implications),
    ("impact", "<base> <edited>", cmd_impact),
    ("stats", "<circuit>", cmd_stats),
    ("sim", "<circuit>", cmd_sim),
    ("transition", "<circuit>", cmd_transition),
    ("explain", "<circuit> <fault-id>", cmd_explain),
    ("heatmap", "<circuit>", cmd_heatmap),
    ("atpg", "<circuit>", cmd_atpg),
    ("generate", "<name>", cmd_generate),
    ("mutate", "<circuit>", cmd_mutate),
];

/// What a flag's value must be. The parse checks it, so no command
/// re-validates a value.
#[derive(Clone, Copy)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// A count of at least 1.
    Count,
    /// Any non-negative number; the hint ends the "needs a number" error.
    Number(&'static str),
    /// A quiescence window in patterns (0 disables): the engines hold it
    /// in a `u32`.
    Window,
    /// A file or directory, shown as the given placeholder in `--help`.
    Path(&'static str),
    /// One of a fixed list, named by the noun in the error.
    OneOf(&'static str, &'static [&'static str]),
}

use Kind::{Count, Number, OneOf, Path, Switch, Window};

impl Kind {
    fn parse<'a>(self, name: &str, v: &'a str) -> Result<Value<'a>, Box<dyn std::error::Error>> {
        match self {
            Switch => unreachable!("switches take no value"),
            Count => match v.parse::<usize>() {
                Ok(0) => Err(err(format!("{name} must be at least 1"))),
                Ok(n) => Ok(Value::Num(n as u64)),
                Err(_) => Err(err(format!("{name} needs a number"))),
            },
            Number(hint) => v
                .parse()
                .map(Value::Num)
                .map_err(|_| err(format!("{name} needs a number{hint}"))),
            Window => v
                .parse::<u32>()
                .map(|w| Value::Num(w.into()))
                .map_err(|_| err(format!("{name} needs a number (0 disables)"))),
            Path(_) => Ok(Value::Text(v)),
            OneOf(_, choices) if choices.contains(&v) => Ok(Value::Text(v)),
            OneOf(noun, choices) => Err(err(format!(
                "unknown {noun} {v:?} ({})",
                choices.join(", ")
            ))),
        }
    }

    /// The value placeholder `--help` shows after the flag name.
    fn metavar(self) -> String {
        match self {
            Switch => String::new(),
            Count | Number(_) => "N".to_owned(),
            Window => "W".to_owned(),
            Path(m) => m.to_owned(),
            OneOf(_, choices) => choices.join("|"),
        }
    }
}

/// Whether a space-separated command list names `cmd`.
fn listed(cmds: &str, cmd: &str) -> bool {
    cmds.split(' ').any(|c| c == cmd)
}

// Command lists several FLAGS and FLAG_RULES rows share.
const RUN: &str = "sim transition";
const REPLAY: &str = "sim transition explain heatmap";
const LEARN: &str = "sim transition analyze";
const SHARD_PLANS: &[&str] = &["round-robin", "contiguous", "level-aware", "weight-aware"];

/// Every flag of every command, one row each: name, value kind, the
/// commands that accept it (space-separated), and its `--help` line. The
/// parser, `fsim --help` and the unknown-flag check all read this table.
#[rustfmt::skip]
const FLAGS: &[(&str, Kind, &str, &str)] = &[
    ("--patterns", Path("FILE"), REPLAY, "read the patterns from FILE, one vector per line"),
    ("--random", Number(""), "sim transition explain heatmap atpg", "simulate N random patterns (default 256)"),
    ("--seed", Number(""), REPLAY, "seed of the --random patterns (default 1)"),
    ("--variant", OneOf("variant", &["base", "v", "m", "mv", "all"]), "sim",
     "concurrent variant (default mv; all compares the four in one table)"),
    ("--simulator", OneOf("simulator", &["csim", "proofs", "serial", "deductive"]), "sim",
     "fault simulator (default csim, the concurrent one)"),
    ("--uncollapsed", Switch, "sim explain heatmap", "simulate every stuck-at fault, not one per class"),
    ("--prune", Switch, RUN, "simulate only faults static analysis cannot prove undetectable"),
    ("--learn", Switch, LEARN, "learn implications: prune conflict-untestable faults (F004) too"),
    ("--learn-frames", Count, "sim transition analyze implications", "time frames to learn over (default 2)"),
    ("--incremental", Switch, RUN, "re-simulate only the faults a netlist edit could affect"),
    ("--baseline-report", Path("FILE"), RUN, "the --baseline-out file --incremental transfers fates from"),
    ("--baseline-out", Path("FILE"), RUN, "record full-universe fates for later --incremental runs"),
    ("--threads", Count, RUN, "fault-shard the concurrent simulator across N workers"),
    ("--shard-plan", OneOf("shard plan", SHARD_PLANS), RUN, "fault partition (default round-robin)"),
    ("--batch-windows", Number(" (0 = one whole-run window)"), RUN,
     "schedule (shard x N-pattern window) tasks on the workers (0 = one whole-run window)"),
    ("--steal", Switch, RUN, "let idle workers steal runnable shards (overshards 2x)"),
    ("--quiesce-window", Window, RUN, "fence nodes idle for more than W patterns out of the sweeps (0 = off)"),
    ("--checkpoint-every", Count, RUN, "snapshot engine state every N patterns (serial runs)"),
    ("--checkpoint-out", Path("DIR"), RUN, "where --checkpoint-every writes ckpt-NNNNNN.bin"),
    ("--resume-from", Path("FILE"), RUN, "restore a checkpoint file and replay only the rest"),
    ("--detections", Path("FILE"), RUN, "write the sorted `pattern fault` detection list"),
    ("--stats", Switch, RUN, "print the metric table (plus phase times and histograms)"),
    ("--stats-json", Path("FILE"), RUN, "write one JSON line per pattern plus a summary record"),
    ("--trace-every", Count, RUN, "print a progress line every N patterns"),
    ("--trace-out", Path("FILE"), RUN, "write a Chrome Trace / Perfetto JSON event trace"),
    ("--trace-capacity", Count, RUN, "per-shard trace ring capacity in events (default 1M)"),
    ("--trace-window", Window, "sim transition explain", "trace quiescence window (default 32; 0 = off)"),
    ("--no-check", Switch, REPLAY, "skip the cfs-check preflight (runs refuse netlists with errors)"),
    ("--paranoid", Switch, RUN, "verify engine invariants after every pattern, even in release"),
    ("--format", OneOf("format", &["text", "json"]), "check analyze rules implications impact heatmap",
     "output format (default text)"),
    ("--top", Count, "heatmap", "show the N most active nodes (default 20)"),
    ("--max-frames", Number(""), "atpg", "time frames to unroll (default 8)"),
    ("--out", Path("FILE"), "atpg generate mutate", "write the result to FILE instead of stdout"),
    ("--edit", OneOf("edit", &["retype", "rewire", "dead-logic"]), "mutate", "the scripted edit to apply"),
    ("--choice", Number(""), "mutate", "which candidate site the edit takes (default 0)"),
];

/// A parsed flag value; the variant follows the flag's [`Kind`].
#[derive(Clone, Copy)]
enum Value<'a> {
    On,
    Num(u64),
    Text(&'a str),
}

/// One command's arguments, parsed once: its positionals and the value
/// of every flag it was given, indexed like [`FLAGS`].
struct Flags<'a> {
    cmd: &'static str,
    positionals: Vec<&'a str>,
    values: Vec<Option<Value<'a>>>,
}

impl<'a> Flags<'a> {
    /// The one pass over a command's arguments. Rejects unknown flags,
    /// missing values, values on switches, values of the wrong kind, and
    /// positionals after the first flag or beyond the synopsis. A flag
    /// given twice keeps its first value.
    fn parse(
        cmd: &'static str,
        synopsis: &str,
        args: &'a [String],
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let max_positionals = synopsis.split_whitespace().count();
        let mut flags = Flags {
            cmd,
            positionals: Vec::new(),
            values: vec![None; FLAGS.len()],
        };
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            i += 1;
            if !arg.starts_with("--") {
                if i > max_positionals {
                    return Err(err(format!(
                        "{cmd}: unexpected argument {arg:?} (positionals must come first)"
                    )));
                }
                flags.positionals.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (arg, None),
            };
            let Some(k) = FLAGS
                .iter()
                .position(|&(n, _, cmds, _)| n == name && listed(cmds, cmd))
            else {
                return Err(err(format!("{cmd}: unknown flag {name} (try --help)")));
            };
            let kind = FLAGS[k].1;
            let value = match (kind, inline) {
                (Switch, None) => Value::On,
                (Switch, Some(_)) => {
                    return Err(err(format!("{cmd}: flag {name} does not take a value")))
                }
                (_, Some(v)) => kind.parse(name, v)?,
                (_, None) => match args.get(i) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        kind.parse(name, v)?
                    }
                    _ => return Err(err(format!("{cmd}: flag {name} needs a value"))),
                },
            };
            flags.values[k].get_or_insert(value);
        }
        Ok(flags)
    }

    /// The `i`-th positional, or `{cmd}: missing {what}`.
    fn arg(&self, i: usize, what: &str) -> Result<&'a str, Box<dyn std::error::Error>> {
        self.positionals
            .get(i)
            .copied()
            .ok_or_else(|| err(format!("{}: missing {what}", self.cmd)))
    }

    fn get(&self, name: &str) -> Option<Value<'a>> {
        let k = FLAGS
            .iter()
            .position(|f| f.0 == name)
            .unwrap_or_else(|| panic!("{name} is not in FLAGS"));
        self.values[k]
    }

    fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn num(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| match v {
            Value::Num(n) => n,
            _ => panic!("{name} takes no number"),
        })
    }

    /// A numeric flag's value as a size, or `default` when absent.
    fn num_or(&self, name: &str, default: usize) -> usize {
        self.num(name).map_or(default, |n| n as usize)
    }

    fn text(&self, name: &str) -> Option<&'a str> {
        self.get(name).map(|v| match v {
            Value::Text(s) => s,
            _ => panic!("{name} takes no text"),
        })
    }

    fn simulator(&self) -> &'a str {
        self.text("--simulator").unwrap_or("csim")
    }

    /// A baseline simulator (PROOFS, serial, deductive) was picked.
    fn baseline(&self) -> bool {
        self.simulator() != "csim"
    }

    /// The run writes or restores checkpoints.
    fn checkpointing(&self) -> bool {
        self.on("--checkpoint-every") || self.on("--resume-from")
    }

    /// `--variant all` on the concurrent simulator: one run per variant.
    fn all_variants(&self) -> bool {
        !self.baseline() && self.text("--variant") == Some("all")
    }

    /// `--learn`'s options; `None` when learning is off.
    fn learn(&self) -> Option<LearnOptions> {
        self.on("--learn").then(|| LearnOptions {
            frames: self.num_or("--learn-frames", cfs_check::DEFAULT_LEARN_FRAMES),
        })
    }

    /// `--patterns FILE`, else `--random N --seed S`.
    fn stimulus(&self) -> Stimulus<'a> {
        match self.text("--patterns") {
            Some(file) => Stimulus::File(file),
            None => Stimulus::Random {
                count: self.num_or("--random", 256),
                seed: self.num("--seed").unwrap_or(1),
            },
        }
    }

    /// The message of every [`FLAG_RULES`] row that fires, in table
    /// order; `run` refuses the first before any work starts.
    fn refusals(&self) -> impl Iterator<Item = String> + '_ {
        FLAG_RULES
            .iter()
            .filter(|&&(cmds, fires, _)| listed(cmds, self.cmd) && fires(self))
            .map(|&(_, _, message)| {
                message
                    .replace("{cmd}", self.cmd)
                    .replace("{sim}", &format!("{:?}", self.simulator()))
            })
    }
}

/// A [`FLAG_RULES`] row: the commands it applies to (space-separated),
/// when it fires, and its message (`{cmd}` and `{sim}` expand to the
/// command and the quoted simulator).
type Rule = (&'static str, fn(&Flags<'_>) -> bool, &'static str);

/// Every refused flag combination, one row each. A refusal exits with
/// status 1.
#[rustfmt::skip]
const FLAG_RULES: &[Rule] = &[
    (LEARN, |f| f.on("--learn-frames") && !f.on("--learn"), "{cmd}: --learn-frames needs --learn"),
    (RUN, |f| f.on("--learn") && !f.on("--prune"), "--learn extends --prune; add --prune"),
    (RUN, |f| f.on("--incremental") && f.on("--prune"),
     "--incremental and --prune both rewrite the simulated universe; pick one"),
    (RUN, |f| f.on("--incremental") && !f.on("--baseline-report"), "--incremental needs --baseline-report FILE"),
    (RUN, |f| f.on("--baseline-report") && !f.on("--incremental"), "--baseline-report needs --incremental"),
    ("sim", |f| f.on("--prune") && f.on("--uncollapsed"),
     "--prune already reports the full uncollapsed universe (pruned faults as untestable); drop --uncollapsed"),
    ("sim", |f| f.on("--incremental") && f.on("--uncollapsed"),
     "--incremental already reports the full uncollapsed universe; drop --uncollapsed"),
    ("sim", |f| f.on("--baseline-out") && !(f.on("--prune") || f.on("--incremental") || f.on("--uncollapsed")),
     "--baseline-out records fates over the full uncollapsed universe; add --uncollapsed \
      (or --prune / --incremental, which already report it)"),
    (REPLAY, |f| f.on("--patterns") && (f.on("--random") || f.on("--seed")),
     "--patterns FILE cannot combine with --random/--seed, which generate the patterns"),
    (RUN, |f| f.on("--trace-capacity") && !f.on("--trace-out"), "--trace-capacity needs --trace-out"),
    (RUN, |f| f.on("--steal") && !f.on("--batch-windows"), "--steal needs --batch-windows"),
    (RUN, |f| f.on("--checkpoint-every") != f.on("--checkpoint-out"),
     "--checkpoint-every and --checkpoint-out go together (cadence and directory)"),
    ("sim", |f| f.baseline() && f.on("--prune"), "--prune needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--incremental"), "--incremental needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.checkpointing(), "checkpointing needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--trace-out"), "--trace-out needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.num_or("--threads", 1) > 1, "--threads needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--batch-windows"), "--batch-windows needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--paranoid"), "--paranoid needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.num_or("--quiesce-window", 0) > 0,
     "--quiesce-window needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--trace-every"), "--trace-every needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--shard-plan"), "--shard-plan needs the concurrent simulator, not {sim}"),
    (RUN, |f| f.checkpointing() && f.num_or("--threads", 1) > 1,
     "checkpointing captures one serial engine; it needs --threads 1"),
    (RUN, |f| f.checkpointing() && f.on("--batch-windows"), "checkpointing cannot combine with --batch-windows"),
    (RUN, |f| f.checkpointing() && f.on("--trace-out"), "checkpointing cannot combine with --trace-out"),
    ("sim", |f| f.all_variants() && f.on("--detections"), "--detections needs a single --variant"),
    ("sim", |f| f.all_variants() && f.on("--baseline-out"), "--baseline-out needs a single --variant"),
    ("sim", |f| f.all_variants() && f.checkpointing(), "checkpointing needs a single --variant"),
    ("sim", |f| f.all_variants() && f.on("--trace-out"), "--trace-out needs a single --variant"),
];

/// Prints every command with the flags it accepts, then one line per
/// flag, all rendered from [`COMMANDS`] and [`FLAGS`].
fn print_usage() {
    const WIDTH: usize = 96;
    let mut out = String::from(
        "fsim — concurrent fault simulation for synchronous sequential circuits\n\nusage:\n",
    );
    for &(cmd, synopsis, _) in COMMANDS {
        let mut line = format!("  fsim {cmd} {synopsis}");
        let indent = line.len();
        for &(name, kind, _, _) in FLAGS.iter().filter(|f| listed(f.2, cmd)) {
            let item = match kind.metavar() {
                m if m.is_empty() => format!(" [{name}]"),
                m => format!(" [{name} {m}]"),
            };
            if line.len() + item.len() > WIDTH {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(indent);
            }
            line.push_str(&item);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(
        "\n<circuit>: a .bench file, or @name for a built-in (@s27, @s298g, …)\n\
         flags take either `--flag value` or `--flag=value`; combinations that\n\
         cannot work (such as --steal without --batch-windows) are refused\n\n",
    );
    for (name, _, _, help) in FLAGS {
        out.push_str(&format!("  {name:<18} {help}\n"));
    }
    eprint!("{out}");
}

/// Where a run's patterns come from.
#[derive(Clone, Copy)]
enum Stimulus<'a> {
    /// `--patterns FILE`.
    File(&'a str),
    /// `--random N --seed S`.
    Random { count: usize, seed: u64 },
}

/// Upper bound on `--threads`: every worker drives at least one shard,
/// and every shard is a full engine, so the count must stay far below
/// what the OS would refuse to spawn.
const MAX_THREADS: usize = 256;

/// Everything a `sim`/`transition` run reads from its flags, built once
/// after [`FLAG_RULES`] passed.
struct RunPlan<'a> {
    stimulus: Stimulus<'a>,
    uncollapsed: bool,
    prune: bool,
    learn: Option<LearnOptions>,
    /// `--incremental`: the `--baseline-report` whose fates transfer.
    incremental: Option<&'a str>,
    simulator: &'a str,
    /// The concurrent variants the run simulates (none on a baseline
    /// simulator).
    variants: Vec<CsimVariant>,
    threads: usize,
    plan: ShardPlan,
    /// `--batch-windows` turns on the two-dimensional scheduler; `None`
    /// keeps the fault-shard-only dispatch.
    batch: Option<BatchOptions>,
    /// `--quiesce-window`: the engine's quiescence-gating window in
    /// patterns (0 = gating off). Applied to every engine the run
    /// builds; detections are bit-identical for every window.
    quiesce_window: u32,
    stats: bool,
    stats_json: Option<&'a str>,
    trace_every: Option<usize>,
    trace_out: Option<&'a str>,
    /// Per-shard event-recorder tuning (`--trace-capacity`,
    /// `--trace-window`).
    trace_cfg: TraceConfig,
    checkpoint_every: Option<usize>,
    checkpoint_out: Option<&'a str>,
    resume_from: Option<&'a str>,
    detections: Option<&'a str>,
    baseline_out: Option<&'a str>,
    no_check: bool,
    paranoid: bool,
}

impl<'a> RunPlan<'a> {
    fn new(f: &Flags<'a>) -> Result<Self, Box<dyn std::error::Error>> {
        let threads = f.num_or("--threads", 1);
        if threads > MAX_THREADS {
            return Err(err(format!("--threads must be at most {MAX_THREADS}")));
        }
        // One quiescence-window source of truth: the engine gate
        // (`--quiesce-window`) and the trace recorder (`--trace-window`)
        // must agree. With only the gate flag set (and nonzero), the
        // recorder follows it; giving both with different values is an
        // error rather than a silent disagreement.
        let gate = f.num("--quiesce-window");
        let mut trace_cfg = TraceConfig::default();
        match (f.num("--trace-window"), gate) {
            (Some(w), Some(g)) if w != g => {
                return Err(err(format!(
                    "--trace-window {w} disagrees with --quiesce-window {g}; \
                     give one flag, or the same value to both"
                )))
            }
            (Some(w), _) => trace_cfg.quiescence_window = w as u32,
            (None, Some(g)) if g > 0 => trace_cfg.quiescence_window = g as u32,
            _ => {}
        }
        trace_cfg.capacity = f.num_or("--trace-capacity", trace_cfg.capacity);
        let variants = match f.text("--variant") {
            _ if f.baseline() => Vec::new(),
            Some("all") => CsimVariant::ALL.to_vec(),
            Some("base") => vec![CsimVariant::Base],
            Some("v") => vec![CsimVariant::V],
            Some("m") => vec![CsimVariant::M],
            _ => vec![CsimVariant::Mv],
        };
        Ok(RunPlan {
            stimulus: f.stimulus(),
            uncollapsed: f.on("--uncollapsed"),
            prune: f.on("--prune"),
            learn: f.learn(),
            incremental: f.text("--baseline-report"),
            simulator: f.simulator(),
            variants,
            threads,
            plan: f.text("--shard-plan").map_or(ShardPlan::RoundRobin, |p| {
                ShardPlan::parse(p).expect("FLAGS lists only shard plans")
            }),
            batch: f.num("--batch-windows").map(|w| BatchOptions {
                window: w as usize,
                steal: f.on("--steal"),
                ..BatchOptions::default()
            }),
            quiesce_window: gate.unwrap_or(0) as u32,
            stats: f.on("--stats"),
            stats_json: f.text("--stats-json"),
            trace_every: f.num("--trace-every").map(|n| n as usize),
            trace_out: f.text("--trace-out"),
            trace_cfg,
            checkpoint_every: f.num("--checkpoint-every").map(|n| n as usize),
            checkpoint_out: f.text("--checkpoint-out"),
            resume_from: f.text("--resume-from"),
            detections: f.text("--detections"),
            baseline_out: f.text("--baseline-out"),
            no_check: f.on("--no-check"),
            paranoid: f.on("--paranoid"),
        })
    }

    /// Whether the run needs the recording probe attached at all.
    fn telemetry(&self) -> bool {
        self.stats
            || self.stats_json.is_some()
            || self.trace_every.is_some()
            || self.trace_out.is_some()
    }

    /// Fault-shard count: `--steal` overshards 2× so idle workers have
    /// spare runnable shards to take; otherwise one shard per worker.
    fn shards(&self) -> usize {
        match &self.batch {
            Some(b) if b.steal => self.threads * 2,
            _ => self.threads,
        }
    }

    /// Whether the run writes or restores checkpoints at all.
    fn checkpointing(&self) -> bool {
        self.checkpoint_every.is_some() || self.resume_from.is_some()
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
    no_check: bool,
) -> Result<(Circuit, Duration), Box<dyn std::error::Error>> {
    if no_check {
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

fn cmd_check(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let report = check_spec(spec)?;
    if f.text("--format") == Some("json") {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
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
fn cmd_analyze(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    // Files are analyzed with provenance so findings carry .bench spans.
    let (c, prov) = load_circuit_with_provenance(f.arg(0, "circuit")?)?;
    let analysis = analyze_circuit(&c);
    let mut stuck = prune_stuck_at(&c, &analysis);
    let mut transition = prune_transition(&c, &analysis);
    // With --learn the reported universes are the learned ones: the F004
    // fates flow into the findings below exactly as the base prunes do.
    let learned = f.learn().map(|options| {
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
    if f.text("--format") == Some("json") {
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
fn cmd_rules(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
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
    let rows: Vec<_> = match f.positionals.first() {
        None => rows,
        Some(wanted) => {
            let hits: Vec<_> = rows
                .into_iter()
                .filter(|(code, slug, ..)| code == wanted || slug == wanted)
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
    if f.text("--format") == Some("json") {
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
fn cmd_implications(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let net_name = f.arg(1, "net name (fsim implications <circuit> <net>)")?;
    let frames = f.num_or("--learn-frames", cfs_check::DEFAULT_LEARN_FRAMES);
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
    if f.text("--format") == Some("json") {
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
fn cmd_impact(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let base_spec = f.arg(0, "circuits (fsim impact <base> <edited>)")?;
    let edited_spec = f.arg(1, "edited circuit (fsim impact <base> <edited>)")?;
    let (base, base_prov) = load_circuit_with_provenance(base_spec)?;
    let (edited, edited_prov) = load_circuit_with_provenance(edited_spec)?;
    let diff = diff_netlists(&base, &edited, base_prov.as_ref(), edited_prov.as_ref());
    let analysis = impact_analysis(&base, &edited, diff);
    let stuck = classify_stuck_at(&base, &edited, &analysis);
    let transition = classify_transition(&base, &edited, &analysis);
    let mut report = cfs_check::Report::new(edited.name());
    impact_findings(&analysis, &mut report);
    if f.text("--format") == Some("json") {
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
fn cmd_mutate(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let edit = f
        .text("--edit")
        .ok_or_else(|| err("mutate: missing --edit (retype, rewire, dead-logic)"))?;
    let edit = BenchEdit::parse(edit).expect("FLAGS lists only edits");
    let choice = f.num_or("--choice", 0);
    let c = load_circuit(spec)?;
    let candidates = edit_candidates(&c, edit);
    let applied = apply_edit(&c, edit, choice)?;
    if let Some(path) = f.text("--out") {
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
    stimulus: Stimulus<'_>,
) -> Result<Vec<Vec<Logic>>, Box<dyn std::error::Error>> {
    let file = match stimulus {
        Stimulus::Random { count, seed } => return Ok(random_patterns(circuit, count, seed)),
        Stimulus::File(file) => file,
    };
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
    Ok(patterns)
}

fn cmd_stats(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
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

fn open_jsonl(path: Option<&str>) -> Result<Option<JsonlFile>, Box<dyn std::error::Error>> {
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
    path: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    if let (Some(mut w), Some(p)) = (jsonl, path) {
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
    fn pick(plan: &RunPlan<'_>, variants: usize) -> Probes {
        if plan.trace_out.is_some() {
            Probes::Trace
        } else if plan.telemetry() || variants > 1 {
            Probes::Metrics
        } else {
            Probes::Null
        }
    }
}

/// One `sim`/`transition` run's inputs, shared by every machine it drives.
struct Run<'a, F> {
    c: &'a Circuit,
    patterns: &'a [Vec<Logic>],
    universe: &'a Universe<F>,
    plan: &'a RunPlan<'a>,
    /// Wall time the `cfs-check` preflight took, folded into the phase
    /// table of every snapshot the run emits.
    check_time: Duration,
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
    plan: &'a RunPlan<'a>,
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
        let (Some(every), Some(dir)) = (self.plan.checkpoint_every, self.plan.checkpoint_out)
        else {
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
    let (c, patterns, universe, plan) = (run.c, run.patterns, run.universe, run.plan);
    let exp = universe.expansion();
    let epoch = Instant::now();
    let mut sim = ShardedSim::<M>::with_probes_sharded(
        c,
        &universe.faults,
        options,
        plan.threads,
        plan.shards(),
        plan.plan,
        universe.keys.as_deref(),
        |_| M::Probe::attach(epoch, plan.trace_cfg),
    );
    if plan.paranoid {
        sim.set_paranoid(true);
    }
    let start_at = match plan.resume_from {
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
    let mut progress = plan.trace_every.map(|every| Progress {
        every,
        first: start_at,
        cursor: start_at,
        detected: sim.detected() as u64,
        total: universe.faults.len(),
    });
    let mut ckpt = Checkpointing {
        plan,
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
    let mut report = match &plan.batch {
        Some(b) => sim.run_batched_with(patterns, b, after),
        None => sim.run_with(&patterns[start_at..], after),
    };
    report.patterns = patterns.len();
    if let Some(e) = ckpt.failed {
        return Err(e);
    }
    if let Some(dir) = plan.checkpoint_out {
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
    verify_incremental(c.name(), exp, plan.paranoid, &report.statuses, cold)?;
    let shard_metrics = || sim.shard_probes().filter_map(|(p, _)| p.metrics());
    let recorders = || sim.shard_probes().filter_map(|(p, _)| p.recorder());
    let snap = if shard_metrics().next().is_some() {
        let mut snap = sim.snapshot_by(|p| p.metrics().expect("every shard records"));
        // Phase spans nest, so the wall clock is the honest total.
        snap.cpu_seconds = report.cpu.as_secs_f64();
        snap.phases.add(Phase::Check, run.check_time);
        if plan.checkpointing() {
            snap.phases.add(Phase::Checkpoint, ckpt.time);
        }
        exp.stamp(&mut snap);
        snap.trace_events = recorders().map(TraceRecorder::recorded_events).sum();
        snap.trace_dropped = recorders().map(TraceRecorder::dropped_events).sum();
        if plan.stats {
            // Batched runs only: plain `--threads N` output stays what it
            // always was.
            if let (Some(_), Some(st)) = (&plan.batch, sim.sched_stats()) {
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
                Some(m) if plan.threads == 1 && plan.batch.is_none() => emit_jsonl(w, m, &snap)?,
                _ => w
                    .write_summary(&snap)
                    .map_err(|e| err(format!("cannot write telemetry: {e}")))?,
            }
        }
        Some(snap)
    } else {
        None
    };
    let trace = plan.trace_out.map(|_| TraceDoc {
        shards: sim
            .shard_probes()
            .filter_map(|(p, map)| Some((p.recorder()?.events().copied().collect(), map.to_vec())))
            .collect(),
        // Worker tracks only for batched runs: the plain sharded document
        // keeps its one-track-per-shard shape.
        sched: plan
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
    if run.plan.stats || outcomes.len() > 1 {
        println!();
        print!("{}", render_summary_table(&snaps));
    }
    close_jsonl(jsonl, run.plan.stats_json)?;
    let Some(last) = outcomes.last() else {
        return Ok(());
    };
    if let Some(path) = run.plan.detections {
        write_detections(path, &last.report.statuses)?;
    }
    if let Some(path) = run.plan.baseline_out {
        write_baseline(
            path,
            model,
            universe,
            run.c,
            run.patterns,
            &last.report.statuses,
        )?;
    }
    if let (Some(path), Some(doc)) = (run.plan.trace_out, &last.trace) {
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

/// The shared `sim`/`transition` preparation: `--prune` (with `--learn`),
/// `--incremental`, and the weight-aware plan's keys, over the model's
/// `full` default universe.
fn prepare_universe<F: Copy>(
    c: &Circuit,
    plan: &RunPlan<'_>,
    patterns: &[Vec<Logic>],
    hooks: &ModelHooks<F>,
    full: impl FnOnce(&Circuit) -> Vec<F>,
) -> Result<Universe<F>, Box<dyn std::error::Error>> {
    let weighted = plan.plan == ShardPlan::WeightAware && plan.threads > 1;
    // The weight-aware plan and --prune share one static analysis pass.
    let analysis = (plan.prune || weighted).then(|| analyze_circuit(c));
    let pruned = match &analysis {
        Some(a) if plan.prune => Some(match plan.learn {
            Some(options) => (hooks.prune_learned)(c, a, &ImplicationGraph::build(c, a, options)),
            None => (hooks.prune)(c, a),
        }),
        _ => None,
    };
    let incr = match plan.incremental {
        Some(path) => {
            let (model, universe) = hooks.baseline;
            let baseline = load_baseline(path, model, universe)?;
            Some(prepare_incremental(c, baseline, patterns, hooks.classify)?)
        }
        None => None,
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

fn cmd_sim(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let plan = RunPlan::new(f)?;
    let (c, check_time) = load_circuit_checked(spec, plan.no_check)?;
    let patterns = load_patterns(&c, plan.stimulus)?;
    let universe = prepare_universe(&c, &plan, &patterns, &STUCK, |c| {
        if plan.uncollapsed {
            enumerate_stuck_at(c)
        } else {
            collapse_stuck_at(c).representatives
        }
    })?;
    let run = Run {
        c: &c,
        patterns: &patterns,
        universe: &universe,
        plan: &plan,
        check_time,
    };
    let mut jsonl = open_jsonl(plan.stats_json)?;
    if plan.simulator == "csim" {
        let probes = Probes::pick(&plan, plan.variants.len());
        let mut outcomes = Vec::with_capacity(plan.variants.len());
        for &variant in &plan.variants {
            let options = CsimOptions {
                quiesce_window: plan.quiesce_window,
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
    let report = match plan.simulator {
        "proofs" => ProofsSim::new(&c, faults).run(&patterns),
        "serial" => SerialSim::new(&c, faults).run(&patterns),
        "deductive" => {
            let reset = vec![Logic::Zero; c.num_dffs()];
            DeductiveSim::new(&c, faults, reset).run(&patterns)?
        }
        other => unreachable!("FLAGS lists no simulator {other:?}"),
    };
    print_report(&report);
    // The baseline simulators report only run totals: a headline-only
    // snapshot through the same table and JSON path.
    let snap = plan.telemetry().then(|| {
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

fn cmd_transition(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let plan = RunPlan::new(f)?;
    let (c, check_time) = load_circuit_checked(spec, plan.no_check)?;
    let patterns = load_patterns(&c, plan.stimulus)?;
    let universe = prepare_universe(&c, &plan, &patterns, &TRANSITION, enumerate_transition)?;
    let run = Run {
        c: &c,
        patterns: &patterns,
        universe: &universe,
        plan: &plan,
        check_time,
    };
    let options = TransitionOptions {
        quiesce_window: plan.quiesce_window,
        ..TransitionOptions::default()
    };
    let cold = |full: &[TransitionFault]| {
        TransitionSim::new(&c, full, TransitionOptions::default())
            .run(&patterns)
            .statuses
    };
    let mut jsonl = open_jsonl(plan.stats_json)?;
    let outcome = match Probes::pick(&plan, 1) {
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
fn cmd_explain(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let id_arg = f.arg(1, "fault id (fsim explain <circuit> <fault-id>)")?;
    let id: usize = id_arg.parse().map_err(|_| {
        err(format!(
            "explain: fault id must be a number, got {id_arg:?}"
        ))
    })?;
    let (c, _check_time) = load_circuit_checked(spec, f.on("--no-check"))?;
    let uncollapsed = f.on("--uncollapsed");
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
    if let Some(w) = f.num("--trace-window") {
        cfg.quiescence_window = w as u32;
    }
    let patterns = load_patterns(&c, f.stimulus())?;
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
fn cmd_heatmap(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let top = f.num_or("--top", 20);
    let (c, _check_time) = load_circuit_checked(spec, f.on("--no-check"))?;
    let faults = if f.on("--uncollapsed") {
        enumerate_stuck_at(&c)
    } else {
        collapse_stuck_at(&c).representatives
    };
    let patterns = load_patterns(&c, f.stimulus())?;
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
    if f.text("--format") == Some("json") {
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

fn cmd_atpg(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let c = load_circuit(spec)?;
    let faults = collapse_stuck_at(&c).representatives;
    let options = AtpgOptions {
        max_frames: f.num_or("--max-frames", 8),
        random_patterns: f.num_or("--random", 128),
        ..Default::default()
    };
    let outcome = generate_tests(&c, &faults, options);
    println!("{outcome}");
    if let Some(path) = f.text("--out") {
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

fn cmd_generate(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let name = f.arg(0, "name")?;
    let c = cfs_netlist::generate::benchmark(name)
        .ok_or_else(|| err(format!("unknown benchmark {name:?}")))?;
    let text = write_bench(&c);
    match f.text("--out") {
        Some(path) => {
            fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))?;
            println!("wrote {c} to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse<'a>(cmd: &'static str, args: &'a [String]) -> Flags<'a> {
        let &(_, synopsis, _) = COMMANDS.iter().find(|c| c.0 == cmd).expect("a command");
        Flags::parse(cmd, synopsis, args).unwrap_or_else(|e| panic!("{cmd} {args:?}: {e}"))
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// The smallest argv that makes each [`FLAG_RULES`] row fire, in table
    /// order. Rows that name `{sim}` pick `--simulator proofs`.
    const TRIGGERS: &[&str] = &[
        "--learn-frames 3",
        "--learn",
        "--incremental --prune --baseline-report b.json",
        "--incremental",
        "--baseline-report b.json",
        "--prune --uncollapsed",
        "--incremental --baseline-report b.json --uncollapsed",
        "--baseline-out b.json",
        "--patterns p.txt --random 4",
        "--trace-capacity 64",
        "--steal",
        "--checkpoint-every 4",
        "--simulator proofs --prune",
        "--simulator proofs --incremental --baseline-report b.json",
        "--simulator proofs --resume-from c.bin",
        "--simulator proofs --trace-out t.json",
        "--simulator proofs --threads 2",
        "--simulator proofs --batch-windows 8",
        "--simulator proofs --paranoid",
        "--simulator proofs --quiesce-window 2",
        "--simulator proofs --trace-every 4",
        "--simulator proofs --shard-plan contiguous",
        "--threads 2 --resume-from c.bin",
        "--batch-windows 8 --resume-from c.bin",
        "--trace-out t.json --resume-from c.bin",
        "--variant all --detections d.txt",
        "--variant all --uncollapsed --baseline-out b.json",
        "--variant all --resume-from c.bin",
        "--variant all --trace-out t.json",
    ];

    #[test]
    fn every_flag_rule_fires_alone_on_its_trigger() {
        assert_eq!(TRIGGERS.len(), FLAG_RULES.len(), "one trigger per row");
        for (&(cmds, _, message), trigger) in FLAG_RULES.iter().zip(TRIGGERS) {
            for cmd in cmds.split(' ') {
                let args = argv(trigger);
                let expected = message.replace("{cmd}", cmd).replace("{sim}", "\"proofs\"");
                let fired: Vec<String> = parse(cmd, &args).refusals().collect();
                assert_eq!(fired, [expected], "{cmd} {trigger}");
            }
        }
    }

    #[test]
    fn plain_runs_trip_no_rule() {
        for &(cmd, ..) in COMMANDS {
            assert_eq!(parse(cmd, &[]).refusals().count(), 0, "{cmd}");
        }
        let args = argv("--prune --learn --learn-frames 3 --threads 2 --batch-windows 8 --steal");
        assert_eq!(parse("transition", &args).refusals().count(), 0);
    }

    #[test]
    fn tables_name_real_commands_and_parseable_choices() {
        let commands = FLAGS
            .iter()
            .map(|f| f.2)
            .chain(FLAG_RULES.iter().map(|r| r.0));
        for cmds in commands {
            for cmd in cmds.split(' ') {
                assert!(COMMANDS.iter().any(|c| c.0 == cmd), "no command {cmd:?}");
            }
        }
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(FLAGS[..i].iter().all(|g| g.0 != f.0), "{} twice", f.0);
        }
        for plan in SHARD_PLANS {
            assert!(ShardPlan::parse(plan).is_some(), "{plan}");
        }
        let Some((_, OneOf(_, edits), ..)) = FLAGS.iter().find(|f| f.0 == "--edit") else {
            panic!("--edit lists its edits");
        };
        for edit in *edits {
            assert!(BenchEdit::parse(edit).is_some(), "{edit}");
        }
    }

    #[test]
    fn parse_rejects_malformed_arguments() {
        let reject = |cmd: &'static str, line: &str| -> String {
            let &(_, synopsis, _) = COMMANDS.iter().find(|c| c.0 == cmd).expect("a command");
            match Flags::parse(cmd, synopsis, &argv(line)) {
                Ok(_) => panic!("{cmd} {line} parsed"),
                Err(e) => e.to_string(),
            }
        };
        let cases = [
            ("impact", "a b c", "unexpected argument \"c\""),
            ("sim", "--stats @s27", "unexpected argument \"@s27\""),
            ("transition", "@s27 --variant mv", "unknown flag --variant"),
            ("sim", "@s27 --random", "flag --random needs a value"),
            (
                "sim",
                "@s27 --random --stats",
                "flag --random needs a value",
            ),
            (
                "sim",
                "@s27 --stats=1",
                "flag --stats does not take a value",
            ),
            ("sim", "@s27 --threads 0", "--threads must be at least 1"),
            ("sim", "@s27 --seed=x", "--seed needs a number"),
            (
                "sim",
                "@s27 --quiesce-window 5000000000",
                "needs a number (0 disables)",
            ),
            ("sim", "@s27 --shard-plan rr", "unknown shard plan \"rr\""),
            (
                "heatmap",
                "@s27 --format xml",
                "unknown format \"xml\" (text, json)",
            ),
        ];
        for (cmd, line, needle) in cases {
            let e = reject(cmd, line);
            assert!(e.contains(needle), "{cmd} {line}: {e}");
        }
        let args = argv("@s27 --random=5 --random 9 --patterns=a=b.txt");
        let flags = parse("sim", &args);
        assert_eq!(flags.positionals, ["@s27"]);
        assert_eq!(flags.num("--random"), Some(5), "the first value wins");
        assert_eq!(flags.text("--patterns"), Some("a=b.txt"));
    }
}
