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
//! threads, dealing the faults round-robin (never into more shards than
//! there are faults); results are bit-identical for every thread count.
//! `--detections FILE` writes the deterministic detection list — one
//! `pattern fault` line per detected fault, sorted by pattern then fault
//! index — which is the artifact to diff across thread counts.
//!
//! Every run with more than one shard splits the pattern sequence into
//! windows and runs (shard × window) tasks under the work-stealing
//! scheduler, every shard reading one shared good machine; a shard's
//! windows stay in order because the shard engine carries the sequential
//! DFF state across the boundary. `--batch-windows W` sets the window
//! (default 128 patterns, `0` = one whole-run window). `--steal` lets an
//! idle worker run another worker's runnable shard; the run still deals
//! one shard per worker. Both need `--threads 2` or more. Detections
//! remain bit-identical to the serial simulator for every window size,
//! thread count, and steal schedule.
//!
//! `fsim check` runs every `cfs-check` rule and prints the diagnostics
//! (stable rule codes, severities, `.bench` line spans; JSON under
//! `--format json`), exiting nonzero on any error-severity finding. Every
//! other command reads a file through the rules over the read and refuses
//! one with errors (exit 1). The fault-model self-checks run with the
//! engine's per-pattern invariant verifier: in debug builds, and in
//! release under `--paranoid`.
//!
//! `fsim analyze` runs the fault-universe analyses — ternary constant
//! propagation, structural observability, fault dominance — and reports
//! how far they shrink the stuck-at and transition universes.
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
//! `--checkpoint-every K --checkpoint-out DIR` snapshots the complete
//! engine state (flip-flop values, fault lists, statuses, scheduler
//! frontier, counters) every `K` patterns into
//! `DIR/ckpt-NNNNNN.bin`; `--resume-from FILE` restores one such
//! snapshot and replays only the remaining patterns, producing the same
//! report as the uninterrupted run. Checkpointing captures one serial
//! engine, so it needs one shard (`--threads 1`), a single `--variant`,
//! and no `--trace-out`.
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
//! drops).

use std::fs;
use std::io;
use std::process::ExitCode;
use std::time::Instant;

use cfs_atpg::{generate_tests, random_patterns, AtpgOptions};
use cfs_check::{
    analysis_findings, analyze_circuit, classify_stuck_at, classify_transition, diff_netlists,
    impact_analysis, impact_findings, learn_findings, prune_stuck_at, prune_stuck_at_learned,
    prune_transition, prune_transition_learned, EditKind, ImplicationGraph, LearnOptions, RuleCode,
    Severity,
};
use cfs_cli::{
    diag, err, finish_run, open_jsonl, prepare_universe, simulate_baseline, simulate_stuck,
    simulate_transition, Baseline, DiagnosticError, JsonlFile, ModelHooks, Outcome, Probes, Run,
    RunPlan, STUCK, TRANSITION,
};
use cfs_core::{BatchOptions, Checkpoint, ConcurrentSim, CsimOptions, CsimVariant, DEFAULT_WINDOW};
use cfs_faults::{
    collapse_stuck_at, dominance_collapse, enumerate_stuck_at, enumerate_transition, FaultFate,
    PruneReason, StuckAt,
};
use cfs_logic::{format_pattern, parse_pattern, Logic};
use cfs_netlist::{
    apply_edit, edit_candidates, extract_macros, write_bench, BenchEdit, BenchProvenance, Circuit,
    GateId,
};
use cfs_telemetry::write_json_string;
use cfs_trace::{FaultTimeline, Heatmap, TraceConfig, TraceEvent, TraceRecorder};

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
    /// A count from 1 to the bound: the flag sizes a run's time or
    /// memory, so a value the run could not finish is refused up front.
    CountTo(usize),
    /// Any non-negative number; the hint ends the "needs a number" error.
    Number(&'static str),
    /// The trace recorder's quiescence window in patterns (0 disables):
    /// the recorder holds it in a `u32`.
    Window,
    /// A file or directory, shown as the given placeholder in `--help`.
    Path(&'static str),
    /// One of a fixed list, named by the noun in the error.
    OneOf(&'static str, &'static [&'static str]),
}

use Kind::{Count, CountTo, Number, OneOf, Path, Switch, Window};

impl Kind {
    fn parse<'a>(self, name: &str, v: &'a str) -> Result<Value<'a>, Box<dyn std::error::Error>> {
        match self {
            Switch => unreachable!("switches take no value"),
            Count => CountTo(usize::MAX).parse(name, v),
            CountTo(max) => match v.parse::<usize>() {
                Ok(0) => Err(err(format!("{name} must be at least 1"))),
                Ok(n) if n > max => Err(err(format!("{name} must be at most {max}"))),
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
            Count | CountTo(_) | Number(_) => "N".to_owned(),
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

/// Upper bound on `--threads`: every worker drives at least one shard,
/// and every shard is a full engine, so the count must stay far below
/// what the OS would refuse to spawn.
const MAX_THREADS: usize = 256;

/// Upper bound on `--learn-frames`. Learning time grows with the window
/// depth; `fsim analyze <circuit> --learn --learn-frames N` on a 2-CPU
/// x86-64 host, release build:
///
/// | frames | s298g  | s1238g | s5378g |
/// |-------:|-------:|-------:|-------:|
/// |      2 | 0.02 s | 0.26 s | 1.4 s  |
/// |     16 | 0.06 s | 1.3 s  | 6.7 s  |
/// |     32 | 0.11 s | 2.9 s  | 13.3 s |
/// |     64 | 0.28 s | 6.2 s  | 30.9 s |
/// |    128 | 0.67 s | 14.1 s |        |
/// |    256 | 2.2 s  |        |        |
///
/// 64 is 32× the default, and keeps every benchmark up to s5378g within
/// a minute.
const MAX_LEARN_FRAMES: usize = 64;

/// Upper bound on `fsim atpg --max-frames`. Every fault the random phase
/// leaves is targeted over windows of up to this many frames, so time
/// grows faster than the depth; `fsim atpg <circuit> --max-frames N`,
/// same host (over 90 s: stopped):
///
/// | frames | s298g  | s344g  | s386g  |
/// |-------:|-------:|-------:|-------:|
/// |      8 | 2.1 s  | 9.1 s  | 6.1 s  |
/// |     16 | 6.3 s  |        |        |
/// |     32 | 18.7 s | 59.1 s | 43.9 s |
/// |     64 | 72.8 s | > 90 s | > 90 s |
/// |    128 | > 90 s |        |        |
///
/// 32 is 4× the default, and keeps all three within about a minute.
const MAX_ATPG_FRAMES: usize = 32;

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
    ("--learn-frames", CountTo(MAX_LEARN_FRAMES), "sim transition analyze implications",
     "time frames to learn over (default 2)"),
    ("--incremental", Switch, RUN, "re-simulate only the faults a netlist edit could affect"),
    ("--baseline-report", Path("FILE"), RUN, "the --baseline-out file --incremental transfers fates from"),
    ("--baseline-out", Path("FILE"), RUN, "record full-universe fates for later --incremental runs"),
    ("--threads", CountTo(MAX_THREADS), RUN, "fault-shard the concurrent simulator across N workers"),
    ("--batch-windows", Number(" (0 = one whole-run window)"), RUN,
     "patterns per (shard x window) task (default 128; 0 = one whole-run window)"),
    ("--steal", Switch, RUN, "let an idle worker run another worker's runnable shard"),
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
    ("--paranoid", Switch, RUN, "verify engine invariants after every pattern, even in release"),
    ("--format", OneOf("format", &["text", "json"]), "check analyze rules implications impact heatmap",
     "output format (default text)"),
    ("--top", Count, "heatmap", "show the N most active nodes (default 20)"),
    ("--max-frames", CountTo(MAX_ATPG_FRAMES), "atpg", "time frames to unroll (default 8)"),
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

    /// The concurrent variants `--variant` picks (default mv).
    fn variants(&self) -> Vec<CsimVariant> {
        match self.text("--variant") {
            Some("all") => CsimVariant::ALL.to_vec(),
            Some("base") => vec![CsimVariant::Base],
            Some("v") => vec![CsimVariant::V],
            Some("m") => vec![CsimVariant::M],
            _ => vec![CsimVariant::Mv],
        }
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
    (RUN, |f| f.on("--checkpoint-every") != f.on("--checkpoint-out"),
     "--checkpoint-every and --checkpoint-out go together (cadence and directory)"),
    ("sim", |f| f.baseline() && f.on("--prune"), "--prune needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--incremental"), "--incremental needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.checkpointing(), "checkpointing needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--trace-out"), "--trace-out needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.num_or("--threads", 1) > 1, "--threads needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--batch-windows"), "--batch-windows needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--steal"), "--steal needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--paranoid"), "--paranoid needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--trace-every"), "--trace-every needs the concurrent simulator, not {sim}"),
    ("sim", |f| f.baseline() && f.on("--variant"), "--variant needs the concurrent simulator, not {sim}"),
    (RUN, |f| (f.on("--batch-windows") || f.on("--steal")) && !f.baseline() && f.num_or("--threads", 1) == 1,
     "--batch-windows and --steal schedule shards across workers; they need --threads 2 or more"),
    (RUN, |f| f.checkpointing() && f.num_or("--threads", 1) > 1,
     "checkpointing captures one serial engine; it needs --threads 1"),
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
         cannot work (such as --learn without --prune) are refused\n\n",
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

/// The run driver's [`RunPlan`] from a `sim`/`transition` command line,
/// built once after [`FLAG_RULES`] passed.
fn run_plan<'a>(f: &Flags<'a>) -> RunPlan<'a> {
    let mut trace_cfg = TraceConfig::default();
    if let Some(w) = f.num("--trace-window") {
        trace_cfg.quiescence_window = w as u32;
    }
    trace_cfg.capacity = f.num_or("--trace-capacity", trace_cfg.capacity);
    RunPlan {
        prune: f.on("--prune"),
        learn: f.learn(),
        threads: f.num_or("--threads", 1),
        batch: BatchOptions {
            window: f.num_or("--batch-windows", DEFAULT_WINDOW),
            steal: f.on("--steal"),
        },
        stats: f.on("--stats"),
        stats_json: f.text("--stats-json"),
        trace_every: f.num("--trace-every").map(|n| n as usize),
        trace_out: f.text("--trace-out"),
        trace_cfg,
        checkpoint_every: f.num("--checkpoint-every").map(|n| n as usize),
        checkpoint_out: f.text("--checkpoint-out"),
        detections: f.text("--detections"),
        baseline_out: f.text("--baseline-out"),
        paranoid: f.on("--paranoid"),
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

/// A built-in circuit: `s27`, or a generated benchmark such as `s298g`.
fn builtin(name: &str) -> Result<Circuit, Box<dyn std::error::Error>> {
    if name == "s27" {
        return Ok(cfs_netlist::data::s27());
    }
    cfs_netlist::generate::benchmark(name)
        .ok_or_else(|| err(format!("unknown built-in circuit {name:?}")))
}

fn read_text(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))
}

/// Display name of a circuit file: its stem.
fn circuit_name_of(path: &str) -> &str {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit")
}

/// The circuit front end of every command but `check`: generates a
/// built-in, or reads a file once through the rules over the read
/// ([`cfs_check::check_and_parse_bench`]), keeping its line provenance.
/// In debug builds and under `--paranoid` the fault-model rules run too.
/// Any error prints the report to stderr and refuses the circuit.
fn load_circuit(
    spec: &str,
    paranoid: bool,
) -> Result<(Circuit, Option<BenchProvenance>), Box<dyn std::error::Error>> {
    let (mut report, built) = match spec.strip_prefix('@') {
        Some(name) => (cfs_check::Report::new(name), Some((builtin(name)?, None))),
        None => {
            let text = read_text(spec)?;
            let (report, built) = cfs_check::check_and_parse_bench(circuit_name_of(spec), &text);
            (report, built.map(|(circuit, prov)| (circuit, Some(prov))))
        }
    };
    if let Some((circuit, prov)) = &built {
        if cfg!(debug_assertions) || paranoid {
            cfs_check::check_models(circuit, prov.as_ref(), &mut report);
        }
    }
    match built {
        Some(loaded) if !report.has_errors() => Ok(loaded),
        _ => {
            eprint!("{}", report.render_text());
            Err(check_errors(spec, &report))
        }
    }
}

/// `{spec}: N error(s)`, the last line of a circuit with check errors.
fn check_errors(spec: &str, report: &cfs_check::Report) -> Box<dyn std::error::Error> {
    let errors = report.count(Severity::Error);
    err(format!("{spec}: {errors} error(s)"))
}

/// `fsim check`: every rule, over the file as written or over a
/// built-in's canonical serialization.
fn cmd_check(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let report = match spec.strip_prefix('@') {
        Some(name) => cfs_check::check_circuit(&builtin(name)?),
        None => cfs_check::check_bench_source(circuit_name_of(spec), &read_text(spec)?),
    };
    if f.text("--format") == Some("json") {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.has_errors() {
        return Err(check_errors(spec, &report));
    }
    Ok(())
}

/// `fsim analyze`: run the fault-universe analyses and report how far they
/// shrink the stuck-at and transition universes, plus the per-net findings.
fn cmd_analyze(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    // Files are analyzed with provenance so findings carry .bench spans.
    let (c, prov) = load_circuit(f.arg(0, "circuit")?, false)?;
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
    (
        "V001",
        "pattern-invalid",
        Severity::Error,
        "a --patterns line is not a 0/1/X vector as wide as the circuit's inputs",
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
            out.push_str("{\"code\":");
            write_json_string(&mut out, code);
            out.push_str(",\"slug\":");
            write_json_string(&mut out, slug);
            out.push_str(",\"severity\":");
            write_json_string(&mut out, sev.name());
            out.push_str(",\"description\":");
            write_json_string(&mut out, desc);
            out.push('}');
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
    let (c, _) = load_circuit(spec, false)?;
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
        let mut out = String::from("{\"circuit\":");
        write_json_string(&mut out, c.name());
        out.push_str(",\"net\":");
        write_json_string(&mut out, net_name);
        out.push_str(&format!(
            ",\"frames\":{frames},\"valid_from_cycle\":{horizon},\"implications\":["
        ));
        let mut first = true;
        for value in [false, true] {
            for imp in graph.implications_of(net, value) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"source_value\":{},\"target\":",
                    u8::from(value)
                ));
                write_json_string(&mut out, c.gate(imp.target).name());
                out.push_str(&format!(
                    ",\"value\":{},\"delta\":{},\"learned\":{}}}",
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
    let (base, base_prov) = load_circuit(base_spec, false)?;
    let (edited, edited_prov) = load_circuit(edited_spec, false)?;
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
    let (c, _) = load_circuit(spec, false)?;
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
    let text = read_text(file)?;
    let mut patterns = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let invalid = |e: &dyn std::fmt::Display| {
            diag(format!(
                "error: V001 [pattern-invalid] {file}:{}: {e}",
                lineno + 1
            ))
        };
        let p = parse_pattern(line).map_err(|e| invalid(&e))?;
        if p.len() != circuit.num_inputs() {
            return Err(invalid(&format!(
                "pattern has {} bits, circuit has {} inputs",
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
    let (c, _) = load_circuit(spec, false)?;
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
    let cap = cfs_netlist::DEFAULT_MACRO_MAX_INPUTS;
    let macros = extract_macros(&c, cap);
    let direct = macros.direct_gates().len();
    println!(
        "macro cells: {} ({:.2} gates/cell, {} KiB of LUTs){}",
        macros.num_cells(),
        (c.num_comb_gates() - direct) as f64 / macros.num_cells().max(1) as f64,
        macros.lut_memory_bytes() / 1024,
        if direct == 0 {
            String::new()
        } else {
            format!(", {direct} gate(s) wider than {cap} inputs evaluated directly")
        }
    );
    Ok(())
}

/// The shared `sim`/`transition` front end: loads the circuit (timed as
/// the `check` phase), its patterns, a `--baseline-report` and a
/// `--resume-from` checkpoint, prepares the model's universe over its `full` default,
/// has `drive` run the machines, and finishes the run.
fn run_model<F: Copy>(
    f: &Flags<'_>,
    hooks: &ModelHooks<F>,
    full: impl FnOnce(&Circuit) -> Vec<F>,
    drive: impl FnOnce(
        &Run<'_, F>,
        &mut Option<JsonlFile>,
        &mut dyn io::Write,
    ) -> Result<Vec<Outcome>, Box<dyn std::error::Error>>,
) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let plan = run_plan(f);
    let started = Instant::now();
    let (c, _) = load_circuit(spec, plan.paranoid)?;
    let check_time = started.elapsed();
    let patterns = load_patterns(&c, f.stimulus())?;
    let baseline = match f.text("--baseline-report") {
        Some(path) => Some(Baseline::parse(path, &read_text(path)?, hooks.baseline)?),
        None => None,
    };
    let out = &mut io::stdout();
    let universe = prepare_universe(&c, &plan, &patterns, hooks, baseline, out, full)?;
    let mut jsonl = open_jsonl(plan.stats_json)?;
    // Loaded after the banner and the --stats-json file, so a refused
    // checkpoint reports at the point it always has.
    let resume = f
        .text("--resume-from")
        .map(|path| load_checkpoint_file(path).map(|ckpt| (path, ckpt)))
        .transpose()?;
    let run = Run {
        circuit: &c,
        patterns: &patterns,
        universe: &universe,
        plan: &plan,
        check_time,
        resume: resume.as_ref().map(|(path, ckpt)| (*path, ckpt)),
    };
    let outcomes = drive(&run, &mut jsonl, out)?;
    finish_run(&run, hooks, &outcomes, jsonl, out)
}

/// The stuck-at faults `sim`, `explain` and `heatmap` simulate: one per
/// equivalence class, or every fault under `--uncollapsed`.
fn stuck_universe(f: &Flags<'_>, c: &Circuit) -> Vec<StuckAt> {
    if f.on("--uncollapsed") {
        enumerate_stuck_at(c)
    } else {
        collapse_stuck_at(c).representatives
    }
}

fn cmd_sim(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let full = |c: &Circuit| stuck_universe(f, c);
    run_model(f, &STUCK, full, |run, jsonl, out| {
        if f.baseline() {
            return Ok(vec![simulate_baseline(run, f.simulator(), jsonl, out)?]);
        }
        let variants = f.variants();
        let probes = Probes::pick(run.plan, variants.len());
        variants
            .into_iter()
            .map(|variant| simulate_stuck(run, variant.options(), probes, jsonl, out))
            .collect()
    })
}

fn cmd_transition(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    run_model(f, &TRANSITION, enumerate_transition, |run, jsonl, out| {
        let probes = Probes::pick(run.plan, 1);
        Ok(vec![simulate_transition(run, probes, jsonl, out)?])
    })
}

/// Display name of a gate-level node. Gate-level networks keep node id ==
/// circuit gate index; `explain` and `heatmap` replay through `csim-V`
/// (split lists, no macros) for exactly this reason — macro collapsing
/// renumbers nodes.
fn node_name(c: &Circuit, node: u32) -> &str {
    c.gate(GateId::from_index(node as usize)).name()
}

/// Steps `patterns` over `faults` through `csim-V` (gate-level, serial)
/// under a trace recorder. The lane cap is 0, so every fault stays on the
/// lists: its life story and its activity are list events.
fn replay(
    c: &Circuit,
    faults: &[StuckAt],
    patterns: &[Vec<Logic>],
    cfg: TraceConfig,
) -> ConcurrentSim<TraceRecorder> {
    let options = CsimOptions {
        hot_lanes: 0,
        ..CsimVariant::V.options()
    };
    let mut sim =
        ConcurrentSim::with_probe(c, faults, options, TraceRecorder::new(Instant::now(), cfg));
    for p in patterns {
        sim.step(p);
    }
    sim
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
    let (c, _) = load_circuit(spec, false)?;
    let universe = stuck_universe(f, &c);
    if id >= universe.len() {
        let kind = if f.on("--uncollapsed") {
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
    let sim = replay(&c, &universe, &patterns, cfg);
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
/// from a serial gate-level traced run.
fn cmd_heatmap(f: &Flags<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = f.arg(0, "circuit")?;
    let top = f.num_or("--top", 20);
    let (c, _) = load_circuit(spec, false)?;
    let faults = stuck_universe(f, &c);
    let patterns = load_patterns(&c, f.stimulus())?;
    // The per-node totals come from the recorder's exact counters, which
    // ring overflow cannot touch, so the ring itself can be minimal.
    let cfg = TraceConfig {
        capacity: 1,
        quiescence_window: 0,
    };
    let sim = replay(&c, &faults, &patterns, cfg);
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
    let (c, _) = load_circuit(spec, false)?;
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
    let c = builtin(f.arg(0, "name")?)?;
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
        "--checkpoint-every 4",
        "--simulator proofs --prune",
        "--simulator proofs --incremental --baseline-report b.json",
        "--simulator proofs --resume-from c.bin",
        "--simulator proofs --trace-out t.json",
        "--simulator proofs --threads 2",
        "--simulator proofs --batch-windows 8",
        "--simulator proofs --steal",
        "--simulator proofs --paranoid",
        "--simulator proofs --trace-every 4",
        "--simulator proofs --variant m",
        "--threads 1 --steal",
        "--threads 2 --resume-from c.bin",
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
                "@s27 --trace-window 5000000000",
                "needs a number (0 disables)",
            ),
            ("sim", "@s27 --threads 257", "--threads must be at most 256"),
            (
                "analyze",
                "@s298g --learn --learn-frames 100000",
                "--learn-frames must be at most 64",
            ),
            (
                "atpg",
                "@s298g --max-frames 1000000",
                "--max-frames must be at most 32",
            ),
            (
                "atpg",
                "@s298g --max-frames 0",
                "--max-frames must be at least 1",
            ),
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
