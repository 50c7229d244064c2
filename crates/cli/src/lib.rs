//! The `fsim sim` / `fsim transition` run driver as a library, so the
//! `fsim` binary and `repro-tables` (every `BENCH.json` cell and every
//! Table A row) time and run one code path.
//!
//! The caller parses its flags into a [`RunPlan`] and loads the circuit,
//! the patterns, a `--baseline-report` ([`Baseline::parse`]) and a
//! `--resume-from` checkpoint. [`prepare_universe`] then picks the
//! simulated faults (`--prune`, `--learn`, `--incremental`).
//! [`simulate_stuck`], [`simulate_transition`] and [`simulate_baseline`]
//! build one machine with the probe the run needs ([`Probes`]), resume
//! and checkpoint it, and run it: serially with one shard, on the
//! work-stealing scheduler with more. [`finish_run`] prints the summary
//! table and writes the output files. Every line goes to a caller-supplied [`io::Write`]:
//! `fsim` passes stdout, `repro-tables` passes [`io::sink`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use cfs_baselines::{DeductiveSim, SerialSim};
use cfs_check::{
    analyze_circuit, classify_stuck_at, classify_transition, cross_check_fates, diff_netlists,
    impact_analysis, impact_findings, prune_stuck_at, prune_stuck_at_learned, prune_transition,
    prune_transition_learned, CircuitAnalysis, ImpactAnalysis, ImplicationGraph, LearnOptions,
};
use cfs_core::{
    detections_of, BatchOptions, Checkpoint, ConcurrentSim, CsimOptions, FaultMachine, NullProbe,
    Probe, ProofsSim, SchedStats, ShardedSim, TransitionOptions, TransitionSim,
};
use cfs_faults::{
    FaultSimReport, FaultStatus, ImpactStats, ImpactUniverse, PruneStats, PrunedUniverse, StuckAt,
    TransitionFault,
};
use cfs_logic::{format_pattern, Logic};
use cfs_netlist::{parse_bench_with_provenance, write_bench, BenchProvenance, Circuit};
use cfs_telemetry::{
    render_histogram, render_phase_table, render_summary_table, write_json_string, JsonValue,
    JsonlWriter, Log2Histogram, MetricsSnapshot, PairProbe, Phase, SimMetrics,
};
use cfs_trace::{
    write_chrome_trace_with_sched, SchedSpan, SchedSteal, SchedTrack, TraceConfig, TraceEvent,
    TraceRecorder, TrackTrace,
};

#[derive(Debug)]
struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// An operational failure: `fsim` prints it after `fsim: ` and exits with
/// status 1.
pub fn err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(CliError(msg.into()))
}

/// An already-rendered `cfs-check`-style diagnostic (`severity: CODE
/// [slug] message`): printed verbatim, exits with status 2 so scripts can
/// tell a diagnosed input (2) from an operational failure (1).
#[derive(Debug)]
pub struct DiagnosticError(String);

impl fmt::Display for DiagnosticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DiagnosticError {}

/// A [`DiagnosticError`].
pub fn diag(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(DiagnosticError(msg.into()))
}

/// What the run driver reads from a `sim`/`transition` command line. The
/// default is a plain serial run that attaches no probe and writes no
/// file.
#[derive(Debug, Clone)]
pub struct RunPlan<'a> {
    /// `--prune`: simulate only the faults static analysis cannot prove
    /// undetectable.
    pub prune: bool,
    /// `--learn`'s options; `None` when learning is off.
    pub learn: Option<LearnOptions>,
    /// `--threads`: worker threads, one fault shard each.
    pub threads: usize,
    /// A multi-shard run's schedule: `--batch-windows` sets the window
    /// ([`cfs_core::DEFAULT_WINDOW`] when absent) and `--steal` turns
    /// stealing on. One-shard runs ignore it.
    pub batch: BatchOptions,
    /// `--stats`.
    pub stats: bool,
    /// `--stats-json FILE`.
    pub stats_json: Option<&'a str>,
    /// `--trace-every N`.
    pub trace_every: Option<usize>,
    /// `--trace-out FILE`.
    pub trace_out: Option<&'a str>,
    /// Per-shard event-recorder tuning (`--trace-capacity`,
    /// `--trace-window`).
    pub trace_cfg: TraceConfig,
    /// `--checkpoint-every N`.
    pub checkpoint_every: Option<usize>,
    /// `--checkpoint-out DIR`.
    pub checkpoint_out: Option<&'a str>,
    /// `--detections FILE`.
    pub detections: Option<&'a str>,
    /// `--baseline-out FILE`.
    pub baseline_out: Option<&'a str>,
    /// `--paranoid`.
    pub paranoid: bool,
}

impl Default for RunPlan<'_> {
    fn default() -> Self {
        RunPlan {
            prune: false,
            learn: None,
            threads: 1,
            batch: BatchOptions::default(),
            stats: false,
            stats_json: None,
            trace_every: None,
            trace_out: None,
            trace_cfg: TraceConfig::default(),
            checkpoint_every: None,
            checkpoint_out: None,
            detections: None,
            baseline_out: None,
            paranoid: false,
        }
    }
}

impl RunPlan<'_> {
    /// Whether the run needs the recording probe attached at all.
    fn telemetry(&self) -> bool {
        self.stats
            || self.stats_json.is_some()
            || self.trace_every.is_some()
            || self.trace_out.is_some()
    }
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
/// every thread count, window and steal schedule.
fn write_detections(
    path: &str,
    statuses: &[FaultStatus],
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let dets = detections_of(statuses);
    let mut text = String::with_capacity(dets.len() * 12);
    for (fault, pattern) in &dets {
        text.push_str(&format!("{pattern} {fault}\n"));
    }
    fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    writeln!(out, "wrote {} detections to {path}", dets.len())?;
    Ok(())
}

/// How a run's per-simulated-fault statuses map back onto the full
/// enumeration universe — and which universe-reduction counters the
/// driver stamps onto the telemetry snapshot. Both rewrites happen
/// before the first pattern, so the probes never see them.
enum Expansion<F> {
    /// The simulated fault list is the reported universe as-is.
    Verbatim,
    /// `--prune`: class representatives expand to the full uncollapsed
    /// universe; statically-pruned faults report untestable.
    Pruned(PrunedUniverse<F>),
    /// `--incremental`: the affected cone expands to the full uncollapsed
    /// universe; unaffected faults copy the baseline's fate verbatim.
    Incremental(ImpactUniverse<F>, Vec<FaultStatus>),
}

impl<F: Copy> Expansion<F> {
    /// Expands the report's statuses to full-universe indices, so every
    /// report and detection list downstream speaks one index language.
    fn expand(&self, report: &mut FaultSimReport) {
        match self {
            Expansion::Verbatim => {}
            Expansion::Pruned(u) => report.statuses = u.expand_statuses(&report.statuses),
            Expansion::Incremental(u, baseline) => {
                report.statuses = u.expand_statuses(&report.statuses, baseline);
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
            Expansion::Incremental(u, _) => {
                snap.faults_full = u.stats.full as u64;
                snap.faults_sim = u.stats.affected as u64;
                snap.faults_affected = u.stats.affected as u64;
                snap.faults_transferred = u.stats.transferred as u64;
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
    universe: &ImpactUniverse<F>,
    incremental: &[FaultStatus],
    cold_run: impl FnOnce(&[F]) -> Vec<FaultStatus>,
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let cold = cold_run(&universe.full);
    let mut report = cfs_check::Report::new(circuit);
    let mismatches = cross_check_fates(universe, incremental, &cold, &mut report);
    if mismatches > 0 {
        return Err(diag(format!(
            "{}fsim: {mismatches} transferred fate(s) disagree with the cold full re-run",
            report.render_text()
        )));
    }
    writeln!(
        out,
        "paranoid: all {} transferred fate(s) agree with a cold full re-run",
        universe.stats.transferred
    )?;
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
    (model, universe): (&str, &str),
    c: &Circuit,
    patterns: &[Vec<Logic>],
    statuses: &[FaultStatus],
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut text = String::from("{\"type\":\"fsim-baseline\",\"model\":");
    write_json_string(&mut text, model);
    text.push_str(",\"universe\":");
    write_json_string(&mut text, universe);
    text.push_str(",\"circuit\":");
    write_json_string(&mut text, c.name());
    text.push_str(&format!(
        ",\"patterns\":{},\"pattern_hash\":{}",
        patterns.len(),
        pattern_fingerprint(patterns)
    ));
    text.push_str(",\"inputs\":[");
    for (i, &id) in c.inputs().iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        write_json_string(&mut text, c.gate(id).name());
    }
    text.push_str(&format!("],\"faults\":{}", statuses.len()));
    text.push_str(",\"bench\":");
    write_json_string(&mut text, &write_bench(c));
    text.push_str(",\"statuses\":");
    write_json_string(&mut text, &statuses_to_text(statuses));
    text.push_str("}\n");
    fs::write(path, text).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "wrote {model} baseline ({} faults) to {path}",
        statuses.len()
    )?;
    Ok(())
}

/// The fates an `--incremental` run transfers: the pre-edit circuit and
/// its full-universe statuses over the patterns they were recorded on.
pub struct Baseline {
    circuit: Circuit,
    /// Source lines of the recorded `.bench` text, for diff spans.
    provenance: Option<BenchProvenance>,
    statuses: Vec<FaultStatus>,
    patterns: usize,
    pattern_hash: u64,
}

impl Baseline {
    /// The baseline a `--baseline-out` run of `circuit` over `patterns`
    /// records, from its full-universe statuses.
    pub fn new(circuit: Circuit, patterns: &[Vec<Logic>], statuses: Vec<FaultStatus>) -> Self {
        Baseline {
            circuit,
            provenance: None,
            statuses,
            patterns: patterns.len(),
            pattern_hash: pattern_fingerprint(patterns),
        }
    }

    /// Parses and structurally validates the text of a `--baseline-out`
    /// file (`path` names it in errors) for a run of the given
    /// [`ModelHooks::baseline`] labels. Model or universe mismatches are
    /// `I002` diagnostics (exit 2), not operational errors: the file is a
    /// valid baseline, just not for this run.
    pub fn parse(
        path: &str,
        text: &str,
        (model, universe): (&str, &str),
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let v = JsonValue::parse(text.trim())
            .map_err(|e| err(format!("{path}: not a baseline report: {e}")))?;
        let field = |key: &str| -> Result<&str, Box<dyn std::error::Error>> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| err(format!("{path}: not a baseline report (missing {key:?})")))
        };
        let number = |key: &str| -> Result<u64, Box<dyn std::error::Error>> {
            v.get(key)
                .and_then(JsonValue::as_u64)
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
        let faults = number("faults")?;
        if statuses.len() as u64 != faults {
            return Err(err(format!(
                "{path}: records {faults} faults but {} statuses",
                statuses.len()
            )));
        }
        Ok(Baseline {
            circuit,
            provenance: Some(provenance),
            statuses,
            patterns: number("patterns")? as usize,
            pattern_hash: number("pattern_hash")?,
        })
    }
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
    out: &mut dyn Write,
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
    let diff = diff_netlists(
        &baseline.circuit,
        edited,
        baseline.provenance.as_ref(),
        None,
    );
    let analysis = impact_analysis(&baseline.circuit, edited, diff);
    let mut report = cfs_check::Report::new(edited.name());
    impact_findings(&analysis, &mut report);
    if !report.diagnostics.is_empty() {
        write!(out, "{}", report.render_text())?;
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
fn print_impact_banner(model: &str, stats: &ImpactStats, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "incremental: {} of {} {model} faults affected, {} fates transfer from the \
         baseline; re-simulating {:.1}% of the universe",
        stats.affected,
        stats.full,
        stats.transferred,
        100.0 * stats.ratio()
    )
}

/// Prints what a `--prune` run is about to simulate.
fn print_prune_banner(model: &str, stats: &PruneStats, out: &mut dyn Write) -> io::Result<()> {
    let conflict = if stats.conflict > 0 {
        format!(", {} conflict-untestable", stats.conflict)
    } else {
        String::new()
    };
    writeln!(
        out,
        "pruned {} of {} {model} faults ({} unexcitable, {} unobservable{conflict}); \
         simulating {} class representatives",
        stats.pruned(),
        stats.full,
        stats.unexcitable,
        stats.unobservable,
        stats.sim
    )
}

fn print_report(report: &FaultSimReport, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{report}")?;
    writeln!(
        out,
        "  events: {}, faulty-machine evaluations: {}",
        report.events, report.evaluations
    )
}

/// The `--stats-json` stream.
pub type JsonlFile = JsonlWriter<io::BufWriter<fs::File>>;

/// Creates the `--stats-json` file, when the plan names one.
pub fn open_jsonl(path: Option<&str>) -> Result<Option<JsonlFile>, Box<dyn std::error::Error>> {
    match path {
        Some(p) => {
            let file = fs::File::create(p).map_err(|e| err(format!("cannot write {p}: {e}")))?;
            Ok(Some(JsonlWriter::new(io::BufWriter::new(file))))
        }
        None => Ok(None),
    }
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
/// shard's map) plus the merged counter track, and — for multi-shard runs
/// — one worker track per scheduler thread with task spans and steal
/// instants.
fn write_trace_file(
    path: &str,
    process_name: &str,
    doc: &TraceDoc,
    (recorded, dropped): (u64, u64),
    out: &mut dyn Write,
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
    let mut trace = io::BufWriter::new(file);
    write_chrome_trace_with_sched(&mut trace, process_name, &tracks, doc.sched.as_ref())
        .and_then(|()| trace.flush())
        .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    if dropped > 0 {
        eprintln!(
            "fsim: note: trace ring overflowed; {dropped} oldest events were \
             discarded (raise --trace-capacity)"
        );
    }
    writeln!(
        out,
        "wrote trace to {path} ({recorded} events recorded, {dropped} dropped)"
    )?;
    Ok(())
}

/// The per-run detail blocks behind `--stats`: phase times and the two
/// engine histograms, merged across every shard's probe (one shard on
/// the serial path).
fn print_stats_detail<'a>(
    snap: &MetricsSnapshot,
    shards: impl Iterator<Item = &'a SimMetrics>,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut list_hist = Log2Histogram::default();
    let mut queue_hist = Log2Histogram::default();
    for m in shards {
        list_hist.merge(&m.list_len_hist);
        queue_hist.merge(&m.queue_depth_hist);
    }
    write!(
        out,
        "{}{}{}",
        render_phase_table(&snap.phases),
        render_histogram("fault-list length per node", &list_hist),
        render_histogram("event-queue depth per level", &queue_hist)
    )
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
    fn advance(
        &mut self,
        shards: &[&SimMetrics],
        done: usize,
        out: &mut dyn Write,
    ) -> io::Result<()> {
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
                writeln!(
                    out,
                    "  pattern {:>6}: detected {}/{}  avg |F| {avg:.1}  events {events}",
                    self.cursor, self.detected, self.total
                )?;
            }
        }
        Ok(())
    }
}

/// The probe attached by `--trace-out`: aggregate metrics and the event
/// recorder, driven by one engine pass.
type TraceProbe = PairProbe<SimMetrics, TraceRecorder>;

/// The probes a concurrent run can attach. Which one is picked once, at
/// dispatch ([`Probes`]); the run driver is generic over it.
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

/// The probe kind a concurrent run attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probes {
    /// No telemetry: zero instrumentation cost.
    Null,
    /// `--stats`, `--stats-json`, `--trace-every`, or a `--variant all`
    /// comparison table.
    Metrics,
    /// `--trace-out`: metrics plus the event recorder.
    Trace,
}

impl Probes {
    /// The probes a run of `variants` machines under `plan` needs.
    pub fn pick(plan: &RunPlan<'_>, variants: usize) -> Probes {
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
pub struct Run<'a, F> {
    /// The simulated circuit.
    pub circuit: &'a Circuit,
    /// Every pattern of the run, including those a resumed checkpoint
    /// already covers.
    pub patterns: &'a [Vec<Logic>],
    /// The simulated universe ([`prepare_universe`]).
    pub universe: &'a Universe<F>,
    /// What the flags asked for.
    pub plan: &'a RunPlan<'a>,
    /// Wall time `fsim`'s checked front end took to load the circuit,
    /// folded into the phase table of every snapshot the run emits.
    pub check_time: Duration,
    /// `--resume-from`: the checkpoint file's name and its contents.
    pub resume: Option<(&'a str, &'a Checkpoint)>,
}

/// A finished traced run's Chrome Trace content: each shard's events
/// with its local→global fault map, plus the scheduler's worker tracks.
struct TraceDoc {
    shards: Vec<(Vec<TraceEvent>, Vec<usize>)>,
    sched: Option<SchedTrack>,
}

/// What one machine's run leaves for the shared output stage.
pub struct Outcome {
    /// The report, its statuses expanded to the reported universe.
    /// `report.cpu` is the wall time of the simulated patterns.
    pub report: FaultSimReport,
    /// The merged telemetry, when the probe records.
    pub snap: Option<MetricsSnapshot>,
    /// Wall time building the machine (and restoring a checkpoint into
    /// it); zero for the reference simulators.
    pub build: Duration,
    /// Peak live fault-list elements: the maximum over shards, which
    /// partition the fault universe, so the widest shard bounds the
    /// widest per-engine arena. Zero for the reference simulators.
    pub peak_elements: usize,
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
/// checkpoints it, runs it — serially with one shard, on the scheduler
/// with more — and prints the report, the scheduler line, and the
/// `--stats` detail. Files and the summary table come after every variant
/// has run ([`finish_run`]).
fn simulate<M>(
    run: &Run<'_, M::Fault>,
    options: M::Options,
    jsonl: &mut Option<JsonlFile>,
    cold: impl FnOnce(&[M::Fault]) -> Vec<FaultStatus>,
    out: &mut dyn Write,
) -> Result<Outcome, Box<dyn std::error::Error>>
where
    M: FaultMachine + Send,
    M::Probe: RunProbe,
{
    let (c, patterns, universe, plan) = (run.circuit, run.patterns, run.universe, run.plan);
    let epoch = Instant::now();
    let mut sim = ShardedSim::<M>::with_probes(c, &universe.faults, options, plan.threads, |_| {
        M::Probe::attach(epoch, plan.trace_cfg)
    });
    if plan.paranoid {
        sim.set_paranoid(true);
    }
    if let Some((path, snap)) = run.resume {
        sim.restore(snap)
            .map_err(|e| diag(format!("error: K002 [checkpoint-mismatch] {path}: {e}")))?;
    }
    let build = epoch.elapsed();
    let start_at = match run.resume {
        Some((path, snap)) => {
            let done = snap.pattern_index() as usize;
            if done > patterns.len() {
                return Err(err(format!(
                    "{path} already covers {done} pattern(s) but this run replays only {}",
                    patterns.len()
                )));
            }
            writeln!(out, "resumed from {path} at pattern {done}")?;
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
    let mut printed = Ok(());
    let after = |s: &ShardedSim<M>, done: usize| {
        if let (Some(progress), Ok(())) = (progress.as_mut(), &printed) {
            let shards: Vec<&SimMetrics> =
                s.shard_probes().filter_map(|(p, _)| p.metrics()).collect();
            printed = progress.advance(&shards, start_at + done, out);
        }
        ckpt.after(s, start_at + done);
    };
    // Scheduler timestamps count from run start; measure that start on
    // the recorders' epoch so the worker tracks line up with the shards.
    let sched_offset = epoch.elapsed().as_micros() as u64;
    let mut report = sim.run_batched_with(&patterns[start_at..], &plan.batch, after);
    report.patterns = patterns.len();
    if let Some(e) = ckpt.failed {
        return Err(e);
    }
    printed?;
    if let Some(dir) = plan.checkpoint_out {
        if ckpt.written > 0 {
            writeln!(
                out,
                "wrote {} checkpoint(s) to {dir} ({:.1} ms)",
                ckpt.written,
                ckpt.time.as_secs_f64() * 1e3
            )?;
        }
    }
    universe.expansion.expand(&mut report);
    print_report(&report, out)?;
    if let (Expansion::Incremental(u, _), true) = (&universe.expansion, plan.paranoid) {
        verify_incremental(c.name(), u, &report.statuses, cold, out)?;
    }
    let shard_metrics = || sim.shard_probes().filter_map(|(p, _)| p.metrics());
    let recorders = || sim.shard_probes().filter_map(|(p, _)| p.recorder());
    let snap = if shard_metrics().next().is_some() {
        let mut snap = sim.snapshot_by(|p| p.metrics().expect("every shard records"));
        // The run's time is its wall clock, not the phase sum.
        snap.cpu_seconds = report.cpu.as_secs_f64();
        snap.phases.add(Phase::Check, run.check_time);
        if plan.checkpoint_every.is_some() || run.resume.is_some() {
            snap.phases.add(Phase::Checkpoint, ckpt.time);
        }
        universe.expansion.stamp(&mut snap);
        snap.trace_events = recorders().map(TraceRecorder::recorded_events).sum();
        snap.trace_dropped = recorders().map(TraceRecorder::dropped_events).sum();
        if plan.stats {
            if let Some(st) = sim.sched_stats() {
                writeln!(
                    out,
                    "  scheduler: {} windows × {} shards = {} tasks on {} workers, {} steals",
                    st.windows,
                    sim.num_shards(),
                    st.tasks,
                    st.workers,
                    st.steals
                )?;
            }
            if snap.promoted > 0 {
                writeln!(
                    out,
                    "  hot faults: {} promoted into {} packed words, {} packed word-node \
                     evaluations, {:.3}s",
                    snap.promoted,
                    snap.packed_words,
                    snap.packed_evals,
                    snap.phases.get(Phase::Packed).as_secs_f64()
                )?;
            }
            print_stats_detail(&snap, shard_metrics(), out)?;
        }
        if let Some(w) = jsonl.as_mut() {
            // A one-shard run's shard recorded the serial per-pattern
            // records; sharded runs carry only the merged summary.
            let records = match shard_metrics().next() {
                Some(m) if sim.num_shards() == 1 => m.records(),
                _ => &[],
            };
            records
                .iter()
                .try_for_each(|r| w.write_pattern(r))
                .and_then(|()| w.write_summary(&snap))
                .map_err(|e| err(format!("cannot write telemetry: {e}")))?;
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
        sched: sched_track_of(sim.sched_stats(), sched_offset),
    });
    Ok(Outcome {
        report,
        snap,
        build,
        peak_elements: sim.peak_elements(),
        trace,
    })
}

/// Runs one concurrent stuck-at machine (`csim` and its variants) over
/// the run's universe with the `probes` kind. An `--incremental
/// --paranoid` run cross-checks against a cold run of the same `options`.
pub fn simulate_stuck(
    run: &Run<'_, StuckAt>,
    options: CsimOptions,
    probes: Probes,
    jsonl: &mut Option<JsonlFile>,
    out: &mut dyn Write,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let cold_options = options.clone();
    let cold = move |full: &[StuckAt]| {
        ConcurrentSim::new(run.circuit, full, cold_options)
            .run(run.patterns)
            .statuses
    };
    match probes {
        Probes::Null => simulate::<ConcurrentSim>(run, options, jsonl, cold, out),
        Probes::Metrics => simulate::<ConcurrentSim<SimMetrics>>(run, options, jsonl, cold, out),
        Probes::Trace => simulate::<ConcurrentSim<TraceProbe>>(run, options, jsonl, cold, out),
    }
}

/// The transition mirror of [`simulate_stuck`] (`csim-T`), on the default
/// transition options.
pub fn simulate_transition(
    run: &Run<'_, TransitionFault>,
    probes: Probes,
    jsonl: &mut Option<JsonlFile>,
    out: &mut dyn Write,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let options = TransitionOptions::default();
    let cold = |full: &[TransitionFault]| {
        TransitionSim::new(run.circuit, full, TransitionOptions::default())
            .run(run.patterns)
            .statuses
    };
    match probes {
        Probes::Null => simulate::<TransitionSim>(run, options, jsonl, cold, out),
        Probes::Metrics => simulate::<TransitionSim<SimMetrics>>(run, options, jsonl, cold, out),
        Probes::Trace => simulate::<TransitionSim<TraceProbe>>(run, options, jsonl, cold, out),
    }
}

/// Runs one of the reference simulators (`proofs`, `serial`,
/// `deductive`: `fsim sim --simulator`) over the run's universe. They
/// report only run totals, so telemetry gets a headline-only snapshot
/// through the same table and JSON path.
///
/// # Panics
///
/// Panics on any other simulator name.
pub fn simulate_baseline(
    run: &Run<'_, StuckAt>,
    simulator: &str,
    jsonl: &mut Option<JsonlFile>,
    out: &mut dyn Write,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let (c, patterns, faults) = (run.circuit, run.patterns, &run.universe.faults);
    let report = match simulator {
        "proofs" => ProofsSim::new(c, faults).run(patterns),
        "serial" => SerialSim::new(c, faults).run(patterns),
        "deductive" => {
            let reset = vec![Logic::Zero; c.num_dffs()];
            DeductiveSim::new(c, faults, reset).run(patterns)?
        }
        other => panic!("no reference simulator {other:?}"),
    };
    print_report(&report, out)?;
    let snap = run.plan.telemetry().then(|| {
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
    Ok(Outcome {
        report,
        snap,
        build: Duration::ZERO,
        peak_elements: 0,
        trace: None,
    })
}

/// The shared tail of a run, in one order for every mode: the summary
/// table (under `--stats`, or comparing `--variant all`), then the files
/// — telemetry, detections, baseline, trace. Only the telemetry stream
/// may span several variants; the other files need a single one.
pub fn finish_run<F>(
    run: &Run<'_, F>,
    hooks: &ModelHooks<F>,
    outcomes: &[Outcome],
    jsonl: Option<JsonlFile>,
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let snaps: Vec<MetricsSnapshot> = outcomes.iter().filter_map(|o| o.snap.clone()).collect();
    if run.plan.stats || outcomes.len() > 1 {
        writeln!(out)?;
        write!(out, "{}", render_summary_table(&snaps))?;
    }
    if let (Some(mut w), Some(path)) = (jsonl, run.plan.stats_json) {
        w.flush()
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote telemetry to {path}")?;
    }
    let Some(last) = outcomes.last() else {
        return Ok(());
    };
    if let Some(path) = run.plan.detections {
        write_detections(path, &last.report.statuses, out)?;
    }
    if let Some(path) = run.plan.baseline_out {
        write_baseline(
            path,
            hooks.baseline,
            run.circuit,
            run.patterns,
            &last.report.statuses,
            out,
        )?;
    }
    if let (Some(path), Some(doc)) = (run.plan.trace_out, &last.trace) {
        let counts = last
            .snap
            .as_ref()
            .map_or((0, 0), |s| (s.trace_events, s.trace_dropped));
        write_trace_file(
            path,
            &format!("{} · {}", run.circuit.name(), last.report.simulator),
            doc,
            counts,
            out,
        )?;
    }
    Ok(())
}

/// The simulated universe of a `sim`/`transition` run: the faults handed
/// to the machine, and how its report expands back to the full universe.
pub struct Universe<F> {
    /// The faults the machine simulates.
    pub faults: Vec<F>,
    expansion: Expansion<F>,
}

/// One fault model's hooks into [`prepare_universe`].
pub struct ModelHooks<F> {
    /// The model in banners (`stuck-at`, `transition`).
    label: &'static str,
    /// The baseline report's model and reported-universe labels.
    pub baseline: (&'static str, &'static str),
    prune: fn(&Circuit, &CircuitAnalysis) -> PrunedUniverse<F>,
    prune_learned: fn(&Circuit, &CircuitAnalysis, &ImplicationGraph) -> PrunedUniverse<F>,
    classify: fn(&Circuit, &Circuit, &ImpactAnalysis) -> ImpactUniverse<F>,
}

/// The stuck-at model (`fsim sim`).
pub const STUCK: ModelHooks<StuckAt> = ModelHooks {
    label: "stuck-at",
    baseline: ("stuck", "uncollapsed"),
    prune: prune_stuck_at,
    prune_learned: |c, a, g| prune_stuck_at_learned(c, a, g).universe,
    classify: classify_stuck_at,
};

/// The transition model (`fsim transition`).
pub const TRANSITION: ModelHooks<TransitionFault> = ModelHooks {
    label: "transition",
    baseline: ("transition", "full"),
    prune: prune_transition,
    prune_learned: prune_transition_learned,
    classify: classify_transition,
};

/// The shared `sim`/`transition` preparation over the model's `full`
/// default universe: `--prune` (with `--learn`) or `--incremental` (given
/// the loaded `baseline`).
pub fn prepare_universe<F: Copy>(
    c: &Circuit,
    plan: &RunPlan<'_>,
    patterns: &[Vec<Logic>],
    hooks: &ModelHooks<F>,
    baseline: Option<Baseline>,
    out: &mut dyn Write,
    full: impl FnOnce(&Circuit) -> Vec<F>,
) -> Result<Universe<F>, Box<dyn std::error::Error>> {
    let expansion = if plan.prune {
        let a = analyze_circuit(c);
        let u = match plan.learn {
            Some(options) => (hooks.prune_learned)(c, &a, &ImplicationGraph::build(c, &a, options)),
            None => (hooks.prune)(c, &a),
        };
        print_prune_banner(hooks.label, &u.stats, out)?;
        Expansion::Pruned(u)
    } else if let Some(baseline) = baseline {
        let (u, statuses) = prepare_incremental(c, baseline, patterns, hooks.classify, out)?;
        print_impact_banner(hooks.label, &u.stats, out)?;
        Expansion::Incremental(u, statuses)
    } else {
        Expansion::Verbatim
    };
    let faults = match &expansion {
        Expansion::Verbatim => full(c),
        Expansion::Pruned(u) => u.sim.clone(),
        Expansion::Incremental(u, _) => u.affected.clone(),
    };
    Ok(Universe { faults, expansion })
}
