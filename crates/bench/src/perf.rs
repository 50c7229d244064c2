//! The `BENCH.json` performance harness: one documented command that runs
//! the bundled ISCAS-style example circuits across every concurrent-engine
//! configuration (all four `csim` variants plus `csim-T`, serial and
//! fault-sharded parallel) and records a machine-readable trajectory —
//! wall time, events per pattern, detection counts, peak arena bytes, and
//! per-phase timings from the existing telemetry.
//!
//! ```text
//! cargo run --release -p cfs-bench --bin repro-tables -- --bench-json BENCH.json
//! ```
//!
//! The JSON is stable and diffable: work counters (`events_per_pattern`,
//! `detected`) are deterministic for a given circuit/seed and act as a
//! drift gate in CI (`--bench-check`), while timings are advisory. Passing
//! `--bench-baseline FILE` embeds a previously recorded run and computes
//! wall-time speedups against it, which is how a perf PR records a real
//! before/after trajectory.
//!
//! Every stuck-at and transition cell has a `-pruned` twin that runs the
//! statically pruned universe (`cfs_check::prune_stuck_at` /
//! `prune_transition`) and records both the simulated and the full
//! uncollapsed fault count, so the trajectory captures how much work the
//! static analyses remove. Pruned cells report full-universe detection
//! counts (after expansion), making them comparable to an `--uncollapsed`
//! run.
//!
//! Each circuit additionally carries a serial `csim-MV-learned` and a
//! `csim-T-learned` cell: the `-pruned` twin under implication learning
//! (`--prune --learn`), simulating the conflict-pruned universe from
//! `prune_stuck_at_learned` / `prune_transition_learned`. Because
//! `faults` / `faults_full` are part of the drift gate, these cells pin
//! the learned-universe sizes — a regression in pruning power shows up
//! as workload drift in `--bench-check`.
//!
//! Every *parallel* cell (`threads > 1`) additionally has a `-batched`
//! twin that runs the two-dimensional (pattern-window × fault-shard)
//! work-stealing schedule — window 32, stealing on, 2× oversharded, the
//! CLI's `--batch-windows 32 --steal` — so the drift gate also pins the
//! scheduler's determinism: its `events` and `detected` counters must
//! match the baseline exactly even though the steal schedule varies run
//! to run.
//!
//! Each circuit also carries a `csim-MV-incremental` and a
//! `csim-T-incremental` cell: a scripted dead-logic edit is applied, the
//! change-impact analysis splits the edited circuit's uncollapsed
//! universe into affected and transferred faults, and only the affected
//! cone is re-simulated (the CLI's `--incremental`); the baseline run
//! that fates transfer from is untimed. `faults` records the affected
//! count, `faults_full` the full universe, and `detected` the
//! full-universe detections after fate transfer, so the cell is directly
//! comparable to an `--uncollapsed` run and the drift gate pins the
//! transfer split itself.
//!
//! Finally each circuit carries the quiescence trio — `csim-MV-hold`,
//! `csim-MV-quiesce`, and `csim-MV-resume` — serial cells on burst-idle
//! stimulus (a random vector held 4 cycles, then 12 cycles of the
//! all-zero idle vector, so the circuit actually goes quiet between
//! functional bursts). `-hold` is the ungated reference, `-quiesce` the
//! same run under the engine's quiescence gate (`--quiesce-window 2`;
//! the harness asserts detections stay bit-identical), and `-resume`
//! times the second half of the gated run after restoring a
//! byte-round-tripped mid-run checkpoint into a fresh simulator, with
//! the full run's counters (the checkpoint restores them) so the drift
//! gate pins restart determinism too.

use std::time::Instant;

use cfs_check::{
    analyze_circuit, classify_stuck_at, classify_transition, diff_netlists, impact_analysis,
    prune_stuck_at, prune_stuck_at_learned, prune_transition, prune_transition_learned,
    ImpactAnalysis, ImplicationGraph, LearnOptions,
};
use cfs_core::{
    BatchOptions, Checkpoint, ConcurrentSim, CsimOptions, CsimVariant, FaultMachine, NullProbe,
    ShardPlan, ShardedSim, TransitionOptions, TransitionSim,
};
use cfs_faults::{
    collapse_stuck_at, enumerate_stuck_at, enumerate_transition, FaultStatus, ImpactUniverse,
    PrunedUniverse, StuckAt, TransitionFault,
};
use cfs_logic::Logic;
use cfs_netlist::{apply_edit, BenchEdit, Circuit};
use cfs_telemetry::{
    write_json_f64, write_json_string, JsonValue, MetricsSnapshot, Phase, SimMetrics,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default circuit list: the bundled `examples/bench` netlists, smallest to
/// largest (the last one is the headline speedup circuit).
pub const DEFAULT_CIRCUITS: &[&str] = &["s27", "s298g", "s641g", "s1238g"];

/// Configuration of one harness invocation.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Circuits to run (`s27` or generated `s*g` benchmark names).
    pub circuits: Vec<String>,
    /// Random patterns per circuit.
    pub patterns: usize,
    /// Thread counts: `1` is the serial engine, anything larger the
    /// fault-sharded parallel engine.
    pub threads: Vec<usize>,
    /// Timing repetitions; the recorded wall time is the minimum.
    pub repeats: usize,
    /// Seed for the pattern generator.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            circuits: DEFAULT_CIRCUITS.iter().map(|s| (*s).to_owned()).collect(),
            patterns: 256,
            threads: vec![1, 2],
            repeats: 3,
            seed: 0x01992DAC,
        }
    }
}

/// One measured configuration: a circuit × simulator variant × thread
/// count.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// Circuit name.
    pub circuit: String,
    /// Simulator name (`csim`, `csim-V`, `csim-M`, `csim-MV`, `csim-T`).
    pub variant: String,
    /// Worker threads (1 = serial path).
    pub threads: usize,
    /// Patterns simulated.
    pub patterns: usize,
    /// Faults actually simulated.
    pub faults: usize,
    /// Full uncollapsed universe behind a `-pruned` cell (`0` for plain
    /// cells, which simulate classically collapsed representatives).
    pub faults_full: usize,
    /// Minimum wall time over the configured repeats, in seconds.
    pub wall_seconds: f64,
    /// Node activations (deterministic work measure).
    pub events: u64,
    /// `events / patterns`.
    pub events_per_pattern: f64,
    /// Faults detected (deterministic).
    pub detected: usize,
    /// Peak live fault elements across all engines.
    pub peak_elements: usize,
    /// Peak fault-element storage in bytes (`peak_elements ×
    /// ELEMENT_BYTES`).
    pub peak_arena_bytes: usize,
    /// Full modeled memory in bytes.
    pub memory_bytes: usize,
    /// Per-phase seconds from one instrumented repetition, in
    /// [`Phase::ALL`] order (zero entries omitted from the JSON).
    pub phase_seconds: Vec<(&'static str, f64)>,
}

impl PerfRun {
    /// Stable identity key within a BENCH.json file.
    pub fn key(&self) -> String {
        format!("{}/{}/t{}", self.circuit, self.variant, self.threads)
    }
}

/// Resolves a harness circuit name (the paper's `s27` or a generated
/// benchmark).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn perf_circuit(name: &str) -> Circuit {
    if name == "s27" {
        cfs_netlist::data::s27()
    } else {
        cfs_netlist::generate::benchmark(name)
            .unwrap_or_else(|| panic!("unknown benchmark circuit {name:?}"))
    }
}

fn random_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..circuit.num_inputs())
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Shape of the quiescence cells' stimulus: fresh random vectors every
/// cycle never let the circuit go quiet, so each burst drives
/// [`QUIESCE_ACTIVE`] cycles of a held random vector (excitation plus
/// settling) followed by [`QUIESCE_QUIET`] cycles of the all-zero idle
/// vector — a functional burst separated by the idle spans the gate
/// targets.
const QUIESCE_ACTIVE: usize = 4;
const QUIESCE_QUIET: usize = 12;

/// Gating window for the `-quiesce` and `-resume` cells (the CLI's
/// `--quiesce-window`).
const QUIESCE_WINDOW: u32 = 2;

/// Burst-idle stimulus for the quiescence cells (see [`QUIESCE_ACTIVE`]),
/// truncated to exactly `count` patterns so the cells stay comparable to
/// the harness's plain cells.
fn hold_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let idle = vec![Logic::Zero; circuit.num_inputs()];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p: Vec<Logic> = (0..circuit.num_inputs())
            .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
            .collect();
        for i in 0..QUIESCE_ACTIVE + QUIESCE_QUIET {
            if out.len() == count {
                break;
            }
            out.push(if i < QUIESCE_ACTIVE {
                p.clone()
            } else {
                idle.clone()
            });
        }
    }
    out
}

fn phase_seconds(snap: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    Phase::ALL
        .iter()
        .map(|&p| (p.name(), snap.phases.get(p).as_secs_f64()))
        .filter(|&(_, s)| s > 0.0)
        .collect()
}

/// What one timed configuration measured.
struct Timed {
    /// Minimum wall time over the repeats, in seconds.
    wall: f64,
    events: u64,
    detected: usize,
    peak_elements: usize,
    memory_bytes: usize,
    phases: Vec<(&'static str, f64)>,
    /// The last repetition's per-fault statuses.
    statuses: Vec<FaultStatus>,
}

impl Timed {
    /// The BENCH cell for this measurement.
    fn cell(
        self,
        circuit: &Circuit,
        variant: String,
        threads: usize,
        patterns: usize,
        faults: usize,
        faults_full: usize,
    ) -> PerfRun {
        PerfRun {
            circuit: circuit.name().to_owned(),
            variant,
            threads,
            patterns,
            faults,
            faults_full,
            wall_seconds: self.wall,
            events: self.events,
            events_per_pattern: self.events as f64 / patterns.max(1) as f64,
            detected: self.detected,
            peak_elements: self.peak_elements,
            peak_arena_bytes: self.peak_elements * cfs_core::Arena::ELEMENT_BYTES,
            memory_bytes: self.memory_bytes,
            phase_seconds: self.phases,
        }
    }
}

/// Detected faults in a status vector.
fn count_detected(statuses: &[FaultStatus]) -> usize {
    statuses.iter().filter(|s| s.is_detected()).count()
}

/// The timing loop behind every cell but `-resume`: `repeats` uninstrumented runs
/// of the sharded machine `M` (one shard on the serial path; with
/// `batch`, the two-dimensional work-stealing schedule, 2× oversharded so
/// stealing has slack), then one run of its instrumented twin `I` for the
/// phase breakdown. `detected` turns the final statuses into the cell's
/// detection count (full-universe counts for pruned and incremental
/// cells).
#[allow(clippy::too_many_arguments)]
fn time_cell<M, I>(
    circuit: &Circuit,
    faults: &[M::Fault],
    options: &M::Options,
    threads: usize,
    batch: Option<&BatchOptions>,
    patterns: &[Vec<Logic>],
    repeats: usize,
    detected: impl Fn(&[FaultStatus]) -> usize,
) -> Timed
where
    M: FaultMachine<Probe = NullProbe> + Send,
    I: FaultMachine<Probe = SimMetrics, Fault = M::Fault, Options = M::Options> + Send,
{
    let shards = if batch.is_some() {
        threads * 2
    } else {
        threads
    };
    let mut timed = Timed {
        wall: f64::INFINITY,
        events: 0,
        detected: 0,
        peak_elements: 0,
        memory_bytes: 0,
        phases: Vec::new(),
        statuses: Vec::new(),
    };
    for _ in 0..repeats.max(1) {
        let mut sim = ShardedSim::<M>::with_probes_sharded(
            circuit,
            faults,
            options.clone(),
            threads,
            shards,
            ShardPlan::RoundRobin,
            None,
            |_| NullProbe,
        );
        let start = Instant::now();
        let report = match batch {
            Some(b) => sim.run_batched(patterns, b),
            None => sim.run(patterns),
        };
        timed.wall = timed.wall.min(start.elapsed().as_secs_f64());
        timed.events = sim.events();
        timed.detected = detected(&report.statuses);
        // The per-shard maximum: shards partition the fault universe, so
        // the widest shard bounds the widest per-engine arena a reader has
        // to provision for.
        timed.peak_elements = sim.peak_elements();
        timed.memory_bytes = sim.memory_bytes();
        timed.statuses = report.statuses;
    }
    let mut sim = ShardedSim::<I>::with_probes_sharded(
        circuit,
        faults,
        options.clone(),
        threads,
        shards,
        ShardPlan::RoundRobin,
        None,
        |_| SimMetrics::new(),
    );
    match batch {
        Some(b) => sim.run_batched(patterns, b),
        None => sim.run(patterns),
    };
    timed.phases = phase_seconds(&sim.snapshot());
    timed
}

/// A stuck-at cell: collapsed representatives, or a pruned universe
/// whose report expands to full-universe counts (the `-pruned` and
/// `-learned` cells), serial, sharded, or batched.
fn run_stuck(
    circuit: &Circuit,
    variant: CsimVariant,
    threads: usize,
    batch: Option<&BatchOptions>,
    pruned: Option<(&PrunedUniverse<StuckAt>, &str)>,
    patterns: &[Vec<Logic>],
    repeats: usize,
) -> PerfRun {
    let collapsed;
    let (faults, faults_full, suffix) = match pruned {
        Some((u, suffix)) => (&u.sim, u.stats.full, suffix),
        None => {
            collapsed = collapse_stuck_at(circuit).representatives;
            (&collapsed, 0, if batch.is_some() { "-batched" } else { "" })
        }
    };
    let timed = time_cell::<ConcurrentSim, ConcurrentSim<SimMetrics>>(
        circuit,
        faults,
        &variant.options(),
        threads,
        batch,
        patterns,
        repeats,
        |s| match pruned {
            Some((u, _)) => count_detected(&u.expand_statuses(s)),
            None => count_detected(s),
        },
    );
    timed.cell(
        circuit,
        format!("{}{suffix}", variant.name()),
        threads,
        patterns.len(),
        faults.len(),
        faults_full,
    )
}

/// The transition mirror of [`run_stuck`] (`csim-T` and its `-pruned`,
/// `-learned`, and `-batched` cells).
fn run_transition(
    circuit: &Circuit,
    threads: usize,
    batch: Option<&BatchOptions>,
    pruned: Option<(&PrunedUniverse<TransitionFault>, &str)>,
    patterns: &[Vec<Logic>],
    repeats: usize,
) -> PerfRun {
    let full;
    let (faults, faults_full, suffix) = match pruned {
        Some((u, suffix)) => (&u.sim, u.stats.full, suffix),
        None => {
            full = enumerate_transition(circuit);
            (&full, 0, if batch.is_some() { "-batched" } else { "" })
        }
    };
    let timed = time_cell::<TransitionSim, TransitionSim<SimMetrics>>(
        circuit,
        faults,
        &TransitionOptions::default(),
        threads,
        batch,
        patterns,
        repeats,
        |s| match pruned {
            Some((u, _)) => count_detected(&u.expand_statuses(s)),
            None => count_detected(s),
        },
    );
    timed.cell(
        circuit,
        format!("csim-T{suffix}"),
        threads,
        patterns.len(),
        faults.len(),
        faults_full,
    )
}

/// Window size for the `-batched` twin cells (the CLI's
/// `--batch-windows 32 --steal`).
const BATCH_WINDOW: usize = 32;

fn batch_options() -> BatchOptions {
    BatchOptions {
        window: BATCH_WINDOW,
        steal: true,
        ..BatchOptions::default()
    }
}

/// An `-incremental` cell (`csim-MV-incremental` / `csim-T-incremental`):
/// applies the scripted dead-logic edit, records baseline fates over the
/// unedited circuit's full uncollapsed universe (untimed), then times
/// re-simulation of only the change-impact affected cone on the edited
/// circuit. `detected` is the full-universe count after fate transfer —
/// the CLI's `--incremental` path.
fn run_incremental<M, I>(
    circuit: &Circuit,
    options: &M::Options,
    classify: fn(&Circuit, &Circuit, &ImpactAnalysis) -> ImpactUniverse<M::Fault>,
    enumerate: fn(&Circuit) -> Vec<M::Fault>,
    variant: &str,
    patterns: &[Vec<Logic>],
    repeats: usize,
) -> PerfRun
where
    M: FaultMachine<Probe = NullProbe> + Send,
    I: FaultMachine<Probe = SimMetrics, Fault = M::Fault, Options = M::Options> + Send,
{
    let applied =
        apply_edit(circuit, BenchEdit::DeadLogic, 0).expect("dead logic applies to every fixture");
    let edited = &applied.circuit;
    let diff = diff_netlists(circuit, edited, None, None);
    let analysis = impact_analysis(circuit, edited, diff);
    let universe = classify(circuit, edited, &analysis);
    let baseline = ShardedSim::<M>::new(
        circuit,
        &enumerate(circuit),
        options.clone(),
        1,
        ShardPlan::RoundRobin,
    )
    .run(patterns)
    .statuses;
    let timed = time_cell::<M, I>(
        edited,
        &universe.affected,
        options,
        1,
        None,
        patterns,
        repeats,
        |s| count_detected(&universe.expand_statuses(s, &baseline)),
    );
    timed.cell(
        circuit,
        format!("{variant}-incremental"),
        1,
        patterns.len(),
        universe.affected.len(),
        universe.stats.full,
    )
}

/// `variant.options()` with the harness gating window applied.
fn gated_options(variant: CsimVariant) -> CsimOptions {
    CsimOptions {
        quiesce_window: QUIESCE_WINDOW,
        ..variant.options()
    }
}

/// The quiescence trio: three serial `csim-MV` cells on the burst-hold
/// stimulus ([`hold_patterns`]).
///
/// * `csim-MV-hold` — the ungated reference; what the engine costs when
///   the stimulus goes quiet but every sweep still walks the whole
///   circuit.
/// * `csim-MV-quiesce` — the same run under the engine's quiescence gate
///   (`--quiesce-window 4`); the wall-time gap against `-hold` is the
///   headline win of the gate, and the harness asserts its detections are
///   bit-identical to the ungated reference before recording the cell.
/// * `csim-MV-resume` — the gated run checkpointed at the halfway
///   boundary, round-tripped through the checkpoint's byte serialization,
///   and restored into a fresh simulator; the recorded wall time covers
///   only the resumed second half, while the work counters are the full
///   run's (the checkpoint restores them), so the drift gate pins
///   restart determinism pattern for pattern.
fn run_quiesce_cells(circuit: &Circuit, count: usize, seed: u64, repeats: usize) -> Vec<PerfRun> {
    let patterns = hold_patterns(circuit, count, seed);
    let faults = collapse_stuck_at(circuit).representatives;
    let variant = CsimVariant::Mv;
    let cell = |timed: Timed, suffix: &str| {
        timed.cell(
            circuit,
            format!("{}-{suffix}", variant.name()),
            1,
            patterns.len(),
            faults.len(),
            0,
        )
    };
    let time = |options: CsimOptions| {
        time_cell::<ConcurrentSim, ConcurrentSim<SimMetrics>>(
            circuit,
            &faults,
            &options,
            1,
            None,
            &patterns,
            repeats,
            count_detected,
        )
    };
    let hold = time(variant.options());
    let quiesce = time(gated_options(variant));
    assert_eq!(
        quiesce.statuses,
        hold.statuses,
        "{}: the quiescence gate changed detections",
        circuit.name()
    );

    let cut = patterns.len() / 2;
    let first_half = || {
        let mut first = ConcurrentSim::new(circuit, &faults, gated_options(variant));
        for p in &patterns[..cut] {
            first.step(p);
        }
        let bytes = first.checkpoint().to_bytes();
        Checkpoint::from_bytes(&bytes).expect("checkpoint round trip")
    };
    let mut resume = Timed {
        wall: f64::INFINITY,
        events: 0,
        detected: 0,
        peak_elements: 0,
        memory_bytes: 0,
        phases: Vec::new(),
        statuses: Vec::new(),
    };
    for _ in 0..repeats.max(1) {
        let snap = first_half();
        let mut sim = ConcurrentSim::new(circuit, &faults, gated_options(variant));
        sim.restore(&snap).expect("checkpoint restore");
        let start = Instant::now();
        for p in &patterns[cut..] {
            sim.step(p);
        }
        resume.wall = resume.wall.min(start.elapsed().as_secs_f64());
        assert_eq!(
            sim.statuses(),
            hold.statuses,
            "{}: resume diverged from the cold run",
            circuit.name()
        );
        resume.events = sim.events();
        resume.detected = sim.detected();
        resume.peak_elements = sim.peak_elements();
        resume.memory_bytes = sim.memory_bytes();
    }
    let mut sim = ConcurrentSim::instrumented(circuit, &faults, gated_options(variant));
    sim.restore(&first_half()).expect("checkpoint restore");
    for p in &patterns[cut..] {
        sim.step(p);
    }
    resume.phases = phase_seconds(&sim.snapshot());
    vec![
        cell(hold, "hold"),
        cell(quiesce, "quiesce"),
        cell(resume, "resume"),
    ]
}

/// Runs the whole harness: every circuit × the four stuck-at variants ×
/// every thread count (each with its `-pruned` twin, and a `-batched`
/// twin for parallel cells), plus one serial `csim-T` row, its `-pruned`
/// twin, one batched transition cell, the serial `csim-MV-learned` /
/// `csim-T-learned` cells, the two `-incremental` cells, and the
/// quiescence trio (`csim-MV-hold` / `-quiesce` / `-resume`) per
/// circuit.
pub fn run_perf(config: &PerfConfig) -> Vec<PerfRun> {
    let mut runs = Vec::new();
    for name in &config.circuits {
        let circuit = perf_circuit(name);
        let patterns = random_patterns(&circuit, config.patterns, config.seed);
        let analysis = analyze_circuit(&circuit);
        let stuck = prune_stuck_at(&circuit, &analysis);
        let transition = prune_transition(&circuit, &analysis);
        let graph = ImplicationGraph::build(&circuit, &analysis, LearnOptions::default());
        let learned_stuck = prune_stuck_at_learned(&circuit, &analysis, &graph).universe;
        let learned_transition = prune_transition_learned(&circuit, &analysis, &graph);
        let batch = batch_options();
        for variant in CsimVariant::ALL {
            for &threads in &config.threads {
                runs.push(run_stuck(
                    &circuit,
                    variant,
                    threads,
                    None,
                    None,
                    &patterns,
                    config.repeats,
                ));
                runs.push(run_stuck(
                    &circuit,
                    variant,
                    threads,
                    None,
                    Some((&stuck, "-pruned")),
                    &patterns,
                    config.repeats,
                ));
                if threads > 1 {
                    runs.push(run_stuck(
                        &circuit,
                        variant,
                        threads,
                        Some(&batch),
                        None,
                        &patterns,
                        config.repeats,
                    ));
                }
            }
        }
        runs.push(run_stuck(
            &circuit,
            CsimVariant::Mv,
            1,
            None,
            Some((&learned_stuck, "-learned")),
            &patterns,
            config.repeats,
        ));
        for pruned in [
            None,
            Some((&transition, "-pruned")),
            Some((&learned_transition, "-learned")),
        ] {
            runs.push(run_transition(
                &circuit,
                1,
                None,
                pruned,
                &patterns,
                config.repeats,
            ));
        }
        if let Some(&threads) = config.threads.iter().filter(|&&t| t > 1).max() {
            runs.push(run_transition(
                &circuit,
                threads,
                Some(&batch),
                None,
                &patterns,
                config.repeats,
            ));
        }
        runs.push(run_incremental::<ConcurrentSim, ConcurrentSim<SimMetrics>>(
            &circuit,
            &CsimVariant::Mv.options(),
            classify_stuck_at,
            enumerate_stuck_at,
            CsimVariant::Mv.name(),
            &patterns,
            config.repeats,
        ));
        runs.push(run_incremental::<TransitionSim, TransitionSim<SimMetrics>>(
            &circuit,
            &TransitionOptions::default(),
            classify_transition,
            enumerate_transition,
            "csim-T",
            &patterns,
            config.repeats,
        ));
        runs.extend(run_quiesce_cells(
            &circuit,
            config.patterns,
            config.seed,
            config.repeats,
        ));
    }
    runs
}

fn write_run(out: &mut String, run: &PerfRun) {
    out.push_str("    {");
    out.push_str("\"circuit\": ");
    write_json_string(out, &run.circuit);
    out.push_str(", \"variant\": ");
    write_json_string(out, &run.variant);
    out.push_str(&format!(
        ", \"threads\": {}, \"patterns\": {}, \"faults\": {}, \"faults_full\": {}",
        run.threads, run.patterns, run.faults, run.faults_full
    ));
    out.push_str(", \"wall_seconds\": ");
    write_json_f64(out, run.wall_seconds);
    out.push_str(&format!(", \"events\": {}", run.events));
    out.push_str(", \"events_per_pattern\": ");
    write_json_f64(out, run.events_per_pattern);
    out.push_str(&format!(
        ", \"detected\": {}, \"peak_elements\": {}, \"peak_arena_bytes\": {}, \
         \"memory_bytes\": {}",
        run.detected, run.peak_elements, run.peak_arena_bytes, run.memory_bytes
    ));
    out.push_str(", \"phase_seconds\": {");
    for (i, (name, secs)) in run.phase_seconds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(out, name);
        out.push_str(": ");
        write_json_f64(out, *secs);
    }
    out.push_str("}}");
}

/// Renders a harness result (and an optional embedded baseline) as the
/// `BENCH.json` document.
pub fn render_bench_json(
    config: &PerfConfig,
    runs: &[PerfRun],
    baseline: Option<(&str, &[PerfRun])>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"cfs-bench/1\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"patterns\": {}, \"repeats\": {}, \"seed\": {}, \"threads\": [{}], \
         \"circuits\": [{}]}},\n",
        config.patterns,
        config.repeats,
        config.seed,
        config
            .threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        config
            .circuits
            .iter()
            .map(|c| format!("{c:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        write_run(&mut out, run);
        if i + 1 < runs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]");
    if let Some((source, base_runs)) = baseline {
        out.push_str(",\n  \"baseline\": {\"source\": ");
        write_json_string(&mut out, source);
        out.push_str(", \"runs\": [\n");
        for (i, run) in base_runs.iter().enumerate() {
            write_run(&mut out, run);
            if i + 1 < base_runs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]},\n  \"speedups\": [\n");
        let speedups = speedups_against(runs, base_runs);
        for (i, (key, base_wall, wall, ratio)) in speedups.iter().enumerate() {
            out.push_str("    {\"run\": ");
            write_json_string(&mut out, key);
            out.push_str(", \"baseline_wall_seconds\": ");
            write_json_f64(&mut out, *base_wall);
            out.push_str(", \"wall_seconds\": ");
            write_json_f64(&mut out, *wall);
            out.push_str(", \"speedup\": ");
            write_json_f64(&mut out, *ratio);
            out.push('}');
            if i + 1 < speedups.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Pairs current runs with baseline runs by key and computes wall-time
/// speedups (`baseline / current`; above 1.0 means the current engine is
/// faster).
pub fn speedups_against(runs: &[PerfRun], baseline: &[PerfRun]) -> Vec<(String, f64, f64, f64)> {
    runs.iter()
        .filter_map(|run| {
            let key = run.key();
            let base = baseline.iter().find(|b| b.key() == key)?;
            let ratio = if run.wall_seconds > 0.0 {
                base.wall_seconds / run.wall_seconds
            } else {
                0.0
            };
            Some((key, base.wall_seconds, run.wall_seconds, ratio))
        })
        .collect()
}

/// Reads the `runs` array of a previously written `BENCH.json` (top-level
/// runs, not the embedded baseline). Wall times load as recorded; phase
/// breakdowns are not needed for comparisons and load empty.
///
/// # Errors
///
/// Returns a description when the file is not a harness document.
pub fn parse_bench_json(input: &str) -> Result<Vec<PerfRun>, String> {
    let doc = JsonValue::parse(input)?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing \"runs\" array".to_owned())?;
    let str_field = |v: &JsonValue, k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(JsonValue::as_str)
            .map(ToOwned::to_owned)
            .ok_or_else(|| format!("run missing {k:?}"))
    };
    let num_field = |v: &JsonValue, k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("run missing {k:?}"))
    };
    runs.iter()
        .map(|v| {
            Ok(PerfRun {
                circuit: str_field(v, "circuit")?,
                variant: str_field(v, "variant")?,
                threads: num_field(v, "threads")? as usize,
                patterns: num_field(v, "patterns")? as usize,
                faults: num_field(v, "faults")? as usize,
                // Absent in documents written before static pruning.
                faults_full: v
                    .get("faults_full")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0) as usize,
                wall_seconds: num_field(v, "wall_seconds")?,
                events: num_field(v, "events")? as u64,
                events_per_pattern: num_field(v, "events_per_pattern")?,
                detected: num_field(v, "detected")? as usize,
                peak_elements: num_field(v, "peak_elements")? as usize,
                peak_arena_bytes: num_field(v, "peak_arena_bytes")? as usize,
                memory_bytes: num_field(v, "memory_bytes")? as usize,
                phase_seconds: Vec::new(),
            })
        })
        .collect()
}

/// Compares a fresh harness result against a checked-in baseline file's
/// runs: the deterministic work counters (`events_per_pattern`, `events`)
/// and detection counts must match exactly for every configuration present
/// in both; timing differences are advisory. Returns human-readable drift
/// descriptions (empty = pass).
pub fn check_against(runs: &[PerfRun], baseline: &[PerfRun]) -> Vec<String> {
    let mut drifts = Vec::new();
    for base in baseline {
        let key = base.key();
        let Some(run) = runs.iter().find(|r| r.key() == key) else {
            drifts.push(format!("{key}: configuration missing from this run"));
            continue;
        };
        if run.events != base.events {
            drifts.push(format!(
                "{key}: events drifted {} -> {}",
                base.events, run.events
            ));
        }
        if run.detected != base.detected {
            drifts.push(format!(
                "{key}: detections drifted {} -> {}",
                base.detected, run.detected
            ));
        }
        if run.patterns != base.patterns
            || run.faults != base.faults
            || run.faults_full != base.faults_full
        {
            drifts.push(format!(
                "{key}: workload drifted (patterns {} -> {}, faults {} -> {}, full {} -> {})",
                base.patterns,
                run.patterns,
                base.faults,
                run.faults,
                base.faults_full,
                run.faults_full
            ));
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            circuits: vec!["s27".to_owned()],
            patterns: 8,
            threads: vec![1],
            repeats: 1,
            seed: 7,
        }
    }

    #[test]
    fn harness_round_trips_through_json() {
        let config = tiny_config();
        let runs = run_perf(&config);
        // (4 stuck-at variants × 1 thread count + csim-T) × {plain, pruned}
        // plus the two -learned cells, the two -incremental cells, and the
        // quiescence trio.
        assert_eq!(runs.len(), 17);
        let json = render_bench_json(&config, &runs, None);
        let parsed = parse_bench_json(&json).expect("own output parses");
        assert_eq!(parsed.len(), runs.len());
        for (a, b) in runs.iter().zip(&parsed) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.events, b.events);
            assert_eq!(a.detected, b.detected);
            assert_eq!(a.faults_full, b.faults_full);
        }
        assert!(check_against(&parsed, &runs).is_empty(), "self-check clean");
    }

    #[test]
    fn pruned_twins_shrink_the_simulated_universe() {
        let runs = run_perf(&tiny_config());
        let pruned: Vec<_> = runs
            .iter()
            .filter(|r| r.variant.ends_with("-pruned"))
            .collect();
        assert_eq!(pruned.len(), 5);
        for r in &pruned {
            assert!(
                r.faults_full > 0,
                "{}: twin records the full universe",
                r.key()
            );
            assert!(r.faults <= r.faults_full, "{}: sim beyond full", r.key());
            // Stuck-at twins always shrink strictly: exact collapsing alone
            // merges equivalent faults. Transition faults have no collapse,
            // so their twin only shrinks when the analyses prune something
            // (nothing on s27).
            if !r.variant.starts_with("csim-T") {
                assert!(
                    r.faults < r.faults_full,
                    "{}: simulated {} should be below full {}",
                    r.key(),
                    r.faults,
                    r.faults_full
                );
            }
        }
        // A pruned stuck-at cell reports full-universe detections: compare
        // against its plain twin expanded through classical equivalence
        // (both count the same detected fault classes on s27, where the
        // analyses prune nothing and collapses agree).
        let plain = runs.iter().find(|r| r.variant == "csim-MV").unwrap();
        let twin = runs.iter().find(|r| r.variant == "csim-MV-pruned").unwrap();
        assert!(twin.detected >= plain.detected);
    }

    #[test]
    fn learned_twins_never_exceed_their_pruned_twin() {
        let runs = run_perf(&tiny_config());
        for (learned, pruned) in [
            ("csim-MV-learned", "csim-MV-pruned"),
            ("csim-T-learned", "csim-T-pruned"),
        ] {
            let learned = runs
                .iter()
                .find(|r| r.variant == learned && r.threads == 1)
                .unwrap_or_else(|| panic!("{learned}: cell missing"));
            let pruned = runs
                .iter()
                .find(|r| r.variant == pruned && r.threads == 1)
                .unwrap();
            assert!(
                learned.faults_full > 0,
                "{}: twin records the full universe",
                learned.key()
            );
            assert_eq!(
                learned.faults_full,
                pruned.faults_full,
                "{}: same full universe as the pruned twin",
                learned.key()
            );
            assert!(
                learned.faults <= pruned.faults,
                "{}: learning never grows the universe ({} vs {})",
                learned.key(),
                learned.faults,
                pruned.faults
            );
            // Both report full-universe detections, so learning must not
            // change the detection count.
            assert_eq!(
                learned.detected,
                pruned.detected,
                "{}: conflict pruning changed detections",
                learned.key()
            );
        }
    }

    #[test]
    fn incremental_twins_match_a_cold_uncollapsed_run() {
        let config = tiny_config();
        let runs = run_perf(&config);
        let circuit = perf_circuit("s27");
        let patterns = random_patterns(&circuit, config.patterns, config.seed);
        let applied = apply_edit(&circuit, BenchEdit::DeadLogic, 0).unwrap();
        let diff = diff_netlists(&circuit, &applied.circuit, None, None);
        let analysis = impact_analysis(&circuit, &applied.circuit, diff);
        let stuck = classify_stuck_at(&circuit, &applied.circuit, &analysis);
        let transition = classify_transition(&circuit, &applied.circuit, &analysis);
        let cold_stuck =
            ConcurrentSim::new(&applied.circuit, &stuck.full, CsimVariant::Mv.options())
                .run(&patterns)
                .statuses
                .iter()
                .filter(|s| matches!(s, FaultStatus::Detected { .. }))
                .count();
        let cold_transition =
            TransitionSim::new(&applied.circuit, &transition.full, Default::default())
                .run(&patterns)
                .statuses
                .iter()
                .filter(|s| matches!(s, FaultStatus::Detected { .. }))
                .count();
        for (variant, stats, cold) in [
            ("csim-MV-incremental", &stuck.stats, cold_stuck),
            ("csim-T-incremental", &transition.stats, cold_transition),
        ] {
            let cell = runs
                .iter()
                .find(|r| r.variant == variant)
                .unwrap_or_else(|| panic!("{variant}: cell missing"));
            assert_eq!(cell.faults, stats.affected, "{variant}: simulated count");
            assert_eq!(cell.faults_full, stats.full, "{variant}: full universe");
            assert!(
                cell.faults <= cell.faults_full,
                "{variant}: sim beyond full"
            );
            assert_eq!(
                cell.detected, cold,
                "{variant}: fate transfer changed detections"
            );
        }
    }

    #[test]
    fn batched_twins_ride_parallel_cells_and_match_plain_detections() {
        let config = PerfConfig {
            threads: vec![1, 2],
            ..tiny_config()
        };
        let runs = run_perf(&config);
        let batched: Vec<_> = runs
            .iter()
            .filter(|r| r.variant.ends_with("-batched"))
            .collect();
        // One per stuck-at variant at t2, plus one transition cell.
        assert_eq!(
            batched.len(),
            5,
            "{:?}",
            batched.iter().map(|r| r.key()).collect::<Vec<_>>()
        );
        for twin in &batched {
            assert_eq!(
                twin.threads,
                2,
                "{}: batched cells are parallel",
                twin.key()
            );
            let plain_variant = twin.variant.trim_end_matches("-batched");
            // csim-T has no parallel plain cell; its reference is serial.
            let plain_threads = if plain_variant == "csim-T" { 1 } else { 2 };
            let plain = runs
                .iter()
                .find(|r| r.variant == plain_variant && r.threads == plain_threads)
                .unwrap_or_else(|| panic!("{}: no plain twin", twin.key()));
            assert_eq!(
                twin.detected,
                plain.detected,
                "{}: the 2-D schedule changed detections",
                twin.key()
            );
        }
        // Keys stay unique with the new twins in the document.
        let mut keys: Vec<String> = runs.iter().map(PerfRun::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), runs.len(), "duplicate run keys");
    }

    #[test]
    fn quiesce_trio_agrees_on_detections_and_full_run_counters() {
        let runs = run_perf(&tiny_config());
        let hold = runs.iter().find(|r| r.variant == "csim-MV-hold").unwrap();
        let quiesce = runs
            .iter()
            .find(|r| r.variant == "csim-MV-quiesce")
            .unwrap();
        let resume = runs.iter().find(|r| r.variant == "csim-MV-resume").unwrap();
        // The gate must never change what is detected (the harness also
        // asserts full status equality while recording the cells)...
        assert_eq!(quiesce.detected, hold.detected);
        // ...and a resumed run carries the full run's deterministic
        // counters, not just the second half's.
        assert_eq!(resume.detected, quiesce.detected);
        assert_eq!(resume.events, quiesce.events);
        assert_eq!(resume.peak_elements, quiesce.peak_elements);
        for r in [hold, quiesce, resume] {
            assert_eq!(r.threads, 1, "{}: trio cells are serial", r.key());
            assert!(r.peak_elements > 0, "{}: peak recorded", r.key());
        }
    }

    #[test]
    fn parallel_cells_record_the_widest_shard_peak() {
        let config = PerfConfig {
            threads: vec![1, 2],
            ..tiny_config()
        };
        let runs = run_perf(&config);
        for r in &runs {
            assert!(r.peak_elements > 0, "{}: peak never recorded", r.key());
            assert_eq!(
                r.peak_arena_bytes,
                r.peak_elements * cfs_core::Arena::ELEMENT_BYTES,
                "{}: arena bytes follow the element term",
                r.key()
            );
        }
        // A shard holds a subset of the fault universe, so its widest
        // arena never exceeds the serial engine's.
        for t2 in runs.iter().filter(|r| r.threads == 2) {
            let base = t2.variant.trim_end_matches("-batched");
            if let Some(serial) = runs.iter().find(|r| r.variant == base && r.threads == 1) {
                assert!(
                    t2.peak_elements <= serial.peak_elements,
                    "{}: shard peak {} above serial {}",
                    t2.key(),
                    t2.peak_elements,
                    serial.peak_elements
                );
            }
        }
    }

    #[test]
    fn documents_without_faults_full_still_parse() {
        let json = r#"{"schema": "cfs-bench/1", "runs": [
            {"circuit": "s27", "variant": "csim", "threads": 1, "patterns": 8,
             "faults": 32, "wall_seconds": 0.1, "events": 100,
             "events_per_pattern": 12.5, "detected": 20, "peak_elements": 5,
             "peak_arena_bytes": 80, "memory_bytes": 1000,
             "phase_seconds": {}}]}"#;
        let runs = parse_bench_json(json).expect("legacy document parses");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].faults_full, 0);
    }

    #[test]
    fn drift_is_reported() {
        let config = tiny_config();
        let runs = run_perf(&config);
        let mut tampered = runs.clone();
        tampered[0].events += 1;
        tampered[1].detected += 1;
        let drifts = check_against(&tampered, &runs);
        assert_eq!(drifts.len(), 2, "{drifts:?}");
    }

    #[test]
    fn speedups_pair_by_key() {
        let config = tiny_config();
        let runs = run_perf(&config);
        let mut slower = runs.clone();
        for r in &mut slower {
            r.wall_seconds *= 2.0;
        }
        for (_, base, wall, ratio) in speedups_against(&runs, &slower) {
            assert!((base - 2.0 * wall).abs() < 1e-12);
            assert!((ratio - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_counters_are_stable_across_runs() {
        let config = tiny_config();
        let a = run_perf(&config);
        let b = run_perf(&config);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "{}", x.key());
            assert_eq!(x.detected, y.detected, "{}", x.key());
        }
    }
}
