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
//! The JSON is stable and diffable: work counters (`events`,
//! `detected`, `peak_elements`, `memory_bytes`) are deterministic for a
//! given circuit/seed and act as a drift gate in CI (`--bench-check`),
//! while timings are advisory.
//!
//! Every cell runs through the `cfs-cli` run driver, the code `fsim sim`
//! and `fsim transition` run, with its output lines discarded. One
//! timing loop ([`Spread`] over every repeat) times every cell here and
//! every timed cell of the tables ([`crate::tables`]); a cell records
//! the minimum, a table prints the median and the interquartile range.
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
//! Finally each circuit carries the burst-hold pair — `csim-MV-hold` and
//! `csim-MV-resume` — serial cells on burst-idle stimulus (a random
//! vector held 4 cycles, then 12 cycles of the all-zero idle vector, so
//! the circuit actually goes quiet between functional bursts). `-hold`
//! times the whole run, and `-resume` times its second half after the
//! driver restores a byte-round-tripped mid-run checkpoint
//! (`--resume-from`), with the full run's counters (the checkpoint
//! restores them) so the drift gate pins restart determinism too.

use std::fmt;
use std::io;
use std::time::Duration;

use cfs_check::LearnOptions;
use cfs_cli::{
    prepare_universe, simulate_baseline, simulate_stuck, simulate_transition, Baseline, ModelHooks,
    Outcome, Probes, Run, RunPlan, Universe, STUCK, TRANSITION,
};
use cfs_core::{BatchOptions, Checkpoint, ConcurrentSim, CsimOptions, CsimVariant};
use cfs_faults::{enumerate_stuck_at, enumerate_transition, FaultStatus, StuckAt, TransitionFault};
use cfs_logic::Logic;
use cfs_netlist::{apply_edit, BenchEdit, Circuit};
use cfs_telemetry::{write_json_f64, write_json_string, JsonValue, Phase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::fault_universe;

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
    /// Faults the hot-fault hybrid moved into packed lanes.
    pub promoted: u64,
    /// Most packed hot-fault words holding live faults at once.
    pub packed_words: u64,
    /// Packed word-node evaluations of the hot-fault words.
    pub packed_evals: u64,
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

/// Shape of the burst-hold cells' stimulus: fresh random vectors every
/// cycle never let the circuit go quiet, so each burst drives
/// [`HOLD_ACTIVE`] cycles of a held random vector (excitation plus
/// settling) followed by [`HOLD_QUIET`] cycles of the all-zero idle
/// vector — a functional burst separated by idle spans.
const HOLD_ACTIVE: usize = 4;
const HOLD_QUIET: usize = 12;

/// Window size for the `-batched` twin cells (the CLI's
/// `--batch-windows 32 --steal`).
const BATCH_WINDOW: usize = 32;

/// Burst-idle stimulus for the burst-hold cells (see [`HOLD_ACTIVE`]),
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
        for i in 0..HOLD_ACTIVE + HOLD_QUIET {
            if out.len() == count {
                break;
            }
            out.push(if i < HOLD_ACTIVE {
                p.clone()
            } else {
                idle.clone()
            });
        }
    }
    out
}

/// One timed quantity over a cell's repeats, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    /// The samples, ascending; never empty.
    sorted: Vec<f64>,
}

impl Spread {
    /// The spread of `samples`, in any order.
    ///
    /// # Panics
    ///
    /// Panics on no samples.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        samples.sort_by(f64::total_cmp);
        Spread { sorted: samples }
    }

    /// The fastest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quartile(2)
    }

    /// The first and third quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.quartile(1), self.quartile(3))
    }

    /// The interquartile range: third quartile minus first.
    pub fn iqr(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        q3 - q1
    }

    /// Quartile `i` of 1..=3 by the exclusive method of Python's
    /// `statistics.quantiles(samples, n=4)`, which is how fsim-bench
    /// judges spread: quartile 2 is the median.
    fn quartile(&self, i: usize) -> f64 {
        let data = &self.sorted;
        let n = data.len();
        if n == 1 {
            return data[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    }
}

impl fmt::Display for Spread {
    /// `median±IQR`, in seconds to four decimals; width pads the pair.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&format!("{:.4}±{:.4}", self.median(), self.iqr()))
    }
}

/// What [`Bench::time`] keeps of a cell's repeats.
pub(crate) struct Timed {
    /// The last run's outcome.
    pub(crate) outcome: Outcome,
    /// Every run's machine build time.
    pub(crate) build: Spread,
    /// Every run's simulation (step) time.
    pub(crate) step: Spread,
}

/// One circuit's harness workload, run through the `fsim` driver: the
/// patterns its cells replay and the timed repeats per cell.
pub(crate) struct Bench<'a> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) patterns: &'a [Vec<Logic>],
    pub(crate) repeats: usize,
}

impl Bench<'_> {
    /// The driver's universe for `plan` (`baseline` makes it
    /// incremental), with the banners it prints discarded.
    pub(crate) fn universe<F: Copy>(
        &self,
        plan: &RunPlan<'_>,
        hooks: &ModelHooks<F>,
        baseline: Option<Baseline>,
        full: fn(&Circuit) -> Vec<F>,
    ) -> Universe<F> {
        let sink = &mut io::sink();
        prepare_universe(
            self.circuit,
            plan,
            self.patterns,
            hooks,
            baseline,
            sink,
            full,
        )
        .expect("every harness universe prepares")
    }

    /// A driver run over `universe`, with no preflight and no resume.
    pub(crate) fn run<'r, F>(&'r self, universe: &'r Universe<F>, plan: &'r RunPlan) -> Run<'r, F> {
        Run {
            circuit: self.circuit,
            patterns: self.patterns,
            universe,
            plan,
            check_time: Duration::ZERO,
            resume: None,
        }
    }

    /// The one timing loop, behind every BENCH cell and every timed
    /// table cell: `repeats` runs (at least one) of the driver through
    /// `simulate`, keeping every run's build and step (`report.cpu`)
    /// time and the last run's outcome.
    pub(crate) fn time(&self, mut simulate: impl FnMut() -> Outcome) -> Timed {
        let runs = self.repeats.max(1);
        let (mut build, mut step) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
        let mut last = None;
        for _ in 0..runs {
            let outcome = simulate();
            build.push(outcome.build.as_secs_f64());
            step.push(outcome.report.cpu.as_secs_f64());
            last = Some(outcome);
        }
        Timed {
            outcome: last.expect("at least one run"),
            build: Spread::new(build),
            step: Spread::new(step),
        }
    }

    /// One BENCH cell: [`Bench::time`] of the probe-free runs, recording
    /// the fastest step, then one more run with metrics attached for the
    /// phase breakdown. Also returns the last timed run's statuses.
    fn cell<F>(
        &self,
        run: &Run<'_, F>,
        variant: String,
        simulate: impl Fn(&Run<'_, F>, Probes) -> Outcome,
    ) -> (PerfRun, Vec<FaultStatus>) {
        let Timed { outcome, step, .. } = self.time(|| simulate(run, Probes::Null));
        let snap = simulate(run, Probes::Metrics)
            .snap
            .expect("the metrics probe records");
        let patterns = run.patterns.len();
        let cell = PerfRun {
            circuit: self.circuit.name().to_owned(),
            variant,
            threads: run.plan.threads,
            patterns,
            faults: run.universe.faults.len(),
            faults_full: snap.faults_full as usize,
            wall_seconds: step.min(),
            events: outcome.report.events,
            events_per_pattern: outcome.report.events as f64 / patterns.max(1) as f64,
            detected: outcome.report.detected(),
            peak_elements: outcome.peak_elements,
            peak_arena_bytes: outcome.peak_elements * cfs_core::Arena::ELEMENT_BYTES,
            memory_bytes: outcome.report.memory_bytes,
            promoted: snap.promoted,
            packed_words: snap.packed_words,
            packed_evals: snap.packed_evals,
            phase_seconds: Phase::ALL
                .iter()
                .map(|&p| (p.name(), snap.phases.get(p).as_secs_f64()))
                .filter(|&(_, s)| s > 0.0)
                .collect(),
        };
        (cell, outcome.report.statuses)
    }

    /// An `-incremental` cell (`csim-MV-incremental` /
    /// `csim-T-incremental`): the driver records the unedited circuit's
    /// full-universe fates (untimed; `--uncollapsed --baseline-out`), then
    /// re-simulates only the change-impact affected cone of the scripted
    /// dead-logic edit (`--incremental --baseline-report`). `detected` is
    /// the full-universe count after fate transfer.
    fn incremental<F: Copy>(
        &self,
        hooks: &ModelHooks<F>,
        full: fn(&Circuit) -> Vec<F>,
        variant: &str,
        simulate: impl Fn(&Run<'_, F>, Probes) -> Outcome,
    ) -> PerfRun {
        let plan = RunPlan::default();
        let cold = self.universe(&plan, hooks, None, full);
        let statuses = simulate(&self.run(&cold, &plan), Probes::Null)
            .report
            .statuses;
        let baseline = Baseline::new(self.circuit.clone(), self.patterns, statuses);
        let edited = apply_edit(self.circuit, BenchEdit::DeadLogic, 0)
            .expect("dead logic applies to every fixture")
            .circuit;
        let edited = Bench {
            circuit: &edited,
            ..*self
        };
        let universe = edited.universe(&plan, hooks, Some(baseline), full);
        let run = edited.run(&universe, &plan);
        let mut cell = edited
            .cell(&run, format!("{variant}-incremental"), simulate)
            .0;
        cell.circuit = self.circuit.name().to_owned();
        cell
    }
}

/// `fsim sim`'s concurrent machine with `options` over `run`, with
/// `probes` attached and every output line discarded.
pub(crate) fn stuck(run: &Run<'_, StuckAt>, options: CsimOptions, probes: Probes) -> Outcome {
    simulate_stuck(run, options, probes, &mut None, &mut io::sink()).expect("stuck-at cells run")
}

/// `fsim sim --variant mv`'s machine over `run` (see [`stuck`]).
pub(crate) fn mv(run: &Run<'_, StuckAt>, probes: Probes) -> Outcome {
    stuck(run, CsimVariant::Mv.options(), probes)
}

/// `fsim sim --simulator proofs`'s machine over `run` (see [`stuck`]).
pub(crate) fn proofs(run: &Run<'_, StuckAt>) -> Outcome {
    simulate_baseline(run, "proofs", &mut None, &mut io::sink()).expect("PROOFS cells run")
}

/// `fsim transition`'s machine over `run` (see [`stuck`]).
pub(crate) fn transition(run: &Run<'_, TransitionFault>, probes: Probes) -> Outcome {
    simulate_transition(run, probes, &mut None, &mut io::sink()).expect("transition cells run")
}

/// The burst-hold pair: two serial `csim-MV` cells on the burst-hold
/// stimulus ([`hold_patterns`]).
///
/// * `csim-MV-hold` — the whole run; what the engine costs when the
///   stimulus goes quiet between bursts.
/// * `csim-MV-resume` — the same run checkpointed at the halfway
///   boundary, round-tripped through the checkpoint's byte serialization,
///   and restored by the driver (`--resume-from`); the recorded wall time
///   covers only the resumed second half, while the work counters are the
///   full run's (the checkpoint restores them), so the drift gate pins
///   restart determinism pattern for pattern.
fn run_hold_cells(circuit: &Circuit, count: usize, seed: u64, repeats: usize) -> Vec<PerfRun> {
    let patterns = hold_patterns(circuit, count, seed);
    let bench = Bench {
        circuit,
        patterns: &patterns,
        repeats,
    };
    let plan = RunPlan::default();
    let universe = bench.universe(&plan, &STUCK, None, fault_universe);
    let run = bench.run(&universe, &plan);
    let (hold, cold) = bench.cell(&run, "csim-MV-hold".into(), mv);

    let mut first = ConcurrentSim::new(circuit, &universe.faults, CsimVariant::Mv.options());
    for p in &patterns[..patterns.len() / 2] {
        first.step(p);
    }
    let checkpoint =
        Checkpoint::from_bytes(&first.checkpoint().to_bytes()).expect("checkpoint round trip");
    let resumed = Run {
        resume: Some(("checkpoint", &checkpoint)),
        ..run
    };
    let (resume, statuses) = bench.cell(&resumed, "csim-MV-resume".into(), mv);
    assert_eq!(
        statuses,
        cold,
        "{}: resume diverged from the cold run",
        circuit.name()
    );
    vec![hold, resume]
}

/// `--threads N --batch-windows 32 --steal`: the `-batched` cells' plan.
fn batched(threads: usize) -> RunPlan<'static> {
    RunPlan {
        threads,
        batch: BatchOptions {
            window: BATCH_WINDOW,
            steal: true,
            ..BatchOptions::default()
        },
        ..RunPlan::default()
    }
}

/// Runs the whole harness: every circuit × the four stuck-at variants ×
/// every thread count (each with its `-pruned` twin, and a `-batched`
/// twin for parallel cells), plus one serial `csim-T` row, its `-pruned`
/// twin, one batched transition cell, the serial `csim-MV-learned` /
/// `csim-T-learned` cells, the two `-incremental` cells, and the
/// burst-hold pair (`csim-MV-hold` / `-resume`) per circuit. Each cell runs the plan its `fsim` command line builds.
pub fn run_perf(config: &PerfConfig) -> Vec<PerfRun> {
    let mut runs = Vec::new();
    for name in &config.circuits {
        let circuit = &perf_circuit(name);
        let patterns = &cfs_atpg::random_patterns(circuit, config.patterns, config.seed);
        let bench = Bench {
            circuit,
            patterns,
            repeats: config.repeats,
        };
        let plain = RunPlan::default();
        let pruned = RunPlan {
            prune: true,
            ..RunPlan::default()
        };
        let learned = RunPlan {
            learn: Some(LearnOptions::default()),
            ..pruned.clone()
        };
        let plans = [(&plain, ""), (&pruned, "-pruned"), (&learned, "-learned")];
        let stuck_universes = plans.map(|(plan, suffix)| {
            (
                plan,
                bench.universe(plan, &STUCK, None, fault_universe),
                suffix,
            )
        });
        let transition_universes = plans.map(|(plan, suffix)| {
            let universe = bench.universe(plan, &TRANSITION, None, enumerate_transition);
            (plan, universe, suffix)
        });
        for variant in CsimVariant::ALL {
            let sim = |run: &Run<'_, StuckAt>, probes| stuck(run, variant.options(), probes);
            for &threads in &config.threads {
                for (plan, universe, suffix) in &stuck_universes[..2] {
                    let plan = RunPlan {
                        threads,
                        ..(*plan).clone()
                    };
                    let cell = format!("{}{suffix}", variant.name());
                    runs.push(bench.cell(&bench.run(universe, &plan), cell, sim).0);
                }
                if threads > 1 {
                    let plan = batched(threads);
                    let cell = format!("{}-batched", variant.name());
                    runs.push(
                        bench
                            .cell(&bench.run(&stuck_universes[0].1, &plan), cell, sim)
                            .0,
                    );
                }
            }
        }
        let (plan, universe, _) = &stuck_universes[2];
        runs.push(
            bench
                .cell(&bench.run(universe, plan), "csim-MV-learned".into(), mv)
                .0,
        );
        for (plan, universe, suffix) in &transition_universes {
            let cell = format!("csim-T{suffix}");
            runs.push(bench.cell(&bench.run(universe, plan), cell, transition).0);
        }
        if let Some(&threads) = config.threads.iter().filter(|&&t| t > 1).max() {
            let plan = batched(threads);
            let run = bench.run(&transition_universes[0].1, &plan);
            runs.push(bench.cell(&run, "csim-T-batched".into(), transition).0);
        }
        runs.push(bench.incremental(&STUCK, enumerate_stuck_at, "csim-MV", mv));
        runs.push(bench.incremental(&TRANSITION, enumerate_transition, "csim-T", transition));
        runs.extend(run_hold_cells(
            circuit,
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
    out.push_str(&format!(
        ", \"promoted\": {}, \"packed_words\": {}, \"packed_evals\": {}",
        run.promoted, run.packed_words, run.packed_evals
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

/// Renders a harness result as the `BENCH.json` document.
pub fn render_bench_json(config: &PerfConfig, runs: &[PerfRun]) -> String {
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
    out.push_str("  ]\n}\n");
    out
}

/// Reads the `runs` array of a previously written `BENCH.json`. Wall
/// times load as recorded; phase breakdowns are not needed for
/// comparisons and load empty.
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
    let opt_field =
        |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    runs.iter()
        .map(|v| {
            Ok(PerfRun {
                circuit: str_field(v, "circuit")?,
                variant: str_field(v, "variant")?,
                threads: num_field(v, "threads")? as usize,
                patterns: num_field(v, "patterns")? as usize,
                faults: num_field(v, "faults")? as usize,
                faults_full: num_field(v, "faults_full")? as usize,
                wall_seconds: num_field(v, "wall_seconds")?,
                events: num_field(v, "events")? as u64,
                events_per_pattern: num_field(v, "events_per_pattern")?,
                detected: num_field(v, "detected")? as usize,
                peak_elements: num_field(v, "peak_elements")? as usize,
                peak_arena_bytes: num_field(v, "peak_arena_bytes")? as usize,
                memory_bytes: num_field(v, "memory_bytes")? as usize,
                // Absent before the hot-fault hybrid: no promotions.
                promoted: opt_field(v, "promoted"),
                packed_words: opt_field(v, "packed_words"),
                packed_evals: opt_field(v, "packed_evals"),
                phase_seconds: Vec::new(),
            })
        })
        .collect()
}

/// Compares a fresh harness result against a checked-in baseline file's
/// runs: the deterministic counters (`events`, detections, the workload
/// sizes, `peak_elements` and `memory_bytes`) must match exactly for
/// every configuration present in both; timing differences are advisory.
/// Returns human-readable drift descriptions (empty = pass).
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
        if run.peak_elements != base.peak_elements {
            drifts.push(format!(
                "{key}: peak elements drifted {} -> {}",
                base.peak_elements, run.peak_elements
            ));
        }
        if run.memory_bytes != base.memory_bytes {
            drifts.push(format!(
                "{key}: memory bytes drifted {} -> {}",
                base.memory_bytes, run.memory_bytes
            ));
        }
        if (run.promoted, run.packed_evals) != (base.promoted, base.packed_evals) {
            drifts.push(format!(
                "{key}: hot faults drifted ({} promoted, {} packed evals) -> ({}, {})",
                base.promoted, base.packed_evals, run.promoted, run.packed_evals
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
    use cfs_core::TransitionSim;

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
    fn spread_quartiles_follow_the_exclusive_method() {
        // Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
        let s = Spread::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            (s.min(), s.median(), s.quartiles(), s.iqr()),
            (1.0, 3.0, (1.5, 4.5), 3.0)
        );
        // statistics.quantiles([1, 2, 3, 4, 5, 10], n=4) == [1.75, 3.5, 6.25].
        let s = Spread::new(vec![10.0, 1.0, 4.0, 2.0, 3.0, 5.0]);
        assert_eq!((s.median(), s.quartiles()), (3.5, (1.75, 6.25)));
        let one = Spread::new(vec![0.25]);
        assert_eq!((one.median(), one.iqr()), (0.25, 0.0));
        assert_eq!(
            format!("{:>15}", Spread::new(vec![0.5, 1.0, 2.0])),
            "  1.0000±1.5000"
        );
    }

    #[test]
    fn harness_round_trips_through_json() {
        let config = tiny_config();
        let runs = run_perf(&config);
        // (4 stuck-at variants × 1 thread count + csim-T) × {plain, pruned}
        // plus the two -learned cells, the two -incremental cells, and the
        // burst-hold pair.
        assert_eq!(runs.len(), 16);
        let json = render_bench_json(&config, &runs);
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
        let patterns = cfs_atpg::random_patterns(&circuit, config.patterns, config.seed);
        let edited = apply_edit(&circuit, BenchEdit::DeadLogic, 0)
            .unwrap()
            .circuit;
        let stuck = enumerate_stuck_at(&edited);
        let transition = enumerate_transition(&edited);
        let cold_stuck = ConcurrentSim::new(&edited, &stuck, CsimVariant::Mv.options())
            .run(&patterns)
            .detected();
        let cold_transition = TransitionSim::new(&edited, &transition, Default::default())
            .run(&patterns)
            .detected();
        for (variant, full, cold) in [
            ("csim-MV-incremental", stuck.len(), cold_stuck),
            ("csim-T-incremental", transition.len(), cold_transition),
        ] {
            let cell = runs
                .iter()
                .find(|r| r.variant == variant)
                .unwrap_or_else(|| panic!("{variant}: cell missing"));
            assert_eq!(cell.faults_full, full, "{variant}: full universe");
            assert!(
                cell.faults < cell.faults_full,
                "{variant}: re-simulates only the affected cone"
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
    fn hold_pair_agrees_on_detections_and_full_run_counters() {
        let runs = run_perf(&tiny_config());
        let hold = runs.iter().find(|r| r.variant == "csim-MV-hold").unwrap();
        let resume = runs.iter().find(|r| r.variant == "csim-MV-resume").unwrap();
        // A resumed run carries the full run's deterministic counters, not
        // just the second half's (the harness also asserts full status
        // equality while recording the cells).
        assert_eq!(resume.detected, hold.detected);
        assert_eq!(resume.events, hold.events);
        assert_eq!(resume.peak_elements, hold.peak_elements);
        for r in [hold, resume] {
            assert_eq!(r.threads, 1, "{}: burst-hold cells are serial", r.key());
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
    fn drift_is_reported() {
        let config = tiny_config();
        let runs = run_perf(&config);
        let mut tampered = runs.clone();
        tampered[0].events += 1;
        tampered[1].detected += 1;
        tampered[2].peak_elements += 1;
        tampered[3].memory_bytes += 1;
        let drifts = check_against(&tampered, &runs);
        assert_eq!(drifts.len(), 4, "{drifts:?}");
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
