//! The traced run: a workload's `fsim` pipeline called in-process through
//! the same public functions `fsim sim` / `fsim transition` call, in the
//! same order, with one span around each call.

use std::fs;
use std::path::Path;
use std::time::Instant;

use cfs_check::{
    analyze_circuit, check_bench_source, prune_stuck_at_learned, ImplicationGraph, LearnOptions,
    DEFAULT_LEARN_FRAMES,
};
use cfs_core::{
    detections_of, BatchOptions, ConcurrentSim, CsimVariant, NullProbe, ParallelTransitionSim,
    ShardPlan, TransitionOptions, TransitionSim,
};
use cfs_faults::{collapse_stuck_at, enumerate_transition, FaultStatus};
use cfs_logic::{parse_pattern, Logic};
use cfs_netlist::{parse_bench, Circuit};

use crate::child::self_cpu_s;
use crate::trace::{Recorder, Span};
use crate::workload::{Job, Model, Workload, BATCH_WINDOW};

/// The stages of one `fsim` invocation, in pipeline order. Each is a span
/// around one library call; a stage a workload's flags skip still gets its
/// (near-empty) span, as the CLI still evaluates the condition.
pub const STAGES: &[&str] = &[
    "check.preflight",
    "netlist.parse",
    "patterns.parse",
    "analyze",
    "learn.graph",
    "learn.prune",
    "faults.universe",
    "core.build",
    "core.step",
    "faults.expand",
    "report.write",
];

/// What the traced run measured, summed over a workload's circuits.
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall time of the workload span, seconds.
    pub wall_s: f64,
    /// Seconds per stage, [`STAGES`] order.
    pub stage_s: Vec<f64>,
    /// Per-pattern step times, microseconds (per shard-pattern for the
    /// sharded workload, from the scheduler's task spans).
    pub step_us: Vec<f64>,
    /// The same patterns stepped with no faults at all.
    pub good_only_s: f64,
    /// Patterns simulated.
    pub patterns: u64,
    /// Node activations.
    pub events: u64,
    /// Faulty-machine evaluations.
    pub evals: u64,
    /// Faults handed to the simulator.
    pub simulated: u64,
    /// Of those, detected.
    pub detected: u64,
    /// Peak live fault-list elements (max over circuits).
    pub peak_elements: u64,
    /// Paper memory model at the end of the run, bytes (max over circuits).
    pub memory_bytes: u64,
    /// Full-universe faults seen by `--prune`.
    pub prune_full: u64,
    /// Of those, pruned by the static analyses.
    pub pruned_static: u64,
    /// Of the survivors, pruned by implication-learning conflicts.
    pub pruned_conflict: u64,
    /// Scheduler tasks (shard × window) executed.
    pub tasks: u64,
    /// Scheduler steals.
    pub steals: u64,
    /// This process's CPU seconds during `core.step`.
    pub step_cpu_s: f64,
}

impl Layers {
    /// Seconds spent in `stage`.
    pub fn stage(&self, stage: &str) -> f64 {
        STAGES
            .iter()
            .position(|s| *s == stage)
            .map_or(0.0, |i| self.stage_s[i])
    }
}

/// Per-job leftovers the good-machine floor run needs after the workload
/// span has closed.
struct Stepped {
    circuit: Circuit,
    patterns: Vec<Vec<Logic>>,
}

/// Runs the workload's pipeline on every job inside one `workload` span,
/// then steps the same patterns through fault-free simulators outside it.
pub fn traced(rec: &mut Recorder, w: &Workload, jobs: &[Job]) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let span = rec.begin("workload");
    rec.annotate(span, "name", w.name);
    let mut stepped = Vec::with_capacity(jobs.len());
    for job in jobs {
        stepped.push(run_job(rec, w, job, &mut layers)?);
    }
    layers.wall_s = rec.end(span) / 1e6;
    let by_stage = rec.child_seconds(span);
    layers.stage_s = STAGES
        .iter()
        .map(|s| by_stage.get(*s).copied().unwrap_or(0.0))
        .collect();
    let floor = rec.begin("core.good_only");
    for s in &stepped {
        let start = Instant::now();
        match w.model {
            Model::Stuck => {
                let mut good = ConcurrentSim::new(&s.circuit, &[], CsimVariant::Mv.options());
                s.patterns.iter().for_each(|p| drop(good.step(p)));
            }
            Model::Transition => {
                let mut good = TransitionSim::new(&s.circuit, &[], TransitionOptions::default());
                s.patterns.iter().for_each(|p| drop(good.step(p)));
            }
        }
        layers.good_only_s += start.elapsed().as_secs_f64();
    }
    rec.end(floor);
    Ok(layers)
}

fn run_job(
    rec: &mut Recorder,
    w: &Workload,
    job: &Job,
    layers: &mut Layers,
) -> Result<Stepped, String> {
    let name = job.stem.as_str();
    let report = rec.span("check.preflight", || {
        read(&job.bench).map(|text| check_bench_source(name, &text))
    })?;
    if report.has_errors() {
        return Err(format!("{name}: check errors:\n{}", report.render_text()));
    }
    let circuit = rec.span("netlist.parse", || {
        read(&job.bench)
            .and_then(|text| parse_bench(name, &text).map_err(|e| format!("{name}: {e}")))
    })?;
    let c = &circuit;
    let patterns = rec.span("patterns.parse", || {
        load_patterns(&job.patterns, c.num_inputs())
    })?;
    let statuses = match w.model {
        Model::Stuck => stuck(rec, w, c, &patterns, layers),
        Model::Transition => transition(rec, w, c, &patterns, layers),
    };
    layers.patterns += patterns.len() as u64;
    rec.span("report.write", || {
        write_detections(&job.detections, &statuses)
    })?;
    Ok(Stepped { circuit, patterns })
}

fn stuck(
    rec: &mut Recorder,
    w: &Workload,
    c: &Circuit,
    patterns: &[Vec<Logic>],
    layers: &mut Layers,
) -> Vec<FaultStatus> {
    let analysis = rec.span("analyze", || w.learn.then(|| analyze_circuit(c)));
    let graph = rec.span("learn.graph", || {
        analysis.as_ref().map(|a| {
            ImplicationGraph::build(
                c,
                a,
                LearnOptions {
                    frames: DEFAULT_LEARN_FRAMES,
                },
            )
        })
    });
    let pruned = rec.span("learn.prune", || match (&analysis, &graph) {
        (Some(a), Some(g)) => Some(prune_stuck_at_learned(c, a, g).universe),
        _ => None,
    });
    if let Some(u) = &pruned {
        layers.prune_full += u.stats.full as u64;
        layers.pruned_static += (u.stats.unexcitable + u.stats.unobservable) as u64;
        layers.pruned_conflict += u.stats.conflict as u64;
    }
    let faults = rec.span("faults.universe", || match &pruned {
        Some(u) => u.sim.clone(),
        None => collapse_stuck_at(c).representatives,
    });
    let mut sim = rec.span("core.build", || {
        ConcurrentSim::new(c, &faults, CsimVariant::Mv.options())
    });
    let step = rec.begin("core.step");
    let cpu = self_cpu_s().unwrap_or(0.0);
    for p in patterns {
        let t = Instant::now();
        sim.step(p);
        let dur_us = t.elapsed().as_secs_f64() * 1e6;
        layers.step_us.push(dur_us);
        rec.push(Span {
            name: "pattern".to_owned(),
            parent: Some(step),
            track: 0,
            start_us: rec.us_at(t),
            dur_us,
            args: Vec::new(),
        });
    }
    layers.step_cpu_s += self_cpu_s().unwrap_or(0.0) - cpu;
    rec.end(step);
    let statuses = rec.span("faults.expand", || {
        let s = sim.statuses();
        match &pruned {
            Some(u) => u.expand_statuses(&s),
            None => s,
        }
    });
    layers.events += sim.events();
    layers.evals += sim.fault_evaluations();
    layers.simulated += faults.len() as u64;
    layers.detected += sim.detected() as u64;
    layers.peak_elements = layers.peak_elements.max(sim.peak_elements() as u64);
    layers.memory_bytes = layers.memory_bytes.max(sim.memory_bytes() as u64);
    statuses
}

/// The sharded transition pipeline (`--threads N --batch-windows W
/// --steal`, which overshards 2×).
fn transition(
    rec: &mut Recorder,
    w: &Workload,
    c: &Circuit,
    patterns: &[Vec<Logic>],
    layers: &mut Layers,
) -> Vec<FaultStatus> {
    assert!(
        w.threads > 1 && !w.learn,
        "the transition workload is the sharded one"
    );
    for stage in ["analyze", "learn.graph", "learn.prune"] {
        rec.span(stage, || {});
    }
    let faults = rec.span("faults.universe", || enumerate_transition(c));
    let mut sim = rec.span("core.build", || {
        ParallelTransitionSim::with_probes_sharded(
            c,
            &faults,
            TransitionOptions::default(),
            w.threads,
            2 * w.threads,
            ShardPlan::RoundRobin,
            None,
            |_| NullProbe,
        )
    });
    let batch = BatchOptions {
        window: BATCH_WINDOW,
        steal: true,
        ..BatchOptions::default()
    };
    let step = rec.begin("core.step");
    let cpu = self_cpu_s().unwrap_or(0.0);
    let started = Instant::now();
    let report = sim.run_batched(patterns, &batch);
    layers.step_cpu_s += self_cpu_s().unwrap_or(0.0) - cpu;
    rec.end(step);
    let origin = rec.us_at(started);
    if let Some(stats) = sim.sched_stats() {
        layers.tasks += stats.tasks;
        layers.steals += stats.steals;
        for t in &stats.spans {
            let dur_us = (t.end_micros - t.start_micros) as f64;
            layers.step_us.extend(std::iter::repeat_n(
                dur_us / f64::from(t.patterns.max(1)),
                t.patterns as usize,
            ));
            rec.push(Span {
                name: "task".to_owned(),
                parent: Some(step),
                track: 1 + t.worker,
                start_us: origin + t.start_micros as f64,
                dur_us,
                args: vec![
                    ("shard".to_owned(), t.shard.to_string()),
                    ("window".to_owned(), t.window.to_string()),
                    ("patterns".to_owned(), t.patterns.to_string()),
                ],
            });
        }
    }
    let statuses = rec.span("faults.expand", || report.statuses);
    layers.events += sim.events();
    layers.evals += sim.fault_evaluations();
    layers.simulated += faults.len() as u64;
    layers.detected += sim.detected() as u64;
    layers.peak_elements = layers.peak_elements.max(sim.peak_elements() as u64);
    layers.memory_bytes = layers.memory_bytes.max(sim.memory_bytes() as u64);
    statuses
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `fsim --patterns FILE`: one vector per line, `#` comments and blank
/// lines skipped, every vector as wide as the circuit's input list.
fn load_patterns(path: &Path, inputs: usize) -> Result<Vec<Vec<Logic>>, String> {
    let text = read(path)?;
    let mut patterns = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let p = parse_pattern(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if p.len() != inputs {
            return Err(format!(
                "{}:{}: {} bits for {inputs} inputs",
                path.display(),
                n + 1,
                p.len()
            ));
        }
        patterns.push(p);
    }
    Ok(patterns)
}

/// `fsim --detections FILE`: `pattern fault` per detected fault, sorted by
/// pattern then fault index.
fn write_detections(path: &Path, statuses: &[FaultStatus]) -> Result<(), String> {
    let dets = detections_of(statuses);
    let mut text = String::with_capacity(dets.len() * 12);
    for (fault, pattern) in &dets {
        text.push_str(&format!("{pattern} {fault}\n"));
    }
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
