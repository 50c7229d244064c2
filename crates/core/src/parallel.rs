//! Fault-sharded parallel simulation.
//!
//! The concurrent algorithm's fault universe is embarrassingly
//! partitionable: every faulty machine lives on its own list elements and
//! never interacts with another fault, so splitting the fault list across
//! `P` independent engines changes nothing about per-fault semantics.
//! [`ShardedSim`] exploits exactly that, once, for any [`FaultMachine`]
//! — [`ParallelSim`] (stuck-at) and [`ParallelTransitionSim`] (the §3
//! transition model) are its two instantiations:
//!
//! * the fault list is dealt round-robin ([`round_robin_shards`]) into
//!   `P` exact-cover shards, one machine per shard, and never into more
//!   shards than faults,
//! * the **good machine is evaluated once per pattern** by a fault-free
//!   engine and its settled node values are shared read-only with every
//!   shard ([`FaultMachine::step_with`]), eliminating the per-shard
//!   redundancy of re-simulating the identical good machine,
//! * the pattern sequence is split into **windows**
//!   ([`BatchOptions::window`]), and (shard × window) tasks run on a
//!   work-stealing scheduler ([`crate::batch`]): per-worker deques,
//!   idle workers stealing runnable shards, the caller's thread
//!   producing good traces with bounded lookahead — one scheduler scope
//!   per run, so a long-pole shard does not bound wall time the way a
//!   per-block barrier would,
//! * sequential DFF/arena state hands off at window boundaries by
//!   construction: each shard's engine carries its own state, and the
//!   scheduler runs a shard's windows strictly in order,
//! * results merge deterministically — statuses by global fault index,
//!   detections sorted by `(pattern, fault id)` — so the output is
//!   bit-identical for any (window size, thread count, steal schedule),
//!   including `P = 1`, which skips the good-trace machinery entirely
//!   (the good engine is only built when a run schedules) and runs the
//!   serial machine's own path.
//!
//! Every scheduled run reads the same good machine, one scalar
//! [`Engine::good_cycle`] per pattern, so the merged counters depend on
//! the shard count but never on the window size or the schedule.
//!
//! Determinism needs no locks because fault detection is a per-fault fact:
//! whether (and at which pattern) fault `f` is detected depends only on
//! the circuit, the pattern sequence, and `f` itself — never on which
//! other faults share its engine, which worker runs it, or how its
//! pattern sequence is windowed (the traces a window consumes are the
//! same values the serial good machine computes, and the engine state a
//! window starts from is exactly the state the previous window
//! committed).

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cfs_faults::{FaultSimReport, FaultStatus};
use cfs_logic::Logic;
use cfs_netlist::Circuit;
use cfs_telemetry::{MetricsSnapshot, NullProbe, Probe, SimMetrics};

use crate::batch::{run_windows, seeded_schedule, window_bounds, BatchOptions, SchedStats};
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::engine::Engine;
use crate::machine::FaultMachine;
use crate::stuck::ConcurrentSim;
use crate::transition::TransitionSim;

/// How the fault list is split across shards. Round-robin is the one
/// partition ([`round_robin_shards`]); the type remains only because
/// [`ShardedSim::with_probes_sharded`] still names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPlan {
    /// Fault `i` goes to shard `i mod P`.
    #[default]
    RoundRobin,
}

/// Deals fault indices `0..faults` round-robin over `min(shards, faults)`
/// shards, at least one: fault `i` goes to shard `i mod P`. Site-adjacent
/// faults (which the enumeration orders together) spread across shards.
///
/// The result is an exact cover: every index in exactly one shard, each
/// shard sorted ascending, sizes within one of each other, and no shard
/// empty unless the universe is.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn round_robin_shards(faults: usize, shards: usize) -> Vec<Vec<usize>> {
    assert!(shards > 0, "at least one shard");
    let shards = shards.min(faults).max(1);
    (0..shards)
        .map(|k| (k..faults).step_by(shards).collect())
        .collect()
}

/// A detection in global fault-index terms: `(fault index, pattern)`.
pub type GlobalDetection = (u32, u32);

/// The deterministic detection list of a status vector: every detected
/// fault as `(fault index, pattern)`, sorted by pattern then fault index —
/// the merge order the differential harness pins.
pub fn detections_of(statuses: &[FaultStatus]) -> Vec<GlobalDetection> {
    let mut dets: Vec<GlobalDetection> = statuses
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            FaultStatus::Detected { pattern } => Some((i as u32, *pattern as u32)),
            _ => None,
        })
        .collect();
    dets.sort_unstable_by_key(|&(f, p)| (p, f));
    dets
}

/// Panics unless `parts` is an exact cover of `0..n` with each part
/// sorted ascending — the invariant every shard constructor relies on.
fn assert_exact_cover(parts: &[Vec<usize>], n: usize) {
    let mut seen = vec![false; n];
    for part in parts {
        assert!(
            part.windows(2).all(|w| w[0] < w[1]),
            "shard indices must be sorted ascending"
        );
        for &i in part {
            assert!(i < n, "fault index {i} out of range (universe {n})");
            assert!(
                !std::mem::replace(&mut seen[i], true),
                "fault {i} appears in more than one shard"
            );
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "partition drops faults: not an exact cover"
    );
}

struct Shard<M> {
    machine: M,
    /// Global fault index per local fault id (ascending).
    global: Vec<usize>,
}

/// Fault-sharded parallel simulator over any [`FaultMachine`]: `P`
/// machines over disjoint fault shards, one shared good machine.
///
/// [`ParallelSim`] (stuck-at) and [`ParallelTransitionSim`] (the §3
/// transition model) are its two instantiations. The per-fault
/// previous-pin state and the transition latch stash live inside each
/// shard's own engine, so sharding changes nothing about either model's
/// semantics.
///
/// With one shard, the shard holds every fault and runs the exact serial
/// code path: no good machine is built, no trace is produced, no worker
/// thread starts. A universe of one fault (or none) always has one shard.
///
/// # Examples
///
/// ```
/// use cfs_core::{CsimVariant, ParallelSim};
/// use cfs_faults::collapse_stuck_at;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = collapse_stuck_at(&circuit).representatives;
/// let mut par = ParallelSim::new(&circuit, &faults, CsimVariant::Mv.options(), 4);
/// let mut serial = ParallelSim::new(&circuit, &faults, CsimVariant::Mv.options(), 1);
/// let patterns: Vec<_> = ["0000", "1111", "0101", "1010"]
///     .iter()
///     .map(|p| parse_pattern(p))
///     .collect::<Result<_, _>>()?;
/// let rp = par.run(&patterns);
/// let rs = serial.run(&patterns);
/// assert_eq!(rp.statuses, rs.statuses);
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub struct ShardedSim<M> {
    shards: Vec<Shard<M>>,
    /// Fault-free engine advancing the shared good machine. Built on the
    /// first scheduled run, so serial runs never pay for it.
    good: Option<Engine>,
    circuit_name: String,
    num_faults: usize,
    /// Requested worker threads: the run's name. The scheduler starts at
    /// most one worker per shard.
    threads: usize,
    /// Scheduler statistics of the most recent scheduled run.
    sched: Option<SchedStats>,
}

/// Fault-sharded stuck-at simulator (all four `csim` variants).
pub type ParallelSim<P = NullProbe> = ShardedSim<ConcurrentSim<P>>;

/// Fault-sharded transition simulator (§3 model, two passes per cycle).
pub type ParallelTransitionSim<P = NullProbe> = ShardedSim<TransitionSim<P>>;

impl<M: FaultMachine> fmt::Debug for ShardedSim<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSim")
            .field("simulator", &self.name_str())
            .field("circuit", &self.circuit_name)
            .field("faults", &self.num_faults)
            .field("threads", &self.threads)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<M: FaultMachine<Probe = NullProbe>> ShardedSim<M> {
    /// Shards `faults` into `threads` machines. Each shard carries no
    /// probe and pays no instrumentation cost.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: M::Options,
        threads: usize,
    ) -> Self {
        Self::with_probes(circuit, faults, options, threads, |_| NullProbe)
    }
}

impl<M: FaultMachine<Probe = SimMetrics>> ShardedSim<M> {
    /// Like [`ShardedSim::new`], but every shard records a [`SimMetrics`]
    /// probe; [`ShardedSim::snapshot`] merges them.
    pub fn instrumented(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: M::Options,
        threads: usize,
    ) -> Self {
        Self::with_probes(circuit, faults, options, threads, |_| SimMetrics::new())
    }

    /// Telemetry merged across all shards (see [`ShardedSim::snapshot_by`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_by(|m| m)
    }

    /// Per-shard metric recorders, in shard order.
    pub fn shard_metrics(&self) -> impl Iterator<Item = &SimMetrics> {
        self.shards.iter().map(|s| s.machine.probe())
    }
}

impl<P: Probe> ShardedSim<ConcurrentSim<P>> {
    /// [`ConcurrentSim::set_hot_threshold`] on every shard.
    #[doc(hidden)]
    pub fn set_hot_threshold(&mut self, min_visible: u32) {
        for shard in &mut self.shards {
            shard.machine.set_hot_threshold(min_visible);
        }
    }
}

impl<M: FaultMachine> ShardedSim<M> {
    /// Shards `faults` into `threads` machines, attaching
    /// `probe(shard_index)` to each shard: the hook for per-shard trace
    /// recorders and other custom probes.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_probes(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: M::Options,
        threads: usize,
        probe: impl FnMut(usize) -> M::Probe,
    ) -> Self {
        Self::with_shards(circuit, faults, options, threads, threads, probe)
    }

    /// [`ShardedSim::with_probes`] with the two parallelism axes
    /// decoupled: `faults` dealt round-robin into `shards` partitions
    /// ([`round_robin_shards`]: never more shards than faults) driven by
    /// `threads` workers. Oversharding (`shards > threads`) gives the
    /// work-stealing scheduler spare tasks to migrate, so a long-pole
    /// shard no longer pins wall time to one worker's pace.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `shards == 0`.
    pub fn with_shards(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: M::Options,
        threads: usize,
        shards: usize,
        probe: impl FnMut(usize) -> M::Probe,
    ) -> Self {
        let parts = round_robin_shards(faults.len(), shards);
        Self::from_parts(circuit, faults, options, threads, parts, probe)
    }

    /// [`ShardedSim::with_shards`] under the signature that also named a
    /// partition: `plan` has one value and `keys` must be `None`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is given, or where [`ShardedSim::with_shards`]
    /// does.
    #[allow(clippy::too_many_arguments)]
    pub fn with_probes_sharded(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: M::Options,
        threads: usize,
        shards: usize,
        plan: ShardPlan,
        keys: Option<&[u32]>,
        probe: impl FnMut(usize) -> M::Probe,
    ) -> Self {
        let ShardPlan::RoundRobin = plan;
        assert!(
            keys.is_none(),
            "the round-robin partition takes no balance keys"
        );
        Self::with_shards(circuit, faults, options, threads, shards, probe)
    }

    /// Builds the simulator from an explicit fault partition — the hook
    /// for adversarial load shapes (one giant shard plus empties) that the
    /// round-robin deal never produces. `parts[k]` lists shard `k`'s
    /// global fault indices.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `parts` is empty, a part is not sorted
    /// ascending, or `parts` is not an exact cover of
    /// `0..faults.len()` (every index in exactly one part).
    pub fn with_partition(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: M::Options,
        threads: usize,
        parts: Vec<Vec<usize>>,
        probe: impl FnMut(usize) -> M::Probe,
    ) -> Self {
        assert!(!parts.is_empty(), "at least one shard");
        Self::from_parts(circuit, faults, options, threads, parts, probe)
    }

    fn from_parts(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: M::Options,
        threads: usize,
        parts: Vec<Vec<usize>>,
        mut probe: impl FnMut(usize) -> M::Probe,
    ) -> Self {
        assert!(threads > 0, "at least one thread");
        assert_exact_cover(&parts, faults.len());
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(k, global)| {
                // A part as large as the universe is the identity (exact
                // cover, sorted): build it on the caller's list, exactly
                // as the serial machine is built.
                let machine = if global.len() == faults.len() {
                    M::build(circuit, faults, options.clone(), probe(k))
                } else {
                    let subset: Vec<M::Fault> = global.iter().map(|&i| faults[i]).collect();
                    M::build(circuit, &subset, options.clone(), probe(k))
                };
                Shard { machine, global }
            })
            .collect();
        ShardedSim {
            shards,
            good: None,
            circuit_name: circuit.name().to_owned(),
            num_faults: faults.len(),
            threads,
            sched: None,
        }
    }

    /// Requested worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fault-shard count: the requested count, capped at the number of
    /// faults.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Scheduler statistics of the most recent scheduled run: task spans,
    /// steal events, totals. `None` before any run and after serial runs.
    pub fn sched_stats(&self) -> Option<&SchedStats> {
        self.sched.as_ref()
    }

    /// One shard: runs take the serial path, whatever the thread count
    /// and batch options.
    fn is_serial(&self) -> bool {
        self.shards.len() == 1
    }

    /// The machine's name, with `-p{threads}` on every multi-shard run
    /// (so `--threads 1 --steal`, two shards on one worker, is `-p1`).
    fn name_str(&self) -> String {
        let base = self.shards[0].machine.name();
        if self.is_serial() {
            base.to_owned()
        } else {
            format!("{base}-p{}", self.threads)
        }
    }

    /// Forces every shard's per-pattern invariant verifier on (or off)
    /// regardless of the build profile — the CLI's `--paranoid`.
    pub fn set_paranoid(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.machine.set_paranoid(on);
        }
    }

    /// Per-shard probes paired with their global fault maps
    /// (`map[local id] = global index`), in shard order — what a trace
    /// exporter needs to merge shard streams onto global fault ids.
    pub fn shard_probes(&self) -> impl Iterator<Item = (&M::Probe, &[usize])> {
        self.shards
            .iter()
            .map(|s| (s.machine.probe(), s.global.as_slice()))
    }

    /// Telemetry merged across all shards, reading each shard's
    /// [`SimMetrics`] through `metrics` (e.g. the metrics half of a paired
    /// probe): counters summed, peaks maxed, rates recomputed (see
    /// [`MetricsSnapshot::merge_shard`]). The good engine's once-per-pattern
    /// work is folded into the event and good-evaluation totals so the sum
    /// stays comparable to a serial run.
    pub fn snapshot_by(&self, metrics: impl Fn(&M::Probe) -> &SimMetrics) -> MetricsSnapshot {
        let mut merged: Option<MetricsSnapshot> = None;
        for shard in &self.shards {
            let snap = metrics(shard.machine.probe()).snapshot("", &self.circuit_name);
            match merged.as_mut() {
                None => merged = Some(snap),
                Some(m) => m.merge_shard(&snap),
            }
        }
        let mut snap = merged.unwrap_or_default();
        snap.simulator = self.name_str();
        snap.circuit = self.circuit_name.clone();
        if let Some(good) = &self.good {
            snap.events += good.events;
            snap.good_evals += good.good_evals;
        }
        if let Some(st) = &self.sched {
            snap.windows = st.windows as u64;
            snap.steals = st.steals;
        }
        snap
    }

    /// Captures a pattern-boundary checkpoint of an unsharded simulator.
    /// Call only between runs.
    ///
    /// # Panics
    ///
    /// Panics unless the simulator has exactly one shard: a checkpoint
    /// captures one engine.
    pub fn checkpoint(&self) -> Checkpoint {
        assert_eq!(self.shards.len(), 1, "a checkpoint captures one engine");
        self.shards[0].machine.checkpoint()
    }

    /// Restores a checkpoint into an unsharded simulator built like the
    /// one that captured it.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the checkpoint does not match the
    /// simulator's configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the simulator has exactly one shard.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        assert_eq!(self.shards.len(), 1, "a checkpoint restores one engine");
        self.shards[0].machine.restore(ck)
    }

    fn report(&self, patterns: usize, cpu: Duration) -> FaultSimReport {
        FaultSimReport {
            simulator: self.name_str(),
            circuit: self.circuit_name.clone(),
            patterns,
            statuses: self.statuses(),
            cpu,
            memory_bytes: self.memory_bytes(),
            events: self.events(),
            evaluations: self.fault_evaluations(),
        }
    }

    /// Per-fault statuses in the global fault order given to the
    /// constructor — bit-identical for any thread count.
    pub fn statuses(&self) -> Vec<FaultStatus> {
        let mut statuses = vec![FaultStatus::Undetected; self.num_faults];
        for shard in &self.shards {
            for (&g, s) in shard.global.iter().zip(shard.machine.statuses()) {
                statuses[g] = s;
            }
        }
        statuses
    }

    /// The deterministic merged detection list: `(global fault index,
    /// pattern)` sorted by pattern, then fault index.
    pub fn detections(&self) -> Vec<GlobalDetection> {
        detections_of(&self.statuses())
    }

    /// Faults detected so far.
    pub fn detected(&self) -> usize {
        self.shards.iter().map(|s| s.machine.detected()).sum()
    }

    /// Node activations across all shards plus the shared good engine.
    pub fn events(&self) -> u64 {
        self.good.as_ref().map_or(0, |g| g.events)
            + self.shards.iter().map(|s| s.machine.events()).sum::<u64>()
    }

    /// Faulty-machine evaluations across all shards.
    pub fn fault_evaluations(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.machine.fault_evaluations())
            .sum()
    }

    /// Paper-comparable memory model summed over shards and the good
    /// engine.
    pub fn memory_bytes(&self) -> usize {
        let good = match &self.good {
            Some(g) if !self.is_serial() => g.memory_bytes(),
            _ => 0,
        };
        good + self
            .shards
            .iter()
            .map(|s| s.machine.memory_bytes())
            .sum::<usize>()
    }

    /// Peak live fault elements: the maximum over shards. Shards run the
    /// same pattern sequence concurrently, so the run's high-water mark is
    /// the largest single arena, not the sum of per-shard peaks (which
    /// need not coincide in time).
    pub fn peak_elements(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.machine.peak_elements())
            .max()
            .unwrap_or(0)
    }
}

/// A fault-free engine on `machine`'s compiled network: the good machine
/// every shard of a scheduled run reads its traces from.
fn good_engine<M: FaultMachine>(machine: &M) -> Engine {
    let engine = machine.engine();
    Engine::with_probe(
        engine.net.fault_free(),
        engine.split,
        engine.drop_detected,
        NullProbe,
    )
}

/// The settled good trace of every pattern in `patterns`, in order: the
/// window trace every shard of a scheduled run reads.
fn good_traces(good: &mut Engine, patterns: &[Vec<Logic>]) -> Vec<Vec<Logic>> {
    patterns.iter().map(|p| good.good_cycle(p)).collect()
}

impl<M: FaultMachine + Send> ShardedSim<M> {
    /// Simulates a pattern sequence under the default [`BatchOptions`]
    /// (no stealing: `fsim sim --threads N`'s schedule) and assembles the
    /// merged report.
    pub fn run(&mut self, patterns: &[Vec<Logic>]) -> FaultSimReport {
        self.run_batched(patterns, &BatchOptions::default())
    }

    /// Runs under explicit [`BatchOptions`]: `(shard × window)` tasks on
    /// the work-stealing scheduler, the two-dimensional (pattern-window ×
    /// fault-shard) mode. Both passes of a transition cycle consume the
    /// same settled good trace. A one-shard simulator takes the serial
    /// path whatever `batch` says. Detections are bit-identical to the
    /// serial simulator for any window size, thread count, and steal
    /// schedule.
    pub fn run_batched(&mut self, patterns: &[Vec<Logic>], batch: &BatchOptions) -> FaultSimReport {
        self.run_batched_with(patterns, batch, |_, _| {})
    }

    /// [`ShardedSim::run_batched`] that calls `after(self, done)` on the
    /// coordinating thread as patterns settle on every shard (`done` =
    /// patterns completed so far): after every pattern on the serial path,
    /// after every window on scheduled runs. The callback sees quiescent
    /// shards, so it may read per-shard probes and merge them — the
    /// deterministic hook behind `--trace-every` progress. On scheduled
    /// runs the callbacks replay after the workers finish; because probes
    /// record per-pattern, the merged view at each boundary is identical
    /// to a barriered run's.
    ///
    /// The good machine produces window traces on the caller's thread
    /// while `threads` workers drain shard deques, stepping each pattern
    /// of the task's window against its trace. Shards are handed to
    /// workers through uncontended `Mutex` slots: the scheduler runs a
    /// shard's windows strictly in order, so no two workers ever hold the
    /// same shard (each lock is a formality the type system demands,
    /// never a wait).
    ///
    /// Determinism: per-shard work is identical to a serial walk of that
    /// shard over the full pattern sequence (same engine, same pattern
    /// order, same good traces), so merged results cannot depend on worker
    /// count or steal schedule.
    pub fn run_batched_with(
        &mut self,
        patterns: &[Vec<Logic>],
        batch: &BatchOptions,
        mut after: impl FnMut(&Self, usize),
    ) -> FaultSimReport {
        let start = Instant::now();
        if self.is_serial() {
            for (i, p) in patterns.iter().enumerate() {
                self.shards[0].machine.step_with(p, None);
                after(self, i + 1);
            }
            return self.report(patterns.len(), start.elapsed());
        }
        let bounds = window_bounds(patterns.len(), batch.window);
        let stats = {
            let Self {
                shards,
                good,
                threads,
                ..
            } = self;
            let good = good.get_or_insert_with(|| good_engine(&shards[0].machine));
            let sizes: Vec<usize> = bounds.iter().map(|&(lo, hi)| hi - lo).collect();
            let slots: Vec<Mutex<&mut Shard<M>>> = shards.iter_mut().map(Mutex::new).collect();
            run_windows(
                *threads,
                slots.len(),
                &sizes,
                batch.steal,
                batch.steal_seed,
                |w| {
                    let (lo, hi) = bounds[w];
                    good_traces(good, &patterns[lo..hi])
                },
                |s, w, trace: &Vec<Vec<Logic>>| {
                    let mut shard = slots[s].lock().expect("uncontended shard slot");
                    let (lo, hi) = bounds[w];
                    for (p, t) in patterns[lo..hi].iter().zip(trace.iter()) {
                        shard.machine.step_with(p, Some(t));
                    }
                },
            )
        };
        self.sched = Some(stats);
        let mut done = 0usize;
        for &(lo, hi) in &bounds {
            done += hi - lo;
            after(self, done);
        }
        self.report(patterns.len(), start.elapsed())
    }

    /// Single-threaded replay of the deterministic steal interleaving
    /// [`seeded_schedule`] derives from `schedule_seed` — every
    /// `(shard × window)` task runs exactly once, shards in window order
    /// but interleaved across shards according to the seed. Exists so
    /// tests can prove merge output is independent of task interleaving
    /// without relying on OS thread timing.
    pub fn run_seeded(
        &mut self,
        patterns: &[Vec<Logic>],
        batch: &BatchOptions,
        schedule_seed: u64,
    ) -> FaultSimReport {
        let start = Instant::now();
        let bounds = window_bounds(patterns.len(), batch.window);
        {
            let Self { shards, good, .. } = self;
            let good = good.get_or_insert_with(|| good_engine(&shards[0].machine));
            let order = seeded_schedule(shards.len(), bounds.len(), schedule_seed);
            let mut traces: Vec<Option<Vec<Vec<Logic>>>> = Vec::new();
            traces.resize_with(bounds.len(), || None);
            let mut remaining = vec![shards.len(); bounds.len()];
            let mut produced = 0usize;
            for (s, w) in order {
                while produced <= w {
                    let (lo, hi) = bounds[produced];
                    traces[produced] = Some(good_traces(good, &patterns[lo..hi]));
                    produced += 1;
                }
                let (lo, hi) = bounds[w];
                let trace = traces[w].as_ref().expect("windows produce in order");
                for (p, t) in patterns[lo..hi].iter().zip(trace.iter()) {
                    shards[s].machine.step_with(p, Some(t));
                }
                remaining[w] -= 1;
                if remaining[w] == 0 {
                    traces[w] = None; // same retirement rule as the scheduler
                }
            }
        }
        self.sched = None;
        self.report(patterns.len(), start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stuck::CsimVariant;
    use crate::transition::TransitionOptions;
    use cfs_faults::{enumerate_stuck_at, enumerate_transition};
    use cfs_logic::parse_pattern;
    use cfs_netlist::data::s27;

    fn patterns() -> Vec<Vec<Logic>> {
        [
            "0000", "1111", "0101", "1010", "0011", "1100", "0110", "1001",
        ]
        .iter()
        .map(|p| parse_pattern(p).unwrap())
        .collect()
    }

    #[test]
    fn round_robin_is_an_exact_cover_without_empty_shards() {
        for faults in [0, 1, 2, 5, 37] {
            for shards in [1, 2, 3, 5, 37, 50] {
                let parts = round_robin_shards(faults, shards);
                assert_eq!(parts.len(), shards.min(faults).max(1));
                assert!(faults == 0 || parts.iter().all(|p| !p.is_empty()));
                let mut all: Vec<usize> = parts.concat();
                all.sort_unstable();
                assert_eq!(all, (0..faults).collect::<Vec<_>>(), "{faults} / {shards}");
                for (k, part) in parts.iter().enumerate() {
                    assert!(part.iter().all(|&i| i % parts.len() == k));
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_s27() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let mut serial = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        let reference = serial.run(&patterns());
        for threads in [1, 2, 3, 5] {
            let mut par = ParallelSim::new(&c, &faults, CsimVariant::Mv.options(), threads);
            let report = par.run(&patterns());
            assert_eq!(report.statuses, reference.statuses, "threads={threads}");
            // P = 1 skips the good-trace machinery entirely.
            assert_eq!(par.good.is_some(), threads > 1, "threads={threads}");
        }
        // More shards than faults: one shard per fault, named for the
        // requested threads.
        let mut par =
            ParallelSim::with_shards(&c, &faults[..3], CsimVariant::Mv.options(), 8, 16, |_| {
                NullProbe
            });
        assert_eq!(par.num_shards(), 3);
        assert!(par.run(&patterns()).simulator.ends_with("-p8"));
        assert_eq!(par.sched_stats().map(|s| s.workers), Some(3));
    }

    #[test]
    fn parallel_transition_matches_serial_on_s27() {
        let c = s27();
        let faults = enumerate_transition(&c);
        let mut serial = TransitionSim::new(&c, &faults, TransitionOptions::default());
        let reference = serial.run(&patterns());
        for threads in [1, 2, 4] {
            let mut par =
                ParallelTransitionSim::new(&c, &faults, TransitionOptions::default(), threads);
            let report = par.run(&patterns());
            assert_eq!(report.statuses, reference.statuses, "threads={threads}");
        }
    }

    #[test]
    fn detections_sorted_by_pattern_then_fault() {
        let statuses = vec![
            FaultStatus::Detected { pattern: 3 },
            FaultStatus::Undetected,
            FaultStatus::Detected { pattern: 0 },
            FaultStatus::Detected { pattern: 3 },
            FaultStatus::Untestable,
            FaultStatus::Detected { pattern: 1 },
        ];
        assert_eq!(
            detections_of(&statuses),
            vec![(2, 0), (5, 1), (0, 3), (3, 3)]
        );
    }

    #[test]
    fn merged_snapshot_counts_all_shards() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let mut par = ParallelSim::instrumented(&c, &faults, CsimVariant::Mv.options(), 3);
        let report = par.run(&patterns());
        let snap = par.snapshot();
        assert_eq!(snap.patterns as usize, patterns().len());
        assert_eq!(snap.detected as usize, report.detected());
        assert_eq!(snap.events, report.events);
        assert_eq!(snap.fault_evals, report.evaluations);
        assert!(snap.simulator.ends_with("-p3"), "{}", snap.simulator);
    }
}
