//! Aggregate headline metrics for tables, benches, and JSON summaries.

use crate::timing::PhaseTimes;

/// Everything a results table needs about one finished simulation, in one
/// plain-data struct.
///
/// Produced either by [`crate::SimMetrics::snapshot`] (full detail, from an
/// instrumented engine) or by [`MetricsSnapshot::from_basic`] (headline
/// fields only, from a simulator that reports totals but has no probe —
/// the baselines). This is what lets all simulators flow through one
/// reporting code path: the renderers print dashes for fields a basic
/// snapshot cannot know.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Simulator name (e.g. `csim-MV`, `proofs`, `serial`).
    pub simulator: String,
    /// Circuit name.
    pub circuit: String,
    /// Patterns simulated.
    pub patterns: u64,
    /// Faults detected.
    pub detected: u64,
    /// Node activations (the paper's event count).
    pub events: u64,
    /// Good-machine gate evaluations.
    pub good_evals: u64,
    /// Faulty-machine gate evaluations.
    pub fault_evals: u64,
    /// Fault-list elements traversed in merge loops.
    pub traversed: u64,
    /// Elements emitted to visible lists.
    pub visible: u64,
    /// Divergences (faulty machine spawned).
    pub divergences: u64,
    /// Convergences (faulty machine re-joined the good machine).
    pub convergences: u64,
    /// Detected-fault elements purged.
    pub drops: u64,
    /// Mean fault-list length over end-of-pattern sweeps.
    pub avg_list_len: f64,
    /// Longest fault list ever observed.
    pub max_list_len: u64,
    /// `visible / traversed` over the whole run.
    pub visible_fraction: f64,
    /// `events / patterns`.
    pub events_per_pattern: f64,
    /// Peak event-queue depth at any level.
    pub queue_depth_peak: u64,
    /// Arena compaction passes run (end-of-pattern maintenance).
    pub compactions: u64,
    /// Live elements relocated by compaction passes.
    pub compacted_elements: u64,
    /// Faults moved off the concurrent lists into hot-fault lanes.
    pub promoted: u64,
    /// Most packed hot-fault words holding live faults at once.
    pub packed_words: u64,
    /// Packed word-node evaluations of the hot-fault words (one
    /// evaluation covers 64 lanes; not part of `fault_evals`).
    pub packed_evals: u64,
    /// Peak engine memory in bytes.
    pub peak_memory_bytes: u64,
    /// Total measured CPU seconds (phase sum, or the caller's wall time).
    pub cpu_seconds: f64,
    /// Full uncollapsed fault-universe size, when the run went through the
    /// static pruning pipeline (`0` otherwise). Set by the driver, not the
    /// probes: pruning happens before the first pattern.
    pub faults_full: u64,
    /// Faults actually simulated after exact collapsing plus static
    /// pruning (`0` when pruning was not used).
    pub faults_sim: u64,
    /// Full-universe faults proven unexcitable by constant propagation.
    pub pruned_unexcitable: u64,
    /// Full-universe faults proven unobservable by the reachability
    /// analysis.
    pub pruned_unobservable: u64,
    /// Full-universe faults proven conflict-untestable by implication
    /// learning (`--learn`): their mandatory assignments contradict.
    pub pruned_conflict: u64,
    /// Faults inside the affected cone of an incremental re-simulation —
    /// the set actually handed to the simulator (`0` when the run was not
    /// incremental). Stamped by the driver: the change-impact split
    /// happens before the first pattern.
    pub faults_affected: u64,
    /// Faults whose fate transferred verbatim from the baseline report
    /// instead of being re-simulated (`0` for non-incremental runs).
    pub faults_transferred: u64,
    /// Events captured by an attached trace recorder (`0` when tracing was
    /// off). Stamped by the driver, like the pruning counters: the
    /// recorder is drained after the run, outside any probe hook.
    pub trace_events: u64,
    /// Events the trace recorder discarded because its ring buffer was
    /// full (`0` when tracing was off or nothing overflowed).
    pub trace_dropped: u64,
    /// Pattern windows the two-dimensional scheduler ran (`0` for serial
    /// and unscheduled runs). Stamped by the driver from the scheduler's
    /// run record — a run-level fact, like the pruning counters.
    pub windows: u64,
    /// Tasks migrated between workers by stealing (`0` when the
    /// scheduler was off or never stole).
    pub steals: u64,
    /// Per-phase wall times (all zero for basic snapshots).
    pub phases: PhaseTimes,
}

impl MetricsSnapshot {
    /// Whether this snapshot carries probe-level detail (list lengths,
    /// visibility split) or only headline totals.
    pub fn has_detail(&self) -> bool {
        self.traversed > 0 || self.avg_list_len > 0.0
    }

    /// Builds a headline-only snapshot from the totals every simulator
    /// reports, for baselines without a probe. `evaluations` is counted as
    /// faulty-machine work, matching how the baseline reports mean it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_basic(
        simulator: &str,
        circuit: &str,
        patterns: u64,
        detected: u64,
        events: u64,
        evaluations: u64,
        memory_bytes: u64,
        cpu_seconds: f64,
    ) -> Self {
        MetricsSnapshot {
            simulator: simulator.to_string(),
            circuit: circuit.to_string(),
            patterns,
            detected,
            events,
            fault_evals: evaluations,
            events_per_pattern: if patterns == 0 {
                0.0
            } else {
                events as f64 / patterns as f64
            },
            peak_memory_bytes: memory_bytes,
            cpu_seconds,
            ..MetricsSnapshot::default()
        }
    }

    /// Peak memory in megabytes.
    pub fn peak_memory_megabytes(&self) -> f64 {
        self.peak_memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Folds another shard's snapshot of the *same run* into this one, for
    /// fault-sharded parallel simulation where each worker engine records
    /// its own probe.
    ///
    /// Work counters (events, evaluations, traversals, divergences, …) and
    /// memory sum — every shard does distinct work and owns distinct
    /// storage. `patterns` takes the maximum, because all shards simulate
    /// the *same* pattern sequence. Peaks (`max_list_len`,
    /// `queue_depth_peak`) take the maximum; `cpu_seconds` too, since
    /// shards run concurrently and the slowest one bounds the wall clock.
    /// The derived rates (`avg_list_len`, `visible_fraction`,
    /// `events_per_pattern`) are recomputed from the merged sums, with
    /// `avg_list_len` weighted by each side's traversal volume.
    pub fn merge_shard(&mut self, other: &MetricsSnapshot) {
        let w_self = self.traversed as f64;
        let w_other = other.traversed as f64;
        self.avg_list_len = if w_self + w_other > 0.0 {
            (self.avg_list_len * w_self + other.avg_list_len * w_other) / (w_self + w_other)
        } else {
            0.0
        };
        self.patterns = self.patterns.max(other.patterns);
        self.detected += other.detected;
        self.events += other.events;
        self.good_evals += other.good_evals;
        self.fault_evals += other.fault_evals;
        self.traversed += other.traversed;
        self.visible += other.visible;
        self.divergences += other.divergences;
        self.convergences += other.convergences;
        self.drops += other.drops;
        self.max_list_len = self.max_list_len.max(other.max_list_len);
        self.visible_fraction = if self.traversed == 0 {
            0.0
        } else {
            self.visible as f64 / self.traversed as f64
        };
        self.events_per_pattern = if self.patterns == 0 {
            0.0
        } else {
            self.events as f64 / self.patterns as f64
        };
        self.queue_depth_peak = self.queue_depth_peak.max(other.queue_depth_peak);
        self.compactions += other.compactions;
        self.compacted_elements += other.compacted_elements;
        // Each shard packs its own faults: promotions, words and packed
        // work all sum.
        self.promoted += other.promoted;
        self.packed_words += other.packed_words;
        self.packed_evals += other.packed_evals;
        self.peak_memory_bytes += other.peak_memory_bytes;
        self.cpu_seconds = self.cpu_seconds.max(other.cpu_seconds);
        // Universe-level facts, identical on every shard of a run: max
        // keeps them stable whether the driver stamps them before or after
        // the merge.
        self.faults_full = self.faults_full.max(other.faults_full);
        self.faults_sim = self.faults_sim.max(other.faults_sim);
        self.pruned_unexcitable = self.pruned_unexcitable.max(other.pruned_unexcitable);
        self.pruned_unobservable = self.pruned_unobservable.max(other.pruned_unobservable);
        self.pruned_conflict = self.pruned_conflict.max(other.pruned_conflict);
        self.faults_affected = self.faults_affected.max(other.faults_affected);
        self.faults_transferred = self.faults_transferred.max(other.faults_transferred);
        // Per-shard recorders capture disjoint event streams: sum.
        self.trace_events += other.trace_events;
        self.trace_dropped += other.trace_dropped;
        // Scheduler facts describe the run, not a shard: max keeps them
        // stable no matter when the driver stamps them.
        self.windows = self.windows.max(other.windows);
        self.steals = self.steals.max(other.steals);
        self.phases.merge(&other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_snapshot_has_no_detail() {
        let s = MetricsSnapshot::from_basic("proofs", "s27", 10, 25, 400, 900, 1 << 20, 0.5);
        assert!(!s.has_detail());
        assert_eq!(s.patterns, 10);
        assert_eq!(s.fault_evals, 900);
        assert!((s.events_per_pattern - 40.0).abs() < 1e-12);
        assert!((s.peak_memory_megabytes() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_patterns_does_not_divide() {
        let s = MetricsSnapshot::from_basic("serial", "s27", 0, 0, 0, 0, 0, 0.0);
        assert_eq!(s.events_per_pattern, 0.0);
    }

    #[test]
    fn shard_merge_sums_work_and_maxes_peaks() {
        let mut a = MetricsSnapshot::from_basic("csim", "s27", 10, 4, 100, 300, 1000, 0.25);
        a.traversed = 60;
        a.visible = 30;
        a.avg_list_len = 8.0;
        a.max_list_len = 12;
        a.queue_depth_peak = 5;
        let mut b = MetricsSnapshot::from_basic("csim", "s27", 10, 6, 140, 500, 2000, 0.75);
        b.traversed = 20;
        b.visible = 10;
        b.avg_list_len = 4.0;
        b.max_list_len = 20;
        b.queue_depth_peak = 3;
        a.merge_shard(&b);
        assert_eq!(a.patterns, 10, "same run: patterns max, not sum");
        assert_eq!(a.detected, 10);
        assert_eq!(a.events, 240);
        assert_eq!(a.fault_evals, 800);
        assert_eq!(a.traversed, 80);
        assert_eq!(a.visible, 40);
        assert_eq!(a.max_list_len, 20);
        assert_eq!(a.queue_depth_peak, 5);
        assert_eq!(a.peak_memory_bytes, 3000);
        assert!((a.cpu_seconds - 0.75).abs() < 1e-12, "concurrent: max");
        assert!((a.visible_fraction - 0.5).abs() < 1e-12);
        assert!((a.events_per_pattern - 24.0).abs() < 1e-12);
        // avg_list_len weighted 60:20 → (8*60 + 4*20) / 80 = 7.0
        assert!((a.avg_list_len - 7.0).abs() < 1e-12);
    }

    #[test]
    fn shard_merge_keeps_universe_facts_stable() {
        let mut a = MetricsSnapshot::from_basic("csim", "s27", 5, 2, 50, 80, 100, 0.1);
        a.faults_full = 200;
        a.faults_affected = 40;
        a.faults_transferred = 160;
        let mut b = MetricsSnapshot::from_basic("csim", "s27", 5, 1, 30, 60, 100, 0.2);
        b.faults_full = 200;
        b.faults_affected = 40;
        b.faults_transferred = 160;
        a.merge_shard(&b);
        assert_eq!(a.faults_affected, 40, "universe facts max, not sum");
        assert_eq!(a.faults_transferred, 160);
        // Stamping only after the merge works too.
        let mut unstamped = MetricsSnapshot::default();
        unstamped.merge_shard(&a);
        assert_eq!(unstamped.faults_affected, 40);
    }

    #[test]
    fn shard_merge_with_empty_shard_is_identity_on_rates() {
        let mut a = MetricsSnapshot::from_basic("csim", "s27", 5, 2, 50, 80, 100, 0.1);
        a.traversed = 10;
        a.visible = 5;
        a.avg_list_len = 3.0;
        let empty = MetricsSnapshot::default();
        a.merge_shard(&empty);
        assert!((a.avg_list_len - 3.0).abs() < 1e-12);
        assert!((a.visible_fraction - 0.5).abs() < 1e-12);
        assert_eq!(a.patterns, 5);
    }
}
