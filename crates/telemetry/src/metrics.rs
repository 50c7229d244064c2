//! The recording probe: per-pattern counters and their accumulation.

use std::time::Instant;

use crate::hist::Log2Histogram;
use crate::probe::Probe;
use crate::snapshot::MetricsSnapshot;
use crate::timing::{Phase, PhaseTimes};

/// Raw event counts accumulated while one pattern simulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternCounters {
    /// Nodes taken off the event queue and evaluated.
    pub activations: u64,
    /// Good-machine gate evaluations.
    pub good_evals: u64,
    /// Faulty-machine gate evaluations.
    pub fault_evals: u64,
    /// Fault-list elements traversed by the merge loop.
    pub traversed: u64,
    /// Elements written to visible output lists.
    pub visible: u64,
    /// Faulty machines that diverged from the good machine.
    pub divergences: u64,
    /// Faulty machines that converged back to the good machine.
    pub convergences: u64,
    /// Detected-fault elements purged (fault dropping).
    pub drops: u64,
    /// Faults newly detected at primary outputs.
    pub detected: u64,
    /// Peak event-queue depth seen at any level.
    pub queue_peak: u64,
    /// DFF update-stash entries collected at the clock edge.
    pub dff_stash: u64,
    /// Faults moved into hot-fault lanes (at a promotion sweep).
    pub promoted: u64,
    /// Packed word-node evaluations of the hot-fault words.
    pub packed_evals: u64,
    /// Most packed words holding live faults at once.
    pub packed_words: u64,
}

impl PatternCounters {
    /// Adds every field of `other` into `self` (`queue_peak` takes the max).
    pub fn merge(&mut self, other: &PatternCounters) {
        self.activations += other.activations;
        self.good_evals += other.good_evals;
        self.fault_evals += other.fault_evals;
        self.traversed += other.traversed;
        self.visible += other.visible;
        self.divergences += other.divergences;
        self.convergences += other.convergences;
        self.drops += other.drops;
        self.detected += other.detected;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.dff_stash += other.dff_stash;
        self.promoted += other.promoted;
        self.packed_evals += other.packed_evals;
        self.packed_words = self.packed_words.max(other.packed_words);
    }
}

/// One pattern's finished record: its counters plus list-length stats from
/// the end-of-pattern sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PatternRecord {
    /// Zero-based pattern index.
    pub pattern: u64,
    /// The counters accumulated during this pattern.
    pub counters: PatternCounters,
    /// Mean fault-list length over all nodes at end of pattern.
    pub avg_list_len: f64,
    /// Longest fault list at end of pattern.
    pub max_list_len: u64,
}

/// The recording [`Probe`]: accumulates counters per pattern, histograms
/// across patterns, and phase wall times.
///
/// Attach it to an engine (`ConcurrentSim::instrumented` in `cfs-core`),
/// run, then read the per-pattern [`records`](Self::records) or collapse
/// everything with [`snapshot`](Self::snapshot).
#[derive(Debug, Clone)]
pub struct SimMetrics {
    current: PatternCounters,
    current_pattern: u64,
    pattern_list_hist: Log2Histogram,
    records: Vec<PatternRecord>,
    totals: PatternCounters,
    /// Fault-list lengths observed at every end-of-pattern sweep.
    pub list_len_hist: Log2Histogram,
    /// Event-queue depths observed per level before draining.
    pub queue_depth_hist: Log2Histogram,
    /// Wall time per simulation phase.
    pub phases: PhaseTimes,
    phase_started: [Option<Instant>; Phase::COUNT],
    peak_memory: u64,
    patterns_done: u64,
    compactions: u64,
    compacted_elements: u64,
}

impl Default for SimMetrics {
    fn default() -> Self {
        SimMetrics {
            current: PatternCounters::default(),
            current_pattern: 0,
            pattern_list_hist: Log2Histogram::new(),
            records: Vec::new(),
            totals: PatternCounters::default(),
            list_len_hist: Log2Histogram::new(),
            queue_depth_hist: Log2Histogram::new(),
            phases: PhaseTimes::new(),
            phase_started: [None; Phase::COUNT],
            peak_memory: 0,
            patterns_done: 0,
            compactions: 0,
            compacted_elements: 0,
        }
    }
}

impl SimMetrics {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finished per-pattern records, in simulation order.
    pub fn records(&self) -> &[PatternRecord] {
        &self.records
    }

    /// Counters summed over all finished patterns.
    pub fn totals(&self) -> &PatternCounters {
        &self.totals
    }

    /// Number of finished patterns.
    pub fn patterns(&self) -> u64 {
        self.patterns_done
    }

    /// Peak engine memory reported through the probe, in bytes.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.peak_memory
    }

    /// Arena compaction passes observed over the whole run.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Collapses everything recorded so far into aggregate headline metrics.
    pub fn snapshot(&self, simulator: &str, circuit: &str) -> MetricsSnapshot {
        let t = &self.totals;
        let patterns = self.patterns_done.max(1) as f64;
        MetricsSnapshot {
            simulator: simulator.to_string(),
            circuit: circuit.to_string(),
            patterns: self.patterns_done,
            detected: t.detected,
            events: t.activations,
            good_evals: t.good_evals,
            fault_evals: t.fault_evals,
            traversed: t.traversed,
            visible: t.visible,
            divergences: t.divergences,
            convergences: t.convergences,
            drops: t.drops,
            avg_list_len: self.list_len_hist.mean(),
            max_list_len: self.list_len_hist.max(),
            visible_fraction: if t.traversed == 0 {
                0.0
            } else {
                t.visible as f64 / t.traversed as f64
            },
            events_per_pattern: t.activations as f64 / patterns,
            queue_depth_peak: t.queue_peak,
            compactions: self.compactions,
            compacted_elements: self.compacted_elements,
            promoted: t.promoted,
            packed_words: t.packed_words,
            packed_evals: t.packed_evals,
            peak_memory_bytes: self.peak_memory,
            cpu_seconds: self.phases.total().as_secs_f64(),
            // Universe-level facts: stamped by the driver after pruning,
            // never observed by a probe.
            faults_full: 0,
            faults_sim: 0,
            pruned_unexcitable: 0,
            pruned_unobservable: 0,
            pruned_conflict: 0,
            faults_affected: 0,
            faults_transferred: 0,
            trace_events: 0,
            trace_dropped: 0,
            // Scheduler facts: stamped by the parallel driver, never
            // observed by a per-shard probe.
            windows: 0,
            steals: 0,
            phases: self.phases,
        }
    }
}

impl Probe for SimMetrics {
    const ENABLED: bool = true;

    fn begin_pattern(&mut self, pattern: u64) {
        self.current = PatternCounters::default();
        self.current_pattern = pattern;
        self.pattern_list_hist = Log2Histogram::new();
    }

    fn end_pattern(&mut self) {
        self.totals.merge(&self.current);
        self.records.push(PatternRecord {
            pattern: self.current_pattern,
            counters: self.current,
            avg_list_len: self.pattern_list_hist.mean(),
            max_list_len: self.pattern_list_hist.max(),
        });
        self.patterns_done += 1;
        self.current = PatternCounters::default();
    }

    fn node_activated(&mut self) {
        self.current.activations += 1;
    }

    fn good_eval(&mut self) {
        self.current.good_evals += 1;
    }

    fn fault_evals(&mut self, n: u64) {
        self.current.fault_evals += n;
    }

    fn elements_traversed(&mut self, n: u64) {
        self.current.traversed += n;
    }

    fn elements_visible(&mut self, n: u64) {
        self.current.visible += n;
    }

    fn divergence(&mut self, _node: u32, _fault: u32) {
        self.current.divergences += 1;
    }

    fn convergence(&mut self, _node: u32, _fault: u32) {
        self.current.convergences += 1;
    }

    fn fault_dropped(&mut self, _node: u32, _fault: u32) {
        self.current.drops += 1;
    }

    fn fault_detected(&mut self, _po_node: u32, _fault: u32) {
        self.current.detected += 1;
    }

    fn list_len(&mut self, len: u64) {
        self.list_len_hist.record(len);
        self.pattern_list_hist.record(len);
    }

    fn queue_depth(&mut self, depth: u64) {
        self.queue_depth_hist.record(depth);
        self.current.queue_peak = self.current.queue_peak.max(depth);
    }

    fn dff_stash(&mut self, len: u64) {
        self.current.dff_stash += len;
    }

    fn memory_bytes(&mut self, bytes: u64) {
        self.peak_memory = self.peak_memory.max(bytes);
    }

    fn packed(&mut self, promoted: u64, words: u64, evals: u64) {
        self.current.promoted += promoted;
        self.current.packed_evals += evals;
        self.current.packed_words = self.current.packed_words.max(words);
    }

    fn compaction(&mut self, elements_moved: u64) {
        self.compactions += 1;
        self.compacted_elements += elements_moved;
    }

    fn phase_start(&mut self, phase: Phase) {
        self.phase_started[phase.index()] = Some(Instant::now());
    }

    fn phase_end(&mut self, phase: Phase) {
        if let Some(started) = self.phase_started[phase.index()].take() {
            self.phases.add(phase, started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulate_two_patterns() -> SimMetrics {
        let mut m = SimMetrics::new();
        m.begin_pattern(0);
        m.node_activated();
        m.node_activated();
        m.good_eval();
        m.fault_evals(3);
        m.elements_traversed(10);
        m.elements_visible(4);
        m.divergence(0, 0);
        m.fault_detected(9, 0);
        m.fault_dropped(0, 0);
        m.queue_depth(5);
        m.queue_depth(2);
        m.list_len(4);
        m.list_len(0);
        m.dff_stash(3);
        m.end_pattern();
        m.begin_pattern(1);
        m.node_activated();
        m.convergence(0, 0);
        m.elements_traversed(2);
        m.list_len(8);
        m.queue_depth(7);
        m.end_pattern();
        m
    }

    #[test]
    fn per_pattern_records_are_isolated() {
        let m = simulate_two_patterns();
        assert_eq!(m.records().len(), 2);
        let r0 = &m.records()[0];
        assert_eq!(r0.pattern, 0);
        assert_eq!(r0.counters.activations, 2);
        assert_eq!(r0.counters.fault_evals, 3);
        assert_eq!(r0.counters.traversed, 10);
        assert_eq!(r0.counters.visible, 4);
        assert_eq!(r0.counters.detected, 1);
        assert_eq!(r0.counters.drops, 1);
        assert_eq!(r0.counters.queue_peak, 5);
        assert_eq!(r0.counters.dff_stash, 3);
        assert!((r0.avg_list_len - 2.0).abs() < 1e-12);
        assert_eq!(r0.max_list_len, 4);
        let r1 = &m.records()[1];
        assert_eq!(r1.counters.activations, 1);
        assert_eq!(r1.counters.convergences, 1);
        assert_eq!(r1.counters.queue_peak, 7);
        assert_eq!(r1.max_list_len, 8);
    }

    #[test]
    fn totals_and_snapshot_aggregate() {
        let m = simulate_two_patterns();
        assert_eq!(m.totals().activations, 3);
        assert_eq!(m.totals().traversed, 12);
        assert_eq!(m.totals().queue_peak, 7);
        let s = m.snapshot("csim", "s27");
        assert_eq!(s.patterns, 2);
        assert_eq!(s.events, 3);
        assert!((s.events_per_pattern - 1.5).abs() < 1e-12);
        assert!((s.visible_fraction - 4.0 / 12.0).abs() < 1e-12);
        assert!((s.avg_list_len - 4.0).abs() < 1e-12); // (4 + 0 + 8) / 3
        assert_eq!(s.max_list_len, 8);
        assert_eq!(s.queue_depth_peak, 7);
    }

    #[test]
    fn phase_timing_via_probe_hooks() {
        let mut m = SimMetrics::new();
        m.phase_start(Phase::Propagate);
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.phase_end(Phase::Propagate);
        // Unmatched end is ignored.
        m.phase_end(Phase::Detect);
        assert!(m.phases.get(Phase::Propagate) > std::time::Duration::ZERO);
        assert_eq!(m.phases.get(Phase::Detect), std::time::Duration::ZERO);
    }

    #[test]
    fn memory_probe_keeps_peak() {
        let mut m = SimMetrics::new();
        m.memory_bytes(100);
        m.memory_bytes(50);
        m.memory_bytes(200);
        assert_eq!(m.peak_memory_bytes(), 200);
    }
}
