//! The recording probe: a bounded per-thread ring buffer of trace events.
//!
//! One [`TraceRecorder`] is owned by exactly one engine (one shard worker
//! in a parallel run), so recording is lock-free by construction — there
//! is no shared mutable state, and the only cross-thread artifact is the
//! common epoch [`Instant`] every recorder timestamps against. When the
//! ring fills, the oldest events are discarded and counted, never blocking
//! the simulation.

use std::collections::VecDeque;
use std::time::Instant;

use cfs_telemetry::{Phase, Probe};

use crate::event::{Micros, TraceEvent};

/// Recorder tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events; the oldest events are dropped (and
    /// counted) beyond this.
    pub capacity: usize,
    /// Patterns of total inactivity before a fault is reported quiescent.
    /// `0` disables quiescence detection.
    pub quiescence_window: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 20,
            quiescence_window: 32,
        }
    }
}

/// Per-node activity totals, kept outside the ring so they stay exact
/// even when the ring overflows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeActivity {
    /// List insertions (divergences) at this node.
    pub divergences: u64,
    /// List deletions (convergences) at this node.
    pub convergences: u64,
    /// Detected-fault purges at this node.
    pub drops: u64,
}

impl NodeActivity {
    /// Total activity events at the node.
    pub fn total(&self) -> u64 {
        self.divergences + self.convergences + self.drops
    }

    /// Adds another node's (or shard's view of the same node's) counts.
    pub fn merge(&mut self, other: &NodeActivity) {
        self.divergences += other.divergences;
        self.convergences += other.convergences;
        self.drops += other.drops;
    }
}

/// The event-recording [`Probe`].
///
/// Records fault-lifecycle instants (divergence, convergence, drop,
/// detection, quiescence), pattern/phase spans, arena compactions, and an
/// end-of-pattern counter sample into a bounded ring, plus exact per-node
/// activity totals for [`crate::Heatmap`]. Attach alongside
/// [`cfs_telemetry::SimMetrics`] via [`cfs_telemetry::PairProbe`] when
/// aggregate counters are wanted too.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    epoch: Instant,
    cfg: TraceConfig,
    ring: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
    pattern: u32,
    pattern_start: Micros,
    phase_start: [Option<Micros>; Phase::COUNT],
    live_sum: u64,
    queue_peak: u64,
    /// `last_active[f]` = pattern of fault `f`'s most recent list
    /// activity; `u32::MAX` = never active. Grows on demand.
    last_active: Vec<u32>,
    /// Whether the current quiescent episode was already reported.
    reported_quiescent: Vec<bool>,
    /// Per-node totals; grows on demand.
    activity: Vec<NodeActivity>,
}

impl TraceRecorder {
    /// A recorder timestamping against `epoch` — share one epoch across
    /// every shard recorder of a run so their events order on one clock.
    pub fn new(epoch: Instant, cfg: TraceConfig) -> Self {
        TraceRecorder {
            epoch,
            cfg,
            ring: VecDeque::with_capacity(cfg.capacity.min(1 << 16)),
            recorded: 0,
            dropped: 0,
            pattern: 0,
            pattern_start: 0,
            phase_start: [None; Phase::COUNT],
            live_sum: 0,
            queue_peak: 0,
            last_active: Vec::new(),
            reported_quiescent: Vec::new(),
            activity: Vec::new(),
        }
    }

    /// A recorder with default configuration and its own epoch.
    pub fn with_defaults() -> Self {
        Self::new(Instant::now(), TraceConfig::default())
    }

    fn now(&self) -> Micros {
        // u64 microseconds cover ~584k years; the cast cannot truncate a
        // real run.
        self.epoch.elapsed().as_micros() as Micros
    }

    fn push(&mut self, e: TraceEvent) {
        if self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(e);
        self.recorded += 1;
    }

    fn touch_fault(&mut self, fault: u32) {
        let idx = fault as usize;
        if idx >= self.last_active.len() {
            self.last_active.resize(idx + 1, u32::MAX);
            self.reported_quiescent.resize(idx + 1, false);
        }
        self.last_active[idx] = self.pattern;
        self.reported_quiescent[idx] = false;
    }

    fn touch_node(&mut self, node: u32) -> &mut NodeActivity {
        let idx = node as usize;
        if idx >= self.activity.len() {
            self.activity.resize(idx + 1, NodeActivity::default());
        }
        &mut self.activity[idx]
    }

    /// The recorded events, oldest first (up to `capacity`; earlier events
    /// may have been discarded — see [`TraceRecorder::dropped_events`]).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Drains the ring into a vector, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.ring.into_iter().collect()
    }

    /// Total events ever recorded, including any later discarded.
    pub fn recorded_events(&self) -> u64 {
        self.recorded
    }

    /// Events discarded because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Per-node activity totals, indexed by node id. Exact regardless of
    /// ring overflow.
    pub fn node_activity(&self) -> &[NodeActivity] {
        &self.activity
    }

    /// The configured quiescence window.
    pub fn quiescence_window(&self) -> u32 {
        self.cfg.quiescence_window
    }

    /// Sweeps for faults whose window just closed and reports each once
    /// per episode. A fault participates only after its first recorded
    /// activity: a machine that never diverged is statically quiet, not
    /// ERASER-quiescent.
    fn sweep_quiescent(&mut self, ts: Micros) {
        let w = self.cfg.quiescence_window;
        if w == 0 {
            return;
        }
        for f in 0..self.last_active.len() {
            let last = self.last_active[f];
            if last == u32::MAX || self.reported_quiescent[f] {
                continue;
            }
            if self.pattern.saturating_sub(last) >= w {
                self.reported_quiescent[f] = true;
                self.push(TraceEvent::Quiescent {
                    since_pattern: last,
                    at_pattern: self.pattern,
                    fault: f as u32,
                    ts,
                });
            }
        }
    }
}

impl Probe for TraceRecorder {
    const ENABLED: bool = true;

    fn begin_pattern(&mut self, pattern: u64) {
        self.pattern = pattern as u32;
        self.pattern_start = self.now();
        self.live_sum = 0;
        self.queue_peak = 0;
    }

    fn end_pattern(&mut self) {
        let ts = self.now();
        self.push(TraceEvent::CounterSample {
            pattern: self.pattern,
            live_elements: self.live_sum,
            queue_peak: self.queue_peak,
            ts,
        });
        self.push(TraceEvent::PatternSpan {
            pattern: self.pattern,
            start: self.pattern_start,
            end: ts,
        });
        self.sweep_quiescent(ts);
    }

    fn divergence(&mut self, node: u32, fault: u32) {
        let ts = self.now();
        self.touch_node(node).divergences += 1;
        self.touch_fault(fault);
        let pattern = self.pattern;
        self.push(TraceEvent::Divergence {
            pattern,
            node,
            fault,
            ts,
        });
    }

    fn convergence(&mut self, node: u32, fault: u32) {
        let ts = self.now();
        self.touch_node(node).convergences += 1;
        self.touch_fault(fault);
        let pattern = self.pattern;
        self.push(TraceEvent::Convergence {
            pattern,
            node,
            fault,
            ts,
        });
    }

    fn fault_dropped(&mut self, node: u32, fault: u32) {
        let ts = self.now();
        self.touch_node(node).drops += 1;
        self.touch_fault(fault);
        let pattern = self.pattern;
        self.push(TraceEvent::Dropped {
            pattern,
            node,
            fault,
            ts,
        });
    }

    fn fault_detected(&mut self, po_node: u32, fault: u32) {
        let ts = self.now();
        self.touch_fault(fault);
        let pattern = self.pattern;
        self.push(TraceEvent::Detected {
            pattern,
            po_node,
            fault,
            ts,
        });
    }

    fn list_len(&mut self, len: u64) {
        self.live_sum += len;
    }

    fn queue_depth(&mut self, depth: u64) {
        self.queue_peak = self.queue_peak.max(depth);
    }

    fn compaction(&mut self, elements_moved: u64) {
        let ts = self.now();
        let pattern = self.pattern;
        self.push(TraceEvent::Compaction {
            pattern,
            moved: elements_moved,
            ts,
        });
    }

    fn packed(&mut self, promoted: u64, words: u64, evals: u64) {
        let ts = self.now();
        let pattern = self.pattern;
        self.push(TraceEvent::Packed {
            pattern,
            promoted,
            words,
            evals,
            ts,
        });
    }

    fn phase_start(&mut self, phase: Phase) {
        self.phase_start[phase.index()] = Some(self.now());
    }

    fn phase_end(&mut self, phase: Phase) {
        if let Some(start) = self.phase_start[phase.index()].take() {
            let end = self.now();
            self.push(TraceEvent::PhaseSpan { phase, start, end });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize, window: u32) -> TraceRecorder {
        TraceRecorder::new(
            Instant::now(),
            TraceConfig {
                capacity,
                quiescence_window: window,
            },
        )
    }

    #[test]
    fn lifecycle_events_land_in_the_ring() {
        let mut r = recorder(1024, 0);
        r.begin_pattern(0);
        r.divergence(4, 1);
        r.convergence(4, 1);
        r.fault_detected(9, 1);
        r.fault_dropped(5, 1);
        r.list_len(3);
        r.list_len(2);
        r.queue_depth(7);
        r.end_pattern();
        let events: Vec<_> = r.events().copied().collect();
        assert_eq!(events.len(), 6);
        assert!(matches!(
            events[0],
            TraceEvent::Divergence {
                node: 4,
                fault: 1,
                pattern: 0,
                ..
            }
        ));
        assert!(matches!(
            events[4],
            TraceEvent::CounterSample {
                live_elements: 5,
                queue_peak: 7,
                ..
            }
        ));
        assert!(matches!(
            events[5],
            TraceEvent::PatternSpan { pattern: 0, .. }
        ));
        assert_eq!(r.recorded_events(), 6);
        assert_eq!(r.dropped_events(), 0);
        let acts = r.node_activity();
        assert_eq!(acts[4].divergences, 1);
        assert_eq!(acts[4].convergences, 1);
        assert_eq!(acts[5].drops, 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = recorder(4, 0);
        r.begin_pattern(0);
        for k in 0..10 {
            r.divergence(k, k);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped_events(), 6);
        assert_eq!(r.recorded_events(), 10);
        // Oldest survivors are the most recent four.
        let first = r.events().next().copied().unwrap();
        assert!(matches!(first, TraceEvent::Divergence { node: 6, .. }));
        // Exact totals survive the overflow.
        let total: u64 = r.node_activity().iter().map(NodeActivity::total).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn quiescence_reported_once_per_episode() {
        let mut r = recorder(1024, 3);
        r.begin_pattern(0);
        r.divergence(1, 0);
        r.end_pattern();
        // Quiet patterns 1..=5: the window (3) closes at pattern 3.
        for p in 1..=5 {
            r.begin_pattern(p);
            r.end_pattern();
        }
        let quiescents: Vec<_> = r
            .events()
            .filter(|e| matches!(e, TraceEvent::Quiescent { .. }))
            .copied()
            .collect();
        assert_eq!(quiescents.len(), 1, "one report per episode");
        assert!(matches!(
            quiescents[0],
            TraceEvent::Quiescent {
                since_pattern: 0,
                at_pattern: 3,
                fault: 0,
                ..
            }
        ));
        // New activity opens a new episode; a later window closes again.
        r.begin_pattern(6);
        r.divergence(1, 0);
        r.end_pattern();
        for p in 7..=10 {
            r.begin_pattern(p);
            r.end_pattern();
        }
        let n = r
            .events()
            .filter(|e| matches!(e, TraceEvent::Quiescent { .. }))
            .count();
        assert_eq!(n, 2, "second episode reported");
    }

    #[test]
    fn phase_spans_pair_start_and_end() {
        let mut r = recorder(16, 0);
        r.phase_start(Phase::Propagate);
        r.phase_end(Phase::Propagate);
        // Unmatched end is ignored.
        r.phase_end(Phase::Detect);
        let events: Vec<_> = r.events().copied().collect();
        assert_eq!(events.len(), 1);
        match events[0] {
            TraceEvent::PhaseSpan { phase, start, end } => {
                assert_eq!(phase, Phase::Propagate);
                assert!(end >= start);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
