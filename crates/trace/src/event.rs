//! The trace event vocabulary.
//!
//! Each variant is a closed fact about the run: spans carry both endpoints
//! (recorded when the span closes, so a ring overflow can never orphan a
//! half-open span), instants carry one timestamp. All timestamps are
//! microseconds relative to the recorder's shared epoch, so events from
//! different shard recorders order on one clock.

use cfs_telemetry::Phase;

/// Microseconds since the run epoch.
pub type Micros = u64;

/// One recorded fact about the simulation.
///
/// Fault ids are *local* to the recording engine (shard-local in a
/// parallel run); [`crate::TrackTrace::fault_map`] remaps them to global
/// ids at export time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// One simulated pattern (clock cycle), as a closed span.
    PatternSpan {
        /// Zero-based pattern index.
        pattern: u32,
        /// Span start.
        start: Micros,
        /// Span end.
        end: Micros,
    },
    /// One engine phase inside a pattern, as a closed span.
    PhaseSpan {
        /// Which phase ran.
        phase: Phase,
        /// Span start.
        start: Micros,
        /// Span end.
        end: Micros,
    },
    /// A faulty machine diverged from the good machine: a list element was
    /// inserted at `node` where the machines previously agreed. The first
    /// divergence of a fault is its first excitation.
    Divergence {
        /// Pattern during which the insertion happened.
        pattern: u32,
        /// Node whose output list gained the element.
        node: u32,
        /// The diverging faulty machine.
        fault: u32,
        /// When.
        ts: Micros,
    },
    /// A faulty machine converged back to the good machine: its list
    /// element at `node` was deleted.
    Convergence {
        /// Pattern during which the deletion happened.
        pattern: u32,
        /// Node whose output list lost the element.
        node: u32,
        /// The converging faulty machine.
        fault: u32,
        /// When.
        ts: Micros,
    },
    /// A detected fault's element was purged at `node` (event-driven fault
    /// dropping).
    Dropped {
        /// Pattern during which the purge happened.
        pattern: u32,
        /// Node whose list was being traversed.
        node: u32,
        /// The dropped fault.
        fault: u32,
        /// When.
        ts: Micros,
    },
    /// A fault was first observed at a primary output.
    Detected {
        /// Pattern of first detection.
        pattern: u32,
        /// The primary-output tap node.
        po_node: u32,
        /// The detected fault.
        fault: u32,
        /// When.
        ts: Micros,
    },
    /// A fault showed no list activity (divergence, convergence, drop,
    /// detection) for a full quiescence window — the machines ERASER
    /// would stop simulating. Emitted once per quiescent episode.
    Quiescent {
        /// Pattern after which the fault last did anything.
        since_pattern: u32,
        /// Pattern at which the window closed.
        at_pattern: u32,
        /// The quiescent fault.
        fault: u32,
        /// When.
        ts: Micros,
    },
    /// An arena compaction pass relocated `moved` live elements.
    Compaction {
        /// Pattern after which the pass ran.
        pattern: u32,
        /// Live elements relocated.
        moved: u64,
        /// When.
        ts: Micros,
    },
    /// The hot-fault machine's work: a promotion sweep (`promoted > 0`)
    /// or one pattern's packed step.
    Packed {
        /// The pattern the work belongs to.
        pattern: u32,
        /// Faults moved into hot-fault lanes.
        promoted: u64,
        /// Packed words holding live faults.
        words: u64,
        /// Packed word-node evaluations.
        evals: u64,
        /// When.
        ts: Micros,
    },
    /// End-of-pattern counter sample: total live fault-list elements and
    /// the peak event-queue depth seen during the pattern.
    CounterSample {
        /// The finished pattern.
        pattern: u32,
        /// Sum of all node fault-list lengths at end of pattern (live |F|).
        live_elements: u64,
        /// Peak event-queue depth at any level during the pattern.
        queue_peak: u64,
        /// When.
        ts: Micros,
    },
}

impl TraceEvent {
    /// The event's timestamp (span end for spans).
    pub fn ts(&self) -> Micros {
        match *self {
            TraceEvent::PatternSpan { end, .. } | TraceEvent::PhaseSpan { end, .. } => end,
            TraceEvent::Divergence { ts, .. }
            | TraceEvent::Convergence { ts, .. }
            | TraceEvent::Dropped { ts, .. }
            | TraceEvent::Detected { ts, .. }
            | TraceEvent::Quiescent { ts, .. }
            | TraceEvent::Compaction { ts, .. }
            | TraceEvent::Packed { ts, .. }
            | TraceEvent::CounterSample { ts, .. } => ts,
        }
    }

    /// The (engine-local) fault id, for fault-lifecycle events.
    pub fn fault(&self) -> Option<u32> {
        match *self {
            TraceEvent::Divergence { fault, .. }
            | TraceEvent::Convergence { fault, .. }
            | TraceEvent::Dropped { fault, .. }
            | TraceEvent::Detected { fault, .. }
            | TraceEvent::Quiescent { fault, .. } => Some(fault),
            _ => None,
        }
    }

    /// The pattern index the event belongs to.
    pub fn pattern(&self) -> Option<u32> {
        match *self {
            TraceEvent::PatternSpan { pattern, .. }
            | TraceEvent::Divergence { pattern, .. }
            | TraceEvent::Convergence { pattern, .. }
            | TraceEvent::Dropped { pattern, .. }
            | TraceEvent::Detected { pattern, .. }
            | TraceEvent::Compaction { pattern, .. }
            | TraceEvent::Packed { pattern, .. }
            | TraceEvent::CounterSample { pattern, .. } => Some(pattern),
            TraceEvent::Quiescent { at_pattern, .. } => Some(at_pattern),
            TraceEvent::PhaseSpan { .. } => None,
        }
    }

    /// Stable kind name (the Chrome trace event name).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::PatternSpan { .. } => "pattern",
            TraceEvent::PhaseSpan { phase, .. } => phase.name(),
            TraceEvent::Divergence { .. } => "divergence",
            TraceEvent::Convergence { .. } => "convergence",
            TraceEvent::Dropped { .. } => "drop",
            TraceEvent::Detected { .. } => "detection",
            TraceEvent::Quiescent { .. } => "quiescent",
            TraceEvent::Compaction { .. } => "compaction",
            TraceEvent::Packed { .. } => "packed",
            TraceEvent::CounterSample { .. } => "counters",
        }
    }

    /// Returns a copy with the fault id remapped through `map` (local
    /// shard id → global fault index). Events without a fault id are
    /// returned unchanged; a local id outside the map is left as-is.
    pub fn remap_fault(&self, map: &[usize]) -> TraceEvent {
        let remap = |f: u32| map.get(f as usize).map_or(f, |&g| g as u32);
        let mut e = *self;
        match &mut e {
            TraceEvent::Divergence { fault, .. }
            | TraceEvent::Convergence { fault, .. }
            | TraceEvent::Dropped { fault, .. }
            | TraceEvent::Detected { fault, .. }
            | TraceEvent::Quiescent { fault, .. } => *fault = remap(*fault),
            _ => {}
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_variant() {
        let events = [
            TraceEvent::PatternSpan {
                pattern: 3,
                start: 10,
                end: 20,
            },
            TraceEvent::PhaseSpan {
                phase: Phase::Propagate,
                start: 11,
                end: 15,
            },
            TraceEvent::Divergence {
                pattern: 3,
                node: 7,
                fault: 2,
                ts: 12,
            },
            TraceEvent::Quiescent {
                since_pattern: 1,
                at_pattern: 33,
                fault: 2,
                ts: 40,
            },
            TraceEvent::CounterSample {
                pattern: 3,
                live_elements: 9,
                queue_peak: 4,
                ts: 19,
            },
        ];
        assert_eq!(events[0].ts(), 20);
        assert_eq!(events[0].pattern(), Some(3));
        assert_eq!(events[0].fault(), None);
        assert_eq!(events[1].kind_name(), "propagate");
        assert_eq!(events[1].pattern(), None);
        assert_eq!(events[2].fault(), Some(2));
        assert_eq!(events[3].pattern(), Some(33));
        assert_eq!(events[4].kind_name(), "counters");
    }

    #[test]
    fn remap_translates_local_to_global() {
        let map = vec![10usize, 20, 30];
        let e = TraceEvent::Detected {
            pattern: 0,
            po_node: 5,
            fault: 1,
            ts: 100,
        };
        match e.remap_fault(&map) {
            TraceEvent::Detected { fault, .. } => assert_eq!(fault, 20),
            other => panic!("unexpected {other:?}"),
        }
        // Spans pass through untouched.
        let s = TraceEvent::PatternSpan {
            pattern: 1,
            start: 0,
            end: 1,
        };
        assert_eq!(s.remap_fault(&map), s);
    }
}
