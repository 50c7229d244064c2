//! Phase identification and span timing.

use std::time::Duration;

/// The timed phases of one simulation step.
///
/// `Propagate`, `Detect`, `LatchCollect`, and `LatchCommit` are the four
/// stages of a stuck-at clock cycle; `TransitionFirst` and
/// `TransitionSecond` wrap the two passes of transition-fault simulation
/// (initialization pattern, then launch/capture pattern), so their time
/// also counts under the stages they enclose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Event-driven propagation through the levelized network.
    Propagate,
    /// Primary-output comparison against the good machine.
    Detect,
    /// Gathering next-state DFF values at the clock edge.
    LatchCollect,
    /// Committing stashed DFF values as present state.
    LatchCommit,
    /// First (initialization) pass of a transition-fault step.
    TransitionFirst,
    /// Second (launch/capture) pass of a transition-fault step.
    TransitionSecond,
    /// Loading the circuit through `fsim`'s checked front end (the model
    /// self-checks included, in debug builds and under `--paranoid`).
    Check,
    /// Capturing or serializing a pattern-boundary checkpoint.
    Checkpoint,
    /// The hot-fault words of a stuck-at step and the promotion sweeps
    /// that fill them.
    Packed,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 9] = [
        Phase::Propagate,
        Phase::Detect,
        Phase::LatchCollect,
        Phase::LatchCommit,
        Phase::TransitionFirst,
        Phase::TransitionSecond,
        Phase::Check,
        Phase::Checkpoint,
        Phase::Packed,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for table storage.
    pub fn index(self) -> usize {
        match self {
            Phase::Propagate => 0,
            Phase::Detect => 1,
            Phase::LatchCollect => 2,
            Phase::LatchCommit => 3,
            Phase::TransitionFirst => 4,
            Phase::TransitionSecond => 5,
            Phase::Check => 6,
            Phase::Checkpoint => 7,
            Phase::Packed => 8,
        }
    }

    /// Stable display name (also used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Propagate => "propagate",
            Phase::Detect => "detect",
            Phase::LatchCollect => "latch_collect",
            Phase::LatchCommit => "latch_commit",
            Phase::TransitionFirst => "transition_first",
            Phase::TransitionSecond => "transition_second",
            Phase::Check => "check",
            Phase::Checkpoint => "checkpoint",
            Phase::Packed => "packed",
        }
    }

    /// Whether this is a transition pass, whose time the stages it
    /// encloses already count.
    pub fn encloses_stages(self) -> bool {
        matches!(self, Phase::TransitionFirst | Phase::TransitionSecond)
    }
}

/// Accumulated wall time and invocation counts per [`Phase`].
///
/// Wall time is machine- and schedule-dependent; the invocation counts
/// are not — a phase runs a fixed number of times per (engine, pattern)
/// regardless of thread count, window size, or steal schedule, which is
/// what lets merged multi-shard timings be sanity-checked: totals may
/// wobble, counts must match the serial run exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    totals: [Duration; Phase::COUNT],
    counts: [u64; Phase::COUNT],
}

impl PhaseTimes {
    /// An all-zero table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `elapsed` to `phase`'s total and bumps its invocation count.
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        self.totals[phase.index()] += elapsed;
        self.counts[phase.index()] += 1;
    }

    /// Total time recorded for `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        self.totals[phase.index()]
    }

    /// Times `phase` was recorded — invariant under sharding, windowing,
    /// and steal schedule (unlike the wall-clock totals).
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Sum over every phase but the two transition passes, whose time
    /// the phases they enclose already count. A pass's own time outside
    /// those stages (pattern setup between them) is left out.
    pub fn total(&self) -> Duration {
        Phase::ALL
            .iter()
            .filter(|p| !p.encloses_stages())
            .map(|&p| self.get(p))
            .sum()
    }

    /// Folds another table into this one (times and counts).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (t, o) in self.totals.iter_mut().zip(other.totals.iter()) {
            *t += *o;
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += *o;
        }
    }

    /// `(phase, total)` pairs with non-zero time, in display order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Phase, Duration)> + '_ {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.get(p)))
            .filter(|&(_, d)| d > Duration::ZERO)
    }

    /// `(phase, count)` pairs with non-zero counts, in display order.
    pub fn nonzero_counts(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.count(p)))
            .filter(|&(_, c)| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_distinct() {
        let mut seen = [false; Phase::COUNT];
        for p in Phase::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn add_and_merge_accumulate() {
        let mut a = PhaseTimes::new();
        a.add(Phase::Propagate, Duration::from_millis(5));
        a.add(Phase::Propagate, Duration::from_millis(5));
        a.add(Phase::Detect, Duration::from_millis(1));
        let mut b = PhaseTimes::new();
        b.add(Phase::Detect, Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.get(Phase::Propagate), Duration::from_millis(10));
        assert_eq!(a.get(Phase::Detect), Duration::from_millis(3));
        assert_eq!(a.total(), Duration::from_millis(13));
        let nz: Vec<_> = a.nonzero().map(|(p, _)| p).collect();
        assert_eq!(nz, vec![Phase::Propagate, Phase::Detect]);
        // Counts ride along with every add and merge.
        assert_eq!(a.count(Phase::Propagate), 2);
        assert_eq!(a.count(Phase::Detect), 2, "one local + one merged");
        assert_eq!(a.count(Phase::Check), 0);
        let nc: Vec<_> = a.nonzero_counts().collect();
        assert_eq!(nc, vec![(Phase::Propagate, 2), (Phase::Detect, 2)]);
    }
}
