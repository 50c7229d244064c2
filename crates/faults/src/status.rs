//! Fault status bookkeeping and fault-simulation reports.

use std::fmt;
use std::time::Duration;

/// Lifecycle of a fault during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultStatus {
    /// Not yet detected.
    #[default]
    Undetected,
    /// Detected at the given 0-based pattern index.
    Detected {
        /// The pattern (clock cycle) at which the fault was first detected.
        pattern: usize,
    },
    /// Proven undetectable (e.g., redundant within a macro cell).
    Untestable,
}

impl FaultStatus {
    /// Returns `true` for [`FaultStatus::Detected`].
    pub fn is_detected(self) -> bool {
        matches!(self, FaultStatus::Detected { .. })
    }
}

impl fmt::Display for FaultStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultStatus::Undetected => f.write_str("undetected"),
            FaultStatus::Detected { pattern } => write!(f, "detected@{pattern}"),
            FaultStatus::Untestable => f.write_str("untestable"),
        }
    }
}

/// Result of a fault-simulation run: per-fault statuses plus the cost
/// counters the paper's tables report (CPU time, memory, pattern count).
#[derive(Debug, Clone)]
pub struct FaultSimReport {
    /// Simulator identifier (`csim-MV`, `proofs`, …).
    pub simulator: String,
    /// Circuit name.
    pub circuit: String,
    /// Number of patterns simulated.
    pub patterns: usize,
    /// Per-fault statuses, aligned with the fault list handed to the
    /// simulator.
    pub statuses: Vec<FaultStatus>,
    /// Wall-clock simulation time (excluding setup).
    pub cpu: Duration,
    /// Paper-comparable memory model in bytes: peak live fault-element
    /// storage plus table overhead. See each simulator's documentation for
    /// what is counted.
    pub memory_bytes: usize,
    /// Events processed (scheduled gate/cell activations).
    pub events: u64,
    /// Individual faulty-machine (or word) evaluations performed.
    pub evaluations: u64,
}

impl FaultSimReport {
    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_detected()).count()
    }

    /// Total fault count.
    pub fn total_faults(&self) -> usize {
        self.statuses.len()
    }

    /// Fault coverage: detected / total, in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.statuses.is_empty() {
            return 0.0;
        }
        100.0 * self.detected() as f64 / self.total_faults() as f64
    }

    /// Memory in the paper's "meg" units.
    pub fn memory_megabytes(&self) -> f64 {
        self.memory_bytes as f64 / 1.0e6
    }
}

impl fmt::Display for FaultSimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {}/{} faults ({:.2}%) in {} patterns, {:.3}s, {:.2} MB",
            self.simulator,
            self.circuit,
            self.detected(),
            self.total_faults(),
            self.coverage_percent(),
            self.patterns,
            self.cpu.as_secs_f64(),
            self.memory_megabytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FaultSimReport {
        FaultSimReport {
            simulator: "csim-MV".into(),
            circuit: "s27".into(),
            patterns: 10,
            statuses: vec![
                FaultStatus::Detected { pattern: 3 },
                FaultStatus::Undetected,
                FaultStatus::Detected { pattern: 7 },
                FaultStatus::Untestable,
            ],
            cpu: Duration::from_millis(1500),
            memory_bytes: 2_000_000,
            events: 100,
            evaluations: 400,
        }
    }

    #[test]
    fn coverage_math() {
        let r = report();
        assert_eq!(r.detected(), 2);
        assert_eq!(r.total_faults(), 4);
        assert!((r.coverage_percent() - 50.0).abs() < 1e-9);
        assert!((r.memory_megabytes() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_zero_coverage() {
        let mut r = report();
        r.statuses.clear();
        assert_eq!(r.coverage_percent(), 0.0);
    }

    #[test]
    fn display_contains_headline_numbers() {
        let s = report().to_string();
        assert!(s.contains("2/4"));
        assert!(s.contains("50.00%"));
    }
}
