//! Benchmark circuits and test sets for the table reproductions.

use cfs_atpg::{generate_tests, random_patterns, trim_tail, AtpgOptions};
use cfs_faults::{collapse_stuck_at, StuckAt};
use cfs_logic::Logic;
use cfs_netlist::generate::{benchmark_spec, generate};
use cfs_netlist::Circuit;

/// The circuits of the paper's Table 3, in table order.
pub const TABLE3_CIRCUITS: &[&str] = &[
    "s298g", "s344g", "s349g", "s386g", "s400g", "s444g", "s526g", "s641g", "s713g", "s820g",
    "s832g", "s1196g", "s1238g", "s1423g", "s1488g", "s1494g", "s5378g", "s35932g",
];

/// The circuits of Table 4 (higher-coverage deterministic tests).
pub const TABLE4_CIRCUITS: &[&str] = &[
    "s298g", "s382g", "s400g", "s444g", "s526g", "s641g", "s713g",
];

/// The circuits of Table 6 (transition fault simulation).
pub const TABLE6_CIRCUITS: &[&str] = &[
    "s298g", "s344g", "s386g", "s400g", "s444g", "s526g", "s641g", "s820g", "s1196g", "s1494g",
];

/// The circuits of Table A (the §2.2 ablations): the macro-cap,
/// list-splitting and probe groups run on the first, fault dropping on the
/// second.
pub const TABLE_A_CIRCUITS: [&str; 2] = ["s1196g", "s526g"];

/// Global workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Size ratio applied to the two largest circuits (`s5378g`,
    /// `s35932g`) so a full table run stays laptop-friendly; `1.0`
    /// reproduces the paper-scale circuits.
    pub large_circuit_scale: f64,
    /// Random budget used to derive the Table 2/3 deterministic test sets.
    pub deterministic_budget: usize,
    /// Random-pattern count for Table 5.
    pub random_patterns: usize,
    /// Seed for all workload randomness.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            large_circuit_scale: 0.25,
            deterministic_budget: 384,
            random_patterns: 512,
            seed: 0x01992DAC,
        }
    }
}

impl WorkloadConfig {
    /// A configuration that reproduces the full paper-scale circuits.
    pub fn full_scale() -> Self {
        WorkloadConfig {
            large_circuit_scale: 1.0,
            ..Default::default()
        }
    }

    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        WorkloadConfig {
            large_circuit_scale: 0.05,
            deterministic_budget: 96,
            random_patterns: 128,
            seed: 0x01992DAC,
        }
    }
}

/// Instantiates a benchmark circuit under the configuration (the two
/// largest are scaled by `large_circuit_scale`).
///
/// # Panics
///
/// Panics on an unknown circuit name.
pub fn circuit(name: &str, config: &WorkloadConfig) -> Circuit {
    let spec = benchmark_spec(name).unwrap_or_else(|| panic!("unknown benchmark {name:?}"));
    let spec = if matches!(name, "s5378g" | "s35932g") && config.large_circuit_scale < 1.0 {
        spec.scaled(config.large_circuit_scale)
    } else {
        spec
    };
    generate(&spec)
}

/// The collapsed stuck-at fault universe used throughout the tables.
pub fn fault_universe(circuit: &Circuit) -> Vec<StuckAt> {
    collapse_stuck_at(circuit).representatives
}

/// The Table 2/3 "deterministic patterns": a random sequence compacted by
/// fault-simulation tail trimming (the paper used test sets provided with
/// PROOFS, which we do not have; see `DESIGN.md`).
pub fn deterministic_tests(
    circuit: &Circuit,
    faults: &[StuckAt],
    config: &WorkloadConfig,
) -> Vec<Vec<Logic>> {
    let raw = random_patterns(circuit, config.deterministic_budget, config.seed);
    trim_tail(circuit, faults, raw)
}

/// The Table 4 "higher coverage" tests: the full ATPG flow (random phase +
/// PODEM over time-frame windows).
pub fn atpg_tests(
    circuit: &Circuit,
    faults: &[StuckAt],
    config: &WorkloadConfig,
) -> Vec<Vec<Logic>> {
    let outcome = generate_tests(
        circuit,
        faults,
        AtpgOptions {
            max_frames: 6,
            backtrack_limit: 300,
            random_patterns: config.deterministic_budget,
            seed: config.seed,
        },
    );
    outcome.patterns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_affects_only_large_circuits() {
        let cfg = WorkloadConfig::quick();
        let small = circuit("s298g", &cfg);
        assert_eq!(small.num_comb_gates(), 119);
        let large = circuit("s35932g", &cfg);
        assert!(large.num_comb_gates() < 16065 / 10);
    }

    #[test]
    fn deterministic_tests_are_compact_and_useful() {
        let cfg = WorkloadConfig::quick();
        let c = circuit("s298g", &cfg);
        let faults = fault_universe(&c);
        let tests = deterministic_tests(&c, &faults, &cfg);
        assert!(!tests.is_empty());
        assert!(tests.len() <= cfg.deterministic_budget);
    }
}
