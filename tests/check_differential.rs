//! Differential guarantee behind the `cfs-check` preflight: any netlist
//! that passes `fsim check` simulates without panicking in every
//! concurrent variant, serial and fault-sharded, for both fault models —
//! with the debug-build invariant verifier active throughout (these tests
//! compile with `debug_assertions`, so every pattern is re-verified
//! against the concurrent-list laws).

use cfs_baselines::SerialSim;
use cfs_core::{
    ConcurrentSim, CsimVariant, ParallelSim, ParallelTransitionSim, TransitionOptions,
    TransitionSim,
};
use cfs_faults::{collapse_stuck_at, enumerate_transition};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::{parse_bench, write_bench, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..circuit.num_inputs())
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Checks the circuit, then drives it through every simulator
/// configuration the CLI exposes. A panic anywhere fails the test.
fn checked_then_simulated(circuit: &Circuit, patterns: usize, seed: u64) {
    let report = cfs_check::check_circuit(circuit);
    assert!(
        !report.has_errors(),
        "{}: checker rejected a generated circuit:\n{}",
        circuit.name(),
        report.render_text()
    );
    let patterns = random_patterns(circuit, patterns, seed);
    let stuck = collapse_stuck_at(circuit).representatives;
    let reference = SerialSim::new(circuit, &stuck).run(&patterns);
    for variant in CsimVariant::ALL {
        let mut sim = ConcurrentSim::new(circuit, &stuck, variant.options());
        let report = sim.run(&patterns);
        assert_eq!(
            report.detected(),
            reference.detected(),
            "{}: {variant} disagrees with the serial reference",
            circuit.name()
        );
        let mut sharded = ParallelSim::new(circuit, &stuck, variant.options(), 4);
        let sharded_report = sharded.run(&patterns);
        assert_eq!(
            sharded_report.statuses,
            report.statuses,
            "{}: {variant} threads=4 diverged",
            circuit.name()
        );
    }
    let transition = enumerate_transition(circuit);
    let mut serial_t = TransitionSim::new(circuit, &transition, TransitionOptions::default());
    let serial_report = serial_t.run(&patterns);
    let mut par_t =
        ParallelTransitionSim::new(circuit, &transition, TransitionOptions::default(), 4);
    let par_report = par_t.run(&patterns);
    assert_eq!(par_report.statuses, serial_report.statuses);
}

#[test]
fn checked_random_netlists_never_panic() {
    for seed in 0..6u64 {
        let spec = CircuitSpec::new(
            format!("cd{seed}"),
            4 + (seed as usize % 3),
            3,
            2 + (seed as usize % 4),
            30 + 11 * seed as usize,
            0xd1ff + seed,
        );
        let circuit = generate(&spec);
        checked_then_simulated(&circuit, 48, 77 + seed);
    }
}

#[test]
fn checked_bench_round_trip_never_panics() {
    // The same guarantee holds for circuits that pass through `.bench`
    // serialization (the path `fsim sim <file>` takes).
    let spec = CircuitSpec::new("cdrt", 5, 4, 6, 70, 0xbe7c);
    let text = write_bench(&generate(&spec));
    let report = cfs_check::check_bench_source("cdrt", &text);
    assert!(!report.has_errors(), "{}", report.render_text());
    let circuit = parse_bench("cdrt", &text).expect("checked source parses");
    checked_then_simulated(&circuit, 32, 3);
}

#[test]
fn checked_builtin_benchmarks_never_panic() {
    for name in ["s298g", "s526g"] {
        let circuit = cfs_netlist::generate::benchmark(name).expect("known benchmark");
        checked_then_simulated(&circuit, 32, 11);
    }
}
