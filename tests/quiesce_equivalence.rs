//! Differential equivalence for the transition engine's release-pass
//! skip, its one quiescence rule: the release pass re-schedules only the
//! fault sites its hold pass evaluated. The gated engine must be
//! bit-identical to the ungated serial reference (`SerialTransitionSim`,
//! which re-evaluates every site in both passes) — same per-fault
//! statuses, including exact first-detection pattern indices — serial,
//! sharded and batched, on stimulus crafted to leave most of the circuit
//! settled (random patterns held for multi-cycle bursts).
//!
//! The adversarial fixture holds one input pattern for 40 cycles, so the
//! hold pass evaluates almost nothing and the release pass skips almost
//! every site, then sweeps the whole input space: faults detectable only
//! by the late stimulus must still be detected at the exact reference
//! pattern.

mod common;

use cfs_baselines::SerialTransitionSim;
use cfs_core::{BatchOptions, NullProbe, ParallelTransitionSim, TransitionOptions};
use cfs_faults::{enumerate_transition, FaultStatus};
use cfs_logic::Logic;
use cfs_netlist::generate::{benchmark, generate, CircuitSpec};
use cfs_netlist::Circuit;
use common::{cross_validate, random_patterns};

/// Random patterns never settle, so each random pattern is held for
/// `hold` consecutive cycles: the circuit settles, and the next burst
/// changes only part of it.
fn hold_patterns(circuit: &Circuit, bursts: usize, hold: usize, seed: u64) -> Vec<Vec<Logic>> {
    random_patterns(circuit, bursts, seed)
        .into_iter()
        .flat_map(|p| std::iter::repeat_n(p, hold))
        .collect()
}

#[test]
fn transition_gated_matches_ungated() {
    for seed in 0..3u64 {
        let spec = CircuitSpec::new(format!("qgt{seed}"), 4, 3, 5, 60, 7300 + seed);
        let c = generate(&spec);
        cross_validate(&c, &hold_patterns(&c, 10, 6, 77 + seed));
    }
    let c = benchmark("s298g").expect("known benchmark");
    cross_validate(&c, &hold_patterns(&c, 8, 6, 0xDAC));
}

/// The skip composes with both parallelism axes: fault shards and
/// pattern windows. Sharded and batched runs must match the serial
/// reference bit for bit.
#[test]
fn gated_matches_under_sharding_and_batching() {
    let c = benchmark("s298g").expect("known benchmark");
    let patterns = hold_patterns(&c, 12, 8, 0x41);
    let faults = enumerate_transition(&c);
    let reference = SerialTransitionSim::new(&c, &faults)
        .run(&patterns)
        .statuses;
    for threads in [1usize, 4] {
        for window in [0usize, 16] {
            let batch = BatchOptions {
                window,
                steal: true,
                ..BatchOptions::default()
            };
            let mut par = ParallelTransitionSim::with_shards(
                &c,
                &faults,
                TransitionOptions::default(),
                threads,
                threads,
                |_| NullProbe,
            );
            let report = par.run_batched(&patterns, &batch);
            assert_eq!(
                report.statuses, reference,
                "transition threads={threads} batch={window}"
            );
        }
    }
}

/// A fault whose excitation arrives only long after the circuit settled
/// must still be detected, at the exact reference pattern. The stimulus
/// holds one pattern for 40 cycles, then sweeps the whole 4-bit input
/// space, each vector held 8 cycles — so some fault is necessarily
/// detected first in the late phase.
#[test]
fn long_dormant_fault_still_detected_after_wake() {
    let c = cfs_netlist::data::s27();
    let n = c.num_inputs();
    let mut patterns = vec![vec![Logic::Zero; n]; 40];
    for bits in 0..(1u32 << n) {
        let p: Vec<Logic> = (0..n)
            .map(|i| Logic::from_bool(bits >> i & 1 == 1))
            .collect();
        patterns.extend(std::iter::repeat_n(p, 8));
    }
    let statuses = cross_validate(&c, &patterns);
    assert!(
        statuses
            .iter()
            .any(|s| matches!(s, FaultStatus::Detected { pattern } if *pattern >= 40)),
        "fixture is vacuous: no detection after the hold"
    );
}
