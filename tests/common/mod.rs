//! Stimulus and the pattern-exact transition oracle check shared by the
//! transition test harnesses.

use cfs_baselines::SerialTransitionSim;
use cfs_core::{BatchOptions, NullProbe, ParallelTransitionSim, TransitionOptions, TransitionSim};
use cfs_faults::{enumerate_transition, FaultStatus};
use cfs_logic::Logic;
use cfs_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn random_patterns(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..circuit.num_inputs())
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Matches the serial reference pattern for pattern: the serial
/// concurrent simulator with and without the visible/invisible split,
/// and the batched fault-sharded path (2 workers, 4 shards, 5-pattern
/// windows, stealing on) for both. Returns the reference statuses.
pub fn cross_validate(circuit: &Circuit, patterns: &[Vec<Logic>]) -> Vec<FaultStatus> {
    let faults = enumerate_transition(circuit);
    let reference = SerialTransitionSim::new(circuit, &faults)
        .run(patterns)
        .statuses;
    let check = |what: &str, statuses: &[FaultStatus]| {
        for (i, (a, b)) in reference.iter().zip(statuses).enumerate() {
            assert_eq!(
                a,
                b,
                "{what} {}: fault {i} ({})",
                circuit.name(),
                faults[i].describe(circuit)
            );
        }
    };
    let batch = BatchOptions {
        window: 5,
        steal: true,
    };
    for split in [false, true] {
        let options = TransitionOptions {
            split_invisible: split,
            drop_detected: true,
        };
        let serial = TransitionSim::new(circuit, &faults, options.clone()).run(patterns);
        check(&format!("split={split}"), &serial.statuses);
        let mut sharded =
            ParallelTransitionSim::with_shards(circuit, &faults, options, 2, 4, |_| NullProbe);
        let batched = sharded.run_batched(patterns, &batch);
        check(&format!("batched split={split}"), &batched.statuses);
    }
    reference
}
