//! Layout-refactor differential suite: the cache-conscious engine core
//! (contiguous-run SoA arena, CSR netlist traversal, dense levelized
//! scheduler) is a pure representation change, so on arbitrary generated
//! netlists every concurrent variant — under both fault models and under
//! fault sharding — must report exactly what the straightforward
//! reference simulators report.
//!
//! This is the regression net for the data-layout work specifically: the
//! oracles in `cfs-baselines` share none of the arena/CSR/scheduler code,
//! so a bug in run contiguity, terminal handling, compaction, or CSR
//! adjacency shows up here as a status mismatch rather than silently
//! corrupting fault lists.

use proptest::prelude::*;

use cfs_baselines::{SerialSim, SerialTransitionSim};
use cfs_core::{
    ConcurrentSim, CsimVariant, ParallelSim, ParallelTransitionSim, TransitionOptions,
    TransitionSim,
};
use cfs_faults::{collapse_stuck_at, enumerate_transition};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::Circuit;

/// Thread counts exercised against every oracle run: serial layout code
/// (1) and a sharded run that forces arena state to be rebuilt per shard.
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop_oneof![Just(Logic::Zero), Just(Logic::One), Just(Logic::X)]
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3usize..6, 2usize..5, 1usize..7, 20usize..90, any::<u64>()).prop_map(
        |(pi, po, dff, gates, seed)| {
            generate(&CircuitSpec::new("layout", pi, po, dff, gates, seed))
        },
    )
}

fn arb_circuit_and_patterns() -> impl Strategy<Value = (Circuit, Vec<Vec<Logic>>)> {
    arb_circuit().prop_flat_map(|c| {
        let n = c.num_inputs();
        let patterns = prop::collection::vec(prop::collection::vec(arb_logic(), n), 6..24);
        (Just(c), patterns)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stuck-at model: all four concurrent variants, serial and sharded,
    /// agree with the serial fault-at-a-time oracle on detection status
    /// for every collapsed fault.
    #[test]
    fn stuck_at_layout_matches_oracle((circuit, patterns) in arb_circuit_and_patterns()) {
        let faults = collapse_stuck_at(&circuit).representatives;
        let oracle = SerialSim::new(&circuit, &faults).run(&patterns);
        let expected: Vec<bool> = oracle.statuses.iter().map(|s| s.is_detected()).collect();
        for variant in CsimVariant::ALL {
            let mut sim = ConcurrentSim::new(&circuit, &faults, variant.options());
            let serial_statuses = sim.run(&patterns).statuses;
            let got: Vec<bool> = serial_statuses.iter().map(|s| s.is_detected()).collect();
            prop_assert_eq!(&got, &expected, "{} vs oracle on {}", variant, circuit.name());
            for threads in THREAD_COUNTS {
                let mut par = ParallelSim::new(&circuit, &faults, variant.options(), threads);
                let report = par.run(&patterns);
                prop_assert_eq!(
                    &report.statuses,
                    &serial_statuses,
                    "{} threads={} on {}",
                    variant,
                    threads,
                    circuit.name()
                );
            }
        }
    }

    /// Transition model: the delay-mode engine (which owns its own arena
    /// and commit lists) agrees with the two-pattern reference simulator,
    /// serially and sharded.
    #[test]
    fn transition_layout_matches_oracle((circuit, patterns) in arb_circuit_and_patterns()) {
        let faults = enumerate_transition(&circuit);
        let oracle = SerialTransitionSim::new(&circuit, &faults).run(&patterns);
        let expected: Vec<bool> = oracle.statuses.iter().map(|s| s.is_detected()).collect();
        let mut sim = TransitionSim::new(&circuit, &faults, TransitionOptions::default());
        let serial_statuses = sim.run(&patterns).statuses;
        let got: Vec<bool> = serial_statuses.iter().map(|s| s.is_detected()).collect();
        prop_assert_eq!(&got, &expected, "transition vs oracle on {}", circuit.name());
        for threads in THREAD_COUNTS {
            let options = TransitionOptions::default();
            let mut par = ParallelTransitionSim::new(&circuit, &faults, options, threads);
            let report = par.run(&patterns);
            prop_assert_eq!(
                &report.statuses,
                &serial_statuses,
                "transition threads={} on {}",
                threads,
                circuit.name()
            );
        }
    }
}

/// Long-run arena churn: enough patterns on a feedback-heavy circuit to
/// cross the compaction threshold repeatedly; statuses must stay equal to
/// a fresh run over the same patterns split into two sessions of the same
/// engine construction (compaction is invisible to results).
#[test]
fn compaction_under_churn_is_invisible() {
    let c = cfs_netlist::generate::benchmark("s526g").expect("known benchmark");
    let faults = collapse_stuck_at(&c).representatives;
    let patterns: Vec<Vec<Logic>> = (0..400)
        .map(|i| {
            (0..c.num_inputs())
                .map(|k| Logic::from_bool((i * 7 + k * 13) % 11 < 5))
                .collect()
        })
        .collect();
    let oracle = SerialSim::new(&c, &faults).run(&patterns);
    for variant in CsimVariant::ALL {
        let run = |_| {
            ConcurrentSim::new(&c, &faults, variant.options())
                .run(&patterns)
                .statuses
        };
        let whole = run(0);
        assert_eq!(whole, run(1), "{variant}: churn run is not deterministic");
        for (i, (a, b)) in whole.iter().zip(&oracle.statuses).enumerate() {
            assert_eq!(
                a.is_detected(),
                b.is_detected(),
                "{variant}: fault {i} diverged under churn"
            );
        }
    }
}
