//! Differential equivalence: the fault-sharded parallel simulators must be
//! byte-identical to the serial engines — same per-fault statuses (exact,
//! including detection pattern indices and untestability) and the same
//! sorted detection list — for every thread count, more shards than
//! faults, a one-fault universe, every csim variant, and both fault
//! models, on randomly generated netlists.
//!
//! Also property-tests the round-robin partition invariant (every fault
//! in exactly one shard, no shard empty) and pins the deterministic merge
//! order.

use proptest::prelude::*;

use cfs_core::{
    detections_of, round_robin_shards, BatchOptions, ConcurrentSim, CsimVariant, NullProbe,
    ParallelSim, ParallelTransitionSim, TransitionOptions, TransitionSim,
};
use cfs_faults::{collapse_stuck_at, enumerate_transition, FaultStatus};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The `(threads, shards)` runs each check compares against serial: one
/// shard per worker at every thread count, then more shards than the
/// universe has faults, which deals one fault per shard.
fn shardings(faults: usize) -> impl Iterator<Item = (usize, usize)> {
    THREAD_COUNTS
        .into_iter()
        .map(|t| (t, t))
        .chain([(4, faults + 3)])
}

/// `fsim --steal`'s schedule: idle workers steal shards, so the order
/// shards run in varies from run to run.
fn stealing() -> BatchOptions {
    BatchOptions {
        steal: true,
        ..BatchOptions::default()
    }
}

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

/// Serial vs. sharded stuck-at runs on one circuit: statuses and the
/// derived detection list must match exactly.
fn check_stuck_equivalence(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let faults = collapse_stuck_at(circuit).representatives;
    for variant in CsimVariant::ALL {
        let mut serial = ConcurrentSim::new(circuit, &faults, variant.options());
        let reference = serial.run(patterns);
        let ref_detections = detections_of(&reference.statuses);
        for (threads, shards) in shardings(faults.len()) {
            let mut par = ParallelSim::with_shards(
                circuit,
                &faults,
                variant.options(),
                threads,
                shards,
                |_| NullProbe,
            );
            assert_eq!(par.num_shards(), shards.min(faults.len()));
            let report = par.run_batched(patterns, &stealing());
            assert_eq!(
                report.statuses,
                reference.statuses,
                "{}: {variant} threads={threads} shards={shards}",
                circuit.name()
            );
            assert_eq!(
                par.detections(),
                ref_detections,
                "{}: {variant} threads={threads} shards={shards}",
                circuit.name()
            );
        }
    }
}

/// Serial vs. sharded transition runs on one circuit.
fn check_transition_equivalence(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let faults = enumerate_transition(circuit);
    let mut serial = TransitionSim::new(circuit, &faults, TransitionOptions::default());
    let reference = serial.run(patterns);
    for (threads, shards) in shardings(faults.len()) {
        let mut par = ParallelTransitionSim::with_shards(
            circuit,
            &faults,
            TransitionOptions::default(),
            threads,
            shards,
            |_| NullProbe,
        );
        assert_eq!(par.num_shards(), shards.min(faults.len()));
        let report = par.run_batched(patterns, &stealing());
        assert_eq!(
            report.statuses,
            reference.statuses,
            "{}: transition threads={threads} shards={shards}",
            circuit.name()
        );
    }
}

#[test]
fn stuck_at_parallel_matches_serial_on_random_netlists() {
    for seed in 0..4u64 {
        let spec = CircuitSpec::new(format!("pe{seed}"), 5, 4, 6, 70, 9000 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 40, seed ^ 0xC0FFEE);
        check_stuck_equivalence(&c, &patterns);
    }
}

#[test]
fn transition_parallel_matches_serial_on_random_netlists() {
    for seed in 0..4u64 {
        let spec = CircuitSpec::new(format!("pet{seed}"), 4, 3, 5, 60, 7000 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 40, seed ^ 0xDEC0DE);
        check_transition_equivalence(&c, &patterns);
    }
}

#[test]
fn sharded_runs_agree_on_a_benchmark_circuit() {
    let c = cfs_netlist::generate::benchmark("s526g").expect("known benchmark");
    let patterns = random_patterns(&c, 60, 0x5EED);
    check_stuck_equivalence(&c, &patterns);
}

/// A universe of one fault has one shard whatever the thread and shard
/// counts ask for, so it runs the serial machine's path: serial statuses,
/// the serial name, and no scheduler.
#[test]
fn one_fault_universe_takes_the_serial_path() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let patterns = random_patterns(&c, 40, 0x0FA1);
    let stuck = collapse_stuck_at(&c).representatives;
    let transition = enumerate_transition(&c);
    for i in [0, stuck.len() / 2, stuck.len() - 1] {
        let fault = &stuck[i..=i];
        let reference = ConcurrentSim::new(&c, fault, CsimVariant::Mv.options()).run(&patterns);
        let mut par =
            ParallelSim::with_shards(&c, fault, CsimVariant::Mv.options(), 4, 8, |_| NullProbe);
        assert_eq!(par.num_shards(), 1);
        let report = par.run(&patterns);
        assert_eq!(report.statuses, reference.statuses, "stuck fault {i}");
        assert_eq!(report.simulator, reference.simulator);
        assert!(par.sched_stats().is_none());
    }
    for i in [0, transition.len() / 2, transition.len() - 1] {
        let fault = &transition[i..=i];
        let reference = TransitionSim::new(&c, fault, TransitionOptions::default()).run(&patterns);
        let mut par = ParallelTransitionSim::with_shards(
            &c,
            fault,
            TransitionOptions::default(),
            2,
            4,
            |_| NullProbe,
        );
        assert_eq!(par.num_shards(), 1);
        let report = par.run(&patterns);
        assert_eq!(report.statuses, reference.statuses, "transition fault {i}");
        assert_eq!(report.simulator, reference.simulator);
    }
}

/// Pins the merge order: detections come out sorted by pattern first, then
/// by global fault index, with ties broken deterministically — the
/// contract the CLI `--detections` dump and any downstream diffing rely
/// on.
#[test]
fn merge_order_regression() {
    let statuses = vec![
        FaultStatus::Detected { pattern: 9 },  // fault 0
        FaultStatus::Untestable,               // fault 1
        FaultStatus::Detected { pattern: 2 },  // fault 2
        FaultStatus::Undetected,               // fault 3
        FaultStatus::Detected { pattern: 2 },  // fault 4
        FaultStatus::Detected { pattern: 0 },  // fault 5
        FaultStatus::Detected { pattern: 11 }, // fault 6
        FaultStatus::Detected { pattern: 2 },  // fault 7
    ];
    assert_eq!(
        detections_of(&statuses),
        vec![(5, 0), (2, 2), (4, 2), (7, 2), (0, 9), (6, 11)],
        "detections must be sorted by (pattern, fault id)"
    );
    // And the list is a pure function of the statuses: permutation-proof
    // by construction, so recomputing yields the identical vector.
    assert_eq!(detections_of(&statuses), detections_of(&statuses));
}

/// The parallel report is stable run-to-run (thread scheduling must not
/// leak into results): two 4-thread runs produce identical statuses.
#[test]
fn parallel_runs_are_reproducible() {
    let c = cfs_netlist::generate::benchmark("s641g").expect("known benchmark");
    let faults = collapse_stuck_at(&c).representatives;
    let patterns = random_patterns(&c, 50, 0xAB1E);
    let run = || {
        let mut sim = ParallelSim::new(&c, &faults, CsimVariant::Mv.options(), 4);
        sim.run_batched(&patterns, &stealing()).statuses
    };
    assert_eq!(run(), run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The round-robin deal is an exact cover of the fault list: no fault
    /// is lost, none is duplicated, no shard is empty unless the universe
    /// is, and shard-local order stays ascending so local fault ids map
    /// monotonically to global indices.
    #[test]
    fn shard_partition_is_an_exact_cover(
        faults in 0usize..200,
        shards in 1usize..12,
    ) {
        let parts = round_robin_shards(faults, shards);
        prop_assert_eq!(parts.len(), shards.min(faults).max(1));
        let mut seen = vec![false; faults];
        for part in &parts {
            prop_assert!(faults == 0 || !part.is_empty(), "empty shard");
            prop_assert!(
                part.windows(2).all(|w| w[0] < w[1]),
                "shard indices must be strictly ascending"
            );
            for &i in part {
                prop_assert!(i < faults, "index out of range");
                prop_assert!(!seen[i], "fault {} appears in two shards", i);
                seen[i] = true;
            }
        }
        for (i, s) in seen.iter().enumerate() {
            prop_assert!(*s, "fault {} lost", i);
        }
    }

    /// Shard sizes stay balanced: the largest and smallest shard differ by
    /// at most one fault.
    #[test]
    fn shard_partition_is_balanced(
        faults in 1usize..200,
        shards in 1usize..12,
    ) {
        let parts = round_robin_shards(faults, shards);
        let min = parts.iter().map(Vec::len).min().unwrap();
        let max = parts.iter().map(Vec::len).max().unwrap();
        prop_assert!(max - min <= 1, "sizes {} .. {}", min, max);
    }

    /// `detections_of` output is sorted by (pattern, fault) and contains
    /// exactly the detected faults.
    #[test]
    fn detections_are_sorted_and_complete(
        statuses in prop::collection::vec(
            prop_oneof![
                Just(FaultStatus::Undetected),
                Just(FaultStatus::Untestable),
                (0usize..50).prop_map(|pattern| FaultStatus::Detected { pattern }),
            ],
            0..120,
        ),
    ) {
        let dets = detections_of(&statuses);
        prop_assert!(dets.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
        prop_assert_eq!(
            dets.len(),
            statuses.iter().filter(|s| s.is_detected()).count()
        );
        for (fault, pattern) in dets {
            prop_assert_eq!(
                statuses[fault as usize],
                FaultStatus::Detected { pattern: pattern as usize }
            );
        }
    }
}
