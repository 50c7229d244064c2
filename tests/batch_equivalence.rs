//! Differential equivalence for the two-dimensional (pattern-batch ×
//! fault-shard) scheduler: batched runs must be bit-identical to the
//! serial engines — same per-fault statuses (exact, including detection
//! pattern indices) and the same sorted detection list — for every window
//! size (including one-pattern windows and one whole-run window), thread
//! count, steal schedule, csim variant, and both fault models, on random
//! netlists, with and without static pruning.
//!
//! Also pins the seeded-schedule replay (merge output independent of the
//! task interleaving) and an adversarial partition — one giant shard plus
//! empties and singletons, forcing maximal stealing — as a regression
//! fixture.

use cfs_check::{analyze_circuit, prune_stuck_at, prune_transition};
use cfs_core::{
    detections_of, BatchOptions, ConcurrentSim, CsimVariant, NullProbe, ParallelSim,
    ParallelTransitionSim, TransitionOptions, TransitionSim,
};
use cfs_faults::{
    collapse_stuck_at, enumerate_stuck_at, enumerate_transition, FaultStatus, PrunedUniverse,
};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Window sizes: single-pattern windows, two uneven mid sizes, and `0`
/// (one window spanning the whole run).
const WINDOWS: [usize; 4] = [1, 3, 8, 0];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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

/// Odd oversharding (more shards than workers, never a multiple) so the
/// steal path actually runs instead of degenerating to static dispatch.
fn shards_for(threads: usize) -> usize {
    threads * 2 - 1
}

/// Serial vs. batched stuck-at runs on one circuit, full matrix.
fn check_stuck_batched(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let faults = collapse_stuck_at(circuit).representatives;
    for variant in CsimVariant::ALL {
        let mut serial = ConcurrentSim::new(circuit, &faults, variant.options());
        let reference = serial.run(patterns);
        let ref_detections = detections_of(&reference.statuses);
        for window in WINDOWS {
            for threads in THREAD_COUNTS {
                let batch = BatchOptions {
                    window,
                    steal: true,
                };
                let mut par = ParallelSim::with_shards(
                    circuit,
                    &faults,
                    variant.options(),
                    threads,
                    shards_for(threads),
                    |_| NullProbe,
                );
                let report = par.run_batched(patterns, &batch);
                assert_eq!(
                    report.statuses,
                    reference.statuses,
                    "{}: {variant} window={window} threads={threads}",
                    circuit.name()
                );
                assert_eq!(
                    par.detections(),
                    ref_detections,
                    "{}: {variant} window={window} threads={threads}",
                    circuit.name()
                );
            }
        }
    }
}

/// Serial vs. batched transition runs on one circuit, full matrix.
fn check_transition_batched(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let faults = enumerate_transition(circuit);
    let mut serial = TransitionSim::new(circuit, &faults, TransitionOptions::default());
    let reference = serial.run(patterns);
    let ref_detections = detections_of(&reference.statuses);
    for window in WINDOWS {
        for threads in THREAD_COUNTS {
            let batch = BatchOptions {
                window,
                steal: true,
            };
            let mut par = ParallelTransitionSim::with_shards(
                circuit,
                &faults,
                TransitionOptions::default(),
                threads,
                shards_for(threads),
                |_| NullProbe,
            );
            let report = par.run_batched(patterns, &batch);
            assert_eq!(
                report.statuses,
                reference.statuses,
                "{}: transition window={window} threads={threads}",
                circuit.name()
            );
            assert_eq!(
                par.detections(),
                ref_detections,
                "{}: transition window={window} threads={threads}",
                circuit.name()
            );
        }
    }
}

#[test]
fn stuck_at_batched_matches_serial_on_random_netlists() {
    for seed in 0..2u64 {
        let spec = CircuitSpec::new(format!("be{seed}"), 5, 4, 6, 70, 9100 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 48, seed ^ 0xBA7C4);
        check_stuck_batched(&c, &patterns);
    }
}

#[test]
fn stuck_at_batched_matches_serial_on_a_benchmark() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let patterns = random_patterns(&c, 48, 0x5EED);
    check_stuck_batched(&c, &patterns);
}

#[test]
fn transition_batched_matches_serial_on_random_netlists() {
    for seed in 0..2u64 {
        let spec = CircuitSpec::new(format!("bet{seed}"), 4, 3, 5, 60, 7100 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 48, seed ^ 0xBA7C5);
        check_transition_batched(&c, &patterns);
    }
}

/// The `--prune` analogue: batched runs over the statically pruned
/// universe, expanded back, must tell the same detection story as a full
/// uncollapsed serial run. Detected entries must match exactly; pruned
/// faults may report `Untestable` where the reference says `Undetected`.
fn assert_detection_equivalence(
    reference: &[FaultStatus],
    expanded: &[FaultStatus],
    context: &str,
) {
    assert_eq!(reference.len(), expanded.len(), "{context}: universe size");
    for (i, (r, e)) in reference.iter().zip(expanded).enumerate() {
        match (r, e) {
            (FaultStatus::Detected { pattern: a }, FaultStatus::Detected { pattern: b }) => {
                assert_eq!(a, b, "{context}: fault {i} first-detection pattern")
            }
            (FaultStatus::Detected { .. }, other) => {
                panic!("{context}: fault {i} detected in full run but {other:?} after pruning")
            }
            (other, FaultStatus::Detected { .. }) => {
                panic!("{context}: fault {i} {other:?} in full run but detected after pruning")
            }
            _ => {}
        }
    }
    assert_eq!(
        detections_of(reference),
        detections_of(expanded),
        "{context}: detection lists"
    );
}

#[test]
fn pruned_batched_stuck_matches_full_serial() {
    let spec = CircuitSpec::new("bep0", 5, 4, 6, 70, 9200);
    let c = generate(&spec);
    let patterns = random_patterns(&c, 48, 0xBA7C6);
    let full = enumerate_stuck_at(&c);
    let analysis = analyze_circuit(&c);
    let pruned: PrunedUniverse<_> = prune_stuck_at(&c, &analysis);
    pruned.validate().expect("pruned universe invariants");
    for variant in CsimVariant::ALL {
        let reference = ConcurrentSim::new(&c, &full, variant.options()).run(&patterns);
        for window in [3, 0] {
            for threads in [2, 7] {
                let batch = BatchOptions {
                    window,
                    steal: true,
                };
                let mut par = ParallelSim::with_shards(
                    &c,
                    &pruned.sim,
                    variant.options(),
                    threads,
                    shards_for(threads),
                    |_| NullProbe,
                );
                let report = par.run_batched(&patterns, &batch);
                let expanded = pruned.expand_statuses(&report.statuses);
                assert_detection_equivalence(
                    &reference.statuses,
                    &expanded,
                    &format!("{variant} window={window} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn pruned_batched_transition_matches_full_serial() {
    let spec = CircuitSpec::new("bept0", 4, 3, 5, 60, 7200);
    let c = generate(&spec);
    let patterns = random_patterns(&c, 48, 0xBA7C7);
    let full = enumerate_transition(&c);
    let analysis = analyze_circuit(&c);
    let pruned: PrunedUniverse<_> = prune_transition(&c, &analysis);
    pruned.validate().expect("pruned universe invariants");
    let reference = TransitionSim::new(&c, &full, TransitionOptions::default()).run(&patterns);
    for window in [3, 0] {
        for threads in [2, 7] {
            let batch = BatchOptions {
                window,
                steal: true,
            };
            let mut par = ParallelTransitionSim::with_shards(
                &c,
                &pruned.sim,
                TransitionOptions::default(),
                threads,
                shards_for(threads),
                |_| NullProbe,
            );
            let report = par.run_batched(&patterns, &batch);
            let expanded = pruned.expand_statuses(&report.statuses);
            assert_detection_equivalence(
                &reference.statuses,
                &expanded,
                &format!("transition window={window} threads={threads}"),
            );
        }
    }
}

/// Merge output must be independent of the steal interleaving. The
/// honest version of that claim cannot rely on OS thread timing, so
/// [`ParallelSim::run_seeded`] replays explicit seeded schedules
/// single-threaded: every seed — and the live scheduler with stealing on
/// and off — must produce the same statuses.
#[test]
fn seeded_schedule_replay_is_interleaving_independent() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let faults = collapse_stuck_at(&c).representatives;
    let patterns = random_patterns(&c, 40, 0x51D);
    let options = CsimVariant::Mv.options();
    let reference = ConcurrentSim::new(&c, &faults, options.clone()).run(&patterns);
    let batch = BatchOptions {
        window: 6,
        steal: true,
    };
    let build = || ParallelSim::with_shards(&c, &faults, options.clone(), 4, 5, |_| NullProbe);
    for schedule_seed in [1, 0xBEEF, 0x5EED_1992, u64::MAX] {
        let mut par = build();
        let report = par.run_seeded(&patterns, &batch, schedule_seed);
        assert_eq!(
            report.statuses, reference.statuses,
            "seeded replay seed={schedule_seed:#x}"
        );
    }
    for steal in [false, true] {
        let mut par = build();
        let report = par.run_batched(
            &patterns,
            &BatchOptions {
                steal,
                ..batch.clone()
            },
        );
        assert_eq!(report.statuses, reference.statuses, "live steal={steal}");
    }
}

/// Regression fixture: an adversarial partition the round-robin deal never
/// produces — one giant shard holding nearly everything, plus empties and
/// singletons — under one-pattern windows and stealing. The giant shard
/// is the permanent long pole, so idle workers steal constantly; the run
/// must terminate and stay serial-identical.
#[test]
fn adversarial_giant_shard_partition_is_serial_identical() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
    let faults = collapse_stuck_at(&c).representatives;
    let n = faults.len();
    assert!(n > 8, "fixture needs a non-trivial universe");
    let patterns = random_patterns(&c, 32, 0xADE);
    let options = CsimVariant::Mv.options();
    let reference = ConcurrentSim::new(&c, &faults, options.clone()).run(&patterns);
    // Shard 0: everything but the last three faults. Then two empties,
    // three singletons, and another empty — an exact cover of 0..n.
    let parts: Vec<Vec<usize>> = vec![
        (0..n - 3).collect(),
        Vec::new(),
        Vec::new(),
        vec![n - 3],
        vec![n - 2],
        vec![n - 1],
        Vec::new(),
    ];
    let mut par = ParallelSim::with_partition(&c, &faults, options, 4, parts, |_| NullProbe);
    let batch = BatchOptions {
        window: 1,
        steal: true,
    };
    let report = par.run_batched(&patterns, &batch);
    assert_eq!(report.statuses, reference.statuses, "adversarial partition");
    assert_eq!(
        par.detections(),
        detections_of(&reference.statuses),
        "adversarial partition"
    );
}
