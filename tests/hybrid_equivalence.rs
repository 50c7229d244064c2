//! Differential tests for the hot-fault hybrid: moving faults off the
//! concurrent lists into 64-lane packed words never changes a result.
//!
//! Per-fault statuses, detecting pattern included, are identical for
//! three configurations of every csim variant — lane cap 0 (pure
//! concurrent), the default cap, and a forced run that promotes every live
//! fault at pattern 32 — on generated circuits and several seeds, run
//! serially, sharded over threads, batched with work stealing, and resumed
//! from a checkpoint taken after a promotion. Debug builds re-check the
//! list and lane laws after every pattern.

use cfs_core::{
    BatchOptions, Checkpoint, ConcurrentSim, CsimOptions, CsimVariant, NullProbe, ParallelSim,
    DEFAULT_HOT_LANES,
};
use cfs_faults::{collapse_stuck_at, enumerate_stuck_at, FaultStatus, StuckAt};
use cfs_logic::Logic;
use cfs_netlist::generate::{benchmark, generate, CircuitSpec};
use cfs_netlist::{parse_bench, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Patterns per run: three promotion sweeps (at 32, 64 and 96).
const PATTERNS: usize = 100;

/// The three hybrid configurations: `(label, lane cap, promotion
/// threshold)`. The forced one promotes every live fault at pattern 32.
const CONFIGS: [(&str, usize, u32); 3] = [
    ("cap 0", 0, 32),
    ("default", DEFAULT_HOT_LANES, 32),
    ("forced", 1 << 20, 0),
];

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

fn options(variant: CsimVariant, cap: usize) -> CsimOptions {
    CsimOptions {
        hot_lanes: cap,
        ..variant.options()
    }
}

fn serial(
    c: &Circuit,
    faults: &[StuckAt],
    options: CsimOptions,
    threshold: u32,
    patterns: &[Vec<Logic>],
) -> ConcurrentSim {
    let mut sim = ConcurrentSim::new(c, faults, options);
    sim.set_hot_threshold(threshold);
    sim.run(patterns);
    sim
}

/// Every configuration and run mode against the pure concurrent serial
/// run of the same variant.
fn check(c: &Circuit, patterns: &[Vec<Logic>]) {
    let faults = collapse_stuck_at(c).representatives;
    for variant in CsimVariant::ALL {
        let reference = serial(c, &faults, options(variant, 0), 32, patterns).statuses();
        let same = |what: &str, statuses: &[FaultStatus]| {
            for (i, (a, b)) in reference.iter().zip(statuses).enumerate() {
                assert_eq!(
                    a,
                    b,
                    "{variant} {what} on {}: fault {i} ({})",
                    c.name(),
                    faults[i].describe(c)
                );
            }
        };
        for (label, cap, threshold) in CONFIGS {
            let sim = serial(c, &faults, options(variant, cap), threshold, patterns);
            same(&format!("{label} serial"), &sim.statuses());
            if label == "forced" {
                assert!(
                    sim.promoted() > 0 || reference.iter().all(|s| s.is_detected()),
                    "{variant} on {}: the forced run promoted nothing",
                    c.name()
                );
            }

            let sharded = |threads: usize| {
                let mut par = ParallelSim::with_shards(
                    c,
                    &faults,
                    options(variant, cap),
                    threads,
                    threads * 2 - 1,
                    |_| NullProbe,
                );
                par.set_hot_threshold(threshold);
                par
            };
            let mut threaded = sharded(2);
            same(
                &format!("{label} --threads 2"),
                &threaded.run(patterns).statuses,
            );
            let batch = BatchOptions {
                window: 7,
                steal: true,
            };
            let mut batched = sharded(2);
            let report = batched.run_batched(patterns, &batch);
            same(&format!("{label} batched, stealing"), &report.statuses);

            // A checkpoint after the second sweep (pattern 64), resumed
            // through its bytes in a fresh machine.
            let cut = 70;
            let mut first = ConcurrentSim::new(c, &faults, options(variant, cap));
            first.set_hot_threshold(threshold);
            first.run(&patterns[..cut]);
            let ck = Checkpoint::from_bytes(&first.checkpoint().to_bytes()).expect("round trip");
            let mut resumed = ConcurrentSim::new(c, &faults, options(variant, cap));
            resumed.set_hot_threshold(threshold);
            resumed.restore(&ck).expect("restore");
            resumed.run(&patterns[cut..]);
            same(&format!("{label} resumed at {cut}"), &resumed.statuses());
            assert_eq!(resumed.promoted(), sim.promoted(), "{variant} {label}");
            assert_eq!(
                resumed.packed_evaluations(),
                sim.packed_evaluations(),
                "{variant} {label}"
            );
        }
    }
}

#[test]
fn hybrid_matches_pure_concurrent_on_generated_circuits() {
    for seed in 0..3u64 {
        let spec = CircuitSpec::new(format!("hy{seed}"), 6, 4, 8, 90, 500 + seed);
        let c = generate(&spec);
        check(&c, &random_patterns(&c, PATTERNS, seed));
    }
}

#[test]
fn hybrid_matches_pure_concurrent_on_a_benchmark() {
    let c = benchmark("s298g").unwrap();
    check(&c, &random_patterns(&c, PATTERNS, 11));
}

/// Gates wider than the macro input cap are direct nodes whose plain
/// faults promote like any other (`examples/bench/wide.bench`).
#[test]
fn hybrid_matches_pure_concurrent_on_wide_gates() {
    let c = parse_bench("wide", include_str!("../examples/bench/wide.bench")).unwrap();
    check(&c, &random_patterns(&c, PATTERNS, 7));
}

/// From a reset state, and with a second reset forced at pattern 40,
/// after the first sweep has filled lanes: a stuck Q keeps its value
/// through the reset, a stuck D pin latches only at the next clock.
#[test]
fn hybrid_matches_from_a_reset_state() {
    let c = benchmark("s344g").unwrap();
    // The full universe keeps the flip-flop D-pin faults collapsing folds
    // away.
    let faults = enumerate_stuck_at(&c);
    let patterns = random_patterns(&c, PATTERNS, 3);
    let reset = vec![Logic::Zero; c.num_dffs()];
    for variant in CsimVariant::ALL {
        let run = |cap: usize, threshold: u32| {
            let mut sim = ConcurrentSim::new(&c, &faults, options(variant, cap));
            sim.set_hot_threshold(threshold);
            sim.set_state(&reset);
            sim.run(&patterns[..40]);
            sim.set_state(&reset);
            sim.run(&patterns[40..]);
            sim.statuses()
        };
        let reference = run(0, 32);
        assert_eq!(run(1 << 20, 0), reference, "{variant} forced");
        assert_eq!(run(DEFAULT_HOT_LANES, 32), reference, "{variant} default");
    }
}
