//! Differential equivalence for static fault-universe pruning: a run over
//! the statically pruned universe, expanded back through
//! [`PrunedUniverse::expand_statuses`], must produce exactly the detection
//! report of a full uncollapsed run — same detected faults, same first
//! detection patterns — across every csim variant, both fault models, and
//! serial as well as sharded execution.
//!
//! This is the executable form of the soundness contract: pruning may only
//! remove faults that were never going to be detected, and exact
//! collapsing may only merge faults with identical per-pattern behaviour.

use cfs_check::{
    analyze_circuit, prune_stuck_at, prune_stuck_at_learned, prune_transition,
    prune_transition_learned, ImplicationGraph, LearnOptions,
};
use cfs_core::{
    detections_of, ConcurrentSim, CsimVariant, ParallelSim, ParallelTransitionSim,
    TransitionOptions, TransitionSim,
};
use cfs_faults::{enumerate_stuck_at, enumerate_transition, FaultStatus, PrunedUniverse};
use cfs_logic::Logic;
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [1, 4];

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

/// The expanded statuses must tell the same detection story as the
/// reference: identical `Detected` entries (pattern and all), and no fault
/// detected on one side only. Non-detected faults may differ in label
/// (`Undetected` vs `Untestable`), which the detection report does not
/// distinguish.
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

fn check_stuck(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let full = enumerate_stuck_at(circuit);
    let analysis = analyze_circuit(circuit);
    let pruned: PrunedUniverse<_> = prune_stuck_at(circuit, &analysis);
    pruned.validate().expect("pruned universe invariants");
    assert_eq!(pruned.full, full, "enumeration order is the contract");
    for variant in CsimVariant::ALL {
        let reference = ConcurrentSim::new(circuit, &full, variant.options()).run(patterns);
        for threads in THREAD_COUNTS {
            let report = if threads == 1 {
                ConcurrentSim::new(circuit, &pruned.sim, variant.options()).run(patterns)
            } else {
                ParallelSim::new(circuit, &pruned.sim, variant.options(), threads).run(patterns)
            };
            let expanded = pruned.expand_statuses(&report.statuses);
            assert_detection_equivalence(
                &reference.statuses,
                &expanded,
                &format!("{} stuck {variant} t{threads}", circuit.name()),
            );
        }
    }
}

fn check_transition(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let full = enumerate_transition(circuit);
    let analysis = analyze_circuit(circuit);
    let pruned = prune_transition(circuit, &analysis);
    pruned.validate().expect("pruned universe invariants");
    assert_eq!(pruned.full, full, "enumeration order is the contract");
    let reference = TransitionSim::new(circuit, &full, TransitionOptions::default()).run(patterns);
    for threads in THREAD_COUNTS {
        let report = if threads == 1 {
            TransitionSim::new(circuit, &pruned.sim, TransitionOptions::default()).run(patterns)
        } else {
            ParallelTransitionSim::new(circuit, &pruned.sim, TransitionOptions::default(), threads)
                .run(patterns)
        };
        let expanded = pruned.expand_statuses(&report.statuses);
        assert_detection_equivalence(
            &reference.statuses,
            &expanded,
            &format!("{} transition t{threads}", circuit.name()),
        );
    }
}

/// The learned universe (`--prune --learn`) obeys the same contract: a
/// subset of the base pruned universe whose expanded report matches the
/// full run, serial and sharded, both fault models.
fn check_learned(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    let analysis = analyze_circuit(circuit);
    let graph = ImplicationGraph::build(circuit, &analysis, LearnOptions::default());

    let base = prune_stuck_at(circuit, &analysis);
    let learned = prune_stuck_at_learned(circuit, &analysis, &graph);
    learned
        .universe
        .validate()
        .expect("learned universe invariants");
    assert_eq!(learned.universe.full, base.full, "enumeration order kept");
    assert!(
        learned.universe.stats.sim <= base.stats.sim,
        "learning never grows"
    );
    let reference = ConcurrentSim::new(circuit, &learned.universe.full, CsimVariant::Mv.options())
        .run(patterns);
    for threads in THREAD_COUNTS {
        let report = if threads == 1 {
            ConcurrentSim::new(circuit, &learned.universe.sim, CsimVariant::Mv.options())
                .run(patterns)
        } else {
            ParallelSim::new(
                circuit,
                &learned.universe.sim,
                CsimVariant::Mv.options(),
                threads,
            )
            .run(patterns)
        };
        let expanded = learned.universe.expand_statuses(&report.statuses);
        assert_detection_equivalence(
            &reference.statuses,
            &expanded,
            &format!("{} stuck learned t{threads}", circuit.name()),
        );
    }

    let tl = prune_transition_learned(circuit, &analysis, &graph);
    tl.validate().expect("learned transition invariants");
    let reference =
        TransitionSim::new(circuit, &tl.full, TransitionOptions::default()).run(patterns);
    for threads in THREAD_COUNTS {
        let report = if threads == 1 {
            TransitionSim::new(circuit, &tl.sim, TransitionOptions::default()).run(patterns)
        } else {
            ParallelTransitionSim::new(circuit, &tl.sim, TransitionOptions::default(), threads)
                .run(patterns)
        };
        let expanded = tl.expand_statuses(&report.statuses);
        assert_detection_equivalence(
            &reference.statuses,
            &expanded,
            &format!("{} transition learned t{threads}", circuit.name()),
        );
    }
}

fn check_both(circuit: &Circuit, patterns: usize, seed: u64) {
    let patterns = random_patterns(circuit, patterns, seed);
    check_stuck(circuit, &patterns);
    check_transition(circuit, &patterns);
    check_learned(circuit, &patterns);
}

#[test]
fn pruned_runs_match_full_runs_on_s27() {
    check_both(&cfs_netlist::data::s27(), 128, 11);
}

#[test]
fn pruned_runs_match_full_runs_on_bench_fixtures() {
    for name in ["s298g", "s641g"] {
        let circuit = cfs_netlist::generate::benchmark(name).expect("bundled benchmark");
        check_both(&circuit, 96, 13);
    }
}

#[test]
fn pruned_runs_match_full_runs_on_random_netlists() {
    let specs = [
        CircuitSpec::new("prune_r1", 5, 3, 2, 30, 0xA1),
        CircuitSpec::new("prune_r2", 7, 4, 0, 45, 0xB2),
        CircuitSpec::new("prune_r3", 4, 2, 4, 25, 0xC3),
        CircuitSpec::new("prune_r4", 6, 5, 3, 60, 0xD4),
    ];
    for (i, spec) in specs.iter().enumerate() {
        check_both(&generate(spec), 64, 17 + i as u64);
    }
}

/// Implication learning must prune strictly beyond constant propagation
/// on the bundled fixtures — these circuits carry conflict-untestable
/// faults the base pass cannot see.
#[test]
fn learning_strictly_shrinks_the_universe_on_fixtures() {
    for name in ["s298g", "s641g", "s1238g"] {
        let circuit = cfs_netlist::generate::benchmark(name).expect("bundled benchmark");
        let analysis = analyze_circuit(&circuit);
        let graph = ImplicationGraph::build(&circuit, &analysis, LearnOptions::default());
        let base = prune_stuck_at(&circuit, &analysis);
        let learned = prune_stuck_at_learned(&circuit, &analysis, &graph);
        assert!(
            learned.universe.stats.sim < base.stats.sim,
            "{name}: learning found no conflicts ({} vs {})",
            learned.universe.stats.sim,
            base.stats.sim
        );
        assert!(
            learned.universe.stats.conflict > 0,
            "{name}: conflict counter"
        );
    }
}

/// Pruning must shrink the simulated stuck-at universe on the bundled
/// fixtures: exact collapsing alone merges equivalent faults, and the
/// generated benchmarks also carry statically unexcitable faults.
#[test]
fn pruning_reduces_the_simulated_universe_on_fixtures() {
    for name in ["s298g", "s641g", "s1238g"] {
        let circuit = cfs_netlist::generate::benchmark(name).expect("bundled benchmark");
        let analysis = analyze_circuit(&circuit);
        let pruned = prune_stuck_at(&circuit, &analysis);
        assert!(
            pruned.stats.sim < pruned.stats.full,
            "{name}: {} of {} simulated",
            pruned.stats.sim,
            pruned.stats.full
        );
        assert!(
            pruned.stats.pruned() > 0,
            "{name}: expected statically undetectable faults"
        );
    }
}
