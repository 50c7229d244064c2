//! Differential equivalence for incremental re-simulation: simulating only
//! the change-impact affected cone and transferring every other fault's
//! fate from a baseline report, expanded back through
//! [`ImpactUniverse::expand_statuses`], must produce exactly the detection
//! report of a cold full run over the edited circuit — same detected
//! faults, same first-detection patterns — across every csim variant, both
//! fault models, and serial as well as sharded execution.
//!
//! This is the executable form of the cone-transfer soundness contract: a
//! fault outside the affected cone sees identical values and propagates
//! through identical logic in both circuits, so its recorded fate carries
//! over verbatim.

use cfs_check::{classify_stuck_at, classify_transition, diff_netlists, impact_analysis};
use cfs_core::{
    detections_of, ConcurrentSim, CsimVariant, ParallelSim, ParallelTransitionSim,
    TransitionOptions, TransitionSim,
};
use cfs_faults::{enumerate_stuck_at, enumerate_transition, FaultStatus};
use cfs_logic::Logic;
use cfs_netlist::{apply_edit, edit_candidates, BenchEdit, Circuit};
use proptest::prelude::*;
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

/// The expanded statuses must tell the same detection story as the cold
/// full run: identical `Detected` entries (pattern and all), and no fault
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
                panic!("{context}: fault {i} detected cold but {other:?} incrementally")
            }
            (other, FaultStatus::Detected { .. }) => {
                panic!("{context}: fault {i} {other:?} cold but detected incrementally")
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

/// One full stuck-at scenario: baseline fates recorded on `base`, the
/// affected cone of `edited` re-simulated serially and sharded, the
/// expansion compared against a cold full run of `edited`.
fn check_stuck(base: &Circuit, edited: &Circuit, patterns: &[Vec<Logic>], context: &str) {
    let diff = diff_netlists(base, edited, None, None);
    let analysis = impact_analysis(base, edited, diff);
    let universe = classify_stuck_at(base, edited, &analysis);
    universe.validate().expect("impact universe invariants");
    let base_universe = enumerate_stuck_at(base);
    assert_eq!(base_universe.len(), universe.stats.baseline_full);
    for variant in CsimVariant::ALL {
        let baseline = ConcurrentSim::new(base, &base_universe, variant.options())
            .run(patterns)
            .statuses;
        let cold = ConcurrentSim::new(edited, &universe.full, variant.options())
            .run(patterns)
            .statuses;
        for threads in THREAD_COUNTS {
            let resim = if threads == 1 {
                ConcurrentSim::new(edited, &universe.affected, variant.options())
                    .run(patterns)
                    .statuses
            } else {
                ParallelSim::new(edited, &universe.affected, variant.options(), threads)
                    .run(patterns)
                    .statuses
            };
            let expanded = universe.expand_statuses(&resim, &baseline);
            assert_detection_equivalence(
                &cold,
                &expanded,
                &format!("{context} stuck {variant} t{threads}"),
            );
        }
    }
}

/// The transition-fault mirror of [`check_stuck`].
fn check_transition(base: &Circuit, edited: &Circuit, patterns: &[Vec<Logic>], context: &str) {
    let diff = diff_netlists(base, edited, None, None);
    let analysis = impact_analysis(base, edited, diff);
    let universe = classify_transition(base, edited, &analysis);
    universe.validate().expect("impact universe invariants");
    let base_universe = enumerate_transition(base);
    assert_eq!(base_universe.len(), universe.stats.baseline_full);
    let baseline = TransitionSim::new(base, &base_universe, TransitionOptions::default())
        .run(patterns)
        .statuses;
    let cold = TransitionSim::new(edited, &universe.full, TransitionOptions::default())
        .run(patterns)
        .statuses;
    for threads in THREAD_COUNTS {
        let resim = if threads == 1 {
            TransitionSim::new(edited, &universe.affected, TransitionOptions::default())
                .run(patterns)
                .statuses
        } else {
            ParallelTransitionSim::new(
                edited,
                &universe.affected,
                TransitionOptions::default(),
                threads,
            )
            .run(patterns)
            .statuses
        };
        let expanded = universe.expand_statuses(&resim, &baseline);
        assert_detection_equivalence(
            &cold,
            &expanded,
            &format!("{context} transition t{threads}"),
        );
    }
}

fn check_edit(base: &Circuit, edit: BenchEdit, choice: usize, num_patterns: usize, seed: u64) {
    let applied = apply_edit(base, edit, choice).expect("fixtures accept every edit");
    let patterns = random_patterns(base, num_patterns, seed);
    let context = format!("{} {edit}#{choice}", base.name());
    check_stuck(base, &applied.circuit, &patterns, &context);
    check_transition(base, &applied.circuit, &patterns, &context);
}

#[test]
fn incremental_matches_cold_on_s27() {
    let c = cfs_netlist::data::s27();
    for edit in BenchEdit::ALL {
        for choice in 0..edit_candidates(&c, edit).min(3) {
            check_edit(&c, edit, choice, 96, 29);
        }
    }
}

#[test]
fn incremental_matches_cold_on_s298g() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("bundled benchmark");
    for edit in BenchEdit::ALL {
        check_edit(&c, edit, 5, 64, 31);
    }
}

#[test]
fn incremental_matches_cold_on_s641g() {
    let c = cfs_netlist::generate::benchmark("s641g").expect("bundled benchmark");
    for edit in BenchEdit::ALL {
        check_edit(&c, edit, 11, 48, 37);
    }
}

/// An identical pair transfers everything: nothing re-simulates and the
/// expansion is exactly the baseline.
#[test]
fn identical_circuits_transfer_every_fate() {
    let c = cfs_netlist::generate::benchmark("s298g").expect("bundled benchmark");
    let diff = diff_netlists(&c, &c, None, None);
    let analysis = impact_analysis(&c, &c, diff);
    let universe = classify_stuck_at(&c, &c, &analysis);
    assert_eq!(universe.stats.affected, 0);
    assert_eq!(universe.stats.transferred, universe.stats.full);
    let patterns = random_patterns(&c, 32, 41);
    let baseline = ConcurrentSim::new(&c, &universe.full, CsimVariant::Mv.options())
        .run(&patterns)
        .statuses;
    let expanded = universe.expand_statuses(&[], &baseline);
    assert_eq!(expanded, baseline);
}

/// A single dead-logic edit must leave the affected universe strictly
/// smaller than the full one — the headline claim of incremental
/// re-simulation — on every bundled fixture.
#[test]
fn single_edit_affects_a_strict_subset() {
    for name in ["s298g", "s641g", "s1238g"] {
        let c = cfs_netlist::generate::benchmark(name).expect("bundled benchmark");
        let applied = apply_edit(&c, BenchEdit::DeadLogic, 0).expect("dead logic always applies");
        let diff = diff_netlists(&c, &applied.circuit, None, None);
        let analysis = impact_analysis(&c, &applied.circuit, diff);
        for (model, stats) in [
            (
                "stuck",
                classify_stuck_at(&c, &applied.circuit, &analysis).stats,
            ),
            (
                "transition",
                classify_transition(&c, &applied.circuit, &analysis).stats,
            ),
        ] {
            assert!(
                stats.affected < stats.full,
                "{name} {model}: {} of {} affected",
                stats.affected,
                stats.full
            );
            assert!(stats.transferred > 0, "{name} {model}: nothing transferred");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random scripted edits on s27 preserve detection equivalence through
    /// the incremental path (serial, MV variant — the matrix tests above
    /// cover the other variants and sharding).
    #[test]
    fn random_edits_preserve_detection_equivalence(
        edit_idx in 0usize..3,
        choice in 0usize..64,
        seed in 1u64..1024,
    ) {
        let base = cfs_netlist::data::s27();
        let edit = BenchEdit::ALL[edit_idx];
        let applied = apply_edit(&base, edit, choice).expect("s27 accepts every edit");
        let patterns = random_patterns(&base, 48, seed);
        let diff = diff_netlists(&base, &applied.circuit, None, None);
        let analysis = impact_analysis(&base, &applied.circuit, diff);
        let universe = classify_stuck_at(&base, &applied.circuit, &analysis);
        universe.validate().expect("impact universe invariants");
        let options = || CsimVariant::Mv.options();
        let baseline = ConcurrentSim::new(&base, &enumerate_stuck_at(&base), options())
            .run(&patterns)
            .statuses;
        let cold = ConcurrentSim::new(&applied.circuit, &universe.full, options())
            .run(&patterns)
            .statuses;
        let resim = ConcurrentSim::new(&applied.circuit, &universe.affected, options())
            .run(&patterns)
            .statuses;
        let expanded = universe.expand_statuses(&resim, &baseline);
        assert_detection_equivalence(&cold, &expanded, &format!("s27 {edit}#{choice} seed {seed}"));
    }
}
