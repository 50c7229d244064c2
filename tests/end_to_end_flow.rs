//! End-to-end flow: generate a circuit → collapse faults → generate tests
//! (ATPG) → confirm coverage with three independent simulators → measure
//! transition coverage of the same sequence. This is the complete
//! downstream-user workflow on one circuit.

use cfs_atpg::{generate_tests, AtpgOptions};
use cfs_baselines::SerialSim;
use cfs_core::{ConcurrentSim, CsimVariant, ProofsSim, TransitionOptions, TransitionSim};
use cfs_faults::{collapse_stuck_at, enumerate_transition};
use cfs_netlist::generate::benchmark;

#[test]
fn full_workflow_on_s386g() {
    let circuit = benchmark("s386g").expect("known benchmark");
    let faults = collapse_stuck_at(&circuit).representatives;

    // 1. Test generation.
    let outcome = generate_tests(
        &circuit,
        &faults,
        AtpgOptions {
            max_frames: 4,
            backtrack_limit: 200,
            random_patterns: 64,
            seed: 11,
        },
    );
    assert!(!outcome.patterns.is_empty());
    let atpg_detected = outcome.report.detected();
    assert!(atpg_detected > 0);

    // 2. Three independent simulators confirm the same coverage.
    let mut csim = ConcurrentSim::new(&circuit, &faults, CsimVariant::Mv.options());
    let c = csim.run(&outcome.patterns);
    let mut proofs = ProofsSim::new(&circuit, &faults);
    let p = proofs.run(&outcome.patterns);
    let s = SerialSim::new(&circuit, &faults).run(&outcome.patterns);
    assert_eq!(c.detected(), atpg_detected);
    assert_eq!(p.detected(), atpg_detected);
    assert_eq!(s.detected(), atpg_detected);

    // 3. The same stuck-at sequence is a much weaker transition test
    //    (the paper's Table 6 point).
    let tfaults = enumerate_transition(&circuit);
    let mut tsim = TransitionSim::new(&circuit, &tfaults, TransitionOptions::default());
    let t = tsim.run(&outcome.patterns);
    assert!(
        t.coverage_percent() < c.coverage_percent(),
        "transition {:.1}% < stuck-at {:.1}%",
        t.coverage_percent(),
        c.coverage_percent()
    );
}
