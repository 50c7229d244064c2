//! Cross-validation of the concurrent transition fault simulator against
//! the serial transition reference: per-fault statuses must match
//! exactly, first-detection pattern included. Burst-hold stimulus, where
//! the release pass re-evaluates the fewest sites, is in
//! `quiesce_equivalence.rs`.

mod common;

use cfs_core::{TransitionOptions, TransitionSim};
use cfs_faults::{enumerate_transition, Edge, TransitionFault};
use cfs_logic::Logic;
use cfs_netlist::generate::{benchmark, generate, CircuitSpec};
use cfs_netlist::{data::s27, parse_bench};
use common::{cross_validate, random_patterns};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn s27_transition_agrees_with_serial() {
    let c = s27();
    cross_validate(&c, &random_patterns(&c, 60, 0xD00D));
}

#[test]
fn generated_circuits_transition_agree() {
    for seed in 0..5 {
        let spec = CircuitSpec::new(format!("tv{seed}"), 5, 4, 5, 55, 5000 + seed);
        let c = generate(&spec);
        cross_validate(&c, &random_patterns(&c, 40, seed * 13 + 1));
    }
    let c = benchmark("s298g").expect("known benchmark");
    cross_validate(&c, &random_patterns(&c, 48, 0x298));
}

#[test]
fn transition_with_x_patterns_agrees() {
    let spec = CircuitSpec::new("tvx", 4, 3, 4, 40, 8888);
    let c = generate(&spec);
    let mut rng = StdRng::seed_from_u64(3);
    let patterns: Vec<Vec<Logic>> = (0..30)
        .map(|_| {
            (0..c.num_inputs())
                .map(|_| match rng.gen_range(0..8) {
                    0 => Logic::X,
                    k => Logic::from_bool(k % 2 == 0),
                })
                .collect()
        })
        .collect();
    cross_validate(&c, &patterns);
}

#[test]
fn figure4_concurrent_detects_like_the_paper() {
    // Figure 4's qualitative behaviour through the concurrent simulator: a
    // slow-to-rise fault at an AND input caught by a 0→1 sequence with the
    // other side sensitized through a flip-flop.
    let c = parse_bench(
        "fig4",
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(b)\ny = AND(a, q)\n",
    )
    .unwrap();
    let y = c.find("y").unwrap();
    let fault = TransitionFault::new(y, 0, Edge::Rise);
    let mut sim = TransitionSim::new(&c, &[fault], TransitionOptions::default());
    assert!(sim.step(&[Logic::Zero, Logic::One]).is_empty());
    let det = sim.step(&[Logic::One, Logic::One]);
    assert_eq!(det, vec![0], "held 0 at the sensitized AND input");
}

#[test]
fn transition_coverage_of_toggling_vs_constant_patterns() {
    // Constant patterns create no transitions: nothing can be detected.
    let c = s27();
    let faults = enumerate_transition(&c);
    let constant = vec![vec![Logic::One; 4]; 10];
    let mut sim = TransitionSim::new(&c, &faults, TransitionOptions::default());
    let r = sim.run(&constant);
    assert_eq!(r.detected(), 0, "no transitions, no detections");

    let toggling: Vec<Vec<Logic>> = (0..10)
        .map(|i| vec![Logic::from_bool(i % 2 == 0); 4])
        .collect();
    let mut sim = TransitionSim::new(&c, &faults, TransitionOptions::default());
    let r = sim.run(&toggling);
    assert!(r.detected() > 0, "toggling inputs exercise transitions");
}
