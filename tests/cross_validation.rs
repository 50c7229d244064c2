//! Cross-validation: every fault simulator in the workspace must agree with
//! the serial golden reference on which faults each pattern sequence
//! detects, and at which pattern — across circuits, fault universes, csim
//! variants, stimuli with `X`, and initial states.

use cfs_baselines::{DeductiveSim, SerialSim};
use cfs_core::{ConcurrentSim, CsimOptions, CsimVariant, ProofsSim};
use cfs_faults::{collapse_stuck_at, enumerate_stuck_at, FaultStatus, StuckAt};
use cfs_logic::Logic;
use cfs_netlist::generate::{benchmark, generate, CircuitSpec};
use cfs_netlist::{data::s27, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Asserts that `candidate` reports every fault exactly as the serial
/// `reference` does, detecting pattern included.
fn assert_same_detections(
    circuit: &Circuit,
    faults: &[StuckAt],
    reference: &[FaultStatus],
    candidate: &[FaultStatus],
    label: &str,
) {
    assert_eq!(reference.len(), candidate.len());
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        // A macro variant may prove a fault untestable; the serial
        // reference can only leave it undetected.
        let same = a == b || (*a == FaultStatus::Undetected && *b == FaultStatus::Untestable);
        assert!(
            same,
            "{label}: fault {i} ({}) reference={a} candidate={b}",
            faults[i].describe(circuit)
        );
    }
}

fn cross_validate(circuit: &Circuit, patterns: &[Vec<Logic>], reset: Option<Vec<Logic>>) {
    let faults = enumerate_stuck_at(circuit);
    let mut serial = SerialSim::new(circuit, &faults);
    if let Some(s) = &reset {
        serial = serial.with_reset_state(s.clone());
    }
    let reference = serial.run(patterns);

    for variant in CsimVariant::ALL {
        let mut sim = ConcurrentSim::new(circuit, &faults, variant.options());
        if let Some(s) = &reset {
            sim.set_state(s);
        }
        let report = sim.run(patterns);
        assert_same_detections(
            circuit,
            &faults,
            &reference.statuses,
            &report.statuses,
            &format!("{} on {}", variant.name(), circuit.name()),
        );
    }

    let mut proofs = ProofsSim::new(circuit, &faults);
    if let Some(s) = &reset {
        proofs.set_state(s);
    }
    let report = proofs.run(patterns);
    assert_same_detections(
        circuit,
        &faults,
        &reference.statuses,
        &report.statuses,
        &format!("proofs on {}", circuit.name()),
    );

    if let Some(s) = reset {
        if s.iter().all(|v| v.is_binary()) && patterns.iter().flatten().all(|v| v.is_binary()) {
            let ded = DeductiveSim::new(circuit, &faults, s)
                .run(patterns)
                .expect("binary inputs");
            assert_same_detections(
                circuit,
                &faults,
                &reference.statuses,
                &ded.statuses,
                &format!("deductive on {}", circuit.name()),
            );
        }
    }
}

#[test]
fn s27_all_simulators_agree_from_x_state() {
    let c = s27();
    let patterns = random_patterns(&c, 50, 0xA5A5);
    cross_validate(&c, &patterns, None);
}

#[test]
fn s27_all_simulators_agree_from_reset() {
    let c = s27();
    let patterns = random_patterns(&c, 50, 0x1234);
    cross_validate(&c, &patterns, Some(vec![Logic::Zero; c.num_dffs()]));
}

#[test]
fn generated_small_circuits_agree_from_x_state() {
    for seed in 0..6 {
        let spec = CircuitSpec::new(format!("cv{seed}"), 5, 4, 6, 60, 1000 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 30, seed);
        cross_validate(&c, &patterns, None);
    }
}

#[test]
fn generated_small_circuits_agree_from_reset() {
    for seed in 0..4 {
        let spec = CircuitSpec::new(format!("cvr{seed}"), 4, 3, 5, 50, 2000 + seed);
        let c = generate(&spec);
        let patterns = random_patterns(&c, 30, seed + 77);
        let mut rng = StdRng::seed_from_u64(seed);
        let reset: Vec<Logic> = (0..c.num_dffs())
            .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
            .collect();
        cross_validate(&c, &patterns, Some(reset));
    }
}

#[test]
fn generated_circuit_with_x_patterns_agrees() {
    // Patterns containing X exercise three-valued propagation in every
    // simulator (deductive skipped: binary-only).
    let spec = CircuitSpec::new("cvx", 5, 4, 4, 50, 31337);
    let c = generate(&spec);
    let mut rng = StdRng::seed_from_u64(9);
    let patterns: Vec<Vec<Logic>> = (0..30)
        .map(|_| {
            (0..c.num_inputs())
                .map(|_| match rng.gen_range(0..10) {
                    0 => Logic::X,
                    k => Logic::from_bool(k % 2 == 0),
                })
                .collect()
        })
        .collect();
    cross_validate(&c, &patterns, None);
}

#[test]
fn s298g_collapsed_universe_agrees() {
    // A mid-size generated benchmark with the collapsed fault list.
    let c = benchmark("s298g").unwrap();
    let collapsed = collapse_stuck_at(&c);
    let faults = collapsed.representatives;
    let patterns = random_patterns(&c, 60, 0xBEEF);

    let reference = SerialSim::new(&c, &faults).run(&patterns);
    let mut mv = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
    let report = mv.run(&patterns);
    assert_same_detections(
        &c,
        &faults,
        &reference.statuses,
        &report.statuses,
        "csim-MV s298g",
    );

    let mut proofs = ProofsSim::new(&c, &faults);
    let pr = proofs.run(&patterns);
    assert_same_detections(
        &c,
        &faults,
        &reference.statuses,
        &pr.statuses,
        "proofs s298g",
    );
}

#[test]
fn macro_cap_variations_do_not_change_results() {
    let c = benchmark("s344g").unwrap();
    let faults = enumerate_stuck_at(&c);
    let patterns = random_patterns(&c, 40, 42);
    let mut reference: Option<Vec<bool>> = None;
    for cap in [2, 4, 7, 10] {
        let mut sim = ConcurrentSim::new(
            &c,
            &faults,
            CsimOptions {
                macro_max_inputs: cap,
                ..CsimVariant::Mv.options()
            },
        );
        let report = sim.run(&patterns);
        let det: Vec<bool> = report.statuses.iter().map(|s| s.is_detected()).collect();
        match &reference {
            None => reference = Some(det),
            Some(r) => assert_eq!(r, &det, "cap {cap}"),
        }
    }
}

#[test]
fn detection_cycle_indices_match_serial() {
    // Not just *whether* but *when*: first-detection pattern indices agree.
    let c = s27();
    let faults = enumerate_stuck_at(&c);
    let patterns = random_patterns(&c, 40, 7);
    let reference = SerialSim::new(&c, &faults).run(&patterns);
    let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
    let report = sim.run(&patterns);
    assert_same_detections(
        &c,
        &faults,
        &reference.statuses,
        &report.statuses,
        "csim-MV s27",
    );
}
