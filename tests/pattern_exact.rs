//! Pattern-exact oracle: every stuck-at simulator reports the same
//! `FaultStatus` as the serial reference for every fault — detected or
//! not, and at which pattern. The four csim variants and PROOFS are
//! checked from the unknown start state and from a reset state; the
//! deductive simulator, which needs binary state, from the reset state.
//!
//! The stimulus is `cfs_atpg::random_patterns`, the generator behind
//! `fsim sim --random N --seed S`, so a failure here reproduces on the
//! command line.

use cfs_atpg::random_patterns;
use cfs_baselines::{DeductiveSim, SerialSim};
use cfs_core::{ConcurrentSim, CsimVariant, DelayCsim, ProofsSim};
use cfs_faults::{collapse_stuck_at, FaultStatus, StuckAt};
use cfs_goodsim::DelayModel;
use cfs_logic::Logic;
use cfs_netlist::generate::benchmark;
use cfs_netlist::{parse_bench, Circuit};

/// The Table 3 circuits below s5378g, in table order.
const SMALL_TABLE3: &[&str] = &[
    "s298g", "s344g", "s349g", "s386g", "s400g", "s444g", "s526g", "s641g", "s713g", "s820g",
    "s832g", "s1196g", "s1238g", "s1423g", "s1488g", "s1494g",
];

fn assert_exact(
    circuit: &Circuit,
    faults: &[StuckAt],
    reference: &[FaultStatus],
    candidate: &[FaultStatus],
    label: &str,
) {
    assert_eq!(reference.len(), candidate.len(), "{label}");
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        // A macro variant may prove a fault untestable; the serial
        // reference can only leave it undetected.
        let same = a == b || (*a == FaultStatus::Undetected && *b == FaultStatus::Untestable);
        assert!(
            same,
            "{label} on {}: fault {i} ({}) serial={a} candidate={b}",
            circuit.name(),
            faults[i].describe(circuit)
        );
    }
}

/// Checks every simulator against serial on one circuit and stimulus,
/// starting from `reset` (or from the unknown state when `None`).
fn check(circuit: &Circuit, patterns: &[Vec<Logic>], reset: Option<&[Logic]>) {
    let faults = collapse_stuck_at(circuit).representatives;
    let mut serial = SerialSim::new(circuit, &faults);
    if let Some(s) = reset {
        serial = serial.with_reset_state(s.to_vec());
    }
    let reference = serial.run(patterns).statuses;
    let start = if reset.is_some() { "reset" } else { "unknown" };
    for variant in CsimVariant::ALL {
        let mut sim = ConcurrentSim::new(circuit, &faults, variant.options());
        if let Some(s) = reset {
            sim.set_state(s);
        }
        let statuses = sim.run(patterns).statuses;
        let label = format!("{} from {start}", variant.name());
        assert_exact(circuit, &faults, &reference, &statuses, &label);
    }
    let mut proofs = ProofsSim::new(circuit, &faults);
    if let Some(s) = reset {
        proofs.set_state(s);
    }
    let statuses = proofs.run(patterns).statuses;
    assert_exact(
        circuit,
        &faults,
        &reference,
        &statuses,
        &format!("proofs from {start}"),
    );
    if let Some(s) = reset {
        let report = DeductiveSim::new(circuit, &faults, s.to_vec())
            .run(patterns)
            .expect("binary stimulus");
        assert_exact(
            circuit,
            &faults,
            &reference,
            &report.statuses,
            "deductive from reset",
        );
    }
}

fn check_both_starts(circuit: &Circuit, patterns: &[Vec<Logic>]) {
    check(circuit, patterns, None);
    check(
        circuit,
        patterns,
        Some(&vec![Logic::Zero; circuit.num_dffs()]),
    );
}

#[test]
fn small_table3_circuits_match_serial_pattern_for_pattern() {
    for name in SMALL_TABLE3 {
        let c = benchmark(name).unwrap();
        check_both_starts(&c, &random_patterns(&c, 12, 5));
    }
}

/// `examples/bench/wide.bench`: an 11-input and a 7-input gate, wider
/// than the default macro input cap, are evaluated directly with plain
/// faults in every csim variant.
#[test]
fn wide_gates_match_serial_pattern_for_pattern() {
    let c = parse_bench("wide", include_str!("../examples/bench/wide.bench")).unwrap();
    check_both_starts(&c, &random_patterns(&c, 200, 5));
}

/// `fsim sim @s298g --random 384 --seed 16`: a flip-flop output stuck at
/// its value holds it from pattern 0, so the fault is detected at pattern
/// 2 by every simulator, not at pattern 8 as when the concurrent engine
/// started that element at `X`.
#[test]
fn s298g_seed16_flip_flop_output_fault_is_on_time() {
    let c = benchmark("s298g").unwrap();
    let patterns = random_patterns(&c, 384, 16);
    check_both_starts(&c, &patterns);
    let faults = collapse_stuck_at(&c).representatives;
    let statuses = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options())
        .run(&patterns)
        .statuses;
    assert_eq!(statuses[11], FaultStatus::Detected { pattern: 2 });
}

/// The delay-accurate simulator, clocked slowly enough for every pattern
/// to settle, detects on the serial simulator's pattern (a detection at
/// time `t` falls in pattern `t / period`), flip-flop output faults
/// included.
#[test]
fn delay_mode_detects_on_the_serial_pattern() {
    let c = benchmark("s298g").unwrap();
    let faults = collapse_stuck_at(&c).representatives;
    let patterns = random_patterns(&c, 64, 16);
    let period = 10_000;
    let reference = SerialSim::new(&c, &faults).run(&patterns).statuses;
    let report = DelayCsim::new(&c, DelayModel::unit(&c), &faults).run_clocked(&patterns, period);
    let statuses: Vec<FaultStatus> = report
        .statuses
        .iter()
        .map(|&s| match s {
            FaultStatus::Detected { pattern } => FaultStatus::Detected {
                pattern: pattern / period as usize,
            },
            other => other,
        })
        .collect();
    assert_exact(&c, &faults, &reference, &statuses, "delay mode");
}

/// s1238g over seeds 1–20 at 256 patterns. Serial simulation makes this
/// a release-build test: `cargo test --release --test pattern_exact --
/// --include-ignored`.
#[test]
#[ignore = "release-only: about a minute of serial simulation"]
fn s1238g_seeds_1_to_20_match_serial() {
    let c = benchmark("s1238g").unwrap();
    for seed in 1..=20 {
        check_both_starts(&c, &random_patterns(&c, 256, seed));
    }
}
