//! Concurrent fault simulation for synchronous sequential circuits.
//!
//! This crate is the primary contribution of the workspace's reproduction of
//! *Dong Ho Lee and Sudhakar M. Reddy, "On Efficient Concurrent Fault
//! Simulation for Synchronous Sequential Circuits," DAC 1992*: a concurrent
//! fault simulator with the simplicity of deductive simulation —
//!
//! * per-gate fault lists of *(fault id, local value, next)* elements with a
//!   terminal sentinel and central fault descriptors (Figure 2),
//! * zero-delay levelized event-driven scheduling (gate ids only, no timing
//!   queue),
//! * event-driven fault dropping,
//! * optional visible/invisible list splitting (`-V`),
//! * optional macro extraction with functional (faulty-LUT) faults (`-M`),
//! * the §3 transition fault model with two-pass simulation per cycle.
//!
//! [`ConcurrentSim`] is the stuck-at simulator ([`CsimVariant`] names the
//! four configurations of Table 3); [`TransitionSim`] is the transition
//! fault simulator of Table 6. Both implement [`FaultMachine`] — the
//! models share the engine and differ only in their clock cycle — and
//! everything above one machine is written once over that trait:
//! [`ShardedSim`] splits the fault list across shards that share one good
//! machine, runs one shard serially and more under the pattern-window ×
//! fault-shard work-stealing scheduler, and merges the results
//! deterministically. [`ParallelSim`] and [`ParallelTransitionSim`] are its
//! stuck-at and transition instantiations.
//!
//! [`ProofsSim`] is the PROOFS-style comparator of Tables 3–5. It runs on
//! the compiled gate network, reads its good values from a fault-free
//! engine, and simulates each 64-fault group with the same packed step
//! (seed, propagate, detect, latch) as the stuck-at engine's hot-fault
//! words, so the workspace has one packed fault machine.
//!
//! # Examples
//!
//! ```
//! use cfs_core::{ConcurrentSim, CsimVariant};
//! use cfs_faults::collapse_stuck_at;
//! use cfs_logic::parse_pattern;
//! use cfs_netlist::data::s27;
//!
//! let circuit = s27();
//! let faults = collapse_stuck_at(&circuit).representatives;
//! let mut sim = ConcurrentSim::new(&circuit, &faults, CsimVariant::Mv.options());
//! let report = sim.run(&[parse_pattern("1010")?, parse_pattern("0101")?]);
//! println!("{report}");
//! # Ok::<(), cfs_logic::ParseLogicError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod checkpoint;
mod delay_mode;
mod engine;
mod hot;
mod list;
mod machine;
mod network;
mod parallel;
mod proofs;
mod sched;
mod stuck;
mod transition;

pub use batch::{
    seeded_schedule, window_bounds, BatchOptions, SchedStats, StealEvent, TaskSpan, DEFAULT_WINDOW,
};
pub use checkpoint::{Checkpoint, CheckpointError, Model as CheckpointModel};
pub use delay_mode::DelayCsim;
pub use hot::DEFAULT_HOT_LANES;
pub use list::{Arena, FaultElement, ListBuilder, ListIter, NIL, TERMINAL_FAULT};
pub use machine::FaultMachine;
pub use parallel::{
    detections_of, round_robin_shards, GlobalDetection, ParallelSim, ParallelTransitionSim,
    ShardPlan, ShardedSim,
};
pub use proofs::ProofsSim;
pub use stuck::{ConcurrentSim, CsimOptions, CsimVariant, StepResult};
pub use transition::{TransitionOptions, TransitionSim};

// Re-exported so downstream crates can name probe types without adding a
// direct cfs-telemetry dependency.
pub use cfs_telemetry::{MetricsSnapshot, NullProbe, Probe, SimMetrics};

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_faults::{enumerate_stuck_at, FaultStatus, StuckAt};
    use cfs_logic::{parse_pattern, Logic};
    use cfs_netlist::{parse_bench, Circuit};

    /// The Figure 1 circuit: G1 fans out to G3 and G4; G2 also feeds G4.
    fn figure1_circuit() -> Circuit {
        parse_bench(
            "fig1",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(g3)\nOUTPUT(g4)\n\
             g1 = AND(a, b)\ng2 = OR(b, c)\ng3 = BUF(g1)\ng4 = AND(g1, g2)\n",
        )
        .unwrap()
    }

    #[test]
    fn figure1_divergence_and_convergence() {
        // Fault: `a` stuck-at-1. With a=0, b=1, c=0: good g1=0, faulty g1=1
        // — the fault is explicit (diverged) at g1 and propagates to g3, g4.
        let c = figure1_circuit();
        let a = c.find("a").unwrap();
        let fault = StuckAt::output(a, true);
        let mut sim = ConcurrentSim::new(&c, &[fault], CsimVariant::Base.options());
        let r = sim.step(&parse_pattern("010").unwrap());
        assert_eq!(r.outputs, parse_pattern("00").unwrap());
        assert_eq!(r.new_detections, vec![0], "detected at both POs");
        // Now make b=0: good g1=0 and faulty g1=0 — the faulty machine
        // assumes the good value at g1, so its elements converge away
        // downstream (event propagates removal through g3/g4).
        let mut sim = ConcurrentSim::new(
            &c,
            &[fault],
            CsimOptions {
                drop_detected: false,
                ..CsimVariant::Base.options()
            },
        );
        let r = sim.step(&parse_pattern("010").unwrap());
        assert_eq!(r.new_detections, vec![0]);
        let before = sim.live_elements();
        let r2 = sim.step(&parse_pattern("000").unwrap());
        assert!(r2.new_detections.is_empty());
        assert!(
            sim.live_elements() < before,
            "convergence removed elements: {} -> {}",
            before,
            sim.live_elements()
        );
    }

    #[test]
    fn figure1_fault_remains_where_effect_reconverges() {
        // Fault f explicit at G1 and also propagating through G2 (Figure 1's
        // point that the G4 element must remain when only the G1 path
        // converges): use b stuck-at-1 with b=0, c=0, a=1.
        // good: g1=AND(1,0)=0, g2=OR(0,0)=0, g4=0
        // faulty(b/1): g1=1, g2=1, g4=1 — fault explicit at g1 AND g2.
        let c = figure1_circuit();
        let b = c.find("b").unwrap();
        let fault = StuckAt::output(b, true);
        let mut sim = ConcurrentSim::new(
            &c,
            &[fault],
            CsimOptions {
                drop_detected: false,
                ..CsimVariant::Base.options()
            },
        );
        let r = sim.step(&parse_pattern("100").unwrap());
        assert_eq!(r.outputs, parse_pattern("00").unwrap());
        assert_eq!(r.new_detections, vec![0]);
        // Flip a to 0: good g1 stays 0, faulty g1 = AND(0,1) = 0 →
        // converges at g1, but the effect still reaches g4 through g2.
        let r2 = sim.step(&parse_pattern("000").unwrap());
        // g4 faulty: AND(g1=0, g2=1)=0 = good → fully converged downstream
        // of g1; but g2 still diverges (OR(1,0)=1 vs 0).
        assert!(r2.new_detections.is_empty());
        assert!(sim.live_elements() >= 2, "site + g2 elements remain");
    }

    #[test]
    fn all_variants_agree_on_s27() {
        let c = cfs_netlist::data::s27();
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<Logic>> = [
            "0000", "1111", "0101", "1010", "0011", "1100", "0110", "1001", "0001", "1000",
        ]
        .iter()
        .map(|p| parse_pattern(p).unwrap())
        .collect();
        let mut reference: Option<Vec<FaultStatus>> = None;
        for variant in CsimVariant::ALL {
            let mut sim = ConcurrentSim::new(&c, &faults, variant.options());
            let report = sim.run(&patterns);
            let statuses: Vec<FaultStatus> = report
                .statuses
                .iter()
                .map(|s| match s {
                    // Macro variants may prove redundancy; detection sets
                    // must still agree on detected/not-detected.
                    FaultStatus::Untestable => FaultStatus::Undetected,
                    other => *other,
                })
                .collect();
            match &reference {
                None => reference = Some(statuses),
                Some(r) => {
                    for (i, (a, b)) in r.iter().zip(&statuses).enumerate() {
                        assert_eq!(
                            a.is_detected(),
                            b.is_detected(),
                            "{variant}: fault {i} ({})",
                            faults[i].describe(&c)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detection_pattern_indices_are_consistent_across_variants() {
        let c = cfs_netlist::data::s27();
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<Logic>> = ["0000", "1111", "0101", "1010"]
            .iter()
            .map(|p| parse_pattern(p).unwrap())
            .collect();
        let mut base = ConcurrentSim::new(&c, &faults, CsimVariant::Base.options());
        let rb = base.run(&patterns);
        let mut v = ConcurrentSim::new(&c, &faults, CsimVariant::V.options());
        let rv = v.run(&patterns);
        assert_eq!(rb.statuses, rv.statuses, "-V must not change semantics");
    }

    #[test]
    fn dropping_reduces_live_elements_without_changing_results() {
        let c = cfs_netlist::generate::benchmark("s298g").unwrap();
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<Logic>> = (0..40)
            .map(|i| {
                (0..c.num_inputs())
                    .map(|k| Logic::from_bool((i * 7 + k * 3) % 5 < 2))
                    .collect()
            })
            .collect();
        let mut drop = ConcurrentSim::new(&c, &faults, CsimVariant::V.options());
        let mut keep = ConcurrentSim::new(
            &c,
            &faults,
            CsimOptions {
                drop_detected: false,
                ..CsimVariant::V.options()
            },
        );
        let rd = drop.run(&patterns);
        let rk = keep.run(&patterns);
        // Detection sets identical.
        for (i, (a, b)) in rd.statuses.iter().zip(&rk.statuses).enumerate() {
            assert_eq!(a.is_detected(), b.is_detected(), "fault {i}");
        }
        // Dropping must shrink live storage in the end.
        assert!(
            drop.live_elements() <= keep.live_elements(),
            "dropping may not increase live elements"
        );
        assert!(rd.detected() > 0);
    }

    #[test]
    fn untestable_macro_faults_are_reported() {
        // y = OR(a, NOT(a)) is constant 1 inside one macro: faults that
        // cannot change the macro function are Untestable.
        let c = parse_bench(
            "red",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\nr = OR(a, n)\ny = AND(r, b)\n",
        )
        .unwrap();
        let faults = enumerate_stuck_at(&c);
        let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        let report = sim.run(&[parse_pattern("01").unwrap(), parse_pattern("11").unwrap()]);
        let untestable = report
            .statuses
            .iter()
            .filter(|s| matches!(s, FaultStatus::Untestable))
            .count();
        assert!(untestable > 0, "r stuck-at-1 is redundant");
        // And testable faults are still found: y stuck-at-0 via b=1.
        assert!(report.detected() > 0);
    }

    #[test]
    fn instrumented_run_matches_plain_run() {
        let c = cfs_netlist::data::s27();
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<Logic>> = ["0000", "1111", "0101", "1010", "0011", "1100"]
            .iter()
            .map(|p| parse_pattern(p).unwrap())
            .collect();
        let mut plain = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        let rp = plain.run(&patterns);
        let mut inst = ConcurrentSim::instrumented(&c, &faults, CsimVariant::Mv.options());
        let ri = inst.run(&patterns);
        // The probe must not change simulation semantics or work counts.
        assert_eq!(rp.statuses, ri.statuses);
        assert_eq!(rp.events, ri.events);
        assert_eq!(rp.evaluations, ri.evaluations);
        let snap = inst.snapshot();
        assert_eq!(snap.patterns as usize, patterns.len());
        assert_eq!(snap.detected as usize, ri.detected());
        assert_eq!(snap.events, ri.events);
        assert_eq!(snap.fault_evals, ri.evaluations);
        assert!(snap.traversed >= snap.visible, "visible is a subset");
        assert!(snap.avg_list_len > 0.0);
        assert!(snap.visible_fraction > 0.0 && snap.visible_fraction <= 1.0);
        assert!(snap.peak_memory_bytes as usize >= inst.memory_bytes());
        // Per-pattern records sum to the totals.
        let records = inst.metrics().records();
        assert_eq!(records.len(), patterns.len());
        let act: u64 = records.iter().map(|r| r.counters.activations).sum();
        assert_eq!(act, snap.events);
        let det: u64 = records.iter().map(|r| r.counters.detected).sum();
        assert_eq!(det, snap.detected);
    }

    #[test]
    fn instrumented_transition_times_both_passes() {
        use cfs_telemetry::Phase;
        let c = cfs_netlist::data::s27();
        let faults = cfs_faults::enumerate_transition(&c);
        let patterns: Vec<Vec<Logic>> = ["0000", "1111", "0000", "1111"]
            .iter()
            .map(|p| parse_pattern(p).unwrap())
            .collect();
        let mut sim = TransitionSim::instrumented(&c, &faults, Default::default());
        let report = sim.run(&patterns);
        let snap = sim.snapshot();
        assert_eq!(snap.simulator, "csim-T");
        assert_eq!(snap.detected as usize, report.detected());
        assert!(snap.phases.get(Phase::TransitionFirst) > std::time::Duration::ZERO);
        assert!(snap.phases.get(Phase::TransitionSecond) > std::time::Duration::ZERO);
        assert!(snap.phases.get(Phase::Propagate) > std::time::Duration::ZERO);
        // The passes enclose the four stages, which lead `Phase::ALL`: the
        // total counts each stage once and stays within the run's wall time.
        let leaves: std::time::Duration = Phase::ALL[..4].iter().map(|&p| snap.phases.get(p)).sum();
        assert_eq!(snap.phases.total(), leaves);
        assert!(snap.phases.total() <= report.cpu);
        assert_eq!(snap.cpu_seconds, leaves.as_secs_f64());
    }

    #[test]
    fn memory_is_monotone_in_fault_count() {
        let c = cfs_netlist::generate::benchmark("s298g").unwrap();
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<Logic>> = (0..10)
            .map(|i| {
                (0..c.num_inputs())
                    .map(|k| Logic::from_bool((i * 5 + k) % 3 == 0))
                    .collect()
            })
            .collect();
        let mut last = 0usize;
        for frac in [4, 2, 1] {
            let n = faults.len() / frac;
            let mut sim = ConcurrentSim::new(&c, &faults[..n], CsimVariant::Mv.options());
            sim.run(&patterns);
            let mem = sim.memory_bytes();
            assert!(
                mem >= last,
                "memory model shrank when faults grew: {n} faults -> {mem} < {last}"
            );
            last = mem;
        }
    }

    #[test]
    fn memory_and_event_counters_move() {
        let c = cfs_netlist::data::s27();
        let faults = enumerate_stuck_at(&c);
        let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        sim.step(&parse_pattern("0101").unwrap());
        assert!(sim.events() > 0);
        assert!(sim.peak_elements() > 0);
        assert!(sim.memory_bytes() > 0);
        assert!(sim.fault_evaluations() > 0);
    }
}
