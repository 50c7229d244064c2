//! Property-based tests (proptest) over the core data structures and
//! simulator invariants.

use proptest::prelude::*;

use cfs_baselines::SerialSim;
use cfs_core::{Arena, ConcurrentSim, CsimOptions, CsimVariant, ListBuilder, NIL};
use cfs_faults::{collapse_stuck_at, enumerate_stuck_at, transition_value, Edge};
use cfs_logic::{GateFn, Logic, Lut3, PackedLogic, TruthTable};
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::{extract_macros, Circuit};

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop_oneof![Just(Logic::Zero), Just(Logic::One), Just(Logic::X)]
}

fn arb_gate_fn() -> impl Strategy<Value = GateFn> {
    prop_oneof![
        Just(GateFn::And),
        Just(GateFn::Nand),
        Just(GateFn::Or),
        Just(GateFn::Nor),
        Just(GateFn::Xor),
        Just(GateFn::Xnor),
    ]
}

proptest! {
    /// Kleene gates are monotone in the information order: refining an X
    /// input to a binary value never flips a determined binary output.
    #[test]
    fn gate_eval_is_information_monotone(
        f in arb_gate_fn(),
        inputs in prop::collection::vec(arb_logic(), 1..6),
        pos in any::<prop::sample::Index>(),
        refined in any::<bool>(),
    ) {
        let out = f.eval(&inputs);
        let i = pos.index(inputs.len());
        prop_assume!(inputs[i] == Logic::X);
        let mut refined_inputs = inputs.clone();
        refined_inputs[i] = Logic::from_bool(refined);
        let refined_out = f.eval(&refined_inputs);
        if out.is_binary() {
            prop_assert_eq!(out, refined_out);
        }
    }

    /// The packed 64-lane evaluation agrees with scalar evaluation on
    /// every lane.
    #[test]
    fn packed_eval_matches_scalar(
        f in arb_gate_fn(),
        lanes in prop::collection::vec(
            prop::collection::vec(arb_logic(), 2..5), 1..8),
    ) {
        let arity = lanes[0].len();
        prop_assume!(lanes.iter().all(|l| l.len() == arity));
        let mut words = vec![PackedLogic::ALL_X; arity];
        for (lane, vals) in lanes.iter().enumerate() {
            for (k, &v) in vals.iter().enumerate() {
                words[k].set(lane, v);
            }
        }
        let out = PackedLogic::eval_gate(f, &words);
        for (lane, vals) in lanes.iter().enumerate() {
            prop_assert_eq!(out.lane(lane), f.eval(vals));
        }
    }

    /// A `Lut3` built from a binary table is never *less* defined than the
    /// pessimistic fold and agrees exactly on binary inputs.
    #[test]
    fn lut3_exact_on_binary_inputs(
        bits in any::<u16>(),
        inputs in prop::collection::vec(any::<bool>(), 4),
    ) {
        let table = TruthTable::from_fn(4, |row| bits >> row & 1 != 0);
        let lut = Lut3::from_table(&table);
        let vals: Vec<Logic> = inputs.iter().map(|&b| Logic::from_bool(b)).collect();
        let row = inputs.iter().enumerate().fold(0usize, |acc, (i, &b)| {
            acc | usize::from(b) << i
        });
        prop_assert_eq!(lut.eval(&vals), Logic::from_bool(table.eval_bits(row)));
    }

    /// Table 1 sanity: the transition faulty value is always one of
    /// {pv, cv, X}; and with no transition (pv == cv) it equals cv.
    #[test]
    fn transition_value_is_constrained(
        pv in arb_logic(),
        cv in arb_logic(),
        edge in prop_oneof![Just(Edge::Rise), Just(Edge::Fall)],
    ) {
        let fv = transition_value(edge, pv, cv);
        prop_assert!(fv == pv || fv == cv || fv == Logic::X);
        if pv == cv {
            prop_assert_eq!(fv, cv);
        }
    }

    /// Arena lists preserve their contents; retired runs become slack that
    /// compaction reclaims.
    #[test]
    fn arena_list_round_trip(
        entries in prop::collection::vec((0u32..1000, arb_logic()), 0..40),
    ) {
        let mut sorted: Vec<(u32, Logic)> = entries;
        sorted.sort_by_key(|e| e.0);
        sorted.dedup_by_key(|e| e.0);
        let mut arena = Arena::new();
        let mut b = ListBuilder::new();
        for &(f, v) in &sorted {
            b.push(&mut arena, f, v);
        }
        let head = b.finish(&mut arena);
        prop_assert_eq!(arena.to_vec(head), sorted.clone());
        prop_assert_eq!(arena.live(), sorted.len());
        let freed = arena.free_list(head);
        prop_assert_eq!(freed, sorted.len());
        prop_assert_eq!(arena.live(), 0);
        // Bump allocation: a fresh list appends past the retired run, and a
        // compaction pass reclaims the slack.
        let mut b = ListBuilder::new();
        for &(f, v) in &sorted {
            b.push(&mut arena, f, v);
        }
        let head2 = b.finish(&mut arena);
        prop_assert_eq!(arena.to_vec(head2), sorted.clone());
        prop_assert_eq!(arena.peak(), sorted.len().max(arena.live()));
        if sorted.is_empty() {
            prop_assert_eq!(head2, NIL);
        }
        let mut heads = [head2];
        let mut arrays = [&mut heads[..]];
        let moved = arena.compact(&mut arrays);
        prop_assert_eq!(moved, sorted.len());
        prop_assert_eq!(arena.slack(), 0);
        prop_assert_eq!(arena.to_vec(heads[0]), sorted);
    }
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..6, 2usize..5, 0usize..6, 10usize..60, any::<u64>()).prop_map(
        |(pi, po, dff, gates, seed)| generate(&CircuitSpec::new("prop", pi, po, dff, gates, seed)),
    )
}

fn arb_patterns(
    inputs: usize,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Vec<Logic>>> {
    prop::collection::vec(prop::collection::vec(arb_logic(), inputs), len)
}

fn arb_circuit_and_patterns() -> impl Strategy<Value = (Circuit, Vec<Vec<Logic>>)> {
    arb_circuit().prop_flat_map(|c| {
        let n = c.num_inputs();
        (Just(c), arb_patterns(n, 5..20))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline invariant: on arbitrary generated circuits and
    /// arbitrary three-valued pattern sequences, csim-MV detects exactly
    /// the faults the serial oracle detects.
    #[test]
    fn csim_matches_serial_oracle((circuit, patterns) in arb_circuit_and_patterns()) {
        let faults = enumerate_stuck_at(&circuit);
        let reference = SerialSim::new(&circuit, &faults).run(&patterns);
        let mut sim = ConcurrentSim::new(&circuit, &faults, CsimVariant::Mv.options());
        let report = sim.run(&patterns);
        for (i, (a, b)) in reference.statuses.iter().zip(&report.statuses).enumerate() {
            prop_assert_eq!(
                a.is_detected(),
                b.is_detected(),
                "fault {} ({})",
                i,
                faults[i].describe(&circuit)
            );
        }
    }

    /// Macro extraction never changes what a circuit computes: the macro
    /// view evaluates identically to the gate view on random inputs.
    #[test]
    fn macro_view_preserves_function(
        circuit in arb_circuit(),
        cap in 2usize..8,
    ) {
        let macros = extract_macros(&circuit, cap);
        // Every gate covered exactly once, by a cell with support under the
        // cap or as a direct gate with more distinct inputs than the cap.
        let mut covered = vec![false; circuit.num_nodes()];
        for cell in macros.cells() {
            prop_assert!(cell.support().len() <= cap);
            for &g in cell.members() {
                prop_assert!(!covered[g.index()], "gate covered twice");
                covered[g.index()] = true;
            }
        }
        for &g in macros.direct_gates() {
            let mut fanin = circuit.gate(g).fanin().to_vec();
            fanin.sort_unstable();
            fanin.dedup();
            prop_assert!(fanin.len() > cap, "a direct gate fits a cell");
            prop_assert!(!covered[g.index()], "gate covered twice");
            covered[g.index()] = true;
        }
        for &g in circuit.topo_order() {
            prop_assert!(covered[g.index()]);
        }
    }

    /// Fault collapsing is conservative: a collapsed representative is
    /// detected iff every member of its class is (checked via serial
    /// simulation on a sample of classes).
    #[test]
    fn collapse_classes_are_equivalent(circuit in arb_circuit()) {
        let collapsed = collapse_stuck_at(&circuit);
        let patterns: Vec<Vec<Logic>> = (0..12)
            .map(|i| {
                (0..circuit.num_inputs())
                    .map(|k| Logic::from_bool((i * 5 + k * 3) % 7 < 3))
                    .collect()
            })
            .collect();
        let full = SerialSim::new(&circuit, &collapsed.all).run(&patterns);
        // All members of a class must share detection status.
        let mut class_status: Vec<Option<bool>> = vec![None; collapsed.num_classes()];
        for (i, status) in full.statuses.iter().enumerate() {
            let class = collapsed.class_of[i];
            let detected = status.is_detected();
            match class_status[class] {
                None => class_status[class] = Some(detected),
                Some(prev) => prop_assert_eq!(
                    prev,
                    detected,
                    "class {} mixes detected and undetected: {}",
                    class,
                    collapsed.all[i].describe(&circuit)
                ),
            }
        }
    }

    /// The csim `-V` split and fault dropping are pure optimizations: all
    /// four option combinations report identical statuses.
    #[test]
    fn options_do_not_change_semantics(circuit in arb_circuit()) {
        let faults = enumerate_stuck_at(&circuit);
        let patterns: Vec<Vec<Logic>> = (0..10)
            .map(|i| {
                (0..circuit.num_inputs())
                    .map(|k| Logic::from_bool((i + k) % 3 == 0))
                    .collect()
            })
            .collect();
        let mut reference: Option<Vec<bool>> = None;
        for split in [false, true] {
            for drop in [false, true] {
                let mut sim = ConcurrentSim::new(
                    &circuit,
                    &faults,
                    CsimOptions {
                        split_invisible: split,
                        drop_detected: drop,
                        ..CsimVariant::Base.options()
                    },
                );
                let det: Vec<bool> = sim
                    .run(&patterns)
                    .statuses
                    .iter()
                    .map(|s| s.is_detected())
                    .collect();
                match &reference {
                    None => reference = Some(det),
                    Some(r) => prop_assert_eq!(r, &det, "split={} drop={}", split, drop),
                }
            }
        }
    }
}
