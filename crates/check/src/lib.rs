//! Pre-simulation static analysis for the concurrent fault simulator.
//!
//! The concurrent machinery of Lee & Reddy (DAC 1992) — sorted per-gate
//! fault lists with a terminal sentinel, visible/invisible splitting, macro
//! LUT faults, shard-parallel fault partitions — rests on structural
//! preconditions: acyclic combinational logic, fully driven nets, legal
//! fanout-free regions, sound fault collapse, exact-cover shard
//! partitions. This crate checks all of them *before* the event loop
//! runs, and reports violations as [`Diagnostic`]s with stable
//! [`RuleCode`]s, severities, and `.bench` source spans instead of
//! mid-simulation panics.
//!
//! Entry points:
//!
//! * [`check_and_parse_bench`] — the rules over one lenient read of raw
//!   `.bench` text (`S001`–`S003`, `N001`–`N006`, `F003`), with the circuit
//!   built from it: every `fsim` command that reads a file runs these.
//! * [`check_bench_source`] — everything over raw `.bench` text: those
//!   rules, then [`check_models`] on the built circuit (`fsim check`).
//! * [`check_circuit`] — everything, over an already-built [`Circuit`]
//!   (built-in benchmarks, generated circuits).
//! * [`check_models`] — the fault-model rules (`F001`, `M001`, `P001`) on
//!   a built circuit; `fsim` runs them where the engine's list-law verifier
//!   runs (debug builds, `--paranoid`). [`check_collapse`] /
//!   [`check_macro_cells`] / [`check_shard_partition`] take plain data so
//!   tests can feed corrupted structures.
//! * [`analyze_circuit`] + [`prune_stuck_at`] / [`prune_transition`] — the
//!   fault-universe analyses (constant propagation and observability),
//!   which prove faults undetectable *before* the first pattern and hand
//!   the simulators a provably equivalent reduced fault set.
//! * [`diff_netlists`] + [`impact_analysis`] + [`classify_stuck_at`] /
//!   [`classify_transition`] — the change-impact pass behind `fsim impact`
//!   and `--incremental` re-simulation: structurally diff two netlists,
//!   run the affected-cone fixpoint over both, and split the edited
//!   circuit's fault universe into re-simulate vs. transfer-from-baseline.
//!
//! | Code | Rule | Severity |
//! |------|------|----------|
//! | S001 | syntax-error | error |
//! | S002 | unknown-gate | error |
//! | S003 | bad-arity | error |
//! | N001 | combinational-cycle | error |
//! | N002 | undriven-net | error |
//! | N003 | dangling-fanout | warning (info for unused inputs) |
//! | N004 | unreachable-gate | warning |
//! | N005 | multiply-driven-net | error |
//! | N006 | missing-io | error |
//! | N007 | constant-net | info |
//! | N008 | never-binary-net | info |
//! | F001 | uncollapsible-fault | error |
//! | F002 | statically-untestable-fault | info |
//! | F003 | observability-mismatch | error |
//! | F004 | conflict-untestable-fault | info |
//! | F005 | implication-dominance | info |
//! | M001 | illegal-macro-region | error |
//! | P001 | non-exact-cover-shard-plan | error |
//! | I001 | cone-disconnected-edit | info |
//! | I002 | baseline-invalidated | error |
//! | I003 | fate-transfer-mismatch | error |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod diag;
mod impact;
mod learn;
mod model_check;
mod netlist_check;

pub use analyze::{
    analysis_findings, analyze_circuit, analyze_circuit_with, observable_nodes, prune_stuck_at,
    prune_transition, AnalysisOptions, CircuitAnalysis,
};
pub use diag::{Diagnostic, Report, RuleCode, Severity, Span};
pub use learn::{
    learn_findings, prune_stuck_at_learned, prune_transition_learned, DominancePair, Implication,
    ImplicationGraph, LearnOptions, LearnedStuck, DEFAULT_LEARN_FRAMES,
};

pub use impact::{
    classify_stuck_at, classify_transition, cross_check_fates, diff_netlists, impact_analysis,
    impact_findings, EditKind, ImpactAnalysis, NetlistDiff, NetlistEdit,
};
pub use model_check::{
    check_collapse, check_macro_cells, check_macros, check_models, check_shard_partition,
    MacroCellView,
};
pub use netlist_check::{check_and_parse_bench, check_bench_source};

use cfs_netlist::{write_bench, Circuit};

/// Runs every analysis over an already-built circuit.
///
/// The circuit is serialized with [`write_bench`] and analyzed as source,
/// so spans refer to lines of the canonical serialization (the text `fsim
/// generate` writes) and the structural and model rules behave identically
/// to [`check_bench_source`].
///
/// # Examples
///
/// ```
/// let report = cfs_check::check_circuit(&cfs_netlist::data::s27());
/// assert!(!report.has_errors());
/// ```
pub fn check_circuit(circuit: &Circuit) -> Report {
    check_bench_source(circuit.name(), &write_bench(circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_faults::collapse_stuck_at;
    use cfs_netlist::{extract_macros, parse_bench, GateId, DEFAULT_MACRO_MAX_INPUTS};

    fn codes(report: &Report) -> Vec<RuleCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn count(report: &Report, code: RuleCode) -> usize {
        report.with_code(code).count()
    }

    // One purpose-built bad netlist per rule code, as the acceptance
    // criteria demand.

    #[test]
    fn s001_syntax_error() {
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nwhat is this\n");
        assert_eq!(count(&r, RuleCode::SyntaxError), 1, "{:?}", codes(&r));
        assert!(r.has_errors());
        let d = r.with_code(RuleCode::SyntaxError).next().unwrap();
        assert_eq!(d.span, Some(Span { line: 4, col: 1 }));
    }

    #[test]
    fn s002_unknown_gate() {
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n");
        assert_eq!(count(&r, RuleCode::UnknownGate), 1, "{:?}", codes(&r));
        let d = r.with_code(RuleCode::UnknownGate).next().unwrap();
        assert_eq!(d.span, Some(Span { line: 3, col: 5 }));
        assert!(d.message.contains("MAJ"));
    }

    #[test]
    fn s003_bad_arity() {
        let r = check_bench_source("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n");
        assert_eq!(count(&r, RuleCode::BadArity), 1, "{:?}", codes(&r));
        // A flip-flop with two D inputs is the sequential variant.
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n");
        assert_eq!(count(&r, RuleCode::BadArity), 1, "{:?}", codes(&r));
        // Fault sites number pins with one byte: 256 inputs is the limit.
        for (width, errors) in [(256, 0), (257, 1), (300, 1)] {
            let names: Vec<String> = (0..width).map(|i| format!("a{i}")).collect();
            let inputs: Vec<String> = names.iter().map(|n| format!("INPUT({n})\n")).collect();
            let src = format!(
                "{}OUTPUT(y)\ny = XOR({})\n",
                inputs.concat(),
                names.join(", ")
            );
            let r = check_bench_source("t", &src);
            assert_eq!(
                count(&r, RuleCode::BadArity),
                errors,
                "{width}: {:?}",
                codes(&r)
            );
            assert_eq!(r.has_errors(), errors > 0, "{width}: {:?}", codes(&r));
        }
    }

    #[test]
    fn n001_combinational_cycle() {
        let r = check_bench_source(
            "t",
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(w)\nw = BUF(y)\n",
        );
        assert_eq!(
            count(&r, RuleCode::CombinationalCycle),
            1,
            "{:?}",
            codes(&r)
        );
        let d = r.with_code(RuleCode::CombinationalCycle).next().unwrap();
        assert!(d.message.contains('w') && d.message.contains('y') && d.message.contains('z'));
        // Cycles are listed by their earliest line: lines 4–5 before 6–7.
        let r = check_bench_source(
            "t",
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, m, p)\nm = AND(a, n)\nn = NOT(m)\n\
             p = AND(a, q)\nq = NOT(p)\n",
        );
        let spans: Vec<_> = r.diagnostics.iter().map(|d| (d.code, d.span)).collect();
        let n001 = |line| (RuleCode::CombinationalCycle, Some(Span { line, col: 1 }));
        assert_eq!(spans, [n001(4), n001(6)]);
        // A flip-flop in the loop legalizes it.
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(y)\ny = AND(a, q)\nq = DFF(y)\n");
        assert_eq!(
            count(&r, RuleCode::CombinationalCycle),
            0,
            "{:?}",
            codes(&r)
        );
        assert!(!r.has_errors());
    }

    #[test]
    fn n001_self_loop() {
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n");
        assert_eq!(
            count(&r, RuleCode::CombinationalCycle),
            1,
            "{:?}",
            codes(&r)
        );
    }

    #[test]
    fn n002_undriven_net() {
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n");
        assert_eq!(count(&r, RuleCode::UndrivenNet), 1, "{:?}", codes(&r));
        let d = r.with_code(RuleCode::UndrivenNet).next().unwrap();
        assert_eq!(d.span, Some(Span { line: 3, col: 12 }));
        // The name is located where it is written, not where it first
        // occurs on the line.
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(gh)\ngh = AND(a, g)\n");
        let d = r.with_code(RuleCode::UndrivenNet).next().unwrap();
        assert_eq!(d.span, Some(Span { line: 3, col: 13 }));
        // Multiple references to the same ghost: still one finding.
        let r = check_bench_source(
            "t",
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\nz = NOT(ghost)\nOUTPUT(z)\n",
        );
        assert_eq!(count(&r, RuleCode::UndrivenNet), 1, "{:?}", codes(&r));
    }

    #[test]
    fn n003_dangling_fanout() {
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ndead = BUF(a)\n");
        assert_eq!(count(&r, RuleCode::DanglingFanout), 1, "{:?}", codes(&r));
        let d = r.with_code(RuleCode::DanglingFanout).next().unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(!r.has_errors(), "dangling fanout does not gate simulation");
        // N004 is suppressed for the node already flagged N003.
        assert_eq!(count(&r, RuleCode::UnreachableGate), 0, "{:?}", codes(&r));
    }

    #[test]
    fn n003_unused_input_is_info() {
        let r = check_bench_source("t", "INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NOT(a)\n");
        let d = r.with_code(RuleCode::DanglingFanout).next().unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(r.count(Severity::Warning), 0);
        let r = check_bench_source("t", "INPUT(a)\nINPUT(T)\nOUTPUT(y)\ny = NOT(a)\n");
        let d = r.with_code(RuleCode::DanglingFanout).next().unwrap();
        assert_eq!(d.span, Some(Span { line: 2, col: 7 }));
    }

    #[test]
    fn n004_unreachable_gate() {
        // `mid` is consumed (by `dead`), so it is not dangling — but no
        // primary output is reachable from it.
        let r = check_bench_source(
            "t",
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nmid = BUF(a)\ndead = NOT(mid)\n",
        );
        assert_eq!(count(&r, RuleCode::UnreachableGate), 1, "{:?}", codes(&r));
        assert_eq!(count(&r, RuleCode::DanglingFanout), 1, "{:?}", codes(&r));
        let d = r.with_code(RuleCode::UnreachableGate).next().unwrap();
        assert!(d.message.contains("mid"));
    }

    #[test]
    fn n005_multiply_driven_net() {
        let r = check_bench_source("t", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n");
        assert_eq!(count(&r, RuleCode::MultiplyDrivenNet), 1, "{:?}", codes(&r));
        let d = r.with_code(RuleCode::MultiplyDrivenNet).next().unwrap();
        assert_eq!(d.span.unwrap().line, 4);
        assert!(d.message.contains("line 3"));
    }

    #[test]
    fn n006_missing_io() {
        let r = check_bench_source("t", "INPUT(a)\nb = NOT(a)\n");
        assert_eq!(count(&r, RuleCode::MissingIo), 1, "{:?}", codes(&r));
        let r = check_bench_source("t", "OUTPUT(y)\ny = NOT(z)\n");
        assert!(count(&r, RuleCode::MissingIo) >= 1, "{:?}", codes(&r));
    }

    #[test]
    fn f001_corrupted_collapse() {
        let c = cfs_netlist::data::s27();
        let sound = collapse_stuck_at(&c);
        // Sound collapse: clean.
        let mut r = Report::new("t");
        check_collapse(&c, &sound, None, &mut r);
        assert!(r.diagnostics.is_empty(), "{:?}", codes(&r));
        // Point one fault at an out-of-range class.
        let mut bad = sound.clone();
        bad.class_of[3] = bad.num_classes() + 7;
        let mut r = Report::new("t");
        check_collapse(&c, &bad, None, &mut r);
        // The remap itself fires, and if fault 3 was its class's lowest
        // member the representative rule fires too.
        assert!(
            count(&r, RuleCode::UncollapsibleFault) >= 1,
            "{:?}",
            codes(&r)
        );
        assert!(r
            .with_code(RuleCode::UncollapsibleFault)
            .any(|d| d.message.contains("maps to class")));
        // Swap two representatives: both classes lose their lowest member.
        let mut bad = sound.clone();
        bad.representatives.swap(0, 1);
        let mut r = Report::new("t");
        check_collapse(&c, &bad, None, &mut r);
        assert!(
            count(&r, RuleCode::UncollapsibleFault) >= 1,
            "{:?}",
            codes(&r)
        );
        // Truncate the class map entirely.
        let mut bad = sound;
        bad.class_of.pop();
        let mut r = Report::new("t");
        check_collapse(&c, &bad, None, &mut r);
        assert_eq!(
            count(&r, RuleCode::UncollapsibleFault),
            1,
            "{:?}",
            codes(&r)
        );
    }

    #[test]
    fn m001_corrupted_macro_region() {
        let c = parse_bench(
            "m",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ng = AND(a, b)\nh = NOT(g)\ny = OR(h, c)\n",
        )
        .unwrap();
        let macros = extract_macros(&c, DEFAULT_MACRO_MAX_INPUTS);
        // The real extraction is legal.
        let mut r = Report::new("t");
        check_macros(&c, &macros, DEFAULT_MACRO_MAX_INPUTS, None, &mut r);
        assert!(r.diagnostics.is_empty(), "{:?}", codes(&r));
        // Hand-build one giant "cell" whose internal member h is missing:
        // g's consumer h lives outside the region.
        let id = |n: &str| c.find(n).unwrap();
        let bad = vec![MacroCellView {
            root: id("y"),
            members: vec![id("y"), id("g")],
            support: vec![id("a"), id("b"), id("c")],
        }];
        let mut r = Report::new("t");
        check_macro_cells(&c, &bad, DEFAULT_MACRO_MAX_INPUTS, None, &mut r);
        // h uncovered, g fans out to h outside the region, and the cell
        // draws support it should not — at minimum the first two fire.
        assert!(
            count(&r, RuleCode::IllegalMacroRegion) >= 2,
            "{:?}",
            codes(&r)
        );
        assert!(r
            .with_code(RuleCode::IllegalMacroRegion)
            .any(|d| d.message.contains("not covered")));
        assert!(r
            .with_code(RuleCode::IllegalMacroRegion)
            .any(|d| d.message.contains("fans out")));
    }

    #[test]
    fn m001_internal_primary_output() {
        let c = parse_bench(
            "m",
            "INPUT(a)\nOUTPUT(g)\nOUTPUT(y)\ng = NOT(a)\ny = BUF(g)\n",
        )
        .unwrap();
        let id = |n: &str| c.find(n).unwrap();
        // Illegally fold the PO-tapped g into y's cell.
        let bad = vec![MacroCellView {
            root: id("y"),
            members: vec![id("y"), id("g")],
            support: vec![id("a")],
        }];
        let mut r = Report::new("t");
        check_macro_cells(&c, &bad, DEFAULT_MACRO_MAX_INPUTS, None, &mut r);
        assert!(
            r.with_code(RuleCode::IllegalMacroRegion)
                .any(|d| d.message.contains("primary output")),
            "{:?}",
            codes(&r)
        );
    }

    #[test]
    fn p001_corrupted_partition() {
        // Sound partitions pass.
        let mut r = Report::new("t");
        check_shard_partition("rr", &[vec![0, 2, 4], vec![1, 3]], 5, &mut r);
        assert!(r.diagnostics.is_empty(), "{:?}", codes(&r));
        // A lost fault.
        let mut r = Report::new("t");
        check_shard_partition("rr", &[vec![0, 2], vec![1, 3]], 5, &mut r);
        assert_eq!(
            count(&r, RuleCode::NonExactCoverShardPartition),
            1,
            "{:?}",
            codes(&r)
        );
        // A duplicated fault.
        let mut r = Report::new("t");
        check_shard_partition("rr", &[vec![0, 1, 2], vec![2, 3, 4]], 5, &mut r);
        assert_eq!(
            count(&r, RuleCode::NonExactCoverShardPartition),
            1,
            "{:?}",
            codes(&r)
        );
        // Unbalanced shards.
        let mut r = Report::new("t");
        check_shard_partition("chunk", &[vec![0, 1, 2, 3], vec![4]], 5, &mut r);
        assert_eq!(
            count(&r, RuleCode::NonExactCoverShardPartition),
            1,
            "{:?}",
            codes(&r)
        );
        // Out of range.
        let mut r = Report::new("t");
        check_shard_partition("rr", &[vec![0, 1, 9]], 3, &mut r);
        assert!(
            count(&r, RuleCode::NonExactCoverShardPartition) >= 1,
            "{:?}",
            codes(&r)
        );
    }

    #[test]
    fn clean_circuits_stay_clean() {
        let r = check_circuit(&cfs_netlist::data::s27());
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
        for name in ["s298g", "s526g", "s1238g"] {
            let c = cfs_netlist::generate::benchmark(name).unwrap();
            let r = check_circuit(&c);
            assert!(r.diagnostics.is_empty(), "{name}: {}", r.render_text());
        }
    }

    #[test]
    fn one_run_reports_every_defect() {
        // A netlist with four independent defects: the lenient pass finds
        // all of them in one run.
        let r = check_bench_source(
            "t",
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\nz = NOT(w)\nw = BUF(z)\nz = MAJ(a)\n",
        );
        assert_eq!(count(&r, RuleCode::UndrivenNet), 1, "{:?}", codes(&r));
        assert_eq!(
            count(&r, RuleCode::CombinationalCycle),
            1,
            "{:?}",
            codes(&r)
        );
        assert_eq!(count(&r, RuleCode::MultiplyDrivenNet), 1, "{:?}", codes(&r));
        assert_eq!(count(&r, RuleCode::UnknownGate), 1, "{:?}", codes(&r));
    }

    #[test]
    fn provenance_spans_survive_to_model_rules() {
        // A clean source parses; model rules then run with provenance, so
        // the whole pipeline executes without findings.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(y)\ng = AND(a, q)\ny = NAND(g, b)\n";
        let r = check_bench_source("p", src);
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn gate_id_from_index_matches_gates_order() {
        let c = cfs_netlist::data::s27();
        for (i, g) in c.gates().iter().enumerate() {
            assert_eq!(c.gate(GateId::from_index(i)).name(), g.name());
        }
    }
}
