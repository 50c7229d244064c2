//! The `.bench` rules, over one read of the source text.
//!
//! [`cfs_netlist::BenchRead`] is the one `.bench` reader: it keeps going
//! past malformed lines and lists every error-severity problem (`S001`–
//! `S003`, `N001`, `N002`, `N005`, `N006`), so one run reports every seeded
//! defect. This module reports those problems under their rule codes, adds
//! the `N003`/`N004` warnings over the same read and, when nothing is an
//! error, builds the circuit from that read and runs the fault-model
//! analyses of [`crate::model_check`] and the `F003` cross-check on it.

use cfs_netlist::{BenchRead, BenchRule, Circuit, DefKind};

use crate::analyze::cross_check_observability;
use crate::diag::{Report, RuleCode, Severity, Span};
use crate::model_check::check_models;

/// Runs every analysis over `.bench` source text and returns the report:
/// the `S`/`N` structural rules on the read text, then (when the structure
/// is sound) the `F`/`M`/`P` fault-model rules on the built circuit.
///
/// # Examples
///
/// ```
/// let bad = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
/// let report = cfs_check::check_bench_source("t", bad);
/// assert!(report.has_errors());
/// assert_eq!(report.with_code(cfs_check::RuleCode::UndrivenNet).count(), 1);
/// ```
pub fn check_bench_source(name: &str, source: &str) -> Report {
    check_and_parse_bench(name, source).0
}

/// [`check_bench_source`], also returning the circuit the fault-model
/// pass checked, so a caller that goes on to simulate reads the file once.
/// The circuit is the one [`cfs_netlist::parse_bench`] builds from the
/// same text; it is `None` only when the report has errors.
///
/// # Examples
///
/// ```
/// let source = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let (report, circuit) = cfs_check::check_and_parse_bench("inv", source);
/// assert!(!report.has_errors());
/// assert_eq!(circuit.unwrap().num_nodes(), 2);
/// ```
pub fn check_and_parse_bench(name: &str, source: &str) -> (Report, Option<Circuit>) {
    let mut report = Report::new(name);
    let read = BenchRead::new(source);
    for problem in read.problems() {
        let span = problem.span.map(|(line, col)| Span { line, col });
        report.add(rule_code(problem.rule), span, problem.message.clone());
    }
    let flags = unused_and_unreachable(&read, &mut report);
    if report.has_errors() {
        return (report, None);
    }
    match read.build(name) {
        Ok((circuit, prov)) => {
            check_models(&circuit, Some(&prov), &mut report);
            // F003: the textual N003/N004 pass and the circuit-level
            // observability analysis must agree gate for gate.
            let flag_of = |gate| {
                read.net(circuit.gate(gate).name())
                    .and_then(|net| flags[net])
            };
            cross_check_observability(&circuit, Some(&prov), flag_of, &mut report);
            (report, Some(circuit))
        }
        Err(e) => {
            // `build` fails only on a problem reported above; a failure
            // here is a checker bug, still surfaced as an error.
            let span = e.line().map(|line| Span {
                line,
                col: e.column().unwrap_or(1),
            });
            report.add(
                RuleCode::SyntaxError,
                span,
                format!("netlist not built: {e}"),
            );
            (report, None)
        }
    }
}

fn rule_code(rule: BenchRule) -> RuleCode {
    match rule {
        BenchRule::Syntax => RuleCode::SyntaxError,
        BenchRule::UnknownGate => RuleCode::UnknownGate,
        BenchRule::BadArity => RuleCode::BadArity,
        BenchRule::Cycle => RuleCode::CombinationalCycle,
        BenchRule::Undriven => RuleCode::UndrivenNet,
        BenchRule::Redefined => RuleCode::MultiplyDrivenNet,
        BenchRule::MissingIo => RuleCode::MissingIo,
    }
}

/// `N003` (driven nets nothing reads or taps) and `N004` (definitions from
/// which no primary output is reachable), over first definitions. Returns,
/// per net, the rule that flagged its driver.
fn unused_and_unreachable(read: &BenchRead<'_>, report: &mut Report) -> Vec<Option<RuleCode>> {
    let defs = read.defs();
    let mut used = vec![false; read.num_nets()];
    for r in defs.iter().flat_map(|d| &d.fanin).chain(read.outputs()) {
        used[r.net] = true;
    }
    let first = |i: usize| read.driver(defs[i].name.net) == Some(i);
    let span = |i: usize| {
        let r = defs[i].name;
        Some(Span {
            line: r.line,
            col: r.col,
        })
    };

    // N003: a warning for logic, info for an unused primary input (legal,
    // but usually a harness mistake).
    let mut flags = vec![None; read.num_nets()];
    for (i, d) in defs.iter().enumerate() {
        if !first(i) || used[d.name.net] {
            continue;
        }
        flags[d.name.net] = Some(RuleCode::DanglingFanout);
        let name = read.name(d.name.net);
        if d.kind == DefKind::Input {
            report.add_with(
                RuleCode::DanglingFanout,
                Severity::Info,
                span(i),
                format!("primary input {name:?} is never used"),
            );
        } else {
            report.add(
                RuleCode::DanglingFanout,
                span(i),
                format!("output of {name:?} drives nothing"),
            );
        }
    }

    // N004: backwards from the taps through gates and flip-flops. Nodes
    // already flagged N003 and primary inputs are not flagged again.
    let mut reached = vec![false; read.num_nets()];
    let mut stack: Vec<usize> = read.outputs().iter().map(|r| r.net).collect();
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut reached[net], true) {
            continue;
        }
        if let Some(i) = read.driver(net) {
            stack.extend(defs[i].fanin.iter().map(|r| r.net));
        }
    }
    for (i, d) in defs.iter().enumerate() {
        let net = d.name.net;
        if d.kind == DefKind::Input || reached[net] || flags[net].is_some() || !first(i) {
            continue;
        }
        flags[net] = Some(RuleCode::UnreachableGate);
        report.add(
            RuleCode::UnreachableGate,
            span(i),
            format!("no primary output is reachable from {:?}", read.name(net)),
        );
    }
    flags
}
