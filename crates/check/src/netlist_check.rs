//! Structural analysis of `.bench` source text.
//!
//! Unlike [`cfs_netlist::parse_bench`], which stops at the first problem,
//! this scanner is *lenient*: it keeps going past malformed lines and
//! collects every finding, so one run reports every seeded defect. When the
//! structural pass finds no error-severity problem, the source is parsed
//! for real and the fault-model analyses of [`crate::model_check`] run on
//! the resulting circuit.

use std::collections::{HashMap, HashSet};

use cfs_logic::GateFn;
use cfs_netlist::{parse_bench_with_provenance, Circuit, MAX_FANIN};

use crate::analyze::cross_check_observability;
use crate::diag::{Report, RuleCode, Severity, Span};
use crate::model_check::check_models;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RawKind {
    Input,
    Dff,
    /// A combinational gate; `None` when the function name was unknown
    /// (flagged `S002`, but the definition still participates in the net
    /// analyses so one defect yields one diagnostic).
    Gate(Option<GateFn>),
}

struct RawDef {
    name: String,
    kind: RawKind,
    /// `(net name, 1-based column)` per argument.
    args: Vec<(String, usize)>,
    line: usize,
    col: usize,
}

struct Scan {
    defs: Vec<RawDef>,
    /// `OUTPUT` directives: `(net name, line, column)`.
    outputs: Vec<(String, usize, usize)>,
}

/// Runs every analysis over `.bench` source text and returns the report:
/// the `S`/`N` structural rules on the raw text, then (when the structure
/// is sound) the `F`/`M`/`P` fault-model rules on the parsed circuit.
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
/// pass parsed, so a caller that goes on to simulate reads and parses the
/// file once. The circuit is the one [`cfs_netlist::parse_bench`] builds;
/// it is `None` only when the report has errors (the structural pass
/// failed, so nothing was parsed, or the parser refused the text).
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
    let scan = scan_source(source, &mut report);
    let flagged = analyze_structure(&scan, &mut report);
    if report.has_errors() {
        return (report, None);
    }
    match parse_bench_with_provenance(name, source) {
        Ok((circuit, prov)) => {
            check_models(&circuit, Some(&prov), &mut report);
            // F003: the textual N004 pass and the circuit-level
            // observability analysis must agree fault for fault.
            cross_check_observability(
                &circuit,
                Some(&prov),
                &flagged.unreachable,
                &flagged.dangling,
                &mut report,
            );
            (report, Some(circuit))
        }
        Err(e) => {
            // Safety net: the structural pass must be at least as
            // strict as the parser. Reaching this branch is a checker
            // bug, not a user error — still surface it as one.
            let span = e.line().map(|line| Span {
                line,
                col: e.column().unwrap_or(1),
            });
            report.add(
                RuleCode::SyntaxError,
                span,
                format!("netlist rejected by the parser despite a clean structural pass: {e}"),
            );
            (report, None)
        }
    }
}

/// Column of the first non-whitespace character (1-based).
fn content_col(raw: &str) -> usize {
    raw.find(|c: char| !c.is_whitespace()).map_or(1, |i| i + 1)
}

/// Column of `token` in `raw` (1-based; 1 if absent).
fn token_col(raw: &str, token: &str) -> usize {
    raw.find(token).map_or(1, |i| i + 1)
}

fn scan_source(source: &str, report: &mut Report) -> Scan {
    let mut defs = Vec::new();
    let mut outputs = Vec::new();
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let span = |col: usize| Some(Span { line, col });
        if let Some(rest) = strip_directive(text, "INPUT") {
            defs.push(RawDef {
                name: rest.to_owned(),
                kind: RawKind::Input,
                args: Vec::new(),
                line,
                col: token_col(raw, rest),
            });
        } else if let Some(rest) = strip_directive(text, "OUTPUT") {
            outputs.push((rest.to_owned(), line, token_col(raw, rest)));
        } else if let Some(eq) = text.find('=') {
            let lhs = text[..eq].trim().to_owned();
            let rhs = text[eq + 1..].trim();
            let Some(open) = rhs.find('(') else {
                report.add(
                    RuleCode::SyntaxError,
                    span(content_col(raw)),
                    format!("cannot parse {:?}: expected name = FN(args)", text),
                );
                continue;
            };
            if !rhs.ends_with(')') || lhs.is_empty() {
                report.add(
                    RuleCode::SyntaxError,
                    span(content_col(raw)),
                    format!("cannot parse {:?}: expected name = FN(args)", text),
                );
                continue;
            }
            let fn_name = rhs[..open].trim();
            let args: Vec<(String, usize)> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| (s.to_owned(), token_col(raw, s)))
                .collect();
            let kind = if fn_name.eq_ignore_ascii_case("DFF") {
                if args.len() != 1 {
                    report.add(
                        RuleCode::BadArity,
                        span(token_col(raw, fn_name)),
                        format!(
                            "flip-flop {lhs:?} must have exactly one D input, has {}",
                            args.len()
                        ),
                    );
                }
                RawKind::Dff
            } else {
                match fn_name.parse::<GateFn>() {
                    Ok(f) => {
                        if f.is_unary() && args.len() != 1 {
                            report.add(
                                RuleCode::BadArity,
                                span(token_col(raw, fn_name)),
                                format!(
                                    "{} gate {lhs:?} must have exactly one input, has {}",
                                    fn_name.to_uppercase(),
                                    args.len()
                                ),
                            );
                        } else if args.is_empty() {
                            report.add(
                                RuleCode::BadArity,
                                span(token_col(raw, fn_name)),
                                format!("gate {lhs:?} has no inputs"),
                            );
                        } else if args.len() > MAX_FANIN {
                            report.add(
                                RuleCode::BadArity,
                                span(token_col(raw, fn_name)),
                                format!(
                                    "gate {lhs:?} has {} inputs; at most {MAX_FANIN} are supported",
                                    args.len()
                                ),
                            );
                        }
                        RawKind::Gate(Some(f))
                    }
                    Err(_) => {
                        report.add(
                            RuleCode::UnknownGate,
                            span(token_col(raw, fn_name)),
                            format!("unknown gate type {fn_name:?}"),
                        );
                        RawKind::Gate(None)
                    }
                }
            };
            defs.push(RawDef {
                name: lhs,
                kind,
                args,
                line,
                col: content_col(raw),
            });
        } else {
            report.add(
                RuleCode::SyntaxError,
                span(content_col(raw)),
                format!("cannot parse {:?}", text),
            );
        }
    }
    Scan { defs, outputs }
}

fn strip_directive<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = text.strip_prefix(keyword)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Names flagged by the structural pass, for cross-checking against the
/// circuit-level analyses after a clean parse.
#[derive(Debug, Default)]
struct StructureFlags {
    /// `N004` unreachable gates/flip-flops.
    unreachable: Vec<String>,
    /// `N003` dangling definitions (including unused primary inputs).
    dangling: Vec<String>,
}

fn analyze_structure(scan: &Scan, report: &mut Report) -> StructureFlags {
    let mut flags = StructureFlags::default();
    // First definition of each name; later ones are multiply-driven nets.
    let mut first_def: HashMap<&str, usize> = HashMap::new();
    for (i, d) in scan.defs.iter().enumerate() {
        if let Some(&prev) = first_def.get(d.name.as_str()) {
            report.add(
                RuleCode::MultiplyDrivenNet,
                Some(Span {
                    line: d.line,
                    col: d.col,
                }),
                format!(
                    "net {:?} is already driven by the definition at line {}",
                    d.name, scan.defs[prev].line
                ),
            );
        } else {
            first_def.insert(d.name.as_str(), i);
        }
    }

    // N006: a simulatable netlist needs both ends.
    if !scan.defs.iter().any(|d| d.kind == RawKind::Input) {
        report.add(RuleCode::MissingIo, None, "netlist has no primary inputs");
    }
    if scan.outputs.is_empty() {
        report.add(RuleCode::MissingIo, None, "netlist has no primary outputs");
    }

    // N002: references to nets nothing drives, one finding per net at its
    // first reference.
    let mut undriven_seen: HashSet<&str> = HashSet::new();
    let mut references: Vec<(&str, usize, usize)> = Vec::new();
    for d in &scan.defs {
        for (a, col) in &d.args {
            references.push((a.as_str(), d.line, *col));
        }
    }
    for (o, line, col) in &scan.outputs {
        references.push((o.as_str(), *line, *col));
    }
    for (name, line, col) in references {
        if !first_def.contains_key(name) && undriven_seen.insert(name) {
            report.add(
                RuleCode::UndrivenNet,
                Some(Span { line, col }),
                format!("net {name:?} is referenced but never driven"),
            );
        }
    }

    // Consumption counts (gate inputs, flip-flop D pins) and output taps.
    let tapped: HashSet<&str> = scan.outputs.iter().map(|(o, ..)| o.as_str()).collect();
    let mut consumed: HashSet<&str> = HashSet::new();
    for d in &scan.defs {
        for (a, _) in &d.args {
            consumed.insert(a.as_str());
        }
    }

    // N001: strongly connected components of the combinational subgraph
    // (flip-flops legally break feedback paths). One finding per cycle.
    for scc in combinational_sccs(scan, &first_def) {
        let mut names: Vec<&str> = scc.iter().map(|&i| scan.defs[i].name.as_str()).collect();
        names.sort_unstable();
        let shown = if names.len() > 8 {
            format!("{} ... ({} gates)", names[..8].join(" -> "), names.len())
        } else {
            names.join(" -> ")
        };
        let line = scc.iter().map(|&i| scan.defs[i].line).min().unwrap_or(0);
        report.add(
            RuleCode::CombinationalCycle,
            Some(Span { line, col: 1 }),
            format!("combinational cycle with no flip-flop: {shown}"),
        );
    }

    // N003: driven nets nothing consumes. Warning for logic, info for an
    // unused primary input (legal, but usually a harness mistake).
    let mut dangling: HashSet<&str> = HashSet::new();
    for (i, d) in scan.defs.iter().enumerate() {
        if first_def.get(d.name.as_str()) != Some(&i) {
            continue;
        }
        if consumed.contains(d.name.as_str()) || tapped.contains(d.name.as_str()) {
            continue;
        }
        dangling.insert(d.name.as_str());
        flags.dangling.push(d.name.clone());
        let span = Some(Span {
            line: d.line,
            col: d.col,
        });
        if d.kind == RawKind::Input {
            report.add_with(
                RuleCode::DanglingFanout,
                Severity::Info,
                span,
                format!("primary input {:?} is never used", d.name),
            );
        } else {
            report.add(
                RuleCode::DanglingFanout,
                span,
                format!("output of {:?} drives nothing", d.name),
            );
        }
    }

    // N004: gates and flip-flops from which no primary output is
    // reachable. Dangling nodes are already flagged N003; primary inputs
    // are never flagged here.
    let reached = reachable_from_outputs(scan, &first_def);
    for (i, d) in scan.defs.iter().enumerate() {
        if d.kind == RawKind::Input
            || reached.contains(&i)
            || dangling.contains(d.name.as_str())
            || first_def.get(d.name.as_str()) != Some(&i)
        {
            continue;
        }
        flags.unreachable.push(d.name.clone());
        report.add(
            RuleCode::UnreachableGate,
            Some(Span {
                line: d.line,
                col: d.col,
            }),
            format!("no primary output is reachable from {:?}", d.name),
        );
    }
    flags
}

/// Def indices reachable backwards from the `OUTPUT` taps (through both
/// combinational gates and flip-flops).
fn reachable_from_outputs(scan: &Scan, first_def: &HashMap<&str, usize>) -> HashSet<usize> {
    let mut reached: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = scan
        .outputs
        .iter()
        .filter_map(|(o, ..)| first_def.get(o.as_str()).copied())
        .collect();
    while let Some(i) = stack.pop() {
        if !reached.insert(i) {
            continue;
        }
        for (a, _) in &scan.defs[i].args {
            if let Some(&j) = first_def.get(a.as_str()) {
                stack.push(j);
            }
        }
    }
    reached
}

/// Strongly connected components (cycles only: size > 1 or a self-loop) of
/// the combinational dependency graph, via iterative Kosaraju. Flip-flop
/// and primary-input definitions are not nodes, so sequential feedback is
/// invisible here — exactly the legality rule.
fn combinational_sccs(scan: &Scan, first_def: &HashMap<&str, usize>) -> Vec<Vec<usize>> {
    let comb: Vec<usize> = (0..scan.defs.len())
        .filter(|&i| {
            matches!(scan.defs[i].kind, RawKind::Gate(_))
                && first_def.get(scan.defs[i].name.as_str()) == Some(&i)
        })
        .collect();
    let index_of: HashMap<usize, usize> = comb.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let n = comb.len();
    // Edges: driver -> consumer within the combinational subgraph.
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, &i) in comb.iter().enumerate() {
        for (a, _) in &scan.defs[i].args {
            let Some(&j) = first_def.get(a.as_str()) else {
                continue;
            };
            if let Some(&kj) = index_of.get(&j) {
                fwd[kj].push(k);
                rev[k].push(kj);
            }
        }
    }
    // Pass 1: finish order on the forward graph.
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // (node, next-edge cursor) stack for iterative post-order.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        visited[start] = true;
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            if *cursor < fwd[v].len() {
                let w = fwd[v][*cursor];
                *cursor += 1;
                if !visited[w] {
                    visited[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: components on the reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut stack = vec![start];
        comp[start] = id;
        while let Some(v) = stack.pop() {
            members.push(comb[v]);
            for &w in &rev[v] {
                if comp[w] == usize::MAX {
                    comp[w] = id;
                    stack.push(w);
                }
            }
        }
        components.push(members);
    }
    components.retain(|members| {
        members.len() > 1 || {
            let i = members[0];
            scan.defs[i]
                .args
                .iter()
                .any(|(a, _)| first_def.get(a.as_str()) == Some(&i))
        }
    });
    components
}
