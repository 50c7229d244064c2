//! Reader and writer for the ISCAS-85/89 `.bench` netlist format.
//!
//! The format the paper's benchmark circuits are distributed in:
//!
//! ```text
//! # s27 — comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G10 = NAND(G14, G11)
//! G14 = NOT(G0)
//! ```
//!
//! Signals may be referenced before they are defined; definition order is
//! irrelevant.
//!
//! [`BenchRead`] is the one reader. It tokenizes each line once, interns
//! each net name once, records each token's column as it reads it, and
//! computes every error-severity problem of the text in one structural
//! pass over the interned nets. [`parse_bench`] returns the first problem
//! or builds the circuit from the read in linear time; `cfs-check` reports
//! every problem from the same read, under its rule code.
//!
//! Every [`ParseBenchError`] variant carries the 1-based line and column of
//! the offending token, and [`parse_bench_with_provenance`] additionally
//! returns a [`BenchProvenance`] side table mapping every gate back to its
//! defining source line — the raw material for diagnostic spans.

use std::collections::HashMap;
use std::fmt;

use cfs_logic::GateFn;

use crate::{Circuit, CircuitBuilder, CircuitError, GateId, GateKind, MAX_FANIN};

/// Error produced while parsing a `.bench` file.
///
/// All variants locate the problem: `line`/`col` are 1-based source
/// coordinates of the offending token (for whole-circuit problems with no
/// single token, such as a missing `INPUT`, `line` is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBenchError {
    /// A line could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the first offending character.
        col: usize,
        /// The offending text.
        text: String,
    },
    /// A gate type is not supported.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the type name.
        col: usize,
        /// The unknown type name.
        name: String,
    },
    /// A signal was referenced but never defined.
    Undefined {
        /// 1-based line number of the referencing definition or directive.
        line: usize,
        /// 1-based column of the dangling name.
        col: usize,
        /// The undefined signal name.
        name: String,
    },
    /// A signal was defined twice.
    Redefined {
        /// 1-based line number of the second definition.
        line: usize,
        /// 1-based column of the redefined name.
        col: usize,
        /// The signal name.
        name: String,
    },
    /// The netlist parsed but failed circuit validation.
    Circuit {
        /// 1-based line number of the gate the error names (0 when the
        /// error has no single source location, e.g. missing I/O).
        line: usize,
        /// 1-based column (1 when unknown).
        col: usize,
        /// The underlying structural error.
        error: CircuitError,
    },
}

impl ParseBenchError {
    /// The 1-based source line, when the error points at one.
    pub fn line(&self) -> Option<usize> {
        let line = match self {
            ParseBenchError::Syntax { line, .. }
            | ParseBenchError::UnknownGate { line, .. }
            | ParseBenchError::Undefined { line, .. }
            | ParseBenchError::Redefined { line, .. }
            | ParseBenchError::Circuit { line, .. } => *line,
        };
        (line > 0).then_some(line)
    }

    /// The 1-based source column, when the error points at a line.
    pub fn column(&self) -> Option<usize> {
        self.line().map(|_| match self {
            ParseBenchError::Syntax { col, .. }
            | ParseBenchError::UnknownGate { col, .. }
            | ParseBenchError::Undefined { col, .. }
            | ParseBenchError::Redefined { col, .. }
            | ParseBenchError::Circuit { col, .. } => *col,
        })
    }
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBenchError::Syntax { line, col, text } => {
                write!(f, "line {line}:{col}: cannot parse {text:?}")
            }
            ParseBenchError::UnknownGate { line, col, name } => {
                write!(f, "line {line}:{col}: unknown gate type {name:?}")
            }
            ParseBenchError::Undefined { line, col, name } => {
                write!(f, "line {line}:{col}: undefined signal {name:?}")
            }
            ParseBenchError::Redefined { line, col, name } => {
                write!(f, "line {line}:{col}: signal {name:?} redefined")
            }
            ParseBenchError::Circuit { line, col, error } if *line > 0 => {
                write!(f, "line {line}:{col}: invalid circuit: {error}")
            }
            ParseBenchError::Circuit { error, .. } => write!(f, "invalid circuit: {error}"),
        }
    }
}

impl std::error::Error for ParseBenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseBenchError::Circuit { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Source-line provenance for a parsed circuit: which `.bench` line defined
/// each gate. Built by [`parse_bench_with_provenance`]; consumed by
/// diagnostics that want to point back into the source text.
#[derive(Debug, Clone, Default)]
pub struct BenchProvenance {
    /// 1-based defining line per gate index (0 = unknown).
    lines: Vec<usize>,
}

impl BenchProvenance {
    /// The 1-based line that defined `id` (its `INPUT(...)` directive or
    /// `name = FN(...)` assignment), if known.
    pub fn line_of(&self, id: GateId) -> Option<usize> {
        let line = self.lines.get(id.index()).copied().unwrap_or(0);
        (line > 0).then_some(line)
    }
}

/// Parses a circuit from `.bench` text.
///
/// # Errors
///
/// Returns the first error-severity problem of the text (see
/// [`BenchRead::problems`]): a malformed line, an unknown gate type, an
/// illegal input count, a redefinition, missing I/O, a dangling signal
/// reference or a combinational cycle. Every error names the offending
/// source line and column.
///
/// # Examples
///
/// ```
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let c = cfs_netlist::parse_bench("inv", src)?;
/// assert_eq!(c.num_comb_gates(), 1);
/// # Ok::<(), cfs_netlist::ParseBenchError>(())
/// ```
pub fn parse_bench(name: &str, source: &str) -> Result<Circuit, ParseBenchError> {
    parse_bench_with_provenance(name, source).map(|(c, _)| c)
}

/// Like [`parse_bench`], but also returns the per-gate line provenance.
///
/// # Errors
///
/// Same as [`parse_bench`].
///
/// # Examples
///
/// ```
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let (c, prov) = cfs_netlist::parse_bench_with_provenance("inv", src)?;
/// let y = c.find("y").unwrap();
/// assert_eq!(prov.line_of(y), Some(3));
/// # Ok::<(), cfs_netlist::ParseBenchError>(())
/// ```
pub fn parse_bench_with_provenance(
    name: &str,
    source: &str,
) -> Result<(Circuit, BenchProvenance), ParseBenchError> {
    BenchRead::new(source).build(name)
}

/// The rule an error-severity [`BenchProblem`] breaks. `fsim check`
/// reports each under its code, given here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchRule {
    /// `S001`: a line that is neither a directive nor `name = FN(args)`.
    Syntax,
    /// `S002`: an unknown gate function.
    UnknownGate,
    /// `S003`: a gate or flip-flop with an illegal input count.
    BadArity,
    /// `N001`: a combinational cycle.
    Cycle,
    /// `N002`: a referenced net that nothing drives.
    Undriven,
    /// `N005`: a net defined twice.
    Redefined,
    /// `N006`: no primary inputs, or no primary outputs.
    MissingIo,
}

/// One error-severity problem of a [`BenchRead`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchProblem {
    /// The rule it breaks.
    pub rule: BenchRule,
    /// The 1-based `(line, column)` `fsim check` points at; `None` for a
    /// whole-netlist problem.
    pub span: Option<(usize, usize)>,
    /// `fsim check`'s message.
    pub message: String,
    /// What [`parse_bench`] returns when this is the first problem.
    pub error: ParseBenchError,
}

/// What a `.bench` definition defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefKind {
    /// `INPUT(name)`.
    Input,
    /// `name = DFF(d)`.
    Dff,
    /// `name = FN(args)`; `None` when `FN` names no gate function.
    Gate(Option<GateFn>),
}

/// One occurrence of a net name in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetRef {
    /// The net: an index into the read's name table.
    pub net: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the name's first byte.
    pub col: usize,
}

/// One definition: an `INPUT` directive or a `name = FN(args)` line.
#[derive(Debug, Clone)]
pub struct BenchDef {
    /// The net it defines, where its name is written.
    pub name: NetRef,
    /// What it defines.
    pub kind: DefKind,
    /// Its inputs in pin order, where each is written.
    pub fanin: Vec<NetRef>,
}

/// One lenient read of `.bench` text: the only `.bench` reader.
///
/// It tokenizes each line once, interns each net name once, and keeps going
/// past malformed lines, so [`BenchRead::problems`] lists every
/// error-severity problem of the text, in the order `fsim check` reports
/// them. [`BenchRead::build`] turns a read without problems into a
/// [`Circuit`]; [`parse_bench`] is `BenchRead::new(source).build(name)`.
///
/// # Examples
///
/// ```
/// let read = cfs_netlist::BenchRead::new("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n");
/// let problem = &read.problems()[0];
/// assert_eq!(problem.rule, cfs_netlist::BenchRule::Undriven);
/// assert_eq!(problem.span, Some((3, 12)));
/// assert!(read.build("t").is_err());
/// ```
#[derive(Debug)]
pub struct BenchRead<'a> {
    /// Net names, in order of first mention.
    names: Vec<&'a str>,
    /// The net of each name.
    nets: HashMap<&'a str, usize>,
    /// Every definition in source order, second definitions included.
    defs: Vec<BenchDef>,
    /// `OUTPUT` taps in source order.
    outputs: Vec<NetRef>,
    /// Per net, the index of its first definition.
    driver: Vec<Option<usize>>,
    /// The first definitions of combinational gates, drivers before
    /// readers (valid when there is no cycle).
    topo: Vec<usize>,
    /// Every error-severity problem, in `fsim check` order.
    problems: Vec<BenchProblem>,
}

impl<'a> BenchRead<'a> {
    /// Reads `source`.
    pub fn new(source: &'a str) -> Self {
        let mut read = BenchRead {
            names: Vec::new(),
            nets: HashMap::new(),
            defs: Vec::new(),
            outputs: Vec::new(),
            driver: Vec::new(),
            topo: Vec::new(),
            problems: Vec::new(),
        };
        for (i, raw) in source.lines().enumerate() {
            read.read_line(i + 1, raw);
        }
        read.check_structure();
        read
    }

    /// The name of `net`.
    pub fn name(&self, net: usize) -> &'a str {
        self.names[net]
    }

    /// The net called `name`, if the text mentions it.
    pub fn net(&self, name: &str) -> Option<usize> {
        self.nets.get(name).copied()
    }

    /// How many distinct nets the text mentions.
    pub fn num_nets(&self) -> usize {
        self.names.len()
    }

    /// Every definition, in source order.
    pub fn defs(&self) -> &[BenchDef] {
        &self.defs
    }

    /// The `OUTPUT` taps, in source order.
    pub fn outputs(&self) -> &[NetRef] {
        &self.outputs
    }

    /// The index in [`BenchRead::defs`] of the first definition of `net`,
    /// or `None` when nothing drives it.
    pub fn driver(&self, net: usize) -> Option<usize> {
        self.driver[net]
    }

    /// Every error-severity problem: the line problems (`S001`–`S003`) in
    /// line order, then `N005`, `N006`, `N002` and `N001` (cycles by the
    /// line of their earliest definition).
    pub fn problems(&self) -> &[BenchProblem] {
        &self.problems
    }

    fn mention(&mut self, name: &'a str, line: usize, col: usize) -> NetRef {
        let fresh = self.names.len();
        let net = *self.nets.entry(name).or_insert(fresh);
        if net == fresh {
            self.names.push(name);
        }
        NetRef { net, line, col }
    }

    fn problem(
        &mut self,
        rule: BenchRule,
        span: Option<(usize, usize)>,
        message: String,
        error: ParseBenchError,
    ) {
        self.problems.push(BenchProblem {
            rule,
            span,
            message,
            error,
        });
    }

    fn read_line(&mut self, line: usize, raw: &'a str) {
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            return;
        }
        // Every token is a slice of `raw`, so its column is its offset.
        let col = |token: &str| token.as_ptr() as usize - raw.as_ptr() as usize + 1;
        let syntax = || ParseBenchError::Syntax {
            line,
            col: col(text),
            text: raw.trim().to_owned(),
        };
        if let Some(name) = strip_directive(text, "INPUT") {
            let name = self.mention(name, line, col(name));
            self.defs.push(BenchDef {
                name,
                kind: DefKind::Input,
                fanin: Vec::new(),
            });
            return;
        }
        if let Some(name) = strip_directive(text, "OUTPUT") {
            let tap = self.mention(name, line, col(name));
            self.outputs.push(tap);
            return;
        }
        let Some((lhs, rhs)) = text.split_once('=') else {
            let message = format!("cannot parse {text:?}");
            return self.problem(
                BenchRule::Syntax,
                Some((line, col(text))),
                message,
                syntax(),
            );
        };
        let lhs = lhs.trim();
        let call = rhs.trim().strip_suffix(')').and_then(|r| r.split_once('('));
        let Some((func, args)) = call.filter(|_| !lhs.is_empty()) else {
            let message = format!("cannot parse {text:?}: expected name = FN(args)");
            return self.problem(
                BenchRule::Syntax,
                Some((line, col(text))),
                message,
                syntax(),
            );
        };
        let name = self.mention(lhs, line, col(lhs));
        let fanin: Vec<NetRef> = args
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(|a| self.mention(a, line, col(a)))
            .collect();
        let func = func.trim();
        let arity = fanin.len();
        let kind = if func.eq_ignore_ascii_case("DFF") {
            if arity != 1 {
                let message =
                    format!("flip-flop {lhs:?} must have exactly one D input, has {arity}");
                self.problem(
                    BenchRule::BadArity,
                    Some((line, col(func))),
                    message,
                    syntax(),
                );
            }
            DefKind::Dff
        } else if let Ok(f) = func.parse::<GateFn>() {
            let message = if f.is_unary() && arity != 1 {
                let func = func.to_uppercase();
                Some(format!(
                    "{func} gate {lhs:?} must have exactly one input, has {arity}"
                ))
            } else if arity == 0 {
                Some(format!("gate {lhs:?} has no inputs"))
            } else if arity > MAX_FANIN {
                Some(format!(
                    "gate {lhs:?} has {arity} inputs; at most {MAX_FANIN} are supported"
                ))
            } else {
                None
            };
            if let Some(message) = message {
                // An empty argument list is malformed text; a count the
                // function cannot take is the builder's `BadArity`.
                let error = if arity == 0 {
                    syntax()
                } else {
                    ParseBenchError::Circuit {
                        line,
                        col: col(lhs),
                        error: CircuitError::BadArity {
                            gate: lhs.to_owned(),
                            function: f,
                            arity,
                        },
                    }
                };
                self.problem(BenchRule::BadArity, Some((line, col(func))), message, error);
            }
            DefKind::Gate(Some(f))
        } else {
            let error = ParseBenchError::UnknownGate {
                line,
                col: col(func),
                name: func.to_owned(),
            };
            let message = format!("unknown gate type {func:?}");
            self.problem(
                BenchRule::UnknownGate,
                Some((line, col(func))),
                message,
                error,
            );
            DefKind::Gate(None)
        };
        self.defs.push(BenchDef { name, kind, fanin });
    }

    /// The whole-netlist problems, over interned nets: second drivers,
    /// missing I/O, undriven references and combinational cycles.
    fn check_structure(&mut self) {
        let mut driver = vec![None; self.names.len()];
        for (i, d) in self.defs.iter().enumerate() {
            let NetRef { net, line, col } = d.name;
            let Some(first) = driver[net] else {
                driver[net] = Some(i);
                continue;
            };
            let name = self.names[net];
            self.problems.push(BenchProblem {
                rule: BenchRule::Redefined,
                span: Some((line, col)),
                message: format!(
                    "net {name:?} is already driven by the definition at line {}",
                    self.defs[first].name.line
                ),
                error: ParseBenchError::Redefined {
                    line,
                    col,
                    name: name.to_owned(),
                },
            });
        }
        self.driver = driver;

        if !self.defs.iter().any(|d| d.kind == DefKind::Input) {
            let error = ParseBenchError::Circuit {
                line: 0,
                col: 1,
                error: CircuitError::NoInputs,
            };
            let message = "netlist has no primary inputs".to_owned();
            self.problem(BenchRule::MissingIo, None, message, error);
        }
        if self.outputs.is_empty() {
            let error = ParseBenchError::Circuit {
                line: 0,
                col: 1,
                error: CircuitError::NoOutputs,
            };
            let message = "netlist has no primary outputs".to_owned();
            self.problem(BenchRule::MissingIo, None, message, error);
        }

        // One finding per undriven net, at its first reference: gate and
        // flip-flop inputs in definition order, then the output taps.
        let mut reported = vec![false; self.names.len()];
        let references = self.defs.iter().flat_map(|d| &d.fanin).chain(&self.outputs);
        for &NetRef { net, line, col } in references {
            if self.driver[net].is_some() || std::mem::replace(&mut reported[net], true) {
                continue;
            }
            let name = self.names[net];
            self.problems.push(BenchProblem {
                rule: BenchRule::Undriven,
                span: Some((line, col)),
                message: format!("net {name:?} is referenced but never driven"),
                error: ParseBenchError::Undefined {
                    line,
                    col,
                    name: name.to_owned(),
                },
            });
        }

        // Definitions are in line order: a cycle's lowest index is its
        // earliest line, and cycles are listed by it.
        let (topo, mut cycles) = combinational_components(&self.defs, &self.driver);
        cycles.sort_unstable_by_key(|cycle| cycle.iter().min().copied());
        for cycle in cycles {
            let Some(&first) = cycle.iter().min() else {
                continue;
            };
            let mut names: Vec<&str> = cycle
                .iter()
                .map(|&i| self.names[self.defs[i].name.net])
                .collect();
            names.sort_unstable();
            let shown = if names.len() > 8 {
                format!("{} ... ({} gates)", names[..8].join(" -> "), names.len())
            } else {
                names.join(" -> ")
            };
            let NetRef { net, line, col } = self.defs[first].name;
            let error = ParseBenchError::Circuit {
                line,
                col,
                error: CircuitError::CombinationalCycle(self.names[net].to_owned()),
            };
            let message = format!("combinational cycle with no flip-flop: {shown}");
            self.problem(BenchRule::Cycle, Some((line, 1)), message, error);
        }
        self.topo = topo;
    }

    /// Builds the circuit, or returns the first problem.
    ///
    /// Sources (inputs and flip-flops) take the first ids, in definition
    /// order. Combinational gates follow, sorted by (sweep, definition
    /// index): a gate's sweep is the largest `sweep(f)` over its fanins `f`,
    /// plus 1 where `f` is defined after the gate, and at least 1. This is
    /// the order in which repeated sweeps over the definitions would first
    /// find each gate's fanins built, so `GateId`s, and with them fault
    /// numbering, do not depend on how the reader resolves names.
    ///
    /// # Errors
    ///
    /// The first of [`BenchRead::problems`].
    pub fn build(&self, name: &str) -> Result<(Circuit, BenchProvenance), ParseBenchError> {
        if let Some(problem) = self.problems.first() {
            return Err(problem.error.clone());
        }
        let mut sweep = vec![0usize; self.defs.len()];
        for &i in &self.topo {
            sweep[i] = self.defs[i]
                .fanin
                .iter()
                .filter_map(|r| self.driver[r.net])
                .map(|j| sweep[j] + usize::from(j > i))
                .fold(1, usize::max);
        }
        let mut gates = self.topo.clone();
        gates.sort_unstable_by_key(|&i| (sweep[i], i));
        let sources =
            (0..self.defs.len()).filter(|&i| !matches!(self.defs[i].kind, DefKind::Gate(_)));

        let at = |r: NetRef| {
            move |error: CircuitError| ParseBenchError::Circuit {
                line: r.line,
                col: r.col,
                error,
            }
        };
        let mut b = CircuitBuilder::new(name);
        let mut ids = vec![GateId(0); self.names.len()];
        let mut lines = Vec::with_capacity(self.defs.len());
        for i in sources.chain(gates) {
            let d = &self.defs[i];
            let signal = self.names[d.name.net];
            ids[d.name.net] = match d.kind {
                DefKind::Input => b.input(signal),
                DefKind::Dff => b.dff(signal),
                DefKind::Gate(f) => {
                    let f = f.expect("an unknown gate function is a problem");
                    let fanin = d.fanin.iter().map(|r| ids[r.net]).collect();
                    b.gate(signal, f, fanin).map_err(at(d.name))?
                }
            };
            lines.push(d.name.line);
        }
        for d in &self.defs {
            if let (DefKind::Dff, [pin]) = (d.kind, d.fanin.as_slice()) {
                b.set_dff_input(ids[d.name.net], ids[pin.net])
                    .map_err(at(d.name))?;
            }
        }
        for tap in &self.outputs {
            b.output(ids[tap.net]);
        }
        let circuit = b.finish().map_err(|error| ParseBenchError::Circuit {
            line: 0,
            col: 1,
            error,
        })?;
        Ok((circuit, BenchProvenance { lines }))
    }
}

/// The combinational graph over first definitions of gates (inputs and
/// flip-flops break every path), by Kosaraju: its nodes in topological
/// order (drivers first, valid when acyclic) and its cycles (components of
/// more than one gate, or a gate that reads itself).
fn combinational_components(
    defs: &[BenchDef],
    driver: &[Option<usize>],
) -> (Vec<usize>, Vec<Vec<usize>>) {
    let comb: Vec<usize> = (0..defs.len())
        .filter(|&i| {
            matches!(defs[i].kind, DefKind::Gate(_)) && driver[defs[i].name.net] == Some(i)
        })
        .collect();
    let mut node = vec![usize::MAX; defs.len()];
    for (k, &i) in comb.iter().enumerate() {
        node[i] = k;
    }
    // The combinational fanin of node k, as node indices.
    let fanin = |k: usize| {
        defs[comb[k]]
            .fanin
            .iter()
            .filter_map(|r| driver[r.net])
            .map(|j| node[j])
            .filter(|&kj| kj != usize::MAX)
    };
    let n = comb.len();
    let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
    for k in 0..n {
        for kj in fanin(k) {
            fanout[kj].push(k);
        }
    }
    // Pass 1: finish order on the driver -> reader graph.
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
            if *cursor < fanout[v].len() {
                let w = fanout[v][*cursor];
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
    let mut assigned = vec![false; n];
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    for &start in order.iter().rev() {
        if std::mem::replace(&mut assigned[start], true) {
            continue;
        }
        let mut members = Vec::new();
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            members.push(comb[v]);
            for w in fanin(v) {
                if !std::mem::replace(&mut assigned[w], true) {
                    stack.push(w);
                }
            }
        }
        let self_loop = || fanin(start).any(|kj| kj == start);
        if members.len() > 1 || self_loop() {
            cycles.push(members);
        }
    }
    let topo = order.iter().rev().map(|&k| comb[k]).collect();
    (topo, cycles)
}

fn strip_directive<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = text.strip_prefix(keyword)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Serializes a circuit to `.bench` text.
///
/// The output parses back to an identical circuit (names, kinds, pin order,
/// and output taps are preserved).
///
/// # Examples
///
/// ```
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let c = cfs_netlist::parse_bench("inv", src)?;
/// let round = cfs_netlist::write_bench(&c);
/// let c2 = cfs_netlist::parse_bench("inv", &round)?;
/// assert_eq!(c.num_comb_gates(), c2.num_comb_gates());
/// # Ok::<(), cfs_netlist::ParseBenchError>(())
/// ```
pub fn write_bench(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", circuit.name()));
    for &id in circuit.inputs() {
        out.push_str(&format!("INPUT({})\n", circuit.gate(id).name()));
    }
    for &id in circuit.outputs() {
        out.push_str(&format!("OUTPUT({})\n", circuit.gate(id).name()));
    }
    for gate in circuit.gates() {
        match gate.kind() {
            GateKind::Input => {}
            GateKind::Dff => {
                let d = circuit.gate(gate.fanin()[0]).name();
                out.push_str(&format!("{} = DFF({})\n", gate.name(), d));
            }
            GateKind::Comb(f) => {
                let args: Vec<&str> = gate
                    .fanin()
                    .iter()
                    .map(|&src| circuit.gate(src).name())
                    .collect();
                out.push_str(&format!(
                    "{} = {}({})\n",
                    gate.name(),
                    f.name().to_uppercase(),
                    args.join(", ")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::S27_BENCH;

    #[test]
    fn parses_s27() {
        let c = parse_bench("s27", S27_BENCH).unwrap();
        assert_eq!(c.num_inputs(), 4);
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.num_dffs(), 3);
        assert_eq!(c.num_comb_gates(), 10);
    }

    /// Provenance-free structural equality: same node names, kinds, fanin
    /// name sequences, and output tap names.
    fn assert_same_structure(a: &Circuit, b: &Circuit) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        for g in a.gates() {
            let id2 = b.find(g.name()).unwrap_or_else(|| panic!("{}", g.name()));
            let g2 = b.gate(id2);
            assert_eq!(g.kind(), g2.kind(), "{}", g.name());
            let names1: Vec<&str> = g.fanin().iter().map(|&i| a.gate(i).name()).collect();
            let names2: Vec<&str> = g2.fanin().iter().map(|&i| b.gate(i).name()).collect();
            assert_eq!(names1, names2, "{}", g.name());
        }
        let outs1: Vec<&str> = a.outputs().iter().map(|&i| a.gate(i).name()).collect();
        let outs2: Vec<&str> = b.outputs().iter().map(|&i| b.gate(i).name()).collect();
        assert_eq!(outs1, outs2);
    }

    #[test]
    fn round_trips_s27() {
        let c = parse_bench("s27", S27_BENCH).unwrap();
        let text = write_bench(&c);
        let c2 = parse_bench("s27", &text).unwrap();
        assert_same_structure(&c, &c2);
        // Serialization is idempotent once the text has round-tripped.
        assert_eq!(write_bench(&c2), text);
    }

    #[test]
    fn round_trips_generated_benchmarks() {
        for name in ["s298g", "s641g"] {
            let c = crate::generate::benchmark(name).unwrap();
            let text = write_bench(&c);
            let c2 = parse_bench(name, &text).unwrap();
            assert_same_structure(&c, &c2);
            assert_eq!(write_bench(&c2), text, "{name}");
        }
    }

    #[test]
    fn provenance_maps_gates_to_defining_lines() {
        let src = "# hdr\nINPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, q)\n";
        let (c, prov) = parse_bench_with_provenance("p", src).unwrap();
        assert_eq!(prov.line_of(c.find("a").unwrap()), Some(2));
        assert_eq!(prov.line_of(c.find("q").unwrap()), Some(4));
        assert_eq!(prov.line_of(c.find("y").unwrap()), Some(5));
    }

    #[test]
    fn forward_references_resolve() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(m, a)\nm = NOT(a)\n";
        let c = parse_bench("fwd", src).unwrap();
        assert_eq!(c.num_comb_gates(), 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "# header\n\nINPUT(a) # trailing\nOUTPUT(y)\ny = BUF(a)\n";
        assert!(parse_bench("c", src).is_ok());
    }

    #[test]
    fn dangling_reference_is_reported_with_position() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        let err = parse_bench("d", src).unwrap_err();
        assert!(
            matches!(
                &err,
                ParseBenchError::Undefined { line: 3, col: 12, name } if name == "ghost"
            ),
            "{err:?}"
        );
        assert_eq!(err.line(), Some(3));
        assert_eq!(err.column(), Some(12));
    }

    #[test]
    fn names_are_located_where_they_are_written() {
        // `g` also starts the line, and `T` also ends `INPUT`.
        let src = "INPUT(a)\nOUTPUT(gh)\ngh = AND(a, g)\n";
        let err = parse_bench("d", src).unwrap_err();
        assert_eq!(err.to_string(), "line 3:13: undefined signal \"g\"");
        let read = BenchRead::new("INPUT(a)\nINPUT(T)\nOUTPUT(y)\ny = NOT(a)\n");
        let t = &read.defs()[1].name;
        assert_eq!((read.name(t.net), t.line, t.col), ("T", 2, 7));
        let err = parse_bench("r", "INPUT(T)\nINPUT(T)\nOUTPUT(T)\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2:7: signal \"T\" redefined");
    }

    #[test]
    fn the_first_problem_in_check_order_is_returned() {
        // A redefinition on line 4 and a syntax error on line 5: line
        // problems come first.
        let src = "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\nwhat\n";
        let err = parse_bench("m", src).unwrap_err();
        assert!(
            matches!(err, ParseBenchError::Syntax { line: 5, .. }),
            "{err:?}"
        );
        // The cycle error names the cycle's gate on the first line, not
        // the gate downstream of it defined earlier.
        let src = "INPUT(a)\nOUTPUT(o)\no = NOT(c1)\nc1 = BUF(c2)\nc2 = BUF(c1)\n";
        let err = parse_bench("c", src).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4:1: invalid circuit: combinational cycle through gate \"c1\""
        );
        // Cycles are listed by their earliest line: lines 4–5 before 6–7.
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, m, p)\nm = AND(a, n)\nn = NOT(m)\n\
                   p = AND(a, q)\nq = NOT(p)\n";
        assert_eq!(parse_bench("c", src).unwrap_err().line(), Some(4));
    }

    #[test]
    fn dangling_output_is_reported_with_position() {
        let src = "INPUT(a)\nOUTPUT(ghost)\ny = NOT(a)\n";
        let err = parse_bench("d", src).unwrap_err();
        assert!(
            matches!(
                &err,
                ParseBenchError::Undefined {
                    line: 2,
                    col: 8,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn dangling_dff_input_is_reported_with_position() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(ghost)\n";
        let err = parse_bench("d", src).unwrap_err();
        assert!(
            matches!(
                &err,
                ParseBenchError::Undefined {
                    line: 3,
                    col: 9,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_gate_is_reported() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n";
        let err = parse_bench("u", src).unwrap_err();
        assert!(matches!(
            err,
            ParseBenchError::UnknownGate {
                line: 3,
                col: 5,
                ..
            }
        ));
        assert!(err.to_string().contains("MAJ"));
    }

    #[test]
    fn redefinition_is_reported() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n";
        let err = parse_bench("r", src).unwrap_err();
        assert!(matches!(
            err,
            ParseBenchError::Redefined {
                line: 4,
                col: 1,
                ..
            }
        ));
    }

    #[test]
    fn combinational_cycle_is_reported_with_line() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUF(y)\n";
        let err = parse_bench("cyc", src).unwrap_err();
        assert!(
            matches!(
                &err,
                ParseBenchError::Circuit {
                    line,
                    error: CircuitError::CombinationalCycle(_),
                    ..
                } if *line > 0
            ),
            "{err:?}"
        );
    }

    #[test]
    fn bad_arity_is_reported_with_line() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n";
        let err = parse_bench("ar", src).unwrap_err();
        assert!(
            matches!(
                &err,
                ParseBenchError::Circuit {
                    line: 4,
                    error: CircuitError::BadArity { .. },
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn missing_io_has_no_location() {
        let err = parse_bench("io", "INPUT(a)\nb = NOT(a)\n").unwrap_err();
        assert!(matches!(
            &err,
            ParseBenchError::Circuit {
                line: 0,
                error: CircuitError::NoOutputs,
                ..
            }
        ));
        assert_eq!(err.line(), None);
        assert_eq!(err.column(), None);
    }

    #[test]
    fn dff_breaks_cycles() {
        let src = "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, q)\n";
        let c = parse_bench("seq", src).unwrap();
        assert_eq!(c.num_dffs(), 1);
    }

    #[test]
    fn garbage_line_is_syntax_error() {
        let err = parse_bench("g", "INPUT(a)\nwhat is this\n").unwrap_err();
        assert!(matches!(
            err,
            ParseBenchError::Syntax {
                line: 2,
                col: 1,
                ..
            }
        ));
    }
}
