//! The diagnostic vocabulary: stable rule codes, severities, source spans,
//! and the report container with text and JSON renderers.

use std::fmt;

/// Every rule the static analyzer can flag, with a stable code that CI
/// configuration and tests key on.
///
/// Codes are grouped by layer: `S` (source text), `N` (netlist structure),
/// `F` (fault model), `M` (macro extraction), `P` (shard partition),
/// `I` (change impact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleCode {
    /// `S001` — a line of the `.bench` source cannot be parsed.
    SyntaxError,
    /// `S002` — an unknown gate function name.
    UnknownGate,
    /// `S003` — a gate with an illegal input count (unary with several
    /// inputs, `DFF` without exactly one).
    BadArity,
    /// `N001` — a combinational cycle (a feedback path with no flip-flop);
    /// zero-delay levelized propagation cannot settle it.
    CombinationalCycle,
    /// `N002` — a referenced net with no driver.
    UndrivenNet,
    /// `N003` — a driven net that nothing consumes (warning; info for an
    /// unused primary input).
    DanglingFanout,
    /// `N004` — a gate from which no primary output is reachable.
    UnreachableGate,
    /// `N005` — a net with two drivers (two definitions of one name).
    MultiplyDrivenNet,
    /// `N006` — the netlist lacks primary inputs or primary outputs.
    MissingIo,
    /// `F001` — the collapsed fault list is unsound: a structural fault
    /// maps to no class, to an out-of-range class, or to a class whose
    /// representative is not one of its members.
    UncollapsibleFault,
    /// `M001` — an illegal macro region: a cell that is not a fanout-free
    /// region (internal fanout, foreign support, over-cap support) or
    /// gates left outside every cell.
    IllegalMacroRegion,
    /// `P001` — a shard partition that is not an exact cover of the fault
    /// list or violates the balance bound.
    NonExactCoverShardPartition,
    /// `N007` — a net proven constant by three-valued constant propagation
    /// run to a sequential fixpoint (info: legal, but its logic is dead).
    ConstantNet,
    /// `N008` — a net that can never settle to one of its binary values
    /// (or to any binary value at all) from the all-`X` initial state
    /// under binary primary inputs (info).
    NeverBinaryNet,
    /// `F002` — a fault statically proven undetectable: its excitation
    /// value never appears on the faulted net, or no primary output is
    /// reachable from its gate (info; `fsim sim --prune` drops it).
    StaticallyUntestableFault,
    /// `F003` — the structural `N004` reachability pass and the
    /// fault-universe observability analysis disagree about a node. This
    /// is an internal checker inconsistency, never a user error.
    ObservabilityMismatch,
    /// `F004` — a fault whose mandatory assignments (excitation plus
    /// non-controlling side values at every post-dominator toward an
    /// observable output) are contradictory under the implication closure
    /// within the unrolled time-frame window (info; `--prune --learn`
    /// drops it).
    ConflictUntestableFault,
    /// `F005` — an implication-implied dominance: whenever one fault is
    /// excited and propagated, the implication closure forces another
    /// fault's detection conditions too. Analyze-only — dominance is not
    /// behaviour-preserving, so it never prunes (info).
    ImplicationDominance,
    /// `I001` — a netlist edit whose affected cone reaches no primary
    /// output in either circuit: the diff is non-empty but every fault's
    /// fate transfers verbatim from the baseline (info).
    ConeDisconnectedEdit,
    /// `I002` — a netlist edit that invalidates the baseline report
    /// (primary inputs changed, or the baseline's pattern count/hash does
    /// not match the replayed patterns), so no fate may transfer.
    BaselineInvalidated,
    /// `I003` — a transferred fault's fate disagrees with a cold full
    /// re-simulation of the edited circuit. This is an internal
    /// soundness violation of the impact analysis, never a user error.
    FateTransferMismatch,
}

impl RuleCode {
    /// Every rule code, in display order.
    pub const ALL: [RuleCode; 21] = [
        RuleCode::SyntaxError,
        RuleCode::UnknownGate,
        RuleCode::BadArity,
        RuleCode::CombinationalCycle,
        RuleCode::UndrivenNet,
        RuleCode::DanglingFanout,
        RuleCode::UnreachableGate,
        RuleCode::MultiplyDrivenNet,
        RuleCode::MissingIo,
        RuleCode::ConstantNet,
        RuleCode::NeverBinaryNet,
        RuleCode::UncollapsibleFault,
        RuleCode::StaticallyUntestableFault,
        RuleCode::ObservabilityMismatch,
        RuleCode::ConflictUntestableFault,
        RuleCode::ImplicationDominance,
        RuleCode::IllegalMacroRegion,
        RuleCode::NonExactCoverShardPartition,
        RuleCode::ConeDisconnectedEdit,
        RuleCode::BaselineInvalidated,
        RuleCode::FateTransferMismatch,
    ];

    /// The stable code string (`"N001"`).
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::SyntaxError => "S001",
            RuleCode::UnknownGate => "S002",
            RuleCode::BadArity => "S003",
            RuleCode::CombinationalCycle => "N001",
            RuleCode::UndrivenNet => "N002",
            RuleCode::DanglingFanout => "N003",
            RuleCode::UnreachableGate => "N004",
            RuleCode::MultiplyDrivenNet => "N005",
            RuleCode::MissingIo => "N006",
            RuleCode::ConstantNet => "N007",
            RuleCode::NeverBinaryNet => "N008",
            RuleCode::UncollapsibleFault => "F001",
            RuleCode::StaticallyUntestableFault => "F002",
            RuleCode::ObservabilityMismatch => "F003",
            RuleCode::ConflictUntestableFault => "F004",
            RuleCode::ImplicationDominance => "F005",
            RuleCode::IllegalMacroRegion => "M001",
            RuleCode::NonExactCoverShardPartition => "P001",
            RuleCode::ConeDisconnectedEdit => "I001",
            RuleCode::BaselineInvalidated => "I002",
            RuleCode::FateTransferMismatch => "I003",
        }
    }

    /// The kebab-case rule name shown next to the code.
    pub fn slug(self) -> &'static str {
        match self {
            RuleCode::SyntaxError => "syntax-error",
            RuleCode::UnknownGate => "unknown-gate",
            RuleCode::BadArity => "bad-arity",
            RuleCode::CombinationalCycle => "combinational-cycle",
            RuleCode::UndrivenNet => "undriven-net",
            RuleCode::DanglingFanout => "dangling-fanout",
            RuleCode::UnreachableGate => "unreachable-gate",
            RuleCode::MultiplyDrivenNet => "multiply-driven-net",
            RuleCode::MissingIo => "missing-io",
            RuleCode::ConstantNet => "constant-net",
            RuleCode::NeverBinaryNet => "never-binary-net",
            RuleCode::UncollapsibleFault => "uncollapsible-fault",
            RuleCode::StaticallyUntestableFault => "statically-untestable-fault",
            RuleCode::ObservabilityMismatch => "observability-mismatch",
            RuleCode::ConflictUntestableFault => "conflict-untestable-fault",
            RuleCode::ImplicationDominance => "implication-dominance",
            RuleCode::IllegalMacroRegion => "illegal-macro-region",
            RuleCode::NonExactCoverShardPartition => "non-exact-cover-shard-plan",
            RuleCode::ConeDisconnectedEdit => "cone-disconnected-edit",
            RuleCode::BaselineInvalidated => "baseline-invalidated",
            RuleCode::FateTransferMismatch => "fate-transfer-mismatch",
        }
    }

    /// The severity the rule carries by default ([`Report::add`] uses it;
    /// a few sites downgrade, e.g. `N003` on an unused primary input).
    pub fn default_severity(self) -> Severity {
        match self {
            RuleCode::DanglingFanout | RuleCode::UnreachableGate => Severity::Warning,
            RuleCode::ConstantNet
            | RuleCode::NeverBinaryNet
            | RuleCode::StaticallyUntestableFault
            | RuleCode::ConflictUntestableFault
            | RuleCode::ImplicationDominance
            | RuleCode::ConeDisconnectedEdit => Severity::Info,
            _ => Severity::Error,
        }
    }

    /// A one-line description of the rule, shown by `fsim rules`. This is
    /// the single registry the CLI and docs draw from, so descriptions
    /// cannot drift from the implementation.
    pub fn description(self) -> &'static str {
        match self {
            RuleCode::SyntaxError => "a line of the .bench source cannot be parsed",
            RuleCode::UnknownGate => "unknown gate function name",
            RuleCode::BadArity => "gate with an illegal input count",
            RuleCode::CombinationalCycle => "combinational feedback path with no flip-flop",
            RuleCode::UndrivenNet => "referenced net with no driver",
            RuleCode::DanglingFanout => "driven net that nothing consumes",
            RuleCode::UnreachableGate => "gate from which no primary output is reachable",
            RuleCode::MultiplyDrivenNet => "net with two drivers",
            RuleCode::MissingIo => "netlist lacks primary inputs or outputs",
            RuleCode::ConstantNet => "net proven constant by ternary constant propagation",
            RuleCode::NeverBinaryNet => "net that can never settle to one of its binary values",
            RuleCode::UncollapsibleFault => "collapsed fault list is structurally unsound",
            RuleCode::StaticallyUntestableFault => {
                "fault proven undetectable by constant propagation or observability"
            }
            RuleCode::ObservabilityMismatch => {
                "internal disagreement between the two observability passes"
            }
            RuleCode::ConflictUntestableFault => {
                "fault whose mandatory assignments conflict under the implication closure"
            }
            RuleCode::ImplicationDominance => {
                "implication-implied fault dominance (analyze-only, never prunes)"
            }
            RuleCode::IllegalMacroRegion => "macro cell that is not a legal fanout-free region",
            RuleCode::NonExactCoverShardPartition => {
                "shard partition that is not an exact balanced cover of the fault list"
            }
            RuleCode::ConeDisconnectedEdit => {
                "netlist edit whose affected cone reaches no primary output"
            }
            RuleCode::BaselineInvalidated => {
                "netlist edit that invalidates the baseline detection report"
            }
            RuleCode::FateTransferMismatch => {
                "internal soundness violation of incremental fate transfer"
            }
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.slug())
    }
}

/// How bad a finding is. `Error` findings make simulation refuse to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — worth knowing, never blocks.
    Info,
    /// Suspicious but simulatable.
    Warning,
    /// The model is unsound; simulation would crash or lie.
    Error,
}

impl Severity {
    /// Lowercase display/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A position in the `.bench` source the finding points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (1 when only the line is known).
    pub col: usize,
}

/// One finding: a rule, a severity, an optional source span, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub code: RuleCode,
    /// How bad it is.
    pub severity: Severity,
    /// Where in the source, when the finding maps to a line.
    pub span: Option<Span>,
    /// What happened, with names.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(s) => write!(
                f,
                "{}: {} [{}] line {}:{}: {}",
                self.severity,
                self.code.code(),
                self.code.slug(),
                s.line,
                s.col,
                self.message
            ),
            None => write!(
                f,
                "{}: {} [{}] {}",
                self.severity,
                self.code.code(),
                self.code.slug(),
                self.message
            ),
        }
    }
}

/// The findings of one analysis run over one subject (a netlist file or a
/// built-in circuit).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The subject's name (circuit or file stem).
    pub subject: String,
    /// All findings, in the order the analyses produced them.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        Report {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Records a finding at the rule's default severity.
    pub fn add(&mut self, code: RuleCode, span: Option<Span>, message: impl Into<String>) {
        self.add_with(code, code.default_severity(), span, message);
    }

    /// Records a finding with an explicit severity.
    pub fn add_with(
        &mut self,
        code: RuleCode,
        severity: Severity,
        span: Option<Span>,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            span,
            message: message.into(),
        });
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any error-severity finding exists (the simulation gate).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The findings with `code`.
    pub fn with_code(&self, code: RuleCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Human-readable rendering: one line per finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} info\n",
            self.subject,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable rendering: one JSON object with the subject,
    /// per-severity counts, and the findings array. Stable key order.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"subject\":");
        push_json_string(&mut out, &self.subject);
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{},\"infos\":{},\"diagnostics\":[",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"rule\":\"{}\",\"severity\":\"{}\",",
                d.code.code(),
                d.code.slug(),
                d.severity.name()
            ));
            match d.span {
                Some(s) => out.push_str(&format!("\"line\":{},\"col\":{},", s.line, s.col)),
                None => out.push_str("\"line\":null,\"col\":null,"),
            }
            out.push_str("\"message\":");
            push_json_string(&mut out, &d.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `s` as a JSON string literal (quotes, backslashes, and control
/// characters escaped).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut codes: Vec<&str> = RuleCode::ALL.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), RuleCode::ALL.len());
        assert_eq!(RuleCode::CombinationalCycle.code(), "N001");
        assert_eq!(RuleCode::UncollapsibleFault.code(), "F001");
        assert_eq!(RuleCode::NonExactCoverShardPartition.code(), "P001");
        assert_eq!(RuleCode::ConeDisconnectedEdit.code(), "I001");
        assert_eq!(RuleCode::BaselineInvalidated.code(), "I002");
        assert_eq!(RuleCode::FateTransferMismatch.code(), "I003");
        assert_eq!(RuleCode::ConflictUntestableFault.code(), "F004");
        assert_eq!(RuleCode::ImplicationDominance.code(), "F005");
        assert_eq!(
            RuleCode::ConflictUntestableFault.default_severity(),
            Severity::Info
        );
        assert_eq!(
            RuleCode::ImplicationDominance.default_severity(),
            Severity::Info
        );
        for code in RuleCode::ALL {
            assert!(!code.description().is_empty());
        }
        assert_eq!(
            RuleCode::ConeDisconnectedEdit.default_severity(),
            Severity::Info
        );
        assert_eq!(
            RuleCode::FateTransferMismatch.default_severity(),
            Severity::Error
        );
    }

    #[test]
    fn report_counts_and_gates() {
        let mut r = Report::new("t");
        assert!(!r.has_errors());
        r.add(
            RuleCode::DanglingFanout,
            Some(Span { line: 3, col: 1 }),
            "gate g drives nothing",
        );
        assert!(!r.has_errors(), "warnings do not gate");
        r.add(RuleCode::UndrivenNet, None, "net x has no driver");
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = Report::new("q\"uote");
        r.add_with(
            RuleCode::SyntaxError,
            Severity::Error,
            Some(Span { line: 2, col: 7 }),
            "bad \"text\"\nhere",
        );
        let j = r.render_json();
        assert!(j.contains("\"subject\":\"q\\\"uote\""), "{j}");
        assert!(j.contains("\"line\":2,\"col\":7"), "{j}");
        assert!(j.contains("bad \\\"text\\\"\\nhere"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn text_rendering_names_the_rule() {
        let mut r = Report::new("c17");
        r.add(
            RuleCode::CombinationalCycle,
            Some(Span { line: 9, col: 1 }),
            "cycle through g1 -> g2 -> g1",
        );
        let t = r.render_text();
        assert!(
            t.contains("error: N001 [combinational-cycle] line 9:1"),
            "{t}"
        );
        assert!(t.contains("c17: 1 error(s)"), "{t}");
    }
}
