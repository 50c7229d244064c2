//! Property tests for the `cfs-check` static analyses on malformed
//! netlists: a clean generated circuit produces zero findings, and a
//! single seeded defect — a combinational cycle, an undriven net, or a
//! duplicate definition — is flagged exactly once under its own rule
//! code, never smeared across codes or reported per-reference. The
//! parser reads the text with the same reader, so it fails on the same
//! defect, at the line the check reports.

use proptest::prelude::*;

use cfs_check::{check_bench_source, Report, RuleCode, Severity};
use cfs_netlist::generate::{generate, CircuitSpec};
use cfs_netlist::{parse_bench, write_bench, CircuitError, ParseBenchError};

/// A small well-formed synchronous circuit, as `.bench` text.
fn clean_source(seed: u64, inputs: usize, dffs: usize, gates: usize) -> String {
    let spec = CircuitSpec::new(format!("cm{seed}"), inputs, 2, dffs, gates, 0x51ac + seed);
    write_bench(&generate(&spec))
}

fn errors_with(report: &cfs_check::Report, code: RuleCode) -> usize {
    report.with_code(code).count()
}

fn total_errors(report: &cfs_check::Report) -> usize {
    report.count(Severity::Error)
}

/// The line of the report's one finding under `code`.
fn line_of(report: &Report, code: RuleCode) -> Option<usize> {
    report.with_code(code).next()?.span.map(|s| s.line)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated circuits carry no error-severity findings. (Small random
    /// specs may leave a gate unreachable — a legitimate warning — but
    /// nothing that gates simulation; the named ISCAS-style benchmarks
    /// are asserted fully clean in `tests/check_examples.rs`.)
    #[test]
    fn clean_circuits_have_no_errors(
        seed in 0u64..1000,
        inputs in 3usize..8,
        dffs in 2usize..6,
        gates in 10usize..60,
    ) {
        let src = clean_source(seed, inputs, dffs, gates);
        let report = check_bench_source("clean", &src);
        prop_assert_eq!(
            total_errors(&report), 0,
            "unexpected errors:\n{}",
            report.render_text()
        );
        prop_assert!(parse_bench("clean", &src).is_ok());
    }

    /// Appending a two-gate combinational loop yields exactly one `N001`
    /// and no other error-severity findings.
    #[test]
    fn seeded_cycle_is_flagged_exactly_once(
        seed in 0u64..1000,
        gates in 10usize..40,
    ) {
        let mut src = clean_source(seed, 4, 3, gates);
        src.push_str("cyca = NOT(cycb)\ncycb = BUF(cyca)\n");
        let report = check_bench_source("cycle", &src);
        prop_assert_eq!(
            errors_with(&report, RuleCode::CombinationalCycle), 1,
            "{}", report.render_text()
        );
        prop_assert_eq!(total_errors(&report), 1, "{}", report.render_text());
        let err = parse_bench("cycle", &src).unwrap_err();
        prop_assert!(
            matches!(
                &err,
                ParseBenchError::Circuit { error: CircuitError::CombinationalCycle(_), .. }
            ),
            "{err:?}"
        );
        prop_assert_eq!(err.line(), line_of(&report, RuleCode::CombinationalCycle));
    }

    /// Referencing a never-defined net yields exactly one `N002`, even
    /// when the ghost net is read twice.
    #[test]
    fn seeded_undriven_net_is_flagged_exactly_once(
        seed in 0u64..1000,
        gates in 10usize..40,
    ) {
        let mut src = clean_source(seed, 4, 3, gates);
        src.push_str("gdeada = NOT(ghostnet)\ngdeadb = BUF(ghostnet)\n");
        let report = check_bench_source("undriven", &src);
        prop_assert_eq!(
            errors_with(&report, RuleCode::UndrivenNet), 1,
            "{}", report.render_text()
        );
        prop_assert_eq!(total_errors(&report), 1, "{}", report.render_text());
        let err = parse_bench("undriven", &src).unwrap_err();
        prop_assert!(
            matches!(&err, ParseBenchError::Undefined { name, .. } if name == "ghostnet"),
            "{err:?}"
        );
        prop_assert_eq!(err.line(), line_of(&report, RuleCode::UndrivenNet));
    }

    /// Duplicating one definition line yields exactly one `N005`.
    #[test]
    fn seeded_duplicate_definition_is_flagged_exactly_once(
        seed in 0u64..1000,
        gates in 10usize..40,
        pick in any::<prop::sample::Index>(),
    ) {
        let src = clean_source(seed, 4, 3, gates);
        let defs: Vec<&str> = src
            .lines()
            .filter(|l| l.contains('=') && !l.contains("DFF"))
            .collect();
        prop_assume!(!defs.is_empty());
        let dup = defs[pick.index(defs.len())];
        let mut src = src.clone();
        src.push_str(dup);
        src.push('\n');
        let report = check_bench_source("dup", &src);
        prop_assert_eq!(
            errors_with(&report, RuleCode::MultiplyDrivenNet), 1,
            "{}", report.render_text()
        );
        prop_assert_eq!(total_errors(&report), 1, "{}", report.render_text());
        let err = parse_bench("dup", &src).unwrap_err();
        prop_assert!(matches!(&err, ParseBenchError::Redefined { .. }), "{err:?}");
        prop_assert_eq!(err.line(), line_of(&report, RuleCode::MultiplyDrivenNet));
    }
}
