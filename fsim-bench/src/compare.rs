//! `--compare A.json B.json`: judges run B against run A with the bounds
//! `BENCHMARK.json` fixes, one row per workload.

use std::fmt;

use cfs_telemetry::JsonValue;

use crate::stats::{iqr, median};

/// The verdict for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Compares B's samples against A's. `bound` is the share of A's median
/// by which B may be worse. When either side's IQR, as a share of its
/// median, exceeds the bound the pair is unresolved, unless every B sample
/// beats every A sample.
///
/// # Panics
///
/// Panics if either side has no samples.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let spread = |v: &[f64], m: f64| if m == 0.0 { 0.0 } else { iqr(v) / m.abs() };
    let worse_by = if lower_is_better { mb - ma } else { ma - mb };
    if spread(a, ma).max(spread(b, mb)) > bound {
        let b_beats_all = |x: f64| {
            a.iter()
                .all(|&y| if lower_is_better { x < y } else { x > y })
        };
        return if b.iter().all(|&x| b_beats_all(x)) {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Failure share: any increase is a regression.
pub fn failed_verdict(a: (u64, u64), b: (u64, u64)) -> Verdict {
    let frac = |(attempted, failed): (u64, u64)| failed as f64 / attempted.max(1) as f64;
    if frac(b) > frac(a) {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// `"better": "lower"`.
    pub lower_is_better: bool,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
pub fn rules(benchmark: &JsonValue) -> Result<Vec<Rule>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or(format!("BENCHMARK.json: metric without {k}"))
            };
            Ok(Rule {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
                lower_is_better: field("better")?.as_str() == Some("lower"),
            })
        })
        .collect()
}

/// One workload's verdicts: `(metric, verdict)` per rule plus
/// `failed_frac`.
pub type Row = (String, Vec<(String, Verdict)>);

/// The verdict rows, one per workload present in both runs.
pub fn compare(rules: &[Rule], a: &JsonValue, b: &JsonValue) -> Result<Vec<Row>, String> {
    let workloads = |doc: &JsonValue| match doc.get("workloads") {
        Some(JsonValue::Obj(map)) => Ok(map.clone()),
        _ => Err("results file has no workloads object".to_owned()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else { continue };
        let mut row = Vec::new();
        for rule in rules {
            let (sa, sb) = (samples(ra, &rule.name)?, samples(rb, &rule.name)?);
            row.push((
                rule.name.clone(),
                verdict(&sa, &sb, rule.bound, rule.lower_is_better),
            ));
        }
        row.push((
            "failed_frac".to_owned(),
            failed_verdict(counts(ra)?, counts(rb)?),
        ));
        rows.push((name.clone(), row));
    }
    if rows.is_empty() {
        return Err("the two results files share no workload".to_owned());
    }
    Ok(rows)
}

fn samples(workload: &JsonValue, metric: &str) -> Result<Vec<f64>, String> {
    let v: Vec<f64> = workload
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(JsonValue::as_arr)
        .ok_or(format!("results file lacks samples of {metric}"))?
        .iter()
        .filter_map(JsonValue::as_f64)
        .collect();
    if v.is_empty() {
        return Err(format!("no samples of {metric}"));
    }
    Ok(v)
}

fn counts(workload: &JsonValue) -> Result<(u64, u64), String> {
    let field = |k: &str| {
        workload
            .get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("results file lacks {k}"))
    };
    Ok((field("attempted")?, field("failed")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within 10 %.
        assert_eq!(
            verdict(&a, &[1.05, 1.06, 1.04, 1.05, 1.05], 0.10, true),
            Verdict::Same
        );
        // 20 % slower with tight spreads.
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.20, 1.22], 0.10, true),
            Verdict::Worse
        );
        // Faster is never worse.
        assert_eq!(
            verdict(&a, &[0.50, 0.51, 0.49, 0.50, 0.50], 0.10, true),
            Verdict::Same
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.80], 0.10, false),
            Verdict::Worse
        );
        // Noisy B: IQR/median above the bound.
        let noisy = [0.7, 1.3, 1.0, 0.8, 1.25];
        assert_eq!(verdict(&a, &noisy, 0.10, true), Verdict::Unresolved);
        // Noisy, but every B run beats every A run.
        let noisy_fast = [0.5, 0.9, 0.6, 0.55, 0.85];
        assert_eq!(verdict(&a, &noisy_fast, 0.10, true), Verdict::Same);
    }

    #[test]
    fn any_failure_increase_is_worse() {
        assert_eq!(failed_verdict((10, 0), (12, 0)), Verdict::Same);
        assert_eq!(failed_verdict((10, 0), (10, 1)), Verdict::Worse);
        assert_eq!(failed_verdict((10, 2), (10, 1)), Verdict::Same);
    }

    #[test]
    fn compares_results_files_with_benchmark_rules() {
        let bench = JsonValue::parse(
            r#"{"end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#,
        )
        .unwrap();
        let rules = rules(&bench).unwrap();
        assert_eq!(rules.len(), 2);
        let doc = |wall: f64, failed: u32| {
            JsonValue::parse(&format!(
                r#"{{"workloads": {{"w": {{"attempted": 10, "failed": {failed}, "metrics": {{
                    "wall_s": {{"samples": [{wall}, {wall}, {wall}]}},
                    "setup_s": {{"samples": [0.5, 0.5, 0.5]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&rules, &doc(1.0, 0), &doc(1.5, 1)).unwrap();
        assert_eq!(
            rows,
            vec![(
                "w".to_owned(),
                vec![
                    ("wall_s".to_owned(), Verdict::Worse),
                    ("setup_s".to_owned(), Verdict::Same),
                    ("failed_frac".to_owned(), Verdict::Worse),
                ]
            )]
        );
        assert!(compare(&rules, &doc(1.0, 0), &JsonValue::parse("{}").unwrap()).is_err());
    }
}
