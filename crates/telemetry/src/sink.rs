//! Output sinks: the human-readable tables and the JSON-lines stream.

use std::io::{self, Write};

use crate::hist::Log2Histogram;
use crate::json::{write_json_f64, write_json_string};
use crate::metrics::PatternRecord;
use crate::snapshot::MetricsSnapshot;
use crate::timing::PhaseTimes;

/// Streams telemetry as JSON lines: one object per pattern, then one
/// summary object, so a run can be post-processed with standard line
/// tooling. Records carry a `"type"` discriminator (`"pattern"` /
/// `"summary"`).
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    out: W,
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps a byte sink.
    pub fn new(out: W) -> Self {
        JsonlWriter { out }
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Writes one per-pattern record line.
    pub fn write_pattern(&mut self, record: &PatternRecord) -> io::Result<()> {
        let c = &record.counters;
        let mut line = String::with_capacity(256);
        line.push_str("{\"type\":\"pattern\"");
        push_u64(&mut line, "pattern", record.pattern);
        push_u64(&mut line, "activations", c.activations);
        push_u64(&mut line, "good_evals", c.good_evals);
        push_u64(&mut line, "fault_evals", c.fault_evals);
        push_u64(&mut line, "traversed", c.traversed);
        push_u64(&mut line, "visible", c.visible);
        push_u64(&mut line, "divergences", c.divergences);
        push_u64(&mut line, "convergences", c.convergences);
        push_u64(&mut line, "drops", c.drops);
        push_u64(&mut line, "detected", c.detected);
        push_u64(&mut line, "queue_peak", c.queue_peak);
        push_u64(&mut line, "dff_stash", c.dff_stash);
        push_f64(&mut line, "avg_list_len", record.avg_list_len);
        push_u64(&mut line, "max_list_len", record.max_list_len);
        line.push_str("}\n");
        self.out.write_all(line.as_bytes())
    }

    /// Writes the final summary line.
    pub fn write_summary(&mut self, s: &MetricsSnapshot) -> io::Result<()> {
        let mut line = String::with_capacity(512);
        line.push_str("{\"type\":\"summary\"");
        push_str(&mut line, "simulator", &s.simulator);
        push_str(&mut line, "circuit", &s.circuit);
        push_u64(&mut line, "patterns", s.patterns);
        push_u64(&mut line, "detected", s.detected);
        push_u64(&mut line, "events", s.events);
        push_u64(&mut line, "good_evals", s.good_evals);
        push_u64(&mut line, "fault_evals", s.fault_evals);
        push_u64(&mut line, "traversed", s.traversed);
        push_u64(&mut line, "visible", s.visible);
        push_u64(&mut line, "divergences", s.divergences);
        push_u64(&mut line, "convergences", s.convergences);
        push_u64(&mut line, "drops", s.drops);
        push_f64(&mut line, "avg_list_len", s.avg_list_len);
        push_u64(&mut line, "max_list_len", s.max_list_len);
        push_f64(&mut line, "visible_fraction", s.visible_fraction);
        push_f64(&mut line, "events_per_pattern", s.events_per_pattern);
        push_u64(&mut line, "queue_depth_peak", s.queue_depth_peak);
        push_u64(&mut line, "compactions", s.compactions);
        push_u64(&mut line, "compacted_elements", s.compacted_elements);
        push_u64(&mut line, "peak_memory_bytes", s.peak_memory_bytes);
        push_f64(&mut line, "cpu_seconds", s.cpu_seconds);
        if s.faults_full > 0 {
            // Static-pruning counters, present only for pruned runs so
            // unpruned summaries keep their historical shape.
            push_u64(&mut line, "faults_full", s.faults_full);
            push_u64(&mut line, "faults_sim", s.faults_sim);
            push_u64(&mut line, "pruned_unexcitable", s.pruned_unexcitable);
            push_u64(&mut line, "pruned_unobservable", s.pruned_unobservable);
            push_u64(&mut line, "pruned_conflict", s.pruned_conflict);
        }
        if s.faults_affected > 0 || s.faults_transferred > 0 {
            // Change-impact counters, present only for incremental runs so
            // cold-run summaries keep their historical shape.
            push_u64(&mut line, "faults_affected", s.faults_affected);
            push_u64(&mut line, "faults_transferred", s.faults_transferred);
        }
        if s.trace_events > 0 {
            // Trace-recorder counters, present only for traced runs so
            // untraced summaries keep their historical shape.
            push_u64(&mut line, "trace_events", s.trace_events);
            push_u64(&mut line, "trace_dropped", s.trace_dropped);
        }
        if s.windows > 0 {
            // Scheduler counters, present only for batched/scheduled runs
            // so serial summaries keep their historical shape.
            push_u64(&mut line, "windows", s.windows);
            push_u64(&mut line, "steals", s.steals);
        }
        if s.promoted > 0 {
            // Hot-fault counters, present only when a fault was promoted
            // so purely concurrent summaries keep their historical shape.
            push_u64(&mut line, "promoted", s.promoted);
            push_u64(&mut line, "packed_words", s.packed_words);
            push_u64(&mut line, "packed_evals", s.packed_evals);
        }
        line.push_str(",\"phases\":{");
        for (i, (phase, d)) in s.phases.nonzero().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_string(&mut line, phase.name());
            line.push(':');
            write_json_f64(&mut line, d.as_secs_f64());
        }
        // Invocation counts as a sibling object: "phases" keeps its
        // all-float schema, while the counts give drift gates a
        // schedule-invariant integer to pin.
        line.push_str("},\"phase_calls\":{");
        for (i, (phase, c)) in s.phases.nonzero_counts().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_string(&mut line, phase.name());
            line.push(':');
            line.push_str(&c.to_string());
        }
        line.push_str("}}\n");
        self.out.write_all(line.as_bytes())
    }

    /// Flushes the inner sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

fn push_u64(line: &mut String, key: &str, value: u64) {
    line.push(',');
    write_json_string(line, key);
    line.push(':');
    line.push_str(&value.to_string());
}

fn push_f64(line: &mut String, key: &str, value: f64) {
    line.push(',');
    write_json_string(line, key);
    line.push(':');
    write_json_f64(line, value);
}

fn push_str(line: &mut String, key: &str, value: &str) {
    line.push(',');
    write_json_string(line, key);
    line.push(':');
    write_json_string(line, value);
}

/// Renders a comparison table of snapshots (one row per simulator).
///
/// Fields a headline-only snapshot cannot know (list lengths, visibility)
/// render as `-`, so concurrent variants and baselines share one table.
pub fn render_summary_table(rows: &[MetricsSnapshot]) -> String {
    let mut out = String::new();
    let header = [
        "simulator",
        "patterns",
        "faults",
        "detected",
        "events/pat",
        "avg |F|",
        "max |F|",
        "visible%",
        "fault evals",
        "drops",
        "mem MB",
        "cpu s",
    ];
    let mut table: Vec<[String; 12]> = vec![header.map(String::from)];
    for s in rows {
        let detail = s.has_detail();
        let dash = || "-".to_string();
        table.push([
            s.simulator.clone(),
            s.patterns.to_string(),
            // Simulated vs full universe, for runs that went through the
            // static pruning pipeline.
            if s.faults_full > 0 {
                format!("{}/{}", s.faults_sim, s.faults_full)
            } else {
                dash()
            },
            s.detected.to_string(),
            format!("{:.1}", s.events_per_pattern),
            if detail {
                format!("{:.2}", s.avg_list_len)
            } else {
                dash()
            },
            if detail {
                s.max_list_len.to_string()
            } else {
                dash()
            },
            if detail {
                format!("{:.1}", s.visible_fraction * 100.0)
            } else {
                dash()
            },
            s.fault_evals.to_string(),
            if detail { s.drops.to_string() } else { dash() },
            format!("{:.2}", s.peak_memory_megabytes()),
            format!("{:.3}", s.cpu_seconds),
        ]);
    }
    let mut widths = [0usize; 12];
    for row in &table {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    for (i, row) in table.iter().enumerate() {
        for (j, (cell, width)) in row.iter().zip(widths.iter()).enumerate() {
            if j > 0 {
                out.push_str("  ");
            }
            if j == 0 {
                out.push_str(&format!("{cell:<width$}"));
            } else {
                out.push_str(&format!("{cell:>width$}"));
            }
        }
        out.push('\n');
        if i == 0 {
            let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Renders per-phase wall times with percentage of the phase total.
pub fn render_phase_table(times: &PhaseTimes) -> String {
    let total = times.total().as_secs_f64();
    let mut out = String::new();
    out.push_str("phase              time s      %\n");
    out.push_str("--------------------------------\n");
    for (phase, d) in times.nonzero() {
        let secs = d.as_secs_f64();
        let pct = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<18} {:>7.3} {:>5.1}%\n",
            phase.name(),
            secs,
            pct
        ));
    }
    out.push_str(&format!("{:<18} {:>7.3} 100.0%\n", "total", total));
    out
}

/// Renders a log2 histogram as labelled buckets with proportional bars.
pub fn render_histogram(title: &str, hist: &Log2Histogram) -> String {
    let mut out = format!(
        "{title}: n={} mean={:.2} max={}\n",
        hist.count(),
        hist.mean(),
        hist.max()
    );
    let peak = hist.nonempty().map(|(_, _, c)| c).max().unwrap_or(0);
    for (lo, hi, count) in hist.nonempty() {
        let label = if hi == lo + 1 {
            format!("{lo}")
        } else if hi == u64::MAX {
            format!("{lo}+")
        } else {
            format!("{lo}-{}", hi - 1)
        };
        let bar_len = if peak == 0 {
            0
        } else {
            ((count as f64 / peak as f64) * 40.0).ceil() as usize
        };
        out.push_str(&format!(
            "  {label:>12} {count:>10} {}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::metrics::PatternCounters;
    use crate::timing::Phase;
    use std::time::Duration;

    fn sample_record() -> PatternRecord {
        PatternRecord {
            pattern: 3,
            counters: PatternCounters {
                activations: 17,
                good_evals: 9,
                fault_evals: 40,
                traversed: 120,
                visible: 30,
                divergences: 5,
                convergences: 2,
                drops: 1,
                detected: 4,
                queue_peak: 6,
                dff_stash: 3,
                ..PatternCounters::default()
            },
            avg_list_len: 2.5,
            max_list_len: 9,
        }
    }

    #[test]
    fn pattern_lines_round_trip_through_parser() {
        let mut w = JsonlWriter::new(Vec::new());
        w.write_pattern(&sample_record()).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        assert!(text.ends_with('\n'));
        let v = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("pattern"));
        assert_eq!(v.get("pattern").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("traversed").and_then(JsonValue::as_u64), Some(120));
        assert_eq!(v.get("avg_list_len").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("queue_peak").and_then(JsonValue::as_u64), Some(6));
    }

    #[test]
    fn summary_line_includes_phases() {
        let mut s = MetricsSnapshot::from_basic("csim-MV", "s27", 8, 20, 160, 500, 4096, 0.25);
        s.phases.add(Phase::Propagate, Duration::from_millis(200));
        s.phases.add(Phase::Detect, Duration::from_millis(50));
        let mut w = JsonlWriter::new(Vec::new());
        w.write_summary(&s).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("summary"));
        assert_eq!(
            v.get("simulator").and_then(JsonValue::as_str),
            Some("csim-MV")
        );
        assert_eq!(v.get("patterns").and_then(JsonValue::as_u64), Some(8));
        let phases = v.get("phases").unwrap();
        let prop = phases.get("propagate").and_then(JsonValue::as_f64).unwrap();
        assert!((prop - 0.2).abs() < 1e-9);
        assert!(phases.get("latch_collect").is_none());
        let calls = v.get("phase_calls").unwrap();
        assert_eq!(calls.get("propagate").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(calls.get("detect").and_then(JsonValue::as_u64), Some(1));
        assert!(calls.get("latch_collect").is_none());
    }

    #[test]
    fn summary_line_carries_scheduler_counters_only_when_windowed() {
        let mut s = MetricsSnapshot::from_basic("csim-MV", "s27", 8, 20, 160, 500, 4096, 0.25);
        let mut w = JsonlWriter::new(Vec::new());
        w.write_summary(&s).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert!(v.get("windows").is_none(), "serial shape unchanged");
        s.windows = 4;
        s.steals = 7;
        let mut w = JsonlWriter::new(Vec::new());
        w.write_summary(&s).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(v.get("windows").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("steals").and_then(JsonValue::as_u64), Some(7));
    }

    #[test]
    fn summary_line_carries_pruning_counters_only_when_pruned() {
        let mut s = MetricsSnapshot::from_basic("csim", "s27", 8, 20, 160, 500, 4096, 0.25);
        let mut w = JsonlWriter::new(Vec::new());
        w.write_summary(&s).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert!(v.get("faults_full").is_none(), "unpruned shape unchanged");
        s.faults_full = 100;
        s.faults_sim = 60;
        s.pruned_unexcitable = 5;
        s.pruned_unobservable = 3;
        s.pruned_conflict = 2;
        let mut w = JsonlWriter::new(Vec::new());
        w.write_summary(&s).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(v.get("faults_full").and_then(JsonValue::as_u64), Some(100));
        assert_eq!(v.get("faults_sim").and_then(JsonValue::as_u64), Some(60));
        assert_eq!(
            v.get("pruned_unexcitable").and_then(JsonValue::as_u64),
            Some(5)
        );
        assert_eq!(
            v.get("pruned_unobservable").and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("pruned_conflict").and_then(JsonValue::as_u64),
            Some(2)
        );
    }

    #[test]
    fn summary_line_carries_impact_counters_only_when_incremental() {
        let mut s = MetricsSnapshot::from_basic("csim-MV", "s27", 8, 20, 160, 500, 4096, 0.25);
        let mut w = JsonlWriter::new(Vec::new());
        w.write_summary(&s).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert!(
            v.get("faults_affected").is_none(),
            "cold-run shape unchanged"
        );
        s.faults_full = 100;
        s.faults_sim = 30;
        s.faults_affected = 30;
        s.faults_transferred = 70;
        let mut w = JsonlWriter::new(Vec::new());
        w.write_summary(&s).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let v = JsonValue::parse(text.trim()).unwrap();
        assert_eq!(
            v.get("faults_affected").and_then(JsonValue::as_u64),
            Some(30)
        );
        assert_eq!(
            v.get("faults_transferred").and_then(JsonValue::as_u64),
            Some(70)
        );
    }

    #[test]
    fn summary_table_mixes_detailed_and_basic_rows() {
        let mut detailed = MetricsSnapshot::from_basic("csim", "s27", 4, 10, 40, 99, 2048, 0.1);
        detailed.traversed = 200;
        detailed.visible = 50;
        detailed.visible_fraction = 0.25;
        detailed.avg_list_len = 3.25;
        detailed.max_list_len = 12;
        detailed.drops = 7;
        let basic = MetricsSnapshot::from_basic("proofs", "s27", 4, 10, 80, 300, 4096, 0.2);
        let table = render_summary_table(&[detailed, basic]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, two rows
        assert!(lines[0].contains("avg |F|"));
        assert!(lines[2].starts_with("csim"));
        assert!(lines[2].contains("3.25"));
        assert!(lines[3].starts_with("proofs"));
        assert!(lines[3].contains("-"));
    }

    #[test]
    fn phase_table_and_histogram_render() {
        let mut times = PhaseTimes::new();
        times.add(Phase::Propagate, Duration::from_millis(300));
        times.add(Phase::LatchCommit, Duration::from_millis(100));
        let table = render_phase_table(&times);
        assert!(table.contains("propagate"));
        assert!(table.contains("latch_commit"));
        assert!(table.contains("75.0%"));

        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 3, 3, 9] {
            h.record(v);
        }
        let render = render_histogram("fault-list length", &h);
        assert!(render.contains("fault-list length: n=7"));
        assert!(render.contains("2-3"));
        assert!(render.contains("8-15"));
    }
}
