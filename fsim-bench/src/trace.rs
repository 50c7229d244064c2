//! In-memory span recorder for the traced run, with self times and a
//! Chrome-trace (Perfetto) export written when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cfs_telemetry::write_json_string;

/// One recorded interval. `parent` is the enclosing span on the same
/// track; spans on other tracks (scheduler workers) may point at the span
/// that caused them but are not subtracted from its self time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`core.step`, `pattern`, …).
    pub name: String,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Track: 0 for the benchmark's own thread, 1 + worker otherwise.
    pub track: u32,
    /// Microseconds since the recorder started.
    pub start_us: f64,
    /// Microseconds.
    pub dur_us: f64,
    /// Free-form annotations shown in the trace viewer.
    pub args: Vec<(String, String)>,
}

/// Records spans in memory; nothing is written until [`Recorder::chrome_json`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Opens a span on track 0, nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            track: 0,
            start_us: self.us_at(Instant::now()),
            dur_us: 0.0,
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.dur_us = (self.origin.elapsed().as_secs_f64() * 1e6 - span.start_us).max(0.0);
        span.dur_us
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured span, e.g. one from a worker thread.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Annotates span `id`.
    pub fn annotate(&mut self, id: usize, key: &str, value: impl ToString) {
        self.spans[id]
            .args
            .push((key.to_owned(), value.to_string()));
    }

    /// Microseconds from the recorder's start to `t`.
    pub fn us_at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in seconds, of the direct children of `parent` on
    /// its track, per child name.
    pub fn child_seconds(&self, parent: usize) -> BTreeMap<String, f64> {
        let track = self.spans[parent].track;
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.parent == Some(parent) && s.track == track {
                *out.entry(s.name.clone()).or_insert(0.0) += s.dur_us / 1e6;
            }
        }
        out
    }

    /// Chrome Trace Event JSON (`"ph": "X"` complete events), loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"ph\":\"X\",\"pid\":1,\"name\":");
            write_json_string(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
                s.track, s.start_us, s.dur_us
            );
            for (k, (key, value)) in s.args.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, key);
                out.push(':');
                write_json_string(&mut out, value);
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time of every span: its duration minus what its children on the
/// same track cover. Children on other tracks ran concurrently and are not
/// subtracted.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].track == s.track {
                own[p] -= s.dur_us;
            }
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, track: u32, start: f64, dur: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            track,
            start_us: start,
            dur_us: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_same_track_children_only() {
        let spans = vec![
            span("run", None, 0, 0.0, 100.0),
            span("workload", Some(0), 0, 5.0, 90.0),
            span("core.step", Some(1), 0, 10.0, 60.0),
            span("pattern", Some(2), 0, 10.0, 20.0),
            span("pattern", Some(2), 0, 30.0, 25.0),
            span("task", Some(2), 1, 10.0, 55.0),
            span("report.write", Some(1), 0, 70.0, 15.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![10.0, 15.0, 15.0, 20.0, 25.0, 55.0, 15.0]);
        // Self times on one track add back up to the root's duration.
        let track0: f64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.track == 0)
            .map(|(_, t)| t)
            .sum();
        assert_eq!(track0, 100.0);
    }

    #[test]
    fn recorder_nests_and_sums_children() {
        let mut r = Recorder::default();
        let w = r.begin("workload");
        r.span("netlist.parse", || std::hint::black_box(1 + 1));
        r.span("core.step", || {});
        r.span("core.step", || {});
        r.end(w);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(w));
        let children = r.child_seconds(w);
        assert_eq!(children.len(), 2);
        assert!(children.values().sum::<f64>() <= spans[w].dur_us / 1e6);
        let json = r.chrome_json();
        assert!(json.contains("\"name\":\"core.step\""));
        assert!(cfs_telemetry::JsonValue::parse(&json).is_ok());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut r = Recorder::default();
        let a = r.begin("a");
        let _b = r.begin("b");
        r.end(a);
    }
}
