//! Chrome Trace Event / Perfetto JSON export.
//!
//! Emits the JSON object format (`{"traceEvents": [...]}`) that
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly: one thread track per shard worker carrying pattern and
//! phase spans (`ph:"X"`) and fault-lifecycle instants (`ph:"i"`), plus a
//! counter track (`ph:"C"`) for live fault-list elements and event-queue
//! depth summed across shards. Timestamps are the recorders' shared-epoch
//! microseconds, which is exactly the unit the format wants.

use std::io::{self, Write};

use cfs_telemetry::{write_json_string, JsonValue};

use crate::event::TraceEvent;

/// One shard worker's event stream, ready for export.
#[derive(Debug, Clone)]
pub struct TrackTrace<'a> {
    /// Track label (the Perfetto thread name), e.g. `"shard 0"`.
    pub label: String,
    /// The recorder's events, oldest first.
    pub events: &'a [TraceEvent],
    /// Local→global fault-id map (`map[local] = global`); `None` when the
    /// engine already ran on global ids (serial runs).
    pub fault_map: Option<&'a [usize]>,
}

/// One executed (shard × window) task of the batched scheduler, on the
/// worker that ran it. Mirrors the scheduler's own record type so the
/// trace crate needs no dependency on the engine crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedSpan {
    /// Worker that ran the task.
    pub worker: u32,
    /// Fault shard.
    pub shard: u32,
    /// Pattern window index.
    pub window: u32,
    /// Patterns in the window.
    pub patterns: u32,
    /// Start timestamp, microseconds on the recorders' epoch.
    pub start: u64,
    /// End timestamp, microseconds on the recorders' epoch.
    pub end: u64,
}

/// One successful steal: `shard` migrated from `victim`'s deque to
/// `worker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedSteal {
    /// Worker that stole.
    pub worker: u32,
    /// Worker whose deque was robbed.
    pub victim: u32,
    /// The shard that moved.
    pub shard: u32,
    /// The shard's next window at the time of the steal.
    pub window: u32,
    /// Timestamp, microseconds on the recorders' epoch.
    pub ts: u64,
}

/// Scheduler activity of a batched run: one thread track per worker with
/// its task spans, plus steal instants on the thief's track.
#[derive(Debug, Clone, Default)]
pub struct SchedTrack {
    /// Worker thread count (tracks are emitted even for idle workers).
    pub workers: u32,
    /// Every executed task.
    pub spans: Vec<SchedSpan>,
    /// Every successful steal.
    pub steals: Vec<SchedSteal>,
}

/// The fixed pid all tracks share (one fsim process).
const PID: u32 = 1;

/// Writes a complete Chrome Trace Event JSON document.
///
/// `process_name` labels the process track (circuit + simulator name).
/// Track `i` becomes thread `i + 1`; counter samples from every track are
/// merged onto one summed counter track in timestamp order.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_chrome_trace(
    out: &mut dyn Write,
    process_name: &str,
    tracks: &[TrackTrace<'_>],
) -> io::Result<()> {
    write_chrome_trace_with_sched(out, process_name, tracks, None)
}

/// [`write_chrome_trace`] plus optional scheduler worker tracks.
///
/// Worker `k` becomes thread `tracks.len() + 1 + k` (after the shard
/// tracks), carrying one `cat:"task"` span per executed (shard × window)
/// task and one `cat:"sched"` instant per successful steal — the
/// at-a-glance view of load balance and steal traffic. Passing `None`
/// emits exactly the historical document.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_chrome_trace_with_sched(
    out: &mut dyn Write,
    process_name: &str,
    tracks: &[TrackTrace<'_>],
    sched: Option<&SchedTrack>,
) -> io::Result<()> {
    let mut first = true;
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut emit = |out: &mut dyn Write, line: &str| -> io::Result<()> {
        if !first {
            out.write_all(b",\n")?;
        }
        first = false;
        out.write_all(line.as_bytes())
    };

    // Metadata: process name, one named thread per track, then (batched
    // runs only) one named thread per scheduler worker.
    emit(out, &metadata_line(0, "process_name", process_name))?;
    for (i, track) in tracks.iter().enumerate() {
        emit(
            out,
            &metadata_line(i as u32 + 1, "thread_name", &track.label),
        )?;
    }
    let worker_tid = |worker: u32| tracks.len() as u32 + 1 + worker;
    if let Some(s) = sched {
        for k in 0..s.workers {
            emit(
                out,
                &metadata_line(worker_tid(k), "thread_name", &format!("worker {k}")),
            )?;
        }
    }

    // Spans and instants, per track, in recording order.
    for (i, track) in tracks.iter().enumerate() {
        let tid = i as u32 + 1;
        for raw in track.events {
            let e = match track.fault_map {
                Some(map) => raw.remap_fault(map),
                None => *raw,
            };
            if let Some(line) = event_line(tid, &e) {
                emit(out, &line)?;
            }
        }
    }

    // Scheduler worker tracks: one span per executed task on the worker
    // that ran it, one instant per successful steal on the thief's track.
    if let Some(s) = sched {
        for span in &s.spans {
            emit(
                out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"ts\":{},\
                     \"dur\":{},\"name\":\"task\",\"cat\":\"sched\",\
                     \"args\":{{\"shard\":{},\"window\":{},\"patterns\":{}}}}}",
                    worker_tid(span.worker),
                    span.start,
                    span.end.saturating_sub(span.start),
                    span.shard,
                    span.window,
                    span.patterns
                ),
            )?;
        }
        for steal in &s.steals {
            emit(
                out,
                &format!(
                    "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"steal\",\"cat\":\"sched\",\
                     \"args\":{{\"victim\":{},\"shard\":{},\"window\":{}}}}}",
                    worker_tid(steal.worker),
                    steal.ts,
                    steal.victim,
                    steal.shard,
                    steal.window
                ),
            )?;
        }
    }

    // Counter track: merge every track's end-of-pattern samples in
    // timestamp order, emitting the sum of each track's latest value.
    let mut samples: Vec<(u64, usize, u64, u64)> = Vec::new();
    for (i, track) in tracks.iter().enumerate() {
        for e in track.events {
            if let TraceEvent::CounterSample {
                live_elements,
                queue_peak,
                ts,
                ..
            } = *e
            {
                samples.push((ts, i, live_elements, queue_peak));
            }
        }
    }
    samples.sort_unstable();
    let mut latest_live = vec![0u64; tracks.len()];
    let mut latest_queue = vec![0u64; tracks.len()];
    for (ts, track, live, queue) in samples {
        latest_live[track] = live;
        latest_queue[track] = queue;
        let live_total: u64 = latest_live.iter().sum();
        let queue_total: u64 = latest_queue.iter().sum();
        emit(
            out,
            &format!(
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\"ts\":{ts},\
                 \"name\":\"live |F|\",\"args\":{{\"elements\":{live_total}}}}}"
            ),
        )?;
        emit(
            out,
            &format!(
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\"ts\":{ts},\
                 \"name\":\"queue depth\",\"args\":{{\"depth\":{queue_total}}}}}"
            ),
        )?;
    }

    out.write_all(b"\n],\"displayTimeUnit\":\"ms\"}\n")
}

fn metadata_line(tid: u32, kind: &str, name: &str) -> String {
    let mut args = String::new();
    write_json_string(&mut args, name);
    format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{kind}\",\
         \"args\":{{\"name\":{args}}}}}"
    )
}

/// Renders one recorder event as a Chrome trace line; counter samples are
/// handled by the merged counter pass instead.
fn event_line(tid: u32, e: &TraceEvent) -> Option<String> {
    let name = e.kind_name();
    match *e {
        TraceEvent::PatternSpan {
            pattern,
            start,
            end,
        } => Some(format!(
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"ts\":{start},\
             \"dur\":{},\"name\":\"{name}\",\"cat\":\"pattern\",\
             \"args\":{{\"pattern\":{pattern}}}}}",
            end - start
        )),
        TraceEvent::PhaseSpan { start, end, .. } => Some(format!(
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"ts\":{start},\
             \"dur\":{},\"name\":\"{name}\",\"cat\":\"phase\",\"args\":{{}}}}",
            end - start
        )),
        TraceEvent::Divergence {
            pattern,
            node,
            fault,
            ts,
        }
        | TraceEvent::Convergence {
            pattern,
            node,
            fault,
            ts,
        }
        | TraceEvent::Dropped {
            pattern,
            node,
            fault,
            ts,
        } => Some(format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{name}\",\"cat\":\"fault\",\
             \"args\":{{\"fault\":{fault},\"node\":{node},\"pattern\":{pattern}}}}}"
        )),
        TraceEvent::Detected {
            pattern,
            po_node,
            fault,
            ts,
        } => Some(format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{name}\",\"cat\":\"fault\",\
             \"args\":{{\"fault\":{fault},\"po_node\":{po_node},\"pattern\":{pattern}}}}}"
        )),
        TraceEvent::Quiescent {
            since_pattern,
            at_pattern,
            fault,
            ts,
        } => Some(format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{name}\",\"cat\":\"fault\",\
             \"args\":{{\"fault\":{fault},\"since_pattern\":{since_pattern},\
             \"at_pattern\":{at_pattern}}}}}"
        )),
        TraceEvent::Compaction { pattern, moved, ts } => Some(format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{name}\",\"cat\":\"arena\",\
             \"args\":{{\"moved\":{moved},\"pattern\":{pattern}}}}}"
        )),
        TraceEvent::Packed {
            pattern,
            promoted,
            words,
            evals,
            ts,
        } => Some(format!(
            "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{name}\",\"cat\":\"packed\",\
             \"args\":{{\"promoted\":{promoted},\"words\":{words},\"evals\":{evals},\
             \"pattern\":{pattern}}}}}"
        )),
        TraceEvent::CounterSample { .. } => None,
    }
}

/// Headline facts about a parsed Chrome trace document, for validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// `ph:"X"` complete-span events.
    pub spans: u64,
    /// `ph:"i"` instant events.
    pub instants: u64,
    /// `ph:"C"` counter samples.
    pub counters: u64,
    /// `ph:"M"` metadata records.
    pub metadata: u64,
    /// Instants named `divergence`.
    pub divergences: u64,
    /// Instants named `convergence`.
    pub convergences: u64,
    /// Spans named `pattern`.
    pub pattern_spans: u64,
    /// Spans named `task` (scheduler worker tracks).
    pub task_spans: u64,
    /// Instants named `steal` (scheduler worker tracks).
    pub steal_instants: u64,
}

/// Parses and structurally validates a Chrome trace document produced by
/// [`write_chrome_trace`], returning event tallies.
///
/// # Errors
///
/// Returns a description of the first structural problem: unparseable
/// JSON, a missing `traceEvents` array, or an event without the required
/// `ph`/`pid` fields.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stats = ChromeTraceStats::default();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        e.get("pid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
        match ph {
            "X" => {
                e.get("ts")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("event {i}: span without ts"))?;
                e.get("dur")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("event {i}: span without dur"))?;
                stats.spans += 1;
                match name {
                    "pattern" => stats.pattern_spans += 1,
                    "task" => stats.task_spans += 1,
                    _ => {}
                }
            }
            "i" => {
                e.get("ts")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("event {i}: instant without ts"))?;
                stats.instants += 1;
                match name {
                    "divergence" => stats.divergences += 1,
                    "convergence" => stats.convergences += 1,
                    "steal" => stats.steal_instants += 1,
                    _ => {}
                }
            }
            "C" => stats.counters += 1,
            "M" => stats.metadata += 1,
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_telemetry::Phase;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseSpan {
                phase: Phase::Propagate,
                start: 5,
                end: 9,
            },
            TraceEvent::Divergence {
                pattern: 0,
                node: 3,
                fault: 0,
                ts: 6,
            },
            TraceEvent::Convergence {
                pattern: 0,
                node: 3,
                fault: 1,
                ts: 7,
            },
            TraceEvent::Detected {
                pattern: 0,
                po_node: 8,
                fault: 0,
                ts: 8,
            },
            TraceEvent::CounterSample {
                pattern: 0,
                live_elements: 4,
                queue_peak: 2,
                ts: 10,
            },
            TraceEvent::PatternSpan {
                pattern: 0,
                start: 5,
                end: 10,
            },
        ]
    }

    #[test]
    fn document_round_trips_through_validator() {
        let events = sample_events();
        let tracks = [TrackTrace {
            label: "shard 0".to_string(),
            events: &events,
            fault_map: None,
        }];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, "fsim test", &tracks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let stats = validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.metadata, 2, "process + one thread");
        assert_eq!(stats.spans, 2, "phase + pattern");
        assert_eq!(stats.pattern_spans, 1);
        assert_eq!(stats.instants, 3);
        assert_eq!(stats.divergences, 1);
        assert_eq!(stats.convergences, 1);
        assert_eq!(stats.counters, 2, "live |F| and queue depth");
    }

    #[test]
    fn sched_track_adds_worker_threads_tasks_and_steals() {
        let events = sample_events();
        let tracks = [TrackTrace {
            label: "shard 0".to_string(),
            events: &events,
            fault_map: None,
        }];
        let sched = SchedTrack {
            workers: 2,
            spans: vec![
                SchedSpan {
                    worker: 0,
                    shard: 0,
                    window: 0,
                    patterns: 8,
                    start: 5,
                    end: 9,
                },
                SchedSpan {
                    worker: 1,
                    shard: 0,
                    window: 1,
                    patterns: 8,
                    start: 9,
                    end: 12,
                },
            ],
            steals: vec![SchedSteal {
                worker: 1,
                victim: 0,
                shard: 0,
                window: 1,
                ts: 9,
            }],
        };
        let mut buf = Vec::new();
        write_chrome_trace_with_sched(&mut buf, "fsim test", &tracks, Some(&sched)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let stats = validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.metadata, 4, "process + shard thread + 2 workers");
        assert_eq!(stats.task_spans, 2);
        assert_eq!(stats.steal_instants, 1);
        // Worker tids come after the shard tids.
        assert!(text.contains("\"tid\":2,\"name\":\"thread_name\""));
        assert!(text.contains("worker 1"), "{text}");
        assert!(text.contains("\"victim\":0"), "{text}");

        // Passing None emits the historical document bit-for-bit.
        let mut plain = Vec::new();
        write_chrome_trace(&mut plain, "fsim test", &tracks).unwrap();
        let mut none = Vec::new();
        write_chrome_trace_with_sched(&mut none, "fsim test", &tracks, None).unwrap();
        assert_eq!(plain, none);
        let plain_stats = validate_chrome_trace(&String::from_utf8(plain).unwrap()).unwrap();
        assert_eq!(plain_stats.task_spans, 0);
        assert_eq!(plain_stats.steal_instants, 0);
        assert_eq!(plain_stats.metadata, 2);
    }

    #[test]
    fn counter_track_sums_across_shards() {
        let a = [TraceEvent::CounterSample {
            pattern: 0,
            live_elements: 3,
            queue_peak: 1,
            ts: 10,
        }];
        let b = [TraceEvent::CounterSample {
            pattern: 0,
            live_elements: 5,
            queue_peak: 2,
            ts: 20,
        }];
        let tracks = [
            TrackTrace {
                label: "shard 0".to_string(),
                events: &a,
                fault_map: None,
            },
            TrackTrace {
                label: "shard 1".to_string(),
                events: &b,
                fault_map: None,
            },
        ];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, "fsim test", &tracks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Second sample sums shard 0's latest (3) with shard 1's (5).
        assert!(text.contains("\"elements\":3"), "{text}");
        assert!(text.contains("\"elements\":8"), "{text}");
        validate_chrome_trace(&text).unwrap();
    }

    #[test]
    fn fault_map_remaps_ids_at_export() {
        let events = [TraceEvent::Divergence {
            pattern: 0,
            node: 1,
            fault: 0,
            ts: 1,
        }];
        let map = vec![42usize];
        let tracks = [TrackTrace {
            label: "shard 0".to_string(),
            events: &events,
            fault_map: Some(&map),
        }];
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, "fsim test", &tracks).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"fault\":42"), "{text}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"other\":1}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"pid\":1}]}")
            .unwrap_err()
            .contains("missing ph"));
    }
}
