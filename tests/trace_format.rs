//! Trace-format validation and tracing-transparency tests.
//!
//! The `cfs-trace` recorder is an observer: attaching it must not change
//! a single simulation result. These tests pin (a) the structural schema
//! of the exported Chrome Trace / Perfetto JSON and of the `--stats-json`
//! lines, and (b) the differential guarantee that detections are
//! bit-identical with tracing on and off, serial and fault-sharded.

use std::time::Instant;

use cfs_core::{
    detections_of, BatchOptions, ConcurrentSim, CsimVariant, ParallelSim, ParallelTransitionSim,
    TransitionOptions, TransitionSim,
};
use cfs_faults::{collapse_stuck_at, enumerate_transition};
use cfs_logic::Logic;
use cfs_netlist::Circuit;
use cfs_telemetry::{JsonValue, JsonlWriter, MetricsSnapshot, PairProbe, Phase, SimMetrics};
use cfs_trace::{
    validate_chrome_trace, write_chrome_trace, write_chrome_trace_with_sched, SchedSpan,
    SchedSteal, SchedTrack, TraceConfig, TraceEvent, TraceRecorder, TrackTrace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type TraceProbe = PairProbe<SimMetrics, TraceRecorder>;

fn circuit() -> Circuit {
    cfs_netlist::generate::benchmark("s298g").expect("built-in benchmark")
}

fn patterns(c: &Circuit, count: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..c.num_inputs())
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Runs a traced stuck-at simulation and exports its Chrome trace.
fn traced_stuck_run(threads: usize) -> (String, Vec<cfs_faults::FaultStatus>) {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 64, 7);
    let epoch = Instant::now();
    let mut sim = ParallelSim::with_probes(
        &c,
        &faults,
        CsimVariant::Mv.options(),
        threads,
        |_| -> TraceProbe {
            PairProbe(
                SimMetrics::new(),
                TraceRecorder::new(epoch, TraceConfig::default()),
            )
        },
    );
    let report = sim.run(&pats);
    let shard_data: Vec<(Vec<TraceEvent>, Vec<usize>)> = sim
        .shard_probes()
        .map(|(p, map)| (p.1.events().copied().collect(), map.to_vec()))
        .collect();
    let tracks: Vec<TrackTrace<'_>> = shard_data
        .iter()
        .enumerate()
        .map(|(k, (events, map))| TrackTrace {
            label: format!("shard {k}"),
            events,
            fault_map: Some(map),
        })
        .collect();
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, "trace_format test", &tracks).expect("in-memory write");
    (String::from_utf8(buf).expect("utf-8 JSON"), report.statuses)
}

#[test]
fn chrome_trace_schema_validates_serial_and_sharded() {
    for threads in [1, 4] {
        let (text, _) = traced_stuck_run(threads);
        let stats = validate_chrome_trace(&text)
            .unwrap_or_else(|e| panic!("threads={threads}: invalid trace: {e}"));
        assert_eq!(
            stats.metadata,
            threads as u64 + 1,
            "process + one thread-name record per shard"
        );
        assert!(stats.pattern_spans >= 64 * threads as u64, "{stats:?}");
        assert!(stats.spans > stats.pattern_spans, "phase spans present");
        assert!(stats.divergences > 0, "at least one divergence instant");
        assert!(stats.convergences > 0, "at least one convergence instant");
        assert!(stats.counters > 0, "counter track present");
    }
}

#[test]
fn sharded_trace_remaps_fault_ids_into_the_global_universe() {
    let c = circuit();
    let num_faults = collapse_stuck_at(&c).representatives.len();
    let (text, _) = traced_stuck_run(4);
    let doc = JsonValue::parse(&text).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let mut fault_ids: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("args")?.get("fault")?.as_u64())
        .collect();
    assert!(!fault_ids.is_empty(), "fault instants present");
    fault_ids.sort_unstable();
    fault_ids.dedup();
    assert!(
        *fault_ids.last().unwrap() < num_faults as u64,
        "every fault id within the global universe"
    );
    // Round-robin over 4 shards: local ids 0..n/4 would leave everything
    // below n/4; remapped ids must reach beyond it.
    assert!(
        *fault_ids.last().unwrap() >= (num_faults / 4) as u64,
        "ids are global, not shard-local"
    );
}

#[test]
fn stats_json_lines_parse_with_expected_schema() {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 32, 3);
    let mut sim = ConcurrentSim::instrumented(&c, &faults, CsimVariant::Mv.options());
    let report = sim.run(&pats);
    let mut snap = sim.snapshot();
    snap.cpu_seconds = report.cpu.as_secs_f64();
    snap.trace_events = 123;
    snap.trace_dropped = 1;
    let mut w = JsonlWriter::new(Vec::new());
    for record in sim.metrics().records() {
        w.write_pattern(record).unwrap();
    }
    w.write_summary(&snap).unwrap();
    let text = String::from_utf8(w.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 33, "32 pattern lines + summary");
    for (i, line) in lines.iter().enumerate() {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        let ty = v.get("type").and_then(JsonValue::as_str).unwrap();
        if i < 32 {
            assert_eq!(ty, "pattern");
            assert_eq!(v.get("pattern").and_then(JsonValue::as_u64), Some(i as u64));
            for key in ["activations", "divergences", "convergences", "detected"] {
                assert!(v.get(key).and_then(JsonValue::as_u64).is_some(), "{key}");
            }
        } else {
            assert_eq!(ty, "summary");
            assert_eq!(
                v.get("simulator").and_then(JsonValue::as_str),
                Some("csim-MV")
            );
            assert_eq!(v.get("trace_events").and_then(JsonValue::as_u64), Some(123));
            assert_eq!(v.get("trace_dropped").and_then(JsonValue::as_u64), Some(1));
            assert!(v.get("phases").is_some());
            assert!(v.get("phase_calls").is_some());
            // Scheduler counters only appear on scheduled runs.
            assert!(v.get("windows").is_none(), "serial run: no windows key");
            assert!(v.get("steals").is_none(), "serial run: no steals key");
        }
    }
}

#[test]
fn stuck_detections_identical_tracing_on_and_off() {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 64, 7);
    let mut plain = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
    let baseline = plain.run(&pats);
    for threads in [1, 4] {
        let (_, statuses) = traced_stuck_run(threads);
        assert_eq!(
            statuses, baseline.statuses,
            "threads={threads}: tracing changed per-fault statuses"
        );
        assert_eq!(
            detections_of(&statuses),
            detections_of(&baseline.statuses),
            "threads={threads}: tracing changed the detection list"
        );
    }
}

#[test]
fn transition_detections_identical_tracing_on_and_off() {
    let c = circuit();
    let faults = enumerate_transition(&c);
    let pats = patterns(&c, 64, 11);
    let mut plain = TransitionSim::new(&c, &faults, TransitionOptions::default());
    let baseline = plain.run(&pats);
    for threads in [1, 4] {
        let epoch = Instant::now();
        let mut sim = ParallelTransitionSim::with_probes(
            &c,
            &faults,
            TransitionOptions::default(),
            threads,
            |_| -> TraceProbe {
                PairProbe(
                    SimMetrics::new(),
                    TraceRecorder::new(epoch, TraceConfig::default()),
                )
            },
        );
        let report = sim.run(&pats);
        assert_eq!(
            report.statuses, baseline.statuses,
            "threads={threads}: tracing changed transition statuses"
        );
    }
}

/// Runs a batched (pattern-window × fault-shard) traced run and exports
/// its Chrome trace with the scheduler's worker tracks.
fn traced_batched_run(
    threads: usize,
    shards: usize,
    window: usize,
) -> (String, Vec<cfs_faults::FaultStatus>, usize) {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 64, 7);
    let epoch = Instant::now();
    let mut sim = ParallelSim::with_shards(
        &c,
        &faults,
        CsimVariant::Mv.options(),
        threads,
        shards,
        |_| -> TraceProbe {
            PairProbe(
                SimMetrics::new(),
                TraceRecorder::new(epoch, TraceConfig::default()),
            )
        },
    );
    let batch = BatchOptions {
        window,
        steal: true,
    };
    let report = sim.run_batched(&pats, &batch);
    let st = sim.sched_stats().expect("batched run records stats");
    let sched = SchedTrack {
        workers: st.workers as u32,
        spans: st
            .spans
            .iter()
            .map(|s| SchedSpan {
                worker: s.worker,
                shard: s.shard,
                window: s.window,
                patterns: s.patterns,
                start: s.start_micros,
                end: s.end_micros,
            })
            .collect(),
        steals: st
            .steal_events
            .iter()
            .map(|e| SchedSteal {
                worker: e.worker,
                victim: e.victim,
                shard: e.shard,
                window: e.window,
                ts: e.ts_micros,
            })
            .collect(),
    };
    let windows = st.windows;
    let shard_data: Vec<(Vec<TraceEvent>, Vec<usize>)> = sim
        .shard_probes()
        .map(|(p, map)| (p.1.events().copied().collect(), map.to_vec()))
        .collect();
    let tracks: Vec<TrackTrace<'_>> = shard_data
        .iter()
        .enumerate()
        .map(|(k, (events, map))| TrackTrace {
            label: format!("shard {k}"),
            events,
            fault_map: Some(map),
        })
        .collect();
    let mut buf = Vec::new();
    write_chrome_trace_with_sched(&mut buf, "trace_format test", &tracks, Some(&sched))
        .expect("in-memory write");
    (
        String::from_utf8(buf).expect("utf-8 JSON"),
        report.statuses,
        windows,
    )
}

#[test]
fn batched_trace_schema_adds_worker_tracks_and_stays_bit_identical() {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 64, 7);
    let baseline = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options()).run(&pats);
    let (threads, shards, window) = (2, 5, 9);
    let (text, statuses, windows) = traced_batched_run(threads, shards, window);
    assert_eq!(windows, 64usize.div_ceil(window), "window partition count");
    let stats = validate_chrome_trace(&text).unwrap_or_else(|e| panic!("invalid trace: {e}"));
    assert_eq!(
        stats.metadata,
        1 + shards as u64 + threads as u64,
        "process + shard tracks + worker tracks"
    );
    assert_eq!(
        stats.task_spans,
        (shards * windows) as u64,
        "one task span per (shard × window)"
    );
    assert!(
        stats.pattern_spans >= 64 * shards as u64,
        "every shard still records every pattern: {stats:?}"
    );
    assert_eq!(
        statuses, baseline.statuses,
        "batched tracing changed per-fault statuses"
    );
}

/// Per-phase *wall times* are schedule-dependent, but per-phase
/// *invocation counts* are a fact of the simulation itself: with the
/// fault partition fixed, every (pattern × shard) runs each phase the
/// same number of times no matter how many workers execute it, how the
/// pattern sequence is windowed, or what the steal schedule did. This is
/// the machine-checkable face of the `--stats` phase table under merges.
/// The work counters follow for the same reason: every scheduled run
/// reads one scalar good machine, one cycle per pattern, so `events`,
/// `fault_evals` and `good_evals` cannot move with the schedule either —
/// and a one-shard run is the serial machine, batch options or not.
#[test]
fn phase_call_counts_are_schedule_invariant() {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 48, 13);
    let snapshot_of = |threads: usize, shards: usize, batch: Option<BatchOptions>| {
        let mut sim = ParallelSim::with_shards(
            &c,
            &faults,
            CsimVariant::Mv.options(),
            threads,
            shards,
            |_| SimMetrics::new(),
        );
        match batch {
            Some(b) => sim.run_batched(&pats, &b),
            None => sim.run(&pats),
        };
        sim.snapshot()
    };
    let same = |label: &str, snap: &MetricsSnapshot, reference: &MetricsSnapshot| {
        for phase in Phase::ALL {
            assert_eq!(
                snap.phases.count(phase),
                reference.phases.count(phase),
                "{label}: phase {} call count drifted under the scheduler",
                phase.name()
            );
        }
        assert_eq!(snap.events, reference.events, "{label}: events");
        assert_eq!(
            snap.fault_evals, reference.fault_evals,
            "{label}: fault_evals"
        );
        assert_eq!(snap.good_evals, reference.good_evals, "{label}: good_evals");
    };
    let batch = |window: usize, steal: bool| Some(BatchOptions { window, steal });
    let reference = snapshot_of(1, 4, None);
    let runs = [
        ("2 threads", snapshot_of(2, 4, None)),
        ("4 threads", snapshot_of(4, 4, None)),
        ("1 thread, window 5", snapshot_of(1, 4, batch(5, true))),
        ("4 threads, window 7", snapshot_of(4, 4, batch(7, true))),
        ("4 threads, one window", snapshot_of(4, 4, batch(0, false))),
    ];
    for (label, snap) in &runs {
        same(label, snap, &reference);
    }
    let mut serial = ConcurrentSim::instrumented(&c, &faults, CsimVariant::Mv.options());
    serial.run(&pats);
    same(
        "one shard, window 8",
        &snapshot_of(1, 1, batch(8, true)),
        &serial.snapshot(),
    );
}

/// The after-window callback is the CLI's milestone hook: cumulative done
/// counts must walk the exact window partition, and the per-shard
/// per-pattern records it merges must match the serial instrumented run —
/// that is what makes `--trace-every` output identical for every thread
/// count and window size.
#[test]
fn window_milestones_walk_the_partition_and_merge_to_serial_records() {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 40, 17);
    let mut serial = ConcurrentSim::instrumented(&c, &faults, CsimVariant::Mv.options());
    serial.run(&pats);
    let serial_detected: Vec<u64> = serial
        .metrics()
        .records()
        .iter()
        .map(|r| r.counters.detected)
        .collect();
    for window in [1, 6, 0] {
        let mut sim =
            ParallelSim::with_shards(&c, &faults, CsimVariant::Mv.options(), 3, 5, |_| {
                SimMetrics::new()
            });
        let mut milestones = Vec::new();
        sim.run_batched_with(
            &pats,
            &BatchOptions {
                window,
                steal: true,
            },
            |_, done| milestones.push(done),
        );
        let expected: Vec<usize> = if window == 0 {
            vec![40]
        } else {
            (1..=40usize.div_ceil(window))
                .map(|k| (k * window).min(40))
                .collect()
        };
        assert_eq!(milestones, expected, "window={window}: milestone walk");
        // Per-pattern detected counts, summed across shards, must equal
        // the serial per-pattern records.
        let merged: Vec<u64> = (0..pats.len())
            .map(|p| {
                sim.shard_metrics()
                    .map(|m| m.records()[p].counters.detected)
                    .sum()
            })
            .collect();
        assert_eq!(merged, serial_detected, "window={window}: merged records");
    }
}

#[test]
fn ring_overflow_drops_oldest_but_keeps_exact_node_totals() {
    let c = circuit();
    let faults = collapse_stuck_at(&c).representatives;
    let pats = patterns(&c, 64, 7);
    let big = {
        let mut sim = ConcurrentSim::with_probe(
            &c,
            &faults,
            CsimVariant::V.options(),
            TraceRecorder::new(Instant::now(), TraceConfig::default()),
        );
        sim.run(&pats);
        sim.probe().clone()
    };
    let tiny = {
        let mut sim = ConcurrentSim::with_probe(
            &c,
            &faults,
            CsimVariant::V.options(),
            TraceRecorder::new(
                Instant::now(),
                TraceConfig {
                    capacity: 64,
                    quiescence_window: 32,
                },
            ),
        );
        sim.run(&pats);
        sim.probe().clone()
    };
    assert_eq!(big.dropped_events(), 0, "default ring holds the whole run");
    assert!(tiny.dropped_events() > 0, "tiny ring overflowed");
    assert_eq!(tiny.len(), 64, "ring bounded at capacity");
    assert_eq!(
        tiny.recorded_events(),
        big.recorded_events(),
        "recorded counter unaffected by overflow"
    );
    let totals_big: Vec<u64> = big.node_activity().iter().map(|a| a.total()).collect();
    let totals_tiny: Vec<u64> = tiny.node_activity().iter().map(|a| a.total()).collect();
    assert_eq!(
        totals_big, totals_tiny,
        "per-node totals are overflow-exact"
    );
}
