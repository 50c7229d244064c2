//! `fsim-bench`: times whole `fsim` invocations on four workloads, and
//! breaks one traced run of each into the layers of the pipeline.
//!
//! # Running
//!
//! From the repository root, `fsim-bench/run.sh` builds the release `fsim`
//! and this benchmark into one cargo target directory (`$CARGO_TARGET_DIR`,
//! default `target`), where the benchmark finds `fsim` next to itself, and
//! passes its arguments on:
//!
//! ```text
//! bash fsim-bench/run.sh --workload stuck-large --seed 3 --seconds 10 --trace 0
//! bash fsim-bench/run.sh --seed 1 --json a.json            # all four workloads
//! bash fsim-bench/run.sh --seed 1 --trace 1 --trace-out trace.json
//! bash fsim-bench/run.sh --compare a.json b.json
//! cargo test --manifest-path fsim-bench/Cargo.toml
//! ```
//!
//! - `--workload NAME`: one workload; by default all four, interleaved
//!   round-robin so drift on a shared host spreads evenly over them.
//! - `--seed N` (default 1) draws the pattern files; circuits are fixed.
//! - `--seconds S` (default 10) of measured invocations per workload.
//! - `--trace 0` reports the end-to-end metrics, `--trace 1` the
//!   per-layer ones; without the flag, both.
//! - `--json FILE` writes every metric with its samples for `--compare`.
//! - `--trace-out FILE` writes the traced run's spans (run ⊃ workload ⊃
//!   stage ⊃ pattern step, scheduler tasks on worker tracks) as Chrome-trace
//!   JSON for Perfetto.
//! - `--fsim PATH` replaces the `fsim` found next to this executable.
//! - `--compare A.json B.json` judges run B against run A with the bounds
//!   of `BENCHMARK.json` (read from the working directory): one row per
//!   workload, each metric `same`, `worse` (median worse by more than the
//!   bound) or `unresolved` (IQR wider than the bound); any rise in the
//!   failed share is `worse`. Exits 1 when anything is worse.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit status is 0 when every
//! output was correct, 1 when one was not, and 2 on a usage or I/O error.
//!
//! # One run
//!
//! Each workload is a closed loop with one client: an `fsim` invocation
//! starts when the previous one has exited. Per workload the run
//!
//! 1. writes the `.bench` files and seeded pattern files under
//!    `target/fsim-bench/`;
//! 2. makes one discarded warm-up invocation. Its detections must equal
//!    the seed-1 count and FNV-1a pinned in [`workload::WORKLOADS`]; for
//!    any other seed they must agree with one untimed run of an
//!    independent path: PROOFS for `stuck-large` and `small-sweep`, serial
//!    `fsim transition` for `transition-sharded`, and `--prune` without
//!    `--learn` for `stuck-learned`;
//! 3. makes set-up invocations on a header-only pattern file for 2 s (at
//!    least 3);
//! 4. makes measured invocations for `--seconds` (at least 3), each of
//!    whose detection files must be byte-identical to the warm-up's;
//! 5. with tracing, runs the pipeline once in-process (see [`pipeline`]),
//!    prints each stage's total and self time, and checks that the stages
//!    add up to the traced wall within 5%.
//!
//! An invocation that exits non-zero, runs past 120 s, or writes other
//! detections counts in `failed`, and the run exits 1.
//!
//! Known deviation: the concurrent engine detects some flip-flop-output
//! stuck-at faults later than PROOFS, serial and deductive simulation do,
//! while the good machine's state is still unknown (try `fsim sim @s298g
//! --random 384 --seed 16` against `--simulator proofs`). About 1 in 40
//! small-circuit random runs shows it. The PROOFS cross-check tolerates
//! exactly that case, prints how many faults it excused, and fails on any
//! other difference.
//!
//! # End-to-end metrics
//!
//! Measured with tracing off, on the `fsim` child processes, from `std`
//! and `/proc` only. Each is the median over the run's invocations; a
//! `small-sweep` invocation is the sum (for RSS, the maximum) over its 16
//! `fsim` calls.
//!
//! | name | unit | what |
//! |---|---|---|
//! | `wall_s` | s | spawn to exit |
//! | `setup_s` | s | the same command on a zero-pattern file: start, parse, check, collapse, analyze and learn, build, output |
//! | `cpu_s` | s | child user + system CPU: the change of `/proc/self/stat` `cutime + cstime` across the wait (10 ms ticks) |
//! | `peak_rss_mb` | MB | child `VmHWM` from `/proc/<pid>/status`, polled every 10 ms until exit |
//!
//! Failures are counted in `failed` out of `attempted`, not as a metric,
//! because a metric must never read 0.
//!
//! # Per-layer metrics
//!
//! From one traced run that calls, in-process and in the CLI's order, the
//! public functions `fsim` calls, with a span around each.
//!
//! | name | unit | what |
//! |---|---|---|
//! | `check.preflight_s` | s | read + `check_bench_source` |
//! | `netlist.parse_s` | s | read + `parse_bench` |
//! | `patterns.parse_s` | s | read + parse the pattern file |
//! | `analyze.s` | s | `analyze_circuit` (`--prune` only) |
//! | `analyze.pruned_frac` | ratio | statically pruned ÷ full universe |
//! | `learn.graph_s` | s | `ImplicationGraph::build` (`--learn` only) |
//! | `learn.prune_s` | s | `prune_stuck_at_learned` |
//! | `learn.conflict_frac` | ratio | conflict-pruned ÷ static-prune survivors examined |
//! | `faults.universe_s` | s | collapse / enumerate / copy the simulated faults |
//! | `faults.expand_s` | s | statuses back onto the reported universe |
//! | `core.build_s` | s | simulator construction |
//! | `core.step_s` | s | every pattern stepped (the scheduler's run when sharded) |
//! | `core.step_p50_us`, `core.step_p99_us` | us | per-pattern step time; per shard-pattern from the task spans when sharded |
//! | `core.good_only_s` | s | the same patterns through a fault-free simulator: the floor fault-machine work sits on |
//! | `core.fault_share` | ratio | 1 − `good_only_s` ÷ `step_s` |
//! | `core.events_per_pattern`, `core.evals_per_pattern` | count | node activations, faulty-machine evaluations |
//! | `core.detect_yield` | ratio | detected ÷ simulated faults |
//! | `core.peak_elements` | count | peak live fault-list elements |
//! | `core.memory_mb` | MB | the paper's memory model at the end of the run |
//! | `sched.tasks`, `sched.steals` | count | scheduler (shard × window) tasks and steals; 0 off the scheduler |
//! | `sched.cpu_per_wall` | ratio | process CPU ÷ wall over `core.step` |
//! | `report.write_s` | s | write the `--detections` file |
//! | `cli.other_s` | s | `wall_s` − the traced stage sum: process start, loading, flag parsing |
//! | `trace.overhead_frac` | ratio | traced wall ÷ `wall_s` − 1 (negative when skipping process start outweighs the spans) |
//!
//! A stage the workload's flags skip still has its span, around the
//! skipped call, so it reads near zero rather than exactly zero.
//!
//! # Which end-to-end metric each layer should move
//!
//! | layer metrics | should move | where it shows | where it should not move |
//! |---|---|---|---|
//! | `core.*` | `wall_s` | `stuck-large`, `transition-sharded` | `stuck-learned`, `small-sweep` |
//! | `learn.*` | `wall_s`, `setup_s` | `stuck-learned` | all other workloads |
//! | `sched.*` | `wall_s`, `cpu_s` | `transition-sharded` | all other workloads |
//! | `netlist.*`, `check.*`, `faults.*`, `core.build_s`, `cli.other_s` | `setup_s` on every workload; `wall_s` | `small-sweep` | — |
//! | `core.memory_mb` | `peak_rss_mb` | `stuck-large` | — |
//!
//! Why each workload was chosen is in `BENCHMARK.json`.
//!
//! # First results
//!
//! Seed 1 on a 2-vCPU Xeon virtual machine on a shared host, all four
//! workloads in one run (medians):
//!
//! | workload | `wall_s` | `setup_s` | `cpu_s` | `peak_rss_mb` |
//! |---|---|---|---|---|
//! | `stuck-large` | 3.05 | 0.40 | 3.05 | 27.0 |
//! | `stuck-learned` | 1.41 | 1.23 | 1.40 | 5.0 |
//! | `transition-sharded` | 1.03 | 0.17 | 1.80 | 29.5 |
//! | `small-sweep` | 0.45 | 0.14 | 0.44 | 4.5 |
//!
//! - `stuck-learned`: learning is 94% of the traced wall
//!   (`learn.graph_s` 0.76 s + `learn.prune_s` 0.53 s of 1.37 s) against
//!   0.06 s of stepping, and `setup_s` is 88% of `wall_s`.
//! - `stuck-large`: `core.step_s` is 2.71 s of a 3.16 s traced wall (86%)
//!   and `core.fault_share` is 0.93: the fault-free machine steps the same
//!   patterns in 0.18 s. Set-up is mostly `check.preflight_s` (0.17 s) and
//!   `core.build_s` (0.25 s).
//! - `transition-sharded`: `sched.cpu_per_wall` is 1.95 over 16 tasks, and
//!   `cpu_s` is 1.75× `wall_s`.
//! - `small-sweep`: `core.build_s` (0.087 s) and `check.preflight_s`
//!   (0.043 s) are a third of the 0.42 s traced sweep.
//! - Over ten seeds the IQR of `wall_s` and `cpu_s` was 7–17% of the
//!   median, depending on the hour, and of `peak_rss_mb` at most 5%. The
//!   host's speed drifts over minutes, which no statistic inside one run
//!   removes; hence the 25% bounds on the timings.

mod child;
mod compare;
mod pipeline;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use cfs_telemetry::JsonValue;

use crate::child::Measured;
use crate::pipeline::{Layers, STAGES};
use crate::stats::{iqr, median, percentile, Fnv1a};
use crate::trace::{self_times_us, Recorder};
use crate::workload::{Job, Workload, WORKLOADS};

/// The seed whose detections are pinned in [`Workload::pinned`].
const PINNED_SEED: u64 = 1;
/// Measured invocations per workload, at least, however short `--seconds`.
const MIN_RUNS: usize = 3;
/// Seconds of zero-pattern invocations behind `setup_s`, at least
/// [`MIN_RUNS`] of them.
const SETUP_SECONDS: f64 = 2.0;
/// An invocation running longer than this is killed and counts as failed.
const TIMEOUT: Duration = Duration::from_secs(120);
/// Where inputs and detection files go, relative to the working directory.
const INPUT_DIR: &str = "target/fsim-bench";

/// End-to-end metrics, measured on `fsim` child processes.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: fsim-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                  [--json FILE] [--trace-out FILE] [--fsim PATH]
       fsim-bench --compare A.json B.json";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: report both metric sets.
    trace: Option<bool>,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    fsim: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: None,
        json: None,
        trace_out: None,
        fsim: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                });
            }
            "--json" => args.json = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--fsim" => args.fsim = Some(value()?.into()),
            "--compare" => {
                let a = value()?.into();
                let b = it.next().ok_or("--compare needs two files")?.into();
                args.compare = Some((a, b));
            }
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match &args.compare {
        Some((a, b)) => run_compare(a, b),
        None => run_benchmark(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fsim-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text =
            fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        JsonValue::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rules = compare::rules(&load(Path::new("BENCHMARK.json"))?)?;
    let rows = compare::compare(&rules, &load(a)?, &load(b)?)?;
    let mut no_worse = true;
    for (workload, verdicts) in rows {
        let cells: Vec<String> = verdicts
            .iter()
            .map(|(metric, v)| {
                no_worse &= *v != compare::Verdict::Worse;
                format!("{metric}={v}")
            })
            .collect();
        println!("{workload:<20} {}", cells.join("  "));
    }
    Ok(no_worse)
}

/// One workload's state through a benchmark run.
struct Run {
    w: &'static Workload,
    jobs: Vec<Job>,
    /// Detected count and FNV-1a every full invocation must reproduce;
    /// `None` until the warm-up has fixed them.
    expected: Option<(usize, u64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per-invocation samples; an invocation of a multi-circuit workload
    /// sums its jobs' times and takes the largest of their peak RSS.
    setup: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    rss: Vec<f64>,
    layers: Option<Layers>,
}

impl Run {
    /// The first, discarded invocation, which also fixes the detections
    /// every later one must reproduce: for seed 1 the values compiled in;
    /// for any other seed its own output, once it agrees with an untimed
    /// run of the workload's independent path.
    fn warm_up(&mut self, fsim: &Path, seed: u64) -> Result<(), String> {
        if seed == PINNED_SEED {
            self.expected = Some(self.w.pinned);
            self.invoke(fsim, false)?;
            return Ok(());
        }
        for job in &self.jobs {
            let _ = fs::remove_file(&job.reference);
            let args = workload::cross_check_args(self.w, job);
            let m =
                child::run(fsim, &args, TIMEOUT).map_err(|e| format!("cannot run fsim: {e}"))?;
            if !m.ok {
                return Err(format!(
                    "{}: cross-check `fsim {}` failed",
                    self.w.name,
                    args.join(" ")
                ));
            }
        }
        if !self.invoke(fsim, false)?.ok {
            return Ok(());
        }
        self.expected = Some(
            workload::detections_digest(self.jobs.iter().map(|j| j.detections.as_path()))
                .map_err(|e| format!("detections: {e}"))?,
        );
        let mut tolerated = 0;
        let mut disagreed = false;
        for job in &self.jobs {
            match workload::agree(self.w, job) {
                Ok(n) => tolerated += n,
                Err(e) => {
                    disagreed = true;
                    self.problems.push(format!("cross-check: {e}"));
                }
            }
        }
        // The warm-up invocation is the one that failed.
        self.failed += u64::from(disagreed);
        if tolerated > 0 {
            println!(
                "{}: {tolerated} flip-flop-output fault(s) detected earlier by PROOFS (known deviation)",
                self.w.name
            );
        }
        Ok(())
    }

    /// One workload invocation (the whole sweep for multi-circuit
    /// workloads), checked against the expected detections, if any; `ok`
    /// is false when it failed.
    fn invoke(&mut self, fsim: &Path, setup: bool) -> Result<Measured, String> {
        let mut total = Measured {
            wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            ok: true,
        };
        for job in &self.jobs {
            let _ = fs::remove_file(&job.detections);
            let patterns = if setup { &job.empty } else { &job.patterns };
            let args = workload::fsim_args(self.w, job, patterns, &job.detections);
            let m =
                child::run(fsim, &args, TIMEOUT).map_err(|e| format!("cannot run fsim: {e}"))?;
            total.wall_s += m.wall_s;
            total.cpu_s += m.cpu_s;
            total.peak_rss_mb = total.peak_rss_mb.max(m.peak_rss_mb);
            total.ok &= m.ok;
        }
        let expected = if setup {
            Some((0, Fnv1a::default().finish()))
        } else {
            self.expected
        };
        self.attempted += 1;
        let problem = if !total.ok {
            Some("an invocation exited non-zero or timed out".to_owned())
        } else if let Some(expected) = expected {
            self.check_detections(expected).err()
        } else {
            None
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
            total.ok = false;
        }
        Ok(total)
    }

    fn check_detections(&self, expected: (usize, u64)) -> Result<(), String> {
        let got = workload::detections_digest(self.jobs.iter().map(|j| j.detections.as_path()))
            .map_err(|e| format!("detections: {e}"))?;
        if got == expected {
            return Ok(());
        }
        Err(format!(
            "wrong detections: {} with hash {:#018x}, expected {} with hash {:#018x}",
            got.0, got.1, expected.0, expected.1
        ))
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// `(name, unit, value)` of every end-to-end metric: the median of its
    /// samples.
    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, median_or_zero(self.samples(name))))
            .collect()
    }

    fn samples(&self, metric: &str) -> &[f64] {
        match metric {
            "wall_s" => &self.wall,
            "setup_s" => &self.setup,
            "cpu_s" => &self.cpu,
            _ => &self.rss,
        }
    }

    /// `(name, unit, value)` of every per-layer metric of the traced run.
    fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let Some(l) = &self.layers else {
            return Vec::new();
        };
        let wall = median_or_zero(&self.wall);
        let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
        let pct = |p: f64| {
            if l.step_us.is_empty() {
                0.0
            } else {
                percentile(&l.step_us, p)
            }
        };
        let patterns = l.patterns as f64;
        let step_s = l.stage("core.step");
        let stage_sum: f64 = l.stage_s.iter().sum();
        let survivors = l.prune_full.saturating_sub(l.pruned_static) as f64;
        vec![
            ("check.preflight_s", "s", l.stage("check.preflight")),
            ("netlist.parse_s", "s", l.stage("netlist.parse")),
            ("patterns.parse_s", "s", l.stage("patterns.parse")),
            ("analyze.s", "s", l.stage("analyze")),
            (
                "analyze.pruned_frac",
                "ratio",
                ratio(l.pruned_static as f64, l.prune_full as f64),
            ),
            ("learn.graph_s", "s", l.stage("learn.graph")),
            ("learn.prune_s", "s", l.stage("learn.prune")),
            (
                "learn.conflict_frac",
                "ratio",
                ratio(l.pruned_conflict as f64, survivors),
            ),
            ("faults.universe_s", "s", l.stage("faults.universe")),
            ("faults.expand_s", "s", l.stage("faults.expand")),
            ("core.build_s", "s", l.stage("core.build")),
            ("core.step_s", "s", step_s),
            ("core.step_p50_us", "us", pct(50.0)),
            ("core.step_p99_us", "us", pct(99.0)),
            ("core.good_only_s", "s", l.good_only_s),
            (
                "core.fault_share",
                "ratio",
                1.0 - ratio(l.good_only_s, step_s),
            ),
            (
                "core.events_per_pattern",
                "count",
                ratio(l.events as f64, patterns),
            ),
            (
                "core.evals_per_pattern",
                "count",
                ratio(l.evals as f64, patterns),
            ),
            (
                "core.detect_yield",
                "ratio",
                ratio(l.detected as f64, l.simulated as f64),
            ),
            ("core.peak_elements", "count", l.peak_elements as f64),
            ("core.memory_mb", "MB", l.memory_bytes as f64 / 1e6),
            ("sched.tasks", "count", l.tasks as f64),
            ("sched.steals", "count", l.steals as f64),
            ("sched.cpu_per_wall", "ratio", ratio(l.step_cpu_s, step_s)),
            ("report.write_s", "s", l.stage("report.write")),
            ("cli.other_s", "s", wall - stage_sum),
            ("trace.overhead_frac", "ratio", ratio(l.wall_s - wall, wall)),
        ]
    }
}

fn locate_fsim(explicit: Option<&PathBuf>) -> Result<PathBuf, String> {
    let path = match explicit {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate own executable: {e}"))?
            .with_file_name("fsim"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "no fsim binary at {} (build it with `cargo build --release -p cfs-cli`, or pass --fsim)",
            path.display()
        ))
    }
}

fn run_benchmark(args: &Args) -> Result<bool, String> {
    let fsim = locate_fsim(args.fsim.as_ref())?;
    let dir = Path::new(INPUT_DIR);
    let mut runs = Vec::new();
    for &w in &args.workloads {
        let jobs = workload::prepare(w, args.seed, dir)
            .map_err(|e| format!("cannot write inputs under {}: {e}", dir.display()))?;
        runs.push(Run {
            w,
            jobs,
            expected: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setup: Vec::new(),
            wall: Vec::new(),
            cpu: Vec::new(),
            rss: Vec::new(),
            layers: None,
        });
    }
    // The warm-up invocation also fills the page cache with the inputs.
    for run in &mut runs {
        run.warm_up(&fsim, args.seed)?;
    }
    measure(&mut runs, &fsim, true, SETUP_SECONDS)?;
    measure(&mut runs, &fsim, false, args.seconds)?;
    if args.trace != Some(false) {
        traced_runs(&mut runs, args.trace_out.as_deref())?;
    }
    report(args, &runs)
}

/// Invokes the workloads round-robin, so drift on a shared host spreads
/// evenly over them, until each has had [`MIN_RUNS`] invocations and
/// `seconds` of them. Each workload is a closed loop with one client: its
/// next invocation starts when the previous one has exited.
fn measure(runs: &mut [Run], fsim: &Path, setup: bool, seconds: f64) -> Result<(), String> {
    let mut spent = vec![(0usize, 0.0f64); runs.len()];
    loop {
        let mut busy = false;
        for (run, (tries, secs)) in runs.iter_mut().zip(&mut spent) {
            if *tries >= MIN_RUNS && *secs >= seconds {
                continue;
            }
            busy = true;
            let m = run.invoke(fsim, setup)?;
            *tries += 1;
            *secs += m.wall_s;
            if !m.ok {
                continue;
            }
            if setup {
                run.setup.push(m.wall_s);
            } else {
                run.wall.push(m.wall_s);
                run.cpu.push(m.cpu_s);
                run.rss.push(m.peak_rss_mb);
            }
        }
        if !busy {
            return Ok(());
        }
    }
}

/// One traced in-process run per workload, checked like the timed ones.
fn traced_runs(runs: &mut [Run], trace_out: Option<&Path>) -> Result<(), String> {
    let mut rec = Recorder::default();
    let root = rec.begin("run");
    for run in runs.iter_mut() {
        let layers = pipeline::traced(&mut rec, run.w, &run.jobs)?;
        run.attempted += 1;
        if let Some(Err(e)) = run.expected.map(|e| run.check_detections(e)) {
            run.failed += 1;
            run.problems.push(format!("traced run: {e}"));
        }
        let stage_sum: f64 = layers.stage_s.iter().sum();
        if (layers.wall_s - stage_sum).abs() > 0.05 * layers.wall_s {
            run.problems.push(format!(
                "traced stages sum to {stage_sum:.4} s of a {:.4} s wall",
                layers.wall_s
            ));
        }
        run.layers = Some(layers);
    }
    rec.end(root);
    print_self_times(&rec, runs);
    if let Some(path) = trace_out {
        fs::write(path, rec.chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote Chrome trace to {}", path.display());
    }
    Ok(())
}

/// Prints each stage's total and self time (minus its pattern spans) per
/// workload of the traced run.
fn print_self_times(rec: &Recorder, runs: &[Run]) {
    let spans = rec.spans();
    let own = self_times_us(spans);
    let workloads: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "workload")
        .collect();
    for (run, &w) in runs.iter().zip(&workloads) {
        println!(
            "{} traced: {:.4} s wall; stage   total_s   self_s",
            run.w.name,
            spans[w].dur_us / 1e6
        );
        for stage in STAGES {
            let (mut total, mut own_us) = (0.0, 0.0);
            for (i, s) in spans.iter().enumerate() {
                if s.parent == Some(w) && s.name == *stage {
                    total += s.dur_us;
                    own_us += own[i];
                }
            }
            println!("  {stage:<18} {:>9.4} {:>9.4}", total / 1e6, own_us / 1e6);
        }
    }
}

fn report(args: &Args, runs: &[Run]) -> Result<bool, String> {
    let e2e = args.trace != Some(true);
    let layered = args.trace != Some(false);
    let single = runs.len() == 1;
    let mut metrics = std::collections::BTreeMap::new();
    let mut results = std::collections::BTreeMap::new();
    for run in runs {
        let detections = match run.expected {
            Some((n, hash)) => format!("{n} detections, FNV-1a {hash:#018x}"),
            None => "no reference detections".to_owned(),
        };
        println!(
            "{}: {} attempted, {} failed; {detections}",
            run.w.name, run.attempted, run.failed
        );
        for p in &run.problems {
            println!("  problem: {p}");
        }
        let mut shown = Vec::new();
        if e2e {
            shown.extend(run.end_to_end());
        }
        if layered {
            shown.extend(run.per_layer());
        }
        let mut record = std::collections::BTreeMap::new();
        for (name, unit, value) in shown {
            let entry = obj([
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::Str(unit.into())),
            ]);
            let key = if single {
                name.to_owned()
            } else {
                format!("{}/{name}", run.w.name)
            };
            metrics.insert(key, entry.clone());
            let mut m = entry;
            if END_TO_END.iter().any(|(n, _)| *n == name) {
                let s = run.samples(name);
                let spread = if s.is_empty() { 0.0 } else { iqr(s) };
                println!(
                    "  {name:<24} {value:>14.6} {unit:<6} IQR {spread:.6}  n {}",
                    s.len()
                );
                if let JsonValue::Obj(map) = &mut m {
                    map.insert("iqr".into(), JsonValue::Num(spread));
                    map.insert("n".into(), JsonValue::Num(s.len() as f64));
                    map.insert(
                        "samples".into(),
                        JsonValue::Arr(s.iter().map(|&x| JsonValue::Num(x)).collect()),
                    );
                }
            } else {
                println!("  {name:<24} {value:>14.6} {unit}");
            }
            record.insert(name.to_owned(), m);
        }
        results.insert(
            run.w.name.to_owned(),
            obj([
                ("attempted", JsonValue::Num(run.attempted as f64)),
                ("failed", JsonValue::Num(run.failed as f64)),
                ("correct", JsonValue::Bool(run.correct())),
                ("metrics", JsonValue::Obj(record)),
            ]),
        );
    }
    if let Some(path) = &args.json {
        let doc = obj([
            ("seed", JsonValue::Num(args.seed as f64)),
            ("seconds", JsonValue::Num(args.seconds)),
            ("workloads", JsonValue::Obj(results)),
        ]);
        fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let correct = runs.iter().all(Run::correct);
    let line = obj([
        ("correct", JsonValue::Bool(correct)),
        (
            "attempted",
            JsonValue::Num(runs.iter().map(|r| r.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            JsonValue::Num(runs.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics", JsonValue::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(correct)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics and workloads the program reports are exactly the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            JsonValue::parse(&fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let run = Run {
            w: &WORKLOADS[0],
            jobs: Vec::new(),
            expected: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setup: vec![1.0],
            wall: vec![1.0],
            cpu: vec![1.0],
            rss: vec![1.0],
            layers: Some(Layers {
                stage_s: vec![0.0; STAGES.len()],
                ..Layers::default()
            }),
        };
        let named = |v: Vec<(&str, &str, f64)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u, _)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), named(run.end_to_end()));
        assert_eq!(declared("per_layer"), named(run.per_layer()));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(workloads, ours);
    }
}
