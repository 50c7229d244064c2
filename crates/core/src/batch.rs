//! Pattern-batch windows and the unified work-stealing scheduler.
//!
//! The concurrent engine parallelizes along two independent axes: faults
//! (disjoint shards, each its own engine) and stimuli (the pattern
//! sequence, split into *windows*). A (shard × window) pair is one task;
//! shard `s`'s tasks must run in window order because the engine carries
//! sequential DFF/arena state across patterns — finishing window `w`
//! *is* the committed-state handoff to window `w + 1`, no checkpointing
//! required. Tasks of different shards are fully independent once the
//! shared good-machine trace for their window exists.
//!
//! [`run_windows`] schedules those tasks over a fixed pool of workers
//! with per-worker deques and work stealing: a worker pops its own deque
//! front-first, and when empty steals from the back of a victim deque in
//! a seeded scan order. The caller's thread acts as the *coordinator*:
//! it produces good-machine traces window by window (sequential by
//! nature — the good machine is one state machine) with a bounded
//! lookahead over the slowest shard, so trace memory stays at a few
//! windows regardless of run length.
//!
//! Scheduling never affects results: which worker runs a task changes
//! nothing about the task, and every schedule the scheduler can produce
//! runs each shard's windows in order against identical traces. The
//! seeded-schedule generator ([`seeded_schedule`]) makes that claim
//! testable without relying on thread timing: it enumerates a valid
//! interleaving deterministically from a seed, which the simulators can
//! replay single-threaded (`run_seeded`) and compare bit-for-bit.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Default pattern-window size: the window of every scheduled run that
/// names none (`fsim --threads N` without `--batch-windows`). Results and
/// counters do not depend on it; it sets the task grain and, with
/// the scheduler's fixed lookahead, how many good traces the coordinator
/// holds at once.
pub const DEFAULT_WINDOW: usize = 128;

/// Windows of traces the coordinator may produce beyond the slowest
/// shard's frontier. At least 1 (or the slowest shard could never run);
/// small, so trace memory stays bounded at `LOOKAHEAD` windows.
const LOOKAHEAD: usize = 4;

/// Seed of every worker's steal victim scan, mixed with the worker index.
const STEAL_SEED: u64 = 0x5EED_1992;

/// Pattern-batch configuration for the two-dimensional scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOptions {
    /// Patterns per window; `0` means one window spanning the whole run.
    pub window: usize,
    /// Allow idle workers to steal runnable shards from other workers'
    /// deques (`fsim --steal`). Off by default: every shard stays with
    /// its home worker (static dispatch). Results are identical either
    /// way.
    pub steal: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            window: DEFAULT_WINDOW,
            steal: false,
        }
    }
}

/// Splits `0..total` into consecutive half-open windows of `window`
/// patterns (the last may be shorter). `window == 0` yields a single
/// window spanning the whole run; `total == 0` yields no windows.
///
/// The result is an exact in-order cover: window `k` is
/// `[k*window, min((k+1)*window, total))`.
pub fn window_bounds(total: usize, window: usize) -> Vec<(usize, usize)> {
    if total == 0 {
        return Vec::new();
    }
    if window == 0 {
        return vec![(0, total)];
    }
    let mut out = Vec::with_capacity(total.div_ceil(window));
    let mut lo = 0;
    while lo < total {
        let hi = (lo + window).min(total);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// One executed (shard × window) task, for trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Worker that ran the task.
    pub worker: u32,
    /// Fault shard.
    pub shard: u32,
    /// Pattern window index.
    pub window: u32,
    /// Patterns in the window.
    pub patterns: u32,
    /// Start, microseconds from scheduler start.
    pub start_micros: u64,
    /// End, microseconds from scheduler start.
    pub end_micros: u64,
}

/// One successful steal, for trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEvent {
    /// Worker that stole.
    pub worker: u32,
    /// Worker whose deque was robbed.
    pub victim: u32,
    /// The shard that moved.
    pub shard: u32,
    /// The shard's next window at the time of the steal.
    pub window: u32,
    /// Microseconds from scheduler start.
    pub ts_micros: u64,
}

/// What one scheduler run did: task count, steal activity, and the raw
/// spans/steals for trace export. Purely observational — none of it
/// feeds back into simulation results.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Worker threads started: at most one per shard.
    pub workers: usize,
    /// Pattern windows.
    pub windows: usize,
    /// (shard × window) tasks executed.
    pub tasks: u64,
    /// Successful steals.
    pub steals: u64,
    /// Every executed task, in completion-record order.
    pub spans: Vec<TaskSpan>,
    /// Every successful steal, in occurrence order.
    pub steal_events: Vec<StealEvent>,
}

/// Shared scheduler state: one mutex, one condvar. Workers hold the lock
/// only to move shard ids between deques; all simulation work happens
/// outside it.
struct SchedState<T> {
    /// Runnable shards per worker (own pops front, thieves pop back).
    deques: Vec<VecDeque<usize>>,
    /// Next window each shard must run (`== windows` when finished).
    next_window: Vec<usize>,
    /// Shards whose next trace is not yet produced: `(shard, worker)`.
    waiting: Vec<(usize, usize)>,
    /// Published good traces, freed once every shard passed the window.
    traces: Vec<Option<Arc<T>>>,
    /// Windows with published traces (a prefix: produced in order).
    produced: usize,
    /// Shards still to run each window.
    remaining: Vec<usize>,
    /// Shards that ran every window.
    finished: usize,
    /// Observational records.
    spans: Vec<TaskSpan>,
    steal_events: Vec<StealEvent>,
}

impl<T> SchedState<T> {
    /// The slowest unfinished shard's next window (`windows` when all
    /// are finished) — the frontier the coordinator's lookahead tracks.
    fn min_next(&self, windows: usize) -> usize {
        self.next_window.iter().copied().min().unwrap_or(windows)
    }
}

/// xorshift64*: cheap deterministic sequence for victim scan order.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs every (shard × window) task over `threads` workers (at most one
/// per shard) plus the calling thread as trace coordinator.
///
/// * `produce(w)` is called exactly once per window, in window order, on
///   the calling thread — the sequential good machine.
/// * `run(shard, window, &trace)` is called exactly once per pair, with
///   shard's windows strictly in order; calls for one shard never
///   overlap, so `run` may mutate per-shard state behind an uncontended
///   lock.
///
/// Returns the scheduling record. Results of `run` must not depend on
/// schedule order across shards — that is the caller's (machine-checked)
/// serial-identical guarantee.
///
/// # Panics
///
/// Panics if `threads == 0` or `num_shards == 0`, or if a worker
/// panicked (propagated by the thread scope).
pub(crate) fn run_windows<T, FP, FR>(
    threads: usize,
    num_shards: usize,
    window_sizes: &[usize],
    steal: bool,
    mut produce: FP,
    run: FR,
) -> SchedStats
where
    T: Send + Sync,
    FP: FnMut(usize) -> T,
    FR: Fn(usize, usize, &T) + Sync,
{
    assert!(threads > 0, "at least one worker");
    assert!(num_shards > 0, "at least one shard");
    // A worker beyond the shard count would never hold a task.
    let threads = threads.min(num_shards);
    let windows = window_sizes.len();
    if windows == 0 {
        return SchedStats {
            workers: threads,
            ..SchedStats::default()
        };
    }
    let epoch = Instant::now();
    // Every shard starts *waiting* on window 0's trace; the coordinator
    // moves shards onto their home worker's deque as traces publish, so
    // deque membership always implies the shard's next trace exists.
    let shared = Mutex::new(SchedState {
        deques: vec![VecDeque::new(); threads],
        next_window: vec![0; num_shards],
        waiting: (0..num_shards).map(|s| (s, s % threads)).collect(),
        traces: (0..windows).map(|_| None).collect(),
        produced: 0,
        remaining: vec![num_shards; windows],
        finished: 0,
        spans: Vec::with_capacity(num_shards * windows),
        steal_events: Vec::new(),
    });
    let cv = Condvar::new();
    let micros = |e: &Instant| u64::try_from(e.elapsed().as_micros()).unwrap_or(u64::MAX);

    std::thread::scope(|scope| {
        for me in 0..threads {
            let shared = &shared;
            let cv = &cv;
            let run = &run;
            let epoch = &epoch;
            let mut rng = (STEAL_SEED ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
            scope.spawn(move || loop {
                // Acquire a runnable shard: own deque, then (if stealing
                // is on) a victim scan starting at a seeded offset.
                let mut st = shared.lock().expect("scheduler lock");
                let shard = loop {
                    if st.finished == num_shards {
                        return;
                    }
                    if let Some(s) = st.deques[me].pop_front() {
                        break s;
                    }
                    if steal && threads > 1 {
                        let offset = (xorshift(&mut rng) as usize) % threads;
                        let mut stolen = None;
                        for k in 0..threads {
                            let victim = (offset + k) % threads;
                            if victim == me {
                                continue;
                            }
                            if let Some(s) = st.deques[victim].pop_back() {
                                let ev = StealEvent {
                                    worker: me as u32,
                                    victim: victim as u32,
                                    shard: s as u32,
                                    window: st.next_window[s] as u32,
                                    ts_micros: micros(epoch),
                                };
                                st.steal_events.push(ev);
                                stolen = Some(s);
                                break;
                            }
                        }
                        if let Some(s) = stolen {
                            break s;
                        }
                    }
                    st = cv.wait(st).expect("scheduler lock");
                };
                let w = st.next_window[shard];
                let trace = st.traces[w].clone().expect("runnable implies trace");
                drop(st);

                let start = micros(epoch);
                run(shard, w, &trace);
                let end = micros(epoch);
                drop(trace);

                let mut st = shared.lock().expect("scheduler lock");
                st.spans.push(TaskSpan {
                    worker: me as u32,
                    shard: shard as u32,
                    window: w as u32,
                    patterns: window_sizes[w] as u32,
                    start_micros: start,
                    end_micros: end,
                });
                st.remaining[w] -= 1;
                if st.remaining[w] == 0 {
                    st.traces[w] = None; // every shard passed: free it
                }
                st.next_window[shard] = w + 1;
                if w + 1 == windows {
                    st.finished += 1;
                } else if w + 1 < st.produced {
                    st.deques[me].push_back(shard);
                } else {
                    st.waiting.push((shard, me));
                }
                drop(st);
                // Wake idle workers (a shard became runnable or the run
                // finished) and the coordinator (the frontier advanced).
                cv.notify_all();
            });
        }

        // Coordinator: the calling thread produces traces in window
        // order, a bounded lookahead past the slowest shard.
        let mut st = shared.lock().expect("scheduler lock");
        loop {
            if st.finished == num_shards {
                break;
            }
            let next = st.produced;
            if next < windows && next < st.min_next(windows) + LOOKAHEAD {
                drop(st);
                let trace = Arc::new(produce(next));
                st = shared.lock().expect("scheduler lock");
                st.traces[next] = Some(trace);
                st.produced = next + 1;
                // Shards stalled on this trace become runnable on their
                // recorded worker's deque.
                let produced = st.produced;
                let mut k = 0;
                while k < st.waiting.len() {
                    let (s, home) = st.waiting[k];
                    if st.next_window[s] < produced {
                        st.waiting.swap_remove(k);
                        st.deques[home].push_back(s);
                    } else {
                        k += 1;
                    }
                }
                cv.notify_all();
            } else {
                st = cv.wait(st).expect("scheduler lock");
            }
        }
        let stats = SchedStats {
            workers: threads,
            windows,
            tasks: st.spans.len() as u64,
            steals: st.steal_events.len() as u64,
            spans: std::mem::take(&mut st.spans),
            steal_events: std::mem::take(&mut st.steal_events),
        };
        drop(st);
        cv.notify_all();
        stats
    })
}

/// Generates a deterministic valid task interleaving from a seed: every
/// `(shard, window)` pair exactly once, each shard's windows in order,
/// shards interleaved pseudo-randomly. This is the schedule space the
/// work stealer draws from, enumerable without thread timing — replaying
/// one (`ParallelSim::run_seeded`) must give bit-identical results for
/// every seed.
pub fn seeded_schedule(num_shards: usize, num_windows: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut next = vec![0usize; num_shards];
    let mut live: Vec<usize> = (0..num_shards).collect();
    let mut rng = seed | 1;
    let mut out = Vec::with_capacity(num_shards * num_windows);
    if num_windows == 0 {
        return out;
    }
    while !live.is_empty() {
        let k = (xorshift(&mut rng) as usize) % live.len();
        let s = live[k];
        out.push((s, next[s]));
        next[s] += 1;
        if next[s] == num_windows {
            live.swap_remove(k);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn window_bounds_cover_exactly() {
        assert_eq!(window_bounds(0, 8), vec![]);
        assert_eq!(window_bounds(5, 0), vec![(0, 5)]);
        assert_eq!(window_bounds(8, 3), vec![(0, 3), (3, 6), (6, 8)]);
        assert_eq!(window_bounds(6, 3), vec![(0, 3), (3, 6)]);
        assert_eq!(window_bounds(1, 1), vec![(0, 1)]);
    }

    /// Runs the scheduler with a recording runner and checks the
    /// exactly-once / in-order contract.
    fn check_contract(threads: usize, shards: usize, windows: usize, steal: bool) {
        let sizes = vec![1usize; windows];
        let log = Mutex::new(Vec::new());
        let produced = Mutex::new(Vec::new());
        let stats = run_windows(
            threads,
            shards,
            &sizes,
            steal,
            |w| {
                produced.lock().unwrap().push(w);
                w
            },
            |s, w, &t| {
                assert_eq!(t, w, "task got its own window's trace");
                log.lock().unwrap().push((s, w));
            },
        );
        let produced = produced.into_inner().unwrap();
        assert_eq!(
            produced,
            (0..windows).collect::<Vec<_>>(),
            "traces produced in window order, each exactly once"
        );
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), shards * windows, "every task ran exactly once");
        assert_eq!(stats.tasks as usize, shards * windows);
        assert_eq!(stats.windows, windows);
        let mut seen = vec![vec![false; windows]; shards];
        let mut frontier = vec![0usize; shards];
        for &(s, w) in &log {
            assert!(!seen[s][w], "task ({s},{w}) duplicated");
            seen[s][w] = true;
        }
        // Per-shard order is not observable from the merged log (workers
        // interleave), but the span record carries timestamps per shard.
        for span in &stats.spans {
            let s = span.shard as usize;
            assert_eq!(
                span.window as usize, frontier[s],
                "impossible: spans out of order for shard {s}"
            );
            frontier[s] += 1;
        }
        assert!(seen.iter().flatten().all(|&b| b), "task missing");
    }

    #[test]
    fn scheduler_contract_across_shapes() {
        for (threads, shards, windows) in [
            (1, 1, 1),
            (1, 3, 4),
            (2, 2, 3),
            (3, 7, 5),
            (4, 2, 9),
            (2, 8, 1),
            (4, 4, 0),
        ] {
            for steal in [false, true] {
                check_contract(threads, shards, windows, steal);
            }
        }
    }

    #[test]
    fn adversarial_uneven_tasks_terminate_and_cover() {
        // One "giant" shard (slow tasks) + many trivial ones: maximal
        // steal pressure must still satisfy the contract.
        let sizes = vec![1usize; 6];
        let log = Mutex::new(Vec::new());
        let stats = run_windows(
            4,
            9,
            &sizes,
            true,
            |w| w,
            |s, w, _t| {
                if s == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                log.lock().unwrap().push((s, w));
            },
        );
        assert_eq!(log.into_inner().unwrap().len(), 9 * 6);
        assert_eq!(stats.tasks, 54);
    }

    proptest! {
        #[test]
        fn prop_window_bounds_exact_cover(total in 0usize..500, window in 0usize..70) {
            let bounds = window_bounds(total, window);
            let mut expect = 0usize;
            for &(lo, hi) in &bounds {
                prop_assert_eq!(lo, expect, "windows in order, gap-free");
                prop_assert!(hi > lo, "windows non-empty");
                if window > 0 {
                    prop_assert!(hi - lo <= window);
                }
                expect = hi;
            }
            prop_assert_eq!(expect, total, "windows cover every pattern");
        }

        #[test]
        fn prop_seeded_schedule_is_valid(
            shards in 1usize..9,
            windows in 0usize..9,
            seed in any::<u64>(),
        ) {
            let order = seeded_schedule(shards, windows, seed);
            prop_assert_eq!(order.len(), shards * windows);
            let mut next = vec![0usize; shards];
            for &(s, w) in &order {
                prop_assert_eq!(w, next[s], "shard {} windows in order", s);
                next[s] += 1;
            }
            prop_assert!(next.iter().all(|&n| n == windows));
        }

        #[test]
        fn prop_scheduler_contract(
            threads in 1usize..5,
            shards in 1usize..7,
            windows in 0usize..6,
            steal in any::<bool>(),
        ) {
            check_contract(threads, shards, windows, steal);
        }
    }
}
