//! Benchmark harness regenerating every table of *Lee & Reddy, DAC 1992*.
//!
//! [`tables`] holds one regeneration function per table (2–6), printing the
//! same rows the paper reports, plus the parallel speedup table (P) and the
//! ablations of §2.2's design choices (A: macro input cap, list splitting,
//! fault dropping, and the cost of each probe); [`workloads`] defines the
//! circuits and test sets; [`perf`] is the `BENCH.json` harness. Every
//! table cell and every BENCH cell runs through the `fsim` driver and is
//! timed by [`perf`]'s one loop: a table prints each timed cell's median
//! and interquartile range over five runs, a BENCH cell records the
//! fastest. The `repro-tables` binary drives a run:
//!
//! ```text
//! cargo run --release -p cfs-bench --bin repro-tables              # default
//! cargo run --release -p cfs-bench --bin repro-tables -- --quick   # smoke
//! cargo run --release -p cfs-bench --bin repro-tables -- --full    # paper scale
//! cargo run --release -p cfs-bench --bin repro-tables -- --table 8 # Table A
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod perf;
pub mod tables;
pub mod workloads;
