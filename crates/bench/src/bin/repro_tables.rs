//! Regenerates every table of Lee & Reddy (DAC 1992) and prints them in
//! the paper's layout, followed by the parallel speedup table (Table P)
//! and the §2.2 ablations (Table A).
//!
//! ```text
//! repro-tables            # default: full circuit list, large ones scaled
//! repro-tables --quick    # smoke run (small budgets, heavy scaling)
//! repro-tables --full     # paper-scale circuits (slow)
//! repro-tables --table 3  # a single table (7 = Table P, 8 = Table A)
//! ```
//!
//! Every run first checks the circuits its tables simulate with
//! `cfs-check` and exits 2 if any carries an error.
//!
//! The `BENCH.json` performance-trajectory harness (see `cfs_bench::perf`):
//!
//! ```text
//! repro-tables --bench-json BENCH.json              # default circuits
//! repro-tables --bench-json BENCH.json \
//!     --bench-circuits s27,s298g --bench-patterns 64 --bench-repeats 1 \
//!     --bench-check benchmarks/bench_smoke_baseline.json   # CI drift gate
//! ```
//!
//! Every BENCH cell and every table cell runs through the `fsim sim` /
//! `fsim transition` run driver (the `cfs-cli` library) and is timed by
//! the same loop; timing whole `fsim` invocations, and comparing them
//! across commits, is `fsim-bench`'s job.

use cfs_bench::perf::{check_against, parse_bench_json, render_bench_json, run_perf, PerfConfig};
use cfs_bench::tables::{
    format_table2, format_table3, format_table4, format_table5, format_table6,
    format_table_ablations, format_table_parallel, headline, table2, table3, table4, table5,
    table6, table_ablations, table_parallel, TABLE_A_CAPS,
};
use cfs_bench::workloads::{
    circuit, WorkloadConfig, TABLE3_CIRCUITS, TABLE4_CIRCUITS, TABLE6_CIRCUITS, TABLE_A_CIRCUITS,
};

/// The circuit of Tables 5 and P.
const LARGEST: &[&str] = &["s35932g"];

/// A printable table: its `--table` number, the circuits it simulates
/// (what the preflight checks), and how it is regenerated and formatted.
type Table = (u32, &'static [&'static str], fn(&WorkloadConfig) -> String);

/// Every table, in the order the default run prints them.
const TABLES: &[Table] = &[
    (2, TABLE3_CIRCUITS, |c| {
        format_table2(&table2(TABLE3_CIRCUITS, c))
    }),
    (3, TABLE3_CIRCUITS, |c| {
        let rows = table3(TABLE3_CIRCUITS, c);
        format!("{}  {}\n", format_table3(&rows), headline(&rows))
    }),
    (4, TABLE4_CIRCUITS, |c| {
        format_table4(&table4(TABLE4_CIRCUITS, c))
    }),
    (5, LARGEST, |c| format_table5(&table5(c))),
    (6, TABLE6_CIRCUITS, |c| {
        format_table6(&table6(TABLE6_CIRCUITS, c))
    }),
    (7, LARGEST, |c| {
        format_table_parallel(LARGEST[0], &table_parallel(LARGEST[0], c))
    }),
    (8, &TABLE_A_CIRCUITS, |c| {
        format_table_ablations(&table_ablations(TABLE_A_CIRCUITS, TABLE_A_CAPS, c))
    }),
];

/// Runs the `cfs-check` static analyses over every circuit the selected
/// tables will simulate; exits nonzero if any carries an error-severity
/// finding, so a broken generator cannot silently skew the tables.
fn preflight(tables: &[&Table], config: &WorkloadConfig) {
    let mut names: Vec<&str> = Vec::new();
    for name in tables.iter().flat_map(|t| t.1) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    let mut bad = 0usize;
    for name in names {
        let report = cfs_check::check_circuit(&circuit(name, config));
        if report.has_errors() {
            eprint!("{}", report.render_text());
            bad += 1;
        }
    }
    if bad > 0 {
        eprintln!("repro-tables: {bad} workload circuit(s) failed cfs-check");
        std::process::exit(2);
    }
}

/// Runs the `BENCH.json` harness and handles `--bench-check`; returns the
/// process exit code.
fn run_bench_json(path: &str, config: &PerfConfig, check_path: Option<&str>) -> i32 {
    eprintln!(
        "# bench: {} circuit(s), {} patterns, threads {:?}, {} repeat(s)",
        config.circuits.len(),
        config.patterns,
        config.threads,
        config.repeats
    );
    let runs = run_perf(config);
    std::fs::write(path, render_bench_json(config, &runs))
        .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    eprintln!("# bench: wrote {path}");
    if let Some(p) = check_path {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| panic!("--bench-check {p:?}: {e}"));
        let base = parse_bench_json(&text).unwrap_or_else(|e| panic!("--bench-check {p:?}: {e}"));
        let drifts = check_against(&runs, &base);
        if !drifts.is_empty() {
            for d in &drifts {
                eprintln!("bench drift: {d}");
            }
            eprintln!(
                "repro-tables: {} deterministic counter(s) drifted from {p}",
                drifts.len()
            );
            return 1;
        }
        eprintln!("# bench: deterministic counters match {p}");
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = WorkloadConfig::default();
    let mut only: Option<u32> = None;
    let mut bench_json: Option<String> = None;
    let mut bench_config = PerfConfig::default();
    let mut bench_check: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |flag: &str| -> String {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => config = WorkloadConfig::quick(),
            "--full" => config = WorkloadConfig::full_scale(),
            "--bench-json" => bench_json = Some(take("--bench-json")),
            "--bench-check" => bench_check = Some(take("--bench-check")),
            "--bench-circuits" => {
                bench_config.circuits = take("--bench-circuits")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(ToOwned::to_owned)
                    .collect();
            }
            "--bench-patterns" => {
                bench_config.patterns = take("--bench-patterns").parse().unwrap_or_else(|_| {
                    eprintln!("--bench-patterns needs a number");
                    std::process::exit(2);
                });
            }
            "--bench-repeats" => {
                bench_config.repeats = take("--bench-repeats").parse().unwrap_or_else(|_| {
                    eprintln!("--bench-repeats needs a number");
                    std::process::exit(2);
                });
            }
            "--bench-threads" => {
                bench_config.threads = take("--bench-threads")
                    .split(',')
                    .map(|s| {
                        s.parse().unwrap_or_else(|_| {
                            eprintln!("--bench-threads needs comma-separated numbers");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--table" => {
                only = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("--table needs a number 2..=8");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro-tables [--quick|--full] [--table N]\n       \
                     repro-tables --bench-json PATH [--bench-circuits a,b] [--bench-patterns N]\n                    \
                     [--bench-threads 1,2] [--bench-repeats N] [--bench-check FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = bench_json {
        std::process::exit(run_bench_json(&path, &bench_config, bench_check.as_deref()));
    }
    let tables: Vec<&Table> = TABLES
        .iter()
        .filter(|t| only.is_none_or(|n| n == t.0))
        .collect();
    if tables.is_empty() {
        eprintln!(
            "no table {}; tables 2..=6 reproduce the paper, 7 is the parallel speedup table, \
             8 the ablations",
            only.unwrap_or_default()
        );
        std::process::exit(2);
    }
    preflight(&tables, &config);
    eprintln!(
        "# workload: large-circuit scale {:.2}, deterministic budget {}, random {}",
        config.large_circuit_scale, config.deterministic_budget, config.random_patterns
    );
    for (i, (_, _, render)) in tables.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", render(&config));
    }
}
