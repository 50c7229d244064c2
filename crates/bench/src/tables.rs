//! Reproduction of the paper's Tables 2–6, plus the parallel speedup
//! table (Table P) and the §2.2 ablations (Table A).
//!
//! Every function regenerates one table: same rows, same quantities (CPU
//! seconds, memory megabytes, pattern counts, fault coverages). Absolute
//! numbers differ from a 1992 SPARC 2; the claims under test are the
//! *relative* ones (macro extraction and list splitting help, csim-MV is
//! competitive with or beats PROOFS on the larger circuits, stuck-at test
//! sets are poor transition tests). Tables 2–6 and P keep the single
//! simulation run of each measurement (`report.cpu`); Table A's rows run
//! through the `fsim sim` driver and the BENCH harness's timing loop
//! ([`crate::perf`]).

use std::fmt::Write as _;
use std::io;

use cfs_cli::{simulate_stuck, Probes, RunPlan, STUCK};
use cfs_core::{
    ConcurrentSim, CsimOptions, CsimVariant, MetricsSnapshot, ParallelSim, ProofsSim,
    TransitionOptions, TransitionSim,
};
use cfs_faults::{enumerate_transition, FaultSimReport};
use cfs_logic::Logic;
use cfs_netlist::Circuit;

use crate::perf::Bench;
use crate::workloads::{atpg_tests, circuit, deterministic_tests, fault_universe, WorkloadConfig};

/// One simulator measurement: CPU seconds and modeled memory in MB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Wall-clock simulation seconds.
    pub cpu_s: f64,
    /// Paper-comparable memory model, megabytes.
    pub mem_mb: f64,
    /// Faults detected.
    pub detected: usize,
}

impl Measurement {
    fn from_report(r: &FaultSimReport) -> Self {
        Measurement {
            cpu_s: r.cpu.as_secs_f64(),
            mem_mb: r.memory_megabytes(),
            detected: r.detected(),
        }
    }
}

/// Table 2: circuit statistics and the deterministic test sets.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Circuit name.
    pub name: String,
    /// Primary inputs / outputs / flip-flops / gates.
    pub stats: (usize, usize, usize, usize),
    /// Collapsed fault count.
    pub faults: usize,
    /// Test set length.
    pub patterns: usize,
    /// Stuck-at coverage of the test set (csim-MV), percent.
    pub coverage: f64,
}

/// Regenerates Table 2 over the given circuits.
pub fn table2(names: &[&str], config: &WorkloadConfig) -> Vec<Table2Row> {
    names
        .iter()
        .map(|&name| {
            let c = circuit(name, config);
            let faults = fault_universe(&c);
            let tests = deterministic_tests(&c, &faults, config);
            let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
            let report = sim.run(&tests);
            Table2Row {
                name: name.to_owned(),
                stats: (
                    c.num_inputs(),
                    c.num_outputs(),
                    c.num_dffs(),
                    c.num_comb_gates(),
                ),
                faults: faults.len(),
                patterns: tests.len(),
                coverage: report.coverage_percent(),
            }
        })
        .collect()
}

/// Formats Table 2 in the paper's layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2. Benchmark circuits and deterministic test sets"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>4} {:>4} {:>5} {:>6} {:>7} {:>6} {:>7}",
        "ckt", "PI", "PO", "DFF", "gates", "faults", "#ptns", "cvg%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>4} {:>4} {:>5} {:>6} {:>7} {:>6} {:>7.2}",
            r.name, r.stats.0, r.stats.1, r.stats.2, r.stats.3, r.faults, r.patterns, r.coverage
        );
    }
    out
}

/// Table 3: deterministic patterns (I) — CPU and memory of the four csim
/// variants and PROOFS on the same test sets.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Circuit name.
    pub name: String,
    /// Measurements in Table 3 column order: csim, csim-V, csim-M,
    /// csim-MV.
    pub csim: [Measurement; 4],
    /// PROOFS measurement.
    pub proofs: Measurement,
    /// Pattern count.
    pub patterns: usize,
    /// Telemetry snapshot of an instrumented csim-MV run on the same test
    /// set: events per pattern and fault-list lengths. Taken from a
    /// separate run so the timing columns stay probe-free.
    pub telemetry: MetricsSnapshot,
}

/// Regenerates Table 3 over the given circuits.
pub fn table3(names: &[&str], config: &WorkloadConfig) -> Vec<Table3Row> {
    names
        .iter()
        .map(|&name| {
            let c = circuit(name, config);
            let faults = fault_universe(&c);
            let tests = deterministic_tests(&c, &faults, config);
            let csim = CsimVariant::ALL.map(|variant| {
                let mut sim = ConcurrentSim::new(&c, &faults, variant.options());
                Measurement::from_report(&sim.run(&tests))
            });
            let mut psim = ProofsSim::new(&c, &faults);
            let proofs = Measurement::from_report(&psim.run(&tests));
            let mut instrumented =
                ConcurrentSim::instrumented(&c, &faults, CsimVariant::Mv.options());
            instrumented.run(&tests);
            Table3Row {
                name: name.to_owned(),
                csim,
                proofs,
                patterns: tests.len(),
                telemetry: instrumented.snapshot(),
            }
        })
        .collect()
}

/// Formats Table 3 in the paper's layout, extended with the telemetry
/// columns (events per pattern and mean fault-list length of csim-MV).
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3. Deterministic Patterns (I)");
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>8} | {:>8} | {:>8} | {:>8} {:>7} {:>7} {:>7} | {:>8} {:>7}",
        "ckt",
        "#ptns",
        "csim",
        "csim-V",
        "csim-M",
        "csim-MV",
        "mem",
        "ev/pat",
        "avg |F|",
        "PROOFS",
        "mem"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>8} | {:>8} | {:>8} | {:>8} {:>7} {:>7} {:>7} | {:>8} {:>7}",
        "", "", "cpu s", "cpu s", "cpu s", "cpu s", "MB", "", "", "cpu s", "MB"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} | {:>8.3} | {:>8.3} | {:>8.3} | {:>8.3} {:>7.2} {:>7.1} {:>7.2} | {:>8.3} {:>7.2}",
            r.name,
            r.patterns,
            r.csim[0].cpu_s,
            r.csim[1].cpu_s,
            r.csim[2].cpu_s,
            r.csim[3].cpu_s,
            r.csim[3].mem_mb,
            r.telemetry.events_per_pattern,
            r.telemetry.avg_list_len,
            r.proofs.cpu_s,
            r.proofs.mem_mb
        );
    }
    out
}

/// Table 4: deterministic patterns (II) — higher-coverage ATPG tests,
/// csim-MV vs. PROOFS.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Circuit name.
    pub name: String,
    /// Pattern count.
    pub patterns: usize,
    /// Coverage of the ATPG test set, percent.
    pub coverage: f64,
    /// csim-MV measurement.
    pub csim_mv: Measurement,
    /// PROOFS measurement.
    pub proofs: Measurement,
}

/// Regenerates Table 4 over the given circuits.
pub fn table4(names: &[&str], config: &WorkloadConfig) -> Vec<Table4Row> {
    names
        .iter()
        .map(|&name| {
            let c = circuit(name, config);
            let faults = fault_universe(&c);
            let tests = atpg_tests(&c, &faults, config);
            let mut mv = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
            let mv_report = mv.run(&tests);
            let mut psim = ProofsSim::new(&c, &faults);
            let proofs = Measurement::from_report(&psim.run(&tests));
            Table4Row {
                name: name.to_owned(),
                patterns: tests.len(),
                coverage: mv_report.coverage_percent(),
                csim_mv: Measurement::from_report(&mv_report),
                proofs,
            }
        })
        .collect()
}

/// Formats Table 4 in the paper's layout.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 4. Deterministic Patterns (II) — ATPG test sets");
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>7} | {:>8} {:>7} | {:>8} {:>7}",
        "ckt", "#ptns", "cvg%", "csim-MV", "MEM", "PROOFS", "MEM"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>7.2} | {:>8.3} {:>7.2} | {:>8.3} {:>7.2}",
            r.name,
            r.patterns,
            r.coverage,
            r.csim_mv.cpu_s,
            r.csim_mv.mem_mb,
            r.proofs.cpu_s,
            r.proofs.mem_mb
        );
    }
    out
}

/// Table 5: random pattern simulation of the largest circuit.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Pattern count of this run.
    pub patterns: usize,
    /// Fault coverage, percent.
    pub coverage: f64,
    /// csim-MV measurement.
    pub csim_mv: Measurement,
    /// PROOFS measurement.
    pub proofs: Measurement,
}

/// Regenerates Table 5: increasing random-pattern budgets on `s35932g`.
pub fn table5(config: &WorkloadConfig) -> Vec<Table5Row> {
    let c = circuit("s35932g", config);
    let faults = fault_universe(&c);
    let budgets = [
        config.random_patterns / 4,
        config.random_patterns / 2,
        config.random_patterns,
    ];
    budgets
        .iter()
        .map(|&n| {
            let tests = cfs_atpg::random_patterns(&c, n, config.seed ^ n as u64);
            let mut mv = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
            let mv_report = mv.run(&tests);
            let mut psim = ProofsSim::new(&c, &faults);
            let proofs = Measurement::from_report(&psim.run(&tests));
            Table5Row {
                patterns: n,
                coverage: mv_report.coverage_percent(),
                csim_mv: Measurement::from_report(&mv_report),
                proofs,
            }
        })
        .collect()
}

/// Formats Table 5 in the paper's layout.
pub fn format_table5(rows: &[Table5Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 5. Random Pattern Simulation (s35932g)");
    let _ = writeln!(
        out,
        "{:>6} {:>8} | {:>8} {:>7} | {:>8} {:>7}",
        "#ptns", "fltcvg%", "csim-MV", "MEM", "PROOFS", "MEM"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>8.2} | {:>8.3} {:>7.2} | {:>8.3} {:>7.2}",
            r.patterns,
            r.coverage,
            r.csim_mv.cpu_s,
            r.csim_mv.mem_mb,
            r.proofs.cpu_s,
            r.proofs.mem_mb
        );
    }
    out
}

/// Table 6: transition fault coverage of the stuck-at test sets.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Circuit name.
    pub name: String,
    /// Transition fault count.
    pub faults: usize,
    /// Memory, MB.
    pub mem_mb: f64,
    /// CPU seconds.
    pub cpu_s: f64,
    /// Transition fault coverage, percent.
    pub coverage: f64,
    /// Stuck-at coverage of the same test set (for the paper's point that
    /// stuck-at tests are poor transition tests).
    pub stuck_at_coverage: f64,
}

/// Regenerates Table 6 over the given circuits.
pub fn table6(names: &[&str], config: &WorkloadConfig) -> Vec<Table6Row> {
    names
        .iter()
        .map(|&name| {
            let c = circuit(name, config);
            let sa_faults = fault_universe(&c);
            let tests = deterministic_tests(&c, &sa_faults, config);
            let mut sa = ConcurrentSim::new(&c, &sa_faults, CsimVariant::Mv.options());
            let sa_report = sa.run(&tests);
            let tfaults = enumerate_transition(&c);
            let mut tsim = TransitionSim::new(&c, &tfaults, TransitionOptions::default());
            let report = tsim.run(&tests);
            Table6Row {
                name: name.to_owned(),
                faults: tfaults.len(),
                mem_mb: report.memory_megabytes(),
                cpu_s: report.cpu.as_secs_f64(),
                coverage: report.coverage_percent(),
                stuck_at_coverage: sa_report.coverage_percent(),
            }
        })
        .collect()
}

/// Formats Table 6 in the paper's layout.
pub fn format_table6(rows: &[Table6Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 6. Transition Fault Simulation (stuck-at test sets)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>7} {:>8} {:>9} {:>9}",
        "ckt", "#flts", "MEM", "CPU s", "flt cvg%", "(sa cvg%)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>7.2} {:>8.3} {:>9.2} {:>9.2}",
            r.name, r.faults, r.mem_mb, r.cpu_s, r.coverage, r.stuck_at_coverage
        );
    }
    out
}

/// Thread counts of the parallel speedup table.
pub const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Parallel speedup table (no 1992 counterpart): fault-sharded csim-MV on
/// the largest circuit at increasing thread counts.
#[derive(Debug, Clone)]
pub struct TableParallelRow {
    /// Worker thread count.
    pub threads: usize,
    /// csim-MV measurement at this thread count.
    pub csim_mv: Measurement,
    /// Wall-clock speedup over the 1-thread row of the same table.
    pub speedup: f64,
}

/// Regenerates the parallel speedup table: random patterns on `name`
/// (scaled per `config`), csim-MV sharded round-robin across
/// [`PARALLEL_THREADS`]. Every row must detect the same faults — the
/// determinism guarantee — which [`table_parallel`] asserts.
pub fn table_parallel(name: &str, config: &WorkloadConfig) -> Vec<TableParallelRow> {
    let c = circuit(name, config);
    let faults = fault_universe(&c);
    let tests = cfs_atpg::random_patterns(&c, config.random_patterns, config.seed);
    let mut rows: Vec<TableParallelRow> = Vec::new();
    let mut serial_statuses = None;
    for threads in PARALLEL_THREADS {
        let mut sim = ParallelSim::new(&c, &faults, CsimVariant::Mv.options(), threads);
        let report = sim.run(&tests);
        match &serial_statuses {
            None => serial_statuses = Some(report.statuses.clone()),
            Some(reference) => assert_eq!(
                reference, &report.statuses,
                "{threads}-thread run diverged from serial"
            ),
        }
        let m = Measurement::from_report(&report);
        let speedup = rows.first().map_or(1.0, |r| r.csim_mv.cpu_s / m.cpu_s);
        rows.push(TableParallelRow {
            threads,
            csim_mv: m,
            speedup,
        });
    }
    rows
}

/// Formats the parallel speedup table.
pub fn format_table_parallel(name: &str, rows: &[TableParallelRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table P. Fault-Sharded Parallel Simulation ({name})");
    let _ = writeln!(
        out,
        "{:>8} | {:>8} {:>7} {:>8}",
        "threads", "csim-MV", "MEM", "speedup"
    );
    let _ = writeln!(out, "{:>8} | {:>8} {:>7} {:>8}", "", "cpu s", "MB", "x");
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} | {:>8.3} {:>7.2} {:>8.2}",
            r.threads, r.csim_mv.cpu_s, r.csim_mv.mem_mb, r.speedup
        );
    }
    out
}

/// The macro input caps Table A sweeps.
pub const TABLE_A_CAPS: &[usize] = &[2, 4, 7, 10];

/// The hot-fault lane caps Table A sweeps (0: purely concurrent).
pub const TABLE_A_LANES: &[usize] = &[0, 256, 1024, 4096];

/// Timed runs behind each Table A row; its build and step columns are
/// the minimum over them.
const TABLE_A_REPEATS: usize = 5;

/// Table A: one timed setting of a §2.2 design choice (macro input cap,
/// list splitting, fault dropping), one probe attached to csim-MV, or one
/// hot-fault lane cap.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The choice the row's group varies: `macro-cap`, `split`, `drop`,
    /// `probe` or `lanes`.
    pub group: &'static str,
    /// This row's setting of it.
    pub setting: String,
    /// Circuit name.
    pub circuit: String,
    /// Construction seconds: network compilation and macro LUTs.
    pub build_s: f64,
    /// Simulation seconds.
    pub step_s: f64,
    /// Paper-comparable memory model, megabytes.
    pub mem_mb: f64,
    /// Node activations.
    pub events: u64,
    /// Faults detected.
    pub detected: usize,
    /// `step_s` over the step seconds of the group's first row.
    pub step_ratio: f64,
}

/// One circuit's Table A workload: the circuit, its collapsed faults and
/// its deterministic test set.
struct Workload {
    circuit: Circuit,
    tests: Vec<Vec<Logic>>,
}

impl Workload {
    fn new(name: &str, config: &WorkloadConfig) -> Self {
        let circuit = circuit(name, config);
        let tests = deterministic_tests(&circuit, &fault_universe(&circuit), config);
        Workload { circuit, tests }
    }

    /// Times the serial `fsim sim` driver with `options` and `probes`
    /// (see [`Bench::fastest`]); the ratio is filled in by
    /// [`table_ablations`].
    fn row(
        &self,
        group: &'static str,
        setting: impl ToString,
        options: &CsimOptions,
        probes: Probes,
    ) -> AblationRow {
        let bench = Bench {
            circuit: &self.circuit,
            patterns: &self.tests,
            repeats: TABLE_A_REPEATS,
        };
        let plan = RunPlan::default();
        let universe = bench.universe(&plan, &STUCK, None, fault_universe);
        let run = bench.run(&universe, &plan);
        let timed = bench.fastest(|| {
            simulate_stuck(&run, options.clone(), probes, &mut None, &mut io::sink())
                .expect("Table A rows run")
        });
        AblationRow {
            group,
            setting: setting.to_string(),
            circuit: self.circuit.name().to_owned(),
            build_s: timed.build.as_secs_f64(),
            step_s: timed.report.cpu.as_secs_f64(),
            mem_mb: timed.report.memory_bytes as f64 / 1.0e6,
            events: timed.report.events,
            detected: timed.report.detected(),
            step_ratio: 1.0,
        }
    }
}

/// Regenerates Table A on each circuit's deterministic test set: csim-MV
/// at each macro input cap in `caps`, csim with list splitting off and on,
/// and csim-MV under the three probes `fsim` attaches (none, the metrics
/// of `--stats`, and the metrics plus event recorder of `--trace-out`) on
/// `circuits[0]`; csim-MV with fault dropping on and off on
/// `circuits[1]`. These groups run purely concurrent (lane cap 0), so
/// each isolates its own choice. The `lanes` group runs csim-MV at each
/// hot-fault lane cap of [`TABLE_A_LANES`] on `circuits[0]`.
pub fn table_ablations(
    circuits: [&str; 2],
    caps: &[usize],
    config: &WorkloadConfig,
) -> Vec<AblationRow> {
    let main = Workload::new(circuits[0], config);
    let dropping = Workload::new(circuits[1], config);
    let mv = CsimOptions {
        hot_lanes: 0,
        ..CsimVariant::Mv.options()
    };
    let mut rows = Vec::new();
    for &cap in caps {
        let options = CsimOptions {
            macro_max_inputs: cap,
            ..mv.clone()
        };
        rows.push(main.row("macro-cap", cap, &options, Probes::Null));
    }
    for (setting, split) in [("off", false), ("on", true)] {
        let options = CsimOptions {
            split_invisible: split,
            hot_lanes: 0,
            ..CsimVariant::Base.options()
        };
        rows.push(main.row("split", setting, &options, Probes::Null));
    }
    for (setting, drop) in [("on", true), ("off", false)] {
        let options = CsimOptions {
            drop_detected: drop,
            ..mv.clone()
        };
        rows.push(dropping.row("drop", setting, &options, Probes::Null));
    }
    for (setting, probes) in [
        ("null", Probes::Null),
        ("metrics", Probes::Metrics),
        ("trace", Probes::Trace),
    ] {
        rows.push(main.row("probe", setting, &mv, probes));
    }
    for &lanes in TABLE_A_LANES {
        let options = CsimOptions {
            hot_lanes: lanes,
            ..mv.clone()
        };
        rows.push(main.row("lanes", lanes, &options, Probes::Null));
    }
    // Each group's rows are contiguous, led by its reference setting.
    let mut first = ("", 0.0);
    for r in &mut rows {
        if r.group != first.0 {
            first = (r.group, r.step_s);
        }
        r.step_ratio = r.step_s / first.1;
    }
    rows
}

/// Formats Table A.
pub fn format_table_ablations(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table A. Ablations (build, step: min of {TABLE_A_REPEATS} runs; step/1st: step over the group's first row)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:<8} {:>8} {:>8} {:>7} {:>10} {:>8} {:>8}",
        "group", "setting", "ckt", "build s", "step s", "MB", "events", "detected", "step/1st"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:<8} {:>8.4} {:>8.4} {:>7.2} {:>10} {:>8} {:>8.2}",
            r.group,
            r.setting,
            r.circuit,
            r.build_s,
            r.step_s,
            r.mem_mb,
            r.events,
            r.detected,
            r.step_ratio
        );
    }
    out
}

/// One-line summary of who wins, for smoke tests and the README.
pub fn headline(rows3: &[Table3Row]) -> String {
    let mut faster = 0usize;
    for r in rows3 {
        if r.csim[3].cpu_s <= r.proofs.cpu_s {
            faster += 1;
        }
    }
    format!(
        "csim-MV beats or ties PROOFS on {}/{} circuits",
        faster,
        rows3.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_has_consistent_detections() {
        let cfg = WorkloadConfig::quick();
        let rows = table3(&["s298g", "s386g"], &cfg);
        for r in &rows {
            // All four variants and PROOFS agree on detection counts.
            let d = r.csim[0].detected;
            assert!(r.csim.iter().all(|m| m.detected == d), "{}", r.name);
            assert_eq!(r.proofs.detected, d, "{}", r.name);
            // The instrumented re-run agrees and fills the telemetry columns.
            assert_eq!(r.telemetry.detected as usize, d, "{}", r.name);
            assert!(r.telemetry.avg_list_len > 0.0, "{}", r.name);
            assert!(r.telemetry.events_per_pattern > 0.0, "{}", r.name);
        }
        let s = format_table3(&rows);
        assert!(s.contains("s298g"));
        assert!(s.contains("ev/pat"));
        assert!(s.contains("avg |F|"));
    }

    #[test]
    fn quick_table6_runs() {
        let cfg = WorkloadConfig::quick();
        let rows = table6(&["s298g"], &cfg);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].faults > 0);
        assert!(format_table6(&rows).contains("s298g"));
    }

    #[test]
    fn table_parallel_rows_agree_and_report_speedup() {
        let mut cfg = WorkloadConfig::quick();
        cfg.random_patterns = 64;
        let rows = table_parallel("s1423g", &cfg);
        assert_eq!(rows.len(), PARALLEL_THREADS.len());
        // table_parallel itself asserts status equality; check the derived
        // columns here.
        let d = rows[0].csim_mv.detected;
        assert!(rows.iter().all(|r| r.csim_mv.detected == d));
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        assert!(rows.iter().all(|r| r.speedup > 0.0));
        let s = format_table_parallel("s1423g", &rows);
        assert!(s.contains("speedup"), "{s}");
        assert!(s.contains("s1423g"), "{s}");
    }

    #[test]
    fn ablation_groups_agree_on_detections() {
        let rows = table_ablations(["s298g", "s386g"], &[2, 4], &WorkloadConfig::quick());
        for group in ["macro-cap", "split", "drop", "probe"] {
            let members: Vec<_> = rows.iter().filter(|r| r.group == group).collect();
            assert!(members.len() >= 2, "{group}: {} rows", members.len());
            assert!((members[0].step_ratio - 1.0).abs() < 1e-12, "{group}");
            for r in &members {
                assert_eq!(r.detected, members[0].detected, "{group} {}", r.setting);
                // Splitting and probes change how the lists are walked or
                // watched, never which nodes activate.
                if matches!(group, "split" | "probe") {
                    assert_eq!(r.events, members[0].events, "{group} {}", r.setting);
                }
            }
        }
        let s = format_table_ablations(&rows);
        assert!(s.starts_with("Table A. Ablations"), "{s}");
        assert!(s.contains("metrics"), "{s}");
    }

    #[test]
    fn table5_coverage_is_monotone_in_patterns() {
        let mut cfg = WorkloadConfig::quick();
        cfg.random_patterns = 64;
        let rows = table5(&cfg);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].coverage <= rows[2].coverage + 1e-9);
    }
}
