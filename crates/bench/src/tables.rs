//! Reproduction of the paper's Tables 2–6, plus the parallel speedup
//! table (Table P) and the §2.2 ablations (Table A).
//!
//! Every function regenerates one table: same rows, same quantities (CPU
//! seconds, memory megabytes, pattern counts, fault coverages). Absolute
//! numbers differ from a 1992 SPARC 2; the claims under test are the
//! *relative* ones (macro extraction and list splitting help, csim-MV is
//! competitive with or beats PROOFS on the larger circuits, stuck-at test
//! sets are poor transition tests). Every cell runs through the `fsim sim`
//! / `fsim transition` run driver, as a BENCH cell does, and every timed
//! column prints the median and the interquartile range of
//! [`TABLE_REPEATS`] runs of the harness's one timing loop
//! ([`crate::perf`]).

use std::fmt::Write as _;
use std::io;

use cfs_cli::{
    prepare_universe, ModelHooks, Outcome, Probes, Run, RunPlan, Universe, STUCK, TRANSITION,
};
use cfs_core::{BatchOptions, CsimOptions, CsimVariant, MetricsSnapshot};
use cfs_faults::{enumerate_transition, StuckAt};
use cfs_logic::Logic;
use cfs_netlist::Circuit;

use crate::perf::{mv, proofs, stuck, transition, Bench, Spread, Timed};
use crate::workloads::{atpg_tests, circuit, deterministic_tests, fault_universe, WorkloadConfig};

/// Timed runs behind every timed table cell.
pub const TABLE_REPEATS: usize = 5;

/// One timed table cell: the step seconds of [`TABLE_REPEATS`] runs, and
/// the modeled memory and detections of the last.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Simulation (step) seconds of every run.
    pub step: Spread,
    /// Paper-comparable memory model, megabytes.
    pub mem_mb: f64,
    /// Faults detected.
    pub detected: usize,
}

fn measurement(timed: &Timed) -> Measurement {
    Measurement {
        step: timed.step.clone(),
        mem_mb: timed.outcome.report.memory_megabytes(),
        detected: timed.outcome.report.detected(),
    }
}

/// The unreduced universe of `hooks`' model: what a plain `fsim sim` /
/// `fsim transition` run simulates.
fn full_universe<F: Copy>(
    c: &Circuit,
    hooks: &ModelHooks<F>,
    full: fn(&Circuit) -> Vec<F>,
) -> Universe<F> {
    prepare_universe(
        c,
        &RunPlan::default(),
        &[],
        hooks,
        None,
        &mut io::sink(),
        full,
    )
    .expect("a plain universe prepares")
}

/// One circuit's workload, run through the `fsim` driver: the circuit,
/// its collapsed stuck-at universe and a test set.
struct Workload {
    circuit: Circuit,
    universe: Universe<StuckAt>,
    tests: Vec<Vec<Logic>>,
}

impl Workload {
    /// `name`'s workload under `config`, with the test set `tests` makes
    /// from the circuit and its collapsed faults.
    fn new(
        name: &str,
        config: &WorkloadConfig,
        tests: impl FnOnce(&Circuit, &[StuckAt]) -> Vec<Vec<Logic>>,
    ) -> Self {
        let circuit = circuit(name, config);
        let universe = full_universe(&circuit, &STUCK, fault_universe);
        let tests = tests(&circuit, &universe.faults);
        Workload {
            circuit,
            universe,
            tests,
        }
    }

    /// `name`'s workload on its deterministic test set.
    fn deterministic(name: &str, config: &WorkloadConfig) -> Self {
        Workload::new(name, config, |c, f| deterministic_tests(c, f, config))
    }

    fn bench(&self) -> Bench<'_> {
        Bench {
            circuit: &self.circuit,
            patterns: &self.tests,
            repeats: TABLE_REPEATS,
        }
    }

    /// Times `simulate` (a driver entry: [`stuck`], [`mv`] or [`proofs`])
    /// over this workload under `plan`.
    fn time(&self, plan: &RunPlan<'_>, simulate: impl Fn(&Run<'_, StuckAt>) -> Outcome) -> Timed {
        let bench = self.bench();
        let run = bench.run(&self.universe, plan);
        bench.time(|| simulate(&run))
    }

    /// One untimed run of serial csim-MV with `probes`.
    fn mv_once(&self, probes: Probes) -> Outcome {
        let plan = RunPlan::default();
        mv(&self.bench().run(&self.universe, &plan), probes)
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
            let w = Workload::deterministic(name, config);
            let c = &w.circuit;
            Table2Row {
                name: name.to_owned(),
                stats: (
                    c.num_inputs(),
                    c.num_outputs(),
                    c.num_dffs(),
                    c.num_comb_gates(),
                ),
                faults: w.universe.faults.len(),
                patterns: w.tests.len(),
                coverage: w.mv_once(Probes::Null).report.coverage_percent(),
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

/// The title suffix of every table with timed columns.
fn timed_title() -> String {
    format!("seconds: median±IQR of {TABLE_REPEATS} runs")
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
            let w = Workload::deterministic(name, config);
            let plan = RunPlan::default();
            Table3Row {
                name: name.to_owned(),
                csim: CsimVariant::ALL.map(|variant| {
                    measurement(&w.time(&plan, |run| stuck(run, variant.options(), Probes::Null)))
                }),
                proofs: measurement(&w.time(&plan, proofs)),
                patterns: w.tests.len(),
                telemetry: w
                    .mv_once(Probes::Metrics)
                    .snap
                    .expect("the metrics probe records"),
            }
        })
        .collect()
}

/// Formats Table 3 in the paper's layout, extended with the telemetry
/// columns (events per pattern and mean fault-list length of csim-MV).
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3. Deterministic Patterns (I); {}",
        timed_title()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>13} | {:>13} | {:>13} | {:>13} {:>7} {:>7} {:>7} | {:>13} {:>7}",
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
        "{:<10} {:>6} | {:>13} | {:>13} | {:>13} | {:>13} {:>7} {:>7} {:>7} | {:>13} {:>7}",
        "", "", "cpu s", "cpu s", "cpu s", "cpu s", "MB", "", "", "cpu s", "MB"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} | {:>13} | {:>13} | {:>13} | {:>13} {:>7.2} {:>7.1} {:>7.2} | {:>13} {:>7.2}",
            r.name,
            r.patterns,
            r.csim[0].step,
            r.csim[1].step,
            r.csim[2].step,
            r.csim[3].step,
            r.csim[3].mem_mb,
            r.telemetry.events_per_pattern,
            r.telemetry.avg_list_len,
            r.proofs.step,
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
            let w = Workload::new(name, config, |c, f| atpg_tests(c, f, config));
            let plan = RunPlan::default();
            let csim_mv = w.time(&plan, |run| mv(run, Probes::Null));
            Table4Row {
                name: name.to_owned(),
                patterns: w.tests.len(),
                coverage: csim_mv.outcome.report.coverage_percent(),
                csim_mv: measurement(&csim_mv),
                proofs: measurement(&w.time(&plan, proofs)),
            }
        })
        .collect()
}

/// Formats Table 4 in the paper's layout.
pub fn format_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4. Deterministic Patterns (II) — ATPG test sets; {}",
        timed_title()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>7} | {:>13} {:>7} | {:>13} {:>7}",
        "ckt", "#ptns", "cvg%", "csim-MV", "MEM", "PROOFS", "MEM"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>7.2} | {:>13} {:>7.2} | {:>13} {:>7.2}",
            r.name,
            r.patterns,
            r.coverage,
            r.csim_mv.step,
            r.csim_mv.mem_mb,
            r.proofs.step,
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
    let budgets = [
        config.random_patterns / 4,
        config.random_patterns / 2,
        config.random_patterns,
    ];
    budgets
        .iter()
        .map(|&n| {
            let w = Workload::new("s35932g", config, |c, _| {
                cfs_atpg::random_patterns(c, n, config.seed ^ n as u64)
            });
            let plan = RunPlan::default();
            let csim_mv = w.time(&plan, |run| mv(run, Probes::Null));
            Table5Row {
                patterns: n,
                coverage: csim_mv.outcome.report.coverage_percent(),
                csim_mv: measurement(&csim_mv),
                proofs: measurement(&w.time(&plan, proofs)),
            }
        })
        .collect()
}

/// Formats Table 5 in the paper's layout.
pub fn format_table5(rows: &[Table5Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5. Random Pattern Simulation (s35932g); {}",
        timed_title()
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} | {:>13} {:>7} | {:>13} {:>7}",
        "#ptns", "fltcvg%", "csim-MV", "MEM", "PROOFS", "MEM"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6} {:>8.2} | {:>13} {:>7.2} | {:>13} {:>7.2}",
            r.patterns,
            r.coverage,
            r.csim_mv.step,
            r.csim_mv.mem_mb,
            r.proofs.step,
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
    /// csim-T measurement.
    pub csim_t: Measurement,
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
            let w = Workload::deterministic(name, config);
            let universe = full_universe(&w.circuit, &TRANSITION, enumerate_transition);
            let bench = w.bench();
            let plan = RunPlan::default();
            let run = bench.run(&universe, &plan);
            let timed = bench.time(|| transition(&run, Probes::Null));
            Table6Row {
                name: name.to_owned(),
                faults: universe.faults.len(),
                csim_t: measurement(&timed),
                coverage: timed.outcome.report.coverage_percent(),
                stuck_at_coverage: w.mv_once(Probes::Null).report.coverage_percent(),
            }
        })
        .collect()
}

/// Formats Table 6 in the paper's layout.
pub fn format_table6(rows: &[Table6Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 6. Transition Fault Simulation (stuck-at test sets); {}",
        timed_title()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>7} {:>13} {:>9} {:>9}",
        "ckt", "#flts", "MEM", "CPU s", "flt cvg%", "(sa cvg%)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>7.2} {:>13} {:>9.2} {:>9.2}",
            r.name, r.faults, r.csim_t.mem_mb, r.csim_t.step, r.coverage, r.stuck_at_coverage
        );
    }
    out
}

/// Thread counts of the parallel speedup table's `fsim sim --threads N`
/// rows.
pub const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Threads of the parallel speedup table's stealing row, `fsim sim
/// --threads 2 --steal`.
const STEAL_THREADS: usize = 2;

/// Parallel speedup table (no 1992 counterpart): fault-sharded csim-MV on
/// the largest circuit, one row per `fsim sim` plan.
#[derive(Debug, Clone)]
pub struct TableParallelRow {
    /// Worker thread count (`--threads`).
    pub threads: usize,
    /// Whether idle workers steal shards (`--steal`).
    pub steal: bool,
    /// Fault shards the run deals.
    pub shards: usize,
    /// csim-MV measurement under this plan.
    pub csim_mv: Measurement,
    /// Median step seconds of the first (1-thread) row over this row's.
    pub speedup: f64,
}

/// Regenerates the parallel speedup table: random patterns on `name`
/// (scaled per `config`), csim-MV under `fsim sim --threads N` for each
/// of [`PARALLEL_THREADS`], then under `--threads 2 --steal`. Every row
/// must reach the same fault statuses — the determinism guarantee — which
/// [`table_parallel`] asserts.
pub fn table_parallel(name: &str, config: &WorkloadConfig) -> Vec<TableParallelRow> {
    let w = Workload::new(name, config, |c, _| {
        cfs_atpg::random_patterns(c, config.random_patterns, config.seed)
    });
    let stealing = RunPlan {
        threads: STEAL_THREADS,
        batch: BatchOptions {
            steal: true,
            ..BatchOptions::default()
        },
        ..RunPlan::default()
    };
    let plans = PARALLEL_THREADS
        .iter()
        .map(|&threads| RunPlan {
            threads,
            ..RunPlan::default()
        })
        .chain([stealing]);
    let mut rows: Vec<TableParallelRow> = Vec::new();
    let mut serial_statuses = None;
    for plan in plans {
        let timed = w.time(&plan, |run| mv(run, Probes::Null));
        let statuses = &timed.outcome.report.statuses;
        match &serial_statuses {
            None => serial_statuses = Some(statuses.clone()),
            Some(reference) => assert_eq!(
                reference, statuses,
                "{} thread(s), steal {}: diverged from the 1-thread run",
                plan.threads, plan.batch.steal
            ),
        }
        let m = measurement(&timed);
        let speedup = rows
            .first()
            .map_or(1.0, |r| r.csim_mv.step.median() / m.step.median());
        rows.push(TableParallelRow {
            threads: plan.threads,
            steal: plan.batch.steal,
            shards: plan.shards().min(w.universe.faults.len()),
            csim_mv: m,
            speedup,
        });
    }
    rows
}

/// Formats the parallel speedup table.
pub fn format_table_parallel(name: &str, rows: &[TableParallelRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table P. Fault-Sharded Parallel Simulation ({name}); {}",
        timed_title()
    );
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>6} | {:>13} {:>7} {:>8}",
        "threads", "steal", "shards", "csim-MV", "MEM", "speedup"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>6} | {:>13} {:>7} {:>8}",
        "", "", "", "cpu s", "MB", "x"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>6} | {:>13} {:>7.2} {:>8.2}",
            r.threads,
            if r.steal { "yes" } else { "no" },
            r.shards,
            r.csim_mv.step,
            r.csim_mv.mem_mb,
            r.speedup
        );
    }
    out
}

/// The macro input caps Table A sweeps.
pub const TABLE_A_CAPS: &[usize] = &[2, 4, 7, 10];

/// The hot-fault lane caps Table A sweeps (0: purely concurrent).
pub const TABLE_A_LANES: &[usize] = &[0, 256, 1024, 4096];

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
    pub build: Spread,
    /// Simulation seconds.
    pub step: Spread,
    /// Paper-comparable memory model, megabytes.
    pub mem_mb: f64,
    /// Node activations.
    pub events: u64,
    /// Faults detected.
    pub detected: usize,
    /// Median step seconds over the median step seconds of the group's
    /// first row.
    pub step_ratio: f64,
}

impl Workload {
    /// Times the serial `fsim sim` driver with `options` and `probes`;
    /// the ratio is filled in by [`table_ablations`].
    fn ablation(
        &self,
        group: &'static str,
        setting: impl ToString,
        options: &CsimOptions,
        probes: Probes,
    ) -> AblationRow {
        let timed = self.time(&RunPlan::default(), |run| {
            stuck(run, options.clone(), probes)
        });
        let report = &timed.outcome.report;
        AblationRow {
            group,
            setting: setting.to_string(),
            circuit: self.circuit.name().to_owned(),
            mem_mb: report.memory_megabytes(),
            events: report.events,
            detected: report.detected(),
            build: timed.build,
            step: timed.step,
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
    let main = Workload::deterministic(circuits[0], config);
    let dropping = Workload::deterministic(circuits[1], config);
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
        rows.push(main.ablation("macro-cap", cap, &options, Probes::Null));
    }
    for (setting, split) in [("off", false), ("on", true)] {
        let options = CsimOptions {
            split_invisible: split,
            hot_lanes: 0,
            ..CsimVariant::Base.options()
        };
        rows.push(main.ablation("split", setting, &options, Probes::Null));
    }
    for (setting, drop) in [("on", true), ("off", false)] {
        let options = CsimOptions {
            drop_detected: drop,
            ..mv.clone()
        };
        rows.push(dropping.ablation("drop", setting, &options, Probes::Null));
    }
    for (setting, probes) in [
        ("null", Probes::Null),
        ("metrics", Probes::Metrics),
        ("trace", Probes::Trace),
    ] {
        rows.push(main.ablation("probe", setting, &mv, probes));
    }
    for &lanes in TABLE_A_LANES {
        let options = CsimOptions {
            hot_lanes: lanes,
            ..mv.clone()
        };
        rows.push(main.ablation("lanes", lanes, &options, Probes::Null));
    }
    // Each group's rows are contiguous, led by its reference setting.
    let mut first = ("", 0.0);
    for r in &mut rows {
        if r.group != first.0 {
            first = (r.group, r.step.median());
        }
        r.step_ratio = r.step.median() / first.1;
    }
    rows
}

/// Formats Table A.
pub fn format_table_ablations(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table A. Ablations; {} (step/1st: median step over the group's first row's)",
        timed_title()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:<8} {:>13} {:>13} {:>7} {:>10} {:>8} {:>8}",
        "group", "setting", "ckt", "build s", "step s", "MB", "events", "detected", "step/1st"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:<8} {:>13} {:>13} {:>7.2} {:>10} {:>8} {:>8.2}",
            r.group,
            r.setting,
            r.circuit,
            r.build,
            r.step,
            r.mem_mb,
            r.events,
            r.detected,
            r.step_ratio
        );
    }
    out
}

/// One-line summary of who wins Table 3. csim-MV beats PROOFS on a
/// circuit when its upper step quartile is below PROOFS's lower one, and
/// loses in the reverse case; where the quartiles overlap, the runs do
/// not tell them apart and the circuit is unresolved.
pub fn headline(rows3: &[Table3Row]) -> String {
    let (mut wins, mut losses) = (0usize, 0usize);
    for r in rows3 {
        let (mv_q1, mv_q3) = r.csim[3].step.quartiles();
        let (proofs_q1, proofs_q3) = r.proofs.step.quartiles();
        if mv_q3 < proofs_q1 {
            wins += 1;
        } else if proofs_q3 < mv_q1 {
            losses += 1;
        }
    }
    format!(
        "csim-MV vs PROOFS on {} circuits: faster on {wins}, slower on {losses}, \
         unresolved on {} (step quartiles overlap)",
        rows3.len(),
        rows3.len() - wins - losses
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
        assert_eq!(rows.len(), PARALLEL_THREADS.len() + 1);
        // table_parallel itself asserts status equality; check the derived
        // columns here.
        let d = rows[0].csim_mv.detected;
        assert!(rows.iter().all(|r| r.csim_mv.detected == d));
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        assert!(rows.iter().all(|r| r.speedup > 0.0));
        let plans: Vec<_> = rows
            .iter()
            .map(|r| (r.threads, r.steal, r.shards))
            .collect();
        assert_eq!(
            plans,
            [
                (1, false, 1),
                (2, false, 2),
                (4, false, 4),
                (8, false, 8),
                (2, true, 4)
            ]
        );
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

    /// A Table 3 row whose csim-MV and PROOFS cells ran in `mv` and
    /// `proofs` seconds.
    fn timed_row(mv: &[f64], proofs: &[f64]) -> Table3Row {
        let cell = |step: &[f64]| Measurement {
            step: Spread::new(step.to_vec()),
            mem_mb: 0.0,
            detected: 0,
        };
        Table3Row {
            name: "t".to_owned(),
            csim: [cell(mv), cell(mv), cell(mv), cell(mv)],
            proofs: cell(proofs),
            patterns: 0,
            telemetry: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn headline_counts_only_separated_quartiles() {
        let fast = [1.0, 1.1, 1.2, 1.3, 1.4];
        let slow = [2.0, 2.1, 2.2, 2.3, 2.4];
        // Medians 1.2 against 1.3, but the quartiles overlap.
        let close = [1.1, 1.2, 1.3, 1.4, 1.5];
        let rows = [
            timed_row(&fast, &slow),
            timed_row(&slow, &fast),
            timed_row(&fast, &close),
        ];
        assert_eq!(
            headline(&rows),
            "csim-MV vs PROOFS on 3 circuits: faster on 1, slower on 1, \
             unresolved on 1 (step quartiles overlap)"
        );
        assert!(headline(&rows[2..]).contains("faster on 0, slower on 0, unresolved on 1"));
    }
}
