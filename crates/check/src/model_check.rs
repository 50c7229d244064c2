//! Fault-model analyses: collapse soundness (`F001`), macro-region
//! legality (`M001`), and the shard partition's exact cover (`P001`).
//!
//! Each analysis has a low-level entry point that takes plain view data so
//! tests can feed it deliberately corrupted structures, plus an adapter
//! over the real model type. [`check_models`] runs all three: in `fsim
//! check` ([`check_bench_source`](crate::check_bench_source)), and as
//! `fsim`'s self-check in debug builds and under `--paranoid`.

use std::collections::HashMap;

use cfs_core::round_robin_shards;
use cfs_faults::{collapse_stuck_at, CollapsedFaults};
use cfs_netlist::{
    extract_macros, BenchProvenance, Circuit, GateId, GateKind, MacroCircuit,
    DEFAULT_MACRO_MAX_INPUTS,
};

use crate::diag::{Report, RuleCode, Span};

/// Shard counts the partition verification sweeps (the CLI's common
/// range plus a prime to exercise uneven splits).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// A macro cell reduced to the facts the legality rules consult. Built
/// from a real [`MacroCircuit`] by [`check_macros`], or by hand in tests
/// that corrupt one field.
#[derive(Debug, Clone)]
pub struct MacroCellView {
    /// The cell's output gate.
    pub root: GateId,
    /// Every gate inside the cell, including the root.
    pub members: Vec<GateId>,
    /// The nodes feeding the cell from outside.
    pub support: Vec<GateId>,
}

/// Line span of `gate` when provenance is available.
fn span_of(prov: Option<&BenchProvenance>, gate: GateId) -> Option<Span> {
    prov.and_then(|p| p.line_of(gate))
        .map(|line| Span { line, col: 1 })
}

/// `F001`: verifies a collapsed fault list against the paper's soundness
/// contract — every structural fault belongs to exactly one equivalence
/// class, every class is non-empty, and each class's representative is its
/// own lowest-enumerated member.
pub fn check_collapse(
    circuit: &Circuit,
    col: &CollapsedFaults,
    prov: Option<&BenchProvenance>,
    report: &mut Report,
) {
    if col.class_of.len() != col.all.len() {
        report.add(
            RuleCode::UncollapsibleFault,
            None,
            format!(
                "class map covers {} of {} structural faults",
                col.class_of.len(),
                col.all.len()
            ),
        );
        return;
    }
    let classes = col.num_classes();
    let mut lowest: Vec<Option<usize>> = vec![None; classes];
    for (i, &c) in col.class_of.iter().enumerate() {
        if c >= classes {
            report.add(
                RuleCode::UncollapsibleFault,
                span_of(prov, col.all[i].site.gate()),
                format!(
                    "fault {} maps to class {c}, but only {classes} classes exist",
                    col.all[i].describe(circuit)
                ),
            );
            continue;
        }
        if lowest[c].is_none() {
            lowest[c] = Some(i);
        }
    }
    for (c, low) in lowest.iter().enumerate() {
        let rep = col.representatives[c];
        let Some(low) = *low else {
            report.add(
                RuleCode::UncollapsibleFault,
                span_of(prov, rep.site.gate()),
                format!(
                    "class {c} (representative {}) has no member fault",
                    rep.describe(circuit)
                ),
            );
            continue;
        };
        // The representative is the lowest-enumerated member of its class
        // (the convention every status merge relies on).
        if col.all[low] != rep {
            report.add(
                RuleCode::UncollapsibleFault,
                span_of(prov, rep.site.gate()),
                format!(
                    "class {c}: representative {} is not its lowest member {}",
                    rep.describe(circuit),
                    col.all[low].describe(circuit)
                ),
            );
        }
    }
}

/// `M001`: verifies macro cells against the fanout-free-region contract —
/// every combinational gate in exactly one cell, except a gate with more
/// distinct inputs than the cap, which may be in none (a direct gate);
/// roots inside their own cells, support within the cap, support drawn
/// only from primary inputs, flip-flops, other cells' roots and direct
/// gates, and no internal gate observable outside its cell.
pub fn check_macro_cells(
    circuit: &Circuit,
    cells: &[MacroCellView],
    cap: usize,
    prov: Option<&BenchProvenance>,
    report: &mut Report,
) {
    let mut cell_of: HashMap<GateId, usize> = HashMap::new();
    let roots: HashMap<GateId, usize> =
        cells.iter().enumerate().map(|(k, c)| (c.root, k)).collect();
    for (k, cell) in cells.iter().enumerate() {
        for &m in &cell.members {
            if let Some(&other) = cell_of.get(&m) {
                report.add(
                    RuleCode::IllegalMacroRegion,
                    span_of(prov, m),
                    format!(
                        "gate {:?} belongs to both the cell rooted at {:?} and the one at {:?}",
                        circuit.gate(m).name(),
                        circuit.gate(cells[other].root).name(),
                        circuit.gate(cell.root).name()
                    ),
                );
            } else {
                cell_of.insert(m, k);
            }
        }
    }
    for (i, gate) in circuit.gates().iter().enumerate() {
        if !matches!(gate.kind(), GateKind::Comb(_)) {
            continue;
        }
        let id = GateId::from_index(i);
        if !cell_of.contains_key(&id) && distinct_fanin(gate.fanin()) <= cap {
            report.add(
                RuleCode::IllegalMacroRegion,
                span_of(prov, id),
                format!("gate {:?} is not covered by any macro cell", gate.name()),
            );
        }
    }
    for (k, cell) in cells.iter().enumerate() {
        if cell_of.get(&cell.root) != Some(&k) {
            report.add(
                RuleCode::IllegalMacroRegion,
                span_of(prov, cell.root),
                format!(
                    "root {:?} is not a member of its own cell",
                    circuit.gate(cell.root).name()
                ),
            );
        }
        if cell.support.len() > cap {
            report.add(
                RuleCode::IllegalMacroRegion,
                span_of(prov, cell.root),
                format!(
                    "cell rooted at {:?} has {} support nodes (cap {})",
                    circuit.gate(cell.root).name(),
                    cell.support.len(),
                    cap
                ),
            );
        }
        for &s in &cell.support {
            let legal_source = match circuit.gate(s).kind() {
                GateKind::Input | GateKind::Dff => true,
                GateKind::Comb(_) => roots.contains_key(&s) || !cell_of.contains_key(&s),
            };
            if !legal_source || cell.members.contains(&s) {
                report.add(
                    RuleCode::IllegalMacroRegion,
                    span_of(prov, cell.root),
                    format!(
                        "cell rooted at {:?} draws support from {:?}, which is internal to a region",
                        circuit.gate(cell.root).name(),
                        circuit.gate(s).name()
                    ),
                );
            }
        }
        for &m in &cell.members {
            if m == cell.root {
                continue;
            }
            if circuit.outputs().contains(&m) {
                report.add(
                    RuleCode::IllegalMacroRegion,
                    span_of(prov, m),
                    format!(
                        "internal gate {:?} of the cell rooted at {:?} is a primary output",
                        circuit.gate(m).name(),
                        circuit.gate(cell.root).name()
                    ),
                );
            }
            for &consumer in circuit.gate(m).fanout() {
                if cell_of.get(&consumer) != Some(&k) {
                    report.add(
                        RuleCode::IllegalMacroRegion,
                        span_of(prov, m),
                        format!(
                            "internal gate {:?} of the cell rooted at {:?} fans out to {:?} outside the region",
                            circuit.gate(m).name(),
                            circuit.gate(cell.root).name(),
                            circuit.gate(consumer).name()
                        ),
                    );
                }
            }
        }
    }
}

/// The number of distinct nets among a gate's inputs.
fn distinct_fanin(fanin: &[GateId]) -> usize {
    fanin
        .iter()
        .enumerate()
        .filter(|&(k, g)| !fanin[..k].contains(g))
        .count()
}

/// Adapter: checks a real [`MacroCircuit`] by reducing its cells to
/// [`MacroCellView`]s.
pub fn check_macros(
    circuit: &Circuit,
    macros: &MacroCircuit,
    cap: usize,
    prov: Option<&BenchProvenance>,
    report: &mut Report,
) {
    let views: Vec<MacroCellView> = macros
        .cells()
        .iter()
        .map(|c| MacroCellView {
            root: c.root(),
            members: c.members().to_vec(),
            support: c.support().to_vec(),
        })
        .collect();
    check_macro_cells(circuit, &views, cap, prov, report);
}

/// `P001`: verifies that a shard partition is an exact cover of
/// `0..num_faults` — nothing lost, nothing duplicated, every shard
/// ascending — and balanced to within one fault. One finding per violated
/// property, not per fault.
pub fn check_shard_partition(
    plan: &str,
    parts: &[Vec<usize>],
    num_faults: usize,
    report: &mut Report,
) {
    let mut seen = vec![false; num_faults];
    let mut lost = 0usize;
    let mut duplicated: Option<usize> = None;
    let mut out_of_range: Option<usize> = None;
    let mut unsorted: Option<usize> = None;
    for (k, part) in parts.iter().enumerate() {
        if !part.windows(2).all(|w| w[0] < w[1]) {
            unsorted.get_or_insert(k);
        }
        for &i in part {
            if i >= num_faults {
                out_of_range.get_or_insert(i);
            } else if seen[i] {
                duplicated.get_or_insert(i);
            } else {
                seen[i] = true;
            }
        }
    }
    lost += seen.iter().filter(|&&s| !s).count();
    let add = |report: &mut Report, msg: String| {
        report.add(RuleCode::NonExactCoverShardPartition, None, msg);
    };
    if let Some(i) = out_of_range {
        add(
            report,
            format!("{plan}: fault index {i} out of range ({num_faults} faults)"),
        );
    }
    if let Some(i) = duplicated {
        add(report, format!("{plan}: fault {i} appears in two shards"));
    }
    if lost > 0 {
        add(
            report,
            format!("{plan}: {lost} fault(s) assigned to no shard"),
        );
    }
    if let Some(k) = unsorted {
        add(
            report,
            format!("{plan}: shard {k} is not strictly ascending"),
        );
    }
    if !parts.is_empty() && duplicated.is_none() && lost == 0 && out_of_range.is_none() {
        let min = parts.iter().map(Vec::len).min().unwrap_or(0);
        let max = parts.iter().map(Vec::len).max().unwrap_or(0);
        if max - min > 1 {
            add(
                report,
                format!("{plan}: shard sizes range {min}..{max}, balance bound is 1"),
            );
        }
    }
}

/// Runs every fault-model analysis on a structurally sound circuit: the
/// collapse of its stuck-at universe (`F001`), its macro extraction at the
/// default cap (`M001`), and the round-robin partition of the collapsed
/// representatives at the standard shard counts (`P001`).
pub fn check_models(circuit: &Circuit, prov: Option<&BenchProvenance>, report: &mut Report) {
    let col = collapse_stuck_at(circuit);
    check_collapse(circuit, &col, prov, report);
    let macros = extract_macros(circuit, DEFAULT_MACRO_MAX_INPUTS);
    check_macros(circuit, &macros, DEFAULT_MACRO_MAX_INPUTS, prov, report);
    let faults = col.representatives.len();
    for shards in SHARD_COUNTS {
        let parts = round_robin_shards(faults, shards);
        check_shard_partition("round-robin", &parts, faults, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_core::{BatchOptions, CsimVariant, NullProbe, ParallelSim};
    use cfs_logic::Logic;

    fn p001_count(r: &Report) -> usize {
        r.with_code(RuleCode::NonExactCoverShardPartition).count()
    }

    /// A partition with more shards than workers (shards = 2 * threads,
    /// as `ShardedSim::with_shards` builds it) gives idle workers spare
    /// tasks to migrate. Those oversharded partitions must pass P001: an
    /// exact cover, balanced to within one fault.
    #[test]
    fn p001_accepts_oversharded_steal_partitions() {
        let c = cfs_netlist::generate::benchmark("s298g").expect("bundled benchmark");
        let faults = collapse_stuck_at(&c).representatives.len();
        for threads in [1usize, 2, 4] {
            let shards = threads * 2;
            let parts = round_robin_shards(faults, shards);
            let mut r = Report::new("t");
            check_shard_partition("round-robin", &parts, faults, &mut r);
            assert!(r.diagnostics.is_empty(), "x{shards}: {}", r.render_text());
        }
    }

    /// Stealing migrates tasks between workers but must never rewrite
    /// which faults a shard owns: after a batched run with stealing on —
    /// over both window settings the CLI exercises (0 = one window
    /// spanning the run, and 16-pattern windows) — the engine's shard
    /// fault maps still form an exact P001 cover of the universe.
    #[test]
    fn p001_holds_after_batched_runs_with_stealing() {
        let c = cfs_netlist::generate::benchmark("s298g").expect("bundled benchmark");
        let col = collapse_stuck_at(&c);
        let patterns: Vec<Vec<Logic>> = (0..48)
            .map(|p: usize| {
                (0..c.num_inputs())
                    .map(|i| Logic::from_bool((p * 31 + i * 7).is_multiple_of(3)))
                    .collect()
            })
            .collect();
        for window in [0usize, 16] {
            let mut sim = ParallelSim::with_shards(
                &c,
                &col.representatives,
                CsimVariant::Mv.options(),
                4,
                8,
                |_| NullProbe,
            );
            let batch = BatchOptions {
                window,
                steal: true,
            };
            sim.run_batched(&patterns, &batch);
            let parts: Vec<Vec<usize>> = sim.shard_probes().map(|(_, map)| map.to_vec()).collect();
            assert_eq!(parts.len(), 8, "oversharded 2x over 4 workers");
            let mut r = Report::new("t");
            check_shard_partition("rr-steal", &parts, col.representatives.len(), &mut r);
            assert!(
                r.diagnostics.is_empty(),
                "window {window}: {}",
                r.render_text()
            );
        }
    }

    /// The rejection side, against partitions shaped like a buggy steal
    /// scheduler would leave them: a task dropped mid-migration (lost
    /// faults) and a task executed by both its home worker and the thief
    /// (duplicated faults).
    #[test]
    fn p001_rejects_non_covers_from_broken_stealing() {
        // Fault 5 lost in migration.
        let mut r = Report::new("t");
        check_shard_partition("rr-steal", &[vec![0, 2, 4], vec![1, 3]], 6, &mut r);
        assert_eq!(p001_count(&r), 1, "{}", r.render_text());
        // Shard 1's tasks double-executed by the thief.
        let mut r = Report::new("t");
        check_shard_partition(
            "rr-steal",
            &[vec![0, 2, 4], vec![1, 3, 5], vec![1, 3, 5]],
            6,
            &mut r,
        );
        assert!(p001_count(&r) >= 1, "{}", r.render_text());
    }
}
