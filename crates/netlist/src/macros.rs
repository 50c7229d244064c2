//! Macro extraction: collapsing fanout-free regions into look-up-table cells.
//!
//! §2.2 of the paper: *"In order to take advantage of table look up
//! mechanism, it is advantageous to partition the circuit into macro
//! modules… Macro extraction collapses many events into an event to save
//! computation time… More importantly, macro extraction reduces the memory
//! requirement because many fault elements are collapsed into one fault
//! element."*
//!
//! A [`MacroCell`] is a fanout-free region of combinational gates evaluated
//! through a precomputed three-valued LUT. Stuck-at faults internal to the
//! region become *functional faults*: each such fault gets its own faulty
//! table (and LUT), carried by the fault's descriptor in the concurrent
//! simulator.

use std::fmt;
use std::sync::OnceLock;

use cfs_logic::{GateFn, Logic, Lut3, PackedLogic, TruthTable};

use crate::{Circuit, GateId, GateKind};

/// Default cap on macro support size (the paper limits macro inputs so the
/// look-up table overhead stays small; 5 is the measured sweet spot for
/// both time and memory on the large benchmarks — see `EXPERIMENTS.md`).
pub const DEFAULT_MACRO_MAX_INPUTS: usize = 5;

/// One gate evaluation inside a cell's evaluation plan. Its operands are
/// the next `arity` slots of the plan's operand list (see [`CellPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// The member gate this step evaluates.
    pub gate: GateId,
    /// The gate's function.
    pub f: GateFn,
    /// The gate's operand count.
    pub arity: u16,
}

/// A stuck-at fault forced into a [`CellPlan`] evaluation on the lanes in
/// `lanes` of word `word`: the operand `pin` of step `step`, or the step's
/// output when `pin` is [`PlanFault::OUTPUT`], reads `value` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanFault {
    /// Which of the words evaluated together the fault belongs to.
    pub word: u16,
    /// The plan step hosting the fault.
    pub step: u16,
    /// The stuck operand, or [`PlanFault::OUTPUT`].
    pub pin: u16,
    /// The stuck value.
    pub value: bool,
    /// The lanes the fault applies to.
    pub lanes: u64,
}

impl PlanFault {
    /// The `pin` of a fault on the step's output.
    pub const OUTPUT: u16 = u16::MAX;
}

/// A cell's gate-by-gate evaluation program, and the packed cell kernel
/// that runs it 64 machines at a time.
///
/// Operand slot `s < support` reads support input `s`; slot `support + k`
/// reads the output of step `k`. Steps are in evaluation order, root last.
/// A gate-network node is the one-step plan over its own fanin.
#[derive(Debug, Clone, Copy)]
pub struct CellPlan<'a> {
    /// The number of support inputs.
    pub support: usize,
    /// The gate evaluations, root last.
    pub steps: &'a [PlanStep],
    /// Every step's operand slots, concatenated in step order.
    pub operands: &'a [u16],
}

impl CellPlan<'_> {
    /// Evaluates the plan lane-wise on `width` packed words at once, with
    /// each fault in `faults` forced on its word's lanes. On entry
    /// `values` holds the support inputs slot-major (`values[s * width +
    /// w]` is support input `s` of word `w`); the kernel appends each
    /// step's row of `width` outputs, so the root's row ends `values`.
    /// Every lane computes the pessimistic gate-by-gate Kleene value — the
    /// semantics of gate-level simulation, which the good and faulty LUTs
    /// record entry by entry.
    pub fn eval_packed(&self, values: &mut Vec<PackedLogic>, width: usize, faults: &[PlanFault]) {
        debug_assert_eq!(values.len(), self.support * width, "support rows");
        let mut operands = self.operands;
        for (i, step) in self.steps.iter().enumerate() {
            let (args, rest) = operands.split_at(step.arity as usize);
            operands = rest;
            let base = values.len();
            values.resize(base + width, PackedLogic::ALL_X);
            let (prev, row) = values.split_at_mut(base);
            let rows = |k: usize| {
                let a = args[k] as usize * width;
                &prev[a..a + width]
            };
            match step.f {
                GateFn::Buf => row.copy_from_slice(rows(0)),
                GateFn::Not => {
                    for (r, &v) in row.iter_mut().zip(rows(0)) {
                        *r = v.not();
                    }
                }
                GateFn::And | GateFn::Nand => {
                    fill_rows(
                        row,
                        (0..args.len()).map(rows),
                        PackedLogic::ALL_ONE,
                        PackedLogic::and,
                    );
                }
                GateFn::Or | GateFn::Nor => {
                    fill_rows(
                        row,
                        (0..args.len()).map(rows),
                        PackedLogic::ALL_ZERO,
                        PackedLogic::or,
                    );
                }
                GateFn::Xor | GateFn::Xnor => {
                    fill_rows(
                        row,
                        (0..args.len()).map(rows),
                        PackedLogic::ALL_ZERO,
                        PackedLogic::xor,
                    );
                }
            }
            if matches!(step.f, GateFn::Nand | GateFn::Nor | GateFn::Xnor) {
                row.iter_mut().for_each(|v| *v = v.not());
            }
            for f in faults.iter().filter(|f| usize::from(f.step) == i) {
                let w = usize::from(f.word);
                if f.pin == PlanFault::OUTPUT {
                    continue;
                }
                // Re-fold this word with every pin fault of the step forced.
                let arg = |(k, &a): (usize, &u16)| {
                    faults
                        .iter()
                        .filter(|g| {
                            usize::from(g.step) == i
                                && usize::from(g.word) == w
                                && usize::from(g.pin) == k
                        })
                        .fold(prev[a as usize * width + w], |v, g| g.force(v))
                };
                row[w] = PackedLogic::fold_gate(step.f, args.iter().enumerate().map(arg));
            }
            for f in faults.iter() {
                if usize::from(f.step) == i && f.pin == PlanFault::OUTPUT {
                    let w = usize::from(f.word);
                    row[w] = f.force(row[w]);
                }
            }
        }
    }

    /// The injection of a stuck-at fault at `site` on every lane, or
    /// `None` if the site is not a gate or pin of this plan.
    pub fn fault_at(&self, site: MacroFaultSite) -> Option<PlanFault> {
        let (gate, pin, value) = match site {
            MacroFaultSite::Output { gate, value } => (gate, None, value),
            MacroFaultSite::Pin { gate, pin, value } => (gate, Some(pin), value),
        };
        let step = self.steps.iter().position(|s| s.gate == gate)?;
        let pin = match pin {
            None => PlanFault::OUTPUT,
            Some(p) if p < usize::from(self.steps[step].arity) => p as u16,
            Some(_) => return None,
        };
        Some(PlanFault {
            word: 0,
            step: step as u16,
            pin,
            value,
            lanes: !0,
        })
    }

    /// The plan's three-valued LUT with `fault` forced on every entry:
    /// all `3^support` assignments, 64 per kernel call.
    pub fn lut(&self, fault: Option<PlanFault>) -> Lut3 {
        let faults: &[PlanFault] = fault.as_slice();
        let mut values = Vec::with_capacity(self.support.max(1) + self.steps.len());
        Lut3::from_packed_fn(self.support.max(1), |words| {
            values.clear();
            values.extend_from_slice(&words[..self.support]);
            self.eval_packed(&mut values, 1, faults);
            values[values.len() - 1]
        })
    }
}

/// Sets `row` to the lane-wise `op` fold of the rows `srcs` from `init`:
/// one gate step for every word, a plain loop over the words.
#[inline]
fn fill_rows<'a>(
    row: &mut [PackedLogic],
    srcs: impl Iterator<Item = &'a [PackedLogic]>,
    init: PackedLogic,
    op: impl Fn(PackedLogic, PackedLogic) -> PackedLogic,
) {
    row.fill(init);
    for src in srcs {
        for (r, &v) in row.iter_mut().zip(src) {
            *r = op(*r, v);
        }
    }
}

impl PlanFault {
    /// `v` with this fault's lanes forced to its stuck value.
    #[inline]
    fn force(&self, v: PackedLogic) -> PackedLogic {
        v.select(PackedLogic::splat(Logic::from_bool(self.value)), self.lanes)
    }
}

/// A stuck-at fault site inside a macro cell, used to derive the fault's
/// functional (faulty-LUT) representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacroFaultSite {
    /// The output of a member gate stuck at `value`.
    Output {
        /// Member gate.
        gate: GateId,
        /// Stuck value.
        value: bool,
    },
    /// Input pin `pin` of a member gate stuck at `value` (a branch fault:
    /// only this connection is affected).
    Pin {
        /// Member gate.
        gate: GateId,
        /// Pin index into the gate's fanin list.
        pin: usize,
        /// Stuck value.
        value: bool,
    },
}

/// A fanout-free region collapsed into a single look-up-table cell.
///
/// Extraction records the cell's structure and evaluation plan only; the
/// good-machine table and LUT are built on first use, so a structural
/// check of the cells builds no LUT at all.
#[derive(Debug, Clone)]
pub struct MacroCell {
    root: GateId,
    members: Vec<GateId>,
    support: Vec<GateId>,
    steps: Vec<PlanStep>,
    operands: Vec<u16>,
    good: OnceLock<(TruthTable, Lut3)>,
}

impl MacroCell {
    /// The root gate; the cell's output is this gate's output.
    pub fn root(&self) -> GateId {
        self.root
    }

    /// The collapsed gates, in evaluation order (root last).
    pub fn members(&self) -> &[GateId] {
        &self.members
    }

    /// The cell's (deduplicated) external inputs, in pin order. Entries are
    /// ids of primary inputs, flip-flops, or other cells' roots.
    pub fn support(&self) -> &[GateId] {
        &self.support
    }

    /// The cell's gate-by-gate evaluation plan.
    pub fn plan(&self) -> CellPlan<'_> {
        CellPlan {
            support: self.support.len(),
            steps: &self.steps,
            operands: &self.operands,
        }
    }

    fn good(&self) -> &(TruthTable, Lut3) {
        self.good.get_or_init(|| {
            // The simulation LUT uses gate-by-gate Kleene evaluation (not
            // the exact X-completion merge) so macro and gate simulation
            // agree bit-for-bit.
            let lut = self.plan().lut(None);
            (lut.binary_table(), lut)
        })
    }

    /// The good-machine binary function.
    pub fn table(&self) -> &TruthTable {
        &self.good().0
    }

    /// The good-machine three-valued LUT.
    pub fn lut(&self) -> &Lut3 {
        &self.good().1
    }

    /// Evaluates the cell over three-valued support values.
    pub fn eval(&self, inputs: &[Logic]) -> Logic {
        self.lut().eval(inputs)
    }

    /// Computes the binary function of the cell with a stuck-at fault
    /// injected at an internal site.
    ///
    /// Returns `None` if the site does not belong to this cell.
    pub fn faulty_table(&self, site: MacroFaultSite) -> Option<TruthTable> {
        self.faulty_lut(site).map(|lut| lut.binary_table())
    }

    /// Computes the three-valued LUT of the cell with a stuck-at fault
    /// injected at an internal site, using pessimistic gate-by-gate Kleene
    /// evaluation (bit-identical with gate-level simulation).
    ///
    /// Returns `None` if the site does not belong to this cell.
    pub fn faulty_lut(&self, site: MacroFaultSite) -> Option<Lut3> {
        let plan = self.plan();
        plan.fault_at(site).map(|f| plan.lut(Some(f)))
    }

    /// Approximate memory footprint in bytes (LUT + bookkeeping), for the
    /// paper-comparable MEM columns.
    pub fn memory_bytes(&self) -> usize {
        self.lut().memory_bytes()
            + self.members.len() * std::mem::size_of::<GateId>()
            + self.support.len() * std::mem::size_of::<GateId>()
            + self.steps.len() * 16
            + self.operands.len() * 4
    }
}

impl fmt::Display for MacroCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "macro@{} ({} gates, {} inputs)",
            self.root,
            self.members.len(),
            self.support.len()
        )
    }
}

/// The macro-level view of a circuit: every combinational gate belongs to
/// exactly one [`MacroCell`], except the gates too wide for a cell
/// ([`MacroCircuit::direct_gates`]), which belong to none.
#[derive(Debug, Clone)]
pub struct MacroCircuit {
    cells: Vec<MacroCell>,
    /// Gate index → cell index (combinational gates in a cell only).
    cell_of: Vec<Option<u32>>,
    /// Gates too wide for a cell, ascending.
    direct: Vec<GateId>,
    /// Every cell root and direct gate, in a valid evaluation order
    /// (ascending level).
    order: Vec<GateId>,
}

impl MacroCircuit {
    /// All cells.
    pub fn cells(&self) -> &[MacroCell] {
        &self.cells
    }

    /// The cell containing a combinational gate (`None` for a direct gate).
    pub fn cell_of(&self, gate: GateId) -> Option<&MacroCell> {
        self.cell_of[gate.index()].map(|i| &self.cells[i as usize])
    }

    /// Index of the cell containing a combinational gate (`None` for a
    /// direct gate).
    pub fn cell_index_of(&self, gate: GateId) -> Option<usize> {
        self.cell_of[gate.index()].map(|i| i as usize)
    }

    /// The gates too wide for a cell, ascending: each reads more distinct
    /// nets than the cap, and absorbing its fanin would not bring it
    /// within the cap. No cell holds them: a simulator evaluates each as
    /// the gate it is, and its stuck-at faults stay plain pin and output
    /// faults, since a table over that many inputs would cost more than
    /// the gate it replaces.
    pub fn direct_gates(&self) -> &[GateId] {
        &self.direct
    }

    /// Every cell root and direct gate, in a valid evaluation order: the
    /// gates whose outputs the macro view computes.
    pub fn eval_order(&self) -> &[GateId] {
        &self.order
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total LUT memory in bytes.
    pub fn lut_memory_bytes(&self) -> usize {
        self.cells.iter().map(MacroCell::memory_bytes).sum()
    }
}

/// Most gates one cell absorbs, which bounds a plan's length and its
/// operand slots. A longer fanout-free region splits into several cells.
const MAX_CELL_GATES: usize = 64;

/// Extracts macro cells from a circuit's combinational logic.
///
/// `max_inputs` caps each cell's support (1..=[`cfs_logic::MAX_LUT_INPUTS`]);
/// a region that would exceed the cap is split, with the overflowing fanin
/// subtree promoted to its own cell. A gate with more distinct inputs than
/// the cap that cannot absorb enough of its fanin to get within it forms no
/// cell (see [`MacroCircuit::direct_gates`]), so every cell's support is
/// at most `max_inputs`.
///
/// # Panics
///
/// Panics if `max_inputs` is out of range.
///
/// # Examples
///
/// ```
/// use cfs_netlist::{extract_macros, parse_bench};
///
/// let c = parse_bench("chain", "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
///     g1 = AND(a, b)\ng2 = NOT(g1)\ny = OR(g2, c)\n")?;
/// let m = extract_macros(&c, 7);
/// assert_eq!(m.num_cells(), 1); // three gates collapse into one cell
/// let m = extract_macros(&c, 1);
/// assert_eq!(m.direct_gates().len(), 2); // AND and OR are wider than 1
/// # Ok::<(), cfs_netlist::ParseBenchError>(())
/// ```
pub fn extract_macros(circuit: &Circuit, max_inputs: usize) -> MacroCircuit {
    assert!(
        (1..=cfs_logic::MAX_LUT_INPUTS).contains(&max_inputs),
        "macro input cap must be in 1..={}",
        cfs_logic::MAX_LUT_INPUTS
    );
    let n = circuit.num_nodes();
    // Consumer count = gate fanout connections + primary-output taps.
    let mut consumers = vec![0usize; n];
    for (i, g) in circuit.gates().iter().enumerate() {
        consumers[i] = g.fanout().len();
    }
    for &po in circuit.outputs() {
        consumers[po.index()] += 1;
    }

    let mut cell_of: Vec<Option<u32>> = vec![None; n];
    let mut cells: Vec<MacroCell> = Vec::new();
    let mut direct: Vec<GateId> = Vec::new();

    // Reverse topological order: consumers are processed before producers,
    // so an unassigned gate is necessarily a region root.
    for &root in circuit.topo_order().iter().rev() {
        if cell_of[root.index()].is_some() {
            continue;
        }
        let cell_idx = cells.len() as u32;
        // Grow the region from the root. `members_set` marks gates in the
        // region; the support is the set of external drivers.
        let mut members: Vec<GateId> = vec![root];
        cell_of[root.index()] = Some(cell_idx);
        let mut queue: Vec<GateId> = vec![root];
        while let Some(g) = queue.pop() {
            for &src in circuit.gate(g).fanin() {
                if cell_of[src.index()].is_some() || members.len() == MAX_CELL_GATES {
                    continue; // already a member here or elsewhere, or the cell is full
                }
                let absorbable = circuit.gate(src).kind().is_comb() && consumers[src.index()] == 1;
                if !absorbable {
                    continue;
                }
                // Tentatively absorb; roll back if the support would
                // overflow the cap.
                let support_if = region_support(circuit, &members, Some(src)).len();
                if support_if > max_inputs {
                    continue;
                }
                cell_of[src.index()] = Some(cell_idx);
                members.push(src);
                queue.push(src);
            }
        }
        // Order members so every gate follows its in-region fanins
        // (ascending circuit level does exactly that).
        members.sort_by_key(|&g| (circuit.level(g), g));
        let support = region_support(circuit, &members, None);
        if support.len() > max_inputs {
            // Only a lone root can overflow: every absorption keeps the
            // support within the cap. Such a gate is no cell.
            debug_assert_eq!(members, [root]);
            cell_of[root.index()] = None;
            direct.push(root);
            continue;
        }
        let (steps, operands) = build_plan(circuit, &members, &support);
        debug_assert_eq!(steps.last().map(|s| s.gate), Some(root));
        cells.push(MacroCell {
            root,
            members,
            support,
            steps,
            operands,
            good: OnceLock::new(),
        });
    }

    // Evaluation order: ascending level (supports are transitive fanins,
    // hence at strictly lower levels).
    direct.sort_unstable();
    let mut order: Vec<GateId> = cells.iter().map(|c| c.root).collect();
    order.extend_from_slice(&direct);
    order.sort_by_key(|&g| (circuit.level(g), g));

    MacroCircuit {
        cells,
        cell_of,
        direct,
        order,
    }
}

fn region_support(circuit: &Circuit, members: &[GateId], extra: Option<GateId>) -> Vec<GateId> {
    let in_region = |g: GateId| members.contains(&g) || extra == Some(g);
    let mut support = Vec::new();
    for &m in members.iter().chain(extra.iter()) {
        for &src in circuit.gate(m).fanin() {
            if !in_region(src) && !support.contains(&src) {
                support.push(src);
            }
        }
    }
    support
}

/// The evaluation plan of a region: one step per member (members are in
/// evaluation order), each reading support inputs and earlier steps.
fn build_plan(
    circuit: &Circuit,
    members: &[GateId],
    support: &[GateId],
) -> (Vec<PlanStep>, Vec<u16>) {
    let mut steps = Vec::with_capacity(members.len());
    let mut operands = Vec::new();
    for &g in members {
        let gate = circuit.gate(g);
        let GateKind::Comb(f) = gate.kind() else {
            unreachable!("members are combinational")
        };
        for &src in gate.fanin() {
            let slot = match members.iter().position(|&m| m == src) {
                Some(step) => support.len() + step,
                None => support
                    .iter()
                    .position(|&x| x == src)
                    .expect("external driver is in the support"),
            };
            operands.push(slot as u16);
        }
        steps.push(PlanStep {
            gate: g,
            f,
            arity: gate.fanin().len() as u16,
        });
    }
    (steps, operands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{data::s27, parse_bench};
    use cfs_logic::POW3;

    /// The scalar oracle for the packed kernel: gate-by-gate Kleene
    /// evaluation of one assignment, with an optional `fault` forced.
    fn eval_plan_logic(plan: CellPlan<'_>, inputs: &[Logic], fault: Option<PlanFault>) -> Logic {
        let mut values: Vec<Logic> = inputs.to_vec();
        let mut operands = plan.operands;
        for (i, step) in plan.steps.iter().enumerate() {
            let (args, rest) = operands.split_at(step.arity as usize);
            operands = rest;
            let forced = |pin: u16| {
                fault
                    .filter(|f| usize::from(f.step) == i && f.pin == pin)
                    .map(|f| Logic::from_bool(f.value))
            };
            let ins: Vec<Logic> = args
                .iter()
                .enumerate()
                .map(|(k, &s)| forced(k as u16).unwrap_or(values[s as usize]))
                .collect();
            let out = forced(PlanFault::OUTPUT).unwrap_or_else(|| step.f.eval(&ins));
            values.push(out);
        }
        *values.last().expect("a plan has a root step")
    }

    /// Every entry of `lut` against the scalar oracle.
    fn assert_lut_matches_oracle(cell: &MacroCell, lut: &Lut3, fault: Option<PlanFault>) {
        let n = cell.support().len();
        for idx in 0..POW3[n.max(1)] {
            let inputs: Vec<Logic> = (0..n)
                .map(|j| Logic::from_code((idx / POW3[j] % 3) as u8))
                .collect();
            assert_eq!(
                lut.eval_index(idx),
                eval_plan_logic(cell.plan(), &inputs, fault),
                "cell {cell} entry {idx} fault {fault:?}"
            );
        }
    }

    /// The good LUT and the faulty LUT of every output and pin stuck-at
    /// site of every cell of the 18 Table 3 circuits, built 64 entries per
    /// kernel call, equal the scalar gate-by-gate evaluation entry by
    /// entry — so the interned LUT pool is byte-identical to one built a
    /// scalar entry at a time.
    #[test]
    fn packed_luts_match_the_scalar_plan_evaluator() {
        const TABLE3: [&str; 18] = [
            "s298g", "s344g", "s349g", "s386g", "s400g", "s444g", "s526g", "s641g", "s713g",
            "s820g", "s832g", "s1196g", "s1238g", "s1423g", "s1488g", "s1494g", "s5378g",
            "s35932g",
        ];
        for name in TABLE3 {
            let c = crate::generate::benchmark(name).unwrap();
            let m = extract_macros(&c, DEFAULT_MACRO_MAX_INPUTS);
            for cell in m.cells() {
                assert_lut_matches_oracle(cell, cell.lut(), None);
                for step in cell.plan().steps {
                    for value in [false, true] {
                        let mut sites = vec![MacroFaultSite::Output {
                            gate: step.gate,
                            value,
                        }];
                        sites.extend((0..usize::from(step.arity)).map(|pin| MacroFaultSite::Pin {
                            gate: step.gate,
                            pin,
                            value,
                        }));
                        for site in sites {
                            let fault = cell.plan().fault_at(site);
                            let lut = cell.faulty_lut(site).expect("member site");
                            assert_lut_matches_oracle(cell, &lut, fault);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn structural_extraction_builds_no_lut() {
        let m = extract_macros(&s27(), DEFAULT_MACRO_MAX_INPUTS);
        assert!(m.cells().iter().all(|c| c.good.get().is_none()));
        let _ = m.cells()[0].lut();
        assert!(m.cells()[0].good.get().is_some());
    }

    fn figure3_circuit() -> Circuit {
        // The Figure 3 shape: a 3-gate fanout-free region collapsible into
        // one macro evaluation.
        parse_bench(
            "fig3",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
             g1 = AND(a, b)\ng2 = NOT(g1)\ny = OR(g2, c)\n",
        )
        .unwrap()
    }

    #[test]
    fn figure3_three_evaluations_become_one() {
        let c = figure3_circuit();
        let m = extract_macros(&c, 7);
        assert_eq!(m.num_cells(), 1, "3 gates, 1 evaluation (Figure 3)");
        let cell = &m.cells()[0];
        assert_eq!(cell.members().len(), 3);
        assert_eq!(cell.support().len(), 3);
        // y = OR(NOT(AND(a,b)), c)
        use Logic::*;
        assert_eq!(cell.eval(&[One, One, Zero]), Zero);
        assert_eq!(cell.eval(&[Zero, One, Zero]), One);
        assert_eq!(cell.eval(&[X, One, One]), One);
        assert_eq!(cell.eval(&[X, One, Zero]), X);
    }

    #[test]
    fn every_comb_gate_is_covered_exactly_once() {
        // Inverter chains longer than one cell's gate limit split into
        // several cells.
        let chain = |n: usize| {
            let mut text = format!("INPUT(a)\nOUTPUT(g{n})\ng1 = NOT(a)\n");
            for i in 2..=n {
                text.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
            }
            parse_bench("chain", &text).unwrap()
        };
        for c in [s27(), chain(65), chain(1200)] {
            let m = extract_macros(&c, 7);
            let mut seen = vec![0usize; c.num_nodes()];
            for cell in m.cells() {
                assert!(cell.members().len() <= MAX_CELL_GATES, "{cell}");
                for &g in cell.members() {
                    seen[g.index()] += 1;
                }
            }
            for &g in c.topo_order() {
                assert_eq!(seen[g.index()], 1, "{}", c.gate(g).name());
            }
            assert!(
                m.num_cells() < c.num_comb_gates(),
                "some collapsing happened"
            );
        }
    }

    #[test]
    fn macro_eval_matches_gate_eval_on_s27() {
        let c = s27();
        let m = extract_macros(&c, 7);
        // For every cell, brute-force check LUT vs. direct gate evaluation
        // over all binary support assignments.
        for cell in m.cells() {
            let n = cell.support().len();
            for bits in 0..1usize << n {
                let mut values = vec![Logic::X; c.num_nodes()];
                for (i, &s) in cell.support().iter().enumerate() {
                    values[s.index()] = Logic::from_bool(bits >> i & 1 != 0);
                }
                for &g in cell.members() {
                    let ins: Vec<Logic> = c
                        .gate(g)
                        .fanin()
                        .iter()
                        .map(|&f| values[f.index()])
                        .collect();
                    let f = c.gate(g).kind().gate_fn().unwrap();
                    values[g.index()] = f.eval(&ins);
                }
                let expect = values[cell.root().index()];
                let sup: Vec<Logic> = (0..n)
                    .map(|i| Logic::from_bool(bits >> i & 1 != 0))
                    .collect();
                assert_eq!(
                    cell.eval(&sup),
                    expect,
                    "cell {} bits {bits:b}",
                    cell.root()
                );
            }
        }
    }

    #[test]
    fn support_cap_is_respected() {
        // A wide AND tree over 12 inputs forces splitting at cap 4.
        let mut src = String::new();
        for i in 0..12 {
            src.push_str(&format!("INPUT(i{i})\n"));
        }
        src.push_str("OUTPUT(y)\n");
        for k in 0..6 {
            src.push_str(&format!("a{k} = AND(i{}, i{})\n", 2 * k, 2 * k + 1));
        }
        src.push_str("b0 = AND(a0, a1, a2)\nb1 = AND(a3, a4, a5)\ny = AND(b0, b1)\n");
        let c = parse_bench("wide", &src).unwrap();
        let m = extract_macros(&c, 4);
        for cell in m.cells() {
            assert!(cell.support().len() <= 4, "{cell}");
        }
        // All gates still covered.
        let covered: usize = m.cells().iter().map(|c| c.members().len()).sum();
        assert_eq!(covered, c.num_comb_gates());
    }

    #[test]
    fn faulty_table_models_internal_stuck_at() {
        let c = figure3_circuit();
        let m = extract_macros(&c, 7);
        let cell = &m.cells()[0];
        let g1 = c.find("g1").unwrap();
        // g1 output stuck-at-1 ⇒ NOT(g1)=0 ⇒ y = c.
        let ft = cell
            .faulty_table(MacroFaultSite::Output {
                gate: g1,
                value: true,
            })
            .unwrap();
        let ci = cell
            .support()
            .iter()
            .position(|&s| s == c.find("c").unwrap())
            .unwrap();
        for bits in 0..1usize << 3 {
            assert_eq!(ft.eval_bits(bits), bits >> ci & 1 != 0, "bits {bits:b}");
        }
        // Pin fault: g1 input pin 0 (signal a) stuck-at-0 ⇒ g1=0 ⇒ y = 1.
        let ft = cell
            .faulty_table(MacroFaultSite::Pin {
                gate: g1,
                pin: 0,
                value: false,
            })
            .unwrap();
        for bits in 0..1usize << 3 {
            assert!(ft.eval_bits(bits));
        }
        // Site outside the cell is rejected.
        let a = c.find("a").unwrap();
        assert!(cell
            .faulty_table(MacroFaultSite::Output {
                gate: a,
                value: true
            })
            .is_none());
    }

    #[test]
    fn po_tap_makes_a_gate_a_root() {
        // g1 feeds g2 and is also a primary output: it must not be absorbed.
        let c = parse_bench(
            "tap",
            "INPUT(a)\nINPUT(b)\nOUTPUT(g1)\nOUTPUT(g2)\ng1 = AND(a, b)\ng2 = NOT(g1)\n",
        )
        .unwrap();
        let m = extract_macros(&c, 7);
        assert_eq!(m.num_cells(), 2);
    }

    #[test]
    fn dff_boundary_is_a_root_boundary() {
        // Gate feeding only a DFF D pin roots its own cell, and the DFF
        // output is a support of downstream cells.
        let c = s27();
        let m = extract_macros(&c, 7);
        for cell in m.cells() {
            for &s in cell.support() {
                let k = c.gate(s).kind();
                assert!(
                    !k.is_comb() || m.cell_of(s).map(|cc| cc.root()) == Some(s),
                    "support {} must be a PI, DFF, or another cell's root",
                    c.gate(s).name()
                );
            }
        }
    }

    #[test]
    fn eval_order_respects_dependencies() {
        // At cap 1 every two-input gate of s27 is direct; at 7 none is.
        let c = s27();
        for cap in [1, 7] {
            let m = extract_macros(&c, cap);
            let mut pos = vec![usize::MAX; c.num_nodes()];
            for (ord, &g) in m.eval_order().iter().enumerate() {
                pos[g.index()] = ord;
            }
            assert_eq!(m.eval_order().len(), m.num_cells() + m.direct_gates().len());
            for &g in m.eval_order() {
                let inputs = match m.cell_of(g) {
                    Some(cell) => cell.support(),
                    None => c.gate(g).fanin(),
                };
                for &s in inputs {
                    if c.gate(s).kind().is_comb() {
                        assert!(pos[s.index()] < pos[g.index()], "cap {cap}: inputs first");
                    }
                }
            }
        }
    }

    #[test]
    fn only_a_gate_too_wide_for_any_cell_is_direct() {
        // y reads six nets, one more than the cap, and can absorb nothing:
        // it is direct. z reads six too, but absorbing its single-consumer
        // inverter of `a`, which z also reads, leaves five: a legal
        // two-gate cell.
        let c = parse_bench(
            "w",
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n\
             OUTPUT(y)\nOUTPUT(z)\ny = AND(a, b, c, d, e, f)\nn = NOT(a)\n\
             z = OR(n, a, b, c, d, e)\n",
        )
        .unwrap();
        let m = extract_macros(&c, 5);
        let y = c.find("y").unwrap();
        let z = c.find("z").unwrap();
        assert_eq!(m.direct_gates(), [y]);
        assert!(m.cell_of(y).is_none());
        let cell = m.cell_of(z).unwrap();
        assert_eq!(cell.members().len(), 2);
        assert_eq!(cell.support().len(), 5);
        assert!(m.cells().iter().all(|cell| cell.support().len() <= 5));
    }
}
