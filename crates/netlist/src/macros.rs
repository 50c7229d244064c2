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

use cfs_logic::{Logic, Lut3, TruthTable};

use crate::{Circuit, GateId, GateKind};

/// Default cap on macro support size (the paper limits macro inputs so the
/// look-up table overhead stays small; 5 is the measured sweet spot for
/// both time and memory on the large benchmarks — see `EXPERIMENTS.md`).
pub const DEFAULT_MACRO_MAX_INPUTS: usize = 5;

/// Reference to an operand of an internal evaluation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanRef {
    /// The i-th (deduplicated) support input of the cell.
    Support(u16),
    /// The output of an earlier step.
    Step(u16),
}

/// One gate evaluation inside a cell's evaluation program.
#[derive(Debug, Clone)]
struct PlanStep {
    gate: GateId,
    f: cfs_logic::GateFn,
    args: Vec<PlanRef>,
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
#[derive(Debug, Clone)]
pub struct MacroCell {
    root: GateId,
    members: Vec<GateId>,
    support: Vec<GateId>,
    plan: Vec<PlanStep>,
    table: TruthTable,
    lut: Lut3,
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

    /// The good-machine binary function.
    pub fn table(&self) -> &TruthTable {
        &self.table
    }

    /// The good-machine three-valued LUT.
    pub fn lut(&self) -> &Lut3 {
        &self.lut
    }

    /// Evaluates the cell over three-valued support values.
    pub fn eval(&self, inputs: &[Logic]) -> Logic {
        self.lut.eval(inputs)
    }

    /// Computes the binary function of the cell with a stuck-at fault
    /// injected at an internal site.
    ///
    /// Returns `None` if the site does not belong to this cell.
    pub fn faulty_table(&self, site: MacroFaultSite) -> Option<TruthTable> {
        let (gate, pin, value) = match site {
            MacroFaultSite::Output { gate, value } => (gate, None, value),
            MacroFaultSite::Pin { gate, pin, value } => (gate, Some(pin), value),
        };
        let step_idx = self.plan.iter().position(|s| s.gate == gate)?;
        if let Some(p) = pin {
            if p >= self.plan[step_idx].args.len() {
                return None;
            }
        }
        let n = self.support.len();
        Some(TruthTable::from_fn(n, |bits| {
            self.eval_plan_bits(bits, Some((step_idx, pin, value)))
        }))
    }

    /// Computes the three-valued LUT of the cell with a stuck-at fault
    /// injected at an internal site, using pessimistic gate-by-gate Kleene
    /// evaluation (bit-identical with gate-level simulation).
    ///
    /// Returns `None` if the site does not belong to this cell.
    pub fn faulty_lut(&self, site: MacroFaultSite) -> Option<Lut3> {
        let (gate, pin, value) = match site {
            MacroFaultSite::Output { gate, value } => (gate, None, value),
            MacroFaultSite::Pin { gate, pin, value } => (gate, Some(pin), value),
        };
        let step_idx = self.plan.iter().position(|s| s.gate == gate)?;
        if let Some(p) = pin {
            if p >= self.plan[step_idx].args.len() {
                return None;
            }
        }
        Some(Lut3::from_fn3(self.support.len(), |vals| {
            self.eval_plan_logic(vals, Some((step_idx, pin, value)))
        }))
    }

    /// Gate-by-gate three-valued (Kleene) evaluation of the internal
    /// program, with an optional fault injection `(step, pin, stuck_value)`.
    /// This is deliberately as pessimistic about `X` as evaluating the
    /// region gate by gate, so macro simulation matches gate simulation.
    fn eval_plan_logic(
        &self,
        inputs: &[Logic],
        fault: Option<(usize, Option<usize>, bool)>,
    ) -> Logic {
        let mut values = [Logic::X; MAX_CELL_GATES];
        let mut args: Vec<Logic> = Vec::with_capacity(8);
        for (i, step) in self.plan.iter().enumerate() {
            args.clear();
            for (k, arg) in step.args.iter().enumerate() {
                let mut v = match arg {
                    PlanRef::Support(s) => inputs[*s as usize],
                    PlanRef::Step(s) => values[*s as usize],
                };
                if let Some((fi, Some(fp), fv)) = fault {
                    if fi == i && fp == k {
                        v = Logic::from_bool(fv);
                    }
                }
                args.push(v);
            }
            let mut out = step.f.eval(&args);
            if let Some((fi, None, fv)) = fault {
                if fi == i {
                    out = Logic::from_bool(fv);
                }
            }
            values[i] = out;
        }
        values[self.plan.len() - 1]
    }

    /// Evaluates the internal program on binary support values with an
    /// optional fault injection `(step, pin, stuck_value)`.
    fn eval_plan_bits(&self, bits: usize, fault: Option<(usize, Option<usize>, bool)>) -> bool {
        let mut values = [false; MAX_CELL_GATES];
        for (i, step) in self.plan.iter().enumerate() {
            let mut arg_bits = 0usize;
            for (k, arg) in step.args.iter().enumerate() {
                let mut v = match arg {
                    PlanRef::Support(s) => bits >> *s as usize & 1 != 0,
                    PlanRef::Step(s) => values[*s as usize],
                };
                if let Some((fi, Some(fp), fv)) = fault {
                    if fi == i && fp == k {
                        v = fv;
                    }
                }
                if v {
                    arg_bits |= 1 << k;
                }
            }
            let mut out = step.f.eval_bits(arg_bits, step.args.len());
            if let Some((fi, None, fv)) = fault {
                if fi == i {
                    out = fv;
                }
            }
            values[i] = out;
        }
        values[self.plan.len() - 1]
    }

    /// Approximate memory footprint in bytes (LUT + bookkeeping), for the
    /// paper-comparable MEM columns.
    pub fn memory_bytes(&self) -> usize {
        self.lut.memory_bytes()
            + self.members.len() * std::mem::size_of::<GateId>()
            + self.support.len() * std::mem::size_of::<GateId>()
            + self
                .plan
                .iter()
                .map(|s| 16 + 4 * s.args.len())
                .sum::<usize>()
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
/// exactly one [`MacroCell`].
#[derive(Debug, Clone)]
pub struct MacroCircuit {
    cells: Vec<MacroCell>,
    /// Gate index → cell index (combinational gates only).
    cell_of: Vec<Option<u32>>,
    /// Cells in a valid evaluation order (ascending root level).
    topo: Vec<u32>,
}

impl MacroCircuit {
    /// All cells.
    pub fn cells(&self) -> &[MacroCell] {
        &self.cells
    }

    /// The cell containing a combinational gate.
    pub fn cell_of(&self, gate: GateId) -> Option<&MacroCell> {
        self.cell_of[gate.index()].map(|i| &self.cells[i as usize])
    }

    /// Index of the cell containing a combinational gate.
    pub fn cell_index_of(&self, gate: GateId) -> Option<usize> {
        self.cell_of[gate.index()].map(|i| i as usize)
    }

    /// Cell indices in a valid evaluation order.
    pub fn topo_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.topo.iter().map(|&i| i as usize)
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

/// Most gates one cell absorbs: its evaluation plans keep one slot per
/// gate in a fixed array. A longer fanout-free region splits into
/// several cells.
const MAX_CELL_GATES: usize = 64;

/// Extracts macro cells from a circuit's combinational logic.
///
/// `max_inputs` caps each cell's support (1..=[`cfs_logic::MAX_LUT_INPUTS`]);
/// a region that would exceed the cap is split, with the overflowing fanin
/// subtree promoted to its own cell. A single gate whose own arity exceeds
/// the cap still forms a (one-gate) cell, so the guaranteed bound is
/// `support ≤ max(max_inputs, arity of the root gate)`.
///
/// # Panics
///
/// Panics if `max_inputs` is out of range, or if any gate's arity exceeds
/// [`cfs_logic::MAX_LUT_INPUTS`] (the cell LUT could not be built).
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
        let plan = build_plan(circuit, &members, &support);
        let root_step = plan.len() - 1;
        debug_assert_eq!(plan[root_step].gate, root);
        let cell = finish_cell(root, members, support, plan);
        cells.push(cell);
    }

    // Evaluation order: ascending root level (supports are transitive
    // fanins, hence at strictly lower levels).
    let mut topo: Vec<u32> = (0..cells.len() as u32).collect();
    topo.sort_by_key(|&i| {
        let c = &cells[i as usize];
        (circuit.level(c.root), c.root)
    });

    MacroCircuit {
        cells,
        cell_of,
        topo,
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

fn build_plan(circuit: &Circuit, members: &[GateId], support: &[GateId]) -> Vec<PlanStep> {
    let step_of = |g: GateId| members.iter().position(|&m| m == g);
    members
        .iter()
        .map(|&g| {
            let gate = circuit.gate(g);
            let f = match gate.kind() {
                GateKind::Comb(f) => f,
                _ => unreachable!("members are combinational"),
            };
            let args = gate
                .fanin()
                .iter()
                .map(|&src| match step_of(src) {
                    Some(s) => PlanRef::Step(s as u16),
                    None => {
                        let s = support
                            .iter()
                            .position(|&x| x == src)
                            .expect("external driver is in the support");
                        PlanRef::Support(s as u16)
                    }
                })
                .collect();
            PlanStep { gate: g, f, args }
        })
        .collect()
}

fn finish_cell(
    root: GateId,
    members: Vec<GateId>,
    support: Vec<GateId>,
    plan: Vec<PlanStep>,
) -> MacroCell {
    assert!(
        plan.len() <= MAX_CELL_GATES,
        "a macro cell evaluates at most {MAX_CELL_GATES} gates"
    );
    let n = support.len();
    let shell = MacroCell {
        root,
        members,
        support,
        plan,
        // Placeholder table; replaced below (needs `eval_plan_bits`).
        table: TruthTable::from_fn(n.max(1), |_| false),
        lut: Lut3::from_table(&TruthTable::from_fn(n.max(1), |_| false)),
    };
    let table = TruthTable::from_fn(n.max(1), |bits| shell.eval_plan_bits(bits, None));
    // The simulation LUT uses gate-by-gate Kleene evaluation (not the exact
    // X-completion merge) so macro and gate simulation agree bit-for-bit.
    let lut = Lut3::from_fn3(n.max(1), |vals| shell.eval_plan_logic(vals, None));
    MacroCell {
        table,
        lut,
        ..shell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{data::s27, parse_bench};

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
    fn topo_order_respects_dependencies() {
        let c = s27();
        let m = extract_macros(&c, 7);
        let mut pos = vec![usize::MAX; c.num_nodes()];
        for (ord, idx) in m.topo_order().enumerate() {
            pos[m.cells()[idx].root().index()] = ord;
        }
        for idx in 0..m.num_cells() {
            let cell = &m.cells()[idx];
            for &s in cell.support() {
                if c.gate(s).kind().is_comb() {
                    assert!(
                        pos[s.index()] < pos[cell.root().index()],
                        "support cell must evaluate first"
                    );
                }
            }
        }
    }
}
