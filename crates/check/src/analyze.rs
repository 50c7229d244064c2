//! Static fault-universe analysis: three-valued constant propagation,
//! observability, and SCOAP-style testability scores, combined into a
//! provably sound pruning of the simulated fault set.
//!
//! Three cooperating whole-netlist dataflow analyses run before the first
//! pattern:
//!
//! 1. **Value reachability** (`N007`/`N008`): for every net, the subset of
//!    `{0, 1, X}` the *good* machine can ever drive onto it, computed as a
//!    sequential fixpoint across flip-flop boundaries from the all-`X`
//!    initial state. A stuck-at-`v` fault whose net can never carry binary
//!    `v̄` is unexcitable: the faulty machine's value at the site is always
//!    comparable (in the Kleene information order) to the good value, and
//!    every gate function and the flip-flop transfer are monotone in that
//!    order, so the two machines stay comparable on every net forever — and
//!    comparable primary-output values are never *detectably different*
//!    (good binary, faulty the opposite binary). The same one-directional
//!    argument covers a transition fault either of whose edge endpoints
//!    never appears on the driving net.
//! 2. **Observability** (`F002`): a fault on a gate from which no primary
//!    output is reachable (through any path of gates and flip-flops) can
//!    never be observed. This is exactly the structural `N004` rule lifted
//!    to the fault universe; [`cross_check_observability`] keeps the two
//!    passes honest against each other (`F003`).
//! 3. **SCOAP scores**: classical controllability/observability estimates
//!    (Goldstein's CC0/CC1/CO with the sequential `+1` per flip-flop
//!    crossing), exported as per-fault weights for balance-aware shard
//!    planning.
//!
//! The pruning contract: [`prune_stuck_at`] collapses with the *exact*
//! equivalence rules (classical minus the flip-flop D ≡ Q merge), so every
//! simulated representative has bit-identical per-pattern behaviour to each
//! class member, and expansion reproduces the full uncollapsed detection
//! report exactly. All proofs assume binary primary-input sequences and the
//! all-`X` initial flip-flop state — precisely what `fsim sim --random`
//! drives (see [`AnalysisOptions::binary_inputs`]).

use cfs_faults::{
    collapse_stuck_at_exact, enumerate_transition, FaultFate, FaultSite, PruneReason, PruneStats,
    PrunedUniverse, StuckAt, TransitionFault,
};
use cfs_logic::{GateFn, Logic};
use cfs_netlist::{BenchProvenance, Circuit, GateId, GateKind};

use crate::diag::{Report, RuleCode, Span};

/// Value-set bit for logic 0.
pub(crate) const B0: u8 = 1;
/// Value-set bit for logic 1.
pub(crate) const B1: u8 = 2;
/// Value-set bit for `X`.
pub(crate) const BX: u8 = 4;
/// The full value set.
const BALL: u8 = B0 | B1 | BX;

/// Saturation bound for SCOAP scores (leaves headroom for additions).
const SCOAP_INF: u32 = u32::MAX / 4;

/// Caps for the reconvergence-exact cone refinement of value reachability.
const CONE_BOUNDARY_CAP: usize = 8;
const CONE_GATES_CAP: usize = 48;
const CONE_COMBOS_CAP: usize = 4096;

pub(crate) const fn mask_of(v: Logic) -> u8 {
    match v {
        Logic::Zero => B0,
        Logic::One => B1,
        Logic::X => BX,
    }
}

/// Swaps the 0 and 1 bits, keeping `X`.
const fn not_mask(m: u8) -> u8 {
    (m & BX) | ((m & B0) << 1) | ((m & B1) >> 1)
}

/// Assumptions the analyses may make about how the circuit will be driven.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Primary inputs only ever carry binary values (the CLI's random
    /// pattern sources guarantee this). With `false`, inputs may also be
    /// `X` and strictly fewer facts are provable.
    pub binary_inputs: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            binary_inputs: true,
        }
    }
}

/// The combined result of the three static analyses over one circuit.
#[derive(Debug, Clone)]
pub struct CircuitAnalysis {
    /// Per-node subset of `{0, 1, X}` the good machine can drive onto the
    /// node's output, as a bitmask (`1 = 0`, `2 = 1`, `4 = X`), starting
    /// from the all-`X` flip-flop state. A sound over-approximation.
    pub reach: Vec<u8>,
    /// Per-node: is any primary output reachable from the node through
    /// gates and flip-flops?
    pub observable: Vec<bool>,
    /// SCOAP 0-controllability per node (saturating; heuristic only).
    pub cc0: Vec<u32>,
    /// SCOAP 1-controllability per node.
    pub cc1: Vec<u32>,
    /// SCOAP observability of each node's output stem.
    pub co: Vec<u32>,
}

impl CircuitAnalysis {
    /// Can the node's output ever carry `v`?
    pub fn can(&self, id: GateId, v: Logic) -> bool {
        self.reach[id.index()] & mask_of(v) != 0
    }

    /// Whether any primary output is structurally reachable from the node.
    pub fn is_observable(&self, id: GateId) -> bool {
        self.observable[id.index()]
    }

    /// The node's SCOAP-style `(CC0, CC1, CO)` scores.
    pub fn scoap(&self, id: GateId) -> (u32, u32, u32) {
        let i = id.index();
        (self.cc0[i], self.cc1[i], self.co[i])
    }

    /// The constant the node is proven stuck at, if its value set is a
    /// binary singleton.
    pub fn constant_of(&self, id: GateId) -> Option<Logic> {
        match self.reach[id.index()] {
            m if m == B0 => Some(Logic::Zero),
            m if m == B1 => Some(Logic::One),
            m if m == BX => Some(Logic::X),
            _ => None,
        }
    }
}

/// Runs all three analyses with default options.
pub fn analyze_circuit(circuit: &Circuit) -> CircuitAnalysis {
    analyze_circuit_with(circuit, AnalysisOptions::default())
}

/// Runs all three analyses.
pub fn analyze_circuit_with(circuit: &Circuit, options: AnalysisOptions) -> CircuitAnalysis {
    let reach = value_reachability(circuit, options);
    let observable = observable_nodes(circuit);
    let (cc0, cc1, co) = scoap_scores(circuit);
    CircuitAnalysis {
        reach,
        observable,
        cc0,
        cc1,
        co,
    }
}

/// Evaluates a gate function over per-input value sets, assuming the inputs
/// vary independently. Exact under that assumption, a sound
/// over-approximation otherwise (correlations only shrink the true set).
pub(crate) fn eval_mask(f: GateFn, ins: &[u8]) -> u8 {
    match f {
        GateFn::Buf => ins[0],
        GateFn::Not => not_mask(ins[0]),
        GateFn::And => and_mask(ins),
        GateFn::Nand => not_mask(and_mask(ins)),
        GateFn::Or => or_mask(ins),
        GateFn::Nor => not_mask(or_mask(ins)),
        GateFn::Xor => xor_mask(ins),
        GateFn::Xnor => not_mask(xor_mask(ins)),
    }
}

fn and_mask(ins: &[u8]) -> u8 {
    let any0 = ins.iter().any(|m| m & B0 != 0);
    let all1 = ins.iter().all(|m| m & B1 != 0);
    // X needs an assignment with no 0 anywhere and at least one X.
    let any_x = ins.iter().any(|m| m & BX != 0);
    let all_avoid0 = ins.iter().all(|m| m & (B1 | BX) != 0);
    (if any0 { B0 } else { 0 })
        | (if all1 { B1 } else { 0 })
        | (if any_x && all_avoid0 { BX } else { 0 })
}

fn or_mask(ins: &[u8]) -> u8 {
    let any1 = ins.iter().any(|m| m & B1 != 0);
    let all0 = ins.iter().all(|m| m & B0 != 0);
    let any_x = ins.iter().any(|m| m & BX != 0);
    let all_avoid1 = ins.iter().all(|m| m & (B0 | BX) != 0);
    (if all0 { B0 } else { 0 })
        | (if any1 { B1 } else { 0 })
        | (if any_x && all_avoid1 { BX } else { 0 })
}

fn xor_mask(ins: &[u8]) -> u8 {
    let mut out = if ins.iter().any(|m| m & BX != 0) {
        BX
    } else {
        0
    };
    if ins.iter().all(|m| m & (B0 | B1) != 0) {
        let free = ins.iter().any(|m| m & B0 != 0 && m & B1 != 0);
        if free {
            out |= B0 | B1;
        } else {
            let odd = ins.iter().filter(|&&m| m & (B0 | B1) == B1).count() % 2 == 1;
            out |= if odd { B1 } else { B0 };
        }
    }
    out
}

/// The value-reachability fixpoint: ascending Kleene iteration with
/// flip-flop outputs seeded `{X}` (unknown initial state) and primary
/// inputs seeded by [`AnalysisOptions::binary_inputs`], followed by one
/// reconvergence-exact refinement pass.
fn value_reachability(circuit: &Circuit, options: AnalysisOptions) -> Vec<u8> {
    let n = circuit.num_nodes();
    let mut reach = vec![0u8; n];
    for &pi in circuit.inputs() {
        reach[pi.index()] = if options.binary_inputs { B0 | B1 } else { BALL };
    }
    for &q in circuit.dffs() {
        reach[q.index()] = BX;
    }
    let mut ins: Vec<u8> = Vec::new();
    // Terminates: each non-final iteration grows at least one flip-flop
    // mask, and total growth is bounded by two bits per flip-flop.
    loop {
        for &g in circuit.topo_order() {
            let gate = circuit.gate(g);
            let GateKind::Comb(f) = gate.kind() else {
                unreachable!("topo order contains only combinational gates");
            };
            ins.clear();
            ins.extend(gate.fanin().iter().map(|s| reach[s.index()]));
            reach[g.index()] = eval_mask(f, &ins);
        }
        let mut changed = false;
        for &q in circuit.dffs() {
            let d = circuit.gate(q).fanin()[0];
            let grown = reach[q.index()] | reach[d.index()];
            if grown != reach[q.index()] {
                reach[q.index()] = grown;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    refine_reachability(circuit, &mut reach);
    reach
}

/// One refinement pass: for gates whose input cone *reconverges* (shares a
/// node between two paths, including a net feeding two pins of one gate),
/// the independent-inputs evaluation over-approximates; re-deriving the
/// gate's value set by exhaustively enumerating joint boundary assignments
/// is exact over the cone and still sound (the boundary sets themselves
/// over-approximate every cycle's joint values). This is what proves nets
/// like `OR(a, NOT(a))` constant. The refined masks are final verdicts;
/// they are intentionally not fed back into the sequential fixpoint.
fn refine_reachability(circuit: &Circuit, reach: &mut [u8]) {
    let mut refined = reach.to_vec();
    let mut values = vec![Logic::X; circuit.num_nodes()];
    for &g in circuit.topo_order() {
        if let Some(mask) = refine_cone(circuit, reach, g, &mut values) {
            refined[g.index()] &= mask;
        }
    }
    for &q in circuit.dffs() {
        let d = circuit.gate(q).fanin()[0];
        refined[q.index()] &= BX | refined[d.index()];
    }
    reach.copy_from_slice(&refined);
}

/// Exhaustive cone evaluation for one gate; `None` when the cone is a pure
/// tree (independent evaluation is already exact) or exceeds the caps.
fn refine_cone(circuit: &Circuit, reach: &[u8], root: GateId, values: &mut [Logic]) -> Option<u8> {
    let mut internal: Vec<GateId> = Vec::new();
    let mut boundary: Vec<GateId> = Vec::new();
    let mut seen: Vec<GateId> = Vec::new();
    let mut stack = vec![root];
    let mut reconvergent = false;
    while let Some(id) = stack.pop() {
        if seen.contains(&id) {
            reconvergent = true;
            continue;
        }
        seen.push(id);
        if circuit.gate(id).kind().is_comb() {
            if internal.len() >= CONE_GATES_CAP {
                return None;
            }
            internal.push(id);
            stack.extend(circuit.gate(id).fanin().iter().copied());
        } else {
            if boundary.len() >= CONE_BOUNDARY_CAP {
                return None;
            }
            boundary.push(id);
        }
    }
    if !reconvergent {
        return None;
    }
    let choices: Vec<Vec<Logic>> = boundary
        .iter()
        .map(|&b| {
            Logic::ALL
                .iter()
                .copied()
                .filter(|&v| reach[b.index()] & mask_of(v) != 0)
                .collect()
        })
        .collect();
    let combos = choices
        .iter()
        .try_fold(1usize, |acc, c| acc.checked_mul(c.len()))?;
    if combos == 0 || combos > CONE_COMBOS_CAP {
        return None;
    }
    internal.sort_by_key(|&id| (circuit.level(id), id));
    let mut out = 0u8;
    let mut digits = vec![0usize; boundary.len()];
    let mut ins: Vec<Logic> = Vec::new();
    loop {
        for (k, &b) in boundary.iter().enumerate() {
            values[b.index()] = choices[k][digits[k]];
        }
        for &g in &internal {
            let gate = circuit.gate(g);
            ins.clear();
            ins.extend(gate.fanin().iter().map(|&s| values[s.index()]));
            let GateKind::Comb(f) = gate.kind() else {
                unreachable!("cone internals are combinational");
            };
            values[g.index()] = f.eval(&ins);
        }
        out |= mask_of(values[root.index()]);
        if out == BALL {
            return Some(out);
        }
        let mut k = 0;
        loop {
            if k == digits.len() {
                return Some(out);
            }
            digits[k] += 1;
            if digits[k] < choices[k].len() {
                break;
            }
            digits[k] = 0;
            k += 1;
        }
    }
}

/// Per-node: can any primary output be reached from the node, walking
/// forward through gates and flip-flops? Computed as backward reachability
/// from the output taps — the circuit-level twin of the textual `N004`
/// pass.
pub fn observable_nodes(circuit: &Circuit) -> Vec<bool> {
    let mut observable = vec![false; circuit.num_nodes()];
    let mut stack: Vec<GateId> = circuit.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if observable[id.index()] {
            continue;
        }
        observable[id.index()] = true;
        stack.extend(circuit.gate(id).fanin().iter().copied());
    }
    observable
}

/// Classical SCOAP controllability and observability, with the sequential
/// `+1` per flip-flop crossing, iterated to (or near) a fixpoint. Scores
/// are heuristics for shard balancing, never soundness-bearing.
fn scoap_scores(circuit: &Circuit) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let n = circuit.num_nodes();
    let mut cc0 = vec![SCOAP_INF; n];
    let mut cc1 = vec![SCOAP_INF; n];
    for &pi in circuit.inputs() {
        cc0[pi.index()] = 1;
        cc1[pi.index()] = 1;
    }
    let max_iters = 4 + 2 * circuit.num_dffs();
    for _ in 0..max_iters {
        let mut changed = false;
        for &g in circuit.topo_order() {
            let gate = circuit.gate(g);
            let GateKind::Comb(f) = gate.kind() else {
                unreachable!()
            };
            let (n0, n1) = gate_controllability(f, gate.fanin(), &cc0, &cc1);
            if n0 < cc0[g.index()] || n1 < cc1[g.index()] {
                cc0[g.index()] = cc0[g.index()].min(n0);
                cc1[g.index()] = cc1[g.index()].min(n1);
                changed = true;
            }
        }
        for &q in circuit.dffs() {
            let d = circuit.gate(q).fanin()[0];
            let n0 = cc0[d.index()].saturating_add(1).min(SCOAP_INF);
            let n1 = cc1[d.index()].saturating_add(1).min(SCOAP_INF);
            if n0 < cc0[q.index()] || n1 < cc1[q.index()] {
                cc0[q.index()] = cc0[q.index()].min(n0);
                cc1[q.index()] = cc1[q.index()].min(n1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut co = vec![SCOAP_INF; n];
    for &tap in circuit.outputs() {
        co[tap.index()] = 0;
    }
    for _ in 0..max_iters {
        let mut changed = false;
        for &g in circuit.topo_order().iter().rev() {
            let here = co[g.index()];
            if here >= SCOAP_INF {
                continue;
            }
            let gate = circuit.gate(g);
            let GateKind::Comb(f) = gate.kind() else {
                unreachable!()
            };
            for pin in 0..gate.fanin().len() {
                let cost =
                    here.saturating_add(pin_sensitization_cost(f, gate.fanin(), pin, &cc0, &cc1));
                let src = gate.fanin()[pin].index();
                if cost < co[src] {
                    co[src] = cost;
                    changed = true;
                }
            }
        }
        for &q in circuit.dffs() {
            let d = circuit.gate(q).fanin()[0].index();
            let cost = co[q.index()].saturating_add(1).min(SCOAP_INF);
            if cost < co[d] {
                co[d] = cost;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (cc0, cc1, co)
}

fn gate_controllability(f: GateFn, fanin: &[GateId], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let min0 = || fanin.iter().map(|s| cc0[s.index()]).min().unwrap_or(0);
    let min1 = || fanin.iter().map(|s| cc1[s.index()]).min().unwrap_or(0);
    let sum0 = || {
        fanin
            .iter()
            .fold(0u32, |a, s| a.saturating_add(cc0[s.index()]))
    };
    let sum1 = || {
        fanin
            .iter()
            .fold(0u32, |a, s| a.saturating_add(cc1[s.index()]))
    };
    let (c0, c1) = match f {
        GateFn::Buf => (cc0[fanin[0].index()], cc1[fanin[0].index()]),
        GateFn::Not => (cc1[fanin[0].index()], cc0[fanin[0].index()]),
        GateFn::And => (min0(), sum1()),
        GateFn::Nand => (sum1(), min0()),
        GateFn::Or => (sum0(), min1()),
        GateFn::Nor => (min1(), sum0()),
        GateFn::Xor | GateFn::Xnor => {
            // Parity dynamic programme over (even, odd) assignment costs.
            let (mut even, mut odd) = (0u32, SCOAP_INF);
            for s in fanin {
                let (z, o) = (cc0[s.index()], cc1[s.index()]);
                let new_even = even.saturating_add(z).min(odd.saturating_add(o));
                let new_odd = odd.saturating_add(z).min(even.saturating_add(o));
                even = new_even;
                odd = new_odd;
            }
            if f == GateFn::Xor {
                (even, odd)
            } else {
                (odd, even)
            }
        }
    };
    (
        c0.saturating_add(1).min(SCOAP_INF),
        c1.saturating_add(1).min(SCOAP_INF),
    )
}

/// Cost of sensitizing `pin` through its gate (side inputs at
/// non-controlling values), including the classical `+1` depth term.
fn pin_sensitization_cost(
    f: GateFn,
    fanin: &[GateId],
    pin: usize,
    cc0: &[u32],
    cc1: &[u32],
) -> u32 {
    let mut cost = 1u32;
    for (j, s) in fanin.iter().enumerate() {
        if j == pin {
            continue;
        }
        let side = match f {
            GateFn::And | GateFn::Nand => cc1[s.index()],
            GateFn::Or | GateFn::Nor => cc0[s.index()],
            GateFn::Xor | GateFn::Xnor => cc0[s.index()].min(cc1[s.index()]),
            GateFn::Buf | GateFn::Not => 0,
        };
        cost = cost.saturating_add(side);
    }
    cost.min(SCOAP_INF)
}

/// The net whose good value a fault site sees: the node's own output for a
/// stem fault, the driving node's output for a branch (pin) fault.
pub(crate) fn site_net(circuit: &Circuit, site: FaultSite) -> GateId {
    match site {
        FaultSite::Output { gate } => gate,
        FaultSite::Pin { gate, pin } => circuit.gate(gate).fanin()[pin as usize],
    }
}

/// A stuck-at fault's static verdict, if any.
fn stuck_verdict(circuit: &Circuit, analysis: &CircuitAnalysis, f: StuckAt) -> Option<PruneReason> {
    let excite = !f.value(); // the good value that makes the fault visible
    if !analysis.can(site_net(circuit, f.site), excite) {
        return Some(PruneReason::Unexcitable);
    }
    if !analysis.observable[f.site.gate().index()] {
        return Some(PruneReason::Unobservable);
    }
    None
}

/// A transition fault's static verdict, if any.
fn transition_verdict(
    circuit: &Circuit,
    analysis: &CircuitAnalysis,
    f: TransitionFault,
) -> Option<PruneReason> {
    let driver = circuit.gate(f.gate).fanin()[f.pin as usize];
    if !analysis.can(driver, f.edge.from_value()) || !analysis.can(driver, f.edge.to_value()) {
        return Some(PruneReason::Unexcitable);
    }
    if !analysis.observable[f.gate.index()] {
        return Some(PruneReason::Unobservable);
    }
    None
}

/// Builds the pruned stuck-at universe: exact equivalence collapsing plus
/// per-class undetectability proofs. A class is pruned when *any* member is
/// provably undetectable (exact equivalence makes all members share the
/// verdict); surviving class representatives form the simulated set.
pub fn prune_stuck_at(circuit: &Circuit, analysis: &CircuitAnalysis) -> PrunedUniverse<StuckAt> {
    let col = collapse_stuck_at_exact(circuit);
    let verdicts: Vec<Option<PruneReason>> = col
        .all
        .iter()
        .map(|&f| stuck_verdict(circuit, analysis, f))
        .collect();
    let mut class_reason: Vec<Option<PruneReason>> = vec![None; col.num_classes()];
    for (i, verdict) in verdicts.iter().enumerate() {
        if let Some(reason) = *verdict {
            // Prefer the unexcitability proof when a class has both.
            let slot = &mut class_reason[col.class_of[i]];
            if *slot != Some(PruneReason::Unexcitable) {
                *slot = Some(reason);
            }
        }
    }
    let mut sim = Vec::new();
    let mut sim_of_class = vec![u32::MAX; col.num_classes()];
    for (c, &rep) in col.representatives.iter().enumerate() {
        if class_reason[c].is_none() {
            sim_of_class[c] = sim.len() as u32;
            sim.push(rep);
        }
    }
    let mut stats = PruneStats {
        full: col.all.len(),
        classes: col.num_classes(),
        sim: sim.len(),
        ..PruneStats::default()
    };
    let fate: Vec<FaultFate> = (0..col.all.len())
        .map(|i| {
            let c = col.class_of[i];
            match class_reason[c] {
                None => FaultFate::Sim(sim_of_class[c]),
                Some(class_level) => {
                    // Report the fault's own proof when it has one, the
                    // class-level proof otherwise.
                    let reason = verdicts[i].unwrap_or(class_level);
                    match reason {
                        PruneReason::Unexcitable => stats.unexcitable += 1,
                        PruneReason::Unobservable => stats.unobservable += 1,
                        // Conflicts are only found by the learn pass.
                        PruneReason::ConflictUntestable => unreachable!(),
                    }
                    FaultFate::Pruned(reason)
                }
            }
        })
        .collect();
    PrunedUniverse {
        full: col.all,
        sim,
        fate,
        stats,
    }
}

/// Builds the pruned transition universe (no equivalence collapsing exists
/// for this model; the reduction is purely the static proofs).
pub fn prune_transition(
    circuit: &Circuit,
    analysis: &CircuitAnalysis,
) -> PrunedUniverse<TransitionFault> {
    let full = enumerate_transition(circuit);
    let mut sim = Vec::new();
    let mut stats = PruneStats {
        full: full.len(),
        classes: full.len(),
        ..PruneStats::default()
    };
    let fate: Vec<FaultFate> = full
        .iter()
        .map(|&f| match transition_verdict(circuit, analysis, f) {
            None => {
                let idx = sim.len() as u32;
                sim.push(f);
                FaultFate::Sim(idx)
            }
            Some(reason) => {
                match reason {
                    PruneReason::Unexcitable => stats.unexcitable += 1,
                    PruneReason::Unobservable => stats.unobservable += 1,
                    // Conflicts are only found by the learn pass.
                    PruneReason::ConflictUntestable => unreachable!(),
                }
                FaultFate::Pruned(reason)
            }
        })
        .collect();
    stats.sim = sim.len();
    PrunedUniverse {
        full,
        sim,
        fate,
        stats,
    }
}

pub(crate) fn span_of(prov: Option<&BenchProvenance>, gate: GateId) -> Option<Span> {
    prov.and_then(|p| p.line_of(gate))
        .map(|line| Span { line, col: 1 })
}

/// Appends the analysis findings to a report: `N007` for proven-constant
/// nets, `N008` for nets that can never reach one (or any) of their binary
/// values, and `F002` for every statically undetectable fault of both
/// universes.
pub fn analysis_findings(
    circuit: &Circuit,
    analysis: &CircuitAnalysis,
    stuck: &PrunedUniverse<StuckAt>,
    transition: &PrunedUniverse<TransitionFault>,
    prov: Option<&BenchProvenance>,
    report: &mut Report,
) {
    for (i, gate) in circuit.gates().iter().enumerate() {
        let id = GateId::from_index(i);
        if gate.kind() == GateKind::Input {
            continue; // input value sets are assumptions, not findings
        }
        let span = span_of(prov, id);
        match analysis.reach[i] {
            m if m == B0 || m == B1 => {
                report.add(
                    RuleCode::ConstantNet,
                    span,
                    format!(
                        "net {:?} is constant {} from the all-X initial state",
                        gate.name(),
                        u8::from(m == B1)
                    ),
                );
            }
            m if m == BX => {
                report.add(
                    RuleCode::NeverBinaryNet,
                    span,
                    format!("net {:?} never settles to a binary value", gate.name()),
                );
            }
            m if m == (B0 | BX) || m == (B1 | BX) => {
                report.add(
                    RuleCode::NeverBinaryNet,
                    span,
                    format!(
                        "net {:?} can never carry the binary value {}",
                        gate.name(),
                        u8::from(m & B0 != 0)
                    ),
                );
            }
            _ => {}
        }
    }
    for (f, fate) in stuck.full.iter().zip(&stuck.fate) {
        if let FaultFate::Pruned(reason) = fate {
            report.add(
                untestable_code(*reason),
                span_of(prov, f.site.gate()),
                format!("{} is {}", f.describe(circuit), reason.name()),
            );
        }
    }
    for (f, fate) in transition.full.iter().zip(&transition.fate) {
        if let FaultFate::Pruned(reason) = fate {
            report.add(
                untestable_code(*reason),
                span_of(prov, f.gate),
                format!("{} is {}", f.describe(circuit), reason.name()),
            );
        }
    }
}

/// Conflict-untestable faults get their own code (`F004`) so `--learn`
/// findings are distinguishable from plain constant-propagation prunes.
pub(crate) fn untestable_code(reason: PruneReason) -> RuleCode {
    match reason {
        PruneReason::ConflictUntestable => RuleCode::ConflictUntestableFault,
        _ => RuleCode::StaticallyUntestableFault,
    }
}

/// `F003`: verifies that the textual `N004` pass and the circuit-level
/// observability analysis agree — every `N004`-flagged definition must be
/// unobservable, and every unobservable non-input node must have been
/// flagged `N004` (or `N003`, which subsumes it for dangling nodes). A
/// finding here is a checker bug, never a user error.
pub(crate) fn cross_check_observability(
    circuit: &Circuit,
    prov: Option<&BenchProvenance>,
    unreachable_names: &[String],
    dangling_names: &[String],
    report: &mut Report,
) {
    let observable = observable_nodes(circuit);
    for name in unreachable_names {
        let Some(id) = circuit.find(name) else {
            report.add(
                RuleCode::ObservabilityMismatch,
                None,
                format!("N004 flagged {name:?}, which the parsed circuit does not contain"),
            );
            continue;
        };
        if observable[id.index()] {
            report.add(
                RuleCode::ObservabilityMismatch,
                span_of(prov, id),
                format!(
                    "N004 flagged {name:?} as unreachable, but the observability analysis can reach a primary output from it"
                ),
            );
        }
    }
    for (i, gate) in circuit.gates().iter().enumerate() {
        if observable[i] || gate.kind() == GateKind::Input {
            continue;
        }
        let name = gate.name();
        if !unreachable_names.iter().any(|n| n == name) && !dangling_names.iter().any(|n| n == name)
        {
            report.add(
                RuleCode::ObservabilityMismatch,
                span_of(prov, GateId::from_index(i)),
                format!(
                    "the observability analysis proves {name:?} unobservable, but N004/N003 did not flag it"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_faults::FaultStatus;
    use cfs_netlist::parse_bench;

    fn analyze(src: &str) -> (Circuit, CircuitAnalysis) {
        let c = parse_bench("t", src).unwrap();
        let a = analyze_circuit(&c);
        (c, a)
    }

    #[test]
    fn tautology_is_proven_constant() {
        // y = OR(a, NOT(a)) is constant 1, but only the reconvergence-exact
        // refinement can see it (independent propagation says {0,1}).
        let (c, a) = analyze("INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n");
        let y = c.find("y").unwrap();
        assert_eq!(a.constant_of(y), Some(Logic::One));
        assert!(!a.can(y, Logic::Zero));
        assert!(!a.can(y, Logic::X));
    }

    #[test]
    fn contradiction_is_proven_constant_zero() {
        let (c, a) = analyze("INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = AND(a, na)\n");
        assert_eq!(a.constant_of(c.find("y").unwrap()), Some(Logic::Zero));
    }

    #[test]
    fn xor_of_a_net_with_itself_is_zero() {
        let (c, a) = analyze("INPUT(a)\nOUTPUT(y)\ny = XOR(a, a)\n");
        assert_eq!(a.constant_of(c.find("y").unwrap()), Some(Logic::Zero));
    }

    #[test]
    fn free_logic_reaches_both_binaries() {
        let (c, a) = analyze("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n");
        let y = c.find("y").unwrap();
        assert!(a.can(y, Logic::Zero) && a.can(y, Logic::One));
        assert!(!a.can(y, Logic::X), "binary inputs cannot produce X");
        assert_eq!(a.constant_of(y), None);
    }

    #[test]
    fn dff_fed_by_tautology_never_carries_zero() {
        // q starts X and can only ever latch 1.
        let (c, a) = analyze("INPUT(a)\nOUTPUT(q)\nna = NOT(a)\nt = OR(a, na)\nq = DFF(t)\n");
        let q = c.find("q").unwrap();
        assert!(!a.can(q, Logic::Zero));
        assert!(a.can(q, Logic::One) && a.can(q, Logic::X));
    }

    #[test]
    fn self_reinforcing_flop_stays_unknown() {
        // q = DFF(AND(q, a)): from the all-X state the loop can reach 0
        // (a=0 forces it) but never provably 1.
        let (c, a) = analyze("INPUT(a)\nOUTPUT(q)\nd = AND(q, a)\nq = DFF(d)\n");
        let q = c.find("q").unwrap();
        assert!(a.can(q, Logic::Zero));
        assert!(!a.can(q, Logic::One));
        assert!(a.can(q, Logic::X));
    }

    #[test]
    fn x_inputs_option_weakens_claims() {
        let c = parse_bench("t", "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n").unwrap();
        let a = analyze_circuit_with(
            &c,
            AnalysisOptions {
                binary_inputs: false,
            },
        );
        let y = c.find("y").unwrap();
        // With a possibly-X input, OR(a, NOT(a)) can evaluate to X.
        assert_eq!(a.constant_of(y), None);
        assert!(a.can(y, Logic::X) && a.can(y, Logic::One));
        assert!(!a.can(y, Logic::Zero));
    }

    #[test]
    fn observability_marks_dead_cones() {
        let (c, _) = analyze(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ndead = NOR(a, b)\ndead2 = NOT(dead)\n",
        );
        let obs = observable_nodes(&c);
        assert!(obs[c.find("y").unwrap().index()]);
        assert!(obs[c.find("a").unwrap().index()]);
        assert!(!obs[c.find("dead").unwrap().index()]);
        assert!(!obs[c.find("dead2").unwrap().index()]);
    }

    #[test]
    fn pruning_drops_constant_and_dead_faults() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nt = OR(a, na)\ny = AND(t, b)\n";
        let (c, a) = analyze(src);
        let pruned = prune_stuck_at(&c, &a);
        pruned.validate().unwrap();
        assert!(pruned.stats.unexcitable > 0, "{:?}", pruned.stats);
        // t stuck-at-1 is unexcitable (t is constant 1).
        let t = c.find("t").unwrap();
        let i = pruned
            .full
            .iter()
            .position(|f| *f == StuckAt::output(t, true))
            .unwrap();
        assert_eq!(
            pruned.fate[i],
            FaultFate::Pruned(PruneReason::Unexcitable),
            "constant net's redundant fault must be pruned"
        );
        // Expansion reports pruned faults untestable.
        let statuses = vec![FaultStatus::Undetected; pruned.sim.len()];
        let expanded = pruned.expand_statuses(&statuses);
        assert_eq!(expanded[i], FaultStatus::Untestable);
    }

    #[test]
    fn transition_pruning_uses_both_edge_endpoints() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nt = OR(a, na)\ny = AND(t, b)\n";
        let (c, a) = analyze(src);
        let pruned = prune_transition(&c, &a);
        pruned.validate().unwrap();
        let y = c.find("y").unwrap();
        // Pin 0 of y is driven by constant-1 t: both edges are unexcitable.
        let both: Vec<_> = pruned
            .full
            .iter()
            .zip(&pruned.fate)
            .filter(|(f, _)| f.gate == y && f.pin == 0)
            .collect();
        assert_eq!(both.len(), 2);
        for (_, fate) in both {
            assert_eq!(*fate, FaultFate::Pruned(PruneReason::Unexcitable));
        }
        // Pin 1 (free input b) survives.
        assert!(pruned
            .full
            .iter()
            .zip(&pruned.fate)
            .any(|(f, fate)| f.gate == y && f.pin == 1 && matches!(fate, FaultFate::Sim(_))));
    }

    #[test]
    fn scoap_scores_are_sane_on_a_chain() {
        let (c, a) = analyze("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = AND(a, b)\ny = OR(m, b)\n");
        let (aa, m, y) = (
            c.find("a").unwrap(),
            c.find("m").unwrap(),
            c.find("y").unwrap(),
        );
        assert_eq!(a.cc0[aa.index()], 1);
        assert_eq!(a.cc1[m.index()], 3, "AND: sum of input CC1s + 1");
        assert_eq!(a.cc0[m.index()], 2, "AND: min input CC0 + 1");
        assert_eq!(a.co[y.index()], 0, "PO tap");
        assert!(a.co[aa.index()] > a.co[m.index()]);
    }

    #[test]
    fn sequential_scoap_crosses_flops() {
        let (c, a) = analyze("INPUT(a)\nOUTPUT(q2)\nq1 = DFF(a)\nq2 = DFF(q1)\n");
        let (q1, q2) = (c.find("q1").unwrap(), c.find("q2").unwrap());
        assert_eq!(a.cc1[q1.index()], 2);
        assert_eq!(a.cc1[q2.index()], 3);
        assert_eq!(a.co[q2.index()], 0);
        assert_eq!(a.co[q1.index()], 1);
        assert_eq!(a.co[c.find("a").unwrap().index()], 2);
    }

    #[test]
    fn findings_cover_constant_dead_and_pruned() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nt = OR(a, na)\ny = AND(t, b)\n";
        let (c, a) = analyze(src);
        let ps = prune_stuck_at(&c, &a);
        let pt = prune_transition(&c, &a);
        let mut report = Report::new("t");
        analysis_findings(&c, &a, &ps, &pt, None, &mut report);
        assert!(report.with_code(RuleCode::ConstantNet).count() >= 1);
        assert_eq!(
            report
                .with_code(RuleCode::StaticallyUntestableFault)
                .count(),
            ps.stats.pruned() + pt.stats.pruned()
        );
        assert!(!report.has_errors(), "analysis findings are informational");
    }

    #[test]
    fn cross_check_accepts_consistent_passes() {
        let (c, _) = analyze("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
        let mut report = Report::new("t");
        cross_check_observability(&c, None, &[], &[], &mut report);
        assert_eq!(report.diagnostics.len(), 0);
    }

    #[test]
    fn cross_check_flags_fabricated_disagreement() {
        let (c, _) = analyze("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
        let mut report = Report::new("t");
        // Claim the observable PO gate was flagged N004: must trip F003.
        cross_check_observability(&c, None, &["y".to_owned()], &[], &mut report);
        assert_eq!(report.with_code(RuleCode::ObservabilityMismatch).count(), 1);
        assert!(report.has_errors());
    }
}
