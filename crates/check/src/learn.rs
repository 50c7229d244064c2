//! Implication-graph static learning and conflict-driven untestability
//! analysis (`--learn`).
//!
//! Three layers, all running before the first pattern:
//!
//! 1. **Direct implications** over literals `net=0` / `net=1`: the
//!    ternary-sound gate edges (for an AND gate `g`, `in=0 → g=0` and
//!    `g=1 → in=1`; dually for OR/NAND/NOR; both directions for NOT/BUF;
//!    XOR/XNOR contribute no single-literal edges) plus the flip-flop
//!    edges `d=v @t → q=v @t+1` and `q=v @t → d=v @t−1` (the backward
//!    edge is sound because a *binary* `q` proves the cycle is not the
//!    all-`X` initial one). The edge set is closed under contrapositives
//!    by construction, and [`ImplicationGraph::implications_of`] closes
//!    it under transitivity on query.
//! 2. **Static learning** (FIRE-style indirect implications): assert one
//!    literal in a bounded time-frame window, propagate the full
//!    constraint system to a fixpoint, and record every net forced to a
//!    binary singleton that the direct closure cannot derive as a
//!    *learned* edge.
//! 3. **Conflict-driven untestability** (`F004`): per fault, assert the
//!    *mandatory assignments* — the excitation value at the fault site
//!    plus, at every post-dominator on the way to an observable output,
//!    the exact binary non-controlling value on each side input outside
//!    the fault's fanout cone — and propagate. The window has the depth
//!    the graph was learned at, so its own operators already imply every
//!    graph edge and none is applied on top. A contradiction in every
//!    alignment of the bounded window is a proof that no input sequence
//!    can both excite the fault and propagate its effect, so
//!    [`prune_stuck_at_learned`] / [`prune_transition_learned`] drop the
//!    fault from the simulated universe with the same byte-identical
//!    expansion contract as the base `--prune` pass.
//!
//! # Soundness under bounded unrolling
//!
//! All proofs quantify over a *candidate escape cycle* `t`: the first
//! cycle at which the fault effect leaves the fault site's combinational
//! fanout cone (reaching a primary-output tap or a flip-flop D pin). A
//! detected fault must have one, and at cycle `t` both machines still
//! share the *same* flip-flop state, so the good-machine constraint
//! system describes both. The window cannot know which absolute cycle
//! `t` is, so every fault is checked under `frames` alignments: one
//! *full-history* window (covering every `t ≥ frames−1`, flip-flop
//! frame-0 masks seeded from the reachability fixpoint, which soundly
//! over-approximates any cycle) and one *reset-start* window per
//! `t < frames−1` (frame 0 is absolute cycle 0, flip-flops exactly `X`).
//! Only if **every** alignment is contradictory is the fault pruned —
//! bounding the depth can only lose precision, never soundness.

use cfs_faults::{FaultFate, FaultSite, PruneReason, PrunedUniverse, StuckAt, TransitionFault};
use cfs_logic::GateFn;
use cfs_netlist::{BenchProvenance, Circuit, GateId, GateKind};

use crate::analyze::{eval_mask, mask_of, site_net, span_of, CircuitAnalysis, B0, B1, BX};
use crate::diag::{Report, RuleCode};

/// Default number of unrolled time frames for `--learn`.
pub const DEFAULT_LEARN_FRAMES: usize = 2;

/// Configuration of the implication-learning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnOptions {
    /// Number of unrolled time frames (≥ 1). Frame `frames−1` is the
    /// candidate escape cycle where mandatory assignments are asserted.
    pub frames: usize,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            frames: DEFAULT_LEARN_FRAMES,
        }
    }
}

/// One implication reachable from a source literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Implication {
    /// The implied net.
    pub target: GateId,
    /// The implied binary value.
    pub value: bool,
    /// Time-frame offset relative to the source literal's cycle.
    pub delta: i32,
    /// Whether the final hop is a learned (indirect) edge rather than a
    /// direct gate implication.
    pub learned: bool,
}

/// The binary implication graph over `{net=0, net=1}` literals.
///
/// Direct edges hold at every cycle. Learned edges hold whenever the
/// source literal holds at cycle `≥ frames−1`; transitive chains
/// returned by [`Self::implications_of`] are guaranteed once the source
/// cycle is `≥ 2·(frames−1)` (steady state), since every intermediate
/// literal then also sits past the learning horizon.
#[derive(Debug, Clone)]
pub struct ImplicationGraph {
    frames: usize,
    /// Per source literal (`2·node + value`): direct `(target, delta)`.
    direct: Vec<Vec<(u32, i8)>>,
    /// Per source literal: learned `(target, delta)` edges.
    learned: Vec<Vec<(u32, i8)>>,
}

const fn lit(net: GateId, value: bool) -> u32 {
    (net.index() * 2 + value as usize) as u32
}

fn lit_net(l: u32) -> GateId {
    GateId::from_index(l as usize / 2)
}

const fn lit_value(l: u32) -> bool {
    l % 2 == 1
}

/// Frame indices are tiny; the conversion can never fail.
fn frame_i32(frame: usize) -> i32 {
    i32::try_from(frame).expect("frame index fits i32")
}

impl ImplicationGraph {
    /// Builds the graph: direct gate/flip-flop edges plus static
    /// learning over every literal the reachability analysis allows.
    pub fn build(
        circuit: &Circuit,
        analysis: &CircuitAnalysis,
        options: LearnOptions,
    ) -> ImplicationGraph {
        let frames = options.frames.max(1);
        let n = circuit.num_nodes();
        let mut graph = ImplicationGraph {
            frames,
            direct: vec![Vec::new(); 2 * n],
            learned: vec![Vec::new(); 2 * n],
        };
        graph.build_direct(circuit);
        graph.learn_indirect(circuit, analysis);
        graph
    }

    /// The number of unrolled frames the graph was built for.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Total direct edges.
    pub fn num_direct(&self) -> usize {
        self.direct.iter().map(Vec::len).sum()
    }

    /// Total learned (indirect) edges.
    pub fn num_learned(&self) -> usize {
        self.learned.iter().map(Vec::len).sum()
    }

    fn add_direct(&mut self, from: u32, to: u32, delta: i8) {
        if !self.direct[from as usize].contains(&(to, delta)) {
            self.direct[from as usize].push((to, delta));
        }
    }

    fn build_direct(&mut self, circuit: &Circuit) {
        for (i, gate) in circuit.gates().iter().enumerate() {
            let g = GateId::from_index(i);
            match gate.kind() {
                GateKind::Input => {}
                GateKind::Dff => {
                    let d = gate.fanin()[0];
                    for v in [false, true] {
                        self.add_direct(lit(d, v), lit(g, v), 1);
                        self.add_direct(lit(g, v), lit(d, v), -1);
                    }
                }
                GateKind::Comb(f) => {
                    for &a in gate.fanin() {
                        match f {
                            GateFn::Buf => {
                                for v in [false, true] {
                                    self.add_direct(lit(a, v), lit(g, v), 0);
                                    self.add_direct(lit(g, v), lit(a, v), 0);
                                }
                            }
                            GateFn::Not => {
                                for v in [false, true] {
                                    self.add_direct(lit(a, v), lit(g, !v), 0);
                                    self.add_direct(lit(g, v), lit(a, !v), 0);
                                }
                            }
                            GateFn::And => {
                                self.add_direct(lit(a, false), lit(g, false), 0);
                                self.add_direct(lit(g, true), lit(a, true), 0);
                            }
                            GateFn::Or => {
                                self.add_direct(lit(a, true), lit(g, true), 0);
                                self.add_direct(lit(g, false), lit(a, false), 0);
                            }
                            GateFn::Nand => {
                                self.add_direct(lit(a, false), lit(g, true), 0);
                                self.add_direct(lit(g, false), lit(a, true), 0);
                            }
                            GateFn::Nor => {
                                self.add_direct(lit(a, true), lit(g, false), 0);
                                self.add_direct(lit(g, true), lit(a, false), 0);
                            }
                            // No single-literal implication fixes an
                            // XOR/XNOR output or input.
                            GateFn::Xor | GateFn::Xnor => {}
                        }
                    }
                }
            }
        }
    }

    /// Static learning: assert each feasible literal (once at the last
    /// frame for backward/same-frame facts, once at frame 0 for
    /// cross-flop forward facts) and record every forced binary
    /// singleton the direct closure cannot already derive.
    fn learn_indirect(&mut self, circuit: &Circuit, analysis: &CircuitAnalysis) {
        let n = circuit.num_nodes();
        let forward_pass = self.frames >= 2 && circuit.num_dffs() > 0;
        let base = Window::full_history(circuit, &analysis.reach, self.frames).settled(circuit);
        // `known` holds the direct closure of the literal being asserted.
        let mut known = Marks::new(self.direct.len(), self.frames);
        for node in 0..n {
            let id = GateId::from_index(node);
            for value in [false, true] {
                let bit = if value { B1 } else { B0 };
                if analysis.reach[node] & bit == 0 {
                    continue; // the literal can never hold
                }
                self.close_from(id, value, false, &mut known, |_| {});
                for assert_at_start in [false, true] {
                    if assert_at_start && !forward_pass {
                        continue;
                    }
                    let mut w = base.clone();
                    let assert_frame = if assert_at_start { 0 } else { self.frames - 1 };
                    if w.constrain(assert_frame, id, bit) || w.propagate(circuit) {
                        continue; // contradiction: nothing to learn from
                    }
                    for r in 0..self.frames {
                        let delta = frame_i32(r) - frame_i32(assert_frame);
                        if assert_at_start && delta <= 0 {
                            continue; // frame-0 asserts only harvest forward facts
                        }
                        for m in 0..n {
                            let mask = w.at(r, m);
                            let forced = match mask {
                                x if x == B0 => Some(false),
                                x if x == B1 => Some(true),
                                _ => None,
                            };
                            let Some(u) = forced else { continue };
                            if m == node && delta == 0 {
                                continue;
                            }
                            let fbit = if u { B1 } else { B0 };
                            if analysis.reach[m] == fbit {
                                continue; // already a proven constant
                            }
                            let to = lit(GateId::from_index(m), u);
                            if known.contains(to, delta) {
                                continue; // the direct closure knows it
                            }
                            // Each (frame, net) slot yields one target, and
                            // the two passes harvest disjoint deltas, so the
                            // edge cannot already be in the list.
                            self.learned[lit(id, value) as usize].push((to, delta as i8));
                        }
                    }
                }
            }
        }
    }

    /// All implications of `net = value`: the transitive closure over
    /// direct and learned edges, with cumulative frame offsets bounded
    /// by `frames − 1` in either direction.
    pub fn implications_of(&self, net: GateId, value: bool) -> Vec<Implication> {
        let mut out = Vec::new();
        let mut seen = Marks::new(self.direct.len(), self.frames);
        self.close_from(net, value, true, &mut seen, |imp| out.push(imp));
        out.sort_by_key(|imp| (imp.target.index(), imp.delta, imp.value));
        out
    }

    /// Depth-first closure from `net = value` over direct (and, with
    /// `use_learned`, learned) edges. Leaves exactly the reached
    /// `(literal, delta)` slots in `seen` and hands every one except the
    /// source itself to `visit`.
    fn close_from(
        &self,
        net: GateId,
        value: bool,
        use_learned: bool,
        seen: &mut Marks,
        mut visit: impl FnMut(Implication),
    ) {
        let source = lit(net, value);
        seen.clear();
        seen.insert(source, 0);
        let mut queue = vec![(source, 0i32, false)];
        while let Some((l, delta, learned)) = queue.pop() {
            if !(l == source && delta == 0) {
                visit(Implication {
                    target: lit_net(l),
                    value: lit_value(l),
                    delta,
                    learned,
                });
            }
            let learned_edges: &[(u32, i8)] = if use_learned {
                &self.learned[l as usize]
            } else {
                &[]
            };
            let hops = self.direct[l as usize]
                .iter()
                .map(|&e| (e, false))
                .chain(learned_edges.iter().map(|&e| (e, true)));
            for ((to, d), via_learned) in hops {
                let nd = delta + i32::from(d);
                if nd.abs() <= seen.bound && seen.insert(to, nd) {
                    queue.push((to, nd, via_learned));
                }
            }
        }
    }
}

/// An epoch-stamped set of `(literal, frame offset)` slots with offsets
/// in `−bound..=bound`: clearing is one increment, so one buffer serves
/// every closure of a learning pass.
struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
    bound: i32,
}

impl Marks {
    fn new(literals: usize, frames: usize) -> Marks {
        let bound = frame_i32(frames) - 1;
        Marks {
            stamp: vec![0; literals * (2 * bound as usize + 1)],
            epoch: 0,
            bound,
        }
    }

    fn clear(&mut self) {
        self.epoch += 1;
    }

    fn slot(&self, l: u32, delta: i32) -> usize {
        l as usize * (2 * self.bound as usize + 1) + (delta + self.bound) as usize
    }

    fn contains(&self, l: u32, delta: i32) -> bool {
        self.stamp[self.slot(l, delta)] == self.epoch
    }

    /// Adds a slot; `true` when it was not yet present.
    fn insert(&mut self, l: u32, delta: i32) -> bool {
        let slot = self.slot(l, delta);
        let fresh = self.stamp[slot] != self.epoch;
        self.stamp[slot] = self.epoch;
        fresh
    }
}

/// A bounded time-frame constraint window: one `{0,1,X}` value-set mask
/// per (frame, net), shrunk monotonically by propagation.
#[derive(Clone)]
struct Window {
    w: usize,
    n: usize,
    masks: Vec<u8>,
    /// Slots (`frame·n + net`) narrowed since the last propagation.
    dirty: Vec<u32>,
    conflict: bool,
}

impl Window {
    /// A window whose frame 0 may be any cycle: every frame starts from
    /// the reachability masks (sound over-approximation of any cycle).
    fn full_history(circuit: &Circuit, reach: &[u8], w: usize) -> Window {
        let n = circuit.num_nodes();
        let mut masks = Vec::with_capacity(w * n);
        for _ in 0..w {
            masks.extend_from_slice(reach);
        }
        Window {
            w,
            n,
            masks,
            dirty: Vec::new(),
            conflict: false,
        }
    }

    /// A window whose frame 0 is absolute cycle 0: flip-flops are
    /// exactly `X` there (the all-`X` initial state).
    fn reset_start(circuit: &Circuit, reach: &[u8], w: usize) -> Window {
        let mut win = Window::full_history(circuit, reach, w);
        for &q in circuit.dffs() {
            win.masks[q.index()] = BX;
        }
        win
    }

    fn at(&self, frame: usize, node: usize) -> u8 {
        self.masks[frame * self.n + node]
    }

    /// Intersects a mask in, queueing the slot if it narrowed; returns
    /// `true` on conflict (empty set).
    fn constrain(&mut self, frame: usize, node: GateId, mask: u8) -> bool {
        let slot = frame * self.n + node.index();
        let narrowed = self.masks[slot] & mask;
        if narrowed != self.masks[slot] {
            self.masks[slot] = narrowed;
            if narrowed == 0 {
                self.conflict = true;
            } else {
                self.dirty.push(slot as u32);
            }
        }
        self.conflict
    }

    /// Propagates a window built from `reach` with every slot queued
    /// once: the settled base that assertions clone.
    fn settled(mut self, circuit: &Circuit) -> Window {
        self.dirty
            .extend((0..self.masks.len()).map(|slot| slot as u32));
        self.propagate(circuit);
        self
    }

    /// Propagates every queued slot to the greatest fixpoint of the
    /// operators that read it: forward gate evaluation, exact per-input
    /// backward filtering, and exact flip-flop links between consecutive
    /// frames. Returns `true` when the system is contradictory.
    fn propagate(&mut self, circuit: &Circuit) -> bool {
        let mut ins: Vec<u8> = Vec::new();
        while let Some(slot) = self.dirty.pop() {
            if self.conflict || self.settle_slot(circuit, slot as usize, &mut ins) {
                self.dirty.clear();
                return true;
            }
        }
        self.conflict
    }

    /// Re-runs the operators that read one narrowed slot; `true` on
    /// conflict.
    fn settle_slot(&mut self, circuit: &Circuit, slot: usize, ins: &mut Vec<u8>) -> bool {
        let (r, net) = (slot / self.n, GateId::from_index(slot % self.n));
        let gate = circuit.gate(net);
        let own = match gate.kind() {
            GateKind::Input => false,
            GateKind::Comb(f) => self.filter_gate(r, net, f, gate.fanin(), ins),
            GateKind::Dff => r > 0 && self.link(r, net, gate.fanin()[0]),
        };
        if own {
            return true;
        }
        for &c in gate.fanout() {
            let reader = circuit.gate(c);
            let conflict = match reader.kind() {
                GateKind::Comb(f) => self.filter_gate(r, c, f, reader.fanin(), ins),
                GateKind::Dff => r + 1 < self.w && self.link(r + 1, c, net),
                GateKind::Input => false,
            };
            if conflict {
                return true;
            }
        }
        false
    }

    /// One gate at one frame. Forward: `out &= f(ins)`, exact under
    /// input independence. Backward: input value v survives iff the gate
    /// can still produce something in the output mask with input i := {v}.
    fn filter_gate(
        &mut self,
        r: usize,
        g: GateId,
        f: GateFn,
        fanin: &[GateId],
        ins: &mut Vec<u8>,
    ) -> bool {
        ins.clear();
        ins.extend(fanin.iter().map(|s| self.at(r, s.index())));
        if self.constrain(r, g, eval_mask(f, ins)) {
            return true;
        }
        let out = self.at(r, g.index());
        for (i, &src) in fanin.iter().enumerate() {
            let original = ins[i];
            let mut allowed = 0u8;
            for bit in [B0, B1, BX] {
                if original & bit == 0 {
                    continue;
                }
                ins[i] = bit;
                if eval_mask(f, ins) & out != 0 {
                    allowed |= bit;
                }
            }
            ins[i] = original;
            if self.constrain(r, src, allowed) {
                return true;
            }
        }
        false
    }

    /// Flip-flop link: Q at frame r equals D at frame r−1, exactly in
    /// both directions (any frame ≥ 1 is an absolute cycle ≥ 1 under
    /// both window kinds, so the X-initial escape hatch is never needed
    /// here).
    fn link(&mut self, r: usize, q: GateId, d: GateId) -> bool {
        let (qm, dm) = (self.at(r, q.index()), self.at(r - 1, d.index()));
        self.constrain(r, q, dm) || self.constrain(r - 1, d, qm)
    }
}

/// The combinational fanout cone of a fault origin, with its escape
/// exits and the post-dominators every escape path crosses. Shared by
/// every fault whose effect enters the circuit at the same gate.
struct ConeInfo {
    /// Cone nodes (origin plus its forward combinational closure), in
    /// ascending level order.
    nodes: Vec<GateId>,
    /// Cone nodes where the effect escapes the frame: primary-output
    /// taps and nodes feeding a flip-flop D pin.
    exits: Vec<GateId>,
    /// Post-dominators of the origin over exit-reaching cone paths,
    /// including the origin itself.
    dominators: Vec<GateId>,
    /// Whether any exit is reachable at all.
    live: bool,
}

/// The exact binary non-controlling side mask a strong divergence needs
/// through a gate, or `None` when the gate has no side condition.
fn side_mask(f: GateFn) -> Option<u8> {
    match f {
        GateFn::And | GateFn::Nand => Some(B1),
        GateFn::Or | GateFn::Nor => Some(B0),
        GateFn::Xor | GateFn::Xnor => Some(B0 | B1),
        GateFn::Buf | GateFn::Not => None,
    }
}

/// Shared state for per-fault conflict checks over one circuit.
struct LearnContext<'a> {
    circuit: &'a Circuit,
    /// The settled full-history window.
    full_base: Window,
    /// The settled reset-start windows of `1..frames` frames.
    reset_bases: Vec<Window>,
    po_tapped: Vec<bool>,
    cones: Vec<Option<ConeInfo>>,
    /// Per net: the epoch of the last cone marked through it, and its
    /// position in that cone's `nodes`.
    in_cone: Vec<(u32, u32)>,
    epoch: u32,
}

/// What a fault asserts in a window: site excitation at the escape
/// frame, an optional previous-frame value (transition launch), and the
/// gate/pin the effect enters through (`None` for stem faults).
struct Mandatory {
    site: GateId,
    excite: u8,
    launch: Option<u8>,
    effect: Option<(GateId, usize)>,
    origin: GateId,
}

impl<'a> LearnContext<'a> {
    fn new(circuit: &'a Circuit, analysis: &CircuitAnalysis, frames: usize) -> Self {
        let mut po_tapped = vec![false; circuit.num_nodes()];
        for &tap in circuit.outputs() {
            po_tapped[tap.index()] = true;
        }
        let reach = &analysis.reach;
        let reset_bases = (1..frames)
            .map(|w| Window::reset_start(circuit, reach, w).settled(circuit))
            .collect();
        LearnContext {
            circuit,
            full_base: Window::full_history(circuit, reach, frames).settled(circuit),
            reset_bases,
            po_tapped,
            cones: (0..circuit.num_nodes()).map(|_| None).collect(),
            in_cone: vec![(0, 0); circuit.num_nodes()],
            epoch: 0,
        }
    }

    /// Builds the cone of `origin` on first use and marks it, so that
    /// [`Self::local`] answers for its nodes until the next marking.
    fn mark_cone(&mut self, origin: GateId) {
        if self.cones[origin.index()].is_none() {
            let cone = self.build_cone(origin);
            self.cones[origin.index()] = Some(cone);
        }
        self.epoch += 1;
        let cone = self.cones[origin.index()].as_ref().expect("built above");
        for (i, &v) in cone.nodes.iter().enumerate() {
            self.in_cone[v.index()] = (self.epoch, i as u32);
        }
    }

    /// The cone of `origin`; [`Self::mark_cone`] must have built it.
    fn cone(&self, origin: GateId) -> &ConeInfo {
        self.cones[origin.index()]
            .as_ref()
            .expect("cone is marked before use")
    }

    /// Position of `v` in the marked cone's `nodes`, if it is a cone node.
    fn local(&self, v: GateId) -> Option<usize> {
        let (epoch, i) = self.in_cone[v.index()];
        (epoch == self.epoch).then_some(i as usize)
    }

    fn is_in_cone(&self, v: GateId) -> bool {
        self.local(v).is_some()
    }

    /// Collects the cone of `origin`, its exits and its post-dominators.
    /// Marks the cone while it works.
    fn build_cone(&mut self, origin: GateId) -> ConeInfo {
        let circuit = self.circuit;
        self.epoch += 1;
        let epoch = self.epoch;
        let mut nodes = vec![origin];
        self.in_cone[origin.index()] = (epoch, 0);
        let mut head = 0;
        while head < nodes.len() {
            let v = nodes[head];
            head += 1;
            for &c in circuit.gate(v).fanout() {
                if circuit.gate(c).kind().is_comb() && self.in_cone[c.index()].0 != epoch {
                    self.in_cone[c.index()] = (epoch, 0);
                    nodes.push(c);
                }
            }
        }
        nodes.sort_by_key(|&v| (circuit.level(v), v));
        for (i, &v) in nodes.iter().enumerate() {
            self.in_cone[v.index()].1 = i as u32;
        }
        let po_tapped = &self.po_tapped;
        let is_exit = |v: GateId| {
            po_tapped[v.index()]
                || circuit
                    .gate(v)
                    .fanout()
                    .iter()
                    .any(|&c| circuit.gate(c).kind() == GateKind::Dff)
        };
        let exits: Vec<GateId> = nodes.iter().copied().filter(|&v| is_exit(v)).collect();
        // Restrict to exit-reaching nodes (backward over cone edges).
        let mut keep = vec![false; nodes.len()];
        for (i, &v) in nodes.iter().enumerate().rev() {
            keep[i] = is_exit(v)
                || circuit
                    .gate(v)
                    .fanout()
                    .iter()
                    .any(|&c| self.local(c).is_some_and(|j| keep[j]));
        }
        if !keep[0] {
            return ConeInfo {
                nodes,
                exits,
                dominators: Vec::new(),
                live: false,
            };
        }
        // Post-dominators over the kept subgraph, as cone-local bitsets
        // intersected in reverse level order. Exits end their paths.
        let words = nodes.len().div_ceil(64);
        let mut pdom: Vec<Option<Vec<u64>>> = vec![None; nodes.len()];
        for (i, &v) in nodes.iter().enumerate().rev() {
            if !keep[i] {
                continue;
            }
            let mut set: Option<Vec<u64>> = None;
            if !is_exit(v) {
                for &c in circuit.gate(v).fanout() {
                    let Some(j) = self.local(c) else { continue };
                    if !keep[j] {
                        continue;
                    }
                    let succ = pdom[j].as_ref().expect("reverse order covers successors");
                    match &mut set {
                        None => set = Some(succ.clone()),
                        Some(s) => {
                            for (w, x) in s.iter_mut().zip(succ) {
                                *w &= x;
                            }
                        }
                    }
                }
            }
            let mut set = set.unwrap_or_else(|| vec![0u64; words]);
            set[i / 64] |= 1u64 << (i % 64);
            pdom[i] = Some(set);
        }
        let origin_pdom = pdom[0].as_ref().expect("origin is kept");
        let dominators = nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| origin_pdom[i / 64] >> (i % 64) & 1 != 0)
            .map(|(_, &v)| v)
            .collect();
        ConeInfo {
            nodes,
            exits,
            dominators,
            live: true,
        }
    }

    fn stuck_mandatory(&self, f: StuckAt) -> Mandatory {
        let excite = mask_of(!f.value());
        match f.site {
            FaultSite::Output { gate } => Mandatory {
                site: gate,
                excite,
                launch: None,
                effect: None,
                origin: gate,
            },
            FaultSite::Pin { gate, pin } => Mandatory {
                site: site_net(self.circuit, f.site),
                excite,
                launch: None,
                effect: Some((gate, pin as usize)),
                origin: gate,
            },
        }
    }

    fn transition_mandatory(&self, f: TransitionFault) -> Mandatory {
        let driver = self.circuit.gate(f.gate).fanin()[f.pin as usize];
        Mandatory {
            site: driver,
            excite: mask_of(f.edge.to_value()),
            launch: Some(mask_of(f.edge.from_value())),
            effect: Some((f.gate, f.pin as usize)),
            origin: f.gate,
        }
    }

    /// Checks one window alignment; `true` means the alignment is
    /// proven impossible. `dominance` collects forced dominator values
    /// from surviving full-history alignments (for `F005`).
    fn alignment_untestable(
        &mut self,
        m: &Mandatory,
        mut w: Window,
        dominance: Option<&mut Vec<(GateId, bool)>>,
    ) -> bool {
        let last = w.w - 1;
        if let Some(launch) = m.launch {
            if last == 0 {
                // A transition needs a previous settled cycle; before
                // pattern 0 every previous pin value is X.
                return true;
            }
            if w.constrain(last - 1, m.site, launch) {
                return true;
            }
        }
        if w.constrain(last, m.site, m.excite) {
            return true;
        }
        // Effect entering a flip-flop D pin escapes into state with no
        // combinational propagation conditions.
        let dff_entry = self.circuit.gate(m.origin).kind() == GateKind::Dff;
        if !dff_entry {
            self.mark_cone(m.origin);
            let cone = self.cone(m.origin);
            if !cone.live {
                return true; // no escape path exists at all
            }
            for &dom in &cone.dominators {
                let gate = self.circuit.gate(dom);
                let GateKind::Comb(f) = gate.kind() else {
                    continue; // the origin may be an input or flip-flop stem
                };
                let Some(side) = side_mask(f) else { continue };
                let effect_pin = match m.effect {
                    Some((g, pin)) if g == dom => Some(pin),
                    _ => None,
                };
                if dom == m.origin && effect_pin.is_none() {
                    continue; // stem origin: divergence is at its output
                }
                for (j, &src) in gate.fanin().iter().enumerate() {
                    if Some(j) == effect_pin {
                        continue;
                    }
                    if effect_pin.is_none() && self.is_in_cone(src) {
                        continue; // may itself carry the effect
                    }
                    if w.constrain(last, src, side) {
                        return true;
                    }
                }
            }
        }
        if w.propagate(self.circuit) {
            return true;
        }
        if !dff_entry && !self.strong_escape_possible(m, &w) {
            return true;
        }
        if let Some(out) = dominance {
            let cone = self.cones[m.origin.index()].as_ref();
            if let Some(cone) = cone {
                for &dom in &cone.dominators {
                    if dom == m.origin {
                        continue;
                    }
                    match w.at(last, dom.index()) {
                        x if x == B0 => out.push((dom, false)),
                        x if x == B1 => out.push((dom, true)),
                        _ => {}
                    }
                }
            }
        }
        false
    }

    /// D-frontier reachability under the refined masks: a net can carry
    /// a strong (binary-opposite) divergence only if its good value can
    /// be binary, the effect arrives on some cone input, and every
    /// out-of-cone side input can take its exact non-controlling binary
    /// value. If no exit is strong-reachable, the effect cannot escape.
    fn strong_escape_possible(&self, m: &Mandatory, w: &Window) -> bool {
        let last = w.w - 1;
        let cone = self.cone(m.origin);
        let mut strong = vec![false; cone.nodes.len()];
        for (i, &v) in cone.nodes.iter().enumerate() {
            let binary_ok = w.at(last, v.index()) & (B0 | B1) != 0;
            if !binary_ok {
                continue;
            }
            if v == m.origin {
                strong[i] = match m.effect {
                    // Stem divergence: the net itself splits the machines.
                    None => true,
                    Some((gate, pin)) => {
                        debug_assert_eq!(gate, v);
                        self.gate_passes_strong(gate, Some(pin), w, last, |_| true)
                    }
                };
                continue;
            }
            let gate = self.circuit.gate(v);
            if !gate.kind().is_comb() {
                continue;
            }
            let has_strong_feed = gate
                .fanin()
                .iter()
                .any(|&s| self.local(s).is_some_and(|j| j < i && strong[j]));
            if !has_strong_feed {
                continue;
            }
            strong[i] = self.gate_passes_strong(v, None, w, last, |s| self.is_in_cone(s));
        }
        cone.exits
            .iter()
            .any(|&e| self.local(e).is_some_and(|j| strong[j]))
    }

    /// Whether a gate's output could strongly diverge given which pins
    /// may carry the effect (`effect_pin` for the origin, any in-cone
    /// pin otherwise as decided by `effect_like`).
    fn gate_passes_strong(
        &self,
        gate: GateId,
        effect_pin: Option<usize>,
        w: &Window,
        frame: usize,
        effect_like: impl Fn(GateId) -> bool,
    ) -> bool {
        let g = self.circuit.gate(gate);
        let GateKind::Comb(f) = g.kind() else {
            return true; // flip-flop entry is handled by the caller
        };
        let side = side_mask(f);
        for (j, &src) in g.fanin().iter().enumerate() {
            let mask = w.at(frame, src.index());
            let is_effect = match effect_pin {
                Some(pin) => j == pin,
                None => effect_like(src),
            };
            if is_effect {
                // A strongly diverging input has a binary good value.
                if effect_pin == Some(j) && mask & (B0 | B1) == 0 {
                    return false;
                }
                continue;
            }
            match side {
                Some(s) if mask & s == 0 => return false,
                _ => {}
            }
            // XOR/XNOR strong outputs need every input binary in both
            // machines, so even effect-free in-cone pins must allow one.
            if matches!(f, GateFn::Xor | GateFn::Xnor) && mask & (B0 | B1) == 0 {
                return false;
            }
        }
        true
    }

    /// `true` when every window alignment is contradictory: no cycle
    /// can serve as the fault's escape cycle.
    fn untestable(&mut self, m: &Mandatory, dominance: Option<&mut Vec<(GateId, bool)>>) -> bool {
        if !self.alignment_untestable(m, self.full_base.clone(), dominance) {
            return false;
        }
        for k in 0..self.reset_bases.len() {
            if !self.alignment_untestable(m, self.reset_bases[k].clone(), None) {
                return false;
            }
        }
        true
    }
}

/// An `F005` implication-implied dominance pair: every test detecting
/// `fault` forces `implied`'s excitation at the shared dominator, so
/// `implied` dominates `fault`. Analyze-only — dominance does not
/// preserve per-pattern behaviour, so it never prunes (the same caveat
/// as the structural dominance collapse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DominancePair {
    /// The dominated fault.
    pub fault: StuckAt,
    /// The dominator net the effect must cross.
    pub through: GateId,
    /// The stuck fault whose detection is implied.
    pub implied: StuckAt,
}

/// The learned stuck-at pruning: the reduced universe plus the `F005`
/// dominance pairs discovered along the way.
#[derive(Debug, Clone)]
pub struct LearnedStuck {
    /// The pruned universe (base `--prune` plus `F004` conflicts).
    pub universe: PrunedUniverse<StuckAt>,
    /// Implication-implied dominance pairs (`F005`, analyze-only).
    pub dominance: Vec<DominancePair>,
}

/// Extends [`crate::prune_stuck_at`] with conflict-driven untestability:
/// every class whose representative's mandatory assignments are
/// contradictory in every window alignment of the graph's depth is
/// additionally pruned as [`PruneReason::ConflictUntestable`]. The
/// expansion contract is unchanged — expanded reports stay
/// byte-identical to full runs.
pub fn prune_stuck_at_learned(
    circuit: &Circuit,
    analysis: &CircuitAnalysis,
    graph: &ImplicationGraph,
) -> LearnedStuck {
    let base = crate::analyze::prune_stuck_at(circuit, analysis);
    let mut ctx = LearnContext::new(circuit, analysis, graph.frames);
    let mut dominance = Vec::new();
    let mut conflicted = vec![false; base.sim.len()];
    for (idx, &rep) in base.sim.iter().enumerate() {
        let m = ctx.stuck_mandatory(rep);
        let mut forced = Vec::new();
        if ctx.untestable(&m, Some(&mut forced)) {
            conflicted[idx] = true;
        } else {
            for (through, good) in forced {
                dominance.push(DominancePair {
                    fault: rep,
                    through,
                    implied: StuckAt::output(through, !good),
                });
            }
        }
    }
    let universe = rebuild_with_conflicts(base, &conflicted);
    LearnedStuck {
        universe,
        dominance,
    }
}

/// Extends [`crate::prune_transition`] with conflict-driven
/// untestability over the launch (`frame −1`) and capture (escape
/// frame) mandatory assignments.
pub fn prune_transition_learned(
    circuit: &Circuit,
    analysis: &CircuitAnalysis,
    graph: &ImplicationGraph,
) -> PrunedUniverse<TransitionFault> {
    let base = crate::analyze::prune_transition(circuit, analysis);
    let mut ctx = LearnContext::new(circuit, analysis, graph.frames);
    let mut conflicted = vec![false; base.sim.len()];
    for (idx, &f) in base.sim.iter().enumerate() {
        let m = ctx.transition_mandatory(f);
        if ctx.untestable(&m, None) {
            conflicted[idx] = true;
        }
    }
    rebuild_with_conflicts(base, &conflicted)
}

/// Appends the learning findings to a report: one `F005` row per
/// implication-implied dominance pair. (`F004` rows come from
/// [`crate::analysis_findings`], which maps
/// [`PruneReason::ConflictUntestable`] fates to the dedicated code.)
pub fn learn_findings(
    circuit: &Circuit,
    learned: &LearnedStuck,
    prov: Option<&BenchProvenance>,
    report: &mut Report,
) {
    for pair in &learned.dominance {
        report.add(
            RuleCode::ImplicationDominance,
            span_of(prov, pair.fault.site.gate()),
            format!(
                "every test for {} forces {}; the latter dominates (analyze-only)",
                pair.fault.describe(circuit),
                pair.implied.describe(circuit),
            ),
        );
    }
}

/// Drops the flagged simulated faults from a pruned universe, remapping
/// fates and stats while preserving enumeration order.
fn rebuild_with_conflicts<F: Copy>(
    base: PrunedUniverse<F>,
    conflicted: &[bool],
) -> PrunedUniverse<F> {
    let mut remap = vec![u32::MAX; base.sim.len()];
    let mut sim = Vec::new();
    for (old, &f) in base.sim.iter().enumerate() {
        if !conflicted[old] {
            remap[old] = sim.len() as u32;
            sim.push(f);
        }
    }
    let mut stats = base.stats;
    let fate: Vec<FaultFate> = base
        .fate
        .iter()
        .map(|fate| match *fate {
            FaultFate::Sim(old) if conflicted[old as usize] => {
                stats.conflict += 1;
                FaultFate::Pruned(PruneReason::ConflictUntestable)
            }
            FaultFate::Sim(old) => FaultFate::Sim(remap[old as usize]),
            pruned @ FaultFate::Pruned(_) => pruned,
        })
        .collect();
    stats.sim = sim.len();
    PrunedUniverse {
        full: base.full,
        sim,
        fate,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;
    use crate::analyze::{analyze_circuit, prune_stuck_at, prune_transition};
    use cfs_netlist::generate::{benchmark_spec, generate};
    use cfs_netlist::parse_bench;
    use proptest::prelude::*;

    fn setup(src: &str) -> (Circuit, CircuitAnalysis, ImplicationGraph) {
        let c = parse_bench("t", src).unwrap();
        let a = analyze_circuit(&c);
        let g = ImplicationGraph::build(&c, &a, LearnOptions::default());
        (c, a, g)
    }

    /// The reference propagator: whole-window forward, backward,
    /// flip-flop and last-frame graph sweeps, repeated with no cap until
    /// a full round narrows nothing.
    fn propagate_by_sweeps(
        w: &mut Window,
        circuit: &Circuit,
        graph: Option<&ImplicationGraph>,
    ) -> bool {
        let mut ins: Vec<u8> = Vec::new();
        loop {
            if w.conflict {
                return true;
            }
            let before = w.masks.clone();
            for r in 0..w.w {
                for &g in circuit.topo_order() {
                    let gate = circuit.gate(g);
                    let GateKind::Comb(f) = gate.kind() else {
                        unreachable!("topo order is combinational");
                    };
                    ins.clear();
                    ins.extend(gate.fanin().iter().map(|s| w.at(r, s.index())));
                    if w.constrain(r, g, eval_mask(f, &ins)) {
                        return true;
                    }
                }
            }
            for r in 0..w.w {
                for &g in circuit.topo_order().iter().rev() {
                    let gate = circuit.gate(g);
                    let GateKind::Comb(f) = gate.kind() else {
                        unreachable!("topo order is combinational");
                    };
                    let out = w.at(r, g.index());
                    ins.clear();
                    ins.extend(gate.fanin().iter().map(|s| w.at(r, s.index())));
                    for i in 0..ins.len() {
                        let original = ins[i];
                        let mut allowed = 0u8;
                        for bit in [B0, B1, BX] {
                            ins[i] = bit;
                            if original & bit != 0 && eval_mask(f, &ins) & out != 0 {
                                allowed |= bit;
                            }
                        }
                        ins[i] = original;
                        if w.constrain(r, gate.fanin()[i], allowed) {
                            return true;
                        }
                    }
                }
            }
            for &q in circuit.dffs() {
                let d = circuit.gate(q).fanin()[0];
                for r in 1..w.w {
                    let (qm, dm) = (w.at(r, q.index()), w.at(r - 1, d.index()));
                    if w.constrain(r, q, dm) || w.constrain(r - 1, d, qm) {
                        return true;
                    }
                }
            }
            if let Some(graph) = graph {
                let last = w.w - 1;
                for m in 0..w.n {
                    let value = match w.at(last, m) {
                        B0 => false,
                        B1 => true,
                        _ => continue,
                    };
                    let l = lit(GateId::from_index(m), value) as usize;
                    for &(to, d) in graph.direct[l].iter().chain(&graph.learned[l]) {
                        let Some(frame) = last.checked_add_signed(isize::from(d)) else {
                            continue;
                        };
                        let bit = if lit_value(to) { B1 } else { B0 };
                        if frame < w.w && w.constrain(frame, lit_net(to), bit) {
                            return true;
                        }
                    }
                }
            }
            w.dirty.clear();
            if w.masks == before {
                return false;
            }
        }
    }

    /// A random sequential netlist as `.bench` text: every gate function
    /// including XOR/XNOR, fanins drawn with replacement (so duplicate
    /// pins occur), and flip-flops that often latch the previous
    /// flip-flop (chains) or themselves.
    fn random_bench(seed: u64) -> String {
        let mut state = seed;
        let mut below = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize % bound
        };
        let (inputs, dffs, gates) = (1 + below(3), below(5), 2 + below(24));
        let mut nets: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
        nets.extend((0..dffs).map(|q| format!("q{q}")));
        let mut text = String::new();
        for i in 0..inputs {
            writeln!(text, "INPUT(i{i})").unwrap();
        }
        writeln!(text, "OUTPUT(g{})", gates - 1).unwrap();
        for g in 0..gates {
            let f = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF"][below(8)];
            let arity = if matches!(f, "NOT" | "BUF") {
                1
            } else {
                2 + below(2)
            };
            let fanin: Vec<&str> = (0..arity)
                .map(|_| nets[below(nets.len())].as_str())
                .collect();
            writeln!(text, "g{g} = {f}({})", fanin.join(", ")).unwrap();
            nets.push(format!("g{g}"));
        }
        for q in 0..dffs {
            let d = if q > 0 && below(2) == 0 {
                format!("q{}", q - 1)
            } else {
                nets[below(nets.len())].clone()
            };
            writeln!(text, "q{q} = DFF({d})").unwrap();
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The worklist from a settled base and the reference sweeps from
        /// the raw reach masks land on the same greatest fixpoint: equal
        /// masks and the same conflict flag, for both window kinds. The
        /// reference also runs with the implication graph's edges applied
        /// at the last frame, and still agrees: the graph adds nothing to
        /// a window of its own depth.
        #[test]
        fn worklist_matches_full_sweeps(
            seed in any::<u64>(),
            frames in 1usize..4,
            asserts in prop::collection::vec((any::<usize>(), any::<usize>(), 1u8..8), 0..5),
        ) {
            let c = parse_bench("random", &random_bench(seed)).unwrap();
            let a = analyze_circuit(&c);
            let g = ImplicationGraph::build(&c, &a, LearnOptions { frames });
            for reset in [false, true] {
                let fresh = if reset {
                    Window::reset_start(&c, &a.reach, frames)
                } else {
                    Window::full_history(&c, &a.reach, frames)
                };
                let base = fresh.clone().settled(&c);
                for graph in [None, Some(&g)] {
                    let mut fast = base.clone();
                    let mut slow = fresh.clone();
                    let (mut fast_conflict, mut slow_conflict) = (false, false);
                    for &(r, net, mask) in &asserts {
                        let (r, net) = (r % frames, GateId::from_index(net % c.num_nodes()));
                        fast_conflict |= fast.constrain(r, net, mask);
                        slow_conflict |= slow.constrain(r, net, mask);
                    }
                    let fast_conflict = fast_conflict || fast.propagate(&c);
                    let slow_conflict = slow_conflict || propagate_by_sweeps(&mut slow, &c, graph);
                    let case = format!(
                        "seed {seed:#x}, frames {frames}, reset {reset}, graph {}",
                        graph.is_some()
                    );
                    prop_assert_eq!(fast_conflict, slow_conflict, "{case}");
                    if !fast_conflict {
                        prop_assert_eq!(&fast.masks, &slow.masks, "{case}");
                    }
                }
            }
        }
    }

    /// Learned outputs on generated Table 3 circuits: learned edges,
    /// stuck-at survivors/conflicts, transition survivors/conflicts and
    /// `F005` pairs. Any change to what propagation proves moves one.
    #[test]
    fn learned_outputs_are_pinned() {
        let cases: [(&str, f64, usize, [usize; 6]); 6] = [
            ("s298g", 1.0, 2, [1630, 282, 119, 333, 121, 175]),
            ("s641g", 1.0, 2, [3780, 827, 359, 1022, 300, 672]),
            ("s1238g", 1.0, 2, [46754, 1015, 1015, 1140, 818, 538]),
            ("s1423g", 1.0, 2, [4976, 1734, 620, 2089, 531, 1022]),
            ("s5378g", 0.25, 2, [27368, 1626, 1110, 1807, 891, 767]),
            ("s1238g", 1.0, 3, [56965, 983, 1078, 1071, 887, 526]),
        ];
        for (name, ratio, frames, want) in cases {
            let spec = benchmark_spec(name).unwrap();
            let c = generate(&if ratio < 1.0 {
                spec.scaled(ratio)
            } else {
                spec
            });
            let a = analyze_circuit(&c);
            let g = ImplicationGraph::build(&c, &a, LearnOptions { frames });
            let stuck = prune_stuck_at_learned(&c, &a, &g);
            let trans = prune_transition_learned(&c, &a, &g);
            let got = [
                g.num_learned(),
                stuck.universe.stats.sim,
                stuck.universe.stats.conflict,
                trans.stats.sim,
                trans.stats.conflict,
                stuck.dominance.len(),
            ];
            assert_eq!(got, want, "{name}@{ratio}, frames {frames}");
        }
    }

    #[test]
    fn direct_implications_follow_gate_semantics() {
        let (c, _, g) = setup("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n");
        let (a_id, y) = (c.find("a").unwrap(), c.find("y").unwrap());
        let imps = g.implications_of(a_id, false);
        assert!(
            imps.iter()
                .any(|i| i.target == y && !i.value && i.delta == 0),
            "a=0 must imply y=0: {imps:?}"
        );
        let imps = g.implications_of(y, true);
        assert!(
            imps.iter().any(|i| i.target == a_id && i.value),
            "y=1 must imply a=1: {imps:?}"
        );
    }

    #[test]
    fn implications_cross_flip_flops_with_deltas() {
        let (c, _, g) = setup("INPUT(a)\nOUTPUT(q)\nna = NOT(a)\nq = DFF(na)\n");
        let (a_id, q) = (c.find("a").unwrap(), c.find("q").unwrap());
        // q=1 at t implies na=1 at t, hence a=0 at t... na is one frame
        // back through the flop: q=1@t → na=1@t−1 → a=0@t−1.
        let imps = g.implications_of(q, true);
        assert!(
            imps.iter()
                .any(|i| i.target == a_id && !i.value && i.delta == -1),
            "q=1 must imply a=0 one frame back: {imps:?}"
        );
    }

    #[test]
    fn xor_gates_contribute_no_direct_edges() {
        let (c, _, g) = setup("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n");
        assert!(g.implications_of(c.find("a").unwrap(), true).is_empty());
        assert_eq!(g.num_direct(), 0);
    }

    #[test]
    fn textbook_redundancy_is_conflict_untestable() {
        // y = OR(a, AND(a, b)) is just a: the AND output stuck-at-0
        // needs a=1 to excite and a=0 to propagate through the OR.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = AND(a, b)\ny = OR(a, m)\n";
        let (c, a, g) = setup(src);
        let base = prune_stuck_at(&c, &a);
        let learned = prune_stuck_at_learned(&c, &a, &g);
        learned.universe.validate().unwrap();
        let m = c.find("m").unwrap();
        let i = learned
            .universe
            .full
            .iter()
            .position(|f| *f == StuckAt::output(m, false))
            .unwrap();
        assert_eq!(
            learned.universe.fate[i],
            FaultFate::Pruned(PruneReason::ConflictUntestable),
            "the classic redundant fault must be F004-pruned"
        );
        assert!(
            learned.universe.stats.sim < base.stats.sim,
            "learning must shrink the simulated set: {:?} vs {:?}",
            learned.universe.stats,
            base.stats
        );
        assert_eq!(learned.universe.full, base.full, "enumeration order kept");
    }

    #[test]
    fn testable_faults_survive_learning() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
        let (c, a, g) = setup(src);
        let learned = prune_stuck_at_learned(&c, &a, &g);
        learned.universe.validate().unwrap();
        assert_eq!(
            learned.universe.stats.conflict, 0,
            "a free NAND has no redundancy: {:?}",
            learned.universe.stats
        );
    }

    #[test]
    fn transition_learning_prunes_the_same_redundancy() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = AND(a, b)\ny = OR(a, m)\n";
        let (c, a, g) = setup(src);
        let base = prune_transition(&c, &a);
        let learned = prune_transition_learned(&c, &a, &g);
        learned.validate().unwrap();
        // Both transition faults on y's m pin need m to flip while a=0,
        // but m=1 forces a=1: conflict.
        assert!(
            learned.stats.conflict > 0,
            "transition redundancy missed: {:?}",
            learned.stats
        );
        assert!(learned.stats.sim < base.stats.sim);
    }

    #[test]
    fn sequential_conflict_crosses_frames() {
        // q latches a, and y = AND(q, na) needs q=1 (so a=1 one frame
        // earlier) and na=1 (a=0 now) — satisfiable across frames, so
        // the fault y stuck-at-0 must SURVIVE. The point: cross-frame
        // reasoning must not over-prune.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\nq = DFF(a)\ny = AND(q, na)\n";
        let (c, a, g) = setup(src);
        let learned = prune_stuck_at_learned(&c, &a, &g);
        learned.universe.validate().unwrap();
        let y = c.find("y").unwrap();
        let i = learned
            .universe
            .full
            .iter()
            .position(|f| *f == StuckAt::output(y, false))
            .unwrap();
        assert!(
            matches!(learned.universe.fate[i], FaultFate::Sim(_)),
            "cross-frame satisfiable fault must not be pruned"
        );
    }

    #[test]
    fn dominance_pairs_point_at_forced_dominators() {
        // Effect of a fault at m must cross y; when the engine forces
        // y's good value the pair is reported, never pruned.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = AND(a, b)\ny = OR(a, m)\n";
        let (c, a, g) = setup(src);
        let learned = prune_stuck_at_learned(&c, &a, &g);
        for pair in &learned.dominance {
            assert_ne!(pair.fault.site.gate(), pair.through);
            assert_eq!(pair.implied.site.gate(), pair.through);
        }
    }

    #[test]
    fn learned_universe_is_a_subset_of_the_base() {
        for name in ["s27", "s298g"] {
            let c = if name == "s27" {
                cfs_netlist::data::s27()
            } else {
                cfs_netlist::generate::benchmark(name).unwrap()
            };
            let a = analyze_circuit(&c);
            let g = ImplicationGraph::build(&c, &a, LearnOptions::default());
            let base = prune_stuck_at(&c, &a);
            let learned = prune_stuck_at_learned(&c, &a, &g);
            learned.universe.validate().unwrap();
            assert_eq!(learned.universe.full, base.full);
            assert!(learned.universe.stats.sim <= base.stats.sim);
            for f in &learned.universe.sim {
                assert!(base.sim.contains(f), "{name}: learning added a fault");
            }
            let tb = prune_transition(&c, &a);
            let tl = prune_transition_learned(&c, &a, &g);
            tl.validate().unwrap();
            assert!(tl.stats.sim <= tb.stats.sim, "{name}");
        }
    }
}
