//! The concurrent simulation engine.
//!
//! One good machine and many faulty machines advance together. Faulty
//! machines are explicit only where they differ from the good machine
//! (divergence) and disappear where they re-agree (convergence); per-node
//! fault lists are kept in ascending fault-id order so that the multi-list
//! traversal of [3] (Gai, Somenzi, Ulrich) merges the fanin lists in one
//! linear pass. Zero-delay levelized scheduling, event-driven fault
//! dropping, and the visible/invisible list split are implemented exactly as
//! §2 of the paper describes.
//!
//! The hot loop is arranged around three cache-conscious structures: the
//! struct-of-arrays [`Arena`] whose lists are contiguous terminal-sealed
//! runs (cursor advance is `idx + 1` over a dense fault-id stream — no
//! link array, no dependent pointer chase), the network's CSR adjacency
//! (fanin/fanout walks read contiguous edge arrays and never allocate),
//! and the dense per-level [`Scheduler`](crate::sched::Scheduler) bitset
//! (events drain in ascending node order). After each settled pattern the
//! engine may run an arena compaction pass ([`Engine::pattern_end`]) once
//! fault dropping has retired more slots than remain live.

use cfs_faults::transition_value;
use cfs_logic::Logic;
use cfs_telemetry::{NullProbe, Phase, Probe};

use crate::hot::HotFaults;
use crate::list::{Arena, ListBuilder, NIL, TERMINAL_FAULT};
use crate::network::{LocalEffect, Network, NodeEval, NodeId, NodeKind};
use crate::sched::Scheduler;

/// A newly detected fault: `(fault id, pattern index)`.
pub(crate) type Detection = (u32, u32);

/// Minimum number of retired slots before a compaction pass is worth the
/// rebuild (small arenas never accumulate enough slack to matter).
const COMPACT_MIN_FREE: usize = 4096;

/// The flip-flop updates [`Engine::latch_collect`] computes and
/// [`Engine::latch_commit`] applies: one flat element buffer with a range
/// per flip-flop, reused every pattern so latching allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct LatchStash {
    /// One update per flip-flop, in `dff_nodes` order.
    updates: Vec<DffUpdate>,
    /// Every flip-flop's `(fault, value, visible)` elements, in
    /// `dff_nodes` order and ascending fault order within a flip-flop.
    elements: Vec<(u32, Logic, bool)>,
}

#[derive(Debug)]
struct DffUpdate {
    new_good: Logic,
    changed: bool,
    /// End of this flip-flop's run in [`LatchStash::elements`].
    end: u32,
}

/// The concurrent fault-simulation engine shared by the stuck-at and
/// transition simulators.
///
/// Generic over a [`Probe`]: with the default [`NullProbe`] every
/// instrumentation call site is an empty inlined function and the
/// `P::ENABLED`-gated blocks are compiled out, so the uninstrumented engine
/// is byte-for-byte the unprobed one.
pub(crate) struct Engine<P: Probe = NullProbe> {
    pub net: Network,
    pub arena: Arena,
    /// Good-machine value per node.
    pub good: Vec<Logic>,
    /// Visible fault list heads (in combined mode, the only list).
    pub(crate) vis_head: Vec<u32>,
    /// Invisible fault list heads (split mode only).
    pub(crate) inv_head: Vec<u32>,
    /// Keep invisible elements on their own list (the paper's `-V`).
    pub split: bool,
    /// Purge elements of detected faults during traversal.
    pub drop_detected: bool,
    /// Transition faults present their held (PV) value during evaluation.
    pub transition_hold: bool,
    /// Previous settled faulty pin value per fault (transition model).
    pub prev_pin: Vec<Logic>,

    /// Dense per-level event worklist.
    pub(crate) sched: Scheduler,
    /// Reusable drain buffer for one level's events.
    drain_buf: Vec<NodeId>,
    /// Flip-flop updates between [`Engine::latch_collect`] and
    /// [`Engine::latch_commit`].
    latch: LatchStash,

    /// Pattern index of each node's last evaluation. Drives the transition
    /// release pass: a site evaluated under hold this pattern may carry
    /// held values and must be re-released; a site the hold pass did not
    /// evaluate already holds its release-consistent state.
    pub(crate) last_eval: Vec<u32>,

    /// Node activations processed.
    pub events: u64,
    /// Good-machine evaluations.
    pub good_evals: u64,
    /// Faulty-machine evaluations.
    pub fault_evals: u64,
    /// Current pattern (clock cycle) index.
    pub pattern_index: u32,
    /// Re-check the concurrent-list laws after every settled pattern
    /// ([`Engine::verify_after_pattern`]). On by default in debug builds;
    /// `--paranoid` forces it on in release builds.
    pub verify: bool,
    /// Nodes evaluated since the last verification (purge-law
    /// bookkeeping; maintained only while `verify` is set).
    touched: Vec<bool>,

    // Reusable scratch buffers for the merge loop. `cur_faults[k]` caches
    // `arena.fault(cursors[k])` so the min-scan reads a hot contiguous
    // array instead of chasing the arena once per cursor per iteration.
    cursors: Vec<u32>,
    cur_faults: Vec<u32>,
    good_in: Vec<Logic>,
    faulty_in: Vec<Logic>,
    /// Invisible entries buffered during the merge: the arena's contiguous
    /// runs allow only one open builder at a time, so the (rare, local-only)
    /// invisible list is collected here and built after the visible run is
    /// sealed.
    inv_buf: Vec<(u32, Logic)>,

    /// The packed hot-fault machine (stuck-at only; inert with a zero
    /// lane cap, which is how every other engine is built).
    pub(crate) hot: HotFaults,

    /// Instrumentation hooks (zero-sized and inert for [`NullProbe`]).
    pub probe: P,
}

impl<P: Probe> Engine<P> {
    /// Builds an engine over a compiled network; all values start at `X`,
    /// every fault gets its permanent local element at its site, and every
    /// evaluation node is scheduled for the first step.
    pub fn with_probe(net: Network, split: bool, drop_detected: bool, probe: P) -> Self {
        let n = net.num_nodes();
        let num_faults = net.descriptors.len();
        let levels: Vec<u32> = net.levels().collect();
        let mut eng = Engine {
            arena: Arena::new(),
            good: vec![Logic::X; n],
            vis_head: vec![NIL; n],
            inv_head: vec![NIL; n],
            split,
            drop_detected,
            transition_hold: false,
            prev_pin: vec![Logic::X; num_faults],
            sched: Scheduler::new(&levels),
            drain_buf: Vec::new(),
            latch: LatchStash::default(),
            last_eval: vec![0; n],
            events: 0,
            good_evals: 0,
            fault_evals: 0,
            pattern_index: 0,
            verify: cfg!(debug_assertions),
            touched: vec![false; n],
            cursors: Vec::new(),
            cur_faults: Vec::new(),
            good_in: Vec::new(),
            faulty_in: Vec::new(),
            inv_buf: Vec::new(),
            hot: HotFaults::default(),
            probe,
            net,
        };
        // Every fault's permanent local element, against the all-X good
        // machine.
        for ni in 0..n as NodeId {
            eng.reset_locals(ni);
        }
        // First step evaluates everything (initial values are all X; local
        // stuck values may already diverge).
        for ni in 0..n as NodeId {
            if matches!(eng.net.nodes[ni as usize].kind, NodeKind::Eval) {
                eng.sched.schedule(ni);
            }
        }
        eng
    }

    #[inline]
    fn schedule(&mut self, n: NodeId) {
        self.sched.schedule(n);
    }

    #[inline]
    fn schedule_fanouts(&mut self, n: NodeId) {
        let sched = &mut self.sched;
        for &f in self.net.fanout_of(n) {
            sched.schedule(f);
        }
    }

    /// Forces the good-machine flip-flop state (e.g., a reset state) and
    /// schedules the affected logic. Faulty-machine state diffs are cleared:
    /// a forced reset overrides every machine's state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_dff_state(&mut self, state: &[Logic]) {
        assert_eq!(state.len(), self.net.dff_nodes.len(), "state width");
        self.hot.set_state(state, &self.net);
        for (k, &v) in state.iter().enumerate() {
            let q = self.net.dff_nodes[k];
            if self.verify {
                self.touched[q as usize] = true;
            }
            if self.good[q as usize] != v {
                self.good[q as usize] = v;
                self.schedule_fanouts(q);
            }
            // A forced reset overrides every machine's state: drop the
            // state-diff elements and rebuild the local ones.
            self.reset_locals(q);
        }
    }

    /// Applies a primary-input pattern: updates good values, refreshes the
    /// permanent local elements of PI nodes, and schedules affected logic.
    pub fn apply_inputs(&mut self, pattern: &[Logic]) {
        assert_eq!(pattern.len(), self.net.pi_nodes.len(), "input width");
        for (k, &v) in pattern.iter().enumerate() {
            let n = self.net.pi_nodes[k];
            let changed = self.good[n as usize] != v;
            self.good[n as usize] = v;
            if self.verify {
                self.touched[n as usize] = true;
            }
            self.reset_locals(n);
            if changed {
                self.schedule_fanouts(n);
            }
        }
    }

    /// Rebuilds node `n`'s lists from its permanent local elements alone,
    /// dropping every other element. A stuck output at a source node
    /// (primary input or flip-flop Q) holds its stuck value; every other
    /// local fault sits at the node's good value (a stuck D pin re-latches
    /// only at the next clock). Elements that differ from the good value
    /// are visible. Dropped detected faults and promoted faults get none.
    /// Callers that rebuild during a run mark the node for the purge-law
    /// check; construction does not, since a restored checkpoint's lazily
    /// purged lists would fail that check.
    fn reset_locals(&mut self, n: NodeId) {
        let old_vis = std::mem::replace(&mut self.vis_head[n as usize], NIL);
        let old_inv = std::mem::replace(&mut self.inv_head[n as usize], NIL);
        self.arena.free_list(old_vis);
        self.arena.free_list(old_inv);
        let source = !matches!(self.net.nodes[n as usize].kind, NodeKind::Eval);
        let good = self.good[n as usize];
        // Two passes — the visible run must be sealed before the
        // invisible run opens (one contiguous run at a time).
        for want_visible in [true, false] {
            let mut b = ListBuilder::new();
            for &fid in self.net.locals_of(n) {
                let d = &self.net.descriptors[fid as usize];
                if (self.drop_detected && d.is_detected()) || self.hot.holds(fid) {
                    continue;
                }
                let v = match d.effect {
                    LocalEffect::OutputStuck(v) if source => v,
                    _ => good,
                };
                if (v != good || !self.split) == want_visible {
                    b.push(&mut self.arena, fid, v);
                }
            }
            let head = b.finish(&mut self.arena);
            if want_visible {
                self.vis_head[n as usize] = head;
            } else {
                self.inv_head[n as usize] = head;
            }
        }
    }

    /// Settles the network: processes scheduled nodes level by level.
    pub fn propagate(&mut self) {
        self.propagate_with(None);
    }

    /// Like [`Engine::propagate`], but with an optional shared good-machine
    /// trace: `shared[n]` is node `n`'s settled good value for this cycle,
    /// computed once by a fault-free engine (see [`Engine::good_cycle`]).
    /// When present, node evaluation reads the good value from the trace
    /// instead of re-evaluating the good machine — the redundancy a
    /// fault-sharded parallel run would otherwise pay once per shard.
    ///
    /// Substituting the settled value is exact: levelized zero-delay
    /// scheduling evaluates each node at most once per cycle, strictly
    /// after its fanins, so the value `eval_fn` would compute *is* the
    /// settled value.
    pub fn propagate_with(&mut self, shared: Option<&[Logic]>) {
        self.probe.phase_start(Phase::Propagate);
        for level in 0..self.sched.num_levels() {
            // Evaluating a node only schedules strictly higher levels, so
            // one drain empties this level for good.
            if self.sched.pending(level) == 0 {
                continue;
            }
            if P::ENABLED {
                self.probe.queue_depth(u64::from(self.sched.pending(level)));
            }
            let mut buf = std::mem::take(&mut self.drain_buf);
            self.sched.drain_level(level, &mut buf);
            for &n in &buf {
                self.eval_node(n, shared);
            }
            self.drain_buf = buf;
        }
        self.probe.phase_end(Phase::Propagate);
    }

    /// Evaluates one node: good machine plus every faulty machine explicit
    /// on its inputs or local to it, with divergence/convergence.
    ///
    /// Dispatches on fanin arity: the common small arities run a fully
    /// register-resident merge (const-size input/cursor arrays, unrolled
    /// scans, no bounds checks), wider nodes fall back to the reusable
    /// scratch vectors. Both paths share [`Engine::merge_node`].
    fn eval_node(&mut self, n: NodeId, shared: Option<&[Logic]>) {
        self.events += 1;
        self.probe.node_activated();
        self.last_eval[n as usize] = self.pattern_index;
        if self.verify {
            self.touched[n as usize] = true;
        }
        let (s0, s1) = self.net.src_range(n);
        match s1 - s0 {
            1 => self.eval_node_arity::<1>(n, s0, shared),
            2 => self.eval_node_arity::<2>(n, s0, shared),
            _ => self.eval_node_wide(n, s0, s1, shared),
        }
    }

    /// Arity-specialized evaluation: every per-fanin array lives on the
    /// stack with a compile-time length, so the inlined merge loop unrolls
    /// its scans and keeps the cursor state in registers.
    fn eval_node_arity<const N: usize>(&mut self, n: NodeId, s0: usize, shared: Option<&[Logic]>) {
        let mut good_in = [Logic::X; N];
        let mut faulty_in = [Logic::X; N];
        let mut cursors = [NIL; N];
        let mut cur_faults = [TERMINAL_FAULT; N];
        for k in 0..N {
            let src = self.net.src_edges[s0 + k] as usize;
            good_in[k] = self.good[src];
            let h = self.vis_head[src];
            cursors[k] = h;
            cur_faults[k] = self.arena.fault(h);
        }
        self.merge_node(
            n,
            shared,
            &good_in,
            &mut faulty_in,
            &mut cursors,
            &mut cur_faults,
        );
    }

    /// Fallback for wide fanins: the same merge over the engine's reusable
    /// scratch vectors.
    fn eval_node_wide(&mut self, n: NodeId, s0: usize, s1: usize, shared: Option<&[Logic]>) {
        let mut good_in = std::mem::take(&mut self.good_in);
        let mut faulty_in = std::mem::take(&mut self.faulty_in);
        let mut cursors = std::mem::take(&mut self.cursors);
        let mut cur_faults = std::mem::take(&mut self.cur_faults);
        good_in.clear();
        cursors.clear();
        cur_faults.clear();
        for &src in &self.net.src_edges[s0..s1] {
            good_in.push(self.good[src as usize]);
            let h = self.vis_head[src as usize];
            cursors.push(h);
            cur_faults.push(self.arena.fault(h));
        }
        faulty_in.clear();
        faulty_in.resize(s1 - s0, Logic::X);
        self.merge_node(
            n,
            shared,
            &good_in,
            &mut faulty_in,
            &mut cursors,
            &mut cur_faults,
        );
        self.good_in = good_in;
        self.faulty_in = faulty_in;
        self.cursors = cursors;
        self.cur_faults = cur_faults;
    }

    /// The multi-list merge of one node evaluation. `cur_faults[k]` must
    /// cache `arena.fault(cursors[k])`; the min-scan then reads only local
    /// arrays and the arena is touched exactly once per cursor advance.
    ///
    /// `inline(always)` is load-bearing: each [`Engine::eval_node_arity`]
    /// monomorphization passes const-length slices, and only after inlining
    /// can LLVM fold those lengths, unroll the scans, and drop the bounds
    /// checks. A shared out-of-line body would erase the specialization.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn merge_node(
        &mut self,
        n: NodeId,
        shared: Option<&[Logic]>,
        good_in: &[Logic],
        faulty_in: &mut [Logic],
        cursors: &mut [u32],
        cur_faults: &mut [u32],
    ) {
        let eval = self.net.nodes[n as usize].eval;
        let old_good = self.good[n as usize];
        let new_good = match shared {
            Some(trace) => trace[n as usize],
            None => {
                self.good_evals += 1;
                self.probe.good_eval();
                eval_fn(&self.net, eval, good_in)
            }
        };

        let mut own_vis = std::mem::replace(&mut self.vis_head[n as usize], NIL);
        let mut own_inv = std::mem::replace(&mut self.inv_head[n as usize], NIL);
        let mut own_vis_fault = self.arena.fault(own_vis);
        let mut own_inv_fault = self.arena.fault(own_inv);
        let mut new_vis = ListBuilder::new();
        // Invisible entries are buffered and built only after the visible
        // run is sealed: two builders appending to one bump arena would
        // interleave and break run contiguity.
        let mut inv_buf = std::mem::take(&mut self.inv_buf);
        inv_buf.clear();
        let mut fault_event = false;
        // Merge-loop telemetry; dead code unless the probe records.
        let mut traversed: u64 = 0;
        let mut visible: u64 = 0;

        loop {
            // The terminal element makes the minimum computation safe with
            // no end-of-list checks; the scan reads only the cached fault
            // ids, never the arena.
            let mut m = own_vis_fault.min(own_inv_fault);
            for &cf in cur_faults.iter() {
                m = m.min(cf);
            }
            if m == TERMINAL_FAULT {
                break;
            }
            traversed += 1;
            // Gather machine m's input values: explicit fanin elements where
            // present, good values elsewhere (Figure 1's rule). Only the
            // cursors that actually advance touch the arena.
            let mut any_fanin = false;
            for k in 0..cursors.len() {
                if cur_faults[k] == m {
                    let c = cursors[k];
                    faulty_in[k] = self.arena.value(c);
                    // Lists are contiguous runs: the successor is the next
                    // slot, and its fault id is a sequential (prefetched)
                    // read rather than a dependent pointer chase.
                    let nx = c + 1;
                    cursors[k] = nx;
                    cur_faults[k] = self.arena.fault(nx);
                    any_fanin = true;
                } else {
                    faulty_in[k] = good_in[k];
                }
            }
            // Consume (and free) this node's own element for m, if any.
            let mut old_faulty = old_good;
            let mut had_own = false;
            if own_vis_fault == m {
                old_faulty = self.arena.value(own_vis);
                self.arena.free(own_vis);
                own_vis += 1;
                own_vis_fault = self.arena.fault(own_vis);
                had_own = true;
            } else if own_inv_fault == m {
                old_faulty = self.arena.value(own_inv);
                self.arena.free(own_inv);
                own_inv += 1;
                own_inv_fault = self.arena.fault(own_inv);
                had_own = true;
            }
            let desc = &self.net.descriptors[m as usize];
            // Event-driven fault dropping: elements of detected faults are
            // removed while the list they belong to is traversed.
            if self.drop_detected && desc.is_detected() {
                if had_own {
                    self.probe.fault_dropped(n, m);
                }
                continue;
            }
            let is_local = desc.site == n;
            let new_val = if is_local {
                let effect = desc.effect;
                self.eval_local(eval, effect, m, faulty_in)
            } else if any_fanin {
                self.fault_evals += 1;
                self.probe.fault_evals(1);
                eval_fn(&self.net, eval, faulty_in)
            } else {
                // No explicit fanin element and no local effect: machine m
                // sees exactly the good inputs, so it computes exactly the
                // good value (a convergence) — no evaluation needed.
                new_good
            };
            // Divergence / convergence.
            if new_val != new_good {
                new_vis.push(&mut self.arena, m, new_val);
                visible += 1;
            } else if is_local {
                // Local faults keep a permanent (invisible) element.
                if self.split {
                    inv_buf.push((m, new_val));
                } else {
                    new_vis.push(&mut self.arena, m, new_val);
                }
            }
            if P::ENABLED {
                let was_visible = had_own && old_faulty != old_good;
                let is_visible = new_val != new_good;
                if is_visible && !was_visible {
                    self.probe.divergence(n, m);
                } else if was_visible && !is_visible {
                    self.probe.convergence(n, m);
                }
            }
            if old_faulty != new_val {
                fault_event = true;
            }
        }
        if P::ENABLED {
            self.probe.elements_traversed(traversed);
            self.probe.elements_visible(visible);
        }
        // The loop consumed every element of the node's old lists; retire
        // their terminal slots too so compaction can reclaim the runs.
        self.arena.retire_terminal(own_vis);
        self.arena.retire_terminal(own_inv);
        self.vis_head[n as usize] = new_vis.finish(&mut self.arena);
        let mut new_inv = ListBuilder::new();
        for &(m, v) in &inv_buf {
            new_inv.push(&mut self.arena, m, v);
        }
        self.inv_head[n as usize] = new_inv.finish(&mut self.arena);
        self.inv_buf = inv_buf;
        self.good[n as usize] = new_good;
        if new_good != old_good || fault_event {
            self.schedule_fanouts(n);
        }
    }

    /// Evaluates machine `m` at its own fault site, applying the local
    /// effect from the descriptor to the gathered `faulty_in` values.
    fn eval_local(
        &mut self,
        eval: NodeEval,
        effect: LocalEffect,
        m: u32,
        faulty_in: &mut [Logic],
    ) -> Logic {
        self.fault_evals += 1;
        self.probe.fault_evals(1);
        match effect {
            LocalEffect::OutputStuck(v) => v,
            LocalEffect::PinStuck { pin, value } => {
                faulty_in[pin as usize] = value;
                eval_fn(&self.net, eval, faulty_in)
            }
            LocalEffect::FaultyLut(idx) => eval_fn(&self.net, NodeEval::Lut(idx), faulty_in),
            LocalEffect::TransitionPin { pin, edge } => {
                if self.transition_hold {
                    let cv = faulty_in[pin as usize];
                    let pv = self.prev_pin[m as usize];
                    faulty_in[pin as usize] = transition_value(edge, pv, cv);
                }
                eval_fn(&self.net, eval, faulty_in)
            }
        }
    }

    /// Scans the primary outputs for detections: a visible element whose
    /// value and the good value are opposite binary values. Newly detected
    /// faults are marked in their descriptors (elements are purged lazily).
    pub fn detect(&mut self) -> Vec<Detection> {
        self.probe.phase_start(Phase::Detect);
        let mut found = Vec::new();
        for t in 0..self.net.po_taps.len() {
            let p = self.net.po_taps[t];
            let good = self.good[p as usize];
            let mut cur = self.vis_head[p as usize];
            loop {
                let fid = self.arena.fault(cur);
                if fid == TERMINAL_FAULT {
                    break;
                }
                let val = self.arena.value(cur);
                cur += 1;
                let desc = &mut self.net.descriptors[fid as usize];
                if desc.detected_at.is_none() && val.detectably_differs(good) {
                    desc.detected_at = Some(self.pattern_index);
                    found.push((fid, self.pattern_index));
                    self.probe.fault_detected(p, fid);
                }
            }
        }
        self.probe.phase_end(Phase::Detect);
        found
    }

    /// Computes all flip-flop updates from the settled values without
    /// committing them (flip-flops latch simultaneously, and the transition
    /// model's second pass needs the old state).
    pub fn latch_collect(&mut self) {
        self.probe.phase_start(Phase::LatchCollect);
        let mut stash = std::mem::take(&mut self.latch);
        stash.updates.clear();
        stash.elements.clear();
        for &q in &self.net.dff_nodes {
            let d = self.net.sources_of(q)[0];
            let old_good_q = self.good[q as usize];
            let good_d = self.good[d as usize];
            let new_good = good_d;
            let mut changed = new_good != old_good_q;

            let mut c_drv = self.vis_head[d as usize];
            let mut c_vis = self.vis_head[q as usize];
            let mut c_inv = self.inv_head[q as usize];
            loop {
                let m = self
                    .arena
                    .fault(c_drv)
                    .min(self.arena.fault(c_vis))
                    .min(self.arena.fault(c_inv));
                if m == TERMINAL_FAULT {
                    break;
                }
                let mut faulty_d = good_d;
                if self.arena.fault(c_drv) == m {
                    faulty_d = self.arena.value(c_drv);
                    c_drv = self.arena.next(c_drv);
                }
                let mut old_faulty_q = old_good_q;
                if self.arena.fault(c_vis) == m {
                    old_faulty_q = self.arena.value(c_vis);
                    c_vis = self.arena.next(c_vis);
                } else if self.arena.fault(c_inv) == m {
                    old_faulty_q = self.arena.value(c_inv);
                    c_inv = self.arena.next(c_inv);
                }
                let desc = &self.net.descriptors[m as usize];
                if self.drop_detected && desc.is_detected() {
                    continue;
                }
                let is_local = desc.site == q;
                let faulty_q = if is_local {
                    match desc.effect {
                        LocalEffect::OutputStuck(v) => v,
                        // A stuck D pin latches the stuck value.
                        LocalEffect::PinStuck { value, .. } => value,
                        LocalEffect::TransitionPin { edge, .. } => {
                            if self.transition_hold {
                                transition_value(edge, self.prev_pin[m as usize], faulty_d)
                            } else {
                                faulty_d
                            }
                        }
                        LocalEffect::FaultyLut(_) => {
                            unreachable!("flip-flops host no functional faults")
                        }
                    }
                } else {
                    faulty_d
                };
                if faulty_q != new_good {
                    stash.elements.push((m, faulty_q, true));
                } else if is_local {
                    stash.elements.push((m, faulty_q, false));
                }
                if old_faulty_q != faulty_q {
                    changed = true;
                }
            }
            stash.updates.push(DffUpdate {
                new_good,
                changed,
                end: stash.elements.len() as u32,
            });
        }
        if P::ENABLED {
            self.probe.dff_stash(stash.elements.len() as u64);
        }
        self.latch = stash;
        self.probe.phase_end(Phase::LatchCollect);
    }

    /// Commits the collected flip-flop updates: writes new flip-flop
    /// values and fault lists, scheduling the fanouts of every changed
    /// flip-flop.
    pub fn latch_commit(&mut self) {
        self.probe.phase_start(Phase::LatchCommit);
        let stash = std::mem::take(&mut self.latch);
        let mut start = 0;
        for (k, up) in stash.updates.iter().enumerate() {
            let q = self.net.dff_nodes[k];
            let elements = &stash.elements[start..up.end as usize];
            start = up.end as usize;
            if self.verify {
                self.touched[q as usize] = true;
            }
            let old_vis = std::mem::replace(&mut self.vis_head[q as usize], NIL);
            let old_inv = std::mem::replace(&mut self.inv_head[q as usize], NIL);
            self.arena.free_list(old_vis);
            self.arena.free_list(old_inv);
            // Two passes: one contiguous run at a time (see `reset_locals`).
            let mut vis = ListBuilder::new();
            for &(fid, val, visible) in elements {
                if visible || !self.split {
                    vis.push(&mut self.arena, fid, val);
                }
            }
            self.vis_head[q as usize] = vis.finish(&mut self.arena);
            let mut inv = ListBuilder::new();
            for &(fid, val, visible) in elements {
                if !visible && self.split {
                    inv.push(&mut self.arena, fid, val);
                }
            }
            self.inv_head[q as usize] = inv.finish(&mut self.arena);
            self.good[q as usize] = up.new_good;
            if up.changed {
                self.schedule_fanouts(q);
            }
        }
        self.latch = stash;
        self.probe.phase_end(Phase::LatchCommit);
    }

    /// Opens the telemetry scope for the pattern about to be simulated.
    pub fn pattern_begin(&mut self) {
        self.probe.begin_pattern(u64::from(self.pattern_index));
    }

    /// Closes the current pattern's telemetry scope and runs the arena
    /// maintenance pass. With a recording probe this sweeps every node's
    /// fault-list length and samples peak memory; with [`NullProbe`] that
    /// block compiles out.
    pub fn pattern_end(&mut self) {
        if P::ENABLED {
            for ni in 0..self.net.num_nodes() {
                let len =
                    self.arena.list_len(self.vis_head[ni]) + self.arena.list_len(self.inv_head[ni]);
                self.probe.list_len(len as u64);
            }
            let bytes = self.memory_bytes() as u64;
            self.probe.memory_bytes(bytes);
        }
        self.probe.end_pattern();
        self.maybe_compact();
    }

    /// Compacts the arena once retired slots outnumber live elements: the
    /// bump allocator never reuses a slot in place, so this pass is the
    /// memory reclamation — surviving runs are re-sealed back to back at
    /// the start of the arrays. Element indices are only held in the head
    /// tables between patterns, so the pass is safe here and nowhere
    /// mid-pattern.
    fn maybe_compact(&mut self) {
        let free = self.arena.slack();
        if free < COMPACT_MIN_FREE || free <= self.arena.live() {
            return;
        }
        let moved = {
            let mut arrays = [&mut self.vis_head[..], &mut self.inv_head[..]];
            self.arena.compact(&mut arrays)
        };
        self.probe.compaction(moved as u64);
    }

    /// One stuck-at clock cycle: apply, settle, detect, latch.
    pub fn step_stuck(&mut self, pattern: &[Logic]) -> Vec<Detection> {
        self.step_stuck_with(pattern, None)
    }

    /// One stuck-at clock cycle against an optional shared good-machine
    /// trace (see [`Engine::propagate_with`]). The hot-fault words step
    /// between detection and the latch, and promotion sweeps run at
    /// pattern boundaries (see [`crate::hot`]).
    pub fn step_stuck_with(
        &mut self,
        pattern: &[Logic],
        shared: Option<&[Logic]>,
    ) -> Vec<Detection> {
        self.pattern_begin();
        self.apply_inputs(pattern);
        self.propagate_with(shared);
        let mut detections = self.detect();
        let mut hot = std::mem::take(&mut self.hot);
        hot.step(self, &mut detections);
        self.latch_collect();
        self.latch_commit();
        self.pattern_index += 1;
        hot.sweep(self);
        self.hot = hot;
        self.pattern_end();
        self.verify_after_pattern();
        detections
    }

    /// Advances a *fault-free* engine one clock cycle and returns the
    /// settled good value of every node (after propagation, before the
    /// latch), ready to be shared with shard engines via
    /// [`Engine::propagate_with`]. The good machine evolves identically in
    /// the stuck-at and transition flows (faults never touch it), so one
    /// trace serves both passes of a transition cycle.
    pub fn good_cycle(&mut self, pattern: &[Logic]) -> Vec<Logic> {
        self.apply_inputs(pattern);
        self.propagate();
        let settled = self.good.clone();
        self.latch_collect();
        self.latch_commit();
        self.pattern_index += 1;
        settled
    }

    /// Schedules the site nodes of the live transition faults that the
    /// hold pass evaluated this pattern (used by the transition engine's
    /// release pass).
    pub fn schedule_transition_sites(&mut self) {
        for fid in 0..self.net.descriptors.len() {
            let d = &self.net.descriptors[fid];
            if d.is_detected() && self.drop_detected {
                continue;
            }
            if matches!(d.effect, LocalEffect::TransitionPin { .. }) {
                let site = d.site;
                // Only a site evaluated during this pattern's hold pass can
                // carry held values that the release evaluation must
                // replace. A site the hold pass did not evaluate saw no
                // fanin change this pattern (any fanin change schedules
                // it), so its lists already hold the release-consistent
                // state of the previous pattern.
                if matches!(self.net.nodes[site as usize].kind, NodeKind::Eval)
                    && self.last_eval[site as usize] == self.pattern_index
                {
                    self.schedule(site);
                }
            }
        }
    }

    /// Updates every transition fault's previous-pin value from the settled
    /// state (machine-specific: the fault's own element on the driver, or
    /// the good value).
    pub fn record_prev_pins(&mut self) {
        for fid in 0..self.net.descriptors.len() as u32 {
            let d = &self.net.descriptors[fid as usize];
            let LocalEffect::TransitionPin { pin, .. } = d.effect else {
                continue;
            };
            if d.is_detected() {
                continue;
            }
            let driver = self.net.sources_of(d.site)[pin as usize];
            let mut v = self.good[driver as usize];
            let mut cur = self.vis_head[driver as usize];
            loop {
                let f = self.arena.fault(cur);
                if f == fid {
                    v = self.arena.value(cur);
                    break;
                }
                if f == TERMINAL_FAULT {
                    break;
                }
                cur += 1;
            }
            self.prev_pin[fid as usize] = v;
        }
    }

    /// Checks the structural invariants of every fault list: ascending
    /// unique fault ids, termination at the sentinel, live-element
    /// accounting, and the permanent presence of each undropped local
    /// fault at its site. Panics with a description on violation.
    pub fn assert_invariants(&self) {
        let mut counted = 0usize;
        for ni in 0..self.net.num_nodes() {
            for head in [self.vis_head[ni], self.inv_head[ni]] {
                let mut last: Option<u32> = None;
                let mut cur = head;
                let mut hops = 0usize;
                loop {
                    let fid = self.arena.fault(cur);
                    if fid == TERMINAL_FAULT {
                        break;
                    }
                    if let Some(prev) = last {
                        assert!(fid > prev, "node {ni}: list not strictly ascending");
                    }
                    assert!(
                        !self.hot.holds(fid),
                        "node {ni}: promoted fault {fid} kept a list element"
                    );
                    last = Some(fid);
                    counted += 1;
                    hops += 1;
                    assert!(hops <= self.net.descriptors.len(), "node {ni}: list cycle");
                    cur = self.arena.next(cur);
                }
            }
        }
        assert_eq!(counted, self.arena.live(), "live-element accounting");
        for (fid, d) in self.net.descriptors.iter().enumerate() {
            if d.untestable || (self.drop_detected && d.is_detected()) || self.hot.holds(fid as u32)
            {
                continue;
            }
            let site = d.site as usize;
            let present = self
                .arena
                .iter_list(self.vis_head[site])
                .chain(self.arena.iter_list(self.inv_head[site]))
                .any(|(f, _)| f == fid as u32);
            assert!(present, "fault {fid} lost its permanent local element");
        }
        self.hot.assert_lane_laws(&self.net);
    }

    /// Re-checks the concurrent-list laws after a settled pattern: the
    /// structural invariants of [`Engine::assert_invariants`], the
    /// visible/invisible partition law against the good values, and — with
    /// fault dropping on — the purge law that no element of a previously
    /// detected fault survives a traversal. No-op unless [`Engine::verify`]
    /// is set (debug builds, or `--paranoid`).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated law.
    pub fn verify_after_pattern(&mut self) {
        if !self.verify {
            return;
        }
        self.assert_invariants();
        for ni in 0..self.net.num_nodes() {
            let good = self.good[ni];
            for (fid, val) in self.arena.iter_list(self.vis_head[ni]) {
                if self.split {
                    assert!(
                        val != good,
                        "node {ni}: fault {fid} agrees with the good value \
                         {good:?} but sits on the visible list"
                    );
                } else {
                    let local = self.net.descriptors[fid as usize].site as usize == ni;
                    assert!(
                        val != good || local,
                        "node {ni}: non-local fault {fid} converged to \
                         {good:?} but its element survives"
                    );
                }
            }
            for (fid, val) in self.arena.iter_list(self.inv_head[ni]) {
                assert!(
                    self.split,
                    "node {ni}: invisible list populated in combined mode"
                );
                assert!(
                    val == good,
                    "node {ni}: fault {fid} diverges ({val:?} vs good \
                     {good:?}) but sits on the invisible list"
                );
                assert!(
                    self.net.descriptors[fid as usize].site as usize == ni,
                    "node {ni}: non-local fault {fid} on the invisible list"
                );
            }
        }
        // Purge law: nodes whose lists were actually rebuilt this pattern
        // (evaluated gates, refreshed primary inputs, committed flip-flops)
        // hold no element of a fault detected on an *earlier* pattern.
        // Event-driven evaluation leaves an unscheduled node's list
        // untouched, so only traversed nodes are checked; faults detected
        // this pattern are purged lazily on later traversals.
        if self.drop_detected && self.pattern_index > 0 {
            let current = self.pattern_index - 1;
            let rebuilt = std::mem::take(&mut self.touched);
            for (ni, flag) in rebuilt.iter().enumerate() {
                if !flag {
                    continue;
                }
                for head in [self.vis_head[ni], self.inv_head[ni]] {
                    for (fid, _) in self.arena.iter_list(head) {
                        if let Some(at) = self.net.descriptors[fid as usize].detected_at {
                            assert!(
                                at >= current,
                                "node {ni}: element of fault {fid} (detected \
                                 at pattern {at}) survived the traversal at \
                                 pattern {current}"
                            );
                        }
                    }
                }
            }
            let mut rebuilt = rebuilt;
            rebuilt.iter_mut().for_each(|f| *f = false);
            self.touched = rebuilt;
        } else {
            self.touched.iter_mut().for_each(|f| *f = false);
        }
    }

    /// Paper-comparable memory model: peak live elements (at 5 bytes each
    /// in the link-free struct-of-arrays layout) plus descriptor overhead
    /// and the compiled model (node records, CSR adjacency, LUT pool),
    /// plus every buffer the engine itself owns (value/list-head arrays,
    /// per-fault transition state, the dense scheduler, and the merge-loop
    /// scratch vectors). Per-list terminal slots (at most one per node per
    /// head table) are bounded by the head-table term already counted.
    pub fn memory_bytes(&self) -> usize {
        let model = self.arena.peak() * Arena::ELEMENT_BYTES
            + self.net.descriptors.len() * 24
            + self.net.memory_bytes();
        let values = self.good.capacity() * std::mem::size_of::<Logic>()
            + (self.vis_head.capacity() + self.inv_head.capacity()) * std::mem::size_of::<u32>()
            + self.prev_pin.capacity() * std::mem::size_of::<Logic>();
        let scheduling = self.sched.memory_bytes()
            + self.drain_buf.capacity() * std::mem::size_of::<NodeId>()
            + self.latch.updates.capacity() * std::mem::size_of::<DffUpdate>()
            + self.latch.elements.capacity() * std::mem::size_of::<(u32, Logic, bool)>();
        let scratch = (self.cursors.capacity() + self.cur_faults.capacity())
            * std::mem::size_of::<u32>()
            + (self.good_in.capacity() + self.faulty_in.capacity()) * std::mem::size_of::<Logic>()
            + self.inv_buf.capacity() * std::mem::size_of::<(u32, Logic)>();
        model + values + scheduling + scratch + self.hot.memory_bytes(&self.net)
    }
}

/// Evaluates a node function over explicit input values.
#[inline]
pub(crate) fn eval_fn(net: &Network, eval: NodeEval, inputs: &[Logic]) -> Logic {
    match eval {
        NodeEval::Direct(f) => f.eval(inputs),
        NodeEval::Lut(idx) => net.lut(idx).eval(inputs),
        NodeEval::None => unreachable!("source nodes are not evaluated"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{build_gate_network, FaultSpec};
    use cfs_faults::StuckAt;
    use cfs_logic::parse_pattern;
    use cfs_netlist::parse_bench;

    fn two_gate_engine(split: bool) -> (cfs_netlist::Circuit, Engine) {
        let c = parse_bench(
            "eng",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng = AND(a, b)\ny = NOT(g)\n",
        )
        .unwrap();
        let g = c.find("g").unwrap();
        let specs = vec![
            FaultSpec::Stuck(StuckAt::output(g, true)), // fault 0: g/sa1
            FaultSpec::Stuck(StuckAt::pin(g, 0, false)), // fault 1: g.0/sa0
        ];
        let net = build_gate_network(&c, &specs);
        (c.clone(), Engine::with_probe(net, split, true, NullProbe))
    }

    #[test]
    fn local_elements_exist_before_any_step() {
        let (c, eng) = two_gate_engine(true);
        let g = c.find("g").unwrap().index() as NodeId;
        // Both local faults sit invisible at the site in split mode.
        assert_eq!(eng.arena.to_vec(eng.inv_head[g as usize]).len(), 2);
        assert_eq!(eng.vis_head[g as usize], NIL);
        eng.assert_invariants();
    }

    #[test]
    fn split_mode_moves_quiet_locals_off_the_visible_list() {
        let (c, mut eng) = two_gate_engine(true);
        let g = c.find("g").unwrap().index() as NodeId;
        // a=1, b=1: good g = 1. Fault 0 (g/sa1) agrees → invisible; fault 1
        // (pin-0 sa0) gives AND(0,1)=0 → visible (and detected at y, so it
        // is dropped right away — the invisible local for fault 0 stays).
        eng.step_stuck(&parse_pattern("11").unwrap());
        assert_eq!(eng.arena.list_len(eng.inv_head[g as usize]), 1);
        eng.assert_invariants();
        // a=0, b=1: good g = 0, fault 0 (g/sa1) diverges → moves to the
        // visible list.
        eng.step_stuck(&parse_pattern("01").unwrap());
        let vis: Vec<u32> = eng
            .arena
            .iter_list(eng.vis_head[g as usize])
            .map(|(f, _)| f)
            .collect();
        assert!(
            vis.contains(&0),
            "activated local fault is visible: {vis:?}"
        );
        eng.assert_invariants();
    }

    #[test]
    fn combined_mode_keeps_one_list() {
        let (c, mut eng) = two_gate_engine(false);
        let g = c.find("g").unwrap().index() as NodeId;
        eng.step_stuck(&parse_pattern("00").unwrap());
        // Combined mode: invisible locals share the single list (good g = 0,
        // fault 1 agrees and stays as an invisible entry; fault 0 diverges).
        assert_eq!(eng.arena.list_len(eng.vis_head[g as usize]), 2);
        assert_eq!(eng.inv_head[g as usize], NIL);
        eng.assert_invariants();
    }

    #[test]
    fn detection_drops_elements_lazily() {
        let (c, mut eng) = two_gate_engine(true);
        let y = c.find("y").unwrap().index() as NodeId;
        // a=1, b=0: good g=0/y=1; g/sa1: g=1, y=0 → detected at the PO.
        let det = eng.step_stuck(&parse_pattern("10").unwrap());
        assert_eq!(det, vec![(0, 0)], "fault 0 detected at pattern 0");
        // The detected fault's elements disappear as lists are traversed.
        eng.step_stuck(&parse_pattern("11").unwrap());
        let at_y: Vec<u32> = eng
            .arena
            .iter_list(eng.vis_head[y as usize])
            .map(|(f, _)| f)
            .collect();
        assert!(!at_y.contains(&0), "dropped fault purged from y's list");
        eng.assert_invariants();
    }

    #[test]
    fn counters_reflect_work() {
        let (_, mut eng) = two_gate_engine(true);
        eng.step_stuck(&parse_pattern("11").unwrap());
        let (e1, f1) = (eng.events, eng.fault_evals);
        assert!(e1 > 0 && f1 > 0);
        // Identical pattern: almost no new work.
        eng.step_stuck(&parse_pattern("11").unwrap());
        assert!(eng.events - e1 <= 2, "quiescent step stays quiet");
    }

    #[test]
    fn forced_compaction_preserves_engine_state() {
        let (_, mut eng) = two_gate_engine(true);
        eng.step_stuck(&parse_pattern("10").unwrap());
        let before_live = eng.arena.live();
        let statuses_before: Vec<_> = eng.net.descriptors.iter().map(|d| d.detected_at).collect();
        let moved = {
            let mut arrays = [&mut eng.vis_head[..], &mut eng.inv_head[..]];
            eng.arena.compact(&mut arrays)
        };
        assert_eq!(moved, before_live);
        assert_eq!(eng.arena.slack(), 0);
        eng.assert_invariants();
        // Simulation continues correctly on the compacted arena.
        eng.step_stuck(&parse_pattern("01").unwrap());
        eng.assert_invariants();
        let statuses_after: Vec<_> = eng.net.descriptors.iter().map(|d| d.detected_at).collect();
        assert_eq!(statuses_before, statuses_after);
    }
}
