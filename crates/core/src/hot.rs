//! The hot-fault hybrid: the few stuck-at faults that diverge almost
//! everywhere leave the concurrent lists and run 64 to a machine word.
//!
//! Concurrent simulation pays per list element, so a fault whose effect
//! spreads over much of the circuit costs a merge step at every node it
//! touches, every pattern. PROOFS (Niermann, Cheng and Patel), the paper's
//! Table 3 comparator, pays per word-node evaluation instead, shared by 64
//! faults. The hybrid gives each fault the cheaper of the two:
//!
//! * **Promotion.** After every [`PROMOTE_EVERY`] patterns one sweep of the
//!   visible lists counts each live fault's visible elements; faults with
//!   at least `min_visible` move into free lanes (up to the lane cap) of
//!   64-lane [`PackedLogic`] words, hottest first. A new word opens only
//!   when the candidates' visible elements outnumber the network's nodes,
//!   since one packed step costs about a pass over the words' cone. Each
//!   fault takes its flip-flop state from the flip-flop lists and leaves
//!   every list, permanent local element included.
//! * **Stepping.** Each pattern, between propagation and the latch, the
//!   words go through [`step_words`], the packed step PROOFS runs one
//!   group at a time (see [`crate::ProofsSim`]): event-driven propagation
//!   against the engine's settled good values, seeded by the words'
//!   flip-flop state differences and fault sites, nodes evaluated through
//!   the packed cell kernel ([`cfs_netlist::CellPlan::eval_packed`]) with
//!   each lane's fault forced at its plan step and pin, detections at the
//!   primary-output taps, and each word latching its own flip-flop lanes.
//!   The detections go into the same fault descriptors.
//!
//! Both representations follow every faulty machine exactly — a list
//! element is the machine's value where it differs from the good one, a
//! lane is its value everywhere — and the kernel applies the same
//! pessimistic gate-by-gate semantics the faulty LUTs are built from, so
//! detections are bit-identical to the pure concurrent run.

use cfs_logic::{Logic, PackedLogic, LANES};
use cfs_netlist::PlanFault;
use cfs_telemetry::{Phase, Probe};

use crate::engine::{Detection, Engine};
use crate::list::ListBuilder;
use crate::network::{LocalEffect, Network, NodeId, NodeKind};
use crate::sched::Scheduler;

/// Default cap on hot-fault lanes (16 words).
pub const DEFAULT_HOT_LANES: usize = 1024;

/// Patterns between promotion sweeps; the first sweep follows this many.
pub(crate) const PROMOTE_EVERY: u32 = 32;

/// Visible elements at a sweep that make a live fault hot.
pub(crate) const PROMOTE_MIN_VISIBLE: u32 = 32;

/// `lane_of` entry of a fault that holds no lane.
const NO_LANE: u32 = u32::MAX;

/// The packed hot-fault machine of one stuck-at engine.
#[derive(Debug, Default)]
pub(crate) struct HotFaults {
    /// Most lanes in use at once; 0 keeps the engine purely concurrent.
    pub cap: usize,
    /// Visible elements at a sweep that make a live fault hot.
    pub min_visible: u32,
    words: Vec<HotWord>,
    /// `word * 64 + lane` of each fault holding a lane, else [`NO_LANE`].
    lane_of: Vec<u32>,
    /// Faults promoted so far.
    pub promoted: u64,
    /// Packed word-node evaluations so far.
    pub evals: u64,
    /// The packed step's scratch, sized on first use.
    scratch: Option<PackedScratch>,
    hits: Vec<(u32, NodeId)>,
    counts: Vec<u32>,
    survivors: Vec<(u32, Logic)>,
}

/// 64 faults simulated together: a hot word, or one PROOFS group.
#[derive(Debug, Clone)]
pub(crate) struct HotWord {
    /// The fault of each lane (stale once the lane is freed).
    pub faults: [u32; LANES],
    /// Lanes holding a live fault.
    pub live: u64,
    /// Each flip-flop's faulty Q value, per lane.
    pub state: Vec<PackedLogic>,
    /// Faults forced at evaluation nodes, sorted by node.
    sites: Vec<(NodeId, PlanFault)>,
    /// Stuck primary inputs: `(node, lanes, value)`.
    inputs: Vec<(NodeId, u64, Logic)>,
    /// Values latched regardless of the D driver (a stuck Q or D pin):
    /// `(flip-flop ordinal, lanes, value)`.
    latch: Vec<(u32, u64, Logic)>,
}

impl HotWord {
    pub fn new(num_dffs: usize) -> Self {
        HotWord {
            faults: [0; LANES],
            live: 0,
            state: vec![PackedLogic::ALL_X; num_dffs],
            sites: Vec::new(),
            inputs: Vec::new(),
            latch: Vec::new(),
        }
    }

    /// Rebuilds the injection tables from the live lanes' descriptors.
    pub fn rebuild_injections(&mut self, net: &Network, dff_ordinal: &[u32]) {
        self.sites.clear();
        self.inputs.clear();
        self.latch.clear();
        let mut live = self.live;
        while live != 0 {
            let lane = live.trailing_zeros() as usize;
            live &= live - 1;
            let bit = 1u64 << lane;
            let fid = self.faults[lane];
            let d = &net.descriptors[fid as usize];
            let site = d.site;
            match (net.nodes[site as usize].kind, d.effect) {
                (NodeKind::Eval, effect) => {
                    let root = net.plans.of(site, 0).steps.len() as u16 - 1;
                    let fault = match effect {
                        LocalEffect::OutputStuck(v) => PlanFault {
                            word: 0,
                            step: root,
                            pin: PlanFault::OUTPUT,
                            value: v == Logic::One,
                            lanes: bit,
                        },
                        LocalEffect::PinStuck { pin, value } => PlanFault {
                            word: 0,
                            step: root,
                            pin: u16::from(pin),
                            value: value == Logic::One,
                            lanes: bit,
                        },
                        LocalEffect::FaultyLut(_) => net.plans.lut_site(fid, bit),
                        LocalEffect::TransitionPin { .. } => {
                            unreachable!("transition faults never run in packed words")
                        }
                    };
                    self.sites.push((site, fault));
                }
                (NodeKind::Input(_), LocalEffect::OutputStuck(v)) => {
                    self.inputs.push((site, bit, v));
                }
                (
                    NodeKind::Dff,
                    LocalEffect::OutputStuck(value) | LocalEffect::PinStuck { value, .. },
                ) => {
                    self.latch.push((dff_ordinal[site as usize], bit, value));
                }
                (kind, effect) => unreachable!("{effect:?} at a {kind:?} node"),
            }
        }
        self.sites.sort_by_key(|&(n, _)| n);
    }

    /// Sets each lane whose fault sticks a flip-flop's Q output to the
    /// stuck value: such a fault holds from the start, while a stuck D pin
    /// acts only at the next latch.
    pub fn hold_stuck_outputs(&mut self, net: &Network) {
        for &(k, lanes, value) in &self.latch {
            let fault = self.faults[lanes.trailing_zeros() as usize];
            if let LocalEffect::OutputStuck(_) = net.descriptors[fault as usize].effect {
                let k = k as usize;
                self.state[k] = self.state[k].select(PackedLogic::splat(value), lanes);
            }
        }
    }
}

/// The scratch of [`step_words`] over one network, reused by every call.
#[derive(Debug)]
pub(crate) struct PackedScratch {
    /// Flip-flop ordinal of each flip-flop node.
    pub dff_ordinal: Vec<u32>,
    /// Every word's packed faulty value of every node, node-major
    /// (`vals[n * words + w]`), valid where `stamp[n]` is the current
    /// epoch; elsewhere every lane of every word holds the good value.
    vals: Vec<PackedLogic>,
    stamp: Vec<u32>,
    /// The current epoch where some word forces a fault.
    site: Vec<u32>,
    epoch: u32,
    sched: Scheduler,
    drain: Vec<NodeId>,
    values: Vec<PackedLogic>,
    here: Vec<PlanFault>,
}

impl PackedScratch {
    /// Scratch sized for `net`, whose plans must exist
    /// ([`Network::ensure_plans`]).
    pub fn new(net: &Network) -> Self {
        let n = net.num_nodes();
        let mut dff_ordinal = vec![NO_LANE; n];
        for (k, &q) in net.dff_nodes.iter().enumerate() {
            dff_ordinal[q as usize] = k as u32;
        }
        PackedScratch {
            dff_ordinal,
            vals: Vec::new(),
            stamp: vec![0; n],
            site: vec![0; n],
            epoch: 0,
            sched: Scheduler::new(&net.levels().collect::<Vec<_>>()),
            drain: Vec::new(),
            values: Vec::new(),
            here: Vec::new(),
        }
    }

    /// A fresh epoch: every node reads the good value again.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.site.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Bytes of the node arrays and the scheduler.
    pub fn memory_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<PackedLogic>()
            + (self.stamp.capacity() + self.site.capacity() + self.dff_ordinal.capacity()) * 4
            + self.sched.memory_bytes()
    }
}

/// The packed step: simulates one pattern on `words` against the settled
/// good values `good` (after propagation, before the latch). Returns the
/// nodes evaluated; each evaluation covers every word.
///
/// * **Seed.** Lanes whose flip-flop state differs from the good state,
///   stuck primary inputs, and the nodes hosting a lane's fault.
/// * **Propagate.** Level by level, each node evaluated at most once for
///   all the words, so the per-node work (fanin and plan look-up,
///   scheduling) is shared by every word.
/// * **Detect.** A live lane whose primary-output tap holds the opposite
///   binary value of the good machine is detected: its `(fault, tap)`
///   goes into `hits` (cleared first) and the lane leaves `live`.
/// * **Latch.** Each flip-flop takes its D driver's faulty value, except
///   on the lanes whose fault forces it.
pub(crate) fn step_words(
    net: &Network,
    good: &[Logic],
    words: &mut [HotWord],
    scratch: &mut PackedScratch,
    hits: &mut Vec<(u32, NodeId)>,
) -> u64 {
    hits.clear();
    scratch.next_epoch();
    let nw = words.len();
    if scratch.vals.len() != net.num_nodes() * nw {
        scratch.vals = vec![PackedLogic::ALL_X; net.num_nodes() * nw];
    }
    let PackedScratch {
        vals,
        stamp,
        site,
        epoch,
        sched,
        drain,
        values,
        here,
        ..
    } = scratch;
    let epoch = *epoch;
    // Word `w`'s value at node `n`.
    let read = |vals: &[PackedLogic], stamp: &[u32], n: NodeId, w: usize| {
        if stamp[n as usize] == epoch {
            vals[n as usize * nw + w]
        } else {
            PackedLogic::splat(good[n as usize])
        }
    };
    // Opens node `n`'s row: every word at the good value.
    let open = |vals: &mut [PackedLogic], stamp: &mut [u32], n: NodeId| {
        if stamp[n as usize] != epoch {
            stamp[n as usize] = epoch;
            let g = PackedLogic::splat(good[n as usize]);
            vals[n as usize * nw..(n as usize + 1) * nw].fill(g);
        }
    };

    // Seed: flip-flop state differences, stuck inputs, fault sites.
    for (w, word) in words.iter().enumerate() {
        for (&q, &s) in net.dff_nodes.iter().zip(&word.state) {
            let g = PackedLogic::splat(good[q as usize]);
            let diff = s.diff_mask(g) & word.live;
            if diff != 0 {
                // The first word to seed `q` schedules its fanouts for all.
                if stamp[q as usize] != epoch {
                    for &f in net.fanout_of(q) {
                        sched.schedule(f);
                    }
                }
                open(vals, stamp, q);
                vals[q as usize * nw + w] = g.select(s, diff);
            }
        }
        for &(node, lanes, value) in &word.inputs {
            let cur = read(vals, stamp, node, w);
            let new = cur.select(PackedLogic::splat(value), lanes);
            if new != cur {
                open(vals, stamp, node);
                vals[node as usize * nw + w] = new;
                for &f in net.fanout_of(node) {
                    sched.schedule(f);
                }
            }
        }
        for &(node, _) in &word.sites {
            site[node as usize] = epoch;
            sched.schedule(node);
        }
    }

    // Propagate level by level; each node is evaluated at most once, for
    // every word.
    let mut node_evals = 0u64;
    for level in 0..sched.num_levels() {
        if sched.pending(level) == 0 {
            continue;
        }
        sched.drain_level(level, drain);
        for &n in drain.iter() {
            let sources = net.sources_of(n);
            values.clear();
            for &s in sources {
                let s = s as usize;
                if stamp[s] == epoch {
                    values.extend_from_slice(&vals[s * nw..(s + 1) * nw]);
                } else {
                    values.resize(values.len() + nw, PackedLogic::splat(good[s]));
                }
            }
            here.clear();
            if site[n as usize] == epoch {
                for (w, word) in words.iter().enumerate() {
                    let lo = word.sites.partition_point(|&(m, _)| m < n);
                    here.extend(word.sites[lo..].iter().take_while(|&&(m, _)| m == n).map(
                        |&(_, f)| PlanFault {
                            word: w as u16,
                            ..f
                        },
                    ));
                }
            }
            net.plans.of(n, sources.len()).eval_packed(values, nw, here);
            node_evals += 1;
            let out = &values[values.len() - nw..];
            let n = n as usize;
            let row = &mut vals[n * nw..(n + 1) * nw];
            let changed = if stamp[n] == epoch {
                out != row
            } else {
                let g = PackedLogic::splat(good[n]);
                out.iter().any(|&v| v != g)
            };
            if changed {
                row.copy_from_slice(out);
                stamp[n] = epoch;
                for &f in net.fanout_of(n as NodeId) {
                    sched.schedule(f);
                }
            }
        }
    }

    // Detect at the primary-output taps.
    for &po in &net.po_taps {
        if stamp[po as usize] != epoch {
            continue;
        }
        let g = PackedLogic::splat(good[po as usize]);
        for (w, word) in words.iter_mut().enumerate() {
            let mut found = g.detect_mask(vals[po as usize * nw + w]) & word.live;
            word.live &= !found;
            while found != 0 {
                let lane = found.trailing_zeros() as usize;
                found &= found - 1;
                hits.push((word.faults[lane], po));
            }
        }
    }

    // Latch: each flip-flop takes its D driver's faulty value, except on
    // the lanes whose fault forces it.
    for (w, word) in words.iter_mut().enumerate() {
        for (s, &q) in word.state.iter_mut().zip(&net.dff_nodes) {
            *s = read(vals, stamp, net.sources_of(q)[0], w);
        }
        for &(k, lanes, value) in &word.latch {
            let k = k as usize;
            word.state[k] = word.state[k].select(PackedLogic::splat(value), lanes);
        }
    }
    node_evals
}

impl HotFaults {
    /// A hot-fault machine with `cap` lanes over a network with
    /// `num_faults` faults (`cap == 0`: pure concurrent simulation).
    pub fn new(cap: usize, num_faults: usize) -> Self {
        HotFaults {
            cap,
            min_visible: PROMOTE_MIN_VISIBLE,
            lane_of: vec![NO_LANE; if cap == 0 { 0 } else { num_faults }],
            ..HotFaults::default()
        }
    }

    /// Lanes holding a live fault.
    pub fn live_lanes(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.live.count_ones() as usize)
            .sum()
    }

    /// Words holding at least one live fault.
    pub fn live_words(&self) -> usize {
        self.words.iter().filter(|w| w.live != 0).count()
    }

    /// Whether fault `fid` is simulated in a lane.
    #[inline]
    pub fn holds(&self, fid: u32) -> bool {
        self.lane_of
            .get(fid as usize)
            .is_some_and(|&l| l != NO_LANE)
    }

    /// Builds the plans and sizes the scratch on first use.
    fn activate<P: Probe>(&mut self, eng: &mut Engine<P>) {
        if self.scratch.is_none() {
            eng.net.ensure_plans();
            self.scratch = Some(PackedScratch::new(&eng.net));
        }
    }

    /// Simulates this pattern on every word (after propagation and
    /// detection, before the latch) through [`step_words`], appending new
    /// detections to `found`.
    pub fn step<P: Probe>(&mut self, eng: &mut Engine<P>, found: &mut Vec<Detection>) {
        if self.words.iter().all(|w| w.live == 0) {
            return;
        }
        eng.probe.phase_start(Phase::Packed);
        let scratch = self
            .scratch
            .as_mut()
            .expect("activated before the first lane");
        let node_evals = step_words(
            &eng.net,
            &eng.good,
            &mut self.words,
            scratch,
            &mut self.hits,
        );
        let evals = node_evals * self.words.len() as u64;
        self.evals += evals;
        let pattern = eng.pattern_index;
        for &(fid, po) in &self.hits {
            eng.net.descriptors[fid as usize].detected_at = Some(pattern);
            found.push((fid, pattern));
            eng.probe.fault_detected(po, fid);
            self.lane_of[fid as usize] = NO_LANE;
        }
        for word in &mut self.words {
            if word.sites.len() + word.inputs.len() + word.latch.len()
                != word.live.count_ones() as usize
            {
                word.rebuild_injections(&eng.net, &scratch.dff_ordinal);
            }
        }
        if P::ENABLED {
            eng.probe.packed(0, self.live_words() as u64, evals);
        }
        eng.probe.phase_end(Phase::Packed);
    }

    /// The promotion sweep, run after the latch of every
    /// [`PROMOTE_EVERY`]-th pattern: faults with at least `min_visible`
    /// visible elements take free lanes, hottest first, and leave the
    /// concurrent lists.
    pub fn sweep<P: Probe>(&mut self, eng: &mut Engine<P>) {
        let pattern = eng.pattern_index;
        if self.cap == 0
            || !eng.drop_detected
            || pattern == 0
            || !pattern.is_multiple_of(PROMOTE_EVERY)
        {
            return;
        }
        let free = self.cap.saturating_sub(self.live_lanes());
        if free == 0 {
            return;
        }
        eng.probe.phase_start(Phase::Packed);
        let promoted = self.promote(eng, free);
        if P::ENABLED {
            let words = self.live_words() as u64;
            eng.probe.packed(promoted as u64, words, 0);
        }
        eng.probe.phase_end(Phase::Packed);
    }

    fn promote<P: Probe>(&mut self, eng: &mut Engine<P>, free: usize) -> usize {
        let num_faults = eng.net.descriptors.len();
        self.counts.clear();
        self.counts.resize(num_faults, 0);
        for n in 0..eng.net.num_nodes() {
            let good = eng.good[n];
            for (fid, v) in eng.arena.iter_list(eng.vis_head[n]) {
                if v != good {
                    self.counts[fid as usize] += 1;
                }
            }
        }
        let mut hot: Vec<u32> = (0..num_faults as u32)
            .filter(|&f| {
                let d = &eng.net.descriptors[f as usize];
                self.counts[f as usize] >= self.min_visible
                    && !d.is_detected()
                    && !d.untestable
                    && !self.holds(f)
            })
            .collect();
        if hot.is_empty() {
            return 0;
        }
        hot.sort_by_key(|&f| (std::cmp::Reverse(self.counts[f as usize]), f));
        hot.truncate(free);
        // A packed step costs about one pass over its words' shared cone
        // — at most the whole network — however many lanes it carries,
        // while list work grows with visible elements. So free lanes of
        // words already stepping take any candidate, but a new word opens
        // only when the candidates' visible elements outnumber the nodes.
        let open = self.live_words() * LANES - self.live_lanes();
        let visible: usize = hot.iter().map(|&f| self.counts[f as usize] as usize).sum();
        if hot.len() > open && visible < eng.net.num_nodes() {
            hot.truncate(open);
        }
        if hot.is_empty() {
            return 0;
        }
        hot.sort_unstable();
        self.activate(eng);

        // Words whose faults were all detected go; the rest keep their
        // order, so lane records are renumbered.
        self.words.retain(|w| w.live != 0);
        for (w, word) in self.words.iter().enumerate() {
            let mut live = word.live;
            while live != 0 {
                let lane = live.trailing_zeros() as usize;
                live &= live - 1;
                self.lane_of[word.faults[lane] as usize] = (w * LANES + lane) as u32;
            }
        }

        // Lanes: free lanes of existing words first, then new words.
        let num_dffs = eng.net.dff_nodes.len();
        let mut touched = vec![false; self.words.len()];
        let mut next = 0usize;
        for &fid in &hot {
            while next < self.words.len() * LANES
                && self.words[next / LANES].live >> (next % LANES) & 1 != 0
            {
                next += 1;
            }
            if next == self.words.len() * LANES {
                self.words.push(HotWord::new(num_dffs));
                touched.push(false);
            }
            let (w, lane) = (next / LANES, next % LANES);
            let word = &mut self.words[w];
            word.faults[lane] = fid;
            word.live |= 1u64 << lane;
            touched[w] = true;
            self.lane_of[fid as usize] = next as u32;
            // State hand-off: the good state, overridden below by the
            // fault's flip-flop elements.
            for (k, &q) in eng.net.dff_nodes.iter().enumerate() {
                word.state[k].set(lane, eng.good[q as usize]);
            }
            next += 1;
        }
        for (k, &q) in eng.net.dff_nodes.iter().enumerate() {
            let q = q as usize;
            for head in [eng.vis_head[q], eng.inv_head[q]] {
                for (fid, v) in eng.arena.iter_list(head) {
                    let lane = self.lane_of[fid as usize];
                    if lane != NO_LANE {
                        let lane = lane as usize;
                        self.words[lane / LANES].state[k].set(lane % LANES, v);
                    }
                }
            }
        }

        // Leave the lists. Survivors are copied out before the old run is
        // retired, so the live count never rises.
        let mut survivors = std::mem::take(&mut self.survivors);
        for n in 0..eng.net.num_nodes() {
            for visible in [true, false] {
                let head = if visible {
                    eng.vis_head[n]
                } else {
                    eng.inv_head[n]
                };
                survivors.clear();
                let mut len = 0;
                for (fid, v) in eng.arena.iter_list(head) {
                    len += 1;
                    if !self.holds(fid) {
                        survivors.push((fid, v));
                    }
                }
                if survivors.len() == len {
                    continue;
                }
                eng.arena.free_list(head);
                let mut b = ListBuilder::new();
                for &(fid, v) in &survivors {
                    b.push(&mut eng.arena, fid, v);
                }
                let head = b.finish(&mut eng.arena);
                if visible {
                    eng.vis_head[n] = head;
                } else {
                    eng.inv_head[n] = head;
                }
            }
        }
        self.survivors = survivors;
        let dff_ordinal = &self.scratch.as_ref().expect("activated").dff_ordinal;
        for (w, word) in self.words.iter_mut().enumerate() {
            if touched[w] {
                word.rebuild_injections(&eng.net, dff_ordinal);
            }
        }
        self.promoted += hot.len() as u64;
        hot.len()
    }

    /// Forces every lane's flip-flop state to a reset `state`, except
    /// where a stuck Q output holds its own value; a stuck D pin latches
    /// only at the next clock (mirrors [`Engine::set_dff_state`]).
    pub fn set_state(&mut self, state: &[Logic], net: &Network) {
        for word in &mut self.words {
            for (s, &v) in word.state.iter_mut().zip(state) {
                *s = PackedLogic::splat(v);
            }
            word.hold_stuck_outputs(net);
        }
    }

    /// Checks the lane laws: each live lane holds one live, promoted fault
    /// whose lane record points back at it, and a lane whose flip-flop
    /// output is stuck holds the stuck value. (That no promoted fault keeps
    /// a list element is checked by the engine's list sweep.)
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated law.
    pub fn assert_lane_laws(&self, net: &Network) {
        let mut held = 0usize;
        let dff_ordinal = self.scratch.as_ref().map_or(&[][..], |s| &s.dff_ordinal);
        for (w, word) in self.words.iter().enumerate() {
            let mut live = word.live;
            while live != 0 {
                let lane = live.trailing_zeros() as usize;
                live &= live - 1;
                let fid = word.faults[lane];
                let d = &net.descriptors[fid as usize];
                assert!(
                    !d.is_detected() && !d.untestable,
                    "word {w} lane {lane}: fault {fid} is not live"
                );
                assert_eq!(
                    self.lane_of[fid as usize] as usize,
                    w * LANES + lane,
                    "word {w} lane {lane}: fault {fid} is recorded in another lane"
                );
                if let (NodeKind::Dff, LocalEffect::OutputStuck(v)) =
                    (net.nodes[d.site as usize].kind, d.effect)
                {
                    let k = dff_ordinal[d.site as usize] as usize;
                    assert_eq!(
                        word.state[k].lane(lane),
                        v,
                        "word {w} lane {lane}: Q stuck-at fault {fid} lost its value"
                    );
                }
                held += 1;
            }
        }
        let recorded = self.lane_of.iter().filter(|&&l| l != NO_LANE).count();
        assert_eq!(recorded, held, "lane records and live lanes disagree");
    }

    /// Bytes owned by the hot machine, plus the plans it reads once active.
    pub fn memory_bytes(&self, net: &Network) -> usize {
        let Some(scratch) = &self.scratch else {
            return self.lane_of.capacity() * 4;
        };
        let per_word = std::mem::size_of::<HotWord>()
            + self.words.first().map_or(0, |w| {
                w.state.capacity() * std::mem::size_of::<PackedLogic>()
            });
        let injections: usize = self
            .words
            .iter()
            .map(|w| {
                w.sites.capacity() * std::mem::size_of::<(NodeId, PlanFault)>()
                    + w.inputs.capacity() * std::mem::size_of::<(NodeId, u64, Logic)>()
                    + w.latch.capacity() * std::mem::size_of::<(u32, u64, Logic)>()
            })
            .sum();
        self.words.len() * per_word
            + injections
            + scratch.memory_bytes()
            + (self.lane_of.capacity() + self.counts.capacity()) * 4
            + net.plans.memory_bytes()
    }

    /// The checkpointed part of the machine: the lane cap, the counters,
    /// and each word's lane faults (`u32::MAX` for a free lane) and
    /// flip-flop state.
    pub fn capture(&self) -> HotState {
        HotState {
            cap: self.cap as u64,
            promoted: self.promoted,
            evals: self.evals,
            words: self
                .words
                .iter()
                .map(|w| {
                    let faults = std::array::from_fn(|lane| {
                        if w.live >> lane & 1 != 0 {
                            w.faults[lane]
                        } else {
                            u32::MAX
                        }
                    });
                    (faults, w.state.iter().map(|s| s.planes()).collect())
                })
                .collect(),
        }
    }

    /// Replaces the lanes with a captured [`HotState`]. The caller has
    /// validated it against the network (fault ids in range, each live
    /// fault in at most one lane, one state word per flip-flop).
    pub fn restore<P: Probe>(&mut self, eng: &mut Engine<P>, st: &HotState) {
        self.promoted = st.promoted;
        self.evals = st.evals;
        self.words.clear();
        self.lane_of.fill(NO_LANE);
        if st.words.is_empty() {
            return;
        }
        self.activate(eng);
        let dff_ordinal = &self.scratch.as_ref().expect("activated").dff_ordinal;
        for (w, (faults, state)) in st.words.iter().enumerate() {
            let mut word = HotWord::new(0);
            for (lane, &fid) in faults.iter().enumerate() {
                if fid != u32::MAX {
                    word.faults[lane] = fid;
                    word.live |= 1u64 << lane;
                    self.lane_of[fid as usize] = (w * LANES + lane) as u32;
                }
            }
            word.state = state
                .iter()
                .map(|&(z, o)| PackedLogic::from_planes(z, o))
                .collect();
            word.rebuild_injections(&eng.net, dff_ordinal);
            self.words.push(word);
        }
    }
}

/// One captured word: the fault of each lane (`u32::MAX` when free) and
/// each flip-flop's `(zero, one)` planes.
pub(crate) type WordState = ([u32; LANES], Vec<(u64, u64)>);

/// The serializable state of a [`HotFaults`] machine (see
/// [`HotFaults::capture`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct HotState {
    pub cap: u64,
    pub promoted: u64,
    pub evals: u64,
    pub words: Vec<WordState>,
}
