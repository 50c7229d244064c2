//! Arbitrary-delay concurrent fault simulation — the general two-phase
//! scheme of §2 that makes the concurrent paradigm attractive in industry
//! ("the circuit gates may have arbitrary but known propagation delays").
//!
//! Events live in a timing queue; each event is a **list event**: the
//! complete next state of one gate — its good value plus the fault elements
//! whose values change with it — maturing after the gate's propagation
//! delay ("for unit delay simulation, one can use a list event to queue a
//! collection of faulty machine elements whose output values change at the
//! same time"). Phase 1 commits matured list events and collects affected
//! fanout gates; phase 2 evaluates those gates (good machine plus the
//! multi-list merge of faulty machines) and posts new list events.

use std::collections::BTreeMap;

use cfs_faults::{FaultSimReport, FaultSite, FaultStatus, StuckAt};
use cfs_goodsim::DelayModel;
use cfs_logic::Logic;
use cfs_netlist::{Circuit, GateId};

use crate::list::{Arena, ListBuilder, NIL, TERMINAL_FAULT};

/// A list event: the complete next state of one gate.
#[derive(Debug, Clone)]
struct ListEvent {
    node: u32,
    good: Logic,
    /// Full new fault list, ascending ids.
    elements: Vec<(u32, Logic)>,
}

#[derive(Debug, Clone, Copy)]
enum Effect {
    OutputStuck(Logic),
    PinStuck { pin: u8, value: Logic },
}

#[derive(Debug, Clone)]
struct DelayDescriptor {
    site: u32,
    effect: Effect,
    detected_at: Option<u64>,
}

/// Concurrent stuck-at fault simulator under per-gate transport delays.
///
/// Drive it like a testbench: [`DelayCsim::set_inputs`], advance time with
/// [`DelayCsim::run_until_quiet`], observe detections with
/// [`DelayCsim::strobe`], and clock the flip-flops with
/// [`DelayCsim::clock`].
///
/// # Examples
///
/// ```
/// use cfs_core::DelayCsim;
/// use cfs_faults::StuckAt;
/// use cfs_goodsim::DelayModel;
/// use cfs_logic::Logic;
/// use cfs_netlist::parse_bench;
///
/// let c = parse_bench("buf", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n")?;
/// let y = c.find("y").unwrap();
/// let mut sim = DelayCsim::new(&c, DelayModel::unit(&c), &[StuckAt::output(y, false)]);
/// sim.set_inputs(&[Logic::One]);
/// sim.run_until_quiet(100).expect("settles");
/// assert_eq!(sim.strobe(), vec![0], "y stuck-at-0 detected");
/// # Ok::<(), cfs_netlist::ParseBenchError>(())
/// ```
#[derive(Debug)]
pub struct DelayCsim<'c> {
    circuit: &'c Circuit,
    delays: DelayModel,
    arena: Arena,
    descriptors: Vec<DelayDescriptor>,
    /// Fault ids local to each node, ascending.
    locals: Vec<Vec<u32>>,

    /// Committed state (what downstream gates see *now*).
    good: Vec<Logic>,
    heads: Vec<u32>,
    /// Projected state (committed plus pending events), used to suppress
    /// duplicate events.
    proj_good: Vec<Logic>,
    proj_lists: Vec<Vec<(u32, Logic)>>,

    queue: BTreeMap<u64, Vec<ListEvent>>,
    now: u64,
    /// Gates awaiting phase-2 evaluation at the current time.
    pending_eval: Vec<GateId>,
    pending_flag: Vec<bool>,

    /// Global commit sequence: bumped once per committed state change.
    seq: u64,
    /// Sequence number of each node's last committed change (good value or
    /// list content). Starts above the `*_seen` stamps so the first strobe
    /// and clock always scan.
    commit_seq: Vec<u64>,
    /// Per primary output: `commit_seq` value at its last strobe scan. A
    /// strobe skips POs whose committed state is unchanged since then —
    /// any detectable element there was already marked at that scan.
    strobe_seen: Vec<u64>,
    /// Per flip-flop (indexed like `circuit.dffs()`): the largest
    /// `commit_seq` of its D driver and its own node at the last clock
    /// walk. The clock skips flip-flops where both are unchanged: the
    /// latched state is a pure function of the two committed lists, so the
    /// recomputation would reproduce the projection and post no event.
    clock_seen: Vec<u64>,

    /// List events processed.
    pub events: u64,
    /// Faulty machine evaluations.
    pub evaluations: u64,
    /// Strobe and clock walks skipped because the committed state of the
    /// scanned nodes had not changed since the previous walk.
    pub quiesce_skips: u64,
}

impl<'c> DelayCsim<'c> {
    /// Builds the simulator; every value starts at `X`, every fault gets a
    /// permanent local element (at `X`, or at its stuck value for a stuck
    /// primary-input or flip-flop output), and every gate is evaluated at
    /// time 0.
    pub fn new(circuit: &'c Circuit, delays: DelayModel, faults: &[StuckAt]) -> Self {
        let n = circuit.num_nodes();
        let mut locals: Vec<Vec<u32>> = vec![Vec::new(); n];
        let descriptors: Vec<DelayDescriptor> = faults
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let site = f.site.gate().index() as u32;
                locals[site as usize].push(i as u32);
                DelayDescriptor {
                    site,
                    effect: match f.site {
                        FaultSite::Output { .. } => Effect::OutputStuck(f.value()),
                        FaultSite::Pin { pin, .. } => Effect::PinStuck {
                            pin,
                            value: f.value(),
                        },
                    },
                    detected_at: None,
                }
            })
            .collect();
        let mut arena = Arena::new();
        let mut heads = vec![NIL; n];
        let mut proj_lists = vec![Vec::new(); n];
        for (ni, fids) in locals.iter().enumerate() {
            // A stuck primary-input or flip-flop output holds its stuck
            // value from the start; every other fault starts at X.
            let source = !circuit.gate(GateId::from_index(ni)).kind().is_comb();
            let mut b = ListBuilder::new();
            for &fid in fids {
                let v = match descriptors[fid as usize].effect {
                    Effect::OutputStuck(v) if source => v,
                    _ => Logic::X,
                };
                b.push(&mut arena, fid, v);
                proj_lists[ni].push((fid, v));
            }
            heads[ni] = b.finish(&mut arena);
        }
        let mut sim = DelayCsim {
            circuit,
            delays,
            arena,
            descriptors,
            locals,
            good: vec![Logic::X; n],
            heads,
            proj_good: vec![Logic::X; n],
            proj_lists,
            queue: BTreeMap::new(),
            now: 0,
            pending_eval: Vec::new(),
            pending_flag: vec![false; n],
            seq: 1,
            commit_seq: vec![1; n],
            strobe_seen: vec![0; circuit.num_outputs()],
            clock_seen: vec![0; circuit.dffs().len()],
            events: 0,
            evaluations: 0,
            quiesce_skips: 0,
        };
        for &g in circuit.topo_order() {
            sim.mark_pending(g);
        }
        sim
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The committed good-machine value of a node.
    pub fn value(&self, id: GateId) -> Logic {
        self.good[id.index()]
    }

    /// The committed value of one faulty machine at a node (the good value
    /// where the machine is not explicit).
    pub fn faulty_value(&self, id: GateId, fault: usize) -> Logic {
        let mut cur = self.heads[id.index()];
        loop {
            let f = self.arena.fault(cur);
            if f == fault as u32 {
                return self.arena.value(cur);
            }
            if f == TERMINAL_FAULT {
                return self.good[id.index()];
            }
            cur += 1;
        }
    }

    /// Records a committed state change at `id` (drives the strobe/clock
    /// change gating).
    fn stamp_commit(&mut self, id: GateId) {
        self.seq += 1;
        self.commit_seq[id.index()] = self.seq;
    }

    fn mark_pending(&mut self, g: GateId) {
        if self.circuit.gate(g).kind().is_comb() && !self.pending_flag[g.index()] {
            self.pending_flag[g.index()] = true;
            self.pending_eval.push(g);
        }
    }

    fn mark_fanouts_pending(&mut self, id: GateId) {
        for i in 0..self.circuit.gate(id).fanout().len() {
            let f = self.circuit.gate(id).fanout()[i];
            self.mark_pending(f);
        }
    }

    /// Drives the primary inputs at the current time (committed
    /// immediately, as input changes come from the testbench).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn set_inputs(&mut self, inputs: &[Logic]) {
        assert_eq!(inputs.len(), self.circuit.num_inputs(), "input width");
        for (k, &v) in inputs.iter().enumerate() {
            let pi = self.circuit.inputs()[k];
            let changed = self.good[pi.index()] != v;
            self.good[pi.index()] = v;
            self.proj_good[pi.index()] = v;
            // Refresh local (output-stuck) elements against the new value.
            let elements: Vec<(u32, Logic)> = self.locals[pi.index()]
                .iter()
                .map(|&fid| match self.descriptors[fid as usize].effect {
                    Effect::OutputStuck(s) => (fid, s),
                    Effect::PinStuck { .. } => unreachable!("PIs have no pins"),
                })
                .collect();
            let list_changed = self.commit_list(pi, &elements);
            // Primary inputs never have in-flight events, so their
            // projection tracks the committed state directly.
            self.proj_lists[pi.index()] = elements;
            if changed || list_changed {
                self.stamp_commit(pi);
                self.mark_fanouts_pending(pi);
            }
        }
    }

    /// Replaces a node's committed list; returns `true` on any change.
    ///
    /// Deliberately leaves the *projected* state alone: the projection is
    /// the latest **scheduled** state and is only written when an event is
    /// posted — a maturing event must not clobber the projection of a
    /// later event still in flight.
    fn commit_list(&mut self, id: GateId, elements: &[(u32, Logic)]) -> bool {
        // Cursor-walk comparison against the stored run: no allocation on
        // the (frequent) unchanged path.
        let mut cur = self.heads[id.index()];
        let mut unchanged = true;
        for &(fid, v) in elements {
            if self.arena.fault(cur) != fid || self.arena.value(cur) != v {
                unchanged = false;
                break;
            }
            cur += 1;
        }
        if unchanged && self.arena.fault(cur) == TERMINAL_FAULT {
            return false;
        }
        self.arena.free_list(self.heads[id.index()]);
        let mut b = ListBuilder::new();
        for &(fid, v) in elements {
            b.push(&mut self.arena, fid, v);
        }
        self.heads[id.index()] = b.finish(&mut self.arena);
        true
    }

    /// Phase 2: evaluates one gate against committed fanin state; posts a
    /// list event if the projected state changes.
    fn evaluate(&mut self, g: GateId) {
        let gate = self.circuit.gate(g);
        let f = gate.kind().gate_fn().expect("combinational");
        let sources: Vec<usize> = gate.fanin().iter().map(|s| s.index()).collect();
        let good_in: Vec<Logic> = sources.iter().map(|&s| self.good[s]).collect();
        let new_good = f.eval(&good_in);

        // Multi-list merge over committed fanin lists plus this node's own
        // committed list (for locals and convergence).
        let mut cursors: Vec<u32> = sources.iter().map(|&s| self.heads[s]).collect();
        let mut own = self.heads[g.index()];
        let mut new_elements: Vec<(u32, Logic)> = Vec::new();
        let mut faulty_in = good_in.clone();
        loop {
            let mut m = self.arena.fault(own);
            for &c in &cursors {
                m = m.min(self.arena.fault(c));
            }
            if m == TERMINAL_FAULT {
                break;
            }
            for (k, c) in cursors.iter_mut().enumerate() {
                if self.arena.fault(*c) == m {
                    faulty_in[k] = self.arena.value(*c);
                    *c = self.arena.next(*c);
                } else {
                    faulty_in[k] = good_in[k];
                }
            }
            if self.arena.fault(own) == m {
                own = self.arena.next(own);
            }
            let desc = &self.descriptors[m as usize];
            let is_local = desc.site == g.index() as u32;
            self.evaluations += 1;
            let new_val = if is_local {
                match desc.effect {
                    Effect::OutputStuck(v) => v,
                    Effect::PinStuck { pin, value } => {
                        faulty_in[pin as usize] = value;
                        f.eval(&faulty_in)
                    }
                }
            } else {
                f.eval(&faulty_in)
            };
            if new_val != new_good || is_local {
                new_elements.push((m, new_val));
            }
        }
        // Schedule only if the projected state changes.
        if new_good != self.proj_good[g.index()] || new_elements != self.proj_lists[g.index()] {
            self.proj_good[g.index()] = new_good;
            self.proj_lists[g.index()] = new_elements.clone();
            let t = self.now + u64::from(self.delays.of(g));
            self.queue.entry(t).or_default().push(ListEvent {
                node: g.index() as u32,
                good: new_good,
                elements: new_elements,
            });
        }
    }

    /// Runs phase 2 on everything pending at the current time.
    fn run_phase2(&mut self) {
        // Evaluate in level order for determinism (results are
        // order-independent because evaluation reads only committed state).
        let mut pending = std::mem::take(&mut self.pending_eval);
        pending.sort_by_key(|&g| (self.circuit.level(g), g));
        for g in &pending {
            self.pending_flag[g.index()] = false;
        }
        for g in pending {
            self.evaluate(g);
        }
    }

    /// Processes all events up to `max_time`; returns the time of the last
    /// activity, or `None` if events beyond `max_time` remain.
    pub fn run_until_quiet(&mut self, max_time: u64) -> Option<u64> {
        self.run_phase2();
        let mut last = self.now;
        while let Some((&t, _)) = self.queue.iter().next() {
            if t > max_time {
                return None;
            }
            self.now = t;
            let batch = self.queue.remove(&t).expect("key just observed");
            // Phase 1: commit matured list events.
            for ev in batch {
                self.events += 1;
                let id = GateId::from_index(ev.node as usize);
                let good_changed = self.good[id.index()] != ev.good;
                self.good[id.index()] = ev.good;
                let list_changed = self.commit_list(id, &ev.elements);
                if good_changed || list_changed {
                    self.stamp_commit(id);
                    self.mark_fanouts_pending(id);
                }
            }
            // Phase 2: evaluate affected gates, posting new events.
            self.run_phase2();
            last = t;
        }
        // Reclaim slots retired by the bump arena; only `heads` holds
        // element indices here (list events store values, not slots), so a
        // quiet point is safe.
        if self.arena.slack() > self.arena.live().max(4096) {
            let mut arrays = [&mut self.heads[..]];
            self.arena.compact(&mut arrays);
        }
        Some(last)
    }

    /// Samples the primary outputs: newly detected faults (committed faulty
    /// value opposite-binary to the good value) are marked and returned.
    pub fn strobe(&mut self) -> Vec<usize> {
        let mut found = Vec::new();
        for (oi, &po) in self.circuit.outputs().iter().enumerate() {
            // Unchanged committed state since the last strobe: every
            // detectable element here was already marked then — skip the
            // walk. Always sound, so the gate needs no opt-in.
            if self.commit_seq[po.index()] <= self.strobe_seen[oi] {
                self.quiesce_skips += 1;
                continue;
            }
            self.strobe_seen[oi] = self.commit_seq[po.index()];
            let good = self.good[po.index()];
            let mut cur = self.heads[po.index()];
            loop {
                let f = self.arena.fault(cur);
                if f == TERMINAL_FAULT {
                    break;
                }
                let fid = f as usize;
                let val = self.arena.value(cur);
                cur += 1;
                if self.descriptors[fid].detected_at.is_none() && val.detectably_differs(good) {
                    self.descriptors[fid].detected_at = Some(self.now);
                    found.push(fid);
                }
            }
        }
        found
    }

    /// Clocks every flip-flop: good and faulty D values (with local D/Q
    /// stuck effects) are latched and posted as list events after each
    /// flip-flop's clock-to-Q delay.
    pub fn clock(&mut self) {
        for qi in 0..self.circuit.dffs().len() {
            let q = self.circuit.dffs()[qi];
            let d = self.circuit.gate(q).fanin()[0];
            // The latched state is a pure function of the D driver's and
            // the flip-flop's own committed state; only this walk writes
            // the flip-flop's projection. With both unchanged since the
            // last walk, the recomputation would reproduce the projection
            // exactly and post no event — skip it. Always sound.
            let newest = self.commit_seq[d.index()].max(self.commit_seq[q.index()]);
            if newest <= self.clock_seen[qi] {
                self.quiesce_skips += 1;
                continue;
            }
            self.clock_seen[qi] = newest;
            let good_d = self.good[d.index()];
            // Merge driver list with the DFF's own (for old locals).
            let mut elements: Vec<(u32, Logic)> = Vec::new();
            let mut c_drv = self.heads[d.index()];
            let mut c_own = self.heads[q.index()];
            loop {
                let m = self.arena.fault(c_drv).min(self.arena.fault(c_own));
                if m == TERMINAL_FAULT {
                    break;
                }
                let mut faulty_d = good_d;
                if self.arena.fault(c_drv) == m {
                    faulty_d = self.arena.value(c_drv);
                    c_drv = self.arena.next(c_drv);
                }
                if self.arena.fault(c_own) == m {
                    c_own = self.arena.next(c_own);
                }
                let desc = &self.descriptors[m as usize];
                let is_local = desc.site == q.index() as u32;
                let faulty_q = if is_local {
                    match desc.effect {
                        Effect::OutputStuck(v) => v,
                        Effect::PinStuck { value, .. } => value,
                    }
                } else {
                    faulty_d
                };
                if faulty_q != good_d || is_local {
                    elements.push((m, faulty_q));
                }
            }
            if good_d != self.proj_good[q.index()] || elements != self.proj_lists[q.index()] {
                self.proj_good[q.index()] = good_d;
                self.proj_lists[q.index()] = elements.clone();
                let t = self.now + u64::from(self.delays.of(q));
                self.queue.entry(t).or_default().push(ListEvent {
                    node: q.index() as u32,
                    good: good_d,
                    elements,
                });
            }
        }
    }

    /// Per-fault statuses (detection time instead of pattern index).
    pub fn statuses(&self) -> Vec<FaultStatus> {
        self.descriptors
            .iter()
            .map(|d| match d.detected_at {
                Some(t) => FaultStatus::Detected {
                    pattern: t as usize,
                },
                None => FaultStatus::Undetected,
            })
            .collect()
    }

    /// Number of detected faults so far.
    pub fn detected(&self) -> usize {
        self.descriptors
            .iter()
            .filter(|d| d.detected_at.is_some())
            .count()
    }

    /// Peak live fault elements.
    pub fn peak_elements(&self) -> usize {
        self.arena.peak()
    }

    /// Builds a report after driving a vector sequence with a fixed clock
    /// period: per cycle, inputs are applied, the network settles within
    /// the period, outputs are strobed, and the flip-flops are clocked.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to settle within `period` (the delays
    /// are too long for the clock).
    pub fn run_clocked(&mut self, patterns: &[Vec<Logic>], period: u64) -> FaultSimReport {
        let start = std::time::Instant::now();
        for p in patterns {
            self.set_inputs(p);
            let deadline = self.now + period;
            self.run_until_quiet(deadline)
                .expect("network must settle within the clock period");
            self.strobe();
            self.clock();
            // Drain the clock-edge cascade completely before the next
            // cycle's inputs: the event queue must be empty before the
            // clock jumps forward, or stale snapshots scheduled under the
            // new time could commit after (and overwrite) the cascade's
            // re-evaluations.
            self.run_until_quiet(deadline + period)
                .expect("clock-to-Q cascade must settle within one period");
            self.now = self.now.max(deadline);
        }
        FaultSimReport {
            simulator: "csim-delay".to_owned(),
            circuit: self.circuit.name().to_owned(),
            patterns: patterns.len(),
            statuses: self.statuses(),
            cpu: start.elapsed(),
            memory_bytes: self.arena.peak() * Arena::ELEMENT_BYTES + self.descriptors.len() * 24,
            events: self.events,
            evaluations: self.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_netlist::parse_bench;
    use Logic::*;

    /// The eight-pattern s27 stimulus the clocked tests share.
    fn s27_patterns() -> Vec<Vec<Logic>> {
        [
            "0000", "1111", "0101", "1010", "0011", "1100", "0110", "1001",
        ]
        .iter()
        .map(|p| cfs_logic::parse_pattern(p).unwrap())
        .collect()
    }

    /// Runs the whole stuck-at universe clocked at `period` and asserts
    /// that it detects the same faults as zero-delay csim.
    fn assert_detects_like_csim<'c>(
        c: &'c Circuit,
        delays: DelayModel,
        patterns: &[Vec<Logic>],
        period: u64,
        variant: crate::CsimVariant,
    ) -> DelayCsim<'c> {
        let faults = cfs_faults::enumerate_stuck_at(c);
        let mut dsim = DelayCsim::new(c, delays, &faults);
        let dreport = dsim.run_clocked(patterns, period);
        let mut zsim = crate::ConcurrentSim::new(c, &faults, variant.options());
        let zreport = zsim.run(patterns);
        for (i, (a, b)) in dreport.statuses.iter().zip(&zreport.statuses).enumerate() {
            assert_eq!(
                a.is_detected(),
                b.is_detected(),
                "fault {i}: {}",
                faults[i].describe(c)
            );
        }
        dsim
    }

    #[test]
    fn full_universe_matches_zero_delay_on_s27() {
        // The interference regression: with the whole fault universe and
        // skewed per-gate delays, detection must match zero-delay csim.
        let c = cfs_netlist::data::s27();
        let delays = DelayModel::from_fn(&c, |id| 1 + (id.index() as u32 % 3));
        assert_detects_like_csim(&c, delays, &s27_patterns(), 1000, crate::CsimVariant::Base);
    }

    #[test]
    fn stuck_output_detected_after_delay() {
        let c = parse_bench("b", "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n").unwrap();
        let y = c.find("y").unwrap();
        let mut sim = DelayCsim::new(
            &c,
            DelayModel::from_fn(&c, |_| 3),
            &[StuckAt::output(y, true)],
        );
        sim.set_inputs(&[Zero]);
        let t = sim.run_until_quiet(100).unwrap();
        assert_eq!(t, 3, "buffer delay");
        assert_eq!(sim.value(y), Zero);
        assert_eq!(sim.faulty_value(y, 0), One);
        assert_eq!(sim.strobe(), vec![0]);
    }

    #[test]
    fn faulty_machine_glitches_differently() {
        // y = AND(a, n), n = NOT(a) with a slow inverter (delay 4, AND
        // delay 1): a rising edge on `a` at t0 makes the good y pulse high
        // from t0+1, while the AND still sees n = 1, until n falls at t0+4
        // and the AND follows at t0+5. With n stuck-at-0 the faulty y
        // stays 0 throughout: the fault *removes* the glitch, visible only
        // in delay simulation.
        let c = parse_bench("g", "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = AND(a, n)\n").unwrap();
        let n = c.find("n").unwrap();
        let y = c.find("y").unwrap();
        let delays = DelayModel::from_fn(&c, |id| if c.gate(id).name() == "n" { 4 } else { 1 });
        let mut sim = DelayCsim::new(&c, delays, &[StuckAt::output(n, false)]);
        sim.set_inputs(&[Zero]);
        let t0 = sim.run_until_quiet(100).unwrap();
        sim.set_inputs(&[One]);
        for t in t0..=t0 + 10 {
            let at = t - t0;
            assert_eq!(sim.run_until_quiet(t).is_some(), at >= 5, "t0+{at}");
            let good = if (1..=4).contains(&at) { One } else { Zero };
            assert_eq!(sim.value(y), good, "good y at t0+{at}");
            assert_eq!(sim.faulty_value(y, 0), Zero, "faulty y at t0+{at}");
        }
    }

    #[test]
    fn static_hazard_produces_a_glitch() {
        // y = OR(a, NOT(a)) is constant 1 in zero-delay logic. With a slow
        // inverter (delay 5, OR delay 1) a falling edge on `a` at t1 pulls
        // y to 0 from t1+1 until the inverter rises at t1+5 and the OR
        // follows at t1+6. No faults: DelayCsim as a good machine.
        let c = parse_bench("hz", "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n)\n").unwrap();
        let y = c.find("y").unwrap();
        let delays = DelayModel::from_fn(&c, |id| if c.gate(id).name() == "n" { 5 } else { 1 });
        let mut sim = DelayCsim::new(&c, delays, &[]);
        sim.set_inputs(&[One]);
        let t1 = sim.run_until_quiet(100).unwrap();
        assert_eq!(sim.value(y), One);
        sim.set_inputs(&[Zero]);
        for t in t1..=t1 + 10 {
            let at = t - t1;
            assert_eq!(sim.run_until_quiet(t).is_some(), at >= 6, "t1+{at}");
            let expected = if (1..=5).contains(&at) { Zero } else { One };
            assert_eq!(sim.value(y), expected, "y at t1+{at}");
        }
    }

    #[test]
    fn zero_delay_gates_are_legal() {
        // A delay of 0 matures in the time step that posted the event: a
        // zero-delay chain settles at t = 0.
        let c = parse_bench("z", "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\ny = NOT(n)\n").unwrap();
        let mut sim = DelayCsim::new(&c, DelayModel::from_fn(&c, |_| 0), &[]);
        sim.set_inputs(&[One]);
        assert_eq!(sim.run_until_quiet(10), Some(0));
        assert_eq!(sim.value(c.find("n").unwrap()), Zero);
        assert_eq!(sim.value(c.find("y").unwrap()), One);
        // Delays alternating 0/1, flip-flops included, under a clock.
        let c = cfs_netlist::data::s27();
        let delays = DelayModel::from_fn(&c, |id| id.index() as u32 % 2);
        assert_detects_like_csim(&c, delays, &s27_patterns(), 1000, crate::CsimVariant::Base);
    }

    #[test]
    fn clocked_operation_matches_zero_delay_detection() {
        // With delays short relative to the clock period, the delay-mode
        // concurrent simulator detects exactly what the zero-delay csim
        // detects.
        let c = cfs_netlist::data::s27();
        let delays = DelayModel::from_fn(&c, |id| 1 + (id.index() as u32 % 3));
        assert_detects_like_csim(&c, delays, &s27_patterns(), 1000, crate::CsimVariant::V);
    }

    #[test]
    fn quiescent_cycles_skip_strobe_and_clock_walks() {
        // Constant stimulus: after the first cycle settles, nothing commits
        // again, so every later strobe/clock walk is skipped — with
        // detections identical to the zero-delay reference.
        let c = cfs_netlist::data::s27();
        let patterns: Vec<Vec<Logic>> =
            std::iter::repeat_n(cfs_logic::parse_pattern("1010").unwrap(), 10).collect();
        let dsim = assert_detects_like_csim(
            &c,
            DelayModel::unit(&c),
            &patterns,
            1000,
            crate::CsimVariant::Base,
        );
        assert!(
            dsim.quiesce_skips > 0,
            "held stimulus must engage the change gate"
        );
    }

    #[test]
    fn run_clocked_on_generated_circuit() {
        let spec = cfs_netlist::CircuitSpec::new("dly", 4, 3, 5, 40, 77);
        let c = cfs_netlist::generate::generate(&spec);
        let patterns: Vec<Vec<Logic>> = (0..20)
            .map(|i| {
                (0..c.num_inputs())
                    .map(|k| Logic::from_bool((i * 3 + k) % 4 < 2))
                    .collect()
            })
            .collect();
        let delays = DelayModel::from_fn(&c, |id| 1 + (id.index() as u32 % 5));
        let dsim =
            assert_detects_like_csim(&c, delays, &patterns, 10_000, crate::CsimVariant::Base);
        assert!(dsim.peak_elements() > 0);
    }
}
