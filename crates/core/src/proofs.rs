//! A PROOFS-style fault simulator (Niermann, Cheng, Patel, DAC 1990) — the
//! comparator of the paper's Tables 3–5.
//!
//! PROOFS simulates faulty machines in parallel, one fault per bit of a
//! machine word, with single-fault propagation: each cycle the undetected
//! faults are grouped into words, each group's faulty machines are seeded
//! from their fault sites and their stored flip-flop state *differences*
//! (memory-efficient differential state storage), propagated event-driven
//! through the settled good machine, detected at the primary outputs, and
//! their new state differences recorded. Detected faults are dropped from
//! all later groups.
//!
//! PROOFS had no macro cells, so it runs on the compiled gate network: a
//! fault-free [`Engine`] settles each pattern's good values, and each
//! group goes through [`step_words`], the packed step the hot-fault words
//! of the concurrent engine run (see [`crate::hot`]).

use std::time::Instant;

use cfs_faults::{FaultSimReport, FaultStatus, StuckAt};
use cfs_logic::{Logic, PackedLogic, LANES};
use cfs_netlist::Circuit;
use cfs_telemetry::NullProbe;

use crate::engine::Engine;
use crate::hot::{step_words, HotWord, PackedScratch};
use crate::network::{build_gate_network, FaultSpec, Network, NodeId};

/// The PROOFS-style bit-parallel single-fault-propagation simulator.
///
/// # Examples
///
/// ```
/// use cfs_core::ProofsSim;
/// use cfs_faults::enumerate_stuck_at;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = enumerate_stuck_at(&circuit);
/// let mut sim = ProofsSim::new(&circuit, &faults);
/// let report = sim.run(&[parse_pattern("0101")?, parse_pattern("1010")?]);
/// assert_eq!(report.total_faults(), faults.len());
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub struct ProofsSim<'c> {
    circuit: &'c Circuit,
    /// The gate network with every fault's descriptor; detections are
    /// recorded there.
    net: Network,
    /// The fault-free good machine.
    good: Engine,
    /// Per-fault flip-flop state differences `(dff ordinal, faulty value)`.
    state_diffs: Vec<Vec<(u32, Logic)>>,
    /// Total state-difference entries now.
    diffs: usize,
    /// The word each group is simulated in.
    word: HotWord,
    scratch: PackedScratch,
    hits: Vec<(u32, NodeId)>,
    pattern_index: u32,
    /// Peak total state-difference entries (memory model).
    peak_diffs: usize,
    /// Packed node evaluations, one word each.
    pub evaluations: u64,
    /// Node activations: the good machine's plus [`Self::evaluations`].
    pub events: u64,
}

impl<'c> ProofsSim<'c> {
    /// Creates a simulator over the given fault universe.
    pub fn new(circuit: &'c Circuit, faults: &[StuckAt]) -> Self {
        let specs: Vec<FaultSpec> = faults.iter().copied().map(FaultSpec::Stuck).collect();
        let mut net = build_gate_network(circuit, &specs);
        net.ensure_plans();
        let good = Engine::with_probe(net.fault_free(), false, true, NullProbe);
        ProofsSim {
            circuit,
            good,
            state_diffs: vec![Vec::new(); faults.len()],
            diffs: 0,
            word: HotWord::new(net.dff_nodes.len()),
            scratch: PackedScratch::new(&net),
            hits: Vec::new(),
            net,
            pattern_index: 0,
            peak_diffs: 0,
            evaluations: 0,
            events: 0,
        }
    }

    /// Forces the good-machine flip-flop state; all faulty state diffs are
    /// cleared (a reset overrides every machine).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_state(&mut self, state: &[Logic]) {
        self.good.set_dff_state(state);
        for d in &mut self.state_diffs {
            d.clear();
        }
        self.diffs = 0;
    }

    /// Simulates one clock cycle for all undetected faults. Returns the
    /// indices of faults first detected this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step(&mut self, inputs: &[Logic]) -> Vec<usize> {
        let good = self.good.good_cycle(inputs);
        // Group undetected faults into words (regrouped every pattern, so
        // dropped faults cost nothing).
        let live: Vec<u32> = (0..self.net.descriptors.len() as u32)
            .filter(|&f| !self.net.descriptors[f as usize].is_detected())
            .collect();
        let mut newly_detected = Vec::new();
        for group in live.chunks(LANES) {
            self.simulate_group(group, &good, &mut newly_detected);
        }
        self.events = self.good.events + self.evaluations;
        self.peak_diffs = self.peak_diffs.max(self.diffs);
        self.pattern_index += 1;
        newly_detected
    }

    fn simulate_group(&mut self, group: &[u32], good: &[Logic], newly_detected: &mut Vec<usize>) {
        let net = &self.net;
        let word = &mut self.word;
        word.live = 0;
        for (lane, &fid) in group.iter().enumerate() {
            word.faults[lane] = fid;
            word.live |= 1u64 << lane;
        }
        // Each lane's flip-flop state: the good state with the fault's
        // stored differences applied.
        for (s, &q) in word.state.iter_mut().zip(&net.dff_nodes) {
            *s = PackedLogic::splat(good[q as usize]);
        }
        for (lane, &fid) in group.iter().enumerate() {
            for &(k, v) in &self.state_diffs[fid as usize] {
                word.state[k as usize].set(lane, v);
            }
        }
        word.rebuild_injections(net, &self.scratch.dff_ordinal);
        word.hold_stuck_outputs(net);

        self.evaluations += step_words(
            net,
            good,
            std::slice::from_mut(word),
            &mut self.scratch,
            &mut self.hits,
        );

        // The latched state back to differences against the new good
        // state (the D drivers' settled values); detected lanes left
        // `live`, so dropped faults keep none.
        for &fid in group {
            self.diffs -= self.state_diffs[fid as usize].len();
            self.state_diffs[fid as usize].clear();
        }
        for (k, (&w, &q)) in word.state.iter().zip(&net.dff_nodes).enumerate() {
            let d = net.sources_of(q)[0];
            let mut mask = w.diff_mask(PackedLogic::splat(good[d as usize])) & word.live;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.state_diffs[group[lane] as usize].push((k as u32, w.lane(lane)));
                self.diffs += 1;
            }
        }
        for &(fid, _) in &self.hits {
            self.net.descriptors[fid as usize].detected_at = Some(self.pattern_index);
            newly_detected.push(fid as usize);
        }
    }

    /// Runs a pattern sequence and assembles the report.
    pub fn run(&mut self, patterns: &[Vec<Logic>]) -> FaultSimReport {
        let start = Instant::now();
        for p in patterns {
            self.step(p);
        }
        FaultSimReport {
            simulator: "proofs".to_owned(),
            circuit: self.circuit.name().to_owned(),
            patterns: patterns.len(),
            statuses: self.statuses(),
            cpu: start.elapsed(),
            memory_bytes: self.memory_bytes(),
            events: self.events,
            evaluations: self.evaluations,
        }
    }

    /// Per-fault statuses, aligned with the fault list.
    pub fn statuses(&self) -> Vec<FaultStatus> {
        self.net
            .descriptors
            .iter()
            .map(|d| match d.detected_at {
                Some(p) => FaultStatus::Detected {
                    pattern: p as usize,
                },
                None => FaultStatus::Undetected,
            })
            .collect()
    }

    /// PROOFS memory model: two word-planes per node, the fault list, and
    /// the peak differential state storage.
    pub fn memory_bytes(&self) -> usize {
        self.circuit.num_nodes() * std::mem::size_of::<PackedLogic>() * 2
            + self.net.descriptors.len() * 16
            + self.peak_diffs * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_baselines::SerialSim;
    use cfs_faults::enumerate_stuck_at;
    use cfs_logic::parse_pattern;
    use cfs_netlist::data::s27;

    fn patterns(specs: &[&str]) -> Vec<Vec<Logic>> {
        specs.iter().map(|p| parse_pattern(p).unwrap()).collect()
    }

    #[test]
    fn matches_serial_on_s27() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let pats = patterns(&[
            "0000", "1111", "0101", "1010", "0011", "1100", "0110", "1001", "0111", "1000",
        ]);
        let serial = SerialSim::new(&c, &faults).run(&pats);
        let mut proofs = ProofsSim::new(&c, &faults);
        let pr = proofs.run(&pats);
        for (i, (a, b)) in serial.statuses.iter().zip(&pr.statuses).enumerate() {
            assert_eq!(a, b, "fault {i}: {}", faults[i].describe(&c));
        }
    }

    #[test]
    fn group_boundaries_do_not_matter() {
        // More faults than one word: s27's universe is 98 > 64, so this
        // exercises multi-group handling.
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        assert!(faults.len() > LANES);
        let pats = patterns(&["0101", "1010", "0000", "1111"]);
        let mut sim = ProofsSim::new(&c, &faults);
        let report = sim.run(&pats);
        assert!(report.detected() > 0);
    }

    #[test]
    fn reset_state_is_respected() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let pats = patterns(&["0000", "0110"]);
        let serial = SerialSim::new(&c, &faults)
            .with_reset_state(vec![Logic::Zero; 3])
            .run(&pats);
        let mut proofs = ProofsSim::new(&c, &faults);
        proofs.set_state(&[Logic::Zero; 3]);
        let pr = proofs.run(&pats);
        for (i, (a, b)) in serial.statuses.iter().zip(&pr.statuses).enumerate() {
            assert_eq!(a, b, "fault {i}: {}", faults[i].describe(&c));
        }
    }
}
