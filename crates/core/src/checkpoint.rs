//! Pattern-granular checkpointing of the concurrent engine.
//!
//! A [`Checkpoint`] captures everything a simulation carries across a
//! pattern boundary: flip-flop/good-machine values, every node's fault
//! lists, per-fault detection state, the transition model's previous pin
//! values, the scheduler's pending set (non-empty at boundaries — the
//! latch commit schedules the new state's fanout cone for the next
//! pattern), and the headline counters. Restoring into a freshly built,
//! identically configured simulator reproduces the cold run bit-for-bit
//! from that pattern on: the live-element trajectory after the boundary
//! is a pure function of the restored state, so detections, events, and
//! evaluation counts all match.
//!
//! A stuck-at checkpoint also carries the hot-fault words (see
//! [`crate::hot`]): the lane cap, each word's lane faults and flip-flop
//! state, and the packed-machine counters. Promotion sweeps run at fixed
//! pattern indices, so a resumed run promotes exactly as the cold one.
//!
//! The per-node evaluation stamps that drive the transition release pass
//! are not stored: the release pass only compares a stamp with the
//! current pattern index, and every stamp left at a boundary is from an
//! earlier pattern, so a zeroed stamp vector makes the same decisions.
//!
//! Serialization is a hand-rolled versioned little-endian binary format
//! (the workspace builds without crates.io access, so no serde): magic
//! `CFSK`, a version word, a configuration fingerprint that
//! [`Checkpoint::restore_into`] validates against the target engine, then
//! the state arrays.

use cfs_logic::Logic;
use cfs_telemetry::Probe;

use crate::engine::Engine;
use crate::hot::HotState;
use crate::list::{Arena, ListBuilder};
use crate::network::NodeId;

/// Which simulator model produced a checkpoint. Stuck-at and transition
/// engines share state layout but interpret it differently (`prev_pin` is
/// live only for transitions), so cross-model restores are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Stuck-at simulation ([`crate::ConcurrentSim`]).
    Stuck,
    /// Transition-fault simulation ([`crate::TransitionSim`]).
    Transition,
}

impl Model {
    fn code(self) -> u8 {
        match self {
            Model::Stuck => 0,
            Model::Transition => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, CheckpointError> {
        match code {
            0 => Ok(Model::Stuck),
            1 => Ok(Model::Transition),
            c => Err(CheckpointError::corrupt(format!("unknown model code {c}"))),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Model::Stuck => "stuck",
            Model::Transition => "transition",
        }
    }
}

/// Why a checkpoint could not be restored or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint's configuration fingerprint does not match the
    /// target simulator (different circuit, fault universe, or options).
    Mismatch {
        /// Which configuration field disagreed.
        field: &'static str,
        /// The target simulator's value.
        expected: String,
        /// The checkpoint's value.
        found: String,
    },
    /// The byte stream is not a valid checkpoint (bad magic, unsupported
    /// version, truncation, or out-of-range values).
    Corrupt(String),
}

impl CheckpointError {
    fn corrupt(msg: impl Into<String>) -> Self {
        CheckpointError::Corrupt(msg.into())
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this simulator: {field} is \
                 {found} in the checkpoint but {expected} here"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "invalid checkpoint data: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Sentinel for "not yet detected" in the serialized detection table.
const UNDETECTED: u32 = u32::MAX;

const MAGIC: [u8; 4] = *b"CFSK";
const VERSION: u32 = 3;

/// A complete pattern-boundary snapshot of one engine's simulation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    model: Model,
    num_nodes: u32,
    num_faults: u32,
    split: bool,
    drop_detected: bool,

    pattern_index: u32,
    events: u64,
    good_evals: u64,
    fault_evals: u64,
    peak_elements: u64,

    /// Good-machine value per node, as [`Logic::code`] bytes.
    good: Vec<u8>,
    /// Previous settled faulty pin value per fault (transition model).
    prev_pin: Vec<u8>,
    /// First-detection pattern per fault; [`UNDETECTED`] when still live.
    detected_at: Vec<u32>,
    /// Visible fault list per node: ascending `(fault, value-code)` pairs.
    vis: Vec<Vec<(u32, u8)>>,
    /// Invisible fault list per node (split mode only).
    inv: Vec<Vec<(u32, u8)>>,
    /// Scheduler worklist: node ids pending for the next pattern.
    pending: Vec<NodeId>,
    /// Flip-flop count (sizes the hot-fault words' state).
    num_dffs: u32,
    /// The hot-fault words (none for a lane cap of 0).
    hot: HotState,
}

impl Checkpoint {
    /// The pattern index the checkpoint was captured at (patterns already
    /// simulated; the resumed run starts with this pattern).
    pub fn pattern_index(&self) -> u32 {
        self.pattern_index
    }

    /// Which simulator model captured this checkpoint.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Captures `engine`'s full state. Must be called at a pattern
    /// boundary (between steps).
    pub(crate) fn capture<P: Probe>(engine: &Engine<P>, model: Model) -> Checkpoint {
        let n = engine.net.num_nodes();
        let dump = |head: u32| -> Vec<(u32, u8)> {
            engine
                .arena
                .iter_list(head)
                .map(|(fid, v)| (fid, v.code()))
                .collect()
        };
        Checkpoint {
            model,
            num_nodes: n as u32,
            num_faults: engine.net.descriptors.len() as u32,
            split: engine.split,
            drop_detected: engine.drop_detected,
            pattern_index: engine.pattern_index,
            events: engine.events,
            good_evals: engine.good_evals,
            fault_evals: engine.fault_evals,
            peak_elements: engine.arena.peak() as u64,
            good: engine.good.iter().map(|v| v.code()).collect(),
            prev_pin: engine.prev_pin.iter().map(|v| v.code()).collect(),
            detected_at: engine
                .net
                .descriptors
                .iter()
                .map(|d| d.detected_at.unwrap_or(UNDETECTED))
                .collect(),
            vis: (0..n).map(|ni| dump(engine.vis_head[ni])).collect(),
            inv: (0..n).map(|ni| dump(engine.inv_head[ni])).collect(),
            pending: engine.sched.pending_nodes(),
            num_dffs: engine.net.dff_nodes.len() as u32,
            hot: engine.hot.capture(),
        }
    }

    /// Overwrites `engine`'s state with the checkpoint's, after validating
    /// that the engine was built with the same configuration.
    pub(crate) fn restore_into<P: Probe>(
        &self,
        engine: &mut Engine<P>,
        model: Model,
    ) -> Result<(), CheckpointError> {
        let check = |field: &'static str, expected: String, found: String| {
            if expected == found {
                Ok(())
            } else {
                Err(CheckpointError::Mismatch {
                    field,
                    expected,
                    found,
                })
            }
        };
        check("model", model.name().into(), self.model.name().into())?;
        check(
            "node count",
            engine.net.num_nodes().to_string(),
            self.num_nodes.to_string(),
        )?;
        check(
            "fault count",
            engine.net.descriptors.len().to_string(),
            self.num_faults.to_string(),
        )?;
        check(
            "visible/invisible split",
            engine.split.to_string(),
            self.split.to_string(),
        )?;
        check(
            "fault dropping",
            engine.drop_detected.to_string(),
            self.drop_detected.to_string(),
        )?;
        check(
            "flip-flop count",
            engine.net.dff_nodes.len().to_string(),
            self.num_dffs.to_string(),
        )?;
        check(
            "hot-fault lane cap",
            engine.hot.cap.to_string(),
            self.hot.cap.to_string(),
        )?;
        let mut laned = vec![false; self.num_faults as usize];
        for (faults, _) in &self.hot.words {
            for &fid in faults.iter().filter(|&&f| f != u32::MAX) {
                let d = &engine.net.descriptors[fid as usize];
                if std::mem::replace(&mut laned[fid as usize], true)
                    || self.detected_at[fid as usize] != UNDETECTED
                    || d.untestable
                {
                    return Err(CheckpointError::corrupt(format!(
                        "fault {fid} cannot hold a hot-fault lane"
                    )));
                }
            }
        }
        let n = self.num_nodes as usize;
        for (ni, list) in self.inv.iter().enumerate() {
            if !self.split && !list.is_empty() {
                return Err(CheckpointError::corrupt(format!(
                    "node {ni} has an invisible list in combined mode"
                )));
            }
        }
        // Rebuild every fault list in a fresh arena (contiguous runs, one
        // open builder at a time), then carry the captured peak forward so
        // the resumed run reports the same high-water mark as the cold one.
        let mut arena = Arena::new();
        for ni in 0..n {
            let mut b = ListBuilder::new();
            for &(fid, code) in &self.vis[ni] {
                b.push(&mut arena, fid, decode_logic(code)?);
            }
            engine.vis_head[ni] = b.finish(&mut arena);
            let mut b = ListBuilder::new();
            for &(fid, code) in &self.inv[ni] {
                b.push(&mut arena, fid, decode_logic(code)?);
            }
            engine.inv_head[ni] = b.finish(&mut arena);
        }
        arena.raise_peak(self.peak_elements as usize);
        engine.arena = arena;
        for (g, &code) in engine.good.iter_mut().zip(self.good.iter()) {
            *g = decode_logic(code)?;
        }
        for (p, &code) in engine.prev_pin.iter_mut().zip(self.prev_pin.iter()) {
            *p = decode_logic(code)?;
        }
        for (d, &at) in engine
            .net
            .descriptors
            .iter_mut()
            .zip(self.detected_at.iter())
        {
            d.detected_at = if at == UNDETECTED { None } else { Some(at) };
        }
        engine.pattern_index = self.pattern_index;
        engine.events = self.events;
        engine.good_evals = self.good_evals;
        engine.fault_evals = self.fault_evals;
        engine.last_eval.fill(0);
        engine.transition_hold = false;
        engine.sched.clear();
        for &node in &self.pending {
            if node as usize >= n {
                return Err(CheckpointError::corrupt(format!(
                    "pending node {node} out of range (< {n})"
                )));
            }
            engine.sched.schedule(node);
        }
        let mut hot = std::mem::take(&mut engine.hot);
        hot.restore(engine, &self.hot);
        engine.hot = hot;
        Ok(())
    }

    /// Serializes the checkpoint into the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        out.push(self.model.code());
        out.push(u8::from(self.split));
        out.push(u8::from(self.drop_detected));
        out.push(0); // reserved
        put_u32(&mut out, self.num_nodes);
        put_u32(&mut out, self.num_faults);
        put_u32(&mut out, self.pattern_index);
        put_u64(&mut out, self.events);
        put_u64(&mut out, self.good_evals);
        put_u64(&mut out, self.fault_evals);
        put_u64(&mut out, self.peak_elements);
        out.extend_from_slice(&self.good);
        out.extend_from_slice(&self.prev_pin);
        for &at in &self.detected_at {
            put_u32(&mut out, at);
        }
        for ni in 0..self.num_nodes as usize {
            for list in [&self.vis[ni], &self.inv[ni]] {
                put_u32(&mut out, list.len() as u32);
                for &(fid, code) in list {
                    put_u32(&mut out, fid);
                    out.push(code);
                }
            }
        }
        put_u32(&mut out, self.pending.len() as u32);
        for &node in &self.pending {
            put_u32(&mut out, node);
        }
        put_u32(&mut out, self.num_dffs);
        put_u64(&mut out, self.hot.cap);
        put_u64(&mut out, self.hot.promoted);
        put_u64(&mut out, self.hot.evals);
        put_u32(&mut out, self.hot.words.len() as u32);
        for (faults, state) in &self.hot.words {
            for &fid in faults {
                put_u32(&mut out, fid);
            }
            for &(zero, one) in state {
                put_u64(&mut out, zero);
                put_u64(&mut out, one);
            }
        }
        out
    }

    /// Decodes a checkpoint, validating structure and value ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] on bad magic, an unsupported
    /// version, truncation, trailing bytes, or out-of-range values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(CheckpointError::corrupt("bad magic (not a checkpoint)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::corrupt(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let model = Model::from_code(r.u8()?)?;
        let split = r.u8()? != 0;
        let drop_detected = r.u8()? != 0;
        let _reserved = r.u8()?;
        let num_nodes = r.u32()?;
        let num_faults = r.u32()?;
        let pattern_index = r.u32()?;
        let events = r.u64()?;
        let good_evals = r.u64()?;
        let fault_evals = r.u64()?;
        let peak_elements = r.u64()?;
        let n = num_nodes as usize;
        let nf = num_faults as usize;
        let good = r.logic_bytes(n)?;
        let prev_pin = r.logic_bytes(nf)?;
        let detected_at = r.u32_vec(nf)?;
        let mut vis = Vec::with_capacity(n);
        let mut inv = Vec::with_capacity(n);
        for _ in 0..n {
            vis.push(r.list(nf)?);
            inv.push(r.list(nf)?);
        }
        let pending_len = r.u32()? as usize;
        let mut pending = Vec::with_capacity(pending_len.min(n));
        for _ in 0..pending_len {
            let node = r.u32()?;
            if node as usize >= n {
                return Err(CheckpointError::corrupt(format!(
                    "pending node {node} out of range (< {n})"
                )));
            }
            pending.push(node);
        }
        let num_dffs = r.u32()?;
        if num_dffs > num_nodes {
            return Err(CheckpointError::corrupt(format!(
                "{num_dffs} flip-flops in {num_nodes} nodes"
            )));
        }
        let cap = r.u64()?;
        let promoted = r.u64()?;
        let evals = r.u64()?;
        let num_words = r.u32()? as usize;
        if num_words > nf || num_words as u64 > cap.div_ceil(64) {
            return Err(CheckpointError::corrupt(format!(
                "{num_words} hot-fault words for {nf} faults and a cap of {cap} lanes"
            )));
        }
        let mut words = Vec::with_capacity(num_words);
        for _ in 0..num_words {
            let mut faults = [0u32; cfs_logic::LANES];
            for f in &mut faults {
                *f = r.u32()?;
                if *f != u32::MAX && *f as usize >= nf {
                    return Err(CheckpointError::corrupt(format!(
                        "hot-fault lane holds fault {f} (< {nf})"
                    )));
                }
            }
            let mut state = Vec::with_capacity(num_dffs as usize);
            for _ in 0..num_dffs {
                let (zero, one) = (r.u64()?, r.u64()?);
                if zero | one != u64::MAX {
                    return Err(CheckpointError::corrupt(
                        "hot-fault state lane holds no value",
                    ));
                }
                state.push((zero, one));
            }
            words.push((faults, state));
        }
        if r.pos != bytes.len() {
            return Err(CheckpointError::corrupt(format!(
                "{} trailing bytes",
                bytes.len() - r.pos
            )));
        }
        Ok(Checkpoint {
            model,
            num_nodes,
            num_faults,
            split,
            drop_detected,
            pattern_index,
            events,
            good_evals,
            fault_evals,
            peak_elements,
            good,
            prev_pin,
            detected_at,
            vis,
            inv,
            pending,
            num_dffs,
            hot: HotState {
                cap,
                promoted,
                evals,
                words,
            },
        })
    }
}

fn decode_logic(code: u8) -> Result<Logic, CheckpointError> {
    if code > 2 {
        return Err(CheckpointError::corrupt(format!(
            "logic code {code} out of range"
        )));
    }
    Ok(Logic::from_code(code))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + len > self.bytes.len() {
            return Err(CheckpointError::corrupt("truncated checkpoint"));
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn logic_bytes(&mut self, len: usize) -> Result<Vec<u8>, CheckpointError> {
        let s = self.take(len)?;
        if let Some(&bad) = s.iter().find(|&&c| c > 2) {
            return Err(CheckpointError::corrupt(format!(
                "logic code {bad} out of range"
            )));
        }
        Ok(s.to_vec())
    }

    fn u32_vec(&mut self, len: usize) -> Result<Vec<u32>, CheckpointError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// One fault list: ascending unique fault ids below `num_faults`,
    /// valid logic codes.
    fn list(&mut self, num_faults: usize) -> Result<Vec<(u32, u8)>, CheckpointError> {
        let len = self.u32()? as usize;
        if len > num_faults {
            return Err(CheckpointError::corrupt(format!(
                "list of {len} elements exceeds the fault universe ({num_faults})"
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut prev: Option<u32> = None;
        for _ in 0..len {
            let fid = self.u32()?;
            let code = self.u8()?;
            if fid as usize >= num_faults {
                return Err(CheckpointError::corrupt(format!(
                    "fault id {fid} out of range (< {num_faults})"
                )));
            }
            if let Some(p) = prev {
                if fid <= p {
                    return Err(CheckpointError::corrupt(format!(
                        "fault list not ascending: {fid} after {p}"
                    )));
                }
            }
            if code > 2 {
                return Err(CheckpointError::corrupt(format!(
                    "logic code {code} out of range"
                )));
            }
            prev = Some(fid);
            out.push((fid, code));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::FaultMachine;
    use crate::stuck::{ConcurrentSim, CsimVariant};
    use crate::transition::{TransitionOptions, TransitionSim};
    use cfs_faults::{collapse_stuck_at, enumerate_transition};
    use cfs_logic::Logic;
    use cfs_netlist::data::s27;
    use cfs_netlist::Circuit;
    use cfs_telemetry::NullProbe;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn patterns(n: usize) -> Vec<Vec<Logic>> {
        // Deterministic 4-bit stimulus for s27.
        (0..n)
            .map(|i| {
                (0..4)
                    .map(|b| Logic::from_bool((i * 7 + 3) >> b & 1 == 1))
                    .collect()
            })
            .collect()
    }

    /// Random s27 vectors, each held for `hold` consecutive cycles, so the
    /// circuit settles between bursts and a cut often lands mid-hold.
    fn hold_patterns(bursts: usize, hold: usize, seed: u64) -> Vec<Vec<Logic>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(bursts * hold);
        for _ in 0..bursts {
            let p: Vec<Logic> = (0..4)
                .map(|_| Logic::from_bool(rng.gen_bool(0.5)))
                .collect();
            out.extend(std::iter::repeat_n(p, hold));
        }
        out
    }

    /// Runs `patterns` cold, and again killed at `cut`: the checkpoint is
    /// round-tripped through its bytes and restored into a fresh machine,
    /// which replays the rest. Both runs must agree on the statuses and
    /// every deterministic counter.
    fn resume_matches_cold<M: FaultMachine<Probe = NullProbe>>(
        circuit: &Circuit,
        faults: &[M::Fault],
        options: &M::Options,
        patterns: &[Vec<Logic>],
        cut: usize,
    ) -> Result<(), TestCaseError> {
        let build = || M::build(circuit, faults, options.clone(), NullProbe);
        let run = |m: &mut M, patterns: &[Vec<Logic>]| {
            for p in patterns {
                m.step_with(p, None);
            }
        };
        let mut cold = build();
        run(&mut cold, patterns);
        let mut first = build();
        run(&mut first, &patterns[..cut]);
        let ck = Checkpoint::from_bytes(&first.checkpoint().to_bytes()).expect("round trip");
        drop(first);
        let mut resumed = build();
        resumed.restore(&ck).expect("restore");
        run(&mut resumed, &patterns[cut..]);
        prop_assert_eq!(resumed.statuses(), cold.statuses());
        prop_assert_eq!(resumed.events(), cold.events());
        prop_assert_eq!(resumed.fault_evaluations(), cold.fault_evaluations());
        prop_assert_eq!(resumed.peak_elements(), cold.peak_elements());
        Ok(())
    }

    #[test]
    fn roundtrip_preserves_checkpoint() {
        let c = s27();
        let faults = collapse_stuck_at(&c).representatives;
        let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        for p in patterns(8) {
            sim.step(&p);
        }
        let ck = sim.checkpoint();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ck, back);
        assert_eq!(back.pattern_index(), 8);
    }

    #[test]
    fn resume_matches_cold_run() {
        let c = s27();
        let faults = collapse_stuck_at(&c).representatives;
        let options = CsimVariant::Mv.options();
        resume_matches_cold::<ConcurrentSim>(&c, &faults, &options, &patterns(24), 10).unwrap();
    }

    proptest! {
        /// A stuck-at run killed at a random pattern boundary and resumed
        /// from its serialized checkpoint reproduces the cold run.
        #[test]
        fn stuck_resume_at_random_checkpoint_matches_cold(seed in 0u64..500, cut in 1usize..63) {
            let c = s27();
            let faults = collapse_stuck_at(&c).representatives;
            let options = CsimVariant::Mv.options();
            let patterns = hold_patterns(16, 4, seed);
            resume_matches_cold::<ConcurrentSim>(&c, &faults, &options, &patterns, cut)?;
        }

        /// The same property for the transition engine, whose checkpoint
        /// also carries the previous-pattern pin values, and whose release
        /// pass starts from zeroed evaluation stamps after a restore.
        #[test]
        fn transition_resume_at_random_checkpoint_matches_cold(
            seed in 0u64..500,
            cut in 1usize..47,
        ) {
            let c = s27();
            let faults = enumerate_transition(&c);
            let options = TransitionOptions::default();
            let patterns = hold_patterns(12, 4, seed ^ 0xD5);
            resume_matches_cold::<TransitionSim>(&c, &faults, &options, &patterns, cut)?;
        }
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let c = s27();
        let faults = collapse_stuck_at(&c).representatives;
        let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        for p in patterns(4) {
            sim.step(&p);
        }
        let ck = sim.checkpoint();
        // csim-M compiles the same macro network but differs in the split
        // flag (the node-count check passes, the split check fires).
        let mut other = ConcurrentSim::new(&c, &faults, CsimVariant::M.options());
        let err = other.restore(&ck).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Mismatch {
                field: "visible/invisible split",
                ..
            }
        ));
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let c = s27();
        let faults = collapse_stuck_at(&c).representatives;
        let mut sim = ConcurrentSim::new(&c, &faults, CsimVariant::Mv.options());
        for p in patterns(4) {
            sim.step(&p);
        }
        let bytes = sim.checkpoint().to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(Checkpoint::from_bytes(&bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(Checkpoint::from_bytes(&bad_version).is_err());
        // Version 1 carried the retired quiescence-gate state; version 2
        // lacks the hot-fault lanes.
        for old in [1, 2] {
            let mut stale = bytes.clone();
            stale[4] = old;
            let err = Checkpoint::from_bytes(&stale).unwrap_err();
            assert_eq!(
                err,
                CheckpointError::Corrupt(format!("unsupported version {old} (expected 3)"))
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Checkpoint::from_bytes(&trailing).is_err());
    }
}
