//! The transition fault simulator of §3: the concurrent method "is ideal to
//! simulate the transition faults because all previous input values of all
//! the gates are available."
//!
//! Each clock cycle runs two passes over the combinational logic:
//!
//! 1. **Sampling pass** — faulty transitions are *held* (each activated pin
//!    presents its previous value per Table 1); primary outputs are sampled
//!    for detection and flip-flop masters latch the faulty next state.
//! 2. **Settling pass** — transitions are released (the delay defect is
//!    smaller than a clock cycle, so the logic settles correctly) with the
//!    *old* flip-flop state still visible; the settled pin values become the
//!    previous values for the next cycle. Only then do the flip-flop slaves
//!    take the stashed state. The pass re-schedules only the fault sites the
//!    sampling pass evaluated: a site it did not evaluate saw no fanin
//!    change, so it already holds the previous cycle's settled state.

use std::fmt;
use std::time::Instant;

use cfs_faults::{FaultSimReport, FaultStatus, TransitionFault};
use cfs_logic::Logic;
use cfs_netlist::Circuit;
use cfs_telemetry::{MetricsSnapshot, NullProbe, Phase, Probe, SimMetrics};

use crate::engine::{Detection, Engine};
use crate::machine::FaultMachine;
use crate::network::{build_gate_network, FaultSpec};

/// Configuration of the transition fault simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionOptions {
    /// Keep invisible fault elements on a separate list.
    pub split_invisible: bool,
    /// Purge elements of detected faults during traversal.
    pub drop_detected: bool,
}

impl Default for TransitionOptions {
    fn default() -> Self {
        TransitionOptions {
            split_invisible: true,
            drop_detected: true,
        }
    }
}

/// Concurrent transition fault simulator (gate-level; the transition model
/// addresses individual gate pins, so macro collapsing does not apply).
///
/// # Examples
///
/// ```
/// use cfs_core::TransitionSim;
/// use cfs_faults::enumerate_transition;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = enumerate_transition(&circuit);
/// let mut sim = TransitionSim::new(&circuit, &faults, Default::default());
/// let patterns: Vec<_> = ["0000", "1111", "0000", "1111"]
///     .iter()
///     .map(|p| parse_pattern(p))
///     .collect::<Result<_, _>>()?;
/// let report = sim.run(&patterns);
/// assert_eq!(report.total_faults(), faults.len());
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub struct TransitionSim<P: Probe = NullProbe> {
    pub(crate) engine: Engine<P>,
    circuit_name: String,
    num_faults: usize,
}

impl<P: Probe> fmt::Debug for TransitionSim<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransitionSim")
            .field("circuit", &self.circuit_name)
            .field("faults", &self.num_faults)
            .finish()
    }
}

impl TransitionSim {
    /// Compiles the gate-level network with the transition fault universe.
    /// The resulting simulator carries no probe and pays no
    /// instrumentation cost.
    pub fn new(circuit: &Circuit, faults: &[TransitionFault], options: TransitionOptions) -> Self {
        Self::with_probe(circuit, faults, options, NullProbe)
    }
}

impl TransitionSim<SimMetrics> {
    /// Like [`TransitionSim::new`], but with a recording [`SimMetrics`]
    /// probe attached.
    pub fn instrumented(
        circuit: &Circuit,
        faults: &[TransitionFault],
        options: TransitionOptions,
    ) -> Self {
        Self::with_probe(circuit, faults, options, SimMetrics::new())
    }

    /// The accumulated telemetry.
    pub fn metrics(&self) -> &SimMetrics {
        &self.engine.probe
    }

    /// Collapses the accumulated telemetry into headline aggregates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.engine.probe.snapshot("csim-T", &self.circuit_name)
    }
}

impl<P: Probe> TransitionSim<P> {
    /// Compiles the gate-level network with the transition fault universe
    /// and an arbitrary probe implementation.
    pub fn with_probe(
        circuit: &Circuit,
        faults: &[TransitionFault],
        options: TransitionOptions,
        probe: P,
    ) -> Self {
        let specs: Vec<FaultSpec> = faults.iter().map(|&f| FaultSpec::Transition(f)).collect();
        let net = build_gate_network(circuit, &specs);
        let engine = Engine::with_probe(net, options.split_invisible, options.drop_detected, probe);
        TransitionSim {
            engine,
            circuit_name: circuit.name().to_owned(),
            num_faults: faults.len(),
        }
    }

    /// Simulates one clock cycle (both passes). Returns the indices of
    /// faults first detected this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step(&mut self, inputs: &[Logic]) -> Vec<usize> {
        self.cycle(inputs, None)
            .into_iter()
            .map(|(f, _)| f as usize)
            .collect()
    }

    /// One clock cycle against an optional shared good-machine trace (the
    /// settled good values for this cycle, computed once by a fault-free
    /// engine). The good machine is untouched by the hold/release passes,
    /// so the same trace serves both.
    pub(crate) fn cycle(&mut self, inputs: &[Logic], shared: Option<&[Logic]>) -> Vec<Detection> {
        self.engine.pattern_begin();
        // Pass 1: transitions held; sample and latch masters.
        self.engine.probe.phase_start(Phase::TransitionFirst);
        self.engine.transition_hold = true;
        self.engine.apply_inputs(inputs);
        self.engine.propagate_with(shared);
        let detections = self.engine.detect();
        self.engine.latch_collect();
        self.engine.probe.phase_end(Phase::TransitionFirst);
        // Pass 2: transitions released, old flip-flop state still visible.
        self.engine.probe.phase_start(Phase::TransitionSecond);
        self.engine.transition_hold = false;
        self.engine.schedule_transition_sites();
        self.engine.propagate_with(shared);
        self.engine.record_prev_pins();
        // Slaves take the stashed state only now.
        self.engine.latch_commit();
        self.engine.probe.phase_end(Phase::TransitionSecond);
        self.engine.pattern_index += 1;
        self.engine.pattern_end();
        self.engine.verify_after_pattern();
        detections
    }

    /// Forces the per-pattern invariant verifier on (or off) regardless of
    /// the build profile — the CLI's `--paranoid`.
    pub fn set_paranoid(&mut self, on: bool) {
        self.engine.verify = on;
    }

    /// The attached probe (e.g. to drain a trace recorder after a run).
    pub fn probe(&self) -> &P {
        &self.engine.probe
    }

    /// Simulates a pattern sequence and assembles the report.
    pub fn run(&mut self, patterns: &[Vec<Logic>]) -> FaultSimReport {
        let start = Instant::now();
        for p in patterns {
            self.step(p);
        }
        let cpu = start.elapsed();
        FaultSimReport {
            simulator: "csim-T".to_owned(),
            circuit: self.circuit_name.clone(),
            patterns: patterns.len(),
            statuses: self.statuses(),
            cpu,
            memory_bytes: self.engine.memory_bytes(),
            events: self.engine.events,
            evaluations: self.engine.fault_evals,
        }
    }

    /// Per-fault statuses, aligned with the fault list given to
    /// [`TransitionSim::new`].
    pub fn statuses(&self) -> Vec<FaultStatus> {
        FaultMachine::statuses(self)
    }

    /// Number of faults detected so far.
    pub fn detected(&self) -> usize {
        FaultMachine::detected(self)
    }

    /// Peak live fault elements so far.
    pub fn peak_elements(&self) -> usize {
        self.engine.arena.peak()
    }

    /// Node activations processed so far (the paper's event count).
    pub fn events(&self) -> u64 {
        self.engine.events
    }

    /// Individual faulty-machine evaluations performed so far.
    pub fn fault_evaluations(&self) -> u64 {
        self.engine.fault_evals
    }

    /// Paper-comparable memory model in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }

    /// Captures a pattern-boundary checkpoint of the full simulation state.
    ///
    /// Call only between [`step`](Self::step)/[`run`](Self::run) calls.
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        FaultMachine::checkpoint(self)
    }

    /// Restores a checkpoint captured from an identically configured
    /// simulator (same circuit, fault universe, and options).
    ///
    /// # Errors
    ///
    /// Returns a [`crate::checkpoint::CheckpointError`] when the checkpoint
    /// does not match this simulator's configuration.
    pub fn restore(
        &mut self,
        ck: &crate::checkpoint::Checkpoint,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        FaultMachine::restore(self, ck)
    }
}
