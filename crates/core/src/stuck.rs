//! The stuck-at concurrent fault simulator: `csim` and its `-V`/`-M`/`-MV`
//! variants from §4 of the paper.

use std::fmt;
use std::time::Instant;

use cfs_faults::{FaultSimReport, FaultStatus, StuckAt};
use cfs_logic::Logic;
use cfs_netlist::{Circuit, DEFAULT_MACRO_MAX_INPUTS};
use cfs_telemetry::{MetricsSnapshot, NullProbe, Probe, SimMetrics};

use crate::engine::Engine;
use crate::hot::{HotFaults, DEFAULT_HOT_LANES};
use crate::machine::FaultMachine;
use crate::network::{build_gate_network, build_macro_network, FaultSpec};

/// Configuration of the concurrent simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsimOptions {
    /// Keep invisible fault elements on a separate list (`-V`): propagation
    /// traverses only visible elements.
    pub split_invisible: bool,
    /// Collapse fanout-free regions into look-up-table macro cells (`-M`);
    /// internal faults become functional (faulty-LUT) faults.
    pub use_macros: bool,
    /// Support cap for macro cells.
    pub macro_max_inputs: usize,
    /// Purge elements of detected faults during list traversal
    /// (event-driven fault dropping).
    pub drop_detected: bool,
    /// Most hot faults simulated 64 to a machine word at once (see
    /// [`DEFAULT_HOT_LANES`]); 0 keeps every fault on the concurrent
    /// lists. The hybrid needs fault dropping and is off without it.
    /// Detections are identical for every cap.
    pub hot_lanes: usize,
}

impl Default for CsimOptions {
    fn default() -> Self {
        CsimVariant::Mv.options()
    }
}

/// The four simulator configurations evaluated in the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsimVariant {
    /// Plain concurrent simulation (single lists, no macros).
    Base,
    /// Visible/invisible list splitting only.
    V,
    /// Macro extraction only.
    M,
    /// Both improvements (the paper's final `csim-MV`).
    Mv,
}

impl CsimVariant {
    /// All four variants, in Table 3 column order.
    pub const ALL: [CsimVariant; 4] = [
        CsimVariant::Base,
        CsimVariant::V,
        CsimVariant::M,
        CsimVariant::Mv,
    ];

    /// The paper's name for the variant.
    pub fn name(self) -> &'static str {
        match self {
            CsimVariant::Base => "csim",
            CsimVariant::V => "csim-V",
            CsimVariant::M => "csim-M",
            CsimVariant::Mv => "csim-MV",
        }
    }

    /// The options this variant stands for (fault dropping is always on, as
    /// in the paper).
    pub fn options(self) -> CsimOptions {
        CsimOptions {
            split_invisible: matches!(self, CsimVariant::V | CsimVariant::Mv),
            use_macros: matches!(self, CsimVariant::M | CsimVariant::Mv),
            macro_max_inputs: DEFAULT_MACRO_MAX_INPUTS,
            drop_detected: true,
            hot_lanes: DEFAULT_HOT_LANES,
        }
    }
}

impl fmt::Display for CsimVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one simulated clock cycle.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Good-machine primary-output values.
    pub outputs: Vec<Logic>,
    /// Indices (into the fault list) of faults first detected this cycle.
    pub new_detections: Vec<usize>,
}

/// The concurrent stuck-at fault simulator for synchronous sequential
/// circuits.
///
/// # Examples
///
/// ```
/// use cfs_core::{ConcurrentSim, CsimVariant};
/// use cfs_faults::collapse_stuck_at;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = collapse_stuck_at(&circuit).representatives;
/// let mut sim = ConcurrentSim::new(&circuit, &faults, CsimVariant::Mv.options());
/// let patterns: Vec<_> = ["0000", "1111", "0101", "1010"]
///     .iter()
///     .map(|p| parse_pattern(p))
///     .collect::<Result<_, _>>()?;
/// let report = sim.run(&patterns);
/// assert!(report.detected() > 0);
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub struct ConcurrentSim<P: Probe = NullProbe> {
    pub(crate) engine: Engine<P>,
    options: CsimOptions,
    circuit_name: String,
    num_faults: usize,
}

impl<P: Probe> fmt::Debug for ConcurrentSim<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentSim")
            .field("circuit", &self.circuit_name)
            .field("faults", &self.num_faults)
            .field("options", &self.options)
            .finish()
    }
}

impl ConcurrentSim {
    /// Compiles the circuit (and, with `-M`, its macro cells) and attaches
    /// the fault universe. The resulting simulator carries no probe and
    /// pays no instrumentation cost.
    pub fn new(circuit: &Circuit, faults: &[StuckAt], options: CsimOptions) -> Self {
        Self::with_probe(circuit, faults, options, NullProbe)
    }
}

impl ConcurrentSim<SimMetrics> {
    /// Like [`ConcurrentSim::new`], but with a recording [`SimMetrics`]
    /// probe attached: per-pattern counters, histograms, and phase times
    /// accumulate as the simulation runs.
    pub fn instrumented(circuit: &Circuit, faults: &[StuckAt], options: CsimOptions) -> Self {
        Self::with_probe(circuit, faults, options, SimMetrics::new())
    }

    /// The accumulated telemetry.
    pub fn metrics(&self) -> &SimMetrics {
        &self.engine.probe
    }

    /// Collapses the accumulated telemetry into headline aggregates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.engine.probe.snapshot(self.name(), &self.circuit_name)
    }
}

impl<P: Probe> ConcurrentSim<P> {
    /// Compiles the circuit and attaches the fault universe and an
    /// arbitrary probe implementation.
    pub fn with_probe(
        circuit: &Circuit,
        faults: &[StuckAt],
        options: CsimOptions,
        probe: P,
    ) -> Self {
        let specs: Vec<FaultSpec> = faults.iter().map(|&f| FaultSpec::Stuck(f)).collect();
        let net = if options.use_macros {
            build_macro_network(circuit, &specs, options.macro_max_inputs)
        } else {
            build_gate_network(circuit, &specs)
        };
        let mut engine =
            Engine::with_probe(net, options.split_invisible, options.drop_detected, probe);
        engine.hot = HotFaults::new(options.hot_lanes, faults.len());
        ConcurrentSim {
            engine,
            options,
            circuit_name: circuit.name().to_owned(),
            num_faults: faults.len(),
        }
    }

    /// The attached probe (e.g. to drain a trace recorder after a run).
    pub fn probe(&self) -> &P {
        &self.engine.probe
    }

    /// The simulator's display name (`csim`, `csim-V`, `csim-M`, `csim-MV`).
    pub fn name(&self) -> &'static str {
        match (self.options.split_invisible, self.options.use_macros) {
            (false, false) => "csim",
            (true, false) => "csim-V",
            (false, true) => "csim-M",
            (true, true) => "csim-MV",
        }
    }

    /// Forces the good-machine flip-flop state (e.g., a reset state); every
    /// faulty machine's state is reset as well, except stuck Q outputs.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_state(&mut self, state: &[Logic]) {
        self.engine.set_dff_state(state);
    }

    /// Simulates one clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step(&mut self, inputs: &[Logic]) -> StepResult {
        let detections = self.engine.step_stuck(inputs);
        let outputs = self
            .engine
            .net
            .po_taps
            .iter()
            .map(|&p| self.engine.good[p as usize])
            .collect();
        StepResult {
            outputs,
            new_detections: detections.into_iter().map(|(f, _)| f as usize).collect(),
        }
    }

    /// Simulates a pattern sequence and assembles the report.
    pub fn run(&mut self, patterns: &[Vec<Logic>]) -> FaultSimReport {
        let start = Instant::now();
        for p in patterns {
            self.engine.step_stuck(p);
        }
        let cpu = start.elapsed();
        FaultSimReport {
            simulator: self.name().to_owned(),
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
    /// [`ConcurrentSim::new`].
    pub fn statuses(&self) -> Vec<FaultStatus> {
        FaultMachine::statuses(self)
    }

    /// Number of faults detected so far.
    pub fn detected(&self) -> usize {
        FaultMachine::detected(self)
    }

    /// Live fault elements right now.
    pub fn live_elements(&self) -> usize {
        self.engine.arena.live()
    }

    /// Peak live fault elements so far.
    pub fn peak_elements(&self) -> usize {
        self.engine.arena.peak()
    }

    /// Paper-comparable memory model in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }

    /// Validates the internal fault-list invariants (sorted unique lists,
    /// element accounting, permanent local elements).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation. Intended for
    /// tests and debugging; cost is linear in live elements.
    pub fn assert_invariants(&self) {
        self.engine.assert_invariants();
    }

    /// Forces the per-pattern invariant verifier on (or off) regardless of
    /// the build profile — the CLI's `--paranoid`. The verifier re-checks
    /// every concurrent-list law (sorted sentinel-terminated lists, the
    /// visible/invisible partition against the good values, the
    /// detected-fault purge) after each simulated pattern.
    pub fn set_paranoid(&mut self, on: bool) {
        self.engine.verify = on;
    }

    /// Faults moved into hot-fault lanes so far.
    pub fn promoted(&self) -> u64 {
        self.engine.hot.promoted
    }

    /// Packed word-node evaluations of the hot-fault words so far.
    pub fn packed_evaluations(&self) -> u64 {
        self.engine.hot.evals
    }

    /// Sets how many visible elements at a promotion sweep make a fault
    /// hot (32 by default). A threshold of 0 promotes every live fault at
    /// the first sweep, up to the lane cap: the differential tests use it
    /// to run whole universes through the packed words.
    #[doc(hidden)]
    pub fn set_hot_threshold(&mut self, min_visible: u32) {
        self.engine.hot.min_visible = min_visible;
    }

    /// Node activations processed so far.
    pub fn events(&self) -> u64 {
        self.engine.events
    }

    /// Faulty-machine evaluations performed so far.
    pub fn fault_evaluations(&self) -> u64 {
        self.engine.fault_evals
    }

    /// The configured options (for checkpoint validation).
    pub fn options(&self) -> &CsimOptions {
        &self.options
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
