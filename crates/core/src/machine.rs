//! The [`FaultMachine`] trait: what the sharded simulator and the run
//! drivers need from one concurrent fault machine.
//!
//! Lee & Reddy build the §3 transition simulator on the same concurrent
//! machinery as stuck-at: the engine is shared and only the clock cycle
//! differs (one pass for stuck-at, the two-pass hold/release cycle for
//! transition faults). The trait captures exactly that split — everything
//! above the engine (sharding, scheduling, merging, telemetry, checkpoints)
//! is written once, generically, and monomorphizes per model, so the
//! per-pattern step stays a statically dispatched call.
//!
//! The trait is sealed: [`ConcurrentSim`] and [`TransitionSim`] are its
//! only implementations, and the engine they wrap stays crate-private.

use cfs_faults::{FaultStatus, StuckAt, TransitionFault};
use cfs_logic::Logic;
use cfs_netlist::Circuit;
use cfs_telemetry::Probe;

use crate::checkpoint::{Checkpoint, CheckpointError, Model};
use crate::engine::Engine;
use crate::stuck::{ConcurrentSim, CsimOptions};
use crate::transition::{TransitionOptions, TransitionSim};

pub(crate) mod sealed {
    use cfs_telemetry::Probe;

    use crate::checkpoint::Model;
    use crate::engine::Engine;

    /// Engine access behind [`super::FaultMachine`]. The trait lives in a
    /// private module, so no other crate can name, implement, or call it;
    /// that is why it may hand out the crate-private engine type, which
    /// the `private_interfaces` lint would otherwise flag.
    #[allow(private_interfaces)]
    pub trait Sealed<P: Probe> {
        /// The checkpoint model this machine captures and restores.
        const MODEL: Model;
        /// The wrapped engine.
        fn engine(&self) -> &Engine<P>;
        /// The wrapped engine, mutably.
        fn engine_mut(&mut self) -> &mut Engine<P>;
    }
}

/// One concurrent fault machine: a fault model's clock cycle over the
/// shared concurrent engine, plus the read-outs a run reports.
///
/// Implemented by [`ConcurrentSim`] (stuck-at, all four `csim` variants)
/// and [`TransitionSim`] (the §3 transition model); [`crate::ShardedSim`]
/// shards either one over a shared good machine.
///
/// # Examples
///
/// ```
/// use cfs_core::{ConcurrentSim, CsimVariant, FaultMachine, NullProbe};
/// use cfs_faults::collapse_stuck_at;
/// use cfs_logic::parse_pattern;
/// use cfs_netlist::data::s27;
///
/// fn detected_after<M: FaultMachine>(mut m: M, patterns: &[Vec<cfs_logic::Logic>]) -> usize {
///     for p in patterns {
///         m.step_with(p, None);
///     }
///     m.detected()
/// }
///
/// let circuit = s27();
/// let faults = collapse_stuck_at(&circuit).representatives;
/// let sim: ConcurrentSim = FaultMachine::build(&circuit, &faults, CsimVariant::Mv.options(), NullProbe);
/// let patterns = vec![parse_pattern("0101")?, parse_pattern("1010")?];
/// assert!(detected_after(sim, &patterns) > 0);
/// # Ok::<(), cfs_logic::ParseLogicError>(())
/// ```
pub trait FaultMachine: sealed::Sealed<<Self as FaultMachine>::Probe> + Sized {
    /// The fault type this machine simulates.
    type Fault: Copy;
    /// Construction options.
    type Options: Clone;
    /// The attached instrumentation probe.
    type Probe: Probe;

    /// Compiles `circuit` with `faults` and attaches `probe`.
    fn build(
        circuit: &Circuit,
        faults: &[Self::Fault],
        options: Self::Options,
        probe: Self::Probe,
    ) -> Self;

    /// Simulates one clock cycle. With `good`, the settled fault-free node
    /// values of this cycle come from a shared good machine (computed once
    /// for every shard) instead of being evaluated here; results are
    /// identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    fn step_with(&mut self, inputs: &[Logic], good: Option<&[Logic]>);

    /// Display name (`csim`, `csim-V`, `csim-M`, `csim-MV`, `csim-T`).
    fn name(&self) -> &'static str;

    /// Per-fault statuses, aligned with the fault list the machine was
    /// built with.
    fn statuses(&self) -> Vec<FaultStatus> {
        self.engine()
            .net
            .descriptors
            .iter()
            .map(|d| {
                if d.untestable {
                    FaultStatus::Untestable
                } else {
                    match d.detected_at {
                        Some(p) => FaultStatus::Detected {
                            pattern: p as usize,
                        },
                        None => FaultStatus::Undetected,
                    }
                }
            })
            .collect()
    }

    /// Number of faults detected so far.
    fn detected(&self) -> usize {
        self.engine()
            .net
            .descriptors
            .iter()
            .filter(|d| d.is_detected())
            .count()
    }

    /// Node activations processed so far (the paper's event count).
    fn events(&self) -> u64 {
        self.engine().events
    }

    /// Faulty-machine evaluations performed so far.
    fn fault_evaluations(&self) -> u64 {
        self.engine().fault_evals
    }

    /// Paper-comparable memory model in bytes.
    fn memory_bytes(&self) -> usize {
        self.engine().memory_bytes()
    }

    /// Peak live fault elements so far.
    fn peak_elements(&self) -> usize {
        self.engine().arena.peak()
    }

    /// The attached probe.
    fn probe(&self) -> &Self::Probe {
        &self.engine().probe
    }

    /// Forces the per-pattern invariant verifier on (or off) regardless of
    /// the build profile — the CLI's `--paranoid`.
    fn set_paranoid(&mut self, on: bool) {
        self.engine_mut().verify = on;
    }

    /// Captures a pattern-boundary checkpoint of the full simulation state.
    /// Call only between steps.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(self.engine(), Self::MODEL)
    }

    /// Restores a checkpoint captured from an identically configured
    /// machine (same model, circuit, fault universe, and options).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the checkpoint does not match
    /// this machine's configuration.
    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        ck.restore_into(self.engine_mut(), Self::MODEL)
    }
}

#[allow(private_interfaces)]
impl<P: Probe> sealed::Sealed<P> for ConcurrentSim<P> {
    const MODEL: Model = Model::Stuck;

    fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }
}

impl<P: Probe> FaultMachine for ConcurrentSim<P> {
    type Fault = StuckAt;
    type Options = CsimOptions;
    type Probe = P;

    fn build(circuit: &Circuit, faults: &[StuckAt], options: CsimOptions, probe: P) -> Self {
        ConcurrentSim::with_probe(circuit, faults, options, probe)
    }

    fn step_with(&mut self, inputs: &[Logic], good: Option<&[Logic]>) {
        self.engine.step_stuck_with(inputs, good);
    }

    fn name(&self) -> &'static str {
        ConcurrentSim::name(self)
    }
}

#[allow(private_interfaces)]
impl<P: Probe> sealed::Sealed<P> for TransitionSim<P> {
    const MODEL: Model = Model::Transition;

    fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }
}

impl<P: Probe> FaultMachine for TransitionSim<P> {
    type Fault = TransitionFault;
    type Options = TransitionOptions;
    type Probe = P;

    fn build(
        circuit: &Circuit,
        faults: &[TransitionFault],
        options: TransitionOptions,
        probe: P,
    ) -> Self {
        TransitionSim::with_probe(circuit, faults, options, probe)
    }

    fn step_with(&mut self, inputs: &[Logic], good: Option<&[Logic]>) {
        self.cycle(inputs, good);
    }

    fn name(&self) -> &'static str {
        "csim-T"
    }
}
