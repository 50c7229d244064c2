//! The [`Probe`] trait: the compile-time hook surface the engine calls.

use crate::timing::Phase;

/// Instrumentation hooks threaded through the simulation engine.
///
/// Every method has an empty `#[inline]` default, and `ENABLED` defaults to
/// `false`. The engine is generic over its probe, so with [`NullProbe`]
/// (the default) each call site monomorphizes to nothing — the hot merge
/// loop pays zero cost. Work that is only worth doing when someone is
/// recording (e.g. sweeping all fault lists at end of pattern) is gated in
/// the engine on `P::ENABLED`, which is a compile-time constant.
///
/// Counter semantics (all per current pattern):
/// - `node_activated` — a node came off the event queue and was evaluated.
/// - `good_eval` / `fault_eval` — one good-machine / faulty-machine gate
///   evaluation (the paper's "number of gate evaluations").
/// - `elements_traversed` — fault-list elements touched by the merge loop.
/// - `elements_visible` — elements written to the *visible* output list.
/// - `divergence` — a faulty machine spawned its own list element at a node
///   where it previously agreed with the good machine.
/// - `convergence` — a faulty machine's element was removed because its
///   value re-joined the good machine.
/// - `fault_dropped` — a detected fault's element was purged (fault
///   dropping).
/// - `fault_detected` — a fault first observed at a primary output.
pub trait Probe {
    /// Compile-time flag: `true` only for recording probes. Lets the engine
    /// skip instrumentation-only work (list sweeps) entirely when off.
    const ENABLED: bool = false;

    /// A new pattern begins.
    #[inline]
    fn begin_pattern(&mut self, _pattern: u64) {}

    /// The current pattern is finished.
    #[inline]
    fn end_pattern(&mut self) {}

    /// A node was taken off the event queue and evaluated.
    #[inline]
    fn node_activated(&mut self) {}

    /// One good-machine evaluation.
    #[inline]
    fn good_eval(&mut self) {}

    /// `n` faulty-machine evaluations.
    #[inline]
    fn fault_evals(&mut self, _n: u64) {}

    /// `n` fault-list elements traversed by the merge loop.
    #[inline]
    fn elements_traversed(&mut self, _n: u64) {}

    /// `n` elements emitted to the visible output list.
    #[inline]
    fn elements_visible(&mut self, _n: u64) {}

    /// Faulty machine `fault` diverged from the good machine at `node`
    /// (a list element was inserted where the machines previously agreed).
    #[inline]
    fn divergence(&mut self, _node: u32, _fault: u32) {}

    /// Faulty machine `fault` converged back to the good machine at `node`
    /// (its list element was removed).
    #[inline]
    fn convergence(&mut self, _node: u32, _fault: u32) {}

    /// Detected fault `fault`'s list element was purged at `node`.
    #[inline]
    fn fault_dropped(&mut self, _node: u32, _fault: u32) {}

    /// Fault `fault` was detected at primary-output tap node `po_node`.
    #[inline]
    fn fault_detected(&mut self, _po_node: u32, _fault: u32) {}

    /// Observed length of one node's fault list (end-of-pattern sweep).
    #[inline]
    fn list_len(&mut self, _len: u64) {}

    /// Event-queue population for one level before it is drained.
    #[inline]
    fn queue_depth(&mut self, _depth: u64) {}

    /// Size of the DFF update stash collected at a clock edge.
    #[inline]
    fn dff_stash(&mut self, _len: u64) {}

    /// Peak engine memory in bytes (monotone max).
    #[inline]
    fn memory_bytes(&mut self, _bytes: u64) {}

    /// An arena compaction pass ran, relocating `elements_moved` live
    /// elements (end-of-pattern maintenance; run-level, not per-pattern).
    #[inline]
    fn compaction(&mut self, _elements_moved: u64) {}

    /// The hot-fault machine's work: `promoted` faults moved into lanes,
    /// `words` packed words holding live faults, `evals` packed word-node
    /// evaluations (a pattern's step, or a promotion sweep).
    #[inline]
    fn packed(&mut self, _promoted: u64, _words: u64, _evals: u64) {}

    /// A timed phase begins.
    #[inline]
    fn phase_start(&mut self, _phase: Phase) {}

    /// The innermost started phase ends.
    #[inline]
    fn phase_end(&mut self, _phase: Phase) {}
}

/// The default probe: records nothing, costs nothing.
///
/// All methods inherit the empty defaults and `ENABLED = false`; an engine
/// instantiated with `NullProbe` compiles to the same code as one with no
/// instrumentation at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Two probes driven by the same engine: every hook fans out to both.
///
/// `ENABLED` is the OR of the halves, so pairing a recorder with
/// [`NullProbe`] keeps the instrumentation-only sweeps exactly as the
/// recorder alone would, and pairing two recorders (metrics + tracer)
/// costs one virtual-free extra call per hook.
#[derive(Debug, Clone, Default)]
pub struct PairProbe<A, B>(
    /// The first (primary) probe.
    pub A,
    /// The second probe.
    pub B,
);

impl<A: Probe, B: Probe> Probe for PairProbe<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn begin_pattern(&mut self, pattern: u64) {
        self.0.begin_pattern(pattern);
        self.1.begin_pattern(pattern);
    }

    #[inline]
    fn end_pattern(&mut self) {
        self.0.end_pattern();
        self.1.end_pattern();
    }

    #[inline]
    fn node_activated(&mut self) {
        self.0.node_activated();
        self.1.node_activated();
    }

    #[inline]
    fn good_eval(&mut self) {
        self.0.good_eval();
        self.1.good_eval();
    }

    #[inline]
    fn fault_evals(&mut self, n: u64) {
        self.0.fault_evals(n);
        self.1.fault_evals(n);
    }

    #[inline]
    fn elements_traversed(&mut self, n: u64) {
        self.0.elements_traversed(n);
        self.1.elements_traversed(n);
    }

    #[inline]
    fn elements_visible(&mut self, n: u64) {
        self.0.elements_visible(n);
        self.1.elements_visible(n);
    }

    #[inline]
    fn divergence(&mut self, node: u32, fault: u32) {
        self.0.divergence(node, fault);
        self.1.divergence(node, fault);
    }

    #[inline]
    fn convergence(&mut self, node: u32, fault: u32) {
        self.0.convergence(node, fault);
        self.1.convergence(node, fault);
    }

    #[inline]
    fn fault_dropped(&mut self, node: u32, fault: u32) {
        self.0.fault_dropped(node, fault);
        self.1.fault_dropped(node, fault);
    }

    #[inline]
    fn fault_detected(&mut self, po_node: u32, fault: u32) {
        self.0.fault_detected(po_node, fault);
        self.1.fault_detected(po_node, fault);
    }

    #[inline]
    fn list_len(&mut self, len: u64) {
        self.0.list_len(len);
        self.1.list_len(len);
    }

    #[inline]
    fn queue_depth(&mut self, depth: u64) {
        self.0.queue_depth(depth);
        self.1.queue_depth(depth);
    }

    #[inline]
    fn dff_stash(&mut self, len: u64) {
        self.0.dff_stash(len);
        self.1.dff_stash(len);
    }

    #[inline]
    fn memory_bytes(&mut self, bytes: u64) {
        self.0.memory_bytes(bytes);
        self.1.memory_bytes(bytes);
    }

    #[inline]
    fn compaction(&mut self, elements_moved: u64) {
        self.0.compaction(elements_moved);
        self.1.compaction(elements_moved);
    }

    #[inline]
    fn packed(&mut self, promoted: u64, words: u64, evals: u64) {
        self.0.packed(promoted, words, evals);
        self.1.packed(promoted, words, evals);
    }

    #[inline]
    fn phase_start(&mut self, phase: Phase) {
        self.0.phase_start(phase);
        self.1.phase_start(phase);
    }

    #[inline]
    fn phase_end(&mut self, phase: Phase) {
        self.0.phase_end(phase);
        self.1.phase_end(phase);
    }
}
