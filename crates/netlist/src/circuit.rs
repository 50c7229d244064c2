//! The gate-level circuit model for synchronous sequential circuits.
//!
//! A [`Circuit`] is a flat netlist of single-output nodes: primary inputs,
//! combinational gates, and D flip-flops, with primary outputs modeled as
//! taps on driving nodes (as in the ISCAS-89 `.bench` format). Flip-flops
//! are the only sequential elements; all clocking is implicit — one
//! simulation step is one clock cycle, matching the zero-delay model the
//! paper uses for synchronous sequential circuits.

use std::collections::HashMap;
use std::fmt;

use cfs_logic::GateFn;

/// Identifier of a node (gate, input, or flip-flop) within a [`Circuit`].
///
/// Ids are dense indices assigned in creation order, usable directly as
/// vector indices via [`GateId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The node's dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("gate index exceeds u32"))
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// What a node *is*: its structural role and (for gates) its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input; no fanin.
    Input,
    /// D flip-flop; `fanin[0]` is the D pin, the node's value is Q.
    Dff,
    /// Combinational gate computing a [`GateFn`] of its fanins.
    Comb(GateFn),
}

impl GateKind {
    /// Returns `true` for combinational gates.
    #[inline]
    pub const fn is_comb(self) -> bool {
        matches!(self, GateKind::Comb(_))
    }

    /// The gate function, if combinational.
    #[inline]
    pub const fn gate_fn(self) -> Option<GateFn> {
        match self {
            GateKind::Comb(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::Input => f.write_str("INPUT"),
            GateKind::Dff => f.write_str("DFF"),
            GateKind::Comb(g) => write!(f, "{g}"),
        }
    }
}

/// One node of the netlist.
#[derive(Debug, Clone)]
pub struct Gate {
    pub(crate) name: String,
    pub(crate) kind: GateKind,
    pub(crate) fanin: Vec<GateId>,
    pub(crate) fanout: Vec<GateId>,
}

impl Gate {
    /// The node's signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Driving nodes, in pin order.
    pub fn fanin(&self) -> &[GateId] {
        &self.fanin
    }

    /// Nodes driven by this node's output (each may connect on several pins).
    pub fn fanout(&self) -> &[GateId] {
        &self.fanout
    }
}

/// A validated synchronous sequential circuit.
///
/// Construct one with [`CircuitBuilder`], by parsing a `.bench` file with
/// [`parse_bench`](crate::parse_bench), or with the synthetic generator in
/// [`generate`](crate::generate).
///
/// # Examples
///
/// ```
/// use cfs_netlist::CircuitBuilder;
/// use cfs_logic::GateFn;
///
/// let mut b = CircuitBuilder::new("toy");
/// let a = b.input("a");
/// let q = b.dff("q");
/// let g = b.gate("g", GateFn::Nand, vec![a, q])?;
/// b.set_dff_input(q, g)?;
/// b.output(g);
/// let circuit = b.finish()?;
/// assert_eq!(circuit.num_comb_gates(), 1);
/// assert_eq!(circuit.num_dffs(), 1);
/// # Ok::<(), cfs_netlist::CircuitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
    /// Combinational level of each node: 0 for PIs and DFF outputs.
    levels: Vec<u32>,
    /// Combinational gates in ascending level order (a valid evaluation
    /// order for zero-delay simulation).
    topo: Vec<GateId>,
    max_level: u32,
}

impl Circuit {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexable by [`GateId::index`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Access a node by id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Total node count (inputs + flip-flops + combinational gates).
    pub fn num_nodes(&self) -> usize {
        self.gates.len()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary output taps, in declaration order. Each entry is the id of
    /// the node driving that output.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// D flip-flops, in declaration order.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Number of combinational gates.
    pub fn num_comb_gates(&self) -> usize {
        self.topo.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops.
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// The combinational level of a node: 0 for primary inputs and flip-flop
    /// outputs, otherwise `1 + max(level of fanins)`.
    #[inline]
    pub fn level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// Combinational gates in ascending level order. Evaluating gates in
    /// this order after fixing PI and flip-flop values settles the circuit
    /// in one pass — the basis of zero-delay simulation.
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Looks up a node by signal name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        // Linear scan is fine for the test-bench use cases that need this;
        // hot paths always work with ids.
        self.gates
            .iter()
            .position(|g| g.name == name)
            .map(GateId::from_index)
    }

    /// Summary statistics, as reported in Table 2 of the paper.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            name: self.name.clone(),
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            dffs: self.num_dffs(),
            comb_gates: self.num_comb_gates(),
            max_level: self.max_level,
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} PIs, {} POs, {} DFFs, {} gates, depth {}",
            self.name,
            self.num_inputs(),
            self.num_outputs(),
            self.num_dffs(),
            self.num_comb_gates(),
            self.max_level
        )
    }
}

/// Headline statistics of a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Flip-flop count.
    pub dffs: usize,
    /// Combinational gate count.
    pub comb_gates: usize,
    /// Deepest combinational level.
    pub max_level: u32,
}

/// The most inputs a gate may have: fault sites number a gate's pins
/// with one byte.
pub const MAX_FANIN: usize = 256;

/// Error produced while building or validating a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// Two nodes share a signal name.
    DuplicateName(String),
    /// A gate was declared with an arity its function does not allow.
    BadArity {
        /// Offending gate name.
        gate: String,
        /// Its function.
        function: GateFn,
        /// Declared fanin count.
        arity: usize,
    },
    /// A flip-flop's D input was never connected.
    UnboundDff(String),
    /// The id passed to a builder method is not a flip-flop.
    NotADff(String),
    /// The combinational logic contains a cycle through the named gate.
    CombinationalCycle(String),
    /// The circuit has no primary inputs.
    NoInputs,
    /// The circuit has no primary outputs.
    NoOutputs,
    /// A referenced signal was never defined (parser-level dangling name).
    Undefined(String),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::DuplicateName(n) => write!(f, "duplicate signal name {n:?}"),
            CircuitError::BadArity {
                gate,
                function,
                arity,
            } => write!(f, "gate {gate:?}: {function} cannot take {arity} inputs"),
            CircuitError::UnboundDff(n) => write!(f, "flip-flop {n:?} has no D input"),
            CircuitError::NotADff(n) => write!(f, "node {n:?} is not a flip-flop"),
            CircuitError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through gate {n:?}")
            }
            CircuitError::NoInputs => f.write_str("circuit has no primary inputs"),
            CircuitError::NoOutputs => f.write_str("circuit has no primary outputs"),
            CircuitError::Undefined(n) => write!(f, "undefined signal {n:?}"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// Incremental builder for [`Circuit`].
///
/// Flip-flop D inputs may be bound after creation (netlists routinely
/// reference state bits before the logic that computes them), so feedback
/// through flip-flops is easy to express while combinational cycles remain
/// impossible to construct past [`CircuitBuilder::finish`].
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    name: String,
    pub(crate) gates: Vec<Gate>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
    names: HashMap<String, GateId>,
    duplicate: Option<String>,
}

impl CircuitBuilder {
    /// Starts a new, empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    fn add_node(&mut self, name: impl Into<String>, kind: GateKind, fanin: Vec<GateId>) -> GateId {
        let name = name.into();
        let id = GateId::from_index(self.gates.len());
        if self.names.insert(name.clone(), id).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.clone());
        }
        self.gates.push(Gate {
            name,
            kind,
            fanin,
            fanout: Vec::new(),
        });
        id
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.add_node(name, GateKind::Input, Vec::new());
        self.inputs.push(id);
        id
    }

    /// Adds a D flip-flop with an unbound D input.
    ///
    /// Bind the input later with [`CircuitBuilder::set_dff_input`].
    pub fn dff(&mut self, name: impl Into<String>) -> GateId {
        let id = self.add_node(name, GateKind::Dff, Vec::new());
        self.dffs.push(id);
        id
    }

    /// Adds a combinational gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BadArity`] when the fanin count is invalid
    /// for the function (unary functions take exactly one input, others at
    /// least one and at most [`MAX_FANIN`]).
    pub fn gate(
        &mut self,
        name: impl Into<String>,
        f: GateFn,
        fanin: Vec<GateId>,
    ) -> Result<GateId, CircuitError> {
        let name = name.into();
        let ok = if f.is_unary() {
            fanin.len() == 1
        } else {
            (1..=MAX_FANIN).contains(&fanin.len())
        };
        if !ok {
            return Err(CircuitError::BadArity {
                gate: name,
                function: f,
                arity: fanin.len(),
            });
        }
        Ok(self.add_node(name, GateKind::Comb(f), fanin))
    }

    /// Binds the D input of a flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotADff`] if `q` is not a flip-flop.
    pub fn set_dff_input(&mut self, q: GateId, d: GateId) -> Result<(), CircuitError> {
        let gate = &mut self.gates[q.index()];
        if gate.kind != GateKind::Dff {
            return Err(CircuitError::NotADff(gate.name.clone()));
        }
        gate.fanin = vec![d];
        Ok(())
    }

    /// Declares a primary output tap on `id`.
    pub fn output(&mut self, id: GateId) {
        self.outputs.push(id);
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Looks up a previously added node by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.names.get(name).copied()
    }

    /// Validates the netlist and produces an immutable [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns the first of: duplicate names, unbound flip-flops, missing
    /// inputs/outputs, or a combinational cycle.
    pub fn finish(self) -> Result<Circuit, CircuitError> {
        let CircuitBuilder {
            name,
            mut gates,
            inputs,
            outputs,
            dffs,
            duplicate,
            ..
        } = self;
        if let Some(dup) = duplicate {
            return Err(CircuitError::DuplicateName(dup));
        }
        if inputs.is_empty() {
            return Err(CircuitError::NoInputs);
        }
        if outputs.is_empty() {
            return Err(CircuitError::NoOutputs);
        }
        for &q in &dffs {
            if gates[q.index()].fanin.is_empty() {
                return Err(CircuitError::UnboundDff(gates[q.index()].name.clone()));
            }
        }
        // Populate fanout lists (one entry per connection, so a node feeding
        // two pins of the same gate appears twice).
        let edges: Vec<(GateId, GateId)> = gates
            .iter()
            .enumerate()
            .flat_map(|(i, g)| {
                g.fanin
                    .iter()
                    .map(move |&src| (src, GateId::from_index(i)))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (src, dst) in edges {
            gates[src.index()].fanout.push(dst);
        }
        // Levelize: PIs and DFF outputs are level 0; combinational gates are
        // 1 + max fanin level. Kahn-style over combinational edges only.
        let n = gates.len();
        let mut levels = vec![0u32; n];
        let mut pending = vec![0u32; n];
        let mut ready: Vec<GateId> = Vec::new();
        for (i, g) in gates.iter().enumerate() {
            match g.kind {
                GateKind::Input | GateKind::Dff => ready.push(GateId::from_index(i)),
                GateKind::Comb(_) => pending[i] = g.fanin.len() as u32,
            }
        }
        let mut topo: Vec<GateId> = Vec::with_capacity(n);
        let mut head = 0;
        while head < ready.len() {
            let id = ready[head];
            head += 1;
            if gates[id.index()].kind.is_comb() {
                topo.push(id);
            }
            for &succ in &gates[id.index()].fanout {
                if !gates[succ.index()].kind.is_comb() {
                    continue; // DFF D pins do not constrain combinational order.
                }
                let s = succ.index();
                levels[s] = levels[s].max(levels[id.index()] + 1);
                pending[s] -= 1;
                if pending[s] == 0 {
                    ready.push(succ);
                }
            }
        }
        if let Some((i, g)) = gates
            .iter()
            .enumerate()
            .find(|(i, g)| g.kind.is_comb() && pending[*i] > 0)
        {
            let _ = i;
            return Err(CircuitError::CombinationalCycle(g.name.clone()));
        }
        // `ready` visits nodes in nondecreasing level order already, but make
        // the invariant explicit (stable by id within a level).
        topo.sort_by_key(|&id| (levels[id.index()], id));
        let max_level = levels.iter().copied().max().unwrap_or(0);
        Ok(Circuit {
            name,
            gates,
            inputs,
            outputs,
            dffs,
            levels,
            topo,
            max_level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Circuit {
        // a, b inputs; q dff; g1 = AND(a, q); g2 = NOR(g1, b); q.D = g2; PO = g2
        let mut b = CircuitBuilder::new("toy");
        let a = b.input("a");
        let bb = b.input("b");
        let q = b.dff("q");
        let g1 = b.gate("g1", GateFn::And, vec![a, q]).unwrap();
        let g2 = b.gate("g2", GateFn::Nor, vec![g1, bb]).unwrap();
        b.set_dff_input(q, g2).unwrap();
        b.output(g2);
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_levelizes() {
        let c = toy();
        assert_eq!(c.num_comb_gates(), 2);
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        assert_eq!(c.level(g1), 1);
        assert_eq!(c.level(g2), 2);
        assert_eq!(c.topo_order(), &[g1, g2]);
        assert_eq!(c.stats().max_level, 2);
    }

    #[test]
    fn fanout_lists_are_populated() {
        let c = toy();
        let a = c.find("a").unwrap();
        let q = c.find("q").unwrap();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        assert_eq!(c.gate(a).fanout(), &[g1]);
        assert_eq!(c.gate(q).fanout(), &[g1]);
        assert_eq!(c.gate(g2).fanout(), &[q]);
        assert_eq!(c.gate(g1).fanout(), &[g2]);
    }

    #[test]
    fn dff_feedback_is_not_a_cycle() {
        let c = toy(); // q -> g1 -> g2 -> q closes through the DFF
        assert_eq!(c.level(c.find("q").unwrap()), 0);
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let mut b = CircuitBuilder::new("cyc");
        let a = b.input("a");
        // g1 and g2 feed each other; we must pre-reserve ids.
        let g1_placeholder = b.gate("g1", GateFn::And, vec![a]).unwrap();
        let g2 = b.gate("g2", GateFn::And, vec![g1_placeholder]).unwrap();
        // Close the loop by mutating g1's fanin through a fresh builder path:
        // rebuild with explicit cycle.
        let mut b2 = CircuitBuilder::new("cyc");
        let a = b2.input("a");
        let _ = a;
        let _ = g2;
        // Create the cycle using two gates that reference one another.
        let ga = b2.gate("ga", GateFn::Buf, vec![GateId(2)]).unwrap();
        let gb = b2.gate("gb", GateFn::Buf, vec![ga]).unwrap();
        assert_eq!(gb, GateId(2));
        b2.output(gb);
        let err = b2.finish().unwrap_err();
        assert!(matches!(err, CircuitError::CombinationalCycle(_)));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = CircuitBuilder::new("dup");
        b.input("a");
        b.input("a");
        let err = b.finish().unwrap_err();
        assert_eq!(err, CircuitError::DuplicateName("a".into()));
    }

    #[test]
    fn unbound_dff_is_rejected() {
        let mut b = CircuitBuilder::new("ub");
        let a = b.input("a");
        b.dff("q");
        b.output(a);
        let err = b.finish().unwrap_err();
        assert_eq!(err, CircuitError::UnboundDff("q".into()));
    }

    #[test]
    fn bad_arity_is_rejected() {
        let mut b = CircuitBuilder::new("ar");
        let a = b.input("a");
        let x = b.input("x");
        let err = b.gate("n", GateFn::Not, vec![a, x]).unwrap_err();
        assert!(matches!(err, CircuitError::BadArity { .. }));
        assert!(err.to_string().contains("NOT"));
        assert!(b.gate("w", GateFn::Xor, vec![a; MAX_FANIN]).is_ok());
        let err = b
            .gate("v", GateFn::Xor, vec![a; MAX_FANIN + 1])
            .unwrap_err();
        assert_eq!(err.to_string(), "gate \"v\": XOR cannot take 257 inputs");
    }

    #[test]
    fn missing_io_is_rejected() {
        let b = CircuitBuilder::new("empty");
        assert_eq!(b.finish().unwrap_err(), CircuitError::NoInputs);
        let mut b = CircuitBuilder::new("no_out");
        b.input("a");
        assert_eq!(b.finish().unwrap_err(), CircuitError::NoOutputs);
    }

    #[test]
    fn stats_and_display() {
        let c = toy();
        let s = c.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.comb_gates, 2);
        assert!(c.to_string().contains("2 gates"));
    }
}
