//! Per-gate propagation delays for arbitrary-delay simulation.
//!
//! Concurrent fault simulation's industrial appeal (§1 of the paper) is its
//! "flexibility to allow arbitrary delay fault simulation (i.e., the circuit
//! gates may have arbitrary but known propagation delays)". `DelayCsim` in
//! `cfs-core` runs that mode; this model is its input.

use cfs_netlist::{Circuit, GateId};

/// Per-gate propagation delays (simulation time units).
///
/// Primary inputs and flip-flop clock-to-Q delays are also representable;
/// a delay of zero is legal (the event matures in the current time step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayModel {
    delays: Vec<u32>,
}

impl DelayModel {
    /// Unit delay for every node.
    pub fn unit(circuit: &Circuit) -> Self {
        DelayModel {
            delays: vec![1; circuit.num_nodes()],
        }
    }

    /// Arbitrary delays computed per node.
    pub fn from_fn(circuit: &Circuit, mut f: impl FnMut(GateId) -> u32) -> Self {
        DelayModel {
            delays: (0..circuit.num_nodes())
                .map(|i| f(GateId::from_index(i)))
                .collect(),
        }
    }

    /// The delay of one node.
    #[inline]
    pub fn of(&self, id: GateId) -> u32 {
        self.delays[id.index()]
    }
}
