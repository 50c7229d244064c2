//! Zero-delay simulation of the fault-free machine.
//!
//! §2.1 of the paper: for synchronous circuits "only the second phase is
//! necessary since the evaluated value can be assigned directly on the
//! output as long as the gate evaluation is done orderly according to its
//! level".

use cfs_logic::Logic;
use cfs_netlist::{Circuit, GateId};

/// Oracle-grade full simulation: re-evaluates every gate every cycle in
/// level order, with no event-driven shortcuts. One [`FullSim::step`] is
/// one clock cycle: primary inputs are applied, every gate is evaluated,
/// primary outputs are sampled, and flip-flops latch their D values.
/// Flip-flop state starts at `X`.
#[derive(Debug, Clone)]
pub struct FullSim<'c> {
    circuit: &'c Circuit,
    values: Vec<Logic>,
}

impl<'c> FullSim<'c> {
    /// Creates a full simulator with all state at `X`.
    pub fn new(circuit: &'c Circuit) -> Self {
        FullSim {
            circuit,
            values: vec![Logic::X; circuit.num_nodes()],
        }
    }

    /// Simulates one clock cycle and returns the sampled primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn step(&mut self, inputs: &[Logic]) -> Vec<Logic> {
        assert_eq!(inputs.len(), self.circuit.num_inputs());
        for (&pi, &v) in self.circuit.inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        let mut scratch = Vec::new();
        for &id in self.circuit.topo_order() {
            let gate = self.circuit.gate(id);
            scratch.clear();
            for &src in gate.fanin() {
                scratch.push(self.values[src.index()]);
            }
            let f = gate.kind().gate_fn().expect("topo order holds gates");
            self.values[id.index()] = f.eval(&scratch);
        }
        let outputs: Vec<Logic> = self
            .circuit
            .outputs()
            .iter()
            .map(|&po| self.values[po.index()])
            .collect();
        let updates: Vec<(GateId, Logic)> = self
            .circuit
            .dffs()
            .iter()
            .map(|&q| (q, self.values[self.circuit.gate(q).fanin()[0].index()]))
            .collect();
        for (q, v) in updates {
            self.values[q.index()] = v;
        }
        outputs
    }
}
