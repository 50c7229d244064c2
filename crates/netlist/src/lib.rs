//! Gate-level netlists for synchronous sequential circuits.
//!
//! This crate is the structural substrate of the workspace's reproduction of
//! *Lee & Reddy, DAC 1992*: the circuit model the fault simulators run on,
//! the ISCAS-89 `.bench` reader/writer, levelization for zero-delay
//! simulation, the paper's macro (fanout-free region) extraction, and a
//! seeded generator for ISCAS-like benchmark circuits.
//!
//! # Examples
//!
//! ```
//! use cfs_netlist::{data, extract_macros};
//!
//! let circuit = data::s27();
//! assert_eq!(circuit.num_comb_gates(), 10);
//!
//! let macros = extract_macros(&circuit, 7);
//! assert!(macros.num_cells() < circuit.num_comb_gates());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bench;
mod circuit;
pub mod data;
mod edit;
pub mod generate;
mod macros;

pub use bench::{
    parse_bench, parse_bench_with_provenance, write_bench, BenchProvenance, ParseBenchError,
};
pub use circuit::{
    Circuit, CircuitBuilder, CircuitError, CircuitStats, Gate, GateId, GateKind, MAX_FANIN,
};
pub use edit::{
    apply_edit, apply_edit_with_base, edit_candidates, retype_swap, AppliedEdit, BenchEdit,
    EditError,
};
pub use generate::{benchmark, benchmark_spec, CircuitSpec, ISCAS89_SPECS};
pub use macros::{
    extract_macros, CellPlan, MacroCell, MacroCircuit, MacroFaultSite, PlanFault, PlanStep,
    DEFAULT_MACRO_MAX_INPUTS,
};
