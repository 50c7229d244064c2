//! Baseline fault simulators for comparison and validation.
//!
//! Part of the workspace reproducing *Lee & Reddy, DAC 1992*:
//!
//! * [`ProofsSim`] — a PROOFS-style bit-parallel single-fault-propagation
//!   simulator (Niermann/Cheng/Patel, DAC 1990), the paper's comparator in
//!   Tables 3–5;
//! * [`SerialSim`] / [`FaultySim`] — one-fault-at-a-time golden reference,
//!   the correctness oracle for every other simulator;
//! * [`DeductiveSim`] — Armstrong's deductive method, whose per-gate
//!   fault-list simplicity the paper's data structure borrows.
//!
//! # Examples
//!
//! ```
//! use cfs_baselines::{ProofsSim, SerialSim};
//! use cfs_faults::enumerate_stuck_at;
//! use cfs_logic::parse_pattern;
//! use cfs_netlist::data::s27;
//!
//! let circuit = s27();
//! let faults = enumerate_stuck_at(&circuit);
//! let patterns = vec![parse_pattern("0101")?, parse_pattern("1010")?];
//! let serial = SerialSim::new(&circuit, &faults).run(&patterns);
//! let proofs = ProofsSim::new(&circuit, &faults).run(&patterns);
//! assert_eq!(serial.detected(), proofs.detected());
//! # Ok::<(), cfs_logic::ParseLogicError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod deductive;
mod proofs;
mod serial;
mod transition_ref;

pub use deductive::{zero_state, DeductiveError, DeductiveSim};
pub use proofs::ProofsSim;
pub use serial::{FaultySim, SerialSim};
pub use transition_ref::SerialTransitionSim;
