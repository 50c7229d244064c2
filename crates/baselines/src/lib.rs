//! Reference fault simulators for validation.
//!
//! Part of the workspace reproducing *Lee & Reddy, DAC 1992*. None of them
//! shares code with the concurrent engine, which is what makes them
//! oracles:
//!
//! * [`SerialSim`] / [`FaultySim`] — one-fault-at-a-time golden reference,
//!   the correctness oracle for every other simulator;
//! * [`DeductiveSim`] — Armstrong's deductive method, whose per-gate
//!   fault-list simplicity the paper's data structure borrows;
//! * [`SerialTransitionSim`] — the serial oracle of the transition fault
//!   model.
//!
//! The paper's Tables 3–5 comparator, the PROOFS-style packed simulator,
//! is `cfs_core::ProofsSim`: it shares the packed step of the concurrent
//! engine's hot-fault words.
//!
//! # Examples
//!
//! ```
//! use cfs_baselines::{zero_state, DeductiveSim, SerialSim};
//! use cfs_faults::enumerate_stuck_at;
//! use cfs_logic::parse_pattern;
//! use cfs_netlist::data::s27;
//!
//! let circuit = s27();
//! let faults = enumerate_stuck_at(&circuit);
//! let patterns = vec![parse_pattern("0101")?, parse_pattern("1010")?];
//! let reset = zero_state(&circuit);
//! let serial = SerialSim::new(&circuit, &faults)
//!     .with_reset_state(reset.clone())
//!     .run(&patterns);
//! let deductive = DeductiveSim::new(&circuit, &faults, reset)
//!     .run(&patterns)
//!     .expect("binary patterns");
//! assert_eq!(serial.statuses, deductive.statuses);
//! # Ok::<(), cfs_logic::ParseLogicError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod deductive;
mod serial;
mod transition_ref;

pub use deductive::{zero_state, DeductiveError, DeductiveSim};
pub use serial::{FaultySim, SerialSim};
pub use transition_ref::SerialTransitionSim;
