//! The fault-free ("good machine") reference simulator and the per-gate
//! delay model.
//!
//! Part of the workspace reproducing *Lee & Reddy, DAC 1992*:
//!
//! * [`FullSim`] — re-evaluates every gate in level order every clock
//!   cycle, with no event-driven shortcuts; the serial oracle's good
//!   machine and ATPG's time-frame unrolling are tested against it;
//! * [`DelayModel`] — per-gate propagation delays, the input of
//!   `cfs_core::DelayCsim`, the paper's arbitrary-delay concurrent mode.
//!
//! Every fault simulator runs its own good machine.
//!
//! # Examples
//!
//! ```
//! use cfs_goodsim::FullSim;
//! use cfs_logic::parse_pattern;
//! use cfs_netlist::data::s27;
//!
//! let circuit = s27();
//! let mut sim = FullSim::new(&circuit);
//! let mut outputs = Vec::new();
//! for p in ["0000", "1111", "0011"] {
//!     outputs = sim.step(&parse_pattern(p)?);
//! }
//! assert_eq!(outputs.len(), 1);
//! # Ok::<(), cfs_logic::ParseLogicError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod delay;
mod zero_delay;

pub use delay::DelayModel;
pub use zero_delay::FullSim;
