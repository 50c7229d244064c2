//! Fault-free ("good machine") simulators for synchronous sequential
//! circuits.
//!
//! Part of the workspace reproducing *Lee & Reddy, DAC 1992*. Two
//! simulators share the netlist substrate:
//!
//! * [`ZeroDelaySim`] — the paper's zero-delay levelized event-driven model
//!   (one step = one clock cycle), plus the oracle-grade [`FullSim`];
//! * [`DelaySim`] — arbitrary-delay two-phase event-driven simulation with a
//!   timing wheel, the general mode concurrent simulation is prized for.
//!
//! The 64-lane pattern-parallel good machine of the sharded fault
//! simulator lives next to its engine in `cfs-core`.
//!
//! # Examples
//!
//! ```
//! use cfs_goodsim::ZeroDelaySim;
//! use cfs_logic::parse_pattern;
//! use cfs_netlist::data::s27;
//!
//! let circuit = s27();
//! let mut sim = ZeroDelaySim::new(&circuit);
//! for p in ["0000", "1111", "0011"] {
//!     sim.step(&parse_pattern(p)?);
//! }
//! assert_eq!(sim.state().len(), 3);
//! # Ok::<(), cfs_logic::ParseLogicError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod delay;
mod vcd;
mod zero_delay;

pub use delay::{DelayModel, DelaySim};
pub use vcd::VcdRecorder;
pub use zero_delay::{is_source, FullSim, Pattern, ZeroDelaySim};
