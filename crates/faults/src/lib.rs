//! Fault models for gate-level fault simulation.
//!
//! Part of the workspace reproducing *Lee & Reddy, DAC 1992*. Provides the
//! single stuck-at model with structural equivalence collapsing, the paper's
//! transition (gross delay) fault model for synchronous sequential circuits
//! (§3, Table 1), and the shared fault-status / report types every simulator
//! in the workspace returns.
//!
//! # Examples
//!
//! ```
//! use cfs_faults::{collapse_stuck_at, enumerate_stuck_at};
//! use cfs_netlist::data::s27;
//!
//! let c = s27();
//! let all = enumerate_stuck_at(&c);
//! let collapsed = collapse_stuck_at(&c);
//! assert!(collapsed.num_classes() < all.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod impact;
mod prune;
mod status;
mod stuck_at;
mod transition;

pub use impact::{ImpactFate, ImpactStats, ImpactUniverse};
pub use prune::{FaultFate, PruneReason, PruneStats, PrunedUniverse};
pub use status::{FaultSimReport, FaultStatus};
pub use stuck_at::{
    collapse_stuck_at, collapse_stuck_at_exact, dominance_collapse, enumerate_stuck_at,
    CollapsedFaults, DominanceCollapse, FaultSite, StuckAt,
};
pub use transition::{enumerate_transition, transition_value, Edge, TransitionFault};
