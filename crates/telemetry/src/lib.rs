//! Per-pattern instrumentation for the concurrent fault simulator.
//!
//! The concurrent algorithm's cost model (Lee & Reddy, DAC 1992) is driven
//! by quantities the wall clock alone cannot show: how long fault lists get,
//! how many list elements each node evaluation touches, what fraction of
//! them are *visible* (differ from the good machine at the node output), and
//! how often faulty machines diverge from and converge back to the good
//! machine. This crate records exactly those quantities, per pattern,
//! without slowing the simulator down when it is not looking.
//!
//! The design is a compile-time probe: the engine is generic over a
//! [`Probe`] implementation, and the default [`NullProbe`] has empty
//! `#[inline]` methods and `ENABLED = false`, so the instrumented call
//! sites monomorphize to nothing. The recording implementation,
//! [`SimMetrics`], accumulates per-pattern counter sets
//! ([`PatternCounters`]), log2-bucketed histograms ([`Log2Histogram`]) of
//! fault-list length and event-queue depth, and per-phase wall times
//! ([`PhaseTimes`]). Results are consumed as a [`MetricsSnapshot`]
//! (aggregates for tables and benches), rendered with [`render_summary_table`],
//! or streamed as JSON lines with [`JsonlWriter`].
//!
//! This crate deliberately depends on nothing but `std`, so every layer of
//! the workspace (core, baselines, bench, CLI) can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod json;
mod metrics;
mod probe;
mod sink;
mod snapshot;
mod timing;

pub use hist::Log2Histogram;
pub use json::{write_json_f64, write_json_string, JsonValue};
pub use metrics::{PatternCounters, PatternRecord, SimMetrics};
pub use probe::{NullProbe, PairProbe, Probe};
pub use sink::{render_histogram, render_phase_table, render_summary_table, JsonlWriter};
pub use snapshot::MetricsSnapshot;
pub use timing::{Phase, PhaseTimes};
