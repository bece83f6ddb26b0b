//! Observability for SemHolo runs.
//!
//! Everything upstream of this crate *simulates*; this crate *judges*.
//! Three pieces, one contract — every number is a pure function of the
//! run, byte-identical across repeats and thread counts:
//!
//! - [`LatencySketch`] (re-exported from `holo-trace`, where the
//!   recorder stores its histograms in it): bounded-memory HDR-style
//!   latency histograms whose [`LatencySketch::absorb`] merge is
//!   exact, so fleet-scale aggregation costs O(buckets), not O(frames).
//! - [`attribution`]: reassembles every delivered frame's span chain
//!   into an additive stage budget (extract / encode / uplink /
//!   SFU-forward / cascade-hop / downlink / decode / render) that tiles
//!   the measured end-to-end latency **exactly** in integer µs.
//! - [`slo`]: declarative objectives (p99 motion-to-photon, usable
//!   rate, tier floors) evaluated over report-level summaries.
//!
//! See DESIGN.md §12 for how the pieces compose.

pub mod attribution;
pub mod slo;

pub use attribution::{
    collect_paths, Attribution, AttributionOptions, AttributionReport, FramePath, Segment, Stage,
};
pub use holo_trace::LatencySketch;
pub use slo::{SloSpec, SloSummary, SloVerdict};
