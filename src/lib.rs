//! Workspace host crate for the SemHolo reproduction.
//!
//! This crate exists to anchor the workspace-level `examples/` (runnable
//! scenario binaries) and `tests/` (cross-crate integration and property
//! tests); the library surface lives in the member crates:
//!
//! - [`semholo`] — the paper's contribution (pipelines, sessions, QoE).
//! - `holo-*` — the substrates (math, mesh, body, compress, capture,
//!   keypoints, neural, textsem, gaze, net, gpu).
//!
//! See `README.md` for the map and `DESIGN.md` / `EXPERIMENTS.md` for
//! the reproduction methodology and results.

pub mod reports;

/// Re-export of the core crate for convenience in examples and tests.
pub use semholo;
