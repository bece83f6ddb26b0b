//! Deterministic mutation fuzzing for every SemHolo wire decoder.
//!
//! Every byte string that crosses the network in this codebase — coded
//! meshes, LZMA streams, pose keyframes and deltas, captions, wire
//! envelopes — eventually reaches a decoder that must uphold the
//! hostile-input contract (DESIGN.md §9):
//!
//! 1. **never panic**, whatever the bytes;
//! 2. **never allocate beyond a declared cap** before validating the
//!    input that justifies the allocation;
//! 3. **round-trip valid input** (real encoder output decodes cleanly).
//!
//! This crate checks all three, deterministically. [`corpus`] builds
//! seeds from the *real* encoders, [`mutate`] derives hostile variants
//! (truncations, bit/byte flips, splices, targeted length-field
//! inflation) from `holo-math`'s seeded PCG stream, [`targets`] lists
//! every public decoder behind one closure type, and [`harness`] sweeps
//! the matrix and renders a canonical `FUZZ_report.json` whose bytes
//! depend only on the seed — two same-seed runs byte-compare equal,
//! which the workspace's `tests/committed_reports.rs` checks against the
//! committed file.
//!
//! There is no wall clock, no thread, and no dependency outside the
//! workspace: the whole harness is a deterministic function of its
//! seed, so a failing mutant is reproducible from `(seed, index)`
//! alone.

pub mod alloc;
pub mod corpus;
pub mod harness;
pub mod mutate;
pub mod targets;

pub use alloc::TrackingAllocator;
pub use harness::{run_sweep, FuzzConfig, FuzzReport, TargetReport};
pub use mutate::Mutator;
pub use targets::{registry, Target};
