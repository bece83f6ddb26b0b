//! 3D keypoint detection, filtering, and skeleton fitting.
//!
//! §2.3 describes two families of 3D keypoint detectors: direct RGB-D
//! extraction (fast, depth-sensor accurate) and 2D-detection-plus-lifting
//! (works from RGB alone, but with extra compute and more depth error).
//! [`detector`] simulates the first — the one the proof of concept runs —
//! as a noisy observation process with that family's error and latency
//! characteristics. [`filter`] provides the One-Euro temporal smoother
//! real systems run on detector output, and [`fit`] recovers SMPL-X
//! parameters from noisy keypoints by hierarchical rotation fitting —
//! the "keypoints aligned with SMPL-X" step the paper's
//! proof-of-concept transmits.

pub mod detector;
pub mod filter;
pub mod fit;

pub use detector::KeypointDetector;
pub use filter::OneEuroFilter;
pub use fit::fit_params;
