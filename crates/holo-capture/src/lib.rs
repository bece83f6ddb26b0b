//! Synthetic RGB-D capture substrate.
//!
//! The paper's pipeline starts with "multiple RGB(-D) sensors capturing"
//! each participant (Fig. 1). Real Kinect hardware is not available here,
//! so this crate simulates it end to end: pinhole cameras with intrinsics
//! and extrinsics ([`camera`]), depth + color rendering of any SDF by
//! sphere tracing, four rays at a time on lanes that refill ([`render`]),
//! Kinect-class depth noise and dropout models ([`noise`]), and
//! multi-camera rigs whose frames fuse into colored point clouds
//! ([`rig`]). All randomness is seeded, so captures replay exactly, and
//! a capture's every bit is the one a pixel-by-pixel renderer produces.

pub mod camera;
pub mod noise;
pub mod render;
pub mod rig;

pub use camera::{Camera, CameraIntrinsics};
pub use noise::DepthNoiseModel;
pub use render::{render_rgbd, DepthImage, RgbdFrame, ShadingConfig};
pub use rig::{CaptureRig, RigConfig};
