//! Eye-gaze substrate for the foveated hybrid pipeline (§3.1).
//!
//! The paper proposes transmitting full-detail mesh only for the viewer's
//! foveal region, with keypoints for the periphery, and identifies the
//! three canonical gaze movement classes — fixation, smooth pursuit, and
//! saccade — plus saccade-landing prediction as the way to keep the foveal
//! region ahead of the eye. This crate provides all of it:
//!
//! - [`trace`] — a seeded gaze synthesizer producing fixation / pursuit /
//!   saccade segments with realistic durations, amplitudes, and the
//!   main-sequence velocity profile of real saccades.
//! - [`classify`] — the I-VT velocity-threshold classifier (fixation < 30
//!   deg/s < pursuit < 100 deg/s < saccade, per Li & Zhou and standard
//!   practice).
//! - [`landing`] — ballistic saccade landing-point prediction from the
//!   first observed samples of a saccade.
//! - [`foveation`] — mapping a gaze direction and foveal radius onto a
//!   screen-space partition (foveal / peripheral) of scene content.

pub mod classify;
pub mod foveation;
pub mod landing;
pub mod trace;

pub use classify::{GazeClass, IvtClassifier};
pub use foveation::FoveationMap;
pub use landing::SaccadePredictor;
pub use trace::{GazeSample, GazeSynthesizer};
