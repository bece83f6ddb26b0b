//! Configuration.

use holo_body::motion::MotionKind;
use holo_capture::camera::CameraIntrinsics;
use holo_capture::rig::RigConfig;

/// Top-level configuration shared by pipelines and sessions.
#[derive(Debug, Clone)]
pub struct SemHoloConfig {
    /// Capture/display frame rate.
    pub fps: f32,
    /// Motion the captured participant performs.
    pub motion: MotionKind,
    /// Master seed; every stochastic component forks from it.
    pub seed: u64,
    /// Cameras in the capture ring.
    pub camera_count: usize,
    /// Per-camera capture resolution (width, height).
    pub capture_resolution: (u32, u32),
}

impl Default for SemHoloConfig {
    fn default() -> Self {
        Self {
            fps: 30.0,
            motion: MotionKind::Talking,
            seed: 42,
            camera_count: 4,
            capture_resolution: (96, 72),
        }
    }
}

impl SemHoloConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(1.0..=240.0).contains(&self.fps) {
            return Err(format!("fps {} out of range", self.fps));
        }
        if self.camera_count == 0 {
            return Err("need at least one camera".into());
        }
        Ok(())
    }

    /// Rig configuration derived from this config.
    pub fn rig_config(&self) -> RigConfig {
        RigConfig {
            camera_count: self.camera_count,
            intrinsics: CameraIntrinsics::from_fov(
                self.capture_resolution.0,
                self.capture_resolution.1,
                1.1,
            ),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SemHoloConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(SemHoloConfig { fps: 0.0, ..Default::default() }.validate().is_err());
        assert!(SemHoloConfig { camera_count: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn rig_config_reflects_settings() {
        let c = SemHoloConfig { camera_count: 6, capture_resolution: (128, 96), ..Default::default() };
        let rig = c.rig_config();
        assert_eq!(rig.camera_count, 6);
        assert_eq!(rig.intrinsics.width, 128);
    }
}
