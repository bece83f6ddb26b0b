//! Keypoint detector simulators.
//!
//! A DL pose estimator is, from the pipeline's point of view, a function
//! from the true body state to a noisy, occasionally-missing set of 3D
//! keypoints plus a compute cost. We simulate exactly that interface with
//! the error model of §2.3's **direct RGB-D** family (Kinect body
//! tracking): axial depth noise dominates; per-keypoint error ~1 cm at
//! 2 m; cheap (runs on the sensor SDK).
//!
//! Occluded keypoints (back-facing relative to the camera ring) have a
//! higher miss probability; misses are reported as `None` so the filter
//! and fitting stages must handle them — as in a real system.

use holo_capture::noise::DepthNoiseModel;
use holo_math::{Pcg32, Vec3};

/// A direct RGB-D detector (fast, balanced error).
#[derive(Debug, Clone)]
pub struct KeypointDetector {
    /// Observing camera position (for axial error direction and
    /// occlusion).
    pub camera_pos: Vec3,
    /// Base miss probability per keypoint.
    pub miss_rate: f32,
    noise: DepthNoiseModel,
}

impl KeypointDetector {
    /// Detector with family-typical error parameters.
    pub fn new(camera_pos: Vec3) -> Self {
        let noise = DepthNoiseModel {
            sigma_base: 0.008,
            sigma_quadratic: 0.0015,
            dropout_base: 0.0,
            grazing_cos_threshold: 0.0,
        };
        Self { camera_pos, miss_rate: 0.01, noise }
    }

    /// Model-inference compute cost per frame, in GFLOPs (a Kinect-class
    /// body tracking network). Used by the GPU cost model to attribute
    /// extraction latency (Table 1's "extract" column).
    pub fn gflops_per_frame(keypoints: usize) -> f64 {
        4.0 + keypoints as f64 * 0.02
    }

    /// Observe the true keypoint set: each true position becomes a noisy
    /// measurement or `None` (missed detection).
    pub fn detect(&self, truth: &[Vec3], rng: &mut Pcg32) -> Vec<Option<Vec3>> {
        truth
            .iter()
            .map(|&p| {
                if rng.chance(self.miss_rate) {
                    None
                } else {
                    Some(self.noise.perturb_point(p, self.camera_pos, rng))
                }
            })
            .collect()
    }

    /// Fill misses with the previous frame's estimate (the standard
    /// zero-order hold a tracking front-end applies).
    pub fn detect_with_hold(
        &self,
        truth: &[Vec3],
        previous: Option<&[Vec3]>,
        rng: &mut Pcg32,
    ) -> Vec<Vec3> {
        self.detect(truth, rng)
            .into_iter()
            .enumerate()
            .map(|(i, obs)| match obs {
                Some(p) => p,
                None => previous.and_then(|prev| prev.get(i).copied()).unwrap_or(truth[i]),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<Vec3> {
        (0..50)
            .map(|i| Vec3::new((i as f32 * 0.61).sin(), 1.0 + (i as f32 * 0.37).cos() * 0.5, 0.0))
            .collect()
    }

    /// Analytic RMS position error at a given subject distance: the
    /// oracle the empirical noise profile is held to.
    fn expected_rms(det: &KeypointDetector, distance: f32) -> f32 {
        let s = det.noise.sigma_at(distance);
        (s * s * (1.0 + 2.0 * 0.16)).sqrt()
    }

    #[test]
    fn direct_detector_error_in_range() {
        let det = KeypointDetector::new(Vec3::new(0.0, 1.2, 2.0));
        let mut rng = Pcg32::new(1);
        let t = truth();
        let mut sum = 0.0;
        let mut n = 0;
        for _ in 0..200 {
            for (obs, tr) in det.detect(&t, &mut rng).iter().zip(&t) {
                if let Some(p) = obs {
                    sum += (*p - *tr).length_sq();
                    n += 1;
                }
            }
        }
        let rms = (sum / n as f32).sqrt();
        assert!((0.005..0.03).contains(&rms), "direct RMS {rms}");
    }

    #[test]
    fn misses_happen_and_hold_fills_them() {
        let det = KeypointDetector::new(Vec3::new(0.0, 1.2, 2.0));
        let mut rng = Pcg32::new(3);
        let t = truth();
        let mut missed = 0;
        for _ in 0..100 {
            missed += det.detect(&t, &mut rng).iter().filter(|o| o.is_none()).count();
        }
        assert!(missed > 20, "missed {missed}");
        // Hold never produces gaps.
        let prev = t.clone();
        let held = det.detect_with_hold(&t, Some(&prev), &mut rng);
        assert_eq!(held.len(), t.len());
    }

    #[test]
    fn expected_rms_matches_empirical() {
        let cam = Vec3::new(0.0, 1.0, 2.0);
        let det = KeypointDetector::new(cam);
        let p = Vec3::new(0.0, 1.0, 0.0);
        let mut rng = Pcg32::new(4);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            if let Some(q) = det.detect(&[p], &mut rng)[0] {
                sum += (q - p).length_sq();
            }
        }
        let rms = (sum / n as f32).sqrt();
        let expected = expected_rms(&det, 2.0);
        assert!((rms - expected).abs() / expected < 0.1, "rms {rms} vs {expected}");
    }
}
