//! Synthetic gaze traces.
//!
//! A state machine alternates fixations (with physiological tremor and
//! micro-drift), smooth pursuits (constant angular velocity toward a
//! moving target), and saccades (ballistic jumps following the "main
//! sequence": peak velocity grows with amplitude, duration ~2.2 ms/deg +
//! 21 ms, minimum-jerk velocity profile). Angles are in degrees of visual
//! field; positions are 2D (azimuth, elevation).

use holo_math::{Pcg32, Vec2};

/// One gaze sample.
#[derive(Debug, Clone, Copy)]
pub struct GazeSample {
    /// Time, seconds.
    pub t: f32,
    /// Gaze position, degrees (azimuth, elevation).
    pub pos: Vec2,
    /// True generating state (for classifier evaluation).
    pub true_class: u8,
}

/// Ground-truth class labels used in [`GazeSample::true_class`].
pub const CLASS_FIXATION: u8 = 0;
pub const CLASS_PURSUIT: u8 = 1;
pub const CLASS_SACCADE: u8 = 2;

/// Sampling rate, Hz (eye trackers: 90-240).
const SAMPLE_RATE: f32 = 120.0;
/// Fixation duration range, seconds.
const FIXATION_DURATION: (f32, f32) = (0.15, 0.5);
/// Saccade amplitude range, degrees.
const SACCADE_AMPLITUDE: (f32, f32) = (3.0, 18.0);
/// Probability that a movement is a smooth pursuit instead of a saccade.
const PURSUIT_PROBABILITY: f32 = 0.25;
/// Pursuit angular speed range, degrees/second.
const PURSUIT_SPEED: (f32, f32) = (35.0, 80.0);
/// Fixation tremor standard deviation, degrees.
const TREMOR_SIGMA: f32 = 0.03;
/// Field of view half-extent, degrees (gaze stays inside).
const FOV_HALF: f32 = 40.0;

/// Saccade duration from amplitude (main sequence): ~2.2 ms/deg + 21 ms.
pub fn saccade_duration(amplitude_deg: f32) -> f32 {
    0.021 + 0.0022 * amplitude_deg
}

/// Minimum-jerk position profile on [0, 1].
fn min_jerk(s: f32) -> f32 {
    let s = s.clamp(0.0, 1.0);
    s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)
}

/// Deterministic gaze trace generator.
pub struct GazeSynthesizer {
    rng: Pcg32,
}

impl GazeSynthesizer {
    /// Create with a seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: Pcg32::new(seed) }
    }

    /// Generate `duration_s` seconds of gaze.
    pub fn generate(&mut self, duration_s: f32) -> Vec<GazeSample> {
        let dt = 1.0 / SAMPLE_RATE;
        let n = (duration_s * SAMPLE_RATE) as usize;
        let mut samples = Vec::with_capacity(n);
        let mut pos = Vec2::new(0.0, 0.0);
        let mut t = 0.0f32;

        while samples.len() < n {
            // Fixation.
            let fix_dur = self.rng.range_f32(FIXATION_DURATION.0, FIXATION_DURATION.1);
            let fix_end = t + fix_dur;
            let anchor = pos;
            while t < fix_end && samples.len() < n {
                let tremor = Vec2::new(self.rng.normal(), self.rng.normal()) * TREMOR_SIGMA;
                pos = anchor + tremor;
                samples.push(GazeSample { t, pos, true_class: CLASS_FIXATION });
                t += dt;
            }
            if samples.len() >= n {
                break;
            }
            // Movement: pursuit or saccade toward a new target.
            let target = self.pick_target(anchor);
            if self.rng.chance(PURSUIT_PROBABILITY) {
                let speed = self.rng.range_f32(PURSUIT_SPEED.0, PURSUIT_SPEED.1);
                let dist = anchor.distance(target);
                let dur = (dist / speed).clamp(0.2, 1.5);
                let end = t + dur;
                let start_t = t;
                let start = pos;
                while t < end && samples.len() < n {
                    let s = (t - start_t) / dur;
                    pos = start.lerp(target, s)
                        + Vec2::new(self.rng.normal(), self.rng.normal()) * (TREMOR_SIGMA * 0.5);
                    samples.push(GazeSample { t, pos, true_class: CLASS_PURSUIT });
                    t += dt;
                }
            } else {
                let amp = anchor.distance(target);
                let dur = saccade_duration(amp);
                let end = t + dur;
                let start_t = t;
                let start = pos;
                while t < end && samples.len() < n {
                    let s = (t - start_t) / dur;
                    pos = start.lerp(target, min_jerk(s));
                    samples.push(GazeSample { t, pos, true_class: CLASS_SACCADE });
                    t += dt;
                }
                pos = target;
            }
        }
        samples
    }

    fn pick_target(&mut self, from: Vec2) -> Vec2 {
        for _ in 0..32 {
            let amp = self.rng.range_f32(SACCADE_AMPLITUDE.0, SACCADE_AMPLITUDE.1);
            let theta = self.rng.range_f32(0.0, std::f32::consts::TAU);
            let target = from + Vec2::new(amp * theta.cos(), amp * theta.sin());
            if target.x.abs() < FOV_HALF && target.y.abs() < FOV_HALF {
                return target;
            }
        }
        Vec2::new(0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seed: u64, secs: f32) -> Vec<GazeSample> {
        GazeSynthesizer::new(seed).generate(secs)
    }

    #[test]
    fn trace_has_expected_length_and_bounds() {
        let s = trace(1, 5.0);
        assert_eq!(s.len(), 600);
        for g in &s {
            assert!(g.pos.x.abs() < 45.0 && g.pos.y.abs() < 45.0, "gaze out of fov: {:?}", g.pos);
        }
    }

    #[test]
    fn contains_all_three_classes() {
        let s = trace(2, 20.0);
        let count = |c: u8| s.iter().filter(|g| g.true_class == c).count();
        assert!(count(CLASS_FIXATION) > s.len() / 3, "fixations dominate normal viewing");
        assert!(count(CLASS_SACCADE) > 10);
        assert!(count(CLASS_PURSUIT) > 10);
    }

    #[test]
    fn saccades_are_fast_fixations_slow() {
        let s = trace(3, 20.0);
        let dt = 1.0 / 120.0;
        let mut sacc_v = Vec::new();
        let mut fix_v = Vec::new();
        for w in s.windows(2) {
            let v = w[0].pos.distance(w[1].pos) / dt;
            if w[0].true_class == CLASS_SACCADE && w[1].true_class == CLASS_SACCADE {
                sacc_v.push(v);
            }
            if w[0].true_class == CLASS_FIXATION && w[1].true_class == CLASS_FIXATION {
                fix_v.push(v);
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(mean(&sacc_v) > 100.0, "saccade speed {}", mean(&sacc_v));
        assert!(mean(&fix_v) < 40.0, "fixation speed {}", mean(&fix_v));
    }

    #[test]
    fn main_sequence_monotone() {
        assert!(saccade_duration(20.0) > saccade_duration(5.0));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = trace(7, 3.0);
        let b = trace(7, 3.0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pos, y.pos);
        }
    }

    #[test]
    fn min_jerk_endpoints() {
        assert_eq!(min_jerk(0.0), 0.0);
        assert!((min_jerk(1.0) - 1.0).abs() < 1e-6);
        assert!(min_jerk(0.5) > 0.4 && min_jerk(0.5) < 0.6);
    }
}
