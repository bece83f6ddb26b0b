//! I-VT gaze movement classification.
//!
//! §3.1: "one can classify gaze movements into three patterns: fixation,
//! smooth pursuit, and saccades, determined by their speeds ranging from
//! low to high". The velocity-threshold (I-VT) classifier does exactly
//! that, with a short median filter over instantaneous velocities to
//! suppress tracker noise.

use crate::trace::GazeSample;

/// Movement class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GazeClass {
    /// Eye nearly stationary (< pursuit threshold).
    Fixation,
    /// Smooth target tracking (between thresholds).
    Pursuit,
    /// Ballistic jump (> saccade threshold).
    Saccade,
}

impl GazeClass {
    /// Numeric label matching `trace::CLASS_*`.
    pub fn label(self) -> u8 {
        match self {
            GazeClass::Fixation => 0,
            GazeClass::Pursuit => 1,
            GazeClass::Saccade => 2,
        }
    }
}

/// Velocity-threshold classifier.
#[derive(Debug, Clone)]
pub struct IvtClassifier {
    /// Below this angular speed (deg/s): fixation.
    pub fixation_max: f32,
    /// Above this angular speed (deg/s): saccade.
    pub saccade_min: f32,
    /// Median filter window (odd, samples).
    pub median_window: usize,
}

impl Default for IvtClassifier {
    fn default() -> Self {
        Self { fixation_max: 30.0, saccade_min: 100.0, median_window: 3 }
    }
}

impl IvtClassifier {
    /// Classify each sample of a trace. The result has the same length.
    pub fn classify(&self, samples: &[GazeSample]) -> Vec<GazeClass> {
        if samples.len() < 2 {
            return vec![GazeClass::Fixation; samples.len()];
        }
        // Instantaneous velocity per sample (backward difference).
        let mut vel = Vec::with_capacity(samples.len());
        vel.push(0.0f32);
        for w in samples.windows(2) {
            let dt = (w[1].t - w[0].t).max(1e-5);
            vel.push(w[0].pos.distance(w[1].pos) / dt);
        }
        // Median filter.
        let half = self.median_window / 2;
        let smoothed: Vec<f32> = (0..vel.len())
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(vel.len());
                let mut w: Vec<f32> = vel[lo..hi].to_vec();
                w.sort_by(|a, b| a.partial_cmp(b).unwrap());
                w[w.len() / 2]
            })
            .collect();
        smoothed
            .iter()
            .map(|&v| {
                if v < self.fixation_max {
                    GazeClass::Fixation
                } else if v < self.saccade_min {
                    GazeClass::Pursuit
                } else {
                    GazeClass::Saccade
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::GazeSynthesizer;

    impl IvtClassifier {
        /// Classification accuracy against the trace's ground-truth labels.
        fn accuracy(&self, samples: &[GazeSample]) -> f32 {
            if samples.is_empty() {
                return 0.0;
            }
            let classes = self.classify(samples);
            let correct = classes
                .iter()
                .zip(samples)
                .filter(|(c, s)| c.label() == s.true_class)
                .count();
            correct as f32 / samples.len() as f32
        }
    }

    #[test]
    fn accuracy_high_on_synthetic_trace() {
        let mut synth = GazeSynthesizer::new(11);
        let samples = synth.generate(30.0);
        let acc = IvtClassifier::default().accuracy(&samples);
        assert!(acc > 0.8, "I-VT accuracy {acc}");
    }

    #[test]
    fn saccade_recall_specifically() {
        let mut synth = GazeSynthesizer::new(12);
        let samples = synth.generate(30.0);
        let classes = IvtClassifier::default().classify(&samples);
        let mut tp = 0;
        let mut total = 0;
        for (c, s) in classes.iter().zip(&samples) {
            if s.true_class == 2 {
                total += 1;
                if *c == GazeClass::Saccade {
                    tp += 1;
                }
            }
        }
        let recall = tp as f32 / total.max(1) as f32;
        assert!(recall > 0.6, "saccade recall {recall}");
    }

    #[test]
    fn short_traces_handled() {
        let ivt = IvtClassifier::default();
        assert!(ivt.classify(&[]).is_empty());
        let one = [GazeSample { t: 0.0, pos: holo_math::Vec2::ZERO, true_class: 0 }];
        assert_eq!(ivt.classify(&one).len(), 1);
    }

    #[test]
    fn thresholds_separate_speeds() {
        // Hand-built trace: 1 s still, then fast jump.
        let mut samples = Vec::new();
        for i in 0..120 {
            samples.push(GazeSample {
                t: i as f32 / 120.0,
                pos: holo_math::Vec2::new(0.0, 0.0),
                true_class: 0,
            });
        }
        for i in 0..6 {
            samples.push(GazeSample {
                t: 1.0 + i as f32 / 120.0,
                pos: holo_math::Vec2::new(i as f32 * 2.0, 0.0), // 240 deg/s
                true_class: 2,
            });
        }
        let classes = IvtClassifier::default().classify(&samples);
        assert_eq!(classes[60], GazeClass::Fixation);
        assert_eq!(classes[123], GazeClass::Saccade);
    }
}
