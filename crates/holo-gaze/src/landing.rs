//! Saccade landing-point prediction.
//!
//! §3.1: "by leveraging saccadic omission, we can predict mainly the
//! landing positions of saccades to improve QoE". Because saccades are
//! ballistic, the landing point is determined early in flight: fitting
//! the main-sequence amplitude-velocity relation to the first observed
//! samples predicts where the eye will land tens of milliseconds before
//! it does — enough lead time to prefetch the foveal region.

use crate::trace::GazeSample;
use holo_math::Vec2;

/// Sampling-bias correction applied to the observed peak velocity (see
/// [`SaccadePredictor::predict`]); calibrated on synthetic traces.
pub const VELOCITY_CORRECTION: f32 = 1.08;

/// Predicts the landing point of an in-flight saccade.
#[derive(Debug, Clone, Default)]
pub struct SaccadePredictor {
    onset: Option<(f32, Vec2)>,
    peak_velocity: f32,
    direction: Vec2,
    last: Option<(f32, Vec2)>,
}

impl SaccadePredictor {
    /// Fresh predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one sample classified as part of a saccade. Returns the
    /// current landing prediction once at least two samples are seen.
    pub fn observe(&mut self, sample: &GazeSample) -> Option<Vec2> {
        let (t, p) = (sample.t, sample.pos);
        if self.onset.is_none() {
            self.onset = Some((t, p));
            self.last = Some((t, p));
            return None;
        }
        let (lt, lp) = self.last.unwrap();
        let dt = (t - lt).max(1e-5);
        let v = lp.distance(p) / dt;
        self.peak_velocity = self.peak_velocity.max(v);
        let dir = p - self.onset.unwrap().1;
        if dir.length() > 1e-4 {
            self.direction = dir.normalized();
        }
        self.last = Some((t, p));
        self.predict()
    }

    /// Current landing prediction: invert the calibrated main sequence
    /// from the observed peak velocity, with a sampling-bias correction,
    /// then extrapolate along the flight direction from the onset.
    ///
    /// The calibration assumes minimum-jerk kinematics with duration
    /// `D(A) = 21 ms + 2.2 ms/deg * A` and peak velocity
    /// `Vp = 1.875 * A / D(A)`. A tracker sampling at ~120 Hz observes
    /// *inter-sample mean* velocities, which undershoot the instantaneous
    /// peak (and mid-flight the peak may not have occurred yet), so the
    /// observed maximum is multiplied by [`VELOCITY_CORRECTION`] — the
    /// factor a deployed system fits during per-user calibration (the
    /// "fine-grained learning" of the paper's landing-prediction
    /// citations). The prediction never falls short of the distance
    /// already traveled.
    pub fn predict(&self) -> Option<Vec2> {
        let (_, onset_pos) = self.onset?;
        if self.peak_velocity < 1.0 || self.direction.length() < 1e-4 {
            return None;
        }
        let vp = (self.peak_velocity * VELOCITY_CORRECTION).min(830.0);
        // Invert Vp = 1.875 A / (0.021 + 0.0022 A).
        let denom = 1.875 - 0.0022 * vp;
        let amplitude = if denom > 1e-3 { 0.021 * vp / denom } else { 60.0 };
        let traveled = self.last.map_or(0.0, |(_, p)| onset_pos.distance(p));
        Some(onset_pos + self.direction * amplitude.max(traveled))
    }

    /// Reset at saccade end.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// True once a saccade onset has been observed.
    pub fn in_flight(&self) -> bool {
        self.onset.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::GazeSynthesizer;

    /// Evaluate the predictor over a trace: for each true saccade, record the
    /// prediction error (degrees) after observing the given fraction of the
    /// saccade's samples. Returns (errors, saccade count).
    fn evaluate_landing_error(samples: &[GazeSample], observe_fraction: f32) -> (Vec<f32>, usize) {
        let mut errors = Vec::new();
        let mut count = 0usize;
        let mut i = 0usize;
        while i < samples.len() {
            if samples[i].true_class != crate::trace::CLASS_SACCADE {
                i += 1;
                continue;
            }
            // Collect the saccade extent.
            let start = i;
            while i < samples.len() && samples[i].true_class == crate::trace::CLASS_SACCADE {
                i += 1;
            }
            let end = i; // one past
            let len = end - start;
            if len < 3 || end >= samples.len() {
                continue;
            }
            count += 1;
            // Landing = first sample after the saccade (eye settled).
            let landing = samples[end.min(samples.len() - 1)].pos;
            let observe = ((len as f32 * observe_fraction).ceil() as usize).clamp(2, len);
            let mut pred = SaccadePredictor::new();
            let mut last_pred = None;
            for s in &samples[start..start + observe] {
                if let Some(p) = pred.observe(s) {
                    last_pred = Some(p);
                }
            }
            if let Some(p) = last_pred {
                errors.push(p.distance(landing));
            }
        }
        (errors, count)
    }

    fn mean(v: &[f32]) -> f32 {
        v.iter().sum::<f32>() / v.len().max(1) as f32
    }

    #[test]
    fn prediction_improves_with_observation() {
        let mut synth = GazeSynthesizer::new(21);
        let samples = synth.generate(60.0);
        let (early, n1) = evaluate_landing_error(&samples, 0.4);
        let (late, n2) = evaluate_landing_error(&samples, 0.9);
        assert!(n1 > 10 && n2 > 10, "saccade counts {n1} {n2}");
        assert!(!early.is_empty() && !late.is_empty());
        assert!(
            mean(&late) < mean(&early),
            "late {:.2} should beat early {:.2}",
            mean(&late),
            mean(&early)
        );
    }

    #[test]
    fn late_prediction_reasonably_accurate() {
        let mut synth = GazeSynthesizer::new(22);
        let samples = synth.generate(60.0);
        let (late, _) = evaluate_landing_error(&samples, 0.9);
        // Mean error after seeing 90% of the saccade should be a small
        // fraction of typical amplitudes (3-18 deg).
        assert!(mean(&late) < 4.0, "late landing error {}", mean(&late));
    }

    #[test]
    fn predictor_state_machine() {
        let mut p = SaccadePredictor::new();
        assert!(!p.in_flight());
        assert!(p.predict().is_none());
        let s0 = GazeSample { t: 0.0, pos: Vec2::new(0.0, 0.0), true_class: 2 };
        let s1 = GazeSample { t: 0.008, pos: Vec2::new(1.5, 0.0), true_class: 2 };
        assert!(p.observe(&s0).is_none());
        let pred = p.observe(&s1);
        assert!(p.in_flight());
        assert!(pred.is_some());
        // Direction of prediction should be +x.
        let pr = pred.unwrap();
        assert!(pr.x > 1.0 && pr.y.abs() < 0.5, "prediction {pr:?}");
        p.reset();
        assert!(!p.in_flight());
    }

    #[test]
    fn prediction_never_shorter_than_traveled() {
        let mut p = SaccadePredictor::new();
        // Slow start (low velocity) but long travel.
        for i in 0..10 {
            let s = GazeSample {
                t: i as f32 * 0.008,
                pos: Vec2::new(i as f32 * 0.8, 0.0),
                true_class: 2,
            };
            p.observe(&s);
        }
        let pred = p.predict().unwrap();
        assert!(pred.x >= 7.2 - 1e-3, "prediction {pred:?} shorter than traveled");
    }
}
