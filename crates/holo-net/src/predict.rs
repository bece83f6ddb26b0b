//! Bandwidth prediction.
//!
//! Rate adaptation (§3.2) needs a forecast of available bandwidth: an
//! exponentially-weighted moving average of throughput samples, which
//! the SFU feeds per subscriber downlink.

/// Exponentially weighted moving average of throughput samples (bps).
#[derive(Debug, Clone)]
pub struct EwmaPredictor {
    /// Smoothing factor in (0, 1]; higher reacts faster.
    pub alpha: f64,
    value: Option<f64>,
}

impl EwmaPredictor {
    /// Create with a smoothing factor.
    pub fn new(alpha: f64) -> Self {
        Self { alpha: alpha.clamp(1e-3, 1.0), value: None }
    }

    /// Record an observed throughput sample.
    pub fn observe(&mut self, bps: f64) {
        // A NaN/inf sample would poison the average forever (every
        // later EWMA term inherits it); a negative one is meaningless.
        // Drop them instead — the zero-sample case is already the
        // well-defined "no prediction yet" state.
        if !bps.is_finite() || bps < 0.0 {
            return;
        }
        self.value = Some(match self.value {
            None => bps,
            Some(v) => self.alpha * bps + (1.0 - self.alpha) * v,
        });
    }

    /// Predict near-future available bandwidth, bps (0 before any sample).
    pub fn predict(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// Reset state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BandwidthTrace;

    #[test]
    fn ewma_converges_to_constant() {
        let mut p = EwmaPredictor::new(0.3);
        for _ in 0..50 {
            p.observe(10e6);
        }
        assert!((p.predict() - 10e6).abs() < 1.0);
    }

    #[test]
    fn ewma_tracks_step_change() {
        let mut p = EwmaPredictor::new(0.5);
        for _ in 0..20 {
            p.observe(10e6);
        }
        for _ in 0..10 {
            p.observe(2e6);
        }
        let v = p.predict();
        assert!((v - 2e6).abs() / 2e6 < 0.05, "ewma after step {v}");
    }

    #[test]
    fn empty_predictors_return_zero() {
        assert_eq!(EwmaPredictor::new(0.2).predict(), 0.0);
    }

    #[test]
    fn prediction_error_on_broadband_trace_small() {
        let trace = BandwidthTrace::us_broadband(2);
        let mut p = EwmaPredictor::new(0.3);
        let mut errors = Vec::new();
        for i in 0..240 {
            let t = i as f64 * 0.5;
            let actual = trace.bps_at(t);
            if i > 8 {
                errors.push((p.predict() - actual).abs() / actual);
            }
            p.observe(actual);
        }
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean_err < 0.15, "broadband prediction error {mean_err}");
    }

    #[test]
    fn non_finite_and_negative_samples_are_ignored() {
        let mut e = EwmaPredictor::new(0.3);
        e.observe(f64::NAN);
        e.observe(f64::INFINITY);
        e.observe(-5e6);
        assert_eq!(e.predict(), 0.0, "garbage first window must not poison the EWMA");
        e.observe(10e6);
        e.observe(f64::NAN);
        assert!((e.predict() - 10e6).abs() < 1.0, "NaN after real samples must be a no-op");
        assert!(e.predict().is_finite());
    }

    #[test]
    fn reset_clears() {
        let mut p = EwmaPredictor::new(0.3);
        p.observe(5e6);
        p.reset();
        assert_eq!(p.predict(), 0.0);
    }
}
