//! Streaming summary statistics.
//!
//! The benchmark harness and QoE model accumulate per-frame measurements
//! (latency, payload size, quality) into [`Summary`] values with an
//! online mean, then report mean / min / max / percentiles.


/// Online accumulator of count, mean, min, max, and (optionally)
/// exact percentiles via a retained sample buffer.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
    keep_samples: bool,
}

impl Summary {
    /// A summary that tracks only moments (O(1) memory).
    pub fn new() -> Self {
        Self { min: f64::INFINITY, max: f64::NEG_INFINITY, ..Default::default() }
    }

    /// A summary that also retains every sample so percentiles are exact.
    pub fn with_samples() -> Self {
        Self { keep_samples: true, ..Self::new() }
    }

    /// Add one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if self.keep_samples {
            self.samples.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Exact percentile `p` in `[0, 100]`; requires `with_samples`.
    ///
    /// Returns `None` when no samples were retained.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if !self.keep_samples || self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// Merge another summary into this one (moments only; retained samples
    /// are concatenated when both keep them).
    pub fn merge(&mut self, o: &Summary) {
        if o.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = o.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = o.count as f64;
        let delta = o.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.count += o.count;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        if self.keep_samples && o.keep_samples {
            self.samples.extend_from_slice(&o.samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &data {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.percentile(50.0).is_none());
    }

    #[test]
    fn percentiles_exact() {
        let mut s = Summary::with_samples();
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        let p50 = s.percentile(50.0).unwrap();
        assert!((49.0..=51.0).contains(&p50));
    }

    #[test]
    fn merge_equals_combined_stream() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64) * 0.37 - 3.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..20] {
            a.record(x);
        }
        for &x in &data[20..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
    }
}
