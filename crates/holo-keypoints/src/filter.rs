//! Temporal filters for keypoint streams.
//!
//! Raw detector output jitters; real pipelines smooth it, here with the
//! One-Euro filter (Casiez et al. 2012 — an adaptive low-pass whose
//! cutoff rises with speed, trading lag for jitter exactly where it
//! matters).

use holo_math::Vec3;

/// One-Euro filter state for a scalar channel.
#[derive(Debug, Clone)]
struct OneEuroChannel {
    x_prev: Option<f32>,
    dx_prev: f32,
}

/// One-Euro filter for 3D points.
#[derive(Debug, Clone)]
pub struct OneEuroFilter {
    /// Minimum cutoff frequency, Hz (lower = smoother at rest).
    pub min_cutoff: f32,
    /// Speed coefficient (higher = less lag during fast motion).
    pub beta: f32,
    /// Derivative low-pass cutoff, Hz.
    pub d_cutoff: f32,
    channels: [OneEuroChannel; 3],
}

fn alpha(cutoff: f32, dt: f32) -> f32 {
    let tau = 1.0 / (std::f32::consts::TAU * cutoff.max(1e-6));
    dt / (dt + tau)
}

impl OneEuroFilter {
    /// Standard tracking parameters.
    pub fn new(min_cutoff: f32, beta: f32) -> Self {
        Self {
            min_cutoff,
            beta,
            d_cutoff: 1.0,
            channels: std::array::from_fn(|_| OneEuroChannel { x_prev: None, dx_prev: 0.0 }),
        }
    }

    /// Filter one observation taken `dt` seconds after the previous one.
    pub fn filter(&mut self, p: Vec3, dt: f32) -> Vec3 {
        let dt = dt.max(1e-4);
        let inputs = [p.x, p.y, p.z];
        let mut out = [0f32; 3];
        for (k, ch) in self.channels.iter_mut().enumerate() {
            let x = inputs[k];
            let Some(prev) = ch.x_prev else {
                ch.x_prev = Some(x);
                out[k] = x;
                continue;
            };
            // Derivative estimate, low-passed.
            let dx = (x - prev) / dt;
            let a_d = alpha(self.d_cutoff, dt);
            let dx_hat = a_d * dx + (1.0 - a_d) * ch.dx_prev;
            ch.dx_prev = dx_hat;
            // Speed-adaptive cutoff.
            let cutoff = self.min_cutoff + self.beta * dx_hat.abs();
            let a = alpha(cutoff, dt);
            let filtered = a * x + (1.0 - a) * prev;
            ch.x_prev = Some(filtered);
            out[k] = filtered;
        }
        Vec3::new(out[0], out[1], out[2])
    }

    /// Reset state (e.g. after a track loss).
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.x_prev = None;
            ch.dx_prev = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;

    /// A smooth human-speed trajectory plus noise; returns (truth, noisy).
    fn noisy_track(seed: u64, n: usize, sigma: f32) -> (Vec<Vec3>, Vec<Vec3>) {
        let mut rng = Pcg32::new(seed);
        let mut truth = Vec::with_capacity(n);
        let mut noisy = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f32 / 30.0;
            let p = Vec3::new((t * 0.65).sin() * 0.15, 1.0 + (t * 0.5).cos() * 0.1, 0.02 * t);
            truth.push(p);
            noisy.push(p + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * sigma);
        }
        (truth, noisy)
    }

    fn rmse(a: &[Vec3], b: &[Vec3]) -> f32 {
        (a.iter().zip(b).map(|(x, y)| (*x - *y).length_sq()).sum::<f32>() / a.len() as f32).sqrt()
    }

    #[test]
    fn one_euro_reduces_noise() {
        let (truth, noisy) = noisy_track(1, 300, 0.01);
        let mut f = OneEuroFilter::new(1.5, 3.0);
        let filtered: Vec<Vec3> = noisy.iter().map(|&p| f.filter(p, 1.0 / 30.0)).collect();
        let raw_err = rmse(&noisy[30..], &truth[30..]);
        let filt_err = rmse(&filtered[30..], &truth[30..]);
        assert!(filt_err < raw_err * 0.9, "raw {raw_err} filtered {filt_err}");
    }

    #[test]
    fn one_euro_tracks_fast_motion() {
        // A step change: the adaptive cutoff must converge quickly.
        let mut f = OneEuroFilter::new(1.0, 0.5);
        for _ in 0..30 {
            f.filter(Vec3::ZERO, 1.0 / 30.0);
        }
        let mut last = Vec3::ZERO;
        for _ in 0..15 {
            last = f.filter(Vec3::new(1.0, 0.0, 0.0), 1.0 / 30.0);
        }
        assert!(last.x > 0.85, "filter lagging: {last:?}");
    }

    #[test]
    fn first_sample_passes_through() {
        let mut f = OneEuroFilter::new(1.0, 0.1);
        let p = Vec3::new(3.0, -1.0, 2.0);
        assert_eq!(f.filter(p, 1.0 / 30.0), p);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = OneEuroFilter::new(1.0, 0.1);
        f.filter(Vec3::ZERO, 1.0 / 30.0);
        f.filter(Vec3::ZERO, 1.0 / 30.0);
        f.reset();
        let p = Vec3::new(5.0, 5.0, 5.0);
        assert_eq!(f.filter(p, 1.0 / 30.0), p);
    }
}
