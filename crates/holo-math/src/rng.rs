//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (capture noise, gaze
//! synthesis, network jitter, neural initialization) takes an explicit
//! [`Pcg32`] so that each experiment replays bit-identically from a seed.
//! PCG-XSH-RR 64/32 (O'Neill 2014) is small, fast, and statistically solid
//! for simulation purposes.


/// PCG-XSH-RR 64/32 generator.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Seed with a 64-bit seed and default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Seed with an explicit stream selector; distinct streams are
    /// statistically independent even with the same seed.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Self { state: 0, inc: (stream << 1) | 1 };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Derive an independent child generator (for per-component seeding).
    pub fn fork(&mut self, stream: u64) -> Self {
        Self::with_stream(self.next_u64(), stream.wrapping_mul(2654435761).wrapping_add(1))
    }

    /// Next raw 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64-bit output (two draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa bits of a u32 give uniform dyadic rationals in [0,1).
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    pub fn range_u32(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0);
        let mut x = self.next_u32();
        let mut m = (x as u64) * (n as u64);
        let mut lo = m as u32;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u32();
                m = (x as u64) * (n as u64);
                lo = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Uniform index into a slice of length `len` (> 0).
    pub fn index(&mut self, len: usize) -> usize {
        self.range_u32(len as u32) as usize
    }

    /// Standard normal draw via Box-Muller.
    pub fn normal(&mut self) -> f32 {
        let u1 = (1.0 - self.next_f32()).max(f32::MIN_POSITIVE);
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Pcg32::new(42);
        let mut b = Pcg32::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 2);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = Pcg32::new(7);
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_u32_uniform_coverage() {
        let mut r = Pcg32::new(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.range_u32(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} outside tolerance");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Pcg32::new(11);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn fork_independent() {
        let mut root = Pcg32::new(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 2);
    }
}
