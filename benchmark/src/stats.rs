//! The estimators: nearest-rank quantiles, best-of-rounds selection,
//! the quartile spread the acceptance check uses, and the FNV-1a digest
//! that pins "these exact bytes" across rounds.

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q = 0` is the
/// minimum and `q = 1` the maximum.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, 0.5)
}

/// Every round replays the same frames, and noise on a shared box only
/// ever adds time, so the least time sample `i` took in any round is
/// the best estimate of what the code itself costs there: the floor.
/// Rounds of another length (a frame failed) are left out.
pub fn floors<'a>(rounds: impl IntoIterator<Item = &'a [u64]>, len: usize) -> Vec<u64> {
    let mut floor = vec![u64::MAX; len];
    for round in rounds.into_iter().filter(|r| r.len() == len) {
        for (f, &sample) in floor.iter_mut().zip(round) {
            *f = (*f).min(sample);
        }
    }
    floor
}

/// Index of the quietest round: the one with the lowest median (the
/// first of equals). Its spans are the ones written out.
pub fn best_round(round_medians: &[u64]) -> usize {
    assert!(!round_medians.is_empty(), "no rounds");
    let mut best = 0;
    for (i, &m) in round_medians.iter().enumerate() {
        if m < round_medians[best] {
            best = i;
        }
    }
    best
}

/// `(max - min) / min` of the round medians, in percent: the noise the
/// run itself saw.
pub fn round_spread_pct(round_medians: &[u64]) -> f64 {
    let min = *round_medians.iter().min().expect("no rounds");
    let max = *round_medians.iter().max().expect("no rounds");
    (max - min) as f64 / min.max(1) as f64 * 100.0
}

/// The three quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the acceptance check holds against a bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// Incremental 64-bit FNV-1a.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb 32-bit words in little-endian byte order.
    pub fn update_u32s(&mut self, words: impl IntoIterator<Item = u32>) {
        for w in words {
            self.update(&w.to_le_bytes());
        }
    }
}

/// One-shot FNV-1a of a byte string.
#[cfg(test)]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_endpoints() {
        let s = [10u64, 20, 30, 40];
        assert_eq!(quantile_sorted(&s, 0.0), 10);
        assert_eq!(quantile_sorted(&s, 0.25), 10);
        assert_eq!(quantile_sorted(&s, 0.26), 20);
        assert_eq!(quantile_sorted(&s, 0.5), 20);
        assert_eq!(quantile_sorted(&s, 0.95), 40);
        assert_eq!(quantile_sorted(&s, 1.0), 40);
        assert_eq!(quantile_sorted(&[7], 0.0), 7);
        assert_eq!(quantile_sorted(&[7], 1.0), 7);
        assert_eq!(median(&[5, 1, 3]), 3);
        assert_eq!(median(&[4, 1, 3, 2]), 2);
    }

    #[test]
    fn floors_take_each_sample_from_its_quietest_round() {
        let rounds: [&[u64]; 3] = [&[10, 50, 30], &[12, 20, 31], &[11, 60, 29]];
        assert_eq!(floors(rounds, 3), vec![10, 20, 29]);
        // A round that lost a frame does not line up and is left out.
        let ragged: [&[u64]; 2] = [&[10, 50, 30], &[1, 1]];
        assert_eq!(floors(ragged, 3), vec![10, 50, 30]);
        assert_eq!(median(&floors(rounds, 3)), 20);
    }

    #[test]
    fn best_round_is_lowest_first_of_equals() {
        assert_eq!(best_round(&[9, 7, 8]), 1);
        assert_eq!(best_round(&[5, 5, 6]), 0);
        assert_eq!(best_round(&[6, 5, 5]), 1);
        assert_eq!(best_round(&[3]), 0);
        assert_eq!(round_spread_pct(&[100, 110, 105]), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_vectors() {
        // Reference vectors of 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::default();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.0, fnv1a64(b"foobar"));
        let mut w = Fnv::default();
        w.update_u32s([0x0403_0201]);
        assert_eq!(w.0, fnv1a64(&[1, 2, 3, 4]));
    }
}
