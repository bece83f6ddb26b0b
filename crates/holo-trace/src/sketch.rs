//! The workspace's one histogram: a bounded-memory percentile sketch
//! over integers.
//!
//! The fields say microseconds because latency is the main client, but
//! the recorder's [`crate::Metrics`] stores every histogram in it —
//! bytes and permille too, with the unit in the metric's name.
//!
//! A [`LatencySketch`] is an HDR-style log-linear histogram: each
//! power-of-two octave is split into [`SUBBUCKETS`] linear sub-buckets,
//! so relative error is bounded by `1/SUBBUCKETS` everywhere while the
//! whole structure stays a fixed ~`BUCKETS`-slot array. Everything in
//! it is integral — counts, microsecond bounds, a `u128` sum — so
//! [`LatencySketch::absorb`] is an **exact** merge: recording a stream
//! into one sketch and recording its partitions into several sketches
//! then absorbing them produces bit-identical state regardless of the
//! partitioning or merge order. That is the property that lets
//! fleet-scale runs aggregate per-room summaries in O(buckets) instead
//! of retaining per-frame samples (or spans) and tripping the recorder
//! cap; it is property-tested in `tests/slo_attribution.rs`.

use holo_runtime::ser::{JsonValue, ToJson};

/// Linear sub-buckets per power-of-two octave (2^4: ≤6.25% relative
/// bucket width).
pub const SUBBUCKETS: u64 = 16;
const SUB_BITS: u32 = 4;
/// Highest exponent tracked exactly: values at or above `2^MAX_EXP` µs
/// (~2^40 µs ≈ 12.7 virtual days) land in the overflow bucket.
const MAX_EXP: u32 = 40;
/// Total bucket count: 16 exact small values, then 16 sub-buckets for
/// each octave `2^4..2^40`.
pub const BUCKETS: usize = (SUBBUCKETS as usize) * (MAX_EXP as usize - SUB_BITS as usize + 1);

/// Bucket index for a microsecond value below the overflow threshold.
fn bucket_of(us: u64) -> usize {
    if us < SUBBUCKETS {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros();
    let shift = msb - SUB_BITS;
    let octave = (msb - SUB_BITS) as usize; // 0 for values in [16, 32)
    (octave + 1) * SUBBUCKETS as usize + ((us >> shift) & (SUBBUCKETS - 1)) as usize
}

/// Bucket index for `us`, or `None` when it would land in overflow.
pub fn bucket_index(us: u64) -> Option<usize> {
    if us >> MAX_EXP != 0 {
        None
    } else {
        Some(bucket_of(us))
    }
}

/// Inclusive `(lower, upper)` microsecond bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUBBUCKETS as usize {
        return (i as u64, i as u64);
    }
    let octave = (i / SUBBUCKETS as usize) as u32 - 1; // 0-based from [16,32)
    let sub = (i % SUBBUCKETS as usize) as u64;
    let base = 1u64 << (octave + SUB_BITS);
    let width = base / SUBBUCKETS;
    let lo = base + sub * width;
    (lo, lo + width - 1)
}

/// A deterministic log-linear latency histogram (integer µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySketch {
    counts: Box<[u64; BUCKETS]>,
    /// Observations at or above `2^40` µs.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Exact sum of observations, µs.
    pub sum_us: u128,
    /// Smallest observation (µs; `u64::MAX` when empty).
    pub min_us: u64,
    /// Largest observation (µs; 0 when empty).
    pub max_us: u64,
    /// True when any observation came from the wall clock (see
    /// [`crate::WallTimer`]). Marked in the JSON so downstream
    /// consumers — the SLO engine, the bench regression gate — can skip
    /// the family by flag instead of by name list.
    pub nondeterministic: bool,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            overflow: 0,
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            nondeterministic: false,
        }
    }
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us as u128;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        if us >> MAX_EXP != 0 {
            self.overflow += 1;
        } else {
            self.counts[bucket_of(us)] += 1;
        }
    }

    /// Exact merge: integral state adds component-wise, so
    /// `a.absorb(&b)` equals recording both streams into one sketch —
    /// in any split and any order.
    pub fn absorb(&mut self, other: &LatencySketch) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
        self.nondeterministic |= other.nondeterministic;
    }

    /// Mean observation in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Quantile `q ∈ [0, 1]`: the upper bound of the bucket holding the
    /// q-th observation (exact `max_us` for the overflow bucket, 0 when
    /// empty). Deterministic: pure integer arithmetic over the counts.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= target {
                return bucket_bounds(i).1.min(self.max_us);
            }
        }
        self.max_us
    }

    /// Index of the bucket holding quantile `q` (`None` when the
    /// quantile lands in overflow or the sketch is empty). Attribution
    /// uses this to slice per-stage budgets at a percentile.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= target {
                return Some(i);
            }
        }
        None
    }

    /// Occupied buckets as `(lower_us, upper_us, count)` triples.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// Canonical JSON: exact integral state, occupied buckets only
    /// (each as `[lower_us, upper_us, count]`).
    pub fn to_json(&self) -> JsonValue {
        self.to_json_with_unit("_us")
    }

    /// The same document with `unit` appended to every value key:
    /// `"_us"` for a latency sketch, `""` in the metric snapshot, where
    /// the unit is in the histogram's name. A wall-clock histogram
    /// carries an explicit `nondeterministic` marker.
    pub(crate) fn to_json_with_unit(&self, unit: &str) -> JsonValue {
        let key = |k: &str| format!("{k}{unit}");
        let buckets = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, c)| JsonValue::Arr(vec![lo.to_json(), hi.to_json(), c.to_json()]))
            .collect();
        let mut pairs = vec![
            ("count".to_string(), self.count.to_json()),
            (key("sum"), (self.sum_us as f64).to_json()),
            (key("min"), if self.count == 0 { JsonValue::Null } else { self.min_us.to_json() }),
            (key("max"), if self.count == 0 { JsonValue::Null } else { self.max_us.to_json() }),
            (key("p50"), self.quantile_us(0.50).to_json()),
            (key("p90"), self.quantile_us(0.90).to_json()),
            (key("p99"), self.quantile_us(0.99).to_json()),
            ("buckets".to_string(), JsonValue::Arr(buckets)),
            ("overflow".to_string(), self.overflow.to_json()),
        ];
        if self.nondeterministic {
            pairs.push(("nondeterministic".to_string(), JsonValue::Bool(true)));
        }
        JsonValue::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = LatencySketch::new();
        for us in 0..SUBBUCKETS {
            s.record(us);
            assert_eq!(bucket_bounds(bucket_of(us)), (us, us));
        }
        assert_eq!(s.count, SUBBUCKETS);
        assert_eq!(s.min_us, 0);
        assert_eq!(s.max_us, SUBBUCKETS - 1);
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let mut v = 1u64;
        while v >> MAX_EXP == 0 {
            for us in [v, v + v / 3, v.next_power_of_two() - 1] {
                if us >> MAX_EXP != 0 {
                    continue;
                }
                let (lo, hi) = bucket_bounds(bucket_of(us));
                assert!(lo <= us && us <= hi, "{us} outside [{lo}, {hi}]");
            }
            v *= 2;
        }
    }

    #[test]
    fn bucket_bounds_tile_the_range() {
        // Buckets are contiguous: each upper bound + 1 is the next
        // lower bound, from 0 to the overflow threshold.
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} not contiguous");
            assert!(hi >= lo);
            expect_lo = hi + 1;
        }
        assert_eq!(expect_lo, 1u64 << MAX_EXP);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut s = LatencySketch::new();
        for us in [100u64, 200, 300, 400, 1_000_000] {
            s.record(us);
        }
        // target = ceil(q * count): the median of five observations is
        // the third smallest.
        let p50 = s.quantile_us(0.5);
        let (_, hi) = bucket_bounds(bucket_of(300));
        assert_eq!(p50, hi);
        // The top bucket's upper bound clamps to the exact max.
        assert_eq!(s.quantile_us(1.0), 1_000_000);
        assert_eq!(s.quantile_us(0.0), bucket_bounds(bucket_of(100)).1);
    }

    #[test]
    fn overflow_quantile_resolves_to_max() {
        let mut s = LatencySketch::new();
        s.record(5);
        s.record(1u64 << 41);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.quantile_us(1.0), 1u64 << 41);
        assert_eq!(s.quantile_bucket(1.0), None);
    }

    #[test]
    fn absorb_is_exact() {
        let stream: Vec<u64> = (0..500u64).map(|i| i * i * 37 % 900_000).collect();
        let mut whole = LatencySketch::new();
        for &v in &stream {
            whole.record(v);
        }
        let mut left = LatencySketch::new();
        let mut right = LatencySketch::new();
        for (i, &v) in stream.iter().enumerate() {
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.absorb(&right);
        assert_eq!(whole, left);
        assert_eq!(whole.to_json().render(), left.to_json().render());
    }

    #[test]
    fn json_is_canonical_and_parses() {
        let mut s = LatencySketch::new();
        s.record(42_000);
        s.record(97_000);
        let text = s.to_json().render();
        assert_eq!(text, s.to_json().render());
        let doc = holo_runtime::ser::parse(&text).expect("sketch json parses");
        assert_eq!(doc.get("count").unwrap().as_f64(), Some(2.0));
    }
}
