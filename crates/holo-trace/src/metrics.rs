//! Counters, gauges, and histograms.
//!
//! All three are keyed by name in `BTreeMap`s, so the JSON snapshot
//! iterates in sorted order and renders canonically. Every histogram is
//! a [`LatencySketch`]: integer observations whose unit is the suffix
//! of the metric's name (`_us`, `_bytes`, `_permille`), so two
//! histograms always merge exactly. Values recorded from the wall clock
//! (through [`crate::WallTimer`], the only way in) are the one
//! deliberately nondeterministic input; everything else in the recorder
//! is virtual-time only.

use crate::sketch::LatencySketch;
use holo_runtime::ser::{JsonValue, ToJson};
use std::collections::BTreeMap;
use std::time::Duration;

/// A last-value gauge that also keeps min/max/mean of its observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    /// Most recent observation.
    pub last: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sum of observations (mean = sum / count).
    pub sum: f64,
    /// Observation count.
    pub count: u64,
}

impl Gauge {
    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.last = v;
        self.sum += v;
        self.count += 1;
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fold another gauge's observations into this one, as if they had
    /// been recorded here after this gauge's own (so `last` takes the
    /// other's last). Used by the fork-join trace merge, where "after"
    /// means later in canonical worker order.
    pub fn absorb(&mut self, other: &Gauge) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
        self.last = other.last;
    }
}

impl ToJson for Gauge {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("last", self.last.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
            ("mean", self.mean().to_json()),
            ("count", self.count.to_json()),
        ])
    }
}

/// The recorder's metric registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges.
    pub gauges: BTreeMap<String, Gauge>,
    /// Histograms.
    pub histograms: BTreeMap<String, LatencySketch>,
}

impl Metrics {
    /// Add to a counter, creating it at zero.
    pub fn counter(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Record a gauge observation.
    pub fn gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => g.record(value),
            None => {
                let mut g = Gauge::default();
                g.record(value);
                self.gauges.insert(name.to_string(), g);
            }
        }
    }

    /// The histogram `name`, created empty on first use (no `String`
    /// is allocated for a name already present).
    fn sketch(&mut self, name: &str) -> &mut LatencySketch {
        if !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_string(), LatencySketch::new());
        }
        self.histograms.get_mut(name).expect("present or just inserted")
    }

    /// Record a histogram observation, in the unit `name` ends with.
    pub fn histogram(&mut self, name: &str, value: u64) {
        self.sketch(name).record(value);
    }

    /// Record a **wall-clock** duration into the histogram `name`
    /// (which ends in `_us`), permanently tagging it `nondeterministic`
    /// so snapshot consumers can exclude it from byte-identity and
    /// gating by flag.
    pub fn wall_time(&mut self, name: &str, wall: Duration) {
        debug_assert!(name.ends_with("_us"), "wall-clock histogram {name:?} records µs");
        let h = self.sketch(name);
        h.nondeterministic = true;
        h.record(wall.as_micros() as u64);
    }

    /// A counter's current value (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one: counters add, gauges and
    /// histograms [`Gauge::absorb`]/[`LatencySketch::absorb`]. Counters
    /// and histograms are integral, so their merge is exact in any
    /// split and order; the caller (the fork-join scope merge) invokes
    /// this in canonical worker order for the gauges' float sums.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, delta) in &other.counters {
            self.counter(name, *delta);
        }
        for (name, g) in &other.gauges {
            self.gauges.entry(name.clone()).or_default().absorb(g);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().absorb(h);
        }
    }

    /// Canonical JSON snapshot: `BTreeMap` iteration gives sorted keys,
    /// so equal metric states render byte-identically. Each histogram
    /// carries its own `[lower, upper, count]` bucket bounds.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            (
                "counters",
                JsonValue::Obj(
                    self.counters.iter().map(|(k, v)| (k.clone(), v.to_json())).collect(),
                ),
            ),
            (
                "gauges",
                JsonValue::Obj(self.gauges.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            ),
            (
                "histograms",
                JsonValue::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json_with_unit("")))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_runtime::ser;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.counter("a", 2);
        m.counter("a", 3);
        assert_eq!(m.counter_value("a"), 5);
        assert_eq!(m.counter_value("missing"), 0);
    }

    #[test]
    fn gauge_tracks_extremes_and_last() {
        let mut g = Gauge::default();
        for v in [3.0, -1.0, 2.0] {
            g.record(v);
        }
        assert_eq!(g.last, 2.0);
        assert_eq!(g.min, -1.0);
        assert_eq!(g.max, 3.0);
        assert!((g.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        // Recording a+b sequentially must equal recording them into two
        // registries and merging — the fork-join identity contract.
        let obs_a = [3u64, 42, 50_000_000];
        let obs_b = [4u64, 2];
        let mut seq = Metrics::default();
        for &v in obs_a.iter().chain(&obs_b) {
            seq.counter("n", 1);
            seq.gauge("g", v as f64);
            seq.histogram("h", v);
        }
        let mut left = Metrics::default();
        for &v in &obs_a {
            left.counter("n", 1);
            left.gauge("g", v as f64);
            left.histogram("h", v);
        }
        let mut right = Metrics::default();
        for &v in &obs_b {
            right.counter("n", 1);
            right.gauge("g", v as f64);
            right.histogram("h", v);
        }
        left.merge(&right);
        assert_eq!(seq.to_json().render(), left.to_json().render());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = Metrics::default();
        m.counter("c", 7);
        m.gauge("g", 1.0);
        m.histogram("h", 2);
        let before = m.to_json().render();
        m.merge(&Metrics::default());
        assert_eq!(before, m.to_json().render());
        let mut empty = Metrics::default();
        empty.merge(&m);
        assert_eq!(before, empty.to_json().render());
    }

    #[test]
    fn wall_clock_histograms_carry_the_marker() {
        let mut m = Metrics::default();
        m.histogram("det_us", 1);
        m.wall_time("wall_us", Duration::from_micros(1));
        assert!(!m.histograms["det_us"].nondeterministic);
        assert!(m.histograms["wall_us"].nondeterministic);
        let doc = m.to_json();
        let flag = |name| doc.get("histograms").unwrap().get(name).unwrap().get("nondeterministic");
        assert_eq!(flag("wall_us"), Some(&JsonValue::Bool(true)));
        assert_eq!(flag("det_us"), None);
        // The marker survives a fork-join merge in either direction.
        let mut other = Metrics::default();
        other.histogram("wall_us", 2);
        other.merge(&m);
        assert!(other.histograms["wall_us"].nondeterministic);
    }

    #[test]
    fn snapshot_is_canonical_and_parses() {
        let mut m = Metrics::default();
        m.counter("z.late", 1);
        m.counter("a.early", 2);
        m.gauge("g", 1.5);
        m.histogram("h", 20);
        let text = m.to_json().render();
        // Sorted keys: a.early before z.late.
        assert!(text.find("a.early").unwrap() < text.find("z.late").unwrap());
        let back = ser::parse(&text).expect("snapshot parses");
        assert_eq!(
            back.get("counters").unwrap().get("a.early").unwrap().as_f64(),
            Some(2.0)
        );
        // Re-render is byte-stable.
        assert_eq!(text, m.to_json().render());
    }
}
