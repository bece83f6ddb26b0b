//! The metric tables. `BENCHMARK.json` at the repository root declares
//! the workloads and every metric with its unit, direction and bound;
//! it is compiled in, so the program and the declaration cannot drift.
//! Every workload reports every metric: one a workload does not
//! exercise reads 0.

use holo_runtime::ser::{parse, JsonValue};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Smaller is better (else larger is).
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    /// Seconds one run measures, unless `--seconds` says otherwise.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// The end-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<EndToEnd>,
    /// The per-layer metrics, from the traced run: `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

fn text(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .to_string()
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
}

/// The declaration, parsed once.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("BENCHMARK.json: no run_seconds"),
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: list(&doc, "end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m
                        .get("bound")
                        .and_then(JsonValue::as_f64)
                        .expect("BENCHMARK.json: no bound"),
                })
                .collect(),
            per_layer: list(&doc, "per_layer")
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect(),
        }
    })
}

impl Declared {
    /// `(name, unit)` of the end-to-end metrics.
    pub fn end_to_end_units(&self) -> impl Iterator<Item = (&str, &str)> {
        self.end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
    }

    /// `(name, unit)` of the per-layer metrics.
    pub fn per_layer_units(&self) -> impl Iterator<Item = (&str, &str)> {
        self.per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str()))
    }
}

/// One measured value; `samples` is how many timings stand behind it
/// (0 for an exact count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Timings behind the value.
    pub samples: usize,
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Readings(BTreeMap<&'static str, Reading>);

impl Readings {
    /// Record a declared metric; an undeclared name is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let d = declared();
        assert!(
            d.end_to_end_units()
                .chain(d.per_layer_units())
                .any(|(n, _)| n == name),
            "metric {name} is not declared in BENCHMARK.json"
        );
        self.0.insert(name, Reading { value, samples });
    }

    /// The reading of a metric; 0 when the workload does not exercise it.
    pub fn get(&self, name: &str) -> Reading {
        self.0.get(name).copied().unwrap_or(Reading {
            value: 0.0,
            samples: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_is_within_the_contract() {
        let d = declared();
        assert!((2..=8).contains(&d.workloads.len()));
        assert!(d
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        assert!(d.end_to_end.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in d.end_to_end_units().chain(d.per_layer_units()) {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for name in &d.workloads {
            assert!(
                crate::workload(name, 1, true).is_some(),
                "no workload {name}"
            );
        }
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut r = Readings::default();
        r.set("setup_s", 0.5, 7);
        assert_eq!(
            r.get("setup_s"),
            Reading {
                value: 0.5,
                samples: 7
            }
        );
        assert_eq!(r.get("holo-mesh.extract_ms").value, 0.0);
    }
}
