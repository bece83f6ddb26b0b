//! The paper's evaluation as committed facts, and the scene its recipes
//! share.
//!
//! Every table and figure of the paper's evaluation, and every §3
//! ablation, has one module here whose `facts()` is the recipe of its
//! committed `BENCH_<bench>.json`: it runs the experiment, records each
//! seeded value once as a fact ([`Facts::fact`]), asserts the paper's
//! shape on those values, and returns the document's bytes.
//! `semholo_repro::reports::REPORTS` lists the twelve recipes beside
//! every other committed report, so `tests/committed_reports.rs`
//! reproduces each document at thread counts 1, 2 and 8 and
//! `examples/paper_facts.rs` rewrites them. EXPERIMENTS.md quotes the
//! facts by name.
//!
//! No recipe reads the clock: the repository benchmark (`benchmark/`)
//! times the frame, room and fleet paths, and every pipeline stage
//! records its own wall time in `StageCost::cpu_wall`. Scene setup is
//! shared here so every recipe observes the same participant.

use holo_runtime::ser::{JsonValue, ToJson};
use semholo::{SceneSource, SemHoloConfig};

pub mod ablation_foveation;
pub mod ablation_gaussian;
pub mod ablation_keypoints;
pub mod ablation_nerf;
pub mod ablation_text;
pub mod conference_sfu;
pub mod fig2_quality;
pub mod fig3_expression;
pub mod fig4_fps;
pub mod fleet_capacity;
pub mod table1_taxonomy;
pub mod table2_bandwidth;

/// The standard benchmark scene: a talking participant, 30 FPS,
/// captured by a 4-camera ring at 96x72 (dense enough that capture
/// coverage, not camera count, bounds cloud quality).
pub fn bench_scene(seconds: f32) -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (96, 72),
        camera_count: 4,
        ..Default::default()
    };
    SceneSource::new(&config, seconds)
}

/// Bandwidth in Mbps at 30 FPS for a per-frame payload size (paper
/// Table 2 arithmetic: payload bytes x 8 x 30).
pub fn mbps_at_30fps(bytes: usize) -> f64 {
    bytes as f64 * 8.0 * 30.0 / 1e6
}

/// The facts of one `BENCH_<bench>.json` document, in recording order.
/// A fact is a seeded, byte-derived value under a stable name (the
/// name never carries the value) with a unit saying what it counts
/// (`"permille"`, `"bytes"`, `"label"`, ..).
pub struct Facts {
    bench: &'static str,
    group: &'static str,
    facts: Vec<(String, JsonValue, String)>,
}

impl Facts {
    /// An empty document for `bench`, every fact in `group`.
    pub fn new(bench: &'static str, group: &'static str) -> Self {
        Self { bench, group, facts: Vec::new() }
    }

    /// Record a fact. Panics on a value that is not a finite number, a
    /// string or a bool, and on a name already recorded: either would
    /// make a fact EXPERIMENTS.md cannot quote by name.
    pub fn fact(&mut self, name: impl Into<String>, value: impl ToJson, unit: &str) {
        let (name, value) = (name.into(), value.to_json());
        let label = format!("{}/{name}", self.group);
        let scalar = match &value {
            JsonValue::Num(n) => n.is_finite(),
            JsonValue::Str(_) | JsonValue::Bool(_) => true,
            _ => false,
        };
        assert!(scalar, "fact {label}: {value:?} is not a finite number, a string or a bool");
        if let Some((_, old, _)) = self.facts.iter().find(|(n, ..)| *n == name) {
            panic!("fact {label} recorded twice: {} then {}", old.render(), value.render());
        }
        self.facts.push((name, value, unit.to_string()));
    }

    /// The document's bytes: `{"bench", "facts": [{group, name, value,
    /// unit}]}` and a newline.
    pub fn render(&self) -> String {
        let facts = self.facts.iter().map(|(name, value, unit)| {
            JsonValue::obj([
                ("group", self.group.to_json()),
                ("name", name.to_json()),
                ("value", value.clone()),
                ("unit", unit.to_json()),
            ])
        });
        let doc = JsonValue::obj([
            ("bench", self.bench.to_json()),
            ("facts", JsonValue::Arr(facts.collect())),
        ]);
        doc.render() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_document_lists_its_facts_in_recording_order() {
        let mut facts = Facts::new("smoke", "g");
        facts.fact("fib_20", 6765u64, "value");
        facts.fact("label", "node-egress:0", "label");
        assert_eq!(
            facts.render(),
            concat!(
                r#"{"bench":"smoke","facts":[{"group":"g","name":"fib_20","value":6765,"unit":"value"},"#,
                r#"{"group":"g","name":"label","value":"node-egress:0","unit":"label"}]}"#,
                "\n"
            )
        );
    }

    #[test]
    #[should_panic(expected = "fact g/n recorded twice: 553 then 554")]
    fn a_fact_recorded_twice_panics_with_both_values() {
        let mut facts = Facts::new("smoke", "g");
        facts.fact("n", 553u64, "permille");
        facts.fact("n", 554u64, "permille");
    }

    #[test]
    #[should_panic(expected = "fact g/ratio: Num(NaN) is not a finite number")]
    fn a_non_finite_fact_panics() {
        Facts::new("smoke", "g").fact("ratio", f64::NAN, "ratio");
    }
}
