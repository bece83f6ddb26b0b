//! The perf regression gate: compare fresh `BENCH_*.json` artifacts
//! against committed baselines with per-metric tolerances.
//!
//! Bench results join on `(group, name)`. Two realities shape the
//! rules:
//!
//! - Some benches embed machine-shaped facts in their *names*
//!   (`detected_cores=8`, per-node egress rows), so a pair present on
//!   only one side is a **warning**, never a failure — the gate must
//!   run identically on a 4-core laptop and a 64-core CI box.
//! - Wall-clock medians are noisy, so a regression needs both a ratio
//!   breach (`current > baseline × tolerance`) *and* an absolute floor
//!   (`current − baseline > min_delta_ns`) — a 40 ns → 95 ns blip on a
//!   nanosecond-scale bench is not a regression worth failing a build.
//!
//! The same module hosts the snapshot comparator: metric snapshots are
//! byte-compared after stripping histograms flagged
//! `nondeterministic: true` (the wall-clock timer's families) — by
//! flag, never by name list.

use crate::slo::deterministic_histograms;
use holo_runtime::ser::{self, JsonValue, ToJson};

/// One bench result row, the join key plus the gated statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Bench group (e.g. `"codec"`).
    pub group: String,
    /// Bench name within the group.
    pub name: String,
    /// Median wall time per iteration, ns — the gated statistic
    /// (medians resist outliers; means don't).
    pub median_ns: f64,
}

/// Parse one `BENCH_*.json` document into its entries.
pub fn parse_bench(doc: &JsonValue) -> Result<Vec<BenchEntry>, String> {
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or_else(|| "bench document has no results array".to_string())?;
    results
        .iter()
        .map(|r| {
            let field = |k: &str| {
                r.get(k).ok_or_else(|| format!("bench result missing field {k:?}"))
            };
            Ok(BenchEntry {
                group: field("group")?
                    .as_str()
                    .ok_or_else(|| "group is not a string".to_string())?
                    .to_string(),
                name: field("name")?
                    .as_str()
                    .ok_or_else(|| "name is not a string".to_string())?
                    .to_string(),
                median_ns: field("median_ns")?
                    .as_f64()
                    .ok_or_else(|| "median_ns is not a number".to_string())?,
            })
        })
        .collect()
}

/// Gate tolerances.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Default allowed slowdown ratio (current / baseline).
    pub max_ratio: f64,
    /// Absolute slack: deltas under this many ns never regress.
    pub min_delta_ns: f64,
    /// Per-metric overrides, matched by longest `"group/name"` prefix.
    pub overrides: Vec<(String, f64)>,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            // Virtual-time sims on shared CI boxes jitter; 1.6× on the
            // median with a 200 ns floor separates real pessimizations
            // from scheduler noise in practice.
            max_ratio: 1.6,
            min_delta_ns: 200.0,
            overrides: Vec::new(),
        }
    }
}

impl GateConfig {
    /// Tolerance for one metric: the longest matching override prefix,
    /// else the default.
    pub fn ratio_for(&self, group: &str, name: &str) -> f64 {
        let key = format!("{group}/{name}");
        self.overrides
            .iter()
            .filter(|(prefix, _)| key.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|&(_, r)| r)
            .unwrap_or(self.max_ratio)
    }
}

/// A joined pair's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Within tolerance.
    Ok,
    /// Got faster by more than the tolerance (informational).
    Improved,
    /// Slower than tolerance allows — fails the gate.
    Regressed,
    /// Present only in the baseline (machine-shaped name) — warning.
    MissingCurrent,
    /// Present only in the fresh run — warning.
    MissingBaseline,
}

impl DeltaStatus {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DeltaStatus::Ok => "ok",
            DeltaStatus::Improved => "improved",
            DeltaStatus::Regressed => "regressed",
            DeltaStatus::MissingCurrent => "missing_current",
            DeltaStatus::MissingBaseline => "missing_baseline",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Bench group.
    pub group: String,
    /// Bench name.
    pub name: String,
    /// Baseline median ns (0 when missing).
    pub baseline_ns: f64,
    /// Fresh median ns (0 when missing).
    pub current_ns: f64,
    /// current / baseline (1.0 when either side is missing).
    pub ratio: f64,
    /// Tolerance applied to this metric.
    pub tolerance: f64,
    /// Outcome.
    pub status: DeltaStatus,
}

/// The gate's machine-readable outcome.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// All joined and unjoined metrics, sorted by `(group, name)`.
    pub deltas: Vec<Delta>,
}

impl GateReport {
    /// Compare baseline entries against fresh ones.
    pub fn compare(baseline: &[BenchEntry], current: &[BenchEntry], cfg: &GateConfig) -> Self {
        use std::collections::BTreeMap;
        let mut joined: BTreeMap<(String, String), (Option<f64>, Option<f64>)> = BTreeMap::new();
        for e in baseline {
            joined.entry((e.group.clone(), e.name.clone())).or_default().0 = Some(e.median_ns);
        }
        for e in current {
            joined.entry((e.group.clone(), e.name.clone())).or_default().1 = Some(e.median_ns);
        }
        let deltas = joined
            .into_iter()
            .map(|((group, name), sides)| {
                let tolerance = cfg.ratio_for(&group, &name);
                let (baseline_ns, current_ns, ratio, status) = match sides {
                    (Some(b), Some(c)) => {
                        let ratio = if b > 0.0 { c / b } else { 1.0 };
                        let status = if ratio > tolerance && c - b > cfg.min_delta_ns {
                            DeltaStatus::Regressed
                        } else if ratio < 1.0 / tolerance && b - c > cfg.min_delta_ns {
                            DeltaStatus::Improved
                        } else {
                            DeltaStatus::Ok
                        };
                        (b, c, ratio, status)
                    }
                    (Some(b), None) => (b, 0.0, 1.0, DeltaStatus::MissingCurrent),
                    (None, Some(c)) => (0.0, c, 1.0, DeltaStatus::MissingBaseline),
                    (None, None) => unreachable!("joined map entries have at least one side"),
                };
                Delta { group, name, baseline_ns, current_ns, ratio, tolerance, status }
            })
            .collect();
        Self { deltas }
    }

    /// Deltas with the given status.
    pub fn with_status(&self, status: DeltaStatus) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(move |d| d.status == status)
    }

    /// True when nothing regressed (warnings don't fail the gate).
    pub fn pass(&self) -> bool {
        self.with_status(DeltaStatus::Regressed).next().is_none()
    }

    /// Human table of everything that isn't a plain `ok`.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let counts = |s| self.with_status(s).count();
        let _ = writeln!(
            out,
            "bench gate: {} compared, {} regressed, {} improved, {} unmatched",
            self.deltas.len(),
            counts(DeltaStatus::Regressed),
            counts(DeltaStatus::Improved),
            counts(DeltaStatus::MissingCurrent) + counts(DeltaStatus::MissingBaseline),
        );
        for d in &self.deltas {
            if d.status == DeltaStatus::Ok {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<16} {}/{}: {:.0} ns -> {:.0} ns ({:.2}x, tol {:.2}x)",
                d.status.name(),
                d.group,
                d.name,
                d.baseline_ns,
                d.current_ns,
                d.ratio,
                d.tolerance,
            );
        }
        out
    }

    /// Machine-readable delta report (canonical JSON).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("pass", JsonValue::Bool(self.pass())),
            ("compared", self.deltas.len().to_json()),
            (
                "regressions",
                self.with_status(DeltaStatus::Regressed).count().to_json(),
            ),
            (
                "deltas",
                JsonValue::Arr(
                    self.deltas
                        .iter()
                        .map(|d| {
                            JsonValue::obj([
                                ("group", d.group.to_json()),
                                ("name", d.name.to_json()),
                                ("baseline_ns", d.baseline_ns.to_json()),
                                ("current_ns", d.current_ns.to_json()),
                                ("ratio", d.ratio.to_json()),
                                ("tolerance", d.tolerance.to_json()),
                                ("status", d.status.name().to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Rebuild a metric snapshot with every `nondeterministic: true`
/// histogram removed, for byte-comparison across runs. Everything else
/// — key order, counters, gauges, deterministic histograms — passes
/// through untouched.
pub fn strip_nondeterministic(snapshot: &JsonValue) -> JsonValue {
    let JsonValue::Obj(pairs) = snapshot else {
        return snapshot.clone();
    };
    let kept = deterministic_histograms(snapshot);
    JsonValue::Obj(
        pairs
            .iter()
            .map(|(k, v)| {
                if k == "histograms" {
                    (k.clone(), JsonValue::Obj(kept.clone()))
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect(),
    )
}

/// Multiply every `*_ns` statistic in a bench document by `factor` —
/// the gate self-test's regression injector (`scripts/bench_gate.sh
/// --self-test` scales a copied baseline 2× and asserts the gate
/// fails).
pub fn scale_bench(doc: &JsonValue, factor: f64) -> JsonValue {
    fn walk(v: &JsonValue, factor: f64, under_ns_key: bool) -> JsonValue {
        match v {
            JsonValue::Obj(pairs) => JsonValue::Obj(
                pairs
                    .iter()
                    .map(|(k, inner)| {
                        (k.clone(), walk(inner, factor, k.ends_with("_ns")))
                    })
                    .collect(),
            ),
            JsonValue::Arr(items) => {
                JsonValue::Arr(items.iter().map(|i| walk(i, factor, false)).collect())
            }
            JsonValue::Num(n) if under_ns_key => JsonValue::Num(n * factor),
            other => other.clone(),
        }
    }
    walk(doc, factor, false)
}

/// Parse a bench document from its JSON text.
pub fn parse_bench_text(text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = ser::parse(text).map_err(|e| format!("bench json did not parse: {e:?}"))?;
    parse_bench(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(group: &str, name: &str, median_ns: f64) -> BenchEntry {
        BenchEntry { group: group.to_string(), name: name.to_string(), median_ns }
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![entry("codec", "encode", 10_000.0), entry("codec", "decode", 5_000.0)];
        let report = GateReport::compare(&base, &base, &GateConfig::default());
        assert!(report.pass());
        assert!(report.deltas.iter().all(|d| d.status == DeltaStatus::Ok));
    }

    #[test]
    fn two_x_slowdown_fails() {
        let base = vec![entry("codec", "encode", 10_000.0)];
        let cur = vec![entry("codec", "encode", 20_000.0)];
        let report = GateReport::compare(&base, &cur, &GateConfig::default());
        assert!(!report.pass());
        assert_eq!(report.deltas[0].status, DeltaStatus::Regressed);
        assert!(report.table().contains("regressed"));
    }

    #[test]
    fn nanosecond_noise_is_not_a_regression() {
        // 3.3x ratio but only 70 ns absolute — under the floor.
        let base = vec![entry("tiny", "op", 30.0)];
        let cur = vec![entry("tiny", "op", 100.0)];
        let report = GateReport::compare(&base, &cur, &GateConfig::default());
        assert!(report.pass());
    }

    #[test]
    fn machine_shaped_names_warn_not_fail() {
        let base = vec![entry("parallel", "detected_cores=8", 1e6)];
        let cur = vec![entry("parallel", "detected_cores=4", 1e6)];
        let report = GateReport::compare(&base, &cur, &GateConfig::default());
        assert!(report.pass());
        assert_eq!(report.with_status(DeltaStatus::MissingCurrent).count(), 1);
        assert_eq!(report.with_status(DeltaStatus::MissingBaseline).count(), 1);
    }

    #[test]
    fn overrides_match_longest_prefix() {
        let cfg = GateConfig {
            overrides: vec![("codec/".to_string(), 3.0), ("codec/encode".to_string(), 1.1)],
            ..GateConfig::default()
        };
        assert_eq!(cfg.ratio_for("codec", "encode"), 1.1);
        assert_eq!(cfg.ratio_for("codec", "decode"), 3.0);
        assert_eq!(cfg.ratio_for("mesh", "simplify"), 1.6);
    }

    #[test]
    fn scale_bench_hits_only_ns_fields() {
        let doc = ser::parse(
            r#"{"bench":"b","results":[{"group":"g","name":"n","samples":20,"median_ns":100,"p95_ns":150}]}"#,
        )
        .unwrap();
        let scaled = scale_bench(&doc, 2.0);
        let r = &scaled.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(r.get("median_ns").unwrap().as_f64(), Some(200.0));
        assert_eq!(r.get("p95_ns").unwrap().as_f64(), Some(300.0));
        assert_eq!(r.get("samples").unwrap().as_f64(), Some(20.0));
        assert_eq!(scaled.get("bench").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn scaled_baseline_fails_the_gate() {
        let text = r#"{"bench":"b","results":[{"group":"g","name":"n","median_ns":5000}]}"#;
        let base = parse_bench_text(text).unwrap();
        let scaled_doc = scale_bench(&ser::parse(text).unwrap(), 2.0);
        let cur = parse_bench(&scaled_doc).unwrap();
        let report = GateReport::compare(&base, &cur, &GateConfig::default());
        assert!(!report.pass());
    }

    #[test]
    fn snapshot_strip_removes_only_flagged_histograms() {
        let mut m = holo_trace::Metrics::default();
        m.counter("frames", 3);
        m.histogram("stage_us", 1_000);
        m.wall_time("compress.lzma.encode_us", std::time::Duration::from_millis(3));
        let stripped = strip_nondeterministic(&m.to_json());
        let text = stripped.render();
        assert!(text.contains("stage_us"));
        assert!(!text.contains("compress.lzma.encode_us"));
        assert!(text.contains("\"frames\":3"));
        // Stripping is idempotent and keeps canonical key order.
        assert_eq!(strip_nondeterministic(&stripped).render(), text);
    }

    #[test]
    fn gate_report_json_is_canonical() {
        let base = vec![entry("g", "n", 1000.0)];
        let cur = vec![entry("g", "n", 5000.0)];
        let report = GateReport::compare(&base, &cur, &GateConfig::default());
        let a = report.to_json().render();
        assert!(ser::parse(&a).is_ok());
        assert!(a.contains("\"pass\":false"));
    }
}
