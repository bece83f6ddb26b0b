//! The bench gate: compare fresh `BENCH_*.json` documents against the
//! committed ones. It does one job exactly and one job not at all:
//!
//! - **Facts** — the seeded, byte-derived values a bench records with
//!   `fact(name, value, unit)` — join on `(bench, group, name)` and
//!   must match to the digit. A changed value or unit, a fact or a
//!   document present on one side only, or two documents made in
//!   different modes (`quick` against `full`) fails the gate, printing
//!   old and new.
//! - **Timings** are listed as an advisory ratio table that never
//!   touches the outcome: quick-mode medians on a shared box sit
//!   1.1–1.9x apart with no code change between them. The instrument
//!   for timings is `benchmark/` with `scripts/ab_pairs.sh`.
//!
//! The same module hosts [`strip_nondeterministic`]: metric snapshots
//! are byte-compared after dropping histograms flagged
//! `nondeterministic: true` (the wall-clock timer's families) — by
//! flag, never by name list.

use crate::slo::deterministic_histograms;
use holo_runtime::ser::{self, JsonValue, ToJson};
use std::collections::{BTreeMap, BTreeSet};

/// A row's join key within its document: `(group, name)`.
pub type RowKey = (String, String);

/// One parsed `BENCH_*.json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchDoc {
    /// Bench target name.
    pub bench: String,
    /// How it was made: `"quick"` or `"full"`.
    pub mode: String,
    /// Each fact as `"<canonical JSON value> <unit>"` — what is compared.
    pub facts: BTreeMap<RowKey, String>,
    /// Each timing's median wall time per iteration, ns.
    pub timings: BTreeMap<RowKey, f64>,
}

/// Parse one `BENCH_*.json` document from its text. A fact whose value
/// is not a JSON scalar, or a `(group, name)` recorded twice, is an
/// error: neither can be joined.
pub fn parse_bench(text: &str) -> Result<BenchDoc, String> {
    let doc = &ser::parse(text).map_err(|e| format!("bench json did not parse: {e:?}"))?;
    fn string(v: &JsonValue, k: &str) -> Result<String, String> {
        let s = v.get(k).and_then(|s| s.as_str());
        s.map(str::to_string).ok_or_else(|| format!("missing string field {k:?}"))
    }
    let rows = |k: &str| {
        doc.get(k).and_then(|r| r.as_array()).ok_or_else(|| format!("no {k:?} array"))
    };
    let key = |r: &JsonValue| Ok::<_, String>((string(r, "group")?, string(r, "name")?));
    let mut out =
        BenchDoc { bench: string(doc, "bench")?, mode: string(doc, "mode")?, ..Default::default() };
    for r in rows("facts")? {
        let key = key(r)?;
        let value = match r.get("value") {
            Some(v @ (JsonValue::Num(_) | JsonValue::Str(_) | JsonValue::Bool(_))) => v.render(),
            other => return Err(format!("fact {key:?}: value {other:?} is not a scalar")),
        };
        let fact = format!("{value} {}", string(r, "unit")?);
        if let Some(old) = out.facts.insert(key.clone(), fact) {
            return Err(format!("fact {key:?} appears twice (first as {old})"));
        }
    }
    for r in rows("results")? {
        let median = r.get("median_ns").and_then(|m| m.as_f64());
        out.timings.insert(key(r)?, median.ok_or("timing without a numeric median_ns")?);
    }
    Ok(out)
}

/// Printed for the side a fact or document is missing from.
pub const ABSENT: &str = "(absent)";

/// One reason the gate fails.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// What differs: `fact <bench> <group>/<name>` (value or unit
    /// changed, or one side lacks it), `document <bench>` (one side
    /// lacks it) or `mode <bench>` (quick against full).
    pub what: String,
    /// The committed side.
    pub old: String,
    /// The fresh side.
    pub new: String,
}

/// One timing row, for the advisory table.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// `<bench> <group>/<name>`.
    pub what: String,
    /// Committed median ns, if that side has the row.
    pub baseline_ns: Option<f64>,
    /// Fresh median ns, if that side has the row.
    pub current_ns: Option<f64>,
}

impl Timing {
    /// current / baseline, when both sides have the row.
    pub fn ratio(&self) -> Option<f64> {
        Some(self.current_ns? / self.baseline_ns?)
    }
}

/// The gate's outcome.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Fact keys joined and compared.
    pub facts_compared: usize,
    /// Everything that fails the gate, in `(bench, group, name)` order.
    pub failures: Vec<Failure>,
    /// Every timing row of documents present on both sides. Advisory.
    pub timings: Vec<Timing>,
}

fn union_keys<'a, V>(
    a: &'a BTreeMap<RowKey, V>,
    b: &'a BTreeMap<RowKey, V>,
) -> BTreeSet<&'a RowKey> {
    a.keys().chain(b.keys()).collect()
}

impl GateReport {
    /// Compare committed documents against fresh ones.
    pub fn compare(baseline: &[BenchDoc], current: &[BenchDoc]) -> Self {
        fn find<'a>(docs: &'a [BenchDoc], bench: &str) -> Option<&'a BenchDoc> {
            docs.iter().find(|d| d.bench == bench)
        }
        fn fact<'a>(doc: &'a BenchDoc, key: &RowKey) -> &'a str {
            doc.facts.get(key).map_or(ABSENT, String::as_str)
        }
        let benches: BTreeSet<&str> =
            baseline.iter().chain(current).map(|d| d.bench.as_str()).collect();
        let mut report = Self::default();
        for bench in benches {
            let mut fail = |what: String, old: &str, new: &str| {
                report.failures.push(Failure { what, old: old.into(), new: new.into() })
            };
            match (find(baseline, bench), find(current, bench)) {
                // Quick and full runs probe different sizes: one
                // failure, not one per fact.
                (Some(b), Some(c)) if b.mode != c.mode => {
                    fail(format!("mode {bench}"), &b.mode, &c.mode)
                }
                (Some(b), Some(c)) => {
                    for key @ (group, name) in union_keys(&b.facts, &c.facts) {
                        let (old, new) = (fact(b, key), fact(c, key));
                        if old != new {
                            fail(format!("fact {bench} {group}/{name}"), old, new);
                        }
                        report.facts_compared += 1;
                    }
                    for key @ (group, name) in union_keys(&b.timings, &c.timings) {
                        report.timings.push(Timing {
                            what: format!("{bench} {group}/{name}"),
                            baseline_ns: b.timings.get(key).copied(),
                            current_ns: c.timings.get(key).copied(),
                        });
                    }
                }
                (Some(_), None) => fail(format!("document {bench}"), "present", ABSENT),
                (None, _) => fail(format!("document {bench}"), ABSENT, "present"),
            }
        }
        report
    }

    /// True when every fact, document and mode matched. Timings never
    /// enter into it.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human report: the verdict, each failure old -> new, then the
    /// advisory timing table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench gate: {} — {} facts compared exactly, {} failed",
            if self.pass() { "PASS" } else { "FAIL" },
            self.facts_compared,
            self.failures.len(),
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL {}: {} -> {}", f.what, f.old, f.new);
        }
        let _ = writeln!(
            out,
            "timings (advisory, never gated; measure with benchmark/ + scripts/ab_pairs.sh):",
        );
        let ns = |v: Option<f64>| v.map_or(ABSENT.to_string(), |v| format!("{v:.0} ns"));
        for t in &self.timings {
            let ratio = t.ratio().map_or("    -".to_string(), |r| format!("{r:>5.2}x"));
            let _ = writeln!(out, "  {ratio} {}: {} -> {}", t.what, ns(t.baseline_ns), ns(t.current_ns));
        }
        out
    }

    /// Machine-readable report (canonical JSON).
    pub fn to_json(&self) -> JsonValue {
        let failure = |f: &Failure| {
            JsonValue::obj([
                ("what", f.what.to_json()),
                ("old", f.old.to_json()),
                ("new", f.new.to_json()),
            ])
        };
        let timing = |t: &Timing| {
            JsonValue::obj([
                ("what", t.what.to_json()),
                ("baseline_ns", t.baseline_ns.to_json()),
                ("current_ns", t.current_ns.to_json()),
                ("ratio", t.ratio().to_json()),
            ])
        };
        JsonValue::obj([
            ("pass", JsonValue::Bool(self.pass())),
            ("facts_compared", self.facts_compared.to_json()),
            ("failures", JsonValue::Arr(self.failures.iter().map(failure).collect())),
            ("advisory_timings", JsonValue::Arr(self.timings.iter().map(timing).collect())),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-fact, two-timing document the way the harness writes it.
    fn doc(bench: &str) -> BenchDoc {
        parse_bench(&format!(
            r#"{{"bench":"{bench}","mode":"quick","cores":2,"facts":[
                {{"group":"uep","name":"usable/burst5/weighted","value":553,"unit":"permille"}},
                {{"group":"fleet","name":"bottleneck/mesh/nodes2","value":"node-egress:0","unit":"label"}}],
              "results":[{{"group":"codec","name":"encode","median_ns":10000}},
                {{"group":"codec","name":"decode","median_ns":5000}}]}}"#
        ))
        .unwrap()
    }

    fn key(group: &str, name: &str) -> RowKey {
        (group.to_string(), name.to_string())
    }

    /// The one failure of a comparison that must have exactly one.
    fn sole_failure(base: &[BenchDoc], cur: &[BenchDoc]) -> Failure {
        let report = GateReport::compare(base, cur);
        assert!(!report.pass());
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.table().starts_with("bench gate: FAIL"));
        report.failures[0].clone()
    }

    #[test]
    fn identical_runs_pass() {
        let docs = [doc("a"), doc("b")];
        let report = GateReport::compare(&docs, &docs);
        assert!(report.pass());
        assert_eq!((report.facts_compared, report.timings.len()), (4, 4));
        assert!(report.table().starts_with("bench gate: PASS"));
    }

    #[test]
    fn one_digit_of_one_fact_fails_naming_it() {
        let mut cur = doc("a");
        cur.facts.insert(key("uep", "usable/burst5/weighted"), "554 permille".to_string());
        let f = sole_failure(&[doc("a"), doc("b")], &[cur, doc("b")]);
        assert_eq!(f.what, "fact a uep/usable/burst5/weighted");
        assert_eq!((f.old.as_str(), f.new.as_str()), ("553 permille", "554 permille"));
        let table = GateReport::compare(&[doc("a")], &[{
            let mut d = doc("a");
            d.facts.insert(key("fleet", "bottleneck/mesh/nodes2"), "\"cascade:0->1\" label".into());
            d
        }])
        .table();
        assert!(
            table.contains(
                "FAIL fact a fleet/bottleneck/mesh/nodes2: \"node-egress:0\" label -> \"cascade:0->1\" label"
            ),
            "{table}"
        );
    }

    #[test]
    fn changed_unit_fails() {
        let mut cur = doc("a");
        cur.facts.insert(key("uep", "usable/burst5/weighted"), "553 percent".to_string());
        let f = sole_failure(&[doc("a")], &[cur]);
        assert_eq!((f.old.as_str(), f.new.as_str()), ("553 permille", "553 percent"));
    }

    #[test]
    fn a_fact_on_one_side_only_fails() {
        let mut cur = doc("a");
        let fact = cur.facts.remove(&key("uep", "usable/burst5/weighted")).unwrap();
        let gone = sole_failure(&[doc("a")], std::slice::from_ref(&cur));
        assert_eq!((gone.old.as_str(), gone.new.as_str()), (fact.as_str(), ABSENT));
        let born = sole_failure(&[cur], &[doc("a")]);
        assert_eq!((born.old.as_str(), born.new.as_str()), (ABSENT, fact.as_str()));
    }

    #[test]
    fn a_document_on_one_side_only_fails() {
        let gone = sole_failure(&[doc("a"), doc("b")], &[doc("a")]);
        assert_eq!((gone.what.as_str(), gone.new.as_str()), ("document b", ABSENT));
        let born = sole_failure(&[doc("a")], &[doc("a"), doc("b")]);
        assert_eq!((born.what.as_str(), born.old.as_str()), ("document b", ABSENT));
    }

    #[test]
    fn quick_against_full_is_one_mode_failure_not_n_fact_diffs() {
        let mut full = doc("a");
        full.mode = "full".to_string();
        for fact in full.facts.values_mut() {
            fact.push('0');
        }
        let f = sole_failure(&[doc("a")], &[full]);
        assert_eq!((f.what.as_str(), f.old.as_str(), f.new.as_str()), ("mode a", "quick", "full"));
    }

    #[test]
    fn ten_x_slower_timings_pass_and_are_listed_as_advisory() {
        let mut slow = doc("a");
        for median in slow.timings.values_mut() {
            *median *= 10.0;
        }
        let report = GateReport::compare(&[doc("a")], &[slow]);
        assert!(report.pass());
        assert!(report.timings.iter().all(|t| t.ratio() == Some(10.0)));
        let table = report.table();
        assert!(table.contains("timings (advisory"), "{table}");
        assert!(table.contains("10.00x a codec/encode: 10000 ns -> 100000 ns"), "{table}");
    }

    #[test]
    fn unjoinable_documents_do_not_parse() {
        let no_mode = r#"{"bench":"b","results":[],"facts":[]}"#;
        assert!(parse_bench(no_mode).unwrap_err().contains("mode"));
        let fact = r#"{"group":"g","name":"n","value":1,"unit":"u"}"#;
        let twice = format!(r#"{{"bench":"b","mode":"full","facts":[{fact},{fact}],"results":[]}}"#);
        assert!(parse_bench(&twice).unwrap_err().contains("twice"));
        let null = r#"{"bench":"b","mode":"full","facts":[{"group":"g","name":"n","value":null,"unit":"u"}],"results":[]}"#;
        assert!(parse_bench(null).unwrap_err().contains("not a scalar"));
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
        let mut cur = doc("a");
        cur.facts.insert(key("uep", "usable/burst5/weighted"), "554 permille".to_string());
        cur.timings.remove(&key("codec", "decode"));
        let a = GateReport::compare(&[doc("a")], &[cur]).to_json().render();
        assert!(ser::parse(&a).is_ok());
        assert!(a.contains("\"pass\":false"));
        let failure = r#"{"what":"fact a uep/usable/burst5/weighted","old":"553 permille","new":"554 permille"}"#;
        assert!(a.contains(failure), "{a}");
        let one_sided = r#"{"what":"a codec/decode","baseline_ns":5000,"current_ns":null,"ratio":null}"#;
        assert!(a.contains(&format!(r#""advisory_timings":[{one_sided},"#)), "{a}");
    }
}
