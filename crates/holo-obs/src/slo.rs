//! Declarative SLOs evaluated in virtual time.
//!
//! A [`SloSpec`] states objectives — p99 motion-to-photon latency,
//! usable-frame rate, stall budget, worst-window burn rate, per-tier
//! quality floors — and is evaluated against an aggregate summary
//! ([`SloSpec::evaluate_summary`]) of what a report retains (room
//! subscribers, chaos matrix cells, fleet nodes). Every input is
//! virtual time (integer µs) or an exact count, so a verdict is a pure
//! function of the run: byte-identical across repeats and thread
//! counts. The stall and burn-rate objectives need per-frame data no
//! summary retains, so a spec that sets them gets them back skipped.

use holo_runtime::ser::{JsonValue, ToJson};

/// A declarative service-level objective set.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Spec name, carried into the verdict.
    pub name: String,
    /// p99 motion-to-photon latency must be ≤ this many ms.
    pub max_p99_e2e_ms: Option<f64>,
    /// Usable frames / scheduled frames must be ≥ this fraction.
    pub min_usable_rate: Option<f64>,
    /// Longest gap between consecutive usable photons must be ≤ this
    /// many ms.
    pub max_stall_ms: Option<f64>,
    /// Worst one-second window's violation fraction must be ≤ this.
    pub max_window_burn: Option<f64>,
    /// Per-tier floors: at least this fraction of usable frames must
    /// have been delivered at the named tier.
    pub tier_floors: Vec<(String, f64)>,
}

impl SloSpec {
    /// The default telepresence objective: p99 motion-to-photon
    /// ≤ 100 ms (the paper's interactivity bound), ≥ 90% usable
    /// frames, no stall longer than 250 ms, and no one-second window
    /// losing more than a quarter of its frames.
    pub fn telepresence() -> Self {
        Self {
            name: "telepresence".to_string(),
            max_p99_e2e_ms: Some(100.0),
            min_usable_rate: Some(0.90),
            max_stall_ms: Some(250.0),
            max_window_burn: Some(0.25),
            tier_floors: Vec::new(),
        }
    }

    /// A named variant of [`SloSpec::telepresence`].
    pub fn named(name: &str) -> Self {
        Self { name: name.to_string(), ..Self::telepresence() }
    }

    /// The amortized-tier objective: everything in
    /// [`SloSpec::telepresence`], plus a floor on the gaussian rung —
    /// a starved subscriber that holds the prebuild blob should ride
    /// the amortized tier for at least half of its delivered frames
    /// instead of falling through to keypoints. Subjects that report
    /// no gaussian fraction (no amortized ladder in play) skip the
    /// floor rather than failing it.
    pub fn telepresence_amortized() -> Self {
        let mut spec = Self::telepresence();
        spec.name = "telepresence-amortized".to_string();
        spec.tier_floors.push(("gaussian".to_string(), 0.5));
        spec
    }

    /// Evaluate against an aggregate summary (objectives whose datum is
    /// absent are recorded as skipped, never silently passed).
    pub fn evaluate_summary(&self, s: &SloSummary) -> SloVerdict {
        let mut v = SloVerdict::new(&self.name);
        match (self.max_p99_e2e_ms, s.p99_e2e_ms) {
            (Some(limit), Some(p99)) => v.check_le("p99_e2e_ms", p99, limit),
            (Some(_), None) => v.skip("p99_e2e_ms"),
            _ => {}
        }
        if let Some(limit) = self.min_usable_rate {
            let rate = s.usable_rate.unwrap_or(if s.frames_expected == 0 {
                1.0
            } else {
                s.frames_usable as f64 / s.frames_expected as f64
            });
            v.check_ge("usable_rate", rate, limit);
        }
        if self.max_stall_ms.is_some() {
            v.skip("max_stall_ms");
        }
        if self.max_window_burn.is_some() {
            v.skip("worst_window_burn");
        }
        for (tier, floor) in &self.tier_floors {
            match s.tier_fractions.iter().find(|(t, _)| t == tier) {
                Some((_, frac)) => v.check_ge(&format!("tier:{tier}"), *frac, *floor),
                None => v.skip(&format!("tier:{tier}")),
            }
        }
        v
    }
}

/// Aggregate inputs for [`SloSpec::evaluate_summary`].
#[derive(Debug, Clone, Default)]
pub struct SloSummary {
    /// Frames the run scheduled.
    pub frames_expected: u64,
    /// Frames delivered usable.
    pub frames_usable: u64,
    /// Pre-computed usable rate, for sources that only retained the
    /// ratio; overrides the count-derived rate when present.
    pub usable_rate: Option<f64>,
    /// p99 end-to-end ms, when the source report has one.
    pub p99_e2e_ms: Option<f64>,
    /// `(tier, fraction of usable frames)` pairs, when known.
    pub tier_fractions: Vec<(String, f64)>,
}

impl SloSummary {
    /// Roll `other` up into this summary as a floor, not an average:
    /// counts add and p99 is the worst present value. Nothing else is
    /// carried — rates and tier splits do not add up.
    pub fn absorb(&mut self, other: &SloSummary) {
        self.frames_expected += other.frames_expected;
        self.frames_usable += other.frames_usable;
        if let Some(p) = other.p99_e2e_ms {
            self.p99_e2e_ms = Some(self.p99_e2e_ms.map_or(p, |a| a.max(p)));
        }
    }
}

/// One objective's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SloCheck {
    /// Objective name (`"p99_e2e_ms"`, `"usable_rate"`, `"tier:full"`...).
    pub objective: String,
    /// Measured value.
    pub actual: f64,
    /// The spec's limit.
    pub limit: f64,
    /// `"<="` or `">="`.
    pub op: &'static str,
    /// Whether the objective held.
    pub pass: bool,
}

/// A spec's verdict over one subject.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Spec name.
    pub spec: String,
    /// All evaluated objectives.
    pub checks: Vec<SloCheck>,
    /// Objectives the input had no datum for (never silently passed).
    pub skipped: Vec<String>,
}

impl SloVerdict {
    /// An empty verdict for `spec` — downstream crates (e.g.
    /// `holo-chaos`'s unequal-protection sweep) build their own
    /// verdicts with the same check vocabulary instead of reinventing
    /// pass/fail bookkeeping.
    pub fn new(spec: &str) -> Self {
        Self { spec: spec.to_string(), checks: Vec::new(), skipped: Vec::new() }
    }

    /// Record an upper-bound objective: passes when `actual <= limit`.
    pub fn check_le(&mut self, objective: &str, actual: f64, limit: f64) {
        self.checks.push(SloCheck {
            objective: objective.to_string(),
            actual,
            limit,
            op: "<=",
            pass: actual <= limit,
        });
    }

    /// Record a lower-bound objective: passes when `actual >= limit`.
    pub fn check_ge(&mut self, objective: &str, actual: f64, limit: f64) {
        self.checks.push(SloCheck {
            objective: objective.to_string(),
            actual,
            limit,
            op: ">=",
            pass: actual >= limit,
        });
    }

    /// Record an objective the input had no datum for — reported as
    /// skipped, never silently passed.
    pub fn skip(&mut self, objective: &str) {
        self.skipped.push(objective.to_string());
    }

    /// True when every evaluated objective held.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Compact one-line rendering for run tables.
    pub fn line(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            format!("{} [{}]", if self.pass() { "PASS" } else { "FAIL" }, self.spec);
        for c in &self.checks {
            let _ = write!(
                out,
                " {}{}={:.3}{}{:.3}",
                if c.pass { "" } else { "!" },
                c.objective,
                c.actual,
                c.op,
                c.limit
            );
        }
        for s in &self.skipped {
            let _ = write!(out, " {s}=skipped");
        }
        out
    }

    /// Canonical JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("spec", self.spec.to_json()),
            ("pass", JsonValue::Bool(self.pass())),
            (
                "checks",
                JsonValue::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            JsonValue::obj([
                                ("objective", c.objective.to_json()),
                                ("actual", c.actual.to_json()),
                                ("op", c.op.to_json()),
                                ("limit", c.limit.to_json()),
                                ("pass", JsonValue::Bool(c.pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "skipped",
                JsonValue::Arr(self.skipped.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortized_spec_judges_or_skips_the_gaussian_floor() {
        let spec = SloSpec::telepresence_amortized();
        let base = SloSummary {
            frames_expected: 100,
            frames_usable: 95,
            p99_e2e_ms: Some(80.0),
            ..SloSummary::default()
        };
        // No gaussian datum: the floor is skipped, never failed.
        let v = spec.evaluate_summary(&base);
        assert!(v.pass(), "{}", v.line());
        assert!(v.skipped.contains(&"tier:gaussian".to_string()));
        // A prebuilt subscriber mostly on the rung passes the floor...
        let mut good = base.clone();
        good.tier_fractions = vec![("gaussian".to_string(), 0.8)];
        assert!(spec.evaluate_summary(&good).pass());
        // ...one that fell through to keypoints fails it.
        let mut bad = base.clone();
        bad.tier_fractions = vec![("gaussian".to_string(), 0.1)];
        let v = spec.evaluate_summary(&bad);
        assert!(!v.pass());
        let floor = v.checks.iter().find(|c| c.objective == "tier:gaussian").unwrap();
        assert!(!floor.pass);
    }

    #[test]
    fn summary_evaluation_skips_absent_data() {
        let spec = SloSpec::telepresence();
        let v = spec.evaluate_summary(&SloSummary {
            frames_expected: 100,
            frames_usable: 97,
            p99_e2e_ms: Some(80.0),
            ..SloSummary::default()
        });
        assert!(v.pass(), "{}", v.line());
        assert!(v.skipped.contains(&"max_stall_ms".to_string()));
        assert!(v.skipped.contains(&"worst_window_burn".to_string()));
        let text = v.to_json().render();
        assert!(text.contains("\"skipped\":["), "{text}");
    }

    #[test]
    fn absorb_adds_counts_and_keeps_the_worst_p99() {
        let mut total = SloSummary::default();
        let sub = |usable, p99| SloSummary {
            frames_expected: 10,
            frames_usable: usable,
            p99_e2e_ms: p99,
            usable_rate: Some(0.5),
            tier_fractions: vec![("full".to_string(), 1.0)],
        };
        for s in [sub(9, Some(80.0)), sub(10, None), sub(7, Some(120.0)), sub(10, Some(90.0))] {
            total.absorb(&s);
        }
        assert_eq!((total.frames_expected, total.frames_usable), (40, 36));
        assert_eq!(total.p99_e2e_ms, Some(120.0));
        assert_eq!(total.usable_rate, None, "per-subject inputs are not carried");
        assert!(total.tier_fractions.is_empty());
    }

    #[test]
    fn verdict_json_is_canonical() {
        let s = SloSummary {
            frames_expected: 30,
            frames_usable: 30,
            p99_e2e_ms: Some(60.0),
            ..SloSummary::default()
        };
        let a = SloSpec::telepresence().evaluate_summary(&s).to_json().render();
        let b = SloSpec::telepresence().evaluate_summary(&s).to_json().render();
        assert_eq!(a, b);
        holo_runtime::ser::parse(&a).expect("verdict json parses");
    }
}
