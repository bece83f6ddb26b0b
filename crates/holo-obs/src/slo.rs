//! Declarative SLOs evaluated in virtual time.
//!
//! A [`SloSpec`] states objectives — p99 motion-to-photon latency,
//! usable-frame rate, stall budget, worst-window burn rate, per-tier
//! quality floors — and is evaluated against either per-frame
//! observations ([`SloSpec::evaluate_frames`]) or an aggregate summary
//! ([`SloSpec::evaluate_summary`]) when only report-level numbers
//! survive (chaos matrix cells, fleet nodes). Every input is virtual
//! time (integer µs) or an exact count, so a verdict is a pure function
//! of the run: byte-identical across repeats and thread counts.
//!
//! Burn rates follow the SRE shape: the run is cut into fixed
//! `window_ms` windows by capture time, each window's violation
//! fraction (frames unusable or over the latency target) is computed
//! exactly, and the *worst* window must stay under the budget — a run
//! that averages fine but dies for two seconds mid-call fails here
//! while passing the whole-run averages.

use holo_runtime::ser::{JsonValue, ToJson};
use holo_trace::LatencySketch;

/// One frame's observation: capture instant plus its end-to-end
/// latency when the frame reached the eye usable (`None` = lost,
/// corrupt, or dependency-broken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameObs {
    /// Capture time, virtual µs.
    pub at_us: u64,
    /// Capture-to-photon latency, µs; `None` when the frame never
    /// became usable.
    pub e2e_us: Option<u64>,
    /// Quality tier the frame was delivered at (`""` = untiered).
    pub tier: &'static str,
}

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
    /// Burn-rate window length, ms (capture-time windows).
    pub window_ms: u64,
    /// Worst window's violation fraction must be ≤ this.
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
            window_ms: 1_000,
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

    /// Evaluate against per-frame observations.
    pub fn evaluate_frames(&self, frames: &[FrameObs]) -> SloVerdict {
        let scheduled = frames.len() as u64;
        let mut e2e = LatencySketch::new();
        let mut photon_us: Vec<u64> = Vec::new();
        for f in frames {
            if let Some(us) = f.e2e_us {
                e2e.record(us);
                photon_us.push(f.at_us + us);
            }
        }
        photon_us.sort_unstable();
        let usable = e2e.count;

        let mut v = SloVerdict::new(&self.name);
        if let Some(limit) = self.max_p99_e2e_ms {
            let p99_ms = e2e.quantile_us(0.99) as f64 / 1e3;
            v.check_le("p99_e2e_ms", p99_ms, limit);
        }
        if let Some(limit) = self.min_usable_rate {
            let rate = if scheduled == 0 { 1.0 } else { usable as f64 / scheduled as f64 };
            v.check_ge("usable_rate", rate, limit);
        }
        if let Some(limit) = self.max_stall_ms {
            v.check_le("max_stall_ms", stall_ms(frames, &photon_us), limit);
        }
        if let Some(limit) = self.max_window_burn {
            v.check_le("worst_window_burn", self.worst_window_burn(frames), limit);
        }
        for (tier, floor) in &self.tier_floors {
            let at_tier = frames
                .iter()
                .filter(|f| f.e2e_us.is_some() && f.tier == tier.as_str())
                .count() as u64;
            let frac = if usable == 0 { 0.0 } else { at_tier as f64 / usable as f64 };
            v.check_ge(&format!("tier:{tier}"), frac, *floor);
        }
        v
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
        match (self.max_stall_ms, s.max_stall_ms) {
            (Some(limit), Some(stall)) => v.check_le("max_stall_ms", stall, limit),
            (Some(_), None) => v.skip("max_stall_ms"),
            _ => {}
        }
        match (self.max_window_burn, s.worst_window_burn) {
            (Some(limit), Some(burn)) => v.check_le("worst_window_burn", burn, limit),
            (Some(_), None) => v.skip("worst_window_burn"),
            _ => {}
        }
        for (tier, floor) in &self.tier_floors {
            match s.tier_fractions.iter().find(|(t, _)| t == tier) {
                Some((_, frac)) => v.check_ge(&format!("tier:{tier}"), *frac, *floor),
                None => v.skip(&format!("tier:{tier}")),
            }
        }
        v
    }

    /// Worst capture-time window's violation fraction. A frame violates
    /// when it is unusable or over the p99 latency target.
    pub fn worst_window_burn(&self, frames: &[FrameObs]) -> f64 {
        if frames.is_empty() {
            return 0.0;
        }
        let window_us = self.window_ms.max(1) * 1_000;
        let mut per_window: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
        for f in frames {
            let slot = per_window.entry(f.at_us / window_us).or_default();
            slot.0 += 1;
            let over_latency = match (f.e2e_us, self.max_p99_e2e_ms) {
                (Some(us), Some(limit)) => us as f64 / 1e3 > limit,
                (Some(_), None) => false,
                (None, _) => true,
            };
            if over_latency {
                slot.1 += 1;
            }
        }
        per_window
            .values()
            .map(|&(total, bad)| bad as f64 / total as f64)
            .fold(0.0, f64::max)
    }
}

/// Longest photon gap in ms. Leading gap (first capture to first
/// usable photon) counts; with no usable frames at all the stall is
/// the whole scheduled span.
fn stall_ms(frames: &[FrameObs], sorted_photon_us: &[u64]) -> f64 {
    let Some(first_at) = frames.iter().map(|f| f.at_us).min() else {
        return 0.0;
    };
    let last_at = frames.iter().map(|f| f.at_us).max().unwrap_or(first_at);
    if sorted_photon_us.is_empty() {
        return (last_at - first_at) as f64 / 1e3;
    }
    let mut worst = sorted_photon_us[0].saturating_sub(first_at);
    for pair in sorted_photon_us.windows(2) {
        worst = worst.max(pair[1] - pair[0]);
    }
    worst as f64 / 1e3
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
    /// Longest stall ms, when known.
    pub max_stall_ms: Option<f64>,
    /// Worst window burn, when known.
    pub worst_window_burn: Option<f64>,
    /// `(tier, fraction of usable frames)` pairs, when known.
    pub tier_fractions: Vec<(String, f64)>,
}

impl SloSummary {
    /// Roll `other` up into this summary as a floor, not an average:
    /// counts add and p99 is the worst present value. Nothing else is
    /// carried — rates, stalls, burns and tier splits do not add up.
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

/// Histograms of a metric snapshot that are safe to gate on: every
/// histogram **not** flagged `nondeterministic: true`. Wall-clock
/// families (whatever `holo_trace::WallTimer` recorded) are excluded by
/// their flag — never by a name list, so a new wall-clock metric is
/// excluded the day it is added, not the day someone remembers to
/// update a list.
pub fn deterministic_histograms(snapshot: &JsonValue) -> Vec<(String, JsonValue)> {
    let Some(JsonValue::Obj(pairs)) = snapshot.get("histograms") else {
        return Vec::new();
    };
    pairs
        .iter()
        .filter(|(_, h)| !matches!(h.get("nondeterministic"), Some(JsonValue::Bool(true))))
        .map(|(k, h)| (k.clone(), h.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(at_ms: u64, e2e_ms: Option<u64>) -> FrameObs {
        FrameObs { at_us: at_ms * 1_000, e2e_us: e2e_ms.map(|m| m * 1_000), tier: "" }
    }

    #[test]
    fn healthy_run_passes_telepresence() {
        let frames: Vec<FrameObs> = (0..300).map(|i| obs(i * 33, Some(60))).collect();
        let v = SloSpec::telepresence().evaluate_frames(&frames);
        assert!(v.pass(), "{}", v.line());
        assert!(v.skipped.is_empty());
    }

    #[test]
    fn latency_breach_fails_p99_only() {
        let frames: Vec<FrameObs> = (0..300)
            .map(|i| obs(i * 33, Some(if i % 50 == 0 { 400 } else { 60 })))
            .collect();
        let v = SloSpec::telepresence().evaluate_frames(&frames);
        assert!(!v.pass());
        let p99 = v.checks.iter().find(|c| c.objective == "p99_e2e_ms").unwrap();
        assert!(!p99.pass);
        let usable = v.checks.iter().find(|c| c.objective == "usable_rate").unwrap();
        assert!(usable.pass);
    }

    #[test]
    fn burst_loss_fails_burn_but_not_average() {
        // 20s run at 30fps; one second loses everything: overall usable
        // rate ~0.95 (passes ≥0.9) but the worst window burns 100%.
        let frames: Vec<FrameObs> = (0..600)
            .map(|i| {
                let at = i * 33;
                obs(at, if (3_000..4_000).contains(&at) { None } else { Some(60) })
            })
            .collect();
        let spec = SloSpec::telepresence();
        let v = spec.evaluate_frames(&frames);
        let usable = v.checks.iter().find(|c| c.objective == "usable_rate").unwrap();
        assert!(usable.pass, "{}", v.line());
        let burn = v.checks.iter().find(|c| c.objective == "worst_window_burn").unwrap();
        assert!(!burn.pass);
        assert_eq!(burn.actual, 1.0);
    }

    #[test]
    fn stall_budget_catches_gaps() {
        let mut frames: Vec<FrameObs> = (0..30).map(|i| obs(i * 33, Some(50))).collect();
        frames.extend((20..30).map(|i| obs(1_000 + i * 33, Some(50))));
        let spec = SloSpec {
            max_stall_ms: Some(100.0),
            max_window_burn: None,
            min_usable_rate: None,
            ..SloSpec::telepresence()
        };
        let v = spec.evaluate_frames(&frames);
        let stall = v.checks.iter().find(|c| c.objective == "max_stall_ms").unwrap();
        assert!(!stall.pass);
        assert!(stall.actual > 300.0, "{}", stall.actual);
    }

    #[test]
    fn tier_floor_enforced() {
        let frames: Vec<FrameObs> = (0..100)
            .map(|i| FrameObs {
                at_us: i * 33_000,
                e2e_us: Some(50_000),
                tier: if i % 4 == 0 { "keypoint" } else { "full" },
            })
            .collect();
        let mut spec = SloSpec::telepresence();
        spec.tier_floors.push(("full".to_string(), 0.9));
        let v = spec.evaluate_frames(&frames);
        let tier = v.checks.iter().find(|c| c.objective == "tier:full").unwrap();
        assert!(!tier.pass);
        assert_eq!(tier.actual, 0.75);
    }

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
            max_stall_ms: Some(5.0),
            tier_fractions: vec![("full".to_string(), 1.0)],
            ..SloSummary::default()
        };
        for s in [sub(9, Some(80.0)), sub(10, None), sub(7, Some(120.0)), sub(10, Some(90.0))] {
            total.absorb(&s);
        }
        assert_eq!((total.frames_expected, total.frames_usable), (40, 36));
        assert_eq!(total.p99_e2e_ms, Some(120.0));
        assert_eq!(total.max_stall_ms, None, "per-subject inputs are not carried");
        assert!(total.tier_fractions.is_empty());
    }

    #[test]
    fn verdict_json_is_canonical() {
        let frames: Vec<FrameObs> = (0..30).map(|i| obs(i * 33, Some(60))).collect();
        let v = SloSpec::telepresence().evaluate_frames(&frames);
        let a = v.to_json().render();
        let b = SloSpec::telepresence().evaluate_frames(&frames).to_json().render();
        assert_eq!(a, b);
        holo_runtime::ser::parse(&a).expect("verdict json parses");
    }

    #[test]
    fn flag_filter_drops_wall_clock_histograms() {
        let mut m = holo_trace::Metrics::default();
        m.histogram("stage_us", 1_000);
        m.wall_time("compress.lzma.encode_us", std::time::Duration::from_millis(3));
        let kept = deterministic_histograms(&m.to_json());
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].0, "stage_us");
    }
}
