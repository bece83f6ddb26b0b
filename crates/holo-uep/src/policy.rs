//! Protection policy: how each importance class spends the budget.
//!
//! A policy answers three questions per class under ONE shared
//! redundancy budget:
//!
//! 1. **FEC** — how strong is the stripe? Stronger protection means a
//!    smaller `k` per parity frame (more overhead per frame).
//! 2. **Retransmit** — how eagerly do we retry? A tighter RTO and more
//!    attempts for frames whose loss poisons a chain.
//! 3. **Abandonment** — when do we stop? A delta whose every dependent
//!    frame has already missed its render deadline is dead weight in
//!    the retransmit queue; abandoning it frees the link for frames
//!    that still matter.
//!
//! The two built-in policies, [`UepPolicy::uniform`] and
//! [`UepPolicy::weighted`], are budget twins: over the canonical
//! 150-frame / GOP-10 stream they emit exactly the same number of
//! parity frames and schedule exactly the same number of retry slots
//! ([`UepPolicy::parity_frames`], [`UepPolicy::scheduled_retries`]
//! prove it in tests). Any quality difference between them is
//! therefore pure *allocation*, not extra spend.

use std::time::Duration;

use holo_net::time::SimTime;
use holo_net::wire::{ImportanceClass, PayloadKind};
use holo_runtime::ser::{JsonValue, ToJson};

use crate::classify::classify;

/// One XOR-parity interleaved stripe configuration: `r` parity frames
/// protect each full group of `k` data frames. This is the only FEC
/// geometry type in the workspace — `holo-chaos` uses it for its
/// class-blind mechanism sets too — and [`UepPolicy::validate`] is
/// the only place it is vetted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeSpec {
    /// Data frames per group.
    pub k: u8,
    /// Parity frames per group (`1..=k`).
    pub r: u8,
}

impl StripeSpec {
    /// Redundancy overhead fraction, `r / k`.
    pub fn overhead(&self) -> f64 {
        f64::from(self.r) / f64::from(self.k.max(1))
    }
}

impl ToJson for StripeSpec {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([("k", self.k.to_json()), ("r", self.r.to_json())])
    }
}

/// Why a [`UepPolicy`] failed [`UepPolicy::validate`]. Same taxonomy
/// shape as `holo_runtime::ser::DecodeError`: typed variants, a stable
/// [`kind`](PolicyError::kind), `Display`, `std::error::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// A class stripe with `k == 0` data frames.
    ZeroStripeData {
        /// Offending class.
        class: ImportanceClass,
    },
    /// A class stripe with `r == 0`: use `stripe: None` instead, so
    /// "unprotected" has exactly one representation.
    ZeroParity {
        /// Offending class.
        class: ImportanceClass,
    },
    /// More parity than data in one stripe group.
    ParityExceedsData {
        /// Offending class.
        class: ImportanceClass,
        /// Data frames per group.
        k: u8,
        /// Parity frames per group.
        r: u8,
    },
    /// The render deadline is zero — every frame would be born dead.
    ZeroDeadline,
    /// A class retransmit RTO of zero would busy-loop the scheduler.
    ZeroRto {
        /// Offending class.
        class: ImportanceClass,
    },
    /// A non-finite retransmit backoff multiplier.
    NonFiniteBackoff {
        /// Offending class.
        class: ImportanceClass,
    },
    /// A single-lane (non-per-class) policy whose classes disagree on
    /// the stripe: with one FEC lane there is one stripe config.
    MixedUniformStripes,
}

impl PolicyError {
    /// Stable lowercase tag (report keys, counters).
    pub fn kind(&self) -> &'static str {
        match self {
            PolicyError::ZeroStripeData { .. } => "zero_stripe_data",
            PolicyError::ZeroParity { .. } => "zero_parity",
            PolicyError::ParityExceedsData { .. } => "parity_exceeds_data",
            PolicyError::ZeroDeadline => "zero_deadline",
            PolicyError::ZeroRto { .. } => "zero_rto",
            PolicyError::NonFiniteBackoff { .. } => "non_finite_backoff",
            PolicyError::MixedUniformStripes => "mixed_uniform_stripes",
        }
    }
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::ZeroStripeData { class } => {
                write!(f, "class {} FEC stripe needs k >= 1 data frames per group", class.name())
            }
            PolicyError::ZeroParity { class } => {
                write!(f, "class {} FEC stripe has r = 0; use no stripe instead", class.name())
            }
            PolicyError::ParityExceedsData { class, k, r } => {
                write!(f, "class {} FEC parity r={r} must be in 1..=k={k}", class.name())
            }
            PolicyError::ZeroDeadline => write!(f, "render deadline must be positive"),
            PolicyError::ZeroRto { class } => {
                write!(f, "class {} retransmit RTO must be positive", class.name())
            }
            PolicyError::NonFiniteBackoff { class } => {
                write!(f, "class {} retransmit backoff must be finite", class.name())
            }
            PolicyError::MixedUniformStripes => {
                write!(f, "single-lane policy must use one stripe config for every class")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// Protection parameters for one importance class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassProtection {
    /// FEC stripe, or `None` for unprotected.
    pub stripe: Option<StripeSpec>,
    /// Retransmit timeout before the first retry.
    pub rto: Duration,
    /// Exponential backoff multiplier between retries.
    pub backoff: f64,
    /// Retry attempts after the initial send.
    pub max_retries: u32,
    /// Whether retries past the last useful instant are abandoned
    /// (see [`last_useful_instant`]). Classes that seed chains keep
    /// retrying: a late keyframe still rescues every later delta.
    pub abandon: bool,
}

impl ToJson for ClassProtection {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("fec", self.stripe.to_json()),
            ("rto_ms", JsonValue::Num(self.rto.as_secs_f64() * 1e3)),
            ("backoff", self.backoff.to_json()),
            ("max_retries", self.max_retries.to_json()),
            ("abandon", self.abandon.to_json()),
        ])
    }
}

/// A complete unequal-protection policy: one [`ClassProtection`] per
/// [`ImportanceClass`], plus the shared render deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct UepPolicy {
    /// Stable policy name (report keys).
    pub name: &'static str,
    /// Whether frames carry a `UepHeader` on the wire (+19 bytes per
    /// frame, charged honestly against the sender's link).
    pub tagged: bool,
    /// Whether FEC stripes run per class (`true`) or over the whole
    /// frame sequence as one lane (`false`).
    pub per_class_fec: bool,
    /// Render deadline: a frame arriving later than `capture +
    /// deadline` is decodable but no longer *usable*.
    pub deadline: Duration,
    /// Per-class protection, indexed by `ImportanceClass as usize`.
    pub classes: [ClassProtection; 4],
}

impl UepPolicy {
    /// The class-blind baseline: every frame gets the same (4, 1)
    /// stripe and the same 50 ms / 2.0x / 3-retry schedule, nothing is
    /// ever abandoned, and no UEP header is spent on the wire. This is
    /// exactly the protection the pre-UEP chaos harness applied.
    pub fn uniform() -> Self {
        let everyone = ClassProtection {
            stripe: Some(StripeSpec { k: 4, r: 1 }),
            rto: Duration::from_millis(50),
            backoff: 2.0,
            max_retries: 3,
            abandon: false,
        };
        UepPolicy {
            name: "uniform",
            tagged: false,
            per_class_fec: false,
            deadline: Duration::from_millis(150),
            classes: [everyone; 4],
        }
    }

    /// The importance-weighted policy. Budget twin of
    /// [`UepPolicy::uniform`] over the canonical 150-frame / GOP-10
    /// stream (37 parity frames, 450 scheduled retries — the tests
    /// pin both), allocated where loss actually hurts:
    ///
    /// * **Critical** (keyframes): (1, 1) duplication — the parity
    ///   frame IS a copy, shipped immediately, so a lost key rebuilds
    ///   in milliseconds instead of waiting out a stripe. Tight 30 ms
    ///   RTO, 4 retries, never abandoned.
    /// * **High** (early deltas): (3, 1) stripes, 40 ms RTO with 2.5x
    ///   backoff, never abandoned — more than half the GOP rides on
    ///   these frames.
    /// * **Medium** (mid deltas): (10, 1) stripes — thin protection —
    ///   and retries that give up once every dependent frame has
    ///   missed its deadline.
    /// * **Low** (last delta of the GOP): no FEC at all, two lazy
    ///   retries, abandoned at its own deadline. Nothing depends on
    ///   it; the budget it gives up pays for the keyframe copies.
    pub fn weighted() -> Self {
        UepPolicy {
            name: "weighted",
            tagged: true,
            per_class_fec: true,
            deadline: Duration::from_millis(150),
            classes: [
                // Critical
                ClassProtection {
                    stripe: Some(StripeSpec { k: 1, r: 1 }),
                    rto: Duration::from_millis(30),
                    backoff: 2.0,
                    max_retries: 4,
                    abandon: false,
                },
                // High
                ClassProtection {
                    stripe: Some(StripeSpec { k: 3, r: 1 }),
                    rto: Duration::from_millis(40),
                    backoff: 2.5,
                    max_retries: 3,
                    abandon: false,
                },
                // Medium
                ClassProtection {
                    stripe: Some(StripeSpec { k: 10, r: 1 }),
                    rto: Duration::from_millis(40),
                    backoff: 2.5,
                    max_retries: 3,
                    abandon: true,
                },
                // Low
                ClassProtection {
                    stripe: None,
                    rto: Duration::from_millis(50),
                    backoff: 2.0,
                    max_retries: 2,
                    abandon: true,
                },
            ],
        }
    }

    /// Validate every class and the cross-class invariants.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.deadline.is_zero() {
            return Err(PolicyError::ZeroDeadline);
        }
        for class in ImportanceClass::ALL {
            let p = &self.classes[class as usize];
            if let Some(s) = p.stripe {
                if s.k == 0 {
                    return Err(PolicyError::ZeroStripeData { class });
                }
                if s.r == 0 {
                    return Err(PolicyError::ZeroParity { class });
                }
                if s.r > s.k {
                    return Err(PolicyError::ParityExceedsData { class, k: s.k, r: s.r });
                }
            }
            if p.rto.is_zero() {
                return Err(PolicyError::ZeroRto { class });
            }
            if !p.backoff.is_finite() {
                return Err(PolicyError::NonFiniteBackoff { class });
            }
        }
        if !self.per_class_fec {
            let first = self.classes[0].stripe;
            if self.classes.iter().any(|p| p.stripe != first) {
                return Err(PolicyError::MixedUniformStripes);
            }
        }
        Ok(())
    }

    /// The protection parameters for one class.
    pub fn protection(&self, class: ImportanceClass) -> &ClassProtection {
        &self.classes[class as usize]
    }

    /// Which FEC lane a class stripes in: its own lane under per-class
    /// FEC, lane 0 otherwise.
    pub fn fec_lane(&self, class: ImportanceClass) -> usize {
        if self.per_class_fec {
            class as usize
        } else {
            0
        }
    }

    /// The stripe configuration of one lane (validated policies with a
    /// single lane have identical stripes across classes, so lane 0
    /// can read any of them).
    pub fn lane_stripe(&self, lane: usize) -> Option<StripeSpec> {
        if self.per_class_fec {
            self.classes[lane].stripe
        } else {
            self.classes[0].stripe
        }
    }

    /// Exact number of parity frames this policy emits over a stream:
    /// frames are dealt into lanes in index order, each **full** group
    /// of `k` lane frames earns `r` parity frames, trailing partial
    /// groups earn none. This is the byte half of the budget — the
    /// sweep harness asserts weighted == uniform before comparing
    /// anything else.
    pub fn parity_frames(&self, total: usize, gop: usize, kind: PayloadKind) -> usize {
        let mut lane_frames = [0usize; 4];
        for index in 0..total {
            lane_frames[self.fec_lane(classify(index, total, gop, kind))] += 1;
        }
        let mut parity = 0;
        for (lane, &n) in lane_frames.iter().enumerate() {
            if let Some(s) = self.lane_stripe(lane) {
                parity += (n / s.k as usize) * s.r as usize;
            }
        }
        parity
    }

    /// Exact number of retry slots this policy may schedule over a
    /// stream (`max_retries` summed per frame) — the retransmit half
    /// of the budget. Abandonment can only *decline* to use a slot;
    /// it never adds one.
    pub fn scheduled_retries(&self, total: usize, gop: usize, kind: PayloadKind) -> u64 {
        (0..total)
            .map(|i| u64::from(self.protection(classify(i, total, gop, kind)).max_retries))
            .sum()
    }

    /// Whether a retry of `class` scheduled at `retry_at` should be
    /// abandoned: the class opted in, and the retry cannot make any
    /// frame usable anymore (see [`last_useful_instant`]).
    pub fn should_abandon(
        &self,
        class: ImportanceClass,
        retry_at: SimTime,
        capture: SimTime,
        descendants: usize,
        frame_period: Duration,
    ) -> bool {
        self.protection(class).abandon
            && retry_at >= last_useful_instant(capture, self.deadline, descendants, frame_period)
    }
}

impl ToJson for UepPolicy {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("name", self.name.to_json()),
            ("tagged", self.tagged.to_json()),
            ("per_class_fec", self.per_class_fec.to_json()),
            ("deadline_ms", JsonValue::Num(self.deadline.as_secs_f64() * 1e3)),
            (
                "classes",
                JsonValue::obj(
                    ImportanceClass::ALL
                        .iter()
                        .map(|c| (c.name(), self.classes[*c as usize].to_json())),
                ),
            ),
        ])
    }
}

/// The last instant at which delivering a frame could still render
/// something: its furthest descendant is captured `descendants` frame
/// periods later and misses its own render deadline at `capture +
/// descendants * period + deadline`. Dependency chains never cross a
/// keyframe, so a retry scheduled at or after this instant cannot make
/// ANY frame usable — abandoning it is provably harmless to quality
/// and frees link time for frames that still have a future.
pub fn last_useful_instant(
    capture: SimTime,
    deadline: Duration,
    descendants: usize,
    frame_period: Duration,
) -> SimTime {
    capture + deadline + frame_period * descendants as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOTAL: usize = 150;
    const GOP: usize = 10;

    #[test]
    fn policies_are_budget_twins_in_parity_frames() {
        let uniform = UepPolicy::uniform();
        let weighted = UepPolicy::weighted();
        // Uniform: one lane of 150 frames, (4,1) -> 37 full groups.
        assert_eq!(uniform.parity_frames(TOTAL, GOP, PayloadKind::Mesh), 37);
        // Weighted: 15 keys duplicated + 45 high / 3 + 75 medium / 10.
        assert_eq!(weighted.parity_frames(TOTAL, GOP, PayloadKind::Mesh), 15 + 15 + 7);
        assert_eq!(
            uniform.parity_frames(TOTAL, GOP, PayloadKind::Mesh),
            weighted.parity_frames(TOTAL, GOP, PayloadKind::Mesh),
            "equal-budget comparison requires equal parity spend"
        );
    }

    #[test]
    fn policies_are_budget_twins_in_retry_slots() {
        let uniform = UepPolicy::uniform();
        let weighted = UepPolicy::weighted();
        // Uniform: 150 * 3. Weighted per GOP: 1*4 + 3*3 + 5*3 + 1*2 = 30.
        assert_eq!(uniform.scheduled_retries(TOTAL, GOP, PayloadKind::Mesh), 450);
        assert_eq!(weighted.scheduled_retries(TOTAL, GOP, PayloadKind::Mesh), 450);
    }

    #[test]
    fn builtin_policies_validate() {
        assert_eq!(UepPolicy::uniform().validate(), Ok(()));
        assert_eq!(UepPolicy::weighted().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_misconfiguration() {
        let mut p = UepPolicy::weighted();
        p.deadline = Duration::ZERO;
        assert_eq!(p.validate().unwrap_err(), PolicyError::ZeroDeadline);

        let mut p = UepPolicy::weighted();
        p.classes[1].stripe = Some(StripeSpec { k: 0, r: 1 });
        let err = p.validate().unwrap_err();
        assert_eq!(err, PolicyError::ZeroStripeData { class: ImportanceClass::High });
        assert_eq!(err.kind(), "zero_stripe_data");
        assert!(err.to_string().contains("high"));

        let mut p = UepPolicy::weighted();
        p.classes[2].stripe = Some(StripeSpec { k: 10, r: 0 });
        assert_eq!(
            p.validate().unwrap_err(),
            PolicyError::ZeroParity { class: ImportanceClass::Medium }
        );

        let mut p = UepPolicy::weighted();
        p.classes[0].stripe = Some(StripeSpec { k: 2, r: 3 });
        let err = p.validate().unwrap_err();
        assert_eq!(
            err,
            PolicyError::ParityExceedsData { class: ImportanceClass::Critical, k: 2, r: 3 }
        );
        assert!(err.to_string().contains("r=3"), "{err}");

        let mut p = UepPolicy::weighted();
        p.classes[3].rto = Duration::ZERO;
        assert_eq!(p.validate().unwrap_err(), PolicyError::ZeroRto { class: ImportanceClass::Low });

        let mut p = UepPolicy::weighted();
        p.classes[1].backoff = f64::NAN;
        assert_eq!(
            p.validate().unwrap_err(),
            PolicyError::NonFiniteBackoff { class: ImportanceClass::High }
        );

        // A single-lane policy with divergent stripes is incoherent.
        let mut p = UepPolicy::uniform();
        p.classes[2].stripe = Some(StripeSpec { k: 8, r: 1 });
        let err = p.validate().unwrap_err();
        assert_eq!(err, PolicyError::MixedUniformStripes);
        assert_eq!(err.kind(), "mixed_uniform_stripes");
        // std::error::Error is implemented (taxonomy parity).
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn lanes_collapse_without_per_class_fec() {
        let uniform = UepPolicy::uniform();
        let weighted = UepPolicy::weighted();
        for class in ImportanceClass::ALL {
            assert_eq!(uniform.fec_lane(class), 0);
            assert_eq!(weighted.fec_lane(class), class as usize);
        }
        assert_eq!(uniform.lane_stripe(0), Some(StripeSpec { k: 4, r: 1 }));
        assert_eq!(weighted.lane_stripe(3), None, "low is unprotected");
    }

    #[test]
    fn abandonment_respects_the_dependency_horizon() {
        let p = UepPolicy::weighted();
        let capture = SimTime::from_millis(1_000);
        let period = Duration::from_millis(20);
        // Medium frame with 4 descendants: last useful instant is
        // capture + 150ms + 4*20ms = capture + 230ms.
        let horizon = last_useful_instant(capture, p.deadline, 4, period);
        assert_eq!(horizon, SimTime::from_millis(1_230));
        let just_before = SimTime::from_millis(1_229);
        assert!(!p.should_abandon(ImportanceClass::Medium, just_before, capture, 4, period));
        assert!(p.should_abandon(ImportanceClass::Medium, horizon, capture, 4, period));
        // A Low frame (no descendants) dies at its own deadline.
        assert!(p.should_abandon(
            ImportanceClass::Low,
            SimTime::from_millis(1_150),
            capture,
            0,
            period
        ));
        // Chain-seeding classes never abandon, however late.
        for class in [ImportanceClass::Critical, ImportanceClass::High] {
            assert!(!p.should_abandon(class, SimTime::from_millis(999_000), capture, 9, period));
        }
        // Uniform never abandons anything: parity with the old harness.
        let u = UepPolicy::uniform();
        for class in ImportanceClass::ALL {
            assert!(!u.should_abandon(class, SimTime::from_millis(999_000), capture, 0, period));
        }
    }

    #[test]
    fn stripe_overhead_is_r_over_k() {
        assert!((StripeSpec { k: 4, r: 1 }.overhead() - 0.25).abs() < 1e-12);
        assert!((StripeSpec { k: 1, r: 1 }.overhead() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn policy_spec_serializes_with_class_names() {
        let json = UepPolicy::weighted().to_json();
        let classes = json.get("classes").expect("classes key");
        let critical = classes.get("critical").expect("critical class");
        assert_eq!(critical.get("max_retries"), Some(&JsonValue::Num(4.0)));
        assert_eq!(critical.get("abandon"), Some(&JsonValue::Bool(false)));
        let low = classes.get("low").expect("low class");
        assert_eq!(low.get("fec"), Some(&JsonValue::Null));
        assert_eq!(low.get("abandon"), Some(&JsonValue::Bool(true)));
        assert_eq!(json.get("name"), Some(&JsonValue::Str("weighted".into())));
    }
}
