//! The semantic degradation ladder.
//!
//! The paper's taxonomy orders semantic representations by richness:
//! full mesh/NeRF geometry, then (with a prebuilt avatar) gaussian
//! updates, then keypoints, then text. A subscriber whose downlink
//! collapses — or whose delta chain is poisoned — should not stall: the
//! SFU can *degrade* the stream to a cheaper tier and climb back up once
//! the link has been stable for a window. This is rate adaptation along
//! the **semantic** axis, and the only adaptation an SFU port applies.
//!
//! The walk is **data-driven** over an ordered tier list — no tier is
//! special-cased, so a four-tier (or N-tier) ladder needs no match-arm
//! surgery. Each [`TierSpec`] declares the two properties the state
//! machine cares about:
//!
//! - `delta_coded` — frames at this tier depend on a keyframe chain.
//!   A poisoned chain makes delta frames undecodable (drop to the
//!   nearest snapshot tier), and climbing *into* a delta-coded tier must
//!   wait for a keyframe, the only point where the chain can re-sync.
//! - `requires_prebuild` — the tier only works for subscribers holding
//!   this sender's prebuilt avatar blob. Without it the tier is simply
//!   not on the ladder for that subscriber: downgrades skip over it and
//!   upgrades never enter it.
//!
//! Rules, unchanged from the three-tier ladder:
//!
//! - **Downgrades are immediate.** Starvation (the predicted per-stream
//!   share falls below a tier's floor) drops straight to the deepest
//!   affordable tier; a poisoned delta drops to the nearest available
//!   self-contained tier, because forwarding an undecodable delta wastes
//!   the wire.
//! - **Upgrades are cautious.** The share must clear the richer tier's
//!   floor for a full stability window, one (available) tier per step.

use holo_net::time::SimTime;
use std::time::Duration;

/// A semantic representation tier, richest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticTier {
    /// Full geometry (mesh / NeRF) stream: keyframes + deltas.
    Mesh,
    /// Prebuilt gaussian-avatar conditioning updates: tiny keyframe +
    /// delta stream, usable only with the one-time avatar blob.
    Gaussian,
    /// Keypoint skeleton snapshots: self-contained, ~2% of mesh bytes.
    Keypoints,
    /// Text captions: self-contained, ~0.2% of mesh bytes.
    Text,
}

impl SemanticTier {
    /// Stable lowercase name (used in reports and trace counters).
    pub fn name(self) -> &'static str {
        match self {
            SemanticTier::Mesh => "mesh",
            SemanticTier::Gaussian => "gaussian",
            SemanticTier::Keypoints => "keypoints",
            SemanticTier::Text => "text",
        }
    }
}

/// One tier of the ladder: what it costs and when it is usable.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// The representation shipped at this tier.
    pub tier: SemanticTier,
    /// Wire bytes relative to the full-quality frame, in `(0, 1]`.
    pub payload_fraction: f64,
    /// Minimum predicted per-stream share (bps) to *stay* at this tier.
    /// The bottom tier must use `0.0` so some tier is always feasible.
    pub min_share_bps: f64,
    /// Frames at this tier ride a keyframe/delta chain (not snapshots).
    pub delta_coded: bool,
    /// The tier is usable only by subscribers holding the sender's
    /// prebuilt avatar blob.
    pub requires_prebuild: bool,
}

/// The ladder: tiers ordered richest-first, plus the upgrade window.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    /// Tiers, richest (index 0) to cheapest.
    pub tiers: Vec<TierSpec>,
    /// How long the share must clear a richer tier's floor before
    /// climbing one step.
    pub stability_window: Duration,
}

impl DegradationLadder {
    /// The paper's mesh → keypoints → text ladder with floors sized for
    /// multi-Mbps geometry streams.
    pub fn standard() -> Self {
        Self {
            tiers: vec![
                TierSpec {
                    tier: SemanticTier::Mesh,
                    payload_fraction: 1.0,
                    min_share_bps: 4.0e6,
                    delta_coded: true,
                    requires_prebuild: false,
                },
                TierSpec {
                    tier: SemanticTier::Keypoints,
                    payload_fraction: 0.02,
                    min_share_bps: 120e3,
                    delta_coded: false,
                    requires_prebuild: false,
                },
                TierSpec {
                    tier: SemanticTier::Text,
                    payload_fraction: 0.002,
                    min_share_bps: 0.0,
                    delta_coded: false,
                    requires_prebuild: false,
                },
            ],
            stability_window: Duration::from_millis(500),
        }
    }

    /// The four-tier amortized ladder: mesh → gaussian → keypoints →
    /// text. The gaussian rung ships tiny avatar-conditioning updates
    /// (richer than keypoints at a fraction of mesh bytes) but only to
    /// subscribers holding the sender's prebuilt avatar blob.
    pub fn amortized() -> Self {
        let mut ladder = Self::standard();
        ladder.tiers.insert(
            1,
            TierSpec {
                tier: SemanticTier::Gaussian,
                payload_fraction: 0.035,
                min_share_bps: 160e3,
                delta_coded: true,
                requires_prebuild: true,
            },
        );
        ladder
    }

    /// Structural checks: non-empty, fractions in `(0, 1]` and strictly
    /// descending, floors descending, and a bottom tier that always
    /// works: zero floor, self-contained, no prebuild gate.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("degradation ladder needs at least one tier".into());
        }
        for w in self.tiers.windows(2) {
            if w[1].payload_fraction >= w[0].payload_fraction {
                return Err("tier payload fractions must strictly descend".into());
            }
            if w[1].min_share_bps > w[0].min_share_bps {
                return Err("tier share floors must descend".into());
            }
        }
        for t in &self.tiers {
            if !(t.payload_fraction > 0.0 && t.payload_fraction <= 1.0) {
                return Err(format!("tier {} fraction out of (0,1]", t.tier.name()));
            }
            if !t.min_share_bps.is_finite() || t.min_share_bps < 0.0 {
                return Err(format!("tier {} floor must be finite and >= 0", t.tier.name()));
            }
        }
        let bottom = self.tiers.last().unwrap();
        if bottom.min_share_bps != 0.0 {
            return Err("bottom tier floor must be 0 so some tier is always feasible".into());
        }
        if bottom.delta_coded || bottom.requires_prebuild {
            return Err("bottom tier must be a self-contained, ungated safety tier".into());
        }
        if self.stability_window == Duration::ZERO {
            return Err("stability window must be positive".into());
        }
        Ok(())
    }
}

/// Per-subscriber ladder state machine (see module docs for the rules).
#[derive(Debug, Clone)]
pub struct DegradeState {
    /// The ladder this state walks.
    pub ladder: DegradationLadder,
    level: usize,
    pending_up_since: Option<SimTime>,
    prebuild_ready: bool,
    /// Downgrade transitions taken (starvation or poison).
    pub downgrades: u64,
    /// Upgrade transitions taken.
    pub upgrades: u64,
}

impl DegradeState {
    /// Start at the richest tier this subscriber can use (without the
    /// prebuild blob, the richest ungated tier).
    pub fn new(ladder: DegradationLadder) -> Self {
        let mut s = Self {
            ladder,
            level: 0,
            pending_up_since: None,
            prebuild_ready: false,
            downgrades: 0,
            upgrades: 0,
        };
        s.level = (0..s.ladder.tiers.len()).find(|&i| s.available(i)).unwrap_or(0);
        s
    }

    /// Current tier index (0 = richest).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current tier spec.
    pub fn spec(&self) -> &TierSpec {
        &self.ladder.tiers[self.level]
    }

    /// Whether frames at the current tier are self-contained snapshots.
    pub fn self_contained(&self) -> bool {
        !self.ladder.tiers[self.level].delta_coded
    }

    /// Whether this subscriber holds the sender's prebuilt avatar blob.
    pub fn prebuild_ready(&self) -> bool {
        self.prebuild_ready
    }

    /// Mark the prebuild blob as transferred (or revoked). Prebuild
    /// arrival only opens gated tiers for future upgrades; revocation
    /// evicts the subscriber from a gated tier on the next decision.
    pub fn set_prebuild_ready(&mut self, ready: bool) {
        self.prebuild_ready = ready;
    }

    fn available(&self, index: usize) -> bool {
        !self.ladder.tiers[index].requires_prebuild || self.prebuild_ready
    }

    /// Advance the state machine for one forwarded frame and return the
    /// tier index to ship it at. `share_bps` is the predicted
    /// per-stream downlink share, `poisoned` whether this sender's
    /// delta chain is currently broken at the subscriber, `is_key`
    /// whether the offered frame is a keyframe.
    pub fn decide(&mut self, now: SimTime, share_bps: f64, poisoned: bool, is_key: bool) -> usize {
        let tiers = &self.ladder.tiers;
        // Richest *available* tier whose floor the share clears (the
        // bottom tier is ungated with a zero floor, so one always is).
        let feasible = (0..tiers.len())
            .find(|&i| self.available(i) && share_bps >= tiers[i].min_share_bps)
            .unwrap_or(tiers.len() - 1);
        // Where a revoked prebuild leaves the subscriber: the nearest
        // available tier at or below the current one.
        let held = (self.level..tiers.len()).find(|&i| self.available(i)).unwrap_or(tiers.len() - 1);
        let floor = feasible.max(held);
        if floor > self.level {
            // Starvation or a revoked prebuild: drop immediately, as
            // deep as needed, skipping unavailable tiers. The climb
            // back, if the share affords one, starts from there.
            self.level = floor;
            self.downgrades += 1;
            self.pending_up_since = None;
        } else if poisoned && !is_key && tiers[self.level].delta_coded {
            // A poisoned delta is undecodable; ship from the nearest
            // available self-contained tier below instead. (The bottom
            // tier is always such a tier.)
            let snapshot = (self.level + 1..tiers.len())
                .find(|&i| self.available(i) && !tiers[i].delta_coded)
                .unwrap_or(tiers.len() - 1);
            self.level = snapshot;
            self.downgrades += 1;
            self.pending_up_since = None;
        } else if feasible < self.level {
            // Richer tier affordable: climb one available step per
            // stability window, and into a delta-coded tier only at a
            // keyframe (the chain can only sync there).
            let since = *self.pending_up_since.get_or_insert(now);
            let target = (0..self.level)
                .rev()
                .find(|&i| self.available(i))
                .expect("feasible < level implies a richer available tier");
            if now.saturating_since(since) >= self.ladder.stability_window
                && (!tiers[target].delta_coded || is_key)
            {
                self.level = target;
                self.upgrades += 1;
                self.pending_up_since = Some(now);
            }
        } else {
            self.pending_up_since = None;
        }
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_runtime::check::collection;
    use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn standard_ladder_validates() {
        assert!(DegradationLadder::standard().validate().is_ok());
    }

    #[test]
    fn amortized_ladder_validates() {
        let l = DegradationLadder::amortized();
        assert!(l.validate().is_ok());
        assert_eq!(l.tiers.len(), 4);
        assert_eq!(l.tiers[1].tier, SemanticTier::Gaussian);
        assert!(l.tiers[1].requires_prebuild && l.tiers[1].delta_coded);
    }

    #[test]
    fn validate_rejects_broken_ladders() {
        let mut l = DegradationLadder::standard();
        l.tiers[1].payload_fraction = 1.0;
        assert!(l.validate().is_err(), "non-descending fractions");

        let mut l = DegradationLadder::standard();
        l.tiers.last_mut().unwrap().min_share_bps = 50e3;
        assert!(l.validate().is_err(), "non-zero bottom floor");

        let l = DegradationLadder { tiers: vec![], stability_window: Duration::from_millis(1) };
        assert!(l.validate().is_err(), "empty ladder");

        let mut l = DegradationLadder::standard();
        l.tiers.last_mut().unwrap().requires_prebuild = true;
        assert!(l.validate().is_err(), "gated bottom tier");

        let mut l = DegradationLadder::standard();
        l.tiers.last_mut().unwrap().delta_coded = true;
        assert!(l.validate().is_err(), "delta-coded bottom tier");
    }

    #[test]
    fn starvation_downgrades_immediately_and_as_deep_as_needed() {
        let mut s = DegradeState::new(DegradationLadder::standard());
        assert_eq!(s.decide(ms(0), 10e6, false, true), 0, "healthy share stays at mesh");
        // Share collapses below even the keypoint floor: straight to text.
        assert_eq!(s.decide(ms(33), 50e3, false, false), 2);
        assert_eq!(s.downgrades, 1);
        assert!(s.self_contained());
    }

    #[test]
    fn upgrades_wait_for_the_stability_window_and_a_keyframe() {
        let mut s = DegradeState::new(DegradationLadder::standard());
        s.decide(ms(0), 50e3, false, true); // -> text
        assert_eq!(s.level(), 2);
        // Share recovers; first sighting starts the window, no climb yet.
        assert_eq!(s.decide(ms(100), 10e6, false, false), 2);
        // Window (500 ms) not yet elapsed.
        assert_eq!(s.decide(ms(400), 10e6, false, false), 2);
        // Window elapsed: climb one step (to keypoints), not two.
        assert_eq!(s.decide(ms(700), 10e6, false, false), 1);
        // Next window elapses on a delta: top tier must wait for a key.
        assert_eq!(s.decide(ms(1300), 10e6, false, false), 1);
        // Keyframe arrives with the window satisfied: back to mesh.
        assert_eq!(s.decide(ms(1400), 10e6, false, true), 0);
        assert_eq!(s.upgrades, 2);
    }

    #[test]
    fn a_dip_resets_the_upgrade_window() {
        let mut s = DegradeState::new(DegradationLadder::standard());
        s.decide(ms(0), 200e3, false, true); // -> keypoints
        assert_eq!(s.level(), 1);
        s.decide(ms(100), 10e6, false, false); // window starts
        s.decide(ms(300), 200e3, false, false); // dip: window resets
        // 500 ms after the *first* sighting, but the dip reset the clock.
        assert_eq!(s.decide(ms(650), 10e6, false, true), 1);
        assert_eq!(s.decide(ms(1200), 10e6, false, true), 0, "window re-earned");
    }

    #[test]
    fn poisoned_top_tier_delta_drops_one_tier() {
        let mut s = DegradeState::new(DegradationLadder::standard());
        assert_eq!(s.decide(ms(0), 10e6, true, false), 1, "poisoned delta degrades");
        assert_eq!(s.downgrades, 1);
        // Poison below the top tier is impossible (snapshots) and must
        // not push deeper.
        assert_eq!(s.decide(ms(33), 10e6, true, false), 1);
        assert_eq!(s.downgrades, 1);
        // A poisoned *keyframe* offer at the top is fine: keys re-sync.
        let mut s2 = DegradeState::new(DegradationLadder::standard());
        assert_eq!(s2.decide(ms(0), 10e6, true, true), 0);
    }

    #[test]
    fn bottom_tier_is_always_feasible() {
        let mut s = DegradeState::new(DegradationLadder::standard());
        assert_eq!(s.decide(ms(0), 0.0, false, false), 2);
        // Zero share forever: stays at text, never panics or stalls.
        for i in 1..100 {
            assert_eq!(s.decide(ms(i * 33), 0.0, false, i % 10 == 0), 2);
        }
    }

    #[test]
    fn starvation_skips_gaussian_without_the_prebuild() {
        // Share affords gaussian (160k) but not mesh: without the blob
        // the subscriber lands on keypoints, with it on gaussian.
        let mut without = DegradeState::new(DegradationLadder::amortized());
        assert_eq!(without.decide(ms(0), 300e3, false, false), 2, "skips gated tier");
        let mut with = DegradeState::new(DegradationLadder::amortized());
        with.set_prebuild_ready(true);
        assert_eq!(with.decide(ms(0), 300e3, false, false), 1, "lands on gaussian");
    }

    #[test]
    fn upgrade_into_gaussian_needs_prebuild_window_and_keyframe() {
        let mut s = DegradeState::new(DegradationLadder::amortized());
        s.decide(ms(0), 130e3, false, true); // -> keypoints (level 2)
        assert_eq!(s.level(), 2);
        // Share recovers into gaussian range but the blob is missing:
        // the climb target is mesh... which the share cannot afford, so
        // gaussian-range share with no prebuild means no richer feasible
        // tier at all — the subscriber holds at keypoints.
        for t in 0..20 {
            assert_eq!(s.decide(ms(100 + t * 100), 300e3, false, true), 2);
        }
        assert_eq!(s.upgrades, 0);
        // Blob arrives: gaussian becomes the upgrade target, but the
        // climb still waits for the window and then a keyframe.
        s.set_prebuild_ready(true);
        assert_eq!(s.decide(ms(3000), 300e3, false, false), 2, "window restarts");
        assert_eq!(s.decide(ms(3600), 300e3, false, false), 2, "delta cannot enter");
        assert_eq!(s.decide(ms(3700), 300e3, false, true), 1, "keyframe enters gaussian");
        assert_eq!(s.upgrades, 1);
        assert!(!s.self_contained(), "gaussian updates are delta-coded");
    }

    #[test]
    fn poisoned_gaussian_delta_drops_to_keypoints() {
        let mut s = DegradeState::new(DegradationLadder::amortized());
        s.set_prebuild_ready(true);
        s.decide(ms(0), 300e3, false, true); // -> gaussian
        assert_eq!(s.level(), 1);
        // Poisoned chain at a delta-coded tier: drop to the nearest
        // self-contained tier (keypoints), not the bottom.
        assert_eq!(s.decide(ms(33), 300e3, true, false), 2);
        assert_eq!(s.downgrades, 2);
    }

    #[test]
    fn poisoned_mesh_delta_skips_gaussian_snapshot_hunt() {
        // From mesh, a poisoned delta needs a *snapshot* tier: gaussian
        // is delta-coded, so the drop lands on keypoints even when the
        // prebuild is present.
        let mut s = DegradeState::new(DegradationLadder::amortized());
        s.set_prebuild_ready(true);
        assert_eq!(s.decide(ms(0), 10e6, true, false), 2);
    }

    #[test]
    fn revoked_prebuild_evicts_from_gaussian() {
        let mut s = DegradeState::new(DegradationLadder::amortized());
        s.set_prebuild_ready(true);
        s.decide(ms(0), 300e3, false, true); // -> gaussian
        assert_eq!(s.level(), 1);
        s.set_prebuild_ready(false);
        assert_eq!(s.decide(ms(33), 300e3, false, false), 2, "gated tier no longer usable");

        // The same at a share that affords mesh: evicted first, then the
        // ordinary climb — never another gaussian frame on the way.
        let mut s = DegradeState::new(DegradationLadder::amortized());
        s.set_prebuild_ready(true);
        assert_eq!(s.decide(ms(0), 300e3, false, true), 1);
        s.set_prebuild_ready(false);
        assert_eq!(s.decide(ms(33), 5e6, false, false), 2, "evicted although mesh is affordable");
        assert_eq!(s.downgrades, 2);
        assert_eq!(s.decide(ms(66), 5e6, false, false), 2, "window starts");
        assert_eq!(s.decide(ms(600), 5e6, false, true), 0, "climbs past the closed gate");
    }

    holo_prop! {
        #![cases(10_000)]

        /// Whatever the share, the poison, the keyframes and the blob
        /// do, `decide` ships at a tier this subscriber can use.
        fn decide_never_returns_an_unavailable_tier(
            events in collection::vec(0u32..96, 1..48),
        ) {
            const SHARES: [f64; 6] = [0.0, 50e3, 130e3, 300e3, 5e6, 10e6];
            let mut s = DegradeState::new(DegradationLadder::amortized());
            for (i, e) in events.iter().enumerate() {
                if e & 8 != 0 {
                    s.set_prebuild_ready(!s.prebuild_ready());
                }
                let share = SHARES[(e >> 4) as usize];
                let level = s.decide(ms(i as u64 * 120), share, e & 1 != 0, e & 2 != 0);
                prop_assert!(s.available(level), "event {i}: tier {level} without the blob");
                prop_assert_eq!(level, s.level());
            }
        }
    }
}
