//! The `FaultPlan` DSL: named, seeded, virtual-time fault scenarios.
//!
//! A plan is the *description* of an impairment campaign — a loss
//! process, a set of timed effect windows, and (for rooms) participant
//! churn. It compiles to per-link [`FaultClock`]s: each lane (uplink 0,
//! downlink 0, uplink 1, …) gets its own derived seed, so two links
//! under the same plan fail independently yet the whole scenario
//! replays bit-identically from `(plan.seed, plan)`.

use holo_net::fault::{FaultClock, FaultEffect, FaultSegment, LossModel};
use holo_net::time::SimTime;
use std::time::Duration;

/// A participant presence window for room churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Which participant the window applies to.
    pub participant: usize,
    /// Join time, seconds of room time.
    pub join_s: f64,
    /// Leave time, seconds of room time (half-open window).
    pub leave_s: f64,
}

/// A named, seeded fault scenario.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Scenario name (stable; keys reports and bench output).
    pub name: String,
    /// The packet-loss process, if any.
    pub loss: Option<LossModel>,
    /// Timed effect windows (shared by every compiled clock).
    pub segments: Vec<FaultSegment>,
    /// Participant presence windows (rooms only).
    pub churn: Vec<ChurnEvent>,
    /// Master seed; per-lane clock seeds derive from it.
    pub seed: u64,
}

/// Derive a per-lane seed (splitmix-style odd multiplier keeps
/// distinct lanes decorrelated — same recipe as `holo-conf`'s rooms).
fn derive_seed(seed: u64, lane: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane.wrapping_mul(2).wrapping_add(1))
}

impl FaultPlan {
    /// An empty plan (no impairments) — the matrix baseline.
    pub fn clean(seed: u64) -> Self {
        Self { name: "clean".into(), loss: None, segments: Vec::new(), churn: Vec::new(), seed }
    }

    /// Gilbert–Elliott ~5% burst loss on every packet, whole run.
    pub fn burst5(seed: u64) -> Self {
        Self { name: "burst5".into(), loss: Some(LossModel::burst5()), ..Self::clean(seed) }
    }

    /// Two hard link flaps: 300 ms outages starting at 1.0 s and 2.5 s.
    pub fn flapping(seed: u64) -> Self {
        Self::clean(seed).named("flapping").down(1.0, 1.3).down(2.5, 2.8)
    }

    /// Capacity collapses to 0.2% between 1.0 s and 3.0 s — the
    /// scenario the semantic degradation ladder exists for.
    pub fn bandwidth_collapse(seed: u64) -> Self {
        Self::clean(seed).named("bandwidth_collapse").bandwidth(1.0, 3.0, 0.002)
    }

    /// A 150 ms one-way delay spike between 1.0 s and 2.0 s
    /// (bufferbloat / reroute).
    pub fn delay_spike(seed: u64) -> Self {
        Self::clean(seed).named("delay_spike").delay(1.0, 2.0, Duration::from_millis(150))
    }

    /// Burst loss plus on-the-wire payload corruption: the burst5 loss
    /// process with ~3% of surviving frames corrupted whole-run. The
    /// scenario the `WireFrame` CRC exists for — every corrupted frame
    /// must be detected-and-dropped, never decoded.
    pub fn burst5_corrupt(seed: u64) -> Self {
        Self::burst5(seed).named("burst5_corrupt").corrupt(0.0, f64::MAX, 0.03)
    }

    /// Burst loss on a link that also loses most of its headroom:
    /// burst5's loss process plus capacity squeezed to 18% between
    /// 1.0 s and 3.0 s. At the default stream config (~4.8 Mbps media
    /// on 50 Mbps) the squeeze leaves ~9 Mbps — steady media plus
    /// parity still fits, but every burst of losses triggers a storm
    /// of retransmissions that transiently overloads the queue and
    /// pushes *live* frames past their deadline. This is the scenario
    /// deadline-aware abandonment exists for: retries of already-dead
    /// deltas are pure queue poison here.
    pub fn burst5_squeeze(seed: u64) -> Self {
        Self::burst5(seed).named("burst5_squeeze").bandwidth(1.0, 3.0, 0.18)
    }

    /// Room churn: participant `n-1` of an `n`-party room joins late
    /// and leaves early (window `[0.15, 0.35)` of a ~0.5 s run).
    pub fn churny(seed: u64, n: usize) -> Self {
        let mut plan = Self::clean(seed).named("churny");
        if n > 0 {
            plan.churn.push(ChurnEvent { participant: n - 1, join_s: 0.15, leave_s: 0.35 });
        }
        plan
    }

    /// Rename the plan (builder).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.into();
        self
    }

    /// Add a hard outage window (builder).
    pub fn down(mut self, from_s: f64, until_s: f64) -> Self {
        self.segments.push(FaultSegment {
            from: SimTime::from_secs_f64(from_s),
            until: SimTime::from_secs_f64(until_s),
            effect: FaultEffect::LinkDown,
        });
        self
    }

    /// Add a bandwidth-scale window (builder).
    pub fn bandwidth(mut self, from_s: f64, until_s: f64, scale: f64) -> Self {
        self.segments.push(FaultSegment {
            from: SimTime::from_secs_f64(from_s),
            until: SimTime::from_secs_f64(until_s),
            effect: FaultEffect::BandwidthScale(scale),
        });
        self
    }

    /// Add a one-way delay-spike window (builder).
    pub fn delay(mut self, from_s: f64, until_s: f64, extra: Duration) -> Self {
        self.segments.push(FaultSegment {
            from: SimTime::from_secs_f64(from_s),
            until: SimTime::from_secs_f64(until_s),
            effect: FaultEffect::ExtraDelay(extra),
        });
        self
    }

    /// Add a payload-corruption window (builder): each frame completing
    /// delivery inside `[from_s, until_s)` is independently corrupted
    /// with probability `rate`.
    pub fn corrupt(mut self, from_s: f64, until_s: f64, rate: f64) -> Self {
        self.segments.push(FaultSegment {
            from: SimTime::from_secs_f64(from_s),
            until: if until_s == f64::MAX {
                SimTime::from_micros(u64::MAX)
            } else {
                SimTime::from_secs_f64(until_s)
            },
            effect: FaultEffect::PayloadCorrupt(rate as f32),
        });
        self
    }

    /// Compile the plan into the clock for one lane. Lanes number the
    /// links of a scenario (point-to-point: lane 0; rooms: uplink `i`
    /// is lane `2i`, downlink `i` is lane `2i+1`).
    pub fn compile(&self, lane: u64) -> FaultClock {
        FaultClock::new(self.loss.clone(), self.segments.clone(), derive_seed(self.seed, lane))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_stable_names() {
        assert_eq!(FaultPlan::clean(1).name, "clean");
        assert_eq!(FaultPlan::burst5(1).name, "burst5");
        assert_eq!(FaultPlan::flapping(1).name, "flapping");
        assert_eq!(FaultPlan::bandwidth_collapse(1).name, "bandwidth_collapse");
        assert_eq!(FaultPlan::delay_spike(1).name, "delay_spike");
        assert_eq!(FaultPlan::burst5_squeeze(1).name, "burst5_squeeze");
        assert_eq!(FaultPlan::churny(1, 3).name, "churny");
    }

    #[test]
    fn lanes_get_independent_but_reproducible_clocks() {
        let plan = FaultPlan::burst5(42);
        let mut a1 = plan.compile(0);
        let mut a2 = plan.compile(0);
        let mut b = plan.compile(1);
        let mut same = 0;
        let mut diverged = false;
        for i in 0..2000 {
            let at = SimTime::from_micros(i);
            let ra = a1.loss_roll(at);
            assert_eq!(ra, a2.loss_roll(at), "same lane must replay identically");
            if ra == b.loss_roll(at) {
                same += 1;
            } else {
                diverged = true;
            }
        }
        assert!(diverged, "different lanes must not be clones ({same} identical rolls)");
    }

    #[test]
    fn builders_stack_segments() {
        let plan = FaultPlan::clean(7)
            .down(1.0, 1.2)
            .bandwidth(0.5, 2.0, 0.1)
            .delay(0.9, 1.1, Duration::from_millis(40));
        assert_eq!(plan.segments.len(), 3);
        let clock = plan.compile(0);
        assert!(clock.is_down(SimTime::from_millis(1100)));
        assert!((clock.bandwidth_scale(SimTime::from_millis(600)) - 0.1).abs() < 1e-12);
        assert_eq!(clock.extra_delay(SimTime::from_millis(1000)), Duration::from_millis(40));
    }

    #[test]
    fn churn_windows_resolve_by_participant() {
        let plan = FaultPlan::churny(3, 4);
        let windows: Vec<_> = plan.churn.iter().map(|c| (c.participant, c.join_s, c.leave_s)).collect();
        assert_eq!(windows, [(3, 0.15, 0.35)], "the last participant churns, no other");
    }
}
