//! The room's outcome: per-subscriber distributions and fairness.
//!
//! A `RoomReport` is the multi-party analogue of `core::session`'s
//! `SessionReport`: per-subscriber latency/stall/usable-frame-rate
//! distributions plus room-level aggregates (Jain fairness across
//! subscribers, SFU egress-queue occupancy). It serializes to a
//! canonical JSON string, and because the whole simulation is seeded
//! virtual time, the same room seed reproduces the report byte for
//! byte.

use holo_math::Summary;
use holo_runtime::ser::{JsonValue, ToJson};

/// Jain's fairness index over non-negative allocations:
/// `(Σx)² / (n·Σx²)`, in `(0, 1]`, 1 when all shares are equal. An
/// all-zero allocation is equally (if miserably) fair: 1.0.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

/// One subscriber's view of the room.
#[derive(Debug, Clone)]
pub struct SubscriberReport {
    /// Participant id.
    pub id: usize,
    /// Frames this subscriber should have received ((N-1) x frames).
    pub expected: usize,
    /// Frames that arrived complete on the downlink.
    pub delivered: usize,
    /// Frames both delivered and decodable under the keyframe/delta
    /// dependency rules.
    pub usable: usize,
    /// `usable / expected`.
    pub usable_rate: f64,
    /// End-to-end latency over usable frames, ms (capture -> rendered).
    pub e2e_ms: Summary,
    /// Fraction of usable frames within the room's latency budget.
    pub within_budget: f64,
    /// Total playout stall time across this subscriber's streams, ms.
    pub stall_ms: f64,
    /// Fan-outs to this subscriber rejected by the SFU egress queue.
    pub sfu_dropped: u64,
    /// Fan-outs admitted but lost on this subscriber's downlink.
    pub downlink_lost: u64,
    /// Mean ladder-rung fraction the SFU forwarded to this subscriber
    /// (1.0 = always full quality).
    pub mean_rung_fraction: f64,
    /// Usable frames that arrived as degraded (below-top-tier)
    /// snapshots.
    pub degraded: usize,
    /// Semantic-ladder downgrade transitions taken at this port.
    pub ladder_downgrades: u64,
    /// Semantic-ladder upgrade transitions taken at this port.
    pub ladder_upgrades: u64,
    /// Delivered fan-outs per ladder rung, `(tier name, count)` in
    /// rung order. Populated only for ladders with a prebuild-gated
    /// rung (the amortized gaussian tier), where the classic
    /// `degraded` split cannot say *which* rung carried the traffic;
    /// empty otherwise, and omitted from the JSON when empty.
    pub tier_counts: Vec<(String, u64)>,
}

impl ToJson for SubscriberReport {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("id", self.id.to_json()),
            ("expected", self.expected.to_json()),
            ("delivered", self.delivered.to_json()),
            ("usable", self.usable.to_json()),
            ("usable_rate", self.usable_rate.to_json()),
            ("e2e_ms_mean", self.e2e_ms.mean().to_json()),
            ("e2e_ms_p50", self.e2e_ms.percentile(50.0).unwrap_or(f64::NAN).to_json()),
            ("e2e_ms_p95", self.e2e_ms.percentile(95.0).unwrap_or(f64::NAN).to_json()),
            ("e2e_ms_max", self.e2e_ms.max().to_json()),
            ("within_budget", self.within_budget.to_json()),
            ("stall_ms", self.stall_ms.to_json()),
            ("sfu_dropped", self.sfu_dropped.to_json()),
            ("downlink_lost", self.downlink_lost.to_json()),
            ("mean_rung_fraction", self.mean_rung_fraction.to_json()),
            ("degraded", self.degraded.to_json()),
            ("ladder_downgrades", self.ladder_downgrades.to_json()),
            ("ladder_upgrades", self.ladder_upgrades.to_json()),
        ];
        if !self.tier_counts.is_empty() {
            fields.push((
                "tier_counts",
                JsonValue::Obj(
                    self.tier_counts
                        .iter()
                        .map(|(name, count)| (name.clone(), count.to_json()))
                        .collect(),
                ),
            ));
        }
        JsonValue::obj(fields)
    }
}

/// The full room outcome.
#[derive(Debug, Clone)]
pub struct RoomReport {
    /// Room size.
    pub participants: usize,
    /// Frames per sender stream.
    pub frames: usize,
    /// Scene frame rate.
    pub fps: f64,
    /// Room seed (reports are byte-identical per seed).
    pub seed: u64,
    /// Per-subscriber outcomes, in participant order.
    pub subscribers: Vec<SubscriberReport>,
    /// Jain fairness index over subscriber usable rates.
    pub jain_fairness: f64,
    /// Mean SFU egress-queue occupancy (frames, at admission).
    pub queue_occupancy_mean: f64,
    /// Peak SFU egress-queue occupancy at any port.
    pub queue_occupancy_max: f64,
    /// Frames lost on uplinks (never reached the SFU).
    pub uplink_lost: u64,
    /// Total fan-out copies the SFU attempted.
    pub forwarded: u64,
    /// Fan-outs rejected by egress queues.
    pub queue_dropped: u64,
    /// Fan-outs lost on downlinks.
    pub downlink_lost: u64,
    /// Frames whose envelope arrived corrupted (uplink or downlink)
    /// and was detected-and-dropped by the CRC check.
    pub corrupt_detected: u64,
}

impl RoomReport {
    /// The worst subscriber's usable-frame rate.
    pub fn min_usable_rate(&self) -> f64 {
        self.subscribers.iter().map(|s| s.usable_rate).fold(f64::INFINITY, f64::min)
    }

    /// Mean end-to-end latency across subscribers' usable frames, ms.
    pub fn mean_e2e_ms(&self) -> f64 {
        let mut s = Summary::new();
        for sub in &self.subscribers {
            if sub.e2e_ms.count() > 0 {
                s.record(sub.e2e_ms.mean());
            }
        }
        if s.count() == 0 { f64::NAN } else { s.mean() }
    }

    /// Canonical JSON. Deterministic field order and float formatting:
    /// two runs of the same seeded room render identical bytes.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("participants", self.participants.to_json()),
            ("frames", self.frames.to_json()),
            ("fps", self.fps.to_json()),
            ("seed", self.seed.to_json()),
            ("jain_fairness", self.jain_fairness.to_json()),
            ("queue_occupancy_mean", self.queue_occupancy_mean.to_json()),
            ("queue_occupancy_max", self.queue_occupancy_max.to_json()),
            ("uplink_lost", self.uplink_lost.to_json()),
            ("forwarded", self.forwarded.to_json()),
            ("queue_dropped", self.queue_dropped.to_json()),
            ("downlink_lost", self.downlink_lost.to_json()),
            ("corrupt_detected", self.corrupt_detected.to_json()),
            ("subscribers", self.subscribers.to_json()),
        ])
    }

    /// The canonical report bytes (see [`to_json`](Self::to_json)).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// One [`holo_obs::SloSummary`] per subscriber, from the aggregate
    /// fields this report already carries. Stall and burn-rate inputs
    /// are per-frame quantities the aggregate doesn't retain, so those
    /// objectives come back *skipped* (visible in the verdict), never
    /// silently passed. The `full`/`degraded` tier split feeds
    /// per-tier floors.
    pub fn slo_summaries(&self) -> Vec<holo_obs::SloSummary> {
        self.subscribers
            .iter()
            .map(|s| holo_obs::SloSummary {
                frames_expected: s.expected as u64,
                frames_usable: s.usable as u64,
                usable_rate: None,
                p99_e2e_ms: s.e2e_ms.percentile(99.0),
                max_stall_ms: None,
                worst_window_burn: None,
                tier_fractions: {
                    let mut tf = if s.usable > 0 {
                        vec![
                            (
                                "full".to_string(),
                                (s.usable - s.degraded) as f64 / s.usable as f64,
                            ),
                            ("degraded".to_string(), s.degraded as f64 / s.usable as f64),
                        ]
                    } else {
                        Vec::new()
                    };
                    // Amortized ladders add one fraction per rung
                    // (delivered share at the SFU port), so per-tier
                    // floors like `gaussian >= 0.5` are judgeable.
                    let total: u64 = s.tier_counts.iter().map(|(_, c)| c).sum();
                    if total > 0 {
                        for (name, count) in &s.tier_counts {
                            tf.push((name.clone(), *count as f64 / total as f64));
                        }
                    }
                    tf
                },
            })
            .collect()
    }

    /// Evaluate `spec` for every subscriber, in participant order.
    pub fn slo_verdicts(&self, spec: &holo_obs::SloSpec) -> Vec<holo_obs::SloVerdict> {
        self.slo_summaries().iter().map(|s| spec.evaluate_summary(s)).collect()
    }

    /// The room-level verdict: the room passes when every subscriber
    /// passes (an SLO is a floor, not an average — one starved
    /// subscriber fails the room).
    pub fn slo_room(&self, spec: &holo_obs::SloSpec) -> holo_obs::SloVerdict {
        let mut room = holo_obs::SloSummary::default();
        for s in &self.slo_summaries() {
            room.absorb(s);
        }
        spec.evaluate_summary(&room)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_shares_is_one() {
        assert!((jain_index(&[0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_detects_starvation() {
        // One subscriber gets everything, three get nothing: J = 1/4.
        let j = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12, "jain {j}");
        // Mild skew stays high.
        assert!(jain_index(&[0.9, 1.0, 0.95]) > 0.99);
    }

    #[test]
    fn jain_single_subscriber_is_trivially_fair() {
        assert_eq!(jain_index(&[0.7]), 1.0);
        assert_eq!(jain_index(&[123.0]), 1.0);
    }

    #[test]
    fn jain_is_scale_invariant() {
        let xs = [0.2, 0.9, 0.4, 0.55];
        let base = jain_index(&xs);
        for k in [0.001, 0.5, 37.5, 1e6] {
            let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
            assert!(
                (jain_index(&scaled) - base).abs() < 1e-12,
                "scale {k} changed jain: {} vs {base}",
                jain_index(&scaled)
            );
        }
    }

    #[test]
    fn jain_bounded_by_reciprocal_n_and_one() {
        for xs in [vec![1.0, 2.0, 3.0], vec![10.0, 0.1, 0.1, 0.1], vec![5.0, 5.0]] {
            let j = jain_index(&xs);
            let lo = 1.0 / xs.len() as f64;
            assert!(j >= lo - 1e-12 && j <= 1.0 + 1e-12, "jain {j} outside [{lo}, 1]");
        }
    }

    #[test]
    fn report_renders_all_room_fields() {
        let report = RoomReport {
            participants: 2,
            frames: 3,
            fps: 30.0,
            seed: 7,
            subscribers: vec![],
            jain_fairness: 1.0,
            queue_occupancy_mean: 0.0,
            queue_occupancy_max: 0.0,
            uplink_lost: 0,
            forwarded: 6,
            queue_dropped: 0,
            downlink_lost: 0,
            corrupt_detected: 0,
        };
        let s = report.render();
        for key in ["participants", "jain_fairness", "queue_occupancy_mean", "forwarded"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert_eq!(s, report.render(), "rendering is deterministic");
    }
}
