//! The selective forwarding unit.
//!
//! The SFU receives each sender's uplink stream and forwards every
//! frame to the other N-1 subscribers. Each subscriber owns an egress
//! **port**: a bounded queue ([`EgressQueue`]), the subscriber's
//! downlink, and the one adaptation mechanism — a [`DegradeState`] that
//! moves the subscriber down the semantic [`DegradationLadder`] to the
//! richest tier the downlink's predicted *per-stream share* can carry,
//! the semantic analogue of an SVC-aware SFU dropping enhancement
//! layers. Slow downlinks get cheaper tiers; fast ones get the full
//! stream.

use crate::degrade::{DegradationLadder, DegradeState, SemanticTier};
use crate::frame::{DependencyTracker, FrameTag, StreamFrame};
use crate::queue::EgressQueue;
use holo_net::link::Link;
use holo_net::predict::EwmaPredictor;
use holo_net::time::SimTime;
use holo_net::transport::{FrameTransport, LossPolicy};
use holo_net::wire::WIRE_HEADER_BYTES;
use holo_math::Summary;

/// Downlink loss policy (SFU -> subscriber): live rooms drop an
/// incomplete frame rather than wait a round trip for it.
const DOWNLINK_POLICY: LossPolicy = LossPolicy::DropFrame;

/// Outcome of forwarding one frame to one subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// Rejected by the egress queue (backpressure drop at the SFU).
    QueueDropped,
    /// Admitted but lost on the subscriber's downlink.
    DownlinkLost,
    /// Arrived, but the wire envelope's CRC exposed payload corruption;
    /// the subscriber dropped it before decode.
    CorruptDropped,
    /// Delivered completely at the given time.
    DeliveredAt(SimTime),
}

/// Full record of one fan-out copy: where it went, how it fared, and
/// what the degradation ladder did to it on the way out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardRecord {
    /// Receiving participant.
    pub subscriber: usize,
    /// What happened on the egress path.
    pub outcome: ForwardOutcome,
    /// Semantic tier the frame was shipped at.
    pub tier: SemanticTier,
    /// Whether the shipped frame was a self-contained snapshot (a
    /// tier whose codec is not delta-coded): it decodes regardless of
    /// the delta chain.
    pub self_contained: bool,
    /// Whether the frame shipped below the top semantic tier. Distinct
    /// from `self_contained` once the ladder holds delta-coded rungs
    /// below the top (the amortized gaussian tier).
    pub degraded: bool,
    /// Wire bytes relative to the full-quality frame (the shipped
    /// tier's `payload_fraction`; 1.0 without a ladder).
    pub fraction: f64,
}

/// One subscriber's egress state at the SFU.
pub struct SubscriberPort {
    /// Downlink transport (SFU -> subscriber).
    pub transport: FrameTransport,
    /// Bounded egress queue.
    pub queue: EgressQueue,
    /// Downlink bandwidth predictor feeding the ladder.
    pub predictor: EwmaPredictor,
    /// Rung fraction (forwarded bytes / full bytes) per forward.
    pub rung_fraction: Summary,
    /// Semantic degradation ladder state; `None` always ships the top
    /// tier.
    pub degrade: Option<DegradeState>,
    /// Delivered-frame count per ladder rung (empty without a ladder);
    /// feeds the per-tier breakdown in the room report.
    pub tier_delivered: Vec<u64>,
    /// Per-sender delta-chain trackers mirroring what this subscriber
    /// can decode, updated online as forwards resolve (the ladder's
    /// poison signal).
    pub chains: Vec<DependencyTracker>,
}

impl SubscriberPort {
    /// Build a port over a downlink.
    pub fn new(link: Link, queue: EgressQueue, degrade: Option<DegradeState>) -> Self {
        let tier_delivered = degrade
            .as_ref()
            .map(|d| vec![0; d.ladder.tiers.len()])
            .unwrap_or_default();
        Self {
            transport: FrameTransport::new(link, DOWNLINK_POLICY),
            queue,
            predictor: EwmaPredictor::new(0.3),
            rung_fraction: Summary::new(),
            degrade,
            tier_delivered,
            chains: Vec::new(),
        }
    }

    /// Forward one frame to this subscriber (`subscriber` is its id) at
    /// `now`. `share` divides the predicted downlink bandwidth among
    /// the room's streams (N-1).
    pub fn forward(
        &mut self,
        subscriber: usize,
        frame: &StreamFrame,
        now: SimTime,
        share: usize,
    ) -> ForwardRecord {
        // Predict this stream's share of the downlink. The effective
        // rate folds in any installed fault clock, so the ladder
        // reacts to injected bandwidth collapses too.
        self.predictor.observe(self.transport.link.effective_bps_at(now.as_secs_f64()));
        let per_stream_bps = self.predictor.predict() / share.max(1) as f64;

        if frame.sender >= self.chains.len() {
            self.chains.resize_with(frame.sender + 1, DependencyTracker::new);
        }
        let poisoned = self.chains[frame.sender].poisoned();

        // The semantic ladder picks a tier; degraded tiers ship at a
        // fixed fraction of the payload, and a tier is self-contained
        // exactly when its codec is not delta-coded.
        let (tier, self_contained, fraction, level) = match &mut self.degrade {
            Some(d) => {
                let level = d.decide(now, per_stream_bps, poisoned, frame.tag.is_key());
                let spec = &d.ladder.tiers[level];
                (spec.tier, !spec.delta_coded, spec.payload_fraction, Some(level))
            }
            None => (SemanticTier::Mesh, false, 1.0, None),
        };
        let degraded = level.is_some_and(|l| l > 0);
        self.rung_fraction.record(fraction);
        // Every forwarded copy re-wraps the payload in the versioned,
        // checksummed wire envelope for its hop to the subscriber.
        let wire_bytes = ((frame.payload_bytes as f64 * fraction).round() as usize).max(32)
            + WIRE_HEADER_BYTES;

        // Backpressure at the egress queue (snapshots count as keys:
        // they reset the subscriber's view exactly like one).
        let outcome = if !self.queue.admit(now, frame.tag.is_key() || self_contained) {
            ForwardOutcome::QueueDropped
        } else {
            let result = self.transport.send_frame_sized(wire_bytes, now);
            // The frame occupies the egress port until its serialization
            // backlog clears the link.
            let backlog_done = now + self.transport.link.queue_delay(now);
            self.queue.commit(backlog_done);
            match result.completed_at {
                Some(t) if result.complete => {
                    // A delivered copy can still arrive corrupted; the
                    // subscriber's CRC check catches it and drops the
                    // frame instead of decoding garbage.
                    if self.transport.link.corrupt_roll(t).is_some() {
                        ForwardOutcome::CorruptDropped
                    } else {
                        ForwardOutcome::DeliveredAt(t)
                    }
                }
                _ => ForwardOutcome::DownlinkLost,
            }
        };

        // Keep the online chain mirror in step with what just happened.
        let delivered = matches!(outcome, ForwardOutcome::DeliveredAt(_));
        let effective_tag = if self_contained { FrameTag::Key } else { frame.tag };
        self.chains[frame.sender].advance(frame.index, effective_tag, delivered);
        if delivered {
            if let Some(l) = level {
                self.tier_delivered[l] += 1;
            }
        }

        ForwardRecord { subscriber, outcome, tier, self_contained, degraded, fraction }
    }
}

/// The forwarder: one port per participant, plus room-wide counters.
pub struct Sfu {
    /// Egress ports, indexed by participant id.
    pub ports: Vec<SubscriberPort>,
    /// Participant presence mask: inactive subscribers receive nothing
    /// (churn — a left participant's port idles until rejoin).
    pub active: Vec<bool>,
    /// Frames offered for forwarding (per-subscriber fan-out counted).
    pub forwarded: u64,
    /// Fan-outs rejected by egress queues.
    pub queue_dropped: u64,
    /// Fan-outs lost on downlinks.
    pub downlink_lost: u64,
    /// Fan-outs whose envelope CRC exposed corruption at the
    /// subscriber (detected and dropped, never decoded).
    pub corrupt_detected: u64,
    /// Fan-outs shipped below the top semantic tier.
    pub degraded: u64,
}

impl Sfu {
    /// Build a forwarder from per-participant downlinks.
    pub fn new(
        downlinks: Vec<Link>,
        queue_capacity: usize,
        degrade: Option<DegradationLadder>,
    ) -> Result<Self, String> {
        if let Some(d) = &degrade {
            d.validate()?;
        }
        let n = downlinks.len();
        let mut ports = Vec::with_capacity(n);
        for link in downlinks {
            ports.push(SubscriberPort::new(
                link,
                EgressQueue::new(queue_capacity),
                degrade.clone().map(DegradeState::new),
            ));
        }
        Ok(Self {
            ports,
            active: vec![true; n],
            forwarded: 0,
            queue_dropped: 0,
            downlink_lost: 0,
            corrupt_detected: 0,
            degraded: 0,
        })
    }

    /// Mark a participant present or absent (join/leave churn).
    pub fn set_active(&mut self, participant: usize, active: bool) {
        if participant < self.active.len() {
            self.active[participant] = active;
        }
    }

    /// Mark whether a subscriber holds the sender's gaussian prebuild
    /// blob. Ladders with prebuild-gated rungs (the amortized tier)
    /// only route that subscriber through them while this is true.
    pub fn set_prebuild_ready(&mut self, participant: usize, ready: bool) {
        if let Some(port) = self.ports.get_mut(participant) {
            if let Some(d) = port.degrade.as_mut() {
                d.set_prebuild_ready(ready);
            }
        }
    }

    /// Fan one ingress frame out to every *active* subscriber except
    /// the sender. Returns one [`ForwardRecord`] per copy, in
    /// subscriber order (deterministic).
    pub fn fan_out(&mut self, frame: &StreamFrame, now: SimTime) -> Vec<ForwardRecord> {
        let n = self.ports.len();
        let share = n.saturating_sub(1);
        let tracing = holo_trace::enabled();
        let mut records = Vec::with_capacity(share);
        for s in 0..n {
            if s == frame.sender || !self.active[s] {
                continue;
            }
            self.forwarded += 1;
            let port = &mut self.ports[s];
            let ladder_before = port.degrade.as_ref().map(|d| (d.downgrades, d.upgrades));
            let record = port.forward(s, frame, now, share);
            match record.outcome {
                ForwardOutcome::QueueDropped => self.queue_dropped += 1,
                ForwardOutcome::DownlinkLost => self.downlink_lost += 1,
                ForwardOutcome::CorruptDropped => self.corrupt_detected += 1,
                ForwardOutcome::DeliveredAt(_) => {}
            }
            if record.degraded {
                self.degraded += 1;
            }
            if tracing {
                holo_trace::counter("sfu.forwarded", 1);
                match record.outcome {
                    ForwardOutcome::QueueDropped => holo_trace::counter("sfu.queue_dropped", 1),
                    ForwardOutcome::DownlinkLost => holo_trace::counter("sfu.downlink_lost", 1),
                    ForwardOutcome::CorruptDropped => {
                        holo_trace::counter("sfu.corrupt_detected", 1)
                    }
                    ForwardOutcome::DeliveredAt(_) => holo_trace::counter("sfu.delivered", 1),
                }
                if record.degraded {
                    holo_trace::counter("sfu.degraded", 1);
                }
                if let (Some((d0, u0)), Some(d)) = (ladder_before, port.degrade.as_ref()) {
                    if d.downgrades > d0 {
                        holo_trace::counter("sfu.ladder_downgrade", 1);
                    }
                    if d.upgrades > u0 {
                        holo_trace::counter("sfu.ladder_upgrade", 1);
                    }
                }
                holo_trace::gauge(
                    &format!("sfu.port{s}.queue_occupancy"),
                    port.queue.occupancy_at(now) as f64,
                );
            }
            records.push(record);
        }
        records
    }

    /// Mean egress-queue occupancy across ports (admission samples).
    pub fn mean_queue_occupancy(&self) -> f64 {
        let mut s = Summary::new();
        for p in &self.ports {
            if p.queue.occupancy.count() > 0 {
                s.record(p.queue.occupancy.mean());
            }
        }
        if s.count() == 0 { 0.0 } else { s.mean() }
    }

    /// Highest egress-queue occupancy ever observed at any port.
    pub fn max_queue_occupancy(&self) -> f64 {
        self.ports
            .iter()
            .filter(|p| p.queue.occupancy.count() > 0)
            .map(|p| p.queue.occupancy.max())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTag;
    use holo_net::link::LinkConfig;
    use holo_net::trace::BandwidthTrace;
    use semholo::semantics::StageCost;
    use std::time::Duration;

    fn constant_link(config: LinkConfig, bps: f64, seed: u64) -> Link {
        Link::new(config, BandwidthTrace::Constant { bps }, seed)
    }

    fn frame(sender: usize, index: usize, bytes: usize) -> StreamFrame {
        StreamFrame {
            sender,
            index,
            tag: FrameTag::for_index(index, 10),
            capture: SimTime::from_millis(index as u64 * 33),
            payload_bytes: bytes,
            extract_ms: 1.0,
            recon: StageCost::default(),
        }
    }

    fn quiet_cfg() -> LinkConfig {
        LinkConfig { jitter_max: Duration::ZERO, ..Default::default() }
    }

    #[test]
    fn fan_out_skips_the_sender() {
        let links = (0..3).map(|i| constant_link(quiet_cfg(), 100e6, i)).collect();
        let mut sfu = Sfu::new(links, 8, None).unwrap();
        let records = sfu.fan_out(&frame(1, 0, 2000), SimTime::ZERO);
        let subs: Vec<usize> = records.iter().map(|r| r.subscriber).collect();
        assert_eq!(subs, vec![0, 2]);
        assert!(records.iter().all(|r| matches!(r.outcome, ForwardOutcome::DeliveredAt(_))));
        assert!(records.iter().all(|r| !r.self_contained), "no ladder, top tier");
        assert_eq!(sfu.forwarded, 2);
    }

    #[test]
    fn inactive_subscribers_are_skipped() {
        let links = (0..3).map(|i| constant_link(quiet_cfg(), 100e6, i)).collect();
        let mut sfu = Sfu::new(links, 8, None).unwrap();
        sfu.set_active(2, false);
        let records = sfu.fan_out(&frame(1, 0, 2000), SimTime::ZERO);
        let subs: Vec<usize> = records.iter().map(|r| r.subscriber).collect();
        assert_eq!(subs, vec![0], "participant 2 left the room");
        assert_eq!(sfu.forwarded, 1);
        sfu.set_active(2, true);
        assert_eq!(sfu.fan_out(&frame(1, 1, 2000), SimTime::from_millis(33)).len(), 2);
    }

    #[test]
    fn slow_downlink_backpressure_drops_frames() {
        // Port 1 has a 200 kbps downlink; 50 KB frames at 30 FPS bury it.
        let links = vec![
            constant_link(quiet_cfg(), 100e6, 1),
            constant_link(quiet_cfg(), 200e3, 2),
        ];
        let mut sfu = Sfu::new(links, 2, None).unwrap();
        let mut dropped = 0;
        for i in 0..30 {
            let f = frame(0, i, 50_000);
            let now = SimTime::from_millis(i as u64 * 33);
            for r in sfu.fan_out(&f, now) {
                if r.outcome == ForwardOutcome::QueueDropped {
                    dropped += 1;
                }
            }
        }
        assert!(dropped > 10, "queue drops {dropped}");
        assert_eq!(sfu.queue_dropped, dropped);
        assert!(sfu.max_queue_occupancy() >= 2.0);
    }

    #[test]
    fn ladder_thins_slow_subscriber_more() {
        // Two subscribers: 60 Mbps vs 3 Mbps downlinks, one 6 Mbps-class
        // stream each way. The slow one must settle on a cheaper tier.
        let links = vec![
            constant_link(quiet_cfg(), 1e9, 0), // sender's own port, unused
            constant_link(quiet_cfg(), 60e6, 1),
            constant_link(quiet_cfg(), 3e6, 2),
        ];
        let mut sfu = Sfu::new(links, 64, Some(DegradationLadder::standard())).unwrap();
        for i in 0..40 {
            let f = frame(0, i, 25_000); // 6 Mbps at 30 FPS
            sfu.fan_out(&f, SimTime::from_millis(i as u64 * 33));
        }
        let fast = sfu.ports[1].rung_fraction.mean();
        let slow = sfu.ports[2].rung_fraction.mean();
        assert!(fast > slow * 2.0, "fast {fast:.3} vs slow {slow:.3}");
    }

    #[test]
    fn zero_bandwidth_first_window_is_guarded() {
        // Regression: a dead link predicts ~0 bps on the very first
        // forward. The shipped fraction must stay finite and positive
        // (the bottom tier), never NaN from a zero-sample first window.
        let links = vec![
            constant_link(quiet_cfg(), 0.0, 0),
            constant_link(quiet_cfg(), 0.0, 1),
        ];
        let mut sfu = Sfu::new(links, 8, Some(DegradationLadder::standard())).unwrap();
        let records = sfu.fan_out(&frame(0, 0, 2000), SimTime::ZERO);
        assert_eq!(records.len(), 1);
        let f = sfu.ports[1].rung_fraction.mean();
        assert!(f.is_finite() && f > 0.0, "rung fraction {f}");
        assert!(records[0].fraction.is_finite());
    }

    #[test]
    fn starved_port_degrades_to_a_snapshot_tier() {
        // 100 kbps downlink, a multi-Mbps mesh stream: the ladder must
        // drop the subscriber to a self-contained tier and keep frames
        // flowing instead of stalling on queue drops.
        let links = vec![
            constant_link(quiet_cfg(), 100e6, 0),
            constant_link(quiet_cfg(), 100e3, 1),
        ];
        let mut sfu = Sfu::new(links, 4, Some(DegradationLadder::standard())).unwrap();
        let mut delivered_snapshots = 0;
        for i in 0..30 {
            let f = frame(0, i, 20_000); // ~4.8 Mbps at 30 FPS
            let now = SimTime::from_millis(i as u64 * 33);
            for r in sfu.fan_out(&f, now) {
                if r.self_contained && matches!(r.outcome, ForwardOutcome::DeliveredAt(_)) {
                    delivered_snapshots += 1;
                }
            }
        }
        assert!(sfu.degraded > 0, "ladder never engaged");
        assert!(delivered_snapshots > 20, "snapshots delivered {delivered_snapshots}");
        let state = sfu.ports[1].degrade.as_ref().unwrap();
        assert!(state.downgrades >= 1);
        assert!(state.level() > 0, "still degraded at the end");
    }

    #[test]
    fn amortized_ladder_routes_through_gaussian_when_prebuilt() {
        // A 300 kbps downlink clears the gaussian floor (160 kbps) but
        // not mesh. With the prebuild announced, the subscriber rides
        // the delta-coded gaussian rung; without it, the same link
        // falls through to keypoints.
        let mk = || {
            let links = vec![
                constant_link(quiet_cfg(), 100e6, 0),
                constant_link(quiet_cfg(), 300e3, 1),
            ];
            Sfu::new(links, 8, Some(DegradationLadder::amortized())).unwrap()
        };
        let run = |sfu: &mut Sfu| {
            for i in 0..60 {
                let f = frame(0, i, 20_000); // ~4.8 Mbps at 30 FPS
                sfu.fan_out(&f, SimTime::from_millis(i as u64 * 33));
            }
        };

        let mut with_blob = mk();
        with_blob.set_prebuild_ready(1, true);
        run(&mut with_blob);
        let gaussian_idx = 1;
        assert!(
            with_blob.ports[1].tier_delivered[gaussian_idx] > 20,
            "gaussian deliveries {:?}",
            with_blob.ports[1].tier_delivered
        );
        assert_eq!(with_blob.ports[1].degrade.as_ref().unwrap().level(), gaussian_idx);

        let mut without = mk();
        run(&mut without);
        assert_eq!(without.ports[1].tier_delivered[gaussian_idx], 0);
        assert!(
            without.ports[1].tier_delivered[2] > 20,
            "keypoint deliveries {:?}",
            without.ports[1].tier_delivered
        );
    }
}
