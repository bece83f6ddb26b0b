//! The bottleneck link model.
//!
//! A single-server fluid queue: packets serialize at the trace's current
//! rate, wait behind earlier packets (tail-drop beyond the configured
//! queue depth), then experience propagation delay, jitter, and random
//! loss. This is the standard bottleneck abstraction for application-
//! level streaming studies; everything is virtual-time and seeded.

use crate::fault::FaultClock;
use crate::time::SimTime;
use crate::trace::BandwidthTrace;
use holo_math::Pcg32;
use std::time::Duration;

/// Link parameters.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub propagation: Duration,
    /// Uniform jitter added on top of propagation, max.
    pub jitter_max: Duration,
    /// Random packet loss probability.
    pub loss_rate: f32,
    /// Maximum queueing delay before tail drop.
    pub max_queue_delay: Duration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            propagation: Duration::from_millis(20),
            jitter_max: Duration::from_millis(2),
            loss_rate: 0.0,
            max_queue_delay: Duration::from_millis(200),
        }
    }
}

/// The outcome of offering a packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered at the given time.
    At(SimTime),
    /// Dropped: queue overflow.
    QueueDrop,
    /// Dropped: random loss.
    Lost,
}

/// A snapshot of a link's counters (see [`Link::stats`]).
///
/// The counters follow the packet's path through [`Link::transmit`],
/// whose ordering is part of the model's contract:
///
/// 1. **Queue admission.** A packet that would wait longer than the
///    configured `max_queue_delay` is rejected *before* touching the
///    wire: it counts as a `queue_drop`, is **not** admitted, and
///    consumes no serialization time (the sender can react to this
///    backpressure).
/// 2. **Wire occupancy.** An admitted packet counts toward `admitted`
///    / `bytes_admitted` and occupies the link for its serialization
///    time — *even if it is subsequently lost*: channel loss destroys
///    packets that were really sent.
/// 3. **Channel loss.** After admission, the loss process (the
///    config's Bernoulli rate and/or an installed [`FaultClock`])
///    decides the packet's fate. A casualty counts as a `loss_drop`:
///    admitted, paid for on the wire, never delivered.
/// 4. **Delivery.** Survivors count toward `delivered` /
///    `bytes_delivered`.
///
/// Invariants: `admitted == delivered + loss_drops` and every offered
/// packet is exactly one of admitted or queue-dropped. Queue drops and
/// channel losses stay separate because conflating congestion (which
/// the sender could avoid) with noise (which it cannot) hides which
/// one is killing a session; `bytes_admitted - bytes_delivered` is the
/// wire capacity wasted on doomed packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets admitted to the wire (delivered or lost in flight).
    pub admitted: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped at the tail of the queue (congestion; never
    /// admitted, never on the wire).
    pub queue_drops: u64,
    /// Packets lost to channel loss *after* admission (they occupied
    /// the wire for their full serialization time).
    pub loss_drops: u64,
    /// Payload+header bytes admitted to the wire.
    pub bytes_admitted: u64,
    /// Payload+header bytes delivered.
    pub bytes_delivered: u64,
}

impl LinkStats {
    /// Total drops, both causes.
    pub fn dropped(&self) -> u64 {
        self.queue_drops + self.loss_drops
    }

    /// Packets offered to the link (admitted + rejected at the queue).
    pub fn offered(&self) -> u64 {
        self.admitted + self.queue_drops
    }
}

/// A unidirectional bottleneck link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Static parameters.
    pub config: LinkConfig,
    /// Capacity trace.
    pub trace: BandwidthTrace,
    busy_until: SimTime,
    rng: Pcg32,
    stats: LinkStats,
    fault: Option<FaultClock>,
    /// The last serialization time computed, keyed by `(wire_bytes,
    /// rate bits)`: a frame's fragments share a size and usually a
    /// rate, and the time is a pure function of the pair.
    last_serialization: Option<((usize, u64), Duration)>,
}

impl Link {
    /// Build a link.
    pub fn new(config: LinkConfig, trace: BandwidthTrace, seed: u64) -> Self {
        Self {
            config,
            trace,
            busy_until: SimTime::ZERO,
            rng: Pcg32::new(seed),
            stats: LinkStats::default(),
            fault: None,
            last_serialization: None,
        }
    }

    /// Install a [`FaultClock`]: its loss process, bandwidth scales,
    /// delay spikes, and outages apply on top of the link's own config
    /// from the next [`transmit`](Self::transmit) on. The clock owns
    /// its own RNG, so the link's jitter/loss draws are unperturbed —
    /// a faulted run and its clean twin stay comparable packet for
    /// packet.
    pub fn set_fault(&mut self, clock: FaultClock) {
        self.fault = Some(clock);
    }

    /// The installed fault clock, if any.
    pub fn fault(&self) -> Option<&FaultClock> {
        self.fault.as_ref()
    }

    /// Roll the installed clock's payload-corruption process for one
    /// delivered frame at `at` (see [`FaultClock::corrupt_roll`]).
    /// `None` when no clock is installed or the frame survives intact.
    pub fn corrupt_roll(&mut self, at: SimTime) -> Option<u64> {
        self.fault.as_mut().and_then(|c| c.corrupt_roll(at))
    }

    /// Capacity actually available at `t` seconds: the trace rate
    /// scaled by any active fault-window bandwidth drop.
    pub fn effective_bps_at(&self, t: f64) -> f64 {
        let scale = self
            .fault
            .as_ref()
            .map_or(1.0, |c| c.bandwidth_scale(SimTime::from_secs_f64(t)));
        self.trace.bps_at(t) * scale
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Current queueing delay if a packet were offered at `now`.
    pub fn queue_delay(&self, now: SimTime) -> Duration {
        self.busy_until.saturating_since(now)
    }

    /// Offer a packet of `wire_bytes` at time `now`.
    ///
    /// Stage order (see [`LinkStats`] for the counter contract): queue
    /// admission first (a rejection is never admitted and consumes no
    /// wire time), then the admitted packet occupies the wire for its
    /// serialization time, then channel loss — the link's Bernoulli
    /// rate and any installed [`FaultClock`] — decides whether the
    /// packet that was really sent also arrives.
    pub fn transmit(&mut self, wire_bytes: usize, now: SimTime) -> Delivery {
        let start = self.busy_until.max(now);
        let queue_delay = start - now;
        if queue_delay > self.config.max_queue_delay {
            self.stats.queue_drops += 1;
            holo_trace::counter("link.queue_drops", 1);
            return Delivery::QueueDrop;
        }
        let scale = self.fault.as_ref().map_or(1.0, |c| c.bandwidth_scale(start));
        let rate = (self.trace.bps_at(start.as_secs_f64()) * scale).max(1.0);
        let serialization = self.serialization(wire_bytes, rate);
        self.busy_until = start + serialization;
        self.stats.admitted += 1;
        self.stats.bytes_admitted += wire_bytes as u64;
        let channel_loss =
            self.config.loss_rate > 0.0 && self.rng.chance(self.config.loss_rate);
        let injected_loss = match &mut self.fault {
            // The clock rolls even when the packet is already doomed:
            // its chain must advance exactly once per admitted packet
            // for (seed, plan) reproducibility.
            Some(clock) => clock.loss_roll(start),
            None => false,
        };
        if channel_loss || injected_loss {
            self.stats.loss_drops += 1;
            holo_trace::counter("link.loss_drops", 1);
            return Delivery::Lost;
        }
        let jitter = if self.config.jitter_max.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.rng.next_f32() as f64 * self.config.jitter_max.as_secs_f64())
        };
        let extra = self.fault.as_ref().map_or(Duration::ZERO, |c| c.extra_delay(start));
        self.stats.delivered += 1;
        self.stats.bytes_delivered += wire_bytes as u64;
        if holo_trace::enabled() {
            holo_trace::counter("link.delivered", 1);
            holo_trace::counter("link.bytes_delivered", wire_bytes as u64);
        }
        Delivery::At(self.busy_until + self.config.propagation + jitter + extra)
    }

    /// How long `wire_bytes` occupy the wire at `rate` bits/s, reusing
    /// the last packet's figure when size and rate are the same.
    fn serialization(&mut self, wire_bytes: usize, rate: f64) -> Duration {
        let key = (wire_bytes, rate.to_bits());
        match self.last_serialization {
            Some((last, time)) if last == key => time,
            _ => {
                let time = Duration::from_secs_f64(wire_bytes as f64 * 8.0 / rate);
                self.last_serialization = Some((key, time));
                time
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_runtime::check::{any, collection};
    use holo_runtime::{holo_prop, prop_assert_eq};

    fn quiet_link(bps: f64) -> Link {
        Link::new(
            LinkConfig { jitter_max: Duration::ZERO, ..Default::default() },
            BandwidthTrace::Constant { bps },
            1,
        )
    }

    #[test]
    fn single_packet_latency_is_serialization_plus_propagation() {
        let mut link = quiet_link(8e6); // 1 MB/s
        let d = link.transmit(1000, SimTime::ZERO);
        // 1000 B at 8 Mbps = 1 ms; + 20 ms propagation.
        match d {
            Delivery::At(t) => {
                assert!((t.as_millis_f64() - 21.0).abs() < 0.1, "latency {}", t.as_millis_f64())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = quiet_link(8e6);
        let a = link.transmit(1000, SimTime::ZERO);
        let b = link.transmit(1000, SimTime::ZERO);
        let (Delivery::At(ta), Delivery::At(tb)) = (a, b) else {
            panic!("drops on empty link");
        };
        assert!((tb.as_millis_f64() - ta.as_millis_f64() - 1.0).abs() < 0.05);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = quiet_link(1e6); // slow: 8 ms per KB
        let mut drops = 0;
        for _ in 0..100 {
            if link.transmit(1000, SimTime::ZERO) == Delivery::QueueDrop {
                drops += 1;
            }
        }
        // 200 ms queue limit / 8 ms per packet = ~25 accepted.
        assert!(drops > 60, "drops {drops}");
        let stats = link.stats();
        assert_eq!(stats.queue_drops as usize, drops);
        assert_eq!(stats.loss_drops, 0, "no random loss configured");
        assert_eq!(stats.dropped() as usize, drops);
        // Queue drops are never admitted: no wire bytes were spent.
        assert_eq!(stats.admitted, stats.delivered);
        assert_eq!(stats.bytes_admitted, stats.bytes_delivered);
        assert_eq!(stats.offered(), 100);
    }

    #[test]
    fn stats_distinguish_drop_causes() {
        // Lossy but uncongested: every drop must be a loss_drop.
        let mut lossy = Link::new(
            LinkConfig { loss_rate: 0.2, max_queue_delay: Duration::from_secs(100), ..Default::default() },
            BandwidthTrace::Constant { bps: 1e9 },
            11,
        );
        for i in 0..500 {
            lossy.transmit(500, SimTime::from_millis(i));
        }
        let s = lossy.stats();
        assert!(s.loss_drops > 0);
        assert_eq!(s.queue_drops, 0);
        assert_eq!(s.delivered + s.dropped(), 500);
        assert_eq!(s.bytes_delivered, s.delivered * 500);
        // Channel losses happen *after* admission: the lost packets
        // were on the wire and their bytes were paid for.
        assert_eq!(s.admitted, s.delivered + s.loss_drops);
        assert_eq!(s.admitted, 500);
        assert_eq!(s.bytes_admitted, 500 * 500);
        assert!(s.bytes_admitted > s.bytes_delivered, "doomed packets still cost wire bytes");
    }

    #[test]
    fn random_loss_rate_approximated() {
        let mut link = Link::new(
            LinkConfig { loss_rate: 0.1, max_queue_delay: Duration::from_secs(100), ..Default::default() },
            BandwidthTrace::Constant { bps: 1e9 },
            7,
        );
        let mut lost = 0;
        for i in 0..5000 {
            if link.transmit(100, SimTime::from_millis(i)) == Delivery::Lost {
                lost += 1;
            }
        }
        let rate = lost as f32 / 5000.0;
        assert!((rate - 0.1).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn trace_rate_changes_serialization() {
        let trace = BandwidthTrace::Steps { steps: vec![(0.0, 8e6), (1.0, 0.8e6)] };
        let mut link = Link::new(
            LinkConfig { jitter_max: Duration::ZERO, ..Default::default() },
            trace,
            1,
        );
        let Delivery::At(fast) = link.transmit(1000, SimTime::ZERO) else { panic!() };
        let mut link2 = link.clone();
        let Delivery::At(slow) = link2.transmit(1000, SimTime::from_secs_f64(1.0)) else { panic!() };
        let fast_ser = fast.as_millis_f64() - 20.0;
        let slow_ser = slow.as_millis_f64() - 1000.0 - 20.0;
        assert!((slow_ser / fast_ser - 10.0).abs() < 0.5, "fast {fast_ser} slow {slow_ser}");
    }

    #[test]
    fn fault_clock_outage_and_recovery() {
        use crate::fault::{FaultClock, FaultEffect, FaultSegment};
        let mut link = quiet_link(8e6);
        link.set_fault(FaultClock::new(
            None,
            vec![FaultSegment {
                from: SimTime::from_millis(100),
                until: SimTime::from_millis(200),
                effect: FaultEffect::LinkDown,
            }],
            5,
        ));
        assert!(matches!(link.transmit(100, SimTime::from_millis(50)), Delivery::At(_)));
        assert_eq!(link.transmit(100, SimTime::from_millis(150)), Delivery::Lost);
        assert!(matches!(link.transmit(100, SimTime::from_millis(250)), Delivery::At(_)));
        let s = link.stats();
        assert_eq!((s.admitted, s.delivered, s.loss_drops), (3, 2, 1));
        assert_eq!(link.fault().unwrap().injected_drops, 1);
    }

    #[test]
    fn fault_clock_scales_bandwidth_and_adds_delay() {
        use crate::fault::{FaultClock, FaultEffect, FaultSegment};
        let mut link = quiet_link(8e6); // 1 ms per KB, 20 ms propagation
        link.set_fault(FaultClock::new(
            None,
            vec![
                FaultSegment {
                    from: SimTime::from_secs_f64(1.0),
                    until: SimTime::from_secs_f64(2.0),
                    effect: FaultEffect::BandwidthScale(0.1),
                },
                FaultSegment {
                    from: SimTime::from_secs_f64(3.0),
                    until: SimTime::from_secs_f64(4.0),
                    effect: FaultEffect::ExtraDelay(Duration::from_millis(40)),
                },
            ],
            5,
        ));
        let Delivery::At(clean) = link.transmit(1000, SimTime::ZERO) else { panic!() };
        assert!((clean.as_millis_f64() - 21.0).abs() < 0.1);
        // Inside the bandwidth drop: serialization is 10x slower.
        let Delivery::At(slow) = link.transmit(1000, SimTime::from_secs_f64(1.5)) else { panic!() };
        assert!((slow.as_millis_f64() - 1500.0 - 30.0).abs() < 0.2, "slow {}", slow.as_millis_f64());
        assert!((link.effective_bps_at(1.5) - 0.8e6).abs() < 1.0);
        assert_eq!(link.effective_bps_at(2.5), 8e6);
        // Inside the delay spike: +40 ms one-way.
        let Delivery::At(spiked) = link.transmit(1000, SimTime::from_secs_f64(3.5)) else { panic!() };
        assert!((spiked.as_millis_f64() - 3500.0 - 61.0).abs() < 0.2, "spiked {}", spiked.as_millis_f64());
    }

    #[test]
    fn installing_an_idle_fault_clock_changes_nothing() {
        use crate::fault::FaultClock;
        let mut plain = Link::new(
            LinkConfig { loss_rate: 0.1, ..Default::default() },
            BandwidthTrace::Constant { bps: 8e6 },
            21,
        );
        let mut faulted = plain.clone();
        faulted.set_fault(FaultClock::new(None, Vec::new(), 99));
        for i in 0..200 {
            let now = SimTime::from_millis(i * 5);
            assert_eq!(plain.transmit(700, now), faulted.transmit(700, now));
        }
        assert_eq!(plain.stats(), faulted.stats());
    }

    #[test]
    fn idle_link_has_no_queue() {
        let mut link = quiet_link(1e6);
        assert_eq!(link.queue_delay(SimTime::ZERO), Duration::ZERO);
        link.transmit(10_000, SimTime::ZERO);
        assert!(link.queue_delay(SimTime::ZERO) > Duration::ZERO);
        // After the queue drains, it's idle again.
        assert_eq!(link.queue_delay(SimTime::from_secs_f64(10.0)), Duration::ZERO);
    }

    holo_prop! {
        #![cases(256)]

        /// The memo changes no outcome: a link that recomputes every
        /// serialization time (its memo cleared before each packet)
        /// gives the same `Delivery` for every packet and the same
        /// `LinkStats`, over a stepped trace and `holo-chaos`'s
        /// `bandwidth_collapse` clock (capacity x0.002 from 1 s to
        /// 3 s) with burst loss on top.
        fn memoized_serialization_matches_the_formula(
            packets in collection::vec((0usize..4, 1usize..1600, 0u64..2_000), 1..400),
            seed in any::<u64>(),
        ) {
            use crate::fault::{FaultClock, FaultEffect, FaultSegment, LossModel};
            let trace = BandwidthTrace::Steps {
                steps: vec![(0.0, 20e6), (0.5, 3e6), (1.5, 45e6), (2.5, 8e6)],
            };
            let collapse = FaultSegment {
                from: SimTime::from_secs_f64(1.0),
                until: SimTime::from_secs_f64(3.0),
                effect: FaultEffect::BandwidthScale(0.002),
            };
            let clock = FaultClock::new(Some(LossModel::burst5()), vec![collapse], seed ^ 0xC0);
            let mut memo = Link::new(LinkConfig { loss_rate: 0.05, ..Default::default() }, trace, seed);
            memo.set_fault(clock);
            let mut formula = memo.clone();
            let mut now = SimTime::ZERO;
            for (i, &(shape, random_size, gap_us)) in packets.iter().enumerate() {
                // Mostly a frame's fragment sizes, so the memo hits.
                let size = [1200, 1200, 640, random_size][shape];
                now += Duration::from_micros(gap_us * 3);
                formula.last_serialization = None;
                prop_assert_eq!(memo.transmit(size, now), formula.transmit(size, now), "packet {}", i);
            }
            prop_assert_eq!(memo.stats(), formula.stats());
        }
    }
}
