//! Deterministic fault injection: the per-link `FaultClock`.
//!
//! The plain link model knows one impairment: independent Bernoulli
//! packet loss. Real access networks fail in correlated ways — loss
//! arrives in bursts (a fade, a microwave blip), capacity collapses for
//! seconds (a congested cell), links flap outright, and one-way delay
//! spikes under bufferbloat. A [`FaultClock`] is a compiled, seeded
//! schedule of exactly those impairments, installed on a [`Link`] via
//! [`Link::set_fault`] and consumed inside [`Link::transmit`]: every
//! drop, slowdown, and delay it injects replays bit-identically from
//! `(seed, schedule)`.
//!
//! The burst-loss process is the classic two-state Gilbert–Elliott
//! chain: a *good* state with near-zero loss and a *bad* state where
//! most packets die, with per-packet transition probabilities. Its
//! stationary loss rate is `p_bad · loss_bad + p_good · loss_good`
//! where `p_bad = p_enter_bad / (p_enter_bad + p_exit_bad)`, and the
//! mean burst length is `1 / p_exit_bad` packets — the two knobs fault
//! plans are written in.
//!
//! [`Link`]: crate::link::Link
//! [`Link::transmit`]: crate::link::Link::transmit
//! [`Link::set_fault`]: crate::link::Link::set_fault

use crate::time::SimTime;
use holo_math::Pcg32;
use std::time::Duration;

/// A packet-loss process.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// Independent per-packet loss — what `LinkConfig::loss_rate`
    /// already models, available here so a fault plan can own the whole
    /// loss story of a link.
    Bernoulli {
        /// Per-packet loss probability.
        rate: f32,
    },
    /// Two-state Gilbert–Elliott burst loss.
    GilbertElliott {
        /// Per-packet probability of entering the bad state.
        p_enter_bad: f32,
        /// Per-packet probability of leaving the bad state (mean burst
        /// length is its reciprocal).
        p_exit_bad: f32,
        /// Loss probability while in the good state.
        loss_good: f32,
        /// Loss probability while in the bad state.
        loss_bad: f32,
    },
}

impl LossModel {
    /// A Gilbert–Elliott chain tuned to ~5% mean loss arriving in
    /// bursts of ~2–3 packets: 10% of packets are spent in the bad
    /// state (`0.05 / (0.05 + 0.45)`) where half of them die, plus a
    /// 0.5% background rate in the good state.
    pub fn burst5() -> Self {
        LossModel::GilbertElliott {
            p_enter_bad: 0.05,
            p_exit_bad: 0.45,
            loss_good: 0.005,
            loss_bad: 0.5,
        }
    }
}

/// What a fault window does to the link while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEffect {
    /// Multiply the trace capacity by this factor (`0.1` is a 90%
    /// bandwidth drop). Concurrent scales multiply.
    BandwidthScale(f64),
    /// Add one-way delay to every delivery (a bufferbloat / reroute
    /// spike). Concurrent spikes add.
    ExtraDelay(Duration),
    /// Hard outage: every packet offered in the window is lost after
    /// admission (the flap is invisible to the sender until packets
    /// die).
    LinkDown,
    /// Per-frame payload corruption probability: delivered frames have
    /// their bytes flipped in flight with this chance. Corruption is
    /// rolled by the layers that carry real payload bytes (`Session`,
    /// the SFU, the chaos stream harness) via
    /// [`FaultClock::corrupt_roll`] — the link itself delivers the
    /// frame on time, it just delivers *wrong bytes*, which only a
    /// checksummed envelope can tell apart from good ones. Concurrent
    /// windows combine as independent corruption chances.
    PayloadCorrupt(f32),
}

/// A half-open time window `[from, until)` with an effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSegment {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// The impairment applied inside the window.
    pub effect: FaultEffect,
}

impl FaultSegment {
    /// Whether the window covers `at`.
    pub fn active_at(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// A compiled, per-link fault schedule. Owns its own RNG (independent
/// of the link's jitter RNG) so installing or removing a clock never
/// perturbs the impairments the link already modeled.
#[derive(Debug, Clone)]
pub struct FaultClock {
    loss: Option<LossModel>,
    segments: Vec<FaultSegment>,
    rng: Pcg32,
    /// Separate RNG stream for payload corruption, so adding a
    /// `PayloadCorrupt` window to a plan never perturbs the loss
    /// process — a corrupted run and its clean twin stay comparable
    /// packet for packet.
    corrupt_rng: Pcg32,
    in_bad: bool,
    /// Packets this clock decided to drop (outages + loss process).
    pub injected_drops: u64,
    /// Frames this clock decided to corrupt in flight.
    pub injected_corruptions: u64,
}

impl FaultClock {
    /// Compile a schedule. `seed` drives the loss process; two clocks
    /// built from the same `(loss, segments, seed)` replay identically.
    pub fn new(loss: Option<LossModel>, segments: Vec<FaultSegment>, seed: u64) -> Self {
        Self {
            loss,
            segments,
            rng: Pcg32::with_stream(seed, 0xFA17),
            corrupt_rng: Pcg32::with_stream(seed, 0xC0DE),
            in_bad: false,
            injected_drops: 0,
            injected_corruptions: 0,
        }
    }

    /// The schedule's segments.
    pub fn segments(&self) -> &[FaultSegment] {
        &self.segments
    }

    /// Product of all bandwidth scales active at `at` (1.0 when none).
    pub fn bandwidth_scale(&self, at: SimTime) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.active_at(at))
            .fold(1.0, |acc, s| match s.effect {
                FaultEffect::BandwidthScale(f) => acc * f.max(0.0),
                _ => acc,
            })
    }

    /// Sum of all delay spikes active at `at`.
    pub fn extra_delay(&self, at: SimTime) -> Duration {
        self.segments
            .iter()
            .filter(|s| s.active_at(at))
            .fold(Duration::ZERO, |acc, s| match s.effect {
                FaultEffect::ExtraDelay(d) => acc + d,
                _ => acc,
            })
    }

    /// Whether a hard outage covers `at`.
    pub fn is_down(&self, at: SimTime) -> bool {
        self.segments
            .iter()
            .any(|s| s.active_at(at) && s.effect == FaultEffect::LinkDown)
    }

    /// Advance the loss process one packet and decide this packet's
    /// fate at `at`. Every admitted packet must roll exactly once so
    /// the chain (and therefore the whole scenario) is reproducible.
    pub fn loss_roll(&mut self, at: SimTime) -> bool {
        if self.is_down(at) {
            self.injected_drops += 1;
            return true;
        }
        let lost = match &self.loss {
            None => false,
            Some(LossModel::Bernoulli { rate }) => *rate > 0.0 && self.rng.chance(*rate),
            Some(LossModel::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad }) => {
                // Transition first, then roll in the new state: bursts
                // start killing from their first packet.
                if self.in_bad {
                    if self.rng.chance(*p_exit_bad) {
                        self.in_bad = false;
                    }
                } else if self.rng.chance(*p_enter_bad) {
                    self.in_bad = true;
                }
                let p = if self.in_bad { *loss_bad } else { *loss_good };
                p > 0.0 && self.rng.chance(p)
            }
        };
        if lost {
            self.injected_drops += 1;
        }
        lost
    }

    /// Combined corruption probability of all `PayloadCorrupt` windows
    /// active at `at` (independent chances compose).
    pub fn corrupt_rate(&self, at: SimTime) -> f32 {
        let survive = self
            .segments
            .iter()
            .filter(|s| s.active_at(at))
            .fold(1.0f32, |acc, s| match s.effect {
                FaultEffect::PayloadCorrupt(p) => acc * (1.0 - p.clamp(0.0, 1.0)),
                _ => acc,
            });
        1.0 - survive
    }

    /// Roll the corruption process for one delivered frame at `at`.
    /// Returns `Some(entropy)` when the frame's bytes are to be
    /// corrupted — the entropy picks which bit(s) to flip, so the
    /// damage itself replays deterministically. Draws from the corrupt
    /// RNG only inside an active window, so plans without
    /// `PayloadCorrupt` segments replay byte-identically to builds
    /// that predate the fault kind.
    pub fn corrupt_roll(&mut self, at: SimTime) -> Option<u64> {
        let rate = self.corrupt_rate(at);
        if rate <= 0.0 {
            return None;
        }
        if self.corrupt_rng.chance(rate) {
            self.injected_corruptions += 1;
            Some(self.corrupt_rng.next_u64())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LossModel {
        /// Mean (stationary) loss rate of the process.
        fn mean_loss_rate(&self) -> f64 {
            match self {
                LossModel::Bernoulli { rate } => *rate as f64,
                LossModel::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } => {
                    let denom = (*p_enter_bad as f64 + *p_exit_bad as f64).max(f64::MIN_POSITIVE);
                    let p_bad = *p_enter_bad as f64 / denom;
                    p_bad * *loss_bad as f64 + (1.0 - p_bad) * *loss_good as f64
                }
            }
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn gilbert_elliott_hits_its_stationary_rate() {
        let model = LossModel::burst5();
        let expected = model.mean_loss_rate();
        let mut clock = FaultClock::new(Some(model), Vec::new(), 9);
        let n = 100_000;
        let lost = (0..n).filter(|_| clock.loss_roll(SimTime::ZERO)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs expected {expected}");
        assert_eq!(clock.injected_drops as usize, lost);
    }

    #[test]
    fn gilbert_elliott_loss_is_bursty() {
        // Compare run-length structure against Bernoulli at the same
        // mean rate: GE losses must clump into longer runs.
        let bursty = LossModel::GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.25,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let mean = bursty.mean_loss_rate() as f32;
        let run_stats = |mut clock: FaultClock| {
            let mut runs = Vec::new();
            let mut current = 0u32;
            for _ in 0..200_000 {
                if clock.loss_roll(SimTime::ZERO) {
                    current += 1;
                } else if current > 0 {
                    runs.push(current);
                    current = 0;
                }
            }
            runs.iter().map(|&r| r as f64).sum::<f64>() / runs.len().max(1) as f64
        };
        let ge = run_stats(FaultClock::new(Some(bursty), Vec::new(), 3));
        let bern =
            run_stats(FaultClock::new(Some(LossModel::Bernoulli { rate: mean }), Vec::new(), 3));
        assert!(ge > bern * 1.5, "GE mean run {ge:.2} vs Bernoulli {bern:.2}");
    }

    #[test]
    fn segments_compose() {
        let clock = FaultClock::new(
            None,
            vec![
                FaultSegment {
                    from: ms(100),
                    until: ms(200),
                    effect: FaultEffect::BandwidthScale(0.5),
                },
                FaultSegment {
                    from: ms(150),
                    until: ms(250),
                    effect: FaultEffect::BandwidthScale(0.2),
                },
                FaultSegment {
                    from: ms(150),
                    until: ms(160),
                    effect: FaultEffect::ExtraDelay(Duration::from_millis(30)),
                },
            ],
            1,
        );
        assert_eq!(clock.bandwidth_scale(ms(50)), 1.0);
        assert_eq!(clock.bandwidth_scale(ms(120)), 0.5);
        assert!((clock.bandwidth_scale(ms(155)) - 0.1).abs() < 1e-12, "scales multiply");
        assert_eq!(clock.bandwidth_scale(ms(220)), 0.2);
        assert_eq!(clock.extra_delay(ms(120)), Duration::ZERO);
        assert_eq!(clock.extra_delay(ms(155)), Duration::from_millis(30));
        // Window end is exclusive.
        assert_eq!(clock.bandwidth_scale(ms(250)), 1.0);
    }

    #[test]
    fn outage_kills_everything_in_window() {
        let mut clock = FaultClock::new(
            None,
            vec![FaultSegment { from: ms(10), until: ms(20), effect: FaultEffect::LinkDown }],
            1,
        );
        assert!(!clock.loss_roll(ms(5)));
        assert!(clock.loss_roll(ms(10)));
        assert!(clock.loss_roll(ms(19)));
        assert!(!clock.loss_roll(ms(20)));
        assert_eq!(clock.injected_drops, 2);
    }

    #[test]
    fn corrupt_roll_fires_only_inside_windows() {
        let mut clock = FaultClock::new(
            None,
            vec![FaultSegment {
                from: ms(100),
                until: ms(200),
                effect: FaultEffect::PayloadCorrupt(1.0),
            }],
            3,
        );
        assert_eq!(clock.corrupt_roll(ms(50)), None);
        assert!(clock.corrupt_roll(ms(150)).is_some());
        assert_eq!(clock.corrupt_roll(ms(200)), None, "window end is exclusive");
        assert_eq!(clock.injected_corruptions, 1);
        assert_eq!(clock.corrupt_rate(ms(150)), 1.0);
        assert_eq!(clock.corrupt_rate(ms(250)), 0.0);
    }

    #[test]
    fn corruption_does_not_perturb_the_loss_process() {
        // Same seed, with and without a corrupt window: the loss rolls
        // must match draw for draw even when corruption is rolled
        // in between (separate RNG streams).
        let mut plain = FaultClock::new(Some(LossModel::burst5()), Vec::new(), 42);
        let mut corrupting = FaultClock::new(
            Some(LossModel::burst5()),
            vec![FaultSegment {
                from: SimTime::ZERO,
                until: SimTime::from_secs_f64(1e9),
                effect: FaultEffect::PayloadCorrupt(0.5),
            }],
            42,
        );
        for i in 0..5000 {
            let at = SimTime::from_micros(i);
            assert_eq!(plain.loss_roll(at), corrupting.loss_roll(at));
            let _ = corrupting.corrupt_roll(at);
        }
        assert!(corrupting.injected_corruptions > 1000);
    }

    #[test]
    fn corrupt_rate_hits_its_mean() {
        let mut clock = FaultClock::new(
            None,
            vec![FaultSegment {
                from: SimTime::ZERO,
                until: SimTime::from_secs_f64(1e9),
                effect: FaultEffect::PayloadCorrupt(0.1),
            }],
            9,
        );
        let n = 50_000;
        let hits = (0..n).filter(|_| clock.corrupt_roll(SimTime::ZERO).is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "corrupt rate {rate}");
    }

    #[test]
    fn same_seed_replays_identically() {
        let make = || FaultClock::new(Some(LossModel::burst5()), Vec::new(), 42);
        let mut a = make();
        let mut b = make();
        for i in 0..5000 {
            let at = SimTime::from_micros(i);
            assert_eq!(a.loss_roll(at), b.loss_roll(at));
        }
    }
}
