//! The stream simulator: one event loop, two report projections.
//!
//! One protected 30 fps stream over one faulted [`Link`]: data frames
//! offered at their capture ticks, FEC parity striped per lane, failed
//! frames re-offered on an RTO/backoff schedule (or abandoned past
//! their dependency horizon), every transmission popped from ONE
//! virtual-time [`EventQueue`] so retries interleave with later frames
//! on the shared link instead of jumping the queue. All of it is
//! driven by a [`UepPolicy`], and `simulate` is the only code that
//! knows how.
//!
//! The loop returns a run record (per-frame slots plus the wire and
//! retry ledgers); two plain projections turn it into the two report
//! types whose JSON bytes are pinned:
//!
//! * [`run_stream_scenario`] — the class-blind case. A [`Mechanisms`]
//!   set becomes a policy that treats every class alike (one stripe or
//!   none, one retry schedule or none, nothing abandoned, no wire tag)
//!   and the run is read as a [`StreamOutcome`].
//! * [`run_uep_stream_scenario`] — any policy, read as a
//!   [`UepOutcome`] with the deadline-aware and per-class ledgers.
//!
//! Because both go through THIS code path, a difference between two
//! cells can only come from the policy table, never from divergent
//! simulation machinery; `tests/chaos_resilience.rs` pins the two
//! projections against each other on every shared ledger.
//!
//! Honesty rules the UEP sweep relies on:
//!
//! * **Equal budget.** `weighted` may not emit more parity frames or
//!   schedule more retry slots than `uniform`; the report carries both
//!   sides of the ledger and `uep_report` checks them.
//! * **Tag tax.** Tagged policies pay `UEP_HEADER_BYTES` per frame on
//!   the wire — importance signalling is not free.
//! * **Abandonment is not loss.** A frame whose retries were abandoned
//!   past its dependency horizon is counted in `abandoned`, a separate
//!   bucket from `lost`; `delivered + abandoned + lost == frames` in
//!   every cell.
//! * **Deadlines bind both policies.** UEP `usable` means
//!   chain-decodable *and* inside the render deadline, judged by the
//!   same rule for both.

use crate::fec;
use crate::plan::FaultPlan;
use crate::report::{StreamOutcome, UepClassStats, UepOutcome};
use crate::retransmit::{backoff_delay, RetransmitConfig};
use holo_conf::frame::{gop_descendants, DependencyTracker, FrameTag};
use holo_net::link::{Link, LinkConfig};
use holo_net::time::{EventQueue, SimTime};
use holo_net::trace::BandwidthTrace;
use holo_net::transport::{FrameTransport, LossPolicy};
use holo_net::wire::{ImportanceClass, PayloadKind, UepHeader, UEP_HEADER_BYTES, WIRE_HEADER_BYTES};
use holo_uep::{classify, ClassProtection, StripeSpec, UepPolicy};
use std::time::Duration;

/// Keyframe cadence for the usability pass.
const KEYFRAME_INTERVAL: usize = 10;

/// The synthetic stream the mechanism matrix runs over.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Frames offered.
    pub frames: usize,
    /// Capture rate.
    pub fps: f64,
    /// Payload per frame, bytes (all frames equal — parity sizing is
    /// then exact).
    pub payload_bytes: usize,
    /// Quiet-link capacity, bps.
    pub link_bps: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            frames: 150,
            fps: 30.0,
            payload_bytes: 20_000,
            // ~4.8 Mbps of media on a 50 Mbps link: protection needs
            // headroom — retransmission bursts on a near-saturated link
            // queue-drop and cascade.
            link_bps: 50e6,
        }
    }
}

/// Which resilience mechanisms protect a class-blind stream scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mechanisms {
    /// XOR-parity FEC, if any.
    pub fec: Option<StripeSpec>,
    /// RTO-scheduled whole-frame retransmission, if any.
    pub retransmit: Option<RetransmitConfig>,
}

impl Mechanisms {
    /// No protection at all.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// FEC(4,1) only.
    pub fn fec() -> Self {
        Self { fec: Some(StripeSpec { k: 4, r: 1 }), retransmit: None }
    }

    /// Retransmission only.
    pub fn retransmit() -> Self {
        Self { fec: None, retransmit: Some(RetransmitConfig::default()) }
    }

    /// FEC(4,1) + retransmission — the acceptance-criteria pairing.
    pub fn full() -> Self {
        Self { retransmit: Some(RetransmitConfig::default()), ..Self::fec() }
    }

    /// Stable label used in reports and bench names.
    pub fn label(&self) -> String {
        match (self.fec, self.retransmit.is_some()) {
            (None, false) => "baseline".into(),
            (Some(f), false) => format!("fec({},{})", f.k, f.r),
            (None, true) => "retransmit".into(),
            (Some(f), true) => format!("fec({},{})+retransmit", f.k, f.r),
        }
    }

    /// The same protection as a class-blind [`UepPolicy`]: every class
    /// gets this stripe (or none) in one shared lane and this retry
    /// schedule (or no retries), nothing is abandoned, nothing is
    /// tagged. [`UepPolicy::validate`] then vets it like any policy.
    fn policy(&self) -> UepPolicy {
        let schedule = self
            .retransmit
            .unwrap_or(RetransmitConfig { max_retries: 0, ..Default::default() });
        let everyone = ClassProtection {
            stripe: self.fec,
            rto: schedule.rto,
            backoff: schedule.backoff,
            max_retries: schedule.max_retries,
            abandon: false,
        };
        UepPolicy { name: "class_blind", classes: [everyone; 4], ..UepPolicy::uniform() }
    }
}

/// One scheduled transmission.
#[derive(Clone, Copy)]
enum Offer {
    /// Data frame `frame`, attempt number (0 = first try).
    Data { frame: usize, attempt: u32 },
    /// Parity frame `index` of FEC group `group`.
    Parity { group: usize, index: usize },
}

/// One finalized FEC group: `members` frames of one lane, `r` parity.
struct Group {
    members: Vec<usize>,
    r: usize,
}

/// Per-frame bookkeeping.
struct Slot {
    offered_at: SimTime,
    available_at: Option<SimTime>,
    recovered_retx: bool,
    recovered_fec: bool,
    abandoned: bool,
    /// Available, and so is every frame its delta chain hangs off —
    /// whenever they arrived.
    decodable: bool,
}

/// What one simulated stream leaves behind: the per-frame slots and
/// the ledgers no slot can hold. Both report types are read off this.
struct StreamRun {
    classes: Vec<ImportanceClass>,
    slots: Vec<Slot>,
    parity_frames: usize,
    retries_sent: u64,
    retries_abandoned: u64,
    corrupt_detected: usize,
    wire_bytes: u64,
}

/// Simulate `cfg.frames` equal-sized frames over a quiet link impaired
/// by `plan` and protected by `policy`. Frames are classed by
/// [`holo_uep::classify`]; each FEC lane stripes independently (a full
/// group's parity ships at the capture tick of its last member — for a
/// (1,1) lane that means a keyframe's copy follows it immediately; a
/// trailing partial group goes unprotected); retransmissions follow
/// the class schedule and may be abandoned past the dependency
/// horizon. Under `holo_trace` the run records its `chaos.outage`
/// spans and `chaos.*` counters.
///
/// Panics with the typed [`holo_uep::PolicyError`] if `policy` does
/// not validate — a zero-width stripe must never reach the arithmetic.
fn simulate(
    plan: &FaultPlan,
    policy: &UepPolicy,
    cfg: &StreamConfig,
    kind: PayloadKind,
) -> StreamRun {
    if let Err(e) = policy.validate() {
        panic!("stream protection policy `{}` is invalid: {e}", policy.name);
    }
    let link_cfg = LinkConfig { jitter_max: Duration::ZERO, ..Default::default() };
    let mut link =
        Link::new(link_cfg, BandwidthTrace::Constant { bps: cfg.link_bps }, plan.seed ^ 0x57A6);
    link.set_fault(plan.compile(0));
    // Recovery is owned by this layer, so the transport itself drops.
    let mut transport = FrameTransport::new(link, LossPolicy::DropFrame);

    let tracing = holo_trace::enabled();
    if tracing {
        for seg in &plan.segments {
            if matches!(seg.effect, holo_net::fault::FaultEffect::LinkDown) {
                holo_trace::span_enter("chaos.outage", seg.from.0);
                holo_trace::span_exit(seg.until.0);
            }
        }
    }

    let frame_period = Duration::from_secs_f64(1.0 / cfg.fps.max(1e-9));
    let capture_at = |i: usize| SimTime::from_secs_f64(i as f64 / cfg.fps);
    let classes: Vec<ImportanceClass> =
        (0..cfg.frames).map(|i| classify(i, cfg.frames, KEYFRAME_INTERVAL, kind)).collect();

    // Deal frames into FEC lanes in capture order; each full group of
    // `k` lane frames finalizes with `r` parity offers at the capture
    // tick of its last member. Trailing partials stay unprotected.
    let mut offers = EventQueue::new();
    let mut groups: Vec<Group> = Vec::new();
    // (group id, in-group index) per frame, for wire tagging.
    let mut frame_group: Vec<Option<(usize, usize)>> = vec![None; cfg.frames];
    let mut lane_pending: [Vec<usize>; 4] = Default::default();
    for (i, &class) in classes.iter().enumerate() {
        let at = capture_at(i);
        offers.push(at, Offer::Data { frame: i, attempt: 0 });
        let lane = policy.fec_lane(class);
        if let Some(stripe) = policy.lane_stripe(lane) {
            lane_pending[lane].push(i);
            if lane_pending[lane].len() == stripe.k as usize {
                let group = groups.len();
                for (j, &m) in lane_pending[lane].iter().enumerate() {
                    frame_group[m] = Some((group, j));
                }
                for p in 0..stripe.r as usize {
                    offers.push(at, Offer::Parity { group, index: p });
                }
                groups.push(Group {
                    members: std::mem::take(&mut lane_pending[lane]),
                    r: stripe.r as usize,
                });
            }
        }
    }
    let parity_frames: usize = groups.iter().map(|g| g.r).sum();
    debug_assert_eq!(
        parity_frames,
        policy.parity_frames(cfg.frames, KEYFRAME_INTERVAL, kind),
        "scheduler and policy accounting must agree on the parity budget"
    );

    // Wire tagging: under a tagged policy every offer carries a
    // `UepHeader` (and pays for it); the encode/decode roundtrip is
    // asserted so the sweep doubles as an integration test of the
    // header codec on every single offer.
    let frame_bytes =
        cfg.payload_bytes + WIRE_HEADER_BYTES + if policy.tagged { UEP_HEADER_BYTES } else { 0 };
    let deadline_ms = (policy.deadline.as_secs_f64() * 1e3).round() as u16;
    let tag_for = |offer: Offer| -> UepHeader {
        match offer {
            Offer::Data { frame, .. } => {
                let class = classes[frame];
                let (group, index, k, r) = match frame_group[frame] {
                    Some((g, j)) => {
                        let stripe = policy
                            .lane_stripe(policy.fec_lane(class))
                            .expect("grouped frames have a stripe");
                        (g as u32, j as u8, stripe.k, stripe.r)
                    }
                    // Ungrouped frames tag a singleton "group" of
                    // themselves, flagged in the high bit.
                    None => (0x8000_0000 | frame as u32, 0, 1, 0),
                };
                UepHeader {
                    class,
                    parity: false,
                    abandonable: policy.protection(class).abandon,
                    k,
                    r,
                    group,
                    index,
                    deadline_ms,
                }
            }
            Offer::Parity { group, index } => {
                let g = &groups[group];
                let class = classes[g.members[0]];
                let stripe = policy
                    .lane_stripe(policy.fec_lane(class))
                    .expect("parity groups have a stripe");
                UepHeader {
                    class,
                    parity: true,
                    abandonable: false,
                    k: stripe.k,
                    r: stripe.r,
                    group: group as u32,
                    index: index as u8,
                    deadline_ms,
                }
            }
        }
    };

    let mut slots: Vec<Slot> = (0..cfg.frames)
        .map(|i| Slot {
            offered_at: capture_at(i),
            available_at: None,
            recovered_retx: false,
            recovered_fec: false,
            abandoned: false,
            decodable: false,
        })
        .collect();
    let mut wire_bytes = 0u64;
    let mut corrupt_detected = 0usize;
    let mut retries_sent = 0u64;
    let mut retries_abandoned = 0u64;
    let mut parity_delivered: Vec<Vec<bool>> = groups.iter().map(|g| vec![false; g.r]).collect();
    let mut parity_arrival: Vec<Option<SimTime>> = vec![None; groups.len()];
    while let Some((at, offer)) = offers.pop() {
        if policy.tagged {
            let header = tag_for(offer);
            debug_assert_eq!(
                UepHeader::decode(&header.encode()).as_ref(),
                Ok(&header),
                "UEP wire tag must roundtrip"
            );
        }
        // Every frame ships inside a `WireFrame` envelope; a frame that
        // completes delivery can still arrive corrupted, in which case
        // the CRC detects it and the receiver drops it — same recovery
        // paths as a loss.
        let result = transport.send_frame_sized(frame_bytes, at);
        wire_bytes += result.wire_bytes;
        let corrupted = result.complete
            && result
                .completed_at
                .is_some_and(|t| transport.link.corrupt_roll(t).is_some());
        if corrupted {
            corrupt_detected += 1;
            if tracing {
                holo_trace::counter("chaos.corrupt_detected", 1);
            }
        }
        let arrived = result.complete && !corrupted;
        match offer {
            Offer::Data { frame, attempt } => {
                if attempt > 0 {
                    retries_sent += 1;
                }
                if arrived {
                    slots[frame].available_at = result.completed_at;
                    slots[frame].recovered_retx = attempt > 0;
                    continue;
                }
                let class = classes[frame];
                let prot = policy.protection(class);
                if attempt >= prot.max_retries {
                    continue;
                }
                let schedule = RetransmitConfig {
                    rto: prot.rto,
                    backoff: prot.backoff,
                    max_retries: prot.max_retries,
                };
                let retry_at = at + backoff_delay(&schedule, attempt);
                if policy.should_abandon(
                    class,
                    retry_at,
                    slots[frame].offered_at,
                    gop_descendants(frame, KEYFRAME_INTERVAL, cfg.frames),
                    frame_period,
                ) {
                    // Backoff never shrinks, so every later retry is
                    // past the horizon too: the whole remaining
                    // schedule is surrendered at once.
                    retries_abandoned += u64::from(prot.max_retries - attempt);
                    slots[frame].abandoned = true;
                } else {
                    offers.push(retry_at, Offer::Data { frame, attempt: attempt + 1 });
                }
            }
            Offer::Parity { group, index } => {
                parity_delivered[group][index] = arrived;
                if arrived {
                    parity_arrival[group] = parity_arrival[group].max(result.completed_at);
                }
            }
        }
    }

    // FEC pass, after every retransmission has resolved: per group,
    // rebuild what the interleaved parity stripes can.
    for (g, group) in groups.iter().enumerate() {
        let data_delivered: Vec<bool> =
            group.members.iter().map(|&m| slots[m].available_at.is_some()).collect();
        let after = fec::recoverable(&data_delivered, &parity_delivered[g], group.r);
        // A rebuilt frame becomes available once its whole stripe is
        // in: after the group's last arriving data frame and its parity.
        let group_last = group.members.iter().filter_map(|&m| slots[m].available_at).max();
        let rebuilt_at = match (parity_arrival[g], group_last) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (j, &m) in group.members.iter().enumerate() {
            if after[j] && slots[m].available_at.is_none() {
                slots[m].available_at = rebuilt_at;
                slots[m].recovered_fec = true;
                if tracing {
                    holo_trace::counter("chaos.recovered_fec", 1);
                }
            }
        }
    }

    // Dependency walk: keyframe/delta rules over what is available
    // after recovery, whenever it arrived.
    let mut chain = DependencyTracker::new();
    for (i, slot) in slots.iter_mut().enumerate() {
        let available = slot.available_at.is_some();
        slot.decodable =
            chain.advance(i, FrameTag::for_index(i, KEYFRAME_INTERVAL), available);
        if tracing && available && !slot.decodable {
            holo_trace::counter("chaos.poisoned", 1);
        }
    }
    if tracing {
        let retx = slots.iter().filter(|s| s.recovered_retx).count();
        let lost = slots.iter().filter(|s| s.available_at.is_none()).count();
        holo_trace::counter("chaos.frames_offered", cfg.frames as u64);
        holo_trace::counter("chaos.recovered_retx", retx as u64);
        holo_trace::counter("chaos.frames_lost", lost as u64);
    }

    StreamRun {
        classes,
        slots,
        parity_frames,
        retries_sent,
        retries_abandoned,
        corrupt_detected,
        wire_bytes,
    }
}

impl StreamRun {
    /// The class-blind reading: availability, the deadline-free chain
    /// walk, and what recovery cost.
    fn stream_outcome(
        &self,
        plan: &FaultPlan,
        mechanism: String,
        cfg: &StreamConfig,
    ) -> StreamOutcome {
        let mut delivered = 0usize;
        let mut usable = 0usize;
        let mut recovered_fec = 0usize;
        let mut recovered_retx = 0usize;
        // Summed in slot order: the f64 result is part of the pinned
        // report bytes.
        let mut recovery_ms_sum = 0.0f64;
        for slot in &self.slots {
            delivered += usize::from(slot.available_at.is_some());
            usable += usize::from(slot.decodable);
            recovered_fec += usize::from(slot.recovered_fec);
            recovered_retx += usize::from(slot.recovered_retx);
            if slot.recovered_fec || slot.recovered_retx {
                let at = slot.available_at.expect("recovered frames are available");
                recovery_ms_sum += at.saturating_since(slot.offered_at).as_secs_f64() * 1e3;
            }
        }
        // A frame is recovered by FEC only if no attempt of it arrived.
        let recovery_count = recovered_fec + recovered_retx;
        StreamOutcome {
            plan: plan.name.clone(),
            mechanism,
            frames: cfg.frames,
            delivered,
            recovered_fec,
            recovered_retx,
            corrupt_detected: self.corrupt_detected,
            usable,
            usable_rate: usable as f64 / cfg.frames.max(1) as f64,
            poisoned: delivered - usable,
            wire_bytes: self.wire_bytes,
            overhead: self.wire_bytes as f64 / (cfg.frames * cfg.payload_bytes).max(1) as f64,
            mean_recovery_ms: if recovery_count > 0 {
                recovery_ms_sum / recovery_count as f64
            } else {
                0.0
            },
        }
    }

    /// The class-aware reading. A second dependency walk demands each
    /// chain frame arrived inside its own render deadline — a late
    /// base breaks timeliness downstream just like a lost one — so
    /// `usable` (timely) and `decodable` (ever) are never conflated,
    /// and every frame lands in exactly one of delivered / abandoned /
    /// lost, per cell and per class.
    fn uep_outcome(
        &self,
        plan: &FaultPlan,
        policy: &UepPolicy,
        cfg: &StreamConfig,
        kind: PayloadKind,
    ) -> UepOutcome {
        let mut timely_chain = DependencyTracker::new();
        let mut delivered = 0usize;
        let mut decodable = 0usize;
        let mut usable = 0usize;
        let mut abandoned = 0usize;
        let mut lost = 0usize;
        let mut recovered_fec = 0usize;
        let mut recovered_retx = 0usize;
        let mut per_class: [UepClassStats; 4] = ImportanceClass::ALL.map(|c| UepClassStats {
            class: c.name().to_string(),
            frames: 0,
            delivered: 0,
            usable: 0,
            abandoned: 0,
            lost: 0,
        });
        for (i, slot) in self.slots.iter().enumerate() {
            let cs = &mut per_class[self.classes[i] as usize];
            cs.frames += 1;
            if slot.available_at.is_some() {
                delivered += 1;
                cs.delivered += 1;
            } else if slot.abandoned {
                abandoned += 1;
                cs.abandoned += 1;
            } else {
                lost += 1;
                cs.lost += 1;
            }
            decodable += usize::from(slot.decodable);
            recovered_fec += usize::from(slot.recovered_fec);
            recovered_retx += usize::from(slot.recovered_retx);
            let timely = slot.available_at.is_some_and(|t| t <= slot.offered_at + policy.deadline);
            if timely_chain.advance(i, FrameTag::for_index(i, KEYFRAME_INTERVAL), timely) {
                usable += 1;
                cs.usable += 1;
            }
        }
        debug_assert_eq!(delivered + abandoned + lost, cfg.frames);
        UepOutcome {
            plan: plan.name.clone(),
            policy: policy.name.to_string(),
            frames: cfg.frames,
            delivered,
            decodable,
            usable,
            usable_rate: usable as f64 / cfg.frames.max(1) as f64,
            late: decodable - usable,
            abandoned,
            lost,
            recovered_fec,
            recovered_retx,
            corrupt_detected: self.corrupt_detected,
            parity_frames: self.parity_frames,
            retries_scheduled: policy.scheduled_retries(cfg.frames, KEYFRAME_INTERVAL, kind),
            retries_sent: self.retries_sent,
            retries_abandoned: self.retries_abandoned,
            wire_bytes: self.wire_bytes,
            classes: per_class.into_iter().collect(),
        }
    }
}

/// Run one class-blind stream scenario: `cfg.frames` equal-sized
/// frames over a quiet link impaired by `plan`, protected by
/// `mechanisms` applied to every frame alike.
pub fn run_stream_scenario(
    plan: &FaultPlan,
    mechanisms: &Mechanisms,
    cfg: &StreamConfig,
) -> StreamOutcome {
    simulate(plan, &mechanisms.policy(), cfg, PayloadKind::Mesh)
        .stream_outcome(plan, mechanisms.label(), cfg)
}

/// Run one fault plan × one protection policy over the synthetic
/// stream, frames classed for payload `kind`.
pub fn run_uep_stream_scenario(
    plan: &FaultPlan,
    policy: &UepPolicy,
    cfg: &StreamConfig,
    kind: PayloadKind,
) -> UepOutcome {
    simulate(plan, policy, cfg, kind).uep_outcome(plan, policy, cfg, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_net::fault::LossModel;

    #[test]
    fn clean_link_needs_no_recovery_under_any_protection() {
        let cfg = StreamConfig::default();
        let plan = FaultPlan::clean(3);
        let out = run_stream_scenario(&plan, &Mechanisms::baseline(), &cfg);
        assert_eq!(out.delivered, out.frames);
        assert_eq!(out.usable, out.frames);
        assert_eq!(out.recovered_fec + out.recovered_retx, 0);
        assert_eq!(out.poisoned, 0);
        assert!((out.overhead - 1.0).abs() < 0.1, "headers only, got {}", out.overhead);
        for policy in [UepPolicy::uniform(), UepPolicy::weighted()] {
            let out = run_uep_stream_scenario(&plan, &policy, &cfg, PayloadKind::Mesh);
            assert_eq!(out.delivered, out.frames, "{}", out.policy);
            assert_eq!(out.usable, out.frames, "{}", out.policy);
            assert_eq!(out.abandoned + out.lost, 0);
            assert_eq!(out.retries_sent, 0);
            assert_eq!(out.retries_abandoned, 0);
            assert_eq!(out.parity_frames, 37, "both policies spend 37 parity frames");
        }
    }

    #[test]
    fn fec_rebuilds_frames_under_burst_loss() {
        let cfg = StreamConfig::default();
        let out = run_stream_scenario(&FaultPlan::burst5(11), &Mechanisms::fec(), &cfg);
        assert!(out.recovered_fec > 0, "FEC never engaged: {out:?}");
        assert!(out.mean_recovery_ms >= 0.0);
        // FEC(4,1) costs 25% parity plus per-packet headers.
        assert!(out.overhead > 1.2, "parity overhead missing, got {}", out.overhead);
    }

    #[test]
    fn retransmission_rides_out_a_flap_fec_does_not() {
        let cfg = StreamConfig::default();
        let plan = FaultPlan::flapping(5);
        let retx = run_stream_scenario(&plan, &Mechanisms::retransmit(), &cfg);
        let fec_only = run_stream_scenario(&plan, &Mechanisms::fec(), &cfg);
        // A 300 ms outage kills whole FEC groups (parity dies with the
        // data), but the backoff schedule reaches past it.
        assert!(
            retx.delivered > fec_only.delivered,
            "retx {} <= fec {}",
            retx.delivered,
            fec_only.delivered
        );
    }

    #[test]
    fn a_dead_link_spends_the_whole_retry_budget_and_no_more() {
        let cfg = StreamConfig::default();
        let plan = FaultPlan { loss: Some(LossModel::Bernoulli { rate: 1.0 }), ..FaultPlan::clean(2) };
        let out = run_uep_stream_scenario(&plan, &UepPolicy::uniform(), &cfg, PayloadKind::Mesh);
        assert_eq!(out.delivered, 0);
        assert_eq!(out.lost, out.frames);
        assert_eq!(out.retries_sent, out.retries_scheduled, "every slot tried, none added");
        assert!(out.wire_bytes > 0, "failed attempts still burned wire bytes");
        // Without a schedule there is exactly one attempt per frame.
        let once = run_stream_scenario(&plan, &Mechanisms::baseline(), &cfg);
        assert_eq!(once.delivered, 0);
        assert!(once.wire_bytes * 4 <= out.wire_bytes, "1 attempt vs 1 + 3 retries (+ parity)");
    }

    #[test]
    fn corruption_is_detected_dropped_and_recovered() {
        // The PR 5 acceptance criterion: with PayloadCorrupt faults in
        // the plan, corrupted frames are CRC-detected and dropped, and
        // the full mechanism set recovers to a usable rate no worse
        // than the unprotected baseline under the same loss plan.
        let cfg = StreamConfig::default();
        let corrupt =
            run_stream_scenario(&FaultPlan::burst5_corrupt(11), &Mechanisms::full(), &cfg);
        assert!(corrupt.corrupt_detected > 0, "corruption never injected: {corrupt:?}");
        let base =
            run_stream_scenario(&FaultPlan::burst5(11), &Mechanisms::baseline(), &cfg);
        assert!(
            corrupt.usable_rate >= base.usable_rate,
            "protected-under-corruption {} fell below unprotected baseline {}",
            corrupt.usable_rate,
            base.usable_rate
        );
        // Plans without PayloadCorrupt windows must draw nothing from
        // the corruption stream — existing scenarios replay unchanged.
        let clean =
            run_stream_scenario(&FaultPlan::clean(11), &Mechanisms::baseline(), &cfg);
        assert_eq!(clean.corrupt_detected, 0);
    }

    #[test]
    fn tagged_policy_pays_the_header_tax() {
        let cfg = StreamConfig::default();
        let plan = FaultPlan::clean(3);
        let uniform =
            run_uep_stream_scenario(&plan, &UepPolicy::uniform(), &cfg, PayloadKind::Mesh);
        let weighted =
            run_uep_stream_scenario(&plan, &UepPolicy::weighted(), &cfg, PayloadKind::Mesh);
        // Same frame+parity count, but every weighted envelope carries
        // the 19-byte UEP tag.
        let offers = (cfg.frames + 37) as u64;
        assert_eq!(weighted.wire_bytes - uniform.wire_bytes, offers * UEP_HEADER_BYTES as u64);
    }

    #[test]
    fn abandonment_engages_only_under_pressure_and_only_for_optional_classes() {
        let cfg = StreamConfig::default();
        let out = run_uep_stream_scenario(
            &FaultPlan::burst5_squeeze(42),
            &UepPolicy::weighted(),
            &cfg,
            PayloadKind::Mesh,
        );
        assert!(out.retries_abandoned > 0, "squeeze must trigger abandonment: {out:?}");
        // Only Medium/Low opt in; Critical/High never abandon.
        assert_eq!(out.classes[0].abandoned, 0, "critical is never abandoned");
        assert_eq!(out.classes[1].abandoned, 0, "high is never abandoned");
        assert_eq!(out.delivered + out.abandoned + out.lost, out.frames);
        // Uniform never abandons by construction.
        let u = run_uep_stream_scenario(
            &FaultPlan::burst5_squeeze(42),
            &UepPolicy::uniform(),
            &cfg,
            PayloadKind::Mesh,
        );
        assert_eq!(u.retries_abandoned, 0);
        assert_eq!(u.abandoned, 0);
    }

    /// What an invalid mechanism set panics with.
    fn rejection(fec: StripeSpec) -> String {
        let mech = Mechanisms { fec: Some(fec), ..Mechanisms::full() };
        let panic = std::panic::catch_unwind(|| {
            run_stream_scenario(&FaultPlan::clean(1), &mech, &StreamConfig::default())
        })
        .expect_err("an invalid stripe must not be simulated");
        panic.downcast_ref::<String>().expect("a formatted panic message").clone()
    }

    #[test]
    fn invalid_stripes_fail_with_the_typed_policy_error() {
        // k = 0 used to reach `(i + 1) % k` ("remainder with a divisor
        // of zero"); r > k used to be simulated silently.
        let zero_k = rejection(StripeSpec { k: 0, r: 1 });
        assert!(zero_k.contains("FEC stripe needs k >= 1 data frames per group"), "{zero_k}");
        let wide_r = rejection(StripeSpec { k: 4, r: 5 });
        assert!(wide_r.contains("FEC parity r=5 must be in 1..=k=4"), "{wide_r}");
    }
}
