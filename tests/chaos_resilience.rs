//! Acceptance tests for the chaos/resilience subsystem: protected
//! streams beat the unprotected baseline under burst loss, the
//! semantic degradation ladder never stalls a subscriber, and the
//! whole scenario matrix replays byte-identically from its seed.

use holo_chaos::{
    gaussian_squeeze_plan, room_collapse_plan, run_gaussian_room_scenario,
    run_gaussian_scenarios, run_room_scenario, run_scenarios, run_session_scenario,
    run_stream_scenario, run_uep_stream_scenario, uep_sweep_plans, FaultPlan, Mechanisms,
    StreamConfig,
};
use holo_conf::degrade::{DegradationLadder, DegradeState};
use holo_net::time::SimTime;
use holo_net::transport::LossPolicy;
use holo_net::wire::PayloadKind;
use holo_runtime::ser::ToJson;
use holo_uep::UepPolicy;

/// The seven stream plans both laws below range over: the UEP sweep's
/// six plus the clean link.
fn stream_plans(seed: u64) -> Vec<FaultPlan> {
    let mut plans = vec![FaultPlan::clean(seed)];
    plans.extend(uep_sweep_plans(seed));
    plans
}

/// The twin law: the class-blind stream report and the UEP report are
/// two projections of one simulated run, so `Mechanisms::full()` and
/// `UepPolicy::uniform()` — the same (4,1) stripe and 50 ms / 2x / 3
/// schedule under two names — must agree on every ledger they share.
#[test]
fn stream_and_uep_reports_are_projections_of_one_run() {
    let cfg = StreamConfig::default();
    for seed in [7, 42] {
        for plan in stream_plans(seed) {
            let s = run_stream_scenario(&plan, &Mechanisms::full(), &cfg);
            let u = run_uep_stream_scenario(&plan, &UepPolicy::uniform(), &cfg, PayloadKind::Mesh);
            let cell = format!("{} seed {seed}", plan.name);
            assert_eq!(s.delivered, u.delivered, "delivered, {cell}");
            assert_eq!(s.usable, u.decodable, "usable vs decodable, {cell}");
            assert_eq!(s.poisoned, u.delivered - u.decodable, "poisoned, {cell}");
            assert_eq!(s.recovered_fec, u.recovered_fec, "recovered_fec, {cell}");
            assert_eq!(s.recovered_retx, u.recovered_retx, "recovered_retx, {cell}");
            assert_eq!(s.corrupt_detected, u.corrupt_detected, "corrupt_detected, {cell}");
            assert_eq!(s.wire_bytes, u.wire_bytes, "wire_bytes, {cell}");
        }
    }
}

/// Every rendered byte of the class-blind projection, pinned: 7 plans
/// x 4 mechanism sets at seed 7, 150 frames. The digest was taken from
/// the stand-alone stream loop before it was folded into the UEP loop,
/// so it holds the merged loop to the old one's bytes — `overhead` and
/// `mean_recovery_ms` (an f64 sum in slot order) included.
#[test]
fn stream_outcome_bytes_are_pinned() {
    let cfg = StreamConfig::default();
    let mechanisms =
        [Mechanisms::baseline(), Mechanisms::fec(), Mechanisms::retransmit(), Mechanisms::full()];
    let mut cells = Vec::with_capacity(28);
    for plan in stream_plans(7) {
        for mech in &mechanisms {
            cells.push(run_stream_scenario(&plan, mech, &cfg));
        }
    }
    assert_eq!(cells.len(), 28);
    let digest = holo_runtime::fnv1a64(cells.to_json().render().as_bytes());
    assert_eq!(digest, 0xcd2a_4f79_e846_abfd, "StreamOutcome bytes moved: {digest:#018x}");
}

/// The headline criterion: with FEC(4,1) + retransmission, a stream
/// under ~5% Gilbert–Elliott burst loss retains at least 2x the usable
/// frame rate of the unprotected baseline — and stays usable in
/// absolute terms, not just relative ones.
#[test]
fn fec_plus_retransmit_doubles_usable_rate_under_burst_loss() {
    let cfg = StreamConfig::default();
    let plan = FaultPlan::burst5(11);
    let base = run_stream_scenario(&plan, &Mechanisms::baseline(), &cfg);
    let full = run_stream_scenario(&plan, &Mechanisms::full(), &cfg);
    assert!(
        full.usable as f64 >= 2.0 * base.usable as f64,
        "protected usable {} vs baseline {}",
        full.usable,
        base.usable
    );
    assert!(full.usable_rate > 0.5, "protected stream unusable: {}", full.usable_rate);
    // Both mechanisms contributed, and the report knows which frames
    // they saved.
    assert!(full.recovered_retx > 0, "retransmission never engaged");
    assert!(full.delivered > base.delivered);
    // Protection is not free: parity + retries cost wire bytes.
    assert!(full.overhead > base.overhead);
}

/// Each mechanism covers the failure mode the other cannot: FEC
/// rebuilds isolated losses with zero extra round trips, while the
/// retransmit backoff schedule is the only thing that reaches past a
/// 300 ms outage (which kills parity along with the data).
#[test]
fn mechanisms_cover_complementary_failure_modes() {
    let cfg = StreamConfig::default();
    let fec_under_burst = run_stream_scenario(&FaultPlan::burst5(11), &Mechanisms::fec(), &cfg);
    assert!(fec_under_burst.recovered_fec > 0, "FEC never rebuilt a frame");
    assert_eq!(fec_under_burst.recovered_retx, 0);

    let flap = FaultPlan::flapping(5);
    let fec_under_flap = run_stream_scenario(&flap, &Mechanisms::fec(), &cfg);
    let retx_under_flap = run_stream_scenario(&flap, &Mechanisms::retransmit(), &cfg);
    assert!(
        retx_under_flap.delivered > fec_under_flap.delivered,
        "retransmit {} should outlast the flap, FEC {} cannot",
        retx_under_flap.delivered,
        fec_under_flap.delivered
    );
    assert_eq!(retx_under_flap.delivered, cfg.frames, "backoff rides out both flaps");
}

/// The ladder criterion: when a subscriber's downlink collapses to
/// ~0.2% capacity, the SFU walks the mesh → keypoints → text ladder
/// instead of stalling — degraded frames keep flowing and stay usable.
#[test]
fn ladder_never_stalls_a_starved_subscriber() {
    let out = run_room_scenario(&room_collapse_plan(7), 3, 12, 2);
    assert!(out.ladder_downgrades >= 1, "ladder never engaged: {out:?}");
    assert!(out.degraded > 0, "no degraded frames flowed: {out:?}");
    assert!(out.kept_flowing, "starved subscriber stalled: {out:?}");
    assert!(out.starved_usable_rate > 0.5, "starved port mostly unusable: {out:?}");
}

/// Churn is an accounting matter, not a failure: a participant who
/// joins late and leaves early shrinks expectations, and everyone who
/// is present stays near-perfectly usable. The late joiner lands
/// mid-GOP with a poisoned delta chain — the ladder's poison rule
/// drops it one tier to self-contained snapshots, so it is usable from
/// its very first frame instead of stalling until the next keyframe.
#[test]
fn churn_shrinks_expectations_without_hurting_anyone() {
    let out = run_room_scenario(&FaultPlan::churny(7, 3), 3, 10, 2);
    assert!(out.kept_flowing);
    assert!(out.min_usable_rate > 0.9, "clean churny room degraded: {out:?}");
    assert!(
        out.ladder_downgrades >= 1 && out.degraded > 0,
        "the mid-GOP joiner should be re-keyed via the ladder: {out:?}"
    );
}

/// The end-to-end session recovers whole frames via fragment
/// retransmission under burst loss — and the drop policy, by
/// definition, never does.
#[test]
fn session_recovery_follows_the_loss_policy() {
    let plan = FaultPlan::burst5(11);
    let drop = run_session_scenario(&plan, LossPolicy::DropFrame);
    let retx = run_session_scenario(&plan, LossPolicy::RetransmitOnce);
    assert_eq!(drop.recovered, 0);
    assert!(retx.delivered >= drop.delivered);
    assert_eq!(retx.frames, drop.frames);
}

/// Corruption is a detected failure, not a silent one: under burst
/// loss plus ~3% payload corruption, every corrupted frame is caught
/// by the envelope CRC and dropped, and the full mechanism set still
/// recovers to a usable rate no worse than the *unprotected* stream
/// under the same loss plan without corruption.
#[test]
fn corrupted_frames_are_detected_dropped_and_recovered() {
    let cfg = StreamConfig::default();
    let corrupt = run_stream_scenario(&FaultPlan::burst5_corrupt(11), &Mechanisms::full(), &cfg);
    assert!(corrupt.corrupt_detected > 0, "no corruption injected: {corrupt:?}");
    let base = run_stream_scenario(&FaultPlan::burst5(11), &Mechanisms::baseline(), &cfg);
    assert!(
        corrupt.usable_rate >= base.usable_rate,
        "corruption broke recovery: {} < {}",
        corrupt.usable_rate,
        base.usable_rate
    );
    // Without a PayloadCorrupt window, the corruption stream is never
    // consulted — pre-corruption scenarios replay byte-identically.
    let plain = run_stream_scenario(&FaultPlan::burst5(11), &Mechanisms::full(), &cfg);
    assert_eq!(plain.corrupt_detected, 0);
}

/// The fourth rung is opt-in by construction: under the same squeeze
/// plan, the starved subscriber rides gaussian updates only when it
/// holds the sender's prebuilt avatar blob — without it the ladder
/// skips straight to keypoints, and nobody stalls either way.
#[test]
fn starvation_skips_the_gaussian_tier_without_the_prebuild() {
    let plan = gaussian_squeeze_plan(7);
    let warm = run_gaussian_room_scenario(&plan, 3, 12, 2, true);
    let cold = run_gaussian_room_scenario(&plan, 3, 12, 2, false);
    assert!(warm.gaussian_delivered > 0, "prebuilt subscriber never rode gaussian: {warm:?}");
    assert!(warm.gaussian_fraction > 0.5, "gaussian should dominate the squeeze: {warm:?}");
    assert_eq!(cold.gaussian_delivered, 0, "gated tier leaked without the blob: {cold:?}");
    assert!(cold.keypoints_delivered > 0, "cold subscriber should land on keypoints: {cold:?}");
    assert!(warm.kept_flowing && cold.kept_flowing, "a squeeze must not stall anyone");
}

/// Climbing *into* the gaussian tier is keyframe-gated: a late-arriving
/// prebuild blob opens the rung, but the upgrade waits for the
/// stability window and then for a keyframe, where the tiny update
/// stream's delta chain can sync.
#[test]
fn upgrade_into_the_gaussian_tier_waits_for_a_keyframe() {
    let mut s = DegradeState::new(DegradationLadder::amortized());
    let ms = SimTime::from_millis;
    s.decide(ms(0), 130e3, false, true); // below the gaussian floor -> keypoints
    assert_eq!(s.level(), 2);
    s.set_prebuild_ready(true);
    assert_eq!(s.decide(ms(100), 300e3, false, false), 2, "window just started");
    assert_eq!(s.decide(ms(700), 300e3, false, false), 2, "deltas cannot enter the chain");
    assert_eq!(s.decide(ms(733), 300e3, false, true), 1, "keyframe admits the climb");
    assert!(!s.self_contained(), "gaussian updates ride a delta chain");
}

/// The gaussian sweep is as replayable as the rest of the matrix — and
/// additive: the base scenario report is byte-for-byte unchanged by the
/// four-tier ladder existing.
#[test]
fn the_gaussian_sweep_is_byte_identical_and_additive() {
    let a = run_gaussian_scenarios(42);
    let b = run_gaussian_scenarios(42);
    assert_eq!(a.len(), 2, "prebuilt + cold cells");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_json().render(), y.to_json().render());
    }
    let mut base = run_scenarios(42);
    let base_bytes = base.render();
    base.gaussian = run_gaussian_scenarios(42);
    let extended = base.render();
    assert_ne!(base_bytes, extended);
    assert!(
        extended.starts_with(&base_bytes[..base_bytes.len() - 1]),
        "gaussian section must extend the report, not rewrite it"
    );
}

/// Same seed, same bytes — across the *entire* matrix: every stream
/// plan × mechanism cell, every session, every room. This is what
/// makes chaos results regression-diffable.
#[test]
fn the_scenario_matrix_is_byte_identical_per_seed() {
    let a = run_scenarios(42);
    let b = run_scenarios(42);
    assert_eq!(a.render(), b.render(), "same seed must reproduce the report bytes");
    let c = run_scenarios(43);
    assert_ne!(a.render(), c.render(), "the seed must be observable in the report");
    // The matrix has the advertised shape.
    assert_eq!(a.streams.len(), 24, "6 plans x 4 mechanism sets");
    assert_eq!(a.sessions.len(), 4, "2 plans x 2 loss policies");
    assert_eq!(a.rooms.len(), 2, "collapse + churn");
    // And the clean/baseline corner is lossless, anchoring the scale.
    let clean = a.stream("clean", "baseline").expect("clean baseline cell");
    assert_eq!(clean.usable, clean.frames);
}
