//! The chaos harness: sweep fault plans × resilience mechanisms and
//! measure what survives.
//!
//! Three scenario families, mirroring the three places the resilience
//! layer hooks in:
//!
//! * **streams** — a size-only 30 fps frame stream over one faulted
//!   link, protected by nothing, FEC, retransmission, or both (the
//!   simulator itself is [`crate::stream`]). This isolates the
//!   recovery mechanisms from codec behaviour.
//! * **sessions** — the full `semholo` capture→encode→transport
//!   pipeline under a fault plan, comparing transport loss policies.
//! * **rooms** — a `holo-conf` room where the semantic degradation
//!   ladder (and churn accounting) is the resilience mechanism.
//!
//! Everything runs in seeded virtual time; [`run_scenarios`] produces a
//! [`ResilienceReport`] that renders byte-identically per seed.

use crate::plan::FaultPlan;
use crate::report::{
    GaussianRoomOutcome, ResilienceReport, RoomOutcome, SessionOutcome, StreamOutcome,
};
use crate::stream::{run_stream_scenario, Mechanisms, StreamConfig};
use holo_conf::degrade::DegradationLadder;
use holo_conf::participant::ParticipantConfig;
use holo_conf::room::{Room, RoomConfig};
use holo_net::trace::BandwidthTrace;
use holo_net::transport::LossPolicy;
use semholo::config::SemHoloConfig;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::scene::SceneSource;
use semholo::session::{Session, SessionConfig};

fn tiny_scene() -> SceneSource {
    let config =
        SemHoloConfig { capture_resolution: (48, 36), camera_count: 2, ..Default::default() };
    SceneSource::new(&config, 0.5)
}

fn policy_label(policy: LossPolicy) -> &'static str {
    match policy {
        LossPolicy::DropFrame => "drop",
        LossPolicy::RetransmitOnce => "retransmit_once",
    }
}

/// Run one `Session` scenario: the keypoint pipeline end to end over a
/// link impaired by `plan`, under the given transport loss policy.
pub fn run_session_scenario(plan: &FaultPlan, policy: LossPolicy) -> SessionOutcome {
    let scene = tiny_scene();
    let mut pipeline = KeypointPipeline::new(KeypointConfig { resolution: 24, ..Default::default() }, 7);
    let fault = if plan.loss.is_some() || !plan.segments.is_empty() {
        Some(plan.compile(0))
    } else {
        None
    };
    let mut session = Session::new(SessionConfig {
        trace: BandwidthTrace::Constant { bps: 25e6 },
        seed: plan.seed,
        loss_policy: policy,
        fault,
        ..Default::default()
    });
    let frames = 10;
    let report = session
        .run(&mut pipeline, &scene, frames)
        .expect("chaos session scenario must run");
    SessionOutcome {
        plan: plan.name.clone(),
        policy: policy_label(policy).into(),
        frames,
        delivered: report.delivered,
        recovered: report.recovered,
    }
}

/// Run one room scenario: `participants` parties, the degradation
/// ladder enabled, `plan`'s link impairments installed on the
/// `starved` participant's downlink and `plan`'s churn windows applied
/// to participant presence.
pub fn run_room_scenario(
    plan: &FaultPlan,
    participants: usize,
    frames: usize,
    starved: usize,
) -> RoomOutcome {
    let mut parts = ParticipantConfig::uniform_room(participants, 25e6);
    if plan.loss.is_some() || !plan.segments.is_empty() {
        // Rooms lane convention: downlink of participant i is lane 2i+1.
        parts[starved].downlink_fault = Some(plan.compile(starved as u64 * 2 + 1));
    }
    for c in &plan.churn {
        parts[c.participant].active = Some((c.join_s, c.leave_s));
    }
    let cfg = RoomConfig {
        participants: parts,
        frames,
        degrade: Some(DegradationLadder::standard()),
        share_encoder: true,
        seed: plan.seed,
        ..Default::default()
    };
    let mut room = Room::new(cfg).expect("chaos room scenario must be valid");
    let mut pipelines: Vec<Box<dyn semholo::semantics::SemanticPipeline>> = vec![Box::new(
        KeypointPipeline::new(KeypointConfig { resolution: 24, ..Default::default() }, 7),
    )];
    let report = room.run(&tiny_scene(), &mut pipelines).expect("chaos room scenario must run");
    let min_usable_rate = report
        .subscribers
        .iter()
        .map(|s| s.usable_rate)
        .fold(f64::INFINITY, f64::min);
    let s = &report.subscribers[starved];
    RoomOutcome {
        plan: plan.name.clone(),
        participants,
        min_usable_rate,
        starved_usable_rate: s.usable_rate,
        degraded: s.degraded,
        ladder_downgrades: s.ladder_downgrades,
        ladder_upgrades: s.ladder_upgrades,
        kept_flowing: s.usable > 0 && s.usable_rate > 0.5,
    }
}

/// The plan the room sweep uses for the ladder: the starved downlink
/// collapses to 0.2% capacity for the whole run.
pub fn room_collapse_plan(seed: u64) -> FaultPlan {
    FaultPlan::clean(seed).named("room_collapse").bandwidth(0.0, 1e6, 0.002)
}

/// The plan the gaussian sweep uses: the starved downlink squeezes to
/// 3% capacity (~750 kbps on the uniform 25 Mbps room — 375 kbps per
/// stream), which sits between the gaussian floor (160 kbps) and the
/// mesh floor (4 Mbps): the amortized rung is the richest feasible
/// tier, *if* the subscriber holds the prebuild.
pub fn gaussian_squeeze_plan(seed: u64) -> FaultPlan {
    FaultPlan::clean(seed).named("gaussian_squeeze").bandwidth(0.0, 1e6, 0.03)
}

/// Run one amortized-ladder room scenario: like [`run_room_scenario`]
/// but with the 4-tier gaussian ladder, and the starved subscriber's
/// prebuild blob either announced (`prebuilt`) or absent. The outcome
/// records which rung actually carried the starved port's traffic.
pub fn run_gaussian_room_scenario(
    plan: &FaultPlan,
    participants: usize,
    frames: usize,
    starved: usize,
    prebuilt: bool,
) -> GaussianRoomOutcome {
    let mut parts = ParticipantConfig::uniform_room(participants, 25e6);
    if plan.loss.is_some() || !plan.segments.is_empty() {
        parts[starved].downlink_fault = Some(plan.compile(starved as u64 * 2 + 1));
    }
    for c in &plan.churn {
        parts[c.participant].active = Some((c.join_s, c.leave_s));
    }
    let mut ready = vec![false; participants];
    ready[starved] = prebuilt;
    let cfg = RoomConfig {
        participants: parts,
        frames,
        degrade: Some(DegradationLadder::amortized()),
        prebuild_ready: Some(ready),
        share_encoder: true,
        seed: plan.seed,
        ..Default::default()
    };
    let mut room = Room::new(cfg).expect("gaussian room scenario must be valid");
    let mut pipelines: Vec<Box<dyn semholo::semantics::SemanticPipeline>> = vec![Box::new(
        KeypointPipeline::new(KeypointConfig { resolution: 24, ..Default::default() }, 7),
    )];
    let report =
        room.run(&tiny_scene(), &mut pipelines).expect("gaussian room scenario must run");
    let s = &report.subscribers[starved];
    let count = |name: &str| {
        s.tier_counts.iter().find(|(n, _)| n == name).map(|(_, c)| *c).unwrap_or(0)
    };
    let total: u64 = s.tier_counts.iter().map(|(_, c)| c).sum();
    GaussianRoomOutcome {
        plan: plan.name.clone(),
        participants,
        prebuilt,
        starved_usable_rate: s.usable_rate,
        gaussian_delivered: count("gaussian"),
        keypoints_delivered: count("keypoints"),
        gaussian_fraction: if total > 0 {
            count("gaussian") as f64 / total as f64
        } else {
            0.0
        },
        ladder_downgrades: s.ladder_downgrades,
        ladder_upgrades: s.ladder_upgrades,
        kept_flowing: s.usable > 0 && s.usable_rate > 0.5,
    }
}

/// The two-cell gaussian sweep ([`gaussian_squeeze_plan`] with and
/// without the prebuild), ready to append to a [`ResilienceReport`]'s
/// `gaussian` section.
pub fn run_gaussian_scenarios(seed: u64) -> Vec<GaussianRoomOutcome> {
    let plan = gaussian_squeeze_plan(seed);
    holo_trace::parallel::par_map(vec![true, false], |prebuilt| {
        run_gaussian_room_scenario(&plan, 3, 12, 2, prebuilt)
    })
}

/// One cell of the scenario matrix: plain data, so the whole matrix
/// can ship to the fork-join pool and run in any worker layout.
enum ScenarioItem {
    Stream { plan: FaultPlan, mech: Mechanisms, cfg: StreamConfig },
    Session { plan: FaultPlan, policy: LossPolicy },
    Room { plan: FaultPlan, participants: usize, frames: usize, starved: usize },
}

/// The matching outcome, demuxed back into the report by family.
enum ScenarioOut {
    Stream(StreamOutcome),
    Session(SessionOutcome),
    Room(RoomOutcome),
}

/// Run the full scenario matrix and assemble the canonical report:
/// stream plans × mechanism sets, session plans × loss policies, and
/// the two room scenarios (ladder collapse, churn).
///
/// The cells are independent seeded simulations, so the whole matrix
/// fans out over the deterministic fork-join pool
/// ([`holo_trace::parallel::par_map`]): fixed partitioning by cell
/// index, outcomes merged back in matrix order, worker-side spans and
/// counters (`chaos.*`) folded into the caller's recorder at scope
/// exit. The report — and any trace taken around it — is byte-identical
/// across `SEMHOLO_THREADS=1..N`.
pub fn run_scenarios(seed: u64) -> ResilienceReport {
    let cfg = StreamConfig::default();
    let stream_plans = [
        FaultPlan::clean(seed),
        FaultPlan::burst5(seed),
        FaultPlan::flapping(seed),
        FaultPlan::bandwidth_collapse(seed),
        FaultPlan::delay_spike(seed),
        FaultPlan::burst5_corrupt(seed),
    ];
    let mechanism_sets =
        [Mechanisms::baseline(), Mechanisms::fec(), Mechanisms::retransmit(), Mechanisms::full()];
    let mut items: Vec<ScenarioItem> = Vec::with_capacity(30);
    for plan in &stream_plans {
        for mech in &mechanism_sets {
            items.push(ScenarioItem::Stream { plan: plan.clone(), mech: *mech, cfg });
        }
    }
    for plan in [FaultPlan::clean(seed), FaultPlan::burst5(seed)] {
        for policy in [LossPolicy::DropFrame, LossPolicy::RetransmitOnce] {
            items.push(ScenarioItem::Session { plan: plan.clone(), policy });
        }
    }
    items.push(ScenarioItem::Room {
        plan: room_collapse_plan(seed),
        participants: 3,
        frames: 12,
        starved: 2,
    });
    items.push(ScenarioItem::Room {
        plan: FaultPlan::churny(seed, 3),
        participants: 3,
        frames: 10,
        starved: 2,
    });

    let outcomes = holo_trace::parallel::par_map(items, |item| match item {
        ScenarioItem::Stream { plan, mech, cfg } => {
            ScenarioOut::Stream(run_stream_scenario(&plan, &mech, &cfg))
        }
        ScenarioItem::Session { plan, policy } => {
            ScenarioOut::Session(run_session_scenario(&plan, policy))
        }
        ScenarioItem::Room { plan, participants, frames, starved } => {
            ScenarioOut::Room(run_room_scenario(&plan, participants, frames, starved))
        }
    });

    let mut report = ResilienceReport { seed, ..Default::default() };
    for out in outcomes {
        match out {
            ScenarioOut::Stream(s) => report.streams.push(s),
            ScenarioOut::Session(s) => report.sessions.push(s),
            ScenarioOut::Room(r) => report.rooms.push(r),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_sweep_shows_retransmit_recovering() {
        let drop = run_session_scenario(&FaultPlan::burst5(11), LossPolicy::DropFrame);
        let retx = run_session_scenario(&FaultPlan::burst5(11), LossPolicy::RetransmitOnce);
        assert_eq!(drop.recovered, 0, "DropFrame cannot recover");
        assert!(retx.delivered >= drop.delivered);
    }

    #[test]
    fn room_collapse_engages_the_ladder_and_keeps_flowing() {
        let out = run_room_scenario(&room_collapse_plan(7), 3, 12, 2);
        assert!(out.ladder_downgrades >= 1, "ladder never engaged: {out:?}");
        assert!(out.degraded > 0);
        assert!(out.kept_flowing, "text tier must keep frames flowing: {out:?}");
    }

    #[test]
    fn churny_room_keeps_everyone_usable() {
        let out = run_room_scenario(&FaultPlan::churny(7, 3), 3, 10, 2);
        assert!(out.kept_flowing);
        assert!(out.min_usable_rate > 0.9, "clean churny room should stay usable: {out:?}");
    }

    #[test]
    fn gaussian_squeeze_rides_the_rung_only_when_prebuilt() {
        let plan = gaussian_squeeze_plan(7);
        let warm = run_gaussian_room_scenario(&plan, 3, 12, 2, true);
        assert!(warm.ladder_downgrades >= 1, "ladder never engaged: {warm:?}");
        assert!(warm.gaussian_delivered > 0, "rung never carried traffic: {warm:?}");
        assert!(
            warm.gaussian_fraction > 0.5,
            "prebuilt port should mostly ride gaussian: {warm:?}"
        );
        assert!(warm.kept_flowing);

        let cold = run_gaussian_room_scenario(&plan, 3, 12, 2, false);
        assert_eq!(cold.gaussian_delivered, 0, "gated rung opened without the blob");
        assert!(cold.keypoints_delivered > 0, "cold port must fall through: {cold:?}");
        assert!(cold.kept_flowing, "keypoints keep the cold port flowing");
    }

    #[test]
    fn gaussian_sweep_is_deterministic() {
        use holo_runtime::ser::ToJson;
        let a = run_gaussian_scenarios(7);
        let b = run_gaussian_scenarios(7);
        assert_eq!(a.len(), 2);
        assert_eq!(a.to_json().render(), b.to_json().render());
        // Appending the sweep leaves the base matrix bytes untouched.
        let mut report = run_scenarios(7);
        let base = report.render();
        report.gaussian = a;
        assert!(report.render().starts_with(&base[..base.len() - 1]));
    }

    #[test]
    fn the_matrix_is_deterministic() {
        let a = run_scenarios(7);
        let b = run_scenarios(7);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.streams.len(), 24);
        assert_eq!(a.sessions.len(), 4);
        assert_eq!(a.rooms.len(), 2);
        let c = run_scenarios(8);
        assert_ne!(a.render(), c.render(), "seed must be observable");
    }

    #[test]
    fn the_matrix_is_thread_count_independent() {
        // The override is this test thread's own, so no neighbouring
        // test can change the count between the two runs.
        use holo_runtime::par;
        par::set_thread_override(Some(1));
        let one = run_scenarios(7).render();
        par::set_thread_override(Some(8));
        let eight = run_scenarios(7).render();
        assert_eq!(one, eight, "report bytes diverged across thread counts");
    }
}
