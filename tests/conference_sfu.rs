//! Integration tests for the holo-conf SFU: determinism, consistency
//! with the point-to-point `Session` reference path, and agreement
//! between the simulated room capacity and `core::conference`'s
//! closed-form bound.

use holo_conf::{
    measure_max_room_size, CapacityConfig, DegradationLadder, ParticipantConfig, Room, RoomConfig,
};
use holo_net::trace::BandwidthTrace;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::session::{Session, SessionConfig};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

fn scene() -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    SceneSource::new(&config, 0.5)
}

fn kp(seed: u64) -> Box<dyn SemanticPipeline> {
    // Keypoint stage costs are GPU-modeled (deterministic), which the
    // byte-identity assertions below rely on.
    Box::new(KeypointPipeline::new(
        KeypointConfig { resolution: 32, ..Default::default() },
        seed,
    ))
}

/// A heterogeneous, lossy, ladder-enabled room reproduces its report byte
/// for byte from the same seed — across independently constructed
/// rooms and pipelines.
#[test]
fn same_seed_is_byte_identical_even_under_stress() {
    let scene = scene();
    let run = || {
        let mut participants = ParticipantConfig::uniform_room(4, 25e6);
        // One congested subscriber and one lossy uplink stress every
        // RNG path: queue drops, ladder decisions, retransmissions.
        participants[2].downlink_trace = BandwidthTrace::Constant { bps: 100e3 };
        participants[3].uplink.loss_rate = 0.3;
        let cfg = RoomConfig {
            participants,
            frames: 8,
            queue_capacity: 2,
            degrade: Some(DegradationLadder::standard()),
            seed: 77,
            share_encoder: true,
            ..Default::default()
        };
        let mut room = Room::new(cfg).unwrap();
        room.run(&scene, &mut [kp(7)]).unwrap()
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1.render(), r2.render(), "same seed must reproduce bytes");
    // The stress actually exercised the lossy paths.
    assert!(
        r1.queue_dropped > 0 || r1.downlink_lost > 0 || r1.uplink_lost > 0,
        "stress room was unexpectedly clean"
    );
}

/// A 2-participant room where everything except participant 0's uplink
/// is ideal must report the same per-frame latencies as the
/// point-to-point `Session` over that uplink (same link config, trace,
/// and seed).
#[test]
fn two_party_room_matches_session_reference() {
    let scene = scene();
    let frames = 8;
    let link_seed = 11;
    let trace = BandwidthTrace::Constant { bps: 25e6 };

    // Reference: the point-to-point session.
    let mut session = Session::new(SessionConfig {
        trace: trace.clone(),
        seed: link_seed,
        ..Default::default()
    });
    let session_report = session.run(kp(3).as_mut(), &scene, frames).unwrap();

    // Room: participant 0 sends over the *same* link; everything else
    // (its downlink, participant 1 entirely) is ideal, so subscriber
    // 1's latency is the uplink path plus reconstruction and render —
    // exactly the session's formula.
    let mut p0 = ParticipantConfig::ideal();
    p0.uplink = holo_net::link::LinkConfig::default();
    p0.uplink_trace = trace;
    p0.uplink_seed = Some(link_seed);
    let p1 = ParticipantConfig::ideal();
    let cfg = RoomConfig {
        participants: vec![p0, p1],
        frames,
        keyframe_interval: 1, // every frame self-contained, as in Session
        ..Default::default()
    };
    let mut room = Room::new(cfg).unwrap();
    let room_report = room.run(&scene, &mut [kp(3), kp(9)]).unwrap();
    let sub = &room_report.subscribers[1];

    assert_eq!(
        sub.usable as usize, session_report.delivered,
        "both paths must deliver the same frames from the same link seed"
    );
    let s = &session_report.e2e_ms;
    let r = &sub.e2e_ms;
    assert_eq!(s.count(), r.count());
    // The room quantizes send times to SimTime microseconds and adds a
    // terabit hop through the SFU: sub-millisecond slack.
    assert!((s.mean() - r.mean()).abs() < 1.0, "mean {} vs {}", s.mean(), r.mean());
    assert!((s.min() - r.min()).abs() < 1.0, "min {} vs {}", s.min(), r.min());
    assert!((s.max() - r.max()).abs() < 1.0, "max {} vs {}", s.max(), r.max());
    for p in [50.0, 95.0] {
        let sp = s.percentile(p).unwrap();
        let rp = r.percentile(p).unwrap();
        assert!((sp - rp).abs() < 1.0, "p{p} {sp} vs {rp}");
    }
}

/// The simulated capacity never exceeds the closed-form mean-bandwidth
/// bound: the simulation sees queueing, loss coupling, and latency on
/// top of the bits the bound counts.
#[test]
fn simulated_capacity_stays_under_closed_form_bound() {
    let scene = scene();
    let cap_cfg = CapacityConfig {
        frames: 4,
        access_bps: 100e6,
        cap: 32,
        ..Default::default()
    };
    let mut make = || kp(42);
    let m = measure_max_room_size(&scene, &cap_cfg, &mut make).unwrap();
    assert!(m.stream_bps > 0.0);
    assert!(m.max_size >= 2, "a 100 Mbps link must host at least a 1:1 call");
    if !m.capped {
        assert!(
            m.max_size <= m.closed_form,
            "simulated {} must not beat the closed-form bound {}",
            m.max_size,
            m.closed_form
        );
    }
    // The probe log must be consistent with the reported capacity.
    for p in &m.probes {
        if p.size <= m.max_size {
            assert!(p.fits, "probe {} under max {} must fit", p.size, m.max_size);
        }
    }
    assert!(m.probes.iter().any(|p| !p.fits || m.capped), "search never found the edge");
}
