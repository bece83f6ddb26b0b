//! Integration tests for the holo-conf SFU: determinism, consistency
//! with the point-to-point `Session` reference path, and agreement
//! between the simulated room capacity and `core::conference`'s
//! closed-form bound.

use holo_conf::{
    measure_max_room_size, CapacityConfig, DegradationLadder, ParticipantConfig, Room, RoomConfig,
};
use holo_math::Pcg32;
use holo_net::trace::BandwidthTrace;
use semholo::error::Result;
use semholo::foveated::{FoveatedConfig, FoveatedPipeline};
use semholo::image::{ImageConfig, ImagePipeline};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::session::{Session, SessionConfig};
use semholo::text::{TextConfig, TextPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{
    Content, EncodedFrame, QualityReport, Reconstructed, SceneFrame, SceneSource, SemHoloConfig,
    SemanticKind, SemanticPipeline, StageCost,
};
use std::time::Duration;

fn scene() -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    SceneSource::new(&config, 0.5)
}

fn kp(seed: u64) -> Box<dyn SemanticPipeline> {
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

/// The pipelines the committed reports' rooms schedule: keypoint
/// (resolution 32), image, text and compressed mesh.
fn recipe_pipeline(kind: &str) -> Box<dyn SemanticPipeline> {
    match kind {
        "keypoint" => kp(42),
        "image" => Box::new(ImagePipeline::new(ImageConfig::default(), 42)),
        "text" => Box::new(TextPipeline::new(TextConfig::default(), 42)),
        "mesh" => Box::new(TraditionalPipeline::new(MeshWire::Compressed, 14)),
        other => panic!("no recipe pipeline {other}"),
    }
}

/// A pipeline whose measured wall times are noise: every stage that
/// carries a clock reading (one with a modeled workload) reports a
/// random `cpu_wall` of up to 200 ms instead, as a loaded machine might.
struct Jittered {
    inner: Box<dyn SemanticPipeline>,
    rng: Pcg32,
}

impl Jittered {
    fn jitter(&mut self, cost: &mut StageCost) {
        if cost.gpu.is_some() {
            cost.cpu_wall = Duration::from_micros(u64::from(self.rng.next_u32() % 200_000));
        }
    }
}

impl SemanticPipeline for Jittered {
    fn kind(&self) -> SemanticKind {
        self.inner.kind()
    }

    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame> {
        let mut encoded = self.inner.encode(frame)?;
        self.jitter(&mut encoded.extract);
        Ok(encoded)
    }

    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed> {
        let mut reconstructed = self.inner.decode(payload)?;
        self.jitter(&mut reconstructed.recon);
        Ok(reconstructed)
    }

    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport {
        self.inner.quality(frame, content)
    }
}

/// A room never charges a clock reading: with every measured wall time
/// of a recipe pipeline replaced by noise, each recipe pipeline's room
/// reports the same bytes.
#[test]
fn room_reports_ignore_measured_wall_time() {
    let scene = scene();
    for kind in ["keypoint", "image", "text", "mesh"] {
        let run = |pipeline: Box<dyn SemanticPipeline>| {
            let cfg = RoomConfig {
                participants: ParticipantConfig::uniform_room(4, 25e6),
                frames: 3,
                seed: 5,
                share_encoder: true,
                ..Default::default()
            };
            Room::new(cfg).unwrap().run(&scene, &mut [pipeline]).unwrap().render()
        };
        let plain = run(recipe_pipeline(kind));
        let jittered = run(Box::new(Jittered { inner: recipe_pipeline(kind), rng: Pcg32::new(9) }));
        assert_eq!(plain, jittered, "{kind}: a measured wall time reached the room");
    }
}

/// The other half: a CPU-only stage (no modeled workload), whose
/// `cpu_wall` rooms and sessions do charge, reports a fixed modeled
/// cost — the same on every frame and every run — not a clock reading.
#[test]
fn cpu_only_stages_charge_a_fixed_cost() {
    let scene = scene();
    let pipelines = || -> Vec<Box<dyn SemanticPipeline>> {
        vec![
            recipe_pipeline("image"),
            recipe_pipeline("mesh"),
            Box::new(TraditionalPipeline::new(MeshWire::Raw, 14)),
            Box::new(FoveatedPipeline::new(FoveatedConfig::default(), 0.5, 42)),
        ]
    };
    let costs = |mut pipeline: Box<dyn SemanticPipeline>| -> Vec<Duration> {
        let mut out = Vec::new();
        for index in 0..3 {
            let encoded = pipeline.encode(&scene.frame(index)).unwrap();
            let mut stages = vec![encoded.extract];
            if pipeline.kind() != SemanticKind::Image {
                // The image tier's recon is modeled; skip its training.
                stages.push(pipeline.decode(&encoded.payload).unwrap().recon);
            }
            out.extend(stages.iter().filter(|s| s.gpu.is_none()).map(|s| s.cpu_wall));
        }
        out
    };
    for (a, b) in pipelines().into_iter().zip(pipelines()) {
        let kind = a.kind();
        let (first, second) = (costs(a), costs(b));
        assert!(!first.is_empty(), "{kind:?} has no CPU-only stage");
        assert_eq!(first, second, "{kind:?}: a CPU-only stage reported a clock reading");
        assert!(first.iter().all(|d| !d.is_zero()), "{kind:?}: a CPU-only stage is free");
    }
}
