//! **Conference SFU** — empirical max room size per pipeline on a
//! 100 Mbps access link, measured by `holo-conf`'s event-driven SFU
//! simulation and compared against `core::conference`'s closed-form
//! mean-bandwidth bound.
//!
//! The closed-form bound only counts mean bits; the simulation also
//! sees SFU egress queueing, keyframe/delta loss coupling, and the
//! latency criterion, so its answer is at most the closed-form one. A
//! room size fits when every subscriber gets at least 90 % of its frames
//! usable within its latency budget; the search probes up to 32
//! participants in quick mode (64 in full) and reports a capped answer
//! as the cap. The measured max sizes are recorded as facts, and so is
//! the closed-form bound of four pipelines on a 25 Mbps link, so
//! `BENCH_conference_sfu.json` carries them beside the timings and the
//! gate compares them exactly.

use holo_conf::{measure_max_room_size, CapacityConfig, ParticipantConfig, Room, RoomConfig};
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::conference::conference_capacity;
use semholo::image::{ImageConfig, ImagePipeline};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::text::{TextConfig, TextPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};
use std::hint::black_box;

fn make_pipeline(kind: &str) -> Box<dyn SemanticPipeline> {
    match kind {
        "keypoint" => Box::new(KeypointPipeline::new(
            KeypointConfig { resolution: 32, ..Default::default() },
            42,
        )),
        "image" => Box::new(ImagePipeline::new(ImageConfig::default(), 42)),
        "text" => Box::new(TextPipeline::new(TextConfig::default(), 42)),
        other => panic!("unknown pipeline kind {other}"),
    }
}

fn conference_sfu(c: &mut Criterion) {
    let quick = c.quick();
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    let scene = SceneSource::new(&config, 0.4);
    let base_cfg = CapacityConfig {
        frames: if quick { 4 } else { 8 },
        access_bps: 100e6,
        cap: if quick { 32 } else { 64 },
        ..Default::default()
    };

    let mut measurements = Vec::new();
    // Keypoint reconstruction is interactive; image (NeRF) and text
    // (generative) reconstruction carry a seconds-class constant cost,
    // so they get a non-interactive budget — otherwise the latency
    // criterion, not the network, decides capacity.
    for (kind, budget_ms) in [("keypoint", 400.0), ("image", 5000.0), ("text", 5000.0)] {
        let mut cap_cfg = base_cfg.clone();
        cap_cfg.criteria.max_mean_e2e_ms = budget_ms;
        let mut make = || make_pipeline(kind);
        let m = measure_max_room_size(&scene, &cap_cfg, &mut make).expect("capacity measurement");
        measurements.push((kind, m));
    }

    let mut group = c.benchmark_group("conference_sfu");
    group.sample_size(10);
    for (kind, m) in &measurements {
        group.fact(format!("max_room/{kind}"), m.max_size, "participants");
    }
    // The closed-form bound on a 25 Mbps link, on the conference
    // example's rig: each pipeline's mean stream over six frames after
    // one warm-up encode, against one upload plus N-1 downloads.
    let rig = SemHoloConfig { capture_resolution: (64, 48), camera_count: 3, ..Default::default() };
    let rig = SceneSource::new(&rig, 0.4);
    let keypoint = KeypointConfig { resolution: 64, ..Default::default() };
    let pipelines: [(&str, Box<dyn SemanticPipeline>); 4] = [
        ("raw_mesh", Box::new(TraditionalPipeline::new(MeshWire::Raw, 14))),
        ("compressed_mesh", Box::new(TraditionalPipeline::new(MeshWire::Compressed, 14))),
        ("keypoint", Box::new(KeypointPipeline::new(keypoint, 42))),
        ("text", make_pipeline("text")),
    ];
    for (name, mut p) in pipelines {
        p.encode(&rig.frame(0)).expect("warm-up encode");
        let bound = conference_capacity(p.as_mut(), &rig, 6, 4, 25e6).expect("closed form");
        let (mbps, max) = (bound.stream_bps / 1e6, bound.max_participants);
        group.fact(format!("closed_form/stream_mbps/{name}"), mbps, "Mbps");
        group.fact(format!("closed_form/max_participants/{name}"), max, "participants");
    }
    // Honest timing: one 4-party keypoint room, end to end.
    group.bench_function("room4_keypoint", |b| {
        b.iter(|| {
            let room_cfg = RoomConfig {
                participants: ParticipantConfig::uniform_room(4, 100e6),
                frames: 4,
                share_encoder: true,
                ..Default::default()
            };
            let mut room = Room::new(room_cfg).unwrap();
            let mut pipelines = vec![make_pipeline("keypoint")];
            black_box(room.run(&scene, &mut pipelines).unwrap())
        })
    });
    group.finish();
}

bench_group!(benches, conference_sfu);
bench_main!(benches);
