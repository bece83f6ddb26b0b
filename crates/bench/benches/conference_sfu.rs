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
//! as the cap. The measured max sizes are recorded as facts, so
//! `BENCH_conference_sfu.json` carries them beside the timings and the
//! gate compares them exactly.

use holo_conf::{measure_max_room_size, CapacityConfig, ParticipantConfig, Room, RoomConfig};
use holo_runtime::bench::{self, Criterion};
use holo_runtime::{bench_group, bench_main};
use semholo::image::{ImageConfig, ImagePipeline};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::text::{TextConfig, TextPipeline};
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

    // Observability: one traced 4-party room. The chrome://tracing JSON
    // (virtual-time spans, byte-identical per seed and mode) lands next
    // to the BENCH JSONs, wherever the harness writes those.
    {
        let room_cfg = RoomConfig {
            participants: ParticipantConfig::uniform_room(4, 100e6),
            frames: if quick { 2 } else { 6 },
            share_encoder: true,
            ..Default::default()
        };
        let mut room = Room::new(room_cfg).unwrap();
        let mut pipelines = vec![make_pipeline("keypoint")];
        let trace_path =
            bench::out_dir(env!("CARGO_MANIFEST_DIR")).join("TRACE_conference_room.json");
        room.run_traced(&scene, &mut pipelines, &trace_path).expect("traced room");
    }

    let mut group = c.benchmark_group("conference_sfu");
    group.sample_size(10);
    for (kind, m) in &measurements {
        group.fact(format!("max_room/{kind}"), m.max_size, "participants");
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
