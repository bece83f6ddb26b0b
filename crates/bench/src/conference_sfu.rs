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
//! participants over 4 frames and reports a capped answer as the cap.
//! The measured max sizes are facts, and so is the closed-form bound of
//! four pipelines on a 25 Mbps link.

use crate::Facts;
use holo_conf::{measure_max_room_size, CapacityConfig};
use semholo::conference::conference_capacity;
use semholo::image::{ImageConfig, ImagePipeline};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::text::{TextConfig, TextPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

/// A room's pipeline: `keypoint` (resolution 32), `image` or `text`.
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

/// `BENCH_conference_sfu.json`.
pub fn facts() -> String {
    // The rooms' scene: 48x36 pixels, two cameras, 0.4 s.
    let config = SemHoloConfig { capture_resolution: (48, 36), camera_count: 2, ..Default::default() };
    let scene = SceneSource::new(&config, 0.4);
    let base_cfg = CapacityConfig { frames: 4, access_bps: 100e6, cap: 32, ..Default::default() };

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

    let mut facts = Facts::new("conference_sfu", "conference_sfu");
    for (kind, m) in &measurements {
        facts.fact(format!("max_room/{kind}"), m.max_size, "participants");
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
        facts.fact(format!("closed_form/stream_mbps/{name}"), mbps, "Mbps");
        facts.fact(format!("closed_form/max_participants/{name}"), max, "participants");
    }
    facts.render()
}
