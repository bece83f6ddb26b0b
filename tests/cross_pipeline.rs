//! Cross-pipeline integration: the taxonomy's ordering claims must hold
//! when all pipelines observe the same scene.

use semholo::image::{ImageConfig, ImagePipeline};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::text::{TextConfig, TextPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

fn scene() -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (64, 48),
        camera_count: 3,
        ..Default::default()
    };
    SceneSource::new(&config, 0.4)
}

#[test]
fn payload_size_ordering_matches_table1() {
    let scene = scene();
    let frame = scene.frame(3);
    let mut kp = KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 1);
    let mut txt = TextPipeline::new(TextConfig::default(), 1);
    let mut comp = TraditionalPipeline::new(MeshWire::Compressed, 14);
    let mut raw = TraditionalPipeline::new(MeshWire::Raw, 14);
    let kp_b = kp.encode(&frame).unwrap().payload.len();
    let txt_b = txt.encode(&frame).unwrap().payload.len();
    let comp_b = comp.encode(&frame).unwrap().payload.len();
    let raw_b = raw.encode(&frame).unwrap().payload.len();
    // Semantic payloads are an order of magnitude below even compressed
    // meshes; raw meshes are an order above compressed.
    assert!(kp_b * 10 < comp_b, "keypoint {kp_b} vs compressed mesh {comp_b}");
    assert!(txt_b * 10 < comp_b, "text {txt_b} vs compressed mesh {comp_b}");
    assert!(comp_b * 4 < raw_b, "compressed {comp_b} vs raw {raw_b}");
}

#[test]
fn traditional_quality_at_least_keypoint_quality() {
    let scene = scene();
    let frame = scene.frame(3);
    let mut kp = KeypointPipeline::new(KeypointConfig { resolution: 96, ..Default::default() }, 2);
    let mut trad = TraditionalPipeline::new(MeshWire::Compressed, 14);
    let kp_rec = {
        let enc = kp.encode(&frame).unwrap();
        kp.decode(&enc.payload).unwrap()
    };
    let trad_rec = {
        let enc = trad.encode(&frame).unwrap();
        trad.decode(&enc.payload).unwrap()
    };
    let kp_q = kp.quality(&frame, &kp_rec.content).chamfer.unwrap();
    let trad_q = trad.quality(&frame, &trad_rec.content).chamfer.unwrap();
    assert!(
        trad_q <= kp_q * 1.2,
        "traditional ({trad_q}) must not be clearly worse than keypoints ({kp_q})"
    );
}

#[test]
fn all_pipelines_roundtrip_every_frame_kind() {
    let scene = scene();
    let mut pipelines: Vec<Box<dyn SemanticPipeline>> = vec![
        Box::new(KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 3)),
        Box::new(TextPipeline::new(TextConfig::default(), 3)),
        Box::new(TraditionalPipeline::new(MeshWire::Compressed, 12)),
        Box::new(ImagePipeline::new(
            ImageConfig { pretrain_steps: 60, finetune_steps: 4, ..Default::default() },
            3,
        )),
    ];
    for p in &mut pipelines {
        for frame in scene.frames(3).unwrap() {
            let enc = p.encode(&frame).unwrap_or_else(|e| panic!("{:?} encode: {e}", p.kind()));
            assert!(!enc.payload.is_empty());
            let rec = p.decode(&enc.payload).unwrap_or_else(|e| panic!("{:?} decode: {e}", p.kind()));
            let q = p.quality(&frame, &rec.content);
            assert!(
                q.chamfer.is_some() || q.psnr_db.is_some(),
                "{:?} must produce a quality metric",
                p.kind()
            );
        }
    }
}

#[test]
fn semantic_kinds_are_distinct() {
    let kinds = [
        KeypointPipeline::new(Default::default(), 1).kind(),
        TextPipeline::new(Default::default(), 1).kind(),
        TraditionalPipeline::new(MeshWire::Raw, 14).kind(),
        ImagePipeline::new(Default::default(), 1).kind(),
    ];
    for (i, a) in kinds.iter().enumerate() {
        for b in &kinds[i + 1..] {
            assert_ne!(a, b);
        }
    }
}
