//! Foveated-hybrid integration: gaze, mesh cutting, stitching, and the
//! bandwidth split across the full stack.

use semholo::foveated::{FoveatedConfig, FoveatedPipeline};
use semholo::{Content, SceneSource, SemHoloConfig, SemanticPipeline};

fn scene() -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    SceneSource::new(&config, 0.6)
}

fn pipeline(radius: f32, seed: u64) -> FoveatedPipeline {
    FoveatedPipeline::new(
        FoveatedConfig {
            foveal_radius_deg: radius,
            peripheral_resolution: 40,
            ..Default::default()
        },
        1.0,
        seed,
    )
}

#[test]
fn byte_split_tracks_the_radius() {
    let scene = scene();
    let frame = scene.frame(0);
    let mut small = pipeline(5.0, 7);
    let mut large = pipeline(25.0, 7);
    let _ = small.encode(&frame).unwrap();
    let (fov_small, pose_small) = small.last_split;
    let _ = large.encode(&frame).unwrap();
    let (fov_large, pose_large) = large.last_split;
    // Keypoint side is radius-independent; foveal mesh side grows.
    assert_eq!(pose_small, pose_large, "pose payload must not depend on the fovea");
    assert!(fov_large > fov_small, "foveal bytes {fov_small} -> {fov_large}");
}

#[test]
fn stitched_mesh_covers_both_regions() {
    let scene = scene();
    let frame = scene.frame(2);
    let mut p = pipeline(15.0, 9);
    let enc = p.encode(&frame).unwrap();
    let rec = p.decode(&enc.payload).unwrap();
    let Content::Mesh(mesh) = &rec.content else { panic!() };
    // The stitched mesh must span the whole body (head to feet), not
    // just the fovea.
    let b = mesh.bounds();
    assert!(b.size().y > 1.2, "stitched mesh height {:?}", b.size());
    assert!(mesh.face_count() > 1000);
}

#[test]
fn deterministic_across_runs() {
    let run = |seed: u64| {
        let scene = scene();
        let mut p = pipeline(12.0, seed);
        let mut out = Vec::new();
        for frame in scene.frames(3).unwrap() {
            out.push(p.encode(&frame).unwrap().payload.to_vec());
        }
        out
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4), "different gaze seeds must differ");
}

#[test]
fn gaze_prediction_stays_in_field_of_view() {
    let mut p = pipeline(10.0, 11);
    for i in 0..200 {
        let g = p.predicted_gaze_at(i as f32 / 60.0);
        assert!(g.x.abs() < 60.0 && g.y.abs() < 60.0, "predicted gaze {g:?} out of FOV");
    }
}
