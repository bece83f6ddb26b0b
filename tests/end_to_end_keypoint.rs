//! End-to-end integration: the keypoint proof-of-concept pipeline across
//! every substrate crate (body -> capture -> keypoints -> compress ->
//! net -> mesh -> gpu).

use holo_net::trace::BandwidthTrace;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::session::{Session, SessionConfig};
use semholo::{Content, SceneSource, SemHoloConfig, SemanticPipeline};

fn scene() -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    SceneSource::new(&config, 0.6)
}

#[test]
fn full_session_is_deterministic() {
    let run = || {
        let scene = scene();
        let mut p = KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 9);
        let mut payloads = Vec::new();
        for frame in scene.frames(5).unwrap() {
            payloads.push(p.encode(&frame).unwrap().payload.to_vec());
        }
        payloads
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must produce byte-identical payloads");
}

#[test]
fn different_seeds_differ() {
    let scene = scene();
    let mut p1 = KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 1);
    let mut p2 = KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 2);
    let f = scene.frame(0);
    assert_ne!(
        p1.encode(&f).unwrap().payload,
        p2.encode(&f).unwrap().payload,
        "different detector seeds must differ"
    );
}

#[test]
fn session_report_accounts_every_frame() {
    let scene = scene();
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 3);
    let mut session = Session::new(SessionConfig {
        trace: BandwidthTrace::Constant { bps: 10e6 },
        quality_every: 3,
        ..Default::default()
    });
    let report = session.run(&mut p, &scene, 9).unwrap();
    assert_eq!(report.frames.len(), 9);
    assert_eq!(report.payload.count(), 9);
    // Every delivered frame has finite latency components.
    for f in report.frames.iter().filter(|f| f.delivered) {
        assert!(f.e2e_ms.is_finite());
        assert!(f.extract_ms >= 0.0);
        assert!(f.network_ms > 0.0);
        assert!(f.reconstruct_ms > 0.0);
    }
    assert!(report.mean_chamfer.is_some());
}

#[test]
fn reconstruction_tracks_the_pose() {
    // The reconstructed mesh must follow the sender's motion: compare
    // wrist-area occupancy between two distant frames.
    let scene = scene();
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 64, ..Default::default() }, 5);
    let get_mesh = |p: &mut KeypointPipeline, i: usize| {
        let f = scene.frame(i);
        let enc = p.encode(&f).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Mesh(m) = rec.content else { panic!() };
        (f, m)
    };
    let (f0, m0) = get_mesh(&mut p, 0);
    let (f1, m1) = get_mesh(&mut p, 15);
    // Ground-truth wrist positions for both frames.
    let sk = holo_body::Skeleton::neutral();
    let w0 = sk.forward_kinematics(&f0.params).position(holo_body::Joint::RightWrist);
    let w1 = sk.forward_kinematics(&f1.params).position(holo_body::Joint::RightWrist);
    let near = |mesh: &holo_mesh::TriMesh, q: holo_math::Vec3| {
        mesh.vertices.iter().filter(|v| v.distance(q) < 0.07).count()
    };
    assert!(near(&m0, w0) > 0, "frame-0 mesh must cover frame-0 wrist");
    assert!(near(&m1, w1) > 0, "frame-15 mesh must cover frame-15 wrist");
}

#[test]
fn quality_floor_from_cloth_detail() {
    // Even a high-resolution keypoint reconstruction cannot beat the
    // cloth-detail floor: the bare surface differs from the full one.
    let scene = scene();
    let frame = scene.frame(0);
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 96, ..Default::default() }, 7);
    let enc = p.encode(&frame).unwrap();
    let rec = p.decode(&enc.payload).unwrap();
    let q = p.quality(&frame, &rec.content);
    // Chamfer cannot reach zero: cloth folds are unrecoverable.
    assert!(q.chamfer.unwrap() > 0.002, "suspiciously perfect: {:?}", q.chamfer);
    assert!(q.chamfer.unwrap() < 0.06, "implausibly bad: {:?}", q.chamfer);
}

#[test]
fn payload_survives_bit_corruption_without_panic() {
    let scene = scene();
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 11);
    let enc = p.encode(&scene.frame(0)).unwrap();
    let mut rng = holo_math::Pcg32::new(1);
    for _ in 0..50 {
        let mut corrupted = enc.payload.to_vec();
        let i = rng.index(corrupted.len());
        corrupted[i] ^= 1 << rng.range_u32(8);
        // Must not panic; error or garbage mesh both acceptable.
        let _ = p.decode(&corrupted);
    }
    // Truncations too.
    for cut in [0, 1, 10, enc.payload.len() / 2] {
        let _ = p.decode(&enc.payload[..cut]);
    }
}
