//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, not just the fixtures the unit tests use.

use holo_body::params::{PosePayload, SmplxParams};
use holo_body::skeleton::{Skeleton, JOINT_COUNT};
use holo_math::{Pcg32, Quat, Vec3};
use holo_runtime::check::{any, collection};
use holo_runtime::{holo_prop, prop_assert, prop_assert_eq, prop_assume};

/// Strategy: a plausible random pose from a seed.
fn pose(seed: u64) -> SmplxParams {
    let mut rng = Pcg32::new(seed);
    SmplxParams::random_plausible(&mut rng)
}

holo_prop! {
    #![cases(48)]

    /// FK must preserve bone lengths for any pose: rotations are rigid.
    fn fk_preserves_bone_lengths(seed in any::<u64>()) {
        let sk = Skeleton::neutral();
        let rest = sk.rest_positions();
        let posed = sk.forward_kinematics(&pose(seed));
        let world = posed.positions();
        for j in 1..JOINT_COUNT {
            let p = holo_body::skeleton::PARENTS[j] as usize;
            let rest_len = rest[j].distance(rest[p]);
            let posed_len = world[j].distance(world[p]);
            prop_assert!(
                (rest_len - posed_len).abs() < 1e-4,
                "joint {j}: rest {rest_len} vs posed {posed_len}"
            );
        }
    }

    /// Pose wire format: serialize-parse is the identity on joint
    /// positions (the quantity that matters downstream), for any pose.
    fn pose_payload_roundtrip_preserves_fk(seed in any::<u64>()) {
        let sk = Skeleton::neutral();
        let p = pose(seed);
        let payload = PosePayload::new(p.clone(), vec![]);
        let back = PosePayload::from_bytes(&payload.to_bytes()).unwrap();
        let a = sk.forward_kinematics(&p).positions();
        let b = sk.forward_kinematics(&back.params).positions();
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((*x - *y).length() < 1e-3, "{x:?} vs {y:?}");
        }
    }

    /// Quaternion axis-angle double roundtrip is stable (no drift), for
    /// any rotation magnitude below 2 pi.
    fn axis_angle_roundtrip_stable(x in -3.0f32..3.0, y in -3.0f32..3.0, z in -3.0f32..3.0) {
        let v = Vec3::new(x, y, z);
        prop_assume!(v.length() < std::f32::consts::TAU - 0.1);
        let q1 = Quat::from_axis_angle_vec(v);
        let v2 = q1.to_axis_angle();
        let q2 = Quat::from_axis_angle_vec(v2);
        prop_assert!(q1.angle_to(q2) < 1e-3);
    }

    /// The LZMA codec is the identity composed with itself for pose
    /// payloads carrying arbitrary keypoints.
    fn lzma_identity_on_payloads(seed in any::<u64>(), n_kp in 0usize..120) {
        let mut rng = Pcg32::new(seed);
        let kps: Vec<Vec3> = (0..n_kp)
            .map(|_| Vec3::new(rng.normal(), rng.normal(), rng.normal()))
            .collect();
        let bytes = PosePayload::new(pose(seed), kps).to_bytes();
        let c = holo_compress::lzma::lzma_compress(&bytes);
        prop_assert_eq!(holo_compress::lzma::lzma_decompress(&c).unwrap(), bytes);
    }

    /// Mesh codec: face count invariant and bounded vertex error for
    /// random closed surfaces (spheres of random placement/size).
    fn mesh_codec_face_invariant(
        cx in -2.0f32..2.0,
        cy in -2.0f32..2.0,
        r in 0.2f32..1.5,
        rings in 4u32..12,
        segs in 6u32..16,
    ) {
        let mesh = holo_mesh::TriMesh::uv_sphere(Vec3::new(cx, cy, 0.0), r, rings, segs);
        let cfg = holo_compress::meshcodec::MeshCodecConfig { position_bits: 12 };
        let data = holo_compress::meshcodec::encode_mesh(&mesh, &cfg);
        let decoded = holo_compress::meshcodec::decode_mesh(&data).unwrap();
        prop_assert_eq!(decoded.face_count(), mesh.face_count());
        // Every decoded vertex within ~2 quantization steps of the sphere.
        let step = mesh.bounds().longest_side() / ((1u64 << 12) - 1) as f32;
        for v in &decoded.vertices {
            let err = ((*v - Vec3::new(cx, cy, 0.0)).length() - r).abs();
            prop_assert!(err < step * 4.0 + 1e-4, "radius error {err} vs step {step}");
        }
    }

    /// Gaze classification output length always matches input length.
    fn gaze_classify_total(seed in any::<u64>(), secs in 1u32..8) {
        let mut synth = holo_gaze::trace::GazeSynthesizer::new(seed);
        let samples = synth.generate(secs as f32);
        let classes = holo_gaze::IvtClassifier::default().classify(&samples);
        prop_assert_eq!(classes.len(), samples.len());
    }

    /// Network transport conservation: every offered frame is either
    /// complete or counted dropped; wire bytes at least payload bytes.
    fn transport_accounting(seed in any::<u64>(), n in 1usize..30, size in 1usize..20_000) {
        use holo_net::link::{Link, LinkConfig};
        use holo_net::trace::BandwidthTrace;
        use holo_net::transport::{FrameTransport, LossPolicy};
        let mut rng = Pcg32::new(seed);
        let link = Link::new(
            LinkConfig { loss_rate: rng.range_f32(0.0, 0.2), ..Default::default() },
            BandwidthTrace::Constant { bps: rng.range_f32(1e6, 100e6) as f64 },
            seed,
        );
        let mut t = FrameTransport::new(link, LossPolicy::RetransmitOnce);
        let mut complete = 0u64;
        for i in 0..n {
            let r = t.send_frame(
                holo_runtime::bytes::Bytes::from(vec![0u8; size]),
                holo_net::SimTime::from_millis(i as u64 * 33),
            );
            if r.complete {
                complete += 1;
                prop_assert!(r.latency.is_some());
            }
            prop_assert!(r.wire_bytes as usize >= size);
        }
        prop_assert_eq!(complete, t.frames_complete);
        prop_assert_eq!(
            t.frames_complete + t.frames_dropped,
            n as u64
        );
    }

    /// Streaming summary statistics agree with direct computation.
    fn summary_matches_direct(values in collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = holo_math::Summary::new();
        for &v in &values {
            s.record(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(s.min(), min);
    }
}

/// Non-property cross-crate invariant: the capture rig's fused cloud is
/// always inside the (expanded) body bounds for arbitrary clip frames.
#[test]
fn fused_clouds_stay_inside_body_bounds() {
    use holo_body::surface::{BodySdf, SurfaceDetail};
    let config = semholo::SemHoloConfig {
        capture_resolution: (48, 36),
        camera_count: 2,
        ..Default::default()
    };
    let scene = semholo::SceneSource::new(&config, 0.3);
    for frame in scene.frames(4).unwrap() {
        let sdf = BodySdf::from_pose(&Skeleton::neutral(), &frame.params, SurfaceDetail::full());
        let bounds = holo_mesh::sdf::Sdf::bounds(&sdf).expanded(0.05);
        let cloud = frame.captured_cloud();
        let inside = cloud.points.iter().filter(|p| bounds.contains(**p)).count();
        assert!(
            inside as f32 / cloud.len().max(1) as f32 > 0.99,
            "fused points escaping body bounds: {inside}/{}",
            cloud.len()
        );
    }
}
