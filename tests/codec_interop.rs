//! Codec interop: the compression substrate against real content from
//! the body/scene substrates, plus adversarial robustness.

use holo_body::params::{PosePayload, SmplxParams};
use holo_body::{MotionKind, MotionSynthesizer};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_compress::meshcodec::{decode_mesh, encode_mesh, MeshCodecConfig, MeshEncoder};
use holo_compress::texture::{Texture, TextureCodec};
use holo_math::Pcg32;
use holo_runtime::check::{any, collection};
use holo_runtime::{holo_prop, prop_assert_eq};

#[test]
fn lzma_roundtrips_a_whole_motion_clip() {
    let mut synth = MotionSynthesizer::new(5);
    for kind in [MotionKind::Idle, MotionKind::Talking, MotionKind::Waving, MotionKind::Walking] {
        let clip = synth.clip(kind, 1.0, 30.0);
        for frame in &clip.frames {
            let payload = PosePayload::new(frame.clone(), vec![]).to_bytes();
            let compressed = lzma_compress(&payload);
            assert_eq!(lzma_decompress(&compressed).unwrap(), payload, "{kind:?}");
        }
    }
}

#[test]
fn mesh_codec_roundtrips_posed_bodies_across_a_clip() {
    let model = holo_body::BodyModel::standard();
    let mut synth = MotionSynthesizer::new(7);
    let clip = synth.clip(MotionKind::Walking, 0.3, 10.0);
    for frame in &clip.frames {
        let mesh = model.pose_mesh(frame);
        let encoded = encode_mesh(&mesh, &MeshCodecConfig::default());
        let decoded = decode_mesh(&encoded).unwrap();
        assert_eq!(decoded.face_count(), mesh.face_count());
        // Draco-class ratio on every frame, not just one.
        let ratio = mesh.raw_size_bytes() as f64 / encoded.len() as f64;
        assert!(ratio > 5.0, "frame ratio {ratio:.1}");
    }
}

/// Cross-commit identity pin: what the codec reconstructs is a function
/// of the mesh and the quantization depth, not of the entropy coder
/// behind it. The digest covers, per frame of the seed-7 walking clip,
/// every decoded vertex (`to_bits`, in decoded order), every decoded
/// face, and the encoder's vertex permutation. It was computed with the
/// adaptive range coder's `MCD1` format and must survive any change of
/// wire format unedited.
#[test]
fn mesh_codec_reconstruction_is_pinned_across_wire_formats() {
    let model = holo_body::BodyModel::standard();
    let mut synth = MotionSynthesizer::new(7);
    let clip = synth.clip(MotionKind::Walking, 0.3, 10.0);
    let mut bytes = Vec::new();
    let mut encoder = MeshEncoder::default();
    for frame in &clip.frames {
        let mesh = model.pose_mesh(frame);
        let encoded = encoder.encode(&mesh, &MeshCodecConfig::default());
        let decoded = decode_mesh(&encoded).unwrap();
        for v in &decoded.vertices {
            for c in [v.x, v.y, v.z] {
                bytes.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        for i in decoded.faces.iter().flatten().chain(encoder.permutation()) {
            bytes.extend_from_slice(&i.to_le_bytes());
        }
    }
    assert_eq!(clip.frames.len(), 3);
    assert_eq!(
        holo_runtime::fnv1a64(&bytes),
        0x7028_11c7_f83a_b362,
        "{} bytes digested",
        bytes.len()
    );
}

#[test]
fn pose_payload_parse_never_panics_on_corruption() {
    let mut rng = Pcg32::new(1);
    let payload = PosePayload::new(SmplxParams::default(), vec![]).to_bytes();
    for _ in 0..500 {
        let mut corrupted = payload.clone();
        for _ in 0..rng.range_u32(8) + 1 {
            let i = rng.index(corrupted.len());
            corrupted[i] = rng.next_u32() as u8;
        }
        let _ = PosePayload::from_bytes(&corrupted);
    }
}

#[test]
fn texture_codec_on_rendered_captures() {
    // Compress actual render output (not just synthetic patterns).
    use holo_capture::camera::{Camera, CameraIntrinsics};
    use holo_capture::noise::DepthNoiseModel;
    use holo_capture::render::{render_rgbd, ShadingConfig};
    use holo_mesh::sdf::SdfSphere;

    let sdf = SdfSphere { center: holo_math::Vec3::new(0.0, 1.0, 0.0), radius: 0.5 };
    let cam = Camera::look_at(
        CameraIntrinsics::from_fov(64, 64, 1.0),
        holo_math::Vec3::new(0.0, 1.0, 2.0),
        holo_math::Vec3::new(0.0, 1.0, 0.0),
    );
    let mut rng = Pcg32::new(2);
    let frame = render_rgbd(&sdf, &cam, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut rng);
    let compressed = TextureCodec::compress(&frame.color);
    let decompressed = TextureCodec::decompress(&compressed).unwrap();
    assert!(frame.color.psnr(&decompressed) > 25.0);
    assert_eq!(compressed.len(), TextureCodec::compressed_size(64, 64));
}

holo_prop! {
    #![cases(32)]

    fn lzma_roundtrip_arbitrary(data in collection::vec(any::<u8>(), 0..2048)) {
        let c = lzma_compress(&data);
        prop_assert_eq!(lzma_decompress(&c).unwrap(), data);
    }

    fn lzma_decompress_never_panics(data in collection::vec(any::<u8>(), 0..512)) {
        let _ = lzma_decompress(&data);
    }

    fn mesh_decode_never_panics(data in collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_mesh(&data);
    }

    fn texture_decompress_never_panics(data in collection::vec(any::<u8>(), 0..512)) {
        let _ = TextureCodec::decompress(&data);
    }

    fn texture_roundtrip_arbitrary_images(
        w in 1u32..40,
        h in 1u32..40,
        seed in any::<u64>(),
    ) {
        let mut rng = Pcg32::new(seed);
        let mut tex = Texture::new(w, h);
        for y in 0..h {
            for x in 0..w {
                tex.set(x, y, [rng.next_u32() as u8, rng.next_u32() as u8, rng.next_u32() as u8]);
            }
        }
        let d = TextureCodec::decompress(&TextureCodec::compress(&tex)).unwrap();
        prop_assert_eq!((d.width, d.height), (w, h));
    }
}

/// Cross-commit byte pin of the closed-loop vector delta stream
/// (`holo-gaussian::update`): every frame of a seeded 30-frame talking
/// clip, length-prefixed, under the default config (one key, then
/// deltas) and under `keyframe_interval: 3`. Computed before the coder
/// moved onto `holo-compress::closedloop` and must survive that move
/// unedited.
#[test]
fn closed_loop_delta_streams_are_pinned() {
    use holo_gaussian::splat::AvatarState;
    use holo_gaussian::update::{GaussianUpdateConfig, GaussianUpdateEncoder};

    let clip = MotionSynthesizer::new(4).clip(MotionKind::Talking, 1.0, 30.0);
    assert_eq!(clip.frames.len(), 30);
    let states: Vec<AvatarState> = clip
        .frames
        .iter()
        .enumerate()
        .map(|(i, pose)| {
            let mut s = AvatarState::from_pose(pose.clone());
            s.region_opacity[3] = 1.0 - 0.002 * i as f32;
            s.region_scale[7] = 1.0 + 0.003 * i as f32;
            s
        })
        .collect();
    fn digest(frames: impl Iterator<Item = Vec<u8>>) -> (u64, usize) {
        let mut bytes = Vec::new();
        for f in frames {
            bytes.extend_from_slice(&(f.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&f);
        }
        (holo_runtime::fnv1a64(&bytes), bytes.len())
    }
    let gaussian = |cfg| {
        let mut enc = GaussianUpdateEncoder::new(cfg);
        digest(states.iter().map(|s| enc.encode(s)))
    };
    let got = [
        gaussian(GaussianUpdateConfig::default()),
        gaussian(GaussianUpdateConfig { keyframe_interval: 3 }),
    ];
    let pinned: [(u64, usize); 2] = [
        (0x06ce_62e9_76d4_1244, 1226),
        (0x8552_fe69_272e_c4e3, 1650),
    ];
    assert_eq!(got, pinned, "{got:#x?}");
}
