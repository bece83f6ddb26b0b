//! Fuzzing corpora built from the *real* encoders.
//!
//! Mutation fuzzing is only as good as its seeds: random bytes die at
//! the first magic check and never reach the interesting code. Every
//! corpus here is genuine encoder output — coded meshes from the
//! Draco-class codec, LZMA streams, pose keyframes *and* delta frames,
//! captions, channel payloads, wire envelopes — so mutants carry valid
//! framing deep into the decoders before they start lying.
//!
//! Everything is a deterministic function of the seed; the corpus for
//! seed `s` is byte-identical across runs.

use holo_body::params::{PosePayload, SmplxParams, PAYLOAD_KEYPOINTS};
use holo_body::skeleton::JOINT_COUNT;
use holo_compress::lzma::lzma_compress;
use holo_gaussian::{
    encode_prebuild, AvatarState, GaussianAvatar, GaussianUpdateConfig, GaussianUpdateEncoder,
    Splat, SH_COEFFS,
};
use holo_compress::meshcodec::{encode_mesh, MeshCodecConfig};
use holo_compress::temporal::TemporalMeshEncoder;
use holo_compress::texture::{Texture, TextureCodec};
use holo_math::{Aabb, Pcg32, Quat, Vec3};
use holo_mesh::trimesh::TriMesh;
use holo_net::wire::{ImportanceClass, PayloadKind, UepHeader, WireFrame};
use holo_runtime::bytes::Bytes;
use holo_textsem::caption::Caption;
use holo_textsem::channels::GlobalChannel;
use holo_textsem::delta::{DeltaCoder, DeltaOp};

/// A small but non-trivial triangle mesh: an `n`×`n` height-field grid
/// (interior vertices are fully surrounded, so the region-growing coder
/// exercises attach, seed, *and* back-reference paths).
pub fn small_mesh(n: u32, rng: &mut Pcg32) -> TriMesh {
    let mut mesh = TriMesh::new();
    for j in 0..=n {
        for i in 0..=n {
            let x = i as f32 / n as f32;
            let y = j as f32 / n as f32;
            let z = 0.1 * rng.next_f32();
            mesh.vertices.push(Vec3::new(x, y, z));
        }
    }
    let stride = n + 1;
    for j in 0..n {
        for i in 0..n {
            let a = j * stride + i;
            let b = a + 1;
            let c = a + stride;
            let d = c + 1;
            mesh.faces.push([a, b, d]);
            mesh.faces.push([a, d, c]);
        }
    }
    mesh
}

fn jiggled(mesh: &TriMesh, amount: f32, rng: &mut Pcg32) -> TriMesh {
    let mut out = mesh.clone();
    for v in &mut out.vertices {
        v.z += amount * (rng.next_f32() - 0.5);
    }
    out
}

fn small_caption(rng: &mut Pcg32) -> Caption {
    let mut tokens = Vec::new();
    let mut cell = 0u32;
    for _ in 0..24 {
        cell += 1 + rng.range_u32(40);
        tokens.push((cell, rng.range_u32(256) as u16));
    }
    Caption { tokens }
}

/// Coded-mesh corpus: two quantization depths over two grids.
pub fn mesh_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x4D45);
    let m1 = small_mesh(6, &mut rng);
    let m2 = small_mesh(3, &mut rng);
    vec![
        encode_mesh(&m1, &MeshCodecConfig { position_bits: 14 }),
        encode_mesh(&m1, &MeshCodecConfig { position_bits: 8 }),
        encode_mesh(&m2, &MeshCodecConfig::default()),
    ]
}

/// Temporal-mesh corpus: one keyframe and one delta frame from the
/// same encoder run. The returned keyframe also primes the decoder in
/// the target registry.
pub fn temporal_corpus(seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut rng = Pcg32::with_stream(seed, 0x7E4D);
    let mesh = small_mesh(5, &mut rng);
    let mut enc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 1e-3);
    let key = enc.encode(&mesh);
    let delta = enc.encode(&jiggled(&mesh, 0.02, &mut rng));
    (key.clone(), vec![key, delta])
}

/// LZMA corpus: compressible structure, near-incompressible noise, and
/// the degenerate empty stream.
pub fn lzma_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x12A4);
    let structured: Vec<u8> = (0..600u32).map(|i| ((i / 7) % 251) as u8).collect();
    let noise: Vec<u8> = (0..256).map(|_| rng.next_u32() as u8).collect();
    vec![lzma_compress(&structured), lzma_compress(&noise), lzma_compress(&[])]
}

/// Texture corpus: the synthetic body texture at two sizes.
pub fn texture_corpus() -> Vec<Vec<u8>> {
    vec![
        TextureCodec::compress(&Texture::synthetic_body_texture(32, 24)),
        TextureCodec::compress(&Texture::synthetic_body_texture(8, 8)),
    ]
}

/// Caption corpus (varint + LZMA token streams).
pub fn caption_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0xCA97);
    vec![
        small_caption(&mut rng).to_bytes(),
        small_caption(&mut rng).to_bytes(),
        Caption { tokens: Vec::new() }.to_bytes(),
    ]
}

/// Global-channel corpus.
pub fn global_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x61B0);
    let mut entries = Vec::new();
    let mut cell = 0u32;
    for _ in 0..8 {
        cell += 1 + rng.range_u32(5);
        entries.push((cell, [rng.next_u32() as u8, rng.next_u32() as u8, rng.next_u32() as u8]));
    }
    vec![
        GlobalChannel { entries }.to_bytes(),
        GlobalChannel { entries: Vec::new() }.to_bytes(),
    ]
}

/// Caption-delta-ops corpus.
pub fn delta_ops_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0xDE17);
    let mut coder = DeltaCoder::new();
    let first = coder.encode(&small_caption(&mut rng));
    let second = coder.encode(&small_caption(&mut rng));
    vec![
        DeltaCoder::ops_to_bytes(&first),
        DeltaCoder::ops_to_bytes(&second),
        DeltaCoder::ops_to_bytes(&[DeltaOp::Set(0, 0), DeltaOp::Remove(3)]),
    ]
}

fn plausible_params(rng: &mut Pcg32) -> SmplxParams {
    SmplxParams::random_plausible(rng)
}

/// Pose-payload corpus (the raw 1.91 KB keypoint-semantics block).
pub fn pose_payload_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x905E);
    let params = plausible_params(&mut rng);
    let keypoints: Vec<Vec3> = (0..PAYLOAD_KEYPOINTS)
        .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
        .collect();
    vec![PosePayload::new(params, keypoints).to_bytes()]
}

/// Gaussian prebuild corpus: quantized splat-avatar blobs at two sizes.
pub fn gaussian_prebuild_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x6A05);
    let avatar = |n: usize, rng: &mut Pcg32| {
        let mut splats = Vec::with_capacity(n);
        for i in 0..n {
            splats.push(Splat {
                position: Vec3::new(
                    rng.next_f32() - 0.5,
                    1.0 + rng.next_f32(),
                    rng.next_f32() - 0.5,
                ),
                scale: Vec3::new(0.01, 0.012, 0.008),
                rotation: Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), rng.next_f32()),
                opacity: 0.5 + 0.5 * rng.next_f32(),
                sh: [0.25; SH_COEFFS],
                region: (i % JOINT_COUNT) as u8,
            });
        }
        let pts: Vec<Vec3> = splats.iter().map(|s| s.position).collect();
        GaussianAvatar {
            bounds: Aabb::from_points(&pts).expanded(0.02),
            splats,
            region_count: JOINT_COUNT as u8,
        }
    };
    vec![
        encode_prebuild(&avatar(48, &mut rng)),
        encode_prebuild(&avatar(4, &mut rng)),
    ]
}

/// Gaussian update corpus: one keyframe and one delta frame from the
/// same encoder run. The keyframe also primes the decoder in the
/// target registry.
pub fn gaussian_update_corpus(seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut rng = Pcg32::with_stream(seed, 0x6A0D);
    let mut enc = GaussianUpdateEncoder::new(GaussianUpdateConfig::default());
    let key = enc.encode(&AvatarState::from_pose(plausible_params(&mut rng)));
    let delta = enc.encode(&AvatarState::from_pose(plausible_params(&mut rng)));
    (key.clone(), vec![key, delta])
}

/// Wire-envelope corpus: every payload kind, including an empty
/// payload.
pub fn wire_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x3172);
    let kinds = [
        PayloadKind::Mesh,
        PayloadKind::Keypoints,
        PayloadKind::Image,
        PayloadKind::Text,
        PayloadKind::GaussianUpdate,
        PayloadKind::Control,
    ];
    let mut out = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let len = rng.range_u32(200) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        out.push(WireFrame::new(kind, i as u64, Bytes::from(payload)).encode());
    }
    out.push(WireFrame::new(PayloadKind::Control, 99, Bytes::from(vec![])).encode());
    out
}

/// UEP-header corpus: one header per importance class with a valid
/// random stripe geometry, plus the two boundary shapes the scheduler
/// actually sends — an unprotected (`r = 0`) data frame and the
/// degenerate duplication stripe (`k = 1, r = 1`) parity frame.
pub fn uep_header_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x0EB5);
    let mut out = Vec::new();
    for (i, class) in ImportanceClass::ALL.into_iter().enumerate() {
        let k = 1 + rng.range_u32(9) as u8;
        let r = 1 + rng.range_u32(k as u32) as u8;
        let parity = i % 2 == 1;
        let slots = if parity { r } else { k };
        out.push(
            UepHeader {
                class,
                parity,
                abandonable: i >= 2,
                k,
                r,
                group: rng.next_u32(),
                index: rng.range_u32(slots as u32) as u8,
                deadline_ms: 50 + rng.range_u32(400) as u16,
            }
            .encode(),
        );
    }
    out.push(
        UepHeader {
            class: ImportanceClass::Low,
            parity: false,
            abandonable: true,
            k: 1,
            r: 0,
            group: 0,
            index: 0,
            deadline_ms: 0,
        }
        .encode(),
    );
    out.push(
        UepHeader {
            class: ImportanceClass::Critical,
            parity: true,
            abandonable: false,
            k: 1,
            r: 1,
            group: u32::MAX,
            index: 0,
            deadline_ms: u16::MAX,
        }
        .encode(),
    );
    out
}

/// Raw-mesh corpus (`core::traditional`'s uncompressed wire format).
pub fn raw_mesh_corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Pcg32::with_stream(seed, 0x2A37);
    vec![
        semholo::traditional::mesh_to_raw_bytes(&small_mesh(4, &mut rng)),
        semholo::traditional::mesh_to_raw_bytes(&small_mesh(1, &mut rng)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_deterministic_per_seed() {
        assert_eq!(mesh_corpus(7), mesh_corpus(7));
        assert_ne!(mesh_corpus(7), mesh_corpus(8));
        assert_eq!(wire_corpus(7), wire_corpus(7));
        assert_eq!(uep_header_corpus(7), uep_header_corpus(7));
        assert_ne!(uep_header_corpus(7), uep_header_corpus(8));
        assert_eq!(gaussian_prebuild_corpus(5), gaussian_prebuild_corpus(5));
        assert_ne!(gaussian_prebuild_corpus(5), gaussian_prebuild_corpus(6));
        assert_eq!(gaussian_update_corpus(5), gaussian_update_corpus(5));
    }

    #[test]
    fn corpora_are_non_trivial() {
        for c in [
            mesh_corpus(1),
            lzma_corpus(1),
            texture_corpus(),
            caption_corpus(1),
            global_corpus(1),
            delta_ops_corpus(1),
            pose_payload_corpus(1),
            wire_corpus(1),
            uep_header_corpus(1),
            raw_mesh_corpus(1),
            gaussian_prebuild_corpus(1),
            gaussian_update_corpus(1).1,
        ] {
            assert!(!c.is_empty());
            assert!(c.iter().any(|item| item.len() > 16), "corpus too small: {c:?}");
        }
    }

    #[test]
    fn small_mesh_is_valid() {
        let mut rng = Pcg32::new(1);
        let mesh = small_mesh(6, &mut rng);
        mesh.validate().expect("grid mesh is well-formed");
        assert_eq!(mesh.face_count(), 72);
    }
}
