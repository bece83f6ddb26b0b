//! **Table 2** — required bandwidth (Mbps) at 30 FPS for keypoint-based
//! semantic vs. traditional communication, before and after compression.
//!
//! Paper values: semantic 0.46 / 0.30 Mbps (raw / LZMA, 1.91 KB / 1.23 KB
//! per frame); traditional 95.4 / 10.1 Mbps (raw / Draco, 397.7 KB /
//! 42.1 KB per frame) — savings of ~207x raw and ~34x compressed; SMPL-X
//! has 10 475 vertices / 20 908 faces.
//!
//! Two extension rows follow. Temporal mesh coding sends connectivity
//! once and closed-loop position deltas after: the deltas of a
//! *parametric* mesh compress to pose-equivalent size because the pose is
//! its only per-frame innovation, which live-captured meshes (new
//! topology and sensor noise every frame) do not allow — hence the
//! paper's per-frame mesh baseline. The gaussian tier ships geometry once
//! in a prebuild blob and streams only pose/region conditioning; the
//! break-even is the call time after which that blob has paid for itself
//! against compressed mesh delivery.
//!
//! The codecs are timed by the repository benchmark's `mesh_codec`
//! workload.

use crate::{bench_scene, mbps_at_30fps, Facts};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_compress::meshcodec::{decode_mesh, encode_mesh, MeshCodecConfig};
use semholo::traditional::mesh_to_raw_bytes;
use semholo::KeypointPipeline;

/// `BENCH_table2_bandwidth.json`.
pub fn facts() -> String {
    let scene = bench_scene(1.0);
    let mut facts = Facts::new("table2_bandwidth", "table2");

    // --- Semantic side: the 1.91 KB pose payload, LZMA-compressed. ---
    let mut kp = KeypointPipeline::new(Default::default(), 42);
    let (fitted, detected) = kp.fit_frame(&scene.frame(3)).unwrap();
    let mut keypoints = detected;
    keypoints.truncate(holo_body::params::PAYLOAD_KEYPOINTS);
    let pose_raw = holo_body::params::PosePayload::new(fitted, keypoints).to_bytes().len();
    // Average the compressed size over a clip (it varies per frame).
    let mut comp_total = 0usize;
    let frames = 20;
    for i in 0..frames {
        let (f, d) = kp.fit_frame(&scene.frame(i)).unwrap();
        let mut kps = d;
        kps.truncate(holo_body::params::PAYLOAD_KEYPOINTS);
        let raw = holo_body::params::PosePayload::new(f, kps).to_bytes();
        let comp = lzma_compress(&raw);
        assert_eq!(lzma_decompress(&comp).unwrap(), raw);
        comp_total += comp.len();
    }
    let pose_comp_mean = comp_total / frames;

    // --- Traditional side: the posed template mesh, raw and Draco. ---
    let mesh = scene.frame(3).posed_mesh();
    let mesh_raw = mesh_to_raw_bytes(&mesh).len();
    let encoded = encode_mesh(&mesh, &MeshCodecConfig::default());
    assert_eq!(decode_mesh(&encoded).unwrap().face_count(), mesh.face_count());
    let mesh_comp = encoded.len();

    for (row, bytes) in [
        ("semantic_raw", pose_raw),
        ("semantic_lzma", pose_comp_mean),
        ("traditional_raw", mesh_raw),
        ("traditional_draco", mesh_comp),
    ] {
        facts.fact(format!("bytes/{row}"), bytes, "bytes");
        facts.fact(format!("bandwidth/{row}"), mbps_at_30fps(bytes), "Mbps");
    }
    facts.fact("savings/raw", mesh_raw as f64 / pose_raw as f64, "ratio");
    facts.fact("savings/compressed", mesh_comp as f64 / pose_comp_mean as f64, "ratio");
    facts.fact("mesh_vertices", mesh.vertex_count(), "count");
    facts.fact("mesh_faces", mesh.face_count(), "count");

    // --- Extension row: temporal (inter-frame) mesh coding. ---
    {
        use holo_compress::temporal::{TemporalMeshDecoder, TemporalMeshEncoder};
        let mut tenc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 0.001);
        let mut tdec = TemporalMeshDecoder::new();
        let mut delta_total = 0usize;
        let mut key = 0usize;
        for i in 0..frames {
            let bytes = tenc.encode(&scene.frame(i).posed_mesh());
            tdec.decode(&bytes).unwrap();
            if i == 0 {
                key = bytes.len();
            } else {
                delta_total += bytes.len();
            }
        }
        let mean_delta = delta_total / (frames - 1);
        facts.fact("temporal/keyframe", key, "bytes");
        facts.fact("temporal/delta_mean", mean_delta, "bytes");
        facts.fact("temporal/bandwidth", mbps_at_30fps(mean_delta), "Mbps");
    }

    // --- Extension row: the amortized gaussian tier. ---
    {
        use holo_gaussian::{break_even_seconds, GaussianPipeline, TierCost};
        use semholo::SemanticPipeline;
        let mut p = GaussianPipeline::default();
        let _ = p.encode(&scene.frame(0)).unwrap(); // prebuild + keyframe
        let mut update_total = 0usize;
        for i in 1..frames {
            update_total += p.encode(&scene.frame(i)).unwrap().payload.len();
        }
        let mean_update = update_total / (frames - 1);
        let tier = |name: &str, prebuild_bytes: usize, bytes: usize| TierCost {
            name: name.into(),
            prebuild_bytes: prebuild_bytes as u64,
            steady_bps: mbps_at_30fps(bytes) * 1e6,
        };
        let break_even = break_even_seconds(
            &tier("gaussian", p.prebuild_bytes(), mean_update),
            &tier("mesh", 0, mesh_comp),
        );
        facts.fact("gaussian/update_mean", mean_update, "bytes");
        facts.fact("gaussian/bandwidth", mbps_at_30fps(mean_update), "Mbps");
        facts.fact("gaussian/break_even_vs_mesh", break_even, "s");
    }
    facts.render()
}
