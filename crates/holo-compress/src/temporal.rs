//! Temporal (inter-frame) mesh compression for fixed-topology streams.
//!
//! The traditional pipeline re-sends the whole mesh every frame — but a
//! parametric avatar mesh has *constant connectivity* (SMPL-X topology
//! never changes). A temporal codec ships connectivity once in a
//! keyframe and then, per frame, only quantized vertex-position deltas,
//! entropy-coded — the same idea as Draco's animation extension and the
//! skeleton-based prediction literature the paper cites ([54, 81]). This
//! is the strongest fair version of the "traditional" baseline and is
//! measured as an extra Table 2 row.
//!
//! Wire format per stream:
//! - keyframe: the full static-codec bitstream ([`crate::meshcodec`]).
//! - delta frame: per-vertex quantized position residuals against the
//!   *previous reconstructed* frame (closed loop, so errors never
//!   accumulate), zigzag + bucketed static rANS ([`crate::rans`]).

use crate::meshcodec::{decode_mesh, MeshCodecConfig, MeshEncoder};
use crate::primitives::{unzigzag, zigzag};
use crate::rans::{RansDecoder, RansEncoder};
use holo_math::Vec3;
use holo_mesh::trimesh::TriMesh;
use holo_runtime::ser::{ByteReader, DecodeError};

const DELTA_MAGIC: u32 = 0x4D44_4C32; // "MDL2"
/// One bucket-slot context per position component.
const DELTA_ALPHABETS: [u8; 3] = [64; 3];
const KEY_MAGIC: u32 = 0x4D4B_4559; // "MKEY"

/// Encoder state: the previous frame as the receiver reconstructed it.
pub struct TemporalMeshEncoder {
    cfg: MeshCodecConfig,
    /// Quantization step for delta frames, meters.
    pub delta_step: f32,
    reference: Option<TriMesh>,
    /// Codes the keyframes, and so remembers the last one's *input*
    /// topology (the decoder's is permuted) and its vertex permutation:
    /// `permutation()[k]` = input-vertex index behind decoded vertex `k`.
    keyframes: MeshEncoder,
    frames_since_key: u32,
    /// Force a keyframe every N frames (loss recovery); 0 = never.
    pub keyframe_interval: u32,
}

/// Decoder state.
#[derive(Default)]
pub struct TemporalMeshDecoder {
    reference: Option<TriMesh>,
}

impl TemporalMeshEncoder {
    /// Build an encoder. `delta_step` bounds the per-frame position error.
    pub fn new(cfg: MeshCodecConfig, delta_step: f32) -> Self {
        Self {
            cfg,
            delta_step: delta_step.max(1e-6),
            reference: None,
            keyframes: MeshEncoder::default(),
            frames_since_key: 0,
            keyframe_interval: 120,
        }
    }

    /// Encode one frame. Emits a keyframe when topology changes, at the
    /// keyframe interval, or on the first frame; otherwise a delta frame.
    pub fn encode(&mut self, mesh: &TriMesh) -> Vec<u8> {
        let need_key = self.reference.is_none()
            || !self.keyframes.walked(&mesh.faces)
            || (self.keyframe_interval > 0 && self.frames_since_key >= self.keyframe_interval);
        if need_key {
            self.frames_since_key = 0;
            let body = self.keyframes.encode(mesh, &self.cfg);
            // The receiver's reference is the *decoded* keyframe (the
            // static codec reorders vertices; the permutation maps back).
            self.reference = Some(decode_mesh(&body).expect("own keyframe must decode"));
            let mut out = Vec::with_capacity(body.len() + 4);
            out.extend_from_slice(&KEY_MAGIC.to_le_bytes());
            out.extend_from_slice(&body);
            return out;
        }
        self.frames_since_key += 1;
        let reference = self.reference.as_mut().unwrap();
        let mut out = Vec::new();
        out.extend_from_slice(&DELTA_MAGIC.to_le_bytes());
        out.extend_from_slice(&(reference.vertex_count() as u32).to_le_bytes());
        out.extend_from_slice(&self.delta_step.to_le_bytes());
        let mut enc = RansEncoder::default();
        let inv = 1.0 / self.delta_step;
        // Closed loop: the reference advances by the *quantized* deltas,
        // in the decoder's (permuted) vertex order.
        for (r, &src_idx) in reference.vertices.iter_mut().zip(self.keyframes.permutation()) {
            let v = &mesh.vertices[src_idx as usize];
            let d = *v - *r;
            let q = [
                (d.x * inv).round() as i32,
                (d.y * inv).round() as i32,
                (d.z * inv).round() as i32,
            ];
            for (k, &c) in q.iter().enumerate() {
                enc.bucketed(k, zigzag(c));
            }
            *r += Vec3::new(q[0] as f32, q[1] as f32, q[2] as f32) * self.delta_step;
        }
        enc.finish(&DELTA_ALPHABETS, &mut out);
        out
    }
}

impl TemporalMeshDecoder {
    /// Fresh decoder (expects a keyframe first).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode one frame.
    ///
    /// Hostile-input contract: typed errors on truncation, bad magic,
    /// and count/step mismatches; a delta frame whose coded bytes run
    /// dry mid-stream, or are not consumed to the last one, is rejected
    /// and leaves the reference as it was.
    pub fn decode(&mut self, data: &[u8]) -> Result<TriMesh, DecodeError> {
        let mut r = ByteReader::new(data);
        let magic = r.u32_le()?;
        match magic {
            KEY_MAGIC => {
                let mesh = decode_mesh(r.rest())?;
                self.reference = Some(mesh.clone());
                Ok(mesh)
            }
            DELTA_MAGIC => {
                let reference = self.reference.as_mut().ok_or_else(|| {
                    DecodeError::corrupt("temporal", "delta frame before any keyframe")
                })?;
                let nv = r.u32_le()? as usize;
                let step = r.f32_le()?;
                if nv != reference.vertex_count() {
                    return Err(DecodeError::corrupt(
                        "temporal",
                        format!("delta vertex count {nv} != reference {}", reference.vertex_count()),
                    ));
                }
                if !step.is_finite() || step <= 0.0 {
                    return Err(DecodeError::corrupt("temporal", "invalid delta step"));
                }
                let mut dec = RansDecoder::new(&mut r, &DELTA_ALPHABETS)?;
                // Closed loop: apply to a scratch copy so a mid-stream
                // truncation doesn't poison the reference.
                let mut verts = reference.vertices.clone();
                for v in &mut verts {
                    let mut q = [0i32; 3];
                    for (k, c) in q.iter_mut().enumerate() {
                        *c = unzigzag(dec.bucketed(k)?);
                    }
                    *v += Vec3::new(q[0] as f32, q[1] as f32, q[2] as f32) * step;
                }
                dec.finish()?;
                reference.vertices = verts;
                let mut out = reference.clone();
                out.compute_normals();
                Ok(out)
            }
            other => Err(DecodeError::corrupt(
                "temporal",
                format!("unknown temporal frame magic {other:#x}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_body::{BodyModel, MotionKind, MotionSynthesizer};

    fn clip_meshes(frames: usize) -> Vec<TriMesh> {
        let model = BodyModel::standard();
        let mut synth = MotionSynthesizer::new(11);
        let clip = synth.clip(MotionKind::Talking, frames as f32 / 30.0, 30.0);
        clip.frames.iter().map(|p| model.pose_mesh(p)).collect()
    }

    #[test]
    fn stream_roundtrips_within_quantization_error() {
        let meshes = clip_meshes(6);
        let mut enc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 0.001);
        let mut dec = TemporalMeshDecoder::new();
        for mesh in &meshes {
            let bytes = enc.encode(mesh);
            let out = dec.decode(&bytes).unwrap();
            assert_eq!(out.face_count(), mesh.face_count());
            // Positions within quantization error (keyframe uses the
            // static codec's step; deltas use delta_step; both are
            // bounded by a few mm here). Vertex ORDER differs after the
            // keyframe re-ordering, so compare via nearest distances.
            let grid = holo_mesh::grid::PointGrid::auto(out.vertices.clone());
            let worst = mesh
                .vertices
                .iter()
                .map(|v| grid.nearest_distance(*v))
                .fold(0.0f32, f32::max);
            assert!(worst < 0.006, "worst vertex error {worst}");
        }
    }

    #[test]
    fn delta_frames_are_much_smaller_than_keyframes() {
        let meshes = clip_meshes(5);
        let mut enc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 0.001);
        let sizes: Vec<usize> = meshes.iter().map(|m| enc.encode(m).len()).collect();
        let key = sizes[0];
        let mean_delta = sizes[1..].iter().sum::<usize>() / (sizes.len() - 1);
        assert!(
            mean_delta * 2 < key,
            "delta {mean_delta} B should be far below keyframe {key} B"
        );
    }

    #[test]
    fn closed_loop_does_not_drift() {
        // 20 frames of motion; the final decoded frame must still match
        // the final input within quantization error (no accumulation).
        let meshes = clip_meshes(20);
        let mut enc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 0.001);
        let mut dec = TemporalMeshDecoder::new();
        let mut last = None;
        for mesh in &meshes {
            last = Some(dec.decode(&enc.encode(mesh)).unwrap());
        }
        let out = last.unwrap();
        let target = meshes.last().unwrap();
        let grid = holo_mesh::grid::PointGrid::auto(out.vertices.clone());
        let mean: f32 = target.vertices.iter().map(|v| grid.nearest_distance(*v)).sum::<f32>()
            / target.vertex_count() as f32;
        assert!(mean < 0.003, "drift after 20 frames: mean {mean}");
    }

    #[test]
    fn keyframe_interval_forces_refresh() {
        let meshes = clip_meshes(6);
        let mut enc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 0.001);
        enc.keyframe_interval = 2;
        let kinds: Vec<u32> = meshes
            .iter()
            .map(|m| u32::from_le_bytes(enc.encode(m)[0..4].try_into().unwrap()))
            .collect();
        let keys = kinds.iter().filter(|&&k| k == KEY_MAGIC).count();
        assert!(keys >= 2, "expected periodic keyframes, got {keys}");
    }

    #[test]
    fn decoder_rejects_delta_without_keyframe() {
        let meshes = clip_meshes(2);
        let mut enc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 0.001);
        let _key = enc.encode(&meshes[0]);
        let delta = enc.encode(&meshes[1]);
        let mut fresh = TemporalMeshDecoder::new();
        assert!(fresh.decode(&delta).is_err());
        assert!(fresh.decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn topology_change_triggers_keyframe() {
        let meshes = clip_meshes(1);
        let mut enc = TemporalMeshEncoder::new(MeshCodecConfig::default(), 0.001);
        let first = enc.encode(&meshes[0]);
        assert_eq!(u32::from_le_bytes(first[0..4].try_into().unwrap()), KEY_MAGIC);
        // A different mesh entirely.
        let sphere = TriMesh::uv_sphere(holo_math::Vec3::ZERO, 1.0, 8, 12);
        let second = enc.encode(&sphere);
        assert_eq!(u32::from_le_bytes(second[0..4].try_into().unwrap()), KEY_MAGIC);
    }
}
