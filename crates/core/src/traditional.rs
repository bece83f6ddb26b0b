//! Traditional bit-by-bit mesh delivery — Table 2's baseline.
//!
//! The sender poses the SMPL-X-class template mesh and ships it whole,
//! either raw (397.7 KB-class frames) or through the Draco-style codec
//! (42 KB-class). The receiver decodes and renders; no semantic
//! reconstruction is involved, which is exactly why the bandwidth is two
//! orders of magnitude higher.

use crate::error::{reject_decode, Result};
use crate::scene::SceneFrame;
use crate::semantics::{mesh_quality, Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline, StageCost, QUALITY_REFERENCE_RESOLUTION};
use holo_runtime::bytes::Bytes;
use holo_compress::meshcodec::{MeshCodecConfig, MeshDecoder, MeshEncoder};
use std::time::Duration;

/// Whether to compress the mesh on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshWire {
    /// Raw binary mesh (Table 2 "w/o compression").
    Raw,
    /// Draco-style codec (Table 2 "w/ compression").
    Compressed,
}

impl MeshWire {
    /// Modeled CPU time of a frame's extract (pose and serialize or
    /// compress the mesh) and recon (parse or decompress it): each
    /// stage's median release-build wall time on a two-vCPU x86 box.
    /// Both stages are CPU-only, so rooms and sessions charge these
    /// figures in virtual time (see [`StageCost`]).
    fn cpu_costs(self) -> (Duration, Duration) {
        match self {
            MeshWire::Raw => (Duration::from_micros(550), Duration::from_micros(350)),
            MeshWire::Compressed => (Duration::from_micros(1_700), Duration::from_micros(1_700)),
        }
    }
}

/// The traditional pipeline.
pub struct TraditionalPipeline {
    /// Wire mode.
    pub wire: MeshWire,
    /// Codec config for the compressed mode.
    pub codec: MeshCodecConfig,
    /// The compressed mode's encoder and decoder: the avatar's topology
    /// never changes, so its connectivity is coded and decoded on the
    /// first frame only.
    encoder: MeshEncoder,
    decoder: MeshDecoder,
}

impl TraditionalPipeline {
    /// Build with the given wire mode.
    pub fn new(wire: MeshWire, quantization_bits: u32) -> Self {
        Self {
            wire,
            codec: MeshCodecConfig { position_bits: quantization_bits },
            encoder: MeshEncoder::default(),
            decoder: MeshDecoder::default(),
        }
    }
}

/// Serialize a mesh to the raw wire format ([`holo_mesh::TriMesh`]'s
/// `raw_size_bytes` layout): magic, counts, vertices, faces.
pub fn mesh_to_raw_bytes(mesh: &holo_mesh::TriMesh) -> Vec<u8> {
    let mut out = Vec::with_capacity(mesh.raw_size_bytes());
    out.extend_from_slice(&0x4D45_5348u32.to_le_bytes()); // "MESH"
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&(mesh.vertex_count() as u32).to_le_bytes());
    out.extend_from_slice(&(mesh.face_count() as u32).to_le_bytes());
    for v in &mesh.vertices {
        out.extend_from_slice(&v.x.to_le_bytes());
        out.extend_from_slice(&v.y.to_le_bytes());
        out.extend_from_slice(&v.z.to_le_bytes());
    }
    for f in &mesh.faces {
        for &i in f {
            out.extend_from_slice(&i.to_le_bytes());
        }
    }
    out
}

/// Parse [`mesh_to_raw_bytes`] output.
///
/// Hostile-input contract: the declared vertex/face counts are checked
/// against the exact stream length *before* any allocation, so a forged
/// 16-byte header can't drive gigabyte-scale `Vec` growth.
pub fn mesh_from_raw_bytes(
    data: &[u8],
) -> std::result::Result<holo_mesh::TriMesh, holo_runtime::ser::DecodeError> {
    use holo_runtime::ser::{ByteReader, DecodeError};
    let mut r = ByteReader::new(data);
    r.expect_magic(0x4D45_5348)?;
    let _flags = r.u32_le()?;
    let nv = r.u32_le()? as usize;
    let nf = r.u32_le()? as usize;
    let expected = 16usize
        .saturating_add(nv.saturating_mul(12))
        .saturating_add(nf.saturating_mul(12));
    if data.len() != expected {
        return Err(if data.len() < expected {
            DecodeError::Truncated { needed: expected, available: data.len() }
        } else {
            DecodeError::corrupt(
                "raw mesh",
                format!("raw mesh size {} != {expected}", data.len()),
            )
        });
    }
    let mut mesh = holo_mesh::TriMesh::new();
    mesh.vertices.reserve_exact(nv);
    mesh.faces.reserve_exact(nf);
    for _ in 0..nv {
        mesh.vertices.push(holo_math::Vec3::new(r.f32_le()?, r.f32_le()?, r.f32_le()?));
    }
    for _ in 0..nf {
        mesh.faces.push([r.u32_le()?, r.u32_le()?, r.u32_le()?]);
    }
    mesh.validate().map_err(|m| DecodeError::corrupt("raw mesh", m))?;
    Ok(mesh)
}

impl SemanticPipeline for TraditionalPipeline {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Traditional
    }

    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame> {
        let timer = holo_trace::WallTimer::start();
        let mesh = frame.posed_mesh();
        let bytes = match self.wire {
            MeshWire::Raw => mesh_to_raw_bytes(&mesh),
            MeshWire::Compressed => self.encoder.encode(&mesh, &self.codec),
        };
        timer.stop("pipeline.traditional.extract_us");
        Ok(EncodedFrame {
            payload: Bytes::from(bytes),
            extract: StageCost { cpu_wall: self.wire.cpu_costs().0, gpu: None },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed> {
        let timer = holo_trace::WallTimer::start();
        let mesh = match self.wire {
            MeshWire::Raw => mesh_from_raw_bytes(payload).map_err(reject_decode)?,
            MeshWire::Compressed => self.decoder.decode(payload).map_err(reject_decode)?,
        };
        timer.stop("pipeline.traditional.recon_us");
        Ok(Reconstructed {
            content: Content::Mesh(mesh),
            recon: StageCost { cpu_wall: self.wire.cpu_costs().1, gpu: None },
        })
    }

    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport {
        let Content::Mesh(mesh) = content else {
            return QualityReport::default();
        };
        let gt = frame.ground_truth_mesh(QUALITY_REFERENCE_RESOLUTION);
        mesh_quality(&gt, mesh, frame.context.config.seed ^ frame.index as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SemHoloConfig;
    use crate::scene::SceneSource;

    fn scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        SceneSource::new(&config, 0.3)
    }

    #[test]
    fn raw_wire_size_in_table2_class() {
        let scene = scene();
        let mut p = TraditionalPipeline::new(MeshWire::Raw, 14);
        let enc = p.encode(&scene.frame(0)).unwrap();
        // The paper reports 397.7 KB for the SMPL-X mesh; our template is
        // the same size class (hundreds of KB).
        let kb = enc.payload.len() as f64 / 1024.0;
        assert!((100.0..2000.0).contains(&kb), "raw mesh {kb:.1} KB");
    }

    #[test]
    fn compression_shrinks_by_draco_class_factor() {
        let scene = scene();
        let frame = scene.frame(0);
        let mut raw = TraditionalPipeline::new(MeshWire::Raw, 14);
        let mut comp = TraditionalPipeline::new(MeshWire::Compressed, 14);
        let raw_len = raw.encode(&frame).unwrap().payload.len();
        let comp_len = comp.encode(&frame).unwrap().payload.len();
        let ratio = raw_len as f64 / comp_len as f64;
        assert!(ratio > 4.0, "mesh compression ratio {ratio:.1}");
    }

    #[test]
    fn raw_roundtrip_exact() {
        let scene = scene();
        let frame = scene.frame(1);
        let mut p = TraditionalPipeline::new(MeshWire::Raw, 14);
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Mesh(mesh) = &rec.content else { panic!() };
        let original = frame.posed_mesh();
        assert_eq!(mesh.vertex_count(), original.vertex_count());
        assert_eq!(mesh.faces, original.faces);
    }

    #[test]
    fn compressed_roundtrip_close() {
        let scene = scene();
        let frame = scene.frame(2);
        let mut p = TraditionalPipeline::new(MeshWire::Compressed, 14);
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Mesh(mesh) = &rec.content else { panic!() };
        assert_eq!(mesh.face_count(), frame.posed_mesh().face_count());
    }

    #[test]
    fn traditional_quality_beats_keypoints() {
        // The whole point of the taxonomy: traditional = high quality,
        // high bandwidth.
        let scene = scene();
        let frame = scene.frame(0);
        let mut p = TraditionalPipeline::new(MeshWire::Compressed, 14);
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let q = p.quality(&frame, &rec.content);
        assert!(q.chamfer.unwrap() < 0.04, "traditional chamfer {}", q.chamfer.unwrap());
    }

    #[test]
    fn raw_parser_rejects_corruption() {
        assert!(mesh_from_raw_bytes(&[0u8; 8]).is_err());
        let scene = scene();
        let mut p = TraditionalPipeline::new(MeshWire::Raw, 14);
        let mut bytes = p.encode(&scene.frame(0)).unwrap().payload.to_vec();
        bytes.truncate(bytes.len() - 7);
        assert!(mesh_from_raw_bytes(&bytes).is_err());
    }
}
