//! The foveated hybrid pipeline (§3.1's research agenda).
//!
//! "Directly transmit the compressed 3D mesh for the foveal region to
//! maintain high visual quality while delivering keypoints for only
//! peripheral regions." The sender tracks the viewer's gaze (delayed by
//! one RTT over the feedback channel), optionally runs saccade landing
//! prediction to aim ahead of the eye, cuts the posed mesh to the
//! predicted foveal cone, Draco-compresses that patch, and appends the
//! keypoint pose payload for the rest of the body. The receiver rebuilds
//! the periphery from keypoints at low resolution and stitches in the
//! received foveal patch.
//!
//! Ablation A sweeps the foveal radius: a larger fovea costs bandwidth
//! but reduces receiver reconstruction work and raises quality near the
//! gaze point.

use crate::error::{reject_decode, Result, SemHoloError};
use crate::scene::SceneFrame;
use crate::semantics::{Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline, StageCost};
use holo_runtime::bytes::Bytes;
use holo_body::params::PosePayload;
use holo_body::skeleton::Skeleton;
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_compress::meshcodec::{decode_mesh, MeshCodecConfig, MeshEncoder};
use holo_compress::primitives::{read_varint, write_varint};
use holo_gaze::classify::{GazeClass, IvtClassifier};
use holo_gaze::foveation::FoveationMap;
use holo_gaze::landing::SaccadePredictor;
use holo_gaze::trace::{GazeSample, GazeSynthesizer};
use holo_gpu::workloads::reconstruction_workload;
use holo_keypoints::fit::fit_params;
use holo_math::{Pcg32, Vec2, Vec3};
use holo_mesh::sparse::Extractor;
use holo_mesh::trimesh::TriMesh;

/// Gaze feedback delay (one network RTT), seconds.
const GAZE_DELAY_S: f32 = 0.04;
/// Mesh codec bits for the foveal patch.
const PATCH_CODEC: MeshCodecConfig = MeshCodecConfig { position_bits: 14 };
/// Modeled CPU time of an extract (cut and compress the foveal patch,
/// fit and pack the pose): its median release-build wall time on a
/// two-vCPU x86 box. The stage is CPU-only, so rooms and sessions
/// charge this figure in virtual time (see [`StageCost`]).
const EXTRACT_CPU: std::time::Duration = std::time::Duration::from_micros(4_300);

/// Foveated pipeline configuration.
#[derive(Debug, Clone)]
pub struct FoveatedConfig {
    /// Foveal radius, degrees.
    pub foveal_radius_deg: f32,
    /// Peripheral reconstruction resolution (low; the fovea carries the
    /// true mesh).
    pub peripheral_resolution: u32,
    /// Use saccade landing prediction to aim the fovea ahead of the eye.
    pub predict_saccades: bool,
}

impl Default for FoveatedConfig {
    fn default() -> Self {
        Self {
            foveal_radius_deg: 12.0,
            peripheral_resolution: 48,
            predict_saccades: true,
        }
    }
}

/// Viewer geometry shared by sender and receiver.
fn viewer_map(gaze: Vec2, radius: f32) -> FoveationMap {
    FoveationMap::new(Vec3::new(0.0, 1.5, 2.5), Vec3::new(0.0, -0.15, -1.0), gaze, radius)
}

/// The foveated hybrid pipeline.
pub struct FoveatedPipeline {
    /// Configuration.
    pub config: FoveatedConfig,
    skeleton: Skeleton,
    gaze_samples: Vec<GazeSample>,
    classifier: IvtClassifier,
    predictor: SaccadePredictor,
    rng: Pcg32,
    /// Gaze the last frame was encoded for (receiver-side stitch uses it).
    last_encode_gaze: Vec2,
    /// Per-frame byte split: (foveal mesh bytes, keypoint bytes).
    pub last_split: (usize, usize),
    /// Codes the foveal patch. Its topology moves with the gaze, so most
    /// frames re-walk it — into the memory the last frame's walk used.
    patch_encoder: MeshEncoder,
    /// Extracts the periphery into the memory the last frame's used.
    extractor: Extractor,
}

impl FoveatedPipeline {
    /// Build with a synthesized viewer gaze trace covering `duration_s`.
    pub fn new(config: FoveatedConfig, duration_s: f32, seed: u64) -> Self {
        let mut synth = GazeSynthesizer::new(seed ^ 0xEE);
        let gaze_samples = synth.generate(duration_s.max(1.0) + 2.0);
        Self {
            config,
            skeleton: Skeleton::neutral(),
            gaze_samples,
            classifier: IvtClassifier::default(),
            predictor: SaccadePredictor::new(),
            rng: Pcg32::with_stream(seed, 0xF0),
            last_encode_gaze: Vec2::ZERO,
            last_split: (0, 0),
            patch_encoder: MeshEncoder::default(),
            extractor: Extractor::default(),
        }
    }

    /// True gaze at time `t` (what the eye actually looks at).
    pub fn true_gaze_at(&self, t: f32) -> Vec2 {
        let rate = 120.0;
        let idx = ((t * rate) as usize).min(self.gaze_samples.len().saturating_sub(1));
        self.gaze_samples[idx].pos
    }

    /// The gaze the *sender* believes in at time `t`: the sample one
    /// feedback delay old, optionally corrected by saccade landing
    /// prediction.
    pub fn predicted_gaze_at(&mut self, t: f32) -> Vec2 {
        let delayed_t = (t - GAZE_DELAY_S).max(0.0);
        let rate = 120.0;
        let idx = ((delayed_t * rate) as usize).min(self.gaze_samples.len().saturating_sub(1));
        if !self.config.predict_saccades {
            return self.gaze_samples[idx].pos;
        }
        // Classify a window long enough to contain the whole saccade; if
        // the newest available sample is in flight, anchor the ballistic
        // predictor at the *onset* (the fixation-to-saccade transition)
        // and predict the landing point.
        let lo = idx.saturating_sub(30);
        let window = &self.gaze_samples[lo..=idx];
        let classes = self.classifier.classify(window);
        if classes.last() == Some(&GazeClass::Saccade) {
            // Walk back over the contiguous in-flight tail to the onset.
            let mut onset = classes.len() - 1;
            while onset > 0 && classes[onset - 1] == GazeClass::Saccade {
                onset -= 1;
            }
            // Engage only early in flight: once most of the saccade has
            // been observed, the (stale) measured position is already
            // near the landing point and beats any model-based estimate.
            let tail = classes.len() - onset;
            if tail <= 4 {
                self.predictor.reset();
                let mut best = None;
                for s in &window[onset..] {
                    if let Some(p) = self.predictor.observe(s) {
                        best = Some(p);
                    }
                }
                if let Some(p) = best {
                    return p;
                }
            }
        }
        self.predictor.reset();
        self.gaze_samples[idx].pos
    }

    /// The compact submesh of the faces of `mesh` whose centroid is
    /// foveal (`keep_foveal`: the patch the sender ships) or is not
    /// (`!keep_foveal`: what the receiver keeps of its peripheral
    /// reconstruction, so that it does not z-fight with the patch).
    fn submesh(mesh: &TriMesh, map: &FoveationMap, keep_foveal: bool) -> TriMesh {
        let mut out = TriMesh::new();
        let mut remap = vec![u32::MAX; mesh.vertex_count()];
        for f in &mesh.faces {
            let centroid = (mesh.vertices[f[0] as usize]
                + mesh.vertices[f[1] as usize]
                + mesh.vertices[f[2] as usize])
                / 3.0;
            if map.is_foveal(centroid) != keep_foveal {
                continue;
            }
            let mut nf = [0u32; 3];
            for (k, &vi) in f.iter().enumerate() {
                if remap[vi as usize] == u32::MAX {
                    remap[vi as usize] = out.vertices.len() as u32;
                    out.vertices.push(mesh.vertices[vi as usize]);
                }
                nf[k] = remap[vi as usize];
            }
            out.faces.push(nf);
        }
        out
    }
}

impl SemanticPipeline for FoveatedPipeline {
    fn kind(&self) -> SemanticKind {
        SemanticKind::FoveatedHybrid
    }

    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame> {
        let timer = holo_trace::WallTimer::start();
        let gaze = self.predicted_gaze_at(frame.time as f32);
        self.last_encode_gaze = gaze;
        let map = viewer_map(gaze, self.config.foveal_radius_deg);
        // Foveal patch: cut from the posed mesh, Draco-compress.
        let mesh = frame.posed_mesh();
        let patch = Self::submesh(&mesh, &map, true);
        let patch_bytes = self.patch_encoder.encode(&patch, &PATCH_CODEC);
        // Peripheral keypoints: the full pose payload (receiver needs the
        // whole skeleton anyway).
        let posed = self.skeleton.forward_kinematics(&frame.params);
        let landmarks = posed.positions().to_vec();
        let noisy: Vec<Vec3> = landmarks
            .iter()
            .map(|&p| p + Vec3::new(self.rng.normal(), self.rng.normal(), self.rng.normal()) * 0.008)
            .collect();
        let mut fitted = fit_params(&noisy, &self.skeleton).map_err(SemHoloError::Extraction)?;
        fitted.betas = frame.params.betas;
        fitted.expression = frame.params.expression;
        let pose_bytes = lzma_compress(&PosePayload::new(fitted, noisy).to_bytes());
        self.last_split = (patch_bytes.len(), pose_bytes.len());

        let mut payload = Vec::new();
        // Gaze the patch was cut for (receiver must cut the same hole).
        payload.extend_from_slice(&gaze.x.to_le_bytes());
        payload.extend_from_slice(&gaze.y.to_le_bytes());
        write_varint(&mut payload, patch_bytes.len() as u32);
        payload.extend_from_slice(&patch_bytes);
        payload.extend_from_slice(&pose_bytes);
        timer.stop("pipeline.foveated.extract_us");
        Ok(EncodedFrame {
            payload: Bytes::from(payload),
            extract: StageCost { cpu_wall: EXTRACT_CPU, gpu: None },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed> {
        let timer = holo_trace::WallTimer::start();
        if payload.len() < 9 {
            return Err(SemHoloError::Codec("foveated payload too short".into()));
        }
        let gaze = Vec2::new(
            f32::from_le_bytes(payload[0..4].try_into().unwrap()),
            f32::from_le_bytes(payload[4..8].try_into().unwrap()),
        );
        let mut pos = 8;
        let (patch_len, used) =
            read_varint(&payload[pos..]).ok_or_else(|| SemHoloError::Codec("no patch len".into()))?;
        pos += used;
        let end = pos + patch_len as usize;
        if end > payload.len() {
            return Err(SemHoloError::Codec("truncated foveal patch".into()));
        }
        let patch = decode_mesh(&payload[pos..end]).map_err(reject_decode)?;
        let raw = lzma_decompress(&payload[end..]).map_err(reject_decode)?;
        let pose = PosePayload::from_bytes(&raw).map_err(reject_decode)?;
        // Peripheral reconstruction at low resolution.
        let sdf = BodySdf::from_pose(&self.skeleton, &pose.params, SurfaceDetail::bare());
        let (periphery_full, _) = self.extractor.extract(&sdf, self.config.peripheral_resolution, 0.03);
        let map = viewer_map(gaze, self.config.foveal_radius_deg);
        let mut stitched = Self::submesh(&periphery_full, &map, false);
        stitched.append(&patch);
        stitched.compute_normals();
        let workload = reconstruction_workload(self.config.peripheral_resolution, None).workload;
        Ok(Reconstructed {
            content: Content::Mesh(stitched),
            recon: StageCost {
                cpu_wall: timer.stop("pipeline.foveated.recon_us"),
                gpu: Some(workload),
            },
        })
    }

    /// Quality is measured where it matters: around the *true* gaze point
    /// at render time, inside a *fixed* 5-degree evaluation cone (so the
    /// metric is comparable across foveal-radius configurations) — a
    /// missed saccade prediction shows up as degraded foveal quality.
    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport {
        const EVAL_CONE_DEG: f32 = 5.0;
        let Content::Mesh(mesh) = content else {
            return QualityReport::default();
        };
        let true_gaze = self.true_gaze_at(frame.time as f32);
        let map = viewer_map(true_gaze, EVAL_CONE_DEG);
        let gt = frame.ground_truth_mesh(96);
        let mut rng = Pcg32::new(frame.context.config.seed ^ frame.index as u64);
        let (gt_pts, _) = gt.sample_surface(4000, &mut rng);
        let (re_pts, _) = mesh.sample_surface(4000, &mut rng);
        let gt_fov: Vec<Vec3> = gt_pts.iter().copied().filter(|&p| map.is_foveal(p)).collect();
        let re_fov: Vec<Vec3> = re_pts.iter().copied().filter(|&p| map.is_foveal(p)).collect();
        let chamfer_fov = holo_mesh::metrics::chamfer_distance(&gt_fov, &re_fov);
        let f = holo_mesh::metrics::f_score(&gt_fov, &re_fov, 0.01);
        QualityReport {
            chamfer: Some(chamfer_fov),
            f_score: Some(f),
            normal_consistency: None,
            psnr_db: None,
        }
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
        SceneSource::new(&config, 0.5)
    }

    fn pipeline(radius: f32) -> FoveatedPipeline {
        FoveatedPipeline::new(
            FoveatedConfig {
                foveal_radius_deg: radius,
                peripheral_resolution: 40,
                ..Default::default()
            },
            1.0,
            11,
        )
    }

    #[test]
    fn roundtrip_stitches_mesh() {
        let scene = scene();
        let mut p = pipeline(12.0);
        let frame = scene.frame(0);
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Mesh(mesh) = &rec.content else { panic!() };
        assert!(mesh.face_count() > 1000);
        assert!(mesh.validate().is_ok());
        let (fov_bytes, pose_bytes) = p.last_split;
        assert!(fov_bytes > 0, "foveal patch empty");
        assert!(pose_bytes > 500);
    }

    #[test]
    fn bigger_fovea_costs_more_bandwidth() {
        let scene = scene();
        let frame = scene.frame(0);
        let mut small = pipeline(5.0);
        let mut large = pipeline(25.0);
        let b_small = small.encode(&frame).unwrap().payload.len();
        let b_large = large.encode(&frame).unwrap().payload.len();
        assert!(b_large > b_small, "bandwidth: small {b_small} large {b_large}");
    }

    #[test]
    fn hybrid_payload_far_below_full_mesh() {
        let scene = scene();
        let frame = scene.frame(0);
        let mut p = pipeline(12.0);
        let hybrid = p.encode(&frame).unwrap().payload.len();
        let full_raw = frame.posed_mesh().raw_size_bytes();
        assert!(hybrid * 5 < full_raw, "hybrid {hybrid} vs full raw {full_raw}");
    }

    #[test]
    fn foveal_quality_decent() {
        let scene = scene();
        let mut p = pipeline(15.0);
        let frame = scene.frame(0);
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let q = p.quality(&frame, &rec.content);
        // Foveal region carries the true mesh; chamfer there should be
        // in the compressed-mesh class, not the low-res-periphery class.
        assert!(q.chamfer.unwrap() < 0.08, "foveal chamfer {}", q.chamfer.unwrap());
    }

    #[test]
    fn submesh_partition_covers_everything() {
        let scene = scene();
        let frame = scene.frame(0);
        let mesh = frame.posed_mesh();
        let map = viewer_map(Vec2::ZERO, 15.0);
        let fov = FoveatedPipeline::submesh(&mesh, &map, true);
        let per = FoveatedPipeline::submesh(&mesh, &map, false);
        assert_eq!(fov.face_count() + per.face_count(), mesh.face_count());
        assert!(fov.face_count() > 0, "some faces must be foveal");
        assert!(per.face_count() > 0, "some faces must be peripheral");
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut p = pipeline(10.0);
        assert!(p.decode(&[1, 2, 3]).is_err());
    }
}
