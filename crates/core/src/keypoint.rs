//! Keypoint-based semantics — the paper's proof-of-concept pipeline (§4).
//!
//! Sender: detect 3D keypoints on the captured participant (simulated
//! detectors with the error/compute profiles of §2.3), temporally filter
//! them, fit SMPL-X parameters by hierarchical rotation fitting, and ship
//! the 1.91 KB [`PosePayload`] LZMA-compressed. Receiver: rebuild the
//! body as a pose-conditioned implicit surface and extract a mesh at the
//! configured resolution (the X-Avatar substitute) — the reconstruction
//! whose cost Fig. 4 measures and whose quality Fig. 2 grades.

use crate::error::{reject_decode, Result, SemHoloError};
use crate::scene::SceneFrame;
use crate::semantics::{mesh_quality, Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline, StageCost, QUALITY_REFERENCE_RESOLUTION};
use holo_runtime::bytes::Bytes;
use holo_body::landmarks::{LandmarkSet, StandardLandmarks};
use holo_body::params::{PosePayload, SmplxParams, EXPRESSION_DIM, PAYLOAD_KEYPOINTS};
use holo_body::skeleton::{Skeleton, JOINT_COUNT};
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_gpu::workloads::{detector_workload, reconstruction_workload};
use holo_keypoints::detector::KeypointDetector;
use holo_keypoints::filter::OneEuroFilter;
use holo_keypoints::fit::fit_params;
use holo_math::{Pcg32, Vec3};
use holo_mesh::sparse::sparse_extract_with_stats;

/// How the receiver turns keypoints into geometry (ablation D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconstructionMode {
    /// Fit SMPL-X parameters first (the smooth, parameter-capped path the
    /// state of the art uses).
    Parametric,
    /// Hang the surface directly on the observed keypoints (model-free:
    /// exploits every keypoint but inherits their jitter).
    ModelFree,
}

/// Temporal smoothing of fitted parameters in [0, 1): each frame's fit
/// is slerped toward the previous one by this factor. This is the
/// smoothing effect of encoding into a parametric model that the paper
/// credits for "smooth streaming" (the model-free path has no such prior
/// and inherits detector jitter).
const PARAMETER_SMOOTHING: f32 = 0.4;

/// Keypoint pipeline configuration.
#[derive(Debug, Clone)]
pub struct KeypointConfig {
    /// Marching-cubes resolution at the receiver (128-1024 in the paper).
    pub resolution: u32,
    /// Landmark density.
    pub landmarks: StandardLandmarks,
    /// Receiver reconstruction mode.
    pub mode: ReconstructionMode,
}

impl Default for KeypointConfig {
    fn default() -> Self {
        Self {
            resolution: 128,
            landmarks: StandardLandmarks::Standard100,
            mode: ReconstructionMode::Parametric,
        }
    }
}

/// The keypoint-semantics pipeline.
pub struct KeypointPipeline {
    /// Configuration.
    pub config: KeypointConfig,
    skeleton: Skeleton,
    detector: KeypointDetector,
    filters: Vec<OneEuroFilter>,
    prev_detection: Option<Vec<Vec3>>,
    prev_fit: Option<SmplxParams>,
    rng: Pcg32,
    frame_dt: f32,
}

impl KeypointPipeline {
    /// Build the pipeline. The detector observes from the first rig
    /// camera's position.
    pub fn new(config: KeypointConfig, seed: u64) -> Self {
        let detector = KeypointDetector::new(Vec3::new(0.0, 1.3, 2.0));
        let n = config.landmarks.count();
        Self {
            config,
            skeleton: Skeleton::neutral(),
            detector,
            filters: (0..n).map(|_| OneEuroFilter::new(1.5, 3.0)).collect(),
            prev_detection: None,
            prev_fit: None,
            rng: Pcg32::with_stream(seed, 0x4B50),
            frame_dt: 1.0 / 30.0,
        }
    }

    /// The fitted parameters for a frame (exposed for tests/benches).
    pub fn fit_frame(&mut self, frame: &SceneFrame) -> Result<(SmplxParams, Vec<Vec3>)> {
        let posed = self.skeleton.forward_kinematics(&frame.params);
        let truth = LandmarkSet::new(self.config.landmarks).positions(&posed);
        let mut detected = self.detector.detect_with_hold(&truth, self.prev_detection.as_deref(), &mut self.rng);
        for (f, p) in self.filters.iter_mut().zip(detected.iter_mut()) {
            *p = f.filter(*p, self.frame_dt);
        }
        self.prev_detection = Some(detected.clone());
        if detected.len() < 25 {
            return Err(SemHoloError::Extraction(format!(
                "only {} keypoints detected, need at least 25",
                detected.len()
            )));
        }
        let mut fitted = fit_params(&detected, &self.skeleton)
            .map_err(SemHoloError::Extraction)?;
        // Shape comes from the calibration phase; expression from the
        // face-tracker channel (small noise models tracker error).
        fitted.betas = frame.params.betas;
        for (e, t) in fitted.expression.iter_mut().zip(&frame.params.expression) {
            *e = (t + self.rng.normal() * 0.02).clamp(-1.0, 2.0);
        }
        // Parametric temporal prior: blend toward the previous fit.
        if let Some(prev) = &self.prev_fit {
            fitted = fitted.lerp(prev, PARAMETER_SMOOTHING);
        }
        self.prev_fit = Some(fitted.clone());
        Ok((fitted, detected))
    }
}

impl SemanticPipeline for KeypointPipeline {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Keypoint
    }

    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame> {
        let timer = holo_trace::WallTimer::start();
        self.frame_dt = 1.0 / frame.context.config.fps;
        let (fitted, detected) = self.fit_frame(frame)?;
        let mut keypoints = detected;
        keypoints.truncate(PAYLOAD_KEYPOINTS);
        let payload = PosePayload::new(fitted, keypoints);
        let compressed = lzma_compress(&payload.to_bytes());
        let gflops = KeypointDetector::gflops_per_frame(self.config.landmarks.count());
        Ok(EncodedFrame {
            payload: Bytes::from(compressed),
            extract: StageCost {
                cpu_wall: timer.stop("pipeline.keypoint.extract_us"),
                gpu: Some(detector_workload(gflops)),
            },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed> {
        let timer = holo_trace::WallTimer::start();
        let raw = lzma_decompress(payload).map_err(reject_decode)?;
        let pose = PosePayload::from_bytes(&raw).map_err(reject_decode)?;
        let sdf = match self.config.mode {
            ReconstructionMode::Parametric => {
                BodySdf::from_pose(&self.skeleton, &pose.params, SurfaceDetail::bare())
            }
            ReconstructionMode::ModelFree => {
                if pose.keypoints.len() < JOINT_COUNT {
                    return Err(SemHoloError::Reconstruction("too few keypoints for model-free".into()));
                }
                let mut positions = [Vec3::ZERO; JOINT_COUNT];
                positions.copy_from_slice(&pose.keypoints[..JOINT_COUNT]);
                let mut expr = [0.0f32; EXPRESSION_DIM];
                expr.copy_from_slice(&pose.params.expression);
                BodySdf::from_joint_positions(&positions, &expr, SurfaceDetail::bare())
            }
        };
        let (mesh, stats) = sparse_extract_with_stats(&sdf, self.config.resolution, 0.03);
        if holo_trace::enabled() {
            holo_trace::counter("mesh.extract.field_evals", stats.field_evals);
            holo_trace::counter("mesh.extract.cubes_visited", stats.cubes_visited);
            holo_trace::counter("mesh.extract.triangles_emitted", stats.triangles_emitted);
        }
        // The modeled workload represents X-Avatar's implicit-network
        // queries at this resolution (calibration in holo-gpu).
        let workload = reconstruction_workload(self.config.resolution, None).workload;
        Ok(Reconstructed {
            content: Content::Mesh(mesh),
            recon: StageCost {
                cpu_wall: timer.stop("pipeline.keypoint.recon_us"),
                gpu: Some(workload),
            },
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
        SceneSource::new(&config, 0.5)
    }

    fn pipeline(res: u32) -> KeypointPipeline {
        KeypointPipeline::new(KeypointConfig { resolution: res, ..Default::default() }, 7)
    }

    #[test]
    fn payload_is_compressed_pose_size() {
        let scene = scene();
        let mut p = pipeline(64);
        let enc = p.encode(&scene.frame(0)).unwrap();
        // Raw payload is 1956 B; LZMA must shrink it.
        assert!(enc.payload.len() < PosePayload::WIRE_SIZE, "compressed {} B", enc.payload.len());
        assert!(enc.payload.len() > 500, "implausibly small {} B", enc.payload.len());
    }

    #[test]
    fn roundtrip_produces_plausible_body_mesh() {
        let scene = scene();
        let mut p = pipeline(64);
        let enc = p.encode(&scene.frame(0)).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Mesh(mesh) = &rec.content else { panic!("expected mesh") };
        assert!(mesh.face_count() > 2000, "faces {}", mesh.face_count());
        assert!(mesh.validate().is_ok());
        let size = mesh.bounds().size();
        assert!(size.y > 1.2 && size.y < 2.2, "body height {size:?}");
    }

    #[test]
    fn quality_reasonable_and_resolution_helps() {
        let scene = scene();
        let frame = scene.frame(0);
        let mut lo = pipeline(32);
        let mut hi = pipeline(96);
        let enc = lo.encode(&frame).unwrap();
        let rec_lo = lo.decode(&enc.payload).unwrap();
        let enc2 = hi.encode(&frame).unwrap();
        let rec_hi = hi.decode(&enc2.payload).unwrap();
        let q_lo = lo.quality(&frame, &rec_lo.content);
        let q_hi = hi.quality(&frame, &rec_hi.content);
        let (c_lo, c_hi) = (q_lo.chamfer.unwrap(), q_hi.chamfer.unwrap());
        assert!(c_hi < c_lo, "chamfer should fall with resolution: {c_lo} -> {c_hi}");
        assert!(c_hi < 0.05, "keypoint reconstruction chamfer {c_hi}");
    }

    #[test]
    fn model_free_roundtrip() {
        let scene = scene();
        let mut p = KeypointPipeline::new(
            KeypointConfig { resolution: 48, mode: ReconstructionMode::ModelFree, ..Default::default() },
            9,
        );
        let enc = p.encode(&scene.frame(1)).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Mesh(mesh) = &rec.content else { panic!() };
        assert!(mesh.face_count() > 1000);
    }

    /// Under `traced`, a decode adds its extraction's counts to the
    /// thread's counters: those of extracting the same body again.
    #[test]
    fn a_traced_decode_counts_its_extraction() {
        let scene = scene();
        let mut p = pipeline(48);
        let enc = p.encode(&scene.frame(0)).unwrap();
        holo_trace::traced(|| p.decode(&enc.payload)).unwrap();
        let count = |name: &str| holo_trace::with_recorder(|r| r.metrics.counter_value(&format!("mesh.extract.{name}")));
        let pose = PosePayload::from_bytes(&lzma_decompress(&enc.payload).unwrap()).unwrap();
        let sdf = BodySdf::from_pose(&Skeleton::neutral(), &pose.params, SurfaceDetail::bare());
        let (_, stats) = sparse_extract_with_stats(&sdf, 48, 0.03);
        assert_eq!(count("field_evals"), stats.field_evals);
        assert_eq!(count("cubes_visited"), stats.cubes_visited);
        assert_eq!(count("triangles_emitted"), stats.triangles_emitted);
        holo_trace::reset();
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut p = pipeline(32);
        assert!(p.decode(&[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn recon_workload_present_and_huge() {
        let scene = scene();
        let mut p = pipeline(128);
        let enc = p.encode(&scene.frame(0)).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let w = rec.recon.gpu.expect("gpu workload");
        // X-Avatar-class reconstruction is petascale per second of video.
        assert!(w.flops > 1e12, "flops {}", w.flops);
    }
}
