//! A [`SemanticPipeline`] adapter for the amortized gaussian tier.
//!
//! The first `encode` runs the offline prebuild (fit + quantized blob)
//! and keeps the *decoded* avatar as the receiver's copy — the receiver
//! reconstructs from the quantized blob it was shipped, so measured
//! quality is honest about quantization loss. Per-frame payloads are
//! only the tiny update stream; the prebuild is exposed as
//! [`GaussianPipeline::prebuild_bytes`] and accounted as startup cost by
//! the amortization report, never as steady-state bandwidth.

use crate::codec::{decode_prebuild, encode_prebuild};
use crate::fit::{fit_avatar, FitConfig};
use crate::splat::{AvatarState, GaussianAvatar};
use crate::update::{GaussianUpdateConfig, GaussianUpdateDecoder, GaussianUpdateEncoder};
use holo_body::skeleton::Skeleton;
use holo_gpu::Workload;
use holo_runtime::bytes::Bytes;
use semholo::error::{reject_decode, Result, SemHoloError};
use semholo::scene::SceneFrame;
use semholo::semantics::{
    cloud_quality, Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind,
    SemanticPipeline, StageCost,
};
use holo_trace::WallTimer;

/// The gaussian-tier pipeline: prebuilt splat avatar + update stream.
pub struct GaussianPipeline {
    /// Offline fitting configuration.
    pub fit: FitConfig,
    /// Ground-truth reference resolution for quality metrics.
    pub quality_reference_resolution: u32,
    avatar: Option<GaussianAvatar>,
    prebuild_bytes: usize,
    encoder: GaussianUpdateEncoder,
    decoder: GaussianUpdateDecoder,
    skeleton: Skeleton,
}

impl GaussianPipeline {
    /// Build the pipeline.
    pub fn new(fit: FitConfig, update: GaussianUpdateConfig) -> Self {
        Self {
            fit,
            quality_reference_resolution: 96,
            avatar: None,
            prebuild_bytes: 0,
            encoder: GaussianUpdateEncoder::new(update),
            decoder: GaussianUpdateDecoder::new(),
            skeleton: Skeleton::neutral(),
        }
    }

    /// Size of the one-time prebuild blob (0 before the first encode).
    pub fn prebuild_bytes(&self) -> usize {
        self.prebuild_bytes
    }

    /// The receiver-side avatar, once prebuilt.
    pub fn avatar(&self) -> Option<&GaussianAvatar> {
        self.avatar.as_ref()
    }

    fn ensure_prebuild(&mut self, frame: &SceneFrame) -> Result<()> {
        if self.avatar.is_some() {
            return Ok(());
        }
        let fitted = fit_avatar(frame, &self.fit);
        if fitted.splats.is_empty() {
            return Err(SemHoloError::Extraction("gaussian fit produced no splats".into()));
        }
        let blob = encode_prebuild(&fitted);
        self.prebuild_bytes = blob.len();
        // Keep what the receiver would decode from the shipped blob.
        self.avatar = Some(decode_prebuild(&blob).map_err(reject_decode)?);
        Ok(())
    }
}

impl Default for GaussianPipeline {
    fn default() -> Self {
        Self::new(FitConfig::default(), GaussianUpdateConfig::default())
    }
}

impl SemanticPipeline for GaussianPipeline {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Gaussian
    }

    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame> {
        let timer = WallTimer::start();
        self.ensure_prebuild(frame)?;
        let state = AvatarState::from_pose(frame.params.clone());
        let payload = self.encoder.encode(&state);
        // Extraction is pose conditioning only — the heavy lifting
        // happened once at prebuild time. Modeled as a light tracker.
        Ok(EncodedFrame {
            payload: Bytes::from(payload),
            extract: StageCost {
                cpu_wall: timer.stop("pipeline.gaussian.extract_us"),
                gpu: Some(Workload { flops: 2.0e9, bytes: 8.0e6, peak_memory: 64 << 20 }),
            },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed> {
        let timer = WallTimer::start();
        let avatar = self
            .avatar
            .as_ref()
            .ok_or_else(|| SemHoloError::Reconstruction("no prebuilt avatar for update".into()))?;
        let state = self.decoder.decode(payload).map_err(reject_decode)?;
        let cloud = avatar.posed_cloud(&self.skeleton, &state);
        // Splat rasterization is linear in splat count — orders of
        // magnitude below the implicit-surface reconstruction the
        // keypoint tier pays every frame.
        let n = avatar.splats.len() as f64;
        Ok(Reconstructed {
            content: Content::Cloud(cloud),
            recon: StageCost {
                cpu_wall: timer.stop("pipeline.gaussian.recon_us"),
                gpu: Some(Workload {
                    flops: n * 4.0e3,
                    bytes: n * 96.0,
                    peak_memory: (self.prebuild_bytes as u64 * 4).max(16 << 20),
                }),
            },
        })
    }

    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport {
        let Content::Cloud(cloud) = content else {
            return QualityReport::default();
        };
        let gt = frame.ground_truth_mesh(self.quality_reference_resolution);
        cloud_quality(&gt, cloud, frame.context.config.seed ^ frame.index as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semholo::config::SemHoloConfig;
    use semholo::scene::SceneSource;

    fn scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        SceneSource::new(&config, 0.5)
    }

    #[test]
    fn prebuild_is_big_and_updates_are_tiny() {
        let scene = scene();
        let mut p = GaussianPipeline::default();
        let first = p.encode(&scene.frame(0)).unwrap();
        assert!(p.prebuild_bytes() > 5_000, "prebuild {} B", p.prebuild_bytes());
        // Keyframe update is small; deltas are smaller still.
        assert!(first.payload.len() < 4096, "keyframe update {} B", first.payload.len());
        let second = p.encode(&scene.frame(1)).unwrap();
        assert!(second.payload.len() < 1024, "delta update {} B", second.payload.len());
        assert!(second.payload.len() < p.prebuild_bytes() / 20);
    }

    #[test]
    fn roundtrip_reconstructs_a_body_shaped_cloud() {
        let scene = scene();
        let mut p = GaussianPipeline::default();
        let enc = p.encode(&scene.frame(0)).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Cloud(cloud) = &rec.content else { panic!("expected cloud") };
        assert!(cloud.points.len() > 200, "points {}", cloud.points.len());
        let size = cloud.bounds().size();
        assert!(size.y > 1.0 && size.y < 2.5, "body height {size:?}");
        assert!(rec.recon.gpu.is_some());
    }

    #[test]
    fn quality_is_reasonable_for_a_splat_cloud() {
        // A denser rig than the other tests: quality of a splat cloud is
        // capture-resolution-bound, and this is the paper-bench rig.
        let config = SemHoloConfig {
            capture_resolution: (96, 72),
            camera_count: 4,
            ..Default::default()
        };
        let scene = SceneSource::new(&config, 0.5);
        let frame = scene.frame(0);
        let mut p =
            GaussianPipeline { quality_reference_resolution: 64, ..Default::default() };
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let q = p.quality(&frame, &rec.content);
        let chamfer = q.chamfer.unwrap();
        assert!(chamfer < 0.12, "chamfer {chamfer}");
        assert!(q.f_score.unwrap() > 0.25, "f-score {:?}", q.f_score);
    }

    #[test]
    fn decode_without_prebuild_or_with_garbage_fails() {
        let scene = scene();
        let mut p = GaussianPipeline::default();
        assert!(p.decode(&[0x47, 1, 2]).is_err(), "no avatar yet");
        let _ = p.encode(&scene.frame(0)).unwrap();
        assert!(p.decode(&[0xDE; 16]).is_err(), "garbage magic");
    }
}
