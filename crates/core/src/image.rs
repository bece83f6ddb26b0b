//! Image-based semantics (§3.2): NeRF over delivered 2D views.
//!
//! Sender: render the participant from the rig's viewpoints at a
//! bandwidth-adapted resolution, compress each view with the block
//! texture codec, and ship them. Receiver: keep a user-specific NeRF that
//! was pre-trained in a cold-start session and *fine-tune* it on each
//! frame's views (never retrain from scratch — the §3.2 proposal), then
//! render the viewer's novel viewpoint. Rate adaptation couples the view
//! resolution to a slimmable sub-network width (the §3.2 ladder).

use crate::error::{reject_decode, Result, SemHoloError};
use crate::scene::SceneFrame;
use crate::semantics::{Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline, StageCost};
use holo_runtime::bytes::Bytes;
use holo_capture::camera::{Camera, CameraIntrinsics};
use holo_capture::noise::DepthNoiseModel;
use holo_capture::render::{render_rgbd, ShadingConfig};
use holo_compress::primitives::{read_varint, write_varint};
use holo_compress::texture::{Texture, TextureCodec};
use holo_gpu::Workload;
use holo_math::{Pcg32, Vec3};
use holo_neural::nerf::{NerfField, VolumeRenderer};
use holo_neural::train::{psnr, RayDataset, TrainConfig, Trainer};

/// Number of sender views per frame.
const VIEWS: usize = 2;
/// Modeled CPU time of an extract (render and compress the views): its
/// median release-build wall time on a two-vCPU x86 box. The stage is
/// CPU-only, so rooms and sessions charge this figure in virtual time
/// (see [`StageCost`]).
const EXTRACT_CPU: std::time::Duration = std::time::Duration::from_micros(700);
/// Volume samples per ray.
const RAY_SAMPLES: usize = 8;

/// Image pipeline configuration. Defaults are laptop-scale tiny; the
/// structure (not the pixel count) is what reproduces §3.2.
#[derive(Debug, Clone)]
pub struct ImageConfig {
    /// Resolution ladder (square view side lengths), ascending.
    pub ladder: Vec<(u32, usize)>,
    /// Fine-tune steps per frame.
    pub finetune_steps: usize,
    /// Cold-start pre-training steps.
    pub pretrain_steps: usize,
}

impl Default for ImageConfig {
    fn default() -> Self {
        Self {
            // (resolution, slimmable width) rungs.
            ladder: vec![(12, 8), (16, 16), (24, 24)],
            finetune_steps: 12,
            pretrain_steps: 250,
        }
    }
}

/// The image-semantics pipeline.
pub struct ImagePipeline {
    /// Configuration.
    pub config: ImageConfig,
    field: NerfField,
    trainer: Trainer,
    train_cfg: TrainConfig,
    pretrained: bool,
    bandwidth_hint: f64,
    rung: usize,
    cam_rng: Pcg32,
    /// Cumulative field queries (drives the GPU model).
    pub total_queries: u64,
}

impl ImagePipeline {
    /// Build the pipeline.
    pub fn new(config: ImageConfig, seed: u64) -> Self {
        let mut rng = Pcg32::with_stream(seed, 0x4E46);
        let field = NerfField::new(4, 32, 3, &mut rng);
        let renderer = VolumeRenderer::new(RAY_SAMPLES, Vec3::ZERO);
        let trainer = Trainer::new(renderer, seed ^ 0x11);
        let train_cfg = TrainConfig { steps: config.finetune_steps, batch: 24, lr: 2e-3, t_near: 0.8, t_far: 4.2 };
        Self {
            config,
            field,
            trainer,
            train_cfg,
            pretrained: false,
            bandwidth_hint: f64::INFINITY,
            rung: 0,
            cam_rng: Pcg32::with_stream(seed, 0x4E47),
            total_queries: 0,
        }
    }

    /// Feed the latest bandwidth prediction (bps); the next frame's
    /// resolution rung adapts to it.
    pub fn set_bandwidth_hint(&mut self, bps: f64) {
        self.bandwidth_hint = bps;
    }

    fn pick_rung(&mut self, fps: f64) -> usize {
        // Choose the highest rung whose compressed bitrate fits 80% of
        // the hint.
        let mut chosen = 0;
        for (i, &(res, _)) in self.config.ladder.iter().enumerate() {
            let bytes = TextureCodec::compressed_size(res, res) * VIEWS;
            let bps = bytes as f64 * 8.0 * fps;
            if bps <= self.bandwidth_hint * 0.8 {
                chosen = i;
            }
        }
        self.rung = chosen;
        chosen
    }

    /// Cameras used by the sender (ring positions; square images at the
    /// rung resolution). The receiver derives the same set from the
    /// header, so no camera data crosses the wire.
    fn view_cameras(&self, res: u32, n: usize) -> Vec<Camera> {
        (0..n)
            .map(|i| {
                let theta = std::f32::consts::TAU * i as f32 / n.max(1) as f32 + 0.35;
                let eye = Vec3::new(2.0 * theta.cos(), 1.3, 2.0 * theta.sin());
                Camera::look_at(CameraIntrinsics::from_fov(res, res, 0.9), eye, Vec3::new(0.0, 1.1, 0.0))
            })
            .collect()
    }

    /// The held-out novel viewpoint the receiver renders for the viewer.
    pub fn novel_camera(&self, res: u32) -> Camera {
        Camera::look_at(
            CameraIntrinsics::from_fov(res, res, 0.9),
            Vec3::new(1.4, 1.6, 1.4),
            Vec3::new(0.0, 1.1, 0.0),
        )
    }

    /// Render a ground-truth image from a camera (shared by sender
    /// encode and quality evaluation).
    fn gt_view(&mut self, frame: &SceneFrame, cam: &Camera) -> Texture {
        let sdf = frame.ground_truth_sdf();
        render_rgbd(&sdf, cam, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut self.cam_rng).color
    }
}

impl SemanticPipeline for ImagePipeline {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Image
    }

    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame> {
        let timer = holo_trace::WallTimer::start();
        let fps = frame.context.config.fps as f64;
        let rung = self.pick_rung(fps);
        let (res, _) = self.config.ladder[rung];
        let cams = self.view_cameras(res, VIEWS);
        let mut payload = Vec::new();
        write_varint(&mut payload, rung as u32);
        write_varint(&mut payload, VIEWS as u32);
        for cam in &cams {
            let img = self.gt_view(frame, cam);
            let compressed = TextureCodec::compress(&img);
            write_varint(&mut payload, compressed.len() as u32);
            payload.extend_from_slice(&compressed);
        }
        timer.stop("pipeline.image.extract_us");
        Ok(EncodedFrame {
            payload: Bytes::from(payload),
            extract: StageCost { cpu_wall: EXTRACT_CPU, gpu: None },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed> {
        let timer = holo_trace::WallTimer::start();
        let (rung, mut pos) = read_varint(payload).ok_or_else(|| SemHoloError::Codec("no rung".into()))?;
        let rung = (rung as usize).min(self.config.ladder.len() - 1);
        let (nviews, used) =
            read_varint(&payload[pos..]).ok_or_else(|| SemHoloError::Codec("no view count".into()))?;
        pos += used;
        let (res, width) = self.config.ladder[rung];
        let cams = self.view_cameras(res, nviews as usize);
        let mut views = Vec::with_capacity(nviews as usize);
        for cam in cams {
            let (len, used) =
                read_varint(&payload[pos..]).ok_or_else(|| SemHoloError::Codec("no view len".into()))?;
            pos += used;
            let end = pos + len as usize;
            if end > payload.len() {
                return Err(SemHoloError::Codec("truncated view".into()));
            }
            let tex = TextureCodec::decompress(&payload[pos..end]).map_err(reject_decode)?;
            pos = end;
            views.push((cam, tex));
        }
        // Slimmable width follows the rung.
        self.field.set_active_width(width);
        let data = RayDataset::from_views(&views);
        let steps = if self.pretrained {
            self.config.finetune_steps
        } else {
            self.pretrained = true;
            self.config.pretrain_steps
        };
        let cfg = TrainConfig { steps, ..self.train_cfg };
        let stats = self.trainer.train(&mut self.field, &data, &cfg);
        self.total_queries += stats.field_queries;
        // Render the novel view for the local viewer.
        let novel = self.novel_camera(res);
        let view = self.trainer.render_image(&self.field, &novel, &cfg);
        // Model the *production-scale* cost of this stage: the same step
        // count, but with the batch size (4096 rays), samples per ray
        // (96), headset-resolution novel view (1024^2), and MLP size
        // (130 kFLOP/query, the X-Avatar-class network of holo-gpu's
        // calibration) a deployed system would use. Our tiny substitute
        // runs the same algorithm at a fraction of the arithmetic.
        const PROD_BATCH: f64 = 4096.0;
        const PROD_SAMPLES: f64 = 96.0;
        const PROD_VIEW: f64 = 1024.0 * 1024.0;
        const PROD_FLOPS_PER_QUERY: f64 = 130e3;
        let ft_queries = steps as f64 * PROD_BATCH * PROD_SAMPLES * 3.0; // fwd+bwd
        let render_queries = PROD_VIEW * PROD_SAMPLES;
        let flops = (ft_queries + render_queries) * PROD_FLOPS_PER_QUERY;
        let workload = Workload {
            flops,
            bytes: flops * 0.02,
            peak_memory: 6 * (1u64 << 30),
        };
        Ok(Reconstructed {
            content: Content::View(view),
            recon: StageCost {
                cpu_wall: timer.stop("pipeline.image.recon_us"),
                gpu: Some(workload),
            },
        })
    }

    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport {
        let Content::View(view) = content else {
            return QualityReport::default();
        };
        let cam = self.novel_camera(view.width);
        let gt = self.gt_view(frame, &cam);
        QualityReport { psnr_db: Some(psnr(&gt, view)), ..Default::default() }
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

    fn pipeline() -> ImagePipeline {
        ImagePipeline::new(
            ImageConfig { pretrain_steps: 120, finetune_steps: 8, ..Default::default() },
            5,
        )
    }

    #[test]
    fn encode_emits_compressed_views() {
        let scene = scene();
        let mut p = pipeline();
        let enc = p.encode(&scene.frame(0)).unwrap();
        // 2 views at 12x12 (low rung since no bandwidth hint -> inf -> top rung).
        assert!(enc.payload.len() > 50);
        assert!(enc.payload.len() < 10_000, "payload {} B", enc.payload.len());
    }

    #[test]
    fn abr_rung_tracks_bandwidth() {
        let mut p = pipeline();
        p.set_bandwidth_hint(1e3); // almost nothing
        assert_eq!(p.pick_rung(30.0), 0);
        p.set_bandwidth_hint(1e9);
        assert_eq!(p.pick_rung(30.0), p.config.ladder.len() - 1);
    }

    #[test]
    fn decode_trains_and_renders_novel_view() {
        let scene = scene();
        let mut p = pipeline();
        let frame = scene.frame(0);
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::View(view) = &rec.content else { panic!("expected view") };
        assert!(view.width >= 12);
        assert!(p.total_queries > 0);
        let q = p.quality(&frame, &rec.content);
        assert!(q.psnr_db.unwrap() > 5.0, "novel-view PSNR {:?}", q.psnr_db);
    }

    #[test]
    fn finetune_frames_cheaper_than_cold_start() {
        let scene = scene();
        let mut p = pipeline();
        let f0 = scene.frame(0);
        let enc0 = p.encode(&f0).unwrap();
        let _ = p.decode(&enc0.payload).unwrap();
        let cold_queries = p.total_queries;
        let f1 = scene.frame(1);
        let enc1 = p.encode(&f1).unwrap();
        let _ = p.decode(&enc1.payload).unwrap();
        let warm_queries = p.total_queries - cold_queries;
        assert!(
            warm_queries * 5 < cold_queries,
            "fine-tune {warm_queries} vs cold {cold_queries} queries"
        );
    }

    #[test]
    fn quality_improves_over_frames() {
        let scene = scene();
        let mut p = pipeline();
        let mut last_psnr = 0.0;
        for i in 0..3 {
            let frame = scene.frame(i);
            let enc = p.encode(&frame).unwrap();
            let rec = p.decode(&enc.payload).unwrap();
            last_psnr = p.quality(&frame, &rec.content).psnr_db.unwrap();
        }
        assert!(last_psnr > 8.0, "PSNR after warm-up {last_psnr:.1}");
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut p = pipeline();
        assert!(p.decode(&[0xFF, 0xFF]).is_err() || p.decode(&[0xFF, 0xFF]).is_ok());
        // Specifically a truncated view body:
        let mut payload = Vec::new();
        write_varint(&mut payload, 0);
        write_varint(&mut payload, 1);
        write_varint(&mut payload, 1000);
        payload.push(1);
        assert!(p.decode(&payload).is_err());
    }
}
