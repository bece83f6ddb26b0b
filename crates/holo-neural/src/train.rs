//! NeRF training: datasets, the pre-train / fine-tune loop, PSNR.
//!
//! §3.2's central claim is an optimization-dynamics one: "once a
//! user-specific NeRF model has been trained, there is no need to retrain
//! the model from scratch" — per-frame *fine-tuning* from the pre-trained
//! weights reaches target quality in far fewer steps than training anew.
//! The trainer here makes that claim testable end to end on real
//! gradient descent.

use crate::nerf::{NerfField, VolumeRenderer};
use holo_capture::camera::Camera;
use holo_compress::texture::Texture;
use holo_math::{Pcg32, Ray, Vec3};

/// A supervised ray: origin/direction plus target color.
#[derive(Debug, Clone, Copy)]
pub struct TrainRay {
    /// The camera ray.
    pub ray: Ray,
    /// Ground-truth pixel color in [0, 1].
    pub target: Vec3,
}

/// A set of supervised rays built from posed RGB images.
#[derive(Debug, Clone, Default)]
pub struct RayDataset {
    /// All rays.
    pub rays: Vec<TrainRay>,
}

impl RayDataset {
    /// Build from `(camera, image)` pairs; every pixel becomes a ray.
    pub fn from_views(views: &[(Camera, Texture)]) -> Self {
        let mut rays = Vec::new();
        for (cam, img) in views {
            for y in 0..img.height {
                for x in 0..img.width {
                    let rgb = img.get(x, y);
                    rays.push(TrainRay {
                        ray: cam.pixel_ray(x, y),
                        target: Vec3::new(
                            rgb[0] as f32 / 255.0,
                            rgb[1] as f32 / 255.0,
                            rgb[2] as f32 / 255.0,
                        ),
                    });
                }
            }
        }
        Self { rays }
    }

    /// Number of rays.
    pub fn len(&self) -> usize {
        self.rays.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rays.is_empty()
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Optimization steps.
    pub steps: usize,
    /// Rays per step.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Ray integration interval.
    pub t_near: f32,
    pub t_far: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { steps: 400, batch: 32, lr: 2e-3, t_near: 0.5, t_far: 4.5 }
    }
}

/// Statistics from one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainStats {
    /// Steps executed.
    pub steps: usize,
    /// Mean loss over the last 10% of steps.
    pub final_loss: f32,
    /// Total field queries performed (drives the GPU cost model).
    pub field_queries: u64,
}

/// The trainer.
pub struct Trainer {
    /// The renderer used for supervision.
    pub renderer: VolumeRenderer,
    rng: Pcg32,
}

impl Trainer {
    /// Build with a renderer and seed.
    pub fn new(renderer: VolumeRenderer, seed: u64) -> Self {
        Self { renderer, rng: Pcg32::new(seed) }
    }

    /// Run `cfg.steps` of Adam on the field over the dataset. Used both
    /// for pre-training (many steps) and per-frame fine-tuning (few
    /// steps) — fine-tuning is simply resuming from trained weights.
    pub fn train(&mut self, field: &mut NerfField, data: &RayDataset, cfg: &TrainConfig) -> TrainStats {
        assert!(!data.is_empty(), "empty dataset");
        let mut opt = crate::mlp::Adam::new(&field.mlp, cfg.lr);
        let mut tail_losses = Vec::new();
        let tail_start = cfg.steps - cfg.steps / 10 - 1;
        let mut queries = 0u64;
        for step in 0..cfg.steps {
            field.mlp.zero_grad();
            let mut loss = 0.0;
            for _ in 0..cfg.batch {
                let r = &data.rays[self.rng.index(data.len())];
                loss += self.renderer.render_and_backward(field, &r.ray, cfg.t_near, cfg.t_far, r.target);
                queries += self.renderer.samples as u64;
            }
            opt.step(&mut field.mlp);
            if step >= tail_start {
                tail_losses.push(loss / cfg.batch as f32);
            }
        }
        TrainStats {
            steps: cfg.steps,
            final_loss: tail_losses.iter().sum::<f32>() / tail_losses.len().max(1) as f32,
            field_queries: queries,
        }
    }

    /// Train until the running loss drops below `target_loss` or
    /// `max_steps` is reached; returns steps used. This is the
    /// "steps-to-quality" metric comparing fine-tune vs retrain.
    pub fn train_to_loss(
        &mut self,
        field: &mut NerfField,
        data: &RayDataset,
        cfg: &TrainConfig,
        target_loss: f32,
        max_steps: usize,
    ) -> usize {
        let mut opt = crate::mlp::Adam::new(&field.mlp, cfg.lr);
        let mut running = f32::INFINITY;
        for step in 0..max_steps {
            field.mlp.zero_grad();
            let mut loss = 0.0;
            for _ in 0..cfg.batch {
                let r = &data.rays[self.rng.index(data.len())];
                loss += self.renderer.render_and_backward(field, &r.ray, cfg.t_near, cfg.t_far, r.target);
            }
            opt.step(&mut field.mlp);
            let avg = loss / cfg.batch as f32;
            running = if running.is_finite() { 0.9 * running + 0.1 * avg } else { avg };
            if running < target_loss {
                return step + 1;
            }
        }
        max_steps
    }

    /// Render a full image from the field through a camera.
    pub fn render_image(&self, field: &NerfField, camera: &Camera, cfg: &TrainConfig) -> Texture {
        let k = camera.intrinsics;
        let mut img = Texture::new(k.width, k.height);
        for y in 0..k.height {
            for x in 0..k.width {
                let c = self.renderer.render(field, &camera.pixel_ray(x, y), cfg.t_near, cfg.t_far);
                img.set(x, y, [
                    (c.x.clamp(0.0, 1.0) * 255.0) as u8,
                    (c.y.clamp(0.0, 1.0) * 255.0) as u8,
                    (c.z.clamp(0.0, 1.0) * 255.0) as u8,
                ]);
            }
        }
        img
    }
}

/// PSNR between two equally-sized images, dB.
pub fn psnr(a: &Texture, b: &Texture) -> f64 {
    a.psnr(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_capture::camera::CameraIntrinsics;
    use holo_capture::noise::DepthNoiseModel;
    use holo_capture::render::{render_rgbd, ShadingConfig};
    use holo_mesh::sdf::SdfSphere;

    /// Tiny scene: a sphere captured from a ring of cameras.
    fn scene_views(n: usize, res: u32) -> Vec<(Camera, Texture)> {
        let sdf = SdfSphere { center: Vec3::new(0.0, 0.0, 0.0), radius: 0.6 };
        let mut rng = Pcg32::new(99);
        (0..n)
            .map(|i| {
                let theta = std::f32::consts::TAU * i as f32 / n as f32;
                let eye = Vec3::new(2.0 * theta.cos(), 0.4, 2.0 * theta.sin());
                let cam = Camera::look_at(CameraIntrinsics::from_fov(res, res, 0.9), eye, Vec3::ZERO);
                let frame = render_rgbd(&sdf, &cam, &DepthNoiseModel::none(), &ShadingConfig { skin_above_y: 10.0 }, &mut rng);
                (cam, frame.color)
            })
            .collect()
    }

    #[test]
    fn dataset_from_views() {
        let views = scene_views(2, 8);
        let data = RayDataset::from_views(&views);
        assert_eq!(data.len(), 2 * 64);
    }

    #[test]
    fn training_reduces_loss() {
        let views = scene_views(3, 12);
        let data = RayDataset::from_views(&views);
        let mut rng = Pcg32::new(1);
        let mut field = NerfField::new(4, 24, 3, &mut rng);
        let mut trainer = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 2);
        let cfg = TrainConfig { steps: 60, batch: 16, ..Default::default() };
        let early = trainer.train(&mut field, &data, &cfg);
        let late = trainer.train(&mut field, &data, &TrainConfig { steps: 300, batch: 16, ..Default::default() });
        assert!(
            late.final_loss < early.final_loss * 0.7,
            "loss should fall: {} -> {}",
            early.final_loss,
            late.final_loss
        );
        assert!(late.field_queries > 0);
    }

    #[test]
    fn trained_field_beats_untrained_on_held_out_view() {
        let views = scene_views(4, 12);
        let (held_out, train_views) = views.split_first().unwrap();
        let data = RayDataset::from_views(train_views);
        let mut rng = Pcg32::new(3);
        let mut field = NerfField::new(4, 24, 3, &mut rng);
        let mut trainer = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 4);
        let cfg = TrainConfig { steps: 500, batch: 24, ..Default::default() };
        let before = trainer.render_image(&field, &held_out.0, &cfg);
        let psnr_before = psnr(&before, &held_out.1);
        trainer.train(&mut field, &data, &cfg);
        let after = trainer.render_image(&field, &held_out.0, &cfg);
        let psnr_after = psnr(&after, &held_out.1);
        assert!(
            psnr_after > psnr_before + 2.0,
            "PSNR should improve: {psnr_before:.1} -> {psnr_after:.1}"
        );
        assert!(psnr_after > 10.0, "held-out PSNR {psnr_after:.1}");
    }

    #[test]
    fn fine_tune_needs_fewer_steps_than_retrain() {
        // Pre-train on scene A; scene B differs slightly (sphere moved a
        // little). Fine-tuning A's weights on B must hit the loss target
        // in fewer steps than training from scratch on B.
        let views_a = scene_views(3, 10);
        let sdf_b = SdfSphere { center: Vec3::new(0.12, 0.0, 0.0), radius: 0.6 };
        let mut rng_cap = Pcg32::new(98);
        let views_b: Vec<(Camera, Texture)> = views_a
            .iter()
            .map(|(cam, _)| {
                let f = render_rgbd(&sdf_b, cam, &DepthNoiseModel::none(), &ShadingConfig { skin_above_y: 10.0 }, &mut rng_cap);
                (*cam, f.color)
            })
            .collect();
        let data_a = RayDataset::from_views(&views_a);
        let data_b = RayDataset::from_views(&views_b);
        let cfg = TrainConfig { steps: 400, batch: 24, ..Default::default() };

        let mut rng = Pcg32::new(5);
        let mut pretrained = NerfField::new(4, 24, 3, &mut rng);
        let mut trainer = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 6);
        trainer.train(&mut pretrained, &data_a, &cfg);

        // Determine a reachable loss target from the pretrained model on B.
        let target = 0.02f32;
        let mut fine = pretrained.clone();
        let mut t1 = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 7);
        let fine_steps = t1.train_to_loss(&mut fine, &data_b, &cfg, target, 600);

        let mut scratch = NerfField::new(4, 24, 3, &mut Pcg32::new(55));
        let mut t2 = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 7);
        let scratch_steps = t2.train_to_loss(&mut scratch, &data_b, &cfg, target, 600);

        assert!(
            fine_steps * 2 < scratch_steps + 1,
            "fine-tune {fine_steps} steps vs scratch {scratch_steps}"
        );
    }

    #[test]
    fn psnr_identity() {
        let views = scene_views(1, 8);
        assert!(psnr(&views[0].1, &views[0].1).is_infinite());
    }
}
