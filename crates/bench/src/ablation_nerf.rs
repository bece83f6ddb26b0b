//! **Ablation B (§3.2)** — fine-tune vs. retrain, and slimmable widths.
//!
//! Paper proposals: (1) "once a user-specific NeRF model has been
//! trained, there is no need to retrain the model from scratch" — per-
//! frame fine-tuning should reach target quality in far fewer steps;
//! (2) slimmable sub-networks trade reconstruction quality for speed so
//! the model width can follow the delivered image resolution.
//!
//! Part 1 counts the steps a pre-trained field and a fresh one need to
//! reach loss 0.02 on the next frame; part 2 sandwich-trains one weight
//! set at widths 8, 16 and 48 and records held-out PSNR and FLOPs per
//! query at each width.

use crate::Facts;
use holo_capture::camera::{Camera, CameraIntrinsics};
use holo_capture::noise::DepthNoiseModel;
use holo_capture::render::{render_rgbd, ShadingConfig};
use holo_compress::texture::Texture;
use holo_math::{Pcg32, Vec3};
use holo_mesh::sdf::SdfSphere;
use holo_neural::nerf::{NerfField, VolumeRenderer};
use holo_neural::train::{psnr, RayDataset, TrainConfig, Trainer};

/// The training schedule of both parts.
const TRAIN: TrainConfig = TrainConfig { steps: 400, batch: 24, lr: 2e-3, t_near: 0.5, t_far: 4.5 };

/// Image side of every view, pixels.
const RES: u32 = 12;

/// The widths part 2 trains and compares.
const WIDTHS: [usize; 3] = [8, 16, 48];

/// Views of a sphere scene whose center moves frame to frame (the
/// "changed pixels" of a live stream).
fn scene_views(center: Vec3, n: usize, res: u32, seed: u64) -> Vec<(Camera, Texture)> {
    let sdf = SdfSphere { center, radius: 0.55 };
    let mut rng = Pcg32::new(seed);
    (0..n)
        .map(|i| {
            let theta = std::f32::consts::TAU * i as f32 / n as f32;
            let eye = Vec3::new(2.0 * theta.cos(), 0.4, 2.0 * theta.sin());
            let cam = Camera::look_at(CameraIntrinsics::from_fov(res, res, 0.9), eye, Vec3::ZERO);
            let frame = render_rgbd(
                &sdf,
                &cam,
                &DepthNoiseModel::none(),
                &ShadingConfig { skin_above_y: 10.0 },
                &mut rng,
            );
            (cam, frame.color)
        })
        .collect()
}

/// `BENCH_ablation_nerf.json`.
pub fn facts() -> String {
    let mut facts = Facts::new("ablation_nerf", "ablation_nerf");
    let cfg = TRAIN;

    // --- Part 1: fine-tune vs retrain. ---
    let frame_a = RayDataset::from_views(&scene_views(Vec3::ZERO, 3, RES, 1));
    let frame_b = RayDataset::from_views(&scene_views(Vec3::new(0.12, 0.0, 0.0), 3, RES, 1));
    let mut pre = NerfField::new(4, 24, 3, &mut Pcg32::new(5));
    let mut trainer = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 6);
    trainer.train(&mut pre, &frame_a, &cfg);
    let target_loss = 0.02f32;
    let mut fine = pre.clone();
    let fine_steps = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 7)
        .train_to_loss(&mut fine, &frame_b, &cfg, target_loss, 800);
    let mut scratch = NerfField::new(4, 24, 3, &mut Pcg32::new(55));
    let scratch_steps = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 7)
        .train_to_loss(&mut scratch, &frame_b, &cfg, target_loss, 800);
    facts.fact("steps_to_loss/fine_tune", fine_steps, "steps");
    facts.fact("steps_to_loss/retrain", scratch_steps, "steps");
    facts.fact("retrain_over_fine_tune", scratch_steps as f64 / fine_steps.max(1) as f64, "ratio");
    assert!(fine_steps * 2 < scratch_steps + 1, "fine-tuning must be much cheaper");

    // --- Part 2: slimmable widths. ---
    // Train one weight set sandwich-style: 1 200 steps of 16 rays, each
    // step at the next width in turn. Then compare quality and cost per
    // width — the §3.2 resolution ladder coupling.
    let mut views = scene_views(Vec3::ZERO, 4, RES, 2);
    let held_out = views.remove(0);
    let data = RayDataset::from_views(&views);
    let mut field = NerfField::new(4, 48, 3, &mut Pcg32::new(9));
    let mut opt = holo_neural::mlp::Adam::new(&field.mlp, 2e-3);
    let renderer = VolumeRenderer::new(10, Vec3::ZERO);
    let mut rng = Pcg32::new(10);
    for step in 0..1200 {
        field.set_active_width(WIDTHS[step % WIDTHS.len()]);
        field.mlp.zero_grad();
        for _ in 0..16 {
            let r = &data.rays[rng.index(data.len())];
            renderer.render_and_backward(&mut field, &r.ray, cfg.t_near, cfg.t_far, r.target);
        }
        opt.step(&mut field.mlp);
    }
    let t = Trainer::new(VolumeRenderer::new(10, Vec3::ZERO), 11);
    let mut psnrs = Vec::new();
    for &w in &WIDTHS {
        field.set_active_width(w);
        let img = t.render_image(&field, &held_out.0, &cfg);
        let p = psnr(&img, &held_out.1);
        facts.fact(format!("psnr/width{w}"), p, "dB");
        facts.fact(format!("flops_per_query/width{w}"), field.flops_per_query(), "FLOP");
        psnrs.push(p);
    }
    assert!(
        *psnrs.last().unwrap() >= psnrs.first().unwrap() - 1.0,
        "full width must not be clearly worse than the slimmest"
    );
    facts.render()
}
