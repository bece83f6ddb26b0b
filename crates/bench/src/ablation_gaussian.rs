//! **Ablation: the amortized gaussian tier** — prebuild density vs.
//! quality vs. startup bytes, and what the update stream costs.
//!
//! The fourth tier's defining trade is *where the bytes live*: the
//! prebuild blob carries all geometry (its size scales with splat
//! density), while the per-frame update stream carries only pose and
//! region conditioning (its size does not). This recipe sweeps the fit
//! voxel size to map prebuild bytes against reconstruction quality and
//! shows the update stream is density-invariant.

use crate::{bench_scene, mbps_at_30fps, Facts};
use holo_gaussian::{FitConfig, GaussianPipeline, GaussianUpdateConfig};
use semholo::SemanticPipeline;

fn sweep_density() -> Vec<(f32, usize, usize, f64, usize)> {
    let scene = bench_scene(0.5);
    let mut rows = Vec::new();
    for voxel in [0.04f32, 0.025, 0.015, 0.01] {
        let fit = FitConfig { voxel_size: voxel };
        let mut p = GaussianPipeline::new(fit, GaussianUpdateConfig::default());
        p.quality_reference_resolution = 64;
        let frame = scene.frame(0);
        let key = p.encode(&frame).expect("prebuild");
        let _ = p.decode(&key.payload).expect("sync the delta chain");
        let update = p.encode(&scene.frame(4)).expect("update");
        let rec = p.decode(&update.payload).expect("decode");
        let chamfer = p.quality(&scene.frame(4), &rec.content).chamfer.unwrap_or(f64::NAN as f32);
        rows.push((
            voxel,
            p.avatar().map(|a| a.splats.len()).unwrap_or(0),
            p.prebuild_bytes(),
            chamfer as f64 * 1000.0,
            update.payload.len(),
        ));
    }
    rows
}

/// `BENCH_ablation_gaussian.json`.
pub fn facts() -> String {
    let mut facts = Facts::new("ablation_gaussian", "ablation_gaussian");
    let rows = sweep_density();
    for (voxel, splats, prebuild, chamfer, update) in &rows {
        let voxel = format!("voxel{:.0}mm", voxel * 1000.0);
        facts.fact(format!("splats/{voxel}"), splats, "count");
        facts.fact(format!("prebuild/{voxel}"), prebuild, "bytes");
        facts.fact(format!("chamfer/{voxel}"), chamfer, "mm");
        facts.fact(format!("update/{voxel}"), update, "bytes");
    }
    // Paper-shape claims:
    // (1) density costs startup bytes, never steady-state — and near
    // the capture resolution (the rig fuses at 15 mm) it stops buying
    // anything: quality is capture-bound. Voxels 2.7x the capture's
    // give up a little (under 15%); from 25 mm down the chamfer is flat
    // (within 5%) while the prebuild still grows.
    let coarse = &rows[0];
    let dense = rows.last().unwrap();
    assert!(dense.2 > coarse.2 + coarse.2 / 2, "denser fit must grow the prebuild");
    assert!(
        (dense.3 - coarse.3).abs() < coarse.3 * 0.15,
        "splat-cloud quality is capture-bound; density must barely move it: {:.1} vs {:.1} mm",
        dense.3,
        coarse.3
    );
    let near_capture = &rows[1];
    assert!(dense.2 > near_capture.2, "the prebuild must still grow where quality has gone flat");
    assert!(
        (dense.3 - near_capture.3).abs() < near_capture.3 * 0.05,
        "near the capture resolution density must not move quality: {:.1} vs {:.1} mm",
        dense.3,
        near_capture.3
    );
    // (2) the update stream is density-invariant: its payload carries
    // pose + region conditioning, not geometry.
    assert!(
        dense.4.abs_diff(coarse.4) <= 8,
        "update bytes must not scale with splat count: {} vs {}",
        dense.4,
        coarse.4
    );
    facts.fact("prebuild_growth", dense.2 as f64 / coarse.2 as f64, "ratio");
    facts.fact("update_bandwidth", mbps_at_30fps(dense.4), "Mbps");
    facts.render()
}
