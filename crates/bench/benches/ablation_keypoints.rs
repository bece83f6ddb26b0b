//! **Ablation D (§3.1)** — keypoint count vs. compute vs. quality, and
//! parametric vs. model-free reconstruction.
//!
//! Paper: "an intuitive strategy is to extract more keypoints... it
//! inevitably heightens computational overhead. Moreover, state-of-the-
//! art efforts may not entirely capitalize on the additional information
//! ... because they choose to encode keypoints into parametric human
//! models [with] fixed parameters." The model-free path "directly maps
//! keypoints to 3D mesh [but] functions on a single-frame basis...
//! yielding temporal discontinuity". This bench sweeps landmark density
//! through both reconstruction modes and additionally measures temporal
//! jitter (frame-to-frame surface motion with a static true pose).

use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use holo_bench::{bench_scene, report, report_header};
use holo_body::landmarks::StandardLandmarks;
use holo_keypoints::detector::KeypointDetector;
use semholo::keypoint::{KeypointConfig, KeypointPipeline, ReconstructionMode};
use semholo::{Content, SemanticPipeline};
use std::hint::black_box;

fn run(landmarks: StandardLandmarks, mode: ReconstructionMode) -> (usize, f64, f64, f64) {
    let scene = bench_scene(1.0);
    let frame = scene.frame(4);
    let mut p = KeypointPipeline::new(
        KeypointConfig { resolution: 96, landmarks, mode, ..Default::default() },
        42,
    );
    let enc = p.encode(&frame).unwrap();
    let rec = p.decode(&enc.payload).unwrap();
    let q = p.quality(&frame, &rec.content);
    let gflops = KeypointDetector::gflops_per_frame(landmarks.count());
    // Temporal jitter: re-encode the same true pose twice (detector noise
    // differs) and measure how much the reconstructed surface moves.
    let enc2 = p.encode(&frame).unwrap();
    let rec2 = p.decode(&enc2.payload).unwrap();
    let (Content::Mesh(m1), Content::Mesh(m2)) = (&rec.content, &rec2.content) else {
        unreachable!()
    };
    let jitter = holo_mesh::metrics::compare_meshes(m1, m2, 2000, 0.01, 3).chamfer;
    (enc.payload.len(), q.chamfer.unwrap() as f64 * 1000.0, gflops, jitter as f64 * 1000.0)
}

fn ablation(c: &mut Criterion) {
    report_header("Ablation D: keypoint count x reconstruction mode (resolution 96)");
    report(&format!(
        "{:>12} {:>12} {:>12} {:>14} {:>14} {:>14}",
        "landmarks", "mode", "payload(B)", "chamfer(mm)", "extract GFLOP", "jitter(mm)"
    ));
    let presets = [
        StandardLandmarks::Sparse25,
        StandardLandmarks::Joints55,
        StandardLandmarks::Standard100,
        StandardLandmarks::Dense144,
        StandardLandmarks::Dense244,
    ];
    let mut parametric_quality = Vec::new();
    for &preset in &presets {
        let (bytes, chamfer, gflops, jitter) = run(preset, ReconstructionMode::Parametric);
        report(&format!(
            "{:>12} {:>12} {:>12} {:>14.2} {:>14.1} {:>14.2}",
            format!("{:?}", preset),
            "parametric",
            bytes,
            chamfer,
            gflops,
            jitter
        ));
        parametric_quality.push(chamfer);
    }
    // Model-free at the same densities (only valid with >= 55 joints).
    let mut modelfree_jitter = Vec::new();
    let mut parametric_jitter = Vec::new();
    for &preset in &presets[1..] {
        let (bytes, chamfer, gflops, jitter) = run(preset, ReconstructionMode::ModelFree);
        report(&format!(
            "{:>12} {:>12} {:>12} {:>14.2} {:>14.1} {:>14.2}",
            format!("{:?}", preset),
            "model-free",
            bytes,
            chamfer,
            gflops,
            jitter
        ));
        modelfree_jitter.push(jitter);
        let (_, _, _, pj) = run(preset, ReconstructionMode::Parametric);
        parametric_jitter.push(pj);
    }
    // Paper-shape claims:
    // (1) extraction compute grows with keypoint count.
    let g25 = KeypointDetector::gflops_per_frame(25);
    let g244 = KeypointDetector::gflops_per_frame(244);
    assert!(g244 > g25, "compute must grow with keypoints");
    // (2) the parametric model caps the benefit of extra keypoints: going
    // from 100 to 244 landmarks barely moves quality.
    let q100 = parametric_quality[2];
    let q244 = parametric_quality[4];
    report(&format!(
        "parametric cap: 100 -> 244 landmarks changes chamfer by {:.1}% (paper: fixed parameters limit gains)",
        ((q100 - q244) / q100 * 100.0).abs()
    ));
    // (3) model-free inherits detector jitter: its frame-to-frame surface
    // motion exceeds the parametric path's.
    let mf = modelfree_jitter.iter().sum::<f64>() / modelfree_jitter.len() as f64;
    let pm = parametric_jitter.iter().sum::<f64>() / parametric_jitter.len() as f64;
    report(&format!(
        "temporal jitter: model-free {mf:.2} mm vs parametric {pm:.2} mm (paper: temporal discontinuity)"
    ));

    let mut group = c.benchmark_group("ablation_keypoints");
    group.sample_size(10);
    let scene = bench_scene(0.5);
    let frame = scene.frame(2);
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 64, ..Default::default() }, 42);
    group.bench_function("fit_100_landmarks", |b| {
        b.iter(|| p.fit_frame(black_box(&frame)).unwrap())
    });
    group.finish();
}

bench_group!(benches, ablation);
bench_main!(benches);
