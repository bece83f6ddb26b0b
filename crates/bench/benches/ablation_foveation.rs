//! **Ablation A (§3.1)** — the foveal-area trade-off and saccade
//! prediction.
//!
//! Paper: "there exists a trade-off between the communication overhead
//! for delivering the 3D mesh for the foveal area and the reconstruction
//! overhead for peripheral regions. A larger foveal area implies a higher
//! bandwidth consumption [but] could alleviate the burden of refining
//! the mesh generated from keypoints." And saccade-landing prediction is
//! proposed to keep the fovea ahead of the eye. This bench sweeps the
//! foveal radius (payload, bandwidth and foveal chamfer at the true
//! gaze, over 6 frames) and toggles prediction (mean gaze aiming error
//! and fovea-miss rate — the eye outside half a 10° fovea — over a 20 s
//! trace).

use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use holo_bench::{bench_scene, mbps_at_30fps};
use semholo::foveated::{FoveatedConfig, FoveatedPipeline};
use semholo::{Content, SemanticPipeline};
use std::hint::black_box;

fn run_radius(radius: f32, predict: bool, frames: usize) -> (f64, f64) {
    let scene = bench_scene(2.0);
    let mut p = FoveatedPipeline::new(
        FoveatedConfig {
            foveal_radius_deg: radius,
            peripheral_resolution: 48,
            predict_saccades: predict,
        },
        2.0,
        42,
    );
    let mut bytes = 0usize;
    let mut chamfer_sum = 0.0f64;
    let mut chamfer_n = 0usize;
    for i in 0..frames {
        let frame = scene.frame(i * 3); // spread over the clip
        let enc = p.encode(&frame).unwrap();
        bytes += enc.payload.len();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Mesh(_) = &rec.content else { unreachable!() };
        let q = p.quality(&frame, &rec.content);
        if let Some(c) = q.chamfer {
            if c.is_finite() {
                chamfer_sum += c as f64;
                chamfer_n += 1;
            }
        }
    }
    (bytes as f64 / frames as f64, chamfer_sum / chamfer_n.max(1) as f64)
}

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_foveation");
    let mut prev_bytes = 0.0;
    let mut results = Vec::new();
    for radius in [4u8, 8, 12, 20, 30] {
        let (bytes, chamfer) = run_radius(radius as f32, true, 6);
        group.fact(format!("payload/radius{radius}"), bytes, "bytes");
        group.fact(format!("bandwidth/radius{radius}"), mbps_at_30fps(bytes as usize), "Mbps");
        group.fact(format!("foveal_chamfer/radius{radius}"), chamfer * 1000.0, "mm");
        assert!(bytes >= prev_bytes * 0.8, "bandwidth should broadly grow with radius");
        prev_bytes = bytes;
        results.push((radius, bytes, chamfer));
    }
    // Trade-off shape: the largest fovea costs the most bandwidth.
    assert!(results.last().unwrap().1 > results.first().unwrap().1, "bandwidth must grow with radius");

    // Saccade prediction on/off: measure the *gaze aiming error* (the
    // angular distance between the fovea the sender encoded and where the
    // eye actually is at display time) densely across a long trace, and
    // the resulting fovea-miss rate. Prediction only matters during
    // saccades, so the dense sampling is what exposes it.
    let fovea_deg = 10.0f32;
    let aim = |predict: bool| -> (f64, f64) {
        let mut p = FoveatedPipeline::new(
            FoveatedConfig { foveal_radius_deg: fovea_deg, predict_saccades: predict, ..Default::default() },
            20.0,
            42,
        );
        let display_delay = 0.05f32; // extract + network + recon headroom
        let mut err_sum = 0.0f64;
        let mut misses = 0usize;
        let n = 600; // 20 s at 30 FPS
        for i in 0..n {
            let t = i as f32 / 30.0;
            let aimed = p.predicted_gaze_at(t);
            let actual = p.true_gaze_at(t + display_delay);
            let e = aimed.distance(actual) as f64;
            err_sum += e;
            if e > fovea_deg as f64 * 0.5 {
                misses += 1;
            }
        }
        (err_sum / n as f64, misses as f64 / n as f64)
    };
    let (err_with, miss_with) = aim(true);
    let (err_without, miss_without) = aim(false);
    group.fact("aim_error/with_prediction", err_with, "deg");
    group.fact("aim_error/without_prediction", err_without, "deg");
    group.fact("fovea_miss/with_prediction", miss_with * 100.0, "%");
    group.fact("fovea_miss/without_prediction", miss_without * 100.0, "%");
    assert!(
        err_with <= err_without * 1.05,
        "prediction must not clearly increase aiming error: {err_with} vs {err_without}"
    );
    assert!(
        miss_with <= miss_without,
        "prediction must not increase the fovea-miss rate: {miss_with} vs {miss_without}"
    );

    group.sample_size(10);
    let scene = bench_scene(1.0);
    let mut p = FoveatedPipeline::new(FoveatedConfig::default(), 1.0, 42);
    let frame = scene.frame(2);
    group.bench_function("foveated_encode", |b| b.iter(|| p.encode(black_box(&frame)).unwrap()));
    let enc = p.encode(&frame).unwrap();
    group.bench_function("foveated_decode", |b| b.iter(|| p.decode(black_box(&enc.payload)).unwrap()));
    group.finish();
}

bench_group!(benches, ablation);
bench_main!(benches);
