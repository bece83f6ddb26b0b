//! **Figure 4** — our own CPU reconstruction at resolution 256 (same
//! O(R^2) extraction work as the paper's, analytic field). The modeled
//! device FPS are facts, made by `holo_bench::fig4_fps::facts`;
//! resolution 128 is timed by the repository benchmark's
//! `keypoint_recon` workload.

use holo_bench::bench_scene;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::SemanticPipeline;
use std::hint::black_box;

fn fig4(c: &mut Criterion) {
    let frame = bench_scene(1.0).frame(5);
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 256, ..Default::default() }, 42);
    let payload = p.encode(&frame).unwrap().payload;
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("cpu_reconstruct_res256", |b| b.iter(|| p.decode(black_box(&payload)).unwrap()));
    group.finish();
}

bench_group!(benches, fig4);
bench_main!(benches);
