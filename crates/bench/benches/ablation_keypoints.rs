//! **Ablation D (§3.1)** — fitting the body model to 100 detected
//! landmarks. The landmark-density sweep is facts, made by
//! `holo_bench::ablation_keypoints::facts`.

use holo_bench::bench_scene;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_keypoints");
    group.sample_size(10);
    let frame = bench_scene(0.5).frame(2);
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 64, ..Default::default() }, 42);
    group.bench_function("fit_100_landmarks", |b| {
        b.iter(|| p.fit_frame(black_box(&frame)).unwrap())
    });
    group.finish();
}

bench_group!(benches, ablation);
bench_main!(benches);
