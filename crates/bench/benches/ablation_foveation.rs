//! **Ablation A (§3.1)** — the foveated pipeline's encode and decode at
//! the default fovea. The radius sweep and the saccade-prediction
//! toggle are facts, made by `holo_bench::ablation_foveation::facts`.

use holo_bench::bench_scene;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::foveated::{FoveatedConfig, FoveatedPipeline};
use semholo::SemanticPipeline;
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_foveation");
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
