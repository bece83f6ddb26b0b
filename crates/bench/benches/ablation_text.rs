//! **Ablation C (§3.3)** — the text pipeline's delta-frame encode and
//! its decode. The delta and global-channel comparisons are facts, made
//! by `holo_bench::ablation_text::facts`.

use holo_bench::bench_scene;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::text::{TextConfig, TextPipeline};
use semholo::SemanticPipeline;
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_text");
    group.sample_size(10);
    let scene = bench_scene(0.5);
    let mut p = TextPipeline::new(TextConfig::default(), 42);
    let f0 = scene.frame(0);
    let _ = p.encode(&f0).unwrap(); // cold start
    let f1 = scene.frame(1);
    group.bench_function("text_encode_delta_frame", |b| b.iter(|| p.encode(black_box(&f1)).unwrap()));
    let enc = p.encode(&f1).unwrap();
    group.bench_function("text_decode_frame", |b| b.iter(|| p.decode(black_box(&enc.payload)).unwrap()));
    group.finish();
}

bench_group!(benches, ablation);
bench_main!(benches);
