//! **Ablation: the amortized gaussian tier** — its hot paths: offline
//! fit, update encode, update decode, and decode + splat posing. The
//! density sweep is facts, made by `holo_bench::ablation_gaussian::facts`.

use holo_bench::bench_scene;
use holo_gaussian::{
    encode_prebuild, fit_avatar, FitConfig, GaussianPipeline, GaussianUpdateConfig,
    GaussianUpdateDecoder, GaussianUpdateEncoder,
};
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::SemanticPipeline;
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gaussian");
    let scene = bench_scene(0.5);
    let frame = scene.frame(2);
    let fit_cfg = FitConfig::default();
    group.sample_size(10);
    group.bench_function("fit_prebuild", |b| {
        b.iter(|| encode_prebuild(&fit_avatar(black_box(&frame), &fit_cfg)))
    });
    let mut p = GaussianPipeline::default();
    let key = p.encode(&frame).expect("prebuild");
    let cfg = GaussianUpdateConfig::default();
    let mut enc = GaussianUpdateEncoder::new(cfg);
    let state = holo_gaussian::AvatarState::from_pose(frame.params.clone());
    let first = enc.encode(&state);
    group.bench_function("update_encode", |b| {
        b.iter(|| {
            let mut e = GaussianUpdateEncoder::new(cfg);
            e.encode(black_box(&state))
        })
    });
    group.bench_function("update_decode", |b| {
        b.iter(|| {
            let mut d = GaussianUpdateDecoder::new();
            d.decode(black_box(&first)).unwrap()
        })
    });
    group.bench_function("decode_and_pose", |b| {
        b.iter(|| p.decode(black_box(&key.payload)).unwrap())
    });
    group.finish();
}

bench_group!(benches, ablation);
bench_main!(benches);
