//! **Table 1** — one encode per pipeline class, after the same warm-up
//! and frame-4 round trip the facts take. The taxonomy's quantities and
//! grades are facts, made by `holo_bench::table1_taxonomy::facts`.

use holo_bench::table1_taxonomy::{measure, pipeline, scene};
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use std::hint::black_box;

fn table1(c: &mut Criterion) {
    let scene = scene();
    let frame = scene.frame(6);
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for row in ["keypoint", "gaussian", "text", "traditional"] {
        let mut p = pipeline(row);
        measure(p.as_mut(), &scene);
        group.bench_function(format!("{row}_encode"), |b| b.iter(|| p.encode(black_box(&frame)).unwrap()));
    }
    group.finish();
}

bench_group!(benches, table1);
bench_main!(benches);
