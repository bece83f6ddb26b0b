//! **Fleet capacity** — the full monotone search for keypoint rooms on
//! a 2-node fleet. The subscribers-vs-nodes curve and its bottleneck
//! labels are facts, made by `holo_bench::fleet_capacity::facts`.

use holo_bench::fleet_capacity::{make_pipeline, scene, search};
use holo_fleet::fleet_capacity;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use std::hint::black_box;

fn fleet_capacity_bench(c: &mut Criterion) {
    let scene = scene();
    let mut group = c.benchmark_group("fleet_capacity");
    group.sample_size(10);
    group.bench_function("search_2node_keypoint", |b| {
        b.iter(|| {
            let cfg = search(2, 1);
            let make = |room: usize| make_pipeline("keypoint", room);
            black_box(fleet_capacity(&cfg, &scene, &make).unwrap().max_rooms)
        })
    });
    group.finish();
}

bench_group!(benches, fleet_capacity_bench);
bench_main!(benches);
