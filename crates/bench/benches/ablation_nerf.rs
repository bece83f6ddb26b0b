//! **Ablation B (§3.2)** — volume rendering and one fine-tune step of
//! the slimmable field at full width, after the same sandwich training
//! the facts use. Fine-tune vs retrain and the per-width PSNR are facts,
//! made by `holo_bench::ablation_nerf::facts`.

use holo_bench::ablation_nerf::{slimmable, Slimmable, TRAIN};
use holo_math::Vec3;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    let Slimmable { mut field, data, renderer, mut rng, .. } = slimmable();
    let mut group = c.benchmark_group("ablation_nerf");
    group.sample_size(10);
    field.set_active_width(48);
    let ray = holo_math::Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::Z);
    group.bench_function("volume_render_full_width", |b| {
        b.iter(|| renderer.render(black_box(&field), &ray, 0.5, 4.5))
    });
    group.bench_function("finetune_step_batch16", |b| {
        b.iter(|| {
            field.mlp.zero_grad();
            for _ in 0..16 {
                let r = &data.rays[rng.index(data.len())];
                renderer.render_and_backward(&mut field, &r.ray, TRAIN.t_near, TRAIN.t_far, r.target);
            }
        })
    });
    group.finish();
}

bench_group!(benches, ablation);
bench_main!(benches);
