//! Smoke test for the bench harness itself, driven from outside the
//! crate the way a `[[bench]]` target drives it.

use holo_runtime::bench::{BenchConfig, Criterion};
use std::time::Duration;

fn three_iter_config() -> BenchConfig {
    BenchConfig {
        sample_size: 3,
        iters_per_sample: Some(3),
        warmup: Duration::from_micros(50),
        target_sample_time: Duration::from_micros(100),
        quick: true,
    }
}

#[test]
fn group_sample_size_capped_in_quick_mode() {
    let mut c = Criterion::with_config(three_iter_config());
    let mut group = c.benchmark_group("g");
    // A paper bench asking for 20 samples must be capped at the quick
    // profile's 3, not stretch the run.
    group.sample_size(20);
    let capped = group.bench_function("capped", |b| b.iter(|| 1 + 1)).expect("timed");
    group.finish();
    assert_eq!(capped.samples, 3);
}
