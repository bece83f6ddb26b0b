//! Smoke test for the bench harness itself: run one benchmark at 3
//! iterations, write the report file, and assert the emitted
//! `BENCH_*.json` parses and carries the keys the perf trajectory
//! relies on (`median_ns`, `p95_ns`) and the ones the fact gate joins
//! on (`mode`, `facts`).

use holo_runtime::bench::{BenchConfig, Criterion};
use holo_runtime::ser;
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
fn one_bench_at_three_iters_emits_valid_report() {
    let mut c = Criterion::with_config(three_iter_config());
    let mut group = c.benchmark_group("smoke");
    group.bench_function("fib_baseline", |b| {
        b.iter(|| {
            let (mut a, mut b) = (0u64, 1u64);
            for _ in 0..20 {
                (a, b) = (b, a + b);
            }
            a
        })
    });
    group.fact("fib_20", 6765u64, "value");
    group.fact("label", "node-egress:0", "label");
    group.finish();

    let out_dir = std::env::temp_dir().join(format!("holo_bench_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let path = c.write_report(&out_dir, "smoke_test").unwrap();
    assert_eq!(path.file_name().unwrap(), "BENCH_smoke_test.json");

    let text = std::fs::read_to_string(&path).unwrap();
    let report = ser::parse(&text).expect("emitted JSON must parse");
    assert_eq!(report.get("bench").unwrap().as_str(), Some("smoke_test"));

    assert_eq!(report.get("mode").unwrap().as_str(), Some("quick"));
    assert!(report.get("cores").unwrap().as_f64().unwrap() >= 1.0);

    let facts = report.get("facts").unwrap().as_array().unwrap();
    assert_eq!(facts.len(), 2);
    assert_eq!(facts[0].get("group").unwrap().as_str(), Some("smoke"));
    assert_eq!(facts[0].get("name").unwrap().as_str(), Some("fib_20"));
    assert_eq!(facts[0].get("value").unwrap().as_f64(), Some(6765.0));
    assert_eq!(facts[0].get("unit").unwrap().as_str(), Some("value"));
    assert_eq!(facts[1].get("value").unwrap().as_str(), Some("node-egress:0"));

    let results = report.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 1);
    let r = &results[0];
    assert_eq!(r.get("group").unwrap().as_str(), Some("smoke"));
    assert_eq!(r.get("name").unwrap().as_str(), Some("fib_baseline"));
    assert_eq!(r.get("samples").unwrap().as_f64(), Some(3.0));
    assert_eq!(r.get("iters_per_sample").unwrap().as_f64(), Some(3.0));
    let median = r.get("median_ns").unwrap().as_f64().expect("median_ns must be a number");
    let p95 = r.get("p95_ns").unwrap().as_f64().expect("p95_ns must be a number");
    assert!(median > 0.0 && median.is_finite());
    assert!(p95 >= median, "p95 {p95} must not undercut median {median}");

    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn group_sample_size_capped_in_quick_mode() {
    let mut c = Criterion::with_config(three_iter_config());
    let mut group = c.benchmark_group("g");
    // A paper bench asking for 20 samples must be capped at the quick
    // profile's 3, not stretch the run.
    group.sample_size(20);
    group.bench_function("capped", |b| b.iter(|| 1 + 1));
    group.finish();
    assert_eq!(c.results()[0].samples, 3);
}

#[test]
fn a_facts_only_document_has_empty_results() {
    let mut c = Criterion::with_config(BenchConfig::default());
    c.fact("prebuild", 5596u64, "bytes");
    let report = ser::parse(&c.report_json("facts_only").render()).unwrap();
    assert_eq!(report.get("mode").unwrap().as_str(), Some("full"));
    assert_eq!(report.get("facts").unwrap().as_array().unwrap().len(), 1);
    assert!(report.get("results").unwrap().as_array().unwrap().is_empty());
}
