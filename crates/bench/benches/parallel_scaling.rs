//! **Parallel scaling** — wall-clock speedup of the deterministic
//! fork-join pool (`holo-runtime::par`) on the two heaviest fixed
//! workloads: the chaos scenario matrix and the fuzz sweep.
//!
//! The pool's contract is that thread count never changes bytes, only
//! wall-clock time — so this bench measures both sides: it times each
//! workload at `SEMHOLO_THREADS` 1, 2, and 4 (printing the speedup in
//! permille; `BENCH_parallel_scaling.json` carries the timings it is
//! the ratio of), and digests each run's report to prove the bytes did
//! not move. The document's `cores` header says what the speedup is
//! bounded by: a 1-core container honestly reports ~1000 permille at
//! every thread count.

use holo_bench::{report, report_header};
use holo_chaos::harness::run_scenarios;
use holo_fuzz::{run_sweep, FuzzConfig};
use holo_runtime::bench::Criterion;
use holo_runtime::par;
use holo_runtime::{bench_group, bench_main, fnv1a64};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall-clock seconds for `f`, plus the digest of its
/// rendered output (which must not depend on the thread count).
fn time_best<F: Fn() -> String>(reps: usize, f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut digest = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        digest = fnv1a64(out.as_bytes());
    }
    (best, digest)
}

fn parallel_scaling(c: &mut Criterion) {
    let quick = c.quick();
    let seed = 42u64;
    let mutants = if quick { 400 } else { 2000 };
    let reps = if quick { 1 } else { 2 };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    report_header("Parallel scaling: fork-join pool over chaos matrix + fuzz sweep");
    report(&format!(
        "detected cores: {cores}; chaos seed {seed}; fuzz {mutants} mutants/target; best of {reps}",
    ));

    let thread_counts = [1usize, 2, 4];
    let mut chaos = Vec::new();
    let mut fuzz = Vec::new();
    for &t in &thread_counts {
        par::set_thread_override(Some(t));
        let (cs, cd) = time_best(reps, || run_scenarios(seed).render());
        let (fs, fd) = time_best(reps, || {
            run_sweep(&FuzzConfig { seed: 7, mutations_per_target: mutants }).render()
        });
        report(&format!(
            "threads={t}: chaos {:.3}s (digest {cd:#018x}), fuzz {:.3}s (digest {fd:#018x})",
            cs, fs,
        ));
        chaos.push((t, cs, cd));
        fuzz.push((t, fs, fd));
    }
    par::set_thread_override(None);

    // Byte-identity first: speedup numbers mean nothing if the bytes
    // moved. Every digest must match the threads=1 run.
    for (name, runs) in [("chaos", &chaos), ("fuzz", &fuzz)] {
        let golden = runs[0].2;
        for &(t, _, d) in runs.iter() {
            assert_eq!(d, golden, "{name} bytes diverged at {t} threads");
        }
        report(&format!("{name}: byte-identical across threads 1/2/4"));
    }

    // Speedup vs threads=1 in permille (1000 = no change): a ratio of
    // wall clocks, so printed, not recorded as a fact.
    for (name, runs) in [("chaos", &chaos), ("fuzz", &fuzz)] {
        let base = runs[0].1;
        for &(t, s, _) in runs.iter() {
            report(&format!("{name}: speedup at threads={t} {:.0} permille", base / s * 1000.0));
        }
    }

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    // Honest timings at the extremes of the sweep.
    for &t in &[1usize, 4] {
        group.bench_function(format!("chaos_matrix/threads={t}"), |b| {
            par::set_thread_override(Some(t));
            b.iter(|| black_box(run_scenarios(seed)));
            par::set_thread_override(None);
        });
        group.bench_function(format!("fuzz_sweep_quick/threads={t}"), |b| {
            par::set_thread_override(Some(t));
            b.iter(|| {
                black_box(run_sweep(&FuzzConfig { seed: 7, mutations_per_target: 200 }))
            });
            par::set_thread_override(None);
        });
    }
    group.finish();
}

bench_group!(benches, parallel_scaling);
bench_main!(benches);
