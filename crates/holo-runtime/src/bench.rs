//! Criterion-compatible micro-bench harness.
//!
//! Each `[[bench]]` target (with `harness = false`) builds a `main`
//! via [`bench_main!`](crate::bench_main) / groups via
//! [`bench_group!`](crate::bench_group). A benchmark closure receives a
//! [`Bencher`]; `b.iter(..)` warms the routine up, auto-calibrates an
//! inner iteration count, times a set of samples, and records
//! median/p95/mean/min/max wall-clock per iteration.
//!
//! A bench only times: each benchmark prints one summary line to
//! stderr and the binary writes no file. The values a bench's
//! experiment produces are facts, made by the recipes in `holo-bench`'s
//! library and checked by `tests/committed_reports.rs`.
//!
//! One knob: the `--quick` CLI flag (as in `cargo bench -- --quick`)
//! selects fewer samples and a shorter warmup.

use std::time::{Duration, Instant};

/// Measurement configuration for one harness run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Samples (timed batches) per benchmark.
    pub sample_size: usize,
    /// Fixed iterations per sample; `None` auto-calibrates so one
    /// sample takes roughly [`BenchConfig::target_sample_time`].
    pub iters_per_sample: Option<u64>,
    /// Warmup budget before sampling starts.
    pub warmup: Duration,
    /// Auto-calibration aims for one sample of roughly this length.
    pub target_sample_time: Duration,
    /// Quick mode: group-level `sample_size` overrides are capped at
    /// the profile's sample count instead of replacing it.
    pub quick: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            sample_size: 20,
            iters_per_sample: None,
            warmup: Duration::from_millis(100),
            target_sample_time: Duration::from_millis(20),
            quick: false,
        }
    }
}

impl BenchConfig {
    /// The `--quick` profile: enough samples for a stable median, small
    /// enough that all nine paper benches finish in CI.
    pub fn quick() -> Self {
        Self {
            sample_size: 5,
            iters_per_sample: None,
            warmup: Duration::from_millis(10),
            target_sample_time: Duration::from_millis(5),
            quick: true,
        }
    }
}

/// Statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name (`c.benchmark_group(..)`), empty for ungrouped.
    pub group: String,
    /// Benchmark name.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations inside each sample.
    pub iters_per_sample: u64,
    /// Median over samples.
    pub median_ns: f64,
    /// 95th percentile over samples.
    pub p95_ns: f64,
    /// Mean over samples.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// Passed to each benchmark closure; `iter` runs the measurement.
pub struct Bencher<'a> {
    config: &'a BenchConfig,
    /// Per-iteration nanoseconds for each sample, filled by `iter`.
    sample_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl<'a> Bencher<'a> {
    /// Warm up, calibrate, and time the routine. The enclosing
    /// [`Criterion`] summarizes the samples.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let cfg = self.config;
        // Warmup: run until the budget elapses (at least once).
        let warm_start = Instant::now();
        loop {
            std::hint::black_box(routine());
            if warm_start.elapsed() >= cfg.warmup {
                break;
            }
        }
        // Calibrate inner iterations so a sample is long enough to
        // time reliably.
        let iters = cfg.iters_per_sample.unwrap_or_else(|| {
            let probe_start = Instant::now();
            std::hint::black_box(routine());
            let once = probe_start.elapsed().max(Duration::from_nanos(1));
            let target = cfg.target_sample_time.as_nanos() as u64;
            (target / once.as_nanos().max(1) as u64).clamp(1, 1_000_000)
        });
        self.iters_per_sample = iters;
        self.sample_ns.clear();
        for _ in 0..cfg.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            self.sample_ns.push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The harness entry point; drop-in for `criterion::Criterion` at the
/// API surface this workspace uses.
pub struct Criterion {
    config: BenchConfig,
}

impl Criterion {
    /// Harness with an explicit configuration (tests use this).
    pub fn with_config(config: BenchConfig) -> Self {
        Self { config }
    }

    /// Harness configured from the CLI arguments `cargo bench` passes
    /// through: `--quick` selects the quick profile; everything else
    /// (`--bench`, filters) is accepted and ignored.
    pub fn from_args() -> Self {
        let quick = std::env::args().skip(1).any(|a| a == "--quick");
        Self::with_config(if quick { BenchConfig::quick() } else { BenchConfig::default() })
    }

    /// Open a named group; benchmarks registered through it share the
    /// group label in the printed row.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, group: name.into(), sample_size: None }
    }

    /// Register and run an ungrouped benchmark; returns its statistics,
    /// `None` when the closure never called [`Bencher::iter`].
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> Option<BenchResult> {
        self.run_bench(String::new(), name.into(), None, f)
    }

    fn run_bench(
        &mut self,
        group: String,
        name: String,
        sample_size: Option<usize>,
        mut f: impl FnMut(&mut Bencher),
    ) -> Option<BenchResult> {
        let mut config = self.config.clone();
        if let Some(n) = sample_size {
            // --quick caps a group-level sample_size at the profile count.
            config.sample_size = if config.quick { n.min(config.sample_size) } else { n };
        }
        let mut bencher = Bencher { config: &config, sample_ns: Vec::new(), iters_per_sample: 0 };
        f(&mut bencher);
        if bencher.sample_ns.is_empty() {
            // Closure never called iter(); nothing to report.
            return None;
        }
        let mut sorted = bencher.sample_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            group,
            name,
            samples: sorted.len(),
            iters_per_sample: bencher.iters_per_sample,
            median_ns: percentile(&sorted, 0.5),
            p95_ns: percentile(&sorted, 0.95),
            mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
        };
        let label = if result.group.is_empty() {
            result.name.clone()
        } else {
            format!("{}/{}", result.group, result.name)
        };
        eprintln!(
            "[bench] {label}: median {} p95 {} ({} samples x {} iters)",
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            result.samples,
            result.iters_per_sample,
        );
        Some(result)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// A named group of benchmarks sharing an optional sample-size
/// override; mirrors criterion's `BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    group: String,
    sample_size: Option<usize>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Samples per benchmark for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Register and run a benchmark in this group; returns its
    /// statistics, `None` when the closure never called
    /// [`Bencher::iter`].
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> Option<BenchResult> {
        self.criterion.run_bench(self.group.clone(), name.into(), self.sample_size, f)
    }

    /// End the group (each benchmark runs and prints eagerly; this exists for
    /// criterion source-compatibility).
    pub fn finish(self) {}
}

/// Define a bench group function: `bench_group!(benches, fn_a, fn_b)`
/// creates `fn benches(&mut Criterion)` running each target in order.
#[macro_export]
macro_rules! bench_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Define `main()` for a `harness = false` bench target: parses CLI
/// args and runs the groups.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::from_args();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            sample_size: 3,
            iters_per_sample: Some(3),
            warmup: Duration::from_micros(10),
            target_sample_time: Duration::from_micros(100),
            quick: false,
        }
    }

    #[test]
    fn records_stats_per_benchmark() {
        let mut c = Criterion::with_config(tiny_config());
        let mut group = c.benchmark_group("g");
        let r = group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>())).expect("timed");
        group.finish();
        assert!(c.bench_function("ungrouped", |b| b.iter(|| 1 + 1)).is_some());
        assert!(c.bench_function("never_iterated", |_| {}).is_none());
        assert_eq!((r.group.as_str(), r.name.as_str()), ("g", "sum"));
        assert_eq!(r.samples, 3);
        assert_eq!(r.iters_per_sample, 3);
        assert!(r.median_ns > 0.0 && r.median_ns.is_finite());
        assert!(r.p95_ns >= r.median_ns);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }
}
