//! Criterion-compatible micro-bench harness.
//!
//! Each `[[bench]]` target (with `harness = false`) builds a `main`
//! via [`bench_main!`](crate::bench_main) / groups via
//! [`bench_group!`](crate::bench_group). A benchmark closure receives a
//! [`Bencher`]; `b.iter(..)` warms the routine up, auto-calibrates an
//! inner iteration count, times a set of samples, and records
//! median/p95/mean/min/max wall-clock per iteration.
//!
//! A bench also records **facts** ([`Criterion::fact`],
//! [`BenchmarkGroup::fact`]): seeded, byte-derived values — usable-frame
//! permilles, room sizes, payload bytes — under a stable name with a
//! unit and no closure to time. `holo_obs::gate` compares them exactly.
//!
//! When the binary exits, the harness writes `BENCH_<target>.json` at
//! the repo root (one file per bench target): `mode` and `cores` say
//! how the document was made, `facts` hold the values, `results` the
//! timings. One summary line per benchmark goes to stderr.
//!
//! Knobs:
//! - `--quick` CLI flag (as in `cargo bench -- --quick`): fewer
//!   samples, shorter warmup; benches read it back through
//!   [`Criterion::quick`] to cap their probes.
//! - `HOLO_BENCH_OUT_DIR`: override the output directory ([`out_dir`]).

use crate::ser::{JsonValue, ToJson};
use std::path::{Path, PathBuf};
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

impl ToJson for BenchResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("group", self.group.to_json()),
            ("name", self.name.to_json()),
            ("samples", self.samples.to_json()),
            ("iters_per_sample", self.iters_per_sample.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("p95_ns", self.p95_ns.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("max_ns", self.max_ns.to_json()),
        ])
    }
}

/// One recorded fact: a value the bench computed, not a timing. The
/// name is stable (it never carries the value); the unit says what the
/// value counts (`"permille"`, `"bytes"`, `"label"`, ..).
struct Fact {
    group: String,
    name: String,
    value: JsonValue,
    unit: String,
}

impl ToJson for Fact {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("group", self.group.to_json()),
            ("name", self.name.to_json()),
            ("value", self.value.clone()),
            ("unit", self.unit.to_json()),
        ])
    }
}

/// Passed to each benchmark closure; `iter` runs the measurement.
pub struct Bencher<'a> {
    config: &'a BenchConfig,
    /// Per-iteration nanoseconds for each sample, filled by `iter`.
    sample_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl<'a> Bencher<'a> {
    /// Warm up, calibrate, and time the routine. Results are collected
    /// by the enclosing [`Criterion`].
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
    results: Vec<BenchResult>,
    facts: Vec<Fact>,
}

impl Criterion {
    /// Harness with an explicit configuration (tests use this).
    pub fn with_config(config: BenchConfig) -> Self {
        Self { config, results: Vec::new(), facts: Vec::new() }
    }

    /// Whether this run uses the `--quick` profile. A bench caps its
    /// probes on this, so they cannot disagree with the document's
    /// `mode`.
    pub fn quick(&self) -> bool {
        self.config.quick
    }

    /// Harness configured from the CLI arguments `cargo bench` passes
    /// through: `--quick` selects the quick profile; everything else
    /// (`--bench`, filters) is accepted and ignored.
    pub fn from_args() -> Self {
        let quick = std::env::args().skip(1).any(|a| a == "--quick");
        Self::with_config(if quick { BenchConfig::quick() } else { BenchConfig::default() })
    }

    /// Open a named group; benchmarks registered through it share the
    /// group label in the report.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, group: name.into(), sample_size: None }
    }

    /// Register and run an ungrouped benchmark.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        self.run_bench(String::new(), name.into(), None, f);
    }

    /// Record an ungrouped fact; see [`BenchmarkGroup::fact`].
    pub fn fact(&mut self, name: impl Into<String>, value: impl ToJson, unit: &str) {
        self.record_fact(String::new(), name.into(), value.to_json(), unit);
    }

    fn record_fact(&mut self, group: String, name: String, value: JsonValue, unit: &str) {
        let label = format!("{group}/{name}");
        let scalar = match &value {
            JsonValue::Num(n) => n.is_finite(),
            JsonValue::Str(_) | JsonValue::Bool(_) => true,
            _ => false,
        };
        assert!(scalar, "fact {label}: {value:?} is not a finite number, a string or a bool");
        if let Some(old) = self.facts.iter().find(|f| f.group == group && f.name == name) {
            panic!("fact {label} recorded twice: {} then {}", old.value.render(), value.render());
        }
        eprintln!("[fact] {label} = {} {unit}", value.render());
        self.facts.push(Fact { group, name, value, unit: unit.to_string() });
    }

    fn run_bench(
        &mut self,
        group: String,
        name: String,
        sample_size: Option<usize>,
        mut f: impl FnMut(&mut Bencher),
    ) {
        let mut config = self.config.clone();
        if let Some(n) = sample_size {
            // --quick caps a group-level sample_size at the profile count.
            config.sample_size = if config.quick { n.min(config.sample_size) } else { n };
        }
        let mut bencher = Bencher { config: &config, sample_ns: Vec::new(), iters_per_sample: 0 };
        f(&mut bencher);
        if bencher.sample_ns.is_empty() {
            // Closure never called iter(); nothing to record.
            return;
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
        self.results.push(result);
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serialize the whole run as a JSON tree.
    pub fn report_json(&self, bench_name: &str) -> JsonValue {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        JsonValue::obj([
            ("bench", bench_name.to_json()),
            ("mode", if self.quick() { "quick" } else { "full" }.to_json()),
            ("cores", cores.to_json()),
            ("facts", self.facts.to_json()),
            ("results", self.results.to_json()),
        ])
    }

    /// Write `BENCH_<bench_name>.json` into `out_dir`; returns the
    /// written path.
    pub fn write_report(&self, out_dir: &Path, bench_name: &str) -> std::io::Result<PathBuf> {
        let path = out_dir.join(format!("BENCH_{bench_name}.json"));
        std::fs::write(&path, self.report_json(bench_name).render() + "\n")?;
        Ok(path)
    }

    /// Called by [`bench_main!`](crate::bench_main) after all groups
    /// ran: resolve the bench target name and output directory, write
    /// the report. The gate needs the document, so a failed write
    /// fails the bench.
    pub fn finalize(&self, manifest_dir: &str) {
        let name = bench_target_name();
        match self.write_report(&out_dir(manifest_dir), &name) {
            Ok(path) => eprintln!("[bench] report: {}", path.display()),
            Err(e) => {
                eprintln!("[bench] report write failed for {name}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Where a bench writes its artifacts: `HOLO_BENCH_OUT_DIR` if set,
/// else the repo root above the crate's manifest dir.
pub fn out_dir(manifest_dir: &str) -> PathBuf {
    std::env::var_os("HOLO_BENCH_OUT_DIR")
        .map_or_else(|| repo_root(manifest_dir), PathBuf::from)
}

/// The bench target name, recovered from the executable path by
/// stripping the `-<metadata hash>` suffix cargo appends.
fn bench_target_name() -> String {
    let exe = std::env::args().next().unwrap_or_default();
    let stem = Path::new(&exe)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("unknown")
        .to_string();
    match stem.rsplit_once('-') {
        Some((base, hash))
            if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            base.to_string()
        }
        _ => stem,
    }
}

/// Repo root from a crate manifest dir: hop out of `crates/<name>`,
/// otherwise use the manifest dir itself.
fn repo_root(manifest_dir: &str) -> PathBuf {
    let dir = Path::new(manifest_dir);
    match dir.parent() {
        Some(parent) if parent.file_name().is_some_and(|n| n == "crates") => {
            parent.parent().unwrap_or(dir).to_path_buf()
        }
        _ => dir.to_path_buf(),
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

    /// Register and run a benchmark in this group.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        self.criterion.run_bench(self.group.clone(), name.into(), self.sample_size, f);
    }

    /// Record a fact in this group. Panics on a value that is not a
    /// finite number, a string or a bool, and on a `(group, name)`
    /// already recorded: either would make a document the gate
    /// mis-joins.
    pub fn fact(&mut self, name: impl Into<String>, value: impl ToJson, unit: &str) {
        self.criterion.record_fact(self.group.clone(), name.into(), value.to_json(), unit);
    }

    /// End the group (results are recorded eagerly; this exists for
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
/// args, runs the groups, writes `BENCH_<target>.json` at the repo
/// root.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::from_args();
            $( $group(&mut c); )+
            c.finalize(env!("CARGO_MANIFEST_DIR"));
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
        group.bench_function("sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>())
        });
        group.finish();
        c.bench_function("ungrouped", |b| b.iter(|| 1 + 1));
        assert_eq!(c.results().len(), 2);
        let r = &c.results()[0];
        assert_eq!((r.group.as_str(), r.name.as_str()), ("g", "sum"));
        assert_eq!(r.samples, 3);
        assert_eq!(r.iters_per_sample, 3);
        assert!(r.median_ns > 0.0 && r.median_ns.is_finite());
        assert!(r.p95_ns >= r.median_ns);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn report_json_contains_required_keys() {
        let mut c = Criterion::with_config(tiny_config());
        c.bench_function("x", |b| b.iter(|| 2 * 2));
        let json = c.report_json("smoke");
        let text = json.render();
        let parsed = crate::ser::parse(&text).unwrap();
        assert_eq!(parsed.get("bench").unwrap().as_str(), Some("smoke"));
        let results = parsed.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].get("median_ns").unwrap().as_f64().unwrap() > 0.0);
        assert!(results[0].get("p95_ns").unwrap().as_f64().is_some());
    }

    #[test]
    #[should_panic(expected = "fact g/n recorded twice: 553 then 554")]
    fn a_fact_recorded_twice_panics_with_both_values() {
        let mut c = Criterion::with_config(tiny_config());
        let mut group = c.benchmark_group("g");
        group.fact("n", 553u64, "permille");
        group.fact("n", 554u64, "permille");
    }

    #[test]
    #[should_panic(expected = "fact /ratio: Num(NaN) is not a finite number")]
    fn a_non_finite_fact_panics() {
        Criterion::with_config(tiny_config()).fact("ratio", f64::NAN, "ratio");
    }

    #[test]
    fn bench_name_strips_metadata_hash() {
        assert!(!super::bench_target_name().is_empty());
    }

    #[test]
    fn percentile_endpoints() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }
}
