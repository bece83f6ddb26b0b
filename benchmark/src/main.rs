//! `semholo-benchmark`: real-CPU frame budget and simulator throughput
//! of SemHolo on four named workloads. See `benchmark/README.md`.
//!
//! ```text
//! semholo-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! semholo-benchmark --agree [--runs N] [--seed N] [--seconds S]
//! semholo-benchmark --smoke
//! ```

mod frames;
mod metrics;
mod sim;
mod stats;
mod trace;

use frames::{FrameWorkload, Tier};
use holo_runtime::ser::JsonValue;
use metrics::{declared, Readings};
use sim::SimWorkload;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Where a run leaves its trace and its record, relative to the
/// directory the command is run from (the root of the checkout).
const OUT_DIR: &str = "benchmark/out";

/// One workload: rounds are run one at a time so that several
/// workloads can be interleaved over the same stretch of wall-clock.
pub trait Workload {
    /// The workload's name.
    fn name(&self) -> &'static str;
    /// Run one more round on a fresh pipeline; `with_spans` makes it a
    /// traced round.
    fn round(&mut self, with_spans: bool);
    /// Run the checks that follow timing and reduce the rounds to
    /// readings; `traced_run` adds the per-layer readings.
    fn finish(&mut self, traced_run: bool) -> Outcome;
}

/// What one workload's run came to.
pub struct Outcome {
    /// Workload name.
    pub name: &'static str,
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted: frames, or simulator cells.
    pub attempted: u64,
    /// Operations that erred, were not delivered, or broke a law.
    pub failed: u64,
    /// The metrics.
    pub readings: Readings,
    /// Digests and sizes, for the record.
    pub notes: Vec<String>,
    /// What went wrong.
    pub errors: Vec<String>,
    /// The best traced round, as a chrome trace-event document.
    pub trace: Option<JsonValue>,
}

fn workload(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "keypoint_recon" => Box::new(FrameWorkload::new(Tier::Keypoint, seed, smoke)),
        "mesh_codec" => Box::new(FrameWorkload::new(Tier::Mesh, seed, smoke)),
        "text_capture" => Box::new(FrameWorkload::new(Tier::Text, seed, smoke)),
        "sim_fabric" => Box::new(SimWorkload::new(seed, smoke)),
        _ => return None,
    })
}

/// Run rounds round-robin for as long as each workload's next round
/// still fits in the `seconds` it may spend in its own rounds (and
/// until it has `min_rounds` of them), so that with several workloads
/// each one samples the whole stretch. In a traced run plain and traced
/// rounds alternate.
fn measure(workloads: &mut [Box<dyn Workload>], seconds: f64, traced_run: bool, min_rounds: usize) {
    let mut spent = vec![0.0f64; workloads.len()];
    let mut rounds = vec![0usize; workloads.len()];
    loop {
        let mut ran = false;
        for (i, w) in workloads.iter_mut().enumerate() {
            let next = spent[i] / rounds[i].max(1) as f64;
            if rounds[i] >= min_rounds && spent[i] + next > seconds {
                continue;
            }
            let start = Instant::now();
            w.round(traced_run && rounds[i] % 2 == 1);
            spent[i] += start.elapsed().as_secs_f64();
            rounds[i] += 1;
            ran = true;
        }
        if !ran {
            return;
        }
    }
}

/// The commit of a checkout that is a git repository; read from the
/// files so that nothing outside the checkout is touched.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if resolved.is_empty() {
        "unknown".into()
    } else {
        resolved
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where a number came from.
struct Provenance {
    commit: String,
    rustc: String,
    nproc: usize,
}

fn metrics_json<'a>(
    readings: &Readings,
    metrics: impl Iterator<Item = (&'a str, &'a str)>,
) -> JsonValue {
    JsonValue::obj(metrics.map(|(name, unit)| {
        (
            name,
            JsonValue::obj([
                ("value", JsonValue::Num(readings.get(name).value)),
                ("unit", JsonValue::Str(unit.into())),
            ]),
        )
    }))
}

/// The line the contract asks for: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter the end-to-end set of a plain run
/// or the per-layer set of a traced one.
fn result_line(outcome: &Outcome, traced_run: bool) -> String {
    let metrics = if traced_run {
        metrics_json(&outcome.readings, declared().per_layer_units())
    } else {
        metrics_json(&outcome.readings, declared().end_to_end_units())
    };
    JsonValue::obj([
        ("correct", JsonValue::Bool(outcome.correct)),
        ("attempted", JsonValue::Num(outcome.attempted as f64)),
        ("failed", JsonValue::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Every metric by name, with its unit and the timings behind it; the
/// smoke run is too short to mean anything and prints the checks only.
fn print_outcome(outcome: &Outcome, traced_run: bool, smoke: bool) {
    println!("== {} ==", outcome.name);
    let line = |name: &str, unit: &str| {
        let r = outcome.readings.get(name);
        let samples = if r.samples > 0 {
            format!("  (n={})", r.samples)
        } else {
            String::new()
        };
        println!("  {name:<36} {:>16.4} {unit}{samples}", r.value);
    };
    if !smoke {
        declared()
            .end_to_end_units()
            .for_each(|(name, unit)| line(name, unit));
        if traced_run {
            declared()
                .per_layer_units()
                .for_each(|(name, unit)| line(name, unit));
        }
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for error in &outcome.errors {
        println!("  FAILED: {error}");
    }
    println!(
        "  correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}

/// The run's record: every reading plus where it came from.
fn record(
    outcome: &Outcome,
    traced_run: bool,
    seed: u64,
    seconds: f64,
    wall_s: f64,
    provenance: &Provenance,
) -> JsonValue {
    JsonValue::obj([
        ("workload", JsonValue::Str(outcome.name.into())),
        (
            "command",
            JsonValue::Str(std::env::args().collect::<Vec<_>>().join(" ")),
        ),
        ("git_commit", JsonValue::Str(provenance.commit.clone())),
        ("rustc", JsonValue::Str(provenance.rustc.clone())),
        ("nproc", JsonValue::Num(provenance.nproc as f64)),
        ("thread_override", JsonValue::Num(1.0)),
        ("seed", JsonValue::Str(seed.to_string())),
        ("seconds", JsonValue::Num(seconds)),
        ("traced", JsonValue::Bool(traced_run)),
        ("wall_s", JsonValue::Num(wall_s)),
        ("correct", JsonValue::Bool(outcome.correct)),
        ("attempted", JsonValue::Num(outcome.attempted as f64)),
        ("failed", JsonValue::Num(outcome.failed as f64)),
        (
            "end_to_end",
            metrics_json(&outcome.readings, declared().end_to_end_units()),
        ),
        (
            "per_layer",
            metrics_json(&outcome.readings, declared().per_layer_units()),
        ),
        (
            "notes",
            JsonValue::Arr(outcome.notes.iter().cloned().map(JsonValue::Str).collect()),
        ),
        (
            "errors",
            JsonValue::Arr(outcome.errors.iter().cloned().map(JsonValue::Str).collect()),
        ),
    ])
}

fn write_out(file: &str, doc: &JsonValue) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run the named workloads (interleaved when several) and report each.
/// The smoke run writes no file and prints no number.
fn run(
    names: &[&str],
    seed: u64,
    seconds: f64,
    traced_run: bool,
    smoke: bool,
) -> Result<bool, String> {
    let provenance = Provenance {
        commit: git_commit(),
        rustc: rustc_version(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    println!(
        "semholo-benchmark: commit {} | {} | nproc {} | 1 thread | seed {seed} | {seconds} s per workload | trace {}",
        provenance.commit, provenance.rustc, provenance.nproc, traced_run as u8
    );
    let start = Instant::now();
    let mut workloads: Vec<Box<dyn Workload>> = names
        .iter()
        .map(|n| workload(n, seed, smoke).ok_or(format!("unknown workload {n}")))
        .collect::<Result<_, _>>()?;
    let min_rounds = match (smoke, traced_run) {
        (true, _) => 2,
        (false, true) => 4,
        (false, false) => 3,
    };
    measure(&mut workloads, seconds, traced_run, min_rounds);
    let mut all_correct = true;
    let mut lines = Vec::new();
    for w in &mut workloads {
        let outcome = w.finish(traced_run);
        let wall_s = start.elapsed().as_secs_f64();
        print_outcome(&outcome, traced_run, smoke);
        if !smoke {
            let tag = format!("{}_trace{}", outcome.name, traced_run as u8);
            write_out(
                &format!("RUN_{tag}.json"),
                &record(&outcome, traced_run, seed, seconds, wall_s, &provenance),
            )?;
            if let Some(trace) = &outcome.trace {
                write_out(&format!("TRACE_{}.json", outcome.name), trace)?;
            }
        }
        all_correct &= outcome.correct && outcome.failed == 0;
        if !smoke {
            lines.push(result_line(&outcome, traced_run));
        }
    }
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

/// Two sets of `runs` plain runs per workload on this build; per
/// end-to-end metric and workload, both medians, how far the second is
/// from the first, each set's quartile spread, and the bound.
fn agree(seed: u64, seconds: f64, runs: usize) -> Result<bool, String> {
    let mut sets: [Vec<Vec<Readings>>; 2] = [Vec::new(), Vec::new()];
    let mut all_correct = true;
    for (s, set) in sets.iter_mut().enumerate() {
        for name in &declared().workloads {
            let mut per_run = Vec::new();
            for r in 0..runs {
                let run_seed = seed + r as u64;
                let mut w = [workload(name, run_seed, false).expect("known workload")];
                measure(&mut w, seconds, false, 3);
                let outcome = w[0].finish(false);
                for e in &outcome.errors {
                    println!("FAILED {name} seed {run_seed}: {e}");
                }
                all_correct &= outcome.correct && outcome.failed == 0;
                eprintln!(
                    "set {} {name} seed {run_seed}: frame_ms_p50 {:.4}",
                    s + 1,
                    outcome.readings.get("frame_ms_p50").value
                );
                per_run.push(outcome.readings);
            }
            set.push(per_run);
        }
    }
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "diff", "spread 1", "spread 2", "bound"
    );
    let mut within = true;
    for (w, name) in declared().workloads.iter().enumerate() {
        for m in &declared().end_to_end {
            let values = |s: usize| -> Vec<f64> {
                sets[s][w].iter().map(|r| r.get(&m.name).value).collect()
            };
            let center = |v: &[f64]| {
                if v.len() >= 2 {
                    stats::quartiles(v)[1]
                } else {
                    v[0]
                }
            };
            // One run has no quartiles: its spread reads 0.
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    stats::quartile_spread(v)
                } else {
                    0.0
                }
            };
            let (a, b) = (values(0), values(1));
            let (ma, mb) = (center(&a), center(&b));
            let worse = if m.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (spread(&a), spread(&b));
            // Two sets of the same code: a gap either way is noise,
            // and noise beyond the bound would hide a regression.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let ok = worse.abs() <= m.bound && spread_ok;
            within &= ok;
            println!(
                "{name:<16} {:<22} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                m.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCESS" }
            );
        }
    }
    Ok(all_correct && within)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    runs: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: declared().run_seconds,
        trace: false,
        agree: false,
        runs: 1,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--agree" => args.agree = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 600.0) || args.runs == 0 {
        return Err("--seconds must be within 0..=600 and --runs at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("semholo-benchmark: {e}");
            eprintln!(
                "usage: --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] | --agree [--runs N] | --smoke",
                declared().workloads.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // One client, one thread: parallel scaling is not measured on a
    // shared two-core box.
    holo_runtime::par::set_thread_override(Some(1));
    let all: Vec<&str> = declared().workloads.iter().map(String::as_str).collect();
    let outcome = if args.smoke {
        run(&all, args.seed, 0.0, true, true)
    } else if args.agree {
        agree(args.seed, args.seconds, args.runs)
    } else {
        match args.workload.as_deref() {
            Some("all") => run(&all, args.seed, args.seconds, args.trace, false),
            Some(name) => run(&[name], args.seed, args.seconds, args.trace, false),
            None => Err("give --workload, --agree or --smoke".into()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("semholo-benchmark: a check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("semholo-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
