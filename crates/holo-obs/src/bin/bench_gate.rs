//! The bench gate CLI (wrapped by `scripts/bench_gate.sh`).
//!
//! `bench_gate <committed_dir> <fresh_dir> [--report FILE]` — parse
//! every `BENCH_*.json` in both directories, compare their facts
//! exactly (see `holo_obs::gate`), print the failures old -> new and
//! the advisory timing table, optionally write the machine-readable
//! report. Exit 0 when every fact matched, 1 when one did not, 2 when
//! the arguments or a document could not be read.

use holo_obs::gate::{parse_bench, BenchDoc, GateReport};
use std::path::Path;
use std::process::ExitCode;

/// All `BENCH_*.json` documents under `dir`, sorted by file name.
fn load_dir(dir: &str) -> Result<Vec<BenchDoc>, String> {
    let mut files: Vec<_> = std::fs::read_dir(Path::new(dir))
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                // The gate's own report lives next to the committed
                // documents; never read it back as one.
                n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_gate_report.json"
            })
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json files in {dir}"));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f)
                .map_err(|e| format!("cannot read {}: {e}", f.display()))?;
            parse_bench(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    let (dirs, report_path) = match args {
        [a, b] => ((a, b), None),
        [a, b, flag, path] if flag == "--report" => ((a, b), Some(path)),
        _ => return Err("usage: bench_gate <committed_dir> <fresh_dir> [--report FILE]".into()),
    };
    let report = GateReport::compare(&load_dir(dirs.0)?, &load_dir(dirs.1)?);
    print!("{}", report.table());
    if let Some(path) = report_path {
        std::fs::write(path, report.to_json().render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("report -> {path}");
    }
    Ok(report.pass())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::from(2)
        }
    }
}
