//! Every committed report reproduces. Each recipe in
//! `semholo_repro::reports` must return the committed file's bytes at
//! thread counts 1, 2 and 8, and every top-level JSON other than
//! `BENCHMARK.json` (the benchmark's declaration, not a report) must
//! have exactly one recipe: the `BENCH_*` documents of the paper's facts
//! as much as any other. A mismatch names the file and the first JSON
//! path that differs, old -> new.
//!
//! The binary installs the tracking allocator because
//! `FUZZ_report.json` records that allocation caps were enforced.

mod support;

use holo_runtime::par;
use semholo_repro::reports::REPORTS;
use std::path::Path;

#[global_allocator]
static ALLOC: holo_fuzz::TrackingAllocator = holo_fuzz::TrackingAllocator;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Why the `made` bytes of `file` are not the `committed` ones, if they are not.
fn check(file: &str, committed: &str, made: &str) -> Option<String> {
    support::difference(committed, made).map(|why| format!("{file}: {why}"))
}

/// Every way the top-level `files` and the recipe table fail to pair
/// one to one.
fn unpaired(files: &[String]) -> Vec<String> {
    let reports = files
        .iter()
        .filter(|f| f.ends_with(".json") && *f != "BENCHMARK.json");
    let mut errors: Vec<String> = reports
        .filter(|f| REPORTS.iter().filter(|(name, _)| name == f).count() != 1)
        .map(|f| format!("{f} is committed but has no single recipe"))
        .collect();
    errors.extend(
        REPORTS
            .iter()
            .filter(|(name, _)| !files.iter().any(|f| f == name))
            .map(|(name, _)| format!("{name} has a recipe but is not committed")),
    );
    errors
}

fn top_level_files() -> Vec<String> {
    std::fs::read_dir(root())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn every_report_has_one_recipe_and_reproduces_at_threads_1_2_8() {
    assert_eq!(unpaired(&top_level_files()), Vec::<String>::new());
    let read = |file: &&str| std::fs::read_to_string(root().join(file)).unwrap();
    let committed: Vec<String> = REPORTS.iter().map(|(file, _)| read(file)).collect();
    // One test drives all thread counts: the override is process-wide.
    let mut errors = Vec::new();
    for threads in [1usize, 2, 8] {
        par::set_thread_override(Some(threads));
        for ((file, recipe), committed) in REPORTS.iter().zip(&committed) {
            let made = recipe();
            errors.extend(check(file, committed, &made).map(|e| format!("threads {threads}: {e}")));
        }
    }
    par::set_thread_override(None);
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn a_moved_digit_names_its_path() {
    let committed = std::fs::read_to_string(root().join("UEP_report.json")).unwrap();
    let moved = committed.replacen(r#""usable":64,"#, r#""usable":65,"#, 1);
    assert_ne!(moved, committed);
    let error = check("UEP_report.json", &committed, &moved).expect("a moved digit must fail");
    assert_eq!(error, "UEP_report.json: cells[0].uniform.usable: 64 -> 65");
    let newline = check("UEP_report.json", &committed, &format!("{committed}\n")).unwrap();
    assert!(newline.contains("different bytes"), "{newline}");
}

#[test]
fn a_moved_fact_names_its_path() {
    let committed = std::fs::read_to_string(root().join("BENCH_table2_bandwidth.json")).unwrap();
    let moved = committed.replacen(r#""value":0.46944,"#, r#""value":0.46945,"#, 1);
    assert_ne!(moved, committed);
    let error = check("BENCH_table2_bandwidth.json", &committed, &moved).expect("a moved digit must fail");
    assert_eq!(error, "BENCH_table2_bandwidth.json: facts[1].value: 0.46944 -> 0.46945");
}

#[test]
fn a_committed_report_without_a_recipe_fails() {
    let mut files = top_level_files();
    files.push("NEW_report.json".into());
    assert_eq!(unpaired(&files), ["NEW_report.json is committed but has no single recipe"]);
    files.push("BENCH_new.json".into());
    assert_eq!(
        unpaired(&files),
        ["NEW_report.json is committed but has no single recipe", "BENCH_new.json is committed but has no single recipe"]
    );
    files.retain(|f| f != "SLO_fleet.json" && f != "NEW_report.json" && f != "BENCH_new.json");
    assert_eq!(unpaired(&files), ["SLO_fleet.json has a recipe but is not committed"]);
}
