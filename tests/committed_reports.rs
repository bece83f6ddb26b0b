//! Every committed report reproduces. Each recipe in
//! `semholo_repro::reports` must return the committed file's bytes at
//! thread counts 1, 2 and 8, and every top-level JSON other than
//! `BENCHMARK.json` (the benchmark's declaration, not a report) must
//! have exactly one recipe: the `BENCH_*` documents of the paper's facts
//! as much as any other. A mismatch names the file and the first JSON
//! path that differs, old -> new.
//!
//! Each report is its own test, `reproduces_at_threads_1_2_8::<file
//! stem in lower case>`, so libtest runs the reports side by side: the
//! thread count is each test thread's own.
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

/// The test that checks `file`: its stem in lower case.
fn test_name(file: &str) -> String {
    file.trim_end_matches(".json").to_lowercase()
}

/// The recipe of the report whose test is `test` makes the committed
/// bytes at thread counts 1, 2 and 8.
fn reproduces(test: &str) {
    let (file, recipe) = REPORTS
        .iter()
        .find(|(file, _)| test_name(file) == test)
        .unwrap_or_else(|| panic!("{test} checks no report in REPORTS"));
    let committed = std::fs::read_to_string(root().join(file)).unwrap();
    let errors: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .filter_map(|threads| {
            par::set_thread_override(Some(threads));
            check(file, &committed, &recipe()).map(|e| format!("threads {threads}: {e}"))
        })
        .collect();
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

/// One `#[test]` per report, named as [`test_name`] names it; `TESTED`
/// lists them in `REPORTS` order.
macro_rules! one_test_per_report {
    ($($test:ident)*) => {
        const TESTED: &[&str] = &[$(stringify!($test)),*];
        mod reproduces_at_threads_1_2_8 {
            $(#[test]
            fn $test() {
                super::reproduces(stringify!($test));
            })*
        }
    };
}

one_test_per_report! {
    resilience_chaos slo_report fuzz_report fleet_capacity slo_fleet uep_report
    gaussian_frontier trace_quickstart trace_conference_room
    bench_table1_taxonomy bench_table2_bandwidth bench_fig2_quality bench_fig3_expression
    bench_fig4_fps bench_ablation_foveation bench_ablation_nerf bench_ablation_text
    bench_ablation_keypoints bench_ablation_gaussian bench_conference_sfu
    bench_fleet_capacity
}

#[test]
fn every_report_has_one_recipe_and_one_test() {
    assert_eq!(unpaired(&top_level_files()), Vec::<String>::new());
    let names: Vec<String> = REPORTS.iter().map(|(file, _)| test_name(file)).collect();
    assert_eq!(names, TESTED, "every REPORTS entry needs its test in one_test_per_report!");
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
