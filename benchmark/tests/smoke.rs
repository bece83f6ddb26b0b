//! Guards the harness itself: the smoke run drives all four workloads,
//! plain and traced, through every correctness check.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn bench(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_semholo-benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn smoke_run_passes_every_check_quickly_and_leaves_nothing_behind() {
    let start = Instant::now();
    let (ok, stdout, stderr) = bench(&["--smoke"]);
    let took = start.elapsed();
    assert!(ok, "smoke run failed:\n{stdout}\n{stderr}");
    for workload in ["keypoint_recon", "mesh_codec", "text_capture", "sim_fabric"] {
        assert!(
            stdout.contains(&format!("== {workload} ==")),
            "{workload} did not run:\n{stdout}"
        );
    }
    assert_eq!(stdout.matches("correct=true").count(), 4, "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    assert!(took < Duration::from_secs(15), "smoke run took {took:?}");
    assert!(
        !Path::new("benchmark/out").exists(),
        "the smoke run wrote files"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--frobnicate"],
        &[],
    ] {
        let (ok, stdout, _) = bench(args);
        assert!(!ok, "{args:?} should fail");
        assert!(
            !stdout.contains("\"metrics\""),
            "{args:?} printed a result:\n{stdout}"
        );
    }
}
