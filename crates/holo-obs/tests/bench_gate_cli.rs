//! Drives the built `bench_gate` binary the way `scripts/bench_gate.sh`
//! does — the repo root against a fresh directory, here a temp copy of
//! the committed `BENCH_*.json` documents with one thing changed: the
//! exit code is the contract that script and `scripts/verify.sh` rely on.

use holo_runtime::ser::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed documents, as `(file name, text)`.
fn committed() -> Vec<(String, String)> {
    let root = repo_root();
    let mut docs: Vec<(String, String)> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_gate_report.json")
        .map(|n| (n.clone(), std::fs::read_to_string(root.join(&n)).unwrap()))
        .collect();
    docs.sort();
    assert!(docs.len() >= 12, "the 12 bench documents");
    docs
}

/// A fresh directory holding `docs`.
fn dir_of(tag: &str, docs: &[(String, String)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("holo_gate_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in docs {
        std::fs::write(dir.join(name), text).unwrap();
    }
    dir
}

/// How many rows the committed documents carry under `array`
/// (`"facts"` or `"results"`).
fn rows(array: &str) -> usize {
    let count = |(_, text): &(String, String)| {
        ser::parse(text).unwrap().get(array).unwrap().as_array().unwrap().len()
    };
    committed().iter().map(count).sum()
}

/// Run the gate over `docs` against the committed set: exit code and stdout.
fn gate(tag: &str, docs: &[(String, String)]) -> (i32, String) {
    let fresh = dir_of(tag, docs);
    let out =
        Command::new(env!("CARGO_BIN_EXE_bench_gate")).arg(repo_root()).arg(&fresh).output().unwrap();
    std::fs::remove_dir_all(fresh).unwrap();
    (out.status.code().unwrap(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn identical_copies_exit_zero() {
    let (code, stdout) = gate("same", &committed());
    assert_eq!(code, 0, "{stdout}");
    let verdict = format!("bench gate: PASS — {} facts compared exactly", rows("facts"));
    assert!(stdout.starts_with(&verdict), "{stdout}");
}

/// Every committed fact, one at a time: numbers move by one in the last
/// place that matters (+1), labels gain a character.
#[test]
fn changing_any_single_fact_exits_one_naming_it_old_and_new() {
    let docs = committed();
    let mut failures = Vec::new();
    for (i, (_, text)) in docs.iter().enumerate() {
        let doc = ser::parse(text).unwrap();
        let bench = doc.get("bench").unwrap().as_str().unwrap();
        for fact in doc.get("facts").unwrap().as_array().unwrap() {
            let field = |k: &str| fact.get(k).unwrap();
            let new_value = match field("value") {
                JsonValue::Num(n) => JsonValue::Num(n + 1.0),
                JsonValue::Str(s) => JsonValue::Str(format!("{s}x")),
                other => panic!("unexpected fact value {other:?}"),
            };
            let mutated = JsonValue::obj([
                ("group", field("group").clone()),
                ("name", field("name").clone()),
                ("value", new_value.clone()),
                ("unit", field("unit").clone()),
            ]);
            let mut changed = docs.clone();
            changed[i].1 = text.replacen(&fact.render(), &mutated.render(), 1);
            assert_ne!(changed[i].1, *text);
            let (code, stdout) = gate("fact", &changed);
            let unit = field("unit").as_str().unwrap();
            let line = format!(
                "FAIL fact {bench} {}/{}: {} {unit} -> {} {unit}",
                field("group").as_str().unwrap(),
                field("name").as_str().unwrap(),
                field("value").render(),
                new_value.render(),
            );
            assert_eq!(code, 1, "{line}\n{stdout}");
            assert!(stdout.contains(&line), "{line}\n{stdout}");
            failures.push(line);
        }
    }
    assert_eq!(failures.len(), rows("facts"));
    // 186 numeric facts, 8 closed-form conference bounds and 26 labels.
    assert!(failures.len() >= 220, "194 numeric bench facts and 26 labels");
    // The paper's own tables are gated: Table 2's compressed mesh and
    // Fig. 2's coarsest surface error among them.
    for fact in ["table2_bandwidth table2/bytes/traditional_draco:", "fig2_quality fig2/surface_err/res128:"] {
        assert!(failures.iter().any(|l| l.starts_with(&format!("FAIL fact {fact}"))), "{fact}");
    }
}

#[test]
fn every_timing_ten_times_slower_still_exits_zero_listed_as_advisory() {
    fn slow(v: &JsonValue, ns: bool) -> JsonValue {
        match v {
            JsonValue::Obj(pairs) => JsonValue::Obj(
                pairs.iter().map(|(k, v)| (k.clone(), slow(v, k.ends_with("_ns")))).collect(),
            ),
            JsonValue::Arr(items) => JsonValue::Arr(items.iter().map(|i| slow(i, false)).collect()),
            JsonValue::Num(n) if ns => JsonValue::Num(n * 10.0),
            other => other.clone(),
        }
    }
    let docs: Vec<_> = committed()
        .into_iter()
        .map(|(name, text)| (name, slow(&ser::parse(&text).unwrap(), false).render() + "\n"))
        .collect();
    let (code, stdout) = gate("slow", &docs);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("timings (advisory, never gated"), "{stdout}");
    assert_eq!(stdout.matches("10.00x ").count(), rows("results"), "{stdout}");
}

#[test]
fn a_missing_document_or_a_mode_mismatch_exits_one_and_misuse_exits_two() {
    let mut docs = committed();
    let (gone, _) = docs.remove(0);
    let (code, stdout) = gate("gone", &docs);
    assert_eq!(code, 1, "{stdout}");
    let bench = gone.trim_start_matches("BENCH_").trim_end_matches(".json");
    assert!(stdout.contains(&format!("FAIL document {bench}: present -> (absent)")), "{stdout}");

    let mut docs = committed();
    let i = docs.iter().position(|(n, _)| n == "BENCH_table2_bandwidth.json").unwrap();
    docs[i].1 = docs[i].1.replacen(r#""mode":"quick""#, r#""mode":"full""#, 1);
    let (code, stdout) = gate("mode", &docs);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("FAIL mode table2_bandwidth: quick -> full"), "{stdout}");
    assert_eq!(stdout.matches("FAIL").count(), 2, "the verdict line and one failure:\n{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate")).arg("only_one_dir").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage: bench_gate"));
}
