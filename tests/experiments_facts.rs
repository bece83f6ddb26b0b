//! EXPERIMENTS.md quotes the committed bench facts. A measured cell is
//! followed by `<!-- fact: <bench> <group>/<name> -->`, and the cell must
//! print that fact of the committed `BENCH_<bench>.json`: a number as
//! the fact rounded to the decimals the cell prints, a label verbatim
//! between backquotes. No unit conversion: a cell is in its fact's unit.

use holo_runtime::ser::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

const MARKER: &str = "<!-- fact: ";

/// `(bench, "group/name")` -> value.
type Facts = BTreeMap<(String, String), JsonValue>;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn committed_facts() -> Facts {
    let mut facts = Facts::new();
    for entry in std::fs::read_dir(root()).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        if !file.starts_with("BENCH_") || !file.ends_with(".json") || file == "BENCH_gate_report.json" {
            continue;
        }
        let doc = ser::parse(&std::fs::read_to_string(root().join(&file)).unwrap()).unwrap();
        let bench = doc.get("bench").unwrap().as_str().unwrap();
        for fact in doc.get("facts").unwrap().as_array().unwrap() {
            let field = |k: &str| fact.get(k).unwrap().as_str().unwrap().to_string();
            let key = format!("{}/{}", field("group"), field("name"));
            facts.insert((bench.to_string(), key), fact.get("value").unwrap().clone());
        }
    }
    facts
}

fn experiments() -> String {
    std::fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap()
}

/// What the cell prints right before a marker: a backquoted label, or
/// the trailing run of digits and points.
fn cell_before(text: &str) -> Option<(bool, &str)> {
    let text = text.trim_end();
    if let Some(open) = text.strip_suffix('`').and_then(|t| t.rfind('`')) {
        return Some((true, &text[open + 1..text.len() - 1]));
    }
    let start = text.trim_end_matches(|c: char| c.is_ascii_digit() || c == '.').len();
    (start < text.len()).then(|| (false, &text[start..]))
}

/// Why `cell` does not print `value`, if it does not.
fn mismatch(label: bool, cell: &str, value: &JsonValue) -> Option<String> {
    let printed = match (label, value) {
        (true, JsonValue::Str(s)) => s.clone(),
        (false, JsonValue::Num(n)) => {
            let decimals = cell.split_once('.').map_or(0, |(_, d)| d.len());
            format!("{n:.decimals$}")
        }
        _ => return Some(format!("cell {cell:?} and fact {} differ in kind", value.render())),
    };
    (printed != cell).then(|| format!("cell {cell:?}, fact {} prints {printed:?}", value.render()))
}

/// Every marker's disagreement with `facts`, one line each, and the
/// number of markers read. A `cargo bench` section that quotes no fact
/// is a disagreement too.
fn check(text: &str, facts: &Facts) -> (usize, Vec<String>) {
    let mut errors: Vec<String> = text
        .split("\n## ")
        .skip(1)
        .filter(|section| section.contains("cargo bench") && !section.contains(MARKER))
        .map(|section| format!("section {:?} runs `cargo bench` but quotes no fact", section.lines().next().unwrap()))
        .collect();
    let mut markers = 0;
    for (i, line) in text.lines().enumerate() {
        let mut rest = 0;
        while let Some(at) = line[rest..].find(MARKER).map(|at| rest + at) {
            markers += 1;
            let end = at + line[at..].find("-->").expect("a marker ends with -->");
            rest = end;
            let body = line[at + MARKER.len()..end].trim();
            let error = match body.split_once(' ') {
                None => Some(format!("marker {body:?} is not `<bench> <group>/<name>`")),
                Some((bench, key)) => match (facts.get(&(bench.to_string(), key.to_string())), cell_before(&line[..at])) {
                    (None, _) => Some(format!("{bench} {key}: no such committed fact")),
                    (_, None) => Some(format!("{bench} {key}: no number or `label` before the marker")),
                    (Some(value), Some((label, cell))) => {
                        mismatch(label, cell, value).map(|why| format!("{bench} {key}: {why}"))
                    }
                },
            };
            errors.extend(error.map(|e| format!("EXPERIMENTS.md:{}: {e}", i + 1)));
        }
    }
    (markers, errors)
}

#[test]
fn every_quoted_cell_prints_its_committed_fact() {
    let (markers, errors) = check(&experiments(), &committed_facts());
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    assert!(markers >= 180, "only {markers} cells quote a fact");
}

#[test]
fn a_changed_digit_or_an_unknown_fact_fails() {
    let (text, facts) = (experiments(), committed_facts());
    // The last digit before the first marker, moved by one.
    let at = text.find(MARKER).unwrap();
    let digit = text[..at].rfind(|c: char| c.is_ascii_digit()).unwrap();
    let moved = (text.as_bytes()[digit] - b'0' + 1) % 10;
    let edited = format!("{}{moved}{}", &text[..digit], &text[digit + 1..]);
    let (_, errors) = check(&edited, &facts);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("table2_bandwidth table2/bandwidth/semantic_raw: cell"), "{errors:?}");

    let unknown = text.replacen("table2/bandwidth/semantic_raw", "table2/bandwidth/semantic_rwa", 1);
    let (_, errors) = check(&unknown, &facts);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].ends_with("table2/bandwidth/semantic_rwa: no such committed fact"), "{errors:?}");

    let relabelled = text.replacen("`OOM` <!--", "`0OM` <!--", 1);
    let (_, errors) = check(&relabelled, &facts);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("cell \"0OM\""), "{errors:?}");
}
