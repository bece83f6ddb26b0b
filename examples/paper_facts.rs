//! The paper's evaluation as facts: Tables 1–2, Figs. 2–4 and the §3
//! ablations, one `BENCH_<bench>.json` each.
//!
//! Runs every experiment's recipe from `holo-bench` (each asserts the
//! paper's shape on its values) and writes the twelve documents into the
//! current directory through `semholo_repro::reports`, the recipes
//! `tests/committed_reports.rs` checks. EXPERIMENTS.md quotes the facts.
//!
//! Run with: `cargo run --release --example paper_facts`

use semholo_repro::reports::{self, REPORTS};

fn main() {
    for (file, _) in REPORTS.iter().filter(|(file, _)| file.starts_with("BENCH_")) {
        reports::write(file);
    }
}
