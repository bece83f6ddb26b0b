//! Unequal protection head-to-head: weighted vs uniform at an equal
//! redundancy budget.
//!
//! Runs the UEP sweep (every non-clean stream plan plus the
//! queue-pressure `burst5_squeeze`) twice per plan — once with the
//! uniform policy (same FEC stripe and retry schedule for every
//! frame) and once with the importance-weighted policy (keyframes
//! duplicated, deltas striped wider, tails unprotected, doomed
//! retries abandoned) — and writes the canonical `UEP_report.json`
//! dominance document from its recipe in `semholo_repro::reports`.
//! Both policies spend *exactly* the same parity frames and scheduled
//! retries; only the allocation differs.
//!
//! Run with: `cargo run --release --example uep_comparison`

use holo_chaos::run_uep_scenarios;
use holo_runtime::ser::{self, JsonValue};
use semholo_repro::reports;

fn main() {
    let cells = run_uep_scenarios(reports::SEED);

    println!("UEP sweep: {} plans x 2 policies (seed {})\n", cells.len() / 2, reports::SEED);
    println!(
        "{:<20} {:>8} {:>8} {:>6} {:>10} {:>6} {:>8} {:>8}",
        "plan", "policy", "usable", "late", "abandoned", "lost", "fec_fix", "retx_fix"
    );
    for cell in &cells {
        println!(
            "{:<20} {:>8} {:>5}/{:<3} {:>5} {:>10} {:>6} {:>8} {:>8}",
            cell.plan,
            cell.policy,
            cell.usable,
            cell.frames,
            cell.late,
            cell.abandoned,
            cell.lost,
            cell.recovered_fec,
            cell.recovered_retx
        );
    }
    println!();

    let doc = ser::parse(&reports::write("UEP_report.json")).expect("the report is JSON");
    println!("\nper-plan verdicts ({}):", holo_obs::SloSpec::telepresence().name);
    for cell in doc.get("cells").and_then(|c| c.as_array()).into_iter().flatten() {
        let plan = cell.get("plan").and_then(|p| p.as_str()).unwrap_or("?");
        let strict = matches!(cell.get("strictly_better"), Some(JsonValue::Bool(true)));
        println!(
            "  {:<20} {}",
            plan,
            if strict { "weighted strictly better" } else { "weighted >= uniform" }
        );
    }
    println!(
        "\nweighted dominates: {:?}, strict wins: {:?}",
        doc.get("dominates"),
        doc.get("strict_wins")
    );
}
