//! The unequal-protection sweep: two ways to spend the same
//! redundancy budget, run through the one stream simulator
//! ([`crate::stream`]) and judged head to head.
//!
//! [`run_uep_scenarios`] fans every sweep plan × {`uniform`,
//! `weighted`} over the fork-join pool; [`uep_report`] turns the cells
//! into the dominance document with its budget ledger and per-plan
//! verdicts.

use crate::plan::FaultPlan;
use crate::report::UepOutcome;
use crate::stream::{run_uep_stream_scenario, StreamConfig};
use holo_net::wire::PayloadKind;
use holo_runtime::ser::{JsonValue, ToJson};
use holo_uep::UepPolicy;

/// The plans the UEP sweep runs: every non-clean stream plan of the
/// base matrix plus [`FaultPlan::burst5_squeeze`], the queue-pressure
/// scenario abandonment exists for.
pub fn uep_sweep_plans(seed: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan::burst5(seed),
        FaultPlan::flapping(seed),
        FaultPlan::bandwidth_collapse(seed),
        FaultPlan::delay_spike(seed),
        FaultPlan::burst5_squeeze(seed),
        FaultPlan::burst5_corrupt(seed),
    ]
}

/// Run the full weighted-vs-uniform sweep: every UEP plan × both
/// policies, fanned out over the deterministic fork-join pool. Cell
/// order is plan-major (uniform before weighted), ready to append to a
/// `ResilienceReport`'s `uep` section.
pub fn run_uep_scenarios(seed: u64) -> Vec<UepOutcome> {
    let cfg = StreamConfig::default();
    let mut items = Vec::with_capacity(12);
    for plan in uep_sweep_plans(seed) {
        for weighted in [false, true] {
            items.push((plan.clone(), weighted));
        }
    }
    holo_trace::parallel::par_map(items, move |(plan, weighted)| {
        let policy = if weighted { UepPolicy::weighted() } else { UepPolicy::uniform() };
        run_uep_stream_scenario(&plan, &policy, &cfg, PayloadKind::Mesh)
    })
}

/// The machine-readable dominance document (what
/// `examples/uep_comparison.rs` writes as `UEP_report.json`).
/// Per plan, a [`holo_obs::SloVerdict`] records the head-to-head:
/// weighted's usable rate must meet uniform's, under no more parity
/// and no more scheduled retries, with every frame accounted for
/// (`delivered + abandoned + lost == frames`). The top level counts
/// strict wins and declares dominance. Deterministic bytes per seed.
pub fn uep_report(seed: u64, cells: &[UepOutcome], spec: &holo_obs::SloSpec) -> JsonValue {
    let pairs: Vec<(&UepOutcome, &UepOutcome)> = cells
        .chunks(2)
        .map(|pair| {
            assert_eq!(pair.len(), 2, "cells come in uniform/weighted pairs");
            let (a, b) = (&pair[0], &pair[1]);
            assert_eq!(a.plan, b.plan, "pairs share a plan");
            if a.policy == "uniform" { (a, b) } else { (b, a) }
        })
        .collect();
    let mut strict_wins = 0usize;
    let mut dominates = true;
    let cell_docs: Vec<JsonValue> = pairs
        .iter()
        .map(|(uniform, weighted)| {
            let mut verdict = holo_obs::SloVerdict::new(&format!("uep-dominance/{}", spec.name));
            verdict.check_ge(
                "usable_rate_vs_uniform",
                weighted.usable_rate,
                uniform.usable_rate,
            );
            verdict.check_le(
                "parity_budget",
                weighted.parity_frames as f64,
                uniform.parity_frames as f64,
            );
            verdict.check_le(
                "retry_budget",
                weighted.retries_scheduled as f64,
                uniform.retries_scheduled as f64,
            );
            for out in [uniform, weighted] {
                let unaccounted =
                    out.frames as i64 - (out.delivered + out.abandoned + out.lost) as i64;
                verdict.check_le(
                    &format!("unaccounted_frames_{}", out.policy),
                    unaccounted.unsigned_abs() as f64,
                    0.0,
                );
            }
            let strictly_better = weighted.usable > uniform.usable;
            if strictly_better {
                strict_wins += 1;
            }
            if !verdict.pass() {
                dominates = false;
            }
            JsonValue::obj([
                ("plan", uniform.plan.to_json()),
                ("uniform", uniform.to_json()),
                ("weighted", weighted.to_json()),
                ("strictly_better", strictly_better.to_json()),
                ("verdict", verdict.to_json()),
            ])
        })
        .collect();
    let total = pairs.len();
    JsonValue::obj([
        ("seed", seed.to_json()),
        ("spec", spec.name.to_json()),
        (
            "policies",
            JsonValue::obj([
                ("uniform", UepPolicy::uniform().to_json()),
                ("weighted", UepPolicy::weighted().to_json()),
            ]),
        ),
        (
            "budget",
            JsonValue::obj([
                (
                    "parity_frames",
                    JsonValue::obj([
                        ("uniform", pairs.first().map_or(0, |(u, _)| u.parity_frames).to_json()),
                        ("weighted", pairs.first().map_or(0, |(_, w)| w.parity_frames).to_json()),
                    ]),
                ),
                (
                    "retries_scheduled",
                    JsonValue::obj([
                        (
                            "uniform",
                            pairs.first().map_or(0, |(u, _)| u.retries_scheduled).to_json(),
                        ),
                        (
                            "weighted",
                            pairs.first().map_or(0, |(_, w)| w.retries_scheduled).to_json(),
                        ),
                    ]),
                ),
                (
                    "equal",
                    pairs
                        .iter()
                        .all(|(u, w)| {
                            u.parity_frames == w.parity_frames
                                && u.retries_scheduled == w.retries_scheduled
                        })
                        .to_json(),
                ),
            ]),
        ),
        ("dominates", dominates.to_json()),
        ("strict_wins", strict_wins.to_json()),
        ("pass", (dominates && strict_wins * 2 >= total).to_json()),
        ("cells", JsonValue::Arr(cell_docs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_is_deterministic_and_appends_cleanly() {
        let a = run_uep_scenarios(7);
        let b = run_uep_scenarios(7);
        assert_eq!(a.len(), 12);
        assert_eq!(a.to_json().render(), b.to_json().render());
        // Appending the sweep leaves the base matrix bytes untouched.
        let mut report = crate::harness::run_scenarios(7);
        let base = report.render();
        report.uep = a;
        assert!(report.render().starts_with(&base[..base.len() - 1]));
    }

    #[test]
    fn the_sweep_is_thread_count_independent() {
        use holo_runtime::par;
        par::set_thread_override(Some(1));
        let one = run_uep_scenarios(7).to_json().render();
        par::set_thread_override(Some(8));
        let eight = run_uep_scenarios(7).to_json().render();
        assert_eq!(one, eight, "UEP cells diverged across thread counts");
    }

    #[test]
    fn report_doc_is_deterministic_and_parses() {
        let cells = run_uep_scenarios(7);
        let spec = holo_obs::SloSpec::telepresence();
        let doc = uep_report(7, &cells, &spec).render();
        assert_eq!(doc, uep_report(7, &cells, &spec).render());
        holo_runtime::ser::parse(&doc).expect("UEP doc parses");
        for key in ["policies", "budget", "dominates", "strict_wins", "verdict"] {
            assert!(doc.contains(key), "missing {key}");
        }
    }
}
