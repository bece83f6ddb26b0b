//! Acceptance for semantic-importance unequal protection (DESIGN.md
//! §14): at an *equal* redundancy budget, the importance-weighted
//! policy must never lose to uniform protection, and must strictly
//! beat it on at least half the sweep — judged by SLO verdicts in
//! `UEP_report.json`, which `tests/committed_reports.rs` reproduces
//! byte for byte.

use holo_chaos::{run_uep_scenarios, uep_report, uep_sweep_plans};
use holo_runtime::ser::JsonValue;
use holo_uep::UepPolicy;

const SEED: u64 = 42;

fn report_doc() -> JsonValue {
    let cells = run_uep_scenarios(SEED);
    uep_report(SEED, &cells, &holo_obs::SloSpec::telepresence())
}

/// The headline claim: weighted ≥ uniform in every cell, strictly
/// better in at least half, and the report says so via verdicts.
#[test]
fn weighted_dominates_uniform_at_seed_42() {
    let cells = run_uep_scenarios(SEED);
    assert_eq!(cells.len(), 2 * uep_sweep_plans(SEED).len());
    let mut strict = 0usize;
    for pair in cells.chunks(2) {
        let (uniform, weighted) = (&pair[0], &pair[1]);
        assert_eq!(uniform.policy, "uniform");
        assert_eq!(weighted.policy, "weighted");
        assert_eq!(uniform.plan, weighted.plan);
        assert!(
            weighted.usable >= uniform.usable,
            "{}: weighted usable {} < uniform {}",
            uniform.plan,
            weighted.usable,
            uniform.usable
        );
        if weighted.usable > uniform.usable {
            strict += 1;
        }
    }
    assert!(
        strict * 2 >= cells.len() / 2,
        "weighted strictly better in only {strict} of {} plans",
        cells.len() / 2
    );

    let doc = report_doc();
    assert_eq!(doc.get("dominates"), Some(&JsonValue::Bool(true)));
    assert_eq!(doc.get("pass"), Some(&JsonValue::Bool(true)));
}

/// The comparison is honest only if both policies spend the same
/// redundancy: identical parity-frame and scheduled-retry budgets in
/// every cell, straight from the policies' own accounting.
#[test]
fn both_policies_spend_the_same_budget() {
    use holo_net::wire::PayloadKind;
    let (uniform, weighted) = (UepPolicy::uniform(), UepPolicy::weighted());
    assert_eq!(uniform.parity_frames(150, 10, PayloadKind::Mesh), 37);
    assert_eq!(weighted.parity_frames(150, 10, PayloadKind::Mesh), 37);
    assert_eq!(uniform.scheduled_retries(150, 10, PayloadKind::Mesh), 450);
    assert_eq!(weighted.scheduled_retries(150, 10, PayloadKind::Mesh), 450);

    for pair in run_uep_scenarios(SEED).chunks(2) {
        let (u, w) = (&pair[0], &pair[1]);
        assert_eq!(u.parity_frames, w.parity_frames, "{}: parity budget differs", u.plan);
        assert_eq!(
            u.retries_scheduled, w.retries_scheduled,
            "{}: retry budget differs",
            u.plan
        );
    }
    let doc = report_doc();
    let equal = doc.get("budget").and_then(|b| b.get("equal"));
    assert_eq!(equal, Some(&JsonValue::Bool(true)));
}

/// Abandonment is a *decision*, not a failure: every frame lands in
/// exactly one of delivered / abandoned / lost, and a cell that
/// abandons retries still accounts for the frames it gave up on.
#[test]
fn abandoned_frames_are_never_counted_as_losses() {
    let cells = run_uep_scenarios(SEED);
    let mut abandoned_total = 0usize;
    for cell in &cells {
        assert_eq!(
            cell.delivered + cell.abandoned + cell.lost,
            cell.frames,
            "{}/{}: unaccounted frames",
            cell.plan,
            cell.policy
        );
        if cell.policy == "uniform" {
            assert_eq!(cell.abandoned, 0, "{}: uniform never abandons", cell.plan);
        }
        abandoned_total += cell.abandoned;
        for class in &cell.classes {
            assert_eq!(
                class.delivered + class.abandoned + class.lost,
                class.frames,
                "{}/{}/{}: unaccounted class frames",
                cell.plan,
                cell.policy,
                class.class
            );
            if matches!(class.class.as_str(), "critical" | "high") {
                assert_eq!(
                    class.abandoned, 0,
                    "{}/{}: {} frames must never be abandoned",
                    cell.plan, cell.policy, class.class
                );
            }
        }
    }
    assert!(abandoned_total > 0, "the sweep must exercise abandonment somewhere");
}

/// The uep section appends to the resilience report without touching
/// the bytes of what came before it — the same suffix-only contract
/// the gaussian tier established.
#[test]
fn uep_section_is_a_pure_suffix_of_the_resilience_report() {
    let mut report = holo_chaos::run_scenarios(7);
    let base = report.render();
    report.uep = run_uep_scenarios(7);
    let with = report.render();
    assert!(with.len() > base.len());
    assert!(
        with.starts_with(&base[..base.len() - 1]),
        "uep section rewrote earlier report bytes"
    );
    let verdicts = report.slo_verdicts(&holo_obs::SloSpec::telepresence());
    assert!(
        verdicts.iter().any(|(cell, _)| cell.starts_with("uep/")),
        "uep cells missing from slo_verdicts"
    );
}
