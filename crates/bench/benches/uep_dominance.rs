//! **UEP dominance** — what importance-weighted protection buys over
//! uniform protection at an equal redundancy budget.
//!
//! Runs the full weighted-vs-uniform sweep (`holo-chaos::uep`) in
//! seeded virtual time and records the measured usable-frame rates as
//! facts, so `BENCH_uep_dominance.json` carries the head-to-head
//! beside the timings and the gate compares it exactly. The budget
//! twins are asserted here too: both policies must spend identical
//! parity frames and scheduled retries, or the comparison is
//! meaningless.

use holo_chaos::{run_uep_scenarios, run_uep_stream_scenario, FaultPlan, StreamConfig};
use holo_net::wire::PayloadKind;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use holo_uep::UepPolicy;
use std::hint::black_box;

fn uep_dominance(c: &mut Criterion) {
    let seed = 42;

    let cells = run_uep_scenarios(seed);
    let mut strict = 0usize;
    let mut dominates = true;
    for pair in cells.chunks(2) {
        let (u, w) = (&pair[0], &pair[1]);
        assert_eq!(u.parity_frames, w.parity_frames, "{}: parity budgets differ", u.plan);
        assert_eq!(u.retries_scheduled, w.retries_scheduled, "{}: retry budgets differ", u.plan);
        if w.usable > u.usable {
            strict += 1;
        }
        if w.usable < u.usable {
            dominates = false;
        }
    }

    let mut group = c.benchmark_group("uep_dominance");
    group.sample_size(10);
    for o in &cells {
        let permille = (o.usable_rate * 1000.0).round() as u64;
        group.fact(format!("usable/{}/{}", o.plan, o.policy), permille, "permille");
    }
    group.fact("dominates", u8::from(dominates), "flag");
    group.fact("strict_wins", strict, "plans");
    // Honest timings: the queue-pressure cell under both policies.
    let cfg = StreamConfig::default();
    let squeeze = FaultPlan::burst5_squeeze(seed);
    group.bench_function("stream_squeeze_uniform", |b| {
        b.iter(|| {
            black_box(run_uep_stream_scenario(
                &squeeze,
                &UepPolicy::uniform(),
                &cfg,
                PayloadKind::Mesh,
            ))
        })
    });
    group.bench_function("stream_squeeze_weighted", |b| {
        b.iter(|| {
            black_box(run_uep_stream_scenario(
                &squeeze,
                &UepPolicy::weighted(),
                &cfg,
                PayloadKind::Mesh,
            ))
        })
    });
    group.finish();
}

bench_group!(benches, uep_dominance);
bench_main!(benches);
