//! **Chaos resilience** — what the recovery mechanisms buy under
//! deterministic fault injection, measured by `holo-chaos`.
//!
//! The scenario matrix (fault plans × protection mechanisms over a
//! 30 fps hologram stream, plus ladder-protected rooms) runs in seeded
//! virtual time, so every number here is byte-reproducible. The
//! measured usable-frame rates are recorded as facts, so
//! `BENCH_chaos_resilience.json` carries them beside the timings and
//! the gate compares them exactly — including the headline cell:
//! FEC(4,1)+retransmit vs the unprotected baseline under ~5%
//! Gilbert–Elliott burst loss. The stream is 60 frames (150 in full
//! mode) of 20 000 B payloads at 30 fps on a 50 Mbps link, seed 42.

use holo_chaos::{
    room_collapse_plan, run_room_scenario, run_stream_scenario, FaultPlan, Mechanisms,
    StreamConfig,
};
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use std::hint::black_box;

fn chaos_resilience(c: &mut Criterion) {
    let quick = c.quick();
    let seed = 42;
    let cfg = StreamConfig {
        frames: if quick { 60 } else { 150 },
        ..Default::default()
    };

    let plans = [FaultPlan::burst5(seed), FaultPlan::flapping(seed)];
    let mechanisms =
        [Mechanisms::baseline(), Mechanisms::fec(), Mechanisms::retransmit(), Mechanisms::full()];
    let cells: Vec<_> = plans
        .iter()
        .flat_map(|plan| mechanisms.iter().map(|mech| run_stream_scenario(plan, mech, &cfg)))
        .collect();

    // The ladder scenario: a starved subscriber kept flowing by
    // mesh -> keypoints -> text degradation.
    let room = run_room_scenario(&room_collapse_plan(seed), 3, if quick { 8 } else { 12 }, 2);

    let mut group = c.benchmark_group("chaos_resilience");
    group.sample_size(10);
    for o in &cells {
        let permille = (o.usable_rate * 1000.0).round() as u64;
        group.fact(format!("usable/{}/{}", o.plan, o.mechanism), permille, "permille");
    }
    group.fact("ladder_kept_flowing", u8::from(room.kept_flowing), "flag");
    // Honest timings: one protected stream cell and the ladder room.
    group.bench_function("stream_burst5_full_protection", |b| {
        b.iter(|| black_box(run_stream_scenario(&plans[0], &Mechanisms::full(), &cfg)))
    });
    group.bench_function("room_collapse_ladder", |b| {
        b.iter(|| black_box(run_room_scenario(&room_collapse_plan(seed), 3, 4, 2)))
    });
    group.finish();
}

bench_group!(benches, chaos_resilience);
bench_main!(benches);
