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
//! Gilbert–Elliott burst loss.

use holo_bench::{report, report_header};
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

    report_header("Chaos resilience: usable frames under injected faults");
    report(&format!(
        "stream: {} frames at {:.0} fps, {} B payloads, {:.0} Mbps link, seed {seed}",
        cfg.frames,
        cfg.fps,
        cfg.payload_bytes,
        cfg.link_bps / 1e6,
    ));

    let plans = [FaultPlan::burst5(seed), FaultPlan::flapping(seed)];
    let mechanisms =
        [Mechanisms::baseline(), Mechanisms::fec(), Mechanisms::retransmit(), Mechanisms::full()];
    let mut cells = Vec::new();
    for plan in &plans {
        for mech in &mechanisms {
            let o = run_stream_scenario(plan, mech, &cfg);
            report(&format!(
                "{:<10} {:<22} usable {:>5.3} delivered {:>3}/{:<3} fec {:>2} retx {:>3} overhead {:.2}x",
                o.plan,
                o.mechanism,
                o.usable_rate,
                o.delivered,
                o.frames,
                o.recovered_fec,
                o.recovered_retx,
                o.overhead,
            ));
            cells.push(o);
        }
    }
    let base = cells.iter().find(|o| o.plan == "burst5" && o.mechanism == "baseline").unwrap();
    let full = cells
        .iter()
        .find(|o| o.plan == "burst5" && o.mechanism == "fec(4,1)+retransmit")
        .unwrap();
    report(&format!(
        "headline: fec(4,1)+retransmit keeps {:.1}x the baseline's usable frames under burst5",
        full.usable as f64 / (base.usable.max(1)) as f64,
    ));

    // The ladder scenario: a starved subscriber kept flowing by
    // mesh -> keypoints -> text degradation.
    let room = run_room_scenario(&room_collapse_plan(seed), 3, if quick { 8 } else { 12 }, 2);
    report(&format!(
        "room collapse: starved usable {:.3}, {} degraded frames, {} downgrades, kept flowing: {}",
        room.starved_usable_rate, room.degraded, room.ladder_downgrades, room.kept_flowing,
    ));

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
