//! Surviving a lossy link: deterministic fault injection + recovery.
//!
//! Injects ~5% Gilbert–Elliott burst loss into a 50 Mbps link and
//! compares four protection strategies for a 30 fps hologram stream —
//! nothing, XOR-parity FEC(4,1), RTO-scheduled retransmission, and
//! both. Then runs the full chaos matrix (streams × plans ×
//! mechanisms, sessions, rooms with the semantic degradation ladder)
//! and writes the canonical `RESILIENCE_chaos.json` report. Every matrix
//! cell is then judged against the telepresence SLO (`holo-obs`) and the
//! verdicts land in `SLO_report.json`. Both come from their recipes in
//! `semholo_repro::reports`.
//!
//! Run with: `cargo run --release --example chaos_recovery`

use holo_chaos::{run_stream_scenario, FaultPlan, Mechanisms, StreamConfig};

fn main() {
    let seed = 42;

    // 1. One faulted stream, four protection strategies.
    let cfg = StreamConfig { frames: 150, ..Default::default() };
    let plan = FaultPlan::burst5(seed);
    println!(
        "stream: {} frames at {:.0} fps, {} B payloads on a {:.0} Mbps link",
        cfg.frames,
        cfg.fps,
        cfg.payload_bytes,
        cfg.link_bps / 1e6
    );
    println!("fault plan: {} (Gilbert-Elliott burst loss, seed {seed})\n", plan.name);
    println!(
        "{:<22} {:>9} {:>7} {:>12} {:>9} {:>9} {:>9}",
        "mechanism", "delivered", "usable", "usable_rate", "fec_fix", "retx_fix", "overhead"
    );
    let mut baseline_usable = 0usize;
    for mech in
        [Mechanisms::baseline(), Mechanisms::fec(), Mechanisms::retransmit(), Mechanisms::full()]
    {
        let o = run_stream_scenario(&plan, &mech, &cfg);
        if o.mechanism == "baseline" {
            baseline_usable = o.usable;
        }
        println!(
            "{:<22} {:>5}/{:<3} {:>7} {:>12.3} {:>9} {:>9} {:>8.2}x",
            o.mechanism,
            o.delivered,
            o.frames,
            o.usable,
            o.usable_rate,
            o.recovered_fec,
            o.recovered_retx,
            o.overhead
        );
    }
    let full = run_stream_scenario(&plan, &Mechanisms::full(), &cfg);
    println!(
        "\nFEC(4,1)+retransmit keeps {}x the usable frames of the unprotected baseline.",
        if baseline_usable > 0 { full.usable / baseline_usable.max(1) } else { full.usable }
    );

    // 2. The full matrix: stream plans x mechanisms, session loss
    // policies, and rooms where the semantic ladder (mesh -> keypoints
    // -> text) is the resilience mechanism, plus the fourth rung under
    // fire: a bandwidth squeeze sized between the gaussian and mesh
    // floors, with and without the prebuilt avatar blob.
    println!("\nrunning the full chaos matrix (seed {seed})...");
    let report = semholo_repro::reports::chaos_matrix();
    for room in &report.rooms {
        println!(
            "room '{}': starved subscriber usable {:.3}, {} degraded frames, {} ladder downgrades, kept flowing: {}",
            room.plan,
            room.starved_usable_rate,
            room.degraded,
            room.ladder_downgrades,
            room.kept_flowing
        );
    }
    println!("\ngaussian squeeze (4-tier ladder, prebuild-gated):");
    for g in &report.gaussian {
        println!(
            "  {} ({}): gaussian {} / keypoints {} frames ({:.0}% gaussian), usable {:.3}, kept flowing: {}",
            g.plan,
            if g.prebuilt { "prebuilt" } else { "cold" },
            g.gaussian_delivered,
            g.keypoints_delivered,
            g.gaussian_fraction * 100.0,
            g.starved_usable_rate,
            g.kept_flowing
        );
    }

    // 3. Judge every matrix cell against the amortized telepresence SLO.
    // Objectives the aggregates can't answer come back skipped, never
    // silently passed.
    let spec = holo_obs::SloSpec::telepresence_amortized();
    println!("\nSLO verdicts ({}):", spec.name);
    for (cell, verdict) in report.slo_verdicts(&spec) {
        println!("  {cell:<42} {}", verdict.line());
    }
    println!();
    semholo_repro::reports::write("RESILIENCE_chaos.json");
    semholo_repro::reports::write("SLO_report.json");
}
