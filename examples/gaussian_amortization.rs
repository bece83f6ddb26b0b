//! The amortization frontier: when does a pre-built Gaussian avatar
//! pay for itself?
//!
//! Runs the gaussian, mesh, and keypoint tiers over the same captured
//! clip, measures each tier's startup bytes and steady-state rate, and
//! computes the break-even call duration — the point beyond which the
//! gaussian tier's big one-time prebuild blob plus tiny per-frame
//! updates undercut the rival's total wire bytes. Two canonical
//! artifacts come out:
//!
//! - `BENCH_gaussian_amortization.json` — the measured cost model as
//!   the bench harness's facts (no timings), so `scripts/bench_gate.sh`
//!   compares it exactly. Every value is derived from encoded byte
//!   counts, never from wall clocks, so the file is byte-identical
//!   across runs and thread counts.
//! - `GAUSSIAN_frontier.json` — break-even duration vs mesh and
//!   keypoints as a function of prebuild size and update rate.
//!
//! Run with: `cargo run --release --example gaussian_amortization`

use holo_gaussian::{break_even_seconds, FrontierReport, GaussianPipeline, TierCost};
use holo_runtime::bench::Criterion;
use holo_runtime::ser::ToJson;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{SceneSource, SemHoloConfig, SemanticPipeline};

const FPS: f64 = 30.0;

/// Mean steady-state payload bytes per frame, skipping the cold-start
/// frame (codebook / prebuild work happens there).
fn steady_payload(pipeline: &mut dyn SemanticPipeline, scene: &SceneSource, frames: usize) -> f64 {
    let mut total = 0usize;
    for i in 1..frames {
        total += pipeline.encode(&scene.frame(i)).expect("encode").payload.len();
    }
    total as f64 / (frames - 1) as f64
}

fn main() {
    let config =
        SemHoloConfig { capture_resolution: (48, 36), camera_count: 2, ..Default::default() };
    let scene = SceneSource::new(&config, 0.5);
    let frames = 15;

    // Gaussian tier: the first encode runs the offline prebuild; every
    // later frame is a tiny update. One payload per frame — the update
    // stream never skips, so the usable-frame rate matches the rivals'.
    let mut gaussian = GaussianPipeline::default();
    let _cold = gaussian.encode(&scene.frame(0)).expect("prebuild");
    let g_payload = steady_payload(&mut gaussian, &scene, frames);
    let prebuild = gaussian.prebuild_bytes();

    // Rival tiers ship zero startup bytes and pay per frame forever.
    let mut mesh = TraditionalPipeline::new(MeshWire::Compressed, 14);
    let _cold = mesh.encode(&scene.frame(0)).expect("mesh warmup");
    let m_payload = steady_payload(&mut mesh, &scene, frames);
    let mut keypoints =
        KeypointPipeline::new(KeypointConfig { resolution: 64, ..Default::default() }, 42);
    let _cold = keypoints.encode(&scene.frame(0)).expect("keypoint warmup");
    let k_payload = steady_payload(&mut keypoints, &scene, frames);

    let tier = |name: &str, prebuild_bytes: u64, payload: f64| TierCost {
        name: name.into(),
        prebuild_bytes,
        steady_bps: payload * 8.0 * FPS,
    };
    let g = tier("gaussian", prebuild as u64, g_payload);
    let m = tier("mesh", 0, m_payload);
    let k = tier("keypoints", 0, k_payload);

    println!("tier cost models ({frames} frames at {FPS:.0} fps, {}x{} / {} cams):\n",
        config.capture_resolution.0, config.capture_resolution.1, config.camera_count);
    println!("{:>12} {:>16} {:>14}", "tier", "prebuild(B)", "steady(kbps)");
    for t in [&m, &g, &k] {
        println!("{:>12} {:>16} {:>14.1}", t.name, t.prebuild_bytes, t.steady_bps / 1e3);
    }

    let be_mesh = break_even_seconds(&g, &m);
    let be_keypoints = break_even_seconds(&g, &k);
    println!("\nbreak-even vs mesh:      {be_mesh:.2} s");
    println!("break-even vs keypoints: {be_keypoints:.2} s");

    // The honesty checks behind the headline number: short calls favor
    // the rival, long calls favor the amortized tier.
    assert!(be_mesh > 0.0, "gaussian must cost something up front");
    assert!(g.steady_bps < m.steady_bps, "updates must undercut mesh steady-state");
    assert!(
        g.total_bytes(be_mesh * 0.5) > m.total_bytes(be_mesh * 0.5),
        "short calls must honestly favor mesh"
    );
    assert!(
        g.total_bytes(be_mesh * 2.0) < m.total_bytes(be_mesh * 2.0),
        "long calls must favor the amortized tier"
    );
    println!(
        "a {:.0} s call: gaussian {:.0} KB total vs mesh {:.0} KB total",
        be_mesh * 2.0,
        g.total_bytes(be_mesh * 2.0) / 1e3,
        m.total_bytes(be_mesh * 2.0) / 1e3
    );

    // The frontier: what if the prebuild were bigger (denser rigs) or
    // the update stream richer? Fixed grid + the measured point.
    let sizes = [prebuild as u64, 100_000, 1_000_000, 10_000_000];
    let rates = [g.steady_bps, 50e3, 100e3, 200e3];
    let report = FrontierReport::sweep(vec![m.clone(), g.clone(), k.clone()], &sizes, &rates);
    std::fs::write("GAUSSIAN_frontier.json", report.to_json().render() + "\n")
        .expect("write GAUSSIAN_frontier.json");
    println!(
        "\nwrote GAUSSIAN_frontier.json ({} cells over {} prebuild sizes x {} update rates)",
        report.grid.len(),
        sizes.len(),
        rates.len()
    );

    // The bench artifact: byte-derived facts, so the gate fails on any
    // codec efficiency drift.
    let mut c = Criterion::from_args();
    let mut group = c.benchmark_group("gaussian_amortization");
    group.fact("prebuild", prebuild, "bytes");
    group.fact("update_payload", g_payload, "bytes");
    group.fact("mesh_payload", m_payload, "bytes");
    group.fact("keypoint_payload", k_payload, "bytes");
    group.fact("gaussian_steady", g.steady_bps, "bps");
    group.fact("break_even_vs_mesh", be_mesh * 1e9, "ns");
    group.fact("break_even_vs_keypoints", be_keypoints * 1e9, "ns");
    group.finish();
    c.write_report(std::path::Path::new("."), "gaussian_amortization")
        .expect("write BENCH_gaussian_amortization.json");
    println!("wrote BENCH_gaussian_amortization.json (byte-derived facts, no wall clocks)");
}
