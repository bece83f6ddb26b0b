//! **Ablation C (§3.3)** — temporal token deltas and the global+local
//! channel design.
//!
//! Paper proposals: (1) "for subsequent frames, we can encode only the
//! differences from the preceding frame"; (2) the two-step global+local
//! encoding prevents "the potential loss of global information, such as
//! the overall body pose, caused by the segmentation of human models".
//!
//! Part 1 streams 8 frames with full captions and with temporal deltas
//! (first-frame bytes, mean bytes of the rest, mean chamfer); part 2
//! streams 4 frames with a deliberately coarse 8-token local vocabulary,
//! with and without the global channel.

use crate::{bench_scene, Facts};
use semholo::text::{TextConfig, TextPipeline};
use semholo::{Content, SemanticPipeline};

fn run(config: TextConfig, frames: usize) -> (f64, f64, f64) {
    let scene = bench_scene(2.0);
    let mut p = TextPipeline::new(config, 42);
    let mut first_bytes = 0.0;
    let mut rest_bytes = 0.0;
    let mut chamfer_sum = 0.0;
    for i in 0..frames {
        let frame = scene.frame(i);
        let enc = p.encode(&frame).unwrap();
        if i == 0 {
            first_bytes = enc.payload.len() as f64;
        } else {
            rest_bytes += enc.payload.len() as f64;
        }
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Cloud(_) = &rec.content else { unreachable!() };
        let q = p.quality(&frame, &rec.content);
        chamfer_sum += q.chamfer.unwrap_or(f32::NAN) as f64;
    }
    (first_bytes, rest_bytes / (frames - 1) as f64, chamfer_sum / frames as f64)
}

/// `BENCH_ablation_text.json`.
pub fn facts() -> String {
    let mut facts = Facts::new("ablation_text", "ablation_text");
    let frames = 8;
    let (full_first, full_rest, full_q) =
        run(TextConfig { use_delta: false, use_global_channel: true, ..Default::default() }, frames);
    let (delta_first, delta_rest, delta_q) =
        run(TextConfig { use_delta: true, use_global_channel: true, ..Default::default() }, frames);
    for (name, first, rest, q) in [("full", full_first, full_rest, full_q), ("delta", delta_first, delta_rest, delta_q)] {
        facts.fact(format!("{name}/first_frame"), first, "bytes");
        facts.fact(format!("{name}/steady_mean"), rest, "bytes");
        facts.fact(format!("{name}/chamfer"), q * 1000.0, "mm");
    }
    facts.fact("delta_saving", full_rest / delta_rest.max(1.0), "ratio");
    assert!(delta_rest < full_rest, "deltas must shrink steady-state frames");
    assert!((delta_q - full_q).abs() < 0.03, "delta coding must not change reconstruction quality");

    // Global channel on/off with a deliberately coarse local vocabulary
    // (where the global pose correction matters most).
    let coarse = TextConfig { vocabulary: 8, use_delta: false, use_global_channel: true, ..Default::default() };
    let coarse_off = TextConfig { vocabulary: 8, use_delta: false, use_global_channel: false, ..Default::default() };
    let (_, _, with_global) = run(coarse, 4);
    let (_, _, without_global) = run(coarse_off, 4);
    facts.fact("global_channel/with", with_global * 1000.0, "mm");
    facts.fact("global_channel/without", without_global * 1000.0, "mm");
    assert!(
        with_global <= without_global * 1.05,
        "global channel must not hurt: {with_global} vs {without_global}"
    );
    facts.render()
}
