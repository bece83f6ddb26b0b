//! Shared helpers for the benchmark harness.
//!
//! Every bench regenerates one table or figure of the paper. Each seeded
//! value the experiment produces is recorded once, as a fact
//! (`group.fact(name, value, unit)`): the harness prints it as a
//! `[fact]` line and writes it to `BENCH_<target>.json`, where
//! `bench_gate` compares it exactly and EXPERIMENTS.md quotes it by name.
//! The bench then asserts the paper's shape on those values and
//! harness-times the operation the experiment measures. Scene setup is
//! shared here so every bench observes the same participant.

use semholo::{SceneSource, SemHoloConfig};

/// The standard benchmark scene: a talking participant, 30 FPS,
/// captured by a 4-camera ring at 96x72 (dense enough that capture
/// coverage, not camera count, bounds cloud quality).
pub fn bench_scene(seconds: f32) -> SceneSource {
    let config = SemHoloConfig {
        capture_resolution: (96, 72),
        camera_count: 4,
        ..Default::default()
    };
    SceneSource::new(&config, seconds)
}

/// Bandwidth in Mbps at 30 FPS for a per-frame payload size (paper
/// Table 2 arithmetic: payload bytes x 8 x 30).
pub fn mbps_at_30fps(bytes: usize) -> f64 {
    bytes as f64 * 8.0 * 30.0 / 1e6
}
