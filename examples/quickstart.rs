//! Quickstart: one frame through the keypoint-semantics pipeline.
//!
//! Builds a synthetic talking participant, extracts the 1.91 KB pose
//! payload, ships it over a simulated 25 Mbps broadband link, and
//! reconstructs the hologram at the receiver — printing the numbers the
//! paper's argument turns on (payload size, bandwidth, reconstruction
//! cost, quality).
//!
//! Run with: `cargo run --release --example quickstart`

use holo_gpu::Device;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::{Content, SceneSource, SemHoloConfig, SemanticPipeline};

fn main() {
    // 1. A scene: synthetic participant captured by a virtual RGB-D rig.
    let config = SemHoloConfig::default();
    println!("setting up scene (motion: {:?}, {} fps)...", config.motion, config.fps);
    let scene = SceneSource::new(&config, 1.0);
    let frame = scene.frame(10);

    // 2. Sender: detect keypoints, fit SMPL-X parameters, compress.
    let mut pipeline = KeypointPipeline::new(
        KeypointConfig { resolution: 128, ..Default::default() },
        42,
    );
    let encoded = pipeline.encode(&frame).expect("extraction");
    println!(
        "semantic payload: {} bytes ({:.2} KB; raw pose payload is {} bytes = 1.91 KB)",
        encoded.payload.len(),
        encoded.payload.len() as f64 / 1024.0,
        holo_body::params::PosePayload::WIRE_SIZE,
    );
    println!(
        "bandwidth at 30 FPS: {:.2} Mbps (the raw mesh would need {:.1} Mbps)",
        encoded.payload.len() as f64 * 8.0 * 30.0 / 1e6,
        frame.posed_mesh().raw_size_bytes() as f64 * 8.0 * 30.0 / 1e6,
    );

    // 3. Receiver: reconstruct the body from the payload.
    let reconstructed = pipeline.decode(&encoded.payload).expect("reconstruction");
    let Content::Mesh(mesh) = &reconstructed.content else { unreachable!() };
    println!("reconstructed mesh: {} vertices, {} faces", mesh.vertex_count(), mesh.face_count());

    // 4. The catch (paper §4): reconstruction cost on real hardware.
    let a100 = Device::a100();
    let recon = reconstructed.recon.time_on(&a100).expect("A100 fits");
    println!(
        "modeled X-Avatar-class reconstruction on an A100: {:.0} ms -> {:.2} FPS (paper: <3 FPS)",
        recon.as_secs_f64() * 1e3,
        1.0 / recon.as_secs_f64()
    );

    // 5. Quality against the ground-truth capture.
    let q = pipeline.quality(&frame, &reconstructed.content);
    println!(
        "quality vs ground truth: {:.1} mm chamfer, f-score {:.2} (cloth detail is unrecoverable from keypoints)",
        q.chamfer.unwrap() * 1000.0,
        q.f_score.unwrap()
    );

    // 6. Observability: a 30-frame session with the holo-trace recorder
    // on, and where the milliseconds go. The recipe in
    // `semholo_repro::reports` replays steps 2-3 on a fresh pipeline and
    // records the session on this thread's recorder, which the table
    // reads. Every span is stamped in virtual SimTime, so
    // TRACE_quickstart.json is the same bytes on every run (open it in
    // chrome://tracing or Perfetto).
    println!();
    semholo_repro::reports::write("TRACE_quickstart.json");
    let trace = holo_trace::trace_report();
    let count = |stage: &str| trace.get(stage).map_or(0, |s| s.count);
    println!("traced session: {}/{} frames delivered", count("render"), count("frame"));
    println!("{}", trace.table());
}
