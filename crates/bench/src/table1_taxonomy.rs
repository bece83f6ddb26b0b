//! **Table 1** — the semantics taxonomy, measured.
//!
//! The paper grades each semantic type qualitatively: computation
//! overhead for extraction and reconstruction (L/M/H), data size (L/M/H),
//! visual quality (L/M/H), and output format — keypoint L/H/L, image
//! -/H/M, text H/H/L (extract/recon/size). This recipe runs the three
//! semantic pipelines, the gaussian tier and the traditional baseline on
//! the same captured frame, records the quantities behind those grades,
//! and re-derives the letter grades from them (`grades/<row>`).
//!
//! Stage times are modeled A100 milliseconds. A stage with no modeled
//! workload (image extraction, both traditional stages) has only a CPU
//! wall-clock time, which is not a fact: it gets no time and the grade
//! `-`, as the paper grades image extraction.

use crate::{bench_scene, mbps_at_30fps, Facts};
use holo_gaussian::GaussianPipeline;
use holo_gpu::Device;
use semholo::image::{ImageConfig, ImagePipeline};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::text::{TextConfig, TextPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{QualityReport, SceneSource, SemanticPipeline, StageCost};

/// The table's rows, in order.
const ROWS: [&str; 5] = ["keypoint", "image", "text", "gaussian", "traditional"];

/// The pipeline a row measures.
fn pipeline(row: &str) -> Box<dyn SemanticPipeline> {
    match row {
        "keypoint" => {
            Box::new(KeypointPipeline::new(KeypointConfig { resolution: 128, ..Default::default() }, 42))
        }
        "image" => Box::new(ImagePipeline::new(ImageConfig { pretrain_steps: 150, ..Default::default() }, 42)),
        "text" => Box::new(TextPipeline::new(TextConfig::default(), 42)),
        "gaussian" => Box::new(GaussianPipeline::default()),
        "traditional" => Box::new(TraditionalPipeline::new(MeshWire::Compressed, 14)),
        other => panic!("no Table 1 row {other}"),
    }
}

/// What one row measures; its facts are made from it.
struct Row {
    /// Modeled A100 extraction milliseconds, when the stage is modeled.
    extract_ms: Option<f64>,
    /// Modeled A100 reconstruction milliseconds, when modeled.
    recon_ms: Option<f64>,
    /// Payload bytes of frame 4.
    payload: usize,
    /// Frame 4's reconstruction against its ground truth.
    quality: QualityReport,
    /// The reconstruction's output format.
    format: &'static str,
}

/// Warm the pipeline up on frame 0 (codebooks, NeRF pre-train), then
/// encode, decode and grade frame 4.
fn measure(pipeline: &mut dyn SemanticPipeline, scene: &SceneSource) -> Row {
    let device = Device::a100();
    // Only a modeled stage has an A100 time; skip `time_on`'s CPU fallback.
    let a100_ms = |stage: &StageCost| {
        stage.gpu.is_some().then(|| stage.time_on(&device).expect("fits an A100").as_secs_f64() * 1e3)
    };
    let frame = scene.frame(4);
    let warm = scene.frame(0);
    if let Ok(enc) = pipeline.encode(&warm) {
        let _ = pipeline.decode(&enc.payload);
    }
    let enc = pipeline.encode(&frame).expect("encode");
    let rec = pipeline.decode(&enc.payload).expect("decode");
    Row {
        extract_ms: a100_ms(&enc.extract),
        recon_ms: a100_ms(&rec.recon),
        payload: enc.payload.len(),
        quality: pipeline.quality(&frame, &rec.content),
        format: rec.content.format_name(),
    }
}

/// Record one row's facts.
fn record(facts: &mut Facts, name: &str, row: &Row) {
    for (stage, ms) in [("extract", row.extract_ms), ("recon", row.recon_ms)] {
        if let Some(ms) = ms {
            facts.fact(format!("{stage}_a100/{name}"), ms, "ms");
        }
    }
    facts.fact(format!("payload/{name}"), row.payload, "bytes");
    facts.fact(format!("bandwidth/{name}"), mbps_at_30fps(row.payload), "Mbps");
    match (row.quality.chamfer, row.quality.psnr_db) {
        (Some(c), _) => facts.fact(format!("chamfer/{name}"), c * 1000.0, "mm"),
        (None, Some(p)) => facts.fact(format!("psnr/{name}"), p, "dB"),
        _ => {}
    }
    facts.fact(format!("format/{name}"), row.format, "label");
    let grade = |value: Option<f64>, low: f64, high: f64| match value {
        None => "-",
        Some(v) if v < low => "L",
        Some(v) if v < high => "M",
        Some(_) => "H",
    };
    let grades = [
        grade(row.extract_ms, 5.0, 50.0),
        grade(row.recon_ms, 50.0, 300.0),
        grade(Some(row.payload as f64), 8_000.0, 80_000.0),
    ];
    facts.fact(format!("grades/{name}"), grades.join("/"), "label");
}

/// `BENCH_table1_taxonomy.json`.
pub fn facts() -> String {
    let scene = bench_scene(0.5);
    let mut facts = Facts::new("table1_taxonomy", "table1");
    let rows: Vec<Row> = ROWS
        .iter()
        .map(|name| {
            let row = measure(pipeline(name).as_mut(), &scene);
            record(&mut facts, name, &row);
            row
        })
        .collect();
    let [kp, _, _, gau, trad] = &rows[..] else { unreachable!() };

    // Paper-shape assertions.
    let (kp_recon, gau_recon) = (kp.recon_ms.unwrap(), gau.recon_ms.unwrap());
    assert!(kp.payload * 10 < trad.payload, "keypoint payload must be far below mesh");
    assert!(kp_recon > 300.0, "keypoint reconstruction must be the bottleneck (H)");
    // The amortized tier's shape: steady-state payload below even the
    // keypoint tier (the prebuild blob carries the geometry), and a
    // reconstruction that skips the implicit-surface solve entirely.
    assert!(gau.payload < kp.payload, "gaussian update must undercut keypoints");
    assert!(gau_recon < kp_recon, "splat posing must beat implicit surfaces");
    facts.render()
}
