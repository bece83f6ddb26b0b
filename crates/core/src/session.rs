//! End-to-end sessions: pipeline x network x edge devices.
//!
//! A [`Session`] runs a semantic pipeline over a scene, shipping every
//! frame through the simulated bottleneck link and charging extraction
//! and reconstruction to the configured edge devices via the GPU cost
//! model. The per-frame output is exactly what the paper's evaluation
//! needs: payload size (bandwidth), end-to-end latency against the
//! 100 ms interactivity budget, sustained FPS capability, and visual
//! quality.

use crate::error::{reject_decode, Result, SemHoloError};
use crate::semantics::{QualityReport, SemanticKind, SemanticPipeline};
use crate::scene::SceneSource;
use holo_gpu::Device;
use holo_math::Summary;
use holo_net::fault::FaultClock;
use holo_net::link::{Link, LinkConfig};
use holo_net::time::SimTime;
use holo_net::trace::BandwidthTrace;
use holo_net::transport::{FrameTransport, LossPolicy, MTU_PAYLOAD};
use holo_net::wire::{PayloadKind, WireFrame};
use std::time::Duration;

/// Which wire payload tag a semantic pipeline's frames travel under.
pub fn payload_kind_for(kind: SemanticKind) -> PayloadKind {
    match kind {
        SemanticKind::Keypoint => PayloadKind::Keypoints,
        SemanticKind::Image => PayloadKind::Image,
        SemanticKind::Text => PayloadKind::Text,
        SemanticKind::Traditional | SemanticKind::FoveatedHybrid => PayloadKind::Mesh,
        SemanticKind::Gaussian => PayloadKind::GaussianUpdate,
    }
}

/// Fixed render/display overhead added to every frame, by a session
/// and by every subscriber of a room alike.
pub const RENDER_OVERHEAD: Duration = Duration::from_millis(11);

/// Session parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The network between the two sites.
    pub link: LinkConfig,
    /// Bandwidth trace of the bottleneck.
    pub trace: BandwidthTrace,
    /// Evaluate quality every N frames. Quality evaluation is by far
    /// the most expensive per-frame step (it samples and compares whole
    /// surfaces), so it is opt-in: the conventional value `0` means
    /// **disabled** — no frame is ever sampled and the report's quality
    /// fields stay `None`. Any N > 0 samples frames whose index is a
    /// multiple of N (frame 0 included).
    pub quality_every: usize,
    /// Network seed.
    pub seed: u64,
    /// Loss-recovery policy on the transport.
    pub loss_policy: LossPolicy,
    /// Optional fault schedule installed on the link (see
    /// `holo_net::fault`): burst loss, bandwidth collapses, flaps,
    /// delay spikes — all replayed deterministically from the seed.
    pub fault: Option<FaultClock>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            link: LinkConfig::default(),
            trace: BandwidthTrace::Constant { bps: 100e6 },
            quality_every: 0,
            seed: 1,
            loss_policy: LossPolicy::RetransmitOnce,
            fault: None,
        }
    }
}

/// Per-frame outcome, with the full five-stage breakdown the paper's
/// evaluation is built around (extract / encode / transmit / decode /
/// render — Figs. 2–4 are all about where these milliseconds go).
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// Frame index.
    pub index: usize,
    /// Payload bytes on the wire.
    pub payload_bytes: usize,
    /// Whether the frame arrived complete.
    pub delivered: bool,
    /// Whether delivery needed loss recovery (at least one fragment was
    /// retransmitted).
    pub recovered: bool,
    /// Whether the frame arrived but its envelope checksum exposed
    /// payload corruption, so it was dropped before decode (counts as
    /// not delivered).
    pub corrupt_dropped: bool,
    /// Total sender-side time (modeled extraction, including the
    /// payload-serialization tail reported in `encode_ms`).
    pub extract_ms: f64,
    /// Payload serialization/compression slice of `extract_ms`
    /// (modeled at 1 GB/s over the payload bytes, clamped to the
    /// extraction time).
    pub encode_ms: f64,
    /// Network time (send start to last fragment).
    pub network_ms: f64,
    /// Reconstruction time (modeled).
    pub reconstruct_ms: f64,
    /// Render/display overhead (NaN when the frame never arrived).
    pub render_ms: f64,
    /// Total end-to-end latency including render overhead.
    pub e2e_ms: f64,
    /// Quality, when sampled this frame.
    pub quality: Option<QualityReport>,
}

impl FrameReport {
    /// The five pipeline stages as disjoint `(name, ms)` slices that
    /// sum to `e2e_ms` for delivered frames (`extract` here excludes
    /// the `encode` tail; the stored `extract_ms` includes it).
    pub fn stages(&self) -> [(&'static str, f64); 5] {
        [
            ("extract", self.extract_ms - self.encode_ms),
            ("encode", self.encode_ms),
            ("transmit", self.network_ms),
            ("decode", self.reconstruct_ms),
            ("render", self.render_ms),
        ]
    }
}

/// Aggregated session outcome.
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Per-frame reports.
    pub frames: Vec<FrameReport>,
    /// Delivered frame count.
    pub delivered: usize,
    /// Frames that arrived complete only thanks to retransmission.
    pub recovered: usize,
    /// Frames whose envelope CRC detected payload corruption (dropped
    /// before decode rather than rendered from garbage bytes).
    pub corrupt_detected: usize,
    /// Payload size summary (bytes).
    pub payload: Summary,
    /// End-to-end latency summary (ms) over delivered frames.
    pub e2e_ms: Summary,
    /// Mean required bandwidth at the session frame rate, bps.
    pub required_bps: f64,
    /// FPS the pipeline can sustain (bounded by the slower of extract
    /// and reconstruct, assuming stage pipelining).
    pub sustainable_fps: f64,
    /// Mean quality over sampled frames.
    pub mean_chamfer: Option<f64>,
    /// Mean PSNR over sampled frames (image pipeline).
    pub mean_psnr: Option<f64>,
}

impl SessionReport {
    /// Fraction of delivered frames meeting the paper's 100 ms budget.
    pub fn within_100ms(&self) -> f64 {
        let delivered: Vec<&FrameReport> = self.frames.iter().filter(|f| f.delivered).collect();
        if delivered.is_empty() {
            return 0.0;
        }
        delivered.iter().filter(|f| f.e2e_ms <= 100.0).count() as f64 / delivered.len() as f64
    }
}

/// A running session.
pub struct Session {
    /// Configuration.
    pub config: SessionConfig,
    transport: FrameTransport,
    /// The edge device at both sites: sender-side extraction and
    /// receiver-side reconstruction are charged to the paper's A100.
    device: Device,
}

impl Session {
    /// Create a session over the configured link.
    pub fn new(config: SessionConfig) -> Self {
        let mut link = Link::new(config.link.clone(), config.trace.clone(), config.seed);
        if let Some(f) = &config.fault {
            link.set_fault(f.clone());
        }
        let transport = FrameTransport::new(link, config.loss_policy);
        Self { config, transport, device: Device::a100() }
    }

    /// Run `frames` frames of `scene` through `pipeline`.
    pub fn run(
        &mut self,
        pipeline: &mut dyn SemanticPipeline,
        scene: &SceneSource,
        frames: usize,
    ) -> Result<SessionReport> {
        let fps = scene.context().config.fps as f64;
        let mut report = SessionReport {
            payload: Summary::new(),
            e2e_ms: Summary::with_samples(),
            ..Default::default()
        };
        let mut extract_s = Summary::new();
        let mut recon_s = Summary::new();
        let mut chamfer = Summary::new();
        let mut psnr = Summary::new();
        let tracing = holo_trace::enabled();
        let wire_kind = payload_kind_for(pipeline.kind());
        for frame in scene.frames(frames)? {
            let capture_t = frame.time;
            let encoded = pipeline.encode(&frame)?;
            let extract = encoded.extract.time_on(&self.device)?;
            extract_s.record(extract.as_secs_f64());
            let send_at = SimTime::from_secs_f64(capture_t + extract.as_secs_f64());
            // Every frame crosses the link inside the versioned,
            // checksummed envelope; receivers validate before decode.
            let envelope =
                WireFrame::new(wire_kind, frame.index as u64, encoded.payload.clone()).encode();
            let wire_len = envelope.len();
            let tx = self.transport.send_frame_sized(wire_len, send_at);
            // Virtual stage boundaries in microseconds. The encode slice
            // is the payload-serialization tail of extraction, modeled
            // at 1 GB/s (1 byte/ns) and clamped into the extract window.
            let capture_us = SimTime::from_secs_f64(capture_t).0;
            let send_us = send_at.0;
            let encode_us = (wire_len as u64 / 1000).min(send_us - capture_us);
            if tracing {
                holo_trace::span_enter_frame("frame", capture_us, frame.index as u64);
                holo_trace::span_enter("extract", capture_us);
                holo_trace::span_exit(send_us - encode_us);
                holo_trace::span_enter("encode", send_us - encode_us);
                holo_trace::span_exit(send_us);
                holo_trace::span_enter("transmit", send_us);
                holo_trace::span_exit(tx.completed_at.map_or(send_us, |t| t.0));
                holo_trace::counter("session.frames", 1);
                holo_trace::histogram("session.payload_bytes", wire_len as u64);
            }
            // A clean delivery sends exactly one fragment per MTU
            // chunk; anything beyond that was a retransmission.
            let clean_packets = wire_len.div_ceil(MTU_PAYLOAD).max(1) as u32;
            let recovered = tx.complete && tx.packets_sent > clean_packets;
            // A delivered frame may still carry corrupted bytes; the
            // fault clock decides, and the flipped bit position is
            // drawn deterministically from its per-event seed.
            let corrupted_bytes = if tx.complete {
                self.transport
                    .link
                    .corrupt_roll(tx.completed_at.expect("complete implies arrival"))
                    .map(|event_seed| {
                        let mut bytes = envelope.clone();
                        let bit = (event_seed % (bytes.len() as u64 * 8)) as usize;
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        bytes
                    })
            } else {
                None
            };
            let corrupt_dropped = match &corrupted_bytes {
                Some(bytes) => WireFrame::decode(bytes).is_err(),
                None => false,
            };
            let mut fr = FrameReport {
                index: frame.index,
                payload_bytes: wire_len,
                delivered: tx.complete && !corrupt_dropped,
                recovered,
                corrupt_dropped,
                extract_ms: extract.as_secs_f64() * 1000.0,
                encode_ms: encode_us as f64 / 1000.0,
                network_ms: tx.latency.map_or(f64::NAN, |l| l.as_secs_f64() * 1000.0),
                reconstruct_ms: f64::NAN,
                render_ms: f64::NAN,
                e2e_ms: f64::NAN,
                quality: None,
            };
            report.payload.record(wire_len as f64);
            if corrupt_dropped {
                report.corrupt_detected += 1;
                if tracing {
                    holo_trace::span_exit(tx.completed_at.expect("complete implies arrival").0);
                    holo_trace::counter("session.frames_corrupt_detected", 1);
                }
                report.frames.push(fr);
                continue;
            }
            if tx.complete {
                let received = WireFrame::decode(&envelope).map_err(reject_decode)?;
                if received.kind != wire_kind {
                    return Err(SemHoloError::Codec(format!(
                        "wire kind {} does not match pipeline {}",
                        received.kind.name(),
                        wire_kind.name()
                    )));
                }
                let reconstructed = pipeline.decode(&received.payload)?;
                let recon = reconstructed.recon.time_on(&self.device)?;
                recon_s.record(recon.as_secs_f64());
                fr.reconstruct_ms = recon.as_secs_f64() * 1000.0;
                fr.render_ms = RENDER_OVERHEAD.as_secs_f64() * 1000.0;
                fr.e2e_ms = fr.extract_ms + fr.network_ms + fr.reconstruct_ms + fr.render_ms;
                report.e2e_ms.record(fr.e2e_ms);
                report.delivered += 1;
                if recovered {
                    report.recovered += 1;
                    if tracing {
                        holo_trace::counter("session.frames_recovered", 1);
                    }
                }
                if tracing {
                    let arrival_us = tx.completed_at.expect("complete implies arrival").0;
                    let recon_end = arrival_us + recon.as_micros() as u64;
                    let render_end = recon_end + RENDER_OVERHEAD.as_micros() as u64;
                    holo_trace::span_enter("decode", arrival_us);
                    holo_trace::span_exit(recon_end);
                    holo_trace::span_enter("render", recon_end);
                    holo_trace::span_exit(render_end);
                    holo_trace::span_exit(render_end); // "frame"
                    holo_trace::counter("session.frames_delivered", 1);
                    holo_trace::histogram("session.e2e_us", (fr.e2e_ms * 1_000.0).round() as u64);
                }
                if self.config.quality_every > 0 && frame.index % self.config.quality_every == 0 {
                    let q = pipeline.quality(&frame, &reconstructed.content);
                    if let Some(c) = q.chamfer {
                        chamfer.record(c as f64);
                    }
                    if let Some(p) = q.psnr_db {
                        if p.is_finite() {
                            psnr.record(p);
                        }
                    }
                    fr.quality = Some(q);
                }
            } else if tracing {
                holo_trace::span_exit(send_us); // "frame" (never arrived)
                holo_trace::counter("session.frames_dropped", 1);
            }
            report.frames.push(fr);
        }
        report.required_bps = report.payload.mean() * 8.0 * fps;
        let stage = extract_s.mean().max(recon_s.mean());
        report.sustainable_fps = if stage > 0.0 { 1.0 / stage } else { f64::INFINITY };
        report.mean_chamfer = (chamfer.count() > 0).then(|| chamfer.mean());
        report.mean_psnr = (psnr.count() > 0).then(|| psnr.mean());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SemHoloConfig;
    use crate::keypoint::{KeypointConfig, KeypointPipeline};
    use crate::scene::SceneSource;
    use crate::traditional::{MeshWire, TraditionalPipeline};

    fn scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        SceneSource::new(&config, 0.5)
    }

    fn broadband_session() -> Session {
        Session::new(SessionConfig {
            trace: BandwidthTrace::Constant { bps: 25e6 },
            quality_every: 0,
            ..Default::default()
        })
    }

    #[test]
    fn keypoint_session_under_bandwidth_budget() {
        let scene = scene();
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 3);
        let mut session = broadband_session();
        let report = session.run(&mut pipeline, &scene, 10).unwrap();
        assert_eq!(report.frames.len(), 10);
        assert!(report.delivered >= 9);
        // Pose payloads: well under 1 Mbps at 30 FPS.
        assert!(report.required_bps < 1e6, "keypoint bw {}", report.required_bps);
    }

    #[test]
    fn traditional_raw_needs_far_more_bandwidth() {
        let scene = scene();
        let mut kp = KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 3);
        let mut trad = TraditionalPipeline::new(MeshWire::Raw, 14);
        let mut s1 = broadband_session();
        let mut s2 = Session::new(SessionConfig {
            trace: BandwidthTrace::Constant { bps: 1e9 },
            ..Default::default()
        });
        let kp_report = s1.run(&mut kp, &scene, 5).unwrap();
        let trad_report = s2.run(&mut trad, &scene, 5).unwrap();
        let factor = trad_report.required_bps / kp_report.required_bps;
        assert!(factor > 50.0, "traditional/keypoint bandwidth factor {factor:.0}");
    }

    #[test]
    fn keypoint_reconstruction_breaks_latency_budget() {
        // The paper's core negative result: even on an A100 the keypoint
        // reconstruction is nowhere near 30 FPS.
        let scene = scene();
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 128, ..Default::default() }, 5);
        let mut session = broadband_session();
        let report = session.run(&mut pipeline, &scene, 3).unwrap();
        assert!(report.sustainable_fps < 5.0, "fps {}", report.sustainable_fps);
        assert!(report.within_100ms() < 0.5, "latency budget unexpectedly met");
    }

    #[test]
    fn traditional_on_fat_link_has_low_network_latency() {
        // Traditional's problem is bandwidth, not per-frame network
        // latency once the link is fat enough.
        let scene = scene();
        let mut trad = TraditionalPipeline::new(MeshWire::Compressed, 14);
        let mut session = Session::new(SessionConfig {
            trace: BandwidthTrace::Constant { bps: 200e6 },
            ..Default::default()
        });
        let report = session.run(&mut trad, &scene, 5).unwrap();
        assert_eq!(report.delivered, 5);
        for f in &report.frames {
            assert!(f.network_ms < 50.0, "network {} ms", f.network_ms);
        }
    }

    #[test]
    fn stage_breakdown_tiles_e2e() {
        let scene = scene();
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 3);
        let mut session = broadband_session();
        let report = session.run(&mut pipeline, &scene, 4).unwrap();
        for f in report.frames.iter().filter(|f| f.delivered) {
            let sum: f64 = f.stages().iter().map(|(_, ms)| ms).sum();
            assert!((sum - f.e2e_ms).abs() < 1e-6, "stages {sum} vs e2e {}", f.e2e_ms);
            assert!(f.encode_ms <= f.extract_ms);
            assert!(f.render_ms > 0.0);
        }
    }

    #[test]
    fn traced_run_covers_all_stages_and_reproduces() {
        let scene = scene();
        let run = || {
            let mut pipeline =
                KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 3);
            let mut session = broadband_session();
            let report = holo_trace::traced(|| session.run(&mut pipeline, &scene, 5)).unwrap();
            (report, holo_trace::trace_report(), holo_trace::chrome_trace())
        };
        let (report, stages, a) = run();
        let (_, _, b) = run();
        assert_eq!(report.frames.len(), 5);
        for stage in ["frame", "extract", "encode", "transmit", "decode", "render"] {
            let s = stages.get(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
            assert_eq!(s.count as usize, 5, "stage {stage} must cover every frame");
        }
        assert_eq!(a, b, "same seed must produce byte-identical traces");
        let doc = holo_runtime::ser::parse(&a).expect("chrome trace parses");
        assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() >= 30);
    }

    #[test]
    fn untraced_run_records_no_spans() {
        // `run` outside `holo_trace::traced` must leave the thread
        // recorder untouched. `SEMHOLO_TRACE` turns tracing on for every
        // thread of this process, so the check runs in a child without it.
        if std::env::var_os("SEMHOLO_TRACE").is_some() {
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["session::tests::untraced_run_records_no_spans", "--exact"])
                .env_remove("SEMHOLO_TRACE")
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&child.stdout);
            assert!(child.status.success() && stdout.contains("1 passed"), "the untraced run failed:\n{stdout}");
            return;
        }
        let scene = scene();
        holo_trace::reset();
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 3);
        let mut session = broadband_session();
        session.run(&mut pipeline, &scene, 2).unwrap();
        holo_trace::with_recorder(|r| assert!(r.spans.is_empty()));
    }

    #[test]
    fn more_frames_than_the_scene_holds_is_a_config_error() {
        let scene = scene();
        let frames = scene.len() + 1;
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 32, ..Default::default() }, 3);
        let Err(err) = broadband_session().run(&mut pipeline, &scene, frames) else {
            panic!("a session longer than its scene must be refused")
        };
        let want = format!("config error: {frames} frames requested but the scene has only {}", scene.len());
        assert_eq!(err.to_string(), want);
    }

    #[test]
    fn session_config_is_debug_and_clone() {
        let cfg = SessionConfig::default();
        let copy = cfg.clone();
        let text = format!("{copy:?}");
        assert!(text.contains("quality_every"), "{text}");
        assert_eq!(copy.quality_every, cfg.quality_every);
    }

    #[test]
    fn lossy_session_counts_recovered_frames() {
        use holo_net::fault::LossModel;
        let scene = scene();
        // A bursty link with retransmission: some frames must be
        // recovered (delivered despite fragment loss), and recovered
        // implies delivered.
        let mut trad = TraditionalPipeline::new(MeshWire::Raw, 14);
        let mut session = Session::new(SessionConfig {
            trace: BandwidthTrace::Constant { bps: 1e9 },
            fault: Some(FaultClock::new(Some(LossModel::burst5()), Vec::new(), 11)),
            loss_policy: LossPolicy::RetransmitOnce,
            ..Default::default()
        });
        let report = session.run(&mut trad, &scene, 6).unwrap();
        assert!(report.recovered > 0, "burst loss on multi-fragment frames must trigger recovery");
        assert!(report.recovered <= report.delivered);
        let per_frame = report.frames.iter().filter(|f| f.recovered).count();
        assert_eq!(per_frame, report.recovered);
        for f in &report.frames {
            assert!(!f.recovered || f.delivered, "recovered implies delivered");
        }

        // The same seed without a fault clock never reports recovery on
        // a clean link.
        let mut clean = Session::new(SessionConfig {
            trace: BandwidthTrace::Constant { bps: 1e9 },
            ..Default::default()
        });
        let clean_report = clean.run(&mut trad, &scene, 6).unwrap();
        assert_eq!(clean_report.recovered, 0);
    }

    #[test]
    fn drop_frame_policy_is_configurable() {
        use holo_net::fault::LossModel;
        let scene = scene();
        let mut trad = TraditionalPipeline::new(MeshWire::Raw, 14);
        let mut session = Session::new(SessionConfig {
            trace: BandwidthTrace::Constant { bps: 1e9 },
            fault: Some(FaultClock::new(Some(LossModel::burst5()), Vec::new(), 11)),
            loss_policy: LossPolicy::DropFrame,
            ..Default::default()
        });
        let report = session.run(&mut trad, &scene, 6).unwrap();
        // Without retransmission nothing can be "recovered".
        assert_eq!(report.recovered, 0);
        assert!(report.delivered < 6, "burst loss must cost frames under DropFrame");
    }

    #[test]
    fn quality_sampling_works() {
        let scene = scene();
        let mut pipeline =
            KeypointPipeline::new(KeypointConfig { resolution: 48, ..Default::default() }, 7);
        let mut session = Session::new(SessionConfig {
            quality_every: 2,
            ..SessionConfig::default()
        });
        let report = session.run(&mut pipeline, &scene, 4).unwrap();
        assert!(report.mean_chamfer.is_some());
        let sampled = report.frames.iter().filter(|f| f.quality.is_some()).count();
        assert_eq!(sampled, 2);
    }
}
