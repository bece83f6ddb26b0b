//! The three frame workloads: one tier's real pipeline driven frame by
//! frame through the public calls of `Session::run`'s loop body, on one
//! thread, over a clean 100 Mbps link.
//!
//! A plain round times `pipeline.encode` / `pipeline.decode` as two
//! opaque halves. A traced round replaces them with the sequence of
//! public layer calls the pipeline itself makes, one span each, and
//! proves after every frame of the first traced round — against a twin
//! pipeline on the same seed — that the stepped bytes and
//! reconstruction are identical, so the spans time the same work.

use crate::metrics::{declared, Readings};
use crate::stats::{best_round, floors, median, quantile_sorted, round_spread_pct, Fnv};
use crate::trace::Tracer;
use crate::{Outcome, Workload};
use holo_body::motion::MotionKind;
use holo_body::params::{PosePayload, PAYLOAD_KEYPOINTS};
use holo_body::skeleton::Skeleton;
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_compress::meshcodec::{decode_mesh, encode_mesh, MeshCodecConfig};
use holo_compress::primitives::{read_varint, write_varint};
use holo_math::Pcg32;
use holo_mesh::sparse::sparse_extract_with_stats;
use holo_net::link::{Link, LinkConfig};
use holo_net::time::SimTime;
use holo_net::trace::BandwidthTrace;
use holo_net::transport::{FrameTransport, LossPolicy};
use holo_net::wire::{PayloadKind, WireFrame};
use holo_runtime::bytes::Bytes;
use holo_textsem::caption::{Caption, Captioner};
use holo_textsem::cells::{CellPartition, FEATURE_DIM};
use holo_textsem::channels::{GlobalChannel, GlobalLocalCodec};
use holo_textsem::decode::TextToCloud;
use holo_textsem::delta::{DeltaCoder, DeltaOp};
use holo_textsem::vq::Codebook;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::session::{payload_kind_for, Session, SessionConfig};
use semholo::text::{TextConfig, TextPipeline};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use semholo::{Content, SceneFrame, SceneSource, SemHoloConfig, SemanticPipeline};
use std::collections::BTreeMap;
use std::time::Instant;

/// Marching resolution of the keypoint receiver (the paper's lowest).
const KEYPOINT_RESOLUTION: u32 = 128;
/// Position bits of the mesh codec (Draco's default).
const MESH_BITS: u32 = 14;
/// Frames whose reconstruction is graded against ground truth.
const QUALITY_FRAMES: [usize; 4] = [5, 10, 15, 20];
/// Frames `Session::run` replays in a plain run (a traced run replays
/// the whole round, for `core.session_fps`).
const SESSION_PREFIX: usize = 10;

/// Which pipeline a frame workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `keypoint_recon`: receiver-bound SDF lattice sampling.
    Keypoint,
    /// `mesh_codec`: the mesh codec both ways plus a ~30-packet send.
    Mesh,
    /// `text_capture`: sender-bound sphere tracing of the same SDF.
    Text,
}

/// Timed and warm-up frames of one round.
#[derive(Debug, Clone, Copy)]
pub struct FrameSizes {
    /// Timed frames per round.
    pub frames: usize,
    /// Frames replayed before timing starts, from index 0.
    pub warm: usize,
}

impl Tier {
    fn name(self) -> &'static str {
        match self {
            Tier::Keypoint => "keypoint_recon",
            Tier::Mesh => "mesh_codec",
            Tier::Text => "text_capture",
        }
    }

    /// Round sizes: about 1.7 s of timed frames at this commit. Short
    /// rounds give each frame more chances at a quiet moment.
    pub fn sizes(self, smoke: bool) -> FrameSizes {
        match (self, smoke) {
            (Tier::Keypoint, false) => FrameSizes {
                frames: 20,
                warm: 3,
            },
            (Tier::Mesh, false) => FrameSizes {
                frames: 200,
                warm: 5,
            },
            (Tier::Text, false) => FrameSizes {
                frames: 100,
                warm: 5,
            },
            (Tier::Keypoint, true) => FrameSizes { frames: 5, warm: 1 },
            (_, true) => FrameSizes { frames: 8, warm: 2 },
        }
    }

    fn pipeline(self, seed: u64) -> Box<dyn SemanticPipeline> {
        match self {
            Tier::Keypoint => Box::new(KeypointPipeline::new(
                KeypointConfig {
                    resolution: KEYPOINT_RESOLUTION,
                    ..Default::default()
                },
                seed,
            )),
            Tier::Mesh => Box::new(TraditionalPipeline::new(MeshWire::Compressed, MESH_BITS)),
            Tier::Text => Box::new(TextPipeline::new(TextConfig::default(), seed)),
        }
    }

    /// What the participant does. The text tier's payload is token
    /// churn, and `Talking`'s rare gestures made its bytes per frame
    /// range 461-824 over ten seeds; a wave is a stationary motion, so
    /// every 100-frame window carries alike churn (665-716). The other
    /// two tiers do not care, and the keypoint fit is at its best on
    /// the default conversation clip.
    fn motion(self) -> MotionKind {
        match self {
            Tier::Text => MotionKind::Waving,
            Tier::Keypoint | Tier::Mesh => MotionKind::Talking,
        }
    }

    /// Sanity ceiling on the mean chamfer distance, mm: about twice
    /// what the tier measures over seeds at the commit that added the
    /// benchmark, so a speed-up bought with geometry fails the run.
    fn chamfer_ceiling_mm(self) -> f64 {
        match self {
            Tier::Keypoint | Tier::Mesh => 35.0,
            Tier::Text => 180.0,
        }
    }
}

/// The bench-standard scene: 4 cameras of 96x72 at 30 fps, everything
/// stochastic forked from `seed`.
fn scene(seed: u64, motion: MotionKind, sizes: FrameSizes) -> SceneSource {
    let config = SemHoloConfig {
        seed,
        motion,
        ..Default::default()
    };
    let frames = sizes.warm + sizes.frames;
    SceneSource::new(&config, (frames + 1) as f32 / config.fps)
}

fn clean_transport(seed: u64) -> FrameTransport {
    let link = Link::new(
        LinkConfig::default(),
        BandwidthTrace::Constant { bps: 100e6 },
        seed,
    );
    FrameTransport::new(link, LossPolicy::RetransmitOnce)
}

fn digest_content(h: &mut Fnv, content: &Content) {
    let vec3s = |h: &mut Fnv, v: &[holo_math::Vec3]| {
        h.update_u32s(
            v.iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]),
        );
    };
    match content {
        Content::Mesh(m) => {
            vec3s(h, &m.vertices);
            h.update_u32s(m.faces.iter().flatten().copied());
        }
        Content::Cloud(c) => {
            vec3s(h, &c.points);
            vec3s(h, &c.colors);
        }
        Content::View(_) => unreachable!("no frame workload renders views"),
    }
}

fn same_content(a: &Content, b: &Content) -> bool {
    match (a, b) {
        (Content::Mesh(x), Content::Mesh(y)) => x.vertices == y.vertices && x.faces == y.faces,
        (Content::Cloud(x), Content::Cloud(y)) => x.points == y.points && x.colors == y.colors,
        _ => false,
    }
}

/// Exact per-frame counts the layers hand back.
#[derive(Default)]
struct LayerCounts {
    field_evals: u64,
    cubes_visited: u64,
    triangles: u64,
    captured_points: u64,
    raw_bytes: u64,
    coded_bytes: u64,
}

/// The sender and receiver of one tier as explicit layer calls.
enum Stepped {
    Keypoint {
        /// Holds the detector, filters and temporal prior `fit_frame` needs.
        fitter: Box<KeypointPipeline>,
        skeleton: Box<Skeleton>,
    },
    Mesh {
        codec: MeshCodecConfig,
    },
    Text {
        config: TextConfig,
        seed: u64,
        codec: Option<Box<GlobalLocalCodec>>,
        sender_delta: DeltaCoder,
        receiver_delta: DeltaCoder,
    },
}

/// Payload flags of `semholo::text`.
const TEXT_FLAG_DELTA: u32 = 1;
const TEXT_FLAG_GLOBAL: u32 = 2;

impl Stepped {
    fn new(tier: Tier, seed: u64) -> Self {
        match tier {
            Tier::Keypoint => Stepped::Keypoint {
                fitter: Box::new(KeypointPipeline::new(
                    KeypointConfig {
                        resolution: KEYPOINT_RESOLUTION,
                        ..Default::default()
                    },
                    seed,
                )),
                skeleton: Box::new(Skeleton::neutral()),
            },
            Tier::Mesh => Stepped::Mesh {
                codec: MeshCodecConfig {
                    position_bits: MESH_BITS,
                },
            },
            Tier::Text => Stepped::Text {
                config: TextConfig::default(),
                seed,
                codec: None,
                sender_delta: DeltaCoder::new(),
                receiver_delta: DeltaCoder::new(),
            },
        }
    }

    /// The calls of `<tier>::encode`, one span each.
    fn encode(
        &mut self,
        tr: &mut Tracer,
        frame: &SceneFrame,
        counts: &mut LayerCounts,
    ) -> Result<Vec<u8>, String> {
        let id = frame.index as u64;
        match self {
            Stepped::Keypoint { fitter, .. } => {
                let (fitted, mut keypoints) = tr
                    .call("holo-keypoints.fit", id, || fitter.fit_frame(frame))
                    .map_err(|e| e.to_string())?;
                keypoints.truncate(PAYLOAD_KEYPOINTS);
                let raw = tr.call("holo-body.pose_pack", id, || {
                    PosePayload::new(fitted, keypoints).to_bytes()
                });
                let coded = tr.call("holo-compress.lzma_enc", id, || lzma_compress(&raw));
                counts.raw_bytes += raw.len() as u64;
                counts.coded_bytes += coded.len() as u64;
                Ok(coded)
            }
            Stepped::Mesh { codec } => {
                let mesh = tr.call("holo-body.posed_mesh", id, || frame.posed_mesh());
                let coded = tr.call("holo-compress.mesh_enc", id, || encode_mesh(&mesh, codec));
                counts.raw_bytes += mesh.raw_size_bytes() as u64;
                counts.coded_bytes += coded.len() as u64;
                Ok(coded)
            }
            Stepped::Text {
                config,
                seed,
                codec,
                sender_delta,
                ..
            } => {
                if codec.is_none() {
                    // Cold start, as `TextPipeline::ensure_codec`: the
                    // codebook is trained on the first frame's features.
                    let span = tr.enter("holo-textsem.cold_start", id);
                    let partition = CellPartition::body_volume(config.cells);
                    let cloud = frame.captured_cloud();
                    let corpus: Vec<_> = partition
                        .features(&cloud.points)
                        .into_iter()
                        .map(|(_, f)| f)
                        .collect();
                    let mut rng = Pcg32::with_stream(*seed, 0x7C);
                    let codebook = if corpus.is_empty() {
                        Codebook {
                            centers: vec![[0.0; FEATURE_DIM]],
                        }
                    } else {
                        Codebook::train(&corpus, config.vocabulary, 10, &mut rng)
                    };
                    *codec = Some(Box::new(GlobalLocalCodec {
                        global_partition: CellPartition::body_volume(4),
                        captioner: Captioner {
                            partition: partition.clone(),
                            codebook: codebook.clone(),
                        },
                        decoder: TextToCloud::new(partition, codebook),
                    }));
                    tr.exit(span);
                }
                let codec = codec.as_ref().expect("cold-started above");
                let captures = tr.call("holo-capture.capture", id, || frame.capture());
                let cloud = tr.call("holo-capture.fuse", id, || {
                    frame.context.rig.fuse(&captures)
                });
                counts.captured_points += cloud.points.len() as u64;
                let span = tr.enter("holo-textsem.encode", id);
                let (global, caption) = codec.encode(&cloud.points);
                let is_delta = config.use_delta && frame.index > 0;
                let caption = if is_delta && config.token_stickiness > 1.0 {
                    let prev: BTreeMap<u32, u16> =
                        sender_delta.current().tokens.iter().copied().collect();
                    codec.captioner.caption_with_reference(
                        &cloud.points,
                        &prev,
                        config.token_stickiness,
                    )
                } else {
                    caption
                };
                let body = if is_delta {
                    DeltaCoder::ops_to_bytes(&sender_delta.encode(&caption))
                } else {
                    sender_delta.encode(&caption);
                    caption.to_bytes()
                };
                let mut payload = Vec::new();
                let mut flags = 0u32;
                if is_delta {
                    flags |= TEXT_FLAG_DELTA;
                }
                if config.use_global_channel {
                    flags |= TEXT_FLAG_GLOBAL;
                }
                write_varint(&mut payload, flags);
                if config.use_global_channel {
                    let gb = global.to_bytes();
                    write_varint(&mut payload, gb.len() as u32);
                    payload.extend_from_slice(&gb);
                }
                payload.extend_from_slice(&body);
                tr.exit(span);
                Ok(payload)
            }
        }
    }

    /// The calls of `<tier>::decode`, one span each.
    fn decode(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        payload: &[u8],
        counts: &mut LayerCounts,
    ) -> Result<Content, String> {
        match self {
            Stepped::Keypoint { skeleton, .. } => {
                let raw = tr
                    .call("holo-compress.lzma_dec", id, || lzma_decompress(payload))
                    .map_err(|e| e.to_string())?;
                let pose = tr
                    .call("holo-body.pose_unpack", id, || {
                        PosePayload::from_bytes(&raw)
                    })
                    .map_err(|e| e.to_string())?;
                let sdf = tr.call("holo-body.sdf_build", id, || {
                    BodySdf::from_pose(skeleton, &pose.params, SurfaceDetail::bare())
                });
                let (mesh, stats) = tr.call("holo-mesh.extract", id, || {
                    sparse_extract_with_stats(&sdf, KEYPOINT_RESOLUTION, 0.03)
                });
                counts.field_evals += stats.field_evals;
                counts.cubes_visited += stats.cubes_visited;
                counts.triangles += stats.triangles_emitted;
                Ok(Content::Mesh(mesh))
            }
            Stepped::Mesh { .. } => {
                let mesh = tr
                    .call("holo-compress.mesh_dec", id, || decode_mesh(payload))
                    .map_err(|e| e.to_string())?;
                Ok(Content::Mesh(mesh))
            }
            Stepped::Text {
                codec,
                receiver_delta,
                ..
            } => {
                let codec = codec.as_ref().ok_or("text decode before cold start")?;
                let span = tr.enter("holo-textsem.decode", id);
                let (flags, mut pos) = read_varint(payload).ok_or("no flags")?;
                let global = if flags & TEXT_FLAG_GLOBAL != 0 {
                    let (len, used) = read_varint(&payload[pos..]).ok_or("no global length")?;
                    pos += used;
                    let end = pos + len as usize;
                    let bytes = payload.get(pos..end).ok_or("truncated global channel")?;
                    pos = end;
                    Some(GlobalChannel::from_bytes(bytes).map_err(|e| e.to_string())?)
                } else {
                    None
                };
                let caption = if flags & TEXT_FLAG_DELTA != 0 {
                    let ops =
                        DeltaCoder::ops_from_bytes(&payload[pos..]).map_err(|e| e.to_string())?;
                    receiver_delta.apply(&ops);
                    receiver_delta.current()
                } else {
                    let c = Caption::from_bytes(&payload[pos..]).map_err(|e| e.to_string())?;
                    *receiver_delta = DeltaCoder::new();
                    receiver_delta.apply(
                        &c.tokens
                            .iter()
                            .map(|&(cell, t)| DeltaOp::Set(cell, t))
                            .collect::<Vec<_>>(),
                    );
                    c
                };
                let cloud = codec.decode(global.as_ref(), &caption);
                tr.exit(span);
                Ok(Content::Cloud(cloud))
            }
        }
    }
}

/// Record a failed check; the first few say enough.
fn fail(errors: &mut Vec<String>, what: String) {
    if errors.len() < 8 {
        errors.push(what);
    }
}

/// What one frame cost, by the clock.
struct FrameSample {
    frame_ns: u64,
    sender_ns: u64,
    receiver_ns: u64,
    packets: u32,
}

/// One replay of the frames on a fresh pipeline and transport.
#[derive(Default)]
struct Round {
    /// Scene build + pipeline construction + the warm-up frames.
    setup_ns: u64,
    frame_ns: Vec<u64>,
    sender_ns: Vec<u64>,
    receiver_ns: Vec<u64>,
    packets: u64,
    /// Envelope bytes of every frame, warm-up included.
    wire_len: Vec<usize>,
    payload_digest: Fnv,
    recon_digest: Fnv,
    attempted: u64,
    failed: u64,
}

/// A traced round: the samples plus the spans they were read from.
struct TracedRound {
    round: Round,
    tracer: Tracer,
    counts: LayerCounts,
}

/// One frame through `pipeline.encode` / `pipeline.decode`.
fn plain_frame(
    scene: &SceneSource,
    pipeline: &mut dyn SemanticPipeline,
    transport: &mut FrameTransport,
    index: usize,
    round: &mut Round,
) -> Result<(FrameSample, Content), String> {
    let wire_kind = payload_kind_for(pipeline.kind());
    let t0 = Instant::now();
    let frame = scene.frame(index);
    let encoded = pipeline
        .encode(&frame)
        .map_err(|e| format!("encode: {e}"))?;
    let envelope = WireFrame::new(wire_kind, index as u64, encoded.payload.clone()).encode();
    let t1 = Instant::now();
    let tx = transport.send_frame(
        Bytes::from(envelope.clone()),
        SimTime::from_secs_f64(frame.time),
    );
    let t2 = Instant::now();
    let received = WireFrame::decode(&envelope).map_err(|e| format!("envelope: {e}"))?;
    let reconstructed = pipeline
        .decode(&received.payload)
        .map_err(|e| format!("decode: {e}"))?;
    let t3 = Instant::now();
    if !tx.complete {
        return Err("not delivered on the clean link".into());
    }
    if received.payload != encoded.payload
        || received.kind != wire_kind
        || received.seq != index as u64
    {
        return Err("envelope did not round-trip".into());
    }
    round.wire_len.push(envelope.len());
    round.payload_digest.update(&encoded.payload);
    digest_content(&mut round.recon_digest, &reconstructed.content);
    let sample = FrameSample {
        frame_ns: (t3 - t0).as_nanos() as u64,
        sender_ns: (t1 - t0).as_nanos() as u64,
        receiver_ns: (t3 - t2).as_nanos() as u64,
        packets: tx.packets_sent,
    };
    Ok((sample, reconstructed.content))
}

/// One frame through the explicit layer calls, under a `frame`
/// span, then — in the first traced round — through the twin pipeline
/// for comparison. Later traced rounds are held to the first by the
/// digests every round must share.
fn traced_frame(
    scene: &SceneSource,
    stepped: &mut Stepped,
    twin: Option<&mut dyn SemanticPipeline>,
    wire_kind: PayloadKind,
    transport: &mut FrameTransport,
    index: usize,
    traced: &mut TracedRound,
) -> Result<(FrameSample, Content), String> {
    let id = index as u64;
    let TracedRound {
        round,
        tracer: tr,
        counts,
    } = traced;
    let frame_span = tr.spans.len();
    let span = tr.enter("frame", id);
    let frame = scene.frame(index);
    let payload = Bytes::from(stepped.encode(tr, &frame, counts)?);
    let envelope_enc = tr.spans.len();
    let envelope = tr.call("holo-net.envelope_enc", id, || {
        WireFrame::new(wire_kind, id, payload.clone()).encode()
    });
    let tx = tr.call("holo-net.transport", id, || {
        transport.send_frame(
            Bytes::from(envelope.clone()),
            SimTime::from_secs_f64(frame.time),
        )
    });
    let envelope_dec = tr.spans.len();
    let received = tr
        .call("holo-net.envelope_dec", id, || WireFrame::decode(&envelope))
        .map_err(|e| format!("envelope: {e}"))?;
    let content = stepped.decode(tr, id, &received.payload, counts)?;
    tr.exit(span);
    if !tx.complete {
        return Err("not delivered on the clean link".into());
    }
    if received.payload != payload || received.kind != wire_kind || received.seq != id {
        return Err("envelope did not round-trip".into());
    }
    // The twin runs the pipeline's own encode/decode on the same
    // frame, outside the frame span.
    if let Some(twin) = twin {
        let twin_encoded = twin
            .encode(&frame)
            .map_err(|e| format!("twin encode: {e}"))?;
        if twin_encoded.payload != payload {
            return Err("stepped payload differs from pipeline.encode".into());
        }
        let twin_content = twin
            .decode(&twin_encoded.payload)
            .map_err(|e| format!("twin decode: {e}"))?
            .content;
        if !same_content(&twin_content, &content) {
            return Err("stepped reconstruction differs from pipeline.decode".into());
        }
    }
    round.wire_len.push(envelope.len());
    round.payload_digest.update(&payload);
    digest_content(&mut round.recon_digest, &content);
    let spans = &tr.spans;
    let sample = FrameSample {
        frame_ns: spans[frame_span].dur_ns(),
        sender_ns: spans[envelope_enc].end_ns - spans[frame_span].start_ns,
        receiver_ns: spans[frame_span].end_ns - spans[envelope_dec].start_ns,
        packets: tx.packets_sent,
    };
    Ok((sample, content))
}

/// One frame workload.
pub struct FrameWorkload {
    tier: Tier,
    seed: u64,
    sizes: FrameSizes,
    rounds: Vec<Round>,
    traced: Vec<TracedRound>,
    /// Round 0's reconstructions of the graded frames.
    kept: Vec<(usize, Content)>,
    errors: Vec<String>,
}

impl FrameWorkload {
    /// A workload ready to run rounds.
    pub fn new(tier: Tier, seed: u64, smoke: bool) -> Self {
        Self {
            tier,
            seed,
            sizes: tier.sizes(smoke),
            rounds: Vec::new(),
            traced: Vec::new(),
            kept: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// `Session::run` over the first `n` frames must see what the
    /// stepped loop saw: every frame delivered, the same envelope
    /// bytes. Returns the session's wall-clock frames per second.
    fn session_cross_check(&self, n: usize, errors: &mut Vec<String>) -> f64 {
        let scene = scene(self.seed, self.tier.motion(), self.sizes);
        let mut pipeline = self.tier.pipeline(self.seed);
        let mut session = Session::new(SessionConfig {
            seed: self.seed,
            ..Default::default()
        });
        let start = Instant::now();
        let report = session.run(&mut *pipeline, &scene, n);
        let wall = start.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                let theirs: Vec<usize> = report.frames.iter().map(|f| f.payload_bytes).collect();
                let ours = self
                    .rounds
                    .first()
                    .map_or(&[][..], |r| &r.wire_len[..n.min(r.wire_len.len())]);
                if report.delivered != n || theirs != ours {
                    fail(
                        errors,
                        format!(
                            "Session::run delivered {}/{n} frames, {} B; the stepped loop {} B",
                            report.delivered,
                            theirs.iter().sum::<usize>(),
                            ours.iter().sum::<usize>()
                        ),
                    );
                }
            }
            Err(e) => fail(errors, format!("Session::run: {e}")),
        }
        n as f64 / wall
    }

    /// Mean chamfer distance of round 0's graded frames, mm, and how
    /// many were graded.
    fn chamfer_mm(&mut self, errors: &mut Vec<String>) -> (f64, usize) {
        let scene = scene(self.seed, self.tier.motion(), self.sizes);
        let mut pipeline = self.tier.pipeline(self.seed);
        let kept = std::mem::take(&mut self.kept);
        let distances: Vec<f64> = kept
            .iter()
            .filter_map(|(index, content)| pipeline.quality(&scene.frame(*index), content).chamfer)
            .map(|m| m as f64 * 1000.0)
            .collect();
        if distances.is_empty() {
            fail(errors, "no frame was graded".into());
            return (0.0, 0);
        }
        let mean = distances.iter().sum::<f64>() / distances.len() as f64;
        if !(mean > 0.0 && mean < self.tier.chamfer_ceiling_mm()) {
            fail(
                errors,
                format!(
                    "chamfer {mean:.3} mm is not under {} mm",
                    self.tier.chamfer_ceiling_mm()
                ),
            );
        }
        (mean, distances.len())
    }
}

const MS: f64 = 1e-6;

impl Workload for FrameWorkload {
    fn name(&self) -> &'static str {
        self.tier.name()
    }

    fn round(&mut self, with_spans: bool) {
        let FrameSizes { frames, warm } = self.sizes;
        let keep = self.rounds.is_empty() && self.traced.is_empty();
        let mut traced = TracedRound {
            round: Round::default(),
            tracer: Tracer::new(with_spans),
            counts: LayerCounts::default(),
        };
        let setup = Instant::now();
        let scene = scene(self.seed, self.tier.motion(), self.sizes);
        let mut pipeline = self.tier.pipeline(self.seed);
        let wire_kind = payload_kind_for(pipeline.kind());
        let mut stepped = with_spans.then(|| Stepped::new(self.tier, self.seed));
        let with_twin = self.traced.is_empty();
        let mut transport = clean_transport(self.seed);
        for index in 0..warm + frames {
            if index == warm {
                traced.round.setup_ns = setup.elapsed().as_nanos() as u64;
            }
            let result = match &mut stepped {
                Some(stepped) => traced_frame(
                    &scene,
                    stepped,
                    with_twin.then_some(&mut *pipeline),
                    wire_kind,
                    &mut transport,
                    index,
                    &mut traced,
                ),
                None => plain_frame(
                    &scene,
                    &mut *pipeline,
                    &mut transport,
                    index,
                    &mut traced.round,
                ),
            };
            traced.round.attempted += 1;
            match result {
                Ok((sample, content)) => {
                    if index >= warm {
                        traced.round.frame_ns.push(sample.frame_ns);
                        traced.round.sender_ns.push(sample.sender_ns);
                        traced.round.receiver_ns.push(sample.receiver_ns);
                        traced.round.packets += sample.packets as u64;
                    }
                    if keep && QUALITY_FRAMES.contains(&index) {
                        self.kept.push((index, content));
                    }
                }
                Err(e) => {
                    traced.round.failed += 1;
                    fail(
                        &mut self.errors,
                        format!("{} frame {index}: {e}", self.tier.name()),
                    );
                }
            }
        }
        if with_spans {
            self.traced.push(traced);
        } else {
            self.rounds.push(traced.round);
        }
    }

    fn finish(&mut self, traced_run: bool) -> Outcome {
        let mut readings = Readings::default();
        let mut notes = Vec::new();
        let mut errors = std::mem::take(&mut self.errors);
        let all_rounds = || {
            self.rounds
                .iter()
                .chain(self.traced.iter().map(|t| &t.round))
        };
        let attempted: u64 = all_rounds().map(|r| r.attempted).sum();
        let failed: u64 = all_rounds().map(|r| r.failed).sum();

        // Same seed, same frames: every round must produce the same bytes.
        let digests: Vec<(u64, u64)> = all_rounds()
            .map(|r| (r.payload_digest.0, r.recon_digest.0))
            .collect();
        if digests.iter().any(|d| *d != digests[0]) {
            fail(
                &mut errors,
                format!("digests differ across rounds: {digests:x?}"),
            );
        }
        notes.push(format!(
            "payload digest {:016x}, reconstruction digest {:016x}, {} rounds agree",
            digests[0].0,
            digests[0].1,
            digests.len()
        ));

        // A timing is the median over the frames of each frame's floor.
        let n = self.sizes.frames;
        let floor_ms = |pick: fn(&Round) -> &[u64]| {
            median(&floors(self.rounds.iter().map(pick), n)) as f64 * MS
        };
        let frame_ms = floor_ms(|r| &r.frame_ns);
        let sender_ms = floor_ms(|r| &r.sender_ns);
        let receiver_ms = floor_ms(|r| &r.receiver_ns);
        let medians: Vec<u64> = self.rounds.iter().map(|r| median(&r.frame_ns)).collect();
        notes.push(format!(
            "round medians, ms: {:.3?}",
            medians.iter().map(|m| *m as f64 * MS).collect::<Vec<_>>()
        ));
        let first = &self.rounds[0];
        let timed_bytes: usize = first.wire_len[self.sizes.warm.min(first.wire_len.len())..]
            .iter()
            .sum();
        let setups: Vec<u64> = self.rounds.iter().map(|r| r.setup_ns).collect();
        readings.set("frame_ms_p50", frame_ms, n);
        readings.set("frames_per_s", 1000.0 / sender_ms.max(receiver_ms), n);
        readings.set("wire_bytes_per_frame", timed_bytes as f64 / n as f64, 0);
        readings.set(
            "usable_permille",
            (attempted - failed) as f64 * 1000.0 / attempted as f64,
            0,
        );
        readings.set("setup_s", median(&setups) as f64 * 1e-9, setups.len());

        let (chamfer, graded) = self.chamfer_mm(&mut errors);
        let session_frames = if traced_run {
            self.sizes.warm + n
        } else {
            SESSION_PREFIX.min(n)
        };
        let session_fps = self.session_cross_check(session_frames, &mut errors);

        let mut trace = None;
        if traced_run {
            readings.set("core.sender_ms_p50", sender_ms, n);
            readings.set("core.receiver_ms_p50", receiver_ms, n);
            let mut pooled: Vec<u64> = self
                .rounds
                .iter()
                .flat_map(|r| r.frame_ns.iter().copied())
                .collect();
            pooled.sort_unstable();
            readings.set(
                "core.frame_ms_p95",
                quantile_sorted(&pooled, 0.95) as f64 * MS,
                pooled.len(),
            );
            readings.set("core.session_fps", session_fps, session_frames);
            readings.set("core.chamfer_mm", chamfer, graded);
            readings.set(
                "bench.round_spread_pct",
                round_spread_pct(&medians),
                medians.len(),
            );
            readings.set("bench.rounds", self.rounds.len() as f64, 0);
            readings.set("bench.samples_per_round", n as f64, 0);

            let traced_ms = median(&floors(
                self.traced.iter().map(|t| &t.round.frame_ns[..]),
                n,
            )) as f64
                * MS;
            readings.set(
                "bench.trace_overhead_pct",
                (traced_ms / frame_ms - 1.0) * 100.0,
                n,
            );
            // Span lengths by name, one per timed frame, per traced
            // round; a layer's reading is the median of its floors.
            let mut by_name: BTreeMap<&'static str, Vec<Vec<u64>>> = BTreeMap::new();
            for (round, t) in self.traced.iter().enumerate() {
                match t.tracer.self_times() {
                    Ok(own) => {
                        for (span, own) in t.tracer.spans.iter().zip(&own) {
                            if span.frame < self.sizes.warm as u64 {
                                continue;
                            }
                            let (name, ns) = if span.parent.is_none() {
                                ("core.self", *own)
                            } else {
                                (span.name, span.dur_ns())
                            };
                            let rounds = by_name.entry(name).or_default();
                            rounds.resize(round + 1, Vec::new());
                            rounds[round].push(ns);
                        }
                    }
                    Err(e) => fail(&mut errors, format!("spans do not tile: {e}")),
                }
            }
            // A span is named after its metric: `<layer>.<call>` times
            // into `<layer>.<call>_ms`.
            for (metric, _) in declared().per_layer_units() {
                if let Some(rounds) = metric
                    .strip_suffix("_ms")
                    .and_then(|span| by_name.get(span))
                {
                    readings.set(
                        metric,
                        median(&floors(rounds.iter().map(Vec::as_slice), n)) as f64 * MS,
                        n,
                    );
                }
            }
            // Counts are the same in every traced round.
            let t = &self.traced[0];
            let per_frame = |count: u64| count as f64 / t.round.attempted.max(1) as f64;
            readings.set(
                "holo-mesh.field_evals_per_frame",
                per_frame(t.counts.field_evals),
                0,
            );
            readings.set(
                "holo-mesh.cubes_visited_per_frame",
                per_frame(t.counts.cubes_visited),
                0,
            );
            readings.set(
                "holo-mesh.triangles_per_frame",
                per_frame(t.counts.triangles),
                0,
            );
            readings.set(
                "holo-capture.points_per_frame",
                per_frame(t.counts.captured_points),
                0,
            );
            readings.set(
                "holo-net.packets_per_frame",
                t.round.packets as f64 / n as f64,
                0,
            );
            if t.counts.field_evals > 0 {
                let extract_ms = readings.get("holo-mesh.extract_ms").value;
                readings.set(
                    "holo-mesh.ns_per_field_eval",
                    extract_ms * 1e6 / per_frame(t.counts.field_evals),
                    n,
                );
            }
            if t.counts.coded_bytes > 0 {
                let ratio = t.counts.raw_bytes as f64 / t.counts.coded_bytes as f64;
                let metric = if self.tier == Tier::Keypoint {
                    "holo-compress.pose_ratio"
                } else {
                    "holo-compress.mesh_ratio"
                };
                readings.set(metric, ratio, 0);
            }
            let traced_medians: Vec<u64> = self
                .traced
                .iter()
                .map(|t| median(&t.round.frame_ns))
                .collect();
            trace = Some(
                self.traced[best_round(&traced_medians)]
                    .tracer
                    .chrome_trace(),
            );
        }
        notes.push(format!(
            "{} rounds x {n} frames (+{} warm); chamfer {chamfer:.3} mm over {graded} of frames {QUALITY_FRAMES:?}; Session::run agrees on {session_frames} frames",
            self.rounds.len(),
            self.sizes.warm
        ));
        Outcome {
            name: self.tier.name(),
            correct: errors.is_empty(),
            attempted,
            failed,
            readings,
            notes,
            errors,
            trace,
        }
    }
}
