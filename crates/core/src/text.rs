//! Text-based semantics (§3.3).
//!
//! Sender: fuse the RGB-D captures into a point cloud, caption it into VQ
//! tokens (cold-starting the codebook on the first frame), and ship
//! either the full caption or — exploiting the continuity of human
//! motion — only the token *deltas* against the previous frame. A
//! dedicated global channel carries coarse per-region centroids so the
//! receiver can restore the overall body pose that cell-wise coding
//! loses (the paper's two-step encoding).

use crate::error::{reject_decode, Result, SemHoloError};
use crate::scene::SceneFrame;
use crate::semantics::{cloud_quality, Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline, StageCost, QUALITY_REFERENCE_RESOLUTION};
use holo_runtime::bytes::Bytes;
use holo_compress::primitives::{read_varint, write_varint};
use holo_gpu::Workload;
use holo_math::Pcg32;
use holo_mesh::pointcloud::PointCloud;
use holo_textsem::caption::{Caption, Captioner};
use holo_textsem::cells::CellPartition;
use holo_textsem::channels::{GlobalChannel, GlobalLocalCodec};
use holo_textsem::decode::TextToCloud;
use holo_textsem::delta::DeltaCoder;
use holo_textsem::vq::Codebook;

/// Text pipeline configuration.
#[derive(Debug, Clone)]
pub struct TextConfig {
    /// Fine partition cells per axis.
    pub cells: u32,
    /// Vocabulary size.
    pub vocabulary: usize,
    /// Send token deltas instead of full captions after the first frame.
    pub use_delta: bool,
    /// Send the global (coarse centroid) channel.
    pub use_global_channel: bool,
    /// Token stickiness slack for delta coding (dead-zone quantization;
    /// 1.0 disables, ~1.6 suppresses most noise-driven churn).
    pub token_stickiness: f32,
}

impl Default for TextConfig {
    fn default() -> Self {
        Self { cells: 16, vocabulary: 256, use_delta: true, use_global_channel: true, token_stickiness: 1.6 }
    }
}

/// The text-semantics pipeline.
pub struct TextPipeline {
    /// Configuration.
    pub config: TextConfig,
    codec: Option<GlobalLocalCodec>,
    sender_delta: DeltaCoder,
    receiver_delta: DeltaCoder,
    seed: u64,
}

impl TextPipeline {
    /// Build the pipeline.
    pub fn new(config: TextConfig, seed: u64) -> Self {
        Self {
            config,
            codec: None,
            sender_delta: DeltaCoder::new(),
            receiver_delta: DeltaCoder::new(),
            seed,
        }
    }

    /// Cold start: train the codebook on the first frame's features
    /// (both endpoints derive it identically from the calibration
    /// handshake, so it never crosses the per-frame wire).
    fn ensure_codec(&mut self, cloud: &PointCloud) {
        if self.codec.is_some() {
            return;
        }
        let partition = CellPartition::body_volume(self.config.cells);
        let corpus: Vec<_> = partition.features(&cloud.points).into_iter().map(|(_, f)| f).collect();
        let mut rng = Pcg32::with_stream(self.seed, 0x7C);
        let codebook = if corpus.is_empty() {
            Codebook { centers: vec![[0.0; holo_textsem::cells::FEATURE_DIM]] }
        } else {
            Codebook::train(&corpus, self.config.vocabulary, 10, &mut rng)
        };
        self.codec = Some(GlobalLocalCodec {
            global_partition: CellPartition::body_volume(4),
            captioner: Captioner { partition: partition.clone(), codebook: codebook.clone() },
            decoder: TextToCloud::new(partition, codebook),
        });
    }
}

/// Payload flags.
const FLAG_DELTA: u32 = 1;
const FLAG_GLOBAL: u32 = 2;

impl SemanticPipeline for TextPipeline {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Text
    }

    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame> {
        let timer = holo_trace::WallTimer::start();
        let cloud = frame.captured_cloud();
        self.ensure_codec(&cloud);
        let codec = self.codec.as_ref().expect("cold-started above");
        let config = &self.config;
        let is_delta = config.use_delta && frame.index > 0;
        // Dead-zone re-quantization against the receiver's current state
        // suppresses noise-driven token churn (worth ~an order of
        // magnitude on delta sizes; see ablation C).
        let caption = if is_delta && config.token_stickiness > 1.0 {
            let prev: std::collections::BTreeMap<u32, u16> =
                self.sender_delta.current().tokens.iter().copied().collect();
            codec.captioner.caption_with_reference(&cloud.points, &prev, config.token_stickiness)
        } else {
            codec.captioner.caption(&cloud.points)
        };
        let body = if is_delta {
            DeltaCoder::ops_to_bytes(&self.sender_delta.encode(&caption))
        } else {
            self.sender_delta.encode(&caption); // keep state in sync
            caption.to_bytes()
        };
        let mut payload = Vec::new();
        let mut flags = 0u32;
        if is_delta {
            flags |= FLAG_DELTA;
        }
        if config.use_global_channel {
            flags |= FLAG_GLOBAL;
        }
        write_varint(&mut payload, flags);
        if config.use_global_channel {
            let gb = codec.global(&cloud.points).to_bytes();
            write_varint(&mut payload, gb.len() as u32);
            payload.extend_from_slice(&gb);
        }
        payload.extend_from_slice(&body);
        // Extraction: dense-captioning-model class inference (Scan2Cap /
        // Vote2Cap-DETR scale: a 3D backbone plus a caption decoder — the
        // paper grades text extraction H).
        let flops = 1.5e12 + caption.len() as f64 * 2e8;
        Ok(EncodedFrame {
            payload: Bytes::from(payload),
            extract: StageCost {
                cpu_wall: timer.stop("pipeline.text.extract_us"),
                gpu: Some(Workload { flops, bytes: flops * 0.02, peak_memory: 3 * (1u64 << 30) }),
            },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed> {
        let timer = holo_trace::WallTimer::start();
        let codec = self.codec.as_ref().ok_or_else(|| {
            SemHoloError::Reconstruction("codec not cold-started (decode before first encode)".into())
        })?;
        let (flags, mut pos) =
            read_varint(payload).ok_or_else(|| SemHoloError::Codec("no flags".into()))?;
        let global = if flags & FLAG_GLOBAL != 0 {
            let (len, used) =
                read_varint(&payload[pos..]).ok_or_else(|| SemHoloError::Codec("no global len".into()))?;
            pos += used;
            let end = pos + len as usize;
            if end > payload.len() {
                return Err(SemHoloError::Codec("truncated global channel".into()));
            }
            let g = GlobalChannel::from_bytes(&payload[pos..end]).map_err(reject_decode)?;
            pos = end;
            Some(g)
        } else {
            None
        };
        let caption = if flags & FLAG_DELTA != 0 {
            let ops = DeltaCoder::ops_from_bytes(&payload[pos..]).map_err(reject_decode)?;
            self.receiver_delta.apply(&ops);
            self.receiver_delta.current()
        } else {
            let c = Caption::from_bytes(&payload[pos..]).map_err(reject_decode)?;
            // Resync receiver delta state.
            self.receiver_delta = DeltaCoder::new();
            self.receiver_delta.apply(
                &c.tokens.iter().map(|&(cell, t)| holo_textsem::delta::DeltaOp::Set(cell, t)).collect::<Vec<_>>(),
            );
            c
        };
        let cloud = codec.decode(global.as_ref(), &caption);
        // Reconstruction: text-to-3D generative model class inference
        // (Point-E / Shap-E scale: a diffusion sampler over the point
        // set — seconds per frame on an A100, the paper's H grade).
        let points = codec.decoder.decode_cost(&caption);
        let flops = 2.0e13 + points as f64 * 5e7;
        Ok(Reconstructed {
            content: Content::Cloud(cloud),
            recon: StageCost {
                cpu_wall: timer.stop("pipeline.text.recon_us"),
                gpu: Some(Workload { flops, bytes: flops * 0.02, peak_memory: 4 * (1u64 << 30) }),
            },
        })
    }

    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport {
        let Content::Cloud(cloud) = content else {
            return QualityReport::default();
        };
        let gt = frame.ground_truth_mesh(QUALITY_REFERENCE_RESOLUTION);
        cloud_quality(&gt, cloud, frame.context.config.seed ^ frame.index as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SemHoloConfig;
    use crate::scene::SceneSource;

    fn scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (64, 48),
            camera_count: 3,
            ..Default::default()
        };
        SceneSource::new(&config, 0.4)
    }

    #[test]
    fn roundtrip_reconstructs_cloud() {
        let scene = scene();
        let mut p = TextPipeline::new(TextConfig::default(), 3);
        let frame = scene.frame(0);
        let enc = p.encode(&frame).unwrap();
        let rec = p.decode(&enc.payload).unwrap();
        let Content::Cloud(cloud) = &rec.content else { panic!("expected cloud") };
        assert!(cloud.len() > 200, "reconstructed {} points", cloud.len());
        let q = p.quality(&frame, &rec.content);
        assert!(q.chamfer.unwrap() < 0.15, "text chamfer {}", q.chamfer.unwrap());
    }

    #[test]
    fn payload_is_tiny() {
        let scene = scene();
        let mut p = TextPipeline::new(TextConfig::default(), 4);
        let enc = p.encode(&scene.frame(0)).unwrap();
        // Full first-frame caption still far below even the pose payload
        // class; later deltas are smaller still.
        assert!(enc.payload.len() < 4000, "text payload {} B", enc.payload.len());
    }

    #[test]
    fn deltas_shrink_subsequent_frames() {
        let scene = scene();
        let mut p = TextPipeline::new(TextConfig::default(), 5);
        let first = p.encode(&scene.frame(0)).unwrap().payload.len();
        let mut delta_sizes = Vec::new();
        for i in 1..4 {
            let e = p.encode(&scene.frame(i)).unwrap();
            let _ = p.decode(&e.payload).unwrap();
            delta_sizes.push(e.payload.len());
        }
        let mean_delta = delta_sizes.iter().sum::<usize>() / delta_sizes.len();
        assert!(
            mean_delta < first,
            "delta frames ({mean_delta} B) should be smaller than the full frame ({first} B)"
        );
    }

    #[test]
    fn sender_receiver_stay_in_sync_over_deltas() {
        let scene = scene();
        let mut p = TextPipeline::new(TextConfig::default(), 6);
        for i in 0..5 {
            let frame = scene.frame(i);
            let enc = p.encode(&frame).unwrap();
            let rec = p.decode(&enc.payload).unwrap();
            let Content::Cloud(cloud) = &rec.content else { panic!() };
            assert!(!cloud.is_empty(), "frame {i} reconstructed empty");
        }
        // Receiver state must equal sender state.
        assert_eq!(p.sender_delta.current(), p.receiver_delta.current());
    }

    #[test]
    fn global_channel_toggle_works() {
        let scene = scene();
        let frame = scene.frame(0);
        let mut with = TextPipeline::new(TextConfig { use_global_channel: true, ..Default::default() }, 7);
        let mut without = TextPipeline::new(TextConfig { use_global_channel: false, ..Default::default() }, 7);
        let ew = with.encode(&frame).unwrap();
        let eo = without.encode(&frame).unwrap();
        assert!(ew.payload.len() > eo.payload.len(), "global channel adds bytes");
        assert!(with.decode(&ew.payload).is_ok());
        assert!(without.decode(&eo.payload).is_ok());
    }

    #[test]
    fn decode_before_encode_errors() {
        let mut p = TextPipeline::new(TextConfig::default(), 8);
        assert!(p.decode(&[0]).is_err());
    }
}
