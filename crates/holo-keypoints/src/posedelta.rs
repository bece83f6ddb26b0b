//! Temporal pose-stream compression.
//!
//! The paper's §3.3 temporal-delta idea applied to its own §3.1 stream:
//! consecutive SMPL-X poses differ by tiny joint rotations (human motion
//! is continuous — the property the motion synthesizer reproduces), so
//! instead of LZMA-ing each 1.91 KB frame independently, a keyframe
//! carries the full payload and subsequent frames carry *quantized
//! deltas* in parameter space, entropy-coded. This typically reaches a
//! further ~3-4x below the paper's 0.30 Mbps figure and is reported as
//! an extension in EXPERIMENTS.md.
//!
//! Closed-loop design ([`holo_compress::closedloop`]): the encoder tracks
//! the receiver's reconstructed parameters, so quantization error never
//! accumulates.

use holo_body::params::{PosePayload, SmplxParams, EXPRESSION_DIM, SHAPE_DIM};
use holo_body::skeleton::JOINT_COUNT;
use holo_compress::closedloop::{ClosedLoopDecoder, ClosedLoopEncoder};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_math::{Quat, Vec3};
use holo_runtime::ser::DecodeError;

const KEY_MAGIC: u8 = 0x4B; // 'K'
const DELTA_MAGIC: u8 = 0x44; // 'D'

// Quantization steps, part of the format: chosen so the decoded pose is
// visually indistinguishable (sub-millimeter surface motion).
/// Axis-angle component step, radians.
const ROTATION_STEP: f32 = 0.002;
/// Translation component step, meters.
const TRANSLATION_STEP: f32 = 0.001;
/// Shape/expression coefficient step.
const COEFFICIENT_STEP: f32 = 0.005;

/// Sender-side stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoseDeltaConfig {
    /// Keyframe refresh interval in frames (0 = never).
    pub keyframe_interval: u32,
}

impl Default for PoseDeltaConfig {
    fn default() -> Self {
        Self { keyframe_interval: 300 }
    }
}

/// Flatten the delta-relevant parameters (rotation axis-angles,
/// translation, expression; betas are calibration-static).
fn param_vector(p: &SmplxParams) -> Vec<f32> {
    let mut v = Vec::with_capacity(JOINT_COUNT * 3 + 3 + EXPRESSION_DIM);
    for q in &p.joint_rotations {
        let aa = q.to_axis_angle();
        v.extend_from_slice(&[aa.x, aa.y, aa.z]);
    }
    v.extend_from_slice(&[p.translation.x, p.translation.y, p.translation.z]);
    v.extend_from_slice(&p.expression);
    v
}

fn params_from_vector(v: &[f32], betas: &[f32; SHAPE_DIM]) -> SmplxParams {
    let mut p = SmplxParams { betas: *betas, ..Default::default() };
    for j in 0..JOINT_COUNT {
        let o = j * 3;
        p.joint_rotations[j] = Quat::from_axis_angle_vec(Vec3::new(v[o], v[o + 1], v[o + 2]));
    }
    let o = JOINT_COUNT * 3;
    p.translation = Vec3::new(v[o], v[o + 1], v[o + 2]);
    p.expression.copy_from_slice(&v[o + 3..o + 3 + EXPRESSION_DIM]);
    p
}

fn step_for(index: usize) -> f32 {
    let rot_end = JOINT_COUNT * 3;
    if index < rot_end {
        ROTATION_STEP
    } else if index < rot_end + 3 {
        TRANSLATION_STEP
    } else {
        COEFFICIENT_STEP
    }
}

/// Encoder: keyframe + closed-loop parameter deltas.
pub struct PoseDeltaEncoder {
    /// Configuration.
    pub config: PoseDeltaConfig,
    chain: ClosedLoopEncoder,
    betas: [f32; SHAPE_DIM],
}

/// Decoder state.
#[derive(Default)]
pub struct PoseDeltaDecoder {
    chain: ClosedLoopDecoder,
    betas: [f32; SHAPE_DIM],
}

impl PoseDeltaEncoder {
    /// Build an encoder.
    pub fn new(config: PoseDeltaConfig) -> Self {
        Self { config, chain: ClosedLoopEncoder::default(), betas: [0.0; SHAPE_DIM] }
    }

    /// Encode one pose (keypoints are only shipped in keyframes; the
    /// receiver reconstructs from parameters between keys).
    pub fn encode(&mut self, params: &SmplxParams) -> Vec<u8> {
        if self.chain.key_due(self.config.keyframe_interval) || self.betas != params.betas {
            self.betas = params.betas;
            // Reference is the *payload-roundtripped* parameters, which
            // is what the receiver will hold.
            let payload = PosePayload::new(params.clone(), vec![]);
            let bytes = payload.to_bytes();
            let decoded = PosePayload::from_bytes(&bytes).expect("own payload").params;
            self.chain.key(param_vector(&decoded));
            let mut out = vec![KEY_MAGIC];
            out.extend_from_slice(&lzma_compress(&bytes));
            return out;
        }
        let coded = self.chain.delta(&param_vector(params), step_for);
        let mut out = vec![DELTA_MAGIC];
        out.extend_from_slice(&coded);
        out
    }
}

impl PoseDeltaDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode one frame.
    ///
    /// Hostile-input contract: typed errors; a delta frame before any
    /// keyframe, or one whose coded bytes run dry, is rejected with the
    /// reference untouched.
    pub fn decode(&mut self, data: &[u8]) -> Result<SmplxParams, DecodeError> {
        let (&magic, body) = data
            .split_first()
            .ok_or(DecodeError::Truncated { needed: 1, available: 0 })?;
        match magic {
            KEY_MAGIC => {
                let raw = lzma_decompress(body)?;
                let payload = PosePayload::from_bytes(&raw)?;
                self.betas = payload.params.betas;
                self.chain.key(param_vector(&payload.params));
                Ok(payload.params)
            }
            DELTA_MAGIC => {
                let reference = self.chain.delta(body, "pose delta", step_for)?;
                Ok(params_from_vector(reference, &self.betas))
            }
            other => Err(DecodeError::corrupt(
                "pose delta",
                format!("unknown pose frame magic {other:#x}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_body::motion::{MotionKind, MotionSynthesizer};
    use holo_body::skeleton::Skeleton;

    fn clip(frames: usize) -> Vec<SmplxParams> {
        let mut synth = MotionSynthesizer::new(4);
        synth.clip(MotionKind::Talking, frames as f32 / 30.0, 30.0).frames
    }

    #[test]
    fn stream_roundtrips_accurately() {
        let frames = clip(30);
        let cfg = PoseDeltaConfig::default();
        let mut enc = PoseDeltaEncoder::new(cfg);
        let mut dec = PoseDeltaDecoder::new();
        let sk = Skeleton::neutral();
        for f in &frames {
            let bytes = enc.encode(f);
            let out = dec.decode(&bytes).unwrap();
            // Joint positions of the decoded pose match the input within
            // quantization tolerance.
            let a = sk.forward_kinematics(f).positions();
            let b = sk.forward_kinematics(&out).positions();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((*x - *y).length() < 0.01, "joint error {}", (*x - *y).length());
            }
        }
    }

    #[test]
    fn delta_frames_far_below_lzma_frames() {
        let frames = clip(30);
        let cfg = PoseDeltaConfig::default();
        let mut enc = PoseDeltaEncoder::new(cfg);
        let mut delta_total = 0usize;
        let mut lzma_total = 0usize;
        for (i, f) in frames.iter().enumerate() {
            let bytes = enc.encode(f);
            if i > 0 {
                delta_total += bytes.len();
            }
            lzma_total += lzma_compress(&PosePayload::new(f.clone(), vec![]).to_bytes()).len();
        }
        let mean_delta = delta_total / (frames.len() - 1);
        let mean_lzma = lzma_total / frames.len();
        assert!(
            mean_delta * 2 < mean_lzma,
            "delta {mean_delta} B vs per-frame LZMA {mean_lzma} B"
        );
    }

    #[test]
    fn no_drift_over_long_streams() {
        let frames = clip(90);
        let cfg = PoseDeltaConfig::default();
        let mut enc = PoseDeltaEncoder::new(cfg);
        let mut dec = PoseDeltaDecoder::new();
        let sk = Skeleton::neutral();
        let mut last = None;
        for f in &frames {
            last = Some(dec.decode(&enc.encode(f)).unwrap());
        }
        let a = sk.forward_kinematics(frames.last().unwrap()).positions();
        let b = sk.forward_kinematics(&last.unwrap()).positions();
        let worst = a.iter().zip(b.iter()).map(|(x, y)| (*x - *y).length()).fold(0.0f32, f32::max);
        assert!(worst < 0.01, "drift after 90 frames: {worst}");
    }

    #[test]
    fn keyframe_interval_refreshes() {
        let frames = clip(10);
        let cfg = PoseDeltaConfig { keyframe_interval: 3 };
        let mut enc = PoseDeltaEncoder::new(cfg);
        let kinds: Vec<u8> = frames.iter().map(|f| enc.encode(f)[0]).collect();
        assert!(kinds.iter().filter(|&&k| k == KEY_MAGIC).count() >= 3);
    }

    #[test]
    fn decoder_requires_keyframe_first() {
        let frames = clip(2);
        let cfg = PoseDeltaConfig::default();
        let mut enc = PoseDeltaEncoder::new(cfg);
        let _ = enc.encode(&frames[0]);
        let delta = enc.encode(&frames[1]);
        let mut dec = PoseDeltaDecoder::new();
        assert!(dec.decode(&delta).is_err());
        assert!(dec.decode(&[]).is_err());
        assert!(dec.decode(&[0xFF, 1, 2]).is_err());
    }
}
