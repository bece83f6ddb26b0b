//! The tiny per-frame update stream for a prebuilt avatar.
//!
//! A keyframe/delta stream over the avatar-conditioning vector: 55 joint
//! axis-angles + root translation + 55 per-region opacity multipliers +
//! 55 per-region scale multipliers = 278 floats. A keyframe carries the LZMA-compressed raw
//! vector; delta frames carry quantized, entropy-coded parameter deltas
//! in a closed loop ([`holo_compress::closedloop`]: the encoder tracks
//! the receiver's reconstruction, so quantization error never
//! accumulates). Steady-state cost is a few hundred bytes per frame —
//! the whole point of the amortized tier.

use crate::splat::AvatarState;
use holo_body::params::SmplxParams;
use holo_body::skeleton::JOINT_COUNT;
use holo_compress::closedloop::{ClosedLoopDecoder, ClosedLoopEncoder};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_math::{Quat, Vec3};
use holo_runtime::ser::DecodeError;

const KEY_MAGIC: u8 = 0x47; // 'G'
const DELTA_MAGIC: u8 = 0x67; // 'g'

/// Floats in the conditioning vector: rotations, translation, region
/// opacity, region scale.
pub const UPDATE_VEC_LEN: usize = JOINT_COUNT * 3 + 3 + JOINT_COUNT + JOINT_COUNT;

// Quantization steps for the update stream, part of the format.
/// Axis-angle component step, radians.
const ROTATION_STEP: f32 = 0.002;
/// Translation component step, meters.
const TRANSLATION_STEP: f32 = 0.001;
/// Per-region opacity/scale multiplier step.
const REGION_STEP: f32 = 0.004;

/// Sender-side stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct GaussianUpdateConfig {
    /// Keyframe refresh interval in frames (0 = never).
    pub keyframe_interval: u32,
}

impl Default for GaussianUpdateConfig {
    fn default() -> Self {
        Self { keyframe_interval: 120 }
    }
}

fn state_vector(s: &AvatarState) -> Vec<f32> {
    let mut v = Vec::with_capacity(UPDATE_VEC_LEN);
    for q in &s.pose.joint_rotations {
        let aa = q.to_axis_angle();
        v.extend_from_slice(&[aa.x, aa.y, aa.z]);
    }
    v.extend_from_slice(&[s.pose.translation.x, s.pose.translation.y, s.pose.translation.z]);
    v.extend_from_slice(&s.region_opacity);
    v.extend_from_slice(&s.region_scale);
    v
}

fn state_from_vector(v: &[f32]) -> AvatarState {
    let mut pose = SmplxParams::default();
    for j in 0..JOINT_COUNT {
        let o = j * 3;
        pose.joint_rotations[j] = Quat::from_axis_angle_vec(Vec3::new(v[o], v[o + 1], v[o + 2]));
    }
    let o = JOINT_COUNT * 3;
    pose.translation = Vec3::new(v[o], v[o + 1], v[o + 2]);
    let mut state = AvatarState::from_pose(pose);
    state.region_opacity.copy_from_slice(&v[o + 3..o + 3 + JOINT_COUNT]);
    state.region_scale.copy_from_slice(&v[o + 3 + JOINT_COUNT..UPDATE_VEC_LEN]);
    state
}

fn step_for(index: usize) -> f32 {
    let rot_end = JOINT_COUNT * 3;
    if index < rot_end {
        ROTATION_STEP
    } else if index < rot_end + 3 {
        TRANSLATION_STEP
    } else {
        REGION_STEP
    }
}

/// Encoder: keyframe + closed-loop quantized deltas.
pub struct GaussianUpdateEncoder {
    /// Configuration.
    pub config: GaussianUpdateConfig,
    chain: ClosedLoopEncoder,
}

/// Decoder state.
#[derive(Default)]
pub struct GaussianUpdateDecoder {
    chain: ClosedLoopDecoder,
}

impl GaussianUpdateEncoder {
    /// Build an encoder.
    pub fn new(config: GaussianUpdateConfig) -> Self {
        Self { config, chain: ClosedLoopEncoder::default() }
    }

    /// Encode one conditioning state.
    pub fn encode(&mut self, state: &AvatarState) -> Vec<u8> {
        let current = state_vector(state);
        if self.chain.key_due(self.config.keyframe_interval) {
            let mut raw = Vec::with_capacity(UPDATE_VEC_LEN * 4);
            for f in &current {
                raw.extend_from_slice(&f.to_le_bytes());
            }
            // f32 bytes roundtrip exactly, so the wire vector *is* the
            // receiver's reference.
            self.chain.key(current);
            let mut out = vec![KEY_MAGIC];
            out.extend_from_slice(&lzma_compress(&raw));
            return out;
        }
        let coded = self.chain.delta(&current, step_for);
        let mut out = vec![DELTA_MAGIC];
        out.extend_from_slice(&coded);
        out
    }
}

impl GaussianUpdateDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode one update frame.
    ///
    /// Hostile-input contract: typed errors; a delta whose coded bytes
    /// run dry is rejected with the reference rolled back; a delta before
    /// any keyframe is rejected (the closed loop has no basis yet).
    pub fn decode(&mut self, data: &[u8]) -> Result<AvatarState, DecodeError> {
        let (&magic, body) = data
            .split_first()
            .ok_or(DecodeError::Truncated { needed: 1, available: 0 })?;
        match magic {
            KEY_MAGIC => {
                let raw = lzma_decompress(body)?;
                if raw.len() != UPDATE_VEC_LEN * 4 {
                    return Err(DecodeError::corrupt(
                        "gaussian update",
                        format!("keyframe carries {} bytes, expected {}", raw.len(), UPDATE_VEC_LEN * 4),
                    ));
                }
                let v: Vec<f32> = raw
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                if v.iter().any(|f| !f.is_finite()) {
                    return Err(DecodeError::corrupt("gaussian update", "non-finite keyframe value"));
                }
                let state = state_from_vector(&v);
                self.chain.key(v);
                Ok(state)
            }
            DELTA_MAGIC => {
                let reference = self.chain.delta(body, "gaussian update", step_for)?;
                Ok(state_from_vector(reference))
            }
            other => Err(DecodeError::corrupt(
                "gaussian update",
                format!("unknown gaussian update magic {other:#x}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_body::motion::{MotionKind, MotionSynthesizer};
    use holo_body::skeleton::Skeleton;

    fn clip(frames: usize) -> Vec<AvatarState> {
        let mut synth = MotionSynthesizer::new(11);
        synth
            .clip(MotionKind::Talking, frames as f32 / 30.0, 30.0)
            .frames
            .into_iter()
            .enumerate()
            .map(|(i, pose)| {
                let mut s = AvatarState::from_pose(pose);
                // Exercise the region channels with smooth variation.
                s.region_opacity[3] = 1.0 - 0.002 * i as f32;
                s.region_scale[7] = 1.0 + 0.003 * i as f32;
                s
            })
            .collect()
    }

    #[test]
    fn stream_roundtrips_accurately() {
        let states = clip(30);
        let cfg = GaussianUpdateConfig::default();
        let mut enc = GaussianUpdateEncoder::new(cfg);
        let mut dec = GaussianUpdateDecoder::new();
        let sk = Skeleton::neutral();
        for s in &states {
            let out = dec.decode(&enc.encode(s)).unwrap();
            let a = sk.forward_kinematics(&s.pose).positions();
            let b = sk.forward_kinematics(&out.pose).positions();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((*x - *y).length() < 0.01, "joint error {}", (*x - *y).length());
            }
            for r in 0..JOINT_COUNT {
                assert!((s.region_opacity[r] - out.region_opacity[r]).abs() < 0.01);
                assert!((s.region_scale[r] - out.region_scale[r]).abs() < 0.01);
            }
        }
    }

    #[test]
    fn delta_frames_are_tiny() {
        let states = clip(30);
        let cfg = GaussianUpdateConfig::default();
        let mut enc = GaussianUpdateEncoder::new(cfg);
        let mut delta_total = 0usize;
        for (i, s) in states.iter().enumerate() {
            let bytes = enc.encode(s);
            if i == 0 {
                assert_eq!(bytes[0], KEY_MAGIC);
            } else {
                assert_eq!(bytes[0], DELTA_MAGIC);
                delta_total += bytes.len();
            }
        }
        let mean = delta_total / (states.len() - 1);
        assert!(mean < 600, "mean delta frame {mean} B");
    }

    #[test]
    fn keyframe_interval_refreshes() {
        let states = clip(10);
        let cfg = GaussianUpdateConfig { keyframe_interval: 3 };
        let mut enc = GaussianUpdateEncoder::new(cfg);
        let keys = states.iter().filter(|s| enc.encode(s)[0] == KEY_MAGIC).count();
        assert!(keys >= 3, "keys {keys}");
    }

    #[test]
    fn decoder_rejects_hostile_frames() {
        let states = clip(2);
        let cfg = GaussianUpdateConfig::default();
        let mut enc = GaussianUpdateEncoder::new(cfg);
        let _key = enc.encode(&states[0]);
        let delta = enc.encode(&states[1]);
        let mut dec = GaussianUpdateDecoder::new();
        // Delta before key, empty input, unknown magic.
        assert!(dec.decode(&delta).is_err());
        assert!(dec.decode(&[]).is_err());
        assert!(dec.decode(&[0xFF, 1, 2]).is_err());
    }

    #[test]
    fn truncated_delta_rolls_back_reference() {
        let states = clip(3);
        let cfg = GaussianUpdateConfig::default();
        let mut enc = GaussianUpdateEncoder::new(cfg);
        let key = enc.encode(&states[0]);
        let delta1 = enc.encode(&states[1]);
        let delta2 = enc.encode(&states[2]);
        let mut dec = GaussianUpdateDecoder::new();
        dec.decode(&key).unwrap();
        // A starved delta must not poison the closed loop...
        assert!(dec.decode(&delta1[..2]).is_err());
        // ...so the intact retransmit still lands exactly.
        let out = dec.decode(&delta1).unwrap();
        assert!((out.pose.translation - states[1].pose.translation).length() < 0.01);
        dec.decode(&delta2).unwrap();
    }
}
