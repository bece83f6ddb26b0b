//! Per-frame pose parameters and the keypoint-semantics wire payload.
//!
//! The paper transmits "the 3D pose aligned with SMPL-X", measured at
//! **1.91 KB per frame** before compression (Table 2, §3.1). We reproduce
//! that payload exactly as [`PosePayload`]: a fitted SMPL-X parameter
//! block (55 joint rotations as axis-angle, global translation, 10 shape
//! betas, 10 expression coefficients = 188 floats) plus the 100 raw
//! detected 3D keypoints the fit was estimated from (300 floats), with a
//! 4-byte header — 1956 bytes ≈ 1.91 KB.

use crate::skeleton::JOINT_COUNT;
use holo_math::{Pcg32, Quat, Vec3};
use holo_runtime::ser::{ByteReader, DecodeError};

/// Number of shape coefficients (SMPL-X uses 10 by default).
pub const SHAPE_DIM: usize = 10;
/// Number of expression coefficients (SMPL-X uses 10 by default).
pub const EXPRESSION_DIM: usize = 10;
/// Number of raw 3D keypoints carried alongside the fitted parameters.
pub const PAYLOAD_KEYPOINTS: usize = 100;
/// Wire format magic/version word.
const PAYLOAD_MAGIC: u32 = 0x534D_5831; // "SMX1"

/// Complete per-frame avatar state: pose, shape, and expression.
#[derive(Debug, Clone)]
pub struct SmplxParams {
    /// Global root translation, meters.
    pub translation: Vec3,
    /// Per-joint rotations; index 0 is the global orientation.
    pub joint_rotations: [Quat; JOINT_COUNT],
    /// Shape (identity) coefficients.
    pub betas: [f32; SHAPE_DIM],
    /// Facial expression coefficients.
    pub expression: [f32; EXPRESSION_DIM],
}

impl Default for SmplxParams {
    fn default() -> Self {
        Self {
            translation: Vec3::ZERO,
            joint_rotations: [Quat::IDENTITY; JOINT_COUNT],
            betas: [0.0; SHAPE_DIM],
            expression: [0.0; EXPRESSION_DIM],
        }
    }
}

impl SmplxParams {
    /// Number of floats in the parameter block.
    pub const FLOAT_COUNT: usize = 3 + JOINT_COUNT * 3 + SHAPE_DIM + EXPRESSION_DIM;

    /// Serialize the parameter block to floats: translation, 55 axis-angle
    /// rotations, betas, expression — the SMPL-X packing convention.
    pub fn to_floats(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(Self::FLOAT_COUNT);
        out.extend_from_slice(&[self.translation.x, self.translation.y, self.translation.z]);
        for q in &self.joint_rotations {
            let aa = q.to_axis_angle();
            out.extend_from_slice(&[aa.x, aa.y, aa.z]);
        }
        out.extend_from_slice(&self.betas);
        out.extend_from_slice(&self.expression);
        out
    }

    /// Inverse of [`SmplxParams::to_floats`].
    pub fn from_floats(data: &[f32]) -> Result<Self, DecodeError> {
        if data.len() != Self::FLOAT_COUNT {
            return Err(DecodeError::corrupt(
                "smplx params",
                format!("expected {} floats, got {}", Self::FLOAT_COUNT, data.len()),
            ));
        }
        let mut p = SmplxParams {
            translation: Vec3::new(data[0], data[1], data[2]),
            ..Default::default()
        };
        for j in 0..JOINT_COUNT {
            let o = 3 + j * 3;
            p.joint_rotations[j] = Quat::from_axis_angle_vec(Vec3::new(data[o], data[o + 1], data[o + 2]));
        }
        let o = 3 + JOINT_COUNT * 3;
        p.betas.copy_from_slice(&data[o..o + SHAPE_DIM]);
        p.expression.copy_from_slice(&data[o + SHAPE_DIM..o + SHAPE_DIM + EXPRESSION_DIM]);
        Ok(p)
    }

    /// Interpolate toward `other` (slerp on rotations, lerp elsewhere).
    pub fn lerp(&self, other: &Self, t: f32) -> Self {
        let mut out = SmplxParams {
            translation: self.translation.lerp(other.translation, t),
            ..Default::default()
        };
        for j in 0..JOINT_COUNT {
            out.joint_rotations[j] = self.joint_rotations[j].slerp(other.joint_rotations[j], t);
        }
        for i in 0..SHAPE_DIM {
            out.betas[i] = holo_math::lerp(self.betas[i], other.betas[i], t);
        }
        for i in 0..EXPRESSION_DIM {
            out.expression[i] = holo_math::lerp(self.expression[i], other.expression[i], t);
        }
        out
    }

    /// A random plausible pose (small joint angles, fingers mostly at
    /// rest), for tests and property checks.
    pub fn random_plausible(rng: &mut Pcg32) -> Self {
        let mut p = SmplxParams {
            translation: Vec3::new(rng.range_f32(-0.5, 0.5), 0.0, rng.range_f32(-0.5, 0.5)),
            ..Default::default()
        };
        for j in 0..JOINT_COUNT {
            // Fingers stay at rest 70% of the time, like real capture data
            // (this is also what makes the pose stream compressible).
            if j >= 25 && rng.chance(0.7) {
                continue;
            }
            let scale = if j >= 25 { 0.3 } else { 0.5 };
            let axis = Vec3::new(rng.normal(), rng.normal(), rng.normal());
            if axis.length() < 1e-6 {
                continue;
            }
            p.joint_rotations[j] = Quat::from_axis_angle(axis, rng.range_f32(-scale, scale));
        }
        for b in &mut p.betas {
            *b = rng.normal() * 0.5;
        }
        for (i, e) in p.expression.iter_mut().enumerate() {
            *e = if i < 3 { rng.range_f32(0.0, 1.0) } else { 0.0 };
        }
        p
    }
}

/// The exact keypoint-semantics wire payload of Table 2: fitted SMPL-X
/// parameters plus the raw detected 3D keypoints.
#[derive(Debug, Clone)]
pub struct PosePayload {
    /// Fitted parametric pose.
    pub params: SmplxParams,
    /// Raw detected 3D keypoints (exactly [`PAYLOAD_KEYPOINTS`] entries).
    pub keypoints: Vec<Vec3>,
}

impl PosePayload {
    /// Size in bytes of the serialized payload: 4-byte header + 188
    /// parameter floats + 300 keypoint floats = 1956 B ≈ 1.91 KB.
    pub const WIRE_SIZE: usize = 4 + (SmplxParams::FLOAT_COUNT + PAYLOAD_KEYPOINTS * 3) * 4;

    /// Build a payload; pads or truncates `keypoints` to the fixed count.
    pub fn new(params: SmplxParams, mut keypoints: Vec<Vec3>) -> Self {
        keypoints.resize(PAYLOAD_KEYPOINTS, Vec3::ZERO);
        Self { params, keypoints }
    }

    /// Serialize to the little-endian wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        out.extend_from_slice(&PAYLOAD_MAGIC.to_le_bytes());
        for f in self.params.to_floats() {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for kp in &self.keypoints {
            out.extend_from_slice(&kp.x.to_le_bytes());
            out.extend_from_slice(&kp.y.to_le_bytes());
            out.extend_from_slice(&kp.z.to_le_bytes());
        }
        debug_assert_eq!(out.len(), Self::WIRE_SIZE);
        out
    }

    /// Parse the wire format.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        if data.len() != Self::WIRE_SIZE {
            return Err(if data.len() < Self::WIRE_SIZE {
                DecodeError::Truncated { needed: Self::WIRE_SIZE, available: data.len() }
            } else {
                DecodeError::corrupt(
                    "pose payload",
                    format!("payload size {} != {}", data.len(), Self::WIRE_SIZE),
                )
            });
        }
        let mut r = ByteReader::new(data);
        r.expect_magic(PAYLOAD_MAGIC)?;
        let mut floats = Vec::with_capacity(SmplxParams::FLOAT_COUNT + PAYLOAD_KEYPOINTS * 3);
        while !r.is_empty() {
            floats.push(r.f32_le()?);
        }
        let params = SmplxParams::from_floats(&floats[..SmplxParams::FLOAT_COUNT])?;
        let keypoints = Vec3::unflatten(&floats[SmplxParams::FLOAT_COUNT..]);
        Ok(Self { params, keypoints })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SmplxParams {
        /// Mean per-joint rotation error (radians) against another pose:
        /// the smoothness probe of this crate's motion tests.
        pub(crate) fn rotation_error(&self, other: &Self) -> f32 {
            let sum: f32 = self
                .joint_rotations
                .iter()
                .zip(&other.joint_rotations)
                .map(|(a, b)| a.angle_to(*b))
                .sum();
            sum / JOINT_COUNT as f32
        }
    }

    #[test]
    fn wire_size_is_1_91_kb() {
        // 4 + (188 + 300) * 4 = 1956 bytes = 1.9102 KB.
        assert_eq!(PosePayload::WIRE_SIZE, 1956);
        let kb = PosePayload::WIRE_SIZE as f64 / 1024.0;
        assert!((kb - 1.91).abs() < 0.01, "payload {kb:.3} KB");
    }

    #[test]
    fn float_roundtrip() {
        let mut rng = Pcg32::new(1);
        for _ in 0..20 {
            let p = SmplxParams::random_plausible(&mut rng);
            let back = SmplxParams::from_floats(&p.to_floats()).unwrap();
            assert!((p.translation - back.translation).length() < 1e-5);
            for j in 0..JOINT_COUNT {
                let err = p.joint_rotations[j].angle_to(back.joint_rotations[j]);
                assert!(err < 1e-3, "joint {j} error {err}");
            }
            assert_eq!(p.betas, back.betas);
            assert_eq!(p.expression, back.expression);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = Pcg32::new(2);
        let p = SmplxParams::random_plausible(&mut rng);
        let kps: Vec<Vec3> = (0..PAYLOAD_KEYPOINTS)
            .map(|_| Vec3::new(rng.normal(), rng.normal(), rng.normal()))
            .collect();
        let payload = PosePayload::new(p, kps.clone());
        let bytes = payload.to_bytes();
        assert_eq!(bytes.len(), PosePayload::WIRE_SIZE);
        let back = PosePayload::from_bytes(&bytes).unwrap();
        assert_eq!(back.keypoints.len(), PAYLOAD_KEYPOINTS);
        for (a, b) in kps.iter().zip(&back.keypoints) {
            assert!((*a - *b).length() < 1e-6);
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(PosePayload::from_bytes(&[0u8; 10]).is_err());
        let mut bytes = PosePayload::new(SmplxParams::default(), vec![]).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(PosePayload::from_bytes(&bytes).is_err());
    }

    #[test]
    fn from_floats_rejects_wrong_length() {
        assert!(SmplxParams::from_floats(&[0.0; 10]).is_err());
    }

    #[test]
    fn lerp_midpoint_rotation() {
        let a = SmplxParams::default();
        let mut b = SmplxParams::default();
        b.joint_rotations[5] = Quat::from_axis_angle(Vec3::X, 1.0);
        b.translation = Vec3::new(2.0, 0.0, 0.0);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.translation.x - 1.0).abs() < 1e-6);
        assert!((mid.joint_rotations[5].angle_to(Quat::IDENTITY) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn rotation_error_zero_for_self() {
        let mut rng = Pcg32::new(3);
        let p = SmplxParams::random_plausible(&mut rng);
        // acos near 1 is ill-conditioned; ~3e-4 per joint is float noise.
        assert!(p.rotation_error(&p) < 5e-3);
        let q = SmplxParams::default();
        assert!(p.rotation_error(&q) > 0.0);
    }

    #[test]
    fn payload_pads_keypoints() {
        let payload = PosePayload::new(SmplxParams::default(), vec![Vec3::ONE; 5]);
        assert_eq!(payload.keypoints.len(), PAYLOAD_KEYPOINTS);
    }
}
