//! Unit quaternions for rotations.
//!
//! Joint rotations in the avatar skeleton are stored as quaternions; the
//! pose wire format stores them as axis-angle triples (3 floats instead of
//! 4), the same convention SMPL-X uses, so [`Quat::to_axis_angle`] /
//! [`Quat::from_axis_angle_vec`] define the conversion.

use crate::vec::Vec3;
use crate::Mat3;
use std::ops::Mul;

/// A rotation quaternion `w + xi + yj + zk`, kept approximately unit-length.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Quat {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    pub w: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Self = Self { x: 0.0, y: 0.0, z: 0.0, w: 1.0 };

    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Rotation of `angle` radians about the (not necessarily unit) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let axis = axis.normalized();
        let half = angle * 0.5;
        let (s, c) = half.sin_cos();
        Self::new(axis.x * s, axis.y * s, axis.z * s, c)
    }

    /// Rotation from a compact axis-angle vector whose direction is the axis
    /// and length the angle in radians (the SMPL-X pose convention).
    pub fn from_axis_angle_vec(v: Vec3) -> Self {
        let angle = v.length();
        if angle < 1e-8 {
            // First-order expansion keeps tiny rotations smooth.
            Self::new(v.x * 0.5, v.y * 0.5, v.z * 0.5, 1.0).normalized()
        } else {
            Self::from_axis_angle(v / angle, angle)
        }
    }

    /// Convert back to the compact axis-angle vector. Inverse of
    /// [`Quat::from_axis_angle_vec`] up to quaternion double-cover.
    pub fn to_axis_angle(self) -> Vec3 {
        let q = if self.w < 0.0 { -self } else { self };
        let s_sq = 1.0 - q.w * q.w;
        if s_sq < 1e-12 {
            return Vec3::new(q.x, q.y, q.z) * 2.0;
        }
        let s = s_sq.sqrt();
        let angle = 2.0 * q.w.clamp(-1.0, 1.0).acos();
        Vec3::new(q.x, q.y, q.z) / s * angle
    }

    /// Quaternion norm.
    #[inline]
    pub fn length(self) -> f32 {
        (self.x * self.x + self.y * self.y + self.z * self.z + self.w * self.w).sqrt()
    }

    /// Unit-length copy; identity for the zero quaternion.
    pub fn normalized(self) -> Self {
        let l = self.length();
        if l > 1e-12 {
            Self::new(self.x / l, self.y / l, self.z / l, self.w / l)
        } else {
            Self::IDENTITY
        }
    }

    /// The inverse rotation (conjugate, assuming unit length).
    #[inline]
    pub fn conjugate(self) -> Self {
        Self::new(-self.x, -self.y, -self.z, self.w)
    }

    /// Rotate a vector by this quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 * q_vec x (q_vec x v + w * v)
        let qv = Vec3::new(self.x, self.y, self.z);
        let t = qv.cross(v) * 2.0;
        v + t * self.w + qv.cross(t)
    }

    /// Quaternion dot product (cosine of half the angle between rotations).
    #[inline]
    pub fn dot(self, o: Self) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z + self.w * o.w
    }

    /// Spherical linear interpolation, taking the shortest arc.
    pub fn slerp(self, mut o: Self, t: f32) -> Self {
        let mut d = self.dot(o);
        if d < 0.0 {
            o = -o;
            d = -d;
        }
        if d > 0.9995 {
            // Nearly parallel: fall back to normalized lerp.
            return Self::new(
                crate::lerp(self.x, o.x, t),
                crate::lerp(self.y, o.y, t),
                crate::lerp(self.z, o.z, t),
                crate::lerp(self.w, o.w, t),
            )
            .normalized();
        }
        let theta = d.clamp(-1.0, 1.0).acos();
        let sin_theta = theta.sin();
        let a = ((1.0 - t) * theta).sin() / sin_theta;
        let b = (t * theta).sin() / sin_theta;
        Self::new(
            self.x * a + o.x * b,
            self.y * a + o.y * b,
            self.z * a + o.z * b,
            self.w * a + o.w * b,
        )
    }

    /// Angle in radians between two rotations.
    pub fn angle_to(self, o: Self) -> f32 {
        2.0 * self.dot(o).abs().clamp(-1.0, 1.0).acos()
    }

    /// Rotation matrix equivalent.
    pub fn to_mat3(self) -> Mat3 {
        let Self { x, y, z, w } = self.normalized();
        Mat3::from_rows(
            Vec3::new(1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
            Vec3::new(2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
            Vec3::new(2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
        )
    }
}

impl Mul for Quat {
    type Output = Self;
    /// Hamilton product: `(a * b).rotate(v) == a.rotate(b.rotate(v))`.
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
        )
    }
}

impl std::ops::Neg for Quat {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z, -self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f32::consts::{FRAC_PI_2, PI};

    fn assert_vec_close(a: Vec3, b: Vec3, eps: f32) {
        assert!((a - b).length() < eps, "{a:?} vs {b:?}");
    }

    impl Quat {
        /// Euler rotation applied in XYZ order (intrinsic): a generic
        /// rotation for this crate's tests.
        pub(crate) fn from_euler_xyz(x: f32, y: f32, z: f32) -> Self {
            Self::from_axis_angle(Vec3::X, x)
                * Self::from_axis_angle(Vec3::Y, y)
                * Self::from_axis_angle(Vec3::Z, z)
        }
    }

    #[test]
    fn rotate_90_about_z() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert_vec_close(q.rotate(Vec3::X), Vec3::Y, 1e-6);
    }

    #[test]
    fn composition_matches_sequential_rotation() {
        let a = Quat::from_axis_angle(Vec3::X, 0.7);
        let b = Quat::from_axis_angle(Vec3::Y, -1.2);
        let v = Vec3::new(0.3, 1.0, -2.0);
        assert_vec_close((a * b).rotate(v), a.rotate(b.rotate(v)), 1e-5);
    }

    #[test]
    fn axis_angle_roundtrip() {
        for v in [
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(0.5, -1.0, 0.25),
            Vec3::new(0.0, 0.0, 3.0),
            Vec3::new(1e-9, 0.0, 0.0),
        ] {
            let q = Quat::from_axis_angle_vec(v);
            let back = q.to_axis_angle();
            assert_vec_close(v, back, 1e-4);
        }
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_euler_xyz(0.3, 1.1, -0.6);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_close(q.conjugate().rotate(q.rotate(v)), v, 1e-5);
    }

    #[test]
    fn slerp_endpoints_and_midpoint() {
        let a = Quat::IDENTITY;
        let b = Quat::from_axis_angle(Vec3::Y, PI / 2.0);
        // acos near 1.0 is ill-conditioned, so angle tolerance is loose.
        assert!(a.slerp(b, 0.0).angle_to(a) < 1e-3);
        assert!(a.slerp(b, 1.0).angle_to(b) < 1e-3);
        let mid = a.slerp(b, 0.5);
        assert!(approx_eq(mid.angle_to(a), PI / 4.0, 1e-4));
    }

    #[test]
    fn mat3_matches_quat_rotation() {
        let q = Quat::from_euler_xyz(0.4, -0.9, 1.7);
        let m = q.to_mat3();
        let v = Vec3::new(-0.2, 0.8, 1.5);
        assert_vec_close(m.mul_vec(v), q.rotate(v), 1e-5);
    }

    #[test]
    fn angle_to_handles_double_cover() {
        let q = Quat::from_axis_angle(Vec3::X, 0.8);
        assert!(q.angle_to(-q) < 1e-5);
    }
}
