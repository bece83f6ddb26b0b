//! Small matrix types: [`Mat3`] and [`Mat4`].
//!
//! `Mat4` carries the rigid/affine transforms used by skinning and camera
//! models; `Mat3` is the rotation block. Storage is row-major arrays of row
//! vectors, which keeps the code readable (matrix entries are
//! `rows[r][c]`).

use crate::quat::Quat;
use crate::vec::{Vec3, Vec4};
use std::ops::Mul;

/// 3x3 matrix, row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    pub rows: [Vec3; 3],
}

/// 4x4 matrix, row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    pub rows: [Vec4; 4],
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mat3 {
    pub const IDENTITY: Self = Self {
        rows: [
            Vec3 { x: 1.0, y: 0.0, z: 0.0 },
            Vec3 { x: 0.0, y: 1.0, z: 0.0 },
            Vec3 { x: 0.0, y: 0.0, z: 1.0 },
        ],
    };

    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Self { rows: [r0, r1, r2] }
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(self.rows[0].dot(v), self.rows[1].dot(v), self.rows[2].dot(v))
    }

    /// Matrix transpose (the inverse, for pure rotations).
    pub fn transpose(&self) -> Self {
        Self::from_rows(
            Vec3::new(self.rows[0].x, self.rows[1].x, self.rows[2].x),
            Vec3::new(self.rows[0].y, self.rows[1].y, self.rows[2].y),
            Vec3::new(self.rows[0].z, self.rows[1].z, self.rows[2].z),
        )
    }
}

impl Mul for Mat3 {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        let ot = o.transpose();
        Self::from_rows(
            Vec3::new(self.rows[0].dot(ot.rows[0]), self.rows[0].dot(ot.rows[1]), self.rows[0].dot(ot.rows[2])),
            Vec3::new(self.rows[1].dot(ot.rows[0]), self.rows[1].dot(ot.rows[1]), self.rows[1].dot(ot.rows[2])),
            Vec3::new(self.rows[2].dot(ot.rows[0]), self.rows[2].dot(ot.rows[1]), self.rows[2].dot(ot.rows[2])),
        )
    }
}

impl Mat4 {
    pub const IDENTITY: Self = Self {
        rows: [
            Vec4 { x: 1.0, y: 0.0, z: 0.0, w: 0.0 },
            Vec4 { x: 0.0, y: 1.0, z: 0.0, w: 0.0 },
            Vec4 { x: 0.0, y: 0.0, z: 1.0, w: 0.0 },
            Vec4 { x: 0.0, y: 0.0, z: 0.0, w: 1.0 },
        ],
    };

    pub fn from_rows(r0: Vec4, r1: Vec4, r2: Vec4, r3: Vec4) -> Self {
        Self { rows: [r0, r1, r2, r3] }
    }

    /// Pure translation.
    pub fn translation(t: Vec3) -> Self {
        let mut m = Self::IDENTITY;
        m.rows[0].w = t.x;
        m.rows[1].w = t.y;
        m.rows[2].w = t.z;
        m
    }

    /// Uniform scale.
    pub fn scale(s: f32) -> Self {
        let mut m = Self::IDENTITY;
        m.rows[0].x = s;
        m.rows[1].y = s;
        m.rows[2].z = s;
        m
    }

    /// Rigid transform from rotation + translation.
    pub fn from_rotation_translation(q: Quat, t: Vec3) -> Self {
        let r = q.to_mat3();
        Self::from_rows(
            r.rows[0].extend(t.x),
            r.rows[1].extend(t.y),
            r.rows[2].extend(t.z),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Transform a point (applies translation).
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        let v = p.extend(1.0);
        Vec3::new(self.rows[0].dot(v), self.rows[1].dot(v), self.rows[2].dot(v))
    }

    /// Transform a direction (ignores translation).
    pub fn transform_dir(&self, d: Vec3) -> Vec3 {
        let v = d.extend(0.0);
        Vec3::new(self.rows[0].dot(v), self.rows[1].dot(v), self.rows[2].dot(v))
    }

    /// The upper-left 3x3 rotation/scale block.
    pub fn rotation_block(&self) -> Mat3 {
        Mat3::from_rows(
            self.rows[0].truncate(),
            self.rows[1].truncate(),
            self.rows[2].truncate(),
        )
    }

    /// Translation column.
    pub fn translation_part(&self) -> Vec3 {
        Vec3::new(self.rows[0].w, self.rows[1].w, self.rows[2].w)
    }

    /// Inverse of a rigid transform (rotation + translation only).
    pub fn rigid_inverse(&self) -> Self {
        let rt = self.rotation_block().transpose();
        let t = self.translation_part();
        let nt = rt.mul_vec(t) * -1.0;
        Self::from_rows(
            rt.rows[0].extend(nt.x),
            rt.rows[1].extend(nt.y),
            rt.rows[2].extend(nt.z),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }
}

impl Mul for Mat4 {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        let cols = [
            Vec4::new(o.rows[0].x, o.rows[1].x, o.rows[2].x, o.rows[3].x),
            Vec4::new(o.rows[0].y, o.rows[1].y, o.rows[2].y, o.rows[3].y),
            Vec4::new(o.rows[0].z, o.rows[1].z, o.rows[2].z, o.rows[3].z),
            Vec4::new(o.rows[0].w, o.rows[1].w, o.rows[2].w, o.rows[3].w),
        ];
        let row = |r: Vec4| Vec4::new(r.dot(cols[0]), r.dot(cols[1]), r.dot(cols[2]), r.dot(cols[3]));
        Self::from_rows(row(self.rows[0]), row(self.rows[1]), row(self.rows[2]), row(self.rows[3]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn assert_vec_close(a: Vec3, b: Vec3, eps: f32) {
        assert!((a - b).length() < eps, "{a:?} vs {b:?}");
    }

    #[test]
    fn translation_moves_points_not_dirs() {
        let m = Mat4::translation(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.transform_point(Vec3::ZERO), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(m.transform_dir(Vec3::X), Vec3::X);
    }

    #[test]
    fn rigid_inverse_roundtrip() {
        let q = Quat::from_euler_xyz(0.3, -0.8, 1.2);
        let m = Mat4::from_rotation_translation(q, Vec3::new(2.0, -1.0, 0.5));
        let inv = m.rigid_inverse();
        let p = Vec3::new(0.7, 3.0, -2.2);
        assert_vec_close(inv.transform_point(m.transform_point(p)), p, 1e-5);
        let prod = m * inv;
        assert_vec_close(prod.transform_point(p), p, 1e-5);
    }

    #[test]
    fn mat3_transpose_inverts_rotation() {
        let r = Quat::from_euler_xyz(1.0, 0.2, -0.4).to_mat3();
        let v = Vec3::new(1.0, -2.0, 0.5);
        assert_vec_close(r.transpose().mul_vec(r.mul_vec(v)), v, 1e-5);
        let det = r.rows[0].dot(r.rows[1].cross(r.rows[2]));
        assert!(approx_eq(det, 1.0, 1e-5));
    }

    #[test]
    fn mat4_mul_composes() {
        let a = Mat4::translation(Vec3::X);
        let b = Mat4::from_rotation_translation(Quat::from_axis_angle(Vec3::Z, 1.0), Vec3::Y);
        let p = Vec3::new(0.3, 0.4, 0.5);
        assert_vec_close((a * b).transform_point(p), a.transform_point(b.transform_point(p)), 1e-5);
    }

    #[test]
    fn scale_scales() {
        let m = Mat4::scale(2.5);
        assert_eq!(m.transform_point(Vec3::ONE), Vec3::splat(2.5));
    }
}
