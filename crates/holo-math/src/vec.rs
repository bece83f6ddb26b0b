//! Fixed-size vector types: [`Vec2`], [`Vec3`], [`Vec4`].
//!
//! All types are `repr(C)` plain-old-data so they can be serialized to wire
//! formats by reading their fields in order; the compression crate relies on
//! this for the pose payload layout.

use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-component `f32` vector (image coordinates, UVs, gaze positions).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec2 {
    pub x: f32,
    pub y: f32,
}

/// A 3-component `f32` vector (positions, directions, colors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec3 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

/// A 4-component `f32` vector (homogeneous coordinates, RGBA).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec4 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    pub w: f32,
}

impl Vec2 {
    pub const ZERO: Self = Self { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f32 {
        self.x * o.x + self.y * o.y
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the sqrt).
    #[inline]
    pub fn length_sq(self) -> f32 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, o: Self) -> f32 {
        (self - o).length()
    }

    /// Unit-length copy; returns `Vec2::ZERO` for the zero vector.
    #[inline]
    pub fn normalized(self) -> Self {
        let l = self.length();
        if l > 0.0 {
            self / l
        } else {
            Self::ZERO
        }
    }

    /// Component-wise linear interpolation.
    #[inline]
    pub fn lerp(self, o: Self, t: f32) -> Self {
        self + (o - self) * t
    }
}

impl Vec3 {
    pub const ZERO: Self = Self { x: 0.0, y: 0.0, z: 0.0 };
    pub const ONE: Self = Self { x: 1.0, y: 1.0, z: 1.0 };
    pub const X: Self = Self { x: 1.0, y: 0.0, z: 0.0 };
    pub const Y: Self = Self { x: 0.0, y: 1.0, z: 0.0 };
    pub const Z: Self = Self { x: 0.0, y: 0.0, z: 1.0 };

    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// All components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, o: Self) -> Self {
        Self {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn length_sq(self) -> f32 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, o: Self) -> f32 {
        (self - o).length()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_sq(self, o: Self) -> f32 {
        (self - o).length_sq()
    }

    /// Unit-length copy; returns `Vec3::ZERO` for the zero vector.
    #[inline]
    pub fn normalized(self) -> Self {
        let l = self.length();
        if l > 0.0 {
            self / l
        } else {
            Self::ZERO
        }
    }

    /// Component-wise linear interpolation.
    #[inline]
    pub fn lerp(self, o: Self, t: f32) -> Self {
        self + (o - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        Self::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        Self::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Component-wise multiplication (Hadamard product).
    #[inline]
    pub fn mul_elem(self, o: Self) -> Self {
        Self::new(self.x * o.x, self.y * o.y, self.z * o.z)
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Extend with a `w` component into homogeneous coordinates.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }

    /// An arbitrary unit vector orthogonal to `self` (which must be nonzero).
    pub fn any_orthonormal(self) -> Self {
        let n = self.normalized();
        let other = if n.x.abs() < 0.9 { Self::X } else { Self::Y };
        n.cross(other).normalized()
    }

    /// Flatten a slice of `Vec3` into an `f32` buffer `[x0,y0,z0,x1,..]`.
    pub fn flatten(points: &[Self]) -> Vec<f32> {
        let mut out = Vec::with_capacity(points.len() * 3);
        for p in points {
            out.push(p.x);
            out.push(p.y);
            out.push(p.z);
        }
        out
    }

    /// Inverse of [`Vec3::flatten`]. Trailing partial triples are dropped.
    pub fn unflatten(data: &[f32]) -> Vec<Self> {
        data.chunks_exact(3).map(|c| Self::new(c[0], c[1], c[2])).collect()
    }
}

impl Vec4 {
    pub const ZERO: Self = Self { x: 0.0, y: 0.0, z: 0.0, w: 0.0 };

    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z + self.w * o.w
    }

    /// Drop the `w` component.
    #[inline]
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }
}

macro_rules! impl_vec_ops {
    ($t:ty, $($f:ident),+) => {
        impl Add for $t {
            type Output = Self;
            #[inline]
            fn add(self, o: Self) -> Self {
                Self { $($f: self.$f + o.$f),+ }
            }
        }
        impl Sub for $t {
            type Output = Self;
            #[inline]
            fn sub(self, o: Self) -> Self {
                Self { $($f: self.$f - o.$f),+ }
            }
        }
        impl Neg for $t {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($f: -self.$f),+ }
            }
        }
        impl Mul<f32> for $t {
            type Output = Self;
            #[inline]
            fn mul(self, s: f32) -> Self {
                Self { $($f: self.$f * s),+ }
            }
        }
        impl Mul<$t> for f32 {
            type Output = $t;
            #[inline]
            fn mul(self, v: $t) -> $t {
                v * self
            }
        }
        impl Div<f32> for $t {
            type Output = Self;
            #[inline]
            fn div(self, s: f32) -> Self {
                Self { $($f: self.$f / s),+ }
            }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, o: Self) {
                *self = *self + o;
            }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, o: Self) {
                *self = *self - o;
            }
        }
        impl MulAssign<f32> for $t {
            #[inline]
            fn mul_assign(&mut self, s: f32) {
                *self = *self * s;
            }
        }
        impl DivAssign<f32> for $t {
            #[inline]
            fn div_assign(&mut self, s: f32) {
                *self = *self / s;
            }
        }
    };
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);
impl_vec_ops!(Vec4, x, y, z, w);

impl Index<usize> for Vec3 {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl From<[f32; 3]> for Vec3 {
    fn from(a: [f32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(approx_eq(c.dot(a), 0.0, 1e-5));
        assert!(approx_eq(c.dot(b), 0.0, 1e-5));
    }

    #[test]
    fn cross_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
    }

    #[test]
    fn normalize_unit_length() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!(approx_eq(v.length(), 1.0, 1e-6));
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn flatten_roundtrip() {
        let pts = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(-4.0, 5.5, 0.0)];
        assert_eq!(Vec3::unflatten(&Vec3::flatten(&pts)), pts);
    }

    #[test]
    fn any_orthonormal_is_orthogonal() {
        for v in [Vec3::X, Vec3::Y, Vec3::Z, Vec3::new(0.3, -2.0, 1.4)] {
            let o = v.any_orthonormal();
            assert!(approx_eq(o.dot(v.normalized()), 0.0, 1e-5));
            assert!(approx_eq(o.length(), 1.0, 1e-5));
        }
    }

    #[test]
    fn vec2_distance() {
        assert!(approx_eq(Vec2::new(0.0, 0.0).distance(Vec2::new(3.0, 4.0)), 5.0, 1e-6));
    }

    #[test]
    fn min_max_abs() {
        let a = Vec3::new(-1.0, 5.0, 2.0);
        let b = Vec3::new(0.0, 3.0, 4.0);
        assert_eq!(a.min(b), Vec3::new(-1.0, 3.0, 2.0));
        assert_eq!(a.max(b), Vec3::new(0.0, 5.0, 4.0));
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 2.0));
        assert_eq!(a.max_component(), 5.0);
    }
}
