//! Axis-aligned bounding boxes.

use crate::vec::Vec3;

/// An axis-aligned bounding box defined by its min/max corners.
///
/// The "empty" box has `min > max` component-wise so that growing it with
/// the first point initializes both corners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The empty box (inverted corners); `grow` on it adopts the point.
    pub const EMPTY: Self = Self {
        min: Vec3 { x: f32::INFINITY, y: f32::INFINITY, z: f32::INFINITY },
        max: Vec3 { x: f32::NEG_INFINITY, y: f32::NEG_INFINITY, z: f32::NEG_INFINITY },
    };

    pub fn new(min: Vec3, max: Vec3) -> Self {
        Self { min, max }
    }

    /// Bounding box of a point set; `EMPTY` for an empty slice.
    pub fn from_points(points: &[Vec3]) -> Self {
        let mut b = Self::EMPTY;
        for &p in points {
            b.grow(p);
        }
        b
    }

    /// True when no point has been added.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Expand to include `p`.
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Expand to include another box.
    pub fn merge(&mut self, o: &Aabb) {
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    /// Uniformly pad every face outward by `m`.
    pub fn expanded(&self, m: f32) -> Self {
        Self::new(self.min - Vec3::splat(m), self.max + Vec3::splat(m))
    }

    /// Box center.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extents (max - min).
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Longest axis length.
    pub fn longest_side(&self) -> f32 {
        self.size().max_component()
    }

    /// True when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.y >= self.min.y
            && p.z >= self.min.z
            && p.x <= self.max.x
            && p.y <= self.max.y
            && p.z <= self.max.z
    }

    /// Signed distance from `p` to the box surface (negative inside).
    pub fn signed_distance(&self, p: Vec3) -> f32 {
        let c = self.center();
        let h = self.size() * 0.5;
        let q = (p - c).abs() - h;
        let outside = q.max(Vec3::ZERO).length();
        let inside = q.max_component().min(0.0);
        outside + inside
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn from_points_bounds_all() {
        let pts = [Vec3::new(1.0, -2.0, 3.0), Vec3::new(-1.0, 4.0, 0.0), Vec3::new(0.5, 0.0, -5.0)];
        let b = Aabb::from_points(&pts);
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Vec3::new(-1.0, -2.0, -5.0));
        assert_eq!(b.max, Vec3::new(1.0, 4.0, 3.0));
    }

    #[test]
    fn empty_box_detected() {
        assert!(Aabb::EMPTY.is_empty());
        let mut b = Aabb::EMPTY;
        b.grow(Vec3::ONE);
        assert!(!b.is_empty());
        assert_eq!(b.min, Vec3::ONE);
        assert_eq!(b.max, Vec3::ONE);
    }

    #[test]
    fn signed_distance_signs() {
        let b = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        assert!(b.signed_distance(Vec3::ZERO) < 0.0);
        assert!(approx_eq(b.signed_distance(Vec3::new(2.0, 0.0, 0.0)), 1.0, 1e-6));
        assert!(approx_eq(b.signed_distance(Vec3::new(1.0, 0.0, 0.0)), 0.0, 1e-6));
    }

    #[test]
    fn expanded_pads() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE).expanded(0.5);
        assert_eq!(b.min, Vec3::splat(-0.5));
        assert_eq!(b.max, Vec3::splat(1.5));
    }
}
