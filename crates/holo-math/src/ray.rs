//! Rays and ray-primitive intersection, used by the RGB-D capture renderer
//! (sphere tracing) and the NeRF volume renderer (ray sampling).

use crate::aabb::Aabb;
use crate::vec::Vec3;

/// A half-line `origin + t * dir`, `t >= 0`, with `dir` unit length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    pub origin: Vec3,
    pub dir: Vec3,
}

impl Ray {
    /// Construct a ray; `dir` is normalized.
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Self { origin, dir: dir.normalized() }
    }

    /// Point at parameter `t`.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Intersect with an AABB using the slab method.
    ///
    /// Returns the `(t_near, t_far)` parameter interval of the overlap, or
    /// `None` when the ray misses. `t_near` is clamped to 0 when the origin
    /// is inside the box.
    pub fn intersect_aabb(&self, b: &Aabb) -> Option<(f32, f32)> {
        let mut t0 = 0.0f32;
        let mut t1 = f32::INFINITY;
        for axis in 0..3 {
            let (o, d, lo, hi) = match axis {
                0 => (self.origin.x, self.dir.x, b.min.x, b.max.x),
                1 => (self.origin.y, self.dir.y, b.min.y, b.max.y),
                _ => (self.origin.z, self.dir.z, b.min.z, b.max.z),
            };
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / d;
            let (mut ta, mut tb) = ((lo - o) * inv, (hi - o) * inv);
            if ta > tb {
                std::mem::swap(&mut ta, &mut tb);
            }
            t0 = t0.max(ta);
            t1 = t1.min(tb);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    impl Ray {
        /// Intersect with a sphere; returns the nearest positive hit parameter.
        fn intersect_sphere(&self, center: Vec3, radius: f32) -> Option<f32> {
            let oc = self.origin - center;
            let b = oc.dot(self.dir);
            let c = oc.length_sq() - radius * radius;
            let disc = b * b - c;
            if disc < 0.0 {
                return None;
            }
            let sq = disc.sqrt();
            let t = -b - sq;
            if t >= 0.0 {
                Some(t)
            } else {
                let t = -b + sq;
                (t >= 0.0).then_some(t)
            }
        }
    }

    #[test]
    fn aabb_hit_and_miss() {
        let b = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let hit = Ray::new(Vec3::new(-5.0, 0.0, 0.0), Vec3::X);
        let (t0, t1) = hit.intersect_aabb(&b).unwrap();
        assert!(approx_eq(t0, 4.0, 1e-5) && approx_eq(t1, 6.0, 1e-5));
        let miss = Ray::new(Vec3::new(-5.0, 3.0, 0.0), Vec3::X);
        assert!(miss.intersect_aabb(&b).is_none());
    }

    #[test]
    fn aabb_from_inside_clamps_near() {
        let b = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let r = Ray::new(Vec3::ZERO, Vec3::Y);
        let (t0, t1) = r.intersect_aabb(&b).unwrap();
        assert_eq!(t0, 0.0);
        assert!(approx_eq(t1, 1.0, 1e-5));
    }

    #[test]
    fn aabb_parallel_ray() {
        let b = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let inside = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        assert!(inside.intersect_aabb(&b).is_some());
        let outside = Ray::new(Vec3::new(2.0, 0.0, -5.0), Vec3::Z);
        assert!(outside.intersect_aabb(&b).is_none());
    }

    #[test]
    fn sphere_nearest_hit() {
        let r = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let t = r.intersect_sphere(Vec3::ZERO, 1.0).unwrap();
        assert!(approx_eq(t, 4.0, 1e-5));
        assert!(r.intersect_sphere(Vec3::new(10.0, 0.0, 0.0), 1.0).is_none());
    }

    #[test]
    fn sphere_from_inside() {
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        let t = r.intersect_sphere(Vec3::ZERO, 2.0).unwrap();
        assert!(approx_eq(t, 2.0, 1e-5));
    }
}
