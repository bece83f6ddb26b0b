//! Foveation maps: partitioning scene content by angular distance from
//! the gaze point.
//!
//! The foveated hybrid pipeline (§3.1) transmits full mesh for content
//! within the foveal radius of the (predicted) gaze point and keypoints
//! for everything else. [`FoveationMap`] does the partitioning in gaze
//! angle space and computes the foveal fraction of a content set — the
//! knob behind ablation A's bandwidth/quality trade-off.

use holo_math::{Vec2, Vec3};

/// A gaze-centered angular partition.
#[derive(Debug, Clone)]
pub struct FoveationMap {
    /// Gaze direction in screen angle space, degrees.
    pub gaze: Vec2,
    /// Foveal radius, degrees (human fovea ~2.5 deg; practical systems
    /// use 5-20 deg to absorb prediction error).
    pub foveal_radius: f32,
    /// Viewer position in world space.
    pub viewer: Vec3,
    /// Viewer forward direction (gaze (0,0) maps here).
    pub forward: Vec3,
    /// Viewer right direction.
    pub right: Vec3,
    /// Viewer up direction.
    pub up: Vec3,
}

impl FoveationMap {
    /// Build for a viewer at `viewer` looking along `forward`.
    pub fn new(viewer: Vec3, forward: Vec3, gaze: Vec2, foveal_radius: f32) -> Self {
        let forward = forward.normalized();
        let right = forward.cross(Vec3::Y).normalized();
        let right = if right.length_sq() < 1e-9 { Vec3::X } else { right };
        let up = right.cross(forward).normalized();
        Self { gaze, foveal_radius, viewer, forward, right, up }
    }

    /// Angular position (degrees) of a world point in the viewer's field.
    pub fn angle_of(&self, p: Vec3) -> Vec2 {
        let d = (p - self.viewer).normalized();
        let x = d.dot(self.right);
        let y = d.dot(self.up);
        let z = d.dot(self.forward).max(1e-6);
        Vec2::new(x.atan2(z).to_degrees(), y.atan2(z).to_degrees())
    }

    /// True when a world point falls inside the foveal circle.
    pub fn is_foveal(&self, p: Vec3) -> bool {
        self.angle_of(p).distance(self.gaze) <= self.foveal_radius
    }

    /// Partition indices of a point set into (foveal, peripheral).
    pub fn partition(&self, points: &[Vec3]) -> (Vec<u32>, Vec<u32>) {
        let mut fov = Vec::new();
        let mut per = Vec::new();
        for (i, &p) in points.iter().enumerate() {
            if self.is_foveal(p) {
                fov.push(i as u32);
            } else {
                per.push(i as u32);
            }
        }
        (fov, per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viewer_map(gaze: Vec2, radius: f32) -> FoveationMap {
        FoveationMap::new(Vec3::new(0.0, 1.5, 3.0), Vec3::new(0.0, 0.0, -1.0), gaze, radius)
    }

    #[test]
    fn straight_ahead_is_foveal() {
        let m = viewer_map(Vec2::ZERO, 5.0);
        assert!(m.is_foveal(Vec3::new(0.0, 1.5, 0.0)));
        // A point far to the side is peripheral.
        assert!(!m.is_foveal(Vec3::new(2.5, 1.5, 0.0)));
    }

    #[test]
    fn gaze_offset_shifts_the_fovea() {
        // Gaze 20 degrees to the left (negative x in our convention
        // depends on right vector; just verify consistency).
        let m = viewer_map(Vec2::new(-20.0, 0.0), 6.0);
        let ahead = Vec3::new(0.0, 1.5, 0.0);
        assert!(!m.is_foveal(ahead), "center should now be peripheral");
        // Find the point at -20 degrees: x = -tan(20 deg) * 3.
        let x = -(20.0f32.to_radians().tan()) * 3.0;
        let target = Vec3::new(x, 1.5, 0.0);
        let ang = m.angle_of(target);
        assert!(ang.distance(m.gaze) < 1.0, "angle {ang:?}");
        assert!(m.is_foveal(target));
    }

    #[test]
    fn foveal_fraction_grows_with_radius() {
        let points: Vec<Vec3> = (0..400)
            .map(|i| {
                let a = i as f32 * 0.157;
                Vec3::new(a.sin() * 0.8, 1.0 + (a * 1.3).cos() * 0.8, (a * 0.7).cos() * 0.3)
            })
            .collect();
        let foveal = |radius| viewer_map(Vec2::ZERO, radius).partition(&points).0.len();
        let (small, large) = (foveal(3.0), foveal(25.0));
        assert!(large > small, "foveal points small {small} large {large}");
        assert!(large <= points.len());
    }

    #[test]
    fn partition_is_complete_and_disjoint() {
        let points: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new((i as f32 * 0.37).sin(), 1.5 + (i as f32 * 0.23).cos(), 0.0))
            .collect();
        let m = viewer_map(Vec2::ZERO, 10.0);
        let (fov, per) = m.partition(&points);
        assert_eq!(fov.len() + per.len(), points.len());
        for &i in &fov {
            assert!(m.is_foveal(points[i as usize]));
        }
        for &i in &per {
            assert!(!m.is_foveal(points[i as usize]));
        }
    }

    #[test]
    fn empty_points() {
        let m = viewer_map(Vec2::ZERO, 10.0);
        assert_eq!(m.partition(&[]), (vec![], vec![]));
    }
}
