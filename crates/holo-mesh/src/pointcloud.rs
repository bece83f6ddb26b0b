//! Colored point clouds, the capture substrate's fusion output and the
//! text-semantics reconstruction target.

use holo_math::{Aabb, Vec3};
use std::collections::BTreeMap;

/// A point cloud with optional per-point colors.
#[derive(Debug, Clone, Default)]
pub struct PointCloud {
    /// Point positions.
    pub points: Vec<Vec3>,
    /// Optional RGB colors in `[0, 1]`, one per point when non-empty.
    pub colors: Vec<Vec3>,
}

impl PointCloud {
    /// An empty cloud.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from positions only.
    pub fn from_points(points: Vec<Vec3>) -> Self {
        Self { points, colors: Vec::new() }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Axis-aligned bounds.
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.points)
    }

    /// Size in bytes of the uncompressed binary wire format: 16-byte
    /// header, `f32` xyz per point, plus packed RGB bytes when colored.
    pub fn raw_size_bytes(&self) -> usize {
        16 + self.points.len() * 12 + if self.colors.is_empty() { 0 } else { self.points.len() * 3 }
    }

    /// Structural validation: finite coordinates, color length matches.
    pub fn validate(&self) -> Result<(), String> {
        if !self.colors.is_empty() && self.colors.len() != self.points.len() {
            return Err(format!(
                "color count {} != point count {}",
                self.colors.len(),
                self.points.len()
            ));
        }
        for (i, p) in self.points.iter().enumerate() {
            if !p.is_finite() {
                return Err(format!("point {i} not finite: {p:?}"));
            }
        }
        Ok(())
    }

    /// Append another cloud.
    pub fn append(&mut self, other: &PointCloud) {
        // Keep color buffers consistent when either side is colored.
        if !self.colors.is_empty() || !other.colors.is_empty() {
            self.colors.resize(self.points.len(), Vec3::ONE);
            if other.colors.is_empty() {
                self.colors.extend(std::iter::repeat_n(Vec3::ONE, other.points.len()));
            } else {
                self.colors.extend_from_slice(&other.colors);
            }
        }
        self.points.extend_from_slice(&other.points);
    }

    /// Voxel-grid downsample: one averaged point (and color) per occupied
    /// voxel of side `voxel_size`. This is the standard fusion filter for
    /// merged multi-camera captures.
    pub fn voxel_downsample(&self, voxel_size: f32) -> PointCloud {
        assert!(voxel_size > 0.0, "voxel size must be positive");
        #[derive(Default)]
        struct Acc {
            pos: Vec3,
            col: Vec3,
            n: u32,
        }
        let inv = 1.0 / voxel_size;
        // BTreeMap: iteration is already in voxel-key order, so the
        // output order is canonical by construction.
        let mut cells: BTreeMap<(i32, i32, i32), Acc> = BTreeMap::new();
        let colored = !self.colors.is_empty();
        for (i, &p) in self.points.iter().enumerate() {
            let key = (
                (p.x * inv).floor() as i32,
                (p.y * inv).floor() as i32,
                (p.z * inv).floor() as i32,
            );
            let acc = cells.entry(key).or_default();
            acc.pos += p;
            if colored {
                acc.col += self.colors[i];
            }
            acc.n += 1;
        }
        let mut out = PointCloud::new();
        for (_, acc) in cells {
            let n = acc.n as f32;
            out.points.push(acc.pos / n);
            if colored {
                out.colors.push(acc.col / n);
            }
        }
        out
    }

    /// Centroid of the cloud (`Vec3::ZERO` when empty).
    pub fn centroid(&self) -> Vec3 {
        if self.points.is_empty() {
            return Vec3::ZERO;
        }
        let mut c = Vec3::ZERO;
        for &p in &self.points {
            c += p;
        }
        c / self.points.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = Pcg32::new(seed);
        let points = (0..n)
            .map(|_| Vec3::new(rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0)))
            .collect();
        PointCloud::from_points(points)
    }

    #[test]
    fn downsample_reduces_and_bounds_preserved() {
        let pc = random_cloud(10_000, 3);
        let ds = pc.voxel_downsample(0.25);
        assert!(ds.len() < pc.len());
        assert!(ds.len() > 100);
        let b = pc.bounds().expanded(0.01);
        for &p in &ds.points {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn downsample_deterministic() {
        let pc = random_cloud(5_000, 4);
        let a = pc.voxel_downsample(0.2);
        let b = pc.voxel_downsample(0.2);
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn downsample_single_cell_averages() {
        let pc = PointCloud::from_points(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(0.2, 0.2, 0.2),
            Vec3::new(0.3, 0.3, 0.3),
        ]);
        let ds = pc.voxel_downsample(10.0);
        assert_eq!(ds.len(), 1);
        assert!((ds.points[0] - Vec3::splat(0.2)).length() < 1e-6);
    }

    #[test]
    fn raw_size_accounts_colors() {
        let mut pc = random_cloud(100, 5);
        assert_eq!(pc.raw_size_bytes(), 16 + 1200);
        pc.colors = vec![Vec3::ONE; 100];
        assert_eq!(pc.raw_size_bytes(), 16 + 1200 + 300);
    }

    #[test]
    fn append_merges_colors() {
        let mut a = random_cloud(10, 6);
        let mut b = random_cloud(5, 7);
        b.colors = vec![Vec3::X; 5];
        a.append(&b);
        assert_eq!(a.len(), 15);
        assert_eq!(a.colors.len(), 15);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn centroid_of_symmetric_cloud() {
        let pc = PointCloud::from_points(vec![Vec3::new(-1.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0)]);
        assert_eq!(pc.centroid(), Vec3::ZERO);
        assert_eq!(PointCloud::new().centroid(), Vec3::ZERO);
    }

    #[test]
    fn validate_rejects_mismatched_colors() {
        let mut pc = random_cloud(10, 8);
        pc.colors = vec![Vec3::ONE; 3];
        assert!(pc.validate().is_err());
    }
}
