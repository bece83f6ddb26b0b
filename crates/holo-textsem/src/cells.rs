//! Cell partitions and per-cell geometric features.

use holo_math::{Aabb, Vec3};
use std::collections::BTreeMap;

/// Dimensionality of a cell feature vector.
pub const FEATURE_DIM: usize = 7;

/// Per-cell geometric summary: normalized point count, centroid offset
/// from the cell center (in cell units), and per-axis extent (in cell
/// units). This is what the captioner quantizes into a token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFeature(pub [f32; FEATURE_DIM]);

/// A uniform grid partition over a fixed body-volume bounding box.
#[derive(Debug, Clone)]
pub struct CellPartition {
    /// Partitioned region.
    pub bounds: Aabb,
    /// Cells per axis.
    pub dims: u32,
}

impl CellPartition {
    /// Create a partition with `dims` cells per axis over `bounds`.
    pub fn new(bounds: Aabb, dims: u32) -> Self {
        Self { bounds, dims: dims.max(1) }
    }

    /// The standard capture volume: a 2 m cube around a standing person.
    pub fn body_volume(dims: u32) -> Self {
        Self::new(
            Aabb::new(Vec3::new(-1.0, 0.0, -1.0), Vec3::new(1.0, 2.0, 1.0)),
            dims,
        )
    }

    /// Cell side lengths.
    pub fn cell_size(&self) -> Vec3 {
        self.bounds.size() / self.dims as f32
    }

    /// Linear index of the cell containing `p`, or `None` outside bounds.
    pub fn cell_of(&self, p: Vec3) -> Option<u32> {
        if !self.bounds.contains(p) {
            return None;
        }
        let rel = p - self.bounds.min;
        let s = self.cell_size();
        let f = |r: f32, s: f32| ((r / s.max(1e-9)) as u32).min(self.dims - 1);
        let (x, y, z) = (f(rel.x, s.x), f(rel.y, s.y), f(rel.z, s.z));
        Some((z * self.dims + y) * self.dims + x)
    }

    /// World-space center of a cell.
    pub fn cell_center(&self, idx: u32) -> Vec3 {
        let d = self.dims;
        let x = idx % d;
        let y = (idx / d) % d;
        let z = idx / (d * d);
        let s = self.cell_size();
        self.bounds.min
            + Vec3::new((x as f32 + 0.5) * s.x, (y as f32 + 0.5) * s.y, (z as f32 + 0.5) * s.z)
    }

    /// Compute features for every occupied cell, sorted by cell index
    /// (deterministic order).
    pub fn features(&self, points: &[Vec3]) -> Vec<(u32, CellFeature)> {
        #[derive(Default)]
        struct Acc {
            n: u32,
            sum: Vec3,
            min: Vec3,
            max: Vec3,
        }
        // BTreeMap: iteration is already in cell-index order, so the
        // output is canonical by construction, not by a trailing sort.
        let mut cells: BTreeMap<u32, Acc> = BTreeMap::new();
        for &p in points {
            if let Some(idx) = self.cell_of(p) {
                let acc = cells.entry(idx).or_insert(Acc {
                    n: 0,
                    sum: Vec3::ZERO,
                    min: Vec3::splat(f32::INFINITY),
                    max: Vec3::splat(f32::NEG_INFINITY),
                });
                acc.n += 1;
                acc.sum += p;
                acc.min = acc.min.min(p);
                acc.max = acc.max.max(p);
            }
        }
        let s = self.cell_size();
        cells
            .into_iter()
            .map(|(idx, acc)| {
                let center = self.cell_center(idx);
                let centroid = acc.sum / acc.n as f32;
                let off = centroid - center;
                let ext = acc.max - acc.min;
                // Density saturates at ~64 points per cell.
                let density = (acc.n as f32 / 64.0).min(1.0);
                let f = CellFeature([
                    density,
                    (off.x / s.x).clamp(-0.5, 0.5),
                    (off.y / s.y).clamp(-0.5, 0.5),
                    (off.z / s.z).clamp(-0.5, 0.5),
                    (ext.x / s.x).clamp(0.0, 1.0),
                    (ext.y / s.y).clamp(0.0, 1.0),
                    (ext.z / s.z).clamp(0.0, 1.0),
                ]);
                (idx, f)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;

    #[test]
    fn cell_of_and_center_consistent() {
        let part = CellPartition::body_volume(8);
        let mut rng = Pcg32::new(1);
        for _ in 0..500 {
            let p = Vec3::new(rng.range_f32(-0.99, 0.99), rng.range_f32(0.01, 1.99), rng.range_f32(-0.99, 0.99));
            let idx = part.cell_of(p).expect("inside");
            let c = part.cell_center(idx);
            assert_eq!(part.cell_of(c), Some(idx));
            let s = part.cell_size();
            assert!((p - c).abs().x <= s.x * 0.51);
        }
        assert!(part.cell_of(Vec3::new(5.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn features_deterministic_and_sorted() {
        let part = CellPartition::body_volume(8);
        let mut rng = Pcg32::new(2);
        let pts: Vec<Vec3> = (0..2000)
            .map(|_| Vec3::new(rng.range_f32(-0.5, 0.5), rng.range_f32(0.5, 1.5), rng.range_f32(-0.3, 0.3)))
            .collect();
        let a = part.features(&pts);
        let b = part.features(&pts);
        assert_eq!(a.len(), b.len());
        for ((ia, fa), (ib, fb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(fa.0, fb.0);
        }
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn feature_values_in_range() {
        let part = CellPartition::body_volume(6);
        let mut rng = Pcg32::new(3);
        let pts: Vec<Vec3> = (0..3000)
            .map(|_| Vec3::new(rng.range_f32(-1.0, 1.0), rng.range_f32(0.0, 2.0), rng.range_f32(-1.0, 1.0)))
            .collect();
        for (_, f) in part.features(&pts) {
            assert!((0.0..=1.0).contains(&f.0[0]));
            for k in 1..4 {
                assert!((-0.5..=0.5).contains(&f.0[k]), "offset {k}: {}", f.0[k]);
            }
            for k in 4..7 {
                assert!((0.0..=1.0).contains(&f.0[k]));
            }
        }
    }

    #[test]
    fn dense_cluster_small_extent() {
        let part = CellPartition::body_volume(4);
        // All points at nearly the same spot.
        let pts = vec![Vec3::new(0.1, 1.0, 0.1); 100];
        let feats = part.features(&pts);
        assert_eq!(feats.len(), 1);
        let f = feats[0].1;
        assert!(f.0[0] > 0.9, "density {}", f.0[0]);
        assert!(f.0[4] < 0.05 && f.0[5] < 0.05, "extent should be tiny");
    }
}
