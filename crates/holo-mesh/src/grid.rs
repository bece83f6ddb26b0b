//! Spatial hash grid for nearest-neighbor queries over point sets.
//!
//! The quality metrics (Chamfer, Hausdorff, F-score) need millions of
//! nearest-neighbor lookups per comparison; a uniform hash grid with
//! ring-expanding search keeps that linear in practice.

use holo_math::Vec3;
use std::collections::HashMap;

/// A uniform spatial hash over a fixed point set.
pub struct PointGrid {
    points: Vec<Vec3>,
    cell: f32,
    buckets: HashMap<(i32, i32, i32), Vec<u32>>,
}

impl PointGrid {
    /// Build a grid over `points` with the given cell size. A good cell
    /// size is the expected nearest-neighbor distance (e.g. mesh sampling
    /// density); [`PointGrid::auto`] estimates one from the bounding box.
    pub fn new(points: Vec<Vec3>, cell: f32) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        let mut buckets: HashMap<(i32, i32, i32), Vec<u32>> = HashMap::new();
        for (i, &p) in points.iter().enumerate() {
            buckets.entry(Self::key(p, cell)).or_default().push(i as u32);
        }
        Self { points, cell, buckets }
    }

    /// Build with a cell size chosen so the average bucket holds a few
    /// points. The cell is never smaller than 1/64 of the longest bounding
    /// side, which bounds the ring search even for degenerate (flat or
    /// collinear) point sets.
    pub fn auto(points: Vec<Vec3>) -> Self {
        if points.is_empty() {
            return Self::new(points, 1.0);
        }
        let bounds = holo_math::Aabb::from_points(&points);
        let n = points.len().max(1) as f32;
        let longest = bounds.longest_side().max(1e-4);
        let target = longest / n.cbrt().max(1.0) * 2.0;
        let cell = target.clamp(longest / 64.0, longest);
        Self::new(points, cell)
    }

    fn key(p: Vec3, cell: f32) -> (i32, i32, i32) {
        (
            (p.x / cell).floor() as i32,
            (p.y / cell).floor() as i32,
            (p.z / cell).floor() as i32,
        )
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Index and distance of the nearest indexed point to `q`, or `None`
    /// when the grid is empty. Exact: expands search rings until the best
    /// candidate provably beats any unexplored ring.
    pub fn nearest(&self, q: Vec3) -> Option<(u32, f32)> {
        if self.points.is_empty() {
            return None;
        }
        let (cx, cy, cz) = Self::key(q, self.cell);
        let mut best: Option<(u32, f32)> = None;
        // Beyond this ring every occupied cell has been visited, so fall
        // back to a brute-force scan (cheap: it can happen at most once,
        // for queries far outside the indexed bounds).
        let max_ring = 130;
        let mut ring = 0i32;
        loop {
            if ring > max_ring {
                for (i, p) in self.points.iter().enumerate() {
                    let d = p.distance_sq(q);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i as u32, d));
                    }
                }
                break;
            }
            // Scan the shell of cells at Chebyshev distance `ring`.
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    for dz in -ring..=ring {
                        if dx.abs().max(dy.abs()).max(dz.abs()) != ring {
                            continue;
                        }
                        if let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy, cz + dz)) {
                            for &i in bucket {
                                let d = self.points[i as usize].distance_sq(q);
                                if best.is_none_or(|(_, bd)| d < bd) {
                                    best = Some((i, d));
                                }
                            }
                        }
                    }
                }
            }
            if let Some((_, bd)) = best {
                // Any point in an unexplored ring is at least `ring * cell`
                // away (orthogonal distance to the shell boundary).
                let safe = ring as f32 * self.cell;
                if bd.sqrt() <= safe {
                    break;
                }
            }
            ring += 1;
        }
        best.map(|(i, d)| (i, d.sqrt()))
    }

    /// Distance from `q` to the nearest indexed point (`f32::INFINITY`
    /// when empty).
    pub fn nearest_distance(&self, q: Vec3) -> f32 {
        self.nearest(q).map_or(f32::INFINITY, |(_, d)| d)
    }

    /// All indexed points within `radius` of `q`.
    pub fn within(&self, q: Vec3, radius: f32) -> Vec<u32> {
        let mut out = Vec::new();
        let r_cells = (radius / self.cell).ceil() as i32;
        let (cx, cy, cz) = Self::key(q, self.cell);
        let r2 = radius * radius;
        for dx in -r_cells..=r_cells {
            for dy in -r_cells..=r_cells {
                for dz in -r_cells..=r_cells {
                    if let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy, cz + dz)) {
                        for &i in bucket {
                            if self.points[i as usize].distance_sq(q) <= r2 {
                                out.push(i);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = Pcg32::new(seed);
        (0..n)
            .map(|_| Vec3::new(rng.range_f32(-2.0, 2.0), rng.range_f32(-2.0, 2.0), rng.range_f32(-2.0, 2.0)))
            .collect()
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(2000, 1);
        let grid = PointGrid::auto(pts.clone());
        let queries = random_points(200, 2);
        for q in queries {
            let (gi, gd) = grid.nearest(q).unwrap();
            let (bi, bd) = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.distance(q)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!((gd - bd).abs() < 1e-5, "grid {gd} vs brute {bd}");
            // Index may differ on ties; distance must match.
            let _ = (gi, bi);
        }
    }

    #[test]
    fn empty_grid_returns_none() {
        let grid = PointGrid::new(Vec::new(), 1.0);
        assert!(grid.nearest(Vec3::ZERO).is_none());
        assert_eq!(grid.nearest_distance(Vec3::ZERO), f32::INFINITY);
    }

    #[test]
    fn within_radius_complete() {
        let pts = random_points(1000, 3);
        let grid = PointGrid::new(pts.clone(), 0.5);
        let q = Vec3::new(0.1, -0.2, 0.3);
        let r = 0.75;
        let mut found = grid.within(q, r);
        found.sort_unstable();
        let mut brute: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(q) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        brute.sort_unstable();
        assert_eq!(found, brute);
    }

    #[test]
    fn single_point() {
        let grid = PointGrid::new(vec![Vec3::new(5.0, 5.0, 5.0)], 0.1);
        let (i, d) = grid.nearest(Vec3::ZERO).unwrap();
        assert_eq!(i, 0);
        assert!((d - (75.0f32).sqrt()).abs() < 1e-4);
    }

    #[test]
    fn far_query_still_exact() {
        let pts = random_points(100, 4);
        let grid = PointGrid::new(pts.clone(), 0.25);
        let q = Vec3::splat(50.0);
        let (_, gd) = grid.nearest(q).unwrap();
        let bd = pts.iter().map(|p| p.distance(q)).fold(f32::INFINITY, f32::min);
        assert!((gd - bd).abs() < 1e-4);
    }
}
