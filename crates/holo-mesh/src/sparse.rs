//! Octree-accelerated isosurface extraction.
//!
//! A dense `R^3` grid at `R = 1024` means a billion field evaluations —
//! infeasible on a CPU and the reason the paper's Fig. 4 shows < 1 FPS
//! even on an A100. Since only `O(R^2)` cells intersect the surface, this
//! extractor recursively subdivides the domain and descends only into
//! cells whose center distance cannot rule out a surface crossing, then
//! polygonizes leaf cells with the same tetrahedral split as the dense
//! extractor. Output vertices are welded on the *global* leaf lattice, so
//! the result is identical in structure to the dense extraction restricted
//! to near-surface cells.
//!
//! Every sample goes through [`Sdf::distance_in`]: each node hands the
//! scope its center evaluation narrowed to its children and leaf corners,
//! so a composite field stops evaluating parts that cannot matter inside
//! the node — without changing one bit of any value (DESIGN.md §15).

use crate::lattice::{corner_key, LatticeMap};
use crate::marching::{ExtractionStats, MarchingConfig, MeshBuilder, CUBE_CORNERS};
use crate::sdf::{Sdf, SdfScope};
use crate::trimesh::TriMesh;
use holo_math::Vec3;

/// Extract the isosurface of `sdf`, visiting only near-surface cells.
///
/// `resolution` is rounded up to the next power of two (the octree leaf
/// count per axis). `safety` widens the pruning band; use at least the
/// smooth-union blend radius of the field, since blended fields
/// underestimate distance near creases. The default config helper uses
/// `cell diagonal * 1.0 + safety`.
pub fn sparse_extract<S: Sdf + ?Sized>(sdf: &S, resolution: u32, safety: f32) -> TriMesh {
    sparse_extract_with_stats(sdf, resolution, safety).0
}

/// Like [`sparse_extract`], additionally returning workload counters.
pub fn sparse_extract_with_stats<S: Sdf + ?Sized>(
    sdf: &S,
    resolution: u32,
    safety: f32,
) -> (TriMesh, ExtractionStats) {
    let res = resolution.max(2).next_power_of_two();
    let cfg = MarchingConfig::for_sdf(sdf, res);
    let mut octree = Octree {
        sdf,
        origin: cfg.bounds.min,
        cell: cfg.cell_size(),
        levels: res.trailing_zeros(), // res = 2^levels
        iso: cfg.iso,
        safety,
        corners: LatticeMap::new(),
        builder: MeshBuilder::new(),
    };
    octree.descend(0, 0, 0, 0, SdfScope::ALL);
    octree.builder.finish()
}

/// Recursive descent over octree nodes. A node at `level` spans
/// `2^(levels-level)` leaf cells per axis starting at integer leaf
/// coordinate `(x, y, z)`.
struct Octree<'a, S: ?Sized> {
    sdf: &'a S,
    origin: Vec3,
    cell: f32,
    levels: u32,
    iso: f32,
    safety: f32,
    /// Leaf-lattice corner values (as `f32` bits), shared across the
    /// up-to-8 leaf cells that touch each corner.
    corners: LatticeMap,
    builder: MeshBuilder,
}

impl<S: Sdf + ?Sized> Octree<'_, S> {
    /// Field value at a leaf-lattice corner; `scope` is the leaf's.
    fn corner_value(&mut self, key: u64, p: Vec3, scope: SdfScope) -> f32 {
        if let Some(bits) = self.corners.get(key) {
            return f32::from_bits(bits);
        }
        let v = self.sdf.distance_in(p, scope, 0.0).0;
        // Narrowing is exact, not approximate: every extraction in a
        // debug build checks it on every corner it samples.
        debug_assert_eq!(v.to_bits(), self.sdf.distance(p).to_bits(), "scoped distance at {p:?}");
        self.builder.stats.field_evals += 1;
        self.corners.insert(key, v.to_bits());
        v
    }

    /// Visit one node. `scope` is valid throughout the parent's bounding
    /// ball, which contains this node's.
    fn descend(&mut self, level: u32, x: u32, y: u32, z: u32, scope: SdfScope) {
        let span = 1u32 << (self.levels - level); // leaf cells per axis
        let side = span as f32 * self.cell;
        let center = self.origin
            + Vec3::new(
                (x as f32 + span as f32 * 0.5) * self.cell,
                (y as f32 + span as f32 * 0.5) * self.cell,
                (z as f32 + span as f32 * 0.5) * self.cell,
            );
        let half_diag = side * 0.5 * 1.732_051;
        // Children's centers and leaf corners all lie within `half_diag`
        // of `center`, so the narrowed scope holds for everything below.
        let (d, scope) = self.sdf.distance_in(center, scope, half_diag);
        self.builder.stats.field_evals += 1;
        if (d - self.iso).abs() > half_diag + self.safety {
            return; // no surface can cross this node
        }
        if level == self.levels {
            // Leaf: polygonize this single cell.
            self.builder.stats.cubes_visited += 1;
            let mut keys = [0u64; 8];
            let mut pos = [Vec3::ZERO; 8];
            let mut val = [0f32; 8];
            for (ci, &(dx, dy, dz)) in CUBE_CORNERS.iter().enumerate() {
                let (cx, cy, cz) = (x + dx, y + dy, z + dz);
                keys[ci] = corner_key(cx, cy, cz);
                pos[ci] = self.origin + Vec3::new(cx as f32, cy as f32, cz as f32) * self.cell;
                val[ci] = self.corner_value(keys[ci], pos[ci], scope);
            }
            if val.iter().all(|&v| v >= self.iso) || val.iter().all(|&v| v < self.iso) {
                return;
            }
            self.builder.do_cube(&keys, &pos, &val, self.iso);
            return;
        }
        let half = span / 2;
        for dz in 0..2u32 {
            for dy in 0..2u32 {
                for dx in 0..2u32 {
                    self.descend(level + 1, x + dx * half, y + dy * half, z + dz * half, scope);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marching::marching_tetrahedra;
    use crate::sdf::{SdfSphere, SdfUnion};
    use holo_math::Aabb;

    #[test]
    fn matches_dense_extraction_area() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let res = 32;
        let dense = marching_tetrahedra(&s, &MarchingConfig::for_sdf(&s, res));
        let sparse = sparse_extract(&s, res, 0.0);
        let rel = (dense.surface_area() - sparse.surface_area()).abs() / dense.surface_area();
        assert!(rel < 0.01, "area mismatch {rel}");
        assert_eq!(dense.face_count(), sparse.face_count());
    }

    #[test]
    fn sparse_is_watertight() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 0.7 };
        let mesh = sparse_extract(&s, 64, 0.0);
        assert!(mesh.is_closed());
        assert_eq!(mesh.euler_characteristic(), 2);
    }

    #[test]
    fn evaluation_count_subquadratic_in_volume() {
        // The advantage grows with resolution (O(R^2) vs O(R^3)); at 128
        // the sparse extractor must already be several times cheaper.
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let (_, stats) = sparse_extract_with_stats(&s, 128, 0.0);
        let dense_evals = 129u64.pow(3);
        assert!(
            stats.field_evals < dense_evals / 5,
            "sparse used {} evals vs dense {}",
            stats.field_evals,
            dense_evals
        );
    }

    #[test]
    fn eval_count_scales_like_surface() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let (_, a) = sparse_extract_with_stats(&s, 32, 0.0);
        let (_, b) = sparse_extract_with_stats(&s, 64, 0.0);
        let ratio = b.field_evals as f64 / a.field_evals as f64;
        // Surface cells scale ~4x per resolution doubling (plus tree
        // overhead); must be far below the 8x of dense scaling.
        assert!((2.5..7.0).contains(&ratio), "eval scaling ratio {ratio}");
    }

    #[test]
    fn smooth_union_needs_safety_margin() {
        let mut u = SdfUnion::new(0.1);
        u.push(Box::new(SdfSphere { center: Vec3::new(-0.4, 0.0, 0.0), radius: 0.5 }));
        u.push(Box::new(SdfSphere { center: Vec3::new(0.4, 0.0, 0.0), radius: 0.5 }));
        let mesh = sparse_extract(&u, 64, 0.1);
        assert!(mesh.is_closed());
        // Blended pair of spheres is still genus 0.
        assert_eq!(mesh.euler_characteristic(), 2);
    }

    #[test]
    fn handles_offset_bounds() {
        let s = SdfSphere { center: Vec3::new(3.0, -2.0, 5.0), radius: 0.6 };
        let mesh = sparse_extract(&s, 32, 0.0);
        assert!(mesh.is_closed());
        let b = mesh.bounds();
        assert!(Aabb::new(Vec3::new(2.3, -2.7, 4.3), Vec3::new(3.7, -1.3, 5.7)).expanded(0.1).contains(b.center()));
    }
}
