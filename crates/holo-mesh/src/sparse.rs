//! Octree-accelerated isosurface extraction.
//!
//! A dense `R^3` grid at `R = 1024` means a billion field evaluations —
//! infeasible on a CPU and the reason the paper's Fig. 4 shows < 1 FPS
//! even on an A100. Since only `O(R^2)` cells intersect the surface, this
//! extractor recursively subdivides the domain and descends only into
//! nodes whose center distance cannot rule out a surface crossing, down
//! to 2×2×2 blocks of leaf cells, and polygonizes a block's cells with
//! the same tetrahedral split as the dense extractor. Output vertices are
//! welded on the *global* leaf lattice, so the result is identical in
//! structure to the dense extraction restricted to near-surface cells.
//!
//! Every sample goes through [`Sdf::distance_batch_in`], several points
//! under one scope: each node hands the scope its center evaluation
//! narrowed to its eight children's centers, asked in one batch, and a
//! block hands it to its uncached corners, asked in another. So a
//! composite field stops evaluating parts that cannot matter inside the
//! node — without changing one bit of any value — can evaluate its parts
//! at several points per instruction, and can say that its value stays
//! clear of the isovalue throughout the node, which drops it. A node's
//! center is itself a lattice site, and no site is sampled twice
//! (DESIGN.md §15).

use crate::lattice::corner_key;
use crate::marching::{ExtractionStats, MarchingConfig, MeshBuilder, CUBE_CORNERS};
use crate::sdf::{Sdf, SdfScope};
use crate::trimesh::TriMesh;
use holo_math::Vec3;

/// Extract the isosurface of `sdf`, visiting only near-surface cells.
///
/// `resolution` is rounded up to the next power of two (the octree leaf
/// count per axis). A node is dropped when its center value `d` has
/// `|d - iso| > half_diagonal + safety`: `safety` is how far the field
/// may *overstate* distance — an underestimate never prunes, and a smooth
/// blend of exact parts, being 1-Lipschitz, needs none. Budget for what
/// is not: a bound like the ellipsoid's, displacement added on top. The
/// interval a field proves for itself through [`SdfScope`] is intersected
/// with this band, so a field that knows better prunes more and the mesh
/// does not move; `f32::INFINITY` leaves the field's interval as the
/// only rule — correct, but the far field proves nothing over a large
/// ball, so it is no replacement for the band.
pub fn sparse_extract<S: Sdf + ?Sized>(sdf: &S, resolution: u32, safety: f32) -> TriMesh {
    sparse_extract_with_stats(sdf, resolution, safety).0
}

/// Like [`sparse_extract`], additionally returning workload counters.
pub fn sparse_extract_with_stats<S: Sdf + ?Sized>(
    sdf: &S,
    resolution: u32,
    safety: f32,
) -> (TriMesh, ExtractionStats) {
    Extractor::default().extract(sdf, resolution, safety)
}

/// What an extraction works in: the mesh builder's lattice, which holds
/// the corner values and welds the vertices, and its staging buffers.
/// Each extraction empties them and keeps their memory, so a caller that
/// extracts frame after frame through one `Extractor` allocates, once the
/// buffers have grown, only each output mesh (DESIGN.md §15, "The
/// extractor's scratch"). What an extraction returns does not depend on
/// what the scratch held before.
#[derive(Default)]
pub struct Extractor {
    builder: MeshBuilder,
}

impl Extractor {
    /// [`sparse_extract_with_stats`], in this scratch.
    pub fn extract<S: Sdf + ?Sized>(&mut self, sdf: &S, resolution: u32, safety: f32) -> (TriMesh, ExtractionStats) {
        let (mut octree, res) = Octree::new(sdf, resolution, safety, self);
        let mut root = [(0.0, SdfScope::ALL)];
        let center = octree.site(res / 2, res / 2, res / 2);
        octree.sample(&[center], SdfScope::ALL, octree.half_diag(res), &mut root);
        octree.descend(res, 0, 0, 0, root[0]);
        octree.builder.finish()
    }
}

/// Recursive descent over octree nodes. A node spans `span` leaf cells
/// per axis — a power of two, at least 2 — starting at integer leaf
/// coordinate `(x, y, z)`.
struct Octree<'a, S: ?Sized> {
    sdf: &'a S,
    origin: Vec3,
    cell: f32,
    iso: f32,
    safety: f32,
    /// The mesh being built. Its lattice holds the leaf-lattice site
    /// values, shared across the up-to-8 blocks that touch each site.
    builder: &'a mut MeshBuilder,
}

impl<'a, S: Sdf + ?Sized> Octree<'a, S> {
    /// The tree over `sdf`'s bounds in `scratch`, emptied, and its root's span.
    fn new(sdf: &'a S, resolution: u32, safety: f32, scratch: &'a mut Extractor) -> (Self, u32) {
        let res = resolution.max(2).next_power_of_two();
        let cfg = MarchingConfig::for_sdf(sdf, res);
        let (origin, cell, iso) = (cfg.bounds.min, cfg.cell_size(), cfg.iso);
        let builder = &mut scratch.builder;
        builder.clear();
        (Self { sdf, origin, cell, iso, safety, builder }, res)
    }

    /// Position of the leaf-lattice site `(x, y, z)`.
    fn site(&self, x: u32, y: u32, z: u32) -> Vec3 {
        self.origin + Vec3::new(x as f32, y as f32, z as f32) * self.cell
    }

    /// Half the diagonal of a node of `span` cells: the radius of the
    /// ball around its center that holds it.
    fn half_diag(&self, span: u32) -> f32 {
        span as f32 * self.cell * 0.5 * 1.732_051
    }

    /// Field evaluations at `ps`: `distance` at each, and `scope`
    /// narrowed to the ball of `radius` around each.
    fn sample(&mut self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        self.sdf.distance_batch_in(ps, scope, radius, out);
        // Narrowing is exact, not approximate: every extraction in a
        // debug build checks it on every value it samples.
        for (p, (v, _)) in ps.iter().zip(out.iter()) {
            debug_assert_eq!(v.to_bits(), self.sdf.distance(*p).to_bits(), "scoped distance at {p:?}");
        }
        self.builder.stats.field_evals += ps.len() as u64;
    }

    /// Visit one node, given its center's sample: the value there, and
    /// the scope narrowed to the node's bounding ball.
    fn descend(&mut self, span: u32, x: u32, y: u32, z: u32, (d, scope): (f32, SdfScope)) {
        let half_diag = self.half_diag(span);
        // The caller's assumed band, intersected with the field's proven one.
        if (d - self.iso).abs() > half_diag + self.safety || scope.excludes(self.iso) {
            return; // no surface can cross this node
        }
        if span == 2 {
            return self.block(x, y, z, d, scope);
        }
        // `half` and `quarter` are whole numbers of cells: the centers
        // are lattice sites, the node's on the children's shared corner,
        // and each child's strictly inside it, so nothing has sampled
        // those yet. Eight blocks below have the node's as a corner.
        let (half, quarter) = (span / 2, span / 4);
        self.builder.lattice.insert(corner_key(x + half, y + half, z + half), d);
        // `CUBE_CORNERS` runs x fastest, z slowest: the child order.
        let child = CUBE_CORNERS.map(|(dx, dy, dz)| (x + dx * half, y + dy * half, z + dz * half));
        let centers = child.map(|(cx, cy, cz)| self.site(cx + quarter, cy + quarter, cz + quarter));
        // Children's centers and block corners all lie within `half_diag`
        // of the center, so the narrowed scope holds for everything below.
        let mut samples = [(0.0, scope); 8];
        self.sample(&centers, scope, self.half_diag(half), &mut samples);
        for ((cx, cy, cz), sample) in child.into_iter().zip(samples) {
            self.descend(half, cx, cy, cz, sample);
        }
    }

    /// Polygonize the 2×2×2 leaf cells at `(x, y, z)`: resolve the block's
    /// 27 lattice sites to their slots once — the middle one is the node
    /// center, with value `center`, and the others another block sampled
    /// hold their values — sample the rest in one batch under the block's
    /// `scope`, then run the eight cubes, in child order, from the
    /// gathered arrays; their edges are welded through the slots.
    fn block(&mut self, x: u32, y: u32, z: u32, center: f32, scope: SdfScope) {
        let mut slots = [0usize; 27];
        let mut pos = [Vec3::ZERO; 27];
        let mut val = [0f32; 27];
        let (mut missing, mut missing_at, mut n) = ([Vec3::ZERO; 26], [0usize; 26], 0);
        for i in 0..27 {
            let (sx, sy, sz) = (x + i as u32 % 3, y + i as u32 / 3 % 3, z + i as u32 / 9);
            slots[i] = self.builder.lattice.slot(corner_key(sx, sy, sz));
            pos[i] = self.site(sx, sy, sz);
            if i == 13 {
                val[i] = center;
            } else if let Some(v) = self.builder.lattice.value(slots[i]) {
                val[i] = v;
            } else {
                (missing[n], missing_at[n]) = (pos[i], i);
                n += 1;
            }
        }
        let mut samples = [(0.0, scope); 26];
        self.sample(&missing[..n], scope, 0.0, &mut samples[..n]);
        for (&i, &(v, _)) in missing_at[..n].iter().zip(&samples[..n]) {
            val[i] = v;
            self.builder.lattice.set_value(slots[i], v);
        }
        for &(ox, oy, oz) in &CUBE_CORNERS {
            self.builder.stats.cubes_visited += 1;
            let at = CUBE_CORNERS.map(|(dx, dy, dz)| ((ox + dx) + 3 * (oy + dy) + 9 * (oz + dz)) as usize);
            let cube = at.map(|i| val[i]);
            if cube.iter().all(|&v| v >= self.iso) || cube.iter().all(|&v| v < self.iso) {
                continue;
            }
            self.builder.do_cube(&at.map(|i| slots[i]), &at.map(|i| pos[i]), &cube, self.iso);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marching::tests::marching_tetrahedra;
    use crate::sdf::tests::{random_parts, union_of};
    use crate::sdf::{GriddedUnion, Primitive, SdfSphere, SdfUnion};
    use holo_math::{Aabb, Pcg32};
    use holo_runtime::check::any;
    use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};

    /// The reference the block descent is held to: the per-leaf descent
    /// it replaced. Every node down to the single leaf cell samples its
    /// own center (leaf centers are not lattice sites, and node centers
    /// are not shared with the corners), and a surviving leaf samples its
    /// eight corners under its own scope.
    impl<S: Sdf + ?Sized> Octree<'_, S> {
        fn descend_per_leaf(&mut self, span: u32, x: u32, y: u32, z: u32, scope: SdfScope) {
            let side = span as f32 * self.cell;
            let center = self.origin
                + Vec3::new(
                    (x as f32 + span as f32 * 0.5) * self.cell,
                    (y as f32 + span as f32 * 0.5) * self.cell,
                    (z as f32 + span as f32 * 0.5) * self.cell,
                );
            let half_diag = side * 0.5 * 1.732_051;
            let (d, scope) = self.sdf.distance_in(center, scope, half_diag);
            self.builder.stats.field_evals += 1;
            if (d - self.iso).abs() > half_diag + self.safety {
                return;
            }
            if span == 1 {
                self.builder.stats.cubes_visited += 1;
                let mut slots = [0usize; 8];
                let mut pos = [Vec3::ZERO; 8];
                let mut val = [0f32; 8];
                for (ci, &(dx, dy, dz)) in CUBE_CORNERS.iter().enumerate() {
                    let (cx, cy, cz) = (x + dx, y + dy, z + dz);
                    slots[ci] = self.builder.lattice.slot(corner_key(cx, cy, cz));
                    pos[ci] = self.origin + Vec3::new(cx as f32, cy as f32, cz as f32) * self.cell;
                    val[ci] = match self.builder.lattice.value(slots[ci]) {
                        Some(v) => v,
                        None => {
                            let v = self.sdf.distance_in(pos[ci], scope, 0.0).0;
                            self.builder.stats.field_evals += 1;
                            self.builder.lattice.set_value(slots[ci], v);
                            v
                        }
                    };
                }
                if val.iter().all(|&v| v >= self.iso) || val.iter().all(|&v| v < self.iso) {
                    return;
                }
                self.builder.do_cube(&slots, &pos, &val, self.iso);
                return;
            }
            let half = span / 2;
            for dz in 0..2u32 {
                for dy in 0..2u32 {
                    for dx in 0..2u32 {
                        self.descend_per_leaf(half, x + dx * half, y + dy * half, z + dz * half, scope);
                    }
                }
            }
        }
    }

    fn per_leaf_extract<S: Sdf + ?Sized>(sdf: &S, resolution: u32, safety: f32) -> (TriMesh, ExtractionStats) {
        let mut scratch = Extractor::default();
        let (mut octree, res) = Octree::new(sdf, resolution, safety, &mut scratch);
        octree.descend_per_leaf(res, 0, 0, 0, SdfScope::ALL);
        octree.builder.finish()
    }

    fn bits(v: &[Vec3]) -> Vec<[u32; 3]> {
        v.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
    }

    /// Up to 12 primitives of all four kinds under a random blend, listing
    /// margin and grid.
    fn random_union(rng: &mut Pcg32) -> GriddedUnion {
        union_of(random_parts(rng), rng)
    }

    /// A field seen only through `distance` and `bounds`: it proves nothing.
    struct Opaque<'a>(&'a GriddedUnion);

    impl Sdf for Opaque<'_> {
        fn distance(&self, p: Vec3) -> f32 {
            self.0.distance(p)
        }
        fn bounds(&self) -> Aabb {
            self.0.bounds()
        }
    }

    holo_prop! {
        #![cases(256)]

        /// Where the per-leaf descent lost no crossing cell, the two
        /// meshes are the same bits. It prunes each leaf on its center
        /// sample, so it loses cells when a field overstates distance by
        /// more than `safety` — the ellipsoid's bound does, in about one
        /// of these cases in eight (most at 0 and 0.01, a few at 0.05),
        /// and there the block descent, which examines all eight cells
        /// of a block, finds more. A union of exact parts is 1-Lipschitz
        /// and neither descent loses anything.
        fn blocks_extract_the_mesh_of_the_per_leaf_descent(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let union = random_union(&mut rng);
            let resolution = 2 + rng.next_u32() % 63;
            let safety = [0.0, 0.01, 0.05][rng.next_u32() as usize % 3];
            let (mesh, stats) = sparse_extract_with_stats(&union, resolution, safety);
            let (want, want_stats) = per_leaf_extract(&union, resolution, safety);
            if union.parts().iter().any(|p| matches!(p, Primitive::Ellipsoid(_))) {
                prop_assert!(mesh.faces.len() >= want.faces.len(), "{} faces, per leaf {}", mesh.faces.len(), want.faces.len());
            } else {
                prop_assert_eq!(mesh.faces.len(), want.faces.len());
            }
            if mesh.faces.len() == want.faces.len() {
                prop_assert_eq!(&mesh.faces, &want.faces);
                prop_assert_eq!(bits(&mesh.vertices), bits(&want.vertices));
                prop_assert_eq!(bits(&mesh.normals), bits(&want.normals));
                prop_assert_eq!(stats.triangles_emitted, want_stats.triangles_emitted);
            }
            // Fewer samples is a fact about surfaces, not a law of the
            // descent: a block that survives alone costs 26 corners where
            // its leaves cost 8 centers and few corners. In 50 000 such
            // cases that outweighed the rest 70 times, never above 16.
            if resolution > 16 {
                prop_assert!(stats.field_evals <= want_stats.field_evals, "{} samples, per leaf {}", stats.field_evals, want_stats.field_evals);
            }
        }
    }

    holo_prop! {
        #![cases(256)]

        /// The field's own interval, alone, against the descent that
        /// prunes nothing: an infinite `safety` switches the assumed
        /// band off, so the first descent drops a node only on what the
        /// union has proven, and the second, through a wrapper that
        /// hides `distance_in`, examines every cube of the lattice.
        /// Ellipsoids come from both sides of `r_max = sqrt(2) r_min`,
        /// where the lower bound is and is not reported. (Measured on
        /// these cases: the interval leaves 52 % of the cubes, and prunes
        /// something in every case on a 64-cell lattice, in 212 of 256
        /// overall. That it prunes at all is held where it matters, by
        /// the counters `tests/scoped_distance.rs` and the golden pin.)
        fn the_fields_interval_alone_drops_no_crossing_cube(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let mut parts = random_parts(&mut rng);
            for part in &mut parts {
                if let Primitive::Ellipsoid(e) = part {
                    let ratio = [1.0, 1.2, 1.41, 3.0][rng.next_u32() as usize % 4];
                    e.radii = Vec3::new(e.radii.x, e.radii.x * ratio, e.radii.x * rng.range_f32(1.0, ratio));
                }
            }
            let union = union_of(parts, &mut rng);
            let resolution = 8 + rng.next_u32() % 41;
            let (mesh, stats) = sparse_extract_with_stats(&union, resolution, f32::INFINITY);
            let (want, want_stats) = sparse_extract_with_stats(&Opaque(&union), resolution, f32::INFINITY);
            let cubes = u64::from(resolution.next_power_of_two()).pow(3);
            prop_assert_eq!(want_stats.cubes_visited, cubes);
            prop_assert!(stats.cubes_visited <= cubes);
            prop_assert_eq!(&mesh.faces, &want.faces);
            prop_assert_eq!(bits(&mesh.vertices), bits(&want.vertices));
            prop_assert_eq!(bits(&mesh.normals), bits(&want.normals));
            prop_assert_eq!(stats.triangles_emitted, want_stats.triangles_emitted);
        }
    }

    holo_prop! {
        #![cases(256)]

        /// The normals summed as faces are emitted are, bit for bit, the
        /// ones a second pass over the finished faces computes: each face
        /// adds the cross product of its vertices as stored, a flipped
        /// face the exact negation of its unflipped one.
        fn emitted_normals_are_the_second_pass_normals(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let union = random_union(&mut rng);
            let resolution = 2 + rng.next_u32() % 63;
            let safety = [0.0, 0.01, 0.05][rng.next_u32() as usize % 3];
            let mesh = sparse_extract(&union, resolution, safety);
            let mut want = TriMesh { vertices: mesh.vertices.clone(), faces: mesh.faces.clone(), ..TriMesh::default() };
            want.compute_normals();
            prop_assert_eq!(bits(&mesh.normals), bits(&want.normals));
        }
    }

    /// The root, or its children, are the terminal block.
    #[test]
    fn the_smallest_trees_are_closed_and_dense_complete() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        for resolution in [2, 3, 4, 5] {
            let mesh = sparse_extract(&s, resolution, 0.0);
            assert!(mesh.is_closed(), "res {resolution}");
            assert_eq!(mesh.euler_characteristic(), 2, "res {resolution}");
            let res = resolution.next_power_of_two();
            assert_eq!(mesh.face_count(), marching_tetrahedra(&s, &MarchingConfig::for_sdf(&s, res)).face_count());
        }
    }

    #[test]
    fn a_field_the_root_prunes_costs_one_sample() {
        struct Nowhere;
        impl Sdf for Nowhere {
            fn distance(&self, _: Vec3) -> f32 {
                100.0
            }
            fn bounds(&self) -> Aabb {
                Aabb::new(Vec3::ZERO, Vec3::ONE)
            }
        }
        let (mesh, stats) = sparse_extract_with_stats(&Nowhere, 64, 0.05);
        assert!(mesh.vertices.is_empty() && mesh.faces.is_empty());
        assert_eq!((stats.field_evals, stats.cubes_visited), (1, 0));
    }

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
