//! Isosurface extraction by marching tetrahedra: the grid, the
//! tetrahedral split of a cube and the mesh builder.
//!
//! X-Avatar extracts meshes from its implicit geometry network with
//! marching cubes at a configurable voxel resolution (128–1024 in the
//! paper's Figs. 2 and 4). We use marching *tetrahedra* — each grid cube is
//! split into six tetrahedra sharing the cube's main diagonal — which has
//! identical asymptotics and resolution-scaling behaviour but requires no
//! large case tables and is straightforward to verify (it produces closed,
//! consistent surfaces by construction). The substitution is documented in
//! DESIGN.md; it yields roughly 2x the triangles of classic MC for the
//! same grid.
//!
//! [`crate::sparse::sparse_extract`] polygonizes on an octree that skips
//! empty space. The dense extractor in this module's tests, which samples
//! the full `(R+1)^3` lattice two z-slices at a time, is its referee.

use crate::lattice::{Lattice, VACANT};
use crate::sdf::Sdf;
use crate::trimesh::TriMesh;
use holo_math::{Aabb, Vec3};

/// Parameters for isosurface extraction.
#[derive(Debug, Clone)]
pub struct MarchingConfig {
    /// Number of cubes along the longest axis of `bounds`.
    pub resolution: u32,
    /// Region to polygonize. The grid is cubical with side
    /// `bounds.longest_side()` anchored at `bounds.min`.
    pub bounds: Aabb,
    /// Isovalue (0 for a standard SDF surface).
    pub iso: f32,
}

impl MarchingConfig {
    /// Config covering an SDF's bounds (slightly padded) at `resolution`.
    pub fn for_sdf<S: Sdf + ?Sized>(sdf: &S, resolution: u32) -> Self {
        let b = sdf.bounds();
        let pad = b.longest_side() * 0.02 + 1e-4;
        Self { resolution: resolution.max(2), bounds: b.expanded(pad), iso: 0.0 }
    }

    /// Side length of one grid cube.
    pub fn cell_size(&self) -> f32 {
        self.bounds.longest_side() / self.resolution as f32
    }
}

/// Counters describing the work an extraction performed; feeds the GPU
/// cost model that converts workload into modeled device time (Fig. 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtractionStats {
    /// Distinct positions sampled: neither extractor evaluates the field
    /// twice at one point.
    pub field_evals: u64,
    /// Leaf cubes whose eight corners were examined (dense: all; sparse:
    /// the eight of every 2×2×2 block that survived pruning, crossing or
    /// not).
    pub cubes_visited: u64,
    /// Triangles emitted; one that welding made degenerate is dropped
    /// uncounted.
    pub triangles_emitted: u64,
    /// Cubes polygonized: those whose corners straddle the isovalue.
    pub crossing_cubes: u64,
    /// Keyed calls into the lattice store, which holds the corner values
    /// and welds the vertices: everything after a key is found is indexed.
    pub lattice_lookups: u64,
}

/// Corner offsets of a unit cube; bit 0 = +x, bit 1 = +y, bit 2 = +z.
pub(crate) const CUBE_CORNERS: [(u32, u32, u32); 8] = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (1, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
];

/// Six tetrahedra sharing the main diagonal (corner 0 to corner 7). Every
/// cube uses the same split, which makes faces of adjacent cubes agree and
/// the output surface watertight.
pub(crate) const CUBE_TETS: [[usize; 4]; 6] = [
    [0, 5, 1, 7],
    [0, 1, 3, 7],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 6, 4, 7],
    [0, 4, 5, 7],
];

/// Incrementally builds a welded triangle mesh from per-edge surface
/// vertices, welded in its [`Lattice`]: each edge's vertex lives in the
/// record of its lower site. The lattice is also where the sparse
/// extractor keeps its corner values. The vertices, their normals' sums
/// and the faces are staged here and copied out by
/// [`MeshBuilder::finish`], so a builder that is cleared and reused keeps
/// the memory it grew.
#[derive(Default)]
pub(crate) struct MeshBuilder {
    vertices: Vec<Vec3>,
    /// Per vertex, the sum of its faces' cross products so far.
    normals: Vec<Vec3>,
    faces: Vec<[u32; 3]>,
    pub lattice: Lattice,
    pub stats: ExtractionStats,
}

impl MeshBuilder {
    /// Empty, with the memory the last mesh grew.
    pub fn clear(&mut self) {
        self.vertices.clear();
        self.normals.clear();
        self.faces.clear();
        self.lattice.clear();
        self.stats = ExtractionStats::default();
    }

    /// The welded surface vertex on edge `a`-`b` (corners of the cube),
    /// created on first use. One of the two corners holds a subset of the
    /// other's offset bits, so the edge is the lower one's site and the
    /// direction `a ^ b`.
    fn edge_vertex(&mut self, cube: &Cube, a: usize, b: usize) -> u32 {
        let lo = a & b;
        debug_assert!(lo == a || lo == b, "corners {a} and {b} span no edge of the split");
        let vertex = self.lattice.edge(cube.slots[lo], a ^ b);
        if *vertex == VACANT {
            let (va, vb) = (cube.val[a], cube.val[b]);
            let denom = vb - va;
            let t = if denom.abs() < 1e-12 { 0.5 } else { ((cube.iso - va) / denom).clamp(0.0, 1.0) };
            *vertex = self.vertices.len() as u32;
            self.vertices.push(cube.pos[a].lerp(cube.pos[b], t));
            self.normals.push(Vec3::ZERO);
        }
        *vertex
    }

    /// Emit a face, oriented away from `anchor`, and add its cross product
    /// to its vertices' normals: the same product `TriMesh::compute_normals`
    /// takes of the face as stored. A flipped face's product is the exact
    /// negation of the unflipped one (IEEE subtraction is sign-symmetric,
    /// and a sum begun at `+0` never holds `−0`), so each sum is, bit for
    /// bit, the one a second pass over the faces would make.
    fn push_triangle(&mut self, ia: u32, ib: u32, ic: u32, anchor: Vec3) {
        if ia == ib || ib == ic || ia == ic {
            return; // degenerate after welding
        }
        let a = self.vertices[ia as usize];
        let b = self.vertices[ib as usize];
        let c = self.vertices[ic as usize];
        let n = (b - a).cross(c - a);
        // Orient so the normal points from the inside anchor toward outside.
        let want = (a + b + c) / 3.0 - anchor;
        if n.dot(want) >= 0.0 {
            self.faces.push([ia, ib, ic]);
            for i in [ia, ib, ic] {
                self.normals[i as usize] += n;
            }
        } else {
            self.faces.push([ia, ic, ib]);
            for i in [ia, ic, ib] {
                self.normals[i as usize] -= n;
            }
        }
        self.stats.triangles_emitted += 1;
    }

    /// Polygonize one tetrahedron of `cube`, with corners `tet`.
    fn do_tet(&mut self, cube: &Cube, tet: &[usize; 4]) {
        // Corners: the inside ones in `tet`'s order, then the outside
        // ones in `tet`'s order.
        let mut order = [0usize; 4];
        let mut inside = 0;
        let mut n = 0;
        for want_inside in [true, false] {
            for &c in tet {
                if (cube.val[c] < cube.iso) == want_inside {
                    order[n] = c;
                    n += 1;
                }
            }
            if want_inside {
                inside = n;
            }
        }
        let [p, q, r, s] = order;
        let pos = cube.pos;
        match inside {
            1 => {
                let v0 = self.edge_vertex(cube, p, q);
                let v1 = self.edge_vertex(cube, p, r);
                let v2 = self.edge_vertex(cube, p, s);
                self.push_triangle(v0, v1, v2, pos[p]);
            }
            3 => {
                let v0 = self.edge_vertex(cube, s, p);
                let v1 = self.edge_vertex(cube, s, q);
                let v2 = self.edge_vertex(cube, s, r);
                // Anchor at the centroid of the inside face.
                let anchor = (pos[p] + pos[q] + pos[r]) / 3.0;
                self.push_triangle(v0, v1, v2, anchor);
            }
            2 => {
                let vac = self.edge_vertex(cube, p, r);
                let vad = self.edge_vertex(cube, p, s);
                let vbc = self.edge_vertex(cube, q, r);
                let vbd = self.edge_vertex(cube, q, s);
                let anchor = (pos[p] + pos[q]) * 0.5;
                self.push_triangle(vac, vad, vbd, anchor);
                self.push_triangle(vac, vbd, vbc, anchor);
            }
            _ => {} // entirely inside or outside
        }
    }

    /// Polygonize the cube whose corners (in [`CUBE_CORNERS`] order) have
    /// the given lattice slots, positions and field values.
    pub fn do_cube(&mut self, slots: &[usize; 8], pos: &[Vec3; 8], val: &[f32; 8], iso: f32) {
        self.stats.crossing_cubes += 1;
        let cube = Cube { slots, pos, val, iso };
        for tet in &CUBE_TETS {
            self.do_tet(&cube, tet);
        }
    }

    /// The mesh so far, its vertices, faces and normals each allocated
    /// once at its length, and the counters.
    pub fn finish(&self) -> (TriMesh, ExtractionStats) {
        let normals = self.normals.iter().map(|n| n.normalized()).collect();
        let mesh = TriMesh { vertices: self.vertices.clone(), faces: self.faces.clone(), normals, ..TriMesh::default() };
        (mesh, ExtractionStats { lattice_lookups: self.lattice.lookups(), ..self.stats })
    }
}

/// A cube being polygonized: its corners' lattice slots, positions and
/// field values, and the isovalue.
struct Cube<'a> {
    slots: &'a [usize; 8],
    pos: &'a [Vec3; 8],
    val: &'a [f32; 8],
    iso: f32,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lattice::corner_key;
    use crate::sdf::{SdfCapsule, SdfSphere};

    /// Extract the isosurface of `sdf` on a dense grid. Returns the welded
    /// triangle mesh with computed normals. A crossing cube's corners are
    /// found in the builder's lattice, which welds, as the sparse
    /// extractor's does; the values come from the two slices.
    pub(crate) fn marching_tetrahedra<S: Sdf + ?Sized>(sdf: &S, cfg: &MarchingConfig) -> TriMesh {
        marching_tetrahedra_with_stats(sdf, cfg).0
    }

    /// Like [`marching_tetrahedra`] but also returns workload counters.
    fn marching_tetrahedra_with_stats<S: Sdf + ?Sized>(
        sdf: &S,
        cfg: &MarchingConfig,
    ) -> (TriMesh, ExtractionStats) {
        let r = cfg.resolution;
        let n = (r + 1) as usize;
        let cell = cfg.cell_size();
        let origin = cfg.bounds.min;
        let mut builder = MeshBuilder::default();

        let sample_slice = |z: u32, builder: &mut MeshBuilder| -> Vec<f32> {
            let mut slice = Vec::with_capacity(n * n);
            for y in 0..n as u32 {
                for x in 0..n as u32 {
                    let p = origin + Vec3::new(x as f32, y as f32, z as f32) * cell;
                    slice.push(sdf.distance(p));
                    builder.stats.field_evals += 1;
                }
            }
            slice
        };

        let mut below = sample_slice(0, &mut builder);
        for z in 0..r {
            let above = sample_slice(z + 1, &mut builder);
            for y in 0..r {
                for x in 0..r {
                    builder.stats.cubes_visited += 1;
                    let mut pos = [Vec3::ZERO; 8];
                    let mut val = [0f32; 8];
                    let mut all_pos = true;
                    let mut all_neg = true;
                    for (ci, &(dx, dy, dz)) in CUBE_CORNERS.iter().enumerate() {
                        let (cx, cy, cz) = (x + dx, y + dy, z + dz);
                        pos[ci] = origin + Vec3::new(cx as f32, cy as f32, cz as f32) * cell;
                        let slice = if dz == 0 { &below } else { &above };
                        let v = slice[(cy as usize) * n + cx as usize];
                        val[ci] = v;
                        if v < cfg.iso {
                            all_pos = false;
                        } else {
                            all_neg = false;
                        }
                    }
                    if all_pos || all_neg {
                        continue;
                    }
                    let slots = CUBE_CORNERS.map(|(dx, dy, dz)| builder.lattice.slot(corner_key(x + dx, y + dy, z + dz)));
                    builder.do_cube(&slots, &pos, &val, cfg.iso);
                }
            }
            below = above;
        }
        builder.finish()
    }

    #[test]
    fn sphere_surface_extracted() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let cfg = MarchingConfig::for_sdf(&s, 32);
        let (mesh, stats) = marching_tetrahedra_with_stats(&s, &cfg);
        assert!(mesh.face_count() > 500);
        assert!(mesh.validate().is_ok());
        assert!(stats.field_evals > 0);
        // Every vertex close to the unit sphere.
        for v in &mesh.vertices {
            let r = v.length();
            assert!((0.9..=1.1).contains(&r), "vertex radius {r}");
        }
    }

    #[test]
    fn sphere_mesh_is_watertight() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 0.8 };
        let cfg = MarchingConfig::for_sdf(&s, 24);
        let mesh = marching_tetrahedra(&s, &cfg);
        assert!(mesh.is_closed(), "marching tetrahedra surface must be closed");
        assert_eq!(mesh.euler_characteristic(), 2);
    }

    #[test]
    fn area_converges_with_resolution() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let analytic = 4.0 * std::f32::consts::PI;
        let area = |res: u32| {
            let cfg = MarchingConfig::for_sdf(&s, res);
            marching_tetrahedra(&s, &cfg).surface_area()
        };
        let coarse_err = (area(12) - analytic).abs();
        let fine_err = (area(48) - analytic).abs();
        assert!(fine_err < coarse_err, "error should shrink with resolution");
        assert!(fine_err / analytic < 0.05);
    }

    #[test]
    fn normals_outward() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let cfg = MarchingConfig::for_sdf(&s, 24);
        let mesh = marching_tetrahedra(&s, &cfg);
        let mut outward = 0usize;
        for i in 0..mesh.face_count() {
            let [a, b, c] = mesh.face_positions(i);
            let centroid = (a + b + c) / 3.0;
            if mesh.face_normal(i).dot(centroid.normalized()) > 0.0 {
                outward += 1;
            }
        }
        assert!(
            outward as f32 / mesh.face_count() as f32 > 0.99,
            "only {outward}/{} faces outward",
            mesh.face_count()
        );
    }

    #[test]
    fn capsule_topology_is_sphere_like() {
        let c = SdfCapsule { a: Vec3::ZERO, b: Vec3::new(0.0, 1.5, 0.0), radius: 0.4 };
        let cfg = MarchingConfig::for_sdf(&c, 32);
        let mesh = marching_tetrahedra(&c, &cfg);
        assert!(mesh.is_closed());
        assert_eq!(mesh.euler_characteristic(), 2);
    }

    #[test]
    fn empty_field_produces_empty_mesh() {
        // Sphere entirely outside the polygonized region.
        let s = SdfSphere { center: Vec3::splat(100.0), radius: 0.5 };
        let cfg = MarchingConfig {
            resolution: 8,
            bounds: Aabb::new(Vec3::ZERO, Vec3::ONE),
            iso: 0.0,
        };
        let mesh = marching_tetrahedra(&s, &cfg);
        assert_eq!(mesh.face_count(), 0);
    }

    #[test]
    fn triangle_count_scales_quadratically() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let count = |res: u32| {
            let cfg = MarchingConfig::for_sdf(&s, res);
            marching_tetrahedra(&s, &cfg).face_count() as f32
        };
        let ratio = count(32) / count(16);
        // Surface cells scale with R^2; allow generous tolerance.
        assert!((2.5..6.0).contains(&ratio), "scaling ratio {ratio}");
    }
}
