//! Indexed triangle meshes.

use holo_math::{Aabb, Pcg32, Vec3};

/// An indexed triangle mesh: a vertex buffer plus a face index buffer.
///
/// Optional per-vertex normals and RGB colors ride alongside; when present
/// their length equals `vertices.len()`.
#[derive(Debug, Clone, Default)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<Vec3>,
    /// Triangles as triples of vertex indices (counter-clockwise winding).
    pub faces: Vec<[u32; 3]>,
    /// Optional per-vertex unit normals.
    pub normals: Vec<Vec3>,
    /// Optional per-vertex RGB colors in `[0, 1]`.
    pub colors: Vec<Vec3>,
}

impl TriMesh {
    /// An empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of triangles.
    pub fn face_count(&self) -> usize {
        self.faces.len()
    }

    /// Size in bytes of the *uncompressed* binary wire format used as the
    /// "traditional communication" baseline in Table 2: a 16-byte header
    /// (magic, version, vertex count, face count), `f32` positions, and
    /// `u32` indices. Normals/colors are excluded, matching the paper's
    /// untextured-mesh measurement.
    pub fn raw_size_bytes(&self) -> usize {
        16 + self.vertices.len() * 12 + self.faces.len() * 12
    }

    /// Axis-aligned bounds of the vertices.
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.vertices)
    }

    /// Validate structural invariants: all face indices in range, normals
    /// and colors either empty or one per vertex, all coordinates finite.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.vertices.len() as u32;
        for (i, f) in self.faces.iter().enumerate() {
            for &idx in f {
                if idx >= n {
                    return Err(format!("face {i} references vertex {idx} out of {n}"));
                }
            }
        }
        if !self.normals.is_empty() && self.normals.len() != self.vertices.len() {
            return Err(format!(
                "normal count {} != vertex count {}",
                self.normals.len(),
                self.vertices.len()
            ));
        }
        if !self.colors.is_empty() && self.colors.len() != self.vertices.len() {
            return Err(format!(
                "color count {} != vertex count {}",
                self.colors.len(),
                self.vertices.len()
            ));
        }
        for (i, v) in self.vertices.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("vertex {i} is not finite: {v:?}"));
            }
        }
        Ok(())
    }

    /// The three corner positions of face `i`.
    pub fn face_positions(&self, i: usize) -> [Vec3; 3] {
        let f = self.faces[i];
        [
            self.vertices[f[0] as usize],
            self.vertices[f[1] as usize],
            self.vertices[f[2] as usize],
        ]
    }

    /// Area of triangle `i`.
    pub fn face_area(&self, i: usize) -> f32 {
        let [a, b, c] = self.face_positions(i);
        (b - a).cross(c - a).length() * 0.5
    }

    /// Geometric (unnormalized) face normal of triangle `i`.
    pub fn face_normal(&self, i: usize) -> Vec3 {
        let [a, b, c] = self.face_positions(i);
        (b - a).cross(c - a).normalized()
    }

    /// Total surface area.
    pub fn surface_area(&self) -> f32 {
        (0..self.faces.len()).map(|i| self.face_area(i)).sum()
    }

    /// Recompute per-vertex normals as the area-weighted average of
    /// adjacent face normals.
    pub fn compute_normals(&mut self) {
        self.normals.clear();
        self.normals.resize(self.vertices.len(), Vec3::ZERO);
        for f in &self.faces {
            let a = self.vertices[f[0] as usize];
            let b = self.vertices[f[1] as usize];
            let c = self.vertices[f[2] as usize];
            let n = (b - a).cross(c - a); // length encodes 2x area
            for &idx in f {
                self.normals[idx as usize] += n;
            }
        }
        for n in &mut self.normals {
            *n = n.normalized();
        }
    }

    /// Append another mesh (re-indexing its faces).
    pub fn append(&mut self, other: &TriMesh) {
        let base = self.vertices.len() as u32;
        self.vertices.extend_from_slice(&other.vertices);
        self.faces.extend(other.faces.iter().map(|f| [f[0] + base, f[1] + base, f[2] + base]));
        if !self.normals.is_empty() || !other.normals.is_empty() {
            // Keep lengths consistent: pad whichever side lacks normals.
            self.normals.resize(base as usize, Vec3::ZERO);
            if other.normals.is_empty() {
                self.normals.extend(std::iter::repeat_n(Vec3::ZERO, other.vertices.len()));
            } else {
                self.normals.extend_from_slice(&other.normals);
            }
        }
        if !self.colors.is_empty() || !other.colors.is_empty() {
            self.colors.resize(base as usize, Vec3::ONE);
            if other.colors.is_empty() {
                self.colors.extend(std::iter::repeat_n(Vec3::ONE, other.vertices.len()));
            } else {
                self.colors.extend_from_slice(&other.colors);
            }
        }
    }

    /// Sample `n` points uniformly by surface area, with interpolated
    /// normals when present. Used by the quality metrics.
    pub fn sample_surface(&self, n: usize, rng: &mut Pcg32) -> (Vec<Vec3>, Vec<Vec3>) {
        let mut points = Vec::with_capacity(n);
        let mut normals = Vec::with_capacity(n);
        if self.faces.is_empty() || n == 0 {
            return (points, normals);
        }
        // Cumulative area table for area-proportional face selection.
        let mut cdf = Vec::with_capacity(self.faces.len());
        let mut total = 0.0f32;
        for i in 0..self.faces.len() {
            total += self.face_area(i);
            cdf.push(total);
        }
        if total <= 0.0 {
            return (points, normals);
        }
        for _ in 0..n {
            let r = rng.next_f32() * total;
            let fi = cdf.partition_point(|&c| c < r).min(self.faces.len() - 1);
            let [a, b, c] = self.face_positions(fi);
            // Uniform barycentric sample.
            let (mut u, mut v) = (rng.next_f32(), rng.next_f32());
            if u + v > 1.0 {
                u = 1.0 - u;
                v = 1.0 - v;
            }
            points.push(a + (b - a) * u + (c - a) * v);
            normals.push(self.face_normal(fi));
        }
        (points, normals)
    }

    /// Build a UV-sphere mesh (used widely in tests and as a calibration
    /// target: its area and volume are known analytically).
    pub fn uv_sphere(center: Vec3, radius: f32, rings: u32, segments: u32) -> Self {
        let mut mesh = TriMesh::new();
        let rings = rings.max(2);
        let segments = segments.max(3);
        // Poles + ring vertices.
        mesh.vertices.push(center + Vec3::new(0.0, radius, 0.0));
        for r in 1..rings {
            let phi = std::f32::consts::PI * r as f32 / rings as f32;
            for s in 0..segments {
                let theta = std::f32::consts::TAU * s as f32 / segments as f32;
                mesh.vertices.push(
                    center
                        + Vec3::new(
                            radius * phi.sin() * theta.cos(),
                            radius * phi.cos(),
                            radius * phi.sin() * theta.sin(),
                        ),
                );
            }
        }
        mesh.vertices.push(center - Vec3::new(0.0, radius, 0.0));
        let ring_start = |r: u32| 1 + (r - 1) * segments;
        // Top cap.
        for s in 0..segments {
            let a = ring_start(1) + s;
            let b = ring_start(1) + (s + 1) % segments;
            mesh.faces.push([0, b, a]);
        }
        // Body quads.
        for r in 1..rings - 1 {
            for s in 0..segments {
                let a = ring_start(r) + s;
                let b = ring_start(r) + (s + 1) % segments;
                let c = ring_start(r + 1) + s;
                let d = ring_start(r + 1) + (s + 1) % segments;
                mesh.faces.push([a, b, d]);
                mesh.faces.push([a, d, c]);
            }
        }
        // Bottom cap.
        let south = mesh.vertices.len() as u32 - 1;
        for s in 0..segments {
            let a = ring_start(rings - 1) + s;
            let b = ring_start(rings - 1) + (s + 1) % segments;
            mesh.faces.push([a, b, south]);
        }
        mesh.compute_normals();
        mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Mat4;
    use std::collections::BTreeMap;

    /// Topology probes and a rigid move for this crate's tests.
    impl TriMesh {
        /// Undirected edge list with per-edge face counts. Edges with count
        /// 1 are boundary edges; counts > 2 indicate non-manifold topology.
        fn edge_face_counts(&self) -> BTreeMap<(u32, u32), u32> {
            let mut edges: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for f in &self.faces {
                for k in 0..3 {
                    let a = f[k];
                    let b = f[(k + 1) % 3];
                    let key = (a.min(b), a.max(b));
                    *edges.entry(key).or_insert(0) += 1;
                }
            }
            edges
        }

        /// Apply an affine transform to vertices (and rotate normals).
        pub(crate) fn transform(&mut self, m: &Mat4) {
            for v in &mut self.vertices {
                *v = m.transform_point(*v);
            }
            for n in &mut self.normals {
                *n = m.transform_dir(*n).normalized();
            }
        }

        /// True when every edge is shared by exactly two faces (closed
        /// 2-manifold surface).
        pub(crate) fn is_closed(&self) -> bool {
            !self.faces.is_empty() && self.edge_face_counts().values().all(|&c| c == 2)
        }

        /// Euler characteristic `V - E + F` (2 for a sphere-topology surface).
        pub(crate) fn euler_characteristic(&self) -> i64 {
            let v = self.vertices.len() as i64;
            let e = self.edge_face_counts().len() as i64;
            let f = self.faces.len() as i64;
            v - e + f
        }
    }

    fn unit_sphere() -> TriMesh {
        TriMesh::uv_sphere(Vec3::ZERO, 1.0, 24, 48)
    }

    #[test]
    fn sphere_is_closed_manifold() {
        let m = unit_sphere();
        assert!(m.validate().is_ok());
        assert!(m.is_closed());
        assert_eq!(m.euler_characteristic(), 2);
    }

    #[test]
    fn sphere_area_close_to_analytic() {
        let m = unit_sphere();
        let area = m.surface_area();
        let analytic = 4.0 * std::f32::consts::PI;
        assert!((area - analytic).abs() / analytic < 0.02, "area {area} vs {analytic}");
    }

    #[test]
    fn raw_size_matches_layout() {
        let m = unit_sphere();
        assert_eq!(m.raw_size_bytes(), 16 + m.vertex_count() * 12 + m.face_count() * 12);
    }

    #[test]
    fn normals_point_outward_on_sphere() {
        let m = unit_sphere();
        for (v, n) in m.vertices.iter().zip(&m.normals) {
            assert!(v.normalized().dot(*n) > 0.9, "normal misaligned at {v:?}");
        }
    }

    #[test]
    fn validate_catches_bad_index() {
        let mut m = unit_sphere();
        m.faces.push([0, 1, 9_999_999]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_nan() {
        let mut m = unit_sphere();
        m.vertices[0].x = f32::NAN;
        assert!(m.validate().is_err());
    }

    #[test]
    fn transform_moves_bounds() {
        let mut m = unit_sphere();
        m.transform(&Mat4::translation(Vec3::new(10.0, 0.0, 0.0)));
        let b = m.bounds();
        assert!((b.center().x - 10.0).abs() < 1e-4);
    }

    #[test]
    fn append_reindexes() {
        let mut a = unit_sphere();
        let b = TriMesh::uv_sphere(Vec3::new(5.0, 0.0, 0.0), 1.0, 8, 12);
        let (va, fa) = (a.vertex_count(), a.face_count());
        a.append(&b);
        assert_eq!(a.vertex_count(), va + b.vertex_count());
        assert_eq!(a.face_count(), fa + b.face_count());
        assert!(a.validate().is_ok());
    }

    #[test]
    fn surface_samples_lie_on_sphere() {
        let m = unit_sphere();
        let mut rng = Pcg32::new(1);
        let (pts, nrm) = m.sample_surface(500, &mut rng);
        assert_eq!(pts.len(), 500);
        assert_eq!(nrm.len(), 500);
        for p in pts {
            let r = p.length();
            assert!((0.97..=1.01).contains(&r), "sample radius {r}");
        }
    }

    #[test]
    fn empty_mesh_behaves() {
        let m = TriMesh::new();
        assert_eq!(m.surface_area(), 0.0);
        assert!(!m.is_closed());
        let mut rng = Pcg32::new(2);
        let (pts, _) = m.sample_surface(10, &mut rng);
        assert!(pts.is_empty());
    }
}
