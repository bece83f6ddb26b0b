//! Draco-class triangle-mesh codec.
//!
//! Table 2 compresses the per-frame untextured mesh with Google Draco
//! (397.7 KB → 42.1 KB). This codec implements the same ingredient list:
//!
//! 1. **Position quantization** to a configurable bit depth over the mesh
//!    bounds (Draco's `qp`, default 14 bits).
//! 2. **Connectivity by region growing**: faces are attached one at a time
//!    across the active boundary, so most vertices need *no index at all*
//!    — they are numbered implicitly in discovery order (the core trick of
//!    Edgebreaker/Touma-Gotsman-style coders).
//! 3. **Parallelogram prediction**: a newly attached vertex is predicted
//!    from the known triangle across the shared edge; only the (small)
//!    residual is coded.
//! 4. **Static rANS coding** of every symbol class ([`crate::rans`]): the
//!    traversal buffers symbols, a second pass codes them (DESIGN.md §16).
//! 5. **Connectivity and positions as separate sections**, as Draco's
//!    `MeshDecoder` decodes connectivity before attributes: the first
//!    section is a function of the faces alone, so [`MeshEncoder`] codes
//!    it and [`MeshDecoder`] decodes it once per topology.
//!
//! The codec is lossless in connectivity (up to vertex re-ordering;
//! unreferenced vertices are dropped) and lossy in positions by at most
//! half a quantization step per component.

use crate::primitives::{unzigzag, zigzag};
use crate::rans::{RansDecoder, RansEncoder, RansTables};
use holo_math::Vec3;
use holo_mesh::trimesh::TriMesh;
use holo_runtime::ser::{ByteReader, DecodeError};

/// Codec parameters.
#[derive(Debug, Clone, Copy)]
pub struct MeshCodecConfig {
    /// Position quantization bits per component (Draco default: 14).
    pub position_bits: u32,
}

impl Default for MeshCodecConfig {
    fn default() -> Self {
        Self { position_bits: 14 }
    }
}

const MAGIC: u32 = 0x4D43_4433; // "MCD3"
const BITS_RANGE: std::ops::RangeInclusive<u32> = 4..=20;

// A vertex is a back-reference or a residual; an edge may also attach nothing.
const OP_KNOWN: u32 = 0;
const OP_NEW: u32 = 1;
const OP_SKIP: u32 = 2;

// The connectivity section's contexts. An edge's op is coded under the
// two ops before it (contexts 0..9, `prev2 * 3 + prev`): the
// traversal's skip/known/new rhythm is what makes connectivity cheap,
// and order 0 gives it away.
const CTX_SEED_OP: usize = 9;
const CTX_BACKREF: usize = 10;
const CONNECTIVITY_ALPHABETS: [u8; 11] = [3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 64];
// The positions section's: three residual slot tables for attached
// vertices, three for a component's seed vertices.
const CTX_ATTACH: usize = 0;
const CTX_SEED: usize = 3;
const POSITION_ALPHABETS: [u8; 6] = [64; 6];

fn next_op_context(context: usize, op: u32) -> usize {
    (context * 3 + op as usize) % 9
}

type QPos = [i32; 3];
const UNDISCOVERED: u32 = u32::MAX;

/// Parallelogram prediction `u + v − opp` across edge `(u, v)` of a known
/// triangle whose third vertex is `opp`. Wrapping: hostile input may not
/// fit i32 sums; its positions are garbage anyway, but debug must not panic.
fn parallelogram(q: &[QPos], [u, v, opp]: [u32; 3]) -> QPos {
    let (a, b, o) = (q[u as usize], q[v as usize], q[opp as usize]);
    std::array::from_fn(|k| a[k].wrapping_add(b[k]).wrapping_sub(o[k]))
}

// A plan entry is the `[u, v, opp]` a new vertex is predicted from, as
// indices into a position array that holds an all-zero entry at 0 and
// vertex `i` at `i + 1`: a seed vertex's delta on the seed vertex `p`
// before it is the parallelogram `[p + 1, 0, 0]`, the very first one's
// `[0, 0, 0]`. An attached vertex's entry has no zero, so `v == 0` tells
// the two residual kinds apart.
fn residual_context(pred: [u32; 3]) -> usize {
    if pred[1] == 0 {
        CTX_SEED
    } else {
        CTX_ATTACH
    }
}

/// Directed half-edges `[destination, face, third vertex]` grouped by
/// source vertex and in face order within a group, as CSR: vertex `v`'s
/// group is `edges[first[v]..first[v + 1]]`.
fn half_edges(faces: &[[u32; 3]], vertex_count: usize, first: &mut Vec<u32>, edges: &mut Vec<[u32; 3]>) {
    // Out-degrees are counted two places up, so that after the prefix
    // sum `first[v + 1]` is v's start; filling advances it to v's end,
    // which is v + 1's start.
    first.clear();
    first.resize(vertex_count + 2, 0);
    for &a in faces.iter().flatten() {
        first[a as usize + 2] += 1;
    }
    for v in 2..first.len() {
        first[v] += first[v - 1];
    }
    edges.clear();
    edges.resize(faces.len() * 3, [0; 3]);
    for (fi, f) in faces.iter().enumerate() {
        for k in 0..3 {
            let at = &mut first[f[k] as usize + 1];
            edges[*at as usize] = [f[(k + 1) % 3], fi as u32, f[(k + 2) % 3]];
            *at += 1;
        }
    }
}

/// Encode a mesh. Unreferenced vertices are not preserved.
pub fn encode_mesh(mesh: &TriMesh, cfg: &MeshCodecConfig) -> Vec<u8> {
    MeshEncoder::default().encode(mesh, cfg)
}

/// An encoder that keeps its memory between meshes and, while `faces`
/// repeats, its walk and the connectivity section coded from it: every
/// call codes only the positions section (DESIGN.md §16). What it emits
/// never depends on what it encoded before.
#[derive(Default)]
pub struct MeshEncoder {
    /// The `faces` the walk below was taken of; `None` until a walk and
    /// its section have finished, so an unwound one cannot be matched.
    key: Option<Vec<[u32; 3]>>,
    /// The connectivity section of the walk: face count, then its rANS stream.
    connectivity: Vec<u8>,
    /// Per new vertex, in discovery order: its plan entry over `qpos`.
    plan: Vec<[u32; 3]>,
    order: Vec<u32>,
    /// This mesh's quantized positions, vertex `v` at `v + 1` behind the
    /// all-zero entry a plan reads.
    qpos: Vec<QPos>,
    positions: RansEncoder,
    // The walk's scratch. Stack entries: (u, v, opp) — find the face
    // containing directed edge (u, v); `opp` supports the prediction.
    ops: RansEncoder,
    first: Vec<u32>,
    edges: Vec<[u32; 3]>,
    visited: Vec<bool>,
    disc: Vec<u32>,
    stack: Vec<(u32, u32, u32)>,
    /// What the last output took; the next is allocated once, from this.
    last_len: usize,
}

impl MeshEncoder {
    /// [`encode_mesh`], in kept memory.
    pub fn encode(&mut self, mesh: &TriMesh, cfg: &MeshCodecConfig) -> Vec<u8> {
        let timer = holo_trace::WallTimer::start();
        let bits = cfg.position_bits.clamp(*BITS_RANGE.start(), *BITS_RANGE.end());
        let (origin, step) = if mesh.vertices.is_empty() {
            (Vec3::ZERO, 1.0)
        } else {
            let bounds = mesh.bounds();
            (bounds.min, bounds.longest_side().max(1e-9) / ((1u64 << bits) - 1) as f32)
        };
        self.qpos.clear();
        self.qpos.push([0; 3]);
        self.qpos.extend(mesh.vertices.iter().map(|v| {
            let r = (*v - origin) / step;
            [r.x.round() as i32, r.y.round() as i32, r.z.round() as i32]
        }));

        // Pass 1, when connectivity changed: walk it, code its section.
        if !self.walked(&mesh.faces) {
            let mut key = self.key.take().unwrap_or_default();
            self.walk(&mesh.faces, mesh.vertices.len());
            self.connectivity.clear();
            self.connectivity.extend_from_slice(&(mesh.faces.len() as u32).to_le_bytes());
            self.ops.finish(&CONNECTIVITY_ALPHABETS, &mut self.connectivity);
            key.clone_from(&mesh.faces);
            self.key = Some(key);
        }

        // Header (uncoded): magic, bits, origin, step; then the
        // connectivity section behind its length.
        let mut out = Vec::with_capacity(self.last_len + self.last_len / 8);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(bits as u8);
        for c in [origin.x, origin.y, origin.z, step] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.connectivity.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.connectivity);
        // Pass 2: this mesh's residuals, in discovery order, coded as the
        // positions section to the end of the buffer.
        self.positions.clear();
        for (&v, &pred) in self.order.iter().zip(&self.plan) {
            let (q, p) = (self.qpos[v as usize + 1], parallelogram(&self.qpos, pred));
            let context = residual_context(pred);
            for k in 0..3 {
                self.positions.bucketed(context + k, zigzag(q[k].wrapping_sub(p[k])));
            }
        }
        self.positions.finish(&POSITION_ALPHABETS, &mut out);
        self.last_len = out.len();
        timer.stop("compress.mesh.encode_us");
        // Raw baseline: 12 bytes/vertex position + 12 bytes/face of indices.
        let raw = mesh.vertices.len() * 12 + mesh.faces.len() * 12;
        holo_trace::histogram("compress.mesh.ratio_permille", out.len() as u64 * 1000 / raw.max(1) as u64);
        holo_trace::counter("compress.mesh.bytes_out", out.len() as u64);
        out
    }

    /// The last mesh's vertex permutation: `perm[k]` is the index in
    /// `mesh.vertices` of the vertex the decoder emits at position `k`
    /// (discovery order) — what a delta against its output is taken over.
    pub fn permutation(&self) -> &[u32] {
        &self.order
    }

    /// Whether the connectivity section is `faces`' — a compare of the
    /// arrays themselves: no hash, length or pointer stands in for them.
    pub(crate) fn walked(&self, faces: &[[u32; 3]]) -> bool {
        self.key.as_deref() == Some(faces)
    }

    /// Buffer `faces`' ops and back-references, and plan every new vertex.
    fn walk(&mut self, faces: &[[u32; 3]], vertex_count: usize) {
        let Self { ops, plan, order, first, edges, visited, disc, stack, .. } = self;
        half_edges(faces, vertex_count, first, edges);
        ops.clear();
        plan.clear();
        order.clear();
        stack.clear();
        visited.clear();
        visited.resize(faces.len(), false);
        disc.clear();
        disc.resize(vertex_count, UNDISCOVERED);
        // Code vertex `v`, the choice under `op_context`: a back-reference
        // if discovered, else a new vertex predicted from `pred`.
        let mut vertex = |ops: &mut RansEncoder, op_context: usize, v: u32, pred: [u32; 3]| {
            let d = disc[v as usize];
            if d != UNDISCOVERED {
                ops.symbol(op_context, OP_KNOWN);
                ops.bucketed(CTX_BACKREF, order.len() as u32 - 1 - d);
                return OP_KNOWN;
            }
            ops.symbol(op_context, OP_NEW);
            plan.push(pred);
            disc[v as usize] = order.len() as u32;
            order.push(v);
            OP_NEW
        };
        let mut last = 0;
        let mut op_context = 0;
        for seed_face in 0..faces.len() {
            if visited[seed_face] {
                continue;
            }
            // Start a component: the seed triangle, each vertex a delta on the last.
            visited[seed_face] = true;
            let [s0, s1, s2] = faces[seed_face];
            for v in [s0, s1, s2] {
                vertex(ops, CTX_SEED_OP, v, [last, 0, 0]);
                last = v + 1;
            }
            stack.extend([(s1, s0, s2), (s2, s1, s0), (s0, s2, s1)]);

            while let Some((u, v, opp)) = stack.pop() {
                // The first face in face order on directed edge (u, v);
                // later duplicates (non-manifold) are reached via seeding.
                let group = &edges[first[u as usize] as usize..first[u as usize + 1] as usize];
                let op = match group.iter().find(|e| e[0] == v) {
                    Some(&[_, fi, c]) if !visited[fi as usize] => {
                        visited[fi as usize] = true;
                        stack.push((c, v, u));
                        stack.push((u, c, v));
                        vertex(ops, op_context, c, [u + 1, v + 1, opp + 1])
                    }
                    _ => {
                        ops.symbol(op_context, OP_SKIP);
                        OP_SKIP
                    }
                };
                op_context = next_op_context(op_context, op);
            }
        }
    }
}

/// Decode a mesh produced by [`encode_mesh`]: [`MeshDecoder::decode`]
/// on a fresh decoder.
pub fn decode_mesh(data: &[u8]) -> Result<TriMesh, DecodeError> {
    MeshDecoder::default().decode(data)
}

/// Most faces one byte of the connectivity section can legitimately
/// produce. A face costs at least one symbol there (the op that attached
/// it; a seed face, three), and the 12-bit static tables cap a frequency
/// at 4095/4096, so a symbol costs at least log2(4096/4095) = 3.523e-4
/// bits: 8 / 3.523e-4 = 22 711.2 faces per byte.
const MAX_FACES_PER_BYTE: usize = 22_712;

/// A decoder that keeps its memory between meshes and, while the
/// connectivity section repeats byte for byte, the faces and plan it
/// decoded from it: a steady-state call decodes only the positions
/// section (DESIGN.md §16). What it returns never depends on what it
/// decoded before.
#[derive(Default)]
pub struct MeshDecoder {
    /// The connectivity section `faces` and `plan` were decoded from;
    /// `None` until a frame decoded from them has validated.
    key: Option<Vec<u8>>,
    faces: Vec<[u32; 3]>,
    /// Per vertex, in discovery order: its plan entry over `qverts`.
    plan: Vec<[u32; 3]>,
    /// The positions being decoded, vertex `k` at `k + 1`.
    qverts: Vec<QPos>,
    stack: Vec<(u32, u32, u32)>,
    connectivity_tables: RansTables,
    position_tables: RansTables,
}

impl MeshDecoder {
    /// Decode one mesh. Vertices come back in discovery order; faces
    /// keep their original winding.
    ///
    /// Hostile-input contract: never panics (header parsing is
    /// bounds-checked, residual arithmetic wraps), never sizes a buffer
    /// from a declared count — the faces and plan grow with what the
    /// coded bytes actually yield — and accepts only sections consumed
    /// to their last byte (see [`RansDecoder`]). Connectivity is reused
    /// only once a frame that carried it has validated in full.
    pub fn decode(&mut self, data: &[u8]) -> Result<TriMesh, DecodeError> {
        let timer = holo_trace::WallTimer::start();
        let out = self.decode_inner(data);
        timer.stop("compress.mesh.decode_us");
        out
    }

    fn decode_inner(&mut self, data: &[u8]) -> Result<TriMesh, DecodeError> {
        let mut r = ByteReader::new(data);
        r.expect_magic(MAGIC)?;
        let bits = r.u8()? as u32;
        if !BITS_RANGE.contains(&bits) {
            return Err(DecodeError::corrupt("mesh header", format!("position bits {bits} outside 4..=20")));
        }
        let fl = [r.f32_le()?, r.f32_le()?, r.f32_le()?, r.f32_le()?];
        let (origin, step) = (Vec3::new(fl[0], fl[1], fl[2]), fl[3]);
        if !step.is_finite() || step <= 0.0 {
            return Err(DecodeError::corrupt("mesh header", "invalid quantization step"));
        }
        let section_len = r.u32_le()? as usize;
        let section = r.take(section_len)?;

        // The last accepted frame's connectivity, or this one decoded
        // into the same faces and plan; the key is given up first, so a
        // frame that fails leaves nothing the next could match.
        let repeated = self.key.as_deref() == Some(section);
        let key = if repeated {
            None
        } else {
            let key = self.key.take().unwrap_or_default();
            self.decode_connectivity(section)?;
            Some(key)
        };

        let Self { faces, plan, qverts, position_tables, .. } = self;
        let mut dec = position_tables.open(&mut r, &POSITION_ALPHABETS)?;
        qverts.clear();
        qverts.push([0; 3]);
        for &pred in plan.iter() {
            let mut q = parallelogram(qverts, pred);
            let context = residual_context(pred);
            for (k, c) in q.iter_mut().enumerate() {
                *c = c.wrapping_add(unzigzag(dec.bucketed(context + k)?));
            }
            qverts.push(q);
        }
        dec.finish()?;

        let mut mesh = TriMesh::new();
        mesh.vertices = qverts[1..]
            .iter()
            .map(|q| origin + Vec3::new(q[0] as f32, q[1] as f32, q[2] as f32) * step)
            .collect();
        mesh.faces = faces.clone();
        mesh.compute_normals();
        if let Some(mut key) = key {
            key.clear();
            key.extend_from_slice(section);
            self.key = Some(key);
        }
        Ok(mesh)
    }

    /// Decode a connectivity section into `faces` and `plan`.
    fn decode_connectivity(&mut self, section: &[u8]) -> Result<(), DecodeError> {
        let Self { faces, plan, stack, connectivity_tables, .. } = self;
        let mut r = ByteReader::new(section);
        let face_count = r.u32_le()? as usize;
        // More faces declared than the section's bytes could possibly encode?
        let face_cap = r.remaining().saturating_mul(MAX_FACES_PER_BYTE).min(100_000_000);
        if face_count > face_cap {
            return Err(DecodeError::LimitExceeded {
                what: "mesh faces",
                requested: face_count as u64,
                limit: face_cap as u64,
            });
        }
        let mut dec = connectivity_tables.open(&mut r, &CONNECTIVITY_ALPHABETS)?;
        faces.clear();
        plan.clear();
        stack.clear();
        let mut last = 0;
        let mut op_context = 0;
        while faces.len() < face_count {
            // Seed triangle.
            let mut ids = [0u32; 3];
            for id in &mut ids {
                let op = dec.symbol(CTX_SEED_OP)?;
                *id = decode_vertex(&mut dec, op, plan, [last, 0, 0])?;
                last = *id + 1;
            }
            faces.push(ids);
            let [s0, s1, s2] = ids;
            stack.extend([(s1, s0, s2), (s2, s1, s0), (s0, s2, s1)]);

            while let Some((u, v, opp)) = stack.pop() {
                let op = dec.symbol(op_context)?;
                op_context = next_op_context(op_context, op);
                if op == OP_SKIP {
                    continue;
                }
                if faces.len() == face_count {
                    return Err(DecodeError::corrupt("mesh", "more faces coded than declared"));
                }
                let c = decode_vertex(&mut dec, op, plan, [u + 1, v + 1, opp + 1])?;
                faces.push([u, v, c]);
                stack.push((c, v, u));
                stack.push((u, c, v));
            }
        }
        dec.finish()
    }
}

/// The vertex `op` names: a back-reference among the `plan.len()`
/// vertices discovered so far, or a new one predicted from `pred`.
fn decode_vertex(dec: &mut RansDecoder<'_, '_>, op: u32, plan: &mut Vec<[u32; 3]>, pred: [u32; 3]) -> Result<u32, DecodeError> {
    let n = plan.len() as u32;
    if op == OP_KNOWN {
        let back = dec.bucketed(CTX_BACKREF)?;
        if back >= n {
            return Err(DecodeError::corrupt("mesh", "backref out of range"));
        }
        return Ok(n - 1 - back);
    }
    plan.push(pred);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;
    use holo_mesh::sdf::SdfSphere;
    use holo_runtime::check::{any, collection};
    use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};
    use holo_mesh::sparse::sparse_extract;

    fn assert_roundtrip(mesh: &TriMesh, bits: u32) -> TriMesh {
        let cfg = MeshCodecConfig { position_bits: bits };
        let data = encode_mesh(mesh, &cfg);
        let decoded = decode_mesh(&data).expect("decode");
        assert_eq!(decoded.face_count(), mesh.face_count(), "face count");
        assert!(decoded.validate().is_ok());
        // Geometric fidelity: every original vertex has a decoded vertex
        // within half a quantization cell (per component -> sqrt(3)/2 of a
        // step in distance), and vice versa.
        let step = mesh.bounds().longest_side().max(1e-9) / ((1u64 << bits) - 1) as f32;
        let tol = step * 0.9; // sqrt(3)/2 plus float slack
        let grid = holo_mesh::grid::PointGrid::auto(decoded.vertices.clone());
        for v in &mesh.vertices {
            // Unreferenced original vertices are legitimately dropped.
            let referenced = mesh.faces.iter().flatten().any(|&i| mesh.vertices[i as usize] == *v);
            if !referenced {
                continue;
            }
            let d = grid.nearest_distance(*v);
            assert!(d <= tol, "original vertex {v:?} has no decoded twin (d={d}, step={step})");
        }
        let grid2 = holo_mesh::grid::PointGrid::auto(mesh.vertices.clone());
        for v in &decoded.vertices {
            let d = grid2.nearest_distance(*v);
            assert!(d <= tol, "decoded vertex {v:?} has no original twin (d={d})");
        }
        // Surface area agreement.
        let (a, b) = (mesh.surface_area(), decoded.surface_area());
        assert!((a - b).abs() / a.max(1e-9) < 0.05, "area {a} vs {b}");
        decoded
    }

    fn sphere_mesh() -> TriMesh {
        TriMesh::uv_sphere(Vec3::new(0.3, -0.2, 1.0), 0.9, 16, 24)
    }

    #[test]
    fn sphere_roundtrip() {
        assert_roundtrip(&sphere_mesh(), 14);
    }

    #[test]
    fn quantization_error_bounded() {
        let mesh = sphere_mesh();
        let cfg = MeshCodecConfig { position_bits: 12 };
        let data = encode_mesh(&mesh, &cfg);
        let decoded = decode_mesh(&data).unwrap();
        let step = mesh.bounds().longest_side() / ((1u64 << 12) - 1) as f32;
        // Every decoded vertex must be within one quantization cell of
        // some original vertex.
        for v in &decoded.vertices {
            let nearest = mesh.vertices.iter().map(|o| (*o - *v).length()).fold(f32::INFINITY, f32::min);
            assert!(nearest <= step * 1.8, "vertex error {nearest} vs step {step}");
        }
    }

    #[test]
    fn marching_cubes_mesh_roundtrip() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let mesh = sparse_extract(&s, 32, 0.0);
        assert_roundtrip(&mesh, 14);
    }

    #[test]
    fn compression_ratio_draco_class() {
        // The Table 2 scenario needs ~10x on smooth organic meshes.
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let mesh = sparse_extract(&s, 64, 0.0);
        let raw = mesh.raw_size_bytes();
        let coded = encode_mesh(&mesh, &MeshCodecConfig::default()).len();
        let ratio = raw as f64 / coded as f64;
        assert!(ratio > 5.0, "ratio {ratio:.1} ({raw} -> {coded})");
    }

    #[test]
    fn empty_mesh() {
        let m = TriMesh::new();
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let d = decode_mesh(&data).unwrap();
        assert_eq!(d.face_count(), 0);
        assert_eq!(d.vertex_count(), 0);
    }

    #[test]
    fn single_triangle() {
        let mut m = TriMesh::new();
        m.vertices = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
        m.faces = vec![[0, 1, 2]];
        let decoded = assert_roundtrip(&m, 14);
        assert_eq!(decoded.vertex_count(), 3);
    }

    #[test]
    fn disconnected_components() {
        let mut m = sphere_mesh();
        let other = TriMesh::uv_sphere(Vec3::new(5.0, 0.0, 0.0), 0.5, 8, 12);
        m.append(&other);
        assert_roundtrip(&m, 14);
    }

    #[test]
    fn open_surface_with_boundary() {
        // A grid patch: has boundary edges everywhere.
        let mut m = TriMesh::new();
        let n = 10u32;
        for y in 0..=n {
            for x in 0..=n {
                m.vertices.push(Vec3::new(x as f32 * 0.1, y as f32 * 0.1, (x as f32 * 0.37).sin() * 0.05));
            }
        }
        for y in 0..n {
            for x in 0..n {
                let i = y * (n + 1) + x;
                m.faces.push([i, i + 1, i + n + 2]);
                m.faces.push([i, i + n + 2, i + n + 1]);
            }
        }
        assert_roundtrip(&m, 14);
    }

    /// Three triangles sharing one edge.
    fn nonmanifold_fan() -> TriMesh {
        let mut m = TriMesh::new();
        m.vertices = vec![
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        m.faces = vec![[0, 1, 2], [0, 1, 3], [0, 1, 4]];
        m
    }

    #[test]
    fn nonmanifold_edge_survives() {
        let m = nonmanifold_fan();
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let decoded = decode_mesh(&data).unwrap();
        assert_eq!(decoded.face_count(), 3);
    }

    #[test]
    fn unreferenced_vertices_dropped() {
        let mut m = TriMesh::new();
        m.vertices = vec![Vec3::ZERO, Vec3::X, Vec3::Y, Vec3::splat(9.0)];
        m.faces = vec![[0, 1, 2]];
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let decoded = decode_mesh(&data).unwrap();
        assert_eq!(decoded.vertex_count(), 3);
    }

    #[test]
    fn corrupted_header_is_error() {
        assert!(decode_mesh(&[1, 2, 3]).is_err());
        let mesh = sphere_mesh();
        let mut data = encode_mesh(&mesh, &MeshCodecConfig::default());
        data[0] ^= 0xFF;
        assert!(decode_mesh(&data).is_err());
    }

    #[test]
    fn header_bits_byte_is_validated() {
        let mut data = encode_mesh(&sphere_mesh(), &MeshCodecConfig::default());
        assert_eq!(data[4], 14);
        for bad in [0, 3, 21, 0xFF] {
            data[4] = bad;
            let err = decode_mesh(&data).unwrap_err();
            assert!(
                matches!(err, DecodeError::Corrupt { context: "mesh header", .. }),
                "bits {bad}: {err}"
            );
        }
        for good in [4, 20] {
            data[4] = good;
            decode_mesh(&data).expect("bits only label the quantization");
        }
    }

    /// Where an encoded frame's connectivity section lies: behind the
    /// 21-byte header and its own length word.
    fn connectivity_span(data: &[u8]) -> std::ops::Range<usize> {
        let len = u32::from_le_bytes(data[21..25].try_into().unwrap()) as usize;
        25..25 + len
    }

    /// `data` with one byte more (`grow`) or fewer at the end of its
    /// connectivity section, the section's length word following or not.
    fn resized_connectivity(data: &[u8], grow: bool, relabel: bool) -> Vec<u8> {
        let span = connectivity_span(data);
        let mut out = data[..span.end].to_vec();
        let len = if grow {
            out.push(0);
            span.len() + 1
        } else {
            out.pop();
            span.len() - 1
        };
        out.extend_from_slice(&data[span.end..]);
        if relabel {
            out[21..25].copy_from_slice(&(len as u32).to_le_bytes());
        }
        out
    }

    #[test]
    fn stream_must_be_consumed_exactly() {
        let mut m = sphere_mesh();
        m.append(&TriMesh::uv_sphere(Vec3::new(5.0, 0.0, 0.0), 0.5, 4, 6));
        for mesh in [m, TriMesh::new()] {
            let data = encode_mesh(&mesh, &MeshCodecConfig::default());
            decode_mesh(&data).unwrap();
            for cut in 0..data.len() {
                assert!(decode_mesh(&data[..cut]).is_err(), "truncation to {cut}/{}", data.len());
            }
            let mut long = data.clone();
            long.push(0);
            assert!(decode_mesh(&long).is_err(), "trailing byte accepted");
            // Either section cut or stretched where they meet, through a
            // fresh decoder and through one that holds this connectivity.
            let mut kept = MeshDecoder::default();
            for grow in [true, false] {
                for relabel in [true, false] {
                    let bad = resized_connectivity(&data, grow, relabel);
                    assert!(decode_mesh(&bad).is_err(), "grow {grow}, relabel {relabel}");
                    kept.decode(&data).unwrap();
                    assert!(kept.decode(&bad).is_err(), "grow {grow}, relabel {relabel}, kept");
                }
            }
        }
    }

    #[test]
    fn declared_faces_beyond_what_bytes_can_pay_for_are_refused() {
        let mut data = encode_mesh(&sphere_mesh(), &MeshCodecConfig::default());
        let at = connectivity_span(&data).start;
        let declare = |data: &mut Vec<u8>, faces: usize| data[at..at + 4].copy_from_slice(&(faces as u32).to_le_bytes());
        declare(&mut data, u32::MAX as usize);
        assert_eq!(decode_mesh(&data).unwrap_err().kind(), "limit_exceeded");
        // The cap is what the connectivity section's bytes pay for: the
        // positions section, however long, buys no faces.
        let section_bytes = connectivity_span(&data).len() - 4;
        declare(&mut data, section_bytes * MAX_FACES_PER_BYTE + 1);
        assert_eq!(decode_mesh(&data).unwrap_err().kind(), "limit_exceeded");
        let mut padded = data.clone();
        padded.resize(data.len() + (64 << 10), 0);
        assert_eq!(decode_mesh(&padded).unwrap_err().kind(), "limit_exceeded");
        // One byte fewer in the section lowers the cap with it.
        declare(&mut data, (section_bytes - 1) * MAX_FACES_PER_BYTE + 1);
        let cut = resized_connectivity(&data, false, true);
        assert_eq!(decode_mesh(&cut).unwrap_err().kind(), "limit_exceeded");
        // Within the cap but more than the stream holds: the coded
        // bytes run dry, nothing was sized from the forged count.
        let forged = section_bytes * 100;
        declare(&mut data, forged);
        assert_eq!(decode_mesh(&data).unwrap_err().kind(), "truncated");
    }

    /// Random triangle soup (worst case for prediction, still correct):
    /// `faces` triangles over `faces * 2 / 3` vertices.
    fn random_soup(seed: u64, faces: u32) -> TriMesh {
        let mut rng = Pcg32::new(seed);
        let n = faces * 2 / 3;
        let mut m = TriMesh::new();
        for _ in 0..n {
            m.vertices.push(Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
            ));
        }
        for _ in 0..faces {
            let a = rng.range_u32(n);
            let mut b = rng.range_u32(n);
            let mut c = rng.range_u32(n);
            if b == a {
                b = (b + 1) % n;
            }
            if c == a || c == b {
                c = (c + 2) % n;
            }
            m.faces.push([a, b, c]);
        }
        m
    }

    #[test]
    fn random_soup_roundtrips() {
        let m = random_soup(7, 300);
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let decoded = decode_mesh(&data).unwrap();
        assert_eq!(decoded.face_count(), m.face_count());
    }

    /// The next mesh of a kept encoder's sequence: `mesh` under edit
    /// `kind`, its free choices drawn from `seed`.
    fn edited(mesh: &TriMesh, kind: u32, seed: u64) -> TriMesh {
        let mut rng = Pcg32::new(seed);
        let mut m = mesh.clone();
        let face = (!m.faces.is_empty()).then(|| rng.index(m.faces.len().max(1)));
        match (kind, face) {
            // Equal faces, every vertex moved.
            (0, _) => m.vertices.iter_mut().for_each(|v| *v += Vec3::new(rng.normal(), rng.normal(), rng.normal()) * 0.01),
            (1, Some(f)) => drop(m.faces.remove(f)),
            (2, Some(f)) => {
                let other = rng.index(m.faces.len());
                m.faces.swap(f, other);
            }
            (3, Some(f)) => m.faces[f].swap(1, 2),
            // Equal faces, an unreferenced vertex more — or one fewer.
            (4, _) => m.vertices.push(Vec3::splat(rng.range_f32(-2.0, 2.0))),
            (5, _) if m.faces.iter().flatten().all(|&i| (i as usize) < m.vertices.len() - 1) => drop(m.vertices.pop()),
            (6, _) => m = TriMesh::new(),
            (7, _) => m = nonmanifold_fan(),
            (8, _) => m = random_soup(seed, 60),
            (9, _) => {
                m = TriMesh::uv_sphere(Vec3::ZERO, 1.0, 5, 7);
                m.append(&TriMesh::uv_sphere(Vec3::new(3.0, 0.0, 0.0), 0.5, 4, 5));
            }
            // Nothing to edit: the same mesh again (perhaps at another depth).
            _ => {}
        }
        m.normals.clear();
        m
    }

    holo_prop! {
        #![cases(256)]

        /// A kept encoder never differs from a fresh one, whatever it
        /// encoded before: bytes, permutation, and the decode.
        fn kept_encoder_equals_a_fresh_one_after_any_history(
            start in 6u32..10,
            edits in collection::vec((0u32..11, any::<u64>(), 2u32..23), 2..9),
        ) {
            let mut kept = MeshEncoder::default();
            let mut mesh = edited(&TriMesh::new(), start, 1);
            for (kind, seed, bits) in edits {
                mesh = edited(&mesh, kind, seed);
                let cfg = MeshCodecConfig { position_bits: bits };
                let mut fresh = MeshEncoder::default();
                let data = kept.encode(&mesh, &cfg);
                prop_assert!(data == fresh.encode(&mesh, &cfg), "bytes differ after edit {} at {} bits", kind, bits);
                prop_assert_eq!(kept.permutation(), fresh.permutation());
                prop_assert!(kept.walked(&mesh.faces));
                let decoded = decode_mesh(&data).expect("decode");
                prop_assert_eq!(decoded.face_count(), mesh.face_count());
                prop_assert_eq!(decoded.vertex_count(), kept.permutation().len());
                prop_assert!(decoded.validate().is_ok());
            }
        }
    }

    #[test]
    fn unwound_walk_is_never_matched() {
        let cfg = MeshCodecConfig::default();
        let good = sphere_mesh();
        let mut bad = good.clone();
        bad.faces[100][1] = bad.vertices.len() as u32 + 7;
        let mut kept = MeshEncoder::default();
        kept.encode(&good, &cfg);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kept.encode(&bad, &cfg)));
        assert!(unwound.is_err(), "a face index out of range must not encode");
        // The key was given up before the walk began, so nothing matches
        // what it left behind — not even the empty mesh, whose `faces`
        // equal a cleared key.
        for mesh in [&bad, &good, &TriMesh::new()] {
            assert!(!kept.walked(&mesh.faces));
        }
        for mesh in [&TriMesh::new(), &good] {
            assert_eq!(kept.encode(mesh, &cfg), encode_mesh(mesh, &cfg));
        }
    }

    /// A decode's outcome, comparable bit for bit: the mesh's vertex,
    /// face and normal words, or the error's kind.
    type Outcome = Result<Vec<[u32; 3]>, &'static str>;

    fn outcome(decoded: Result<TriMesh, DecodeError>) -> Outcome {
        let mesh = decoded.map_err(|e| e.kind())?;
        let bits = |v: &Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        Ok(mesh.vertices.iter().map(bits).chain(mesh.faces.iter().copied()).chain(mesh.normals.iter().map(bits)).collect())
    }

    /// `good` made hostile by `kind`, its free choices drawn from `seed`;
    /// `other` is another frame, perhaps of another topology.
    fn hostile(good: &[u8], other: &[u8], kind: u32, seed: u64) -> Vec<u8> {
        let mut rng = Pcg32::new(seed);
        let (span, other_span) = (connectivity_span(good), connectivity_span(other));
        let mut flip = |data: &mut Vec<u8>, at: std::ops::Range<usize>| {
            let i = at.start + rng.index(at.len().max(1));
            if let Some(b) = data.get_mut(i) {
                *b ^= 1 << rng.range_u32(8);
            }
        };
        let mut data = good.to_vec();
        match kind {
            0 => data.truncate(rng.index(good.len())),
            1 => data.extend((0..1 + rng.range_u32(3)).map(|_| rng.next_u32() as u8)),
            2 => flip(&mut data, span),
            3 => flip(&mut data, span.end..good.len()),
            // One topology's connectivity section on this frame's positions.
            _ => {
                data.truncate(21);
                data.extend_from_slice(&other[21..other_span.end]);
                data.extend_from_slice(&good[span.end..]);
            }
        }
        data
    }

    holo_prop! {
        #![cases(256)]

        /// A kept decoder never differs from a fresh one, whatever it
        /// decoded or refused before: each hostile frame is decoded twice,
        /// then the good one, and every call is held to a fresh decoder's
        /// mesh bits or error kind.
        fn kept_decoder_equals_a_fresh_one_after_any_history(
            start in 6u32..10,
            edits in collection::vec((0u32..11, any::<u64>(), 2u32..23, 0u32..7), 2..9),
        ) {
            let mut kept = MeshDecoder::default();
            let mut mesh = edited(&TriMesh::new(), start, 1);
            let mut last = encode_mesh(&mesh, &MeshCodecConfig::default());
            for (kind, seed, bits, hostility) in edits {
                mesh = edited(&mesh, kind, seed);
                let good = encode_mesh(&mesh, &MeshCodecConfig { position_bits: bits });
                let bad = hostile(&good, &last, hostility, seed);
                for (call, frame) in [&bad, &bad, &good].into_iter().enumerate() {
                    let want = outcome(decode_mesh(frame));
                    prop_assert!(outcome(kept.decode(frame)) == want, "call {} after edit {} made hostile by {}", call, kind, hostility);
                }
                prop_assert!(outcome(decode_mesh(&good)).is_ok());
                last = good;
            }
        }
    }

    #[test]
    fn a_repeated_connectivity_section_is_decoded_once() {
        let cfg = MeshCodecConfig::default();
        let mut mesh = sphere_mesh();
        let first = encode_mesh(&mesh, &cfg);
        mesh.vertices.iter_mut().for_each(|v| *v *= 1.5);
        let second = encode_mesh(&mesh, &cfg);
        assert_eq!(first[connectivity_span(&first)], second[connectivity_span(&second)]);
        assert_ne!(first, second);

        let mut kept = MeshDecoder::default();
        let want = kept.decode(&first).unwrap();
        assert_eq!(kept.key.as_deref(), Some(&first[connectivity_span(&first)]));
        // Faces the section never held: a hit returns them, so the
        // section was not decoded again.
        kept.faces.iter_mut().for_each(|f| f.swap(1, 2));
        let hit = kept.decode(&second).unwrap();
        assert!(hit.faces.iter().zip(&want.faces).all(|(a, b)| *a == [b[0], b[2], b[1]]));
        // A frame refused in its positions keeps the cache; one refused
        // in its connectivity gives it up before decoding.
        assert!(kept.decode(&second[..second.len() - 1]).is_err());
        assert!(kept.key.is_some());
        let mut bad = second.clone();
        bad[connectivity_span(&second).start] ^= 1;
        assert!(kept.decode(&bad).is_err());
        assert!(kept.key.is_none());
        assert_eq!(outcome(kept.decode(&second)), outcome(decode_mesh(&second)));
    }
}
