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
//! 4. **Adaptive range coding** of every symbol class.
//!
//! The codec is lossless in connectivity (up to vertex re-ordering;
//! unreferenced vertices are dropped) and lossy in positions by at most
//! half a quantization step per component.

use crate::primitives::{unzigzag, zigzag};
use crate::rc::{decode_bucketed, encode_bucketed, BitModel, BitTree, RangeDecoder, RangeEncoder};
use holo_math::Vec3;
use holo_mesh::trimesh::TriMesh;
use holo_runtime::ser::{ByteReader, DecodeError};
use std::collections::HashMap;

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

const MAGIC: u32 = 0x4D43_4431; // "MCD1"

struct Models {
    /// First op bit: 1 = skip (no face across this edge).
    skip: BitModel,
    /// Second op bit: 1 = new vertex, 0 = known vertex.
    is_new: BitModel,
    /// Seed-vertex "already discovered" bit.
    seed_known: BitModel,
    /// Residual magnitude trees per component (attach prediction).
    attach: [BitTree; 3],
    /// Delta trees per component (seed absolute coding).
    seed: [BitTree; 3],
    /// Known-vertex back-reference tree.
    backref: BitTree,
}

impl Models {
    fn new() -> Self {
        Self {
            skip: BitModel::new(),
            is_new: BitModel::new(),
            seed_known: BitModel::new(),
            attach: [BitTree::new(6), BitTree::new(6), BitTree::new(6)],
            seed: [BitTree::new(6), BitTree::new(6), BitTree::new(6)],
            backref: BitTree::new(6),
        }
    }
}

type QPos = [i32; 3];

fn quantize_positions(mesh: &TriMesh, bits: u32) -> (Vec<QPos>, Vec3, f32) {
    let bounds = mesh.bounds();
    let (origin, step) = if mesh.vertices.is_empty() {
        (Vec3::ZERO, 1.0)
    } else {
        let longest = bounds.longest_side().max(1e-9);
        (bounds.min, longest / ((1u64 << bits) - 1) as f32)
    };
    let q = mesh
        .vertices
        .iter()
        .map(|v| {
            let r = (*v - origin) / step;
            [r.x.round() as i32, r.y.round() as i32, r.z.round() as i32]
        })
        .collect();
    (q, origin, step)
}

/// Encode a mesh. Unreferenced vertices are not preserved.
pub fn encode_mesh(mesh: &TriMesh, cfg: &MeshCodecConfig) -> Vec<u8> {
    encode_mesh_with_permutation(mesh, cfg).0
}

/// Like [`encode_mesh`], additionally returning the vertex permutation:
/// `perm[k]` is the index in `mesh.vertices` of the vertex the decoder
/// will emit at position `k` (discovery order). Temporal coding needs it
/// to compute deltas against the receiver's reordered reference.
pub fn encode_mesh_with_permutation(mesh: &TriMesh, cfg: &MeshCodecConfig) -> (Vec<u8>, Vec<u32>) {
    if !holo_trace::enabled() {
        return encode_mesh_inner(mesh, cfg);
    }
    let timer = holo_trace::WallTimer::start();
    let out = encode_mesh_inner(mesh, cfg);
    timer.stop("compress.mesh.encode_us");
    // Raw baseline: 12 bytes/vertex position + 12 bytes/face of indices.
    let raw = mesh.vertices.len() * 12 + mesh.faces.len() * 12;
    let permille = out.0.len() as u64 * 1000 / raw.max(1) as u64;
    holo_trace::histogram("compress.mesh.ratio_permille", permille);
    holo_trace::counter("compress.mesh.bytes_out", out.0.len() as u64);
    out
}

fn encode_mesh_inner(mesh: &TriMesh, cfg: &MeshCodecConfig) -> (Vec<u8>, Vec<u32>) {
    let bits = cfg.position_bits.clamp(4, 20);
    let (qpos, origin, step) = quantize_positions(mesh, bits);

    // Header (uncoded): magic, bits, face count, origin, step.
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(bits as u8);
    out.extend_from_slice(&(mesh.faces.len() as u32).to_le_bytes());
    for c in [origin.x, origin.y, origin.z, step] {
        out.extend_from_slice(&c.to_le_bytes());
    }

    let mut order: Vec<u32> = Vec::with_capacity(mesh.vertices.len());
    if mesh.faces.is_empty() {
        return (out, order);
    }

    // Directed edge -> (face index, third vertex). First writer wins;
    // duplicate directed edges (non-manifold) are reached via seeding.
    let mut edge_map: HashMap<(u32, u32), (u32, u32)> = HashMap::new();
    for (fi, f) in mesh.faces.iter().enumerate() {
        for k in 0..3 {
            let a = f[k];
            let b = f[(k + 1) % 3];
            let c = f[(k + 2) % 3];
            edge_map.entry((a, b)).or_insert((fi as u32, c));
        }
    }

    let mut enc = RangeEncoder::new();
    let mut models = Models::new();
    let mut visited = vec![false; mesh.faces.len()];
    let mut disc: Vec<Option<u32>> = vec![None; mesh.vertices.len()];
    let mut next_disc = 0u32;
    let mut last_abs: QPos = [0, 0, 0];
    // Stack entries: (u, v, opp) — find the face containing directed edge
    // (u, v); `opp` supports parallelogram prediction.
    let mut stack: Vec<(u32, u32, u32)> = Vec::new();

    let encode_residual = |enc: &mut RangeEncoder, models: &mut [BitTree; 3], r: QPos| {
        for (k, tree) in models.iter_mut().enumerate() {
            encode_bucketed(enc, tree, zigzag(r[k]));
        }
    };

    for seed_face in 0..mesh.faces.len() {
        if visited[seed_face] {
            continue;
        }
        // Start a component: emit the seed triangle's vertices.
        visited[seed_face] = true;
        let f = mesh.faces[seed_face];
        for &v in &f {
            match disc[v as usize] {
                Some(d) => {
                    enc.encode_bit(&mut models.seed_known, 1);
                    encode_bucketed(&mut enc, &mut models.backref, next_disc - 1 - d);
                }
                None => {
                    enc.encode_bit(&mut models.seed_known, 0);
                    let q = qpos[v as usize];
                    let r = [q[0] - last_abs[0], q[1] - last_abs[1], q[2] - last_abs[2]];
                    encode_residual(&mut enc, &mut models.seed, r);
                    last_abs = q;
                    disc[v as usize] = Some(next_disc);
                    order.push(v);
                    next_disc += 1;
                }
            }
        }
        let (s0, s1, s2) = (f[0], f[1], f[2]);
        stack.push((s1, s0, s2));
        stack.push((s2, s1, s0));
        stack.push((s0, s2, s1));

        while let Some((u, v, opp)) = stack.pop() {
            let hit = edge_map.get(&(u, v)).copied();
            let (fi, c) = match hit {
                Some((fi, c)) if !visited[fi as usize] => (fi, c),
                _ => {
                    enc.encode_bit(&mut models.skip, 1);
                    continue;
                }
            };
            enc.encode_bit(&mut models.skip, 0);
            visited[fi as usize] = true;
            match disc[c as usize] {
                Some(d) => {
                    enc.encode_bit(&mut models.is_new, 0);
                    encode_bucketed(&mut enc, &mut models.backref, next_disc - 1 - d);
                }
                None => {
                    enc.encode_bit(&mut models.is_new, 1);
                    let (qu, qv, qo) =
                        (qpos[u as usize], qpos[v as usize], qpos[opp as usize]);
                    let pred = [qu[0] + qv[0] - qo[0], qu[1] + qv[1] - qo[1], qu[2] + qv[2] - qo[2]];
                    let q = qpos[c as usize];
                    let r = [q[0] - pred[0], q[1] - pred[1], q[2] - pred[2]];
                    encode_residual(&mut enc, &mut models.attach, r);
                    disc[c as usize] = Some(next_disc);
                    order.push(c);
                    next_disc += 1;
                }
            }
            stack.push((c, v, u));
            stack.push((u, c, v));
        }
    }

    out.extend_from_slice(&enc.finish());
    (out, order)
}

/// Decode a mesh produced by [`encode_mesh`]. Vertices come back in
/// discovery order; faces keep their original winding.
///
/// Hostile-input contract: never panics (all header parsing is
/// bounds-checked, residual arithmetic wraps instead of overflowing),
/// and never allocates beyond what the coded bytes actually pay for —
/// a truncated or zero-padded stream is caught by the range decoder's
/// exhaustion check instead of spinning to a 100M-face declared count.
pub fn decode_mesh(data: &[u8]) -> Result<TriMesh, DecodeError> {
    if !holo_trace::enabled() {
        return decode_mesh_inner(data);
    }
    let timer = holo_trace::WallTimer::start();
    let out = decode_mesh_inner(data);
    timer.stop("compress.mesh.decode_us");
    out
}

/// Most faces one coded byte can legitimately produce: a saturated
/// skip/is_new model pair costs ~0.011 bits per face, so ~715
/// faces/byte is the physical ceiling; 1024 adds margin without
/// admitting absurd declared counts.
const MAX_FACES_PER_BYTE: usize = 1024;

fn decode_mesh_inner(data: &[u8]) -> Result<TriMesh, DecodeError> {
    let mut r = ByteReader::new(data);
    r.expect_magic(MAGIC)?;
    let _bits = r.u8()?;
    let face_count = r.u32_le()? as usize;
    let fl = [r.f32_le()?, r.f32_le()?, r.f32_le()?, r.f32_le()?];
    let (origin, step) = (Vec3::new(fl[0], fl[1], fl[2]), fl[3]);
    if !step.is_finite() || step <= 0.0 {
        return Err(DecodeError::corrupt("mesh header", "invalid quantization step"));
    }

    let mut mesh = TriMesh::new();
    if face_count == 0 {
        return Ok(mesh);
    }
    // Guard against absurd declared counts on corrupted input: more
    // faces than the coded bytes could possibly encode.
    let face_cap = data.len().saturating_mul(MAX_FACES_PER_BYTE).min(100_000_000);
    if face_count > face_cap {
        return Err(DecodeError::LimitExceeded {
            what: "mesh faces",
            requested: face_count as u64,
            limit: face_cap as u64,
        });
    }

    let mut dec = RangeDecoder::new(r.rest());
    let mut models = Models::new();
    let mut qverts: Vec<QPos> = Vec::new();
    let mut last_abs: QPos = [0, 0, 0];
    let mut stack: Vec<(u32, u32, u32)> = Vec::new();

    let decode_residual = |dec: &mut RangeDecoder<'_>, trees: &mut [BitTree; 3]| -> QPos {
        let mut r = [0i32; 3];
        for (k, tree) in trees.iter_mut().enumerate() {
            r[k] = unzigzag(decode_bucketed(dec, tree));
        }
        r
    };

    while mesh.faces.len() < face_count {
        if dec.exhausted() {
            // A valid stream always carries enough coded bytes for its
            // declared face count; running dry means truncation (or a
            // zero-fed tail after corruption).
            return Err(DecodeError::Truncated { needed: face_count, available: mesh.faces.len() });
        }
        if stack.is_empty() {
            // Seed triangle.
            let mut ids = [0u32; 3];
            for slot in &mut ids {
                if dec.decode_bit(&mut models.seed_known) == 1 {
                    let back = decode_bucketed(&mut dec, &mut models.backref);
                    let n = qverts.len() as u32;
                    if back >= n {
                        return Err(DecodeError::corrupt("mesh", "seed backref out of range"));
                    }
                    *slot = n - 1 - back;
                } else {
                    let r = decode_residual(&mut dec, &mut models.seed);
                    // Wrapping: hostile residuals may not fit i32 sums;
                    // the reconstructed positions are garbage either
                    // way, but the decoder must not panic in debug.
                    let q = [
                        last_abs[0].wrapping_add(r[0]),
                        last_abs[1].wrapping_add(r[1]),
                        last_abs[2].wrapping_add(r[2]),
                    ];
                    last_abs = q;
                    *slot = qverts.len() as u32;
                    qverts.push(q);
                }
            }
            mesh.faces.push(ids);
            let (s0, s1, s2) = (ids[0], ids[1], ids[2]);
            stack.push((s1, s0, s2));
            stack.push((s2, s1, s0));
            stack.push((s0, s2, s1));
            continue;
        }
        let Some((u, v, opp)) = stack.pop() else { unreachable!("stack checked non-empty") };
        if dec.decode_bit(&mut models.skip) == 1 {
            continue;
        }
        let c = if dec.decode_bit(&mut models.is_new) == 1 {
            let (qu, qv, qo) = (qverts[u as usize], qverts[v as usize], qverts[opp as usize]);
            let r = decode_residual(&mut dec, &mut models.attach);
            let q = [
                qu[0].wrapping_add(qv[0]).wrapping_sub(qo[0]).wrapping_add(r[0]),
                qu[1].wrapping_add(qv[1]).wrapping_sub(qo[1]).wrapping_add(r[1]),
                qu[2].wrapping_add(qv[2]).wrapping_sub(qo[2]).wrapping_add(r[2]),
            ];
            let id = qverts.len() as u32;
            qverts.push(q);
            id
        } else {
            let back = decode_bucketed(&mut dec, &mut models.backref);
            let n = qverts.len() as u32;
            if back >= n {
                return Err(DecodeError::corrupt("mesh", "backref out of range"));
            }
            n - 1 - back
        };
        mesh.faces.push([u, v, c]);
        stack.push((c, v, u));
        stack.push((u, c, v));
    }

    mesh.vertices = qverts
        .into_iter()
        .map(|q| origin + Vec3::new(q[0] as f32, q[1] as f32, q[2] as f32) * step)
        .collect();
    mesh.compute_normals();
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;
    use holo_mesh::sdf::SdfSphere;
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

    #[test]
    fn nonmanifold_edge_survives() {
        // Three triangles sharing one edge.
        let mut m = TriMesh::new();
        m.vertices = vec![
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        m.faces = vec![[0, 1, 2], [0, 1, 3], [0, 1, 4]];
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
    fn random_soup_roundtrips() {
        // Random triangle soup (worst case for prediction, still correct).
        let mut rng = Pcg32::new(7);
        let mut m = TriMesh::new();
        for _ in 0..200 {
            m.vertices.push(Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
            ));
        }
        for _ in 0..300 {
            let a = rng.range_u32(200);
            let mut b = rng.range_u32(200);
            let mut c = rng.range_u32(200);
            if b == a {
                b = (b + 1) % 200;
            }
            if c == a || c == b {
                c = (c + 2) % 200;
            }
            m.faces.push([a, b, c]);
        }
        let data = encode_mesh(&m, &MeshCodecConfig::default());
        let decoded = decode_mesh(&data).unwrap();
        assert_eq!(decoded.face_count(), m.face_count());
    }
}
