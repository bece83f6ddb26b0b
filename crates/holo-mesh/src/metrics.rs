//! Geometric quality metrics.
//!
//! The visual-quality axis of Table 1 and Fig. 2 is quantified here: the
//! reconstructed mesh is compared against the ground-truth capture via
//! point-sampled Chamfer distance, Hausdorff distance, F-score at a
//! tolerance, and normal consistency. All metrics are symmetric unless
//! noted and operate on area-uniform surface samples for meshes.

use crate::grid::PointGrid;
use crate::trimesh::TriMesh;
use holo_math::{Pcg32, Vec3};

/// Bundle of mesh-vs-mesh quality metrics.
#[derive(Debug, Clone, Copy)]
pub struct MeshQuality {
    /// Symmetric Chamfer distance (mean of the two directed means), meters.
    pub chamfer: f32,
    /// Symmetric Hausdorff distance (max of directed maxima), meters.
    pub hausdorff: f32,
    /// F-score at the tolerance used when computing the bundle, in [0, 1].
    pub f_score: f32,
    /// Mean absolute cosine between matched normals, in [0, 1].
    pub normal_consistency: f32,
}

/// Directed mean distance from each point in `from` to its nearest
/// neighbor in `to` (given as a prebuilt grid).
fn directed_mean(from: &[Vec3], to: &PointGrid) -> f32 {
    if from.is_empty() {
        return f32::INFINITY;
    }
    let sum: f32 = from.iter().map(|&p| to.nearest_distance(p)).sum();
    sum / from.len() as f32
}

/// Directed max distance.
fn directed_max(from: &[Vec3], to: &PointGrid) -> f32 {
    from.iter().map(|&p| to.nearest_distance(p)).fold(0.0, f32::max)
}

/// Symmetric Chamfer distance between two point sets.
pub fn chamfer_distance(a: &[Vec3], b: &[Vec3]) -> f32 {
    if a.is_empty() || b.is_empty() {
        return f32::INFINITY;
    }
    let ga = PointGrid::auto(a.to_vec());
    let gb = PointGrid::auto(b.to_vec());
    0.5 * (directed_mean(a, &gb) + directed_mean(b, &ga))
}

/// F-score at tolerance `tau`: harmonic mean of precision (fraction of `a`
/// within `tau` of `b`) and recall (fraction of `b` within `tau` of `a`).
pub fn f_score(a: &[Vec3], b: &[Vec3], tau: f32) -> f32 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let ga = PointGrid::auto(a.to_vec());
    let gb = PointGrid::auto(b.to_vec());
    let precision = a.iter().filter(|&&p| gb.nearest_distance(p) <= tau).count() as f32 / a.len() as f32;
    let recall = b.iter().filter(|&&p| ga.nearest_distance(p) <= tau).count() as f32 / b.len() as f32;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Mean absolute cosine between the normal of each sample in `a` and the
/// normal of its nearest neighbor in `b` (directed; callers typically
/// average both directions).
pub fn normal_consistency(a_pts: &[Vec3], a_nrm: &[Vec3], b_pts: &[Vec3], b_nrm: &[Vec3]) -> f32 {
    if a_pts.is_empty() || b_pts.is_empty() {
        return 0.0;
    }
    let gb = PointGrid::auto(b_pts.to_vec());
    let mut sum = 0.0;
    for (p, n) in a_pts.iter().zip(a_nrm) {
        if let Some((j, _)) = gb.nearest(*p) {
            sum += n.dot(b_nrm[j as usize]).abs();
        }
    }
    sum / a_pts.len() as f32
}

/// Compare two meshes by sampling `samples` area-uniform points from each.
///
/// `tau` is the F-score tolerance (a good default is 1% of the bounding
/// box diagonal of the reference mesh). Deterministic given `seed`.
pub fn compare_meshes(reference: &TriMesh, candidate: &TriMesh, samples: usize, tau: f32, seed: u64) -> MeshQuality {
    let mut rng = Pcg32::new(seed);
    let (ra, na) = reference.sample_surface(samples, &mut rng);
    let (rb, nb) = candidate.sample_surface(samples, &mut rng);
    if ra.is_empty() || rb.is_empty() {
        return MeshQuality { chamfer: f32::INFINITY, hausdorff: f32::INFINITY, f_score: 0.0, normal_consistency: 0.0 };
    }
    let ga = PointGrid::auto(ra.clone());
    let gb = PointGrid::auto(rb.clone());
    let chamfer = 0.5 * (directed_mean(&ra, &gb) + directed_mean(&rb, &ga));
    let hausdorff = directed_max(&ra, &gb).max(directed_max(&rb, &ga));
    let precision = rb.iter().filter(|&&p| ga.nearest_distance(p) <= tau).count() as f32 / rb.len() as f32;
    let recall = ra.iter().filter(|&&p| gb.nearest_distance(p) <= tau).count() as f32 / ra.len() as f32;
    let fs = if precision + recall == 0.0 { 0.0 } else { 2.0 * precision * recall / (precision + recall) };
    let nc = 0.5 * (normal_consistency(&ra, &na, &rb, &nb) + normal_consistency(&rb, &nb, &ra, &na));
    MeshQuality { chamfer, hausdorff, f_score: fs, normal_consistency: nc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Mat4;

    fn sphere(r: f32) -> TriMesh {
        TriMesh::uv_sphere(Vec3::ZERO, r, 24, 48)
    }

    #[test]
    fn identical_meshes_score_perfectly() {
        // With finite sampling the Chamfer floor is the inter-sample
        // spacing (~sqrt(area/n)/2 ≈ 0.03 for 5000 samples on a unit
        // sphere), so tolerances reflect that, not zero.
        let m = sphere(1.0);
        let q = compare_meshes(&m, &m, 5000, 0.06, 7);
        assert!(q.chamfer < 0.05, "chamfer {}", q.chamfer);
        assert!(q.f_score > 0.9, "f-score {}", q.f_score);
        assert!(q.normal_consistency > 0.95, "nc {}", q.normal_consistency);
    }

    #[test]
    fn chamfer_grows_with_offset() {
        let a = sphere(1.0);
        let mut b = sphere(1.0);
        b.transform(&Mat4::translation(Vec3::new(0.3, 0.0, 0.0)));
        let near = compare_meshes(&a, &a, 1500, 0.02, 1).chamfer;
        let far = compare_meshes(&a, &b, 1500, 0.02, 1).chamfer;
        assert!(far > near * 2.0, "near {near} far {far}");
    }

    #[test]
    fn chamfer_radius_difference_scales() {
        let a = sphere(1.0);
        let b = sphere(1.1);
        let q = compare_meshes(&a, &b, 3000, 0.02, 2);
        // Two concentric spheres differ by ~0.1 everywhere.
        assert!((q.chamfer - 0.1).abs() < 0.03, "chamfer {}", q.chamfer);
        assert!(q.hausdorff >= q.chamfer);
    }

    #[test]
    fn f_score_tolerance_behaviour() {
        let a = sphere(1.0);
        let b = sphere(1.05);
        let strict = compare_meshes(&a, &b, 2000, 0.01, 3).f_score;
        let loose = compare_meshes(&a, &b, 2000, 0.1, 3).f_score;
        assert!(loose > strict, "loose {loose} strict {strict}");
        assert!(loose > 0.95);
    }

    #[test]
    fn point_set_metrics_basics() {
        let a = vec![Vec3::ZERO, Vec3::X];
        let b = vec![Vec3::ZERO, Vec3::X];
        assert!(chamfer_distance(&a, &b) < 1e-6);
        assert_eq!(f_score(&a, &b, 0.01), 1.0);
        let c = vec![Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
        assert!(chamfer_distance(&a, &c) > 0.0);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let empty: Vec<Vec3> = Vec::new();
        let some = vec![Vec3::ZERO];
        assert_eq!(chamfer_distance(&empty, &some), f32::INFINITY);
        assert_eq!(f_score(&empty, &some, 0.1), 0.0);
        let q = compare_meshes(&TriMesh::new(), &sphere(1.0), 100, 0.01, 4);
        assert_eq!(q.f_score, 0.0);
    }

    #[test]
    fn normal_consistency_detects_orientation() {
        let m = sphere(1.0);
        let mut rng = Pcg32::new(5);
        let (pts, nrm) = m.sample_surface(1000, &mut rng);
        let nc_same = normal_consistency(&pts, &nrm, &pts, &nrm);
        assert!(nc_same > 0.999);
        // Random normals should score noticeably lower.
        let mut rng2 = Pcg32::new(6);
        let random_nrm: Vec<Vec3> = (0..pts.len())
            .map(|_| Vec3::new(rng2.normal(), rng2.normal(), rng2.normal()).normalized())
            .collect();
        let nc_rand = normal_consistency(&pts, &random_nrm, &pts, &nrm);
        assert!(nc_rand < 0.7, "random nc {nc_rand}");
    }
}
