//! The fixed-topology skinned body mesh — the SMPL-X mesh substitute.
//!
//! SMPL-X decodes parameters into a 10,475-vertex / 20,908-face template
//! mesh. [`BodyModel`] reproduces that: a template extracted once from the
//! neutral T-pose SDF at a resolution calibrated to land in the same size
//! class, with per-vertex linear-blend-skinning weights derived from bone
//! proximity. Posing is pure LBS, so mesh topology (and therefore the
//! Table 2 wire size) is constant across frames, exactly like SMPL-X.

use crate::params::SmplxParams;
use crate::skeleton::{Skeleton, JOINT_COUNT};
use crate::surface::{body_bones, BodySdf, SurfaceDetail};
use holo_math::Vec3;
use holo_mesh::sdf::{Sdf, SdfRoundCone};
use holo_mesh::sparse::sparse_extract;
use holo_mesh::trimesh::TriMesh;
use std::sync::{Arc, OnceLock};

/// Extraction resolution for the template; calibrated so the template
/// lands in SMPL-X's size class (~10k vertices, ~21k faces).
const TEMPLATE_RESOLUTION: u32 = 64;
/// Number of joints influencing each vertex.
const INFLUENCES: usize = 4;

/// A parametric body mesh: fixed-topology template + skinning weights.
#[derive(Debug, Clone)]
pub struct BodyModel {
    /// The neutral skeleton the template was built on.
    pub skeleton: Skeleton,
    /// T-pose template mesh.
    pub template: TriMesh,
    /// Per-vertex joint influences: `(joint index, weight)`, weights sum
    /// to 1.
    pub weights: Vec<[(u16, f32); INFLUENCES]>,
}

static STANDARD: OnceLock<Arc<BodyModel>> = OnceLock::new();

impl BodyModel {
    /// The shared standard model (built once per process; extraction takes
    /// on the order of a second).
    pub fn standard() -> Arc<BodyModel> {
        STANDARD.get_or_init(|| Arc::new(Self::build(TEMPLATE_RESOLUTION))).clone()
    }

    /// Build a model at an explicit template resolution.
    pub fn build(resolution: u32) -> Self {
        let skeleton = Skeleton::neutral();
        let params = SmplxParams::default();
        let sdf = BodySdf::from_pose(&skeleton, &params, SurfaceDetail::bare());
        let template = sparse_extract(&sdf, resolution, 0.03);
        let posed = skeleton.forward_kinematics(&params);
        let bones = body_bones(&posed, 1.0);

        // Per-vertex influences: inverse-square distance to the nearest
        // bones, grouped by driver joint.
        let mut weights = Vec::with_capacity(template.vertices.len());
        for &v in &template.vertices {
            // Distance to the closest bone of each driver joint.
            let mut per_joint = [f32::INFINITY; JOINT_COUNT];
            for bone in &bones {
                let cone = SdfRoundCone { a: bone.a, b: bone.b, ra: bone.ra, rb: bone.rb };
                let d = cone.distance(v).max(0.0) + 1e-3;
                let j = bone.driver.index();
                if d < per_joint[j] {
                    per_joint[j] = d;
                }
            }
            // Top-`INFLUENCES` joints by proximity.
            let mut order: Vec<usize> = (0..JOINT_COUNT).filter(|&j| per_joint[j].is_finite()).collect();
            order.sort_by(|&a, &b| per_joint[a].partial_cmp(&per_joint[b]).unwrap());
            let mut infl = [(0u16, 0f32); INFLUENCES];
            let mut total = 0.0;
            for (slot, &j) in order.iter().take(INFLUENCES).enumerate() {
                let w = 1.0 / (per_joint[j] * per_joint[j]);
                infl[slot] = (j as u16, w);
                total += w;
            }
            for slot in &mut infl {
                slot.1 /= total.max(1e-12);
            }
            weights.push(infl);
        }
        Self { skeleton, template, weights }
    }

    /// Vertex count of the fixed template.
    pub fn vertex_count(&self) -> usize {
        self.template.vertex_count()
    }

    /// Face count of the fixed template.
    pub fn face_count(&self) -> usize {
        self.template.face_count()
    }

    /// Pose the template with linear blend skinning. Topology (faces) is
    /// shared with the template; positions are fresh; normals are left
    /// empty — no reader of a posed mesh wants them (the codecs and the
    /// raw wire carry positions and faces only), and a receiver computes
    /// its own with [`TriMesh::compute_normals`].
    pub fn pose_mesh(&self, params: &SmplxParams) -> TriMesh {
        let skeleton = Skeleton::from_betas(&params.betas);
        let posed = skeleton.forward_kinematics(params);
        // Skinning matrices map *neutral* rest space into the posed,
        // shaped space (shape changes ride along via the joint
        // transforms).
        let rest = self.skeleton.rest_transforms();
        let mats: Vec<holo_math::Mat4> =
            (0..JOINT_COUNT).map(|i| posed.world[i] * rest[i].rigid_inverse()).collect();
        let mut out = TriMesh {
            vertices: Vec::with_capacity(self.template.vertices.len()),
            faces: self.template.faces.clone(),
            normals: Vec::new(),
            colors: self.template.colors.clone(),
        };
        for (v, infl) in self.template.vertices.iter().zip(&self.weights) {
            let mut p = Vec3::ZERO;
            for &(j, w) in infl {
                if w > 0.0 {
                    p += mats[j as usize].transform_point(*v) * w;
                }
            }
            out.vertices.push(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::Joint;
    use holo_math::Quat;

    fn model() -> Arc<BodyModel> {
        BodyModel::standard()
    }

    #[test]
    fn template_in_smplx_size_class() {
        let m = model();
        let v = m.vertex_count();
        let f = m.face_count();
        // SMPL-X: 10,475 vertices / 20,908 faces. Same order of magnitude
        // required; exact equality is not meaningful for a different
        // tessellation.
        assert!((6_000..16_000).contains(&v), "vertex count {v}");
        assert!((12_000..32_000).contains(&f), "face count {f}");
        assert!(m.template.validate().is_ok());
    }

    #[test]
    fn weights_normalized() {
        let m = model();
        for infl in &m.weights {
            let sum: f32 = infl.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-4, "weight sum {sum}");
            for &(j, w) in infl {
                assert!((j as usize) < JOINT_COUNT);
                assert!((0.0..=1.0 + 1e-4).contains(&w));
            }
        }
    }

    #[test]
    fn identity_pose_reproduces_template() {
        let m = model();
        let posed = m.pose_mesh(&SmplxParams::default());
        let mut max_dev = 0.0f32;
        for (a, b) in posed.vertices.iter().zip(&m.template.vertices) {
            max_dev = max_dev.max((*a - *b).length());
        }
        assert!(max_dev < 1e-4, "identity pose deviation {max_dev}");
    }

    #[test]
    fn posed_mesh_keeps_topology_and_size() {
        let m = model();
        let mut rng = holo_math::Pcg32::new(4);
        let params = SmplxParams::random_plausible(&mut rng);
        let posed = m.pose_mesh(&params);
        assert_eq!(posed.face_count(), m.face_count());
        assert_eq!(posed.vertex_count(), m.vertex_count());
        assert_eq!(posed.raw_size_bytes(), m.template.raw_size_bytes());
        assert!(posed.validate().is_ok());
    }

    #[test]
    fn posed_mesh_leaves_normals_empty() {
        // The template has normals; a posed mesh has fresh positions
        // only, and is a valid mesh without them.
        let m = model();
        assert_eq!(m.template.normals.len(), m.vertex_count());
        let mut rng = holo_math::Pcg32::new(9);
        for params in [SmplxParams::default(), SmplxParams::random_plausible(&mut rng)] {
            let posed = m.pose_mesh(&params);
            assert!(posed.normals.is_empty(), "{} normals", posed.normals.len());
            assert_eq!(posed.vertex_count(), m.vertex_count());
            assert!(posed.validate().is_ok());
        }
    }

    #[test]
    fn elbow_bend_moves_forearm_vertices() {
        let m = model();
        let mut params = SmplxParams::default();
        params.joint_rotations[Joint::LeftElbow.index()] = Quat::from_axis_angle(Vec3::Y, 1.2);
        let posed = m.pose_mesh(&params);
        let rest_wrist = m.skeleton.rest_positions()[Joint::LeftWrist.index()];
        // Count vertices near the rest wrist before/after: they should move.
        let near_before = m.template.vertices.iter().filter(|v| v.distance(rest_wrist) < 0.08).count();
        let near_after = posed.vertices.iter().filter(|v| v.distance(rest_wrist) < 0.08).count();
        assert!(near_before > 0);
        assert!(
            (near_after as f32) < near_before as f32 * 0.5,
            "forearm vertices did not move: {near_before} -> {near_after}"
        );
    }

    #[test]
    fn torso_stable_under_arm_motion() {
        let m = model();
        let mut params = SmplxParams::default();
        params.joint_rotations[Joint::LeftShoulder.index()] = Quat::from_axis_angle(Vec3::Z, -1.0);
        let posed = m.pose_mesh(&params);
        // A vertex near the pelvis should barely move.
        let pelvis = m.skeleton.rest_positions()[Joint::Pelvis.index()];
        let (idx, _) = m
            .template
            .vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.distance(pelvis)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let moved = posed.vertices[idx].distance(m.template.vertices[idx]);
        assert!(moved < 0.02, "pelvis vertex moved {moved}");
    }
}
