//! Keypoint / landmark sets.
//!
//! §3.1 notes that "a modest number of keypoints (e.g., ~100) can
//! represent the human model" and that extracting more keypoints trades
//! computation for quality (ablation D). A [`LandmarkSet`] maps a posed
//! skeleton to a list of 3D landmark positions at a chosen density:
//! joints only, joints plus mid-bone points, or additionally dense face
//! and hand rings.

use crate::skeleton::{Joint, PosedSkeleton, JOINT_COUNT, PARENTS};
use holo_math::Vec3;

/// Preset landmark densities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandardLandmarks {
    /// 25 body joints only (no fingers) — the cheapest detector output.
    Sparse25,
    /// All 55 skeleton joints.
    Joints55,
    /// 55 joints + 25 mid-bone points + 20 face-ring points = 100, the
    /// payload density the paper's 1.91 KB frame assumes.
    Standard100,
    /// Standard100 + 19 extra face + 25 hand-surface points = 144.
    Dense144,
    /// Dense144 + another 100 interpolated body-surface points = 244.
    Dense244,
}

impl StandardLandmarks {
    /// Number of landmarks this preset emits.
    pub fn count(self) -> usize {
        match self {
            StandardLandmarks::Sparse25 => 25,
            StandardLandmarks::Joints55 => 55,
            StandardLandmarks::Standard100 => 100,
            StandardLandmarks::Dense144 => 144,
            StandardLandmarks::Dense244 => 244,
        }
    }

    /// Payload size in bytes for this density (3 x f32 per landmark).
    pub fn payload_bytes(self) -> usize {
        self.count() * 12
    }
}

/// A concrete landmark extractor.
#[derive(Debug, Clone, Copy)]
pub struct LandmarkSet {
    /// The preset density.
    pub preset: StandardLandmarks,
}

impl LandmarkSet {
    /// Create an extractor for a preset.
    pub fn new(preset: StandardLandmarks) -> Self {
        Self { preset }
    }

    /// Landmark positions for a posed skeleton, in a fixed deterministic
    /// order (so sender and receiver agree on indexing).
    pub fn positions(&self, posed: &PosedSkeleton) -> Vec<Vec3> {
        let joints = posed.positions();
        let mut out = Vec::with_capacity(self.preset.count());
        match self.preset {
            StandardLandmarks::Sparse25 => {
                out.extend_from_slice(&joints[..25]);
            }
            StandardLandmarks::Joints55 => {
                out.extend_from_slice(&joints);
            }
            StandardLandmarks::Standard100 => {
                out.extend_from_slice(&joints);
                out.extend(mid_bone_points(&joints, 25));
                out.extend(face_ring(posed, 20));
            }
            StandardLandmarks::Dense144 => {
                out.extend_from_slice(&joints);
                out.extend(mid_bone_points(&joints, 25));
                out.extend(face_ring(posed, 39));
                out.extend(hand_surface_points(posed, 25));
            }
            StandardLandmarks::Dense244 => {
                out.extend_from_slice(&joints);
                out.extend(mid_bone_points(&joints, 25));
                out.extend(face_ring(posed, 39));
                out.extend(hand_surface_points(posed, 25));
                out.extend(body_surface_points(&joints, 100));
            }
        }
        debug_assert_eq!(out.len(), self.preset.count());
        out
    }
}

/// Midpoints of the first `n` parent-child bone segments (body bones
/// first, so low counts cover the torso and limbs).
fn mid_bone_points(joints: &[Vec3; JOINT_COUNT], n: usize) -> Vec<Vec3> {
    let mut out = Vec::with_capacity(n);
    for i in 1..JOINT_COUNT {
        if out.len() >= n {
            break;
        }
        let p = PARENTS[i] as usize;
        out.push((joints[i] + joints[p]) * 0.5);
    }
    // Pad with quarter points if the tree ran out (n > 54 never happens
    // with current presets).
    while out.len() < n {
        out.push(joints[0]);
    }
    out
}

/// `n` points on an ellipse around the face (landmarks a face detector
/// would output: jawline, brows, lips).
fn face_ring(posed: &PosedSkeleton, n: usize) -> Vec<Vec3> {
    let head = posed.position(Joint::Head);
    let m = &posed.world[Joint::Head.index()];
    let right = m.transform_dir(Vec3::X);
    let up = m.transform_dir(Vec3::Y);
    let fwd = m.transform_dir(Vec3::Z);
    (0..n)
        .map(|i| {
            let theta = std::f32::consts::TAU * i as f32 / n as f32;
            head + fwd * 0.09 + right * (0.055 * theta.cos()) + up * (0.07 * theta.sin())
        })
        .collect()
}

/// `n` points across the palms and backs of both hands.
fn hand_surface_points(posed: &PosedSkeleton, n: usize) -> Vec<Vec3> {
    let lw = posed.position(Joint::LeftWrist);
    let lm = posed.position(Joint::LeftMiddle1);
    let rw = posed.position(Joint::RightWrist);
    let rm = posed.position(Joint::RightMiddle1);
    (0..n)
        .map(|i| {
            let t = (i % 5) as f32 / 5.0;
            let spread = ((i / 5) as f32 - 2.0) * 0.012;
            if i % 2 == 0 {
                lw.lerp(lm, t) + Vec3::new(0.0, spread, 0.0)
            } else {
                rw.lerp(rm, t) + Vec3::new(0.0, spread, 0.0)
            }
        })
        .collect()
}

/// `n` interpolated points along all bones (denser body coverage).
fn body_surface_points(joints: &[Vec3; JOINT_COUNT], n: usize) -> Vec<Vec3> {
    let mut out = Vec::with_capacity(n);
    let mut i = 1usize;
    let fractions = [0.25, 0.75];
    let mut fi = 0usize;
    while out.len() < n {
        let p = PARENTS[i] as usize;
        out.push(joints[p].lerp(joints[i], fractions[fi]));
        i += 1;
        if i >= JOINT_COUNT {
            i = 1;
            fi = (fi + 1) % fractions.len();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SmplxParams;
    use crate::skeleton::Skeleton;

    fn posed() -> PosedSkeleton {
        Skeleton::neutral().forward_kinematics(&SmplxParams::default())
    }

    #[test]
    fn all_presets_emit_exact_counts() {
        let posed = posed();
        for preset in [
            StandardLandmarks::Sparse25,
            StandardLandmarks::Joints55,
            StandardLandmarks::Standard100,
            StandardLandmarks::Dense144,
            StandardLandmarks::Dense244,
        ] {
            let pts = LandmarkSet::new(preset).positions(&posed);
            assert_eq!(pts.len(), preset.count(), "{preset:?}");
            for p in &pts {
                assert!(p.is_finite());
            }
        }
    }

    #[test]
    fn standard100_payload_is_1200_bytes() {
        assert_eq!(StandardLandmarks::Standard100.payload_bytes(), 1200);
    }

    #[test]
    fn landmarks_near_the_body() {
        let posed = posed();
        let pts = LandmarkSet::new(StandardLandmarks::Dense244).positions(&posed);
        let bounds = holo_math::Aabb::from_points(&posed.positions()).expanded(0.15);
        for p in pts {
            assert!(bounds.contains(p), "landmark {p:?} far from body");
        }
    }

    #[test]
    fn face_ring_sits_in_front_of_head() {
        let posed = posed();
        let pts = LandmarkSet::new(StandardLandmarks::Standard100).positions(&posed);
        let head = posed.position(Joint::Head);
        // Last 20 are the face ring.
        for p in &pts[80..] {
            assert!(p.z > head.z, "face point {p:?} behind head");
            assert!(p.distance(head) < 0.2);
        }
    }

    #[test]
    fn landmarks_track_pose() {
        let sk = Skeleton::neutral();
        let params = SmplxParams { translation: Vec3::new(0.5, 0.0, 0.0), ..Default::default() };
        let moved = sk.forward_kinematics(&params);
        let rest = sk.forward_kinematics(&SmplxParams::default());
        let set = LandmarkSet::new(StandardLandmarks::Standard100);
        let a = set.positions(&rest);
        let b = set.positions(&moved);
        for (pa, pb) in a.iter().zip(&b) {
            assert!(((*pb - *pa) - Vec3::new(0.5, 0.0, 0.0)).length() < 1e-4);
        }
    }
}
