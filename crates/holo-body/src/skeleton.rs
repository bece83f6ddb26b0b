//! The 55-joint kinematic tree.
//!
//! SMPL-X drives its body mesh from 55 joints: 25 body joints (pelvis,
//! spine, neck, head, jaw, eyes, collars, arms, legs) plus 15 finger
//! joints per hand. We reproduce the same tree with hand-authored rest
//! offsets for an average-height adult in T-pose (y-up, meters, pelvis
//! root). Shape betas deform the rest offsets (height, limb length, torso
//! length, shoulder width), mirroring SMPL-X's shape space at the level of
//! detail the experiments need.

use crate::params::{SmplxParams, SHAPE_DIM};
use holo_math::{Mat4, Vec3};

/// Number of joints in the kinematic tree (SMPL-X layout).
pub const JOINT_COUNT: usize = 55;

/// Joint identifiers, matching the SMPL-X ordering convention: body first,
/// then left-hand fingers, then right-hand fingers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Joint {
    Pelvis = 0,
    Spine1,
    Spine2,
    Spine3,
    Neck,
    Head,
    Jaw,
    LeftEye,
    RightEye,
    LeftCollar,
    RightCollar,
    LeftShoulder,
    RightShoulder,
    LeftElbow,
    RightElbow,
    LeftWrist,
    RightWrist,
    LeftHip,
    RightHip,
    LeftKnee,
    RightKnee,
    LeftAnkle,
    RightAnkle,
    LeftFoot,
    RightFoot,
    LeftThumb1,
    LeftThumb2,
    LeftThumb3,
    LeftIndex1,
    LeftIndex2,
    LeftIndex3,
    LeftMiddle1,
    LeftMiddle2,
    LeftMiddle3,
    LeftRing1,
    LeftRing2,
    LeftRing3,
    LeftPinky1,
    LeftPinky2,
    LeftPinky3,
    RightThumb1,
    RightThumb2,
    RightThumb3,
    RightIndex1,
    RightIndex2,
    RightIndex3,
    RightMiddle1,
    RightMiddle2,
    RightMiddle3,
    RightRing1,
    RightRing2,
    RightRing3,
    RightPinky1,
    RightPinky2,
    RightPinky3,
}

impl Joint {
    /// All joints in index order.
    pub fn all() -> impl Iterator<Item = Joint> {
        (0..JOINT_COUNT as u8).map(|i| unsafe { std::mem::transmute::<u8, Joint>(i) })
    }

    /// Numeric index of this joint.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Parent of each joint (`u8::MAX` marks the root).
const NO_PARENT: u8 = u8::MAX;
#[rustfmt::skip]
pub const PARENTS: [u8; JOINT_COUNT] = [
    NO_PARENT, // Pelvis
    0,   // Spine1
    1,   // Spine2
    2,   // Spine3
    3,   // Neck
    4,   // Head
    5,   // Jaw
    5,   // LeftEye
    5,   // RightEye
    3,   // LeftCollar
    3,   // RightCollar
    9,   // LeftShoulder
    10,  // RightShoulder
    11,  // LeftElbow
    12,  // RightElbow
    13,  // LeftWrist
    14,  // RightWrist
    0,   // LeftHip
    0,   // RightHip
    17,  // LeftKnee
    18,  // RightKnee
    19,  // LeftAnkle
    20,  // RightAnkle
    21,  // LeftFoot
    22,  // RightFoot
    15, 25, 26,  // LeftThumb1..3
    15, 28, 29,  // LeftIndex1..3
    15, 31, 32,  // LeftMiddle1..3
    15, 34, 35,  // LeftRing1..3
    15, 37, 38,  // LeftPinky1..3
    16, 40, 41,  // RightThumb1..3
    16, 43, 44,  // RightIndex1..3
    16, 46, 47,  // RightMiddle1..3
    16, 49, 50,  // RightRing1..3
    16, 52, 53,  // RightPinky1..3
];

/// T-pose rest offsets relative to the parent joint, meters, y-up. The
/// root offset places the pelvis of a ~1.7 m adult.
#[rustfmt::skip]
fn base_offsets() -> [Vec3; JOINT_COUNT] {
    let v = Vec3::new;
    [
        v(0.0, 0.95, 0.0),        // Pelvis (from world origin)
        v(0.0, 0.10, 0.0),        // Spine1
        v(0.0, 0.12, 0.0),        // Spine2
        v(0.0, 0.13, 0.0),        // Spine3
        v(0.0, 0.13, 0.0),        // Neck
        v(0.0, 0.10, 0.0),        // Head
        v(0.0, -0.03, 0.06),      // Jaw
        v(0.032, 0.035, 0.08),    // LeftEye
        v(-0.032, 0.035, 0.08),   // RightEye
        v(0.055, 0.09, 0.0),      // LeftCollar
        v(-0.055, 0.09, 0.0),     // RightCollar
        v(0.115, 0.02, 0.0),      // LeftShoulder
        v(-0.115, 0.02, 0.0),     // RightShoulder
        v(0.26, 0.0, 0.0),        // LeftElbow
        v(-0.26, 0.0, 0.0),       // RightElbow
        v(0.25, 0.0, 0.0),        // LeftWrist
        v(-0.25, 0.0, 0.0),       // RightWrist
        v(0.088, -0.06, 0.0),     // LeftHip
        v(-0.088, -0.06, 0.0),    // RightHip
        v(0.0, -0.40, 0.0),       // LeftKnee
        v(0.0, -0.40, 0.0),       // RightKnee
        v(0.0, -0.41, 0.0),       // LeftAnkle
        v(0.0, -0.41, 0.0),       // RightAnkle
        v(0.0, -0.05, 0.12),      // LeftFoot
        v(0.0, -0.05, 0.12),      // RightFoot
        // Left hand (fingers extend +x in T-pose).
        v(0.030, -0.010, 0.030), v(0.032, 0.0, 0.012), v(0.028, 0.0, 0.008), // thumb
        v(0.090, 0.0, 0.028),    v(0.032, 0.0, 0.0),   v(0.025, 0.0, 0.0),   // index
        v(0.094, 0.0, 0.008),    v(0.034, 0.0, 0.0),   v(0.027, 0.0, 0.0),   // middle
        v(0.090, 0.0, -0.012),   v(0.031, 0.0, 0.0),   v(0.024, 0.0, 0.0),   // ring
        v(0.082, 0.0, -0.030),   v(0.026, 0.0, 0.0),   v(0.020, 0.0, 0.0),   // pinky
        // Right hand (mirrored across x).
        v(-0.030, -0.010, 0.030), v(-0.032, 0.0, 0.012), v(-0.028, 0.0, 0.008),
        v(-0.090, 0.0, 0.028),    v(-0.032, 0.0, 0.0),   v(-0.025, 0.0, 0.0),
        v(-0.094, 0.0, 0.008),    v(-0.034, 0.0, 0.0),   v(-0.027, 0.0, 0.0),
        v(-0.090, 0.0, -0.012),   v(-0.031, 0.0, 0.0),   v(-0.024, 0.0, 0.0),
        v(-0.082, 0.0, -0.030),   v(-0.026, 0.0, 0.0),   v(-0.020, 0.0, 0.0),
    ]
}

/// A shaped (but unposed) skeleton: rest offsets after applying betas.
#[derive(Debug, Clone)]
pub struct Skeleton {
    /// Rest offset of each joint relative to its parent.
    pub rest_offsets: [Vec3; JOINT_COUNT],
}

impl Skeleton {
    /// Skeleton with all betas zero.
    pub fn neutral() -> Self {
        Self::from_betas(&[0.0; SHAPE_DIM])
    }

    /// Apply the shape space: each beta deforms a family of offsets.
    ///
    /// - `beta[0]`: overall height scale (+-5% per unit)
    /// - `beta[1]`: limb (arm + leg) length (+-4% per unit)
    /// - `beta[2]`: torso length (+-4% per unit)
    /// - `beta[3]`: shoulder width (+-5% per unit)
    /// - `beta[4..]`: reserved for girth/detail (consumed by the surface
    ///   model, not the tree)
    pub fn from_betas(betas: &[f32; SHAPE_DIM]) -> Self {
        let mut offsets = base_offsets();
        let overall = 1.0 + 0.05 * betas[0].clamp(-3.0, 3.0);
        let limb = 1.0 + 0.04 * betas[1].clamp(-3.0, 3.0);
        let torso = 1.0 + 0.04 * betas[2].clamp(-3.0, 3.0);
        let shoulders = 1.0 + 0.05 * betas[3].clamp(-3.0, 3.0);
        for j in Joint::all() {
            let i = j.index();
            offsets[i] *= overall;
            match j {
                Joint::Spine1 | Joint::Spine2 | Joint::Spine3 | Joint::Neck => offsets[i] *= torso,
                Joint::LeftCollar | Joint::RightCollar | Joint::LeftShoulder | Joint::RightShoulder => {
                    offsets[i].x *= shoulders;
                }
                Joint::LeftElbow | Joint::RightElbow | Joint::LeftWrist | Joint::RightWrist
                | Joint::LeftKnee | Joint::RightKnee | Joint::LeftAnkle | Joint::RightAnkle => {
                    offsets[i] *= limb;
                }
                _ => {}
            }
        }
        Self { rest_offsets: offsets }
    }

    /// World-space joint positions in the rest (T-)pose.
    pub fn rest_positions(&self) -> [Vec3; JOINT_COUNT] {
        let mut pos = [Vec3::ZERO; JOINT_COUNT];
        for i in 0..JOINT_COUNT {
            let p = PARENTS[i];
            pos[i] = if p == NO_PARENT { self.rest_offsets[i] } else { pos[p as usize] + self.rest_offsets[i] };
        }
        pos
    }

    /// Rest-pose world transform of each joint (pure translations).
    pub fn rest_transforms(&self) -> [Mat4; JOINT_COUNT] {
        let pos = self.rest_positions();
        std::array::from_fn(|i| Mat4::translation(pos[i]))
    }

    /// Forward kinematics: world transform of every joint under `params`.
    ///
    /// Each joint's local transform is `T(rest_offset) * R(rotation)`;
    /// the root additionally applies the global translation.
    pub fn forward_kinematics(&self, params: &SmplxParams) -> PosedSkeleton {
        let mut world = [Mat4::IDENTITY; JOINT_COUNT];
        for i in 0..JOINT_COUNT {
            let rot = params.joint_rotations[i];
            let local = Mat4::from_rotation_translation(rot, self.rest_offsets[i]);
            let p = PARENTS[i];
            world[i] = if p == NO_PARENT {
                Mat4::translation(params.translation) * local
            } else {
                world[p as usize] * local
            };
        }
        PosedSkeleton { world }
    }
}

/// The result of forward kinematics: world transforms per joint.
#[derive(Debug, Clone)]
pub struct PosedSkeleton {
    /// World transform of each joint.
    pub world: [Mat4; JOINT_COUNT],
}

impl PosedSkeleton {
    /// World position of a joint.
    #[inline]
    pub fn position(&self, j: Joint) -> Vec3 {
        self.world[j.index()].translation_part()
    }

    /// World positions of all joints in index order.
    pub fn positions(&self) -> [Vec3; JOINT_COUNT] {
        std::array::from_fn(|i| self.world[i].translation_part())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SmplxParams;
    use holo_math::Quat;

    #[test]
    fn tree_is_well_formed() {
        // Every non-root parent index precedes the child (topological order)
        for (i, &p) in PARENTS.iter().enumerate() {
            if i == 0 {
                assert_eq!(p, NO_PARENT);
            } else {
                assert!((p as usize) < i, "joint {i} has parent {p} not before it");
            }
        }
        assert_eq!(PARENTS.len(), JOINT_COUNT);
    }

    #[test]
    fn joint_roundtrip_and_count() {
        assert_eq!(Joint::all().count(), JOINT_COUNT);
        for (i, j) in Joint::all().enumerate() {
            assert_eq!(j.index(), i);
        }
        assert_eq!(Joint::RightPinky3.index(), 54);
    }

    #[test]
    fn neutral_rest_height_plausible() {
        let sk = Skeleton::neutral();
        let pos = sk.rest_positions();
        let head = pos[Joint::Head.index()];
        let foot = pos[Joint::LeftFoot.index()];
        let height = head.y - foot.y + 0.15; // head joint is not the crown
        assert!((1.4..2.1).contains(&height), "height {height}");
        // Left/right symmetry.
        assert!((pos[Joint::LeftWrist.index()].x + pos[Joint::RightWrist.index()].x).abs() < 1e-5);
    }

    #[test]
    fn identity_pose_matches_rest() {
        let sk = Skeleton::neutral();
        let posed = sk.forward_kinematics(&SmplxParams::default());
        let rest = sk.rest_positions();
        for (a, b) in posed.positions().iter().zip(rest.iter()) {
            assert!((*a - *b).length() < 1e-5);
        }
    }

    #[test]
    fn elbow_rotation_moves_wrist_only() {
        let sk = Skeleton::neutral();
        let mut params = SmplxParams::default();
        params.joint_rotations[Joint::LeftElbow.index()] =
            Quat::from_axis_angle(Vec3::Z, std::f32::consts::FRAC_PI_2);
        let posed = sk.forward_kinematics(&params);
        let rest = sk.rest_positions();
        // Shoulder unmoved.
        assert!((posed.position(Joint::LeftShoulder) - rest[Joint::LeftShoulder.index()]).length() < 1e-5);
        // Wrist displaced by roughly the forearm length.
        let moved = (posed.position(Joint::LeftWrist) - rest[Joint::LeftWrist.index()]).length();
        assert!(moved > 0.2, "wrist moved only {moved}");
        // Bone lengths preserved.
        let forearm = posed.position(Joint::LeftWrist).distance(posed.position(Joint::LeftElbow));
        let rest_forearm = rest[Joint::LeftWrist.index()].distance(rest[Joint::LeftElbow.index()]);
        assert!((forearm - rest_forearm).abs() < 1e-5);
    }

    #[test]
    fn global_rotation_spins_everything() {
        let sk = Skeleton::neutral();
        let mut params = SmplxParams::default();
        params.joint_rotations[0] = Quat::from_axis_angle(Vec3::Y, std::f32::consts::PI);
        let posed = sk.forward_kinematics(&params);
        // The left wrist should now be on the -x side.
        assert!(posed.position(Joint::LeftWrist).x < -0.3);
    }

    #[test]
    fn betas_change_height() {
        let tall = Skeleton::from_betas(&{
            let mut b = [0.0; SHAPE_DIM];
            b[0] = 2.0;
            b
        });
        let short = Skeleton::from_betas(&{
            let mut b = [0.0; SHAPE_DIM];
            b[0] = -2.0;
            b
        });
        let h = |sk: &Skeleton| sk.rest_positions()[Joint::Head.index()].y;
        assert!(h(&tall) > h(&short) + 0.1);
    }

    #[test]
    fn translation_shifts_root() {
        let sk = Skeleton::neutral();
        let params = SmplxParams { translation: Vec3::new(1.0, 0.0, -2.0), ..Default::default() };
        let posed = sk.forward_kinematics(&params);
        let rest = sk.rest_positions();
        let delta = posed.position(Joint::Head) - rest[Joint::Head.index()];
        assert!((delta - Vec3::new(1.0, 0.0, -2.0)).length() < 1e-5);
    }

    #[test]
    fn skinning_matrices_identity_at_rest() {
        let sk = Skeleton::neutral();
        let posed = sk.forward_kinematics(&SmplxParams::default());
        // Skinning matrix `world[i] * rest[i]^-1` maps rest-pose points
        // into the posed frame: the identity at rest.
        let p = Vec3::new(0.1, 1.2, 0.05);
        for (world, rest) in posed.world.iter().zip(sk.rest_transforms()) {
            assert!(((*world * rest.rigid_inverse()).transform_point(p) - p).length() < 1e-4);
        }
    }
}
