//! SMPL-X parameter fitting from 3D keypoints.
//!
//! The paper's proof-of-concept takes "3D keypoints aligned with SMPL-X
//! parameters as input". This module performs the alignment: given noisy
//! observed joint positions, it recovers translation and per-joint
//! rotations by hierarchical two-vector fitting down the kinematic tree —
//! each joint's rotation is the one that best aligns its rest-pose bone
//! direction(s) with the observed one(s), expressed in the parent's
//! already-fitted frame.
//!
//! Limitations are intentional and mirror real keypoint pipelines: bone
//! *twist* is unobservable from positions alone except at two-vector
//! joints, and leaf joints (fingertips, jaw, eyes) carry no recoverable
//! rotation. These losses are part of the quality gap Figs. 2 and 3
//! measure.

use holo_body::params::SmplxParams;
use holo_body::skeleton::{Joint, Skeleton, JOINT_COUNT, PARENTS};
use holo_math::{Quat, Vec3};

/// Shortest-arc quaternion rotating unit vector `a` onto unit vector `b`.
fn shortest_arc(a: Vec3, b: Vec3) -> Quat {
    let d = a.dot(b);
    if d > 0.99999 {
        return Quat::IDENTITY;
    }
    if d < -0.99999 {
        // 180 degrees about any axis orthogonal to a.
        let axis = a.any_orthonormal();
        return Quat::from_axis_angle(axis, std::f32::consts::PI);
    }
    let axis = a.cross(b);
    Quat::new(axis.x, axis.y, axis.z, 1.0 + d).normalized()
}

/// After aligning the primary direction, add the twist about it that best
/// aligns a secondary direction.
fn with_twist(primary_aligned: Quat, about: Vec3, rest_secondary: Vec3, obs_secondary: Vec3) -> Quat {
    let axis = about.normalized();
    // Project both secondaries onto the plane orthogonal to the axis.
    let cur = primary_aligned.rotate(rest_secondary);
    let proj = |v: Vec3| (v - axis * v.dot(axis)).normalized();
    let a = proj(cur);
    let b = proj(obs_secondary);
    if a.length_sq() < 1e-8 || b.length_sq() < 1e-8 {
        return primary_aligned;
    }
    let cos = a.dot(b).clamp(-1.0, 1.0);
    let sin = axis.dot(a.cross(b));
    let angle = sin.atan2(cos);
    Quat::from_axis_angle(axis, angle) * primary_aligned
}

/// Primary (and optional secondary) child used to fit each joint's
/// rotation. `None` = leaf, keep identity.
fn fit_children(j: Joint) -> Option<(Joint, Option<Joint>)> {
    use Joint::*;
    Some(match j {
        Pelvis => (Spine1, Some(LeftHip)),
        Spine1 => (Spine2, None),
        Spine2 => (Spine3, None),
        Spine3 => (Neck, Some(LeftCollar)),
        Neck => (Head, None),
        Head => (LeftEye, Some(RightEye)),
        LeftCollar => (LeftShoulder, None),
        RightCollar => (RightShoulder, None),
        LeftShoulder => (LeftElbow, None),
        RightShoulder => (RightElbow, None),
        LeftElbow => (LeftWrist, None),
        RightElbow => (RightWrist, None),
        LeftWrist => (LeftMiddle1, Some(LeftIndex1)),
        RightWrist => (RightMiddle1, Some(RightIndex1)),
        LeftHip => (LeftKnee, None),
        RightHip => (RightKnee, None),
        LeftKnee => (LeftAnkle, None),
        RightKnee => (RightAnkle, None),
        LeftAnkle => (LeftFoot, None),
        RightAnkle => (RightFoot, None),
        LeftThumb1 => (LeftThumb2, None),
        LeftThumb2 => (LeftThumb3, None),
        LeftIndex1 => (LeftIndex2, None),
        LeftIndex2 => (LeftIndex3, None),
        LeftMiddle1 => (LeftMiddle2, None),
        LeftMiddle2 => (LeftMiddle3, None),
        LeftRing1 => (LeftRing2, None),
        LeftRing2 => (LeftRing3, None),
        LeftPinky1 => (LeftPinky2, None),
        LeftPinky2 => (LeftPinky3, None),
        RightThumb1 => (RightThumb2, None),
        RightThumb2 => (RightThumb3, None),
        RightIndex1 => (RightIndex2, None),
        RightIndex2 => (RightIndex3, None),
        RightMiddle1 => (RightMiddle2, None),
        RightMiddle2 => (RightMiddle3, None),
        RightRing1 => (RightRing2, None),
        RightRing2 => (RightRing3, None),
        RightPinky1 => (RightPinky2, None),
        RightPinky2 => (RightPinky3, None),
        // Leaves: no observable rotation.
        Jaw | LeftEye | RightEye | LeftFoot | RightFoot | LeftThumb3 | RightThumb3 | LeftIndex3
        | RightIndex3 | LeftMiddle3 | RightMiddle3 | LeftRing3 | RightRing3 | LeftPinky3
        | RightPinky3 => return None,
    })
}

/// Fit SMPL-X parameters from observed joint positions.
///
/// `observed` contains positions in skeleton joint order (the layout of
/// `StandardLandmarks::Joints55` and up). A sparse detector may provide
/// only the first 25 body joints; joints whose fit children are
/// unobserved keep their rest rotation (the sparse-detector quality
/// penalty of ablation D). Shape betas and expression are *not*
/// estimated here; callers carry them through separate channels (shape
/// from a calibration phase, expression from the face tracker).
pub fn fit_params(observed: &[Vec3], skeleton: &Skeleton) -> Result<SmplxParams, String> {
    if observed.len() < 25 {
        return Err(format!("need at least 25 joint observations, got {}", observed.len()));
    }
    let rest = skeleton.rest_positions();
    // Translation from the pelvis.
    let mut params = SmplxParams { translation: observed[0] - rest[0], ..Default::default() };

    // Accumulated world rotation per joint.
    let mut world_rot = [Quat::IDENTITY; JOINT_COUNT];

    for j in Joint::all() {
        let ji = j.index();
        let parent_rot = if ji == 0 {
            Quat::IDENTITY
        } else {
            world_rot[PARENTS[ji] as usize]
        };
        let Some((primary, secondary)) = fit_children(j) else {
            world_rot[ji] = parent_rot;
            continue;
        };
        // Sparse detectors may not observe this joint's children.
        if primary.index() >= observed.len() || ji >= observed.len() {
            world_rot[ji] = parent_rot;
            continue;
        }
        let secondary = secondary.filter(|s| s.index() < observed.len());
        // Rest-pose bone directions in the joint's unrotated local frame
        // (rest offsets are expressed in a shared world frame).
        let rest_primary = (rest[primary.index()] - rest[ji]).normalized();
        let obs_primary_world = (observed[primary.index()] - observed[ji]).normalized();
        if rest_primary.length_sq() < 1e-8 || obs_primary_world.length_sq() < 1e-8 {
            world_rot[ji] = parent_rot;
            continue;
        }
        // Bring the observation into the parent's frame.
        let obs_primary = parent_rot.conjugate().rotate(obs_primary_world);
        let mut local = shortest_arc(rest_primary, obs_primary);
        if let Some(sec) = secondary {
            let rest_sec = (rest[sec.index()] - rest[ji]).normalized();
            let obs_sec = parent_rot.conjugate().rotate((observed[sec.index()] - observed[ji]).normalized());
            if rest_sec.length_sq() > 1e-8 && obs_sec.length_sq() > 1e-8 {
                local = with_twist(local, obs_primary, rest_sec, obs_sec);
            }
        }
        params.joint_rotations[ji] = local;
        world_rot[ji] = parent_rot * local;
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_body::motion::{MotionKind, MotionSynthesizer};
    use holo_math::Pcg32;

    /// Mean joint position error (meters) between a fit and observations:
    /// runs FK on the fitted parameters and compares.
    fn fit_position_error(params: &SmplxParams, observed: &[Vec3], skeleton: &Skeleton) -> f32 {
        let posed = skeleton.forward_kinematics(params);
        let positions = posed.positions();
        let n = JOINT_COUNT.min(observed.len());
        let sum: f32 = (0..n).map(|i| positions[i].distance(observed[i])).sum();
        sum / n as f32
    }

    #[test]
    fn shortest_arc_aligns() {
        let mut rng = Pcg32::new(1);
        for _ in 0..100 {
            let a = Vec3::new(rng.normal(), rng.normal(), rng.normal()).normalized();
            let b = Vec3::new(rng.normal(), rng.normal(), rng.normal()).normalized();
            let q = shortest_arc(a, b);
            assert!((q.rotate(a) - b).length() < 1e-4);
        }
        // Antiparallel case.
        let q = shortest_arc(Vec3::X, -Vec3::X);
        assert!((q.rotate(Vec3::X) + Vec3::X).length() < 1e-4);
    }

    #[test]
    fn identity_pose_fits_identity() {
        let sk = Skeleton::neutral();
        let obs = sk.rest_positions().to_vec();
        let fit = fit_params(&obs, &sk).unwrap();
        assert!(fit.translation.length() < 1e-5);
        let err = fit_position_error(&fit, &obs, &sk);
        assert!(err < 1e-4, "rest-pose fit error {err}");
    }

    #[test]
    fn clean_poses_fit_accurately() {
        let sk = Skeleton::neutral();
        let mut synth = MotionSynthesizer::new(3);
        let clip = synth.clip(MotionKind::Talking, 1.0, 10.0);
        for frame in &clip.frames {
            let truth = sk.forward_kinematics(frame).positions().to_vec();
            let fit = fit_params(&truth, &sk).unwrap();
            let err = fit_position_error(&fit, &truth, &sk);
            assert!(err < 0.02, "clean fit error {err}");
        }
    }

    #[test]
    fn noisy_fit_error_bounded_and_worse_than_clean() {
        let sk = Skeleton::neutral();
        let mut synth = MotionSynthesizer::new(5);
        let clip = synth.clip(MotionKind::Waving, 1.0, 10.0);
        let mut rng = Pcg32::new(9);
        let sigma = 0.01f32;
        let mut clean_sum = 0.0;
        let mut noisy_sum = 0.0;
        for frame in &clip.frames {
            let truth = sk.forward_kinematics(frame).positions().to_vec();
            let noisy: Vec<Vec3> = truth
                .iter()
                .map(|&p| p + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * sigma)
                .collect();
            let fit_clean = fit_params(&truth, &sk).unwrap();
            let fit_noisy = fit_params(&noisy, &sk).unwrap();
            clean_sum += fit_position_error(&fit_clean, &truth, &sk);
            noisy_sum += fit_position_error(&fit_noisy, &truth, &sk);
        }
        let n = clip.len() as f32;
        let (clean, noisy) = (clean_sum / n, noisy_sum / n);
        assert!(noisy > clean, "noise must hurt: clean {clean} noisy {noisy}");
        assert!(noisy < 0.05, "noisy fit error {noisy} too large");
    }

    #[test]
    fn translation_recovered() {
        let sk = Skeleton::neutral();
        let params = SmplxParams { translation: Vec3::new(0.7, 0.0, -1.2), ..Default::default() };
        let obs = sk.forward_kinematics(&params).positions().to_vec();
        let fit = fit_params(&obs, &sk).unwrap();
        assert!((fit.translation - params.translation).length() < 1e-4);
    }

    #[test]
    fn global_rotation_recovered() {
        let sk = Skeleton::neutral();
        let mut params = SmplxParams::default();
        params.joint_rotations[0] = Quat::from_axis_angle(Vec3::Y, 1.1);
        let obs = sk.forward_kinematics(&params).positions().to_vec();
        let fit = fit_params(&obs, &sk).unwrap();
        let err = fit_position_error(&fit, &obs, &sk);
        assert!(err < 0.01, "global rotation fit error {err}");
        let angle = fit.joint_rotations[0].angle_to(params.joint_rotations[0]);
        assert!(angle < 0.05, "global rotation angle error {angle}");
    }

    #[test]
    fn too_few_observations_is_error() {
        let sk = Skeleton::neutral();
        assert!(fit_params(&[Vec3::ZERO; 10], &sk).is_err());
    }
}
