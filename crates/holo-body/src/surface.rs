//! The posed body as an analytic signed distance field.
//!
//! This is the X-Avatar substitute: where the paper's proof-of-concept
//! decodes geometry from a pose-conditioned neural implicit function, we
//! build an analytic implicit function from the posed skeleton — rounded
//! cones for limbs, capsules for fingers and spine, ellipsoids for head,
//! torso and hips — blended with a smooth union. Ground-truth captures add
//! high-frequency cloth displacement (folds) and expression bumps, the
//! detail that keypoints cannot encode and whose loss Fig. 2 and Fig. 3
//! visualize.

use crate::expression::ExpressionBasis;
use crate::params::SmplxParams;
use crate::skeleton::{Joint, PosedSkeleton, Skeleton};
use holo_math::{Aabb, Vec3};
use holo_mesh::sdf::{GriddedUnion, Primitive, Sdf, SdfCapsule, SdfEllipsoid, SdfHull, SdfRoundCone, SdfScope, SdfSphere};

/// What surface detail to include when building a [`BodySdf`].
#[derive(Debug, Clone, Copy)]
pub struct SurfaceDetail {
    /// High-frequency cloth-fold displacement over the clothed region.
    pub cloth: bool,
    /// Cloth displacement amplitude, meters.
    pub cloth_amplitude: f32,
    /// Cloth displacement spatial frequency, cycles per meter.
    pub cloth_frequency: f32,
    /// Apply expression bumps on the face.
    pub expression: bool,
}

impl SurfaceDetail {
    /// Full ground-truth detail (what the RGB-D rig captures).
    pub fn full() -> Self {
        Self { cloth: true, cloth_amplitude: 0.008, cloth_frequency: 14.0, expression: true }
    }

    /// Bare geometry, as reconstructable from keypoints alone: no cloth
    /// folds (keypoints carry no texture/detail) — the "non-clothed body
    /// structure" of §3.1.
    pub fn bare() -> Self {
        Self { cloth: false, cloth_amplitude: 0.0, cloth_frequency: 0.0, expression: true }
    }
}

/// Per-bone capsule/cone description used both for the SDF and for the
/// skinning-weight computation in [`crate::model::BodyModel`].
#[derive(Debug, Clone, Copy)]
pub struct Bone {
    /// Joint whose transform drives this bone's surface.
    pub driver: Joint,
    /// Segment endpoints (world space, posed).
    pub a: Vec3,
    pub b: Vec3,
    /// Radii at the two endpoints.
    pub ra: f32,
    pub rb: f32,
}

/// Build the bone list for a posed skeleton. `girth` scales all radii
/// (driven by shape beta 4).
pub fn body_bones(posed: &PosedSkeleton, girth: f32) -> Vec<Bone> {
    let positions = posed.positions();
    body_bones_from_positions(&positions, girth)
}

/// Build the bone list directly from joint world positions — the
/// model-free reconstruction path of §3.1 (no parametric fitting; the
/// observed keypoints *are* the skeleton, jitter and all).
pub fn body_bones_from_positions(
    positions: &[Vec3; crate::skeleton::JOINT_COUNT],
    girth: f32,
) -> Vec<Bone> {
    let p = |j: Joint| positions[j.index()];
    let mut bones = Vec::with_capacity(64);
    let mut seg = |driver: Joint, a: Vec3, b: Vec3, ra: f32, rb: f32| {
        bones.push(Bone { driver, a, b, ra: ra * girth, rb: rb * girth });
    };
    use Joint::*;
    // Arms: upper arm tapers into forearm into wrist.
    seg(LeftShoulder, p(LeftShoulder), p(LeftElbow), 0.050, 0.040);
    seg(LeftElbow, p(LeftElbow), p(LeftWrist), 0.040, 0.030);
    seg(RightShoulder, p(RightShoulder), p(RightElbow), 0.050, 0.040);
    seg(RightElbow, p(RightElbow), p(RightWrist), 0.040, 0.030);
    // Legs.
    seg(LeftHip, p(LeftHip), p(LeftKnee), 0.080, 0.058);
    seg(LeftKnee, p(LeftKnee), p(LeftAnkle), 0.058, 0.040);
    seg(LeftAnkle, p(LeftAnkle), p(LeftFoot), 0.040, 0.034);
    seg(RightHip, p(RightHip), p(RightKnee), 0.080, 0.058);
    seg(RightKnee, p(RightKnee), p(RightAnkle), 0.058, 0.040);
    seg(RightAnkle, p(RightAnkle), p(RightFoot), 0.040, 0.034);
    // Spine / neck.
    seg(Pelvis, p(Pelvis), p(Spine1), 0.105, 0.100);
    seg(Spine1, p(Spine1), p(Spine2), 0.100, 0.105);
    seg(Spine2, p(Spine2), p(Spine3), 0.105, 0.110);
    seg(Spine3, p(Spine3), p(Neck), 0.110, 0.055);
    seg(Neck, p(Neck), p(Head), 0.055, 0.050);
    // Collars connect chest to shoulders.
    seg(LeftCollar, p(LeftCollar), p(LeftShoulder), 0.055, 0.050);
    seg(RightCollar, p(RightCollar), p(RightShoulder), 0.055, 0.050);
    // Fingers: one thin capsule per phalanx, tapering slightly.
    let fingers = [
        (LeftThumb1, LeftThumb2, LeftThumb3),
        (LeftIndex1, LeftIndex2, LeftIndex3),
        (LeftMiddle1, LeftMiddle2, LeftMiddle3),
        (LeftRing1, LeftRing2, LeftRing3),
        (LeftPinky1, LeftPinky2, LeftPinky3),
        (RightThumb1, RightThumb2, RightThumb3),
        (RightIndex1, RightIndex2, RightIndex3),
        (RightMiddle1, RightMiddle2, RightMiddle3),
        (RightRing1, RightRing2, RightRing3),
        (RightPinky1, RightPinky2, RightPinky3),
    ];
    for (j1, j2, j3) in fingers {
        let wrist = if (j1 as usize) < (RightThumb1 as usize) { LeftWrist } else { RightWrist };
        seg(wrist, p(wrist), p(j1), 0.030, 0.011);
        seg(j1, p(j1), p(j2), 0.011, 0.009);
        seg(j2, p(j2), p(j3), 0.009, 0.007);
        // Fingertip extends a little past the last joint.
        let tip = p(j3) + (p(j3) - p(j2)).normalized() * 0.02;
        seg(j3, p(j3), tip, 0.007, 0.006);
    }
    bones
}

/// The blend part for one bone: a capsule when it does not taper.
fn bone_part(bone: &Bone) -> Primitive {
    if (bone.ra - bone.rb).abs() < 1e-4 {
        Primitive::Capsule(SdfCapsule { a: bone.a, b: bone.b, radius: bone.ra })
    } else {
        Primitive::RoundCone(SdfRoundCone { a: bone.a, b: bone.b, ra: bone.ra, rb: bone.rb })
    }
}

/// Pull each expression bump's center onto the actual body surface
/// (blendshape displacement is a *surface* phenomenon; head geometry
/// varies with pose and girth, so the nominal face-frame anchor can sit
/// off the skin).
fn project_bumps_to_surface(union: &GriddedUnion, bumps: &mut [(Vec3, f32, f32)]) {
    for (center, _, _) in bumps.iter_mut() {
        for _ in 0..4 {
            let d = union.distance(*center);
            if d.abs() < 1e-4 {
                break;
            }
            let n = union.normal(*center, 1e-3);
            *center -= n * d;
        }
    }
}

// How every body blends its parts: blend radius (meters), grid cells
// per axis, and part-listing margin (meters) of its `GriddedUnion`.
const BLEND_RADIUS: f32 = 0.02;
const GRID_DIMS: u32 = 24;
const LIST_MARGIN: f32 = 0.28;

/// The posed body surface as a signed distance field.
pub struct BodySdf {
    union: GriddedUnion,
    /// Expression bumps: `(center, radius, displacement)`.
    bumps: Vec<(Vec3, f32, f32)>,
    /// A ball `(center, radius)` containing every bump's support; a point
    /// outside it skips the bump loop, which could not touch it.
    bump_ball: (Vec3, f32),
    cloth: Option<(f32, f32)>, // (amplitude, frequency)
    /// Only points below this height get cloth displacement (clothes cover
    /// the body, not the face).
    cloth_top: f32,
    bounds: Aabb,
}

impl BodySdf {
    /// Build the SDF for `params` on `skeleton`, with the given detail.
    pub fn from_pose(skeleton: &Skeleton, params: &SmplxParams, detail: SurfaceDetail) -> Self {
        let posed = skeleton.forward_kinematics(params);
        Self::from_posed(&posed, params, detail)
    }

    /// Model-free construction: the surface is hung directly on observed
    /// joint positions. Head orientation is estimated from the neck-head
    /// axis (twist unobservable), and expression bumps use that frame.
    pub fn from_joint_positions(
        positions: &[Vec3; crate::skeleton::JOINT_COUNT],
        expression: &[f32; crate::params::EXPRESSION_DIM],
        detail: SurfaceDetail,
    ) -> Self {
        let girth = 1.0;
        let mut parts: Vec<Primitive> = body_bones_from_positions(positions, girth).iter().map(bone_part).collect();
        let head = positions[Joint::Head.index()];
        let neck = positions[Joint::Neck.index()];
        let head_up = (head - neck).normalized();
        parts.push(Primitive::Ellipsoid(SdfEllipsoid {
            center: head + head_up * 0.04,
            radii: Vec3::new(0.085, 0.115, 0.095),
        }));
        // Chin from the jaw keypoint directly.
        let jaw = positions[Joint::Jaw.index()];
        parts.push(Primitive::Sphere(SdfSphere { center: jaw + Vec3::new(0.0, -0.02, 0.02), radius: 0.045 }));
        let pelvis = positions[Joint::Pelvis.index()];
        parts.push(Primitive::Ellipsoid(SdfEllipsoid {
            center: pelvis - Vec3::new(0.0, 0.02, 0.0),
            radii: Vec3::new(0.14, 0.11, 0.10),
        }));
        let union = GriddedUnion::build(parts, BLEND_RADIUS, GRID_DIMS, LIST_MARGIN);
        // Head frame: forward from the eye midpoint.
        let eyes = (positions[Joint::LeftEye.index()] + positions[Joint::RightEye.index()]) * 0.5;
        let fwd = (eyes - head).normalized();
        let head_rot = quat_from_frame(if fwd.length_sq() > 1e-6 { fwd } else { Vec3::Z }, head_up);
        let bumps = if detail.expression {
            ExpressionBasis::standard().bumps(expression, head, head_rot)
        } else {
            Vec::new()
        };
        Self::assemble(union, bumps, detail, neck.y)
    }

    /// Build from an already-computed posed skeleton.
    pub fn from_posed(posed: &PosedSkeleton, params: &SmplxParams, detail: SurfaceDetail) -> Self {
        let girth = 1.0 + 0.06 * params.betas[4].clamp(-3.0, 3.0);
        let mut parts: Vec<Primitive> = body_bones(posed, girth).iter().map(bone_part).collect();
        // Head: an ellipsoid around the head joint.
        let head = posed.position(Joint::Head);
        let head_up = posed.world[Joint::Head.index()].transform_dir(Vec3::Y);
        parts.push(Primitive::Ellipsoid(SdfEllipsoid {
            center: head + head_up * 0.04,
            radii: Vec3::new(0.085, 0.115, 0.095) * girth,
        }));
        // Jaw: a chin sphere attached to the jaw joint's *frame*, so
        // rotating the jaw (mouth opening) visibly moves the chin.
        let chin = posed.world[Joint::Jaw.index()].transform_point(Vec3::new(0.0, -0.025, 0.035));
        parts.push(Primitive::Sphere(SdfSphere { center: chin, radius: 0.045 * girth }));
        // Pelvis mass.
        let pelvis = posed.position(Joint::Pelvis);
        parts.push(Primitive::Ellipsoid(SdfEllipsoid {
            center: pelvis - Vec3::new(0.0, 0.02, 0.0),
            radii: Vec3::new(0.14, 0.11, 0.10) * girth,
        }));
        let union = GriddedUnion::build(parts, BLEND_RADIUS, GRID_DIMS, LIST_MARGIN);

        let bumps = if detail.expression {
            let basis = ExpressionBasis::standard();
            let head_rot = {
                // Extract the head rotation from its world transform.
                let m = &posed.world[Joint::Head.index()];
                let fwd = m.transform_dir(Vec3::Z);
                let up = m.transform_dir(Vec3::Y);
                quat_from_frame(fwd, up)
            };
            basis.bumps(&params.expression, head, head_rot)
        } else {
            Vec::new()
        };
        Self::assemble(union, bumps, detail, posed.position(Joint::Neck).y)
    }

    /// The steps both constructors share once the blend is built: seat
    /// the bumps on its surface, bound them, and derive cloth and bounds.
    fn assemble(union: GriddedUnion, mut bumps: Vec<(Vec3, f32, f32)>, detail: SurfaceDetail, cloth_top: f32) -> Self {
        project_bumps_to_surface(&union, &mut bumps);
        let middle = bumps.iter().fold(Vec3::ZERO, |sum, b| sum + b.0) / bumps.len().max(1) as f32;
        // The margin keeps rounding in `detail`'s own distance on the safe side.
        let reach = bumps.iter().map(|&(c, r, _)| (c - middle).length() + r + 1e-4).fold(0.0, f32::max);
        let cloth = detail.cloth.then_some((detail.cloth_amplitude, detail.cloth_frequency));
        let mut bounds = union.bounds();
        if detail.cloth {
            bounds = bounds.expanded(detail.cloth_amplitude);
        }
        Self { union, bumps, bump_ball: (middle, reach), cloth, cloth_top, bounds }
    }

    /// The blended primitives, before expression and cloth detail.
    pub fn union(&self) -> &GriddedUnion {
        &self.union
    }

    /// World-space centers of the active expression bumps (projected onto
    /// the surface), in the order of the non-zero expression components.
    pub fn bump_centers(&self) -> Vec<Vec3> {
        self.bumps.iter().map(|&(c, _, _)| c).collect()
    }
}

/// Build a rotation quaternion from a forward/up frame (columns).
fn quat_from_frame(fwd: Vec3, up: Vec3) -> holo_math::Quat {
    // Gram-Schmidt, then matrix-to-quaternion via the largest diagonal.
    let f = fwd.normalized();
    let u = (up - f * up.dot(f)).normalized();
    let r = u.cross(f).normalized(); // right = up x forward (left-handed fix below)
    // Rows of the rotation matrix mapping local (X=right', Y=up, Z=fwd).
    let m = [
        Vec3::new(r.x, u.x, f.x),
        Vec3::new(r.y, u.y, f.y),
        Vec3::new(r.z, u.z, f.z),
    ];
    let trace = m[0].x + m[1].y + m[2].z;
    if trace > 0.0 {
        let s = (trace + 1.0).sqrt() * 2.0;
        holo_math::Quat::new(
            (m[2].y - m[1].z) / s,
            (m[0].z - m[2].x) / s,
            (m[1].x - m[0].y) / s,
            0.25 * s,
        )
        .normalized()
    } else {
        // Fall back to axis-angle via the dominant axis; adequate for the
        // head poses motion synthesis produces.
        let axis = Vec3::new(m[2].y - m[1].z, m[0].z - m[2].x, m[1].x - m[0].y);
        if axis.length() < 1e-6 {
            holo_math::Quat::IDENTITY
        } else {
            holo_math::Quat::from_axis_angle(axis, std::f32::consts::PI)
        }
    }
}

impl BodySdf {
    /// Surface detail on top of the blended-primitive distance `d` at `p`.
    #[inline]
    fn detail(&self, p: Vec3, mut d: f32) -> f32 {
        // Expression bumps: local outward displacement.
        let (middle, reach) = self.bump_ball;
        if (p - middle).length_sq() < reach * reach {
            for &(center, radius, disp) in &self.bumps {
                let r = (p - center).length();
                if r < radius {
                    let w = holo_math::smoothstep(radius, 0.0, r);
                    d -= disp * w;
                }
            }
        }
        // Cloth folds: band-limited displacement below the neck.
        if let Some((amp, freq)) = self.cloth {
            if p.y < self.cloth_top && d.abs() < amp * 4.0 {
                let w = freq * std::f32::consts::TAU;
                let fold = (p.x * w).sin() * (p.y * w * 0.83).sin() * (p.z * w * 1.19).sin();
                // Fade the displacement in near the neck line.
                let fade = holo_math::smoothstep(self.cloth_top, self.cloth_top - 0.1, p.y);
                d += fold * amp * fade;
            }
        }
        d
    }
}

impl Sdf for BodySdf {
    fn distance(&self, p: Vec3) -> f32 {
        let mut out = [0.0];
        self.distance_batch(&[p], &mut out);
        out[0]
    }

    fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The union's lanes, then the detail point by point.
    fn distance_batch(&self, ps: &[Vec3], out: &mut [f32]) {
        self.union.distance_batch(ps, out);
        for (&p, d) in ps.iter().zip(out) {
            *d = self.detail(p, *d);
        }
    }

    fn distance_in(&self, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        let mut out = [(0.0, scope)];
        self.distance_batch_in(&[p], scope, radius, &mut out);
        out[0]
    }

    /// The detail is a function of the point and the union's value, so
    /// which parts are alive is the union's alone; the interval the
    /// union proves is loosened by what `detail` can add inside the ball.
    fn distance_batch_in(&self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        self.union.distance_batch_in(ps, scope, radius, out);
        for (&p, (d, scope)) in ps.iter().zip(out) {
            *d = self.detail(p, *d);
            if radius == 0.0 {
                continue; // the union bounds nothing at a point
            }
            // Every bump whose support meets the ball, at full strength, and
            // the cloth's amplitude where the ball dips below the neck line.
            // A ball that cannot meet the bump ball meets no bump: `reach`
            // exceeds each support's far side by a margin that covers the
            // rounding of both tests.
            let (middle, reach) = self.bump_ball;
            let bumps: f32 = if (p - middle).length() >= reach + radius {
                0.0
            } else {
                self.bumps.iter().filter(|&&(c, r, _)| (p - c).length() < r + radius).map(|b| b.2.abs()).sum()
            };
            let cloth = self.cloth.filter(|_| p.y - radius < self.cloth_top).map_or(0.0, |(amp, _)| amp);
            *scope = scope.loosened(bumps + cloth);
        }
    }

    /// The union's hull, lowered by the most `detail` can take off: every
    /// outward bump at full strength, and the cloth's amplitude.
    fn hull(&self) -> Option<SdfHull<'_>> {
        let bumps: f32 = self.bumps.iter().map(|b| b.2.max(0.0)).sum();
        let cloth = self.cloth.map_or(0.0, |(amp, _)| amp.abs());
        self.union.hull().map(|hull| hull.lowered(bumps + cloth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::{MotionKind, MotionSynthesizer};
    use holo_math::Pcg32;
    use holo_mesh::sdf::smooth_min;
    use holo_runtime::prop_assert_eq;

    /// The bone whose round cone is nearest `p`, and the distance to it.
    fn nearest_bone(bones: &[Bone], p: Vec3) -> (Joint, f32) {
        let mut best = (Joint::Pelvis, f32::INFINITY);
        for bone in bones {
            let cone = SdfRoundCone { a: bone.a, b: bone.b, ra: bone.ra, rb: bone.rb };
            let d = cone.distance(p);
            if d < best.1 {
                best = (bone.driver, d);
            }
        }
        best
    }

    fn neutral_sdf(detail: SurfaceDetail) -> BodySdf {
        let sk = Skeleton::neutral();
        BodySdf::from_pose(&sk, &SmplxParams::default(), detail)
    }

    #[test]
    fn torso_inside_feet_ground_outside() {
        let body = neutral_sdf(SurfaceDetail::bare());
        // Chest center is inside.
        assert!(body.distance(Vec3::new(0.0, 1.25, 0.0)) < 0.0);
        // Head center is inside.
        assert!(body.distance(Vec3::new(0.0, 1.62, 0.0)) < 0.0);
        // A point 1 m in front of the chest is outside.
        assert!(body.distance(Vec3::new(0.0, 1.25, 1.0)) > 0.5);
        // Between the legs is outside.
        assert!(body.distance(Vec3::new(0.0, 0.4, 0.0)) > 0.0);
    }

    #[test]
    fn bounds_contain_surface() {
        let body = neutral_sdf(SurfaceDetail::full());
        let b = body.bounds();
        assert!(b.contains(Vec3::new(0.0, 1.6, 0.0)));
        assert!(b.contains(Vec3::new(0.6, 1.4, 0.0)), "T-pose arms inside bounds");
        assert!(b.min.y < 0.2, "feet near the ground");
    }

    #[test]
    fn bone_list_covers_both_sides() {
        let sk = Skeleton::neutral();
        let posed = sk.forward_kinematics(&SmplxParams::default());
        let bones = body_bones(&posed, 1.0);
        assert!(bones.len() > 50, "bone count {}", bones.len());
        let left = bones.iter().filter(|b| b.a.x > 0.01 || b.b.x > 0.01).count();
        let right = bones.iter().filter(|b| b.a.x < -0.01 || b.b.x < -0.01).count();
        assert!(left > 10 && right > 10);
    }

    #[test]
    fn cloth_changes_surface_slightly() {
        let bare = neutral_sdf(SurfaceDetail::bare());
        let full = neutral_sdf(SurfaceDetail::full());
        let mut rng = Pcg32::new(1);
        let mut diffs = 0;
        for _ in 0..2000 {
            let p = Vec3::new(rng.range_f32(-0.3, 0.3), rng.range_f32(0.3, 1.3), rng.range_f32(-0.3, 0.3));
            let db = bare.distance(p);
            if db.abs() < 0.02 {
                let df = full.distance(p);
                assert!((db - df).abs() <= 0.009, "cloth displacement too large: {}", (db - df).abs());
                if (db - df).abs() > 1e-4 {
                    diffs += 1;
                }
            }
        }
        assert!(diffs > 0, "cloth must actually displace the near-surface field");
    }

    #[test]
    fn expression_bump_moves_face_only() {
        let sk = Skeleton::neutral();
        let mut params = SmplxParams::default();
        params.expression[0] = 1.0; // jaw_open
        let with_expr = BodySdf::from_pose(&sk, &params, SurfaceDetail::bare());
        let neutral = neutral_sdf(SurfaceDetail::bare());
        // Point near the mouth: displaced outward (smaller distance).
        let head = sk.rest_positions()[Joint::Head.index()];
        let mouth = head + Vec3::new(0.0, -0.045, 0.075);
        assert!(with_expr.distance(mouth) < neutral.distance(mouth));
        // Point at the knee: unchanged.
        let knee = sk.rest_positions()[Joint::LeftKnee.index()];
        let probe = knee + Vec3::new(0.1, 0.0, 0.0);
        assert!((with_expr.distance(probe) - neutral.distance(probe)).abs() < 1e-6);
    }

    #[test]
    fn bump_ball_only_skips_bumps_that_could_not_apply() {
        let sk = Skeleton::neutral();
        let params =
            SmplxParams { expression: [0.8, -0.5, 0.6, 0.0, 1.0, 0.3, -0.7, 0.9, 0.0, 0.4], ..Default::default() };
        let body = BodySdf::from_pose(&sk, &params, SurfaceDetail::bare());
        assert!(body.bumps.len() >= 6);
        let head = sk.rest_positions()[Joint::Head.index()];
        let mut rng = Pcg32::new(11);
        let mut displaced = 0;
        for _ in 0..20_000 {
            let p = head + Vec3::new(rng.range_f32(-0.2, 0.2), rng.range_f32(-0.2, 0.2), rng.range_f32(-0.2, 0.2));
            // Every bump applied with no early-out.
            let mut want = body.union.distance(p);
            for &(center, radius, disp) in &body.bumps {
                let r = (p - center).length();
                if r < radius {
                    want -= disp * holo_math::smoothstep(radius, 0.0, r);
                    displaced += 1;
                }
            }
            assert_eq!(body.distance(p).to_bits(), want.to_bits(), "at {p:?}");
        }
        assert!(displaced > 100, "the sample must reach the bumps ({displaced})");
    }

    /// The grid's flat cell lists hold, cell by cell, what one vector per
    /// cell filled by pushes in part order held.
    #[test]
    fn flat_cell_lists_are_the_nested_vectors() {
        let sk = Skeleton::neutral();
        let clip = crate::motion::MotionSynthesizer::new(42).clip(crate::motion::MotionKind::Waving, 1.0, 30.0);
        let body = BodySdf::from_pose(&sk, clip.frame(11), SurfaceDetail::full());
        let parts = body.union.parts();
        let (dims, margin) = (GRID_DIMS, LIST_MARGIN);
        let mut bounds = Aabb::EMPTY;
        for part in parts {
            bounds.merge(&part.bounds());
        }
        let cell_size = bounds.size() / dims as f32;
        let mut cells = vec![Vec::new(); (dims as usize).pow(3)];
        for (pi, part) in parts.iter().enumerate() {
            let pb = part.bounds().expanded(margin);
            let per_meter = Vec3::new(1.0 / cell_size.x, 1.0 / cell_size.y, 1.0 / cell_size.z);
            let lo = (pb.min - bounds.min).mul_elem(per_meter);
            let hi = (pb.max - bounds.min).mul_elem(per_meter);
            let clamp_idx = |v: f32| (v.floor().max(0.0) as u32).min(dims - 1);
            for z in clamp_idx(lo.z)..=clamp_idx(hi.z) {
                for y in clamp_idx(lo.y)..=clamp_idx(hi.y) {
                    for x in clamp_idx(lo.x)..=clamp_idx(hi.x) {
                        cells[((z * dims + y) * dims + x) as usize].push(pi as u16);
                    }
                }
            }
        }
        assert!(cells.iter().map(Vec::len).sum::<usize>() > 50_000, "a body fills the grid");
        for z in 0..dims {
            for y in 0..dims {
                for x in 0..dims {
                    let center = bounds.min + Vec3::new(x as f32 + 0.5, y as f32 + 0.5, z as f32 + 0.5).mul_elem(cell_size);
                    let nested = &cells[((z * dims + y) * dims + x) as usize];
                    assert_eq!(body.union.listed_at(center), Ok(nested.clone()), "cell ({x}, {y}, {z})");
                }
            }
        }
    }

    /// The union's value at `p` as a fold of every part its cell lists,
    /// in order, with nothing skipped, clamped — or the box distance.
    fn full_fold(union: &GriddedUnion, p: Vec3) -> f32 {
        match union.listed_at(p) {
            Ok(listed) => {
                let fold = listed.iter().fold(f32::INFINITY, |d, &pi| smooth_min(d, union.parts()[pi as usize].distance(p), union.smoothness));
                fold.min(union.cap())
            }
            Err(outside) => outside,
        }
    }

    holo_runtime::holo_prop! {
        #![cases(96)]

        /// Each lane of a body's batch, and its `distance`, is `detail` on
        /// the full fold of its own point, to the bit: random frames of
        /// every motion with random girth and expression, clothed or bare,
        /// at points on the surface (where cloth and bumps apply), near
        /// it, at the bumps, and anywhere in and around the bounds.
        fn a_bodys_batch_is_the_detail_of_the_full_fold(seed in holo_runtime::check::any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let kinds = [MotionKind::Idle, MotionKind::Talking, MotionKind::Waving, MotionKind::Walking];
            let clip = MotionSynthesizer::new(seed).clip(kinds[rng.index(4)], 0.5, 30.0);
            let mut params = clip.frame(rng.index(clip.frames.len())).clone();
            params.betas[4] = rng.range_f32(-3.0, 3.0);
            for e in &mut params.expression {
                *e = if rng.chance(0.5) { rng.range_f32(-1.0, 1.0) } else { 0.0 };
            }
            let detail = if rng.chance(0.5) { SurfaceDetail::full() } else { SurfaceDetail::bare() };
            let body = BodySdf::from_pose(&Skeleton::neutral(), &params, detail);
            let b = body.bounds().expanded(0.3);
            let bumps = body.bump_centers();
            let ps: Vec<Vec3> = (0..1 + rng.index(13))
                .map(|_| {
                    let mut p = Vec3::new(rng.range_f32(b.min.x, b.max.x), rng.range_f32(b.min.y, b.max.y), rng.range_f32(b.min.z, b.max.z));
                    match rng.next_u32() % 4 {
                        0 if !bumps.is_empty() => bumps[rng.index(bumps.len())] + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * 0.01,
                        0 | 1 => p,
                        _ => {
                            // Onto the surface, or within a few millimetres of it.
                            for _ in 0..6 {
                                p -= body.normal(p, 1e-3) * body.distance(p);
                            }
                            p + Vec3::new(rng.normal(), rng.normal(), rng.normal()) * rng.range_f32(0.0, 0.01)
                        }
                    }
                })
                .collect();
            let mut out = vec![f32::NAN; ps.len()];
            body.distance_batch(&ps, &mut out);
            for (&p, &v) in ps.iter().zip(&out) {
                let want = body.detail(p, full_fold(&body.union, p));
                prop_assert_eq!(v.to_bits(), want.to_bits(), "batch at {:?}: {} against {}", p, v, want);
                prop_assert_eq!(body.distance(p).to_bits(), want.to_bits(), "distance at {:?}", p);
            }
        }
    }

    holo_runtime::holo_prop! {
        #![cases(256)]

        /// A node sample's scope skips the bump loop only where it could
        /// add nothing: each answer of a body's scoped batch, value and
        /// scope, is the union's loosened by every bump whose support
        /// meets the ball, found with no early-out — to the bit. Random
        /// frames of every motion with random expression, clothed or
        /// bare, at points near the face (at the bumps, and up to 0.3 m
        /// off them) and anywhere in and around the bounds, over radii
        /// 0..0.2 and exactly 0.
        fn a_scoped_batch_skips_only_bumps_it_cannot_meet(seed in holo_runtime::check::any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let kinds = [MotionKind::Idle, MotionKind::Talking, MotionKind::Waving, MotionKind::Walking];
            let clip = MotionSynthesizer::new(seed).clip(kinds[rng.index(4)], 0.5, 30.0);
            let mut params = clip.frame(rng.index(clip.frames.len())).clone();
            for e in &mut params.expression {
                *e = if rng.chance(0.5) { rng.range_f32(-1.0, 1.0) } else { 0.0 };
            }
            let detail = if rng.chance(0.5) { SurfaceDetail::full() } else { SurfaceDetail::bare() };
            let body = BodySdf::from_pose(&Skeleton::neutral(), &params, detail);
            let b = body.bounds().expanded(0.3);
            let bumps = body.bump_centers();
            let ps: Vec<Vec3> = (0..1 + rng.index(13))
                .map(|_| match rng.next_u32() % 3 {
                    0 if !bumps.is_empty() => {
                        let by = rng.range_f32(0.0, 0.3);
                        bumps[rng.index(bumps.len())] + Vec3::new(rng.normal(), rng.normal(), rng.normal()).normalized() * by
                    }
                    _ => Vec3::new(rng.range_f32(b.min.x, b.max.x), rng.range_f32(b.min.y, b.max.y), rng.range_f32(b.min.z, b.max.z)),
                })
                .collect();
            let radius = if rng.chance(0.2) { 0.0 } else { rng.range_f32(0.0, 0.2) };
            let scope = if rng.chance(0.5) { SdfScope::ALL } else { body.union.distance_in(b.center(), SdfScope::ALL, 2.0).1 };
            let mut got = vec![(f32::NAN, SdfScope::ALL); ps.len()];
            body.distance_batch_in(&ps, scope, radius, &mut got);
            let mut want = vec![(f32::NAN, SdfScope::ALL); ps.len()];
            body.union.distance_batch_in(&ps, scope, radius, &mut want);
            for ((&p, &(v, got)), &(d, union_scope)) in ps.iter().zip(&got).zip(&want) {
                let want_v = body.detail(p, d);
                let want = if radius == 0.0 {
                    union_scope
                } else {
                    let bumps: f32 = body.bumps.iter().filter(|&&(c, r, _)| (p - c).length() < r + radius).map(|b| b.2.abs()).sum();
                    let cloth = body.cloth.filter(|_| p.y - radius < body.cloth_top).map_or(0.0, |(amp, _)| amp);
                    union_scope.loosened(bumps + cloth)
                };
                prop_assert_eq!(v.to_bits(), want_v.to_bits(), "value at {:?}", p);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "scope at {:?} over {}", p, radius);
            }
        }
    }

    holo_runtime::holo_prop! {
        #![cases(4096)]

        /// A body never reads below its hull: random frames of every
        /// motion with random girth and expression, clothed or bare, at
        /// points near the joints, on and within the blend radius of the
        /// surface, at the bumps, anywhere around the bounds, and beyond
        /// the clamp.
        fn a_body_never_reads_below_its_hull(seed in holo_runtime::check::any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let kinds = [MotionKind::Idle, MotionKind::Talking, MotionKind::Waving, MotionKind::Walking];
            let clip = MotionSynthesizer::new(seed).clip(kinds[rng.index(4)], 0.5, 30.0);
            let mut params = clip.frame(rng.index(clip.frames.len())).clone();
            params.betas[4] = rng.range_f32(-3.0, 3.0);
            for e in &mut params.expression {
                *e = if rng.chance(0.5) { rng.range_f32(-1.0, 1.0) } else { 0.0 };
            }
            let detail = if rng.chance(0.5) { SurfaceDetail::full() } else { SurfaceDetail::bare() };
            let posed = Skeleton::neutral().forward_kinematics(&params);
            let body = BodySdf::from_posed(&posed, &params, detail);
            let hull = body.hull().expect("a body's ellipsoids are round enough for a hull");
            // What the hull is lowered by: the most `detail` may take off.
            let lowered = body.union.hull().expect("the body's union has a hull").floor() - hull.floor();
            let b = body.bounds();
            let bumps = body.bump_centers();
            let jitter = |rng: &mut Pcg32, by: f32| Vec3::new(rng.normal(), rng.normal(), rng.normal()) * by;
            for _ in 0..8 {
                let p = match rng.next_u32() % 5 {
                    0 => posed.positions()[rng.index(crate::skeleton::JOINT_COUNT)] + jitter(&mut rng, 0.05),
                    1 if !bumps.is_empty() => bumps[rng.index(bumps.len())] + jitter(&mut rng, 0.01),
                    1 | 2 => {
                        let mut p = b.center() + Vec3::new(rng.range_f32(-0.5, 0.5), rng.range_f32(-0.5, 0.5), rng.range_f32(-0.5, 0.5)).mul_elem(b.size());
                        for _ in 0..6 {
                            p -= body.normal(p, 1e-3) * body.distance(p);
                        }
                        let by = rng.range_f32(0.0, 0.015);
                        p + jitter(&mut rng, by)
                    }
                    3 => Vec3::new(rng.range_f32(b.min.x, b.max.x), rng.range_f32(b.min.y, b.max.y), rng.range_f32(b.min.z, b.max.z)) + jitter(&mut rng, 0.1),
                    _ => b.center() + jitter(&mut rng, 1.0).normalized() * rng.range_f32(1.0, 3.0),
                };
                let under = hull.capsules().map(|(a, b, radius)| SdfCapsule { a, b, radius }.distance(p)).fold(hull.floor(), f32::min);
                let d = body.distance(p);
                holo_runtime::prop_assert!(d >= under, "{} at {:?} is below the hull's {}", d, p, under);
                let blend = body.union.distance(p);
                holo_runtime::prop_assert!(d >= blend - lowered - 1e-6, "the detail takes {} off at {:?}, more than {}", blend - d, p, lowered);
            }
        }
    }

    #[test]
    fn posed_arm_moves_surface() {
        let sk = Skeleton::neutral();
        let mut params = SmplxParams::default();
        // Rotate the left shoulder to drop the arm to the side.
        params.joint_rotations[Joint::LeftShoulder.index()] =
            holo_math::Quat::from_axis_angle(Vec3::Z, -std::f32::consts::FRAC_PI_2);
        let posed_sdf = BodySdf::from_pose(&sk, &params, SurfaceDetail::bare());
        let tpose_sdf = neutral_sdf(SurfaceDetail::bare());
        // Where the T-pose forearm was, the posed body is now absent.
        let old_wrist = sk.rest_positions()[Joint::LeftWrist.index()];
        assert!(tpose_sdf.distance(old_wrist) < 0.0);
        assert!(posed_sdf.distance(old_wrist) > 0.05);
    }

    #[test]
    fn nearest_bone_picks_the_right_limb() {
        let sk = Skeleton::neutral();
        let posed = sk.forward_kinematics(&SmplxParams::default());
        let bones = body_bones(&posed, 1.0);
        let near_left_knee = posed.position(Joint::LeftKnee) + Vec3::new(0.05, 0.1, 0.0);
        let (driver, d) = nearest_bone(&bones, near_left_knee);
        assert!(matches!(driver, Joint::LeftHip | Joint::LeftKnee), "got {driver:?}");
        assert!(d < 0.2);
    }

    #[test]
    fn girth_beta_fattens_body() {
        let sk = Skeleton::neutral();
        let mut fat = SmplxParams::default();
        fat.betas[4] = 2.0;
        let fat_sdf = BodySdf::from_pose(&sk, &fat, SurfaceDetail::bare());
        let normal_sdf = neutral_sdf(SurfaceDetail::bare());
        let probe = Vec3::new(0.11, 1.25, 0.0); // just outside normal torso
        assert!(fat_sdf.distance(probe) < normal_sdf.distance(probe));
    }
}
