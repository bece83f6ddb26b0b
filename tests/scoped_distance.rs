//! `Sdf::distance_in` is `Sdf::distance`, bit for bit, and the interval
//! its scope carries holds every value the field takes in the ball.
//!
//! The octree extractor threads an `SdfScope` down its nodes so a
//! `BodySdf` can stop evaluating parts that are exact no-ops of the
//! blend inside a node's bounding ball (DESIGN.md §15, "Exact no-op
//! culling"), and can say that no surface crosses the ball ("The field
//! bounds itself"). No test here needs a golden: one extracts the same
//! body with and without a scope — the same mesh, from far fewer samples
//! — and once more through a `Box`; one extracts bodies pruned by the
//! interval alone and by nothing at all; one records where an extraction
//! samples and holds it to "no lattice site twice, and nowhere else"
//! ("The last level"); two properties check the scoped value, and that
//! the scope excludes no value taken, pointwise on random nested balls —
//! inside them and on their boundary, where the extractor's block
//! corners sit — around bodies and around random unions, within the
//! parts' box, astride its faces and outside it; one builds the case the
//! listing condition exists for; and two check `distance` itself, which
//! skips parts point by point ("Per-point culling"), against a fold of
//! the same list that skips none.

use holo_body::motion::{MotionClip, MotionKind, MotionSynthesizer};
use holo_body::skeleton::{Skeleton, JOINT_COUNT};
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_math::{Aabb, Pcg32, Vec3};
use holo_mesh::marching::{ExtractionStats, MarchingConfig};
use holo_mesh::sdf::{smooth_min, GriddedUnion, Primitive, Sdf, SdfCapsule, SdfEllipsoid, SdfRoundCone, SdfScope, SdfSphere};
use holo_mesh::sparse::sparse_extract_with_stats;
use holo_mesh::TriMesh;
use holo_runtime::check::any;
use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

const KINDS: [MotionKind; 4] = [MotionKind::Idle, MotionKind::Talking, MotionKind::Waving, MotionKind::Walking];

/// Three one-second clips of every motion kind.
fn clips() -> &'static [MotionClip] {
    static CLIPS: OnceLock<Vec<MotionClip>> = OnceLock::new();
    CLIPS.get_or_init(|| {
        (0..12).map(|i| MotionSynthesizer::new(100 + i as u64).clip(KINDS[i % 4], 1.0, 30.0)).collect()
    })
}

/// 96 bodies on random frames of those clips — both constructors, both
/// detail levels — each with the joint positions it hangs on.
fn bodies() -> &'static [(BodySdf, [Vec3; JOINT_COUNT])] {
    static BODIES: OnceLock<Vec<(BodySdf, [Vec3; JOINT_COUNT])>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let skeleton = Skeleton::neutral();
        let mut rng = Pcg32::new(0x5C09ED);
        (0..96)
            .map(|i| {
                let clip = &clips()[rng.next_u32() as usize % clips().len()];
                let params = clip.frame(rng.next_u32() as usize % clip.len());
                let detail = if i & 1 == 0 { SurfaceDetail::full() } else { SurfaceDetail::bare() };
                let joints = skeleton.forward_kinematics(params).positions();
                let sdf = if i & 2 == 0 {
                    BodySdf::from_pose(&skeleton, params, detail)
                } else {
                    BodySdf::from_joint_positions(&joints, &params.expression, detail)
                };
                (sdf, joints)
            })
            .collect()
    })
}

/// A body seen only through `distance` and `bounds`: it gets the trait's
/// default `distance_in`, so nothing is ever narrowed or proven, and its
/// descent is pruned by the caller's assumed band alone.
struct Unscoped<'a>(&'a BodySdf);

impl Sdf for Unscoped<'_> {
    fn distance(&self, p: Vec3) -> f32 {
        self.0.distance(p)
    }

    fn bounds(&self) -> Aabb {
        self.0.bounds()
    }
}

fn bits(v: &[Vec3]) -> Vec<[u32; 3]> {
    v.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
}

type Extraction = (TriMesh, ExtractionStats);

/// The same mesh: all three buffers bit for bit, and as many triangles.
fn assert_same_mesh((mesh, stats): &Extraction, (want, want_stats): &Extraction, case: &str) {
    assert_eq!(mesh.faces, want.faces, "{case}: index buffer");
    assert_eq!(bits(&mesh.vertices), bits(&want.vertices), "{case}: vertex buffer");
    assert_eq!(bits(&mesh.normals), bits(&want.normals), "{case}: normal buffer");
    assert_eq!(stats.triangles_emitted, want_stats.triangles_emitted, "{case}: triangles");
}

#[test]
fn extraction_without_narrowing_is_the_same_mesh() {
    let skeleton = Skeleton::neutral();
    for (clip, frame, detail, resolution) in [
        (1, 4, SurfaceDetail::bare(), 128),
        (2, 17, SurfaceDetail::full(), 64),
        (3, 29, SurfaceDetail::bare(), 64),
        (5, 11, SurfaceDetail::full(), 128),
    ] {
        let sdf = BodySdf::from_pose(&skeleton, clips()[clip].frame(frame), detail);
        let scoped = sparse_extract_with_stats(&sdf, resolution, 0.03);
        let plain = sparse_extract_with_stats(&Unscoped(&sdf), resolution, 0.03);
        let case = format!("clip {clip} frame {frame} res {resolution}");
        assert!(scoped.0.faces.len() > 10_000, "{case}: a body was extracted");
        assert_same_mesh(&scoped, &plain, &case);
        // The field's own interval only takes nodes away from the assumed
        // band's descent; at the pipelines' resolution, three in ten.
        let share = if resolution == 128 { 0.7 } else { 1.0 };
        assert!(
            scoped.1.field_evals as f64 <= share * plain.1.field_evals as f64
                && scoped.1.cubes_visited as f64 <= share * plain.1.cubes_visited as f64,
            "{case}: {:?} against {:?}",
            scoped.1,
            plain.1
        );

        // A boxed field is the same field: same scope, same descent.
        let boxed: Box<dyn Sdf + Send> = Box::new(sdf);
        let through_box = sparse_extract_with_stats(&boxed, resolution, 0.03);
        assert_same_mesh(&through_box, &scoped, &format!("{case}, boxed"));
        assert_eq!(
            (through_box.1.field_evals, through_box.1.cubes_visited),
            (scoped.1.field_evals, scoped.1.cubes_visited),
            "{case}: boxed counters"
        );
    }
}

/// The field's own interval, alone, against the descent that prunes
/// nothing: an infinite `safety` switches the assumed band off, so a body
/// drops a node only on what it has proven, and the same body seen
/// through `Unscoped` has every cube of the lattice examined. The same
/// mesh — but the interval alone is no replacement for the band: the far
/// field and the clamp to `cap` prove nothing over a large ball, so it
/// keeps an order of magnitude more of the lattice than `0.03` does.
#[test]
fn the_interval_alone_extracts_the_dense_mesh() {
    for (i, (sdf, _)) in bodies()[..12].iter().enumerate() {
        let alone = sparse_extract_with_stats(sdf, 64, f32::INFINITY);
        let dense = sparse_extract_with_stats(&Unscoped(sdf), 64, f32::INFINITY);
        assert_eq!(dense.1.cubes_visited, 64 * 64 * 64);
        assert!(alone.0.faces.len() > 10_000, "a body was extracted");
        assert_same_mesh(&alone, &dense, &format!("body {i}"));
        let banded = sparse_extract_with_stats(sdf, 64, 0.03).1;
        assert!(
            alone.1.field_evals < dense.1.field_evals && alone.1.field_evals > 5 * banded.field_evals,
            "body {i} positions: interval alone {}, dense {}, with the band {}",
            alone.1.field_evals,
            dense.1.field_evals,
            banded.field_evals
        );
    }
}

/// A body that notes where, and over what radius, `distance_in` is asked.
/// `distance` is not noted: a debug build's extractor calls it to check
/// each sample.
struct Recording<'a> {
    sdf: &'a BodySdf,
    calls: Mutex<Vec<(Vec3, f32)>>,
}

impl Sdf for Recording<'_> {
    fn distance(&self, p: Vec3) -> f32 {
        self.sdf.distance(p)
    }

    fn bounds(&self) -> Aabb {
        self.sdf.bounds()
    }

    fn distance_in(&self, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        self.calls.lock().unwrap().push((p, radius));
        self.sdf.distance_in(p, scope, radius)
    }
}

holo_prop! {
    #![cases(256)]

    /// Every sample of an extraction is at a site of the leaf lattice —
    /// a node's center is one, a leaf's center is not and is never asked
    /// — and no site is asked twice: `field_evals` counts distinct
    /// positions.
    fn an_extraction_samples_lattice_sites_and_none_twice(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed);
        let sdf = &bodies()[rng.next_u32() as usize % bodies().len()].0;
        let recording = Recording { sdf, calls: Mutex::default() };
        let resolution = [16, 32, 64, 128][rng.next_u32() as usize % 4];
        let safety = [0.0, 0.03, 0.1][rng.next_u32() as usize % 3];
        let (mesh, stats) = sparse_extract_with_stats(&recording, resolution, safety);
        prop_assert!(!mesh.faces.is_empty());

        let calls = recording.calls.into_inner().unwrap();
        prop_assert_eq!(stats.field_evals, calls.len() as u64);
        let distinct: HashSet<[u32; 3]> = bits(&calls.iter().map(|c| c.0).collect::<Vec<_>>()).into_iter().collect();
        prop_assert_eq!(distinct.len(), calls.len());

        let lattice = MarchingConfig::for_sdf(sdf, resolution);
        let (origin, cell) = (lattice.bounds.min, lattice.cell_size());
        for &(p, radius) in &calls {
            let site = <[f32; 3]>::from((p - origin) / cell).map(f32::round);
            prop_assert!(site.iter().all(|c| (0.0..=resolution as f32).contains(c)), "{p:?} is outside the lattice");
            prop_assert_eq!(bits(&[origin + Vec3::from(site) * cell]), bits(&[p]));
            // A node of span 2^k >= 2 is centered on an odd multiple of
            // 2^(k-1) and asks over its half diagonal; only a block's
            // corners are asked over no radius at all.
            let span = (radius / (cell * 0.5 * 1.732_051)).round();
            prop_assert!(radius == 0.0 || (span >= 2.0 && site.iter().all(|c| c / (span * 0.5) % 2.0 == 1.0)), "{p:?} asked over {radius}");
        }
    }
}

/// The nearer part that proves another a no-op must itself be blended at
/// the sample point, and the grid lists a part only within `margin` of
/// it. Here `near` is listed at the ball's center `c` but not one grid
/// cell over at `q`; judged from `c` alone, `far` trails it by more than
/// the blend radius plus the ball's diameter and would be dropped — yet
/// at `q` it is the first part blended and shifts the result.
#[test]
fn a_part_is_not_culled_on_the_word_of_a_part_unlisted_nearby() {
    let (smoothness, margin, radius) = (0.02, 0.1, 0.006);
    let c = Vec3::new(0.003, 0.1, 0.1);
    let q = Vec3::new(-0.003, 0.1, 0.1);
    // A sphere of radius 0.05 whose surface is `gap` from `from` along `dir`.
    let sphere = |from: Vec3, dir: Vec3, gap: f32| SdfSphere { center: from + dir * (gap + 0.05), radius: 0.05 };
    let near = sphere(c, Vec3::X, 0.0975);
    let far = sphere(q, Vec3::Y, 0.135);
    let rest = [
        sphere(q, -Vec3::Y, 0.12),
        sphere(q, Vec3::Z, 0.11),
        sphere(q, -Vec3::Z, 0.10),
        sphere(q, -Vec3::Y, 0.09),
        sphere(q, Vec3::Z, 0.082),
    ];
    // Two specks pin the content box to [-1, 1]^3: 8 cells of 0.25 per
    // axis, with a cell wall at x = 0 between `q` and `c`.
    let specks = [-0.99f32, 0.99].map(|at| SdfSphere { center: Vec3::splat(at), radius: 0.01 });
    let parts: Vec<SdfSphere> = [near, far].into_iter().chain(rest).chain(specks).collect();
    let union = GriddedUnion::build(parts.iter().copied().map(Primitive::Sphere).collect(), smoothness, 8, margin);

    // From the center, `far` looks droppable on `near`'s word ...
    assert!(far.distance(c) - near.distance(c) >= smoothness + 2.0 * radius + 1e-3);
    // ... but at `q`, inside the ball, `near` is not blended and `far` is:
    let cap = margin - smoothness;
    let blend = |parts: &[SdfSphere]| parts.iter().fold(f32::INFINITY, |d, s| smooth_min(d, s.distance(q), smoothness)).min(cap);
    assert_eq!(union.distance(q).to_bits(), blend(&parts[1..7]).to_bits(), "`near` is unlisted at q");
    assert_ne!(union.distance(q).to_bits(), blend(&parts[2..7]).to_bits(), "`far` matters at q");

    let (d, scope) = union.distance_in(c, SdfScope::ALL, radius);
    assert_eq!(d.to_bits(), union.distance(c).to_bits());
    assert_eq!(union.distance_in(q, scope, 0.0).0.to_bits(), union.distance(q).to_bits());
}

fn unit_vector(rng: &mut Pcg32) -> Vec3 {
    let v = Vec3::new(rng.normal(), rng.normal(), rng.normal());
    if v.length_sq() > 1e-12 { v.normalized() } else { Vec3::X }
}

/// A point within `reach` of a random spot on the faces of `b`. For a
/// union's `bounds()` that is around the faces of its content box: astride
/// them, outside them where the projected cell's list is read, and out
/// where the box distance answers.
fn near_a_face(b: &Aabb, reach: f32, rng: &mut Pcg32) -> Vec3 {
    let mut p = Vec3::new(rng.range_f32(b.min.x, b.max.x), rng.range_f32(b.min.y, b.max.y), rng.range_f32(b.min.z, b.max.z));
    match rng.next_u32() % 6 {
        0 => p.x = b.min.x,
        1 => p.x = b.max.x,
        2 => p.y = b.min.y,
        3 => p.y = b.max.y,
        4 => p.z = b.min.z,
        _ => p.z = b.max.z,
    }
    p + unit_vector(rng) * rng.range_f32(0.0, reach)
}

/// Walk a chain of nested balls the way `descend` does — narrowing at
/// each center — then sample the innermost ball, half the points exactly
/// on its boundary. Returns the first point whose scoped value is not
/// `distance`'s, to the bit, or whose value the ball's scope excludes.
fn first_departure<S: Sdf>(sdf: &S, mut center: Vec3, mut radius: f32, rng: &mut Pcg32) -> Option<String> {
    let mut scope = SdfScope::ALL;
    for level in 0..1 + rng.next_u32() % 5 {
        if level > 0 {
            // A child ball inside the current one; an octree child
            // touches its parent's boundary, so do that half the time.
            let child = radius * rng.range_f32(0.2, 0.6);
            let reach = if rng.chance(0.5) { 1.0 } else { rng.range_f32(0.0, 1.0) };
            center += unit_vector(rng) * ((radius - child) * reach);
            radius = child;
        }
        let (d, narrowed) = sdf.distance_in(center, scope, radius);
        if d.to_bits() != sdf.distance(center).to_bits() {
            return Some(format!("center {center:?} at level {level}: {d} vs {}", sdf.distance(center)));
        }
        if narrowed.excludes(d) {
            return Some(format!("center {center:?} r {radius} at level {level}: {narrowed:?} excludes its own {d}"));
        }
        scope = narrowed;
    }
    for i in 0..16 {
        let reach = if i % 2 == 0 { 1.0 } else { rng.range_f32(0.0, 1.0) };
        let p = center + unit_vector(rng) * (radius * reach);
        let d = sdf.distance_in(p, scope, 0.0).0;
        if d.to_bits() != sdf.distance(p).to_bits() {
            return Some(format!("point {p:?} in ball {center:?} r {radius}: {d} vs {}", sdf.distance(p)));
        }
        if scope.excludes(d) {
            return Some(format!("point {p:?} in ball {center:?} r {radius}: {scope:?} excludes {d}"));
        }
    }
    None
}

holo_prop! {
    #![cases(10_000)]

    /// A body on a random clip frame, nested balls around a point near it.
    fn scoped_distance_equals_distance_bit_for_bit(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed);
        let (sdf, joints) = &bodies()[rng.next_u32() as usize % bodies().len()];
        let center = joints[rng.next_u32() as usize % joints.len()] + unit_vector(&mut rng) * rng.range_f32(0.0, 0.3);
        let radius = rng.range_f32(0.005, 0.6);
        prop_assert_eq!(first_departure(sdf, center, radius, &mut rng), None);
        // And balls astride or wholly outside the content box, where a
        // sample reads the list of the cell it projects to.
        let center = near_a_face(&sdf.bounds(), 1.2 * sdf.union().cap(), &mut rng);
        let radius = rng.range_f32(0.005, 0.3);
        prop_assert_eq!(first_departure(sdf, center, radius, &mut rng), None);
    }
}

/// A random soup of up to 80 primitives (so some lie past the 64-part
/// mask) of all four kinds, with random blend radius, listing margin and
/// grid; `spread` bounds the part centers per axis.
fn random_union(rng: &mut Pcg32) -> (GriddedUnion, f32) {
    let spread = rng.range_f32(0.1, 0.6);
    let parts: Vec<Primitive> = (0..1 + rng.next_u32() % 80)
        .map(|_| {
            let (a, ra) = (point_within(rng, spread), rng.range_f32(0.01, 0.12));
            let (b, rb) = (a + unit_vector(rng) * rng.range_f32(0.0, 0.3), rng.range_f32(0.01, 0.12));
            match rng.next_u32() % 8 {
                0 | 1 => Primitive::Ellipsoid(SdfEllipsoid { center: a, radii: Vec3::new(ra, rb, rng.range_f32(0.01, 0.3)) }),
                2 => Primitive::Sphere(SdfSphere { center: a, radius: ra }),
                3 | 4 => Primitive::Capsule(SdfCapsule { a, b, radius: ra }),
                _ => Primitive::RoundCone(SdfRoundCone { a, b, ra, rb }),
            }
        })
        .collect();
    let smoothness = rng.range_f32(0.0, 0.05);
    let margin = smoothness + rng.range_f32(0.02, 0.3);
    (GriddedUnion::build(parts, smoothness, 1 + rng.next_u32() % 12, margin), spread)
}

fn point_within(rng: &mut Pcg32, spread: f32) -> Vec3 {
    Vec3::new(rng.range_f32(-spread, spread), rng.range_f32(-spread, spread), rng.range_f32(-spread, spread))
}

holo_prop! {
    #![cases(2_500)]

    /// The argument does not lean on the body's constants.
    fn scoped_distance_is_exact_on_random_unions(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed);
        let (union, spread) = random_union(&mut rng);
        for i in 0..16 {
            let center = if i % 2 == 0 {
                point_within(&mut rng, spread) * 1.2
            } else {
                near_a_face(&union.bounds(), 1.2 * union.cap(), &mut rng)
            };
            let radius = rng.range_f32(0.002, 0.3);
            prop_assert_eq!(first_departure(&union, center, radius, &mut rng), None);
        }
    }
}

/// `distance` the slow way: every part listed at `p` blended, none skipped.
fn unculled(union: &GriddedUnion, p: Vec3) -> f32 {
    match union.listed_at(p) {
        Ok(listed) => listed
            .iter()
            .fold(f32::INFINITY, |d, &i| smooth_min(d, union.parts()[i as usize].distance(p), union.smoothness))
            .min(union.cap()),
        Err(box_distance) => box_distance,
    }
}

holo_prop! {
    #![cases(10_000)]

    /// Skipping a part on its bounding ball's word never moves a bit:
    /// deep inside a body, at its skin, in the shell around the content
    /// box, and out where the box distance answers.
    fn distance_skips_only_no_ops_around_bodies(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed);
        let (sdf, joints) = &bodies()[rng.next_u32() as usize % bodies().len()];
        let union = sdf.union();
        let joint = joints[rng.next_u32() as usize % joints.len()];
        for p in [
            joint + unit_vector(&mut rng) * rng.range_f32(0.0, 0.12),
            joint + unit_vector(&mut rng) * rng.range_f32(0.0, 0.5),
            near_a_face(&sdf.bounds(), 1.5 * union.cap(), &mut rng),
        ] {
            prop_assert_eq!(union.distance(p).to_bits(), unculled(union, p).to_bits());
        }
    }
}

holo_prop! {
    #![cases(2_500)]

    fn distance_skips_only_no_ops_on_random_unions(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed);
        let (union, spread) = random_union(&mut rng);
        for i in 0..16 {
            let p = if i % 2 == 0 {
                point_within(&mut rng, spread) * 1.5
            } else {
                near_a_face(&union.bounds(), 1.5 * union.cap(), &mut rng)
            };
            prop_assert_eq!(union.distance(p).to_bits(), unculled(&union, p).to_bits());
        }
    }
}
