//! Signed distance fields.
//!
//! X-Avatar represents the human body as an implicit surface decoded by a
//! neural network; our substitute models the body as an analytic SDF built
//! from skeleton-driven primitives (capsules for limbs, rounded cones for
//! tapering segments, ellipsoids for head/torso) blended with smooth CSG.
//! The isosurface extractors in [`crate::marching`] and [`crate::sparse`]
//! consume any [`Sdf`].

use holo_math::{Aabb, F32x4, Vec3};

/// A signed distance field: negative inside, positive outside, zero on the
/// surface. Implementations should be exact or conservative (a lower bound
/// on true distance) so sphere tracing terminates correctly.
pub trait Sdf: Sync {
    /// Signed distance at `p`.
    fn distance(&self, p: Vec3) -> f32;

    /// A bounding box guaranteed to contain the zero level set.
    fn bounds(&self) -> Aabb;

    /// [`Self::distance`] at every point of `ps`; `out[i]` receives the
    /// same bits as `distance(ps[i])`. How the sphere tracer asks: its
    /// four rays' current points at once, and two normals' twelve. A
    /// composite field evaluates its parts at several points per
    /// instruction here; the default asks point by point.
    fn distance_batch(&self, ps: &[Vec3], out: &mut [f32]) {
        assert_eq!(ps.len(), out.len(), "one answer per point");
        for (&p, d) in ps.iter().zip(out) {
            *d = self.distance(p);
        }
    }

    /// [`Self::distance`] at `p` — the same bits — for a caller that is
    /// sampling nested regions. The returned scope holds at every point
    /// within `radius` of `p`; the `scope` passed in must be
    /// [`SdfScope::ALL`] or one returned for a ball that *contains this
    /// one* — `p` lying in that ball is not enough, because what a scope
    /// has dropped stays dropped, and where the field answers without
    /// consulting its parts the scope comes back unchanged. The octree's
    /// node balls nest; consecutive steps along a ray do not. A composite
    /// field uses it to stop evaluating parts that provably cannot change
    /// the result there, and to say what values it can take there
    /// ([`SdfScope::excludes`]); the default narrows and proves nothing.
    fn distance_in(&self, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        let _ = radius;
        (self.distance(p), scope)
    }

    /// [`Self::distance_in`] at every point of `ps`, all under the one
    /// `scope` and over the one `radius`; `out[i]` receives the answer
    /// for `ps[i]`, the same bits as that call. How the octree asks: a
    /// block's corners at once, and a node's eight children's centers.
    /// A composite field evaluates its parts at several points per
    /// instruction here; the default asks point by point.
    fn distance_batch_in(&self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        assert_eq!(ps.len(), out.len(), "one answer per point");
        for (&p, answer) in ps.iter().zip(out) {
            *answer = self.distance_in(p, scope, radius);
        }
    }

    /// Capsules and a floor the field never reads below ([`SdfHull`]),
    /// where the field can prove them; the default proves nothing.
    fn hull(&self) -> Option<SdfHull<'_>> {
        None
    }

    /// Surface normal by central differences, its six offsets asked as
    /// one batch.
    fn normal(&self, p: Vec3, eps: f32) -> Vec3 {
        let (x, y, z) = (Vec3::new(eps, 0.0, 0.0), Vec3::new(0.0, eps, 0.0), Vec3::new(0.0, 0.0, eps));
        let mut d = [0.0; 6];
        self.distance_batch(&[p + x, p - x, p + y, p - y, p + z, p - z], &mut d);
        Vec3::new(d[0] - d[1], d[2] - d[3], d[4] - d[5]).normalized()
    }
}

/// What a field has proven about a region, threaded through
/// [`Sdf::distance_in`] by the octree extractor. Opaque: only the field
/// that narrowed a scope can read it, and it must only be handed back to
/// that same field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdfScope {
    /// For [`GriddedUnion`], the set of parts `0..64` still alive.
    alive: u64,
    /// The field's value stays in `lo..=hi` throughout the ball the scope
    /// was narrowed for; infinite where the field has proven no bound.
    lo: f32,
    hi: f32,
}

impl SdfScope {
    /// Nothing is known yet; valid everywhere.
    pub const ALL: Self = Self { alive: u64::MAX, lo: f32::NEG_INFINITY, hi: f32::INFINITY };

    /// True when the field has proven that it takes the value `v` nowhere
    /// in the ball: no level set of `v` passes through it.
    pub fn excludes(self, v: f32) -> bool {
        v < self.lo || v > self.hi
    }

    /// The scope of a field that stays within `by` of the one that
    /// narrowed this scope, throughout the ball.
    pub fn loosened(self, by: f32) -> Self {
        Self { lo: self.lo - by, hi: self.hi + by, ..self }
    }
}

/// What a field proves about where it can be small: capsules `(a, b, r)`
/// and a `floor` with `distance(p) >= min(floor, min_i (|p - [a_i, b_i]| - r_i))`
/// at every `p`. A ray that stays more than `eps` outside every capsule
/// never reads a value below `min(floor, eps)` (DESIGN.md §15, "Rays that
/// cannot hit"). A view of the parts a [`GriddedUnion`] holds: it
/// allocates nothing, and each capsule is derived as it is read.
#[derive(Debug, Clone, Copy)]
pub struct SdfHull<'a> {
    parts: &'a [Primitive],
    /// How far out an ellipsoid's capsule must hold: the listing margin.
    reach: f32,
    /// What every capsule's radius grows by.
    grow: f32,
    floor: f32,
}

impl<'a> SdfHull<'a> {
    /// Each capsule `(a, b, r)`, one per part, in part order.
    pub fn capsules(&self) -> impl Iterator<Item = (Vec3, Vec3, f32)> + 'a {
        let (reach, grow) = (self.reach, self.grow);
        self.parts.iter().map(move |part| {
            let (a, b, r) = part.hull_capsule(reach);
            (a, b, r + grow)
        })
    }

    /// The value the field may fall to away from every capsule.
    pub fn floor(&self) -> f32 {
        self.floor
    }

    /// The hull of a field that reads at most `by` below this one's:
    /// every capsule grows by `by` and the floor falls by it.
    pub fn lowered(self, by: f32) -> Self {
        Self { grow: self.grow + by, floor: self.floor - by, ..self }
    }
}

/// Sphere primitive.
#[derive(Debug, Clone, Copy)]
pub struct SdfSphere {
    pub center: Vec3,
    pub radius: f32,
}

impl Sdf for SdfSphere {
    fn distance(&self, p: Vec3) -> f32 {
        (p - self.center).length() - self.radius
    }

    fn bounds(&self) -> Aabb {
        Aabb::new(self.center - Vec3::splat(self.radius), self.center + Vec3::splat(self.radius))
    }
}

/// Capsule primitive: the set of points within `radius` of segment `a`-`b`.
#[derive(Debug, Clone, Copy)]
pub struct SdfCapsule {
    pub a: Vec3,
    pub b: Vec3,
    pub radius: f32,
}

impl Sdf for SdfCapsule {
    fn distance(&self, p: Vec3) -> f32 {
        let pa = p - self.a;
        let ba = self.b - self.a;
        let denom = ba.dot(ba).max(1e-12);
        let h = (pa.dot(ba) / denom).clamp(0.0, 1.0);
        (pa - ba * h).length() - self.radius
    }

    fn bounds(&self) -> Aabb {
        Aabb::from_points(&[self.a, self.b]).expanded(self.radius)
    }
}

/// Rounded cone: a capsule whose radius tapers linearly from `ra` at `a`
/// to `rb` at `b`. Used for tapering limb segments (forearms, fingers).
#[derive(Debug, Clone, Copy)]
pub struct SdfRoundCone {
    pub a: Vec3,
    pub b: Vec3,
    pub ra: f32,
    pub rb: f32,
}

impl Sdf for SdfRoundCone {
    fn distance(&self, p: Vec3) -> f32 {
        // Inigo Quilez's exact round cone distance.
        let ba = self.b - self.a;
        let l2 = ba.dot(ba);
        let rr = self.ra - self.rb;
        let a2 = l2 - rr * rr;
        if a2 <= 0.0 || l2 < 1e-12 {
            // Degenerate: one sphere contains the other; fall back to the
            // union of the two end spheres.
            let d1 = (p - self.a).length() - self.ra;
            let d2 = (p - self.b).length() - self.rb;
            return d1.min(d2);
        }
        let il2 = 1.0 / l2;
        let pa = p - self.a;
        let y = pa.dot(ba);
        let z = y - l2;
        let x2 = (pa * l2 - ba * y).length_sq();
        let y2 = y * y * l2;
        let z2 = z * z * l2;
        let k = rr.signum() * rr * rr * x2;
        if z.signum() * a2 * z2 > k {
            return (x2 + z2).sqrt() * il2 - self.rb;
        }
        if y.signum() * a2 * y2 < k {
            return (x2 + y2).sqrt() * il2 - self.ra;
        }
        ((x2 * a2 * il2).sqrt() + y * rr) * il2 - self.ra
    }

    fn bounds(&self) -> Aabb {
        let r = self.ra.max(self.rb);
        Aabb::from_points(&[self.a, self.b]).expanded(r)
    }
}

/// A part's [`Sdf::distance`] on four lanes, lane by lane the same bits:
/// its constants derived once, at [`GriddedUnion::build`], with the ops
/// `distance` derives them with, each in every lane; then the same ops in
/// the same order, every branch computed and the taken one selected by
/// the same comparison.
#[derive(Debug, Clone, Copy)]
enum PreparedPart {
    Sphere { center: [F32x4; 3], radius: F32x4 },
    /// `denom` is `ba.dot(ba).max(1e-12)`.
    Capsule { a: [F32x4; 3], ba: [F32x4; 3], denom: F32x4, radius: F32x4 },
    /// A round cone whose sides `distance` evaluates; `k_rr` is
    /// `rr.signum() * rr * rr`, the factor `k` applies to `x2`.
    Cone { a: [F32x4; 3], ba: [F32x4; 3], l2: F32x4, rr: F32x4, a2: F32x4, il2: F32x4, k_rr: F32x4, ra: F32x4, rb: F32x4 },
    /// A round cone `distance` treats as the union of its end spheres.
    TwoSpheres { a: [F32x4; 3], ra: F32x4, b: [F32x4; 3], rb: F32x4 },
    /// `radii2` is each radius squared; `-r_min` answers at the center.
    Ellipsoid { center: [F32x4; 3], radii: [F32x4; 3], radii2: [F32x4; 3], neg_r_min: F32x4 },
}

/// `v` in every lane of three.
fn splat3(v: Vec3) -> [F32x4; 3] {
    [v.x, v.y, v.z].map(F32x4::splat)
}

/// [`Vec3::length`], lane by lane.
#[inline]
fn length4([x, y, z]: [F32x4; 3]) -> F32x4 {
    (x * x + y * y + z * z).sqrt()
}

/// `p - c` per axis.
#[inline]
fn offset4([px, py, pz]: [F32x4; 3], [cx, cy, cz]: [F32x4; 3]) -> [F32x4; 3] {
    [px - cx, py - cy, pz - cz]
}

impl PreparedPart {
    fn new(part: &Primitive) -> Self {
        let s = F32x4::splat;
        match *part {
            Primitive::Sphere(c) => Self::Sphere { center: splat3(c.center), radius: s(c.radius) },
            Primitive::Capsule(c) => Self::Capsule { a: splat3(c.a), ba: splat3(c.b - c.a), denom: s((c.b - c.a).length_sq().max(1e-12)), radius: s(c.radius) },
            Primitive::RoundCone(c) => {
                let ba = c.b - c.a;
                let l2 = ba.dot(ba);
                let rr = c.ra - c.rb;
                let a2 = l2 - rr * rr;
                if a2 <= 0.0 || l2 < 1e-12 {
                    return Self::TwoSpheres { a: splat3(c.a), ra: s(c.ra), b: splat3(c.b), rb: s(c.rb) };
                }
                let (il2, k_rr) = (s(1.0 / l2), s(rr.signum() * rr * rr));
                Self::Cone { a: splat3(c.a), ba: splat3(ba), l2: s(l2), rr: s(rr), a2: s(a2), il2, k_rr, ra: s(c.ra), rb: s(c.rb) }
            }
            Primitive::Ellipsoid(e) => Self::Ellipsoid { center: splat3(e.center), radii: splat3(e.radii), radii2: splat3(e.radii.mul_elem(e.radii)), neg_r_min: s(-e.r_min()) },
        }
    }

    /// The part's `distance` at the four points `p`.
    #[inline]
    fn distance4(&self, p: [F32x4; 3]) -> F32x4 {
        match *self {
            Self::Sphere { center, radius } => length4(offset4(p, center)) - radius,
            Self::Capsule { a, ba: [bx, by, bz], denom, radius } => {
                let [pax, pay, paz] = offset4(p, a);
                // `clamp(0.0, 1.0)`, which keeps a NaN and a `-0.0`.
                let h = (pax * bx + pay * by + paz * bz) / denom;
                let h = F32x4::select(h.lt(F32x4::splat(0.0)), F32x4::splat(0.0), h);
                let h = F32x4::select(h.gt(F32x4::splat(1.0)), F32x4::splat(1.0), h);
                length4([pax - bx * h, pay - by * h, paz - bz * h]) - radius
            }
            Self::Cone { a, ba: [bx, by, bz], l2, rr, a2, il2, k_rr, ra, rb } => {
                let [pax, pay, paz] = offset4(p, a);
                let y = pax * bx + pay * by + paz * bz;
                let z = y - l2;
                let [wx, wy, wz] = [pax * l2 - bx * y, pay * l2 - by * y, paz * l2 - bz * y];
                let x2 = wx * wx + wy * wy + wz * wz;
                let y2 = y * y * l2;
                let z2 = z * z * l2;
                let k = k_rr * x2;
                let past_b = (z.signum() * a2 * z2).gt(k);
                let before_a = (y.signum() * a2 * y2).lt(k);
                let at_b = (x2 + z2).sqrt() * il2 - rb;
                let at_a = (x2 + y2).sqrt() * il2 - ra;
                let side = ((x2 * a2 * il2).sqrt() + y * rr) * il2 - ra;
                F32x4::select(past_b, at_b, F32x4::select(before_a, at_a, side))
            }
            Self::TwoSpheres { a, ra, b, rb } => (length4(offset4(p, a)) - ra).min(length4(offset4(p, b)) - rb),
            Self::Ellipsoid { center, radii: [rx, ry, rz], radii2: [sx, sy, sz], neg_r_min } => {
                let [qx, qy, qz] = offset4(p, center);
                let (k0, k1) = (length4([qx / rx, qy / ry, qz / rz]), length4([qx / sx, qy / sy, qz / sz]));
                F32x4::select(k1.lt(F32x4::splat(1e-12)), neg_r_min, k0 * (k0 - F32x4::splat(1.0)) / k1)
            }
        }
    }
}

/// Axis-aligned ellipsoid (approximate but conservative distance bound).
#[derive(Debug, Clone, Copy)]
pub struct SdfEllipsoid {
    pub center: Vec3,
    pub radii: Vec3,
}

impl SdfEllipsoid {
    fn r_min(&self) -> f32 {
        self.radii.x.min(self.radii.y).min(self.radii.z)
    }

    /// The ellipsoid's gauge at offset `q` from its center: below 1
    /// inside, 1 on the surface, and at most `1 / r_min` per meter steep.
    fn k0(&self, q: Vec3) -> f32 {
        Vec3::new(q.x / self.radii.x, q.y / self.radii.y, q.z / self.radii.z).length()
    }
}

impl Sdf for SdfEllipsoid {
    fn distance(&self, p: Vec3) -> f32 {
        // IQ's ellipsoid bound: exact sign, conservative magnitude.
        let q = p - self.center;
        let k0 = self.k0(q);
        let k1 = Vec3::new(
            q.x / (self.radii.x * self.radii.x),
            q.y / (self.radii.y * self.radii.y),
            q.z / (self.radii.z * self.radii.z),
        )
        .length();
        if k1 < 1e-12 {
            return -self.r_min();
        }
        k0 * (k0 - 1.0) / k1
    }

    fn bounds(&self) -> Aabb {
        Aabb::new(self.center - self.radii, self.center + self.radii)
    }
}

/// Smooth minimum (polynomial) used for organic blends between body parts.
#[inline]
pub fn smooth_min(a: f32, b: f32, k: f32) -> f32 {
    if k <= 0.0 {
        return a.min(b);
    }
    let h = (k - (a - b).abs()).max(0.0) / k;
    a.min(b) - h * h * k * 0.25
}

/// A smooth union of boxed SDF parts — the body model's aggregate shape.
pub struct SdfUnion {
    parts: Vec<Box<dyn Sdf + Send>>,
    /// Smoothing radius for the blend; 0 gives a hard union.
    pub smoothness: f32,
    cached_bounds: Aabb,
}

impl SdfUnion {
    /// Create an empty union with the given blend radius.
    pub fn new(smoothness: f32) -> Self {
        Self { parts: Vec::new(), smoothness, cached_bounds: Aabb::EMPTY }
    }

    /// Add a part.
    pub fn push(&mut self, part: Box<dyn Sdf + Send>) {
        self.cached_bounds.merge(&part.bounds());
        self.parts.push(part);
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no parts have been added.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl Sdf for SdfUnion {
    fn distance(&self, p: Vec3) -> f32 {
        let mut d = f32::INFINITY;
        for part in &self.parts {
            d = smooth_min(d, part.distance(p), self.smoothness);
        }
        d
    }

    fn bounds(&self) -> Aabb {
        // Smooth blending can bulge the surface slightly outward.
        self.cached_bounds.expanded(self.smoothness)
    }
}

/// The closed set of parts a [`GriddedUnion`] blends.
#[derive(Debug, Clone, Copy)]
pub enum Primitive {
    Sphere(SdfSphere),
    Capsule(SdfCapsule),
    RoundCone(SdfRoundCone),
    Ellipsoid(SdfEllipsoid),
}

impl Primitive {
    /// True when `distance` is the exact Euclidean distance, hence
    /// 1-Lipschitz — what culling in [`GriddedUnion`] rests on. The
    /// ellipsoid is only a bound: its value can change faster than the
    /// point moves, so it is never culled and never used to cull.
    fn is_exact(&self) -> bool {
        !matches!(self, Primitive::Ellipsoid(_))
    }

    /// A ball `(center, radius)` around the solid, so that `distance(p)`
    /// is at least `|p - center| - radius` everywhere. That needs the
    /// exact distance: an inexact part gets an infinite radius, which
    /// bounds nothing.
    fn bounding_ball(&self) -> (Vec3, f32) {
        match self {
            Primitive::Sphere(s) => (s.center, s.radius),
            Primitive::Capsule(s) => ((s.a + s.b) * 0.5, (s.b - s.a).length() * 0.5 + s.radius),
            Primitive::RoundCone(s) => ((s.a + s.b) * 0.5, (s.b - s.a).length() * 0.5 + s.ra.max(s.rb)),
            Primitive::Ellipsoid(s) => (s.center, f32::INFINITY),
        }
    }

    /// A value `distance` does not exceed within `radius` of `p`, where
    /// it is `v`. An exact part rises no faster than the point moves. The
    /// ellipsoid's bound does, but a ball inside the solid stays
    /// `r_min * (1 - k0)` deep: `k0` rises by at most `radius / r_min`,
    /// and `k0 / k1 >= r_min`. Unless the whole ball is inside, nothing
    /// is claimed for it.
    fn ceiling(&self, p: Vec3, v: f32, radius: f32) -> f32 {
        match self {
            Primitive::Ellipsoid(s) => {
                let inside = radius - s.r_min() * (1.0 - s.k0(p - s.center));
                if inside < 0.0 { inside } else { f32::INFINITY }
            }
            _ => v + radius,
        }
    }

    /// A capsule `(a, b, r)` the part's solid lies in, such that
    /// `distance(p) >= min(|p - [a, b]| - r, reach)` everywhere. An exact
    /// part's value is the distance to its solid, which a capsule around
    /// the solid can only undercut: a round cone's lies in the capsule of
    /// its larger radius. IQ's ellipsoid bound is
    /// `s·α²/β − α/β` at `s` meters from the center in a direction where
    /// `k0 = s·α` and `k1 = s·β`, with `α/β <= r_max` and `α²/β >= c`,
    /// `c = 2 r_min r_max / (r_min² + r_max²)` (Kantorovich). So it is at
    /// least `c·s − r_max`, which stays above `min(s − r, reach)` for
    /// the `r` below; no radius would do for every `s`, because the
    /// bound's slope is below one off the axes.
    fn hull_capsule(&self, reach: f32) -> (Vec3, Vec3, f32) {
        match *self {
            Primitive::Sphere(s) => (s.center, s.center, s.radius),
            Primitive::Capsule(s) => (s.a, s.b, s.radius),
            Primitive::RoundCone(s) => (s.a, s.b, s.ra.max(s.rb)),
            Primitive::Ellipsoid(s) => {
                let (lo, hi) = (s.r_min(), s.radii.max_component());
                let c = 2.0 * lo * hi / (lo * lo + hi * hi);
                (s.center, s.center, (hi + (1.0 - c) * reach) / c)
            }
        }
    }

    /// True when `distance` falls no faster than the point moves along a
    /// segment that stays outside the solid, and is at least `m` outside
    /// the part's box padded by `m`. IQ's ellipsoid bound does both while
    /// `r_max^2 <= 2 r_min^2` and the first for no longer (DESIGN.md §15,
    /// "The field bounds itself").
    fn falls_no_faster_outside(&self) -> bool {
        match self {
            Primitive::Ellipsoid(s) => s.radii.max_component().powi(2) <= 2.0 * s.r_min().powi(2),
            _ => true,
        }
    }
}

impl Sdf for Primitive {
    #[inline]
    fn distance(&self, p: Vec3) -> f32 {
        match self {
            Primitive::Sphere(s) => s.distance(p),
            Primitive::Capsule(s) => s.distance(p),
            Primitive::RoundCone(s) => s.distance(p),
            Primitive::Ellipsoid(s) => s.distance(p),
        }
    }

    fn bounds(&self) -> Aabb {
        match self {
            Primitive::Sphere(s) => s.bounds(),
            Primitive::Capsule(s) => s.bounds(),
            Primitive::RoundCone(s) => s.bounds(),
            Primitive::Ellipsoid(s) => s.bounds(),
        }
    }
}

/// A spatially accelerated smooth union: parts are bucketed into a coarse
/// grid so evaluation touches only nearby parts instead of all of them.
///
/// A body SDF has ~80 primitive parts; naive union evaluation makes
/// resolution-1024 extraction (Figs. 2/4) minutes of CPU. The grid keeps
/// per-cell part lists within a `margin`, and the value is the blend of
/// the listed parts clamped to `margin - smoothness`: nearer than that it
/// is the plain union's value, and the clamp is a *conservative
/// underestimate* wherever an unlisted part could have mattered. A point
/// outside the parts' box reads the cell it projects to — still a
/// complete list (DESIGN.md §15, "The far field") — and only from the
/// clamp value outward does the distance to the box answer instead. So
/// the field is small only near the surface, never on a face of the box:
/// a sphere-traced ray cannot stall there and an octree node there prunes.
///
/// Through [`Sdf::distance_in`] it additionally drops parts that are
/// exact no-ops of the blend throughout a ball (DESIGN.md §15, "Exact
/// no-op culling"): the [`SdfScope`] is the set of parts `0..64` still
/// alive, with an interval the value stays in throughout the ball (§15,
/// "The field bounds itself"). [`Sdf::distance`] has no region to reason
/// about and instead skips, lane by lane, the parts whose bounding ball
/// already proves them no-ops (§15, "Per-point culling"). Each question
/// has one body, which folds four points' parts at once on four-lane
/// kernels (§15, "Corners by lanes", "Rays by lanes"); the single-point
/// calls are its batches of one.
pub struct GriddedUnion {
    parts: Vec<Primitive>,
    /// [`Primitive::bounding_ball`] of each part.
    balls: Vec<(Vec3, f32)>,
    /// Each part's four-lane kernel.
    kernels: Vec<PreparedPart>,
    /// Blend radius.
    pub smoothness: f32,
    bounds: Aabb,
    dims: u32,
    /// Cell `c` lists the parts `listed[cell_start[c]..cell_start[c + 1]]`,
    /// in ascending order.
    cell_start: Vec<u32>,
    listed: Vec<u16>,
    /// Per axis and cell index, the bits of the parts below 64 whose
    /// cell range spans that index. A part is listed in exactly the cells
    /// its three ranges span, so the cell at `(x, y, z)` lists those in
    /// `spans[0][x] & spans[1][y] & spans[2][z]`.
    spans: [[u64; 64]; 3],
    margin: f32,
    /// Every part's value falls no faster than the point moves outside
    /// the part — what a scope's lower bound rests on.
    falls_no_faster: bool,
}

/// Headroom in every culling inequality, meters. It absorbs what the
/// real-number argument ignores: rounding inside the primitives (below
/// `1e-5` at body scale), in the subtraction `smooth_min` performs, in the
/// grid-cell index, and a block corner sitting at `radius * (1 + ulp)`.
const CULL_SLACK: f32 = 1e-3;

impl GriddedUnion {
    /// Build from parts with the given blend radius; `dims` grid cells
    /// per axis and `margin` meters of part-listing slack.
    pub fn build(parts: Vec<Primitive>, smoothness: f32, dims: u32, margin: f32) -> Self {
        let mut bounds = Aabb::EMPTY;
        for p in &parts {
            bounds.merge(&p.bounds());
        }
        if bounds.is_empty() {
            bounds = Aabb::new(Vec3::ZERO, Vec3::ONE);
        }
        let dims = dims.clamp(1, 64);
        let n = dims as usize;
        let cell_size = bounds.size() / dims as f32;
        let per_meter =
            Vec3::new(1.0 / cell_size.x.max(1e-9), 1.0 / cell_size.y.max(1e-9), 1.0 / cell_size.z.max(1e-9));
        let clamp_idx = |v: f32| (v.floor().max(0.0) as u32).min(dims - 1) as usize;
        // Cell index range, per axis, overlapped by each padded part box.
        let ranges: Vec<[(usize, usize); 3]> = parts
            .iter()
            .map(|part| {
                let pb = part.bounds().expanded(margin);
                let lo = (pb.min - bounds.min).mul_elem(per_meter);
                let hi = (pb.max - bounds.min).mul_elem(per_meter);
                [(clamp_idx(lo.x), clamp_idx(hi.x)), (clamp_idx(lo.y), clamp_idx(hi.y)), (clamp_idx(lo.z), clamp_idx(hi.z))]
            })
            .collect();
        // The x-runs of cells one part is listed in.
        let runs = |&[(x0, x1), (y0, y1), (z0, z1)]: &[(usize, usize); 3]| {
            (z0..=z1).flat_map(move |z| (y0..=y1).map(move |y| (z * n + y) * n + x0..=(z * n + y) * n + x1))
        };
        // Counting sort by cell: count, running sum (now `cell_start[c]`
        // is where cell `c` ends), then fill each cell from its end with
        // the parts in descending order — which leaves every list
        // ascending and `cell_start[c]` where cell `c` begins.
        let mut cell_start = vec![0u32; n * n * n + 1];
        for part in &ranges {
            for run in runs(part) {
                for count in &mut cell_start[run] {
                    *count += 1;
                }
            }
        }
        let mut end = 0;
        for slot in &mut cell_start {
            end += *slot;
            *slot = end;
        }
        let mut listed = vec![0u16; end as usize];
        for (pi, part) in ranges.iter().enumerate().rev() {
            for run in runs(part) {
                for start in &mut cell_start[run] {
                    *start -= 1;
                    listed[*start as usize] = pi as u16;
                }
            }
        }
        let mut spans = [[0u64; 64]; 3];
        for (pi, part) in ranges.iter().enumerate().take(64) {
            for (span, &(lo, hi)) in spans.iter_mut().zip(part) {
                for mask in &mut span[lo..=hi] {
                    *mask |= 1 << pi;
                }
            }
        }
        let balls = parts.iter().map(Primitive::bounding_ball).collect();
        let kernels = parts.iter().map(PreparedPart::new).collect();
        let falls_no_faster = parts.iter().all(Primitive::falls_no_faster_outside);
        Self { parts, balls, kernels, smoothness, bounds, dims, cell_start, listed, spans, margin, falls_no_faster }
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no parts were provided.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The parts, in blend order.
    pub fn parts(&self) -> &[Primitive] {
        &self.parts
    }

    /// The value the blend is clamped to: the margin minus the blend
    /// bulge bounds unlisted parts' reach.
    pub fn cap(&self) -> f32 {
        self.margin - self.smoothness
    }

    /// What the field is made of at `p`: the parts blended there, as
    /// ascending indices into [`Self::parts`] — or, as `Err`, the distance
    /// to the content box where that is the answer instead. Public so that
    /// a test can fold the list again with nothing skipped.
    pub fn listed_at(&self, p: Vec3) -> Result<&[u16], f32> {
        self.cells(splat3(p))[0].map(|cell| self.listed(cell))
    }

    /// The grid cell whose list [`Self::listed_at`] reads at each of four
    /// points, as indices per axis, or the distance to the content box.
    fn cells(&self, p: [F32x4; 3]) -> [Result<[usize; 3], f32>; F32x4::LANES] {
        // `Aabb::signed_distance`. Every part lies inside the content box,
        // so it bounds the distance to any part — but it vanishes on the
        // box's faces, where there may be no surface. It answers only
        // beyond what the blend is clamped to, where it is the better bound.
        let (zero, half, size) = (F32x4::splat(0.0), splat3(self.bounds.size() * 0.5), <[f32; 3]>::from(self.bounds.size()));
        let q = offset4(offset4(p, splat3(self.bounds.center())).map(F32x4::abs), half);
        let outside = (length4(q.map(|q| q.max(zero))) + q[0].max(q[1]).max(q[2]).min(zero)).to_array();
        // The cell `p` is in, or the one it projects to: projecting onto
        // the box brings `p` no farther from any part, so every part
        // within `margin` of `p` is listed there.
        let rel = offset4(p, splat3(self.bounds.min));
        let idx = std::array::from_fn::<_, 3, _>(|axis| (rel[axis] / F32x4::splat(size[axis].max(1e-9)) * F32x4::splat(self.dims as f32)).to_array());
        std::array::from_fn(|lane| match outside[lane] {
            outside if outside >= self.cap() => Err(outside),
            _ => Ok(idx.map(|axis| (axis[lane] as u32).min(self.dims - 1) as usize)),
        })
    }

    fn listed(&self, [x, y, z]: [usize; 3]) -> &[u16] {
        let n = self.dims as usize;
        let cell = (z * n + y) * n + x;
        &self.listed[self.cell_start[cell] as usize..self.cell_start[cell + 1] as usize]
    }

    /// What both lane bodies start from.
    fn lanes(&self, ps: &[Vec3]) -> Lanes<'_> {
        let pts = std::array::from_fn(|lane| ps[if lane < ps.len() { lane } else { 0 }]);
        let xyz = [pts.map(|p| p.x), pts.map(|p| p.y), pts.map(|p| p.z)].map(F32x4::from_array);
        let mut lanes = Lanes { pts, xyz, masks: [0; F32x4::LANES], tails: [&[]; F32x4::LANES], outside: [None; F32x4::LANES] };
        for (lane, cell) in self.cells(xyz).into_iter().enumerate().take(ps.len()) {
            match cell {
                Ok([x, y, z]) => {
                    lanes.masks[lane] = self.spans[0][x] & self.spans[1][y] & self.spans[2][z];
                    if self.parts.len() > 64 {
                        lanes.tails[lane] = &self.listed([x, y, z])[lanes.masks[lane].count_ones() as usize..];
                    }
                }
                Err(outside) => lanes.outside[lane] = Some(outside),
            }
        }
        lanes
    }

    /// The unscoped body, for up to four points: each lane folds its own
    /// list and clamps, skipping a part whose bounding ball already
    /// proves it a no-op of the lane's running blend (DESIGN.md §15,
    /// "Per-point culling"). A part is evaluated, in every lane at once,
    /// only if some lane needs it.
    fn eval_lanes(&self, ps: &[Vec3], out: &mut [f32]) {
        let lanes = self.lanes(ps);
        let mut d = F32x4::splat(f32::INFINITY);
        walk(lanes.masks, lanes.tails, |pi, listing| {
            // Part i is at least `|p - c| - r` away; once that exceeds
            // the running blend by the blend radius it cannot move it.
            let (c, r) = self.balls[pi];
            let [x, y, z] = offset4(lanes.xyz, splat3(c));
            let reach = d + F32x4::splat(self.smoothness) + F32x4::splat(CULL_SLACK) + F32x4::splat(r);
            let needed = listing & !(x * x + y * y + z * z).ge(reach * reach).bitmask();
            if needed != 0 {
                let folded = smooth_min4(d, self.kernels[pi].distance4(lanes.xyz), self.smoothness);
                d = F32x4::select(F32x4::from_bitmask(needed), folded, d);
            }
        });
        let d = d.min(F32x4::splat(self.cap())).to_array();
        out.iter_mut().zip(lanes.outside).zip(d).for_each(|((v, outside), d)| *v = outside.unwrap_or(d));
    }

    /// The scoped body, for up to four points under one scope over one
    /// radius: each lane folds the parts of its own list that `scope`
    /// keeps alive, with `distance_in`'s rules — drop what is a no-op
    /// throughout the ball of `radius`, and bound the value there
    /// (DESIGN.md §15, "Corners by lanes").
    fn eval_lanes_in(&self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        let lanes = self.lanes(ps);
        let rules = Rules::new(self, radius);
        let mut fold = Fold::new(self.cap(), scope.alive);
        walk(lanes.masks.map(|m| m & scope.alive), lanes.tails, |pi, listing| {
            let bit = if pi < 64 { 1 << pi } else { 0 };
            fold.add(&rules, &self.parts[pi], bit, &lanes.pts, listing, self.kernels[pi].distance4(lanes.xyz));
        });
        for (lane, answer) in fold.finish(self, &rules).into_iter().enumerate().take(ps.len()) {
            out[lane] = lanes.outside[lane].map_or(answer, |outside| (outside, scope));
        }
    }
}

/// Call `visit(pi, listing)` for each part some lane lists, with the
/// lanes that list it as bits: those in `masks` once each, ascending,
/// then each lane's tail — so each lane sees its own list in order.
#[inline]
fn walk(masks: [u64; F32x4::LANES], tails: [&[u16]; F32x4::LANES], mut visit: impl FnMut(usize, u32)) {
    let mut todo = masks.iter().fold(0, |all, m| all | m);
    while todo != 0 {
        let pi = todo.trailing_zeros() as usize;
        todo &= todo - 1;
        visit(pi, masks.iter().enumerate().fold(0, |bits, (lane, m)| bits | ((m >> pi) as u32 & 1) << lane));
    }
    for (lane, tail) in tails.iter().enumerate() {
        for &pi in *tail {
            visit(pi as usize, 1 << lane);
        }
    }
}

/// Up to four points as lanes (spare lanes repeat the first, and fold
/// nothing); each lane's listed parts below 64 as bits, and its list from
/// 64 on, which has no bits; or the box distance, where that answers.
struct Lanes<'a> {
    pts: [Vec3; F32x4::LANES],
    xyz: [F32x4; 3],
    masks: [u64; F32x4::LANES],
    tails: [&'a [u16]; F32x4::LANES],
    outside: [Option<f32>; F32x4::LANES],
}

/// What a scoped evaluation over a ball of `radius` may conclude: the
/// same for every point of a batch, so worked out once per batch.
struct Rules {
    radius: f32,
    radius4: F32x4,
    /// Part i is a no-op within `radius` when an earlier exact part j,
    /// listed in every grid cell the ball touches, is nearer by `gap`.
    gap: F32x4,
    /// j's box is within `margin` of the whole ball — so j is listed
    /// there — when j is at most this far from the center.
    witness_reach: F32x4,
    narrowing: bool,
    /// A point has no region to bound.
    bounding: bool,
    smoothness: f32,
}

impl Rules {
    fn new(union: &GriddedUnion, radius: f32) -> Self {
        let witness_reach = union.margin - radius - CULL_SLACK;
        Self {
            radius,
            radius4: F32x4::splat(radius),
            gap: F32x4::splat(union.smoothness + 2.0 * radius + CULL_SLACK),
            witness_reach: F32x4::splat(witness_reach),
            narrowing: witness_reach >= 0.0,
            bounding: radius > 0.0,
            smoothness: union.smoothness,
        }
    }
}

/// [`smooth_min`] per lane, the same ops in the same order.
#[inline]
fn smooth_min4(a: F32x4, b: F32x4, k: f32) -> F32x4 {
    if k <= 0.0 {
        return a.min(b);
    }
    let k4 = F32x4::splat(k);
    let h = (k4 - (a - b).abs()).max(F32x4::splat(0.0)) / k4;
    a.min(b) - h * h * k4 * F32x4::splat(0.25)
}

/// Four points' scoped folds, part by part.
struct Fold {
    d: F32x4,
    alive: [u64; F32x4::LANES],
    nearest_exact: F32x4,
    hi: F32x4,
    /// The same fold begun at the clamp: no part unlisted here, more
    /// than `margin` away, can take the union's fold below it.
    floor: F32x4,
}

impl Fold {
    fn new(cap: f32, alive: u64) -> Self {
        let inf = F32x4::splat(f32::INFINITY);
        Self { d: inf, alive: [alive; F32x4::LANES], nearest_exact: inf, hi: inf, floor: F32x4::splat(cap) }
    }

    /// Blend `part`, whose value at `pts` is `v` and whose alive bit
    /// (none past 63) is `bit`, into the lanes `listing` names (bit `i`
    /// for lane `i`).
    #[inline]
    fn add(&mut self, rules: &Rules, part: &Primitive, bit: u64, pts: &[Vec3; F32x4::LANES], listing: u32, v: F32x4) {
        let listed = F32x4::from_bitmask(listing);
        if rules.narrowing && part.is_exact() {
            let dead = listed & self.nearest_exact.le(rules.witness_reach) & (v - self.nearest_exact).ge(rules.gap);
            let mut lanes = dead.bitmask();
            while lanes != 0 {
                self.alive[lanes.trailing_zeros() as usize] &= !bit;
                lanes &= lanes - 1;
            }
            self.nearest_exact = F32x4::select(listed, self.nearest_exact.min(v), self.nearest_exact);
        }
        if rules.bounding {
            // The blend never exceeds a blended part, and where a part is
            // not listed it is farther than the clamp. An exact part's
            // `ceiling` is `v + radius`, which the lanes add at once.
            let ceiling = if part.is_exact() {
                v + rules.radius4
            } else {
                let v = v.to_array();
                F32x4::from_array(std::array::from_fn(|lane| part.ceiling(pts[lane], v[lane], rules.radius)))
            };
            self.hi = F32x4::select(listed, self.hi.min(ceiling), self.hi);
            self.floor = F32x4::select(listed, smooth_min4(self.floor, v, rules.smoothness), self.floor);
        }
        self.d = F32x4::select(listed, smooth_min4(self.d, v, rules.smoothness), self.d);
    }

    /// Each lane's value and scope.
    fn finish(&self, union: &GriddedUnion, rules: &Rules) -> [(f32, SdfScope); F32x4::LANES] {
        let (d, hi, floor) = (self.d.to_array(), self.hi.to_array(), self.floor.to_array());
        std::array::from_fn(|lane| {
            // A fold falls no faster than its fastest argument, and a
            // segment that enters an ellipsoid starts within `radius` of
            // it, where `lo` is negative.
            let lo = floor[lane] - rules.radius - CULL_SLACK;
            let lo = if rules.bounding && union.falls_no_faster && lo > 0.0 { lo } else { f32::NEG_INFINITY };
            (d[lane].min(union.cap()), SdfScope { alive: self.alive[lane], lo, hi: hi[lane] + CULL_SLACK })
        })
    }
}

impl Sdf for GriddedUnion {
    fn distance(&self, p: Vec3) -> f32 {
        let mut out = [0.0];
        self.eval_lanes(&[p], &mut out);
        out[0]
    }

    fn distance_batch(&self, ps: &[Vec3], out: &mut [f32]) {
        assert_eq!(ps.len(), out.len(), "one answer per point");
        for (ps, out) in ps.chunks(F32x4::LANES).zip(out.chunks_mut(F32x4::LANES)) {
            self.eval_lanes(ps, out);
        }
    }

    fn bounds(&self) -> Aabb {
        self.bounds.expanded(self.smoothness)
    }

    fn distance_in(&self, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        let mut out = [(0.0, scope)];
        self.eval_lanes_in(&[p], scope, radius, &mut out);
        out[0]
    }

    fn distance_batch_in(&self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        assert_eq!(ps.len(), out.len(), "one answer per point");
        for (ps, out) in ps.chunks(F32x4::LANES).zip(out.chunks_mut(F32x4::LANES)) {
            self.eval_lanes_in(ps, scope, radius, out);
        }
    }

    /// One capsule per part, grown by the blend radius; the floor is the
    /// clamp. The value is `min(fold, cap)` over the listed parts, or the
    /// box distance from `cap` up, and a left fold of `smooth_min`s is
    /// never more than `k` below its least argument: write the running
    /// value as `m − e·k` with `m` the least argument so far; a part at
    /// or above `m` takes at most `(1 − e)²·k/4` off, and
    /// `e + (1 − e)²/4 <= 1`; a part below `m` leaves the value at most
    /// `k` below itself. Both give up `CULL_SLACK`. A union holding an
    /// ellipsoid past the `√2` gate proves no hull, as it proves no lower
    /// bound for a scope: the capsule would still hold, but it widens as
    /// `1/c` and would rule out little.
    fn hull(&self) -> Option<SdfHull<'_>> {
        let grow = self.smoothness + CULL_SLACK;
        self.falls_no_faster.then_some(SdfHull { parts: &self.parts, reach: self.margin, grow, floor: self.cap() - CULL_SLACK })
    }
}

/// Blanket impl so `&S` and boxed SDFs work wherever an `Sdf` is expected.
impl<S: Sdf + ?Sized> Sdf for &S {
    fn distance(&self, p: Vec3) -> f32 {
        (**self).distance(p)
    }

    fn bounds(&self) -> Aabb {
        (**self).bounds()
    }

    fn distance_batch(&self, ps: &[Vec3], out: &mut [f32]) {
        (**self).distance_batch(ps, out)
    }

    fn distance_in(&self, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        (**self).distance_in(p, scope, radius)
    }

    fn distance_batch_in(&self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        (**self).distance_batch_in(ps, scope, radius, out)
    }

    fn hull(&self) -> Option<SdfHull<'_>> {
        (**self).hull()
    }
}

impl Sdf for Box<dyn Sdf + Send> {
    fn distance(&self, p: Vec3) -> f32 {
        (**self).distance(p)
    }

    fn bounds(&self) -> Aabb {
        (**self).bounds()
    }

    fn distance_batch(&self, ps: &[Vec3], out: &mut [f32]) {
        (**self).distance_batch(ps, out)
    }

    fn distance_in(&self, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        (**self).distance_in(p, scope, radius)
    }

    fn distance_batch_in(&self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        (**self).distance_batch_in(ps, scope, radius, out)
    }

    fn hull(&self) -> Option<SdfHull<'_>> {
        (**self).hull()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use holo_math::{approx_eq, Pcg32};
    use holo_runtime::check::any;
    use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};

    /// Up to 12 primitives of all four kinds.
    pub(crate) fn random_parts(rng: &mut Pcg32) -> Vec<Primitive> {
        let mut point = |reach: f32| Vec3::new(rng.range_f32(-reach, reach), rng.range_f32(-reach, reach), rng.range_f32(-reach, reach));
        let parts: Vec<Primitive> = (0..12)
            .map(|i| {
                let (a, b) = (point(0.4), point(0.15));
                let (ra, rb) = (0.02 + b.x.abs(), 0.02 + b.y.abs());
                match i % 4 {
                    0 => Primitive::Sphere(SdfSphere { center: a, radius: ra }),
                    1 => Primitive::Capsule(SdfCapsule { a, b: a + b, radius: ra }),
                    2 => Primitive::RoundCone(SdfRoundCone { a, b: a + b, ra, rb }),
                    _ => Primitive::Ellipsoid(SdfEllipsoid { center: a, radii: Vec3::new(ra, rb, 0.02 + b.z.abs()) }),
                }
            })
            .collect();
        let keep = 1 + rng.next_u32() as usize % parts.len();
        parts[..keep].to_vec()
    }

    /// `parts` under a random blend, listing margin and grid.
    pub(crate) fn union_of(parts: Vec<Primitive>, rng: &mut Pcg32) -> GriddedUnion {
        let smoothness = rng.range_f32(0.0, 0.05);
        let margin = smoothness + rng.range_f32(0.02, 0.3);
        GriddedUnion::build(parts, smoothness, 1 + rng.next_u32() % 12, margin)
    }

    /// The scoped body as it was before it took lanes, one point and one
    /// part at a time: what [`Sdf::distance_batch_in`] is held to, lane
    /// by lane and bit for bit.
    fn scoped_reference(union: &GriddedUnion, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        let cell = match union.listed_at(p) {
            Ok(cell) => cell,
            Err(outside) => return (outside, scope),
        };
        let mut alive = scope.alive;
        let gap = union.smoothness + 2.0 * radius + CULL_SLACK;
        let witness_reach = union.margin - radius - CULL_SLACK;
        let narrowing = witness_reach >= 0.0;
        let bounding = radius > 0.0;
        let mut nearest_exact = f32::INFINITY;
        let mut hi = f32::INFINITY;
        let mut floor = union.cap();
        let mut d = f32::INFINITY;
        for &pi in cell {
            let bit = if pi < 64 { 1u64 << pi } else { 0 };
            if !alive & bit != 0 {
                continue;
            }
            let part = &union.parts[pi as usize];
            let v = part.distance(p);
            if narrowing && part.is_exact() {
                if nearest_exact <= witness_reach && v - nearest_exact >= gap {
                    alive &= !bit;
                }
                nearest_exact = nearest_exact.min(v);
            }
            if bounding {
                hi = hi.min(part.ceiling(p, v, radius));
                floor = smooth_min(floor, v, union.smoothness);
            }
            d = smooth_min(d, v, union.smoothness);
        }
        let lo = floor - radius - CULL_SLACK;
        let lo = if bounding && union.falls_no_faster && lo > 0.0 { lo } else { f32::NEG_INFINITY };
        (d.min(union.cap()), SdfScope { alive, lo, hi: hi + CULL_SLACK })
    }

    /// The unscoped body as it was before it took lanes, one point and one
    /// part at a time: what [`Sdf::distance_batch`] is held to, lane by
    /// lane and bit for bit.
    fn unscoped_reference(union: &GriddedUnion, p: Vec3) -> f32 {
        let cell = match union.listed_at(p) {
            Ok(cell) => cell,
            Err(outside) => return outside,
        };
        let mut d = f32::INFINITY;
        for &pi in cell {
            // Part i is at least `|p - c| - r` away; once that exceeds
            // the running blend by the blend radius it cannot move it.
            let (c, r) = union.balls[pi as usize];
            let reach = d + union.smoothness + CULL_SLACK + r;
            if (p - c).length_sq() >= reach * reach {
                continue;
            }
            d = smooth_min(d, union.parts[pi as usize].distance(p), union.smoothness);
        }
        d.min(union.cap())
    }

    fn unit(rng: &mut Pcg32) -> Vec3 {
        let v = Vec3::new(rng.normal(), rng.normal(), rng.normal());
        if v.length_sq() > 1e-12 { v.normalized() } else { Vec3::X }
    }

    /// Unions of all four kinds, with cones `distance` treats as two
    /// spheres (one end containing the other, and both ends at one
    /// point), sometimes 70 parts so that lists run past the mask.
    fn hard_union(rng: &mut Pcg32) -> GriddedUnion {
        let mut parts = random_parts(rng);
        if rng.chance(0.5) {
            let a = Vec3::new(rng.range_f32(-0.3, 0.3), rng.range_f32(-0.3, 0.3), rng.range_f32(-0.3, 0.3));
            let (ra, rb) = (rng.range_f32(0.05, 0.15), rng.range_f32(0.01, 0.04));
            let inner = a + unit(rng) * (ra - rb) * rng.range_f32(0.0, 1.0);
            parts.insert(rng.index(parts.len() + 1), Primitive::RoundCone(SdfRoundCone { a, b: inner, ra, rb }));
            parts.insert(rng.index(parts.len() + 1), Primitive::RoundCone(SdfRoundCone { a, b: a, ra: rb, rb: ra }));
        }
        if rng.chance(0.25) {
            while parts.len() < 70 {
                parts.extend(random_parts(rng));
            }
            parts.truncate(70);
        }
        union_of(parts, rng)
    }

    /// 1 to 27 points within `spread` of `center`, and some outside the
    /// content box, beyond the clamp.
    fn batch_points(rng: &mut Pcg32, union: &GriddedUnion, center: Vec3, spread: f32) -> Vec<Vec3> {
        let b = union.bounds();
        (0..1 + rng.index(27))
            .map(|_| match rng.next_u32() % 8 {
                0 => b.center() + unit(rng) * rng.range_f32(1.0, 4.0),
                _ => center + unit(rng) * (spread * rng.range_f32(0.0, 1.0)),
            })
            .collect()
    }

    holo_prop! {
        #![cases(512)]

        /// Each lane of a batch is the scalar fold of its own point, to
        /// the bit: the value, and the scope's alive set and interval.
        /// [`hard_union`]s; [`batch_points`], over no radius or a random
        /// one, under a scope narrowed through a ball that contains theirs.
        fn a_batch_is_the_scalar_fold_of_each_lane(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let union = hard_union(&mut rng);
            let b = union.bounds();
            let center = b.center() + unit(&mut rng).mul_elem(b.size()) * rng.range_f32(0.0, 0.7);
            let outer = rng.range_f32(0.0, 0.4);
            let scope = if rng.chance(0.25) { SdfScope::ALL } else { scoped_reference(&union, center, SdfScope::ALL, outer).1 };
            let radius = if rng.chance(0.5) { 0.0 } else { rng.range_f32(0.0, outer) };
            let ps = batch_points(&mut rng, &union, center, outer - radius);
            let mut out = vec![(f32::NAN, SdfScope::ALL); ps.len()];
            union.distance_batch_in(&ps, scope, radius, &mut out);
            for (&p, &(v, got)) in ps.iter().zip(&out) {
                let (want_v, want) = scoped_reference(&union, p, scope, radius);
                prop_assert_eq!(v.to_bits(), want_v.to_bits(), "value at {:?}: {} against {}", p, v, want_v);
                prop_assert_eq!(got.alive, want.alive, "alive at {:?}", p);
                prop_assert_eq!((got.lo.to_bits(), got.hi.to_bits()), (want.lo.to_bits(), want.hi.to_bits()), "interval at {:?}: {:?} against {:?}", p, got, want);
            }
        }

        /// Each lane of an unscoped batch, and `distance` itself, is the
        /// scalar fold of its own point, to the bit, on the same unions
        /// and points.
        fn an_unscoped_batch_is_the_scalar_fold_of_each_lane(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let union = hard_union(&mut rng);
            let b = union.bounds();
            let center = b.center() + unit(&mut rng).mul_elem(b.size()) * rng.range_f32(0.0, 0.7);
            let spread = rng.range_f32(0.0, 0.4);
            let ps = batch_points(&mut rng, &union, center, spread);
            let mut out = vec![f32::NAN; ps.len()];
            union.distance_batch(&ps, &mut out);
            for (&p, &v) in ps.iter().zip(&out) {
                let want = unscoped_reference(&union, p);
                prop_assert_eq!(v.to_bits(), want.to_bits(), "batch at {:?}: {} against {}", p, v, want);
                prop_assert_eq!(union.distance(p).to_bits(), want.to_bits(), "distance at {:?}", p);
            }
        }
    }

    /// Each part's four-lane kernel is its scalar `distance`, to the bit,
    /// around random parts of every kind: near them, and where the scalar
    /// code branches or meets a signed zero — the ends of a cone or a
    /// capsule and its axis beyond them, points on a capsule's segment, a
    /// capsule whose ends coincide, cones `distance` treats as two spheres
    /// (one end containing the other, and both ends at one point), and an
    /// ellipsoid's center and axes, some through a center at the origin
    /// with `-0.0` offsets; and a NaN coordinate, which `clamp` keeps.
    #[test]
    fn every_kernel_is_its_scalar_part() {
        let mut rng = Pcg32::new(0xC0DE);
        let mut kernels = [0; 5];
        for i in 0..5000 {
            let a = if rng.chance(0.1) { Vec3::ZERO } else { Vec3::new(rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0)) };
            let (ra, rb) = (rng.range_f32(0.0, 0.2), rng.range_f32(0.0, 0.2));
            let b = match rng.next_u32() % 4 {
                0 => a,
                _ => a + unit(&mut rng) * rng.range_f32(0.0, 0.5),
            };
            let part = match i % 5 {
                0 => Primitive::Sphere(SdfSphere { center: a, radius: ra }),
                1 => Primitive::Capsule(SdfCapsule { a, b, radius: ra }),
                2 => Primitive::RoundCone(SdfRoundCone { a, b, ra, rb }),
                // One end sphere inside the other.
                3 => Primitive::RoundCone(SdfRoundCone { a, b: a + unit(&mut rng) * (ra - rb).abs() * rng.range_f32(0.0, 1.0), ra, rb }),
                _ => Primitive::Ellipsoid(SdfEllipsoid { center: a, radii: Vec3::new(0.01 + ra, 0.01 + rb, rng.range_f32(0.01, 0.2)) }),
            };
            let (a, b) = match part {
                Primitive::Capsule(c) => (c.a, c.b),
                Primitive::RoundCone(c) => (c.a, c.b),
                _ => (a, a),
            };
            let kernel = PreparedPart::new(&part);
            kernels[match kernel {
                PreparedPart::Sphere { .. } => 0,
                PreparedPart::Capsule { .. } => 1,
                PreparedPart::Cone { .. } => 2,
                PreparedPart::TwoSpheres { .. } => 3,
                PreparedPart::Ellipsoid { .. } => 4,
            }] += 1;
            for _ in 0..8 {
                let pts: [Vec3; 4] = std::array::from_fn(|lane| match rng.next_u32() % 8 {
                    7 => Vec3::new(f32::NAN, a.y, a.z),
                    0 => a,
                    1 => b,
                    2 => a.lerp(b, rng.range_f32(-3.0, 4.0)),
                    3 => a.lerp(b, rng.range_f32(0.0, 1.0)),
                    4 => {
                        // On an axis through `a`, the other offsets zero.
                        let mut q = [a.x, a.y, a.z];
                        let axis = rng.index(3);
                        q[axis] += rng.range_f32(-0.3, 0.3);
                        if a == Vec3::ZERO {
                            q[(axis + 1) % 3] = -0.0;
                        }
                        Vec3::from(q)
                    }
                    _ => a.lerp(b, rng.range_f32(-0.5, 1.5)) + unit(&mut rng) * rng.range_f32(0.0, 0.5) * (lane as f32 + 1.0),
                });
                let lanes = [F32x4::from_array(pts.map(|p| p.x)), F32x4::from_array(pts.map(|p| p.y)), F32x4::from_array(pts.map(|p| p.z))];
                let got = kernel.distance4(lanes).to_array();
                for (p, v) in pts.iter().zip(got) {
                    assert_eq!(v.to_bits(), part.distance(*p).to_bits(), "{part:?} at {p:?}");
                }
            }
        }
        assert!(kernels.iter().all(|&n| n > 400), "kernels by kind {kernels:?}");
    }

    #[test]
    fn sphere_distance_exact() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 2.0 };
        assert!(approx_eq(s.distance(Vec3::new(5.0, 0.0, 0.0)), 3.0, 1e-6));
        assert!(approx_eq(s.distance(Vec3::ZERO), -2.0, 1e-6));
        assert!(approx_eq(s.distance(Vec3::new(0.0, 2.0, 0.0)), 0.0, 1e-6));
    }

    #[test]
    fn capsule_distance_on_axis_and_side() {
        let c = SdfCapsule { a: Vec3::ZERO, b: Vec3::new(0.0, 2.0, 0.0), radius: 0.5 };
        // Beyond the end cap.
        assert!(approx_eq(c.distance(Vec3::new(0.0, 3.0, 0.0)), 0.5, 1e-6));
        // Beside the shaft.
        assert!(approx_eq(c.distance(Vec3::new(1.5, 1.0, 0.0)), 1.0, 1e-6));
        // Inside.
        assert!(c.distance(Vec3::new(0.0, 1.0, 0.0)) < 0.0);
    }

    #[test]
    fn round_cone_matches_sphere_at_ends() {
        let rc = SdfRoundCone { a: Vec3::ZERO, b: Vec3::new(0.0, 2.0, 0.0), ra: 0.5, rb: 0.2 };
        // Far below a: behaves like the a-sphere.
        assert!(approx_eq(rc.distance(Vec3::new(0.0, -2.0, 0.0)), 1.5, 1e-4));
        // Far above b: behaves like the b-sphere.
        assert!(approx_eq(rc.distance(Vec3::new(0.0, 4.0, 0.0)), 1.8, 1e-4));
        // Inside the thick end.
        assert!(rc.distance(Vec3::ZERO) < 0.0);
    }

    #[test]
    fn round_cone_zero_level_between_radii() {
        let rc = SdfRoundCone { a: Vec3::ZERO, b: Vec3::new(0.0, 2.0, 0.0), ra: 0.5, rb: 0.2 };
        // At mid-height the lateral surface radius is between rb and ra.
        let mut lo = 0.0f32;
        let mut hi = 2.0f32;
        for _ in 0..40 {
            let mid = (lo + hi) * 0.5;
            if rc.distance(Vec3::new(mid, 1.0, 0.0)) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert!((0.2..=0.5).contains(&lo), "surface radius {lo}");
    }

    #[test]
    fn ellipsoid_sign_correct() {
        let e = SdfEllipsoid { center: Vec3::ZERO, radii: Vec3::new(2.0, 1.0, 0.5) };
        assert!(e.distance(Vec3::ZERO) < 0.0);
        assert!(e.distance(Vec3::new(3.0, 0.0, 0.0)) > 0.0);
        assert!(approx_eq(e.distance(Vec3::new(2.0, 0.0, 0.0)), 0.0, 1e-4));
        assert!(approx_eq(e.distance(Vec3::new(0.0, 0.0, 0.5)), 0.0, 1e-4));
    }

    holo_prop! {
        #![cases(1024)]

        /// What a scope's lower bound rests on: while `r_max <= sqrt(2) r_min`
        /// IQ's bound falls no faster than the point moves, along any
        /// segment that stays outside the ellipsoid, and outside the
        /// ellipsoid's box padded by a margin — where the grid no longer
        /// lists it — it reads no less than that margin. (The `1e-6` is
        /// `f32` rounding of two values near 1.)
        fn a_rounded_ellipsoids_bound_falls_no_faster_than_the_point_moves(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let r_min = rng.range_f32(0.02, 0.2);
            let mut radii = [r_min, r_min * rng.range_f32(1.0, 1.414), r_min * rng.range_f32(1.0, 1.414)];
            radii.rotate_left(rng.next_u32() as usize % 3);
            let e = SdfEllipsoid { center: Vec3::ZERO, radii: Vec3::from(radii) };
            prop_assert!(Primitive::Ellipsoid(e).falls_no_faster_outside());
            let unit = |rng: &mut Pcg32| Vec3::new(rng.normal(), rng.normal(), rng.normal()).normalized();
            let scaled = |p: Vec3| Vec3::new(p.x / radii[0], p.y / radii[1], p.z / radii[2]);
            for i in 0..64 {
                // From the skin to ten radii out; any direction, and the
                // one the bound falls fastest in.
                let a = unit(&mut rng).mul_elem(e.radii) * (1.0 + rng.range_f32(0.0, 3.0).powi(2));
                let heading = if i % 2 == 0 { unit(&mut rng) } else { -e.normal(a, 1e-3) };
                let b = a + heading * rng.range_f32(0.01, 0.5);
                // The gauge is the length in scaled space, so its least
                // value on the segment is at the foot of the perpendicular.
                let (u, w) = (scaled(a), scaled(b - a));
                let foot = u + w * (-u.dot(w) / w.length_sq()).clamp(0.0, 1.0);
                if foot.length() < 1.0 {
                    continue;
                }
                let fell = e.distance(a) - e.distance(b);
                prop_assert!(fell <= (a - b).length() * (1.0 + 1e-5) + 1e-6, "{e:?}: {a:?} -> {b:?} fell {fell} over {}", (a - b).length());

                // A point on a face of the padded box, and beyond it.
                let margin = rng.range_f32(0.01, 0.5);
                let mut q = <[f32; 3]>::from(unit(&mut rng).mul_elem(e.radii + Vec3::splat(margin)) * 2.0);
                let axis = rng.next_u32() as usize % 3;
                q[axis] = (radii[axis] + margin + rng.range_f32(0.0, 0.2).powi(2)).copysign(q[axis]);
                let read = e.distance(Vec3::from(q));
                prop_assert!(read >= margin * (1.0 - 1e-5) - 1e-6, "{e:?}: {read} at {q:?}, outside the box padded by {margin}");
            }
        }
    }

    /// Past `sqrt(2)` it does not hold, so the gate on `lo` is needed: off
    /// the tip of a 1 : 3 : 1 ellipsoid the bound falls more than twice
    /// as fast as the point moves, and a union holding that ellipsoid
    /// reports no lower bound where a rounder one does.
    #[test]
    fn an_elongated_ellipsoids_bound_outruns_the_point_and_its_union_reports_no_floor() {
        let long = SdfEllipsoid { center: Vec3::ZERO, radii: Vec3::new(0.1, 0.3, 0.1) };
        let (a, b) = (Vec3::new(0.29, -4.0, 0.0), Vec3::new(0.30, -4.0, 0.0));
        assert!(long.k0(a) > 1.0 && long.k0(b) > 1.0, "both outside");
        assert!(long.distance(a) - long.distance(b) > 2.0 * (a - b).length(), "{} -> {}", long.distance(a), long.distance(b));
        assert!(!Primitive::Ellipsoid(long).falls_no_faster_outside());

        let round = SdfEllipsoid { radii: Vec3::new(0.1, 0.14, 0.1), ..long };
        let scope_of = |e: SdfEllipsoid| {
            let union = GriddedUnion::build(vec![Primitive::Ellipsoid(e)], 0.02, 8, 0.3);
            let (d, scope) = union.distance_in(Vec3::new(0.2, 0.0, 0.0), SdfScope::ALL, 0.05);
            assert!((d - 0.1).abs() < 1e-6, "outside, 5 cm clear of the ball: {d}");
            scope
        };
        let (long, round) = (scope_of(long), scope_of(round));
        assert_eq!(long.lo, f32::NEG_INFINITY);
        assert!((round.lo - (0.1 - 0.05 - CULL_SLACK)).abs() < 1e-6, "{round:?}");
        assert!(round.excludes(0.0) && !long.excludes(0.0));
    }

    /// The least of a hull's capsules at `p`, or its floor.
    fn hull_value(hull: &SdfHull, p: Vec3) -> f32 {
        hull.capsules().map(|(a, b, radius)| SdfCapsule { a, b, radius }.distance(p)).fold(hull.floor(), f32::min)
    }

    holo_prop! {
        #![cases(4096)]

        /// A union never reads below its hull: [`hard_union`]s, most of
        /// their elongated ellipsoids made round enough to keep the hull,
        /// at points near the parts' ends and centers, within the blend
        /// radius of the surface, anywhere around the box, and beyond the
        /// clamp.
        fn a_union_never_reads_below_its_hull(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let union = hard_union(&mut rng);
            let parts: Vec<Primitive> = union
                .parts()
                .iter()
                .map(|&part| match part {
                    Primitive::Ellipsoid(e) if !part.falls_no_faster_outside() && rng.chance(0.8) => {
                        let r = e.r_min();
                        Primitive::Ellipsoid(SdfEllipsoid { radii: Vec3::new(r, r * rng.range_f32(1.0, 1.414), r * rng.range_f32(1.0, 1.414)), ..e })
                    }
                    part => part,
                })
                .collect();
            let union = GriddedUnion::build(parts, union.smoothness, union.dims, union.margin);
            let Some(hull) = union.hull() else {
                prop_assert!(!union.falls_no_faster, "a union of round parts proves a hull");
                return Ok(());
            };
            let b = union.bounds();
            for _ in 0..32 {
                let p = match rng.next_u32() % 4 {
                    0 => {
                        let (a, end, r) = union.parts[rng.index(union.len())].hull_capsule(union.margin);
                        a.lerp(end, rng.range_f32(0.0, 1.0)) + unit(&mut rng) * r * rng.range_f32(0.0, 2.0)
                    }
                    1 => {
                        let mut p = b.center() + unit(&mut rng).mul_elem(b.size()) * 0.5;
                        for _ in 0..6 {
                            p -= union.normal(p, 1e-3) * union.distance(p);
                        }
                        p + unit(&mut rng) * rng.range_f32(0.0, union.smoothness + 0.01)
                    }
                    2 => b.center() + unit(&mut rng).mul_elem(b.size()) * rng.range_f32(0.0, 1.0),
                    _ => b.center() + unit(&mut rng) * rng.range_f32(1.0, 4.0),
                };
                let (d, under) = (union.distance(p), hull_value(&hull, p));
                prop_assert!(d >= under, "{} at {:?} is below the hull's {}", d, p, under);
            }
        }
    }

    /// The hull is one capsule per part and the clamp less the slack; a
    /// union that holds a 1 : 3 : 1 ellipsoid has none.
    #[test]
    fn an_elongated_ellipsoid_leaves_its_union_no_hull() {
        let sphere = Primitive::Sphere(SdfSphere { center: Vec3::ZERO, radius: 0.1 });
        let round = GriddedUnion::build(vec![sphere, Primitive::Ellipsoid(SdfEllipsoid { center: Vec3::X, radii: Vec3::new(0.1, 0.14, 0.1) })], 0.02, 8, 0.3);
        let hull = round.hull().expect("round parts prove a hull");
        assert_eq!(hull.capsules().count(), 2);
        assert_eq!(hull.floor(), round.cap() - CULL_SLACK);
        assert_eq!(hull.capsules().next(), Some((Vec3::ZERO, Vec3::ZERO, 0.1 + (0.02 + CULL_SLACK))));
        let long = GriddedUnion::build(vec![sphere, Primitive::Ellipsoid(SdfEllipsoid { center: Vec3::X, radii: Vec3::new(0.1, 0.3, 0.1) })], 0.02, 8, 0.3);
        assert!(long.hull().is_none());
        // `&S` and a box forward it.
        assert!(<&GriddedUnion as Sdf>::hull(&&round).is_some());
        let boxed: Box<dyn Sdf + Send> = Box::new(round);
        assert!(boxed.hull().is_some() && SdfSphere { center: Vec3::ZERO, radius: 1.0 }.hull().is_none());
    }

    /// Off its axes IQ's bound rises slower than the point moves, so the
    /// sphere through an ellipsoid's box corners is no capsule for it far
    /// enough out: 35 cm from a 2 cm one it reads 3 mm below that
    /// sphere's distance. The capsule derived for the reach still holds.
    #[test]
    fn an_ellipsoids_capsule_holds_where_its_corner_sphere_does_not() {
        let e = SdfEllipsoid { center: Vec3::ZERO, radii: Vec3::new(0.02, 0.02, 0.02 * 2f32.sqrt()) };
        let p = Vec3::new(1.0, 1.0, 2.0).normalized() * 0.35;
        let corner_sphere = p.length() - e.radii.length();
        assert!(e.distance(p) < corner_sphere - 3e-3, "{} against {corner_sphere}", e.distance(p));
        let (a, b, radius) = Primitive::Ellipsoid(e).hull_capsule(0.3);
        assert_eq!((a, b), (Vec3::ZERO, Vec3::ZERO));
        assert!(e.distance(p) >= (p.length() - radius).min(0.3), "{} against a capsule of {radius}", e.distance(p));
    }

    #[test]
    fn smooth_min_bounded_by_hard_min() {
        let mut rng = Pcg32::new(1);
        for _ in 0..1000 {
            let a = rng.range_f32(-2.0, 2.0);
            let b = rng.range_f32(-2.0, 2.0);
            let s = smooth_min(a, b, 0.3);
            assert!(s <= a.min(b) + 1e-6);
            assert!(s >= a.min(b) - 0.3 * 0.25 - 1e-6);
        }
        assert_eq!(smooth_min(1.0, 2.0, 0.0), 1.0);
    }

    #[test]
    fn union_contains_all_parts() {
        let mut u = SdfUnion::new(0.05);
        u.push(Box::new(SdfSphere { center: Vec3::ZERO, radius: 1.0 }));
        u.push(Box::new(SdfSphere { center: Vec3::new(3.0, 0.0, 0.0), radius: 0.5 }));
        assert_eq!(u.len(), 2);
        assert!(u.distance(Vec3::ZERO) < 0.0);
        assert!(u.distance(Vec3::new(3.0, 0.0, 0.0)) < 0.0);
        assert!(u.distance(Vec3::new(1.8, 0.0, 0.0)) > 0.0);
        let b = u.bounds();
        assert!(b.contains(Vec3::new(3.4, 0.0, 0.0)));
    }

    #[test]
    fn normals_point_away_from_sphere_center() {
        let s = SdfSphere { center: Vec3::ZERO, radius: 1.0 };
        let p = Vec3::new(0.8, 0.6, 0.0); // on the surface
        let n = s.normal(p, 1e-3);
        assert!(n.dot(p.normalized()) > 0.999);
    }

    #[test]
    fn gridded_union_matches_plain_union_near_surface() {
        let parts: Vec<SdfSphere> = (0..20)
            .map(|i| {
                let t = i as f32 * 0.31;
                SdfSphere {
                    center: Vec3::new(t.sin() * 0.8, 1.0 + (t * 1.7).cos() * 0.6, (t * 0.9).sin() * 0.4),
                    radius: 0.15,
                }
            })
            .collect();
        let mut plain = SdfUnion::new(0.02);
        for p in &parts {
            plain.push(Box::new(*p));
        }
        let grid = GriddedUnion::build(parts.into_iter().map(Primitive::Sphere).collect(), 0.02, 16, 0.3);
        let mut rng = Pcg32::new(3);
        for _ in 0..3000 {
            let p = Vec3::new(rng.range_f32(-1.2, 1.2), rng.range_f32(-0.2, 2.0), rng.range_f32(-1.0, 1.0));
            let dp = plain.distance(p);
            let dg = grid.distance(p);
            if dp < 0.2 {
                // Exact within the margin band, in the parts' box or out.
                assert!((dp - dg).abs() < 1e-5, "mismatch at {p:?}: plain {dp} grid {dg}");
            } else {
                // Elsewhere: conservative underestimate, never larger,
                // never flipping sign to negative.
                assert!(dg <= dp + 1e-5, "overestimate at {p:?}: plain {dp} grid {dg}");
                if dp > 0.0 {
                    assert!(dg >= 0.0, "sign flip at {p:?}: plain {dp} grid {dg}");
                }
            }
        }
    }

    /// Two overlapping spheres: within `cap` of the parts the gridded
    /// union *is* the plain union, outside the content box as well as in
    /// it, so the two extractions are the same surface — closed, genus 0,
    /// the same triangles over the same lattice edges, every vertex and
    /// normal bit-identical. The plain union proves nothing about a
    /// region, so its descent is the assumed band's alone; the gridded
    /// union's own interval only ever takes nodes away from that.
    #[test]
    fn gridded_union_extracts_the_plain_unions_surface() {
        let spheres = [
            SdfSphere { center: Vec3::new(0.3, 0.0, 0.0), radius: 0.5 },
            SdfSphere { center: Vec3::new(-0.3, 0.0, 0.0), radius: 0.5 },
        ];
        let grid = GriddedUnion::build(spheres.iter().copied().map(Primitive::Sphere).collect(), 0.02, 12, 0.3);
        let mut plain = SdfUnion::new(0.02);
        for s in spheres {
            plain.push(Box::new(s));
        }
        // Same lattice for both: the plain union's bounds are the grid's.
        assert_eq!(grid.bounds(), plain.bounds());
        let (mesh, stats) = crate::sparse::sparse_extract_with_stats(&grid, 48, 0.05);
        let (reference, reference_stats) = crate::sparse::sparse_extract_with_stats(&plain, 48, 0.05);
        assert!(mesh.is_closed());
        assert_eq!(mesh.euler_characteristic(), 2);
        assert_eq!(mesh.faces, reference.faces);
        assert_eq!(mesh.vertices.len(), reference.vertices.len());
        let moved = mesh.vertices.iter().zip(&reference.vertices).filter(|(a, b)| a != b).count();
        assert_eq!(moved, 0, "vertices that differ, of {}", mesh.vertices.len());
        let turned = mesh.normals.iter().zip(&reference.normals).filter(|(a, b)| a != b).count();
        assert_eq!((turned, mesh.normals.len()), (0, reference.normals.len()), "normals that differ");
        assert_eq!(stats.triangles_emitted, reference_stats.triangles_emitted);
        assert!(
            stats.cubes_visited <= reference_stats.cubes_visited && stats.field_evals <= reference_stats.field_evals,
            "leaves and samples {stats:?}, against the plain union's {reference_stats:?}"
        );
    }

    #[test]
    fn gridded_union_empty_is_safe() {
        let grid = GriddedUnion::build(Vec::new(), 0.02, 8, 0.3);
        assert!(grid.is_empty());
        assert!(grid.distance(Vec3::ZERO) > -1.0);
    }
}
