//! RGB-D rendering of an SDF by sphere tracing: the virtual Kinect, whose
//! output feeds fusion, keypoint detection, and the NeRF training set.
//!
//! Each pixel's camera ray marches through the field, stepping by the
//! current distance value, which can never overshoot an exact or
//! conservative SDF. A pixel whose ray cannot come near the field's hull
//! ([`Sdf::hull`]) is not marched: it is a miss (DESIGN.md §15, "Rays
//! that cannot hit"). Rays march four at a time, one
//! [`Sdf::distance_batch`] call a step, on lanes that refill row-major as
//! rays finish; a second pass shades the hits row-major into depth
//! samples and colors, two hits' normals a batch (DESIGN.md §15, "Rays by
//! lanes").

use crate::camera::Camera;
use crate::noise::DepthNoiseModel;
use holo_compress::texture::Texture;
use holo_math::{Aabb, F32x4, Mat4, Pcg32, Ray, Vec2, Vec3};
use holo_mesh::sdf::{Sdf, SdfHull};

/// A depth map; `0.0` marks missing/no-hit pixels.
#[derive(Debug, Clone)]
pub struct DepthImage {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Camera-space depth (z) per pixel, row-major. 0 = invalid.
    pub depths: Vec<f32>,
}

impl DepthImage {
    /// Depth at a pixel (0 = invalid).
    pub fn get(&self, x: u32, y: u32) -> f32 {
        self.depths[(y * self.width + x) as usize]
    }

    /// Fraction of pixels with a valid depth.
    pub fn coverage(&self) -> f32 {
        if self.depths.is_empty() {
            return 0.0;
        }
        self.depths.iter().filter(|&&d| d > 0.0).count() as f32 / self.depths.len() as f32
    }
}

/// What a render's trace pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RayCounts {
    /// Rays marched: those that enter the field's box from a pixel the
    /// field's hull does not rule out.
    pub marched: u64,
    /// Rays that reached the surface.
    pub hits: u64,
    /// Field evaluations the marching took, one a ray step.
    pub steps: u64,
}

/// One captured RGB-D frame from a single camera.
#[derive(Debug, Clone)]
pub struct RgbdFrame {
    /// The capturing camera.
    pub camera: Camera,
    /// Depth channel.
    pub depth: DepthImage,
    /// Color channel.
    pub color: Texture,
    /// What tracing it took.
    pub rays: RayCounts,
}

/// The color channel's directional light (normalized at use).
const LIGHT_DIR: Vec3 = Vec3::new(0.4, -1.0, -0.6);

/// Shading parameters for the color channel.
#[derive(Debug, Clone, Copy)]
pub struct ShadingConfig {
    /// Height (world y) above which albedo is skin rather than clothing.
    pub skin_above_y: f32,
}

impl Default for ShadingConfig {
    fn default() -> Self {
        Self { skin_above_y: 1.45 }
    }
}

/// Sphere-trace the SDF for every pixel of `camera`, applying `noise` to
/// the depth channel. Deterministic given the RNG, which the shade pass
/// draws from pixel by pixel, row-major, as a one-pass renderer would.
pub fn render_rgbd<S: Sdf + ?Sized>(sdf: &S, camera: &Camera, noise: &DepthNoiseModel, shading: &ShadingConfig, rng: &mut Pcg32) -> RgbdFrame {
    let k = camera.intrinsics;
    let width = k.width as usize;
    let mut depth = DepthImage { width: k.width, height: k.height, depths: vec![NO_HIT; k.pixel_count()] };
    let mut color = Texture::new(k.width, k.height);
    let bounds = sdf.bounds();
    let light = LIGHT_DIR.normalized() * -1.0;
    let eps = bounds.longest_side() * 2e-4;
    let world_to_camera = camera.pose.rigid_inverse();
    mark_candidates(sdf.hull(), camera, &world_to_camera, eps, &mut depth.depths);
    let rays = trace(sdf, camera, &bounds, eps, &mut depth.depths);

    let mut shade = |depths: &mut [f32], pixel: usize, ray: Ray, p: Vec3, n: Vec3| {
        let cos_inc = n.dot(ray.dir).abs();
        // Depth channel: camera-space z with sensor noise.
        let cam_z = world_to_camera.transform_point(p).z;
        if let Some(z) = noise.apply(cam_z, cos_inc, rng) {
            depths[pixel] = z;
        }
        // Color channel: Lambertian with region albedo.
        let albedo = if p.y > shading.skin_above_y { Vec3::new(0.85, 0.66, 0.55) } else { Vec3::new(0.25, 0.35, 0.60) };
        let c = albedo * (n.dot(light).max(0.0) * 0.8 + 0.2);
        color.set((pixel % width) as u32, (pixel / width) as u32, [c.x, c.y, c.z].map(|c| (c.clamp(0.0, 1.0) * 255.0) as u8));
    };
    // A hit waits here for the next, so that their normals' twelve
    // offsets are one batch; both are then shaded, in pixel order.
    let e = eps.max(1e-4);
    let mut held: Option<(usize, Ray, Vec3)> = None;
    let mut ds = [0.0; 12];
    for pixel in 0..depth.depths.len() {
        let t = std::mem::replace(&mut depth.depths[pixel], 0.0);
        if t < 0.0 {
            continue;
        }
        let ray = camera.pixel_ray((pixel % width) as u32, (pixel / width) as u32);
        let p = ray.at(t);
        let Some((first, first_ray, q)) = held.take() else {
            held = Some((pixel, ray, p));
            continue;
        };
        let (a, b) = (normal_offsets(q, e), normal_offsets(p, e));
        sdf.distance_batch(&std::array::from_fn::<_, 12, _>(|i| if i < 6 { a[i] } else { b[i - 6] }), &mut ds);
        shade(&mut depth.depths, first, first_ray, q, normal_of(&ds[..6]));
        shade(&mut depth.depths, pixel, ray, p, normal_of(&ds[6..]));
    }
    if let Some((pixel, ray, p)) = held {
        sdf.distance_batch(&normal_offsets(p, e), &mut ds[..6]);
        shade(&mut depth.depths, pixel, ray, p, normal_of(&ds[..6]));
    }
    RgbdFrame { camera: *camera, depth, color, rays }
}

/// The six points [`Sdf::normal`] asks at.
fn normal_offsets(p: Vec3, e: f32) -> [Vec3; 6] {
    let (x, y, z) = (Vec3::new(e, 0.0, 0.0), Vec3::new(0.0, e, 0.0), Vec3::new(0.0, 0.0, e));
    [p + x, p - x, p + y, p - y, p + z, p - z]
}

/// [`Sdf::normal`] from the field's values at [`normal_offsets`].
fn normal_of(d: &[f32]) -> Vec3 {
    Vec3::new(d[0] - d[1], d[2] - d[3], d[4] - d[5]).normalized()
}

/// The trace pass's mark for a pixel with no hit: a hit's `t` is never
/// negative, and is `0.0` for a camera within `eps` of the surface.
const NO_HIT: f32 = -1.0;

/// The mark for a pixel whose ray is to be marched; one that misses
/// keeps it.
const CANDIDATE: f32 = -2.0;

/// Steps a ray may take before it counts as a miss.
const MAX_STEPS: u32 = 192;

/// Mark [`CANDIDATE`] every pixel of `ts` (row-major, otherwise
/// [`NO_HIT`]) whose ray may come within `eps` of one of `hull`'s
/// capsules; all of them when there is no hull, or its floor is not above
/// `eps`. Any other ray stays more than `eps` from every capsule, where
/// the field reads above `min(floor, eps) = eps`: it is a miss.
///
/// A capsule of radius `R` about the camera-space segment `ab` is the
/// union of balls of radius `R` about the segment's points `c`. When
/// `c.z > R`, every point of such a ball projects within
/// `f·R·|c| / (c.z·(c.z − R))` pixels of `c`'s image; the centers' images
/// are the segment's image, and `|c|` and `c.z` are at their worst at an
/// end. So the capsule covers no pixel center farther than
/// `f·R·max(|a|, |b|) / (z·(z − R))` from the image of `ab`, `z` the
/// nearer end's depth, plus a pixel for rounding. A capsule that reaches
/// within `R` of the camera plane marks the whole image.
fn mark_candidates(hull: Option<SdfHull>, camera: &Camera, world_to_camera: &Mat4, eps: f32, ts: &mut [f32]) {
    let Some(hull) = hull.filter(|hull| hull.floor() > eps) else {
        return ts.fill(CANDIDATE);
    };
    let k = camera.intrinsics;
    let focal = k.fx.max(k.fy);
    let image = |p: Vec3| Vec2::new(k.fx * p.x / p.z + k.cx, k.fy * p.y / p.z + k.cy);
    for (a, b, radius) in hull.capsules() {
        let (a, b, radius) = (world_to_camera.transform_point(a), world_to_camera.transform_point(b), radius + eps);
        let z = a.z.min(b.z);
        let reach = focal * radius * a.length().max(b.length()) / (z * (z - radius)) + 1.0;
        if z <= radius || !reach.is_finite() {
            return ts.fill(CANDIDATE);
        }
        mark_stadium(ts, k.width, k.height, image(a), image(b), reach);
    }
}

/// Mark [`CANDIDATE`] every pixel whose center `(x + 0.5, y + 0.5)` lies
/// within `reach` of the image segment `ab`: row by row, the interval
/// the row's line cuts from the two end discs and the strip between.
fn mark_stadium(ts: &mut [f32], width: u32, height: u32, a: Vec2, b: Vec2, reach: f32) {
    // The pixels `i` whose centers `i + 0.5` lie in `lo..=hi`, within `0..n`.
    let span = |lo: f32, hi: f32, n: u32| {
        let (first, last) = ((lo - 0.5).ceil().max(0.0), (hi - 0.5).floor().min(n as f32 - 1.0));
        (first <= last).then_some((first as usize, last as usize))
    };
    let Some((top, bottom)) = span(a.y.min(b.y) - reach, a.y.max(b.y) + reach, height) else {
        return;
    };
    let d = Vec2::new(b.x - a.x, b.y - a.y);
    let len2 = d.x * d.x + d.y * d.y;
    let inv_len = 1.0 / len2.sqrt();
    let n = Vec2::new(-d.y * inv_len, d.x * inv_len);
    for row in top..=bottom {
        let y = row as f32 + 0.5;
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for end in [a, b] {
            let half2 = reach * reach - (y - end.y) * (y - end.y);
            if half2 >= 0.0 {
                let half = half2.sqrt();
                (lo, hi) = (lo.min(end.x - half), hi.max(end.x + half));
            }
        }
        if len2 > 0.0 {
            // On the row, `(q − a)·d` in `0..=|d|²` and `(q − a)·n` in
            // `−reach..=reach` are each `slope·x + at` in a range.
            let (mut x0, mut x1) = (f32::NEG_INFINITY, f32::INFINITY);
            for (slope, at, min, max) in [(d.x, d.y * (y - a.y) - d.x * a.x, 0.0, len2), (n.x, n.y * (y - a.y) - n.x * a.x, -reach, reach)] {
                if slope == 0.0 {
                    if !(min..=max).contains(&at) {
                        (x0, x1) = (f32::INFINITY, f32::NEG_INFINITY);
                    }
                } else {
                    let (u, v) = ((min - at) / slope, (max - at) / slope);
                    (x0, x1) = (x0.max(u.min(v)), x1.min(u.max(v)));
                }
            }
            if x0 <= x1 {
                (lo, hi) = (lo.min(x0), hi.max(x1));
            }
        }
        if let Some((first, last)) = span(lo, hi, width) {
            let start = row * width as usize;
            ts[start + first..=start + last].fill(CANDIDATE);
        }
    }
}

/// A ray in flight: its pixel, how far it has marched, where it leaves
/// the box, and the steps it has taken.
#[derive(Clone, Copy)]
struct March {
    pixel: usize,
    ray: Ray,
    t: f32,
    t_exit: f32,
    steps: u32,
}

/// Sphere-trace the ray of every [`CANDIDATE`] pixel of `camera` through
/// `sdf`, writing each hit's `t` into `ts` (row-major) and leaving the
/// rest as they are.
///
/// Four rays march at once, one [`Sdf::distance_batch`] call per step. A
/// lane keeps its ray until it hits, leaves the box or runs out of steps,
/// and then takes the next row-major candidate ray that enters the box,
/// so the lanes stay full however unequal the rays' step counts are.
/// Each ray takes the steps a ray traced on its own takes, and gets the
/// same bits.
fn trace<S: Sdf + ?Sized>(sdf: &S, camera: &Camera, bounds: &Aabb, eps: f32, ts: &mut [f32]) -> RayCounts {
    let width = camera.intrinsics.width as usize;
    let mut next = 0;
    let mut queue = |ts: &[f32]| {
        while let Some(&mark) = ts.get(next) {
            let pixel = next;
            next += 1;
            if mark != CANDIDATE {
                continue;
            }
            let ray = camera.pixel_ray((pixel % width) as u32, (pixel / width) as u32);
            if let Some((t0, t_exit)) = ray.intersect_aabb(bounds) {
                return Some(March { pixel, ray, t: t0.max(0.0), t_exit, steps: 0 });
            }
        }
        None
    };
    let mut counts = RayCounts::default();
    let mut lanes: [Option<March>; F32x4::LANES] = [None; F32x4::LANES];
    let (mut ps, mut ds) = ([Vec3::ZERO; F32x4::LANES], [0.0; F32x4::LANES]);
    loop {
        let mut live = 0;
        for lane in &mut lanes {
            if lane.is_none() {
                *lane = queue(ts);
                counts.marched += lane.is_some() as u64;
            }
            if let Some(m) = lane {
                ps[live] = m.ray.at(m.t);
                live += 1;
            }
        }
        if live == 0 {
            return counts;
        }
        counts.steps += live as u64;
        sdf.distance_batch(&ps[..live], &mut ds[..live]);
        for (lane, &d) in lanes.iter_mut().filter(|lane| lane.is_some()).zip(&ds) {
            let m = lane.as_mut().expect("a live lane");
            m.steps += 1;
            let hit = d < eps;
            if hit {
                ts[m.pixel] = m.t;
                counts.hits += 1;
            } else {
                m.t += d.max(eps);
            }
            if hit || m.t > m.t_exit || m.steps == MAX_STEPS {
                *lane = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::CameraIntrinsics;
    use crate::rig::{CaptureRig, RigConfig};
    use holo_body::{BodySdf, MotionKind, MotionSynthesizer, Skeleton, SurfaceDetail};
    use holo_mesh::sdf::{GriddedUnion, Primitive, SdfCapsule, SdfSphere};
    use holo_runtime::check::any;
    use holo_runtime::{holo_prop, prop_assert_eq};

    /// The renderer as it was before it traced on lanes: pixel by pixel,
    /// row-major, every ray that enters the box marched to its end and
    /// shaded before the next starts. What [`render_rgbd`] is held to,
    /// bit for bit.
    fn render_reference<S: Sdf + ?Sized>(sdf: &S, camera: &Camera, noise: &DepthNoiseModel, shading: &ShadingConfig, rng: &mut Pcg32) -> RgbdFrame {
        let k = camera.intrinsics;
        let mut depth = DepthImage { width: k.width, height: k.height, depths: vec![0.0; k.pixel_count()] };
        let mut color = Texture::new(k.width, k.height);
        let bounds = sdf.bounds();
        let light = LIGHT_DIR.normalized() * -1.0;
        let eps = bounds.longest_side() * 2e-4;
        let world_to_camera = camera.pose.rigid_inverse();
        let mut rays = RayCounts::default();
        for y in 0..k.height {
            for x in 0..k.width {
                let ray = camera.pixel_ray(x, y);
                let Some((t0, t1)) = ray.intersect_aabb(&bounds) else {
                    continue;
                };
                rays.marched += 1;
                let mut t = t0.max(0.0);
                let mut hit = false;
                for _ in 0..192 {
                    rays.steps += 1;
                    let d = sdf.distance(ray.at(t));
                    if d < eps {
                        hit = true;
                        break;
                    }
                    t += d.max(eps);
                    if t > t1 {
                        break;
                    }
                }
                if !hit {
                    continue;
                }
                rays.hits += 1;
                let p = ray.at(t);
                let e = eps.max(1e-4);
                let n = Vec3::new(
                    sdf.distance(p + Vec3::new(e, 0.0, 0.0)) - sdf.distance(p - Vec3::new(e, 0.0, 0.0)),
                    sdf.distance(p + Vec3::new(0.0, e, 0.0)) - sdf.distance(p - Vec3::new(0.0, e, 0.0)),
                    sdf.distance(p + Vec3::new(0.0, 0.0, e)) - sdf.distance(p - Vec3::new(0.0, 0.0, e)),
                )
                .normalized();
                let cos_inc = n.dot(ray.dir).abs();
                let cam_z = world_to_camera.transform_point(p).z;
                if let Some(z) = noise.apply(cam_z, cos_inc, rng) {
                    depth.depths[(y * k.width + x) as usize] = z;
                }
                let albedo = if p.y > shading.skin_above_y { Vec3::new(0.85, 0.66, 0.55) } else { Vec3::new(0.25, 0.35, 0.60) };
                let c = albedo * (n.dot(light).max(0.0) * 0.8 + 0.2);
                color.set(x, y, [c.x, c.y, c.z].map(|c| (c.clamp(0.0, 1.0) * 255.0) as u8));
            }
        }
        RgbdFrame { camera: *camera, depth, color, rays }
    }

    /// `render_rgbd` and `render_reference` of one scene from one
    /// generator state: the same depth bits, color bytes, generator state
    /// and hits, and no more rays marched. Returns both frames' counts.
    fn assert_renders_alike<S: Sdf + ?Sized>(sdf: &S, camera: &Camera, noise: &DepthNoiseModel, seed: u64) -> (RayCounts, RayCounts) {
        let (mut lanes_rng, mut scalar_rng) = (Pcg32::new(seed), Pcg32::new(seed));
        let got = render_rgbd(sdf, camera, noise, &ShadingConfig::default(), &mut lanes_rng);
        let want = render_reference(sdf, camera, noise, &ShadingConfig::default(), &mut scalar_rng);
        let bits = |f: &RgbdFrame| f.depth.depths.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "depth");
        assert_eq!(got.color.data, want.color.data, "color");
        assert_eq!(lanes_rng.next_u32(), scalar_rng.next_u32(), "the generator's next draw");
        assert_eq!(got.rays.hits, want.rays.hits, "hits");
        assert!(got.rays.marched <= want.rays.marched && got.rays.steps <= want.rays.steps, "{:?} against {:?}", got.rays, want.rays);
        (got.rays, want.rays)
    }

    /// The benchmark's rig — four cameras of 96×72 on the default ring,
    /// sensor noise on — on random frames of its seed-42 `Waving` clip,
    /// clothed: the same image as the scalar renderer, from under 60 %
    /// of its rays.
    #[test]
    fn the_bench_rig_renders_what_the_scalar_renderer_renders() {
        let rig = CaptureRig::new(&RigConfig { intrinsics: CameraIntrinsics::from_fov(96, 72, 1.1), ..Default::default() });
        let clip = MotionSynthesizer::new(42).clip(MotionKind::Waving, 106.0 / 30.0, 30.0);
        let mut rng = Pcg32::new(0xB0D7);
        let (mut got, mut want) = (RayCounts::default(), RayCounts::default());
        for _ in 0..3 {
            let frame = rng.index(clip.frames.len());
            let body = BodySdf::from_pose(&Skeleton::neutral(), clip.frame(frame), SurfaceDetail::full());
            for camera in &rig.cameras {
                let (g, w) = assert_renders_alike(&body, camera, &rig.noise, rng.next_u32() as u64);
                (got.marched, got.hits, want.marched, want.hits) = (got.marched + g.marched, got.hits + g.hits, want.marched + w.marched, want.hits + w.hits);
            }
        }
        assert!(want.hits > 1_000 && got.marched * 10 < want.marched * 6, "marched {:?} against {:?}", got, want);
    }

    /// A field that proves no hull has every ray that enters its box
    /// marched, as the scalar renderer marches them.
    #[test]
    fn a_field_with_no_hull_marches_every_ray_in_its_box() {
        let (s, cam) = sphere_setup();
        assert!(s.hull().is_none());
        let (got, want) = assert_renders_alike(&s, &cam, &DepthNoiseModel::default(), 7);
        assert_eq!(got, want);
    }

    /// A capsule that passes beside the camera and on behind it reaches
    /// the camera plane: no footprint bounds it, and the whole image is
    /// marched.
    #[test]
    fn a_capsule_through_the_camera_plane_marches_the_whole_image() {
        let parts = vec![
            Primitive::Sphere(SdfSphere { center: Vec3::ZERO, radius: 0.4 }),
            Primitive::Capsule(SdfCapsule { a: Vec3::ZERO, b: Vec3::new(0.0, 0.0, 3.5), radius: 0.05 }),
        ];
        let union = GriddedUnion::build(parts, 0.02, 8, 0.3);
        assert!(union.hull().is_some());
        let camera = Camera::look_at(CameraIntrinsics::from_fov(24, 18, 1.0), Vec3::new(0.0, 0.3, 3.0), Vec3::ZERO);
        let (got, want) = assert_renders_alike(&union, &camera, &DepthNoiseModel::default(), 8);
        assert_eq!(got, want);
        // Two metres off, the same union is culled.
        let camera = Camera::look_at(CameraIntrinsics::from_fov(24, 18, 1.0), Vec3::new(2.0, 0.3, 0.0), Vec3::ZERO);
        let (got, want) = assert_renders_alike(&union, &camera, &DepthNoiseModel::default(), 9);
        assert!(got.marched < want.marched, "{got:?} against {want:?}");
    }

    holo_prop! {
        #![cases(256)]

        /// The lane renderer is the scalar one, to the bit: the same depth
        /// bits, the same color bytes, and the generator left in the same
        /// state. Random frames of every motion with random girth,
        /// clothed or bare; images 1 to 13 pixels wide, so rows end
        /// mid-lane; noise off or the default; cameras outside the bounds,
        /// inside them, and on the surface, within `eps` of it, where
        /// rays hit at `t = 0`.
        fn the_lane_renderer_is_the_scalar_one(seed in any::<u64>()) {
            let mut rng = Pcg32::new(seed);
            let kinds = [MotionKind::Idle, MotionKind::Talking, MotionKind::Waving, MotionKind::Walking];
            let clip = MotionSynthesizer::new(seed).clip(kinds[rng.index(4)], 0.5, 30.0);
            let mut params = clip.frame(rng.index(clip.frames.len())).clone();
            params.betas[4] = rng.range_f32(-3.0, 3.0);
            let detail = if rng.chance(0.5) { SurfaceDetail::full() } else { SurfaceDetail::bare() };
            let body = BodySdf::from_pose(&Skeleton::neutral(), &params, detail);
            let b = body.bounds();
            let inside = |rng: &mut Pcg32| b.min + (b.max - b.min).mul_elem(Vec3::new(rng.range_f32(0.0, 1.0), rng.range_f32(0.0, 1.0), rng.range_f32(0.0, 1.0)));
            let target = inside(&mut rng);
            let eye = match rng.next_u32() % 3 {
                0 => b.center() + Vec3::new(rng.normal(), rng.normal() * 0.3, rng.normal()).normalized() * rng.range_f32(1.5, 4.0),
                1 => inside(&mut rng),
                _ => {
                    let mut p = inside(&mut rng);
                    for _ in 0..8 {
                        p -= body.normal(p, 1e-3) * body.distance(p);
                    }
                    p
                }
            };
            let (width, height) = (1 + rng.index(13) as u32, 1 + rng.index(9) as u32);
            let camera = Camera::look_at(CameraIntrinsics::from_fov(width, height, rng.range_f32(0.2, 1.6)), eye, target);
            let noise = if rng.chance(0.5) { DepthNoiseModel::none() } else { DepthNoiseModel::default() };
            let shading = ShadingConfig::default();
            let (mut lanes_rng, mut scalar_rng) = (Pcg32::new(seed ^ 1), Pcg32::new(seed ^ 1));
            let got = render_rgbd(&body, &camera, &noise, &shading, &mut lanes_rng);
            let want = render_reference(&body, &camera, &noise, &shading, &mut scalar_rng);
            let bits = |f: &RgbdFrame| f.depth.depths.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "depth of a {}x{} image from {:?}", width, height, eye);
            prop_assert_eq!(&got.color.data, &want.color.data, "color");
            prop_assert_eq!(lanes_rng.next_u32(), scalar_rng.next_u32(), "the generator's next draw");
        }
    }

    /// A fiftieth of the distance to a tilted plane: a sphere tracer
    /// creeps toward it, 2 % of the way a step.
    struct Creep;

    impl Sdf for Creep {
        fn distance(&self, p: Vec3) -> f32 {
            (p.z - 0.3 * p.x) * 0.02
        }

        fn bounds(&self) -> holo_math::Aabb {
            holo_math::Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0))
        }
    }

    /// Across the image some rays reach the plane within their 192 steps
    /// and the rest run out of them, as the scalar tracer's do.
    #[test]
    fn rays_run_out_of_steps_where_the_scalar_tracers_do() {
        let camera = Camera::look_at(CameraIntrinsics::from_fov(96, 2, 1.2), Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO);
        let render = |lanes: bool| {
            let mut rng = Pcg32::new(6);
            let renderer = if lanes { render_rgbd::<Creep> } else { render_reference::<Creep> };
            renderer(&Creep, &camera, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut rng).depth.depths
        };
        let (got, want) = (render(true), render(false));
        assert_eq!(got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(), want.iter().map(|d| d.to_bits()).collect::<Vec<_>>());
        let hits = want.iter().filter(|&&d| d > 0.0).count();
        assert!(hits > 10 && hits + 10 < want.len(), "{hits} of {} rays reach the plane", want.len());
    }

    fn sphere_setup() -> (SdfSphere, Camera) {
        let s = SdfSphere { center: Vec3::new(0.0, 1.0, 0.0), radius: 0.5 };
        let k = CameraIntrinsics::from_fov(96, 72, 1.0);
        let cam = Camera::look_at(k, Vec3::new(0.0, 1.0, 2.0), Vec3::new(0.0, 1.0, 0.0));
        (s, cam)
    }

    #[test]
    fn sphere_depth_accurate_at_center() {
        let (s, cam) = sphere_setup();
        let mut rng = Pcg32::new(1);
        let frame = render_rgbd(&s, &cam, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut rng);
        let z = frame.depth.get(48, 36);
        // Camera 2 m away, sphere radius 0.5 -> nearest point at 1.5 m.
        assert!((z - 1.5).abs() < 0.01, "center depth {z}");
    }

    #[test]
    fn background_pixels_invalid() {
        let (s, cam) = sphere_setup();
        let mut rng = Pcg32::new(2);
        let frame = render_rgbd(&s, &cam, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut rng);
        assert_eq!(frame.depth.get(0, 0), 0.0, "corner should miss");
        let cov = frame.depth.coverage();
        assert!((0.05..0.8).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn unprojected_hits_lie_on_surface() {
        let (s, cam) = sphere_setup();
        let mut rng = Pcg32::new(3);
        let frame = render_rgbd(&s, &cam, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut rng);
        let mut checked = 0;
        for y in 0..frame.depth.height {
            for x in 0..frame.depth.width {
                let z = frame.depth.get(x, y);
                if z > 0.0 {
                    let p = cam.unproject(x, y, z);
                    let r = (p - Vec3::new(0.0, 1.0, 0.0)).length();
                    assert!((r - 0.5).abs() < 0.02, "hit radius {r}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn noise_perturbs_depth() {
        let (s, cam) = sphere_setup();
        let mut rng = Pcg32::new(4);
        let clean = render_rgbd(&s, &cam, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut rng);
        let mut rng = Pcg32::new(4);
        let noisy = render_rgbd(&s, &cam, &DepthNoiseModel::default(), &ShadingConfig::default(), &mut rng);
        let mut diffs = 0;
        for (a, b) in clean.depths_pairs(&noisy) {
            if a > 0.0 && b > 0.0 && (a - b).abs() > 1e-5 {
                diffs += 1;
            }
        }
        assert!(diffs > 100, "noise changed only {diffs} pixels");
    }

    #[test]
    fn lit_side_brighter_than_silhouette_edge() {
        let (s, cam) = sphere_setup();
        let mut rng = Pcg32::new(5);
        let frame = render_rgbd(&s, &cam, &DepthNoiseModel::none(), &ShadingConfig::default(), &mut rng);
        let center = frame.color.get(48, 36);
        assert!(center.iter().any(|&c| c > 30), "center unlit: {center:?}");
    }

    impl RgbdFrame {
        fn depths_pairs<'a>(&'a self, other: &'a RgbdFrame) -> impl Iterator<Item = (f32, f32)> + 'a {
            self.depth.depths.iter().copied().zip(other.depth.depths.iter().copied())
        }
    }
}
