//! RGB-D rendering of an SDF by sphere tracing: the virtual Kinect, whose
//! output feeds fusion, keypoint detection, and the NeRF training set.
//!
//! Each pixel's camera ray marches through the field, stepping by the
//! current distance value, which can never overshoot an exact or
//! conservative SDF. Rays march four at a time, one
//! [`Sdf::distance_batch`] call a step, on lanes that refill row-major as
//! rays finish; a second pass shades the hits row-major into depth
//! samples and colors (DESIGN.md §15, "Rays by lanes").

use crate::camera::Camera;
use crate::noise::DepthNoiseModel;
use holo_compress::texture::Texture;
use holo_math::{Aabb, F32x4, Pcg32, Ray, Vec3};
use holo_mesh::sdf::Sdf;

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

/// One captured RGB-D frame from a single camera.
#[derive(Debug, Clone)]
pub struct RgbdFrame {
    /// The capturing camera.
    pub camera: Camera,
    /// Depth channel.
    pub depth: DepthImage,
    /// Color channel.
    pub color: Texture,
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
    let mut depth = DepthImage { width: k.width, height: k.height, depths: vec![NO_HIT; k.pixel_count()] };
    let mut color = Texture::new(k.width, k.height);
    let bounds = sdf.bounds();
    let light = LIGHT_DIR.normalized() * -1.0;
    let eps = bounds.longest_side() * 2e-4;
    let world_to_camera = camera.pose.rigid_inverse();
    trace(sdf, camera, &bounds, eps, &mut depth.depths);

    for y in 0..k.height {
        for x in 0..k.width {
            let t = std::mem::replace(&mut depth.depths[(y * k.width + x) as usize], 0.0);
            if t == NO_HIT {
                continue;
            }
            let ray = camera.pixel_ray(x, y);
            let p = ray.at(t);
            let n = sdf.normal(p, eps.max(1e-4));
            let cos_inc = n.dot(ray.dir).abs();
            // Depth channel: camera-space z with sensor noise.
            let cam_z = world_to_camera.transform_point(p).z;
            if let Some(z) = noise.apply(cam_z, cos_inc, rng) {
                depth.depths[(y * k.width + x) as usize] = z;
            }
            // Color channel: Lambertian with region albedo.
            let albedo = if p.y > shading.skin_above_y { Vec3::new(0.85, 0.66, 0.55) } else { Vec3::new(0.25, 0.35, 0.60) };
            let c = albedo * (n.dot(light).max(0.0) * 0.8 + 0.2);
            color.set(x, y, [c.x, c.y, c.z].map(|c| (c.clamp(0.0, 1.0) * 255.0) as u8));
        }
    }
    RgbdFrame { camera: *camera, depth, color }
}

/// The trace pass's mark for a pixel with no hit: a hit's `t` is never
/// negative, and is `0.0` for a camera within `eps` of the surface.
const NO_HIT: f32 = -1.0;

/// Steps a ray may take before it counts as a miss.
const MAX_STEPS: u32 = 192;

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

/// Sphere-trace every pixel's ray of `camera` through `sdf`, writing each
/// hit's `t` into `ts` (row-major) and leaving the rest as they are.
///
/// Four rays march at once, one [`Sdf::distance_batch`] call per step. A
/// lane keeps its ray until it hits, leaves the box or runs out of steps,
/// and then takes the next row-major ray that enters the box, so the
/// lanes stay full however unequal the rays' step counts are. Each ray
/// takes the steps a ray traced on its own takes, and gets the same bits.
fn trace<S: Sdf + ?Sized>(sdf: &S, camera: &Camera, bounds: &Aabb, eps: f32, ts: &mut [f32]) {
    let width = camera.intrinsics.width as usize;
    let mut queue = (0..ts.len()).filter_map(|pixel| {
        let ray = camera.pixel_ray((pixel % width) as u32, (pixel / width) as u32);
        let (t0, t_exit) = ray.intersect_aabb(bounds)?;
        Some(March { pixel, ray, t: t0.max(0.0), t_exit, steps: 0 })
    });
    let mut lanes: [Option<March>; F32x4::LANES] = [None; F32x4::LANES];
    let (mut ps, mut ds) = ([Vec3::ZERO; F32x4::LANES], [0.0; F32x4::LANES]);
    loop {
        let mut live = 0;
        for lane in &mut lanes {
            *lane = lane.or_else(|| queue.next());
            if let Some(m) = lane {
                ps[live] = m.ray.at(m.t);
                live += 1;
            }
        }
        if live == 0 {
            return;
        }
        sdf.distance_batch(&ps[..live], &mut ds[..live]);
        for (lane, &d) in lanes.iter_mut().filter(|lane| lane.is_some()).zip(&ds) {
            let m = lane.as_mut().expect("a live lane");
            m.steps += 1;
            let hit = d < eps;
            if hit {
                ts[m.pixel] = m.t;
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
    use holo_body::{BodySdf, MotionKind, MotionSynthesizer, Skeleton, SurfaceDetail};
    use holo_mesh::sdf::SdfSphere;
    use holo_runtime::check::any;
    use holo_runtime::{holo_prop, prop_assert_eq};

    /// The renderer as it was before it traced on lanes: pixel by pixel,
    /// row-major, each ray marched to its end and shaded before the next
    /// starts. What [`render_rgbd`] is held to, bit for bit.
    fn render_reference<S: Sdf + ?Sized>(sdf: &S, camera: &Camera, noise: &DepthNoiseModel, shading: &ShadingConfig, rng: &mut Pcg32) -> RgbdFrame {
        let k = camera.intrinsics;
        let mut depth = DepthImage { width: k.width, height: k.height, depths: vec![0.0; k.pixel_count()] };
        let mut color = Texture::new(k.width, k.height);
        let bounds = sdf.bounds();
        let light = LIGHT_DIR.normalized() * -1.0;
        let eps = bounds.longest_side() * 2e-4;
        let world_to_camera = camera.pose.rigid_inverse();
        for y in 0..k.height {
            for x in 0..k.width {
                let ray = camera.pixel_ray(x, y);
                let Some((t0, t1)) = ray.intersect_aabb(&bounds) else {
                    continue;
                };
                let mut t = t0.max(0.0);
                let mut hit = false;
                for _ in 0..192 {
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
        RgbdFrame { camera: *camera, depth, color }
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
