//! RGB-D rendering of an SDF by sphere tracing.
//!
//! Each pixel's camera ray marches through the field (sphere tracing:
//! step by the current distance value, which can never overshoot an exact
//! or conservative SDF); hits produce a depth sample and a shaded color.
//! This is the virtual Kinect: its output feeds fusion, keypoint
//! detection, and the NeRF training set.

use crate::camera::Camera;
use crate::noise::DepthNoiseModel;
use holo_compress::texture::Texture;
use holo_math::{Pcg32, Vec3};
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

/// Shading parameters for the color channel.
#[derive(Debug, Clone, Copy)]
pub struct ShadingConfig {
    /// Directional light (normalized at use).
    pub light_dir: Vec3,
    /// Height (world y) above which albedo is skin rather than clothing.
    pub skin_above_y: f32,
}

impl Default for ShadingConfig {
    fn default() -> Self {
        Self { light_dir: Vec3::new(0.4, -1.0, -0.6), skin_above_y: 1.45 }
    }
}

/// Sphere-trace the SDF for every pixel of `camera`, applying `noise` to
/// the depth channel. Deterministic given the RNG.
pub fn render_rgbd<S: Sdf + ?Sized>(
    sdf: &S,
    camera: &Camera,
    noise: &DepthNoiseModel,
    shading: &ShadingConfig,
    rng: &mut Pcg32,
) -> RgbdFrame {
    let k = camera.intrinsics;
    let mut depth = DepthImage { width: k.width, height: k.height, depths: vec![0.0; k.pixel_count()] };
    let mut color = Texture::new(k.width, k.height);
    let bounds = sdf.bounds();
    let light = shading.light_dir.normalized() * -1.0;
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
                let p = ray.at(t);
                let d = sdf.distance(p);
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
            let n = sdf.normal(p, eps.max(1e-4));
            let cos_inc = n.dot(ray.dir).abs();
            // Depth channel: camera-space z with sensor noise.
            let cam_z = world_to_camera.transform_point(p).z;
            if let Some(z) = noise.apply(cam_z, cos_inc, rng) {
                depth.depths[(y * k.width + x) as usize] = z;
            }
            // Color channel: Lambertian with region albedo.
            let albedo = if p.y > shading.skin_above_y {
                Vec3::new(0.85, 0.66, 0.55)
            } else {
                Vec3::new(0.25, 0.35, 0.60)
            };
            let diff = n.dot(light).max(0.0) * 0.8 + 0.2;
            let c = albedo * diff;
            color.set(x, y, [
                (c.x.clamp(0.0, 1.0) * 255.0) as u8,
                (c.y.clamp(0.0, 1.0) * 255.0) as u8,
                (c.z.clamp(0.0, 1.0) * 255.0) as u8,
            ]);
        }
    }
    RgbdFrame { camera: *camera, depth, color }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::CameraIntrinsics;
    use holo_mesh::sdf::SdfSphere;

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
