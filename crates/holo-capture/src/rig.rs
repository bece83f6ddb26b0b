//! Multi-camera capture rigs and point-cloud fusion.
//!
//! Holographic capture surrounds the subject with RGB-D cameras covering
//! different viewing angles (§2.1). A [`CaptureRig`] places N cameras on a
//! ring, captures them all against one SDF, and fuses the depth maps into
//! a colored point cloud with voxel-grid filtering — the "synchronization,
//! calibration, and filtering" merge step of the paper.

use crate::camera::{Camera, CameraIntrinsics};
use crate::noise::DepthNoiseModel;
use crate::render::{render_rgbd, RgbdFrame, ShadingConfig};
use holo_math::{Pcg32, Vec3};
use holo_mesh::pointcloud::PointCloud;
use holo_mesh::sdf::Sdf;

/// Ring radius, meters.
const RING_RADIUS: f32 = 2.0;
/// Voxel size for fusion downsampling, meters.
const FUSION_VOXEL: f32 = 0.015;

/// Rig construction parameters.
#[derive(Debug, Clone)]
pub struct RigConfig {
    /// Number of cameras on the ring.
    pub camera_count: usize,
    /// Camera height, meters.
    pub height: f32,
    /// Point the cameras aim at.
    pub target: Vec3,
    /// Per-camera image resolution.
    pub intrinsics: CameraIntrinsics,
    /// Depth sensor noise.
    pub noise: DepthNoiseModel,
}

impl Default for RigConfig {
    fn default() -> Self {
        Self {
            camera_count: 4,
            height: 1.3,
            target: Vec3::new(0.0, 1.1, 0.0),
            intrinsics: CameraIntrinsics::from_fov(160, 120, 1.1),
            noise: DepthNoiseModel::default(),
        }
    }
}

/// A constructed rig.
#[derive(Debug, Clone)]
pub struct CaptureRig {
    /// The cameras.
    pub cameras: Vec<Camera>,
    /// Noise model applied at capture time.
    pub noise: DepthNoiseModel,
}

impl CaptureRig {
    /// Build a ring rig.
    pub fn new(cfg: &RigConfig) -> Self {
        let cameras = (0..cfg.camera_count)
            .map(|i| {
                let theta = std::f32::consts::TAU * i as f32 / cfg.camera_count as f32;
                let eye = Vec3::new(RING_RADIUS * theta.cos(), cfg.height, RING_RADIUS * theta.sin());
                Camera::look_at(cfg.intrinsics, eye, cfg.target)
            })
            .collect();
        Self { cameras, noise: cfg.noise }
    }

    /// Capture every camera against `sdf`.
    pub fn capture<S: Sdf + ?Sized>(&self, sdf: &S, rng: &mut Pcg32) -> Vec<RgbdFrame> {
        let shading = ShadingConfig::default();
        self.cameras
            .iter()
            .map(|cam| render_rgbd(sdf, cam, &self.noise, &shading, rng))
            .collect()
    }

    /// Fuse frames into a colored world-space point cloud.
    pub fn fuse(&self, frames: &[RgbdFrame]) -> PointCloud {
        let mut cloud = PointCloud::new();
        for frame in frames {
            for y in 0..frame.depth.height {
                for x in 0..frame.depth.width {
                    let z = frame.depth.get(x, y);
                    if z <= 0.0 {
                        continue;
                    }
                    cloud.points.push(frame.camera.unproject(x, y, z));
                    let rgb = frame.color.get(x, y);
                    cloud.colors.push(Vec3::new(
                        rgb[0] as f32 / 255.0,
                        rgb[1] as f32 / 255.0,
                        rgb[2] as f32 / 255.0,
                    ));
                }
            }
        }
        if cloud.is_empty() {
            cloud
        } else {
            cloud.voxel_downsample(FUSION_VOXEL)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_mesh::sdf::SdfSphere;

    fn small_cfg() -> RigConfig {
        RigConfig {
            camera_count: 3,
            intrinsics: CameraIntrinsics::from_fov(80, 60, 1.1),
            target: Vec3::new(0.0, 1.0, 0.0),
            ..Default::default()
        }
    }

    fn sphere() -> SdfSphere {
        SdfSphere { center: Vec3::new(0.0, 1.0, 0.0), radius: 0.5 }
    }

    fn capture_cloud(rig: &CaptureRig, rng: &mut Pcg32) -> PointCloud {
        rig.fuse(&rig.capture(&sphere(), rng))
    }

    #[test]
    fn cameras_on_ring_aim_at_target() {
        let rig = CaptureRig::new(&small_cfg());
        assert_eq!(rig.cameras.len(), 3);
        for cam in &rig.cameras {
            let dist = (cam.position() - Vec3::new(0.0, 1.3, 0.0)).length();
            assert!((dist - 2.0).abs() < 0.01, "radius {dist}");
            // Target should project near the image center.
            let (px, _) = cam.project(Vec3::new(0.0, 1.0, 0.0)).unwrap();
            assert!((px.x - 40.0).abs() < 2.0 && (px.y - 30.0).abs() < 2.0, "target at {px:?}");
        }
    }

    #[test]
    fn fused_cloud_lies_on_sphere() {
        let mut rng = Pcg32::new(2);
        let cfg = RigConfig { noise: DepthNoiseModel::none(), ..small_cfg() };
        let rig = CaptureRig::new(&cfg);
        let cloud = capture_cloud(&rig, &mut rng);
        assert!(cloud.len() > 300, "cloud size {}", cloud.len());
        assert_eq!(cloud.colors.len(), cloud.len());
        for &p in &cloud.points {
            let r = (p - Vec3::new(0.0, 1.0, 0.0)).length();
            assert!((r - 0.5).abs() < 0.03, "fused point radius {r}");
        }
    }

    #[test]
    fn multi_view_covers_more_than_single() {
        let mut rng = Pcg32::new(3);
        let cfg = RigConfig { noise: DepthNoiseModel::none(), ..small_cfg() };
        let rig = CaptureRig::new(&cfg);
        let frames = rig.capture(&sphere(), &mut rng);
        let all = rig.fuse(&frames);
        let single = rig.fuse(&frames[..1]);
        // Three views see (nearly) the whole sphere; one view sees a cap.
        assert!(all.len() as f32 > single.len() as f32 * 1.5, "{} vs {}", all.len(), single.len());
    }

    #[test]
    fn deterministic_capture() {
        let cfg = small_cfg();
        let run = || {
            let mut rng = Pcg32::new(7);
            let rig = CaptureRig::new(&cfg);
            capture_cloud(&rig, &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a.points, b.points);
    }
}
