//! Deterministic offline avatar fitting from RGB-D fusion.
//!
//! The prebuild phase of the amortized tier: fuse one captured frame into
//! a colored point cloud, voxel-downsample to the splat budget, bind each
//! point to its nearest *posed* joint, and un-pose it into rest space so
//! the stored avatar is pose-independent. Everything is a pure function
//! of the frame — no RNG — so the same capture always produces the same
//! prebuild blob byte for byte.

use crate::splat::{GaussianAvatar, Splat, SH_COEFFS};
use holo_body::skeleton::JOINT_COUNT;
use holo_math::{Aabb, Quat, Vec3};
use semholo::scene::SceneFrame;

/// Hard cap on splat count (deterministic truncation).
const MAX_SPLATS: usize = 40_000;

/// Offline fitting configuration.
#[derive(Debug, Clone, Copy)]
pub struct FitConfig {
    /// Voxel edge for downsampling the fused cloud, meters.
    pub voxel_size: f32,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self { voxel_size: 0.015 }
    }
}

/// Fit a splat-cloud avatar from one scene frame's RGB-D fusion.
pub fn fit_avatar(frame: &SceneFrame, config: &FitConfig) -> GaussianAvatar {
    let cloud = frame.captured_cloud().voxel_downsample(config.voxel_size);
    let skeleton = &frame.context.skeleton;
    let rest = skeleton.rest_positions();
    let posed = skeleton.forward_kinematics(&frame.params).positions();
    let radius = config.voxel_size * 0.6;
    let mut splats = Vec::with_capacity(cloud.points.len().min(MAX_SPLATS));
    for (i, &p) in cloud.points.iter().enumerate().take(MAX_SPLATS) {
        // Bind to the nearest posed joint, then un-pose into rest space.
        let mut region = 0usize;
        let mut best = f32::INFINITY;
        for (j, &jp) in posed.iter().enumerate() {
            let d = (p - jp).length_sq();
            if d < best {
                best = d;
                region = j;
            }
        }
        let color = cloud.colors.get(i).copied().unwrap_or(Vec3::new(0.5, 0.5, 0.5));
        let mut sh = [0.0f32; SH_COEFFS];
        sh[0] = color.x;
        sh[1] = color.y;
        sh[2] = color.z;
        splats.push(Splat {
            position: p - (posed[region] - rest[region]),
            scale: Vec3::new(radius, radius, radius),
            rotation: Quat::IDENTITY,
            opacity: 0.9,
            sh,
            region: region as u8,
        });
    }
    let positions: Vec<Vec3> = splats.iter().map(|s| s.position).collect();
    let bounds = if positions.is_empty() {
        Aabb::new(Vec3::ZERO, Vec3::new(1e-3, 1e-3, 1e-3))
    } else {
        Aabb::from_points(&positions).expanded(config.voxel_size.max(1e-3))
    };
    GaussianAvatar { splats, bounds, region_count: JOINT_COUNT as u8 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semholo::config::SemHoloConfig;
    use semholo::scene::SceneSource;

    fn scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        SceneSource::new(&config, 0.5)
    }

    #[test]
    fn fit_is_deterministic_and_body_shaped() {
        let scene = scene();
        let frame = scene.frame(0);
        let cfg = FitConfig::default();
        let a = fit_avatar(&frame, &cfg);
        let b = fit_avatar(&scene.frame(0), &cfg);
        assert!(a.splats.len() > 200, "splats {}", a.splats.len());
        assert_eq!(a.splats.len(), b.splats.len());
        for (x, y) in a.splats.iter().zip(&b.splats) {
            assert_eq!(x.position.x.to_bits(), y.position.x.to_bits());
            assert_eq!(x.position.y.to_bits(), y.position.y.to_bits());
            assert_eq!(x.position.z.to_bits(), y.position.z.to_bits());
        }
        let size = a.bounds.size();
        assert!(size.y > 1.0 && size.y < 2.5, "avatar height {size:?}");
        assert!(a.splats.iter().all(|s| (s.region as usize) < JOINT_COUNT));
    }
}
