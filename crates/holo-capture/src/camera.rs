//! Pinhole camera model with intrinsics and extrinsics.

use holo_math::{Mat4, Ray, Vec3};

/// Pinhole intrinsics (pixel units).
#[derive(Debug, Clone, Copy)]
pub struct CameraIntrinsics {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Focal lengths in pixels.
    pub fx: f32,
    pub fy: f32,
    /// Principal point.
    pub cx: f32,
    pub cy: f32,
}

impl CameraIntrinsics {
    /// Intrinsics from a horizontal field of view in radians.
    pub fn from_fov(width: u32, height: u32, fov_x: f32) -> Self {
        let fx = width as f32 * 0.5 / (fov_x * 0.5).tan();
        Self {
            width,
            height,
            fx,
            fy: fx,
            cx: width as f32 * 0.5,
            cy: height as f32 * 0.5,
        }
    }

    /// Number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }
}

/// A camera: intrinsics plus a camera-to-world rigid transform. The
/// camera looks down its local `+z` axis, `+x` right, `+y` down (image
/// convention).
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    /// Intrinsic parameters.
    pub intrinsics: CameraIntrinsics,
    /// Camera-to-world transform.
    pub pose: Mat4,
}

impl Camera {
    /// Build a camera at `eye` looking at `target` (world up = +y).
    pub fn look_at(intrinsics: CameraIntrinsics, eye: Vec3, target: Vec3) -> Self {
        let fwd = (target - eye).normalized();
        let world_up = Vec3::Y;
        let right = fwd.cross(world_up).normalized();
        let right = if right.length_sq() < 1e-9 { Vec3::X } else { right };
        let down = fwd.cross(right).normalized();
        // Columns of camera-to-world rotation: x=right, y=down, z=fwd.
        let pose = Mat4::from_rows(
            holo_math::Vec4::new(right.x, down.x, fwd.x, eye.x),
            holo_math::Vec4::new(right.y, down.y, fwd.y, eye.y),
            holo_math::Vec4::new(right.z, down.z, fwd.z, eye.z),
            holo_math::Vec4::new(0.0, 0.0, 0.0, 1.0),
        );
        Self { intrinsics, pose }
    }

    /// Camera position in world space.
    pub fn position(&self) -> Vec3 {
        self.pose.translation_part()
    }

    /// World-space ray through pixel center `(x, y)`.
    pub fn pixel_ray(&self, x: u32, y: u32) -> Ray {
        let k = &self.intrinsics;
        let dir_cam = Vec3::new(
            (x as f32 + 0.5 - k.cx) / k.fx,
            (y as f32 + 0.5 - k.cy) / k.fy,
            1.0,
        );
        Ray::new(self.position(), self.pose.transform_dir(dir_cam))
    }

    /// Unproject pixel `(x, y)` at camera-space depth `z` to world space.
    pub fn unproject(&self, x: u32, y: u32, z: f32) -> Vec3 {
        let k = &self.intrinsics;
        let cam = Vec3::new(
            (x as f32 + 0.5 - k.cx) / k.fx * z,
            (y as f32 + 0.5 - k.cy) / k.fy * z,
            z,
        );
        self.pose.transform_point(cam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Vec2;

    impl Camera {
        /// Project a world point to pixel coordinates and camera-space depth.
        /// Returns `None` when the point is behind the camera.
        pub(crate) fn project(&self, p: Vec3) -> Option<(Vec2, f32)> {
            let cam = self.pose.rigid_inverse().transform_point(p);
            if cam.z <= 1e-6 {
                return None;
            }
            let k = &self.intrinsics;
            Some((
                Vec2::new(k.fx * cam.x / cam.z + k.cx, k.fy * cam.y / cam.z + k.cy),
                cam.z,
            ))
        }
    }

    fn test_camera() -> Camera {
        let k = CameraIntrinsics::from_fov(320, 240, 1.2);
        Camera::look_at(k, Vec3::new(0.0, 1.2, 2.5), Vec3::new(0.0, 1.2, 0.0))
    }

    #[test]
    fn center_pixel_looks_at_target() {
        let cam = test_camera();
        let r = cam.pixel_ray(160, 120);
        // Ray direction should point from eye toward the target.
        let expect = (Vec3::new(0.0, 1.2, 0.0) - cam.position()).normalized();
        assert!(r.dir.dot(expect) > 0.999, "dir {:?}", r.dir);
    }

    #[test]
    fn project_unproject_roundtrip() {
        let cam = test_camera();
        let p = Vec3::new(0.2, 1.4, 0.3);
        let (px, z) = cam.project(p).unwrap();
        let back = cam.unproject(px.x as u32, px.y as u32, z);
        // Pixel quantization bounds the error.
        assert!((back - p).length() < 0.02, "{back:?} vs {p:?}");
    }

    #[test]
    fn behind_camera_is_none() {
        let cam = test_camera();
        assert!(cam.project(Vec3::new(0.0, 1.2, 10.0)).is_none());
    }

    #[test]
    fn ray_through_projected_pixel_hits_point() {
        let cam = test_camera();
        let p = Vec3::new(-0.3, 0.9, -0.2);
        let (px, _) = cam.project(p).unwrap();
        let ray = cam.pixel_ray(px.x as u32, px.y as u32);
        // Distance from the ray to the point should be tiny.
        let t = (p - ray.origin).dot(ray.dir);
        let closest = ray.at(t);
        assert!((closest - p).length() < 0.02);
    }

    #[test]
    fn fov_matches_edge_rays() {
        let k = CameraIntrinsics::from_fov(640, 480, 1.0);
        let cam = Camera::look_at(k, Vec3::ZERO, Vec3::Z);
        let left = cam.pixel_ray(0, 240);
        let right = cam.pixel_ray(639, 240);
        let angle = left.dir.dot(right.dir).clamp(-1.0, 1.0).acos();
        assert!((angle - 1.0).abs() < 0.02, "fov angle {angle}");
    }
}
