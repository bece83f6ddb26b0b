//! Scene sources: the ground-truth world every pipeline observes.
//!
//! A [`SceneSource`] owns the synthesized participant (motion clip +
//! skeleton + body model + capture rig) and hands out per-frame
//! [`SceneFrame`]s. Ground-truth products (full-detail mesh, fused point
//! cloud, RGB-D captures) are computed on demand so cheap pipelines don't
//! pay for expensive captures they never use.

use crate::config::SemHoloConfig;
use crate::error::{Result, SemHoloError};
use holo_body::model::BodyModel;
use holo_body::motion::{MotionClip, MotionSynthesizer};
use holo_body::params::SmplxParams;
use holo_body::skeleton::Skeleton;
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_capture::rig::CaptureRig;
use holo_capture::render::{RayCounts, RgbdFrame};
use holo_math::{Aabb, Pcg32};
use holo_mesh::pointcloud::PointCloud;
use holo_mesh::sdf::Sdf;
use holo_mesh::sparse::sparse_extract;
use holo_mesh::trimesh::TriMesh;
use std::sync::Arc;

/// Immutable per-session context shared by all frames.
pub struct SceneContext {
    /// Session configuration.
    pub config: SemHoloConfig,
    /// The (neutral-shape) skeleton.
    pub skeleton: Skeleton,
    /// The skinned parametric mesh model (SMPL-X substitute).
    pub body_model: Arc<BodyModel>,
    /// The capture rig.
    pub rig: CaptureRig,
}

/// One ground-truth frame.
pub struct SceneFrame {
    /// Frame index.
    pub index: usize,
    /// Capture timestamp, seconds.
    pub time: f64,
    /// True avatar state.
    pub params: SmplxParams,
    /// Shared context.
    pub context: Arc<SceneContext>,
}

impl SceneFrame {
    /// The ground-truth body SDF with full surface detail (cloth folds,
    /// expression bumps) — what the physical person "is".
    pub fn ground_truth_sdf(&self) -> BodySdf {
        BodySdf::from_pose(&self.context.skeleton, &self.params, SurfaceDetail::full())
    }

    /// Ground-truth mesh at a reference resolution (for quality metrics).
    pub fn ground_truth_mesh(&self, resolution: u32) -> TriMesh {
        sparse_extract(&self.ground_truth_sdf(), resolution, 0.03)
    }

    /// RGB-D captures from every rig camera (deterministic per frame).
    /// With tracing on, it adds to this thread's counters what the trace
    /// passes did: rays that enter the body's box, rays marched, hits and
    /// march steps (`capture.render.*`).
    pub fn capture(&self) -> Vec<RgbdFrame> {
        let sdf = self.ground_truth_sdf();
        let mut rng = Pcg32::with_stream(self.context.config.seed, 0x1000 + self.index as u64);
        let frames = self.context.rig.capture(&sdf, &mut rng);
        if holo_trace::enabled() {
            count_rays(&sdf.bounds(), &frames);
        }
        frames
    }

    /// Fused colored point cloud from the captures.
    pub fn captured_cloud(&self) -> PointCloud {
        self.context.rig.fuse(&self.capture())
    }

    /// The posed parametric mesh (what the traditional pipeline ships).
    pub fn posed_mesh(&self) -> TriMesh {
        self.context.body_model.pose_mesh(&self.params)
    }
}

/// Flush the trace passes' [`RayCounts`] of `frames`, and how many of
/// their pixels' rays enter `bounds` — the rays a renderer with no hull
/// would march — into this thread's counters.
fn count_rays(bounds: &Aabb, frames: &[RgbdFrame]) {
    let mut in_box = 0;
    for frame in frames {
        let k = frame.camera.intrinsics;
        for y in 0..k.height {
            in_box += (0..k.width).filter(|&x| frame.camera.pixel_ray(x, y).intersect_aabb(bounds).is_some()).count() as u64;
        }
    }
    let sum = |count: fn(&RayCounts) -> u64| frames.iter().map(|f| count(&f.rays)).sum();
    holo_trace::counter("capture.render.rays_in_box", in_box);
    holo_trace::counter("capture.render.rays_marched", sum(|r| r.marched));
    holo_trace::counter("capture.render.rays_hit", sum(|r| r.hits));
    holo_trace::counter("capture.render.march_steps", sum(|r| r.steps));
}

/// A deterministic stream of scene frames.
pub struct SceneSource {
    context: Arc<SceneContext>,
    clip: MotionClip,
}

impl SceneSource {
    /// Build a scene from a config: synthesizes the motion clip and the
    /// rig. `duration_s` bounds the clip length.
    pub fn new(config: &SemHoloConfig, duration_s: f32) -> Self {
        let mut synth = MotionSynthesizer::new(config.seed);
        let clip = synth.clip(config.motion, duration_s, config.fps);
        let rig = CaptureRig::new(&config.rig_config());
        let context = Arc::new(SceneContext {
            config: config.clone(),
            skeleton: Skeleton::neutral(),
            body_model: BodyModel::standard(),
            rig,
        });
        Self { context, clip }
    }

    /// Number of frames available.
    pub fn len(&self) -> usize {
        self.clip.len()
    }

    /// True when the clip is empty.
    pub fn is_empty(&self) -> bool {
        self.clip.is_empty()
    }

    /// Shared context handle.
    pub fn context(&self) -> Arc<SceneContext> {
        self.context.clone()
    }

    /// Frame accessor (panics when out of range).
    pub fn frame(&self, index: usize) -> SceneFrame {
        SceneFrame {
            index,
            time: index as f64 / self.context.config.fps as f64,
            params: self.clip.frame(index).clone(),
            context: self.context.clone(),
        }
    }

    /// `Ok` when the scene has at least `frames` frames; otherwise a
    /// [`SemHoloError::Config`] naming both counts. A run that indexes
    /// frames `0..frames` checks this first instead of panicking or
    /// running short.
    pub fn require_frames(&self, frames: usize) -> Result<()> {
        if frames > self.len() {
            return Err(SemHoloError::Config(format!(
                "{frames} frames requested but the scene has only {}",
                self.len()
            )));
        }
        Ok(())
    }

    /// Iterate over the first `n` frames; the error of
    /// [`require_frames`](Self::require_frames) when the scene has fewer.
    pub fn frames(&self, n: usize) -> Result<impl Iterator<Item = SceneFrame> + '_> {
        self.require_frames(n)?;
        Ok((0..n).map(move |i| self.frame(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scene() -> SceneSource {
        let config = SemHoloConfig {
            capture_resolution: (48, 36),
            camera_count: 2,
            ..Default::default()
        };
        SceneSource::new(&config, 0.5)
    }

    #[test]
    fn scene_produces_frames() {
        let scene = small_scene();
        assert_eq!(scene.len(), 15);
        let f = scene.frame(3);
        assert_eq!(f.index, 3);
        assert!((f.time - 0.1).abs() < 1e-6);
    }

    #[test]
    fn ground_truth_mesh_plausible() {
        let scene = small_scene();
        let mesh = scene.frame(0).ground_truth_mesh(48);
        assert!(mesh.face_count() > 1000);
        assert!(mesh.validate().is_ok());
        let b = mesh.bounds();
        assert!(b.size().y > 1.2, "body height {:?}", b.size());
    }

    #[test]
    fn capture_is_deterministic_per_frame() {
        let scene = small_scene();
        let a = scene.frame(2).captured_cloud();
        let b = scene.frame(2).captured_cloud();
        assert_eq!(a.points, b.points);
        // Different frames differ.
        let c = scene.frame(10).captured_cloud();
        assert_ne!(a.points.len(), 0);
        assert!(a.points != c.points);
    }

    /// One frame of the benchmark's scene (four cameras of 96×72, seed
    /// 42, `Waving`), captured under `traced`: the counters are the
    /// frames' own counts, which the renderer's tests hold to the scalar
    /// renderer's hits; the hull leaves most rays in the box unmarched.
    #[test]
    fn a_traced_capture_counts_its_rays() {
        let config = SemHoloConfig { motion: holo_body::motion::MotionKind::Waving, ..Default::default() };
        let frame = SceneSource::new(&config, 0.5).frame(5);
        let frames = holo_trace::traced(|| frame.capture());
        let count = |name: &str| holo_trace::with_recorder(|r| r.metrics.counter_value(&format!("capture.render.{name}")));
        let sum = |of: fn(&RayCounts) -> u64| frames.iter().map(|f| of(&f.rays)).sum::<u64>();
        assert_eq!(count("rays_marched"), sum(|r| r.marched));
        assert_eq!(count("rays_hit"), sum(|r| r.hits));
        assert_eq!(count("march_steps"), sum(|r| r.steps));
        let (in_box, marched, hits) = (count("rays_in_box"), count("rays_marched"), count("rays_hit"));
        assert!(hits > 1_000 && marched * 10 < in_box * 6, "{hits} hits, {marched} of {in_box} rays marched");
        holo_trace::reset();
    }

    #[test]
    fn posed_mesh_constant_topology() {
        let scene = small_scene();
        let a = scene.frame(0).posed_mesh();
        let b = scene.frame(10).posed_mesh();
        assert_eq!(a.face_count(), b.face_count());
        assert_eq!(a.raw_size_bytes(), b.raw_size_bytes());
    }
}
