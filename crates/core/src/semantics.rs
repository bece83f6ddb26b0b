//! The semantic-pipeline abstraction and the taxonomy types of Table 1.

use crate::error::Result;
use crate::scene::SceneFrame;
use holo_runtime::bytes::Bytes;
use holo_compress::texture::Texture;
use holo_gpu::Workload;
use holo_mesh::metrics::compare_meshes;
use holo_mesh::pointcloud::PointCloud;
use holo_mesh::trimesh::TriMesh;
use std::time::Duration;

/// The paper's taxonomy (Table 1) plus the traditional baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticKind {
    /// Keypoint-based semantics (§3.1): ~1.91 KB/frame.
    Keypoint,
    /// Image-based semantics via NeRF (§3.2).
    Image,
    /// Text-based semantics via discrete tokens (§3.3).
    Text,
    /// Traditional bit-by-bit mesh delivery (baseline).
    Traditional,
    /// Foveated hybrid: mesh fovea + keypoint periphery (§3.1 agenda).
    FoveatedHybrid,
    /// Amortized gaussian-avatar tier: one-time prebuilt splat avatar +
    /// tiny per-frame conditioning updates (research-agenda dimension).
    Gaussian,
}

impl SemanticKind {
    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            SemanticKind::Keypoint => "keypoint",
            SemanticKind::Image => "image",
            SemanticKind::Text => "text",
            SemanticKind::Traditional => "traditional",
            SemanticKind::FoveatedHybrid => "foveated-hybrid",
            SemanticKind::Gaussian => "gaussian",
        }
    }
}

/// CPU + modeled-GPU cost of a pipeline stage.
///
/// Rooms and sessions charge [`time_on`](Self::time_on) in virtual
/// time, so what it returns must not depend on the machine: a stage
/// with a modeled workload is charged the model, and a CPU-only stage
/// is charged `cpu_wall`, which such a stage therefore fills with a
/// fixed modeled figure, never a clock reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCost {
    /// CPU time of the stage. A stage with a `gpu` workload reports the
    /// wall time [`holo_trace::WallTimer::stop`] measured, which no
    /// simulator charges; a CPU-only stage reports its modeled cost.
    pub cpu_wall: Duration,
    /// Modeled accelerator workload (None when the stage is CPU-only,
    /// like posing and coding a mesh).
    pub gpu: Option<Workload>,
}

impl StageCost {
    /// Time this stage takes on a device: the modeled GPU time when a
    /// workload exists, otherwise `cpu_wall`.
    pub fn time_on(&self, device: &holo_gpu::Device) -> Result<Duration> {
        match &self.gpu {
            Some(w) => Ok(device.exec_time(w)?),
            None => Ok(self.cpu_wall),
        }
    }
}

/// A frame after semantic extraction, ready for the network.
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    /// Wire payload.
    pub payload: Bytes,
    /// Extraction cost.
    pub extract: StageCost,
}

/// Reconstructed content at the receiver.
pub enum Content {
    /// A triangle mesh.
    Mesh(TriMesh),
    /// A point cloud.
    Cloud(PointCloud),
    /// A rendered novel view (image pipeline).
    View(Texture),
}

impl Content {
    /// Output-format label (the Table 1 column).
    pub fn format_name(&self) -> &'static str {
        match self {
            Content::Mesh(_) => "mesh",
            Content::Cloud(_) => "point cloud",
            Content::View(_) => "image",
        }
    }
}

/// The receiver-side result.
pub struct Reconstructed {
    /// The content.
    pub content: Content,
    /// Reconstruction cost.
    pub recon: StageCost,
}

/// Visual-quality measurements against ground truth. Fields are `None`
/// when the metric does not apply to the pipeline's output format.
#[derive(Debug, Clone, Copy, Default)]
pub struct QualityReport {
    /// Symmetric Chamfer distance vs ground-truth surface, meters.
    pub chamfer: Option<f32>,
    /// F-score at 1 cm.
    pub f_score: Option<f32>,
    /// Normal consistency in [0, 1].
    pub normal_consistency: Option<f32>,
    /// PSNR of a rendered novel view, dB (image pipeline).
    pub psnr_db: Option<f64>,
}

/// A semantic communication pipeline: sender-side extraction and
/// receiver-side reconstruction (paper Fig. 1).
pub trait SemanticPipeline {
    /// Which taxonomy entry this is.
    fn kind(&self) -> SemanticKind;

    /// Extract and serialize the semantics of one frame.
    fn encode(&mut self, frame: &SceneFrame) -> Result<EncodedFrame>;

    /// Reconstruct content from a received payload.
    fn decode(&mut self, payload: &[u8]) -> Result<Reconstructed>;

    /// Measure reconstruction quality against the frame's ground truth.
    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport;
}

/// Ground-truth reference resolution the mesh-producing pipelines grade
/// themselves against.
pub(crate) const QUALITY_REFERENCE_RESOLUTION: u32 = 96;

/// Shared geometric quality measurement: compare reconstructed geometry
/// against the ground-truth surface.
pub fn mesh_quality(gt: &TriMesh, mesh: &TriMesh, seed: u64) -> QualityReport {
    let q = compare_meshes(gt, mesh, 4000, 0.01, seed);
    QualityReport {
        chamfer: Some(q.chamfer),
        f_score: Some(q.f_score),
        normal_consistency: Some(q.normal_consistency),
        psnr_db: None,
    }
}

/// Cloud-vs-mesh quality: sample the ground-truth mesh and compare point
/// sets.
pub fn cloud_quality(gt: &TriMesh, cloud: &PointCloud, seed: u64) -> QualityReport {
    let mut rng = holo_math::Pcg32::new(seed);
    let (gt_pts, _) = gt.sample_surface(4000, &mut rng);
    let chamfer = holo_mesh::metrics::chamfer_distance(&gt_pts, &cloud.points);
    let f = holo_mesh::metrics::f_score(&gt_pts, &cloud.points, 0.02);
    QualityReport { chamfer: Some(chamfer), f_score: Some(f), normal_consistency: None, psnr_db: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Vec3;

    #[test]
    fn kind_names() {
        assert_eq!(SemanticKind::Keypoint.name(), "keypoint");
        assert_eq!(SemanticKind::Traditional.name(), "traditional");
    }

    #[test]
    fn stage_cost_prefers_gpu_model() {
        let cost = StageCost {
            cpu_wall: Duration::from_millis(500),
            gpu: Some(Workload { flops: 1e9, bytes: 1e6, peak_memory: 1 << 20 }),
        };
        let t = cost.time_on(&holo_gpu::Device::a100()).unwrap();
        assert!(t < Duration::from_millis(10), "gpu-modeled time {t:?}");
        let cpu_only = StageCost { cpu_wall: Duration::from_millis(5), gpu: None };
        assert_eq!(cpu_only.time_on(&holo_gpu::Device::a100()).unwrap(), Duration::from_millis(5));
    }

    #[test]
    fn mesh_quality_of_identical_is_good() {
        // Body-scale surface area so the 1 cm F-score tolerance is
        // commensurate with the 4000-sample density.
        let m = TriMesh::uv_sphere(Vec3::ZERO, 0.3, 16, 24);
        let q = mesh_quality(&m, &m, 1);
        assert!(q.chamfer.unwrap() < 0.02);
        assert!(q.f_score.unwrap() > 0.3, "f-score {:?}", q.f_score);
    }

    #[test]
    fn cloud_quality_detects_offset() {
        let m = TriMesh::uv_sphere(Vec3::ZERO, 1.0, 16, 24);
        let mut rng = holo_math::Pcg32::new(2);
        let (pts, _) = m.sample_surface(2000, &mut rng);
        let close = cloud_quality(&m, &PointCloud::from_points(pts.clone()), 3);
        let shifted: Vec<Vec3> = pts.iter().map(|p| *p + Vec3::new(0.2, 0.0, 0.0)).collect();
        let far = cloud_quality(&m, &PointCloud::from_points(shifted), 3);
        assert!(far.chamfer.unwrap() > close.chamfer.unwrap() * 2.0);
    }

    #[test]
    fn content_format_names() {
        assert_eq!(Content::Mesh(TriMesh::new()).format_name(), "mesh");
        assert_eq!(Content::Cloud(PointCloud::new()).format_name(), "point cloud");
        assert_eq!(Content::View(Texture::new(2, 2)).format_name(), "image");
    }
}
