//! Workload models for the paper's pipeline stages.
//!
//! The Fig. 4 experiment measures X-Avatar's keypoint-to-mesh
//! reconstruction at marching-cubes resolutions 128-1024. Its cost is
//! dominated by querying the implicit geometry MLP over the near-surface
//! band of the voxel grid (O(R^2) queries after octree culling) and its
//! memory by the dense field / gradient / extraction workspace (O(R^3)).
//!
//! Calibration (documented in EXPERIMENTS.md): `QUERIES_PER_R2 = 1350`
//! and `FLOPS_PER_QUERY = 130e3` (a ~256-wide, 8-layer MLP per query)
//! anchor the model at the paper's reported ~2.4 FPS for resolution 128
//! on the A100; `BYTES_PER_VOXEL = 32` and `FRAMEWORK_BYTES = 5 GiB`
//! reproduce the paper's observation that the RTX 3080 laptop GPU cannot
//! run resolutions 512 and 1024.

use crate::device::Workload;

/// Near-surface MLP queries per squared resolution unit.
pub const QUERIES_PER_R2: f64 = 1350.0;
/// FLOPs per implicit-field query (geometry MLP forward pass).
pub const FLOPS_PER_QUERY: f64 = 130e3;
/// Activation traffic per query, bytes.
pub const BYTES_PER_QUERY: f64 = 512.0;
/// Field + gradient + extraction workspace per voxel, bytes.
pub const BYTES_PER_VOXEL: u64 = 32;
/// Model weights + framework + CUDA context, bytes.
pub const FRAMEWORK_BYTES: u64 = 5 * (1u64 << 30);

/// The modeled X-Avatar-class reconstruction workload at a resolution.
#[derive(Debug, Clone, Copy)]
pub struct ReconstructionWorkload {
    /// Marching-cubes resolution.
    pub resolution: u32,
    /// Implicit-field queries the reconstruction performs.
    pub field_queries: u64,
    /// The roofline workload.
    pub workload: Workload,
}

/// Model the reconstruction workload at `resolution`. When
/// `measured_queries` is provided (from our own sparse extractor's
/// counters), it replaces the analytic O(R^2) query estimate, coupling
/// the model to the real geometry being reconstructed.
pub fn reconstruction_workload(resolution: u32, measured_queries: Option<u64>) -> ReconstructionWorkload {
    let r = resolution as f64;
    let queries = measured_queries.unwrap_or((QUERIES_PER_R2 * r * r) as u64);
    let voxels = (resolution as u64).pow(3);
    let workload = Workload {
        flops: queries as f64 * FLOPS_PER_QUERY,
        bytes: queries as f64 * BYTES_PER_QUERY,
        peak_memory: FRAMEWORK_BYTES + voxels * BYTES_PER_VOXEL,
    };
    ReconstructionWorkload { resolution, field_queries: queries, workload }
}

/// Workload of a keypoint detector inference pass (`gflops` from
/// `KeypointDetector::gflops_per_frame`).
pub fn detector_workload(gflops: f64) -> Workload {
    Workload {
        flops: gflops * 1e9,
        bytes: gflops * 2e7,
        peak_memory: 2 * (1u64 << 30),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn a100_fig4_anchor_point() {
        // Paper: <3 FPS at resolution 128 on the A100, around 2.4.
        let w = reconstruction_workload(128, None);
        let fps = Device::a100().fps(&w.workload).unwrap();
        assert!((1.8..3.0).contains(&fps), "A100 @128 fps {fps:.2}");
    }

    #[test]
    fn fps_below_one_at_256_and_above() {
        for r in [256, 512, 1024] {
            let w = reconstruction_workload(r, None);
            let fps = Device::a100().fps(&w.workload).unwrap();
            assert!(fps < 1.0, "A100 @{r} fps {fps:.2} should be < 1");
        }
    }

    #[test]
    fn fps_monotonically_decreasing() {
        let mut prev = f64::INFINITY;
        for r in [128, 256, 512, 1024] {
            let fps = Device::a100().fps(&reconstruction_workload(r, None).workload).unwrap();
            assert!(fps < prev, "fps must fall with resolution");
            prev = fps;
        }
    }

    #[test]
    fn rtx3080_cannot_handle_512_and_1024() {
        let dev = Device::rtx3080_laptop();
        assert!(dev.fps(&reconstruction_workload(128, None).workload).is_ok());
        assert!(dev.fps(&reconstruction_workload(256, None).workload).is_ok());
        assert!(dev.fps(&reconstruction_workload(512, None).workload).is_err(), "512 must OOM");
        assert!(dev.fps(&reconstruction_workload(1024, None).workload).is_err(), "1024 must OOM");
    }

    #[test]
    fn a100_runs_1024_without_oom() {
        assert!(Device::a100().fps(&reconstruction_workload(1024, None).workload).is_ok());
    }

    #[test]
    fn measured_queries_override() {
        let w = reconstruction_workload(128, Some(1_000_000));
        assert_eq!(w.field_queries, 1_000_000);
        assert!((w.workload.flops - 1.3e11).abs() < 1e9);
    }

    #[test]
    fn mobile_soc_cannot_run_reconstruction_at_all() {
        // Motivates the paper's edge-server architecture: headsets cannot
        // run the reconstruction locally.
        let dev = Device::mobile_soc();
        assert!(dev.fps(&reconstruction_workload(128, None).workload).is_err());
    }

    #[test]
    fn detector_faster_than_reconstruction() {
        let det = detector_workload(14.0);
        let rec = reconstruction_workload(128, None).workload;
        let a100 = Device::a100();
        assert!(a100.exec_time(&det).unwrap() < a100.exec_time(&rec).unwrap() / 10);
    }
}
