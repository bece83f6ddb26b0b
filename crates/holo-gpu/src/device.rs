//! Device descriptions and the roofline execution model.

use std::time::Duration;

/// A compute device (GPU or SoC) described by its roofline parameters.
#[derive(Debug, Clone)]
pub struct Device {
    /// Human-readable name.
    pub name: String,
    /// Peak FP32 throughput, TFLOP/s (spec sheet).
    pub fp32_tflops: f64,
    /// Peak memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Usable device memory, bytes.
    pub vram_bytes: u64,
    /// Fraction of peak a real workload sustains (kernel efficiency).
    pub efficiency: f64,
    /// Fixed per-kernel launch/driver overhead.
    pub launch_overhead: Duration,
}

/// Why a workload cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Working set exceeds device memory: `(required, available)` bytes.
    OutOfMemory { required: u64, available: u64 },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::OutOfMemory { required, available } => write!(
                f,
                "out of memory: needs {:.1} GiB, device has {:.1} GiB",
                *required as f64 / (1u64 << 30) as f64,
                *available as f64 / (1u64 << 30) as f64
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A kernel or kernel sequence's resource demands.
#[derive(Debug, Clone, Copy, Default)]
pub struct Workload {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved to/from device memory.
    pub bytes: f64,
    /// Peak resident working set, bytes.
    pub peak_memory: u64,
}

impl Workload {
    /// Combine two workloads executed sequentially (peak memory is the
    /// max of the two).
    pub fn then(self, next: Workload) -> Workload {
        Workload {
            flops: self.flops + next.flops,
            bytes: self.bytes + next.bytes,
            peak_memory: self.peak_memory.max(next.peak_memory),
        }
    }
}

impl Device {
    /// NVIDIA A100 40 GB (the paper's server GPU): 19.5 FP32 TFLOP/s,
    /// 1555 GB/s HBM2.
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100 40GB".into(),
            fp32_tflops: 19.5,
            mem_bw_gbs: 1555.0,
            vram_bytes: 40 * (1u64 << 30),
            efficiency: 0.35,
            launch_overhead: Duration::from_micros(300),
        }
    }

    /// NVIDIA RTX 3080 Laptop 8 GB (the paper's laptop GPU): ~18.5 FP32
    /// TFLOP/s, 448 GB/s.
    pub fn rtx3080_laptop() -> Self {
        Self {
            name: "NVIDIA RTX 3080 Laptop 8GB".into(),
            fp32_tflops: 18.5,
            mem_bw_gbs: 448.0,
            vram_bytes: 8 * (1u64 << 30),
            efficiency: 0.30,
            launch_overhead: Duration::from_micros(300),
        }
    }

    /// An XR-headset-class mobile SoC GPU (Snapdragon XR2 Adreno 650
    /// class): ~1.2 TFLOP/s, 51 GB/s LPDDR, shared memory budget ~4 GiB.
    pub fn mobile_soc() -> Self {
        Self {
            name: "Mobile XR SoC".into(),
            fp32_tflops: 1.2,
            mem_bw_gbs: 51.2,
            vram_bytes: 4 * (1u64 << 30),
            efficiency: 0.25,
            launch_overhead: Duration::from_micros(800),
        }
    }

    /// A datacenter-class SFU forwarding server (no display attached):
    /// a many-core CPU node with big RAM and commodity DDR bandwidth.
    /// SFU work is copy/checksum/queue traffic, not dense math, so the
    /// FP32 peak is modest while the memory system and per-dispatch
    /// overhead are server-class. Fleet node capacity models derive
    /// from this preset instead of hardcoding a rooms-per-node number.
    pub fn sfu_server() -> Self {
        Self {
            name: "SFU server (datacenter)".into(),
            fp32_tflops: 3.0,
            mem_bw_gbs: 205.0,
            vram_bytes: 256 * (1u64 << 30),
            efficiency: 0.55,
            launch_overhead: Duration::from_micros(5),
        }
    }

    /// Roofline execution time, or OOM.
    pub fn exec_time(&self, w: &Workload) -> Result<Duration, ExecError> {
        if w.peak_memory > self.vram_bytes {
            return Err(ExecError::OutOfMemory { required: w.peak_memory, available: self.vram_bytes });
        }
        let compute_s = w.flops / (self.fp32_tflops * 1e12 * self.efficiency);
        let memory_s = w.bytes / (self.mem_bw_gbs * 1e9 * self.efficiency.max(0.5));
        let t = compute_s.max(memory_s) + self.launch_overhead.as_secs_f64();
        Ok(Duration::from_secs_f64(t))
    }

    /// Frames per second this device sustains for a per-frame workload.
    pub fn fps(&self, per_frame: &Workload) -> Result<f64, ExecError> {
        let t = self.exec_time(per_frame)?;
        Ok(1.0 / t.as_secs_f64().max(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gflop_workload(gflops: f64) -> Workload {
        Workload { flops: gflops * 1e9, bytes: gflops * 1e7, peak_memory: 1 << 30 }
    }

    #[test]
    fn a100_faster_than_laptop_faster_than_mobile() {
        let w = gflop_workload(500.0);
        let a = Device::a100().exec_time(&w).unwrap();
        let l = Device::rtx3080_laptop().exec_time(&w).unwrap();
        let m = Device::mobile_soc().exec_time(&w).unwrap();
        assert!(a < l, "a100 {a:?} vs laptop {l:?}");
        assert!(l < m, "laptop {l:?} vs mobile {m:?}");
    }

    #[test]
    fn oom_when_working_set_exceeds_vram() {
        let w = Workload { flops: 1e9, bytes: 1e9, peak_memory: 10 * (1u64 << 30) };
        assert!(matches!(
            Device::rtx3080_laptop().exec_time(&w),
            Err(ExecError::OutOfMemory { .. })
        ));
        assert!(Device::a100().exec_time(&w).is_ok());
    }

    #[test]
    fn memory_bound_workload_limited_by_bandwidth() {
        // Huge bytes, tiny flops.
        let w = Workload { flops: 1e6, bytes: 100e9, peak_memory: 1 << 30 };
        let a100 = Device::a100();
        let t = a100.exec_time(&w).unwrap().as_secs_f64();
        let expected = 100e9 / (1555.0 * 1e9 * 0.5);
        assert!((t - expected).abs() / expected < 0.05, "t {t} vs {expected}");
    }

    #[test]
    fn compute_scales_linearly() {
        let a100 = Device::a100();
        let t1 = a100.exec_time(&gflop_workload(1000.0)).unwrap().as_secs_f64();
        let t2 = a100.exec_time(&gflop_workload(2000.0)).unwrap().as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 0.1, "scaling {t2}/{t1}");
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let a100 = Device::a100();
        let t = a100.exec_time(&Workload { flops: 1.0, bytes: 1.0, peak_memory: 1 }).unwrap();
        assert!(t >= Duration::from_micros(300));
    }

    #[test]
    fn workload_then_combines() {
        let a = Workload { flops: 1e9, bytes: 2e9, peak_memory: 100 };
        let b = Workload { flops: 3e9, bytes: 1e9, peak_memory: 500 };
        let c = a.then(b);
        assert_eq!(c.flops, 4e9);
        assert_eq!(c.bytes, 3e9);
        assert_eq!(c.peak_memory, 500);
    }

    #[test]
    fn sfu_server_is_a_forwarding_box_not_a_gpu() {
        let s = Device::sfu_server();
        // Display-free server: far more memory than any GPU preset,
        // modest FLOPs next to the A100.
        assert!(s.vram_bytes > Device::a100().vram_bytes * 4);
        assert!(s.fp32_tflops < Device::a100().fp32_tflops);
        assert!(s.launch_overhead < Duration::from_micros(50));
    }

    #[test]
    fn error_display_human_readable() {
        let e = ExecError::OutOfMemory { required: 12 * (1u64 << 30), available: 8 * (1u64 << 30) };
        let s = e.to_string();
        assert!(s.contains("12.0 GiB") && s.contains("8.0 GiB"), "{s}");
    }
}
