//! **Figure 4** — reconstruction FPS vs. output resolution.
//!
//! Paper: on an NVIDIA A100, X-Avatar's keypoint-to-mesh reconstruction
//! runs below 3 FPS even at resolution 128 and below 1 FPS above, "far
//! below the required 30 FPS for real-time telepresence"; an RTX 3080
//! laptop GPU cannot handle resolutions 512 and 1024 at all.
//!
//! The facts are the *modeled* FPS of an X-Avatar-class neural implicit
//! on the paper's devices and a mobile XR SoC, from the roofline cost
//! model (calibration in `holo-gpu`); a device whose memory the workload
//! does not fit records `"OOM"`. The timing is our own CPU
//! reconstruction at resolution 256 (same O(R^2) extraction work,
//! analytic field); resolution 128 is timed by the repository
//! benchmark's `keypoint_recon` workload.

use holo_bench::bench_scene;
use holo_gpu::workloads::reconstruction_workload;
use holo_gpu::Device;
use holo_runtime::bench::Criterion;
use holo_runtime::{bench_group, bench_main};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::SemanticPipeline;
use std::hint::black_box;

fn fig4(c: &mut Criterion) {
    let a100 = Device::a100();
    let rtx = Device::rtx3080_laptop();
    let devices = [("a100", &a100), ("rtx3080_laptop", &rtx), ("mobile_soc", &Device::mobile_soc())];
    let mut group = c.benchmark_group("fig4");
    let mut a100_fps = Vec::new();
    for res in [128u32, 256, 512, 1024] {
        let w = reconstruction_workload(res, None).workload;
        for (name, device) in devices {
            let name = format!("fps_modeled/{name}/res{res}");
            match device.fps(&w) {
                Ok(fps) => group.fact(name, fps, "FPS"),
                Err(_) => group.fact(name, "OOM", "FPS"),
            }
        }
        if let Ok(f) = a100.fps(&w) {
            a100_fps.push(f);
        }
    }
    // Paper-shape assertions.
    assert!(a100_fps[0] < 3.0, "A100 @128 must be below 3 FPS (paper)");
    assert!(a100_fps[1..].iter().all(|&f| f < 1.0), "A100 above 128 must be below 1 FPS");
    assert!(rtx.fps(&reconstruction_workload(512, None).workload).is_err(), "RTX 3080 must OOM at 512");
    assert!(rtx.fps(&reconstruction_workload(1024, None).workload).is_err(), "RTX 3080 must OOM at 1024");

    // Criterion: measured CPU reconstruction at resolution 256.
    let frame = bench_scene(1.0).frame(5);
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: 256, ..Default::default() }, 42);
    let payload = p.encode(&frame).unwrap().payload;
    group.sample_size(10);
    group.bench_function("cpu_reconstruct_res256", |b| b.iter(|| p.decode(black_box(&payload)).unwrap()));
    group.finish();
}

bench_group!(benches, fig4);
bench_main!(benches);
