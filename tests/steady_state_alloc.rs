//! Allocation laws: a steady-state `MeshEncoder::encode` allocates its
//! output and nothing else, and so does a capture camera's
//! `render_rgbd`. This binary installs the counting allocator; its
//! counters are per thread, so the test harness's other threads do not
//! show.

use holo_body::{BodyModel, BodySdf, MotionKind, MotionSynthesizer, Skeleton, SurfaceDetail};
use holo_capture::render::{render_rgbd, ShadingConfig};
use holo_capture::{Camera, CameraIntrinsics, DepthNoiseModel};
use holo_compress::meshcodec::{encode_mesh, MeshCodecConfig, MeshEncoder};
use holo_fuzz::alloc::{alloc_bytes, alloc_calls};
use holo_math::{Pcg32, Vec3};
use holo_mesh::trimesh::TriMesh;

#[global_allocator]
static ALLOC: holo_fuzz::TrackingAllocator = holo_fuzz::TrackingAllocator;

/// Frames 0..20 of the seed-42 `Talking` clip, posed.
fn clip_meshes() -> Vec<TriMesh> {
    let model = BodyModel::standard();
    let clip = MotionSynthesizer::new(42).clip(MotionKind::Talking, 20.0 / 30.0, 30.0);
    clip.frames.iter().map(|pose| model.pose_mesh(pose)).collect()
}

/// Run `f`; its output and the allocation calls and bytes it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (alloc_calls(), alloc_bytes());
    let out = f();
    (out, alloc_calls() - calls, alloc_bytes() - bytes)
}

/// One allocation call: the returned buffer, sized without waste.
fn assert_only_the_output(what: &str, out: &Vec<u8>, calls: u64, bytes: u64) {
    let capacity = out.capacity();
    assert_eq!(calls, 1, "{what}: {calls} allocation calls ({bytes} B) for a {} B output", out.len());
    assert_eq!(bytes, capacity as u64, "{what}: the one call is not the output");
    assert!(capacity * 4 <= out.len() * 5, "{what}: capacity {capacity} for {} B", out.len());
}

#[test]
fn steady_state_mesh_encode_allocates_its_output_and_nothing_else() {
    assert!(holo_fuzz::alloc::installed());
    let meshes = clip_meshes();
    assert_eq!(meshes.len(), 20);
    let cfg = MeshCodecConfig::default();
    let mut encoder = MeshEncoder::default();

    // Frame 0 walks the connectivity and sizes every buffer: it may
    // allocate what it likes. Every later frame: the output, once.
    let (first, calls, bytes) = counted(|| encoder.encode(&meshes[0], &cfg));
    println!("frame 0 through a fresh MeshEncoder: {calls} calls, {bytes} B for {} B", first.len());
    for (i, mesh) in meshes.iter().enumerate().skip(1) {
        let (out, calls, bytes) = counted(|| encoder.encode(mesh, &cfg));
        assert_only_the_output(&format!("frame {i}"), &out, calls, bytes);
    }

    // A topology change re-walks into the memory already held; with one
    // face fewer nothing needs to grow, but only the frame after it is
    // held to the law.
    let dropped: Vec<TriMesh> = meshes[..3]
        .iter()
        .map(|mesh| {
            let mut mesh = mesh.clone();
            mesh.faces.pop();
            mesh
        })
        .collect();
    let (rewalked, calls, bytes) = counted(|| encoder.encode(&dropped[0], &cfg));
    println!("re-walk after a topology change: {calls} calls, {bytes} B");
    assert_eq!(rewalked, encode_mesh(&dropped[0], &cfg));
    for (i, mesh) in dropped.iter().enumerate().skip(1) {
        let (out, calls, bytes) = counted(|| encoder.encode(mesh, &cfg));
        assert_only_the_output(&format!("frame {i} on the new topology"), &out, calls, bytes);
        assert_eq!(out, encode_mesh(mesh, &cfg));
    }

    // For contrast, not pinned: what the one-shot function asks of the heap.
    let (_, calls, bytes) = counted(|| encode_mesh(&meshes[5], &cfg));
    println!("one-shot encode_mesh: {calls} calls, {bytes} B");
}

/// A 96×72 render of a posed, clothed body allocates the depth image and
/// the color image — 4 and 3 bytes a pixel — and nothing else: the trace
/// pass keeps its rays on the stack and its hits in the depth image.
#[test]
fn render_rgbd_allocates_its_two_images_and_nothing_else() {
    assert!(holo_fuzz::alloc::installed());
    let clip = MotionSynthesizer::new(42).clip(MotionKind::Waving, 10.0 / 30.0, 30.0);
    let body = BodySdf::from_pose(&Skeleton::neutral(), clip.frame(5), SurfaceDetail::full());
    let camera = Camera::look_at(CameraIntrinsics::from_fov(96, 72, 1.0), Vec3::new(0.4, 1.3, 2.4), Vec3::new(0.0, 1.0, 0.0));
    let mut rng = Pcg32::new(42);
    let (frame, calls, bytes) =
        counted(|| render_rgbd(&body, &camera, &DepthNoiseModel::default(), &ShadingConfig::default(), &mut rng));
    assert!(frame.depth.coverage() > 0.05, "the body fills {} of the image", frame.depth.coverage());
    assert_eq!((calls, bytes), (2, 96 * 72 * (4 + 3)), "{calls} allocation calls of {bytes} B in all");
}
