//! Allocation laws: a steady-state `MeshEncoder::encode` allocates its
//! output and nothing else, and so does a capture camera's
//! `render_rgbd`; a steady-state keypoint decode allocates its mesh and
//! little else, and what it returns does not depend on the frames the
//! pipeline decoded before. This binary installs the counting
//! allocator; its counters are per thread, so the test harness's other
//! threads do not show.

use holo_body::{BodyModel, BodySdf, MotionKind, MotionSynthesizer, Skeleton, SurfaceDetail};
use holo_capture::render::{render_rgbd, ShadingConfig};
use holo_capture::{Camera, CameraIntrinsics, DepthNoiseModel};
use holo_compress::meshcodec::{encode_mesh, MeshCodecConfig, MeshEncoder};
use holo_fuzz::alloc::{alloc_bytes, alloc_calls};
use holo_math::{Pcg32, Vec3};
use holo_mesh::trimesh::TriMesh;
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::{Content, SceneSource, SemHoloConfig, SemanticPipeline};

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

/// Frames 0..20 of the benchmark's keypoint scene (seed 42, `Talking`)
/// as its sender ships them.
fn keypoint_payloads() -> Vec<Vec<u8>> {
    let config = SemHoloConfig { seed: 42, motion: MotionKind::Talking, ..Default::default() };
    let scene = SceneSource::new(&config, 21.0 / config.fps);
    let mut sender = KeypointPipeline::new(KeypointConfig::default(), 42);
    (0..20).map(|i| sender.encode(&scene.frame(i)).expect("encodes").payload.to_vec()).collect()
}

fn receiver(resolution: u32) -> KeypointPipeline {
    KeypointPipeline::new(KeypointConfig { resolution, ..Default::default() }, 42)
}

fn decoded_mesh(pipeline: &mut KeypointPipeline, payload: &[u8]) -> TriMesh {
    match pipeline.decode(payload).expect("decodes").content {
        Content::Mesh(mesh) => mesh,
        _ => panic!("a keypoint decode returns a mesh"),
    }
}

/// A res-128 keypoint decode through one pipeline: frames 0..3 grow the
/// extractor's maps and staging buffers. From frame 3 on each decode
/// makes at most 64 allocation calls of at most 2 MB in all, every
/// buffer of the mesh is allocated at its length (within a quarter),
/// and besides the mesh's buffers at most 128 KiB is asked for: the
/// pose, the body field and the codec's, not the maps that build the
/// mesh.
#[test]
fn steady_state_keypoint_decode_allocates_its_mesh_and_little_else() {
    assert!(holo_fuzz::alloc::installed());
    let payloads = keypoint_payloads();
    let mut pipeline = receiver(128);
    for (i, payload) in payloads.iter().enumerate() {
        let (mesh, calls, bytes) = counted(|| decoded_mesh(&mut pipeline, payload));
        let buffers = [
            ("vertices", mesh.vertices.len(), mesh.vertices.capacity()),
            ("faces", mesh.faces.len(), mesh.faces.capacity()),
            ("normals", mesh.normals.len(), mesh.normals.capacity()),
            ("colors", mesh.colors.len(), mesh.colors.capacity()),
        ];
        let output: u64 = buffers.iter().map(|&(_, _, capacity)| 12 * capacity as u64).sum();
        println!("frame {i}: {calls} calls, {bytes} B, {output} B of them the mesh's");
        if i < 3 {
            continue;
        }
        assert!(calls <= 64 && bytes <= 2 << 20, "frame {i}: {calls} allocation calls of {bytes} B in all");
        for (name, len, capacity) in buffers {
            assert!(capacity * 4 <= len * 5, "frame {i}: {name} has capacity {capacity} for {len}");
        }
        assert!(bytes - output <= 128 << 10, "frame {i}: {} B besides the mesh's {output} B", bytes - output);
    }
}

/// Three words a vertex, face or normal.
type Words = Vec<[u32; 3]>;

/// The bits of a mesh's vertices, faces and normals.
fn mesh_bits(mesh: &TriMesh) -> (Words, Words, Words) {
    let bits = |v: &[Vec3]| v.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect();
    (bits(&mesh.vertices), mesh.faces.clone(), bits(&mesh.normals))
}

/// One pipeline decodes the clip forward, then backward, then a frame at
/// twice the resolution, which outgrows every buffer the clip grew; each
/// mesh is, bit for bit, a fresh pipeline's decode of that frame.
#[test]
fn a_decode_does_not_depend_on_the_frames_decoded_before() {
    let payloads = keypoint_payloads();
    let fresh: Vec<_> = payloads.iter().map(|payload| mesh_bits(&decoded_mesh(&mut receiver(128), payload))).collect();
    let mut pipeline = receiver(128);
    let order: Vec<usize> = (0..payloads.len()).chain((0..payloads.len()).rev()).collect();
    for (step, &i) in order.iter().enumerate() {
        assert!(mesh_bits(&decoded_mesh(&mut pipeline, &payloads[i])) == fresh[i], "frame {i}, decode {step} of the pipeline");
    }
    pipeline.config.resolution = 256;
    let want = mesh_bits(&decoded_mesh(&mut receiver(256), &payloads[10]));
    assert!(mesh_bits(&decoded_mesh(&mut pipeline, &payloads[10])) == want, "frame 10 at res 256 after the clip at 128");
}
