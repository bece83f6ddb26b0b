//! **Ablation D (§3.1)** — keypoint count vs. compute vs. quality, and
//! parametric vs. model-free reconstruction.
//!
//! Paper: "an intuitive strategy is to extract more keypoints... it
//! inevitably heightens computational overhead. Moreover, state-of-the-
//! art efforts may not entirely capitalize on the additional information
//! ... because they choose to encode keypoints into parametric human
//! models [with] fixed parameters." The model-free path "directly maps
//! keypoints to 3D mesh [but] functions on a single-frame basis...
//! yielding temporal discontinuity". This recipe sweeps landmark density
//! through both reconstruction modes at resolution 96 (model-free needs
//! the 55 skeleton joints, so it starts there) and measures temporal
//! jitter: how far the reconstructed surface moves between two encodes
//! of the same true pose, beside the metric's floor (that pose again on
//! a shifted lattice).

use crate::{bench_scene, Facts};
use holo_body::landmarks::StandardLandmarks;
use holo_body::skeleton::{Skeleton, JOINT_COUNT};
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_body::PosePayload;
use holo_compress::lzma::lzma_decompress;
use holo_keypoints::detector::KeypointDetector;
use holo_math::{Aabb, Vec3};
use holo_mesh::sdf::{Sdf, SdfScope};
use holo_mesh::sparse::sparse_extract;
use holo_mesh::TriMesh;
use semholo::keypoint::{KeypointConfig, KeypointPipeline, ReconstructionMode};
use semholo::{Content, SemanticPipeline};

const RESOLUTION: u32 = 96;

/// The exact field a decode extracts its mesh from, rebuilt from the
/// payload the way `KeypointPipeline::decode` builds it.
fn decoded_field(payload: &[u8], mode: ReconstructionMode) -> BodySdf {
    let pose = PosePayload::from_bytes(&lzma_decompress(payload).unwrap()).unwrap();
    match mode {
        ReconstructionMode::Parametric => {
            BodySdf::from_pose(&Skeleton::neutral(), &pose.params, SurfaceDetail::bare())
        }
        ReconstructionMode::ModelFree => {
            let joints = pose.keypoints[..JOINT_COUNT].try_into().unwrap();
            BodySdf::from_joint_positions(joints, &pose.params.expression, SurfaceDetail::bare())
        }
    }
}

/// A field whose extraction lattice starts `shift` lower on every axis:
/// the same distances, so the same surface sampled at other points.
struct ShiftedLattice<'a>(&'a BodySdf, f32);

impl Sdf for ShiftedLattice<'_> {
    fn distance(&self, p: Vec3) -> f32 {
        self.0.distance(p)
    }

    fn bounds(&self) -> Aabb {
        let b = self.0.bounds();
        Aabb::new(b.min - Vec3::new(self.1, self.1, self.1), b.max)
    }

    fn distance_in(&self, p: Vec3, scope: SdfScope, radius: f32) -> (f32, SdfScope) {
        self.0.distance_in(p, scope, radius)
    }

    fn distance_batch_in(&self, ps: &[Vec3], scope: SdfScope, radius: f32, out: &mut [(f32, SdfScope)]) {
        self.0.distance_batch_in(ps, scope, radius, out)
    }
}

/// Mean distance in mm from a mesh's vertices to a field's surface.
fn off_surface_mm(mesh: &TriMesh, field: &BodySdf) -> f64 {
    let sum: f64 = mesh.vertices.iter().map(|v| field.distance(*v).abs() as f64).sum();
    sum / mesh.vertex_count().max(1) as f64 * 1000.0
}

/// Surface motion between two reconstructions: each mesh's vertices
/// against the other's exact surface, averaged. Independent of where the
/// lattices fall; one pose reads only the extraction's own error.
fn surface_motion_mm(a: (&TriMesh, &BodySdf), b: (&TriMesh, &BodySdf)) -> f64 {
    (off_surface_mm(a.0, b.1) + off_surface_mm(b.0, a.1)) / 2.0
}

/// Payload bytes, chamfer (mm), jitter (mm) and the jitter metric's floor
/// (mm) of one configuration.
fn run(landmarks: StandardLandmarks, mode: ReconstructionMode) -> (usize, f64, f64, f64) {
    let scene = bench_scene(1.0);
    let frame = scene.frame(4);
    let mut p = KeypointPipeline::new(KeypointConfig { resolution: RESOLUTION, landmarks, mode }, 42);
    let enc = p.encode(&frame).unwrap();
    let rec = p.decode(&enc.payload).unwrap();
    let q = p.quality(&frame, &rec.content);
    // Temporal jitter: re-encode the same true pose (detector noise
    // differs) and measure how much the reconstructed surface moves.
    let enc2 = p.encode(&frame).unwrap();
    let rec2 = p.decode(&enc2.payload).unwrap();
    let (Content::Mesh(m1), Content::Mesh(m2)) = (&rec.content, &rec2.content) else {
        unreachable!()
    };
    let (f1, f2) = (decoded_field(&enc.payload, mode), decoded_field(&enc2.payload, mode));
    assert_eq!(sparse_extract(&f1, RESOLUTION, 0.03).vertices, m1.vertices, "rebuilt field is the decode's");
    // Floor: the first pose again, on a lattice moved about half a leaf
    // cell (resolution 96 extracts on a 128-cell lattice).
    let shift = f1.bounds().longest_side() / 256.0;
    let shifted = sparse_extract(&ShiftedLattice(&f1, shift), RESOLUTION, 0.03);
    assert_ne!(shifted.vertices, m1.vertices, "the lattice moved");
    let floor = surface_motion_mm((m1, &f1), (&shifted, &f1));
    (enc.payload.len(), q.chamfer.unwrap() as f64 * 1000.0, surface_motion_mm((m1, &f1), (m2, &f2)), floor)
}

/// `BENCH_ablation_keypoints.json`.
pub fn facts() -> String {
    use ReconstructionMode::{ModelFree, Parametric};
    use StandardLandmarks::*;
    let mut facts = Facts::new("ablation_keypoints", "ablation_keypoints");
    let presets = [Sparse25, Joints55, Standard100, Dense144, Dense244];
    for preset in presets {
        let gflop = KeypointDetector::gflops_per_frame(preset.count());
        facts.fact(format!("extract_gflop/{preset:?}"), gflop, "GFLOP");
    }
    let mut parametric_quality = Vec::new();
    for (mode, name, presets) in [(Parametric, "parametric", &presets[..]), (ModelFree, "model-free", &presets[1..])] {
        let mut jitters = Vec::new();
        for &preset in presets {
            let (bytes, chamfer, jitter, floor) = run(preset, mode);
            facts.fact(format!("payload/{name}/{preset:?}"), bytes, "bytes");
            facts.fact(format!("chamfer/{name}/{preset:?}"), chamfer, "mm");
            facts.fact(format!("jitter/{name}/{preset:?}"), jitter, "mm");
            facts.fact(format!("jitter_floor/{name}/{preset:?}"), floor, "mm");
            assert!(floor * 10.0 < jitter, "{name} {preset:?}: jitter {jitter} mm within 10x its floor {floor} mm");
            if mode == Parametric {
                parametric_quality.push(chamfer);
            }
            // Both means run over the densities both modes share.
            if preset != Sparse25 {
                jitters.push(jitter);
            }
        }
        let mean = jitters.iter().sum::<f64>() / jitters.len() as f64;
        facts.fact(format!("jitter_mean/{name}"), mean, "mm");
    }
    // Paper-shape claims:
    // (1) extraction compute grows with keypoint count.
    let g25 = KeypointDetector::gflops_per_frame(25);
    let g244 = KeypointDetector::gflops_per_frame(244);
    assert!(g244 > g25, "compute must grow with keypoints");
    // (2) the parametric model caps the benefit of extra keypoints: going
    // from 100 to 244 landmarks barely moves quality.
    let (q100, q244) = (parametric_quality[2], parametric_quality[4]);
    facts.fact("parametric_cap_change", ((q100 - q244) / q100 * 100.0).abs(), "%");
    facts.render()
}
