//! **Figure 2** — visual quality of keypoint reconstruction vs. output
//! resolution.
//!
//! Paper: meshes reconstructed from keypoints at resolutions 128, 256,
//! 512, 1024 gain detail with resolution ("at the resolution of 1024,
//! the generated mesh is capable of revealing intricate details such as
//! hand joints and facial contours") but "still cannot recover the
//! details of the clothes, such as folds" — and 512 is visually equal to
//! 1024. Matching the paper's setup (keypoints come from the dataset's
//! ground-truth poses, so reconstruction error is purely the model's),
//! we reconstruct from the true pose and measure:
//!
//! - **surface discretization error** (mean |SDF| of mesh vertices against
//!   the exact implicit surface), overall and in the detail-critical
//!   hand and face regions — the "detail rises with resolution" series;
//! - **chamfer against the clothed ground truth**, per resolution and for
//!   a bare resolution-256 reference at sampling seed 9, beside
//!   its **sampling floor**: the chamfer of the clothed ground truth
//!   against itself at the same 4 000 samples and seed. Two independent
//!   samplings of one surface sit ≈ ½·√(area/n) apart, so the floor is
//!   what the metric reads for a perfect reconstruction. Every
//!   resolution sits a few tenths of a millimetre above it: the series is
//!   flat because the metric cannot resolve more at this sample count,
//!   not because it measures the folds.
//!
//! Extraction at resolution 128 is timed by the repository benchmark's
//! `keypoint_recon` workload.

use crate::{bench_scene, Facts};
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_body::{Joint, Skeleton};
use holo_math::Vec3;
use holo_mesh::sdf::Sdf;
use holo_mesh::sparse::sparse_extract;
use semholo::semantics::mesh_quality;

/// `BENCH_fig2_quality.json`.
pub fn facts() -> String {
    let scene = bench_scene(1.0);
    let frame = scene.frame(5);
    let sk = Skeleton::neutral();
    // The exact implicit surface the reconstruction targets (no cloth:
    // keypoints cannot carry it).
    let bare_sdf = BodySdf::from_pose(&sk, &frame.params, SurfaceDetail::bare());
    // The clothed ground truth the viewer compares against.
    let gt_clothed = frame.ground_truth_mesh(256);
    let posed = sk.forward_kinematics(&frame.params);
    let wrists = [posed.position(Joint::LeftWrist), posed.position(Joint::RightWrist)];
    let head = posed.position(Joint::Head);

    let region_error = |mesh: &holo_mesh::TriMesh, centers: &[Vec3], radius: f32| -> (f64, usize) {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for v in &mesh.vertices {
            if centers.iter().any(|c| v.distance(*c) < radius) {
                sum += bare_sdf.distance(*v).abs() as f64;
                n += 1;
            }
        }
        (if n > 0 { sum / n as f64 } else { f64::NAN }, n)
    };

    let mut facts = Facts::new("fig2_quality", "fig2");
    let sampling_floor = mesh_quality(&gt_clothed, &gt_clothed, 7).chamfer.unwrap() * 1000.0;
    facts.fact("chamfer_clothed/sampling_floor", sampling_floor, "mm");
    let mut hand_errors = Vec::new();
    let mut clothed_chamfers = Vec::new();
    for res in [128u32, 256, 512, 1024] {
        let mesh = sparse_extract(&bare_sdf, res, 0.03);
        // Discretization error: exact distance from every vertex to the
        // true implicit surface.
        let overall: f64 = mesh
            .vertices
            .iter()
            .map(|v| bare_sdf.distance(*v).abs() as f64)
            .sum::<f64>()
            / mesh.vertex_count().max(1) as f64;
        let (hand_err, hand_verts) = region_error(&mesh, &wrists, 0.14);
        let (face_err, _) = region_error(&mesh, &[head], 0.16);
        let chamfer = mesh_quality(&gt_clothed, &mesh, 7).chamfer.unwrap() * 1000.0;
        facts.fact(format!("surface_err/res{res}"), overall * 1000.0, "mm");
        facts.fact(format!("hand_err/res{res}"), hand_err * 1000.0, "mm");
        facts.fact(format!("hand_verts/res{res}"), hand_verts, "count");
        facts.fact(format!("face_err/res{res}"), face_err * 1000.0, "mm");
        facts.fact(format!("chamfer_clothed/res{res}"), chamfer, "mm");
        hand_errors.push(hand_err);
        clothed_chamfers.push(chamfer);
    }
    let bare_ref = sparse_extract(&bare_sdf, 256, 0.03);
    let bare_ref = mesh_quality(&gt_clothed, &bare_ref, 9).chamfer.unwrap() * 1000.0;
    facts.fact("chamfer_clothed/bare_reference", bare_ref, "mm");
    clothed_chamfers.push(bare_ref);

    // Paper-shape assertions.
    assert!(
        hand_errors[2] < hand_errors[0] * 0.5,
        "hand detail must sharpen with resolution: {hand_errors:?}"
    );
    assert!(
        hand_errors[3] <= hand_errors[2] * 1.5,
        "1024 should not be worse than 512 (paper: visually equal)"
    );
    for &cc in &clothed_chamfers {
        assert!(
            sampling_floor < cc && cc < sampling_floor * 1.05,
            "clothed chamfer {cc} mm should sit just above the sampling floor {sampling_floor} mm"
        );
    }
    facts.render()
}
