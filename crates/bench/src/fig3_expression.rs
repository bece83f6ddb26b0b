//! **Figure 3** — learned appearance model vs. raw capture on facial
//! expressions.
//!
//! Paper: "the mesh learned by X-Avatar fails to accurately mirror
//! detailed expressions... the person displays an open mouth with a
//! pout. However, the learned mesh only reflects the open-mouth action,
//! missing out on capturing the pouting expression." We reproduce this as
//! a quantitative experiment: drive the expression space with the exact
//! scenario (open mouth + pout), reconstruct it through the learned
//! (low-pass) model, and measure per-component and geometric error.
//! Two controls are asserted: away from the face the two surfaces are
//! identical, and a coarse-only expression reconstructs with error 0.
//!
//! Extraction at resolution 128 is timed by the repository benchmark's
//! `keypoint_recon` workload.

use crate::{bench_scene, Facts};
use holo_body::expression::ExpressionBasis;
use holo_body::params::EXPRESSION_DIM;
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_body::Skeleton;
use holo_mesh::sdf::Sdf;
use holo_mesh::sparse::sparse_extract;

/// `BENCH_fig3_expression.json`.
pub fn facts() -> String {
    let mut facts = Facts::new("fig3_expression", "fig3");
    let basis = ExpressionBasis::standard();
    // The exact Fig. 3 scenario: open mouth + pout.
    let mut truth = [0.0f32; EXPRESSION_DIM];
    truth[0] = 1.0; // jaw_open (coarse)
    truth[3] = 1.0; // pout (fine)
    let learned = basis.learned_reconstruction(&truth);

    for (i, comp) in basis.components.iter().enumerate() {
        if truth[i] != 0.0 || learned[i] != 0.0 {
            facts.fact(format!("class/{}", comp.name), if comp.coarse { "coarse" } else { "fine" }, "label");
            facts.fact(format!("coeff_true/{}", comp.name), truth[i], "coeff");
            facts.fact(format!("coeff_learned/{}", comp.name), learned[i], "coeff");
        }
    }
    assert_eq!(learned[0], 1.0, "open mouth must survive the learned model");
    assert_eq!(learned[3], 0.0, "pout must be lost by the learned model");
    facts.fact("displacement_rms", basis.displacement_error(&truth, &learned) * 1000.0, "mm");

    // Geometric version: probe the *mouth region* specifically — the pout
    // is spatially tiny, so a whole-face average washes it out exactly
    // the way a casual glance does; the paper's observation is about
    // looking closely at the mouth.
    let scene = bench_scene(0.2);
    let frame = scene.frame(0);
    let sk = Skeleton::neutral();
    let mut params_true = frame.params.clone();
    params_true.expression = truth;
    let mut params_learned = frame.params.clone();
    params_learned.expression = learned;
    let sdf_true = BodySdf::from_pose(&sk, &params_true, SurfaceDetail::bare());
    let sdf_learned = BodySdf::from_pose(&sk, &params_learned, SurfaceDetail::bare());
    let mesh_true = sparse_extract(&sdf_true, 256, 0.03);
    // Mouth region: vertices of the true-expression surface near the pout
    // bump; their exact distance to the learned surface is the visible
    // defect. The pout bump's surface-projected center (bump order
    // follows the non-zero components: [jaw_open, pout]).
    let mouth = sdf_true.bump_centers()[1];
    let mut max_mm = 0.0f64;
    let mut sum_mm = 0.0f64;
    let mut n = 0usize;
    for v in mesh_true.vertices.iter().filter(|v| v.distance(mouth) < 0.03) {
        let d = sdf_learned.distance(*v).abs() as f64 * 1000.0;
        max_mm = max_mm.max(d);
        sum_mm += d;
        n += 1;
    }
    facts.fact("mouth_defect/vertices", n, "count");
    facts.fact("mouth_defect/mean", sum_mm / n.max(1) as f64, "mm");
    facts.fact("mouth_defect/max", max_mm, "mm");
    assert!(n > 10, "mouth region must be sampled");
    assert!(max_mm > 2.0, "learned model must visibly lose the pout (max defect {max_mm:.2} mm)");
    // Control: the same probe far from the face shows no difference.
    let knee = sk.forward_kinematics(&params_true).position(holo_body::Joint::LeftKnee);
    // Away from the face the two fields are identical, so the *difference*
    // of the probes is exactly zero (each individual probe still carries
    // the mesh's own discretization error).
    let knee_defect = mesh_true
        .vertices
        .iter()
        .filter(|v| v.distance(knee) < 0.1)
        .map(|v| (sdf_learned.distance(*v) - sdf_true.distance(*v)).abs() as f64)
        .fold(0.0, f64::max);
    assert!(knee_defect < 1e-5, "defect must be localized to the face (knee diff {knee_defect})");
    // Control: coarse-only expressions survive unharmed.
    let mut coarse_only = [0.0f32; EXPRESSION_DIM];
    coarse_only[0] = 1.0;
    let coarse_recon = basis.learned_reconstruction(&coarse_only);
    assert_eq!(basis.displacement_error(&coarse_only, &coarse_recon), 0.0);
    facts.render()
}
