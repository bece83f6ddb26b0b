//! Facial expression basis.
//!
//! Fig. 3 of the paper observes that X-Avatar's *learned* appearance model
//! reproduces coarse expressions (an open mouth) but misses fine ones (the
//! pout). We model the expression space explicitly to make that loss
//! measurable: ten components, each a localized surface bump on the face,
//! split into **coarse** components (large spatial support, low frequency)
//! and **fine** components (small support, high frequency). The "learned"
//! model is a low-pass reconstruction that keeps only the coarse
//! components — exactly the failure mode the paper reports.

use crate::params::EXPRESSION_DIM;
use holo_math::{Quat, Vec3};

/// One expression blendshape: a smooth radial bump applied to the face
/// surface, positioned relative to the head joint frame.
#[derive(Debug, Clone)]
pub struct ExpressionComponent {
    /// Human-readable name ("jaw_open", "pout", ...).
    pub name: &'static str,
    /// Coarse components survive the learned model; fine ones do not.
    pub coarse: bool,
    /// Bump center in the head joint's local frame (meters).
    pub local_center: Vec3,
    /// Spatial support radius (meters). Coarse = wide, fine = narrow.
    pub radius: f32,
    /// Outward surface displacement per unit coefficient (meters).
    pub amplitude: f32,
}

/// The full expression basis.
#[derive(Debug, Clone)]
pub struct ExpressionBasis {
    /// Exactly [`EXPRESSION_DIM`] components.
    pub components: Vec<ExpressionComponent>,
}

impl ExpressionBasis {
    /// The standard 10-component basis: 3 coarse + 7 fine.
    pub fn standard() -> Self {
        let c = |name, coarse, center: (f32, f32, f32), radius, amplitude| ExpressionComponent {
            name,
            coarse,
            local_center: Vec3::new(center.0, center.1, center.2),
            radius,
            amplitude,
        };
        Self {
            components: vec![
                // Coarse: big, low-frequency facial motions.
                c("jaw_open", true, (0.0, -0.045, 0.075), 0.040, 0.015),
                c("mouth_wide", true, (0.0, -0.035, 0.080), 0.045, 0.010),
                c("brow_raise", true, (0.0, 0.055, 0.080), 0.045, 0.008),
                // Fine: small, high-frequency details.
                c("pout", false, (0.0, -0.038, 0.092), 0.014, 0.008),
                c("smirk_left", false, (0.024, -0.036, 0.080), 0.012, 0.006),
                c("smirk_right", false, (-0.024, -0.036, 0.080), 0.012, 0.006),
                c("nose_wrinkle", false, (0.0, 0.005, 0.090), 0.012, 0.004),
                c("squint_left", false, (0.030, 0.033, 0.078), 0.012, 0.005),
                c("squint_right", false, (-0.030, 0.033, 0.078), 0.012, 0.005),
                c("dimple", false, (0.034, -0.042, 0.070), 0.010, 0.005),
            ],
        }
    }

    /// World-space bumps `(center, radius, displacement)` for a coefficient
    /// vector, given the head joint's world position and orientation.
    pub fn bumps(
        &self,
        coefficients: &[f32; EXPRESSION_DIM],
        head_position: Vec3,
        head_rotation: Quat,
    ) -> Vec<(Vec3, f32, f32)> {
        self.components
            .iter()
            .zip(coefficients)
            .filter(|(_, &w)| w.abs() > 1e-4)
            .map(|(comp, &w)| {
                let center = head_position + head_rotation.rotate(comp.local_center);
                (center, comp.radius, comp.amplitude * w)
            })
            .collect()
    }

    /// Simulate the learned appearance model of Fig. 3: coarse components
    /// pass through, fine components are lost (zeroed).
    pub fn learned_reconstruction(&self, coefficients: &[f32; EXPRESSION_DIM]) -> [f32; EXPRESSION_DIM] {
        let mut out = [0.0; EXPRESSION_DIM];
        for (i, comp) in self.components.iter().enumerate() {
            if comp.coarse {
                out[i] = coefficients[i];
            }
        }
        out
    }

    /// Surface-displacement error between two coefficient vectors:
    /// the RMS of per-component displacement differences weighted by the
    /// spatial support area of each bump. This approximates the visual
    /// error a viewer perceives on the face.
    pub fn displacement_error(&self, a: &[f32; EXPRESSION_DIM], b: &[f32; EXPRESSION_DIM]) -> f32 {
        let mut sum = 0.0;
        let mut weight = 0.0;
        for (i, comp) in self.components.iter().enumerate() {
            let area = comp.radius * comp.radius;
            let d = (a[i] - b[i]) * comp.amplitude;
            sum += d * d * area;
            weight += area;
        }
        (sum / weight.max(1e-12)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_has_expression_dim_components() {
        let b = ExpressionBasis::standard();
        assert_eq!(b.components.len(), EXPRESSION_DIM);
        assert_eq!(b.components.iter().filter(|c| c.coarse).count(), 3);
    }

    #[test]
    fn learned_model_keeps_coarse_loses_fine() {
        let b = ExpressionBasis::standard();
        // Open mouth (coarse) + pout (fine), the exact Fig. 3 scenario.
        let mut coeffs = [0.0; EXPRESSION_DIM];
        coeffs[0] = 1.0; // jaw_open
        coeffs[3] = 1.0; // pout
        let learned = b.learned_reconstruction(&coeffs);
        assert_eq!(learned[0], 1.0, "open mouth must survive");
        assert_eq!(learned[3], 0.0, "pout must be lost");
        let error = |name| {
            let i = b.components.iter().position(|c| c.name == name).unwrap();
            (coeffs[i] - learned[i]).abs() * b.components[i].amplitude
        };
        let (pout_err, jaw_err) = (error("pout"), error("jaw_open"));
        assert!(pout_err > 0.0);
        assert_eq!(jaw_err, 0.0);
    }

    #[test]
    fn displacement_error_zero_for_identical() {
        let b = ExpressionBasis::standard();
        let coeffs = [0.5; EXPRESSION_DIM];
        assert_eq!(b.displacement_error(&coeffs, &coeffs), 0.0);
        let zero = [0.0; EXPRESSION_DIM];
        assert!(b.displacement_error(&coeffs, &zero) > 0.0);
    }

    #[test]
    fn bumps_follow_head_frame() {
        let b = ExpressionBasis::standard();
        let mut coeffs = [0.0; EXPRESSION_DIM];
        coeffs[0] = 1.0;
        let head = Vec3::new(0.0, 1.6, 0.0);
        let bumps = b.bumps(&coeffs, head, Quat::IDENTITY);
        assert_eq!(bumps.len(), 1);
        // Jaw bump sits in front of and below the head joint.
        assert!(bumps[0].0.z > head.z);
        assert!(bumps[0].0.y < head.y);
        // Rotating the head 180 degrees about y flips the bump behind.
        let turned = b.bumps(&coeffs, head, Quat::from_axis_angle(Vec3::Y, std::f32::consts::PI));
        assert!(turned[0].0.z < head.z);
    }

    #[test]
    fn zero_coefficients_produce_no_bumps() {
        let b = ExpressionBasis::standard();
        assert!(b.bumps(&[0.0; EXPRESSION_DIM], Vec3::ZERO, Quat::IDENTITY).is_empty());
    }

    #[test]
    fn fine_components_have_smaller_support() {
        let b = ExpressionBasis::standard();
        let max_fine = b.components.iter().filter(|c| !c.coarse).map(|c| c.radius).fold(0.0f32, f32::max);
        let min_coarse = b.components.iter().filter(|c| c.coarse).map(|c| c.radius).fold(f32::INFINITY, f32::min);
        assert!(max_fine < min_coarse, "fine bumps must be spatially smaller than coarse ones");
    }
}
