//! 3D math foundation for the SemHolo reproduction.
//!
//! Every geometric computation in the workspace — avatar skinning, signed
//! distance fields, marching cubes, camera models, volume rendering — is
//! built on the primitives in this crate. The crate is dependency-light by
//! design: plain `f32` math, so results are bit-identical across
//! platforms, which the deterministic benchmarks rely on. The one SIMD
//! type, [`F32x4`], is held to the same rule: each lane is the scalar op.
//!
//! # Modules
//!
//! - [`vec`] — [`Vec2`], [`Vec3`], [`Vec4`] with the usual linear-algebra
//!   operations.
//! - [`quat`] — unit quaternions for joint rotations ([`Quat`]).
//! - [`mat`] — [`Mat3`] and [`Mat4`] column-major matrices.
//! - [`aabb`] — axis-aligned bounding boxes.
//! - [`lanes`] — [`F32x4`], four `f32` lanes that compute the scalar
//!   ops' bits, for evaluating a field at four points at once.
//! - [`ray`] — rays and primitive intersections.
//! - [`rng`] — [`Pcg32`], a small deterministic PCG random generator used
//!   by every stochastic component so experiments replay from a seed.
//! - [`stats`] — streaming summary statistics used by the benchmark
//!   harness and QoE model.

pub mod aabb;
pub mod lanes;
pub mod mat;
pub mod quat;
pub mod ray;
pub mod rng;
pub mod stats;
pub mod vec;

pub use aabb::Aabb;
pub use lanes::F32x4;
pub use mat::{Mat3, Mat4};
pub use quat::Quat;
pub use ray::Ray;
pub use rng::Pcg32;
pub use stats::Summary;
pub use vec::{Vec2, Vec3, Vec4};

/// Linear interpolation between `a` and `b` by parameter `t` in `[0, 1]`.
#[inline]
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

/// Clamp `x` into the inclusive range `[lo, hi]`.
#[inline]
pub fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    x.max(lo).min(hi)
}

/// Smoothstep interpolation: 0 below `e0`, 1 above `e1`, smooth in between.
#[inline]
pub fn smoothstep(e0: f32, e1: f32, x: f32) -> f32 {
    let t = clamp((x - e0) / (e1 - e0), 0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// Approximate equality for floats with an absolute tolerance.
#[inline]
pub fn approx_eq(a: f32, b: f32, eps: f32) -> bool {
    (a - b).abs() <= eps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 10.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 10.0, 1.0), 10.0);
        assert_eq!(lerp(2.0, 10.0, 0.5), 6.0);
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(-1.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(2.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(0.25, 0.0, 1.0), 0.25);
    }

    #[test]
    fn smoothstep_monotone() {
        let mut prev = -1.0;
        for i in 0..=100 {
            let x = i as f32 / 100.0;
            let y = smoothstep(0.0, 1.0, x);
            assert!(y >= prev);
            prev = y;
        }
        assert_eq!(smoothstep(0.0, 1.0, -5.0), 0.0);
        assert_eq!(smoothstep(0.0, 1.0, 5.0), 1.0);
    }
}
