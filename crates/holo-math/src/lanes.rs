//! [`F32x4`]: four `f32` lanes, for evaluating one field at four points.
//!
//! Every operation is the scalar `f32` operation applied lane by lane —
//! IEEE-754's correctly rounded add, sub, mul, div and sqrt, its ordered
//! compares, and `f32`'s `min`, `max`, `abs` and `signum` — so a lane
//! computes exactly the bits the scalar expression computes, provided the
//! expression is written with the same ops in the same order. There is
//! no fused multiply-add and nothing reassociates.
//!
//! On `x86_64` each operation is one SSE2 instruction, or a compare and a
//! select where `f32`'s NaN and signed-zero rules ask for it; SSE2 is
//! part of that architecture's baseline, so no runtime detection or
//! target feature is involved. Elsewhere it is a loop over `[f32; 4]`.
//! The tests hold every operation to its scalar counterpart, bit for bit,
//! on random values, signed zeros, subnormals, infinities and NaNs.

use std::ops::{Add, BitAnd, Div, Mul, Sub};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// An SSE or SSE2 intrinsic that takes no pointer.
#[cfg(target_arch = "x86_64")]
macro_rules! sse {
    ($e:expr) => {
        // SAFETY: these intrinsics require only the `sse` and `sse2`
        // target features, which every `x86_64` target enables; they
        // read and write nothing but their operands.
        unsafe { $e }
    };
}

/// Four `f32` lanes. A *mask* is an `F32x4` whose lanes are all-ones or
/// all-zero bit patterns, as [`F32x4::lt`] and [`F32x4::gt`] return and
/// [`F32x4::select`] consumes.
#[derive(Clone, Copy, Debug)]
pub struct F32x4(
    #[cfg(target_arch = "x86_64")] __m128,
    #[cfg(not(target_arch = "x86_64"))] [f32; 4],
);

impl F32x4 {
    /// Number of lanes.
    pub const LANES: usize = 4;

    /// `v` in every lane.
    #[inline]
    pub fn splat(v: f32) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_set1_ps(v)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self([v; 4])
        }
    }

    /// Lane `i` holds `a[i]`.
    #[inline]
    pub fn from_array(a: [f32; 4]) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `_mm_loadu_ps` reads four `f32`s through a pointer
            // with no alignment requirement, and `a` is four `f32`s.
            Self(unsafe { _mm_loadu_ps(a.as_ptr()) })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(a)
        }
    }

    /// The lanes, in order.
    #[inline]
    pub fn to_array(self) -> [f32; 4] {
        #[cfg(target_arch = "x86_64")]
        {
            let mut a = [0.0f32; 4];
            // SAFETY: `_mm_storeu_ps` writes four `f32`s through a pointer
            // with no alignment requirement, and `a` has room for four.
            unsafe { _mm_storeu_ps(a.as_mut_ptr(), self.0) };
            a
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.0
        }
    }

    /// `f32::sqrt` per lane.
    #[inline]
    pub fn sqrt(self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_sqrt_ps(self.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(self.0.map(f32::sqrt))
        }
    }

    /// `f32::signum` per lane: `1.0` with the sign of the lane, and NaN
    /// (`f32::NAN`'s bits) where the lane is NaN.
    #[inline]
    pub fn signum(self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let one = sse!(_mm_or_ps(_mm_and_ps(self.0, _mm_set1_ps(-0.0)), _mm_set1_ps(1.0)));
            Self::select(self.is_nan(), Self::splat(f32::NAN), Self(one))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(self.0.map(f32::signum))
        }
    }

    /// The mask of lanes where `self < o`; false where either is NaN.
    #[inline]
    pub fn lt(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_cmplt_ps(self.0, o.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::mask(std::array::from_fn(|i| self.0[i] < o.0[i]))
        }
    }

    /// The mask of lanes where `self > o`; false where either is NaN.
    #[inline]
    pub fn gt(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_cmpgt_ps(self.0, o.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::mask(std::array::from_fn(|i| self.0[i] > o.0[i]))
        }
    }

    /// `f32::abs` per lane: the sign bit cleared.
    #[inline]
    pub fn abs(self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_andnot_ps(_mm_set1_ps(-0.0), self.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(self.0.map(f32::abs))
        }
    }

    /// `f32::min` per lane: `o` where `self` is NaN, else `o` where it is
    /// below `self`, else `self` (so `+0.0.min(-0.0)` is `+0.0`, as the
    /// scalar op computes it on `x86_64`).
    #[inline]
    pub fn min(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self::select(self.is_nan(), o, Self::select(o.lt(self), o, self))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(std::array::from_fn(|i| self.0[i].min(o.0[i])))
        }
    }

    /// `f32::max` per lane, the mirror of [`Self::min`].
    #[inline]
    pub fn max(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self::select(self.is_nan(), o, Self::select(o.gt(self), o, self))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(std::array::from_fn(|i| self.0[i].max(o.0[i])))
        }
    }

    /// The mask of NaN lanes.
    #[inline]
    pub fn is_nan(self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_cmpunord_ps(self.0, self.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::mask(self.0.map(f32::is_nan))
        }
    }

    /// The mask of lanes where `self <= o`; false where either is NaN.
    #[inline]
    pub fn le(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_cmple_ps(self.0, o.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::mask(std::array::from_fn(|i| self.0[i] <= o.0[i]))
        }
    }

    /// The mask of lanes where `self >= o`; false where either is NaN.
    #[inline]
    pub fn ge(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_cmpge_ps(self.0, o.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::mask(std::array::from_fn(|i| self.0[i] >= o.0[i]))
        }
    }

    /// The mask whose lane `i` is set where bit `i` of `bits` is: the
    /// inverse of [`Self::bitmask`] on a mask.
    #[inline]
    pub fn from_bitmask(bits: u32) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let lane_bits = sse!(_mm_set_epi32(8, 4, 2, 1));
            Self(sse!(_mm_castsi128_ps(_mm_cmpeq_epi32(_mm_and_si128(_mm_set1_epi32(bits as i32), lane_bits), lane_bits))))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self::mask(std::array::from_fn(|i| bits >> i & 1 == 1))
        }
    }

    /// Bit `i` is the sign bit of lane `i`: for a mask, which lanes are set.
    #[inline]
    pub fn bitmask(self) -> u32 {
        #[cfg(target_arch = "x86_64")]
        {
            sse!(_mm_movemask_ps(self.0)) as u32
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            (0..4).fold(0, |bits, i| bits | (self.0[i].to_bits() >> 31) << i)
        }
    }

    /// Per lane, the bits of `if_true` where `mask` is set and of
    /// `if_false` where it is clear.
    #[inline]
    pub fn select(mask: Self, if_true: Self, if_false: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_or_ps(_mm_and_ps(mask.0, if_true.0), _mm_andnot_ps(mask.0, if_false.0))))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(std::array::from_fn(|i| {
                let m = mask.0[i].to_bits();
                f32::from_bits((m & if_true.0[i].to_bits()) | (!m & if_false.0[i].to_bits()))
            }))
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn mask(set: [bool; 4]) -> Self {
        Self(set.map(|s| f32::from_bits(if s { u32::MAX } else { 0 })))
    }
}

/// Lane-wise bitwise and: of two masks, the lanes set in both.
impl BitAnd for F32x4 {
    type Output = Self;

    #[inline]
    fn bitand(self, o: Self) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            Self(sse!(_mm_and_ps(self.0, o.0)))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Self(std::array::from_fn(|i| f32::from_bits(self.0[i].to_bits() & o.0[i].to_bits())))
        }
    }
}

macro_rules! lanewise {
    ($trait:ident, $method:ident, $intrinsic:ident, $op:tt) => {
        impl $trait for F32x4 {
            type Output = Self;

            #[inline]
            fn $method(self, o: Self) -> Self {
                #[cfg(target_arch = "x86_64")]
                {
                    Self(sse!($intrinsic(self.0, o.0)))
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    Self(std::array::from_fn(|i| self.0[i] $op o.0[i]))
                }
            }
        }
    };
}

lanewise!(Add, add, _mm_add_ps, +);
lanewise!(Sub, sub, _mm_sub_ps, -);
lanewise!(Mul, mul, _mm_mul_ps, *);
lanewise!(Div, div, _mm_div_ps, /);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pcg32;
    use std::hint::black_box;

    /// Random finite values of every magnitude, and the special ones.
    fn operands() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
        ];
        let mut rng = Pcg32::new(0xF32_0004);
        for _ in 0..400 {
            v.push(match rng.next_u32() % 3 {
                0 => rng.range_f32(-2.0, 2.0),
                1 => f32::from_bits(rng.next_u32()),
                _ => rng.range_f32(-1.0, 1.0) * 1e-39,
            });
        }
        v
    }

    /// Each lane of the four-lane result against the scalar op, to the bit.
    fn check(op: &str, lanes: impl Fn(F32x4, F32x4) -> F32x4, scalar: impl Fn(f32, f32) -> u32) {
        let v = operands();
        for (i, &a) in v.iter().enumerate() {
            for start in (0..v.len()).step_by(4 + i % 5) {
                let b: [f32; 4] = std::array::from_fn(|k| v[(start + k) % v.len()]);
                let got = lanes(black_box(F32x4::splat(a)), black_box(F32x4::from_array(b))).to_array();
                for k in 0..4 {
                    let want = scalar(black_box(a), black_box(b[k]));
                    assert_eq!(got[k].to_bits(), want, "{op}({a:e} [{:#x}], {:e} [{:#x}])", a.to_bits(), b[k], b[k].to_bits());
                }
            }
        }
    }

    fn mask_bits(set: bool) -> u32 {
        if set { u32::MAX } else { 0 }
    }

    #[test]
    fn arithmetic_is_the_scalar_ops() {
        check("add", |a, b| a + b, |a, b| (a + b).to_bits());
        check("sub", |a, b| a - b, |a, b| (a - b).to_bits());
        check("mul", |a, b| a * b, |a, b| (a * b).to_bits());
        check("div", |a, b| a / b, |a, b| (a / b).to_bits());
        check("div rev", |a, b| b / a, |a, b| (b / a).to_bits());
    }

    #[test]
    fn min_max_and_abs_are_the_scalar_ops() {
        check("min", |a, b| a.min(b), |a, b| a.min(b).to_bits());
        check("min rev", |a, b| b.min(a), |a, b| b.min(a).to_bits());
        check("max", |a, b| a.max(b), |a, b| a.max(b).to_bits());
        check("max rev", |a, b| b.max(a), |a, b| b.max(a).to_bits());
        check("abs", |_, b| b.abs(), |_, b| b.abs().to_bits());
    }

    #[test]
    fn sqrt_and_signum_are_the_scalar_ops() {
        check("sqrt", |_, b| b.sqrt(), |_, b| b.sqrt().to_bits());
        check("signum", |_, b| b.signum(), |_, b| b.signum().to_bits());
    }

    #[test]
    fn compares_are_ordered_and_false_on_nan() {
        check("lt", |a, b| a.lt(b), |a, b| mask_bits(a < b));
        check("gt", |a, b| a.gt(b), |a, b| mask_bits(a > b));
        check("le", |a, b| a.le(b), |a, b| mask_bits(a <= b));
        check("ge", |a, b| a.ge(b), |a, b| mask_bits(a >= b));
        check("is_nan", |_, b| b.is_nan(), |_, b| mask_bits(b.is_nan()));
        check("and", |a, b| a.lt(b) & b.le(a), |a, b| mask_bits(a < b && b <= a));
        check("and", |a, b| a.le(b) & b.le(a), |a, b| mask_bits(a <= b && b <= a));
    }

    #[test]
    fn bitmask_reads_each_lanes_sign_bit() {
        let v = operands();
        for lanes in v.chunks_exact(4) {
            let a: [f32; 4] = lanes.try_into().unwrap();
            let want = (0..4).fold(0, |bits, i| bits | (a[i].is_sign_negative() as u32) << i);
            assert_eq!(F32x4::from_array(a).bitmask(), want, "{a:?}");
        }
        for set in 0..16u32 {
            let mask = F32x4::from_bitmask(set | 0xffff_fff0).to_array().map(f32::to_bits);
            assert_eq!(mask, std::array::from_fn(|i| mask_bits(set >> i & 1 == 1)), "{set:#b}");
            assert_eq!(F32x4::from_bitmask(set).bitmask(), set);
        }
    }

    #[test]
    fn select_takes_each_lanes_bits_from_one_side() {
        check("select lt", |a, b| F32x4::select(a.lt(b), a, b), |a, b| if a < b { a } else { b }.to_bits());
        check("select gt", |a, b| F32x4::select(a.gt(b), b, a), |a, b| if a > b { b } else { a }.to_bits());
    }

    #[test]
    fn splat_and_arrays_round_trip_every_bit_pattern() {
        let v = operands();
        for lanes in v.chunks_exact(4) {
            let a: [f32; 4] = lanes.try_into().unwrap();
            assert_eq!(F32x4::from_array(a).to_array().map(f32::to_bits), a.map(f32::to_bits));
            assert_eq!(F32x4::splat(a[0]).to_array().map(f32::to_bits), [a[0].to_bits(); 4]);
        }
    }
}
