//! Byte-level transform primitives: zigzag, varint, quantize, buckets.
//!
//! These are the pre-transforms both codecs and several wire formats use:
//! quantize a residual to a step grid, zigzag-map it to unsigned,
//! varint-pack it or split it into a bucket slot and mantissa bits.

/// Map a signed integer to unsigned with small magnitudes first
/// (0, -1, 1, -2, 2, ...).
#[inline]
pub fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Append `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; returns `(value, bytes_consumed)` or `None` on a
/// truncated or overlong input.
pub fn read_varint(data: &[u8]) -> Option<(u32, usize)> {
    let mut v = 0u64;
    for (i, &byte) in data.iter().enumerate().take(5) {
        v |= ((byte & 0x7F) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            if v > u32::MAX as u64 {
                return None;
            }
            return Some((v as u32, i + 1));
        }
    }
    None
}

/// Split `value` into its bucket slot (< 64) and the bit width of the raw
/// mantissa under it — LZMA's distance slots: values below 4 are their own
/// slot; above, a slot names the top bit's position and the bit under it.
/// Branch-free: `value | 1` puts 0 and 1 on the top bit 0, and a width
/// of 0 makes 2 and 3 their own slot too.
#[inline]
pub fn bucket_slot(value: u32) -> (u32, u32) {
    let top = 31 - (value | 1).leading_zeros();
    let bits = top.saturating_sub(1);
    ((top << 1) | ((value >> bits) & 1), bits)
}

/// `bucket_base` for every slot, built from its definition.
const BUCKET_BASES: [(u32, u32); 64] = {
    let mut table = [(0, 0); 64];
    let mut slot = 0;
    while slot < 64 {
        table[slot] = if slot < 4 {
            (slot as u32, 0)
        } else {
            let bits = (slot as u32 >> 1) - 1;
            ((2 | (slot as u32 & 1)) << bits, bits)
        };
        slot += 1;
    }
    table
};

/// Inverse of [`bucket_slot`]: the first value of `slot`'s bucket and
/// the bit width of the mantissa to add to it, one table read. `slot`
/// must be below 64.
#[inline]
pub fn bucket_base(slot: u32) -> (u32, u32) {
    BUCKET_BASES[slot as usize]
}

/// `x.round() as i32` — half away from zero, saturating, NaN to 0 —
/// without the libm call: a truncating cast, then a step away from zero
/// when the remainder is at least a half. The remainder is exact: below
/// 2^23 in magnitude `x` and its truncation share an exponent grid, and
/// above it `x` is an integer. The step saturates where the cast did.
#[inline]
pub fn round_to_i32(x: f32) -> i32 {
    let t = x as i32;
    let rest = x - t as f32;
    t.saturating_add((rest >= 0.5) as i32 - (rest <= -0.5) as i32)
}

/// Quantize a float to a signed grid with the given step.
#[inline]
pub fn quantize(v: f32, step: f32) -> i32 {
    round_to_i32(v / step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;

    #[test]
    fn zigzag_roundtrip_and_ordering() {
        for v in [-1000, -2, -1, 0, 1, 2, 1000, i32::MIN, i32::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn varint_roundtrip() {
        let mut rng = Pcg32::new(1);
        let mut buf = Vec::new();
        let values: Vec<u32> = (0..1000)
            .map(|_| rng.next_u32() >> rng.range_u32(32))
            .chain([0, 1, 127, 128, 16383, 16384, u32::MAX])
            .collect();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            let (got, used) = read_varint(&buf[pos..]).unwrap();
            assert_eq!(got, v);
            pos += used;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u32::MAX);
        assert!(read_varint(&buf[..buf.len() - 1]).is_none());
        assert!(read_varint(&[]).is_none());
    }

    #[test]
    fn bucket_slots_match_their_definition() {
        // The branchy original, slot and width.
        let reference = |value: u32| {
            if value < 4 {
                return (value, 0);
            }
            let top = 31 - value.leading_zeros();
            ((top << 1) | ((value >> (top - 1)) & 1), top - 1)
        };
        let mut rng = Pcg32::new(7);
        let edges = (0..32).flat_map(|k| [(1u32 << k) - 1, 1 << k, (1u32 << k) + 1, (3u32 << k) >> 1]);
        for value in edges.chain((0..10_000).map(|_| rng.next_u32() >> rng.range_u32(32))).chain([u32::MAX]) {
            let (slot, bits) = bucket_slot(value);
            assert_eq!((slot, bits), reference(value), "value {value}");
            let (base, width) = bucket_base(slot);
            assert_eq!(width, bits, "value {value}");
            assert!(base <= value && (value - base) >> bits == 0, "value {value} outside slot {slot}");
        }
    }

    #[test]
    fn round_to_i32_is_round_then_cast() {
        let ulp = |x: f32, k: i32| f32::from_bits((x.to_bits() as i32 + k) as u32);
        let mut edges = vec![0.0, -0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, f32::MAX, f32::MIN];
        for x in [0.5f32, 1.5, 2.5, 1_000_000.5, 4_194_303.5, 8_388_607.5, 8_388_608.0, 2_147_483_648.0, 4_294_967_296.0] {
            for k in -2..=2 {
                edges.extend([ulp(x, k), -ulp(x, k)]);
            }
        }
        for n in -70..70 {
            edges.extend([n as f32 + 0.5, n as f32 - 0.5, n as f32]);
        }
        edges.extend([i32::MAX as f32, i32::MIN as f32, ulp(i32::MIN as f32, 1), ulp(-2_147_483_648.0, -1)]);
        let mut rng = Pcg32::new(11);
        let bits = (0..1_000_000).map(|_| f32::from_bits(rng.next_u32())).collect::<Vec<_>>();
        let halves = (0..100_000).map(|_| (rng.next_u32() as i32 >> rng.range_u32(32)) as f32 + 0.5).collect::<Vec<_>>();
        let random = bits.into_iter().chain(halves);
        for x in edges.into_iter().chain(random) {
            assert_eq!(round_to_i32(x), x.round() as i32, "{x:e} ({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn quantize_error_bounded() {
        let mut rng = Pcg32::new(3);
        let step = 0.01f32;
        for _ in 0..1000 {
            let v = rng.range_f32(-100.0, 100.0);
            let back = quantize(v, step) as f32 * step;
            assert!((v - back).abs() <= step * 0.5 + 1e-4);
        }
    }
}
