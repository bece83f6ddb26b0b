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
#[inline]
pub fn bucket_slot(value: u32) -> (u32, u32) {
    if value < 4 {
        return (value, 0);
    }
    let top = 31 - value.leading_zeros();
    ((top << 1) | ((value >> (top - 1)) & 1), top - 1)
}

/// Inverse of [`bucket_slot`]: the first value of `slot`'s bucket and
/// the bit width of the mantissa to add to it.
#[inline]
pub fn bucket_base(slot: u32) -> (u32, u32) {
    if slot < 4 {
        return (slot, 0);
    }
    let bits = (slot >> 1) - 1;
    ((2 | (slot & 1)) << bits, bits)
}

/// Quantize a float to a signed grid with the given step.
#[inline]
pub fn quantize(v: f32, step: f32) -> i32 {
    (v / step).round() as i32
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
