//! Adaptive binary range coder.
//!
//! The classic LZMA-style arithmetic coder: probabilities are 11-bit
//! adaptive counters, the encoder keeps a 32-bit range with a 64-bit low
//! accumulator and byte-wise carry propagation, the decoder mirrors it.
//! The LZ codec (and the pose-delta and gaussian-update streams of other
//! crates) is built from three primitives: adaptive bits, bit trees,
//! and direct bits. The mesh path codes through [`crate::rans`] instead.

/// Number of probability quantization bits (LZMA uses 11).
const PROB_BITS: u32 = 11;
/// Initial probability = 0.5.
const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
/// Adaptation shift (smaller adapts faster; LZMA uses 5).
const PROB_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive probability of a bit being 0.
#[derive(Debug, Clone, Copy)]
pub struct BitModel(u16);

impl Default for BitModel {
    fn default() -> Self {
        Self(PROB_INIT)
    }
}

impl BitModel {
    /// Fresh model at probability 0.5.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn update(&mut self, bit: u8) {
        if bit == 0 {
            self.0 += (((1u32 << PROB_BITS) as u16) - self.0) >> PROB_SHIFT;
        } else {
            self.0 -= self.0 >> PROB_SHIFT;
        }
    }
}

/// A complete binary tree of bit models coding fixed-width symbols
/// MSB-first (LZMA's "bit tree").
#[derive(Debug, Clone)]
pub struct BitTree {
    bits: u32,
    models: Vec<BitModel>,
}

impl BitTree {
    /// A tree coding `bits`-wide symbols.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits));
        Self { bits, models: vec![BitModel::new(); 1 << bits] }
    }

    /// Symbol width in bits.
    pub fn width(&self) -> u32 {
        self.bits
    }
}

/// Range encoder writing to an in-memory buffer.
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// Start a new stream.
    pub fn new() -> Self {
        Self { low: 0, range: u32::MAX, cache: 0, cache_size: 1, out: Vec::new() }
    }

    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000u64 || self.low > u32::MAX as u64 {
            let carry = (self.low >> 32) as u8;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one bit with an adaptive model.
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: u8) {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        if bit == 0 {
            self.range = bound;
        } else {
            self.low += bound as u64;
            self.range -= bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode a fixed-width symbol through a bit tree, MSB first.
    pub fn encode_tree(&mut self, tree: &mut BitTree, symbol: u32) {
        debug_assert!(symbol < (1 << tree.bits));
        let mut ctx = 1usize;
        for i in (0..tree.bits).rev() {
            let bit = ((symbol >> i) & 1) as u8;
            self.encode_bit(&mut tree.models[ctx], bit);
            ctx = (ctx << 1) | bit as usize;
        }
    }

    /// Encode `bits` raw (uniform) bits, MSB first.
    pub fn encode_direct(&mut self, value: u32, bits: u32) {
        for i in (0..bits).rev() {
            self.range >>= 1;
            let bit = (value >> i) & 1;
            if bit == 1 {
                self.low += self.range as u64;
            }
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Flush and return the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Range decoder reading from a byte slice.
pub struct RangeDecoder<'a> {
    range: u32,
    code: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Open a stream produced by [`RangeEncoder::finish`].
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = Self { range: u32::MAX, code: 0, input, pos: 1 };
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Whether the decoder has read past the end of its input. Past-end
    /// reads return zero bytes (the encoder's flush guarantees a valid
    /// stream never needs them), so on *truncated or hostile* input the
    /// decoder keeps producing arbitrary symbols forever — decode loops
    /// must check this flag and bail instead of trusting their
    /// header-declared counts.
    pub fn exhausted(&self) -> bool {
        self.pos > self.input.len()
    }

    /// Decode one bit with an adaptive model.
    pub fn decode_bit(&mut self, model: &mut BitModel) -> u8 {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        let bit = if self.code < bound {
            self.range = bound;
            0
        } else {
            self.code -= bound;
            self.range -= bound;
            1
        };
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
        bit
    }

    /// Decode a fixed-width symbol through a bit tree.
    pub fn decode_tree(&mut self, tree: &mut BitTree) -> u32 {
        let mut ctx = 1usize;
        for _ in 0..tree.bits {
            let bit = self.decode_bit(&mut tree.models[ctx]);
            ctx = (ctx << 1) | bit as usize;
        }
        ctx as u32 - (1 << tree.bits)
    }

    /// Decode `bits` raw bits.
    pub fn decode_direct(&mut self, bits: u32) -> u32 {
        let mut value = 0u32;
        for _ in 0..bits {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                1
            } else {
                0
            };
            value = (value << 1) | bit;
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | self.next_byte() as u32;
            }
        }
        value
    }
}

/// Encode an unsigned value as a bucketed "slot + direct bits" code (the
/// LZMA distance scheme): small values cost few bits, large ones grow
/// logarithmically. `slot_tree` must be 6 bits wide (64 slots).
pub fn encode_bucketed(enc: &mut RangeEncoder, slot_tree: &mut BitTree, value: u32) {
    debug_assert_eq!(slot_tree.width(), 6);
    let (slot, bits) = crate::primitives::bucket_slot(value);
    enc.encode_tree(slot_tree, slot);
    enc.encode_direct(value & ((1 << bits) - 1), bits);
}

/// Inverse of [`encode_bucketed`].
pub fn decode_bucketed(dec: &mut RangeDecoder<'_>, slot_tree: &mut BitTree) -> u32 {
    let (base, bits) = crate::primitives::bucket_base(dec.decode_tree(slot_tree));
    base + dec.decode_direct(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;

    #[test]
    fn single_model_roundtrip() {
        let mut rng = Pcg32::new(1);
        let bits: Vec<u8> = (0..10_000).map(|_| rng.chance(0.8) as u8).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut m = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut m), b);
        }
    }

    #[test]
    fn skewed_bits_compress_below_entropy_plus_overhead() {
        let mut rng = Pcg32::new(2);
        let n = 50_000;
        let p = 0.95f64;
        let bits: Vec<u8> = (0..n).map(|_| rng.chance(p as f32) as u8).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, 1 - b); // mostly zeros for the model
        }
        let data = enc.finish();
        // Shannon entropy of Bernoulli(0.05) is ~0.286 bits.
        let entropy_bytes = (n as f64) * 0.2864 / 8.0;
        assert!(
            (data.len() as f64) < entropy_bytes * 1.15 + 64.0,
            "coded {} bytes vs entropy {:.0}",
            data.len(),
            entropy_bytes
        );
    }

    #[test]
    fn tree_roundtrip() {
        let mut rng = Pcg32::new(3);
        let symbols: Vec<u32> = (0..5000).map(|_| rng.range_u32(256)).collect();
        let mut enc = RangeEncoder::new();
        let mut tree = BitTree::new(8);
        for &s in &symbols {
            enc.encode_tree(&mut tree, s);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut tree = BitTree::new(8);
        for &s in &symbols {
            assert_eq!(dec.decode_tree(&mut tree), s);
        }
    }

    #[test]
    fn direct_bits_roundtrip() {
        let mut rng = Pcg32::new(4);
        let values: Vec<(u32, u32)> = (0..2000)
            .map(|_| {
                let bits = 1 + rng.range_u32(24);
                (rng.next_u32() & ((1u32 << bits) - 1), bits)
            })
            .collect();
        let mut enc = RangeEncoder::new();
        for &(v, b) in &values {
            enc.encode_direct(v, b);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        for &(v, b) in &values {
            assert_eq!(dec.decode_direct(b), v);
        }
    }

    #[test]
    fn mixed_stream_roundtrip() {
        // Interleave all three primitives to catch state interactions.
        let mut rng = Pcg32::new(5);
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        let mut tree = BitTree::new(5);
        let mut script = Vec::new();
        for _ in 0..3000 {
            match rng.range_u32(3) {
                0 => {
                    let b = rng.chance(0.3) as u8;
                    enc.encode_bit(&mut m, b);
                    script.push((0u8, b as u32));
                }
                1 => {
                    let s = rng.range_u32(32);
                    enc.encode_tree(&mut tree, s);
                    script.push((1, s));
                }
                _ => {
                    let v = rng.range_u32(1 << 13);
                    enc.encode_direct(v, 13);
                    script.push((2, v));
                }
            }
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut m = BitModel::new();
        let mut tree = BitTree::new(5);
        for &(kind, v) in &script {
            match kind {
                0 => assert_eq!(dec.decode_bit(&mut m) as u32, v),
                1 => assert_eq!(dec.decode_tree(&mut tree), v),
                _ => assert_eq!(dec.decode_direct(13), v),
            }
        }
    }

    #[test]
    fn bucketed_roundtrip_all_magnitudes() {
        let values: Vec<u32> = (0..20)
            .flat_map(|k| {
                let base = 1u32 << k;
                [base - 1, base, base + 1]
            })
            .chain([0, 1, 2, 3, u32::MAX / 2])
            .collect();
        let mut enc = RangeEncoder::new();
        let mut tree = BitTree::new(6);
        for &v in &values {
            encode_bucketed(&mut enc, &mut tree, v);
        }
        let data = enc.finish();
        let mut dec = RangeDecoder::new(&data);
        let mut tree = BitTree::new(6);
        for &v in &values {
            assert_eq!(decode_bucketed(&mut dec, &mut tree), v);
        }
    }

    #[test]
    fn empty_stream() {
        let enc = RangeEncoder::new();
        let data = enc.finish();
        assert!(data.len() <= 5);
        let _ = RangeDecoder::new(&data);
    }
}
