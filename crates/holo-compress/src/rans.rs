//! Static, table-driven rANS over buffered symbol arrays — the mesh
//! path's entropy coder (DESIGN.md §16).
//!
//! A stream is a sequence of `(context, symbol)` pairs plus the raw
//! mantissa bits of bucketed values. The encoder buffers all of it,
//! normalises each context's histogram to a 12-bit frequency table and
//! codes the symbols *backwards* through one 32-bit state with byte
//! renormalisation, so the decoder runs forwards at one table lookup and
//! one multiply per symbol. Mantissas bypass the coder, bit-packed.
//!
//! Layout: per context `n: u8` and `n` varint frequencies (symbols
//! `0..n`; `n == 0`: the stream never uses the context), the `u32` length
//! of the rANS bytes, those bytes (initial state first, big endian), then
//! the mantissas, LSB first, to the end of the buffer.
//!
//! Neither hot loop branches on the data. A symbol moves 0, 1 or 2
//! renormalisation bytes: the encoder computes the count from two
//! compares and writes both candidate bytes, and the decoder computes it
//! from the state's leading zeros and shifts in two bytes as far as it
//! needs. Mantissas are packed through a 64-bit accumulator stored or
//! loaded 8 bytes at a time. The decoder so reads mantissa bytes ahead,
//! and [`RansDecoder::finish`] refuses a stream that leaves a whole
//! byte of them unread.

use crate::primitives::{bucket_base, bucket_slot, write_varint};
use holo_runtime::ser::{ByteReader, DecodeError};

const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;
/// The state lives in `[RANS_L, RANS_L << 8)`. The encoder starts at
/// `RANS_L`, so a decoder that has undone every step must end there.
const RANS_L: u32 = 1 << 23;

/// Normalise a histogram into `freqs`, summing to `SCALE` (all zero
/// stays all zero): a counted symbol keeps at least 1, and none exceeds
/// `SCALE - 1` — a lone symbol cedes one count to a neighbour — so every
/// symbol costs at least log2(4096/4095) bits and bytes bound symbols.
fn normalise(counts: &[u32], freqs: &mut [u32]) {
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    let scaled = |c: u32| if c == 0 { 0 } else { ((c as u64 * SCALE as u64 / total) as u32).max(1) };
    freqs.iter_mut().zip(counts).for_each(|(f, &c)| *f = scaled(c));
    if total == 0 {
        return;
    }
    // Rounding down leaves a deficit, lifting rare symbols to 1 an
    // excess of at most one per lifted symbol; the largest frequency
    // (at least 64 even with all 64 symbols in play) absorbs either.
    let largest = (0..freqs.len()).max_by_key(|&i| freqs[i]).expect("alphabets are not empty");
    freqs[largest] = freqs[largest] + SCALE - freqs.iter().sum::<u32>();
    if freqs[largest] == SCALE {
        freqs[largest] = SCALE - 1;
        freqs[if largest == 0 { 1 } else { 0 }] = 1;
    }
}

/// One `(context, symbol)`'s coding step with the division done ahead
/// (ryg_rans' `RansEncSymbol`): for `ℓ = ⌈log2 freq⌉`, `x / freq` is
/// `x · ⌈2^(31 + ℓ) / freq⌉ >> (31 + ℓ)`, exact for every `x < 2³¹`
/// (Granlund–Montgomery) — and the state never reaches 2³¹.
#[derive(Clone, Copy, Default)]
struct EncStep {
    start: u32,
    freq: u32,
    rcp: u32,
    shift: u32,
}

impl EncStep {
    fn new(start: u32, freq: u32) -> Self {
        let shift = 63 - (freq.max(1) - 1).leading_zeros();
        Self { start, freq, rcp: (1u64 << shift).div_ceil(freq.max(1) as u64) as u32, shift }
    }

    /// `((x / freq) << 12) + x % freq + start`, as `x + start + (x / freq) · (4096 − freq)`.
    #[inline]
    fn apply(&self, x: u32) -> u32 {
        x + self.start + ((x as u64 * self.rcp as u64) >> self.shift) as u32 * (SCALE - self.freq)
    }
}

/// Buffers a stream's symbols and bucketed values (start from
/// `default()`); [`RansEncoder::finish`] builds the tables and codes it.
#[derive(Default)]
pub struct RansEncoder {
    /// `(context, symbol)` in decode order.
    symbols: Vec<(u8, u8)>,
    /// Every bucketed value's `(mantissa, width)`, in order: `finish`
    /// packs them.
    mantissas: Vec<(u32, u32)>,
    /// The widths' sum: the mantissas take exactly its bytes.
    mantissa_bits: u64,
    // `finish`'s scratch, the first two indexed `context << 8 | symbol`.
    counts: Vec<u32>,
    steps: Vec<EncStep>,
    coded: Vec<u8>,
}

impl RansEncoder {
    /// Append `symbol` under `context`'s table.
    #[inline]
    pub fn symbol(&mut self, context: usize, symbol: u32) {
        self.symbols.push((context as u8, symbol as u8));
    }

    /// Append an unsigned value as a bucket slot under `context`
    /// (alphabet 64) plus raw mantissa bits: cost grows with log(value).
    #[inline]
    pub fn bucketed(&mut self, context: usize, value: u32) {
        let (slot, bits) = bucket_slot(value);
        self.mantissas.push((value & ((1 << bits) - 1), bits));
        self.mantissa_bits += bits as u64;
        self.symbol(context, slot);
    }

    /// Forget the stream, keep the memory.
    pub fn clear(&mut self) {
        self.symbols.clear();
        self.mantissas.clear();
        self.mantissa_bits = 0;
    }

    /// Code the stream onto `out`. `alphabets[c]` is context `c`'s
    /// alphabet size: at least 2, and above every symbol appended under `c`.
    pub fn finish(&mut self, alphabets: &[u8], out: &mut Vec<u8>) {
        self.counts.clear();
        self.counts.resize(alphabets.len() << 8, 0);
        for &(c, s) in &self.symbols {
            self.counts[(c as usize) << 8 | s as usize] += 1;
        }
        self.steps.resize(self.counts.len(), EncStep::default()); // every step read below is rewritten first
        let mut freqs = [0u32; 256];
        for ((counts, steps), &n) in self.counts.chunks(256).zip(self.steps.chunks_mut(256)).zip(alphabets) {
            let (counts, beyond) = counts.split_at(n as usize);
            assert!(beyond.iter().all(|&k| k == 0), "a symbol at or above its context's alphabet size");
            let freqs = &mut freqs[..n as usize];
            normalise(counts, freqs);
            let used = freqs.iter().rposition(|&f| f != 0).map_or(0, |i| i + 1);
            out.push(used as u8);
            freqs[..used].iter().for_each(|&f| write_varint(out, f));
            let mut start = 0;
            for (step, &f) in steps.iter_mut().zip(freqs.iter()) {
                *step = EncStep::new(start, f);
                start += f;
            }
        }
        // Backwards over the symbols, filling `coded` from its end: a
        // symbol emits its state's low bytes while the state is at or
        // above `x_max = freq << 19` — none, one, or (at or above
        // `x_max << 8`) two, and never three, as the state stays below
        // 2^31. Both candidate bytes are written; `at` keeps those emitted.
        let len = 2 * self.symbols.len() + 4;
        self.coded.resize(len, 0);
        let mut at = len;
        let mut x = RANS_L;
        for &(c, s) in self.symbols.iter().rev() {
            let step = &self.steps[(c as usize) << 8 | s as usize];
            let x_max = (step.freq as u64) << 19;
            let n = (x as u64 >= x_max) as usize + (x as u64 >= x_max << 8) as usize;
            self.coded[at - 1] = x as u8;
            self.coded[at - 2] = (x >> 8) as u8;
            at -= n;
            x = step.apply(x >> (8 * n));
        }
        at -= 4;
        self.coded[at..at + 4].copy_from_slice(&x.to_be_bytes());
        let coded = &self.coded[at..];
        out.extend_from_slice(&(coded.len() as u32).to_le_bytes());
        out.extend_from_slice(coded);
        // The mantissas, LSB first: each value's bits join the
        // accumulator, which is stored whole and advanced by its whole
        // bytes; the last store holds the partial byte, zero-padded.
        let start = out.len();
        let bytes = self.mantissa_bits.div_ceil(8) as usize;
        out.resize(start + bytes + 8, 0);
        let (mut acc, mut acc_bits, mut at) = (0u64, 0u32, start);
        for &(mantissa, bits) in &self.mantissas {
            acc |= (mantissa as u64) << acc_bits;
            acc_bits += bits;
            out[at..at + 8].copy_from_slice(&acc.to_le_bytes());
            let whole = acc_bits >> 3;
            at += whole as usize;
            acc >>= 8 * whole;
            acc_bits &= 7;
        }
        out.truncate(start + bytes);
    }
}

/// One context's decoding table: which symbol owns each of the `SCALE`
/// slots (none in an unused context), and each symbol's `(start, freq)`.
#[derive(Default)]
struct DecTable {
    slot_symbol: Vec<u8>,
    ranges: Vec<(u16, u16)>,
}

/// A stream's decoding tables, kept between streams: each
/// [`RansTables::open`] rebuilds them in the memory the last one left.
#[derive(Default)]
pub struct RansTables {
    tables: Vec<DecTable>,
}

impl RansTables {
    /// Parse one table per context of `alphabets` from `r` and open the
    /// stream that fills the rest of `r`.
    pub fn open<'t, 'a>(&'t mut self, r: &mut ByteReader<'a>, alphabets: &[u8]) -> Result<RansDecoder<'t, 'a>, DecodeError> {
        self.tables.resize_with(alphabets.len(), DecTable::default);
        for (table, &alphabet) in self.tables.iter_mut().zip(alphabets) {
            table.slot_symbol.clear();
            table.ranges.clear();
            let used = r.u8()?;
            if used > alphabet {
                return Err(DecodeError::corrupt("rans table", "more symbols than the alphabet"));
            }
            let mut start = 0u32;
            for symbol in 0..used {
                let freq = r.varint()?;
                if freq >= SCALE || start + freq > SCALE {
                    return Err(DecodeError::corrupt("rans table", "frequency out of range"));
                }
                table.ranges.push((start as u16, freq as u16));
                start += freq;
                table.slot_symbol.resize(start as usize, symbol);
            }
            if used > 0 && start != SCALE {
                return Err(DecodeError::corrupt("rans table", "frequencies do not sum to 4096"));
            }
        }
        let coded_len = r.u32_le()? as usize;
        let mut coded = ByteReader::new(r.take(coded_len)?);
        let x = u32::from_be_bytes(coded.array()?);
        let mantissas = r.take(r.remaining())?;
        Ok(RansDecoder { tables: &self.tables, x, coded: coded.rest(), coded_at: 0, mantissas, mantissas_at: 0, acc: 0, acc_bits: 0 })
    }
}

/// Reads back a stream written by [`RansEncoder`], through tables a
/// [`RansTables::open`] parsed.
///
/// Hostile-input contract: tables are validated before use (alphabet
/// size, every frequency below `SCALE`, sum exactly `SCALE`), a symbol
/// drawn from an unused context is an error, a read past the end of
/// either section is [`DecodeError::Truncated`] (nothing is zero-fed),
/// and [`RansDecoder::finish`] demands every byte and bit was consumed.
pub struct RansDecoder<'t, 'a> {
    tables: &'t [DecTable],
    x: u32,
    coded: &'a [u8],
    coded_at: usize,
    mantissas: &'a [u8],
    mantissas_at: usize,
    /// Mantissa bits read ahead, LSB first: the low `acc_bits` are
    /// unread, and above them sit zeros or the same bits of the bytes
    /// from `mantissas_at` on, which a later read ORs in again.
    acc: u64,
    acc_bits: u32,
}

/// A read past the end of a section, as [`ByteReader::u8`] reports it.
const ONE_BYTE_SHORT: DecodeError = DecodeError::Truncated { needed: 1, available: 0 };

impl RansDecoder<'_, '_> {
    /// Decode the next symbol under `context`'s table.
    #[inline]
    pub fn symbol(&mut self, context: usize) -> Result<u32, DecodeError> {
        let table = &self.tables[context];
        let slot = self.x & (SCALE - 1);
        let Some(&symbol) = table.slot_symbol.get(slot as usize) else {
            return Err(DecodeError::corrupt("rans", "symbol drawn from an unused context"));
        };
        let (start, freq) = table.ranges[symbol as usize];
        self.x = freq as u32 * (self.x >> SCALE_BITS) + slot - start as u32;
        self.renormalise()?;
        Ok(symbol as u32)
    }

    /// Bring the state back to `[RANS_L, RANS_L << 8)`. A state with
    /// `lz` leading zeros needs `(lz - 1) >> 3` bytes: two are read and
    /// shifted in as far as it needs, with no branch on the count. A
    /// state a valid stream cannot reach (`lz` 0 or above 20) or the
    /// section's last byte is taken a byte at a time, so a hostile
    /// initial state or a truncation ends as it would byte by byte.
    #[inline]
    fn renormalise(&mut self) -> Result<(), DecodeError> {
        let lz = self.x.leading_zeros();
        match self.coded.get(self.coded_at..self.coded_at + 2) {
            Some(&[b0, b1]) if (1..=20).contains(&lz) => {
                let n = (lz - 1) >> 3;
                let next = u16::from_be_bytes([b0, b1]) as u32;
                self.x = (self.x << (8 * n)) | (next >> (16 - 8 * n));
                self.coded_at += n as usize;
            }
            _ => {
                while self.x < RANS_L {
                    let &byte = self.coded.get(self.coded_at).ok_or(ONE_BYTE_SHORT)?;
                    self.x = (self.x << 8) | byte as u32;
                    self.coded_at += 1;
                }
            }
        }
        Ok(())
    }

    /// Inverse of [`RansEncoder::bucketed`]. Each call tops the
    /// accumulator up by the whole bytes that fit under 64 bits, from one
    /// 8-byte load and with no branch on the width; the last 7 bytes are
    /// loaded zero-padded, so only there can a read run short.
    #[inline]
    pub fn bucketed(&mut self, context: usize) -> Result<u32, DecodeError> {
        let (base, bits) = bucket_base(self.symbol(context)?);
        let rest = &self.mantissas[self.mantissas_at..];
        let fit = ((63 - self.acc_bits) >> 3) as usize;
        if let Some(word) = rest.first_chunk::<8>() {
            self.acc |= u64::from_le_bytes(*word) << self.acc_bits;
            self.mantissas_at += fit;
            self.acc_bits |= 56;
        } else {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            let fit = fit.min(rest.len());
            self.acc |= u64::from_le_bytes(word) << self.acc_bits;
            self.mantissas_at += fit;
            self.acc_bits += 8 * fit as u32;
            if self.acc_bits < bits {
                return Err(ONE_BYTE_SHORT);
            }
        }
        let mantissa = self.acc as u32 & ((1 << bits) - 1);
        self.acc >>= bits;
        self.acc_bits -= bits;
        Ok(base + mantissa)
    }

    /// Close the stream: the state must be back at the encoder's initial constant,
    /// every rANS byte consumed, every mantissa byte loaded with fewer
    /// than 8 of its bits unread (a whole byte loaded ahead and never
    /// read is a stray byte), and those bits — the padding — zero.
    pub fn finish(self) -> Result<(), DecodeError> {
        let coded_read = self.coded_at == self.coded.len();
        let mantissas_read = self.mantissas_at == self.mantissas.len() && self.acc_bits < 8;
        if self.x == RANS_L && coded_read && mantissas_read && self.acc == 0 {
            return Ok(());
        }
        Err(DecodeError::corrupt("rans", "stream does not close: open state or unread bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;
    use holo_runtime::check::{any, collection, PropFail};
    use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};

    fn encode(alphabets: &[u8], script: &[(usize, u32)]) -> Vec<u8> {
        let mut enc = RansEncoder::default();
        for &(c, s) in script {
            enc.symbol(c, s);
        }
        let mut out = Vec::new();
        enc.finish(alphabets, &mut out);
        out
    }

    /// Encode, decode, compare; returns the coded size.
    fn roundtrip(alphabets: &[u8], script: &[(usize, u32)]) -> usize {
        let out = encode(alphabets, script);
        let mut r = ByteReader::new(&out);
        let mut tables = RansTables::default();
        let mut dec = tables.open(&mut r, alphabets).unwrap();
        for &(c, s) in script {
            assert_eq!(dec.symbol(c).unwrap(), s);
        }
        dec.finish().unwrap();
        out.len()
    }

    /// Draw from a geometric-ish distribution over `0..n`.
    fn skewed(rng: &mut Pcg32, n: u32) -> u32 {
        let mut s = 0;
        while s + 1 < n && rng.chance(0.45) {
            s += 1;
        }
        s
    }

    fn entropy_bytes(script: &[(usize, u32)]) -> f64 {
        let mut counts = [0f64; 64];
        for &(_, s) in script {
            counts[s as usize] += 1.0;
        }
        let n = script.len() as f64;
        counts
            .iter()
            .filter(|&&c| c > 0.0)
            .map(|&c| c * (n / c).log2())
            .sum::<f64>()
            / 8.0
    }

    /// One table of `alphabet` varints, the length word, the state flush.
    fn overhead(alphabet: usize) -> f64 {
        (1 + 2 * alphabet + 4 + 4) as f64
    }

    #[test]
    fn skewed_and_uniform_streams_code_within_one_percent_of_entropy() {
        let mut rng = Pcg32::new(1);
        let skew: Vec<(usize, u32)> = (0..50_000).map(|_| (0, skewed(&mut rng, 16))).collect();
        let uniform: Vec<(usize, u32)> = (0..50_000).map(|_| (0, rng.range_u32(64))).collect();
        for (script, alphabet) in [(skew, 16u8), (uniform, 64)] {
            let coded = roundtrip(&[alphabet], &script) as f64;
            let ideal = entropy_bytes(&script);
            assert!(
                coded <= ideal * 1.01 + overhead(alphabet as usize),
                "coded {coded} bytes vs order-0 entropy {ideal:.0}"
            );
            assert!(
                coded >= ideal,
                "coded {coded} bytes beats the entropy {ideal:.0}"
            );
        }
    }

    #[test]
    fn reciprocal_step_is_the_division_for_every_frequency() {
        let mut rng = Pcg32::new(5);
        for freq in 1..SCALE {
            // What renormalisation leaves a symbol of this frequency:
            // `[x_max >> 8, x_max)`; the initial state when inside it.
            let (lo, hi) = (freq << 11, freq << 19);
            let step = EncStep::new(SCALE - freq, freq);
            let edges = [lo, hi - 1, RANS_L.clamp(lo, hi - 1), (1 << 31) - SCALE];
            for x in edges.into_iter().chain((0..1000).map(|_| lo + rng.range_u32(hi - lo))) {
                let q = ((x as u64 * step.rcp as u64) >> step.shift) as u32;
                assert_eq!(q, x / freq, "freq {freq}, x {x}");
                if x < hi {
                    assert_eq!(step.apply(x), ((x / freq) << SCALE_BITS) + x % freq + step.start, "freq {freq}, x {x}");
                }
            }
        }
    }

    #[test]
    fn single_symbol_and_empty_streams() {
        // A lone symbol is normalised to 4095/4096, not 4096/4096: it
        // still costs bits, so bytes bound the symbol count.
        let lone: Vec<(usize, u32)> = vec![(0, 3); 100_000];
        let coded = roundtrip(&[8], &lone);
        let floor = 100_000.0 * (4096.0f64 / 4095.0).log2() / 8.0;
        assert!(
            coded as f64 >= floor && coded < 32,
            "{coded} bytes for 100k lone symbols"
        );
        roundtrip(&[2], &[(0, 0)]);
        roundtrip(&[2], &[(0, 1)]);
        // No symbols at all: two empty tables, the length, the state.
        assert_eq!(roundtrip(&[3, 64], &[]), 2 + 4 + 4);
    }

    #[test]
    fn extreme_frequencies_roundtrip() {
        // 20 in 100 000 normalises to 1/4096 against 4095/4096.
        let mut rng = Pcg32::new(2);
        let mut script: Vec<(usize, u32)> = vec![(0, 0); 100_000];
        for _ in 0..20 {
            script[rng.index(100_000)] = (0, 1);
        }
        let coded = roundtrip(&[3], &script);
        assert!(coded < 64, "{coded} bytes");
    }

    #[test]
    fn contexts_switch_inside_one_stream() {
        // Three tables with different alphabets and shapes, interleaved
        // at random: the order-0 cost of each context must add up.
        let mut rng = Pcg32::new(3);
        let script: Vec<(usize, u32)> = (0..30_000)
            .map(|_| match rng.range_u32(3) {
                0 => (0, skewed(&mut rng, 3)),
                1 => (1, 63 - skewed(&mut rng, 64)),
                _ => (2, rng.range_u32(5)),
            })
            .collect();
        let coded = roundtrip(&[3, 64, 5], &script) as f64;
        let ideal: f64 = (0..3)
            .map(|c| {
                entropy_bytes(
                    &script
                        .iter()
                        .copied()
                        .filter(|e| e.0 == c)
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        assert!(
            coded <= ideal * 1.01 + overhead(3 + 64 + 5),
            "coded {coded} vs {ideal:.0}"
        );
    }

    #[test]
    fn bucketed_roundtrip_all_magnitudes() {
        let values: Vec<u32> = (0..32)
            .flat_map(|k| {
                let base = 1u32 << k;
                [base - 1, base, base.wrapping_add(1)]
            })
            .chain([0, 1, 2, 3, u32::MAX / 2, u32::MAX])
            .collect();
        let mut enc = RansEncoder::default();
        for (i, &v) in values.iter().enumerate() {
            enc.bucketed(i % 2, v);
        }
        let mut out = Vec::new();
        enc.finish(&[64, 64], &mut out);
        let mut r = ByteReader::new(&out);
        let mut tables = RansTables::default();
        let mut dec = tables.open(&mut r, &[64, 64]).unwrap();
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(dec.bucketed(i % 2).unwrap(), v);
        }
        dec.finish().unwrap();
    }

    fn decode_all(
        data: &[u8],
        alphabets: &[u8],
        script: &[(usize, u32)],
    ) -> Result<(), DecodeError> {
        let mut r = ByteReader::new(data);
        let mut tables = RansTables::default();
        let mut dec = tables.open(&mut r, alphabets)?;
        for &(c, _) in script {
            dec.symbol(c)?;
        }
        dec.finish()
    }

    #[test]
    fn hostile_streams_are_typed_errors() {
        let mut rng = Pcg32::new(4);
        let script: Vec<(usize, u32)> = (0..2000).map(|_| (0, skewed(&mut rng, 8))).collect();
        let good = encode(&[8, 4], &script);
        decode_all(&good, &[8, 4], &script).unwrap();
        // Every truncation is an error, never a zero-fed success.
        for cut in 0..good.len() {
            assert!(
                decode_all(&good[..cut], &[8, 4], &script).is_err(),
                "cut {cut}"
            );
        }
        // A byte too many (here: a stray mantissa byte) is not consumed.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(
            decode_all(&long, &[8, 4], &script).unwrap_err().kind(),
            "corrupt"
        );
        // Stopping early leaves the state open.
        assert!(decode_all(&good, &[8, 4], &script[1..]).is_err());
        // Running on past the end reads past the coded bytes.
        let mut more = script.clone();
        more.extend_from_slice(&script);
        assert!(decode_all(&good, &[8, 4], &more).is_err());
        // Context 1 was never used: drawing from it is corrupt.
        assert_eq!(
            decode_all(&good, &[8, 4], &[(1, 0)]).unwrap_err().kind(),
            "corrupt"
        );
        // Tables: wider than the alphabet, not summing to 4096, a
        // frequency of 4096.
        assert!(decode_all(&good, &[4, 4], &script).is_err());
        let with_table = |table: &[u8]| {
            let mut data = table.to_vec();
            data.extend_from_slice(&[0, 4, 0, 0, 0, 0, 0x80, 0, 0]);
            decode_all(&data, &[8, 4], &[])
        };
        with_table(&[2, 0xFF, 0x1F, 1]).expect("4095 + 1 is a valid table");
        for table in [&[2u8, 10, 10][..], &[2, 0x80, 0x20, 0], &[1, 0x80, 0x20]] {
            assert_eq!(
                with_table(table).unwrap_err().kind(),
                "corrupt",
                "{table:?}"
            );
        }
    }

    #[test]
    fn kept_tables_decode_as_fresh_ones_do() {
        // A stream that uses both contexts, then one that leaves the
        // second unused: the kept tables must forget what it held.
        let mut rng = Pcg32::new(6);
        let both: Vec<(usize, u32)> = (0..500).map(|i| (i % 2, skewed(&mut rng, 8))).collect();
        let first: Vec<(usize, u32)> = both.iter().copied().filter(|e| e.0 == 0).collect();
        let mut tables = RansTables::default();
        for script in [&both, &first, &both] {
            let data = encode(&[8, 8], script);
            let mut r = ByteReader::new(&data);
            let mut dec = tables.open(&mut r, &[8, 8]).unwrap();
            for &(c, s) in script.iter() {
                assert_eq!(dec.symbol(c).unwrap(), s);
            }
            dec.finish().unwrap();
        }
        let data = encode(&[8, 8], &first);
        let mut r = ByteReader::new(&data);
        let mut dec = tables.open(&mut r, &[8, 8]).unwrap();
        assert_eq!(dec.symbol(1).unwrap_err().kind(), "corrupt", "a context the stream left unused");
    }

    /// One call of a stream: a symbol or a bucketed value, under a context.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Symbol(usize, u32),
        Bucketed(usize, u32),
    }

    /// The bytewise coder the branch-free one must equal, byte for byte
    /// and error for error (as `crc32_bytewise` is for the CRC): the
    /// encoder renormalises and flushes mantissas a byte per loop turn.
    fn reference_encode(alphabets: &[u8], ops: &[Op]) -> Vec<u8> {
        let symbol = |op: &Op| match *op {
            Op::Symbol(c, s) => (c, s),
            Op::Bucketed(c, v) => (c, bucket_slot(v).0),
        };
        let mut out = Vec::new();
        let mut steps = vec![EncStep::default(); alphabets.len() << 8];
        for (c, &n) in alphabets.iter().enumerate() {
            let mut counts = vec![0u32; n as usize];
            ops.iter().map(symbol).filter(|e| e.0 == c).for_each(|(_, s)| counts[s as usize] += 1);
            let mut freqs = vec![0u32; n as usize];
            normalise(&counts, &mut freqs);
            let used = freqs.iter().rposition(|&f| f != 0).map_or(0, |i| i + 1);
            out.push(used as u8);
            freqs[..used].iter().for_each(|&f| write_varint(&mut out, f));
            let mut start = 0;
            for (s, &f) in freqs.iter().enumerate() {
                steps[c << 8 | s] = EncStep::new(start, f);
                start += f;
            }
        }
        let mut coded = Vec::new();
        let mut x = RANS_L;
        for (c, s) in ops.iter().rev().map(symbol) {
            let step = &steps[c << 8 | s as usize];
            while x >= ((RANS_L >> SCALE_BITS) << 8) * step.freq {
                coded.push(x as u8);
                x >>= 8;
            }
            x = step.apply(x);
        }
        coded.extend_from_slice(&x.to_le_bytes());
        coded.reverse();
        out.extend_from_slice(&(coded.len() as u32).to_le_bytes());
        out.extend_from_slice(&coded);
        let (mut acc, mut acc_bits) = (0u64, 0u32);
        for op in ops {
            let Op::Bucketed(_, value) = *op else { continue };
            let bits = bucket_slot(value).1;
            acc |= ((value & ((1 << bits) - 1)) as u64) << acc_bits;
            acc_bits += bits;
            while acc_bits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                acc_bits -= 8;
            }
        }
        if acc_bits > 0 {
            out.push(acc as u8);
        }
        out
    }

    /// The bytewise decoder: renormalises and refills mantissas a byte
    /// per loop turn, reading nothing ahead.
    struct ReferenceDecoder<'t, 'a> {
        tables: &'t [DecTable],
        x: u32,
        coded: ByteReader<'a>,
        mantissas: ByteReader<'a>,
        acc: u64,
        acc_bits: u32,
    }

    impl ReferenceDecoder<'_, '_> {
        fn symbol(&mut self, context: usize) -> Result<u32, DecodeError> {
            let table = &self.tables[context];
            let slot = self.x & (SCALE - 1);
            let Some(&symbol) = table.slot_symbol.get(slot as usize) else {
                return Err(DecodeError::corrupt("rans", "symbol drawn from an unused context"));
            };
            let (start, freq) = table.ranges[symbol as usize];
            self.x = freq as u32 * (self.x >> SCALE_BITS) + slot - start as u32;
            while self.x < RANS_L {
                self.x = (self.x << 8) | self.coded.u8()? as u32;
            }
            Ok(symbol as u32)
        }

        fn bucketed(&mut self, context: usize) -> Result<u32, DecodeError> {
            let slot = self.symbol(context)?;
            let (base, bits) = if slot < 4 { (slot, 0) } else { ((2 | (slot & 1)) << ((slot >> 1) - 1), (slot >> 1) - 1) };
            while self.acc_bits < bits {
                self.acc |= (self.mantissas.u8()? as u64) << self.acc_bits;
                self.acc_bits += 8;
            }
            let mantissa = self.acc as u32 & ((1 << bits) - 1);
            self.acc >>= bits;
            self.acc_bits -= bits;
            Ok(base + mantissa)
        }

        fn finish(self) -> Result<(), DecodeError> {
            if self.x == RANS_L && self.coded.is_empty() && self.mantissas.is_empty() && self.acc == 0 {
                return Ok(());
            }
            Err(DecodeError::corrupt("rans", "stream does not close: open state or unread bytes"))
        }
    }

    /// What decoding `ops`' calls from `data` yields, through the coder
    /// (`reference` false) or the bytewise reference: every value, then
    /// `finish`, or the first error.
    fn decode_ops(data: &[u8], alphabets: &[u8], ops: &[Op], reference: bool) -> Result<Vec<u32>, DecodeError> {
        let mut r = ByteReader::new(data);
        let mut tables = RansTables::default();
        let mut dec = tables.open(&mut r, alphabets)?;
        let mut values = Vec::new();
        if reference {
            let RansDecoder { tables, x, coded, mantissas, .. } = dec;
            let (coded, mantissas) = (ByteReader::new(coded), ByteReader::new(mantissas));
            let mut dec = ReferenceDecoder { tables, x, coded, mantissas, acc: 0, acc_bits: 0 };
            for op in ops {
                values.push(match *op {
                    Op::Symbol(c, _) => dec.symbol(c)?,
                    Op::Bucketed(c, _) => dec.bucketed(c)?,
                });
            }
            dec.finish()?;
        } else {
            for op in ops {
                values.push(match *op {
                    Op::Symbol(c, _) => dec.symbol(c)?,
                    Op::Bucketed(c, _) => dec.bucketed(c)?,
                });
            }
            dec.finish()?;
        }
        Ok(values)
    }

    /// Where the rANS bytes lie in a stream over `contexts` tables: the
    /// initial state is their first four.
    fn coded_span(data: &[u8], contexts: usize) -> std::ops::Range<usize> {
        let mut r = ByteReader::new(data);
        for _ in 0..contexts {
            for _ in 0..r.u8().unwrap() {
                r.varint().unwrap();
            }
        }
        let len = r.u32_le().unwrap() as usize;
        r.pos()..r.pos() + len
    }

    /// A random stream over `alphabets`' first four contexts (the fifth
    /// stays unused), shaped by `shape`: uniform symbols, geometric ones,
    /// or one symbol with a few frequency-1 strays, whose steps move two
    /// renormalisation bytes; bucketed values of every magnitude under
    /// the two 64-symbol contexts, so mantissa tails run past 8 bytes.
    fn random_ops(rng: &mut Pcg32, alphabets: &[u8], shape: u32, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let c = rng.index(4);
                let n = alphabets[c] as u32;
                let s = match shape {
                    0 => rng.range_u32(n),
                    1 => skewed(rng, n),
                    _ => if rng.chance(0.003) { 1 + rng.range_u32(n - 1) } else { 0 },
                };
                if c >= 2 && rng.chance(0.5) {
                    Op::Bucketed(c, rng.next_u32() >> rng.range_u32(33).min(31))
                } else {
                    Op::Symbol(c, s)
                }
            })
            .collect()
    }

    holo_prop! {
        #![cases(96)]

        /// The branch-free coder writes the bytewise reference's bytes, and
        /// reads back every stream — intact or hostile — to the same
        /// values and the same `Ok` or error.
        fn prop_coder_equals_the_bytewise_reference(
            seed in any::<u64>(),
            shape in 0u32..3,
            narrow in 2u32..256,
            len in 0usize..400,
        ) {
            let mut rng = Pcg32::new(seed);
            let alphabets = [narrow as u8, 2 + rng.range_u32(254) as u8, 64, 64, 8];
            let ops = random_ops(&mut rng, &alphabets, shape, len);
            let mut enc = RansEncoder::default();
            for op in &ops {
                match *op {
                    Op::Symbol(c, s) => enc.symbol(c, s),
                    Op::Bucketed(c, v) => enc.bucketed(c, v),
                }
            }
            let mut good = Vec::new();
            enc.finish(&alphabets, &mut good);
            prop_assert!(good == reference_encode(&alphabets, &ops), "streams differ");

            let same = |data: &[u8], ops: &[Op]| {
                let (got, want) = (decode_ops(data, &alphabets, ops, false), decode_ops(data, &alphabets, ops, true));
                if got == want {
                    return Ok(());
                }
                Err(format!("{got:?} against the reference's {want:?}"))
            };
            let want: Vec<u32> = ops.iter().map(|op| match *op { Op::Symbol(_, v) | Op::Bucketed(_, v) => v }).collect();
            prop_assert_eq!(decode_ops(&good, &alphabets, &ops, false), Ok(want));
            // Every truncation; a stray byte, zero or not, after the tail.
            for cut in 0..good.len() {
                same(&good[..cut], &ops).map_err(|e| PropFail::fail(format!("cut {cut}: {e}")))?;
            }
            for stray in [0u8, 1, 0x80] {
                let mut long = good.clone();
                long.push(stray);
                same(&long, &ops).map_err(|e| PropFail::fail(format!("stray {stray}: {e}")))?;
            }
            // The rANS bytes cut short under a relabelled length.
            let span = coded_span(&good, alphabets.len());
            for short in 1..=span.len().min(6) {
                let mut cut = good[..span.start - 4].to_vec();
                cut.extend_from_slice(&((span.len() - short) as u32).to_le_bytes());
                cut.extend_from_slice(&good[span.start..span.end - short]);
                cut.extend_from_slice(&good[span.end..]);
                same(&cut, &ops).map_err(|e| PropFail::fail(format!("{short} rANS bytes short: {e}")))?;
            }
            // Initial states a valid stream never starts from.
            let low = rng.range_u32(RANS_L);
            let high = (1 << 31) | rng.next_u32();
            for x in [0, 1, 1 << 11, low, RANS_L - 1, RANS_L, (1 << 31) - 1, 1 << 31, high, u32::MAX] {
                let mut forged = good.clone();
                forged[span.start..span.start + 4].copy_from_slice(&x.to_be_bytes());
                same(&forged, &ops).map_err(|e| PropFail::fail(format!("state {x:#x}: {e}")))?;
            }
            // A call under the context the stream never used.
            if !ops.is_empty() {
                let mut unused = ops.clone();
                let i = rng.index(ops.len());
                unused[i] = Op::Symbol(4, 0);
                same(&good, &unused).map_err(|e| PropFail::fail(format!("unused context at {i}: {e}")))?;
            }
        }
    }

    holo_prop! {
        #![cases(64)]

        fn prop_arbitrary_context_symbol_sequences_roundtrip(
            script in collection::vec((0usize..5, 0u32..64), 0..3000),
            narrow in 0u32..3,
        ) {
            // Context c has alphabet 64 >> (c * narrow), folded into range.
            let alphabets: Vec<u8> = (0..5).map(|c| (64u32 >> (c * narrow).min(5)) as u8).collect();
            let script: Vec<(usize, u32)> =
                script.into_iter().map(|(c, s)| (c, s % alphabets[c] as u32)).collect();
            roundtrip(&alphabets, &script);
        }
    }
}
