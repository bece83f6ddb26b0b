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
    /// Every bucketed value, in order: `finish` packs their mantissas.
    values: Vec<u32>,
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
        self.values.push(value);
        self.symbol(context, bucket_slot(value).0);
    }

    /// Forget the stream, keep the memory.
    pub fn clear(&mut self) {
        self.symbols.clear();
        self.values.clear();
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
        // Backwards over the symbols, emitting bytes last-first.
        self.coded.clear();
        let mut x = RANS_L;
        for &(c, s) in self.symbols.iter().rev() {
            let step = &self.steps[(c as usize) << 8 | s as usize];
            while x >= ((RANS_L >> SCALE_BITS) << 8) * step.freq {
                self.coded.push(x as u8);
                x >>= 8;
            }
            x = step.apply(x);
        }
        self.coded.extend_from_slice(&x.to_le_bytes());
        self.coded.reverse();
        out.extend_from_slice(&(self.coded.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.coded);
        let (mut acc, mut acc_bits) = (0u64, 0u32);
        for &value in &self.values {
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
        let mantissas = ByteReader::new(r.take(r.remaining())?);
        Ok(RansDecoder { tables: &self.tables, x, coded, mantissas, acc: 0, acc_bits: 0 })
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
    coded: ByteReader<'a>,
    mantissas: ByteReader<'a>,
    acc: u64,
    acc_bits: u32,
}

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
        while self.x < RANS_L {
            self.x = (self.x << 8) | self.coded.u8()? as u32;
        }
        Ok(symbol as u32)
    }

    /// Inverse of [`RansEncoder::bucketed`].
    #[inline]
    pub fn bucketed(&mut self, context: usize) -> Result<u32, DecodeError> {
        let (base, bits) = bucket_base(self.symbol(context)?);
        while self.acc_bits < bits {
            self.acc |= (self.mantissas.u8()? as u64) << self.acc_bits;
            self.acc_bits += 8;
        }
        let mantissa = self.acc as u32 & ((1 << bits) - 1);
        self.acc >>= bits;
        self.acc_bits -= bits;
        Ok(base + mantissa)
    }

    /// Close the stream: the state must be back at the encoder's initial constant,
    /// every rANS byte consumed, every mantissa bit read, and the padding zero.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.x == RANS_L && self.coded.is_empty() && self.mantissas.is_empty() && self.acc == 0 {
            return Ok(());
        }
        Err(DecodeError::corrupt("rans", "stream does not close: open state or unread bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;
    use holo_runtime::check::collection;
    use holo_runtime::holo_prop;

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
