//! LZ77 + adaptive range coding — the crate's "LZMA".
//!
//! Structurally a sibling of LZMA: greedy LZ77 parsing over a hash-chain
//! match finder, literals coded through context-conditioned bit trees
//! (previous-byte high bits x byte-lane alignment, which captures the
//! strong per-lane statistics of `f32` streams like the pose payload),
//! match lengths and distances coded with bucketed slot trees, and a
//! repeat-distance shortcut. Used wherever the paper says "LZMA"
//! (Table 2's pose-stream compression).

use crate::primitives::{read_varint, write_varint};
use crate::rc::{decode_bucketed, encode_bucketed, BitModel, BitTree, RangeDecoder, RangeEncoder};
use holo_runtime::ser::DecodeError;

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 273;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;

/// Absolute cap on decompressed output — no header can make the
/// decoder allocate more than this (64 MiB).
pub const MAX_DECODE_BYTES: usize = 64 << 20;

/// Cap on the expansion ratio a stream may declare. The adaptive coder
/// tops out around 310:1 on saturated models (one ~7-bit match symbol
/// per 273 output bytes), so 4096:1 admits every stream the encoder
/// can produce while bounding what a hostile header can demand to
/// `input_len * 4096`.
pub const MAX_DECODE_RATIO: usize = 4096;

/// The output cap for a given input size: what
/// [`lzma_decompress`] will refuse to exceed (the declared-cap
/// contract the fuzz harness enforces).
pub fn decode_cap(input_len: usize) -> usize {
    MAX_DECODE_BYTES.min(input_len.saturating_mul(MAX_DECODE_RATIO))
}

/// Number of literal contexts: 4 byte lanes x 8 previous-byte buckets.
const LIT_CONTEXTS: usize = 32;

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(506832829)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(2654435761))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(2246822519));
    (h >> (32 - HASH_BITS)) as usize
}

struct Models {
    is_match: [BitModel; 2],
    is_rep: BitModel,
    literal: Vec<BitTree>,
    len_slot: BitTree,
    dist_slot: BitTree,
}

impl Models {
    fn new() -> Self {
        Self {
            is_match: [BitModel::new(); 2],
            is_rep: BitModel::new(),
            literal: (0..LIT_CONTEXTS).map(|_| BitTree::new(8)).collect(),
            len_slot: BitTree::new(6),
            dist_slot: BitTree::new(6),
        }
    }

    fn lit_ctx(pos: usize, prev: u8) -> usize {
        ((pos & 3) << 3) | (prev >> 5) as usize
    }
}

/// Compress `data`. The output embeds the original length; an empty input
/// produces a tiny valid stream.
///
/// When tracing is on, records `compress.lzma.encode_us` (wall clock —
/// the one nondeterministic metric family, excluded from the trace
/// byte-identity guarantee), `compress.lzma.ratio_permille`, and byte
/// counters.
pub fn lzma_compress(data: &[u8]) -> Vec<u8> {
    if !holo_trace::enabled() {
        return lzma_compress_inner(data);
    }
    let timer = holo_trace::WallTimer::start();
    let out = lzma_compress_inner(data);
    timer.stop("compress.lzma.encode_us");
    let permille = out.len() as u64 * 1000 / data.len().max(1) as u64;
    holo_trace::histogram("compress.lzma.ratio_permille", permille);
    holo_trace::counter("compress.lzma.bytes_in", data.len() as u64);
    holo_trace::counter("compress.lzma.bytes_out", out.len() as u64);
    out
}

fn lzma_compress_inner(data: &[u8]) -> Vec<u8> {
    let mut header = Vec::new();
    write_varint(&mut header, data.len() as u32);
    if data.is_empty() {
        return header;
    }
    let mut enc = RangeEncoder::new();
    let mut models = Models::new();

    // Hash-chain match finder.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev_link = vec![usize::MAX; data.len()];

    let mut i = 0usize;
    let mut last_dist = 0usize;
    let mut after_match = 0usize; // is_match context
    while i < data.len() {
        // Find the best match at i.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            // Try the repeat distance first (cheap to encode).
            if last_dist > 0 && last_dist <= i {
                let l = match_len(data, i - last_dist, i);
                if l >= MIN_MATCH {
                    best_len = l;
                    best_dist = last_dist;
                }
            }
            let h = hash3(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && chain < MAX_CHAIN {
                let l = match_len(data, cand, i);
                // Prefer longer; on ties prefer the repeat distance.
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                }
                cand = prev_link[cand];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            enc.encode_bit(&mut models.is_match[after_match], 1);
            let is_rep = best_dist == last_dist && last_dist != 0;
            enc.encode_bit(&mut models.is_rep, is_rep as u8);
            encode_bucketed(&mut enc, &mut models.len_slot, (best_len - MIN_MATCH) as u32);
            if !is_rep {
                encode_bucketed(&mut enc, &mut models.dist_slot, (best_dist - 1) as u32);
            }
            last_dist = best_dist;
            // Insert all covered positions into the dictionary.
            let end = (i + best_len).min(data.len());
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash3(data, i);
                    prev_link[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
            after_match = 1;
        } else {
            enc.encode_bit(&mut models.is_match[after_match], 0);
            let prev = if i > 0 { data[i - 1] } else { 0 };
            let ctx = Models::lit_ctx(i, prev);
            enc.encode_tree(&mut models.literal[ctx], data[i] as u32);
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                prev_link[i] = head[h];
                head[h] = i;
            }
            i += 1;
            after_match = 0;
        }
    }
    header.extend_from_slice(&enc.finish());
    header
}

fn match_len(data: &[u8], from: usize, at: usize) -> usize {
    let max = (data.len() - at).min(MAX_MATCH);
    let mut l = 0;
    while l < max && data[from + l] == data[at + l] {
        l += 1;
    }
    l
}

/// Decompress a stream produced by [`lzma_compress`]. Records
/// `compress.lzma.decode_us` (wall clock) when tracing is on.
///
/// Hostile-input contract: never panics, and never allocates beyond
/// [`decode_cap`] of the input length — a header-declared size past
/// the cap is a [`DecodeError::LimitExceeded`] *before* any
/// allocation, and a stream that runs out of coded bytes mid-decode is
/// a [`DecodeError::Truncated`] instead of an endless zero-fed loop.
pub fn lzma_decompress(input: &[u8]) -> Result<Vec<u8>, DecodeError> {
    if !holo_trace::enabled() {
        return lzma_decompress_inner(input);
    }
    let timer = holo_trace::WallTimer::start();
    let out = lzma_decompress_inner(input);
    timer.stop("compress.lzma.decode_us");
    if let Ok(bytes) = &out {
        holo_trace::counter("compress.lzma.bytes_decoded", bytes.len() as u64);
    }
    out
}

fn lzma_decompress_inner(input: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let (total, used) = read_varint(input).ok_or(DecodeError::Truncated {
        needed: 1,
        available: input.len(),
    })?;
    let total = total as usize;
    if total == 0 {
        return Ok(Vec::new());
    }
    let cap = decode_cap(input.len());
    if total > cap {
        return Err(DecodeError::LimitExceeded {
            what: "lzma output",
            requested: total as u64,
            limit: cap as u64,
        });
    }
    let coded = &input[used..];
    let mut dec = RangeDecoder::new(coded);
    let mut models = Models::new();
    // Capacity is a bounded hint; growth past it is paid for by real
    // coded bytes (the exhaustion check below stops zero-fed decoding).
    let mut out: Vec<u8> = Vec::with_capacity(total.min(64 << 10));
    let mut last_dist = 0usize;
    let mut after_match = 0usize;
    while out.len() < total {
        if dec.exhausted() {
            return Err(DecodeError::Truncated { needed: total, available: out.len() });
        }
        if dec.decode_bit(&mut models.is_match[after_match]) == 1 {
            let is_rep = dec.decode_bit(&mut models.is_rep) == 1;
            let len = decode_bucketed(&mut dec, &mut models.len_slot) as usize + MIN_MATCH;
            let dist = if is_rep {
                if last_dist == 0 {
                    return Err(DecodeError::corrupt("lzma", "rep distance before any match"));
                }
                last_dist
            } else {
                decode_bucketed(&mut dec, &mut models.dist_slot) as usize + 1
            };
            if dist > out.len() {
                return Err(DecodeError::corrupt(
                    "lzma",
                    format!("distance {dist} exceeds output {}", out.len()),
                ));
            }
            if len > total - out.len() {
                return Err(DecodeError::corrupt("lzma", "match overruns declared length"));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
            last_dist = dist;
            after_match = 1;
        } else {
            let prev = out.last().copied().unwrap_or(0);
            let ctx = Models::lit_ctx(out.len(), prev);
            out.push(dec.decode_tree(&mut models.literal[ctx]) as u8);
            after_match = 0;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_math::Pcg32;
    use holo_runtime::check::{any, collection};
    use holo_runtime::holo_prop;

    fn roundtrip(data: &[u8]) {
        let c = lzma_compress(data);
        let d = lzma_decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[1, 2]);
        roundtrip(&[7; 3]);
        roundtrip(b"ab");
    }

    #[test]
    fn tracing_records_codec_metrics() {
        let data = vec![7u8; 4096];
        holo_trace::traced(|| {
            let c = lzma_compress(&data);
            assert_eq!(lzma_decompress(&c).unwrap(), data);
        });
        let snap = holo_trace::snapshot_json().render();
        for key in [
            "compress.lzma.encode_us",
            "compress.lzma.decode_us",
            "compress.lzma.ratio_permille",
            "compress.lzma.bytes_in",
            "compress.lzma.bytes_out",
        ] {
            assert!(snap.contains(key), "missing {key} in {snap}");
        }
    }

    #[test]
    fn repetitive_compresses_hard() {
        let data = vec![42u8; 100_000];
        let c = lzma_compress(&data);
        assert!(c.len() < 600, "constant stream coded to {} bytes", c.len());
        assert_eq!(lzma_decompress(&c).unwrap(), data);
    }

    #[test]
    fn text_like_data() {
        let data = b"the quick brown fox jumps over the lazy dog. the quick brown fox jumps over the lazy dog. semantic holographic communication."
            .repeat(50);
        let c = lzma_compress(&data);
        assert!(c.len() < data.len() / 5, "text coded {} of {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn random_data_does_not_blow_up() {
        let mut rng = Pcg32::new(1);
        let data: Vec<u8> = (0..20_000).map(|_| rng.next_u32() as u8).collect();
        let c = lzma_compress(&data);
        // Random data is incompressible; overhead must stay small.
        assert!(c.len() < data.len() + data.len() / 16 + 64);
        roundtrip(&data);
    }

    #[test]
    fn float_stream_exploits_lane_structure() {
        // A synthetic pose-like stream: slowly varying floats.
        let mut rng = Pcg32::new(2);
        let mut vals = vec![0.0f32; 2000];
        let mut x = 0.3f32;
        for v in &mut vals {
            x += rng.normal() * 0.01;
            *v = x;
        }
        let bytes: Vec<u8> = vals.iter().flat_map(|f| f.to_le_bytes()).collect();
        let c = lzma_compress(&bytes);
        assert!(c.len() < bytes.len(), "float stream should compress: {} vs {}", c.len(), bytes.len());
        roundtrip(&bytes);
    }

    #[test]
    fn pose_payload_ratio_near_paper() {
        // The Table 2 workload: a real pose payload from the body crate.
        use holo_body::{MotionKind, MotionSynthesizer, PosePayload};
        let mut synth = MotionSynthesizer::new(42);
        let clip = synth.clip(MotionKind::Talking, 2.0, 30.0);
        let mut total_raw = 0usize;
        let mut total_comp = 0usize;
        for f in &clip.frames {
            let payload = PosePayload::new(f.clone(), vec![]);
            let bytes = payload.to_bytes();
            let c = lzma_compress(&bytes);
            assert_eq!(lzma_decompress(&c).unwrap(), bytes);
            total_raw += bytes.len();
            total_comp += c.len();
        }
        let ratio = total_raw as f64 / total_comp as f64;
        // Paper: 1.91 KB -> 1.23 KB, ratio ~1.55. Require meaningful
        // compression in the same regime.
        assert!(ratio > 1.2, "pose stream ratio {ratio:.2}");
    }

    #[test]
    fn corrupted_stream_errors_not_panics() {
        let data = b"hello world hello world hello world".repeat(20);
        let mut c = lzma_compress(&data);
        // Truncate hard.
        c.truncate(c.len() / 2);
        // Either an error or wrong output, but never a panic.
        let _ = lzma_decompress(&c);
        // Garbage input.
        let _ = lzma_decompress(&[0xFF, 0xFF, 0x03, 1, 2, 3]);
    }

    holo_prop! {
        #![cases(64)]

        fn prop_roundtrip(data in collection::vec(any::<u8>(), 0..4096)) {
            roundtrip(&data);
        }

        fn prop_roundtrip_structured(
            seed in any::<u64>(),
            n in 1usize..2000,
            period in 1usize..32,
        ) {
            // Periodic data with noise: exercises match finding heavily.
            let mut rng = Pcg32::new(seed);
            let pattern: Vec<u8> = (0..period).map(|_| rng.next_u32() as u8).collect();
            let data: Vec<u8> = (0..n)
                .map(|i| {
                    if rng.chance(0.05) {
                        rng.next_u32() as u8
                    } else {
                        pattern[i % period]
                    }
                })
                .collect();
            roundtrip(&data);
        }
    }
}
