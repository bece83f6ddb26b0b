//! The decode-target registry: every public SemHolo wire decoder
//! behind one closure type.
//!
//! A [`Target`] bundles a decoder with its corpus and its declared
//! allocation cap. Stateful decoders (temporal mesh, Gaussian update) are
//! rebuilt and primed with a *valid* keyframe on every call, so each
//! mutant sees the same decoder state — determinism and isolation in
//! one move.
//!
//! Caps are deliberate tripwires, not tight bounds: corpus inputs are a
//! few KB, so an honest decoder peaks in the low megabytes (LZMA's
//! ratio cap × input size). A decoder that feeds a forged count into
//! `Vec::with_capacity` before validating it blows through 64 MiB
//! instantly.

use crate::corpus;
use holo_gaussian::GaussianUpdateDecoder;
use holo_runtime::ser::DecodeError;

/// One fuzzed decoder.
pub struct Target {
    /// Stable name (keys the report; dotted `crate.decoder` form).
    pub name: &'static str,
    /// Real encoder outputs mutants derive from.
    pub corpus: Vec<Vec<u8>>,
    /// Peak-allocation cap per decode call, bytes.
    pub alloc_cap: usize,
    /// The decoder under test. `Send + Sync` so the sweep can share
    /// the registry across fork-join workers; stateful decoders rebuild
    /// their state per call, so a shared closure is still isolated.
    #[allow(clippy::type_complexity)]
    pub decode: Box<dyn Fn(&[u8]) -> Result<(), DecodeError> + Send + Sync>,
}

const MIB: usize = 1 << 20;

/// Build the full registry for `seed`. Every public decoder that ever
/// sees network bytes must be listed here — `tests/hostile_wire.rs`
/// sweeps this same registry, so adding a decoder buys its hostile
/// coverage for free.
pub fn registry(seed: u64) -> Vec<Target> {
    let (temporal_key, temporal_items) = corpus::temporal_corpus(seed);
    let (gaussian_key, gaussian_items) = corpus::gaussian_update_corpus(seed);
    vec![
        Target {
            name: "meshcodec.decode_mesh",
            corpus: corpus::mesh_corpus(seed),
            alloc_cap: 64 * MIB,
            decode: Box::new(|d| holo_compress::meshcodec::decode_mesh(d).map(|_| ())),
        },
        Target {
            name: "meshcodec.temporal",
            corpus: temporal_items,
            alloc_cap: 64 * MIB,
            decode: Box::new(move |d| {
                let mut dec = holo_compress::temporal::TemporalMeshDecoder::new();
                dec.decode(&temporal_key)?;
                dec.decode(d).map(|_| ())
            }),
        },
        Target {
            name: "lzma.decompress",
            corpus: corpus::lzma_corpus(seed),
            alloc_cap: 64 * MIB,
            decode: Box::new(|d| holo_compress::lzma::lzma_decompress(d).map(|_| ())),
        },
        Target {
            name: "texture.decompress",
            corpus: corpus::texture_corpus(),
            alloc_cap: 64 * MIB,
            decode: Box::new(|d| holo_compress::texture::TextureCodec::decompress(d).map(|_| ())),
        },
        Target {
            name: "textsem.caption",
            corpus: corpus::caption_corpus(seed),
            alloc_cap: 32 * MIB,
            decode: Box::new(|d| holo_textsem::caption::Caption::from_bytes(d).map(|_| ())),
        },
        Target {
            name: "textsem.global_channel",
            corpus: corpus::global_corpus(seed),
            alloc_cap: 32 * MIB,
            decode: Box::new(|d| {
                holo_textsem::channels::GlobalChannel::from_bytes(d).map(|_| ())
            }),
        },
        Target {
            name: "textsem.delta_ops",
            corpus: corpus::delta_ops_corpus(seed),
            alloc_cap: 32 * MIB,
            decode: Box::new(|d| holo_textsem::delta::DeltaCoder::ops_from_bytes(d).map(|_| ())),
        },
        Target {
            name: "body.pose_payload",
            corpus: corpus::pose_payload_corpus(seed),
            alloc_cap: 8 * MIB,
            decode: Box::new(|d| holo_body::params::PosePayload::from_bytes(d).map(|_| ())),
        },
        Target {
            name: "gaussian.prebuild",
            corpus: corpus::gaussian_prebuild_corpus(seed),
            alloc_cap: 64 * MIB,
            decode: Box::new(|d| holo_gaussian::decode_prebuild(d).map(|_| ())),
        },
        Target {
            name: "gaussian.update",
            corpus: gaussian_items,
            alloc_cap: 32 * MIB,
            decode: Box::new(move |d| {
                let mut dec = GaussianUpdateDecoder::new();
                dec.decode(&gaussian_key)?;
                dec.decode(d).map(|_| ())
            }),
        },
        Target {
            name: "net.wire_frame",
            corpus: corpus::wire_corpus(seed),
            alloc_cap: 8 * MIB,
            decode: Box::new(|d| holo_net::wire::WireFrame::decode(d).map(|_| ())),
        },
        Target {
            name: "net.uep_header",
            corpus: corpus::uep_header_corpus(seed),
            alloc_cap: MIB,
            decode: Box::new(|d| holo_net::wire::UepHeader::decode(d).map(|_| ())),
        },
        Target {
            name: "core.raw_mesh",
            corpus: corpus::raw_mesh_corpus(seed),
            alloc_cap: 32 * MIB,
            decode: Box::new(|d| semholo::traditional::mesh_from_raw_bytes(d).map(|_| ())),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_decoder() {
        let mut names: Vec<&str> = registry(7).iter().map(|t| t.name).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "body.pose_payload",
                "core.raw_mesh",
                "gaussian.prebuild",
                "gaussian.update",
                "lzma.decompress",
                "meshcodec.decode_mesh",
                "meshcodec.temporal",
                "net.uep_header",
                "net.wire_frame",
                "textsem.caption",
                "textsem.delta_ops",
                "textsem.global_channel",
                "texture.decompress",
            ],
            "a decoder went missing, was added unlisted, or is listed twice"
        );
    }

    #[test]
    fn every_corpus_item_round_trips() {
        // The third leg of the contract: real encoder output decodes.
        for t in registry(7) {
            for (i, item) in t.corpus.iter().enumerate() {
                (t.decode)(item).unwrap_or_else(|e| {
                    panic!("{} corpus[{i}] failed to round-trip: {e}", t.name)
                });
            }
        }
    }

    #[test]
    fn targets_reject_garbage_without_panicking() {
        let garbage = [0xDEu8; 64];
        for t in registry(7) {
            assert!((t.decode)(&garbage).is_err(), "{} accepted garbage", t.name);
            assert!((t.decode)(&[]).is_err(), "{} accepted empty input", t.name);
        }
    }
}
