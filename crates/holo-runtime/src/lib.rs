//! Zero-dependency runtime substrate for the SemHolo workspace.
//!
//! Everything the workspace previously pulled from crates.io lives here,
//! so a cold-cache `cargo build --offline` succeeds with no network:
//!
//! - [`bytes`] — [`bytes::Bytes`], the cheap-clone `Arc<[u8]>` frame
//!   payloads travel in.
//! - [`check`] — a deterministic property-testing mini-framework:
//!   seeded shrinking generators driven by the [`holo_prop!`] macro.
//!   Override the base seed with the `HOLO_PROP_SEED` env var.
//! - [`bench`] — a criterion-compatible micro-bench harness (warmup,
//!   per-sample timing, median/p95) that writes `BENCH_<name>.json` at
//!   the repo root for the perf trajectory.
//! - [`ser`] — a minimal derive-free JSON emitter ([`ser::ToJson`]) and
//!   parser, used for bench reports and structured test assertions,
//!   plus the hostile-input decode primitives every wire-facing decoder
//!   shares: the typed [`ser::DecodeError`] taxonomy and the
//!   bounds-checked [`ser::ByteReader`] cursor.
//! - [`par`] — the deterministic fork-join pool (`par_map`/`scope`):
//!   fixed index partitioning, canonical-order merge, panic
//!   propagation, and observer hooks so `holo-trace` can merge worker
//!   recorders byte-identically across `SEMHOLO_THREADS=1..N`.
//! - [`fnv1a64`] — the one FNV-1a digest behind every pinned golden
//!   and every name-derived seed in the workspace.

pub mod bench;
pub mod bytes;
pub mod check;
pub mod par;
pub mod ser;

/// 64-bit FNV-1a over `bytes`: stable across runs and platforms, so it
/// pins "these exact bytes" in goldens and derives seeds from names.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv1a64;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
