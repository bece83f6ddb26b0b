//! Compression substrate for the SemHolo reproduction.
//!
//! Table 2 of the paper compresses the keypoint-semantics pose stream with
//! **LZMA** (1.91 KB → 1.23 KB per frame) and the traditional mesh stream
//! with **Draco** (397.7 KB → 42.1 KB per frame). Neither is available as
//! a sanctioned offline crate, so this crate implements the same algorithm
//! families from scratch:
//!
//! - `rc` (private) — an adaptive binary range coder, with adaptive bit
//!   models, bit trees, and direct bits: the entropy backbone of
//!   [`lzma`] and [`closedloop`].
//! - [`rans`] — static table-driven rANS over buffered symbol arrays, the
//!   mesh path's entropy coder.
//! - [`primitives`] — zigzag, varint, quantization and bucket transforms.
//! - [`lzma`] — an LZ77 codec with hash-chain match finding, order-1
//!   literal contexts, and rep-distance modeling: structurally an LZMA
//!   sibling, used everywhere the paper says "LZMA".
//! - [`meshcodec`] — a Draco-class triangle-mesh codec: connectivity by
//!   region-growing traversal with implicit vertex numbering, positions by
//!   quantization + parallelogram prediction, everything rANS-coded.
//! - [`texture`] — a DXT/BTC-style 4x4 block texture codec (4 bpp), the
//!   "compressed 2D texture" channel of §3.1.
//! - [`temporal`] — inter-frame mesh compression for fixed-topology
//!   streams (connectivity once, closed-loop position deltas after), the
//!   Draco-animation-class upgrade of the traditional baseline.
//! - [`closedloop`] — the closed-loop quantized vector delta chain under
//!   the gaussian-update stream.
//!
//! All codecs are deterministic and round-trip tested (holo_prop!).

pub mod closedloop;
pub mod lzma;
pub mod temporal;
pub mod meshcodec;
pub mod primitives;
pub mod rans;
mod rc;
pub mod texture;

pub use lzma::{lzma_compress, lzma_decompress};
pub use meshcodec::{decode_mesh, encode_mesh, MeshCodecConfig, MeshEncoder};
pub use temporal::{TemporalMeshDecoder, TemporalMeshEncoder};
pub use texture::{Texture, TextureCodec};
