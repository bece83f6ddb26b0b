//! Two-step global + local channel coding (§3.3).
//!
//! Partitioning the human model into cells loses global structure — the
//! paper's fix is a two-step encoding: "First, we encode global features
//! with a dedicated text channel. Following this, we design fine-grained
//! local feature channels with reference to the global one." Here the
//! global channel carries each coarse region's centroid (finely
//! quantized), and the decoder rigidly shifts every coarse region of the
//! locally-decoded cloud so its centroid matches the global channel —
//! restoring the overall body pose that per-cell quantization distorts.

use crate::caption::{Caption, Captioner};
use crate::cells::CellPartition;
use crate::decode::TextToCloud;
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_compress::primitives::{read_varint, write_varint};
use holo_math::Vec3;
use holo_runtime::ser::DecodeError;
use holo_mesh::pointcloud::PointCloud;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// The global channel: per-coarse-cell centroids quantized to 8 bits per
/// component within the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalChannel {
    /// `(coarse cell index, quantized centroid [0,255]^3)`.
    pub entries: Vec<(u32, [u8; 3])>,
}

impl GlobalChannel {
    /// Serialize (varint + LZMA).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut raw = Vec::new();
        write_varint(&mut raw, self.entries.len() as u32);
        let mut prev = 0u32;
        for &(cell, q) in &self.entries {
            write_varint(&mut raw, cell - prev);
            raw.extend_from_slice(&q);
            prev = cell;
        }
        lzma_compress(&raw)
    }

    /// Parse.
    ///
    /// Hostile-input contract: an entry costs at least 4 bytes (one
    /// varint + 3 centroid bytes), so the declared count is bounded by
    /// the decompressed length before allocation.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        let raw = lzma_decompress(data)?;
        let (count, mut pos) = read_varint(&raw)
            .ok_or(DecodeError::Truncated { needed: 1, available: raw.len() })?;
        let budget = raw.len().saturating_sub(pos) / 4;
        if count as usize > budget {
            return Err(DecodeError::LimitExceeded {
                what: "global channel entries",
                requested: count as u64,
                limit: budget as u64,
            });
        }
        let mut entries = Vec::with_capacity(count as usize);
        let mut prev = 0u32;
        for _ in 0..count {
            let (dc, used) = read_varint(&raw[pos..])
                .ok_or(DecodeError::Truncated { needed: pos + 1, available: raw.len() })?;
            pos += used;
            if pos + 3 > raw.len() {
                return Err(DecodeError::Truncated { needed: pos + 3, available: raw.len() });
            }
            prev = prev.wrapping_add(dc);
            entries.push((prev, [raw[pos], raw[pos + 1], raw[pos + 2]]));
            pos += 3;
        }
        Ok(Self { entries })
    }
}

/// The two-step codec: a coarse global partition plus a fine local
/// captioner/decoder pair.
pub struct GlobalLocalCodec {
    /// Coarse partition for the global channel (e.g. 4^3).
    pub global_partition: CellPartition,
    /// Fine captioner (local channel).
    pub captioner: Captioner,
    /// Fine decoder.
    pub decoder: TextToCloud,
}

impl GlobalLocalCodec {
    /// Encode both channels.
    pub fn encode(&self, points: &[Vec3]) -> (GlobalChannel, Caption) {
        (self.global(points), self.captioner.caption(points))
    }

    /// Encode the global channel alone (a sender with its own local
    /// caption, e.g. a sticky one, needs only this half).
    pub fn global(&self, points: &[Vec3]) -> GlobalChannel {
        // Global: centroid of the points in each coarse cell. BTreeMap
        // iteration is already in cell order, so the channel's entry
        // order is canonical by construction.
        let mut acc: BTreeMap<u32, (Vec3, u32)> = BTreeMap::new();
        for &p in points {
            if let Some(c) = self.global_partition.cell_of(p) {
                let e = acc.entry(c).or_insert((Vec3::ZERO, 0));
                e.0 += p;
                e.1 += 1;
            }
        }
        let s = self.global_partition.cell_size();
        let entries: Vec<(u32, [u8; 3])> = acc
            .into_iter()
            .map(|(cell, (sum, n))| {
                let centroid = sum / n as f32;
                let center = self.global_partition.cell_center(cell);
                let rel = centroid - center;
                let q = |v: f32, s: f32| (((v / s + 0.5).clamp(0.0, 1.0)) * 255.0).round() as u8;
                (cell, [q(rel.x, s.x), q(rel.y, s.y), q(rel.z, s.z)])
            })
            .collect();
        GlobalChannel { entries }
    }

    /// Decode. When `global` is present, coarse regions are rigidly
    /// shifted so their centroids match the global channel.
    pub fn decode(&self, global: Option<&GlobalChannel>, local: &Caption) -> PointCloud {
        let mut cloud = self.decoder.decode(local);
        let Some(global) = global else {
            return cloud;
        };
        let s = self.global_partition.cell_size();
        // Target centroid per coarse cell.
        let mut target: HashMap<u32, Vec3> = HashMap::new();
        for &(cell, q) in &global.entries {
            let center = self.global_partition.cell_center(cell);
            let dq = |b: u8, s: f32| (b as f32 / 255.0 - 0.5) * s;
            target.insert(cell, center + Vec3::new(dq(q[0], s.x), dq(q[1], s.y), dq(q[2], s.z)));
        }
        // Current centroid per coarse cell of the decoded cloud.
        // Ordered like the encoder's accumulator, so any future
        // iteration over it stays canonical.
        let mut acc: BTreeMap<u32, (Vec3, u32)> = BTreeMap::new();
        let assignment: Vec<Option<u32>> =
            cloud.points.iter().map(|&p| self.global_partition.cell_of(p)).collect();
        for (p, cell) in cloud.points.iter().zip(&assignment) {
            if let Some(c) = cell {
                let e = acc.entry(*c).or_insert((Vec3::ZERO, 0));
                e.0 += *p;
                e.1 += 1;
            }
        }
        let shift: HashMap<u32, Vec3> = acc
            .into_iter()
            .filter_map(|(cell, (sum, n))| {
                target.get(&cell).map(|t| (cell, *t - sum / n as f32))
            })
            .collect();
        for (p, cell) in cloud.points.iter_mut().zip(&assignment) {
            if let Some(c) = cell {
                if let Some(d) = shift.get(c) {
                    *p += *d;
                }
            }
        }
        cloud
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellFeature;
    use crate::vq::Codebook;
    use holo_math::Pcg32;
    use holo_mesh::metrics::chamfer_distance;

    fn codec(local_vocab: usize, seed: u64) -> GlobalLocalCodec {
        let fine = CellPartition::body_volume(12);
        let mut rng = Pcg32::new(seed);
        let corpus: Vec<CellFeature> = (0..600)
            .map(|_| {
                CellFeature([
                    rng.next_f32(),
                    rng.range_f32(-0.5, 0.5),
                    rng.range_f32(-0.5, 0.5),
                    rng.range_f32(-0.5, 0.5),
                    rng.next_f32(),
                    rng.next_f32(),
                    rng.next_f32(),
                ])
            })
            .collect();
        let codebook = Codebook::train(&corpus, local_vocab, 8, &mut rng);
        GlobalLocalCodec {
            global_partition: CellPartition::body_volume(4),
            captioner: Captioner { partition: fine.clone(), codebook: codebook.clone() },
            decoder: TextToCloud::new(fine, codebook),
        }
    }

    fn body_cloud(seed: u64) -> Vec<Vec3> {
        let mut rng = Pcg32::new(seed);
        (0..6000)
            .map(|_| Vec3::new(rng.normal() * 0.2, 1.0 + rng.normal() * 0.4, rng.normal() * 0.12))
            .collect()
    }

    #[test]
    fn global_channel_roundtrips() {
        let c = codec(64, 1);
        let cloud = body_cloud(2);
        let (global, _) = c.encode(&cloud);
        assert!(!global.entries.is_empty());
        let back = GlobalChannel::from_bytes(&global.to_bytes()).unwrap();
        assert_eq!(back, global);
    }

    #[test]
    fn global_correction_improves_reconstruction() {
        // A tiny local vocabulary has large per-cell quantization bias;
        // the global channel must pull coarse centroids back into place.
        let c = codec(4, 3);
        let cloud = body_cloud(4);
        let (global, local) = c.encode(&cloud);
        let without = c.decode(None, &local);
        let with = c.decode(Some(&global), &local);
        let err_without = chamfer_distance(&cloud, &without.points);
        let err_with = chamfer_distance(&cloud, &with.points);
        assert!(
            err_with < err_without,
            "global channel must help: with {err_with} without {err_without}"
        );
    }

    #[test]
    fn global_channel_is_small() {
        let c = codec(64, 5);
        let cloud = body_cloud(6);
        let (global, local) = c.encode(&cloud);
        let gb = global.to_bytes().len();
        let lb = local.to_bytes().len();
        assert!(gb < lb, "global {gb} B should be smaller than local {lb} B");
        assert!(gb < 400, "global channel {gb} B");
    }

    #[test]
    fn decode_without_global_still_works() {
        let c = codec(64, 7);
        let cloud = body_cloud(8);
        let (_, local) = c.encode(&cloud);
        let recon = c.decode(None, &local);
        assert!(!recon.is_empty());
    }

    #[test]
    fn corrupt_global_errors() {
        let raw = lzma_compress(&[3, 0]); // 3 entries, truncated
        assert!(GlobalChannel::from_bytes(&raw).is_err());
    }
}
