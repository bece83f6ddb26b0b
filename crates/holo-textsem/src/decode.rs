//! Text-to-3D: regenerate a point cloud from a caption.
//!
//! The decoder inverts the captioner: each token decodes to its codebook
//! feature (density, centroid offset, extent), and points are generated
//! deterministically inside the cell to match those statistics — the
//! generative step standing in for a text-to-3D diffusion model.

use crate::caption::Caption;
use crate::cells::CellPartition;
use crate::vq::Codebook;
use holo_math::{Pcg32, Vec3};
use holo_mesh::pointcloud::PointCloud;

/// The text-to-3D decoder.
#[derive(Debug, Clone)]
pub struct TextToCloud {
    /// Cell partition (must match the captioner's).
    pub partition: CellPartition,
    /// Vocabulary (must match the captioner's).
    pub codebook: Codebook,
    /// Points generated per unit density (cell fully dense = this many).
    pub points_per_cell: u32,
}

impl TextToCloud {
    /// Build a decoder.
    pub fn new(partition: CellPartition, codebook: Codebook) -> Self {
        Self { partition, codebook, points_per_cell: 48 }
    }

    /// Decode a caption into a point cloud. Deterministic: the same
    /// caption always produces the same cloud (generation is seeded by
    /// cell index).
    pub fn decode(&self, caption: &Caption) -> PointCloud {
        let mut cloud = PointCloud::new();
        let s = self.partition.cell_size();
        for &(cell, token) in &caption.tokens {
            let Some(feature) = self.codebook.decode(token) else {
                continue;
            };
            let f = feature.0;
            let center = self.partition.cell_center(cell)
                + Vec3::new(f[1] * s.x, f[2] * s.y, f[3] * s.z);
            let half_ext = Vec3::new(
                (f[4] * s.x * 0.5).max(0.001),
                (f[5] * s.y * 0.5).max(0.001),
                (f[6] * s.z * 0.5).max(0.001),
            );
            let count = ((f[0] * self.points_per_cell as f32).ceil() as u32).max(1);
            // Seeded per cell so decoding is reproducible and temporally
            // stable (unchanged cells regenerate identical points).
            let mut rng = Pcg32::with_stream(cell as u64, 0x7e77);
            for _ in 0..count {
                cloud.points.push(
                    center
                        + Vec3::new(
                            rng.range_f32(-1.0, 1.0) * half_ext.x,
                            rng.range_f32(-1.0, 1.0) * half_ext.y,
                            rng.range_f32(-1.0, 1.0) * half_ext.z,
                        ),
                );
            }
        }
        cloud
    }

    /// The reconstruction compute cost in "generator evaluations" (one
    /// per produced point) — the quantity the GPU model converts to time.
    pub fn decode_cost(&self, caption: &Caption) -> u64 {
        caption
            .tokens
            .iter()
            .filter_map(|&(_, t)| self.codebook.decode(t))
            .map(|f| ((f.0[0] * self.points_per_cell as f32).ceil() as u64).max(1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caption::Captioner;
    use crate::cells::CellFeature;
    use holo_mesh::metrics::chamfer_distance;

    fn setup(seed: u64) -> (Captioner, TextToCloud) {
        let partition = CellPartition::body_volume(12);
        let mut rng = Pcg32::new(seed);
        let corpus: Vec<CellFeature> = (0..800)
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
        let codebook = Codebook::train(&corpus, 128, 10, &mut rng);
        let cap = Captioner { partition: partition.clone(), codebook: codebook.clone() };
        let dec = TextToCloud::new(partition, codebook);
        (cap, dec)
    }

    fn body_cloud(seed: u64) -> Vec<Vec3> {
        let mut rng = Pcg32::new(seed);
        (0..8000)
            .map(|_| Vec3::new(rng.normal() * 0.2, 1.0 + rng.normal() * 0.45, rng.normal() * 0.12))
            .collect()
    }

    #[test]
    fn reconstruction_close_to_original() {
        let (cap, dec) = setup(1);
        let cloud = body_cloud(2);
        let caption = cap.caption(&cloud);
        let recon = dec.decode(&caption);
        assert!(!recon.is_empty());
        let d = chamfer_distance(&cloud, &recon.points);
        // Cell size is ~17 cm; reconstruction should be well under one
        // cell of error.
        assert!(d < 0.09, "chamfer {d}");
    }

    #[test]
    fn finer_partition_better_reconstruction() {
        let cloud = body_cloud(3);
        let run = |dims: u32| {
            let partition = CellPartition::body_volume(dims);
            let mut rng = Pcg32::new(4);
            let corpus: Vec<CellFeature> =
                partition.features(&cloud).into_iter().map(|(_, f)| f).collect();
            let codebook = Codebook::train(&corpus, 64, 8, &mut rng);
            let cap = Captioner { partition: partition.clone(), codebook: codebook.clone() };
            let dec = TextToCloud::new(partition, codebook);
            let recon = dec.decode(&cap.caption(&cloud));
            chamfer_distance(&cloud, &recon.points)
        };
        let coarse = run(4);
        let fine = run(16);
        assert!(fine < coarse, "coarse {coarse} fine {fine}");
    }

    #[test]
    fn decoding_is_deterministic() {
        let (cap, dec) = setup(5);
        let caption = cap.caption(&body_cloud(6));
        let a = dec.decode(&caption);
        let b = dec.decode(&caption);
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn decode_cost_tracks_occupancy() {
        let (cap, dec) = setup(7);
        let small = cap.caption(&body_cloud(8)[..500]);
        let large = cap.caption(&body_cloud(8));
        assert!(dec.decode_cost(&large) > dec.decode_cost(&small));
    }

    #[test]
    fn empty_caption_empty_cloud() {
        let (_, dec) = setup(9);
        let recon = dec.decode(&Caption { tokens: vec![] });
        assert!(recon.is_empty());
        assert_eq!(dec.decode_cost(&Caption { tokens: vec![] }), 0);
    }
}
