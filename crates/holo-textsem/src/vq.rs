//! Vector-quantized codebooks: the "vocabulary" of the text semantics.

use crate::cells::{CellFeature, FEATURE_DIM};
use holo_math::Pcg32;

/// A k-means codebook over cell features. Token ids are indices into the
/// codebook; the token sequence is the "text".
#[derive(Debug, Clone)]
pub struct Codebook {
    /// Cluster centers.
    pub centers: Vec<[f32; FEATURE_DIM]>,
}

fn dist_sq(a: &[f32; FEATURE_DIM], b: &[f32; FEATURE_DIM]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl Codebook {
    /// Train with k-means (k-means++ seeding, fixed iterations, seeded).
    pub fn train(corpus: &[CellFeature], k: usize, iterations: usize, rng: &mut Pcg32) -> Self {
        assert!(!corpus.is_empty(), "empty training corpus");
        let k = k.min(corpus.len()).max(1);
        // k-means++ initialization.
        let mut centers: Vec<[f32; FEATURE_DIM]> = Vec::with_capacity(k);
        centers.push(corpus[rng.index(corpus.len())].0);
        while centers.len() < k {
            // Choose the next center proportional to squared distance.
            let d2: Vec<f32> = corpus
                .iter()
                .map(|f| centers.iter().map(|c| dist_sq(&f.0, c)).fold(f32::INFINITY, f32::min))
                .collect();
            let total: f32 = d2.iter().sum();
            if total <= 1e-12 {
                // All points identical; duplicate the center.
                centers.push(centers[0]);
                continue;
            }
            let mut r = rng.next_f32() * total;
            let mut chosen = corpus.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                r -= d;
                if r <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            centers.push(corpus[chosen].0);
        }
        // Lloyd iterations.
        for _ in 0..iterations {
            let mut sums = vec![[0f32; FEATURE_DIM]; k];
            let mut counts = vec![0u32; k];
            for f in corpus {
                let best = Self::nearest(&centers, &f.0);
                counts[best] += 1;
                for (s, v) in sums[best].iter_mut().zip(&f.0) {
                    *s += v;
                }
            }
            for (ci, center) in centers.iter_mut().enumerate() {
                if counts[ci] > 0 {
                    for (c, s) in center.iter_mut().zip(&sums[ci]) {
                        *c = s / counts[ci] as f32;
                    }
                }
            }
        }
        Self { centers }
    }

    fn nearest(centers: &[[f32; FEATURE_DIM]], f: &[f32; FEATURE_DIM]) -> usize {
        let mut best = 0;
        let mut bd = f32::INFINITY;
        for (i, c) in centers.iter().enumerate() {
            let d = dist_sq(c, f);
            if d < bd {
                bd = d;
                best = i;
            }
        }
        best
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True when empty (never for trained codebooks).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Quantize a feature to its token id.
    pub fn quantize(&self, f: &CellFeature) -> u16 {
        Self::nearest(&self.centers, &f.0) as u16
    }

    /// Decode a token back to its (centroid) feature.
    pub fn decode(&self, token: u16) -> Option<CellFeature> {
        self.centers.get(token as usize).map(|c| CellFeature(*c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Codebook {
        /// Mean quantization error over a corpus (feature-space RMS).
        fn quantization_rms(&self, corpus: &[CellFeature]) -> f32 {
            if corpus.is_empty() {
                return 0.0;
            }
            let sum: f32 = corpus
                .iter()
                .map(|f| dist_sq(&self.centers[self.quantize(f) as usize], &f.0))
                .sum();
            (sum / corpus.len() as f32).sqrt()
        }
    }

    fn synthetic_corpus(n: usize, seed: u64) -> Vec<CellFeature> {
        // Three latent clusters.
        let mut rng = Pcg32::new(seed);
        (0..n)
            .map(|_| {
                let c = rng.index(3) as f32;
                let mut f = [0f32; FEATURE_DIM];
                for (k, v) in f.iter_mut().enumerate() {
                    *v = c * 0.3 + (k as f32 * 0.05) + rng.normal() * 0.02;
                }
                CellFeature(f)
            })
            .collect()
    }

    #[test]
    fn kmeans_recovers_clusters() {
        let corpus = synthetic_corpus(600, 1);
        let mut rng = Pcg32::new(2);
        let cb = Codebook::train(&corpus, 3, 12, &mut rng);
        assert_eq!(cb.len(), 3);
        let rms = cb.quantization_rms(&corpus);
        assert!(rms < 0.1, "quantization RMS {rms}");
    }

    #[test]
    fn bigger_codebook_lower_error() {
        let corpus = synthetic_corpus(800, 3);
        let mut rng = Pcg32::new(4);
        let small = Codebook::train(&corpus, 2, 10, &mut rng.fork(1));
        let large = Codebook::train(&corpus, 16, 10, &mut rng.fork(2));
        assert!(large.quantization_rms(&corpus) < small.quantization_rms(&corpus));
    }

    #[test]
    fn quantize_decode_roundtrip_to_center() {
        let corpus = synthetic_corpus(300, 5);
        let mut rng = Pcg32::new(6);
        let cb = Codebook::train(&corpus, 8, 10, &mut rng);
        for f in corpus.iter().take(50) {
            let tok = cb.quantize(f);
            let back = cb.decode(tok).unwrap();
            // Re-quantizing the decoded center gives the same token.
            assert_eq!(cb.quantize(&back), tok);
        }
        assert!(cb.decode(9999).is_none());
    }

    #[test]
    fn degenerate_corpus_handled() {
        let corpus = vec![CellFeature([0.5; FEATURE_DIM]); 20];
        let mut rng = Pcg32::new(7);
        let cb = Codebook::train(&corpus, 4, 5, &mut rng);
        assert!(cb.quantization_rms(&corpus) < 1e-6);
    }

    #[test]
    fn deterministic_training() {
        let corpus = synthetic_corpus(200, 8);
        let a = Codebook::train(&corpus, 4, 8, &mut Pcg32::new(9));
        let b = Codebook::train(&corpus, 4, 8, &mut Pcg32::new(9));
        assert_eq!(a.centers, b.centers);
    }
}
