//! Closed-loop quantized vector deltas: the keyframe/delta chain behind
//! `holo-gaussian::update`.
//!
//! The stream sends a parameter vector whose components move a little
//! each frame. A keyframe (the caller's own format) gives both ends the
//! same reference vector; every frame after codes, per component, the
//! difference to the reference as a multiple of that component's step
//! (zigzag, bucketed under one adaptive 6-bit slot tree) and moves the
//! reference by exactly what was coded. The encoder therefore tracks the
//! receiver's reconstruction, and quantization error never accumulates.

use crate::primitives::{quantize, unzigzag, zigzag};
use crate::rc::{decode_bucketed, encode_bucketed, BitTree, RangeDecoder, RangeEncoder};
use holo_runtime::ser::DecodeError;

/// Sender half of a chain: the receiver's reference and the key cadence.
#[derive(Default)]
pub struct ClosedLoopEncoder {
    reference: Option<Vec<f32>>,
    frames_since_key: u32,
}

impl ClosedLoopEncoder {
    /// Whether the next frame must be a keyframe: there is no reference
    /// yet, or `keyframe_interval` (0 = never) deltas followed the last.
    pub fn key_due(&self, keyframe_interval: u32) -> bool {
        self.reference.is_none()
            || (keyframe_interval > 0 && self.frames_since_key >= keyframe_interval)
    }

    /// Restart the chain from `reference`: the vector the receiver holds
    /// once it has decoded the keyframe the caller is about to send.
    pub fn key(&mut self, reference: Vec<f32>) {
        self.frames_since_key = 0;
        self.reference = Some(reference);
    }

    /// Code `current` against the reference with component `i` quantized
    /// to `step_of(i)`, and advance the reference by what was coded.
    /// Panics before the first [`key`](Self::key).
    pub fn delta(&mut self, current: &[f32], step_of: impl Fn(usize) -> f32) -> Vec<u8> {
        let reference = self.reference.as_mut().expect("delta before any keyframe");
        self.frames_since_key += 1;
        let mut enc = RangeEncoder::new();
        let mut tree = BitTree::new(6);
        for (i, (r, &c)) in reference.iter_mut().zip(current).enumerate() {
            let step = step_of(i);
            let q = quantize(c - *r, step);
            encode_bucketed(&mut enc, &mut tree, zigzag(q));
            *r += q as f32 * step; // closed loop
        }
        enc.finish()
    }
}

/// Receiver half of a chain.
#[derive(Default)]
pub struct ClosedLoopDecoder {
    reference: Option<Vec<f32>>,
}

impl ClosedLoopDecoder {
    /// Adopt a decoded keyframe's vector as the reference.
    pub fn key(&mut self, reference: Vec<f32>) {
        self.reference = Some(reference);
    }

    /// Apply one delta frame's coded bytes and return the updated vector.
    /// `step_of` must match the encoder's; `context` names the stream in
    /// errors.
    ///
    /// Hostile-input contract: a delta before any keyframe is rejected
    /// (the loop has no basis yet), and one whose coded bytes run dry is
    /// rejected with the reference rolled back (zero-fed deltas would
    /// silently corrupt the closed loop).
    pub fn delta(
        &mut self,
        body: &[u8],
        context: &'static str,
        step_of: impl Fn(usize) -> f32,
    ) -> Result<&[f32], DecodeError> {
        let reference = self
            .reference
            .as_mut()
            .ok_or_else(|| DecodeError::corrupt(context, "delta frame before any keyframe"))?;
        let mut dec = RangeDecoder::new(body);
        let mut tree = BitTree::new(6);
        let mut next = reference.clone();
        for (i, r) in next.iter_mut().enumerate() {
            if dec.exhausted() {
                return Err(DecodeError::Truncated { needed: reference.len(), available: i });
            }
            let q = unzigzag(decode_bucketed(&mut dec, &mut tree));
            *r += q as f32 * step_of(i);
        }
        *reference = next;
        Ok(reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_tracks_keys_rolls_back_and_never_drifts() {
        let step_of = |i: usize| if i < 20 { 0.01 } else { 0.002 };
        let frame = |t: usize| -> Vec<f32> {
            (0..40).map(|i| ((t * 7 + i * 3) as f32 * 0.05).sin()).collect()
        };
        let mut enc = ClosedLoopEncoder::default();
        let mut dec = ClosedLoopDecoder::default();
        assert!(dec.delta(&[1, 2, 3], "test", step_of).is_err(), "delta before key");
        let mut keys = 0;
        for t in 0..30 {
            let current = frame(t);
            if enc.key_due(4) {
                keys += 1;
                enc.key(current.clone());
                dec.key(current);
                continue;
            }
            let coded = enc.delta(&current, step_of);
            assert!(dec.delta(&coded[..1], "test", step_of).is_err(), "starved delta");
            let got = dec.delta(&coded, "test", step_of).unwrap();
            assert_eq!(got, enc.reference.as_deref().unwrap(), "both ends hold the same vector");
            for (i, (g, c)) in got.iter().zip(&current).enumerate() {
                assert!((g - c).abs() <= step_of(i) * 0.5 + 1e-6, "frame {t} component {i}");
            }
        }
        assert_eq!(keys, 6, "a key, then one after every four deltas");
        assert!(!ClosedLoopEncoder { reference: Some(vec![]), frames_since_key: 9 }.key_due(0));
    }
}
