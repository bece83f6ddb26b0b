//! XOR-parity forward error correction over semantic frames.
//!
//! Frames are grouped `k` data + `r` parity. Parity block `p` is the
//! XOR of the data frames whose in-group index `i` satisfies
//! `i % r == p` (interleaved stripes), zero-padded to the longest frame
//! in its stripe. XOR parity recovers **one** missing block per
//! stripe — so a group survives up to `r` losses if they land in
//! distinct stripes, which is exactly what makes interleaving the
//! right shape for burst loss: consecutive frames belong to different
//! stripes.
//!
//! The size-only stream simulator needs only the *group accounting*
//! ([`recoverable`]) to decide which lost frames parity brings back; the
//! *byte codec* (`parity_blocks` / `recover_stripe`, in the tests) is
//! its referee, proving the math on real payloads. The stripe
//! geometry itself (`k`, `r`, and their validation) is
//! [`holo_uep::StripeSpec`] — one vocabulary for both crates.

/// Group accounting: given which data and parity frames of one group
/// arrived, return for each data frame whether it is available after
/// FEC (delivered, or lost but recoverable). A stripe recovers its
/// loss iff it lost exactly one data block and its parity arrived.
pub fn recoverable(delivered_data: &[bool], delivered_parity: &[bool], r: usize) -> Vec<bool> {
    let r = r.max(1);
    let mut out = delivered_data.to_vec();
    for (p, parity_ok) in delivered_parity.iter().enumerate().take(r) {
        if !parity_ok {
            continue;
        }
        let missing: Vec<usize> = delivered_data
            .iter()
            .enumerate()
            .filter(|(i, d)| i % r == p && !**d)
            .map(|(i, _)| i)
            .collect();
        if missing.len() == 1 {
            out[missing[0]] = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compute the `r` parity blocks for one group of data blocks.
    /// Parity `p` XORs data blocks with in-group index `i % r == p`,
    /// zero-padded to the longest block in the stripe.
    fn parity_blocks(data: &[&[u8]], r: usize) -> Vec<Vec<u8>> {
        let r = r.max(1);
        let mut parities = Vec::with_capacity(r);
        for p in 0..r {
            let len = data
                .iter()
                .enumerate()
                .filter(|(i, _)| i % r == p)
                .map(|(_, d)| d.len())
                .max()
                .unwrap_or(0);
            let mut parity = vec![0u8; len];
            for (_, d) in data.iter().enumerate().filter(|(i, _)| i % r == p) {
                for (b, x) in parity.iter_mut().zip(d.iter()) {
                    *b ^= x;
                }
            }
            parities.push(parity);
        }
        parities
    }

    /// Rebuild the single missing block of one stripe: XOR the parity with
    /// every surviving block. `present` holds the stripe's surviving data
    /// blocks; the result is padded to the parity length (the caller knows
    /// the original length if it needs to trim).
    fn recover_stripe(present: &[&[u8]], parity: &[u8]) -> Vec<u8> {
        let mut out = parity.to_vec();
        for d in present {
            for (b, x) in out.iter_mut().zip(d.iter()) {
                *b ^= x;
            }
        }
        out
    }

    #[test]
    fn zero_r_clamps_to_one_stripe_everywhere() {
        // Both the codec and the accounting clamp r=0 to 1 rather than
        // dividing by zero: one parity, one stripe.
        let blocks: Vec<Vec<u8>> = (0u8..4).map(|i| vec![i; 4]).collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        assert_eq!(parity_blocks(&refs, 0), parity_blocks(&refs, 1));
        assert_eq!(
            recoverable(&[true, false, true, true], &[true], 0),
            recoverable(&[true, false, true, true], &[true], 1)
        );
    }

    #[test]
    fn all_lost_stripe_recovers_nothing() {
        // Every data frame of the stripe is gone: parity alone cannot
        // disambiguate k >= 2 losses.
        let out = recoverable(&[false, false, false, false], &[true], 1);
        assert_eq!(out, vec![false, false, false, false]);
        // Same with interleaving: both stripes doubly lost.
        let out = recoverable(&[false, false, false, false], &[true, true], 2);
        assert_eq!(out, vec![false, false, false, false]);
    }

    #[test]
    fn parity_only_delivery_recovers_a_singleton_stripe() {
        // k=1, r=1 is duplication: the stripe's single data frame is
        // "exactly one loss", so the surviving parity copy rebuilds it.
        // This is what holo-uep's Critical class (keyframe duplication)
        // rides on.
        assert_eq!(recoverable(&[false], &[true], 1), vec![true]);
        // The byte codec agrees: parity of a singleton IS the block.
        let block = [7u8, 11, 13];
        let parity = parity_blocks(&[&block], 1);
        assert_eq!(parity[0], block.to_vec());
        assert_eq!(recover_stripe(&[], &parity[0]), block.to_vec());
        // With k=2 the same "only parity arrived" situation is dead.
        assert_eq!(recoverable(&[false, false], &[true], 1), vec![false, false]);
    }

    #[test]
    fn empty_group_is_a_noop() {
        assert_eq!(recoverable(&[], &[true], 1), Vec::<bool>::new());
        assert!(parity_blocks(&[], 1)[0].is_empty());
    }

    #[test]
    fn single_parity_recovers_any_one_block() {
        let blocks: Vec<Vec<u8>> =
            vec![vec![1, 2, 3, 4], vec![5, 6, 7], vec![8, 9, 10, 11, 12], vec![13]];
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let parity = parity_blocks(&refs, 1);
        assert_eq!(parity.len(), 1);
        assert_eq!(parity[0].len(), 5, "parity spans the longest block");
        for lost in 0..blocks.len() {
            let present: Vec<&[u8]> = refs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(_, d)| *d)
                .collect();
            let rebuilt = recover_stripe(&present, &parity[0]);
            // Padded with zeros past the original length.
            assert_eq!(&rebuilt[..blocks[lost].len()], blocks[lost].as_slice());
            assert!(rebuilt[blocks[lost].len()..].iter().all(|b| *b == 0));
        }
    }

    #[test]
    fn interleaved_stripes_survive_adjacent_losses() {
        // r=2: even-index frames in stripe 0, odd in stripe 1. Losing
        // two *consecutive* frames hits both stripes once — both come
        // back; losing two frames of the same stripe does not.
        let blocks: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 8]).collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let parity = parity_blocks(&refs, 2);
        assert_eq!(parity.len(), 2);

        let adjacent = recoverable(&[true, false, false, true, true, true], &[true, true], 2);
        assert!(adjacent.iter().all(|a| *a), "adjacent pair spans both stripes");

        let same_stripe = recoverable(&[false, true, false, true, true, true], &[true, true], 2);
        assert_eq!(same_stripe, vec![false, true, false, true, true, true]);
    }

    #[test]
    fn lost_parity_recovers_nothing() {
        let out = recoverable(&[true, false, true, true], &[false], 1);
        assert_eq!(out, vec![true, false, true, true]);
    }

    #[test]
    fn double_loss_in_one_stripe_is_unrecoverable_with_r1() {
        let out = recoverable(&[false, false, true, true], &[true], 1);
        assert_eq!(out, vec![false, false, true, true]);
    }

    #[test]
    fn byte_codec_matches_group_accounting() {
        // If recoverable() says a frame comes back, the byte codec must
        // actually rebuild it.
        let blocks: Vec<Vec<u8>> = (0u8..4).map(|i| vec![i * 17; 16]).collect();
        let refs: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let parity = parity_blocks(&refs, 1);
        let delivered = [true, true, false, true];
        let after = recoverable(&delivered, &[true], 1);
        assert!(after[2]);
        let present: Vec<&[u8]> = refs
            .iter()
            .enumerate()
            .filter(|(i, _)| delivered[*i])
            .map(|(_, d)| *d)
            .collect();
        assert_eq!(recover_stripe(&present, &parity[0]), blocks[2]);
    }
}
