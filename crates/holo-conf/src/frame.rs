//! Stream frames and the keyframe/delta dependency rules.
//!
//! Every frame a sender uploads carries a dependency tag mirroring the
//! temporal coders elsewhere in the workspace (`holo-compress::temporal`
//! ships a mesh keyframe then position deltas; `holo-textsem::delta`
//! ships a token snapshot then edit ops). A **key** frame is
//! self-contained; a **delta** frame is decodable only on top of its
//! predecessor. The consequence the closed-form conference math cannot
//! see: dropping one delta poisons every following delta until the next
//! keyframe, so loss cost is coupled across frames, per subscriber.

use holo_net::time::SimTime;
use semholo::semantics::StageCost;

/// Dependency tag of one frame in a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameTag {
    /// Self-contained: decodable in isolation.
    Key,
    /// Depends on the previous frame of the same stream.
    Delta,
}

impl FrameTag {
    /// Tag of frame `index` under a keyframe cadence of `interval`
    /// (`interval <= 1` makes every frame a keyframe).
    pub fn for_index(index: usize, interval: usize) -> FrameTag {
        if interval <= 1 || index.is_multiple_of(interval) {
            FrameTag::Key
        } else {
            FrameTag::Delta
        }
    }

    /// Whether this is a keyframe.
    pub fn is_key(self) -> bool {
        self == FrameTag::Key
    }
}

/// Number of frames that transitively depend on frame `index` under a
/// keyframe cadence of `interval` in a stream of `total` frames: the
/// frames after it in the same GOP. Losing a keyframe poisons its
/// whole GOP (`interval - 1` descendants); the last delta before the
/// next key has zero — nothing downstream is lost by abandoning its
/// retransmission once its own render deadline passes. This is the
/// dependency-depth signal `holo-uep` ranks importance classes by.
pub fn gop_descendants(index: usize, interval: usize, total: usize) -> usize {
    if index >= total {
        return 0;
    }
    if interval <= 1 {
        // Every frame is a keyframe: nothing depends on anything.
        return 0;
    }
    let gop_start = index - index % interval;
    let gop_end = (gop_start + interval).min(total);
    gop_end - index - 1
}

/// One frame of one sender's uplink stream, as the SFU sees it.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// Originating participant.
    pub sender: usize,
    /// Frame index within the sender's stream.
    pub index: usize,
    /// Dependency tag.
    pub tag: FrameTag,
    /// Capture time at the sender.
    pub capture: SimTime,
    /// Encoded payload size on the wire, bytes (top quality).
    pub payload_bytes: usize,
    /// Sender-side extraction time, ms (already charged before upload).
    pub extract_ms: f64,
    /// Receiver-side reconstruction cost (charged per subscriber device).
    pub recon: StageCost,
}

/// Walks one (subscriber, sender) stream in frame order and applies the
/// dependency rules: a delta is usable only if the frame before it was
/// usable; a keyframe recovers the chain.
#[derive(Debug, Clone, Default)]
pub struct DependencyTracker {
    prev_usable: bool,
    prev_index: Option<usize>,
}

impl DependencyTracker {
    /// Fresh chain (nothing usable yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next frame **in index order**; `delivered` is whether it
    /// arrived complete. Returns whether the frame is usable.
    pub fn advance(&mut self, index: usize, tag: FrameTag, delivered: bool) -> bool {
        if let Some(prev) = self.prev_index {
            debug_assert!(index > prev, "frames must be fed in order");
        }
        let usable = delivered
            && match tag {
                FrameTag::Key => true,
                // A delta also needs its base to be the *immediately*
                // preceding frame: a gap (frame never offered) breaks
                // the chain exactly like a dropped base does.
                FrameTag::Delta => self.prev_usable && self.prev_index == index.checked_sub(1),
            };
        self.prev_usable = usable;
        self.prev_index = Some(index);
        usable
    }

    /// Whether the chain is currently broken: at least one frame has
    /// been walked and the most recent one was unusable, so the next
    /// delta is doomed before it is even offered. A fresh tracker is
    /// not poisoned (the stream just hasn't started).
    pub fn poisoned(&self) -> bool {
        self.prev_index.is_some() && !self.prev_usable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_tags() {
        assert_eq!(FrameTag::for_index(0, 5), FrameTag::Key);
        assert_eq!(FrameTag::for_index(4, 5), FrameTag::Delta);
        assert_eq!(FrameTag::for_index(5, 5), FrameTag::Key);
        // interval <= 1: all keyframes.
        assert_eq!(FrameTag::for_index(3, 1), FrameTag::Key);
        assert_eq!(FrameTag::for_index(3, 0), FrameTag::Key);
    }

    #[test]
    fn descendant_counts_follow_the_gop() {
        // interval 10: key at 0 carries the other 9; the last delta
        // before the next key carries nothing.
        assert_eq!(gop_descendants(0, 10, 150), 9);
        assert_eq!(gop_descendants(1, 10, 150), 8);
        assert_eq!(gop_descendants(9, 10, 150), 0);
        assert_eq!(gop_descendants(10, 10, 150), 9, "next GOP restarts the count");
        // A truncated final GOP only carries what actually exists.
        assert_eq!(gop_descendants(140, 10, 145), 4);
        assert_eq!(gop_descendants(144, 10, 145), 0);
        // All-keyframe streams have no dependencies at all.
        assert_eq!(gop_descendants(3, 1, 150), 0);
        assert_eq!(gop_descendants(3, 0, 150), 0);
        // Out of range is harmless.
        assert_eq!(gop_descendants(150, 10, 150), 0);
        // The count is exactly the poison window DependencyTracker
        // enforces: lose frame i, everything until the next key dies.
        let interval = 5;
        let total = 17;
        for lost in 0..total {
            let mut dep = DependencyTracker::new();
            let mut poisoned_after = 0usize;
            for i in 0..total {
                let tag = FrameTag::for_index(i, interval);
                if !dep.advance(i, tag, i != lost) && i > lost {
                    poisoned_after += 1;
                }
            }
            assert_eq!(
                poisoned_after,
                gop_descendants(lost, interval, total),
                "lost frame {lost}"
            );
        }
    }

    #[test]
    fn delta_loss_poisons_until_next_key() {
        let mut dep = DependencyTracker::new();
        // key, delta, delta(LOST), delta, delta, key, delta
        assert!(dep.advance(0, FrameTag::Key, true));
        assert!(dep.advance(1, FrameTag::Delta, true));
        assert!(!dep.advance(2, FrameTag::Delta, false));
        assert!(!dep.advance(3, FrameTag::Delta, true), "base was dropped");
        assert!(!dep.advance(4, FrameTag::Delta, true), "still poisoned");
        assert!(dep.advance(5, FrameTag::Key, true), "keyframe recovers");
        assert!(dep.advance(6, FrameTag::Delta, true));
    }

    #[test]
    fn lost_keyframe_poisons_following_deltas() {
        let mut dep = DependencyTracker::new();
        assert!(!dep.advance(0, FrameTag::Key, false));
        assert!(!dep.advance(1, FrameTag::Delta, true));
        assert!(dep.advance(2, FrameTag::Key, true));
    }

    #[test]
    fn index_gap_breaks_the_chain() {
        let mut dep = DependencyTracker::new();
        assert!(dep.advance(0, FrameTag::Key, true));
        // Frame 1 never offered (e.g. uplink drop): frame 2's base is gone.
        assert!(!dep.advance(2, FrameTag::Delta, true));
    }

    #[test]
    fn key_lost_then_immediately_rekeyed_poisons_exactly_one_frame() {
        let mut dep = DependencyTracker::new();
        assert!(!dep.advance(0, FrameTag::Key, false));
        assert!(dep.poisoned());
        // The very next frame is a key again (e.g. sender re-keys on
        // NACK): the poison window is exactly the one lost frame.
        assert!(dep.advance(1, FrameTag::Key, true));
        assert!(!dep.poisoned());
        assert!(dep.advance(2, FrameTag::Delta, true));
    }

    #[test]
    fn two_consecutive_lost_keys_poison_exactly_two_gops() {
        let interval = 4;
        let mut dep = DependencyTracker::new();
        let mut unusable = Vec::new();
        // Keys at 0, 4, 8; lose both 0 and 4, deliver everything else.
        for index in 0..12 {
            let tag = FrameTag::for_index(index, interval);
            let delivered = index != 0 && index != 4;
            if !dep.advance(index, tag, delivered) {
                unusable.push(index);
            }
        }
        // Exactly two full GOPs are gone; the key at 8 recovers.
        assert_eq!(unusable, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn delta_before_its_base_stays_unusable_until_the_next_key() {
        let mut dep = DependencyTracker::new();
        assert!(dep.advance(0, FrameTag::Key, true));
        // Frame 2 arrives while its base (frame 1) never did: the delta
        // is undecodable, and so is everything until the next key.
        assert!(!dep.advance(2, FrameTag::Delta, true));
        assert!(dep.poisoned());
        assert!(!dep.advance(3, FrameTag::Delta, true));
        assert!(dep.advance(4, FrameTag::Key, true), "poison window is exactly [2, 4)");
    }
}
