//! Deriving an importance class for every frame.
//!
//! Classification is a pure function of facts both endpoints already
//! share (frame index, keyframe cadence, stream length, payload kind),
//! so sender and receiver agree on every frame's class without any
//! extra signalling — the wire header ([`holo_net::wire::UepHeader`])
//! carries the class only so middleboxes and the chaos harness can
//! check the two derivations never diverge.

use holo_conf::frame::{gop_descendants, FrameTag};
use holo_net::wire::{ImportanceClass, PayloadKind};

/// Importance class of frame `index` in a stream of `total` frames
/// under a keyframe cadence of `gop`.
///
/// The rules, most to least important:
///
/// * **Critical** — keyframes. Losing one poisons its entire GOP; it
///   is the only frame that can re-seed a broken chain. Critical is
///   *structural*: only keyframes get it, regardless of payload kind.
/// * **High** — early deltas, where more than half the GOP still
///   depends on them (`2 * descendants > gop`), plus any semantic
///   payload (keypoints, control) that would otherwise rank lower:
///   those bytes steer the avatar and are bumped one class.
/// * **Medium** — mid-GOP deltas with at least one descendant.
/// * **Low** — the last delta before the next key. Nothing depends on
///   it; once its own render deadline passes it is worthless.
pub fn classify(index: usize, total: usize, gop: usize, kind: PayloadKind) -> ImportanceClass {
    if FrameTag::for_index(index, gop).is_key() {
        return ImportanceClass::Critical;
    }
    let descendants = gop_descendants(index, gop, total);
    let base = if 2 * descendants > gop {
        ImportanceClass::High
    } else if descendants == 0 {
        ImportanceClass::Low
    } else {
        ImportanceClass::Medium
    };
    if matches!(kind, PayloadKind::Keypoints | PayloadKind::Control) {
        bump(base)
    } else {
        base
    }
}

/// One class more important, saturating at [`ImportanceClass::High`]:
/// Critical is reserved for keyframes (it buys duplication, which only
/// a chain-seeding frame earns), so a bumped delta tops out at High.
fn bump(class: ImportanceClass) -> ImportanceClass {
    match class {
        ImportanceClass::Critical | ImportanceClass::High => ImportanceClass::High,
        ImportanceClass::Medium => ImportanceClass::High,
        ImportanceClass::Low => ImportanceClass::Medium,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frame count per class over a whole stream, indexed by
    /// `ImportanceClass as usize`.
    fn class_histogram(total: usize, gop: usize, kind: PayloadKind) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for index in 0..total {
            counts[classify(index, total, gop, kind) as usize] += 1;
        }
        counts
    }

    #[test]
    fn gop_positions_map_to_the_documented_classes() {
        // gop=10, total=150, mesh payload (no bump): position 0 is the
        // key, 1-3 carry more than half the GOP, 4-8 are mid, 9 last.
        let classes: Vec<ImportanceClass> =
            (0..10).map(|i| classify(i, 150, 10, PayloadKind::Mesh)).collect();
        use ImportanceClass::{Critical, High, Low, Medium};
        assert_eq!(
            classes,
            [Critical, High, High, High, Medium, Medium, Medium, Medium, Medium, Low]
        );
        // The next GOP repeats the pattern exactly.
        for (i, &class) in classes.iter().enumerate() {
            assert_eq!(class, classify(10 + i, 150, 10, PayloadKind::Mesh), "position {i}");
        }
    }

    #[test]
    fn semantic_payloads_are_bumped_one_class_but_never_into_critical() {
        for kind in [PayloadKind::Keypoints, PayloadKind::Control] {
            assert_eq!(classify(0, 150, 10, kind), ImportanceClass::Critical, "keys stay keys");
            assert_eq!(classify(1, 150, 10, kind), ImportanceClass::High, "High saturates");
            assert_eq!(classify(5, 150, 10, kind), ImportanceClass::High, "Medium -> High");
            assert_eq!(classify(9, 150, 10, kind), ImportanceClass::Medium, "Low -> Medium");
        }
        // Non-semantic payloads are untouched.
        for kind in [PayloadKind::Mesh, PayloadKind::Image, PayloadKind::Text, PayloadKind::GaussianUpdate] {
            assert_eq!(classify(5, 150, 10, kind), ImportanceClass::Medium);
        }
    }

    #[test]
    fn all_key_streams_are_all_critical() {
        for gop in [0, 1] {
            for i in 0..20 {
                assert_eq!(classify(i, 20, gop, PayloadKind::Image), ImportanceClass::Critical);
            }
        }
    }

    #[test]
    fn truncated_final_gop_loses_importance() {
        // Stream ends at 145: frame 141 has only 4 descendants left
        // (2*4 <= 10), so it is Medium, not High as in a full GOP.
        assert_eq!(classify(141, 145, 10, PayloadKind::Mesh), ImportanceClass::Medium);
        assert_eq!(classify(144, 145, 10, PayloadKind::Mesh), ImportanceClass::Low);
        // In a full-length stream the same position is High.
        assert_eq!(classify(141, 150, 10, PayloadKind::Mesh), ImportanceClass::High);
    }

    #[test]
    fn histogram_matches_per_frame_classification() {
        let h = class_histogram(150, 10, PayloadKind::Mesh);
        // 15 GOPs of [1 key, 3 high, 5 medium, 1 low].
        assert_eq!(h, [15, 45, 75, 15]);
        assert_eq!(h.iter().sum::<usize>(), 150);
        // Bumped payloads shift the histogram up, total preserved.
        let h = class_histogram(150, 10, PayloadKind::Keypoints);
        assert_eq!(h, [15, 120, 15, 0]);
        assert_eq!(h.iter().sum::<usize>(), 150);
    }
}
