//! Hostile-wire acceptance: every decoder survives systematic
//! truncation and corruption (DESIGN.md §9).
//!
//! Where `examples/fuzz_sweep.rs` samples the hostile-input space with
//! seeded mutants, this test walks parts of it *exhaustively*: every
//! 1-byte truncation prefix of every corpus item for every decode
//! target, and every single-bit flip of a wire envelope. The fuzz
//! registry doubles as the test's work list, so a decoder added there
//! is automatically swept here too.

use holo_fuzz::{registry, Mutator};
use holo_net::wire::{PayloadKind, WireFrame, MAX_WIRE_PAYLOAD, WIRE_HEADER_BYTES};
use holo_runtime::bytes::Bytes;
use holo_runtime::check::{any, collection};
use holo_runtime::ser::DecodeError;
use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};

const SEED: u64 = 7;

/// Every prefix of every corpus item decodes without panicking — a
/// frame that stops mid-field is the single most common hostile input.
/// (Whether a given prefix is an `Err` depends on the format: range
/// coders can terminate early on a shorter valid stream. Panicking or
/// hanging is the only forbidden outcome; strict formats are pinned
/// strict below.)
#[test]
fn every_truncation_of_every_corpus_item_is_survived() {
    let mut decodes = 0usize;
    for target in registry(SEED) {
        for item in &target.corpus {
            for cut in 0..item.len() {
                let _ = (target.decode)(&item[..cut]);
                decodes += 1;
            }
            (target.decode)(item).unwrap_or_else(|e| {
                panic!("{}: untruncated corpus item must decode: {e}", target.name)
            });
        }
    }
    assert!(decodes > 2_000, "truncation sweep too small: {decodes}");
}

/// Length-framed formats must call every truncation what it is: an
/// error, never a silent partial success.
#[test]
fn strict_formats_reject_every_truncation() {
    for target in registry(SEED) {
        if !matches!(
            target.name,
            "net.wire_frame"
                | "net.uep_header"
                | "body.pose_payload"
                | "core.raw_mesh"
                | "gaussian.prebuild"
                | "meshcodec.decode_mesh"
                | "meshcodec.temporal"
        ) {
            continue;
        }
        for item in &target.corpus {
            for cut in 0..item.len() {
                assert!(
                    (target.decode)(&item[..cut]).is_err(),
                    "{}: truncation to {cut}/{} bytes decoded",
                    target.name,
                    item.len()
                );
            }
        }
    }
}

/// Seeded bit-flips across every target: no panic, and for the
/// CRC-framed wire envelope, *every* flip is rejected.
#[test]
fn seeded_bit_flips_never_panic_and_crc_catches_all() {
    for target in registry(SEED) {
        let mut mutator = Mutator::new(SEED ^ target.corpus.len() as u64);
        for _ in 0..500 {
            let (mutant, _) = mutator.next_mutant(&target.corpus);
            let _ = (target.decode)(&mutant);
        }
        if matches!(target.name, "net.wire_frame" | "net.uep_header") {
            for item in &target.corpus {
                for bit in 0..item.len() * 8 {
                    let mut flipped = item.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        (target.decode)(&flipped).is_err(),
                        "{} accepted a flip of bit {bit}",
                        target.name
                    );
                }
            }
        }
    }
}

/// The gaussian tier's wire path end to end: a real keyframe rides a
/// `GaussianUpdate` envelope, every single-bit flip of that envelope is
/// caught by the CRC, and the naked update stream survives truncation
/// and garbage without panicking.
#[test]
fn gaussian_update_frames_survive_the_hostile_wire() {
    let targets = registry(SEED);
    let update = targets
        .iter()
        .find(|t| t.name == "gaussian.update")
        .expect("gaussian.update registered");
    let key = update.corpus.first().expect("corpus has a keyframe");

    let envelope = WireFrame::new(PayloadKind::GaussianUpdate, 3, Bytes::from(key.clone()));
    let decoded = WireFrame::decode(&envelope.encode()).expect("own encoding decodes");
    assert!(matches!(decoded.kind, PayloadKind::GaussianUpdate));
    assert_eq!(decoded.payload.as_ref(), &key[..]);
    let encoded = envelope.encode();
    for bit in 0..encoded.len() * 8 {
        let mut flipped = encoded.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(
            WireFrame::decode(&flipped).is_err(),
            "gaussian envelope accepted a flip of bit {bit}"
        );
    }

    for cut in 0..key.len() {
        let _ = (update.decode)(&key[..cut]);
    }
    assert!((update.decode)(&[0xDE; 64]).is_err(), "update decoder accepted garbage");
    let prebuild = targets
        .iter()
        .find(|t| t.name == "gaussian.prebuild")
        .expect("gaussian.prebuild registered");
    assert!((prebuild.decode)(&[0xDE; 64]).is_err(), "prebuild decoder accepted garbage");
}

/// The typed taxonomy is load-bearing: specific corruptions land in
/// their specific variants.
#[test]
fn decode_errors_carry_their_taxonomy() {
    let frame = WireFrame::new(PayloadKind::Text, 5, Bytes::from(vec![1u8, 2, 3])).encode();
    // Header cut: Truncated, with the missing field's honest numbers.
    match WireFrame::decode(&frame[..10]) {
        Err(DecodeError::Truncated { needed, available }) => {
            assert!(needed > available, "shortfall must be real: {needed} vs {available}");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // Wrong magic: BadMagic.
    let mut bad_magic = frame.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(WireFrame::decode(&bad_magic), Err(DecodeError::BadMagic { .. })));
    // Payload flip: BadChecksum.
    let mut bad_payload = frame.clone();
    *bad_payload.last_mut().unwrap() ^= 0x01;
    assert!(matches!(WireFrame::decode(&bad_payload), Err(DecodeError::BadChecksum { .. })));
    // Forged length field (offset 14): LimitExceeded before allocation.
    let mut inflated = frame;
    inflated[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    match WireFrame::decode(&inflated) {
        Err(DecodeError::LimitExceeded { limit, .. }) => {
            assert_eq!(limit, MAX_WIRE_PAYLOAD as u64);
        }
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
}

/// The UEP header's taxonomy under targeted forgeries: semantically
/// absurd stripe geometry must be caught even when the CRC is honestly
/// recomputed over the forged fields (an attacker controls the whole
/// 19 bytes, so the CRC alone proves nothing about semantics).
#[test]
fn uep_header_rejects_honestly_checksummed_forgeries() {
    use holo_net::wire::{crc32, ImportanceClass, UepHeader, UEP_HEADER_BYTES};
    let valid = UepHeader {
        class: ImportanceClass::High,
        parity: false,
        abandonable: true,
        k: 4,
        r: 2,
        group: 7,
        index: 3,
        deadline_ms: 150,
    };
    let bytes = valid.encode();
    assert_eq!(bytes.len(), UEP_HEADER_BYTES);
    assert_eq!(UepHeader::decode(&bytes).expect("own encoding decodes"), valid);

    // Re-checksum a forged body so only the semantic checks stand
    // between the forgery and acceptance. Byte layout: magic(4)
    // class(1) flags(1) k(1) r(1) group(4) index(1) deadline(2) crc(4).
    let forge = |patch: &dyn Fn(&mut Vec<u8>)| {
        let mut b = valid.encode();
        patch(&mut b);
        let crc = crc32(&b[4..UEP_HEADER_BYTES - 4]);
        b[UEP_HEADER_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
        UepHeader::decode(&b)
    };
    assert!(forge(&|b| b[4] = 9).is_err(), "unknown class accepted");
    assert!(forge(&|b| b[5] = 0xFF).is_err(), "unknown flag bits accepted");
    assert!(forge(&|b| b[6] = 0).is_err(), "k = 0 accepted");
    assert!(forge(&|b| b[7] = 200).is_err(), "r > k accepted");
    assert!(forge(&|b| b[12] = 4).is_err(), "data index >= k accepted");
    assert!(
        forge(&|b| {
            b[5] = 0b01; // parity flag
            b[12] = 2; // index >= r
        })
        .is_err(),
        "parity index >= r accepted"
    );
    // Trailing bytes after a fully valid header are rejected too.
    let mut long = valid.encode();
    long.push(0);
    assert!(UepHeader::decode(&long).is_err(), "trailing byte accepted");
}

holo_prop! {
    #![cases(64)]

    /// WireFrame round-trips any payload bit-for-bit, and the decoded
    /// header fields survive too.
    fn wire_frame_roundtrips_any_payload(data in collection::vec(any::<u8>(), 0..4096), seq in any::<u64>()) {
        let frame = WireFrame::new(PayloadKind::Keypoints, seq, Bytes::from(data.clone()));
        let decoded = WireFrame::decode(&frame.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded.payload.as_ref(), &data[..]);
        prop_assert_eq!(decoded.seq, seq);
        prop_assert!(matches!(decoded.kind, PayloadKind::Keypoints));
    }

    /// Arbitrary bytes never decode as a frame unless they really are
    /// one (probability of forging a CRC32 + magic by chance in 64
    /// draws is negligible) — and never panic.
    fn wire_frame_rejects_arbitrary_bytes(data in collection::vec(any::<u8>(), 0..256)) {
        prop_assert!(WireFrame::decode(&data).is_err());
    }

    /// Envelope size accounting is exact for any payload size.
    fn wire_frame_size_is_header_plus_payload(data in collection::vec(any::<u8>(), 0..2048)) {
        let n = data.len();
        let encoded = WireFrame::new(PayloadKind::Control, 0, Bytes::from(data)).encode();
        prop_assert_eq!(encoded.len(), WIRE_HEADER_BYTES + n);
        prop_assert_eq!(encoded.len(), WireFrame::wire_bytes(n));
    }
}
