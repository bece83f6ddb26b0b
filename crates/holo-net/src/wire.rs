//! The versioned, checksummed wire envelope every hop speaks.
//!
//! A [`WireFrame`] wraps one semantic payload (a mesh stream, a pose
//! delta, a caption, …) in a fixed header — magic, version, payload
//! kind, sequence number, length, CRC32 — so a receiver can tell
//! *before decoding* whether the bytes it holds are the bytes that were
//! sent. The paper's semantic payloads are compact and structure-heavy:
//! one flipped bit in an entropy-coded mesh stream silently reshapes a
//! whole avatar, which is why the envelope checksums every payload and
//! [`Session`]/the SFU treat a failed check as a *detected loss* the
//! resilience layer (retransmit / FEC / ladder) can then repair.
//!
//! The CRC32 is the IEEE 802.3 polynomial, computed in-tree (the
//! workspace is hermetic) with a table-driven implementation. CRC32
//! detects all single-bit and all two-bit errors at these frame sizes,
//! and any burst up to 32 bits — exactly the corruption classes
//! `holo-chaos`'s `PayloadCorrupt` fault injects.
//!
//! [`Session`]: ../../semholo/session/struct.Session.html

use holo_runtime::bytes::Bytes;
use holo_runtime::ser::{ByteReader, DecodeError};

/// Envelope magic: `"HOLO"` little-endian.
pub const WIRE_MAGIC: u32 = 0x4F4C_4F48;

/// Current envelope version.
pub const WIRE_VERSION: u8 = 1;

/// Fixed envelope header size: magic(4) + version(1) + kind(1) +
/// seq(8) + len(4) + crc(4).
pub const WIRE_HEADER_BYTES: usize = 22;

/// Largest payload the envelope will carry (64 MiB). A length field
/// beyond this is rejected before any allocation.
pub const MAX_WIRE_PAYLOAD: usize = 64 << 20;

/// What kind of semantic payload an envelope carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// Compressed/raw mesh geometry.
    Mesh = 0,
    /// Keypoint / pose-delta payloads.
    Keypoints = 1,
    /// Image-pipeline payloads (textures, NeRF latents).
    Image = 2,
    /// Text-semantics payloads (captions, token streams).
    Text = 3,
    /// Control / unclassified payloads.
    Control = 4,
    /// Gaussian-avatar per-frame update payloads (pose + region deltas
    /// conditioning a prebuilt splat avatar).
    GaussianUpdate = 5,
}

impl PayloadKind {
    /// Parse the wire tag byte.
    pub fn from_byte(b: u8) -> Result<Self, DecodeError> {
        match b {
            0 => Ok(PayloadKind::Mesh),
            1 => Ok(PayloadKind::Keypoints),
            2 => Ok(PayloadKind::Image),
            3 => Ok(PayloadKind::Text),
            4 => Ok(PayloadKind::Control),
            5 => Ok(PayloadKind::GaussianUpdate),
            other => {
                Err(DecodeError::corrupt("wire kind", format!("unknown payload kind {other}")))
            }
        }
    }

    /// Stable lowercase label (report keys, counters).
    pub fn name(self) -> &'static str {
        match self {
            PayloadKind::Mesh => "mesh",
            PayloadKind::Keypoints => "keypoints",
            PayloadKind::Image => "image",
            PayloadKind::Text => "text",
            PayloadKind::Control => "control",
            PayloadKind::GaussianUpdate => "gaussian-update",
        }
    }
}

/// IEEE CRC32 (reflected polynomial `0xEDB88320`), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Slicing-by-8: eight bytes a step through eight tables, `T[k]`
/// advancing a byte's contribution past `k` further bytes; the tail goes
/// a byte at a time through `T[0]`.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut steps = data.chunks_exact(8);
    for s in &mut steps {
        let lo = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][s[4] as usize]
            ^ T[2][s[5] as usize]
            ^ T[1][s[6] as usize]
            ^ T[0][s[7] as usize];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 over the concatenation of `parts` (no intermediate buffer).
pub fn crc32_concat(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        crc = crc32_update(crc, part);
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One framed payload: the unit `Session` and the SFU put on every hop.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// What the payload is.
    pub kind: PayloadKind,
    /// Sender-assigned sequence number.
    pub seq: u64,
    /// The semantic payload.
    pub payload: Bytes,
}

impl WireFrame {
    /// Frame a payload.
    pub fn new(kind: PayloadKind, seq: u64, payload: Bytes) -> Self {
        Self { kind, seq, payload }
    }

    /// Total bytes on the wire for a payload of `payload_bytes`.
    pub fn wire_bytes(payload_bytes: usize) -> usize {
        WIRE_HEADER_BYTES + payload_bytes
    }

    /// Serialize header + payload. The CRC covers everything after the
    /// magic — version, kind, seq, length, payload — so a flipped bit
    /// anywhere in the frame fails the check (a kind tag silently
    /// morphing into another valid tag is exactly the failure mode an
    /// uncovered header would allow).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WIRE_HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        out.push(WIRE_VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        let crc = crc32_concat(&[&out[4..WIRE_HEADER_BYTES - 4], self.payload.as_ref()]);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(self.payload.as_ref());
        out
    }

    /// Parse and verify an envelope. Any truncation, unknown version or
    /// kind, length mismatch, or checksum failure is a typed error —
    /// never a panic, never an allocation beyond the input's own size.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(data);
        r.expect_magic(WIRE_MAGIC)?;
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(DecodeError::corrupt(
                "wire version",
                format!("version {version} not supported (current {WIRE_VERSION})"),
            ));
        }
        let kind = PayloadKind::from_byte(r.u8()?)?;
        let seq = r.u64_le()?;
        let len = r.u32_le()? as usize;
        if len > MAX_WIRE_PAYLOAD {
            return Err(DecodeError::LimitExceeded {
                what: "wire payload",
                requested: len as u64,
                limit: MAX_WIRE_PAYLOAD as u64,
            });
        }
        let declared_crc = r.u32_le()?;
        let payload = r.take(len)?;
        if !r.is_empty() {
            return Err(DecodeError::corrupt(
                "wire frame",
                format!("{} trailing bytes after payload", r.remaining()),
            ));
        }
        let actual_crc = crc32_concat(&[&data[4..WIRE_HEADER_BYTES - 4], payload]);
        if actual_crc != declared_crc {
            return Err(DecodeError::BadChecksum { expected: declared_crc, found: actual_crc });
        }
        Ok(Self { kind, seq, payload: Bytes::copy_from_slice(payload) })
    }
}

/// Semantic importance of one frame, as the unequal-protection
/// scheduler (`holo-uep`) sees it. Lower discriminant = more
/// important: the class decides how much of the fixed redundancy
/// budget (FEC parity, retransmission slots) a frame may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ImportanceClass {
    /// Keyframes and chain-resetting payloads: losing one poisons a
    /// whole GOP.
    Critical = 0,
    /// Early deltas (most of the GOP still depends on them) and pose
    /// channels.
    High = 1,
    /// Mid-GOP deltas: a loss poisons a bounded tail.
    Medium = 2,
    /// Deep deltas nothing depends on: stale the moment their render
    /// deadline passes.
    Low = 3,
}

impl ImportanceClass {
    /// Parse the wire tag byte.
    pub fn from_byte(b: u8) -> Result<Self, DecodeError> {
        match b {
            0 => Ok(ImportanceClass::Critical),
            1 => Ok(ImportanceClass::High),
            2 => Ok(ImportanceClass::Medium),
            3 => Ok(ImportanceClass::Low),
            other => Err(DecodeError::corrupt(
                "uep class",
                format!("unknown importance class {other}"),
            )),
        }
    }

    /// Stable lowercase label (report keys, counters).
    pub fn name(self) -> &'static str {
        match self {
            ImportanceClass::Critical => "critical",
            ImportanceClass::High => "high",
            ImportanceClass::Medium => "medium",
            ImportanceClass::Low => "low",
        }
    }

    /// All classes, most important first.
    pub const ALL: [ImportanceClass; 4] = [
        ImportanceClass::Critical,
        ImportanceClass::High,
        ImportanceClass::Medium,
        ImportanceClass::Low,
    ];
}

/// UEP header magic: `"UEP1"` little-endian.
pub const UEP_MAGIC: u32 = 0x3150_4555;

/// Fixed UEP header size: magic(4) + class(1) + flags(1) + k(1) +
/// r(1) + group(4) + index(1) + deadline_ms(2) + crc(4).
pub const UEP_HEADER_BYTES: usize = 19;

/// Flag bit: this frame is FEC parity, not data.
const UEP_FLAG_PARITY: u8 = 0b01;
/// Flag bit: retransmissions of this frame may be abandoned once its
/// render deadline (plus its descendants') has passed.
const UEP_FLAG_ABANDONABLE: u8 = 0b10;

/// The wire-visible class/stripe header the unequal-protection
/// scheduler prepends to every protected frame. It tells any hop —
/// without decoding the payload — which importance class the frame
/// belongs to, which per-class FEC group and stripe slot it occupies,
/// and whether the sender considers it abandonable past its deadline.
///
/// Strict codec in the `WireFrame` mould: its own magic, every field
/// covered by a CRC32 (so a single flipped bit anywhere is detected),
/// typed errors for truncation/corruption, trailing bytes rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UepHeader {
    /// Importance class of the frame.
    pub class: ImportanceClass,
    /// Whether this frame is FEC parity for its group.
    pub parity: bool,
    /// Whether retransmissions may be abandoned past the deadline.
    pub abandonable: bool,
    /// Data frames per FEC group of this class (`>= 1`).
    pub k: u8,
    /// Parity frames per FEC group (`<= k`; 0 = unprotected class).
    pub r: u8,
    /// FEC group number within the class's stream.
    pub group: u32,
    /// Position within the group: `< k` for data, `< max(r, 1)` for
    /// parity.
    pub index: u8,
    /// Render deadline, ms after capture (0 = no deadline).
    pub deadline_ms: u16,
}

impl UepHeader {
    fn flags(&self) -> u8 {
        (if self.parity { UEP_FLAG_PARITY } else { 0 })
            | (if self.abandonable { UEP_FLAG_ABANDONABLE } else { 0 })
    }

    /// Serialize the 19-byte header. The CRC covers everything after
    /// the magic, so no field can silently morph into another valid
    /// value.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(UEP_HEADER_BYTES);
        out.extend_from_slice(&UEP_MAGIC.to_le_bytes());
        out.push(self.class as u8);
        out.push(self.flags());
        out.push(self.k);
        out.push(self.r);
        out.extend_from_slice(&self.group.to_le_bytes());
        out.push(self.index);
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and verify a header. Checksum first, semantics second:
    /// a corrupted-but-plausible field never reaches the range checks.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut rd = ByteReader::new(data);
        rd.expect_magic(UEP_MAGIC)?;
        let class_byte = rd.u8()?;
        let flags = rd.u8()?;
        let k = rd.u8()?;
        let r = rd.u8()?;
        let group = rd.u32_le()?;
        let index = rd.u8()?;
        let deadline_ms = rd.u16_le()?;
        let declared_crc = rd.u32_le()?;
        if !rd.is_empty() {
            return Err(DecodeError::corrupt(
                "uep header",
                format!("{} trailing bytes after header", rd.remaining()),
            ));
        }
        let actual_crc = crc32(&data[4..UEP_HEADER_BYTES - 4]);
        if actual_crc != declared_crc {
            return Err(DecodeError::BadChecksum { expected: declared_crc, found: actual_crc });
        }
        let class = ImportanceClass::from_byte(class_byte)?;
        if flags & !(UEP_FLAG_PARITY | UEP_FLAG_ABANDONABLE) != 0 {
            return Err(DecodeError::corrupt(
                "uep flags",
                format!("unknown flag bits 0x{flags:02x}"),
            ));
        }
        let parity = flags & UEP_FLAG_PARITY != 0;
        let abandonable = flags & UEP_FLAG_ABANDONABLE != 0;
        if k == 0 {
            return Err(DecodeError::corrupt("uep fec", "k must be >= 1".to_string()));
        }
        if r > k {
            return Err(DecodeError::corrupt(
                "uep fec",
                format!("parity count r={r} exceeds group size k={k}"),
            ));
        }
        if parity && r == 0 {
            return Err(DecodeError::corrupt(
                "uep fec",
                "parity frame in an unprotected (r=0) class".to_string(),
            ));
        }
        let slot_limit = if parity { r.max(1) } else { k };
        if index >= slot_limit {
            return Err(DecodeError::corrupt(
                "uep stripe",
                format!("index {index} out of range for {} slot limit {slot_limit}",
                    if parity { "parity" } else { "data" }),
            ));
        }
        Ok(Self { class, parity, abandonable, k, r, group, index, deadline_ms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_runtime::check::{any, collection};
    use holo_runtime::{holo_prop, prop_assert_eq};

    /// The reference: one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        const T0: [u32; 256] = crc32_tables()[0];
        !data.iter().fold(!0u32, |crc, &b| (crc >> 8) ^ T0[((crc ^ b as u32) & 0xFF) as usize])
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_concat_splits_anywhere() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(73) ^ 0x5A).collect();
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_concat(&[a, b]), crc32_bytewise(&data), "cut {cut}");
        }
    }

    holo_prop! {
        #![cases(64)]

        /// Eight bytes a step equals a byte a step, wherever the slice
        /// starts in its buffer and whatever tail the steps leave.
        fn crc32_by_eight_equals_bytewise(
            data in collection::vec(any::<u8>(), 0..4200),
        ) {
            for start in 0..8.min(data.len() + 1) {
                for len in (0..64).chain([data.len()]) {
                    let slice = &data[start..(start + len).min(data.len())];
                    prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {} len {}", start, slice.len());
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let frame = WireFrame::new(
            PayloadKind::Keypoints,
            42,
            Bytes::copy_from_slice(b"pose payload bytes"),
        );
        let wire = frame.encode();
        assert_eq!(wire.len(), WireFrame::wire_bytes(frame.payload.len()));
        let back = WireFrame::decode(&wire).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = WireFrame::new(PayloadKind::Control, 0, Bytes::new());
        let back = WireFrame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame =
            WireFrame::new(PayloadKind::Mesh, 7, Bytes::copy_from_slice(&[0xAB; 64]));
        let wire = frame.encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut corrupted = wire.clone();
                corrupted[byte] ^= 1 << bit;
                let got = WireFrame::decode(&corrupted);
                assert!(
                    got.is_err(),
                    "flip at byte {byte} bit {bit} went undetected: {got:?}"
                );
            }
        }
    }

    #[test]
    fn truncations_are_typed_errors() {
        let wire =
            WireFrame::new(PayloadKind::Text, 1, Bytes::copy_from_slice(b"caption")).encode();
        for cut in 0..wire.len() {
            let err = WireFrame::decode(&wire[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut wire =
            WireFrame::new(PayloadKind::Image, 3, Bytes::copy_from_slice(&[1, 2, 3])).encode();
        // Inflate the length field (offset 14) to beyond the cap.
        wire[14..18].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = WireFrame::decode(&wire).unwrap_err();
        assert!(matches!(err, DecodeError::LimitExceeded { .. }), "{err:?}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut wire =
            WireFrame::new(PayloadKind::Mesh, 9, Bytes::copy_from_slice(&[5; 10])).encode();
        wire.push(0);
        let err = WireFrame::decode(&wire).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt { .. }), "{err:?}");
    }

    fn sample_uep() -> UepHeader {
        UepHeader {
            class: ImportanceClass::High,
            parity: false,
            abandonable: false,
            k: 3,
            r: 1,
            group: 12,
            index: 2,
            deadline_ms: 150,
        }
    }

    #[test]
    fn uep_header_roundtrips() {
        let cases = [
            sample_uep(),
            UepHeader {
                class: ImportanceClass::Critical,
                parity: true,
                abandonable: false,
                k: 1,
                r: 1,
                group: 0,
                index: 0,
                deadline_ms: 150,
            },
            UepHeader {
                class: ImportanceClass::Low,
                parity: false,
                abandonable: true,
                k: 10,
                r: 0,
                group: u32::MAX,
                index: 9,
                deadline_ms: 0,
            },
        ];
        for h in cases {
            let wire = h.encode();
            assert_eq!(wire.len(), UEP_HEADER_BYTES);
            assert_eq!(UepHeader::decode(&wire).unwrap(), h);
        }
    }

    #[test]
    fn uep_every_single_bit_flip_is_detected() {
        let wire = sample_uep().encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut corrupted = wire.clone();
                corrupted[byte] ^= 1 << bit;
                let got = UepHeader::decode(&corrupted);
                assert!(
                    got.is_err(),
                    "flip at byte {byte} bit {bit} went undetected: {got:?}"
                );
            }
        }
    }

    #[test]
    fn uep_truncations_are_typed_errors() {
        let wire = sample_uep().encode();
        for cut in 0..wire.len() {
            let err = UepHeader::decode(&wire[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn uep_trailing_bytes_are_rejected() {
        let mut wire = sample_uep().encode();
        wire.push(0);
        let err = UepHeader::decode(&wire).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn uep_semantic_garbage_is_rejected_after_the_checksum() {
        // Re-CRC'd headers with in-range bytes but out-of-range
        // semantics: the decoder must reject each with a typed error.
        let reseal = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut wire = sample_uep().encode();
            mutate(&mut wire);
            let crc = crc32(&wire[4..UEP_HEADER_BYTES - 4]);
            wire[UEP_HEADER_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
            UepHeader::decode(&wire).unwrap_err()
        };
        // Unknown class.
        assert!(matches!(reseal(&|w| w[4] = 9), DecodeError::Corrupt { .. }));
        // Unknown flag bits.
        assert!(matches!(reseal(&|w| w[5] = 0x80), DecodeError::Corrupt { .. }));
        // k = 0.
        assert!(matches!(reseal(&|w| w[6] = 0), DecodeError::Corrupt { .. }));
        // r > k.
        assert!(matches!(reseal(&|w| w[7] = 200), DecodeError::Corrupt { .. }));
        // Data index out of range (k=3 -> index must be < 3).
        assert!(matches!(reseal(&|w| w[12] = 3), DecodeError::Corrupt { .. }));
        // Parity frame in an unprotected class (flags=parity, r=0).
        assert!(matches!(
            reseal(&|w| {
                w[5] = 0b01;
                w[7] = 0;
            }),
            DecodeError::Corrupt { .. }
        ));
    }

    #[test]
    fn importance_classes_roundtrip_and_order() {
        for class in ImportanceClass::ALL {
            assert_eq!(ImportanceClass::from_byte(class as u8).unwrap(), class);
            assert!(!class.name().is_empty());
        }
        assert!(ImportanceClass::from_byte(4).is_err());
        // Lower discriminant = more important; Ord follows the wire tag.
        assert!(ImportanceClass::Critical < ImportanceClass::High);
        assert!(ImportanceClass::High < ImportanceClass::Medium);
        assert!(ImportanceClass::Medium < ImportanceClass::Low);
    }

    #[test]
    fn kind_tags_roundtrip() {
        for kind in [
            PayloadKind::Mesh,
            PayloadKind::Keypoints,
            PayloadKind::Image,
            PayloadKind::Text,
            PayloadKind::Control,
            PayloadKind::GaussianUpdate,
        ] {
            assert_eq!(PayloadKind::from_byte(kind as u8).unwrap(), kind);
            assert!(!kind.name().is_empty());
        }
        assert!(PayloadKind::from_byte(200).is_err());
    }
}
