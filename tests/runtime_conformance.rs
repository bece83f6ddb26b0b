//! Conformance: what the workspace relies on from
//! `holo_runtime::bytes::Bytes`, for arbitrary inputs — a faithful,
//! immutable view of the bytes it was built from, content equality, and
//! clones that alias one allocation.

use holo_runtime::bytes::Bytes;
use holo_runtime::check::{any, collection};
use holo_runtime::{holo_prop, prop_assert, prop_assert_eq};

holo_prop! {
    #![cases(64)]

    /// `Bytes::from(vec)` is a faithful view of the vec.
    fn from_vec_roundtrip(data in collection::vec(any::<u8>(), 0..512)) {
        let b = Bytes::from(data.clone());
        prop_assert_eq!(b.len(), data.len());
        prop_assert_eq!(b.is_empty(), data.is_empty());
        prop_assert_eq!(b.to_vec(), data);
    }

    /// Equality is content equality, independent of how the buffer was
    /// constructed, and a one-byte difference is a difference.
    fn eq_is_content_eq(data in collection::vec(any::<u8>(), 0..128), at in any::<usize>()) {
        let direct = Bytes::from(data.clone());
        prop_assert_eq!(direct.clone(), Bytes::copy_from_slice(&data));
        prop_assert_eq!(direct.clone(), data.iter().copied().collect::<Bytes>());
        prop_assert_eq!(direct.as_ref(), data.as_slice());
        let mut other = data.clone();
        match other.len() {
            0 => other.push(0),
            n => other[at % n] ^= 1,
        }
        prop_assert!(direct != Bytes::from(other));
    }
}

/// Cloning never copies: a megabyte frame fanned out to many holders
/// stays one allocation (what `EncodedFrame` → `WireFrame` → SFU
/// fan-out relies on).
#[test]
fn fan_out_clones_are_zero_copy() {
    let frame = Bytes::from(vec![0x42u8; 1 << 20]);
    let holders: Vec<Bytes> = (0..64).map(|_| frame.clone()).collect();
    for h in &holders {
        assert_eq!(h.len(), 1 << 20);
        assert_eq!(h[0], 0x42);
        assert_eq!(h.as_ptr(), frame.as_ptr());
    }
}
