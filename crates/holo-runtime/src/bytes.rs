//! The cheap-clone byte buffer frame payloads travel in.
//!
//! [`Bytes`] is an immutable, reference-counted `Arc<[u8]>`: `clone()`
//! is O(1) and shares the allocation, so one encoded frame can sit in an
//! `EncodedFrame`, a `WireFrame` and a fan-out list without being
//! copied. It derefs to `&[u8]`; everything that *reads* structure out
//! of a payload does so through [`crate::ser::ByteReader`], the one
//! cursor, with typed errors.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Immutable reference-counted byte buffer. Cloning is O(1) and shares
/// the underlying allocation; equality is content equality.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy a slice into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self(Arc::from(data))
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self(Arc::from(v))
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if b == b'"' || b == b'\\' {
                write!(f, "\\{}", b as char)?;
            } else if (0x20..0x7f).contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5, 6]);
        let c = b.clone();
        assert_eq!(&c[..], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(b.as_ptr(), c.as_ptr());
    }

    #[test]
    fn equality_across_representations() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
        assert_eq!(b, [1u8, 2, 3].into_iter().collect::<Bytes>());
        assert_ne!(b, Bytes::from(vec![1u8, 2]));
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn debug_escapes_non_printable() {
        let b = Bytes::from(vec![b'h', b'i', 0, 0xff]);
        assert_eq!(format!("{b:?}"), "b\"hi\\x00\\xff\"");
    }
}
