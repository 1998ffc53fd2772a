//! Offline shim for the `bytes` crate.
//!
//! Provides a cheaply clonable, immutable byte buffer with the subset of
//! the upstream [`Bytes`] API this workspace uses. Static slices are kept
//! as references (no allocation); owned data is shared behind an `Arc`, and
//! [`Bytes::slice`] hands out a sub-range of it that shares the same `Arc`.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply clonable contiguous byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// `buf[start..end]`.
    Shared {
        buf: Arc<[u8]>,
        start: usize,
        end: usize,
    },
}

impl Bytes {
    /// Creates an empty buffer.
    pub const fn new() -> Self {
        Bytes {
            repr: Repr::Static(&[]),
        }
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
        }
    }

    /// Copies a slice into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::shared(Arc::from(data))
    }

    fn shared(buf: Arc<[u8]>) -> Self {
        let end = buf.len();
        Bytes {
            repr: Repr::Shared { buf, start: 0, end },
        }
    }

    /// The bytes of `range` (relative to this buffer), sharing its storage:
    /// no copy and no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range starts after it ends or ends past the buffer, as
    /// slicing `&[u8]` would.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("range start overflows"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end overflows"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(start <= end, "range start {start} is after its end {end}");
        assert!(
            end <= len,
            "range end {end} is past the buffer's {len} bytes"
        );
        let repr = match &self.repr {
            Repr::Static(s) => Repr::Static(&s[start..end]),
            Repr::Shared { buf, start: at, .. } => Repr::Shared {
                buf: Arc::clone(buf),
                start: at + start,
                end: at + end,
            },
        };
        Bytes { repr }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Returns a copy of this buffer as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::shared(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;

    #[test]
    fn static_and_owned_compare_equal() {
        let a = Bytes::from_static(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), b"hello");
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Bytes::from(String::from("payload"));
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.to_vec(), b"payload");
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::new().len(), 0);
    }

    fn hash_of(b: &Bytes) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// A slice and a fresh copy of the same bytes are interchangeable:
    /// equal, hashed alike, and found under either in a map.
    fn assert_interchangeable(slice: &Bytes, want: &[u8]) {
        use std::borrow::Borrow;
        let copy = Bytes::copy_from_slice(want);
        assert_eq!(*slice, copy);
        assert_eq!(slice.as_ref(), want);
        assert_eq!(slice.len(), want.len());
        assert_eq!(hash_of(slice), hash_of(&copy));
        assert_eq!(Borrow::<[u8]>::borrow(slice), Borrow::<[u8]>::borrow(&copy));
        let set: std::collections::HashSet<Bytes> = [copy].into();
        assert!(set.contains(want));
        assert!(set.contains(slice));
    }

    #[test]
    fn slices_agree_with_copies_of_the_same_bytes() {
        let whole = Bytes::from(b"header|parent|content".to_vec());
        assert_interchangeable(&whole.slice(0..6), b"header");
        assert_interchangeable(&whole.slice(7..13), b"parent");
        assert_interchangeable(&whole.slice(14..), b"content");
        assert_interchangeable(&whole.slice(..), b"header|parent|content");
        assert_interchangeable(&whole.slice(6..=6), b"|");
        assert_interchangeable(&whole.slice(3..3), b"");
        assert_interchangeable(&whole.slice(21..), b"");
        assert!(whole.slice(3..3).is_empty());
        // Slices of static buffers stay static and compare the same way.
        let fixed = Bytes::from_static(b"<IDS|MSG>");
        assert_interchangeable(&fixed.slice(1..4), b"IDS");
        assert_interchangeable(&fixed.slice(..=0), b"<");
    }

    #[test]
    fn nested_slices_are_relative_to_their_parent() {
        let whole = Bytes::from(b"0123456789".to_vec());
        let mid = whole.slice(2..8);
        assert_interchangeable(&mid.slice(1..4), b"345");
        assert_interchangeable(&mid.slice(1..4).slice(2..), b"5");
        assert_interchangeable(&mid.slice(..0), b"");
        let fixed = Bytes::from_static(b"0123456789").slice(5..);
        assert_interchangeable(&fixed.slice(1..3), b"67");
        // A slice outlives the buffer it was cut from.
        let tail = {
            let owner = Bytes::copy_from_slice(b"short-lived");
            owner.slice(6..)
        };
        assert_interchangeable(&tail, b"lived");
        assert_interchangeable(&tail.clone(), b"lived");
    }

    #[test]
    #[should_panic(expected = "past the buffer")]
    fn a_slice_past_the_end_panics() {
        let _ = Bytes::from(b"abc".to_vec()).slice(1..4);
    }

    #[test]
    #[should_panic(expected = "past the buffer")]
    fn a_slice_past_the_end_of_a_slice_panics() {
        // In range of the shared buffer, out of range of the slice.
        let _ = Bytes::from(b"abcdef".to_vec()).slice(1..3).slice(0..3);
    }

    #[test]
    #[should_panic(expected = "after its end")]
    fn a_reversed_slice_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Bytes::from_static(b"abc").slice(2..1);
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\"\n");
        assert_eq!(format!("{b:?}"), "b\"a\\\"\\n\"");
    }
}
