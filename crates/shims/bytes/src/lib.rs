//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build container has no crates.io access, so this crate implements the
//! subset of the `bytes` API the workspace uses: [`Bytes`] (a cheaply
//! clonable, immutable byte buffer) and [`BytesMut`] (a growable buffer that
//! freezes into `Bytes`). Semantics match the real crate for this subset,
//! including zero-copy [`Bytes::slice`] (a subrange shares the parent's
//! allocation); the split/advance machinery is intentionally absent.
//!
//! `Bytes` is the data plane's frame handle *and* the switchlet VM's string
//! (see `crates/netsim/DESIGN.md`), so its per-delivery operations — `len`,
//! deref, `clone`, drop — are `#[inline]` field work in the calling crate:
//! the length and view offset live in the 24-byte handle itself, not behind
//! the refcounted pointer. Two things go beyond the real crate, both for the
//! frame pool: a `BytesMut` reclaimed with [`Bytes::try_into_mut`] carries
//! its refcount header along, so freezing it again allocates nothing; and
//! [`BytesMut::as_mut_vec`] exposes the backing vector to builders that
//! append into a `Vec<u8>`.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
// The workspace simulator is single-threaded, so the shared buffer uses a
// non-atomic refcount. The real `bytes` crate (atomic, `Send + Sync`) is a
// drop-in superset; swapping it back in only widens the contract.
use std::rc::Rc;

/// A cheaply clonable, immutable contiguous slice of memory.
///
/// A view (`off..off + len`) into its storage. Clones and subslices bump
/// the refcount; nothing is ever copied.
#[derive(Clone)]
pub struct Bytes {
    store: Store,
    off: u32,
    len: u32,
}

#[derive(Clone)]
enum Store {
    Static(&'static [u8]),
    /// Backing store is the `Vec` the caller built, wrapped as-is —
    /// freezing a built buffer into `Bytes` is zero-copy.
    Shared(Rc<Vec<u8>>),
}

impl Bytes {
    /// An empty `Bytes`.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wrap a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        assert!(bytes.len() <= u32::MAX as usize);
        Bytes {
            store: Store::Static(bytes),
            off: 0,
            len: bytes.len() as u32,
        }
    }

    /// Copy a slice into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a `Bytes` for the given subrange, sharing the allocation
    /// with `self` (zero-copy, like the real crate).
    #[inline]
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        Bytes {
            store: self.store.clone(),
            off: self.off + start as u32,
            len: (end - start) as u32,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// True if this is the only handle to its storage (static data never
    /// is). One refcount test — what a recycling path asks before it
    /// bothers with [`Bytes::try_into_mut`].
    #[inline]
    pub fn is_unique(&self) -> bool {
        match &self.store {
            Store::Static(_) => false,
            Store::Shared(buf) => Rc::strong_count(buf) == 1,
        }
    }

    /// Convert into a [`BytesMut`] without copying if this is the only
    /// reference to the full backing storage; otherwise returns `self`
    /// unchanged. Matches `bytes::Bytes::try_into_mut` (1.4+) — the hook
    /// buffer-recycling paths use to reclaim a dead frame's allocation.
    /// The refcount header stays with the returned buffer, so its next
    /// [`BytesMut::freeze`] allocates nothing.
    #[inline]
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { store, off, len } = self;
        match store {
            Store::Shared(mut header) if off == 0 && len as usize == header.len() => {
                match Rc::get_mut(&mut header) {
                    Some(buf) => Ok(BytesMut {
                        buf: std::mem::take(buf),
                        header: Some(header),
                    }),
                    None => Err(Bytes {
                        store: Store::Shared(header),
                        off,
                        len,
                    }),
                }
            }
            store => Err(Bytes { store, off, len }),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        let (off, end) = (self.off as usize, self.off as usize + self.len as usize);
        match &self.store {
            Store::Static(s) => &s[off..end],
            Store::Shared(buf) => &buf[off..end],
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
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
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
        // Zero-copy: the vector becomes the shared backing store.
        BytesMut::from(v).freeze()
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

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
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
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
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
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self.as_slice(), f)
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
///
/// Uniquely owned. One that came out of [`Bytes::try_into_mut`] keeps the
/// refcount header it was shared under (`header`, its vector moved out into
/// `buf`), so a buffer that cycles pool → frame → pool never touches the
/// allocator: the storage is recycled whole.
#[derive(Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// The spare refcount header: never cloned, so always unique.
    header: Option<Rc<Vec<u8>>>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut::from(Vec::with_capacity(cap))
    }

    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Make room for `additional` more bytes, growing the storage in place.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional)
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value)
    }

    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear()
    }

    /// The backing vector, for builders that append into a `Vec<u8>`
    /// (beyond the real crate's API; see the crate docs).
    #[inline]
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Convert into an immutable [`Bytes`], reusing the refcount header
    /// the buffer was reclaimed with when it has one.
    #[inline]
    pub fn freeze(self) -> Bytes {
        // Views are addressed with 32-bit offsets so the handle stays
        // three words.
        let len = u32::try_from(self.buf.len()).expect("Bytes buffers are limited to 4 GiB");
        let store = match self.header {
            Some(mut header) => {
                *Rc::get_mut(&mut header).expect("a spare header is never shared") = self.buf;
                header
            }
            None => Rc::new(self.buf),
        };
        Bytes {
            store: Store::Shared(store),
            off: 0,
            len,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut::from(self.buf.clone())
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}
impl Eq for BytesMut {}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut::from(s.to_vec())
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(m: BytesMut) -> Self {
        m.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf, header: None }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.buf.extend(iter)
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(&self.buf, f)
    }
}

/// Shared `Debug` body: render as `b"..."` like the real crate.
fn debug_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        match b {
            b'"' => write!(f, "\\\"")?,
            b'\\' => write!(f, "\\\\")?,
            b'\n' => write!(f, "\\n")?,
            b'\r' => write!(f, "\\r")?,
            b'\t' => write!(f, "\\t")?,
            0x20..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\x{b:02x}")?,
        }
    }
    write!(f, "\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.slice(1..), Bytes::from(vec![2, 3]));
    }

    #[test]
    fn slice_shares_the_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        // Zero-copy: the subrange points into the parent's storage.
        assert!(std::ptr::eq(&b[1], &s[0]));
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
        assert!(std::ptr::eq(&b[2], &ss[0]));
        // Static slices subslice without copying too.
        let st = Bytes::from_static(b"hello");
        let sub = st.slice(1..3);
        assert!(std::ptr::eq(&st[1], &sub[0]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..9);
    }

    #[test]
    fn try_into_mut_needs_the_sole_view_of_the_whole_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let c = b.clone();
        assert!(!b.is_unique());
        let b = b.try_into_mut().expect_err("a second handle is alive");
        drop(c);
        assert!(b.is_unique());
        // Unique, but a view of part of the storage.
        let tail = b.slice(1..);
        drop(b);
        assert!(tail.is_unique());
        let tail = tail.try_into_mut().expect_err("a partial view");
        assert_eq!(&tail[..], &[2, 3, 4]);
        assert!(Bytes::from_static(b"abc").try_into_mut().is_err());
    }

    #[test]
    fn reclaimed_storage_is_reused_whole() {
        fn header(b: &Bytes) -> *const Vec<u8> {
            match &b.store {
                Store::Shared(rc) => Rc::as_ptr(rc),
                Store::Static(_) => unreachable!("built from a vector"),
            }
        }
        let b = Bytes::from(vec![7u8; 64]);
        let (hdr, data) = (header(&b), b.as_ptr());
        let mut m = b.try_into_mut().expect("sole whole view");
        m.clear();
        m.extend_from_slice(&[9u8; 32]);
        let b = m.freeze();
        assert_eq!(&b[..], &[9u8; 32]);
        assert_eq!((header(&b), b.as_ptr()), (hdr, data));
    }

    #[test]
    fn freeze() {
        let mut m = BytesMut::from(&b"abc"[..]);
        m.extend_from_slice(b"def");
        assert_eq!(&m.freeze()[..], b"abcdef");
    }
}
