//! [`FrameBuf`]: the refcounted, immutable frame buffer every layer of
//! the data plane passes around.
//!
//! A frame is built exactly once (by an application, a protocol stack or
//! `ether::FrameBuilder`) and then *shared*: delivering it to N listeners,
//! capturing it, duplicating it through fault injection, queueing it on a
//! segment and handing it to a bridge's switching function are all
//! refcount bumps on the same allocation. The only operation that copies
//! is [`FrameBuf::mutate`] — copy-on-write, used by the fault layer's
//! corruption point so one listener's corrupted view can never leak into
//! the buffer other listeners (or the capture log) observe.
//!
//! `FrameBuf` is a thin wrapper over [`bytes::Bytes`]; it exists so the
//! simulator's API names the *frame* contract (immutable, cheap to clone,
//! zero-copy subranges) rather than a general byte container. The
//! switchlet VM's strings are the same `Bytes`, so a frame crosses the VM
//! boundary as a handle ([`FrameBuf::as_bytes`] one way, `From<Bytes>` the
//! other). Every per-delivery operation (`len`, deref, `clone`, drop) is
//! inline field work in the calling crate; see DESIGN.md for the
//! representation and the pool contract.

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use bytes::{Bytes, BytesMut};

/// A cheaply clonable, immutable Ethernet frame buffer.
///
/// `Clone` is a refcount bump; two clones observe the same storage (see
/// [`FrameBuf::shares_storage`]). Mutation goes through copy-on-write
/// ([`FrameBuf::mutate`]) and never affects other holders.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameBuf(Bytes);

impl FrameBuf {
    /// An empty frame buffer.
    #[inline]
    pub const fn new() -> Self {
        FrameBuf(Bytes::new())
    }

    /// Wrap a static byte slice without copying.
    #[inline]
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        FrameBuf(Bytes::from_static(bytes))
    }

    /// Copy a slice into a fresh buffer (the build-once point).
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        FrameBuf(Bytes::copy_from_slice(data))
    }

    /// Frame length in octets.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the frame is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A zero-copy view of a subrange (shares this buffer's storage) —
    /// what decapsulation uses to peel headers without copying payloads.
    #[inline]
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> FrameBuf {
        FrameBuf(self.0.slice(range))
    }

    /// Copy out to a `Vec` (boundary to APIs that need owned bytes).
    #[inline]
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// The underlying refcounted byte buffer.
    #[inline]
    pub fn as_bytes(&self) -> &Bytes {
        &self.0
    }

    /// Unwrap into the underlying [`Bytes`] (no copy).
    #[inline]
    pub fn into_bytes(self) -> Bytes {
        self.0
    }

    /// True if no other handle shares this frame's storage: one refcount
    /// test, the whole cost of recycling a frame somebody else still holds.
    #[inline]
    pub fn is_unique(&self) -> bool {
        self.0.is_unique()
    }

    /// Reclaim the storage *whole* (bytes and refcount header) without
    /// copying, if this is the sole view of all of it — the
    /// buffer-recycling hook: a frame that just died hands its allocation
    /// back to a pool instead of the allocator. Returns `self` unchanged
    /// otherwise.
    #[inline]
    pub fn try_into_mut(self) -> Result<BytesMut, FrameBuf> {
        self.0.try_into_mut().map_err(FrameBuf)
    }

    /// Copy-on-write mutation: clones the contents into a private buffer,
    /// lets `f` edit them, and replaces `self` with the edited copy.
    /// Other holders of the original buffer are unaffected. **This is the
    /// only `FrameBuf` operation that copies frame bytes** — the fault
    /// layer's corruption point is its one data-plane caller.
    #[inline]
    pub fn mutate(&mut self, f: impl FnOnce(&mut [u8])) {
        let mut buf = BytesMut::from(&self.0[..]);
        f(&mut buf);
        self.0 = buf.freeze();
    }

    /// True if `self` and `other` are views of the same storage (same
    /// address and length) — i.e. cloning really was zero-copy. Test/
    /// assertion helper; not part of frame semantics.
    #[inline]
    pub fn shares_storage(&self, other: &FrameBuf) -> bool {
        self.len() == other.len() && std::ptr::eq(self.0.as_ptr(), other.0.as_ptr())
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for FrameBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Bytes> for FrameBuf {
    #[inline]
    fn from(b: Bytes) -> Self {
        FrameBuf(b)
    }
}

impl From<FrameBuf> for Bytes {
    #[inline]
    fn from(f: FrameBuf) -> Self {
        f.0
    }
}

impl From<Vec<u8>> for FrameBuf {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        FrameBuf(Bytes::from(v))
    }
}

impl From<BytesMut> for FrameBuf {
    #[inline]
    fn from(m: BytesMut) -> Self {
        FrameBuf(m.freeze())
    }
}

impl From<&'static [u8]> for FrameBuf {
    #[inline]
    fn from(s: &'static [u8]) -> Self {
        FrameBuf::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for FrameBuf {
    #[inline]
    fn from(s: &'static [u8; N]) -> Self {
        FrameBuf::from_static(s)
    }
}

impl FromIterator<u8> for FrameBuf {
    #[inline]
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        FrameBuf(Bytes::from(iter.into_iter().collect::<Vec<u8>>()))
    }
}

impl PartialEq<[u8]> for FrameBuf {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        &self.0[..] == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    #[inline]
    fn eq(&self, other: &&[u8]) -> bool {
        &self.0[..] == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    #[inline]
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.0[..] == other.as_slice()
    }
}

impl std::fmt::Debug for FrameBuf {
    #[inline]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = FrameBuf::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert!(a.shares_storage(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn slice_is_zero_copy() {
        let a = FrameBuf::from(vec![9u8; 64]);
        let s = a.slice(10..20);
        assert_eq!(s.len(), 10);
        assert!(std::ptr::eq(&a[10], &s[0]), "slice must share storage");
    }

    #[test]
    fn mutate_is_copy_on_write() {
        let a = FrameBuf::from(vec![0u8; 8]);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.mutate(|buf| buf[3] ^= 0xFF);
        assert!(!a.shares_storage(&b), "mutation must detach the copy");
        assert_eq!(a[3], 0, "original holder must be unaffected");
        assert_eq!(b[3], 0xFF);
    }

    #[test]
    fn static_frames_never_allocate() {
        let a = FrameBuf::from_static(b"hello frame");
        let b = a.clone();
        assert!(a.shares_storage(&b));
        assert_eq!(&a[..], b"hello frame");
    }
}
