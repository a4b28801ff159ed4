//! [`FrameBuf`]: the workspace's one byte-string handle. A frame on the
//! simulated wire and a string in the switchlet VM are the same value, as
//! a frame and a Caml string are for the paper's switchlets.
//!
//! A frame is built once (by an application, a protocol stack or
//! `ether::FrameBuilder`) into a [`FrameBufMut`] and frozen; from then on
//! it is *shared*: delivering it to N listeners, capturing it, queueing it
//! on a segment and handing it to a switchlet as its `str` argument are
//! refcount bumps on the same allocation. The contract:
//!
//! * **Two words.** A handle is its storage and one word holding a 32-bit
//!   offset (low half) and a 32-bit length (high half) into it. A struct
//!   of two scalars is a scalar pair, which rustc passes and returns in
//!   two registers: a frame handed on by value (`Ctx::send`,
//!   `Node::on_frame`, a VM argument) moves without a stack copy read
//!   back wider than it was written. `len`, deref, `clone`, drop and
//!   [`FrameBuf::slice`] are field work inline in the calling crate. The
//!   storage pointer is never null, so `Option<FrameBuf>` is two words
//!   too, and `switchlet::Value` stays four. A buffer holds at most
//!   4 GiB.
//! * **A non-atomic `Rc`.** The simulator is single-threaded; a handle is
//!   neither `Send` nor `Sync`.
//! * **One kind of storage.** [`FrameBuf::from_static`] copies its bytes
//!   into an ordinary shared buffer, so every handle is unique exactly
//!   when it is the only one on its storage, and reclaimable like any
//!   other.
//! * **Whole-storage reclaim.** [`FrameBuf::try_into_mut`] turns the sole
//!   view of a whole shared buffer back into a [`FrameBufMut`] that keeps
//!   the refcount header beside the vector, and [`FrameBufMut::freeze`]
//!   puts the vector back into that header: a buffer that cycles pool →
//!   frame → pool never reaches the allocator.
//! * **One pool per thread, sized by its traffic.** [`FrameBufMut::pooled`]
//!   lends a buffer from this thread's frame pool and [`FrameBuf::recycle`]
//!   gives a dead frame's storage back. The pool keeps at most as many
//!   buffers as the thread has had lent out at once, counted per world
//!   ([`restart_lent_count`]), so it pins no more storage than the thread
//!   already held at its peak (crates/netsim/DESIGN.md § The frame pool).
//! * **[`FrameBufMut::as_mut_vec`]** lends the backing vector to builders
//!   that append into a `Vec<u8>`.
//! * **One copy.** [`FrameBuf::mutate`] is copy-on-write and the only
//!   operation that copies the bytes of a frame already built.

// Other crates call these per frame, and rustc inlines across a crate
// boundary only what is marked (crates/netsim/DESIGN.md § Inlining policy).
#![deny(clippy::missing_inline_in_public_items)]

use std::cell::RefCell;
use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::rc::Rc;

/// The largest storage [`FrameBuf::recycle`] keeps: a pool outlives its
/// worlds, so it keeps frame-sized buffers (a frame is at most 1 514
/// bytes), not, say, a string a switchlet grew.
pub const POOL_MAX_CAPACITY: usize = 2048;

/// One thread's frame pool: the storage it holds and the demand that
/// bounds it.
struct Pool {
    /// Recycled frame storage, newest last: each entry a dead frame's
    /// whole storage, cleared, still in the refcount header it was shared
    /// under (one word to push or pop).
    free: Vec<Rc<Vec<u8>>>,
    /// Buffers [`FrameBufMut::pooled`] has lent out and
    /// [`FrameBuf::recycle`] has not taken back since the last
    /// [`restart_lent_count`].
    lent: usize,
    /// The most buffers lent out at once on this thread, and at least
    /// one (storage built beside the pool and recycled was out too):
    /// `recycle` keeps a buffer while `free` holds fewer.
    high_water: usize,
}

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool {
            free: Vec::new(),
            lent: 0,
            high_water: 1,
        })
    };
}

/// Start counting this thread's lent buffers from zero, keeping the
/// pool's storage and its high-water. A simulated world calls this when
/// it is built or reset: what an earlier world still held when it was
/// dropped (queued or captured frames, a blaster's template) never comes
/// back, and must not count as out in the next one.
#[inline]
pub fn restart_lent_count() {
    let _ = POOL.try_with(|pool| pool.borrow_mut().lent = 0);
}

/// A cheaply clonable, immutable view (`off..off + len`) of byte storage.
///
/// `Clone` and [`FrameBuf::slice`] bump the refcount; two clones observe
/// the same storage (see [`FrameBuf::shares_storage`]). Mutation goes
/// through copy-on-write ([`FrameBuf::mutate`]) and never affects other
/// holders.
#[derive(Clone)]
pub struct FrameBuf {
    /// The `Vec` the caller built, wrapped as-is: freezing is zero-copy.
    store: Rc<Vec<u8>>,
    /// `off | len << 32`.
    span: u64,
}

/// The `span` of the view `off..off + len`.
#[inline]
fn span(off: usize, len: usize) -> u64 {
    off as u64 | (len as u64) << 32
}

impl FrameBuf {
    /// Copy a static slice into a fresh shared buffer.
    #[inline]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        FrameBuf::from(bytes.to_vec())
    }

    /// Length in octets.
    #[inline]
    pub fn len(&self) -> usize {
        (self.span >> 32) as usize
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn off(&self) -> usize {
        self.span as u32 as usize
    }

    /// A zero-copy view of a subrange, sharing this buffer's storage —
    /// what decapsulation uses to peel headers without copying payloads.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> FrameBuf {
        let start = match range.start_bound() {
            Bound::Included(&n) => Some(n),
            Bound::Excluded(&n) => n.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1),
            Bound::Excluded(&n) => Some(n),
            Bound::Unbounded => Some(self.len()),
        };
        match (start, end) {
            (Some(start), Some(end)) if start <= end && end <= self.len() => FrameBuf {
                store: self.store.clone(),
                span: span(self.off() + start, end - start),
            },
            _ => out_of_bounds(
                range.start_bound().cloned(),
                range.end_bound().cloned(),
                self.len(),
            ),
        }
    }

    /// True if this is the only handle to its storage. One refcount test —
    /// what a recycling path asks before it bothers with
    /// [`FrameBuf::try_into_mut`].
    #[inline]
    pub fn is_unique(&self) -> bool {
        Rc::strong_count(&self.store) == 1
    }

    /// Reclaim the storage *whole*, bytes and refcount header, without
    /// copying, if this is the sole view of all of it; otherwise return
    /// `self` unchanged. The buffer-recycling hook: a frame that just died
    /// hands its allocation back to a pool, and the returned buffer's next
    /// [`FrameBufMut::freeze`] allocates nothing.
    #[inline]
    pub fn try_into_mut(mut self) -> Result<FrameBufMut, FrameBuf> {
        if self.span == span(0, self.store.len()) {
            if let Some(buf) = Rc::get_mut(&mut self.store) {
                return Ok(FrameBufMut {
                    buf: std::mem::take(buf),
                    header: Some(self.store),
                });
            }
        }
        Err(self)
    }

    /// Hand a finished-with frame's storage back to this thread's frame
    /// pool. The sole view of a whole buffer counts as taken back, and is
    /// kept if it holds at most [`POOL_MAX_CAPACITY`] bytes and the pool
    /// holds fewer buffers than the most this thread has had lent out at
    /// once; it is dropped otherwise (also during thread teardown). Any
    /// other view reclaims nothing.
    #[inline]
    pub fn recycle(mut self) {
        let whole = self.span == span(0, self.store.len());
        let keep = match Rc::get_mut(&mut self.store) {
            Some(bytes) if whole => {
                bytes.clear();
                bytes.capacity() <= POOL_MAX_CAPACITY
            }
            _ => return,
        };
        let _ = POOL.try_with(|pool| {
            let pool = &mut *pool.borrow_mut();
            pool.lent = pool.lent.saturating_sub(1);
            if keep && pool.free.len() < pool.high_water {
                pool.free.push(self.store);
            }
        });
    }

    /// Copy-on-write: copy the contents into a private buffer, let `f`
    /// edit them, and replace `self` with the edited copy. Other holders
    /// of the original storage are unaffected. The fault layer's
    /// corruption point is the one data-plane caller.
    #[inline]
    pub fn mutate(&mut self, f: impl FnOnce(&mut [u8])) {
        let mut bytes = self.to_vec();
        f(&mut bytes);
        *self = FrameBuf::from(bytes);
    }

    /// True if `self` and `other` are views of the same bytes (same
    /// address and length): cloning really was zero-copy. A test and
    /// assertion helper, not part of frame semantics.
    #[inline]
    pub fn shares_storage(&self, other: &FrameBuf) -> bool {
        self.len() == other.len() && std::ptr::eq(self.as_ptr(), other.as_ptr())
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        let off = self.off();
        &self.store[off..off + self.len()]
    }
}

#[cold]
#[inline(never)]
fn out_of_bounds(start: Bound<usize>, end: Bound<usize>, len: usize) -> ! {
    panic!("slice ({start:?}, {end:?}) out of bounds for FrameBuf of length {len}")
}

impl Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for FrameBuf {
    /// Zero-copy: the vector becomes the shared storage.
    #[inline]
    fn from(buf: Vec<u8>) -> Self {
        FrameBufMut { buf, header: None }.freeze()
    }
}

impl PartialEq for FrameBuf {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl fmt::Debug for FrameBuf {
    /// `b"..."`, with printable ASCII as is and other bytes escaped.
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
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
}

/// A growable, uniquely owned byte buffer that freezes into a
/// [`FrameBuf`].
///
/// One that came out of [`FrameBuf::try_into_mut`] keeps the refcount
/// header it was shared under (`header`, its vector moved out into `buf`),
/// so a buffer that cycles pool → frame → pool is recycled whole.
#[derive(Debug, Default)]
pub struct FrameBufMut {
    buf: Vec<u8>,
    /// The spare refcount header: never cloned, so always unique.
    header: Option<Rc<Vec<u8>>>,
}

impl FrameBufMut {
    /// An empty buffer (no allocation until something is written).
    #[inline]
    pub fn new() -> Self {
        FrameBufMut::default()
    }

    /// An empty buffer with room for `cap` bytes.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        FrameBufMut {
            buf: Vec::with_capacity(cap),
            header: None,
        }
    }

    /// A cleared buffer of at least `cap` capacity from this thread's
    /// frame pool — the allocation-free way to start building a frame
    /// (freezing it reuses its refcount header too) — or a fresh one when
    /// the pool is empty. Pair with [`FrameBuf::recycle`].
    #[inline]
    pub fn pooled(cap: usize) -> Self {
        let taken = POOL.try_with(|pool| {
            let pool = &mut *pool.borrow_mut();
            pool.lent += 1;
            pool.high_water = pool.high_water.max(pool.lent);
            // Scan a few recent entries for one big enough (the pool turns
            // over the same frame-sized buffers in steady state), else
            // take the newest.
            let free = &mut pool.free;
            let n = free.len();
            let fit = (n.saturating_sub(4)..n)
                .rev()
                .find(|&i| free[i].capacity() >= cap);
            fit.or(n.checked_sub(1)).map(|i| free.swap_remove(i))
        });
        let mut buf = match taken.ok().flatten() {
            // Cleared when recycled: its one view, empty, is all of it.
            Some(store) => FrameBuf { store, span: 0 }
                .try_into_mut()
                .expect("pooled storage is unshared"),
            None => FrameBufMut::default(),
        };
        // Grow a pooled buffer in place rather than allocate beside it: a
        // pool full of ACK-sized buffers would otherwise turn every
        // full-sized frame away for the rest of the run. Doubling, as a
        // `Vec` grows, but not past what `recycle` keeps.
        if buf.capacity() < cap {
            let doubled = (2 * buf.capacity()).min(POOL_MAX_CAPACITY);
            buf.buf.reserve_exact(cap.max(doubled));
        }
        buf
    }

    /// Append `extend`.
    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend)
    }

    /// Bytes the storage holds without growing.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Make room for `additional` more bytes, growing the storage in place.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional)
    }

    /// Truncate or zero-extend (with `value`) to `new_len` bytes.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value)
    }

    /// Empty the buffer, keeping its storage.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear()
    }

    /// The backing vector, for builders that append into a `Vec<u8>`.
    #[inline]
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Convert into an immutable [`FrameBuf`], reusing the refcount header
    /// the buffer was reclaimed with when it has one.
    #[inline]
    pub fn freeze(self) -> FrameBuf {
        let len = u32::try_from(self.buf.len()).expect("FrameBuf storage is limited to 4 GiB");
        let store = match self.header {
            Some(mut header) => {
                *Rc::get_mut(&mut header).expect("a spare header is never shared") = self.buf;
                header
            }
            None => Rc::new(self.buf),
        };
        FrameBuf {
            store,
            span: span(0, len as usize),
        }
    }
}

impl Deref for FrameBufMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for FrameBufMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let b = FrameBuf::from(vec![1, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.slice(1..), FrameBuf::from(vec![2, 3]));
    }

    #[test]
    fn slice_shares_the_allocation() {
        let b = FrameBuf::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        // Zero-copy: the subrange points into the parent's storage.
        assert!(std::ptr::eq(&b[1], &s[0]));
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
        assert!(std::ptr::eq(&b[2], &ss[0]));
        // A static slice's copy subslices without copying again.
        let st = FrameBuf::from_static(b"hello");
        let sub = st.slice(1..3);
        assert!(std::ptr::eq(&st[1], &sub[0]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = FrameBuf::from(vec![1, 2, 3]);
        let _ = b.slice(1..9);
    }

    /// `Included(usize::MAX)` as an end and `Excluded(usize::MAX)` as a
    /// start name positions one past the largest `usize`: out of bounds,
    /// not a wrapped-around zero.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_to_included_usize_max_panics() {
        let b = FrameBuf::from(vec![1, 2, 3, 4]);
        let _ = b.slice(..=usize::MAX);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_from_excluded_usize_max_panics() {
        let b = FrameBuf::from(vec![1, 2, 3, 4]);
        let _ = b.slice((Bound::Excluded(usize::MAX), Bound::Unbounded));
    }

    #[test]
    fn try_into_mut_needs_the_sole_view_of_the_whole_storage() {
        let b = FrameBuf::from(vec![1, 2, 3, 4]);
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
        // A static slice's copy is an ordinary buffer: its one handle is
        // unique and reclaims it.
        let st = FrameBuf::from_static(b"abc");
        assert!(st.is_unique());
        let st = st.try_into_mut().expect("the sole view of its copy");
        assert_eq!(&st[..], b"abc");
    }

    #[test]
    fn reclaimed_storage_is_reused_whole() {
        fn header(b: &FrameBuf) -> *const Vec<u8> {
            Rc::as_ptr(&b.store)
        }
        let b = FrameBuf::from(vec![7u8; 64]);
        let (hdr, data) = (header(&b), b.as_ptr());
        let mut m = b.try_into_mut().expect("sole whole view");
        m.clear();
        m.extend_from_slice(&[9u8; 32]);
        let b = m.freeze();
        assert_eq!(&b[..], &[9u8; 32]);
        assert_eq!((header(&b), b.as_ptr()), (hdr, data));
    }

    /// Each test runs on a thread of its own, so its pool starts empty.
    #[test]
    fn a_recycled_frame_is_the_next_pooled_buffer() {
        let frame = FrameBuf::from(vec![7u8; 64]);
        let storage = frame.as_ptr();
        frame.recycle();
        let buf = FrameBufMut::pooled(64);
        assert!(buf.is_empty());
        assert_eq!(buf.as_ptr(), storage);
        // The pool is empty again: a fresh buffer, sized as asked.
        assert_eq!(FrameBufMut::pooled(0).capacity(), 0);
        assert!(FrameBufMut::pooled(100).capacity() >= 100);
    }

    #[test]
    fn recycling_a_shared_handle_reclaims_nothing() {
        let held = FrameBuf::from(vec![0xABu8; 64]);
        held.clone().recycle();
        assert_eq!(
            FrameBufMut::pooled(0).capacity(),
            0,
            "someone still holds it"
        );
        assert!(held.iter().all(|&b| b == 0xAB), "and still sees its bytes");
        // A view of part of the storage is not the whole of it either.
        let tail = held.slice(1..);
        drop(held);
        tail.recycle();
        assert_eq!(FrameBufMut::pooled(0).capacity(), 0);
        // The last handle of the whole storage is what goes back.
        let last = FrameBuf::from(vec![0xCDu8; 64]);
        let storage = last.as_ptr();
        last.recycle();
        let reused = FrameBufMut::pooled(64);
        assert!(reused.is_empty());
        assert_eq!(reused.as_ptr(), storage);
    }

    #[test]
    fn a_recycled_64_kib_frame_is_freed_not_pooled() {
        FrameBuf::from(vec![0u8; 64 * 1024]).recycle();
        assert_eq!(FrameBufMut::pooled(0).capacity(), 0, "nothing was pooled");
        // A frame at the bound is kept.
        FrameBuf::from(vec![0u8; POOL_MAX_CAPACITY]).recycle();
        assert_eq!(FrameBufMut::pooled(0).capacity(), POOL_MAX_CAPACITY);
    }

    /// A thread that has had `LENT` buffers out at once keeps `LENT`: the
    /// recycle past them is dropped, whether it was lent by the pool or
    /// built beside it.
    #[test]
    fn the_recycle_past_the_high_water_is_dropped() {
        const LENT: usize = 64;
        // Alive together, so every frame has storage of its own.
        let lent: Vec<FrameBuf> = (0..LENT)
            .map(|i| {
                let mut buf = FrameBufMut::pooled(64);
                buf.resize(64, i as u8);
                buf.freeze()
            })
            .collect();
        let beside = FrameBuf::from(vec![0xEEu8; 64]);
        let storage: Vec<*const u8> = lent.iter().map(|f| f.as_ptr()).collect();
        lent.into_iter().for_each(FrameBuf::recycle);
        beside.recycle();
        let drained: Vec<FrameBufMut> = (0..=LENT).map(|_| FrameBufMut::pooled(0)).collect();
        // Newest first: the last lent buffer recycled down to the first.
        for (buf, &was) in drained.iter().zip(storage.iter().rev()) {
            assert_eq!(buf.as_ptr(), was);
        }
        assert_eq!(drained[LENT].capacity(), 0, "the 65th was not kept");
        // Draining lent 65 at once: now a 65th recycle is kept.
        for mut buf in drained {
            buf.resize(64, 0);
            buf.freeze().recycle();
        }
        let refilled = (0..=LENT).filter(|_| FrameBufMut::pooled(0).capacity() > 0);
        assert_eq!(refilled.count(), LENT + 1);
    }

    #[test]
    fn a_recycle_during_thread_teardown_drops_the_frame() {
        struct RecycleOnDrop(Option<FrameBuf>);
        impl Drop for RecycleOnDrop {
            fn drop(&mut self) {
                if let Some(frame) = self.0.take() {
                    frame.recycle();
                }
            }
        }
        thread_local! {
            static LATE: RefCell<RecycleOnDrop> = const { RefCell::new(RecycleOnDrop(None)) };
        }
        std::thread::spawn(|| {
            // Registered before the pool, so (destructors running newest
            // first) torn down after it: its recycle finds no pool.
            LATE.with(|late| late.borrow_mut().0 = Some(FrameBuf::from(vec![1u8; 64])));
            FrameBuf::from(vec![2u8; 64]).recycle();
        })
        .join()
        .expect("a recycle at teardown does not panic");
    }

    #[test]
    fn freeze() {
        let mut m = FrameBufMut::new();
        m.extend_from_slice(b"abc");
        m.extend_from_slice(b"def");
        assert_eq!(&m.freeze()[..], b"abcdef");
    }
}
