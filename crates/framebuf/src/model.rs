//! The handle against a model. Arbitrary sequences of `clone`, `slice`,
//! drop, `try_into_mut`, `freeze`, `mutate`, `extend_from_slice`,
//! `pooled`, `recycle` and `restart_lent_count` run on real handles and
//! on a model that keeps each storage as a `Vec<u8>` with a count of the
//! views that hold it, and the thread's frame pool as the refcount
//! headers it holds, its lent count and its high-water; after every step
//! every view and every reclaimed buffer must read what the model says,
//! the handle's refcount answers must be the model's holder counts, the
//! pool must hold what the model says, and never more than its
//! high-water.

use proptest::prelude::*;
use proptest::TestCaseResult;

use super::*;

/// What `FrameBuf::from_static` copies are cut from.
static STATIC: [u8; 32] = *b"static bytes, copied on wrapping";

/// One operation, its operands reduced modulo what exists when it runs.
#[derive(Debug)]
enum Step {
    /// `FrameBuf::from` a fresh vector of this length.
    Fresh(usize, u8),
    /// `FrameBuf::from_static` of `STATIC[a..b]`: a fresh buffer holding a
    /// copy, unique and reclaimable like any other.
    Static(usize, usize),
    Clone(usize),
    Slice(usize, usize, usize),
    Drop(usize),
    /// `try_into_mut`; a reclaimed buffer is cleared, as the frame pool
    /// clears it.
    TryIntoMut(usize),
    /// `mutate`, flipping bits of one byte.
    Mutate(usize, usize, u8),
    /// `extend_from_slice` into a reclaimed buffer.
    Extend(usize, usize, u8),
    Freeze(usize),
    /// `FrameBufMut::pooled` with this capacity.
    Pooled(usize),
    /// `recycle` a view.
    Recycle(usize),
    /// `restart_lent_count`, as a new world does.
    Restart,
}

impl Step {
    fn decode([kind, a, b, c]: [u8; 4]) -> Step {
        let (a, b, c) = (a as usize, b as usize, c as usize);
        match kind % 12 {
            0 => Step::Fresh(a % 24, b as u8),
            1 => Step::Static(a, b),
            2 => Step::Clone(a),
            3 => Step::Slice(a, b, c),
            4 => Step::Drop(a),
            5 => Step::TryIntoMut(a),
            6 => Step::Mutate(a, b, c as u8 | 1),
            7 => Step::Extend(a, b % 40, c as u8),
            8 => Step::Freeze(a),
            // Now and then past `POOL_MAX_CAPACITY`, which `recycle` drops.
            9 => Step::Pooled(a * 9 % 2200),
            10 => Step::Recycle(a),
            _ => Step::Restart,
        }
    }
}

/// One allocation as the model sees it.
struct Storage {
    bytes: Vec<u8>,
    /// Views alive on it.
    holders: usize,
}

/// A live view: the handle and where the model says it looks.
struct Holder {
    buf: FrameBuf,
    storage: usize,
    off: usize,
    len: usize,
}

/// A buffer `try_into_mut` or `pooled` handed back, with what it was
/// reclaimed with (a fresh pooled buffer has no header yet).
struct Reclaimed {
    buf: FrameBufMut,
    bytes: Vec<u8>,
    header: Option<*const Vec<u8>>,
    data: *const u8,
    capacity: usize,
}

fn header_of(b: &FrameBuf) -> *const Vec<u8> {
    Rc::as_ptr(&b.store)
}

#[derive(Default)]
struct Model {
    storages: Vec<Storage>,
    holders: Vec<Holder>,
    reclaimed: Vec<Reclaimed>,
    /// The refcount headers the thread's pool holds, in no order.
    pool: Vec<*const Vec<u8>>,
    lent: usize,
    high_water: usize,
}

impl Model {
    /// A model of an empty pool, as a thread starts with. Earlier cases
    /// ran on the same thread, so its pool is emptied first: left as they
    /// were, their lent buffers would raise the high-water past anything
    /// one case's steps reach.
    fn with_a_fresh_pool() -> Model {
        POOL.with(|pool| {
            *pool.borrow_mut() = Pool {
                free: Vec::new(),
                lent: 0,
                high_water: 1,
            }
        });
        Model {
            high_water: 1,
            ..Model::default()
        }
    }

    fn hold(&mut self, buf: FrameBuf, bytes: Vec<u8>) {
        let len = bytes.len();
        self.storages.push(Storage { bytes, holders: 1 });
        let storage = self.storages.len() - 1;
        self.holders.push(Holder {
            buf,
            storage,
            off: 0,
            len,
        });
    }

    fn apply(&mut self, step: &Step) -> TestCaseResult {
        let n = self.holders.len();
        match *step {
            Step::Fresh(len, fill) => {
                let bytes: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                self.hold(FrameBuf::from(bytes.clone()), bytes);
            }
            Step::Static(a, b) => {
                let (a, b) = (a % STATIC.len(), b % STATIC.len());
                let bytes = &STATIC[a.min(b)..a.max(b)];
                let buf = FrameBuf::from_static(bytes);
                prop_assert!(
                    bytes.is_empty() || !std::ptr::eq(buf.as_ptr(), bytes.as_ptr()),
                    "a static slice is copied"
                );
                self.hold(buf, bytes.to_vec());
            }
            Step::Clone(i) if n > 0 => {
                let h = &self.holders[i % n];
                let buf = h.buf.clone();
                prop_assert!(buf.shares_storage(&h.buf), "a clone shares storage");
                let (storage, off, len) = (h.storage, h.off, h.len);
                self.storages[storage].holders += 1;
                self.holders.push(Holder {
                    buf,
                    storage,
                    off,
                    len,
                });
            }
            Step::Slice(i, a, b) if n > 0 => {
                let h = &self.holders[i % n];
                let (a, b) = (a % (h.len + 1), b % (h.len + 1));
                let (start, end) = (a.min(b), a.max(b));
                let buf = h.buf.slice(start..end);
                prop_assert!(
                    std::ptr::eq(buf.as_ptr(), h.buf.as_ptr().wrapping_add(start)),
                    "a slice is a view of the same storage"
                );
                let (storage, off) = (h.storage, h.off + start);
                self.storages[storage].holders += 1;
                self.holders.push(Holder {
                    buf,
                    storage,
                    off,
                    len: end - start,
                });
            }
            Step::Drop(i) if n > 0 => {
                let h = self.holders.swap_remove(i % n);
                self.storages[h.storage].holders -= 1;
            }
            Step::TryIntoMut(i) if n > 0 => {
                let h = self.holders.swap_remove(i % n);
                let s = &mut self.storages[h.storage];
                let whole_sole_view = s.holders == 1 && h.off == 0 && h.len == s.bytes.len();
                let (header, data) = (header_of(&h.buf), h.buf.as_ptr());
                match h.buf.try_into_mut() {
                    Ok(mut buf) => {
                        prop_assert!(
                            whole_sole_view,
                            "reclaimed a view that is not the sole one of the whole storage"
                        );
                        prop_assert_eq!(&buf[..], &s.bytes[..]);
                        s.holders = 0;
                        buf.clear();
                        self.reclaimed.push(Reclaimed {
                            header: Some(header),
                            data,
                            capacity: buf.capacity(),
                            buf,
                            bytes: Vec::new(),
                        });
                    }
                    Err(buf) => {
                        prop_assert!(
                            !whole_sole_view,
                            "refused the sole view of the whole storage"
                        );
                        prop_assert!(std::ptr::eq(buf.as_ptr(), data) && buf.len() == h.len);
                        self.holders.push(Holder { buf, ..h });
                    }
                }
            }
            Step::Mutate(i, at, flip) if n > 0 => {
                let h = &mut self.holders[i % n];
                let mut bytes = self.storages[h.storage].bytes[h.off..h.off + h.len].to_vec();
                let at = at % h.len.max(1);
                h.buf.mutate(|b| {
                    if let Some(b) = b.get_mut(at) {
                        *b ^= flip;
                    }
                });
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= flip;
                }
                let old = h.storage;
                let len = bytes.len();
                self.storages.push(Storage { bytes, holders: 1 });
                let h = &mut self.holders[i % n];
                (h.storage, h.off, h.len) = (self.storages.len() - 1, 0, len);
                self.storages[old].holders -= 1;
            }
            Step::Extend(m, len, fill) if !self.reclaimed.is_empty() => {
                let m = m % self.reclaimed.len();
                let r = &mut self.reclaimed[m];
                let more = vec![fill; len];
                r.buf.extend_from_slice(&more);
                r.bytes.extend_from_slice(&more);
            }
            Step::Freeze(m) if !self.reclaimed.is_empty() => {
                let r = self.reclaimed.swap_remove(m % self.reclaimed.len());
                let buf = r.buf.freeze();
                if let Some(header) = r.header {
                    prop_assert_eq!(header_of(&buf), header, "refrozen under its own header");
                }
                if r.bytes.len() <= r.capacity {
                    prop_assert!(std::ptr::eq(buf.as_ptr(), r.data), "refilled in place");
                }
                self.hold(buf, r.bytes);
            }
            Step::Pooled(cap) => {
                let buf = FrameBufMut::pooled(cap);
                prop_assert!(buf.is_empty() && buf.capacity() >= cap);
                self.lent += 1;
                self.high_water = self.high_water.max(self.lent);
                let header = buf.header.as_ref().map(Rc::as_ptr);
                match header {
                    Some(header) => {
                        let at = self.pool.iter().position(|&p| p == header);
                        prop_assert!(at.is_some(), "lent storage the pool did not hold");
                        self.pool.swap_remove(at.unwrap_or_default());
                    }
                    None => prop_assert!(self.pool.is_empty(), "allocated beside a pool"),
                }
                self.reclaimed.push(Reclaimed {
                    header,
                    data: buf.as_ptr(),
                    capacity: buf.capacity(),
                    buf,
                    bytes: Vec::new(),
                });
            }
            Step::Recycle(i) if n > 0 => {
                let h = self.holders.swap_remove(i % n);
                let s = &mut self.storages[h.storage];
                let whole_sole_view = s.holders == 1 && h.off == 0 && h.len == s.bytes.len();
                let (header, capacity) = (header_of(&h.buf), h.buf.store.capacity());
                h.buf.recycle();
                s.holders -= 1;
                if whole_sole_view {
                    self.lent = self.lent.saturating_sub(1);
                    if capacity <= POOL_MAX_CAPACITY && self.pool.len() < self.high_water {
                        self.pool.push(header);
                    }
                }
            }
            Step::Restart => {
                restart_lent_count();
                self.lent = 0;
            }
            _ => {}
        }
        Ok(())
    }

    /// Every view reads its window of its storage, is unique exactly when
    /// it is its storage's one holder, every reclaimed buffer holds what
    /// was written into it, and the pool holds the model's headers, counts
    /// what the model counts and no more buffers than its high-water.
    fn check(&self) -> TestCaseResult {
        for h in &self.holders {
            let s = &self.storages[h.storage];
            prop_assert_eq!(&h.buf[..], &s.bytes[h.off..h.off + h.len]);
            prop_assert_eq!(h.buf.len(), h.len);
            prop_assert_eq!(h.buf.is_unique(), s.holders == 1);
        }
        for r in &self.reclaimed {
            prop_assert_eq!(&r.buf[..], &r.bytes[..]);
        }
        POOL.with(|pool| {
            let pool = pool.borrow();
            let mut held: Vec<_> = pool.free.iter().map(Rc::as_ptr).collect();
            let mut model = self.pool.clone();
            held.sort();
            model.sort();
            prop_assert_eq!(held, model);
            prop_assert_eq!((pool.lent, pool.high_water), (self.lent, self.high_water));
            prop_assert!(
                pool.free.len() <= pool.high_water,
                "the pool outgrew its high-water"
            );
            Ok(())
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_handle_agrees_with_the_model(
        steps in prop::collection::vec(any::<[u8; 4]>().prop_map(Step::decode), 1..96),
    ) {
        let mut model = Model::with_a_fresh_pool();
        for step in &steps {
            model.apply(step)?;
            model.check()?;
        }
    }
}

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
fn static_frames_are_copied_once_then_shared() {
    static HELLO: &[u8] = b"hello frame";
    let a = FrameBuf::from_static(HELLO);
    assert!(!std::ptr::eq(a.as_ptr(), HELLO.as_ptr()), "wrapping copies");
    let b = a.clone();
    assert!(a.shares_storage(&b));
    assert_eq!(&a[..], b"hello frame");
    assert!(!a.is_unique());
    drop(b);
    assert!(a.is_unique());
}
