//! What decoding an image may allocate. `Module::decode` reserves no
//! vector larger than the bytes left could encode, whatever a length
//! field claims, so its peak heap is at most [`K`] bytes per image byte
//! (`crates/switchlet/DESIGN.md` § 4). Measured here with a counting
//! allocator, the way `crates/core/tests/load_path.rs` counts a boot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use switchlet::module::MAX_CODE;
use switchlet::{md5, DecodeError, Module, ModuleBuilder, Op, Ty};

/// The stated bound: peak decode heap ≤ `K` × image length.
const K: usize = 128;

thread_local! {
    /// Bytes this thread holds from the allocator, and the most it held
    /// since the last [`peak_during`] began. `const`-initialised and
    /// without a destructor: reading them never allocates.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// [`System`], tracking this thread's live and peak heap bytes.
struct Tracking;

fn grow(by: usize) {
    // A thread that is being torn down has no counters left; nothing
    // here measures it.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(by: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(by)));
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are thread-local integers that
// never touch allocator state.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// The most heap this thread held while `f` ran, beyond what it held
/// before.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let result = f();
    (PEAK.with(Cell::get) - before, result)
}

/// Decode `image` and assert the bound; the decode's result.
fn decode_within_bound(image: &[u8]) -> Result<Module, DecodeError> {
    let (peak, decoded) = peak_during(|| Module::decode(image));
    assert!(
        peak <= K * image.len(),
        "decoding {} bytes held {peak} B of heap, over {K} B a byte",
        image.len()
    );
    decoded
}

/// An image whose body digest is valid and whose one function claims
/// `MAX_CODE` ops, with none behind the claim.
fn claims_max_code() -> Vec<u8> {
    let mut body = b"SWL1".to_vec();
    body.extend_from_slice(&0u16.to_le_bytes()); // module name: empty
    for _count in ["imports", "exports", "type pool", "strings"] {
        body.extend_from_slice(&0u16.to_le_bytes());
    }
    body.extend_from_slice(&1u16.to_le_bytes()); // one function
    body.extend_from_slice(&0u16.to_le_bytes()); // its name: empty
    body.push(0); // no parameters
    body.extend_from_slice(&0u16.to_le_bytes()); // no locals
    body.extend_from_slice(&1u16.to_le_bytes()); // result type: unit
    body.push(b'u');
    body.extend_from_slice(&(MAX_CODE as u32).to_le_bytes());
    let digest = md5(&body);
    body.extend_from_slice(&digest.0);
    body
}

#[test]
fn a_claimed_code_length_reserves_nothing_the_image_lacks() {
    let image = claims_max_code();
    assert_eq!(image.len(), 44);
    assert_eq!(
        decode_within_bound(&image).err(),
        Some(DecodeError::Truncated)
    );
}

/// A well-formed image with every kind of field: a module name, an
/// import, a string, a function with parameters (one a tuple) and code,
/// and an export.
fn every_field() -> Vec<u8> {
    let mut mb = ModuleBuilder::new("bounded");
    let log = mb.import("log", "msg", Ty::func(vec![Ty::Str], Ty::Unit));
    let hello = mb.intern_str(b"hello");
    let mut f = mb.func(
        "f",
        vec![Ty::Int, Ty::tuple(vec![Ty::Int, Ty::Str])],
        Ty::Unit,
    );
    f.op(Op::ConstStr(hello))
        .op(Op::CallImport(log))
        .op(Op::Pop);
    f.op(Op::ConstUnit).op(Op::Return);
    let f = mb.finish(f);
    mb.export("f", f);
    mb.build().encode()
}

/// A valid image, and any byte of its body — a count, a length, a tag,
/// an opcode — set to `0x00`, `0x7f` or `0xff` and the body digest
/// rewritten: whatever the edited field now claims, the decode stays
/// within the bound.
#[test]
fn a_valid_image_and_every_byte_edit_decode_within_the_bound() {
    let image = every_field();
    assert!(decode_within_bound(&image).is_ok());
    let body_len = image.len() - 16;
    for at in 0..body_len {
        for value in [0x00, 0x7f, 0xff] {
            let mut body = image[..body_len].to_vec();
            body[at] = value;
            let digest = md5(&body);
            body.extend_from_slice(&digest.0);
            let _ = decode_within_bound(&body);
        }
    }
}

/// An image whose one function's result type field is 32 000 nested
/// tuple headers (`(`, 2), 64 000 bytes with nothing inside them, and
/// whose body digest is valid.
fn nests_32000_tuples() -> Vec<u8> {
    const LEVELS: usize = 32_000;
    let mut body = b"SWL1".to_vec();
    body.extend_from_slice(&0u16.to_le_bytes()); // module name: empty
    for _count in ["imports", "exports", "type pool", "strings"] {
        body.extend_from_slice(&0u16.to_le_bytes());
    }
    body.extend_from_slice(&1u16.to_le_bytes()); // one function
    body.extend_from_slice(&0u16.to_le_bytes()); // its name: empty
    body.push(0); // no parameters
    body.extend_from_slice(&0u16.to_le_bytes()); // no locals
    body.extend_from_slice(&(2 * LEVELS as u16).to_le_bytes()); // result type
    for _ in 0..LEVELS {
        body.extend_from_slice(b"(\x02");
    }
    let digest = md5(&body);
    body.extend_from_slice(&digest.0);
    body
}

/// Type nesting is capped (`switchlet::types::MAX_TYPE_DEPTH`), so a
/// wire-derived type field cannot recurse the decoder off its stack: on
/// a 2 MiB thread stack the image above is a typed error, not an abort.
#[test]
fn a_deeply_nested_type_is_a_typed_error() {
    let image = nests_32000_tuples();
    let decoded = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || decode_within_bound(&image).err())
        .expect("spawn a decoding thread")
        .join()
        .expect("the decoding thread returns");
    assert_eq!(decoded, Some(DecodeError::BadType));
}
