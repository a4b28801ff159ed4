//! What the switchlet load path must not move, and how much work it does.
//!
//! The shipped images are pinned byte for byte as `(length, FNV-1a)`: the
//! encoder, the canonical type encoding and every MD5 digest they carry
//! (two interface digests and the body digest) go into those bytes, so a
//! change to any of them that is not a pure speed-up shows here. And the
//! boot of a `dumb_vm` bridge is counted, allocator call by allocator
//! call (`crates/switchlet/tests/no_alloc.rs`'s method): the bridge
//! decodes and digest-checks an image once, then links, verifies and
//! initialises the module it decoded. A second decode of the image would
//! add its allocator calls to the pinned count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv4Addr;

use active_bridge::switchlets::{dumb_vm, trap_vm};
use active_bridge::{BridgeConfig, BridgeNode};
use ether::MacAddr;
use netsim::{Ctx, FrameBuf, Node, PortId, SimTime, TimerToken, World};

thread_local! {
    /// Allocator calls made by this thread (tests run one per thread).
    /// `const`-initialised and without a destructor: reading it never
    /// allocates, so the allocator may.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting `alloc`, `alloc_zeroed` and `realloc` per thread.
struct Counting;

fn note() {
    // A thread that is being torn down has no counter left; nothing here
    // measures it.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local integer that
// never touches allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let result = f();
    (CALLS.with(Cell::get) - before, result)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(image: &[u8]) -> (usize, u64) {
    (image.len(), fnv1a(image))
}

#[test]
fn the_shipped_vm_images_are_byte_identical() {
    assert_eq!(
        pin(&dumb_vm::build_image()),
        (451, 0xde3a_edc2_195b_5a54),
        "dumb_vm image moved"
    );
    assert_eq!(
        pin(&trap_vm::build_image()),
        (296, 0xe93c_8ffb_05c0_4613),
        "trap_vm image moved"
    );
}

/// A native switchlet boots from an empty carrier module named after it
/// (`BridgeNode::boot_load_native`); one per built-in factory.
#[test]
fn the_native_carrier_images_are_byte_identical() {
    let pinned: [(&str, (usize, u64)); 6] = [
        ("netloader", (74, 0x865b_6859_812d_c2cb)),
        ("bridge_dumb", (76, 0xf0e5_d63e_fd41_5f37)),
        ("bridge_learning", (80, 0xe139_478d_9ade_747f)),
        ("stp_ieee", (73, 0x288d_aa91_c634_f7a7)),
        ("stp_dec", (72, 0x8927_8803_23ad_ea5e)),
        ("control", (72, 0x7410_648f_047c_20a7)),
    ];
    for (name, want) in pinned {
        let image = switchlet::ModuleBuilder::new(name).build().encode();
        assert_eq!(pin(&image), want, "{name}'s carrier image moved");
    }
}

/// A bridge whose `on_start` — its boot loader — is what gets counted.
struct Booting {
    bridge: BridgeNode,
    boot_calls: u64,
}

impl Node for Booting {
    fn name(&self) -> &str {
        self.bridge.name()
    }
    fn service_queues(&self) -> usize {
        self.bridge.service_queues()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.boot_calls = allocations(|| self.bridge.on_start(ctx)).0;
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.bridge.on_frame(ctx, port, frame);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.bridge.on_timer(ctx, token);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Boot one four-port bridge from the `dumb_vm` image, trace off as in
/// every sweep and benchmark world: the allocator calls its boot loader
/// made, and whether the module came up.
fn boot_dumb_vm(image: &[u8]) -> (u64, bool) {
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let mut bridge = BridgeNode::new(
        "bridge0",
        MacAddr::local(0x1000),
        Ipv4Addr::new(10, 0, 0, 1),
        4,
        BridgeConfig::default(),
    );
    bridge.boot_load(image.to_vec());
    let id = world.add_node(Booting {
        bridge,
        boot_calls: 0,
    });
    for _ in 0..4 {
        let seg = world.add_segment(Default::default());
        world.attach(id, seg);
    }
    world.run_until(SimTime::from_ms(1));
    let node = world.node::<Booting>(id);
    let stats = &node.bridge.plane().stats;
    (
        node.boot_calls,
        stats.images_loaded == 1 && stats.images_rejected == 0,
    )
}

/// One `boot_load` of the `dumb_vm` image costs 100 allocator calls: the
/// image is decoded (and its three digests checked) once — 37 of them —
/// and the decoded module is what gets linked, verified, translated and
/// initialised. The switchlet directory keeps the module's shared name
/// rather than a copy of it (101 calls when it copied). Decoding the image again on the way to the linker adds one
/// decode's calls (the boot that did read 162, when a decode was 49), and
/// the count a decode makes now is printed beside the boot's on a mismatch.
#[test]
fn booting_a_vm_image_decodes_it_once() {
    let image = dumb_vm::build_image();
    // The first boot on a thread also builds what bridges share.
    let (_, up) = boot_dumb_vm(&image);
    assert!(up, "the dumb_vm image loads");
    let (boot, up) = boot_dumb_vm(&image);
    assert!(up, "the dumb_vm image loads");
    let (decode, module) = allocations(|| switchlet::Module::decode(&image));
    assert!(module.is_ok());
    drop(module);
    assert!(
        allocations(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(4)))).0 > 0,
        "the counting allocator is not installed"
    );
    assert_eq!(
        boot, 100,
        "allocator calls booting the dumb_vm image (one decode of it is {decode})"
    );
}
