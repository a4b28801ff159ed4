//! A world in steady state queues its completions without the allocator.
//!
//! Eighteen point-to-point segments at three speeds each carry one frame
//! back and forth between two nodes that send every frame they hear out
//! of the port it came in on, so every segment always has a completion
//! in flight and the completion ring holds all eighteen — pushes at
//! 1 Gb/s land in front of the 10 Mb/s ones, deep in the ring. After a
//! simulated second of warm-up, another second must make no allocator
//! call: the ring reclaims its popped prefix instead of growing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::{Ctx, FrameBuf, Node, PortId, SegmentConfig, SimTime, World};

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
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// Sends every frame it hears back out of the port it came in on; the
/// one with a frame to serve sends it first.
struct Echo {
    serve: Option<FrameBuf>,
    heard: u64,
}

impl Node for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(frame) = self.serve.take() {
            ctx.send(PortId(0), frame);
        }
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.heard += 1;
        ctx.send(port, frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

const SEGMENTS: u64 = 18;

#[test]
fn a_second_of_deep_ring_traffic_allocates_nothing() {
    let mut world = World::new(1);
    let mut nodes = Vec::new();
    for k in 0..SEGMENTS {
        let seg = world.add_segment(SegmentConfig {
            bandwidth_bps: [1_000_000_000, 100_000_000, 10_000_000][k as usize % 3],
            ..SegmentConfig::named(format!("p2p{k}"))
        });
        // Lengths differ per segment, so no two complete in lockstep.
        let frame = FrameBuf::from(vec![0x5A; 480 + 8 * k as usize]);
        for serve in [Some(frame), None] {
            let node = world.add_node(Echo { serve, heard: 0 });
            world.attach(node, seg);
            nodes.push(node);
        }
    }
    world.run_until(SimTime::from_secs(1));
    assert_eq!(
        world.pending_events() as u64,
        SEGMENTS,
        "every segment has its completion waiting in the ring"
    );
    let heard = |world: &World| -> u64 { nodes.iter().map(|&n| world.node::<Echo>(n).heard).sum() };
    let before = heard(&world);
    let counted = allocations(|| world.run_until(SimTime::from_secs(2)));
    // 10 Mb/s carries ≈ 2 400 such frames a second, 1 Gb/s ≈ 240 000.
    assert!(
        heard(&world) - before > 800_000,
        "the second moved {} frames",
        heard(&world) - before
    );
    assert_eq!(counted, 0, "steady-state queueing called the allocator");
    assert!(
        allocations(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(4)))) > 0,
        "the counting allocator is not installed"
    );
}
