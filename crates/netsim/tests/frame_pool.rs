//! The thread's frame pool is sized by its traffic: it keeps as many
//! buffers as the thread has had out at once, counted per world, so a
//! burst it has seen before costs the allocator nothing, and what a
//! dropped world never gave back does not count as out in the next one.

mod counting;

use counting::allocations;
use netsim::{Ctx, FrameBuf, FrameBufMut, Node, PortId, SegmentConfig, SimTime, World};

/// A frame composed in a buffer from the thread's pool.
fn compose(len: usize, fill: u8) -> FrameBuf {
    let mut buf = FrameBufMut::pooled(len);
    buf.resize(len, fill);
    buf.freeze()
}

/// Buffers the pool holds: drained, the first buffer it does not hold is
/// a fresh one with no storage. The drain has that many and one more out
/// at once.
fn pool_len() -> usize {
    let drained: Vec<FrameBufMut> = std::iter::repeat_with(|| FrameBufMut::pooled(0))
        .take_while(|buf| buf.capacity() > 0)
        .collect();
    drained.len()
}

#[test]
fn a_thread_that_had_200_buffers_out_serves_a_second_burst_without_the_allocator() {
    const BURST: usize = 200;
    let mut out = Vec::with_capacity(BURST);
    let burst = |out: &mut Vec<FrameBuf>| {
        out.extend((0..BURST).map(|i| compose(1514, i as u8)));
    };
    // From an empty pool each frame costs its bytes and its refcount
    // header.
    assert_eq!(allocations(|| burst(&mut out)), 2 * BURST as u64);
    out.drain(..).for_each(FrameBuf::recycle);
    // All 200 were kept: a pool capped at 64 entries read 272 here.
    assert_eq!(allocations(|| burst(&mut out)), 0);
}

/// Sends `n` frames composed in pooled buffers at start, keeping none.
struct Burst {
    n: usize,
}

impl Node for Burst {
    fn name(&self) -> &str {
        "burst"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.n {
            ctx.send(PortId(0), compose(64, i as u8));
        }
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// A world whose one node sends `n` frames at once onto a segment nobody
/// else is on, run until they are all on the wire: unheard, each dies at
/// delivery and is recycled, unless the segment's capture log still
/// holds it.
fn burst_world(n: usize, capture: bool) -> World {
    let mut world = World::new(1);
    let lan = world.add_segment(SegmentConfig {
        capture,
        ..SegmentConfig::default()
    });
    let node = world.add_node(Burst { n });
    world.attach(node, lan);
    world.run_until(SimTime::from_ms(10));
    assert_eq!(world.segment(lan).counters().tx_frames, n as u64);
    world
}

#[test]
fn a_world_dropped_with_buffers_lent_does_not_raise_the_bound_for_the_next() {
    // Twenty out at once, and the capture log still holds all twenty
    // when the world is dropped: they never come back.
    drop(burst_world(20, true));
    // The next world has fifteen out at once, and all of them come back.
    // Counted on from the first world's twenty, they would make 35.
    drop(burst_world(15, false));
    assert_eq!(pool_len(), 15);
    // Storage built beside the pool fills it to the first world's twenty
    // (the thread's high-water), not to 35.
    (0..40).for_each(|_| FrameBuf::from(vec![0u8; 64]).recycle());
    assert_eq!(pool_len(), 20);
}
