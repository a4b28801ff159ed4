//! A frame a bridge's full input queue refuses goes back to the thread's
//! frame pool: the next frame built takes the refused buffer instead of
//! asking the allocator for one.

#[path = "../../netsim/tests/counting/mod.rs"]
mod counting;

use std::net::Ipv4Addr;

use active_bridge::{BridgeConfig, BridgeNode};
use counting::allocations;
use ether::MacAddr;
use netsim::{FrameBuf, FrameBufMut, Node, PortId, SegmentConfig, SimDuration, World};

/// Frames offered at one instant: one enters service, 256 wait (the
/// input queue's capacity) and the rest are refused.
const OFFERED: usize = 300;
const REFUSED: usize = OFFERED - 1 - 256;

#[test]
fn a_full_input_queue_returns_every_refused_buffer_to_the_pool() {
    let mut world = World::new(1);
    let lan = world.add_segment(SegmentConfig::default());
    // The default cost model is the paper's calibrated software path, so
    // every frame goes through the input queue.
    let bridge = BridgeNode::new(
        "b0",
        MacAddr::local(1),
        Ipv4Addr::new(10, 0, 0, 1),
        1,
        BridgeConfig::default(),
    );
    let b = world.add_node(bridge);
    world.attach(b, lan);
    world.run_for(SimDuration::from_us(1));

    // Every frame a pooled buffer of its own, all lent out at once.
    let frames: Vec<FrameBuf> = (0..OFFERED)
        .map(|i| {
            let mut buf = FrameBufMut::pooled(64);
            buf.resize(64, i as u8);
            buf.freeze()
        })
        .collect();
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
        for frame in frames {
            node.on_frame(ctx, PortId(0), frame);
        }
    });
    assert_eq!(
        world.node::<BridgeNode>(b).plane().stats.queue_drops,
        REFUSED as u64
    );

    // The refused buffers are back: building as many frames again costs
    // the allocator nothing.
    let mut rebuilt = Vec::with_capacity(REFUSED);
    let calls = allocations(|| {
        for _ in 0..REFUSED {
            let mut buf = FrameBufMut::pooled(64);
            buf.resize(64, 0);
            rebuilt.push(buf.freeze());
        }
    });
    assert_eq!(
        calls, 0,
        "{calls} allocator calls rebuilding {REFUSED} frames"
    );
}
