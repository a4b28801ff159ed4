//! A world in steady state queues its completions without the allocator.
//!
//! Eighteen point-to-point segments at three speeds each carry one frame
//! back and forth between two nodes that send every frame they hear out
//! of the port it came in on, so every segment always has a completion
//! in flight and the completion ring holds all eighteen — pushes at
//! 1 Gb/s land in front of the 10 Mb/s ones, deep in the ring. After a
//! simulated second of warm-up, another second must make no allocator
//! call: the ring reclaims its popped prefix instead of growing.

mod counting;

use counting::allocations;
use netsim::{Ctx, FrameBuf, Node, PortId, SegmentConfig, SimTime, World};

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
