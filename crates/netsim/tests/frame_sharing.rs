//! Frame-sharing semantics of the zero-copy plane: one wire frame is one
//! refcounted buffer shared by every listener, the capture log and fault
//! duplicates — and the only thing that can ever diverge a copy is the
//! explicit copy-on-write path (fault corruption, `FrameBuf::mutate`).

use netsim::{
    Ctx, FaultConfig, FrameBuf, FrameBufMut, Node, PortId, SegmentConfig, SimDuration, SimTime,
    TimerToken, World,
};

/// Sends one prebuilt frame and keeps its own handle to the buffer.
struct Sender {
    frame: FrameBuf,
}

impl Node for Sender {
    fn name(&self) -> &str {
        "sender"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_us(1), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
        ctx.send(PortId(0), self.frame.clone());
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Stores every received frame; optionally scribbles on its own copy
/// through the copy-on-write path.
struct Keeper {
    got: Vec<FrameBuf>,
    scribble: bool,
}

impl Keeper {
    fn new(scribble: bool) -> Keeper {
        Keeper {
            got: Vec::new(),
            scribble,
        }
    }
}

impl Node for Keeper {
    fn name(&self) -> &str {
        "keeper"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, mut frame: FrameBuf) {
        if self.scribble {
            frame.mutate(|buf| buf.iter_mut().for_each(|b| *b = 0xEE));
        }
        self.got.push(frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

fn payload() -> FrameBuf {
    FrameBuf::from((0u8..200).collect::<Vec<u8>>())
}

fn build(fault: FaultConfig, scribble_first: bool) -> (World, netsim::SegId, Vec<netsim::NodeId>) {
    let mut world = World::new(7);
    let lan = world.add_segment(SegmentConfig {
        fault,
        capture: true,
        ..Default::default()
    });
    let s = world.add_node(Sender { frame: payload() });
    world.attach(s, lan);
    let listeners: Vec<_> = (0..3)
        .map(|i| {
            let id = world.add_node(Keeper::new(scribble_first && i == 0));
            world.attach(id, lan);
            id
        })
        .collect();
    world.run_until(SimTime::from_ms(1));
    (world, lan, listeners)
}

#[test]
fn clean_delivery_shares_one_buffer_with_capture() {
    let (world, lan, listeners) = build(FaultConfig::default(), false);
    let cap = world.segment(lan).captured();
    assert_eq!(cap.len(), 1);
    let frames: Vec<&FrameBuf> = listeners
        .iter()
        .map(|&l| &world.node::<Keeper>(l).got[0])
        .collect();
    for f in &frames {
        assert_eq!(**f, payload(), "delivered bytes intact");
        assert!(
            f.shares_storage(&cap[0].data),
            "every listener and the capture log share one allocation"
        );
    }
}

#[test]
fn corruption_is_isolated_from_the_sender_buffer() {
    let (world, lan, listeners) = build(
        FaultConfig {
            corrupt_one_in: 1,
            ..Default::default()
        },
        false,
    );
    // The sender still holds the pristine original.
    let frames: Vec<&FrameBuf> = listeners
        .iter()
        .map(|&l| &world.node::<Keeper>(l).got[0])
        .collect();
    let original = payload();
    for f in &frames {
        let diff: u32 = original
            .iter()
            .zip(f.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one corrupted bit reaches the wire");
        assert!(
            !f.shares_storage(&original),
            "corruption must copy-on-write, never touch the original"
        );
        assert!(
            f.shares_storage(&world.segment(lan).captured()[0].data),
            "all listeners and the capture still share the corrupted copy"
        );
    }
}

#[test]
fn listener_mutation_never_leaks_to_other_listeners_or_capture() {
    let (world, lan, listeners) = build(FaultConfig::default(), true);
    let scribbler = &world.node::<Keeper>(listeners[0]).got[0];
    assert!(scribbler.iter().all(|&b| b == 0xEE), "scribble applied");
    let cap = &world.segment(lan).captured()[0].data;
    assert_eq!(*cap, payload(), "capture log unaffected by the scribble");
    for &l in &listeners[1..] {
        let f = &world.node::<Keeper>(l).got[0];
        assert_eq!(*f, payload(), "other listeners unaffected");
        assert!(f.shares_storage(cap), "untouched copies still share");
    }
}

#[test]
fn fault_duplicates_share_storage_with_each_other() {
    let (world, lan, listeners) = build(
        FaultConfig {
            duplicate_one_in: 1,
            ..Default::default()
        },
        false,
    );
    assert_eq!(
        world.segment(lan).counters().fault_duplicates,
        1,
        "the single frame was duplicated"
    );
    let keeper = world.node::<Keeper>(listeners[0]);
    assert_eq!(keeper.got.len(), 2, "listener saw both copies");
    assert!(
        keeper.got[0].shares_storage(&keeper.got[1]),
        "both fault copies share one allocation"
    );
}

#[test]
fn a_pool_full_of_short_buffers_still_serves_long_frames() {
    /// As many as the thread ever has out at once: the pool's bound.
    const SHORTS: usize = 72;
    fn compose(len: usize) -> FrameBuf {
        let mut buf = FrameBufMut::pooled(len);
        buf.resize(len, 0x5A);
        buf.freeze()
    }
    // Fill the pool with ACK-sized buffers (alive together, so they are
    // distinct allocations), and a few more, built beside the pool, that
    // it has to turn away.
    let shorts: Vec<FrameBuf> = (0..SHORTS).map(|_| compose(64)).collect();
    shorts.into_iter().for_each(FrameBuf::recycle);
    (0..8).for_each(|_| FrameBuf::from(vec![0x5A; 64]).recycle());

    // Full-sized frames now cycle through one pooled buffer, grown in
    // place once, instead of missing the pool for the rest of the run.
    let mut storage = Vec::new();
    for _ in 0..16 {
        let frame = compose(1514);
        assert!(frame.iter().all(|&b| b == 0x5A));
        storage.push(frame.as_ptr());
        frame.recycle();
    }
    assert!(
        storage.iter().all(|&p| p == storage[0]),
        "every frame reuses the storage the first one grew"
    );
    // Address reuse alone could be the allocator's doing; the pool itself
    // must now hold a full-sized buffer among exactly `SHORTS` entries.
    let drained: Vec<_> = (0..=SHORTS).map(|_| FrameBufMut::pooled(0)).collect();
    assert!(drained[..SHORTS].iter().any(|buf| buf.capacity() >= 1514));
    assert!(drained[..SHORTS].iter().all(|buf| buf.capacity() >= 64));
    assert_eq!(drained[SHORTS].capacity(), 0, "the pool held {SHORTS}");
}
