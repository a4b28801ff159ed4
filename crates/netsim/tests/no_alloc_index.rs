//! The listener index costs the allocator nothing per station.
//!
//! A world sized with `World::reserve_topology` files every station's
//! receive filter in a table it already holds: declaring 16 filters or 128
//! on one LAN makes the same allocator calls as leaving those stations
//! promiscuous. Once built, floods, unicasts, broadcasts and frames too
//! short to address are delivered through the index without the
//! allocator.

mod counting;

use counting::allocations;
use netsim::{
    Ctx, FrameBuf, Node, NodeId, PortId, SegmentConfig, SimDuration, SimTime, TimerToken, World,
};

/// A station address, distinct per `i`.
fn mac(i: usize) -> [u8; 6] {
    let [.., hi, lo] = (i as u32).to_be_bytes();
    [2, 0, 0, 0, hi, lo]
}

/// Declares `filter` at start and counts the frames it is called with.
struct Station {
    filter: Option<[u8; 6]>,
    calls: u64,
}

impl Node for Station {
    fn name(&self) -> &str {
        "station"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_rx_filter(PortId(0), self.filter);
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {
        self.calls += 1;
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Sends its prebuilt frames round robin, one every 20 µs, each a clone
/// of a handle it keeps (no frame is built while it runs).
struct Blaster {
    frames: Vec<FrameBuf>,
    sent: usize,
}

const EVERY: SimDuration = SimDuration::from_us(20);

impl Node for Blaster {
    fn name(&self) -> &str {
        "blaster"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(EVERY, TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let frame = self.frames[self.sent % self.frames.len()].clone();
        ctx.send(PortId(0), frame);
        self.sent += 1;
        ctx.schedule(EVERY, token);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// One LAN: a blaster, then `stations` stations, all filtered but
/// stations 1 and 2 when `filtered` is set. Returns the stations.
fn build(world: &mut World, stations: usize, filtered: bool) -> Vec<NodeId> {
    let frames = [mac(3), [2, 0, 0, 9, 9, 9], [0xFF; 6], mac(stations - 1)]
        .iter()
        .map(|dst| FrameBuf::from([&dst[..], &[0x5A; 58]].concat()))
        .chain([FrameBuf::from(mac(3)[..4].to_vec())])
        .collect();
    world.reserve_topology(stations + 1, 1);
    let lan = world.add_segment(SegmentConfig::default());
    let blaster = world.add_node(Blaster { frames, sent: 0 });
    world.attach(blaster, lan);
    (0..stations)
        .map(|i| {
            let filter = (filtered && i != 1 && i != 2).then(|| mac(i));
            let node = world.add_node(Station { filter, calls: 0 });
            world.attach(node, lan);
            node
        })
        .collect()
}

#[test]
fn declaring_filters_costs_the_same_allocator_calls_at_16_and_128_stations() {
    let mut declared = Vec::new();
    for stations in [16, 128] {
        for filtered in [true, false] {
            let mut world = World::new(1);
            let built = allocations(|| drop(build(&mut world, stations, filtered)));
            assert!(built > 0, "the counting allocator is not installed");
            // The stations start, and declare their filters, here.
            let started = allocations(|| world.run_until(SimTime::from_ns(1)));
            declared.push((stations, filtered, started));
            let total = built + started;
            let mut again = World::new(1);
            let same = allocations(|| {
                build(&mut again, stations, !filtered);
                again.run_until(SimTime::from_ns(1));
            });
            assert_eq!(
                total, same,
                "{stations} stations: filters changed the build's allocator calls"
            );
        }
    }
    let starts: Vec<u64> = declared.iter().map(|&(.., calls)| calls).collect();
    assert!(
        starts.windows(2).all(|w| w[0] == w[1]),
        "starting (and filing) cost {declared:?}"
    );
}

#[test]
fn delivery_through_the_index_allocates_nothing() {
    let mut world = World::new(1);
    let stations = build(&mut world, 128, true);
    world.run_until(SimTime::from_ms(10));
    let calls = |world: &World| -> u64 {
        stations
            .iter()
            .map(|&n| world.node::<Station>(n).calls)
            .sum()
    };
    let before = calls(&world);
    let counted = allocations(|| world.run_until(SimTime::from_ms(110)));
    // 5 000 frames, a fifth each: to station 3, to nobody, broadcast, to
    // station 127, four bytes long. Stations 1 and 2, promiscuous, are
    // called for every one, the other 126 for broadcast, and stations 3
    // and 127 for their own.
    assert_eq!(calls(&world) - before, 1_000 * (2 * 5 + 126 + 2));
    assert_eq!(counted, 0, "steady-state delivery called the allocator");
}
