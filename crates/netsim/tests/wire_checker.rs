//! ROADMAP item 12's wire checker, the rules that need a contended and
//! faulty medium: no sweep cell at seed 1 drops from a transmit queue or
//! duplicates a frame, so this run is built for it. One segment with a
//! transmit queue of two frames, three stations that each offer a burst
//! of frames back to back on their own clocks, and a fault configuration
//! that drops one completed frame in seven and duplicates one in five.
//! The checker reads only the armed run's `(SimTime, ProbeRecord)` stream
//! and replays an obviously-right model of the segment:
//! - a FIFO transmit queue of the configured capacity behind one frame on
//!   the medium: an accepted offer lands at the depth the model says, and
//!   a `QueueDrop` happens only where the model's queue is full;
//! - each `WireTx` is the oldest accepted offer not yet sent (same sender,
//!   same length) and starts (`at − ser_ns`) no earlier than that offer
//!   and the previous frame's end, and no later than the later of the two:
//!   the medium is never idle while a frame waits;
//! - each `WireTx` without a `FaultDrop` yields exactly one `Deliver` per
//!   attachment but the sender, and a second set after a
//!   `FaultDuplicate`.

use std::collections::{BTreeMap, VecDeque};

use netsim::{
    Ctx, FaultConfig, FrameBuf, Node, NodeId, PortId, ProbeConfig, ProbeRecord, SegmentConfig,
    SimDuration, SimTime, TimerToken, World,
};

const QUEUE_CAP: usize = 2;

/// Every `period`, offers `1 + tick % 3` frames at once, of lengths that
/// differ by station and by tick.
struct Station {
    index: u32,
    period: SimDuration,
    ticks: u32,
}

impl Node for Station {
    fn name(&self) -> &str {
        "station"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.period, TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
        if self.ticks == 0 {
            return;
        }
        self.ticks -= 1;
        for k in 0..1 + self.ticks % 3 {
            let len = 60 + 17 * self.index as usize + 5 * k as usize + self.ticks as usize % 7;
            ctx.send(PortId(0), FrameBuf::from(vec![0xEE; len]));
        }
        ctx.schedule(self.period, TimerToken(0));
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// The segment's model while the stream is replayed.
#[derive(Default)]
struct Medium {
    /// Accepted offers not yet on the wire, oldest first, the one being
    /// serialized included: sender, length, offer time.
    waiting: VecDeque<((NodeId, PortId), u32, SimTime)>,
    /// When the last frame left the wire.
    last_end: Option<SimTime>,
}

impl Medium {
    /// Frames queued behind the one on the medium.
    fn depth(&self) -> usize {
        self.waiting.len().saturating_sub(1)
    }
}

/// The frame a segment last put on the wire, and what became of it.
struct OnWire {
    at: SimTime,
    src: (NodeId, PortId),
    copies: u32,
    delivered: BTreeMap<(NodeId, PortId), u32>,
}

#[test]
fn a_full_queue_and_a_faulty_medium_keep_the_wire_rules() {
    let mut world = World::new(11);
    world.probe_mut().arm(ProbeConfig::default());
    let lan = world.add_segment(SegmentConfig {
        queue_cap: QUEUE_CAP,
        fault: FaultConfig {
            drop_one_in: 7,
            duplicate_one_in: 5,
            ..Default::default()
        },
        ..SegmentConfig::named("lan")
    });
    for index in 0..3u32 {
        let station = world.add_node(Station {
            index,
            period: SimDuration::from_ns(19_000 + 6_100 * index as u64),
            ticks: 300,
        });
        world.attach(station, lan);
    }
    world.run_until(SimTime::from_ms(20));

    let probe = world.probe();
    assert_eq!(probe.dropped(), 0, "an incomplete recording proves nothing");
    let others = |src: (NodeId, PortId)| -> BTreeMap<(NodeId, PortId), u32> {
        let attached = world.segment(lan).attachments().iter();
        attached
            .map(|a| (a.node, a.port))
            .filter(|&id| id != src)
            .map(|id| (id, 0))
            .collect()
    };

    let mut medium = Medium::default();
    let mut open: Option<OnWire> = None;
    let mut tally = BTreeMap::new();
    let close = |frame: OnWire| {
        let want = others(frame.src)
            .into_keys()
            .map(|id| (id, frame.copies))
            .filter(|&(_, n)| n > 0)
            .collect::<BTreeMap<_, _>>();
        assert_eq!(
            frame.delivered, want,
            "the frame sent at {} by {:?}, {} cop(ies)",
            frame.at, frame.src, frame.copies
        );
    };
    for event in probe.records() {
        let name = match event.record {
            ProbeRecord::FrameOffered {
                src,
                len,
                queued,
                depth,
                ..
            } => {
                assert_eq!(queued, !medium.waiting.is_empty(), "{}: busy?", event.at);
                medium.waiting.push_back((src, len, event.at));
                assert_eq!(depth as usize, medium.depth(), "{}: offer depth", event.at);
                assert!(
                    medium.depth() <= QUEUE_CAP,
                    "{}: queued past capacity",
                    event.at
                );
                "offer"
            }
            ProbeRecord::QueueDrop { .. } => {
                assert_eq!(
                    medium.depth(),
                    QUEUE_CAP,
                    "{}: dropped short of full",
                    event.at
                );
                "queue drop"
            }
            ProbeRecord::WireTx {
                src, len, ser_ns, ..
            } => {
                let (offered_by, offered_len, offered_at) = medium
                    .waiting
                    .pop_front()
                    .expect("a frame on the wire was offered");
                assert_eq!((src, len), (offered_by, offered_len), "{}: FIFO", event.at);
                let start = SimTime::from_ns(event.at.as_ns() - ser_ns);
                let free = medium
                    .last_end
                    .map_or(offered_at, |end| end.max(offered_at));
                assert!(
                    start >= offered_at,
                    "{}: started before its offer",
                    event.at
                );
                if let Some(end) = medium.last_end {
                    assert!(start >= end, "{}: two frames on the medium", event.at);
                }
                assert!(start <= free, "{}: the medium idled at {free}", event.at);
                medium.last_end = Some(event.at);
                if let Some(done) = open.replace(OnWire {
                    at: event.at,
                    src,
                    copies: 1,
                    delivered: BTreeMap::new(),
                }) {
                    close(done);
                }
                "wire"
            }
            ProbeRecord::FaultDrop { .. } => {
                open.as_mut().expect("a drop follows its WireTx").copies = 0;
                "fault drop"
            }
            ProbeRecord::FaultDuplicate { .. } => {
                open.as_mut()
                    .expect("a duplicate follows its WireTx")
                    .copies = 2;
                "fault duplicate"
            }
            ProbeRecord::Deliver { dst, .. } => {
                let frame = open.as_mut().expect("a delivery follows its WireTx");
                assert_ne!(dst, frame.src, "{}: delivered to its sender", event.at);
                *frame.delivered.entry(dst).or_insert(0) += 1;
                "delivery"
            }
            _ => continue,
        };
        *tally.entry(name).or_insert(0u32) += 1;
    }
    if let Some(done) = open {
        close(done);
    }
    // The run exercised every rule.
    for (name, at_least) in [
        ("queue drop", 50),
        ("fault drop", 50),
        ("fault duplicate", 50),
        ("wire", 1_000),
    ] {
        let seen = tally.get(name).copied().unwrap_or(0);
        assert!(seen >= at_least, "{seen} {name} records: {tally:?}");
    }
}
