//! Microbenchmarks of the simulator's event queue, exercised through the
//! `World` API: future-dated timer churn through the binary heap,
//! zero-delay timer chains through the same-instant fast lane,
//! broadcast fan-out through the batched delivery path, and frames
//! hopping down a line of segments (the wire store) with and without a
//! crowd of idle timers parked in the heap.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::{Ctx, FrameBuf, Node, PortId, SegmentConfig, SimDuration, SimTime, TimerToken, World};

/// Schedules `pending` timers up front, then reschedules each as it
/// fires — a steady state of heap pushes and pops at many distinct
/// timestamps.
struct TimerChurn {
    pending: u64,
    fired: u64,
    limit: u64,
}

impl Node for TimerChurn {
    fn name(&self) -> &str {
        "churn"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.pending {
            ctx.schedule(SimDuration::from_us(1 + i * 7), TimerToken(i));
        }
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.fired += 1;
        if self.fired < self.limit {
            // Re-arm at a spread of future offsets to keep the heap busy.
            ctx.schedule(SimDuration::from_us(1 + (token.0 % 97) * 11), token);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Chains zero-delay timers: every firing schedules the next at the same
/// instant, which exercises the queue's now-lane fast path.
struct ZeroChain {
    fired: u64,
    limit: u64,
}

impl Node for ZeroChain {
    fn name(&self) -> &str {
        "zero-chain"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_ns(0), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: TimerToken) {
        self.fired += 1;
        if self.fired < self.limit {
            ctx.schedule(SimDuration::from_ns(0), TimerToken(0));
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Sends `limit` copies of one frame out of port 0, one every `every`.
struct Talker {
    frame: FrameBuf,
    every: SimDuration,
    sent: u64,
    limit: u64,
}

impl Node for Talker {
    fn name(&self) -> &str {
        "talker"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.every, TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if self.sent < self.limit {
            ctx.send(PortId(0), self.frame.clone());
            self.sent += 1;
            ctx.schedule(self.every, token);
        }
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

struct Sink(u64);

impl Node for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {
        self.0 += 1;
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Two ports; what arrives on one leaves by the other.
struct Relay;

impl Node for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        ctx.send(PortId(1 - port.0), frame);
    }
    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

/// Arms that many timers far beyond the run's horizon and does nothing
/// else: the idle population a busy wire's events must not queue behind.
struct Parked(u64);

impl Node for Parked {
    fn name(&self) -> &str {
        "parked"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.0 {
            ctx.schedule(SimDuration::from_us(100_000 + i), TimerToken(i));
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

fn bench_timer_churn(c: &mut Criterion) {
    c.bench_function("micro_event_queue/timer_churn_10k", |b| {
        b.iter(|| {
            let mut world = World::new(1);
            world.trace_mut().set_enabled(false);
            world.add_node(TimerChurn {
                pending: 256,
                fired: 0,
                limit: 10_000,
            });
            world.run_until(SimTime::from_secs(600));
            world.now()
        })
    });
}

fn bench_zero_chain(c: &mut Criterion) {
    c.bench_function("micro_event_queue/now_lane_chain_10k", |b| {
        b.iter(|| {
            let mut world = World::new(1);
            world.trace_mut().set_enabled(false);
            world.add_node(ZeroChain {
                fired: 0,
                limit: 10_000,
            });
            world.run_until(SimTime::from_secs(1));
            world.now()
        })
    });
}

fn bench_broadcast_fanout(c: &mut Criterion) {
    c.bench_function("micro_event_queue/broadcast_fanout_32x500", |b| {
        b.iter(|| {
            let mut world = World::new(1);
            world.trace_mut().set_enabled(false);
            let lan = world.add_segment(SegmentConfig::default());
            let t = world.add_node(Talker {
                frame: FrameBuf::from(vec![0x42u8; 1400]),
                every: SimDuration::from_us(200),
                sent: 0,
                limit: 500,
            });
            world.attach(t, lan);
            for _ in 0..32 {
                let s = world.add_node(Sink(0));
                world.attach(s, lan);
            }
            world.run_until(SimTime::from_secs(10));
            world.frames_delivered()
        })
    });
}

/// A 16-hop line of point-to-point segments, every one busy (a 64 B
/// frame takes 7 µs a hop and one enters every 8 µs), while `parked`
/// timers wait 100 ms out. The wire events have a store of their own, so
/// the two cases must read alike (arming the parked timers and the
/// talker's pacing timer, which does share their heap, are the whole
/// difference: 2.0 and 2.1 ms); in one heap, each of the 34 000 hops
/// sifted past the parked timers twice (3.4 and 4.4 ms).
fn bench_wire_hops_under_idle_timers(c: &mut Criterion) {
    for parked in [0u64, 512] {
        let name = format!("micro_event_queue/wire_hops_under_idle_timers/{parked}");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let mut world = World::new(1);
                world.trace_mut().set_enabled(false);
                let talker = world.add_node(Talker {
                    frame: FrameBuf::from(vec![0x42u8; 64]),
                    every: SimDuration::from_us(8),
                    sent: 0,
                    limit: 2_000,
                });
                let mut prev = talker;
                for _ in 0..16 {
                    let lan = world.add_segment(SegmentConfig::default());
                    let relay = world.add_node(Relay);
                    world.attach(prev, lan);
                    world.attach(relay, lan);
                    prev = relay;
                }
                let lan = world.add_segment(SegmentConfig::default());
                let sink = world.add_node(Sink(0));
                world.attach(prev, lan);
                world.attach(sink, lan);
                world.add_node(Parked(parked));
                world.run_until(SimTime::from_ms(50));
                assert_eq!(world.node::<Sink>(sink).0, 2_000);
                world.frames_delivered()
            })
        });
    }
}

criterion_group!(
    benches,
    bench_timer_churn,
    bench_zero_chain,
    bench_broadcast_fanout,
    bench_wire_hops_under_idle_timers
);
criterion_main!(benches);
