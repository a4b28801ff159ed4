//! The kernel suite: direct, timed calls into public functions of each
//! layer, one number per kernel. Where the traced pass says which layer a
//! workload spends its time in, a kernel says what one operation of that
//! layer costs, on inputs that do not depend on any workload.
//!
//! Every kernel runs in batches sized to about a millisecond until its
//! share of the run's seconds is spent, over several passes through the
//! suite, and reports the fastest batch, per operation (the host only ever
//! slows a batch down, see `harness`).
//! Inputs and results pass through `black_box`.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use ab_scenario::runner::{self, Scenario};
use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};
use ab_scenario::topo::{self, TopologyShape};
use ab_scenario::workload::{self, BatteryKind};
use ab_scenario::{bridge_ip, bridge_mac, host_mac, score_report, Json, Sketch};
use active_bridge::{
    Bpdu, BridgeConfig, BridgeId, BridgeNode, ConfigBpdu, DecisionCache, LearningTable, StpVariant,
    Verdict,
};
use ether::{crc32, EtherType, Frame, FrameBuilder, Llc, MacAddr};
use netsim::{
    CostModel, Ctx, FrameBuf, Node, PortId, SegmentConfig, SimDuration, SimTime, TimerToken, World,
};
use netstack::ipv4::{self, Protocol};
use netstack::tcplite::{emit_pattern_segment, Segment};
use netstack::{checksum, Ipv4Packet, SenderStep, TftpSender, TftpServer};
use switchlet::{
    call_scratch, seal, unseal, verify_module, Env, ExecConfig, HostDispatch, HostSlot, Module,
    Namespace, Value, VmError, VmScratch,
};

use crate::stats::min;

/// Kernels in the suite (the harness splits its seconds by this).
pub const COUNT: usize = 34;

/// Nanoseconds per call of `op` in the fastest batch of `budget_s` seconds.
fn time_ns(budget_s: f64, mut op: impl FnMut()) -> f64 {
    // Size a batch to about a millisecond.
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t.elapsed() >= Duration::from_micros(500) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let budget = Duration::from_secs_f64(budget_s);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    min(&samples)
}

/// Nanoseconds of the fastest `timed(state)`, each run preceded by an
/// untimed `reset(state)`.
fn time_each_ns<S>(
    budget_s: f64,
    state: &mut S,
    mut reset: impl FnMut(&mut S),
    mut timed: impl FnMut(&mut S),
) -> f64 {
    let budget = Duration::from_secs_f64(budget_s);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        reset(state);
        let t = Instant::now();
        timed(state);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    min(&samples)
}

/// Keep `value` from being optimized away, then drop it.
fn eat<T>(value: T) {
    let _ = black_box(value);
}

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);
const KIB: usize = 1024;

/// The host side of the `dumb_vm` handler with nothing behind it: answers
/// the three calls the handler makes, by slot.
struct StubHost {
    num_ports: HostSlot,
    bind_out: HostSlot,
    send_pkt_out: HostSlot,
    ports: i64,
}

impl StubHost {
    fn new(env: &Env, ports: i64) -> Self {
        let slot = |item| {
            env.lookup("unixnet", item)
                .expect("host_env offers unixnet")
                .0
        };
        StubHost {
            num_ports: slot("num_ports"),
            bind_out: slot("bind_out"),
            send_pkt_out: slot("send_pkt_out"),
            ports,
        }
    }
}

impl HostDispatch for StubHost {
    fn call_slot(&mut self, _: &Env, slot: HostSlot, args: &mut [Value]) -> Result<Value, VmError> {
        Ok(if slot == self.num_ports {
            Value::Int(self.ports)
        } else if slot == self.bind_out {
            Value::handle("oport", args[0].as_int() as u64)
        } else if slot == self.send_pkt_out {
            Value::Int(args[1].as_str().len() as i64)
        } else {
            // `log.msg` and `func.register_handler`, from the image's init.
            Value::Unit
        })
    }
}

/// Re-arms a 1 µs timer forever.
struct Ticker;

impl Node for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_us(1), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        ctx.schedule(SimDuration::from_us(1), token);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Sends one shared 64-byte frame every 10 µs.
struct Beacon(FrameBuf);

impl Node for Beacon {
    fn name(&self) -> &str {
        "beacon"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_us(10), TimerToken(0));
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        ctx.send(PortId(0), self.0.clone());
        ctx.schedule(SimDuration::from_us(10), token);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Hears frames and does nothing with them.
struct Sink;

impl Node for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn min_frame(dst: MacAddr, src: MacAddr) -> FrameBuf {
    FrameBuilder::new(dst, src, EtherType::EXPERIMENTAL)
        .payload(&[0x42; 46])
        .build()
        .into()
}

/// Times the whole suite is gone through; a kernel's seconds are split
/// between the passes, seconds apart, so that a slow phase of the host
/// shorter than the suite cannot cover all of one kernel's batches.
const PASSES: usize = 5;

/// Run every kernel for `per_kernel_s` seconds in all; `(metric name,
/// value)` rows, the least value of the passes (they are times, or exact).
/// `seed` varies the inputs that have a seed to vary.
pub fn run(seed: u64, per_kernel_s: f64) -> Vec<(&'static str, f64)> {
    let s = per_kernel_s / PASSES as f64;
    let mut best: Vec<(&'static str, f64)> = Vec::new();
    for _ in 0..PASSES {
        let mut rows = Vec::with_capacity(COUNT);
        ether(s, &mut rows);
        switchlet_kernels(s, &mut rows);
        netsim_kernels(s, &mut rows);
        netstack_kernels(s, &mut rows);
        bridge_kernels(s, &mut rows);
        scenario_kernels(seed, s, &mut rows);
        assert_eq!(rows.len(), COUNT, "kernels::COUNT is out of date");
        if best.is_empty() {
            best = rows;
        } else {
            for (b, r) in best.iter_mut().zip(rows) {
                b.1 = b.1.min(r.1);
            }
        }
    }
    best
}

fn ether(s: f64, rows: &mut Vec<(&'static str, f64)>) {
    let (dst, src) = (host_mac(2), host_mac(1));
    let frame = min_frame(dst, src);
    rows.push((
        "ether.parse_ns",
        time_ns(s, || {
            let f = Frame::parse(black_box(&frame)).expect("well-formed");
            black_box((f.dst(), f.src(), f.ethertype()));
        }),
    ));
    rows.push((
        "ether.build_ns",
        time_ns(s, || {
            black_box(
                FrameBuilder::new(black_box(dst), src, EtherType::EXPERIMENTAL)
                    .payload(&[0x42; 46])
                    .build(),
            );
        }),
    ));
    let kib = vec![0xA5u8; KIB];
    rows.push((
        "ether.crc32_ns_per_kb",
        time_ns(s, || eat(crc32(black_box(&kib)))),
    ));
}

fn switchlet_kernels(s: f64, rows: &mut Vec<(&'static str, f64)>) {
    let image = active_bridge::switchlets::dumb_vm::build_image();
    let env = active_bridge::hostmods::host_env();
    let exec = ExecConfig::default();
    rows.push((
        "switchlet.decode_us",
        time_ns(s, || eat(Module::decode(black_box(&image)))) / 1e3,
    ));
    let module = Module::decode(&image).expect("the dumb_vm image decodes");
    rows.push((
        "switchlet.verify_us",
        time_ns(s, || eat(verify_module(black_box(&module)))) / 1e3,
    ));
    rows.push((
        "switchlet.link_init_us",
        time_ns(s, || {
            let mut ns = Namespace::new(env.clone());
            let mut host = StubHost::new(&env, 4);
            black_box(
                ns.load_and_init(black_box(&image), &mut host, &exec)
                    .expect("links and inits"),
            );
        }) / 1e3,
    ));
    let sealed = seal(&image);
    rows.push((
        "switchlet.unseal_us",
        time_ns(s, || eat(unseal(black_box(&sealed)))) / 1e3,
    ));

    // The per-frame entry: the handler, through `call_scratch`, with the
    // argument vector and the frame copy `BridgeNode` makes per frame.
    let mut ns = Namespace::new(env.clone());
    ns.load(&image).expect("the dumb_vm image links");
    let (handler, _) = ns
        .lookup_export(active_bridge::switchlets::dumb_vm::NAME, "switching")
        .expect("the image exports its handler");
    let mut host = StubHost::new(&env, 4);
    let mut scratch = VmScratch::new();
    let frame = min_frame(host_mac(2), host_mac(1)).to_vec();
    let mut call = |host: &mut StubHost| {
        let args = vec![Value::str(frame.clone()), Value::Int(0)];
        call_scratch(&ns, host, handler, args, &exec, &mut scratch).expect("the handler runs")
    };
    let (_, stats) = call(&mut host);
    let call_ns = time_ns(s, || eat(call(&mut host)));
    rows.push(("switchlet.call_ns", call_ns));
    rows.push((
        "switchlet.ns_per_instr",
        call_ns / stats.instructions.max(1) as f64,
    ));
}

fn netsim_kernels(s: f64, rows: &mut Vec<(&'static str, f64)>) {
    // One timer event: schedule, pop, dispatch.
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    world.add_node(Ticker);
    world.run_until(SimTime::from_ms(1));
    const TICKS: u64 = 1_000;
    rows.push((
        "netsim.timer_ns",
        time_ns(s, || world.run_for(SimDuration::from_us(TICKS))) / TICKS as f64,
    ));

    // One frame heard by 64 listeners: serialization, the delivery event
    // and the fan-out loop, per delivery.
    const LISTENERS: usize = 64;
    const FRAMES: u64 = 100;
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let lan = world.add_segment(SegmentConfig::named("lan"));
    let beacon = world.add_node(Beacon(min_frame(MacAddr::BROADCAST, host_mac(1))));
    world.attach(beacon, lan);
    for _ in 0..LISTENERS {
        let sink = world.add_node(Sink);
        world.attach(sink, lan);
    }
    world.run_until(SimTime::from_ms(1));
    rows.push((
        "netsim.fanout_ns_per_delivery",
        time_ns(s, || world.run_for(SimDuration::from_us(10 * FRAMES)))
            / (FRAMES as f64 * LISTENERS as f64),
    ));

    // `World::reset` of a world that has run a small topology.
    let mut world = World::new(1);
    rows.push((
        "netsim.reset_us",
        time_each_ns(
            s,
            &mut world,
            |world| {
                world.trace_mut().set_enabled(false);
                let lans: Vec<_> = (0..8)
                    .map(|i| world.add_segment(SegmentConfig::named(format!("lan{i}"))))
                    .collect();
                for &lan in &lans {
                    let beacon = world.add_node(Beacon(min_frame(MacAddr::BROADCAST, host_mac(1))));
                    world.attach(beacon, lan);
                    for _ in 0..8 {
                        let sink = world.add_node(Sink);
                        world.attach(sink, lan);
                    }
                }
                world.run_until(SimTime::from_ms(1));
            },
            |world| world.reset(black_box(1)),
        ) / 1e3,
    ));

    let frame = min_frame(host_mac(2), host_mac(1));
    rows.push((
        "netsim.framebuf_share_ns",
        time_ns(s, || eat(black_box(&frame).clone())),
    ));
}

fn netstack_kernels(s: f64, rows: &mut Vec<(&'static str, f64)>) {
    let payload = vec![0x5Au8; KIB];
    let packet =
        ipv4::emit(A_IP, B_IP, Protocol::UDP, 7, 64, &payload, 1500).expect("fits the MTU");
    rows.push((
        "netstack.ipv4_parse_ns",
        time_ns(s, || eat(Ipv4Packet::parse(black_box(&packet)))),
    ));
    rows.push((
        "netstack.ipv4_build_ns",
        time_ns(s, || {
            eat(ipv4::emit(
                A_IP,
                B_IP,
                Protocol::UDP,
                7,
                64,
                black_box(&payload),
                1500,
            ))
        }),
    ));
    rows.push((
        "netstack.checksum_ns_per_kb",
        time_ns(s, || eat(checksum(black_box(&payload)))),
    ));

    // One full-size data segment: emitted by the sender's hot path, then
    // parsed (and checksummed) as the receiver does.
    let mut wire = Vec::with_capacity(2048);
    rows.push((
        "netstack.tcplite_segment_ns",
        time_ns(s, || {
            wire.clear();
            emit_pattern_segment(&mut wire, A_IP, B_IP, 5001, 5001, black_box(1), 1400);
            black_box(
                Segment::parse(&wire, A_IP, B_IP)
                    .expect("own segments parse")
                    .seq,
            );
        }),
    ));

    // One 512 B block through client and server: a 32 KiB upload, per block.
    let file = vec![0xC3u8; 32 * KIB];
    let blocks = (file.len() / netstack::tftp::BLOCK_SIZE + 1) as f64;
    rows.push((
        "netstack.tftp_block_ns",
        time_ns(s, || {
            let mut sender = TftpSender::new("image", file.clone());
            let mut server = TftpServer::new();
            let mut packet = sender.start();
            loop {
                let (reply, _file) = server.on_packet((A_IP, 1069), &packet);
                match sender.on_packet(&reply.expect("the server answers every packet")) {
                    SenderStep::Send(next) => packet = next,
                    SenderStep::Done => break,
                    other => panic!("upload went wrong: {other:?}"),
                }
            }
        }) / blocks,
    ));
}

fn bridge_kernels(s: f64, rows: &mut Vec<(&'static str, f64)>) {
    const STATIONS: u32 = 1024;
    let age = SimDuration::from_secs(300);
    let now = SimTime::from_secs(1);
    let filled = || {
        let mut table = LearningTable::new(age);
        table.reserve(STATIONS as usize);
        for i in 0..STATIONS {
            table.learn(host_mac(i), PortId((i % 2) as usize), now);
        }
        table
    };

    let mut table = filled();
    let mut i = 0u32;
    rows.push((
        "active_bridge.learn_refresh_ns",
        time_ns(s, || {
            i = (i + 1) % STATIONS;
            black_box(table.learn(host_mac(i), PortId((i % 2) as usize), now));
        }),
    ));
    rows.push((
        "active_bridge.learn_fresh_ns",
        time_ns(s, || eat(filled())) / STATIONS as f64,
    ));
    // Bounded as the defended arm is, one port at quota: every new source
    // evicts that port's oldest entry.
    let mut bounded = LearningTable::new(age);
    bounded.set_bounds(
        ab_scenario::runner::DEFENSE_LEARN_CAP,
        ab_scenario::runner::DEFENSE_PORT_QUOTA,
    );
    for i in 0..ab_scenario::runner::DEFENSE_LEARN_CAP as u32 {
        bounded.learn(host_mac(i), PortId((i % 4) as usize), now);
    }
    let mut next = 10_000u32;
    rows.push((
        "active_bridge.learn_evict_ns",
        time_ns(s, || {
            next += 1;
            black_box(bounded.learn(host_mac(next), PortId(0), now));
        }),
    ));
    rows.push((
        "active_bridge.lookup_ns",
        time_ns(s, || {
            i = (i + 1) % STATIONS;
            black_box(table.lookup_entry(host_mac(i), now));
        }),
    ));

    // The decision cache on the flows a sequentially numbered population
    // makes: station i to station i + 1024, all arriving on port 0.
    let flow = |i: u32| (PortId(0), host_mac(i), host_mac(STATIONS + i));
    let mut cache = DecisionCache::default();
    rows.push((
        "active_bridge.cache_store_ns",
        time_ns(s, || {
            i = (i + 1) % STATIONS;
            let (port, src, dst) = flow(i);
            cache.store(port, src, dst, 1, SimTime::MAX, Verdict::Direct(PortId(1)));
        }),
    ));
    for i in 0..STATIONS {
        let (port, src, dst) = flow(i);
        cache.store(port, src, dst, 1, SimTime::MAX, Verdict::Direct(PortId(1)));
    }
    let live: Vec<u32> = (0..STATIONS)
        .filter(|&i| {
            let (port, src, dst) = flow(i);
            cache.probe(port, src, dst, 1, now).is_some()
        })
        .collect();
    let mut k = 0usize;
    rows.push((
        "active_bridge.cache_probe_ns",
        time_ns(s, || {
            k = (k + 1) % live.len();
            let (port, src, dst) = flow(live[k]);
            black_box(cache.probe(port, src, dst, 1, now));
        }),
    ));
    // A slot holds one flow, so the flows that still hit are the slots
    // that are live.
    rows.push(("active_bridge.cache_live_slots", live.len() as f64));

    // `BridgeNode::on_frame` on a booted two-port learning bridge with
    // both stations learned: parse, demultiplex, cache hit, send.
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let lans = [
        world.add_segment(SegmentConfig::named("lan0")),
        world.add_segment(SegmentConfig::named("lan1")),
    ];
    let cfg = BridgeConfig {
        cost: CostModel::FREE,
        ..BridgeConfig::default()
    };
    let mut node = BridgeNode::new("bridge0", bridge_mac(0), bridge_ip(0), 2, cfg);
    node.boot_load_native(active_bridge::loader::NAME);
    node.boot_load_native("bridge_learning");
    let bridge = world.add_node(node);
    for lan in lans {
        world.attach(bridge, lan);
    }
    world.run_until(SimTime::from_ms(1));
    let there = min_frame(host_mac(2), host_mac(1));
    let back = min_frame(host_mac(1), host_mac(2));
    const CALLS: usize = 128;
    rows.push((
        "active_bridge.on_frame_ns",
        time_each_ns(
            s,
            &mut world,
            // Drain what the last batch queued on the segments, so a send
            // never meets a full transmit queue.
            |world| world.run_for(SimDuration::from_ms(10)),
            |world| {
                for _ in 0..CALLS / 2 {
                    world.with_ctx::<BridgeNode, _>(bridge, |b, ctx| {
                        b.on_frame(ctx, PortId(0), there.clone());
                        b.on_frame(ctx, PortId(1), back.clone());
                    });
                }
            },
        ) / CALLS as f64,
    ));

    let me = BridgeId::new(0x8000, bridge_mac(0));
    let bpdu = Llc::BPDU.wrap(&StpVariant::Ieee.emit(&Bpdu::Config(ConfigBpdu {
        root: me,
        root_cost: 0,
        bridge: me,
        port: 1,
        message_age: 0,
        max_age: 20,
        hello_time: 2,
        forward_delay: 15,
        tc: false,
        tca: false,
    })));
    rows.push((
        "active_bridge.bpdu_decode_ns",
        time_ns(s, || {
            let (_, rest) = Llc::parse(black_box(&bpdu)).expect("LLC header");
            black_box(StpVariant::Ieee.parse(rest));
        }),
    ));
}

fn scenario_kernels(seed: u64, s: f64, rows: &mut Vec<(&'static str, f64)>) {
    let shape = TopologyShape::metro_small();
    rows.push((
        "ab_scenario.topo_generate_us",
        time_ns(s, || eat(topo::generate(shape, black_box(seed)))) / 1e3,
    ));
    let topo = topo::generate(shape, seed);
    rows.push((
        "ab_scenario.workload_generate_us",
        time_ns(s, || {
            eat(workload::generate(
                BatteryKind::Metro,
                &topo,
                black_box(seed),
            ))
        }) / 1e3,
    ));
    let mut world = World::new(seed);
    let cfg = BridgeConfig::default();
    rows.push((
        "ab_scenario.instantiate_us",
        time_each_ns(
            s,
            &mut world,
            |world| world.reset(seed),
            |world| eat(topo::instantiate(world, &topo, &cfg, topo.default_boot())),
        ) / 1e3,
    ));

    let report = runner::run(&Scenario::new(
        TopologyShape::Star { arms: 3 },
        BatteryKind::Streams,
        seed,
    ));
    rows.push((
        "ab_scenario.score_us",
        time_ns(s, || eat(score_report(black_box(&report)))) / 1e3,
    ));
    let document = run_sweep_jobs(&SweepSpec::chaos_sweep(seed), 1).to_json();
    let rendered = document.render();
    let kib = rendered.len() as f64 / KIB as f64;
    rows.push((
        "ab_scenario.json_render_ns_per_kb",
        time_ns(s, || eat(black_box(&document).render())) / kib,
    ));
    rows.push((
        "ab_scenario.json_parse_ns_per_kb",
        time_ns(s, || eat(Json::parse(black_box(&rendered)))) / kib,
    ));
    let mut sketch = Sketch::new();
    let mut v = seed | 1;
    rows.push((
        "ab_scenario.sketch_record_ns",
        time_ns(s, || {
            v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            sketch.record(black_box(v >> 24));
        }),
    ));
}
