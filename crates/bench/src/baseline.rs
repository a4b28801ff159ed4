//! The frame-plane throughput baseline: three representative workloads ×
//! two topology sizes, measured in wall-clock terms (frames/sec,
//! ns/frame) and in allocator terms (allocations per delivered frame).
//!
//! This is the harness behind the `bench_baseline` binary, which emits
//! `BENCH_PR4.json` so every PR from now on has a perf trajectory to
//! compare against (the way measurement repos treat throughput as a
//! first-class, regression-tracked artifact). The workloads:
//!
//! * **broadcast** — a broadcast storm through one bridge fanning out to
//!   many LANs with many promiscuous listeners: the worst case for a
//!   copying data plane (one wire frame becomes `ports × hosts`
//!   deliveries);
//! * **ttcp** — the Figure 10 bulk-transfer shape, point-to-point through
//!   a line of learning bridges (per-frame copies on the directed path);
//! * **pings** — many concurrent ping pairs through a star (small frames,
//!   protocol churn: ARP, ICMP echo, learning).
//!
//! Wall-clock numbers are machine-dependent; the JSON records them next
//! to the pre-refactor measurements taken with this same harness on the
//! same machine, so the *ratio* is the tracked quantity.

use std::time::Instant;

use ab_scenario::topo::{self, TopologyShape};
use ab_scenario::{bridge, host_ip, host_mac, lans, Json};
use active_bridge::BridgeConfig;
use ether::MacAddr;
use hostsim::{
    App, BlastApp, HostConfig, HostCostModel, HostNode, PingApp, TtcpRecvApp, TtcpSendApp,
};
use netsim::{CostModel, PortId, SimDuration, SimTime, World};
use netstack::tcplite::{ReceiverConfig, SenderConfig};

use crate::allocs;
use crate::experiments::run_until_done;

/// Which workload a case runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Broadcast storm fan-out through one bridge.
    Broadcast,
    /// Figure 10-style bulk transfer through a line of bridges.
    Ttcp,
    /// Concurrent ping pairs through a star.
    Pings,
    /// The metro tier: a spine/leaf city topology with a crowd of
    /// silent hosts on every access segment and per-district flood
    /// blasters whose sink address nobody owns — every frame floods the
    /// whole metro and fans out to the full ≥ 1024-host population
    /// (the high-degree `DeliverAll` stress).
    Metro,
}

impl ScenarioKind {
    /// Stable label used in case names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Broadcast => "broadcast",
            ScenarioKind::Ttcp => "ttcp",
            ScenarioKind::Pings => "pings",
            ScenarioKind::Metro => "metro",
        }
    }
}

/// Topology size class.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// The small instance of a scenario.
    Small,
    /// The large instance (more listeners / more hops / more pairs).
    Large,
}

impl SizeClass {
    /// Stable label used in case names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Large => "large",
        }
    }
}

/// Every `(scenario, size)` pair the harness runs, in run order.
pub const CASES: [(ScenarioKind, SizeClass); 8] = [
    (ScenarioKind::Broadcast, SizeClass::Small),
    (ScenarioKind::Broadcast, SizeClass::Large),
    (ScenarioKind::Ttcp, SizeClass::Small),
    (ScenarioKind::Ttcp, SizeClass::Large),
    (ScenarioKind::Pings, SizeClass::Small),
    (ScenarioKind::Pings, SizeClass::Large),
    (ScenarioKind::Metro, SizeClass::Small),
    (ScenarioKind::Metro, SizeClass::Large),
];

/// One measured case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// `scenario/size`, e.g. `broadcast/large`.
    pub name: String,
    /// Workload label.
    pub scenario: &'static str,
    /// Size label.
    pub size: &'static str,
    /// Host count in the topology.
    pub hosts: usize,
    /// Segment count.
    pub segments: usize,
    /// Bridge count.
    pub bridges: usize,
    /// Simulated time covered by the measured run.
    pub sim_ns: u64,
    /// Frames handed to `Ctx::send` during the run.
    pub frames_sent: u64,
    /// Frames delivered to node ports during the run (the throughput
    /// denominator: one wire frame delivered to N listeners counts N).
    pub frames_delivered: u64,
    /// Frames fully serialized on any wire.
    pub wire_frames: u64,
    /// Wall-clock duration of the run.
    pub wall_ns: u64,
    /// Delivered frames per wall-clock second.
    pub frames_per_sec: f64,
    /// Wall nanoseconds per delivered frame.
    pub ns_per_frame: f64,
    /// Heap allocations during the run (0 when the counting allocator is
    /// not installed).
    pub allocs: u64,
    /// Allocations per delivered frame.
    pub allocs_per_frame: f64,
    /// Bytes requested from the allocator during the run.
    pub alloc_bytes: u64,
    /// Workload-level sanity check (transfer finished, pings answered,
    /// blasters drained).
    pub completed: bool,
}

/// Frame totals at one instant; cases diff two of these so every metric
/// covers exactly the measured window (warm-up traffic excluded).
#[derive(Copy, Clone)]
struct Totals {
    delivered: u64,
    sent: u64,
    wire: u64,
}

fn totals(world: &World) -> Totals {
    Totals {
        delivered: world.frames_delivered(),
        sent: world.frames_sent(),
        wire: world.stats().total_tx_frames(),
    }
}

#[allow(clippy::too_many_arguments)] // measurement plumbing, one call site per case
fn finish_case(
    name: String,
    scenario: &'static str,
    size: &'static str,
    hosts: usize,
    segments: usize,
    bridges: usize,
    window: (Totals, Totals),
    sim_ns: u64,
    wall_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    completed: bool,
) -> CaseResult {
    let (t0, t1) = window;
    let delivered = t1.delivered - t0.delivered;
    let wall_secs = wall_ns as f64 / 1e9;
    CaseResult {
        name,
        scenario,
        size,
        hosts,
        segments,
        bridges,
        sim_ns,
        frames_sent: t1.sent - t0.sent,
        frames_delivered: delivered,
        wire_frames: t1.wire - t0.wire,
        wall_ns,
        frames_per_sec: if wall_secs > 0.0 {
            delivered as f64 / wall_secs
        } else {
            0.0
        },
        ns_per_frame: if delivered > 0 {
            wall_ns as f64 / delivered as f64
        } else {
            0.0
        },
        allocs,
        allocs_per_frame: if delivered > 0 {
            allocs as f64 / delivered as f64
        } else {
            0.0
        },
        alloc_bytes,
        completed,
    }
}

/// Run `f` and report `(wall_ns, alloc_calls, alloc_bytes)` around it.
fn measured(f: impl FnOnce()) -> (u64, u64, u64) {
    let allocs_before = allocs::alloc_calls();
    let bytes_before = allocs::alloc_bytes();
    let start = Instant::now();
    f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    (
        wall_ns,
        allocs::alloc_calls() - allocs_before,
        allocs::alloc_bytes() - bytes_before,
    )
}

/// A bridge with the software path cost zeroed out: broadcast and ping
/// cases measure the simulator's frame plane itself, not the paper's
/// 1997 calibration (whose ~0.4 ms/frame service time would cap the
/// bridge near 2.5 kframes/s and turn the benchmark into a queue-drop
/// exercise). The ttcp case keeps the calibrated model for Figure 10
/// fidelity.
fn fast_bridge_cfg() -> BridgeConfig {
    BridgeConfig {
        cost: CostModel::FREE,
        ..Default::default()
    }
}

// ------------------------------------------------------------ broadcast

/// Blast interval: generous enough that `lans × serialization(1424 B)`
/// fits inside one interval on every LAN, so queues do not build up and
/// every offered frame is actually delivered.
const BLAST_INTERVAL: SimDuration = SimDuration::from_us(1200);
const BLAST_SIZE: usize = 1400;

fn run_broadcast(size: SizeClass, smoke: bool) -> CaseResult {
    let (n_lans, hosts_per_lan) = match size {
        SizeClass::Small => (4, 4),
        SizeClass::Large => (8, 8),
    };
    let count: u64 = if smoke { 80 } else { 800 };

    let mut world = World::new(11);
    world.trace_mut().set_enabled(false);
    let segs = lans(&mut world, n_lans);
    bridge(
        &mut world,
        0,
        &segs,
        fast_bridge_cfg(),
        &["bridge_learning"],
    );
    let mut n = 1u32;
    let mut blasters = Vec::new();
    for (li, &seg) in segs.iter().enumerate() {
        for hi in 0..hosts_per_lan {
            // The first host of every LAN blasts broadcast frames; every
            // other host is a listener.
            let apps = if hi == 0 {
                vec![BlastApp::new(
                    PortId(0),
                    MacAddr::BROADCAST,
                    BLAST_SIZE,
                    count,
                    BLAST_INTERVAL,
                )]
            } else {
                Vec::new()
            };
            let host = HostNode::new(
                format!("h{li}_{hi}"),
                HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE),
                apps,
            );
            let id = world.add_node(host);
            world.attach(id, seg);
            if hi == 0 {
                blasters.push(id);
            }
            n += 1;
        }
    }

    // Let the world come up, then measure the storm in steady state.
    world.run_until(SimTime::from_ms(1));
    let t0 = totals(&world);
    let span = BLAST_INTERVAL * count + SimDuration::from_ms(100);
    let horizon = world.now() + span;
    let (wall_ns, allocs, alloc_bytes) = measured(|| world.run_until(horizon));
    let t1 = totals(&world);

    // Every blaster must have drained its full frame budget.
    let completed = blasters.iter().all(|&b| {
        let App::Blast(blast) = world.node::<HostNode>(b).app(0) else {
            unreachable!()
        };
        blast.sent == count
    });
    finish_case(
        format!("broadcast/{}", size.label()),
        ScenarioKind::Broadcast.label(),
        size.label(),
        n_lans * hosts_per_lan,
        n_lans,
        1,
        (t0, t1),
        span.as_ns(),
        wall_ns,
        allocs,
        alloc_bytes,
        completed,
    )
}

// ----------------------------------------------------------------- ttcp

fn run_ttcp_case(size: SizeClass, smoke: bool) -> CaseResult {
    let n_bridges = match size {
        SizeClass::Small => 1,
        SizeClass::Large => 4,
    };
    let total_bytes: u64 = if smoke { 512 * 1024 } else { 4 * 1024 * 1024 };
    let write_size = 8192;

    let mut world = World::new(12);
    world.trace_mut().set_enabled(false);
    let segs = lans(&mut world, n_bridges + 1);
    for i in 0..n_bridges {
        bridge(
            &mut world,
            i as u32,
            &segs[i..=i + 1],
            BridgeConfig::default(),
            &["bridge_learning"],
        );
    }
    let cost = HostCostModel::pc_1997();
    let sender = world.add_node(HostNode::new(
        "sender",
        HostConfig::simple(host_mac(1), host_ip(1), cost),
        vec![TtcpSendApp::new(
            PortId(0),
            host_ip(2),
            5001,
            5001,
            total_bytes,
            write_size,
            SenderConfig::default(),
        )],
    ));
    world.attach(sender, segs[0]);
    let receiver = world.add_node(HostNode::new(
        "receiver",
        HostConfig::simple(host_mac(2), host_ip(2), cost),
        vec![TtcpRecvApp::new(5001, ReceiverConfig::default())],
    ));
    world.attach(receiver, segs[n_bridges]);

    let sim_start = {
        world.start();
        world.now()
    };
    let t0 = totals(&world);
    let (wall_ns, allocs, alloc_bytes) = measured(|| {
        run_until_done(&mut world, SimTime::from_secs(600), |w| {
            let App::TtcpSend(t) = w.node::<HostNode>(sender).app(0) else {
                unreachable!()
            };
            t.is_done()
        });
    });
    let t1 = totals(&world);
    let completed = {
        let App::TtcpSend(t) = world.node::<HostNode>(sender).app(0) else {
            unreachable!()
        };
        t.is_done()
    };
    let sim_ns = world.now().saturating_since(sim_start).as_ns();
    finish_case(
        format!("ttcp/{}", size.label()),
        ScenarioKind::Ttcp.label(),
        size.label(),
        2,
        n_bridges + 1,
        n_bridges,
        (t0, t1),
        sim_ns,
        wall_ns,
        allocs,
        alloc_bytes,
        completed,
    )
}

// ---------------------------------------------------------------- pings

fn run_pings(size: SizeClass, smoke: bool) -> CaseResult {
    let n_lans = match size {
        SizeClass::Small => 4,
        SizeClass::Large => 8,
    };
    let count: u32 = if smoke { 60 } else { 500 };
    let interval = SimDuration::from_ms(2);

    let mut world = World::new(13);
    world.trace_mut().set_enabled(false);
    let segs = lans(&mut world, n_lans);
    bridge(
        &mut world,
        0,
        &segs,
        fast_bridge_cfg(),
        &["bridge_learning"],
    );
    let cost = HostCostModel::pc_1997();
    // Host `i` lives on LAN `i` and pings host `(i+1) % n` — every LAN
    // both sources and sinks traffic through the star's hub.
    let hosts: Vec<_> = (0..n_lans)
        .map(|i| {
            let target = ((i + 1) % n_lans) as u32 + 1;
            let app = PingApp::new(
                PortId(0),
                host_ip(target),
                count,
                512,
                interval,
                0x50 + i as u16,
            );
            let id = world.add_node(HostNode::new(
                format!("pinger{i}"),
                HostConfig::simple(host_mac(i as u32 + 1), host_ip(i as u32 + 1), cost),
                vec![app],
            ));
            world.attach(id, segs[i]);
            id
        })
        .collect();

    world.run_until(SimTime::from_ms(1));
    let t0 = totals(&world);
    let span = interval * count as u64 + SimDuration::from_secs(2);
    let horizon = world.now() + span;
    let (wall_ns, allocs, alloc_bytes) = measured(|| world.run_until(horizon));
    let t1 = totals(&world);
    let received: u64 = hosts
        .iter()
        .map(|&h| {
            let App::Ping(p) = world.node::<HostNode>(h).app(0) else {
                unreachable!()
            };
            p.received as u64
        })
        .sum();
    let completed = received >= n_lans as u64 * count as u64;
    finish_case(
        format!("pings/{}", size.label()),
        ScenarioKind::Pings.label(),
        size.label(),
        n_lans,
        n_lans,
        1,
        (t0, t1),
        span.as_ns(),
        wall_ns,
        allocs,
        alloc_bytes,
        completed,
    )
}

// ---------------------------------------------------------------- metro

/// Crowd hosts per access segment — the scenario battery's own
/// constant, so the bench tier and the `metro` battery never drift
/// (64 access segments × 16 on the large preset ⇒ ≥ 1024 hosts).
const METRO_CROWD: usize = ab_scenario::workload::CROWD_PER_ACCESS as usize;

fn run_metro(size: SizeClass, smoke: bool) -> CaseResult {
    let shape = match size {
        SizeClass::Small => TopologyShape::metro_small(),
        SizeClass::Large => TopologyShape::metro_large(),
    };
    let TopologyShape::Metro {
        spines,
        districts,
        leaves,
    } = shape
    else {
        unreachable!("metro presets are metro-shaped")
    };
    let count: u64 = if smoke { 40 } else { 250 };
    // Generous: `districts` 512-byte floods crossing a legacy 10 Mb/s
    // access segment fit well inside one interval, so queues stay
    // shallow and every offered frame is delivered.
    let interval = SimDuration::from_ms(10);

    let topo = topo::generate(shape, 21);
    let access = topo.access_segments();
    let n_hosts = access.len() * METRO_CROWD + districts;
    let mut world = World::new(21);
    world.trace_mut().set_enabled(false);
    world.reserve_topology(topo.bridges.len() + n_hosts, topo.segments.len());
    let cfg = BridgeConfig {
        cost: CostModel::FREE,
        expected_stations: n_hosts + topo.bridges.len(),
        ..Default::default()
    };
    let built = topo::instantiate(&mut world, &topo, &cfg, &["bridge_learning"]);

    // The population: silent crowds on every access segment.
    let mut n = 1u32;
    for &seg in &access {
        for _ in 0..METRO_CROWD {
            let id = world.add_node(HostNode::new(
                format!("m{n}"),
                HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE),
                vec![],
            ));
            world.attach(id, built.segs[seg]);
            n += 1;
        }
    }
    // One blaster per district root, each aimed at an address nobody
    // owns: never learned, so every frame floods the entire metro.
    let mut blasters = Vec::with_capacity(districts);
    for d in 0..districts {
        let root = spines + d * leaves;
        let id = world.add_node(HostNode::new(
            format!("blaster{d}"),
            HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE),
            vec![BlastApp::new(
                PortId(0),
                host_mac(60_000 + d as u32),
                512,
                count,
                interval,
            )],
        ));
        world.attach(id, built.segs[root]);
        blasters.push(id);
        n += 1;
    }

    // Let the world come up, then measure the flood in steady state.
    world.run_until(SimTime::from_ms(1));
    let t0 = totals(&world);
    let span = interval * count + SimDuration::from_ms(100);
    let horizon = world.now() + span;
    let (wall_ns, allocs, alloc_bytes) = measured(|| world.run_until(horizon));
    let t1 = totals(&world);

    let completed = blasters.iter().all(|&b| {
        let App::Blast(blast) = world.node::<HostNode>(b).app(0) else {
            unreachable!()
        };
        blast.sent == count
    });
    finish_case(
        format!("metro/{}", size.label()),
        ScenarioKind::Metro.label(),
        size.label(),
        n_hosts,
        topo.segments.len(),
        topo.bridges.len(),
        (t0, t1),
        span.as_ns(),
        wall_ns,
        allocs,
        alloc_bytes,
        completed,
    )
}

/// Run one case.
pub fn run_case(kind: ScenarioKind, size: SizeClass, smoke: bool) -> CaseResult {
    match kind {
        ScenarioKind::Broadcast => run_broadcast(size, smoke),
        ScenarioKind::Ttcp => run_ttcp_case(size, smoke),
        ScenarioKind::Pings => run_pings(size, smoke),
        ScenarioKind::Metro => run_metro(size, smoke),
    }
}

// ----------------------------------------------------------------- JSON

fn f2(v: f64) -> Json {
    Json::str(format!("{v:.2}"))
}

/// The numeric twin of [`f2`]/the 3-decimal strings: the same value
/// rounded to `places` decimals, emitted as a JSON number. The string
/// forms stay for schema compatibility; gates and downstream tooling
/// read these.
fn fnum(v: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::F64((v * scale).round() / scale)
}

/// Render one case as JSON.
pub fn case_json(c: &CaseResult) -> Json {
    Json::obj(vec![
        ("name", Json::str(&c.name)),
        ("scenario", Json::str(c.scenario)),
        ("size", Json::str(c.size)),
        ("hosts", Json::U64(c.hosts as u64)),
        ("segments", Json::U64(c.segments as u64)),
        ("bridges", Json::U64(c.bridges as u64)),
        ("sim_ns", Json::U64(c.sim_ns)),
        ("frames_sent", Json::U64(c.frames_sent)),
        ("frames_delivered", Json::U64(c.frames_delivered)),
        ("wire_frames", Json::U64(c.wire_frames)),
        ("wall_ns", Json::U64(c.wall_ns)),
        ("frames_per_sec", f2(c.frames_per_sec)),
        ("frames_per_sec_num", fnum(c.frames_per_sec, 2)),
        ("ns_per_frame", f2(c.ns_per_frame)),
        ("ns_per_frame_num", fnum(c.ns_per_frame, 2)),
        ("allocs", Json::U64(c.allocs)),
        ("allocs_per_frame", f2(c.allocs_per_frame)),
        ("allocs_per_frame_num", fnum(c.allocs_per_frame, 3)),
        ("alloc_bytes", Json::U64(c.alloc_bytes)),
        ("completed", Json::Bool(c.completed)),
    ])
}

/// A recorded measurement from an earlier PR's committed baseline (same
/// harness, same machine class), kept so the emitted JSON carries its own
/// comparison points.
#[derive(Clone, Debug)]
pub struct PreCase {
    /// `scenario/size` (matches [`CaseResult::name`]).
    pub name: String,
    /// Delivered frames in the measured window.
    pub frames_delivered: u64,
    /// Delivered frames per wall second.
    pub frames_per_sec: f64,
    /// Wall nanoseconds per delivered frame.
    pub ns_per_frame: f64,
    /// Heap allocations per delivered frame.
    pub allocs_per_frame: f64,
}

/// One recorded baseline: where it came from, and its cases.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Commit, mode and machine class of the recording.
    pub provenance: String,
    /// The recorded cases.
    pub cases: Vec<PreCase>,
}

impl Baseline {
    /// The recorded numbers for `name`, if any.
    pub fn case(&self, name: &str) -> Option<&PreCase> {
        self.cases.iter().find(|p| p.name == name)
    }
}

/// The recorded baselines every run re-emits and the `--assert-vs-pr4` /
/// `--assert-probe-overhead` gates compare against.
#[derive(Clone, Debug)]
pub struct Recorded {
    /// The PR 5 recording's own cases — the anchor set for the
    /// probe-overhead gate: taken before any flight-recorder hook
    /// existed, so a disarmed-probe run that stays within tolerance of
    /// them (anchor-normalized) proves the hooks' disarmed cost is in
    /// the noise.
    pub pr5: Baseline,
    /// The PR 4 baseline (no metro cases: those are new in PR 5).
    pub pr4: Baseline,
    /// The PR 3 baseline.
    pub pr3: Baseline,
    /// This harness on the commit preceding the FrameBuf refactor.
    pub pre_refactor: Baseline,
}

/// The committed PR 5 recording — the one place the baseline numbers
/// are stored. It carries the three older baselines it was diffed
/// against as sections of their own.
const BENCH_PR5: &str = include_str!("../../../BENCH_PR5.json");

/// Where [`Recorded::pr5`] came from (the recording does not describe
/// itself).
const PR5_PROVENANCE: &str = "BENCH_PR5.json as committed at 96420a7 (multi-core execution \
     plane, before the PR 7 flight-recorder work), full mode, release build, same container \
     class as CI";

/// Read the recorded baselines out of the committed `BENCH_PR5.json`.
///
/// # Panics
/// If the committed file is not the document `bench_baseline` emits.
pub fn recorded() -> Recorded {
    let doc = Json::parse(BENCH_PR5).expect("BENCH_PR5.json is valid JSON");
    let cases = |section: &Json| -> Vec<PreCase> {
        let Some(Json::Arr(cases)) = section.get("cases") else {
            panic!("BENCH_PR5.json: a baseline section has no `cases` array");
        };
        cases
            .iter()
            .map(|c| {
                let num = |key: &str| {
                    c.get(key)
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("BENCH_PR5.json: a case has no numeric `{key}`"))
                };
                let Some(Json::Str(name)) = c.get("name") else {
                    panic!("BENCH_PR5.json: a case has no `name`");
                };
                PreCase {
                    name: name.clone(),
                    frames_delivered: num("frames_delivered") as u64,
                    frames_per_sec: num("frames_per_sec_num"),
                    ns_per_frame: num("ns_per_frame_num"),
                    allocs_per_frame: num("allocs_per_frame_num"),
                }
            })
            .collect()
    };
    let section = |key: &str| -> Baseline {
        let section = doc
            .get(key)
            .unwrap_or_else(|| panic!("BENCH_PR5.json has no `{key}` section"));
        let Some(Json::Str(provenance)) = section.get("provenance") else {
            panic!("BENCH_PR5.json: `{key}` has no provenance");
        };
        Baseline {
            provenance: provenance.clone(),
            cases: cases(section),
        }
    };
    Recorded {
        pr5: Baseline {
            provenance: PR5_PROVENANCE.to_owned(),
            cases: cases(&doc),
        },
        pr4: section("pr4_baseline"),
        pr3: section("pr3_baseline"),
        pre_refactor: section("pre_refactor"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cases_run_and_deliver() {
        let b = run_case(ScenarioKind::Broadcast, SizeClass::Small, true);
        assert!(b.completed, "broadcast blasters must drain: {b:?}");
        assert!(b.frames_delivered > 1000, "storm must fan out: {b:?}");
        let p = run_case(ScenarioKind::Pings, SizeClass::Small, true);
        assert!(p.completed, "all pings must be answered: {p:?}");
    }

    #[test]
    fn metro_small_floods_the_population() {
        let m = run_case(ScenarioKind::Metro, SizeClass::Small, true);
        assert!(m.completed, "metro blasters must drain: {m:?}");
        // Flooded frames reach far more listeners than wires carried
        // frames: high-degree fan-out is the point of the tier.
        assert!(
            m.frames_delivered as f64 / m.wire_frames as f64 > 8.0,
            "metro fan-out too low: {m:?}"
        );
        assert!(m.hosts >= 100, "small metro population: {m:?}");
    }

    #[test]
    fn broadcast_large_has_more_listeners_per_wire_frame() {
        let small = run_case(ScenarioKind::Broadcast, SizeClass::Small, true);
        let large = run_case(ScenarioKind::Broadcast, SizeClass::Large, true);
        let per_wire_small = small.frames_delivered as f64 / small.wire_frames as f64;
        let per_wire_large = large.frames_delivered as f64 / large.wire_frames as f64;
        assert!(
            per_wire_large > per_wire_small,
            "large topology must raise the listener fan-out ({per_wire_small:.2} vs {per_wire_large:.2})"
        );
    }

    #[test]
    fn recorded_baselines_parse_from_the_committed_file() {
        let r = recorded();
        // Six cases per older baseline; PR 5 added the metro pair.
        for (b, n) in [(&r.pre_refactor, 6), (&r.pr3, 6), (&r.pr4, 6), (&r.pr5, 8)] {
            assert_eq!(b.cases.len(), n, "{}", b.provenance);
            assert!(b.cases.iter().all(|c| c.frames_per_sec > 0.0));
        }
        // The two gates' anchors, as recorded.
        assert_eq!(r.pr4.case("broadcast/large").unwrap().ns_per_frame, 55.22);
        assert_eq!(r.pr5.case("broadcast/large").unwrap().ns_per_frame, 55.82);
        assert_eq!(
            r.pr5.case("metro/large").unwrap().frames_delivered,
            4_413_208
        );
        assert!(r.pr4.case("metro/large").is_none());
    }
}
