//! The paper's evaluation (Section 7) as experiment runners: one per
//! table or figure, shared by the examples and the integration tests.
//! Every runner builds a deterministic world, drives it to completion
//! and returns plain result structs; `examples/paper_figures.rs`,
//! `protocol_upgrade.rs` and `ring_agility.rs` print them in the
//! paper's row/series format.

use crate::prims::{self as scenario, bridge_ip, host_ip, host_mac, run_until_done};
use active_bridge::switchlets::stp::{DEC_NAME, IEEE_NAME};
use active_bridge::{
    BridgeConfig, BridgeNode, ControlSwitchlet, Defect, NativeSwitchlet, Phase, StpSwitchlet,
};
use hostsim::{
    App, HostConfig, HostCostModel, HostNode, PingApp, ProbeApp, RepeaterNode, TtcpRecvApp,
    TtcpSendApp,
};
use netsim::{
    CostModel, NodeId, PortId, SegId, SegmentConfig, SimDuration, SimTime, Sketch, World,
};
use netstack::tcplite::{ReceiverConfig, SenderConfig};

/// What sits between the two measurement hosts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Forwarder {
    /// Hosts share one LAN (the paper's Figure 8 baseline).
    Direct,
    /// The user-mode C buffered repeater.
    Repeater,
    /// The active bridge with the native learning switchlet.
    Bridge,
    /// The active bridge with the *bytecode* dumb switchlet on the data
    /// path (every frame interpreted by the VM).
    VmBridge,
}

/// A built two-host path.
pub struct Path {
    /// The world.
    pub world: World,
    /// Sender/client host.
    pub host_a: NodeId,
    /// Receiver/server host.
    pub host_b: NodeId,
    /// The middlebox, if any.
    pub middle: Option<NodeId>,
}

/// Build the measurement path with the given apps on each host.
pub fn build_path(fwd: Forwarder, seed: u64, apps_a: Vec<App>, apps_b: Vec<App>) -> Path {
    let mut world = World::new(seed);
    world.trace_mut().set_enabled(false);
    let cost = HostCostModel::pc_1997();
    let (seg_a, seg_b, middle) = match fwd {
        Forwarder::Direct => {
            let lan = world.add_segment(SegmentConfig::named("lan0"));
            (lan, lan, None)
        }
        Forwarder::Repeater => {
            let lan0 = world.add_segment(SegmentConfig::named("lan0"));
            let lan1 = world.add_segment(SegmentConfig::named("lan1"));
            let rep = world.add_node(RepeaterNode::new("repeater", CostModel::c_repeater_1997()));
            world.attach(rep, lan0);
            world.attach(rep, lan1);
            (lan0, lan1, Some(rep))
        }
        Forwarder::Bridge => {
            let lan0 = world.add_segment(SegmentConfig::named("lan0"));
            let lan1 = world.add_segment(SegmentConfig::named("lan1"));
            let b = scenario::bridge(
                &mut world,
                0,
                &[lan0, lan1],
                BridgeConfig::default(),
                &["bridge_dumb", "bridge_learning"],
            );
            (lan0, lan1, Some(b))
        }
        Forwarder::VmBridge => {
            let lan0 = world.add_segment(SegmentConfig::named("lan0"));
            let lan1 = world.add_segment(SegmentConfig::named("lan1"));
            let mut node = BridgeNode::new(
                "bridge0",
                scenario::bridge_mac(0),
                bridge_ip(0),
                2,
                BridgeConfig::default(),
            );
            node.boot_load_native(active_bridge::loader::NAME);
            node.boot_load(active_bridge::switchlets::dumb_vm::build_image());
            let b = world.add_node(node);
            world.attach(b, lan0);
            world.attach(b, lan1);
            (lan0, lan1, Some(b))
        }
    };
    let host_a = world.add_node(HostNode::new(
        "hostA",
        HostConfig::simple(host_mac(1), host_ip(1), cost),
        apps_a,
    ));
    world.attach(host_a, seg_a);
    let host_b = world.add_node(HostNode::new(
        "hostB",
        HostConfig::simple(host_mac(2), host_ip(2), cost),
        apps_b,
    ));
    world.attach(host_b, seg_b);
    Path {
        world,
        host_a,
        host_b,
        middle,
    }
}

// ------------------------------------------------------------- Figure 9

/// One Figure 9 data point.
#[derive(Clone, Debug)]
pub struct PingStats {
    /// ICMP payload bytes.
    pub size: usize,
    /// Replies / requests.
    pub received: u32,
    /// Requests sent.
    pub sent: u32,
    /// Mean RTT in milliseconds.
    pub avg_rtt_ms: f64,
    /// Minimum RTT in milliseconds.
    pub min_rtt_ms: f64,
    /// Maximum RTT in milliseconds.
    pub max_rtt_ms: f64,
}

/// Figure 9: `ping` RTT for `size`-byte payloads across `fwd`.
pub fn run_ping(fwd: Forwarder, size: usize, count: u32, seed: u64) -> PingStats {
    let apps_a = vec![PingApp::new(
        PortId(0),
        host_ip(2),
        count,
        size,
        SimDuration::from_ms(100),
        0x7070,
    )];
    let mut path = build_path(fwd, seed, apps_a, vec![]);
    let host_a = path.host_a;
    run_until_done(
        &mut path.world,
        SimTime::from_secs(120),
        |w| matches!(w.node::<HostNode>(host_a).app(0), App::Ping(p) if p.is_done()),
    );
    let App::Ping(p) = path.world.node::<HostNode>(host_a).app(0) else {
        unreachable!()
    };
    let ms = |ns: Option<u64>| ns.map_or(f64::NAN, |ns| SimDuration::from_ns(ns).as_millis_f64());
    let rtt_ns = p.rtt_ns();
    PingStats {
        size,
        received: p.received,
        sent: p.sent,
        avg_rtt_ms: ms(rtt_ns.and_then(Sketch::avg)),
        min_rtt_ms: ms(rtt_ns.and_then(Sketch::min)),
        max_rtt_ms: ms(rtt_ns.and_then(Sketch::max)),
    }
}

// ------------------------------------------------------------ Figure 10

/// One Figure 10 / frame-rate-table data point.
#[derive(Clone, Debug)]
pub struct TtcpStats {
    /// Application write size (the x-axis "packet size").
    pub write_size: usize,
    /// Bytes moved.
    pub total_bytes: u64,
    /// Transfer time in seconds.
    pub secs: f64,
    /// Goodput in Mb/s.
    pub mbps: f64,
    /// Data frames per second on the wire.
    pub frames_per_sec: f64,
    /// Data frames sent (including retransmissions).
    pub frames: u64,
    /// True if the transfer completed before the horizon.
    pub completed: bool,
}

/// Figure 10: a ttcp transfer of `total_bytes` in `write_size` chunks.
pub fn run_ttcp(fwd: Forwarder, write_size: usize, total_bytes: u64, seed: u64) -> TtcpStats {
    let sender_cfg = SenderConfig::default();
    let apps_a = vec![TtcpSendApp::new(
        PortId(0),
        host_ip(2),
        5001,
        5001,
        total_bytes,
        write_size,
        sender_cfg,
    )];
    let apps_b = vec![TtcpRecvApp::new(5001, ReceiverConfig::default())];
    let mut path = build_path(fwd, seed, apps_a, apps_b);
    let host_a = path.host_a;
    run_until_done(
        &mut path.world,
        SimTime::from_secs(600),
        |w| matches!(w.node::<HostNode>(host_a).app(0), App::TtcpSend(t) if t.is_done()),
    );
    let App::TtcpSend(t) = path.world.node::<HostNode>(host_a).app(0) else {
        unreachable!()
    };
    let secs = t
        .elapsed()
        .map_or(path.world.now().as_secs_f64(), SimDuration::as_secs_f64);
    TtcpStats {
        write_size,
        total_bytes,
        secs,
        mbps: total_bytes as f64 * 8.0 / secs / 1e6,
        frames_per_sec: t.frames_sent as f64 / secs,
        frames: t.frames_sent,
        completed: t.is_done(),
    }
}

// -------------------------------------------------------------- Table 1

/// Which transition scenario to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransitionMode {
    /// Correct new protocol: tests pass, control terminates.
    Pass,
    /// Defective new protocol (inverted election): tests fail, fallback.
    FailTests,
    /// One bridge never upgrades: late DEC packets force fallback.
    LateDec,
}

/// Per-bridge transition outcome.
#[derive(Clone, Debug)]
pub struct BridgeOutcome {
    /// Bridge name.
    pub name: String,
    /// Final control phase (None if the bridge ran no control switchlet).
    pub phase: Option<Phase>,
    /// The recorded Table 1 event rows `(t_seconds, what)`.
    pub events: Vec<(f64, String)>,
    /// DEC packets suppressed during the window.
    pub dec_suppressed: u64,
    /// Is the IEEE protocol running at the end?
    pub ieee_running: bool,
    /// Is the DEC protocol running at the end?
    pub dec_running: bool,
}

/// Result of a transition run.
#[derive(Clone, Debug)]
pub struct TransitionReport {
    /// Per-bridge outcomes.
    pub bridges: Vec<BridgeOutcome>,
    /// When the probe injected the triggering IEEE BPDU (s).
    pub injected_at_s: f64,
}

/// The Table 1 experiment: a line of three bridges running the DEC-style
/// protocol, 802.1D loaded dormant, control switchlets armed; a probe
/// injects an 802.1D BPDU once the network is stable.
pub fn run_transition(mode: TransitionMode, seed: u64) -> TransitionReport {
    let mut world = World::new(seed);
    world.trace_mut().set_enabled(true);
    let cfg = BridgeConfig::default();
    let n = 3;
    let segs = scenario::lans(&mut world, n + 1);
    let mut bridges = Vec::new();
    for i in 0..n {
        let upgraded = !(mode == TransitionMode::LateDec && i == n - 1);
        let mut node = BridgeNode::new(
            format!("bridge{i}"),
            scenario::bridge_mac(i as u32),
            bridge_ip(i as u32),
            2,
            cfg.clone(),
        );
        if mode == TransitionMode::FailTests {
            // The "bug in the new protocol implementation".
            node.register_factory(
                IEEE_NAME,
                Box::new(|_| {
                    Box::new(StpSwitchlet::ieee().with_defect(Defect::InvertedElection))
                        as Box<dyn NativeSwitchlet>
                }),
            );
        }
        node.boot_load_native(active_bridge::loader::NAME);
        node.boot_load_native("bridge_learning");
        node.boot_load_native(DEC_NAME);
        if upgraded {
            node.boot_load_native(IEEE_NAME); // installs dormant
            node.boot_load_native("control");
        }
        let id = world.add_node(node);
        world.attach(id, segs[i]);
        world.attach(id, segs[i + 1]);
        bridges.push(id);
    }
    add_probe(&mut world, (segs[0], segs[n]), 0x9A9A);
    let inject_at = SimTime::from_secs(60);

    // Let DEC converge, inject, then run past the 60-second test mark.
    world.run_until(inject_at + SimDuration::from_secs(75));

    let outcomes = bridges
        .iter()
        .map(|&b| {
            let node = world.node::<BridgeNode>(b);
            let control = node.switchlet::<ControlSwitchlet>("control");
            BridgeOutcome {
                name: world.node_name(b).to_owned(),
                phase: control.map(|c| c.phase().clone()),
                events: control
                    .map(|c| {
                        c.events
                            .iter()
                            .map(|e| (e.at.as_secs_f64(), e.what.clone()))
                            .collect()
                    })
                    .unwrap_or_default(),
                dec_suppressed: control.map(|c| c.dec_suppressed).unwrap_or(0),
                ieee_running: node.plane().is_running(IEEE_NAME),
                dec_running: node.plane().is_running(DEC_NAME),
            }
        })
        .collect();
    TransitionReport {
        bridges: outcomes,
        injected_at_s: inject_at.as_secs_f64(),
    }
}

// ----------------------------------------------------------- Section 7.5

/// The agility probe host, eth0 on `eth0` and eth1 on `eth1`: it
/// injects its BPDU a minute in, once the old protocol has converged.
fn add_probe(world: &mut World, (eth0, eth1): (SegId, SegId), ident: u16) -> NodeId {
    let mut cfg = HostConfig::multi_homed(
        &[(host_mac(10), host_ip(10)), (host_mac(11), host_ip(11))],
        HostCostModel::pc_1997(),
    );
    cfg.promiscuous = true;
    let app = App::delayed(SimDuration::from_secs(60), ProbeApp::new(ident));
    let probe = world.add_node(HostNode::new("probe", cfg, vec![app]));
    world.attach(probe, eth0);
    world.attach(probe, eth1);
    probe
}

/// Section 7.5 agility result.
#[derive(Clone, Debug)]
pub struct AgilityStats {
    /// Start → IEEE BPDU on eth1 (seconds); the paper measured 0.056 s.
    pub to_ieee_s: Option<f64>,
    /// Start → first probe ping on eth1 (seconds); the paper: 30.1 s.
    pub to_ping_s: Option<f64>,
    /// Pings sent before one arrived.
    pub pings_sent: u32,
}

/// The ring agility experiment: three bridges between the probe's two
/// interfaces; measure protocol switch-over and re-forwarding delay.
pub fn run_agility(seed: u64) -> AgilityStats {
    let mut world = World::new(seed);
    world.trace_mut().set_enabled(false);
    let cfg = BridgeConfig::default();
    let n = 3;
    let segs = scenario::lans(&mut world, n + 1);
    for i in 0..n {
        scenario::bridge(
            &mut world,
            i as u32,
            &[segs[i], segs[i + 1]],
            cfg.clone(),
            &["bridge_learning", DEC_NAME, IEEE_NAME, "control"],
        );
    }
    let probe = add_probe(&mut world, (segs[0], segs[n]), 0x9B9B);

    run_until_done(
        &mut world,
        SimTime::from_secs(150),
        |w| matches!(w.node::<HostNode>(probe).app(0), App::Probe(p) if p.ping_seen_at.is_some()),
    );
    let App::Probe(p) = world.node::<HostNode>(probe).app(0) else {
        unreachable!()
    };
    AgilityStats {
        to_ieee_s: p.to_ieee().map(|d| d.as_secs_f64()),
        to_ping_s: p.to_ping().map(|d| d.as_secs_f64()),
        pings_sent: p.pings_sent,
    }
}

// -------------------------------------------------------------- Figure 5

/// One step of the Figure 5 packet path with its modelled cost.
#[derive(Clone, Debug)]
pub struct PathStep {
    /// Step number (1-7, per Figure 5).
    pub step: u8,
    /// Description.
    pub what: &'static str,
    /// Modelled time in microseconds (0 where the cost is folded into an
    /// adjacent step).
    pub us: f64,
}

/// The Figure 5 walk: decompose the bridge's per-frame cost for a frame
/// of `len` octets.
pub fn fig5_walk(len: usize) -> Vec<PathStep> {
    let cost = CostModel::active_bridge_1997();
    let kernel = cost.kernel_time(len).as_micros_f64();
    let proc = cost.processing_time(len).as_micros_f64();
    let wire = SimDuration::serialization(len + 24, 100_000_000).as_micros_f64();
    vec![
        PathStep {
            step: 1,
            what: "frame arrives on Ethernet adapter (serialization)",
            us: wire,
        },
        PathStep {
            step: 2,
            what: "Ethernet ISR collects frame into buffer chain",
            us: kernel * 0.25,
        },
        PathStep {
            step: 3,
            what: "kernel wakes bridge thread, recvfrom() copy",
            us: kernel * 0.35,
        },
        PathStep {
            step: 4,
            what: "the Caml program operates on the frame",
            us: proc,
        },
        PathStep {
            step: 5,
            what: "sendto() copies frame back to kernel",
            us: kernel * 0.25,
        },
        PathStep {
            step: 6,
            what: "kernel queues frame to Ethernet driver",
            us: kernel * 0.15,
        },
        PathStep {
            step: 7,
            what: "driver emits frame to destination LAN (serialization)",
            us: wire,
        },
    ]
}
