//! The learning bridge while what its verdicts rest on changes under it.
//!
//! Nothing a frame's handling depends on may be remembered past a change
//! to it. These tests drive the real bridge through such changes mid-flow
//! — learn-table churn (a host moving ports), a switchlet hot-swap, an
//! STP-style port-flag write — and assert the observable forwarding; a
//! proptest then holds the native [`LearningBridge`] to a ten-line model
//! of the paper's §5.3 under arbitrary interleavings of all of them.
//!
//! [`LearningBridge`]: active_bridge::switchlets::learning::LearningBridge

use std::collections::BTreeMap;

use ab_scenario::{self as scenario, host_ip, host_mac};
use active_bridge::{BridgeCommand, BridgeConfig, BridgeNode};
use ether::{EtherType, FrameBuilder, MacAddr};
use hostsim::{BlastApp, HostConfig, HostCostModel, HostNode};
use netsim::{CostModel, FrameBuf, Node, PortId, SimDuration, SimTime, World};
use proptest::prelude::*;

fn host(world: &mut World, n: u32, seg: netsim::SegId, apps: Vec<hostsim::App>) -> netsim::NodeId {
    let h = world.add_node(HostNode::new(
        format!("host{n}"),
        HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::FREE),
        apps,
    ));
    world.attach(h, seg);
    h
}

fn blast(dst: u32, count: u64, every_ms: u64) -> hostsim::App {
    BlastApp::new(
        PortId(0),
        host_mac(dst),
        100,
        count,
        SimDuration::from_ms(every_ms),
    )
}

/// A steady unicast flow is directed once its destination has spoken: one
/// flood at most, no stray ones after.
#[test]
fn repeat_unicast_flow_is_directed() {
    let mut world = World::new(7);
    let segs = scenario::lans(&mut world, 3);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    // Host 2 announces itself once; host 1 then streams to it.
    host(&mut world, 2, segs[1], vec![blast(1, 1, 1)]);
    host(&mut world, 1, segs[0], vec![blast(2, 200, 2)]);
    host(&mut world, 3, segs[2], vec![]);
    world.run_until(SimTime::from_secs(2));
    let stats = &world.node::<BridgeNode>(b).plane().stats;
    assert!(
        stats.directed >= 199,
        "steady flow is directed (directed={})",
        stats.directed
    );
    assert!(
        stats.flooded <= 2,
        "only the two announcements may flood (flooded={})",
        stats.flooded
    );
}

/// Learn-table churn: the destination host moves to another LAN mid-flow
/// (its traffic starts arriving on a different bridge port). Frames
/// follow the host immediately — no stale deliveries to the old port
/// after the move is learned.
#[test]
fn host_move_mid_flow_is_followed() {
    let mut world = World::new(7);
    let segs = scenario::lans(&mut world, 3);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    // The streaming source on LAN 0.
    host(&mut world, 1, segs[0], vec![blast(2, 400, 2)]);
    // host2's MAC first appears on LAN 1...
    host(&mut world, 2, segs[1], vec![blast(1, 1, 1)]);
    // ... and later the same MAC speaks from LAN 2 (the "moved host",
    // modelled as a second NIC with the same address that starts late).
    let mover = world.add_node(HostNode::new(
        "host2-moved",
        HostConfig::simple(host_mac(2), host_ip(12), HostCostModel::FREE),
        vec![hostsim::App::delayed(
            SimDuration::from_ms(400),
            blast(1, 1, 1),
        )],
    ));
    world.attach(mover, segs[2]);

    // Let the flow establish toward LAN 1.
    world.run_until(SimTime::from_ms(395));
    let before = world.segment(segs[2]).counters().deliveries;
    let directed_before = world.node::<BridgeNode>(b).plane().stats.directed;
    assert!(directed_before > 50, "flow was directed before the move");

    // Move happens at 400 ms; from then on the stream must follow.
    world.run_until(SimTime::from_secs(2));
    let after = world.segment(segs[2]).counters().deliveries;
    assert!(
        after > before + 150,
        "after the move the stream reaches LAN 2 ({before} -> {after})"
    );
    // And LAN 1 stops receiving it (allow a few in-flight frames around
    // the move instant).
    let lan1 = world.segment(segs[1]).counters().deliveries;
    assert!(
        lan1 < 250,
        "LAN 1 must not keep receiving the stream after the move (got {lan1})"
    );
}

/// Switchlet hot-swap mid-flow: suspending the learning switchlet drops
/// the data plane; resuming restores service. Nothing decided before the
/// suspension may be acted on while the switchlet is not running.
#[test]
fn hot_swap_mid_flow_drops_then_resumes() {
    let mut world = World::new(7);
    let segs = scenario::lans(&mut world, 2);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    host(&mut world, 2, segs[1], vec![blast(1, 1, 1)]);
    host(&mut world, 1, segs[0], vec![blast(2, 400, 2)]);

    world.run_until(SimTime::from_ms(300));
    let forwarded_before = {
        let stats = &world.node::<BridgeNode>(b).plane().stats;
        stats.directed + stats.flooded
    };
    assert!(forwarded_before > 100, "flow established");

    // Suspend the switching function mid-flow.
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
        node.administer(ctx, BridgeCommand::Suspend("bridge_learning".into()));
    });
    world.run_until(SimTime::from_ms(500));
    let (no_plane_mid, forwarded_mid) = {
        let stats = &world.node::<BridgeNode>(b).plane().stats;
        (stats.no_plane, stats.directed + stats.flooded)
    };
    assert!(
        no_plane_mid > 50,
        "suspended switching function drops frames (no_plane={no_plane_mid})"
    );

    // Resume: forwarding picks back up.
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
        node.administer(ctx, BridgeCommand::Resume("bridge_learning".into()));
    });
    world.run_until(SimTime::from_secs(2));
    let stats = &world.node::<BridgeNode>(b).plane().stats;
    assert!(
        stats.directed + stats.flooded > forwarded_mid + 50,
        "forwarding resumed after the hot swap"
    );
    // The suspension window lost frames but never misdelivered: every
    // frame was directed, flooded, filtered, blocked or counted no_plane.
    assert_eq!(
        stats.frames_in,
        stats.directed
            + stats.flooded
            + stats.filtered
            + stats.blocked
            + stats.no_plane
            + stats.registered
            + stats.to_loader
            + stats.queue_drops,
        "bridge accounting is exhaustive"
    );
}

/// A topology change expressed through the spanning tree's access points
/// (a port-flag write): nothing is sent through the disabled port from
/// that frame on, and traffic falls back to the remaining ports.
#[test]
fn port_flag_change_mid_flow_falls_back_to_flooding() {
    let mut world = World::new(7);
    let segs = scenario::lans(&mut world, 3);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    host(&mut world, 2, segs[1], vec![blast(1, 1, 1)]);
    host(&mut world, 1, segs[0], vec![blast(2, 400, 2)]);
    host(&mut world, 3, segs[2], vec![]);

    world.run_until(SimTime::from_ms(300));
    let directed_before = world.node::<BridgeNode>(b).plane().stats.directed;
    assert!(directed_before > 50, "flow was directed before the change");
    let lan1_before = world.segment(segs[1]).counters().deliveries;

    // STP-style: port 1 stops forwarding (what a Blocking transition does
    // through the plane's access points).
    world.with_ctx::<BridgeNode, _>(b, |node, _ctx| {
        node.plane_mut().set_port_forward(1, false);
        // The learned entry for host 2 now points at a non-forwarding
        // port; the switching function floods instead (stale-entry rule).
    });
    world.run_until(SimTime::from_secs(2));
    let lan1_after = world.segment(segs[1]).counters().deliveries;
    let lan2_after = world.segment(segs[2]).counters().deliveries;
    assert!(
        lan1_after <= lan1_before + 2,
        "no deliveries through the blocked port ({lan1_before} -> {lan1_after})"
    );
    assert!(
        lan2_after > 100,
        "stream falls back to flooding the open port (lan2={lan2_after})"
    );
}

/// §5.3 as written, for obviousness: a sorted map of (port, last seen),
/// the two flags a port has, the four counters a verdict can move.
#[derive(Default)]
struct Model {
    table: BTreeMap<MacAddr, (usize, SimTime)>,
    forward: [bool; 4],
    learn: [bool; 4],
    /// `flooded`, `directed`, `filtered`, `blocked`.
    counts: [u64; 4],
}

impl Model {
    /// The ports a frame leaves by.
    fn frame(&mut self, port: usize, src: MacAddr, dst: MacAddr, now: SimTime) -> [bool; 4] {
        let mut out = [false; 4];
        if !self.forward[port] {
            self.counts[3] += 1;
            return out;
        }
        if self.learn[port] && !src.is_multicast() {
            self.table.insert(src, (port, now));
        }
        let current = |e: &&(usize, SimTime)| now.saturating_since(e.1) <= AGE;
        match self.table.get(&dst).filter(current) {
            Some(&(p, _)) if p == port => self.counts[2] += 1,
            Some(&(p, _)) if self.forward[p] => {
                out[p] = true;
                self.counts[1] += 1;
            }
            _ => {
                out = std::array::from_fn(|p| p != port && self.forward[p]);
                self.counts[if out.contains(&true) { 0 } else { 3 }] += 1;
            }
        }
        out
    }
}

/// The table's entry lifetime in the oracle's worlds: short, so a run
/// crosses it many times.
const AGE: SimDuration = SimDuration::from_secs(2);

fn data_frame(dst: MacAddr, src: MacAddr) -> FrameBuf {
    FrameBuilder::new(dst, src, EtherType::EXPERIMENTAL)
        .payload(&[0x42; 46])
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bridge-level oracle: a native `LearningBridge` on a four-port
    /// bridge against [`Model`] under arbitrary interleavings of frames
    /// (unicast and group sources and destinations), clock steps past the
    /// age limit, table sweeps and flushes, and `forward`/`learn` flag
    /// writes — the same egress ports for every frame and the same
    /// `flooded`/`directed`/`filtered`/`blocked` after every step. (Taking
    /// the out-port `forward` test out of `switch_frame`, or letting
    /// `lookup_entry` answer from a stale entry, fails it — both tried.)
    #[test]
    fn learning_bridge_matches_the_papers_model(
        ops in proptest::collection::vec(any::<u32>(), 1..200),
    ) {
        let mut world = World::new(1);
        let segs = scenario::lans(&mut world, 4);
        let cfg = BridgeConfig { cost: CostModel::FREE, learn_age: AGE, ..BridgeConfig::default() };
        let bridge = scenario::bridge(&mut world, 0, &segs, cfg, &["bridge_learning"]);
        world.run_until(SimTime::from_ms(1));
        let mut model = Model { forward: [true; 4], learn: [true; 4], ..Model::default() };
        // Frames each port's LAN has carried: the bridge is its only sender.
        let sent = |world: &World| -> [u64; 4] {
            std::array::from_fn(|p| world.segment(segs[p]).counters().tx_frames)
        };
        for word in ops {
            let (op, src, dst) = (word % 16, (word >> 4) % 8, (word >> 8) % 8);
            let (port, on) = ((word >> 12) as usize % 4, (word >> 14) % 2 == 0);
            // Six stations and two group addresses.
            let mac = |n: u32| match n {
                6 => MacAddr::BROADCAST,
                7 => MacAddr::new([0x01, 0x00, 0x5e, 0x00, 0x00, 0x01]),
                n => host_mac(n),
            };
            let (src, dst) = (mac(src), mac(dst));
            match op {
                0..=9 => {
                    let before = sent(&world);
                    let want = model.frame(port, src, dst, world.now());
                    world.with_ctx::<BridgeNode, _>(bridge, |node, ctx| {
                        node.on_frame(ctx, PortId(port), data_frame(dst, src));
                    });
                    world.run_for(SimDuration::from_ms(1));
                    let after = sent(&world);
                    let got: [u64; 4] = std::array::from_fn(|p| after[p] - before[p]);
                    prop_assert_eq!(got, want.map(u64::from), "{} -> {} in on port {}", src, dst, port);
                }
                // Past the age limit (by nothing, the first time in eight), and short of it.
                10 => world.run_for(AGE + SimDuration::from_ms(u64::from(word >> 4) % 8)),
                11 => world.run_for(SimDuration::from_ms(300 * (u64::from(word >> 4) % 8))),
                12 => {
                    let now = world.now();
                    world.node_mut::<BridgeNode>(bridge).plane_mut().learn.sweep(now);
                }
                13 => {
                    model.table.clear();
                    world.node_mut::<BridgeNode>(bridge).plane_mut().learn.flush();
                }
                14 => {
                    model.forward[port] = on;
                    world.node_mut::<BridgeNode>(bridge).plane_mut().set_port_forward(port, on);
                }
                _ => {
                    model.learn[port] = on;
                    world.node_mut::<BridgeNode>(bridge).plane_mut().set_port_learn(port, on);
                }
            }
            let stats = &world.node::<BridgeNode>(bridge).plane().stats;
            prop_assert_eq!(
                [stats.flooded, stats.directed, stats.filtered, stats.blocked],
                model.counts
            );
        }
    }
}
