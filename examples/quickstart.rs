//! Quickstart: build an extended LAN, watch the bridge come alive as
//! switchlets load, and ping across it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ab_scenario::{self as scenario, host_ip, host_mac, run_until_done, uploader};
use active_bridge::{BridgeConfig, BridgeNode};
use hostsim::{App, HostConfig, HostCostModel, HostNode, PingApp};
use netsim::{PortId, SimDuration, SimTime, World};
use switchlet::ModuleBuilder;

fn main() {
    // Two LANs joined by an active bridge that boots with *only* its
    // network loader — it cannot forward anything yet.
    let mut world = World::new(42);
    let segs = scenario::lans(&mut world, 2);
    let bridge = scenario::bridge(&mut world, 0, &segs, BridgeConfig::default(), &[]);

    // Host `n` on the first LAN, pinging hostB five times (session `ident`).
    let add_pinger = |world: &mut World, name: &str, n, ident| {
        let app = PingApp::new(
            PortId(0),
            host_ip(2),
            5,
            56,
            SimDuration::from_ms(250),
            ident,
        );
        let cfg = HostConfig::simple(host_mac(n), host_ip(n), HostCostModel::pc_1997());
        let id = world.add_node(HostNode::new(name, cfg, vec![app]));
        world.attach(id, segs[0]);
        id
    };
    let pinger = add_pinger(&mut world, "hostA", 1, 7);
    let replier = world.add_node(HostNode::new(
        "hostB",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::pc_1997()),
        vec![],
    ));
    world.attach(replier, segs[1]);

    world.run_until(SimTime::from_secs(2));
    {
        let hp = world.node::<HostNode>(pinger);
        let App::Ping(p) = hp.app(0) else {
            unreachable!()
        };
        println!(
            "t={:>6}: bare loader — {} of {} pings answered (no switching function)",
            world.now(),
            p.received,
            p.sent
        );
    }

    // Ship the self-learning bridge switchlet over TFTP, through the
    // same LAN the pings are dying on.
    println!(
        "t={:>6}: uploading bridge_learning switchlet over TFTP ...",
        world.now()
    );
    let image = ModuleBuilder::new("bridge_learning").build().encode();
    let up = world.add_node(HostNode::new(
        "uploader",
        HostConfig::simple(host_mac(9), host_ip(9), HostCostModel::pc_1997()),
        vec![uploader(image, "learning.swl")],
    ));
    world.attach(up, segs[0]);
    let ok = ab_scenario::upload_and_load(&mut world, up, 0, SimTime::from_secs(20));
    println!(
        "t={:>6}: upload {}; bridge runs: {:?}",
        world.now(),
        if ok { "complete" } else { "FAILED" },
        ["netloader", "bridge_learning"]
            .iter()
            .filter(|n| world.node::<BridgeNode>(bridge).plane().is_running(n))
            .collect::<Vec<_>>()
    );

    // Fresh ping train: the extended LAN now works.
    let pinger2 = add_pinger(&mut world, "hostC", 3, 8);
    let horizon = world.now() + SimDuration::from_secs(5);
    run_until_done(
        &mut world,
        horizon,
        |w| matches!(w.node::<HostNode>(pinger2).app(0), App::Ping(p) if p.is_done()),
    );
    let hp = world.node::<HostNode>(pinger2);
    let App::Ping(p) = hp.app(0) else {
        unreachable!()
    };
    println!(
        "t={:>6}: after loading — {} of {} pings answered, avg RTT {:.3} ms",
        world.now(),
        p.received,
        p.sent,
        p.avg_rtt().map(|d| d.as_millis_f64()).unwrap_or(f64::NAN)
    );
    let plane = world.node::<BridgeNode>(bridge).plane();
    println!(
        "bridge learned {} stations; stats: directed={} flooded={} to_loader={}",
        plane.learn.len(),
        plane.stats.directed,
        plane.stats.flooded,
        plane.stats.to_loader
    );
}
