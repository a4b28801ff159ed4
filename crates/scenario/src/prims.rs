//! World-building and world-driving primitives: deterministic addresses,
//! `lans`, `bridge`, and the run-until/upload helpers the tests and
//! examples share. Re-exported at the crate root, which is their public
//! path; [`crate::topo`] layers the parametric generators on top.

use std::net::Ipv4Addr;

use ether::MacAddr;
use hostsim::{App, HostNode, UploadApp, UploadState};
use netsim::{NodeId, PortId, SegId, SegmentConfig, SimDuration, SimTime, World};

use active_bridge::{loader, BridgeConfig, BridgeNode};

/// Deterministic station address for bridge `n`.
pub fn bridge_mac(n: u32) -> MacAddr {
    MacAddr::local(0x1000 + n)
}

/// Deterministic loader address for bridge `n` (10.0.0.0/16 block).
pub fn bridge_ip(n: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (n >> 8) as u8, (n & 0xFF) as u8)
}

/// Deterministic station address for host `n`.
pub fn host_mac(n: u32) -> MacAddr {
    MacAddr::local(0x2000 + n)
}

/// Deterministic address for host `n` (10.1.0.0/16 block).
pub fn host_ip(n: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, (n >> 8) as u8, (n & 0xFF) as u8)
}

/// Create `n` standard 100 Mb/s LAN segments named `lan0..`.
pub fn lans(world: &mut World, n: usize) -> Vec<SegId> {
    (0..n)
        .map(|i| world.add_segment(SegmentConfig::named(format!("lan{i}"))))
        .collect()
}

/// Build a bridge attached to the given segments, boot-loading the named
/// native switchlets (always starting with the network loader).
pub fn bridge(
    world: &mut World,
    index: u32,
    segs: &[SegId],
    cfg: BridgeConfig,
    boot: &[&str],
) -> NodeId {
    let mut node = BridgeNode::new(
        format!("bridge{index}"),
        bridge_mac(index),
        bridge_ip(index),
        segs.len(),
        cfg,
    );
    node.boot_load_native(loader::NAME);
    for name in boot {
        node.boot_load_native(name);
    }
    let id = world.add_node(node);
    for &seg in segs {
        world.attach(id, seg);
    }
    id
}

/// Run the world in slices until `done` or `horizon`.
pub fn run_until_done(world: &mut World, horizon: SimTime, mut done: impl FnMut(&World) -> bool) {
    world.start();
    while world.now() < horizon {
        world.run_for(SimDuration::from_ms(50));
        if done(world) {
            return;
        }
    }
}

/// Convenience: an [`UploadApp`] targeting bridge 0's loader.
pub fn uploader(image: Vec<u8>, filename: &str) -> App {
    UploadApp::new(PortId(0), bridge_ip(0), 1069, filename, image)
}

/// Upload a switchlet image from host A to the bridge over TFTP and wait
/// for it to load; returns true on success. Used by the loading tests and
/// the quickstart example.
pub fn upload_and_load(world: &mut World, host: NodeId, app_idx: usize, horizon: SimTime) -> bool {
    let state = |w: &World| match w.node::<HostNode>(host).app(app_idx) {
        App::Upload(u) => u.state,
        _ => unreachable!("app {app_idx} is an upload"),
    };
    run_until_done(world, horizon, |w| {
        !matches!(state(w), UploadState::Running { .. })
    });
    matches!(state(world), UploadState::Done { .. })
}
