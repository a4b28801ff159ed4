//! Topology-building primitives for bridges and LANs: deterministic
//! addresses, `lans`, `bridge`, and the two-line `ring`/`line` worlds.
//! Re-exported at the crate root, which is their public path;
//! [`crate::topo`] layers the parametric generators on top.

use std::net::Ipv4Addr;

use ether::MacAddr;
use netsim::{NodeId, SegId, SegmentConfig, World};

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

/// A ring of `n` bridges over `n` segments: bridge `i` connects segment
/// `i` and segment `(i+1) % n` — the Section 7.5 agility topology.
///
/// Superseded by `ab_scenario::topo` (shape `Ring`), which generates the
/// same wiring parametrically; kept for callers that want the two-line
/// version.
pub fn ring(
    world: &mut World,
    n: usize,
    cfg: &BridgeConfig,
    boot: &[&str],
) -> (Vec<SegId>, Vec<NodeId>) {
    let segs = lans(world, n);
    let bridges = (0..n)
        .map(|i| {
            bridge(
                world,
                i as u32,
                &[segs[i], segs[(i + 1) % n]],
                cfg.clone(),
                boot,
            )
        })
        .collect();
    (segs, bridges)
}

/// A line of `n` bridges over `n + 1` segments: bridge `i` connects
/// segment `i` and segment `i + 1` — the extended-LAN topology.
///
/// Superseded by `ab_scenario::topo` (shape `Line`); see [`ring`].
pub fn line(
    world: &mut World,
    n: usize,
    cfg: &BridgeConfig,
    boot: &[&str],
) -> (Vec<SegId>, Vec<NodeId>) {
    let segs = lans(world, n + 1);
    let bridges = (0..n)
        .map(|i| bridge(world, i as u32, &[segs[i], segs[i + 1]], cfg.clone(), boot))
        .collect();
    (segs, bridges)
}
