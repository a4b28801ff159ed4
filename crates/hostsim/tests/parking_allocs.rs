//! A datagram parked behind ARP waits in a buffer borrowed from the
//! thread's frame pool, and the buffer goes back when the datagram is
//! flushed or refused at the parking cap: on a warm thread, parking costs
//! the allocator nothing for the payloads.

#[path = "../../netsim/tests/counting/mod.rs"]
mod counting;

use std::net::Ipv4Addr;

use counting::allocations;
use ether::MacAddr;
use hostsim::{HostConfig, HostCostModel, HostNode};
use netsim::{FrameBuf, FrameBufMut, NodeId, PortId, SegmentConfig, SimDuration, World};
use netstack::ipv4::Protocol;

/// Hosts 10.1.0.1, 10.1.0.2, ... on one LAN, free of host costs and with
/// the trace off, as in every sweep and benchmark world.
fn rig(hosts: u8) -> (World, Vec<NodeId>) {
    let mut world = World::new(1);
    world.trace_mut().set_enabled(false);
    let lan = world.add_segment(SegmentConfig::default());
    let mut host = |n: u8| {
        let ip = Ipv4Addr::new(10, 1, 0, n);
        let cfg = HostConfig::simple(MacAddr::local(n.into()), ip, HostCostModel::FREE);
        let id = world.add_node(HostNode::new(format!("h{n}"), cfg, vec![]));
        world.attach(id, lan);
        id
    };
    let ids = (1..=hosts).map(&mut host).collect();
    world.run_for(SimDuration::from_us(1));
    (world, ids)
}

#[test]
fn parking_and_flushing_five_datagrams_allocates_nothing_for_their_payloads() {
    // A warm thread: its pool holds sixteen full-sized buffers, so no
    // buffer is grown in place while the five are parked.
    let warm: Vec<FrameBuf> = (0..16)
        .map(|_| FrameBufMut::pooled(2048).freeze())
        .collect();
    warm.into_iter().for_each(FrameBuf::recycle);
    let (mut world, hosts) = rig(2);
    let (a, b) = (hosts[0], hosts[1]);
    let peer = Ipv4Addr::new(10, 1, 0, 2);
    // Built, sent, built (odd length), sent, built.
    let payloads: Vec<Vec<u8>> = [64usize, 200, 333, 1, 1000]
        .iter()
        .map(|&len| (0..len).map(|i| i as u8).collect())
        .collect();
    // A forgets the peer's address, parks the five behind a who-has, and
    // the peer's reply flushes them.
    let mut round = || {
        world.with_ctx::<HostNode, _>(a, |h, ctx| {
            h.core.invalidate_arp(peer);
            for (n, p) in payloads.iter().enumerate() {
                if n % 2 == 0 {
                    let fill = |buf: &mut Vec<u8>| buf.extend_from_slice(p);
                    h.core
                        .send_ip_built(ctx, PortId(0), peer, Protocol::UDP, p.len(), fill);
                } else {
                    h.core.send_ip(ctx, PortId(0), peer, Protocol::UDP, p);
                }
            }
        });
        world.run_for(SimDuration::from_ms(10));
    };
    // The first round warms the world's queues and the peer's ARP entry.
    round();
    // The second costs two calls, both for the list the five wait in (its
    // first block and one growth, from four entries to eight); the five
    // payloads cost none. Parked in vectors of their own they cost five
    // more: 7.
    assert_eq!(allocations(&mut round), 2);
    assert_eq!(allocations(round), 2, "and so does the third");
    let peer_rx = world.node::<HostNode>(b).core.frames_rx;
    assert_eq!(
        peer_rx, 30,
        "three rounds of five who-has and five datagrams"
    );
}

#[test]
fn a_payload_refused_at_the_parking_cap_returns_its_buffer() {
    let (mut world, hosts) = rig(1);
    let a = hosts[0];
    let (dark, payload) = (Ipv4Addr::new(10, 1, 0, 99), [0u8; 1000]);
    let send = |world: &mut World| {
        world.with_ctx::<HostNode, _>(a, |h, ctx| {
            h.core
                .send_ip(ctx, PortId(0), dark, Protocol::UDP, &payload)
        });
        world.run_for(SimDuration::from_ms(1));
    };
    let refused = |world: &World| world.counters().get("host.arp_queue_drops");
    // Park until the cap refuses one (the counter's first bump, too).
    while refused(&world) == 0 {
        send(&mut world);
    }
    // Each refused payload's buffer goes back to the pool, where the
    // next one borrows it. Dropped instead, a hundred refusals would drain
    // the pool and then allocate one buffer and one header each.
    assert_eq!(allocations(|| (0..100).for_each(|_| send(&mut world))), 0);
    assert_eq!(refused(&world), 101);
}
