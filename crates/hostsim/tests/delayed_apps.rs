//! What a start delay holds back and what it does not. A delayed app is
//! the app itself with its start postponed: it hears the frames sent to
//! it from time zero, but not its own host's transmit completions until
//! it has started.

use std::net::Ipv4Addr;

use ether::MacAddr;
use hostsim::{
    App, BlastApp, HostConfig, HostCostModel, HostNode, TtcpRecvApp, TtcpSendApp, TtcpState,
};
use netsim::{NodeId, PortId, SegmentConfig, SimDuration, SimTime, World};
use netstack::tcplite::ReceiverConfig;

const TTCP_PORT: u16 = 5001;

/// Hosts 1 (10.1.0.1) and 2 (10.1.0.2) on one LAN, free of host
/// costs, running `apps_1` and `apps_2`.
fn two_hosts(apps_1: Vec<App>, apps_2: Vec<App>) -> (World, NodeId, NodeId) {
    let mut world = World::new(1);
    let lan = world.add_segment(SegmentConfig::default());
    let mut host = |n: u8, apps| {
        let ip = Ipv4Addr::new(10, 1, 0, n);
        let cfg = HostConfig::simple(MacAddr::local(n.into()), ip, HostCostModel::FREE);
        let id = world.add_node(HostNode::new(format!("h{n}"), cfg, apps));
        world.attach(id, lan);
        id
    };
    let (h1, h2) = (host(1, apps_1), host(2, apps_2));
    (world, h1, h2)
}

/// A ttcp transmitter of 64 KiB in 1 KiB writes from host 1 to host 2.
fn ttcp_to_host_2() -> App {
    let dst = Ipv4Addr::new(10, 1, 0, 2);
    TtcpSendApp::new(
        PortId(0),
        dst,
        4000,
        TTCP_PORT,
        64 * 1024,
        1024,
        Default::default(),
    )
}

fn ttcp_pair(world: &World, h1: NodeId, h2: NodeId) -> (&TtcpSendApp, &TtcpRecvApp) {
    let (App::TtcpSend(tx), App::TtcpRecv(rx)) = (
        world.node::<HostNode>(h1).app(0),
        world.node::<HostNode>(h2).app(0),
    ) else {
        unreachable!("app 0 of host 1 sends, app 0 of host 2 receives")
    };
    (tx, rx)
}

/// A delay holds back an app's own start, not what it is sent: a
/// receiver due to start in 10 s takes a whole transfer now.
#[test]
fn a_delayed_ttcp_receiver_accepts_data_before_its_start() {
    let recv = TtcpRecvApp::new(TTCP_PORT, ReceiverConfig::default());
    let (mut world, h1, h2) = two_hosts(
        vec![ttcp_to_host_2()],
        vec![App::delayed(SimDuration::from_secs(10), recv)],
    );
    world.run_until(SimTime::from_secs(1));
    let (tx, rx) = ttcp_pair(&world, h1, h2);
    assert!(tx.is_done(), "every byte acknowledged");
    assert_eq!(rx.bytes_received(), 64 * 1024);
}

/// A ttcp sender writes on transmit completions; one that has not
/// started must not hear them. Here a blaster on the same host
/// completes a transmission every millisecond before the sender's
/// start at 100 ms, and the sender sends nothing until then.
#[test]
fn a_delayed_ttcp_sender_gets_no_tx_done_before_its_start() {
    let start = SimDuration::from_ms(100);
    let blast = BlastApp::new(
        PortId(0),
        MacAddr::local(2),
        64,
        50,
        SimDuration::from_ms(1),
    );
    let (mut world, h1, h2) = two_hosts(
        vec![App::delayed(start, ttcp_to_host_2()), blast],
        vec![TtcpRecvApp::new(TTCP_PORT, ReceiverConfig::default())],
    );
    world.run_until(SimTime::from_ms(99));
    assert_eq!(world.node::<HostNode>(h2).core.exp_frames_rx, 50);
    let (tx, rx) = ttcp_pair(&world, h1, h2);
    assert_eq!((tx.frames_sent, tx.state), (0, TtcpState::Idle));
    assert_eq!(rx.bytes_received(), 0);
    world.run_until(SimTime::from_secs(1));
    let (tx, rx) = ttcp_pair(&world, h1, h2);
    let TtcpState::Done { since, .. } = tx.state else {
        panic!("the transfer finished: {:?}", tx.state)
    };
    assert_eq!(
        since,
        SimTime::from_ms(100),
        "started when its delay ran out"
    );
    assert_eq!(rx.bytes_received(), 64 * 1024);
}
