//! Integration tests for the switchlet loading process (paper Section 5.2):
//! boot loading from "disk", network loading over the four-layer TFTP
//! stack, staged multi-hop loading, and every way the node must *refuse*
//! a switchlet (thinning, tampering, type forgery, runaway code).

use ab_scenario::{self as scenario, bridge_ip, host_ip, host_mac, uploader};
use active_bridge::hostmods::handler_ty;
use active_bridge::{BridgeConfig, BridgeNode, DataPlaneSel, WATCHDOG_TRAPS};
use hostsim::{App, BlastApp, HostConfig, HostCostModel, HostNode, PingApp, UploadApp};
use netsim::{PortId, SegmentConfig, SimDuration, SimTime, World};
use switchlet::{ModuleBuilder, Op, Ty};

fn two_lan_world(boot: &[&str]) -> (World, netsim::NodeId, netsim::NodeId, netsim::NodeId) {
    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), boot);
    let a = world.add_node(HostNode::new(
        "hostA",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::pc_1997()),
        vec![],
    ));
    world.attach(a, lan0);
    let b = world.add_node(HostNode::new(
        "hostB",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::pc_1997()),
        vec![],
    ));
    world.attach(b, lan1);
    (world, bridge, a, b)
}

/// Push `image` from a fresh host on lan0 to bridge 0 and return whether
/// the upload completed.
fn upload_image(world: &mut World, lan0: netsim::SegId, image: Vec<u8>) -> netsim::NodeId {
    let up = world.add_node(HostNode::new(
        "uploader",
        HostConfig::simple(host_mac(9), host_ip(9), HostCostModel::pc_1997()),
        vec![uploader(image, "switchlet.swl")],
    ));
    world.attach(up, lan0);
    up
}

#[test]
fn boot_loading_installs_in_order() {
    // The boot loader loads "disk" images in order at start; the last
    // data-plane switchlet wins (learning replaces dumb).
    let (mut world, bridge, _a, _b) = two_lan_world(&["bridge_dumb", "bridge_learning"]);
    world.run_until(SimTime::from_ms(1));
    let node = world.node::<BridgeNode>(bridge);
    assert!(node.plane().is_running("netloader"));
    assert!(node.plane().is_running("bridge_dumb"));
    assert!(node.plane().is_running("bridge_learning"));
    assert!(matches!(
        node.plane().data_plane(),
        DataPlaneSel::Native("bridge_learning")
    ));
}

#[test]
fn network_loading_enables_bridging() {
    // Boot: loader only. Ping fails. Upload the learning switchlet over
    // TFTP; ping then succeeds — "dynamically load and evaluate the file".
    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), &[]);
    let pinger = world.add_node(HostNode::new(
        "pinger",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::pc_1997()),
        vec![PingApp::new(
            PortId(0),
            host_ip(2),
            3,
            56,
            SimDuration::from_ms(200),
            1,
        )],
    ));
    world.attach(pinger, lan0);
    let replier = world.add_node(HostNode::new(
        "replier",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::pc_1997()),
        vec![],
    ));
    world.attach(replier, lan1);

    // Phase 1: no switching function — pings die at the bridge.
    world.run_until(SimTime::from_secs(2));
    {
        let App::Ping(p) = world.node::<HostNode>(pinger).app(0) else {
            unreachable!()
        };
        assert_eq!(p.received, 0, "no data plane yet");
        assert!(matches!(
            world.node::<BridgeNode>(bridge).plane().data_plane(),
            DataPlaneSel::None
        ));
        assert!(world.node::<BridgeNode>(bridge).plane().stats.no_plane > 0);
    }

    // Phase 2: ship the learning switchlet over the network.
    let image = ModuleBuilder::new("bridge_learning").build().encode();
    let up = upload_image(&mut world, lan0, image);
    let done = ab_scenario::upload_and_load(&mut world, up, 0, SimTime::from_secs(20));
    assert!(done, "tftp upload completed");
    // Two images total: the boot-loaded netloader carrier + this upload.
    assert_eq!(
        world.node::<BridgeNode>(bridge).plane().stats.images_loaded,
        2
    );
    assert!(world
        .node::<BridgeNode>(bridge)
        .plane()
        .is_running("bridge_learning"));

    // Phase 3: a fresh ping train gets through.
    let pinger2 = world.add_node(HostNode::new(
        "pinger2",
        HostConfig::simple(host_mac(5), host_ip(5), HostCostModel::pc_1997()),
        vec![PingApp::new(
            PortId(0),
            host_ip(2),
            3,
            56,
            SimDuration::from_ms(200),
            2,
        )],
    ));
    world.attach(pinger2, lan0);
    let horizon = world.now() + SimDuration::from_secs(3);
    world.run_until(horizon);
    let App::Ping(p) = world.node::<HostNode>(pinger2).app(0) else {
        unreachable!()
    };
    assert_eq!(p.received, 3, "bridging works after network load");
}

#[test]
fn staged_loading_reaches_bridges_one_hop_out() {
    // Paper: "we can easily build up an infrastructure in steps by
    // sending the bridge switchlet to all adjacent switches and then
    // waiting for these switches to start bridging" — load bridge1
    // *through* bridge0.
    let mut world = World::new(7);
    let segs = scenario::lans(&mut world, 3);
    // bridge0 bridges already; bridge1 is a bare loader.
    let b0 = scenario::bridge(
        &mut world,
        0,
        &[segs[0], segs[1]],
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    let b1 = scenario::bridge(
        &mut world,
        1,
        &[segs[1], segs[2]],
        BridgeConfig::default(),
        &[],
    );
    let image = ModuleBuilder::new("bridge_learning").build().encode();
    let up = world.add_node(HostNode::new(
        "uploader",
        HostConfig::simple(host_mac(9), host_ip(9), HostCostModel::pc_1997()),
        vec![UploadApp::new(
            PortId(0),
            bridge_ip(1), // one hop away, across bridge0
            1069,
            "learning.swl",
            image,
        )],
    ));
    world.attach(up, segs[0]);
    let done = ab_scenario::upload_and_load(&mut world, up, 0, SimTime::from_secs(20));
    assert!(done, "upload crossed bridge0 and loaded into bridge1");
    assert!(world
        .node::<BridgeNode>(b1)
        .plane()
        .is_running("bridge_learning"));
    assert!(
        world.node::<BridgeNode>(b0).plane().stats.directed > 0
            || world.node::<BridgeNode>(b0).plane().stats.flooded > 0
    );
}

#[test]
fn vm_switchlet_loads_and_forwards() {
    // The bytecode dumb bridge, shipped over the network, becomes the
    // switching function and actually forwards frames through the VM.
    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), &[]);
    let up = upload_image(
        &mut world,
        lan0,
        active_bridge::switchlets::dumb_vm::build_image(),
    );
    assert!(ab_scenario::upload_and_load(
        &mut world,
        up,
        0,
        SimTime::from_secs(20)
    ));
    assert!(matches!(
        world.node::<BridgeNode>(bridge).plane().data_plane(),
        DataPlaneSel::Vm(_)
    ));

    // Blast raw frames across; a sink on lan1 must hear them.
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(3), host_ip(3), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, lan1);
    let blaster = world.add_node(HostNode::new(
        "blaster",
        HostConfig::simple(host_mac(4), host_ip(4), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(3),
            100,
            20,
            SimDuration::from_ms(5),
        )],
    ));
    world.attach(blaster, lan0);
    world.run_until(world.now() + SimDuration::from_secs(2));
    assert_eq!(world.node::<HostNode>(sink).core.exp_frames_rx, 20);
    let stats = &world.node::<BridgeNode>(bridge).plane().stats;
    assert!(stats.vm_instructions > 0);
}

#[test]
fn vm_and_native_dumb_are_equivalent() {
    // Same blast workload through (a) the native dumb switchlet and
    // (b) the bytecode one; receivers on both other LANs must see
    // identical frame counts.
    fn run(native: bool) -> (u64, u64) {
        let mut world = World::new(11);
        let segs = scenario::lans(&mut world, 3);
        let mut node = BridgeNode::new(
            "bridge0",
            scenario::bridge_mac(0),
            bridge_ip(0),
            3,
            BridgeConfig::default(),
        );
        node.boot_load_native(active_bridge::loader::NAME);
        if native {
            node.boot_load_native("bridge_dumb");
        } else {
            node.boot_load(active_bridge::switchlets::dumb_vm::build_image());
        }
        let b = world.add_node(node);
        for &s in &segs {
            world.attach(b, s);
        }
        let blaster = world.add_node(HostNode::new(
            "blaster",
            HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
            vec![BlastApp::new(
                PortId(0),
                ether::MacAddr::BROADCAST, // floods out of every port
                200,
                25,
                SimDuration::from_ms(3),
            )],
        ));
        world.attach(blaster, segs[0]);
        let mut sinks = Vec::new();
        for (i, &s) in segs.iter().enumerate().skip(1) {
            let sink = world.add_node(HostNode::new(
                format!("sink{i}"),
                HostConfig::simple(
                    host_mac(10 + i as u32),
                    host_ip(10 + i as u32),
                    HostCostModel::FREE,
                ),
                vec![],
            ));
            world.attach(sink, s);
            sinks.push(sink);
        }
        world.run_until(SimTime::from_secs(2));
        (
            world.node::<HostNode>(sinks[0]).core.exp_frames_rx,
            world.node::<HostNode>(sinks[1]).core.exp_frames_rx,
        )
    }
    let native = run(true);
    let vm = run(false);
    assert_eq!(native, vm, "native and VM dumb bridges must agree");
    assert_eq!(native, (25, 25));
}

#[test]
fn vm_bridge_forwards_the_senders_own_buffer() {
    // The VM boundary copies nothing in either direction: the handler's
    // `str` argument and `send_pkt_out`'s payload are the received frame's
    // storage, so what leaves the bridge is the buffer the sender built —
    // at the Ethernet minimum and at the maximum.
    for frame_len in [64, ether::MAX_FRAME] {
        let mut world = World::new(11);
        let segs: Vec<_> = (0..3)
            .map(|i| {
                world.add_segment(SegmentConfig {
                    capture: true,
                    ..SegmentConfig::named(format!("lan{i}"))
                })
            })
            .collect();
        let mut node = BridgeNode::new(
            "bridge0",
            scenario::bridge_mac(0),
            bridge_ip(0),
            3,
            BridgeConfig::default(),
        );
        node.boot_load_native(active_bridge::loader::NAME);
        node.boot_load(active_bridge::switchlets::dumb_vm::build_image());
        let bridge = world.add_node(node);
        for &s in &segs {
            world.attach(bridge, s);
        }
        let blaster = world.add_node(HostNode::new(
            "blaster",
            HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
            vec![BlastApp::new(
                PortId(0),
                host_mac(2), // nobody: the dumb bridge floods regardless
                frame_len - ether::HEADER_LEN,
                4,
                SimDuration::from_ms(3),
            )],
        ));
        world.attach(blaster, segs[0]);
        world.run_until(SimTime::from_secs(1));

        let stats = &world.node::<BridgeNode>(bridge).plane().stats;
        assert!(stats.vm_instructions > 0);
        let sent = world.segment(segs[0]).captured();
        assert_eq!(sent.len(), 4);
        for &out in &segs[1..] {
            let forwarded = world.segment(out).captured();
            assert_eq!(
                forwarded.len(),
                sent.len(),
                "flooded out of every other port"
            );
            for (f, s) in forwarded.iter().zip(sent) {
                assert_eq!(f.data.len(), frame_len);
                assert!(
                    f.data.shares_storage(&s.data),
                    "a {frame_len}-byte frame crossed the VM as a handle, not a copy"
                );
            }
        }
    }
}

// -------------------------------------------------------------- security

#[test]
fn thinned_import_rejected_at_link_time() {
    // A switchlet compiled against `safeunix.system` — which thinning
    // removed — must be refused: "no way of naming the excluded function".
    let mut mb = ModuleBuilder::new("evil");
    let imp = mb.import("safeunix", "system", Ty::func(vec![Ty::Str], Ty::Int));
    let s = mb.intern_str(b"rm -rf /");
    let mut f = mb.func("init", vec![], Ty::Unit);
    f.op(Op::ConstStr(s));
    f.op(Op::CallImport(imp));
    f.op(Op::Pop);
    f.op(Op::ConstUnit);
    f.op(Op::Return);
    let idx = mb.finish(f);
    mb.set_init(idx);
    let image = mb.build().encode();

    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), &[]);
    let up = upload_image(&mut world, lan0, image);
    assert!(ab_scenario::upload_and_load(
        &mut world,
        up,
        0,
        SimTime::from_secs(20)
    ));
    let stats = &world.node::<BridgeNode>(bridge).plane().stats;
    assert_eq!(stats.images_rejected, 1, "evil switchlet refused");
    assert!(!world.node::<BridgeNode>(bridge).plane().is_loaded("evil"));
}

#[test]
fn tampered_image_rejected() {
    // Altered byte codes fail the digest check: "If the byte codes are
    // unaltered module thinning works as described."
    let mut image = active_bridge::switchlets::dumb_vm::build_image();
    let mid = image.len() / 2;
    image[mid] ^= 0x40;

    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), &[]);
    let up = upload_image(&mut world, lan0, image);
    assert!(ab_scenario::upload_and_load(
        &mut world,
        up,
        0,
        SimTime::from_secs(20)
    ));
    let stats = &world.node::<BridgeNode>(bridge).plane().stats;
    assert_eq!(stats.images_rejected, 1);
    assert!(matches!(
        world.node::<BridgeNode>(bridge).plane().data_plane(),
        DataPlaneSel::None
    ));
}

#[test]
fn ill_typed_switchlet_rejected_by_verifier() {
    // Type confusion (int + string) must die at verification, before any
    // instruction runs.
    let mut mb = ModuleBuilder::new("confused");
    let s = mb.intern_str(b"not a number");
    let mut f = mb.func("init", vec![], Ty::Unit);
    f.op(Op::ConstInt(1));
    f.op(Op::ConstStr(s));
    f.op(Op::Add);
    f.op(Op::Pop);
    f.op(Op::ConstUnit);
    f.op(Op::Return);
    let idx = mb.finish(f);
    mb.set_init(idx);
    let image = mb.build().encode();

    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), &[]);
    let up = upload_image(&mut world, lan0, image);
    assert!(ab_scenario::upload_and_load(
        &mut world,
        up,
        0,
        SimTime::from_secs(20)
    ));
    assert_eq!(
        world
            .node::<BridgeNode>(bridge)
            .plane()
            .stats
            .images_rejected,
        1
    );
}

#[test]
fn runaway_switchlet_contained_and_recoverable() {
    // A switching function that loops forever: every invocation is cut
    // off by fuel, the bridge survives, and a later (good) switchlet
    // restores service — "protect itself from some algorithmic failures
    // in loadable modules".
    let mut mb = ModuleBuilder::new("spinner");
    let i_reg = mb.import(
        "func",
        "register_handler",
        Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
    );
    let mut h = mb.func("switching", vec![Ty::Str, Ty::Int], Ty::Unit);
    let head = h.new_label();
    h.place(head);
    h.op(Op::Nop);
    h.jump(head);
    let h_idx = mb.finish(h);
    let key = mb.intern_str(b"switching");
    let mut init = mb.func("init", vec![], Ty::Unit);
    init.op(Op::ConstStr(key));
    init.op(Op::FuncConst(h_idx));
    init.op(Op::CallImport(i_reg));
    init.op(Op::Return);
    let i_idx = mb.finish(init);
    mb.set_init(i_idx);
    let image = mb.build().encode();

    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), &[]);
    let up = upload_image(&mut world, lan0, image);
    assert!(ab_scenario::upload_and_load(
        &mut world,
        up,
        0,
        SimTime::from_secs(20)
    ));

    // Traffic hits the spinner: each invocation is cut off by fuel and
    // counted, and at the watchdog threshold the module is quarantined
    // (the bridge stays alive throughout).
    let blaster = world.add_node(HostNode::new(
        "blaster",
        HostConfig::simple(host_mac(4), host_ip(4), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(99),
            64,
            5,
            SimDuration::from_ms(5),
        )],
    ));
    world.attach(blaster, lan0);
    world.run_until(world.now() + SimDuration::from_secs(1));
    let threshold = u64::from(WATCHDOG_TRAPS);
    assert_eq!(world.counters().get("bridge.vm_traps"), threshold);
    assert_eq!(world.counters().get("bridge.quarantines"), 1);
    assert!(world.node::<BridgeNode>(bridge).is_quarantined("spinner"));

    // Recovery: load the learning switchlet; it replaces the data plane.
    let up2 = world.add_node(HostNode::new(
        "uploader2",
        HostConfig::simple(host_mac(8), host_ip(8), HostCostModel::pc_1997()),
        vec![uploader(
            ModuleBuilder::new("bridge_learning").build().encode(),
            "learning.swl",
        )],
    ));
    world.attach(up2, lan0);
    let horizon = world.now() + SimDuration::from_secs(20);
    assert!(ab_scenario::upload_and_load(&mut world, up2, 0, horizon));
    assert!(world
        .node::<BridgeNode>(bridge)
        .plane()
        .is_running("bridge_learning"));
    assert!(matches!(
        world.node::<BridgeNode>(bridge).plane().data_plane(),
        DataPlaneSel::Native("bridge_learning")
    ));
}

#[test]
fn unknown_native_name_rejected() {
    // A carrier image naming a native switchlet the bridge doesn't have.
    let image = ModuleBuilder::new("no_such_switchlet").build().encode();
    let mut world = World::new(7);
    let lan0 = world.add_segment(SegmentConfig::named("lan0"));
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    let bridge = scenario::bridge(&mut world, 0, &[lan0, lan1], BridgeConfig::default(), &[]);
    let up = upload_image(&mut world, lan0, image);
    assert!(ab_scenario::upload_and_load(
        &mut world,
        up,
        0,
        SimTime::from_secs(20)
    ));
    // An empty module with an unknown name loads as a VM module with no
    // handlers (harmless), because only *named native carriers* dispatch
    // to factories. It must not become the data plane.
    assert!(matches!(
        world.node::<BridgeNode>(bridge).plane().data_plane(),
        DataPlaneSel::None
    ));
}
