//! Resilience tests: spanning-tree re-convergence after a failure, ttcp
//! over a lossy segment (retransmission machinery end to end), VM timer
//! callbacks, and the out-of-band administrative interface.

use ab_scenario::paper::{build_path, Forwarder};
use ab_scenario::{self as scenario, host_ip, host_mac, run_until_done};
use active_bridge::hostmods::timer_cb_ty;
use active_bridge::{
    BridgeCommand, BridgeConfig, BridgeNode, PortRole, StpSwitchlet, WATCHDOG_TRAPS,
};
use hostsim::{
    App, BlastApp, HostConfig, HostCostModel, HostNode, TtcpRecvApp, TtcpSendApp, UploadApp,
    UploadState,
};
use netsim::{FaultConfig, PortId, SegmentConfig, SimDuration, SimTime, World};
use netstack::tcplite::{ReceiverConfig, SenderConfig};
use netstack::FailureClass;
use switchlet::{ModuleBuilder, Op, Ty};

/// Ring of three bridges: kill the spanning-tree protocol on the root
/// via the administrative interface; the survivors re-elect and restore
/// a loop-free, connected topology.
#[test]
fn stp_reconverges_after_root_protocol_failure() {
    let mut world = World::new(31);
    let topo = scenario::topo::generate(scenario::TopologyShape::Ring { bridges: 3 }, 31);
    let built = scenario::instantiate(
        &mut world,
        &topo,
        &BridgeConfig::default(),
        topo.default_boot(),
    );
    assert_eq!(topo.default_boot(), &["bridge_learning", "stp_ieee"]);
    let (segs, bridges) = (built.segs, built.bridges);
    world.run_until(SimTime::from_secs(40));

    // Bridge 0 has the lowest id: it is the root, and exactly one port
    // in the ring blocks.
    let root_mac = {
        let b0 = world.node::<BridgeNode>(bridges[0]);
        let snap = b0.plane().published.get("stp_ieee").unwrap().clone();
        snap.root_mac
    };
    assert_eq!(root_mac, scenario::bridge_mac(0));

    // The root dies entirely: both its spanning tree and its switching
    // function stop. (Suspending only the STP while leaving forwarding
    // up would be the classic BPDU-filtering pathology that real 802.1D
    // cannot survive either.)
    world.with_ctx::<BridgeNode, _>(bridges[0], |node, ctx| {
        node.administer(ctx, BridgeCommand::Suspend("stp_ieee".into()));
        node.administer(ctx, BridgeCommand::Suspend("bridge_learning".into()));
    });
    // Survivors must notice via max-age expiry (20 s), re-elect, and walk
    // the previously blocked port through listening/learning (30 s).
    world.run_until(SimTime::from_secs(100));
    for &b in &bridges[1..] {
        let node = world.node::<BridgeNode>(b);
        let snap = node.plane().published.get("stp_ieee").unwrap();
        assert_eq!(
            snap.root_mac,
            scenario::bridge_mac(1),
            "{}: next-lowest id becomes root",
            world.node_name(b)
        );
    }
    // The ring degraded to a line: every survivor port must forward
    // again (the pre-failure blocked port has reopened).
    for &b in &bridges[1..] {
        let node = world.node::<BridgeNode>(b);
        assert!(
            node.plane().flags().iter().all(|f| f.forward),
            "{}: line topology needs no blocked ports",
            world.node_name(b)
        );
    }
    // Connectivity around the long way: a blast on the dead root's seg0
    // side still reaches seg1 via bridge2 -> seg2 -> bridge1.
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, segs[1]);
    let blaster = world.add_node(HostNode::new(
        "blaster",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(2),
            128,
            10,
            SimDuration::from_ms(2),
        )],
    ));
    world.attach(blaster, segs[0]);
    let horizon = world.now() + SimDuration::from_secs(2);
    world.run_until(horizon);
    assert_eq!(
        world.node::<HostNode>(sink).core.exp_frames_rx,
        10,
        "traffic re-routes around the dead bridge"
    );
}

/// A 1%-loss segment between the hosts: TcpLite's RTO + go-back-N must
/// still deliver every byte through the bridge.
#[test]
fn ttcp_completes_over_lossy_segment() {
    let mut world = World::new(33);
    let lan0 = world.add_segment(SegmentConfig {
        fault: FaultConfig {
            drop_one_in: 100,
            ..Default::default()
        },
        ..SegmentConfig::named("lossy-lan0")
    });
    let lan1 = world.add_segment(SegmentConfig::named("lan1"));
    scenario::bridge(
        &mut world,
        0,
        &[lan0, lan1],
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    let sender = world.add_node(HostNode::new(
        "sender",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::pc_1997()),
        vec![TtcpSendApp::new(
            PortId(0),
            host_ip(2),
            5001,
            5001,
            300_000,
            8192,
            SenderConfig::default(),
        )],
    ));
    world.attach(sender, lan0);
    let receiver = world.add_node(HostNode::new(
        "receiver",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::pc_1997()),
        vec![TtcpRecvApp::new(5001, ReceiverConfig::default())],
    ));
    world.attach(receiver, lan1);

    run_until_done(&mut world, SimTime::from_secs(120), |w| {
        let App::TtcpSend(t) = w.node::<HostNode>(sender).app(0) else {
            unreachable!()
        };
        t.is_done()
    });
    let App::TtcpSend(t) = world.node::<HostNode>(sender).app(0) else {
        unreachable!()
    };
    assert!(t.is_done(), "transfer must survive 1% loss");
    let App::TtcpRecv(r) = world.node::<HostNode>(receiver).app(0) else {
        unreachable!()
    };
    assert_eq!(r.bytes_received(), 300_000);
    assert!(
        world.segment(lan0).counters().fault_drops > 0,
        "the fault injector actually dropped frames"
    );
}

/// A bytecode switchlet that re-arms a timer: exercises the
/// `timer.set_timeout` host path and VM callback dispatch.
#[test]
fn vm_timer_callbacks_fire_repeatedly() {
    // heartbeat: init arms a 100 ms timer; the callback bumps a counter
    // and re-arms itself until token reaches 5.
    let mut mb = ModuleBuilder::new("heartbeat");
    let i_timer = mb.import(
        "timer",
        "set_timeout",
        Ty::func(vec![Ty::Int, Ty::Int, timer_cb_ty()], Ty::Unit),
    );
    let i_bump = mb.import(
        "bridgectl",
        "counter_bump",
        Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit),
    );
    let key = mb.intern_str(b"heartbeat.ticks");

    // tick(token): bump; if token < 5, re-arm with token+1.
    let tick_idx = mb.next_func_index();
    let mut tick = mb.func("tick", vec![Ty::Int], Ty::Unit);
    tick.op(Op::ConstStr(key))
        .op(Op::ConstInt(1))
        .op(Op::CallImport(i_bump))
        .op(Op::Pop);
    let done = tick.new_label();
    tick.op(Op::LocalGet(0)).op(Op::ConstInt(5)).op(Op::Ge);
    tick.br_if(done);
    tick.op(Op::ConstInt(100)); // ms
    tick.op(Op::LocalGet(0)).op(Op::ConstInt(1)).op(Op::Add); // token+1
    tick.op(Op::FuncConst(tick_idx));
    tick.op(Op::CallImport(i_timer)).op(Op::Pop);
    tick.place(done);
    tick.op(Op::ConstUnit).op(Op::Return);
    let tick_fn = mb.finish(tick);
    assert_eq!(tick_fn, tick_idx);
    mb.export("tick", tick_fn);

    let mut init = mb.func("init", vec![], Ty::Unit);
    init.op(Op::ConstInt(100));
    init.op(Op::ConstInt(1));
    init.op(Op::FuncConst(tick_fn));
    init.op(Op::CallImport(i_timer));
    init.op(Op::Return);
    let init_fn = mb.finish(init);
    mb.set_init(init_fn);
    let image = mb.build().encode();

    let mut world = World::new(34);
    let segs = scenario::lans(&mut world, 2);
    let mut node = BridgeNode::new(
        "bridge0",
        scenario::bridge_mac(0),
        scenario::bridge_ip(0),
        2,
        BridgeConfig::default(),
    );
    node.boot_load_native(active_bridge::loader::NAME);
    node.boot_load(image);
    let b = world.add_node(node);
    for &s in &segs {
        world.attach(b, s);
    }
    world.run_until(SimTime::from_secs(2));
    // Ticks at 100,200,300,400,500 ms with tokens 1..=5 — the token-5
    // tick still bumps but does not re-arm.
    assert_eq!(world.counters().get("heartbeat.ticks"), 5);
}

/// A bridge crash blackholes traffic and loses all volatile state; a
/// restart cold-boots from the retained disk images and forwarding
/// resumes.
#[test]
fn bridge_crash_loses_state_and_restart_recovers_forwarding() {
    let mut world = World::new(37);
    let segs = scenario::lans(&mut world, 2);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, segs[1]);
    let blast = |world: &mut World, n: u32| {
        let blaster = world.add_node(HostNode::new(
            format!("blaster{n}"),
            HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
            vec![BlastApp::new(
                PortId(0),
                host_mac(2),
                128,
                10,
                SimDuration::from_ms(2),
            )],
        ));
        world.attach(blaster, segs[0]);
        let horizon = world.now() + SimDuration::from_ms(100);
        world.run_until(horizon);
    };
    blast(&mut world, 1);
    assert_eq!(world.node::<HostNode>(sink).core.exp_frames_rx, 10);

    // Crash: frames sent while the bridge is down go nowhere, and the
    // crash wipes the loaded switchlets.
    world.crash_node(b);
    assert!(world.is_crashed(b));
    blast(&mut world, 2);
    assert_eq!(
        world.node::<HostNode>(sink).core.exp_frames_rx,
        10,
        "a crashed bridge forwards nothing"
    );
    assert_eq!(
        world
            .node::<BridgeNode>(b)
            .switchlet_status("bridge_learning"),
        None,
        "volatile switchlet state died with the crash"
    );

    // Restart: the boot images replay, the learning bridge re-links,
    // and traffic flows again.
    world.restart_node(b);
    blast(&mut world, 3);
    assert!(world
        .node::<BridgeNode>(b)
        .plane()
        .is_running("bridge_learning"));
    assert_eq!(world.node::<HostNode>(sink).core.exp_frames_rx, 20);
}

/// A repeatedly-trapping VM data path hits the watchdog threshold, is
/// quarantined, and the bridge rolls back to the last-known-good
/// switching function — traffic provably continues.
#[test]
fn watchdog_quarantines_trapping_switchlet_and_rolls_back() {
    let mut world = World::new(38);
    let segs = scenario::lans(&mut world, 2);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    world.run_until(SimTime::from_ms(10));
    // Hot-swap in the faulty data path over the administrative
    // interface (the in-band loading analogue).
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
        node.administer(
            ctx,
            BridgeCommand::LoadImage(active_bridge::switchlets::trap_vm::build_image()),
        );
    });
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, segs[1]);
    let blaster = world.add_node(HostNode::new(
        "blaster",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(2),
            128,
            10,
            SimDuration::from_ms(2),
        )],
    ));
    world.attach(blaster, segs[0]);
    let horizon = world.now() + SimDuration::from_ms(100);
    world.run_until(horizon);

    let node = world.node::<BridgeNode>(b);
    assert!(node.is_quarantined("vm_trap"));
    assert_eq!(world.counters().get("bridge.quarantines"), 1);
    assert_eq!(
        world.counters().get("bridge.vm_traps"),
        u64::from(WATCHDOG_TRAPS),
        "quarantine engages exactly at the threshold"
    );
    // The frames that trapped were lost; every frame after the rollback
    // reached the sink through the restored learning plane.
    assert_eq!(
        world.node::<HostNode>(sink).core.exp_frames_rx,
        10 - u64::from(WATCHDOG_TRAPS)
    );
}

/// With no previously-working switching function to roll back to, the
/// watchdog's final degraded tier is dumb flood forwarding.
#[test]
fn watchdog_falls_back_to_dumb_forwarding_without_a_known_good_plane() {
    let mut world = World::new(39);
    let segs = scenario::lans(&mut world, 2);
    let mut node = BridgeNode::new(
        "bridge0",
        scenario::bridge_mac(0),
        scenario::bridge_ip(0),
        2,
        BridgeConfig::default(),
    );
    node.boot_load_native(active_bridge::loader::NAME);
    node.boot_load(active_bridge::switchlets::trap_vm::build_image());
    let b = world.add_node(node);
    for &s in &segs {
        world.attach(b, s);
    }
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, segs[1]);
    let blaster = world.add_node(HostNode::new(
        "blaster",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(2),
            128,
            10,
            SimDuration::from_ms(2),
        )],
    ));
    world.attach(blaster, segs[0]);
    world.run_until(SimTime::from_ms(100));

    let node = world.node::<BridgeNode>(b);
    assert!(node.is_quarantined("vm_trap"));
    assert_eq!(
        node.switchlet_status("bridge_dumb"),
        Some(active_bridge::SwitchletStatus::Running),
        "the degraded tier is the dumb flooder"
    );
    assert_eq!(
        world.node::<HostNode>(sink).core.exp_frames_rx,
        10 - u64::from(WATCHDOG_TRAPS)
    );
}

/// A bridge crash in the middle of a sealed-image upload: the sender
/// classifies the dead server, opens a *fresh* TFTP session after the
/// restart (no resumed state survives the crash), and the transfer
/// completes — the module's `init` runs exactly once.
#[test]
fn upload_resumes_with_fresh_session_after_bridge_crash() {
    let mut world = World::new(40);
    let segs = scenario::lans(&mut world, 2);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    let uploader = world.add_node(HostNode::new(
        "uploader",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::pc_1997()),
        vec![UploadApp::new(
            PortId(0),
            scenario::bridge_ip(0),
            4000,
            "resume.swl",
            scenario::workload::sealed_upload_image(9, 60_000),
        )],
    ));
    world.attach(uploader, segs[0]);

    // Let the session open and move a few blocks, then pull the plug:
    // the ballast-padded image spans >100 TFTP blocks, so 5 ms of
    // pc-1997 service time is nowhere near the end of the transfer.
    world.run_until(SimTime::from_ms(5));
    let App::Upload(a) = world.node::<HostNode>(uploader).app(0) else {
        unreachable!()
    };
    assert!(!a.is_done(), "the padded image must still be in flight");
    world.crash_node(b);
    let horizon = world.now() + SimDuration::from_ms(50);
    world.run_until(horizon);
    world.restart_node(b);

    run_until_done(&mut world, SimTime::from_secs(30), |w| {
        let App::Upload(a) = w.node::<HostNode>(uploader).app(0) else {
            unreachable!()
        };
        a.is_done()
    });
    let App::Upload(a) = world.node::<HostNode>(uploader).app(0) else {
        unreachable!()
    };
    assert!(a.is_done(), "the upload must complete after the restart");
    assert!(
        a.restarts >= 1,
        "recovery goes through a fresh WRQ, not a resumed session"
    );
    assert_eq!(
        world
            .counters()
            .get(scenario::workload::UPLOAD_ALIVE_COUNTER),
        1,
        "the module's init ran exactly once, on the restarted bridge"
    );
}

/// One payload bit flipped under an intact envelope header: the
/// loader's integrity gate refuses the image before decode, the sender
/// parks the upload as a classified integrity reject once its budget is
/// spent, and the poisoned module never executes.
#[test]
fn integrity_gate_refuses_corrupted_image_end_to_end() {
    let mut world = World::new(41);
    let segs = scenario::lans(&mut world, 2);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning"],
    );
    let uploader = world.add_node(HostNode::new(
        "uploader",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::pc_1997()),
        vec![UploadApp::with_budget(
            PortId(0),
            scenario::bridge_ip(0),
            4000,
            "corrupt.swl",
            scenario::workload::corrupt_upload_image(7),
            6,
        )],
    ));
    world.attach(uploader, segs[0]);

    run_until_done(&mut world, SimTime::from_secs(30), |w| {
        let App::Upload(a) = w.node::<HostNode>(uploader).app(0) else {
            unreachable!()
        };
        !a.is_running()
    });
    let App::Upload(a) = world.node::<HostNode>(uploader).app(0) else {
        unreachable!()
    };
    assert_eq!(
        a.state,
        UploadState::Parked {
            class: FailureClass::IntegrityReject
        },
        "the spent budget parks the upload, never completed"
    );
    let node = world.node::<BridgeNode>(b);
    assert!(
        node.plane().stats.images_rejected >= 1,
        "every delivery attempt died at the gate"
    );
    assert!(
        node.plane().is_running("bridge_learning"),
        "the data plane is unharmed"
    );
    assert_eq!(
        world
            .counters()
            .get(scenario::workload::UPLOAD_ALIVE_COUNTER),
        0,
        "the poisoned init never ran"
    );
}

/// The administrative interface can hot-swap the data plane, mirroring
/// the in-band loading path.
#[test]
fn admin_interface_swaps_data_plane() {
    let mut path = build_path(Forwarder::Bridge, 35, vec![], vec![]);
    let bridge = path.middle.unwrap();
    path.world.run_until(SimTime::from_ms(10));
    assert!(path
        .world
        .node::<BridgeNode>(bridge)
        .plane()
        .is_running("bridge_learning"));
    path.world.with_ctx::<BridgeNode, _>(bridge, |node, ctx| {
        node.administer(ctx, BridgeCommand::Suspend("bridge_learning".into()));
    });
    assert!(!path
        .world
        .node::<BridgeNode>(bridge)
        .plane()
        .is_running("bridge_learning"));
    path.world.with_ctx::<BridgeNode, _>(bridge, |node, ctx| {
        node.administer(ctx, BridgeCommand::Resume("bridge_learning".into()));
    });
    assert!(path
        .world
        .node::<BridgeNode>(bridge)
        .plane()
        .is_running("bridge_learning"));
}

/// Suspended spanning tree on a line topology leaves data flowing (ports
/// stay in their last state); blasting still works.
#[test]
fn suspended_stp_does_not_break_forwarding() {
    let mut world = World::new(36);
    let segs = scenario::lans(&mut world, 2);
    let b = scenario::bridge(
        &mut world,
        0,
        &segs,
        BridgeConfig::default(),
        &["bridge_learning", "stp_ieee"],
    );
    world.run_until(SimTime::from_secs(35)); // forwarding reached
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
        node.administer(ctx, BridgeCommand::Suspend("stp_ieee".into()));
    });
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(2), host_ip(2), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, segs[1]);
    let blaster = world.add_node(HostNode::new(
        "blaster",
        HostConfig::simple(host_mac(1), host_ip(1), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(2),
            128,
            10,
            SimDuration::from_ms(2),
        )],
    ));
    world.attach(blaster, segs[0]);
    world.run_until(SimTime::from_secs(36));
    assert_eq!(world.node::<HostNode>(sink).core.exp_frames_rx, 10);
    // And the engine can be resumed cleanly.
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
        node.administer(ctx, BridgeCommand::Resume("stp_ieee".into()));
    });
    world.run_until(SimTime::from_secs(70));
    let node = world.node::<BridgeNode>(b);
    let s = node.switchlet::<StpSwitchlet>("stp_ieee").unwrap();
    assert!(s.engine().is_some());
    assert_eq!(s.engine().unwrap().port_role(0), PortRole::Designated);
}
