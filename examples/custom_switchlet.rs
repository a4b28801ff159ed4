//! Author a brand-new switchlet in bytecode, ship it over the network
//! into a *running* bridge, and watch it take effect — plus what happens
//! when a switchlet tries to name a thinned-away host function.
//!
//! The custom switchlet is a MAC filter: it drops every frame from one
//! blocked source address and floods the rest (a tiny "firewall"
//! extension the original bridge authors never anticipated — the point
//! of active networking).
//!
//! ```sh
//! cargo run --example custom_switchlet
//! ```

use ab_scenario::{self as scenario, host_ip, host_mac, upload_and_load, uploader};
use active_bridge::hostmods::handler_ty;
use active_bridge::{BridgeConfig, BridgeNode};
use hostsim::{BlastApp, HostConfig, HostCostModel, HostNode};
use netsim::{PortId, SimDuration, SimTime, World};
use switchlet::{ModuleBuilder, Op, Ty};

/// Build the MAC-filter switchlet: drop frames whose 6-byte source
/// address (frame bytes 6..12) equals `blocked`, flood everything else.
fn build_filter(blocked: ether::MacAddr) -> Vec<u8> {
    let mut mb = ModuleBuilder::new("mac_filter");
    let oport = Ty::named("oport");
    let i_num = mb.import("unixnet", "num_ports", Ty::func(vec![], Ty::Int));
    let i_bind = mb.import(
        "unixnet",
        "bind_out",
        Ty::func(vec![Ty::Int], oport.clone()),
    );
    let i_send = mb.import(
        "unixnet",
        "send_pkt_out",
        Ty::func(vec![oport, Ty::Str], Ty::Int),
    );
    let i_reg = mb.import(
        "func",
        "register_handler",
        Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
    );
    let i_bump = mb.import(
        "bridgectl",
        "counter_bump",
        Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit),
    );
    let i_log = mb.import("log", "msg", Ty::func(vec![Ty::Str], Ty::Unit));

    let blocked_str = mb.intern_str(&blocked.octets());
    let drop_counter = mb.intern_str(b"mac_filter.dropped");

    // switching(frame, inport)
    let mut f = mb.func("switching", vec![Ty::Str, Ty::Int], Ty::Unit);
    let n = f.local(Ty::Int);
    let p = f.local(Ty::Int);
    // if frame[6..12] == blocked { counter++; return }
    f.op(Op::LocalGet(0))
        .op(Op::ConstInt(6))
        .op(Op::ConstInt(6))
        .op(Op::StrSlice);
    f.op(Op::ConstStr(blocked_str)).op(Op::Eq);
    let pass = f.new_label();
    f.br_if_not(pass);
    f.op(Op::ConstStr(drop_counter))
        .op(Op::ConstInt(1))
        .op(Op::CallImport(i_bump))
        .op(Op::Pop);
    f.op(Op::ConstUnit).op(Op::Return);
    // flood loop
    f.place(pass);
    f.op(Op::CallImport(i_num)).op(Op::LocalSet(n));
    f.op(Op::ConstInt(0)).op(Op::LocalSet(p));
    let head = f.new_label();
    let next = f.new_label();
    let exit = f.new_label();
    f.place(head);
    f.op(Op::LocalGet(p)).op(Op::LocalGet(n)).op(Op::Ge);
    f.br_if(exit);
    f.op(Op::LocalGet(p)).op(Op::LocalGet(1)).op(Op::Eq);
    f.br_if(next);
    f.op(Op::LocalGet(p)).op(Op::CallImport(i_bind));
    f.op(Op::LocalGet(0));
    f.op(Op::CallImport(i_send)).op(Op::Pop);
    f.place(next);
    f.op(Op::LocalGet(p))
        .op(Op::ConstInt(1))
        .op(Op::Add)
        .op(Op::LocalSet(p));
    f.jump(head);
    f.place(exit);
    f.op(Op::ConstUnit).op(Op::Return);
    let h = mb.finish(f);
    mb.export("switching", h);

    let banner = mb.intern_str(b"mac filter installed");
    let key = mb.intern_str(b"switching");
    let mut init = mb.func("init", vec![], Ty::Unit);
    init.op(Op::ConstStr(banner))
        .op(Op::CallImport(i_log))
        .op(Op::Pop);
    init.op(Op::ConstStr(key))
        .op(Op::FuncConst(h))
        .op(Op::CallImport(i_reg));
    init.op(Op::Return);
    let i = mb.finish(init);
    mb.set_init(i);
    mb.build().encode()
}

/// A switchlet that tries to call `safeunix.system` — thinned away.
fn build_evil() -> Vec<u8> {
    let mut mb = ModuleBuilder::new("evil");
    let i_sys = mb.import("safeunix", "system", Ty::func(vec![Ty::Str], Ty::Int));
    let cmd = mb.intern_str(b"cat /etc/passwd");
    let mut init = mb.func("init", vec![], Ty::Unit);
    init.op(Op::ConstStr(cmd))
        .op(Op::CallImport(i_sys))
        .op(Op::Pop);
    init.op(Op::ConstUnit).op(Op::Return);
    let i = mb.finish(init);
    mb.set_init(i);
    mb.build().encode()
}

fn main() {
    let mut world = World::new(9);
    let segs = scenario::lans(&mut world, 2);
    let bridge = scenario::bridge(&mut world, 0, &segs, BridgeConfig::default(), &[]);

    // 1. Load our filter switchlet over TFTP.
    let image = build_filter(host_mac(66));
    println!(
        "filter switchlet image: {} bytes (verified bytecode)",
        image.len()
    );
    let up = world.add_node(HostNode::new(
        "uploader",
        HostConfig::simple(host_mac(9), host_ip(9), HostCostModel::pc_1997()),
        vec![uploader(image, "mac_filter.swl")],
    ));
    world.attach(up, segs[0]);
    assert!(upload_and_load(&mut world, up, 0, SimTime::from_secs(20)));
    println!(
        "loaded; data plane: {:?}",
        world.node::<BridgeNode>(bridge).plane().data_plane()
    );

    // 2. Traffic: a good host and a blocked host, plus a sink.
    let sink = world.add_node(HostNode::new(
        "sink",
        HostConfig::simple(host_mac(5), host_ip(5), HostCostModel::FREE),
        vec![],
    ));
    world.attach(sink, segs[1]);
    let good = world.add_node(HostNode::new(
        "good",
        HostConfig::simple(host_mac(4), host_ip(4), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(5),
            100,
            20,
            SimDuration::from_ms(3),
        )],
    ));
    world.attach(good, segs[0]);
    let blocked = world.add_node(HostNode::new(
        "blocked",
        HostConfig::simple(host_mac(66), host_ip(66), HostCostModel::FREE),
        vec![BlastApp::new(
            PortId(0),
            host_mac(5),
            100,
            20,
            SimDuration::from_ms(3),
        )],
    ));
    world.attach(blocked, segs[0]);

    let horizon = world.now() + SimDuration::from_secs(2);
    world.run_until(horizon);
    println!(
        "sink received {} frames (good sent 20, blocked sent 20)",
        world.node::<HostNode>(sink).core.exp_frames_rx
    );
    println!(
        "filter dropped {} frames (counter set by the switchlet itself)",
        world.counters().get("mac_filter.dropped")
    );
    let stats = &world.node::<BridgeNode>(bridge).plane().stats;
    println!(
        "VM executed {} instructions on the data path",
        stats.vm_instructions
    );

    // 3. Now the attack: a switchlet importing a thinned-away function.
    println!("\nuploading a switchlet that imports safeunix.system ...");
    let up2 = world.add_node(HostNode::new(
        "attacker",
        HostConfig::simple(host_mac(13), host_ip(13), HostCostModel::pc_1997()),
        vec![uploader(build_evil(), "evil.swl")],
    ));
    world.attach(up2, segs[0]);
    let horizon = world.now() + SimDuration::from_secs(20);
    assert!(upload_and_load(&mut world, up2, 0, horizon));
    let plane = world.node::<BridgeNode>(bridge).plane();
    println!(
        "bridge rejected it at link time (images_rejected={}); `evil` loaded: {}",
        plane.stats.images_rejected,
        plane.is_loaded("evil")
    );
    for entry in world.trace().find("rejected") {
        println!("  trace: {}", entry.msg);
    }
}
