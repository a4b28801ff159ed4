//! The control plane runs on slots, and what a name resolved to is kept —
//! so nothing kept may outlive what it was resolved from. A registered
//! address is held to its handler's lifecycle transition by transition,
//! each followed at once by a frame, with no unrelated event in between
//! to forget the kept resolution by accident; and the control plane's
//! change stamp is held to the changes an observer of convergence can
//! see.

use std::any::Any;
use std::net::Ipv4Addr;

use active_bridge::hostmods::handler_ty;
use active_bridge::{
    BridgeCommand, BridgeConfig, BridgeCtx, BridgeNode, DataFrame, NativeSwitchlet, PortFlags,
    StpVariant, WATCHDOG_TRAPS,
};
use ether::{EtherType, FrameBuilder, MacAddr};
use netsim::{CostModel, Node, NodeId, PortId, SimTime, World};
use switchlet::{ModuleBuilder, Op, Ty};

/// A group address nothing else listens to.
const GROUP: MacAddr = MacAddr::new([0x01, 0x80, 0xC2, 0x00, 0x00, 0x42]);

/// Counts the frames it is handed; `probe_a` registers for [`GROUP`].
struct Probe {
    name: &'static str,
    hits: u32,
}

impl NativeSwitchlet for Probe {
    fn name(&self) -> &'static str {
        self.name
    }
    fn on_install(&mut self, bc: &mut BridgeCtx<'_, '_>) {
        if self.name == "probe_a" {
            bc.plane.register_addr(GROUP, self.name);
        }
    }
    fn on_registered_frame(&mut self, _: &mut BridgeCtx<'_, '_>, _: PortId, _: &DataFrame<'_>) {
        self.hits += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A VM module whose `on_group` handler bumps the world counter
/// `<name>.hits` (and then, if `faulty`, divides by zero); its init
/// registers the handler and, if `listen`, points [`GROUP`] at it.
fn vm_probe(name: &str, listen: bool, faulty: bool) -> Vec<u8> {
    let mut mb = ModuleBuilder::new(name);
    let reg = mb.import(
        "func",
        "register_handler",
        Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
    );
    let addr = mb.import(
        "bridgectl",
        "register_addr",
        Ty::func(vec![Ty::Str, Ty::Str], Ty::Unit),
    );
    let bump = mb.import(
        "bridgectl",
        "counter_bump",
        Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit),
    );
    let key = mb.intern_str(b"on_group");
    let group = mb.intern_str(&GROUP.octets());
    let counter = mb.intern_str(format!("{name}.hits").as_bytes());
    let mut f = mb.func("on_group", vec![Ty::Str, Ty::Int], Ty::Unit);
    f.op(Op::ConstStr(counter)).op(Op::ConstInt(1));
    f.op(Op::CallImport(bump)).op(Op::Pop);
    if faulty {
        f.op(Op::ConstInt(1)).op(Op::ConstInt(0)).op(Op::Div);
        f.op(Op::Pop);
    }
    f.op(Op::ConstUnit).op(Op::Return);
    let handler = mb.finish(f);
    let mut init = mb.func("init", vec![], Ty::Unit);
    init.op(Op::ConstStr(key)).op(Op::FuncConst(handler));
    init.op(Op::CallImport(reg));
    if listen {
        init.op(Op::Pop);
        init.op(Op::ConstStr(group)).op(Op::ConstStr(key));
        init.op(Op::CallImport(addr));
    }
    init.op(Op::Return);
    let init = mb.finish(init);
    mb.set_init(init);
    mb.build().encode()
}

/// A two-port bridge with a free cost model (a frame is processed inside
/// `on_frame`), booted with `setup`'s images.
fn boot(setup: impl FnOnce(&mut BridgeNode)) -> (World, NodeId) {
    let cfg = BridgeConfig {
        cost: CostModel::FREE,
        ..BridgeConfig::default()
    };
    let mut node = BridgeNode::new("bridge", MacAddr::local(1), Ipv4Addr::LOCALHOST, 2, cfg);
    setup(&mut node);
    let mut world = World::new(1);
    let b = world.add_node(node);
    for _ in 0..2 {
        let lan = world.add_segment(Default::default());
        world.attach(b, lan);
    }
    world.run_until(SimTime::from_ms(1));
    (world, b)
}

/// Hand the bridge one frame addressed to [`GROUP`].
fn send_group_frame(world: &mut World, b: NodeId) {
    let frame = FrameBuilder::new(GROUP, MacAddr::local(0x99), EtherType::EXPERIMENTAL)
        .payload(&[0; 46])
        .build();
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| node.on_frame(ctx, PortId(0), frame));
}

fn administer(world: &mut World, b: NodeId, cmd: BridgeCommand) {
    world.with_ctx::<BridgeNode, _>(b, |node, ctx| node.administer(ctx, cmd));
}

#[test]
fn a_native_registration_follows_its_switchlets_lifecycle() {
    let (mut world, b) = boot(|node| {
        for name in ["probe_a", "probe_b"] {
            node.register_factory(name, Box::new(move |_| Box::new(Probe { name, hits: 0 })));
            node.boot_load_native(name);
        }
    });
    let hits = |world: &World, name: &str| {
        let node = world.node::<BridgeNode>(b);
        node.switchlet::<Probe>(name).expect("loaded").hits
    };
    // Send one frame; say who it reached.
    let reached = |world: &mut World| {
        let before = (hits(world, "probe_a"), hits(world, "probe_b"));
        send_group_frame(world, b);
        let after = (hits(world, "probe_a"), hits(world, "probe_b"));
        (after.0 - before.0, after.1 - before.1)
    };

    // Running: dispatched, the first time (resolved) and the second
    // (served from what the registration kept).
    assert_eq!(reached(&mut world), (1, 0));
    assert_eq!(reached(&mut world), (1, 0));

    administer(&mut world, b, BridgeCommand::Suspend("probe_a".into()));
    assert_eq!(reached(&mut world), (0, 0), "suspended");
    administer(&mut world, b, BridgeCommand::Resume("probe_a".into()));
    assert_eq!(reached(&mut world), (1, 0), "resumed");

    // Re-pointed: the new owner, at once; and back.
    let repoint = |world: &mut World, name: &'static str| {
        world
            .node_mut::<BridgeNode>(b)
            .plane_mut()
            .register_addr(GROUP, name);
    };
    repoint(&mut world, "probe_b");
    assert_eq!(reached(&mut world), (0, 1), "re-pointed");
    repoint(&mut world, "probe_a");
    assert_eq!(reached(&mut world), (1, 0), "pointed back");

    world
        .node_mut::<BridgeNode>(b)
        .plane_mut()
        .unregister_addr(GROUP);
    assert_eq!(reached(&mut world), (0, 0), "unregistered");
    repoint(&mut world, "probe_a");
    assert_eq!(reached(&mut world), (1, 0), "registered again");

    administer(&mut world, b, BridgeCommand::Stop("probe_a".into()));
    assert_eq!(reached(&mut world), (0, 0), "stopped");
    administer(&mut world, b, BridgeCommand::Resume("probe_a".into()));
    assert_eq!(
        reached(&mut world),
        (0, 0),
        "a stopped switchlet stays stopped"
    );
}

/// A `vm:` registration names a handler key, not a unit: `suspend` and
/// `stop` act on native switchlets, and what ends a VM module's handlers
/// is the watchdog's quarantine.
#[test]
fn a_vm_registration_follows_its_handlers_lifecycle() {
    let (mut world, b) = boot(|node| {
        node.boot_load(vm_probe("vm_a", true, false));
        node.boot_load(vm_probe("vm_b", false, true));
    });
    let threshold = WATCHDOG_TRAPS;
    let reached = |world: &mut World| {
        let read = |w: &World| (w.counters().get("vm_a.hits"), w.counters().get("vm_b.hits"));
        let before = read(world);
        send_group_frame(world, b);
        let after = read(world);
        (after.0 - before.0, after.1 - before.1)
    };
    assert_eq!(reached(&mut world), (1, 0));
    assert_eq!(reached(&mut world), (1, 0));

    let repoint = |world: &mut World, name: &'static str| {
        world
            .node_mut::<BridgeNode>(b)
            .plane_mut()
            .register_addr(GROUP, name);
    };
    world
        .node_mut::<BridgeNode>(b)
        .plane_mut()
        .unregister_addr(GROUP);
    assert_eq!(reached(&mut world), (0, 0), "unregistered");
    repoint(&mut world, "vm:vm_a.on_group");
    assert_eq!(reached(&mut world), (1, 0), "registered again");

    // Re-pointed at the faulty module: it is reached (the bump precedes
    // the trap) until the watchdog quarantines it, and never after.
    repoint(&mut world, "vm:vm_b.on_group");
    for _ in 0..threshold {
        assert_eq!(reached(&mut world), (0, 1), "re-pointed");
    }
    assert!(world.node::<BridgeNode>(b).is_quarantined("vm_b"));
    assert_eq!(reached(&mut world), (0, 0), "quarantined");
    repoint(&mut world, "vm:vm_a.on_group");
    assert_eq!(reached(&mut world), (1, 0), "pointed back");
}

#[test]
fn the_control_stamp_moves_with_forward_flags_and_survives_a_crash() {
    let (mut world, b) = boot(|node| {
        node.boot_load_native(active_bridge::loader::NAME);
        node.boot_load_native("bridge_learning");
        node.boot_load_native("stp_ieee");
    });
    let stamp = |world: &World| world.node::<BridgeNode>(b).plane().control_changed_at();
    let booted = stamp(&world);
    assert!(
        booted.is_some_and(|at| at < world.now()),
        "the spanning tree blocked its ports and published a root at boot"
    );

    // A flag write stamps the plane exactly when `forward` changes, with
    // the time it was written at.
    let flags = world.node::<BridgeNode>(b).plane().port_flags(0);
    let set = |world: &mut World, flags: PortFlags| {
        let now = world.now();
        let plane = world.node_mut::<BridgeNode>(b).plane_mut();
        plane.set_port_flags(0, flags, now);
        plane.control_changed_at()
    };
    assert_eq!(set(&mut world, flags), booted, "re-asserted");
    let learn_only = PortFlags {
        learn: !flags.learn,
        ..flags
    };
    assert_eq!(set(&mut world, learn_only), booted, "only `learn` changed");
    let flipped = PortFlags {
        forward: !flags.forward,
        ..flags
    };
    let flipped_at = Some(world.now());
    assert_eq!(set(&mut world, flipped), flipped_at);
    world.run_until(SimTime::from_ms(2));
    assert_eq!(set(&mut world, flipped), flipped_at, "re-asserted");

    // Long enough for both ports to reach forwarding: the stamp a crash
    // must move on from, and the crash's the restart must.
    world.run_until(SimTime::from_secs(40));
    let converged = stamp(&world);
    assert!(converged > flipped_at);
    let lowest = |world: &World| {
        world
            .node::<BridgeNode>(b)
            .plane()
            .lowest_root(StpVariant::Ieee)
    };
    let root = lowest(&world);
    assert!(root.is_some(), "the tree published a root");
    world.crash_node(b);
    assert!(converged < Some(world.now()));
    assert_eq!(
        stamp(&world),
        Some(world.now()),
        "a crash wipes flags and roots"
    );
    assert_eq!(lowest(&world), root, "the lowest root survives a crash");
    world.run_until(SimTime::from_secs(41));
    world.restart_node(b);
    assert_eq!(
        stamp(&world),
        Some(world.now()),
        "the rebooted tree blocks and publishes"
    );
}
