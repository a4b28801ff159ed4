//! The Active Bridge node.
//!
//! Implements the paper's Figure 5 pipeline on top of `netsim`: frames
//! arrive on promiscuous ports, pass through a single-server input queue
//! whose service time comes from the calibrated [`netsim::CostModel`]
//! (steps 2–6 of the seven-step path), and are then demultiplexed —
//! address-registered handlers first (spanning-tree groups, the loader's
//! own station address), then the installed *switching function* (the
//! dumb/learning switchlet, native or VM).
//!
//! Switchlets are managed exactly as the paper describes: loaded (from
//! "disk" at boot, or over the network through the TFTP loader), started,
//! suspended, resumed, and stopped; the control switchlet drives those
//! transitions through `switchctl` commands, which are queued during
//! dispatch and applied when the switchlet returns (a reentrancy
//! discipline the single-address-space Caml prototype got from its
//! cooperative threads).

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::rc::Rc;

use ether::{EtherType, Frame, MacAddr};
use netsim::{
    Ctx, FastMap, FrameBuf, Node, Offer, PortId, ProbeRecord, ServiceQueue, SimDuration,
    TimerHandle, TimerToken,
};
use switchlet::{ExecConfig, FuncVal, Module, Namespace, Value, VmScratch};

use crate::config::BridgeConfig;
use crate::hostmods;
use crate::plane::{DataPlaneSel, HandlerTarget, Plane, SwitchletStatus, UnitName};

/// Timer token kinds (top byte of the `u64`). Bits 48–55 carry the
/// bridge's crash epoch: a timer armed before a crash refers to state
/// that died with the old epoch, so `on_timer` drops any token whose
/// epoch disagrees with the current one.
const KIND_SERVICE: u64 = 0;
const KIND_SWITCHLET: u64 = 1;
const KIND_VM_TIMER: u64 = 2;
const KIND_STORM: u64 = 3;

/// Storm-control traffic classes (index into the per-port bucket pair).
const STORM_BROADCAST: usize = 0;
const STORM_UNKNOWN: usize = 1;

/// One admitted frame costs 10⁹ nano-tokens, so bucket refill
/// (`elapsed_ns × rate_pps`) stays in integer arithmetic.
const NANO_PER_FRAME: u64 = 1_000_000_000;

/// Input service queue capacity: frames waiting for the bridge program.
const INPUT_QUEUE: usize = 256;

/// The budget of one VM switchlet invocation, at init and per frame.
const VM_EXEC: ExecConfig = ExecConfig {
    fuel: 200_000,
    max_depth: 64,
};

/// Switchlet watchdog threshold: after this many traps or fuel
/// exhaustions, a VM switchlet is quarantined and the data plane rolled
/// back to its last-known-good tier.
pub const WATCHDOG_TRAPS: u32 = 3;

fn service_token(epoch: u8) -> TimerToken {
    TimerToken(KIND_SERVICE << 56 | (epoch as u64) << 48)
}

fn switchlet_token(epoch: u8, slot: usize, user: u32) -> TimerToken {
    debug_assert!(slot <= 0xFFFF, "switchlet slot overflows its token bits");
    TimerToken(KIND_SWITCHLET << 56 | (epoch as u64) << 48 | (slot as u64) << 32 | user as u64)
}

fn vm_timer_token(epoch: u8, idx: usize) -> TimerToken {
    TimerToken(KIND_VM_TIMER << 56 | (epoch as u64) << 48 | idx as u64)
}

fn storm_token(epoch: u8, port: usize, class: usize) -> TimerToken {
    debug_assert!(port <= 0xFFFF, "storm port overflows its token bits");
    TimerToken(KIND_STORM << 56 | (epoch as u64) << 48 | (class as u64) << 16 | port as u64)
}

/// Runtime state of one storm-control token bucket (one per armed
/// port-class). Volatile: dies with a crash like the rest of the plane.
#[derive(Copy, Clone)]
struct StormBucket {
    /// Nano-tokens remaining (one admitted frame spends [`NANO_PER_FRAME`]).
    tokens_nano: u64,
    /// Last refill instant.
    last: netsim::SimTime,
    /// Consecutive over-budget drops since the last admitted frame; at
    /// the configured trip count the port-class is suppressed.
    strikes: u32,
    /// Suppressed until the hold-down timer releases it.
    suppressed: bool,
}

/// A frame on the bridge's data path: the parsed Ethernet view together
/// with the refcounted buffer it was parsed from. Accessors come from
/// [`Frame`] via `Deref`; [`DataFrame::share`] hands out the shared buffer
/// so forwarding a frame is a refcount bump, never a copy (the paper's
/// bridges must not modify frames, so sharing is always safe).
pub struct DataFrame<'a> {
    buf: &'a FrameBuf,
    view: Frame<'a>,
}

impl<'a> DataFrame<'a> {
    /// Validate and wrap a received buffer.
    #[inline]
    pub fn parse(buf: &'a FrameBuf) -> Result<DataFrame<'a>, ether::FrameError> {
        Ok(DataFrame {
            buf,
            view: Frame::parse(buf)?,
        })
    }

    /// A shared handle to the frame contents (refcount bump).
    #[inline]
    pub fn share(&self) -> FrameBuf {
        self.buf.clone()
    }

    /// The parsed Ethernet view.
    #[inline]
    pub fn view(&self) -> &Frame<'a> {
        &self.view
    }
}

impl<'a> std::ops::Deref for DataFrame<'a> {
    type Target = Frame<'a>;
    #[inline]
    fn deref(&self) -> &Frame<'a> {
        &self.view
    }
}

/// Commands a switchlet may queue against the bridge (applied after the
/// switchlet returns).
#[derive(Debug)]
pub enum BridgeCommand {
    /// Suspend a switchlet by name.
    Suspend(String),
    /// Resume a suspended switchlet.
    Resume(String),
    /// Halt a switchlet permanently.
    Stop(String),
    /// Load a switchlet image (native or VM) as if it arrived from the
    /// network.
    LoadImage(Vec<u8>),
    /// Arm a timer for a VM callback.
    VmTimer {
        /// Callback to invoke.
        callback: FuncVal,
        /// Delay.
        after: SimDuration,
        /// Token passed to the callback.
        token: i64,
    },
}

/// The services a native switchlet sees — ports, timers, the shared
/// plane, logging, and `switchctl`.
pub struct BridgeCtx<'a, 'w> {
    /// The underlying simulator context.
    pub sim: &'a mut Ctx<'w>,
    /// The shared forwarding plane (the "access points").
    pub plane: &'a mut Plane,
    /// Bridge configuration.
    pub cfg: &'a BridgeConfig,
    /// The bridge's station address.
    pub mac: MacAddr,
    /// The bridge's loader IP address.
    pub ip: Ipv4Addr,
    /// The bridge's name (for logs).
    pub bridge_name: &'a str,
    slot: usize,
    epoch: u8,
    cmds: &'a mut Vec<BridgeCommand>,
}

impl<'a, 'w> BridgeCtx<'a, 'w> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> netsim::SimTime {
        self.sim.now()
    }

    /// Number of bridge ports.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.plane.num_ports()
    }

    /// Transmit a frame out of `port`. Accepts a [`FrameBuf`] (or
    /// anything convertible); forwarding a received frame via
    /// [`DataFrame::share`] is zero-copy.
    #[inline]
    pub fn send_frame(&mut self, port: PortId, frame: impl Into<FrameBuf>) {
        self.sim.send(port, frame);
    }

    /// Flood `frame`, received on `port`, out of every other forwarding
    /// port, and count it as flooded — or as blocked if no port forwards.
    /// Every port shares one refcounted buffer: the flood copies nothing
    /// (bridges must not modify frames, so sharing is always safe).
    #[inline]
    pub fn flood(&mut self, port: PortId, frame: &DataFrame<'_>) {
        let mut sent = false;
        for p in 0..self.num_ports() {
            if p != port.0 && self.plane.port_flags(p).forward {
                self.send_frame(PortId(p), frame.share());
                sent = true;
            }
        }
        if sent {
            self.plane.stats.flooded += 1;
            self.plane.stats.bytes_forwarded += frame.len() as u64;
        } else {
            self.plane.stats.blocked += 1;
        }
    }

    /// Schedule a timer for this switchlet; `user` comes back in
    /// `on_timer`.
    pub fn schedule(&mut self, after: SimDuration, user: u32) -> TimerHandle {
        let slot = self.slot;
        self.sim
            .schedule(after, switchlet_token(self.epoch, slot, user))
    }

    /// Cancel a previously scheduled timer.
    pub fn cancel(&mut self, handle: TimerHandle) {
        self.sim.cancel(handle);
    }

    /// Append a log line attributed to this bridge. Pass
    /// `format_args!(…)`: the line is formatted only if the world's trace
    /// is enabled.
    pub fn log(&mut self, msg: std::fmt::Arguments<'_>) {
        self.sim
            .trace(format_args!("{}: {}", self.bridge_name, msg));
    }

    /// Queue a `switchctl` command.
    pub fn command(&mut self, cmd: BridgeCommand) {
        self.cmds.push(cmd);
    }
}

/// A native switchlet: the Rust-implemented counterpart of a Caml
/// switchlet, loaded through the same image format, digest checks and
/// lifecycle (see DESIGN.md §1 for the substitution rationale).
pub trait NativeSwitchlet: Any {
    /// The switchlet's unit name.
    fn name(&self) -> &'static str;
    /// Evaluated at load time (the "registration" forms).
    fn on_install(&mut self, _bc: &mut BridgeCtx<'_, '_>) {}
    /// The switchlet was suspended by `switchctl`.
    fn on_suspend(&mut self, _bc: &mut BridgeCtx<'_, '_>) {}
    /// The switchlet was resumed.
    fn on_resume(&mut self, _bc: &mut BridgeCtx<'_, '_>) {}
    /// A frame whose destination address this switchlet registered for.
    fn on_registered_frame(
        &mut self,
        _bc: &mut BridgeCtx<'_, '_>,
        _port: PortId,
        _frame: &DataFrame<'_>,
    ) {
    }
    /// Invoked when this switchlet is the installed switching function.
    fn switch_frame(&mut self, _bc: &mut BridgeCtx<'_, '_>, _port: PortId, _frame: &DataFrame<'_>) {
    }
    /// A timer scheduled via [`BridgeCtx::schedule`] fired.
    fn on_timer(&mut self, _bc: &mut BridgeCtx<'_, '_>, _user: u32) {}
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Parameters handed to a native switchlet factory.
pub struct NativeInit<'a> {
    /// Bridge configuration.
    pub cfg: &'a BridgeConfig,
    /// Bridge station address.
    pub mac: MacAddr,
    /// Port count.
    pub n_ports: usize,
}

/// Creates a native switchlet instance.
pub type NativeFactory = Box<dyn Fn(&NativeInit<'_>) -> Box<dyn NativeSwitchlet>>;

thread_local! {
    /// The carrier image of each native switchlet name this thread has
    /// boot-loaded: an empty module is a function of its name alone.
    static CARRIERS: RefCell<Vec<(String, Rc<[u8]>)>> = const { RefCell::new(Vec::new()) };
}

/// The empty carrier module for native switchlet `name`, encoded (and
/// digested) once per name and thread. Every bridge that boots it still
/// decodes and digest-checks the bytes like any other image.
fn carrier_image(name: &str) -> Rc<[u8]> {
    CARRIERS.with_borrow_mut(|carriers| {
        if let Some((_, image)) = carriers.iter().find(|(n, _)| n == name) {
            return Rc::clone(image);
        }
        let image: Rc<[u8]> = switchlet::ModuleBuilder::new(name).build().encode().into();
        carriers.push((name.to_owned(), Rc::clone(&image)));
        image
    })
}

enum SwitchletImpl {
    Native(Box<dyn NativeSwitchlet>),
    /// A VM module; its handlers live in `vm_handlers`.
    Vm,
}

/// Which `NativeSwitchlet` entry point a dispatch invokes.
#[derive(Copy, Clone)]
enum DispatchEntry {
    /// `on_registered_frame` (address-registered handlers).
    Registered,
    /// `switch_frame` (the installed switching function).
    Switch,
}

/// The Active Bridge node.
pub struct BridgeNode {
    name: String,
    mac: MacAddr,
    ip: Ipv4Addr,
    cfg: BridgeConfig,
    service: ServiceQueue<(PortId, FrameBuf)>,
    plane: Plane,
    /// Loaded switchlets, indexed by the plane's directory slot (`None`
    /// where the directory knows a name this bridge never loaded).
    slots: Vec<Option<SwitchletImpl>>,
    ns: Namespace,
    vm_handlers: HashMap<String, FuncVal>,
    vm_owner: FastMap<FuncVal, Rc<str>>,
    vm_timers: Vec<(FuncVal, i64)>,
    /// Factories registered over the built-in ones (usually none).
    factories: Vec<(String, NativeFactory)>,
    boot_images: Vec<Rc<[u8]>>,
    cmds: Vec<BridgeCommand>,
    /// Reusable VM stack/locals arena, made at the first VM call (a
    /// native-only bridge never needs one): steady-state switchlet
    /// execution allocates nothing.
    vm_scratch: Option<VmScratch>,
    /// The module that owns the data plane's VM handler — the identity its
    /// host calls act under — re-read whenever the plane's data target is
    /// resolved and valid as long as that is kept (`None` until a VM
    /// handler is the target; not meaningful while anything else is).
    /// Read by `dispatch_target` for `DispatchEntry::Switch` only.
    plane_owner: Option<Rc<str>>,
    /// Crash epoch, stamped into every timer token so timers armed before
    /// a crash die with the state they referred to.
    epoch: u8,
    /// Watchdog: traps/fuel exhaustions per VM module since boot.
    trap_counts: HashMap<String, u32>,
    /// Modules the watchdog quarantined (never re-dispatched this epoch).
    quarantined: HashSet<String>,
    /// Storm-control buckets, `[broadcast, unknown-unicast]` per port,
    /// lazily materialized at first policed arrival. Volatile.
    storm: Vec<[Option<StormBucket>; 2]>,
}

impl BridgeNode {
    /// Create a bridge. `n_ports` must match the number of segments the
    /// scenario attaches it to.
    pub fn new(
        name: impl Into<String>,
        mac: MacAddr,
        ip: Ipv4Addr,
        n_ports: usize,
        cfg: BridgeConfig,
    ) -> BridgeNode {
        let plane = Self::fresh_plane(n_ports, &cfg);
        BridgeNode {
            name: name.into(),
            mac,
            ip,
            cfg,
            service: ServiceQueue::new(INPUT_QUEUE),
            plane,
            slots: Vec::new(),
            ns: Namespace::sharing(hostmods::shared_env()),
            vm_handlers: HashMap::new(),
            vm_owner: FastMap::default(),
            vm_timers: Vec::new(),
            factories: Vec::new(),
            boot_images: Vec::new(),
            cmds: Vec::new(),
            vm_scratch: None,
            plane_owner: None,
            epoch: 0,
            trap_counts: HashMap::new(),
            quarantined: HashSet::new(),
            storm: Vec::new(),
        }
    }

    /// An empty plane bounded as `cfg` says: what a bridge boots with,
    /// and what a crash leaves it with. Its learning table holds nothing
    /// until a station is heard, and grows with the stations heard.
    fn fresh_plane(n_ports: usize, cfg: &BridgeConfig) -> Plane {
        let mut plane = Plane::new(n_ports, cfg.learn_age);
        plane.learn.set_bounds(cfg.learn_cap, cfg.learn_port_quota);
        plane
    }

    /// The boot loader: load the "disk" images in order. They are
    /// retained (not drained) so a crash-restart replays the same cold
    /// boot against the fresh state `on_crash` left behind.
    fn cold_boot(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.boot_images.len() {
            let image = Rc::clone(&self.boot_images[i]);
            self.load_image(ctx, &image);
            self.apply_cmds(ctx);
        }
    }

    /// Queue a switchlet image for the boot loader ("the initial loader
    /// can only load switchlets from disk"). Loaded in order at start.
    pub fn boot_load(&mut self, image: Vec<u8>) {
        self.boot_images.push(image.into());
    }

    /// Convenience: boot-load a native switchlet by name (wraps it in an
    /// empty carrier module).
    pub fn boot_load_native(&mut self, name: &str) {
        self.boot_images.push(carrier_image(name));
    }

    /// The bridge's station address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The bridge's loader IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Forwarding-plane access (for tests and experiment harnesses).
    pub fn plane(&self) -> &Plane {
        &self.plane
    }

    /// Mutable plane access (experiment setup).
    pub fn plane_mut(&mut self) -> &mut Plane {
        &mut self.plane
    }

    /// Register an additional native factory (e.g. defect-injected
    /// variants for the fallback experiment).
    pub fn register_factory(&mut self, name: &str, factory: NativeFactory) {
        self.factories.retain(|(n, _)| n != name);
        self.factories.push((name.to_owned(), factory));
    }

    /// Is there a native implementation of `name` on this bridge's disk?
    fn has_factory(&self, name: &str) -> bool {
        self.factories.iter().any(|(n, _)| n == name)
            || crate::switchlets::default_factory(name).is_some()
    }

    /// A fresh instance of `name`'s native implementation: a registered
    /// factory's if there is one, else the built-in.
    fn build_native(&self, name: &str) -> Option<Box<dyn NativeSwitchlet>> {
        let init = NativeInit {
            cfg: &self.cfg,
            mac: self.mac,
            n_ports: self.plane.num_ports(),
        };
        match self.factories.iter().find(|(n, _)| n == name) {
            Some((_, factory)) => Some(factory(&init)),
            None => crate::switchlets::default_factory(name).map(|factory| factory(&init)),
        }
    }

    /// The slot `name` is loaded in, if this bridge loaded it.
    fn loaded_slot(&self, name: &str) -> Option<usize> {
        self.plane
            .slot_of(name)
            .filter(|&slot| matches!(self.slots.get(slot), Some(Some(_))))
    }

    /// Enter a freshly loaded switchlet, running, under `name`.
    fn enter_slot(&mut self, name: impl Into<UnitName>, imp: SwitchletImpl) -> usize {
        let slot = self.plane.set_status(name, SwitchletStatus::Running);
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(imp);
        slot
    }

    /// Arm BPDU guard on `ports`. Guard ports differ per bridge even when
    /// the rest of the config is shared, so scenarios call this after
    /// construction; it must run before the world starts (switchlets
    /// snapshot the config when they install at boot).
    pub fn set_bpdu_guard(&mut self, ports: Vec<usize>) {
        self.cfg.bpdu_guard = ports;
    }

    /// The administrative interface: apply a `switchctl` command from
    /// outside the node (the paper: "Programming can be accomplished
    /// out-of-band, through an administrative interface, or in-band").
    /// Call through [`netsim::World::with_ctx`].
    pub fn administer(&mut self, ctx: &mut Ctx<'_>, cmd: BridgeCommand) {
        self.cmds.push(cmd);
        self.apply_cmds(ctx);
    }

    /// Inspect a loaded native switchlet by concrete type.
    pub fn switchlet<S: NativeSwitchlet>(&self, name: &str) -> Option<&S> {
        match self.slots[self.loaded_slot(name)?].as_ref()? {
            SwitchletImpl::Native(b) => b.as_any().downcast_ref::<S>(),
            SwitchletImpl::Vm => None,
        }
    }

    /// Status of a switchlet.
    pub fn switchlet_status(&self, name: &str) -> Option<SwitchletStatus> {
        self.plane.status_of(name)
    }

    /// Start accumulating per-function VM hot counters (call count and
    /// inclusive fuel) on this bridge — the JIT-tier promotion signal.
    /// Idempotent; profiling never changes results, fuel accounting or
    /// `ExecStats`.
    pub fn enable_vm_profile(&mut self) {
        self.vm_scratch
            .get_or_insert_with(VmScratch::new)
            .enable_profile();
    }

    /// The accumulated hot-function profile as
    /// `(module, function, counters)` lines in deterministic
    /// `(instance, func)` order. Empty when profiling was never enabled.
    pub fn hot_functions(&self) -> Vec<(String, String, switchlet::FuncHotCounters)> {
        let Some(profile) = self.vm_scratch.as_ref().and_then(VmScratch::profile) else {
            return Vec::new();
        };
        profile
            .iter()
            .map(|(instance, func, c)| {
                let module = &self.ns.instance(instance).module;
                let fname = module
                    .functions
                    .get(func as usize)
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| format!("fn{func}"));
                (module.name.clone(), fname, c)
            })
            .collect()
    }

    // ---------------------------------------------------------- dispatch

    #[inline]
    fn with_slot(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: usize,
        f: impl FnOnce(&mut dyn NativeSwitchlet, &mut BridgeCtx<'_, '_>),
    ) {
        // A VM module's handlers live in `vm_handlers`, not here.
        let Some(Some(SwitchletImpl::Native(native))) = self.slots.get_mut(idx) else {
            return;
        };
        let mut bc = BridgeCtx {
            sim: ctx,
            plane: &mut self.plane,
            cfg: &self.cfg,
            mac: self.mac,
            ip: self.ip,
            bridge_name: &self.name,
            slot: idx,
            epoch: self.epoch,
            cmds: &mut self.cmds,
        };
        f(native.as_mut(), &mut bc);
    }

    /// The module that registered VM callable `fv` ("" when unknown).
    fn owner_of(&self, fv: FuncVal) -> Rc<str> {
        self.vm_owner.get(&fv).cloned().unwrap_or_default()
    }

    /// Run VM callable `target` on behalf of module `owner`, and hand
    /// `owner` back.
    fn call_vm(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: FuncVal,
        owner: Rc<str>,
        args: impl IntoIterator<Item = Value>,
    ) -> Rc<str> {
        ctx.probe(|node| ProbeRecord::ExecBegin { node });
        let mut env = hostmods::HostEnv {
            sim: ctx,
            plane: &mut self.plane,
            cmds: &mut self.cmds,
            vm_handlers: &mut self.vm_handlers,
            vm_owner: &mut self.vm_owner,
            mac: self.mac,
            bridge_name: &self.name,
            module_name: owner,
        };
        let outcome = switchlet::call_scratch(
            &self.ns,
            &mut env,
            target,
            args,
            &VM_EXEC,
            self.vm_scratch.get_or_insert_with(VmScratch::new),
        );
        let owner = env.module_name;
        // A trapped invocation records no cost.
        let (fuel, host_calls) = match &outcome {
            Ok((_, stats)) => (stats.instructions, stats.host_calls),
            Err(_) => (0, 0),
        };
        ctx.probe(|node| ProbeRecord::ExecEnd {
            node,
            fuel,
            host_calls,
        });
        match outcome {
            Ok((_, stats)) => self.plane.stats.vm_instructions += stats.instructions,
            Err(e) => {
                // Contained: the switchlet invocation failed, the bridge
                // carries on (the paper's "protect itself from some
                // algorithmic failures").
                ctx.trace(format_args!("{}: vm switchlet trapped: {e}", self.name));
                ctx.bump("bridge.vm_traps", 1);
                self.watchdog_trap(ctx, &owner);
            }
        }
        owner
    }

    // ----------------------------------------------------------- watchdog

    /// Record one trap against a VM module; at [`WATCHDOG_TRAPS`] the
    /// watchdog quarantines it (see [`BridgeNode::quarantine`]).
    fn watchdog_trap(&mut self, ctx: &mut Ctx<'_>, module: &Rc<str>) {
        if module.is_empty() || self.quarantined.contains(&**module) {
            return;
        }
        let count = self.trap_counts.entry(module.to_string()).or_insert(0);
        *count += 1;
        if *count >= WATCHDOG_TRAPS {
            self.quarantine(ctx, module);
        }
    }

    /// Quarantine a repeatedly-trapping module: stop it, release its port
    /// bindings and handlers, and — if it held the data plane — roll back
    /// to the last-known-good switching function, or to dumb flood
    /// forwarding as the final degraded tier, so traffic keeps flowing.
    fn quarantine(&mut self, ctx: &mut Ctx<'_>, module: &Rc<str>) {
        self.quarantined.insert(module.to_string());
        // Stopping it forgets every kept target, and nothing below
        // resolves one: no resolution outlives the handlers dropped next.
        self.plane
            .set_status(Rc::clone(module), SwitchletStatus::Stopped);
        self.plane.unbind_all(module);
        // Drop every handler the module registered: a quarantined
        // switchlet must never run again, on any path.
        let doomed: Vec<FuncVal> = self
            .vm_owner
            .iter()
            .filter(|&(_, owner)| **owner == **module)
            .map(|(&fv, _)| fv)
            .collect();
        self.vm_handlers.retain(|_, fv| !doomed.contains(fv));
        for fv in &doomed {
            self.vm_owner.remove(fv);
        }
        if self.sel_is_quarantined(&self.plane.data_plane().clone()) {
            // `None` (the bare-loader state) is not a known-good plane:
            // rolling back to it would blackhole traffic.
            let rollback = self
                .plane
                .prev_data_plane()
                .cloned()
                .filter(|sel| *sel != DataPlaneSel::None && !self.sel_is_quarantined(sel));
            match rollback {
                Some(sel) => {
                    ctx.trace(format_args!(
                        "{}: watchdog rollback to last-known-good plane",
                        self.name
                    ));
                    self.plane.set_data_plane(sel);
                }
                None => {
                    ctx.trace(format_args!(
                        "{}: watchdog fallback to dumb flood forwarding",
                        self.name
                    ));
                    use crate::switchlets::dumb;
                    if let Some(slot) = self.loaded_slot(dumb::NAME) {
                        // Already loaded (install_native would no-op):
                        // revive and reinstall it directly.
                        self.plane.set_slot_status(slot, SwitchletStatus::Running);
                        self.plane.set_data_plane(DataPlaneSel::Native(dumb::NAME));
                    } else {
                        self.install_native(ctx, dumb::NAME);
                    }
                }
            }
        }
        ctx.bump("bridge.quarantines", 1);
        ctx.probe(|node| ProbeRecord::Quarantine { node });
        ctx.trace(format_args!("{}: watchdog quarantined {module}", self.name));
    }

    /// Does this data-plane selection belong to a quarantined module? A
    /// VM handler whose owner is unknown (already evicted) counts as
    /// quarantined — it must not be rolled back to.
    fn sel_is_quarantined(&self, sel: &DataPlaneSel) -> bool {
        match sel {
            DataPlaneSel::None => false,
            DataPlaneSel::Native(name) => self.quarantined.contains(*name),
            DataPlaneSel::Vm(fv) => self
                .vm_owner
                .get(fv)
                .is_none_or(|owner| self.quarantined.contains(&**owner)),
        }
    }

    /// Has the watchdog quarantined this module?
    pub fn is_quarantined(&self, module: &str) -> bool {
        self.quarantined.contains(module)
    }

    /// Resolve a handler name to an invocable target without holding (or
    /// cloning) any borrowed strings — the hot path must not allocate.
    /// Reads a slot's status and `vm_handlers`, nothing else.
    fn resolve_handler(
        vm_handlers: &HashMap<String, FuncVal>,
        plane: &Plane,
        name: &str,
    ) -> HandlerTarget {
        if let Some(key) = name.strip_prefix("vm:") {
            return match vm_handlers.get(key) {
                Some(&fv) => HandlerTarget::Vm(fv),
                None => HandlerTarget::None,
            };
        }
        match plane.slot_of(name) {
            Some(slot) if plane.slot_running(slot) => HandlerTarget::Native(slot),
            _ => HandlerTarget::None,
        }
    }

    /// What the handler registered for `addr` resolves to, if one is: in
    /// steady state a BPDU or a loader frame costs the scan that finds
    /// the registration and a compare ([`Plane::addr_target`]).
    #[inline]
    fn registered_target(&mut self, addr: MacAddr) -> Option<HandlerTarget> {
        let vm_handlers = &self.vm_handlers;
        self.plane.addr_target(addr, |plane, name| {
            Self::resolve_handler(vm_handlers, plane, name)
        })
    }

    /// Invoke a resolved target with one frame: VM handlers get a handle
    /// on the received buffer as their `str` argument (VM strings and
    /// frames are one representation, so the boundary copies nothing),
    /// native switchlets get the already-parsed [`DataFrame`] view (frames
    /// are parsed once per arrival, in [`BridgeNode::process_frame`]).
    /// `entry` selects which trait method the native path calls.
    fn dispatch_target(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: HandlerTarget,
        port: PortId,
        frame: &DataFrame<'_>,
        entry: DispatchEntry,
    ) {
        match target {
            HandlerTarget::Vm(fv) => {
                // The data plane's owner was resolved with the target: it
                // is lent to the call and put back, not shared per frame.
                let owner = match entry {
                    DispatchEntry::Switch => self.plane_owner.take().unwrap_or_default(),
                    DispatchEntry::Registered => self.owner_of(fv),
                };
                let args = [Value::Str(frame.share()), Value::Int(port.0 as i64)];
                let owner = self.call_vm(ctx, fv, owner, args);
                if let DispatchEntry::Switch = entry {
                    self.plane_owner = Some(owner);
                }
            }
            HandlerTarget::Native(idx) => {
                self.with_slot(ctx, idx, |s, bc| match entry {
                    DispatchEntry::Registered => s.on_registered_frame(bc, port, frame),
                    DispatchEntry::Switch => s.switch_frame(bc, port, frame),
                });
            }
            HandlerTarget::None => {}
        }
    }

    fn dispatch_registered(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: HandlerTarget,
        port: PortId,
        frame: &DataFrame<'_>,
    ) {
        self.dispatch_target(ctx, target, port, frame, DispatchEntry::Registered);
    }

    fn dispatch_data_plane(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &DataFrame<'_>) {
        // Resolve the switching function — and for a VM one its owner —
        // only when the plane has forgotten the last answer: in steady
        // state this is a load, not hash lookups per frame.
        let (vm_handlers, vm_owner) = (&self.vm_handlers, &self.vm_owner);
        let plane_owner = &mut self.plane_owner;
        let target = self.plane.data_target(|plane| {
            let t = match plane.data_plane() {
                DataPlaneSel::None => HandlerTarget::None,
                DataPlaneSel::Native(name) => Self::resolve_handler(vm_handlers, plane, name),
                DataPlaneSel::Vm(fv) => HandlerTarget::Vm(*fv),
            };
            if let HandlerTarget::Vm(fv) = t {
                *plane_owner = Some(vm_owner.get(&fv).cloned().unwrap_or_default());
            }
            t
        });
        if matches!(target, HandlerTarget::None) {
            self.plane.stats.no_plane += 1;
            return;
        }
        self.dispatch_target(ctx, target, port, frame, DispatchEntry::Switch);
    }

    /// The demultiplexer (Figure 5 step 4 entry): address-registered
    /// handlers first, then the switching function.
    fn process_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.process_frame_view(ctx, port, &frame);
        // Every egress took its own handle. On a LAN whose stations
        // filter, the bridge is handed the wire frame's only reference,
        // so a frame it kept to itself (filtered, policed, consumed by a
        // handler) goes back to the thread's pool here.
        frame.recycle();
    }

    fn process_frame_view(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf) {
        // One parse per arrival; every consumer below shares the view.
        let Ok(parsed) = DataFrame::parse(frame) else {
            return;
        };
        let (dst, ethertype) = (parsed.dst(), parsed.ethertype());
        if let Some(target) = self.registered_target(dst) {
            self.plane.stats.registered += 1;
            self.dispatch_registered(ctx, target, port, &parsed);
            self.apply_cmds(ctx);
            return;
        }
        // The loader endpoint also hears broadcast ARP (hosts resolving
        // the bridge's loader address); the frame is still bridged.
        if dst.is_broadcast() && ethertype == EtherType::ARP {
            if let Some(target) = self.registered_target(self.mac) {
                self.plane.stats.to_loader += 1;
                self.dispatch_registered(ctx, target, port, &parsed);
            }
        }
        // Storm control polices flooded classes ahead of the switching
        // function: a dropped frame is never switched and never learned.
        if self.police_frame(ctx, port, &parsed) {
            self.apply_cmds(ctx);
            return;
        }
        self.dispatch_data_plane(ctx, port, &parsed);
        self.apply_cmds(ctx);
    }

    /// The storm-control stage: deterministic per-port token buckets for
    /// broadcast/multicast and unknown-unicast ingress. Returns `true`
    /// when the frame must be dropped (port-class suppressed, or over
    /// budget). Known unicast exits on one learned port — it cannot
    /// storm — and is never policed.
    fn police_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &DataFrame<'_>) -> bool {
        if self.cfg.storm_broadcast.is_none() && self.cfg.storm_unknown.is_none() {
            return false;
        }
        let now = ctx.now();
        let dst = frame.dst();
        let (class, class_cfg) = if dst.is_multicast() {
            (STORM_BROADCAST, self.cfg.storm_broadcast)
        } else if self.plane.learn.peek(dst, now) {
            return false;
        } else {
            (STORM_UNKNOWN, self.cfg.storm_unknown)
        };
        let Some(scfg) = class_cfg else {
            return false;
        };
        if self.storm.len() <= port.0 {
            self.storm.resize(port.0 + 1, [None; 2]);
        }
        let bucket = self.storm[port.0][class].get_or_insert(StormBucket {
            tokens_nano: scfg.burst.saturating_mul(NANO_PER_FRAME),
            last: now,
            strikes: 0,
            suppressed: false,
        });
        if bucket.suppressed {
            return true;
        }
        let elapsed = now.saturating_since(bucket.last).as_ns();
        bucket.last = now;
        bucket.tokens_nano = bucket
            .tokens_nano
            .saturating_add(elapsed.saturating_mul(scfg.rate_pps))
            .min(scfg.burst.saturating_mul(NANO_PER_FRAME));
        if bucket.tokens_nano >= NANO_PER_FRAME {
            bucket.tokens_nano -= NANO_PER_FRAME;
            bucket.strikes = 0;
            return false;
        }
        bucket.strikes += 1;
        if bucket.strikes >= scfg.trip {
            bucket.suppressed = true;
            bucket.strikes = 0;
            self.suppress_port_class(ctx, port, class, scfg.hold_down);
        }
        true
    }

    /// A storm-control bucket tripped: count it, arm the hold-down timer
    /// and say so. Out of line: 136 of `defended_mix`'s 9.2 M policed
    /// arrivals and 234 of `sweep_render`'s 0.46 M trip a bucket.
    #[cold]
    fn suppress_port_class(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        class: usize,
        hold_down: SimDuration,
    ) {
        self.plane.stats.storm_suppressions += 1;
        ctx.bump("bridge.storm_suppressions", 1);
        ctx.probe(|node| ProbeRecord::PortSuppressed { node, port });
        ctx.schedule(hold_down, storm_token(self.epoch, port.0, class));
        let cls = if class == STORM_BROADCAST {
            "broadcast"
        } else {
            "unknown-unicast"
        };
        ctx.trace(format_args!(
            "{}: storm control suppressed port {} ({cls})",
            self.name, port.0
        ));
    }

    // ------------------------------------------------------ switchlet mgmt

    fn install_native(&mut self, ctx: &mut Ctx<'_>, name: &str) {
        if self.loaded_slot(name).is_some() {
            ctx.trace(format_args!(
                "{}: switchlet {name} already loaded",
                self.name
            ));
            return;
        }
        let Some(imp) = self.build_native(name) else {
            ctx.trace(format_args!(
                "{}: no native implementation for {name}",
                self.name
            ));
            self.plane.stats.images_rejected += 1;
            return;
        };
        // The directory keeps the switchlet's own static name.
        let unit = imp.name();
        debug_assert_eq!(
            unit, name,
            "a native switchlet loaded as {name} names itself {unit}"
        );
        let idx = self.enter_slot(unit, SwitchletImpl::Native(imp));
        ctx.trace(format_args!("{}: installed switchlet {name}", self.name));
        self.with_slot(ctx, idx, |s, bc| s.on_install(bc));
    }

    fn load_image(&mut self, ctx: &mut Ctx<'_>, image: &[u8]) {
        // Decode first so digest/tamper checks apply to native carriers
        // exactly as to VM modules.
        let module = match Module::decode(image) {
            Ok(m) => m,
            Err(e) => {
                ctx.trace(format_args!("{}: rejected switchlet image: {e}", self.name));
                self.plane.stats.images_rejected += 1;
                return;
            }
        };
        self.plane.stats.images_loaded += 1;
        if module.functions.is_empty() && self.has_factory(&module.name) {
            self.install_native(ctx, &module.name);
            return;
        }
        // A real VM module: link and verify the module decoded above, then
        // run its init.
        let name: Rc<str> = Rc::from(module.name.as_str());
        let linked = self.ns.load_module(module);
        let mut env = hostmods::HostEnv {
            sim: ctx,
            plane: &mut self.plane,
            cmds: &mut self.cmds,
            vm_handlers: &mut self.vm_handlers,
            vm_owner: &mut self.vm_owner,
            mac: self.mac,
            bridge_name: &self.name,
            module_name: Rc::clone(&name),
        };
        match linked.and_then(|id| self.ns.run_init(id, &mut env, &VM_EXEC)) {
            Ok(_) => {
                self.enter_slot(Rc::clone(&name), SwitchletImpl::Vm);
                ctx.trace(format_args!("{}: loaded vm switchlet {name}", self.name));
            }
            Err(e) => {
                self.plane.stats.images_rejected += 1;
                self.plane.stats.images_loaded -= 1;
                ctx.trace(format_args!(
                    "{}: rejected switchlet {name}: {e}",
                    self.name
                ));
                ctx.bump("bridge.load_rejects", 1);
            }
        }
    }

    /// Apply what the switchlet that just returned queued, if anything.
    #[inline]
    fn apply_cmds(&mut self, ctx: &mut Ctx<'_>) {
        if !self.cmds.is_empty() {
            self.apply_queued_cmds(ctx);
        }
    }

    /// Out of line: a frame leaves commands behind on 598 of
    /// `sweep_render`'s 3.8 M dispatches and on none of the other six
    /// workloads'.
    #[cold]
    fn apply_queued_cmds(&mut self, ctx: &mut Ctx<'_>) {
        while !self.cmds.is_empty() {
            let batch: Vec<BridgeCommand> = self.cmds.drain(..).collect();
            for cmd in batch {
                match cmd {
                    BridgeCommand::Suspend(name) => {
                        if let Some(idx) = self.loaded_slot(&name) {
                            if self.plane.slot_running(idx) {
                                self.plane.set_slot_status(idx, SwitchletStatus::Suspended);
                                self.with_slot(ctx, idx, |s, bc| s.on_suspend(bc));
                                ctx.trace(format_args!("{}: suspended {name}", self.name));
                            }
                        }
                    }
                    BridgeCommand::Resume(name) => {
                        if let Some(idx) = self.loaded_slot(&name) {
                            if self.plane.slot_status(idx) == Some(SwitchletStatus::Suspended) {
                                self.plane.set_slot_status(idx, SwitchletStatus::Running);
                                self.with_slot(ctx, idx, |s, bc| s.on_resume(bc));
                                ctx.trace(format_args!("{}: resumed {name}", self.name));
                            }
                        }
                    }
                    BridgeCommand::Stop(name) => {
                        if let Some(idx) = self.loaded_slot(&name) {
                            self.plane.set_slot_status(idx, SwitchletStatus::Stopped);
                            ctx.trace(format_args!("{}: stopped {name}", self.name));
                        }
                    }
                    BridgeCommand::LoadImage(image) => {
                        self.load_image(ctx, &image);
                    }
                    BridgeCommand::VmTimer {
                        callback,
                        after,
                        token,
                    } => {
                        let idx = self.vm_timers.len();
                        self.vm_timers.push((callback, token));
                        ctx.schedule(after, vm_timer_token(self.epoch, idx));
                    }
                }
            }
        }
    }
}

impl Node for BridgeNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn service_queues(&self) -> usize {
        1
    }

    /// One per boot image: a booted switchlet keeps at most one periodic
    /// timer pending (the learning sweep, the spanning-tree tick), and
    /// the loader, which keeps none, leaves room for a storm hold-down.
    fn timers(&self) -> usize {
        self.boot_images.len()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(
            ctx.num_ports(),
            self.plane.num_ports(),
            "bridge {} configured for {} ports but attached to {}",
            self.name,
            self.plane.num_ports(),
            ctx.num_ports()
        );
        self.cold_boot(ctx);
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        // Volatile state dies with the power: the forwarding tables
        // (inside `plane`), STP engine state (inside the
        // STP switchlet instance), queued frames, VM instances and
        // scratch, pending commands, and the watchdog's history. The
        // epoch bump orphans every timer already in flight.
        self.epoch = self.epoch.wrapping_add(1);
        self.service = ServiceQueue::new(INPUT_QUEUE);
        let mut plane = Self::fresh_plane(self.plane.num_ports(), &self.cfg);
        plane.carry_over_crash(&self.plane, ctx.now());
        self.plane = plane;
        self.storm.clear();
        self.slots.clear();
        self.ns = Namespace::sharing(hostmods::shared_env());
        self.vm_handlers.clear();
        self.vm_owner.clear();
        self.vm_timers.clear();
        self.cmds.clear();
        self.trap_counts.clear();
        self.quarantined.clear();
        let profiling = self
            .vm_scratch
            .as_ref()
            .and_then(VmScratch::profile)
            .is_some();
        self.vm_scratch = None;
        if profiling {
            self.enable_vm_profile();
        }
        ctx.trace(format_args!("{}: crashed (volatile state lost)", self.name));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        ctx.trace(format_args!("{}: restarting from boot images", self.name));
        self.cold_boot(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: FrameBuf) {
        self.plane.stats.frames_in += 1;
        let service_time = self.cfg.cost.service_time(frame.len());
        // Null-event elision, as on the host receive path: a zero-cost
        // software path with an idle input queue forwards synchronously
        // instead of bouncing through a zero-delay service timer.
        // Calibrated cost models (the paper's bridges) still serialize
        // through the single-server queue.
        if service_time.is_zero() && self.service.head().is_none() {
            self.process_frame(ctx, port, frame);
            return;
        }
        match self.service.offer((port, frame)) {
            Offer::Started => ctx.schedule_service(service_time, service_token(self.epoch)),
            Offer::Queued => {}
            Offer::Dropped((_, frame)) => {
                self.plane.stats.queue_drops += 1;
                frame.recycle();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if ((token.0 >> 48) & 0xFF) as u8 != self.epoch {
            // Armed before a crash: the queue entry, slot or VM timer it
            // referred to died with the old epoch.
            return;
        }
        let kind = token.0 >> 56;
        match kind {
            KIND_SERVICE => {
                let ((port, frame), next) = self.service.complete();
                if let Some((_, next_frame)) = next {
                    let t = self.cfg.cost.service_time(next_frame.len());
                    ctx.schedule_service(t, service_token(self.epoch));
                }
                self.process_frame(ctx, port, frame);
            }
            KIND_SWITCHLET => {
                let slot = ((token.0 >> 32) & 0xFFFF) as usize;
                let user = (token.0 & 0xFFFF_FFFF) as u32;
                if self.plane.slot_running(slot) {
                    self.with_slot(ctx, slot, |s, bc| s.on_timer(bc, user));
                }
                self.apply_cmds(ctx);
            }
            KIND_VM_TIMER => {
                let idx = (token.0 & 0xFFFF_FFFF) as usize;
                if let Some((fv, user)) = self.vm_timers.get(idx).copied() {
                    self.call_vm(ctx, fv, self.owner_of(fv), [Value::Int(user)]);
                }
                self.apply_cmds(ctx);
            }
            KIND_STORM => {
                let port = (token.0 & 0xFFFF) as usize;
                let class = ((token.0 >> 16) & 0xFF) as usize;
                let scfg = if class == STORM_BROADCAST {
                    self.cfg.storm_broadcast
                } else {
                    self.cfg.storm_unknown
                };
                if let (Some(scfg), Some(bucket)) = (
                    scfg,
                    self.storm
                        .get_mut(port)
                        .and_then(|classes| classes.get_mut(class))
                        .and_then(|slot| slot.as_mut()),
                ) {
                    if bucket.suppressed {
                        // Hold-down expired: re-enable with a full bucket
                        // so a still-running storm re-trips cleanly
                        // instead of flapping per frame.
                        bucket.suppressed = false;
                        bucket.strikes = 0;
                        bucket.tokens_nano = scfg.burst.saturating_mul(NANO_PER_FRAME);
                        bucket.last = ctx.now();
                        ctx.bump("bridge.storm_releases", 1);
                        ctx.probe(|node| ProbeRecord::PortReleased {
                            node,
                            port: PortId(port),
                        });
                        ctx.trace(format_args!(
                            "{}: storm control released port {port}",
                            self.name
                        ));
                    }
                }
            }
            _ => unreachable!("unknown bridge timer kind {kind}"),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostmods::handler_ty;
    use ether::FrameBuilder;
    use netsim::{CostModel, NodeId, SimTime, World};
    use switchlet::{ModuleBuilder, Op, Ty};

    /// A VM data path that shows whom the bridge takes it for. Per frame
    /// it logs `hit` (the host prefixes the owner's name), binds output
    /// port `port` (the plane records the owner's name) and, if `faulty`,
    /// divides by zero.
    fn probe_image(name: &str, port: i64, faulty: bool) -> Vec<u8> {
        let mut mb = ModuleBuilder::new(name);
        let bind = mb.import(
            "unixnet",
            "bind_out",
            Ty::func(vec![Ty::Int], Ty::named("oport")),
        );
        let log = mb.import("log", "msg", Ty::func(vec![Ty::Str], Ty::Unit));
        let reg = mb.import(
            "func",
            "register_handler",
            Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
        );
        let (hit, key) = (mb.intern_str(b"hit"), mb.intern_str(b"switching"));
        let mut f = mb.func("switching", vec![Ty::Str, Ty::Int], Ty::Unit);
        f.op(Op::ConstStr(hit)).op(Op::CallImport(log)).op(Op::Pop);
        f.op(Op::ConstInt(port)).op(Op::CallImport(bind));
        f.op(Op::Pop);
        if faulty {
            f.op(Op::ConstInt(1)).op(Op::ConstInt(0)).op(Op::Div);
            f.op(Op::Pop);
        }
        f.op(Op::ConstUnit).op(Op::Return);
        let handler = mb.finish(f);
        let mut init = mb.func("init", vec![], Ty::Unit);
        init.op(Op::ConstStr(key)).op(Op::FuncConst(handler));
        init.op(Op::CallImport(reg)).op(Op::Return);
        let init = mb.finish(init);
        mb.set_init(init);
        mb.build().encode()
    }

    /// Hand the bridge one data frame on port 0 and return the owner the
    /// host functions acted under: the one named in the `hit` line's
    /// prefix, which must also be who now holds output port `port`.
    fn owner_seen(world: &mut World, bridge: NodeId, port: usize) -> String {
        let frame = FrameBuilder::new(
            MacAddr::local(0x99),
            MacAddr::local(0x98),
            EtherType::EXPERIMENTAL,
        )
        .payload(&[0; 46])
        .build();
        let lines_before = world.trace().find("] hit").count();
        world.with_ctx::<BridgeNode, _>(bridge, |node, ctx| {
            node.on_frame(ctx, PortId(0), frame);
        });
        let line = world
            .trace()
            .find("] hit")
            .nth(lines_before)
            .expect("the data path ran")
            .msg
            .clone();
        let owner = line
            .split_once('[')
            .and_then(|(_, rest)| rest.split_once(']'))
            .expect("a prefixed line")
            .0
            .to_owned();
        // (Unless this was the trap that got the owner quarantined, which
        // releases what it held.)
        let node = world.node::<BridgeNode>(bridge);
        if !node.is_quarantined(&owner) {
            let holder = node.plane().owners_out[port].as_deref();
            assert_eq!(holder, Some(owner.as_str()), "{line}");
        }
        owner
    }

    /// The owner of the VM data path is resolved with the target and kept
    /// with it. Nothing stale may survive what changes it: a hot-swap, a
    /// quarantine with rollback, a crash and restart —
    /// here arranged so that the callable keeps its `FuncVal` while its
    /// owner changes, which is exactly what a stale memo would miss.
    #[test]
    fn the_vm_data_plane_acts_under_its_current_owner() {
        let cfg = BridgeConfig {
            cost: CostModel::FREE,
            ..BridgeConfig::default()
        };
        let mut node = BridgeNode::new("bridge", MacAddr::local(1), Ipv4Addr::LOCALHOST, 4, cfg);
        node.boot_load(probe_image("vm_a", 0, false));
        let mut world = World::new(1);
        let b = world.add_node(node);
        for _ in 0..4 {
            let lan = world.add_segment(Default::default());
            world.attach(b, lan);
        }
        world.run_until(SimTime::from_ms(1));
        let load = |world: &mut World, image: Vec<u8>| {
            world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
                node.administer(ctx, BridgeCommand::LoadImage(image));
            });
        };

        // Steady state, twice: the second frame is served from the memo.
        assert_eq!(owner_seen(&mut world, b, 0), "vm_a");
        assert_eq!(owner_seen(&mut world, b, 0), "vm_a");

        // Hot-swap: a second image takes the data plane.
        load(&mut world, probe_image("vm_b", 1, true));
        assert_eq!(owner_seen(&mut world, b, 1), "vm_b");

        // It traps on every frame; at the threshold the watchdog
        // quarantines it and rolls back to `vm_a`'s handler.
        for _ in 1..WATCHDOG_TRAPS {
            assert_eq!(owner_seen(&mut world, b, 1), "vm_b");
        }
        assert!(world.node::<BridgeNode>(b).is_quarantined("vm_b"));
        assert_eq!(
            world.node::<BridgeNode>(b).plane().owners_out[1],
            None,
            "quarantine released vm_b's binding"
        );
        assert_eq!(owner_seen(&mut world, b, 0), "vm_a");

        // Crash and cold restart: `vm_a` boots again as instance 0. The
        // next image loaded is instance 1, function 0 — the `FuncVal`
        // `vm_b`'s handler had — under another name.
        world.with_ctx::<BridgeNode, _>(b, |node, ctx| {
            node.on_crash(ctx);
            node.on_restart(ctx);
        });
        assert_eq!(owner_seen(&mut world, b, 0), "vm_a");
        load(&mut world, probe_image("vm_c", 2, false));
        assert_eq!(owner_seen(&mut world, b, 2), "vm_c");
        assert_eq!(owner_seen(&mut world, b, 2), "vm_c");
    }

    /// The other half of what `plane.rs`'s tests hold the writers to: on
    /// a running bridge, what a frame resolved stays kept through what
    /// feeds no resolution — the spanning tree's timer deliveries and the
    /// port-flag writes they make, the learning switchlet's sweep timer,
    /// and learns, port moves included.
    #[test]
    fn timers_flags_and_learns_forget_no_kept_target() {
        use crate::switchlets::stp::{config_frame, IEEE_NAME};
        use crate::{BridgeId, ConfigBpdu, StpVariant};
        let cfg = BridgeConfig {
            cost: CostModel::FREE,
            ..BridgeConfig::default()
        };
        let mut node = BridgeNode::new("bridge", MacAddr::local(1), Ipv4Addr::LOCALHOST, 2, cfg);
        node.boot_load_native(crate::switchlets::learning::NAME);
        node.boot_load_native(IEEE_NAME);
        let mut world = World::new(1);
        let b = world.add_node(node);
        for _ in 0..2 {
            let lan = world.add_segment(Default::default());
            world.attach(b, lan);
        }
        world.run_until(SimTime::from_ms(1));
        let hand = |world: &mut World, port: usize, frame: FrameBuf| {
            world.with_ctx::<BridgeNode, _>(b, |node, ctx| node.on_frame(ctx, PortId(port), frame));
        };
        let data = |src: u32, dst: u32| {
            FrameBuilder::new(
                MacAddr::local(dst),
                MacAddr::local(src),
                EtherType::EXPERIMENTAL,
            )
            .payload(&[0; 46])
            .build()
        };
        // Which of [data plane, All Bridges registration] is kept.
        let kept = |world: &mut World| {
            let plane = world.node_mut::<BridgeNode>(b).plane_mut();
            let mut kept = [true; 2];
            plane.data_target(|_| {
                kept[0] = false;
                HandlerTarget::None
            });
            plane.addr_target(MacAddr::ALL_BRIDGES, |_, _| {
                kept[1] = false;
                HandlerTarget::None
            });
            kept
        };

        // One data frame and one (never-winning) BPDU resolve both.
        hand(&mut world, 0, data(0x10, 0x20));
        let me = BridgeId::new(0xFFFF, MacAddr::local(0x77));
        let inferior = ConfigBpdu {
            root: me,
            root_cost: 0,
            bridge: me,
            port: 1,
            message_age: 0,
            max_age: 20,
            hello_time: 2,
            forward_delay: 15,
            tc: false,
            tca: false,
        };
        let bpdu = config_frame(StpVariant::Ieee, me.mac, &inferior);
        hand(&mut world, 1, bpdu);
        assert_eq!(kept(&mut world), [true, true]);

        let (changed_at, learned) = {
            let plane = world.node::<BridgeNode>(b).plane();
            (plane.control_changed_at(), plane.learn.len())
        };
        world.run_until(SimTime::from_secs(70));
        hand(&mut world, 1, data(0x10, 0x20));
        hand(&mut world, 0, data(0x20, 0x10));
        let plane = world.node::<BridgeNode>(b).plane();
        assert!(
            plane.control_changed_at() > changed_at,
            "the tree wrote port flags"
        );
        assert!(plane.learn.len() > learned, "the table learned");
        assert_eq!(kept(&mut world), [true, true]);
    }
}
