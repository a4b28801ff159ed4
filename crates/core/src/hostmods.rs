//! The host modules offered to VM switchlets — the paper's Section 5.2.1
//! module set, thinned.
//!
//! [`host_env`] builds the *signatures* (what is nameable); [`HostEnv`]
//! implements the dispatch, addressed by the slot a signature minted.
//! The signatures deliberately leave out functions the paper's Safeunix
//! has (`safeunix.system`, `safeunix.open_file`): no slot exists for
//! them, so no switchlet can link to them — module thinning "leaves the
//! switchlet with no way of naming the excluded function and thus, no
//! way of accessing it". Tests in this module and the integration suite
//! verify that importing them fails at link time.
//!
//! | module    | paper analogue | contents |
//! |-----------|----------------|----------|
//! | `safestd` | Safestd        | string hashing (tables/ints are VM instructions) |
//! | `safeunix`| Safeunix       | time-of-day only — heavily thinned |
//! | `log`     | Log            | message logging (sink is the simulator trace) |
//! | `func`    | Func           | handler registration glue |
//! | `timer`   | (threads)      | event-driven replacement for blocking threads |
//! | `unixnet` | Unixnet (Fig.4)| port binding + raw frame output, first-bind-wins |
//! | `bridgectl` | "access points" | port suppression, learning flush, counters |
//! | `switchctl` | (control's levers) | switchlet lifecycle inspection/control |

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use ether::MacAddr;
use netsim::{Ctx, FastMap, PortId, SimDuration};
use switchlet::{Env, FuncVal, HostDispatch, HostModuleSig, HostSlot, Ty, Value, VmError};

use crate::bridge::BridgeCommand;
use crate::plane::{DataPlaneSel, Plane};

/// The most bytes of a switchlet's string one `log.msg` trace line shows
/// (`crates/switchlet/DESIGN.md` § 4). The rest is counted, not copied.
pub const LOG_LINE_MAX: usize = 256;

/// A `log.msg` argument as its trace line shows it: decoded as
/// `String::from_utf8_lossy` would, cut at a character so that it takes at
/// most [`LOG_LINE_MAX`] bytes, then ` … (+N bytes)` for the N bytes of
/// the argument it left out.
struct LogText<'a>(&'a [u8]);

impl fmt::Display for LogText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const REPLACEMENT: &str = "\u{FFFD}";
        let (mut room, mut shown) = (LOG_LINE_MAX, 0);
        for chunk in self.0.utf8_chunks() {
            let (valid, invalid) = (chunk.valid(), chunk.invalid().len());
            let mut end = valid.len().min(room);
            while !valid.is_char_boundary(end) {
                end -= 1;
            }
            f.write_str(&valid[..end])?;
            room -= end;
            shown += end;
            if end < valid.len() || (invalid > 0 && room < REPLACEMENT.len()) {
                break;
            }
            if invalid > 0 {
                f.write_str(REPLACEMENT)?;
                room -= REPLACEMENT.len();
                shown += invalid;
            }
        }
        match self.0.len() - shown {
            0 => Ok(()),
            left => write!(f, " … (+{left} bytes)"),
        }
    }
}

/// The frame-handler function type: `(frame, in_port) -> unit`.
pub fn handler_ty() -> Ty {
    Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit)
}

/// The timer-callback type: `(token) -> unit`.
pub fn timer_cb_ty() -> Ty {
    Ty::func(vec![Ty::Int], Ty::Unit)
}

/// Build the thinned host environment every bridge offers.
pub fn host_env() -> Env {
    let mut env = Env::new();
    env.add_module(
        HostModuleSig::new("safestd").func("hash_string", Ty::func(vec![Ty::Str], Ty::Int)),
    );
    env.add_module(
        // Heavily thinned: time only. `system` and `open_file` are
        // excluded here, hence unnameable.
        HostModuleSig::new("safeunix").func("gettimeofday", Ty::func(vec![], Ty::Int)),
    );
    env.add_module(HostModuleSig::new("log").func("msg", Ty::func(vec![Ty::Str], Ty::Unit)));
    env.add_module(HostModuleSig::new("func").func(
        "register_handler",
        Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
    ));
    env.add_module(HostModuleSig::new("timer").func(
        "set_timeout",
        Ty::func(vec![Ty::Int, Ty::Int, timer_cb_ty()], Ty::Unit),
    ));
    env.add_module(
        HostModuleSig::new("unixnet")
            .func("num_ports", Ty::func(vec![], Ty::Int))
            .func("bind_in", Ty::func(vec![Ty::Int], Ty::named("iport")))
            .func("bind_out", Ty::func(vec![Ty::Int], Ty::named("oport")))
            .func(
                "iport_to_oport",
                Ty::func(vec![Ty::named("iport")], Ty::named("oport")),
            )
            .func(
                "send_pkt_out",
                Ty::func(vec![Ty::named("oport"), Ty::Str], Ty::Int),
            )
            .func("unbind_in", Ty::func(vec![Ty::named("iport")], Ty::Unit))
            .func("unbind_out", Ty::func(vec![Ty::named("oport")], Ty::Unit)),
    );
    env.add_module(
        HostModuleSig::new("bridgectl")
            .func("register_addr", Ty::func(vec![Ty::Str, Ty::Str], Ty::Unit))
            .func(
                "set_port_forward",
                Ty::func(vec![Ty::Int, Ty::Bool], Ty::Unit),
            )
            .func(
                "set_port_learn",
                Ty::func(vec![Ty::Int, Ty::Bool], Ty::Unit),
            )
            .func("flush_learning", Ty::func(vec![], Ty::Unit))
            .func("counter_bump", Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit)),
    );
    env.add_module(
        HostModuleSig::new("switchctl")
            .func("is_running", Ty::func(vec![Ty::Str], Ty::Bool))
            .func("loaded", Ty::func(vec![Ty::Str], Ty::Bool))
            .func("suspend", Ty::func(vec![Ty::Str], Ty::Unit))
            .func("resume", Ty::func(vec![Ty::Str], Ty::Unit))
            .func("stop", Ty::func(vec![Ty::Str], Ty::Unit)),
    );
    env
}

thread_local! {
    /// This thread's copy of [`host_env`].
    static SHARED_ENV: Rc<Env> = Rc::new(host_env());
}

/// The [`host_env`] every bridge on this thread offers, built once. The
/// offer is a constant — eight module signatures — so a bridge that boots
/// (or reboots after a crash) takes a handle instead of rebuilding it.
/// Per thread, not per process: a world and its bridges live on one
/// thread and hold `Rc`s already, so a sweep worker pays one `Env` and
/// no atomic refcount or lock is shared between workers. Sharing loosens
/// nothing: an `Env` says only what is nameable, and every bridge still
/// links every image against it and dispatches every call itself.
pub(crate) fn shared_env() -> Rc<Env> {
    SHARED_ENV.with(Rc::clone)
}

/// The dispatch side, bound to one bridge during one VM invocation.
pub struct HostEnv<'a, 'w> {
    /// Simulator context.
    pub sim: &'a mut Ctx<'w>,
    /// Shared forwarding plane.
    pub plane: &'a mut Plane,
    /// Bridge command queue.
    pub cmds: &'a mut Vec<BridgeCommand>,
    /// Registered VM handlers (`module.key` → callable). Keys are chosen
    /// by loaded code, so this map keeps the default (keyed) hasher; it
    /// is probed when a handler name is resolved, not per frame.
    pub vm_handlers: &'a mut HashMap<String, FuncVal>,
    /// Callable → owning module (restores identity in callbacks). Names
    /// are interned when the module loads, so per-frame dispatch shares
    /// them instead of copying. Probed per VM-handled registered frame
    /// and per VM timer, keyed by values the linker mints: the fast
    /// deterministic hasher.
    pub vm_owner: &'a mut FastMap<FuncVal, Rc<str>>,
    /// Bridge station address.
    pub mac: MacAddr,
    /// Bridge name (logs).
    pub bridge_name: &'a str,
    /// The module being initialized, or the owner of the running handler
    /// ("" when unknown).
    pub module_name: Rc<str>,
}

fn str_arg(args: &[Value], i: usize) -> String {
    String::from_utf8_lossy(args[i].as_str()).into_owned()
}

/// The host functions of [`host_env`], identified by slot. The paper's
/// per-frame path pays one array-shaped integer match here — no string
/// comparison, no allocation (this is the PR 4 slot-indexed dispatch).
///
/// Variant order mirrors [`host_env`]'s registration order; the
/// `slot_table_matches_env_names` test pins the mapping to the names.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum HostFn {
    HashString,
    GetTimeOfDay,
    LogMsg,
    RegisterHandler,
    SetTimeout,
    NumPorts,
    BindIn,
    BindOut,
    IportToOport,
    SendPktOut,
    UnbindIn,
    UnbindOut,
    RegisterAddr,
    SetPortForward,
    SetPortLearn,
    FlushLearning,
    CounterBump,
    IsRunning,
    Loaded,
    Suspend,
    Resume,
    Stop,
}

/// Map a resolved [`HostSlot`] to its implementation. Total over the
/// slots [`host_env`] can mint; anything else is a wiring bug.
fn host_fn(slot: HostSlot) -> Option<HostFn> {
    use HostFn::*;
    Some(match (slot.module, slot.item) {
        (0, 0) => HashString,
        (1, 0) => GetTimeOfDay,
        (2, 0) => LogMsg,
        (3, 0) => RegisterHandler,
        (4, 0) => SetTimeout,
        (5, 0) => NumPorts,
        (5, 1) => BindIn,
        (5, 2) => BindOut,
        (5, 3) => IportToOport,
        (5, 4) => SendPktOut,
        (5, 5) => UnbindIn,
        (5, 6) => UnbindOut,
        (6, 0) => RegisterAddr,
        (6, 1) => SetPortForward,
        (6, 2) => SetPortLearn,
        (6, 3) => FlushLearning,
        (6, 4) => CounterBump,
        (7, 0) => IsRunning,
        (7, 1) => Loaded,
        (7, 2) => Suspend,
        (7, 3) => Resume,
        (7, 4) => Stop,
        _ => return None,
    })
}

impl HostDispatch for HostEnv<'_, '_> {
    /// Slot-indexed dispatch: the per-frame path through the host
    /// boundary. `args` is the VM's scratch slice; a string argument is a
    /// handle on shared storage, so taking one is a refcount bump.
    ///
    /// The interpreter reaches this through `dyn HostDispatch`, so this is
    /// the one function behind that pointer: `HostEnv::invoke` is
    /// inlined here and the functions a frame calls — `num_ports`,
    /// `bind_out`, `send_pkt_out` — run straight-line in it.
    #[inline]
    fn call_slot(
        &mut self,
        env: &Env,
        slot: HostSlot,
        args: &mut [Value],
    ) -> Result<Value, VmError> {
        let Some(f) = host_fn(slot) else {
            let (m, i, _) = env.slot_names(slot);
            return Err(VmError::HostUnavailable(format!("{m}.{i}")));
        };
        self.invoke(f, args)
    }
}

impl HostEnv<'_, '_> {
    /// The functions a data path calls per frame, and everything else
    /// that neither formats nor allocates; the rest is
    /// [`HostEnv::invoke_rare`].
    #[inline]
    fn invoke(&mut self, f: HostFn, args: &mut [Value]) -> Result<Value, VmError> {
        match f {
            HostFn::HashString => {
                // FNV-1a, stable across runs.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in args[0].as_str().iter() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                Ok(Value::Int((h & 0x7FFF_FFFF_FFFF_FFFF) as i64))
            }
            HostFn::GetTimeOfDay => Ok(Value::Int((self.sim.now().as_ns() / 1_000_000) as i64)),
            HostFn::NumPorts => Ok(Value::Int(self.plane.num_ports() as i64)),
            HostFn::BindIn => {
                let port = args[0].as_int();
                if port < 0 || port as usize >= self.plane.num_ports() {
                    return Err(no_interface());
                }
                if !self.plane.bind_in(port as usize, &self.module_name) {
                    return Err(already_bound());
                }
                Ok(Value::handle("iport", port as u64))
            }
            HostFn::BindOut => {
                let port = args[0].as_int();
                if port < 0 || port as usize >= self.plane.num_ports() {
                    return Err(no_interface());
                }
                if !self.plane.bind_out(port as usize, &self.module_name) {
                    return Err(already_bound());
                }
                Ok(Value::handle("oport", port as u64))
            }
            HostFn::IportToOport => {
                let id = args[0].as_handle("iport");
                Ok(Value::handle("oport", id))
            }
            HostFn::SendPktOut => {
                let id = args[0].as_handle("oport") as usize;
                if id >= self.plane.num_ports() {
                    return Err(no_interface());
                }
                // The data-plane boundary: the frame on the wire is the VM
                // string's own storage (for a forwarded frame, the buffer
                // the sender built).
                let frame = args[1].as_str().clone();
                let len = frame.len();
                self.sim.send(PortId(id), frame);
                Ok(Value::Int(len as i64))
            }
            HostFn::UnbindIn => {
                let port = args[0].as_handle("iport") as usize;
                self.plane.unbind_in(port, &self.module_name);
                Ok(Value::Unit)
            }
            HostFn::UnbindOut => {
                let port = args[0].as_handle("oport") as usize;
                self.plane.unbind_out(port, &self.module_name);
                Ok(Value::Unit)
            }
            HostFn::SetPortForward => {
                let port = args[0].as_int() as usize;
                if port >= self.plane.num_ports() {
                    return Err(no_interface());
                }
                let now = self.sim.now();
                self.plane.set_port_forward(port, args[1].as_bool(), now);
                Ok(Value::Unit)
            }
            HostFn::SetPortLearn => {
                let port = args[0].as_int() as usize;
                if port >= self.plane.num_ports() {
                    return Err(no_interface());
                }
                self.plane.set_port_learn(port, args[1].as_bool());
                Ok(Value::Unit)
            }
            HostFn::FlushLearning => {
                self.plane.learn.flush();
                Ok(Value::Unit)
            }
            HostFn::LogMsg
            | HostFn::RegisterHandler
            | HostFn::SetTimeout
            | HostFn::RegisterAddr
            | HostFn::CounterBump
            | HostFn::IsRunning
            | HostFn::Loaded
            | HostFn::Suspend
            | HostFn::Resume
            | HostFn::Stop => self.invoke_rare(f, args),
        }
    }

    /// The host functions that build a `String`: registration (an image's
    /// init, once a load), logging, timers and the `switchctl` levers. Out
    /// of line, so `call_slot` carries none of their formatting code: on
    /// `vm_forward` (seed 1) a world makes 2 of these calls — the image's
    /// `log.msg` and `register_handler` — beside 179 200 per-frame ones.
    #[cold]
    fn invoke_rare(&mut self, f: HostFn, args: &mut [Value]) -> Result<Value, VmError> {
        match f {
            HostFn::LogMsg => {
                let module = if self.module_name.is_empty() {
                    "vm"
                } else {
                    &*self.module_name
                };
                self.sim.trace(format_args!(
                    "{}: [{module}] {}",
                    self.bridge_name,
                    LogText(args[0].as_str())
                ));
                Ok(Value::Unit)
            }
            HostFn::RegisterHandler => {
                let key = str_arg(args, 0);
                let Value::Func(fv) = args[1] else {
                    return Err(VmError::Host("register_handler expects a function".into()));
                };
                let full = format!("{}.{}", self.module_name, key);
                if self.vm_handlers.insert(full, fv) != Some(fv) {
                    // A `vm:` address registration may have resolved this
                    // key to the callable it named until now.
                    self.plane.forget_targets();
                }
                self.own(fv);
                if key == "switching" {
                    // Convention: registering "switching" installs this
                    // handler as the bridge's switching function —
                    // "this switchlet replaces the switching function".
                    self.plane.set_data_plane(DataPlaneSel::Vm(fv));
                }
                Ok(Value::Unit)
            }
            HostFn::SetTimeout => {
                let ms = args[0].as_int().max(0) as u64;
                let token = args[1].as_int();
                let Value::Func(fv) = args[2] else {
                    return Err(VmError::Host("set_timeout expects a function".into()));
                };
                self.own(fv);
                self.cmds.push(BridgeCommand::VmTimer {
                    callback: fv,
                    after: SimDuration::from_ms(ms),
                    token,
                });
                Ok(Value::Unit)
            }
            HostFn::RegisterAddr => {
                let mac_bytes = args[0].as_str();
                let Some(addr) = MacAddr::from_slice(&mac_bytes[..]) else {
                    return Err(VmError::Host("register_addr: need 6 octets".into()));
                };
                let key = str_arg(args, 1);
                let full = format!("vm:{}.{}", self.module_name, key);
                self.plane.register_addr(addr, full);
                Ok(Value::Unit)
            }
            HostFn::CounterBump => {
                let key = str_arg(args, 0);
                let n = args[1].as_int().max(0) as u64;
                self.sim.bump(&key, n);
                Ok(Value::Unit)
            }
            HostFn::IsRunning => Ok(Value::Bool(self.plane.is_running(&str_arg(args, 0)))),
            HostFn::Loaded => Ok(Value::Bool(self.plane.is_loaded(&str_arg(args, 0)))),
            HostFn::Suspend => {
                self.cmds.push(BridgeCommand::Suspend(str_arg(args, 0)));
                Ok(Value::Unit)
            }
            HostFn::Resume => {
                self.cmds.push(BridgeCommand::Resume(str_arg(args, 0)));
                Ok(Value::Unit)
            }
            HostFn::Stop => {
                self.cmds.push(BridgeCommand::Stop(str_arg(args, 0)));
                Ok(Value::Unit)
            }
            _ => unreachable!("{f:?} is dispatched by `invoke`"),
        }
    }

    /// Record the running module as the owner of callable `fv`. A
    /// callable that changes hands forgets what was resolved under the
    /// old owner (the bridge keeps the data plane's owner with its
    /// target).
    fn own(&mut self, fv: FuncVal) {
        let displaced = self.vm_owner.insert(fv, self.module_name.clone());
        if displaced.is_some_and(|old| old != self.module_name) {
            self.plane.forget_targets();
        }
    }
}

/// The paper's `No_interface` exception. The `String` it carries is built
/// out of line: 0 of `vm_forward`'s host calls fail.
#[cold]
fn no_interface() -> VmError {
    VmError::Host("No_interface".into())
}

/// The paper's `Already_bound` exception (see [`no_interface`]).
#[cold]
fn already_bound() -> VmError {
    VmError::Host("Already_bound".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BridgeConfig, BridgeNode};
    use netsim::{CostModel, SimTime, World};
    use std::net::Ipv4Addr;
    use switchlet::{ModuleBuilder, Op};

    const MARKER: &str = " … (+3840 bytes)";

    #[test]
    fn a_short_log_text_prints_as_lossy_utf8() {
        for text in [
            &b"vm dumb bridge: flooding installed"[..],
            b"",
            b"a\xffb\xc3",
            "é".as_bytes(),
        ] {
            assert_eq!(LogText(text).to_string(), String::from_utf8_lossy(text));
        }
    }

    /// The cut falls on a character, and a replacement character counts
    /// three bytes against the cap and the invalid bytes it stands for
    /// as shown.
    #[test]
    fn a_long_log_text_is_cut_at_a_character() {
        let two_byte = "é".repeat(300);
        let shown = LogText(two_byte.as_bytes()).to_string();
        assert_eq!(shown, format!("{} … (+344 bytes)", "é".repeat(128)));
        let three_byte = "€".repeat(100);
        let shown = LogText(three_byte.as_bytes()).to_string();
        assert_eq!(shown, format!("{} … (+45 bytes)", "€".repeat(85)));
        let invalid = [0xff; 100];
        let shown = LogText(&invalid).to_string();
        assert_eq!(shown, format!("{} … (+15 bytes)", "\u{FFFD}".repeat(85)));
    }

    /// A switchlet whose init logs a 4 KiB string leaves one trace line
    /// whose text is [`LOG_LINE_MAX`] bytes of it and the count of the
    /// rest.
    #[test]
    fn a_logged_line_is_bounded() {
        let mut mb = ModuleBuilder::new("chatty");
        let log = mb.import("log", "msg", Ty::func(vec![Ty::Str], Ty::Unit));
        let text = mb.intern_str(&[b'x'; 4096]);
        let mut init = mb.func("init", vec![], Ty::Unit);
        init.op(Op::ConstStr(text))
            .op(Op::CallImport(log))
            .op(Op::Pop);
        init.op(Op::ConstUnit).op(Op::Return);
        let init = mb.finish(init);
        mb.set_init(init);
        let cfg = BridgeConfig {
            cost: CostModel::FREE,
            ..BridgeConfig::default()
        };
        let mut node = BridgeNode::new("bridge", MacAddr::local(1), Ipv4Addr::LOCALHOST, 2, cfg);
        node.boot_load(mb.build().encode());
        let mut world = World::new(1);
        let b = world.add_node(node);
        for _ in 0..2 {
            let lan = world.add_segment(Default::default());
            world.attach(b, lan);
        }
        world.run_until(SimTime::from_ms(1));
        let lines: Vec<&str> = world.trace().find("[chatty]").map(|e| &*e.msg).collect();
        let [line] = lines[..] else {
            panic!("one log line, got {lines:?}");
        };
        let prefix = "bridge: [chatty] ";
        assert_eq!(
            *line,
            format!("{prefix}{}{MARKER}", "x".repeat(LOG_LINE_MAX))
        );
        assert!(line.len() <= prefix.len() + LOG_LINE_MAX + MARKER.len());
    }

    #[test]
    fn env_exposes_expected_surface() {
        let env = host_env();
        assert!(env.lookup("log", "msg").is_some());
        assert!(env.lookup("unixnet", "send_pkt_out").is_some());
        assert!(env.lookup("switchctl", "is_running").is_some());
    }

    #[test]
    fn thinned_names_are_absent() {
        let env = host_env();
        assert!(env.lookup("safeunix", "system").is_none());
        assert!(env.lookup("safeunix", "open_file").is_none());
        assert!(env.lookup("unixnet", "set_promiscuous").is_none());
    }

    #[test]
    fn handler_type_is_frame_port_to_unit() {
        let env = host_env();
        let (_, ty) = env.lookup("func", "register_handler").unwrap();
        assert_eq!(*ty, Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit));
    }

    /// Run `f` with a dispatcher acting for `module` over `plane`.
    fn with_env<R>(
        plane: &mut Plane,
        module: &str,
        f: impl FnOnce(&mut HostEnv<'_, '_>) -> R,
    ) -> R {
        with_env_maps(
            plane,
            &mut Default::default(),
            &mut Default::default(),
            module,
            f,
        )
    }

    /// [`with_env`] over handler and owner maps that outlive the call.
    fn with_env_maps<R>(
        plane: &mut Plane,
        vm_handlers: &mut HashMap<String, FuncVal>,
        vm_owner: &mut FastMap<FuncVal, Rc<str>>,
        module: &str,
        f: impl FnOnce(&mut HostEnv<'_, '_>) -> R,
    ) -> R {
        let mut world = netsim::World::new(1);
        let node = world.add_node(crate::BridgeNode::new(
            "bridge",
            MacAddr::local(1),
            std::net::Ipv4Addr::LOCALHOST,
            0,
            Default::default(),
        ));
        world.with_ctx::<crate::BridgeNode, _>(node, |_, ctx| {
            f(&mut HostEnv {
                sim: ctx,
                plane,
                cmds: &mut Vec::new(),
                vm_handlers,
                vm_owner,
                mac: MacAddr::local(1),
                bridge_name: "bridge",
                module_name: Rc::from(module),
            })
        })
    }

    /// Keep a data target on `plane` if none is kept; `true` when one
    /// already was.
    fn still_kept(plane: &mut Plane) -> bool {
        let mut kept = true;
        plane.data_target(|_| {
            kept = false;
            crate::plane::HandlerTarget::None
        });
        kept
    }

    /// The bridge keeps the data plane's owner with its target, so a
    /// callable that changes hands (here: a second module arming a timer
    /// with the first one's function) must forget it; re-registering under
    /// the same owner must not.
    #[test]
    fn a_callable_changing_hands_forgets_the_targets() {
        let env = host_env();
        let (set_timeout, _) = env.lookup("timer", "set_timeout").expect("offered");
        let fv = FuncVal::Vm {
            instance: switchlet::InstanceId(0),
            func: 0,
        };
        let mut plane = Plane::new(2, SimDuration::from_secs(300));
        let mut owners = FastMap::default();
        let mut arm = |module: &str, plane: &mut Plane| {
            with_env_maps(
                plane,
                &mut Default::default(),
                &mut owners,
                module,
                |host| {
                    let mut args = [Value::Int(5), Value::Int(0), Value::Func(fv)];
                    host.call_slot(&env, set_timeout, &mut args).expect("arms");
                },
            );
            still_kept(plane)
        };
        still_kept(&mut plane);
        assert!(arm("first", &mut plane), "a new callable displaces no one");
        assert!(arm("first", &mut plane), "same owner again");
        assert!(!arm("second", &mut plane), "the callable changed hands");
        assert_eq!(owners[&fv].as_ref(), "second");
    }

    /// A `vm:` address registration keeps what its handler key resolved
    /// to, so a key that comes to name another callable must forget it;
    /// registering the same one again must not.
    #[test]
    fn a_handler_key_changing_callables_forgets_the_targets() {
        let env = host_env();
        let (register, _) = env.lookup("func", "register_handler").expect("offered");
        let func = |func| FuncVal::Vm {
            instance: switchlet::InstanceId(0),
            func,
        };
        let mut plane = Plane::new(2, SimDuration::from_secs(300));
        let mut handlers = HashMap::new();
        let mut register_as = |fv: FuncVal, plane: &mut Plane| {
            with_env_maps(
                plane,
                &mut handlers,
                &mut Default::default(),
                "unit",
                |host| {
                    let mut args = [Value::str("on_group"), Value::Func(fv)];
                    host.call_slot(&env, register, &mut args)
                        .expect("registers");
                },
            );
            still_kept(plane)
        };
        still_kept(&mut plane);
        assert!(!register_as(func(0), &mut plane), "a new key");
        assert!(register_as(func(0), &mut plane), "the same callable again");
        assert!(!register_as(func(1), &mut plane), "another callable");
        assert_eq!(handlers["unit.on_group"], func(1));
    }

    fn unixnet(host: &mut HostEnv<'_, '_>, item: &str, arg: Value) -> Result<Value, VmError> {
        let env = host_env();
        let (slot, _) = env.lookup("unixnet", item).expect("a unixnet item");
        host.call_slot(&env, slot, &mut [arg])
    }

    #[test]
    fn unbind_releases_only_the_named_port_of_its_owner() {
        let already_bound = Some(VmError::Host("Already_bound".into()));
        let mut plane = Plane::new(2, SimDuration::from_secs(300));
        with_env(&mut plane, "first", |host| {
            let mut bound = |item, port| unixnet(host, item, Value::Int(port)).expect("free port");
            let (in0, _in1) = (bound("bind_in", 0), bound("bind_in", 1));
            let (_out0, out1) = (bound("bind_out", 0), bound("bind_out", 1));
            unixnet(host, "unbind_in", in0).expect("unbinds");
            unixnet(host, "unbind_out", out1).expect("unbinds");
        });
        with_env(&mut plane, "second", |host| {
            // Exactly the two released bindings are free; the other two
            // still belong to the first module.
            let in0 = unixnet(host, "bind_in", Value::Int(0)).expect("released");
            unixnet(host, "bind_out", Value::Int(1)).expect("released");
            assert_eq!(unixnet(host, "bind_in", Value::Int(1)).err(), already_bound);
            assert_eq!(
                unixnet(host, "bind_out", Value::Int(0)).err(),
                already_bound
            );
            // Unbinding a port someone else owns releases nothing.
            unixnet(host, "unbind_in", Value::handle("iport", 1)).expect("a no-op");
            assert_eq!(unixnet(host, "bind_in", Value::Int(1)).err(), already_bound);
            // And input and output bindings are released separately.
            unixnet(host, "unbind_in", in0).expect("unbinds");
        });
        assert_eq!(plane.owners_in[0], None);
        assert_eq!(plane.owners_out[1].as_deref(), Some("second"));
    }

    /// The integer slot table is order-coupled to [`host_env`]; this test
    /// pins every `(module, item)` pair to its `HostFn`, so reordering a
    /// registration without updating [`host_fn`] fails loudly.
    #[test]
    fn slot_table_matches_env_names() {
        use HostFn::*;
        let expected: &[(&str, &str, HostFn)] = &[
            ("safestd", "hash_string", HashString),
            ("safeunix", "gettimeofday", GetTimeOfDay),
            ("log", "msg", LogMsg),
            ("func", "register_handler", RegisterHandler),
            ("timer", "set_timeout", SetTimeout),
            ("unixnet", "num_ports", NumPorts),
            ("unixnet", "bind_in", BindIn),
            ("unixnet", "bind_out", BindOut),
            ("unixnet", "iport_to_oport", IportToOport),
            ("unixnet", "send_pkt_out", SendPktOut),
            ("unixnet", "unbind_in", UnbindIn),
            ("unixnet", "unbind_out", UnbindOut),
            ("bridgectl", "register_addr", RegisterAddr),
            ("bridgectl", "set_port_forward", SetPortForward),
            ("bridgectl", "set_port_learn", SetPortLearn),
            ("bridgectl", "flush_learning", FlushLearning),
            ("bridgectl", "counter_bump", CounterBump),
            ("switchctl", "is_running", IsRunning),
            ("switchctl", "loaded", Loaded),
            ("switchctl", "suspend", Suspend),
            ("switchctl", "resume", Resume),
            ("switchctl", "stop", Stop),
        ];
        let env = host_env();
        // Every registered item maps to the HostFn its name promises.
        let mut count = 0;
        for (mi, m) in env.modules().iter().enumerate() {
            for (ii, item) in m.items.iter().enumerate() {
                let slot = HostSlot {
                    module: mi as u16,
                    item: ii as u16,
                };
                let f = host_fn(slot)
                    .unwrap_or_else(|| panic!("no HostFn for {}.{}", m.name, item.name));
                let (em, ei, ef) = expected
                    .iter()
                    .find(|(em, ei, _)| *em == m.name && *ei == item.name)
                    .copied()
                    .unwrap_or_else(|| panic!("unexpected env item {}.{}", m.name, item.name));
                assert_eq!(f, ef, "{em}.{ei} mapped to the wrong HostFn");
                // And the borrowed-key lookup resolves to the same slot.
                let (looked, _) = env.lookup(&m.name, &item.name).unwrap();
                assert_eq!(looked, slot);
                count += 1;
            }
        }
        assert_eq!(count, expected.len(), "slot table drifted from host_env");
    }
}
