//! The dumb-bridge data path, written in switchlet bytecode.
//!
//! This is the reproduction's "real" loadable switchlet: the same flooding
//! behaviour as [`crate::switchlets::dumb::DumbBridge`], but authored with
//! the assembler, shipped as verified byte codes, loaded over TFTP, and
//! executed by the VM per frame. Integration tests check behavioural
//! equivalence against the native implementation. What a frame costs in
//! the VM — 77 source instructions and 7 host calls on a four-port bridge
//! (`switching_costs_77_instructions_and_7_host_calls_on_four_ports`
//! below) — is counted into `BridgeStats::vm_instructions`, the analogue
//! of the paper's 0.47 ms per-frame Caml cost. The simulated clock does
//! not charge that count: a bridge's per-frame processing time is
//! `CostModel::active_bridge_1997`'s flat `proc_frame_ns`, the same for
//! the VM and the native data path.

use switchlet::{ModuleBuilder, Op, Ty};

use crate::hostmods::handler_ty;

/// The module name the image loads under.
pub const NAME: &str = "vm_dumb";

/// Build the loadable image.
pub fn build_image() -> Vec<u8> {
    let mut mb = ModuleBuilder::new(NAME);
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
        Ty::func(vec![oport.clone(), Ty::Str], Ty::Int),
    );
    let i_reg = mb.import(
        "func",
        "register_handler",
        Ty::func(vec![Ty::Str, handler_ty()], Ty::Unit),
    );
    let i_log = mb.import("log", "msg", Ty::func(vec![Ty::Str], Ty::Unit));

    // handler(frame: str, inport: int) -> unit
    let mut f = mb.func("switching", vec![Ty::Str, Ty::Int], Ty::Unit);
    let n = f.local(Ty::Int);
    let p = f.local(Ty::Int);
    f.op(Op::CallImport(i_num)).op(Op::LocalSet(n));
    f.op(Op::ConstInt(0)).op(Op::LocalSet(p));
    let head = f.new_label();
    let next = f.new_label();
    let exit = f.new_label();
    f.place(head);
    // while p < n
    f.op(Op::LocalGet(p)).op(Op::LocalGet(n)).op(Op::Ge);
    f.br_if(exit);
    // skip the arrival port ("all network interfaces except for the one
    // on which it was received")
    f.op(Op::LocalGet(p)).op(Op::LocalGet(1)).op(Op::Eq);
    f.br_if(next);
    f.op(Op::LocalGet(p)).op(Op::CallImport(i_bind));
    f.op(Op::LocalGet(0));
    f.op(Op::CallImport(i_send)).op(Op::Pop);
    f.place(next);
    f.op(Op::LocalGet(p)).op(Op::ConstInt(1)).op(Op::Add);
    f.op(Op::LocalSet(p));
    f.jump(head);
    f.place(exit);
    f.op(Op::ConstUnit).op(Op::Return);
    let handler_idx = mb.finish(f);
    mb.export("switching", handler_idx);

    // init: log a message, then register the switching function.
    let banner = mb.intern_str(b"vm dumb bridge: flooding installed");
    let key = mb.intern_str(b"switching");
    let mut init = mb.func("init", vec![], Ty::Unit);
    init.op(Op::ConstStr(banner))
        .op(Op::CallImport(i_log))
        .op(Op::Pop);
    init.op(Op::ConstStr(key));
    init.op(Op::FuncConst(handler_idx));
    init.op(Op::CallImport(i_reg));
    init.op(Op::Return);
    let init_idx = mb.finish(init);
    mb.set_init(init_idx);

    mb.build().encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchlet::{verify_module, Module};

    #[test]
    fn image_decodes_and_verifies() {
        let image = build_image();
        let module = Module::decode(&image).expect("well-formed image");
        assert_eq!(module.name, NAME);
        verify_module(&module).expect("statically type-safe");
        assert!(module.init.is_some(), "has registration forms");
    }

    #[test]
    fn image_is_deterministic() {
        assert_eq!(build_image(), build_image());
    }

    /// A host with four ports that counts what it is asked to send.
    struct FourPorts {
        sent: Vec<(u64, usize)>,
    }

    impl switchlet::HostDispatch for FourPorts {
        fn call_slot(
            &mut self,
            env: &switchlet::Env,
            slot: switchlet::HostSlot,
            args: &mut [switchlet::Value],
        ) -> Result<switchlet::Value, switchlet::VmError> {
            use switchlet::Value;
            Ok(match env.slot_names(slot) {
                ("unixnet", "num_ports", _) => Value::Int(4),
                ("unixnet", "bind_out", _) => Value::handle("oport", args[0].as_int() as u64),
                ("unixnet", "send_pkt_out", _) => {
                    let len = args[1].as_str().len();
                    self.sent.push((args[0].as_handle("oport"), len));
                    Value::Int(len as i64)
                }
                (module, item, _) => panic!("the handler does not call {module}.{item}"),
            })
        }
    }

    /// What one frame costs in the loaded code on a four-port bridge, by
    /// name: `BridgeStats::vm_instructions` (and so every `sim_digest` of
    /// a VM workload), the time model and the repo benchmark's
    /// `switchlet.instr_per_frame` are this number, so a change to how
    /// fuel is counted fails here and does not pass as a speed-up.
    #[test]
    fn switching_costs_77_instructions_and_7_host_calls_on_four_ports() {
        use switchlet::{call_scratch, ExecConfig, ExecStats, Namespace, Value, VmScratch};
        let mut ns = Namespace::new(crate::hostmods::host_env());
        ns.load(&build_image()).expect("the image links");
        let (handler, _) = ns.lookup_export(NAME, "switching").expect("exported");
        let mut host = FourPorts { sent: Vec::new() };
        let mut scratch = VmScratch::new();
        for round in 1..=3 {
            let args = [Value::str(vec![0xAB; 64]), Value::Int(1)];
            let (_, stats) = call_scratch(
                &ns,
                &mut host,
                handler,
                args,
                &ExecConfig::default(),
                &mut scratch,
            )
            .expect("the handler runs");
            assert_eq!(
                stats,
                ExecStats {
                    instructions: 77,
                    host_calls: 7
                },
                "round {round}"
            );
        }
        // Every port but the arrival port, each time.
        assert_eq!(host.sent, [(0, 64), (2, 64), (3, 64)].repeat(3));
    }
}
