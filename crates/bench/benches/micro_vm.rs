//! Microbenchmarks of the switchlet substrate — the real CPU costs of
//! the pieces the paper charges to Caml: per-frame interpretation
//! (their 0.34–0.47 ms on a 166 MHz Pentium), verification, loading,
//! digesting, and the protocol engines.

use active_bridge::switchlets::dumb_vm;
use active_bridge::switchlets::stp::bpdu::{BridgeId, ConfigBpdu};
use active_bridge::switchlets::stp::engine::StpEngine;
use active_bridge::{DecisionCache, LearningTable, StpTimers, Verdict};
use criterion::{criterion_group, criterion_main, Criterion};
use ether::MacAddr;
use netsim::{PortId, SimDuration, SimTime};
use switchlet::{
    call_scratch, md5, verify_module, Env, ExecConfig, HostDispatch, HostModuleSig, HostSlot,
    Module, ModuleBuilder, Namespace, Op, Ty, Value, VmError, VmScratch,
};

/// Host stub for running the VM dumb bridge outside a real bridge node:
/// four ports, like the `vm_forward` workload's bridge.
struct StubNet {
    sent: u64,
}

impl HostDispatch for StubNet {
    fn call_slot(
        &mut self,
        env: &Env,
        slot: HostSlot,
        args: &mut [Value],
    ) -> Result<Value, VmError> {
        let (module, item, _) = env.slot_names(slot);
        match (module, item) {
            ("unixnet", "num_ports") => Ok(Value::Int(4)),
            ("unixnet", "bind_out") => Ok(Value::handle("oport", args[0].as_int() as u64)),
            ("unixnet", "send_pkt_out") => {
                self.sent += 1;
                Ok(Value::Int(args[1].as_str().len() as i64))
            }
            ("func", "register_handler") => Ok(Value::Unit),
            ("log", "msg") => Ok(Value::Unit),
            other => Err(VmError::HostUnavailable(format!("{other:?}"))),
        }
    }
}

fn stub_env() -> Env {
    let mut env = Env::new();
    env.add_module(
        HostModuleSig::new("unixnet")
            .func("num_ports", Ty::func(vec![], Ty::Int))
            .func("bind_out", Ty::func(vec![Ty::Int], Ty::named("oport")))
            .func(
                "send_pkt_out",
                Ty::func(vec![Ty::named("oport"), Ty::Str], Ty::Int),
            ),
    );
    env.add_module(HostModuleSig::new("func").func(
        "register_handler",
        Ty::func(
            vec![Ty::Str, Ty::func(vec![Ty::Str, Ty::Int], Ty::Unit)],
            Ty::Unit,
        ),
    ));
    env.add_module(HostModuleSig::new("log").func("msg", Ty::func(vec![Ty::Str], Ty::Unit)));
    env
}

fn bench(c: &mut Criterion) {
    let image = dumb_vm::build_image();
    let module = Module::decode(&image).unwrap();

    c.bench_function("md5_1KiB", |b| {
        let data = vec![0xA5u8; 1024];
        b.iter(|| md5(&data))
    });

    c.bench_function("module_decode", |b| {
        b.iter(|| Module::decode(&image).unwrap())
    });

    c.bench_function("verify_dumb_vm_module", |b| {
        b.iter(|| verify_module(&module).unwrap())
    });

    c.bench_function("link_dumb_vm_module", |b| {
        b.iter(|| {
            let mut ns = Namespace::new(stub_env());
            ns.load(&image).unwrap()
        })
    });

    // Per-frame interpreted forwarding — the analogue of the paper's
    // "cost per frame within Caml" — entered the way `BridgeNode` enters
    // it: `call_scratch` on a long-lived arena, the frame a shared handle
    // (no copy), the arguments an array (no `Vec`). 77 instructions and 7
    // host calls on four ports; nothing here reaches the allocator, so
    // the reading is the interpreter's.
    {
        let mut ns = Namespace::new(stub_env());
        ns.load(&image).unwrap();
        let (handler, _) = ns.lookup_export("vm_dumb", "switching").unwrap();
        let frame = Value::str(vec![0u8; 1024]);
        let mut host = StubNet { sent: 0 };
        let mut scratch = VmScratch::new();
        let exec = ExecConfig::default();
        c.bench_function("vm_dumb_forward_1024B_frame", |b| {
            b.iter(|| {
                let args = [frame.clone(), Value::Int(0)];
                call_scratch(&ns, &mut host, handler, args, &exec, &mut scratch).unwrap()
            })
        });
    }

    c.bench_function("stp_engine_on_config", |b| {
        let (mut engine, _) = StpEngine::new(
            BridgeId::new(0x8000, MacAddr::local(2)),
            2,
            100,
            StpTimers::default(),
            SimTime::ZERO,
        );
        let cfg = ConfigBpdu {
            root: BridgeId::new(0x8000, MacAddr::local(1)),
            root_cost: 100,
            bridge: BridgeId::new(0x8000, MacAddr::local(1)),
            port: 1,
            message_age: 0,
            max_age: 20,
            hello_time: 2,
            forward_delay: 15,
            tc: false,
            tca: false,
        };
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            engine.on_config(0, &cfg, SimTime::from_ms(t))
        })
    });

    c.bench_function("learning_table_learn_lookup", |b| {
        let mut table = LearningTable::new(SimDuration::from_secs(300));
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let mac = MacAddr::local(i % 512);
            table.learn(mac, PortId((i % 2) as usize), SimTime::from_ms(i as u64));
            table.lookup(mac, SimTime::from_ms(i as u64))
        })
    });

    // ------------------------------------------------ PR 4 execution plane

    // The pre-decoded VM's dispatch loop: a pure arithmetic countdown
    // (sum of 1..=100) dominated by the fused LocalGet/LocalGet/Add,
    // LocalGet/ConstInt/Add and compare+branch superinstructions —
    // ~600 retired source ops per invocation, zero host calls, zero
    // steady-state allocation (arena reuse).
    {
        let mut mb = ModuleBuilder::new("loops");
        let mut f = mb.func("sum", vec![Ty::Int], Ty::Int);
        let acc = f.local(Ty::Int);
        let i = f.local(Ty::Int);
        f.op(Op::ConstInt(0)).op(Op::LocalSet(acc));
        f.op(Op::ConstInt(0)).op(Op::LocalSet(i));
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.op(Op::LocalGet(i)).op(Op::LocalGet(0)).op(Op::Ge);
        f.br_if(exit);
        f.op(Op::LocalGet(acc)).op(Op::LocalGet(i)).op(Op::Add);
        f.op(Op::LocalSet(acc));
        f.op(Op::LocalGet(i)).op(Op::ConstInt(1)).op(Op::Add);
        f.op(Op::LocalSet(i));
        f.jump(head);
        f.place(exit);
        f.op(Op::LocalGet(acc)).op(Op::Return);
        let idx = mb.finish(f);
        mb.export("sum", idx);
        let image = mb.build().encode();
        let mut ns = Namespace::new(Env::new());
        ns.load(&image).unwrap();
        let (fv, _) = ns.lookup_export("loops", "sum").unwrap();
        let mut scratch = VmScratch::new();
        c.bench_function("vm_dispatch_loop_100_iters", |b| {
            b.iter(|| {
                call_scratch(
                    &ns,
                    &mut switchlet::NoHost,
                    fv,
                    vec![Value::Int(100)],
                    &ExecConfig::default(),
                    &mut scratch,
                )
                .unwrap()
            })
        });
    }

    // Slot-indexed host dispatch: a loop making one host call per
    // iteration (50 calls per invocation) — measures the per-call cost of
    // the integer-slot boundary (no name lookup, no argument Vec).
    {
        let mut mb = ModuleBuilder::new("hostcalls");
        let imp = mb.import("unixnet", "num_ports", Ty::func(vec![], Ty::Int));
        let mut f = mb.func("go", vec![Ty::Int], Ty::Int);
        let acc = f.local(Ty::Int);
        let i = f.local(Ty::Int);
        f.op(Op::ConstInt(0)).op(Op::LocalSet(acc));
        f.op(Op::ConstInt(0)).op(Op::LocalSet(i));
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.op(Op::LocalGet(i)).op(Op::LocalGet(0)).op(Op::Ge);
        f.br_if(exit);
        f.op(Op::LocalGet(acc)).op(Op::CallImport(imp)).op(Op::Add);
        f.op(Op::LocalSet(acc));
        f.op(Op::LocalGet(i)).op(Op::ConstInt(1)).op(Op::Add);
        f.op(Op::LocalSet(i));
        f.jump(head);
        f.place(exit);
        f.op(Op::LocalGet(acc)).op(Op::Return);
        let idx = mb.finish(f);
        mb.export("go", idx);
        let image = mb.build().encode();
        let mut ns = Namespace::new(stub_env());
        ns.load(&image).unwrap();
        let (fv, _) = ns.lookup_export("hostcalls", "go").unwrap();
        let mut host = StubNet { sent: 0 };
        let mut scratch = VmScratch::new();
        c.bench_function("vm_host_call_50_calls", |b| {
            b.iter(|| {
                call_scratch(
                    &ns,
                    &mut host,
                    fv,
                    vec![Value::Int(50)],
                    &ExecConfig::default(),
                    &mut scratch,
                )
                .unwrap()
            })
        });
    }

    // Forwarding decision cache: the per-frame probe on a hit (steady
    // unicast flow) and on a miss (generation just bumped).
    {
        let mut cache = DecisionCache::default();
        let (src, dst) = (MacAddr::local(1), MacAddr::local(2));
        let now = SimTime::from_ms(1);
        cache.store(
            PortId(0),
            src,
            dst,
            7,
            SimTime::MAX,
            Verdict::Direct(PortId(1)),
        );
        c.bench_function("fwd_cache_hit", |b| {
            b.iter(|| cache.probe(PortId(0), src, dst, 7, now))
        });
        c.bench_function("fwd_cache_miss_store", |b| {
            let mut gen = 8u64;
            b.iter(|| {
                gen += 1; // stale generation: probe misses, verdict re-stored
                let miss = cache.probe(PortId(0), src, dst, gen, now);
                cache.store(PortId(0), src, dst, gen, SimTime::MAX, Verdict::Flood);
                miss
            })
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
