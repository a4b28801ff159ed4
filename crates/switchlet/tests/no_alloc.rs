//! Steady-state execution allocates nothing — counted, not assumed.
//!
//! The bridge calls its VM data path once per frame on a long-lived
//! [`VmScratch`]; after the arena has grown to its high-water mark that
//! call must not reach the allocator. Two handlers are held to it: one
//! that compares a slice of the frame with a string constant in a loop
//! ("is this my MAC" — before PR 18 every such comparison built two
//! `Vec<u8>` keys), and the shipped `dumb_vm` flooder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use switchlet::{
    call_scratch, Env, ExecConfig, FuncVal, HostDispatch, HostSlot, ModuleBuilder, Namespace,
    NoHost, Op, Ty, Value, VmError, VmScratch,
};

thread_local! {
    /// Allocator calls made by this thread (tests run one per thread).
    /// `const`-initialised and without a destructor: reading it never
    /// allocates, so the allocator may.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting `alloc`, `alloc_zeroed` and `realloc` per thread.
struct Counting;

fn note() {
    // A thread that is being torn down has no counter left; nothing here
    // measures it.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a thread-local integer that
// never touches allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// One warm-up call, then 1 000 calls of `handler(frame, 1)` on the same
/// arena: the allocator calls those thousand made.
fn steady_state_allocations(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    handler: FuncVal,
    frame: &framebuf::FrameBuf,
) -> u64 {
    let cfg = ExecConfig::default();
    let mut scratch = VmScratch::new();
    let mut call = |host: &mut dyn HostDispatch| {
        let args = [Value::Str(frame.clone()), Value::Int(1)];
        call_scratch(ns, host, handler, args, &cfg, &mut scratch).expect("the handler runs")
    };
    let warm = call(host);
    let counted = allocations(|| {
        for _ in 0..1_000 {
            let (v, stats) = call(host);
            assert_eq!(stats, warm.1);
            std::hint::black_box(v);
        }
    });
    assert!(
        allocations(|| drop(std::hint::black_box(Vec::<u64>::with_capacity(4)))) > 0,
        "the counting allocator is not installed"
    );
    counted
}

#[test]
fn comparing_strings_allocates_nothing() {
    // handler(frame, port): how many of 8 looks at frame[0..6] find the
    // station address in it — `StrSlice`, a pool constant, `Eq`, a branch.
    let mut mb = ModuleBuilder::new("mine");
    let mac = mb.intern_str(&[0x02, 0, 0, 0, 0, 0x07]);
    let mut f = mb.func("handler", vec![Ty::Str, Ty::Int], Ty::Int);
    let (hits, i) = (f.local(Ty::Int), f.local(Ty::Int));
    f.op(Op::ConstInt(0)).op(Op::LocalSet(hits));
    f.op(Op::ConstInt(0)).op(Op::LocalSet(i));
    let (head, miss, exit) = (f.new_label(), f.new_label(), f.new_label());
    f.place(head);
    f.op(Op::LocalGet(i)).op(Op::ConstInt(8)).op(Op::Ge);
    f.br_if(exit);
    f.op(Op::LocalGet(0))
        .op(Op::ConstInt(0))
        .op(Op::ConstInt(6));
    f.op(Op::StrSlice).op(Op::ConstStr(mac)).op(Op::Eq);
    f.br_if_not(miss);
    f.op(Op::LocalGet(hits)).op(Op::ConstInt(1)).op(Op::Add);
    f.op(Op::LocalSet(hits));
    f.place(miss);
    f.op(Op::LocalGet(i)).op(Op::ConstInt(1)).op(Op::Add);
    f.op(Op::LocalSet(i));
    f.jump(head);
    f.place(exit);
    f.op(Op::LocalGet(hits)).op(Op::Return);
    let idx = mb.finish(f);
    mb.export("handler", idx);
    let mut ns = Namespace::new(Env::new());
    ns.load(&mb.build().encode()).expect("the module links");
    let (handler, _) = ns.lookup_export("mine", "handler").expect("exported");

    let mut mine = vec![0x02, 0, 0, 0, 0, 0x07];
    mine.resize(64, 0xEE);
    let frame = framebuf::FrameBuf::from(mine);
    let cfg = ExecConfig::default();
    let args = [Value::Str(frame.clone()), Value::Int(1)];
    let (hits, _) = switchlet::call(&ns, &mut NoHost, handler, args, &cfg).expect("runs");
    assert_eq!(hits.as_int(), 8, "the comparison compares");
    assert_eq!(
        steady_state_allocations(&ns, &mut NoHost, handler, &frame),
        0
    );
}

/// A four-port host for the flooder: hands out handles, counts sends.
struct FourPorts {
    num_ports: HostSlot,
    bind_out: HostSlot,
    send_pkt_out: HostSlot,
    sent: u64,
}

impl HostDispatch for FourPorts {
    fn call_slot(&mut self, _: &Env, slot: HostSlot, args: &mut [Value]) -> Result<Value, VmError> {
        Ok(if slot == self.num_ports {
            Value::Int(4)
        } else if slot == self.bind_out {
            Value::handle("oport", args[0].as_int() as u64)
        } else if slot == self.send_pkt_out {
            self.sent += 1;
            Value::Int(args[1].as_str().len() as i64)
        } else {
            Value::Unit // the image's init: `log.msg`, `register_handler`
        })
    }
}

#[test]
fn the_dumb_vm_handler_allocates_nothing() {
    use active_bridge::switchlets::dumb_vm;
    let env = active_bridge::hostmods::host_env();
    let slot = |item| env.lookup("unixnet", item).expect("offered").0;
    let mut host = FourPorts {
        num_ports: slot("num_ports"),
        bind_out: slot("bind_out"),
        send_pkt_out: slot("send_pkt_out"),
        sent: 0,
    };
    let mut ns = Namespace::new(env);
    ns.load(&dumb_vm::build_image()).expect("the image links");
    let (handler, _) = ns
        .lookup_export(dumb_vm::NAME, "switching")
        .expect("exported");
    let frame = framebuf::FrameBuf::from(vec![0xAB; 64]);
    assert_eq!(steady_state_allocations(&ns, &mut host, handler, &frame), 0);
    assert_eq!(host.sent, 3 * 1_001, "every call flooded three ports");
}
