//! The reference interpreter: the original instruction-at-a-time walk of
//! the source [`Op`] stream, kept (test-only) as the semantic oracle for
//! the pre-decoded VM. The `equiv` proptests below run arbitrary verified
//! modules through both interpreters and require identical results,
//! [`ExecStats`], fuel accounting and errors — including exhaustion in
//! the middle of what the decoded VM executes as a fused
//! superinstruction.

use std::rc::Rc;

use crate::bytecode::Op;
use crate::env::{HostDispatch, HostSlot};
use crate::linker::{Namespace, ResolvedImport};
use crate::value::{FuncVal, InstanceId, Value};
use crate::vm::{ExecConfig, ExecStats, VmError};

/// Call a function value with `args` under the reference interpreter.
pub(crate) fn ref_call(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    target: FuncVal,
    args: Vec<Value>,
    cfg: &ExecConfig,
) -> Result<(Value, ExecStats), VmError> {
    let mut stats = ExecStats::default();
    let mut fuel = cfg.fuel;
    let value = dispatch(ns, host, target, args, cfg, &mut fuel, 0, &mut stats)?;
    Ok((value, stats))
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    target: FuncVal,
    mut args: Vec<Value>,
    cfg: &ExecConfig,
    fuel: &mut u64,
    depth: usize,
    stats: &mut ExecStats,
) -> Result<Value, VmError> {
    match target {
        FuncVal::Host { module, item } => {
            stats.host_calls += 1;
            host.call_slot(ns.env(), HostSlot { module, item }, &mut args)
        }
        FuncVal::Vm { instance, func } => {
            exec(ns, host, instance, func, args, cfg, fuel, depth, stats)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec(
    ns: &Namespace,
    host: &mut dyn HostDispatch,
    instance: InstanceId,
    func_idx: u32,
    args: Vec<Value>,
    cfg: &ExecConfig,
    fuel: &mut u64,
    depth: usize,
    stats: &mut ExecStats,
) -> Result<Value, VmError> {
    if depth >= cfg.max_depth {
        return Err(VmError::CallDepthExceeded);
    }
    let inst = ns.instance(instance);
    let module = &inst.module;
    let func = &module.functions[func_idx as usize];
    debug_assert_eq!(args.len(), func.params.len(), "arity mismatch at entry");

    let mut locals = args;
    locals.resize(func.num_slots(), Value::Unit);
    let mut stack: Vec<Value> = Vec::with_capacity(8);
    let mut pc: usize = 0;

    macro_rules! pop {
        () => {
            stack
                .pop()
                .expect("verifier invariant broken: stack underflow")
        };
    }

    loop {
        if *fuel == 0 {
            return Err(VmError::FuelExhausted);
        }
        *fuel -= 1;
        stats.instructions += 1;

        let op = &func.code[pc];
        pc += 1;
        match op {
            Op::ConstUnit => stack.push(Value::Unit),
            Op::ConstBool(b) => stack.push(Value::Bool(*b)),
            Op::ConstInt(i) => stack.push(Value::Int(*i)),
            Op::ConstStr(n) => stack.push(Value::Str(inst.str_consts[*n as usize].clone())),
            Op::LocalGet(n) => stack.push(locals[*n as usize].clone()),
            Op::LocalSet(n) => locals[*n as usize] = pop!(),
            Op::Pop => {
                let _ = pop!();
            }
            Op::Dup => {
                let top = stack.last().expect("verifier invariant broken").clone();
                stack.push(top);
            }
            Op::Add => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                stack.push(Value::Int(a.wrapping_add(b)));
            }
            Op::Sub => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                stack.push(Value::Int(a.wrapping_sub(b)));
            }
            Op::Mul => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                stack.push(Value::Int(a.wrapping_mul(b)));
            }
            Op::Div => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                if b == 0 {
                    return Err(VmError::DivideByZero);
                }
                stack.push(Value::Int(a.wrapping_div(b)));
            }
            Op::Mod => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                if b == 0 {
                    return Err(VmError::DivideByZero);
                }
                stack.push(Value::Int(a.wrapping_rem(b)));
            }
            Op::Neg => {
                let a = pop!().as_int();
                stack.push(Value::Int(a.wrapping_neg()));
            }
            Op::Eq => {
                let b = pop!();
                let a = pop!();
                stack.push(Value::Bool(
                    a.hash_eq(&b).expect("verifier invariant broken: eq"),
                ));
            }
            Op::Ne => {
                let b = pop!();
                let a = pop!();
                stack.push(Value::Bool(
                    !a.hash_eq(&b).expect("verifier invariant broken: ne"),
                ));
            }
            Op::Lt => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                stack.push(Value::Bool(a < b));
            }
            Op::Le => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                stack.push(Value::Bool(a <= b));
            }
            Op::Gt => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                stack.push(Value::Bool(a > b));
            }
            Op::Ge => {
                let b = pop!().as_int();
                let a = pop!().as_int();
                stack.push(Value::Bool(a >= b));
            }
            Op::And => {
                let b = pop!().as_bool();
                let a = pop!().as_bool();
                stack.push(Value::Bool(a && b));
            }
            Op::Or => {
                let b = pop!().as_bool();
                let a = pop!().as_bool();
                stack.push(Value::Bool(a || b));
            }
            Op::Not => {
                let a = pop!().as_bool();
                stack.push(Value::Bool(!a));
            }
            Op::Jump(t) => pc = *t as usize,
            Op::BrIf(t) => {
                if pop!().as_bool() {
                    pc = *t as usize;
                }
            }
            Op::BrIfNot(t) => {
                if !pop!().as_bool() {
                    pc = *t as usize;
                }
            }
            Op::Return => {
                let result = pop!();
                debug_assert!(stack.is_empty(), "verifier invariant broken: dirty return");
                return Ok(result);
            }
            Op::Call(n) => {
                let callee = &module.functions[*n as usize];
                let argc = callee.params.len();
                let call_args = stack.split_off(stack.len() - argc);
                let result = exec(
                    ns,
                    host,
                    instance,
                    *n,
                    call_args,
                    cfg,
                    fuel,
                    depth + 1,
                    stats,
                )?;
                stack.push(result);
            }
            Op::CallImport(n) => {
                let resolved = inst.resolved[*n as usize];
                let target = match resolved {
                    ResolvedImport::Host(slot) => FuncVal::Host {
                        module: slot.module,
                        item: slot.item,
                    },
                    ResolvedImport::Vm { instance, func } => FuncVal::Vm { instance, func },
                };
                let argc = match target {
                    FuncVal::Host { .. } => {
                        let crate::types::Ty::Func(ft) = &module.imports[*n as usize].ty else {
                            unreachable!("linker guarantees function imports")
                        };
                        ft.params.len()
                    }
                    FuncVal::Vm {
                        instance: i,
                        func: f,
                    } => ns.instance(i).module.functions[f as usize].params.len(),
                };
                let call_args = stack.split_off(stack.len() - argc);
                let result = dispatch(ns, host, target, call_args, cfg, fuel, depth + 1, stats)?;
                stack.push(result);
            }
            Op::ImportGet(n) => {
                let resolved = inst.resolved[*n as usize];
                let fv = match resolved {
                    ResolvedImport::Host(slot) => FuncVal::Host {
                        module: slot.module,
                        item: slot.item,
                    },
                    ResolvedImport::Vm { instance, func } => FuncVal::Vm { instance, func },
                };
                stack.push(Value::Func(fv));
            }
            Op::CallRef(arity) => {
                let argc = *arity as usize;
                let call_args = stack.split_off(stack.len() - argc);
                let Value::Func(fv) = pop!() else {
                    panic!("verifier invariant broken: callref on non-function")
                };
                let result = dispatch(ns, host, fv, call_args, cfg, fuel, depth + 1, stats)?;
                stack.push(result);
            }
            Op::FuncConst(n) => stack.push(Value::Func(FuncVal::Vm { instance, func: *n })),
            Op::TupleMake(n) => {
                let items = stack.split_off(stack.len() - *n as usize);
                stack.push(Value::Tuple(Rc::new(items)));
            }
            Op::TupleGet(i) => {
                let Value::Tuple(items) = pop!() else {
                    panic!("verifier invariant broken: tupleget")
                };
                stack.push(items[*i as usize].clone());
            }
            Op::StrLen => {
                let s = pop!();
                stack.push(Value::Int(s.as_str().len() as i64));
            }
            Op::StrConcat => {
                let b = pop!();
                let a = pop!();
                let mut out = a.as_str().to_vec();
                out.extend_from_slice(b.as_str());
                stack.push(Value::str(out));
            }
            Op::StrByte => {
                let i = pop!().as_int();
                let s = pop!();
                let s = s.as_str();
                if i < 0 || i as usize >= s.len() {
                    return Err(VmError::StrBounds {
                        len: s.len(),
                        index: i,
                    });
                }
                stack.push(Value::Int(s[i as usize] as i64));
            }
            Op::StrSlice => {
                let len = pop!().as_int();
                let start = pop!().as_int();
                let s = pop!();
                let s = s.as_str();
                if start < 0 || len < 0 || (start as usize).saturating_add(len as usize) > s.len() {
                    return Err(VmError::StrBounds {
                        len: s.len(),
                        index: start,
                    });
                }
                let out = s[start as usize..start as usize + len as usize].to_vec();
                stack.push(Value::str(out));
            }
            Op::StrPackInt(width) => {
                let v = pop!().as_int() as u64;
                let bytes = v.to_be_bytes();
                let out = bytes[8 - *width as usize..].to_vec();
                stack.push(Value::str(out));
            }
            Op::StrUnpackInt(width) => {
                let off = pop!().as_int();
                let s = pop!();
                let s = s.as_str();
                let w = *width as usize;
                if off < 0 || (off as usize).saturating_add(w) > s.len() {
                    return Err(VmError::StrBounds {
                        len: s.len(),
                        index: off,
                    });
                }
                let mut bytes = [0u8; 8];
                bytes[8 - w..].copy_from_slice(&s[off as usize..off as usize + w]);
                stack.push(Value::Int(u64::from_be_bytes(bytes) as i64));
            }
            Op::StrFromInt => {
                let v = pop!().as_int();
                stack.push(Value::str(v.to_string().into_bytes()));
            }
            Op::Nop => {}
        }
    }
}
