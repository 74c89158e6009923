//! Fault-model tests: memory protection, deferred stream-fault (poison)
//! semantics, fault provenance, machine-state dumps on terminal errors,
//! and deterministic fault injection.

use wm_ir::{
    BinOp, DataFifo, FuncBuilder, InstKind, Module, Operand, RExpr, Reg, RegClass, UnOp, Width,
};
use wm_sim::{
    FaultKind, FaultPlan, FaultUnit, SimError, TiledMachine, WmConfig, WmMachine, DATA_BASE,
};

/// A module with one `tab` data global of `size` bytes holding the given
/// little-endian int32 values, plus a `main` built by `body`.
fn with_table(size: u64, values: &[i32], body: impl FnOnce(&mut FuncBuilder, Reg)) -> Module {
    let mut m = Module::new();
    let init: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let sym = m.add_data("tab", size, 8, init);
    let mut b = FuncBuilder::new("main", 0, 0);
    let base = Reg::int(3);
    b.emit(InstKind::LoadAddr {
        dst: base,
        sym,
        disp: 0,
    });
    body(&mut b, base);
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    m
}

fn run_err(m: &Module, cfg: &WmConfig) -> SimError {
    WmMachine::run(m, "main", &[], cfg).unwrap_err()
}

#[test]
fn wild_store_faults_with_full_provenance() {
    // store far past every mapped region: precise fault naming the IEU,
    // the address, the instruction, plus a machine-state dump
    let m = with_table(16, &[], |b, base| {
        b.assign(Reg::int(0), RExpr::Op(Operand::Imm(7)));
        b.emit(InstKind::WStore {
            unit: RegClass::Int,
            addr: RExpr::Bin(BinOp::Add, base.into(), Operand::Imm(1 << 20)),
            width: Width::W4,
        });
    });
    let err = run_err(&m, &WmConfig::default());
    let SimError::Fault { fault, state, .. } = err else {
        panic!("expected fault, got {err}");
    };
    assert_eq!(fault.unit, FaultUnit::Ieu);
    assert_eq!(fault.kind, FaultKind::Unmapped);
    assert_eq!(fault.addr, Some(DATA_BASE + (1 << 20)));
    let inst = fault.inst.as_deref().expect("faulting instruction named");
    assert!(inst.contains(":="), "listing notation: {inst}");
    let dump = state.to_string();
    assert!(dump.contains("machine state at cycle"), "{dump}");
    assert!(dump.contains("IEU"), "{dump}");
}

#[test]
fn guard_red_zone_catches_off_by_a_little_stores() {
    // just past the end of the global: lands in its guard red-zone and the
    // report says so
    let m = with_table(16, &[], |b, base| {
        b.assign(Reg::int(0), RExpr::Op(Operand::Imm(7)));
        b.emit(InstKind::WStore {
            unit: RegClass::Int,
            addr: RExpr::Bin(BinOp::Add, base.into(), Operand::Imm(20)),
            width: Width::W4,
        });
    });
    let err = run_err(&m, &WmConfig::default());
    let fault = err.fault().expect("fault provenance");
    assert_eq!(fault.kind, FaultKind::Unmapped);
    assert!(
        fault.detail.contains("guard red-zone"),
        "red-zone named: {}",
        fault.detail
    );
    assert!(
        fault.detail.contains("tab"),
        "global named: {}",
        fault.detail
    );
}

#[test]
fn stores_to_rodata_fault_as_readonly() {
    let mut m = Module::new();
    let sym = m.add_rodata("ktab", 16, 8, 1i32.to_le_bytes().to_vec());
    let mut b = FuncBuilder::new("main", 0, 0);
    let base = Reg::int(3);
    b.emit(InstKind::LoadAddr {
        dst: base,
        sym,
        disp: 0,
    });
    // reading rodata is fine...
    b.emit(InstKind::WLoad {
        fifo: DataFifo::new(RegClass::Int, 0),
        addr: RExpr::Op(base.into()),
        width: Width::W4,
    });
    b.copy(Reg::int(4), Reg::int(0).into());
    // ...writing it is not
    b.assign(Reg::int(0), RExpr::Op(Operand::Imm(9)));
    b.emit(InstKind::WStore {
        unit: RegClass::Int,
        addr: RExpr::Op(base.into()),
        width: Width::W4,
    });
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    let err = run_err(&m, &WmConfig::default());
    let fault = err.fault().expect("fault provenance");
    assert_eq!(fault.kind, FaultKind::ReadOnly);
    assert_eq!(fault.unit, FaultUnit::Ieu);
    assert_eq!(fault.addr, Some(DATA_BASE));
    assert!(fault.detail.contains("ktab"), "{}", fault.detail);
}

#[test]
fn unconsumed_overfetch_is_harmless() {
    // An unbounded stream over a 16-byte global prefetches past its end;
    // those entries are poisoned but never consumed, so the program runs
    // to completion (deferred stream-fault semantics).
    let m = with_table(16, &[10, 11, 12, 13], |b, base| {
        b.emit(InstKind::StreamIn {
            fifo: DataFifo::new(RegClass::Int, 1),
            base: base.into(),
            count: None,
            stride: Operand::Imm(4),
            width: Width::W4,
            tested: false,
        });
        let acc = Reg::int(4);
        b.copy(acc, Reg::int(1).into());
        b.assign(acc, RExpr::Bin(BinOp::Add, acc.into(), Reg::int(1).into()));
        b.emit(InstKind::StreamStop {
            fifo: DataFifo::new(RegClass::Int, 1),
        });
        b.copy(Reg::int(2), acc.into());
    });
    let r = WmMachine::run(&m, "main", &[], &WmConfig::default()).expect("over-fetch tolerated");
    assert_eq!(r.ret_int, 10 + 11);
}

#[test]
fn consumed_overfetch_faults_and_names_the_scu() {
    // A counted stream of 8 over a 4-element global: the 5th consumption
    // pops a poisoned entry and faults, attributing the SCU that
    // prefetched it and the address it prefetched.
    let m = with_table(16, &[1, 2, 3, 4], |b, base| {
        b.emit(InstKind::StreamIn {
            fifo: DataFifo::new(RegClass::Int, 1),
            base: base.into(),
            count: Some(Operand::Imm(8)),
            stride: Operand::Imm(4),
            width: Width::W4,
            tested: true,
        });
        let acc = Reg::int(4);
        b.copy(acc, Operand::Imm(0));
        let body = b.new_block();
        let done = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(acc, RExpr::Bin(BinOp::Add, acc.into(), Reg::int(1).into()));
        b.emit(InstKind::BranchStream {
            fifo: DataFifo::new(RegClass::Int, 1),
            target: body,
            els: done,
        });
        b.switch_to(done);
        b.copy(Reg::int(2), acc.into());
    });
    let err = run_err(&m, &WmConfig::default());
    let fault = err.fault().expect("fault provenance");
    assert_eq!(fault.kind, FaultKind::PoisonConsumed);
    assert_eq!(fault.unit, FaultUnit::Ieu, "the consumer is blamed");
    assert_eq!(
        fault.addr,
        Some(DATA_BASE + 16),
        "first address past the end"
    );
    assert!(fault.stream.is_some(), "stream FIFO recorded");
    assert!(
        fault.detail.contains("SCU 0"),
        "prefetching SCU named: {}",
        fault.detail
    );
}

/// A streamed sum of `n` elements: enough memory traffic for injection
/// experiments.
fn streamed_sum(n: i32) -> Module {
    let vals: Vec<i32> = (1..=n).collect();
    with_table(4 * n as u64, &vals, |b, base| {
        b.emit(InstKind::StreamIn {
            fifo: DataFifo::new(RegClass::Int, 1),
            base: base.into(),
            count: Some(Operand::Imm(n as i64)),
            stride: Operand::Imm(4),
            width: Width::W4,
            tested: true,
        });
        let acc = Reg::int(4);
        b.copy(acc, Operand::Imm(0));
        let body = b.new_block();
        let done = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(acc, RExpr::Bin(BinOp::Add, acc.into(), Reg::int(1).into()));
        b.emit(InstKind::BranchStream {
            fifo: DataFifo::new(RegClass::Int, 1),
            target: body,
            els: done,
        });
        b.switch_to(done);
        b.copy(Reg::int(2), acc.into());
    })
}

#[test]
fn delayed_responses_change_timing_but_not_results() {
    let m = streamed_sum(32);
    let base = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap();
    let plan = FaultPlan::parse("delay:1:50,delay:5:25").unwrap();
    let slow = WmMachine::run(&m, "main", &[], &WmConfig::default().with_fault_plan(plan)).unwrap();
    assert_eq!(base.ret_int, (1..=32).sum::<i32>() as i64);
    assert_eq!(slow.ret_int, base.ret_int, "delays must not corrupt data");
    assert!(
        slow.cycles > base.cycles,
        "delayed {} should exceed baseline {}",
        slow.cycles,
        base.cycles
    );
}

#[test]
fn dropped_response_wedges_and_is_attributed() {
    // a scalar load whose response vanishes: the IEU starves forever and
    // the deadlock report blames the dropped response
    let m = with_table(16, &[42], |b, base| {
        b.emit(InstKind::WLoad {
            fifo: DataFifo::new(RegClass::Int, 0),
            addr: RExpr::Op(base.into()),
            width: Width::W4,
        });
        b.copy(Reg::int(2), Reg::int(0).into());
    });
    let cfg = WmConfig::default().with_fault_plan(FaultPlan::parse("drop:1").unwrap());
    let err = run_err(&m, &cfg);
    let SimError::Deadlock { detail, state, .. } = err else {
        panic!("expected deadlock, got {err}");
    };
    assert!(detail.contains("IEU"), "{detail}");
    assert!(
        detail.contains("dropped by fault injection"),
        "the lost response is blamed: {detail}"
    );
    assert_eq!(state.dropped_responses, 1);
}

#[test]
fn disabled_scu_wedges_and_is_attributed() {
    let m = streamed_sum(32);
    let cfg = WmConfig::default().with_fault_plan(FaultPlan::parse("scu:0:0").unwrap());
    let err = run_err(&m, &cfg);
    let SimError::Deadlock { detail, state, .. } = err else {
        panic!("expected deadlock, got {err}");
    };
    assert!(
        detail.contains("SCU 0") && detail.contains("disabled"),
        "the disabled SCU is blamed: {detail}"
    );
    assert!(state.scus[0].disabled, "snapshot flags the disabled SCU");
}

#[test]
fn jitter_is_deterministic_per_seed() {
    let m = streamed_sum(64);
    let run_with = |spec: &str| {
        let cfg = WmConfig::default().with_fault_plan(FaultPlan::parse(spec).unwrap());
        WmMachine::run(&m, "main", &[], &cfg).unwrap()
    };
    let a1 = run_with("jitter:7:9");
    let a2 = run_with("jitter:7:9");
    let base = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap();
    assert_eq!(a1.cycles, a2.cycles, "same seed, same cycle count");
    assert_eq!(a1.ret_int, base.ret_int, "jitter must not corrupt data");
    assert!(a1.cycles >= base.cycles, "jitter only ever adds latency");
}

#[test]
fn oversized_globals_are_a_bad_program() {
    let mut m = Module::new();
    m.add_data("huge", 1 << 20, 8, vec![]);
    let mut b = FuncBuilder::new("main", 0, 0);
    b.copy(Reg::int(2), Operand::Imm(0));
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    let cfg = WmConfig {
        memory_size: 1 << 16,
        ..WmConfig::default()
    };
    let err = run_err(&m, &cfg);
    let SimError::BadProgram(msg) = err else {
        panic!("expected bad program, got {err}");
    };
    assert!(msg.contains("does not fit"), "{msg}");
}

/// One module per instruction form the machine cannot execute, each with
/// the text its [`SimError::BadProgram`] must carry. The offending
/// instruction is the first thing `main` does.
fn unexecutable_modules() -> Vec<(&'static str, Module)> {
    let with_main = |body: &dyn Fn(&mut Module, &mut FuncBuilder)| {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", 0, 0);
        body(&mut m, &mut b);
        b.emit(InstKind::Ret);
        m.add_function(b.finish());
        m
    };
    vec![
        (
            "cross-unit register read of f4 on the int unit",
            with_main(&|_, b| {
                b.assign(Reg::int(4), RExpr::Op(Reg::flt(4).into()));
            }),
        ),
        (
            "cross-unit register read of f5 on the int unit",
            with_main(&|_, b| {
                b.assign(Reg::flt(4), RExpr::Un(UnOp::IntToFlt, Reg::flt(5).into()));
            }),
        ),
        (
            "cross-unit register read of f6 on the int unit",
            with_main(&|_, b| {
                b.emit(InstKind::StreamIn {
                    fifo: DataFifo::new(RegClass::Int, 0),
                    base: Reg::flt(6).into(),
                    count: Some(Operand::Imm(4)),
                    stride: Operand::Imm(4),
                    width: Width::W4,
                    tested: false,
                });
            }),
        ),
        (
            "cross-unit register write of f4 on the int unit",
            with_main(&|m, b| {
                let sym = m.add_data("tab", 16, 8, vec![]);
                b.emit(InstKind::LoadAddr {
                    dst: Reg::flt(4),
                    sym,
                    disp: 0,
                });
            }),
        ),
        (
            "register 1 is read-only FIFO-mapped",
            with_main(&|_, b| {
                b.assign(Reg::int(1), RExpr::Op(Operand::Imm(1)));
            }),
        ),
        (
            "register 1 is read-only FIFO-mapped",
            with_main(&|_, b| {
                b.assign(Reg::int(1), RExpr::Un(UnOp::FltToInt, Operand::FImm(1.0)));
            }),
        ),
        (
            "address taken of non-data symbol putchar",
            with_main(&|m, b| {
                let sym = m.add_builtin("putchar");
                b.emit(InstKind::LoadAddr {
                    dst: Reg::int(4),
                    sym,
                    disp: 0,
                });
            }),
        ),
        (
            "call to data symbol tab",
            with_main(&|m, b| {
                let callee = m.add_data("tab", 16, 8, vec![]);
                b.emit(InstKind::Call {
                    callee,
                    args: vec![],
                    ret: None,
                });
            }),
        ),
        (
            "unknown builtin getchar",
            with_main(&|m, b| {
                let callee = m.add_builtin("getchar");
                b.emit(InstKind::Call {
                    callee,
                    args: vec![],
                    ret: None,
                });
            }),
        ),
        (
            "vector register v8 does not exist",
            with_main(&|_, b| {
                b.emit(InstKind::VecBroadcast { dst: 8, value: 1.0 });
            }),
        ),
        (
            "VEU port p2 does not exist",
            with_main(&|_, b| {
                b.emit(InstKind::VLoad { vreg: 0, port: 2 });
            }),
        ),
        (
            "VEU port p2 does not exist",
            with_main(&|_, b| {
                b.emit(InstKind::VStreamIn {
                    port: 2,
                    base: Operand::Imm(0),
                    count: Operand::Imm(32),
                    stride: Operand::Imm(8),
                    vectors: Operand::Imm(1),
                });
            }),
        ),
        (
            "vector operator + is not floating point",
            with_main(&|_, b| {
                b.emit(InstKind::VecBin {
                    op: BinOp::Add,
                    dst: 0,
                    a: 1,
                    b: 2,
                });
            }),
        ),
    ]
}

#[test]
fn unexecutable_modules_are_refused_at_construction() {
    let tiled = WmConfig::default().with_tiles(2);
    for (what, m) in unexecutable_modules() {
        let Err(SimError::BadProgram(msg)) = WmMachine::new(&m, &WmConfig::default()) else {
            panic!("{what}: the machine was built");
        };
        assert!(msg.contains(what), "expected `{what}`, got `{msg}`");
        let Err(SimError::BadProgram(tiled_msg)) = TiledMachine::new(&m, &tiled, 1) else {
            panic!("{what}: the tiled machine was built");
        };
        assert_eq!(tiled_msg, msg);
    }
}

#[test]
fn timeout_carries_a_machine_state() {
    let mut b = FuncBuilder::new("main", 0, 0);
    let spin = b.new_block();
    let t = Reg::int(4);
    b.copy(t, Operand::Imm(0));
    b.jump(spin);
    b.switch_to(spin);
    b.assign(t, RExpr::Bin(BinOp::Add, t.into(), Operand::Imm(1)));
    b.jump(spin);
    let mut m = Module::new();
    m.add_function(b.finish());
    let cfg = WmConfig::default().with_max_cycles(5_000);
    let err = run_err(&m, &cfg);
    let SimError::Timeout { cycles, state } = err else {
        panic!("expected timeout, got {err}");
    };
    assert_eq!(cycles, 5_000);
    assert_eq!(state.units.len(), 2, "IEU and FEU both snapshotted");
    assert!(state.cycle >= 5_000);
}

#[test]
fn fifo_imbalance_on_degraded_hardware_is_a_deadlock_not_a_timeout() {
    // Satellite: at fifo_capacity=1 / mem_ports=1, imbalance in either
    // direction must still be attributed as a deadlock naming the unit.
    let degraded = WmConfig::default()
        .with_fifo_capacity(1)
        .with_mem_ports(1)
        .with_max_cycles(1_000_000);

    // dequeue with no producer
    let mut b = FuncBuilder::new("main", 0, 0);
    b.copy(Reg::int(2), Reg::int(0).into());
    b.emit(InstKind::Ret);
    let mut m = Module::new();
    m.add_function(b.finish());
    let err = run_err(&m, &degraded);
    let SimError::Deadlock { detail, .. } = err else {
        panic!("expected deadlock, got {err}");
    };
    assert!(detail.contains("IEU"), "unit named: {detail}");

    // enqueue with no consumer: the second enqueue blocks on the full
    // one-entry output FIFO forever
    let mut b = FuncBuilder::new("main", 0, 0);
    b.assign(Reg::int(0), RExpr::Op(Operand::Imm(1)));
    b.assign(Reg::int(0), RExpr::Op(Operand::Imm(2)));
    b.copy(Reg::int(2), Operand::Imm(0));
    b.emit(InstKind::Ret);
    let mut m = Module::new();
    m.add_function(b.finish());
    let err = run_err(&m, &degraded);
    let SimError::Deadlock { detail, .. } = err else {
        panic!("expected deadlock, got {err}");
    };
    assert!(detail.contains("IEU"), "unit named: {detail}");
}
