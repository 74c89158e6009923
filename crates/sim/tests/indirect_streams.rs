//! Indirect (gather/scatter) and speculative stream semantics, on
//! hand-built IR so every corner is reachable:
//!
//! * a gather delivers `base[idx[k]]` in index order, bit-identically on
//!   both engines and every memory model;
//! * an out-of-bounds index poisons exactly its own FIFO entry — the
//!   fault fires only if that entry is consumed (deferred semantics),
//!   never from prefetch alone;
//! * a scatter writes `base[idx[k]] = v_k` architecturally, and scalar
//!   loads that follow observe every write (stream/scalar ordering);
//! * a squashed speculative stream never changes architectural results,
//!   under any squash-recovery penalty.

use proptest::prelude::*;
use wm_ir::{BinOp, DataFifo, FuncBuilder, InstKind, Module, Operand, Reg, RegClass, Width};
use wm_sim::{Engine, FaultKind, FaultUnit, MemModel, RunResult, SimError, WmConfig, WmMachine};

const IN1: DataFifo = DataFifo {
    class: RegClass::Int,
    index: 1,
};
const OUT0: DataFifo = DataFifo {
    class: RegClass::Int,
    index: 0,
};

/// A module with an `idx` int32 table and a `data` int32 table, plus a
/// `main` built by `body(builder, idx_base, data_base)`.
fn with_tables(idx: &[i32], data: &[i32], body: impl FnOnce(&mut FuncBuilder, Reg, Reg)) -> Module {
    let mut m = Module::new();
    let ib: Vec<u8> = idx.iter().flat_map(|v| v.to_le_bytes()).collect();
    let db: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let isym = m.add_data("idx", 4 * idx.len() as u64, 4, ib);
    let dsym = m.add_data("data", 4 * data.len() as u64, 4, db);
    let mut b = FuncBuilder::new("main", 0, 0);
    let ibase = Reg::int(3);
    let dbase = Reg::int(4);
    b.emit(InstKind::LoadAddr {
        dst: ibase,
        sym: isym,
        disp: 0,
    });
    b.emit(InstKind::LoadAddr {
        dst: dbase,
        sym: dsym,
        disp: 0,
    });
    body(&mut b, ibase, dbase);
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    m
}

fn gather(ibase: Reg, dbase: Reg, count: i64, tested: bool) -> InstKind {
    InstKind::StreamGather {
        fifo: IN1,
        base: dbase.into(),
        shift: 2,
        width: Width::W4,
        ibase: ibase.into(),
        istride: Operand::Imm(4),
        iwidth: Width::W4,
        count: Operand::Imm(count),
        tested,
    }
}

/// Sum `count` gathered values with a jNI loop and return the total.
fn gather_sum_module(idx: &[i32], data: &[i32]) -> Module {
    let count = idx.len() as i64;
    with_tables(idx, data, |b, ibase, dbase| {
        b.emit(gather(ibase, dbase, count, true));
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        let body = b.new_block();
        let done = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(acc, RExprAdd(acc, Reg::int(1)));
        b.emit(InstKind::BranchStream {
            fifo: IN1,
            target: body,
            els: done,
        });
        b.switch_to(done);
        b.copy(Reg::int(2), acc.into());
    })
}

#[allow(non_snake_case)]
fn RExprAdd(a: Reg, b: Reg) -> wm_ir::RExpr {
    wm_ir::RExpr::Bin(BinOp::Add, a.into(), b.into())
}

fn run(m: &Module, cfg: &WmConfig) -> RunResult {
    WmMachine::run(m, "main", &[], cfg).expect("runs")
}

#[test]
fn gather_delivers_indexed_values_in_order() {
    let idx = [4, 0, 3, 1, 2];
    let data = [100, 101, 102, 103, 104];
    let m = gather_sum_module(&idx, &data);
    let want: i64 = idx.iter().map(|&i| i64::from(data[i as usize])).sum();
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, want);
    assert_eq!(r.perf.scus[0].index_fetches, 5);
    assert_eq!(r.perf.scus[0].elements_in, 5);
    assert_eq!(r.perf.scus[0].poisoned, 0);
}

#[test]
fn oob_gather_index_faults_only_when_consumed() {
    // idx[3] points far outside `data`: entry 3 is poisoned.
    let idx = [1, 0, 2, 99_999, 2];
    let data = [10, 20, 30];

    // consuming every entry trips the deferred fault, with SCU provenance
    let m = gather_sum_module(&idx, &data);
    let err = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap_err();
    let SimError::Fault { fault, .. } = &err else {
        panic!("expected a poison fault, got {err}");
    };
    assert_eq!(fault.kind, FaultKind::PoisonConsumed);
    assert_eq!(
        fault.unit,
        FaultUnit::Ieu,
        "raised at consumption, not prefetch"
    );

    // consuming only the three good entries and stopping the stream never
    // faults: the poisoned entry dies unconsumed
    let m = with_tables(&idx, &data, |b, ibase, dbase| {
        b.emit(gather(ibase, dbase, 5, false));
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for _ in 0..3 {
            b.assign(acc, RExprAdd(acc, Reg::int(1)));
        }
        b.emit(InstKind::StreamStop { fifo: IN1 });
        b.copy(Reg::int(2), acc.into());
    });
    let r = run(&m, &WmConfig::default());
    assert_eq!(
        r.ret_int,
        10 + 20 + 30,
        "good prefix consumed, poison discarded"
    );
}

/// Enqueue `values` into the Int out FIFO and scatter them through
/// `idx`, then read the scattered array back with scalar loads.
fn scatter_roundtrip_module(idx: &[i32], values: &[i32]) -> Module {
    let count = idx.len() as i64;
    let span = 4 * idx.len() as i64;
    with_tables(idx, &vec![0; idx.len()], |b, ibase, dbase| {
        b.emit(InstKind::StreamScatter {
            fifo: OUT0,
            base: dbase.into(),
            shift: 2,
            width: Width::W4,
            ibase: ibase.into(),
            istride: Operand::Imm(4),
            iwidth: Width::W4,
            count: Operand::Imm(count),
            span,
        });
        for &v in values {
            b.copy(Reg::int(0), Operand::Imm(i64::from(v))); // enqueue
        }
        // read data[k] back with scalar loads; ordering must hold each
        // load until the scatter's span has fully drained past it
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for k in 0..idx.len() {
            b.emit(InstKind::WLoad {
                fifo: OUT0,
                addr: wm_ir::RExpr::Bin(BinOp::Add, Reg::int(4).into(), Operand::Imm(4 * k as i64)),
                width: Width::W4,
            });
            let v = Reg::int(6);
            b.copy(v, Reg::int(0).into());
            // weight by position so ordering mistakes change the result
            b.assign(
                Reg::int(7),
                wm_ir::RExpr::Bin(BinOp::Mul, v.into(), Operand::Imm(k as i64 + 1)),
            );
            b.assign(acc, RExprAdd(acc, Reg::int(7)));
        }
        b.copy(Reg::int(2), acc.into());
    })
}

fn scatter_expected(idx: &[i32], values: &[i32]) -> i64 {
    let mut mem = vec![0i64; idx.len()];
    for (k, &i) in idx.iter().enumerate() {
        mem[i as usize] = i64::from(values[k]);
    }
    mem.iter()
        .enumerate()
        .map(|(k, &v)| v * (k as i64 + 1))
        .sum()
}

#[test]
fn scatter_lands_every_write_before_scalar_loads_observe() {
    let idx = [3, 1, 0, 2];
    let values = [70, 71, 72, 73];
    let m = scatter_roundtrip_module(&idx, &values);
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, scatter_expected(&idx, &values));
    assert_eq!(r.perf.scus[0].elements_out, 4);
    assert_eq!(r.perf.scus[0].index_fetches, 4);
}

#[test]
fn oob_scatter_index_faults_eagerly() {
    // scatters are architectural: the bad store faults at issue, no
    // consumption needed
    let idx = [0, 77_777];
    let values = [5, 6];
    let m = scatter_roundtrip_module(&idx, &values);
    let err = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap_err();
    let fault = err.fault().expect("fault provenance");
    assert_eq!(fault.kind, FaultKind::Unmapped);
    assert!(
        matches!(fault.unit, FaultUnit::Scu(_)),
        "scatter faults carry SCU provenance: {:?}",
        fault.unit
    );
}

/// A *scalar* indirect chain — `data[idx[k]]` as two dependent WLoads,
/// no SCU involved — on a refusal-heavy memory model (one DRAM bank,
/// tiny direct-mapped L1). The second load's address expression dequeues
/// the index from the in-FIFO; if the busy bank then refuses the
/// reference, the computed address must survive in the unit's address
/// latch until the retry. Before the latch existed, the dequeued index
/// was simply lost and the machine wedged ("waits on empty FIFO" over a
/// fully quiesced memory system).
#[test]
fn refused_indirect_scalar_load_retries_without_losing_its_index() {
    let idx: Vec<i32> = (0..12).map(|k| (k * 7) % 12).collect();
    let data: Vec<i32> = (0..12).map(|k| 3 * k + 1).collect();
    let want: i64 = idx.iter().map(|&i| i64::from(data[i as usize])).sum();
    let m = with_tables(&idx, &data, |b, ibase, dbase| {
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for k in 0..idx.len() {
            // scalar load of idx[k] into the in-FIFO...
            b.emit(InstKind::WLoad {
                fifo: OUT0,
                addr: wm_ir::RExpr::Bin(BinOp::Add, ibase.into(), Operand::Imm(4 * k as i64)),
                width: Width::W4,
            });
            // ...consumed by the dependent load's address expression
            b.emit(InstKind::WLoad {
                fifo: OUT0,
                addr: wm_ir::RExpr::Dual {
                    inner: BinOp::Shl,
                    a: Reg::int(0).into(),
                    b: Operand::Imm(2),
                    outer: BinOp::Add,
                    c: dbase.into(),
                },
                width: Width::W4,
            });
            b.assign(acc, RExprAdd(acc, Reg::int(0)));
        }
        b.copy(Reg::int(2), acc.into());
    });
    let cfg = WmConfig::default().with_mem_model(
        MemModel::parse("banked:size=256,assoc=1,line=32,banks=1,busy=12,rowhit=8,rowmiss=24")
            .expect("valid"),
    );
    // the config must actually exercise the refusal path, or this test
    // proves nothing about the latch
    let r = run(&m, &cfg);
    assert!(
        r.perf.ieu.stalled_on(wm_sim::Stall::BankBusy) > 0,
        "expected bank-busy refusals on the IEU"
    );
    assert_eq!(assert_engines_identical(&m, &cfg), want);
}

/// A speculative (unbounded, overfetching) stream: consume three
/// elements of a five-element table, squash the rest with a stop, then
/// compute from scalar state.
fn speculative_module() -> Module {
    let data = [7, 11, 13, 17, 19];
    with_tables(&[0], &data, |b, _ibase, dbase| {
        b.emit(InstKind::StreamIn {
            fifo: IN1,
            base: dbase.into(),
            count: None, // unbounded: runs past the table, prefetches poison
            stride: Operand::Imm(4),
            width: Width::W4,
            tested: false,
        });
        let acc = Reg::int(5);
        b.copy(acc, Operand::Imm(0));
        for _ in 0..3 {
            b.assign(acc, RExprAdd(acc, Reg::int(1)));
        }
        b.emit(InstKind::StreamStop { fifo: IN1 });
        b.copy(Reg::int(2), acc.into());
    })
}

#[test]
fn squashed_speculative_stream_never_changes_results() {
    let m = speculative_module();
    let free = run(&m, &WmConfig::default());
    assert_eq!(free.ret_int, 7 + 11 + 13);
    for penalty in [1, 8, 64] {
        let r = run(&m, &WmConfig::default().with_squash_penalty(penalty));
        assert_eq!(
            r.ret_int, free.ret_int,
            "squash penalty {penalty} changed the result"
        );
        assert!(
            r.cycles >= free.cycles,
            "a recovery penalty cannot speed the machine up"
        );
    }
}

const MEM_SPECS: [&str; 4] = [
    "flat",
    "cache",
    "banked",
    "cache:size=256,assoc=1,mshrs=1,miss=48",
];

fn assert_engines_identical(m: &Module, cfg: &WmConfig) -> i64 {
    let base = run(m, &cfg.clone().with_engine(Engine::Cycle));
    let r = run(m, &cfg.clone().with_engine(Engine::Compiled));
    assert_eq!(r.cycles, base.cycles, "compiled cycle count diverges");
    assert_eq!(r.ret_int, base.ret_int, "compiled result diverges");
    assert_eq!(r.perf, base.perf, "compiled counters diverge");
    base.ret_int
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok().and_then(|s| s.parse().ok()).unwrap_or(16),
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_gathers_agree_on_every_engine_and_memory_model(
        idx in proptest::collection::vec(0..24i32, 1..24),
        seed in 0..1000i32,
        mem_ix in 0..MEM_SPECS.len(),
        squash_ix in 0..3usize,
    ) {
        let data: Vec<i32> = (0..24).map(|k| seed + 3 * k).collect();
        let m = gather_sum_module(&idx, &data);
        let want: i64 = idx.iter().map(|&i| i64::from(data[i as usize])).sum();
        let cfg = WmConfig::default()
            .with_mem_model(MemModel::parse(MEM_SPECS[mem_ix]).expect("valid"))
            .with_squash_penalty([0, 2, 9][squash_ix]);
        prop_assert_eq!(assert_engines_identical(&m, &cfg), want);
    }

    #[test]
    fn random_scatters_agree_on_every_engine_and_memory_model(
        perm_seed in 0..120usize,
        n in 2..12usize,
        seed in 0..1000i32,
        mem_ix in 0..MEM_SPECS.len(),
    ) {
        // a permutation of 0..n so every slot is written exactly once
        let mut idx: Vec<i32> = (0..n as i32).collect();
        let mut s = perm_seed;
        for k in (1..n).rev() {
            idx.swap(k, s % (k + 1));
            s = s.wrapping_mul(31).wrapping_add(7);
        }
        let values: Vec<i32> = (0..n as i32).map(|k| seed + 5 * k).collect();
        let m = scatter_roundtrip_module(&idx, &values);
        let want = scatter_expected(&idx, &values);
        let cfg = WmConfig::default()
            .with_mem_model(MemModel::parse(MEM_SPECS[mem_ix]).expect("valid"));
        prop_assert_eq!(assert_engines_identical(&m, &cfg), want);
    }
}
