//! Machine-level behavior tests: hand-built modules pin down the cycle
//! semantics the WM model promises — FIFO discipline, condition-code
//! stalls, the paired-ALU interlock, store pairing, stream generations and
//! port arbitration.

use wm_ir::{
    BinOp, CmpOp, DataFifo, FuncBuilder, Function, InstKind, Module, Operand, RExpr, Reg, RegClass,
    Width,
};
use wm_sim::{SimError, Stall, TiledMachine, WmConfig, WmMachine};

/// Wrap a single function into a runnable module.
fn module_of(f: Function) -> Module {
    let mut m = Module::new();
    m.add_function(f);
    m
}

fn run(m: &Module, cfg: &WmConfig) -> wm_sim::RunResult {
    WmMachine::run(m, "main", &[], cfg).expect("runs")
}

#[test]
fn unconditional_jumps_are_free() {
    // A chain of N jumps costs no more than the straight-line version.
    let mut b = FuncBuilder::new("main", 0, 0);
    let mut labels = Vec::new();
    for _ in 0..16 {
        labels.push(b.new_block());
    }
    b.jump(labels[0]);
    for i in 0..15 {
        b.switch_to(labels[i]);
        b.jump(labels[i + 1]);
    }
    b.switch_to(labels[15]);
    b.copy(Reg::int(2), Operand::Imm(7));
    b.emit(InstKind::Ret);
    let jumps = module_of(b.finish());

    let mut b = FuncBuilder::new("main", 0, 0);
    b.copy(Reg::int(2), Operand::Imm(7));
    b.emit(InstKind::Ret);
    let straight = module_of(b.finish());

    let cfg = WmConfig::default();
    let rj = run(&jumps, &cfg);
    let rs = run(&straight, &cfg);
    assert_eq!(rj.ret_int, 7);
    // the 16-jump chain may cost a couple of cycles of IFU cap, no more
    assert!(
        rj.cycles <= rs.cycles + 3,
        "jump chain {} vs straight {}",
        rj.cycles,
        rs.cycles
    );
}

#[test]
fn branch_stalls_until_compare_executes() {
    // The branch's compare sits behind a long dependent chain in the IEU;
    // the IFU must wait for its condition code.
    let mut b = FuncBuilder::new("main", 0, 0);
    let t = b.vreg(RegClass::Int);
    b.copy(t, Operand::Imm(0));
    for _ in 0..20 {
        b.assign(t, RExpr::Bin(BinOp::Add, t.into(), Operand::Imm(1)));
    }
    let yes = b.new_block();
    let no = b.new_block();
    b.branch_if(
        RegClass::Int,
        CmpOp::Eq,
        t.into(),
        Operand::Imm(20),
        yes,
        no,
    );
    b.switch_to(yes);
    b.copy(Reg::int(2), Operand::Imm(1));
    b.emit(InstKind::Ret);
    b.switch_to(no);
    b.copy(Reg::int(2), Operand::Imm(0));
    b.emit(InstKind::Ret);
    let mut f = b.finish();
    // keep virtuals out: allocate
    wm_target::allocate_registers(&mut f, wm_target::TargetKind::Wm).unwrap();
    let m = module_of(f);
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, 1);
    // the chain serializes with the paired-ALU interlock: ≥ 2 cycles/add
    assert!(
        r.cycles >= 40,
        "expected interlocked chain, got {}",
        r.cycles
    );
    assert!(
        r.stats.ifu_stalls > 0,
        "IFU must have waited on the CC FIFO"
    );
}

#[test]
fn paired_alu_interlock_costs_one_bubble() {
    // dependent adds: a := a + 1 forty times → ~2 cycles each
    let mut dep = FuncBuilder::new("main", 0, 0);
    let a = Reg::int(4);
    dep.copy(a, Operand::Imm(0));
    for _ in 0..40 {
        dep.assign(a, RExpr::Bin(BinOp::Add, a.into(), Operand::Imm(1)));
    }
    dep.copy(Reg::int(2), a.into());
    dep.emit(InstKind::Ret);
    let dep_m = module_of(dep.finish());

    // independent adds: two alternating accumulators → ~1 cycle each
    let mut ind = FuncBuilder::new("main", 0, 0);
    let (x, y) = (Reg::int(4), Reg::int(5));
    ind.copy(x, Operand::Imm(0));
    ind.copy(y, Operand::Imm(0));
    for _ in 0..20 {
        ind.assign(x, RExpr::Bin(BinOp::Add, x.into(), Operand::Imm(1)));
        ind.assign(y, RExpr::Bin(BinOp::Add, y.into(), Operand::Imm(1)));
    }
    ind.assign(x, RExpr::Bin(BinOp::Add, x.into(), y.into()));
    ind.copy(Reg::int(2), x.into());
    ind.emit(InstKind::Ret);
    let ind_m = module_of(ind.finish());

    let cfg = WmConfig::default();
    let rd = run(&dep_m, &cfg);
    let ri = run(&ind_m, &cfg);
    assert_eq!(rd.ret_int, 40);
    assert_eq!(ri.ret_int, 40);
    assert!(
        rd.cycles > ri.cycles + 20,
        "dependent {} should pay ~1 bubble per add vs independent {}",
        rd.cycles,
        ri.cycles
    );
}

#[test]
fn store_then_load_same_address_is_ordered() {
    // enqueue 99 → store to a global; immediately load it back; the load
    // must wait for the store (store-queue interlock) and see 99.
    let mut m = Module::new();
    let sym = m.add_data("buf", 16, 8, vec![]);
    let mut b = FuncBuilder::new("main", 0, 0);
    let base = Reg::int(3);
    b.emit(InstKind::LoadAddr {
        dst: base,
        sym,
        disp: 0,
    });
    b.assign(Reg::int(0), RExpr::Op(Operand::Imm(99)));
    b.emit(InstKind::WStore {
        unit: RegClass::Int,
        addr: RExpr::Op(base.into()),
        width: Width::W4,
    });
    b.emit(InstKind::WLoad {
        fifo: DataFifo::new(RegClass::Int, 0),
        addr: RExpr::Op(base.into()),
        width: Width::W4,
    });
    b.copy(Reg::int(2), Reg::int(0).into());
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, 99, "load must observe the store");
    // and it must have cost at least two memory latencies (serialized)
    assert!(r.cycles >= 2 * WmConfig::default().mem_latency);
}

#[test]
fn loads_to_different_addresses_pipeline() {
    // two independent loads complete in ~one latency, not two
    let build = |loads: i64| {
        let mut m = Module::new();
        let sym = m.add_data("buf", 16, 8, vec![]);
        let mut b = FuncBuilder::new("main", 0, 0);
        let base = Reg::int(3);
        b.emit(InstKind::LoadAddr {
            dst: base,
            sym,
            disp: 0,
        });
        for k in 0..loads {
            b.emit(InstKind::WLoad {
                fifo: DataFifo::new(RegClass::Int, 0),
                addr: RExpr::Bin(BinOp::Add, base.into(), Operand::Imm(8 * k)),
                width: Width::W4,
            });
        }
        for k in 0..loads {
            b.copy(Reg::int(2 + k as u8), Reg::int(0).into());
        }
        b.emit(InstKind::Ret);
        m.add_function(b.finish());
        m
    };
    let one_m = build(1);
    let two_m = build(2);

    let cfg = WmConfig::default();
    let r1 = run(&one_m, &cfg);
    let r2 = run(&two_m, &cfg);
    assert!(
        r2.cycles <= r1.cycles + 3,
        "second load should overlap the first: {} vs {}",
        r2.cycles,
        r1.cycles
    );
}

#[test]
fn stream_delivers_in_order_and_jni_counts() {
    // stream 5 words out of a data global, sum them in a jNI loop
    let mut m = Module::new();
    let init: Vec<u8> = (1i32..=5).flat_map(|v| v.to_le_bytes()).collect();
    let sym = m.add_data("tab", 20, 4, init);
    let mut b = FuncBuilder::new("main", 0, 0);
    let base = Reg::int(3);
    b.emit(InstKind::LoadAddr {
        dst: base,
        sym,
        disp: 0,
    });
    b.emit(InstKind::StreamIn {
        fifo: DataFifo::new(RegClass::Int, 1),
        base: base.into(),
        count: Some(Operand::Imm(5)),
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
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, 15, "1+2+3+4+5 in stream order");
    assert_eq!(r.stats.stream_reads, 5);
}

#[test]
fn stream_stop_flushes_prefetch_and_scalar_loads_resume() {
    let mut m = Module::new();
    let init: Vec<u8> = (10i32..20).flat_map(|v| v.to_le_bytes()).collect();
    let sym = m.add_data("tab", 40, 4, init);
    let mut b = FuncBuilder::new("main", 0, 0);
    let base = Reg::int(3);
    b.emit(InstKind::LoadAddr {
        dst: base,
        sym,
        disp: 0,
    });
    // unbounded stream; consume two items, stop, then scalar-load tab[0]
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
    b.emit(InstKind::WLoad {
        fifo: DataFifo::new(RegClass::Int, 0),
        addr: RExpr::Op(base.into()),
        width: Width::W4,
    });
    let v = Reg::int(5);
    b.copy(v, Reg::int(0).into());
    b.assign(Reg::int(2), RExpr::Bin(BinOp::Add, acc.into(), v.into()));
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    let r = run(&m, &WmConfig::default());
    // 10 + 11 consumed from the stream, then 10 from the scalar load
    assert_eq!(r.ret_int, 10 + 11 + 10);
}

#[test]
fn single_port_memory_serializes_streams() {
    const SRC: &str = r"
        double a[3000]; double b[3000]; double s[1];
        int main() {
            int i; double acc;
            for (i = 0; i < 3000; i++) { a[i] = 1.0; b[i] = 2.0; }
            acc = 0.0;
            for (i = 0; i < 3000; i++) acc = acc + a[i] * b[i];
            s[0] = acc;
            return (int) acc;
        }
    ";
    let mut module = wm_frontend::compile(SRC).unwrap();
    for f in module.functions.iter_mut() {
        wm_opt::optimize_generic(f, &wm_opt::OptOptions::all());
        wm_target::expand_wm(f);
        wm_opt::optimize_wm(f, &wm_opt::OptOptions::all());
        wm_target::allocate_registers(f, wm_target::TargetKind::Wm).unwrap();
    }
    let fast = run(&module, &WmConfig::default().with_mem_ports(2));
    let slow = run(&module, &WmConfig::default().with_mem_ports(1));
    assert_eq!(fast.ret_int, 6000);
    assert_eq!(slow.ret_int, 6000);
    assert!(
        slow.cycles > fast.cycles,
        "1 port {} should be slower than 2 ports {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn conflicting_stream_configuration_is_detected() {
    let mut m = Module::new();
    let sym = m.add_data("tab", 64, 4, vec![]);
    let mut b = FuncBuilder::new("main", 0, 0);
    let base = Reg::int(3);
    b.emit(InstKind::LoadAddr {
        dst: base,
        sym,
        disp: 0,
    });
    for _ in 0..2 {
        b.emit(InstKind::StreamIn {
            fifo: DataFifo::new(RegClass::Int, 1),
            base: base.into(),
            count: None,
            stride: Operand::Imm(4),
            width: Width::W4,
            tested: false,
        });
    }
    b.copy(Reg::int(2), Operand::Imm(0));
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    // the second configuration waits for the first stream to finish; an
    // unbounded first stream never does, so the machine reports a deadlock
    // rather than silently interleaving two streams on one FIFO
    let cfg = WmConfig::default().with_max_cycles(200_000);
    let err = WmMachine::run(&m, "main", &[], &cfg).unwrap_err();
    assert!(
        matches!(err, SimError::Deadlock { .. } | SimError::Timeout { .. }),
        "double-streaming one FIFO must be detected: {err}"
    );
}

/// The eight stream-configuring instructions, by name: `Sin`, `Sout`,
/// `Sgather`, `Sscatter`, `VSin`, `VSout`, `Ssend`, `Srecv`. Every one
/// streams integer FIFO 0 (the VEU ones its port 0 / output FIFO) over the
/// table in `r3`, carries `count` as its count operand, and talks to tile
/// `peer` if it is a channel kind. `VSin` loads `vectors` as its vector
/// count.
fn stream_config(kind: &str, count: i64, vectors: i64, peer: u8) -> InstKind {
    let fifo = DataFifo::new(RegClass::Int, 0);
    let base: Operand = Reg::int(3).into();
    let count = Operand::Imm(count);
    match kind {
        "Sin" => InstKind::StreamIn {
            fifo,
            base,
            count: Some(count),
            stride: Operand::Imm(4),
            width: Width::W4,
            tested: true,
        },
        "Sout" => InstKind::StreamOut {
            fifo,
            base,
            count: Some(count),
            stride: Operand::Imm(4),
            width: Width::W4,
        },
        "Sgather" => InstKind::StreamGather {
            fifo,
            base,
            shift: 2,
            width: Width::W4,
            ibase: base,
            istride: Operand::Imm(4),
            iwidth: Width::W4,
            count,
            tested: true,
        },
        "Sscatter" => InstKind::StreamScatter {
            fifo,
            base,
            shift: 2,
            width: Width::W4,
            ibase: base,
            istride: Operand::Imm(4),
            iwidth: Width::W4,
            count,
            span: 64,
        },
        "VSin" => InstKind::VStreamIn {
            port: 0,
            base,
            count,
            stride: Operand::Imm(8),
            vectors: Operand::Imm(vectors),
        },
        "VSout" => InstKind::VStreamOut {
            base,
            count,
            stride: Operand::Imm(8),
        },
        "Ssend" => InstKind::StreamSend { peer, fifo, count },
        "Srecv" => InstKind::StreamRecv {
            peer,
            fifo,
            count,
            tested: true,
        },
        other => panic!("unknown stream kind {other}"),
    }
}

/// `main` configures `inst` over a 64-byte table and returns 0; on a
/// tiled machine, tile 1 just returns.
fn configure_and_return(inst: InstKind) -> Module {
    let mut m = Module::new();
    let sym = m.add_data("tab", 64, 8, vec![]);
    let mut b = FuncBuilder::new("main", 0, 0);
    b.emit(InstKind::LoadAddr {
        dst: Reg::int(3),
        sym,
        disp: 0,
    });
    b.emit(inst);
    b.copy(Reg::int(2), Operand::Imm(0));
    b.emit(InstKind::Ret);
    m.add_function(b.finish());
    let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
    t1.emit(InstKind::Ret);
    m.add_function(t1.finish());
    m
}

fn outcome(m: &Module, cfg: &WmConfig) -> Result<i64, String> {
    TiledMachine::run(m, "main", &[], cfg, 1)
        .map(|r| r.ret_int)
        .map_err(|e| e.to_json())
}

/// The report of a bad stream count, raised by the IEU at cycle 4 (the
/// configuring instruction's issue cycle in [`configure_and_return`]).
fn count_fault(inst: &str, detail: &str, count: i64, stream: bool) -> String {
    let (text, field) = if stream {
        (" [stream -> r0]", ", \"stream\": \"r0\"")
    } else {
        ("", "")
    };
    format!(
        "{{\"error\": \"fault\", \"message\": \"fault at cycle 4: IEU: {detail}{text} \
         [instruction `{inst}`]\", \"cycle\": 4, \"fault\": {{\"unit\": \"ieu\", \
         \"class\": \"bad-stream-count\", \"count\": {count}{field}, \"inst\": \"{inst}\", \
         \"detail\": \"{detail}\"}}}}"
    )
}

/// An expected bad-count fault: the instruction's listing, the detail
/// text and the count payload.
type CountFault = (&'static str, &'static str, i64);

/// Every stream-configuring kind against counts 0 and -1: the count rule
/// and the exact fault report (class, count payload, stream, instruction
/// and detail text) are part of each kind's contract. `VSout` has no
/// count check, `VSin` faults on a negative count or vector count with
/// the smaller as payload, and a zero count configures an idle stream.
#[test]
fn non_positive_stream_count_faults() {
    // (kind, count, vectors, None = runs to completion, or the fault)
    let table: &[(&str, i64, i64, Option<CountFault>)] = &[
        (
            "Sin",
            0,
            0,
            Some(("Sin32   r0,r3,0,4", "stream configured with count 0", 0)),
        ),
        (
            "Sin",
            -1,
            0,
            Some(("Sin32   r0,r3,-1,4", "stream configured with count -1", -1)),
        ),
        (
            "Sout",
            0,
            0,
            Some(("Sout32  r0,r3,0,4", "stream configured with count 0", 0)),
        ),
        (
            "Sout",
            -1,
            0,
            Some(("Sout32  r0,r3,-1,4", "stream configured with count -1", -1)),
        ),
        (
            "Sgather",
            0,
            0,
            Some((
                "Sga32   r0,r3+(idx<<2) [r3,0,4]",
                "indirect stream configured with count 0",
                0,
            )),
        ),
        (
            "Sgather",
            -1,
            0,
            Some((
                "Sga32   r0,r3+(idx<<2) [r3,-1,4]",
                "indirect stream configured with count -1",
                -1,
            )),
        ),
        (
            "Sscatter",
            0,
            0,
            Some((
                "Ssc32   r0out,r3+(idx<<2) [r3,0,4]",
                "indirect stream configured with count 0",
                0,
            )),
        ),
        (
            "Sscatter",
            -1,
            0,
            Some((
                "Ssc32   r0out,r3+(idx<<2) [r3,-1,4]",
                "indirect stream configured with count -1",
                -1,
            )),
        ),
        ("VSin", 0, 0, None),
        (
            "VSin",
            -1,
            0,
            Some((
                "SinV    p0,r3,-1,8 (0 vectors)",
                "vector stream configured with count -1/0",
                -1,
            )),
        ),
        (
            "VSin",
            2,
            -3,
            Some((
                "SinV    p0,r3,2,8 (-3 vectors)",
                "vector stream configured with count 2/-3",
                -3,
            )),
        ),
        ("VSout", 0, 0, None),
        ("VSout", -1, 0, None),
        (
            "Ssend",
            0,
            0,
            Some((
                "Ssend   t1,r0,0",
                "channel stream configured with count 0",
                0,
            )),
        ),
        (
            "Ssend",
            -1,
            0,
            Some((
                "Ssend   t1,r0,-1",
                "channel stream configured with count -1",
                -1,
            )),
        ),
        (
            "Srecv",
            0,
            0,
            Some((
                "Srecv   r0,t1,0",
                "channel stream configured with count 0",
                0,
            )),
        ),
        (
            "Srecv",
            -1,
            0,
            Some((
                "Srecv   r0,t1,-1",
                "channel stream configured with count -1",
                -1,
            )),
        ),
    ];
    for &(kind, count, vectors, want) in table {
        let m = configure_and_return(stream_config(kind, count, vectors, 1));
        let tiles = if matches!(kind, "Ssend" | "Srecv") {
            2
        } else {
            1
        };
        let got = outcome(&m, &WmConfig::default().with_tiles(tiles));
        let want = match want {
            None => Ok(0),
            Some((inst, detail, payload)) => {
                Err(count_fault(inst, detail, payload, kind != "VSin"))
            }
        };
        assert_eq!(got, want, "{kind} count {count} vectors {vectors}");
    }
}

/// A channel stream is legal only on a tiled machine and only toward
/// another tile; the peer is checked before an SCU slot is looked for,
/// so a machine with no free slot still reports the bad peer.
#[test]
fn channel_streams_reject_bad_peers() {
    let bad = |detail: &str| {
        Err(format!(
            "{{\"error\": \"bad-program\", \"message\": \"bad program: {detail}\", \
             \"detail\": \"{detail}\"}}"
        ))
    };
    let range = |peer: u8| {
        format!("channel peer t{peer} is out of range for a 2-tile machine (this is tile 0)")
    };
    for kind in ["Ssend", "Srecv"] {
        for (peer, tiles, scus, want) in [
            (1, 1, 4, bad("channel instruction on a single-tile machine")),
            (5, 2, 4, bad(&range(5))),
            (0, 2, 4, bad(&range(0))),
            (5, 2, 0, bad(&range(5))),
        ] {
            let m = configure_and_return(stream_config(kind, 4, 0, peer));
            let mut cfg = WmConfig::default().with_tiles(tiles);
            cfg.num_scus = scus;
            assert_eq!(
                outcome(&m, &cfg),
                want,
                "{kind} toward t{peer} on {tiles} tile(s), {scus} SCUs"
            );
        }
    }
}

/// Each kind waits (`scu-busy`) while the previous stream on its target
/// is still running, then runs: two back-to-back streams on the same
/// FIFO, VEU port or channel FIFO both complete, in order, at a pinned
/// cycle count.
#[test]
fn busy_stream_targets_stall_until_released() {
    // tab holds 1..=32 as 32-bit ints; the FP and VEU runs check
    // completion and timing, not values
    let init: Vec<u8> = (1..=32i32).flat_map(i32::to_le_bytes).collect();
    let load_tab = |b: &mut FuncBuilder, sym| {
        b.emit(InstKind::LoadAddr {
            dst: Reg::int(3),
            sym,
            disp: 0,
        });
    };
    let sum_r0 = |b: &mut FuncBuilder, n: usize| {
        b.copy(Reg::int(2), Operand::Imm(0));
        for _ in 0..n {
            b.assign(
                Reg::int(2),
                RExpr::Bin(BinOp::Add, Reg::int(2).into(), Reg::int(0).into()),
            );
        }
    };
    let push_f0 = |b: &mut FuncBuilder, n: usize| {
        for _ in 0..n {
            b.copy(Reg::flt(0), Operand::FImm(1.5));
        }
    };
    for kind in [
        "Sin",
        "Sgather",
        "Sout",
        "Sscatter",
        "VSin",
        "VSout",
        "Ssend+Srecv",
    ] {
        let mut m = Module::new();
        let sym = m.add_data("tab", 512, 8, init.clone());
        let mut b = FuncBuilder::new("main", 0, 0);
        load_tab(&mut b, sym);
        let mut tile1 = None;
        let (want, cycles): (i64, &[u64]) = match kind {
            "Sin" | "Sgather" => {
                // two 4-element streams from the table's start: 2 * (1+2+3+4)
                // (a gather through the table itself reads tab[1..=4])
                for _ in 0..2 {
                    b.emit(stream_config(kind, 4, 0, 0));
                }
                sum_r0(&mut b, 8);
                if kind == "Sin" {
                    (20, &[29])
                } else {
                    (28, &[40])
                }
            }
            "Sout" | "Sscatter" => {
                let mut inst = stream_config(kind, 2, 0, 0);
                let f0 = DataFifo::new(RegClass::Flt, 0);
                match &mut inst {
                    InstKind::StreamOut {
                        fifo,
                        width,
                        stride,
                        ..
                    } => {
                        *fifo = f0;
                        *width = Width::D8;
                        *stride = Operand::Imm(8);
                    }
                    InstKind::StreamScatter {
                        fifo, width, shift, ..
                    } => {
                        *fifo = f0;
                        *width = Width::D8;
                        *shift = 3;
                    }
                    _ => unreachable!(),
                }
                b.emit(inst.clone());
                b.emit(inst);
                push_f0(&mut b, 4);
                b.copy(Reg::int(2), Operand::Imm(0));
                (0, if kind == "Sout" { &[22] } else { &[33] })
            }
            "VSin" => {
                for _ in 0..2 {
                    b.emit(stream_config(kind, 8, 0, 0));
                }
                b.copy(Reg::int(2), Operand::Imm(0));
                (0, &[21])
            }
            "VSout" => {
                for _ in 0..2 {
                    b.emit(stream_config(kind, 32, 0, 0));
                }
                b.emit(InstKind::VecBroadcast { dst: 0, value: 1.5 });
                b.emit(InstKind::VStore { vreg: 0 });
                b.emit(InstKind::VStore { vreg: 0 });
                b.copy(Reg::int(2), Operand::Imm(0));
                (0, &[82])
            }
            _ => {
                // tile 1 streams tab[0..4] into r0 and sends it in two
                // halves; tile 0 receives it in two halves
                let mut t1 = FuncBuilder::new("__tile1_main", 0, 0);
                load_tab(&mut t1, sym);
                let mut sin = stream_config("Sin", 4, 0, 0);
                if let InstKind::StreamIn { tested, .. } = &mut sin {
                    *tested = false;
                }
                t1.emit(sin);
                t1.emit(stream_config("Ssend", 2, 0, 0));
                t1.emit(stream_config("Ssend", 2, 0, 0));
                t1.emit(InstKind::Ret);
                let mut recv = stream_config("Srecv", 2, 0, 1);
                if let InstKind::StreamRecv { tested, .. } = &mut recv {
                    *tested = false;
                }
                b.emit(recv.clone());
                b.emit(recv);
                sum_r0(&mut b, 4);
                tile1 = Some(t1.finish());
                (10, &[1051, 21])
            }
        };
        b.emit(InstKind::Ret);
        m.add_function(b.finish());
        let tiles = if let Some(t1) = tile1 {
            m.add_function(t1);
            2
        } else {
            1
        };
        let cfg = WmConfig::default().with_tiles(tiles);
        let r =
            TiledMachine::run(&m, "main", &[], &cfg, 1).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(r.ret_int, want, "{kind}");
        let got: Vec<u64> = r.tiles.iter().map(|t| t.cycles).collect();
        assert_eq!(got, cycles, "{kind}: per-tile cycles");
        for (k, t) in r.tiles.iter().enumerate() {
            assert!(
                t.perf.ieu.stalled_on(Stall::ScuBusy) > 0,
                "{kind}: tile {k} never waited on its busy target"
            );
        }
    }
}

#[test]
fn fifo_imbalance_is_detected_as_deadlock() {
    // a dequeue with no matching load wedges the IEU
    let mut b = FuncBuilder::new("main", 0, 0);
    b.copy(Reg::int(2), Reg::int(0).into()); // dequeue from empty FIFO
    b.emit(InstKind::Ret);
    let m = module_of(b.finish());
    let err = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap_err();
    let SimError::Deadlock { detail, state, .. } = err else {
        panic!("expected deadlock, got {err}");
    };
    assert!(detail.contains("IEU"), "culprit unit named: {detail}");
    assert!(detail.contains("r0"), "starved FIFO named: {detail}");
    assert!(
        state.units[0].stall.is_some(),
        "snapshot records the IEU stall"
    );
}

#[test]
fn writes_to_zero_register_are_discarded() {
    let mut b = FuncBuilder::new("main", 0, 0);
    b.copy(Reg::int(31), Operand::Imm(123));
    b.assign(
        Reg::int(2),
        RExpr::Bin(BinOp::Add, Reg::int(31).into(), Operand::Imm(5)),
    );
    b.emit(InstKind::Ret);
    let m = module_of(b.finish());
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, 5, "r31 reads as zero even after a write");
}

#[test]
fn dual_op_evaluates_inner_then_outer() {
    let mut b = FuncBuilder::new("main", 0, 0);
    b.assign(
        Reg::int(2),
        RExpr::Dual {
            inner: BinOp::Shl,
            a: Operand::Imm(3),
            b: Operand::Imm(4),
            outer: BinOp::Sub,
            c: Operand::Imm(8),
        },
    );
    b.emit(InstKind::Ret);
    let m = module_of(b.finish());
    let r = run(&m, &WmConfig::default());
    assert_eq!(r.ret_int, (3 << 4) - 8);
}

#[test]
fn tracing_records_executed_instructions() {
    let mut b = FuncBuilder::new("main", 0, 0);
    b.assign(
        Reg::int(2),
        RExpr::Bin(BinOp::Add, Operand::Imm(40), Operand::Imm(2)),
    );
    b.emit(InstKind::Ret);
    let m = module_of(b.finish());
    let mut machine = WmMachine::new(&m, &WmConfig::default()).unwrap();
    machine.set_trace(true);
    machine.start("main", &[]).unwrap();
    let r = machine.run_to_completion().unwrap();
    assert_eq!(r.ret_int, 42);
    let trace = machine.trace();
    assert!(!trace.is_empty());
    assert!(trace
        .iter()
        .any(|e| e.unit == "IEU" && e.text.contains(":= (40) + 2")));
    // cycles are monotone
    assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}
