//! Vectorization of elementwise map loops onto the VEU.
//!
//! "The architecture also supports vector operations … Conceptually the
//! iterations of the loop are performed simultaneously by the vector
//! execution unit (VEU)." And: "of course, when vector code is possible,
//! the compiler generates code that uses the vector unit. It is the
//! compiler's responsibility to detect codes that have recurrences and to
//! generate streaming code."
//!
//! This pass recognizes countable innermost loops whose body is a pure
//! elementwise **map** over doubles —
//!
//! ```text
//! for (i = lo; i < hi; i++)  c[i] = a[i] ⊙ b[i];      // or a[i] ⊙ konst
//! ```
//!
//! — with unit-coefficient safe partitions and no loop-carried dependence,
//! and rewrites them as a vector loop over N-element groups:
//!
//! ```text
//!     full  := count / N            -- number of whole vectors
//!     fullN := full * N
//!     SinV p0, &a[lo], fullN        -- streams feed the VEU ports
//!     SinV p1, &b[lo], fullN
//!     SoutV    &c[lo], fullN
//! vloop:
//!     vld v1, p0 ; vld v2, p1 ; vop v0 := v1 ⊙ v2 ; vst v0
//!     jNIv vloop
//! tail:
//!     i := lo + fullN               -- the original loop handles count % N
//!     if (i cmp hi) goto original_body
//! ```
//!
//! Anything the pattern does not cover (reductions, recurrences,
//! conditionals, integer data) is left for the streaming pass, exactly the
//! division of labor the paper describes.

use wm_ir::{BinOp, CmpOp, Function, InstKind, Label, Operand, RExpr, Reg, RegClass, Width};

use crate::affine::{analyze_latch, LatchInfo, LoopAnalysis, Region};
use crate::cfg::{ensure_preheader, natural_loops, Dominators};
use crate::partition::{build_partitions, AliasModel};
use crate::streaming::{emit_trip_count, insert_before_jump, static_trip_count};

/// The VEU's vector length N: the elements in one vector group.
const N: i64 = wm_ir::hw::VECTOR_LENGTH as i64;

/// What the pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VectorReport {
    /// Map loops rewritten onto the VEU.
    pub loops_vectorized: usize,
}

/// One recognized streamed operand of the map.
#[derive(Debug, Clone, Copy)]
enum MapInput {
    /// `a[i]`-style read, with its region/offset for the stream base.
    Array { region: Region, off: i64 },
    /// A floating-point literal.
    Const(f64),
}

/// Vectorize every eligible innermost map loop of `func` (WM-expanded
/// form) into groups of [`wm_ir::hw::VECTOR_LENGTH`] elements.
#[must_use]
pub fn vectorize_maps(func: &mut Function, alias: AliasModel) -> VectorReport {
    let mut report = VectorReport::default();
    let mut visited: Vec<Label> = Vec::new();
    loop {
        let dom = Dominators::compute(func);
        let loops = natural_loops(func, &dom);
        let candidate = loops
            .iter()
            .find(|lp| lp.is_innermost(&loops) && !visited.contains(&func.blocks[lp.header].label));
        let Some(lp) = candidate else { break };
        visited.push(func.blocks[lp.header].label);
        let lp = lp.clone();
        if vectorize_one(func, &lp, &dom, alias) {
            report.loops_vectorized += 1;
        }
    }
    report
}

fn vectorize_one(
    func: &mut Function,
    lp: &crate::cfg::Loop,
    dom: &Dominators,
    alias: AliasModel,
) -> bool {
    // single-block loop only
    if lp.blocks.len() != 1 || lp.latches.len() != 1 {
        return false;
    }
    let body = lp.header;

    // ---- analysis ----
    let plan = {
        let la = LoopAnalysis::new(func, lp, dom);
        let Some(latch) = analyze_latch(&la) else {
            return false;
        };
        if !latch.iv.is_const_step() || latch.iv.step != 1 {
            return false; // unit steps only (stride = 8 bytes)
        }
        let parts = build_partitions(&la, alias);
        recognize_map(func, &la, &parts, body, latch)
    };
    let Some(plan) = plan else { return false };
    if plan.static_count.is_some_and(|c| c < 2 * N) {
        return false; // not worth a vector setup
    }

    // ---- transformation ----
    let pre = ensure_preheader(func, lp);
    let body_label = func.blocks[body].label;

    // count (elements) into a register
    let count = match plan.static_count {
        Some(c) => Operand::Imm(c),
        None => emit_trip_count(func, pre, &plan.latch),
    };
    // full := count / N ; fullN := full * N
    let full = new_int(func, pre, RExpr::Bin(BinOp::Div, count, Operand::Imm(N)));
    let full_n = new_int(
        func,
        pre,
        RExpr::Bin(BinOp::Mul, full.into(), Operand::Imm(N)),
    );

    // stream bases (the IV register still holds its initial value here)
    let iv = plan.latch.iv.reg;
    let mut ports = Vec::new();
    let mut next_port = 0u8;
    for input in &plan.inputs {
        match input {
            MapInput::Array { region, off } => {
                let base = emit_region_base(func, pre, *region, *off, iv);
                let vectors = if next_port == 0 {
                    Operand::Reg(full)
                } else {
                    Operand::Imm(0) // only one stream loads the counter
                };
                insert_before_jump(
                    func,
                    pre,
                    InstKind::VStreamIn {
                        port: next_port,
                        base,
                        count: full_n.into(),
                        stride: Operand::Imm(8),
                        vectors,
                    },
                );
                ports.push(Some(next_port));
                next_port += 1;
            }
            MapInput::Const(_) => ports.push(None),
        }
    }
    let out_base = emit_region_base(func, pre, plan.out_region, plan.out_off, iv);
    insert_before_jump(
        func,
        pre,
        InstKind::VStreamOut {
            base: out_base,
            count: full_n.into(),
            stride: Operand::Imm(8),
        },
    );

    // vector loop block
    let vloop = func.add_block();
    // tail head: bump the IV past the vectorized elements and re-test
    let tail = func.add_block();

    // preheader jumps to the vector loop instead of the body
    {
        let pre_block = func.block_mut(pre);
        let last = pre_block.insts.last_mut().expect("preheader jump");
        *last.kind.targets_mut()[0] = vloop;
    }

    // splat constants once, before the loop? They live in vector registers
    // v3+; emit them at the top of the vector loop's preheader path by
    // putting them in the vloop block before the loads would re-splat each
    // iteration — cheap (1 cycle) and keeps the pass simple.
    let mut kinds: Vec<InstKind> = Vec::new();
    let mut in_regs = [0u8; 2];
    let mut splat_reg = 3u8;
    for (k, input) in plan.inputs.iter().enumerate() {
        match (input, ports[k]) {
            (MapInput::Array { .. }, Some(p)) => {
                let vreg = (k + 1) as u8;
                kinds.push(InstKind::VLoad { vreg, port: p });
                in_regs[k] = vreg;
            }
            (MapInput::Const(v), _) => {
                kinds.push(InstKind::VecBroadcast {
                    dst: splat_reg,
                    value: *v,
                });
                in_regs[k] = splat_reg;
                splat_reg += 1;
            }
            _ => unreachable!(),
        }
    }
    kinds.push(InstKind::VecBin {
        op: plan.op,
        dst: 0,
        a: in_regs[0],
        b: in_regs[1],
    });
    kinds.push(InstKind::VStore { vreg: 0 });
    kinds.push(InstKind::BranchVec {
        target: vloop,
        els: tail,
    });
    for k in kinds {
        func.push(vloop, k);
    }

    // tail: iv += fullN ; if (iv cmp bound) goto body else exit
    func.push(
        tail,
        InstKind::Assign {
            dst: iv,
            src: RExpr::Bin(BinOp::Add, iv.into(), full_n.into()),
        },
    );
    func.push(
        tail,
        InstKind::Compare {
            class: RegClass::Int,
            op: plan.tail_cmp,
            a: iv.into(),
            b: plan.bound,
        },
    );
    func.push(
        tail,
        InstKind::Branch {
            class: RegClass::Int,
            when: true,
            target: body_label,
            els: plan.exit,
        },
    );
    true
}

/// The recognized map.
struct MapPlan {
    inputs: Vec<MapInput>,
    op: BinOp,
    out_region: Region,
    out_off: i64,
    latch: LatchInfo,
    static_count: Option<i64>,
    /// the continue-comparison for the scalar tail
    tail_cmp: CmpOp,
    bound: Operand,
    exit: Label,
}

/// Match the loop body against the map pattern. Expected WM-expanded shape
/// (modulo interleaving):
///
/// ```text
/// WLoad a ; va := f0 ; [WLoad b ; vb := f0 ;]
/// f0 := va ⊙ vb|konst ; WStore c ; iv := iv + 1 ; Compare ; Branch
/// ```
#[allow(clippy::too_many_lines)]
fn recognize_map(
    func: &Function,
    la: &LoopAnalysis<'_>,
    parts: &crate::partition::PartitionSet,
    body: usize,
    latch: LatchInfo,
) -> Option<MapPlan> {
    use std::collections::HashMap;

    // every partition must be safe, unit-iv, D8 and recurrence-free
    let mut region_of_ref: HashMap<wm_ir::InstId, (Region, i64)> = HashMap::new();
    for p in &parts.partitions {
        if !p.safe || p.region == Region::Unknown || p.cee != 8 || p.sym_step.is_some() {
            return None;
        }
        if !p.recurrence_pairs().is_empty() || p.has_same_offset_rw() {
            // a read-modify-write map (c[i] = c[i] op k) would need the
            // read and write ordered through the VEU; skip
            return None;
        }
        for r in &p.refs {
            let a = r.affine.as_ref()?;
            if a.inv.is_some() || a.off != 0 {
                return None; // keep the pattern strict: c[i] = a[i] ⊙ b[i]
            }
            region_of_ref.insert(r.id, (p.region, a.off));
        }
    }

    let insts = &func.blocks[body].insts;
    let mut loads: Vec<(Region, i64, Reg)> = Vec::new(); // (region, off, dequeued-into)
    let mut store: Option<(Region, i64)> = None;
    // the compute may appear fused into the enqueue (`f0 := va ⊙ vb`, the
    // post-combine form) or as a separate instruction followed by an
    // enqueueing copy (`v := va ⊙ vb ; f0 := v`, the expansion form)
    let mut compute: Option<(Reg, BinOp, Operand, Operand)> = None;
    let mut enqueued: Option<Operand> = None;
    let mut i = 0;
    while i < insts.len() {
        match &insts[i].kind {
            InstKind::WLoad { fifo, width, .. } => {
                if *width != Width::D8 || fifo.class != RegClass::Flt || fifo.index != 0 {
                    return None;
                }
                let (region, off) = *region_of_ref.get(&insts[i].id)?;
                // paired dequeue must follow immediately
                let InstKind::Assign { dst, src } = &insts.get(i + 1)?.kind else {
                    return None;
                };
                if *src != RExpr::Op(Operand::Reg(Reg::flt(0))) || dst.is_fifo() {
                    return None;
                }
                loads.push((region, off, *dst));
                i += 2;
            }
            InstKind::Assign { dst, src } if *dst == Reg::flt(0) => {
                if enqueued.is_some() {
                    return None;
                }
                match src {
                    RExpr::Bin(op, a, b) if op.is_float() => {
                        if compute.is_some() {
                            return None;
                        }
                        compute = Some((Reg::flt(0), *op, *a, *b));
                        enqueued = Some(Operand::Reg(Reg::flt(0)));
                    }
                    RExpr::Op(a @ Operand::Reg(_)) => enqueued = Some(*a),
                    _ => return None,
                }
                i += 1;
            }
            InstKind::Assign { dst, src } if !dst.is_fifo() && *dst != latch.iv.reg => {
                // the separate compute instruction
                if compute.is_some() {
                    return None;
                }
                let RExpr::Bin(op, a, b) = src else {
                    return None;
                };
                if !op.is_float() {
                    return None;
                }
                compute = Some((*dst, *op, *a, *b));
                i += 1;
            }
            InstKind::WStore { unit, width, .. } => {
                if *width != Width::D8 || *unit != RegClass::Flt || store.is_some() {
                    return None;
                }
                let (region, off) = *region_of_ref.get(&insts[i].id)?;
                store = Some((region, off));
                i += 1;
            }
            InstKind::Assign { dst, src } if *dst == latch.iv.reg => {
                // the IV increment, already validated by the analysis
                let RExpr::Bin(BinOp::Add, _, _) = src else {
                    return None;
                };
                i += 1;
            }
            InstKind::Compare { .. } | InstKind::Branch { .. } => i += 1,
            _ => return None,
        }
    }
    let (cdst, op, a, b) = compute?;
    // the enqueued value must be the compute's result
    match enqueued? {
        Operand::Reg(r) if r == cdst || r.is_fifo() => {}
        _ => return None,
    }
    let (out_region, out_off) = store?;
    if loads.is_empty() || loads.len() > 2 {
        return None;
    }
    // map the compute operands onto the loads / constants, in order
    let mut inputs = Vec::new();
    for operand in [a, b] {
        match operand {
            Operand::Reg(r) => {
                let (region, off, _) = loads.iter().find(|(_, _, v)| *v == r)?;
                inputs.push(MapInput::Array {
                    region: *region,
                    off: *off,
                });
            }
            Operand::FImm(v) => inputs.push(MapInput::Const(v)),
            Operand::Imm(_) => return None,
        }
    }
    // operand order must match dequeue (load) order for FIFO-less VEU ports
    let array_order: Vec<Region> = inputs
        .iter()
        .filter_map(|m| match m {
            MapInput::Array { region, .. } => Some(*region),
            MapInput::Const(_) => None,
        })
        .collect();
    let load_order: Vec<Region> = loads.iter().map(|(r, _, _)| *r).collect();
    if array_order != load_order {
        return None;
    }
    // the out region must not be read
    if inputs
        .iter()
        .any(|m| matches!(m, MapInput::Array { region, .. } if *region == out_region))
    {
        return None;
    }

    // exit label of the latch branch
    let (lbi, lii) = latch.branch;
    let header_label = func.blocks[la.lp.header].label;
    let InstKind::Branch { target, els, .. } = &func.blocks[lbi].insts[lii].kind else {
        return None;
    };
    let exit = if *target == header_label {
        *els
    } else {
        *target
    };

    let static_count = {
        // reuse the streaming pass's logic through the public helper
        static_trip_count(la, &latch)
    };
    Some(MapPlan {
        inputs,
        op,
        out_region,
        out_off,
        latch,
        static_count,
        tail_cmp: latch.cmp,
        bound: latch.bound,
        exit,
    })
}

fn new_int(func: &mut Function, pre: Label, src: RExpr) -> Reg {
    let r = func.new_vreg(RegClass::Int);
    insert_before_jump(func, pre, InstKind::Assign { dst: r, src });
    r
}

fn emit_region_base(func: &mut Function, pre: Label, region: Region, off: i64, iv: Reg) -> Operand {
    let base = func.new_vreg(RegClass::Int);
    match region {
        Region::Global(sym) => insert_before_jump(
            func,
            pre,
            InstKind::LoadAddr {
                dst: base,
                sym,
                disp: off,
            },
        ),
        Region::Reg(r) => insert_before_jump(
            func,
            pre,
            InstKind::Assign {
                dst: base,
                src: RExpr::Bin(BinOp::Add, r.into(), Operand::Imm(off)),
            },
        ),
        Region::Unknown => unreachable!("unknown regions rejected"),
    }
    let addr = func.new_vreg(RegClass::Int);
    insert_before_jump(
        func,
        pre,
        InstKind::Assign {
            dst: addr,
            src: RExpr::Dual {
                inner: BinOp::Shl,
                a: iv.into(),
                b: Operand::Imm(3),
                outer: BinOp::Add,
                c: base.into(),
            },
        },
    );
    Operand::Reg(addr)
}
