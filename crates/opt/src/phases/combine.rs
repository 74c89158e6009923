//! Instruction combining for the WM dual-operation form.
//!
//! "Most instructions encode two operations in a single 32-bit word …
//! `R0 := (R1 op1 R2) op2 R3`. … this simple feature subsumes many of the
//! specialized addressing modes and special operations found on many
//! existing machines", e.g. scaled addressing (`shift` + `add`) and
//! multiply-add. This phase merges a single-use binary definition into its
//! consumer, producing dual RTLs; it also forwards single-use FIFO dequeues
//! (`t := f0`) directly into the consuming expression, which is how the
//! paper's listings come to read `f4 := (f0*f1)+f4`.

use wm_ir::{Function, InstKind, Operand, RExpr, Reg};

use crate::liveness::{bit, slots, uses_of};

/// Run one combining sweep. Returns true if anything was merged.
#[must_use]
pub fn combine_duals(func: &mut Function) -> bool {
    // Count uses of every register (including the implicit Ret use),
    // keeping the first use site: only a register used once combines.
    let mut uses = vec![(0u32, (0, 0)); slots(func)];
    let add_use = |uses: &mut [(u32, (usize, usize))], r: Reg, site| {
        let (count, first) = &mut uses[bit(r)];
        if *count == 0 {
            *first = site;
        }
        *count += 1;
    };
    for (bi, block) in func.blocks.iter().enumerate() {
        for (ii, inst) in block.insts.iter().enumerate() {
            for u in uses_of(&inst.kind, func) {
                add_use(&mut uses, u, (bi, ii));
            }
        }
    }
    let mut changed = false;
    for bi in 0..func.blocks.len() {
        for ii in 0..func.blocks[bi].insts.len() {
            let def = func.blocks[bi].insts[ii].kind.clone();
            let InstKind::Assign { dst: t, src } = &def else {
                continue;
            };
            if !t.is_virt() {
                continue;
            }
            // candidate source expressions: a single binary op, or a plain
            // FIFO dequeue
            let is_bin = matches!(src, RExpr::Bin(..) | RExpr::Dual { .. });
            let is_deq = matches!(src, RExpr::Op(Operand::Reg(r)) if r.is_fifo());
            if !is_bin && !is_deq {
                continue;
            }
            let (1, (ubi, uii)) = uses[bit(*t)] else {
                continue;
            };
            if ubi != bi || uii <= ii {
                continue;
            }
            let reads_fifo = src.regs().any(|r| r.is_fifo());
            if reads_fifo && uii != ii + 1 {
                continue; // moving a dequeue past other code is unsafe
            }
            // no operand of the def may be redefined between def and use
            let operands: Vec<Reg> = src.regs().filter(|r| !r.is_fifo()).collect();
            let mut blocked = false;
            for mid in ii + 1..uii {
                let defs = func.blocks[bi].insts[mid].kind.defs();
                if defs.iter().any(|d| operands.contains(d) || d == t) {
                    blocked = true;
                    break;
                }
                // an intervening instruction reading the same FIFO would
                // change dequeue order
                if reads_fifo
                    && uses_of(&func.blocks[bi].insts[mid].kind, func)
                        .iter()
                        .any(|r| r.is_fifo())
                {
                    blocked = true;
                    break;
                }
            }
            if blocked {
                continue;
            }
            // try to rewrite the consumer
            let consumer = func.blocks[bi].insts[uii].kind.clone();
            if let Some(new_kind) = merge_into(&consumer, *t, src) {
                func.blocks[bi].insts[uii].kind = new_kind;
                func.blocks[bi].insts[ii].kind = InstKind::Nop;
                // The merged value's operand registers now have an extra
                // use site; conservatively stop combining them this sweep.
                for r in operands {
                    add_use(&mut uses, r, (bi, uii));
                }
                uses[bit(*t)].0 = 0;
                changed = true;
            }
        }
    }
    if changed {
        func.compact();
    }
    changed
}

/// Substitute definition `t := def_src` into `consumer`, producing a dual
/// RTL when legal.
fn merge_into(consumer: &InstKind, t: Reg, def_src: &RExpr) -> Option<InstKind> {
    match consumer {
        InstKind::Assign { dst, src } => {
            let merged = merge_expr(src, t, def_src)?;
            Some(InstKind::Assign {
                dst: *dst,
                src: merged,
            })
        }
        InstKind::WLoad { fifo, addr, width } => {
            let merged = merge_expr(addr, t, def_src)?;
            Some(InstKind::WLoad {
                fifo: *fifo,
                addr: merged,
                width: *width,
            })
        }
        InstKind::WStore { unit, addr, width } => {
            let merged = merge_expr(addr, t, def_src)?;
            Some(InstKind::WStore {
                unit: *unit,
                addr: merged,
                width: *width,
            })
        }
        _ => None,
    }
}

fn merge_expr(consumer: &RExpr, t: Reg, def_src: &RExpr) -> Option<RExpr> {
    let t_op = Operand::Reg(t);
    match def_src {
        // forward a FIFO dequeue: replace t by the FIFO register
        RExpr::Op(fifo_op @ Operand::Reg(fr)) if fr.is_fifo() => {
            let mut out = consumer.clone();
            // count occurrences of t; exactly one may be replaced
            let occurrences = consumer.operands().filter(|o| *o == t_op).count();
            if occurrences != 1 {
                return None;
            }
            // dequeue-order safety: the substituted read must come before
            // any existing read of the same FIFO in operand order
            let ops: Vec<Operand> = consumer.operands().collect();
            let t_pos = ops.iter().position(|o| *o == t_op)?;
            for (i, o) in ops.iter().enumerate() {
                if let Operand::Reg(r) = o {
                    if r.is_fifo() && *r == *fr && i < t_pos {
                        return None;
                    }
                }
            }
            out.substitute(t, *fifo_op);
            Some(out)
        }
        // merge a binary op into a consumer binary op → dual op
        RExpr::Bin(op1, a, b) => match consumer {
            RExpr::Bin(op2, x, y) => {
                if *x == t_op && *y != t_op {
                    Some(RExpr::Dual {
                        inner: *op1,
                        a: *a,
                        b: *b,
                        outer: *op2,
                        c: *y,
                    })
                } else if *y == t_op && *x != t_op && op2.is_commutative() {
                    Some(RExpr::Dual {
                        inner: *op1,
                        a: *a,
                        b: *b,
                        outer: *op2,
                        c: *x,
                    })
                } else {
                    None
                }
            }
            // a bare copy of t: substitute the expression wholesale
            RExpr::Op(o) if *o == t_op => Some(RExpr::Bin(*op1, *a, *b)),
            _ => None,
        },
        // a dual definition can only move wholesale into a bare use
        RExpr::Dual { .. } => match consumer {
            RExpr::Op(o) if *o == t_op => Some(def_src.clone()),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{BinOp, DataFifo, FuncBuilder, RegClass, Width};

    #[test]
    fn scaled_address_becomes_dual() {
        // t := i << 3 ; u := t + base  →  u := (i<<3) + base
        let mut b = FuncBuilder::new("f", 2, 0);
        let i = b.func().params[0];
        let base = b.func().params[1];
        let t = b.bin(BinOp::Shl, i.into(), Operand::Imm(3));
        let u = b.bin(BinOp::Add, t.into(), base.into());
        b.func_mut().ret = Some(u);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(combine_duals(&mut f));
        assert!(f.insts().any(|inst| matches!(
            &inst.kind,
            InstKind::Assign {
                src: RExpr::Dual {
                    inner: BinOp::Shl,
                    outer: BinOp::Add,
                    ..
                },
                ..
            }
        )));
        assert_eq!(f.inst_count(), 2, "shift folded away");
    }

    #[test]
    fn multiply_add_becomes_dual() {
        // s := (a*b) + s — the FMA shape of the dot-product loop
        let mut b = FuncBuilder::new("f", 0, 2);
        let x = b.func().params[0];
        let y = b.func().params[1];
        let s = b.vreg(RegClass::Flt);
        b.copy(s, Operand::FImm(0.0));
        let t = b.bin(BinOp::FMul, x.into(), y.into());
        let s2 = b.vreg(RegClass::Flt);
        b.assign(s2, RExpr::Bin(BinOp::FAdd, t.into(), s.into()));
        b.func_mut().ret = Some(s2);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(combine_duals(&mut f));
        assert!(f.insts().any(|inst| matches!(
            &inst.kind,
            InstKind::Assign {
                src: RExpr::Dual {
                    inner: BinOp::FMul,
                    outer: BinOp::FAdd,
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn fifo_dequeue_forwards_into_consumer() {
        // t := f0 ; u := t - h  →  u := (f0) - h
        let mut b = FuncBuilder::new("f", 0, 1);
        let h = b.func().params[0];
        let t = b.vreg(RegClass::Flt);
        b.copy(t, Reg::flt(0).into());
        let u = b.bin(BinOp::FSub, t.into(), h.into());
        b.func_mut().ret = Some(u);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(combine_duals(&mut f));
        assert!(f.insts().any(|inst| matches!(
            &inst.kind,
            InstKind::Assign { src: RExpr::Bin(BinOp::FSub, Operand::Reg(r), _), .. }
            if r.is_fifo()
        )));
    }

    #[test]
    fn fifo_order_violation_is_rejected() {
        // t := f0 ; u := f0 - t would swap dequeue order: must not combine
        let mut b = FuncBuilder::new("f", 0, 0);
        let t = b.vreg(RegClass::Flt);
        b.copy(t, Reg::flt(0).into());
        let u = b.vreg(RegClass::Flt);
        b.assign(u, RExpr::Bin(BinOp::FSub, Reg::flt(0).into(), t.into()));
        b.func_mut().ret = Some(u);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!combine_duals(&mut f));
    }

    #[test]
    fn multi_use_values_are_not_merged() {
        let mut b = FuncBuilder::new("f", 2, 0);
        let x = b.func().params[0];
        let y = b.func().params[1];
        let t = b.bin(BinOp::Add, x.into(), y.into());
        let _u = b.bin(BinOp::Add, t.into(), Operand::Imm(1));
        let v = b.bin(BinOp::Add, t.into(), Operand::Imm(2));
        b.func_mut().ret = Some(v);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!combine_duals(&mut f));
    }

    #[test]
    fn combines_into_wm_address_expressions() {
        let mut b = FuncBuilder::new("f", 2, 0);
        let i = b.func().params[0];
        let base = b.func().params[1];
        let t = b.bin(BinOp::Shl, i.into(), Operand::Imm(3));
        let u = b.bin(BinOp::Add, t.into(), base.into());
        b.emit(InstKind::WLoad {
            fifo: DataFifo::new(RegClass::Flt, 0),
            addr: RExpr::Op(u.into()),
            width: Width::D8,
        });
        let v = b.vreg(RegClass::Flt);
        b.copy(v, Reg::flt(0).into());
        b.emit(InstKind::GStore {
            src: v.into(),
            mem: wm_ir::MemRef::base(base, 0, Width::D8),
        });
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        // one sweep folds t into u, then the dual u into the load address
        assert!(combine_duals(&mut f));
        assert!(!combine_duals(&mut f));
        let addr = f
            .insts()
            .find_map(|inst| match &inst.kind {
                InstKind::WLoad { addr, .. } => Some(addr.clone()),
                _ => None,
            })
            .unwrap();
        assert!(
            matches!(
                addr,
                RExpr::Dual {
                    inner: BinOp::Shl,
                    outer: BinOp::Add,
                    ..
                }
            ),
            "{addr:?}"
        );
    }
}
