//! Constant folding and algebraic simplification.

use wm_ir::{BinOp, Function, InstKind, Operand, RExpr, Reg, UnOp};

/// Fold constant subexpressions and apply safe algebraic identities.
/// Floating-point identities are left alone (NaN / signed-zero hazards);
/// FIFO-register operands are never dropped (reading one dequeues).
#[must_use]
pub fn fold_constants(func: &mut Function) -> bool {
    let mut changed = false;
    for inst in func.insts_mut() {
        if let InstKind::Assign { src, .. } = &mut inst.kind {
            if let Some(new) = fold_expr(src) {
                *src = new;
                changed = true;
            }
        }
        if let InstKind::WLoad { addr, .. } | InstKind::WStore { addr, .. } = &mut inst.kind {
            if let Some(new) = fold_expr(addr) {
                *addr = new;
                changed = true;
            }
        }
    }
    changed
}

fn is_droppable(op: Operand) -> bool {
    match op {
        Operand::Reg(r) => !r.is_fifo(),
        _ => true,
    }
}

fn fold_expr(e: &RExpr) -> Option<RExpr> {
    match e {
        RExpr::Op(Operand::Reg(r)) if r.is_zero() && r.class == wm_ir::RegClass::Int => {
            Some(RExpr::Op(Operand::Imm(0)))
        }
        RExpr::Un(op, a) => fold_un(*op, *a),
        RExpr::Bin(op, a, b) => fold_bin(*op, *a, *b),
        RExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => {
            // Fold the inner pair first; a fully-folded inner collapses the
            // dual into a single binary operation.
            if let Some(folded) = fold_bin(*inner, *a, *b) {
                match folded {
                    RExpr::Op(x) => {
                        return fold_bin(*outer, x, *c).or(Some(RExpr::Bin(*outer, x, *c)))
                    }
                    RExpr::Bin(i2, a2, b2) => {
                        return Some(RExpr::Dual {
                            inner: i2,
                            a: a2,
                            b: b2,
                            outer: *outer,
                            c: *c,
                        })
                    }
                    _ => {}
                }
            }
            None
        }
        _ => None,
    }
}

fn fold_un(op: UnOp, a: Operand) -> Option<RExpr> {
    match (op, a) {
        (UnOp::Neg, Operand::Imm(v)) => Some(RExpr::Op(Operand::Imm(v.wrapping_neg()))),
        (UnOp::Not, Operand::Imm(v)) => Some(RExpr::Op(Operand::Imm(!v))),
        (UnOp::FNeg, Operand::FImm(v)) => Some(RExpr::Op(Operand::FImm(-v))),
        (UnOp::IntToFlt, Operand::Imm(v)) => Some(RExpr::Op(Operand::FImm(v as f64))),
        (UnOp::FltToInt, Operand::FImm(v)) => Some(RExpr::Op(Operand::Imm(v as i64))),
        _ => None,
    }
}

fn fold_bin(op: BinOp, a: Operand, b: Operand) -> Option<RExpr> {
    // full constant folding
    if let (Operand::Imm(x), Operand::Imm(y)) = (a, b) {
        if let Some(v) = op.fold_int(x, y) {
            return Some(RExpr::Op(Operand::Imm(v)));
        }
    }
    if let (Operand::FImm(x), Operand::FImm(y)) = (a, b) {
        if let Some(v) = op.fold_flt(x, y) {
            return Some(RExpr::Op(Operand::FImm(v)));
        }
    }
    // integer identities (never drop a FIFO read)
    match (op, a, b) {
        (BinOp::Add, x, Operand::Imm(0)) if is_droppable(x) => Some(RExpr::Op(x)),
        (BinOp::Add, Operand::Imm(0), x) if is_droppable(x) => Some(RExpr::Op(x)),
        (BinOp::Sub, x, Operand::Imm(0)) if is_droppable(x) => Some(RExpr::Op(x)),
        (BinOp::Mul, x, Operand::Imm(1)) if is_droppable(x) => Some(RExpr::Op(x)),
        (BinOp::Mul, Operand::Imm(1), x) if is_droppable(x) => Some(RExpr::Op(x)),
        (BinOp::Mul, x, Operand::Imm(0)) if is_droppable(x) => Some(RExpr::Op(Operand::Imm(0))),
        (BinOp::Mul, Operand::Imm(0), x) if is_droppable(x) => Some(RExpr::Op(Operand::Imm(0))),
        (BinOp::Shl, x, Operand::Imm(0)) if is_droppable(x) => Some(RExpr::Op(x)),
        (BinOp::Shr, x, Operand::Imm(0)) if is_droppable(x) => Some(RExpr::Op(x)),
        (BinOp::Mul, x, Operand::Imm(k)) if k > 1 && (k as u64).is_power_of_two() => Some(
            RExpr::Bin(BinOp::Shl, x, Operand::Imm(k.trailing_zeros() as i64)),
        ),
        // x - x = 0 for plain registers
        (BinOp::Sub, Operand::Reg(x), Operand::Reg(y)) if x == y && !x.is_fifo() => {
            Some(RExpr::Op(Operand::Imm(0)))
        }
        _ => None,
    }
}

/// Fold a `Compare` between two integer constants together with the
/// `Branch` that consumes it into an unconditional jump. The pair must be
/// adjacent so the condition-code FIFO discipline is preserved.
#[must_use]
pub fn fold_constant_branches(func: &mut Function) -> bool {
    let mut changed = false;
    for block in &mut func.blocks {
        let n = block.insts.len();
        if n < 2 {
            continue;
        }
        let (cmp_i, br_i) = (n - 2, n - 1);
        let verdict = match (&block.insts[cmp_i].kind, &block.insts[br_i].kind) {
            (
                InstKind::Compare {
                    class: c1,
                    op,
                    a: Operand::Imm(x),
                    b: Operand::Imm(y),
                },
                InstKind::Branch {
                    class: c2,
                    when,
                    target,
                    els,
                },
            ) if c1 == c2 => {
                let hold = op.eval_int(*x, *y);
                let dest = if hold == *when { *target } else { *els };
                Some(dest)
            }
            _ => None,
        };
        if let Some(dest) = verdict {
            block.insts[cmp_i].kind = InstKind::Nop;
            block.insts[br_i].kind = InstKind::Jump { target: dest };
            changed = true;
        }
    }
    if changed {
        func.compact();
    }
    changed
}

/// Global constant propagation for single-definition registers: a virtual
/// register defined exactly once as `r := imm` can replace every dominated
/// use. (With a single definition and reachable uses, the definition
/// dominates every use in code produced by the front end; we verify with
/// the dominator tree.)
#[must_use]
pub fn propagate_single_def_constants(func: &mut Function) -> bool {
    use crate::affine::def_map;
    use crate::cfg::Dominators;

    let defs = def_map(func);
    let mut subs: Vec<(Reg, Operand, (usize, usize))> = Vec::new();
    for (reg, sites) in defs.iter() {
        if !reg.is_virt() || sites.len() != 1 {
            continue;
        }
        let (bi, ii) = sites[0];
        if let InstKind::Assign {
            src: RExpr::Op(op @ (Operand::Imm(_) | Operand::FImm(_))),
            ..
        } = &func.blocks[bi].insts[ii].kind
        {
            subs.push((reg, *op, (bi, ii)));
        }
    }
    if subs.is_empty() {
        return false;
    }
    let dom = Dominators::compute(func);
    let mut changed = false;
    for (reg, op, (dbi, dii)) in subs {
        for bi in 0..func.blocks.len() {
            if !dom.is_reachable(bi) {
                continue;
            }
            for ii in 0..func.blocks[bi].insts.len() {
                let dominated = if bi == dbi {
                    ii > dii
                } else {
                    dom.dominates(dbi, bi)
                };
                if !dominated {
                    continue;
                }
                changed |= func.blocks[bi].insts[ii].kind.substitute_use(reg, op);
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{CmpOp, FuncBuilder, Operand, RegClass};

    #[test]
    fn folds_arithmetic() {
        assert_eq!(
            fold_bin(BinOp::Add, Operand::Imm(2), Operand::Imm(3)),
            Some(RExpr::Op(Operand::Imm(5)))
        );
        assert_eq!(
            fold_bin(BinOp::Mul, Operand::Reg(Reg::int(5)), Operand::Imm(8)),
            Some(RExpr::Bin(
                BinOp::Shl,
                Operand::Reg(Reg::int(5)),
                Operand::Imm(3)
            ))
        );
    }

    #[test]
    fn does_not_drop_fifo_reads() {
        // f0 * 0 must NOT fold to 0: the dequeue is a side effect.
        assert_eq!(
            fold_bin(BinOp::Mul, Operand::Reg(Reg::flt(0)), Operand::Imm(0)),
            None
        );
        assert_eq!(
            fold_bin(BinOp::Add, Operand::Reg(Reg::int(0)), Operand::Imm(0)),
            None
        );
    }

    #[test]
    fn folds_constant_branch_pairs() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let t = b.new_block();
        let e = b.new_block();
        b.branch_if(
            RegClass::Int,
            CmpOp::Lt,
            Operand::Imm(1),
            Operand::Imm(2),
            t,
            e,
        );
        b.switch_to(t);
        b.emit(InstKind::Ret);
        b.switch_to(e);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(fold_constant_branches(&mut f));
        // entry now ends in an unconditional jump to the taken target
        let last = f.blocks[0].insts.last().unwrap();
        assert_eq!(last.kind, InstKind::Jump { target: t });
        // untaken block is unreachable and got compacted away
        assert_eq!(f.blocks.len(), 2);
    }

    #[test]
    fn propagates_single_def_constants() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let c = b.vreg(RegClass::Int);
        b.copy(c, Operand::Imm(42));
        let r = b.bin(BinOp::Add, c.into(), Operand::Imm(1));
        let _ = r;
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(propagate_single_def_constants(&mut f));
        assert!(fold_constants(&mut f));
        let kinds: Vec<_> = f.insts().map(|i| i.kind.clone()).collect();
        assert!(kinds.iter().any(|k| matches!(
            k,
            InstKind::Assign {
                src: RExpr::Op(Operand::Imm(43)),
                ..
            }
        )));
    }

    #[test]
    fn folds_dual_with_constant_inner() {
        let e = RExpr::Dual {
            inner: BinOp::Shl,
            a: Operand::Imm(2),
            b: Operand::Imm(3),
            outer: BinOp::Add,
            c: Operand::Reg(Reg::int(4)),
        };
        let folded = fold_expr(&e).unwrap();
        assert_eq!(
            folded,
            RExpr::Bin(BinOp::Add, Operand::Imm(16), Operand::Reg(Reg::int(4)))
        );
    }
}
