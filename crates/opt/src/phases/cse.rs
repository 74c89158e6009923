//! Local common-subexpression elimination.

use std::collections::HashMap;

use wm_ir::{Function, InstKind, Operand, RExpr, Reg};

/// A hashable key for pure expressions. Floating-point immediates are keyed
/// by their bit patterns. The order only puts commutative operands in a
/// canonical order; any total order gives the same classes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    Reg(Reg),
    Imm(i64),
    FBits(u64),
}

fn key_of(op: Operand) -> Key {
    match op {
        Operand::Reg(r) => Key::Reg(r),
        Operand::Imm(v) => Key::Imm(v),
        Operand::FImm(v) => Key::FBits(v.to_bits()),
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Un(wm_ir::UnOp, Key),
    Bin(wm_ir::BinOp, Key, Key),
    Dual(wm_ir::BinOp, Key, Key, wm_ir::BinOp, Key),
    Addr(wm_ir::SymId, i64),
}

/// Eliminate repeated pure computations within each basic block, rewriting
/// later occurrences into copies of the first result. Expressions touching
/// FIFO registers are skipped (each read dequeues).
#[must_use]
pub fn eliminate_common_subexpressions(func: &mut Function) -> bool {
    let mut changed = false;
    for block in &mut func.blocks {
        let mut avail: HashMap<ExprKey, Reg> = HashMap::new();
        for inst in &mut block.insts {
            let key = match &inst.kind {
                InstKind::Assign { dst, src }
                    if !dst.is_fifo() && !dst.is_zero() && !src.regs().any(|r| r.is_fifo()) =>
                {
                    match src {
                        RExpr::Un(op, a) => Some(ExprKey::Un(*op, key_of(*a))),
                        RExpr::Bin(op, a, b) => {
                            let (ka, kb) = (key_of(*a), key_of(*b));
                            // canonicalize commutative operand order
                            if op.is_commutative() && kb < ka {
                                Some(ExprKey::Bin(*op, kb, ka))
                            } else {
                                Some(ExprKey::Bin(*op, ka, kb))
                            }
                        }
                        RExpr::Dual {
                            inner,
                            a,
                            b,
                            outer,
                            c,
                        } => Some(ExprKey::Dual(
                            *inner,
                            key_of(*a),
                            key_of(*b),
                            *outer,
                            key_of(*c),
                        )),
                        RExpr::Op(_) => None,
                    }
                }
                InstKind::LoadAddr { sym, disp, .. } => Some(ExprKey::Addr(*sym, *disp)),
                _ => None,
            };
            // rewrite a repeated expression into a copy of the first result
            let mut rewrote = false;
            if let Some(key) = &key {
                if let Some(&prev) = avail.get(key) {
                    let dst = match &inst.kind {
                        InstKind::Assign { dst, .. } => *dst,
                        InstKind::LoadAddr { dst, .. } => *dst,
                        _ => unreachable!(),
                    };
                    if prev != dst {
                        inst.kind = InstKind::Assign {
                            dst,
                            src: RExpr::Op(Operand::Reg(prev)),
                        };
                        changed = true;
                        rewrote = true;
                    }
                }
            }
            // kill available expressions whose operands are redefined
            let defs = inst.kind.defs();
            if !defs.is_empty() {
                avail.retain(|k, v| {
                    if defs.contains(v) {
                        return false;
                    }
                    let reads = |key: &Key| matches!(key, Key::Reg(r) if defs.contains(r));
                    !match k {
                        ExprKey::Un(_, a) => reads(a),
                        ExprKey::Bin(_, a, b) => reads(a) || reads(b),
                        ExprKey::Dual(_, a, b, _, c) => reads(a) || reads(b) || reads(c),
                        ExprKey::Addr(..) => false,
                    }
                });
            }
            // record the new expression, unless its own destination feeds it
            if let (Some(key), false) = (key, rewrote) {
                let dst = match &inst.kind {
                    InstKind::Assign { dst, .. } => *dst,
                    InstKind::LoadAddr { dst, .. } => *dst,
                    _ => unreachable!(),
                };
                if !inst.kind.uses().contains(&dst) {
                    avail.entry(key).or_insert(dst);
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{BinOp, FuncBuilder, RegClass};

    #[test]
    fn duplicate_expression_becomes_copy() {
        let mut b = FuncBuilder::new("f", 2, 0);
        let x = b.func().params[0];
        let y = b.func().params[1];
        let t1 = b.bin(BinOp::Add, x.into(), y.into());
        let t2 = b.bin(BinOp::Add, x.into(), y.into());
        let _ = (t1, t2);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(eliminate_common_subexpressions(&mut f));
        assert!(f.insts().any(|i| matches!(
            &i.kind,
            InstKind::Assign { src: RExpr::Op(Operand::Reg(r)), .. } if *r == t1
        )));
    }

    #[test]
    fn commutative_operands_are_canonicalized() {
        let mut b = FuncBuilder::new("f", 2, 0);
        let x = b.func().params[0];
        let y = b.func().params[1];
        b.bin(BinOp::Add, x.into(), y.into());
        b.bin(BinOp::Add, y.into(), x.into());
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(eliminate_common_subexpressions(&mut f));
    }

    #[test]
    fn redefinition_invalidates() {
        let mut b = FuncBuilder::new("f", 2, 0);
        let x = b.func().params[0];
        let y = b.func().params[1];
        b.bin(BinOp::Sub, x.into(), y.into());
        b.copy(x, Operand::Imm(0));
        b.bin(BinOp::Sub, x.into(), y.into());
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!eliminate_common_subexpressions(&mut f));
    }

    #[test]
    fn loadaddr_is_deduplicated() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let sym = wm_ir::SymId(0);
        let r1 = b.vreg(RegClass::Int);
        let r2 = b.vreg(RegClass::Int);
        b.emit(InstKind::LoadAddr {
            dst: r1,
            sym,
            disp: 0,
        });
        b.emit(InstKind::LoadAddr {
            dst: r2,
            sym,
            disp: 0,
        });
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(eliminate_common_subexpressions(&mut f));
        assert!(f.insts().any(|i| matches!(
            &i.kind,
            InstKind::Assign { dst, src: RExpr::Op(Operand::Reg(r)) } if *dst == r2 && *r == r1
        )));
    }

    #[test]
    fn fifo_expressions_are_not_merged() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let a = b.bin(BinOp::FAdd, Reg::flt(0).into(), Operand::FImm(1.0));
        let c = b.bin(BinOp::FAdd, Reg::flt(0).into(), Operand::FImm(1.0));
        let _ = (a, c);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!eliminate_common_subexpressions(&mut f));
    }
}
