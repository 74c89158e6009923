//! Copy propagation.
//!
//! The paper relies on this phase to clean up after the recurrence
//! transformation: "the copy propagate optimization phase would delete the
//! register-to-register copy at line 10 replacing the use of register f23
//! at line 15 with register f22". Deletion of the then-dead copy is left to
//! dead-code elimination.

use std::collections::HashMap;

use wm_ir::{Function, InstKind, Operand, RExpr, Reg};

/// Block-local copy propagation: after `dst := src` (a plain register copy
/// or constant), uses of `dst` are replaced by `src` until either register
/// is redefined. FIFO-mapped registers are never involved: reading one has
/// queue side effects.
#[must_use]
pub fn propagate_copies(func: &mut Function) -> bool {
    // Definition counts decide the *direction* of propagation for
    // register-to-register copies: after `k := t` where `t` is a
    // single-definition temporary and `k` a multiply-defined variable,
    // later uses of `t` are rewritten to `k` (reverse mode). This
    // canonicalizes induction-variable updates lowered as
    // `t := (k) + s ; k := t ; … t …` back into a recognizable form.
    let mut def_count: HashMap<Reg, usize> = HashMap::new();
    for inst in func.insts() {
        for d in inst.kind.defs() {
            *def_count.entry(d).or_default() += 1;
        }
    }
    let mut changed = false;
    for block in &mut func.blocks {
        // dst -> replacement operand
        let mut avail: HashMap<Reg, Operand> = HashMap::new();
        for inst in &mut block.insts {
            // substitute uses first
            let uses = inst.kind.uses();
            for u in uses {
                if let Some(&rep) = avail.get(&u) {
                    changed |= inst.kind.substitute_use(u, rep);
                }
            }
            // calls clobber nothing statically here, but any def kills
            // mappings of and through the defined registers
            let defs = inst.kind.defs();
            for d in &defs {
                avail.remove(d);
                avail.retain(|_, v| *v != Operand::Reg(*d));
            }
            // record new copies
            if let InstKind::Assign { dst, src } = &inst.kind {
                if !dst.is_fifo() && !dst.is_zero() {
                    match src {
                        RExpr::Op(op @ (Operand::Imm(_) | Operand::FImm(_))) => {
                            avail.insert(*dst, *op);
                        }
                        RExpr::Op(Operand::Reg(s)) if !s.is_fifo() && !s.is_zero() && s != dst => {
                            let reverse = s.is_virt()
                                && def_count.get(s).copied().unwrap_or(0) == 1
                                && def_count.get(dst).copied().unwrap_or(0) > 1;
                            if reverse {
                                // uses of the temp become uses of the variable
                                avail.insert(*s, Operand::Reg(*dst));
                            } else {
                                avail.insert(*dst, Operand::Reg(*s));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    changed
}

/// Coalesce the `t := expr ; r := t` pattern (with `t` used nowhere else)
/// into `r := expr`. The front end produces this shape for `i = i + 1` and
/// `i += 1`, and coalescing it restores the `r := (r) + c` form the
/// induction-variable analysis recognizes.
#[must_use]
pub fn coalesce_copy_chains(func: &mut Function) -> bool {
    // count uses of each register
    let mut use_count: HashMap<Reg, usize> = HashMap::new();
    for inst in func.insts() {
        for u in inst.kind.uses() {
            *use_count.entry(u).or_default() += 1;
        }
    }
    if let Some(r) = func.ret {
        *use_count.entry(r).or_default() += 1;
    }
    let mut changed = false;
    for block in &mut func.blocks {
        for k in 0..block.insts.len().saturating_sub(1) {
            let InstKind::Assign { dst: t, src: expr } = &block.insts[k].kind else {
                continue;
            };
            let (t, expr) = (*t, expr.clone());
            if !t.is_virt() || use_count.get(&t).copied().unwrap_or(0) != 1 {
                continue;
            }
            if expr.regs().any(|r| r.is_fifo()) {
                continue; // dequeue forwarding is the combiner's job
            }
            let InstKind::Assign {
                dst: r,
                src: RExpr::Op(Operand::Reg(s)),
            } = &block.insts[k + 1].kind
            else {
                continue;
            };
            if *s != t || r.is_fifo() || r.is_zero() {
                continue;
            }
            let r = *r;
            block.insts[k + 1].kind = InstKind::Assign { dst: r, src: expr };
            block.insts[k].kind = InstKind::Nop;
            changed = true;
        }
    }
    if changed {
        func.compact();
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{BinOp, FuncBuilder, RegClass};

    #[test]
    fn propagates_register_copies_within_block() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let x = b.func().params[0];
        let t = b.vreg(RegClass::Int);
        b.copy(t, x.into());
        let u = b.bin(BinOp::Add, t.into(), Operand::Imm(1));
        let _ = u;
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(propagate_copies(&mut f));
        let add = f
            .insts()
            .find_map(|i| match &i.kind {
                InstKind::Assign {
                    src: RExpr::Bin(BinOp::Add, a, _),
                    ..
                } => Some(*a),
                _ => None,
            })
            .unwrap();
        assert_eq!(add, Operand::Reg(x));
    }

    #[test]
    fn redefinition_kills_the_copy() {
        let mut b = FuncBuilder::new("f", 2, 0);
        let x = b.func().params[0];
        let y = b.func().params[1];
        let t = b.vreg(RegClass::Int);
        b.copy(t, x.into());
        // x redefined: t no longer equals x
        b.copy(x, y.into());
        let u = b.bin(BinOp::Add, t.into(), Operand::Imm(1));
        let _ = u;
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!propagate_copies(&mut f));
        let add = f
            .insts()
            .find_map(|i| match &i.kind {
                InstKind::Assign {
                    src: RExpr::Bin(BinOp::Add, a, _),
                    ..
                } => Some(*a),
                _ => None,
            })
            .unwrap();
        assert_eq!(add, Operand::Reg(t), "t must not be replaced by stale x");
    }

    #[test]
    fn fifo_reads_are_not_copies() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let t = b.vreg(RegClass::Flt);
        // t := f0 dequeues — not a propagatable copy
        b.copy(t, Reg::flt(0).into());
        let u = b.bin(BinOp::FAdd, t.into(), t.into());
        let _ = u;
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!propagate_copies(&mut f));
        let still_t = f.insts().any(|i| {
            matches!(&i.kind, InstKind::Assign { src: RExpr::Bin(BinOp::FAdd, a, b), .. }
                if *a == Operand::Reg(t) && *b == Operand::Reg(t))
        });
        assert!(still_t, "f0 must not be duplicated into the use");
    }

    #[test]
    fn constants_propagate() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let t = b.vreg(RegClass::Int);
        b.copy(t, Operand::Imm(5));
        let u = b.bin(BinOp::Mul, t.into(), t.into());
        let _ = u;
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(propagate_copies(&mut f));
        assert!(f.insts().any(|i| matches!(
            &i.kind,
            InstKind::Assign {
                src: RExpr::Bin(BinOp::Mul, Operand::Imm(5), Operand::Imm(5)),
                ..
            }
        )));
    }
}
