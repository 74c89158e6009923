//! Loop-invariant code motion.
//!
//! The paper notes that "loop detection and code motion must be performed
//! first" before the recurrence algorithm; hoisting address formation
//! (`llh`/`sll` pairs, here `LoadAddr`) out of loops is what produces the
//! Figure 4 shape with array base addresses set up ahead of the loop.

use wm_ir::fx::FxHashSet;
use wm_ir::{BinOp, Function, Inst, InstKind, RExpr, Reg};

use crate::cfg::{ensure_preheader, natural_loops, Dominators};
use crate::liveness::{bit, slots};

/// Hoist loop-invariant pure instructions into loop preheaders.
///
/// An instruction is hoisted when it is a pure `Assign`/`LoadAddr`, its
/// destination is a virtual register with a single definition in the whole
/// function, every register operand is defined outside the loop (or is
/// itself hoisted), and speculation is safe (no division). Single-definition
/// virtual registers make the transformation sound without a full
/// reaching-definition analysis.
#[must_use]
pub fn hoist_invariants(func: &mut Function) -> bool {
    // Motion only moves instructions, and a new preheader holds only a
    // jump, so the definition counts hold for the whole call.
    let mut def_count = vec![0u32; slots(func)];
    for inst in func.insts() {
        inst.kind.for_each_def(|d| def_count[bit(d)] += 1);
    }
    let mut any = false;
    // Re-discover loops after each round of motion (preheader insertion
    // invalidates indices).
    loop {
        let dom = Dominators::compute(func);
        let loops = natural_loops(func, &dom);
        let mut moved = false;
        for lp in &loops {
            let mut defined_in_loop: FxHashSet<Reg> = FxHashSet::default();
            for &bi in &lp.blocks {
                for inst in &func.blocks[bi].insts {
                    inst.kind.for_each_def(|d| {
                        defined_in_loop.insert(d);
                    });
                }
            }
            // Each hoisted instruction is its destination's only
            // definition, so `invariant` also marks what is hoisted.
            let mut invariant: FxHashSet<Reg> = FxHashSet::default();
            let mut to_hoist: Vec<(usize, usize)> = Vec::new();
            // iterate to fixpoint within the loop
            let mut grew = true;
            while grew {
                grew = false;
                for &bi in &lp.blocks {
                    for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
                        let Some(dst) = hoistable(inst, &def_count, &defined_in_loop, &invariant)
                        else {
                            continue;
                        };
                        if invariant.insert(dst) {
                            to_hoist.push((bi, ii));
                            grew = true;
                        }
                    }
                }
            }
            if to_hoist.is_empty() {
                continue;
            }
            let pre = ensure_preheader(func, lp);
            // Move in original program order so dependencies stay ordered.
            to_hoist.sort();
            let mut moved_insts: Vec<Inst> = Vec::new();
            for &(bi, ii) in &to_hoist {
                let inst = func.blocks[bi].insts[ii].clone();
                func.blocks[bi].insts[ii].kind = InstKind::Nop;
                moved_insts.push(inst);
            }
            // Insert before the preheader's terminating jump.
            let pre_block = func.block_mut(pre);
            let at = pre_block.insts.len() - 1;
            for (k, inst) in moved_insts.into_iter().enumerate() {
                pre_block.insts.insert(at + k, inst);
            }
            func.compact();
            moved = true;
            any = true;
            break; // CFG changed; restart loop discovery
        }
        if !moved {
            break;
        }
    }
    any
}

fn hoistable(
    inst: &Inst,
    def_count: &[u32],
    defined_in_loop: &FxHashSet<Reg>,
    invariant: &FxHashSet<Reg>,
) -> Option<Reg> {
    let dst = match &inst.kind {
        InstKind::LoadAddr { dst, .. } => *dst,
        InstKind::Assign { dst, src } => {
            // no FIFO traffic, no trapping ops
            if dst.is_fifo() || src.regs().any(|r| r.is_fifo()) {
                return None;
            }
            let traps = match src {
                RExpr::Bin(op, ..) => matches!(op, BinOp::Div | BinOp::Rem | BinOp::FDiv),
                RExpr::Dual { inner, outer, .. } => {
                    matches!(inner, BinOp::Div | BinOp::Rem | BinOp::FDiv)
                        || matches!(outer, BinOp::Div | BinOp::Rem | BinOp::FDiv)
                }
                _ => false,
            };
            if traps {
                return None;
            }
            *dst
        }
        _ => return None,
    };
    if !dst.is_virt() || def_count[bit(dst)] != 1 {
        return None;
    }
    // all operands invariant: defined outside the loop or hoisted already
    let mut ok = true;
    inst.kind.for_each_use(|u| {
        ok &= invariant.contains(&u) || u == Reg::sp() || !defined_in_loop.contains(&u);
    });
    ok.then_some(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{CmpOp, FuncBuilder, Operand, RegClass, SymId};

    #[test]
    fn hoists_loadaddr_out_of_loop() {
        // for(i=0;i<n;i++){ a = &sym; } — LoadAddr must move to a preheader
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let i = b.vreg(RegClass::Int);
        b.copy(i, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(body);
        let a = b.vreg(RegClass::Int);
        b.emit(InstKind::LoadAddr {
            dst: a,
            sym: SymId(0),
            disp: 0,
        });
        // keep `a` observable so DCE-style reasoning isn't involved
        b.emit(InstKind::GStore {
            src: a.into(),
            mem: wm_ir::MemRef::base(a, 0, wm_ir::Width::W4),
        });
        b.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(exit);
        b.emit(InstKind::Ret);
        let mut f = b.finish();

        assert!(hoist_invariants(&mut f));
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        assert_eq!(loops.len(), 1);
        // LoadAddr no longer inside the loop
        for &bi in &loops[0].blocks {
            assert!(!f.blocks[bi]
                .insts
                .iter()
                .any(|i| matches!(i.kind, InstKind::LoadAddr { .. })));
        }
        // but still present in the function
        assert!(f
            .insts()
            .any(|i| matches!(i.kind, InstKind::LoadAddr { .. })));
    }

    #[test]
    fn variant_computations_stay() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let i = b.vreg(RegClass::Int);
        b.copy(i, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(body);
        let t = b.vreg(RegClass::Int);
        b.assign(t, RExpr::Bin(BinOp::Shl, i.into(), Operand::Imm(3)));
        b.emit(InstKind::GStore {
            src: t.into(),
            mem: wm_ir::MemRef::base(t, 0, wm_ir::Width::W4),
        });
        b.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(exit);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!hoist_invariants(&mut f), "i<<3 depends on the IV");
    }

    #[test]
    fn division_is_not_speculated() {
        let mut b = FuncBuilder::new("f", 2, 0);
        let n = b.func().params[0];
        let d = b.func().params[1];
        let i = b.vreg(RegClass::Int);
        b.copy(i, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(body);
        let q = b.vreg(RegClass::Int);
        // 100 / d is invariant but may trap when the loop never runs
        b.assign(q, RExpr::Bin(BinOp::Div, Operand::Imm(100), d.into()));
        b.emit(InstKind::GStore {
            src: q.into(),
            mem: wm_ir::MemRef::base(n, 0, wm_ir::Width::W4),
        });
        b.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(exit);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!hoist_invariants(&mut f));
    }
}
