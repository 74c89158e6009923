//! Dead-code elimination based on live-register analysis.

use wm_ir::{Function, InstKind, Operand, RExpr};

use crate::liveness::{tracked, Liveness, RegSet};

/// Remove pure instructions whose results are dead. Instructions with side
/// effects (memory, control flow, FIFO traffic, condition codes, calls) are
/// always kept. Runs to a fixed point.
#[must_use]
pub fn eliminate_dead_code(func: &mut Function) -> bool {
    let (changed, _) = mark_dead_code(func);
    if changed {
        func.compact();
    }
    changed
}

/// Turn every transitively dead pure instruction of `func` into `Nop`, to
/// a fixed point, **without** compacting: instruction positions are
/// unchanged. Returns whether anything changed, and the liveness of the
/// result.
///
/// Each round walks every block bottom-up. An instruction found dead is
/// dropped from the walk at once, so the values only it used can die in
/// the same round. The fixed point is the one that marking against each
/// round's liveness alone reaches, because deleting a dead instruction
/// never makes another one live.
pub(crate) fn mark_dead_code(func: &mut Function) -> (bool, Liveness) {
    let mut any = false;
    loop {
        let lv = Liveness::compute(func);
        let mut changed = false;
        for bi in 0..func.blocks.len() {
            let mut live = lv.live_out[bi].clone();
            for ii in (0..func.blocks[bi].insts.len()).rev() {
                let kind = &func.blocks[bi].insts[ii].kind;
                if is_dead(kind, &live) {
                    func.blocks[bi].insts[ii].kind = InstKind::Nop;
                    changed = true;
                } else {
                    live.step_back(kind, func);
                }
            }
        }
        if !changed {
            return (any, lv);
        }
        any = true;
    }
}

/// Is `kind` a pure instruction that defines a tracked register
/// ([`defs_of`](crate::liveness::defs_of)) and none that is `live` after
/// it? A `Nop`, and anything without a tracked result (a terminator, a
/// pure write to `sp` or the zero register), is not.
fn is_dead(kind: &InstKind, live: &RegSet) -> bool {
    if *kind == InstKind::Nop || kind.has_side_effects() {
        return false;
    }
    let (mut defines, mut needed) = (false, false);
    kind.for_each_def(|d| {
        if tracked(d) {
            defines = true;
            needed |= live.contains(d);
        }
    });
    defines && !needed
}

/// Remove a *matched pair* of WM load and FIFO dequeue whose dequeued value
/// is dead. Plain DCE cannot do this: the dequeue has a FIFO side effect
/// that is only safe to drop together with the load that feeds it. The pair
/// must be adjacent (the form target expansion produces).
#[must_use]
pub fn eliminate_dead_load_pairs(func: &mut Function) -> bool {
    let lv = Liveness::compute(func);
    let mut pairs = Vec::new();
    for (bi, block) in func.blocks.iter().enumerate() {
        let mut live = lv.live_out[bi].clone();
        for ii in (1..block.insts.len()).rev() {
            // `live` holds what is live after the candidate dequeue `ii`.
            if let (InstKind::WLoad { fifo, .. }, InstKind::Assign { dst, src }) =
                (&block.insts[ii - 1].kind, &block.insts[ii].kind)
            {
                // exactly `dst := fifo` with a dead dst
                if *src == RExpr::Op(Operand::Reg(fifo.reg()))
                    && !dst.is_fifo()
                    && !live.contains(*dst)
                {
                    pairs.push((bi, ii - 1));
                }
            }
            live.step_back(&block.insts[ii].kind, func);
        }
    }
    for &(bi, ii) in &pairs {
        func.blocks[bi].insts[ii].kind = InstKind::Nop;
        func.blocks[bi].insts[ii + 1].kind = InstKind::Nop;
    }
    if !pairs.is_empty() {
        func.compact();
    }
    !pairs.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{BinOp, DataFifo, FuncBuilder, Operand, RExpr, Reg, RegClass, Width};

    #[test]
    fn removes_dead_chain() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let x = b.func().params[0];
        let t = b.bin(BinOp::Add, x.into(), Operand::Imm(1));
        let u = b.bin(BinOp::Mul, t.into(), Operand::Imm(2));
        let _ = u; // dead: nothing uses u
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(eliminate_dead_code(&mut f));
        assert_eq!(f.inst_count(), 1, "only Ret remains");
    }

    #[test]
    fn keeps_live_values_and_side_effects() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let x = b.func().params[0];
        let r = b.vreg(RegClass::Int);
        b.func_mut().ret = Some(r);
        b.assign(r, RExpr::Bin(BinOp::Add, x.into(), Operand::Imm(1)));
        // a store: side effect, must stay
        b.emit(InstKind::GStore {
            src: Operand::Imm(0),
            mem: wm_ir::MemRef::base(x, 0, Width::W4),
        });
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!eliminate_dead_code(&mut f));
        assert_eq!(f.inst_count(), 3);
    }

    #[test]
    fn self_increment_with_no_other_use_survives_plain_dce() {
        // i := i + 1 in a loop keeps itself alive around the back edge;
        // plain DCE must not remove it (the streaming pass handles the
        // paper's step j explicitly).
        let mut b = FuncBuilder::new("f", 0, 0);
        let i = b.vreg(RegClass::Int);
        b.copy(i, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        b.branch_if(
            RegClass::Int,
            wm_ir::CmpOp::Lt,
            i.into(),
            Operand::Imm(10),
            body,
            exit,
        );
        b.switch_to(exit);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!eliminate_dead_code(&mut f));
    }

    #[test]
    fn dead_wm_load_pair_is_removed_together() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let x = b.func().params[0];
        let v = b.vreg(RegClass::Flt);
        let fifo = DataFifo::new(RegClass::Flt, 0);
        b.emit(InstKind::WLoad {
            fifo,
            addr: RExpr::Op(x.into()),
            width: Width::D8,
        });
        b.copy(v, Reg::flt(0).into()); // dequeue, v dead
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        // plain DCE leaves both (FIFO side effects)
        assert!(!eliminate_dead_code(&mut f));
        assert!(eliminate_dead_load_pairs(&mut f));
        assert_eq!(f.inst_count(), 1);
    }
}
