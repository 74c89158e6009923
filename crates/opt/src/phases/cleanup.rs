//! Control-flow cleanup: jump threading, branch simplification and
//! straight-line block merging. Keeps listings close to the paper's shape.

use wm_ir::fx::FxHashMap;
use wm_ir::{Function, InstKind, Label};

/// Simplify the CFG to a fixed point:
///
/// * retarget jumps through empty jump-only blocks (jump threading),
/// * turn branches whose arms agree into unconditional jumps (removing the
///   adjacent compare so the condition-code FIFO stays balanced),
/// * merge a block into its unique jump predecessor,
/// * drop unreachable blocks.
#[must_use]
pub fn simplify_cfg(func: &mut Function) -> bool {
    let mut any = false;
    loop {
        let mut changed = false;
        changed |= thread_jumps(func);
        changed |= collapse_trivial_branches(func);
        changed |= merge_straight_line(func);
        if changed {
            func.compact();
            any = true;
        } else {
            break;
        }
    }
    any
}

/// If block `L` contains only `Jump M`, retarget every edge into `L` to `M`.
fn thread_jumps(func: &mut Function) -> bool {
    // label -> forwarding target
    let mut forward: FxHashMap<Label, Label> = FxHashMap::default();
    for block in &func.blocks {
        if block.insts.len() == 1 {
            if let InstKind::Jump { target } = block.insts[0].kind {
                if target != block.label {
                    forward.insert(block.label, target);
                }
            }
        }
    }
    if forward.is_empty() {
        return false;
    }
    let resolve = |mut l: Label| {
        // follow chains with a bound to survive cycles
        for _ in 0..forward.len() {
            match forward.get(&l) {
                Some(&next) => l = next,
                None => break,
            }
        }
        l
    };
    let mut changed = false;
    for block in &mut func.blocks {
        if let Some(last) = block.insts.last_mut() {
            for t in last.kind.targets_mut() {
                let r = resolve(*t);
                if r != *t {
                    *t = r;
                    changed = true;
                }
            }
        }
    }
    changed
}

/// `Branch` with identical arms becomes `Jump`; the compare feeding it is
/// removed when adjacent (to keep the CC FIFO balanced).
fn collapse_trivial_branches(func: &mut Function) -> bool {
    let mut changed = false;
    for block in &mut func.blocks {
        let n = block.insts.len();
        if n == 0 {
            continue;
        }
        if let InstKind::Branch {
            target, els, class, ..
        } = block.insts[n - 1].kind
        {
            if target == els {
                // only safe if we can also delete the adjacent compare
                if n >= 2 {
                    if let InstKind::Compare { class: c2, .. } = block.insts[n - 2].kind {
                        if c2 == class {
                            block.insts[n - 2].kind = InstKind::Nop;
                            block.insts[n - 1].kind = InstKind::Jump { target };
                            changed = true;
                        }
                    }
                }
            }
        }
    }
    changed
}

/// Merge `B` into `A` when `A` ends with `Jump B` and `B` has no other
/// predecessors (and is not the entry block).
fn merge_straight_line(func: &mut Function) -> bool {
    let preds = func.predecessors();
    let mut changed = false;
    for ai in 0..func.blocks.len() {
        let Some(last) = func.blocks[ai].insts.last() else {
            continue;
        };
        let InstKind::Jump { target } = last.kind else {
            continue;
        };
        let bi = func.block_index(target);
        if bi == 0 || bi == ai || preds[bi].len() != 1 {
            continue;
        }
        // move B's instructions into A
        let mut moved = std::mem::take(&mut func.blocks[bi].insts);
        let a = &mut func.blocks[ai].insts;
        a.pop(); // the jump
        a.append(&mut moved);
        changed = true;
        break; // indices now stale; caller loops to a fixed point
    }
    if changed {
        func.compact();
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{CmpOp, FuncBuilder, Operand, RegClass};

    #[test]
    fn threads_jump_chains() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let mid = b.new_block();
        let end = b.new_block();
        b.jump(mid);
        b.switch_to(mid);
        b.jump(end);
        b.switch_to(end);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(simplify_cfg(&mut f));
        assert_eq!(f.blocks.len(), 1, "all straight-line code merged");
        assert!(matches!(
            f.blocks[0].insts.last().unwrap().kind,
            InstKind::Ret
        ));
    }

    #[test]
    fn collapses_same_target_branch_and_its_compare() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let t = b.new_block();
        b.branch_if(RegClass::Int, CmpOp::Lt, n.into(), Operand::Imm(0), t, t);
        b.switch_to(t);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(simplify_cfg(&mut f));
        assert!(
            !f.insts()
                .any(|i| matches!(i.kind, InstKind::Compare { .. })),
            "compare must go with the branch"
        );
        assert!(!f.insts().any(|i| matches!(i.kind, InstKind::Branch { .. })));
    }

    #[test]
    fn keeps_loops_intact() {
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.branch_if(
            RegClass::Int,
            CmpOp::Lt,
            Operand::Imm(0),
            n.into(),
            body,
            exit,
        );
        b.switch_to(exit);
        b.emit(InstKind::Ret);
        let mut f = b.finish();
        assert!(!simplify_cfg(&mut f), "nothing to thread or merge");
        // the loop structure (self branch) must survive
        let dom = crate::cfg::Dominators::compute(&f);
        let loops = crate::cfg::natural_loops(&f, &dom);
        assert_eq!(loops.len(), 1);
    }
}
