//! Control-flow analyses: dominators, natural loops, preheaders.

use std::collections::BTreeSet;

use wm_ir::{Function, InstKind, Label};

/// Immediate-dominator tree computed with the Cooper–Harvey–Kennedy
/// iterative algorithm. Block indices are layout indices into
/// `Function::blocks`.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` is the immediate dominator of `b` (`idom[0] == 0`).
    /// Unreachable blocks have `usize::MAX`.
    idom: Vec<usize>,
}

impl Dominators {
    /// Compute dominators for `func`.
    pub fn compute(func: &Function) -> Dominators {
        let n = func.blocks.len();
        let preds = func.predecessors();
        // reverse postorder
        let rpo = reverse_postorder(func);
        let mut order_of = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            order_of[b] = i;
        }
        let mut idom = vec![usize::MAX; n];
        if n == 0 {
            return Dominators { idom };
        }
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &preds[b] {
                    if idom[p] == usize::MAX {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, &order_of, p, new_idom)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// Does block `a` dominate block `b`?
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom.get(b).copied() == Some(usize::MAX) {
            return false; // unreachable
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == 0 {
                return a == 0;
            }
            cur = self.idom[cur];
        }
    }

    /// Immediate dominator of `b` (entry's idom is itself).
    pub fn idom(&self, b: usize) -> usize {
        self.idom[b]
    }

    /// Is block `b` reachable from the entry?
    pub fn is_reachable(&self, b: usize) -> bool {
        self.idom.get(b).copied() != Some(usize::MAX)
    }
}

fn intersect(idom: &[usize], order: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while order[a] > order[b] {
            a = idom[a];
        }
        while order[b] > order[a] {
            b = idom[b];
        }
    }
    a
}

/// Blocks in reverse postorder of a DFS from the entry.
pub fn reverse_postorder(func: &Function) -> Vec<usize> {
    let succs = func.successor_table();
    let n = succs.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // iterative DFS with explicit stack of (block, next-successor-index)
    let mut stack: Vec<(usize, usize)> = Vec::new();
    if n > 0 {
        visited[0] = true;
        stack.push((0, 0));
    }
    while let Some(frame) = stack.last_mut() {
        let out = &succs[frame.0];
        if frame.1 < out.len() {
            let s = out[frame.1];
            frame.1 += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(frame.0);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// A natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header block index.
    pub header: usize,
    /// All block indices in the loop (header included).
    pub blocks: BTreeSet<usize>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<usize>,
    /// Edges `(from_in_loop, to_outside)` leaving the loop.
    pub exits: Vec<(usize, usize)>,
}

impl Loop {
    /// Does the loop contain block `b`?
    pub fn contains(&self, b: usize) -> bool {
        self.blocks.contains(&b)
    }

    /// Is this loop innermost with respect to `loops` (contains no other
    /// loop's header except its own)?
    pub fn is_innermost(&self, loops: &[Loop]) -> bool {
        loops
            .iter()
            .all(|l| l.header == self.header || !self.blocks.contains(&l.header))
    }
}

/// Find all natural loops of `func` (one per header; back edges to the same
/// header are merged).
pub fn natural_loops(func: &Function, dom: &Dominators) -> Vec<Loop> {
    let succs = func.successor_table();
    let preds = func.predecessors();
    let mut loops: Vec<Loop> = Vec::new();
    for (b, ss) in succs.iter().enumerate() {
        if !dom.is_reachable(b) {
            continue;
        }
        for &s in ss {
            if dom.dominates(s, b) {
                // back edge b -> s
                if let Some(l) = loops.iter_mut().find(|l| l.header == s) {
                    extend_loop(&preds, l, b);
                    if !l.latches.contains(&b) {
                        l.latches.push(b);
                    }
                } else {
                    let mut l = Loop {
                        header: s,
                        blocks: BTreeSet::from([s]),
                        latches: vec![b],
                        exits: Vec::new(),
                    };
                    extend_loop(&preds, &mut l, b);
                    loops.push(l);
                }
            }
        }
    }
    for l in &mut loops {
        l.exits = loop_exits(&succs, l);
    }
    loops
}

fn extend_loop(preds: &[Vec<usize>], l: &mut Loop, latch: usize) {
    // classic natural-loop body collection: walk predecessors from the latch
    let mut stack = vec![latch];
    while let Some(b) = stack.pop() {
        if l.blocks.insert(b) {
            for &p in &preds[b] {
                stack.push(p);
            }
        }
    }
}

fn loop_exits(succs: &[Vec<usize>], l: &Loop) -> Vec<(usize, usize)> {
    let mut exits = Vec::new();
    for &b in &l.blocks {
        for &s in &succs[b] {
            if !l.contains(s) {
                exits.push((b, s));
            }
        }
    }
    exits
}

/// Ensure the loop has a *preheader*: a block outside the loop whose only
/// successor is the header and through which every entry edge flows.
/// Creates one (retargeting all outside edges) if necessary, and returns its
/// label. The `Loop` is left stale — recompute loops if you need them again.
pub fn ensure_preheader(func: &mut Function, l: &Loop) -> Label {
    let preds = func.predecessors();
    let header_label = func.blocks[l.header].label;
    let outside: Vec<usize> = preds[l.header]
        .iter()
        .copied()
        .filter(|p| !l.contains(*p))
        .collect();
    // An existing unique outside predecessor that ends in an unconditional
    // jump to the header already is a preheader.
    if outside.len() == 1 {
        let p = outside[0];
        if let Some(last) = func.blocks[p].insts.last() {
            if last.kind
                == (InstKind::Jump {
                    target: header_label,
                })
            {
                return func.blocks[p].label;
            }
        }
    }
    let pre = func.add_block();
    func.push(
        pre,
        InstKind::Jump {
            target: header_label,
        },
    );
    // Retarget every outside edge into the header.
    for &p in &outside {
        let label = func.blocks[p].label;
        let block = func.block_mut(label);
        if let Some(last) = block.insts.last_mut() {
            for t in last.kind.targets_mut() {
                if *t == header_label {
                    *t = pre;
                }
            }
        }
        // A fallthrough (unterminated) predecessor cannot occur for a loop
        // header produced by the front end, which always terminates blocks.
    }
    pre
}

/// Split the control-flow edge `from -> to`, inserting a fresh block that
/// jumps to `to`, and return the new block's label.
pub fn split_edge(func: &mut Function, from: usize, to: usize) -> Label {
    let to_label = func.blocks[to].label;
    let from_label = func.blocks[from].label;
    let stub = func.add_block();
    func.push(stub, InstKind::Jump { target: to_label });
    let block = func.block_mut(from_label);
    let last = block
        .insts
        .last_mut()
        .expect("edge source must have a terminator");
    let mut hit = false;
    for t in last.kind.targets_mut() {
        if *t == to_label {
            *t = stub;
            hit = true;
        }
    }
    assert!(hit, "no edge from {from_label} to {to_label}");
    stub
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{CmpOp, FuncBuilder, Operand, RegClass};

    /// Build the canonical guarded bottom-tested loop:
    /// entry(guard) -> body -> latch -> {body, exit}
    fn loop_func() -> Function {
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let body = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.branch_if(
            RegClass::Int,
            CmpOp::Lt,
            Operand::Imm(0),
            n.into(),
            body,
            exit,
        );
        b.switch_to(body);
        b.jump(latch);
        b.switch_to(latch);
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
        b.finish()
    }

    #[test]
    fn dominators_of_diamond() {
        let f = loop_func();
        let dom = Dominators::compute(&f);
        // entry dominates everything
        for b in 0..f.blocks.len() {
            assert!(dom.dominates(0, b));
        }
        // body (1) dominates latch (2) but not exit (3)
        assert!(dom.dominates(1, 2));
        assert!(!dom.dominates(1, 3));
        assert!(!dom.dominates(2, 1));
    }

    #[test]
    fn finds_the_natural_loop() {
        let f = loop_func();
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, 1);
        assert_eq!(l.blocks, BTreeSet::from([1, 2]));
        assert_eq!(l.latches, vec![2]);
        assert_eq!(l.exits, vec![(2, 3)]);
        assert!(l.is_innermost(&loops));
    }

    #[test]
    fn preheader_creation_redirects_entry_edges() {
        let mut f = loop_func();
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        let pre = ensure_preheader(&mut f, &loops[0]);
        // Recompute: the loop should now be entered only via the preheader.
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        let l = &loops[0];
        let preds = f.predecessors();
        let outside: Vec<usize> = preds[l.header]
            .iter()
            .copied()
            .filter(|p| !l.contains(*p))
            .collect();
        assert_eq!(outside.len(), 1);
        assert_eq!(f.blocks[outside[0]].label, pre);
        // Idempotent.
        let pre2 = ensure_preheader(&mut f, l);
        assert_eq!(pre, pre2);
    }

    #[test]
    fn split_edge_inserts_stub() {
        let mut f = loop_func();
        let stub = split_edge(&mut f, 2, 3);
        let si = f.block_index(stub);
        let succs = f.successor_table();
        assert_eq!(succs[si], vec![3]);
        assert!(succs[2].contains(&si));
        assert!(!succs[2].contains(&3));
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = loop_func();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 4);
    }
}
