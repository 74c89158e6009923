//! Functions and basic blocks.

use crate::inst::{Inst, InstId, InstKind};
use crate::reg::{Reg, RegClass};

/// A basic-block label, stable across block insertion and deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A basic block: a label and a straight-line sequence of RTLs. Only the
/// final RTL may be a terminator; a block whose last RTL falls through (or
/// that has no terminator at all) continues at the next block in layout
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block's stable label.
    pub label: Label,
    /// The RTLs, in execution order.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The terminator, if the block ends in one.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.kind.is_terminator())
    }
}

/// A function: basic blocks in layout order (entry first) plus register and
/// frame bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (also its symbol name in the module).
    pub name: String,
    /// Basic blocks in layout order. `blocks[0]` is the entry block.
    pub blocks: Vec<Block>,
    /// Virtual registers that receive the arguments, in declaration order.
    /// Register allocation maps them onto the argument-register convention.
    pub params: Vec<Reg>,
    /// Bytes of stack frame for local arrays and spills.
    pub frame_size: i64,
    /// Virtual register holding the return value at each `Ret`, if the
    /// function returns one. Register allocation maps it onto the
    /// return-value convention register (`r2`/`f2`).
    pub ret: Option<Reg>,
    next_vreg: u32,
    next_inst: u32,
    next_label: u32,
}

impl Function {
    /// Create a function with `n_int_args` integer and `n_flt_args`
    /// floating-point parameters, and a single empty entry block.
    pub fn new(name: impl Into<String>, n_int_args: usize, n_flt_args: usize) -> Function {
        let mut f = Function {
            name: name.into(),
            blocks: Vec::new(),
            params: Vec::new(),
            frame_size: 0,
            ret: None,
            next_vreg: 0,
            next_inst: 0,
            next_label: 0,
        };
        f.add_block();
        for _ in 0..n_int_args {
            let r = f.new_vreg(RegClass::Int);
            f.params.push(r);
        }
        for _ in 0..n_flt_args {
            let r = f.new_vreg(RegClass::Flt);
            f.params.push(r);
        }
        f
    }

    /// The entry block's label.
    pub fn entry_label(&self) -> Label {
        self.blocks[0].label
    }

    /// Allocate a fresh virtual register.
    pub fn new_vreg(&mut self, class: RegClass) -> Reg {
        let r = Reg::virt(class, self.next_vreg);
        self.next_vreg += 1;
        r
    }

    /// Number of virtual registers ever allocated (ids are `0..count`).
    pub fn vreg_count(&self) -> u32 {
        self.next_vreg
    }

    /// Allocate a fresh instruction id (for passes that build instructions
    /// directly rather than via [`Function::push`]).
    pub fn new_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst);
        self.next_inst += 1;
        id
    }

    /// Append a new empty block and return its label.
    pub fn add_block(&mut self) -> Label {
        let label = Label(self.next_label);
        self.next_label += 1;
        self.blocks.push(Block {
            label,
            insts: Vec::new(),
        });
        label
    }

    /// Index of the block with `label` in layout order.
    ///
    /// # Panics
    ///
    /// Panics if no block has that label.
    pub fn block_index(&self, label: Label) -> usize {
        self.blocks
            .iter()
            .position(|b| b.label == label)
            .unwrap_or_else(|| panic!("no block labelled {label} in {}", self.name))
    }

    /// The block with `label`.
    pub fn block(&self, label: Label) -> &Block {
        &self.blocks[self.block_index(label)]
    }

    /// The block with `label`, mutably.
    pub fn block_mut(&mut self, label: Label) -> &mut Block {
        let i = self.block_index(label);
        &mut self.blocks[i]
    }

    /// Append an RTL to the block labelled `label`, returning its id.
    pub fn push(&mut self, label: Label, kind: InstKind) -> InstId {
        debug_assert!(
            self.block(label).terminator().is_none(),
            "pushing past a terminator in block {label}"
        );
        let id = self.new_inst_id();
        self.block_mut(label).insts.push(Inst { id, kind });
        id
    }

    /// Successor lists for every block, indexed in layout order (block
    /// indices, taken target first, each at most once). A block without a
    /// terminator falls through to the next block in layout order. One
    /// label→index pass resolves every edge, so an analysis that needs
    /// the CFG builds this once rather than searching the block list per
    /// edge.
    ///
    /// # Panics
    ///
    /// Panics if a terminator targets a label no block carries.
    pub fn successor_table(&self) -> Vec<Vec<usize>> {
        let n = self.blocks.len();
        let labels = self.blocks.iter().map(|b| b.label.0 as usize + 1).max();
        let mut index_of = vec![usize::MAX; labels.unwrap_or(0)];
        for (i, b) in self.blocks.iter().enumerate() {
            index_of[b.label.0 as usize] = i;
        }
        let index = |t: Label| match index_of.get(t.0 as usize) {
            Some(&i) if i != usize::MAX => i,
            _ => panic!("no block labelled {t} in {}", self.name),
        };
        (0..n)
            .map(|bi| match self.blocks[bi].terminator() {
                Some(last) => {
                    let mut out = Vec::with_capacity(2);
                    for t in last.kind.targets() {
                        let i = index(t);
                        if !out.contains(&i) {
                            out.push(i);
                        }
                    }
                    out
                }
                None if bi + 1 < n => vec![bi + 1],
                None => Vec::new(),
            })
            .collect()
    }

    /// Predecessor lists for every block, indexed in layout order.
    pub fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, succs) in self.successor_table().into_iter().enumerate() {
            for s in succs {
                preds[s].push(i);
            }
        }
        preds
    }

    /// Iterate over every instruction in layout order.
    pub fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.blocks.iter().flat_map(|b| b.insts.iter())
    }

    /// Iterate mutably over every instruction in layout order.
    pub fn insts_mut(&mut self) -> impl Iterator<Item = &mut Inst> {
        self.blocks.iter_mut().flat_map(|b| b.insts.iter_mut())
    }

    /// Total instruction count (Nops included).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Remove `Nop` instructions and unreachable blocks, preserving labels.
    pub fn compact(&mut self) {
        for b in &mut self.blocks {
            b.insts.retain(|i| i.kind != InstKind::Nop);
        }
        // Drop unreachable blocks (keep entry).
        let n = self.blocks.len();
        if n == 0 {
            return;
        }
        let succs = self.successor_table();
        let mut reachable = vec![false; n];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if reachable[i] {
                continue;
            }
            reachable[i] = true;
            stack.extend_from_slice(&succs[i]);
        }
        // A block that is unreachable but fallen *into* can't exist since
        // fallthrough is a successor edge; safe to drop them.
        let mut idx = 0;
        self.blocks.retain(|_| {
            let keep = reachable[idx];
            idx += 1;
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Operand, RExpr};

    #[test]
    fn entry_block_and_params() {
        let f = Function::new("f", 2, 1);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].class, RegClass::Int);
        assert_eq!(f.params[2].class, RegClass::Flt);
    }

    #[test]
    fn successors_fallthrough_and_branch() {
        let mut f = Function::new("f", 0, 0);
        let b0 = f.entry_label();
        let b1 = f.add_block();
        let b2 = f.add_block();
        // b0: branch to b2, else b1
        f.push(
            b0,
            InstKind::Branch {
                class: RegClass::Int,
                when: true,
                target: b2,
                els: b1,
            },
        );
        // b1: jump to b0
        f.push(b1, InstKind::Jump { target: b0 });
        // b2: ret
        f.push(b2, InstKind::Ret);
        assert_eq!(f.successor_table(), vec![vec![2, 1], vec![0], vec![]]);
        let preds = f.predecessors();
        assert_eq!(preds[0], vec![1]);
        assert_eq!(preds[1], vec![0]);
        assert_eq!(preds[2], vec![0]);
    }

    #[test]
    fn empty_block_falls_through() {
        let mut f = Function::new("f", 0, 0);
        let _b1 = f.add_block();
        assert_eq!(f.successor_table(), vec![vec![1], vec![]]);
    }

    #[test]
    fn compact_removes_nops_and_unreachable() {
        let mut f = Function::new("f", 0, 0);
        let b0 = f.entry_label();
        let dead = f.add_block();
        let live = f.add_block();
        f.push(b0, InstKind::Jump { target: live });
        f.push(dead, InstKind::Ret);
        f.push(live, InstKind::Nop);
        f.push(live, InstKind::Ret);
        f.compact();
        assert_eq!(f.blocks.len(), 2);
        assert_eq!(f.blocks[1].label, live);
        assert_eq!(f.blocks[1].insts.len(), 1);
    }

    #[test]
    fn inst_ids_are_unique() {
        let mut f = Function::new("f", 0, 0);
        let b = f.entry_label();
        let v = f.new_vreg(RegClass::Int);
        let i1 = f.push(
            b,
            InstKind::Assign {
                dst: v,
                src: RExpr::Op(Operand::Imm(1)),
            },
        );
        let i2 = f.push(
            b,
            InstKind::Assign {
                dst: v,
                src: RExpr::Op(Operand::Imm(2)),
            },
        );
        assert_ne!(i1, i2);
    }
}
