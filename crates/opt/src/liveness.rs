//! Live-register analysis (backward may dataflow) over dense bitsets.
//!
//! A [`RegSet`] spends one bit per register: the 64 architected cells
//! first, then two per virtual register id below
//! [`Function::vreg_count`] (one per class). The per-block fixpoint
//! runs over the function's successor table, built once per analysis,
//! and keeps every block's sets in one flat buffer per kind, so its
//! allocations do not grow with the block count. A client that needs the
//! set live at each instruction copies a block's live-out set into one
//! [`RegSet`] it reuses and walks the block bottom-up with
//! [`RegSet::step_back`].

use wm_ir::{Function, InstKind, Reg, RegClass, RegKind, RegList};

/// Should `r` be tracked by liveness? FIFO-mapped cells and the zero
/// register carry no conventional value; the stack pointer is reserved and
/// treated as always live.
pub fn tracked(r: Reg) -> bool {
    !(r.is_fifo() || r.is_zero() || r == Reg::sp())
}

/// Registers used by `kind`, including the implicit use of the return-value
/// register at `Ret`.
pub fn uses_of(kind: &InstKind, func: &Function) -> RegList {
    let mut u = kind.uses();
    if matches!(kind, InstKind::Ret) {
        if let Some(r) = func.ret {
            u.push(r);
        }
    }
    u.retain(|r| tracked(*r));
    u
}

/// Registers defined by `kind` (tracked only).
pub fn defs_of(kind: &InstKind) -> RegList {
    let mut d = kind.defs();
    d.retain(|r| tracked(*r));
    d
}

/// Bit position of `r`: architected `class·32 + n`, virtual
/// `64 + 2·id + class`. Every register of `func` is below
/// [`slots`]`(func)`.
pub(crate) fn bit(r: Reg) -> usize {
    let class = match r.class {
        RegClass::Int => 0,
        RegClass::Flt => 1,
    };
    match r.kind {
        RegKind::Phys(n) => class * 32 + n as usize,
        RegKind::Virt(id) => 64 + 2 * id as usize + class,
    }
}

/// Number of bit positions the registers of `func` take.
pub(crate) fn slots(func: &Function) -> usize {
    64 + 2 * func.vreg_count() as usize
}

/// The register at bit position `b` (the inverse of [`bit`]).
pub(crate) fn reg_at(b: usize) -> Reg {
    let class = |odd: bool| if odd { RegClass::Flt } else { RegClass::Int };
    if b < 64 {
        Reg::phys(class(b >= 32), (b % 32) as u8)
    } else {
        Reg::virt(class((b - 64) % 2 == 1), ((b - 64) / 2) as u32)
    }
}

/// A set of the registers of one function, one bit each. Every set
/// [`Liveness`] returns for a function has the same width. `W` is the
/// storage: an owned `Vec<u64>`, or a `&[u64]` borrowed from a
/// [`Liveness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet<W = Vec<u64>> {
    words: W,
}

impl<W: AsRef<[u64]>> RegSet<W> {
    /// Is `r` in the set?
    pub fn contains(&self, r: Reg) -> bool {
        let b = bit(r);
        self.words
            .as_ref()
            .get(b / 64)
            .is_some_and(|w| w >> (b % 64) & 1 != 0)
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.as_ref().iter().all(|&w| w == 0)
    }

    /// The registers in the set: architected integer, architected
    /// floating point, then virtual registers by id.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.as_ref().iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    reg_at(i * 64 + b)
                })
            })
        })
    }
}

impl RegSet {
    /// An empty set with room for every register of `func`.
    pub fn for_function(func: &Function) -> RegSet {
        RegSet {
            words: vec![0; slots(func).div_ceil(64)],
        }
    }

    /// Become a copy of `other`, a set of the same width.
    pub fn copy_from(&mut self, other: RegSet<&[u64]>) {
        self.words.copy_from_slice(other.words);
    }

    /// Add `r`, a register of the function the set was sized for.
    pub(crate) fn insert(&mut self, r: Reg) {
        let b = bit(r);
        self.words[b / 64] |= 1 << (b % 64);
    }

    /// Remove `r`.
    pub(crate) fn remove(&mut self, r: Reg) {
        let b = bit(r);
        if let Some(w) = self.words.get_mut(b / 64) {
            *w &= !(1 << (b % 64));
        }
    }

    /// Move the set from just after `kind` to just before it: drop what
    /// `kind` defines, add what it uses.
    pub fn step_back(&mut self, kind: &InstKind, func: &Function) {
        kind.for_each_def(|d| self.remove(d));
        let mut add = |r: Reg| {
            if tracked(r) {
                self.insert(r);
            }
        };
        kind.for_each_use(&mut add);
        if let (InstKind::Ret, Some(r)) = (kind, func.ret) {
            add(r);
        }
    }
}

/// Per-block live-in/out sets, each kind in one flat buffer of `words`
/// words per block.
#[derive(Debug, Clone)]
pub struct Liveness {
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Compute liveness for `func`.
    pub fn compute(func: &Function) -> Liveness {
        let succs = func.successor_table();
        let n = func.blocks.len();
        let mut cur = RegSet::for_function(func);
        let mut kills = cur.clone();
        let w = cur.words.len();
        // gen: live into the block with nothing live out of it; kill:
        // everything the block defines.
        let mut gen_ = vec![0; n * w];
        let mut kill = vec![0; n * w];
        for (bi, block) in func.blocks.iter().enumerate() {
            cur.words.fill(0);
            kills.words.fill(0);
            for inst in block.insts.iter().rev() {
                cur.step_back(&inst.kind, func);
                inst.kind.for_each_def(|d| kills.insert(d));
            }
            gen_[bi * w..][..w].copy_from_slice(&cur.words);
            kill[bi * w..][..w].copy_from_slice(&kills.words);
        }
        let mut live_in = gen_.clone();
        let mut live_out = vec![0; n * w];
        let out = &mut cur.words;
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                out.fill(0);
                for &s in succs[bi].iter() {
                    for (o, x) in out.iter_mut().zip(&live_in[s * w..][..w]) {
                        *o |= x;
                    }
                }
                let old = &mut live_out[bi * w..][..w];
                if *out != *old {
                    old.copy_from_slice(out);
                    for (k, inn) in live_in[bi * w..][..w].iter_mut().enumerate() {
                        *inn = gen_[bi * w + k] | (out[k] & !kill[bi * w + k]);
                    }
                    changed = true;
                }
            }
        }
        Liveness {
            words: w,
            live_in,
            live_out,
        }
    }

    /// Registers live on entry to block `bi` (layout index).
    pub fn live_in(&self, bi: usize) -> RegSet<&[u64]> {
        RegSet {
            words: &self.live_in[bi * self.words..][..self.words],
        }
    }

    /// Registers live on exit from block `bi`.
    pub fn live_out(&self, bi: usize) -> RegSet<&[u64]> {
        RegSet {
            words: &self.live_out[bi * self.words..][..self.words],
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use wm_ir::{BinOp, CmpOp, FuncBuilder, Operand, RExpr, RegClass};

    /// The set live after each instruction of block `bi`, by walking it
    /// bottom-up from `live_out`.
    fn live_after(lv: &Liveness, func: &Function, bi: usize) -> Vec<RegSet> {
        let mut cur = RegSet::for_function(func);
        cur.copy_from(lv.live_out(bi));
        let mut out: Vec<RegSet> = func.blocks[bi]
            .insts
            .iter()
            .rev()
            .map(|inst| {
                let after = cur.clone();
                cur.step_back(&inst.kind, func);
                after
            })
            .collect();
        out.reverse();
        out
    }

    #[test]
    fn loop_carried_value_is_live_around_back_edge() {
        // i := 0; L: i := i + 1; if (i < n) goto L; ret
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let i = b.vreg(RegClass::Int);
        b.copy(i, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(i, RExpr::Bin(BinOp::Add, i.into(), Operand::Imm(1)));
        b.branch_if(RegClass::Int, CmpOp::Lt, i.into(), n.into(), body, exit);
        b.switch_to(exit);
        b.emit(wm_ir::InstKind::Ret);
        let f = b.finish();
        let lv = Liveness::compute(&f);
        let body_i = 1;
        assert!(lv.live_in(body_i).contains(i));
        assert!(lv.live_out(body_i).contains(i));
        assert!(lv.live_in(body_i).contains(n));
        // nothing is live into the exit block
        assert!(lv.live_in(2).is_empty());
    }

    #[test]
    fn ret_uses_return_register() {
        let mut b = FuncBuilder::new("f", 0, 0);
        let r = b.vreg(RegClass::Int);
        b.func_mut().ret = Some(r);
        b.copy(r, Operand::Imm(3));
        b.emit(wm_ir::InstKind::Ret);
        let f = b.finish();
        let lv = Liveness::compute(&f);
        // r is defined then used by Ret within the single block; live_in empty
        assert!(lv.live_in(0).is_empty());
        let after = live_after(&lv, &f, 0);
        assert!(after[0].contains(r), "live between def and ret");
    }

    #[test]
    fn fifo_registers_are_not_tracked() {
        assert!(!tracked(Reg::flt(0)));
        assert!(!tracked(Reg::int(31)));
        assert!(!tracked(Reg::sp()));
        assert!(tracked(Reg::int(5)));
        assert!(tracked(Reg::virt(RegClass::Flt, 3)));
    }

    #[test]
    fn regset_round_trips_every_kind_of_register() {
        let regs = [
            Reg::int(2),
            Reg::int(29),
            Reg::flt(2),
            Reg::flt(30),
            Reg::virt(RegClass::Int, 0),
            Reg::virt(RegClass::Flt, 0),
            Reg::virt(RegClass::Flt, 31),
            Reg::virt(RegClass::Int, 32),
            Reg::virt(RegClass::Flt, 32),
        ];
        let mut f = Function::new("f", 0, 0);
        while f.vreg_count() <= 32 {
            f.new_vreg(RegClass::Int);
        }
        let mut s = RegSet::for_function(&f);
        for r in regs {
            s.insert(r);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), regs);
        for r in regs {
            assert!(s.contains(r));
            s.remove(r);
            assert!(!s.contains(r));
        }
        assert!(s.is_empty());
        // a register of some other function is simply absent
        assert!(!s.contains(Reg::virt(RegClass::Flt, 10_000)));
    }

    /// The set-based iterative dataflow this module replaced, kept as an
    /// independent reference: `HashSet`s, a per-edge label search, and a
    /// copied set per instruction.
    mod reference {
        use std::collections::HashSet;

        use wm_ir::{Function, Reg};

        use crate::liveness::{defs_of, uses_of};

        fn successors(func: &Function, index: usize) -> Vec<usize> {
            match func.blocks[index].terminator() {
                Some(last) => {
                    let mut out = Vec::new();
                    for t in last.kind.targets() {
                        let i = func.block_index(t);
                        if !out.contains(&i) {
                            out.push(i);
                        }
                    }
                    out
                }
                None if index + 1 < func.blocks.len() => vec![index + 1],
                None => Vec::new(),
            }
        }

        /// Per-block live-in and live-out sets.
        pub fn compute(func: &Function) -> (Vec<HashSet<Reg>>, Vec<HashSet<Reg>>) {
            let n = func.blocks.len();
            let mut gen_: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
            let mut kill: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
            for (bi, block) in func.blocks.iter().enumerate() {
                for inst in &block.insts {
                    for u in uses_of(&inst.kind, func) {
                        if !kill[bi].contains(&u) {
                            gen_[bi].insert(u);
                        }
                    }
                    for d in defs_of(&inst.kind) {
                        kill[bi].insert(d);
                    }
                }
            }
            let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
            let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
            let mut changed = true;
            while changed {
                changed = false;
                for bi in (0..n).rev() {
                    let mut out = HashSet::new();
                    for s in successors(func, bi) {
                        out.extend(live_in[s].iter().copied());
                    }
                    let mut inn: HashSet<Reg> = out
                        .iter()
                        .copied()
                        .filter(|r| !kill[bi].contains(r))
                        .collect();
                    inn.extend(gen_[bi].iter().copied());
                    if inn != live_in[bi] || out != live_out[bi] {
                        live_in[bi] = inn;
                        live_out[bi] = out;
                        changed = true;
                    }
                }
            }
            (live_in, live_out)
        }

        /// The set live after each instruction of block `bi`.
        pub fn live_after(
            func: &Function,
            live_out: &HashSet<Reg>,
            bi: usize,
        ) -> Vec<HashSet<Reg>> {
            let block = &func.blocks[bi];
            let mut cur = live_out.clone();
            let mut out = vec![HashSet::new(); block.insts.len()];
            for (i, inst) in block.insts.iter().enumerate().rev() {
                out[i] = cur.clone();
                for d in defs_of(&inst.kind) {
                    cur.remove(&d);
                }
                for u in uses_of(&inst.kind, func) {
                    cur.insert(u);
                }
            }
            out
        }
    }

    fn as_hash<W: AsRef<[u64]>>(s: &RegSet<W>) -> HashSet<Reg> {
        s.iter().collect()
    }

    /// Assert the bitset analysis agrees with the reference on every
    /// block boundary and after every instruction of `func`.
    fn agrees_with_reference(func: &Function, what: &str) {
        let lv = Liveness::compute(func);
        let (live_in, live_out) = reference::compute(func);
        for bi in 0..func.blocks.len() {
            let at = format!("{what}: {} block {bi}", func.name);
            assert_eq!(as_hash(&lv.live_in(bi)), live_in[bi], "{at}: live-in");
            assert_eq!(as_hash(&lv.live_out(bi)), live_out[bi], "{at}: live-out");
            let ours = live_after(&lv, func, bi);
            let theirs = reference::live_after(func, &live_out[bi], bi);
            for (ii, (a, b)) in ours.iter().zip(&theirs).enumerate() {
                assert_eq!(&as_hash(a), b, "{at}: after instruction {ii}");
            }
        }
    }

    #[test]
    fn bitsets_match_the_reference_on_every_workload_at_every_stage() {
        use crate::{optimize_generic, optimize_wm_with, GlobalExtents, OptOptions};
        // `full` under both alias models: no-alias streams the
        // pointer-based programs too.
        let mut functions = 0;
        for opts in [OptOptions::all(), OptOptions::all().assume_noalias()] {
            for w in wm_workloads::all() {
                let mut module = wm_frontend::compile(w.source).expect("workload compiles");
                let extents = GlobalExtents::of_module(&module);
                for f in &mut module.functions {
                    agrees_with_reference(f, &format!("{} front end", w.name));
                    optimize_generic(f, &opts);
                    agrees_with_reference(f, &format!("{} generic", w.name));
                    wm_target::expand_wm(f);
                    optimize_wm_with(f, &opts, &extents);
                    agrees_with_reference(f, &format!("{} wm", w.name));
                    functions += 1;
                }
            }
        }
        assert!(functions >= 36, "every workload contributes a function");
    }

    #[test]
    fn self_loop_keeps_its_carried_value_live_on_both_sides() {
        // entry: s := 0; L: s := s + n; if (s < 100) goto L; exit: ret s
        let mut b = FuncBuilder::new("f", 1, 0);
        let n = b.func().params[0];
        let s = b.vreg(RegClass::Int);
        b.func_mut().ret = Some(s);
        b.copy(s, Operand::Imm(0));
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(body);
        b.switch_to(body);
        b.assign(s, RExpr::Bin(BinOp::Add, s.into(), n.into()));
        b.branch_if(
            RegClass::Int,
            CmpOp::Lt,
            s.into(),
            Operand::Imm(100),
            body,
            exit,
        );
        b.switch_to(exit);
        b.emit(wm_ir::InstKind::Ret);
        let f = b.finish();
        agrees_with_reference(&f, "self-loop");
        let lv = Liveness::compute(&f);
        assert_eq!(as_hash(&lv.live_in(1)), HashSet::from([s, n]));
        assert_eq!(as_hash(&lv.live_out(1)), HashSet::from([s, n]));
        assert_eq!(as_hash(&lv.live_in(2)), HashSet::from([s]));
    }

    #[test]
    fn unterminated_block_falls_through_to_the_next() {
        // entry: t := n * 2 (no terminator) → next: ret t
        let mut f = Function::new("f", 1, 0);
        let n = f.params[0];
        let t = f.new_vreg(RegClass::Int);
        f.ret = Some(t);
        let entry = f.entry_label();
        let next = f.add_block();
        f.push(
            entry,
            InstKind::Assign {
                dst: t,
                src: RExpr::Bin(BinOp::Mul, n.into(), Operand::Imm(2)),
            },
        );
        f.push(next, InstKind::Ret);
        agrees_with_reference(&f, "fall-through");
        let lv = Liveness::compute(&f);
        assert_eq!(as_hash(&lv.live_out(0)), HashSet::from([t]));
        assert_eq!(as_hash(&lv.live_in(0)), HashSet::from([n]));
    }

    #[test]
    fn unreachable_block_has_liveness_but_feeds_no_live_block() {
        // entry: jump exit; dead: u := n + 1; jump exit; exit: ret n
        let mut f = Function::new("f", 1, 0);
        let n = f.params[0];
        let u = f.new_vreg(RegClass::Int);
        f.ret = Some(n);
        let entry = f.entry_label();
        let dead = f.add_block();
        let exit = f.add_block();
        f.push(entry, InstKind::Jump { target: exit });
        f.push(
            dead,
            InstKind::Assign {
                dst: u,
                src: RExpr::Bin(BinOp::Add, n.into(), Operand::Imm(1)),
            },
        );
        f.push(dead, InstKind::Jump { target: exit });
        f.push(exit, InstKind::Ret);
        agrees_with_reference(&f, "unreachable");
        let lv = Liveness::compute(&f);
        assert_eq!(as_hash(&lv.live_in(1)), HashSet::from([n]));
        assert!(!lv.live_in(0).contains(u));
        assert!(!lv.live_out(1).contains(u));
    }
}
