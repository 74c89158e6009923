//! Induction-variable and affine address-expression analysis.
//!
//! The recurrence and streaming algorithms need, for every memory reference
//! in a loop, the decomposition the paper writes as `iv = c*i + d`: which
//! induction variable drives the address, the byte coefficient per unit of
//! the induction variable (`cee`), and the constant part (`dee`) relative to
//! a *region base* (a global symbol or an invariant pointer register).

use wm_ir::fx::FxHashMap;
use wm_ir::{
    BinOp, CmpOp, FlatLists, Function, InstKind, MemRef, Operand, RExpr, Reg, RegClass, SymId,
};

use crate::cfg::{Dominators, Loop};
use crate::liveness::{bit, reg_at, slots};

/// The memory region an address is based on; the partition key of the
/// paper's Step 1 ("partitions that reference disjoint sections of memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// A global symbol.
    Global(SymId),
    /// An invariant pointer register (e.g. a pointer parameter or the stack
    /// pointer).
    Reg(Reg),
    /// Statically unknown; per the paper such a reference "will be added to
    /// each partition as it potentially touches each".
    Unknown,
}

/// An address in the form `region + coeff*iv + inv.0*inv.1 + off`.
///
/// The `inv` term carries a *loop-invariant register* scaled by a constant
/// — the `i*n` part of a matrix reference `a[i*n + k]` analyzed in the
/// inner `k` loop. It is constant for the duration of the loop, so it
/// behaves like part of `dee`, except that two references are only
/// offset-comparable when their `inv` terms are identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// The region base.
    pub region: Region,
    /// The driving induction variable, if the address varies with one.
    pub iv: Option<Reg>,
    /// Bytes per unit of `iv` — the paper's `cee` (0 when `iv` is `None`).
    pub coeff: i64,
    /// Loop-invariant register term: `reg * mult` bytes.
    pub inv: Option<(Reg, i64)>,
    /// Constant byte offset from the region base — the paper's `dee`.
    pub off: i64,
}

impl Affine {
    fn constant(off: i64) -> Affine {
        Affine {
            region: Region::Unknown,
            iv: None,
            coeff: 0,
            inv: None,
            off,
        }
    }

    fn is_pure_const(&self) -> bool {
        self.region == Region::Unknown && self.iv.is_none() && self.inv.is_none()
    }
}

/// A basic induction variable: a register with exactly one in-loop
/// definition of the form `r := r ± c` (or `r := r + s` for a
/// loop-invariant register `s` — the *symbolic-step* case the WM's
/// register-stride stream instructions can still exploit), executed once
/// per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndVar {
    /// The register.
    pub reg: Reg,
    /// Signed constant step per iteration (unused when `step_reg` is set).
    pub step: i64,
    /// Loop-invariant register step, for symbolic-stride loops.
    pub step_reg: Option<Reg>,
    /// Location `(block index, inst index)` of the increment.
    pub def: (usize, usize),
}

impl IndVar {
    /// Is the step a compile-time constant?
    pub fn is_const_step(&self) -> bool {
        self.step_reg.is_none()
    }
}

/// Where each register is defined: `(block index, inst index)` pairs in
/// program order, every register's list in one flat buffer indexed by its
/// liveness bit position.
#[derive(Debug, Clone)]
pub struct DefMap(FlatLists<(usize, usize)>);

impl DefMap {
    /// The definitions of `r`, or `None` if nothing defines it.
    pub fn get(&self, r: &Reg) -> Option<&[(usize, usize)]> {
        let b = bit(*r);
        (b < self.0.len())
            .then(|| &self.0[b])
            .filter(|sites| !sites.is_empty())
    }

    /// Every defined register with its definitions, in bit-position
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &[(usize, usize)])> + '_ {
        self.0
            .lists()
            .enumerate()
            .filter(|(_, sites)| !sites.is_empty())
            .map(|(b, sites)| (reg_at(b), sites))
    }
}

/// Build the definition map for a whole function.
pub fn def_map(func: &Function) -> DefMap {
    DefMap(FlatLists::build(slots(func), |add| {
        for (bi, block) in func.blocks.iter().enumerate() {
            for (ii, inst) in block.insts.iter().enumerate() {
                inst.kind.for_each_def(|d| add(bit(d), (bi, ii)));
            }
        }
    }))
}

/// Analysis context for one loop.
#[derive(Debug)]
pub struct LoopAnalysis<'a> {
    /// The function under analysis.
    pub func: &'a Function,
    /// The loop.
    pub lp: &'a Loop,
    /// Dominators of the function.
    pub dom: &'a Dominators,
    /// All register definitions in the function.
    pub defs: DefMap,
    /// Basic induction variables of the loop, by register.
    pub ivs: FxHashMap<Reg, IndVar>,
}

impl<'a> LoopAnalysis<'a> {
    /// Analyze `lp` in `func`.
    pub fn new(func: &'a Function, lp: &'a Loop, dom: &'a Dominators) -> LoopAnalysis<'a> {
        let defs = def_map(func);
        let mut ivs = FxHashMap::default();
        for (reg, sites) in defs.iter() {
            let mut in_loop = sites.iter().copied().filter(|(bi, _)| lp.contains(*bi));
            let (Some((bi, ii)), None) = (in_loop.next(), in_loop.next()) else {
                continue;
            };
            // the increment must run once per iteration
            if !lp.latches.iter().all(|&l| dom.dominates(bi, l)) {
                continue;
            }
            let inst = &func.blocks[bi].insts[ii];
            if let InstKind::Assign {
                dst,
                src: RExpr::Bin(op, a, b),
            } = &inst.kind
            {
                if *dst != reg {
                    continue;
                }
                let step = match (op, *a, *b) {
                    (BinOp::Add, Operand::Reg(r), Operand::Imm(c)) if r == reg => Some((c, None)),
                    (BinOp::Add, Operand::Imm(c), Operand::Reg(r)) if r == reg => Some((c, None)),
                    (BinOp::Sub, Operand::Reg(r), Operand::Imm(c)) if r == reg => Some((-c, None)),
                    // symbolic step: r := r + s with s invariant in the loop
                    (BinOp::Add, Operand::Reg(r), Operand::Reg(st)) if r == reg && st != reg => {
                        Some((0, Some(st)))
                    }
                    (BinOp::Add, Operand::Reg(st), Operand::Reg(r)) if r == reg && st != reg => {
                        Some((0, Some(st)))
                    }
                    _ => None,
                };
                if let Some((step, step_reg)) = step {
                    // a symbolic step register must itself be loop-invariant
                    let invariant_step = match step_reg {
                        None => true,
                        Some(sr) => !defs
                            .get(&sr)
                            .map(|sites| sites.iter().any(|(bi, _)| lp.contains(*bi)))
                            .unwrap_or(false),
                    };
                    if (step != 0 || step_reg.is_some()) && invariant_step {
                        ivs.insert(
                            reg,
                            IndVar {
                                reg,
                                step,
                                step_reg,
                                def: (bi, ii),
                            },
                        );
                    }
                }
            }
        }
        LoopAnalysis {
            func,
            lp,
            dom,
            defs,
            ivs,
        }
    }

    fn defs_in_loop(&self, r: Reg) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.defs
            .get(&r)
            .unwrap_or_default()
            .iter()
            .copied()
            .filter(|(bi, _)| self.lp.contains(*bi))
    }

    /// Evaluate an operand at use site `at` into affine form.
    pub fn eval_operand(&self, op: Operand, at: (usize, usize), depth: u32) -> Option<Affine> {
        match op {
            Operand::Imm(k) => Some(Affine::constant(k)),
            Operand::FImm(_) => None,
            Operand::Reg(r) => self.eval_reg(r, at, depth),
        }
    }

    fn eval_reg(&self, r: Reg, at: (usize, usize), depth: u32) -> Option<Affine> {
        if depth == 0 || r.class == RegClass::Flt {
            return None;
        }
        if r.is_zero() {
            return Some(Affine::constant(0));
        }
        if let Some(iv) = self.ivs.get(&r) {
            // A use positioned after the increment sees `iv + step` relative
            // to the value the IV held at the top of the iteration; the
            // `dee` of such a reference must account for it.
            let (dbi, dii) = iv.def;
            let after = if at.0 == dbi {
                at.1 > dii
            } else {
                self.lp.contains(at.0) && self.dom.dominates(dbi, at.0)
            };
            if after && !iv.is_const_step() {
                return None; // offset would be symbolic
            }
            return Some(Affine {
                region: Region::Unknown,
                iv: Some(r),
                coeff: 1,
                inv: None,
                off: if after { iv.step } else { 0 },
            });
        }
        let mut in_loop = self.defs_in_loop(r);
        let (dbi, dii) = match (in_loop.next(), in_loop.next()) {
            (None, _) => return Some(self.resolve_invariant(r, depth)),
            (Some(site), None) => site,
            (Some(_), Some(_)) => return None,
        };
        // The definition must dominate the use for per-iteration evaluation.
        let dominates = if dbi == at.0 {
            dii < at.1
        } else {
            self.dom.dominates(dbi, at.0)
        };
        if !dominates {
            return None;
        }
        match &self.func.blocks[dbi].insts[dii].kind {
            InstKind::Assign { src, .. } => self.eval_expr(src, (dbi, dii), depth - 1),
            InstKind::LoadAddr { sym, disp, .. } => Some(Affine {
                region: Region::Global(*sym),
                iv: None,
                coeff: 0,
                inv: None,
                off: *disp,
            }),
            _ => None,
        }
    }

    /// Resolve a loop-invariant register: through a unique reaching
    /// definition it may be a global address or a constant; otherwise it is
    /// an opaque invariant base.
    fn resolve_invariant(&self, r: Reg, depth: u32) -> Affine {
        let sites = self.defs.get(&r).unwrap_or_default();
        if sites.len() == 1 {
            let (bi, ii) = sites[0];
            match &self.func.blocks[bi].insts[ii].kind {
                InstKind::LoadAddr { sym, disp, .. } => {
                    return Affine {
                        region: Region::Global(*sym),
                        iv: None,
                        coeff: 0,
                        inv: None,
                        off: *disp,
                    }
                }
                InstKind::Assign { src, .. }
                    // chase invariant chains like `r := (sp) + 16`
                    if depth > 0 => {
                        if let Some(a) = self.eval_invariant_expr(src, depth - 1) {
                            return a;
                        }
                    }
                _ => {}
            }
        }
        if sites.is_empty() && r == Reg::sp() {
            return Affine {
                region: Region::Reg(r),
                iv: None,
                coeff: 0,
                inv: None,
                off: 0,
            };
        }
        Affine {
            region: Region::Reg(r),
            iv: None,
            coeff: 0,
            inv: None,
            off: 0,
        }
    }

    /// Evaluate an expression all of whose registers are loop-invariant.
    fn eval_invariant_expr(&self, e: &RExpr, depth: u32) -> Option<Affine> {
        let eval = |op: Operand| -> Option<Affine> {
            match op {
                Operand::Imm(k) => Some(Affine::constant(k)),
                Operand::FImm(_) => None,
                Operand::Reg(r) => {
                    if self.defs_in_loop(r).next().is_some() {
                        return None;
                    }
                    if r.is_zero() {
                        return Some(Affine::constant(0));
                    }
                    Some(self.resolve_invariant(r, depth))
                }
            }
        };
        match e {
            RExpr::Op(a) => eval(*a),
            RExpr::Bin(op, a, b) => combine(*op, eval(*a)?, eval(*b)?),
            RExpr::Dual {
                inner,
                a,
                b,
                outer,
                c,
            } => {
                let ab = combine(*inner, eval(*a)?, eval(*b)?)?;
                combine(*outer, ab, eval(*c)?)
            }
            RExpr::Un(..) => None,
        }
    }

    /// Evaluate an RTL expression at `at` into affine form.
    pub fn eval_expr(&self, e: &RExpr, at: (usize, usize), depth: u32) -> Option<Affine> {
        match e {
            RExpr::Op(a) => self.eval_operand(*a, at, depth),
            RExpr::Un(..) => None,
            RExpr::Bin(op, a, b) => combine(
                *op,
                self.eval_operand(*a, at, depth)?,
                self.eval_operand(*b, at, depth)?,
            ),
            RExpr::Dual {
                inner,
                a,
                b,
                outer,
                c,
            } => {
                let ab = combine(
                    *inner,
                    self.eval_operand(*a, at, depth)?,
                    self.eval_operand(*b, at, depth)?,
                )?;
                combine(*outer, ab, self.eval_operand(*c, at, depth)?)
            }
        }
    }

    /// Evaluate a generic structured memory reference at `at`.
    pub fn eval_memref(&self, mem: &MemRef, at: (usize, usize), depth: u32) -> Option<Affine> {
        let mut acc = match mem.sym {
            Some(sym) => Affine {
                region: Region::Global(sym),
                iv: None,
                coeff: 0,
                inv: None,
                off: mem.disp,
            },
            None => Affine::constant(mem.disp),
        };
        if let Some(base) = mem.base {
            let b = self.eval_reg(base, at, depth)?;
            acc = combine(BinOp::Add, acc, b)?;
        }
        if let Some((idx, sc)) = mem.index {
            let i = self.eval_reg(idx, at, depth)?;
            let i = scale(i, 1i64 << sc)?;
            acc = combine(BinOp::Add, acc, i)?;
        }
        Some(acc)
    }

    /// The signed per-iteration byte stride of an affine address
    /// (`None` when the loop step is a register).
    pub fn stride_of(&self, a: &Affine) -> Option<i64> {
        let iv = a.iv?;
        let ind = self.ivs.get(&iv)?;
        if !ind.is_const_step() {
            return None;
        }
        Some(a.coeff * ind.step)
    }

    /// The symbolic step register of the IV driving `a`, if any.
    pub fn sym_step_of(&self, a: &Affine) -> Option<Reg> {
        let iv = a.iv?;
        self.ivs.get(&iv)?.step_reg
    }
}

/// Scaling a value-like affine by a constant. An opaque invariant register
/// "region" demotes to an invariant term (`i * 40` is a value, not a
/// pointer); a global region cannot be scaled.
fn scale(a: Affine, m: i64) -> Option<Affine> {
    let inv = match (a.region, a.inv) {
        (Region::Global(_), _) => return None,
        (Region::Reg(r), None) => Some((r, m)),
        (Region::Reg(_), Some(_)) => return None,
        (Region::Unknown, Some((r, k))) => Some((r, k * m)),
        (Region::Unknown, None) => None,
    };
    Some(Affine {
        region: Region::Unknown,
        iv: a.iv,
        coeff: a.coeff * m,
        inv,
        off: a.off * m,
    })
}

/// Combine two affine values under a binary operator.
fn combine(op: BinOp, a: Affine, b: Affine) -> Option<Affine> {
    match op {
        BinOp::Add => {
            // Merge regions; when both operands carry an opaque invariant
            // register, the left one stays the region base and the right
            // one demotes to an invariant value term (`p + x`).
            let (region, extra_inv) = match (a.region, b.region) {
                (r, Region::Unknown) => (r, None),
                (Region::Unknown, r) => (r, None),
                (Region::Global(g), Region::Reg(v)) | (Region::Reg(v), Region::Global(g)) => {
                    (Region::Global(g), Some((v, 1)))
                }
                (Region::Reg(p), Region::Reg(v)) => (Region::Reg(p), Some((v, 1))),
                _ => return None, // adding two globals
            };
            let iv = match (a.iv, b.iv) {
                (x, None) => x,
                (None, y) => y,
                (Some(x), Some(y)) if x == y => Some(x),
                _ => return None,
            };
            let coeff = if a.iv.is_some() && b.iv.is_some() {
                a.coeff + b.coeff
            } else if a.iv.is_some() {
                a.coeff
            } else {
                b.coeff
            };
            let inv = match (a.inv, b.inv, extra_inv) {
                (x, None, None) => x,
                (None, y, None) => y,
                (None, None, z) => z,
                (Some((r1, k1)), Some((r2, k2)), None) if r1 == r2 => Some((r1, k1 + k2)),
                _ => return None, // more than one distinct invariant term
            };
            Some(Affine {
                region,
                iv,
                coeff,
                inv,
                off: a.off + b.off,
            })
        }
        BinOp::Sub => {
            if b.region != Region::Unknown {
                return None; // subtracting a pointer
            }
            let neg = Affine {
                region: Region::Unknown,
                iv: b.iv,
                coeff: -b.coeff,
                inv: b.inv.map(|(r, k)| (r, -k)),
                off: -b.off,
            };
            combine(BinOp::Add, a, neg)
        }
        BinOp::Shl => {
            if !b.is_pure_const() {
                return None;
            }
            let m = 1i64.checked_shl(b.off as u32)?;
            scale(a, m)
        }
        BinOp::Mul => {
            let (val, k) = if b.is_pure_const() {
                (a, b.off)
            } else if a.is_pure_const() {
                (b, a.off)
            } else {
                return None;
            };
            scale(val, k)
        }
        _ => None,
    }
}

/// The loop-bottom test, decomposed for trip-count reasoning.
#[derive(Debug, Clone, Copy)]
pub struct LatchInfo {
    /// The induction variable tested.
    pub iv: IndVar,
    /// Comparison that must hold (on the already-incremented IV) for the
    /// loop to continue, normalized to `iv cmp bound`.
    pub cmp: CmpOp,
    /// The loop-invariant bound.
    pub bound: Operand,
    /// Location of the Compare instruction in the latch block.
    pub compare: (usize, usize),
    /// Location of the Branch instruction in the latch block.
    pub branch: (usize, usize),
}

/// Recognize the single-latch bottom test `iv cmp bound` of a loop.
///
/// Returns `None` when the loop has multiple latches or the test does not
/// match the canonical shape, in which case the trip count is unknown and
/// streaming must use unbounded streams.
pub fn analyze_latch(la: &LoopAnalysis<'_>) -> Option<LatchInfo> {
    if la.lp.latches.len() != 1 {
        return None;
    }
    let latch = la.lp.latches[0];
    let block = &la.func.blocks[latch];
    let header_label = la.func.blocks[la.lp.header].label;
    let bii = block.insts.len().checked_sub(1)?;
    let (when, target, els) = match &block.insts[bii].kind {
        InstKind::Branch {
            class: RegClass::Int,
            when,
            target,
            els,
        } => (*when, *target, *els),
        _ => return None,
    };
    let continue_on_true = if target == header_label {
        when
    } else if els == header_label {
        !when
    } else {
        return None;
    };
    // Find the last integer Compare in the latch block before the branch.
    let (cii, (op, a, b)) = block.insts[..bii]
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, inst)| match &inst.kind {
            InstKind::Compare {
                class: RegClass::Int,
                op,
                a,
                b,
            } => Some((i, (*op, *a, *b))),
            _ => None,
        })?;
    let op = if continue_on_true { op } else { op.negate() };
    // Normalize so the IV is on the left.
    let (op, ivreg, bound) = match (a, b) {
        (Operand::Reg(r), other) if la.ivs.contains_key(&r) => (op, r, other),
        (other, Operand::Reg(r)) if la.ivs.contains_key(&r) => (op.swap(), r, other),
        _ => return None,
    };
    // The bound must be loop-invariant.
    if let Operand::Reg(r) = bound {
        if la.defs_in_loop(r).next().is_some() {
            return None;
        }
    }
    let iv = la.ivs[&ivreg];
    // Direction sanity: a countable loop steps toward its bound. A
    // symbolic (register) step is accepted for upward loops — if the step
    // were zero or negative the source loop would not terminate anyway, so
    // assuming it positive preserves the program's own contract.
    let ok = match (op, iv.is_const_step()) {
        (CmpOp::Lt | CmpOp::Le, true) => iv.step > 0,
        (CmpOp::Gt | CmpOp::Ge, true) => iv.step < 0,
        (CmpOp::Ne, true) => iv.step == 1 || iv.step == -1,
        (CmpOp::Lt | CmpOp::Le, false) => true,
        _ => false,
    };
    if !ok {
        return None;
    }
    Some(LatchInfo {
        iv,
        cmp: op,
        bound,
        compare: (latch, cii),
        branch: (latch, bii),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{natural_loops, Dominators};
    use wm_ir::Width;

    /// Lower the Livermore-5 kernel and return everything needed to analyze
    /// its single loop.
    fn loop5() -> (Function, wm_ir::Module) {
        let m = wm_frontend::compile(
            r"
            double x[1000]; double y[1000]; double z[1000];
            void loop5(int n) {
                int i;
                for (i = 2; i < n; i++)
                    x[i] = z[i] * (y[i] - x[i-1]);
            }
        ",
        )
        .unwrap();
        let f = m.function_named("loop5").unwrap().clone();
        (f, m)
    }

    #[test]
    fn finds_induction_variable_and_latch() {
        let (f, _m) = loop5();
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        assert_eq!(loops.len(), 1);
        let la = LoopAnalysis::new(&f, &loops[0], &dom);
        assert_eq!(la.ivs.len(), 1, "exactly one basic IV: i");
        let iv = la.ivs.values().next().unwrap();
        assert_eq!(iv.step, 1);
        let latch = analyze_latch(&la).expect("canonical bottom test");
        assert_eq!(latch.cmp, CmpOp::Lt);
        assert_eq!(latch.iv.reg, iv.reg);
    }

    #[test]
    fn memory_references_have_paper_affine_forms() {
        let (f, m) = loop5();
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        let la = LoopAnalysis::new(&f, &loops[0], &dom);
        let x = m.lookup("x").unwrap();
        let iv = *la.ivs.keys().next().unwrap();

        // Collect the affine decompositions of all loop memory references.
        let mut forms = Vec::new();
        for &bi in &loops[0].blocks {
            for (ii, inst) in f.blocks[bi].insts.iter().enumerate() {
                if let Some(wm_ir::MemAccess::Generic { mem, is_load }) = inst.kind.mem_access() {
                    let a = la.eval_memref(mem, (bi, ii), 8).expect("affine");
                    forms.push((a, is_load, mem.width));
                }
            }
        }
        assert_eq!(forms.len(), 4);
        // Every reference: cee = 8, driven by i.
        for (a, _, w) in &forms {
            assert_eq!(a.coeff, 8, "cee is 8 for doubles: {a:?}");
            assert_eq!(a.iv, Some(iv));
            assert_eq!(*w, Width::D8);
        }
        // The x[i-1] read has dee = _x - 8; the x[i] write has dee = _x.
        let x_reads: Vec<_> = forms
            .iter()
            .filter(|(a, is_load, _)| a.region == Region::Global(x) && *is_load)
            .collect();
        assert_eq!(x_reads.len(), 1);
        assert_eq!(x_reads[0].0.off, -8);
        let x_writes: Vec<_> = forms
            .iter()
            .filter(|(a, is_load, _)| a.region == Region::Global(x) && !*is_load)
            .collect();
        assert_eq!(x_writes.len(), 1);
        assert_eq!(x_writes[0].0.off, 0);
    }

    #[test]
    fn stride_is_cee_times_loop_increment() {
        let (f, _m) = loop5();
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        let la = LoopAnalysis::new(&f, &loops[0], &dom);
        let iv = *la.ivs.keys().next().unwrap();
        let a = Affine {
            region: Region::Unknown,
            iv: Some(iv),
            coeff: 8,
            inv: None,
            off: 0,
        };
        assert_eq!(la.stride_of(&a), Some(8));
    }

    #[test]
    fn combine_rejects_pointer_plus_pointer() {
        let g = Affine {
            region: Region::Global(SymId(0)),
            iv: None,
            coeff: 0,
            inv: None,
            off: 0,
        };
        assert!(combine(BinOp::Add, g, g).is_none());
        assert!(combine(BinOp::Sub, Affine::constant(4), g).is_none());
        // but pointer + const works
        let r = combine(BinOp::Add, g, Affine::constant(12)).unwrap();
        assert_eq!(r.off, 12);
        assert_eq!(r.region, Region::Global(SymId(0)));
    }
}
