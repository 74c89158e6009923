//! Liveness-driven graph-coloring register allocation.
//!
//! Both targets share one software convention over the WM's two 32-register
//! files: `r31`/`f31` are hard-wired zero, `r30` is the stack pointer,
//! `r0`/`r1`/`f0`/`f1` are the FIFO-mapped cells, arguments travel in
//! `r2..r7`/`f2..f7` and the return value comes back in `r2`/`f2`. That
//! leaves `r2..r29` (and likewise `f2..f29`) allocatable.
//!
//! Allocation proceeds in three phases:
//!
//! 1. **Convention lowering** — parameters are copied out of the argument
//!    registers, call arguments are marshalled into them, and every virtual
//!    register live across a call is saved to a stack slot and reloaded
//!    after the call (the machines share a single global register file, so
//!    a callee clobbers everything it touches; splitting the live ranges at
//!    call sites makes that safe without callee-save bookkeeping).
//! 2. **Coloring** — a Chaitin-style simplify/select loop with Briggs
//!    optimistic spilling over the interference graph built from liveness.
//!    Physical registers act as precolored nodes. Uncolorable registers are
//!    spilled everywhere (reload before each use, store after each def) and
//!    the loop retries.
//! 3. **Frame code** — once the final frame size (locals plus spill slots)
//!    is known, the prologue decrements the stack pointer at function entry
//!    and an epilogue restores it before every return.

use std::collections::BTreeSet;
use std::fmt;

use wm_ir::fx::{FxHashMap, FxHashSet};
use wm_ir::{
    BinOp, DataFifo, Function, Inst, InstKind, MemRef, Operand, RExpr, Reg, RegClass, Width,
    FIRST_ARG_REG, NUM_ARG_REGS, SP_REG,
};
use wm_opt::liveness::{defs_of, tracked, Liveness, RegSet};

/// Which instruction set the allocated code will execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// The WM access/execute machine: spills travel through the FIFOs.
    Wm,
    /// The 1990 scalar machines of Table I: spills are generic accesses.
    Scalar,
}

/// Why allocation failed. The driver surfaces this instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// More arguments of one class than the convention has registers for.
    TooManyArgs {
        /// Function being allocated (or containing the offending call).
        function: String,
        /// Register class that overflowed.
        class: RegClass,
        /// Number of arguments of that class.
        count: usize,
    },
    /// Spilling failed to make the function colorable.
    OutOfRegisters {
        /// Function being allocated.
        function: String,
        /// Register class that could not be colored.
        class: RegClass,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::TooManyArgs {
                function,
                class,
                count,
            } => write!(
                f,
                "{function}: {count} {class} arguments exceed the {NUM_ARG_REGS} argument registers"
            ),
            AllocError::OutOfRegisters { function, class } => {
                write!(f, "{function}: ran out of {class} registers while spilling")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Lowest allocatable register number (`r2`/`f2`).
const FIRST_ALLOC: u8 = FIRST_ARG_REG;
/// Highest allocatable register number (`r29`/`f29`).
const LAST_ALLOC: u8 = SP_REG - 1;
/// Colors per class.
const NUM_COLORS: usize = (LAST_ALLOC - FIRST_ALLOC + 1) as usize;

/// Allocate `func`'s virtual registers onto the architected files of
/// `target`, lowering the call convention and emitting frame code.
pub fn allocate_registers(func: &mut Function, target: TargetKind) -> Result<(), AllocError> {
    let mut slots = SpillSlots::default();
    lower_conventions(func, target, &mut slots)?;
    color_and_rewrite(func, target, &mut slots)?;
    add_frame_code(func);
    Ok(())
}

/// Stack-slot assignment for saved/spilled registers (one 8-byte slot per
/// register, allocated past the function's locals).
#[derive(Default)]
struct SpillSlots {
    offsets: FxHashMap<Reg, i64>,
}

impl SpillSlots {
    fn offset(&mut self, func: &mut Function, r: Reg) -> i64 {
        *self.offsets.entry(r).or_insert_with(|| {
            let off = func.frame_size;
            func.frame_size += 8;
            off
        })
    }
}

fn sp_plus(off: i64) -> RExpr {
    RExpr::Bin(BinOp::Add, Operand::Reg(Reg::sp()), Operand::Imm(off))
}

/// Store `r` to its stack slot. On the WM a store is an enqueue paired
/// with an address computation; an 8-byte slot holds either class (the
/// memory image stores both as 8 little-endian bytes).
fn emit_save(func: &mut Function, out: &mut Vec<Inst>, target: TargetKind, r: Reg, off: i64) {
    match target {
        TargetKind::Wm => {
            push_new(
                func,
                out,
                InstKind::Assign {
                    dst: Reg::phys(r.class, 0),
                    src: RExpr::Op(Operand::Reg(r)),
                },
            );
            push_new(
                func,
                out,
                InstKind::WStore {
                    unit: r.class,
                    addr: sp_plus(off),
                    width: Width::D8,
                },
            );
        }
        TargetKind::Scalar => {
            push_new(
                func,
                out,
                InstKind::GStore {
                    src: Operand::Reg(r),
                    mem: MemRef::base(Reg::sp(), off, Width::D8),
                },
            );
        }
    }
}

/// Reload `r` from its stack slot.
fn emit_reload(func: &mut Function, out: &mut Vec<Inst>, target: TargetKind, r: Reg, off: i64) {
    match target {
        TargetKind::Wm => {
            push_new(
                func,
                out,
                InstKind::WLoad {
                    fifo: DataFifo::new(r.class, 0),
                    addr: sp_plus(off),
                    width: Width::D8,
                },
            );
            push_new(
                func,
                out,
                InstKind::Assign {
                    dst: r,
                    src: RExpr::Op(Operand::Reg(Reg::phys(r.class, 0))),
                },
            );
        }
        TargetKind::Scalar => {
            push_new(
                func,
                out,
                InstKind::GLoad {
                    dst: r,
                    mem: MemRef::base(Reg::sp(), off, Width::D8),
                },
            );
        }
    }
}

fn push_new(func: &mut Function, out: &mut Vec<Inst>, kind: InstKind) {
    let id = func.new_inst_id();
    out.push(Inst { id, kind });
}

fn class_slot(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Flt => 1,
    }
}

/// Phase 1: lower parameters, call sites and returns onto the argument
/// register convention, saving virtuals that live across calls.
fn lower_conventions(
    func: &mut Function,
    target: TargetKind,
    slots: &mut SpillSlots,
) -> Result<(), AllocError> {
    // Spill slots are doubles; round the local area up to keep them aligned.
    func.frame_size = (func.frame_size + 7) & !7;

    // Copy incoming arguments out of the convention registers so their
    // live ranges end immediately and r2../f2.. stay allocatable.
    let params = func.params.clone();
    let mut counts = [0u8; 2];
    let mut copies = Vec::new();
    for p in params {
        let n = counts[class_slot(p.class)];
        counts[class_slot(p.class)] += 1;
        if n >= NUM_ARG_REGS {
            return Err(AllocError::TooManyArgs {
                function: func.name.clone(),
                class: p.class,
                count: counts[class_slot(p.class)] as usize,
            });
        }
        if p.is_virt() {
            copies.push(InstKind::Assign {
                dst: p,
                src: RExpr::Op(Operand::Reg(Reg::phys(p.class, FIRST_ARG_REG + n))),
            });
        }
    }
    if !func.blocks.is_empty() {
        let entry = func.entry_label();
        for (i, copy) in copies.into_iter().enumerate() {
            let id = func.new_inst_id();
            func.block_mut(entry)
                .insts
                .insert(i, Inst { id, kind: copy });
        }
    }

    let liveness = Liveness::compute(func);
    let mut live = RegSet::for_function(func);
    let ret_reg = func.ret;
    for bi in 0..func.blocks.len() {
        let needs_work = func.blocks[bi]
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Call { .. } | InstKind::Ret));
        if !needs_work {
            continue;
        }
        // Every virtual live across each call, bar the call's own result:
        // the callee shares the register file and clobbers freely.
        let mut saved: Vec<Vec<Reg>> = vec![Vec::new(); func.blocks[bi].insts.len()];
        live.copy_from(liveness.live_out(bi));
        for (ii, inst) in func.blocks[bi].insts.iter().enumerate().rev() {
            if let InstKind::Call { ret, .. } = inst.kind {
                saved[ii] = live
                    .iter()
                    .filter(|r| r.is_virt() && Some(*r) != ret)
                    .collect();
                saved[ii].sort();
            }
            live.step_back(&inst.kind, func);
        }
        let insts = std::mem::take(&mut func.blocks[bi].insts);
        let mut out = Vec::with_capacity(insts.len() + 8);
        for (ii, inst) in insts.into_iter().enumerate() {
            let Inst { id, kind } = inst;
            match kind {
                InstKind::Call { callee, args, ret } => {
                    let across = std::mem::take(&mut saved[ii]);
                    for &r in &across {
                        let off = slots.offset(func, r);
                        emit_save(func, &mut out, target, r, off);
                    }
                    // Marshal arguments into the convention registers.
                    let mut counts = [0u8; 2];
                    let mut phys_args = Vec::with_capacity(args.len());
                    for a in args {
                        let n = counts[class_slot(a.class)];
                        counts[class_slot(a.class)] += 1;
                        if n >= NUM_ARG_REGS {
                            return Err(AllocError::TooManyArgs {
                                function: func.name.clone(),
                                class: a.class,
                                count: counts[class_slot(a.class)] as usize,
                            });
                        }
                        let dst = Reg::phys(a.class, FIRST_ARG_REG + n);
                        if a != dst {
                            push_new(
                                func,
                                &mut out,
                                InstKind::Assign {
                                    dst,
                                    src: RExpr::Op(Operand::Reg(a)),
                                },
                            );
                        }
                        phys_args.push(dst);
                    }
                    let phys_ret = ret.map(|r| Reg::phys(r.class, FIRST_ARG_REG));
                    out.push(Inst {
                        id,
                        kind: InstKind::Call {
                            callee,
                            args: phys_args,
                            ret: phys_ret,
                        },
                    });
                    if let Some(r) = ret {
                        if r.is_virt() {
                            push_new(
                                func,
                                &mut out,
                                InstKind::Assign {
                                    dst: r,
                                    src: RExpr::Op(Operand::Reg(Reg::phys(r.class, FIRST_ARG_REG))),
                                },
                            );
                        }
                    }
                    for &r in &across {
                        let off = slots.offset(func, r);
                        emit_reload(func, &mut out, target, r, off);
                    }
                }
                InstKind::Ret => {
                    if let Some(rv) = ret_reg {
                        if rv.is_virt() {
                            push_new(
                                func,
                                &mut out,
                                InstKind::Assign {
                                    dst: Reg::phys(rv.class, FIRST_ARG_REG),
                                    src: RExpr::Op(Operand::Reg(rv)),
                                },
                            );
                        }
                    }
                    out.push(Inst {
                        id,
                        kind: InstKind::Ret,
                    });
                }
                other => out.push(Inst { id, kind: other }),
            }
        }
        func.blocks[bi].insts = out;
    }
    if let Some(rv) = func.ret {
        if rv.is_virt() {
            func.ret = Some(Reg::phys(rv.class, FIRST_ARG_REG));
        }
    }
    Ok(())
}

/// Phase 2: iterate build → simplify → select → (spill) until every
/// virtual register has a color, then rewrite the function.
fn color_and_rewrite(
    func: &mut Function,
    target: TargetKind,
    slots: &mut SpillSlots,
) -> Result<(), AllocError> {
    // Temporaries introduced by spilling: picking one of these to spill
    // again means spilling cannot converge.
    let mut spill_temps: FxHashSet<Reg> = FxHashSet::default();
    // Registers carrying spill slots already (their remaining ranges are
    // single instructions, so re-spilling them is equally hopeless).
    let mut spilled: FxHashSet<Reg> = FxHashSet::default();
    loop {
        let (assignment, to_spill) = try_color(func);
        if to_spill.is_empty() {
            apply_assignment(func, &assignment);
            return Ok(());
        }
        for r in &to_spill {
            if spill_temps.contains(r) || spilled.contains(r) {
                return Err(AllocError::OutOfRegisters {
                    function: func.name.clone(),
                    class: r.class,
                });
            }
        }
        spilled.extend(to_spill.iter().copied());
        spill_everywhere(func, target, slots, &to_spill, &mut spill_temps);
    }
}

/// Allocatable colors as a mask over register numbers.
const ALLOC_MASK: u32 = (1 << (LAST_ALLOC + 1)) - (1 << FIRST_ALLOC);

/// Position of virtual register `r` in a table with two entries per id
/// below [`Function::vreg_count`], one per class.
fn virt_slot(r: Reg) -> usize {
    2 * r.virt_id().expect("virtual register") as usize + class_slot(r.class)
}

/// The interference graph of one coloring round, on dense node indices
/// in `Reg` order (integer virtuals by id, then floating-point ones).
/// Only same-class registers interfere: the two register files are
/// disjoint.
struct Interference {
    /// Node `i` is virtual register `nodes[i]`.
    nodes: Vec<Reg>,
    /// Words per adjacency row.
    words: usize,
    /// Row `i` is `adj[i * words..][..words]`: bit `j` set iff nodes `i`
    /// and `j` interfere.
    adj: Vec<u64>,
    /// Bit `n` of `forbidden[i]` set iff node `i` interferes with
    /// physical register `n`, which it therefore cannot take.
    forbidden: Vec<u32>,
}

impl Interference {
    fn build(func: &Function) -> Interference {
        let liveness = Liveness::compute(func);
        // Nodes: every virtual register an instruction defines or uses.
        let mut index = vec![u32::MAX; 2 * func.vreg_count() as usize];
        let mut nodes = Vec::new();
        let mut mention = |r: Reg| {
            if r.is_virt() && index[virt_slot(r)] == u32::MAX {
                index[virt_slot(r)] = 0;
                nodes.push(r);
            }
        };
        for block in &func.blocks {
            for inst in &block.insts {
                inst.kind.for_each_def(&mut mention);
                inst.kind.for_each_use(&mut mention);
                if let (InstKind::Ret, Some(r)) = (&inst.kind, func.ret) {
                    mention(r);
                }
            }
        }
        nodes.sort_unstable();
        for (i, &r) in nodes.iter().enumerate() {
            index[virt_slot(r)] = i as u32;
        }
        let words = nodes.len().div_ceil(64);
        let mut g = Interference {
            adj: vec![0; nodes.len() * words],
            forbidden: vec![0; nodes.len()],
            nodes,
            words,
        };
        // Every register live after an instruction interferes with what
        // the instruction defines. A virtual is live only where some
        // instruction uses it, so it is a node.
        let node = |r: Reg| index[virt_slot(r)] as usize;
        let mut live = RegSet::for_function(func);
        for (bi, block) in func.blocks.iter().enumerate() {
            live.copy_from(liveness.live_out(bi));
            for inst in block.insts.iter().rev() {
                let move_src = match &inst.kind {
                    InstKind::Assign { src, .. } => src.as_copy(),
                    _ => None,
                };
                inst.kind.for_each_def(|d| {
                    if !tracked(d) {
                        return;
                    }
                    for l in live.iter() {
                        // A copy's destination may share the source's
                        // register.
                        if l == d || l.class != d.class || Some(l) == move_src {
                            continue;
                        }
                        match (d.phys_num(), l.phys_num()) {
                            (None, None) => g.add_edge(node(d), node(l)),
                            (None, Some(n)) => g.forbidden[node(d)] |= 1 << n,
                            (Some(n), None) => g.forbidden[node(l)] |= 1 << n,
                            (Some(_), Some(_)) => {}
                        }
                    }
                });
                live.step_back(&inst.kind, func);
            }
        }
        g
    }

    fn add_edge(&mut self, a: usize, b: usize) {
        self.adj[a * self.words + b / 64] |= 1 << (b % 64);
        self.adj[b * self.words + a / 64] |= 1 << (a % 64);
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.adj[i * self.words..][..self.words]
    }

    fn degree(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The neighbors of node `i`, in index order.
    fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().enumerate().flat_map(|(w, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// One build/simplify/select round: the colors it gave, and the registers
/// it could not color, in the order select met them (to be spilled).
fn try_color(func: &Function) -> (FxHashMap<Reg, u8>, Vec<Reg>) {
    let g = Interference::build(func);
    let n = g.nodes.len();

    // Simplify: repeatedly remove the first trivially colorable node in
    // `Reg` order; when none exists push the last node of highest degree
    // anyway (Briggs optimism).
    let mut degree: Vec<usize> = (0..n).map(|i| g.degree(i)).collect();
    let mut in_graph = vec![true; n];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    while stack.len() < n {
        let pick = (0..n)
            .find(|&i| in_graph[i] && degree[i] < NUM_COLORS)
            .unwrap_or_else(|| {
                (0..n)
                    .filter(|&i| in_graph[i])
                    .max_by_key(|&i| degree[i])
                    .expect("non-empty graph")
            });
        in_graph[pick] = false;
        stack.push(pick);
        for j in g.neighbors(pick) {
            if in_graph[j] {
                degree[j] -= 1;
            }
        }
    }

    // Select: color in reverse simplification order, each node the
    // lowest color no colored neighbor or physical neighbor holds.
    let mut color: Vec<Option<u8>> = vec![None; n];
    let mut failed: Vec<Reg> = Vec::new();
    while let Some(i) = stack.pop() {
        let used = g
            .neighbors(i)
            .filter_map(|j| color[j])
            .fold(g.forbidden[i], |m, c| m | 1 << c);
        let free = ALLOC_MASK & !used;
        if free == 0 {
            failed.push(g.nodes[i]);
        } else {
            color[i] = Some(free.trailing_zeros() as u8);
        }
    }
    let assignment = g
        .nodes
        .iter()
        .zip(color)
        .filter_map(|(&r, c)| Some((r, c?)))
        .collect();
    (assignment, failed)
}

/// Rewrite every occurrence of a colored virtual register.
fn apply_assignment(func: &mut Function, assignment: &FxHashMap<Reg, u8>) {
    let map = |r: Reg| match assignment.get(&r) {
        Some(&c) => Reg::phys(r.class, c),
        None => r,
    };
    for block in &mut func.blocks {
        for inst in &mut block.insts {
            map_inst_regs(&mut inst.kind, &map);
        }
    }
    for p in &mut func.params {
        *p = map(*p);
    }
    if let Some(r) = func.ret {
        func.ret = Some(map(r));
    }
}

/// Spill the given registers everywhere: a fresh temporary per instruction,
/// reloaded before uses and stored after definitions.
fn spill_everywhere(
    func: &mut Function,
    target: TargetKind,
    slots: &mut SpillSlots,
    regs: &[Reg],
    spill_temps: &mut FxHashSet<Reg>,
) {
    let set: FxHashSet<Reg> = regs.iter().copied().collect();
    for bi in 0..func.blocks.len() {
        let touches = func.blocks[bi].insts.iter().any(|i| {
            defs_of(&i.kind)
                .into_iter()
                .chain(i.kind.uses())
                .any(|r| set.contains(&r))
        });
        if !touches {
            continue;
        }
        let insts = std::mem::take(&mut func.blocks[bi].insts);
        let mut out = Vec::with_capacity(insts.len() + 8);
        for mut inst in insts {
            let used: BTreeSet<Reg> = inst
                .kind
                .uses()
                .into_iter()
                .filter(|r| set.contains(r))
                .collect();
            let defined: BTreeSet<Reg> = defs_of(&inst.kind)
                .into_iter()
                .filter(|r| set.contains(r))
                .collect();
            if used.is_empty() && defined.is_empty() {
                out.push(inst);
                continue;
            }
            let mut temps: FxHashMap<Reg, Reg> = FxHashMap::default();
            for &r in used.iter().chain(defined.iter()) {
                temps.entry(r).or_insert_with(|| {
                    let t = func.new_vreg(r.class);
                    spill_temps.insert(t);
                    t
                });
            }
            for &r in &used {
                let off = slots.offset(func, r);
                emit_reload(func, &mut out, target, temps[&r], off);
            }
            map_inst_regs(&mut inst.kind, &|r| temps.get(&r).copied().unwrap_or(r));
            out.push(inst);
            for &r in &defined {
                let off = slots.offset(func, r);
                emit_save(func, &mut out, target, temps[&r], off);
            }
        }
        func.blocks[bi].insts = out;
    }
}

/// Phase 3: prologue/epilogue once the frame (locals + slots) is final.
fn add_frame_code(func: &mut Function) {
    func.frame_size = (func.frame_size + 7) & !7;
    let total = func.frame_size;
    if total == 0 || func.blocks.is_empty() {
        return;
    }
    let entry = func.entry_label();
    let id = func.new_inst_id();
    func.block_mut(entry).insts.insert(
        0,
        Inst {
            id,
            kind: InstKind::Assign {
                dst: Reg::sp(),
                src: RExpr::Bin(BinOp::Sub, Operand::Reg(Reg::sp()), Operand::Imm(total)),
            },
        },
    );
    for bi in 0..func.blocks.len() {
        let rets: Vec<usize> = func.blocks[bi]
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i.kind, InstKind::Ret))
            .map(|(i, _)| i)
            .collect();
        for pos in rets.into_iter().rev() {
            let id = func.new_inst_id();
            func.blocks[bi].insts.insert(
                pos,
                Inst {
                    id,
                    kind: InstKind::Assign {
                        dst: Reg::sp(),
                        src: RExpr::Bin(BinOp::Add, Operand::Reg(Reg::sp()), Operand::Imm(total)),
                    },
                },
            );
        }
    }
}

/// Apply `map` to every register the instruction reads or writes.
fn map_inst_regs(kind: &mut InstKind, map: &impl Fn(Reg) -> Reg) {
    let map_op = |o: &mut Operand| {
        if let Operand::Reg(r) = o {
            *r = map(*r);
        }
    };
    let map_expr = |e: &mut RExpr| match e {
        RExpr::Op(a) | RExpr::Un(_, a) => map_op(a),
        RExpr::Bin(_, a, b) => {
            map_op(a);
            map_op(b);
        }
        RExpr::Dual { a, b, c, .. } => {
            map_op(a);
            map_op(b);
            map_op(c);
        }
    };
    let map_mem = |m: &mut MemRef| {
        if let Some(b) = &mut m.base {
            *b = map(*b);
        }
        if let Some((r, _)) = &mut m.index {
            *r = map(*r);
        }
    };
    match kind {
        InstKind::Assign { dst, src } => {
            *dst = map(*dst);
            map_expr(src);
        }
        InstKind::LoadAddr { dst, .. } => *dst = map(*dst),
        InstKind::Compare { a, b, .. } => {
            map_op(a);
            map_op(b);
        }
        InstKind::Call { args, ret, .. } => {
            for a in args {
                *a = map(*a);
            }
            if let Some(r) = ret {
                *r = map(*r);
            }
        }
        InstKind::GLoad { dst, mem } => {
            *dst = map(*dst);
            map_mem(mem);
        }
        InstKind::GStore { src, mem } => {
            map_op(src);
            map_mem(mem);
        }
        InstKind::WLoad { addr, .. } | InstKind::WStore { addr, .. } => map_expr(addr),
        InstKind::StreamIn {
            base,
            count,
            stride,
            ..
        }
        | InstKind::StreamOut {
            base,
            count,
            stride,
            ..
        } => {
            map_op(base);
            if let Some(c) = count {
                map_op(c);
            }
            map_op(stride);
        }
        InstKind::StreamGather {
            base,
            ibase,
            istride,
            count,
            ..
        }
        | InstKind::StreamScatter {
            base,
            ibase,
            istride,
            count,
            ..
        } => {
            map_op(base);
            map_op(ibase);
            map_op(istride);
            map_op(count);
        }
        InstKind::VStreamIn {
            base,
            count,
            stride,
            vectors,
            ..
        } => {
            map_op(base);
            map_op(count);
            map_op(stride);
            map_op(vectors);
        }
        InstKind::VStreamOut {
            base,
            count,
            stride,
        } => {
            map_op(base);
            map_op(count);
            map_op(stride);
        }
        InstKind::ChanSend { src, .. } => map_op(src),
        InstKind::ChanRecv { dst, .. } => *dst = map(*dst),
        InstKind::StreamSend { count, .. } | InstKind::StreamRecv { count, .. } => map_op(count),
        InstKind::Jump { .. }
        | InstKind::Branch { .. }
        | InstKind::BranchStream { .. }
        | InstKind::Ret
        | InstKind::StreamStop { .. }
        | InstKind::VLoad { .. }
        | InstKind::VStore { .. }
        | InstKind::VecBin { .. }
        | InstKind::VecBroadcast { .. }
        | InstKind::BranchVec { .. }
        | InstKind::Nop => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{CmpOp, FuncBuilder};

    /// Virtual registers `s`, `t` (ids 0 and 1), then two groups of 27,
    /// `g1` and `g2`, with `s` and `t` live across both groups and each
    /// group one clique. Every node has degree at least 28 = `NUM_COLORS`,
    /// and `s` and `t` tie at the maximal degree, 55. Physical `r9` is
    /// live across the definition of `g1[19]` only, so 9 is the one
    /// forbidden color.
    fn tied_pressure() -> (Function, Vec<Reg>) {
        let mut b = FuncBuilder::new("tied", 0, 0);
        let regs: Vec<Reg> = (0..56).map(|_| b.vreg(RegClass::Int)).collect();
        let (g1, g2) = regs[2..].split_at(27);
        let def = |b: &mut FuncBuilder, r: Reg, v: i64| b.copy(r, Operand::Imm(v));
        let cmp = |b: &mut FuncBuilder, x: Reg, y: Operand| {
            b.emit(InstKind::Compare {
                class: RegClass::Int,
                op: CmpOp::Eq,
                a: Operand::Reg(x),
                b: y,
            })
        };
        let r9 = Reg::int(9);
        def(&mut b, r9, 5);
        def(&mut b, g1[19], 119);
        cmp(&mut b, r9, Operand::Imm(0));
        def(&mut b, regs[0], 1);
        def(&mut b, regs[1], 2);
        for group in [g1, g2] {
            for (i, &g) in group.iter().enumerate() {
                if g != g1[19] {
                    def(&mut b, g, 100 + i as i64);
                }
            }
            for &g in group {
                cmp(&mut b, g, Operand::Imm(0));
            }
        }
        cmp(&mut b, regs[0], Operand::Reg(regs[1]));
        b.ret_value(None);
        (b.finish(), regs)
    }

    #[test]
    fn optimistic_pick_takes_the_last_of_tied_maximal_degrees() {
        let (f, regs) = tied_pressure();
        let g = Interference::build(&f);
        assert!((0..g.nodes.len()).all(|i| g.degree(i) >= NUM_COLORS));
        assert_eq!((g.degree(0), g.degree(1)), (55, 55));
        assert!((2..g.nodes.len()).all(|i| g.degree(i) < 55));
        let forbidding: Vec<(usize, u32)> = (0..g.nodes.len())
            .map(|i| (i, g.forbidden[i]))
            .filter(|&(_, mask)| mask != 0)
            .collect();
        assert_eq!(forbidding, [(2 + 19, 1 << 9)]);

        // Simplify pushes `t` (the later of the tie) first, so select
        // colors it last and finds every color taken; `s` gets 29, and
        // `g1[19]` skips its forbidden 9 for 10.
        let (assignment, spills) = try_color(&f);
        assert_eq!(spills, [regs[1]]);
        let colors: Vec<u8> = regs
            .iter()
            .filter_map(|r| assignment.get(r).copied())
            .collect();
        let mut want = vec![29];
        want.extend([
            28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11,
        ]);
        want.extend([9, 10, 8, 7, 6, 5, 4, 3, 2]);
        want.extend((2..=28).rev());
        assert_eq!(colors, want);
    }
}
