//! The Streaming Optimization Algorithm (paper Steps 1–3).
//!
//! Runs on WM-expanded code (`WLoad`/`WStore` plus FIFO dequeues/enqueues),
//! using the same partition information as the recurrence pass:
//!
//! 1. determine the trip count (`loop_count`), skipping loops of three or
//!    fewer iterations;
//! 2. for every reference in every safe partition: check that no memory
//!    recurrence remains, compute the stride (`cee` × loop increment),
//!    check the reference executes every iteration (its block dominates the
//!    latches), allocate a FIFO register, emit the stream instructions in
//!    the preheader and rewrite the loop body;
//! 3. replace the loop bottom test by a stream-termination jump when the
//!    count is known, insert stream-stop instructions at the exits when it
//!    is not, and delete the induction variable when it becomes dead.

use wm_ir::fx::FxHashMap;
use wm_ir::{
    BinOp, CmpOp, DataFifo, Function, GlobalKind, Inst, InstKind, Label, MemAccess, Module,
    Operand, RExpr, Reg, RegClass, SymId, Width,
};

use crate::affine::{analyze_latch, LatchInfo, LoopAnalysis, Region};
use crate::cfg::{ensure_preheader, natural_loops, split_edge, Dominators};
use crate::partition::{build_partitions_excluding, AliasModel};
use crate::phases::mark_dead_code;

/// The paper's Step 1 cutoff: loops whose statically known trip count is
/// at or below this are not worth the stream setup.
const MIN_STREAM_COUNT: i64 = 3;

/// Byte extents of a module's data globals, for the over-fetch analysis.
///
/// A stream that would touch addresses outside its base global is not a
/// pure optimization any more: on the simulated machine the loader places
/// guard red-zones after every global, so a prefetch past the end faults
/// (eagerly for scalar code, deferred/poisoned for streams). The streaming
/// pass consults this map to keep such references scalar unless the user
/// opts into speculation.
#[derive(Debug, Clone, Default)]
pub struct GlobalExtents {
    sizes: FxHashMap<SymId, i64>,
}

impl GlobalExtents {
    /// No extent information: every reference is assumed in bounds (the
    /// pre-analysis behavior).
    pub fn empty() -> GlobalExtents {
        GlobalExtents::default()
    }

    /// Extents of every data global in `module`.
    pub fn of_module(module: &Module) -> GlobalExtents {
        let sizes = module
            .globals
            .iter()
            .enumerate()
            .filter_map(|(i, g)| match g.kind {
                GlobalKind::Data { size, .. } => Some((SymId(i as u32), size as i64)),
                _ => None,
            })
            .collect();
        GlobalExtents { sizes }
    }

    /// The extent of `sym` in bytes, when known.
    pub fn get(&self, sym: SymId) -> Option<i64> {
        self.sizes.get(&sym).copied()
    }
}

/// What the pass did, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamingReport {
    /// Loops in which at least one stream was created.
    pub loops_streamed: usize,
    /// Stream-in instructions created.
    pub streams_in: usize,
    /// Stream-out instructions created.
    pub streams_out: usize,
    /// Streams with unknown (unbounded) trip counts.
    pub infinite: usize,
    /// Loop bottom tests replaced by stream-termination jumps.
    pub tests_replaced: usize,
    /// Induction-variable increments deleted (step j).
    pub ivs_deleted: usize,
    /// In-streams kept scalar because they could fetch past their global.
    pub overfetch_degraded: usize,
    /// Over-fetching in-streams kept anyway under speculative streaming
    /// (the machine's deferred-fault semantics poison the extra entries).
    pub overfetch_speculated: usize,
    /// Gather descriptors created (an affine index stream fused with the
    /// data load it feeds).
    pub gathers: usize,
    /// Scatter descriptors created (the store-side dual).
    pub scatters: usize,
}

/// A planned stream for one memory reference.
#[derive(Debug, Clone)]
struct StreamPlan {
    /// Position of the `WLoad`/`WStore`.
    pos: (usize, usize),
    is_load: bool,
    fifo: DataFifo,
    region: Region,
    /// `dee`: offset from region base.
    off: i64,
    /// The paper's `cee`: bytes per unit of the induction variable.
    cee: i64,
    /// Loop-invariant address term `reg * mult` (a matrix row base).
    inv: Option<(Reg, i64)>,
    stride: i64,
    /// Register step for symbolic-stride loops (stride = cee × step reg).
    sym_step: Option<Reg>,
    width: wm_ir::Width,
    iv: Reg,
}

/// An index-fed (indirect) reference recognized in the loop: a data access
/// whose address is `base + (idx << shift)` where `idx` is the value an
/// adjacent dequeue pulls out of an affine *index* load. The index load,
/// its dequeue and the data access fuse into one `StreamGather` /
/// `StreamScatter` descriptor; the SCU then fetches the index stream
/// itself and issues the data references, so the loop body keeps only the
/// data-side FIFO transfer.
#[derive(Debug, Clone)]
struct IndirectRef {
    /// The data `WLoad`/`WStore`.
    mem_pos: (usize, usize),
    is_load: bool,
    /// Register class of the gathered/scattered data.
    class: RegClass,
    /// Data access width.
    width: Width,
    /// Loop-invariant base of `base + (idx << shift)`.
    base: Reg,
    shift: u8,
    /// The dequeue defining the index register.
    idx_def: (usize, usize),
    /// The affine index load feeding that dequeue.
    idx_load: (usize, usize),
    /// Scatter only: conservative byte extent of the scattered global from
    /// `base` (the machine orders younger reads around `[base, base+span)`
    /// because the store addresses are unknown until their indices arrive).
    span: i64,
}

/// Decompose a WM address expression into candidate `(index, shift, base)`
/// index-fed forms. The plain-add form is commutative, so both register
/// assignments are returned; the caller keeps the one whose index register
/// is actually a FIFO-dequeued value.
fn indirect_addr_forms(addr: &RExpr) -> Vec<(Reg, u8, Reg)> {
    match addr {
        RExpr::Dual {
            inner: BinOp::Shl,
            a: Operand::Reg(x),
            b: Operand::Imm(sh),
            outer: BinOp::Add,
            c: Operand::Reg(b),
        } if (0..=3).contains(sh) => vec![(*x, *sh as u8, *b)],
        RExpr::Bin(BinOp::Add, Operand::Reg(a), Operand::Reg(b)) => {
            vec![(*a, 0, *b), (*b, 0, *a)]
        }
        _ => Vec::new(),
    }
}

/// The affine identity of an indirect reference's base register: the
/// global (or root pointer) it addresses, traced through derived address
/// arithmetic. `Region::Unknown` when the base cannot be resolved.
fn base_region(la: &LoopAnalysis<'_>, base: Reg, at: (usize, usize)) -> Region {
    la.eval_expr(&RExpr::Op(Operand::Reg(base)), at, 8)
        .map_or(Region::Unknown, |a| a.region)
}

/// Structural recognition of index-fed references (no alias reasoning
/// yet): for every `WLoad`/`WStore` with a `base + (idx << shift)`
/// address, check that `idx` has exactly one definition — a dequeue paired
/// with an integer `WLoad` inside the loop — and exactly one use (the data
/// address), and that `base` is loop-invariant. A scatter additionally
/// needs its base global's extent, which becomes the descriptor's
/// conservative ordering span.
fn find_indirect_refs(la: &LoopAnalysis<'_>, extents: &GlobalExtents) -> Vec<IndirectRef> {
    let func = la.func;
    let lp = la.lp;
    let mut out: Vec<IndirectRef> = Vec::new();
    for &bi in &lp.blocks {
        for ii in 0..func.blocks[bi].insts.len() {
            let (addr, width, class, is_load) = match &func.blocks[bi].insts[ii].kind {
                InstKind::WLoad { fifo, addr, width } if fifo.index == 0 => {
                    if paired_dequeue(func, (bi, ii), fifo.class).is_none() {
                        continue;
                    }
                    (addr, *width, fifo.class, true)
                }
                InstKind::WStore { unit, addr, width } => {
                    if paired_enqueue(func, (bi, ii), *unit).is_none() {
                        continue;
                    }
                    (addr, *width, *unit, false)
                }
                _ => continue,
            };
            // Step 2c still applies: the data access must execute every
            // iteration, or the fused stream's element count is wrong.
            if !lp.latches.iter().all(|&l| la.dom.dominates(bi, l)) {
                continue;
            }
            for (idx, shift, base) in indirect_addr_forms(addr) {
                // the index register: one definition, inside the loop,
                // and it is the dequeue paired with an integer index load
                let Some(sites) = la.defs.get(&idx) else {
                    continue;
                };
                if sites.len() != 1 {
                    continue;
                }
                let (di, dj) = sites[0];
                if !lp.contains(di) || dj == 0 {
                    continue;
                }
                let fifo0 = Reg::phys(RegClass::Int, 0);
                let is_deq = matches!(
                    &func.blocks[di].insts[dj].kind,
                    InstKind::Assign { dst, src }
                        if *dst == idx && *src == RExpr::Op(Operand::Reg(fifo0))
                );
                let is_index_load = is_deq
                    && matches!(
                        &func.blocks[di].insts[dj - 1].kind,
                        InstKind::WLoad { fifo, .. } if *fifo == DataFifo::new(RegClass::Int, 0)
                    );
                if !is_index_load || (di, dj - 1) == (bi, ii) {
                    continue;
                }
                // the index value feeds the data address and nothing else
                let uses: usize = func
                    .insts()
                    .map(|i| i.kind.uses().iter().filter(|r| **r == idx).count())
                    .sum();
                if uses != 1 {
                    continue;
                }
                // base must be loop-invariant
                if la
                    .defs
                    .get(&base)
                    .is_some_and(|s| s.iter().any(|&(b2, _)| lp.contains(b2)))
                {
                    continue;
                }
                // a scatter's ordering span is its global's remaining extent
                let span = match base_region(la, base, (bi, ii)) {
                    Region::Global(sym) => {
                        let off = la
                            .eval_expr(&RExpr::Op(Operand::Reg(base)), (bi, ii), 8)
                            .map_or(0, |a| a.off);
                        extents.get(sym).map(|e| e - off).filter(|s| *s > 0)
                    }
                    _ => None,
                };
                if !is_load && span.is_none() {
                    continue;
                }
                out.push(IndirectRef {
                    mem_pos: (bi, ii),
                    is_load,
                    class,
                    width,
                    base,
                    shift,
                    idx_def: (di, dj),
                    idx_load: (di, dj - 1),
                    span: span.unwrap_or(0),
                });
                break;
            }
        }
    }
    out
}

/// Keep only the indirect references that are alias-safe to detach from
/// the loop's partitions.
///
/// A gather's SCU reads run *ahead* of the scalar program, so they must
/// provably never observe a store of the same loop: under
/// [`AliasModel::NoAlias`] distinct bases are disjoint, so only a store
/// resolving to the gather's own base (or a store with an unresolvable
/// address that is not itself a surviving scatter) rejects it; under
/// [`AliasModel::Conservative`] only store-free loops qualify. A scatter's
/// writes are unordered with respect to the rest of the loop, so it
/// requires `NoAlias` and that no *other* reference touches its base —
/// and, for output-FIFO exclusivity, that it is the only store of its
/// register class in the loop.
///
/// Rejecting one reference can invalidate another (a rejected scatter
/// becomes a plain opaque store), so the filter iterates to a fixed point.
fn filter_indirect_safety(
    la: &LoopAnalysis<'_>,
    alias: AliasModel,
    mut indirect: Vec<IndirectRef>,
) -> Vec<IndirectRef> {
    let func = la.func;
    let lp = la.lp;
    // census of every memory reference in the loop with its region
    let mut refs: Vec<((usize, usize), bool, RegClass, Region)> = Vec::new();
    for &bi in &lp.blocks {
        for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
            let Some(acc) = inst.kind.mem_access() else {
                continue;
            };
            let class = match &inst.kind {
                InstKind::WLoad { fifo, .. } => fifo.class,
                InstKind::WStore { unit, .. } => *unit,
                _ => RegClass::Int,
            };
            let region = match &acc {
                MemAccess::Generic { mem, .. } => la.eval_memref(mem, (bi, ii), 8),
                MemAccess::Wm { addr, .. } => la.eval_expr(addr, (bi, ii), 8),
            }
            .map_or(Region::Unknown, |a| a.region);
            refs.push(((bi, ii), acc.is_load(), class, region));
        }
    }
    loop {
        let surviving = indirect.clone();
        indirect.retain(|g| {
            let own = base_region(la, g.base, g.mem_pos);
            let my_identity = match own {
                Region::Unknown => Region::Reg(g.base),
                r => r,
            };
            if !g.is_load && alias != AliasModel::NoAlias {
                return false;
            }
            for &(pos, is_load, class, region) in &refs {
                if pos == g.mem_pos || pos == g.idx_load {
                    continue;
                }
                // output-FIFO exclusivity: one store per class
                if !g.is_load && !is_load && class == g.class {
                    return false;
                }
                // loads never conflict with a gather's reads
                if g.is_load && is_load {
                    continue;
                }
                // for a scatter every other reference matters; for a
                // gather only stores do (handled by the guard above)
                let other = surviving
                    .iter()
                    .find(|o| o.mem_pos == pos)
                    .map(|o| match base_region(la, o.base, o.mem_pos) {
                        Region::Unknown => Region::Reg(o.base),
                        r => r,
                    });
                let identity = other.unwrap_or(region);
                match alias {
                    AliasModel::Conservative => return false,
                    AliasModel::NoAlias => {
                        if identity == Region::Unknown || identity == my_identity {
                            return false;
                        }
                    }
                }
            }
            true
        });
        if indirect.len() == surviving.len() {
            return indirect;
        }
    }
}

/// Run the streaming optimization on every innermost loop of `func`
/// whose trip count is not statically known to be 3 or fewer.
///
/// `extents` feeds the over-fetch analysis (pass [`GlobalExtents::empty`]
/// to skip it); `speculative` keeps over-fetching in-streams, relying on
/// the machine's deferred-fault (poison) semantics instead of degrading
/// to scalar code.
#[must_use]
pub fn optimize_streams(
    func: &mut Function,
    alias: AliasModel,
    extents: &GlobalExtents,
    speculative: bool,
) -> StreamingReport {
    let mut report = StreamingReport::default();
    let mut visited: Vec<Label> = Vec::new();
    loop {
        let dom = Dominators::compute(func);
        let loops = natural_loops(func, &dom);
        let candidate = loops
            .iter()
            .find(|lp| lp.is_innermost(&loops) && !visited.contains(&func.blocks[lp.header].label));
        let Some(lp) = candidate else { break };
        visited.push(func.blocks[lp.header].label);
        let nested = loops
            .iter()
            .any(|outer| outer.header != lp.header && outer.contains(lp.header));
        let lp = lp.clone();
        stream_one_loop(
            func,
            &lp,
            &dom,
            alias,
            nested,
            extents,
            speculative,
            &mut report,
        );
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn stream_one_loop(
    func: &mut Function,
    lp: &crate::cfg::Loop,
    dom: &Dominators,
    alias: AliasModel,
    nested: bool,
    extents: &GlobalExtents,
    speculative: bool,
    report: &mut StreamingReport,
) {
    // A called function would compete for the FIFOs and may touch any
    // memory; loops containing calls are not streamed.
    let has_call = lp.blocks.iter().any(|&bi| {
        func.blocks[bi]
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Call { .. }))
    });
    if has_call {
        return;
    }
    // ---- analysis (immutable borrow scope) ----
    let (plans, indirect, latch, static_count) = {
        let la = LoopAnalysis::new(func, lp, dom);
        let latch = analyze_latch(&la);
        // Step 1: trip count. When it is statically known and small, do not
        // stream.
        let static_count = latch.as_ref().and_then(|l| static_trip_count(&la, l));
        if let Some(n) = static_count {
            if n <= MIN_STREAM_COUNT {
                return;
            }
        }
        // Recognize index-fed references *before* partitioning: a gather's
        // data address is not affine, so left in place it would poison
        // every partition of the loop. Detaching is only done when the
        // alias rules prove the SCU's run-ahead accesses safe, and fusion
        // needs a counted descriptor, so uncounted loops keep everything.
        let mut indirect = if latch.is_some() || static_count.is_some() {
            filter_indirect_safety(&la, alias, find_indirect_refs(&la, extents))
        } else {
            Vec::new()
        };
        let exclude: Vec<(usize, usize)> = indirect.iter().map(|g| g.mem_pos).collect();
        let parts = build_partitions_excluding(&la, alias, &exclude);
        // Candidate references, per partition.
        let mut cands: Vec<StreamPlan> = Vec::new();
        for p in &parts.partitions {
            if !p.safe {
                continue;
            }
            // Step 2a: no memory recurrences may remain.
            if !p.recurrence_pairs().is_empty() {
                continue;
            }
            if p.region == Region::Unknown {
                continue;
            }
            if p.cee <= 0 {
                continue;
            }
            // A symbolic-stride partition cannot prove recurrence distances:
            // only stream it when it is all-reads or all-writes.
            if p.sym_step.is_some() {
                let loads = p.refs.iter().filter(|r| r.is_load).count();
                if loads != 0 && loads != p.refs.len() {
                    continue;
                }
            }
            // An intra-iteration same-address pair where the read follows
            // the write (w[i] = …; … = w[i]) must see the new value; a
            // prefetching stream would deliver the stale one. Reads that
            // strictly precede the same-offset write (a[i] = a[i] + 1) are
            // fine: the prefetched value is the pre-write value the program
            // reads anyway.
            let raw_hazard = p.refs.iter().any(|w| {
                !w.is_load
                    && p.refs.iter().any(|r| {
                        r.is_load && r.roffset == w.roffset && {
                            let read_first = if r.pos.0 == w.pos.0 {
                                r.pos.1 < w.pos.1
                            } else {
                                la.dom.dominates(r.pos.0, w.pos.0)
                            };
                            !read_first
                        }
                    })
            });
            if raw_hazard {
                continue;
            }
            for r in &p.refs {
                // Step 2c: executed every time through the loop.
                if !lp.latches.iter().all(|&l| la.dom.dominates(r.pos.0, l)) {
                    continue;
                }
                // WM forms only, with the canonical adjacent FIFO transfer.
                let ok_form = match &func.blocks[r.pos.0].insts[r.pos.1].kind {
                    InstKind::WLoad { fifo, .. } => {
                        fifo.index == 0 && paired_dequeue(func, r.pos, fifo.class).is_some()
                    }
                    InstKind::WStore { unit, .. } => paired_enqueue(func, r.pos, *unit).is_some(),
                    _ => false,
                };
                if !ok_form {
                    continue;
                }
                let class = match &func.blocks[r.pos.0].insts[r.pos.1].kind {
                    InstKind::WLoad { fifo, .. } => fifo.class,
                    InstKind::WStore { unit, .. } => *unit,
                    _ => unreachable!(),
                };
                let affine = r.affine.as_ref().expect("safe");
                cands.push(StreamPlan {
                    pos: r.pos,
                    is_load: r.is_load,
                    fifo: DataFifo::new(class, 0), // assigned below
                    region: p.region,
                    off: affine.off,
                    cee: p.cee,
                    inv: affine.inv,
                    stride: p.stride,
                    sym_step: p.sym_step,
                    width: r.width,
                    iv: p.iv.expect("safe"),
                });
            }
        }
        if cands.is_empty() {
            return;
        }
        // Over-fetch analysis: an in-stream that may touch addresses
        // outside its base global (the SCU prefetches ahead of
        // consumption) is kept scalar unless speculation is requested.
        // This runs before FIFO allocation so a degraded reference counts
        // as a scalar load there and keeps input FIFO 0 reserved.
        cands.retain(
            |p| match overfetch(&la, latch.is_some(), static_count, p, extents) {
                Fetch::Safe => true,
                Fetch::Past if speculative => {
                    report.overfetch_speculated += 1;
                    true
                }
                Fetch::Past => {
                    report.overfetch_degraded += 1;
                    false
                }
            },
        );
        // An indirect reference fuses only when its index load survived as
        // a stream candidate; otherwise its data access stays scalar (and
        // must count as such in the FIFO accounting below).
        indirect.retain(|g| cands.iter().any(|c| c.pos == g.idx_load && c.is_load));
        let fused: Vec<(usize, usize)> = indirect
            .iter()
            .flat_map(|g| [g.mem_pos, g.idx_load])
            .collect();
        // A gather delivers *data* elements, so its FIFO belongs to the
        // data class, not the (integer) index class.
        for c in cands.iter_mut() {
            if let Some(g) = indirect.iter().find(|g| g.idx_load == c.pos && g.is_load) {
                c.fifo = DataFifo::new(g.class, 0);
            }
        }
        // Step 2e: FIFO allocation with resource accounting. Scalar
        // (non-streamed) loads of a class occupy input FIFO 0; scalar
        // stores occupy the output FIFO.
        let chosen = allocate_fifos(func, lp, cands, &indirect, &fused);
        // a fused index plan can still lose allocation to the collapse
        // rule; its data access then reverts to scalar alongside it
        indirect.retain(|g| chosen.iter().any(|c| c.pos == g.idx_load));
        (chosen, indirect, latch, static_count)
    };
    if plans.is_empty() {
        return;
    }
    let countable = latch.is_some();
    // An unbounded stream inside an enclosing loop is re-set-up on every
    // outer iteration for typically few elements (quicksort's partition
    // scans); the setup overhead makes that a loss, so skip it — which also
    // matches the paper's tiny Table II gain on quicksort.
    if !countable && nested {
        return;
    }

    // ---- transformation ----
    let pre = ensure_preheader(func, lp);
    // Shared trip-count computation (step 2d).
    let count_operand: Option<Operand> = match (&latch, static_count) {
        (_, Some(n)) => Some(Operand::Imm(n)),
        (Some(l), None) => Some(emit_trip_count(func, pre, l)),
        (None, _) => None,
    };
    if count_operand.is_none() {
        report.infinite += plans.len();
    }
    // The stream the termination jump will test — only it may load the
    // IFU's dispatch counter. A fused gather qualifies (it delivers
    // exactly `count` data elements); a fused scatter does not (its plan's
    // FIFO is the output side).
    let scatter_pos: Vec<(usize, usize)> = indirect
        .iter()
        .filter(|g| !g.is_load)
        .map(|g| g.idx_load)
        .collect();
    let jump_fifo = plans
        .iter()
        .find(|p| p.is_load && !scatter_pos.contains(&p.pos))
        .map(|p| p.fifo);

    // Rewrite each reference (steps 2g/2h).
    for plan in &plans {
        if let Some(g) = indirect.iter().find(|g| g.idx_load == plan.pos) {
            rewrite_indirect(
                func,
                pre,
                plan,
                g,
                count_operand,
                countable,
                jump_fifo,
                report,
            );
            continue;
        }
        // preheader: base address = region + off + cee*iv (the IV register
        // still holds its initial value in the preheader)
        let base = emit_base_address(func, pre, plan);
        let stride = emit_stride(func, pre, plan);
        let kind = if plan.is_load {
            report.streams_in += 1;
            InstKind::StreamIn {
                fifo: plan.fifo,
                base,
                count: count_operand,
                stride,
                width: plan.width,
                tested: countable && jump_fifo == Some(plan.fifo),
            }
        } else {
            report.streams_out += 1;
            InstKind::StreamOut {
                fifo: plan.fifo,
                base,
                count: count_operand,
                stride,
                width: plan.width,
            }
        };
        insert_before_jump(func, pre, kind);
        // body rewrite
        if plan.is_load {
            let (bi, ii) = plan.pos;
            let deq = paired_dequeue(func, plan.pos, plan.fifo.class).expect("candidate validated");
            func.blocks[bi].insts[ii].kind = InstKind::Nop;
            if plan.fifo.index == 1 {
                // retarget the dequeue from register 0 to register 1
                let old = Reg::phys(plan.fifo.class, 0);
                let retargeted = func.blocks[bi].insts[deq]
                    .kind
                    .substitute_use(old, Operand::Reg(plan.fifo.reg()));
                debug_assert!(retargeted, "a paired dequeue reads FIFO register 0");
            }
        } else {
            let (bi, ii) = plan.pos;
            func.blocks[bi].insts[ii].kind = InstKind::Nop;
        }
    }

    // Step i: replace the bottom test with a stream jump, or add stream
    // stops at the exits.
    if let (true, Some(jump_fifo)) = (countable, jump_fifo) {
        let l = latch.as_ref().unwrap();
        let header_label = func.blocks[lp.header].label;
        let (cbi, cii) = l.compare;
        let (bbi, bii) = l.branch;
        let (target, els) = match &func.blocks[bbi].insts[bii].kind {
            InstKind::Branch { target, els, .. } => {
                if *target == header_label {
                    (*target, *els)
                } else {
                    (*els, *target)
                }
            }
            _ => unreachable!("latch analyzed as a branch"),
        };
        func.blocks[cbi].insts[cii].kind = InstKind::Nop;
        func.blocks[bbi].insts[bii].kind = InstKind::BranchStream {
            fifo: jump_fifo,
            target,
            els,
        };
        report.tests_replaced += 1;

        // Step j: delete the IV increment when the IV is dead. The body
        // rewrite leaves the addressing code (`t := i << 3`, …) behind as
        // dead pure instructions; those must not keep the IV alive, so the
        // uses are counted on a scratch copy with dead code Nopped out
        // (without compaction, preserving instruction positions).
        let iv = l.iv;
        let mut cleaned = func.clone();
        let (_, lv) = mark_dead_code(&mut cleaned);
        let uses_in_loop: usize = lp
            .blocks
            .iter()
            .map(|&bi| {
                cleaned.blocks[bi]
                    .insts
                    .iter()
                    .enumerate()
                    .filter(|(ii, inst)| (bi, *ii) != iv.def && inst.kind.uses().contains(&iv.reg))
                    .count()
            })
            .sum();
        if uses_in_loop == 0 {
            let live_at_exit = lp
                .exits
                .iter()
                .any(|&(_, to)| lv.live_in(to).contains(iv.reg));
            if !live_at_exit {
                let (bi, ii) = iv.def;
                func.blocks[bi].insts[ii].kind = InstKind::Nop;
                report.ivs_deleted += 1;
            }
        }

        // Early exits (breaks, returns) leave the counted streams running:
        // stop them on every exit edge except the stream-exhaustion edge
        // itself. Early-exit branches are data-dependent, so consumption
        // has caught up by the time the stop executes; the jNI edge must
        // NOT get a stop because the IFU reaches it ahead of the consuming
        // unit (the stream self-terminates there).
        let latch_block = bbi;
        let exits: Vec<(usize, usize)> = lp
            .exits
            .iter()
            .copied()
            .filter(|&(from, _)| from != latch_block)
            .collect();
        for (from, to) in exits {
            let stub = split_edge(func, from, to);
            for plan in &plans {
                let id = func.new_inst_id();
                func.block_mut(stub).insts.insert(
                    0,
                    Inst {
                        id,
                        kind: InstKind::StreamStop { fifo: plan.fifo },
                    },
                );
            }
        }
    } else {
        // Unknown count: stream stops on every exit edge.
        // Collect exit edges afresh (indices may have shifted).
        let dom2 = Dominators::compute(func);
        let loops2 = natural_loops(func, &dom2);
        let header_label = func.blocks[lp.header].label;
        if let Some(cur) = loops2
            .iter()
            .find(|l| func.blocks[l.header].label == header_label)
        {
            let exits = cur.exits.clone();
            for (from, to) in exits {
                let stub = split_edge(func, from, to);
                for plan in &plans {
                    let id = func.new_inst_id();
                    func.block_mut(stub).insts.insert(
                        0,
                        Inst {
                            id,
                            kind: InstKind::StreamStop { fifo: plan.fifo },
                        },
                    );
                }
            }
        }
    }
    func.compact();
    report.loops_streamed += 1;
}

/// The dequeue paired with a WM load: the immediately following instruction
/// when it is exactly `v := fifo0` (the form target expansion emits).
/// Returns its instruction index.
fn paired_dequeue(func: &Function, pos: (usize, usize), class: RegClass) -> Option<usize> {
    let (bi, ii) = pos;
    let next = func.blocks[bi].insts.get(ii + 1)?;
    match &next.kind {
        InstKind::Assign { dst, src } => {
            let fifo0 = Reg::phys(class, 0);
            if *src == RExpr::Op(Operand::Reg(fifo0)) && !dst.is_fifo() {
                Some(ii + 1)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The enqueue paired with a WM store: the immediately preceding
/// instruction when it writes the unit's output FIFO.
fn paired_enqueue(func: &Function, pos: (usize, usize), unit: RegClass) -> Option<usize> {
    let (bi, ii) = pos;
    if ii == 0 {
        return None;
    }
    let prev = &func.blocks[bi].insts[ii - 1];
    match &prev.kind {
        InstKind::Assign { dst, .. } if *dst == Reg::phys(unit, 0) => Some(ii - 1),
        _ => None,
    }
}

/// Emit one fused indirect descriptor and rewrite the loop body: the index
/// load, its dequeue and the data access all fold into the descriptor. For
/// a gather the data-side dequeue survives (retargeted to the allocated
/// FIFO); for a scatter the paired enqueue survives, feeding the SCU
/// through the unit's output FIFO.
#[allow(clippy::too_many_arguments)]
fn rewrite_indirect(
    func: &mut Function,
    pre: Label,
    plan: &StreamPlan,
    g: &IndirectRef,
    count_operand: Option<Operand>,
    countable: bool,
    jump_fifo: Option<DataFifo>,
    report: &mut StreamingReport,
) {
    // `plan` is the *index* load's stream plan: its affine base/stride
    // describe the index sequence the SCU fetches internally.
    let ibase = emit_base_address(func, pre, plan);
    let istride = emit_stride(func, pre, plan);
    let count = count_operand.expect("indirect fusion requires a counted loop");
    let kind = if g.is_load {
        report.gathers += 1;
        InstKind::StreamGather {
            fifo: plan.fifo,
            base: Operand::Reg(g.base),
            shift: g.shift,
            width: g.width,
            ibase,
            istride,
            iwidth: plan.width,
            count,
            tested: countable && jump_fifo == Some(plan.fifo),
        }
    } else {
        report.scatters += 1;
        InstKind::StreamScatter {
            fifo: plan.fifo,
            base: Operand::Reg(g.base),
            shift: g.shift,
            width: g.width,
            ibase,
            istride,
            iwidth: plan.width,
            count,
            span: g.span,
        }
    };
    insert_before_jump(func, pre, kind);
    func.blocks[plan.pos.0].insts[plan.pos.1].kind = InstKind::Nop;
    func.blocks[g.idx_def.0].insts[g.idx_def.1].kind = InstKind::Nop;
    if g.is_load {
        let deq = paired_dequeue(func, g.mem_pos, g.class).expect("candidate validated");
        func.blocks[g.mem_pos.0].insts[g.mem_pos.1].kind = InstKind::Nop;
        if plan.fifo.index == 1 {
            let old = Reg::phys(g.class, 0);
            let retargeted = func.blocks[g.mem_pos.0].insts[deq]
                .kind
                .substitute_use(old, Operand::Reg(plan.fifo.reg()));
            debug_assert!(retargeted, "a paired dequeue reads FIFO register 0");
        }
    } else {
        func.blocks[g.mem_pos.0].insts[g.mem_pos.1].kind = InstKind::Nop;
    }
}

/// Step 2e: assign FIFO registers, accounting for the scalar references
/// that remain in the loop. Input FIFO 0 of a class is only available when
/// no scalar load of that class survives; the single output FIFO of a class
/// is only available when no scalar store survives and at most one
/// out-stream wants it.
///
/// Indirect fusion rides along: positions in `fused` will be `Nop`ped by
/// the fusion rewrite and so do not count as scalar references, a
/// gather-paired index plan is allocated first (fusion must not be
/// stranded by a later plan taking its slot), and a scatter-paired index
/// plan skips input allocation entirely — its descriptor drains the
/// class's *output* FIFO, which the safety filter has already proven free.
fn allocate_fifos(
    func: &Function,
    lp: &crate::cfg::Loop,
    cands: Vec<StreamPlan>,
    indirect: &[IndirectRef],
    fused: &[(usize, usize)],
) -> Vec<StreamPlan> {
    let gather_pos: Vec<(usize, usize)> = indirect
        .iter()
        .filter(|g| g.is_load)
        .map(|g| g.idx_load)
        .collect();
    let scatter: Vec<&IndirectRef> = indirect.iter().filter(|g| !g.is_load).collect();
    let mut chosen: Vec<StreamPlan> = Vec::new();
    for class in [RegClass::Int, RegClass::Flt] {
        let mut loads: Vec<&StreamPlan> = cands
            .iter()
            .filter(|c| {
                c.is_load && c.fifo.class == class && !scatter.iter().any(|g| g.idx_load == c.pos)
            })
            .collect();
        loads.sort_by_key(|c| !gather_pos.contains(&c.pos));
        let stores: Vec<&StreamPlan> = cands
            .iter()
            .filter(|c| !c.is_load && c.fifo.class == class)
            .collect();
        // scalar refs of this class in the loop, besides the candidates
        // and the references indirect fusion removes
        let cand_positions: Vec<(usize, usize)> = cands.iter().map(|c| c.pos).collect();
        let mut scalar_loads = 0usize;
        let mut scalar_stores = 0usize;
        for &bi in &lp.blocks {
            for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
                if cand_positions.contains(&(bi, ii)) || fused.contains(&(bi, ii)) {
                    continue;
                }
                match &inst.kind {
                    InstKind::WLoad { fifo, .. } if fifo.class == class => scalar_loads += 1,
                    InstKind::WStore { unit, .. } if *unit == class => scalar_stores += 1,
                    _ => {}
                }
            }
        }
        // input FIFOs
        let mut avail_in: Vec<u8> = if scalar_loads > 0 {
            vec![1]
        } else {
            vec![0, 1]
        };
        let n_in = avail_in.len().min(loads.len());
        // If not every candidate load gets a FIFO, the leftovers stay
        // scalar and occupy input FIFO 0 — so only FIFO 1 is usable.
        if loads.len() > avail_in.len() && avail_in.contains(&0) {
            avail_in = vec![1];
        }
        for (plan, idx) in loads.into_iter().zip(avail_in.iter().take(n_in)) {
            let mut p = plan.clone();
            p.fifo = DataFifo::new(class, *idx);
            chosen.push(p);
        }
        // output FIFO: one affine out-stream, or one scatter (the safety
        // filter rejects a scatter sharing its class with any other store)
        if scalar_stores == 0 && stores.len() == 1 {
            let mut p = stores[0].clone();
            p.fifo = DataFifo::new(class, 0);
            chosen.push(p);
        }
        for g in scatter.iter().filter(|g| g.class == class) {
            if let Some(plan) = cands.iter().find(|c| c.pos == g.idx_load) {
                let mut p = plan.clone();
                p.fifo = DataFifo::new(class, 0);
                chosen.push(p);
            }
        }
    }
    chosen
}

/// The over-fetch analysis verdict for one planned stream.
enum Fetch {
    /// The stream's addresses provably stay inside the base global, or the
    /// stream only ever touches addresses the scalar program would.
    Safe,
    /// The stream may (or provably will) fetch past the global's extent.
    Past,
}

/// Compare a planned stream's address range against its base global's
/// extent.
///
/// * Out-streams are always [`Fetch::Safe`]: an SCU writes exactly one
///   element per value the program enqueues, so it cannot run ahead.
/// * Counted in-streams read exactly the addresses of the scalar loop, so
///   a fault is the *program's* fault either way; they are only flagged
///   when the whole range is statically computable and provably outside
///   `[0, extent)` — degradation then restores the scalar code's precise
///   per-access fault attribution.
/// * Unbounded in-streams genuinely over-fetch: the SCU runs up to a FIFO
///   depth of prefetch past the last element the program consumes, which
///   can cross the end of an exactly-sized global.
///
/// References whose base region has no known extent (pointers, missing
/// extent map) are left alone.
fn overfetch(
    la: &LoopAnalysis<'_>,
    countable: bool,
    static_count: Option<i64>,
    plan: &StreamPlan,
    extents: &GlobalExtents,
) -> Fetch {
    if !plan.is_load {
        return Fetch::Safe;
    }
    let Region::Global(sym) = plan.region else {
        return Fetch::Safe;
    };
    let Some(extent) = extents.get(sym) else {
        return Fetch::Safe;
    };
    if !countable {
        return Fetch::Past;
    }
    let (Some(n), None, None) = (static_count, plan.inv, plan.sym_step) else {
        return Fetch::Safe;
    };
    let Some(init) = static_iv_init(la, plan.iv) else {
        return Fetch::Safe;
    };
    let first = plan.off + plan.cee * init;
    let last = first + plan.stride * (n - 1);
    let lo = first.min(last);
    let hi = first.max(last) + plan.width.bytes();
    if lo < 0 || hi > extent {
        Fetch::Past
    } else {
        Fetch::Safe
    }
}

/// The IV's statically-known initial value: its sole definition outside
/// the loop, when that is a constant assignment.
fn static_iv_init(la: &LoopAnalysis<'_>, iv: Reg) -> Option<i64> {
    let sites = la.defs.get(&iv)?;
    let outside: Vec<(usize, usize)> = sites
        .iter()
        .copied()
        .filter(|(bi, _)| !la.lp.contains(*bi))
        .collect();
    if outside.len() != 1 {
        return None;
    }
    let (bi, ii) = outside[0];
    match &la.func.blocks[bi].insts[ii].kind {
        InstKind::Assign {
            src: RExpr::Op(Operand::Imm(v)),
            ..
        } => Some(*v),
        _ => None,
    }
}

/// Statically evaluate the trip count when both the bound and the IV's
/// initial value are compile-time constants.
pub(crate) fn static_trip_count(la: &LoopAnalysis<'_>, l: &LatchInfo) -> Option<i64> {
    let bound = l.bound.imm()?;
    let init = static_iv_init(la, l.iv.reg)?;
    if !l.iv.is_const_step() {
        return None;
    }
    trip_count_value(init, bound, l.iv.step, l.cmp)
}

/// Closed-form trip count for `for (iv = init; …; iv += step)` with the
/// bottom test `iv cmp bound` evaluated after the increment, given the
/// guard has passed (at least one iteration executes).
pub fn trip_count_value(init: i64, bound: i64, step: i64, cmp: CmpOp) -> Option<i64> {
    let n = match cmp {
        CmpOp::Lt if step > 0 => (bound - init + step - 1).div_euclid(step),
        CmpOp::Le if step > 0 => (bound - init).div_euclid(step) + 1,
        CmpOp::Gt if step < 0 => (init - bound + (-step) - 1).div_euclid(-step),
        CmpOp::Ge if step < 0 => (init - bound).div_euclid(-step) + 1,
        CmpOp::Ne if step == 1 => bound - init,
        CmpOp::Ne if step == -1 => init - bound,
        _ => return None,
    };
    Some(n.max(1))
}

/// Emit preheader code computing the dynamic trip count into a register.
pub(crate) fn emit_trip_count(func: &mut Function, pre: Label, l: &LatchInfo) -> Operand {
    if let Some(step) = l.iv.step_reg {
        return emit_trip_count_symbolic(func, pre, l, step);
    }
    let iv = l.iv.reg;
    let step = l.iv.step;
    // diff = bound - iv   (or iv - bound for downward loops)
    let diff = func.new_vreg(RegClass::Int);
    let (a, b): (Operand, Operand) = if step > 0 {
        (l.bound, Operand::Reg(iv))
    } else {
        (Operand::Reg(iv), l.bound)
    };
    insert_before_jump(
        func,
        pre,
        InstKind::Assign {
            dst: diff,
            src: RExpr::Bin(BinOp::Sub, a, b),
        },
    );
    let mag = step.abs();
    let mut count = diff;
    match l.cmp {
        CmpOp::Lt | CmpOp::Gt => {
            if mag != 1 {
                // ceil(diff / mag) = (diff + mag - 1) / mag
                let t = func.new_vreg(RegClass::Int);
                insert_before_jump(
                    func,
                    pre,
                    InstKind::Assign {
                        dst: t,
                        src: RExpr::Bin(BinOp::Add, count.into(), Operand::Imm(mag - 1)),
                    },
                );
                let q = func.new_vreg(RegClass::Int);
                insert_before_jump(
                    func,
                    pre,
                    InstKind::Assign {
                        dst: q,
                        src: RExpr::Bin(BinOp::Div, t.into(), Operand::Imm(mag)),
                    },
                );
                count = q;
            }
        }
        CmpOp::Le | CmpOp::Ge => {
            let base = if mag != 1 {
                let q = func.new_vreg(RegClass::Int);
                insert_before_jump(
                    func,
                    pre,
                    InstKind::Assign {
                        dst: q,
                        src: RExpr::Bin(BinOp::Div, count.into(), Operand::Imm(mag)),
                    },
                );
                q
            } else {
                count
            };
            let p = func.new_vreg(RegClass::Int);
            insert_before_jump(
                func,
                pre,
                InstKind::Assign {
                    dst: p,
                    src: RExpr::Bin(BinOp::Add, base.into(), Operand::Imm(1)),
                },
            );
            count = p;
        }
        CmpOp::Ne => {}
        CmpOp::Eq => unreachable!("rejected by analyze_latch"),
    }
    Operand::Reg(count)
}

/// Trip count for an upward loop with a register step `s` (assumed
/// positive): `Lt` gives `(bound - iv + s - 1) / s`; `Le` adds one to
/// `(bound - iv) / s`.
fn emit_trip_count_symbolic(func: &mut Function, pre: Label, l: &LatchInfo, step: Reg) -> Operand {
    let iv = l.iv.reg;
    let diff = func.new_vreg(RegClass::Int);
    insert_before_jump(
        func,
        pre,
        InstKind::Assign {
            dst: diff,
            src: RExpr::Bin(BinOp::Sub, l.bound, Operand::Reg(iv)),
        },
    );
    match l.cmp {
        CmpOp::Lt => {
            let t = func.new_vreg(RegClass::Int);
            insert_before_jump(
                func,
                pre,
                InstKind::Assign {
                    dst: t,
                    src: RExpr::Dual {
                        inner: BinOp::Add,
                        a: diff.into(),
                        b: step.into(),
                        outer: BinOp::Sub,
                        c: Operand::Imm(1),
                    },
                },
            );
            let q = func.new_vreg(RegClass::Int);
            insert_before_jump(
                func,
                pre,
                InstKind::Assign {
                    dst: q,
                    src: RExpr::Bin(BinOp::Div, t.into(), step.into()),
                },
            );
            Operand::Reg(q)
        }
        CmpOp::Le => {
            let q = func.new_vreg(RegClass::Int);
            insert_before_jump(
                func,
                pre,
                InstKind::Assign {
                    dst: q,
                    src: RExpr::Bin(BinOp::Div, diff.into(), step.into()),
                },
            );
            let p = func.new_vreg(RegClass::Int);
            insert_before_jump(
                func,
                pre,
                InstKind::Assign {
                    dst: p,
                    src: RExpr::Bin(BinOp::Add, q.into(), Operand::Imm(1)),
                },
            );
            Operand::Reg(p)
        }
        other => unreachable!("symbolic latch only matches Lt/Le, got {other:?}"),
    }
}

/// Emit preheader code computing a stream's base address.
fn emit_base_address(func: &mut Function, pre: Label, plan: &StreamPlan) -> Operand {
    let base = func.new_vreg(RegClass::Int);
    match plan.region {
        Region::Global(sym) => {
            insert_before_jump(
                func,
                pre,
                InstKind::LoadAddr {
                    dst: base,
                    sym,
                    disp: plan.off,
                },
            );
        }
        Region::Reg(r) => {
            insert_before_jump(
                func,
                pre,
                InstKind::Assign {
                    dst: base,
                    src: RExpr::Bin(BinOp::Add, r.into(), Operand::Imm(plan.off)),
                },
            );
        }
        Region::Unknown => unreachable!("unknown regions are not streamed"),
    }
    // + inv.reg * inv.mult (an invariant row-base term)
    let base = match plan.inv {
        None => base,
        Some((reg, mult)) => {
            let t = func.new_vreg(RegClass::Int);
            let src = scaled_add(reg, mult, base.into());
            insert_before_jump(func, pre, InstKind::Assign { dst: t, src });
            t
        }
    };
    // + cee*iv (initial IV value read directly in the preheader)
    let addr = func.new_vreg(RegClass::Int);
    let src = scaled_add(plan.iv, plan.cee, base.into());
    insert_before_jump(func, pre, InstKind::Assign { dst: addr, src });
    Operand::Reg(addr)
}

/// `(reg * k) + c` as a single dual RTL, using a shift when `k` is a power
/// of two and a multiply otherwise.
fn scaled_add(reg: Reg, k: i64, c: Operand) -> RExpr {
    if k == 1 {
        RExpr::Bin(BinOp::Add, reg.into(), c)
    } else if k > 0 && (k as u64).is_power_of_two() {
        RExpr::Dual {
            inner: BinOp::Shl,
            a: reg.into(),
            b: Operand::Imm(k.trailing_zeros() as i64),
            outer: BinOp::Add,
            c,
        }
    } else {
        RExpr::Dual {
            inner: BinOp::Mul,
            a: reg.into(),
            b: Operand::Imm(k),
            outer: BinOp::Add,
            c,
        }
    }
}

/// The stride operand: a constant, or `step << log2(cee)` computed in the
/// preheader for symbolic-stride loops.
fn emit_stride(func: &mut Function, pre: Label, plan: &StreamPlan) -> Operand {
    match plan.sym_step {
        None => Operand::Imm(plan.stride),
        Some(step) => {
            if plan.cee == 1 {
                Operand::Reg(step)
            } else {
                let t = func.new_vreg(RegClass::Int);
                let op = if plan.cee > 0 && (plan.cee as u64).is_power_of_two() {
                    RExpr::Bin(
                        BinOp::Shl,
                        step.into(),
                        Operand::Imm(plan.cee.trailing_zeros() as i64),
                    )
                } else {
                    RExpr::Bin(BinOp::Mul, step.into(), Operand::Imm(plan.cee))
                };
                insert_before_jump(func, pre, InstKind::Assign { dst: t, src: op });
                Operand::Reg(t)
            }
        }
    }
}

/// Insert `kind` immediately before `block`'s terminator.
pub(crate) fn insert_before_jump(func: &mut Function, block: Label, kind: InstKind) {
    let id = func.new_inst_id();
    let b = func.block_mut(block);
    let at = b.insts.len().saturating_sub(1);
    b.insts.insert(at, Inst { id, kind });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_count_closed_forms() {
        // for (i = 2; i < 10; i++) → 8 iterations
        assert_eq!(trip_count_value(2, 10, 1, CmpOp::Lt), Some(8));
        // for (i = 0; i <= 9; i++) → 10
        assert_eq!(trip_count_value(0, 9, 1, CmpOp::Le), Some(10));
        // for (i = 10; i > 0; i--) → 10
        assert_eq!(trip_count_value(10, 0, -1, CmpOp::Gt), Some(10));
        // for (i = 9; i >= 0; i--) → 10
        assert_eq!(trip_count_value(9, 0, -1, CmpOp::Ge), Some(10));
        // for (i = 0; i != 7; i++) → 7
        assert_eq!(trip_count_value(0, 7, 1, CmpOp::Ne), Some(7));
        // step 3: for (i = 0; i < 10; i += 3) → 4
        assert_eq!(trip_count_value(0, 10, 3, CmpOp::Lt), Some(4));
        // wrong-direction loops are rejected
        assert_eq!(trip_count_value(0, 10, -1, CmpOp::Lt), None);
    }
}
