//! Loop partitioning across tiles — the compiler half of the tiled WM.
//!
//! The pass splits one loop of the entry function across `T` cooperating
//! cores under a **compute-replicate, kernel-partition** model:
//!
//! * everything *before* the chosen loop is replicated on every tile —
//!   the mini-C programs are deterministic and each tile owns a private
//!   copy of memory, so every tile reaches the loop with identical state;
//! * the loop's iteration space `[lo, hi)` is cut into `T` contiguous
//!   slices, one per tile, by rewriting the induction-variable init and
//!   the latch bound of each tile's clone;
//! * each region the loop stores to is written back to tile 0 over the
//!   inter-core channels (`Sin` + `Ssend` on the sender, a tested
//!   `Srecv` + `Sout` copy loop on tile 0), so tile 0's memory ends up
//!   exactly as the unpartitioned loop would have left it;
//! * loop-carried scalars (a recurrence the generic optimizer has already
//!   converted to a register carry) are forwarded tile-to-tile with the
//!   scalar channel ops, chaining the slices systolically;
//! * everything *after* the loop runs on tile 0 only, once the
//!   writebacks have been received.
//!
//! The pass is all-or-nothing: a loop qualifies only when the analysis
//! can prove the transformation exact (static bounds, stores affine in
//! the partitioned induction variable, no cross-slice memory dependence,
//! no carried scalar escaping into the sequel), and an unqualified
//! module is left untouched. Rejection is the common case and is not an
//! error — the program simply runs single-tile.

use std::collections::{BTreeMap, HashSet};

use wm_ir::{
    DataFifo, Function, InstKind, Label, Module, Operand, RExpr, Reg, RegClass, SymId, Width,
};

use crate::affine::{analyze_latch, Affine, LoopAnalysis, Region};
use crate::cfg::{natural_loops, Dominators, Loop};
use crate::liveness::Liveness;
use crate::streaming::{insert_before_jump, trip_count_value};

/// What the partitioning pass did, for `--stats` and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileReport {
    /// Number of tiles the loop was split across.
    pub tiles: usize,
    /// Header label of the partitioned loop.
    pub header: Label,
    /// Iteration space `[lo, hi)` of the original loop.
    pub lo: i64,
    /// Exclusive upper bound of the iteration space.
    pub hi: i64,
    /// Store regions written back to tile 0 (one per distinct global).
    pub writebacks: usize,
    /// Loop-carried scalars chained tile-to-tile.
    pub carried: usize,
}

/// One contiguous store region `sym + coeff*i + off`, `i` in the loop's
/// iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StoreRegion {
    sym: SymId,
    coeff: i64,
    off: i64,
    width: Width,
    class: RegClass,
}

/// The qualified plan for one candidate loop.
struct Plan {
    header: Label,
    /// `(block, inst)` of the IV init `iv := lo` in the preheader.
    init_at: (usize, usize),
    /// `(block, inst)` of the latch `Compare` whose bound is `hi`.
    compare_at: (usize, usize),
    /// The latch block (its terminator holds the exit edge).
    latch: usize,
    /// Label of the block the single exit edge targets.
    exit_to: Label,
    lo: i64,
    hi: i64,
    regions: Vec<StoreRegion>,
    /// Carried scalars in deterministic order.
    carried: Vec<Reg>,
    /// Estimated dynamic work, for candidate selection.
    work: i64,
}

/// Split one loop of `entry` across `tiles` cores. On success the module
/// gains `__tile{k}_<entry>` clones for `k` in `1..tiles`, the entry
/// function keeps slice 0 plus the writeback receive code, and the
/// report says what was cut. `None` leaves the module untouched.
pub fn partition_tiles(module: &mut Module, entry: &str, tiles: usize) -> Option<TileReport> {
    if !(2..=8).contains(&tiles) {
        return None;
    }
    let func = module.function_named(entry)?;
    let plan = best_plan(func, tiles)?;
    // Clones first (from the untouched original), then slice 0 in place.
    let mut clones = Vec::new();
    for k in 1..tiles {
        let mut clone = func.clone();
        clone.name = format!("__tile{k}_{entry}");
        apply_slice(&mut clone, &plan, k, tiles);
        clones.push(clone);
    }
    let f0 = module.function_named_mut(entry).expect("entry exists");
    apply_slice(f0, &plan, 0, tiles);
    for c in clones {
        module.add_function(c);
    }
    Some(TileReport {
        tiles,
        header: plan.header,
        lo: plan.lo,
        hi: plan.hi,
        writebacks: plan.regions.len(),
        carried: plan.carried.len(),
    })
}

/// Slice boundary `E_k`: tile `k` runs iterations `[E_k, E_{k+1})`.
fn cut(lo: i64, hi: i64, k: usize, tiles: usize) -> i64 {
    lo + (hi - lo) * k as i64 / tiles as i64
}

/// The qualifying loop with the most estimated dynamic work, if any.
fn best_plan(func: &Function, tiles: usize) -> Option<Plan> {
    let dom = Dominators::compute(func);
    let loops = natural_loops(func, &dom);
    let live = Liveness::compute(func);
    let mut best: Option<Plan> = None;
    for lp in &loops {
        let Some(plan) = qualify(func, lp, &loops, &dom, &live, tiles) else {
            continue;
        };
        let better = match &best {
            None => true,
            Some(b) => {
                (plan.work, std::cmp::Reverse(plan.header.0))
                    > (b.work, std::cmp::Reverse(b.header.0))
            }
        };
        if better {
            best = Some(plan);
        }
    }
    best
}

/// Check every partitioning precondition for `lp`; build its plan.
fn qualify(
    func: &Function,
    lp: &Loop,
    loops: &[Loop],
    dom: &Dominators,
    live: &Liveness,
    tiles: usize,
) -> Option<Plan> {
    // The partitioned loop must execute exactly once: a loop nested
    // inside an outer loop re-enters, but each helper tile runs its
    // slice once and returns — the second trip would starve tile 0's
    // receive for good (observed on sieve's flag-init loop, which sits
    // inside the benchmark's repeat loop).
    if loops
        .iter()
        .any(|other| other.header != lp.header && other.blocks.contains(&lp.header))
    {
        return None;
    }
    // One exit edge, leaving from the single latch.
    if lp.exits.len() != 1 || lp.latches.len() != 1 {
        return None;
    }
    let (exit_from, exit_to) = lp.exits[0];
    let latch = lp.latches[0];
    if exit_from != latch {
        return None;
    }
    let la = LoopAnalysis::new(func, lp, dom);
    let latch_info = analyze_latch(&la)?;
    let iv = latch_info.iv.reg;
    if latch_info.iv.step != 1 || !latch_info.iv.is_const_step() {
        return None;
    }
    let Operand::Imm(hi) = latch_info.bound else {
        return None;
    };
    // The reaching init: a unique outside predecessor of the header that
    // jumps straight to it, whose last write of the IV is `iv := lo`.
    let preds = func.predecessors();
    let outside: Vec<usize> = preds[lp.header]
        .iter()
        .copied()
        .filter(|p| !lp.contains(*p))
        .collect();
    let [pre] = outside[..] else { return None };
    if !matches!(
        func.blocks[pre].terminator().map(|i| &i.kind),
        Some(InstKind::Jump { target }) if *target == func.blocks[lp.header].label
    ) {
        return None;
    }
    let (init_ii, lo) =
        func.blocks[pre]
            .insts
            .iter()
            .enumerate()
            .rev()
            .find_map(|(ii, inst)| match &inst.kind {
                InstKind::Assign {
                    dst,
                    src: RExpr::Op(Operand::Imm(v)),
                } if *dst == iv => Some((ii, *v)),
                _ => {
                    if inst.kind.defs().contains(&iv) {
                        Some((usize::MAX, 0)) // reaching def is not a constant
                    } else {
                        None
                    }
                }
            })?;
    if init_ii == usize::MAX {
        return None;
    }
    let trip = trip_count_value(lo, hi, 1, latch_info.cmp)?;
    let hi = lo + trip; // normalize Le/Ne to a half-open [lo, hi)
    if trip < tiles as i64 {
        return None;
    }
    // No calls, returns or pre-existing stream/channel machinery inside.
    for &bi in &lp.blocks {
        for inst in &func.blocks[bi].insts {
            match &inst.kind {
                InstKind::Call { .. } | InstKind::Ret => return None,
                k if is_stream_or_chan(k) => return None,
                _ => {}
            }
        }
    }
    // Every store must be affine in the partitioned IV over a global, and
    // every load of a *stored* global must hit the same per-iteration
    // address (no cross-iteration memory dependence between slices).
    let mut regions: BTreeMap<SymId, StoreRegion> = BTreeMap::new();
    let mut loads: Vec<(SymId, Option<Affine>)> = Vec::new();
    for &bi in &lp.blocks {
        for (ii, inst) in func.blocks[bi].insts.iter().enumerate() {
            match &inst.kind {
                InstKind::GStore { src, mem } => {
                    let a = la.eval_memref(mem, (bi, ii), 8)?;
                    let Region::Global(sym) = a.region else {
                        return None;
                    };
                    if a.iv != Some(iv) || a.inv.is_some() || a.coeff < mem.width.bytes() {
                        return None;
                    }
                    let class = match src {
                        Operand::Reg(r) => r.class,
                        Operand::Imm(_) => RegClass::Int,
                        Operand::FImm(_) => RegClass::Flt,
                    };
                    let region = StoreRegion {
                        sym,
                        coeff: a.coeff,
                        off: a.off,
                        width: mem.width,
                        class,
                    };
                    match regions.get(&sym) {
                        None => {
                            regions.insert(sym, region);
                        }
                        Some(r) if *r == region => {}
                        Some(_) => return None, // two shapes over one global
                    }
                }
                InstKind::GLoad { mem, .. } => {
                    let a = la.eval_memref(mem, (bi, ii), 8);
                    let sym = match (&a, mem.sym) {
                        (Some(af), _) => match af.region {
                            Region::Global(s) => s,
                            _ => return None, // unknown base may alias a store
                        },
                        (None, Some(s)) => s,
                        (None, None) => return None,
                    };
                    loads.push((sym, a));
                }
                _ => {}
            }
        }
    }
    for (sym, a) in &loads {
        let Some(st) = regions.get(sym) else {
            continue; // read-only global: replicated, always safe
        };
        let Some(a) = a else { return None };
        if a.iv != Some(iv) || a.inv.is_some() || a.coeff != st.coeff || a.off != st.off {
            return None;
        }
    }
    // Carried scalars: live into the header and written in the loop. They
    // chain the slices; a carried value (or any loop-defined register)
    // still live after the loop would need the *last* slice's value on
    // tile 0, which the writeback protocol does not provide — reject.
    let defined: HashSet<Reg> = lp
        .blocks
        .iter()
        .flat_map(|&bi| func.blocks[bi].insts.iter())
        .flat_map(|i| i.kind.defs())
        .collect();
    let mut carried: Vec<Reg> = live.live_in[lp.header]
        .iter()
        .filter(|r| *r != iv && defined.contains(r))
        .collect();
    carried.sort();
    if live.live_in[exit_to].iter().any(|r| defined.contains(&r)) {
        return None;
    }
    // Estimated dynamic work: trip * per-iteration instruction count,
    // weighting blocks of nested loops by their own trips (10 each when
    // unknown) — so a loop wrapping a heavy inner loop wins selection.
    let mut work = 0i64;
    for &bi in &lp.blocks {
        let mut weight = 1i64;
        for inner in loops {
            if inner.header != lp.header && inner.blocks.is_subset(&lp.blocks) && inner.contains(bi)
            {
                weight = weight.saturating_mul(inner_trip(func, inner, dom).unwrap_or(10));
            }
        }
        work = work.saturating_add(weight.saturating_mul(func.blocks[bi].insts.len() as i64));
    }
    work = work.saturating_mul(trip);
    Some(Plan {
        header: func.blocks[lp.header].label,
        init_at: (pre, init_ii),
        compare_at: latch_info.compare,
        latch,
        exit_to: func.blocks[exit_to].label,
        lo,
        hi,
        regions: regions.into_values().collect(),
        carried,
        work,
    })
}

/// Static trip count of a nested loop, for work estimation only.
fn inner_trip(func: &Function, lp: &Loop, dom: &Dominators) -> Option<i64> {
    let la = LoopAnalysis::new(func, lp, dom);
    let l = analyze_latch(&la)?;
    let Operand::Imm(bound) = l.bound else {
        return None;
    };
    // Init unknown in general; a constant-bound count-up loop from an
    // unknown start still gets a bounded estimate.
    let init = 0;
    trip_count_value(init, bound, l.iv.step, l.cmp).filter(|t| *t > 0)
}

fn is_stream_or_chan(k: &InstKind) -> bool {
    matches!(
        k,
        InstKind::StreamIn { .. }
            | InstKind::StreamOut { .. }
            | InstKind::StreamGather { .. }
            | InstKind::StreamScatter { .. }
            | InstKind::StreamStop { .. }
            | InstKind::ChanSend { .. }
            | InstKind::ChanRecv { .. }
            | InstKind::StreamSend { .. }
            | InstKind::StreamRecv { .. }
            | InstKind::BranchStream { .. }
    )
}

/// Rewrite `func` into tile `k`'s slice of the plan.
fn apply_slice(func: &mut Function, plan: &Plan, k: usize, tiles: usize) {
    let e_lo = cut(plan.lo, plan.hi, k, tiles);
    let e_hi = cut(plan.lo, plan.hi, k + 1, tiles);
    let n_k = e_hi - e_lo;
    // IV init `iv := lo` -> `iv := E_k`.
    let (ibi, iii) = plan.init_at;
    if let InstKind::Assign {
        src: RExpr::Op(Operand::Imm(v)),
        ..
    } = &mut func.blocks[ibi].insts[iii].kind
    {
        *v = e_lo;
    }
    // Latch bound `hi` -> `E_{k+1}` (whichever Compare operand is the
    // immediate; analyze_latch proved exactly one side is).
    let (cbi, cii) = plan.compare_at;
    if let InstKind::Compare { a, b, .. } = &mut func.blocks[cbi].insts[cii].kind {
        for op in [a, b] {
            if let Operand::Imm(v) = op {
                *v = e_hi;
            }
        }
    }
    // Carried scalars flow in from tile k-1 just before the loop.
    if k > 0 {
        let init_block = func.blocks[ibi].label;
        for &s in &plan.carried {
            insert_before_jump(
                func,
                init_block,
                InstKind::ChanRecv {
                    peer: (k - 1) as u8,
                    dst: s,
                },
            );
        }
    }
    // Build the post-loop block and swing the exit edge onto it.
    let post = func.add_block();
    let term = func.blocks[plan.latch].terminator().map(|i| i.kind.clone());
    if let Some(mut kind) = term {
        for l in branch_targets_mut(&mut kind) {
            if *l == plan.exit_to {
                *l = post;
            }
        }
        let n = func.blocks[plan.latch].insts.len();
        func.blocks[plan.latch].insts[n - 1].kind = kind;
    }
    if k + 1 < tiles {
        for &s in &plan.carried {
            func.push(
                post,
                InstKind::ChanSend {
                    peer: (k + 1) as u8,
                    src: Operand::Reg(s),
                    class: s.class,
                },
            );
        }
    }
    if k > 0 {
        // Sender: pump each stored region's slice to tile 0 and return.
        // `Sin` fills the FIFO from memory while `Ssend` drains it into
        // the channel — a straight-line core-to-core DMA; consecutive
        // regions serialize on the FIFO's stream exclusivity.
        for r in &plan.regions {
            let fifo = DataFifo::new(r.class, 0);
            let base = func.new_vreg(RegClass::Int);
            func.push(
                post,
                InstKind::LoadAddr {
                    dst: base,
                    sym: r.sym,
                    disp: r.coeff * e_lo + r.off,
                },
            );
            func.push(
                post,
                InstKind::StreamIn {
                    fifo,
                    base: Operand::Reg(base),
                    count: Some(Operand::Imm(n_k)),
                    stride: Operand::Imm(r.coeff),
                    width: r.width,
                    tested: false,
                },
            );
            func.push(
                post,
                InstKind::StreamSend {
                    peer: 0,
                    fifo,
                    count: Operand::Imm(n_k),
                },
            );
        }
        func.push(post, InstKind::Ret);
        return;
    }
    // Tile 0: receive every other tile's slices in tile order (matching
    // each sender's region order), store them through `Sout`, then fall
    // through to the original sequel.
    let mut cursor = post;
    for peer in 1..tiles {
        let p_lo = cut(plan.lo, plan.hi, peer, tiles);
        let p_hi = cut(plan.lo, plan.hi, peer + 1, tiles);
        let p_n = p_hi - p_lo;
        for r in &plan.regions {
            let fifo = DataFifo::new(r.class, 0);
            func.push(
                cursor,
                InstKind::StreamRecv {
                    peer: peer as u8,
                    fifo,
                    count: Operand::Imm(p_n),
                    tested: true,
                },
            );
            let base = func.new_vreg(RegClass::Int);
            func.push(
                cursor,
                InstKind::LoadAddr {
                    dst: base,
                    sym: r.sym,
                    disp: r.coeff * p_lo + r.off,
                },
            );
            func.push(
                cursor,
                InstKind::StreamOut {
                    fifo,
                    base: Operand::Reg(base),
                    count: Some(Operand::Imm(p_n)),
                    stride: Operand::Imm(r.coeff),
                    width: r.width,
                },
            );
            // The copy loop moves each received element from the FIFO's
            // input side to its output side, where the out-stream picks
            // it up; `jNI` counts the tested receive down.
            let body = func.add_block();
            let next = func.add_block();
            func.push(cursor, InstKind::Jump { target: body });
            func.push(
                body,
                InstKind::Assign {
                    dst: fifo.reg(),
                    src: RExpr::Op(Operand::Reg(fifo.reg())),
                },
            );
            func.push(
                body,
                InstKind::BranchStream {
                    fifo,
                    target: body,
                    els: next,
                },
            );
            cursor = next;
        }
    }
    func.push(
        cursor,
        InstKind::Jump {
            target: plan.exit_to,
        },
    );
}

/// The labels a terminator can transfer control to.
fn branch_targets_mut(kind: &mut InstKind) -> Vec<&mut Label> {
    match kind {
        InstKind::Jump { target } => vec![target],
        InstKind::Branch { target, els, .. } | InstKind::BranchStream { target, els, .. } => {
            vec![target, els]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_cover_the_space_in_order() {
        for tiles in 2..=8usize {
            let (lo, hi) = (3i64, 517i64);
            let mut prev = lo;
            for k in 0..tiles {
                let a = cut(lo, hi, k, tiles);
                let b = cut(lo, hi, k + 1, tiles);
                assert_eq!(a, prev);
                assert!(b > a, "non-empty slice");
                prev = b;
            }
            assert_eq!(prev, hi);
        }
    }
}
