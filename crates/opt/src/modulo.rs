//! Optimal software pipelining (`-O modulo`) via difference-logic SMT.
//!
//! The streaming transformation leaves inner loops whose steady-state
//! initiation interval is limited not by resources but by the *order* the
//! instructions were emitted in: an adjacent register dependence costs a
//! one-cycle issue interlock, and a FIFO pop placed too close to the load
//! that feeds it leaks memory latency into every iteration. Because the
//! WM's IFU dispatches exactly one non-control instruction per cycle, a
//! loop of `m` instructions can never beat `m` cycles per iteration — but
//! a careless ordering is easily worse.
//!
//! This pass searches for a provably minimal-interval schedule using the
//! in-tree [`wm_solver`] DPLL(T) solver. Each instruction `i` of an
//! eligible inner loop gets a *row* `r_i ∈ [0, II)` (a difference-logic
//! time variable) and a *stage* `s_i ∈ {0, 1}` (a boolean), placing it at
//! the virtual issue slot `t_i = r_i + II·s_i`. A dependence
//! `i → j` with latency `L` and iteration distance `d` becomes
//! `t_j + II·d ≥ t_i + L`, which for each of the four stage combinations
//! `(s_i, s_j) = (a, b)` is the pure difference constraint
//! `r_i − r_j ≤ II·(d + b − a) − L`, guarded by two stage literals. Rows
//! are pairwise distinct (the one-dispatch-per-cycle bound). The minimal
//! feasible `II` is found by probing `MII = m` first and, only if that
//! fails, binary search from `MII + 1` up to one below the measured greedy
//! interval; `Unsat`/`Unknown` anywhere simply keeps the greedy code, so
//! the pass can never regress a loop it touches.
//!
//! The emitted shape for a two-stage schedule reuses the loop's `jNI`
//! counter protocol without speculation: the original block becomes the
//! *prologue* (iteration 0's stage-0 instructions), a fresh *kernel*
//! block carries every instruction once in row order — row order **is**
//! execution-time order for the `(stage 1, iter j)`/`(stage 0, iter j+1)`
//! mix a kernel pass executes — and a fresh *epilogue* flushes the final
//! iteration's stage-1 instructions. The `jNI` is executed exactly once
//! per iteration in either shape, so the IFU termination counter is
//! decremented the same number of times as in the sequential loop, for
//! every trip count.

use std::collections::{BTreeMap, VecDeque};

use wm_ir::{Block, DataFifo, Function, Inst, InstKind, Label, RExpr, Reg, RegClass, UnOp};
use wm_solver::{BVar, Budget, Lit, Outcome, Solver, TVar};

/// Largest loop body (in instructions) the pass considers; keeps solver
/// instances tiny and bounds the all-pairs distinct-row clauses.
const MAX_BODY: usize = 24;
/// Candidate IIs probed at most this far above `MII` (the greedy interval
/// caps the search anyway; this bounds it when the estimator misbehaves).
const MAX_II_SLACK: i64 = 32;
/// Modelled latency of a register true dependence: a consumer scheduled
/// two or more slots after its producer can never hit the one-cycle
/// adjacent-issue interlock.
const RAW_LATENCY: i64 = 2;
/// Rounds simulated by the greedy-interval estimator (the last four
/// deltas are averaged, past the warm-up transient).
const EST_ROUNDS: usize = 12;
/// Most in-loop `WLoad`s allowed per FIFO: the kernel can run one
/// iteration of loads ahead of the pops, and the in-FIFO must be able to
/// buffer them without stalling (capacities of 4+ are safe).
const MAX_LOADS_PER_FIFO: usize = 3;

/// Number of per-loop entries a [`ModuloReport`] can carry.
pub const MAX_LOOP_REPORTS: usize = 8;

/// What happened to one candidate loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopReport {
    /// Label number of the loop block.
    pub label: u32,
    /// Body size in instructions (excluding the `jNI`).
    pub insts: u32,
    /// Minimum initiation interval: the dispatch bound `m` (per-unit
    /// counts and memory ports never exceed it on the WM).
    pub mii: u32,
    /// Estimated steady-state interval of the greedy (program-order)
    /// schedule, in cycles per iteration.
    pub greedy: u32,
    /// Achieved initiation interval: the solver's minimal feasible `II`
    /// when pipelined, the greedy interval otherwise.
    pub ii: u32,
    /// Was the loop rescheduled?
    pub pipelined: bool,
    /// Solver calls made for this loop (one per candidate `II` tried).
    pub probes: u32,
    /// Solver decisions, summed over the probes.
    pub decisions: u64,
    /// Solver conflicts, summed over the probes.
    pub conflicts: u64,
}

/// What the modulo-scheduling pass did to one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuloReport {
    /// Eligible inner loops examined.
    pub considered: u32,
    /// Loops rescheduled to a smaller interval.
    pub pipelined: u32,
    nloops: u32,
    loops: [LoopReport; MAX_LOOP_REPORTS],
}

impl ModuloReport {
    /// Per-loop detail, in the order the loops were encountered (at most
    /// [`MAX_LOOP_REPORTS`] entries are retained).
    pub fn loops(&self) -> &[LoopReport] {
        &self.loops[..self.nloops as usize]
    }

    fn record(&mut self, entry: LoopReport) {
        if (self.nloops as usize) < MAX_LOOP_REPORTS {
            self.loops[self.nloops as usize] = entry;
            self.nloops += 1;
        }
    }
}

/// The scheduling-relevant shape of one body instruction.
struct BodyInst {
    /// Execution unit the IFU dispatches it to.
    unit: RegClass,
    /// Virtual register defined (conventional value only — FIFO pushes
    /// and zero-register discards do not arm the issue interlock).
    def: Option<Reg>,
    /// Virtual registers read.
    uses: Vec<Reg>,
    /// Input FIFOs dequeued from.
    pops: Vec<DataFifo>,
    /// Output FIFO enqueued into (an `Assign` to register 0).
    push: Option<RegClass>,
    /// Target FIFO of a `WLoad`.
    load: Option<DataFifo>,
    /// Paired unit of a `WStore`.
    store: Option<RegClass>,
}

/// An eligible single-block `jNI` inner loop.
struct LoopBody {
    insts: Vec<BodyInst>,
    els: Label,
}

/// A dependence edge: `t_to + II·dist ≥ t_from + lat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: usize,
    to: usize,
    lat: i64,
    dist: i64,
}

/// Reschedule every eligible inner loop of `func` at its minimal feasible
/// initiation interval. `budget` caps solver conflicts per candidate II
/// (the pass is deterministic: no wall-clock limits are used);
/// `mem_latency` is the modelled load-to-pop latency in cycles.
pub fn modulo_schedule(func: &mut Function, budget: u64, mem_latency: i64) -> ModuloReport {
    let mut report = ModuloReport::default();
    let nblocks = func.blocks.len();
    for bi in 0..nblocks {
        let Some(body) = analyze(&func.blocks[bi]) else {
            continue;
        };
        report.considered += 1;
        let m = body.insts.len();
        let greedy = greedy_interval(&body.insts, mem_latency);
        let mut entry = LoopReport {
            label: func.blocks[bi].label.0,
            insts: m as u32,
            mii: m as u32,
            greedy: greedy as u32,
            ii: greedy as u32,
            ..LoopReport::default()
        };
        if let Some(edges) = build_edges(&body.insts, mem_latency) {
            let found = find_schedule(m, &edges, greedy, budget, &mut entry);
            if let Some((ii, rows, stages)) = found {
                emit(func, bi, &rows, &stages, body.els);
                entry.ii = ii as u32;
                entry.pipelined = true;
                report.pipelined += 1;
            }
        }
        report.record(entry);
    }
    report
}

// ---------------------------------------------------------------------------
// Loop recognition
// ---------------------------------------------------------------------------

/// Recognize a single-block counted inner loop whose body the scheduler
/// fully understands. Anything unrecognized bails to the greedy code.
fn analyze(block: &Block) -> Option<LoopBody> {
    let term = block.insts.last()?;
    let InstKind::BranchStream { target, els, .. } = term.kind else {
        return None;
    };
    if target != block.label || els == block.label {
        return None;
    }
    let m = block.insts.len() - 1;
    if !(2..=MAX_BODY).contains(&m) {
        return None;
    }
    let mut insts = Vec::with_capacity(m);
    for inst in &block.insts[..m] {
        insts.push(classify(&inst.kind)?);
    }
    // Loads must pair one-to-one and positionally with the pops that
    // consume them (the FIFO is at its entry level each iteration in the
    // sequential schedule); a FIFO popped without in-loop loads is
    // stream-fed and imposes only ordering.
    let mut pops: BTreeMap<DataFifo, usize> = BTreeMap::new();
    let mut loads: BTreeMap<DataFifo, usize> = BTreeMap::new();
    let mut pushes: BTreeMap<RegClass, usize> = BTreeMap::new();
    let mut stores: BTreeMap<RegClass, usize> = BTreeMap::new();
    for b in &insts {
        for &f in &b.pops {
            *pops.entry(f).or_insert(0) += 1;
        }
        if let Some(f) = b.load {
            *loads.entry(f).or_insert(0) += 1;
        }
        if let Some(u) = b.push {
            *pushes.entry(u).or_insert(0) += 1;
        }
        if let Some(u) = b.store {
            *stores.entry(u).or_insert(0) += 1;
        }
    }
    for (f, &nl) in &loads {
        let np = *pops.get(f).unwrap_or(&0);
        if nl > MAX_LOADS_PER_FIFO || (np != 0 && nl != np) {
            return None;
        }
    }
    // Stores pop the unit's output FIFO; they must pair one-to-one with
    // the in-loop pushes (a stream-drained output FIFO has no stores).
    for (u, &ns) in &stores {
        let np = *pushes.get(u).unwrap_or(&0);
        if np != ns {
            return None;
        }
    }
    Some(LoopBody { insts, els })
}

fn classify(kind: &InstKind) -> Option<BodyInst> {
    match kind {
        InstKind::Assign { dst, src } => {
            // Conversions execute on the IFU after both units quiesce.
            if matches!(src, RExpr::Un(UnOp::IntToFlt | UnOp::FltToInt, _)) {
                return None;
            }
            let class = dst.class;
            let (def, push) = if dst.is_virt() {
                (Some(*dst), None)
            } else if dst.is_zero() {
                (None, None)
            } else if dst.phys_num() == Some(0) {
                (None, Some(class))
            } else {
                // Register-1 writes and architected scalar definitions.
                return None;
            };
            let mut pops = Vec::new();
            let mut uses = Vec::new();
            for op in src.operands() {
                let Some(r) = op.reg() else { continue };
                if r.class != class {
                    return None; // cross-class read
                }
                if r.is_fifo() {
                    let f = DataFifo::new(class, r.phys_num().unwrap());
                    if pops.contains(&f) {
                        return None; // double dequeue in a single RTL
                    }
                    pops.push(f);
                } else if r.is_virt() {
                    uses.push(r);
                }
                // Non-FIFO physical reads are loop-invariant here: the
                // body is barred from architected scalar definitions.
            }
            Some(BodyInst {
                unit: class,
                def,
                uses,
                pops,
                push,
                load: None,
                store: None,
            })
        }
        InstKind::WLoad { fifo, addr, .. } => Some(BodyInst {
            unit: RegClass::Int,
            def: None,
            uses: addr_uses(addr)?,
            pops: Vec::new(),
            push: None,
            load: Some(*fifo),
            store: None,
        }),
        InstKind::WStore { unit, addr, .. } => Some(BodyInst {
            unit: RegClass::Int,
            def: None,
            uses: addr_uses(addr)?,
            pops: Vec::new(),
            push: None,
            load: None,
            store: Some(*unit),
        }),
        _ => None,
    }
}

/// Virtual registers read by a `WLoad`/`WStore` address expression;
/// `None` if the address reads a FIFO or a non-integer register.
fn addr_uses(addr: &RExpr) -> Option<Vec<Reg>> {
    let mut uses = Vec::new();
    for r in addr.regs() {
        if r.class != RegClass::Int || r.is_fifo() {
            return None;
        }
        if r.is_virt() {
            uses.push(r);
        }
    }
    Some(uses)
}

// ---------------------------------------------------------------------------
// Dependence edges
// ---------------------------------------------------------------------------

/// Chain `sites` into a total order (consecutive at distance 0, wrapping
/// last → first at distance 1), preserving the sequence across iterations.
fn chain(edges: &mut Vec<Edge>, sites: &[usize], lat: i64) {
    for w in sites.windows(2) {
        edges.push(Edge {
            from: w[0],
            to: w[1],
            lat,
            dist: 0,
        });
    }
    if let (Some(&last), Some(&first)) = (sites.last(), sites.first()) {
        edges.push(Edge {
            from: last,
            to: first,
            lat,
            dist: 1,
        });
    }
}

fn build_edges(body: &[BodyInst], mem_latency: i64) -> Option<Vec<Edge>> {
    let mut edges = Vec::new();
    let mut defs: BTreeMap<Reg, Vec<usize>> = BTreeMap::new();
    let mut uses: BTreeMap<Reg, Vec<usize>> = BTreeMap::new();
    let mut pop_sites: BTreeMap<DataFifo, Vec<usize>> = BTreeMap::new();
    let mut load_sites: BTreeMap<DataFifo, Vec<usize>> = BTreeMap::new();
    let mut push_sites: BTreeMap<RegClass, Vec<usize>> = BTreeMap::new();
    let mut store_sites: BTreeMap<RegClass, Vec<usize>> = BTreeMap::new();
    let mut loads_all = Vec::new();
    let mut stores_all = Vec::new();
    for (i, b) in body.iter().enumerate() {
        if let Some(d) = b.def {
            defs.entry(d).or_default().push(i);
        }
        for &u in &b.uses {
            let sites = uses.entry(u).or_default();
            if sites.last() != Some(&i) {
                sites.push(i);
            }
        }
        for &f in &b.pops {
            pop_sites.entry(f).or_default().push(i);
        }
        if let Some(f) = b.load {
            load_sites.entry(f).or_default().push(i);
            loads_all.push(i);
        }
        if let Some(u) = b.push {
            push_sites.entry(u).or_default().push(i);
        }
        if let Some(u) = b.store {
            store_sites.entry(u).or_default().push(i);
            stores_all.push(i);
        }
    }
    // Register dependences. All defs and uses of a virtual register are
    // on one unit (class discipline), so per-unit in-order issue realizes
    // any schedule that respects these edges.
    for (v, us) in &uses {
        let Some(ds) = defs.get(v) else {
            continue; // loop-invariant
        };
        for &u in us {
            // True dependence on the reaching definition.
            let (d_idx, dist) = match ds.iter().rev().find(|&&d| d < u) {
                Some(&d) => (d, 0),
                None => (*ds.last().unwrap(), 1),
            };
            edges.push(Edge {
                from: d_idx,
                to: u,
                lat: RAW_LATENCY,
                dist,
            });
            // Anti dependence: the next definition — in particular the
            // next iteration's stage-0 redefinition inside the kernel —
            // must not overwrite the value before this use reads it.
            let (d_idx, dist) = match ds.iter().find(|&&d| d > u) {
                Some(&d) => (d, 0),
                None => (ds[0], 1),
            };
            edges.push(Edge {
                from: u,
                to: d_idx,
                lat: 1,
                dist,
            });
        }
    }
    for ds in defs.values() {
        chain(&mut edges, ds, 1); // output dependences
    }
    // FIFO traffic is positional: any schedule is correct as long as the
    // global pop sequence and the global push sequence of each queue are
    // preserved, which these total-order chains guarantee.
    for sites in pop_sites.values() {
        chain(&mut edges, sites, 1);
    }
    for sites in load_sites.values() {
        chain(&mut edges, sites, 1);
    }
    for sites in push_sites.values() {
        chain(&mut edges, sites, 1);
    }
    // One global store queue: preserve the full store order.
    chain(&mut edges, &stores_all, 1);
    // A paired pop sees its load's data `mem_latency` cycles after issue.
    for (f, ls) in &load_sites {
        let Some(ps) = pop_sites.get(f) else { continue };
        debug_assert_eq!(ls.len(), ps.len());
        for (&l, &p) in ls.iter().zip(ps) {
            if l >= p {
                // A pop ahead of its own load means the FIFO was not at
                // level zero on iteration entry; pairing is unknowable.
                return None;
            }
            edges.push(Edge {
                from: l,
                to: p,
                lat: mem_latency,
                dist: 0,
            });
        }
    }
    // A store dequeues its paired push's value: keep the push ahead so
    // the store never blocks the store queue head waiting on the unit.
    for (u, ss) in &store_sites {
        let Some(ps) = push_sites.get(u) else {
            continue;
        };
        debug_assert_eq!(ss.len(), ps.len());
        for (&p, &st) in ps.iter().zip(ss) {
            edges.push(Edge {
                from: p,
                to: st,
                lat: 1,
                dist: 0,
            });
        }
    }
    // No in-loop disambiguation: conservatively freeze the relative order
    // of every load/store pair, in both directions, across iterations.
    if !loads_all.is_empty() && !stores_all.is_empty() {
        for &l in &loads_all {
            for &s in &stores_all {
                let (a, b) = if l < s { (l, s) } else { (s, l) };
                edges.push(Edge {
                    from: a,
                    to: b,
                    lat: 1,
                    dist: 0,
                });
                edges.push(Edge {
                    from: b,
                    to: a,
                    lat: 1,
                    dist: 1,
                });
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Some(edges)
}

// ---------------------------------------------------------------------------
// Greedy-interval estimator
// ---------------------------------------------------------------------------

#[derive(Default)]
struct UnitState {
    queue: VecDeque<(usize, usize)>, // (round, body index)
    prev_def: Option<Reg>,
    prev_cycle: u64,
}

/// Estimate the steady-state cycles per iteration of the greedy
/// (program-order) schedule with a small dispatch/issue model: one
/// dispatch per cycle into bounded per-unit queues, in-order issue with
/// the adjacent-definition interlock, and paired pops gated on their
/// load's issue time plus `mem_latency`. The estimate only *targets* the
/// search — correctness never depends on it.
fn greedy_interval(body: &[BodyInst], mem_latency: i64) -> u64 {
    let m = body.len();
    let paired: Vec<DataFifo> = body.iter().filter_map(|b| b.load).collect();
    let mut load_issue: BTreeMap<DataFifo, Vec<u64>> = BTreeMap::new();
    let mut pops_done: BTreeMap<DataFifo, usize> = BTreeMap::new();
    let mut ieu = UnitState::default();
    let mut feu = UnitState::default();
    let mut round_max = [0u64; EST_ROUNDS];
    let mut next = (0usize, 0usize); // (round, body index) to dispatch
    let mut issued = 0usize;
    let mut cycle = 0u64;
    while issued < EST_ROUNDS * m && cycle < 100_000 {
        cycle += 1;
        // Units issue before the IFU dispatches, as in the machine.
        for unit in [&mut ieu, &mut feu] {
            let Some(&(round, idx)) = unit.queue.front() else {
                continue;
            };
            let b = &body[idx];
            let interlocked =
                unit.prev_cycle + 1 == cycle && unit.prev_def.is_some_and(|d| b.uses.contains(&d));
            let starved = b.pops.iter().any(|f| {
                if !paired.contains(f) {
                    return false; // stream-fed: data always ready
                }
                let k = *pops_done.get(f).unwrap_or(&0);
                load_issue
                    .get(f)
                    .and_then(|l| l.get(k))
                    .is_none_or(|&t| t + mem_latency as u64 > cycle)
            });
            if interlocked || starved {
                continue;
            }
            unit.queue.pop_front();
            for f in &b.pops {
                *pops_done.entry(*f).or_insert(0) += 1;
            }
            if let Some(f) = b.load {
                load_issue.entry(f).or_default().push(cycle);
            }
            unit.prev_def = b.def;
            unit.prev_cycle = cycle;
            round_max[round] = round_max[round].max(cycle);
            issued += 1;
        }
        if next.0 < EST_ROUNDS {
            let unit = match body[next.1].unit {
                RegClass::Int => &mut ieu,
                RegClass::Flt => &mut feu,
            };
            if unit.queue.len() < wm_ir::hw::IQ_CAPACITY {
                unit.queue.push_back(next);
                next.1 += 1;
                if next.1 == m {
                    next = (next.0 + 1, 0);
                }
            }
        }
    }
    if issued < EST_ROUNDS * m {
        // The model wedged (it should not); report no headroom so the
        // loop falls back to greedy untouched.
        return m as u64;
    }
    (round_max[EST_ROUNDS - 1] - round_max[EST_ROUNDS - 5]) / 4
}

// ---------------------------------------------------------------------------
// Solving
// ---------------------------------------------------------------------------

/// The literal satisfied when instruction `i` is *not* in stage `a`.
fn not_in_stage(stages: &[BVar], i: usize, a: i64) -> Lit {
    if a == 0 {
        Lit::pos(stages[i])
    } else {
        Lit::neg(stages[i])
    }
}

/// Try to schedule the body at initiation interval `ii`; returns the rows
/// and stages of a model the solver found and this function re-verified.
/// Adds the solver's decisions and conflicts to `search`.
fn solve_ii(
    m: usize,
    edges: &[Edge],
    ii: i64,
    budget: u64,
    search: &mut LoopReport,
) -> Option<(Vec<i64>, Vec<bool>)> {
    // A self-edge is feasible iff its latency fits in `dist` intervals.
    for e in edges {
        if e.from == e.to && e.lat > ii * e.dist {
            return None;
        }
    }
    let mut s = Solver::new();
    let zero = s.new_tvar();
    let rows: Vec<TVar> = (0..m).map(|_| s.new_tvar()).collect();
    let stages: Vec<BVar> = (0..m).map(|_| s.new_bool()).collect();
    for &r in &rows {
        s.assert_diff(r, zero, ii - 1); // r − zero ≤ II−1
        s.assert_diff(zero, r, 0); // zero − r ≤ 0
    }
    for e in edges {
        if e.from == e.to {
            continue;
        }
        for a in 0..2i64 {
            for b in 0..2i64 {
                // t_to + II·dist ≥ t_from + lat under stages (a, b):
                let c = ii * (e.dist + b - a) - e.lat;
                if c >= ii - 1 {
                    continue; // rows are within II−1 of each other
                }
                if c < -(ii - 1) {
                    // Unsatisfiable for any rows: forbid the combination.
                    s.add_clause(&[
                        not_in_stage(&stages, e.from, a),
                        not_in_stage(&stages, e.to, b),
                    ]);
                } else {
                    let diff = s.diff_leq(rows[e.from], rows[e.to], c);
                    s.add_clause(&[
                        not_in_stage(&stages, e.from, a),
                        not_in_stage(&stages, e.to, b),
                        diff,
                    ]);
                }
            }
        }
    }
    // One dispatch per cycle: all rows pairwise distinct.
    for i in 0..m {
        for j in i + 1..m {
            let a = s.diff_leq(rows[i], rows[j], -1);
            let b = s.diff_leq(rows[j], rows[i], -1);
            s.add_clause(&[a, b]);
        }
    }
    // Anchor: some instruction starts in stage 0 (breaks the pure
    // stage-translation symmetry and keeps the prologue meaningful).
    let anchor: Vec<Lit> = stages.iter().map(|&b| Lit::neg(b)).collect();
    s.add_clause(&anchor);
    let outcome = s.solve(Budget::conflicts(budget));
    search.decisions += s.stats.decisions;
    search.conflicts += s.stats.conflicts;
    match outcome {
        Outcome::Sat(model) => {
            let z = model.time(zero);
            let r: Vec<i64> = rows.iter().map(|&t| model.time(t) - z).collect();
            let st: Vec<bool> = stages.iter().map(|&b| model.bool(b)).collect();
            validate(edges, ii, &r, &st).then_some((r, st))
        }
        Outcome::Unsat | Outcome::Unknown => None,
    }
}

/// Belt-and-braces replay of a model against the original constraints
/// (the emitter trusts nothing the solver says).
fn validate(edges: &[Edge], ii: i64, rows: &[i64], stages: &[bool]) -> bool {
    let m = rows.len();
    let mut seen = vec![false; ii as usize];
    for &r in rows {
        if !(0..ii).contains(&r) || std::mem::replace(&mut seen[r as usize], true) {
            return false;
        }
    }
    let t = |i: usize| rows[i] + ii * stages[i] as i64;
    edges
        .iter()
        .all(|e| t(e.to) + ii * e.dist >= t(e.from) + e.lat)
        && (0..m).any(|i| !stages[i])
}

/// The minimal feasible II in `[m, greedy)`: probe `MII = m` first, where
/// every loop that pipelines in practice lands, and binary-search
/// `[m + 1, greedy)` only if that probe fails. Counts each candidate
/// tried, and the search it took, in `search`.
fn find_schedule(
    m: usize,
    edges: &[Edge],
    greedy: u64,
    budget: u64,
    search: &mut LoopReport,
) -> Option<(i64, Vec<i64>, Vec<bool>)> {
    let mii = m as i64;
    let greedy = greedy as i64;
    if greedy <= mii {
        return None; // already at the dispatch bound
    }
    let mut probe = |ii: i64| {
        search.probes += 1;
        solve_ii(m, edges, ii, budget, search)
    };
    if let Some((rows, stages)) = probe(mii) {
        return Some((mii, rows, stages));
    }
    let mut lo = mii + 1;
    let mut hi = (greedy - 1).min(mii + MAX_II_SLACK);
    let mut best = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        match probe(mid) {
            Some((rows, stages)) => {
                best = Some((mid, rows, stages));
                hi = mid - 1;
            }
            None => lo = mid + 1,
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Rewrite the loop at block index `bi` into the scheduled shape. A pure
/// stage-0 schedule is an in-place reorder; a two-stage schedule becomes
/// prologue (original label) → kernel → epilogue, all targets explicit.
fn emit(func: &mut Function, bi: usize, rows: &[i64], stages: &[bool], els: Label) {
    let m = rows.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&i| rows[i]);
    if stages.iter().all(|&s| !s) {
        let block = &mut func.blocks[bi];
        let term = block.insts.pop().expect("loop block has a terminator");
        let mut body: Vec<Option<Inst>> = std::mem::take(&mut block.insts)
            .into_iter()
            .map(Some)
            .collect();
        block.insts = order
            .iter()
            .map(|&i| body[i].take().expect("each body index used once"))
            .collect();
        block.insts.push(term);
        return;
    }
    let body: Vec<Inst> = func.blocks[bi].insts[..m].to_vec();
    let jni = func.blocks[bi].insts[m].clone();
    let k_label = func.add_block();
    let epi_label = func.add_block();
    let retarget = |mut kind: InstKind| {
        if let InstKind::BranchStream { target, els: e, .. } = &mut kind {
            *target = k_label;
            *e = epi_label;
        }
        kind
    };
    // Prologue: iteration 0's stage-0 instructions, in the original block
    // so outside predecessors keep entering at the loop's label. Its jNI
    // decides between another iteration (kernel) and the flush (epilogue).
    let mut prologue: Vec<Inst> = order
        .iter()
        .filter(|&&i| !stages[i])
        .map(|&i| body[i].clone())
        .collect();
    prologue.push(Inst {
        id: jni.id,
        kind: retarget(jni.kind.clone()),
    });
    func.blocks[bi].insts = prologue;
    // Kernel: every instruction once, in row order, with fresh ids.
    let mut kernel = Vec::with_capacity(m + 1);
    for &i in &order {
        let id = func.new_inst_id();
        kernel.push(Inst {
            id,
            kind: body[i].kind.clone(),
        });
    }
    let kt = func.new_inst_id();
    kernel.push(Inst {
        id: kt,
        kind: retarget(jni.kind.clone()),
    });
    func.block_mut(k_label).insts = kernel;
    // Epilogue: the final iteration's stage-1 instructions, then the
    // loop's original exit.
    let mut epilogue = Vec::new();
    for &i in order.iter().filter(|&&i| stages[i]) {
        let id = func.new_inst_id();
        epilogue.push(Inst {
            id,
            kind: body[i].kind.clone(),
        });
    }
    let jt = func.new_inst_id();
    epilogue.push(Inst {
        id: jt,
        kind: InstKind::Jump { target: els },
    });
    func.block_mut(epi_label).insts = epilogue;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::{BinOp, Operand};

    const BUDGET: u64 = 20_000;

    fn flt(f: &mut Function) -> Reg {
        f.new_vreg(RegClass::Flt)
    }

    /// entry → L: fv0 := pop; fv1 := fv0*fv0; push fv1; jNI → L | exit.
    fn squaring_loop() -> (Function, Label) {
        let mut f = Function::new("t", 0, 0);
        let entry = f.entry_label();
        let l = f.add_block();
        let exit = f.add_block();
        f.push(entry, InstKind::Jump { target: l });
        let v0 = flt(&mut f);
        let v1 = flt(&mut f);
        f.push(
            l,
            InstKind::Assign {
                dst: v0,
                src: RExpr::Op(Operand::Reg(Reg::flt(0))),
            },
        );
        f.push(
            l,
            InstKind::Assign {
                dst: v1,
                src: RExpr::Bin(BinOp::Mul, v0.into(), v0.into()),
            },
        );
        f.push(
            l,
            InstKind::Assign {
                dst: Reg::flt(0),
                src: RExpr::Op(Operand::Reg(v1)),
            },
        );
        f.push(
            l,
            InstKind::BranchStream {
                fifo: DataFifo::new(RegClass::Flt, 0),
                target: l,
                els: exit,
            },
        );
        f.push(exit, InstKind::Ret);
        (f, l)
    }

    #[test]
    fn squaring_loop_pipelines_to_the_dispatch_bound() {
        let (mut f, l) = squaring_loop();
        let report = modulo_schedule(&mut f, BUDGET, 6);
        assert_eq!(report.considered, 1);
        assert_eq!(report.pipelined, 1);
        let lr = report.loops()[0];
        assert_eq!(lr.label, l.0);
        assert_eq!((lr.insts, lr.mii), (3, 3));
        assert_eq!(lr.ii, 3, "greedy interval {} should shrink", lr.greedy);
        assert!(lr.greedy > 3);
        assert_eq!(lr.probes, 1, "feasible at MII: one solver call");
        assert_eq!((lr.decisions, lr.conflicts), (17, 5), "the search it took");
        // Prologue (original label) + kernel + epilogue.
        assert_eq!(f.blocks.len(), 5);
        let kernel = &f.blocks[3];
        assert_eq!(kernel.insts.len(), 4, "all three insts plus jNI");
        let InstKind::BranchStream { target, els, .. } = kernel.insts[3].kind else {
            panic!("kernel ends in jNI");
        };
        assert_eq!(target, kernel.label, "kernel loops on itself");
        assert_eq!(els, f.blocks[4].label, "kernel exits to the epilogue");
        let epi = &f.blocks[4];
        assert!(matches!(
            epi.insts.last().unwrap().kind,
            InstKind::Jump { .. }
        ));
        // Prologue + epilogue together hold one copy of the body.
        let p_body = f.blocks[1].insts.len() - 1;
        let e_body = epi.insts.len() - 1;
        assert_eq!(p_body + e_body, 3);
        // Instruction ids stay unique across the rewrite.
        let mut ids: Vec<u32> = f.insts().map(|i| i.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), f.inst_count());
    }

    #[test]
    fn tight_recurrence_falls_back_to_greedy() {
        // v0 := (pop − v0)·v1 feeding itself: the carried chain needs
        // 2·RAW_LATENCY cycles per iteration, above any II we'd accept.
        let mut f = Function::new("t", 0, 0);
        let entry = f.entry_label();
        let l = f.add_block();
        let exit = f.add_block();
        f.push(entry, InstKind::Jump { target: l });
        let acc = f.new_vreg(RegClass::Flt);
        let tmp = f.new_vreg(RegClass::Flt);
        f.push(
            l,
            InstKind::Assign {
                dst: tmp,
                src: RExpr::Bin(BinOp::Sub, Reg::flt(0).into(), acc.into()),
            },
        );
        f.push(
            l,
            InstKind::Assign {
                dst: acc,
                src: RExpr::Bin(BinOp::Mul, tmp.into(), tmp.into()),
            },
        );
        f.push(
            l,
            InstKind::BranchStream {
                fifo: DataFifo::new(RegClass::Flt, 0),
                target: l,
                els: exit,
            },
        );
        f.push(exit, InstKind::Ret);
        let before = f.clone();
        let report = modulo_schedule(&mut f, BUDGET, 6);
        assert_eq!(report.considered, 1);
        assert_eq!(report.pipelined, 0);
        assert_eq!(f, before, "fallback leaves the function untouched");
        let lr = report.loops()[0];
        assert!(!lr.pipelined);
        assert_eq!(lr.ii, lr.greedy);
        // MII fails, then the one candidate below the greedy interval.
        assert_eq!((lr.mii, lr.greedy, lr.probes), (2, 4, 2));
    }

    #[test]
    fn the_search_probes_mii_first() {
        // Four independent instructions: feasible at MII, far below the
        // greedy interval, so the first probe settles it.
        let mut lr = LoopReport::default();
        let (ii, ..) = find_schedule(4, &[], 20, BUDGET, &mut lr).expect("feasible");
        assert_eq!((ii, lr.probes), (4, 1));
        // A carried self-dependence of latency 9: MII fails, then the
        // binary search over [5, 19] probes 12, 8, 10 and 9.
        let edges = [Edge {
            from: 0,
            to: 0,
            lat: 9,
            dist: 1,
        }];
        let mut lr = LoopReport::default();
        let (ii, ..) = find_schedule(4, &edges, 20, BUDGET, &mut lr).expect("feasible");
        assert_eq!((ii, lr.probes), (9, 5));
        // Nothing to gain: the greedy interval is already MII.
        let mut lr = LoopReport::default();
        assert!(find_schedule(4, &[], 4, BUDGET, &mut lr).is_none());
        assert_eq!(lr, LoopReport::default());
    }

    #[test]
    fn ineligible_loops_are_skipped() {
        // Compare-driven loop: not a jNI self-loop.
        let mut f = Function::new("t", 0, 0);
        let entry = f.entry_label();
        let l = f.add_block();
        let exit = f.add_block();
        f.push(entry, InstKind::Jump { target: l });
        let v = f.new_vreg(RegClass::Int);
        f.push(
            l,
            InstKind::Assign {
                dst: v,
                src: RExpr::Bin(BinOp::Add, v.into(), Operand::Imm(1)),
            },
        );
        f.push(
            l,
            InstKind::Compare {
                class: RegClass::Int,
                op: wm_ir::CmpOp::Lt,
                a: v.into(),
                b: Operand::Imm(10),
            },
        );
        f.push(
            l,
            InstKind::Branch {
                class: RegClass::Int,
                when: true,
                target: l,
                els: exit,
            },
        );
        f.push(exit, InstKind::Ret);
        let report = modulo_schedule(&mut f, BUDGET, 6);
        assert_eq!(report.considered, 0);
        assert_eq!(report.pipelined, 0);
    }

    #[test]
    fn in_place_reorder_when_one_stage_suffices() {
        // Crafted rows with every stage 0: emit is a pure permutation.
        let (mut f, l) = squaring_loop();
        let before: Vec<InstKind> = f.block(l).insts.iter().map(|i| i.kind.clone()).collect();
        let exit = f.blocks[2].label;
        emit(&mut f, 1, &[2, 0, 1], &[false, false, false], exit);
        assert_eq!(f.blocks.len(), 3, "no new blocks");
        let after: Vec<InstKind> = f.block(l).insts.iter().map(|i| i.kind.clone()).collect();
        assert_eq!(after[0], before[1]);
        assert_eq!(after[1], before[2]);
        assert_eq!(after[2], before[0]);
        assert_eq!(after[3], before[3], "terminator unchanged");
    }

    #[test]
    fn estimator_counts_interlock_bubbles() {
        let (f, l) = squaring_loop();
        let body = analyze(f.block(l)).expect("eligible");
        // pop → mul → push back-to-back: two bubbles per iteration.
        assert_eq!(greedy_interval(&body.insts, 6), 5);
    }

    #[test]
    fn paired_load_edges_use_memory_latency() {
        // load f0 := va; fv0 := pop·pop? No — single pop: fv0 := f0 + fv1.
        let mut f = Function::new("t", 0, 0);
        let entry = f.entry_label();
        let l = f.add_block();
        let exit = f.add_block();
        f.push(entry, InstKind::Jump { target: l });
        let va = f.new_vreg(RegClass::Int);
        let v0 = f.new_vreg(RegClass::Flt);
        f.push(
            l,
            InstKind::WLoad {
                fifo: DataFifo::new(RegClass::Flt, 0),
                addr: RExpr::Op(va.into()),
                width: wm_ir::Width::D8,
            },
        );
        f.push(
            l,
            InstKind::Assign {
                dst: v0,
                src: RExpr::Bin(BinOp::Add, Reg::flt(0).into(), v0.into()),
            },
        );
        f.push(
            l,
            InstKind::BranchStream {
                fifo: DataFifo::new(RegClass::Flt, 0),
                target: l,
                els: exit,
            },
        );
        f.push(exit, InstKind::Ret);
        let body = analyze(f.block(l)).expect("eligible");
        let edges = build_edges(&body.insts, 6).expect("pairing holds");
        assert!(
            edges.contains(&Edge {
                from: 0,
                to: 1,
                lat: 6,
                dist: 0
            }),
            "load→pop edge carries the memory latency: {edges:?}"
        );
    }
}
