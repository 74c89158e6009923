//! A small, dependency-free DPLL(T) solver for SAT modulo *difference
//! logic* — the fragment whose atoms are bounds on variable differences,
//! `a - b <= c`.
//!
//! The modulo-scheduling pass (`wm-opt`'s `-O modulo`) encodes a software
//! pipeline for one candidate initiation interval as a conjunction of
//! clauses over plain booleans (pipeline-stage choices) and difference
//! atoms (issue-slot bounds, dependence latencies, register lifetimes,
//! FIFO ordering). This crate answers "is there a schedule?" and, when
//! there is, produces the slot assignment.
//!
//! The design follows the standard lazy SMT architecture:
//!
//! * a CDCL SAT core — two-watched-literal propagation, first-UIP clause
//!   learning with backjumping, activity-driven decisions taken from a
//!   binary heap, and Luby restarts — owns the boolean search;
//! * a difference-logic theory keeps the constraint graph of the atoms
//!   the SAT core has currently assigned, maintains a feasible potential
//!   function incrementally, and reports each negative cycle back as a
//!   learned clause (the negation of the atoms on the cycle).
//!
//! Everything is deterministic: decisions break activity ties by variable
//! index, there is no randomization anywhere, the only budget is a
//! conflict count, and a run is a pure function of the constraint set
//! and the budget. Models are
//! **self-checking**: before a `Sat` verdict is returned every clause and
//! every active difference constraint is re-verified against the model,
//! and a violation panics rather than letting a bad schedule escape into
//! emitted code.
//!
//! ```
//! use wm_solver::{Budget, Outcome, Solver};
//!
//! let mut s = Solver::new();
//! let x = s.new_tvar();
//! let y = s.new_tvar();
//! let a = s.new_bool();
//! // a -> (x - y <= -3), !a -> (y - x <= -1)
//! let le = s.diff_leq(x, y, -3);
//! let ge = s.diff_leq(y, x, -1);
//! s.add_clause(&[Lit::neg(a), le]);
//! s.add_clause(&[Lit::pos(a), ge]);
//! let Outcome::Sat(m) = s.solve(Budget::default()) else { panic!() };
//! assert!(m.time(x) - m.time(y) <= -3 || m.time(y) - m.time(x) <= -1);
//! # use wm_solver::Lit;
//! ```

use std::collections::VecDeque;

/// A boolean variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BVar(u32);

/// A difference-logic ("time") variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TVar(u32);

/// A literal: a boolean variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: BVar) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: BVar) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        BVar(self.0 >> 1)
    }

    /// Is this the negated polarity?
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}b{}",
            if self.is_neg() { "!" } else { "" },
            self.0 >> 1
        )
    }
}

/// Search budget: a conflict count, so the same constraints and the same
/// budget give the same verdict on every machine.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Give up (`Outcome::Unknown`) after this many conflicts.
    pub max_conflicts: u64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::conflicts(100_000)
    }
}

impl Budget {
    /// Give up after `n` conflicts.
    pub fn conflicts(n: u64) -> Budget {
        Budget { max_conflicts: n }
    }
}

/// A satisfying assignment: values for every boolean and every difference
/// variable. Difference-variable values are one representative solution
/// (difference logic fixes only the differences; the solver anchors them
/// so that the values stay near zero).
#[derive(Debug, Clone)]
pub struct Model {
    bools: Vec<bool>,
    times: Vec<i64>,
}

impl Model {
    /// The boolean value of `v`.
    pub fn bool(&self, v: BVar) -> bool {
        self.bools[v.0 as usize]
    }

    /// Is `l` true under the model?
    pub fn lit(&self, l: Lit) -> bool {
        self.bool(l.var()) != l.is_neg()
    }

    /// The integer value of difference variable `t`.
    pub fn time(&self, t: TVar) -> i64 {
        self.times[t.0 as usize]
    }
}

/// The verdict of a [`Solver::solve`] call.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Satisfiable, with a (self-checked) model.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before a verdict.
    Unknown,
}

/// Search statistics, for reporting and for tests that pin determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Decisions made.
    pub decisions: u64,
    /// Conflicts analyzed (boolean and theory).
    pub conflicts: u64,
    /// Of which theory (negative-cycle) conflicts.
    pub theory_conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// One difference constraint `x_to - x_from <= weight`, activated when
/// `lit` becomes true.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: u32,
    to: u32,
    weight: i64,
    lit: Lit,
}

const UNASSIGNED: u8 = 2;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// Position marker of a variable that is not in the [`VarOrder`] heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Does variable `a` come before `b` in decision order: higher activity
/// first, then lower index? A strict total order, since activities are
/// never NaN.
fn precedes(activity: &[f64], a: u32, b: u32) -> bool {
    let (x, y) = (activity[a as usize], activity[b as usize]);
    x > y || (x == y && a < b)
}

/// The decision order: a binary heap of variables under [`precedes`],
/// holding every unassigned variable (and possibly some assigned ones,
/// which [`Solver::decide`] discards as it meets them). Its top is
/// therefore exactly the variable a scan of all unassigned variables
/// for the highest activity, lowest index first, would pick.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// `pos[v]`: `v`'s index in `heap`, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
}

impl VarOrder {
    /// Make room for a new variable and insert it.
    fn push_var(&mut self, activity: &[f64]) {
        let v = u32::try_from(self.pos.len()).expect("variable count fits u32");
        self.pos.push(NOT_IN_HEAP);
        self.insert(v, activity);
    }

    /// Insert `v` unless it is already in the heap.
    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.pos[v as usize] != NOT_IN_HEAP {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// `v`'s activity grew: restore the heap above it.
    fn increased(&mut self, v: u32, activity: &[f64]) {
        let at = self.pos[v as usize];
        if at != NOT_IN_HEAP {
            self.sift_up(at as usize, activity);
        }
    }

    /// Remove and return the first variable in decision order.
    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-establish the heap after every activity changed at once.
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !precedes(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && precedes(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !precedes(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// The DPLL(T) solver. See the crate docs for the architecture.
#[derive(Debug, Default)]
pub struct Solver {
    // --- boolean state ---
    /// Per-variable assignment: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<u8>,
    /// Saved phase for each variable (phase saving across restarts).
    phase: Vec<bool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause index for each propagated variable.
    reason: Vec<Option<u32>>,
    /// VSIDS-style activity, decayed multiplicatively on conflict.
    activity: Vec<f64>,
    /// Decision order over `activity`.
    order: VarOrder,
    clauses: Vec<Clause>,
    /// `watches[lit.code()]`: clause indices watching `lit`.
    watches: Vec<Vec<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Set at level 0 when the instance is contradictory regardless of
    /// search (empty clause, or level-0 propagation conflict).
    root_unsat: bool,
    var_inc: f64,

    // --- theory state ---
    /// Edges for each boolean var that is a theory atom: the constraint
    /// activated when the var is true, and when it is false.
    atom: Vec<Option<(Edge, Edge)>>,
    /// Whether the var's edge is currently in the graph.
    atom_active: Vec<bool>,
    /// Potential function: a feasible solution of the active constraints.
    potential: Vec<i64>,
    /// `out[v]`: active edge ids leaving `v` (edge `from == v`).
    out: Vec<Vec<u32>>,
    edges: Vec<Edge>,

    // --- buffers reused across calls, cleared after each use ---
    /// Relaxation wave: the edge that last lowered each difference
    /// variable's potential (`None` outside a wave).
    parent: Vec<Option<u32>>,
    /// Relaxation wave: every potential it lowered, with the old value.
    undo: Vec<(usize, i64)>,
    /// Relaxation wave: variables whose out-edges are still to scan.
    queue: VecDeque<usize>,
    /// Conflict analysis: variables of the clause being resolved
    /// (all false outside `analyze`).
    seen: Vec<bool>,

    /// Search statistics for the most recent `solve`.
    pub stats: Stats,
}

impl Solver {
    /// An empty instance.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// A fresh boolean variable.
    pub fn new_bool(&mut self) -> BVar {
        let v = BVar(u32::try_from(self.assign.len()).expect("variable count fits u32"));
        self.assign.push(UNASSIGNED);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.order.push_var(&self.activity);
        self.seen.push(false);
        self.atom.push(None);
        self.atom_active.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// A fresh difference variable.
    pub fn new_tvar(&mut self) -> TVar {
        let t = TVar(u32::try_from(self.potential.len()).expect("tvar count fits u32"));
        self.potential.push(0);
        self.out.push(Vec::new());
        self.parent.push(None);
        t
    }

    /// The literal of a fresh atom asserting `a - b <= c`. Its negation
    /// asserts `b - a <= -c - 1` (integer tightening of `a - b > c`).
    pub fn diff_leq(&mut self, a: TVar, b: TVar, c: i64) -> Lit {
        let v = self.new_bool();
        let pos = Edge {
            from: b.0,
            to: a.0,
            weight: c,
            lit: Lit::pos(v),
        };
        let neg = Edge {
            from: a.0,
            to: b.0,
            weight: -c - 1,
            lit: Lit::neg(v),
        };
        self.atom[v.0 as usize] = Some((pos, neg));
        Lit::pos(v)
    }

    /// Assert `a - b <= c` unconditionally.
    pub fn assert_diff(&mut self, a: TVar, b: TVar, c: i64) {
        let l = self.diff_leq(a, b, c);
        self.add_clause(&[l]);
    }

    fn value(&self, l: Lit) -> u8 {
        match self.assign[l.var().0 as usize] {
            UNASSIGNED => UNASSIGNED,
            v => v ^ u8::from(l.is_neg()),
        }
    }

    /// Add a clause (a disjunction of literals). Duplicates are removed;
    /// tautologies are dropped; the empty clause marks the instance
    /// unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added before solve()"
        );
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        if ls.windows(2).any(|w| w[0] == !w[1]) {
            return; // tautology
        }
        // Drop literals already false at level 0; satisfied clauses vanish.
        ls.retain(|&l| self.value(l) != 0);
        if lits.iter().any(|&l| self.value(l) == 1) {
            return;
        }
        match ls.len() {
            0 => self.root_unsat = true,
            1 => {
                if !self.enqueue(ls[0], None) {
                    self.root_unsat = true;
                }
            }
            _ => {
                let idx = u32::try_from(self.clauses.len()).expect("clause count fits u32");
                self.watches[ls[0].code()].push(idx);
                self.watches[ls[1].code()].push(idx);
                self.clauses.push(Clause { lits: ls });
            }
        }
    }

    /// Install a learned clause (already first-UIP ordered: `lits[0]` is
    /// the asserting literal, `lits[1]` a literal of the backjump level).
    fn learn(&mut self, lits: Vec<Lit>) -> Option<u32> {
        if lits.len() == 1 {
            return None;
        }
        let idx = u32::try_from(self.clauses.len()).expect("clause count fits u32");
        self.watches[lits[0].code()].push(idx);
        self.watches[lits[1].code()].push(idx);
        self.clauses.push(Clause { lits });
        Some(idx)
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("decision level fits u32")
    }

    /// Put `l` on the trail as true. Returns false on immediate conflict
    /// (already assigned false).
    fn enqueue(&mut self, l: Lit, reason: Option<u32>) -> bool {
        match self.value(l) {
            0 => false,
            1 => true,
            _ => {
                let v = l.var().0 as usize;
                self.assign[v] = u8::from(!l.is_neg());
                self.phase[v] = !l.is_neg();
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagate to fixpoint. Returns the conflicting clause index, if any.
    /// Each newly true literal is also handed to the theory; a negative
    /// cycle becomes a learned clause that is returned as the conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // Theory activation first: it is cheap and catches infeasible
            // atom sets as early as possible.
            if let Some(cycle) = self.theory_assign(l) {
                self.stats.theory_conflicts += 1;
                let lits: Vec<Lit> = cycle.into_iter().map(|e| !e).collect();
                // The cycle's atoms are all true, so the learned clause is
                // all-false: a proper conflicting clause. A self-loop can
                // make it unit; resolve it through analyze() regardless by
                // installing it (unit clauses conflict at this level too).
                let idx = u32::try_from(self.clauses.len()).expect("clause count fits u32");
                if lits.len() >= 2 {
                    self.watches[lits[0].code()].push(idx);
                    self.watches[lits[1].code()].push(idx);
                } else {
                    // Unit learned clause: watch the literal twice so the
                    // watch invariant holds structurally.
                    self.watches[lits[0].code()].push(idx);
                    self.watches[lits[0].code()].push(idx);
                }
                self.clauses.push(Clause { lits });
                return Some(idx);
            }

            // Boolean propagation: visit clauses watching !l.
            let false_lit = !l;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let ci = ws[i];
                if self.clauses[ci as usize].lits.len() == 1 {
                    // A unit learned clause (theory cycle of one atom)
                    // whose literal just became false: direct conflict.
                    self.watches[false_lit.code()] = ws;
                    return Some(ci);
                }
                // Normalize: the false literal in position 1.
                if self.clauses[ci as usize].lits[0] == false_lit {
                    self.clauses[ci as usize].lits.swap(0, 1);
                }
                let other = self.clauses[ci as usize].lits[0];
                if self.value(other) == 1 {
                    i += 1;
                    continue; // satisfied by the other watch
                }
                // Find a new literal to watch.
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.value(lk) != 0 {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[lk.code()].push(ci);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // Unit or conflicting.
                let first = other;
                if !self.enqueue(first, Some(ci)) {
                    self.watches[false_lit.code()] = ws;
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    // ----- difference-logic theory -----

    /// Activate the constraint carried by newly-true literal `l`, if it is
    /// a theory atom. Returns the literals of a negative cycle on
    /// infeasibility (the atom set is contradictory).
    fn theory_assign(&mut self, l: Lit) -> Option<Vec<Lit>> {
        let v = l.var().0 as usize;
        let (pos, neg) = self.atom[v]?;
        let e = if l.is_neg() { neg } else { pos };
        debug_assert!(!self.atom_active[v]);

        // Fast path: the feasible potential already satisfies the new
        // constraint `x_to - x_from <= w`, i.e. pi(to) <= pi(from) + w.
        let (u, w, wt) = (e.from as usize, e.to as usize, e.weight);
        if self.potential[w] <= self.potential[u] + wt {
            self.activate(v, e);
            return None;
        }

        // Repair the potential by relaxation from `to`. All other active
        // constraints are satisfied by `potential`, so any negative cycle
        // must pass through `e`; it reveals itself when the relaxation
        // wave reaches `from` and re-violates `e` (Cotton & Maler's
        // incremental check). `undo` records every touched potential so a
        // conflict can roll the repair back (an aborted wave may leave
        // constraints out of `e`'s cycle violated).
        debug_assert!(self.undo.is_empty() && self.queue.is_empty());
        self.undo.push((w, self.potential[w]));
        self.potential[w] = self.potential[u] + wt;
        self.queue.push_back(w);
        while let Some(x) = self.queue.pop_front() {
            if x == u && self.potential[w] > self.potential[u] + wt {
                // The wave lowered pi(from) enough to re-violate `e`:
                // negative cycle = parent chain from `from` back to `to`,
                // closed by `e`.
                let mut cycle = vec![e.lit];
                let mut n = u;
                while n != w {
                    let g =
                        self.edges[self.parent[n].expect("relaxed nodes have parents") as usize];
                    cycle.push(g.lit);
                    n = g.from as usize;
                }
                while let Some((node, old)) = self.undo.pop() {
                    self.potential[node] = old;
                    self.parent[node] = None;
                }
                self.queue.clear();
                cycle.dedup();
                return Some(cycle);
            }
            for gi in 0..self.out[x].len() {
                let g = self.edges[self.out[x][gi] as usize];
                let y = g.to as usize;
                if self.potential[y] > self.potential[x] + g.weight {
                    self.undo.push((y, self.potential[y]));
                    self.potential[y] = self.potential[x] + g.weight;
                    self.parent[y] = Some(self.out[x][gi]);
                    self.queue.push_back(y);
                }
            }
        }
        for (node, _) in self.undo.drain(..) {
            self.parent[node] = None;
        }
        self.activate(v, e);
        None
    }

    fn activate(&mut self, var: usize, e: Edge) {
        let id = u32::try_from(self.edges.len()).expect("edge count fits u32");
        self.edges.push(e);
        self.out[e.from as usize].push(id);
        self.atom_active[var] = true;
    }

    /// Deactivate `var`'s edge if it was activated. Edges deactivate in
    /// exact reverse activation order (the trail unwinds LIFO), so the
    /// active edge is the last entry of both `edges` and its `out` list.
    fn theory_unassign(&mut self, var: usize) {
        if !self.atom_active[var] {
            return;
        }
        self.atom_active[var] = false;
        let e = self.edges.pop().expect("active edge");
        let popped = self.out[e.from as usize].pop();
        debug_assert_eq!(popped, Some(u32::try_from(self.edges.len()).unwrap()));
        // `potential` stays: removing constraints cannot break feasibility.
    }

    // ----- conflict analysis -----

    fn bump(&mut self, v: BVar) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rescaling keeps the order of unequal activities but can
            // round two of them to one value, which the index tie-break
            // then decides: rebuild rather than sift.
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v.0, &self.activity);
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = conflict;
        let mut idx = self.trail.len();
        let cur = self.decision_level();

        loop {
            for k in 0..self.clauses[ci as usize].lits.len() {
                let q = self.clauses[ci as usize].lits[k];
                if p == Some(q) {
                    continue;
                }
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] >= cur {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the most recent seen literal on the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().0 as usize] {
                    break;
                }
            }
            let l = self.trail[idx];
            let v = l.var().0 as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(l);
                break;
            }
            ci = self.reason[v].expect("non-decision literals have reasons");
            p = Some(l);
        }

        // Every current-level mark was cleared on the walk back; clear the
        // lower-level ones the learned clause keeps.
        for l in &learnt {
            self.seen[l.var().0 as usize] = false;
        }
        let uip = !p.expect("first UIP exists");
        let mut lits = vec![uip];
        lits.extend(learnt);
        // Backjump level: the highest level among the non-UIP literals.
        let mut bt = 0;
        let mut at = 1;
        for (k, &l) in lits.iter().enumerate().skip(1) {
            let lv = self.level[l.var().0 as usize];
            if lv > bt {
                bt = lv;
                at = k;
            }
        }
        if lits.len() > 1 {
            lits.swap(1, at);
        }
        (lits, bt)
    }

    fn backtrack(&mut self, to_level: u32) {
        while self.decision_level() > to_level {
            let lim = self.trail_lim.pop().expect("level to pop");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail entry");
                let v = l.var().0 as usize;
                self.theory_unassign(v);
                self.assign[v] = UNASSIGNED;
                self.reason[v] = None;
                self.order.insert(l.var().0, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    /// Deterministic decision: the unassigned variable with the highest
    /// activity (ties broken by lowest index), at its saved phase. The
    /// heap yields it in `O(log n)`; assigned variables met on the way
    /// leave the heap until backtracking unassigns them.
    fn decide(&mut self) -> Option<Lit> {
        let best = loop {
            match self.order.pop(&self.activity) {
                Some(v) if self.assign[v as usize] != UNASSIGNED => {}
                pick => break pick.map(|v| v as usize),
            }
        };
        debug_assert_eq!(best, self.decide_by_scan(), "heap and scan disagree");
        best.map(|v| {
            let var = BVar(u32::try_from(v).expect("fits"));
            if self.phase[v] {
                Lit::pos(var)
            } else {
                Lit::neg(var)
            }
        })
    }

    /// The decision rule as a scan over every variable: the reference
    /// that debug builds hold each heap pick to.
    fn decide_by_scan(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v] == UNASSIGNED
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    /// Luby restart sequence: 1 1 2 1 1 2 4 ...
    fn luby(mut i: u64) -> u64 {
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i + 1 {
                k += 1;
            }
            if (1u64 << k) - 1 == i + 1 {
                return 1 << (k - 1);
            }
            i -= (1 << (k - 1)) - 1;
        }
    }

    /// Solve the instance under `budget`.
    ///
    /// # Panics
    ///
    /// Panics if a produced model fails self-verification (a solver bug —
    /// never the caller's fault).
    pub fn solve(&mut self, budget: Budget) -> Outcome {
        self.stats = Stats::default();
        if self.root_unsat {
            return Outcome::Unsat;
        }
        let mut restart_no = 0u64;
        let mut conflicts_left = 64 * Self::luby(restart_no);

        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    return Outcome::Unsat;
                }
                if self.stats.conflicts >= budget.max_conflicts {
                    return Outcome::Unknown;
                }
                let (lits, bt) = self.analyze(conflict);
                self.backtrack(bt);
                let asserting = lits[0];
                let reason = self.learn(lits);
                let ok = self.enqueue(asserting, reason);
                debug_assert!(ok, "asserting literal must be enqueueable");
                self.var_inc /= 0.95;
                if conflicts_left == 0 {
                    self.stats.restarts += 1;
                    restart_no += 1;
                    conflicts_left = 64 * Self::luby(restart_no);
                    self.backtrack(0);
                } else {
                    conflicts_left -= 1;
                }
            } else {
                match self.decide() {
                    None => {
                        let model = self.extract_model();
                        self.check_model(&model);
                        return Outcome::Sat(model);
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, None);
                        debug_assert!(ok, "decision variable was unassigned");
                    }
                }
            }
        }
    }

    fn extract_model(&self) -> Model {
        // The potential is a feasible solution of exactly the active
        // constraints: for `a - b <= c` (edge b -> a weight c) it holds
        // that pi(a) <= pi(b) + c. Anchor nothing; values are already
        // near zero because relaxation starts from zero.
        Model {
            bools: self.assign.iter().map(|&a| a == 1).collect(),
            times: self.potential.clone(),
        }
    }

    /// Self-check: every clause must contain a true literal and every
    /// assigned atom's constraint must hold on the difference values.
    fn check_model(&self, m: &Model) {
        for c in &self.clauses {
            assert!(
                c.lits.iter().any(|&l| m.lit(l)),
                "model check failed: clause {:?} unsatisfied",
                c.lits
            );
        }
        for (v, atom) in self.atom.iter().enumerate() {
            let Some((pos, neg)) = atom else { continue };
            let e = if m.bools[v] { pos } else { neg };
            assert!(
                m.times[e.to as usize] - m.times[e.from as usize] <= e.weight,
                "model check failed: atom b{v} ({} - {} <= {}) violated",
                e.to,
                e.from,
                e.weight
            );
        }
    }

    /// Number of boolean variables (atoms included).
    pub fn num_bools(&self) -> usize {
        self.assign.len()
    }

    /// Number of difference variables.
    pub fn num_tvars(&self) -> usize {
        self.potential.len()
    }

    /// Number of clauses currently in the database (learned included).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_bool();
        let b = s.new_bool();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a)]);
        let Outcome::Sat(m) = s.solve(Budget::default()) else {
            panic!("expected sat");
        };
        assert!(!m.bool(a) && m.bool(b));

        let mut s = Solver::new();
        let a = s.new_bool();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        assert!(matches!(s.solve(Budget::default()), Outcome::Unsat));
    }

    #[test]
    fn difference_chain_feasible() {
        let mut s = Solver::new();
        let ts: Vec<TVar> = (0..5).map(|_| s.new_tvar()).collect();
        for w in ts.windows(2) {
            // successor at least 2 later: t[i] - t[i+1] <= -2
            s.assert_diff(w[0], w[1], -2);
        }
        let Outcome::Sat(m) = s.solve(Budget::default()) else {
            panic!("expected sat");
        };
        for w in ts.windows(2) {
            assert!(m.time(w[1]) >= m.time(w[0]) + 2);
        }
    }

    #[test]
    fn negative_cycle_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_tvar();
        let b = s.new_tvar();
        s.assert_diff(a, b, -1);
        s.assert_diff(b, a, -1); // a < b and b < a
        assert!(matches!(s.solve(Budget::default()), Outcome::Unsat));
    }

    #[test]
    fn theory_conflict_drives_boolean_search() {
        // Two atoms that are individually fine but jointly cyclic; a
        // clause forces at least one, both being true is contradictory,
        // so the solver must find the one-of-each assignments.
        let mut s = Solver::new();
        let a = s.new_tvar();
        let b = s.new_tvar();
        let x = s.diff_leq(a, b, -3);
        let y = s.diff_leq(b, a, -3);
        s.add_clause(&[x, y]);
        let Outcome::Sat(m) = s.solve(Budget::default()) else {
            panic!("expected sat");
        };
        assert!(m.lit(x) ^ m.lit(y), "exactly one direction can hold");
    }

    #[test]
    fn all_different_sorts_a_permutation() {
        // 4 slots in [0, 3], pairwise distinct: a Latin-square-flavoured
        // instance where every clause is a disjunction of two atoms.
        let mut s = Solver::new();
        let zero = s.new_tvar();
        let ts: Vec<TVar> = (0..4).map(|_| s.new_tvar()).collect();
        for &t in &ts {
            s.assert_diff(t, zero, 3);
            s.assert_diff(zero, t, 0);
        }
        for i in 0..ts.len() {
            for j in i + 1..ts.len() {
                let lt = s.diff_leq(ts[i], ts[j], -1);
                let gt = s.diff_leq(ts[j], ts[i], -1);
                s.add_clause(&[lt, gt]);
            }
        }
        let Outcome::Sat(m) = s.solve(Budget::default()) else {
            panic!("expected sat");
        };
        let mut vals: Vec<i64> = ts.iter().map(|&t| m.time(t) - m.time(zero)).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unknown_on_exhausted_budget() {
        // Pigeonhole 5 into 4: hard for resolution, guaranteed to blow a
        // 4-conflict budget.
        let mut s = Solver::new();
        let holes = 4;
        let pigeons = 5;
        let var = |s: &mut Solver, grid: &mut Vec<Vec<BVar>>, p: usize, h: usize| {
            while grid.len() <= p {
                grid.push(Vec::new());
            }
            while grid[p].len() <= h {
                let v = s.new_bool();
                grid[p].push(v);
            }
            grid[p][h]
        };
        let mut grid: Vec<Vec<BVar>> = Vec::new();
        for p in 0..pigeons {
            let c: Vec<Lit> = (0..holes)
                .map(|h| Lit::pos(var(&mut s, &mut grid, p, h)))
                .collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    let a = var(&mut s, &mut grid, p1, h);
                    let b = var(&mut s, &mut grid, p2, h);
                    s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
        assert!(matches!(s.solve(Budget::conflicts(4)), Outcome::Unknown));
        // And with a real budget it is proven unsat.
        let mut s2 = Solver::new();
        let mut grid: Vec<Vec<BVar>> = Vec::new();
        for p in 0..pigeons {
            let c: Vec<Lit> = (0..holes)
                .map(|h| Lit::pos(var(&mut s2, &mut grid, p, h)))
                .collect();
            s2.add_clause(&c);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    let a = var(&mut s2, &mut grid, p1, h);
                    let b = var(&mut s2, &mut grid, p2, h);
                    s2.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
        assert!(matches!(s2.solve(Budget::default()), Outcome::Unsat));
    }

    #[test]
    fn rescaling_ties_fall_back_to_index_order() {
        let mut s = Solver::new();
        for _ in 0..8 {
            s.new_bool();
        }
        for (v, inc) in [(6, 3e-300), (2, 1e-300), (4, 1.0), (5, 2e100)] {
            s.var_inc = inc;
            s.bump(BVar(v));
        }
        // The last bump rescaled by 1e-100: 5 and 4 keep their lead, and
        // 6 and 2 round to 0 with everything else, so index order decides.
        let popped: Vec<u32> = std::iter::from_fn(|| s.order.pop(&s.activity)).collect();
        assert_eq!(popped, [5, 4, 0, 1, 2, 3, 6, 7]);
    }

    #[test]
    fn determinism_same_stats_twice() {
        let build = || {
            let mut s = Solver::new();
            let ts: Vec<TVar> = (0..6).map(|_| s.new_tvar()).collect();
            for i in 0..ts.len() {
                for j in i + 1..ts.len() {
                    let lt = s.diff_leq(ts[i], ts[j], -1);
                    let gt = s.diff_leq(ts[j], ts[i], -1);
                    s.add_clause(&[lt, gt]);
                }
            }
            let zero = ts[0];
            for &t in &ts[1..] {
                s.assert_diff(t, zero, 4);
                s.assert_diff(zero, t, 0);
            }
            s
        };
        let mut a = build();
        let mut b = build();
        let ra = a.solve(Budget::default());
        let rb = b.solve(Budget::default());
        assert_eq!(a.stats, b.stats);
        match (ra, rb) {
            (Outcome::Sat(ma), Outcome::Sat(mb)) => {
                assert_eq!(ma.bools, mb.bools);
                assert_eq!(ma.times, mb.times);
            }
            (Outcome::Unsat, Outcome::Unsat) | (Outcome::Unknown, Outcome::Unknown) => {}
            _ => panic!("verdicts differ between identical runs"),
        }
    }
}
