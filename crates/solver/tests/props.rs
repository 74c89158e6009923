//! Property tests for `wm-solver` (ISSUE 10 satellite).
//!
//! Two independent oracles keep the solver honest:
//!
//! * every `Sat` model is replayed here — outside the solver's own
//!   self-check — against every clause and every asserted difference
//!   constraint of the generated instance;
//! * every `Unsat` verdict on a small random instance is cross-checked by
//!   brute force: enumerate all boolean assignments, and for each one
//!   that satisfies the clauses run Bellman–Ford over the implied
//!   difference-constraint graph to look for a feasible solution.
//!
//! Instances deliberately include self-loop atoms (`a - a <= c`), which
//! exercise the unit theory-conflict path, and pure boolean variables
//! mixed with theory atoms.
//!
//! A third check pins the search itself: fixed probes shaped like the
//! modulo scheduler's must take exactly the recorded number of
//! decisions, conflicts and propagations and return the recorded model.

use proptest::collection::vec;
use proptest::prelude::*;
use wm_solver::{BVar, Budget, Lit, Outcome, Solver, TVar};

/// Number of time variables per generated instance.
const NT: u32 = 4;
/// Number of pure (non-atom) boolean variables per instance.
const NPURE: usize = 2;

/// A generated instance, in solver-independent form.
#[derive(Debug, Clone)]
struct Instance {
    /// Theory atoms `a - b <= c` (indices into the `NT` time variables).
    atoms: Vec<(u32, u32, i64)>,
    /// Clauses over the variable pool (atom vars first, then pure vars);
    /// each literal is (pool index, negated).
    clauses: Vec<Vec<(u32, bool)>>,
    /// Unconditional `a - b <= c` assertions.
    asserts: Vec<(u32, u32, i64)>,
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        vec((0u32..NT, 0u32..NT, -3i64..4), 1..=4usize),
        vec(vec((0u32..64, any::<bool>()), 1..=3usize), 1..=6usize),
        vec((0u32..NT, 0u32..NT, -2i64..4), 0..=3usize),
    )
        .prop_map(|(atoms, clauses, asserts)| Instance {
            atoms,
            clauses,
            asserts,
        })
}

/// Build a solver for `inst`; returns the solver, the literal pool
/// (one positive literal per atom, then per pure boolean), and the time
/// variables.
fn build(inst: &Instance) -> (Solver, Vec<Lit>, Vec<TVar>) {
    let mut s = Solver::new();
    let ts: Vec<_> = (0..NT).map(|_| s.new_tvar()).collect();
    let mut pool = Vec::new();
    for &(a, b, c) in &inst.atoms {
        pool.push(s.diff_leq(ts[a as usize], ts[b as usize], c));
    }
    for _ in 0..NPURE {
        pool.push(Lit::pos(s.new_bool()));
    }
    for clause in &inst.clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(i, neg)| {
                let l = pool[i as usize % pool.len()];
                if neg {
                    !l
                } else {
                    l
                }
            })
            .collect();
        s.add_clause(&lits);
    }
    for &(a, b, c) in &inst.asserts {
        s.assert_diff(ts[a as usize], ts[b as usize], c);
    }
    (s, pool, ts)
}

/// The edges implied by a full boolean assignment over the pool: a true
/// atom contributes `a - b <= c`, a false one the integer negation
/// `b - a <= -c - 1`; unconditional asserts always apply.
fn implied_edges(inst: &Instance, assignment: u32) -> Vec<(u32, u32, i64)> {
    let mut edges = Vec::new();
    for (i, &(a, b, c)) in inst.atoms.iter().enumerate() {
        if assignment >> i & 1 == 1 {
            edges.push((a, b, c));
        } else {
            edges.push((b, a, -c - 1));
        }
    }
    edges.extend_from_slice(&inst.asserts);
    edges
}

/// Bellman–Ford feasibility of a conjunction of `a - b <= c` constraints
/// (virtual-source trick: all distances start at 0).
fn diff_feasible(edges: &[(u32, u32, i64)]) -> bool {
    let mut dist = [0i64; NT as usize];
    for _ in 0..NT {
        let mut changed = false;
        for &(a, b, c) in edges {
            // a - b <= c: dist[a] <= dist[b] + c
            if dist[b as usize] + c < dist[a as usize] {
                dist[a as usize] = dist[b as usize] + c;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
    }
    // One more round: any further relaxation proves a negative cycle.
    for &(a, b, c) in edges {
        if dist[b as usize] + c < dist[a as usize] {
            return false;
        }
    }
    true
}

/// Brute-force satisfiability of the whole instance.
fn brute_force_sat(inst: &Instance) -> bool {
    let nvars = inst.atoms.len() + NPURE;
    'outer: for assignment in 0..1u32 << nvars {
        for clause in &inst.clauses {
            let sat = clause.iter().any(|&(i, neg)| {
                let v = i as usize % nvars;
                (assignment >> v & 1 == 1) != neg
            });
            if !sat {
                continue 'outer;
            }
        }
        if diff_feasible(&implied_edges(inst, assignment)) {
            return true;
        }
    }
    false
}

proptest! {
    /// Every `Sat` model, replayed externally, satisfies every clause and
    /// every asserted difference constraint.
    #[test]
    fn sat_models_replay_against_all_constraints(inst in instance()) {
        let (mut s, pool, ts) = build(&inst);
        let out = s.solve(Budget::default());
        prop_assert!(!matches!(out, Outcome::Unknown), "tiny instance exhausted budget");
        if let Outcome::Sat(m) = out {
            // Atom semantics: the model's boolean value of each atom must
            // agree with the times it reports.
            for (i, &(a, b, c)) in inst.atoms.iter().enumerate() {
                let (ta, tb) = (m.time(ts[a as usize]), m.time(ts[b as usize]));
                if m.lit(pool[i]) {
                    prop_assert!(ta - tb <= c, "true atom {i} violated: {ta} - {tb} > {c}");
                } else {
                    prop_assert!(tb - ta < -c, "false atom {i} violated");
                }
            }
            // Clause replay.
            for (ci, clause) in inst.clauses.iter().enumerate() {
                let ok = clause.iter().any(|&(i, neg)| {
                    let l = pool[i as usize % pool.len()];
                    m.lit(if neg { !l } else { l })
                });
                prop_assert!(ok, "clause {ci} not satisfied by model");
            }
            // Unconditional asserts.
            for &(a, b, c) in &inst.asserts {
                let (ta, tb) = (m.time(ts[a as usize]), m.time(ts[b as usize]));
                prop_assert!(ta - tb <= c, "asserted diff violated: {ta} - {tb} > {c}");
            }
        }
    }

    /// The solver's verdict matches brute-force enumeration exactly.
    #[test]
    fn verdicts_cross_checked_by_enumeration(inst in instance()) {
        let (mut s, _, _) = build(&inst);
        let out = s.solve(Budget::default());
        let expect = brute_force_sat(&inst);
        match out {
            Outcome::Sat(_) => prop_assert!(expect, "solver Sat, brute force Unsat"),
            Outcome::Unsat => prop_assert!(!expect, "solver Unsat, brute force Sat"),
            Outcome::Unknown => prop_assert!(false, "tiny instance exhausted budget"),
        }
    }

    /// Runs are pure functions of the instance: outcome, model, and
    /// search statistics all repeat exactly.
    #[test]
    fn runs_are_deterministic(inst in instance()) {
        let (mut s1, _, ts) = build(&inst);
        let (mut s2, _, _) = build(&inst);
        let o1 = s1.solve(Budget::default());
        let o2 = s2.solve(Budget::default());
        prop_assert_eq!(s1.stats.decisions, s2.stats.decisions);
        prop_assert_eq!(s1.stats.conflicts, s2.stats.conflicts);
        prop_assert_eq!(s1.stats.propagations, s2.stats.propagations);
        match (o1, o2) {
            (Outcome::Sat(m1), Outcome::Sat(m2)) => {
                for &t in &ts {
                    prop_assert_eq!(m1.time(t), m2.time(t));
                }
            }
            (Outcome::Unsat, Outcome::Unsat) | (Outcome::Unknown, Outcome::Unknown) => {}
            _ => prop_assert!(false, "outcomes diverged between identical runs"),
        }
    }
}

/// A dependence `from → to` of a loop body: `t_to + II·dist ≥ t_from + lat`.
struct Dep {
    from: usize,
    to: usize,
    lat: i64,
    dist: i64,
}

/// The dependences of an `m`-instruction body: register chains of
/// latency 2, load-to-pop pairs of latency 6 four slots apart, and one
/// loop-carried recurrence.
fn body_deps(m: usize) -> Vec<Dep> {
    let mut deps = Vec::new();
    for i in 0..m - 1 {
        if i % 3 != 2 {
            deps.push(Dep {
                from: i,
                to: i + 1,
                lat: 2,
                dist: 0,
            });
        }
    }
    for i in (1..m - 4).step_by(4) {
        deps.push(Dep {
            from: i,
            to: i + 4,
            lat: 6,
            dist: 0,
        });
    }
    deps.push(Dep {
        from: m - 1,
        to: m / 2,
        lat: 2,
        dist: 1,
    });
    deps
}

/// One probe of the modulo scheduler at `II = m`, encoded as
/// `wm_opt::modulo::solve_ii` encodes it: a row in `[0, II)` and a stage
/// boolean per instruction, each dependence as stage-guarded difference
/// atoms, all rows pairwise distinct, and some instruction in stage 0.
fn modulo_probe(m: usize) -> (Solver, Vec<TVar>, Vec<BVar>) {
    let ii = m as i64;
    let mut s = Solver::new();
    let zero = s.new_tvar();
    let rows: Vec<TVar> = (0..m).map(|_| s.new_tvar()).collect();
    let stages: Vec<_> = (0..m).map(|_| s.new_bool()).collect();
    for &r in &rows {
        s.assert_diff(r, zero, ii - 1);
        s.assert_diff(zero, r, 0);
    }
    let not_in = |i: usize, a: i64| {
        if a == 0 {
            Lit::pos(stages[i])
        } else {
            Lit::neg(stages[i])
        }
    };
    for d in body_deps(m) {
        for a in 0..2 {
            for b in 0..2 {
                let c = ii * (d.dist + b - a) - d.lat;
                if c >= ii - 1 {
                    continue;
                }
                if c < -(ii - 1) {
                    s.add_clause(&[not_in(d.from, a), not_in(d.to, b)]);
                } else {
                    let diff = s.diff_leq(rows[d.from], rows[d.to], c);
                    s.add_clause(&[not_in(d.from, a), not_in(d.to, b), diff]);
                }
            }
        }
    }
    for i in 0..m {
        for j in i + 1..m {
            let a = s.diff_leq(rows[i], rows[j], -1);
            let b = s.diff_leq(rows[j], rows[i], -1);
            s.add_clause(&[a, b]);
        }
    }
    let anchor: Vec<Lit> = stages.iter().map(|&b| Lit::neg(b)).collect();
    s.add_clause(&anchor);
    let mut times = vec![zero];
    times.extend(rows);
    (s, times, stages)
}

/// The solver's search is pinned, not only its verdict: any change to
/// the decision order, to conflict analysis or to the theory's relaxation
/// moves these counts even where the schedule survives. Each row is
/// `(m, [decisions, conflicts, theory_conflicts, propagations, restarts],
/// the model's times (zero, then rows), its stages)`.
#[test]
fn modulo_probes_pin_the_search() {
    const EXPECTED: [(usize, [u64; 5], &str, &str); 3] = [
        (
            8,
            [339, 25, 25, 600, 0],
            "-11 -8 -6 -4 -11 -9 -7 -10 -5",
            "00000100",
        ),
        (
            16,
            [4748, 116, 116, 7943, 1],
            "-48 -47 -45 -34 -48 -46 -39 -44 -42 -40 -33 -43 -35 -41 -38 -36 -37",
            "0000000000110110",
        ),
        (
            24,
            [21191, 233, 233, 34553, 2],
            "-66 -65 -63 -55 -66 -59 -57 -58 -48 -46 -51 -49 -44 -47 -45 -43 -64 -62 -60 -61 \
             -56 -53 -54 -52 -50",
            "000000000000000001000111",
        ),
    ];
    let mut first_difference = None;
    let mut table = String::new();
    for (m, stats, times, stages) in EXPECTED {
        let (mut s, tvars, bvars) = modulo_probe(m);
        let Outcome::Sat(model) = s.solve(Budget::default()) else {
            panic!("m = {m}: the probe is satisfiable");
        };
        let st = s.stats;
        let got_stats = [
            st.decisions,
            st.conflicts,
            st.theory_conflicts,
            st.propagations,
            st.restarts,
        ];
        let got_times: Vec<String> = tvars.iter().map(|&t| model.time(t).to_string()).collect();
        let got_times = got_times.join(" ");
        let got_stages: String = bvars
            .iter()
            .map(|&b| if model.bool(b) { '1' } else { '0' })
            .collect();
        if (got_stats, got_times.as_str(), got_stages.as_str()) != (stats, times, stages) {
            first_difference.get_or_insert(m);
        }
        table += &format!("({m}, {got_stats:?}, \"{got_times}\", \"{got_stages}\"),\n");
    }
    if let Some(m) = first_difference {
        panic!("the search differs first at m = {m}; this build's table:\n{table}");
    }
}
