//! The optimizer's fixpoint driver (`wm_opt::pipeline::Fixpoint`) over
//! every workload function at the levels the compile benchmark uses.
//!
//! The driver skips a phase whose last run changed nothing until the
//! function changes, which is sound only if every phase and every pass
//! sequenced between its loops reports exactly whether it changed the
//! function. These tests check those reports against a clone taken
//! before each call, check that no loop ends at the round cap, and
//! check the driver against a short reference that runs every phase
//! every round.

use wm_ir::Function;
use wm_opt::pipeline::{Phase, CLEANUP, COMBINE, MAX_ROUNDS};
use wm_opt::recurrence::optimize_recurrences;
use wm_opt::streaming::optimize_streams;
use wm_opt::vectorize::vectorize_maps;
use wm_opt::{modulo, optimize_generic, optimize_wm_with, phases, GlobalExtents, OptOptions};

/// Classical, recurrence, full and modulo (the compile benchmark's
/// levels, which it runs with the no-alias model), and full with the
/// vectorizer, each under both alias models.
fn levels() -> Vec<(String, OptOptions)> {
    let mut v = Vec::new();
    for base in [OptOptions::all(), OptOptions::all().assume_noalias()] {
        for name in ["classical", "recurrence", "full", "modulo"] {
            let mut o = base.clone();
            assert!(o.set_level(name));
            v.push((format!("{name} {:?}", o.alias), o));
        }
        let o = base.with_vectorization();
        v.push((format!("full+vectorize {:?}", o.alias), o));
    }
    v
}

/// Every workload function at every level, unoptimized, with its
/// module's global extents and a label for failure messages.
fn cases() -> Vec<(String, Function, OptOptions, GlobalExtents)> {
    let mut cases = Vec::new();
    for w in wm_workloads::all() {
        let module = wm_frontend::compile(w.source).expect("workload compiles");
        let extents = GlobalExtents::of_module(&module);
        for (level, o) in levels() {
            for f in &module.functions {
                let label = format!("{} {} {level}", w.name, f.name);
                cases.push((label, f.clone(), o.clone(), extents.clone()));
            }
        }
    }
    cases
}

/// The pipeline as `optimize_generic`, `expand_wm` and `optimize_wm_with`
/// sequence it, with every fixpoint loop running every phase every round
/// (no skipping). With `check`, every phase and sequenced pass must
/// report a change exactly when the function differs from a clone taken
/// before it.
struct Reference<'a> {
    label: &'a str,
    check: bool,
    /// Cleanup rounds that changed something ([`wm_opt::OptStats::iterations`]).
    iterations: usize,
}

impl Reference<'_> {
    fn call(&self, name: &str, f: &mut Function, pass: impl FnOnce(&mut Function) -> bool) -> bool {
        if !self.check {
            return pass(f);
        }
        let before = f.clone();
        let changed = pass(f);
        assert_eq!(
            changed,
            *f != before,
            "{}: {name} reported changed = {changed}",
            self.label
        );
        changed
    }

    fn fixpoint(&self, f: &mut Function, phases: &[Phase]) -> usize {
        let mut rounds = 0;
        while rounds < MAX_ROUNDS {
            let mut changed = false;
            for &(name, phase) in phases {
                changed |= self.call(name, f, phase);
            }
            if !changed {
                break;
            }
            rounds += 1;
        }
        rounds
    }

    fn cleanup(&mut self, f: &mut Function, o: &OptOptions) {
        if o.classical {
            self.iterations += self.fixpoint(f, &CLEANUP);
        }
    }

    fn optimize(&mut self, f: &mut Function, o: &OptOptions, extents: &GlobalExtents) {
        // optimize_generic
        self.cleanup(f, o);
        if o.code_motion {
            self.call("hoist_invariants", f, phases::hoist_invariants);
            self.cleanup(f, o);
        }
        if o.recurrence {
            self.call("optimize_recurrences", f, |f| {
                optimize_recurrences(f, o.alias).loops_transformed > 0
            });
            self.cleanup(f, o);
        }
        wm_target::expand_wm(f);
        // optimize_wm_with
        if o.code_motion {
            self.call("hoist_invariants", f, phases::hoist_invariants);
        }
        self.cleanup(f, o);
        if o.classical {
            self.call(
                "eliminate_dead_load_pairs",
                f,
                phases::eliminate_dead_load_pairs,
            );
        }
        if o.vectorize {
            self.call("vectorize_maps", f, |f| {
                vectorize_maps(f, o.alias).loops_vectorized > 0
            });
            self.cleanup(f, o);
        }
        if o.streaming {
            self.call("optimize_streams", f, |f| {
                optimize_streams(f, o.alias, extents, o.speculative_streams).loops_streamed > 0
            });
            self.cleanup(f, o);
        }
        if o.dual_combine {
            self.fixpoint(f, if o.classical { &COMBINE } else { &COMBINE[..1] });
            self.cleanup(f, o);
        }
        if o.modulo {
            let _ = modulo::modulo_schedule(f, o.modulo_budget, o.modulo_mem_latency);
        }
    }
}

/// The real pipeline: the optimized function, its cleanup iterations and
/// its loops stopped at the cap.
fn pipeline(f: &Function, o: &OptOptions, extents: &GlobalExtents) -> (Function, usize, usize) {
    let mut f = f.clone();
    let generic = optimize_generic(&mut f, o);
    wm_target::expand_wm(&mut f);
    let wm = optimize_wm_with(&mut f, o, extents);
    (
        f,
        generic.iterations + wm.iterations,
        generic.capped + wm.capped,
    )
}

#[test]
fn every_phase_reports_exactly_whether_it_changed_the_function() {
    for (label, f, o, extents) in cases() {
        let mut f = f;
        let mut r = Reference {
            label: &label,
            check: true,
            iterations: 0,
        };
        r.optimize(&mut f, &o, &extents);
    }
}

#[test]
fn no_cleanup_stops_at_the_round_cap() {
    for (label, f, o, extents) in cases() {
        let (_, iterations, capped) = pipeline(&f, &o, &extents);
        assert_eq!(capped, 0, "{label}: {iterations} cleanup rounds");
    }
}

#[test]
fn skipping_idle_phases_matches_running_every_phase_every_round() {
    for (label, f, o, extents) in cases() {
        let (got, iterations, _) = pipeline(&f, &o, &extents);
        let mut want = f;
        let mut r = Reference {
            label: &label,
            check: false,
            iterations: 0,
        };
        r.optimize(&mut want, &o, &extents);
        assert_eq!(got, want, "{label}: function differs");
        assert_eq!(iterations, r.iterations, "{label}: iterations differ");
    }
}
