//! Host time per optimizer phase over the workload suite.
//!
//! Compiles every `wm_workloads::all()` program at the four levels the
//! compile benchmark uses (classical, recurrence, full, modulo; all with
//! the no-alias model), running the pipeline of `optimize_generic` and
//! `optimize_wm_with` phase by phase with a timer around each call, then
//! prints each phase's calls, total time, time per call and share of the
//! optimizer's time. Register allocation is timed too but kept out of
//! the share. Every function is checked against the real pipeline's
//! output, so the table describes exactly what the compiler runs.
//!
//! ```text
//! cargo run --release -p wm-opt --example phase_times
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use wm_ir::Function;
use wm_opt::recurrence::optimize_recurrences;
use wm_opt::{
    modulo, optimize_generic, optimize_wm_with, phases, vectorize, GlobalExtents, OptOptions,
};
use wm_target::TargetKind;

/// Same cap as the pipeline's `MAX_ROUNDS`.
const MAX_ROUNDS: usize = 12;

/// Passes over the suite; the table reports the mean per pass.
const PASSES: usize = 3;

#[derive(Default)]
struct Times(BTreeMap<&'static str, (u64, f64)>);

impl Times {
    fn run<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let e = self.0.entry(phase).or_default();
        e.0 += 1;
        e.1 += start.elapsed().as_secs_f64() * 1e3;
        out
    }
}

fn cleanup(f: &mut Function, t: &mut Times) {
    for _ in 0..MAX_ROUNDS {
        let mut changed = t.run("fold_constants", || phases::fold_constants(f));
        changed |= t.run("fold_constant_branches", || {
            phases::fold_constant_branches(f)
        });
        changed |= t.run("propagate_single_def_constants", || {
            phases::propagate_single_def_constants(f)
        });
        changed |= t.run("propagate_copies", || phases::propagate_copies(f));
        changed |= t.run("coalesce_copy_chains", || phases::coalesce_copy_chains(f));
        changed |= t.run("eliminate_common_subexpressions", || {
            phases::eliminate_common_subexpressions(f)
        });
        changed |= t.run("eliminate_dead_code", || phases::eliminate_dead_code(f));
        changed |= t.run("simplify_cfg", || phases::simplify_cfg(f));
        if !changed {
            break;
        }
    }
}

/// `optimize_generic` then `optimize_wm_with` for the options the four
/// levels use (every phase enabled unless switched off below).
fn optimize(f: &mut Function, o: &OptOptions, extents: &GlobalExtents, t: &mut Times) {
    cleanup(f, t);
    t.run("hoist_invariants", || phases::hoist_invariants(f));
    cleanup(f, t);
    if o.recurrence {
        t.run("optimize_recurrences", || optimize_recurrences(f, o.alias));
        cleanup(f, t);
    }
    t.run("target::expand_wm", || wm_target::expand_wm(f));
    t.run("hoist_invariants", || phases::hoist_invariants(f));
    cleanup(f, t);
    t.run("eliminate_dead_load_pairs", || {
        phases::eliminate_dead_load_pairs(f)
    });
    if o.vectorize {
        t.run("vectorize_maps", || vectorize::vectorize_maps(f, o.alias));
        cleanup(f, t);
    }
    if o.streaming {
        t.run("optimize_streams", || {
            wm_opt::streaming::optimize_streams(f, o.alias, extents, o.speculative_streams)
        });
        cleanup(f, t);
    }
    let mut rounds = 0;
    while rounds < MAX_ROUNDS && t.run("combine_duals", || phases::combine_duals(f)) {
        rounds += 1;
        t.run("eliminate_dead_code", || phases::eliminate_dead_code(f));
    }
    cleanup(f, t);
    if o.modulo {
        t.run("modulo_schedule", || {
            modulo::modulo_schedule(f, o.modulo_budget, o.modulo_mem_latency)
        });
    }
}

fn main() {
    let levels = [
        OptOptions::all().without_recurrence().without_streaming(),
        OptOptions::all().without_streaming(),
        OptOptions::all(),
        OptOptions::all().with_modulo(),
    ]
    .map(OptOptions::assume_noalias);
    let mut t = Times::default();
    for _ in 0..PASSES {
        for w in wm_workloads::all() {
            for o in &levels {
                let module = wm_frontend::compile(w.source).expect("workload compiles");
                let extents = GlobalExtents::of_module(&module);
                for f in &module.functions {
                    let mut ours = f.clone();
                    optimize(&mut ours, o, &extents, &mut t);
                    let mut want = f.clone();
                    optimize_generic(&mut want, o);
                    wm_target::expand_wm(&mut want);
                    optimize_wm_with(&mut want, o, &extents);
                    assert_eq!(ours, want, "{}: replay diverged from the pipeline", w.name);
                    t.run("target::allocate_registers", || {
                        wm_target::allocate_registers(&mut ours, TargetKind::Wm)
                    })
                    .expect("allocates");
                }
            }
        }
    }
    let opt_ms: f64 =
        t.0.iter()
            .filter(|(name, _)| !name.starts_with("target::"))
            .map(|(_, (_, ms))| ms)
            .sum();
    let mut rows: Vec<_> = t.0.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    println!(
        "{:<34} {:>8} {:>10} {:>9} {:>7}",
        "phase (per pass)", "calls", "ms", "us/call", "share"
    );
    for (name, (calls, ms)) in rows {
        let share = if name.starts_with("target::") {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * ms / opt_ms)
        };
        println!(
            "{name:<34} {:>8} {:>10.2} {:>9.1} {share:>7}",
            calls / PASSES as u64,
            ms / PASSES as f64,
            1e3 * ms / calls as f64,
        );
    }
    println!(
        "optimizer total (per pass): {:.2} ms",
        opt_ms / PASSES as f64
    );
}
