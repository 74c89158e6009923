//! Host time per optimizer phase over the workload suite.
//!
//! Compiles every `wm_workloads::all()` program at the four levels the
//! compile benchmark uses (classical, recurrence, full, modulo; all with
//! the no-alias model), running the pipeline of `optimize_generic` and
//! `optimize_wm_with` phase by phase with a timer around each call, then
//! prints each phase's calls, total time, time per call and share of the
//! optimizer's time. The fixpoint loops run through the pipeline's own
//! driver (`wm_opt::pipeline::Fixpoint`), phase list and skip rule, so
//! the call counts are the compiler's. Register allocation is timed too
//! but kept out of the share. Every function is checked against the real
//! pipeline's output, so the table describes exactly what the compiler
//! runs.
//!
//! ```text
//! cargo run --release -p wm-opt --example phase_times
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use wm_ir::Function;
use wm_opt::pipeline::{Fixpoint, Phase, CLEANUP, COMBINE, MAX_ROUNDS};
use wm_opt::recurrence::optimize_recurrences;
use wm_opt::{
    modulo, optimize_generic, optimize_wm_with, phases, vectorize, GlobalExtents, OptOptions,
};
use wm_target::TargetKind;

/// Passes over the suite; the table reports the mean per pass.
const PASSES: usize = 3;

#[derive(Default)]
struct Times {
    phases: BTreeMap<&'static str, (u64, f64)>,
    /// Phase calls made by `cleanup` loops.
    cleanup_calls: u64,
}

impl Times {
    fn run<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let e = self.phases.entry(phase).or_default();
        e.0 += 1;
        e.1 += start.elapsed().as_secs_f64() * 1e3;
        out
    }

    /// One capped fixpoint loop over `phases`, every call timed. Returns
    /// the calls made.
    fn fixpoint(&mut self, fp: &mut Fixpoint, f: &mut Function, phases: &[Phase]) -> u64 {
        let mut calls = 0;
        fp.run_with(f, phases, |name, f, phase| {
            calls += 1;
            self.run(name, || phase(f))
        });
        calls
    }

    fn cleanup(&mut self, fp: &mut Fixpoint, f: &mut Function) {
        self.cleanup_calls += self.fixpoint(fp, f, &CLEANUP);
    }
}

/// `optimize_generic` then `optimize_wm_with` for the options the four
/// levels use (every phase enabled unless switched off below), sequenced
/// as they sequence it.
fn optimize(f: &mut Function, o: &OptOptions, extents: &GlobalExtents, t: &mut Times) {
    let mut fp = Fixpoint::default();
    t.cleanup(&mut fp, f);
    fp.record(t.run("hoist_invariants", || phases::hoist_invariants(f)));
    t.cleanup(&mut fp, f);
    if o.recurrence {
        let r = t.run("optimize_recurrences", || optimize_recurrences(f, o.alias));
        fp.record(r.loops_transformed > 0);
        t.cleanup(&mut fp, f);
    }
    t.run("target::expand_wm", || wm_target::expand_wm(f));
    let mut fp = Fixpoint::default();
    fp.record(t.run("hoist_invariants", || phases::hoist_invariants(f)));
    t.cleanup(&mut fp, f);
    fp.record(t.run("eliminate_dead_load_pairs", || {
        phases::eliminate_dead_load_pairs(f)
    }));
    if o.vectorize {
        let r = t.run("vectorize_maps", || vectorize::vectorize_maps(f, o.alias));
        fp.record(r.loops_vectorized > 0);
        t.cleanup(&mut fp, f);
    }
    if o.streaming {
        let r = t.run("optimize_streams", || {
            wm_opt::streaming::optimize_streams(f, o.alias, extents, o.speculative_streams)
        });
        fp.record(r.loops_streamed > 0);
        t.cleanup(&mut fp, f);
    }
    t.fixpoint(&mut fp, f, &COMBINE);
    t.cleanup(&mut fp, f);
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
    // Cleanup rounds that changed a function, and loops stopped at the
    // cap, as the real pipeline reports them.
    let (mut rounds, mut capped) = (0, 0);
    for _ in 0..PASSES {
        for w in wm_workloads::all() {
            for o in &levels {
                let module = wm_frontend::compile(w.source).expect("workload compiles");
                let extents = GlobalExtents::of_module(&module);
                for f in &module.functions {
                    let mut ours = f.clone();
                    optimize(&mut ours, o, &extents, &mut t);
                    let mut want = f.clone();
                    let generic = optimize_generic(&mut want, o);
                    wm_target::expand_wm(&mut want);
                    let wm = optimize_wm_with(&mut want, o, &extents);
                    assert_eq!(ours, want, "{}: replay diverged from the pipeline", w.name);
                    rounds += generic.iterations + wm.iterations;
                    capped += generic.capped + wm.capped;
                    t.run("target::allocate_registers", || {
                        wm_target::allocate_registers(&mut ours, TargetKind::Wm)
                    })
                    .expect("allocates");
                }
            }
        }
    }
    let opt_ms: f64 = t
        .phases
        .iter()
        .filter(|(name, _)| !name.starts_with("target::"))
        .map(|(_, (_, ms))| ms)
        .sum();
    let mut rows: Vec<_> = t.phases.into_iter().collect();
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
    println!(
        "cleanup (per pass): {} phase calls, {} changing rounds, {} loops stopped at the {MAX_ROUNDS}-round cap",
        t.cleanup_calls / PASSES as u64,
        rounds / PASSES,
        capped / PASSES,
    );
}
