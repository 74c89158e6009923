//! The `-O modulo` contract, end to end: solver-scheduled kernels are
//! architecturally invisible (same results as the greedy schedule on
//! every engine and memory model), never slower anywhere, and strictly
//! faster on the ordering-limited integer kernels.

use wm_stream::sim::Engine;
use wm_stream::{Compiler, MemModel, OptOptions, WmConfig, Workload};

fn greedy() -> OptOptions {
    OptOptions::all().assume_noalias()
}

fn modulo() -> OptOptions {
    OptOptions::all().assume_noalias().with_modulo()
}

/// The kernels whose steady-state interval is ordering-limited: the
/// solver must find a strictly smaller II than the greedy schedule.
fn winners() -> Vec<Workload> {
    vec![
        wm_stream::workloads::od_kernel(),
        wm_stream::workloads::uuencode(),
        wm_stream::workloads::smooth(),
    ]
}

/// Loops the scheduler must *decline*: iir's interval already sits at
/// the dispatch bound and livermore5/histogram are recurrence-bound, so
/// the fallback has to leave their code (and cycles) untouched.
fn fallbacks() -> Vec<Workload> {
    vec![
        wm_stream::workloads::table2()[5], // iir
        wm_stream::workloads::livermore5(),
        wm_stream::workloads::histogram(),
    ]
}

fn run(c: &wm_stream::Compiled, engine: Engine, mem: &MemModel) -> wm_stream::RunResult {
    let cfg = WmConfig::default()
        .with_engine(engine)
        .with_mem_model(mem.clone());
    c.run_wm_config("main", &[], &cfg).expect("runs")
}

#[test]
fn modulo_matches_greedy_on_every_engine_and_memory_model() {
    let mems = [
        MemModel::parse("flat").unwrap(),
        MemModel::parse("banked").unwrap(),
    ];
    for w in winners().into_iter().chain(fallbacks()) {
        let g = Compiler::new()
            .options(greedy())
            .compile(w.source)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let m = Compiler::new()
            .options(modulo())
            .compile(w.source)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for mem in &mems {
            let mut cycles_by_engine = Vec::new();
            for engine in Engine::ALL {
                let rg = run(&g, engine, mem);
                let rm = run(&m, engine, mem);
                // Architecturally identical: same return, same output.
                assert_eq!(rm.ret_int, rg.ret_int, "{} ({engine}, {mem})", w.name);
                assert_eq!(rm.output, rg.output, "{} ({engine}, {mem})", w.name);
                w.check(rm.ret_int);
                // Never slower: the fallback is loop-by-loop.
                assert!(
                    rm.cycles <= rg.cycles,
                    "{} ({engine}, {mem}): modulo {} cycles vs greedy {}",
                    w.name,
                    rm.cycles,
                    rg.cycles
                );
                cycles_by_engine.push(rm.cycles);
            }
            // Both engines agree on the scheduled code's cycles.
            assert!(
                cycles_by_engine.windows(2).all(|p| p[0] == p[1]),
                "{} ({mem}): engines disagree: {cycles_by_engine:?}",
                w.name
            );
        }
    }
}

#[test]
fn modulo_strictly_beats_greedy_on_ordering_limited_kernels() {
    let flat = MemModel::parse("flat").unwrap();
    for w in winners() {
        let g = Compiler::new()
            .options(greedy())
            .compile(w.source)
            .expect("compiles");
        let m = Compiler::new()
            .options(modulo())
            .compile(w.source)
            .expect("compiles");
        // The report must show a loop pipelined at II strictly below the
        // greedy interval estimate...
        let pipelined: u32 = m.stats.iter().map(|(_, s)| s.modulo.pipelined).sum();
        assert!(pipelined >= 1, "{}: no loop pipelined", w.name);
        for (_, s) in &m.stats {
            for l in s.modulo.loops() {
                if l.pipelined {
                    assert!(
                        l.ii < l.greedy && l.ii == l.mii,
                        "{}: L{} II {} vs greedy {} (MII {})",
                        w.name,
                        l.label,
                        l.ii,
                        l.greedy,
                        l.mii
                    );
                }
            }
        }
        // ...and the win must be real on the machine, not just estimated.
        let rg = run(&g, Engine::default(), &flat);
        let rm = run(&m, Engine::default(), &flat);
        assert!(
            rm.cycles < rg.cycles,
            "{}: modulo {} cycles is not below greedy {}",
            w.name,
            rm.cycles,
            rg.cycles
        );
    }
}

#[test]
fn modulo_fallback_keeps_bound_loops_bit_identical() {
    let flat = MemModel::parse("flat").unwrap();
    for w in fallbacks() {
        let g = Compiler::new()
            .options(greedy())
            .compile(w.source)
            .expect("compiles");
        let m = Compiler::new()
            .options(modulo())
            .compile(w.source)
            .expect("compiles");
        // Declined loops keep the greedy code, so the whole run is
        // cycle-for-cycle identical, not merely equal in results.
        let rg = run(&g, Engine::default(), &flat);
        let rm = run(&m, Engine::default(), &flat);
        assert_eq!(rm.cycles, rg.cycles, "{}", w.name);
        assert_eq!(rm.stats, rg.stats, "{}", w.name);
        // And the report says why: considered, but nothing pipelined.
        let pipelined: u32 = m.stats.iter().map(|(_, s)| s.modulo.pipelined).sum();
        assert_eq!(pipelined, 0, "{}: expected pure fallback", w.name);
    }
}
