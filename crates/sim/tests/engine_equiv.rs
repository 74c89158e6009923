//! Engine equivalence: the compiled engine (threaded dispatch over
//! pre-decoded tables, fast-forwarding all-stalled spans) must be
//! observationally indistinguishable from the per-cycle reference
//! stepper. Not "close" — **bit-identical**: same cycle counts, same
//! full `Stats` (every stall bucket, FIFO histogram cell and port
//! histogram cell), same results and output, and on failing runs the
//! same error down to the fault provenance and machine-state dump.
//!
//! The matrix crosses programs that exercise every unit (scalar loops,
//! FP, streams, the VEU, speculative streams that get squashed, builtin
//! I/O) with both engines, degraded hardware configurations and
//! fault-injection plans, including ones that end in deadlock.

use wm_ir::Module;
use wm_opt::{optimize_generic, optimize_wm, OptOptions};
use wm_sim::{Engine, FaultPlan, MemModel, RunResult, SimError, Stall, WmConfig, WmMachine};
use wm_target::{allocate_registers, expand_wm, TargetKind};

/// Compile a module for the WM with the given options.
fn compile(src: &str, opts: &OptOptions) -> Module {
    let mut module = wm_frontend::compile(src).expect("compiles");
    for f in module.functions.iter_mut() {
        optimize_generic(f, opts);
        expand_wm(f);
        optimize_wm(f, opts);
        allocate_registers(f, TargetKind::Wm).expect("allocates");
    }
    module
}

/// Run `module` under both engines and assert every observable of the
/// compiled engine is identical to the per-cycle reference. Returns the
/// (shared) outcome for further checks.
fn assert_equivalent(module: &Module, cfg: &WmConfig, label: &str) -> Result<RunResult, SimError> {
    let reference = WmMachine::run(module, "main", &[], &cfg.clone().with_engine(Engine::Cycle));
    let got = WmMachine::run(
        module,
        "main",
        &[],
        &cfg.clone().with_engine(Engine::Compiled),
    );
    match (reference, got) {
        (Ok(c), Ok(e)) => {
            assert_eq!(c.cycles, e.cycles, "{label}: cycle count differs");
            assert_eq!(c.ret_int, e.ret_int, "{label}: integer result differs");
            assert_eq!(c.ret_flt, e.ret_flt, "{label}: FP result differs");
            assert_eq!(c.output, e.output, "{label}: program output differs");
            assert_eq!(c.stats, e.stats, "{label}: SimStats differ");
            assert_eq!(c.perf, e.perf, "{label}: performance counters differ");
            e.perf
                .check_attribution()
                .unwrap_or_else(|err| panic!("{label}: attribution broken: {err}"));
            assert_eq!(c.engine, Engine::Cycle);
            assert_eq!(e.engine, Engine::Compiled);
            Ok(e)
        }
        // SimError (including the fault provenance and the full
        // machine-state dump inside Deadlock/Fault) derives PartialEq, so
        // one assertion covers the failing cycle, the wedge diagnosis,
        // FIFO occupancy at death — everything.
        (Err(c), Err(e)) => {
            assert_eq!(c, e, "{label}: engines fail differently");
            Err(e)
        }
        (Ok(c), Err(e)) => panic!(
            "{label}: cycle engine succeeded ({} cycles) but compiled engine failed: {e}",
            c.cycles
        ),
        (Err(c), Ok(e)) => panic!(
            "{label}: compiled engine succeeded ({} cycles) but cycle engine failed: {c}",
            e.cycles
        ),
    }
}

/// Degraded hardware matrix (like `tests/degraded.rs`'s) plus
/// fault plans that delay and jitter responses.
fn configs() -> Vec<(&'static str, WmConfig)> {
    vec![
        ("default", WmConfig::default()),
        ("fifo=1", WmConfig::default().with_fifo_capacity(1)),
        ("ports=1", WmConfig::default().with_mem_ports(1)),
        ("latency=24", WmConfig::default().with_mem_latency(24)),
        (
            "fifo=1,ports=1,latency=24",
            WmConfig::default()
                .with_fifo_capacity(1)
                .with_mem_ports(1)
                .with_mem_latency(24),
        ),
        (
            "jitter+delays",
            WmConfig::default()
                .with_mem_ports(1)
                .with_fault_plan(FaultPlan::parse("jitter:11:9,delay:3:40,delay:17:40").unwrap()),
        ),
        (
            "mem=cache",
            WmConfig::default().with_mem_model(MemModel::parse("cache").unwrap()),
        ),
        (
            "mem=banked",
            WmConfig::default().with_mem_model(MemModel::parse("banked").unwrap()),
        ),
        (
            // A deliberately hostile hierarchy: one MSHR (so scalar code
            // piles into `mshr-full`), one bank with a long busy window
            // (so `bank-busy` refusals and folded conflicts both occur),
            // a tiny direct-mapped L1 (eviction churn) and shared stream
            // buffers (cross-stream thrashing).
            "mem=banked-tight",
            WmConfig::default().with_mem_model(
                MemModel::parse(
                    "banked:size=256,assoc=1,line=32,mshrs=1,sbufs=2,depth=2,\
                     banks=1,busy=12,rowhit=8,rowmiss=24",
                )
                .unwrap(),
            ),
        ),
        (
            "mem=cache+injection",
            WmConfig::default()
                .with_mem_model(MemModel::parse("cache:mshrs=2,miss=40").unwrap())
                .with_fault_plan(FaultPlan::parse("jitter:7:5,delay:9:60").unwrap()),
        ),
        // squash recovery holds an SCU slot busy after a speculative
        // stream is stopped early
        ("squash=16", WmConfig::default().with_squash_penalty(16)),
    ]
}

/// Programs that exercise the IEU, FEU, streams, and builtin I/O.
fn programs() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "scalar-loop",
            "int main() { int s; int i; s = 0; for (i = 1; i <= 200; i++) s = s + i; return s; }",
        ),
        (
            "fp-array",
            r"
            double a[128]; double b[128];
            int main() {
                int i; double s;
                for (i = 0; i < 128; i++) { a[i] = i * 0.5; b[i] = 128 - i; }
                s = 0.0;
                for (i = 0; i < 128; i++) s = s + a[i] * b[i];
                return (int) s;
            }
            ",
        ),
        (
            "dot-stream",
            r"
            int a[256]; int b[256];
            int main() {
                int i; int s;
                for (i = 0; i < 256; i++) { a[i] = i; b[i] = 2 * i; }
                s = 0;
                for (i = 0; i < 256; i++) s = s + a[i] * b[i];
                return s % 10007;
            }
            ",
        ),
        (
            // Store-free indirect read: fuses into a gather stream even
            // under the conservative alias model, so the degraded matrix
            // exercises the index-fed SCU path (index fetches, the
            // index-fifo-empty stall, gather data reads bypassing the
            // stream buffers) on every config × engine point.
            "gather-stream",
            r"
            int idx[256]; int tab[512];
            int main() {
                int i; int s;
                for (i = 0; i < 256; i++) { idx[i] = (i * 7) % 512; }
                for (i = 0; i < 512; i++) { tab[i] = 3 * i + 1; }
                s = 0;
                for (i = 0; i < 256; i++) s = s + tab[idx[i]];
                return s % 10007;
            }
            ",
        ),
        (
            // A map loop the vectorizing level runs on the VEU.
            "vector-map",
            r"
            double a[300]; double b[300]; double c[300];
            int main() {
                int i; double s;
                for (i = 0; i < 300; i++) { a[i] = i * 0.5; b[i] = 1.0 + i % 7; }
                for (i = 0; i < 300; i++) c[i] = a[i] * b[i];
                s = 0.0;
                for (i = 0; i < 300; i++) s = s + c[i];
                return (int) s % 10007;
            }
            ",
        ),
        (
            // A sentinel scan: its trip count is unknown, so only the
            // speculative level streams it, over-fetching past the
            // sentinel and squashing the surplus when the loop exits.
            "spec-scan",
            r"
            int a[64];
            int main() {
                int i; int n;
                for (i = 0; i < 63; i++) a[i] = 1 + i % 5;
                a[63] = 0;
                n = 0;
                i = 0;
                while (a[i] != 0) { n = n + a[i]; i++; }
                return n;
            }
            ",
        ),
        (
            "io-putchar",
            r"
            int main() {
                int i;
                for (i = 0; i < 26; i++) putchar(65 + i);
                putchar(10);
                return 0;
            }
            ",
        ),
    ]
}

#[test]
fn engines_agree_across_degraded_matrix() {
    // program × opt-level × (hardware config + fault plan + mem model),
    // each point run under both engines by `assert_equivalent`.
    let opt_levels = [
        ("full", OptOptions::all()),
        ("no-streaming", OptOptions::all().without_streaming()),
        (
            "scalar",
            OptOptions::all().without_recurrence().without_streaming(),
        ),
        ("vectorized", OptOptions::all().with_vectorization()),
        ("speculative", OptOptions::all().with_speculative_streams()),
    ];
    // The map loop's out-stream is configured while the init loop's last
    // FP store may still be waiting for the memory hierarchy: the store
    // owns the FEU output FIFO first, on every hierarchy and at every
    // level, so every build returns the scalar build's answer.
    let vector_map = programs()
        .into_iter()
        .find(|(name, _)| *name == "vector-map")
        .expect("vector-map program")
        .1;
    let vector_map_want = WmMachine::run(
        &compile(
            vector_map,
            &opt_levels.iter().find(|(n, _)| *n == "scalar").unwrap().1,
        ),
        "main",
        &[],
        &WmConfig::default(),
    )
    .expect("the scalar build runs")
    .ret_int;
    for (prog_name, src) in programs() {
        for (opt_name, opts) in &opt_levels {
            let module = compile(src, opts);
            for (cfg_name, cfg) in configs() {
                let label = format!("{prog_name} [{opt_name}] [{cfg_name}]");
                match assert_equivalent(&module, &cfg, &label) {
                    Ok(r) => {
                        assert!(r.cycles > 0, "{label}");
                        // the states the compiled engine's sleeping VEU
                        // and SCUs must wake from are really reached
                        if prog_name == "vector-map" {
                            assert_eq!(r.ret_int, vector_map_want, "{label}");
                        }
                        if (prog_name, *opt_name) == ("vector-map", "vectorized") {
                            assert!(r.perf.veu.active > 0, "{label}: VEU never ran");
                        }
                        if (prog_name, *opt_name, cfg_name)
                            == ("spec-scan", "speculative", "squash=16")
                        {
                            assert!(
                                r.perf.scus.iter().any(|s| s.squashed > 0),
                                "{label}: no stream was squashed"
                            );
                            assert!(
                                r.perf
                                    .scus
                                    .iter()
                                    .any(|s| s.unit.stalled_on(Stall::SpecSquash) > 0),
                                "{label}: no squash recovery"
                            );
                        }
                    }
                    // One point is *expected* to wedge: the non-streamed
                    // build of the indirect chain (`tab[idx[i]]`) under a
                    // 1-entry FIFO. The dependent load both dequeues the
                    // index (freeing the single slot) and enqueues its own
                    // response (needing it); the machine conservatively
                    // refuses the issue, and a 1-entry in-FIFO genuinely
                    // cannot overlap an indirect load chain. Both
                    // engines agreeing on that deadlock — same cycle, same
                    // diagnosis — IS the property under test here. (The
                    // streamed build is immune: the gather SCU owns the
                    // FIFO and respects its capacity.)
                    Err(e @ SimError::Deadlock { .. })
                        if prog_name == "gather-stream" && cfg_name.starts_with("fifo=1") =>
                    {
                        let _ = e;
                    }
                    Err(e) => panic!("{label}: unexpected failure: {e}"),
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_dropped_response_deadlock() {
    // Dropping a response wedges the machine; both engines must report
    // the deadlock at the same cycle with the same wedge diagnosis.
    let module = compile(
        r"
        int a[64];
        int main() {
            int i; int s;
            for (i = 0; i < 64; i++) a[i] = i;
            s = 0;
            for (i = 0; i < 64; i++) s = s + a[i];
            return s;
        }
        ",
        &OptOptions::all(),
    );
    // The first loop issues 64 stream writes (requests 1–64); request 80
    // is one of the second loop's stream reads, and a read that never
    // returns starves the stream for good.
    let cfg = WmConfig::default()
        .with_max_cycles(100_000)
        .with_fault_plan(FaultPlan::parse("drop:80").unwrap());
    let e = assert_equivalent(&module, &cfg, "dropped-response").unwrap_err();
    assert!(
        matches!(e, SimError::Deadlock { .. }),
        "expected a deadlock, got: {e}"
    );
}

#[test]
fn engines_agree_on_scu_kill() {
    // Disabling an SCU mid-run: the attribution flips to
    // `stall:disabled` at the exact kill cycle in both engines (the kill
    // cycle is a fast-forward event), and the run wedges identically.
    let module = compile(
        r"
        int a[4096]; int b[4096];
        int main() {
            int i; int s;
            for (i = 0; i < 4096; i++) { a[i] = i; b[i] = i; }
            s = 0;
            for (i = 0; i < 4096; i++) s = s + a[i] * b[i];
            return s % 10007;
        }
        ",
        &OptOptions::all().assume_noalias(),
    );
    for kill_cycle in [100, 5_000, 20_000] {
        let cfg = WmConfig::default()
            .with_max_cycles(200_000)
            .with_fault_plan(FaultPlan {
                disable_scus: vec![(0, kill_cycle), (1, kill_cycle)],
                ..FaultPlan::default()
            });
        // Whether this deadlocks or survives depends on whether the
        // streams outlive the kill cycle; either way both engines must
        // agree exactly.
        let _ = assert_equivalent(&module, &cfg, &format!("scu-kill@{kill_cycle}"));
    }
}

#[test]
fn engines_agree_on_cycle_limit_timeout() {
    // An infinite loop must time out at exactly `max_cycles` under both
    // engines (the fast-forward clamps its jumps to the limit).
    let module = compile("int main() { while (1) {} return 0; }", &OptOptions::all());
    let cfg = WmConfig::default().with_max_cycles(7_777);
    let e = assert_equivalent(&module, &cfg, "timeout").unwrap_err();
    assert!(
        matches!(e, SimError::Timeout { .. } | SimError::Deadlock { .. }),
        "expected timeout or deadlock, got: {e}"
    );
}

#[test]
fn engines_agree_on_memory_hierarchy_stall_storms() {
    // The memory-hierarchy wake events (bank free, miss delivery
    // releasing an MSHR) must bound every fast-forward jump. This
    // workload alternates scalar bursts (MSHR/bank refusals) with
    // streams (buffer prefetch traffic) under a one-bank DRAM, so
    // mshr-full and bank-busy stall spans dominate the run.
    let src = r"
        int a[512]; int b[512]; int c[64];
        int main() {
            int i; int s;
            for (i = 0; i < 512; i++) { a[i] = i; b[i] = i + 1; }
            s = 0;
            for (i = 0; i < 64; i++) c[i] = a[i * 7] + b[i * 5];
            for (i = 0; i < 512; i++) s = s + a[i] * b[i];
            for (i = 0; i < 64; i++) s = s + c[i];
            return s % 10007;
        }
    ";
    for opts in [OptOptions::all(), OptOptions::all().without_streaming()] {
        let module = compile(src, &opts);
        for spec in [
            "cache:mshrs=1,miss=48",
            "banked:banks=1,busy=16,rowhit=8,rowmiss=32,mshrs=1",
            "banked:banks=2,busy=8,sbufs=1,depth=1",
        ] {
            let cfg = WmConfig::default().with_mem_model(MemModel::parse(spec).unwrap());
            let label = format!("stall-storm [{spec}]");
            let r = assert_equivalent(&module, &cfg, &label)
                .unwrap_or_else(|e| panic!("{label}: unexpected failure: {e}"));
            let mem = r.perf.mem.as_ref().expect("hierarchical stats present");
            assert!(mem.hits + mem.misses > 0, "{label}: no scalar traffic seen");
        }
    }
}

#[test]
fn compiled_engine_is_the_default() {
    let module = compile("int main() { return 41 + 1; }", &OptOptions::all());
    let r = WmMachine::run(&module, "main", &[], &WmConfig::default()).expect("runs");
    assert_eq!(r.engine, Engine::Compiled);
    assert_eq!(r.ret_int, 42);
    let cfg = WmConfig::default().with_engine(Engine::Cycle);
    let r = WmMachine::run(&module, "main", &[], &cfg).expect("runs");
    assert_eq!(r.engine, Engine::Cycle, "the reference reports itself");
    assert_eq!(r.ret_int, 42);
}

#[test]
fn engine_all_covers_every_engine() {
    assert_eq!(Engine::ALL.map(Engine::name), ["cycle", "compiled"]);
    for e in Engine::ALL {
        assert_eq!(Engine::parse(e.name()), Ok(e));
    }
    let err = Engine::parse("event").unwrap_err();
    assert!(
        err.contains("cycle") && err.contains("compiled"),
        "the error names the engines that exist: {err}"
    );
}
