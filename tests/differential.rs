//! Differential testing: randomly generated mini-C programs must compute
//! the same results at every optimization level and on both machines.
//! This is the broadest guard against miscompilation by the recurrence,
//! streaming and combining passes.
//!
//! The generated loop's upper bound ranges up to the arrays' exact size,
//! so reads at `i+2` can run just past the end: every configuration must
//! then agree on *fault-or-value* — a build that faults where another
//! returns a result is a miscompilation, and so is a spurious fault.

use proptest::prelude::*;
use wm_stream::sim::Engine;
use wm_stream::{Compiler, MachineModel, MemModel, OptOptions, Target, WmConfig};

/// Case count, overridable for deeper CI sweeps.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// A random arithmetic/array program, built from a small grammar that
/// exercises loops, arrays (with in-loop offsets ±2), conditionals and
/// accumulators. `hi` is the middle loop's bound: at 299/300 the `+2`
/// reads touch `u[300..302)` over `int u[300]` — out of bounds.
fn arbitrary_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        // accumulate with an array read at a nearby offset
        (0..3usize, -2i64..=2).prop_map(|(arr, off)| {
            let a = ["u", "v", "w"][arr];
            format!(
                "s = s + {a}[i{}{}];",
                if off >= 0 { "+" } else { "-" },
                off.abs()
            )
        }),
        // array write from the accumulator
        (0..3usize).prop_map(|arr| {
            let a = ["u", "v", "w"][arr];
            format!("{a}[i] = s % 1000 + i;")
        }),
        // recurrence-style update
        (0..3usize, 1i64..=2).prop_map(|(arr, d)| {
            let a = ["u", "v", "w"][arr];
            format!("{a}[i] = {a}[i-{d}] + 1;")
        }),
        // conditional bump
        Just("if (s % 3 == 0) s = s + 7;".to_string()),
        // scalar churn
        (1i64..50).prop_map(|k| format!("t = t * 3 + {k}; s = s + t % 100;")),
        // indirect read a[b[i]]: fuses into a gather stream under
        // -noalias when the loop is otherwise eligible. Indexing through
        // u stays in bounds (u[i] = i) until a prior statement mutates
        // it; through v it goes out of bounds past i = 149 (v[i] = 2i),
        // so these draws also exercise poisoned gather entries — every
        // build must agree fault-or-value.
        (0..2usize, 0..3usize).prop_map(|(idx, arr)| {
            let b = ["u", "v"][idx];
            let a = ["u", "v", "w"][arr];
            format!("s = s + {a}[{b}[i]];")
        }),
        // indirect write a[u[i]]: the scatter dual, same in/out-of-bounds
        // story with eager faults on both the scalar and streamed builds
        (0..3usize).prop_map(|arr| {
            let a = ["u", "v", "w"][arr];
            format!("{a}[u[i]] = s % 50 + i;")
        }),
    ];
    // 1..5 statements in the loop body; bound up to the exact array size
    (proptest::collection::vec(stmt, 1..5), 296i64..=300).prop_map(|(body, hi)| {
        format!(
            r"
            int u[300]; int v[300]; int w[300];
            int main() {{
                int i; int s; int t;
                s = 1; t = 2;
                for (i = 0; i < 300; i++) {{ u[i] = i; v[i] = 2 * i; w[i] = 3000 - i; }}
                for (i = 2; i < {hi}; i++) {{
                    {}
                }}
                for (i = 0; i < 300; i++) s = s + u[i] + v[i] + w[i];
                return s % 100000;
            }}",
            body.join("\n                    ")
        )
    })
}

/// Memory-model specs a fuzzed run may draw. The hierarchy is
/// timing-only (tags, no data), so flat, cached and banked runs must all
/// agree on fault-or-value — only cycle counts may differ.
const MEM_SPECS: [&str; 6] = [
    "flat",
    "cache",
    "banked",
    "cache:size=256,assoc=1,mshrs=1,miss=48",
    "banked:banks=1,busy=12,rowhit=8,rowmiss=24",
    "banked:size=512,assoc=2,sbufs=1,depth=2,banks=2",
];

/// Run on the WM at one opt level under the chosen stepping engine and
/// memory model; a memory fault is a legitimate outcome (`Err`),
/// anything else non-Ok (deadlock, timeout) is a test failure.
fn run_wm_level(src: &str, opts: &OptOptions, engine: Engine, mem: &str) -> Result<i64, String> {
    let c = Compiler::new()
        .options(opts.clone())
        .compile(src)
        .expect("compiles");
    let cfg = WmConfig::default()
        .with_engine(engine)
        .with_mem_model(MemModel::parse(mem).expect("valid spec"));
    match c.run_wm_config("main", &[], &cfg) {
        Ok(r) => Ok(r.ret_int),
        Err(e @ wm_stream::sim::SimError::Fault { .. }) => Err(e.to_string()),
        Err(e) => panic!("non-fault failure under {opts:?} ({engine}, mem={mem}): {e}\n{src}"),
    }
}

fn run_scalar(src: &str) -> Result<i64, String> {
    let c = Compiler::new()
        .target(Target::Scalar)
        .compile(src)
        .expect("compiles");
    match c.run_scalar("main", &[], &MachineModel::m88100()) {
        Ok(r) => Ok(r.ret_int),
        Err(e @ wm_stream::machines::ScalarError::Fault(_)) => Err(e.to_string()),
        Err(e) => panic!("non-fault scalar failure: {e}\n{src}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: cases(), // each case compiles 7 ways and simulates; keep it bounded
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_programs_agree_across_opt_levels_and_machines(
        src in arbitrary_program(),
        engines in proptest::collection::vec(0..Engine::ALL.len(), 7),
        mems in proptest::collection::vec(0..MEM_SPECS.len(), 7),
    ) {
        // The reference runs on the per-cycle stepper over flat memory;
        // each opt level draws its engine (cycle or compiled) and memory
        // model at random so every fuzzed program also exercises engine
        // equivalence and the timing-only-hierarchy guarantee (results must never depend on the cache/DRAM
        // configuration).
        let reference = run_wm_level(&src, &OptOptions::none(), Engine::Cycle, "flat");

        for ((opts, engine_ix), mem_ix) in [
            OptOptions::all().without_recurrence().without_streaming(),
            OptOptions::all().without_streaming(),
            OptOptions::all(),
            OptOptions::all().with_speculative_streams(),
            OptOptions::all().with_vectorization(),
            // sound here — the grammar's arrays are distinct globals —
            // and required for scatter fusion, so this is the level that
            // exercises indirect streams hardest
            OptOptions::all().assume_noalias().with_speculative_streams(),
            // the solver-scheduled kernels must be architecturally
            // invisible too (fallback or not, results never change)
            OptOptions::all().assume_noalias().with_modulo(),
        ]
        .into_iter()
        .zip(engines)
        .zip(mems)
        {
            let engine = Engine::ALL[engine_ix];
            let mem = MEM_SPECS[mem_ix];
            let r = run_wm_level(&src, &opts, engine, mem);
            match (&reference, &r) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "options {:?} mem={}\n{}", opts, mem, src),
                (Err(_), Err(_)) => {} // both fault: agreement
                _ => prop_assert!(
                    false,
                    "fault-or-value disagreement under {:?} (mem={}): reference {:?} vs {:?}\n{}",
                    opts, mem, reference, r, src
                ),
            }
        }

        let r = run_scalar(&src);
        match (&reference, &r) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "scalar target\n{}", src),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(
                false,
                "fault-or-value disagreement on the scalar machine: {:?} vs {:?}\n{}",
                reference, r, src
            ),
        }
    }

    #[test]
    fn random_programs_get_identical_stats_from_all_engines(
        src in arbitrary_program(),
        mem_ix in 0..MEM_SPECS.len(),
        squash_ix in 0..3usize,
    ) {
        // Beyond fault-or-value agreement: on the fully optimized build
        // (noalias + speculative, so gathers, scatters and squashes all
        // occur), both engines must be bit-identical in every
        // observable — cycles, results, and the complete per-unit
        // counter set — under whichever memory model and squash-recovery
        // penalty the case draws.
        let c = Compiler::new()
            .options(OptOptions::all().assume_noalias().with_speculative_streams())
            .compile(&src)
            .expect("compiles");
        let mem = MemModel::parse(MEM_SPECS[mem_ix]).expect("valid spec");
        let cfg = WmConfig::default()
            .with_mem_model(mem)
            .with_squash_penalty([0, 3, 17][squash_ix]);
        let cycle = c.run_wm_config("main", &[], &cfg.clone().with_engine(Engine::Cycle));
        let compiled = c.run_wm_config("main", &[], &cfg.with_engine(Engine::Compiled));
        match (cycle, compiled) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.cycles, b.cycles, "cycle count differs\n{}", &src);
                prop_assert_eq!(a.ret_int, b.ret_int, "result differs\n{}", &src);
                prop_assert_eq!(&a.stats, &b.stats, "SimStats differ\n{}", &src);
                prop_assert_eq!(&a.perf, &b.perf, "counters differ\n{}", &src);
            }
            (Err(a), Err(b)) => prop_assert_eq!(
                a.to_string(), b.to_string(), "the engines fail differently\n{}", &src
            ),
            (a, b) => prop_assert!(
                false,
                "one engine failed where the other succeeded: {:?} vs {:?}\n{}",
                a.map(|r| r.cycles), b.map(|r| r.cycles), src
            ),
        }
    }
}
