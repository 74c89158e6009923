//! Decode-table round-trip: the pre-decoded dispatch tables, the issue
//! path of both engines, must be a lossless re-encoding of the compiled
//! RTL. For every function of every workload (and for random fuzzed
//! programs), each [`wm_sim::DecodedProgram`] entry is checked against
//! the original instruction: block-table alignment, operators, operand
//! slots in order, folded immediates (bit-equal for floats), the FIFO
//! demand and interlock mask its operand slots imply, and re-resolved
//! control-flow targets. Only the stream instructions, whose handlers
//! read the instruction itself, may carry no operand slots.

use proptest::prelude::*;
use wm_ir::Module;
use wm_opt::{optimize_generic, optimize_wm, OptOptions};
use wm_sim::{WmConfig, WmMachine};
use wm_target::{allocate_registers, expand_wm, TargetKind};

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

/// Opt levels that change which instruction forms reach the decoder
/// (plain scalar code, recurrences, streams, vectors).
fn opt_levels() -> Vec<OptOptions> {
    vec![
        OptOptions::all().without_recurrence().without_streaming(),
        OptOptions::all().without_streaming(),
        OptOptions::all(),
        OptOptions::all().assume_noalias(),
        OptOptions::all().assume_noalias().with_vectorization(),
    ]
}

#[test]
fn workload_functions_round_trip_through_the_decoder() {
    let mut checked = 0usize;
    for w in wm_workloads::all() {
        for opts in opt_levels() {
            let module = compile(w.source, &opts);
            let machine = WmMachine::new(&module, &WmConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            checked += machine
                .decoded_program()
                .verify_roundtrip(&module)
                .unwrap_or_else(|e| panic!("{}: decode round-trip broken: {e}", w.name));
        }
    }
    // the suite decodes thousands of instructions; a tiny count means the
    // verifier silently checked nothing
    assert!(checked > 1_000, "only {checked} instructions verified");
}

/// Random mini-C programs (loops, arrays with ±2 offsets, recurrences,
/// conditionals) so the decoder also round-trips instruction mixes no
/// workload happens to produce.
fn arbitrary_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (0..3usize, -2i64..=2).prop_map(|(arr, off)| {
            let a = ["u", "v", "w"][arr];
            format!(
                "s = s + {a}[i{}{}];",
                if off >= 0 { "+" } else { "-" },
                off.abs()
            )
        }),
        (0..3usize).prop_map(|arr| {
            let a = ["u", "v", "w"][arr];
            format!("{a}[i] = s % 1000 + i;")
        }),
        (0..3usize, 1i64..=2).prop_map(|(arr, d)| {
            let a = ["u", "v", "w"][arr];
            format!("{a}[i] = {a}[i-{d}] + 1;")
        }),
        Just("if (s % 3 == 0) s = s + 7;".to_string()),
        (1i64..50).prop_map(|k| format!("t = t * 3 + {k}; s = s + t % 100;")),
        Just("f = f + 0.5; s = s + (int) f;".to_string()),
    ];
    (proptest::collection::vec(stmt, 1..5), 250i64..=300).prop_map(|(body, hi)| {
        format!(
            r"
            int u[300]; int v[300]; int w[300];
            int main() {{
                int i; int s; int t; double f;
                s = 1; t = 2; f = 0.0;
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_programs_round_trip_through_the_decoder(
        src in arbitrary_program(),
        level in 0..5usize,
    ) {
        let module = compile(&src, &opt_levels()[level]);
        let machine = WmMachine::new(&module, &WmConfig::default()).expect("loads");
        let checked = machine
            .decoded_program()
            .verify_roundtrip(&module)
            .unwrap_or_else(|e| panic!("decode round-trip broken: {e}\n{src}"));
        prop_assert!(checked > 0);
    }
}
