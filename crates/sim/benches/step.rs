//! Micro-benchmark of the simulator stepping engines on Livermore
//! loop 5, under the default hardware model and the latency-dominated
//! degraded model (24-cycle memory, one port) where the compiled
//! engine's fast-forward pays off. Run with `cargo bench -p wm-sim`.

use criterion::{criterion_group, criterion_main, Criterion};
use wm_ir::Module;
use wm_opt::{optimize_generic, optimize_wm, OptOptions};
use wm_sim::{Engine, MemModel, WmConfig, WmMachine};
use wm_target::{allocate_registers, expand_wm, TargetKind};

/// Compile livermore5 for the WM as the bench suite does (no-alias on
/// both builds so the streaming one actually streams).
fn livermore5(opts: &OptOptions) -> Module {
    let mut module = wm_frontend::compile(wm_workloads::livermore5().source).expect("compiles");
    for f in module.functions.iter_mut() {
        optimize_generic(f, opts);
        expand_wm(f);
        optimize_wm(f, opts);
        allocate_registers(f, TargetKind::Wm).expect("allocates");
    }
    module
}

fn bench_step(c: &mut Criterion) {
    // The scalar build is where fast-forwarding pays off on slow
    // memory: serialized loads leave long all-stalled spans to skip.
    // The streaming build keeps the SCUs busy nearly every cycle, so it
    // measures the engine's overhead on non-skippable cycles instead.
    let builds = [
        (
            "scalar",
            livermore5(
                &OptOptions::all()
                    .without_recurrence()
                    .without_streaming()
                    .assume_noalias(),
            ),
        ),
        ("streaming", livermore5(&OptOptions::all().assume_noalias())),
    ];
    // The banked leg exercises the hierarchical memory model's per-access
    // bookkeeping (L1 probe, stream buffers, DRAM bank timing) on top of
    // the stepping loop.
    let hw = [
        ("default", WmConfig::default()),
        (
            "latency24",
            WmConfig::default().with_mem_latency(24).with_mem_ports(1),
        ),
        (
            "banked",
            WmConfig::default().with_mem_model(MemModel::parse("banked").unwrap()),
        ),
    ];
    for (build_name, module) in &builds {
        for (hw_name, cfg) in &hw {
            for engine in Engine::ALL {
                let cfg = cfg.clone().with_engine(engine);
                c.bench_function(
                    &format!("livermore5-{build_name}/{hw_name}/{engine}"),
                    |b| {
                        b.iter(|| {
                            WmMachine::run(module, "main", &[], &cfg)
                                .expect("runs")
                                .cycles
                        })
                    },
                );
            }
        }
    }
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
