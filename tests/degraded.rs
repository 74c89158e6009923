//! Degraded-hardware agreement: the same compiled programs must produce
//! the same results on severely constrained WM configurations — one-entry
//! FIFOs, a single memory port, slow memory, and deterministic fault
//! injection that only delays (never drops) responses. Only cycle counts
//! may change; any result difference or spurious fault/deadlock is a
//! simulator or code-generation bug.

use wm_stream::sim::FaultPlan;
use wm_stream::{Compiler, MemModel, OptOptions, WmConfig};

/// The degraded-hardware configuration matrix.
fn degraded_configs() -> Vec<(&'static str, WmConfig)> {
    vec![
        ("fifo_capacity=1", WmConfig::default().with_fifo_capacity(1)),
        ("mem_ports=1", WmConfig::default().with_mem_ports(1)),
        ("mem_latency=24", WmConfig::default().with_mem_latency(24)),
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
                .with_fault_plan(FaultPlan::parse("jitter:11:9,delay:3:40,delay:17:40").unwrap()),
        ),
        // The memory hierarchy is timing-only: caches and banked DRAM
        // reshape cycle counts, never results.
        (
            "mem=cache",
            WmConfig::default().with_mem_model(MemModel::parse("cache").unwrap()),
        ),
        (
            "mem=banked",
            WmConfig::default().with_mem_model(MemModel::parse("banked").unwrap()),
        ),
        // Small direct-mapped L1, one MSHR, shallow stream buffers — but
        // enough DRAM bandwidth (banks=4, busy=2) that stream-outs keep
        // pace with producers. A starved-bank configuration can leave a
        // stream-out live into code that scalar-stores to the same FIFO
        // class, which the machine correctly faults as an output
        // conflict; that regime belongs to the fault tests, not to a
        // results-agree matrix.
        (
            "mem=cache-tight",
            WmConfig::default().with_mem_model(
                MemModel::parse("banked:size=256,assoc=1,mshrs=1,sbufs=2,depth=2,banks=4,busy=2")
                    .unwrap(),
            ),
        ),
    ]
}

#[test]
fn workloads_agree_on_degraded_hardware() {
    for w in wm_stream::workloads::table2() {
        let c = Compiler::new().compile(w.source).expect(w.name);
        let base = c
            .run_wm("main", &[])
            .unwrap_or_else(|e| panic!("{} [default]: {e}", w.name));
        for (label, cfg) in degraded_configs() {
            let r = c
                .run_wm_config("main", &[], &cfg)
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", w.name));
            assert_eq!(r.ret_int, base.ret_int, "{} [{label}]", w.name);
            assert_eq!(
                r.output, base.output,
                "{} [{label}]: output differs",
                w.name
            );
        }
    }
}

#[test]
fn livermore5_agrees_on_degraded_hardware_at_every_opt_level() {
    let expected = wm_stream::workloads::livermore5_expected();
    let src = wm_stream::workloads::livermore5().source;
    for opts in [
        OptOptions::none(),
        OptOptions::all().without_streaming(),
        OptOptions::all(),
    ] {
        let c = Compiler::new().options(opts.clone()).compile(src).unwrap();
        for (label, cfg) in degraded_configs() {
            let r = c
                .run_wm_config("main", &[], &cfg)
                .unwrap_or_else(|e| panic!("[{label}] {opts:?}: {e}"));
            assert_eq!(r.ret_int, expected, "[{label}] {opts:?}");
        }
    }
}

#[test]
fn faults_keep_their_attribution_on_degraded_hardware() {
    // the guard red-zone fault must name the same unit and address no
    // matter how constrained (or delayed) the machine is
    let c = Compiler::new()
        .compile("int u[4]; int main() { u[7] = 5; return 0; }")
        .unwrap();
    for (label, cfg) in degraded_configs() {
        let err = c.run_wm_config("main", &[], &cfg).unwrap_err();
        let fault = err
            .fault()
            .unwrap_or_else(|| panic!("[{label}] expected a fault, got {err}"));
        assert_eq!(fault.unit, wm_stream::sim::FaultUnit::Ieu, "[{label}]");
        assert_eq!(
            fault.addr,
            Some(wm_stream::sim::DATA_BASE + 28),
            "[{label}]"
        );
    }
}

#[test]
fn poisoned_streams_agree_on_degraded_hardware() {
    // a sentinel scan whose stream prefetches past the array: under
    // speculation the poison must stay harmless (never consumed) on every
    // configuration, including single-entry FIFOs that reorder prefetch
    // timing
    const SRC: &str = r"
        int a[16];
        int main() {
            int i;
            for (i = 0; i < 16; i++) a[i] = 1;
            a[15] = 8;
            i = 0;
            while (a[i] != 8) i = i + 1;
            return i;
        }";
    let c = Compiler::new()
        .options(OptOptions::all().with_speculative_streams())
        .compile(SRC)
        .unwrap();
    for (label, cfg) in degraded_configs() {
        let r = c
            .run_wm_config("main", &[], &cfg)
            .unwrap_or_else(|e| panic!("[{label}]: {e}"));
        assert_eq!(r.ret_int, 15, "[{label}]");
    }
}
