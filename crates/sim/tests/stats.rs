//! Invariant tests for the performance-counter (`Stats`) layer.
//!
//! The attribution rule is structural: every unit records exactly one
//! outcome — active, idle, or a named stall — per simulated cycle, so
//! `active + idle + Σ stalls == cycles` must hold for every unit on
//! every run, including degraded configurations. These tests pin that
//! invariant on the paper's Table I workload (Livermore loop 5) and
//! check that the counters are deterministic across runs.

use wm_ir::Module;
use wm_opt::{optimize_generic, optimize_wm, OptOptions};
use wm_sim::{Engine, MemModel, Stall, TiledMachine, WmConfig, WmMachine};
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

fn run(module: &Module, config: &WmConfig) -> wm_sim::RunResult {
    WmMachine::run(module, "main", &[], config).expect("runs")
}

fn livermore5_streamed() -> Module {
    compile(wm_workloads::livermore5().source, &OptOptions::all())
}

/// Every unit's counters must sum exactly to the total cycle count, and
/// every stall cycle must carry a reason.
fn assert_attribution(r: &wm_sim::RunResult, label: &str) {
    assert_eq!(r.perf.cycles, r.cycles, "{label}: perf.cycles mismatch");
    r.perf
        .check_attribution()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    for (name, u) in r.perf.units() {
        assert_eq!(
            u.active + u.idle + u.stalled(),
            r.cycles,
            "{label}: {name} attribution does not sum to total cycles"
        );
    }
    for (i, scu) in r.perf.scus.iter().enumerate() {
        assert_eq!(
            scu.unit.attributed(),
            r.cycles,
            "{label}: scu{i} attribution does not sum to total cycles"
        );
    }
}

#[test]
fn attribution_sums_to_cycles_on_livermore5_default_config() {
    let module = livermore5_streamed();
    let r = run(&module, &WmConfig::default());
    assert_eq!(r.ret_int, wm_workloads::livermore5_expected());
    assert_attribution(&r, "default");

    // The streamed kernel must actually exercise the counters: the IEU
    // and FEU retire work, the SCUs move stream elements, and the FIFO
    // occupancy histograms observe every cycle.
    assert!(r.perf.ieu.retired > 0, "IEU retired nothing");
    assert!(r.perf.feu.retired > 0, "FEU retired nothing");
    assert!(r.perf.ifu.retired > 0, "IFU retired no control transfers");
    let elements: u64 = r
        .perf
        .scus
        .iter()
        .map(|s| s.elements_in + s.elements_out)
        .sum();
    assert_eq!(
        elements,
        r.stats.stream_reads + r.stats.stream_writes,
        "per-SCU element counts must agree with the legacy stream totals"
    );
    assert!(elements > 0, "streamed run moved no stream elements");
    for hist in &r.perf.fifos {
        let samples: u64 = hist.depth.iter().sum();
        assert_eq!(
            samples, r.cycles,
            "fifo {} histogram must sample every cycle",
            hist.name
        );
    }
}

#[test]
fn attribution_sums_to_cycles_on_livermore5_degraded_configs() {
    let module = livermore5_streamed();
    for (label, config) in [
        ("fifo=1", WmConfig::default().with_fifo_capacity(1)),
        ("ports=1", WmConfig::default().with_mem_ports(1)),
        (
            "fifo=1,ports=1",
            WmConfig::default().with_fifo_capacity(1).with_mem_ports(1),
        ),
    ] {
        let r = run(&module, &config);
        assert_eq!(r.ret_int, wm_workloads::livermore5_expected(), "{label}");
        assert_attribution(&r, label);
    }
}

#[test]
fn counters_are_deterministic_across_runs() {
    let module = livermore5_streamed();
    let a = run(&module, &WmConfig::default());
    let b = run(&module, &WmConfig::default());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(
        a.perf, b.perf,
        "two identical runs must produce identical counters"
    );
}

#[test]
fn degraded_fifo_shows_backpressure_stalls() {
    let module = livermore5_streamed();
    let healthy = run(&module, &WmConfig::default());
    let degraded = run(&module, &WmConfig::default().with_fifo_capacity(1));
    assert!(degraded.cycles > healthy.cycles, "fifo=1 must cost cycles");

    // With single-entry FIFOs the SCUs cannot run ahead: time they spend
    // blocked on a full input FIFO must grow.
    let full = |r: &wm_sim::RunResult| -> u64 {
        r.perf
            .scus
            .iter()
            .map(|s| s.unit.stalled_on(Stall::FifoFull))
            .sum()
    };
    assert!(
        full(&degraded) > full(&healthy),
        "fifo=1 must increase SCU fifo-full stalls ({} vs {})",
        full(&degraded),
        full(&healthy)
    );
}

#[test]
fn degraded_ports_shift_stalls_to_port_contention() {
    let module = livermore5_streamed();
    let healthy = run(&module, &WmConfig::default());
    let degraded = run(&module, &WmConfig::default().with_mem_ports(1));
    assert!(degraded.cycles > healthy.cycles, "ports=1 must cost cycles");
    let contention = |r: &wm_sim::RunResult| -> u64 {
        r.perf
            .scus
            .iter()
            .map(|s| s.unit.stalled_on(Stall::PortBusy))
            .sum::<u64>()
    };
    assert!(
        contention(&degraded) > contention(&healthy),
        "ports=1 must increase SCU port-busy stalls"
    );
}

#[test]
fn attribution_sums_to_cycles_under_memory_hierarchy_models() {
    // The hierarchical memory models add two stall reasons (mshr-full,
    // bank-busy) and a stream-buffer occupancy histogram; the structural
    // attribution rule — and the new rule that the occupancy histogram
    // samples every cycle — must keep holding exactly.
    let module = livermore5_streamed();
    for (label, spec) in [
        ("cache", "cache"),
        ("banked", "banked"),
        (
            "cache-tiny",
            "cache:size=256,assoc=1,line=32,mshrs=1,miss=48",
        ),
        (
            "banked-tight",
            "banked:banks=1,busy=12,rowhit=8,rowmiss=24,mshrs=1,sbufs=2,depth=2",
        ),
    ] {
        let config = WmConfig::default().with_mem_model(MemModel::parse(spec).unwrap());
        let r = run(&module, &config);
        assert_eq!(
            r.ret_int,
            wm_workloads::livermore5_expected(),
            "{label}: results must not depend on the (timing-only) memory model"
        );
        assert_attribution(&r, label);
        let mem = r.perf.mem.as_ref().expect("hierarchical stats present");
        let occ_samples: u64 = mem.sb_occupancy.iter().sum();
        assert_eq!(
            occ_samples, r.cycles,
            "{label}: stream-buffer occupancy histogram must sample every cycle"
        );
        assert!(
            mem.hits + mem.misses + mem.sb_hits + mem.sb_misses > 0,
            "{label}: the run produced no classified memory traffic"
        );
    }
}

#[test]
fn single_mshr_shifts_stalls_to_mshr_full() {
    // Scalar (non-streamed) code under a one-MSHR cache: every load that
    // misses occupies the sole MSHR for the full miss latency, so later
    // loads pile into the new `mshr-full` bucket.
    let module = compile(
        wm_workloads::livermore5().source,
        &OptOptions::all().without_streaming(),
    );
    let config = WmConfig::default()
        .with_mem_model(MemModel::parse("cache:size=256,assoc=1,mshrs=1,miss=48").unwrap());
    let r = run(&module, &config);
    assert_eq!(r.ret_int, wm_workloads::livermore5_expected());
    assert_attribution(&r, "mshrs=1");
    let mshr_full: u64 = r
        .perf
        .units()
        .iter()
        .map(|(_, u)| u.stalled_on(Stall::MshrFull))
        .sum();
    assert!(
        mshr_full > 0,
        "a one-MSHR cache must produce mshr-full stall cycles"
    );
}

#[test]
fn single_busy_bank_shifts_stalls_to_bank_busy() {
    // One DRAM bank with a long busy window: a scalar miss arriving while
    // the bank recovers is refused and attributed to `bank-busy`.
    let module = compile(
        wm_workloads::livermore5().source,
        &OptOptions::all().without_streaming(),
    );
    let config = WmConfig::default().with_mem_model(
        MemModel::parse("banked:size=256,assoc=1,banks=1,busy=16,rowhit=8,rowmiss=32").unwrap(),
    );
    let r = run(&module, &config);
    assert_eq!(r.ret_int, wm_workloads::livermore5_expected());
    assert_attribution(&r, "banks=1");
    let bank_busy: u64 = r
        .perf
        .units()
        .iter()
        .map(|(_, u)| u.stalled_on(Stall::BankBusy))
        .sum();
    assert!(
        bank_busy > 0,
        "a single slow bank must produce bank-busy stall cycles"
    );
    let mem = r.perf.mem.as_ref().expect("hierarchical stats present");
    assert!(
        mem.row_hits + mem.row_misses > 0,
        "DRAM row bookkeeping must observe the traffic"
    );
}

#[test]
fn stream_buffers_absorb_miss_latency_for_streamed_code() {
    // The paper's core claim, visible in the counters: streamed code under
    // a high-latency hierarchy runs closer to its flat-memory time than
    // scalar code does, because the stream buffers prefetch ahead while
    // scalar loads eat the full miss latency. (A dot product, not
    // Livermore 5: loop 5's recurrence serializes on the FEU and hides
    // memory latency under both compilations.)
    let src = r"
        double a[512]; double b[512];
        int main() {
            int i; double s;
            for (i = 0; i < 512; i++) { a[i] = i * 0.5; b[i] = 512 - i; }
            s = 0.0;
            for (i = 0; i < 512; i++) s = s + a[i] * b[i];
            return (int) s;
        }
    ";
    let streamed = compile(src, &OptOptions::all());
    let scalar = compile(src, &OptOptions::all().without_streaming());
    let hier = WmConfig::default()
        .with_mem_model(MemModel::parse("cache:size=256,assoc=1,miss=48").unwrap());
    let flat = WmConfig::default();

    let s_flat = run(&streamed, &flat).cycles as f64;
    let s_hier = run(&streamed, &hier).cycles as f64;
    let n_flat = run(&scalar, &flat).cycles as f64;
    let n_hier = run(&scalar, &hier).cycles as f64;
    let streamed_slowdown = s_hier / s_flat;
    let scalar_slowdown = n_hier / n_flat;
    assert!(
        streamed_slowdown < scalar_slowdown,
        "streamed code must tolerate miss latency better than scalar \
         (streamed slowdown {streamed_slowdown:.2}x vs scalar {scalar_slowdown:.2}x)"
    );

    let r = run(&streamed, &hier);
    let mem = r.perf.mem.as_ref().unwrap();
    assert!(mem.sb_hits > 0, "streams must hit their stream buffers");
    assert!(
        mem.sb_prefetches > 0,
        "stream buffers must prefetch ahead of demand"
    );
}

#[test]
fn stats_json_is_emitted_and_attribution_named() {
    // A tiny non-streamed program still yields a complete JSON document;
    // the full round-trip through the hand parser is covered in the
    // wm-bench crate, which owns the parser.
    let module = compile(
        "int main() { int i; int s; s = 0; for (i = 0; i < 32; i++) s = s + i; return s; }",
        &OptOptions::all(),
    );
    let r = run(&module, &WmConfig::default());
    assert_attribution(&r, "scalar");
    let json = r.perf.to_json();
    for key in [
        "\"cycles\"",
        "\"units\"",
        "\"IEU\"",
        "\"FEU\"",
        "\"VEU\"",
        "\"IFU\"",
        "\"scus\"",
        "\"fifos\"",
        "\"ports\"",
        "\"retired\"",
        "\"stalls\"",
    ] {
        assert!(json.contains(key), "stats JSON missing {key}: {json}");
    }
    assert!(
        !json.contains("\"mem\""),
        "flat model must not emit a mem object (baseline compatibility)"
    );

    let hier = run(
        &module,
        &WmConfig::default().with_mem_model(MemModel::parse("cache").unwrap()),
    );
    let json = hier.perf.to_json();
    for key in [
        "\"mem\"",
        "\"sb_occupancy\"",
        "\"sb_hits\"",
        "\"row_misses\"",
    ] {
        assert!(json.contains(key), "hierarchy JSON missing {key}: {json}");
    }
}

/// `SimStats` repeats five of the counters' facts; each is read off its
/// `Stats` source, under both engines, untiled and on two tiles, with the
/// VEU's retirements counted with the FEU's.
#[test]
fn sim_stats_are_read_off_the_counters() {
    fn check(r: &wm_sim::RunResult, label: &str) {
        let (s, p) = (&r.stats, &r.perf);
        assert_eq!(s.cycles, p.cycles, "{label}: cycles");
        assert_eq!(s.insts_ieu, p.ieu.retired, "{label}: insts_ieu");
        assert_eq!(
            s.insts_feu,
            p.feu.retired + p.veu.retired,
            "{label}: insts_feu"
        );
        assert_eq!(s.insts_ifu, p.ifu.retired, "{label}: insts_ifu");
        assert_eq!(s.ifu_stalls, p.ifu.stalled(), "{label}: ifu_stalls");
    }
    const MAP: &str = r"
        double a[300]; double b[300];
        int main() {
            int i; double s;
            for (i = 0; i < 300; i++) a[i] = i % 7;
            for (i = 0; i < 300; i++) b[i] = a[i] * 2.0;
            s = 0.0;
            for (i = 0; i < 300; i++) s = s + b[i];
            return (int) s;
        }
    ";
    let vectorized = compile(MAP, &OptOptions::all().with_vectorization());
    let livermore5 = livermore5_streamed();
    let tiled = {
        let opts = OptOptions::all().assume_noalias().with_tiles(2);
        let mut module = wm_frontend::compile(wm_workloads::livermore5().source).expect("compiles");
        let extents = wm_opt::GlobalExtents::of_module(&module);
        for f in module.functions.iter_mut() {
            optimize_generic(f, &opts);
        }
        wm_opt::partition_tiles(&mut module, "main", 2).expect("livermore5 partitions");
        for f in module.functions.iter_mut() {
            expand_wm(f);
            wm_opt::optimize_wm_with(f, &opts, &extents);
            allocate_registers(f, TargetKind::Wm).expect("allocates");
        }
        module
    };
    for engine in Engine::ALL {
        let config = WmConfig::default().with_engine(engine);
        let r = run(&vectorized, &config);
        assert!(r.perf.veu.retired > 0, "{engine}: the VEU retired nothing");
        check(&r, &format!("vectorized, {engine}"));
        let r = run(&livermore5, &config);
        assert!(r.stats.ifu_stalls > 0, "{engine}: the IFU never stalled");
        check(&r, &format!("livermore5, {engine}"));
        let r = TiledMachine::run(&tiled, "main", &[], &config.with_tiles(2), 1).expect("runs");
        assert_eq!(r.ret_int, wm_workloads::livermore5_expected());
        for (k, tile) in r.tiles.iter().enumerate() {
            check(tile, &format!("livermore5 tile {k}, {engine}"));
        }
        let primary = r.into_primary();
        assert_eq!(
            primary.stats.cycles, primary.cycles,
            "{engine}: global cycles"
        );
    }
}
