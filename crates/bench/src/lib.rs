//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Run the binaries to reproduce the evaluation:
//!
//! * `cargo run --release -p wm-bench --bin table1` — Table I (recurrence
//!   optimization, percent improvement on five machines);
//! * `cargo run --release -p wm-bench --bin table2` — Table II (streaming,
//!   percent reduction in cycles on nine programs);
//! * `cargo run --release -p wm-bench --bin figures -- fig4|fig5|fig6|fig7`
//!   — the paper's code listings for the fifth Livermore loop;
//! * `cargo run --release -p wm-bench --bin table34` — the SPEC-tables
//!   substitute (optimizer-quality ratio; see DESIGN.md).

pub mod reps;

use wm_stream::{Compiler, MachineModel, OptOptions, Target, WmConfig};

/// A row of a percent-improvement table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Machine or program name.
    pub name: String,
    /// Cycles without the optimization under study.
    pub base_cycles: u64,
    /// Cycles with it.
    pub opt_cycles: u64,
    /// The paper's reported percentage, where applicable.
    pub paper_percent: Option<f64>,
}

impl Row {
    /// Measured percent improvement. An empty baseline (zero cycles, as
    /// produced by a workload whose kernel subtraction cancels out) has
    /// no meaningful improvement and reports 0.0 rather than NaN.
    pub fn percent(&self) -> f64 {
        if self.base_cycles == 0 {
            return 0.0;
        }
        100.0 * (self.base_cycles.saturating_sub(self.opt_cycles)) as f64 / self.base_cycles as f64
    }
}

/// Livermore-5 kernel cycles on a scalar machine: full program minus
/// initialization-only program, as Table I isolates the kernel.
fn scalar_kernel_cycles(model: &MachineModel, opts: &OptOptions) -> u64 {
    let c = Compiler::new().target(Target::Scalar).options(opts.clone());
    let full = c
        .compile(wm_stream::workloads::livermore5().source)
        .expect("compiles")
        .run_scalar("main", &[], model)
        .expect("runs")
        .cycles;
    let init = c
        .compile(wm_stream::workloads::livermore5_init_only().source)
        .expect("compiles")
        .run_scalar("main", &[], model)
        .expect("runs")
        .cycles;
    full - init
}

/// Livermore-5 kernel cycles on the WM simulator.
fn wm_kernel_cycles(opts: &OptOptions) -> u64 {
    let c = Compiler::new().options(opts.clone());
    let cfg = WmConfig::default();
    let full = c
        .compile(wm_stream::workloads::livermore5().source)
        .expect("compiles")
        .run_wm_config("main", &[], &cfg)
        .expect("runs")
        .cycles;
    let init = c
        .compile(wm_stream::workloads::livermore5_init_only().source)
        .expect("compiles")
        .run_wm_config("main", &[], &cfg)
        .expect("runs")
        .cycles;
    full - init
}

/// Compute Table I: effect of recurrence optimization on execution time of
/// the fifth Livermore loop, per machine.
pub fn table1() -> Vec<Row> {
    // Streaming off everywhere: Table I isolates the recurrence pass.
    let with = OptOptions::all().without_streaming();
    let without = with.clone().without_recurrence();
    let paper = [
        ("Sun 3/280", 19.0),
        ("HP 9000/345", 12.0),
        ("VAX 8600", 6.0),
        ("Motorola 88100", 7.0),
    ];
    let mut rows = Vec::new();
    for model in MachineModel::table1_machines() {
        let base = scalar_kernel_cycles(&model, &without);
        let opt = scalar_kernel_cycles(&model, &with);
        let paper_percent = paper
            .iter()
            .find(|(n, _)| *n == model.name)
            .map(|(_, p)| *p);
        rows.push(Row {
            name: model.name.to_string(),
            base_cycles: base,
            opt_cycles: opt,
            paper_percent,
        });
    }
    rows.push(Row {
        name: "WM".to_string(),
        base_cycles: wm_kernel_cycles(&without),
        opt_cycles: wm_kernel_cycles(&with),
        paper_percent: Some(18.0),
    });
    rows
}

/// Streaming-vs-no-streaming rows for a set of workloads, compiled the
/// Table II way: the no-alias model on both sides of the comparison.
fn streaming_rows(workloads: Vec<wm_stream::workloads::Workload>) -> Vec<Row> {
    let with = OptOptions::all().assume_noalias();
    let without = OptOptions::all().without_streaming().assume_noalias();
    let cfg = WmConfig::default();
    let mut rows = Vec::new();
    for w in workloads {
        let cb = Compiler::new().options(without.clone());
        let co = Compiler::new().options(with.clone());
        let base = cb
            .compile(w.source)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .run_wm_config("main", &[], &cfg)
            .unwrap_or_else(|e| panic!("{} (base): {e}", w.name));
        let opt = co
            .compile(w.source)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name))
            .run_wm_config("main", &[], &cfg)
            .unwrap_or_else(|e| panic!("{} (streamed): {e}", w.name));
        w.check(base.ret_int);
        w.check(opt.ret_int);
        rows.push(Row {
            name: w.name.to_string(),
            base_cycles: base.cycles,
            opt_cycles: opt.cycles,
            paper_percent: w.paper_table2_percent,
        });
    }
    rows
}

/// Compute Table II: percent reduction in cycles executed from streaming,
/// for the nine benchmark programs, on the WM simulator.
pub fn table2() -> Vec<Row> {
    // The paper's results (e.g. dhrystone's 39% from streamed string copies
    // through pointer parameters) are only reachable when distinct pointer
    // bases are assumed disjoint, so Table II compiles — on both sides of
    // the comparison — with the no-alias model the paper's compiler
    // evidently used for these programs. See DESIGN.md.
    streaming_rows(wm_stream::workloads::table2())
}

/// The indirect-stream addendum to Table II: the sparse workloads
/// (gather and scatter kernels) under the same compilation model, so
/// the delta is what streaming — indirect accesses fused into
/// `Sga`/`Ssc` descriptors included — buys over the scalar pipeline.
pub fn sparse_rows() -> Vec<Row> {
    streaming_rows(wm_stream::workloads::sparse())
}

/// The Tables III/IV substitute: SPEC89 is unavailable, so reproduce the
/// *claim* (the optimizer generates much better code than a naive
/// compiler) as the geometric-mean cycle ratio of unoptimized to optimized
/// code across the whole workload suite on the Sun-3-like model.
pub fn table34_ratio() -> (Vec<Row>, f64) {
    let model = MachineModel::sun_3_280();
    let naive = OptOptions::none();
    let full = OptOptions::all(); // streaming is ignored on the scalar target
    let mut rows = Vec::new();
    let mut log_sum = 0.0;
    let mut count = 0.0;
    for w in wm_stream::workloads::table2() {
        let base = Compiler::new()
            .target(Target::Scalar)
            .options(naive.clone())
            .compile(w.source)
            .expect("compiles")
            .run_scalar("main", &[], &model)
            .unwrap_or_else(|e| panic!("{} naive: {e}", w.name));
        let opt = Compiler::new()
            .target(Target::Scalar)
            .options(full.clone())
            .compile(w.source)
            .expect("compiles")
            .run_scalar("main", &[], &model)
            .unwrap_or_else(|e| panic!("{} optimized: {e}", w.name));
        w.check(base.ret_int);
        w.check(opt.ret_int);
        log_sum += (base.cycles as f64 / opt.cycles as f64).ln();
        count += 1.0;
        rows.push(Row {
            name: w.name.to_string(),
            base_cycles: base.cycles,
            opt_cycles: opt.cycles,
            paper_percent: None,
        });
    }
    (rows, (log_sum / count).exp())
}

/// Print a table of rows in the paper's style.
pub fn print_rows(title: &str, unit: &str, rows: &[Row]) {
    println!("{title}");
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>8}",
        "name", "base cycles", "opt cycles", "measured", "paper"
    );
    for r in rows {
        let paper = r
            .paper_percent
            .map(|p| format!("{p:.0}%"))
            .unwrap_or_else(|| "—".to_string());
        println!(
            "{:<16} {:>14} {:>14} {:>9.1}{unit} {:>8}",
            r.name,
            r.base_cycles,
            r.opt_cycles,
            r.percent(),
            paper
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_percent() {
        let r = Row {
            name: "x".into(),
            base_cycles: 200,
            opt_cycles: 150,
            paper_percent: None,
        };
        assert!((r.percent() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn row_percent_of_empty_baseline_is_zero() {
        let r = Row {
            name: "empty".into(),
            base_cycles: 0,
            opt_cycles: 0,
            paper_percent: None,
        };
        assert_eq!(r.percent(), 0.0);
        assert!(r.percent().is_finite());
    }
}
