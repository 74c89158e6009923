//! # wm-stream — streaming access/execute compilation and simulation
//!
//! A from-scratch reproduction of *Code Generation for Streaming: an
//! Access/Execute Mechanism* (Benitez & Davidson, ASPLOS 1991): an
//! optimizing mini-C compiler whose headline passes detect loop-carried
//! **recurrences** and convert regular loop memory references into WM
//! **stream instructions**, plus a cycle-level simulator of the WM
//! decoupled access/execute architecture and timing models of the scalar
//! machines of the paper's Table I.
//!
//! The sub-crates are re-exported in full ([`ir`], [`frontend`], [`opt`],
//! [`target`], [`sim`], [`machines`], [`workloads`]); this crate adds the
//! [`Compiler`] pipeline that strings them together.
//!
//! ```
//! use wm_stream::Compiler;
//!
//! let compiled = Compiler::new()
//!     .compile("int main() { return 6 * 7; }")
//!     .expect("valid mini-C");
//! let run = compiled.run_wm("main", &[]).expect("executes");
//! assert_eq!(run.ret_int, 42);
//! ```

pub mod driver;
pub mod trace;

pub use wm_frontend as frontend;
pub use wm_ir as ir;
pub use wm_machines as machines;
pub use wm_opt as opt;
pub use wm_sim as sim;
pub use wm_sim::json;
pub use wm_target as target;
pub use wm_workloads as workloads;

pub use driver::{deadline_token, JobError, JobSpec};
pub use wm_machines::{MachineModel, ScalarMachine, ScalarResult};
pub use wm_opt::{OptOptions, OptStats};
pub use wm_sim::{MemModel, RunResult, WmConfig, WmMachine};
pub use wm_workloads::Workload;

use wm_ir::Module;

/// Which machine the pipeline generates code for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Target {
    /// The WM access/execute architecture (loads through FIFOs, streams).
    #[default]
    Wm,
    /// A generic scalar load/store machine (Table I's comparison targets).
    Scalar,
}

/// A compilation failure from any pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Lexical, syntactic or semantic error in the source.
    Frontend(wm_frontend::CompileError),
    /// Register allocation failure.
    Alloc(wm_target::AllocError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Frontend(e) => write!(f, "{e}"),
            Error::Alloc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Frontend(e) => Some(e),
            Error::Alloc(e) => Some(e),
        }
    }
}

impl From<wm_frontend::CompileError> for Error {
    fn from(e: wm_frontend::CompileError) -> Error {
        Error::Frontend(e)
    }
}

impl From<wm_target::AllocError> for Error {
    fn from(e: wm_target::AllocError) -> Error {
        Error::Alloc(e)
    }
}

/// The compilation pipeline: front end → optimizer → target expansion →
/// target optimizer → register allocation.
///
/// Mirrors the paper's structure: "the front end generates naive but
/// correct code for a simple abstract machine", "all optimizations are
/// performed on object code (RTLs)", and the same optimizer retargets to
/// the WM or to scalar machines.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    options: OptOptions,
    target: Target,
}

impl Compiler {
    /// A compiler for the WM with every optimization enabled.
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Use the given optimizer options.
    pub fn options(mut self, options: OptOptions) -> Compiler {
        self.options = options;
        self
    }

    /// Generate code for `target`.
    pub fn target(mut self, target: Target) -> Compiler {
        self.target = target;
        self
    }

    /// Compile mini-C `source` down to allocated machine code.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for source errors or allocation failures.
    pub fn compile(&self, source: &str) -> Result<Compiled, Error> {
        let mut module = wm_frontend::compile(source)?;
        // Global extents feed the streaming pass's over-fetch analysis
        // (computed up front: the per-function loop borrows mutably).
        let extents = wm_opt::GlobalExtents::of_module(&module);
        // Stage 1: generic (pre-expansion) optimization of every
        // function — the recurrence pass in particular must run before
        // partitioning so a converted recurrence is a carried *scalar*
        // the partitioner can chain tile-to-tile.
        let mut stats = Vec::new();
        for f in module.functions.iter_mut() {
            let s = wm_opt::optimize_generic(f, &self.options);
            stats.push((f.name.clone(), s));
        }
        // Stage 2: the module-level tile-partitioning pass, which may
        // add `__tileK_main` clones that stage 3 then lowers like any
        // other function.
        let tiling =
            if self.target == Target::Wm && self.options.partition && self.options.tiles > 1 {
                wm_opt::partition_tiles(&mut module, "main", self.options.tiles)
            } else {
                None
            };
        // Stage 3: per-function target expansion, target optimization
        // and register allocation.
        for f in module.functions.iter_mut() {
            match self.target {
                Target::Wm => {
                    wm_target::expand_wm(f);
                    let s2 = wm_opt::optimize_wm_with(f, &self.options, &extents);
                    if let Some((_, s)) = stats.iter_mut().find(|(n, _)| *n == f.name) {
                        s.streaming = s2.streaming;
                        s.vector = s2.vector;
                        s.modulo = s2.modulo;
                        s.iterations += s2.iterations;
                        s.capped += s2.capped;
                    } else {
                        stats.push((f.name.clone(), s2));
                    }
                    wm_target::allocate_registers(f, wm_target::TargetKind::Wm)?;
                }
                Target::Scalar => {
                    if self.options.classical {
                        wm_target::strength_reduce(f, self.options.alias);
                        wm_target::select_auto_increment(f);
                    }
                    wm_target::allocate_registers(f, wm_target::TargetKind::Scalar)?;
                }
            }
        }
        Ok(Compiled {
            module,
            target: self.target,
            stats,
            tiling,
        })
    }
}

/// A compiled module plus per-function optimizer reports.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The compiled module.
    pub module: Module,
    /// The target it was compiled for.
    pub target: Target,
    /// What the tile-partitioning pass did, when it ran and succeeded.
    pub tiling: Option<wm_opt::TileReport>,
    /// Per-function optimizer statistics `(name, stats)`.
    pub stats: Vec<(String, OptStats)>,
}

impl Compiled {
    /// Run on the WM cycle simulator with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults/deadlocks/timeouts.
    pub fn run_wm(&self, entry: &str, args: &[i64]) -> Result<RunResult, wm_sim::SimError> {
        self.run_wm_config(entry, args, &WmConfig::default())
    }

    /// Run on the WM cycle simulator with an explicit configuration, via
    /// [`wm_sim::TiledMachine::run`] (one host thread per available CPU):
    /// tile 0's architectural results with the global cycle count, and
    /// the plain single-core path at `tiles == 1`.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults/deadlocks/timeouts.
    pub fn run_wm_config(
        &self,
        entry: &str,
        args: &[i64],
        config: &WmConfig,
    ) -> Result<RunResult, wm_sim::SimError> {
        wm_sim::TiledMachine::run(&self.module, entry, args, config, 0)
            .map(wm_sim::TiledRunResult::into_primary)
    }

    /// Run on a scalar machine model.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults.
    pub fn run_scalar(
        &self,
        entry: &str,
        args: &[i64],
        model: &MachineModel,
    ) -> Result<ScalarResult, wm_machines::ScalarError> {
        ScalarMachine::run(&self.module, entry, args, model)
    }

    /// Paper-style listing of one function.
    pub fn listing(&self, name: &str) -> Option<String> {
        self.module
            .function_named(name)
            .map(|f| f.display(Some(&self.module)).to_string())
    }

    /// The optimizer report for one function.
    pub fn stats_for(&self, name: &str) -> Option<&OptStats> {
        self.stats.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wm_pipeline_end_to_end() {
        let c = Compiler::new()
            .compile(
                "int main() { int i; int s; s = 0; for (i = 0; i < 9; i++) s += i; return s; }",
            )
            .unwrap();
        assert_eq!(c.run_wm("main", &[]).unwrap().ret_int, 36);
    }

    #[test]
    fn scalar_pipeline_end_to_end() {
        let c = Compiler::new()
            .target(Target::Scalar)
            .compile("int main() { return 5 * 5; }")
            .unwrap();
        let r = c
            .run_scalar("main", &[], &MachineModel::vax_8600())
            .unwrap();
        assert_eq!(r.ret_int, 25);
    }

    #[test]
    fn errors_are_propagated() {
        let err = Compiler::new()
            .compile("int main() { return x; }")
            .unwrap_err();
        assert!(matches!(err, Error::Frontend(_)));
        assert!(err.to_string().contains("unknown variable"));
    }

    #[test]
    fn listings_are_available() {
        let c = Compiler::new()
            .compile("double f(double a) { return a * 2.0; }")
            .unwrap();
        let l = c.listing("f").unwrap();
        assert!(l.contains("_f:"));
        assert!(c.listing("missing").is_none());
    }

    #[test]
    fn oob_scalar_store_faults_precisely_at_full_opt() {
        // u[7] lands in the guard red-zone after int u[4]; the fault names
        // the unit, the address and the instruction, and carries a
        // machine-state dump — under the default and an injected config
        let c = Compiler::new()
            .compile("int u[4]; int main() { u[7] = 5; return 0; }")
            .unwrap();
        let configs = [
            WmConfig::default(),
            WmConfig::default()
                .with_fault_plan(wm_sim::FaultPlan::parse("jitter:3:7,delay:1:20").unwrap()),
        ];
        for cfg in configs {
            let err = c.run_wm_config("main", &[], &cfg).unwrap_err();
            let fault = err.fault().unwrap_or_else(|| panic!("fault, got {err}"));
            assert_eq!(fault.unit, wm_sim::FaultUnit::Ieu);
            assert_eq!(fault.addr, Some(wm_sim::DATA_BASE + 28));
            assert!(fault.inst.is_some(), "instruction attributed");
            assert!(fault.detail.contains("u"), "global named: {}", fault.detail);
            let state = err.state().expect("machine-state dump");
            assert!(state.to_string().contains("machine state at cycle"));
        }
    }

    /// Stores an array, then scans it for a sentinel in its last element:
    /// under `speculative_streams` the scan streams past the array and
    /// squashes the stream at the exit.
    pub(crate) const SENTINEL_SCAN: &str = r"
        int a[16];
        int main() {
            int i;
            for (i = 0; i < 16; i++) a[i] = 1;
            a[15] = 8;
            i = 0;
            while (a[i] != 8) i = i + 1;
            return i;
        }";

    #[test]
    fn sentinel_scan_over_exact_array_runs_at_full_opt() {
        // The sentinel sits in the last element, so a streamed scan
        // prefetches past the array. Default full opt degrades the scan to
        // scalar; --speculative-streams keeps the stream and relies on the
        // machine's poison semantics. Both must return the right answer —
        // never a spurious fault.
        let c = Compiler::new().compile(SENTINEL_SCAN).unwrap();
        assert_eq!(
            c.run_wm("main", &[]).expect("degraded scan runs").ret_int,
            15
        );
        let s = c.stats_for("main").unwrap();
        assert!(s.streaming.overfetch_degraded >= 1, "{:?}", s.streaming);

        let spec = Compiler::new()
            .options(OptOptions::all().with_speculative_streams())
            .compile(SENTINEL_SCAN)
            .unwrap();
        assert_eq!(
            spec.run_wm("main", &[])
                .expect("poisoned scan runs")
                .ret_int,
            15
        );
        let s = spec.stats_for("main").unwrap();
        assert!(s.streaming.overfetch_speculated >= 1, "{:?}", s.streaming);
    }

    #[test]
    fn stats_report_streaming() {
        let c = Compiler::new()
            .compile(
                r"
                double a[100]; double b[100];
                int main() {
                    int i;
                    for (i = 0; i < 100; i++) a[i] = 1.0;
                    for (i = 0; i < 100; i++) b[i] = a[i] * 2.0;
                    return 0;
                }",
            )
            .unwrap();
        let s = c.stats_for("main").unwrap();
        assert!(s.streaming.streams_in >= 1);
        assert!(s.streaming.streams_out >= 1);
    }
}
