//! Phase drivers.
//!
//! The paper's optimizer "uses the same representation for all phases",
//! which "allows optimization phases to be reinvoked at any time" and
//! "largely eliminates phase ordering problems". These drivers re-invoke
//! the classical phases to a fixed point around the two headline passes.

use wm_ir::Function;

use crate::partition::AliasModel;
use crate::phases;
use crate::recurrence::{optimize_recurrences, RecurrenceReport};
use crate::streaming::{optimize_streams, GlobalExtents, StreamingReport};

/// Optimizer configuration. The individual switches exist so benchmarks can
/// compare code generated "with and without" a given optimization, as the
/// paper's Tables I and II do.
#[derive(Debug, Clone)]
pub struct OptOptions {
    /// The classical phases: constant folding and algebraic
    /// simplification, copy and single-def constant propagation, local
    /// common-subexpression elimination, dead-code elimination,
    /// control-flow simplification, and on the scalar target strength
    /// reduction with auto-increment selection.
    pub classical: bool,
    /// Loop-invariant code motion.
    pub code_motion: bool,
    /// The recurrence detection and optimization algorithm (Table I).
    pub recurrence: bool,
    /// The streaming optimization algorithm (Table II); applies to the WM
    /// target only.
    pub streaming: bool,
    /// Dual-operation instruction combining (WM).
    pub dual_combine: bool,
    /// Vectorize elementwise map loops onto the VEU (off by default so the
    /// streaming measurements match the paper's; enable explicitly).
    pub vectorize: bool,
    /// Aliasing assumption used when partitioning memory references.
    pub alias: AliasModel,
    /// Keep streams the over-fetch analysis flags as able to run past
    /// their base global, relying on the machine's deferred-fault
    /// (poison) semantics; off by default, which degrades them to scalar
    /// references.
    pub speculative_streams: bool,
    /// Run the tile-partitioning pass ([`crate::tile::partition_tiles`])
    /// when compiling for a multi-tile machine. A no-op at `tiles == 1`.
    pub partition: bool,
    /// Number of tiles the partitioning pass splits the entry function's
    /// hottest qualifying loop across (1 = single-core, no partitioning).
    pub tiles: usize,
    /// Optimal software pipelining of streamed inner loops via the
    /// difference-logic solver (`-O modulo`; off by default — it is a
    /// code-motion trade the paper's tables do not include).
    pub modulo: bool,
    /// Solver conflict budget per candidate initiation interval. The
    /// budget is deterministic (no wall-clock component), so compilations
    /// are reproducible on any host.
    pub modulo_budget: u64,
    /// Load-to-pop latency in cycles modelled by the modulo scheduler
    /// (default: the default machine's, [`wm_ir::hw::MEM_LATENCY`]).
    pub modulo_mem_latency: i64,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            classical: true,
            code_motion: true,
            recurrence: true,
            streaming: true,
            dual_combine: true,
            vectorize: false,
            alias: AliasModel::Conservative,
            speculative_streams: false,
            partition: true,
            tiles: 1,
            modulo: false,
            modulo_budget: 20_000,
            modulo_mem_latency: wm_ir::hw::MEM_LATENCY as i64,
        }
    }
}

impl OptOptions {
    /// The optimization levels, weakest first, as `wmcc --opt` and the
    /// `wmd` job field `opt` spell them.
    pub const LEVELS: [&'static str; 5] = ["none", "classical", "recurrence", "full", "modulo"];

    /// Everything enabled (the default).
    pub fn all() -> OptOptions {
        OptOptions::default()
    }

    /// Everything disabled: the front end's naive code passes through.
    pub fn none() -> OptOptions {
        let mut o = OptOptions::default();
        o.set_rank(0);
        o
    }

    /// Switch to a named level of [`OptOptions::LEVELS`]: `none`,
    /// `classical` (no recurrence detection, no streaming), `recurrence`
    /// (no streaming), `full` or `modulo` (full plus software
    /// pipelining). Only the switches that tell the levels apart change,
    /// so every other setting keeps its value. Returns `false`, changing
    /// nothing, for any other name.
    #[must_use]
    pub fn set_level(&mut self, name: &str) -> bool {
        let Some(rank) = Self::LEVELS.iter().position(|&l| l == name) else {
            return false;
        };
        self.set_rank(rank);
        true
    }

    fn set_rank(&mut self, rank: usize) {
        self.classical = rank >= 1;
        self.code_motion = rank >= 1;
        self.dual_combine = rank >= 1;
        self.recurrence = rank >= 2;
        self.streaming = rank >= 3;
        self.modulo = rank >= 4;
    }

    /// Classical optimizations only — the baseline the paper compares
    /// against ("with and without recurrence detection enabled").
    pub fn without_recurrence(mut self) -> OptOptions {
        self.recurrence = false;
        self
    }

    /// Disable streaming — the Table II baseline.
    pub fn without_streaming(mut self) -> OptOptions {
        self.streaming = false;
        self
    }

    /// Assume distinct pointer bases do not alias.
    pub fn assume_noalias(mut self) -> OptOptions {
        self.alias = AliasModel::NoAlias;
        self
    }

    /// Enable VEU vectorization of map loops.
    pub fn with_vectorization(mut self) -> OptOptions {
        self.vectorize = true;
        self
    }

    /// Keep over-fetching streams, relying on deferred-fault semantics.
    pub fn with_speculative_streams(mut self) -> OptOptions {
        self.speculative_streams = true;
        self
    }

    /// Partition the entry function across `tiles` cores.
    pub fn with_tiles(mut self, tiles: usize) -> OptOptions {
        self.tiles = tiles;
        self
    }

    /// Enable solver-based optimal software pipelining of inner loops.
    pub fn with_modulo(mut self) -> OptOptions {
        self.modulo = true;
        self
    }
}

/// What the pipeline did.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptStats {
    /// Recurrence-pass report.
    pub recurrence: RecurrenceReport,
    /// Streaming-pass report.
    pub streaming: StreamingReport,
    /// Vectorizer report.
    pub vector: crate::vectorize::VectorReport,
    /// Modulo-scheduling report.
    pub modulo: crate::modulo::ModuloReport,
    /// Cleanup rounds that changed the function.
    pub iterations: usize,
    /// Fixpoint loops stopped by [`MAX_ROUNDS`] instead of at a round
    /// that changed nothing.
    pub capped: usize,
}

/// A phase the fixpoint driver runs: its name, which identifies it to
/// the skip rule, and its entry point, which reports whether it changed
/// the function.
pub type Phase = (&'static str, fn(&mut Function) -> bool);

/// The classical phases `cleanup` re-invokes, in order.
pub const CLEANUP: [Phase; 8] = [
    ("fold_constants", phases::fold_constants),
    ("fold_constant_branches", phases::fold_constant_branches),
    (
        "propagate_single_def_constants",
        phases::propagate_single_def_constants,
    ),
    ("propagate_copies", phases::propagate_copies),
    ("coalesce_copy_chains", phases::coalesce_copy_chains),
    (
        "eliminate_common_subexpressions",
        phases::eliminate_common_subexpressions,
    ),
    ("eliminate_dead_code", phases::eliminate_dead_code),
    ("simplify_cfg", phases::simplify_cfg),
];

/// Dual-operation combining, with dead-code elimination after each
/// sweep when the classical phases are on (the first entry alone when
/// they are off).
pub const COMBINE: [Phase; 2] = [
    ("combine_duals", phases::combine_duals),
    ("eliminate_dead_code", phases::eliminate_dead_code),
];

/// Rounds that change the function after which a fixpoint loop stops
/// anyway. A backstop: no loop reaches it on the workload suite.
pub const MAX_ROUNDS: usize = 12;

/// The driver of the pipeline's capped loops.
///
/// A phase's output depends only on the function, so a phase whose last
/// run changed nothing is skipped until something changes the function.
/// That is sound only because every call reports exactly whether it
/// changed the function: each [`Phase`], and each pass the pipeline
/// sequences between loops, through [`Fixpoint::record`]. A skipped call
/// could not have changed anything, so the result is the one running
/// every phase every round gives.
#[derive(Debug, Default)]
pub struct Fixpoint {
    /// Changes made so far: names the function's current state.
    generation: u64,
    /// Per phase, the generation its last run started from. While that
    /// is still the current one, the run changed nothing.
    idle: Vec<(&'static str, u64)>,
    /// Loops stopped by [`MAX_ROUNDS`].
    pub capped: usize,
}

impl Fixpoint {
    /// Note a call that changed the function if `changed`.
    pub fn record(&mut self, changed: bool) {
        self.generation += u64::from(changed);
    }

    /// Run `phases` in order, round after round, until a round changes
    /// nothing or [`MAX_ROUNDS`] rounds have changed something (counted
    /// in [`Fixpoint::capped`]). Returns the rounds that changed
    /// something.
    pub fn run(&mut self, func: &mut Function, phases: &[Phase]) -> usize {
        self.run_with(func, phases, |_, func, phase| phase(func))
    }

    /// [`Fixpoint::run`], making each phase call as `call(name, func,
    /// phase)` (a profiler times the calls this way).
    pub fn run_with(
        &mut self,
        func: &mut Function,
        phases: &[Phase],
        mut call: impl FnMut(&'static str, &mut Function, fn(&mut Function) -> bool) -> bool,
    ) -> usize {
        for rounds in 0..MAX_ROUNDS {
            let start = self.generation;
            for &(name, phase) in phases {
                let at = self.generation;
                if self.idle.contains(&(name, at)) {
                    continue;
                }
                let changed = call(name, func, phase);
                self.record(changed);
                match self.idle.iter_mut().find(|(n, _)| *n == name) {
                    Some(entry) => entry.1 = at,
                    None => self.idle.push((name, at)),
                }
            }
            if self.generation == start {
                return rounds;
            }
        }
        self.capped += 1;
        MAX_ROUNDS
    }

    /// The classical cleanup to a fixed point (nothing unless
    /// `opts.classical`); returns its changing rounds.
    fn cleanup(&mut self, func: &mut Function, opts: &OptOptions) -> usize {
        if opts.classical {
            self.run(func, &CLEANUP)
        } else {
            0
        }
    }
}

/// Optimize a function in its *generic* (pre-expansion) form: classical
/// cleanups, loop-invariant code motion, then the recurrence algorithm
/// followed by more cleanup (the paper notes copy propagation finishes the
/// job after the recurrence transformation).
pub fn optimize_generic(func: &mut Function, opts: &OptOptions) -> OptStats {
    let mut stats = OptStats::default();
    let mut fp = Fixpoint::default();
    stats.iterations += fp.cleanup(func, opts);
    if opts.code_motion {
        fp.record(phases::hoist_invariants(func));
        stats.iterations += fp.cleanup(func, opts);
    }
    if opts.recurrence {
        stats.recurrence = optimize_recurrences(func, opts.alias);
        fp.record(stats.recurrence.loops_transformed > 0);
        stats.iterations += fp.cleanup(func, opts);
    }
    stats.capped = fp.capped;
    stats
}

/// Optimize a function after WM target expansion: code motion over the
/// expanded form (hoisting `llh`/`sll` address formation), the streaming
/// algorithm, dual-operation combining, and final cleanup.
///
/// Without global-extent information the streaming pass skips its
/// over-fetch analysis; drivers that hold the whole [`wm_ir::Module`]
/// should call [`optimize_wm_with`] instead.
pub fn optimize_wm(func: &mut Function, opts: &OptOptions) -> OptStats {
    optimize_wm_with(func, opts, &GlobalExtents::empty())
}

/// [`optimize_wm`] with global extents for the over-fetch analysis.
pub fn optimize_wm_with(
    func: &mut Function,
    opts: &OptOptions,
    extents: &GlobalExtents,
) -> OptStats {
    let mut stats = OptStats::default();
    let mut fp = Fixpoint::default();
    if opts.code_motion {
        fp.record(phases::hoist_invariants(func));
    }
    stats.iterations += fp.cleanup(func, opts);
    if opts.classical {
        fp.record(phases::eliminate_dead_load_pairs(func));
    }
    if opts.vectorize {
        stats.vector = crate::vectorize::vectorize_maps(func, opts.alias);
        fp.record(stats.vector.loops_vectorized > 0);
        stats.iterations += fp.cleanup(func, opts);
    }
    if opts.streaming {
        stats.streaming = optimize_streams(func, opts.alias, extents, opts.speculative_streams);
        fp.record(stats.streaming.loops_streamed > 0);
        stats.iterations += fp.cleanup(func, opts);
    }
    if opts.dual_combine {
        let combine = if opts.classical {
            &COMBINE[..]
        } else {
            &COMBINE[..1]
        };
        fp.run(func, combine);
        stats.iterations += fp.cleanup(func, opts);
    }
    // Modulo scheduling runs last: it must see the final body shape
    // (post-combining), and no later phase may reorder its kernels.
    if opts.modulo {
        stats.modulo =
            crate::modulo::modulo_schedule(func, opts.modulo_budget, opts.modulo_mem_latency);
    }
    stats.capped = fp.capped;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_ir::InstKind;

    #[test]
    fn level_names_select_their_configurations() {
        let same = |name: &str, want: OptOptions| {
            // From every level, so no level leaves a switch of another.
            for from in OptOptions::LEVELS {
                let mut got = OptOptions::all();
                assert!(got.set_level(from));
                assert!(got.set_level(name));
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{from} -> {name}");
            }
        };
        same("none", OptOptions::none());
        same(
            "classical",
            OptOptions::all().without_recurrence().without_streaming(),
        );
        same("recurrence", OptOptions::all().without_streaming());
        same("full", OptOptions::all());
        same("modulo", OptOptions::all().with_modulo());
        let mut o = OptOptions::all();
        assert!(!o.set_level("O2"));
        assert_eq!(format!("{o:?}"), format!("{:?}", OptOptions::all()));
    }

    #[test]
    fn generic_pipeline_shrinks_livermore5() {
        let m = wm_frontend::compile(
            r"
            double x[1000]; double y[1000]; double z[1000];
            void loop5(int n) {
                int i;
                for (i = 2; i < n; i++)
                    x[i] = z[i] * (y[i] - x[i-1]);
            }
        ",
        )
        .unwrap();
        let mut f = m.function_named("loop5").unwrap().clone();
        let before = f.inst_count();
        let stats = optimize_generic(&mut f, &OptOptions::all());
        assert_eq!(stats.recurrence.loads_eliminated, 1);
        assert!(f.inst_count() <= before);
        // three memory references remain in total (preheader init load is
        // the 4th overall but the loop holds 3)
        let loads = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::GLoad { .. }))
            .count();
        assert_eq!(loads, 3, "z[i], y[i] in loop + x[1] initial");
    }

    #[test]
    fn disabled_pipeline_changes_nothing() {
        let m = wm_frontend::compile("int f(int a) { return a * 2 + 0; }").unwrap();
        let mut f = m.function_named("f").unwrap().clone();
        let before = f.clone();
        optimize_generic(&mut f, &OptOptions::none());
        assert_eq!(f, before);
    }

    #[test]
    fn option_builders() {
        let o = OptOptions::all().without_recurrence().assume_noalias();
        assert!(!o.recurrence);
        assert!(o.streaming);
        assert_eq!(o.alias, AliasModel::NoAlias);
        let o = OptOptions::all().without_streaming();
        assert!(!o.streaming);
        assert!(!o.modulo, "modulo scheduling is opt-in");
        let o = OptOptions::all().with_modulo();
        assert!(o.modulo);
        assert!(o.modulo_budget > 0);
    }
}
