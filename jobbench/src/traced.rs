//! The traced run: the pipeline's layer functions called one by one, in
//! `Compiler::compile_inner`'s order, with a span around each call.
//!
//! Spans (name, start, end, parent, job) stay in memory and are written
//! out when the run ends. Counts from each layer's reports are recorded at
//! the same boundaries. [`equivalent`] is the drift guard: the traced
//! pipeline must give byte-identical listings to `Compiler::compile` and
//! the same results and counters as `JobSpec::run`, so the per-layer
//! numbers always describe the program the untraced run measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use wm_stream::frontend::Lexer;
use wm_stream::opt::{self, GlobalExtents, OptOptions};
use wm_stream::sim::{MemStats, Stats, TiledMachine};
use wm_stream::target::{self, TargetKind};
use wm_stream::{Compiled, JobSpec, RunResult, Target};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `opt.generic`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The job this call belongs to (shared by all its spans).
    pub job: u64,
}

static NEXT_JOB: AtomicU64 = AtomicU64::new(0);

/// Spans and counts of one worker thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    job: u64,
    open: Vec<usize>,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
    /// Layer counts, summed over jobs.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            job: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Start a new job: later spans carry a fresh job id.
    pub fn next_job(&mut self) {
        self.job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `v` to count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }
}

/// Static instructions of a compiled module.
pub fn static_insts(c: &Compiled) -> u64 {
    c.module
        .functions
        .iter()
        .map(|f| f.inst_count() as u64)
        .sum()
}

/// [`JobSpec::compile`] with every layer call timed: the WM arm of
/// `Compiler::compile_inner`, step by step. `optimize_wm_with` runs with
/// `modulo` off and `modulo_schedule` is called after it, as the pipeline
/// does last.
///
/// # Errors
///
/// Front-end and register-allocation failures, as the pipeline reports them.
pub fn compile(spec: &JobSpec, t: &mut Tracer) -> Result<Compiled, wm_stream::Error> {
    let opts = &spec.opts;
    let tokens = Lexer::new(&spec.source).tokenize().map_or(0, |v| v.len());
    let mut module = t.timed("frontend", || wm_stream::frontend::compile(&spec.source))?;
    t.count("frontend.tokens", tokens as f64);
    t.count(
        "frontend.ir_insts",
        module.functions.iter().map(|f| f.inst_count() as f64).sum(),
    );

    let extents = GlobalExtents::of_module(&module);
    let mut stats = Vec::new();
    for f in module.functions.iter_mut() {
        let s = t.timed("opt.generic", || opt::optimize_generic(f, opts));
        t.count("opt.generic_rounds", s.iterations as f64);
        t.count(
            "opt.recurrence_loads_eliminated",
            s.recurrence.loads_eliminated as f64,
        );
        stats.push((f.name.clone(), s));
    }
    let tiling = if opts.partition && opts.tiles > 1 {
        let r = t.timed("opt.partition", || {
            opt::partition_tiles(&mut module, "main", opts.tiles)
        });
        t.count("opt.partition_applied", f64::from(u8::from(r.is_some())));
        r
    } else {
        None
    };

    let greedy = OptOptions {
        modulo: false,
        ..opts.clone()
    };
    for f in module.functions.iter_mut() {
        t.timed("target.expand", || target::expand_wm(f));
        let mut s2 = t.timed("opt.wm", || opt::optimize_wm_with(f, &greedy, &extents));
        let s = &s2.streaming;
        t.count(
            "opt.streams",
            (s.streams_in + s.streams_out + s.gathers + s.scatters) as f64,
        );
        t.count("opt.streams_degraded", s.overfetch_degraded as f64);
        if opts.modulo {
            s2.modulo = t.timed("opt.modulo", || {
                opt::modulo::modulo_schedule(f, opts.modulo_budget, opts.modulo_mem_latency)
            });
            t.count("opt.modulo_loops_pipelined", f64::from(s2.modulo.pipelined));
            for l in s2.modulo.loops() {
                t.count("opt.modulo_loops", 1.0);
                t.count("opt.modulo_ii_over_mii", f64::from(l.ii) / f64::from(l.mii));
            }
        }
        if let Some((_, s)) = stats.iter_mut().find(|(n, _)| *n == f.name) {
            s.streaming = s2.streaming;
            s.vector = s2.vector;
            s.modulo = s2.modulo;
            s.iterations += s2.iterations;
        } else {
            stats.push((f.name.clone(), s2));
        }
        t.timed("target.regalloc", || {
            target::allocate_registers(f, TargetKind::Wm)
        })?;
    }
    let compiled = Compiled {
        module,
        target: Target::Wm,
        stats,
        tiling,
    };
    t.count("target.insts_out", static_insts(&compiled) as f64);
    Ok(compiled)
}

/// [`JobSpec::simulate`] with machine build and run timed apart.
/// `decoded_insts` is the size of the module's decoded dispatch table
/// (the caller measures it once per distinct job, outside the spans).
///
/// # Errors
///
/// Simulator faults, deadlocks and timeouts.
pub fn simulate(
    spec: &JobSpec,
    c: &Compiled,
    decoded_insts: usize,
    t: &mut Tracer,
) -> Result<RunResult, wm_stream::sim::SimError> {
    let tiles = spec.config.tiles;
    t.count("sim.decoded_insts", (decoded_insts * tiles) as f64);
    if tiles > 1 {
        let mut tm = t.timed("sim.build", || {
            let mut tm = TiledMachine::new(&c.module, &spec.config, spec.tile_threads)?;
            tm.start(&spec.entry, &spec.args).map(|()| tm)
        })?;
        let tr = t.timed("tiled.run", || tm.run_to_completion())?;
        let halts: Vec<f64> = tr.tiles.iter().map(|r| r.cycles as f64).collect();
        let max = halts.iter().copied().fold(0.0, f64::max);
        let min = halts.iter().copied().fold(f64::INFINITY, f64::min);
        t.count("tiled.jobs", 1.0);
        t.count(
            "tiled.imbalance",
            if max > 0.0 { (max - min) / max } else { 0.0 },
        );
        for r in &tr.tiles {
            record_perf(t, &r.perf, r.stats.instructions());
        }
        t.count("sim.cycles", tr.cycles as f64);
        return Ok(tr.into_primary());
    }
    let mut m = t.timed("sim.build", || spec.machine(c, None))?;
    let r = t.timed("sim.run", || m.run_to_completion())?;
    record_perf(t, &r.perf, r.stats.instructions());
    t.count("sim.cycles", r.cycles as f64);
    Ok(r)
}

fn record_perf(t: &mut Tracer, perf: &Stats, instructions: u64) {
    t.count("sim.instructions", instructions as f64);
    for (_, u) in perf.units() {
        t.count("sim.stalled", u.stalled() as f64);
        t.count("sim.attributed", u.attributed() as f64);
    }
    if let Some(m) = &perf.mem {
        let MemStats {
            hits,
            misses,
            sb_hits,
            sb_misses,
            row_hits,
            row_misses,
            bank_conflicts,
            ..
        } = *m;
        for (name, v) in [
            ("mem.l1_hits", hits),
            ("mem.l1_misses", misses),
            ("mem.sb_hits", sb_hits),
            ("mem.sb_misses", sb_misses),
            ("mem.row_hits", row_hits),
            ("mem.row_misses", row_misses),
            ("mem.bank_conflicts", bank_conflicts),
        ] {
            t.count(name, v as f64);
        }
    }
}

/// Everything of a compile (and run) that the drift guard compares.
pub fn fingerprint(c: &Compiled, run: Option<&RunResult>) -> String {
    let mut s = String::new();
    for f in &c.module.functions {
        let _ = write!(s, "{}", f.display(Some(&c.module)));
    }
    let _ = write!(s, "\n{:?}\n{:?}\n", c.stats, c.tiling);
    if let Some(r) = run {
        let _ = write!(
            s,
            "{} {} {:#x} {:?}\n{:?}\n{:?}",
            r.cycles,
            r.ret_int,
            r.ret_flt.to_bits(),
            r.output,
            r.stats,
            r.perf
        );
    }
    s
}

/// The drift guard for one job: the traced pipeline against the
/// untraced one, which goes through `JobSpec::compile` and
/// `JobSpec::simulate` — the two halves of `JobSpec::run`.
///
/// # Errors
///
/// Names the job and the first line on which the two differ.
pub fn equivalent(name: &str, traced: &str, untraced: &str) -> Result<(), String> {
    if traced == untraced {
        return Ok(());
    }
    let (line, (a, b)) = traced
        .lines()
        .zip(untraced.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map_or((0, ("<length>", "<length>")), |(i, p)| (i + 1, p));
    Err(format!(
        "{name}: traced pipeline differs from JobSpec at line {line}: `{a}` vs `{b}`"
    ))
}

/// Per-layer metrics from the spans and counts of a traced phase of
/// `jobs` jobs.
pub fn layer_metrics(tracers: &[Tracer], jobs: usize) -> BTreeMap<&'static str, f64> {
    let mut ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut n: BTreeMap<&'static str, f64> = BTreeMap::new();
    for t in tracers {
        for s in &t.spans {
            *ms.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        for (k, v) in &t.counts {
            *n.entry(k).or_insert(0.0) += v;
        }
    }
    let jobs = jobs.max(1) as f64;
    let t = |k: &str| ms.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| n.get(k).copied().unwrap_or(0.0);
    let per_job = |v: f64| v / jobs;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = BTreeMap::new();
    m.insert("frontend.ms", per_job(t("frontend")));
    m.insert(
        "frontend.tokens_per_ms",
        ratio(c("frontend.tokens"), t("frontend")),
    );
    m.insert("frontend.ir_insts", per_job(c("frontend.ir_insts")));
    m.insert("opt.generic_ms", per_job(t("opt.generic")));
    m.insert("opt.generic_rounds", per_job(c("opt.generic_rounds")));
    m.insert(
        "opt.recurrence_loads_eliminated",
        per_job(c("opt.recurrence_loads_eliminated")),
    );
    m.insert("opt.partition_ms", per_job(t("opt.partition")));
    m.insert("opt.partition_applied", per_job(c("opt.partition_applied")));
    m.insert("target.expand_ms", per_job(t("target.expand")));
    m.insert("opt.wm_ms", per_job(t("opt.wm")));
    m.insert("opt.streams", per_job(c("opt.streams")));
    m.insert("opt.streams_degraded", per_job(c("opt.streams_degraded")));
    m.insert("opt.modulo_ms", per_job(t("opt.modulo")));
    m.insert(
        "opt.modulo_loops_pipelined",
        per_job(c("opt.modulo_loops_pipelined")),
    );
    m.insert(
        "opt.modulo_ii_over_mii",
        ratio(c("opt.modulo_ii_over_mii"), c("opt.modulo_loops")),
    );
    m.insert("target.regalloc_ms", per_job(t("target.regalloc")));
    m.insert("target.insts_out", per_job(c("target.insts_out")));
    m.insert("sim.build_ms", per_job(t("sim.build")));
    m.insert("sim.decoded_insts", per_job(c("sim.decoded_insts")));
    let run_ms = t("sim.run") + t("tiled.run");
    m.insert("sim.run_ms", per_job(run_ms));
    m.insert("sim.mcycles_per_s", ratio(c("sim.cycles"), run_ms * 1e3));
    m.insert("sim.instructions", per_job(c("sim.instructions")));
    m.insert(
        "sim.stall_frac",
        ratio(c("sim.stalled"), c("sim.attributed")),
    );
    let hit_ratio = |h: &str, miss: &str| ratio(c(h), c(h) + c(miss));
    m.insert(
        "mem.l1_hit_ratio",
        hit_ratio("mem.l1_hits", "mem.l1_misses"),
    );
    m.insert(
        "mem.sb_hit_ratio",
        hit_ratio("mem.sb_hits", "mem.sb_misses"),
    );
    m.insert(
        "mem.row_hit_ratio",
        hit_ratio("mem.row_hits", "mem.row_misses"),
    );
    m.insert("mem.bank_conflicts", per_job(c("mem.bank_conflicts")));
    m.insert("tiled.run_ms", per_job(t("tiled.run")));
    m.insert(
        "tiled.imbalance",
        ratio(c("tiled.imbalance"), c("tiled.jobs")),
    );
    m
}

/// The spans of a run as one JSON document.
pub fn spans_json(tracers: &[Tracer]) -> String {
    let mut s = String::from("[\n");
    let mut first = true;
    for (thread, t) in tracers.iter().enumerate() {
        for (i, sp) in t.spans.iter().enumerate() {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"thread\": {thread}, \"span\": {i}, \"name\": \"{}\", \"job\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.name, sp.job, sp.start_ns, sp.end_ns
            );
        }
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(opts: OptOptions, config: wm_stream::WmConfig) -> JobSpec {
        let mut spec = JobSpec::new(
            wm_stream::workloads::all()
                .into_iter()
                .find(|w| w.name == "dot-product")
                .unwrap()
                .source,
        );
        spec.opts = opts.with_tiles(config.tiles);
        spec.config = config;
        spec.tile_threads = 2;
        spec
    }

    #[test]
    fn traced_pipeline_matches_jobspec() {
        let banked = wm_stream::MemModel::parse("banked").unwrap();
        let tiled = wm_stream::WmConfig::default()
            .with_mem_model(banked)
            .with_tiles(2);
        for spec in [
            job(
                OptOptions::all().with_modulo(),
                wm_stream::WmConfig::default(),
            ),
            job(OptOptions::all(), tiled),
        ] {
            let mut t = Tracer::new(Instant::now());
            t.next_job();
            let c = compile(&spec, &mut t).unwrap();
            let r = simulate(&spec, &c, 0, &mut t).unwrap();
            let reference = spec.compile().unwrap();
            let rr = spec.run(None).unwrap();
            equivalent(
                "dot-product",
                &fingerprint(&c, Some(&r)),
                &fingerprint(&reference, Some(&rr)),
            )
            .unwrap();
            assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
            let m = layer_metrics(&[t], 1);
            assert!(m["frontend.ms"] > 0.0 && m["sim.run_ms"] > 0.0);
        }
    }

    #[test]
    fn the_guard_names_the_first_differing_line() {
        assert!(equivalent("j", "a\nb", "a\nb").is_ok());
        let e = equivalent("j", "a\nb\nc", "a\nx\nc").unwrap_err();
        assert!(e.contains("line 2") && e.contains("`b` vs `x`"), "{e}");
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("job");
        let inner = t.begin("frontend");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        let doc = wm_stream::json::parse(&spans_json(&[t])).unwrap();
        assert_eq!(doc.as_arr().unwrap().len(), 2);
    }
}
