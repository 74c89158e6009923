//! `perf` — simulator benchmark runner and regression gate.
//!
//! Runs the workload suite on the WM simulator under four optimizer
//! configurations (scalar = classical optimizations only, recurrence,
//! streaming, and modulo = streaming + the solver-based software
//! pipeliner, whose greedy-vs-optimal cycle delta is the streaming−modulo
//! row difference) and writes `BENCH_sim.json`: per run, the simulated cycle
//! count, the simulator's own wall-clock time (median of `--reps`
//! measured runs after one warmup), and the full performance counters
//! from the [`wm_stream::sim::Stats`] layer. The document's top level
//! sums the wall times as `total_wall_ms` and, for an in-process run,
//! divides them by the summed cycles as `ns_per_cycle`, host time per
//! simulated cycle; the summary line prints it too.
//!
//! ```text
//! perf                             run the full suite, write BENCH_sim.json
//! perf --fast                      fast subset (most CI sim-matrix legs)
//! perf --sparse                    the sparse (gather/scatter) kernels only
//!                                  (the CI sim-matrix sparse legs)
//! perf --wmd BIN                   run the suite as a client of the `wmd`
//!                                  daemon at BIN instead of in-process:
//!                                  cold runs populate the daemon's artifact
//!                                  cache, repeat runs must hit it with
//!                                  bit-identical results; throughput and
//!                                  cache hit rate land in the output meta
//! perf --jobs N                    run workload×config pairs on N threads
//!                                  (default: one per available CPU; the
//!                                  effective value lands in the output meta)
//! perf --tiles N                   compile with the tile-partitioning pass
//!                                  and simulate on N cores (default 1; the
//!                                  single-tile path is byte-identical to
//!                                  not passing the flag)
//! perf --reps N                    median wall-time of N measured runs after
//!                                  one untimed warmup (default 3)
//! perf --engine NAME               simulation engine: compiled (default)
//!                                  or cycle (the per-cycle reference)
//! perf --hw default|latency24      hardware model (latency24 = 24-cycle
//!                                  memory, one port: the degraded config)
//! perf --mem MODEL                 memory-system model (flat, cache[:k=v,..]
//!                                  or banked[:k=v,..]; see `wmcc --help`)
//! perf --out FILE                  write results to FILE instead
//! perf --check FILE                the gate. FILE is any document perf
//!                                  writes: a baseline or an --out run.
//!                                  Fail (exit 1) unless both cover the
//!                                  same workload×config pairs and every
//!                                  cycle count, static instruction count,
//!                                  code digest and counter digest both
//!                                  record for a pair matches exactly.
//!                                  Refused (exit 2) unless FILE records
//!                                  the run's leg
//! perf --write-baseline FILE       write the cycle, code and counter
//!                                  baseline for --check, with the run's leg
//! ```
//!
//! Each mismatch prints as `workload/config: field here vs there`; a
//! counter-digest mismatch also names the first counter that differs
//! when both documents carry the full counters (an `--out` run does, a
//! baseline does not). A `--wmd` run records cycles only, so the gate
//! compares nothing else for it.
//!
//! Every run that measures both the streaming and modulo configs also
//! gates the scheduler's never-worse contract: `-O modulo` falls back to
//! the greedy schedule loop-by-loop, so a modulo row with more cycles
//! than its streaming row on any workload fails the run (exit 1).
//!
//! A *leg* is one point of CI's sim-matrix: the suite, the `--hw` model,
//! the `--mem` spec and the tile count. Every leg has its own baseline,
//! `bench/baseline/<leg>.json`, which records the leg it pins. Cycle
//! counts, code and counters are engine-independent by design, so
//! `--check` works under either engine, and one engine's run checks the
//! other's. To re-baseline a leg
//! intentionally after a simulator change, run it with its own flags:
//!
//! ```text
//! cargo run --release -p wm-bench --bin perf -- --fast --hw latency24 --mem flat --tiles 1 \
//!     --write-baseline bench/baseline/latency24.json
//! ```

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wm_bench::reps::RepPlan;
use wm_stream::json::{self, Fixed, Layout, ToJson, Value, Writer};
use wm_stream::{Compiled, JobSpec, Workload};

struct RunRecord {
    workload: String,
    config: &'static str,
    cycles: u64,
    /// What the compiler emitted; `--wmd` runs record none.
    code: Option<Code>,
    wall_ms: f64,
    counters: String,
    /// A failure message when this pair did not produce a result (its
    /// worker panicked, or the daemon reported an error). Error rows
    /// carry no cycles, so the gates compare nothing for them; their
    /// presence makes the run exit nonzero after the document is written.
    error: Option<String>,
}

/// What the compiler emitted for one pair: the static instruction count
/// and a 64-bit FNV-1a digest of the listing `wmcc --emit` prints.
#[derive(Clone, Copy)]
struct Code {
    insts: u64,
    fnv1a: u64,
}

impl Code {
    fn of(compiled: &Compiled) -> Code {
        let module = &compiled.module;
        let mut listing = String::new();
        for f in &module.functions {
            writeln!(listing, "{}", f.display(Some(module))).expect("writing to a String");
        }
        Code {
            insts: module.functions.iter().map(|f| f.inst_count() as u64).sum(),
            fnv1a: fnv1a(listing.as_bytes()),
        }
    }
}

/// The 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Client-side summary of a `--wmd` run, recorded in the output meta.
struct WmdStats {
    jobs_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Everything recorded at the top level of the results document.
struct Meta {
    /// The machine settings (`--engine`, `--mem`, `--tiles`, `--hw`) and
    /// `noalias`, applied through [`JobSpec::set`]; each config sets its
    /// own `opt` level on a copy.
    job: JobSpec,
    hw: Hw,
    reps: usize,
    jobs: usize,
    wmd: Option<WmdStats>,
}

/// A `--hw` model: its name and the job settings it applies, to the
/// in-process runs and to every `--wmd` request alike.
type Hw = (&'static str, &'static [(&'static str, u64)]);

const HW_MODELS: [Hw; 2] = [
    // The default WM implementation parameters.
    ("default", &[]),
    // The latency-dominated degraded configuration: 24-cycle memory, a
    // single memory port.
    ("latency24", &[("mem_latency", 24), ("mem_ports", 1)]),
];

/// Each config's name and its `opt` level. Every config is compiled with
/// `noalias`, Table II's compilation model on both sides, so the
/// streaming config actually streams the pointer-based programs. The
/// modulo config is streaming plus the solver-based software pipeliner;
/// the greedy-vs-optimal delta is their row difference.
const CONFIGS: [(&str, &str); 4] = [
    ("scalar", "classical"),
    ("recurrence", "recurrence"),
    ("streaming", "full"),
    ("modulo", "modulo"),
];

/// Every workload×config pair of a suite: the workload, the config's
/// name and its `opt` level.
fn pairs(sel: SuiteSel) -> Vec<(Workload, &'static str, &'static str)> {
    suite(sel)
        .into_iter()
        .flat_map(|w| CONFIGS.map(|(name, level)| (w, name, level)))
        .collect()
}

/// Which workload set a run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SuiteSel {
    /// Livermore 5 plus all of Table II.
    Full,
    /// The CI subset: the Table I headline plus the quick Table II
    /// programs; together they finish in seconds in release.
    Fast,
    /// The sparse (indirect-stream) kernels only: the CI `sim-matrix`
    /// sparse legs' set, where gathers and scatters dominate.
    Sparse,
}

impl SuiteSel {
    /// The suite's name in a [`Leg`], and its flag (`--fast`, `--sparse`;
    /// the full suite is the default and has none).
    fn name(self) -> &'static str {
        match self {
            SuiteSel::Full => "full",
            SuiteSel::Fast => "fast",
            SuiteSel::Sparse => "sparse",
        }
    }
}

/// The point of the run space a baseline pins: suite, `--hw` model,
/// canonical `--mem` spec and tile count. Runs of one leg agree on every
/// cycle, code and counter pin under either engine.
#[derive(Debug, PartialEq)]
struct Leg {
    suite: String,
    hw: String,
    mem: String,
    tiles: u64,
}

impl Leg {
    fn of(sel: SuiteSel, meta: &Meta) -> Leg {
        Leg {
            suite: sel.name().to_string(),
            hw: meta.hw.0.to_string(),
            mem: meta.job.config.mem_model.to_string(),
            tiles: meta.job.config.tiles as u64,
        }
    }

    /// The leg a document records.
    fn parse(doc: &Value) -> Result<Leg, String> {
        let leg = doc.get("leg").ok_or("no \"leg\" recorded")?;
        let field = |k: &str| {
            leg.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("the leg has no \"{k}\""))
        };
        Ok(Leg {
            suite: field("suite")?,
            hw: field("hw")?,
            mem: field("mem")?,
            tiles: leg
                .get("tiles")
                .and_then(Value::as_u64)
                .ok_or("the leg has no \"tiles\"")?,
        })
    }

    /// The `perf` flags that select this leg.
    fn flags(&self) -> String {
        let suite = match self.suite.as_str() {
            "full" => String::new(),
            s => format!("--{s} "),
        };
        format!(
            "{suite}--hw {} --mem {} --tiles {}",
            self.hw, self.mem, self.tiles
        )
    }
}

impl ToJson for Leg {
    fn write_json(&self, w: &mut Writer) {
        w.object(Layout::Inline, |w| {
            w.field("suite", &self.suite)
                .field("hw", &self.hw)
                .field("mem", &self.mem)
                .field("tiles", self.tiles);
        });
    }
}

fn suite(sel: SuiteSel) -> Vec<Workload> {
    if sel == SuiteSel::Sparse {
        return wm_stream::workloads::sparse();
    }
    let mut v = vec![wm_stream::workloads::livermore5()];
    if sel == SuiteSel::Fast {
        let keep = ["dot-product", "sieve", "iir", "dhrystone"];
        v.extend(
            wm_stream::workloads::table2()
                .into_iter()
                .filter(|w| keep.contains(&w.name)),
        );
    } else {
        v.extend(wm_stream::workloads::table2());
    }
    // The ordering-limited integer kernels, where the modulo config's
    // greedy-vs-optimal delta is visible; in the fast set too so the CI
    // gates cover the scheduler's strict wins.
    v.push(wm_stream::workloads::od_kernel());
    v.push(wm_stream::workloads::uuencode());
    v.push(wm_stream::workloads::smooth());
    v
}

/// Compile and run one workload×config pair, `meta`'s settings at `opt`
/// level `level`: one untimed warmup run, then exactly `plan.measured`
/// timed runs whose median wall time is reported (the warmup's wall is
/// never recorded — [`RepPlan::median`] asserts the count). Every run
/// must reproduce the warmup's cycle count (the simulator is
/// deterministic; anything else is a bug worth failing loudly on).
fn run_pair(
    w: &Workload,
    config: &'static str,
    level: &str,
    meta: &Meta,
    plan: RepPlan,
) -> (RunRecord, String) {
    let mut job = meta.job.clone();
    job.source = w.source.to_string();
    job.set("opt", level).expect("CONFIGS names opt levels");
    let compiled = job.compile().unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let run = || {
        let start = Instant::now();
        let r = job
            .simulate(&compiled, None)
            .unwrap_or_else(|e| panic!("{} ({config}): {e}", w.name));
        (r, start.elapsed().as_secs_f64() * 1e3)
    };
    let (warm, _warmup_wall) = run(); // warmup wall is deliberately dropped
    w.check(warm.ret_int);
    let mut walls = Vec::with_capacity(plan.measured);
    let mut result = warm;
    for _ in 0..plan.measured {
        let (r, wall) = run();
        assert_eq!(
            r.cycles, result.cycles,
            "{}/{config}: nondeterministic cycle count",
            w.name
        );
        walls.push(wall);
        result = r;
    }
    let wall_ms = plan.median(&mut walls);
    let line = format!(
        "perf: {:<12} {:<10} {:>10} cycles  {:>8.1} ms\n",
        w.name, config, result.cycles, wall_ms
    );
    let record = RunRecord {
        workload: w.name.to_string(),
        config,
        cycles: result.cycles,
        code: Some(Code::of(&compiled)),
        wall_ms,
        counters: result.perf.to_json(),
        error: None,
    };
    (record, line)
}

/// Run every workload×config pair on up to `jobs` worker threads. Work is
/// claimed from a shared index; results and log lines are re-sorted into
/// pair order afterwards so the output is deterministic regardless of
/// which thread finished first.
fn run_suite(sel: SuiteSel, meta: &Meta) -> Vec<RunRecord> {
    let plan = RepPlan::new(meta.reps).unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        std::process::exit(2);
    });
    let pairs = pairs(sel);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, RunRecord, String)>> = Mutex::new(Vec::new());
    let workers = meta.jobs.clamp(1, pairs.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((w, config, opt)) = pairs.get(i) else {
                    break;
                };
                // A panicking pair (compile failure, simulator fault,
                // wrong answer) must not abort the whole suite: catch it,
                // record an error row, and let this worker take the next
                // pair. The suite exits nonzero at the end if any row
                // carries an error.
                let (record, line) = match catch_unwind(AssertUnwindSafe(|| {
                    run_pair(w, config, opt, meta, plan)
                })) {
                    Ok(ok) => ok,
                    Err(p) => {
                        let msg = p
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                            .unwrap_or_else(|| "<non-string panic payload>".to_string());
                        let line = format!("perf: {:<12} {:<10} FAILED: {msg}\n", w.name, config);
                        (
                            RunRecord {
                                workload: w.name.to_string(),
                                config,
                                cycles: 0,
                                code: None,
                                wall_ms: 0.0,
                                counters: String::new(),
                                error: Some(msg),
                            },
                            line,
                        )
                    }
                };
                done.lock().unwrap().push((i, record, line));
            });
        }
    });
    let mut finished = done.into_inner().unwrap();
    finished.sort_by_key(|(i, _, _)| *i);
    finished
        .into_iter()
        .map(|(_, record, line)| {
            eprint!("{line}");
            record
        })
        .collect()
}

/// The request line for one workload at `opt` level `level` under
/// `--wmd`: the same settings the in-process path applies.
fn wmd_request(id: &str, w: &Workload, level: &str, meta: &Meta) -> String {
    let cfg = &meta.job.config;
    json::object(Layout::Inline, |j| {
        j.field("id", id)
            .field("source", w.source)
            .field("opt", level)
            .field("noalias", true)
            .field("engine", cfg.engine.name())
            .field("mem", cfg.mem_model.to_string());
        for &(name, value) in meta.hw.1 {
            j.field(name, value);
        }
        if cfg.tiles > 1 {
            j.field("tiles", cfg.tiles);
        }
    })
}

/// Run the suite as a client of the `wmd` daemon: spawn it with a fresh
/// cache directory, submit every pair cold (populating the cache), then
/// submit `reps` repeats that must be answered from the cache with
/// results bit-identical to the cold run. Cycle counts land in the same
/// records as the in-process path, so `--check` gates them against a
/// direct run or the leg's baseline exactly like engine-vs-engine
/// agreement.
fn run_suite_wmd(sel: SuiteSel, meta: &mut Meta, wmd_bin: &str) -> Vec<RunRecord> {
    let pairs = pairs(sel);
    let cache_dir = std::env::temp_dir().join(format!("wmd-perf-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut child = std::process::Command::new(wmd_bin)
        .args(["--jobs", &meta.jobs.to_string(), "--cache-dir"])
        .arg(&cache_dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("perf: cannot spawn wmd at {wmd_bin}: {e}");
            std::process::exit(2);
        });
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let started = Instant::now();
    let mut read_response = |expect_job: bool| -> Value {
        loop {
            let line = stdout
                .next()
                .unwrap_or_else(|| {
                    eprintln!("perf: wmd closed its stdout early");
                    std::process::exit(2);
                })
                .unwrap_or_else(|e| {
                    eprintln!("perf: reading from wmd: {e}");
                    std::process::exit(2);
                });
            let v = json::parse(&line).unwrap_or_else(|e| {
                eprintln!("perf: unparseable wmd response: {e}\n  {line}");
                std::process::exit(2);
            });
            if expect_job == v.get("op").is_none() {
                return v;
            }
            eprintln!("perf: ignoring out-of-band wmd line: {line}");
        }
    };

    // The pair a job response answers: its id is `<pair>:<rep>`.
    let pair_of = |v: &Value| -> usize {
        v.get("id")
            .and_then(Value::as_str)
            .and_then(|id| id.split(':').next()?.parse().ok())
            .expect("pair index id")
    };

    // Phase 1: every pair once, cold. Responses arrive in completion
    // order; collect them all before the repeat phase so the repeats
    // deterministically hit the now-populated cache.
    for (i, (w, _, level)) in pairs.iter().enumerate() {
        writeln!(stdin, "{}", wmd_request(&format!("{i}:0"), w, level, meta))
            .expect("write to wmd");
    }
    let mut cold: Vec<Option<Value>> = (0..pairs.len()).map(|_| None).collect();
    for _ in 0..pairs.len() {
        let v = read_response(true);
        let i = pair_of(&v);
        cold[i] = Some(v);
    }

    // Phase 2: `reps` repeats per pair, all answerable from the cache.
    for rep in 1..=meta.reps {
        for (i, (w, _, level)) in pairs.iter().enumerate() {
            writeln!(
                stdin,
                "{}",
                wmd_request(&format!("{i}:{rep}"), w, level, meta)
            )
            .expect("write to wmd");
        }
    }
    let mut repeats: Vec<Vec<Value>> = (0..pairs.len()).map(|_| Vec::new()).collect();
    for _ in 0..pairs.len() * meta.reps {
        let v = read_response(true);
        let i = pair_of(&v);
        repeats[i].push(v);
    }
    let elapsed = started.elapsed().as_secs_f64();

    let stats_request = json::object(Layout::Inline, |j| {
        j.field("op", "stats");
    });
    writeln!(stdin, "{stats_request}").expect("write to wmd");
    let stats = read_response(false);
    let counter = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0);
    meta.wmd = Some(WmdStats {
        jobs_per_sec: (pairs.len() * (meta.reps + 1)) as f64 / elapsed.max(1e-9),
        cache_hits: counter("cache_hits"),
        cache_misses: counter("cache_misses"),
    });
    drop(stdin);
    let status = child.wait().expect("wait for wmd");
    let _ = std::fs::remove_dir_all(&cache_dir);
    if !status.success() {
        eprintln!("perf: wmd exited with {status}");
        std::process::exit(2);
    }

    let mut records = Vec::with_capacity(pairs.len());
    for (i, (w, config, _)) in pairs.iter().enumerate() {
        let cold = cold[i].take().expect("one cold response per pair");
        let record = match cold.get("status").and_then(Value::as_str) {
            Some("ok") => {
                let result = cold.get("result").expect("ok responses carry a result");
                let cycles = result.get("cycles").and_then(Value::as_u64).unwrap();
                let ret = result.get("ret_int").and_then(Value::as_i64).unwrap();
                w.check(ret);
                // Every repeat must be bit-identical to the cold run —
                // same cycles, same counters, same everything. This is
                // the daemon-cache analogue of run_pair's determinism
                // assertion.
                for rep in &repeats[i] {
                    assert_eq!(
                        rep.get("result"),
                        Some(result),
                        "{}/{config}: cached result differs from cold run",
                        w.name
                    );
                }
                let wall_ms = cold.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
                eprintln!(
                    "perf: {:<12} {:<10} {:>10} cycles  {:>8.1} ms (wmd, {} repeats ok)",
                    w.name,
                    config,
                    cycles,
                    wall_ms,
                    repeats[i].len()
                );
                RunRecord {
                    workload: w.name.to_string(),
                    config,
                    cycles,
                    code: None,
                    wall_ms,
                    counters: String::new(),
                    error: None,
                }
            }
            _ => {
                let msg = format!("wmd error response: {cold:?}");
                eprintln!("perf: {:<12} {:<10} FAILED: {msg}", w.name, config);
                RunRecord {
                    workload: w.name.to_string(),
                    config,
                    cycles: 0,
                    code: None,
                    wall_ms: 0.0,
                    counters: String::new(),
                    error: Some(msg),
                }
            }
        };
        records.push(record);
    }
    records
}

fn results_json(
    records: &[RunRecord],
    with_counters: bool,
    leg: &Leg,
    meta: Option<&Meta>,
) -> String {
    json::object(Layout::Lines, |w| {
        w.field("schema", "wm-bench-perf-v1").field("leg", leg);
        if let Some(m) = meta {
            w.field("engine", m.job.config.engine.name())
                .field("hw", m.hw.0)
                .field("mem", m.job.config.mem_model.to_string())
                .field("reps", m.reps)
                .field("jobs", m.jobs)
                .field("tiles", m.job.config.tiles)
                .field("total_wall_ms", Fixed(total_wall_ms(records), 3));
            if let (None, Some(ns)) = (&m.wmd, ns_per_cycle(records)) {
                w.field("ns_per_cycle", Fixed(ns, 1));
            }
            if let Some(d) = &m.wmd {
                let lookups = d.cache_hits + d.cache_misses;
                let rate = if lookups > 0 {
                    d.cache_hits as f64 / lookups as f64
                } else {
                    0.0
                };
                w.key("wmd").object(Layout::Inline, |w| {
                    w.field("jobs_per_sec", Fixed(d.jobs_per_sec, 1))
                        .field("cache_hits", d.cache_hits)
                        .field("cache_misses", d.cache_misses)
                        .field("cache_hit_rate", Fixed(rate, 3));
                });
            }
        }
        w.key("results").array(Layout::Lines, |w| {
            for r in records {
                w.object(Layout::Inline, |w| {
                    w.field("workload", &r.workload).field("config", r.config);
                    if let Some(e) = &r.error {
                        w.field("error", e);
                        return;
                    }
                    w.field("cycles", r.cycles);
                    if let Some(code) = r.code {
                        w.field("insts", code.insts)
                            .field("code_fnv1a", format!("{:016x}", code.fnv1a));
                    }
                    if !r.counters.is_empty() {
                        let digest = fnv1a(r.counters.as_bytes());
                        w.field("counters_fnv1a", format!("{digest:016x}"));
                    }
                    w.field("wall_ms", Fixed(r.wall_ms, 3));
                    if with_counters {
                        // The counter document, as rendered and pinned.
                        w.key("counters").raw(r.counters.trim_end());
                    }
                });
            }
        });
    }) + "\n"
}

/// The summed wall time of the pairs that produced a result.
fn total_wall_ms(records: &[RunRecord]) -> f64 {
    records
        .iter()
        .filter(|r| r.error.is_none())
        .map(|r| r.wall_ms)
        .sum()
}

/// Host nanoseconds per simulated cycle: [`total_wall_ms`] over the
/// summed cycles of the same pairs. Only meaningful for in-process runs,
/// whose wall time is the simulator's alone; `None` when nothing ran.
fn ns_per_cycle(records: &[RunRecord]) -> Option<f64> {
    let cycles: u64 = records
        .iter()
        .filter(|r| r.error.is_none())
        .map(|r| r.cycles)
        .sum();
    (cycles > 0).then(|| total_wall_ms(records) * 1e6 / cycles as f64)
}

/// The fields the gate compares, for every pair, wherever both documents
/// record them: a `--wmd` run records only `cycles`.
const PINNED: [&str; 4] = ["cycles", "insts", "code_fnv1a", "counters_fnv1a"];

/// The other document of `--check`, parsed: any document `perf` writes,
/// provided it records this run's leg and names every result's pair.
fn parse_other(src: &str, leg: &Leg) -> Result<Value, String> {
    let doc = json::parse(src)?;
    rows(&doc)?;
    let other = Leg::parse(&doc)?;
    if other != *leg {
        return Err(format!(
            "this run's leg ({}) is not the one it records ({})",
            leg.flags(),
            other.flags()
        ));
    }
    Ok(doc)
}

/// The gate: every way this run's document `here` differs from `there`.
/// Both must cover the same workload×config pairs, and every [`PINNED`]
/// field both record for a pair must match exactly. A counter-digest
/// mismatch also names the first counter that differs, where both
/// documents carry the full `counters`.
fn check(here: &Value, there: &Value) -> Result<Vec<String>, String> {
    let (here, there) = (rows(here)?, rows(there)?);
    let mut mismatches = Vec::new();
    for (pair, h) in &here {
        let Some((_, t)) = there.iter().find(|(p, _)| p == pair) else {
            mismatches.push(format!("{pair}: missing there"));
            continue;
        };
        for field in PINNED {
            let (Some(a), Some(b)) = (h.get(field), t.get(field)) else {
                continue;
            };
            if a != b {
                let (x, y) = (show(Some(a)), show(Some(b)));
                let mut m = format!("{pair}: {field} {x} here vs {y} there");
                if let (Some(a), Some(b)) = (h.get("counters"), t.get("counters")) {
                    if let Some(d) = first_difference(a, b, "") {
                        write!(m, ", first at {d}").expect("writing to a String");
                    }
                }
                mismatches.push(m);
            }
        }
    }
    for (pair, _) in &there {
        if !here.iter().any(|(p, _)| p == pair) {
            mismatches.push(format!("{pair}: missing here"));
        }
    }
    Ok(mismatches)
}

/// The results of a document, each under its `workload/config` name.
fn rows(doc: &Value) -> Result<Vec<(String, &Value)>, String> {
    let rows = doc.get("results").and_then(Value::as_arr);
    rows.ok_or("no \"results\" array")?
        .iter()
        .map(|e| {
            let name = |k: &str| e.get(k).and_then(Value::as_str);
            match (name("workload"), name("config")) {
                (Some(w), Some(c)) => Ok((format!("{w}/{c}"), e)),
                _ => Err("a result names no workload and config".to_string()),
            }
        })
        .collect()
}

/// The modulo-scheduling invariant, gated on every run that measures
/// both configs: `-O modulo` falls back to the greedy schedule
/// loop-by-loop on UNSAT or budget exhaustion, so its cycle count can
/// never exceed the streaming (greedy) config's on any workload.
/// Violations are returned as failure lines.
fn modulo_gate(records: &[RunRecord]) -> Vec<String> {
    let cycles = |workload: &str, config: &str| -> Option<u64> {
        records
            .iter()
            .find(|r| r.workload == workload && r.config == config && r.error.is_none())
            .map(|r| r.cycles)
    };
    let mut failures = Vec::new();
    for r in records
        .iter()
        .filter(|r| r.config == "modulo" && r.error.is_none())
    {
        let Some(greedy) = cycles(&r.workload, "streaming") else {
            continue;
        };
        if r.cycles > greedy {
            failures.push(format!(
                "{}: modulo {} cycles vs greedy {} (the fallback guarantees never-worse)",
                r.workload, r.cycles, greedy
            ));
        }
    }
    failures
}

/// The first place, in key order, where two counter documents differ,
/// as `path: here vs there` (`units.IFU.stalls.cc-empty: 7 here vs 9
/// there`); `None` when they are equal.
fn first_difference(here: &Value, there: &Value, path: &str) -> Option<String> {
    let at = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (here, there) {
        (Value::Obj(a), Value::Obj(b)) => a
            .keys()
            .chain(b.keys().filter(|k| !a.contains_key(*k)))
            .find_map(|k| match (a.get(k), b.get(k)) {
                (Some(x), Some(y)) => first_difference(x, y, &at(k)),
                (x, y) => Some(format!("{}: {} here vs {} there", at(k), show(x), show(y))),
            }),
        (Value::Arr(a), Value::Arr(b)) if a.len() == b.len() => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]"))),
        _ if here == there => None,
        _ => Some(format!(
            "{path}: {} here vs {} there",
            show(Some(here)),
            show(Some(there))
        )),
    }
}

/// A counter value as a mismatch report shows it.
fn show(v: Option<&Value>) -> String {
    match v {
        None => "absent".to_string(),
        Some(Value::Num(n)) => n.to_string(),
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Arr(a)) => format!("{} cells", a.len()),
        Some(other) => format!("{other:?}"),
    }
}

/// Apply a job setting given on the command line; a bad value is a usage
/// error.
fn set(job: &mut JobSpec, name: &str, value: &str) {
    if let Err(e) = job.set(name, value) {
        eprintln!("perf: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let mut sel = SuiteSel::Full;
    let mut out = "BENCH_sim.json".to_string();
    let mut check_path: Option<String> = None;
    let mut baseline_out: Option<String> = None;
    let mut wmd_bin: Option<String> = None;
    let mut meta = Meta {
        job: JobSpec::new(String::new()),
        hw: HW_MODELS[0],
        reps: 3,
        jobs: 0, // 0 = auto: resolved to one per available CPU below
        wmd: None,
    };
    set(&mut meta.job, "noalias", "true");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("perf: missing argument value");
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--fast" => sel = SuiteSel::Fast,
            "--sparse" => sel = SuiteSel::Sparse,
            "--out" => out = need(&mut i),
            "--check" => check_path = Some(need(&mut i)),
            "--write-baseline" => baseline_out = Some(need(&mut i)),
            "--wmd" => wmd_bin = Some(need(&mut i)),
            "--engine" => set(&mut meta.job, "engine", &need(&mut i)),
            "--mem" => set(&mut meta.job, "mem", &need(&mut i)),
            "--tiles" => set(&mut meta.job, "tiles", &need(&mut i)),
            "--hw" => {
                let name = need(&mut i);
                meta.hw = *HW_MODELS.iter().find(|hw| hw.0 == name).unwrap_or_else(|| {
                    eprintln!("perf: unknown hw model `{name}` (expected default or latency24)");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                meta.reps = need(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("perf: --reps takes a positive integer");
                    std::process::exit(2);
                })
            }
            "--jobs" => {
                meta.jobs = need(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("perf: --jobs takes a positive integer");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "perf: unknown option {other}\n\
                     usage: perf [--fast|--sparse] [--jobs N] [--tiles N] [--reps N] [--engine cycle|compiled]\n\
                     [--hw default|latency24] [--mem flat|cache[:k=v,..]|banked[:k=v,..]]\n\
                     [--wmd BIN] [--out FILE] [--check FILE] [--write-baseline FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    for (name, value) in meta.hw.1 {
        set(&mut meta.job, name, &value.to_string());
    }
    let leg = Leg::of(sel, &meta);
    // Refuse a document of another leg before running anything.
    let other = check_path.map(|path| {
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|src| parse_other(&src, &leg))
            .unwrap_or_else(|e| {
                eprintln!("perf: --check {path}: {e}");
                std::process::exit(2);
            });
        (path, doc)
    });
    if meta.reps == 0 {
        eprintln!("perf: --reps must be at least 1");
        std::process::exit(2);
    }
    // --jobs defaults to one worker per available CPU; an explicit flag
    // overrides. The effective value is recorded in the output meta.
    if meta.jobs == 0 {
        meta.jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    }

    let records = match &wmd_bin {
        Some(bin) => run_suite_wmd(sel, &mut meta, bin),
        None => run_suite(sel, &meta),
    };

    // The daemon path records no per-run counters (the gate compares
    // cycles, which both paths carry).
    let with_counters = wmd_bin.is_none();
    let doc = results_json(&records, with_counters, &leg, Some(&meta));
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("perf: cannot write {out}: {e}");
        std::process::exit(2);
    }
    let per_cycle = match (&wmd_bin, ns_per_cycle(&records)) {
        (None, Some(ns)) => format!(", {ns:.1} ns per simulated cycle"),
        _ => String::new(),
    };
    eprintln!(
        "perf: wrote {} results to {out} (engine {}, hw {}, {} reps, {} jobs, {} tile(s){per_cycle})",
        records.len(),
        meta.job.config.engine,
        meta.hw.0,
        meta.reps,
        meta.jobs,
        meta.job.config.tiles
    );

    if let Some(path) = baseline_out {
        if let Err(e) = std::fs::write(&path, results_json(&records, false, &leg, None)) {
            eprintln!("perf: cannot write baseline {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("perf: wrote baseline to {path}");
    }

    if let Some((path, there)) = other {
        let here = json::parse(&doc).expect("perf parses what it writes");
        let mismatches = check(&here, &there).unwrap_or_else(|e| {
            eprintln!("perf: --check {path}: {e}");
            std::process::exit(2);
        });
        if !mismatches.is_empty() {
            for m in &mismatches {
                eprintln!("perf: MISMATCH {m}");
            }
            eprintln!(
                "perf: {} mismatch(es) vs {path}; to accept intentionally, re-baseline with:\n\
                 perf:   cargo run --release -p wm-bench --bin perf -- {} --write-baseline {path}",
                mismatches.len(),
                leg.flags()
            );
            std::process::exit(1);
        }
        eprintln!(
            "perf: --check passed: {path} has the same {} pairs, and every field both record matches",
            records.len()
        );
    }

    // Modulo scheduling's never-worse contract, gated unconditionally
    // whenever the run measured both the streaming and modulo configs.
    let modulo_failures = modulo_gate(&records);
    if !modulo_failures.is_empty() {
        for f in &modulo_failures {
            eprintln!("perf: MODULO REGRESSION {f}");
        }
        eprintln!(
            "perf: {} workload(s) where -O modulo is slower than greedy",
            modulo_failures.len()
        );
        std::process::exit(1);
    }

    let failed: Vec<&RunRecord> = records.iter().filter(|r| r.error.is_some()).collect();
    if !failed.is_empty() {
        for r in &failed {
            eprintln!(
                "perf: FAILED {}/{}: {}",
                r.workload,
                r.config,
                r.error.as_deref().unwrap_or("")
            );
        }
        eprintln!(
            "perf: {} of {} pairs failed (results written to {out} with error rows)",
            failed.len(),
            records.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &str = r#"{"cycles": 10, "units": {"IFU": {"idle": 3, "stalls": {"cc-empty": 7}}}, "fifos": {"ieu.cc": [4, 6]}}"#;

    /// One pair of a run that records code and counters (`code: false`:
    /// a `--wmd` run, which records cycles only).
    fn record(config: &'static str, counters: &str, code: bool) -> RunRecord {
        RunRecord {
            workload: "sieve".to_string(),
            config,
            cycles: 10,
            code: code.then_some(Code {
                insts: 5,
                fnv1a: 0xabc,
            }),
            wall_ms: 1.0,
            counters: counters.to_string(),
            error: None,
        }
    }

    fn run(counters: &str) -> Vec<RunRecord> {
        vec![
            record("scalar", counters, true),
            record("streaming", COUNTERS, true),
        ]
    }

    /// The document `perf` writes for `records`: an `--out` run with
    /// its full counters, or a baseline without them.
    fn written(records: &[RunRecord], with_counters: bool) -> Value {
        json::parse(&results_json(records, with_counters, &flat(), None)).unwrap()
    }

    /// `doc` with `field` of its `row`th result replaced by `value`.
    fn with(mut doc: Value, row: usize, field: &str, value: Value) -> Value {
        let Value::Obj(d) = &mut doc else { panic!() };
        let Some(Value::Arr(rows)) = d.get_mut("results") else {
            panic!()
        };
        let Value::Obj(r) = &mut rows[row] else {
            panic!()
        };
        r.insert(field.to_string(), value);
        doc
    }

    fn flat() -> Leg {
        Leg {
            suite: "fast".to_string(),
            hw: "default".to_string(),
            mem: "flat".to_string(),
            tiles: 1,
        }
    }

    #[test]
    fn a_document_records_the_leg_it_pins() {
        let leg = || Leg {
            hw: "latency24".to_string(),
            tiles: 2,
            ..flat()
        };
        let src = results_json(&run(COUNTERS), false, &leg(), None);
        assert_eq!(Leg::parse(&json::parse(&src).unwrap()), Ok(leg()));
        assert!(parse_other(&src, &leg()).is_ok());
        // a document of another leg is refused (exit 2), naming both legs
        assert_eq!(
            parse_other(&src, &flat()).unwrap_err(),
            "this run's leg (--fast --hw default --mem flat --tiles 1) is not the one it \
             records (--fast --hw latency24 --mem flat --tiles 2)"
        );
        // so is a document without a leg, or without its results
        assert!(parse_other(r#"{"results": []}"#, &flat()).is_err());
        assert!(parse_other(&src.replace("\"results\"", "\"rows\""), &leg()).is_err());
        let full = Leg {
            suite: "full".to_string(),
            ..flat()
        };
        assert_eq!(full.flags(), "--hw default --mem flat --tiles 1");
    }

    #[test]
    fn a_run_passes_against_itself_and_its_baseline() {
        let out = written(&run(COUNTERS), true);
        let baseline = written(&run(COUNTERS), false);
        let first = |doc: &Value| doc.get("results").unwrap().as_arr().unwrap()[0].clone();
        assert!(first(&out).get("counters").is_some());
        assert!(first(&baseline).get("counters").is_none());
        for (here, there) in [(&out, &out), (&out, &baseline), (&baseline, &out)] {
            assert_eq!(check(here, there), Ok(Vec::new()));
        }
    }

    #[test]
    fn every_pinned_field_must_match_exactly() {
        let here = written(&run(COUNTERS), true);
        let baseline = written(&run(COUNTERS), false);
        for (field, value, there) in [
            ("cycles", Value::Num(11.0), "11"),
            ("insts", Value::Num(6.0), "6"),
            (
                "code_fnv1a",
                Value::Str("0000000000000abd".into()),
                "0000000000000abd",
            ),
            ("counters_fnv1a", Value::Str("0123".into()), "0123"),
        ] {
            let ours = show(here.get("results").unwrap().as_arr().unwrap()[1].get(field));
            assert_eq!(
                check(&here, &with(baseline.clone(), 1, field, value)).unwrap(),
                [format!(
                    "sieve/streaming: {field} {ours} here vs {there} there"
                )]
            );
        }
    }

    #[test]
    fn both_documents_must_cover_the_same_pairs() {
        let both = written(&run(COUNTERS), false);
        let one = written(&run(COUNTERS)[..1], false);
        assert_eq!(
            check(&both, &one).unwrap(),
            ["sieve/streaming: missing there"]
        );
        assert_eq!(
            check(&one, &both).unwrap(),
            ["sieve/streaming: missing here"]
        );
    }

    #[test]
    fn a_counter_mismatch_names_the_first_counter_that_differs() {
        let here = written(&run(COUNTERS), true);
        for (there, path) in [
            (
                COUNTERS.replace("\"cc-empty\": 7", "\"cc-empty\": 6, \"sync\": 1"),
                "units.IFU.stalls.cc-empty: 7 here vs 6 there",
            ),
            (
                COUNTERS.replace("[4, 6]", "[5, 5]"),
                "fifos.ieu.cc[0]: 4 here vs 5 there",
            ),
            (
                COUNTERS.replace("\"idle\": 3", "\"idle\": 3, \"retired\": 1"),
                "units.IFU.retired: absent here vs 1 there",
            ),
        ] {
            let (a, b) = (fnv1a(COUNTERS.as_bytes()), fnv1a(there.as_bytes()));
            assert_eq!(
                check(&here, &written(&run(&there), true)).unwrap(),
                [format!(
                    "sieve/scalar: counters_fnv1a {a:016x} here vs {b:016x} there, first at {path}"
                )]
            );
        }
    }

    #[test]
    fn a_wmd_run_is_gated_on_cycles_alone() {
        let wmd = written(&[record("scalar", "", false)], false);
        let row = &wmd.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("insts").or(row.get("counters_fnv1a")), None);
        let baseline = written(&run(COUNTERS)[..1], false);
        assert_eq!(check(&wmd, &baseline), Ok(Vec::new()));
        let slower = with(baseline, 0, "cycles", Value::Num(9.0));
        assert_eq!(
            check(&wmd, &slower).unwrap(),
            ["sieve/scalar: cycles 10 here vs 9 there"]
        );
    }

    #[test]
    fn ns_per_cycle_is_wall_time_over_cycles_for_in_process_runs() {
        let mut meta = Meta {
            job: JobSpec::new(String::new()),
            hw: HW_MODELS[0],
            reps: 1,
            jobs: 1,
            wmd: None,
        };
        let mut records = run(COUNTERS);
        // an error row adds neither wall time nor cycles
        records.push(RunRecord {
            cycles: 0,
            wall_ms: 0.0,
            error: Some("panicked".to_string()),
            ..record("modulo", "", false)
        });
        let doc =
            |meta: &Meta| json::parse(&results_json(&records, false, &flat(), Some(meta))).unwrap();
        // 2 ms over 20 cycles
        let here = doc(&meta);
        assert_eq!(here.get("ns_per_cycle"), Some(&Value::Num(100_000.0)));
        assert_eq!(check(&here, &written(&records, false)), Ok(Vec::new()));
        // a --wmd run's wall time is the daemon's, so it records none
        meta.wmd = Some(WmdStats {
            jobs_per_sec: 1.0,
            cache_hits: 0,
            cache_misses: 2,
        });
        assert_eq!(doc(&meta).get("ns_per_cycle"), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
