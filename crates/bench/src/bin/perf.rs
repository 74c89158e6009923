//! `perf` — simulator benchmark runner and regression gate.
//!
//! Runs the workload suite on the WM simulator under four optimizer
//! configurations (scalar = classical optimizations only, recurrence,
//! streaming, and modulo = streaming + the solver-based software
//! pipeliner, whose greedy-vs-optimal cycle delta is the streaming−modulo
//! row difference) and writes `BENCH_sim.json`: per run, the simulated cycle
//! count, the simulator's own wall-clock time (median of `--reps`
//! measured runs after one warmup), and the full performance counters
//! from the [`wm_stream::sim::Stats`] layer.
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
//! perf --check BASELINE            fail (exit 1) if any workload's cycles
//!                                  regressed >2% against the baseline, or
//!                                  if its emitted code (static instruction
//!                                  count and listing digest) or its
//!                                  counter document's digest differs where
//!                                  the baseline records them; a failure
//!                                  prints every pair's cycle delta
//!                                  (baseline/now/%) to localize the damage.
//!                                  Refused (exit 2) unless the run's leg
//!                                  is the baseline's
//! perf --compare FILE              fail (exit 1) unless every cycle count,
//!                                  and every counter where both runs
//!                                  record them, matches FILE exactly (the
//!                                  engine-equivalence gate); records the
//!                                  wall-time speedup vs FILE in the output
//! perf --write-baseline FILE       write the cycle, code and counter
//!                                  baseline for --check, with the run's leg
//! ```
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
//! `--check` works under either engine. To re-baseline a leg
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

use wm_bench::json::{self, Value};
use wm_bench::reps::RepPlan;
use wm_stream::{Compiled, JobSpec, Workload};

/// Allowed cycle-count growth before `--check` fails, as a fraction.
const TOLERANCE: f64 = 0.02;

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
    /// carry no cycles and are excluded from gates; their presence makes
    /// the run exit nonzero after the document is written.
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

    /// As `check` reports it: `412 insts (fnv1a 0123456789abcdef)`.
    fn describe(insts: u64, fnv1a: &str) -> String {
        format!("{insts} insts (fnv1a {fnv1a})")
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

    /// The leg a baseline document records.
    fn parse(doc: &Value) -> Result<Leg, String> {
        let leg = doc.get("leg").ok_or("baseline records no \"leg\"")?;
        let field = |k: &str| {
            leg.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline leg has no \"{k}\""))
        };
        Ok(Leg {
            suite: field("suite")?,
            hw: field("hw")?,
            mem: field("mem")?,
            tiles: leg
                .get("tiles")
                .and_then(Value::as_u64)
                .ok_or("baseline leg has no \"tiles\"")?,
        })
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"suite\": \"{}\", \"hw\": \"{}\", \"mem\": \"{}\", \"tiles\": {}}}",
            self.suite, self.hw, self.mem, self.tiles
        )
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
    let mut req = format!(
        "{{\"id\": \"{id}\", \"source\": \"{}\", \"opt\": \"{level}\", \"noalias\": true, \
         \"engine\": \"{}\", \"mem\": \"{}\"",
        json::escape(w.source),
        cfg.engine,
        cfg.mem_model
    );
    for (name, value) in meta.hw.1 {
        req.push_str(&format!(", \"{name}\": {value}"));
    }
    if cfg.tiles > 1 {
        req.push_str(&format!(", \"tiles\": {}", cfg.tiles));
    }
    req.push('}');
    req
}

/// Run the suite as a client of the `wmd` daemon: spawn it with a fresh
/// cache directory, submit every pair cold (populating the cache), then
/// submit `reps` repeats that must be answered from the cache with
/// results bit-identical to the cold run. Cycle counts land in the same
/// records as the in-process path, so `--compare` gates daemon-vs-direct
/// agreement exactly like engine-vs-engine agreement.
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
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let i: usize = id
            .split(':')
            .next()
            .unwrap()
            .parse()
            .expect("pair index id");
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
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let i: usize = id
            .split(':')
            .next()
            .unwrap()
            .parse()
            .expect("pair index id");
        repeats[i].push(v);
    }
    let elapsed = started.elapsed().as_secs_f64();

    writeln!(stdin, "{{\"op\": \"stats\"}}").expect("write to wmd");
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
    meta: Option<(&Meta, Option<f64>)>,
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"wm-bench-perf-v1\",\n  \"leg\": {},\n",
        leg.to_json()
    );
    if let Some((m, speedup)) = meta {
        out.push_str(&format!(
            "  \"engine\": \"{}\",\n  \"hw\": \"{}\",\n  \"mem\": \"{}\",\n  \
             \"reps\": {},\n  \"jobs\": {},\n  \"tiles\": {},\n",
            m.job.config.engine, m.hw.0, m.job.config.mem_model, m.reps, m.jobs, m.job.config.tiles
        ));
        let total: f64 = records
            .iter()
            .filter(|r| r.error.is_none())
            .map(|r| r.wall_ms)
            .sum();
        out.push_str(&format!("  \"total_wall_ms\": {total:.3},\n"));
        if let Some(s) = speedup {
            out.push_str(&format!("  \"speedup_vs_compare\": {s:.3},\n"));
        }
        if let Some(w) = &m.wmd {
            let rate = if w.cache_hits + w.cache_misses > 0 {
                w.cache_hits as f64 / (w.cache_hits + w.cache_misses) as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  \"wmd\": {{\"jobs_per_sec\": {:.1}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"cache_hit_rate\": {rate:.3}}},\n",
                w.jobs_per_sec, w.cache_hits, w.cache_misses
            ));
        }
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        if let Some(e) = &r.error {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"config\": \"{}\", \"error\": \"{}\"}}",
                r.workload,
                r.config,
                json::escape(e)
            ));
        } else {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"config\": \"{}\", \"cycles\": {}",
                r.workload, r.config, r.cycles
            ));
            if let Some(code) = r.code {
                out.push_str(&format!(
                    ", \"insts\": {}, \"code_fnv1a\": \"{:016x}\"",
                    code.insts, code.fnv1a
                ));
            }
            if !r.counters.is_empty() {
                out.push_str(&format!(
                    ", \"counters_fnv1a\": \"{:016x}\"",
                    fnv1a(r.counters.as_bytes())
                ));
            }
            out.push_str(&format!(", \"wall_ms\": {:.3}", r.wall_ms));
            if with_counters {
                // The counters are themselves a JSON document; inline them.
                out.push_str(", \"counters\": ");
                out.push_str(r.counters.trim_end());
            }
            out.push('}');
        }
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The baseline gate's verdict: the cycle regressions, code changes and
/// counter changes, plus a per-workload cycle-delta table covering
/// *every* measured pair — printed on failure so the report shows where
/// the cycles moved, not just the rows that crossed tolerance.
struct CheckReport {
    failures: Vec<String>,
    code_changes: Vec<String>,
    counter_changes: Vec<String>,
    delta_table: Vec<String>,
}

impl CheckReport {
    fn passed(&self) -> bool {
        self.failures.is_empty() && self.code_changes.is_empty() && self.counter_changes.is_empty()
    }
}

/// Compare against a baseline document; the gate passes when `failures`,
/// `code_changes` and `counter_changes` are empty. Wherever both the run
/// and the baseline record a pair's emitted code or counter digest
/// (`--wmd` runs record neither), it must match exactly.
fn check(records: &[RunRecord], baseline_src: &str) -> Result<CheckReport, String> {
    let doc = json::parse(baseline_src)?;
    let base = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("baseline has no \"results\" array")?;
    let entry = |workload: &str, config: &str| -> Option<&Value> {
        base.iter().find(|e| {
            e.get("workload").and_then(Value::as_str) == Some(workload)
                && e.get("config").and_then(Value::as_str) == Some(config)
        })
    };
    let mut code_changes = Vec::new();
    let mut counter_changes = Vec::new();
    for r in records.iter().filter(|r| r.error.is_none()) {
        let Some(e) = entry(&r.workload, r.config) else {
            continue;
        };
        if let (Some(code), Some(insts), Some(fnv)) = (
            r.code,
            e.get("insts").and_then(Value::as_u64),
            e.get("code_fnv1a").and_then(Value::as_str),
        ) {
            let ours = format!("{:016x}", code.fnv1a);
            if insts != code.insts || fnv != ours {
                code_changes.push(format!(
                    "{}/{}: code {} vs baseline {}",
                    r.workload,
                    r.config,
                    Code::describe(code.insts, &ours),
                    Code::describe(insts, fnv)
                ));
            }
        }
        if let (false, Some(pin)) = (
            r.counters.is_empty(),
            e.get("counters_fnv1a").and_then(Value::as_str),
        ) {
            let ours = format!("{:016x}", fnv1a(r.counters.as_bytes()));
            if pin != ours {
                counter_changes.push(format!(
                    "{}/{}: counters fnv1a {ours} vs baseline {pin}",
                    r.workload, r.config
                ));
            }
        }
    }
    let lookup = |workload: &str, config: &str| -> Option<u64> {
        entry(workload, config)?.get("cycles")?.as_u64()
    };
    let mut failures = Vec::new();
    let mut delta_table = vec![format!(
        "{:<14} {:<10} {:>12} {:>12} {:>9}",
        "workload", "config", "baseline", "now", "delta"
    )];
    for r in records.iter().filter(|r| r.error.is_none()) {
        match lookup(&r.workload, r.config) {
            None => {
                eprintln!(
                    "perf: note: {}/{} not in baseline (new entry)",
                    r.workload, r.config
                );
                delta_table.push(format!(
                    "{:<14} {:<10} {:>12} {:>12} {:>9}",
                    r.workload, r.config, "-", r.cycles, "new"
                ));
            }
            Some(base_cycles) => {
                let pct = 100.0 * (r.cycles as f64 / base_cycles as f64 - 1.0);
                let limit = (base_cycles as f64 * (1.0 + TOLERANCE)).floor() as u64;
                let over = r.cycles > limit;
                delta_table.push(format!(
                    "{:<14} {:<10} {:>12} {:>12} {:>+8.2}%{}",
                    r.workload,
                    r.config,
                    base_cycles,
                    r.cycles,
                    pct,
                    if over { "  <-- REGRESSION" } else { "" }
                ));
                if over {
                    failures.push(format!(
                        "{}/{}: {} cycles vs baseline {} (+{:.2}%, tolerance {:.0}%)",
                        r.workload,
                        r.config,
                        r.cycles,
                        base_cycles,
                        pct,
                        100.0 * TOLERANCE,
                    ));
                }
            }
        }
    }
    Ok(CheckReport {
        failures,
        code_changes,
        counter_changes,
        delta_table,
    })
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

/// Compare against another results document run by a different engine:
/// every pair must exist there with the exact same cycle count and, when
/// both documents carry the pair's counters (`--wmd` runs record none),
/// the exact same counters. Returns the mismatch report and the
/// wall-time speedup (their total / ours).
fn compare(records: &[RunRecord], other_src: &str) -> Result<(Vec<String>, f64), String> {
    let doc = json::parse(other_src)?;
    let other = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("comparison file has no \"results\" array")?;
    let lookup = |workload: &str, config: &str| -> Option<(u64, f64, Option<&Value>)> {
        other.iter().find_map(|e| {
            (e.get("workload")?.as_str()? == workload && e.get("config")?.as_str()? == config)
                .then(|| {
                    Some((
                        e.get("cycles")?.as_u64()?,
                        e.get("wall_ms")?.as_f64()?,
                        e.get("counters"),
                    ))
                })?
        })
    };
    let mut mismatches = Vec::new();
    let (mut ours_ms, mut theirs_ms) = (0.0, 0.0);
    for r in records.iter().filter(|r| r.error.is_none()) {
        match lookup(&r.workload, r.config) {
            None => mismatches.push(format!(
                "{}/{}: missing from comparison",
                r.workload, r.config
            )),
            Some((cycles, wall_ms, counters)) => {
                if cycles != r.cycles {
                    mismatches.push(format!(
                        "{}/{}: {} cycles here vs {} there",
                        r.workload, r.config, r.cycles, cycles
                    ));
                }
                if let (Some(theirs), false) = (counters, r.counters.is_empty()) {
                    let ours = json::parse(&r.counters)?;
                    if let Some(d) = first_difference(&ours, theirs, "") {
                        mismatches.push(format!("{}/{}: counter {d}", r.workload, r.config));
                    }
                }
                ours_ms += r.wall_ms;
                theirs_ms += wall_ms;
            }
        }
    }
    let speedup = if ours_ms > 0.0 {
        theirs_ms / ours_ms
    } else {
        1.0
    };
    Ok((mismatches, speedup))
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
    let mut compare_path: Option<String> = None;
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
            "--compare" => compare_path = Some(need(&mut i)),
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
                     [--wmd BIN] [--out FILE] [--check BASELINE] [--compare RESULTS]\n\
                     [--write-baseline FILE]"
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
    // A baseline pins one leg: refuse to check any other against it.
    let baseline = check_path.map(|path| {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))
            .and_then(|src| {
                let pinned = json::parse(&src)
                    .and_then(|doc| Leg::parse(&doc))
                    .map_err(|e| format!("bad baseline {path}: {e}"))?;
                if pinned != leg {
                    return Err(format!(
                        "--check: this run's leg ({}) is not the one {path} pins ({})",
                        leg.flags(),
                        pinned.flags()
                    ));
                }
                Ok(src)
            })
            .unwrap_or_else(|e| {
                eprintln!("perf: {e}");
                std::process::exit(2);
            });
        (path, src)
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

    // Resolve the engine-equivalence comparison before writing results so
    // the measured speedup lands in the output document.
    let compared = compare_path.map(|path| {
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read comparison {path}: {e}");
            std::process::exit(2);
        });
        let (mismatches, speedup) = compare(&records, &src).unwrap_or_else(|e| {
            eprintln!("perf: bad comparison {path}: {e}");
            std::process::exit(2);
        });
        (path, mismatches, speedup)
    });
    let speedup = compared.as_ref().map(|(_, _, s)| *s);

    // The daemon path records no per-run counters (the gate compares
    // cycles, which both paths carry).
    let with_counters = wmd_bin.is_none();
    if let Err(e) = std::fs::write(
        &out,
        results_json(&records, with_counters, &leg, Some((&meta, speedup))),
    ) {
        eprintln!("perf: cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "perf: wrote {} results to {out} (engine {}, hw {}, {} reps, {} jobs, {} tile(s))",
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

    if let Some((path, src)) = baseline {
        match check(&records, &src) {
            Err(e) => {
                eprintln!("perf: bad baseline {path}: {e}");
                std::process::exit(2);
            }
            Ok(report) if !report.passed() => {
                for f in &report.failures {
                    eprintln!("perf: REGRESSION {f}");
                }
                for c in &report.code_changes {
                    eprintln!("perf: CODE CHANGED {c}");
                }
                for c in &report.counter_changes {
                    eprintln!("perf: COUNTERS CHANGED {c}");
                }
                // The full delta table: which pairs moved and by how
                // much, so a failure report localizes the regression
                // without a manual re-run against the baseline.
                eprintln!("perf: per-workload cycle deltas vs baseline:");
                for line in &report.delta_table {
                    eprintln!("perf:   {line}");
                }
                eprintln!(
                    "perf: {} regression(s), {} code change(s), {} counter change(s); to accept intentionally, re-baseline with:\n\
                     perf:   cargo run --release -p wm-bench --bin perf -- {} --write-baseline {path}",
                    report.failures.len(),
                    report.code_changes.len(),
                    report.counter_changes.len(),
                    leg.flags()
                );
                std::process::exit(1);
            }
            Ok(_) => eprintln!("perf: baseline check passed ({path})"),
        }
    }

    if let Some((path, mismatches, speedup)) = compared {
        if mismatches.is_empty() {
            eprintln!("perf: engines agree with {path} on every cycle count and every counter both runs record ({speedup:.2}x wall-time speedup)");
        } else {
            for m in &mismatches {
                eprintln!("perf: ENGINE MISMATCH {m}");
            }
            eprintln!("perf: {} mismatch(es) vs {path}", mismatches.len());
            std::process::exit(1);
        }
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

    fn record(counters: &str) -> RunRecord {
        RunRecord {
            workload: "sieve".to_string(),
            config: "scalar",
            cycles: 10,
            code: None,
            wall_ms: 1.0,
            counters: counters.to_string(),
            error: None,
        }
    }

    const COUNTERS: &str = r#"{"cycles": 10, "units": {"IFU": {"idle": 3, "stalls": {"cc-empty": 7}}}, "fifos": {"ieu.cc": [4, 6]}}"#;

    fn doc(counters: Option<&str>) -> String {
        let c = counters.map_or(String::new(), |c| format!(", \"counters\": {c}"));
        format!(
            r#"{{"results": [{{"workload": "sieve", "config": "scalar", "cycles": 10, "wall_ms": 2.0{c}}}]}}"#
        )
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
    fn a_baseline_records_the_leg_it_pins() {
        let leg = Leg {
            hw: "latency24".to_string(),
            tiles: 2,
            ..flat()
        };
        let written = results_json(&[record(COUNTERS)], false, &leg, None);
        assert_eq!(Leg::parse(&json::parse(&written).unwrap()), Ok(leg));
        assert_ne!(Leg::parse(&json::parse(&written).unwrap()), Ok(flat()));
        // a document without a leg cannot be checked against
        assert!(Leg::parse(&json::parse(&doc(None)).unwrap()).is_err());
        // the re-baseline hint selects the same leg again
        assert_eq!(flat().flags(), "--fast --hw default --mem flat --tiles 1");
        let full = Leg {
            suite: "full".to_string(),
            ..flat()
        };
        assert_eq!(full.flags(), "--hw default --mem flat --tiles 1");
    }

    #[test]
    fn compare_gates_every_counter_both_sides_carry() {
        let ours = [record(COUNTERS)];
        let (m, speedup) = compare(&ours, &doc(Some(COUNTERS))).unwrap();
        assert!(m.is_empty(), "{m:?}");
        assert_eq!(speedup, 2.0);
        let stall = COUNTERS.replace("\"cc-empty\": 7", "\"cc-empty\": 6, \"sync\": 1");
        let (m, _) = compare(&ours, &doc(Some(&stall))).unwrap();
        assert_eq!(
            m,
            ["sieve/scalar: counter units.IFU.stalls.cc-empty: 7 here vs 6 there"]
        );
        let hist = COUNTERS.replace("[4, 6]", "[5, 5]");
        let (m, _) = compare(&ours, &doc(Some(&hist))).unwrap();
        assert_eq!(
            m,
            ["sieve/scalar: counter fifos.ieu.cc[0]: 4 here vs 5 there"]
        );
        let extra = COUNTERS.replace("\"idle\": 3", "\"idle\": 3, \"retired\": 1");
        let (m, _) = compare(&ours, &doc(Some(&extra))).unwrap();
        assert_eq!(
            m,
            ["sieve/scalar: counter units.IFU.retired: absent here vs 1 there"]
        );
    }

    #[test]
    fn compare_is_cycles_only_when_a_side_has_no_counters() {
        // a `--wmd` run records no counters; neither does an old document
        let (m, _) = compare(&[record("")], &doc(Some(COUNTERS))).unwrap();
        assert!(m.is_empty(), "{m:?}");
        let (m, _) = compare(&[record(COUNTERS)], &doc(None)).unwrap();
        assert!(m.is_empty(), "{m:?}");
        let mut slow = record("");
        slow.cycles = 11;
        let (m, _) = compare(&[slow], &doc(None)).unwrap();
        assert_eq!(m, ["sieve/scalar: 11 cycles here vs 10 there"]);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn check_pins_the_emitted_code_where_the_baseline_records_it() {
        let pinned = |insts: u64, fnv: &str| {
            format!(
                r#"{{"results": [{{"workload": "sieve", "config": "scalar", "cycles": 10, "insts": {insts}, "code_fnv1a": "{fnv}", "wall_ms": 2.0}}]}}"#
            )
        };
        let ours = || {
            let mut r = record("");
            r.code = Some(Code {
                insts: 5,
                fnv1a: 0xabc,
            });
            r
        };
        let report = check(&[ours()], &pinned(5, "0000000000000abc")).unwrap();
        assert!(report.passed());
        let report = check(&[ours()], &pinned(6, "0000000000000abd")).unwrap();
        assert!(report.failures.is_empty(), "cycles did not move");
        assert_eq!(
            report.code_changes,
            ["sieve/scalar: code 5 insts (fnv1a 0000000000000abc) vs baseline 6 insts (fnv1a 0000000000000abd)"]
        );
        // a listing change at the same size is caught by the digest alone
        let report = check(&[ours()], &pinned(5, "0000000000000abd")).unwrap();
        assert_eq!(report.code_changes.len(), 1);
        // an older baseline without the fields, or a `--wmd` run, gates cycles only
        let report = check(&[ours()], &doc(None)).unwrap();
        assert!(report.code_changes.is_empty());
        let report = check(&[record("")], &pinned(6, "0000000000000abd")).unwrap();
        assert!(report.code_changes.is_empty());
    }

    #[test]
    fn check_pins_the_counters_where_the_baseline_records_them() {
        let pinned = |fnv: &str| {
            format!(
                r#"{{"results": [{{"workload": "sieve", "config": "scalar", "cycles": 10, "counters_fnv1a": "{fnv}", "wall_ms": 2.0}}]}}"#
            )
        };
        let ours = format!("{:016x}", fnv1a(COUNTERS.as_bytes()));
        let report = check(&[record(COUNTERS)], &pinned(&ours)).unwrap();
        assert!(report.passed());
        // a counter moved while the cycle count did not
        let moved = COUNTERS.replace("\"cc-empty\": 7", "\"cc-empty\": 6, \"sync\": 1");
        let report = check(&[record(&moved)], &pinned(&ours)).unwrap();
        assert!(report.failures.is_empty() && report.code_changes.is_empty());
        let theirs = format!("{:016x}", fnv1a(moved.as_bytes()));
        assert_eq!(
            report.counter_changes,
            [format!(
                "sieve/scalar: counters fnv1a {theirs} vs baseline {ours}"
            )]
        );
        // an older baseline without the field, or a `--wmd` run, does not pin them
        assert!(check(&[record(&moved)], &doc(None)).unwrap().passed());
        assert!(check(&[record("")], &pinned(&ours)).unwrap().passed());
        // the baseline writer records the digest next to the cycles
        let written = results_json(&[record(COUNTERS)], false, &flat(), None);
        assert!(
            written.contains(&format!("\"counters_fnv1a\": \"{ours}\"")),
            "{written}"
        );
        assert!(!written.contains("\"counters\":"), "{written}");
    }
}
