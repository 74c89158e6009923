//! `jobbench` — the repository benchmark: mini-C source to checked result.
//!
//! Each workload runs whole rounds of jobs (source → compiled module →
//! simulated result, checked against an answer the compiler did not
//! produce) through the public entry points `wmcc` and `wmd` use:
//! `JobSpec` in-process, or a spawned `wmd` for `service`. An untraced
//! run prints the end-to-end metrics; `--trace 1` runs an untraced and a
//! traced half, and prints the per-layer metrics of the traced half with
//! the tracing overhead. The last stdout line is the JSON result.

mod inproc;
mod jobs;
mod measure;
mod report;
mod service;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use jobs::{Job, Kind, Rng};

const USAGE: &str = "\
usage: jobbench --workload NAME --seed N --seconds S --trace 0|1

  --workload  compile | sim-flat | sim-hier | service
  --seed      seeds the job order and the service request mix
  --seconds   time budget of the timed phase (whole rounds run until it
              is spent and at least 100 jobs have finished)
  --trace     1 = traced run: per-layer metrics instead of end-to-end ones

Build and run from the repository root with `bash jobbench/run.sh ...`.";

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run the memory pass (see [`memory_pass`]) and print its
    /// peak resident memory.
    memory_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut memory_pass = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            "--memory-pass" => memory_pass = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if memory_pass {
        return Ok(Args {
            kind,
            seed: 0,
            seconds: 0.0,
            trace: false,
            memory_pass,
        });
    }
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        memory_pass,
    })
}

/// Where runs leave spans, counts and the daemon's temporary cache.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything a run measured.
#[derive(Default)]
struct Run {
    attempted: usize,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// The timing metrics before host normalisation and the probe
    /// record, for the header.
    raw: String,
}

impl Run {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--probe") {
        // Internal (see `measure::host_probe_ms`): the fastest of three,
        // since the first run in a fresh process also pays page faults.
        let ms = (0..3)
            .map(|_| measure::calib_probe_ms())
            .fold(f64::INFINITY, f64::min);
        println!("{ms}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("jobbench: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.memory_pass {
        return match memory_pass(args.kind) {
            Ok(mib) => {
                println!("{mib}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("jobbench: memory pass: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match execute(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &run.failures {
        eprintln!("jobbench: FAILED {f}");
    }
    let failed = run.failures.len().min(run.attempted);
    let correct = run.failures.is_empty();
    let list: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!(
        "jobbench {} seed {} ({} jobs attempted, {} failed, error_frac {:.4})",
        args.kind.name(),
        args.seed,
        run.attempted,
        failed,
        failed as f64 / run.attempted.max(1) as f64,
    );
    if !run.raw.is_empty() {
        println!("{}", run.raw);
    }
    print!("{}", report::table(list, &run.metrics));
    match report::document(correct, run.attempted.max(1), failed, list, &run.metrics) {
        Ok(doc) => println!("{doc}"),
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn execute(args: &Args) -> Result<Run, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut rng = Rng::new(args.seed);
    let mut run = Run::default();
    if args.kind == Kind::Service {
        run_service(args, &mut rng, &mut run)?;
    } else {
        run_in_process(args, &mut rng, &mut run)?;
    }
    check_counts(args, &mut run)?;
    let failed = run.failures.len().min(run.attempted);
    run.set("ok_frac", 1.0 - failed as f64 / run.attempted.max(1) as f64);
    Ok(run)
}

/// The untimed warm-up job: the whole pipeline once, on a program too
/// small to take measurable time.
const WARM_UP: &str =
    "int main() { int i; int s; s = 0; for (i = 0; i < 8; i++) s += i; return s; }";

/// Set-up before the first timed job, in seconds: building the job table,
/// parsing every distinct source (input validation), and the warm-up job
/// on the workload's machine configuration.
fn set_up_in_process(kind: Kind) -> Result<(Vec<Job>, f64), String> {
    let start = Instant::now();
    let jobs = jobs::table(kind);
    for j in &jobs {
        wm_stream::frontend::compile(&j.spec.source)
            .map_err(|e| format!("{}: source does not parse: {e}", j.name))?;
    }
    let mut warm = jobs[0].spec.clone();
    warm.source = WARM_UP.to_string();
    match warm.run(None) {
        Ok(r) if r.ret_int == 28 => Ok((jobs, start.elapsed().as_secs_f64())),
        Ok(r) => Err(format!("warm-up returned {}, expected 28", r.ret_int)),
        Err(e) => Err(format!("warm-up: {e}")),
    }
}

fn run_in_process(args: &Args, rng: &mut Rng, run: &mut Run) -> Result<(), String> {
    let kind = args.kind;
    let mut setups = Vec::new();
    let mut setup_probes = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_probes.push(measure::host_probe_ms()?);
        let (j, s) = set_up_in_process(kind)?;
        jobs = j;
        setups.push(s);
    }
    let epoch = Instant::now();
    let plan = inproc::Plan {
        threads: jobs::IN_FLIGHT,
        seconds: args.seconds,
        min_jobs: measure::samples_for_tail(90),
        max_rounds: 0,
        compile_only: kind == Kind::Compile,
        traced: false,
        fingerprint: false,
    };
    let timed = if args.trace {
        // Two halves of the budget: untraced, then traced.
        let half = inproc::Plan {
            seconds: args.seconds / 2.0,
            min_jobs: 0,
            fingerprint: true,
            ..plan
        };
        let a = inproc::run_phase(&jobs, rng, &half, epoch);
        let b = inproc::run_phase(
            &jobs,
            rng,
            &inproc::Plan {
                traced: true,
                ..half
            },
            epoch,
        );
        trace_metrics(args, run, &a, &b)?;
        run.set(
            "host.calib_ms",
            measure::median(&[&a.timing.calib_ms[..], &b.timing.calib_ms[..]].concat()),
        );
        for name in SERVE_METRICS {
            run.set(name, 0.0);
        }
        a
    } else {
        inproc::run_phase(&jobs, rng, &plan, epoch)
    };
    run.attempted += timed.attempted;
    run.failures.extend(timed.failures.iter().cloned());

    // Every answer checked: compile jobs are simulated here, after the
    // timed phase, and must compile to the same code they timed.
    let outputs = if kind == Kind::Compile {
        let verify = inproc::Plan {
            compile_only: false,
            max_rounds: 1,
            min_jobs: 0,
            seconds: 0.0,
            traced: false,
            fingerprint: false,
            ..plan
        };
        let v = inproc::run_phase(&jobs, &mut Rng::new(args.seed), &verify, epoch);
        run.failures
            .extend(v.failures.iter().map(|f| format!("verify: {f}")));
        for (j, o) in &v.outputs {
            if timed.outputs.get(j).map(|t| t.code_insts) != Some(o.code_insts) {
                run.failures
                    .push(format!("{}: code changed between compiles", jobs[*j].name));
            }
        }
        v.outputs
    } else {
        timed.outputs
    };
    totals(run, &outputs, jobs.len())?;
    if !args.trace {
        let peak = child_memory_pass(kind)?;
        end_to_end(
            run,
            &timed.timing,
            measure::median(&setups),
            measure::slowdown(&setup_probes),
            peak,
        )?;
    }
    Ok(())
}

/// Peak resident memory of the work, measured where it repeats. The
/// allocator's high-water mark depends on which jobs overlap on which
/// thread, so a timed run's own peak moved with its seed by up to 25 %.
/// The memory pass runs one round — every distinct job once, or for
/// `service` one request round against a fresh `wmd --jobs 1` — one job at
/// a time, in a fixed order (seed 0), in a fresh process, and reports that
/// process's `VmHWM`.
fn memory_pass(kind: Kind) -> Result<f64, String> {
    if kind == Kind::Service {
        let jobs = jobs::table(kind);
        let cache = out_dir().join(format!("wmd-cache-{}-memory", std::process::id()));
        let mut d = service::Daemon::spawn(&wmd_path()?, 1, cache)?;
        let p = service::run_phase(&mut d, &jobs, &mut Rng::new(0), 0.0, 0, 1);
        let peak = d.peak_rss_mib();
        d.shutdown()?;
        return match p.failures.first() {
            Some(f) => Err(f.clone()),
            None => peak,
        };
    }
    let (mut jobs, _) = set_up_in_process(kind)?;
    for j in &mut jobs {
        j.weight = 1;
    }
    let plan = inproc::Plan {
        threads: 1,
        seconds: 0.0,
        min_jobs: 0,
        max_rounds: 1,
        compile_only: kind == Kind::Compile,
        traced: false,
        fingerprint: false,
    };
    let p = inproc::run_phase(&jobs, &mut Rng::new(0), &plan, Instant::now());
    match p.failures.first() {
        Some(f) => Err(f.clone()),
        None => measure::peak_rss_mib(std::process::id()),
    }
}

/// Run [`memory_pass`] in a fresh copy of this program.
fn child_memory_pass(kind: Kind) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating jobbench: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--memory-pass", "--workload", kind.name()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("memory pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(mib) if out.status.success() => Ok(mib),
        _ => Err(format!("memory pass failed ({}): {text}", out.status)),
    }
}

/// `sim_cycles` and `code_insts`: sums over the distinct jobs.
fn totals(
    run: &mut Run,
    outputs: &BTreeMap<usize, inproc::Output>,
    jobs: usize,
) -> Result<(), String> {
    if outputs.len() != jobs {
        return Err(format!(
            "only {} of {jobs} distinct jobs produced output",
            outputs.len()
        ));
    }
    run.set(
        "sim_cycles",
        outputs.values().filter_map(|o| o.cycles).sum::<u64>() as f64,
    );
    run.set(
        "code_insts",
        outputs.values().map(|o| o.code_insts).sum::<u64>() as f64,
    );
    Ok(())
}

/// The timing metrics of an untraced run (see [`measure::Timing`] for
/// the estimators), host-normalised: set-up by the probes taken between
/// its repetitions (`setup_slowdown`), the timed phase by its own probes.
fn end_to_end(
    run: &mut Run,
    timing: &measure::Timing,
    setup_s: f64,
    setup_slowdown: f64,
    peak: f64,
) -> Result<(), String> {
    let typical = timing.typical_latencies();
    if typical.is_empty() {
        return Err("no job completed".to_string());
    }
    let p50 = measure::percentile(&typical, 50);
    let p90 = measure::tail(&typical, 90)
        .ok_or_else(|| format!("{} jobs completed: too few for a p90", typical.len()))?;
    let jobs_per_s = timing.jobs_per_s();
    let slow = measure::slowdown(&timing.calib_ms);
    run.set("setup_s", setup_s / setup_slowdown);
    run.set("job_ms_p50", p50 / slow);
    run.set("job_ms_p90", p90 / slow);
    run.set("jobs_per_s", jobs_per_s * slow);
    run.set("peak_rss_mb", peak);
    run.raw = format!(
        "raw (not host-normalised): setup_s {setup_s:.6} s, job_ms_p50 {p50:.4} ms, \
         job_ms_p90 {p90:.4} ms, jobs_per_s {jobs_per_s:.4} 1/s; median host probe \
         {:.3} ms over {} rounds, {:.3} ms over set-up",
        slow * measure::REFERENCE_PROBE_MS,
        timing.calib_ms.len(),
        setup_slowdown * measure::REFERENCE_PROBE_MS
    );
    Ok(())
}

/// Per-layer metrics of a traced half `b` against its untraced half `a`,
/// after the drift guard has compared every distinct job of the two.
fn trace_metrics(
    args: &Args,
    run: &mut Run,
    a: &inproc::Phase,
    b: &inproc::Phase,
) -> Result<(), String> {
    if a.fingerprints.len() != b.fingerprints.len() {
        return Err("the traced and untraced halves ran different jobs".to_string());
    }
    for (j, fp) in &b.fingerprints {
        let untraced = a
            .fingerprints
            .get(j)
            .ok_or("a traced job has no untraced twin")?;
        if let Err(e) = traced::equivalent(&format!("job {j}"), fp, untraced) {
            run.failures.push(e);
        }
    }
    run.attempted += b.attempted;
    run.failures.extend(b.failures.iter().cloned());
    for (k, v) in traced::layer_metrics(&b.tracers, b.timing.jobs()) {
        run.set(k, v);
    }
    run.set("trace.jobs", b.timing.jobs() as f64);
    run.set(
        "trace.overhead_frac",
        1.0 - b.timing.jobs_per_s() / a.timing.jobs_per_s(),
    );
    let path = out_dir().join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
    std::fs::write(&path, traced::spans_json(&b.tracers))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The per-layer metrics only the service workload measures.
const SERVE_METRICS: [&str; 8] = [
    "serve.hit_ms_p50",
    "serve.miss_ms_p50",
    "serve.worker_ms_p50",
    "serve.overhead_ms_p50",
    "serve.cache_hit_ratio",
    "serve.retries",
    "serve.degraded",
    "serve.shed",
];

fn wmd_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating jobbench: {e}"))?;
    let wmd = exe.with_file_name("wmd");
    if wmd.exists() {
        Ok(wmd)
    } else {
        Err(format!(
            "{} is not built (run through jobbench/run.sh)",
            wmd.display()
        ))
    }
}

/// Set-up of the service workload in seconds: the job table, a daemon
/// spawned on a fresh cache directory until it answers `ping`, and one
/// untimed uncached warm-up job.
fn set_up_service(n: usize) -> Result<(Vec<Job>, service::Daemon, f64), String> {
    let start = Instant::now();
    let jobs = jobs::table(Kind::Service);
    let cache = out_dir().join(format!("wmd-cache-{}-{n}", std::process::id()));
    let mut d = service::Daemon::spawn(&wmd_path()?, jobs::IN_FLIGHT, cache)?;
    let mut warm = jobs[0].clone();
    warm.spec.source = WARM_UP.to_string();
    service::warm_up(&mut d, &warm)?;
    Ok((jobs, d, start.elapsed().as_secs_f64()))
}

fn run_service(args: &Args, rng: &mut Rng, run: &mut Run) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut setup_probes = Vec::new();
    let mut kept = None;
    for n in 0..SETUP_REPS {
        setup_probes.push(measure::host_probe_ms()?);
        let (jobs, d, s) = set_up_service(n)?;
        setups.push(s);
        if let Some((_, old)) = kept.replace((jobs, d)) {
            service::Daemon::shutdown(old)?;
        }
    }
    let (jobs, mut d) = kept.expect("set up at least once");
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_jobs = if args.trace {
        0
    } else {
        measure::samples_for_tail(90)
    };
    let p = service::run_phase(&mut d, &jobs, rng, seconds, min_jobs, jobs::IN_FLIGHT);
    let stats = d.stats()?;
    d.shutdown()?;
    run.attempted += p.attempted;
    run.failures.extend(p.failures.iter().cloned());

    // Every distinct job once more in-process (untraced, then traced):
    // the daemon's cycles must match, and the traced half gives the
    // per-layer view of the service's job mix.
    let epoch = Instant::now();
    let plan = inproc::Plan {
        threads: jobs::IN_FLIGHT,
        seconds: 0.0,
        min_jobs: 0,
        max_rounds: 1,
        compile_only: false,
        traced: false,
        fingerprint: args.trace,
    };
    let a = inproc::run_phase(&jobs, &mut Rng::new(args.seed), &plan, epoch);
    run.failures
        .extend(a.failures.iter().map(|f| format!("in-process: {f}")));
    for (j, o) in &a.outputs {
        if p.cycles.get(j).is_some_and(|&c| Some(c) != o.cycles) {
            run.failures.push(format!(
                "{}: wmd and JobSpec disagree on cycles",
                jobs[*j].name
            ));
        }
    }
    totals(run, &a.outputs, jobs.len())?;

    if args.trace {
        let b = inproc::run_phase(
            &jobs,
            &mut Rng::new(args.seed),
            &inproc::Plan {
                traced: true,
                ..plan
            },
            epoch,
        );
        trace_metrics(args, run, &a, &b)?;
        let calib = [
            &p.timing.calib_ms[..],
            &a.timing.calib_ms[..],
            &b.timing.calib_ms[..],
        ]
        .concat();
        run.set("host.calib_ms", measure::median(&calib));
        run.set("serve.hit_ms_p50", measure::median(&p.hit_ms));
        run.set("serve.miss_ms_p50", measure::median(&p.miss_ms));
        run.set("serve.worker_ms_p50", measure::median(&p.worker_ms));
        run.set("serve.overhead_ms_p50", measure::median(&p.overhead_ms));
        let counter = |k: &str| {
            stats
                .get(k)
                .and_then(wm_stream::json::Value::as_f64)
                .unwrap_or(0.0)
        };
        let (hits, misses) = (counter("cache_hits"), counter("cache_misses"));
        run.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        run.set("serve.retries", counter("retries"));
        run.set("serve.degraded", counter("degraded"));
        run.set("serve.shed", counter("shed"));
    } else {
        let peak = memory_pass(Kind::Service)?;
        end_to_end(
            run,
            &p.timing,
            measure::median(&setups),
            measure::slowdown(&setup_probes),
            peak,
        )?;
    }
    Ok(())
}

/// `sim_cycles` and `code_insts` must repeat exactly between runs of one
/// seed on one build: the first such run in this checkout records them,
/// later runs compare. The record is keyed by a hash of the executables
/// that do the work (`jobbench` links every compiler and simulator crate,
/// `wmd` serves the service workload), so a changed program, whose counts
/// may rightly move, starts a record of its own.
fn check_counts(args: &Args, run: &mut Run) -> Result<(), String> {
    let now = format!(
        "{} {}",
        run.metrics.get("sim_cycles").copied().unwrap_or(0.0),
        run.metrics.get("code_insts").copied().unwrap_or(0.0)
    );
    let path = out_dir().join(format!(
        "counts-{}-seed{}-{:016x}.txt",
        args.kind.name(),
        args.seed,
        build_id()?
    ));
    match std::fs::read_to_string(&path) {
        Ok(before) if before.trim() != now => run.failures.push(format!(
            "sim_cycles and code_insts changed between runs of seed {}: {} then {now}",
            args.seed,
            before.trim()
        )),
        Ok(_) => {}
        Err(_) => std::fs::write(&path, &now).map_err(|e| format!("{}: {e}", path.display()))?,
    }
    Ok(())
}

/// A hash of this executable and the `wmd` built beside it.
fn build_id() -> Result<u64, String> {
    use std::hash::{Hash, Hasher};
    let exe = std::env::current_exe().map_err(|e| format!("locating jobbench: {e}"))?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for path in [exe, wmd_path()?] {
        std::fs::read(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .hash(&mut h);
    }
    Ok(h.finish())
}
