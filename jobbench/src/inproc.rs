//! The in-process closed loop: whole rounds of jobs on a fixed set of
//! worker threads, each taking the next job as soon as its last one is
//! done, until the time budget is spent. The workers live for the whole
//! phase (a barrier separates rounds), so every round runs on the same
//! threads and allocator arenas.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use wm_stream::{Compiled, RunResult, WmMachine};

use crate::jobs::{self, Job, Rng};
use crate::measure::{self, Timing};
use crate::traced::{self, Tracer};

/// What one job produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    /// Static instructions of the compiled module.
    pub code_insts: u64,
    /// Simulated cycles (`None` for compile-only jobs).
    pub cycles: Option<u64>,
}

/// A phase: every job's latency and output.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latencies, rounds and host probes.
    pub timing: Timing,
    /// Jobs attempted.
    pub attempted: usize,
    /// Failure messages (faults, panics, wrong answers, outputs that
    /// changed between repeats of one job).
    pub failures: Vec<String>,
    /// The output of each distinct job (by table index).
    pub outputs: BTreeMap<usize, Output>,
    /// Drift-guard fingerprints of each distinct job's first run, when
    /// requested.
    pub fingerprints: BTreeMap<usize, String>,
    /// Per-thread spans and counts (traced phases only).
    pub tracers: Vec<Tracer>,
}

/// How a phase runs its jobs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Worker threads.
    pub threads: usize,
    /// Time budget (see [`Timing::another_round`]).
    pub seconds: f64,
    /// Keep starting rounds until at least this many jobs have run.
    pub min_jobs: usize,
    /// Stop after this many rounds even if time remains (0 = no limit).
    pub max_rounds: usize,
    /// Only compile (the `compile` workload).
    pub compile_only: bool,
    /// Time each layer call.
    pub traced: bool,
    /// Keep a drift-guard fingerprint of each distinct job's first run.
    pub fingerprint: bool,
}

/// Decoded-table size of each job's module, measured once per distinct
/// job outside every span (simulated jobs of traced phases only).
fn decoded_sizes(jobs: &[Job], plan: &Plan) -> Vec<usize> {
    if !plan.traced || plan.compile_only {
        return vec![0; jobs.len()];
    }
    jobs.iter()
        .map(|j| {
            j.spec.compile().ok().map_or(0, |c| {
                WmMachine::new(&c.module, &j.spec.config).map_or(0, |m| m.decoded_program().len())
            })
        })
        .collect()
}

type JobResult = Result<(Compiled, Option<RunResult>), String>;

/// One job, untraced or traced, checked against its answer.
fn execute(job: &Job, plan: &Plan, decoded: usize, tracer: Option<&mut Tracer>) -> JobResult {
    let spec = &job.spec;
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", job.name);
    let (compiled, run) = match tracer {
        None => {
            let c = spec.compile().map_err(|e| fail(&e))?;
            let r = if plan.compile_only {
                None
            } else {
                Some(spec.simulate(&c, None).map_err(|e| fail(&e))?)
            };
            (c, r)
        }
        Some(t) => {
            t.next_job();
            let root = t.begin("job");
            let r = traced_job(job, plan, decoded, t);
            t.end(root);
            r?
        }
    };
    if let Some(r) = &run {
        job.check(r.ret_int)?;
    }
    Ok((compiled, run))
}

fn traced_job(job: &Job, plan: &Plan, decoded: usize, t: &mut Tracer) -> JobResult {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", job.name);
    let id = t.begin("compile");
    let c = traced::compile(&job.spec, t);
    t.end(id);
    let c = c.map_err(|e| fail(&e))?;
    if plan.compile_only {
        return Ok((c, None));
    }
    let id = t.begin("simulate");
    let r = traced::simulate(&job.spec, &c, decoded, t);
    t.end(id);
    let r = r.map_err(|e| fail(&e))?;
    Ok((c, Some(r)))
}

/// Run whole rounds drawn from `rng` under `plan`.
pub fn run_phase(jobs: &[Job], rng: &mut Rng, plan: &Plan, epoch: Instant) -> Phase {
    let decoded = decoded_sizes(jobs, plan);
    let mut phase = Phase::default();
    let order = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Workers and the coordinator meet here at the start and the end of
    // every round.
    let gate = Barrier::new(plan.threads + 1);
    let results = Mutex::new(Vec::new());
    let worker = || {
        let mut tracer = plan.traced.then(|| Tracer::new(epoch));
        loop {
            gate.wait();
            if stop.load(Ordering::SeqCst) {
                return tracer;
            }
            let order = order.lock().expect("the coordinator never panics").clone();
            while let Some(&j) = order.get(next.fetch_add(1, Ordering::SeqCst)) {
                let t0 = Instant::now();
                let job = &jobs[j];
                let r: JobResult = catch_unwind(AssertUnwindSafe(|| {
                    execute(job, plan, decoded[j], tracer.as_mut())
                }))
                .unwrap_or_else(|_| Err(format!("{}: the pipeline panicked", job.name)));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                results
                    .lock()
                    .expect("workers never panic holding the lock")
                    .push((j, ms, r));
            }
            gate.wait();
        }
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.threads).map(|_| scope.spawn(worker)).collect();
        loop {
            *order.lock().expect("workers never panic holding the lock") = jobs::round(jobs, rng);
            next.store(0, Ordering::SeqCst);
            let start = Instant::now();
            gate.wait();
            gate.wait();
            let wall = start.elapsed().as_secs_f64();
            let done = results
                .lock()
                .expect("workers are parked")
                .drain(..)
                .collect();
            let n = record(&mut phase, jobs, plan, done);
            phase.timing.rounds.push((n, wall));
            match measure::host_probe_ms() {
                Ok(ms) => phase.timing.calib_ms.push(ms),
                Err(e) => phase.failures.push(e),
            }
            let rounds = phase.timing.rounds.len();
            let more = phase
                .timing
                .another_round(plan.seconds, phase.attempted, plan.min_jobs);
            if !more || (plan.max_rounds > 0 && rounds >= plan.max_rounds) {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        gate.wait();
        phase.tracers = workers
            .into_iter()
            .filter_map(|w| w.join().expect("worker threads catch job panics"))
            .collect();
    });
    phase
}

/// Fold one round's results into `phase`; returns the jobs completed.
fn record(
    phase: &mut Phase,
    jobs: &[Job],
    plan: &Plan,
    done: Vec<(usize, f64, JobResult)>,
) -> usize {
    let mut completed = 0;
    for (j, ms, r) in done {
        phase.attempted += 1;
        let (c, run) = match r {
            Ok(ok) => ok,
            Err(e) => {
                phase.failures.push(e);
                continue;
            }
        };
        completed += 1;
        phase.timing.samples.push((j, ms));
        let out = Output {
            code_insts: traced::static_insts(&c),
            cycles: run.as_ref().map(|r| r.cycles),
        };
        match phase.outputs.get(&j) {
            Some(prev) if *prev != out => phase.failures.push(format!(
                "{}: output changed between repeats: {prev:?} then {out:?}",
                jobs[j].name
            )),
            Some(_) => {}
            None => {
                phase.outputs.insert(j, out);
                if plan.fingerprint {
                    phase
                        .fingerprints
                        .insert(j, traced::fingerprint(&c, run.as_ref()));
                }
            }
        }
    }
    completed
}
