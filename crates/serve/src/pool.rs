//! The supervised worker pool.
//!
//! Jobs enter a shared queue; a fixed set of workers claim work from it
//! (work "stealing" degenerates to claiming off one shared deque — the
//! generalization of `perf --jobs`' atomic-counter loop to a dynamic job
//! stream). Every job runs under [`crate::job::execute`], which
//! fences panics, and under a fresh [`CancelToken`] that a watchdog
//! thread cancels when the job's wall-clock deadline passes.
//!
//! # Exactly-once responses
//!
//! Each job carries a `claimed` flag. Whoever flips it first — the
//! worker finishing the job, or the watchdog giving up on a stuck
//! worker — owns the (single) terminal response. The loser drops its
//! result. This is what keeps "a worker wedged in the simulator" from
//! ever wedging the *client*: the watchdog answers after
//! `deadline + grace`, and if the worker later comes back, its late
//! result is discarded rather than duplicated.
//!
//! # One attempt, and shedding
//!
//! Every job runs once. A job is deterministic: compile errors, panics
//! and simulator errors, including those of a fault-injection plan,
//! which is seeded, replay identically, and a deadline overrun asks for
//! the same simulated work again. A retry would only repeat the failure,
//! add load when the host is busiest and delay the answer. Admission
//! control sheds jobs with an `overloaded` response when the queue is
//! full.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wm_stream::sim::{CancelToken, SimError};

use crate::cache::ArtifactCache;
use crate::job::{execute, ExecFailure, ModuleCache};
use crate::proto::{self, ErrorClass, JobRequest};

/// Pool tuning, set from `wmd`'s command line.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker thread count.
    pub workers: usize,
    /// Queue depth at which jobs are shed with `overloaded`.
    pub queue_limit: usize,
    /// How long past its deadline a worker may run before the watchdog
    /// claims the response and marks the worker stuck.
    pub stuck_grace_ms: u64,
    /// Default per-job deadline when the request does not set one.
    pub default_deadline_ms: Option<u64>,
    /// Honor `chaos` fields in requests.
    pub chaos: bool,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 4,
            queue_limit: 256,
            stuck_grace_ms: 2_000,
            default_deadline_ms: None,
            chaos: false,
        }
    }
}

/// Monotonic event counters, snapshotted by `{"op": "stats"}`.
#[derive(Debug, Default)]
pub struct Counters {
    /// Job lines received (before admission control).
    pub received: AtomicU64,
    /// Terminal `ok` responses.
    pub ok: AtomicU64,
    /// Terminal `error` responses (all classes).
    pub errors: AtomicU64,
    /// Jobs that panicked.
    pub panics: AtomicU64,
    /// Jobs shed at admission.
    pub shed: AtomicU64,
    /// Artifact-cache hits.
    pub cache_hits: AtomicU64,
    /// Artifact-cache misses (lookups that went on to execute).
    pub cache_misses: AtomicU64,
    /// Responses the watchdog had to claim from stuck workers.
    pub stuck: AtomicU64,
    /// Request lines that failed to parse.
    pub bad_requests: AtomicU64,
}

impl Counters {
    /// Increment one counter.
    pub fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Value of one counter (test/reporting convenience).
    pub fn get(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }
}

struct QueuedJob {
    req: JobRequest,
    reply: Sender<String>,
    claimed: Arc<AtomicBool>,
}

struct Inflight {
    token: CancelToken,
    started: Instant,
    deadline: Option<Duration>,
    deadline_ms: u64,
    claimed: Arc<AtomicBool>,
    reply: Sender<String>,
    id: String,
}

struct Shared {
    cfg: PoolConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    shutdown: AtomicBool,
    drained: AtomicBool,
    inflight: Vec<Mutex<Option<Inflight>>>,
    counters: Counters,
    cache: Option<ArtifactCache>,
    modules: ModuleCache,
}

/// Claim the right to send the terminal response. True for exactly one
/// caller per job.
fn claim(flag: &AtomicBool) -> bool {
    !flag.swap(true, Ordering::SeqCst)
}

/// The pool: workers, watchdog, queue and counters.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Pool {
    /// Start `cfg.workers` workers and the watchdog.
    pub fn new(cfg: PoolConfig, cache: Option<ArtifactCache>) -> Pool {
        let shared = Arc::new(Shared {
            inflight: (0..cfg.workers).map(|_| Mutex::new(None)).collect(),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            counters: Counters::default(),
            cache,
            modules: ModuleCache::new(128),
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wmd-worker-{i}"))
                    .spawn(move || worker_loop(&s, i))
                    .expect("spawn worker")
            })
            .collect();
        let watchdog = {
            let s = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("wmd-watchdog".to_string())
                    .spawn(move || watchdog_loop(&s))
                    .expect("spawn watchdog"),
            )
        };
        Pool {
            shared,
            workers,
            watchdog,
        }
    }

    /// The event counters.
    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    /// Current queue depth (pending, not yet claimed by a worker).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// Admit a job: shed or enqueue. Always results in exactly one
    /// terminal response on `reply`, eventually.
    pub fn submit(&self, req: JobRequest, reply: Sender<String>) {
        let s = &self.shared;
        Counters::bump(&s.counters.received);
        let queued = self.queue_len();
        if queued >= s.cfg.queue_limit {
            Counters::bump(&s.counters.shed);
            Counters::bump(&s.counters.errors);
            let line = proto::error_line(
                Some(&req.id),
                &ErrorClass::Overloaded {
                    queued,
                    limit: s.cfg.queue_limit,
                },
            );
            let _ = reply.send(line);
            return;
        }
        let job = QueuedJob {
            req,
            reply,
            claimed: Arc::new(AtomicBool::new(false)),
        };
        s.queue.lock().unwrap().push_back(job);
        s.available.notify_one();
    }

    /// Stop accepting the *queue* as infinite: workers finish everything
    /// already queued, then exit; the watchdog exits. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Only after every worker has drained and exited may the watchdog
        // go: a stuck worker must never lose its supervisor.
        self.shared.drained.store(true, Ordering::SeqCst);
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(s: &Arc<Shared>, index: usize) {
    loop {
        let job = {
            let mut q = s.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if s.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = s.available.wait(q).unwrap();
            }
        };
        run_job(s, index, job);
    }
}

fn run_job(s: &Arc<Shared>, index: usize, job: QueuedJob) {
    let QueuedJob {
        req,
        reply,
        claimed,
    } = job;
    let deadline_ms = req.deadline_ms.or(s.cfg.default_deadline_ms);
    let cacheable = !req.no_cache && req.chaos.is_none();
    let key = cacheable.then(|| ArtifactCache::key_of(&req.spec.cache_key_material()));

    if let (Some(cache), Some(key)) = (s.cache.as_ref(), key.as_deref()) {
        let lookup_start = Instant::now();
        if let Some(payload) = cache.lookup(key) {
            Counters::bump(&s.counters.cache_hits);
            if claim(&claimed) {
                Counters::bump(&s.counters.ok);
                let wall_ms = lookup_start.elapsed().as_secs_f64() * 1e3;
                let _ = reply.send(proto::ok_line(&req.id, true, wall_ms, &payload));
            }
            return;
        }
        Counters::bump(&s.counters.cache_misses);
    }

    let token = CancelToken::new();
    let started = Instant::now();
    *s.inflight[index].lock().unwrap() = Some(Inflight {
        token: token.clone(),
        started,
        deadline: deadline_ms.map(Duration::from_millis),
        deadline_ms: deadline_ms.unwrap_or(0),
        claimed: Arc::clone(&claimed),
        reply: reply.clone(),
        id: req.id.clone(),
    });
    let result = execute(&req, &token, s.cfg.chaos, &s.modules);
    *s.inflight[index].lock().unwrap() = None;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    match result {
        Ok(payload) => {
            if let (Some(cache), Some(key)) = (s.cache.as_ref(), key.as_deref()) {
                if let Err(e) = cache.store(key, &payload) {
                    eprintln!("wmd: cache store failed for {key}: {e}");
                }
            }
            if claim(&claimed) {
                Counters::bump(&s.counters.ok);
                let _ = reply.send(proto::ok_line(&req.id, false, wall_ms, &payload));
            }
        }
        Err(failure) => {
            if matches!(failure, ExecFailure::Panic { .. }) {
                Counters::bump(&s.counters.panics);
            }
            // A claimed flag here means the watchdog already answered
            // (stuck path): the late result is dropped.
            if claim(&claimed) {
                Counters::bump(&s.counters.errors);
                let class = classify(failure, deadline_ms);
                let _ = reply.send(proto::error_line(Some(&req.id), &class));
            }
        }
    }
}

/// Map a job's failure to its wire class. A cancellation is a
/// deadline overrun precisely when the job had a deadline — nothing else
/// cancels job tokens.
fn classify(failure: ExecFailure, deadline_ms: Option<u64>) -> ErrorClass {
    match failure {
        ExecFailure::Compile(msg) => ErrorClass::Compile(msg),
        ExecFailure::Sim(SimError::Cancelled { .. }) => ErrorClass::Deadline {
            deadline_ms: deadline_ms.unwrap_or(0),
            stuck: false,
        },
        ExecFailure::Sim(e) => ErrorClass::Sim(e),
        ExecFailure::Panic { stage, payload } => ErrorClass::Panic { stage, payload },
    }
}

/// Tick every few milliseconds: cancel tokens past their deadline, and
/// answer for workers that have overrun deadline + grace (stuck in a
/// stage that cannot observe the token, e.g. a wedged compile). The
/// claimed flag makes the race with a late-finishing worker safe.
fn watchdog_loop(s: &Arc<Shared>) {
    const TICK: Duration = Duration::from_millis(5);
    loop {
        // `drained` is set only after every worker has exited, so the
        // watchdog provably outlives every job it supervises.
        if s.drained.load(Ordering::SeqCst) {
            return;
        }
        for slot in &s.inflight {
            let guard = slot.lock().unwrap();
            let Some(inf) = guard.as_ref() else { continue };
            let Some(deadline) = inf.deadline else {
                continue;
            };
            let elapsed = inf.started.elapsed();
            if elapsed >= deadline {
                inf.token.cancel();
            }
            if elapsed >= deadline + Duration::from_millis(s.cfg.stuck_grace_ms)
                && claim(&inf.claimed)
            {
                Counters::bump(&s.counters.stuck);
                Counters::bump(&s.counters.errors);
                let line = proto::error_line(
                    Some(&inf.id),
                    &ErrorClass::Deadline {
                        deadline_ms: inf.deadline_ms,
                        stuck: true,
                    },
                );
                let _ = inf.reply.send(line);
                eprintln!(
                    "wmd: watchdog answered for stuck job {} ({}ms past its {}ms deadline)",
                    inf.id,
                    (elapsed - deadline).as_millis(),
                    inf.deadline_ms
                );
            }
        }
        std::thread::sleep(TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use wm_stream::json::{self, Value};
    use wm_stream::JobSpec;

    fn req(id: &str, source: &str) -> JobRequest {
        JobRequest {
            id: id.to_string(),
            spec: JobSpec::new(source),
            deadline_ms: None,
            no_cache: false,
            chaos: None,
        }
    }

    fn small_pool(cfg: PoolConfig) -> Pool {
        Pool::new(cfg, None)
    }

    fn status(line: &str) -> (String, String) {
        let v = json::parse(line).unwrap();
        (
            v.get("id")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            v.get("status").and_then(Value::as_str).unwrap().to_string(),
        )
    }

    #[test]
    fn runs_jobs_and_replies_exactly_once_each() {
        let mut pool = small_pool(PoolConfig {
            workers: 3,
            ..PoolConfig::default()
        });
        let (tx, rx) = channel();
        for i in 0..12 {
            pool.submit(
                req(&format!("j{i}"), "int main() { return 5; }"),
                tx.clone(),
            );
        }
        drop(tx);
        pool.shutdown();
        let lines: Vec<String> = rx.into_iter().collect();
        assert_eq!(lines.len(), 12);
        let mut ids: Vec<String> = lines.iter().map(|l| status(l).0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 12, "one response per id");
        assert!(lines.iter().all(|l| status(l).1 == "ok"));
    }

    #[test]
    fn a_panicking_job_reports_and_spares_its_siblings() {
        let mut pool = small_pool(PoolConfig {
            workers: 2,
            chaos: true,
            ..PoolConfig::default()
        });
        let (tx, rx) = channel();
        let mut bad = req("bad", "int main() { return 0; }");
        bad.chaos = Some(crate::proto::ChaosPoint::PanicSimulate);
        pool.submit(bad, tx.clone());
        for i in 0..6 {
            pool.submit(
                req(&format!("ok{i}"), "int main() { return 2; }"),
                tx.clone(),
            );
        }
        drop(tx);
        pool.shutdown();
        let lines: Vec<String> = rx.into_iter().collect();
        assert_eq!(lines.len(), 7);
        let failures: Vec<&String> = lines.iter().filter(|l| status(l).1 == "error").collect();
        assert_eq!(failures.len(), 1);
        let v = json::parse(failures[0]).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("class"))
                .and_then(Value::as_str),
            Some("panic")
        );
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("stage"))
                .and_then(Value::as_str),
            Some("simulate")
        );
        assert_eq!(Counters::get(&pool.counters().panics), 1);
    }

    #[test]
    fn deadlines_cancel_long_jobs_after_one_attempt() {
        let mut pool = small_pool(PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        });
        let (tx, rx) = channel();
        let mut slow = req(
            "slow",
            "int main() { int i; int s; s = 0; for (i = 0; i < 1000000000; i++) s += i; return s; }",
        );
        slow.deadline_ms = Some(30);
        pool.submit(slow, tx.clone());
        drop(tx);
        pool.shutdown();
        let line = rx.into_iter().next().unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("class"))
                .and_then(Value::as_str),
            Some("deadline")
        );
        assert_eq!(v.get("attempts"), None, "every job runs once");
        assert_eq!(Counters::get(&pool.counters().errors), 1);
    }

    #[test]
    fn injected_faults_are_reported_without_retry() {
        let mut pool = small_pool(PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        });
        let (tx, rx) = channel();
        let mut r = req(
            "faulty",
            "int a[32]; int main() { int i; int s; s = 0;
             for (i = 0; i < 32; i++) a[i] = i;
             for (i = 0; i < 32; i++) s += a[i]; return s; }",
        );
        r.spec.config = r
            .spec
            .config
            .clone()
            .with_fault_plan(wm_stream::sim::FaultPlan::parse("scu:0:2").unwrap());
        pool.submit(r, tx.clone());
        drop(tx);
        pool.shutdown();
        let line = rx.into_iter().next().unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("class"))
                .and_then(Value::as_str),
            Some("sim")
        );
        assert_eq!(Counters::get(&pool.counters().errors), 1);
    }

    #[test]
    fn overload_sheds_with_a_terminal_response() {
        // Zero-size queue: every submission sheds, deterministically.
        let mut pool = small_pool(PoolConfig {
            workers: 1,
            queue_limit: 0,
            ..PoolConfig::default()
        });
        let (tx, rx) = channel();
        pool.submit(req("shed-me", "int main() { return 0; }"), tx.clone());
        drop(tx);
        pool.shutdown();
        let line = rx.into_iter().next().unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("class"))
                .and_then(Value::as_str),
            Some("overloaded")
        );
        assert_eq!(Counters::get(&pool.counters().shed), 1);
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let dir = std::env::temp_dir().join(format!("wmd-pool-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        let mut pool = Pool::new(
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            Some(cache),
        );
        let (tx, rx) = channel();
        let source =
            "int main() { int i; int s; s = 0; for (i = 0; i < 64; i++) s += i; return s; }";
        pool.submit(req("cold", source), tx.clone());
        // Wait for the cold run to land before submitting the hit, so the
        // test is deterministic rather than racing the store.
        let cold = rx.recv().unwrap();
        pool.submit(req("warm", source), tx.clone());
        let warm = rx.recv().unwrap();
        drop(tx);
        pool.shutdown();
        let vc = json::parse(&cold).unwrap();
        let vw = json::parse(&warm).unwrap();
        assert_eq!(vc.get("cached").and_then(Value::as_bool), Some(false));
        assert_eq!(vw.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(
            vc.get("result"),
            vw.get("result"),
            "cache hit must be bit-identical to the fresh run"
        );
        assert_eq!(Counters::get(&pool.counters().cache_hits), 1);
        assert_eq!(Counters::get(&pool.counters().cache_misses), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
