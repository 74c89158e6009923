//! The `service` workload's client: a spawned `wmd --jobs 2` with a fresh
//! cache directory, fed newline-delimited JSON jobs over stdio with at
//! most two requests in flight.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wm_stream::json::{self, Value};

use crate::jobs::{self, Job, Rng};
use crate::measure::{self, Timing};

/// A running daemon and the thread reading its responses.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(String, Instant)>,
    reader: Option<JoinHandle<()>>,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Spawn `wmd --jobs workers` with a fresh `cache_dir` and wait until
    /// it answers `ping`.
    ///
    /// # Errors
    ///
    /// Spawn failures, an existing cache directory, or a daemon that
    /// exits or answers something else.
    pub fn spawn(wmd: &Path, workers: usize, cache_dir: PathBuf) -> Result<Daemon, String> {
        if cache_dir.exists() {
            return Err(format!("{} already exists", cache_dir.display()));
        }
        let mut child = Command::new(wmd)
            .arg("--jobs")
            .arg(workers.to_string())
            .arg("--cache-dir")
            .arg(&cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", wmd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((line, Instant::now())).is_err() {
                    break;
                }
            }
        });
        let mut d = Daemon {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            cache_dir,
        };
        d.send("{\"op\": \"ping\"}")?;
        let (line, _) = d.recv()?;
        if !line.contains("\"pong\"") {
            return Err(format!("wmd answered ping with {line}"));
        }
        Ok(d)
    }

    fn send(&mut self, line: &str) -> Result<Instant, String> {
        let stdin = self.stdin.as_mut().ok_or("wmd stdin already closed")?;
        let sent = Instant::now();
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to wmd: {e}"))?;
        Ok(sent)
    }

    fn recv(&mut self) -> Result<(String, Instant), String> {
        self.lines
            .recv_timeout(Duration::from_secs(120))
            .map_err(|e| format!("waiting for wmd: {e}"))
    }

    /// The daemon's `{"op": "stats"}` counters.
    ///
    /// # Errors
    ///
    /// I/O failures and unparsable answers.
    pub fn stats(&mut self) -> Result<Value, String> {
        self.send("{\"op\": \"stats\"}")?;
        let (line, _) = self.recv()?;
        json::parse(&line).map_err(|e| format!("stats answer {line}: {e}"))
    }

    /// Peak resident memory of the daemon so far, in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc` has no status for the daemon.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        measure::peak_rss_mib(self.child.id())
    }

    /// Ask the daemon to shut down, wait for it, and remove its cache.
    ///
    /// # Errors
    ///
    /// A daemon that fails to exit cleanly within ten seconds (it is then
    /// killed), or a cache directory that cannot be removed.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.send("{\"op\": \"shutdown\"}");
        self.stdin = None; // EOF as well, in case the op was lost
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break None,
            }
        };
        let clean = status.is_some_and(|s| s.success());
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        let removed = std::fs::remove_dir_all(&self.cache_dir);
        asked?;
        if !clean {
            return Err(format!("wmd did not exit cleanly: {status:?}"));
        }
        removed.map_err(|e| format!("removing {}: {e}", self.cache_dir.display()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached when `shutdown` was not: never leave a daemon behind.
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One request line for `job`. `round` goes into `max_cycles` (far above
/// any job's cycle count, so results are unchanged) to give every round
/// its own cache keys: each round then has the same mix of cold and
/// cached requests however many rounds a run makes.
pub fn request_line(id: &str, job: &Job, round: usize) -> String {
    let mut s = format!(
        "{{\"id\": \"{id}\", \"source\": \"{}\", \"opt\": \"{}\", \"noalias\": true, \
         \"max_cycles\": {}",
        json::escape(&job.spec.source),
        job.level.name(),
        MAX_CYCLES - round as u64
    );
    if let Some(l) = job.mem_latency {
        s.push_str(&format!(", \"mem_latency\": {l}"));
    }
    s.push('}');
    s
}

/// Run `job` once, bypassing the cache: the untimed warm-up.
///
/// # Errors
///
/// I/O failures and error responses.
pub fn warm_up(d: &mut Daemon, job: &Job) -> Result<(), String> {
    let line = request_line("warm-up", job, 0);
    d.send(&format!(
        "{}, \"no_cache\": true}}",
        &line[..line.len() - 1]
    ))?;
    let (answer, _) = d.recv()?;
    if answer.contains("\"status\": \"ok\"") {
        Ok(())
    } else {
        Err(format!("warm-up failed: {answer}"))
    }
}

const MAX_CYCLES: u64 = 1_000_000_000;

/// What the client saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Client latency of every ok response (a repeat of job `j` counts
    /// as job `j + jobs.len()`), rounds and host probes.
    pub timing: Timing,
    /// Client latency of cached responses.
    pub hit_ms: Vec<f64>,
    /// Client latency of computed responses.
    pub miss_ms: Vec<f64>,
    /// The daemon's own `wall_ms` for each response.
    pub worker_ms: Vec<f64>,
    /// Client latency minus `wall_ms`: queueing, wire and parsing.
    pub overhead_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: usize,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Simulated cycles of each distinct job.
    pub cycles: BTreeMap<usize, u64>,
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("response lacks `{key}`"))
}

/// The `result` payload exactly as the daemon wrote it: the last member
/// of an `ok` line, which the daemon splices in verbatim from its cache.
fn raw_result(line: &str) -> Option<&str> {
    let start = line.find("\"result\": ")? + "\"result\": ".len();
    line.get(start..line.len().checked_sub(1)?)
}

/// Run whole service rounds for about `seconds` and at least `min_jobs`
/// requests (see [`Timing::another_round`]), at most `in_flight` at once.
pub fn run_phase(
    d: &mut Daemon,
    jobs: &[Job],
    rng: &mut Rng,
    seconds: f64,
    min_jobs: usize,
    in_flight: usize,
) -> Phase {
    let mut p = Phase::default();
    loop {
        let round = p.timing.rounds.len();
        let reqs = jobs::service_round(jobs, rng);
        let before = p.timing.jobs();
        let start = Instant::now();
        if let Err(e) = run_round(d, jobs, &reqs, round, in_flight, &mut p) {
            p.failures.push(e);
            break;
        }
        let wall = start.elapsed().as_secs_f64();
        p.timing.rounds.push((p.timing.jobs() - before, wall));
        match measure::host_probe_ms() {
            Ok(ms) => p.timing.calib_ms.push(ms),
            Err(e) => p.failures.push(e),
        }
        if !p.timing.another_round(seconds, p.attempted, min_jobs) {
            break;
        }
    }
    p
}

fn run_round(
    d: &mut Daemon,
    jobs: &[Job],
    reqs: &[jobs::Request],
    round: usize,
    limit: usize,
    p: &mut Phase,
) -> Result<(), String> {
    // id -> (request index, send time)
    let mut in_flight: BTreeMap<String, (usize, Instant)> = BTreeMap::new();
    // job -> cold payload, once answered
    let mut cold: BTreeMap<usize, String> = BTreeMap::new();
    let mut next = 0;
    while next < reqs.len() || !in_flight.is_empty() {
        while in_flight.len() < limit && next < reqs.len() {
            let r = reqs[next];
            if r.repeat && !cold.contains_key(&r.job) {
                break; // a repeat goes out once its cold answer is in
            }
            let id = format!("r{round}-{next}");
            let sent = d.send(&request_line(&id, &jobs[r.job], round))?;
            p.attempted += 1;
            in_flight.insert(id, (next, sent));
            next += 1;
        }
        let (line, at) = d.recv()?;
        let v = json::parse(&line).map_err(|e| format!("wmd sent {line}: {e}"))?;
        let id = field(&v, "id")?.as_str().unwrap_or_default().to_string();
        let (i, sent) = in_flight
            .remove(&id)
            .ok_or_else(|| format!("wmd answered unknown id: {line}"))?;
        let req = reqs[i];
        let job = &jobs[req.job];
        if let Err(e) = check_response(&v, &line, job, req.repeat, &mut cold, req.job, p) {
            p.failures.push(format!("{} ({id}): {e}", job.name));
            // Unblock the repeat; it fails its comparison in turn.
            cold.entry(req.job).or_default();
            continue;
        }
        let ms = at.duration_since(sent).as_secs_f64() * 1e3;
        let wall = field(&v, "wall_ms")?.as_f64().unwrap_or(0.0);
        let identity = req.job + if req.repeat { jobs.len() } else { 0 };
        p.timing.samples.push((identity, ms));
        p.worker_ms.push(wall);
        p.overhead_ms.push(ms - wall);
        if req.repeat {
            p.hit_ms.push(ms);
        } else {
            p.miss_ms.push(ms);
        }
    }
    Ok(())
}

fn check_response(
    v: &Value,
    line: &str,
    job: &Job,
    repeat: bool,
    cold: &mut BTreeMap<usize, String>,
    j: usize,
    p: &mut Phase,
) -> Result<(), String> {
    if field(v, "status")?.as_str() != Some("ok") {
        return Err(format!("error response {line}"));
    }
    let cached = field(v, "cached")?.as_bool() == Some(true);
    if cached != repeat {
        return Err(format!(
            "cached = {cached} on a {} request",
            if repeat { "repeat" } else { "cold" }
        ));
    }
    let payload = raw_result(line).ok_or("no result payload")?;
    let result = field(v, "result")?;
    let ret = field(result, "ret_int")?
        .as_i64()
        .ok_or("ret_int is not an integer")?;
    job.check(ret)?;
    let cycles = field(result, "cycles")?
        .as_u64()
        .ok_or("cycles is not a count")?;
    match p.cycles.get(&j) {
        Some(&c) if c != cycles => {
            return Err(format!("cycles changed between rounds: {c} then {cycles}"));
        }
        Some(_) => {}
        None => {
            p.cycles.insert(j, cycles);
        }
    }
    if repeat {
        let first = cold
            .get(&j)
            .ok_or("repeat answered before its cold request")?;
        if first != payload {
            return Err(format!(
                "cached payload differs from cold: {payload} vs {first}"
            ));
        }
    } else {
        cold.insert(j, payload.to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_raw_payload_is_the_last_member() {
        let line =
            r#"{"id": "a", "status": "ok", "cached": false, "result": {"cycles": 5, "x": [1]}}"#;
        assert_eq!(raw_result(line), Some(r#"{"cycles": 5, "x": [1]}"#));
        assert_eq!(raw_result("{}"), None);
    }

    #[test]
    fn request_lines_are_valid_wm_requests() {
        let jobs = jobs::table(jobs::Kind::Service);
        for j in &jobs {
            let v = json::parse(&request_line("x", j, 3)).unwrap();
            assert_eq!(
                v.get("source").and_then(Value::as_str),
                Some(j.spec.source.as_str())
            );
            assert_eq!(v.get("mem_latency").and_then(Value::as_u64), j.mem_latency);
            assert!(v.get("engine").is_none(), "the engine is never set");
        }
    }
}
