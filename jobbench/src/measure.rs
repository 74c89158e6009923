//! Order statistics, the host-speed probe and peak memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`:
/// the smallest sample with at least `p` % of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `1..=100`.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// The `p`-th percentile as a reportable tail: `None` unless at least ten
/// samples lie beyond it, so that a tail always rests on ten observations.
pub fn tail(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() || samples.len() - rank(samples.len(), p) < 10 {
        return None;
    }
    Some(percentile(samples, p))
}

/// Samples a run needs before [`tail`] reports the `p`-th percentile.
pub fn samples_for_tail(p: u32) -> usize {
    (1..)
        .find(|&n| n - rank(n, p) >= 10)
        .expect("some n suffices")
}

/// The median (nearest rank) of `samples`, or 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, 50)
    }
}

/// The timing record of a phase made of whole rounds.
///
/// The host this benchmark was built on (a 2-vCPU KVM guest) runs the same
/// job up to twice as slowly for stretches of seconds to minutes: other
/// tenants share the CPU, and a job's CPU time matches its wall time.
/// The reported latencies are therefore *typical* ones: each job's median
/// latency over the run, weighted by the job mix. A slow stretch shorter
/// than half the run does not move them, and unlike a per-job minimum they
/// do not hang on whether a job happened to run alone at the end of a
/// round. A slow stretch as long as the run moves every job alike; the
/// host probe run after every round measures it, and the reported figures
/// are divided by the run's median probe ([`slowdown`]). In paired
/// ten-seed trials on that host this narrowed the spread between runs of
/// p50, p90 and throughput on every workload, to half or less while the
/// host was noisiest. The figures before that division are printed beside
/// them. Every job is timed and checked on every run.
#[derive(Debug, Default)]
pub struct Timing {
    /// `(job, ms)` of every completed job, in completion order.
    pub samples: Vec<(usize, f64)>,
    /// `(jobs completed, wall seconds)` of every round.
    pub rounds: Vec<(usize, f64)>,
    /// The host probe run after every round, in ms.
    pub calib_ms: Vec<f64>,
}

impl Timing {
    /// Jobs completed.
    pub fn jobs(&self) -> usize {
        self.samples.len()
    }

    /// Wall seconds spent in rounds.
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.1).sum()
    }

    /// Every completed job's latency replaced by the median latency of its
    /// job (same table index) in the run.
    pub fn typical_latencies(&self) -> Vec<f64> {
        let mut by_job: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(j, ms) in &self.samples {
            by_job.entry(j).or_default().push(ms);
        }
        let typical: BTreeMap<usize, f64> = by_job.iter().map(|(&j, v)| (j, median(v))).collect();
        self.samples.iter().map(|(j, _)| typical[j]).collect()
    }

    /// Whether a phase with `attempted` jobs so far starts another round:
    /// always until `min_jobs` have been attempted, and then while one
    /// more round of the mean length so far ends nearer `seconds` than
    /// stopping now does.
    pub fn another_round(&self, seconds: f64, attempted: usize, min_jobs: usize) -> bool {
        if self.rounds.is_empty() || attempted < min_jobs {
            return true;
        }
        let mean = self.wall_s() / self.rounds.len() as f64;
        self.wall_s() + mean / 2.0 < seconds
    }

    /// Completed jobs per wall second of the rounds: the measured
    /// throughput of the timed phase.
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs() as f64 / self.wall_s().max(1e-9)
    }
}

/// The probe's time in ms on the reference host (a round figure; it only
/// sets the scale of host-normalised times).
pub const REFERENCE_PROBE_MS: f64 = 10.0;

/// How much slower than the reference the host was while `probes_ms` were
/// taken: their median over [`REFERENCE_PROBE_MS`] (1 for no probes).
/// Times divided by it, and rates multiplied, are host-normalised.
pub fn slowdown(probes_ms: &[f64]) -> f64 {
    if probes_ms.is_empty() {
        1.0
    } else {
        median(probes_ms) / REFERENCE_PROBE_MS
    }
}

/// [`calib_probe_ms`] in a fresh copy of this program (`jobbench
/// --probe`), so that the probe shares no heap or allocator state with the
/// jobs it calibrates and a change to the program cannot slow it.
///
/// # Errors
///
/// When the copy cannot be started or prints no time.
pub fn host_probe_ms() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating jobbench: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--probe")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("host probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(ms) if out.status.success() => Ok(ms),
        _ => Err(format!("host probe failed ({}): {text}", out.status)),
    }
}

/// A fixed amount of host work — sorting 100 000 pseudo-random keys and
/// building and probing a 30 000-entry ordered map, branchy code like the
/// compiler's and the simulator's — timed in milliseconds. Run between
/// rounds, it records how fast the host was at that moment, so host-speed
/// drift can be told apart from a change in the program.
pub fn calib_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..100_000).map(|_| next()).collect();
    keys.sort_unstable();
    let mut map = std::collections::BTreeMap::new();
    for i in 0..30_000u64 {
        map.insert(next() % 50_000, i);
    }
    let hits = (0..50_000u64).filter(|k| map.contains_key(k)).count();
    black_box((&keys, hits));
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory (`VmHWM`) of process `pid` in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/<pid>/status` cannot be read or lacks
/// the field.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled so the functions must sort.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&ramp(5), 50), 3.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(90), 100);
        assert_eq!(samples_for_tail(99), 1000);
        assert_eq!(tail(&ramp(99), 90), None, "only nine samples beyond p90");
        assert_eq!(tail(&ramp(100), 90), Some(90.0));
        assert_eq!(tail(&ramp(250), 90), Some(225.0));
        assert_eq!(tail(&ramp(999), 99), None);
        assert_eq!(tail(&[], 50), None);
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        assert!(peak_rss_mib(std::process::id()).unwrap() > 0.0);
        assert!(peak_rss_mib(u32::MAX).is_err());
    }

    #[test]
    fn run_figures() {
        let t = Timing {
            samples: vec![(0, 10.0), (1, 50.0), (0, 4.0), (1, 70.0), (0, 6.0)],
            rounds: vec![(2, 1.0), (3, 0.5)],
            calib_ms: vec![],
        };
        // job 0's median is 6 ms; job 1's (nearest rank of two) is 50 ms
        assert_eq!(t.typical_latencies(), vec![6.0, 50.0, 6.0, 50.0, 6.0]);
        assert!((t.jobs_per_s() - 5.0 / 1.5).abs() < 1e-9);
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[12.0, 8.0, 30.0]), 1.2, "median of three");
        assert_eq!(t.jobs(), 5);
        assert_eq!(t.wall_s(), 1.5);
        // rounds average 0.75 s: a third one would end at 2.25 s
        assert!(t.another_round(2.0, 5, 0));
        assert!(!t.another_round(1.8, 5, 0));
        assert!(t.another_round(1.0, 5, 100), "too few jobs yet");
        assert!(
            Timing::default().another_round(0.0, 0, 0),
            "at least one round"
        );
    }

    #[test]
    fn the_probe_does_measurable_work() {
        assert!(calib_probe_ms() > 0.0);
    }
}
