//! `memsweep` — memory-hierarchy sensitivity sweep.
//!
//! The paper's central claim is that access/execute decoupling makes
//! performance insensitive to memory latency: the SCUs run ahead of the
//! execute units, so a WM loses little as miss latency grows, while a
//! scalar machine pays the full latency on every miss. This tool
//! measures that directly on the simulator's hierarchical memory models:
//!
//! * **latency sweep** — every workload compiled both ways (scalar =
//!   classical optimizations only, streaming = full WM pipeline) under
//!   `cache:miss=L` for each swept miss latency `L`; the table reports
//!   cycles and the streaming-vs-scalar speedup per point;
//! * **bandwidth sweep** — the same pairs under `banked:banks=B` for
//!   each swept bank count, showing how DRAM bank parallelism feeds the
//!   stream buffers.
//!
//! ```text
//! memsweep                         sweep the suite, write MEMSWEEP.json
//! memsweep --latencies 6,24,64     miss latencies for the cache sweep
//! memsweep --banks 1,2,8           bank counts for the banked sweep
//! memsweep --tiles 1,2,4           tile counts for the tiled scaling
//!                                  sweep: the partitionable kernels,
//!                                  compiled through the tile-partitioning
//!                                  pass, across tiles × bank counts
//! memsweep --out FILE              write results to FILE instead
//! memsweep --check                 fail (exit 1) unless the streaming
//!                                  speedup grows monotonically with miss
//!                                  latency on the stream-heavy kernels
//! ```
//!
//! `--check` is the CI gate for the paper's qualitative result: on
//! kernels the compiler streams well, decoupling must tolerate latency
//! (speedup non-decreasing in `L`); compute-bound or poorly streamed
//! programs are reported but not gated. When the tiles sweep covers more
//! than one tile count, `--check` additionally requires the largest
//! tiled build to beat its 1-tile build outright at the largest swept
//! bank count on every partitionable kernel.

use wm_stream::json::{self, Fixed, Layout, Writer};
use wm_stream::sim::TILES_RANGE;
use wm_stream::{JobSpec, Workload};

/// Kernels whose inner loops stream fully: the latency-tolerance gate
/// applies to these. (`iir`, `dhrystone`, `sieve` keep scalar accesses
/// or control flow in the loop and are informational only.)
/// `sparse-matvec` is the indirect-stream kernel: its gathers miss by
/// construction, so it is the sharpest probe of latency tolerance.
const STREAM_HEAVY: [&str; 3] = ["dot-product", "livermore5", "sparse-matvec"];

/// Kernels the tile-partitioning pass splits across cores (a qualifying
/// loop nest with affine stores): the tiled scaling sweep and its gate
/// run on these.
const PARTITIONABLE: [&str; 2] = ["livermore5", "sparse-matvec"];

/// One measured (workload, model-point) pair.
struct Point {
    workload: String,
    /// `"cache:miss=24"` or `"banked:banks=2"` — the swept spec.
    spec: String,
    /// The swept axis value (miss latency or bank count).
    x: u64,
    scalar_cycles: u64,
    streaming_cycles: u64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.scalar_cycles as f64 / self.streaming_cycles as f64
    }
}

fn suite() -> Vec<Workload> {
    let mut v = vec![wm_stream::workloads::livermore5()];
    let keep = ["dot-product", "sieve", "iir", "dhrystone"];
    v.extend(
        wm_stream::workloads::table2()
            .into_iter()
            .filter(|w| keep.contains(&w.name)),
    );
    v.extend(wm_stream::workloads::sparse());
    v
}

/// Cycles of `w` compiled with `noalias` and run with the job
/// `settings` (see `wm_stream::driver::SETTINGS`). Tiled results are
/// bit-identical for any host thread count, so tiled runs just let the
/// scheduler pick.
fn run(w: &Workload, settings: &[(&str, &str)]) -> u64 {
    let mut job = JobSpec::new(w.source);
    for &(name, value) in [("noalias", "true")].iter().chain(settings) {
        job.set(name, value)
            .unwrap_or_else(|e| panic!("{name} {value}: {e}"));
    }
    let r = job
        .run(None)
        .unwrap_or_else(|e| panic!("{} {settings:?}: {e}", w.name));
    w.check(r.ret_int);
    r.cycles
}

/// One measured (workload, tiles, banks) point of the tiled scaling
/// sweep: the streaming build compiled through the tile-partitioning
/// pass and simulated on `tiles` cores.
struct TilePoint {
    workload: String,
    tiles: u64,
    banks: u64,
    cycles: u64,
    /// Cycles of the same workload's 1-tile build at the same bank
    /// count (the scaling denominator).
    one_tile_cycles: u64,
}

impl TilePoint {
    fn speedup(&self) -> f64 {
        self.one_tile_cycles as f64 / self.cycles as f64
    }
}

/// Streaming cycles of `w` partitioned over `tiles` cores on `banks`
/// DRAM banks.
fn run_tiled(w: &Workload, tiles: u64, banks: u64) -> u64 {
    let spec = format!("banked:banks={banks}");
    run(w, &[("tiles", &tiles.to_string()), ("mem", &spec)])
}

fn measure(w: &Workload, spec: &str, x: u64) -> Point {
    Point {
        workload: w.name.to_string(),
        spec: spec.to_string(),
        x,
        scalar_cycles: run(w, &[("opt", "classical"), ("mem", spec)]),
        streaming_cycles: run(w, &[("mem", spec)]),
    }
}

fn print_table(title: &str, axis: &str, points: &[Point]) {
    eprintln!("memsweep: {title}");
    eprintln!(
        "  {:<12} {:>8} {:>12} {:>12} {:>9}",
        "workload", axis, "scalar", "streaming", "speedup"
    );
    for p in points {
        eprintln!(
            "  {:<12} {:>8} {:>12} {:>12} {:>8.2}x",
            p.workload,
            p.x,
            p.scalar_cycles,
            p.streaming_cycles,
            p.speedup()
        );
    }
}

fn print_tile_table(points: &[TilePoint]) {
    if points.is_empty() {
        return;
    }
    eprintln!("memsweep: tiled scaling sweep (banked DRAM, partitioned kernels)");
    eprintln!(
        "  {:<12} {:>6} {:>6} {:>12} {:>12} {:>9}",
        "workload", "tiles", "banks", "1-tile", "tiled", "speedup"
    );
    for p in points {
        eprintln!(
            "  {:<12} {:>6} {:>6} {:>12} {:>12} {:>8.2}x",
            p.workload,
            p.tiles,
            p.banks,
            p.one_tile_cycles,
            p.cycles,
            p.speedup()
        );
    }
}

fn results_json(latency: &[Point], banks: &[Point], tiles: &[TilePoint]) -> String {
    let table = |w: &mut Writer, points: &[Point]| {
        w.array(Layout::Lines, |w| {
            for p in points {
                w.object(Layout::Inline, |w| {
                    w.field("workload", &p.workload)
                        .field("spec", &p.spec)
                        .field("x", p.x)
                        .field("scalar_cycles", p.scalar_cycles)
                        .field("streaming_cycles", p.streaming_cycles)
                        .field("speedup", Fixed(p.speedup(), 4));
                });
            }
        });
    };
    json::object(Layout::Lines, |w| {
        w.field("schema", "wm-bench-memsweep-v1")
            .field("stream_heavy", STREAM_HEAVY.as_slice());
        table(w.key("latency_sweep"), latency);
        table(w.key("bandwidth_sweep"), banks);
        w.key("tiles_sweep").array(Layout::Lines, |w| {
            for p in tiles {
                w.object(Layout::Inline, |w| {
                    w.field("workload", &p.workload)
                        .field("tiles", p.tiles)
                        .field("banks", p.banks)
                        .field("cycles", p.cycles)
                        .field("one_tile_cycles", p.one_tile_cycles)
                        .field("speedup", Fixed(p.speedup(), 4));
                });
            }
        });
    }) + "\n"
}

/// The latency-tolerance gate: on every stream-heavy kernel the speedup
/// must grow with miss latency — strictly from the first swept point to
/// the last, and with no intermediate step falling more than 1% (the
/// MSHRs can fully hide two adjacent short latencies, leaving a flat
/// step whose ratio jitters in the fourth digit). Returns violations.
fn check_monotone(latency: &[Point]) -> Vec<String> {
    const STEP_TOLERANCE: f64 = 0.99;
    let mut failures = Vec::new();
    for name in STREAM_HEAVY {
        let series: Vec<&Point> = latency.iter().filter(|p| p.workload == name).collect();
        for pair in series.windows(2) {
            if pair[1].speedup() < pair[0].speedup() * STEP_TOLERANCE {
                failures.push(format!(
                    "{name}: speedup fell from {:.3}x (miss={}) to {:.3}x (miss={})",
                    pair[0].speedup(),
                    pair[0].x,
                    pair[1].speedup(),
                    pair[1].x
                ));
            }
        }
        if let (Some(first), Some(last)) = (series.first(), series.last()) {
            if series.len() > 1 && last.speedup() <= first.speedup() {
                failures.push(format!(
                    "{name}: speedup did not grow across the sweep \
                     ({:.3}x at miss={} vs {:.3}x at miss={})",
                    first.speedup(),
                    first.x,
                    last.speedup(),
                    last.x
                ));
            }
        }
    }
    failures
}

/// The decoupling-win gate on banked DRAM: at every swept bank count,
/// the streaming build of each stream-heavy kernel must beat its scalar
/// build outright — indirect streams included, so a regression that
/// reverts the gather/scatter kernels to scalar loads fails here even
/// if the affine kernels still pass.
fn check_banked_wins(banks: &[Point]) -> Vec<String> {
    let mut failures = Vec::new();
    for name in STREAM_HEAVY {
        for p in banks.iter().filter(|p| p.workload == name) {
            if p.speedup() <= 1.0 {
                failures.push(format!(
                    "{name}: streaming does not beat scalar under {} \
                     ({} vs {} cycles, {:.3}x)",
                    p.spec,
                    p.streaming_cycles,
                    p.scalar_cycles,
                    p.speedup()
                ));
            }
        }
    }
    failures
}

/// The tiled scaling gate: at the largest swept bank count, the largest
/// tiled build of every partitionable kernel must beat its 1-tile build
/// outright — the CI teeth behind "partitioning pays on banked DRAM".
/// Smaller bank counts are reported but not gated (with one bank the
/// tiles fight over the same DRAM bank and may lose to the pipelined
/// single core).
fn check_tiled_wins(tiles: &[TilePoint]) -> Vec<String> {
    let Some(max_tiles) = tiles.iter().map(|p| p.tiles).max() else {
        return Vec::new();
    };
    let Some(max_banks) = tiles.iter().map(|p| p.banks).max() else {
        return Vec::new();
    };
    if max_tiles <= 1 {
        return Vec::new();
    }
    let mut failures = Vec::new();
    for name in PARTITIONABLE {
        for p in tiles
            .iter()
            .filter(|p| p.workload == name && p.tiles == max_tiles && p.banks == max_banks)
        {
            if p.speedup() <= 1.0 {
                failures.push(format!(
                    "{name}: {} tiles do not beat 1 tile on banked:banks={} \
                     ({} vs {} cycles, {:.3}x)",
                    p.tiles,
                    p.banks,
                    p.cycles,
                    p.one_tile_cycles,
                    p.speedup()
                ));
            }
        }
    }
    failures
}

fn parse_list(s: &str, flag: &str) -> Vec<u64> {
    let v: Vec<u64> = s
        .split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse().unwrap_or_else(|_| {
                eprintln!("memsweep: {flag} takes a comma-separated list of integers");
                std::process::exit(2);
            })
        })
        .collect();
    if v.is_empty() {
        eprintln!("memsweep: {flag} must name at least one value");
        std::process::exit(2);
    }
    v
}

fn main() {
    let mut out = "MEMSWEEP.json".to_string();
    let mut latencies: Vec<u64> = vec![6, 24, 64];
    let mut bank_counts: Vec<u64> = vec![1, 2, 8];
    let mut tile_counts: Vec<u64> = vec![1, 2, 4];
    let mut gate = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("memsweep: missing argument value");
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--out" => out = need(&mut i),
            "--latencies" => latencies = parse_list(&need(&mut i), "--latencies"),
            "--banks" => bank_counts = parse_list(&need(&mut i), "--banks"),
            "--tiles" => {
                tile_counts = parse_list(&need(&mut i), "--tiles");
                if tile_counts
                    .iter()
                    .any(|&t| !TILES_RANGE.contains(&(t as usize)))
                {
                    eprintln!("memsweep: --tiles values must be in {TILES_RANGE:?}");
                    std::process::exit(2);
                }
            }
            "--check" => gate = true,
            other => {
                eprintln!(
                    "memsweep: unknown option {other}\n\
                     usage: memsweep [--latencies N,N,...] [--banks N,N,...] [--tiles N,N,...]\n\
                     [--out FILE] [--check]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let workloads = suite();
    let mut latency_points = Vec::new();
    for w in &workloads {
        for &l in &latencies {
            latency_points.push(measure(w, &format!("cache:miss={l}"), l));
        }
    }
    let mut bank_points = Vec::new();
    for w in &workloads {
        for &b in &bank_counts {
            bank_points.push(measure(w, &format!("banked:banks={b}"), b));
        }
    }
    let mut tile_points = Vec::new();
    for w in workloads.iter().filter(|w| PARTITIONABLE.contains(&w.name)) {
        for &b in &bank_counts {
            let one = run_tiled(w, 1, b);
            for &t in &tile_counts {
                let cycles = if t == 1 { one } else { run_tiled(w, t, b) };
                tile_points.push(TilePoint {
                    workload: w.name.to_string(),
                    tiles: t,
                    banks: b,
                    cycles,
                    one_tile_cycles: one,
                });
            }
        }
    }

    print_table(
        "latency sweep (cache, miss latency L)",
        "miss",
        &latency_points,
    );
    print_table(
        "bandwidth sweep (banked DRAM, B banks)",
        "banks",
        &bank_points,
    );
    print_tile_table(&tile_points);

    if let Err(e) = std::fs::write(
        &out,
        results_json(&latency_points, &bank_points, &tile_points),
    ) {
        eprintln!("memsweep: cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!(
        "memsweep: wrote {} latency, {} bandwidth and {} tiled points to {out}",
        latency_points.len(),
        bank_points.len(),
        tile_points.len()
    );

    if gate {
        let mut failures = check_monotone(&latency_points);
        failures.extend(check_banked_wins(&bank_points));
        failures.extend(check_tiled_wins(&tile_points));
        if failures.is_empty() {
            eprintln!(
                "memsweep: latency-tolerance gate passed (speedup non-decreasing in miss \
                 latency, banked wins, on {})",
                STREAM_HEAVY.join(", ")
            );
        } else {
            for f in &failures {
                eprintln!("memsweep: LATENCY-TOLERANCE VIOLATION {f}");
            }
            std::process::exit(1);
        }
    }
}
