//! `wmcc` — command-line driver for the WM streaming compiler.
//!
//! ```text
//! wmcc prog.c                         compile for the WM, run main, print cycles
//! wmcc prog.c --emit                  print the optimized listing instead of running
//! wmcc prog.c --opt modulo            optimization level (see --help for the full set)
//! wmcc prog.c --noalias               assume distinct pointer bases are disjoint
//! wmcc prog.c --target scalar --machine vax8600
//! wmcc prog.c --mem-latency 24 --mem-ports 1
//! wmcc prog.c --mem cache:size=16384,miss=32
//! wmcc prog.c --mem banked:banks=4,busy=8 --stats
//! wmcc prog.c --engine cycle          run the per-cycle reference stepper
//! wmcc prog.c --entry kernel --args 100,7
//! wmcc prog.c --inject drop:3,jitter:42:5
//! wmcc prog.c --speculative-streams
//! wmcc prog.c --tiles 4 --mem banked     partition across 4 cores
//! ```
//!
//! The job flags are the settings of `wm_stream::driver::SETTINGS`, the
//! same ones `wmd` accepts as job fields, so they compose in any order.

use std::process::ExitCode;
use std::time::Duration;

use wm_stream::driver::{deadline_token, JobSpec, Kind, SETTINGS};
use wm_stream::sim::SimError;
use wm_stream::{Compiler, MachineModel, Target};

struct Options {
    file: String,
    target: Target,
    machine: MachineModel,
    /// The job's settings, entry, arguments and tile threads; its source
    /// is read from `file` once the arguments are parsed.
    job: JobSpec,
    emit: bool,
    stats: bool,
    stats_json: Option<String>,
    trace_head: usize,
    trace_chrome: Option<String>,
    deadline_ms: Option<u64>,
    error_json: Option<String>,
}

const USAGE: &str = "usage: wmcc FILE.c [--target wm|scalar] [--machine sun3|hp345|vax8600|m88100]
               [--opt LEVEL] [--noalias] [--vectorize]
               [--speculative-streams] [--emit] [--stats] [--stats-json FILE]
               [--trace N | --trace chrome:FILE]
               [--entry NAME] [--args N,N,...]
               [--mem-latency N] [--mem-ports N] [--fifo N] [--mem MODEL]
               [--inject SPEC] [--max-cycles N]
               [--squash-penalty N] [--engine cycle|compiled]
               [--tiles N] [--tile-threads M] [--no-partition]
               [--deadline-ms N] [--error-json FILE]

Flags may come in any order: --opt sets only what tells the levels apart,
so a --noalias or --tiles given before it is kept. A flag given twice
takes its last value.

  --opt LEVEL            optimization level (default full). The complete
                         set, documented only here:
                           none        the front end's naive code unchanged
                           classical   classical phases only (no recurrence
                                       detection, no streaming)
                           recurrence  classical + the paper's recurrence
                                       detection and optimization
                           full        recurrence + streaming + dual-issue
                                       combining (the default)
                           modulo      full + solver-based optimal software
                                       pipelining of streamed inner loops
                                       (achieved II and MII appear under
                                       --stats; falls back to the greedy
                                       schedule loop-by-loop on UNSAT or
                                       solver-budget exhaustion, so it is
                                       never slower)
  --stats                print per-unit performance counters (instructions
                         retired, active/idle/stall cycles with stall-reason
                         attribution, FIFO occupancy, memory-port usage) on
                         stderr after the run; with --opt modulo, also one
                         line per candidate loop with its MII, the greedy
                         interval, the achieved II, the number of solver
                         probes it took and their decisions and conflicts
  --stats-json FILE      write the same counters as JSON to FILE ('-' for
                         stdout)
  --trace N              print the first N executed instructions on stderr
  --trace chrome:FILE    write a Chrome trace_event timeline of unit
                         activity and FIFO depth to FILE (open in
                         chrome://tracing or ui.perfetto.dev)
  --speculative-streams  keep streams that may fetch past their array,
                         relying on the WM's deferred (poison) faults.
                         Extends to indirect streams: a gather whose
                         index values cannot be bounded at compile time
                         fetches speculatively and poisons out-of-range
                         entries, which fault only if the program
                         actually consumes them; control-speculative
                         streams hoisted past a branch are squashed
                         (in-flight entries killed, --squash-penalty
                         recovery cycles charged) when the branch
                         resolves against them, never changing
                         architectural results
  --squash-penalty N     recovery cycles charged when a misspeculated
                         stream is squashed (default 0); shows up in
                         --stats as SpecSquash stall cycles
  --engine NAME          simulation engine (default compiled); both
                         execute pre-decoded threaded-dispatch tables.
                         `compiled` skips idle units and fast-forwards
                         over spans where every unit is stalled or idle;
                         `cycle` is the reference that steps every unit
                         every cycle. Both produce bit-identical cycle
                         counts and statistics
  --mem MODEL            memory-system model (default flat). MODEL is
                         flat | cache[:k=v,...] | banked[:k=v,...]:
                           flat     every access takes --mem-latency cycles
                           cache    L1 data cache + per-SCU stream buffers
                                    over a fixed-latency backing store; keys
                                    size, assoc, line, hit, miss, mshrs,
                                    sbufs, depth, transfer
                           banked   as cache, backed by banked DRAM with
                                    open-row timing; adds banks, row,
                                    rowhit, rowmiss, busy
                         Scalar loads/stores go through the L1; stream
                         traffic bypasses it via the stream buffers, so
                         streamed code tolerates miss latency (the paper's
                         access/execute decoupling). Timing-only: results
                         never change, --stats gains a memory-hierarchy
                         section
  --mem-ports N          memory requests accepted per cycle (1..=64,
                         default 2)
  --fifo N               architectural data-FIFO capacity in entries
                         (1..=1024, default 8). Unlike --mem/--mem-latency
                         this is a hardware parameter, not a timing knob:
                         the compiler schedules against the default depth,
                         so code that completes always computes the same
                         results, but a schedule that needs more run-ahead
                         than a shallower FIFO can hold is reported as a
                         deadlock (exit 3) rather than silently throttled.
                         Sweeping --fifo shows where each schedule becomes
                         capacity-bound (see EXPERIMENTS.md)
  --tiles N              instantiate N WM cores (1..=8, default 1) coupled
                         by point-to-point FIFO channels, and let the
                         compiler partition the entry function's hottest
                         qualifying loop across them (slices written back
                         to tile 0 over channel streams). A loop that
                         cannot be proven partitionable runs on tile 0
                         alone — same result, no speedup. Cycle counts and
                         statistics are bit-identical for any host thread
                         count and both engines
  --tile-threads M       host worker threads stepping the tiles between
                         synchronization epochs (default: one per
                         available CPU). Affects wall-clock time only,
                         never the simulated results
  --no-partition         keep --tiles N cores but skip the partitioning
                         pass (the extra tiles idle; for A/B comparisons)
  --inject SPEC          deterministic fault injection; SPEC is a comma-
                         separated list of delay:N:C (delay memory request
                         #N's response by C cycles), drop:N (drop request
                         #N's response), scu:I:C (disable SCU I at cycle C)
                         and jitter:SEED:MAX (seeded latency jitter)
  --max-cycles N         simulated-cycle limit (default 2000000000); a run
                         that reaches it is reported as a timeout (exit 3)
  --deadline-ms N        cancel the simulation after N milliseconds of
                         wall-clock time (cooperative; distinct from the
                         simulated-cycle limit, which reports a timeout)
  --error-json FILE      on simulation failure, additionally write the
                         error in its stable JSON encoding (the same one
                         the wmd daemon puts on the wire) to FILE ('-'
                         for stderr)

exit status: the program's return value (low 8 bits) on success, else
  1  input or compilation error (including bad programs)
  2  usage error
  3  simulation fault, deadlock or cycle-limit timeout
  4  wall-clock deadline exceeded (--deadline-ms)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Report a simulator failure with its machine-state dump (and, when
/// requested, its stable JSON encoding) and pick the documented exit
/// code: 1 for unrunnable programs, 4 for wall-clock deadline
/// cancellations, 3 for runtime faults, deadlocks and timeouts.
fn sim_failure(e: &SimError, error_json: Option<&str>) -> ExitCode {
    eprintln!("wmcc: simulation failed: {e}");
    if let Some(state) = e.state() {
        eprint!("{state}");
    }
    if let Some(path) = error_json {
        let doc = format!("{}\n", e.to_json());
        if path == "-" {
            eprint!("{doc}");
        } else if let Err(io) = std::fs::write(path, doc) {
            eprintln!("wmcc: cannot write error report {path}: {io}");
        }
    }
    match e {
        SimError::BadProgram(_) => ExitCode::from(1),
        SimError::Cancelled { .. } => ExitCode::from(4),
        _ => ExitCode::from(3),
    }
}

fn parse_args() -> Options {
    let mut o = Options {
        file: String::new(),
        target: Target::Wm,
        machine: MachineModel::sun_3_280(),
        job: JobSpec::new(String::new()),
        emit: false,
        stats: false,
        stats_json: None,
        trace_head: 0,
        trace_chrome: None,
        deadline_ms: None,
        error_json: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--target" => {
                o.target = match need(&mut i).as_str() {
                    "wm" => Target::Wm,
                    "scalar" => Target::Scalar,
                    _ => usage(),
                }
            }
            "--machine" => {
                o.machine = match need(&mut i).as_str() {
                    "sun3" => MachineModel::sun_3_280(),
                    "hp345" => MachineModel::hp_9000_345(),
                    "vax8600" => MachineModel::vax_8600(),
                    "m88100" => MachineModel::m88100(),
                    _ => usage(),
                }
            }
            "--tile-threads" => {
                o.job.tile_threads = need(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--trace" => {
                let spec = need(&mut i);
                if let Some(path) = spec.strip_prefix("chrome:") {
                    if path.is_empty() {
                        usage();
                    }
                    o.trace_chrome = Some(path.to_string());
                } else {
                    o.trace_head = spec.parse().unwrap_or_else(|_| usage());
                }
            }
            "--emit" => o.emit = true,
            "--deadline-ms" => {
                o.deadline_ms = Some(need(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--error-json" => o.error_json = Some(need(&mut i)),
            "--stats" => o.stats = true,
            "--stats-json" => o.stats_json = Some(need(&mut i)),
            "--entry" => o.job.entry = need(&mut i),
            "--args" => {
                o.job.args = need(&mut i)
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            arg => match SETTINGS.iter().find(|s| s.flag == arg) {
                Some(setting) => {
                    let value = match setting.kind {
                        Kind::Flag(cli, _) => cli.to_string(),
                        _ => need(&mut i),
                    };
                    if let Err(e) = o.job.set(setting.name, &value) {
                        eprintln!("wmcc: {arg}: {e}");
                        std::process::exit(2);
                    }
                }
                None if !arg.starts_with('-') && o.file.is_empty() => o.file = arg.to_string(),
                None => usage(),
            },
        }
        i += 1;
    }
    if o.file.is_empty() {
        usage();
    }
    o
}

fn main() -> ExitCode {
    let mut o = parse_args();
    o.job.source = match std::fs::read_to_string(&o.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wmcc: cannot read {}: {e}", o.file);
            return ExitCode::from(1);
        }
    };
    let compiled = match Compiler::new()
        .target(o.target)
        .options(o.job.opts.clone())
        .compile(&o.job.source)
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wmcc: {}: {e}", o.file);
            return ExitCode::from(1);
        }
    };
    if o.stats {
        for (name, s) in &compiled.stats {
            eprintln!(
                "{name}: recurrence loads eliminated {}, streams {} in / {} out \
                 ({} unbounded), {} gathers / {} scatters",
                s.recurrence.loads_eliminated,
                s.streaming.streams_in,
                s.streaming.streams_out,
                s.streaming.infinite,
                s.streaming.gathers,
                s.streaming.scatters,
            );
            for l in s.modulo.loops() {
                eprintln!(
                    "{name}: L{}: modulo {} insts, MII {}, greedy interval {} -> II {} \
                     ({}, probes {}, {} decisions, {} conflicts)",
                    l.label,
                    l.insts,
                    l.mii,
                    l.greedy,
                    l.ii,
                    if l.pipelined {
                        "pipelined"
                    } else {
                        "greedy fallback"
                    },
                    l.probes,
                    l.decisions,
                    l.conflicts,
                );
            }
        }
    }
    if o.emit {
        for f in &compiled.module.functions {
            print!("{}", f.display(Some(&compiled.module)));
            println!();
        }
        return ExitCode::SUCCESS;
    }
    if o.target == Target::Scalar {
        return match compiled.run_scalar(&o.job.entry, &o.job.args, &o.machine) {
            Ok(r) => {
                if !r.output.is_empty() {
                    print!("{}", String::from_utf8_lossy(&r.output));
                }
                eprintln!(
                    "wmcc: {} cycles on {}, returned {}",
                    r.cycles, o.machine.name, r.ret_int
                );
                ExitCode::from((r.ret_int & 0xff) as u8)
            }
            Err(e) => {
                eprintln!("wmcc: execution failed: {e}");
                if matches!(e, wm_stream::machines::ScalarError::BadProgram(_)) {
                    ExitCode::from(1)
                } else {
                    ExitCode::from(3)
                }
            }
        };
    }
    // The daemon and the CLI share this code path (JobSpec): one
    // definition of how a job compiles, starts and cancels.
    let error_json = o.error_json.as_deref();
    let cancel = o
        .deadline_ms
        .map(|ms| deadline_token(Duration::from_millis(ms)));
    let result = if o.job.config.tiles > 1 {
        // Tiled runs go through the shared driver path (no
        // per-instruction tracing across tiles yet).
        if let Some(t) = &compiled.tiling {
            eprintln!(
                "wmcc: partitioned loop {} over [{}, {}) across {} tiles \
                 ({} writeback region(s), {} carried scalar(s))",
                t.header, t.lo, t.hi, t.tiles, t.writebacks, t.carried
            );
        } else if o.job.opts.partition {
            eprintln!(
                "wmcc: no loop qualified for partitioning; \
                 tiles 1..{} will idle",
                o.job.config.tiles
            );
        }
        o.job.simulate(&compiled, cancel.as_ref())
    } else {
        let mut machine = match o.job.machine(&compiled, cancel.as_ref()) {
            Ok(m) => m,
            Err(e) => return sim_failure(&e, error_json),
        };
        if o.trace_head > 0 || o.trace_chrome.is_some() {
            machine.set_trace(true);
        }
        if o.trace_chrome.is_some() {
            machine.set_timeline(true);
        }
        let result = machine.run_to_completion();
        if o.trace_head > 0 {
            for ev in machine.trace().iter().take(o.trace_head) {
                eprintln!("{:>8}  {:<3}  {}", ev.cycle, ev.unit, ev.text);
            }
        }
        if let Some(path) = &o.trace_chrome {
            // Written even when the run faults: the partial timeline
            // is exactly what you want when debugging a deadlock.
            let json = wm_stream::trace::chrome_trace(
                machine.trace(),
                machine.timeline(),
                machine.ff_spans(),
            );
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("wmcc: cannot write trace {path}: {e}");
                return ExitCode::from(1);
            }
        }
        result
    };
    match result {
        Ok(r) => {
            if !r.output.is_empty() {
                print!("{}", String::from_utf8_lossy(&r.output));
            }
            if o.stats {
                eprint!("{}", r.perf);
            }
            if let Some(path) = &o.stats_json {
                if path == "-" {
                    print!("{}", r.perf.to_json());
                } else if let Err(e) = std::fs::write(path, r.perf.to_json()) {
                    eprintln!("wmcc: cannot write stats {path}: {e}");
                    return ExitCode::from(1);
                }
            }
            eprintln!(
                "wmcc: {} cycles, {} instructions, returned {}",
                r.cycles,
                r.stats.instructions(),
                r.ret_int
            );
            ExitCode::from((r.ret_int & 0xff) as u8)
        }
        Err(e) => sim_failure(&e, error_json),
    }
}
