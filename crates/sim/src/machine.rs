//! The WM machine model.

use std::collections::{HashMap, VecDeque};

use wm_ir::hw::VECTOR_LENGTH;
use wm_ir::{
    BinOp, DataFifo, GlobalKind, InstKind, Module, Operand, RExpr, Reg, RegClass, SymId, UnOp,
    Width,
};

use crate::cancel::CancelToken;
use crate::config::WmConfig;
use crate::decode::DecodedProgram;
use crate::fastforward::{CycleOutcomes, Engine, FfSpan};
use crate::fault::{FaultInfo, FaultKind, FaultUnit, FifoState, MachineState, ScuState, UnitState};
use crate::loader::{AccessError, AccessKind, MemoryImage};
use crate::mem::{Access, MemStats, MemSystem};
use crate::scu::{Scu, ScuKind, StreamTarget};
use crate::stats::{DepthSample, FifoOccupancy, Outcome, Stall, Stats, FIFO_NAMES, SBUF_TRACK};

/// Cycles without progress before the run is declared wedged. The
/// fast-forward tail clamps its jumps to this horizon so both engines
/// report [`SimError::Deadlock`] at the identical cycle.
pub(crate) const DEADLOCK_WINDOW: u64 = 10_000;

/// A unit's output FIFO, as the `slot` of [`WmMachine::fifo_changing`].
pub(crate) const FIFO_OUT: usize = 2;
/// A unit's condition-code FIFO, as the `slot` of
/// [`WmMachine::fifo_changing`].
pub(crate) const FIFO_CC: usize = 3;

/// A simulation failure. Terminal errors carry a [`MachineState`]
/// snapshot; faults additionally carry [`FaultInfo`] provenance.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cycle limit was reached.
    Timeout {
        cycles: u64,
        state: Box<MachineState>,
    },
    /// No unit made progress for a long time; the machine state is wedged
    /// (usually a miscompilation — e.g. a FIFO imbalance).
    Deadlock {
        cycle: u64,
        detail: String,
        state: Box<MachineState>,
    },
    /// A memory fault or illegal operation.
    Fault {
        cycle: u64,
        fault: FaultInfo,
        state: Box<MachineState>,
    },
    /// The run was cancelled through its [`CancelToken`] (a wall-clock
    /// deadline, a supervisor shutdown) before completing. Distinct from
    /// [`SimError::Timeout`], which is the *simulated-cycle* limit.
    Cancelled {
        cycle: u64,
        state: Box<MachineState>,
    },
    /// The module cannot be executed (missing entry, virtual registers…).
    BadProgram(String),
}

impl SimError {
    /// The machine-state snapshot attached to the error, if any.
    pub fn state(&self) -> Option<&MachineState> {
        match self {
            SimError::Timeout { state, .. }
            | SimError::Deadlock { state, .. }
            | SimError::Fault { state, .. }
            | SimError::Cancelled { state, .. } => Some(state),
            SimError::BadProgram(_) => None,
        }
    }

    /// The fault provenance, for faults.
    pub fn fault(&self) -> Option<&FaultInfo> {
        match self {
            SimError::Fault { fault, .. } => Some(fault),
            _ => None,
        }
    }

    /// Stable machine-readable class name, used by [`SimError::to_json`]
    /// and the `wmd` wire protocol.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SimError::Timeout { .. } => "timeout",
            SimError::Deadlock { .. } => "deadlock",
            SimError::Fault { .. } => "fault",
            SimError::Cancelled { .. } => "cancelled",
            SimError::BadProgram(_) => "bad-program",
        }
    }

    /// Render the error — class, cycle, human-readable message and, for
    /// faults, the full [`FaultInfo`] provenance — as a stable one-object
    /// JSON document. This is the encoding shared by `wmcc --error-json`
    /// and the `wmd` wire protocol; the machine-state dump is deliberately
    /// omitted (it is a debugging aid, not part of the wire contract).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"error\": \"{}\", \"message\": \"{}\"",
            self.kind_name(),
            crate::fault::json_escape(&self.to_string())
        ));
        match self {
            SimError::Timeout { cycles, .. } => {
                out.push_str(&format!(", \"cycles\": {cycles}"));
            }
            SimError::Deadlock { cycle, detail, .. } => {
                out.push_str(&format!(
                    ", \"cycle\": {cycle}, \"detail\": \"{}\"",
                    crate::fault::json_escape(detail)
                ));
            }
            SimError::Fault { cycle, fault, .. } => {
                out.push_str(&format!(", \"cycle\": {cycle}, \"fault\": "));
                out.push_str(&fault.to_json());
            }
            SimError::Cancelled { cycle, .. } => {
                out.push_str(&format!(", \"cycle\": {cycle}"));
            }
            SimError::BadProgram(detail) => {
                out.push_str(&format!(
                    ", \"detail\": \"{}\"",
                    crate::fault::json_escape(detail)
                ));
            }
        }
        out.push('}');
        out
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Timeout { cycles, .. } => write!(f, "cycle limit {cycles} exceeded"),
            SimError::Deadlock { cycle, detail, .. } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::Fault { cycle, fault, .. } => write!(f, "fault at cycle {cycle}: {fault}"),
            SimError::Cancelled { cycle, .. } => write!(f, "cancelled at cycle {cycle}"),
            SimError::BadProgram(d) => write!(f, "bad program: {d}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Fault { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions executed by the integer execution unit.
    pub insts_ieu: u64,
    /// Instructions executed by the floating-point execution unit.
    pub insts_feu: u64,
    /// Control instructions handled by the instruction fetch unit.
    pub insts_ifu: u64,
    /// Scalar memory reads issued.
    pub mem_reads: u64,
    /// Memory writes issued (scalar and stream-out).
    pub mem_writes: u64,
    /// Stream-in reads issued by the SCUs.
    pub stream_reads: u64,
    /// Stream-out writes issued by the SCUs.
    pub stream_writes: u64,
    /// Cycles the IFU spent stalled (empty CC FIFO, full queue, sync).
    pub ifu_stalls: u64,
    /// Function calls executed.
    pub calls: u64,
}

impl SimStats {
    /// Total instructions executed across all units.
    pub fn instructions(&self) -> u64 {
        self.insts_ieu + self.insts_feu + self.insts_ifu
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Exact cycle count, including memory delays.
    pub cycles: u64,
    /// Integer return value of the entry function (`r2`).
    pub ret_int: i64,
    /// Floating-point return value (`f2`).
    pub ret_flt: f64,
    /// Bytes written through `putchar`.
    pub output: Vec<u8>,
    /// Detailed statistics.
    pub stats: SimStats,
    /// Cycle-accounted performance counters: per-unit stall attribution
    /// (exact by construction), FIFO occupancy histograms, memory-port
    /// utilization and per-SCU element counts.
    pub perf: Stats,
    /// The stepping engine that produced this result. Every engine yields
    /// bit-identical cycles and counters; this records which one ran.
    pub engine: Engine,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Val {
    I(i64),
    F(f64),
}

impl Val {
    pub(crate) fn as_i(self) -> i64 {
        match self {
            Val::I(v) => v,
            Val::F(v) => v as i64,
        }
    }
    pub(crate) fn as_f(self) -> f64 {
        match self {
            Val::I(v) => v as f64,
            Val::F(v) => v,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pc {
    pub(crate) func: usize,
    pub(crate) block: usize,
    pub(crate) inst: usize,
}

/// Result of attempting to issue a unit's head instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exec {
    /// The instruction retired; the payload is the destination register
    /// the paired-ALU interlock must delay, if any.
    Retired(Option<u8>),
    /// A structural stall, with its attributed reason.
    Stall(Stall),
}

/// Why a FIFO entry is poisoned: the stream prefetch that produced it
/// faulted. The fault is deferred — raised only if the entry is consumed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Poison {
    pub(crate) addr: i64,
    pub(crate) scu: usize,
    pub(crate) error: String,
}

/// One FIFO entry: a value, possibly carrying a deferred stream fault.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slot {
    pub(crate) val: Val,
    pub(crate) poison: Option<Box<Poison>>,
}

/// One value staged toward another tile's receive queue. Staged sends
/// accumulate during an epoch and are routed by the tile scheduler at
/// the barrier that ends the epoch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChanMsg {
    pub(crate) dst: usize,
    pub(crate) val: Val,
    /// Poison travels through the channel unchanged: a poisoned datum
    /// forwarded core-to-core keeps its provenance and faults only at
    /// consumption, wherever in the tiled machine that happens.
    pub(crate) poison: Option<Box<Poison>>,
}

/// One delivered channel entry, poppable once `due` is reached.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RxEntry {
    pub(crate) due: u64,
    pub(crate) val: Val,
    pub(crate) poison: Option<Box<Poison>>,
}

#[derive(Debug, Default)]
pub(crate) struct InFifo {
    pub(crate) q: VecDeque<Slot>,
    /// Requests in flight toward this FIFO.
    pub(crate) pending: usize,
    /// Generation: bumped by stream stop so stale arrivals are dropped.
    pub(crate) gen: u32,
    /// Is an SCU currently feeding this FIFO?
    pub(crate) streamed: bool,
    /// Scalar-load elements the owning unit has yet to dequeue. jNI
    /// early branch resolution lets the IEU configure a channel-send
    /// SCU on this FIFO while the FEU still owes pops of loop-body
    /// load data; the send must not steal those elements, so it
    /// drains only while this is zero.
    pub(crate) owed: usize,
}

/// A scalar execution unit (IEU/FEU). The instruction queue holds `u32`
/// indices into the machine's [`DecodedProgram`] table, which both
/// engines issue from, so nothing is cloned at dispatch.
#[derive(Debug)]
pub(crate) struct Unit {
    pub(crate) regs: [Val; 32],
    pub(crate) iq: VecDeque<u32>,
    pub(crate) ins: [InFifo; 2],
    pub(crate) out: VecDeque<Val>,
    pub(crate) cc: VecDeque<bool>,
    pub(crate) prev_dst: Option<u8>,
    pub(crate) prev_cycle: u64,
    pub(crate) busy: u64,
    /// Address latch for an indirect scalar load whose memory issue was
    /// refused (MSHRs exhausted, DRAM bank busy). Evaluating the address
    /// expression consumes its FIFO operand, so the computed address must
    /// be held here across retry cycles — re-evaluating on the retry
    /// would dequeue from a now-empty FIFO and wedge the machine.
    pub(crate) latched_load: Option<i64>,
}

impl Unit {
    fn new(class: RegClass) -> Unit {
        let zero = match class {
            RegClass::Int => Val::I(0),
            RegClass::Flt => Val::F(0.0),
        };
        Unit {
            regs: [zero; 32],
            iq: VecDeque::new(),
            ins: [InFifo::default(), InFifo::default()],
            out: VecDeque::new(),
            cc: VecDeque::new(),
            prev_dst: None,
            prev_cycle: 0,
            busy: 0,
            latched_load: None,
        }
    }
}

/// The vector execution unit: 8 vector registers of N doubles, two input
/// stream ports and one output FIFO.
#[derive(Debug)]
pub(crate) struct Veu {
    pub(crate) iq: VecDeque<u32>,
    vregs: Vec<Vec<f64>>,
    pub(crate) ports: [VecDeque<f64>; 2],
    /// requests in flight toward each port
    pub(crate) pending: [usize; 2],
    pub(crate) out: VecDeque<f64>,
    pub(crate) busy: u64,
}

impl Veu {
    fn new(n: usize) -> Veu {
        Veu {
            iq: VecDeque::new(),
            vregs: vec![vec![0.0; n]; 8],
            ports: [VecDeque::new(), VecDeque::new()],
            pending: [0, 0],
            out: VecDeque::new(),
            busy: 0,
        }
    }
}

#[derive(Debug)]
pub(crate) enum MemOp {
    ReadFifo {
        target: StreamTarget,
        addr: i64,
        width: Width,
        gen: u32,
        /// A deferred stream fault travelling through the memory system:
        /// the delivered FIFO entry is poisoned instead of carrying data.
        poison: Option<Box<Poison>>,
    },
    /// An indirect SCU's index fetch, delivered into the SCU's internal
    /// index ring rather than an architectural FIFO. Matched back to its
    /// issuer by `(scu, seq)`; a stale response (the stream was stopped
    /// or the slot reconfigured) is dropped.
    ReadIndex {
        scu: usize,
        seq: u64,
        addr: i64,
        width: Width,
        /// The index fetch itself faulted: deliver a poison marker
        /// (carrying `addr`) instead of a value.
        poison: bool,
    },
    Write {
        addr: i64,
        width: Width,
        val: Val,
    },
}

/// A memory request in flight.
#[derive(Debug)]
pub(crate) struct Flight {
    /// Delivery cycle (includes injected delay and jitter).
    pub(crate) due: u64,
    pub(crate) op: MemOp,
    /// Fault injection: the response is discarded at delivery time.
    dropped: bool,
    /// The request holds a memory-hierarchy MSHR until delivery.
    mshr: bool,
}

/// A pending scalar store: the address is known, the data comes from the
/// named unit's output FIFO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingStore {
    pub(crate) addr: i64,
    pub(crate) width: Width,
    pub(crate) class: RegClass,
    /// `scu_seq` when the store was queued: its place in program order
    /// relative to stream configurations (see `drain_stores`).
    pub(crate) seq: u64,
}

/// One executed instruction, recorded when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle of execution.
    pub cycle: u64,
    /// Which unit executed it (`"IEU"`, `"FEU"`, `"IFU"`).
    pub unit: &'static str,
    /// The instruction, rendered in listing notation.
    pub text: String,
}

/// The simulated machine. Use [`WmMachine::run`] for the common case.
pub struct WmMachine<'m> {
    pub(crate) module: &'m Module,
    /// The module pre-decoded into flat dispatch tables (see
    /// [`crate::decode`]): the issue path of both engines. The unit
    /// instruction queues hold indices into it.
    pub(crate) prog: DecodedProgram<'m>,
    pub(crate) config: WmConfig,
    pub(crate) mem: MemoryImage,
    pub(crate) ieu: Unit,
    pub(crate) feu: Unit,
    pub(crate) veu: Veu,
    pub(crate) scus: Vec<Scu>,
    pub(crate) store_q: VecDeque<PendingStore>,
    pub(crate) in_flight: VecDeque<Flight>,
    /// Number of [`MemOp::Write`] entries in `in_flight` (dropped or
    /// not), so the per-load ordering checks can skip the queue scans
    /// when no write is outstanding — the overwhelmingly common case.
    pub(crate) writes_in_flight: usize,
    pub(crate) pc: Option<Pc>,
    pub(crate) ret_stack: Vec<Pc>,
    /// IFU-side per-stream dispatch counters for `jNI` jumps.
    pub(crate) dispatch: HashMap<DataFifo, i64>,
    /// IFU-side vector-termination counter for `jNIv` jumps.
    pub(crate) dispatch_vec: Option<i64>,
    pub(crate) output: Vec<u8>,
    pub(crate) stats: SimStats,
    pub(crate) cycle: u64,
    pub(crate) last_progress: u64,
    pub(crate) ports_used: u32,
    /// The IFU is held (e.g. by builtin I/O) until this cycle.
    pub(crate) ifu_hold: u64,
    /// Monotonic stream-configuration counter (see `Scu::seq`).
    pub(crate) scu_seq: u64,
    /// Memory requests issued so far (fault injection numbers requests
    /// from 1 in issue order).
    req_counter: u64,
    /// Responses discarded by fault injection.
    dropped_responses: u64,
    /// Execution trace (populated only when enabled).
    trace: Vec<TraceEvent>,
    pub(crate) trace_enabled: bool,
    /// Performance counters. Some settle only in `take_result`: the
    /// compiled engine's FIFO histograms (from `fifo_occupancy`) and the
    /// idle cycles its sleeping SCUs skipped (`scu_idle_pending`).
    pub(crate) perf: Stats,
    /// Change-point FIFO occupancy, kept by both engines at every FIFO
    /// depth change. The compiled engine reports it; the reference
    /// engine reports its own per-cycle samples, so comparing the two
    /// engines checks one accounting against the other.
    fifo_occupancy: FifoOccupancy,
    /// FIFO-depth change points (populated only when enabled).
    timeline: Vec<DepthSample>,
    pub(crate) timeline_enabled: bool,
    /// Last recorded depth per tracked FIFO (timeline compression).
    last_depths: [usize; FIFO_NAMES.len()],
    /// The memory hierarchy (a transparent pass-through under the flat
    /// model). All of its state mutates only on progress cycles, which
    /// is what lets the fast-forward engine skip stall spans over it.
    pub(crate) memsys: MemSystem,
    /// Last recorded stream-buffer occupancy (timeline compression).
    last_sb_occ: usize,
    /// What every unit did in the cycle just simulated (consulted by the
    /// fast-forward engine to decide whether the state can repeat).
    pub(crate) last_outcomes: CycleOutcomes,
    /// Fast-forwarded spans (collected only when tracing/timeline is on;
    /// exported as coalesced stall spans in the Chrome trace).
    pub(crate) ff_spans: Vec<FfSpan>,
    /// Cooperative cancellation flag, polled between steps (see
    /// [`WmMachine::set_cancel_token`]). `None` costs nothing.
    cancel: Option<CancelToken>,
    /// This core's index in a tiled machine (0 when untiled).
    pub(crate) tile_id: usize,
    /// Staged outbound channel messages, drained by the tile scheduler
    /// at each epoch barrier. Always empty on an untiled machine.
    pub(crate) chan_tx: Vec<ChanMsg>,
    /// Inbound channel queues, indexed by sender tile. Empty — no
    /// allocation at all — on an untiled machine.
    pub(crate) chan_rx: Vec<VecDeque<RxEntry>>,
    /// Send credits toward each destination tile: channel capacity minus
    /// the receiver's backlog, recomputed at every barrier. Stream sends
    /// stall on zero; scalar `Csend` ignores credits (and can overrun).
    pub(crate) chan_credits: Vec<u32>,
    /// Fast-forward horizon: the tile scheduler bounds event jumps to
    /// the end of the current epoch. `u64::MAX` (untiled) leaves every
    /// engine bit-identical to the pre-tiling simulator.
    pub(crate) ff_horizon: u64,
    /// Compiled engine: `Some(seq)` while every SCU sleeps. They fell
    /// asleep idle and inactive when `scu_seq` was `seq`; only a stream
    /// configuration (which bumps `scu_seq`) can change that, so until
    /// then each cycle is one more idle cycle for every SCU, counted in
    /// `scu_idle_pending` instead of stepped.
    pub(crate) scus_asleep: Option<u64>,
    /// Idle cycles every SCU slept through, not yet in `perf`.
    pub(crate) scu_idle_pending: u64,
    /// Compiled engine: the IFU stalled at a conditional jump whose
    /// condition-code FIFO (of this class) was empty. Until that FIFO
    /// fills, the fetch walk would stop there again with the same
    /// outcome, so the IFU re-records the stall without walking.
    pub(crate) ifu_park: Option<RegClass>,
}

impl<'m> WmMachine<'m> {
    /// Build a machine around a compiled module (WM form, physical
    /// registers only).
    pub fn new(module: &'m Module, config: &WmConfig) -> Result<WmMachine<'m>, SimError> {
        for f in &module.functions {
            for inst in f.insts() {
                if inst
                    .kind
                    .uses()
                    .into_iter()
                    .chain(inst.kind.defs())
                    .any(|r| r.is_virt())
                {
                    return Err(SimError::BadProgram(format!(
                        "function {} still has virtual registers",
                        f.name
                    )));
                }
                if matches!(inst.kind, InstKind::GLoad { .. } | InstKind::GStore { .. }) {
                    return Err(SimError::BadProgram(format!(
                        "function {} has generic memory references; expand to WM form first",
                        f.name
                    )));
                }
            }
        }
        let mem = MemoryImage::new(module, config.memory_size)?;
        // Pre-decode: both engines issue from this table, and the unit
        // queues carry indices into it.
        let prog = DecodedProgram::decode(module, &mem.addresses);
        let mut ieu = Unit::new(RegClass::Int);
        ieu.regs[30] = Val::I(mem.initial_sp);
        let memsys = MemSystem::new(&config.mem_model, config.mem_latency);
        let mut perf = Stats::new(
            config.num_scus,
            config.fifo_capacity,
            config.cc_capacity,
            config.mem_ports,
        );
        if !config.mem_model.is_flat() {
            perf.mem = Some(MemStats::new(memsys.sb_capacity()));
        }
        let fifo_occupancy = FifoOccupancy::new(perf.fifos.clone());
        Ok(WmMachine {
            module,
            prog,
            config: config.clone(),
            mem,
            ieu,
            feu: Unit::new(RegClass::Flt),
            veu: Veu::new(VECTOR_LENGTH),
            scus: vec![Scu::inert(); config.num_scus],
            store_q: VecDeque::new(),
            in_flight: VecDeque::new(),
            writes_in_flight: 0,
            pc: None,
            ret_stack: Vec::new(),
            dispatch: HashMap::new(),
            dispatch_vec: None,
            output: Vec::new(),
            stats: SimStats::default(),
            cycle: 0,
            last_progress: 0,
            ports_used: 0,
            ifu_hold: 0,
            scu_seq: 0,
            req_counter: 0,
            dropped_responses: 0,
            trace: Vec::new(),
            trace_enabled: false,
            perf,
            fifo_occupancy,
            timeline: Vec::new(),
            timeline_enabled: false,
            last_depths: [0; FIFO_NAMES.len()],
            memsys,
            last_sb_occ: 0,
            last_outcomes: CycleOutcomes::new(config.num_scus),
            ff_spans: Vec::new(),
            cancel: None,
            tile_id: 0,
            chan_tx: Vec::new(),
            chan_rx: Vec::new(),
            chan_credits: Vec::new(),
            ff_horizon: u64::MAX,
            scus_asleep: None,
            scu_idle_pending: 0,
            ifu_park: None,
        })
    }

    /// Compile-and-go entry point: run `entry` with integer `args` until it
    /// returns, and report exact cycle counts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for faults, deadlocks, cycle-limit timeouts or
    /// unexecutable modules.
    pub fn run(
        module: &Module,
        entry: &str,
        args: &[i64],
        config: &WmConfig,
    ) -> Result<RunResult, SimError> {
        let mut m = WmMachine::new(module, config)?;
        m.start(entry, args)?;
        m.run_to_completion()
    }

    /// Enable instruction tracing: every executed instruction is recorded
    /// with its cycle and unit. Costly; intended for debugging.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
    }

    /// The execution trace collected so far (empty unless tracing was
    /// enabled with [`WmMachine::set_trace`]).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Enable FIFO-depth timeline recording: every change of a tracked
    /// FIFO's occupancy is recorded as a [`DepthSample`]. Used by the
    /// Chrome trace export.
    pub fn set_timeline(&mut self, enabled: bool) {
        self.timeline_enabled = enabled;
    }

    /// The FIFO-depth change points collected so far (empty unless enabled
    /// with [`WmMachine::set_timeline`]).
    pub fn timeline(&self) -> &[DepthSample] {
        &self.timeline
    }

    /// The module's pre-decoded dispatch tables (built at construction;
    /// see [`DecodedProgram::verify_roundtrip`]).
    pub fn decoded_program(&self) -> &DecodedProgram<'m> {
        &self.prog
    }

    /// The fast-forwarded spans collected so far (empty unless the
    /// compiled engine ran with tracing or the timeline enabled).
    /// Consumed by the Chrome trace exporter, which renders each as one
    /// coalesced stall span per unit.
    pub fn ff_spans(&self) -> &[FfSpan] {
        &self.ff_spans
    }

    pub(crate) fn record(&mut self, unit: &'static str, kind: &InstKind) {
        if self.trace_enabled {
            self.trace.push(TraceEvent {
                cycle: self.cycle,
                unit,
                text: kind.to_string(),
            });
        }
    }

    /// Position the machine at the entry of `entry` with `args` in the
    /// argument registers.
    pub fn start(&mut self, entry: &str, args: &[i64]) -> Result<(), SimError> {
        let sym = self
            .module
            .lookup(entry)
            .ok_or_else(|| SimError::BadProgram(format!("no entry symbol {entry}")))?;
        let fidx = match self.module.global(sym).kind {
            GlobalKind::Func(i) => i,
            _ => return Err(SimError::BadProgram(format!("{entry} is not a function"))),
        };
        for (i, a) in args.iter().enumerate() {
            if 2 + i > 7 {
                return Err(SimError::BadProgram("too many entry arguments".into()));
            }
            self.ieu.regs[2 + i] = Val::I(*a);
        }
        self.pc = Some(Pc {
            func: fidx,
            block: 0,
            inst: 0,
        });
        Ok(())
    }

    /// Attach a cooperative cancellation token: [`WmMachine::run_to_completion`]
    /// polls it between steps and returns [`SimError::Cancelled`] once it
    /// is cancelled. A run that is never cancelled is bit-identical to
    /// one without a token.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Simulate until the entry function returns, stepping with the
    /// engine selected by [`WmConfig::engine`].
    pub fn run_to_completion(&mut self) -> Result<RunResult, SimError> {
        while !self.halted() {
            if let Some(t) = &self.cancel {
                if t.is_cancelled() {
                    return Err(SimError::Cancelled {
                        cycle: self.cycle,
                        state: Box::new(self.snapshot()),
                    });
                }
            }
            self.step()?;
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::Timeout {
                    cycles: self.config.max_cycles,
                    state: Box::new(self.snapshot()),
                });
            }
            if self.cycle - self.last_progress > DEADLOCK_WINDOW {
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    detail: self.diagnose(),
                    state: Box::new(self.snapshot()),
                });
            }
        }
        Ok(self.take_result())
    }

    /// Wire this core into a tiled machine as tile `tile_id` of `tiles`:
    /// allocate the channel queues and the per-destination credits. An
    /// untiled machine never calls this, so `--tiles 1` allocates no
    /// tile structures at all (asserted by the stats tests).
    pub(crate) fn init_tile(&mut self, tile_id: usize, tiles: usize) {
        self.tile_id = tile_id;
        self.chan_rx = vec![VecDeque::new(); tiles];
        self.chan_credits = vec![self.config.chan_capacity as u32; tiles];
    }

    /// Has any inter-core channel state been allocated or armed? Untiled
    /// runs must answer `false`: the `--tiles 1` path is byte-for-byte
    /// the pre-tiling code path.
    pub fn channel_state_allocated(&self) -> bool {
        !self.chan_rx.is_empty()
            || !self.chan_tx.is_empty()
            || !self.chan_credits.is_empty()
            || self.ff_horizon != u64::MAX
            || self.tile_id != 0
    }

    /// Step this tile up to (at most) cycle `target`, returning early if
    /// it halts or faults. The tile scheduler calls this between epoch
    /// barriers; the fast-forward horizon keeps the compiled engine from
    /// jumping past the epoch's end. Deadlock and timeout are *global*
    /// properties of a tiled machine (a tile stalled on a channel is not
    /// wedged if its peer is still computing), so the scheduler checks
    /// them at the barrier — not here.
    pub(crate) fn run_epoch(&mut self, target: u64) -> Result<(), SimError> {
        self.ff_horizon = target;
        while self.cycle < target && !self.halted() {
            self.step()?;
        }
        Ok(())
    }

    /// Advance one cycle under the engine selected by
    /// [`WmConfig::engine`]. The compiled engine may then fast-forward
    /// over an all-stalled span, so one step can advance many cycles.
    ///
    /// # Errors
    ///
    /// Faults and unexecutable instructions, at the cycle they occur;
    /// both engines report the same error at the same cycle.
    pub fn step(&mut self) -> Result<(), SimError> {
        match self.config.engine {
            Engine::Cycle => self.step_with::<false>(),
            Engine::Compiled => self.step_with::<true>(),
        }
    }

    /// Package the current state as a completed run: the tail of
    /// `run_to_completion`, and the tile scheduler's per-tile result.
    /// Settles the counters the compiled engine keeps lazily; debug
    /// builds then check every conservation law of [`Stats`].
    pub(crate) fn take_result(&mut self) -> RunResult {
        self.wake_scus();
        if self.config.engine == Engine::Compiled {
            self.perf.fifos = self.fifo_occupancy.finish(&self.fifo_depths(), self.cycle);
        }
        self.stats.cycles = self.cycle;
        self.perf.cycles = self.cycle;
        debug_assert_eq!(
            self.perf.check_attribution(),
            Ok(()),
            "counter conservation law broken"
        );
        RunResult {
            cycles: self.cycle,
            ret_int: self.ieu.regs[2].as_i(),
            ret_flt: self.feu.regs[2].as_f(),
            output: self.output.clone(),
            stats: self.stats,
            perf: self.perf.clone(),
            engine: self.config.engine,
        }
    }

    pub(crate) fn halted(&mut self) -> bool {
        if self.pc.is_some() {
            return false;
        }
        // Stop prefetching once the program has returned *and* the units
        // have drained (queued instructions may still consume stream data).
        // An in-stream whose FIFO feeds a still-active channel send is a
        // producer for that send's remaining elements, not a stale
        // prefetch — it must keep running until the send drains it.
        if self.ieu.iq.is_empty() && self.feu.iq.is_empty() {
            for i in 0..self.scus.len() {
                let scu = self.scus[i];
                if scu.active && scu.dir_in {
                    let feeds_send = self
                        .scus
                        .iter()
                        .any(|s| s.active && matches!(s.kind, ScuKind::Send) && s.fifo == scu.fifo);
                    if !feeds_send {
                        self.scus[i].active = false;
                    }
                }
            }
        }
        self.ieu.iq.is_empty()
            && self.feu.iq.is_empty()
            && self.veu.iq.is_empty()
            && self.store_q.is_empty()
            && self.in_flight.is_empty()
            && !self.scus.iter().any(|s| s.active && !s.dir_in)
    }

    /// A diagnostic snapshot of the machine (attached to terminal errors).
    pub fn snapshot(&self) -> MachineState {
        let unit_state = |class: RegClass, name: &'static str| -> UnitState {
            let u = self.unit(class);
            UnitState {
                name,
                iq: u.iq.len(),
                head: u
                    .iq
                    .front()
                    .map(|&i| self.prog.insts[i as usize].kind.to_string()),
                ins: [0, 1].map(|i| FifoState {
                    len: u.ins[i].q.len(),
                    pending: u.ins[i].pending,
                    streamed: u.ins[i].streamed,
                    poisoned: u.ins[i].q.iter().filter(|s| s.poison.is_some()).count(),
                }),
                out: u.out.len(),
                cc: u.cc.len(),
                stall: self.stall_reason(class),
            }
        };
        MachineState {
            cycle: self.cycle,
            pc: self.pc.map(|pc| {
                format!(
                    "{}, block {}, instruction {}",
                    self.module.functions[pc.func].name, pc.block, pc.inst
                )
            }),
            units: vec![
                unit_state(RegClass::Int, "IEU"),
                unit_state(RegClass::Flt, "FEU"),
            ],
            scus: self
                .scus
                .iter()
                .enumerate()
                .map(|(i, s)| ScuState {
                    index: i,
                    active: s.active,
                    dir_in: s.dir_in,
                    target: {
                        let t = match s.target {
                            StreamTarget::Fifo(f) => f.to_string(),
                            StreamTarget::Veu(p) => format!("VEU port {p}"),
                        };
                        match s.kind {
                            ScuKind::Affine => t,
                            ScuKind::Gather => format!("{t} (gather)"),
                            ScuKind::Scatter => format!("{t} (scatter)"),
                            ScuKind::Send => format!("{t} -> tile {}", s.peer),
                            ScuKind::Recv => format!("{t} <- tile {}", s.peer),
                        }
                    },
                    addr: s.addr,
                    remaining: s.remaining,
                    disabled: self.scu_disabled(i),
                })
                .collect(),
            in_flight: self.in_flight.len(),
            store_queue: self.store_q.len(),
            veu_iq: self.veu.iq.len(),
            dispatch: self
                .dispatch
                .iter()
                .map(|(f, n)| (f.to_string(), *n))
                .collect(),
            dropped_responses: self.dropped_responses,
            mem: self.memsys.summary(self.cycle),
        }
    }

    /// Why the unit's head instruction cannot retire, if it cannot.
    fn stall_reason(&self, class: RegClass) -> Option<String> {
        let u = self.unit(class);
        let head = self.prog.insts[*u.iq.front()? as usize].kind;
        if u.busy > 0 {
            return Some(format!("busy for {} more cycle(s)", u.busy));
        }
        let need = fifo_need(class, head);
        for (i, &needed) in need.iter().enumerate() {
            if needed > u.ins[i].q.len() {
                let f = &u.ins[i];
                let fifo = DataFifo::new(class, i as u8);
                let why = if let Some(k) = self
                    .scus
                    .iter()
                    .position(|s| s.active && s.dir_in && s.target == StreamTarget::Fifo(fifo))
                {
                    if self.scu_disabled(k) {
                        format!("fed by SCU {k}, which fault injection disabled")
                    } else {
                        format!("fed by SCU {k}")
                    }
                } else if f.pending > 0 {
                    if self.dropped_responses > 0 {
                        format!(
                            "{} request(s) outstanding, {} response(s) dropped by fault injection",
                            f.pending, self.dropped_responses
                        )
                    } else {
                        format!("{} request(s) in flight", f.pending)
                    }
                } else if self.dropped_responses > 0 {
                    format!(
                        "no stream feeding it; {} memory response(s) dropped by fault injection",
                        self.dropped_responses
                    )
                } else {
                    "no stream feeding it and no requests in flight".to_string()
                };
                return Some(format!("head `{head}` waits on empty FIFO {fifo} ({why})"));
            }
        }
        if let InstKind::ChanRecv { peer, .. } = head {
            return Some(format!(
                "head `{head}` waits on the channel from tile {peer} (no message due)"
            ));
        }
        Some(format!(
            "head `{head}` cannot issue (ports, capacity or memory ordering)"
        ))
    }

    /// Attribute a wedge: name the stalled units and what starves them.
    pub(crate) fn diagnose(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (class, name) in [(RegClass::Int, "IEU"), (RegClass::Flt, "FEU")] {
            if let Some(s) = self.stall_reason(class) {
                parts.push(format!("{name}: {s}"));
            }
        }
        if let Some(st) = self.store_q.front() {
            if self.unit(st.class).out.is_empty() {
                let name = match st.class {
                    RegClass::Int => "IEU",
                    RegClass::Flt => "FEU",
                };
                parts.push(format!(
                    "a store to {:#x} waits for data in the empty {name} output FIFO",
                    st.addr
                ));
            }
        }
        if let Some(pc) = self.pc {
            let func = &self.module.functions[pc.func];
            if let Some(inst) = func.blocks.get(pc.block).and_then(|b| b.insts.get(pc.inst)) {
                match &inst.kind {
                    InstKind::Branch { class, .. } if self.unit(*class).cc.is_empty() => {
                        parts.push(format!(
                            "IFU: `{}` waits on an empty condition-code FIFO",
                            inst.kind
                        ));
                    }
                    InstKind::BranchStream { fifo, .. } if !self.dispatch.contains_key(fifo) => {
                        parts.push(format!(
                            "IFU: `{}` waits for a stream on {fifo} that was never configured",
                            inst.kind
                        ));
                    }
                    _ => {}
                }
            }
        }
        for i in 0..self.scus.len() {
            if self.scus[i].active && self.scu_disabled(i) {
                parts.push(format!(
                    "SCU {i} was disabled by fault injection with its stream unfinished"
                ));
            }
        }
        for (i, s) in self.scus.iter().enumerate() {
            if !s.active || self.scu_disabled(i) {
                continue;
            }
            let p = s.peer as usize;
            match s.kind {
                ScuKind::Recv => {
                    let due = self
                        .chan_rx
                        .get(p)
                        .and_then(|q| q.front())
                        .is_some_and(|e| e.due <= self.cycle);
                    if !due {
                        parts.push(format!(
                            "SCU {i} waits on the channel from tile {p} \
                             (no message due; the sender tile may be wedged or killed)"
                        ));
                    }
                }
                ScuKind::Send if self.chan_credits.get(p) == Some(&0) => {
                    parts.push(format!(
                        "SCU {i} is out of channel credits toward tile {p} \
                         (receiver backlog at capacity)"
                    ));
                }
                _ => {}
            }
        }
        if parts.is_empty() {
            parts.push("no unit can make progress".to_string());
        }
        parts.join("; ")
    }

    /// Build a fault error with the current snapshot attached.
    pub(crate) fn fault(
        &self,
        unit: FaultUnit,
        kind: FaultKind,
        addr: Option<i64>,
        stream: Option<DataFifo>,
        detail: String,
    ) -> SimError {
        SimError::Fault {
            cycle: self.cycle,
            fault: FaultInfo {
                unit,
                kind,
                addr,
                stream,
                inst: None,
                detail,
            },
            state: Box::new(self.snapshot()),
        }
    }

    /// Build a fault from a refused memory access.
    pub(crate) fn access_fault(
        &self,
        unit: FaultUnit,
        stream: Option<DataFifo>,
        e: &AccessError,
    ) -> SimError {
        let kind = match e.kind {
            AccessKind::Unmapped => FaultKind::Unmapped,
            AccessKind::ReadOnly => FaultKind::ReadOnly,
        };
        self.fault(unit, kind, Some(e.addr), stream, e.to_string())
    }

    /// Occupancy of every tracked FIFO, in [`FIFO_NAMES`] order.
    pub(crate) fn fifo_depths(&self) -> [usize; FIFO_NAMES.len()] {
        [
            self.ieu.ins[0].q.len(),
            self.ieu.ins[1].q.len(),
            self.ieu.out.len(),
            self.ieu.cc.len(),
            self.feu.ins[0].q.len(),
            self.feu.ins[1].q.len(),
            self.feu.out.len(),
            self.feu.cc.len(),
        ]
    }

    /// Charge tracked FIFO `slot` of the `class` unit (0 and 1: the input
    /// FIFOs, [`FIFO_OUT`], [`FIFO_CC`]) with the cycles it spent at its
    /// current depth. Every site that changes one of the [`FIFO_NAMES`]
    /// depths calls this first (see [`FifoOccupancy`]).
    #[inline]
    pub(crate) fn fifo_changing(&mut self, class: RegClass, slot: usize) {
        let u = self.unit(class);
        let depth = match slot {
            0 | 1 => u.ins[slot].q.len(),
            FIFO_OUT => u.out.len(),
            _ => u.cc.len(),
        };
        let k = match class {
            RegClass::Int => slot,
            RegClass::Flt => 4 + slot,
        };
        self.fifo_occupancy.accrue(k, depth, self.cycle);
    }

    /// The reference engine's FIFO occupancy histograms: every FIFO
    /// sampled at the end of every cycle, independently of the
    /// change-point accounting the compiled engine reports.
    pub(crate) fn sample_fifos(&mut self) {
        let depths = self.fifo_depths();
        for (h, &d) in self.perf.fifos.iter_mut().zip(depths.iter()) {
            h.sample(d);
        }
    }

    /// End-of-cycle bookkeeping: memory-port utilization, stream-buffer
    /// occupancy and (when enabled) the FIFO-depth timeline.
    pub(crate) fn sample_perf(&mut self) {
        let p = (self.ports_used as usize).min(self.perf.ports.len() - 1);
        self.perf.ports[p] += 1;
        if self.perf.mem.is_some() {
            let occ = self.memsys.occupancy();
            if let Some(m) = self.perf.mem.as_mut() {
                m.sample_occupancy_n(occ, 1);
            }
            if self.timeline_enabled && self.last_sb_occ != occ {
                self.last_sb_occ = occ;
                self.timeline.push(DepthSample {
                    cycle: self.cycle,
                    fifo: SBUF_TRACK,
                    depth: occ,
                });
            }
        }
        if self.timeline_enabled {
            let depths = self.fifo_depths();
            for (k, &d) in depths.iter().enumerate() {
                if self.last_depths[k] != d {
                    self.last_depths[k] = d;
                    self.timeline.push(DepthSample {
                        cycle: self.cycle,
                        fifo: FIFO_NAMES[k],
                        depth: d,
                    });
                }
            }
        }
    }

    // ---- memory ----

    pub(crate) fn deliver_memory(&mut self) -> Result<(), SimError> {
        while let Some(f) = self.in_flight.front() {
            if f.due > self.cycle {
                break;
            }
            let Flight {
                op, dropped, mshr, ..
            } = self.in_flight.pop_front().unwrap();
            if matches!(op, MemOp::Write { .. }) {
                self.writes_in_flight -= 1;
            }
            if mshr {
                // The miss's response has arrived (or was dropped): its
                // MSHR can track a new miss from the next reference on.
                self.memsys.release_mshr();
            }
            if dropped {
                // Fault injection: the response vanishes. Whoever waits for
                // it (pending counters, the deadlock detector's progress
                // clock) stays starved; the wedge diagnosis names the loss.
                self.dropped_responses += 1;
                continue;
            }
            self.last_progress = self.cycle;
            match op {
                MemOp::ReadFifo {
                    target,
                    addr,
                    width,
                    gen,
                    poison,
                } => {
                    let is_flt = match target {
                        StreamTarget::Fifo(f) => f.class == RegClass::Flt,
                        StreamTarget::Veu(_) => true,
                    };
                    // Accesses are permission-checked at issue time; a
                    // poisoned request carries no data.
                    let val = if poison.is_some() {
                        if is_flt {
                            Val::F(0.0)
                        } else {
                            Val::I(0)
                        }
                    } else {
                        match (is_flt, width) {
                            (true, Width::D8) => self.mem.read_flt(addr).map(Val::F),
                            _ => self.mem.read_int(addr, width).map(Val::I),
                        }
                        .map_err(|e| self.access_fault(FaultUnit::Ieu, None, &e))?
                    };
                    match target {
                        StreamTarget::Fifo(fifo) => {
                            let n = fifo.index as usize;
                            // stale data (stopped stream) is dropped
                            if self.unit(fifo.class).ins[n].gen == gen {
                                self.fifo_changing(fifo.class, n);
                                let f = &mut self.unit_mut(fifo.class).ins[n];
                                f.q.push_back(Slot { val, poison });
                                f.pending = f.pending.saturating_sub(1);
                            }
                        }
                        StreamTarget::Veu(port) => {
                            // VEU streams fault eagerly at issue, so a
                            // poisoned read never targets a VEU port.
                            let p = port as usize;
                            self.veu.ports[p].push_back(val.as_f());
                            self.veu.pending[p] = self.veu.pending[p].saturating_sub(1);
                        }
                    }
                }
                MemOp::ReadIndex {
                    scu,
                    seq,
                    addr,
                    width,
                    poison,
                } => self.deliver_index(scu, seq, addr, width, poison)?,
                MemOp::Write { addr, width, val } => {
                    let res = match val {
                        Val::F(v) if width == Width::D8 => self.mem.write_flt(addr, v),
                        v => self.mem.write_int(addr, width, v.as_i()),
                    };
                    if let Err(e) = res {
                        return Err(self.access_fault(FaultUnit::Ieu, None, &e));
                    }
                }
            }
        }
        Ok(())
    }

    /// Issue `op` through the memory hierarchy. The caller must have
    /// checked `memsys.accepts(&acc, ..)` this cycle (scalar paths stall
    /// on a refusal; stream requests are never refused).
    pub(crate) fn issue_mem(&mut self, op: MemOp, acc: &Access) {
        self.req_counter += 1;
        let n = self.req_counter;
        let issued = self.memsys.access(acc, self.cycle, self.perf.mem.as_mut());
        let plan = &self.config.fault_plan;
        let mut latency = issued.latency;
        // Fault injection models DRAM-level misbehavior, so jitter,
        // delays and drops only apply to requests that reach the DRAM
        // level. Under the flat model every request does, which keeps
        // flat runs bit-identical to the pre-hierarchy simulator.
        if issued.dram {
            if let Some(seed) = plan.jitter_seed {
                if plan.jitter_max > 0 {
                    latency += jitter(seed, n) % (plan.jitter_max + 1);
                }
            }
            latency += plan
                .delays
                .iter()
                .filter(|&&(r, _)| r == n)
                .map(|&(_, c)| c)
                .sum::<u64>();
        }
        let dropped = issued.dram && plan.drops.contains(&n);
        if matches!(op, MemOp::Write { .. }) {
            self.writes_in_flight += 1;
        }
        self.in_flight.push_back(Flight {
            due: self.cycle + latency,
            op,
            dropped,
            mshr: issued.mshr,
        });
        self.ports_used += 1;
        self.last_progress = self.cycle;
    }

    pub(crate) fn ports_free(&self) -> bool {
        self.ports_used < self.config.mem_ports
    }

    /// Would a read of `[addr, addr+width)` overlap a store whose write has
    /// not yet reached memory? Loads must wait for such stores (the
    /// load/store ordering a decoupled access/execute machine enforces with
    /// its store-address queue).
    pub(crate) fn conflicts_with_pending_writes(&self, addr: i64, width: Width) -> bool {
        if self.store_q.is_empty() && self.writes_in_flight == 0 {
            return false; // nothing queued, nothing travelling: no scan
        }
        let end = addr + width.bytes();
        let overlap = |a: i64, w: Width| a < end && addr < a + w.bytes();
        self.store_q.iter().any(|s| overlap(s.addr, s.width))
            || self.in_flight.iter().any(|f| match &f.op {
                MemOp::Write {
                    addr: a, width: w, ..
                } => overlap(*a, *w),
                MemOp::ReadFifo { .. } | MemOp::ReadIndex { .. } => false,
            })
    }

    // ---- execution units ----

    pub(crate) fn unit(&self, class: RegClass) -> &Unit {
        match class {
            RegClass::Int => &self.ieu,
            RegClass::Flt => &self.feu,
        }
    }

    pub(crate) fn unit_mut(&mut self, class: RegClass) -> &mut Unit {
        match class {
            RegClass::Int => &mut self.ieu,
            RegClass::Flt => &mut self.feu,
        }
    }

    /// Retire the `class` unit's head instruction `kind`, which executed
    /// this cycle; `dst` is the register the paired-ALU interlock must
    /// delay. The unit's cycle was `Active`.
    #[inline]
    pub(crate) fn retire_head(
        &mut self,
        class: RegClass,
        kind: &InstKind,
        dst: Option<u8>,
    ) -> Outcome {
        let (name, insts, perf) = match class {
            RegClass::Int => ("IEU", &mut self.stats.insts_ieu, &mut self.perf.ieu),
            RegClass::Flt => ("FEU", &mut self.stats.insts_feu, &mut self.perf.feu),
        };
        *insts += 1;
        perf.retired += 1;
        self.record(name, kind);
        let now = self.cycle;
        let u = self.unit_mut(class);
        u.iq.pop_front();
        u.prev_dst = dst;
        u.prev_cycle = now;
        self.last_progress = now;
        Outcome::Active
    }

    /// Execute the `class` unit's head instruction `head`, whose FIFO
    /// operands are known to be available: the fallback handler of the
    /// decoded tables, which runs every instruction they do not decode
    /// (stream configuration, channel operations, FIFO-mapped and
    /// cross-class corner cases).
    ///
    /// [`Exec::Stall`] is a structural stall (full queue, busy port, memory
    /// ordering) with its attributed reason; [`Exec::Retired`] means the
    /// instruction retired, carrying the register the paired-ALU interlock
    /// must delay.
    pub(crate) fn exec_unit_head(
        &mut self,
        class: RegClass,
        head: &InstKind,
    ) -> Result<Exec, SimError> {
        let mut executed_dst: Option<u8> = None;
        match head {
            InstKind::Assign { dst, src } => {
                if dst.phys_num() == Some(0)
                    && self.unit(class).out.len() >= self.config.fifo_capacity
                {
                    return Ok(Exec::Stall(Stall::OutFull)); // output FIFO full
                }
                let v = self.eval_expr(class, src)?;
                self.write_reg(class, *dst, v)?;
                if !dst.is_fifo() && !dst.is_zero() {
                    executed_dst = dst.phys_num();
                }
            }
            InstKind::LoadAddr { dst, sym, disp } => {
                let addr = self.sym_addr(*sym)? + disp;
                self.write_reg(class, *dst, Val::I(addr))?;
                executed_dst = dst.phys_num();
                // the llh/sll pair is two 32-bit instructions
                self.unit_mut(class).busy = 1;
            }
            InstKind::Compare { op, a, b, .. } => {
                if self.unit(class).cc.len() >= self.config.cc_capacity {
                    return Ok(Exec::Stall(Stall::CcFull));
                }
                let va = self.read_operand(class, *a)?;
                let vb = self.read_operand(class, *b)?;
                let r = match class {
                    RegClass::Int => op.eval_int(va.as_i(), vb.as_i()),
                    RegClass::Flt => op.eval_flt(va.as_f(), vb.as_f()),
                };
                self.fifo_changing(class, FIFO_CC);
                self.unit_mut(class).cc.push_back(r);
            }
            InstKind::WLoad { fifo, addr, width } => {
                return self.exec_load(
                    class,
                    *fifo,
                    *width,
                    addr.regs().any(|r| r.is_fifo()),
                    |m| m.eval_expr_pure(class, addr),
                    |m, _| Ok(m.eval_expr(class, addr)?.as_i()),
                );
            }
            InstKind::WStore { unit, addr, width } => {
                return self.queue_store(*unit, *width, |m| Ok(m.eval_expr(class, addr)?.as_i()));
            }
            InstKind::StreamIn { .. }
            | InstKind::StreamOut { .. }
            | InstKind::StreamGather { .. }
            | InstKind::StreamScatter { .. }
            | InstKind::VStreamIn { .. }
            | InstKind::VStreamOut { .. }
            | InstKind::StreamSend { .. }
            | InstKind::StreamRecv { .. } => {
                if !self.configure_stream(head)? {
                    return Ok(Exec::Stall(Stall::ScuBusy)); // no free SCU, or the target is busy
                }
            }
            InstKind::StreamStop { fifo } => {
                // stopping an out-stream must not strand enqueued data:
                // wait until the SCU has drained the output FIFO
                let draining = self
                    .scus
                    .iter()
                    .any(|s| s.active && !s.dir_in && s.fifo == *fifo)
                    && !self.unit(fifo.class).out.is_empty();
                if draining {
                    return Ok(Exec::Stall(Stall::ScuBusy));
                }
                self.stop_stream(*fifo);
            }
            InstKind::ChanSend { peer, src, .. } => {
                let dst = self.chan_peer(*peer)?;
                let v = self.read_operand(class, *src)?;
                // Fire-and-forget: a scalar send never checks credits, so
                // a runaway sender can overrun the receiver. The routing
                // barrier poisons the overflowing entry, and the fault
                // surfaces — with provenance — at the *consuming* tile.
                self.chan_tx.push(ChanMsg {
                    dst,
                    val: v,
                    poison: None,
                });
            }
            InstKind::ChanRecv { peer, dst } => {
                if dst.phys_num() == Some(0)
                    && self.unit(class).out.len() >= self.config.fifo_capacity
                {
                    return Ok(Exec::Stall(Stall::OutFull)); // output FIFO full
                }
                let p = self.chan_peer(*peer)?;
                let due = self.chan_rx[p].front().is_some_and(|e| e.due <= self.cycle);
                if !due {
                    return Ok(Exec::Stall(Stall::ChanEmpty));
                }
                let e = self.chan_rx[p].pop_front().expect("checked non-empty");
                if let Some(poison) = e.poison {
                    let unit = match class {
                        RegClass::Int => FaultUnit::Ieu,
                        RegClass::Flt => FaultUnit::Feu,
                    };
                    return Err(self.fault(
                        unit,
                        FaultKind::PoisonConsumed,
                        Some(poison.addr),
                        None,
                        format!(
                            "consumed a poisoned channel datum from tile {p}: {}",
                            poison.error
                        ),
                    ));
                }
                self.write_reg(class, *dst, e.val)?;
                if !dst.is_fifo() && !dst.is_zero() {
                    executed_dst = dst.phys_num();
                }
            }
            other => {
                return Err(SimError::BadProgram(format!(
                    "instruction reached an execution unit: {other}"
                )))
            }
        }
        Ok(Exec::Retired(executed_dst))
    }

    /// A scalar load into `fifo` (the decoded `WLoad` handler and the
    /// fallback): `preview` computes the address without side effects
    /// where it can, `eval` computes it for real (given the preview), and
    /// `dequeues` says whether that consumes a FIFO operand.
    pub(crate) fn exec_load(
        &mut self,
        class: RegClass,
        fifo: DataFifo,
        width: Width,
        dequeues: bool,
        preview: impl FnOnce(&Self) -> Option<i64>,
        eval: impl FnOnce(&mut Self, Option<i64>) -> Result<i64, SimError>,
    ) -> Result<Exec, SimError> {
        if !self.ports_free() {
            return Ok(Exec::Stall(Stall::PortBusy));
        }
        {
            let tf = &self.unit(fifo.class).ins[fifo.index as usize];
            // A scalar load must not interleave its datum with an active
            // stream's: stall until the stream's last request has been
            // issued (the hardware interlock).
            if tf.streamed {
                return Ok(Exec::Stall(Stall::ScuBusy));
            }
            if tf.q.len() + tf.pending >= self.config.fifo_capacity {
                return Ok(Exec::Stall(Stall::FifoFull));
            }
        }
        let conflicts = |m: &Self, a: i64| {
            m.conflicts_with_pending_writes(a, width) || m.conflicts_with_out_streams(a, width)
        };
        let a = if let Some(a) = self.unit(class).latched_load {
            // Retry of a refused indirect load: the index was dequeued
            // when the address was first computed. Only the ordering check
            // re-runs (the other unit may have queued a conflicting store
            // while we were latched).
            if conflicts(self, a) {
                return Ok(Exec::Stall(Stall::MemOrder));
            }
            a
        } else {
            let previewed = preview(self);
            match previewed {
                // wait for the conflicting store
                Some(a) if conflicts(self, a) => return Ok(Exec::Stall(Stall::MemOrder)),
                // unanalyzable address: drain stores first
                None if !self.store_q.is_empty() || self.writes_in_flight > 0 => {
                    return Ok(Exec::Stall(Stall::MemOrder));
                }
                _ => {}
            }
            let a = eval(self, previewed)?;
            // scalar loads fault eagerly, with precise attribution
            if let Err(e) = self.mem.check(a, width.bytes(), false) {
                return Err(self.access_fault(FaultUnit::Ieu, None, &e));
            }
            a
        };
        // the memory hierarchy may refuse the reference (MSHRs
        // exhausted, target DRAM bank busy): retry next cycle
        let acc = Access::scalar(a, false);
        if let Err(refusal) = self.memsys.accepts(&acc, self.cycle) {
            // If the address expression consumed a FIFO operand, hold the
            // computed address in the unit's latch so the retry does not
            // re-dequeue. The dequeue is a state flip on a stall cycle, so
            // pin progress (fast-forward soundness rule).
            if dequeues {
                self.unit_mut(class).latched_load = Some(a);
                self.last_progress = self.cycle;
            }
            return Ok(Exec::Stall(refusal.stall()));
        }
        self.unit_mut(class).latched_load = None;
        let f = &mut self.unit_mut(fifo.class).ins[fifo.index as usize];
        f.pending += 1;
        f.owed += 1;
        let gen = f.gen;
        self.issue_mem(
            MemOp::ReadFifo {
                target: StreamTarget::Fifo(fifo),
                addr: a,
                width,
                gen,
                poison: None,
            },
            &acc,
        );
        self.stats.mem_reads += 1;
        Ok(Exec::Retired(None))
    }

    // ---- vector execution unit ----

    pub(crate) fn veu_step(&mut self) -> Result<(), SimError> {
        let outcome = self.veu_step_inner()?;
        self.perf.veu.record(outcome);
        self.last_outcomes.veu = outcome;
        Ok(())
    }

    fn veu_step_inner(&mut self) -> Result<Outcome, SimError> {
        if self.veu.busy > 0 {
            self.veu.busy -= 1;
            self.last_progress = self.cycle;
            return Ok(Outcome::Active);
        }
        let Some(&idx) = self.veu.iq.front() else {
            return Ok(Outcome::Idle);
        };
        let head: &'m InstKind = self.prog.insts[idx as usize].kind;
        let n = VECTOR_LENGTH;
        let lanes = self.config.veu_lanes.max(1);
        let op_cycles = (n as u64).div_ceil(lanes as u64);
        match head {
            InstKind::VLoad { vreg, port } => {
                let p = *port as usize;
                if self.veu.ports[p].len() < n {
                    return Ok(Outcome::Stall(Stall::FifoEmpty)); // wait for a full group
                }
                for k in 0..n {
                    let v = self.veu.ports[p].pop_front().expect("checked length");
                    self.veu.vregs[*vreg as usize][k] = v;
                }
                self.veu.busy = op_cycles;
            }
            InstKind::VStore { vreg } => {
                if self.veu.out.len() + n > 4 * n {
                    return Ok(Outcome::Stall(Stall::OutFull)); // output FIFO full
                }
                for k in 0..n {
                    let v = self.veu.vregs[*vreg as usize][k];
                    self.veu.out.push_back(v);
                }
                self.veu.busy = op_cycles;
            }
            InstKind::VecBin { op, dst, a, b } => {
                for k in 0..n {
                    let x = self.veu.vregs[*a as usize][k];
                    let y = self.veu.vregs[*b as usize][k];
                    self.veu.vregs[*dst as usize][k] = match op {
                        BinOp::FAdd => x + y,
                        BinOp::FSub => x - y,
                        BinOp::FMul => x * y,
                        BinOp::FDiv => x / y,
                        other => {
                            return Err(SimError::BadProgram(format!(
                                "vector operator {other} is not floating point"
                            )))
                        }
                    };
                }
                self.veu.busy = op_cycles;
            }
            InstKind::VecBroadcast { dst, value } => {
                for k in 0..n {
                    self.veu.vregs[*dst as usize][k] = *value;
                }
                self.veu.busy = 1;
            }
            other => {
                return Err(SimError::BadProgram(format!(
                    "instruction reached the VEU: {other}"
                )))
            }
        }
        self.record("VEU", head);
        self.veu.iq.pop_front();
        self.stats.insts_feu += 1; // counted with the FP work
        self.perf.veu.retired += 1;
        self.last_progress = self.cycle;
        Ok(Outcome::Active)
    }

    // ---- operand evaluation ----

    pub(crate) fn sym_addr(&self, sym: SymId) -> Result<i64, SimError> {
        self.mem.addresses.get(&sym).copied().ok_or_else(|| {
            SimError::BadProgram(format!(
                "address taken of non-data symbol {}",
                self.module.sym_name(sym)
            ))
        })
    }

    pub(crate) fn read_operand(&mut self, class: RegClass, op: Operand) -> Result<Val, SimError> {
        match op {
            Operand::Imm(v) => Ok(Val::I(v)),
            Operand::FImm(v) => Ok(Val::F(v)),
            Operand::Reg(r) => {
                if r.class != class {
                    return Err(SimError::BadProgram(format!(
                        "cross-unit register read of {r} on the {class} unit"
                    )));
                }
                let n = r.phys_num().expect("physical registers only") as usize;
                if n == 31 {
                    return Ok(match class {
                        RegClass::Int => Val::I(0),
                        RegClass::Flt => Val::F(0.0),
                    });
                }
                if n <= 1 {
                    // dequeue (availability pre-checked against the
                    // decoded FIFO demand)
                    return self.pop_fifo(class, n);
                }
                Ok(self.unit(class).regs[n])
            }
        }
    }

    /// Dequeue one datum from input FIFO `n` of the `class` unit. The
    /// caller must have established availability (the decoded tables'
    /// precomputed demand pair); a deferred stream fault travelling in
    /// the slot surfaces here, at consumption.
    #[inline]
    pub(crate) fn pop_fifo(&mut self, class: RegClass, n: usize) -> Result<Val, SimError> {
        self.fifo_changing(class, n);
        self.unit_mut(class).ins[n].owed = self.unit(class).ins[n].owed.saturating_sub(1);
        let Some(slot) = self.unit_mut(class).ins[n].q.pop_front() else {
            return Err(SimError::Deadlock {
                cycle: self.cycle,
                detail: format!("dequeue from empty FIFO {}{n}", class.prefix()),
                state: Box::new(self.snapshot()),
            });
        };
        if let Some(p) = slot.poison {
            // the deferred stream fault surfaces only here, at
            // consumption — an unconsumed over-fetch is harmless
            let unit = match class {
                RegClass::Int => FaultUnit::Ieu,
                RegClass::Flt => FaultUnit::Feu,
            };
            return Err(self.fault(
                unit,
                FaultKind::PoisonConsumed,
                Some(p.addr),
                Some(DataFifo::new(class, n as u8)),
                format!(
                    "consumed a poisoned stream datum prefetched by SCU {}: {}",
                    p.scu, p.error
                ),
            ));
        }
        Ok(slot.val)
    }

    pub(crate) fn write_reg(&mut self, class: RegClass, r: Reg, v: Val) -> Result<(), SimError> {
        if r.class != class {
            return Err(SimError::BadProgram(format!(
                "cross-unit register write of {r} on the {class} unit"
            )));
        }
        let n = r.phys_num().expect("physical registers only") as usize;
        match n {
            31 => Ok(()), // writes to the zero register are discarded
            0 => {
                self.fifo_changing(class, FIFO_OUT);
                self.unit_mut(class).out.push_back(v);
                Ok(())
            }
            1 => Err(SimError::BadProgram(
                "register 1 is read-only FIFO-mapped".into(),
            )),
            _ => {
                self.unit_mut(class).regs[n] = v;
                Ok(())
            }
        }
    }

    /// Evaluate an expression without side effects; `None` if it reads a
    /// FIFO (whose dequeue cannot be previewed).
    fn eval_expr_pure(&self, class: RegClass, e: &RExpr) -> Option<i64> {
        if e.regs().any(|r| r.is_fifo()) {
            return None;
        }
        let read = |op: Operand| -> Option<i64> {
            match op {
                Operand::Imm(v) => Some(v),
                Operand::FImm(_) => None,
                Operand::Reg(r) => {
                    if r.class != class {
                        return None;
                    }
                    let n = r.phys_num()? as usize;
                    if n == 31 {
                        Some(0)
                    } else {
                        Some(self.unit(class).regs[n].as_i())
                    }
                }
            }
        };
        match e {
            RExpr::Op(a) => read(*a),
            RExpr::Un(..) => None,
            RExpr::Bin(op, a, b) => op.fold_int(read(*a)?, read(*b)?),
            RExpr::Dual {
                inner,
                a,
                b,
                outer,
                c,
            } => outer.fold_int(inner.fold_int(read(*a)?, read(*b)?)?, read(*c)?),
        }
    }

    fn eval_expr(&mut self, class: RegClass, e: &RExpr) -> Result<Val, SimError> {
        match e {
            RExpr::Op(a) => self.read_operand(class, *a),
            RExpr::Un(op, a) => {
                let v = self.read_operand(class, *a)?;
                self.eval_un(*op, v)
            }
            RExpr::Bin(op, a, b) => {
                let va = self.read_operand(class, *a)?;
                let vb = self.read_operand(class, *b)?;
                self.eval_bin(class, *op, va, vb)
            }
            RExpr::Dual {
                inner,
                a,
                b,
                outer,
                c,
            } => {
                let va = self.read_operand(class, *a)?;
                let vb = self.read_operand(class, *b)?;
                let vab = self.eval_bin(class, *inner, va, vb)?;
                let vc = self.read_operand(class, *c)?;
                self.eval_bin(class, *outer, vab, vc)
            }
        }
    }

    pub(crate) fn eval_un(&self, op: UnOp, v: Val) -> Result<Val, SimError> {
        Ok(match op {
            UnOp::Neg => Val::I(v.as_i().wrapping_neg()),
            UnOp::Not => Val::I(!v.as_i()),
            UnOp::FNeg => Val::F(-v.as_f()),
            UnOp::IntToFlt => Val::F(v.as_i() as f64),
            UnOp::FltToInt => Val::I(v.as_f() as i64),
        })
    }

    pub(crate) fn eval_bin(
        &self,
        class: RegClass,
        op: BinOp,
        a: Val,
        b: Val,
    ) -> Result<Val, SimError> {
        if op.is_float() {
            let (x, y) = (a.as_f(), b.as_f());
            return Ok(Val::F(match op {
                BinOp::FAdd => x + y,
                BinOp::FSub => x - y,
                BinOp::FMul => x * y,
                BinOp::FDiv => x / y,
                _ => unreachable!(),
            }));
        }
        let (x, y) = (a.as_i(), b.as_i());
        if matches!(op, BinOp::Div | BinOp::Rem) && y == 0 {
            let unit = match class {
                RegClass::Int => FaultUnit::Ieu,
                RegClass::Flt => FaultUnit::Feu,
            };
            return Err(self.fault(
                unit,
                FaultKind::DivideByZero,
                None,
                None,
                "integer division by zero".into(),
            ));
        }
        Ok(Val::I(op.fold_int(x, y).expect("integer operator")))
    }

    pub(crate) fn advance(&mut self) {
        if let Some(pc) = self.pc.as_mut() {
            pc.inst += 1;
        }
    }

    /// Are the execution units drained (for IFU-synchronized operations)?
    /// Register state is final once both instruction queues are empty;
    /// outstanding memory traffic does not affect registers, so the IFU
    /// need not wait for it.
    pub(crate) fn quiescent(&self) -> bool {
        self.ieu.iq.is_empty() && self.feu.iq.is_empty()
    }

    pub(crate) fn exec_builtin(&mut self, name: &str) -> Result<(), SimError> {
        match name {
            "putchar" => {
                let c = self.ieu.regs[2].as_i();
                self.output.push(c as u8);
                Ok(())
            }
            other => Err(SimError::BadProgram(format!("unknown builtin {other}"))),
        }
    }
}

/// How many entries `kind` dequeues from each input FIFO of `class`:
/// the FIFO demand decode precomputes for the fallback slots, and the
/// one deadlock diagnosis reports.
pub(crate) fn fifo_need(class: RegClass, kind: &InstKind) -> [usize; 2] {
    let mut need = [0usize; 2];
    let expr: Option<&RExpr> = match kind {
        InstKind::Assign { src, .. } => Some(src),
        InstKind::WLoad { addr, .. } | InstKind::WStore { addr, .. } => Some(addr),
        _ => None,
    };
    if let Some(e) = expr {
        for r in e.regs() {
            if r.class == class && r.is_fifo() {
                need[r.phys_num().unwrap() as usize] += 1;
            }
        }
    }
    // operands of Compare may also dequeue
    if let InstKind::Compare { a, b, .. } = kind {
        for op in [a, b] {
            if let Operand::Reg(r) = op {
                if r.class == class && r.is_fifo() {
                    need[r.phys_num().unwrap() as usize] += 1;
                }
            }
        }
    }
    // a scalar channel send may drain a FIFO operand
    if let InstKind::ChanSend {
        src: Operand::Reg(r),
        ..
    } = kind
    {
        if r.class == class && r.is_fifo() {
            need[r.phys_num().unwrap() as usize] += 1;
        }
    }
    need
}

/// Fill in the faulting instruction's listing text when the fault lacks it.
pub(crate) fn attach_inst(mut e: SimError, head: &InstKind) -> SimError {
    if let SimError::Fault { fault, .. } = &mut e {
        if fault.inst.is_none() {
            fault.inst = Some(head.to_string());
        }
    }
    e
}

/// Deterministic per-request latency jitter: xorshift64* over the seed
/// mixed with the request number, so runs with equal seeds are identical.
fn jitter(seed: u64, n: u64) -> u64 {
    let mut x = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if x == 0 {
        x = 0x9E37_79B9_7F4A_7C15;
    }
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Which unit executes a dispatched (non-control) instruction.
pub(crate) fn dispatch_class(kind: &InstKind) -> RegClass {
    match kind {
        InstKind::Assign { dst, .. } => dst.class,
        InstKind::Compare { class, .. } => *class,
        // "All simple load and store instructions (for both integer and
        // floating-point data) are executed by the IEU" — as are the
        // stream-configuration instructions and address formation.
        InstKind::LoadAddr { .. }
        | InstKind::WLoad { .. }
        | InstKind::WStore { .. }
        | InstKind::StreamIn { .. }
        | InstKind::StreamOut { .. }
        | InstKind::StreamGather { .. }
        | InstKind::StreamScatter { .. }
        | InstKind::VStreamIn { .. }
        | InstKind::VStreamOut { .. }
        | InstKind::StreamStop { .. }
        | InstKind::StreamSend { .. }
        | InstKind::StreamRecv { .. } => RegClass::Int,
        InstKind::ChanSend { class, .. } => *class,
        InstKind::ChanRecv { dst, .. } => dst.class,
        other => unreachable!("not a unit instruction: {other}"),
    }
}
