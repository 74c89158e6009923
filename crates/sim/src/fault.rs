//! Fault provenance and machine-state diagnostics.
//!
//! Every terminal simulator error carries a [`MachineState`] snapshot
//! (FIFO occupancies, in-flight memory traffic, per-unit stall state) and
//! faults carry a [`FaultInfo`] naming the unit, the instruction and the
//! address involved, so a miscompilation produces an actionable report
//! instead of an opaque wedge.

use wm_ir::DataFifo;

use crate::json::{Layout, ToJson, Writer};
use crate::stats::UnitName;

/// The unit on whose behalf a fault was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultUnit {
    /// Integer execution unit.
    Ieu,
    /// Floating-point execution unit.
    Feu,
    /// Vector execution unit.
    Veu,
    /// Instruction fetch unit.
    Ifu,
    /// Stream control unit `n`.
    Scu(usize),
}

impl FaultUnit {
    /// Stable machine-readable name (used by the JSON encoding). SCUs
    /// render as `"scu"`; their index travels separately.
    pub fn name(self) -> &'static str {
        match self {
            FaultUnit::Ieu => "ieu",
            FaultUnit::Feu => "feu",
            FaultUnit::Veu => "veu",
            FaultUnit::Ifu => "ifu",
            FaultUnit::Scu(_) => "scu",
        }
    }
}

impl std::fmt::Display for FaultUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultUnit::Ieu => f.write_str(UnitName::Ieu.label()),
            FaultUnit::Feu => f.write_str(UnitName::Feu.label()),
            FaultUnit::Veu => f.write_str(UnitName::Veu.label()),
            FaultUnit::Ifu => f.write_str(UnitName::Ifu.label()),
            FaultUnit::Scu(n) => write!(f, "SCU {n}"),
        }
    }
}

/// What went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Access to an address no region maps.
    Unmapped,
    /// Store to a read-only region.
    ReadOnly,
    /// An execute unit consumed a FIFO entry whose prefetch had faulted
    /// (deferred stream-fault semantics).
    PoisonConsumed,
    /// Integer division/remainder by zero.
    DivideByZero,
    /// A stream was configured with a non-positive element count.
    BadStreamCount(i64),
    /// A scalar store and a stream-out competed for one output FIFO.
    OutputConflict,
}

impl FaultKind {
    /// Stable machine-readable class name (used by the JSON encoding).
    /// The payload of [`FaultKind::BadStreamCount`] travels separately.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Unmapped => "unmapped",
            FaultKind::ReadOnly => "read-only",
            FaultKind::PoisonConsumed => "poison-consumed",
            FaultKind::DivideByZero => "divide-by-zero",
            FaultKind::BadStreamCount(_) => "bad-stream-count",
            FaultKind::OutputConflict => "output-conflict",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Unmapped => write!(f, "unmapped address"),
            FaultKind::ReadOnly => write!(f, "read-only memory"),
            FaultKind::PoisonConsumed => write!(f, "poisoned stream datum consumed"),
            FaultKind::DivideByZero => write!(f, "integer division by zero"),
            FaultKind::BadStreamCount(n) => write!(f, "stream count {n}"),
            FaultKind::OutputConflict => write!(f, "output FIFO conflict"),
        }
    }
}

/// Full provenance of a fault: which unit, which stream, which
/// instruction, which address.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInfo {
    /// Unit that raised (or consumed) the fault.
    pub unit: FaultUnit,
    /// Violation class.
    pub kind: FaultKind,
    /// Faulting address, when the fault involves memory.
    pub addr: Option<i64>,
    /// The data FIFO involved, for stream faults.
    pub stream: Option<DataFifo>,
    /// The instruction at the head of the unit's queue, in listing
    /// notation (filled in by the execution loop when known).
    pub inst: Option<String>,
    /// Human-readable description (includes the memory-map context for
    /// access faults).
    pub detail: String,
}

/// The provenance as a stable one-object JSON document: `unit`/`scu`,
/// `class` (plus `count` for bad stream counts), and — when known —
/// `addr`, `stream` and `inst`, with the human-readable `detail` last.
/// Part of [`crate::SimError::to_json`], which `wmd` shares.
impl ToJson for FaultInfo {
    fn write_json(&self, w: &mut Writer) {
        w.object(Layout::Inline, |w| {
            w.field("unit", self.unit.name());
            if let FaultUnit::Scu(n) = self.unit {
                w.field("scu", n);
            }
            w.field("class", self.kind.name());
            if let FaultKind::BadStreamCount(n) = self.kind {
                w.field("count", n);
            }
            if let Some(a) = self.addr {
                w.field("addr", a);
            }
            if let Some(s) = &self.stream {
                w.field("stream", s.to_string());
            }
            if let Some(i) = &self.inst {
                w.field("inst", i);
            }
            w.field("detail", &self.detail);
        });
    }
}

impl std::fmt::Display for FaultInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.unit, self.detail)?;
        if let Some(s) = &self.stream {
            write!(f, " [stream -> {s}]")?;
        }
        if let Some(i) = &self.inst {
            write!(f, " [instruction `{i}`]")?;
        }
        Ok(())
    }
}

impl std::error::Error for FaultInfo {}

/// Occupancy of one input FIFO.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoState {
    /// Entries queued.
    pub len: usize,
    /// Memory requests in flight toward the FIFO.
    pub pending: usize,
    /// Whether an SCU is feeding it.
    pub streamed: bool,
    /// Queued entries that are poisoned.
    pub poisoned: usize,
}

/// One execution unit's externally visible state.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitState {
    /// The IEU's or the FEU's [`UnitName::label`].
    pub name: &'static str,
    /// Instruction-queue depth.
    pub iq: usize,
    /// Head of the instruction queue, in listing notation.
    pub head: Option<String>,
    /// Input FIFOs 0 and 1.
    pub ins: [FifoState; 2],
    /// Output-FIFO depth.
    pub out: usize,
    /// Condition-code FIFO depth.
    pub cc: usize,
    /// Why the unit cannot retire its head, when it cannot.
    pub stall: Option<String>,
}

/// One stream control unit's state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScuState {
    /// Index of the SCU.
    pub index: usize,
    /// Whether a stream is configured and running.
    pub active: bool,
    /// True for in-streams (memory -> FIFO).
    pub dir_in: bool,
    /// Destination/source description (`"i0"`, `"VEU port 1"`).
    pub target: String,
    /// Next address the SCU will issue.
    pub addr: i64,
    /// Elements left (`None` for unbounded streams).
    pub remaining: Option<i64>,
    /// Whether fault injection has disabled this SCU.
    pub disabled: bool,
}

/// A snapshot of the machine, attached to every terminal error.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Program counter (`None` once the entry function returned).
    pub pc: Option<String>,
    /// IEU then FEU.
    pub units: Vec<UnitState>,
    /// All stream control units.
    pub scus: Vec<ScuState>,
    /// Memory requests in flight.
    pub in_flight: usize,
    /// Scalar stores waiting for data.
    pub store_queue: usize,
    /// VEU instruction-queue depth.
    pub veu_iq: usize,
    /// IFU-side `jNI` dispatch counters, as `(fifo, remaining)`.
    pub dispatch: Vec<(String, i64)>,
    /// Memory responses dropped so far by fault injection.
    pub dropped_responses: u64,
    /// Memory-hierarchy state summary (L1/MSHR/stream-buffer/bank
    /// occupancy; `None` under the flat model).
    pub mem: Option<String>,
}

impl MachineState {
    /// The stalled units, for a one-line culprit summary.
    pub fn culprits(&self) -> Vec<String> {
        self.units
            .iter()
            .filter_map(|u| u.stall.as_ref().map(|s| format!("{}: {s}", u.name)))
            .collect()
    }
}

impl std::fmt::Display for MachineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "machine state at cycle {} (pc {}):",
            self.cycle,
            self.pc.as_deref().unwrap_or("<returned>")
        )?;
        for u in &self.units {
            writeln!(
                f,
                "  {}: iq={} head={} in0=[{}q+{}p{}{}] in1=[{}q+{}p{}{}] out={} cc={}",
                u.name,
                u.iq,
                u.head.as_deref().unwrap_or("-"),
                u.ins[0].len,
                u.ins[0].pending,
                if u.ins[0].streamed { " streamed" } else { "" },
                if u.ins[0].poisoned > 0 { " POISON" } else { "" },
                u.ins[1].len,
                u.ins[1].pending,
                if u.ins[1].streamed { " streamed" } else { "" },
                if u.ins[1].poisoned > 0 { " POISON" } else { "" },
                u.out,
                u.cc,
            )?;
            if let Some(s) = &u.stall {
                writeln!(f, "       stalled: {s}")?;
            }
        }
        for s in &self.scus {
            if s.active || s.disabled {
                writeln!(
                    f,
                    "  SCU {}: {} {} -> {} addr={:#x} remaining={}{}",
                    s.index,
                    if s.active { "active" } else { "idle" },
                    if s.dir_in { "in" } else { "out" },
                    s.target,
                    s.addr,
                    s.remaining
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| "unbounded".to_string()),
                    if s.disabled {
                        " [DISABLED by fault injection]"
                    } else {
                        ""
                    },
                )?;
            }
        }
        writeln!(
            f,
            "  memory: {} in flight, {} store(s) queued{}",
            self.in_flight,
            self.store_queue,
            if self.dropped_responses > 0 {
                format!(
                    ", {} response(s) dropped by fault injection",
                    self.dropped_responses
                )
            } else {
                String::new()
            }
        )?;
        if let Some(m) = &self.mem {
            writeln!(f, "  memory hierarchy: {m}")?;
        }
        if self.veu_iq > 0 {
            writeln!(f, "  VEU: iq={}", self.veu_iq)?;
        }
        if !self.dispatch.is_empty() {
            let d: Vec<String> = self
                .dispatch
                .iter()
                .map(|(f, n)| format!("{f}={n}"))
                .collect();
            writeln!(f, "  dispatch counters: {}", d.join(" "))?;
        }
        Ok(())
    }
}
