//! Instructions: one RTL each.

use crate::expr::{MemRef, Operand, RExpr};
use crate::func::Label;
use crate::module::SymId;
use crate::ops::{BinOp, CmpOp, Width};
use crate::reg::{Reg, RegClass};

/// Stable identifier of an instruction within its function.
///
/// Plays the role of the paper's "line number where the memory reference
/// occurred" (`lno`) in the partition vectors of the recurrence algorithm:
/// ids survive instruction insertion and deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl std::fmt::Display for InstId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// One of the WM data FIFOs, identified by unit and register index (0 or 1).
///
/// "In streaming mode, both register 0 and register 1 can be treated as
/// input/output FIFOs."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataFifo {
    /// Owning execution unit.
    pub class: RegClass,
    /// FIFO register index: 0 or 1.
    pub index: u8,
}

impl DataFifo {
    /// FIFO mapped to register `index` of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 1`.
    pub fn new(class: RegClass, index: u8) -> DataFifo {
        assert!(index <= 1, "only registers 0 and 1 are FIFO-mapped");
        DataFifo { class, index }
    }

    /// The architected register this FIFO is mapped to.
    pub fn reg(self) -> Reg {
        Reg::phys(self.class, self.index)
    }
}

impl std::fmt::Display for DataFifo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

/// An instruction: a stable id plus the RTL itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Stable per-function id (the partition algorithm's `lno`).
    pub id: InstId,
    /// The RTL.
    pub kind: InstKind,
}

/// The RTL forms.
///
/// The *generic* memory forms (`GLoad`/`GStore`) are produced by the front
/// end and executed by the scalar machine models; the *WM* forms
/// (`WLoad`/`WStore`, streams) are produced by target expansion, where a
/// load "only computes an address; the destination is implicitly the input
/// FIFO".
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// `dst := expr`. Writing FIFO register 0 enqueues into the unit's
    /// output FIFO; reading FIFO register 0/1 dequeues.
    Assign { dst: Reg, src: RExpr },
    /// Load the address of global `sym` plus `disp` into `dst`
    /// (the `llh`/`sll` pair of the WM listings).
    LoadAddr { dst: Reg, sym: SymId, disp: i64 },
    /// Compare and enqueue the boolean into the unit's condition-code FIFO.
    Compare {
        class: RegClass,
        op: CmpOp,
        a: Operand,
        b: Operand,
    },
    /// Unconditional jump. Executed by the IFU at essentially zero cost.
    Jump { target: Label },
    /// Conditional jump: dequeue from `class`'s condition-code FIFO and
    /// branch to `target` if the value equals `when`, to `els` otherwise.
    /// Both targets are explicit; the linearizer materializes fallthrough.
    Branch {
        class: RegClass,
        when: bool,
        target: Label,
        els: Label,
    },
    /// `jNI` — jump to `target` if the stream feeding `fifo` is not
    /// exhausted, to `els` otherwise.
    BranchStream {
        fifo: DataFifo,
        target: Label,
        els: Label,
    },
    /// Call a function. Before register allocation `args`/`ret` are virtual
    /// registers; allocation lowers them onto the argument-register
    /// convention (`r2..`, `f2..`).
    Call {
        callee: SymId,
        args: Vec<Reg>,
        ret: Option<Reg>,
    },
    /// Return from the current function. The return value, if any, has been
    /// placed in the convention register.
    Ret,

    /// Generic load: `dst := mem`.
    GLoad { dst: Reg, mem: MemRef },
    /// Generic store: `mem := src`.
    GStore { src: Operand, mem: MemRef },

    /// WM load: compute `addr` (an IEU expression) and issue a memory read
    /// whose data is delivered to `fifo` (`l64f r31 := (r22<<3) + r24`).
    WLoad {
        fifo: DataFifo,
        addr: RExpr,
        width: Width,
    },
    /// WM store: compute `addr` and pair it with the next value enqueued in
    /// `unit`'s output FIFO (`s64f r31 := (r22<<3) + r21`).
    WStore {
        unit: RegClass,
        addr: RExpr,
        width: Width,
    },

    /// Configure a stream control unit to read `count` elements starting at
    /// `base` with byte `stride`, delivering into `fifo`.
    /// `count == None` requests an unbounded (infinite) stream.
    StreamIn {
        fifo: DataFifo,
        base: Operand,
        count: Option<Operand>,
        stride: Operand,
        width: Width,
        /// Is this the stream a `jNI` jump tests? Only a tested stream
        /// loads the IFU's termination counter: an untested stream's
        /// counter would go stale and corrupt a later loop on the same
        /// FIFO.
        tested: bool,
    },
    /// Configure a stream control unit to write elements dequeued from
    /// `fifo`'s output side to memory.
    StreamOut {
        fifo: DataFifo,
        base: Operand,
        count: Option<Operand>,
        stride: Operand,
        width: Width,
    },
    /// Configure a stream control unit in *gather* mode: fetch `count`
    /// indices from `ibase` with byte stride `istride` (elements of width
    /// `iwidth`), and for each index `k` deliver the element of width
    /// `width` at `base + (k << shift)` into `fifo`. The index stream is
    /// internal to the SCU — it occupies no architected FIFO.
    StreamGather {
        fifo: DataFifo,
        base: Operand,
        /// Log2 byte scale applied to each index (0 for byte arrays,
        /// 2 for 32-bit elements, 3 for 64-bit elements).
        shift: u8,
        width: Width,
        ibase: Operand,
        istride: Operand,
        iwidth: Width,
        count: Operand,
        /// Cf. [`InstKind::StreamIn::tested`].
        tested: bool,
    },
    /// The scatter dual: pop `count` values from `fifo`'s unit output FIFO
    /// and store each to `base + (k << shift)` where `k` is the next index
    /// streamed from `ibase`.
    StreamScatter {
        fifo: DataFifo,
        base: Operand,
        shift: u8,
        width: Width,
        ibase: Operand,
        istride: Operand,
        iwidth: Width,
        count: Operand,
        /// Conservative byte extent of the scattered region starting at
        /// `base`; younger reads overlapping `[base, base+span)` must wait
        /// for the scatter (the individual store addresses are unknown
        /// until their indices arrive).
        span: i64,
    },
    /// Stop the stream feeding/draining `fifo` (used at the exits of loops
    /// whose trip count was unknown at compile time).
    StreamStop { fifo: DataFifo },

    // ---- inter-core channels (tiled machines) ----
    //
    // A tiled WM couples cores with point-to-point FIFO channels: a
    // core's out-stream feeds another core's in-stream, turning the
    // paper's access/execute FIFO mechanism into a communication
    // fabric. The scalar forms move one value; the stream forms
    // configure an SCU to pump a whole stream core-to-core without
    // occupying the execution units.
    /// Push the value of `src` into the channel toward tile `peer`
    /// (fire-and-forget: ignores channel credits, so a runaway sender
    /// can overrun the receiver — the overrun poisons the entry).
    ChanSend {
        peer: u8,
        src: Operand,
        class: RegClass,
    },
    /// Pop the next value sent by tile `peer` into `dst`; stalls until
    /// one is available.
    ChanRecv { peer: u8, dst: Reg },
    /// Configure an SCU to pop `count` elements from `fifo`'s input
    /// side and send each to tile `peer` (respecting channel credits).
    /// Paired with a concurrent `StreamIn` on the same FIFO this is a
    /// zero-instruction core-to-core DMA.
    StreamSend {
        peer: u8,
        fifo: DataFifo,
        count: Operand,
    },
    /// Configure an SCU to receive `count` elements from tile `peer`
    /// into `fifo`'s input side (no memory traffic).
    StreamRecv {
        peer: u8,
        fifo: DataFifo,
        count: Operand,
        /// Cf. [`InstKind::StreamIn::tested`].
        tested: bool,
    },

    // ---- vector execution unit ----
    //
    // "The architecture also supports vector operations … Each vector
    // register contains N components." Streams can deliver "to the IEU
    // FIFOs, the FEU FIFOs, or the VEU"; these instructions move whole
    // N-element groups between the VEU's stream ports and its vector
    // registers and operate on them elementwise.
    /// Configure a stream of `count` doubles into VEU input port `port`.
    /// `vectors` carries the number of N-element groups the loop will
    /// consume; it loads the IFU's vector-termination counter (cf.
    /// `StreamIn::tested`).
    VStreamIn {
        port: u8,
        base: Operand,
        count: Operand,
        stride: Operand,
        vectors: Operand,
    },
    /// Configure a stream draining the VEU output FIFO to memory.
    VStreamOut {
        base: Operand,
        count: Operand,
        stride: Operand,
    },
    /// Pop N elements from VEU input port `port` into vector register
    /// `vreg`.
    VLoad { vreg: u8, port: u8 },
    /// Push vector register `vreg`'s N elements into the VEU output FIFO.
    VStore { vreg: u8 },
    /// Elementwise `dst[k] := a[k] op b[k]` (floating point).
    VecBin { op: BinOp, dst: u8, a: u8, b: u8 },
    /// Splat an immediate into every component of `dst`.
    VecBroadcast { dst: u8, value: f64 },
    /// Jump to `target` while the VEU's vector-termination counter is not
    /// exhausted, `els` otherwise.
    BranchVec { target: Label, els: Label },

    /// No operation (used transiently by transformation passes).
    Nop,
}

/// A view of the memory behaviour of an instruction, unifying the generic
/// and WM forms for the partition-building analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum MemAccess<'a> {
    /// Generic structured reference.
    Generic { mem: &'a MemRef, is_load: bool },
    /// WM address-expression reference.
    Wm {
        addr: &'a RExpr,
        width: Width,
        is_load: bool,
        fifo: Option<DataFifo>,
    },
}

impl MemAccess<'_> {
    /// Is this access a read?
    pub fn is_load(&self) -> bool {
        match self {
            MemAccess::Generic { is_load, .. } => *is_load,
            MemAccess::Wm { is_load, .. } => *is_load,
        }
    }

    /// Access width in bytes.
    pub fn width(&self) -> Width {
        match self {
            MemAccess::Generic { mem, .. } => mem.width,
            MemAccess::Wm { width, .. } => *width,
        }
    }
}

impl InstKind {
    /// Registers written by this RTL (including FIFO-mapped cells; liveness
    /// clients filter with [`Reg::is_fifo`] / [`Reg::is_zero`]).
    pub fn defs(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.for_each_def(|r| v.push(r));
        v
    }

    /// Call `f` on each register [`InstKind::defs`] returns, in order,
    /// without building the list.
    pub fn for_each_def(&self, mut f: impl FnMut(Reg)) {
        match self {
            InstKind::Assign { dst, .. }
            | InstKind::LoadAddr { dst, .. }
            | InstKind::ChanRecv { dst, .. } => f(*dst),
            InstKind::GLoad { dst, mem } => {
                f(*dst);
                mem.auto_def().into_iter().for_each(f);
            }
            InstKind::GStore { mem, .. } => mem.auto_def().into_iter().for_each(f),
            InstKind::Call { ret, .. } => ret.iter().copied().for_each(f),
            _ => {}
        }
    }

    /// Registers read by this RTL.
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.for_each_use(|r| v.push(r));
        v
    }

    /// Call `f` on each register [`InstKind::uses`] returns, in order,
    /// without building the list.
    pub fn for_each_use(&self, f: impl FnMut(Reg)) {
        match self {
            InstKind::Assign { src, .. } => src.regs().for_each(f),
            InstKind::Compare { a, b, .. } => a.reg().into_iter().chain(b.reg()).for_each(f),
            InstKind::GLoad { mem, .. } => mem.regs().for_each(f),
            InstKind::GStore { src, mem } => src.reg().into_iter().chain(mem.regs()).for_each(f),
            InstKind::WLoad { addr, .. } => addr.regs().for_each(f),
            InstKind::WStore { addr, .. } => addr.regs().for_each(f),
            InstKind::StreamIn {
                base,
                count,
                stride,
                ..
            }
            | InstKind::StreamOut {
                base,
                count,
                stride,
                ..
            } => base
                .reg()
                .into_iter()
                .chain(count.and_then(|c| c.reg()))
                .chain(stride.reg())
                .for_each(f),
            InstKind::StreamGather {
                base,
                ibase,
                istride,
                count,
                ..
            }
            | InstKind::StreamScatter {
                base,
                ibase,
                istride,
                count,
                ..
            } => base
                .reg()
                .into_iter()
                .chain(ibase.reg())
                .chain(istride.reg())
                .chain(count.reg())
                .for_each(f),
            InstKind::VStreamIn {
                base,
                count,
                stride,
                vectors,
                ..
            } => base
                .reg()
                .into_iter()
                .chain(count.reg())
                .chain(stride.reg())
                .chain(vectors.reg())
                .for_each(f),
            InstKind::VStreamOut {
                base,
                count,
                stride,
            } => base
                .reg()
                .into_iter()
                .chain(count.reg())
                .chain(stride.reg())
                .for_each(f),
            InstKind::Call { args, .. } => args.iter().copied().for_each(f),
            InstKind::ChanSend { src, .. } => src.reg().into_iter().for_each(f),
            InstKind::StreamSend { count, .. } | InstKind::StreamRecv { count, .. } => {
                count.reg().into_iter().for_each(f)
            }
            _ => {}
        }
    }

    /// The memory access performed, if any. Stream configuration
    /// instructions are not themselves accesses.
    pub fn mem_access(&self) -> Option<MemAccess<'_>> {
        match self {
            InstKind::GLoad { mem, .. } => Some(MemAccess::Generic { mem, is_load: true }),
            InstKind::GStore { mem, .. } => Some(MemAccess::Generic {
                mem,
                is_load: false,
            }),
            InstKind::WLoad { addr, width, fifo } => Some(MemAccess::Wm {
                addr,
                width: *width,
                is_load: true,
                fifo: Some(*fifo),
            }),
            InstKind::WStore { addr, width, .. } => Some(MemAccess::Wm {
                addr,
                width: *width,
                is_load: false,
                fifo: None,
            }),
            _ => None,
        }
    }

    /// Does this RTL end a basic block?
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Jump { .. }
                | InstKind::Branch { .. }
                | InstKind::BranchStream { .. }
                | InstKind::BranchVec { .. }
                | InstKind::Ret
        )
    }

    /// All control-flow targets of this instruction (empty for non-jumps;
    /// taken target first for conditional branches).
    pub fn targets(&self) -> Vec<Label> {
        match self {
            InstKind::Jump { target } => vec![*target],
            InstKind::Branch { target, els, .. }
            | InstKind::BranchStream { target, els, .. }
            | InstKind::BranchVec { target, els } => vec![*target, *els],
            _ => Vec::new(),
        }
    }

    /// Mutable references to every control-flow target.
    pub fn targets_mut(&mut self) -> Vec<&mut Label> {
        match self {
            InstKind::Jump { target } => vec![target],
            InstKind::Branch { target, els, .. }
            | InstKind::BranchStream { target, els, .. }
            | InstKind::BranchVec { target, els } => vec![target, els],
            _ => Vec::new(),
        }
    }

    /// Replace register `from` with operand `to` in every *use* position.
    /// Definitions are left untouched. `GLoad`/`GStore` address registers
    /// and call arguments must remain registers: there only a register
    /// `to` replaces `from`, and an immediate leaves them as they are.
    /// Returns whether an operand changed.
    #[must_use]
    pub fn substitute_use(&mut self, from: Reg, to: Operand) -> bool {
        let fix = |op: &mut Operand| op.replace(from, to);
        let fix_mem = |mem: &mut MemRef| match to {
            Operand::Reg(to) => substitute_mem_reg(mem, from, to),
            _ => false,
        };
        match self {
            InstKind::Assign { src, .. } => src.substitute(from, to),
            InstKind::Compare { a, b, .. } => fix(a) | fix(b),
            InstKind::WLoad { addr, .. } | InstKind::WStore { addr, .. } => {
                addr.substitute(from, to)
            }
            InstKind::GLoad { mem, .. } => fix_mem(mem),
            InstKind::GStore { src, mem } => fix(src) | fix_mem(mem),
            InstKind::StreamIn {
                base,
                count,
                stride,
                ..
            }
            | InstKind::StreamOut {
                base,
                count,
                stride,
                ..
            } => fix(base) | fix(stride) | count.as_mut().is_some_and(fix),
            InstKind::StreamGather {
                base,
                ibase,
                istride,
                count,
                ..
            }
            | InstKind::StreamScatter {
                base,
                ibase,
                istride,
                count,
                ..
            } => fix(base) | fix(ibase) | fix(istride) | fix(count),
            InstKind::VStreamIn {
                base,
                count,
                stride,
                vectors,
                ..
            } => fix(base) | fix(count) | fix(stride) | fix(vectors),
            InstKind::VStreamOut {
                base,
                count,
                stride,
            } => fix(base) | fix(count) | fix(stride),
            InstKind::ChanSend { src, .. } => fix(src),
            InstKind::StreamSend { count, .. } | InstKind::StreamRecv { count, .. } => fix(count),
            InstKind::Call { args, .. } => match to {
                Operand::Reg(to) if to != from => {
                    let mut changed = false;
                    for a in args.iter_mut().filter(|a| **a == from) {
                        *a = to;
                        changed = true;
                    }
                    changed
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Does this instruction have side effects beyond its register defs
    /// (memory, control flow, FIFO traffic, condition codes)?
    pub fn has_side_effects(&self) -> bool {
        match self {
            InstKind::Assign { dst, src } => {
                // Writing a FIFO register enqueues; reading one dequeues.
                dst.is_fifo() || src.regs().any(Reg::is_fifo)
            }
            InstKind::LoadAddr { .. } => false,
            InstKind::GLoad { mem, .. } => mem.auto_def().is_some(),
            _ => true,
        }
    }
}

/// Replace address register `from` with `to`; returns whether one changed.
fn substitute_mem_reg(mem: &mut MemRef, from: Reg, to: Reg) -> bool {
    if from == to {
        return false;
    }
    let mut changed = false;
    if mem.base == Some(from) {
        mem.base = Some(to);
        changed = true;
    }
    if let Some((r, s)) = mem.index {
        if r == from {
            mem.index = Some((to, s));
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::BinOp;

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }

    #[test]
    fn defs_and_uses_assign() {
        let k = InstKind::Assign {
            dst: r(1),
            src: RExpr::Bin(BinOp::Add, r(2).into(), r(3).into()),
        };
        assert_eq!(k.defs(), vec![r(1)]);
        assert_eq!(k.uses(), vec![r(2), r(3)]);
    }

    #[test]
    fn defs_and_uses_memory_forms() {
        let g = InstKind::GLoad {
            dst: r(1),
            mem: MemRef::base(r(2), 0, Width::D8),
        };
        assert_eq!(g.defs(), vec![r(1)]);
        assert_eq!(g.uses(), vec![r(2)]);
        assert!(g.mem_access().unwrap().is_load());

        let w = InstKind::WStore {
            unit: RegClass::Flt,
            addr: RExpr::Bin(BinOp::Add, r(3).into(), Operand::Imm(8)),
            width: Width::D8,
        };
        assert!(w.defs().is_empty());
        assert_eq!(w.uses(), vec![r(3)]);
        assert!(!w.mem_access().unwrap().is_load());
        assert_eq!(w.mem_access().unwrap().width(), Width::D8);
    }

    #[test]
    fn terminator_classification() {
        assert!(InstKind::Ret.is_terminator());
        assert!(!InstKind::Nop.is_terminator());
        let b = InstKind::Branch {
            class: RegClass::Int,
            when: true,
            target: Label(3),
            els: Label(4),
        };
        assert!(b.is_terminator());
        assert_eq!(b.targets(), vec![Label(3), Label(4)]);
        let j = InstKind::Jump { target: Label(1) };
        assert_eq!(j.targets(), vec![Label(1)]);
        assert!(InstKind::Ret.targets().is_empty());
    }

    #[test]
    fn substitute_uses_only() {
        let mut k = InstKind::Assign {
            dst: r(1),
            src: RExpr::Op(Operand::Reg(r(1))),
        };
        assert!(k.substitute_use(r(1), Operand::Imm(7)));
        match k {
            InstKind::Assign { dst, src } => {
                assert_eq!(dst, r(1)); // def untouched
                assert_eq!(src, RExpr::Op(Operand::Imm(7)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn substitution_reports_only_real_rewrites() {
        // Address registers and call arguments refuse an immediate.
        let load = InstKind::GLoad {
            dst: r(1),
            mem: MemRef::base(r(2), 0, Width::D8),
        };
        let store = InstKind::GStore {
            src: r(3).into(),
            mem: MemRef::base(r(2), 0, Width::D8),
        };
        let call = InstKind::Call {
            callee: SymId(0),
            args: vec![r(2)],
            ret: None,
        };
        for kind in [&load, &store, &call] {
            let mut k = kind.clone();
            assert!(!k.substitute_use(r(2), Operand::Imm(7)), "{kind:?}");
            assert_eq!(&k, kind);
            assert!(!k.substitute_use(r(2), r(2).into()), "{kind:?}");
            assert!(!k.substitute_use(r(9), r(4).into()), "{kind:?}");
            assert!(k.substitute_use(r(2), r(4).into()), "{kind:?}");
            assert!(!k.uses().contains(&r(2)), "{kind:?}");
        }
        // The stored value may become an immediate; its address may not.
        let mut k = store;
        assert!(k.substitute_use(r(3), Operand::Imm(7)));
        assert_eq!(k.uses(), vec![r(2)]);
    }

    #[test]
    fn fifo_traffic_is_a_side_effect() {
        let enq = InstKind::Assign {
            dst: Reg::flt(0),
            src: RExpr::Op(Operand::Reg(Reg::flt(22))),
        };
        assert!(enq.has_side_effects());
        let deq = InstKind::Assign {
            dst: Reg::flt(22),
            src: RExpr::Op(Operand::Reg(Reg::flt(0))),
        };
        assert!(deq.has_side_effects());
        let plain = InstKind::Assign {
            dst: r(1),
            src: RExpr::Op(Operand::Imm(0)),
        };
        assert!(!plain.has_side_effects());
    }

    #[test]
    #[should_panic(expected = "FIFO-mapped")]
    fn datafifo_index_checked() {
        let _ = DataFifo::new(RegClass::Flt, 2);
    }

    #[test]
    fn stream_uses() {
        let s = InstKind::StreamIn {
            fifo: DataFifo::new(RegClass::Flt, 1),
            base: r(6).into(),
            count: Some(r(5).into()),
            stride: Operand::Imm(8),
            width: Width::D8,
            tested: false,
        };
        assert_eq!(s.uses(), vec![r(6), r(5)]);
        assert!(s.defs().is_empty());
    }
}
