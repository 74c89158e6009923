//! Pre-decoded instruction tables: the simulator's only issue path, run
//! by both engines.
//!
//! Issuing [`InstKind`] directly would mean a match on every issue
//! attempt: operands re-classified (register? FIFO? zero? immediate?),
//! FIFO demands and interlock register sets recomputed, branch labels
//! resolved by a linear block scan, and global symbols looked up per
//! execution. `DecodedProgram` does all of that work once, at machine
//! construction:
//!
//! * every instruction slot gets a [`DecodedInst`] record with an
//!   indirect **exec function pointer** ([`ExecFn`]) instead of a match
//!   on the kind, its FIFO demand (`need`) and interlock register set
//!   (`read_mask`) precomputed, and its operands resolved to flat array
//!   slots ([`Src`]/[`Dst`]);
//! * the commonest operand shapes get handlers of their own: a move of
//!   one slot, integer `reg op imm` whose fold cannot fault, integer
//!   `reg op reg` without a divide, and an integer compare of a register
//!   with a register or an immediate. Every other shape keeps the
//!   generic handler. The choice is recorded as a [`Handler`] tag beside
//!   the pointer;
//! * immediate-only subexpressions are folded (integer folds skip
//!   division by zero so the runtime fault is preserved; float folds use
//!   the identical `f64` operations, so results stay bit-identical);
//! * control flow is resolved to **slot indices**: the table lays out
//!   each function's blocks in order, then one sentinel slot
//!   ([`IfuOp::End`]) that raises "control fell off the end", so the
//!   program counter is one index and fallthrough is `pc + 1`. Branch
//!   and call targets are slots, `LoadAddr` symbols are folded to
//!   absolute addresses, builtins are named by [`Builtin`], and each VEU
//!   instruction carries its operands in its payload;
//! * every dispatched instruction gets the one handler that executes it.
//!   A form no handler can execute (a register of the other unit's
//!   class, a write to register 1, the address of a symbol that is not
//!   data, a call of a data symbol or of an unknown builtin, a vector
//!   operator that is not floating point, a vector register or VEU port
//!   that does not exist) fails the decode, so
//!   [`WmMachine::new`] refuses the module before it runs.
//!
//! The unit instruction queues and the program counter hold `u32`
//! indices into this table, and the units read each record in place.
//! [`DecodedInst::kind`] points back at the module's original
//! [`InstKind`] for traces, fault reports and the stream handlers.
//!
//! Since both engines share these tables, comparing the engines cannot
//! catch a decode error. [`DecodedProgram::verify_roundtrip`] can: it
//! maps every slot back to the original instruction without the
//! decoder's operand helpers.

use std::collections::HashMap;

use wm_ir::{
    BinOp, CmpOp, DataFifo, GlobalKind, InstKind, Label, Module, Operand, RExpr, Reg, RegClass,
    SymId, UnOp, Width,
};

use crate::compiled::{
    exec_assign, exec_assign_op, exec_assign_ri, exec_assign_rr, exec_compare, exec_compare_int,
    exec_crecv, exec_csend, exec_loadaddr, exec_not_dispatched, exec_sstop, exec_stream,
    exec_wload, exec_wstore,
};
use crate::machine::{
    dispatch_class, fifo_need, Exec, SimError, WmMachine, VECTOR_REGS, VEU_PORTS,
};

/// An exec handler for one decoded instruction, called instead of a match
/// on its [`InstKind`].
pub(crate) type ExecFn =
    for<'a, 'm> fn(&'a mut WmMachine<'m>, &DecodedInst<'m>) -> Result<Exec, SimError>;

/// Which exec handler a slot carries: the decoder's choice, recorded
/// beside [`DecodedInst::exec`] (which is always `handler.exec()`) so the
/// verifier can re-derive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Handler {
    /// Any `Assign` no shape handler below covers.
    Assign,
    /// `Assign` of one slot: a register, an immediate, a FIFO or zero.
    AssignOp,
    /// Integer `reg op imm` whose fold cannot fault.
    AssignRi,
    /// Integer `reg op reg` with no divide or remainder.
    AssignRr,
    /// Any `Compare` the shape handler below does not cover.
    Compare,
    /// Integer compare of a register with a register or an immediate.
    CompareInt,
    LoadAddr,
    WLoad,
    WStore,
    /// The eight stream configurations.
    Stream,
    Sstop,
    ChanSend,
    ChanRecv,
    /// An instruction the IFU or the VEU executes, and the sentinels.
    NotDispatched,
}

impl Handler {
    /// The exec function this tag names.
    pub(crate) fn exec(self) -> ExecFn {
        match self {
            Handler::Assign => exec_assign,
            Handler::AssignOp => exec_assign_op,
            Handler::AssignRi => exec_assign_ri,
            Handler::AssignRr => exec_assign_rr,
            Handler::Compare => exec_compare,
            Handler::CompareInt => exec_compare_int,
            Handler::LoadAddr => exec_loadaddr,
            Handler::WLoad => exec_wload,
            Handler::WStore => exec_wstore,
            Handler::Stream => exec_stream,
            Handler::Sstop => exec_sstop,
            Handler::ChanSend => exec_csend,
            Handler::ChanRecv => exec_crecv,
            Handler::NotDispatched => exec_not_dispatched,
        }
    }
}

/// A source operand resolved to a flat slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Src {
    /// Integer immediate (possibly the result of decode-time folding).
    Imm(i64),
    /// Float immediate (possibly folded; folds are bit-identical).
    FImm(f64),
    /// An ordinary register: a direct index into the unit's register file.
    Reg(u8),
    /// FIFO-mapped register 0 or 1: reading dequeues.
    Fifo(u8),
    /// Register 31: reads as zero.
    Zero,
}

/// A destination register resolved to a flat slot. Register 1 (read-only
/// FIFO) has no slot: a write to it fails the decode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Dst {
    /// Register 0: push onto the unit's output FIFO.
    Out,
    /// Register 31: the write is discarded.
    Zero,
    /// An ordinary register.
    Reg(u8),
}

/// A pre-decoded right-hand-side expression (mirrors [`RExpr`] with
/// operands resolved and immediate-only subtrees folded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DecExpr {
    Op(Src),
    Un(UnOp, Src),
    Bin(BinOp, Src, Src),
    Dual {
        inner: BinOp,
        a: Src,
        b: Src,
        outer: BinOp,
        c: Src,
    },
}

/// The decoded execution-unit payload, matched (once, at decode time)
/// from the instruction kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Payload {
    Assign {
        dst: Dst,
        src: DecExpr,
        /// The register the paired-ALU interlock must delay (`None` for
        /// FIFO/zero destinations).
        executed_dst: Option<u8>,
    },
    LoadAddr {
        dst: Dst,
        /// Absolute address: symbol base + displacement, folded at decode.
        addr: i64,
        /// The destination's register number, whatever the register
        /// (unlike `Assign`'s).
        executed_dst: Option<u8>,
    },
    Compare {
        op: CmpOp,
        a: Src,
        b: Src,
    },
    WLoad {
        fifo: DataFifo,
        addr: DecExpr,
        width: Width,
    },
    WStore {
        unit: RegClass,
        addr: DecExpr,
        width: Width,
    },
    ChanSend {
        peer: u8,
        src: Src,
    },
    ChanRecv {
        peer: u8,
        dst: Dst,
    },
    /// The VEU instructions, which the VEU executes from these fields.
    VLoad {
        vreg: u8,
        port: u8,
    },
    VStore {
        vreg: u8,
    },
    VecBin {
        /// A floating-point operator: decode refuses any other.
        op: BinOp,
        dst: u8,
        a: u8,
        b: u8,
    },
    VecBroadcast {
        dst: u8,
        value: f64,
    },
    /// No operand slots: stream configuration and `Sstop`, whose handlers
    /// read the instruction itself (they run once per loop, not per
    /// element), every instruction the IFU executes, and the sentinels.
    None,
}

/// A builtin the IFU executes itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    /// Write the low byte of `r2` to the output.
    Putchar,
}

/// What the IFU does with this instruction, with control-flow targets
/// pre-resolved to slot indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum IfuOp {
    Nop,
    Jump {
        to: u32,
    },
    Branch {
        class: RegClass,
        when: bool,
        t: u32,
        e: u32,
    },
    BranchStream {
        fifo: DataFifo,
        t: u32,
        e: u32,
    },
    BranchVec {
        t: u32,
        e: u32,
    },
    /// Call the function whose first slot is `entry`.
    CallFunc {
        entry: u32,
    },
    CallBuiltin {
        builtin: Builtin,
    },
    Ret,
    /// IFU-executed cross-unit conversion (`IntToFlt`/`FltToInt` assign):
    /// `a` is a slot of the unit [`convert_source`] names, `dst` a slot
    /// of the `class` unit.
    Convert {
        op: UnOp,
        a: Src,
        class: RegClass,
        dst: Dst,
    },
    /// Enqueue on the VEU's instruction queue.
    DispatchVeu,
    /// Enqueue on the IEU/FEU instruction queue selected by `class`.
    Dispatch,
    /// The sentinel after function `func`'s last instruction: control
    /// that reaches it fell off the end of the function.
    End {
        func: u32,
    },
}

/// One pre-decoded instruction slot, read in place by the unit that
/// issues it.
#[derive(Debug)]
pub(crate) struct DecodedInst<'m> {
    /// The module's original instruction (for traces, fault reports,
    /// deadlock diagnosis and the stream handlers; a `Nop` for the
    /// sentinels).
    pub(crate) kind: &'m InstKind,
    /// The exec handler the unit calls instead of matching on `kind`.
    pub(crate) exec: ExecFn,
    /// Which handler `exec` is.
    pub(crate) handler: Handler,
    /// Entries dequeued from each input FIFO (precomputed `fifo_need`).
    pub(crate) need: [u8; 2],
    /// Bit `n` set iff the instruction reads physical register `n` of its
    /// dispatch class (precomputed paired-ALU interlock test).
    pub(crate) read_mask: u32,
    /// The unit that executes a dispatched instruction.
    pub(crate) class: RegClass,
    /// The decoded execution payload.
    pub(crate) payload: Payload,
    /// The decoded IFU action.
    pub(crate) ifu: IfuOp,
}

/// The instruction a sentinel slot points at.
static SENTINEL: InstKind = InstKind::Nop;

impl<'m> DecodedInst<'m> {
    /// A slot no scalar unit executes: its IFU action is everything.
    fn not_dispatched(kind: &'m InstKind, payload: Payload, ifu: IfuOp) -> DecodedInst<'m> {
        DecodedInst {
            kind,
            exec: Handler::NotDispatched.exec(),
            handler: Handler::NotDispatched,
            need: [0, 0],
            read_mask: 0,
            class: RegClass::Int,
            payload,
            ifu,
        }
    }
}

/// One function's place in the flat table: the first slot of each of its
/// blocks, in layout order, and its sentinel slot.
#[derive(Debug, PartialEq)]
pub(crate) struct DecFunc {
    pub(crate) blocks: Vec<u32>,
    pub(crate) end: u32,
}

impl DecFunc {
    /// The function's first slot (its sentinel when it has no block).
    pub(crate) fn entry(&self) -> u32 {
        self.blocks.first().copied().unwrap_or(self.end)
    }
}

/// The whole module, pre-decoded. Built once by [`WmMachine::new`]; both
/// engines issue from it.
#[derive(Debug)]
pub struct DecodedProgram<'m> {
    pub(crate) funcs: Vec<DecFunc>,
    /// Every function's instructions, then its sentinel.
    pub(crate) insts: Vec<DecodedInst<'m>>,
}

/// Each function's [`DecFunc`], from its block lengths alone: blocks in
/// layout order, then one sentinel slot per function.
fn layout(module: &Module) -> Vec<DecFunc> {
    let mut next = 0u32;
    let mut slots = |n: usize| {
        let start = next;
        next += n as u32;
        start
    };
    module
        .functions
        .iter()
        .map(|f| DecFunc {
            blocks: f.blocks.iter().map(|b| slots(b.insts.len())).collect(),
            end: slots(1),
        })
        .collect()
}

impl<'m> DecodedProgram<'m> {
    /// Pre-decode every function of `module`. `addrs` maps data symbols
    /// to their loaded addresses (used to fold `LoadAddr`).
    ///
    /// # Errors
    ///
    /// [`SimError::BadProgram`] for the first instruction no handler can
    /// execute (see the module docs).
    pub(crate) fn decode(
        module: &'m Module,
        addrs: &HashMap<SymId, i64>,
    ) -> Result<DecodedProgram<'m>, SimError> {
        let funcs = layout(module);
        let mut insts = Vec::with_capacity(funcs.last().map_or(0, |f| f.end as usize + 1));
        for (fi, f) in module.functions.iter().enumerate() {
            let at = |l: Label| funcs[fi].blocks[f.block_index(l)];
            for b in &f.blocks {
                for inst in &b.insts {
                    insts.push(decode_inst(module, &funcs, at, addrs, &inst.kind)?);
                }
            }
            insts.push(DecodedInst::not_dispatched(
                &SENTINEL,
                Payload::None,
                IfuOp::End { func: fi as u32 },
            ));
        }
        Ok(DecodedProgram { funcs, insts })
    }

    /// Number of decoded instructions (the sentinels not counted).
    pub fn len(&self) -> usize {
        self.insts.len() - self.funcs.len()
    }

    /// Is the table empty (a module with no function bodies)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where slot `pc` is, as "`func`, block B, instruction I". A slot
    /// that starts a block names that block; a sentinel names the
    /// position one past its function's last instruction.
    pub(crate) fn position(&self, module: &Module, pc: u32) -> String {
        let fi = self
            .funcs
            .iter()
            .position(|f| pc <= f.end)
            .expect("the program counter is a slot of the table");
        let blocks = &self.funcs[fi].blocks;
        // the last block starting at or before `pc`: of several that
        // start there, only the last is not empty
        let b = blocks.partition_point(|&s| s <= pc).saturating_sub(1);
        let inst = pc - blocks.get(b).copied().unwrap_or(pc);
        format!(
            "{}, block {b}, instruction {inst}",
            module.functions[fi].name
        )
    }

    /// Check that the decode tables round-trip to the original RTL: every
    /// slot must sit where the module's own block lengths put it (one
    /// sentinel after each function), every decoded operand slot must
    /// map back to the operand at the same position in the original
    /// instruction, every folded immediate must equal the fold of the
    /// original immediates, every pre-resolved control target must be the
    /// slot a fresh label/symbol resolution names, the handler must be
    /// the one the instruction's shape calls for, and the precomputed
    /// FIFO demands and interlock masks must be the ones the operand
    /// slots imply. Returns the number of instruction slots checked.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch, naming the function and the
    /// offending instruction.
    pub fn verify_roundtrip(&self, module: &Module) -> Result<usize, String> {
        // The layout, re-derived here from the block lengths.
        let mut starts: Vec<Vec<u32>> = Vec::with_capacity(module.functions.len());
        let mut ends: Vec<u32> = Vec::with_capacity(module.functions.len());
        let mut next = 0u32;
        for f in &module.functions {
            let mut s = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                s.push(next);
                next += b.insts.len() as u32;
            }
            starts.push(s);
            ends.push(next);
            next += 1;
        }
        if self.insts.len() != next as usize {
            return Err(format!(
                "slot count mismatch: decoded {} vs {next} for the module",
                self.insts.len()
            ));
        }
        if self.funcs.len() != module.functions.len() {
            return Err(format!(
                "function count mismatch: decoded {} vs module {}",
                self.funcs.len(),
                module.functions.len()
            ));
        }
        let entry = |fi: usize| starts[fi].first().copied().unwrap_or(ends[fi]);
        let mut checked = 0usize;
        for (fi, f) in module.functions.iter().enumerate() {
            let df = &self.funcs[fi];
            if df.blocks != starts[fi] || df.end != ends[fi] {
                return Err(format!(
                    "{}: block table mismatch: decoded {:?} ending at {} vs {:?} ending at {}",
                    f.name, df.blocks, df.end, starts[fi], ends[fi]
                ));
            }
            let target = |l: Label| starts[fi][f.block_index(l)];
            for (bi, b) in f.blocks.iter().enumerate() {
                for (ii, inst) in b.insts.iter().enumerate() {
                    let d = &self.insts[starts[fi][bi] as usize + ii];
                    verify_inst(module, target, entry, d, &inst.kind).map_err(|e| {
                        format!("{} block {bi} inst {ii} `{}`: {e}", f.name, inst.kind)
                    })?;
                    checked += 1;
                }
            }
            let end = &self.insts[ends[fi] as usize];
            if end.ifu != (IfuOp::End { func: fi as u32 }) {
                return Err(format!(
                    "{}: slot {} is not its end-of-function sentinel: {:?}",
                    f.name, ends[fi], end.ifu
                ));
            }
            if end.handler != Handler::NotDispatched {
                return Err(format!(
                    "{}: sentinel slot {}: handler mismatch: {:?}",
                    f.name, ends[fi], end.handler
                ));
            }
        }
        Ok(checked)
    }
}

/// Decode one instruction slot. `at` resolves a label of the slot's
/// function to the slot that starts its block.
fn decode_inst<'m>(
    module: &'m Module,
    funcs: &[DecFunc],
    at: impl Fn(Label) -> u32,
    addrs: &HashMap<SymId, i64>,
    kind: &'m InstKind,
) -> Result<DecodedInst<'m>, SimError> {
    // The cross-unit-conversion Assign pattern is tested *before* the
    // generic dispatch arm: the IFU executes those conversions itself.
    let ifu = match kind {
        InstKind::Nop => IfuOp::Nop,
        InstKind::Jump { target } => IfuOp::Jump { to: at(*target) },
        InstKind::Branch {
            class,
            when,
            target,
            els,
        } => IfuOp::Branch {
            class: *class,
            when: *when,
            t: at(*target),
            e: at(*els),
        },
        InstKind::BranchStream { fifo, target, els } => IfuOp::BranchStream {
            fifo: *fifo,
            t: at(*target),
            e: at(*els),
        },
        InstKind::BranchVec { target, els } => IfuOp::BranchVec {
            t: at(*target),
            e: at(*els),
        },
        InstKind::Call { callee, .. } => match &module.global(*callee).kind {
            GlobalKind::Func(fi) => IfuOp::CallFunc {
                entry: funcs[*fi].entry(),
            },
            GlobalKind::Builtin => match module.sym_name(*callee) {
                "putchar" => IfuOp::CallBuiltin {
                    builtin: Builtin::Putchar,
                },
                other => return Err(SimError::BadProgram(format!("unknown builtin {other}"))),
            },
            GlobalKind::Data { .. } => {
                return Err(SimError::BadProgram(format!(
                    "call to data symbol {}",
                    module.sym_name(*callee)
                )))
            }
        },
        InstKind::Ret => IfuOp::Ret,
        InstKind::Assign {
            dst,
            src: RExpr::Un(op @ (UnOp::IntToFlt | UnOp::FltToInt), a),
        } => IfuOp::Convert {
            op: *op,
            a: src_slot(convert_source(*op), *a)?,
            class: dst.class,
            dst: dst_slot(dst.class, *dst)?,
        },
        InstKind::VLoad { .. }
        | InstKind::VStore { .. }
        | InstKind::VecBin { .. }
        | InstKind::VecBroadcast { .. } => {
            return Ok(DecodedInst::not_dispatched(
                kind,
                decode_veu(kind)?,
                IfuOp::DispatchVeu,
            ))
        }
        _ => IfuOp::Dispatch,
    };
    if ifu != IfuOp::Dispatch {
        // IFU-handled instructions never reach a unit's issue logic
        return Ok(DecodedInst::not_dispatched(kind, Payload::None, ifu));
    }
    let class = dispatch_class(kind);
    let need = fifo_need(class, kind);
    let (handler, payload) = decode_exec(module, class, addrs, kind)?;
    Ok(DecodedInst {
        kind,
        exec: handler.exec(),
        handler,
        need: [need[0] as u8, need[1] as u8],
        read_mask: read_mask(class, kind),
        class,
        payload,
        ifu,
    })
}

/// Decode the operands of a VEU instruction.
///
/// # Errors
///
/// [`SimError::BadProgram`] for a vector operator that is not floating
/// point, and for a vector register or port the VEU does not have.
fn decode_veu(kind: &InstKind) -> Result<Payload, SimError> {
    let reg = |v: u8| {
        if (v as usize) < VECTOR_REGS {
            Ok(v)
        } else {
            Err(SimError::BadProgram(format!(
                "vector register v{v} does not exist"
            )))
        }
    };
    Ok(match *kind {
        InstKind::VLoad { vreg, port } => Payload::VLoad {
            vreg: reg(vreg)?,
            port: veu_port(port)?,
        },
        InstKind::VStore { vreg } => Payload::VStore { vreg: reg(vreg)? },
        InstKind::VecBin { op, dst, a, b } => {
            if !op.is_float() {
                return Err(SimError::BadProgram(format!(
                    "vector operator {op} is not floating point"
                )));
            }
            Payload::VecBin {
                op,
                dst: reg(dst)?,
                a: reg(a)?,
                b: reg(b)?,
            }
        }
        InstKind::VecBroadcast { dst, value } => Payload::VecBroadcast {
            dst: reg(dst)?,
            value,
        },
        _ => unreachable!("not a VEU instruction: {kind}"),
    })
}

/// A VEU input port an instruction names.
///
/// # Errors
///
/// [`SimError::BadProgram`] for a port the VEU does not have.
fn veu_port(port: u8) -> Result<u8, SimError> {
    if (port as usize) < VEU_PORTS {
        Ok(port)
    } else {
        Err(SimError::BadProgram(format!(
            "VEU port p{port} does not exist"
        )))
    }
}

/// The handler for an `Assign` of `src` on the `class` unit: a shape
/// handler where one fits, else the generic one.
fn assign_handler(class: RegClass, src: &DecExpr) -> Handler {
    let int = |op: BinOp| class == RegClass::Int && !op.is_float();
    match *src {
        DecExpr::Op(_) => Handler::AssignOp,
        DecExpr::Bin(op, Src::Reg(_), Src::Imm(b)) if int(op) && op.fold_int(0, b).is_some() => {
            Handler::AssignRi
        }
        DecExpr::Bin(op, Src::Reg(_), Src::Reg(_))
            if int(op) && !matches!(op, BinOp::Div | BinOp::Rem) =>
        {
            Handler::AssignRr
        }
        _ => Handler::Assign,
    }
}

/// Decode the execution payload of an instruction the `class` unit
/// executes, and pick the one handler that executes it.
fn decode_exec(
    module: &Module,
    class: RegClass,
    addrs: &HashMap<SymId, i64>,
    kind: &InstKind,
) -> Result<(Handler, Payload), SimError> {
    Ok(match kind {
        InstKind::Assign { dst, src } => {
            let src = decode_expr(class, src)?;
            let executed_dst = if !dst.is_fifo() && !dst.is_zero() {
                dst.phys_num()
            } else {
                None
            };
            (
                assign_handler(class, &src),
                Payload::Assign {
                    dst: dst_slot(class, *dst)?,
                    src,
                    executed_dst,
                },
            )
        }
        InstKind::LoadAddr { dst, sym, disp } => {
            let Some(&base) = addrs.get(sym) else {
                return Err(SimError::BadProgram(format!(
                    "address taken of non-data symbol {}",
                    module.sym_name(*sym)
                )));
            };
            (
                Handler::LoadAddr,
                Payload::LoadAddr {
                    dst: dst_slot(class, *dst)?,
                    addr: base + disp,
                    executed_dst: dst.phys_num(),
                },
            )
        }
        InstKind::Compare { op, a, b, .. } => {
            let (a, b) = (src_slot(class, *a)?, src_slot(class, *b)?);
            let handler = match (a, b) {
                (Src::Reg(_), Src::Reg(_) | Src::Imm(_)) if class == RegClass::Int => {
                    Handler::CompareInt
                }
                _ => Handler::Compare,
            };
            (handler, Payload::Compare { op: *op, a, b })
        }
        InstKind::WLoad { fifo, addr, width } => (
            Handler::WLoad,
            Payload::WLoad {
                fifo: *fifo,
                addr: decode_expr(class, addr)?,
                width: *width,
            },
        ),
        InstKind::WStore { unit, addr, width } => (
            Handler::WStore,
            Payload::WStore {
                unit: *unit,
                addr: decode_expr(class, addr)?,
                width: *width,
            },
        ),
        InstKind::ChanSend { peer, src, .. } => (
            Handler::ChanSend,
            Payload::ChanSend {
                peer: *peer,
                src: src_slot(class, *src)?,
            },
        ),
        InstKind::ChanRecv { peer, dst } => (
            Handler::ChanRecv,
            Payload::ChanRecv {
                peer: *peer,
                dst: dst_slot(class, *dst)?,
            },
        ),
        InstKind::StreamStop { .. } => (Handler::Sstop, Payload::None),
        // The eight stream configurations (`dispatch_class` admits no
        // other kind). They read their operands once per loop, through
        // the same slots, so an operand no slot can hold is refused here.
        _ => {
            for r in kind.uses() {
                src_slot(class, Operand::Reg(r))?;
            }
            if let InstKind::VStreamIn { port, .. } = kind {
                veu_port(*port)?;
            }
            (Handler::Stream, Payload::None)
        }
    })
}

/// Resolve one source operand of an instruction the `class` unit
/// executes.
///
/// # Errors
///
/// [`SimError::BadProgram`] for a register of the other class.
pub(crate) fn src_slot(class: RegClass, op: Operand) -> Result<Src, SimError> {
    match op {
        Operand::Imm(v) => Ok(Src::Imm(v)),
        Operand::FImm(v) => Ok(Src::FImm(v)),
        Operand::Reg(r) => {
            if r.class != class {
                return Err(SimError::BadProgram(format!(
                    "cross-unit register read of {r} on the {class} unit"
                )));
            }
            Ok(match phys(r) {
                31 => Src::Zero,
                n @ (0 | 1) => Src::Fifo(n),
                n => Src::Reg(n),
            })
        }
    }
}

/// Resolve a destination register of an instruction the `class` unit
/// executes.
///
/// # Errors
///
/// [`SimError::BadProgram`] for a register of the other class and for
/// register 1, the read-only FIFO.
fn dst_slot(class: RegClass, r: Reg) -> Result<Dst, SimError> {
    if r.class != class {
        return Err(SimError::BadProgram(format!(
            "cross-unit register write of {r} on the {class} unit"
        )));
    }
    Ok(match phys(r) {
        31 => Dst::Zero,
        0 => Dst::Out,
        1 => {
            return Err(SimError::BadProgram(
                "register 1 is read-only FIFO-mapped".into(),
            ))
        }
        n => Dst::Reg(n),
    })
}

/// The number of a register the decoder meets: [`WmMachine::new`] refuses
/// virtual registers before decoding.
fn phys(r: Reg) -> u8 {
    r.phys_num()
        .expect("virtual registers are refused before decode")
}

/// The unit whose register an IFU conversion reads.
pub(crate) fn convert_source(op: UnOp) -> RegClass {
    if op == UnOp::IntToFlt {
        RegClass::Int
    } else {
        RegClass::Flt
    }
}

/// Build a binary node, folding immediate-only operands. Integer folds
/// use `BinOp::fold_int`, which refuses division/remainder by zero — the
/// runtime divide fault is preserved, not folded away. Float folds use
/// `BinOp::fold_flt`, the identical `f64` operation `eval_bin` applies.
fn fold_bin(op: BinOp, a: Src, b: Src) -> DecExpr {
    let folded = match (a, b) {
        (Src::Imm(x), Src::Imm(y)) => op.fold_int(x, y).map(Src::Imm),
        (Src::FImm(x), Src::FImm(y)) => op.fold_flt(x, y).map(Src::FImm),
        _ => None,
    };
    folded.map_or(DecExpr::Bin(op, a, b), DecExpr::Op)
}

/// Decode an expression, reading its operands in evaluation order.
fn decode_expr(class: RegClass, e: &RExpr) -> Result<DecExpr, SimError> {
    Ok(match e {
        RExpr::Op(a) => DecExpr::Op(src_slot(class, *a)?),
        RExpr::Un(op, a) => DecExpr::Un(*op, src_slot(class, *a)?),
        RExpr::Bin(op, a, b) => fold_bin(*op, src_slot(class, *a)?, src_slot(class, *b)?),
        RExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => {
            let (sa, sb, sc) = (
                src_slot(class, *a)?,
                src_slot(class, *b)?,
                src_slot(class, *c)?,
            );
            match fold_bin(*inner, sa, sb) {
                DecExpr::Op(sab) => fold_bin(*outer, sab, sc),
                _ => DecExpr::Dual {
                    inner: *inner,
                    a: sa,
                    b: sb,
                    outer: *outer,
                    c: sc,
                },
            }
        }
    })
}

/// Bit `n` set iff `kind` reads physical register `n` of `class`: the
/// paired-ALU interlock's register set.
pub(crate) fn read_mask(class: RegClass, kind: &InstKind) -> u32 {
    let mut mask = 0u32;
    kind.for_each_use(|r| {
        if let (true, Some(n)) = (r.class == class, r.phys_num()) {
            mask |= 1u32 << n;
        }
    });
    mask
}

// ---- round-trip verification ----
//
// The verifier restates the architecture's register map and re-derives
// everything a decoded payload implies from its operand slots, without
// the decoder's operand helpers (`src_slot`, `dst_slot`, `read_mask`,
// `fifo_need`; only immediate folds reuse `fold_bin`). Both engines issue
// from the tables, so no engine comparison can check them; this can.

/// The slot a register operand of `class` must decode to: register 31
/// reads as zero, registers 0 and 1 dequeue from the input FIFOs, every
/// other register is read from the register file.
fn expected_src(class: RegClass, r: Reg) -> Option<Src> {
    if r.class != class {
        return None;
    }
    Some(match r.phys_num()? {
        31 => Src::Zero,
        n @ (0 | 1) => Src::Fifo(n),
        n => Src::Reg(n),
    })
}

/// The slot a destination register must decode to: register 31 discards,
/// register 0 enqueues on the output FIFO, register 1 (read-only) has no
/// slot, every other register is written in the register file.
fn expected_dst(r: Reg) -> Option<Dst> {
    Some(match r.phys_num()? {
        31 => Dst::Zero,
        0 => Dst::Out,
        1 => return None,
        n => Dst::Reg(n),
    })
}

/// Does slot `s` read original operand `op`? Immediates must be
/// bit-equal.
fn src_matches(class: RegClass, s: Src, op: Operand) -> bool {
    match (s, op) {
        (Src::Imm(a), Operand::Imm(b)) => a == b,
        (Src::FImm(a), Operand::FImm(b)) => a.to_bits() == b.to_bits(),
        (s, Operand::Reg(r)) => expected_src(class, r) == Some(s),
        _ => false,
    }
}

/// Fold a constant-only expression exactly as decode does; `None` if it
/// reads any register or cannot fold (e.g. division by zero).
fn const_fold(e: &RExpr) -> Option<Src> {
    let imm = |op: Operand| match op {
        Operand::Imm(v) => Some(Src::Imm(v)),
        Operand::FImm(v) => Some(Src::FImm(v)),
        Operand::Reg(_) => None,
    };
    let bin = |op: BinOp, a: Src, b: Src| match fold_bin(op, a, b) {
        DecExpr::Op(s) => Some(s),
        _ => None,
    };
    match e {
        RExpr::Op(a) => imm(*a),
        RExpr::Un(..) => None,
        RExpr::Bin(op, a, b) => bin(*op, imm(*a)?, imm(*b)?),
        RExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => bin(*outer, bin(*inner, imm(*a)?, imm(*b)?)?, imm(*c)?),
    }
}

/// Does decoded expression `dec` compute `orig`? Operators must match and
/// every slot must read the original operand at its position; a subtree
/// may only be replaced by the fold of its immediates.
fn expr_matches(class: RegClass, dec: &DecExpr, orig: &RExpr) -> bool {
    let folds_to = |s: Src, e: &RExpr| match (const_fold(e), s) {
        (Some(Src::Imm(a)), Src::Imm(b)) => a == b,
        (Some(Src::FImm(a)), Src::FImm(b)) => a.to_bits() == b.to_bits(),
        _ => false,
    };
    let src = |s: Src, op: &Operand| src_matches(class, s, *op);
    match (*dec, orig) {
        (DecExpr::Op(s), e) if folds_to(s, e) => true,
        (DecExpr::Op(s), RExpr::Op(a)) => src(s, a),
        (DecExpr::Un(op, s), RExpr::Un(o2, a)) => op == *o2 && src(s, a),
        (DecExpr::Bin(op, sa, sb), RExpr::Bin(o2, a, b)) => op == *o2 && src(sa, a) && src(sb, b),
        // the inner pair folded, the outer operation did not
        (
            DecExpr::Bin(op, sab, sc),
            RExpr::Dual {
                inner,
                a,
                b,
                outer,
                c,
            },
        ) => op == *outer && folds_to(sab, &RExpr::Bin(*inner, *a, *b)) && src(sc, c),
        (
            DecExpr::Dual {
                inner,
                a: sa,
                b: sb,
                outer,
                c: sc,
            },
            RExpr::Dual {
                inner: i2,
                a,
                b,
                outer: o2,
                c,
            },
        ) => inner == *i2 && outer == *o2 && src(sa, a) && src(sb, b) && src(sc, c),
        _ => false,
    }
}

/// The interlock mask and the FIFO demand a decoded payload's operand
/// slots imply: each register slot (FIFO and zero registers included)
/// sets its register's bit, and each FIFO slot is one dequeue. `None` for
/// a payload without slots.
fn slot_reads(payload: &Payload) -> Option<(u32, [u8; 2])> {
    let expr_slots = |e: DecExpr| match e {
        DecExpr::Op(a) | DecExpr::Un(_, a) => vec![a],
        DecExpr::Bin(_, a, b) => vec![a, b],
        DecExpr::Dual { a, b, c, .. } => vec![a, b, c],
    };
    let slots = match *payload {
        Payload::Assign { src, .. } => expr_slots(src),
        Payload::LoadAddr { .. } => Vec::new(),
        Payload::Compare { a, b, .. } => vec![a, b],
        Payload::WLoad { addr, .. } | Payload::WStore { addr, .. } => expr_slots(addr),
        Payload::ChanSend { src, .. } => vec![src],
        Payload::ChanRecv { .. } => Vec::new(),
        Payload::VLoad { .. }
        | Payload::VStore { .. }
        | Payload::VecBin { .. }
        | Payload::VecBroadcast { .. }
        | Payload::None => return None,
    };
    let (mut mask, mut need) = (0u32, [0u8; 2]);
    for s in slots {
        match s {
            Src::Reg(n) => mask |= 1u32 << n,
            Src::Fifo(n) => {
                mask |= 1u32 << n;
                need[n as usize] += 1;
            }
            Src::Zero => mask |= 1u32 << 31,
            Src::Imm(_) | Src::FImm(_) => {}
        }
    }
    Some((mask, need))
}

/// The handler a dispatched instruction of the `class` unit must carry,
/// from its operands: a move of one operand (or of a fold of
/// immediates), integer `reg op imm` unless it divides by zero, integer
/// `reg op reg` unless it divides, and an integer compare of a register
/// with a register or an immediate get their shape handlers. "Register"
/// means an ordinary one, neither FIFO-mapped nor zero.
fn expected_handler(class: RegClass, kind: &InstKind) -> Handler {
    let reg = |op: &Operand| {
        matches!(op, Operand::Reg(r)
            if r.class == class && r.phys_num().is_some_and(|n| !matches!(n, 0 | 1 | 31)))
    };
    let int = |op: &BinOp| class == RegClass::Int && !op.is_float();
    let divides = |op: &BinOp| matches!(op, BinOp::Div | BinOp::Rem);
    match kind {
        InstKind::Assign { src, .. } => match src {
            RExpr::Op(_) => Handler::AssignOp,
            e if const_fold(e).is_some() => Handler::AssignOp,
            RExpr::Bin(op, a, Operand::Imm(b))
                if int(op) && reg(a) && !(divides(op) && *b == 0) =>
            {
                Handler::AssignRi
            }
            RExpr::Bin(op, a, b) if int(op) && !divides(op) && reg(a) && reg(b) => {
                Handler::AssignRr
            }
            _ => Handler::Assign,
        },
        InstKind::Compare { a, b, .. }
            if class == RegClass::Int && reg(a) && (reg(b) || matches!(b, Operand::Imm(_))) =>
        {
            Handler::CompareInt
        }
        InstKind::Compare { .. } => Handler::Compare,
        InstKind::LoadAddr { .. } => Handler::LoadAddr,
        InstKind::WLoad { .. } => Handler::WLoad,
        InstKind::WStore { .. } => Handler::WStore,
        InstKind::ChanSend { .. } => Handler::ChanSend,
        InstKind::ChanRecv { .. } => Handler::ChanRecv,
        InstKind::StreamStop { .. } => Handler::Sstop,
        _ => Handler::Stream,
    }
}

/// Does VEU payload `p` carry `kind`'s operands? A vector operator must
/// be one of the four floating-point ones.
fn veu_matches(p: &Payload, kind: &InstKind) -> bool {
    match (*p, kind) {
        (Payload::VLoad { vreg, port }, InstKind::VLoad { vreg: v2, port: p2 }) => {
            vreg == *v2 && port == *p2
        }
        (Payload::VStore { vreg }, InstKind::VStore { vreg: v2 }) => vreg == *v2,
        (
            Payload::VecBin { op, dst, a, b },
            InstKind::VecBin {
                op: o2,
                dst: d2,
                a: a2,
                b: b2,
            },
        ) => {
            op == *o2
                && matches!(o2, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
                && (dst, a, b) == (*d2, *a2, *b2)
        }
        (Payload::VecBroadcast { dst, value }, InstKind::VecBroadcast { dst: d2, value: v2 }) => {
            dst == *d2 && value.to_bits() == v2.to_bits()
        }
        _ => false,
    }
}

/// Verify one decoded slot against its original instruction. `target`
/// names the slot a label of the slot's function starts at, `entry` the
/// first slot of a function.
fn verify_inst(
    module: &Module,
    target: impl Fn(Label) -> u32,
    entry: impl Fn(usize) -> u32,
    d: &DecodedInst<'_>,
    kind: &InstKind,
) -> Result<(), String> {
    if !std::ptr::eq(d.kind, kind) {
        return Err("decoded slot does not point at its module instruction".into());
    }
    // Control-flow targets must be the slots a fresh resolution names.
    match (&d.ifu, kind) {
        (IfuOp::Jump { to }, InstKind::Jump { target: l }) if *to == target(*l) => {}
        (
            IfuOp::Branch { class, when, t, e },
            InstKind::Branch {
                class: c2,
                when: w2,
                target: lt,
                els,
            },
        ) if class == c2 && when == w2 && *t == target(*lt) && *e == target(*els) => {}
        (
            IfuOp::BranchStream { fifo, t, e },
            InstKind::BranchStream {
                fifo: f2,
                target: lt,
                els,
            },
        ) if fifo == f2 && *t == target(*lt) && *e == target(*els) => {}
        (IfuOp::BranchVec { t, e }, InstKind::BranchVec { target: lt, els })
            if *t == target(*lt) && *e == target(*els) => {}
        (IfuOp::CallFunc { entry: at }, InstKind::Call { callee, .. }) if matches!(&module.global(*callee).kind, GlobalKind::Func(f) if entry(*f) == *at) =>
            {}
        (IfuOp::CallBuiltin { builtin }, InstKind::Call { callee, .. })
            if matches!(module.global(*callee).kind, GlobalKind::Builtin)
                && match builtin {
                    Builtin::Putchar => module.sym_name(*callee) == "putchar",
                } => {}
        (IfuOp::Ret, InstKind::Ret) => {}
        (IfuOp::Nop, InstKind::Nop) => {}
        // `IntToFlt` reads the integer unit, `FltToInt` the float unit
        (
            IfuOp::Convert { op, a, class, dst },
            InstKind::Assign {
                dst: d2,
                src: RExpr::Un(o2 @ (UnOp::IntToFlt | UnOp::FltToInt), a2),
            },
        ) if op == o2
            && src_matches(
                if *o2 == UnOp::IntToFlt {
                    RegClass::Int
                } else {
                    RegClass::Flt
                },
                *a,
                *a2,
            )
            && *class == d2.class
            && expected_dst(*d2) == Some(*dst) => {}
        (IfuOp::DispatchVeu, _) if veu_matches(&d.payload, kind) => {}
        (IfuOp::Dispatch, _) => {}
        other => return Err(format!("IFU op does not round-trip: {other:?}")),
    }
    if d.ifu != IfuOp::Dispatch {
        if d.handler != Handler::NotDispatched {
            return Err(format!(
                "handler mismatch: {:?} vs {:?}",
                d.handler,
                Handler::NotDispatched
            ));
        }
        if d.ifu != IfuOp::DispatchVeu && d.payload != Payload::None {
            return Err(format!("payload of an IFU instruction: {:?}", d.payload));
        }
        return Ok(());
    }
    let class = dispatch_class(kind);
    if d.class != class {
        return Err(format!("class mismatch: {:?} vs {:?}", d.class, class));
    }
    let handler = expected_handler(class, kind);
    if d.handler != handler {
        return Err(format!("handler mismatch: {:?} vs {handler:?}", d.handler));
    }
    // The interlock mask and FIFO demand must be what the operand slots
    // (checked against the original operands below) imply. Only the
    // slotless stream instructions are held to the `InstKind` derivation.
    let (mask, need) = slot_reads(&d.payload).unwrap_or_else(|| {
        let need = fifo_need(class, kind);
        (read_mask(class, kind), [need[0] as u8, need[1] as u8])
    });
    if d.need != need {
        return Err(format!("FIFO demand mismatch: {:?} vs {need:?}", d.need));
    }
    if d.read_mask != mask {
        return Err(format!(
            "interlock mask mismatch: {:#x} vs {mask:#x}",
            d.read_mask
        ));
    }
    let check_expr = |dec: &DecExpr, orig: &RExpr| -> Result<(), String> {
        if expr_matches(class, dec, orig) {
            Ok(())
        } else {
            Err(format!("expression does not round-trip: {dec:?} vs {orig}"))
        }
    };
    let check_dst = |ds: Dst, r: Reg| -> Result<(), String> {
        if expected_dst(r) != Some(ds) || r.class != class {
            return Err(format!("destination does not round-trip: {ds:?} vs {r}"));
        }
        Ok(())
    };
    let check_src = |s: Src, op: Operand| -> Result<(), String> {
        if src_matches(class, s, op) {
            Ok(())
        } else {
            Err(format!("operand does not round-trip: {s:?} vs {op:?}"))
        }
    };
    match (&d.payload, kind) {
        (Payload::Assign { dst, src, .. }, InstKind::Assign { dst: d2, src: s2 }) => {
            check_dst(*dst, *d2)?;
            check_expr(src, s2)?;
        }
        (Payload::LoadAddr { dst, .. }, InstKind::LoadAddr { dst: d2, .. }) => {
            check_dst(*dst, *d2)?;
        }
        (
            Payload::Compare { op, a, b },
            InstKind::Compare {
                op: o2,
                a: a2,
                b: b2,
                ..
            },
        ) => {
            if op != o2 {
                return Err("compare operator does not round-trip".into());
            }
            check_src(*a, *a2)?;
            check_src(*b, *b2)?;
        }
        (
            Payload::WLoad { fifo, addr, width },
            InstKind::WLoad {
                fifo: f2,
                addr: a2,
                width: w2,
            },
        ) => {
            if fifo != f2 || width != w2 {
                return Err("WLoad fifo/width does not round-trip".into());
            }
            check_expr(addr, a2)?;
        }
        (
            Payload::WStore { unit, addr, width },
            InstKind::WStore {
                unit: u2,
                addr: a2,
                width: w2,
            },
        ) => {
            if unit != u2 || width != w2 {
                return Err("WStore unit/width does not round-trip".into());
            }
            check_expr(addr, a2)?;
        }
        (
            Payload::ChanSend { peer, src },
            InstKind::ChanSend {
                peer: p2, src: s2, ..
            },
        ) => {
            if peer != p2 {
                return Err("Csend peer does not round-trip".into());
            }
            check_src(*src, *s2)?;
        }
        (Payload::ChanRecv { peer, dst }, InstKind::ChanRecv { peer: p2, dst: d2 }) => {
            if peer != p2 {
                return Err("Crecv peer does not round-trip".into());
            }
            check_dst(*dst, *d2)?;
        }
        // the handlers of these read the instruction itself
        (
            Payload::None,
            InstKind::StreamIn { .. }
            | InstKind::StreamOut { .. }
            | InstKind::StreamGather { .. }
            | InstKind::StreamScatter { .. }
            | InstKind::VStreamIn { .. }
            | InstKind::VStreamOut { .. }
            | InstKind::StreamSend { .. }
            | InstKind::StreamRecv { .. }
            | InstKind::StreamStop { .. },
        ) => {}
        other => return Err(format!("payload does not match instruction: {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use wm_ir::FuncBuilder;
    use wm_opt::{optimize_generic, optimize_wm, OptOptions};
    use wm_target::{allocate_registers, expand_wm, TargetKind};

    use super::*;
    use crate::{Engine, FaultKind, WmConfig, WmMachine};

    /// A streamed FP reduction: decoded payloads that dequeue from FIFOs
    /// and read ordinary registers.
    fn module() -> Module {
        let src = r"
            double a[64]; double b[64];
            int main() {
                int i; double s;
                for (i = 0; i < 64; i++) { a[i] = i; b[i] = 64 - i; }
                s = 0.0;
                for (i = 0; i < 64; i++) s = s + a[i] * b[i];
                return s;
            }
        ";
        let mut module = wm_frontend::compile(src).expect("compiles");
        let opts = OptOptions::all();
        for f in module.functions.iter_mut() {
            optimize_generic(f, &opts);
            expand_wm(f);
            optimize_wm(f, &opts);
            allocate_registers(f, TargetKind::Wm).expect("allocates");
        }
        module
    }

    /// A module whose `main` is `body` followed by `Ret`.
    fn hand_built(body: impl FnOnce(&mut FuncBuilder)) -> Module {
        let mut m = Module::new();
        let mut b = FuncBuilder::new("main", 0, 0);
        body(&mut b);
        b.emit(InstKind::Ret);
        m.add_function(b.finish());
        m
    }

    /// The machine's table, to corrupt: nothing else holds it yet.
    fn table<'a, 'm>(m: &'a mut WmMachine<'m>) -> &'a mut DecodedProgram<'m> {
        Arc::get_mut(&mut m.prog).expect("the machine is not running")
    }

    /// The decoded-payload slots of `m`'s table, with their slot reads.
    fn decoded(m: &WmMachine<'_>) -> Vec<(usize, u32, [u8; 2])> {
        (0..m.prog.insts.len())
            .filter_map(|i| {
                slot_reads(&m.prog.insts[i].payload).map(|(mask, need)| (i, mask, need))
            })
            .collect()
    }

    #[test]
    fn a_flipped_interlock_bit_fails_verification() {
        let module = module();
        let mut m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        m.prog
            .verify_roundtrip(&module)
            .expect("the decoded table verifies");
        let slots = decoded(&m);
        assert!(
            slots.iter().any(|&(_, mask, _)| mask != 0),
            "no register reads decoded"
        );
        let prog = table(&mut m);
        for (i, _, _) in slots {
            for bit in 0..32 {
                prog.insts[i].read_mask ^= 1 << bit;
                let err = prog.verify_roundtrip(&module).unwrap_err();
                assert!(err.contains("interlock mask mismatch"), "{err}");
                prog.insts[i].read_mask ^= 1 << bit;
            }
        }
    }

    #[test]
    fn a_wrong_fifo_demand_fails_verification() {
        let module = module();
        let mut m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        let slots = decoded(&m);
        assert!(
            slots.iter().any(|&(_, _, need)| need != [0, 0]),
            "no FIFO reads decoded"
        );
        let prog = table(&mut m);
        for (i, _, need) in slots {
            for fifo in 0..2 {
                for wrong in [need[fifo] + 1, need[fifo].wrapping_sub(1)] {
                    prog.insts[i].need[fifo] = wrong;
                    let err = prog.verify_roundtrip(&module).unwrap_err();
                    assert!(err.contains("FIFO demand mismatch"), "{err}");
                }
                prog.insts[i].need = need;
            }
        }
        prog.verify_roundtrip(&module).expect("restored");
    }

    #[test]
    fn a_dropped_payload_fails_verification() {
        let module = module();
        let mut m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        let prog = table(&mut m);
        let i = (0..prog.insts.len())
            .find(|&i| matches!(prog.insts[i].payload, Payload::Assign { .. }))
            .expect("an Assign decoded");
        prog.insts[i].payload = Payload::None;
        let err = prog.verify_roundtrip(&module).unwrap_err();
        assert!(err.contains("payload"), "{err}");
    }

    #[test]
    fn a_wrong_handler_tag_fails_verification() {
        const ALL: [Handler; 14] = [
            Handler::Assign,
            Handler::AssignOp,
            Handler::AssignRi,
            Handler::AssignRr,
            Handler::Compare,
            Handler::CompareInt,
            Handler::LoadAddr,
            Handler::WLoad,
            Handler::WStore,
            Handler::Stream,
            Handler::Sstop,
            Handler::ChanSend,
            Handler::ChanRecv,
            Handler::NotDispatched,
        ];
        let module = module();
        let mut m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        let prog = table(&mut m);
        let tags: Vec<Handler> = prog.insts.iter().map(|d| d.handler).collect();
        for shape in [Handler::AssignOp, Handler::AssignRi, Handler::CompareInt] {
            assert!(tags.contains(&shape), "no {shape:?} slot decoded");
        }
        for (i, &right) in tags.iter().enumerate() {
            for wrong in ALL.into_iter().filter(|&h| h != right) {
                prog.insts[i].handler = wrong;
                let err = prog.verify_roundtrip(&module).unwrap_err();
                assert!(err.contains("handler mismatch"), "{err}");
            }
            prog.insts[i].handler = right;
        }
        prog.verify_roundtrip(&module).expect("restored");
    }

    #[test]
    fn a_shifted_jump_target_fails_verification() {
        let module = module();
        let mut m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        let prog = table(&mut m);
        let jumps: Vec<usize> = (0..prog.insts.len())
            .filter(|&i| matches!(prog.insts[i].ifu, IfuOp::Jump { .. }))
            .collect();
        assert!(!jumps.is_empty(), "no jump decoded");
        for i in jumps {
            let IfuOp::Jump { to } = prog.insts[i].ifu else {
                unreachable!()
            };
            for shifted in [to + 1, to.wrapping_sub(1)] {
                prog.insts[i].ifu = IfuOp::Jump { to: shifted };
                let err = prog.verify_roundtrip(&module).unwrap_err();
                assert!(err.contains("IFU op does not round-trip"), "{err}");
            }
            prog.insts[i].ifu = IfuOp::Jump { to };
        }
        // a sentinel moved into a function's body is caught too
        let end = prog.funcs[0].end as usize;
        prog.insts.swap(end - 1, end);
        assert!(prog.verify_roundtrip(&module).is_err());
    }

    #[test]
    fn an_immediate_divisor_of_zero_keeps_the_generic_handler_and_faults() {
        let module = hand_built(|b| {
            b.copy(Reg::int(4), Operand::Imm(7));
            b.assign(
                Reg::int(2),
                RExpr::Bin(BinOp::Div, Reg::int(4).into(), Operand::Imm(0)),
            );
        });
        let m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        m.prog.verify_roundtrip(&module).expect("verifies");
        assert_eq!(m.prog.insts[1].handler, Handler::Assign);
        let cycles = Engine::ALL.map(|engine| {
            let cfg = WmConfig {
                engine,
                ..WmConfig::default()
            };
            let err = WmMachine::run(&module, "main", &[], &cfg).unwrap_err();
            let SimError::Fault { cycle, fault, .. } = err else {
                panic!("{engine}: expected a fault, got {err}");
            };
            assert_eq!(fault.kind, FaultKind::DivideByZero, "{engine}");
            cycle
        });
        assert_eq!(cycles[0], cycles[1], "both engines fault at one cycle");
    }

    #[test]
    fn an_feu_reg_op_imm_keeps_the_generic_handler() {
        let module = hand_built(|b| {
            b.copy(Reg::flt(4), Operand::FImm(1.5));
            b.assign(
                Reg::flt(5),
                RExpr::Bin(BinOp::FMul, Reg::flt(4).into(), Operand::FImm(2.0)),
            );
            b.assign(
                Reg::flt(6),
                RExpr::Bin(BinOp::Add, Reg::flt(4).into(), Operand::Imm(2)),
            );
            b.assign(
                Reg::int(5),
                RExpr::Bin(BinOp::Add, Reg::int(4).into(), Operand::Imm(2)),
            );
        });
        let m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        m.prog.verify_roundtrip(&module).expect("verifies");
        let tags: Vec<Handler> = m.prog.insts[..4].iter().map(|d| d.handler).collect();
        assert_eq!(
            tags,
            [
                Handler::AssignOp,
                Handler::Assign,
                Handler::Assign,
                Handler::AssignRi
            ]
        );
    }

    #[test]
    fn a_snapshot_at_a_block_start_names_that_block() {
        // blocks: 0 = [copy, jump], 1 = [] (empty), 2 = [copy, ret]
        let mut module = Module::new();
        let mut b = FuncBuilder::new("main", 0, 0);
        let (b1, b2) = (b.new_block(), b.new_block());
        b.copy(Reg::int(4), Operand::Imm(1));
        b.jump(b2);
        b.switch_to(b2);
        b.copy(Reg::int(2), Operand::Imm(3));
        b.emit(InstKind::Ret);
        let f = b.finish();
        assert_eq!(f.block_index(b1), 1);
        module.add_function(f);
        let mut m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        m.prog.verify_roundtrip(&module).expect("verifies");
        assert_eq!(
            m.prog.funcs[0],
            DecFunc {
                blocks: vec![0, 2, 2],
                end: 4
            }
        );
        m.start("main", &[]).expect("starts");
        for (pc, text) in [
            (0, "main, block 0, instruction 0"),
            (2, "main, block 2, instruction 0"),
            (3, "main, block 2, instruction 1"),
            (4, "main, block 2, instruction 2"),
        ] {
            m.pc = Some(pc);
            assert_eq!(m.snapshot().pc.as_deref(), Some(text));
        }
        m.pc = Some(0);
        assert_eq!(m.run_to_completion().expect("runs").ret_int, 3);
    }
}
