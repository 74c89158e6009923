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
//! * every instruction slot gets a [`DecodedInst`] — a `Copy` record with
//!   an indirect **exec function pointer** ([`ExecFn`]) instead of a match
//!   on the kind, its FIFO demand (`need`) and interlock register set
//!   (`read_mask`) precomputed, and its operands resolved to flat array
//!   slots ([`Src`]/[`Dst`]);
//! * immediate-only subexpressions are folded (integer folds skip
//!   division by zero so the runtime fault is preserved; float folds use
//!   the identical `f64` operations, so results stay bit-identical);
//! * control flow is resolved: branch targets become block indices,
//!   `Call` targets become function indices, and `LoadAddr` symbols are
//!   folded to absolute addresses;
//! * every dispatched instruction gets the one handler that executes it.
//!   A form no handler can execute (a register of the other unit's
//!   class, a write to register 1, the address of a symbol that is not
//!   data, a call of a data symbol) fails the decode, so
//!   [`WmMachine::new`] refuses the module before it runs.
//!
//! The unit instruction queues hold `u32` indices into this table (a
//! dispatched instruction is identified by its slot, not by a clone), and
//! [`DecodedInst::kind`] points back at the module's original
//! [`InstKind`] for traces, fault reports and the stream handlers.
//!
//! Since both engines share these tables, comparing the engines cannot
//! catch a decode error. [`DecodedProgram::verify_roundtrip`] can: it
//! maps every slot back to the original instruction without the
//! decoder's operand helpers.

use std::collections::HashMap;

use wm_ir::{
    BinOp, CmpOp, DataFifo, GlobalKind, InstKind, Module, Operand, RExpr, Reg, RegClass, SymId,
    UnOp, Width,
};

use crate::compiled::{
    exec_assign, exec_compare, exec_crecv, exec_csend, exec_loadaddr, exec_not_dispatched,
    exec_sstop, exec_stream, exec_wload, exec_wstore,
};
use crate::machine::{dispatch_class, fifo_need, Exec, SimError, WmMachine};

/// An exec handler for one decoded instruction, called instead of a match
/// on its [`InstKind`].
pub(crate) type ExecFn =
    for<'a, 'm> fn(&'a mut WmMachine<'m>, &DecodedInst<'m>) -> Result<Exec, SimError>;

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
    /// No operand slots: stream configuration and `Sstop`, whose handlers
    /// read the instruction itself (they run once per loop, not per
    /// element), and every instruction the IFU or the VEU executes.
    None,
}

/// What the IFU does with this instruction, with control-flow targets
/// pre-resolved to block / function indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum IfuOp {
    Nop,
    Jump {
        block: u32,
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
    CallFunc {
        func: u32,
    },
    CallBuiltin {
        callee: SymId,
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
}

/// One pre-decoded instruction slot. `Copy` so the hot loop can lift it
/// out of the table before calling the exec handler with `&mut` machine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInst<'m> {
    /// The module's original instruction (for traces, fault reports,
    /// deadlock diagnosis and the stream handlers).
    pub(crate) kind: &'m InstKind,
    /// The exec handler the unit calls instead of matching on `kind`.
    pub(crate) exec: ExecFn,
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

/// Per-function block table: `(start, len)` ranges into the flat
/// instruction table, in block layout order.
#[derive(Debug)]
pub(crate) struct DecFunc {
    pub(crate) blocks: Vec<(u32, u32)>,
}

/// The whole module, pre-decoded. Built once by [`WmMachine::new`]; both
/// engines issue from it.
#[derive(Debug)]
pub struct DecodedProgram<'m> {
    pub(crate) funcs: Vec<DecFunc>,
    pub(crate) insts: Vec<DecodedInst<'m>>,
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
        let mut insts = Vec::new();
        let mut funcs = Vec::with_capacity(module.functions.len());
        for f in &module.functions {
            let mut blocks = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                let start = insts.len() as u32;
                for inst in &b.insts {
                    insts.push(decode_inst(module, f, addrs, &inst.kind)?);
                }
                blocks.push((start, b.insts.len() as u32));
            }
            funcs.push(DecFunc { blocks });
        }
        Ok(DecodedProgram { funcs, insts })
    }

    /// Number of decoded instruction slots.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Is the table empty (a module with no function bodies)?
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Check that the decode tables round-trip to the original RTL: every
    /// decoded operand slot must map back to the operand at the same
    /// position in the original instruction, every folded immediate must
    /// equal the fold of the original immediates, every pre-resolved
    /// control target must match a fresh label/symbol resolution, and the
    /// precomputed FIFO demands and interlock masks must be the ones the
    /// operand slots imply. Returns the number of instruction slots
    /// checked.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch, naming the function and the
    /// offending instruction.
    pub fn verify_roundtrip(&self, module: &Module) -> Result<usize, String> {
        if self.funcs.len() != module.functions.len() {
            return Err(format!(
                "function count mismatch: decoded {} vs module {}",
                self.funcs.len(),
                module.functions.len()
            ));
        }
        let mut checked = 0usize;
        for (fi, f) in module.functions.iter().enumerate() {
            let df = &self.funcs[fi];
            if df.blocks.len() != f.blocks.len() {
                return Err(format!(
                    "{}: block count mismatch: decoded {} vs module {}",
                    f.name,
                    df.blocks.len(),
                    f.blocks.len()
                ));
            }
            for (bi, b) in f.blocks.iter().enumerate() {
                let (start, len) = df.blocks[bi];
                if len as usize != b.insts.len() {
                    return Err(format!(
                        "{} block {bi}: length mismatch: decoded {len} vs module {}",
                        f.name,
                        b.insts.len()
                    ));
                }
                for (ii, inst) in b.insts.iter().enumerate() {
                    let d = &self.insts[start as usize + ii];
                    verify_inst(module, f, d, &inst.kind).map_err(|e| {
                        format!("{} block {bi} inst {ii} `{}`: {e}", f.name, inst.kind)
                    })?;
                    checked += 1;
                }
            }
        }
        Ok(checked)
    }
}

/// Decode one instruction slot.
fn decode_inst<'m>(
    module: &'m Module,
    func: &'m wm_ir::Function,
    addrs: &HashMap<SymId, i64>,
    kind: &'m InstKind,
) -> Result<DecodedInst<'m>, SimError> {
    let bi = |l: wm_ir::Label| func.block_index(l) as u32;
    // The cross-unit-conversion Assign pattern is tested *before* the
    // generic dispatch arm: the IFU executes those conversions itself.
    let ifu = match kind {
        InstKind::Nop => IfuOp::Nop,
        InstKind::Jump { target } => IfuOp::Jump { block: bi(*target) },
        InstKind::Branch {
            class,
            when,
            target,
            els,
        } => IfuOp::Branch {
            class: *class,
            when: *when,
            t: bi(*target),
            e: bi(*els),
        },
        InstKind::BranchStream { fifo, target, els } => IfuOp::BranchStream {
            fifo: *fifo,
            t: bi(*target),
            e: bi(*els),
        },
        InstKind::BranchVec { target, els } => IfuOp::BranchVec {
            t: bi(*target),
            e: bi(*els),
        },
        InstKind::Call { callee, .. } => match &module.global(*callee).kind {
            GlobalKind::Func(fi) => IfuOp::CallFunc { func: *fi as u32 },
            GlobalKind::Builtin => IfuOp::CallBuiltin { callee: *callee },
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
        | InstKind::VecBroadcast { .. } => IfuOp::DispatchVeu,
        _ => IfuOp::Dispatch,
    };
    if ifu != IfuOp::Dispatch {
        // IFU-handled or VEU instructions never reach a scalar unit's
        // issue logic
        return Ok(DecodedInst {
            kind,
            exec: exec_not_dispatched,
            need: [0, 0],
            read_mask: 0,
            class: RegClass::Int,
            payload: Payload::None,
            ifu,
        });
    }
    let class = dispatch_class(kind);
    let need = fifo_need(class, kind);
    let (exec, payload) = decode_exec(module, class, addrs, kind)?;
    Ok(DecodedInst {
        kind,
        exec,
        need: [need[0] as u8, need[1] as u8],
        read_mask: read_mask(class, kind),
        class,
        payload,
        ifu,
    })
}

/// Decode the execution payload of an instruction the `class` unit
/// executes, and pick the one handler that executes it.
fn decode_exec(
    module: &Module,
    class: RegClass,
    addrs: &HashMap<SymId, i64>,
    kind: &InstKind,
) -> Result<(ExecFn, Payload), SimError> {
    Ok(match kind {
        InstKind::Assign { dst, src } => {
            let src = decode_expr(class, src)?;
            let executed_dst = if !dst.is_fifo() && !dst.is_zero() {
                dst.phys_num()
            } else {
                None
            };
            (
                exec_assign as ExecFn,
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
                exec_loadaddr,
                Payload::LoadAddr {
                    dst: dst_slot(class, *dst)?,
                    addr: base + disp,
                    executed_dst: dst.phys_num(),
                },
            )
        }
        InstKind::Compare { op, a, b, .. } => (
            exec_compare,
            Payload::Compare {
                op: *op,
                a: src_slot(class, *a)?,
                b: src_slot(class, *b)?,
            },
        ),
        InstKind::WLoad { fifo, addr, width } => (
            exec_wload,
            Payload::WLoad {
                fifo: *fifo,
                addr: decode_expr(class, addr)?,
                width: *width,
            },
        ),
        InstKind::WStore { unit, addr, width } => (
            exec_wstore,
            Payload::WStore {
                unit: *unit,
                addr: decode_expr(class, addr)?,
                width: *width,
            },
        ),
        InstKind::ChanSend { peer, src, .. } => (
            exec_csend,
            Payload::ChanSend {
                peer: *peer,
                src: src_slot(class, *src)?,
            },
        ),
        InstKind::ChanRecv { peer, dst } => (
            exec_crecv,
            Payload::ChanRecv {
                peer: *peer,
                dst: dst_slot(class, *dst)?,
            },
        ),
        InstKind::StreamStop { .. } => (exec_sstop, Payload::None),
        // The eight stream configurations (`dispatch_class` admits no
        // other kind). They read their operands once per loop, through
        // the same slots, so an operand no slot can hold is refused here.
        _ => {
            for r in kind.uses() {
                src_slot(class, Operand::Reg(r))?;
            }
            (exec_stream, Payload::None)
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
/// runtime divide fault is preserved, not folded away. Float folds apply
/// the identical `f64` operation `eval_bin` would.
fn fold_bin(op: BinOp, a: Src, b: Src) -> DecExpr {
    if let (Src::Imm(x), Src::Imm(y)) = (a, b) {
        if !op.is_float() {
            if let Some(v) = op.fold_int(x, y) {
                return DecExpr::Op(Src::Imm(v));
            }
        }
    }
    if let (Src::FImm(x), Src::FImm(y)) = (a, b) {
        if op.is_float() {
            let v = match op {
                BinOp::FAdd => x + y,
                BinOp::FSub => x - y,
                BinOp::FMul => x * y,
                BinOp::FDiv => x / y,
                _ => unreachable!("is_float covers exactly the F ops"),
            };
            return DecExpr::Op(Src::FImm(v));
        }
    }
    DecExpr::Bin(op, a, b)
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
        Payload::None => return None,
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

/// Verify one decoded slot against its original instruction.
fn verify_inst(
    module: &Module,
    func: &wm_ir::Function,
    d: &DecodedInst<'_>,
    kind: &InstKind,
) -> Result<(), String> {
    if !std::ptr::eq(d.kind, kind) {
        return Err("decoded slot does not point at its module instruction".into());
    }
    // Control-flow targets must match a fresh resolution.
    let bi = |l: wm_ir::Label| func.block_index(l) as u32;
    match (&d.ifu, kind) {
        (IfuOp::Jump { block }, InstKind::Jump { target }) if *block == bi(*target) => {}
        (
            IfuOp::Branch { class, when, t, e },
            InstKind::Branch {
                class: c2,
                when: w2,
                target,
                els,
            },
        ) if class == c2 && when == w2 && *t == bi(*target) && *e == bi(*els) => {}
        (
            IfuOp::BranchStream { fifo, t, e },
            InstKind::BranchStream {
                fifo: f2,
                target,
                els,
            },
        ) if fifo == f2 && *t == bi(*target) && *e == bi(*els) => {}
        (IfuOp::BranchVec { t, e }, InstKind::BranchVec { target, els })
            if *t == bi(*target) && *e == bi(*els) => {}
        (IfuOp::CallFunc { func: fi }, InstKind::Call { callee, .. }) if matches!(&module.global(*callee).kind, GlobalKind::Func(f) if *f as u32 == *fi) =>
            {}
        (IfuOp::CallBuiltin { callee }, InstKind::Call { callee: c2, .. }) if callee == c2 => {}
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
        (IfuOp::DispatchVeu, _) | (IfuOp::Dispatch, _) => {}
        other => return Err(format!("IFU op does not round-trip: {other:?}")),
    }
    if d.ifu != IfuOp::Dispatch {
        return Ok(());
    }
    let class = dispatch_class(kind);
    if d.class != class {
        return Err(format!("class mismatch: {:?} vs {:?}", d.class, class));
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
    use wm_opt::{optimize_generic, optimize_wm, OptOptions};
    use wm_target::{allocate_registers, expand_wm, TargetKind};

    use super::*;
    use crate::{WmConfig, WmMachine};

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
        for (i, _, _) in slots {
            for bit in 0..32 {
                m.prog.insts[i].read_mask ^= 1 << bit;
                let err = m.prog.verify_roundtrip(&module).unwrap_err();
                assert!(err.contains("interlock mask mismatch"), "{err}");
                m.prog.insts[i].read_mask ^= 1 << bit;
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
        for (i, _, need) in slots {
            for fifo in 0..2 {
                for wrong in [need[fifo] + 1, need[fifo].wrapping_sub(1)] {
                    m.prog.insts[i].need[fifo] = wrong;
                    let err = m.prog.verify_roundtrip(&module).unwrap_err();
                    assert!(err.contains("FIFO demand mismatch"), "{err}");
                }
                m.prog.insts[i].need = need;
            }
        }
        m.prog.verify_roundtrip(&module).expect("restored");
    }

    #[test]
    fn a_dropped_payload_fails_verification() {
        let module = module();
        let mut m = WmMachine::new(&module, &WmConfig::default()).expect("builds");
        let i = (0..m.prog.insts.len())
            .find(|&i| matches!(m.prog.insts[i].payload, Payload::Assign { .. }))
            .expect("an Assign decoded");
        m.prog.insts[i].payload = Payload::None;
        let err = m.prog.verify_roundtrip(&module).unwrap_err();
        assert!(err.contains("payload"), "{err}");
    }
}
