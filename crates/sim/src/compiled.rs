//! The issue path: threaded dispatch over pre-decoded tables, and the
//! one step function both engines run.
//!
//! [`WmMachine::step`] simulates one cycle. The IEU and FEU issue
//! [`DecodedInst`] records, read in place from the run's shared handle on
//! the table: the FIFO demand and interlock register set are precomputed
//! bit tests, operands are flat slots, and the instruction's behavior is
//! an indirect call through its exec function pointer — no match on the
//! instruction kind in the hot loop. The commonest operand shapes (a
//! move, integer `reg op imm` and `reg op reg`, an integer compare) have
//! handlers of their own that read the register file directly. The IFU
//! fetches `insts[pc]` from the same table: the program counter is one
//! slot index, fallthrough is `pc + 1`, and branch targets and call
//! destinations are slots. Scalar loads and stores run the shared paths
//! ([`WmMachine::exec_load`], [`WmMachine::queue_store`]) with the
//! address evaluated over the decoded expression, and FIFO reads dequeue
//! through the shared [`WmMachine::pop_fifo`]. Every instruction a unit
//! executes has exactly one handler here; a module with a form none of
//! them can execute never gets a machine (see [`crate::decode`]).
//!
//! The two engines differ only in the step's *skips*, the work the
//! compiled engine avoids because nothing needs it. `step_with` selects
//! them once per call, as its const parameter:
//!
//! * an empty IEU, FEU or VEU records `Idle` without entering its issue
//!   path;
//! * when every SCU is idle and inactive, the SCU phase sleeps until a
//!   stream configuration, and the idle cycles are charged in one sum
//!   when the SCUs wake (or the run ends);
//! * an IFU stalled on an empty condition-code FIFO parks there and
//!   re-records the stall without walking fetch;
//! * after a cycle in which no unit made progress, the fast-forward tail
//!   (`fastforward.rs`) jumps to the next event, accounting the skipped
//!   span in bulk;
//! * the FIFO occupancy histograms come from change points, not from
//!   per-cycle samples.
//!
//! [`Engine::Cycle`](crate::Engine::Cycle) turns every skip off and
//! samples every FIFO every cycle. The engine comparisons
//! (`tests/engine_equiv.rs`, the differential fuzzer's full-`Stats`
//! property, and `perf --check` of one engine's run against the other's)
//! therefore check exactly the skips and the change-point accounting
//! against plain per-cycle stepping. They cannot see a decode error,
//! which both engines share; the decode round-trip verifier
//! ([`crate::DecodedProgram::verify_roundtrip`]), the per-leg
//! `perf --check` pins and the fuzzer's result oracles catch those.
//!
//! The step counts each unit's cycles and retirements once, in
//! [`crate::Stats`]; the cycle count, instruction counts and IFU stall
//! cycles of [`crate::SimStats`] are read off it when the run ends.

use wm_ir::{InstKind, RegClass};

use crate::config::IO_LATENCY;
use crate::decode::{
    convert_source, DecExpr, DecodedInst, DecodedProgram, Dst, IfuOp, Payload, Src,
};
use crate::fault::{FaultKind, FaultUnit};
use crate::machine::{attach_inst, ChanMsg, Exec, SimError, Val, WmMachine, FIFO_CC, FIFO_OUT};
use crate::stats::{Outcome, Stall, UnitName};

impl<'m> WmMachine<'m> {
    /// Advance one cycle over `prog`, the machine's own decoded table.
    /// `SKIP` turns on the compiled engine's skips (see the module docs);
    /// the reference engine runs with it off.
    pub(crate) fn step_with<const SKIP: bool>(
        &mut self,
        prog: &DecodedProgram<'m>,
    ) -> Result<(), SimError> {
        self.cycle += 1;
        self.ports_used = 0;
        self.deliver_memory()?;
        self.unit_step::<SKIP>(prog, RegClass::Int)?;
        self.unit_step::<SKIP>(prog, RegClass::Flt)?;
        if SKIP && self.veu.busy == 0 && self.veu.iq.is_empty() {
            self.perf.veu.idle += 1;
            self.last_outcomes.veu = Outcome::Idle;
        } else {
            self.veu_step(prog);
        }
        if !self.store_q.is_empty() {
            self.drain_stores()?;
        }
        if SKIP {
            self.scu_step_sleeping()?;
        } else {
            self.scu_step()?;
        }
        self.ifu_step::<SKIP>(prog)?;
        if SKIP {
            self.sample_perf();
            // only a cycle without progress can start a skippable span
            if self.last_progress != self.cycle {
                self.fast_forward();
            }
        } else {
            self.sample_fifos();
            self.sample_perf();
            debug_assert!(
                self.scus_asleep.is_none() && self.scu_idle_pending == 0 && self.ifu_park.is_none(),
                "the reference engine skipped work"
            );
        }
        Ok(())
    }

    /// The SCU phase, skipped while the SCUs sleep. They fall asleep after
    /// a cycle in which every SCU idled and none is active: from then on
    /// each would idle again every cycle until a stream configuration
    /// claims a slot.
    fn scu_step_sleeping(&mut self) -> Result<(), SimError> {
        if self.scus_asleep == Some(self.scu_seq) {
            self.scu_idle_pending += 1;
            return Ok(());
        }
        self.wake_scus();
        self.scu_step()?;
        if self.scus.iter().all(|s| !s.active)
            && self.last_outcomes.scus.iter().all(|&o| o == Outcome::Idle)
        {
            self.scus_asleep = Some(self.scu_seq);
        }
        Ok(())
    }

    /// Charge every SCU with the idle cycles it slept through.
    pub(crate) fn wake_scus(&mut self) {
        self.scus_asleep = None;
        let n = std::mem::take(&mut self.scu_idle_pending);
        if n > 0 {
            for s in &mut self.perf.scus {
                s.unit.idle += n;
            }
        }
    }

    /// One cycle of the `class` unit, attributed to its outcome.
    fn unit_step<const SKIP: bool>(
        &mut self,
        prog: &DecodedProgram<'m>,
        class: RegClass,
    ) -> Result<(), SimError> {
        let u = self.unit(class);
        // an empty unit skips the call into the issue path
        let outcome = if SKIP && u.busy == 0 && u.iq.is_empty() {
            Outcome::Idle
        } else {
            self.unit_issue(prog, class)?
        };
        let (perf, last) = match class {
            RegClass::Int => (&mut self.perf.ieu, &mut self.last_outcomes.ieu),
            RegClass::Flt => (&mut self.perf.feu, &mut self.last_outcomes.feu),
        };
        perf.record(outcome);
        *last = outcome;
        Ok(())
    }

    /// Issue the `class` unit's head instruction if it can issue this
    /// cycle. The record is read in place: `prog` is not borrowed from
    /// the machine, so the exec handler can take `&mut self`.
    fn unit_issue(
        &mut self,
        prog: &DecodedProgram<'m>,
        class: RegClass,
    ) -> Result<Outcome, SimError> {
        let u = self.unit(class);
        if u.busy > 0 {
            self.unit_mut(class).busy -= 1;
            return Ok(Outcome::Active);
        }
        let Some(&idx) = u.iq.front() else {
            return Ok(Outcome::Idle);
        };
        let d = &prog.insts[idx as usize];
        // paired-ALU dependency interlock: the previous instruction's
        // result is not available to the immediately following one
        if let Some(prev) = u.prev_dst {
            if u.prev_cycle + 1 == self.cycle && d.read_mask & (1u32 << prev) != 0 {
                return Ok(Outcome::Stall(Stall::Interlock)); // one-cycle bubble
            }
        }
        // FIFO data availability for every dequeue in the instruction. A
        // latched load already performed its dequeues when its address
        // was computed; its retry must not wait on the FIFO it drained.
        if u.latched_load.is_none()
            && ((d.need[0] as usize) > u.ins[0].q.len() || (d.need[1] as usize) > u.ins[1].q.len())
        {
            return Ok(Outcome::Stall(Stall::FifoEmpty));
        }
        match (d.exec)(self, d) {
            Ok(Exec::Retired(dst)) => Ok(self.retire_head(class, d.kind, dst)),
            Ok(Exec::Stall(s)) => Ok(Outcome::Stall(s)), // retry next cycle
            Err(e) => Err(attach_inst(e, d.kind)),
        }
    }

    /// Fetch and dispatch. Control transfers are free (bounded per cycle);
    /// one instruction is dispatched to a unit queue per cycle.
    fn ifu_step<const SKIP: bool>(&mut self, prog: &DecodedProgram<'m>) -> Result<(), SimError> {
        if let (true, Some(class)) = (SKIP, self.ifu_park) {
            // Only the IFU moves the pc and sets the hold, so while the
            // FIFO stays empty the walk would stop at the same jump.
            if self.unit(class).cc.is_empty() && self.cycle >= self.ifu_hold {
                self.perf.ifu.record(Outcome::Stall(Stall::CcEmpty));
                return Ok(());
            }
            self.ifu_park = None;
        }
        let outcome = self.ifu_fetch::<SKIP>(prog)?;
        self.perf.ifu.record(outcome);
        self.last_outcomes.ifu = outcome;
        Ok(())
    }

    /// One IFU cycle, attributing it: a cycle that performed any transfer,
    /// dispatch or IFU-executed instruction is active; otherwise the
    /// reason the fetch could not proceed is named.
    fn ifu_fetch<const SKIP: bool>(
        &mut self,
        prog: &DecodedProgram<'m>,
    ) -> Result<Outcome, SimError> {
        if self.cycle < self.ifu_hold {
            return Ok(Outcome::Stall(Stall::Sync));
        }
        let mut transfers = 0;
        // a stall after free transfers still did useful work this cycle
        let stall_after = |transfers: i32, s: Stall| {
            if transfers > 0 {
                Outcome::Active
            } else {
                Outcome::Stall(s)
            }
        };
        loop {
            let Some(pc) = self.pc else {
                return Ok(if transfers > 0 {
                    Outcome::Active
                } else {
                    Outcome::Idle
                });
            };
            let d = &prog.insts[pc as usize];
            // the target slot of a free transfer of control; every other
            // action ends the cycle's fetch
            let to = match d.ifu {
                IfuOp::Nop => {
                    self.pc = Some(pc + 1);
                    continue;
                }
                IfuOp::Jump { to } => {
                    self.record(UnitName::Ifu, d.kind);
                    to
                }
                IfuOp::Branch { class, when, t, e } => {
                    self.fifo_changing(class, FIFO_CC);
                    let Some(cond) = self.unit_mut(class).cc.pop_front() else {
                        if SKIP && transfers == 0 {
                            self.ifu_park = Some(class);
                        }
                        // stall until the compare executes
                        return Ok(stall_after(transfers, Stall::CcEmpty));
                    };
                    if cond == when {
                        t
                    } else {
                        e
                    }
                }
                IfuOp::BranchStream { fifo, t, e } => {
                    let Some(count) = self.dispatch.get_mut(fifo) else {
                        // the stream instruction has not executed yet
                        return Ok(stall_after(transfers, Stall::StreamWait));
                    };
                    *count -= 1;
                    let taken = *count > 0;
                    if !taken {
                        self.dispatch.remove(fifo);
                    }
                    if taken {
                        t
                    } else {
                        e
                    }
                }
                IfuOp::BranchVec { t, e } => {
                    let Some(count) = self.dispatch_vec.as_mut() else {
                        return Ok(stall_after(transfers, Stall::StreamWait));
                    };
                    *count -= 1;
                    let taken = *count > 0;
                    if !taken {
                        self.dispatch_vec = None;
                    }
                    if taken {
                        t
                    } else {
                        e
                    }
                }
                IfuOp::CallFunc { entry } => {
                    self.ret_stack.push(pc + 1);
                    self.pc = Some(entry);
                    self.perf.ifu.retired += 1;
                    self.stats.calls += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active); // calls consume the fetch slot
                }
                IfuOp::CallBuiltin { builtin } => {
                    // builtins read register state directly: the units
                    // must be synchronized first
                    if !self.quiescent() {
                        return Ok(stall_after(transfers, Stall::Sync));
                    }
                    self.exec_builtin(builtin);
                    self.ifu_hold = self.cycle + IO_LATENCY;
                    self.advance();
                    self.perf.ifu.retired += 1;
                    self.stats.calls += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                IfuOp::Ret => {
                    self.pc = self.ret_stack.pop();
                    self.perf.ifu.retired += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                // cross-unit conversions are executed by the IFU after
                // synchronizing the execution units
                IfuOp::Convert { op, a, class, dst } => {
                    if !self.quiescent() {
                        return Ok(stall_after(transfers, Stall::Sync));
                    }
                    let src_class = convert_source(op);
                    // a forwarded FIFO dequeue must wait for its datum
                    if let Src::Fifo(n) = a {
                        if self.unit(src_class).ins[n as usize].q.is_empty() {
                            return Ok(stall_after(transfers, Stall::FifoEmpty));
                        }
                    }
                    let v = read_slot(self, src_class, a)?;
                    let v = self.eval_un(op, v)?;
                    write_dst(self, class, dst, v);
                    self.advance();
                    self.perf.ifu.retired += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                IfuOp::DispatchVeu => {
                    if self.veu.iq.len() >= self.config.iq_capacity {
                        return Ok(stall_after(transfers, Stall::IqFull));
                    }
                    self.veu.iq.push_back(pc);
                    self.advance();
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                // everything else is dispatched to an execution unit
                IfuOp::Dispatch => {
                    if self.unit(d.class).iq.len() >= self.config.iq_capacity {
                        return Ok(stall_after(transfers, Stall::IqFull));
                    }
                    self.unit_mut(d.class).iq.push_back(pc);
                    self.advance();
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                IfuOp::End { func } => {
                    return Err(SimError::BadProgram(format!(
                        "control fell off the end of function {}",
                        self.module.functions[func as usize].name
                    )));
                }
            };
            self.pc = Some(to);
            self.perf.ifu.retired += 1;
            self.last_progress = self.cycle;
            transfers += 1;
            if transfers > 16 {
                return Ok(Outcome::Active); // runaway control; consume the cycle
            }
        }
    }
}

// ---- exec handlers: one per instruction kind a unit executes ----

/// Read one decoded source slot of the `class` unit: every operand read
/// goes through here. FIFO slots dequeue through
/// [`WmMachine::pop_fifo`], where a poisoned datum faults.
#[inline]
pub(crate) fn read_slot(m: &mut WmMachine<'_>, class: RegClass, s: Src) -> Result<Val, SimError> {
    match s {
        Src::Imm(v) => Ok(Val::I(v)),
        Src::FImm(v) => Ok(Val::F(v)),
        Src::Zero => Ok(match class {
            RegClass::Int => Val::I(0),
            RegClass::Flt => Val::F(0.0),
        }),
        Src::Reg(n) => Ok(m.unit(class).regs[n as usize]),
        Src::Fifo(n) => m.pop_fifo(class, n as usize),
    }
}

/// Write a decoded destination slot of the `class` unit: every register
/// write goes through here (register 1 has no slot, so this cannot fail).
#[inline]
fn write_dst(m: &mut WmMachine<'_>, class: RegClass, d: Dst, v: Val) {
    match d {
        Dst::Zero => {} // writes to the zero register are discarded
        Dst::Out => {
            m.fifo_changing(class, FIFO_OUT);
            m.unit_mut(class).out.push_back(v);
        }
        Dst::Reg(n) => m.unit_mut(class).regs[n as usize] = v,
    }
}

/// Evaluate a decoded expression: FIFO dequeues happen in a, b, c order,
/// and division by zero faults from `eval_bin`.
fn eval_dec<'m>(m: &mut WmMachine<'m>, class: RegClass, e: &DecExpr) -> Result<Val, SimError> {
    match *e {
        DecExpr::Op(a) => read_slot(m, class, a),
        DecExpr::Un(op, a) => {
            let v = read_slot(m, class, a)?;
            m.eval_un(op, v)
        }
        DecExpr::Bin(op, a, b) => {
            let va = read_slot(m, class, a)?;
            let vb = read_slot(m, class, b)?;
            m.eval_bin(class, op, va, vb)
        }
        DecExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => {
            let va = read_slot(m, class, a)?;
            let vb = read_slot(m, class, b)?;
            let vab = m.eval_bin(class, inner, va, vb)?;
            let vc = read_slot(m, class, c)?;
            m.eval_bin(class, outer, vab, vc)
        }
    }
}

/// Side-effect-free preview of a decoded address expression; `None` when
/// it reads a FIFO (whose dequeue cannot be previewed) or cannot fold
/// (decode folds only immediate pairs that `fold_int` accepts, so a fold
/// never turns an unanalyzable address into an analyzable one or vice
/// versa).
fn eval_dec_pure(m: &WmMachine<'_>, class: RegClass, e: &DecExpr) -> Option<i64> {
    let read = |s: Src| -> Option<i64> {
        match s {
            Src::Imm(v) => Some(v),
            Src::FImm(_) | Src::Fifo(_) => None,
            Src::Zero => Some(0),
            Src::Reg(n) => Some(m.unit(class).regs[n as usize].as_i()),
        }
    };
    match *e {
        DecExpr::Op(a) => read(a),
        DecExpr::Un(..) => None,
        DecExpr::Bin(op, a, b) => op.fold_int(read(a)?, read(b)?),
        DecExpr::Dual {
            inner,
            a,
            b,
            outer,
            c,
        } => outer.fold_int(inner.fold_int(read(a)?, read(b)?)?, read(c)?),
    }
}

/// Decoded `Assign` of any shape: output-FIFO capacity check, evaluate,
/// write.
pub(crate) fn exec_assign<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Assign {
        dst,
        src,
        executed_dst,
    } = d.payload
    else {
        unreachable!("exec_assign wired to a non-Assign payload");
    };
    if out_full(m, d.class, dst) {
        return Ok(Exec::Stall(Stall::OutFull));
    }
    let v = eval_dec(m, d.class, &src)?;
    write_dst(m, d.class, dst, v);
    Ok(Exec::Retired(executed_dst))
}

/// Does `dst` name the `class` unit's output FIFO, and is it full? An
/// instruction writing it stalls then.
#[inline]
fn out_full(m: &WmMachine<'_>, class: RegClass, dst: Dst) -> bool {
    dst == Dst::Out && m.unit(class).out.len() >= m.config.fifo_capacity
}

/// `Assign` of one slot: a move of a register, an immediate, a FIFO
/// datum or zero.
pub(crate) fn exec_assign_op<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Assign {
        dst,
        src: DecExpr::Op(a),
        executed_dst,
    } = d.payload
    else {
        unreachable!("exec_assign_op wired to another shape");
    };
    if out_full(m, d.class, dst) {
        return Ok(Exec::Stall(Stall::OutFull));
    }
    let v = read_slot(m, d.class, a)?;
    write_dst(m, d.class, dst, v);
    Ok(Exec::Retired(executed_dst))
}

/// Integer `Assign` of `reg op imm` whose fold cannot fault.
pub(crate) fn exec_assign_ri<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Assign {
        dst,
        src: DecExpr::Bin(op, Src::Reg(a), Src::Imm(b)),
        executed_dst,
    } = d.payload
    else {
        unreachable!("exec_assign_ri wired to another shape");
    };
    if out_full(m, RegClass::Int, dst) {
        return Ok(Exec::Stall(Stall::OutFull));
    }
    let x = m.ieu.regs[a as usize].as_i();
    let v = op
        .fold_int(x, b)
        .expect("decode admits only folds that cannot fault");
    write_dst(m, RegClass::Int, dst, Val::I(v));
    Ok(Exec::Retired(executed_dst))
}

/// Integer `Assign` of `reg op reg` with no divide or remainder.
pub(crate) fn exec_assign_rr<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Assign {
        dst,
        src: DecExpr::Bin(op, Src::Reg(a), Src::Reg(b)),
        executed_dst,
    } = d.payload
    else {
        unreachable!("exec_assign_rr wired to another shape");
    };
    if out_full(m, RegClass::Int, dst) {
        return Ok(Exec::Stall(Stall::OutFull));
    }
    let (x, y) = (m.ieu.regs[a as usize].as_i(), m.ieu.regs[b as usize].as_i());
    let v = op.fold_int(x, y).expect("decode admits no divide");
    write_dst(m, RegClass::Int, dst, Val::I(v));
    Ok(Exec::Retired(executed_dst))
}

/// Decoded `LoadAddr`: the address was folded at decode time; the
/// llh/sll pair still occupies the unit for an extra cycle.
pub(crate) fn exec_loadaddr<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::LoadAddr {
        dst,
        addr,
        executed_dst,
    } = d.payload
    else {
        unreachable!("exec_loadaddr wired to a non-LoadAddr payload");
    };
    write_dst(m, d.class, dst, Val::I(addr));
    // the llh/sll pair is two 32-bit instructions
    m.unit_mut(d.class).busy = 1;
    Ok(Exec::Retired(executed_dst))
}

/// Decoded `Compare`: CC-FIFO capacity check, evaluate, push.
pub(crate) fn exec_compare<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Compare { op, a, b } = d.payload else {
        unreachable!("exec_compare wired to a non-Compare payload");
    };
    if m.unit(d.class).cc.len() >= m.config.cc_capacity {
        return Ok(Exec::Stall(Stall::CcFull));
    }
    let va = read_slot(m, d.class, a)?;
    let vb = read_slot(m, d.class, b)?;
    let r = match d.class {
        RegClass::Int => op.eval_int(va.as_i(), vb.as_i()),
        RegClass::Flt => op.eval_flt(va.as_f(), vb.as_f()),
    };
    m.fifo_changing(d.class, FIFO_CC);
    m.unit_mut(d.class).cc.push_back(r);
    Ok(Exec::Retired(None))
}

/// Integer `Compare` of a register with a register or an immediate.
pub(crate) fn exec_compare_int<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::Compare {
        op,
        a: Src::Reg(a),
        b,
    } = d.payload
    else {
        unreachable!("exec_compare_int wired to another shape");
    };
    if m.ieu.cc.len() >= m.config.cc_capacity {
        return Ok(Exec::Stall(Stall::CcFull));
    }
    let y = match b {
        Src::Imm(v) => v,
        Src::Reg(n) => m.ieu.regs[n as usize].as_i(),
        _ => unreachable!("exec_compare_int wired to another shape"),
    };
    let r = op.eval_int(m.ieu.regs[a as usize].as_i(), y);
    m.fifo_changing(RegClass::Int, FIFO_CC);
    m.ieu.cc.push_back(r);
    Ok(Exec::Retired(None))
}

/// Decoded `WLoad`: the shared load path, previewing the address over
/// the decoded expression.
pub(crate) fn exec_wload<'m>(m: &mut WmMachine<'m>, d: &DecodedInst<'m>) -> Result<Exec, SimError> {
    let Payload::WLoad { fifo, addr, width } = d.payload else {
        unreachable!("exec_wload wired to a non-WLoad payload");
    };
    m.exec_load(
        d.class,
        fifo,
        width,
        d.need != [0, 0],
        |m| eval_dec_pure(m, d.class, &addr),
        // A successful integer-unit preview read no FIFO and every fold
        // succeeded, so re-evaluating is side-effect-free, cannot fault
        // and produces the same address: reuse it. Float-unit address
        // arithmetic is not previewable that way, so it always
        // re-evaluates.
        |m, previewed| match previewed {
            Some(a) if d.class == RegClass::Int => Ok(a),
            _ => Ok(eval_dec(m, d.class, &addr)?.as_i()),
        },
    )
}

/// Decoded `WStore`: the shared store-queue path.
pub(crate) fn exec_wstore<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    let Payload::WStore { unit, addr, width } = d.payload else {
        unreachable!("exec_wstore wired to a non-WStore payload");
    };
    m.queue_store(unit, width, |m| Ok(eval_dec(m, d.class, &addr)?.as_i()))
}

/// Stream configuration, any of the eight kinds: claim an SCU, or stall
/// while none is free or the stream's target is busy.
pub(crate) fn exec_stream<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    if m.configure_stream(d.kind)? {
        Ok(Exec::Retired(None))
    } else {
        Ok(Exec::Stall(Stall::ScuBusy))
    }
}

/// `Sstop`: stop every stream on the FIFO.
pub(crate) fn exec_sstop<'m>(m: &mut WmMachine<'m>, d: &DecodedInst<'m>) -> Result<Exec, SimError> {
    let InstKind::StreamStop { fifo } = *d.kind else {
        unreachable!("exec_sstop wired to a non-Sstop instruction");
    };
    // stopping an out-stream must not strand enqueued data: wait until
    // the SCU has drained the output FIFO
    let draining = m
        .scus
        .iter()
        .any(|s| s.active && !s.dir_in && s.fifo == fifo)
        && !m.unit(fifo.class).out.is_empty();
    if draining {
        return Ok(Exec::Stall(Stall::ScuBusy));
    }
    m.stop_stream(fifo);
    Ok(Exec::Retired(None))
}

/// `Csend`: stage one value toward the peer tile.
pub(crate) fn exec_csend<'m>(m: &mut WmMachine<'m>, d: &DecodedInst<'m>) -> Result<Exec, SimError> {
    let Payload::ChanSend { peer, src } = d.payload else {
        unreachable!("exec_csend wired to a non-Csend payload");
    };
    let dst = m.chan_peer(peer)?;
    let val = read_slot(m, d.class, src)?;
    // Fire-and-forget: a scalar send never checks credits, so a runaway
    // sender can overrun the receiver. The routing barrier poisons the
    // overflowing entry, and the fault surfaces — with provenance — at
    // the *consuming* tile.
    m.chan_tx.push(ChanMsg {
        dst,
        val,
        poison: None,
    });
    Ok(Exec::Retired(None))
}

/// `Crecv`: output-FIFO capacity check, then pop the next due value from
/// the peer tile's channel.
pub(crate) fn exec_crecv<'m>(m: &mut WmMachine<'m>, d: &DecodedInst<'m>) -> Result<Exec, SimError> {
    let Payload::ChanRecv { peer, dst } = d.payload else {
        unreachable!("exec_crecv wired to a non-Crecv payload");
    };
    if out_full(m, d.class, dst) {
        return Ok(Exec::Stall(Stall::OutFull));
    }
    let p = m.chan_peer(peer)?;
    let due = m.chan_rx[p].front().is_some_and(|e| e.due <= m.cycle);
    if !due {
        return Ok(Exec::Stall(Stall::ChanEmpty));
    }
    let e = m.chan_rx[p].pop_front().expect("checked non-empty");
    if let Some(poison) = e.poison {
        let unit = match d.class {
            RegClass::Int => FaultUnit::Ieu,
            RegClass::Flt => FaultUnit::Feu,
        };
        return Err(m.fault(
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
    write_dst(m, d.class, dst, e.val);
    Ok(Exec::Retired(match dst {
        Dst::Reg(n) => Some(n),
        Dst::Out | Dst::Zero => None,
    }))
}

/// The exec slot of an instruction the IFU or the VEU executes: never
/// called, since only [`IfuOp::Dispatch`] slots enter a scalar unit's
/// instruction queue.
pub(crate) fn exec_not_dispatched<'m>(
    _: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    unreachable!("`{}` reached a scalar unit", d.kind)
}
