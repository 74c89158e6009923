//! The issue path: threaded dispatch over pre-decoded tables, and the
//! one step function both engines run.
//!
//! [`WmMachine::step`] simulates one cycle. The IEU and FEU issue
//! [`DecodedInst`] records: the FIFO demand and interlock register set
//! are precomputed bit tests, operands are flat slots, and the
//! instruction's behavior is an indirect call through its exec function
//! pointer — no match on the instruction kind in the hot loop. The IFU
//! walks the same tables with branch targets and call destinations
//! pre-resolved. Scalar loads and stores run the shared paths
//! ([`WmMachine::exec_load`], [`WmMachine::queue_store`]) with the
//! address evaluated over the decoded expression, and FIFO reads dequeue
//! through the shared [`WmMachine::pop_fifo`]. Whatever the tables
//! cannot express exactly (stream configuration, channel operations,
//! FIFO-mapped register corner cases, cross-class operands, unresolvable
//! symbols) carries the fallback handler, which runs
//! [`WmMachine::exec_unit_head`] on the original instruction.
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
//! property, `perf --compare`) therefore check exactly the skips and the
//! change-point accounting against plain per-cycle stepping. They cannot
//! see a decode error, which both engines share; the decode round-trip
//! verifier ([`crate::DecodedProgram::verify_roundtrip`]), the per-leg
//! `perf --check` pins and the fuzzer's result oracles catch those.

use wm_ir::{Operand, RegClass, UnOp};

use crate::decode::{DecExpr, DecodedInst, Dst, IfuOp, Payload, Src};
use crate::machine::{attach_inst, Exec, Pc, SimError, Val, WmMachine, FIFO_CC, FIFO_OUT};
use crate::stats::{Outcome, Stall};

impl<'m> WmMachine<'m> {
    /// Advance one cycle. `SKIP` turns on the compiled engine's skips
    /// (see the module docs); the reference engine runs with it off.
    pub(crate) fn step_with<const SKIP: bool>(&mut self) -> Result<(), SimError> {
        self.cycle += 1;
        self.ports_used = 0;
        self.deliver_memory()?;
        self.unit_step::<SKIP>(RegClass::Int)?;
        self.unit_step::<SKIP>(RegClass::Flt)?;
        if SKIP && self.veu.busy == 0 && self.veu.iq.is_empty() {
            self.perf.veu.idle += 1;
            self.last_outcomes.veu = Outcome::Idle;
        } else {
            self.veu_step()?;
        }
        self.drain_stores()?;
        if SKIP {
            self.scu_step_sleeping()?;
        } else {
            self.scu_step()?;
        }
        self.ifu_step::<SKIP>()?;
        if SKIP {
            self.sample_perf();
            self.fast_forward();
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
    fn unit_step<const SKIP: bool>(&mut self, class: RegClass) -> Result<(), SimError> {
        let u = self.unit(class);
        // an empty unit skips the call into the issue path
        let outcome = if SKIP && u.busy == 0 && u.iq.is_empty() {
            Outcome::Idle
        } else {
            self.unit_issue(class)?
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
    /// cycle.
    fn unit_issue(&mut self, class: RegClass) -> Result<Outcome, SimError> {
        if self.unit(class).busy > 0 {
            self.unit_mut(class).busy -= 1;
            return Ok(Outcome::Active);
        }
        // `DecodedInst` is `Copy`: lift it out of the table so the exec
        // handler can take `&mut self`.
        let d: DecodedInst<'m> = {
            let u = self.unit(class);
            let Some(&idx) = u.iq.front() else {
                return Ok(Outcome::Idle);
            };
            let d = self.prog.insts[idx as usize];
            // paired-ALU dependency interlock: the previous instruction's
            // result is not available to the immediately following one
            if let Some(prev) = u.prev_dst {
                if u.prev_cycle + 1 == self.cycle && d.read_mask & (1u32 << prev) != 0 {
                    return Ok(Outcome::Stall(Stall::Interlock)); // one-cycle bubble
                }
            }
            // FIFO data availability for every dequeue in the
            // instruction. A latched load already performed its dequeues
            // when its address was computed; its retry must not wait on
            // the FIFO it drained.
            if u.latched_load.is_none()
                && ((d.need[0] as usize) > u.ins[0].q.len()
                    || (d.need[1] as usize) > u.ins[1].q.len())
            {
                return Ok(Outcome::Stall(Stall::FifoEmpty));
            }
            d
        };
        match (d.exec)(self, &d) {
            Ok(Exec::Retired(dst)) => Ok(self.retire_head(class, d.kind, dst)),
            Ok(Exec::Stall(s)) => Ok(Outcome::Stall(s)), // retry next cycle
            Err(e) => Err(attach_inst(e, d.kind)),
        }
    }

    /// Fetch and dispatch. Control transfers are free (bounded per cycle);
    /// one instruction is dispatched to a unit queue per cycle.
    fn ifu_step<const SKIP: bool>(&mut self) -> Result<(), SimError> {
        if let (true, Some(class)) = (SKIP, self.ifu_park) {
            // Only the IFU moves the pc and sets the hold, so while the
            // FIFO stays empty the walk would stop at the same jump.
            if self.unit(class).cc.is_empty() && self.cycle >= self.ifu_hold {
                self.stats.ifu_stalls += 1;
                self.perf.ifu.record(Outcome::Stall(Stall::CcEmpty));
                return Ok(());
            }
            self.ifu_park = None;
        }
        let before = self.stats.insts_ifu;
        let outcome = self.ifu_fetch::<SKIP>()?;
        // control instructions the IFU itself executed this cycle
        self.perf.ifu.retired += self.stats.insts_ifu - before;
        self.perf.ifu.record(outcome);
        self.last_outcomes.ifu = outcome;
        Ok(())
    }

    /// One IFU cycle, attributing it: a cycle that performed any transfer,
    /// dispatch or IFU-executed instruction is active; otherwise the
    /// reason the fetch could not proceed is named.
    fn ifu_fetch<const SKIP: bool>(&mut self) -> Result<Outcome, SimError> {
        if self.cycle < self.ifu_hold {
            self.stats.ifu_stalls += 1;
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
            let blocks = &self.prog.funcs[pc.func].blocks;
            if pc.block >= blocks.len() {
                return Err(SimError::BadProgram(format!(
                    "control fell off the end of function {}",
                    self.module.functions[pc.func].name
                )));
            }
            let (start, len) = blocks[pc.block];
            if pc.inst >= len as usize {
                // implicit fallthrough to the next block in layout order
                self.pc = Some(Pc {
                    func: pc.func,
                    block: pc.block + 1,
                    inst: 0,
                });
                continue;
            }
            let idx = start + pc.inst as u32;
            let d = self.prog.insts[idx as usize];
            // the target block of a free transfer of control; every other
            // action ends the cycle's fetch
            let block = match d.ifu {
                IfuOp::Nop => {
                    self.advance();
                    continue;
                }
                IfuOp::Jump { block } => {
                    self.record("IFU", d.kind);
                    block
                }
                IfuOp::Branch { class, when, t, e } => {
                    self.fifo_changing(class, FIFO_CC);
                    let Some(cond) = self.unit_mut(class).cc.pop_front() else {
                        self.stats.ifu_stalls += 1;
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
                    let Some(count) = self.dispatch.get_mut(&fifo) else {
                        // the stream instruction has not executed yet
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::StreamWait));
                    };
                    *count -= 1;
                    let taken = *count > 0;
                    if !taken {
                        self.dispatch.remove(&fifo);
                    }
                    if taken {
                        t
                    } else {
                        e
                    }
                }
                IfuOp::BranchVec { t, e } => {
                    let Some(count) = self.dispatch_vec.as_mut() else {
                        self.stats.ifu_stalls += 1;
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
                IfuOp::CallFunc { func } => {
                    self.ret_stack.push(Pc {
                        func: pc.func,
                        block: pc.block,
                        inst: pc.inst + 1,
                    });
                    self.pc = Some(Pc {
                        func: func as usize,
                        block: 0,
                        inst: 0,
                    });
                    self.stats.insts_ifu += 1;
                    self.stats.calls += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active); // calls consume the fetch slot
                }
                IfuOp::CallBuiltin { callee } => {
                    // builtins read register state directly: the units
                    // must be synchronized first
                    if !self.quiescent() {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::Sync));
                    }
                    let name = self.module.sym_name(callee).to_string();
                    self.exec_builtin(&name)?;
                    self.ifu_hold = self.cycle + self.config.io_latency;
                    self.advance();
                    self.stats.insts_ifu += 1;
                    self.stats.calls += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                IfuOp::CallBad { callee } => {
                    return Err(SimError::BadProgram(format!(
                        "call to data symbol {}",
                        self.module.sym_name(callee)
                    )))
                }
                IfuOp::Ret => {
                    self.pc = self.ret_stack.pop();
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                // cross-unit conversions are executed by the IFU after
                // synchronizing the execution units
                IfuOp::Convert { op, a, dst } => {
                    if !self.quiescent() {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::Sync));
                    }
                    let src_class = if op == UnOp::IntToFlt {
                        RegClass::Int
                    } else {
                        RegClass::Flt
                    };
                    // a forwarded FIFO dequeue must wait for its datum
                    if let Operand::Reg(r) = a {
                        if r.is_fifo()
                            && self.unit(src_class).ins[r.phys_num().unwrap() as usize]
                                .q
                                .is_empty()
                        {
                            self.stats.ifu_stalls += 1;
                            return Ok(stall_after(transfers, Stall::FifoEmpty));
                        }
                    }
                    let v = self.read_operand(src_class, a)?;
                    let v = self.eval_un(op, v)?;
                    self.write_reg(dst.class, dst, v)?;
                    self.advance();
                    self.stats.insts_ifu += 1;
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                IfuOp::DispatchVeu => {
                    if self.veu.iq.len() >= self.config.iq_capacity {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::IqFull));
                    }
                    self.veu.iq.push_back(idx);
                    self.advance();
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
                // everything else is dispatched to an execution unit
                IfuOp::Dispatch => {
                    if self.unit(d.class).iq.len() >= self.config.iq_capacity {
                        self.stats.ifu_stalls += 1;
                        return Ok(stall_after(transfers, Stall::IqFull));
                    }
                    self.unit_mut(d.class).iq.push_back(idx);
                    self.advance();
                    self.last_progress = self.cycle;
                    return Ok(Outcome::Active);
                }
            };
            self.pc = Some(Pc {
                func: pc.func,
                block: block as usize,
                inst: 0,
            });
            self.stats.insts_ifu += 1;
            self.last_progress = self.cycle;
            transfers += 1;
            if transfers > 16 {
                return Ok(Outcome::Active); // runaway control; consume the cycle
            }
        }
    }
}

// ---- exec handlers (the decoded forms of `exec_unit_head`'s match arms,
// which stay the fallback for the corner cases; each mirrors its arm
// check-for-check) ----

/// Read one decoded source slot. FIFO slots dequeue through the shared
/// [`WmMachine::pop_fifo`] (the same code `read_operand` runs), so
/// poison and deadlock semantics cannot diverge; the decode-time slot
/// classification just skips `read_operand`'s re-derivation of what the
/// operand is.
fn read_slot<'m>(m: &mut WmMachine<'m>, class: RegClass, s: Src) -> Result<Val, SimError> {
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

/// Write a decoded destination slot (register 1 is never decoded, so
/// this cannot fail).
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

/// Evaluate a decoded expression with `eval_expr`'s operand order and
/// fault semantics (FIFO dequeues happen in a, b, c order; division by
/// zero faults from `eval_bin`).
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
/// it reads a FIFO or cannot fold — exactly when `eval_expr_pure`
/// returns `None` on the original expression (decode
/// folds only immediate pairs that `fold_int` accepts, so a fold never
/// turns an unanalyzable address into an analyzable one or vice versa).
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

/// Decoded `Assign`: output-FIFO capacity check, evaluate, write.
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
    if dst == Dst::Out && m.unit(d.class).out.len() >= m.config.fifo_capacity {
        return Ok(Exec::Stall(Stall::OutFull)); // output FIFO full
    }
    let v = eval_dec(m, d.class, &src)?;
    write_dst(m, d.class, dst, v);
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
        // and produces the same address: reuse it (the fallback
        // re-evaluates; the value is identical by construction). Float-unit
        // address arithmetic is not previewable that way, so it always
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

/// The fallback: run `exec_unit_head`'s arm on the original
/// instruction. Carried by every instruction the decode tables cannot
/// express exactly (stream configuration, channel operations,
/// FIFO-mapped destination corner cases, cross-class operands,
/// unresolvable symbols).
pub(crate) fn exec_fallback<'m>(
    m: &mut WmMachine<'m>,
    d: &DecodedInst<'m>,
) -> Result<Exec, SimError> {
    m.exec_unit_head(d.class, d.kind)
}
