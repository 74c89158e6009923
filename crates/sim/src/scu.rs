//! Stream control units: the access side of the access/execute machine.
//!
//! The compiler turns a loop's memory references into stream
//! instructions; an SCU configured by one runs ahead of the execute
//! units, feeding a unit's input FIFO (or a VEU port) from memory or
//! another tile, or draining a unit's output FIFO (or the VEU's) to
//! memory or another tile. This module holds the SCU state and the whole
//! of its behavior:
//!
//! * [`WmMachine::configure_stream`] — one configuration path for all
//!   eight stream-configuring instructions;
//! * [`WmMachine::scu_step`] — one cycle of every SCU: a shared
//!   prologue (setup, fault-injection disable, port arbitration, stream
//!   end), a per-mode element step, and one shared element retire;
//! * the store-queue drain and the out-stream pop, which share the one
//!   rule deciding who owns a unit's output FIFO: program order.

use wm_ir::hw::VECTOR_LENGTH;
use wm_ir::{DataFifo, InstKind, RegClass, Width};

use crate::compiled::read_slot;
use crate::decode::src_slot;
use crate::fault::{FaultKind, FaultUnit};
use crate::machine::{
    ChanMsg, Exec, MemOp, PendingStore, Poison, SimError, Slot, Val, WmMachine, FIFO_OUT,
};
use crate::mem::Access;
use crate::stats::{Outcome, Stall};

/// Where a stream delivers / takes its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamTarget {
    /// A scalar unit's FIFO-mapped register 0/1.
    Fifo(DataFifo),
    /// A VEU input port (in-streams) or the VEU output FIFO (out-streams).
    Veu(u8),
}

/// Addressing mode of a stream control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScuKind {
    /// `base + k*stride`: the classic affine stream.
    Affine,
    /// Index-fed load stream: the SCU fetches an affine index stream
    /// itself and issues `base + (idx << shift)` data reads.
    Gather,
    /// Index-fed store stream: the scatter dual, writing the unit's
    /// output FIFO to `base + (idx << shift)`.
    Scatter,
    /// Channel send: pop the target FIFO's *input* side and push each
    /// element toward a peer tile (no memory traffic, no port use).
    Send,
    /// Channel receive: pop due entries from a peer tile's channel into
    /// the target FIFO's input side (no memory traffic, no port use).
    Recv,
}

/// Entries of an indirect SCU's internal index ring (fetched indices
/// waiting to become data requests). Four is enough to cover the index
/// stream's buffer-hit latency without letting one SCU hoard ports.
pub(crate) const IDX_RING: usize = 4;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Scu {
    pub(crate) active: bool,
    pub(crate) dir_in: bool,
    pub(crate) kind: ScuKind,
    pub(crate) fifo: DataFifo,
    pub(crate) target: StreamTarget,
    pub(crate) addr: i64,
    stride: i64,
    pub(crate) remaining: Option<i64>,
    width: Width,
    gen: u32,
    /// Cycle at which the SCU may issue its first request.
    pub(crate) ready_at: u64,
    /// Configuration order: an in-stream's prefetch must wait for
    /// overlapping writes of out-streams configured *before* it (they
    /// precede it in program order), but not for younger ones (a
    /// read-modify-write loop configures its in-stream first).
    seq: u64,
    /// Log2 byte scale applied to index values (indirect kinds).
    shift: u8,
    /// Index-stream cursor (indirect kinds).
    iaddr: i64,
    istride: i64,
    iwidth: Width,
    /// Scatter only: conservative byte extent of the scattered region
    /// `[addr, addr+span)`, used for memory-ordering checks (the exact
    /// write set is data-dependent).
    span: i64,
    /// Fetched indices waiting to issue as data requests, in fetch
    /// order. An entry is `(value, false)`, or `(index address, true)`
    /// when the index fetch itself faulted (gather defers that fault
    /// into the data entry's poison; scatter faults eagerly instead).
    idx_ring: [(i64, bool); IDX_RING],
    ring_head: u8,
    ring_len: u8,
    /// Index fetches in flight toward the ring.
    idx_pending: u8,
    /// Index fetches left to issue (mirrors `remaining`).
    idx_remaining: Option<i64>,
    /// An `Sstop` that discarded speculatively fetched elements holds
    /// the slot busy until this cycle (squash recovery; see
    /// [`crate::config::WmConfig::squash_penalty`]).
    pub(crate) squash_until: u64,
    /// Peer tile of a channel stream (`Send`/`Recv` kinds only).
    pub(crate) peer: u8,
}

impl Scu {
    /// The reset state of an SCU slot — also the template every
    /// configuration starts from, via functional update.
    pub(crate) fn inert() -> Scu {
        Scu {
            active: false,
            dir_in: true,
            kind: ScuKind::Affine,
            fifo: DataFifo::new(RegClass::Int, 0),
            target: StreamTarget::Fifo(DataFifo::new(RegClass::Int, 0)),
            addr: 0,
            stride: 0,
            remaining: None,
            width: Width::W4,
            gen: 0,
            ready_at: 0,
            seq: 0,
            shift: 0,
            iaddr: 0,
            istride: 0,
            iwidth: Width::W4,
            span: 0,
            idx_ring: [(0, false); IDX_RING],
            ring_head: 0,
            ring_len: 0,
            idx_pending: 0,
            idx_remaining: None,
            squash_until: 0,
            peer: 0,
        }
    }

    /// Does this stream move data core-to-core rather than through
    /// memory? Channel streams never touch a memory port.
    fn is_channel(&self) -> bool {
        matches!(self.kind, ScuKind::Send | ScuKind::Recv)
    }
}

impl WmMachine<'_> {
    /// Has fault injection disabled SCU `i` by the current cycle?
    pub(crate) fn scu_disabled(&self, i: usize) -> bool {
        self.config
            .fault_plan
            .disable_scus
            .iter()
            .any(|&(idx, c)| idx == i && self.cycle >= c)
    }

    /// Does an active out-stream configured before point `seq` still
    /// have `[addr, addr+width)` in its unwritten range? With
    /// `seq = u64::MAX`, every active out-stream counts.
    pub(crate) fn older_out_stream_overlaps(&self, seq: u64, addr: i64, width: Width) -> bool {
        let end = addr + width.bytes();
        self.scus.iter().any(|s| {
            if !s.active || s.dir_in || s.seq >= seq {
                return false;
            }
            // A scatter's write set is data-dependent; its declared span
            // is the conservative unwritten range.
            if s.kind == ScuKind::Scatter {
                return s.addr < end && addr < s.addr + s.span;
            }
            match s.remaining {
                Some(n) => {
                    let lo = s.addr.min(s.addr + s.stride * (n - 1).max(0));
                    let hi = s.addr.max(s.addr + s.stride * (n - 1).max(0)) + s.width.bytes();
                    lo < end && addr < hi
                }
                // unbounded stream: everything from the cursor onward (in
                // stride direction) may still be written
                None => {
                    if s.stride >= 0 {
                        s.addr < end
                    } else {
                        addr < s.addr + s.width.bytes()
                    }
                }
            }
        })
    }

    /// Does a *scalar* load of `[addr, addr+width)` fall inside the range an
    /// active out-stream has yet to write? Scalar loads follow the stream's
    /// writes in program order, so they must wait; stream-in prefetches must
    /// not (their reads precede the overlapping writes in program order).
    pub(crate) fn conflicts_with_out_streams(&self, addr: i64, width: Width) -> bool {
        self.older_out_stream_overlaps(u64::MAX, addr, width)
    }

    /// First SCU slot that is both inactive and past any squash recovery.
    fn free_scu_slot(&self) -> Option<usize> {
        self.scus
            .iter()
            .position(|s| !s.active && self.cycle >= s.squash_until)
    }

    /// Validate a channel peer operand: channel instructions are only
    /// legal on a tiled machine, and only toward *another* live tile.
    pub(crate) fn chan_peer(&self, peer: u8) -> Result<usize, SimError> {
        let p = peer as usize;
        if self.chan_rx.is_empty() {
            return Err(SimError::BadProgram(
                "channel instruction on a single-tile machine".into(),
            ));
        }
        if p >= self.chan_rx.len() || p == self.tile_id {
            return Err(SimError::BadProgram(format!(
                "channel peer t{peer} is out of range for a {}-tile machine (this is tile {})",
                self.chan_rx.len(),
                self.tile_id
            )));
        }
        Ok(p)
    }

    /// Configure an SCU from `head`, one of the eight stream-configuring
    /// instructions. Every kind takes the same steps: check a channel
    /// peer, find a free slot, read the operands, validate the count, wait
    /// while the target is busy, then claim the slot and load the `jNI`
    /// counter of a tested stream. `Ok(false)` is an `scu-busy` stall.
    pub(crate) fn configure_stream(&mut self, head: &InstKind) -> Result<bool, SimError> {
        let int = |m: &mut Self, op| {
            Ok(read_slot(m, RegClass::Int, src_slot(RegClass::Int, op)?)?.as_i())
        };
        let peer = match *head {
            InstKind::StreamSend { peer, .. } | InstKind::StreamRecv { peer, .. } => {
                self.chan_peer(peer)? as u8
            }
            _ => 0,
        };
        let Some(slot) = self.free_scu_slot() else {
            return Ok(false);
        };
        let mut scu = Scu {
            active: true,
            peer,
            ..Scu::inert()
        };
        let mut vectors = 0;
        // Per kind: the stream's shape, then its operands in the order the
        // instruction reads them.
        scu.target = match *head {
            InstKind::StreamIn {
                fifo,
                base,
                count,
                stride,
                width,
                ..
            }
            | InstKind::StreamOut {
                fifo,
                base,
                count,
                stride,
                width,
            } => {
                scu.dir_in = matches!(head, InstKind::StreamIn { .. });
                scu.width = width;
                scu.addr = int(self, base)?;
                scu.stride = int(self, stride)?;
                scu.remaining = count.map(|c| int(self, c)).transpose()?;
                StreamTarget::Fifo(fifo)
            }
            InstKind::StreamGather {
                fifo,
                base,
                shift,
                width,
                ibase,
                istride,
                iwidth,
                count,
                ..
            }
            | InstKind::StreamScatter {
                fifo,
                base,
                shift,
                width,
                ibase,
                istride,
                iwidth,
                count,
                ..
            } => {
                scu.dir_in = matches!(head, InstKind::StreamGather { .. });
                scu.kind = if scu.dir_in {
                    ScuKind::Gather
                } else {
                    ScuKind::Scatter
                };
                if let InstKind::StreamScatter { span, .. } = *head {
                    scu.span = span;
                }
                (scu.width, scu.shift, scu.iwidth) = (width, shift, iwidth);
                scu.addr = int(self, base)?;
                scu.iaddr = int(self, ibase)?;
                scu.istride = int(self, istride)?;
                scu.remaining = Some(int(self, count)?);
                scu.idx_remaining = scu.remaining;
                StreamTarget::Fifo(fifo)
            }
            InstKind::VStreamIn {
                port,
                base,
                count,
                stride,
                vectors: v,
            } => {
                scu.width = Width::D8;
                scu.addr = int(self, base)?;
                scu.remaining = Some(int(self, count)?);
                scu.stride = int(self, stride)?;
                vectors = int(self, v)?;
                StreamTarget::Veu(port)
            }
            InstKind::VStreamOut {
                base,
                count,
                stride,
            } => {
                (scu.dir_in, scu.width) = (false, Width::D8);
                scu.addr = int(self, base)?;
                scu.remaining = Some(int(self, count)?);
                scu.stride = int(self, stride)?;
                StreamTarget::Veu(0)
            }
            InstKind::StreamSend { fifo, count, .. } | InstKind::StreamRecv { fifo, count, .. } => {
                scu.dir_in = matches!(head, InstKind::StreamRecv { .. });
                scu.kind = if scu.dir_in {
                    ScuKind::Recv
                } else {
                    ScuKind::Send
                };
                scu.remaining = Some(int(self, count)?);
                StreamTarget::Fifo(fifo)
            }
            _ => unreachable!("not a stream instruction: {head}"),
        };
        scu.fifo = match scu.target {
            StreamTarget::Fifo(fifo) => fifo,
            StreamTarget::Veu(_) => DataFifo::new(RegClass::Flt, 0), // unused
        };
        // The count rule: a positive count, except that a vector stream
        // takes a zero count (and vector count) as an idle stream, and a
        // vector out-stream checks nothing.
        let n = scu.remaining.unwrap_or(1);
        let what = match scu.kind {
            ScuKind::Affine => "stream",
            ScuKind::Gather | ScuKind::Scatter => "indirect stream",
            ScuKind::Send | ScuKind::Recv => "channel stream",
        };
        let bad = match scu.target {
            StreamTarget::Veu(_) if scu.dir_in && (n < 0 || vectors < 0) => Some((
                n.min(vectors),
                None,
                format!("vector stream configured with count {n}/{vectors}"),
            )),
            StreamTarget::Veu(_) => {
                scu.active = n > 0;
                None
            }
            StreamTarget::Fifo(fifo) => {
                (n <= 0).then(|| (n, Some(fifo), format!("{what} configured with count {n}")))
            }
        };
        if let Some((count, stream, detail)) = bad {
            let kind = FaultKind::BadStreamCount(count);
            return Err(self.fault(FaultUnit::Ieu, kind, None, stream, detail));
        }
        // The previous stream on this target may still be draining (the
        // IEU runs ahead of the consuming unit): wait for it rather than
        // overlap two streams on one target. A unit's input FIFO has one
        // feeder at a time (an in-stream, gather or receive); a channel
        // send drains the input side, one drain at a time.
        let busy = match scu.target {
            _ if scu.kind == ScuKind::Send => self
                .scus
                .iter()
                .any(|u| u.active && u.kind == ScuKind::Send && u.fifo == scu.fifo),
            StreamTarget::Fifo(f) if scu.dir_in => {
                self.unit(f.class).ins[f.index as usize].streamed
            }
            target => self
                .scus
                .iter()
                .any(|u| u.active && u.dir_in == scu.dir_in && u.target == target),
        };
        if busy {
            return Ok(false);
        }
        if let (true, StreamTarget::Fifo(f)) = (scu.dir_in, scu.target) {
            let f = &mut self.unit_mut(f.class).ins[f.index as usize];
            f.streamed = true;
            scu.gen = f.gen;
        }
        self.scu_seq += 1;
        self.scus[slot] = Scu {
            ready_at: self.cycle + self.config.scu_setup,
            seq: self.scu_seq,
            ..scu
        };
        // Register the dispatch counter for jNI jumps — but only for the
        // stream the compiler marked as tested. Registering any other
        // stream would leave a stale counter behind (its jNI never drains
        // it), corrupting a later loop's termination test on the same FIFO.
        // Likewise only the vector stream carrying a positive `vectors`
        // operand loads the termination counter (one per vector loop);
        // re-setting it from a second port would corrupt a count the IFU
        // is already consuming.
        match *head {
            InstKind::StreamIn { tested: true, .. }
            | InstKind::StreamGather { tested: true, .. }
            | InstKind::StreamRecv { tested: true, .. } => {
                if let Some(n) = scu.remaining {
                    self.dispatch.insert(scu.fifo, n);
                }
            }
            InstKind::VStreamIn { .. } if vectors > 0 => self.dispatch_vec = Some(vectors),
            _ => {}
        }
        Ok(true)
    }

    /// Stop every stream on `fifo`, discarding data fetched ahead of the
    /// consumer. For a speculative stream this is the squash: the
    /// discarded elements (queued, in flight, and an indirect SCU's
    /// buffered/pending indices) are counted per SCU, and a nonzero
    /// [`WmConfig::squash_penalty`](crate::config::WmConfig) holds the
    /// slot in recovery for that many cycles.
    pub(crate) fn stop_stream(&mut self, fifo: DataFifo) {
        let penalty = self.config.squash_penalty;
        let cycle = self.cycle;
        let mut flush_in: Option<usize> = None;
        for (k, scu) in self.scus.iter_mut().enumerate() {
            if scu.active && scu.fifo == fifo {
                scu.active = false;
                let leftover = scu.ring_len as u64 + scu.idx_pending as u64;
                scu.ring_len = 0;
                scu.ring_head = 0;
                scu.idx_pending = 0;
                self.perf.scus[k].squashed += leftover;
                if penalty > 0 && leftover > 0 {
                    scu.squash_until = cycle + penalty;
                }
                if scu.dir_in {
                    flush_in = Some(k);
                }
            }
        }
        if let Some(k) = flush_in {
            self.fifo_changing(fifo.class, fifo.index as usize);
            let f = &mut self.unit_mut(fifo.class).ins[fifo.index as usize];
            let leftover = (f.q.len() + f.pending) as u64;
            f.q.clear();
            f.pending = 0;
            f.owed = 0;
            f.gen = f.gen.wrapping_add(1);
            f.streamed = false;
            self.perf.scus[k].squashed += leftover;
            if penalty > 0 && leftover > 0 {
                self.scus[k].squash_until = cycle + penalty;
            }
        }
        self.dispatch.remove(fifo);
    }

    /// Deliver an index fetch into SCU `scu`'s ring. Matched to the
    /// issuing configuration: the stream may have been stopped (squash)
    /// or the slot reused since the fetch was issued — stale indices are
    /// dropped.
    pub(crate) fn deliver_index(
        &mut self,
        scu: usize,
        seq: u64,
        addr: i64,
        width: Width,
        poison: bool,
    ) -> Result<(), SimError> {
        if !self.scus[scu].active || self.scus[scu].seq != seq {
            return Ok(());
        }
        let entry = if poison {
            (addr, true)
        } else {
            let v = self
                .mem
                .read_int(addr, width)
                .map_err(|e| self.access_fault(FaultUnit::Scu(scu), None, &e))?;
            (v, false)
        };
        let s = &mut self.scus[scu];
        s.idx_pending = s.idx_pending.saturating_sub(1);
        let pos = (s.ring_head as usize + s.ring_len as usize) % IDX_RING;
        s.idx_ring[pos] = entry;
        s.ring_len += 1;
        Ok(())
    }

    // ---- output-FIFO ownership ----
    //
    // Every value a unit writes to `r0` pairs, in program order, with
    // either a queued scalar store or an out-stream element. Program
    // order, not the cycle either side became ready, decides which: the
    // IEU runs ahead of the FEU (jNI resolves loop exits early), so it can
    // queue a post-loop store while the FEU still feeds the loop's
    // out-stream (the tiled write-back drain does exactly this), and it
    // can configure the next loop's out-stream while an earlier store
    // still waits for the memory hierarchy. Stores and stream
    // configurations are numbered on one counter (`scu_seq`), so each
    // side can tell which came first.

    /// Is the store queued at configuration point `seq` held behind an
    /// active `class` out-stream configured at or before it? Such a stream
    /// owns the output FIFO's next `remaining` values. A channel send
    /// drains the *input* side, so it never owns the output FIFO (and
    /// must not block the store: its feeding in-stream may be waiting on
    /// it).
    fn store_behind_out_stream(&self, class: RegClass, seq: u64) -> bool {
        self.scus.iter().any(|s| {
            s.active
                && !s.dir_in
                && s.kind != ScuKind::Send
                && s.fifo.class == class
                && s.remaining != Some(0)
                && s.seq <= seq
        })
    }

    /// Why an out-stream cannot take its next value this cycle, if it
    /// cannot: a scalar store queued before the stream was configured
    /// owns the unit's output FIFO first (`mem-order`), or the producer
    /// has not filled the FIFO yet (`fifo-empty`).
    fn out_stream_wait(&self, scu: &Scu) -> Option<Stall> {
        let empty = match scu.target {
            StreamTarget::Fifo(fifo) => {
                if self
                    .store_q
                    .iter()
                    .any(|st| st.class == fifo.class && st.seq < scu.seq)
                {
                    return Some(Stall::MemOrder);
                }
                self.unit(fifo.class).out.is_empty()
            }
            StreamTarget::Veu(_) => self.veu.out.is_empty(),
        };
        empty.then_some(Stall::FifoEmpty)
    }

    /// Take an out-stream's next value (after [`Self::out_stream_wait`]
    /// found none to wait for).
    fn pop_out(&mut self, target: StreamTarget) -> Val {
        match target {
            StreamTarget::Fifo(fifo) => {
                self.fifo_changing(fifo.class, FIFO_OUT);
                self.unit_mut(fifo.class).out.pop_front()
            }
            StreamTarget::Veu(_) => self.veu.out.pop_front().map(Val::F),
        }
        .expect("checked non-empty")
    }

    /// Queue a scalar store of the `class` unit's next output value to the
    /// address `eval` computes (both engines), recording its place in
    /// program order. The address faults here, before entering the queue,
    /// so the report names the faulting instruction.
    pub(crate) fn queue_store(
        &mut self,
        class: RegClass,
        width: Width,
        eval: impl FnOnce(&mut Self) -> Result<i64, SimError>,
    ) -> Result<Exec, SimError> {
        if self.store_q.len() >= self.config.store_queue {
            return Ok(Exec::Stall(Stall::StoreQFull));
        }
        let addr = eval(self)?;
        if let Err(e) = self.mem.check(addr, width.bytes(), true) {
            return Err(self.access_fault(FaultUnit::Ieu, None, &e));
        }
        self.store_q.push_back(PendingStore {
            addr,
            width,
            class,
            seq: self.scu_seq,
        });
        Ok(Exec::Retired(None))
    }

    /// Issue queued scalar stores, in order, while ports are free: each
    /// pairs with the next value of its unit's output FIFO.
    pub(crate) fn drain_stores(&mut self) -> Result<(), SimError> {
        while self.ports_free() {
            let Some(&PendingStore {
                addr,
                width,
                class,
                seq,
            }) = self.store_q.front()
            else {
                break;
            };
            // A store that can never be satisfied surfaces as an
            // attributed deadlock rather than an eager fault.
            if self.store_behind_out_stream(class, seq) {
                break;
            }
            // the hierarchy may refuse the store (write-allocate miss
            // with no MSHR / busy bank): leave it queued and retry
            let acc = Access::scalar(addr, true);
            if self.memsys.accepts(&acc, self.cycle).is_err() {
                break;
            }
            self.fifo_changing(class, FIFO_OUT);
            let Some(val) = self.unit_mut(class).out.pop_front() else {
                break; // data not produced yet
            };
            self.store_q.pop_front();
            self.issue_mem(MemOp::Write { addr, width, val }, &acc);
            self.stats.mem_writes += 1;
        }
        Ok(())
    }

    // ---- stepping ----

    pub(crate) fn scu_step(&mut self) -> Result<(), SimError> {
        for i in 0..self.scus.len() {
            let outcome = self.scu_step_one(i)?;
            self.perf.scus[i].unit.record(outcome);
            self.last_outcomes.scus[i] = outcome;
        }
        Ok(())
    }

    /// Advance SCU `i` by one cycle and attribute what it did.
    fn scu_step_one(&mut self, i: usize) -> Result<Outcome, SimError> {
        // An inactive SCU is idle whether or not a port is free, so the
        // common case skips the arbitration checks (and the state copy).
        if !self.scus[i].active {
            // ... unless it is recovering from a speculative-stream
            // squash, which holds the slot busy.
            if self.cycle < self.scus[i].squash_until {
                return Ok(Outcome::Stall(Stall::SpecSquash));
            }
            return Ok(Outcome::Idle);
        }
        let scu = self.scus[i];
        if self.scu_disabled(i) {
            return Ok(Outcome::Stall(Stall::Disabled));
        }
        if self.cycle < scu.ready_at {
            return Ok(Outcome::Stall(Stall::Setup));
        }
        // No port: even stream termination waits. Channel SCUs move data
        // tile-to-tile without touching memory, so they never contend for
        // a port (a `PortBusy` charge would be spurious).
        if !scu.is_channel() && !self.ports_free() {
            return Ok(Outcome::Stall(Stall::PortBusy));
        }
        if scu.remaining == Some(0) {
            // Normally only an affine out-stream gets here (every other
            // mode deactivates with its last element). Deactivation can
            // flip a younger stream's ordering check or let the machine
            // halt, so the cycle must not be fast-forwarded over even
            // though nothing retires. (An affine in-stream's end never
            // pinned progress; pinning it would move fast-forward spans
            // and reported deadlock cycles.)
            self.end_stream(i);
            if scu.kind != ScuKind::Affine || !scu.dir_in {
                self.last_progress = self.cycle;
            }
            return Ok(Outcome::Idle);
        }
        match (scu.kind, scu.dir_in) {
            (ScuKind::Affine, true) => self.affine_in_step(i, &scu),
            (ScuKind::Affine, false) => self.affine_out_step(i, &scu),
            (ScuKind::Gather, _) => self.gather_step(i, &scu),
            (ScuKind::Scatter, _) => self.scatter_step(i, &scu),
            (ScuKind::Send, _) => self.send_step(i, &scu),
            (ScuKind::Recv, _) => self.recv_step(i, &scu),
        }
    }

    /// Deactivate SCU `i`, releasing the input FIFO it fed so scalar
    /// loads may follow immediately (ordering is preserved by the memory
    /// system's FIFO delivery).
    fn end_stream(&mut self, i: usize) {
        let s = &mut self.scus[i];
        s.active = false;
        if let (true, StreamTarget::Fifo(fifo)) = (s.dir_in, s.target) {
            self.unit_mut(fifo.class).ins[fifo.index as usize].streamed = false;
        }
    }

    /// One element of SCU `i` is done: count it, advance the cursor (or
    /// the index ring), and end the stream after its last element. An
    /// affine out-stream stays active at zero and ends on its next step.
    fn retire_element(&mut self, i: usize) {
        let s = &mut self.scus[i];
        let c = &mut self.perf.scus[i];
        c.unit.retired += 1;
        if s.dir_in {
            c.elements_in += 1;
        } else {
            c.elements_out += 1;
        }
        if !s.is_channel() {
            if s.dir_in {
                self.stats.stream_reads += 1;
            } else {
                self.stats.stream_writes += 1;
                self.stats.mem_writes += 1;
            }
        }
        match s.kind {
            ScuKind::Affine => s.addr += s.stride,
            ScuKind::Gather | ScuKind::Scatter => {
                s.ring_head = (s.ring_head + 1) % IDX_RING as u8;
                s.ring_len -= 1;
            }
            ScuKind::Send | ScuKind::Recv => {}
        }
        self.last_progress = self.cycle;
        let keeps_running = s.kind == ScuKind::Affine && !s.dir_in;
        if let Some(r) = s.remaining.as_mut() {
            *r -= 1;
            if *r == 0 && !keeps_running {
                self.end_stream(i);
            }
        }
    }

    /// Is the destination of an in-stream read full (FIFO capacity, or
    /// two vectors' worth for a VEU port)?
    fn in_target_full(&self, target: StreamTarget) -> bool {
        match target {
            StreamTarget::Fifo(fifo) => {
                let f = &self.unit(fifo.class).ins[fifo.index as usize];
                f.q.len() + f.pending >= self.config.fifo_capacity
            }
            StreamTarget::Veu(port) => {
                let p = port as usize;
                self.veu.ports[p].len() + self.veu.pending[p] >= 2 * VECTOR_LENGTH
            }
        }
    }

    /// Must a stream read of `[addr, addr+width)` configured at point
    /// `seq` wait? It waits for a store that has not reached memory, and
    /// for an out-stream configured earlier (program order) that may still
    /// owe a write there.
    fn stream_read_blocked(&self, seq: u64, addr: i64, width: Width) -> bool {
        self.conflicts_with_pending_writes(addr, width)
            || self.older_out_stream_overlaps(seq, addr, width)
    }

    /// A stream read's deferred fault: a refused prefetch *poisons* its
    /// FIFO entry instead of faulting, since the SCU runs ahead of the
    /// consumer and an over-fetch that is never consumed must be harmless.
    fn read_poison(&self, i: usize, addr: i64, width: Width) -> Option<Box<Poison>> {
        let e = self.mem.check(addr, width.bytes(), false).err()?;
        Some(poison(addr, i, e.to_string()))
    }

    /// Issue one in-stream element read of `addr` toward SCU `i`'s target
    /// and retire the element.
    fn issue_stream_read(
        &mut self,
        i: usize,
        scu: &Scu,
        addr: i64,
        poison: Option<Box<Poison>>,
        acc: &Access,
    ) {
        if poison.is_some() {
            self.perf.scus[i].poisoned += 1;
        }
        match scu.target {
            StreamTarget::Fifo(fifo) => {
                self.unit_mut(fifo.class).ins[fifo.index as usize].pending += 1
            }
            StreamTarget::Veu(port) => self.veu.pending[port as usize] += 1,
        }
        self.issue_mem(
            MemOp::ReadFifo {
                target: scu.target,
                addr,
                width: scu.width,
                gen: scu.gen,
                poison,
            },
            acc,
        );
        self.retire_element(i);
    }

    /// An affine in-stream: read `addr`, advance by `stride`.
    fn affine_in_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        if self.in_target_full(scu.target) {
            return Ok(Outcome::Stall(Stall::FifoFull));
        }
        if self.stream_read_blocked(scu.seq, scu.addr, scu.width) {
            return Ok(Outcome::Stall(Stall::MemOrder)); // hold until the store lands
        }
        // The VEU consumes whole vectors unconditionally, so its refused
        // prefetches fault eagerly.
        let poison = match (
            scu.target,
            self.mem.check(scu.addr, scu.width.bytes(), false),
        ) {
            (_, Ok(())) => None,
            (StreamTarget::Veu(_), Err(e)) => {
                return Err(self.access_fault(FaultUnit::Scu(i), None, &e))
            }
            (StreamTarget::Fifo(_), Err(e)) => Some(poison(scu.addr, i, e.to_string())),
        };
        // the stream-buffer bypass path: never refused, and prefetching
        // ahead along the stride is what hides the miss latency scalar
        // code pays
        let acc = Access::stream(scu.addr, false, i, scu.stride);
        self.issue_stream_read(i, scu, scu.addr, poison, &acc);
        Ok(Outcome::Active)
    }

    /// An affine out-stream: write the next output-FIFO value to `addr`.
    fn affine_out_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        if let Some(s) = self.out_stream_wait(scu) {
            return Ok(Outcome::Stall(s));
        }
        let val = self.pop_out(scu.target);
        // out-stream writes fault eagerly at issue: the datum was
        // produced, so the store is architecturally committed
        if let Err(e) = self.mem.check(scu.addr, scu.width.bytes(), true) {
            let stream = match scu.target {
                StreamTarget::Fifo(f) => Some(f),
                StreamTarget::Veu(_) => None,
            };
            return Err(self.access_fault(FaultUnit::Scu(i), stream, &e));
        }
        self.issue_mem(
            MemOp::Write {
                addr: scu.addr,
                width: scu.width,
                val,
            },
            // stream-out writes bypass the L1 (invalidating any cached
            // copy) straight to the backing store
            &Access::stream(scu.addr, true, i, scu.stride),
        );
        self.retire_element(i);
        Ok(Outcome::Active)
    }

    /// The data address of the index at the head of an indirect SCU's
    /// ring, and whether the index fetch itself faulted.
    fn ring_head_addr(scu: &Scu) -> (i64, i64, bool) {
        let (iv, idx_poisoned) = scu.idx_ring[scu.ring_head as usize];
        let daddr = scu.addr.wrapping_add(iv.wrapping_shl(scu.shift as u32));
        (iv, daddr, idx_poisoned)
    }

    /// One cycle of an index-fed gather SCU. The data side has priority:
    /// a buffered index becomes one `base + (idx << shift)` read into the
    /// target FIFO (a poisoned index, or a data address that fails the
    /// permission check, becomes a poisoned entry — FIFO order is
    /// preserved either way). Otherwise the SCU fetches its next index.
    fn gather_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        let mut data_stall: Option<Stall> = None;
        if scu.ring_len > 0 {
            let (iv, daddr, idx_poisoned) = Self::ring_head_addr(scu);
            if self.in_target_full(scu.target) {
                data_stall = Some(Stall::FifoFull);
            } else if !idx_poisoned && self.stream_read_blocked(scu.seq, daddr, scu.width) {
                data_stall = Some(Stall::MemOrder); // hold until the store lands
            } else {
                let poison = if idx_poisoned {
                    // the index fetch itself faulted; the data entry
                    // inherits the deferred fault (there is no valid
                    // address to gather)
                    Some(poison(
                        iv,
                        i,
                        format!("gather index fetch at {iv:#x} faulted"),
                    ))
                } else {
                    self.read_poison(i, daddr, scu.width)
                };
                // data-dependent addresses defeat the stream buffers'
                // stride prediction: gathers go straight to the backing
                // store (and must not flush this SCU's own index-stream
                // buffer)
                self.issue_stream_read(i, scu, daddr, poison, &Access::gather(daddr, i));
                return Ok(Outcome::Active);
            }
        }
        self.index_step(i, scu, data_stall)
    }

    /// One cycle of an index-fed scatter SCU: pop one value from the
    /// unit's output FIFO and one buffered index, and write
    /// `base + (idx << shift)`. Scatter stores are architectural, so
    /// every fault (index fetch or data write) is raised eagerly; a
    /// scatter is never speculative.
    fn scatter_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        let mut data_stall: Option<Stall> = None;
        if scu.ring_len > 0 {
            data_stall = self.out_stream_wait(scu);
            if data_stall.is_none() {
                let (_, daddr, _) = Self::ring_head_addr(scu);
                if let Err(e) = self.mem.check(daddr, scu.width.bytes(), true) {
                    return Err(self.access_fault(FaultUnit::Scu(i), Some(scu.fifo), &e));
                }
                let val = self.pop_out(scu.target);
                self.issue_mem(
                    MemOp::Write {
                        addr: daddr,
                        width: scu.width,
                        val,
                    },
                    &Access::stream(daddr, true, i, 0),
                );
                // after the last store the declared span no longer blocks
                // younger streams (the in-flight writes still order
                // through the pending-write set until they land)
                self.retire_element(i);
                return Ok(Outcome::Active);
            }
        }
        self.index_step(i, scu, data_stall)
    }

    /// The index side of a gather or scatter SCU: keep the ring primed
    /// while the data side is blocked (`data_stall`) or has nothing
    /// buffered. An unmapped index address delivers a poison marker to a
    /// gather (deferred like any other gather fault) and faults a scatter
    /// at once.
    fn index_step(
        &mut self,
        i: usize,
        scu: &Scu,
        data_stall: Option<Stall>,
    ) -> Result<Outcome, SimError> {
        if scu.idx_remaining == Some(0) || scu.ring_len + scu.idx_pending >= IDX_RING as u8 {
            return Ok(Outcome::Stall(data_stall.unwrap_or(Stall::IndexFifoEmpty)));
        }
        if self.stream_read_blocked(scu.seq, scu.iaddr, scu.iwidth) {
            return Ok(Outcome::Stall(data_stall.unwrap_or(Stall::MemOrder)));
        }
        let poison = match self.mem.check(scu.iaddr, scu.iwidth.bytes(), false) {
            Err(e) if scu.kind == ScuKind::Scatter => {
                return Err(self.access_fault(FaultUnit::Scu(i), Some(scu.fifo), &e))
            }
            checked => checked.is_err(),
        };
        self.issue_mem(
            MemOp::ReadIndex {
                scu: i,
                seq: scu.seq,
                addr: scu.iaddr,
                width: scu.iwidth,
                poison,
            },
            // the index stream is affine: it prefetches through its
            // stream buffer like any in-stream
            &Access::stream(scu.iaddr, false, i, scu.istride),
        );
        self.stats.stream_reads += 1;
        self.perf.scus[i].index_fetches += 1;
        self.perf.scus[i].unit.retired += 1;
        let s = &mut self.scus[i];
        s.idx_pending += 1;
        s.iaddr += s.istride;
        if let Some(r) = s.idx_remaining.as_mut() {
            *r -= 1;
        }
        Ok(Outcome::Active)
    }

    /// One cycle of a channel-send SCU: pop one element from the target
    /// FIFO's input side and stage it toward the peer tile. No memory
    /// port is used; back-pressure is the channel credit count.
    fn send_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        let dst = scu.peer as usize;
        if self.chan_credits[dst] == 0 {
            // receiver backlog at capacity: wait for the barrier to
            // return credits
            return Ok(Outcome::Stall(Stall::ChanFull));
        }
        let fifo = scu.fifo;
        if self.unit(fifo.class).ins[fifo.index as usize].owed > 0 {
            // Program-order-earlier scalar loads still feed this FIFO
            // and their data belongs to the execution unit, not the
            // channel — jNI early branch resolution configured this
            // send while the FEU is still consuming the loop body.
            // Draining now would steal the unit's operands.
            return Ok(Outcome::Stall(Stall::MemOrder));
        }
        self.fifo_changing(fifo.class, fifo.index as usize);
        let Some(slot) = self.unit_mut(fifo.class).ins[fifo.index as usize]
            .q
            .pop_front()
        else {
            // the feeding stream (or unit) has not produced yet
            return Ok(Outcome::Stall(Stall::FifoEmpty));
        };
        // Poison forwards through the channel with its provenance intact:
        // it faults only if some tile eventually consumes it.
        self.chan_tx.push(ChanMsg {
            dst,
            val: slot.val,
            poison: slot.poison,
        });
        self.chan_credits[dst] -= 1;
        self.retire_element(i);
        Ok(Outcome::Active)
    }

    /// One cycle of a channel-receive SCU: pop the earliest due entry
    /// from the peer tile's channel queue into the target FIFO's input
    /// side. No memory traffic — the element was read (or computed) on
    /// the sending tile.
    fn recv_step(&mut self, i: usize, scu: &Scu) -> Result<Outcome, SimError> {
        let fifo = scu.fifo;
        {
            let f = &self.unit(fifo.class).ins[fifo.index as usize];
            // Ordering: scalar loads issued before this receive was
            // configured are still in flight through the memory
            // system. Their data reaches the FIFO in issue order only
            // because the memory path is FIFO-ordered — the channel
            // path is not, so a push now would jump the queue and the
            // unit would pop channel data as load results. Hold until
            // every outstanding load has landed.
            if f.pending > 0 {
                return Ok(Outcome::Stall(Stall::MemOrder));
            }
            // back-pressure: respect the destination FIFO's capacity
            if f.q.len() >= self.config.fifo_capacity {
                return Ok(Outcome::Stall(Stall::FifoFull));
            }
        }
        let p = scu.peer as usize;
        let due = self.chan_rx[p].front().is_some_and(|e| e.due <= self.cycle);
        if !due {
            // nothing due from the peer: it may still be computing, may
            // be wedged, or (fault injection) may have been killed — the
            // global deadlock check at the epoch barrier attributes that
            return Ok(Outcome::Stall(Stall::ChanEmpty));
        }
        let e = self.chan_rx[p].pop_front().expect("checked non-empty");
        if e.poison.is_some() {
            self.perf.scus[i].poisoned += 1;
        }
        self.fifo_changing(fifo.class, fifo.index as usize);
        self.unit_mut(fifo.class).ins[fifo.index as usize]
            .q
            .push_back(Slot {
                val: e.val,
                poison: e.poison,
            });
        self.retire_element(i);
        Ok(Outcome::Active)
    }
}

/// A deferred fault of SCU `scu`'s read at `addr`.
fn poison(addr: i64, scu: usize, error: String) -> Box<Poison> {
    Box::new(Poison { addr, scu, error })
}
