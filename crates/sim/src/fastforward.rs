//! Fast-forward over all-stalled spans: the tail of every compiled-engine
//! step.
//!
//! PR 3's stall attribution showed that on latency-dominated
//! configurations (24-cycle memory, single-entry FIFOs) the large
//! majority of simulated cycles end with *every* unit stalled or idle:
//! the machine's architectural state does not change at all, yet the
//! per-cycle stepper still walks every unit, every SCU and the memory
//! system once per cycle. This module makes those spans O(1): after a
//! cycle in which no unit made progress, the compiled engine computes
//! the **next-event cycle** — the earliest future cycle at which
//! anything *can* change — and jumps there in one bulk update.
//!
//! The jump is exact, not approximate. A no-progress cycle is only
//! skippable when its per-unit outcomes are provably constant until the
//! next event, and the bulk update adds the skipped span to exactly the
//! same counters the per-cycle stepper would have touched: each unit's
//! idle/stall bucket, `ifu_stalls`, and the zero-requests memory-port
//! bucket. The FIFO-occupancy histograms need nothing: they are charged
//! at depth changes, and no depth changes in a skipped span.
//! Every counter in [`crate::Stats`], every cycle count, every fault and
//! deadlock (down to the reported cycle and machine-state dump) is
//! **bit-identical** to the per-cycle reference stepper; the differential
//! suite in `tests/engine_equiv.rs` and the fuzzer enforce this.
//!
//! Events that bound a jump:
//!
//! * the next memory delivery (`in_flight` is drained in FIFO order, so
//!   the head's due cycle — which already includes injected delays and
//!   jitter — is the next delivery);
//! * the end of an SCU's configuration setup (`ready_at`);
//! * a fault-injection SCU kill whose cycle has not arrived yet (the
//!   SCU's attribution flips to `Stall::Disabled` at that exact cycle);
//! * the expiry of an IFU hold (builtin I/O latency);
//! * a DRAM bank becoming free under the `banked` memory model (a
//!   scalar miss refused with `Stall::BankBusy` can retry then; MSHR
//!   releases need no extra event — they coincide with response
//!   delivery, which the in-flight queue head already bounds);
//! * the per-cycle deadlock horizon and the `max_cycles` timeout, so a
//!   wedged machine reports the identical terminal error.

use crate::machine::{WmMachine, DEADLOCK_WINDOW};
use crate::stats::{Outcome, Stall};

/// Which stepping engine drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Step every unit and sample every FIFO every cycle, with none of
    /// the compiled engine's skips: the reference stepper that tests and
    /// CI compare the production engine against. Both engines issue from
    /// the same pre-decoded tables (see
    /// [`DecodedProgram`](crate::DecodedProgram)).
    Cycle,
    /// Skip the work nothing needs: idle units and SCUs sleep, the IFU
    /// parks on an empty condition-code FIFO, all-stalled spans are
    /// fast-forwarded, and the FIFO histograms are charged at depth
    /// changes. Bit-identical to [`Engine::Cycle`]; the default.
    #[default]
    Compiled,
}

impl Engine {
    /// Stable machine-readable name (`"cycle"` / `"compiled"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Cycle => "cycle",
            Engine::Compiled => "compiled",
        }
    }

    /// Parse a name as accepted by `wmcc --engine`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything but `cycle` or `compiled`.
    pub fn parse(s: &str) -> Result<Engine, String> {
        match s {
            "cycle" => Ok(Engine::Cycle),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!(
                "unknown engine `{other}` (expected cycle or compiled)"
            )),
        }
    }

    /// All engines, for exhaustive differential sweeps.
    pub const ALL: [Engine; 2] = [Engine::Cycle, Engine::Compiled];
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What every unit did during one simulated cycle; captured each step so
/// the fast-forward tail can bulk-account a span of identical cycles.
#[derive(Debug, Clone)]
pub(crate) struct CycleOutcomes {
    pub(crate) ieu: Outcome,
    pub(crate) feu: Outcome,
    pub(crate) veu: Outcome,
    pub(crate) ifu: Outcome,
    pub(crate) scus: Vec<Outcome>,
}

impl CycleOutcomes {
    pub(crate) fn new(num_scus: usize) -> CycleOutcomes {
        CycleOutcomes {
            ieu: Outcome::Idle,
            feu: Outcome::Idle,
            veu: Outcome::Idle,
            ifu: Outcome::Idle,
            scus: vec![Outcome::Idle; num_scus],
        }
    }
}

/// One fast-forwarded span: `len` consecutive cycles starting at `start`
/// during which every unit repeated the recorded outcome. Collected only
/// when tracing or the timeline is enabled, and rendered by the Chrome
/// trace exporter as one coalesced stall span per unit instead of
/// thousands of per-cycle events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FfSpan {
    /// First skipped cycle.
    pub start: u64,
    /// Number of skipped cycles.
    pub len: u64,
    /// IEU outcome over the whole span.
    pub ieu: Outcome,
    /// FEU outcome over the whole span.
    pub feu: Outcome,
    /// VEU outcome over the whole span.
    pub veu: Outcome,
    /// IFU outcome over the whole span.
    pub ifu: Outcome,
    /// Per-SCU outcomes over the whole span.
    pub scus: Vec<Outcome>,
}

/// Is this outcome guaranteed to repeat until the next event?
///
/// `Active` means progress (the span is not a stall span at all) and
/// `Stall(Interlock)` lasts exactly one cycle by construction
/// (`prev_cycle + 1 == cycle`), so neither is skippable. Every other
/// stall reason and `Idle` depend only on machine state that cannot
/// change without some unit making progress or an event firing.
fn repeats(o: Outcome) -> bool {
    match o {
        Outcome::Active => false,
        Outcome::Idle => true,
        Outcome::Stall(s) => s != Stall::Interlock,
    }
}

impl<'m> WmMachine<'m> {
    /// If the cycle just simulated ended with no unit able to make
    /// progress, jump to just before the next event in one bulk update;
    /// a no-op when the cycle made progress or an outcome is not provably
    /// constant. The compiled engine's [`WmMachine::step`] ends with it.
    pub(crate) fn fast_forward(&mut self) {
        if !self.can_fast_forward() {
            return;
        }
        let Some(target) = self.fast_forward_target() else {
            return;
        };
        let skipped = target - self.cycle;
        self.bulk_account(skipped);
        if self.trace_enabled || self.timeline_enabled {
            let o = &self.last_outcomes;
            self.ff_spans.push(FfSpan {
                start: self.cycle + 1,
                len: skipped,
                ieu: o.ieu,
                feu: o.feu,
                veu: o.veu,
                ifu: o.ifu,
                scus: o.scus.clone(),
            });
        }
        self.cycle = target;
    }

    /// Did the cycle that just completed change no architectural state,
    /// with every unit's outcome constant until the next event?
    fn can_fast_forward(&self) -> bool {
        // Progress (an instruction retired, a request issued or delivered,
        // a store drained, an IFU transfer) means the next cycle differs.
        if self.last_progress == self.cycle {
            return false;
        }
        let o = &self.last_outcomes;
        repeats(o.ieu)
            && repeats(o.feu)
            && repeats(o.veu)
            && repeats(o.ifu)
            && o.scus.iter().all(|&s| repeats(s))
    }

    /// The last cycle that is provably identical to the one just
    /// simulated: one before the next event, clamped so the deadlock
    /// detector and the cycle-limit timeout fire at exactly the cycle the
    /// per-cycle stepper would report. `None` when there is nothing to
    /// skip.
    fn fast_forward_target(&self) -> Option<u64> {
        let mut next = u64::MAX;
        // Memory responses are delivered in FIFO order (injected delays
        // hold younger responses behind them), so the head of the
        // in-flight queue is the next delivery — including dropped
        // responses, which are discarded (and counted) at their due cycle.
        if let Some(f) = self.in_flight.front() {
            next = next.min(f.due);
        }
        // Builtin I/O releases the IFU at `ifu_hold`.
        if self.ifu_hold > self.cycle {
            next = next.min(self.ifu_hold);
        }
        // A busy DRAM bank freeing can flip a memory-hierarchy refusal
        // (`Stall::BankBusy`, or a silently-held store drain) to accept.
        if let Some(t) = self.memsys.next_event(self.cycle) {
            next = next.min(t);
        }
        for (i, s) in self.scus.iter().enumerate() {
            // An SCU leaving configuration setup starts issuing requests.
            // (A disabled SCU never leaves `Stall::Disabled`, so its
            // `ready_at` is not an event.)
            if s.active && !self.scu_disabled(i) && s.ready_at > self.cycle {
                next = next.min(s.ready_at);
            }
            // A squashed slot leaving recovery flips `Stall::SpecSquash`
            // to `Idle` — and lets a stalled stream configuration claim
            // the slot — even if nothing else changes.
            if !s.active && s.squash_until > self.cycle {
                next = next.min(s.squash_until);
            }
        }
        for &(i, c) in &self.config.fault_plan.disable_scus {
            // A pending SCU kill flips that SCU's attribution to
            // `Stall::Disabled` at cycle `c` even if nothing else changes.
            if c > self.cycle && self.scus.get(i).is_some_and(|s| s.active) {
                next = next.min(c);
            }
        }
        // A channel entry coming due lets a stalled receive — SCU or
        // scalar `Crecv` — pop it (untiled machines have no queues).
        for q in &self.chan_rx {
            if let Some(e) = q.front() {
                if e.due > self.cycle {
                    next = next.min(e.due);
                }
            }
        }
        // The step *at* the event cycle must be simulated normally; only
        // the strictly-identical cycles before it are skipped.
        let mut target = next.saturating_sub(1).min(self.config.max_cycles);
        if self.ff_horizon == u64::MAX {
            // the per-cycle run reports Deadlock at last_progress +
            // DEADLOCK_WINDOW + 1 and Timeout at max_cycles; never jump
            // past either, so terminal errors carry identical cycles
            target = target.min(self.last_progress + DEADLOCK_WINDOW + 1);
        } else {
            // Tiled: deadlock is a *global* property judged at epoch
            // barriers, so the per-tile clamp would only degrade long
            // channel waits to per-cycle stepping. Bound the jump to the
            // end of the current epoch instead.
            target = target.min(self.ff_horizon);
        }
        (target > self.cycle).then_some(target)
    }

    /// Account `n` skipped cycles exactly as `n` repetitions of the cycle
    /// just simulated: same per-unit outcome buckets, same IFU stall
    /// counter, same memory-port histogram cell.
    fn bulk_account(&mut self, n: u64) {
        let o = &self.last_outcomes;
        self.perf.ieu.record_n(o.ieu, n);
        self.perf.feu.record_n(o.feu, n);
        self.perf.veu.record_n(o.veu, n);
        self.perf.ifu.record_n(o.ifu, n);
        if self.scus_asleep.is_some() {
            self.scu_idle_pending += n;
        } else {
            for (i, scu) in self.perf.scus.iter_mut().enumerate() {
                scu.unit.record_n(o.scus[i], n);
            }
        }
        // every IFU stall outcome increments `ifu_stalls` exactly once
        // per cycle in the per-cycle stepper
        if matches!(o.ifu, Outcome::Stall(_)) {
            self.stats.ifu_stalls += n;
        }
        // no memory request is accepted in a no-progress span
        self.perf.ports[0] += n;
        // Stream-buffer occupancy only changes when a request is
        // accepted (a progress cycle), so the whole span sits at the
        // current occupancy — mirroring the FIFO-depth histograms.
        if let Some(m) = self.perf.mem.as_mut() {
            m.sample_occupancy_n(self.memsys.occupancy(), n);
        }
    }
}
