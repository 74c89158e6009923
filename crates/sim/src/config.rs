//! Simulator configuration.

use std::ops::RangeInclusive;

use crate::fastforward::Engine;
use crate::mem::MemModel;

/// Legal data-FIFO capacities ([`WmConfig::fifo_capacity`]). Register 0
/// *is* a FIFO pair, so a zero-capacity FIFO could never transfer a
/// datum; the upper bound keeps the occupancy histograms (one counter
/// per depth, per FIFO) a small allocation, far above the deepest FIFO
/// any sweep uses (32).
pub const FIFO_CAPACITY_RANGE: RangeInclusive<usize> = 1..=1024;

/// Legal memory-port counts ([`WmConfig::mem_ports`]). A machine that can
/// never accept a memory request cannot run any program; the upper bound
/// keeps the port-usage histogram (one counter per port count) a small
/// allocation.
pub const MEM_PORTS_RANGE: RangeInclusive<u32> = 1..=64;

/// Legal tile counts ([`WmConfig::tiles`]): the channel fabric addresses
/// peers with a 3-bit tile id.
pub const TILES_RANGE: RangeInclusive<usize> = 1..=8;

/// Legal values of every cycle count the simulator adds to the current
/// cycle: [`WmConfig::mem_latency`], [`WmConfig::squash_penalty`], the
/// timing keys of a [`MemModel`] and the delays and jitter of a
/// [`FaultPlan`]. The bound, about twice the default
/// [`WmConfig::max_cycles`], keeps every due cycle far from `u64`
/// overflow.
pub const CYCLES_RANGE: RangeInclusive<u64> = 0..=u32::MAX as u64;

/// VEU lanes: elements processed per cycle by one vector instruction.
pub const VEU_LANES: usize = 4;

/// Cycles charged for a builtin I/O call (`putchar`): system-call
/// overhead on the simulated machine.
pub const IO_LATENCY: u64 = 20;

/// Cycles for a value to cross the inter-core channel fabric (from a send
/// being staged to the entry becoming poppable at the receiver).
pub const CHAN_LATENCY: u64 = 16;

/// Cycles between cross-core synchronization epochs. Messages staged
/// during an epoch are routed at the barrier that ends it, due
/// [`CHAN_LATENCY`] cycles later — deterministic for any epoch length and
/// any host thread count.
pub const CHAN_EPOCH: u64 = 1024;

/// Deterministic fault-injection plan: degrade the simulated hardware in
/// reproducible ways to exercise the deadlock detector and the stall
/// accounting rather than only the happy path.
///
/// Memory requests are numbered from 1 in issue order across the whole
/// run; injected delays keep delivery in order (a delayed response blocks
/// younger ones behind it, as the memory system delivers in FIFO order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(request #, extra cycles)`: delay the response to a request.
    pub delays: Vec<(u64, u64)>,
    /// Request #s whose response is silently dropped (the machine should
    /// wedge and the deadlock detector should attribute the loss).
    pub drops: Vec<u64>,
    /// `(scu index, cycle)`: the SCU stops issuing requests at the cycle.
    pub disable_scus: Vec<(usize, u64)>,
    /// Seed for deterministic per-request latency jitter (`None` = off).
    pub jitter_seed: Option<u64>,
    /// Maximum extra cycles of jitter per request.
    pub jitter_max: u64,
}

impl FaultPlan {
    /// No injection at all (the default).
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
            && self.drops.is_empty()
            && self.disable_scus.is_empty()
            && self.jitter_seed.is_none()
    }

    /// Parse a comma-separated spec: `delay:N:C` (delay request #N by C
    /// cycles), `drop:N` (drop request #N's response), `scu:I:C` (disable
    /// SCU I at cycle C), `jitter:SEED:MAX` (seeded latency jitter up to
    /// MAX extra cycles). C of `delay` and MAX of `jitter` are cycle
    /// counts within [`CYCLES_RANGE`].
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let fields: Vec<&str> = part.split(':').collect();
            let num = |s: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| format!("bad number `{s}` in fault spec `{part}`"))
            };
            let cycles = |s: &str| -> Result<u64, String> {
                let n = num(s)?;
                if !CYCLES_RANGE.contains(&n) {
                    return Err(format!(
                        "cycle count `{s}` in fault spec `{part}` must be at most {}",
                        CYCLES_RANGE.end()
                    ));
                }
                Ok(n)
            };
            match fields.as_slice() {
                ["delay", n, c] => plan.delays.push((num(n)?, cycles(c)?)),
                ["drop", n] => plan.drops.push(num(n)?),
                ["scu", i, c] => plan.disable_scus.push((num(i)? as usize, num(c)?)),
                ["jitter", seed, max] => {
                    plan.jitter_seed = Some(num(seed)?);
                    plan.jitter_max = cycles(max)?;
                }
                _ => {
                    return Err(format!(
                        "bad fault directive `{part}` (expected delay:N:C, \
                         drop:N, scu:I:C or jitter:SEED:MAX)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

/// Timing and capacity parameters of the simulated WM implementation.
///
/// The defaults model a plausible early-1990s implementation: a handful of
/// cycles of memory latency, two memory ports (enough to sustain the
/// two-loads-per-cycle dot-product inner loop the paper describes as
/// producing "the dot product in N clock cycles"), and eight-deep data
/// FIFOs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WmConfig {
    /// Cycles from a memory request being accepted to data delivery.
    pub mem_latency: u64,
    /// Memory requests accepted per cycle (scalar units have priority over
    /// the stream control units).
    pub mem_ports: u32,
    /// Capacity of each data FIFO (input and output).
    pub fifo_capacity: usize,
    /// Capacity of each condition-code FIFO.
    pub cc_capacity: usize,
    /// Capacity of each unit's instruction queue.
    pub iq_capacity: usize,
    /// Capacity of each unit's store-address queue.
    pub store_queue: usize,
    /// Cycles an SCU spends latching a stream configuration before its
    /// first memory request (setup cost of `Sin`/`Sout`).
    pub scu_setup: u64,
    /// Number of stream control units.
    pub num_scus: usize,
    /// Bytes of simulated memory.
    pub memory_size: usize,
    /// Hard cycle limit (guards against runaway programs).
    pub max_cycles: u64,
    /// Cycles an SCU is held busy after a speculative-stream squash —
    /// a `Sstop` that discards fetched-ahead elements (queued or in
    /// flight). `0` (the default) makes squashes free, which keeps the
    /// timing of pre-existing workloads unchanged; nonzero values model
    /// the recovery cost of mis-speculated streams.
    pub squash_penalty: u64,
    /// Deterministic fault injection (empty by default).
    pub fault_plan: FaultPlan,
    /// Stepping engine: skip the work nothing needs, fast-forwarding
    /// all-stalled spans (the default), or step every unit every cycle
    /// (the reference). Both issue from the pre-decoded tables.
    /// Bit-identical counters either way.
    pub engine: Engine,
    /// Memory-system model: `flat` (the default; every request costs
    /// `mem_latency`), or a hierarchy with an L1 data cache, stream
    /// buffers and optionally banked DRAM (see [`MemModel`]). Under a
    /// hierarchical model `mem_latency` is ignored; the model's own
    /// timing parameters apply.
    pub mem_model: MemModel,
    /// Number of WM cores in the tiled machine. `1` (the default) is the
    /// plain single-core machine on its existing code path; values above
    /// 1 instantiate a [`TiledMachine`](crate::TiledMachine) with
    /// point-to-point inter-core channels.
    pub tiles: usize,
    /// Per-sender receive-queue capacity. A scalar `Csend` ignores
    /// credits, so flooding past this poisons the overflowing entries;
    /// SCU stream sends respect credits and stall instead. Credits are
    /// returned only at epoch barriers, so the capacity bounds a
    /// channel's throughput at `chan_capacity /` [`CHAN_EPOCH`] elements
    /// per cycle — keep it a few times the epoch length or the channels,
    /// not the cores, become the bottleneck.
    pub chan_capacity: usize,
}

impl Default for WmConfig {
    fn default() -> WmConfig {
        WmConfig {
            mem_latency: wm_ir::hw::MEM_LATENCY,
            mem_ports: 2,
            fifo_capacity: 8,
            cc_capacity: 8,
            iq_capacity: wm_ir::hw::IQ_CAPACITY,
            store_queue: 8,
            scu_setup: 4,
            num_scus: 4,
            memory_size: 16 << 20,
            max_cycles: 2_000_000_000,
            squash_penalty: 0,
            fault_plan: FaultPlan::default(),
            engine: Engine::default(),
            mem_model: MemModel::default(),
            tiles: 1,
            chan_capacity: 4096,
        }
    }
}

impl WmConfig {
    /// A configuration with a different memory latency (flat model only;
    /// hierarchical models carry their own timing). `0` delivers
    /// responses at the start of the next cycle.
    ///
    /// Valid range: [`CYCLES_RANGE`].
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is outside [`CYCLES_RANGE`].
    pub fn with_mem_latency(mut self, cycles: u64) -> WmConfig {
        assert!(
            CYCLES_RANGE.contains(&cycles),
            "with_mem_latency: cycles must be in {CYCLES_RANGE:?}, got {cycles}"
        );
        self.mem_latency = cycles;
        self
    }

    /// A configuration with a different number of memory ports.
    ///
    /// Valid range: [`MEM_PORTS_RANGE`].
    ///
    /// # Panics
    ///
    /// Panics if `ports` is outside [`MEM_PORTS_RANGE`].
    pub fn with_mem_ports(mut self, ports: u32) -> WmConfig {
        assert!(
            MEM_PORTS_RANGE.contains(&ports),
            "with_mem_ports: ports must be >= 1 and <= {}, got {ports}",
            MEM_PORTS_RANGE.end()
        );
        self.mem_ports = ports;
        self
    }

    /// A configuration with a different cycle limit. Any value is valid;
    /// a limit of `0` times out immediately.
    pub fn with_max_cycles(mut self, cycles: u64) -> WmConfig {
        self.max_cycles = cycles;
        self
    }

    /// A configuration with a different data-FIFO capacity.
    ///
    /// Valid range: [`FIFO_CAPACITY_RANGE`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is outside [`FIFO_CAPACITY_RANGE`].
    pub fn with_fifo_capacity(mut self, capacity: usize) -> WmConfig {
        assert!(
            FIFO_CAPACITY_RANGE.contains(&capacity),
            "with_fifo_capacity: capacity must be >= 1 and <= {}, got {capacity}",
            FIFO_CAPACITY_RANGE.end()
        );
        self.fifo_capacity = capacity;
        self
    }

    /// A configuration with a squash-recovery penalty for speculative
    /// streams. `0` (the default) makes squashes free.
    ///
    /// Valid range: [`CYCLES_RANGE`].
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is outside [`CYCLES_RANGE`].
    pub fn with_squash_penalty(mut self, cycles: u64) -> WmConfig {
        assert!(
            CYCLES_RANGE.contains(&cycles),
            "with_squash_penalty: cycles must be in {CYCLES_RANGE:?}, got {cycles}"
        );
        self.squash_penalty = cycles;
        self
    }

    /// A configuration with a fault-injection plan. Any plan parsed by
    /// [`FaultPlan::parse`] is valid.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> WmConfig {
        self.fault_plan = plan;
        self
    }

    /// A configuration with an explicit stepping engine. Both engines are
    /// always valid (they produce bit-identical results).
    pub fn with_engine(mut self, engine: Engine) -> WmConfig {
        self.engine = engine;
        self
    }

    /// A configuration with an explicit memory-system model. Any model
    /// produced by [`MemModel::parse`] (which validates its parameters)
    /// is valid.
    pub fn with_mem_model(mut self, model: MemModel) -> WmConfig {
        self.mem_model = model;
        self
    }

    /// A configuration with `n` tiles.
    ///
    /// Valid range: [`TILES_RANGE`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside [`TILES_RANGE`].
    pub fn with_tiles(mut self, n: usize) -> WmConfig {
        assert!(
            TILES_RANGE.contains(&n),
            "with_tiles: tiles must be in {TILES_RANGE:?}, got {n}"
        );
        self.tiles = n;
        self
    }

    /// A configuration with a different per-sender channel capacity.
    ///
    /// Valid range: `capacity >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_chan_capacity(mut self, capacity: usize) -> WmConfig {
        assert!(
            capacity >= 1,
            "with_chan_capacity: capacity must be >= 1, got 0"
        );
        self.chan_capacity = capacity;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = WmConfig::default()
            .with_mem_latency(12)
            .with_mem_ports(1)
            .with_fifo_capacity(1)
            .with_max_cycles(10)
            .with_mem_model(MemModel::parse("cache").unwrap());
        assert_eq!(c.mem_latency, 12);
        assert_eq!(c.mem_ports, 1);
        assert_eq!(c.fifo_capacity, 1);
        assert_eq!(c.max_cycles, 10);
        assert_eq!(c.mem_model.name(), "cache");
        assert!(
            WmConfig::default().mem_model.is_flat(),
            "flat is the default"
        );
    }

    #[test]
    #[should_panic(expected = "ports must be >= 1")]
    fn zero_mem_ports_is_rejected() {
        let _ = WmConfig::default().with_mem_ports(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_fifo_capacity_is_rejected() {
        let _ = WmConfig::default().with_fifo_capacity(0);
    }

    #[test]
    #[should_panic(expected = "cycles must be in 0..=4294967295")]
    fn mem_latency_past_the_cycle_range_is_rejected() {
        let _ = WmConfig::default().with_mem_latency(CYCLES_RANGE.end() + 1);
    }

    #[test]
    #[should_panic(expected = "cycles must be in 0..=4294967295")]
    fn squash_penalty_past_the_cycle_range_is_rejected() {
        let _ = WmConfig::default().with_squash_penalty(CYCLES_RANGE.end() + 1);
    }

    #[test]
    fn fault_plan_parses() {
        let p = FaultPlan::parse("delay:3:40,drop:7,scu:1:100,jitter:42:5").unwrap();
        assert_eq!(p.delays, vec![(3, 40)]);
        assert_eq!(p.drops, vec![7]);
        assert_eq!(p.disable_scus, vec![(1, 100)]);
        assert_eq!(p.jitter_seed, Some(42));
        assert_eq!(p.jitter_max, 5);
        assert!(!p.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("delay:x:1").is_err());
        assert!(FaultPlan::parse("explode:now").is_err());
    }

    #[test]
    fn fault_plan_cycle_counts_stop_at_the_range_end() {
        let end = *CYCLES_RANGE.end();
        let p = FaultPlan::parse(&format!("delay:1:{end},jitter:7:{end}")).unwrap();
        assert_eq!((p.delays[0].1, p.jitter_max), (end, end));
        for spec in [
            format!("delay:1:{}", end + 1),
            format!("jitter:7:{}", end + 1),
        ] {
            let err = FaultPlan::parse(&spec).unwrap_err();
            assert!(err.contains("must be at most"), "{spec}: {err}");
        }
        // request numbers, SCU indices, cycles and seeds are not added to
        // the current cycle: any value parses
        let max = u64::MAX;
        assert!(FaultPlan::parse(&format!(
            "delay:{max}:1,drop:{max},scu:1:{max},jitter:{max}:1"
        ))
        .is_ok());
    }
}
