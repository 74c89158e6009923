//! Hardware facts the compiler and the simulator share.
//!
//! The compiler generates code against these facts and the simulator's
//! default machine is built from them, so each is defined once, here: the
//! one crate both `wm-opt` and `wm-sim` depend on.

/// Vector length N of the VEU's registers: the elements one vector
/// instruction processes, and so the strip size the vectorizer emits.
pub const VECTOR_LENGTH: usize = 32;

/// Capacity of each execute unit's instruction queue on the default
/// machine; the modulo scheduler's greedy-interval estimator models the
/// same queues.
pub const IQ_CAPACITY: usize = 16;

/// Cycles from a memory request being accepted to data delivery on the
/// default flat memory; the modulo scheduler's load-to-pop latency.
pub const MEM_LATENCY: u64 = 6;
