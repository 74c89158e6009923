//! Classical optimization phases.
//!
//! Each phase is a function `fn(&mut Function) -> bool` returning exactly
//! whether it changed the function, so the pipeline can re-invoke phases
//! until a fixed point — the paper's third strategy ("optimization phases
//! to be reinvoked at any time") — and skip a phase that cannot change
//! anything ([`crate::pipeline::Fixpoint`]).

mod cleanup;
mod combine;
mod constfold;
mod copyprop;
mod cse;
mod dce;
mod licm;

pub use cleanup::simplify_cfg;
pub use combine::combine_duals;
pub use constfold::{fold_constant_branches, fold_constants, propagate_single_def_constants};
pub use copyprop::{coalesce_copy_chains, propagate_copies};
pub use cse::eliminate_common_subexpressions;
pub(crate) use dce::mark_dead_code;
pub use dce::{eliminate_dead_code, eliminate_dead_load_pairs};
pub use licm::hoist_invariants;
