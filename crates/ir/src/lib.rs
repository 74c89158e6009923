//! Register transfer list (RTL) intermediate representation.
//!
//! The compiler described in the paper operates on *register transfer lists*:
//! expressions and assignments over the hardware's storage cells, e.g.
//!
//! ```text
//! r[3] = (r[4] * r[5]) + r[6];
//! ```
//!
//! "Any particular RTL is machine specific, but the form of the RTL is
//! machine independent. The optimizer uses RTLs because their
//! machine-independent form permits it to optimize machine-specific code in a
//! machine-independent way."
//!
//! This crate provides that representation as structured data:
//!
//! * [`Reg`], [`Operand`], [`RExpr`] — storage cells and expressions,
//!   including the WM dual-operation form `(a op1 b) op2 c`;
//! * [`Inst`] / [`InstKind`] — one RTL, covering both the *generic*
//!   load/store form used before target expansion (and by the scalar
//!   machines of Table I) and the *WM access/execute* form where loads
//!   compute an address and deliver data through FIFO register 0/1;
//! * [`Function`], [`Block`], [`Module`] — the control-flow container;
//! * [`hw`] — the hardware facts the compiler and the simulator share;
//! * a paper-style pretty printer (`Display` impls) so listings can be
//!   compared with Figures 4, 5, 6 and 7 of the paper.
//!
//! # Example
//!
//! ```
//! use wm_ir::{Function, RegClass, RExpr, Operand, BinOp};
//!
//! let mut f = Function::new("demo", 0, 0);
//! let entry = f.entry_label();
//! let v = f.new_vreg(RegClass::Int);
//! let one = Operand::Imm(1);
//! f.push(entry, wm_ir::InstKind::Assign {
//!     dst: v,
//!     src: RExpr::Bin(BinOp::Add, one, Operand::Imm(2)),
//! });
//! assert_eq!(f.block(entry).insts.len(), 1);
//! ```

mod builder;
mod display;
mod expr;
mod func;
pub mod hw;
mod inst;
mod module;
mod ops;
mod reg;

pub use builder::FuncBuilder;
pub use expr::{MemRef, Operand, RExpr};
pub use func::{Block, Function, Label};
pub use inst::{DataFifo, Inst, InstId, InstKind, MemAccess};
pub use module::{Global, GlobalKind, Module, SymId};
pub use ops::{AutoMode, BinOp, CmpOp, UnOp, Width};
pub use reg::{Reg, RegClass, RegKind, FIRST_ARG_REG, NUM_ARG_REGS, NUM_PHYS, SP_REG, ZERO_REG};
