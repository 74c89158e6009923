//! Operands and right-hand-side expressions of RTLs.

use crate::module::SymId;
use crate::ops::{AutoMode, BinOp, UnOp, Width};
use crate::reg::Reg;

/// A leaf operand of an RTL expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A register (reading FIFO register 0/1 dequeues from the unit's input
    /// FIFO on the WM).
    Reg(Reg),
    /// Integer immediate.
    Imm(i64),
    /// Floating-point immediate.
    FImm(f64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// The integer immediate, if this operand is one.
    pub fn imm(self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(v),
            _ => None,
        }
    }

    /// Is this a constant (integer or float immediate)?
    pub fn is_const(self) -> bool {
        matches!(self, Operand::Imm(_) | Operand::FImm(_))
    }

    /// Become `to` if this operand is register `from`. Returns whether
    /// the operand changed (`to` may be `from` itself).
    pub(crate) fn replace(&mut self, from: Reg, to: Operand) -> bool {
        let hit = *self == Operand::Reg(from) && to != Operand::Reg(from);
        if hit {
            *self = to;
        }
        hit
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Operand {
        Operand::FImm(v)
    }
}

/// The right-hand side of an assignment RTL.
///
/// `Dual` is the WM two-operation form: "most instructions encode two
/// operations in a single 32-bit word … `R0 := (R1 op1 R2) op2 R3`". The
/// operation in parentheses is the *inner* operator, executed by ALU1; the
/// outer operator is executed by ALU2.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Plain copy or constant: `dst := a`.
    Op(Operand),
    /// Unary operation: `dst := op a`.
    Un(UnOp, Operand),
    /// Single binary operation: `dst := (a) op b`.
    Bin(BinOp, Operand, Operand),
    /// WM dual operation: `dst := (a inner b) outer c`.
    Dual {
        inner: BinOp,
        a: Operand,
        b: Operand,
        outer: BinOp,
        c: Operand,
    },
}

impl RExpr {
    /// Iterate over the leaf operands of the expression.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let slots: [Option<Operand>; 3] = match *self {
            RExpr::Op(a) => [Some(a), None, None],
            RExpr::Un(_, a) => [Some(a), None, None],
            RExpr::Bin(_, a, b) => [Some(a), Some(b), None],
            RExpr::Dual { a, b, c, .. } => [Some(a), Some(b), Some(c)],
        };
        slots.into_iter().flatten()
    }

    /// Iterate over the registers read by the expression.
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.operands().filter_map(Operand::reg)
    }

    /// Replace every occurrence of register `from` with operand `to`.
    /// Returns whether an operand changed.
    pub fn substitute(&mut self, from: Reg, to: Operand) -> bool {
        let fix = |op: &mut Operand| op.replace(from, to);
        match self {
            RExpr::Op(a) | RExpr::Un(_, a) => fix(a),
            RExpr::Bin(_, a, b) => fix(a) | fix(b),
            RExpr::Dual { a, b, c, .. } => fix(a) | fix(b) | fix(c),
        }
    }

    /// Is this a plain register-to-register copy? Returns the source.
    pub fn as_copy(&self) -> Option<Reg> {
        match self {
            RExpr::Op(Operand::Reg(r)) => Some(*r),
            _ => None,
        }
    }
}

/// A generic (pre-expansion / scalar-target) memory reference:
/// `[sym + base + (index << scale) + disp]`.
///
/// The WM form splits a reference into an address computation executed by
/// the IEU and a FIFO transfer; this structured form is what the front end
/// produces and what the scalar machines of Table I execute directly.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRef {
    /// Static base symbol (a global), if any.
    pub sym: Option<SymId>,
    /// Dynamic base register, if any.
    pub base: Option<Reg>,
    /// Scaled index register: `index << scale`.
    pub index: Option<(Reg, u8)>,
    /// Constant displacement in bytes.
    pub disp: i64,
    /// Access width.
    pub width: Width,
    /// Auto-increment/-decrement mode (scalar target instruction selection).
    pub auto: AutoMode,
}

impl MemRef {
    /// A reference to a global symbol plus displacement.
    pub fn sym(sym: SymId, disp: i64, width: Width) -> MemRef {
        MemRef {
            sym: Some(sym),
            base: None,
            index: None,
            disp,
            width,
            auto: AutoMode::None,
        }
    }

    /// A reference through a base register.
    pub fn base(base: Reg, disp: i64, width: Width) -> MemRef {
        MemRef {
            sym: None,
            base: Some(base),
            index: None,
            disp,
            width,
            auto: AutoMode::None,
        }
    }

    /// Registers read to form the address (base and index).
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index.map(|(r, _)| r))
    }

    /// Registers *written* by the access (auto-increment modifies the base).
    pub fn auto_def(&self) -> Option<Reg> {
        if self.auto == AutoMode::None {
            None
        } else {
            self.base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegClass;

    fn r(n: u32) -> Reg {
        Reg::virt(RegClass::Int, n)
    }

    #[test]
    fn operand_accessors() {
        assert_eq!(Operand::Imm(4).imm(), Some(4));
        assert_eq!(Operand::Imm(4).reg(), None);
        assert!(Operand::FImm(1.5).is_const());
        assert!(!Operand::Reg(r(0)).is_const());
        let o: Operand = r(3).into();
        assert_eq!(o.reg(), Some(r(3)));
    }

    #[test]
    fn expr_operand_iteration() {
        let e = RExpr::Dual {
            inner: BinOp::Shl,
            a: r(1).into(),
            b: Operand::Imm(3),
            outer: BinOp::Add,
            c: r(2).into(),
        };
        let regs: Vec<Reg> = e.regs().collect();
        assert_eq!(regs, vec![r(1), r(2)]);
        assert_eq!(e.operands().count(), 3);
    }

    #[test]
    fn substitution() {
        let mut e = RExpr::Bin(BinOp::Add, r(1).into(), r(1).into());
        assert!(e.substitute(r(1), Operand::Imm(9)));
        assert_eq!(e, RExpr::Bin(BinOp::Add, Operand::Imm(9), Operand::Imm(9)));
        assert!(
            !e.substitute(r(1), Operand::Imm(9)),
            "nothing left to rewrite"
        );
        let mut same = RExpr::Op(r(2).into());
        assert!(!same.substitute(r(2), r(2).into()), "a register for itself");
    }

    #[test]
    fn copy_detection() {
        assert_eq!(RExpr::Op(Operand::Reg(r(4))).as_copy(), Some(r(4)));
        assert_eq!(RExpr::Op(Operand::Imm(4)).as_copy(), None);
    }

    #[test]
    fn memref_regs_and_auto() {
        let mut m = MemRef::base(r(1), 8, Width::D8);
        m.index = Some((r(2), 3));
        let regs: Vec<Reg> = m.regs().collect();
        assert_eq!(regs, vec![r(1), r(2)]);
        assert_eq!(m.auto_def(), None);
        m.auto = AutoMode::PostInc;
        assert_eq!(m.auto_def(), Some(r(1)));
    }
}
