//! The Recurrence Detection and Optimization Algorithm (paper Steps 1–4).
//!
//! For each innermost loop the pass builds the memory-reference partitions
//! of [`crate::partition`], identifies read/write pairs "where a read
//! fetches the value written on a previous iteration" (Step 4a), and then:
//!
//! * keeps the written value in a register at the write (Step 4b),
//! * replaces the paired loads with register references (Step 4b),
//! * emits the shift chain `h[d] := h[d-1]` at the top of the loop
//!   (Step 4c, "if the order of the recurrence is greater than 1, it is
//!   important to emit the copies in the proper order"),
//! * builds a loop preheader performing the initial reads (Step 4d).
//!
//! The transformation runs on the *generic* RTL form, which is what makes
//! it "largely machine-independent"; only ~30–50 lines (the replacement of
//! memory references with register references) would differ per target, and
//! here they are shared by both the WM and scalar backends.

use wm_ir::{Function, Inst, InstKind, MemRef, Operand, RExpr, Reg, RegClass, Width};

use crate::affine::{LoopAnalysis, Region};
use crate::cfg::{ensure_preheader, natural_loops, Dominators};
use crate::partition::{build_partitions, AliasModel};

/// Highest recurrence degree optimized: a degree-`d` recurrence needs
/// `d + 1` registers ("in general, you need one more register than the
/// degree of the recurrence"), so partitions needing more are left alone.
const MAX_DEGREE: i64 = 4;

/// What the pass did, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecurrenceReport {
    /// Loops in which at least one recurrence was optimized.
    pub loops_transformed: usize,
    /// Loads deleted and replaced by register references.
    pub loads_eliminated: usize,
    /// Highest recurrence degree handled.
    pub max_degree: i64,
}

/// Run the recurrence optimization on every innermost loop of `func`,
/// up to recurrence degree 4.
#[must_use]
pub fn optimize_recurrences(func: &mut Function, alias: AliasModel) -> RecurrenceReport {
    let mut report = RecurrenceReport::default();
    // Loop discovery is repeated after each transformed loop because the
    // preheader insertion renumbers blocks.
    let mut visited_headers: Vec<wm_ir::Label> = Vec::new();
    loop {
        let dom = Dominators::compute(func);
        let loops = natural_loops(func, &dom);
        let candidate = loops.iter().find(|lp| {
            lp.is_innermost(&loops) && !visited_headers.contains(&func.blocks[lp.header].label)
        });
        let Some(lp) = candidate else { break };
        visited_headers.push(func.blocks[lp.header].label);
        let lp = lp.clone();
        // A call inside the loop may store to any partition; leave such
        // loops alone.
        let has_call = lp.blocks.iter().any(|&bi| {
            func.blocks[bi]
                .insts
                .iter()
                .any(|i| matches!(i.kind, InstKind::Call { .. }))
        });
        if has_call {
            continue;
        }
        let plans = {
            let la = LoopAnalysis::new(func, &lp, &dom);
            let parts = build_partitions(&la, alias);
            parts
                .partitions
                .iter()
                .filter_map(|p| plan_partition(&la, p))
                .collect::<Vec<Plan>>()
        };
        if plans.is_empty() {
            continue;
        }
        for plan in plans {
            report.loads_eliminated += plan.reads.len();
            report.max_degree = report.max_degree.max(plan.degree);
            apply_plan(func, &lp, plan);
        }
        report.loops_transformed += 1;
    }
    report
}

/// A planned transformation for one partition (no registers allocated yet —
/// planning only borrows the function).
#[derive(Debug)]
struct Plan {
    /// The write instruction (by stable id — other plans' insertions in the
    /// same loop shift raw positions).
    write: wm_ir::InstId,
    /// Paired reads: `(id, distance)`.
    reads: Vec<(wm_ir::InstId, i64)>,
    /// Recurrence degree (max distance).
    degree: i64,
    /// Access width (determines the holding-register class).
    width: Width,
    /// Region, IV and coefficients for the initial preheader loads.
    region: Region,
    iv: Reg,
    cee: i64,
    stride: i64,
    /// The write's `dee` (offset from region base).
    w_off: i64,
}

fn plan_partition(la: &LoopAnalysis<'_>, p: &crate::partition::MemPartition) -> Option<Plan> {
    if !p.safe {
        return None;
    }
    let pairs = p.recurrence_pairs();
    if pairs.is_empty() {
        return None;
    }
    // Conservative scope: exactly one write in the partition.
    let writes: Vec<usize> = p
        .refs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_load)
        .map(|(i, _)| i)
        .collect();
    if writes.len() != 1 {
        return None;
    }
    let wi = writes[0];
    let wref = &p.refs[wi];
    // The write must execute every iteration for the holding registers to
    // stay in sync.
    if !la
        .lp
        .latches
        .iter()
        .all(|&l| la.dom.dominates(wref.pos.0, l))
    {
        return None;
    }
    // Only generic-form references are transformed here.
    if !matches!(
        la.func.blocks[wref.pos.0].insts[wref.pos.1].kind,
        InstKind::GStore { .. }
    ) {
        return None;
    }
    let degree = pairs.iter().map(|p| p.distance).max().unwrap();
    if degree > MAX_DEGREE {
        return None;
    }
    // The preheader loads need a power-of-two coefficient to form a scaled
    // address.
    if p.cee <= 0 || !(p.cee as u64).is_power_of_two() {
        return None;
    }
    if p.region == Region::Unknown {
        return None;
    }
    // Preheader priming loads do not materialize invariant-term addresses.
    if p.refs
        .iter()
        .any(|r| r.affine.as_ref().map(|a| a.inv.is_some()).unwrap_or(true))
    {
        return None;
    }
    let mut reads = Vec::new();
    for pair in &pairs {
        if pair.write != wi {
            return None;
        }
        let rref = &p.refs[pair.read];
        if !matches!(
            la.func.blocks[rref.pos.0].insts[rref.pos.1].kind,
            InstKind::GLoad { .. }
        ) {
            return None;
        }
        reads.push((rref.id, pair.distance));
    }
    Some(Plan {
        write: wref.id,
        reads,
        degree,
        width: wref.width,
        region: p.region,
        iv: p.iv.expect("safe partition has an IV"),
        cee: p.cee,
        stride: p.stride,
        w_off: wref.affine.as_ref().expect("safe implies affine").off,
    })
}

/// Locate an instruction by its stable id.
fn find_inst(func: &Function, id: wm_ir::InstId) -> (usize, usize) {
    for (bi, block) in func.blocks.iter().enumerate() {
        for (ii, inst) in block.insts.iter().enumerate() {
            if inst.id == id {
                return (bi, ii);
            }
        }
    }
    unreachable!("instruction {id} vanished during the recurrence transform")
}

fn apply_plan(func: &mut Function, lp: &crate::cfg::Loop, plan: Plan) {
    let header_label = func.blocks[lp.header].label;
    let class = if plan.width == Width::D8 {
        RegClass::Flt
    } else {
        RegClass::Int
    };
    // h[0] holds the value written this iteration; h[d] the value written d
    // iterations ago.
    let holds: Vec<Reg> = (0..=plan.degree).map(|_| func.new_vreg(class)).collect();

    // Step 4b (write side): before the write, copy the stored value into
    // h[0], and store from h[0]. Instructions are found by id: earlier
    // plans' insertions shift raw positions.
    {
        let (bi, ii) = find_inst(func, plan.write);
        let h0 = holds[0];
        let (src, mem) = match &func.blocks[bi].insts[ii].kind {
            InstKind::GStore { src, mem } => (*src, mem.clone()),
            other => unreachable!("planned write is a store: {other:?}"),
        };
        let copy_id = func.new_inst_id();
        func.blocks[bi].insts[ii].kind = InstKind::GStore {
            src: Operand::Reg(h0),
            mem,
        };
        func.blocks[bi].insts.insert(
            ii,
            Inst {
                id: copy_id,
                kind: InstKind::Assign {
                    dst: h0,
                    src: RExpr::Op(src),
                },
            },
        );
    }
    // Step 4b (read side): replace the loads with register references.
    for &(id, d) in &plan.reads {
        let (bi, ii) = find_inst(func, id);
        let dst = match &func.blocks[bi].insts[ii].kind {
            InstKind::GLoad { dst, .. } => *dst,
            other => unreachable!("planned read is a load: {other:?}"),
        };
        func.blocks[bi].insts[ii].kind = InstKind::Assign {
            dst,
            src: RExpr::Op(Operand::Reg(holds[d as usize])),
        };
    }
    // Step 4c: the copy chain at the top of the loop, highest degree first.
    // Inserting each copy at position 0 in ascending degree order leaves
    // the final order h[degree] := h[degree-1], …, h[1] := h[0].
    for d in 1..=plan.degree {
        let id = func.new_inst_id();
        let kind = InstKind::Assign {
            dst: holds[d as usize],
            src: RExpr::Op(Operand::Reg(holds[(d - 1) as usize])),
        };
        func.block_mut(header_label)
            .insts
            .insert(0, Inst { id, kind });
    }
    // Step 4d: preheader with the initial reads. The IV register still
    // holds its initial value there, so it serves as the index directly.
    let pre = ensure_preheader(func, lp);
    let scale = plan.cee.trailing_zeros() as u8;
    let mut at = func.block(pre).insts.len() - 1; // before the jump
    #[allow(clippy::explicit_counter_loop)] // `at` tracks our own insertions
    for d in 1..=plan.degree {
        let disp = plan.w_off - d * plan.stride;
        let mem = match plan.region {
            Region::Global(sym) => MemRef {
                sym: Some(sym),
                base: None,
                index: Some((plan.iv, scale)),
                disp,
                width: plan.width,
                auto: wm_ir::AutoMode::None,
            },
            Region::Reg(base) => MemRef {
                sym: None,
                base: Some(base),
                index: Some((plan.iv, scale)),
                disp,
                width: plan.width,
                auto: wm_ir::AutoMode::None,
            },
            Region::Unknown => unreachable!("planned regions are known"),
        };
        let id = func.new_inst_id();
        func.block_mut(pre).insts.insert(
            at,
            Inst {
                id,
                kind: InstKind::GLoad {
                    dst: holds[(d - 1) as usize],
                    mem,
                },
            },
        );
        at += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str, name: &str) -> Function {
        let m = wm_frontend::compile(src).unwrap();
        m.function_named(name).unwrap().clone()
    }

    const LOOP5: &str = r"
        double x[1000]; double y[1000]; double z[1000];
        void loop5(int n) {
            int i;
            for (i = 2; i < n; i++)
                x[i] = z[i] * (y[i] - x[i-1]);
        }
    ";

    fn count_mem(f: &Function, lp_blocks: &std::collections::BTreeSet<usize>) -> usize {
        lp_blocks
            .iter()
            .map(|&bi| {
                f.blocks[bi]
                    .insts
                    .iter()
                    .filter(|i| i.kind.mem_access().is_some())
                    .count()
            })
            .sum()
    }

    #[test]
    fn livermore5_loses_one_load() {
        let mut f = compile(LOOP5, "loop5");
        let report = optimize_recurrences(&mut f, AliasModel::Conservative);
        assert_eq!(report.loops_transformed, 1);
        assert_eq!(report.loads_eliminated, 1);
        assert_eq!(report.max_degree, 1);
        // "the major difference ... is that there are now only three memory
        // references in the loop instead of four"
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        assert_eq!(loops.len(), 1);
        assert_eq!(count_mem(&f, &loops[0].blocks), 3);
        // the preheader performs the initial read of x[1]
        let preds = f.predecessors();
        let outside: Vec<usize> = preds[loops[0].header]
            .iter()
            .copied()
            .filter(|p| !loops[0].contains(*p))
            .collect();
        assert_eq!(outside.len(), 1);
        let pre = &f.blocks[outside[0]];
        let init_loads: Vec<&Inst> = pre
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::GLoad { .. }))
            .collect();
        assert_eq!(init_loads.len(), 1);
        match &init_loads[0].kind {
            InstKind::GLoad { mem, .. } => {
                // x + 8*i0 - 8 with i0 = 2 ⇒ disp -8, index (i,3)
                assert_eq!(mem.disp, -8);
                assert!(mem.index.is_some());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn degree_two_needs_three_registers_and_two_initial_loads() {
        let mut f = compile(
            r"
            double a[100];
            void fib(int n) {
                int i;
                for (i = 2; i < n; i++)
                    a[i] = a[i-1] + a[i-2];
            }
        ",
            "fib",
        );
        let report = optimize_recurrences(&mut f, AliasModel::Conservative);
        assert_eq!(report.loads_eliminated, 2);
        assert_eq!(report.max_degree, 2);
        // zero loads remain in the loop; two initial loads in the preheader
        let dom = Dominators::compute(&f);
        let loops = natural_loops(&f, &dom);
        let loads_in_loop: usize = loops[0]
            .blocks
            .iter()
            .map(|&bi| {
                f.blocks[bi]
                    .insts
                    .iter()
                    .filter(|i| matches!(i.kind, InstKind::GLoad { .. }))
                    .count()
            })
            .sum();
        assert_eq!(loads_in_loop, 0);
        // header starts with the ordered copy chain h2 := h1 ; h1 := h0
        let header = &f.blocks[loops[0].header];
        let copies: Vec<(Reg, Reg)> = header
            .insts
            .iter()
            .take(2)
            .filter_map(|i| match &i.kind {
                InstKind::Assign {
                    dst,
                    src: RExpr::Op(Operand::Reg(s)),
                } => Some((*dst, *s)),
                _ => None,
            })
            .collect();
        assert_eq!(copies.len(), 2);
        // first copy's source is the second copy's destination (h2:=h1 then h1:=h0)
        assert_eq!(copies[0].1, copies[1].0);
    }

    #[test]
    fn degree_above_limit_is_skipped() {
        let mut f = compile(
            r"
            double a[100];
            void f(int n) {
                int i;
                for (i = 8; i < n; i++)
                    a[i] = a[i-8];
            }
        ",
            "f",
        );
        let report = optimize_recurrences(&mut f, AliasModel::Conservative);
        assert_eq!(report.loads_eliminated, 0);
    }

    #[test]
    fn aliased_pointer_loops_are_left_alone() {
        const SRC: &str = r"
            double x[100];
            void f(double *p, int n) {
                int i;
                for (i = 1; i < n; i++)
                    x[i] = x[i-1] + p[i];
            }
        ";
        let mut f = compile(SRC, "f");
        // conservatively, p[i] may alias x: no transformation
        let report = optimize_recurrences(&mut f, AliasModel::Conservative);
        assert_eq!(report.loads_eliminated, 0);
        // under no-alias the recurrence on x is optimized
        let mut f2 = compile(SRC, "f");
        let report = optimize_recurrences(&mut f2, AliasModel::NoAlias);
        assert_eq!(report.loads_eliminated, 1);
    }

    #[test]
    fn conditional_write_is_not_transformed() {
        let mut f = compile(
            r"
            double a[100];
            void f(int n) {
                int i;
                for (i = 1; i < n; i++)
                    if (a[i-1] > 0.0)
                        a[i] = a[i-1] * 0.5;
            }
        ",
            "f",
        );
        let report = optimize_recurrences(&mut f, AliasModel::Conservative);
        assert_eq!(
            report.loads_eliminated, 0,
            "write does not dominate the latch"
        );
    }

    #[test]
    fn transformed_code_still_has_the_store() {
        let mut f = compile(LOOP5, "loop5");
        let report = optimize_recurrences(&mut f, AliasModel::Conservative);
        assert_eq!(report.loops_transformed, 1);
        let stores = f
            .insts()
            .filter(|i| matches!(i.kind, InstKind::GStore { .. }))
            .count();
        assert_eq!(stores, 1);
        // the store's source is now a register (h0)
        assert!(f.insts().any(|i| matches!(
            &i.kind,
            InstKind::GStore {
                src: Operand::Reg(r),
                ..
            } if r.is_virt()
        )));
    }

    #[test]
    fn integer_recurrences_use_integer_holding_registers() {
        let mut f = compile(
            r"
            int a[100];
            void f(int n) {
                int i;
                for (i = 1; i < n; i++)
                    a[i] = a[i-1] + 1;
            }
        ",
            "f",
        );
        let report = optimize_recurrences(&mut f, AliasModel::Conservative);
        assert_eq!(report.loads_eliminated, 1);
        // the store source register must be an integer vreg
        let src = f
            .insts()
            .find_map(|i| match &i.kind {
                InstKind::GStore {
                    src: Operand::Reg(r),
                    ..
                } => Some(*r),
                _ => None,
            })
            .unwrap();
        assert_eq!(src.class, RegClass::Int);
    }
}
