//! The optimizer's per-instruction and per-function queries do not touch
//! the heap. A counting global allocator (one count per thread, so tests
//! running in parallel do not count each other) watches every query on
//! every function of every workload, at every stage of the pipeline and at
//! every optimization level:
//!
//! * `uses()`, `defs()`, `targets()` and `targets_mut()` allocate nothing,
//!   except `uses()` on a call with more register arguments than the
//!   inline list holds;
//! * `successor_table()`, `predecessors()`, `Liveness::compute` and
//!   `def_map` allocate a fixed number of buffers, whatever the number of
//!   blocks, instructions and registers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wm_stream::ir::{Function, InstKind, RegClass, RegList};
use wm_stream::opt::affine::def_map;
use wm_stream::opt::liveness::Liveness;
use wm_stream::opt::{optimize_generic, optimize_wm_with, GlobalExtents, OptOptions};
use wm_stream::target::{allocate_registers, expand_wm, TargetKind};
use wm_stream::{frontend, workloads, Compiler, MachineModel, Target};

/// Counts allocations on the calling thread, then defers to `System`.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// count is a thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the number of allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// Register arguments a call can pass before `uses()` spills.
const INLINE: usize = 6;

/// What the checks saw, so the test can show it looked at enough.
#[derive(Default)]
struct Seen {
    functions: usize,
    insts: usize,
    max_blocks: usize,
    max_vregs: u32,
}

/// Check every query on `f` (in place: `targets_mut` needs it mutable,
/// and changes nothing).
fn check(f: &mut Function, at: &str, seen: &mut Seen) {
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            let kind = &inst.kind;
            let (uses, n) = allocations(|| kind.uses());
            let spills = uses.len() > INLINE;
            assert_eq!(n, u64::from(spills), "{at}: uses() of {kind:?}");
            assert_eq!(uses.spilled(), spills, "{at}: {kind:?}");
            let (defs, n) = allocations(|| kind.defs());
            assert_eq!(n, 0, "{at}: defs() of {kind:?}");
            assert!(!defs.spilled(), "{at}: {kind:?}");
            let (targets, n) = allocations(|| kind.targets());
            assert_eq!(n, 0, "{at}: targets() of {kind:?}");
            let (count, n) = allocations(|| inst.kind.targets_mut().into_iter().count());
            assert_eq!(n, 0, "{at}: targets_mut() of {:?}", inst.kind);
            assert_eq!(count, targets.len(), "{at}: {:?}", inst.kind);
            seen.insts += 1;
        }
    }
    // The fixed buffers: the table and the label index; on top of those,
    // the offsets and the items of the flat predecessor lists (no edges,
    // no item buffer); liveness's gen, kill, live-in and live-out
    // buffers and its two working sets; the definition map's offsets and
    // sites (no definitions, no sites).
    let (succs, n) = allocations(|| f.successor_table());
    assert_eq!(n, 2, "{at}: successor_table() of {} blocks", succs.len());
    let edges = succs.iter().any(|s| !s.is_empty());
    let (_, n) = allocations(|| f.predecessors());
    assert_eq!(n, 3 + u64::from(edges), "{at}: predecessors()");
    let (_, n) = allocations(|| Liveness::compute(f));
    assert_eq!(n, 2 + 6, "{at}: Liveness::compute");
    let defines = f.insts().any(|i| !i.kind.defs().is_empty());
    let (_, n) = allocations(|| def_map(f));
    assert_eq!(n, 1 + u64::from(defines), "{at}: def_map");
    seen.functions += 1;
    seen.max_blocks = seen.max_blocks.max(f.blocks.len());
    seen.max_vregs = seen.max_vregs.max(f.vreg_count());
}

#[test]
fn queries_allocate_nothing_per_instruction_block_or_register() {
    let mut seen = Seen::default();
    for w in workloads::all() {
        for level in OptOptions::LEVELS {
            let mut opts = OptOptions::all();
            assert!(opts.set_level(level));
            for opts in [opts.clone(), opts.assume_noalias()] {
                let mut module = frontend::compile(w.source).expect("workload compiles");
                let extents = GlobalExtents::of_module(&module);
                for f in &mut module.functions {
                    let name = f.name.clone();
                    let at = |stage| format!("{} -O {level} {stage} {name}", w.name);
                    check(f, &at("front end"), &mut seen);
                    optimize_generic(f, &opts);
                    check(f, &at("generic"), &mut seen);
                    let mut scalar = f.clone();
                    allocate_registers(&mut scalar, TargetKind::Scalar).expect("allocates");
                    check(&mut scalar, &at("scalar allocated"), &mut seen);
                    expand_wm(f);
                    optimize_wm_with(f, &opts, &extents);
                    check(f, &at("wm"), &mut seen);
                    allocate_registers(f, TargetKind::Wm).expect("allocates");
                    check(f, &at("wm allocated"), &mut seen);
                }
            }
        }
    }
    // Enough shapes that a per-block or per-register buffer would show.
    assert!(
        seen.functions >= 18 * 10 * 5,
        "{} functions",
        seen.functions
    );
    assert!(seen.insts > 100_000, "{} instructions", seen.insts);
    assert!(
        seen.max_blocks >= 30,
        "largest function: {} blocks",
        seen.max_blocks
    );
    assert!(
        seen.max_vregs >= 100,
        "largest function: {} vregs",
        seen.max_vregs
    );
}

/// Six `int` and six `double` parameters, interleaved and weighted by
/// position, so a call passes twelve registers (past the inline capacity)
/// and any argument out of place changes the answer.
const TWELVE: &str = "
    int f(int a, double p, int b, double q, int c, double r,
          int d, double s, int e, double t, int g, double u) {
        return a + 2*b + 3*c + 4*d + 5*e + 6*g
             + (int) (7.0*p + 8.0*q + 9.0*r + 10.0*s + 11.0*t + 12.0*u);
    }
    int main() { return f(1, 0.5, 2, 1.5, 3, 2.5, 4, 3.5, 5, 4.5, 6, 5.5); }
";

#[test]
fn a_call_of_twelve_arguments_spills_in_order_and_runs_at_every_level() {
    let module = frontend::compile(TWELVE).expect("compiles");
    let main = module.function_named("main").expect("main");
    let (call, args) = main
        .insts()
        .find_map(|i| match &i.kind {
            InstKind::Call { args, .. } => Some((&i.kind, args)),
            _ => None,
        })
        .expect("main calls f");
    let (uses, n) = allocations(|| call.uses());
    assert_eq!((uses.len(), n), (12, 1), "twelve uses, one buffer");
    assert!(uses.spilled());
    assert_eq!(uses, *args, "every argument, in argument order");
    let classes: Vec<RegClass> = uses.iter().map(|r| r.class).collect();
    assert_eq!(classes, [RegClass::Int, RegClass::Flt].repeat(6));
    let (inline, n) = allocations(|| args[..INLINE].iter().copied().collect::<RegList>());
    assert_eq!((n, inline.spilled()), (0, false), "six stay inline");

    let ints: i64 = (1..=6).map(|k| k * k).sum();
    let doubles: f64 = (0..6)
        .map(|k| f64::from(7 + k) * (0.5 + f64::from(k)))
        .sum();
    let want = ints + doubles as i64;
    for level in OptOptions::LEVELS {
        let mut opts = OptOptions::all();
        assert!(opts.set_level(level));
        let compiler = Compiler::new().options(opts);
        let scalar = compiler
            .clone()
            .target(Target::Scalar)
            .compile(TWELVE)
            .unwrap_or_else(|e| panic!("-O {level} scalar: {e}"))
            .run_scalar("main", &[], &MachineModel::m88100())
            .unwrap_or_else(|e| panic!("-O {level} scalar: {e}"))
            .ret_int;
        assert_eq!(scalar, want, "-O {level} on the scalar interpreter");
        let wm = compiler
            .compile(TWELVE)
            .unwrap_or_else(|e| panic!("-O {level}: {e}"))
            .run_wm("main", &[])
            .unwrap_or_else(|e| panic!("-O {level}: {e}"))
            .ret_int;
        assert_eq!(wm, scalar, "-O {level} on the WM");
    }
}
