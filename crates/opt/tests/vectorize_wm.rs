//! Vectorizer tests: which loops become VEU code and which are left for
//! streaming, exactly the paper's division ("recurrences … are difficult
//! and usually impossible to vectorize").

use wm_ir::{CmpOp, InstKind, Operand, RegClass};
use wm_opt::cfg::{natural_loops, Dominators};
use wm_opt::pipeline::{Fixpoint, CLEANUP};
use wm_opt::vectorize::vectorize_maps;
use wm_opt::{optimize_generic, optimize_wm, phases, OptOptions};

fn vector_stats(src: &str, name: &str) -> (wm_ir::Function, usize) {
    let opts = OptOptions::all().with_vectorization();
    let m = wm_frontend::compile(src).expect("compiles");
    let mut f = m.function_named(name).unwrap().clone();
    optimize_generic(&mut f, &opts);
    wm_target::expand_wm(&mut f);
    let stats = optimize_wm(&mut f, &opts);
    (f, stats.vector.loops_vectorized)
}

#[test]
fn two_array_map_vectorizes() {
    let (f, n) = vector_stats(
        r"
        double a[500]; double b[500]; double c[500];
        void f(int k) {
            int i;
            for (i = 0; i < k; i++) c[i] = a[i] * b[i];
        }",
        "f",
    );
    assert_eq!(n, 1);
    assert!(f.insts().any(|i| matches!(i.kind, InstKind::VecBin { .. })));
    assert_eq!(
        f.insts()
            .filter(|i| matches!(i.kind, InstKind::VStreamIn { .. }))
            .count(),
        2
    );
    assert_eq!(
        f.insts()
            .filter(|i| matches!(i.kind, InstKind::VStreamOut { .. }))
            .count(),
        1
    );
    assert!(f
        .insts()
        .any(|i| matches!(i.kind, InstKind::BranchVec { .. })));
    // the original loop survives as the tail (the streaming pass may then
    // claim it, so accept either form)
    assert!(f
        .insts()
        .any(|i| matches!(i.kind, InstKind::WStore { .. } | InstKind::StreamOut { .. })));
}

#[test]
fn const_operand_map_vectorizes_with_broadcast() {
    let (f, n) = vector_stats(
        r"
        double a[500]; double c[500];
        void f(int k) {
            int i;
            for (i = 0; i < k; i++) c[i] = a[i] * 2.5;
        }",
        "f",
    );
    assert_eq!(n, 1);
    assert!(f
        .insts()
        .any(|i| matches!(i.kind, InstKind::VecBroadcast { .. })));
}

#[test]
fn recurrences_do_not_vectorize() {
    let (_f, n) = vector_stats(
        r"
        double x[500]; double y[500]; double z[500];
        void f(int k) {
            int i;
            for (i = 2; i < k; i++) x[i] = z[i] * (y[i] - x[i-1]);
        }",
        "f",
    );
    assert_eq!(n, 0, "the paper: recurrences are impossible to vectorize");
}

#[test]
fn reductions_do_not_vectorize() {
    let (_f, n) = vector_stats(
        r"
        double a[500]; double s[1];
        void f(int k) {
            int i; double acc;
            acc = 0.0;
            for (i = 0; i < k; i++) acc = acc + a[i];
            s[0] = acc;
        }",
        "f",
    );
    assert_eq!(n, 0, "a reduction is not an elementwise map");
}

#[test]
fn integer_maps_do_not_vectorize() {
    let (_f, n) = vector_stats(
        r"
        int a[500]; int c[500];
        void f(int k) {
            int i;
            for (i = 0; i < k; i++) c[i] = a[i] + 1;
        }",
        "f",
    );
    assert_eq!(n, 0, "the VEU is modelled for doubles only");
}

#[test]
fn read_modify_write_maps_do_not_vectorize() {
    let (_f, n) = vector_stats(
        r"
        double c[500];
        void f(int k) {
            int i;
            for (i = 0; i < k; i++) c[i] = c[i] * 0.5;
        }",
        "f",
    );
    assert_eq!(n, 0, "in/out on one region needs ordering the VEU lacks");
}

#[test]
fn vectorization_is_off_by_default() {
    let src = r"
        double a[500]; double b[500]; double c[500];
        void f(int k) {
            int i;
            for (i = 0; i < k; i++) c[i] = a[i] * b[i];
        }";
    let m = wm_frontend::compile(src).unwrap();
    let mut f = m.function_named("f").unwrap().clone();
    let opts = OptOptions::all();
    optimize_generic(&mut f, &opts);
    wm_target::expand_wm(&mut f);
    let stats = optimize_wm(&mut f, &opts);
    assert_eq!(stats.vector.loops_vectorized, 0);
    assert!(stats.streaming.streams_in >= 2, "streaming claims the loop");
}

#[test]
fn a_declined_map_leaves_the_function_untouched() {
    // The pipeline counts a vectorized loop as a change and nothing else,
    // so a loop too short for a vector setup (fewer than two vectors)
    // must be declined before the pass touches the function, even when
    // the loop has no preheader yet.
    let at_vectorizer = |n: usize| {
        let src = format!(
            "void f(double *a, double *b, double *c) {{
                 int i; for (i = 0; i < {n}; i++) c[i] = a[i] * b[i]; }}"
        );
        let opts = OptOptions::all().with_vectorization().assume_noalias();
        let m = wm_frontend::compile(&src).expect("compiles");
        let mut f = m.function_named("f").unwrap().clone();
        optimize_generic(&mut f, &opts);
        wm_target::expand_wm(&mut f);
        // what `optimize_wm` runs before the vectorizer
        let mut fp = Fixpoint::default();
        fp.record(phases::hoist_invariants(&mut f));
        fp.run(&mut f, &CLEANUP);
        fp.record(phases::eliminate_dead_load_pairs(&mut f));
        // Enter the loop by a conditional branch instead of its
        // preheader's jump, so the loop has no preheader.
        let dom = Dominators::compute(&f);
        let lp = natural_loops(&f, &dom).remove(0);
        let header = f.blocks[lp.header].label;
        let pre = (0..f.blocks.len())
            .find(|&b| {
                !lp.contains(b)
                    && f.blocks[b].insts.last().map(|i| &i.kind)
                        == Some(&InstKind::Jump { target: header })
            })
            .expect("a preheader");
        let label = f.blocks[pre].label;
        f.blocks[pre].insts.pop();
        f.push(
            label,
            InstKind::Compare {
                class: RegClass::Int,
                op: CmpOp::Lt,
                a: Operand::Imm(0),
                b: Operand::Imm(1),
            },
        );
        f.push(
            label,
            InstKind::Branch {
                class: RegClass::Int,
                when: true,
                target: header,
                els: header,
            },
        );
        (f, opts)
    };
    let (mut f, opts) = at_vectorizer(2 * wm_ir::hw::VECTOR_LENGTH);
    assert_eq!(vectorize_maps(&mut f, opts.alias).loops_vectorized, 1);
    let (mut f, opts) = at_vectorizer(2 * wm_ir::hw::VECTOR_LENGTH - 1);
    let before = f.clone();
    assert_eq!(vectorize_maps(&mut f, opts.alias).loops_vectorized, 0);
    assert_eq!(f, before);
}
