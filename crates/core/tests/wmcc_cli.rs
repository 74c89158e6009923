//! `wmcc` job flags compose in any order: a flag given before `--opt`
//! survives it. Each test compares `--emit` listings, so nothing is
//! simulated.

use std::process::Command;

fn program(name: &str) -> String {
    format!(
        "{}/../workloads/src/programs/{name}.c",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The listing `wmcc --emit` prints for `file` under `flags`.
fn listing(file: &str, flags: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wmcc"))
        .arg(file)
        .args(flags)
        .arg("--emit")
        .output()
        .expect("wmcc runs");
    assert!(
        out.status.success(),
        "wmcc {flags:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("listing is UTF-8")
}

#[test]
fn tiles_before_opt_still_partition() {
    let file = program("livermore5");
    let opt_first = listing(&file, &["--opt", "full", "--noalias", "--tiles", "2"]);
    assert!(
        opt_first.contains("__tile1_main"),
        "livermore5 partitions across 2 tiles"
    );
    let tiles_first = listing(&file, &["--tiles", "2", "--opt", "full", "--noalias"]);
    assert_eq!(tiles_first, opt_first);
}

#[test]
fn noalias_before_opt_is_kept() {
    let file = program("dhrystone");
    let opt_first = listing(&file, &["--opt", "modulo", "--noalias"]);
    let noalias_first = listing(&file, &["--noalias", "--opt", "modulo"]);
    assert_eq!(noalias_first, opt_first);
}
