//! `wmcc` job flags compose in any order: a flag given before `--opt`
//! survives it (those tests compare `--emit` listings, so nothing is
//! simulated). A cycle count past `CYCLES_RANGE` is a usage error.
//! `--stats` reports the size of each modulo loop's solver search.

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
fn huge_cycle_counts_exit_2() {
    let file = program("dot_product");
    let huge = u64::MAX.to_string();
    for (flag, value) in [
        ("--inject", format!("jitter:1:{huge}")),
        ("--mem-latency", huge.clone()),
        ("--mem", format!("cache:miss={huge}")),
        ("--squash-penalty", huge.clone()),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_wmcc"))
            .args([file.as_str(), flag, &value])
            .output()
            .expect("wmcc runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn noalias_before_opt_is_kept() {
    let file = program("dhrystone");
    let opt_first = listing(&file, &["--opt", "modulo", "--noalias"]);
    let noalias_first = listing(&file, &["--noalias", "--opt", "modulo"]);
    assert_eq!(noalias_first, opt_first);
}

#[test]
fn stats_report_the_modulo_search() {
    let out = Command::new(env!("CARGO_BIN_EXE_wmcc"))
        .args([
            &program("uuencode"),
            "--opt",
            "modulo",
            "--noalias",
            "--stats",
        ])
        .output()
        .expect("wmcc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "main: L5: modulo 24 insts, MII 24, greedy interval 40 -> II 24 \
             (pipelined, probes 1, 58105 decisions, 488 conflicts)"
        ),
        "{stderr}"
    );
}
