//! No source text panics the compiler or the simulator. Each case takes
//! one of the workloads, damages it with byte cuts, token inserts, chunk
//! copies and byte flips, and compiles the mutant at a drawn level, tile
//! count and set of flags. A mutant that compiles runs on flat memory
//! under a small cycle limit. Every case must end in `Ok` or `Err`; the
//! mutants reach control-flow shapes the workloads never produce.
//!
//! The default case count keeps this quick; set `PROPTEST_CASES` for a
//! deeper sweep (the nightly job runs 4096).

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use wm_stream::{workloads, JobSpec};

/// Tokens an insert draws from: the language's punctuation, keywords and
/// some literals at the edges of their ranges.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "*",
    "&",
    "=",
    "+",
    "-",
    "/",
    "%",
    "<<",
    ">>",
    "<",
    "==",
    "!",
    "?",
    ":",
    "int",
    "double",
    "char",
    "for",
    "while",
    "if",
    "else",
    "return",
    "0",
    "1",
    "-1",
    "2147483647",
    "9223372036854775807",
    "1e308",
    "0.5",
    "'a'",
    "\"s\"",
    "x",
    "i",
    "main",
];

/// Apply one mutation, chosen by `op`, at positions drawn from `a` and
/// `b`.
fn mutate(src: &mut Vec<u8>, op: u8, a: u64, b: u64) {
    let len = src.len() as u64;
    if len == 0 {
        return;
    }
    let at = (a % len) as usize;
    match op {
        // cut up to 16 bytes
        0 => {
            let end = (at + 1 + (b % 16) as usize).min(src.len());
            src.drain(at..end);
        }
        // insert a token, with a space on either side half the time
        1 => {
            let token = TOKENS[(b % TOKENS.len() as u64) as usize];
            let text = if b & 1 == 0 {
                format!(" {token} ")
            } else {
                token.to_string()
            };
            src.splice(at..at, text.bytes());
        }
        // copy a chunk of up to 64 bytes somewhere else
        2 => {
            let end = (at + 1 + (b % 64) as usize).min(src.len());
            let chunk = src[at..end].to_vec();
            let to = ((b >> 8) % len) as usize;
            src.splice(to..to, chunk);
        }
        // flip the bits of one byte
        _ => src[at] ^= 1 << (b % 8),
    }
}

/// Compile `source` with the drawn settings; simulate it if it compiles.
fn compile_and_run(source: &str, level: &str, tiles: u64, flags: u8) -> Result<(), String> {
    let mut job = JobSpec::new(source);
    job.set("opt", level)?;
    job.set("tiles", &tiles.to_string())?;
    job.set("vectorize", &(flags & 1 != 0).to_string())?;
    job.set("speculative_streams", &(flags & 2 != 0).to_string())?;
    job.set("noalias", &(flags & 4 != 0).to_string())?;
    job.set("max_cycles", "20000")?;
    job.tile_threads = 1;
    let compiled = job.compile().map_err(|e| e.to_string())?;
    job.simulate(&compiled, None).map_err(|e| e.to_string())?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(512),
        .. ProptestConfig::default()
    })]

    #[test]
    fn mutated_workloads_compile_and_run_without_panicking(
        program in 0..18usize,
        edits in proptest::collection::vec((0..4u8, any::<u64>(), any::<u64>()), 1..=3),
        level in 0..5usize,
        tiles in 0..3u32,
        flags in 0..8u8,
    ) {
        let all = workloads::all();
        prop_assert_eq!(all.len(), 18);
        let w = &all[program];
        let mut bytes = w.source.as_bytes().to_vec();
        for &(op, a, b) in &edits {
            mutate(&mut bytes, op, a, b);
        }
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let level = wm_stream::OptOptions::LEVELS[level];
        let tiles = 1u64 << tiles;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            compile_and_run(&source, level, tiles, flags)
        }));
        prop_assert!(
            outcome.is_ok(),
            "{} mutated by {:?} panicked at -O {} with {} tiles, flags {}:\n{}",
            w.name, edits, level, tiles, flags, source
        );
    }
}
