//! Listing identity: every workload's optimized listing, at every
//! optimization level on both targets, digests to the value recorded in
//! [`DIGESTS`]. A change to the optimizer, the modulo scheduler or the
//! register allocator that should leave the code alone must leave these
//! digests alone; one that means to change code updates the table.
//!
//! The listing is what `wmcc FILE --emit --noalias --opt LEVEL [--target
//! scalar]` prints, one blank line after each function, hashed with
//! 64-bit FNV-1a as `perf` digests code.

use std::fmt::Write;

use wm_stream::{Compiler, JobSpec, Target};

/// The `--opt` levels, in table column order.
const LEVELS: [&str; 5] = ["none", "classical", "recurrence", "full", "modulo"];

/// `(workload, WM digests by level, scalar digests by level)`, in
/// `wm_stream::workloads::all()` order.
const DIGESTS: &[(&str, [u64; 5], [u64; 5])] = &[
    (
        "banner",
        [
            0xb2273189969ed3dc,
            0xb80d05df7811d50c,
            0xb80d05df7811d50c,
            0xf982f43ff648a166,
            0xf982f43ff648a166,
        ],
        [
            0x6ca19a34e14b7b5b,
            0xbcb01ed3e8afc005,
            0xbcb01ed3e8afc005,
            0xbcb01ed3e8afc005,
            0xbcb01ed3e8afc005,
        ],
    ),
    (
        "bubblesort",
        [
            0xc9c834a9954e7df1,
            0xbd898acab3fe62fd,
            0xbd898acab3fe62fd,
            0xf60c06eeeb418713,
            0xf60c06eeeb418713,
        ],
        [
            0xcbe0f8a7e6a118c7,
            0x424c8ba6070e2d94,
            0x424c8ba6070e2d94,
            0x424c8ba6070e2d94,
            0x424c8ba6070e2d94,
        ],
    ),
    (
        "cal",
        [
            0xf7bee7db853f60ee,
            0x7aa5bd39fe549307,
            0x7aa5bd39fe549307,
            0xdde65492ffb8394d,
            0xdde65492ffb8394d,
        ],
        [
            0x151cceeb5dd62afd,
            0x07a510a50a375271,
            0x07a510a50a375271,
            0x07a510a50a375271,
            0x07a510a50a375271,
        ],
    ),
    (
        "dhrystone",
        [
            0xf7b7f748fdc68c68,
            0x7c6eb3219e453840,
            0x7c6eb3219e453840,
            0xd4b134859fddb6de,
            0xd4b134859fddb6de,
        ],
        [
            0x381c1ebad5f4b310,
            0xb999f7820e96e177,
            0xb999f7820e96e177,
            0xb999f7820e96e177,
            0xb999f7820e96e177,
        ],
    ),
    (
        "dot-product",
        [
            0x393a216ff8fcb102,
            0xb0d683766c16e721,
            0xb0d683766c16e721,
            0x382b8f5e8ef7ceb7,
            0x382b8f5e8ef7ceb7,
        ],
        [
            0xa95dbba4ac8308a2,
            0x0a22ef829c25c614,
            0x0a22ef829c25c614,
            0x0a22ef829c25c614,
            0x0a22ef829c25c614,
        ],
    ),
    (
        "iir",
        [
            0x18a00c6f1e1466b0,
            0x788713826d115538,
            0xb6f023f48df790d9,
            0xadcd7898c86de869,
            0xadcd7898c86de869,
        ],
        [
            0xd68d3a577a6ba16f,
            0xd65f8b82118396c6,
            0x488a465587e3366d,
            0x488a465587e3366d,
            0x488a465587e3366d,
        ],
    ),
    (
        "quicksort",
        [
            0x263bad88e1d7fed1,
            0x91a0180ba151ce21,
            0x91a0180ba151ce21,
            0xe5cb3991c88dfca0,
            0xe5cb3991c88dfca0,
        ],
        [
            0xd3ac1c74b4d7e041,
            0xaa4c241115d4ec30,
            0xaa4c241115d4ec30,
            0xaa4c241115d4ec30,
            0xaa4c241115d4ec30,
        ],
    ),
    (
        "sieve",
        [
            0x92639acd750000a2,
            0xf9a0ccb63836cb97,
            0xf9a0ccb63836cb97,
            0x0a2a998e998e4319,
            0x0a2a998e998e4319,
        ],
        [
            0x2f00d235d2c25431,
            0xfe5cf02804e115c3,
            0xfe5cf02804e115c3,
            0xfe5cf02804e115c3,
            0xfe5cf02804e115c3,
        ],
    ),
    (
        "whetstone",
        [
            0x36e651b1ad7d419c,
            0x10f9fd664fcdd111,
            0x10f9fd664fcdd111,
            0x8caeed3704cb0d3c,
            0x8caeed3704cb0d3c,
        ],
        [
            0x5311b17a3643159f,
            0xc7f6339a6038a759,
            0xc7f6339a6038a759,
            0xc7f6339a6038a759,
            0xc7f6339a6038a759,
        ],
    ),
    (
        "livermore5",
        [
            0xa243b8273fab552b,
            0x892f0995f5058938,
            0xadfc576035c70a53,
            0x06a7bf6f70fc64c1,
            0x06a7bf6f70fc64c1,
        ],
        [
            0xf2745e7f45967a53,
            0x607eb413f8a4dc23,
            0x6e1e6031c25b3721,
            0x6e1e6031c25b3721,
            0x6e1e6031c25b3721,
        ],
    ),
    (
        "livermore5-init",
        [
            0x794a78bb8889edf9,
            0x7d8afba6fda8cb8c,
            0x7d8afba6fda8cb8c,
            0x7d8afba6fda8cb8c,
            0x7d8afba6fda8cb8c,
        ],
        [
            0xfb0dd3ca955c1173,
            0x0bccd477061eedd5,
            0x0bccd477061eedd5,
            0x0bccd477061eedd5,
            0x0bccd477061eedd5,
        ],
    ),
    (
        "text-kernels",
        [
            0x1924b10caf5e410f,
            0x9d34247e79d9b925,
            0x9d34247e79d9b925,
            0x250a240eeeed26d3,
            0x250a240eeeed26d3,
        ],
        [
            0xbeb9a499c206f810,
            0xb8b8a5bf493f51ef,
            0xb8b8a5bf493f51ef,
            0xb8b8a5bf493f51ef,
            0xb8b8a5bf493f51ef,
        ],
    ),
    (
        "od",
        [
            0xff8f766ed97a5c76,
            0x5f75ba56d9664d4f,
            0x5f75ba56d9664d4f,
            0xad38f99215775d98,
            0x7109a12781f4feff,
        ],
        [
            0x42b0a13619a2f667,
            0x57696b82a34d3809,
            0x57696b82a34d3809,
            0x57696b82a34d3809,
            0x57696b82a34d3809,
        ],
    ),
    (
        "compact",
        [
            0x3e3677ddd4c7b780,
            0x015cef620b455dcd,
            0x015cef620b455dcd,
            0xddd29cea917f536c,
            0xddd29cea917f536c,
        ],
        [
            0x6e20afe865f92d44,
            0x7ea9dcf3028185ea,
            0x7ea9dcf3028185ea,
            0x7ea9dcf3028185ea,
            0x7ea9dcf3028185ea,
        ],
    ),
    (
        "uuencode",
        [
            0x3e725dab85822138,
            0x42b6e42362966cc9,
            0x42b6e42362966cc9,
            0xea9f125250602fd0,
            0xe6d4e96996793398,
        ],
        [
            0xc00adb64dc941418,
            0xdd09bcc478daef1c,
            0xdd09bcc478daef1c,
            0xdd09bcc478daef1c,
            0xdd09bcc478daef1c,
        ],
    ),
    (
        "sparse-matvec",
        [
            0x82e22fd1ec005602,
            0x1502ebf30790ddd6,
            0x1502ebf30790ddd6,
            0xf6673c3fc7d7188a,
            0xf6673c3fc7d7188a,
        ],
        [
            0x5e8a55c9a7a2a891,
            0xee12aa412d9bbe13,
            0xee12aa412d9bbe13,
            0xee12aa412d9bbe13,
            0xee12aa412d9bbe13,
        ],
    ),
    (
        "histogram",
        [
            0xb01ab68eedad5d4f,
            0x755dbccd186e70fa,
            0x755dbccd186e70fa,
            0xc4712cdaa66b0d35,
            0xc4712cdaa66b0d35,
        ],
        [
            0x070765164fed8d0c,
            0x0c1cd46f208991bd,
            0x0c1cd46f208991bd,
            0x0c1cd46f208991bd,
            0x0c1cd46f208991bd,
        ],
    ),
    (
        "smooth",
        [
            0xa3b97af7b628a787,
            0xcd1f6807ddb5b23e,
            0xcd1f6807ddb5b23e,
            0x525cf63e7ce21650,
            0xca554882379ada9d,
        ],
        [
            0xcb61a4c59084b1dd,
            0x709ed5dd83ecf95e,
            0x709ed5dd83ecf95e,
            0x709ed5dd83ecf95e,
            0x709ed5dd83ecf95e,
        ],
    ),
];

/// The 64-bit FNV-1a hash of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of `source`'s listing at `level` for `target`.
fn digest(source: &str, level: &str, target: Target) -> u64 {
    let mut job = JobSpec::new(source);
    job.set("opt", level).expect("a level");
    job.set("noalias", "true").expect("a flag");
    let compiled = Compiler::new()
        .options(job.opts)
        .target(target)
        .compile(source)
        .unwrap_or_else(|e| panic!("{level} {target:?}: {e}"));
    let module = &compiled.module;
    let mut listing = String::new();
    for f in &module.functions {
        writeln!(listing, "{}", f.display(Some(module))).expect("writing to a String");
    }
    fnv1a(listing.as_bytes())
}

#[test]
fn every_listing_matches_its_recorded_digest() {
    let mut table = String::new();
    let mut first_difference = None;
    let workloads = wm_stream::workloads::all();
    for (k, w) in workloads.iter().enumerate() {
        let mut row = [[0u64; 5]; 2];
        for (t, target) in [Target::Wm, Target::Scalar].into_iter().enumerate() {
            for (l, level) in LEVELS.into_iter().enumerate() {
                row[t][l] = digest(w.source, level, target);
                let want = DIGESTS
                    .get(k)
                    .filter(|(name, ..)| *name == w.name)
                    .map(|&(_, wm, scalar)| [wm, scalar][t][l]);
                if want != Some(row[t][l]) && first_difference.is_none() {
                    first_difference = Some(format!("{} at -O {level} on {target:?}", w.name));
                }
            }
        }
        let hex = |ds: [u64; 5]| ds.map(|d| format!("0x{d:016x}")).join(", ");
        writeln!(
            table,
            "    (\"{}\", [{}], [{}]),",
            w.name,
            hex(row[0]),
            hex(row[1])
        )
        .expect("writing to a String");
    }
    if let Some(at) = first_difference
        .or_else(|| (DIGESTS.len() != workloads.len()).then(|| "the workload list".to_string()))
    {
        panic!("listings differ first for {at}; this build's table:\n{table}");
    }
}
