//! Property: the content-addressed artifact cache is invisible.
//!
//! For a random job (source × optimizer level × engine × memory model),
//! the payload rendered by a cold run, the payload read back from the
//! on-disk cache, and the payload of an entirely fresh re-run are all
//! bit-identical. This is the contract that lets `wmd` answer `cached:
//! true` without any asterisk — and it leans on the repo-wide invariant
//! that both engines are deterministic and bit-exact.

use proptest::prelude::*;

use wm_serve::cache::ArtifactCache;
use wm_serve::job::{execute, ModuleCache};
use wm_serve::proto::JobRequest;
use wm_stream::sim::{CancelToken, Engine, MemModel};
use wm_stream::JobSpec;

/// Tiny sources spanning the interesting execution shapes: a scalar
/// loop (recurrence-optimizable), a streaming array kernel, a
/// floating-point reduction, and an I/O-producing program.
const SOURCES: [&str; 4] = [
    "int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += i; return s; }",
    "int a[48]; int b[48];
     int main() {
         int i; int s;
         for (i = 0; i < 48; i++) { a[i] = i; b[i] = 3 * i; }
         s = 0;
         for (i = 0; i < 48; i++) s += a[i] * b[i];
         return s;
     }",
    "double x[32];
     double main() {
         int i; double s;
         for (i = 0; i < 32; i++) x[i] = i * 0.5;
         s = 0.0;
         for (i = 0; i < 32; i++) s += x[i] * x[i];
         return s;
     }",
    "int main() { putchar(119); putchar(109); putchar(10); return 7; }",
];

const MEMS: [&str; 3] = ["flat", "cache", "banked"];

fn job(source_ix: usize, opt_full: bool, engine_ix: usize, mem_ix: usize) -> JobRequest {
    let mut spec = JobSpec::new(SOURCES[source_ix]);
    if !opt_full {
        spec.opts.streaming = false;
    }
    spec.config.engine = Engine::ALL[engine_ix];
    spec.config.mem_model = MemModel::parse(MEMS[mem_ix]).unwrap();
    JobRequest {
        id: "prop".to_string(),
        spec,
        deadline_ms: None,
        no_cache: false,
        chaos: None,
    }
}

proptest! {
    #[test]
    fn cached_payloads_are_bit_identical_to_fresh_runs(
        source_ix in 0usize..4,
        opt_bit in 0usize..2,
        engine_ix in 0..Engine::ALL.len(),
        mem_ix in 0usize..3,
    ) {
        let opt_full = opt_bit == 1;
        let dir = std::env::temp_dir().join(format!(
            "wmd-prop-{}-{}-{}-{}-{}",
            std::process::id(), source_ix, opt_bit, engine_ix, mem_ix
        ));
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        let modules = ModuleCache::new(16);

        let req = job(source_ix, opt_full, engine_ix, mem_ix);
        let key = ArtifactCache::key_of(&req.spec.cache_key_material());

        // Cold run, stored through the real write path (temp + rename).
        let cold = execute(&req, &CancelToken::new(), false, &modules).unwrap();
        cache.store(&key, &cold).unwrap();

        // Read back through the verifying read path.
        let replay = cache.lookup(&key).expect("entry written a moment ago");
        prop_assert_eq!(&replay, &cold, "cache round-trip changed bytes");

        // A fresh pipeline run (new module memo, new token) must render
        // the very same bytes: determinism is what makes caching sound.
        let fresh = execute(&req, &CancelToken::new(), false, &ModuleCache::new(16)).unwrap();
        prop_assert_eq!(&fresh, &cold, "re-execution diverged from cached payload");

        std::fs::remove_dir_all(&dir).ok();
    }
}
