//! One shared compile-and-simulate code path.
//!
//! The `wmcc` CLI and the `wmd` daemon both execute the same kind of
//! job — compile mini-C source with some optimizer options, build a WM
//! machine with some configuration, run an entry function — and they must
//! agree *exactly*: a daemon cache hit has to be bit-identical to what
//! `wmcc` would print for the same inputs. [`JobSpec`] is that agreement
//! made code: both front ends construct one and drive it, so there is a
//! single place where the pipeline order, the cancellation wiring and the
//! cache-key material are defined.
//!
//! [`SETTINGS`] is the one definition of the settings a job can be given:
//! `wmcc`'s job flags, `wmd`'s job fields and `perf`'s machine flags all
//! go through [`JobSpec::set`], so the three cannot disagree on a name, a
//! range or what a setting writes.

use std::ops::RangeInclusive;
use std::time::Duration;

use wm_opt::AliasModel;
use wm_sim::{
    CancelToken, Engine, FaultPlan, MemModel, SimError, CYCLES_RANGE, FIFO_CAPACITY_RANGE,
    MEM_PORTS_RANGE, TILES_RANGE,
};

use crate::{Compiled, Compiler, Error, OptOptions, RunResult, WmConfig, WmMachine};

/// A setting's value kind and legal values, and the function that
/// writes a value into a job.
#[derive(Debug)]
pub enum Kind {
    /// `true` or `false`. The `wmcc` flag takes no value and stands for
    /// the `bool` given here.
    Flag(bool, fn(&mut JobSpec, bool)),
    /// A non-negative integer within the range.
    Unsigned(RangeInclusive<u64>, fn(&mut JobSpec, u64)),
    /// Text that the function parses and checks; the string names the
    /// legal values.
    Text(&'static str, fn(&mut JobSpec, &str) -> Result<(), String>),
}

impl Kind {
    /// What a value of this kind is, as error messages name it.
    pub fn noun(&self) -> &'static str {
        match self {
            Kind::Flag(..) => "a boolean",
            Kind::Unsigned(..) => "a non-negative integer",
            Kind::Text(..) => "a string",
        }
    }
}

/// One job setting: its `wmd` field, its `wmcc` flag, its value kind and
/// range, and what it writes.
#[derive(Debug)]
pub struct Setting {
    /// The `wmd` job field.
    pub name: &'static str,
    /// The `wmcc` flag.
    pub flag: &'static str,
    /// Value kind, range and writer.
    pub kind: Kind,
    /// What the setting writes, for documentation.
    pub writes: &'static str,
}

const ANY: RangeInclusive<u64> = 0..=u64::MAX;

/// Every setting that writes [`JobSpec::opts`] or [`JobSpec::config`].
/// Applying them in any order gives the same job: `opt` changes only the
/// switches that tell the levels apart.
pub static SETTINGS: [Setting; 14] = [
    Setting {
        name: "opt",
        flag: "--opt",
        kind: Kind::Text("none, classical, recurrence, full, modulo", |j, v| {
            if j.opts.set_level(v) {
                Ok(())
            } else {
                let levels = OptOptions::LEVELS.join(", ");
                Err(format!("`opt` must be one of {levels}"))
            }
        }),
        writes: "the level switches of `opts` (`classical`, `code_motion`, \
                 `dual_combine`, `recurrence`, `streaming`, `modulo`)",
    },
    Setting {
        name: "noalias",
        flag: "--noalias",
        kind: Kind::Flag(true, |j, on| {
            j.opts.alias = if on {
                AliasModel::NoAlias
            } else {
                AliasModel::Conservative
            };
        }),
        writes: "`opts.alias`",
    },
    Setting {
        name: "vectorize",
        flag: "--vectorize",
        kind: Kind::Flag(true, |j, on| j.opts.vectorize = on),
        writes: "`opts.vectorize`",
    },
    Setting {
        name: "speculative_streams",
        flag: "--speculative-streams",
        kind: Kind::Flag(true, |j, on| j.opts.speculative_streams = on),
        writes: "`opts.speculative_streams`",
    },
    Setting {
        name: "partition",
        flag: "--no-partition",
        kind: Kind::Flag(false, |j, on| j.opts.partition = on),
        writes: "`opts.partition`",
    },
    Setting {
        name: "engine",
        flag: "--engine",
        kind: Kind::Text("compiled, cycle", |j, v| {
            Engine::parse(v).map(|e| j.config.engine = e)
        }),
        writes: "`config.engine`",
    },
    Setting {
        name: "mem",
        flag: "--mem",
        kind: Kind::Text("flat, cache[:k=v,...], banked[:k=v,...]", |j, v| {
            MemModel::parse(v).map(|m| j.config.mem_model = m)
        }),
        writes: "`config.mem_model`",
    },
    Setting {
        name: "mem_latency",
        flag: "--mem-latency",
        kind: Kind::Unsigned(CYCLES_RANGE, |j, n| j.config.mem_latency = n),
        writes: "`config.mem_latency`",
    },
    Setting {
        name: "mem_ports",
        flag: "--mem-ports",
        kind: Kind::Unsigned(
            *MEM_PORTS_RANGE.start() as u64..=*MEM_PORTS_RANGE.end() as u64,
            |j, n| j.config.mem_ports = n as u32,
        ),
        writes: "`config.mem_ports`",
    },
    Setting {
        name: "fifo",
        flag: "--fifo",
        kind: Kind::Unsigned(
            *FIFO_CAPACITY_RANGE.start() as u64..=*FIFO_CAPACITY_RANGE.end() as u64,
            |j, n| j.config.fifo_capacity = n as usize,
        ),
        writes: "`config.fifo_capacity`",
    },
    Setting {
        name: "squash_penalty",
        flag: "--squash-penalty",
        kind: Kind::Unsigned(CYCLES_RANGE, |j, n| j.config.squash_penalty = n),
        writes: "`config.squash_penalty`",
    },
    Setting {
        name: "max_cycles",
        flag: "--max-cycles",
        kind: Kind::Unsigned(ANY, |j, n| j.config.max_cycles = n),
        writes: "`config.max_cycles`",
    },
    Setting {
        name: "tiles",
        flag: "--tiles",
        kind: Kind::Unsigned(
            *TILES_RANGE.start() as u64..=*TILES_RANGE.end() as u64,
            |j, n| {
                j.opts.tiles = n as usize;
                j.config.tiles = n as usize;
            },
        ),
        writes: "`opts.tiles` and `config.tiles`",
    },
    Setting {
        name: "inject",
        flag: "--inject",
        kind: Kind::Text(
            "comma-separated delay:N:C, drop:N, scu:I:C, jitter:SEED:MAX",
            |j, v| FaultPlan::parse(v).map(|p| j.config.fault_plan = p),
        ),
        writes: "`config.fault_plan`",
    },
];

/// Everything that determines a WM compile-and-simulate job's result:
/// source text, optimizer options, machine configuration, entry point and
/// arguments. `Eq` on the [`JobSpec::cache_key_material`] rendering is
/// the daemon's definition of "the same job".
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Mini-C source text.
    pub source: String,
    /// Optimizer options (opt level, aliasing model, streaming flags).
    pub opts: OptOptions,
    /// Simulated-machine configuration (engine, memory model, fault
    /// plan, capacities).
    pub config: WmConfig,
    /// Entry function name.
    pub entry: String,
    /// Integer arguments for the entry function.
    pub args: Vec<i64>,
    /// Host worker threads for a tiled run's parallel phase (0 = one per
    /// available CPU). Excluded from the cache key on purpose: tiled
    /// results are bit-identical for any thread count, so two jobs that
    /// differ only here *should* share a cache entry.
    pub tile_threads: usize,
}

/// A failure from either stage of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The source did not compile (or failed register allocation).
    Compile(Error),
    /// The simulation terminated abnormally.
    Sim(SimError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Compile(e) => write!(f, "compile error: {e}"),
            JobError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Compile(e) => Some(e),
            JobError::Sim(e) => Some(e),
        }
    }
}

impl From<Error> for JobError {
    fn from(e: Error) -> JobError {
        JobError::Compile(e)
    }
}

impl From<SimError> for JobError {
    fn from(e: SimError) -> JobError {
        JobError::Sim(e)
    }
}

impl JobSpec {
    /// A job running `main()` of `source` with full optimization on the
    /// default machine.
    pub fn new(source: impl Into<String>) -> JobSpec {
        JobSpec {
            source: source.into(),
            opts: OptOptions::all(),
            config: WmConfig::default(),
            entry: "main".to_string(),
            args: Vec::new(),
            tile_threads: 0,
        }
    }

    /// Apply the setting `name` (a [`Setting::name`]) with `value`
    /// spelled as text: `true`/`false` for a flag, decimal for an
    /// unsigned. The only code that range-checks or writes a setting.
    ///
    /// # Errors
    ///
    /// An unknown name, or a value of the wrong kind or out of range.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let setting = SETTINGS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown setting `{name}`"))?;
        let bad = || format!("`{name}` must be {}", setting.kind.noun());
        match &setting.kind {
            Kind::Flag(_, apply) => apply(self, value.parse().map_err(|_| bad())?),
            Kind::Unsigned(range, apply) => {
                let n = value.parse().map_err(|_| bad())?;
                if !range.contains(&n) {
                    return Err(format!("`{name}` must be in {range:?}, got {n}"));
                }
                apply(self, n);
            }
            Kind::Text(_, apply) => apply(self, value)?,
        }
        Ok(())
    }

    /// Compile the source for the WM.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for source errors or allocation failures.
    pub fn compile(&self) -> Result<Compiled, Error> {
        Compiler::new()
            .options(self.opts.clone())
            .compile(&self.source)
    }

    /// Build the simulated machine, positioned at the entry function,
    /// with the cancellation token (if any) attached. The caller may
    /// still enable tracing before running — `wmcc` does.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadProgram`] for unexecutable modules.
    pub fn machine<'m>(
        &self,
        compiled: &'m Compiled,
        cancel: Option<&CancelToken>,
    ) -> Result<WmMachine<'m>, SimError> {
        let mut m = WmMachine::new(&compiled.module, &self.config)?;
        if let Some(t) = cancel {
            m.set_cancel_token(t.clone());
        }
        m.start(&self.entry, &self.args)?;
        Ok(m)
    }

    /// Simulate an already-compiled module to completion.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults, deadlocks, timeouts and
    /// cancellations.
    pub fn simulate(
        &self,
        compiled: &Compiled,
        cancel: Option<&CancelToken>,
    ) -> Result<RunResult, SimError> {
        if self.config.tiles > 1 {
            let mut tm =
                wm_sim::TiledMachine::new(&compiled.module, &self.config, self.tile_threads)?;
            if let Some(t) = cancel {
                tm.set_cancel_token(t.clone());
            }
            tm.start(&self.entry, &self.args)?;
            return Ok(tm.run_to_completion()?.into_primary());
        }
        self.machine(compiled, cancel)?.run_to_completion()
    }

    /// The whole job: compile, then simulate.
    ///
    /// # Errors
    ///
    /// Returns [`JobError`] for failures in either stage.
    pub fn run(&self, cancel: Option<&CancelToken>) -> Result<RunResult, JobError> {
        let compiled = self.compile()?;
        Ok(self.simulate(&compiled, cancel)?)
    }

    /// The canonical byte string a content-addressed cache hashes to key
    /// this job: a schema tag plus every input that can influence the
    /// result or its timing. The `Debug` renderings of the option and
    /// configuration structs are used deliberately — any new field shows
    /// up in them automatically, so extending the configuration can never
    /// silently alias two distinct jobs to one key. (Keys are therefore
    /// only stable within one version of this crate; a cache is a cache,
    /// not an archive.)
    pub fn cache_key_material(&self) -> String {
        format!(
            "wmd-job-v1\x00{}\x00{:?}\x00{:?}\x00{}\x00{:?}",
            self.source, self.opts, self.config, self.entry, self.args
        )
    }
}

/// A token that cancels itself once `deadline` elapses, enforced by a
/// detached watchdog thread. This is how `wmcc --deadline-ms` bounds a
/// run's *wall-clock* time — as opposed to `max_cycles`, which bounds
/// simulated time.
pub fn deadline_token(deadline: Duration) -> CancelToken {
    let token = CancelToken::new();
    let armed = token.clone();
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        armed.cancel();
    });
    token
}

#[cfg(test)]
mod tests {
    use super::*;

    // Far too much work to finish within the tests' deadlines, but still
    // finite (so a missed cancellation fails the test loudly via the
    // cycle-limit timeout rather than hanging the suite).
    const LOOP_FOREVER: &str =
        "int main() { int i; int s; s = 0; for (i = 0; i < 1000000000; i++) s += i; return s; }";

    #[test]
    fn runs_a_job_end_to_end() {
        let r = JobSpec::new("int main() { return 6 * 7; }")
            .run(None)
            .unwrap();
        assert_eq!(r.ret_int, 42);
    }

    #[test]
    fn compile_errors_are_job_errors() {
        let e = JobSpec::new("int main() { return x; }")
            .run(None)
            .unwrap_err();
        assert!(matches!(e, JobError::Compile(_)));
        assert!(e.to_string().contains("unknown variable"));
    }

    #[test]
    fn cancellation_stops_an_unbounded_run() {
        let spec = JobSpec::new(LOOP_FOREVER);
        let token = CancelToken::new();
        token.cancel(); // pre-cancelled: stops at the first step boundary
        let e = spec.run(Some(&token)).unwrap_err();
        assert!(matches!(e, JobError::Sim(SimError::Cancelled { .. })));
    }

    #[test]
    fn deadline_token_fires() {
        let spec = JobSpec::new(LOOP_FOREVER);
        let token = deadline_token(Duration::from_millis(30));
        let e = spec.run(Some(&token)).unwrap_err();
        let JobError::Sim(sim) = &e else {
            panic!("expected a simulation error, got {e}");
        };
        assert_eq!(sim.kind_name(), "cancelled");
        assert!(sim.state().is_some(), "cancellation carries a state dump");
    }

    #[test]
    fn cache_key_material_separates_distinct_jobs() {
        let a = JobSpec::new("int main() { return 1; }");
        let mut b = a.clone();
        assert_eq!(a.cache_key_material(), b.cache_key_material());
        b.config = b.config.with_mem_latency(24);
        assert_ne!(a.cache_key_material(), b.cache_key_material());
        let mut c = a.clone();
        c.args = vec![3];
        assert_ne!(a.cache_key_material(), c.cache_key_material());
    }

    /// A value for `setting` that differs from the default job's.
    fn sample(setting: &Setting) -> String {
        match &setting.kind {
            Kind::Flag(cli, _) => cli.to_string(),
            Kind::Unsigned(..) => "3".to_string(),
            Kind::Text(..) => match setting.name {
                "engine" => "cycle",
                "mem" => "cache",
                "inject" => "drop:3",
                other => panic!("no sample value for `{other}`"),
            }
            .to_string(),
        }
    }

    #[test]
    fn settings_compose_in_any_order_with_opt() {
        for setting in SETTINGS.iter().filter(|s| s.name != "opt") {
            let value = sample(setting);
            for level in OptOptions::LEVELS {
                let mut opt_only = JobSpec::new("int main() { return 0; }");
                opt_only.set("opt", level).unwrap();
                let mut after = opt_only.clone();
                after.set(setting.name, &value).unwrap();
                let mut before = JobSpec::new("int main() { return 0; }");
                before.set(setting.name, &value).unwrap();
                before.set("opt", level).unwrap();
                let what = format!("{} {value} / opt {level}", setting.name);
                assert_ne!(
                    after.cache_key_material(),
                    opt_only.cache_key_material(),
                    "{what} changes the job"
                );
                assert_eq!(
                    before.cache_key_material(),
                    after.cache_key_material(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn bounded_settings_reject_zero_and_one_past_the_end() {
        for name in ["fifo", "mem_ports", "tiles"] {
            let setting = SETTINGS.iter().find(|s| s.name == name).unwrap();
            let Kind::Unsigned(range, _) = &setting.kind else {
                panic!("`{name}` is unsigned");
            };
            let mut spec = JobSpec::new("");
            let past = range.end() + 1;
            for bad in [0, past] {
                let e = spec.set(name, &bad.to_string()).unwrap_err();
                assert_eq!(e, format!("`{name}` must be in {range:?}, got {bad}"));
            }
            spec.set(name, &range.end().to_string()).unwrap();
        }
    }

    /// The values worth trying for `setting`: every legal flag or level,
    /// the edges of an unsigned range and the widest integers, and each
    /// number of `inject` and each timing key of `mem` at `u32::MAX` and
    /// `u64::MAX`.
    fn edge_values(setting: &Setting) -> Vec<String> {
        let huge = [u64::from(u32::MAX), u64::MAX];
        match &setting.kind {
            Kind::Flag(..) => vec!["true".into(), "false".into()],
            Kind::Unsigned(range, _) => {
                let mut v = vec![0, 1, *range.end(), range.end().saturating_add(1)];
                v.extend(huge);
                v.sort_unstable();
                v.dedup();
                v.iter().map(u64::to_string).collect()
            }
            Kind::Text(values, _) => match setting.name {
                "opt" | "engine" => values.split(", ").map(str::to_string).collect(),
                "inject" => huge
                    .iter()
                    .flat_map(|n| {
                        [
                            format!("delay:1:{n}"),
                            format!("delay:{n}:1"),
                            format!("drop:{n}"),
                            format!("scu:0:{n}"),
                            format!("scu:{n}:1"),
                            format!("jitter:1:{n}"),
                            format!("jitter:{n}:1"),
                        ]
                    })
                    .collect(),
                "mem" => huge
                    .iter()
                    .flat_map(|n| {
                        ["hit", "miss", "transfer"]
                            .map(|k| format!("cache:{k}={n}"))
                            .into_iter()
                            .chain(
                                ["hit", "miss", "transfer", "busy", "rowmiss"]
                                    .map(|k| format!("banked:{k}={n}")),
                            )
                            .chain([format!("banked:rowhit={n},rowmiss={n}")])
                    })
                    .collect(),
                other => panic!("no edge values for `{other}`"),
            },
        }
    }

    /// No value of any setting panics a job: each one is refused by
    /// `set`, or the job runs to a result or a `SimError`. The job
    /// stores, loads and squashes a speculative stream, so every latency
    /// a setting can stretch lies on its path.
    #[test]
    fn no_setting_value_panics_a_job() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut base = JobSpec::new(crate::tests::SENTINEL_SCAN);
        for (name, value) in [
            ("opt", "full"),
            ("speculative_streams", "true"),
            ("max_cycles", "100000"),
        ] {
            base.set(name, value).unwrap();
        }
        let mut panicked = Vec::new();
        for setting in &SETTINGS {
            for value in edge_values(setting) {
                let mut spec = base.clone();
                if spec.set(setting.name, &value).is_err() {
                    continue;
                }
                let case = format!("{} = {value}", setting.name);
                match catch_unwind(AssertUnwindSafe(|| spec.run(None))) {
                    Ok(Ok(_) | Err(JobError::Sim(_))) => {}
                    Ok(Err(e)) => panic!("{case}: {e}"),
                    Err(_) => panicked.push(case),
                }
            }
        }
        assert!(panicked.is_empty(), "jobs panicked: {panicked:?}");
    }

    #[test]
    fn cycle_settings_reject_one_past_the_end() {
        for name in ["mem_latency", "squash_penalty"] {
            let setting = SETTINGS.iter().find(|s| s.name == name).unwrap();
            let Kind::Unsigned(range, _) = &setting.kind else {
                panic!("`{name}` is unsigned");
            };
            assert_eq!(*range, CYCLES_RANGE, "{name}");
            let mut spec = JobSpec::new("");
            let past = range.end() + 1;
            let e = spec.set(name, &past.to_string()).unwrap_err();
            assert_eq!(e, format!("`{name}` must be in {range:?}, got {past}"));
            spec.set(name, &range.end().to_string()).unwrap();
        }
    }

    #[test]
    fn tiles_writes_both_structs() {
        let mut spec = JobSpec::new("");
        spec.set("tiles", "4").unwrap();
        assert_eq!((spec.opts.tiles, spec.config.tiles), (4, 4));
    }

    #[test]
    fn malformed_values_are_rejected() {
        let mut spec = JobSpec::new("");
        let untouched = spec.cache_key_material();
        for (name, value) in [
            ("opt", "O2"),
            ("noalias", "yes"),
            ("fifo", "-1"),
            ("mem_latency", "six"),
            ("engine", "event"),
            ("mem", "dram"),
            ("inject", "explode:now"),
            ("entry", "main"),
        ] {
            assert!(spec.set(name, value).is_err(), "{name} {value}");
        }
        assert_eq!(spec.cache_key_material(), untouched);
        let e = spec.set("opt", "O2").unwrap_err();
        assert_eq!(
            e,
            "`opt` must be one of none, classical, recurrence, full, modulo"
        );
        let Kind::Text(values, _) = &SETTINGS[0].kind else {
            panic!("`opt` is text");
        };
        assert_eq!(*values, OptOptions::LEVELS.join(", "));
    }

    /// DESIGN.md's settings table is this module's table, row for row.
    #[test]
    fn design_doc_lists_every_setting() {
        let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
            .unwrap();
        for s in &SETTINGS {
            let (flag, range) = match &s.kind {
                Kind::Flag(cli, _) => (format!("`{}` = `{cli}`", s.flag), "boolean".into()),
                Kind::Unsigned(range, _) if *range == ANY => {
                    (format!("`{} N`", s.flag), "any".to_string())
                }
                Kind::Unsigned(range, _) => (format!("`{} N`", s.flag), format!("`{range:?}`")),
                Kind::Text(values, _) => (format!("`{} X`", s.flag), values.to_string()),
            };
            let row = format!(
                "| `{}` | {flag} | {range} | {} |",
                s.name,
                s.writes.split_whitespace().collect::<Vec<_>>().join(" ")
            );
            assert!(doc.contains(&row), "DESIGN.md lacks the row\n{row}");
        }
    }

    #[test]
    fn uncancelled_runs_are_bit_identical_to_tokenless_runs() {
        let spec = JobSpec::new(
            "int a[64]; int main() { int i; int s; s = 0;
             for (i = 0; i < 64; i++) a[i] = i;
             for (i = 0; i < 64; i++) s += a[i]; return s; }",
        );
        let plain = spec.run(None).unwrap();
        let token = CancelToken::new();
        let tokened = spec.run(Some(&token)).unwrap();
        assert_eq!(plain.cycles, tokened.cycles);
        assert_eq!(plain.perf, tokened.perf);
        assert_eq!(plain.ret_int, tokened.ret_int);
    }
}
