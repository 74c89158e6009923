//! The `wmd` wire protocol: newline-delimited JSON, one request and one
//! terminal response per line.
//!
//! A client writes one JSON object per line. Job requests carry an `id`
//! (echoed back, never interpreted) and a `source`, plus optional
//! optimizer, machine-configuration and scheduling fields. Control
//! requests carry an `op` instead (`ping`, `stats`, `shutdown`).
//!
//! The daemon guarantees **exactly one terminal response per job line**,
//! in completion order (not submission order): either
//! `{"id": ..., "status": "ok", ...}` with the result payload, or
//! `{"id": ..., "status": "error", "error": {"class": ...}, ...}`. Lines
//! that do not parse at all get an `"error"` response with
//! `"class": "bad-request"` and a null id.
//!
//! The full schema is documented in `DESIGN.md` § "Service and
//! supervision".

use wm_stream::driver::{Kind, SETTINGS};
use wm_stream::json::{self, Fixed, Layout, ToJson, Value, Writer};
use wm_stream::sim::SimError;
use wm_stream::JobSpec;

/// A deterministic panic-injection point, enabled only when the daemon
/// runs with `--chaos`. This exists so the soak tests (and an operator
/// probing a deployment) can prove the supervision story without
/// crafting inputs that break the real compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPoint {
    /// Panic inside the compile stage.
    PanicCompile,
    /// Panic inside the simulate stage.
    PanicSimulate,
    /// Sleep 300ms inside the simulate stage *without* polling the
    /// cancellation token — a model of a wedged worker, for proving the
    /// watchdog's stuck-claim path end to end.
    SleepSimulate,
}

/// A parsed job request: the spec plus its scheduling envelope.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen id, echoed in the response.
    pub id: String,
    /// What to compile and run.
    pub spec: JobSpec,
    /// Per-job wall-clock deadline (overrides the daemon default).
    pub deadline_ms: Option<u64>,
    /// Bypass the artifact cache for this job (both lookup and store).
    pub no_cache: bool,
    /// Panic injection point (honored only under `--chaos`).
    pub chaos: Option<ChaosPoint>,
}

/// A parsed control request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Liveness probe; answered with `{"op": "pong"}`.
    Ping,
    /// Counter snapshot; answered with `{"op": "stats", ...}`.
    Stats,
    /// Stop accepting input on this connection, drain, exit.
    Shutdown,
}

/// Any request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// A compile-and-simulate job.
    Job(Box<JobRequest>),
    /// A control operation.
    Control(ControlOp),
}

/// Parse one request line.
///
/// # Errors
///
/// Returns `(maybe_id, message)`: the job id if one could be extracted
/// (so the error response can still be correlated) and a human-readable
/// description of what was wrong.
pub fn parse_request(line: &str) -> Result<Request, (Option<String>, String)> {
    let v = json::parse(line).map_err(|e| (None, format!("malformed JSON: {e}")))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .map(std::string::ToString::to_string);
    match parse_request_value(&v) {
        Ok(r) => Ok(r),
        Err(msg) => Err((id, msg)),
    }
}

fn parse_request_value(v: &Value) -> Result<Request, String> {
    if let Some(op) = v.get("op") {
        let op = op.as_str().ok_or("`op` must be a string")?;
        return match op {
            "ping" => Ok(Request::Control(ControlOp::Ping)),
            "stats" => Ok(Request::Control(ControlOp::Stats)),
            "shutdown" => Ok(Request::Control(ControlOp::Shutdown)),
            other => Err(format!("unknown op `{other}`")),
        };
    }
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or("missing required string field `id`")?
        .to_string();
    let source = v
        .get("source")
        .and_then(Value::as_str)
        .ok_or("missing required string field `source`")?
        .to_string();

    let mut spec = JobSpec::new(source);
    for setting in &SETTINGS {
        let Some(x) = v.get(setting.name) else {
            continue;
        };
        let value = match setting.kind {
            Kind::Flag(..) => x.as_bool().map(|b| b.to_string()),
            Kind::Unsigned(..) => x.as_u64().map(|n| n.to_string()),
            Kind::Text(..) => x.as_str().map(str::to_string),
        };
        let value =
            value.ok_or_else(|| format!("`{}` must be {}", setting.name, setting.kind.noun()))?;
        spec.set(setting.name, &value)?;
    }
    if let Some(e) = v.get("entry") {
        spec.entry = e.as_str().ok_or("`entry` must be a string")?.to_string();
    }
    if let Some(a) = v.get("args") {
        let arr = a.as_arr().ok_or("`args` must be an array of integers")?;
        spec.args = arr
            .iter()
            .map(|x| x.as_i64().ok_or("`args` must be an array of integers"))
            .collect::<Result<_, _>>()?;
    }

    let deadline_ms = field_u64(v, "deadline_ms")?;
    let no_cache = field_bool(v, "no_cache")?;
    let chaos =
        match v.get("chaos") {
            None => None,
            Some(c) => match c.as_str() {
                Some("panic-compile") => Some(ChaosPoint::PanicCompile),
                Some("panic-simulate") => Some(ChaosPoint::PanicSimulate),
                Some("sleep-simulate") => Some(ChaosPoint::SleepSimulate),
                _ => return Err(
                    "`chaos` must be \"panic-compile\", \"panic-simulate\" or \"sleep-simulate\""
                        .to_string(),
                ),
            },
        };

    Ok(Request::Job(Box::new(JobRequest {
        id,
        spec,
        deadline_ms,
        no_cache,
        chaos,
    })))
}

fn field_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(false),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

/// Why a job failed, as it appears on the wire.
#[derive(Debug)]
pub enum ErrorClass {
    /// The source did not compile.
    Compile(String),
    /// The simulation terminated abnormally (fault, deadlock, timeout).
    Sim(SimError),
    /// A worker panicked in `stage` ("compile" or "simulate"); the panic
    /// payload is carried verbatim.
    Panic {
        /// Pipeline stage that panicked.
        stage: &'static str,
        /// Stringified panic payload.
        payload: String,
    },
    /// The per-job wall-clock deadline elapsed. `stuck: true` means the
    /// watchdog had to answer for a worker that did not observe its
    /// cancellation token within the grace period.
    Deadline {
        /// The deadline that was exceeded.
        deadline_ms: u64,
        /// Whether the watchdog claimed the response from a stuck worker.
        stuck: bool,
    },
    /// The daemon shed this job at admission because the queue was full.
    Overloaded {
        /// Queue depth observed at admission.
        queued: usize,
        /// The configured `--queue-limit`.
        limit: usize,
    },
    /// The request line itself was invalid.
    BadRequest(String),
}

impl ErrorClass {
    /// Stable wire name of the class.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorClass::Compile(_) => "compile",
            ErrorClass::Sim(_) => "sim",
            ErrorClass::Panic { .. } => "panic",
            ErrorClass::Deadline { .. } => "deadline",
            ErrorClass::Overloaded { .. } => "overloaded",
            ErrorClass::BadRequest(_) => "bad-request",
        }
    }
}

/// `class`, then the class's own members.
impl ToJson for ErrorClass {
    fn write_json(&self, w: &mut Writer) {
        w.object(Layout::Inline, |w| {
            w.field("class", self.name());
            match self {
                ErrorClass::Compile(msg) | ErrorClass::BadRequest(msg) => w.field("detail", msg),
                ErrorClass::Sim(e) => w.field("sim", e),
                ErrorClass::Panic { stage, payload } => {
                    w.field("stage", *stage).field("payload", payload)
                }
                ErrorClass::Deadline { deadline_ms, stuck } => {
                    w.field("deadline_ms", deadline_ms).field("stuck", stuck)
                }
                ErrorClass::Overloaded { queued, limit } => {
                    w.field("queued", queued).field("limit", limit)
                }
            };
        });
    }
}

/// Render a terminal success line. `result_payload` is the
/// cache-controlled document produced by [`crate::job::result_payload`]
/// — on a cache hit the stored bytes are spliced in verbatim, which is
/// what makes hit/miss bit-identity a protocol property rather than a
/// hope. `result` is the line's last member.
pub fn ok_line(id: &str, cached: bool, wall_ms: f64, result_payload: &str) -> String {
    json::object(Layout::Inline, |w| {
        w.field("id", id)
            .field("status", "ok")
            .field("cached", cached)
            .field("wall_ms", Fixed(wall_ms, 3))
            .key("result")
            .raw(result_payload);
    })
}

/// Render a terminal error line.
pub fn error_line(id: Option<&str>, class: &ErrorClass) -> String {
    json::object(Layout::Inline, |w| {
        w.field("id", id)
            .field("status", "error")
            .field("error", class);
    })
}

/// Render a control response with no other members: `{"op": "pong"}`.
pub fn op_line(op: &str) -> String {
    json::object(Layout::Inline, |w| {
        w.field("op", op);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_job() {
        let r = parse_request(r#"{"id": "j1", "source": "int main() { return 3; }"}"#).unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert_eq!(j.id, "j1");
        assert_eq!(j.spec.entry, "main");
        assert!(!j.no_cache);
        assert!(j.chaos.is_none());
        assert!(j.deadline_ms.is_none());
    }

    #[test]
    fn parses_the_full_envelope() {
        let r = parse_request(
            r#"{"id": "j2", "source": "int f(int n) { return n; }", "opt": "classical",
                "noalias": true, "engine": "compiled", "mem": "banked:banks=4",
                "mem_latency": 9, "fifo": 16, "entry": "f", "args": [7],
                "deadline_ms": 250, "no_cache": true, "inject": "drop:3",
                "squash_penalty": 5, "partition": false, "tiles": 2}"#,
        )
        .unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert_eq!(j.spec.entry, "f");
        assert_eq!(j.spec.args, vec![7]);
        assert_eq!(j.deadline_ms, Some(250));
        assert!(j.no_cache);
        assert_eq!(j.spec.config.engine.name(), "compiled");
        assert_eq!(j.spec.config.mem_model.name(), "banked");
        assert!(!j.spec.config.fault_plan.is_empty());
        assert_eq!(j.spec.config.squash_penalty, 5);
        assert!(!j.spec.opts.partition);
        assert_eq!((j.spec.opts.tiles, j.spec.config.tiles), (2, 2));
    }

    #[test]
    fn parses_the_modulo_opt_level() {
        let r =
            parse_request(r#"{"id": "j3", "source": "int main() { return 1; }", "opt": "modulo"}"#)
                .unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert!(j.spec.opts.modulo, "opt=modulo enables the scheduler");
        assert!(j.spec.opts.streaming, "modulo rides on the full pipeline");
        // The flag participates in the cache key (distinct artifacts).
        let mut plain = j.spec.clone();
        plain.opts.modulo = false;
        assert_ne!(
            j.spec.cache_key_material(),
            plain.cache_key_material(),
            "modulo jobs must not alias full-opt cache entries"
        );
        let (_, msg) =
            parse_request(r#"{"id": "j4", "source": "int main(){return 1;}", "opt": "maximal"}"#)
                .unwrap_err();
        assert!(msg.contains("modulo"), "error message lists modulo: {msg}");
    }

    #[test]
    fn parses_control_ops() {
        assert!(matches!(
            parse_request(r#"{"op": "ping"}"#),
            Ok(Request::Control(ControlOp::Ping))
        ));
        assert!(matches!(
            parse_request(r#"{"op": "shutdown"}"#),
            Ok(Request::Control(ControlOp::Shutdown))
        ));
        assert!(parse_request(r#"{"op": "reboot"}"#).is_err());
    }

    #[test]
    fn bad_requests_keep_the_id_when_possible() {
        let (id, msg) = parse_request(r#"{"id": "j9", "engine": "compiled"}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("j9"));
        assert!(msg.contains("source"));
        let (id, _) = parse_request("not json at all").unwrap_err();
        assert!(id.is_none());
        // Well-formed jobs with an unknown engine or a machine parameter
        // outside its legal range: a bad request, never an allocation
        // the host cannot make.
        for field in [
            r#""engine": "event""#,
            r#""fifo": 0"#,
            r#""fifo": 1099511627776"#,
            r#""mem_ports": 0"#,
            r#""mem_ports": 4294967295"#,
            r#""mem": "cache:size=1099511627776""#,
            r#""mem": "banked:banks=1099511627776""#,
            r#""mem": "cache:sbufs=100000000000""#,
            // cycle counts past `CYCLES_RANGE` would wrap a due cycle
            r#""mem_latency": 18446744073709551615"#,
            r#""squash_penalty": 18446744073709551615"#,
            r#""mem": "cache:miss=18446744073709551615""#,
            r#""inject": "jitter:1:18446744073709551615""#,
        ] {
            let line = format!(r#"{{"id": "p", "source": "int main() {{ return 0; }}", {field}}}"#);
            let (id, msg) = parse_request(&line).unwrap_err();
            assert_eq!(id.as_deref(), Some("p"), "{field}: {msg}");
        }
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let line = error_line(
            Some("x\ny"),
            &ErrorClass::Panic {
                stage: "simulate",
                payload: "boom\nbang".to_string(),
            },
        );
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("class"))
                .and_then(Value::as_str),
            Some("panic")
        );
        assert_eq!(v.get("id").and_then(Value::as_str), Some("x\ny"));
    }

    #[test]
    fn chaos_points_require_known_names() {
        let r = parse_request(r#"{"id": "c", "source": "s", "chaos": "panic-compile"}"#).unwrap();
        let Request::Job(j) = r else {
            panic!("expected a job")
        };
        assert_eq!(j.chaos, Some(ChaosPoint::PanicCompile));
        assert!(parse_request(r#"{"id": "c", "source": "s", "chaos": "segfault"}"#).is_err());
    }
}
