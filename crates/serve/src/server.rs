//! Connection handling: newline-delimited JSON over stdio or a Unix
//! socket, one writer thread per connection, graceful drain on EOF.
//!
//! The drain protocol is structural rather than counted: every job
//! holds a clone of its connection's reply `Sender`, so the writer
//! thread's channel closes exactly when the reader has hit EOF *and*
//! every job submitted from that connection has produced its terminal
//! response. Joining the writer *is* the drain barrier.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use wm_stream::json::{self, Layout};

use crate::cache::{ArtifactCache, ScrubReport};
use crate::pool::{Counters, Pool, PoolConfig};
use crate::proto::{self, ControlOp, ErrorClass, Request};

/// The longest request line the daemon reads, in bytes before its
/// newline. The largest workload source is about 3 KB, so a real job
/// fits several hundred times over; the bound keeps one client line from
/// making the daemon buffer without limit.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration, assembled by `wmd`'s argument parser.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Pool tuning (workers, queue limit, deadlines).
    pub pool: PoolConfig,
    /// Artifact-cache directory; `None` disables the cache entirely.
    pub cache_dir: Option<PathBuf>,
}

/// A running daemon: pool plus cache plus uptime clock.
pub struct Server {
    pool: Arc<Pool>,
    started: Instant,
    scrub: ScrubReport,
    workers: usize,
}

impl Server {
    /// Open the cache (scrubbing it), start the pool.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from cache-directory creation.
    pub fn new(cfg: ServerConfig) -> io::Result<Server> {
        let (cache, scrub) = match &cfg.cache_dir {
            Some(dir) => {
                let (c, report) = ArtifactCache::open(dir)?;
                if report.removed_corrupt + report.removed_temp > 0 {
                    eprintln!(
                        "wmd: cache scrub at {}: kept {}, removed {} corrupt, {} temp",
                        dir.display(),
                        report.kept,
                        report.removed_corrupt,
                        report.removed_temp
                    );
                }
                (Some(c), report)
            }
            None => (None, ScrubReport::default()),
        };
        let workers = cfg.pool.workers;
        Ok(Server {
            pool: Arc::new(Pool::new(cfg.pool, cache)),
            started: Instant::now(),
            scrub,
            workers,
        })
    }

    /// The scrub report from startup (what a previous crash left behind).
    pub fn scrub_report(&self) -> ScrubReport {
        self.scrub
    }

    /// Serve one connection on stdin/stdout; returns at EOF or after a
    /// `shutdown` op, with every accepted job answered.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the reader; write errors end the writer
    /// thread silently (the peer is gone).
    pub fn serve_stdio(self) -> io::Result<()> {
        let (tx, rx) = channel::<String>();
        let writer = std::thread::spawn(move || {
            let stdout = io::stdout();
            let mut out = stdout.lock();
            for line in rx {
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    return; // peer closed stdout; drain the channel and go
                }
            }
        });
        let stdin = io::stdin();
        self.handle_reader(stdin.lock(), &tx);
        drop(tx);
        let _ = writer.join(); // the drain barrier (see module docs)
        Ok(())
    }

    /// Serve connections on a Unix socket until a client sends
    /// `{"op": "shutdown"}`; that connection is drained, then the
    /// process exits.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding or accepting.
    pub fn serve_socket(self, path: &Path) -> io::Result<()> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        eprintln!("wmd: listening on {}", path.display());
        let server = Arc::new(self);
        for stream in listener.incoming() {
            let stream = stream?;
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                if server.serve_stream(stream) {
                    // Drained shutdown: the requesting connection has all
                    // its answers; other connections lose their transport,
                    // which is the documented semantics of `shutdown`.
                    std::process::exit(0);
                }
            });
        }
        Ok(())
    }

    /// Serve one accepted socket connection. Returns whether the client
    /// requested daemon shutdown.
    fn serve_stream(&self, stream: UnixStream) -> bool {
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return false,
        };
        let (tx, rx) = channel::<String>();
        let writer = std::thread::spawn(move || {
            let mut out = stream;
            for line in rx {
                if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                    return;
                }
            }
        });
        let shutdown = self.handle_reader(reader, &tx);
        drop(tx);
        let _ = writer.join();
        shutdown
    }

    /// The request loop. Returns whether a `shutdown` op was received.
    /// Lines are read as bytes, so a line that is not UTF-8 gets its
    /// `bad-request` like any other malformed line, and the lines after
    /// it are still read; only EOF, an I/O error or `shutdown` ends the
    /// loop. At most [`MAX_LINE_BYTES`] of a line are held: a longer one
    /// gets one `bad-request`, and the rest of it is skipped unread.
    fn handle_reader(&self, mut reader: impl BufRead, tx: &Sender<String>) -> bool {
        let mut bytes = Vec::new();
        loop {
            bytes.clear();
            let bound = MAX_LINE_BYTES as u64 + 1; // the line and its newline
            if !matches!(
                (&mut reader).take(bound).read_until(b'\n', &mut bytes),
                Ok(1..)
            ) {
                return false;
            }
            let line = match bytes.strip_suffix(b"\n") {
                None if bytes.len() > MAX_LINE_BYTES => {
                    if reader.skip_until(b'\n').is_err() {
                        return false;
                    }
                    Err((
                        None,
                        format!("request line longer than {MAX_LINE_BYTES} bytes"),
                    ))
                }
                line => {
                    let line = line.unwrap_or(&bytes);
                    std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line))
                        .map_err(|e| (None, format!("request line is not UTF-8: {e}")))
                }
            };
            if line.as_ref().is_ok_and(|l| l.trim().is_empty()) {
                continue;
            }
            match line.and_then(proto::parse_request) {
                Err((id, msg)) => {
                    Counters::bump(&self.pool.counters().bad_requests);
                    let _ = tx.send(proto::error_line(
                        id.as_deref(),
                        &ErrorClass::BadRequest(msg),
                    ));
                }
                Ok(Request::Control(ControlOp::Ping)) => {
                    let _ = tx.send(proto::op_line("pong"));
                }
                Ok(Request::Control(ControlOp::Stats)) => {
                    let _ = tx.send(self.stats_line());
                }
                Ok(Request::Control(ControlOp::Shutdown)) => {
                    let _ = tx.send(proto::op_line("bye"));
                    return true;
                }
                Ok(Request::Job(job)) => self.pool.submit(*job, tx.clone()),
            }
        }
    }

    /// The `{"op": "stats"}` response document.
    fn stats_line(&self) -> String {
        let c = self.pool.counters();
        let g = |f: &std::sync::atomic::AtomicU64| f.load(Ordering::Relaxed);
        json::object(Layout::Inline, |w| {
            w.field("op", "stats")
                .field("uptime_ms", self.started.elapsed().as_millis())
                .field("workers", self.workers)
                .field("queue", self.pool.queue_len())
                .field("received", g(&c.received))
                .field("ok", g(&c.ok))
                .field("errors", g(&c.errors))
                .field("panics", g(&c.panics))
                .field("shed", g(&c.shed))
                .field("cache_hits", g(&c.cache_hits))
                .field("cache_misses", g(&c.cache_misses))
                .field("stuck", g(&c.stuck))
                .field("bad_requests", g(&c.bad_requests))
                .field(
                    "scrub_removed",
                    self.scrub.removed_corrupt + self.scrub.removed_temp,
                );
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use wm_stream::json::Value;

    use super::*;

    fn serve_lines(cfg: ServerConfig, input: impl AsRef<[u8]>) -> Vec<String> {
        let server = Server::new(cfg).unwrap();
        let (tx, rx) = channel::<String>();
        server.handle_reader(BufReader::new(input.as_ref()), &tx);
        drop(tx);
        drop(server); // drains the pool; all replies land first
        rx.into_iter().collect()
    }

    #[test]
    fn pings_and_stats_and_jobs_interleave() {
        let input = concat!(
            "{\"op\": \"ping\"}\n",
            "{\"id\": \"a\", \"source\": \"int main() { return 4; }\"}\n",
            "this is not json\n",
            "{\"op\": \"stats\"}\n",
        );
        let lines = serve_lines(ServerConfig::default(), input);
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().any(|l| l.contains("\"pong\"")));
        assert!(lines.iter().any(|l| l.contains("\"bad-request\"")));
        assert!(lines.iter().any(|l| l.contains("\"op\": \"stats\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"id\": \"a\"") && l.contains("\"status\": \"ok\"")));
    }

    #[test]
    fn shutdown_op_stops_reading_but_answers_prior_jobs() {
        let input = concat!(
            "{\"id\": \"before\", \"source\": \"int main() { return 1; }\"}\n",
            "{\"op\": \"shutdown\"}\n",
            "{\"id\": \"after\", \"source\": \"int main() { return 2; }\"}\n",
        );
        let lines = serve_lines(ServerConfig::default(), input);
        assert!(lines.iter().any(|l| l.contains("\"id\": \"before\"")));
        assert!(lines.iter().any(|l| l.contains("\"bye\"")));
        assert!(
            !lines.iter().any(|l| l.contains("\"id\": \"after\"")),
            "lines after shutdown are not read: {lines:?}"
        );
    }

    #[test]
    fn a_line_that_is_not_utf8_is_answered_and_reading_goes_on() {
        let mut input = b"{\"op\": \"ping\"}\r\n".to_vec();
        input.extend_from_slice(b"{\"id\": \"x\", \"source\": \"int main() { return 1; }\xff\"}\n");
        input.extend_from_slice(b"{\"id\": \"y\", \"source\": \"int main() { return 2; }\"}\r\n");
        input.extend_from_slice(b"{\"op\": \"ping\"}");
        let lines = serve_lines(ServerConfig::default(), input);
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert_eq!(
            lines.iter().filter(|l| *l == "{\"op\": \"pong\"}").count(),
            2
        );
        assert!(lines.iter().any(|l| l.starts_with("{\"id\": null")
            && l.contains("\"bad-request\"")
            && l.contains("not UTF-8")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"id\": \"y\"") && l.contains("\"status\": \"ok\"")));
    }

    #[test]
    fn an_over_long_line_is_refused_once_and_reading_goes_on() {
        let mut input = vec![b'x'; 3 * MAX_LINE_BYTES];
        input.extend_from_slice(b"\n{\"op\": \"ping\"}\n");
        let lines = serve_lines(ServerConfig::default(), input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"id\": null")
                && lines[0].contains("\"bad-request\"")
                && lines[0].contains(&format!("longer than {MAX_LINE_BYTES} bytes"))
        );
        assert_eq!(lines[1], "{\"op\": \"pong\"}");
    }

    #[test]
    fn a_line_of_exactly_the_bound_is_read() {
        let padded = |len: usize| {
            let mut line = b"{\"op\": \"ping\"}".to_vec();
            line.resize(len, b' ');
            line.push(b'\n');
            line
        };
        let lines = serve_lines(ServerConfig::default(), padded(MAX_LINE_BYTES));
        assert_eq!(lines, ["{\"op\": \"pong\"}"]);
        let lines = serve_lines(ServerConfig::default(), padded(MAX_LINE_BYTES + 1));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"bad-request\""), "{lines:?}");
    }

    #[test]
    fn ids_and_sources_keep_every_escape() {
        let input = concat!(
            r#"{"id": "job-\ud83d\ude00", "source": "int main() { /*\f\b\/*/ return 3; }"}"#,
            "\n",
            r#"{"id": "ff", "source": "int main() {\f return 4;\f}"}"#,
            "\n",
        );
        let mut lines = serve_lines(ServerConfig::default(), input);
        lines.sort();
        assert_eq!(lines.len(), 2, "{lines:?}");
        let v = json::parse(&lines[1]).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("job-😀"));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"), "{v:?}");
        // a form feed between tokens is whitespace to the compiler too
        let v = json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("ff"));
        let ret = v.get("result").and_then(|r| r.get("ret_int"));
        assert_eq!(ret.and_then(Value::as_i64), Some(4), "{v:?}");
    }

    /// Well-formed requests for the property below to cut and mutate:
    /// every job is capped at a few thousand cycles, so whatever one
    /// mutation makes of it still ends quickly.
    const REQUESTS: [&str; 4] = [
        r#"{"id": "a", "source": "int main() { int i; int s; s = 0; for (i = 0; i < 9; i++) s += i; return s; }", "max_cycles": 5000}"#,
        r#"{"id": "b\ud83d\ude00", "source": "int main() { return 2; } /*\"\\\/\b\f\n\r\t\u0041*/", "opt": "full", "max_cycles": 5000}"#,
        r#"{"id": "c", "source": "int f(int a, int b) { return a - b; }", "entry": "f", "args": [7, 2], "mem": "banked", "max_cycles": 3000}"#,
        r#"{"op": "stats"}"#,
    ];

    proptest! {
        /// One response per non-blank line, every response valid JSON,
        /// and a ping after hostile lines still answered: random bytes,
        /// a cut and a one-byte mutation of a valid request, nesting
        /// within and far beyond the parser's bound, and every escape.
        #[test]
        fn every_hostile_line_gets_one_parseable_response(
            noise in vec(any::<u8>(), 0..120),
            pick in 0..REQUESTS.len(),
            cut in any::<usize>(),
            at in any::<usize>(),
            byte in any::<u8>(),
            depth in 1usize..400,
        ) {
            let valid = REQUESTS[pick].as_bytes();
            let mut mutated = valid.to_vec();
            mutated[at % valid.len()] = byte;
            let nest = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let mut input = Vec::new();
            for line in [
                &noise[..],
                &valid[..cut % valid.len()],
                &mutated,
                nest.as_bytes(),
                "{\"a\": ".repeat(depth * 100).as_bytes(),
                valid,
            ] {
                input.extend_from_slice(line);
                input.push(b'\n');
            }
            input.extend_from_slice(b"{\"op\": \"ping\"}\n");
            let requests = input
                .split(|&b| b == b'\n')
                .filter(|l| std::str::from_utf8(l).map_or(true, |l| !l.trim().is_empty()))
                .count();
            let lines = serve_lines(ServerConfig::default(), &input);
            prop_assert_eq!(lines.len(), requests, "{:?}", lines);
            for line in &lines {
                let v = json::parse(line);
                prop_assert!(v.is_ok(), "unparseable response {}", line);
            }
            prop_assert_eq!(
                lines.iter().filter(|l| *l == "{\"op\": \"pong\"}").count(),
                1
            );
        }
    }
}
