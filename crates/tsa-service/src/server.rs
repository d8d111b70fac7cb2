//! Protocol frontends: an NDJSON session loop (stdin/stdout or one TCP
//! connection) and the batch driver.

use crate::engine::{AlignRequest, Engine, JobHandle};
use crate::protocol::{self, ProtocolError, Request};
use crate::stats::StatsSnapshot;
use parking_lot::Mutex;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Per-session transport limits for the NDJSON frontends.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Close a TCP connection that sends no bytes for this long. `None`
    /// disables the timeout. Only applies to TCP sessions; stdio and
    /// in-memory readers are never timed out.
    pub idle_timeout: Option<Duration>,
    /// Longest accepted request line, in bytes (newline excluded). An
    /// oversized line is consumed and answered with a positioned
    /// `invalid_argument` error; the session keeps running.
    pub max_line_bytes: usize,
    /// This server's shard identity when it runs as a cluster worker;
    /// reported by the `shard_info` and `hello` ops.
    pub shard: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            idle_timeout: Some(Duration::from_secs(300)),
            max_line_bytes: 1 << 20,
            shard: None,
        }
    }
}

/// The answering engine's identity for `server` response sections.
fn server_info(engine: &Engine) -> protocol::ServerInfo {
    protocol::ServerInfo::current(engine.uptime())
}

/// Answer a `trace` op from the engine's flight recorder: one tree by
/// id, the recent notable trees, or a structured "not enabled" error.
fn trace_response(engine: &Engine, trace_id: Option<u64>, recent: usize) -> String {
    match engine.recorder() {
        None => protocol::render_trace_unavailable(),
        Some(recorder) => {
            let trees = match trace_id {
                Some(id) => recorder.get(id).into_iter().collect(),
                None => recorder.recent(recent),
            };
            protocol::render_trace_response(&trees)
        }
    }
}

/// The reply to a control op (`stats`, `metrics`, `shard_info`, `hello`,
/// `ping` or `trace`), rendered alike by sessions and batches. `shard`
/// is the identity `shard_info` and `hello` report.
fn control_reply(engine: &Engine, op: &Request, shard: Option<u64>) -> String {
    match op {
        Request::Stats => protocol::render_stats(&engine.stats(), &server_info(engine)),
        Request::Metrics => protocol::render_metrics(&engine.metrics_text()),
        Request::ShardInfo => {
            let state_dir = engine.config().state_dir.as_ref();
            let state_dir = state_dir.map(|p| p.display().to_string());
            protocol::render_shard_info(shard, state_dir.as_deref(), &server_info(engine))
        }
        Request::Hello => protocol::render_hello(shard, &server_info(engine)),
        Request::Ping { seq } => protocol::render_pong(*seq, &server_info(engine)),
        Request::Trace { trace_id, recent } => trace_response(engine, *trace_id, *recent),
        Request::Submit(_) | Request::Shutdown | Request::Drain => {
            unreachable!("submit, shutdown and drain are not control ops")
        }
    }
}

fn write_line<W: Write>(writer: &Mutex<W>, line: &str) -> io::Result<()> {
    let mut w = writer.lock();
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

enum LineRead {
    /// Clean end of stream (nothing buffered).
    Eof,
    /// A complete line is in the buffer (trailing newline stripped).
    Line,
    /// The line exceeded the bound; it was consumed through its newline.
    TooLong,
}

/// Read one newline-terminated line into `buf`, refusing to buffer more
/// than `max` bytes. Works through `fill_buf`/`consume` so an oversized
/// line is discarded in chunks rather than accumulated — a client cannot
/// balloon server memory by never sending a newline.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<LineRead> {
    buf.clear();
    let mut discarding = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF mid-line still yields the partial line, matching
            // `read_until`; EOF mid-discard reports the oversize.
            return Ok(match (discarding, buf.is_empty()) {
                (true, _) => LineRead::TooLong,
                (false, true) => LineRead::Eof,
                (false, false) => LineRead::Line,
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |pos| pos);
        if !discarding {
            if buf.len() + take > max {
                buf.clear();
                discarding = true;
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        match newline {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(if discarding {
                    LineRead::TooLong
                } else {
                    LineRead::Line
                });
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
}

/// Run one NDJSON session: read request lines from `reader`, write
/// response lines to `writer` as jobs resolve (so responses can arrive
/// out of submission order — clients correlate by `id`). Returns after a
/// `shutdown` or `drain` request (engine stopped; final stats written),
/// at EOF (engine left running), or when the transport's idle timeout
/// expires (connection closed, engine left running).
pub fn serve_session<R, W>(
    engine: &Arc<Engine>,
    reader: R,
    writer: Arc<Mutex<W>>,
    options: &ServeOptions,
) -> io::Result<bool>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let mut reader = reader;
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut reader, &mut buf, options.max_line_bytes) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                let err = ProtocolError::line_too_long(options.max_line_bytes);
                write_line(&writer, &protocol::render_protocol_error(&err))?;
                continue;
            }
            // A read timeout on the underlying socket: the peer went
            // idle. Close this session; the engine keeps running.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break;
            }
            Err(e) => return Err(e),
        }
        while matches!(buf.last(), Some(b'\n' | b'\r')) {
            buf.pop();
        }
        // Validate UTF-8 here rather than via `lines()`: a client sending
        // raw bytes gets one structured error line, not a dead session.
        let line = match std::str::from_utf8(&buf) {
            Ok(line) => line,
            Err(e) => {
                let err = protocol::ProtocolError::not_utf8(e.valid_up_to());
                write_line(&writer, &protocol::render_protocol_error(&err))?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_request(line) {
            Err(err) => write_line(&writer, &protocol::render_protocol_error(&err))?,
            Ok(Request::Shutdown) => {
                let stats = engine.shutdown();
                write_line(&writer, &protocol::render_shutdown(&stats))?;
                return Ok(true);
            }
            Ok(Request::Drain) => {
                let stats = engine.drain();
                write_line(&writer, &protocol::render_drain(&stats))?;
                return Ok(true);
            }
            Ok(Request::Submit(req)) => {
                let tag = req.tag.clone();
                let cb_writer = Arc::clone(&writer);
                let submitted = engine.submit_with(*req, move |done| {
                    let _ = write_line(&cb_writer, &protocol::render_outcome(&done));
                });
                if let Err(err) = submitted {
                    write_line(&writer, &protocol::render_submit_error(&tag, &err))?;
                }
            }
            Ok(control) => write_line(&writer, &control_reply(engine, &control, options.shard))?,
        }
    }
    Ok(false)
}

/// Serve NDJSON over stdin/stdout until `shutdown`, `drain`, or EOF, under
/// default [`ServeOptions`]. Returns the final stats snapshot.
pub fn serve_stdio(engine: &Arc<Engine>) -> io::Result<StatsSnapshot> {
    let writer = Arc::new(Mutex::new(io::stdout()));
    let options = ServeOptions::default();
    let shut = serve_session(engine, io::stdin().lock(), writer, &options)?;
    Ok(if shut {
        engine.stats()
    } else {
        engine.shutdown()
    })
}

/// Serve NDJSON over TCP on an already-bound listener (callers may bind
/// port 0 and read the assigned address first): one session thread per
/// connection, all sharing the engine, each with the configured idle read
/// timeout and request-line bound. Returns after a connection issues
/// `shutdown` or `drain`.
///
/// The loop blocks in `accept`, so a new connection is served at once.
/// A session that ends with the engine stopped (it handled `shutdown`
/// or `drain`) wakes the loop with one loopback connect to the
/// listener's own port; the loop sees the stopped engine, closes the read
/// half of every connection still open, so that idle clients do not hold
/// the server up, and joins the sessions.
pub fn serve_listener(
    engine: &Arc<Engine>,
    listener: TcpListener,
    options: &ServeOptions,
) -> io::Result<StatsSnapshot> {
    listener.set_nonblocking(false)?;
    let wake = wake_address(listener.local_addr()?);
    let mut sessions: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
    while engine.is_running() {
        let (stream, _peer) = listener.accept()?;
        if !engine.is_running() {
            break;
        }
        // Sessions whose clients left need no handle: keep the live ones.
        sessions.retain(|(_, session)| !session.is_finished());
        stream.set_read_timeout(options.idle_timeout)?;
        let engine = Arc::clone(engine);
        let options = options.clone();
        let socket = stream.try_clone()?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = Arc::new(Mutex::new(stream));
        let session = std::thread::spawn(move || {
            let _ = serve_session(&engine, reader, writer, &options);
            if !engine.is_running() {
                let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            }
        });
        sessions.push((socket, session));
    }
    // Reads only: replies still pending go out through each session's
    // writer, which stays open until its last job has answered.
    for (socket, _) in &sessions {
        let _ = socket.shutdown(Shutdown::Read);
    }
    for (_, session) in sessions {
        let _ = session.join();
    }
    Ok(engine.stats())
}

/// Where a session connects to wake the accept loop: the listener's own
/// address (port and IPv6 scope kept), with a wildcard IP replaced by the
/// loopback of its family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if bound.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Per-outcome tally for one [`run_batch`] invocation.
///
/// `submitted` counts lines that produced a job; the four outcome
/// counters partition those jobs, and `errors` counts lines answered
/// with an error instead (parse failures and refused submits). A batch
/// is clean — [`BatchSummary::all_ok`] — exactly when every job ran to
/// completion and no line errored.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Lines that produced a job (accepted submits).
    pub submitted: usize,
    /// Jobs that finished with a result.
    pub done: usize,
    /// Jobs that exceeded their deadline.
    pub deadline: usize,
    /// Jobs cancelled before completion.
    pub cancelled: usize,
    /// Jobs whose kernel failed.
    pub failed: usize,
    /// Lines answered with an error line (bad requests, refused submits).
    pub errors: usize,
    /// Every job that did *not* finish cleanly, with its distributed
    /// trace id so failures are immediately queryable via the `trace`
    /// op. Not part of [`BatchSummary`]'s `Display` line.
    pub flagged: Vec<FlaggedJob>,
}

/// One non-clean batch line: enough identity to go fetch its trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlaggedJob {
    /// The caller's tag for the line.
    pub tag: String,
    /// Outcome label: `"deadline"`, `"cancelled"`, or `"failed"`.
    pub outcome: &'static str,
    /// Distributed trace id; 0 when the job ran untraced.
    pub trace_id: u64,
}

impl BatchSummary {
    /// True when every line in the batch resolved successfully.
    pub fn all_ok(&self) -> bool {
        self.deadline == 0 && self.cancelled == 0 && self.failed == 0 && self.errors == 0
    }
}

impl std::fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted={} done={} deadline={} cancelled={} failed={} errors={}",
            self.submitted, self.done, self.deadline, self.cancelled, self.failed, self.errors
        )
    }
}

/// Feed a batch of requests through the engine at full parallelism.
///
/// Each line of `input` is a protocol `submit` object (the `op` field is
/// optional in batch mode). Submission uses the blocking path — the
/// bounded queue throttles the reader instead of rejecting — and
/// responses are written in input order. Returns the per-outcome
/// [`BatchSummary`] so callers can fail a run that contained errors.
pub fn run_batch<W: Write>(
    engine: &Arc<Engine>,
    input: &str,
    writer: &mut W,
) -> io::Result<BatchSummary> {
    let mut summary = BatchSummary::default();
    let mut pending: Vec<(usize, String, JobHandle)> = Vec::new();
    let mut immediate: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Accept bare submit objects: inject the op when it is absent.
        let owned;
        let text = if line.contains("\"op\"") {
            line
        } else {
            owned = format!(
                "{{\"op\":\"submit\",{}",
                line.trim_start().trim_start_matches('{')
            );
            &owned
        };
        match protocol::parse_request(text) {
            Err(err) => {
                summary.errors += 1;
                immediate.push((lineno, protocol::render_protocol_error(&err)));
            }
            Ok(Request::Shutdown) | Ok(Request::Drain) => break,
            Ok(Request::Submit(req)) => {
                let tag = req.tag.clone();
                // A structured `overloaded` refusal carries a pacing
                // hint; the batch driver honors it with one bounded
                // sleep-and-retry before counting the line as an error.
                // The sleep is additionally capped by the job's own
                // deadline budget (its explicit deadline, else the
                // engine default): sleeping past the deadline would
                // guarantee the retry is submitted already expired.
                let result = match engine.submit_blocking((*req).clone()) {
                    Err(crate::SubmitError::Overloaded { retry_after_ms, .. })
                        if retry_after_ms > 0 =>
                    {
                        let budget = req
                            .deadline
                            .or(engine.config().default_deadline)
                            .unwrap_or(Duration::from_millis(5_000));
                        let pause = Duration::from_millis(retry_after_ms.min(5_000)).min(budget);
                        std::thread::sleep(pause);
                        engine.submit_blocking(*req)
                    }
                    other => other,
                };
                match result {
                    Ok(handle) => pending.push((lineno, tag, handle)),
                    Err(err) => {
                        summary.errors += 1;
                        immediate.push((lineno, protocol::render_submit_error(&tag, &err)));
                    }
                }
            }
            Ok(control) => immediate.push((lineno, control_reply(engine, &control, None))),
        }
    }
    summary.submitted = pending.len();
    let mut responses: Vec<(usize, String)> = immediate;
    for (lineno, tag, handle) in pending {
        let id = handle.id;
        let done = handle
            .wait_completed()
            .unwrap_or(crate::worker::CompletedJob {
                id,
                tag,
                trace_id: 0,
                outcome: crate::JobOutcome::Cancelled { progress: None },
            });
        let label = match &done.outcome {
            crate::JobOutcome::Done(_) => {
                summary.done += 1;
                None
            }
            crate::JobOutcome::DeadlineExceeded { .. } => {
                summary.deadline += 1;
                Some("deadline")
            }
            crate::JobOutcome::Cancelled { .. } => {
                summary.cancelled += 1;
                Some("cancelled")
            }
            crate::JobOutcome::Failed(_) => {
                summary.failed += 1;
                Some("failed")
            }
        };
        if let Some(outcome) = label {
            summary.flagged.push(FlaggedJob {
                tag: done.tag.clone(),
                outcome,
                trace_id: done.trace_id,
            });
        }
        responses.push((lineno, protocol::render_outcome(&done)));
    }
    responses.sort_by_key(|(lineno, _)| *lineno);
    for (_, line) in &responses {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()?;
    Ok(summary)
}

/// Convenience for tests and benchmarks: submit every request with the
/// blocking path and wait for all of them, returning the outcomes in
/// order.
pub fn run_all(engine: &Arc<Engine>, requests: Vec<AlignRequest>) -> Vec<crate::JobOutcome> {
    let handles: Vec<_> = requests
        .into_iter()
        .filter_map(|req| engine.submit_blocking(req).ok())
        .collect();
    handles.into_iter().map(JobHandle::wait).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceConfig;
    use crate::json::Value;
    use std::io::Cursor;
    use std::net::SocketAddrV6;

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::start(ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            ..ServiceConfig::default()
        }))
    }

    fn defaults() -> ServeOptions {
        ServeOptions::default()
    }

    fn lines(bytes: &[u8]) -> Vec<Value> {
        std::str::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| Value::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn session_submit_stats_shutdown() {
        let engine = engine();
        let input = concat!(
            r#"{"op":"submit","id":"j1","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n"
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shut = serve_session(
            &engine,
            Cursor::new(input),
            Arc::clone(&writer),
            &defaults(),
        )
        .unwrap();
        assert!(shut);
        let out = lines(&writer.lock());
        // Shutdown drains the queue first, so both lines are present;
        // the job response precedes the shutdown summary.
        assert_eq!(out.len(), 2);
        let job = out
            .iter()
            .find(|v| v.get("id").map(|i| i.as_str()) == Some(Some("j1")))
            .expect("job response present");
        assert_eq!(job.get("ok").unwrap().as_bool(), Some(true));
        assert!(job.get("score").is_some());
        let shutdown = out
            .iter()
            .find(|v| v.get("op").map(|o| o.as_str()) == Some(Some("shutdown")))
            .expect("shutdown response present");
        assert_eq!(shutdown.get("completed").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn session_reports_bad_lines_and_keeps_going() {
        let engine = engine();
        let input = concat!(
            "this is not json\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n"
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        serve_session(
            &engine,
            Cursor::new(input),
            Arc::clone(&writer),
            &defaults(),
        )
        .unwrap();
        let out = lines(&writer.lock());
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get("error").unwrap().as_str(), Some("bad_request"));
        assert_eq!(out[1].get("op").unwrap().as_str(), Some("stats"));
        assert_eq!(out[2].get("op").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn session_survives_non_utf8_bytes() {
        let engine = engine();
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"{\"op\":\"st");
        input.extend_from_slice(&[0xFF, 0xFE, 0x80]); // invalid UTF-8
        input.extend_from_slice(b"\n");
        input.extend_from_slice(br#"{"op":"stats"}"#);
        input.extend_from_slice(b"\n");
        input.extend_from_slice(br#"{"op":"shutdown"}"#);
        input.extend_from_slice(b"\n");
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shut = serve_session(
            &engine,
            Cursor::new(input),
            Arc::clone(&writer),
            &defaults(),
        )
        .unwrap();
        assert!(shut, "session keeps running past the binary garbage");
        let out = lines(&writer.lock());
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get("error").unwrap().as_str(), Some("bad_request"));
        assert!(out[0]
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("UTF-8"));
        assert_eq!(out[0].get("position").unwrap().as_u64(), Some(9));
        assert_eq!(out[2].get("op").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn session_rejects_oversized_line_and_keeps_going() {
        let engine = engine();
        let options = ServeOptions {
            max_line_bytes: 64,
            ..ServeOptions::default()
        };
        let mut input = String::new();
        input.push_str(&"x".repeat(200)); // no JSON, just too long
        input.push('\n');
        input.push_str(r#"{"op":"stats"}"#);
        input.push('\n');
        input.push_str(r#"{"op":"shutdown"}"#);
        input.push('\n');
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shut =
            serve_session(&engine, Cursor::new(input), Arc::clone(&writer), &options).unwrap();
        assert!(shut, "session survives the oversized line");
        let out = lines(&writer.lock());
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[0].get("error").unwrap().as_str(),
            Some("invalid_argument")
        );
        assert_eq!(out[0].get("position").unwrap().as_u64(), Some(64));
        assert_eq!(out[1].get("op").unwrap().as_str(), Some("stats"));
        assert_eq!(out[2].get("op").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn line_exactly_at_bound_is_accepted() {
        let engine = engine();
        let line = r#"{"op":"stats"}"#;
        let options = ServeOptions {
            max_line_bytes: line.len(),
            ..ServeOptions::default()
        };
        let input = format!("{line}\n{{\"op\":\"shutdown\"}}\n");
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        serve_session(&engine, Cursor::new(input), Arc::clone(&writer), &options).unwrap();
        let out = lines(&writer.lock());
        assert_eq!(out[0].get("op").unwrap().as_str(), Some("stats"));
    }

    #[test]
    fn session_stats_carry_server_identity_and_shard_info_answers() {
        let engine = engine();
        let options = ServeOptions {
            shard: Some(2),
            ..ServeOptions::default()
        };
        let input = concat!(
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shard_info"}"#,
            "\n",
            r#"{"op":"hello"}"#,
            "\n",
            r#"{"op":"ping","seq":5}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n"
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        serve_session(&engine, Cursor::new(input), Arc::clone(&writer), &options).unwrap();
        let out = lines(&writer.lock());
        assert_eq!(out.len(), 5);
        let server = out[0].get("server").expect("stats carry a server section");
        assert_eq!(
            server.get("pid").unwrap().as_u64(),
            Some(std::process::id() as u64)
        );
        assert_eq!(
            server.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(server.get("uptime_ms").unwrap().as_u64().is_some());
        assert_eq!(out[1].get("op").unwrap().as_str(), Some("shard_info"));
        assert_eq!(out[1].get("shard").unwrap().as_u64(), Some(2));
        assert_eq!(out[2].get("op").unwrap().as_str(), Some("hello"));
        assert_eq!(out[2].get("shard").unwrap().as_u64(), Some(2));
        assert_eq!(out[3].get("op").unwrap().as_str(), Some("pong"));
        assert_eq!(out[3].get("seq").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn session_drain_stops_engine_and_reports_stats() {
        let engine = engine();
        let input = concat!(
            r#"{"op":"submit","id":"d1","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#,
            "\n",
            r#"{"op":"drain"}"#,
            "\n"
        );
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shut = serve_session(
            &engine,
            Cursor::new(input),
            Arc::clone(&writer),
            &defaults(),
        )
        .unwrap();
        assert!(shut);
        assert!(!engine.is_running());
        let out = lines(&writer.lock());
        let drain = out
            .iter()
            .find(|v| v.get("op").map(|o| o.as_str()) == Some(Some("drain")))
            .expect("drain response present");
        assert_eq!(drain.get("ok").unwrap().as_bool(), Some(true));
        // Without a state dir the job completes before drain returns.
        assert_eq!(drain.get("completed").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn session_eof_leaves_engine_running() {
        let engine = engine();
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shut =
            serve_session(&engine, Cursor::new(""), Arc::clone(&writer), &defaults()).unwrap();
        assert!(!shut);
        assert!(engine.is_running());
        engine.shutdown();
    }

    #[test]
    fn batch_preserves_input_order_and_allows_bare_objects() {
        let engine = engine();
        let input = concat!(
            r#"{"id":"first","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#,
            "\n",
            "garbage line\n",
            r#"{"op":"submit","id":"second","a":"ACGTACGT","b":"ACGTACG","c":"CGTACGT"}"#,
            "\n"
        );
        let mut out = Vec::new();
        let summary = run_batch(&engine, input, &mut out).unwrap();
        assert_eq!(summary.submitted, 2);
        assert_eq!(summary.done, 2);
        assert_eq!(summary.errors, 1, "the garbage line is tallied");
        assert!(!summary.all_ok(), "an errored line marks the batch dirty");
        let out = lines(&out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get("id").unwrap().as_str(), Some("first"));
        assert_eq!(out[1].get("error").unwrap().as_str(), Some("bad_request"));
        assert_eq!(out[2].get("id").unwrap().as_str(), Some("second"));
        engine.shutdown();
    }

    #[test]
    fn batch_summary_tallies_outcomes_and_renders() {
        let engine = engine();
        let input = r#"{"id":"ok1","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#;
        let mut out = Vec::new();
        let summary = run_batch(&engine, input, &mut out).unwrap();
        assert_eq!(
            summary,
            BatchSummary {
                submitted: 1,
                done: 1,
                ..BatchSummary::default()
            }
        );
        assert!(summary.all_ok());
        assert_eq!(
            summary.to_string(),
            "submitted=1 done=1 deadline=0 cancelled=0 failed=0 errors=0"
        );
        engine.shutdown();
    }

    #[test]
    fn batch_overload_retry_sleep_is_capped_by_the_deadline_budget() {
        use std::time::Instant;
        // client_rate 1.0 = burst of one: the second line sheds with a
        // retry hint of ~1000 ms. With a 20 ms deadline budget the
        // retry sleep must be capped at 20 ms, not the full hint —
        // sleeping a second for a job that expires in 20 ms is useless.
        let engine = Arc::new(Engine::start(ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            client_rate: Some(1.0),
            default_deadline: Some(Duration::from_millis(20)),
            ..ServiceConfig::default()
        }));
        let input = concat!(
            r#"{"id":"a1","client":"capped","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#,
            "\n",
            r#"{"id":"a2","client":"capped","a":"ACGTACGT","b":"ACGTACG","c":"CGTACGT"}"#,
            "\n"
        );
        let started = Instant::now();
        let mut out = Vec::new();
        let summary = run_batch(&engine, input, &mut out).unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(900),
            "retry slept ~the full 1 s hint instead of the deadline budget"
        );
        assert_eq!(summary.submitted + summary.errors, 2);
        assert_eq!(
            summary.errors, 1,
            "the shed line errors after its capped retry"
        );
        engine.shutdown();
    }

    #[test]
    fn batch_repeat_hits_cache() {
        let engine = engine();
        let line = r#"{"id":"r","a":"GATTACAGATTACA","b":"GATACAGATACA","c":"GTTACAGTTACA"}"#;
        let mut out = Vec::new();
        run_batch(&engine, line, &mut out).unwrap();
        run_batch(&engine, line, &mut out).unwrap();
        let out = lines(&out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(out[1].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            out[0].get("score").unwrap().as_i64(),
            out[1].get("score").unwrap().as_i64()
        );
        engine.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;

        let engine = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || serve_listener(&engine, listener, &defaults()).unwrap())
        };
        let stream = TcpStream::connect(addr).expect("connect to service");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        writeln!(
            w,
            r#"{{"op":"submit","id":"t1","a":"GATTACA","b":"GATACA","c":"GTTACA"}}"#
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("t1"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        writeln!(w, r#"{{"op":"shutdown"}}"#).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            Value::parse(&line).unwrap().get("op").unwrap().as_str(),
            Some("shutdown")
        );
        let stats = server.join().unwrap();
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn tcp_shutdown_or_drain_returns_from_the_blocking_accept_loop() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpStream;
        use std::sync::mpsc;

        for op in ["shutdown", "drain"] {
            let engine = engine();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (done_tx, done_rx) = mpsc::channel();
            let server = {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let served = serve_listener(&engine, listener, &defaults());
                    let _ = done_tx.send(());
                    served
                })
            };
            let stream = TcpStream::connect(addr).expect("connect to service");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            writeln!(w, r#"{{"op":"{op}"}}"#).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                Value::parse(&line).unwrap().get("op").unwrap().as_str(),
                Some(op)
            );
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("accept loop still blocked after {op}"));
            let served = server.join().expect("accept loop does not panic");
            assert!(served.is_ok(), "{op}: {served:?}");
        }
    }

    #[test]
    fn tcp_shutdown_returns_while_another_client_sits_idle() {
        use std::io::{BufRead as _, Write as _};
        use std::sync::mpsc;

        let engine = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                // The default options: a 300 s idle timeout.
                let served = serve_listener(&engine, listener, &defaults());
                let _ = done_tx.send(());
                served
            })
        };
        // Connected first, so accepted first; it never sends a byte.
        let idle = TcpStream::connect(addr).expect("connect the idle client");
        let stream = TcpStream::connect(addr).expect("connect to service");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        writeln!(w, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            Value::parse(&line).unwrap().get("op").unwrap().as_str(),
            Some("shutdown")
        );
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the idle client does not hold the server up");
        assert!(server.join().expect("no panic").is_ok());
        drop(idle);
    }

    #[test]
    fn wake_address_targets_loopback_for_wildcard_binds() {
        let v4: SocketAddr = "0.0.0.0:4000".parse().unwrap();
        assert_eq!(wake_address(v4), "127.0.0.1:4000".parse().unwrap());
        let v6: SocketAddr = "[::]:4000".parse().unwrap();
        assert_eq!(wake_address(v6), "[::1]:4000".parse().unwrap());
        let bound: SocketAddr = "127.0.0.2:4000".parse().unwrap();
        assert_eq!(wake_address(bound), bound);
        // A link-local bind keeps its scope id, without which the connect
        // could not leave the host's default interface.
        let scoped = SocketAddr::V6(SocketAddrV6::new("fe80::1".parse().unwrap(), 4000, 0, 2));
        assert_eq!(wake_address(scoped), scoped);
        let wild = SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::UNSPECIFIED, 4000, 0, 2));
        let SocketAddr::V6(woken) = wake_address(wild) else {
            panic!("an IPv6 bind wakes over IPv6");
        };
        assert_eq!((*woken.ip(), woken.port()), (Ipv6Addr::LOCALHOST, 4000));
        assert_eq!(woken.scope_id(), 2);
    }
}
