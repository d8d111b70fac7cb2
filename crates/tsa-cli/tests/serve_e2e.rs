//! End-to-end test of `tsa serve`: spawn the real binary, drive the
//! NDJSON protocol over its stdio, and observe a completed job, a
//! backpressure rejection, a deadline-cancelled job, a cache hit, live
//! stats, and a clean shutdown.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use tsa_service::json::Value;

struct Session {
    child: Child,
    stdin: ChildStdin,
    reader: BufReader<ChildStdout>,
}

impl Session {
    fn spawn(args: &[&str]) -> Session {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tsa"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tsa serve");
        let stdin = child.stdin.take().unwrap();
        let reader = BufReader::new(child.stdout.take().unwrap());
        Session {
            child,
            stdin,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().unwrap();
    }

    fn next(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed stdout unexpectedly");
        Value::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    /// Read responses until `pred` matches one; returns it. Responses
    /// arrive as jobs resolve, so unrelated lines may interleave.
    fn next_matching(&mut self, pred: impl Fn(&Value) -> bool) -> Value {
        for _ in 0..64 {
            let v = self.next();
            if pred(&v) {
                return v;
            }
        }
        panic!("expected response never arrived");
    }

    /// Poll the `stats` op until `pred` holds on the snapshot.
    fn poll_stats(&mut self, pred: impl Fn(&Value) -> bool) -> Value {
        for _ in 0..400 {
            self.send(r#"{"op":"stats"}"#);
            let v = self.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("stats"));
            if pred(&v) {
                return v;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("stats never reached the expected state");
    }
}

fn id_of(v: &Value) -> Option<&str> {
    v.get("id").and_then(Value::as_str)
}

fn depth(v: &Value) -> u64 {
    v.get("queue_depth").and_then(Value::as_u64).unwrap()
}

#[test]
fn serve_lifecycle_backpressure_deadline_cache_shutdown() {
    // One worker and a one-deep queue make admission states controllable.
    let mut s = Session::spawn(&["serve", "--workers", "1", "--queue", "1", "--cache", "16"]);

    let long_a = "ACGTACGT".repeat(30);
    let long_b = &long_a[..235];
    let long_c = &long_a[..230];
    let big = |id: &str| {
        format!(
            r#"{{"op":"submit","id":"{id}","a":"{long_a}","b":"{long_b}","c":"{long_c}","score_only":true}}"#
        )
    };
    let small = |id: &str, extra: &str| {
        format!(r#"{{"op":"submit","id":"{id}","a":"GATTACA","b":"GATACA","c":"GTTACA"{extra}}}"#)
    };

    // 1. A big job; wait until the worker has dequeued it (queue empty,
    //    nothing completed yet).
    s.send(&big("big"));
    s.poll_stats(|v| depth(v) == 0 && v.get("submitted").and_then(Value::as_u64) == Some(1));

    // 2. A second big job parks in the only queue slot...
    s.send(&big("filler"));
    s.poll_stats(|v| depth(v) == 1);

    // 3. ...so a third submission must bounce with the overloaded error.
    s.send(&small("reject-me", ""));
    let rejected = s.next_matching(|v| id_of(v) == Some("reject-me"));
    assert_eq!(rejected.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        rejected.get("error").unwrap().as_str(),
        Some("overloaded"),
        "backpressure is reported, not buffered"
    );
    assert_eq!(rejected.get("capacity").unwrap().as_u64(), Some(1));

    // 4. Both big jobs complete; score-only jobs carry no rows.
    let done_big = s.next_matching(|v| id_of(v) == Some("big"));
    assert_eq!(done_big.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(done_big.get("status").unwrap().as_str(), Some("done"));
    assert!(done_big.get("score").is_some());
    assert!(done_big.get("rows").is_none());
    let done_filler = s.next_matching(|v| id_of(v) == Some("filler"));
    assert_eq!(done_filler.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(
        done_big.get("score").unwrap().as_i64(),
        done_filler.get("score").unwrap().as_i64(),
        "identical problems score identically"
    );
    // The second big job is byte-identical, so it is served from cache.
    assert_eq!(done_filler.get("cached").unwrap().as_bool(), Some(true));

    // 5. The worker is now idle: a zero-deadline job is picked up at once
    //    and reported as expired-while-queued.
    s.send(&small("late", r#","deadline_ms":0"#));
    let late = s.next_matching(|v| id_of(v) == Some("late"));
    assert_eq!(late.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(late.get("status").unwrap().as_str(), Some("deadline"));
    assert_eq!(late.get("stage").unwrap().as_str(), Some("queued"));

    // 6. Identical small jobs: first computes, second hits the cache with
    //    the same score and rows.
    s.send(&small("fresh", ""));
    let fresh = s.next_matching(|v| id_of(v) == Some("fresh"));
    assert_eq!(fresh.get("cached").unwrap().as_bool(), Some(false));
    s.send(&small("warm", ""));
    let warm = s.next_matching(|v| id_of(v) == Some("warm"));
    assert_eq!(warm.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        fresh.get("score").unwrap().as_i64(),
        warm.get("score").unwrap().as_i64()
    );
    assert_eq!(fresh.get("rows"), warm.get("rows"));

    // 7. The counters add up: 6 submissions, 4 completed, 1 rejected,
    //    1 deadline-cancelled, 2 cache hits.
    let stats = s.poll_stats(|v| v.get("completed").and_then(Value::as_u64) == Some(4));
    assert_eq!(stats.get("submitted").unwrap().as_u64(), Some(6));
    assert_eq!(stats.get("rejected").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cancelled").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("failed").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(2));
    assert_eq!(depth(&stats), 0);

    // 8. Clean shutdown: final snapshot on stdout, process exits 0.
    s.send(r#"{"op":"shutdown"}"#);
    let bye = s.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert_eq!(bye.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(bye.get("completed").unwrap().as_u64(), Some(4));
    let status = s.child.wait().expect("wait for child");
    assert!(status.success(), "server exits cleanly after shutdown");
}

#[test]
fn serve_answers_metrics_with_exposition() {
    let mut s = Session::spawn(&["serve", "--workers", "1"]);

    // Complete one job so the latency histograms have a sample each.
    s.send(r#"{"op":"submit","id":"m1","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#);
    let done = s.next_matching(|v| id_of(v) == Some("m1"));
    assert_eq!(done.get("status").unwrap().as_str(), Some("done"));

    s.send(r#"{"op":"metrics"}"#);
    let v = s.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("metrics"));
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("format").unwrap().as_str(), Some("prometheus"));

    // The exposition travels as one escaped string field; unescaped it must
    // be a well-formed multi-line Prometheus dump with the split histograms.
    let body = v.get("body").unwrap().as_str().unwrap();
    for family in [
        "tsa_jobs_submitted_total",
        "tsa_job_latency_us",
        "tsa_job_queue_wait_us",
        "tsa_job_kernel_us",
    ] {
        assert!(
            body.contains(&format!("# HELP {family} ")),
            "missing HELP for {family}; body:\n{body}"
        );
    }
    for histo in ["tsa_job_queue_wait_us", "tsa_job_kernel_us"] {
        assert!(body.contains(&format!("# TYPE {histo} histogram")));
        assert!(
            body.contains(&format!("{histo}_count 1")),
            "the completed job must be recorded in {histo}; body:\n{body}"
        );
        assert!(body.contains(&format!("{histo}_bucket{{le=\"+Inf\"}} 1")));
    }
    assert!(body.contains("tsa_jobs_submitted_total 1"));
    assert!(body.contains("tsa_jobs_completed_total 1"));
    // Every line is a comment or a `name value` sample — no stray JSON.
    for line in body.lines().filter(|l| !l.is_empty()) {
        assert!(
            line.starts_with('#') || line.split(' ').count() == 2,
            "malformed exposition line: {line:?}"
        );
    }

    s.send(r#"{"op":"shutdown"}"#);
    s.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert!(s.child.wait().unwrap().success());
}

#[test]
fn serve_reports_bad_requests_and_survives() {
    let mut s = Session::spawn(&["serve", "--workers", "1"]);
    s.send("not json at all");
    let err = s.next();
    assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(err.get("error").unwrap().as_str(), Some("bad_request"));

    s.send(r#"{"op":"submit","id":"x","a":"ACGT","b":"ACGT"}"#);
    let err = s.next_matching(|v| id_of(v) == Some("x"));
    assert_eq!(err.get("error").unwrap().as_str(), Some("bad_request"));

    // The session is still alive and serves real work afterwards.
    s.send(r#"{"op":"submit","id":"ok","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#);
    let done = s.next_matching(|v| id_of(v) == Some("ok"));
    assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
    assert!(done.get("rows").is_some());

    s.send(r#"{"op":"shutdown"}"#);
    s.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert!(s.child.wait().unwrap().success());
}

#[test]
fn batch_command_runs_a_request_file() {
    let dir = std::env::temp_dir().join("tsa-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("jobs.ndjson");
    let mut lines = String::new();
    for i in 0..6 {
        let len = 20 + i * 4;
        let seq = "GATTACAC".repeat(8);
        lines.push_str(&format!(
            "{{\"id\":\"b{i}\",\"a\":\"{}\",\"b\":\"{}\",\"c\":\"{}\"}}\n",
            &seq[..len],
            &seq[..len - 3],
            &seq[..len - 5],
        ));
    }
    std::fs::write(&path, &lines).unwrap();

    // Two rounds: the second starts only after the first fully drains, so
    // every round-2 job is a guaranteed cache hit.
    let out = Command::new(env!("CARGO_BIN_EXE_tsa"))
        .args([
            "batch",
            "--file",
            path.to_str().unwrap(),
            "--workers",
            "2",
            "--repeat",
            "2",
        ])
        .output()
        .expect("run tsa batch");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let responses: Vec<Value> = stdout.lines().map(|l| Value::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 12);
    // Responses come back in input order regardless of completion order.
    for (i, v) in responses.iter().enumerate() {
        assert_eq!(id_of(v), Some(format!("b{}", i % 6).as_str()));
        assert_eq!(v.get("status").unwrap().as_str(), Some("done"));
    }
    // The warm round is all cache hits, score-identical to round one.
    for i in 6..12 {
        assert_eq!(
            responses[i].get("cached").unwrap().as_bool(),
            Some(true),
            "round-2 job {} must be served from cache",
            i - 6
        );
        assert_eq!(
            responses[i].get("score").unwrap().as_i64(),
            responses[i - 6].get("score").unwrap().as_i64()
        );
        assert_eq!(responses[i].get("rows"), responses[i - 6].get("rows"));
    }
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("12 submitted, 12 completed"),
        "stderr was: {stderr}"
    );
}

/// `tsa serve` drains and exits on SIGTERM even when nothing reads its
/// stderr any more — an orphaned cluster worker, `tsa serve 2>&1 | head`.
/// Its drain notices are best-effort.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_after_stderr_closes() {
    use std::time::{Duration, Instant};
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let mut child = Command::new(env!("CARGO_BIN_EXE_tsa"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsa serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut announce = String::new();
    stderr.read_line(&mut announce).expect("read announce line");
    assert!(
        announce.starts_with("# tsa serve: listening on "),
        "unexpected first stderr line {announce:?}"
    );
    drop(stderr);
    // SAFETY: kill(2) on the child this test spawned and has not reaped.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll tsa serve") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("tsa serve was still running 10 s after SIGTERM with its stderr closed");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "drain must exit 0, got {status:?}");
}
