//! End-to-end resilience test of the real `tsa serve` binary (requires
//! `--features faults`): injected kernel panics, a worker death with
//! supervisor respawn, a deadline expiring mid-kernel, and the
//! admission governor's `resource_exhausted` refusals — all observed
//! over the NDJSON wire.
#![cfg(feature = "faults")]

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

    fn next_matching(&mut self, pred: impl Fn(&Value) -> bool) -> Value {
        for _ in 0..64 {
            let v = self.next();
            if pred(&v) {
                return v;
            }
        }
        panic!("expected response never arrived");
    }

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

    fn shutdown(mut self) {
        self.send(r#"{"op":"shutdown"}"#);
        self.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
        assert!(self.child.wait().unwrap().success());
    }
}

fn id_of(v: &Value) -> Option<&str> {
    v.get("id").and_then(Value::as_str)
}

#[test]
fn injected_faults_flow_through_the_serve_binary() {
    // One worker, no cache: every submission runs (and can fault in) the
    // kernel, and a dead worker is immediately observable.
    let mut s = Session::spawn(&["serve", "--workers", "1", "--cache", "0"]);
    let small = |id: &str, extra: &str| {
        format!(r#"{{"op":"submit","id":"{id}","a":"GATTACA","b":"GATACA","c":"GTTACA"{extra}}}"#)
    };

    // 1. A kernel panic is contained: structured failure, worker alive.
    s.send(&small("boom#fault-panic", ""));
    let failed = s.next_matching(|v| id_of(v) == Some("boom#fault-panic"));
    assert_eq!(failed.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(failed.get("status").unwrap().as_str(), Some("failed"));
    assert!(
        failed
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("kernel panicked"),
        "failure names the panic"
    );

    // 2. A deliberately slow kernel blows its deadline *inside* the DP:
    //    stage is "kernel" and partial progress is reported.
    let long = "ACGTACGT".repeat(30);
    s.send(&format!(
        r#"{{"op":"submit","id":"slow#fault-delay=40","a":"{long}","b":"{}","c":"{}","score_only":true,"deadline_ms":45}}"#,
        &long[..235],
        &long[..230],
    ));
    let late = s.next_matching(|v| id_of(v) == Some("slow#fault-delay=40"));
    assert_eq!(late.get("status").unwrap().as_str(), Some("deadline"));
    assert_eq!(late.get("stage").unwrap().as_str(), Some("kernel"));
    assert!(late.get("cells_done").is_some(), "progress is reported");

    // 3. A worker death still resolves the in-flight job, and the
    //    supervisor brings the pool back to strength.
    s.send(&small("die#fault-abort", ""));
    let died = s.next_matching(|v| id_of(v) == Some("die#fault-abort"));
    assert_eq!(died.get("status").unwrap().as_str(), Some("failed"));
    assert_eq!(
        died.get("error").unwrap().as_str(),
        Some("worker thread died mid-job")
    );
    s.poll_stats(|v| v.get("respawns").and_then(Value::as_u64) >= Some(1));

    // 4. The respawned worker serves real work.
    s.send(&small("ok", ""));
    let done = s.next_matching(|v| id_of(v) == Some("ok"));
    assert_eq!(done.get("status").unwrap().as_str(), Some("done"));

    let stats = s.poll_stats(|v| v.get("completed").and_then(Value::as_u64) == Some(1));
    assert_eq!(stats.get("panics").unwrap().as_u64(), Some(1));
    assert!(stats.get("respawns").unwrap().as_u64() >= Some(1));
    assert_eq!(stats.get("failed").unwrap().as_u64(), Some(2));
    s.shutdown();
}

#[test]
fn governor_flags_gate_admission_over_the_wire() {
    // 2 MiB fits the Hirschberg-family footprint of a 240-mer triple but
    // not the ~56 MB full lattice.
    let mut s = Session::spawn(&["serve", "--workers", "1", "--memory-budget", "2M"]);
    let long = "ACGTACGT".repeat(30);
    // Full traceback: a score-only job pinned to `full` would be
    // estimated at the (tiny) slab-rolling footprint and admitted.
    let submit = |id: &str, algo: &str| {
        format!(
            r#"{{"op":"submit","id":"{id}","a":"{long}","b":"{}","c":"{}"{algo}}}"#,
            &long[..235],
            &long[..230],
        )
    };

    // Pinned to the full-lattice kernel there is no room to degrade.
    s.send(&submit("hog", r#","algorithm":"full""#));
    let refused = s.next_matching(|v| id_of(v) == Some("hog"));
    assert_eq!(refused.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        refused.get("error").unwrap().as_str(),
        Some("resource_exhausted")
    );
    assert_eq!(
        refused.get("limit").unwrap().as_str(),
        Some("memory-budget")
    );
    assert_eq!(refused.get("budget").unwrap().as_u64(), Some(2 << 20));
    assert!(refused.get("required").unwrap().as_u64() > Some(2 << 20));

    // The same problem under `auto` (the pruned sweep, priced at the full
    // lattice it may fall back to) degrades to a kernel that fits, and
    // the response records what was traded away.
    s.send(&submit("fit", ""));
    let done = s.next_matching(|v| id_of(v) == Some("fit"));
    assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(done.get("algorithm").unwrap().as_str(), Some("hirschberg"));
    assert_eq!(
        done.get("degraded_from").unwrap().as_str(),
        Some("carrillo-lipman")
    );

    let stats = s.poll_stats(|v| v.get("completed").and_then(Value::as_u64) == Some(1));
    assert_eq!(stats.get("rejected").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("downgraded").unwrap().as_u64(), Some(1));
    s.shutdown();
}
