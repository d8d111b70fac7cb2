//! Kill-and-restart end-to-end tests of durable serving (requires
//! `--features faults` for the poisoned-job case; the kill cases use a
//! real SIGKILL against the `tsa serve` binary): a job interrupted
//! mid-kernel resumes from its checkpoint snapshot after restart with a
//! byte-identical score, completed jobs re-serve from the journal, a
//! corrupted snapshot falls back to a clean re-run, a crashing job is
//! resolved as gone rather than re-crashing every restart, and the
//! `drain` protocol op exits cleanly.
#![cfg(feature = "faults")]

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tsa_core::Aligner;
use tsa_scoring::Scoring;
use tsa_seq::Seq;
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

    fn serve(state_dir: &Path) -> Session {
        Session::spawn(&[
            "serve",
            "--workers",
            "1",
            "--state-dir",
            state_dir.to_str().unwrap(),
            "--checkpoint-every",
            "4",
        ])
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

    /// Poll `stats` until `pred` holds; generous deadline because a
    /// resumed kernel may still be fsyncing checkpoints.
    fn poll_stats(&mut self, pred: impl Fn(&Value) -> bool) -> Value {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            self.send(r#"{"op":"stats"}"#);
            let v = self.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("stats"));
            if pred(&v) {
                return v;
            }
            assert!(
                Instant::now() < deadline,
                "stats never reached the expected state: {v:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILL: no drain, no journal flush beyond what already hit disk.
    fn kill(mut self) {
        self.child.kill().expect("kill serve process");
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        self.send(r#"{"op":"shutdown"}"#);
        self.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
        assert!(self.child.wait().unwrap().success());
    }
}

fn state_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("tsa-durable-{tag}-{}-{nanos}", std::process::id()))
}

/// A triple big enough that the checkpointing kernel runs for a while.
fn big_triple() -> (String, String, String) {
    let long = "ACGTTGCAGATTACA".repeat(20); // 300-mer
    (long.clone(), long[..295].to_owned(), long[..290].to_owned())
}

fn reference_score(a: &str, b: &str, c: &str) -> i64 {
    let (a, b, c) = (
        Seq::dna(a).unwrap(),
        Seq::dna(b).unwrap(),
        Seq::dna(c).unwrap(),
    );
    Aligner::auto(Scoring::dna_default())
        .score3(&a, &b, &c)
        .unwrap() as i64
}

/// A score job pinned to `full`: its slab sweep checkpoints every few
/// slabs. An `auto` score job on this near-identical triple runs the
/// pruned sweep, which keeps a few hundred cells and writes no snapshot.
fn submit_line(id: &str, (a, b, c): &(String, String, String)) -> String {
    format!(
        r#"{{"op":"submit","id":"{id}","a":"{a}","b":"{b}","c":"{c}","score_only":true,"algorithm":"full"}}"#
    )
}

/// Block until the first checkpoint snapshot lands in `dir/checkpoints`,
/// then return its path — the kernel is provably mid-run at that point.
fn await_checkpoint(dir: &Path) -> PathBuf {
    let checkpoints = dir.join("checkpoints");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(entries) = std::fs::read_dir(&checkpoints) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "ckpt") {
                    return path;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint snapshot ever appeared in {}",
            checkpoints.display()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn sigkill_mid_kernel_then_restart_resumes_and_reserves_from_journal() {
    let dir = state_dir("resume");
    let triple = big_triple();
    let expected = reference_score(&triple.0, &triple.1, &triple.2);

    // Session 1: start the big job, wait for a snapshot, SIGKILL.
    let mut s1 = Session::serve(&dir);
    s1.send(&submit_line("big", &triple));
    await_checkpoint(&dir);
    s1.kill();

    // Session 2: the journal shows the job in flight and its snapshot
    // validates, so it is resumed — and finishes with the exact score
    // an uninterrupted run produces.
    let mut s2 = Session::serve(&dir);
    let stats = s2.poll_stats(|v| v.get("completed").and_then(Value::as_u64) >= Some(1));
    assert_eq!(stats.get("resumed").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("restarted").unwrap().as_u64(), Some(0));
    s2.send(&submit_line("verify", &triple));
    let verify = s2.next_matching(|v| v.get("id").and_then(Value::as_str) == Some("verify"));
    assert_eq!(verify.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(verify.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(verify.get("score").unwrap().as_i64(), Some(expected));
    s2.shutdown();

    // Session 3: both jobs completed and journaled `done`; they preload
    // the cache and re-serve without touching a kernel, flagged as
    // journal-recovered on the wire and in the counters.
    let mut s3 = Session::serve(&dir);
    let stats = s3.poll_stats(|v| v.get("recovered").and_then(Value::as_u64) >= Some(1));
    assert_eq!(stats.get("resumed").unwrap().as_u64(), Some(0));
    s3.send(&submit_line("reserve", &triple));
    let reserve = s3.next_matching(|v| v.get("id").and_then(Value::as_str) == Some("reserve"));
    assert_eq!(reserve.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(reserve.get("recovered").unwrap().as_bool(), Some(true));
    assert_eq!(reserve.get("score").unwrap().as_i64(), Some(expected));
    let stats = s3.poll_stats(|v| v.get("cache_recovered_hits").and_then(Value::as_u64) >= Some(1));
    // The accounting identity the CI recovery job checks.
    let field = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap();
    assert_eq!(
        field("submitted"),
        field("completed") + field("rejected") + field("cancelled") + field("failed")
    );
    s3.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshot_falls_back_to_a_clean_rerun() {
    let dir = state_dir("corrupt");
    let triple = big_triple();
    let expected = reference_score(&triple.0, &triple.1, &triple.2);

    let mut s1 = Session::serve(&dir);
    s1.send(&submit_line("big", &triple));
    let snapshot = await_checkpoint(&dir);
    s1.kill();
    // Stomp the snapshot: the checksum fails, so resume must refuse it.
    std::fs::write(&snapshot, b"not a snapshot").unwrap();

    let mut s2 = Session::serve(&dir);
    let stats = s2.poll_stats(|v| v.get("completed").and_then(Value::as_u64) >= Some(1));
    assert_eq!(stats.get("restarted").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("resumed").unwrap().as_u64(), Some(0));
    s2.send(&submit_line("verify", &triple));
    let verify = s2.next_matching(|v| v.get("id").and_then(Value::as_str) == Some("verify"));
    assert_eq!(verify.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(verify.get("score").unwrap().as_i64(), Some(expected));
    s2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashing_job_is_resolved_gone_not_replayed() {
    let dir = state_dir("poison");
    let mut s1 = Session::serve(&dir);
    // The abort fires outside the isolation boundary: the worker dies
    // mid-job and the drop guard records the job `gone` — a restart must
    // NOT resubmit it, or a poisoned job would crash-loop the service.
    s1.send(
        r#"{"op":"submit","id":"die#fault-abort","a":"GATTACA","b":"GATACA","c":"GTTACA","score_only":true}"#,
    );
    let died = s1.next_matching(|v| v.get("id").and_then(Value::as_str) == Some("die#fault-abort"));
    assert_eq!(died.get("status").unwrap().as_str(), Some("failed"));
    s1.poll_stats(|v| v.get("respawns").and_then(Value::as_u64) >= Some(1));
    s1.shutdown();

    let mut s2 = Session::serve(&dir);
    let stats = s2.poll_stats(|v| v.get("op").and_then(Value::as_str) == Some("stats"));
    assert_eq!(stats.get("recovered").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("resumed").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("restarted").unwrap().as_u64(), Some(0));
    s2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_op_flushes_and_exits_cleanly() {
    let dir = state_dir("drain");
    let mut s = Session::serve(&dir);
    s.send(r#"{"op":"submit","id":"quick","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#);
    s.next_matching(|v| v.get("id").and_then(Value::as_str) == Some("quick"));
    s.send(r#"{"op":"drain"}"#);
    let drain = s.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("drain"));
    assert_eq!(drain.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(drain.get("completed").unwrap().as_u64(), Some(1));
    assert!(s.child.wait().unwrap().success(), "drain exits 0");

    // The drained journal re-serves the finished job on restart.
    let mut s2 = Session::serve(&dir);
    let stats = s2.poll_stats(|v| v.get("op").and_then(Value::as_str) == Some("stats"));
    assert_eq!(stats.get("recovered").unwrap().as_u64(), Some(1));
    s2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
