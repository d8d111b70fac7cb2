//! End-to-end tests of `tsa cluster`: the real coordinator binary
//! spawning real worker processes, driven over the poll(2) front door.
//!
//! Covers the acceptance path (a 100-job batch scatter-gathered across
//! 4 workers with content-affinity cache routing) and — with
//! `--features faults` — the failure drill: SIGKILL one worker
//! mid-batch and watch respawn, journal recovery, and the cluster-wide
//! job-accounting invariant survive it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tsa_service::json::Value;

struct Cluster {
    child: Child,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Cluster {
    fn spawn(args: &[&str]) -> Cluster {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tsa"))
            .arg("cluster")
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tsa cluster");
        let stderr = child.stderr.take().unwrap();
        let mut reader = BufReader::new(stderr);
        let addr = loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .expect("read coordinator stderr");
            assert!(n > 0, "cluster exited before announcing its address");
            if let Some(rest) = line.trim().strip_prefix("# tsa cluster: listening on ") {
                break rest.trim().to_string();
            }
        };
        // Keep draining stderr so the coordinator never blocks on a
        // full pipe while forwarding worker logs.
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                if reader.read_line(&mut sink).unwrap_or(0) == 0 {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(&addr).expect("connect to front door");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Cluster {
            child,
            stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("write request");
        self.stream.flush().unwrap();
    }

    fn next(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "cluster closed the connection unexpectedly");
        Value::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    /// Read responses until `pred` matches one; submissions resolve in
    /// completion order, so unrelated lines may interleave.
    fn next_matching(&mut self, pred: impl Fn(&Value) -> bool) -> Value {
        for _ in 0..1024 {
            let v = self.next();
            if pred(&v) {
                return v;
            }
        }
        panic!("expected response never arrived");
    }

    /// Poll the cluster `stats` op until `pred` holds on the aggregate.
    fn poll_stats(&mut self, pred: impl Fn(&Value) -> bool) -> Value {
        for _ in 0..600 {
            self.send(r#"{"op":"stats"}"#);
            let v = self.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("stats"));
            if pred(&v) {
                return v;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("cluster stats never reached the expected state");
    }
}

fn id_of(v: &Value) -> Option<&str> {
    v.get("id").and_then(Value::as_str)
}

fn field(v: &Value, name: &str) -> u64 {
    v.get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing numeric field {name}"))
}

/// `submitted == completed + rejected + cancelled + failed` — every
/// submission resolved exactly one way.
fn assert_accounting(v: &Value) {
    assert_eq!(
        field(v, "submitted"),
        field(v, "completed") + field(v, "rejected") + field(v, "cancelled") + field(v, "failed"),
        "job accounting identity violated: {v:?}"
    );
}

/// Deterministic distinct DNA triple number `i` (distinct for i < 4^8).
fn content(i: usize) -> (String, String, String) {
    let tag: String = (0..8)
        .map(|k| b"ACGT"[(i >> (2 * k)) & 3] as char)
        .collect();
    let a = format!("{tag}GATTACAGATTACAGT");
    let b = format!("{tag}GATACAGATTACAG");
    let c = format!("{tag}GTTACAGATTACA");
    (a, b, c)
}

fn submit_line(id: &str, i: usize) -> String {
    let (a, b, c) = content(i);
    format!(r#"{{"op":"submit","id":"{id}","a":"{a}","b":"{b}","c":"{c}"}}"#)
}

fn shard_rows(stats: &Value) -> Vec<&Value> {
    match stats.get("shards") {
        Some(Value::Arr(rows)) => rows.iter().collect(),
        other => panic!("stats carried no shards array: {other:?}"),
    }
}

#[test]
fn cluster_scatter_gathers_a_hundred_jobs_across_four_workers() {
    let mut c = Cluster::spawn(&["--workers", "4"]);

    // 50 distinct contents, each submitted twice: 100 jobs total.
    for i in 0..50 {
        c.send(&submit_line(&format!("j{i}-a"), i));
        c.send(&submit_line(&format!("j{i}-b"), i));
    }
    let mut scores: Vec<Option<(i64, i64)>> = vec![None; 50];
    for _ in 0..100 {
        let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with('j')));
        let id = id_of(&v).unwrap();
        let (idx, second) = {
            let (num, suffix) = id[1..].split_once('-').unwrap();
            (num.parse::<usize>().unwrap(), suffix == "b")
        };
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("done"),
            "job {id} did not complete: {v:?}"
        );
        let score = v.get("score").unwrap().as_i64().unwrap();
        let slot = scores[idx].get_or_insert((score, score));
        if second {
            slot.1 = score;
        } else {
            slot.0 = score;
        }
    }
    for (i, pair) in scores.iter().enumerate() {
        let (a, b) = pair.expect("both twins answered");
        assert_eq!(a, b, "identical content {i} must score identically");
    }

    // Warm probes: duplicate the first 10 contents under fresh ids —
    // content-affinity routing makes every one a cache hit on the shard
    // that computed it.
    for i in 0..10 {
        c.send(&submit_line(&format!("warm{i}"), i));
    }
    for _ in 0..10 {
        let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("warm")));
        assert_eq!(
            v.get("cached").and_then(Value::as_bool),
            Some(true),
            "warm probe missed the cache: {v:?}"
        );
    }

    let stats = c.poll_stats(|v| field(v, "completed") == 110 && field(v, "queue_depth") == 0);
    assert_accounting(&stats);
    assert_eq!(field(&stats, "submitted"), 110);
    assert!(field(&stats, "cache_hits") >= 10);
    let rows = shard_rows(&stats);
    assert_eq!(rows.len(), 4, "one breakdown row per worker");
    let mut per_shard = 0;
    for row in &rows {
        assert_accounting(row);
        assert!(
            field(row, "submitted") > 0,
            "50 contents must spread across all 4 shards: {stats:?}"
        );
        per_shard += field(row, "submitted");
    }
    assert_eq!(per_shard, 110, "shard rows partition the cluster totals");
    let coord = stats.get("coordinator").expect("coordinator section");
    assert_eq!(field(coord, "workers"), 4);
    assert_eq!(field(coord, "alive"), 4);
    assert_eq!(field(coord, "routed"), 110);

    c.send(r#"{"op":"shutdown"}"#);
    let bye = c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    let status = c.child.wait().expect("wait for coordinator");
    assert!(status.success(), "coordinator exits cleanly after shutdown");
}

#[test]
fn cluster_answers_topology_and_merged_metrics() {
    let mut c = Cluster::spawn(&["--workers", "2"]);

    c.send(r#"{"op":"submit","id":"m1","a":"GATTACA","b":"GATACA","c":"GTTACA"}"#);
    c.next_matching(|v| id_of(v) == Some("m1"));

    c.send(r#"{"op":"shard_info"}"#);
    let info = c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shard_info"));
    assert_eq!(info.get("scope").and_then(Value::as_str), Some("cluster"));
    assert_eq!(field(&info, "workers"), 2);
    let members = match info.get("members") {
        Some(Value::Arr(rows)) => rows,
        other => panic!("no members array: {other:?}"),
    };
    for (i, m) in members.iter().enumerate() {
        assert_eq!(field(m, "shard"), i as u64);
        assert_eq!(m.get("alive").and_then(Value::as_bool), Some(true));
        assert_eq!(m.get("spawned").and_then(Value::as_bool), Some(true));
        assert!(field(m, "pid") > 0);
    }

    // Merged metrics: summed families plus per-shard labeled series,
    // including the coordinator's own registry.
    c.send(r#"{"op":"metrics"}"#);
    let v = c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("metrics"));
    let body = v.get("body").unwrap().as_str().unwrap();
    assert!(body.contains("# TYPE tsa_jobs_submitted_total counter"));
    assert!(body.contains("\ntsa_jobs_submitted_total 1\n"));
    assert!(
        body.contains("tsa_jobs_submitted_total{shard=\"0\"}")
            && body.contains("tsa_jobs_submitted_total{shard=\"1\"}"),
        "per-shard series missing:\n{body}"
    );
    assert!(body.contains("tsa_cluster_routed_total{shard=\"coordinator\"} 1"));

    c.send(r#"{"op":"shutdown"}"#);
    c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert!(c.child.wait().unwrap().success());
}

/// Overload drill 1: a pinned fault trips both breakers, submissions
/// are shed with a structured `unavailable` + `retry_after_ms` refusal
/// (no hang), and after the fault clears the half-open probes restore
/// service.
#[test]
#[cfg(all(unix, feature = "faults"))]
fn breaker_opens_sheds_with_hint_and_half_open_restores() {
    let mut c = Cluster::spawn(&[
        "--workers",
        "2",
        "--breaker-threshold",
        "2",
        "--breaker-cooldown-ms",
        "1500",
    ]);

    // Trip phase: a cancellable 300ms kernel sleep under a 30ms
    // deadline is a deterministic `deadline` failure wherever it lands.
    // Once one shard's breaker opens, failover concentrates the
    // failures on the survivor, so both breakers open within a handful
    // of jobs and the next submission is shed at the coordinator.
    let mut shed = None;
    for i in 0..40 {
        let (a, b, c_seq) = content(i);
        c.send(&format!(
            r#"{{"op":"submit","id":"trip{i}#fault-delay=300","a":"{a}","b":"{b}","c":"{c_seq}","deadline_ms":30}}"#
        ));
        let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("trip")));
        if v.get("error").and_then(Value::as_str) == Some("unavailable") {
            shed = Some(v);
            break;
        }
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("deadline"),
            "trip jobs fail by deadline until the breakers open: {v:?}"
        );
    }
    let shed = shed.expect("breakers never opened across 40 consecutive failures");
    assert_eq!(shed.get("ok").and_then(Value::as_bool), Some(false));
    assert!(
        field(&shed, "retry_after_ms") > 0,
        "a shed refusal carries a concrete retry hint: {shed:?}"
    );

    let stats = c.poll_stats(|v| {
        shard_rows(v)
            .iter()
            .all(|row| row.get("breaker").and_then(Value::as_str) == Some("open"))
    });
    let coord = stats.get("coordinator").expect("coordinator section");
    assert!(
        field(coord, "shed") >= 1,
        "the coordinator counts shed submissions: {stats:?}"
    );

    // Recovery: past the cooldown each breaker admits one half-open
    // probe; healthy (fault-free) jobs close whichever breaker they
    // land on, and the cluster converges back to fully closed.
    std::thread::sleep(Duration::from_millis(1600));
    let mut all_closed = false;
    for j in 0..60 {
        let (a, b, c_seq) = content(100 + j);
        c.send(&format!(
            r#"{{"op":"submit","id":"heal{j}","a":"{a}","b":"{b}","c":"{c_seq}"}}"#
        ));
        let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("heal")));
        if v.get("status").and_then(Value::as_str) != Some("done") {
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        c.send(r#"{"op":"stats"}"#);
        let stats = c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("stats"));
        if shard_rows(&stats)
            .iter()
            .all(|row| row.get("breaker").and_then(Value::as_str) == Some("closed"))
        {
            all_closed = true;
            break;
        }
    }
    assert!(
        all_closed,
        "both breakers must close after the fault clears"
    );

    c.send(r#"{"op":"shutdown"}"#);
    c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert!(c.child.wait().unwrap().success());
}

/// Overload drill 2: the cluster-wide retry budget. With `retries ≤
/// 5% × routed`, a lone flapping job fails through to the client, but
/// once enough clean traffic has been routed the same flap is absorbed
/// by exactly one budgeted retry (same internal id, so the worker's
/// per-tag flap counter sees attempt two).
#[test]
#[cfg(all(unix, feature = "faults"))]
fn retry_budget_gates_flap_retries() {
    let mut c = Cluster::spawn(&["--workers", "2", "--retry-budget", "5"]);

    // One routed job = budget for zero retries.
    let (a, b, c_seq) = content(200);
    c.send(&format!(
        r#"{{"op":"submit","id":"f1#fault-flap=1","a":"{a}","b":"{b}","c":"{c_seq}"}}"#
    ));
    let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("f1")));
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("failed"),
        "under an exhausted budget the failure passes through: {v:?}"
    );
    let stats = c.poll_stats(|v| field(v, "queue_depth") == 0);
    assert_eq!(
        field(stats.get("coordinator").unwrap(), "retries"),
        0,
        "no budget, no retry: {stats:?}"
    );

    // 25 clean jobs raise `routed` far enough that 5% covers one retry.
    for i in 0..25 {
        c.send(&submit_line(&format!("pad{i}"), 210 + i));
    }
    for _ in 0..25 {
        let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("pad")));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("done"));
    }

    let (a, b, c_seq) = content(300);
    c.send(&format!(
        r#"{{"op":"submit","id":"f2#fault-flap=1","a":"{a}","b":"{b}","c":"{c_seq}"}}"#
    ));
    let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("f2")));
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("done"),
        "a budgeted retry absorbs the flap before the client sees it: {v:?}"
    );

    let stats = c.poll_stats(|v| v.get("coordinator").map(|co| field(co, "retries")) == Some(1));
    let coord = stats.get("coordinator").unwrap();
    assert!(
        (field(coord, "retries") as f64) * 100.0 <= 5.0 * field(coord, "routed") as f64,
        "retries never exceed the budget: {stats:?}"
    );
    assert_accounting(&stats);

    c.send(r#"{"op":"shutdown"}"#);
    c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert!(c.child.wait().unwrap().success());
}

/// Overload drill 3: fairness. A heavy client floods past its
/// per-client in-flight quota and is shed with structured `overloaded`
/// refusals, while a light client's sequential jobs all complete, and
/// the per-client lane counters surface in cluster `stats`.
#[test]
#[cfg(all(unix, feature = "faults"))]
fn fair_quotas_protect_the_light_client_under_a_flood() {
    let mut c = Cluster::spawn(&[
        "--workers",
        "2",
        "--worker-threads",
        "2",
        "--max-in-flight-per-client",
        "1",
    ]);

    // The flood: 12 long jobs in one burst. Quota 1 admits roughly one
    // per shard; the rest are rejected immediately.
    for i in 0..12 {
        let (a, b, c_seq) = content(400 + i);
        c.send(&format!(
            r#"{{"op":"submit","id":"hog{i}#fault-delay=400","client":"hog","a":"{a}","b":"{b}","c":"{c_seq}"}}"#
        ));
    }
    // The light client, well-behaved in its own lane: one job at a
    // time, each must complete while the flood is being shed around it.
    let mut hog_responses = Vec::new();
    for i in 0..3 {
        let (a, b, c_seq) = content(450 + i);
        c.send(&format!(
            r#"{{"op":"submit","id":"lite{i}","client":"tenant","a":"{a}","b":"{b}","c":"{c_seq}"}}"#
        ));
        loop {
            let v = c.next();
            let is_lite = id_of(&v).is_some_and(|id| id.starts_with("lite"));
            let is_hog = id_of(&v).is_some_and(|id| id.starts_with("hog"));
            if is_lite {
                assert_eq!(
                    v.get("status").and_then(Value::as_str),
                    Some("done"),
                    "the light client must never be shed by the flood: {v:?}"
                );
                break;
            } else if is_hog {
                hog_responses.push(v);
            }
        }
    }
    while hog_responses.len() < 12 {
        let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("hog")));
        hog_responses.push(v);
    }
    let (mut done, mut rejected) = (0, 0);
    for v in &hog_responses {
        match v.get("error").and_then(Value::as_str) {
            Some("overloaded") => {
                assert_eq!(v.get("scope").and_then(Value::as_str), Some("in-flight"));
                assert!(
                    field(v, "retry_after_ms") > 0,
                    "quota refusals carry a retry hint: {v:?}"
                );
                rejected += 1;
            }
            None => {
                assert_eq!(
                    v.get("status").and_then(Value::as_str),
                    Some("done"),
                    "{v:?}"
                );
                done += 1;
            }
            other => panic!("unexpected hog outcome {other:?}: {v:?}"),
        }
    }
    assert!(rejected >= 1, "the flood must overrun the in-flight quota");
    assert_eq!(done + rejected, 12);

    // Quiescent accounting plus per-client lane counters cluster-wide.
    let stats = c.poll_stats(|v| {
        field(v, "queue_depth") == 0
            && field(v, "submitted")
                == field(v, "completed")
                    + field(v, "rejected")
                    + field(v, "cancelled")
                    + field(v, "failed")
    });
    assert_accounting(&stats);
    let (mut hog_rejected, mut tenant_rejected, mut tenant_submitted) = (0, 0, 0);
    for row in shard_rows(&stats) {
        if let Some(Value::Arr(lanes)) = row.get("lanes") {
            for lane in lanes {
                match lane.get("client").and_then(Value::as_str) {
                    Some("hog") => hog_rejected += field(lane, "rejected"),
                    Some("tenant") => {
                        tenant_rejected += field(lane, "rejected");
                        tenant_submitted += field(lane, "submitted");
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(
        hog_rejected >= 1,
        "the heavy lane records its shed traffic: {stats:?}"
    );
    assert_eq!(tenant_rejected, 0, "the light lane is untouched: {stats:?}");
    assert!(
        tenant_submitted >= 3,
        "lane counters are visible cluster-wide: {stats:?}"
    );

    c.send(r#"{"op":"shutdown"}"#);
    c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert!(c.child.wait().unwrap().success());
}

/// Satellite drill: SIGKILL one worker mid-batch under `--state-dir`.
/// The coordinator must respawn it onto the same shard, the journal
/// recovery ladder must serve recomputation-free hits for work the dead
/// worker had completed, and the batch plus accounting identity must
/// survive cluster-wide.
#[test]
#[cfg(all(unix, feature = "faults"))]
fn cluster_survives_sigkill_of_a_worker_mid_batch() {
    let dir = std::env::temp_dir().join(format!("tsa-cluster-kill9-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let mut c = Cluster::spawn(&[
        "--workers",
        "2",
        "--heartbeat-ms",
        "100",
        "--state-dir",
        dir.to_str().unwrap(),
    ]);

    // A seed job whose completion lands in its owner's journal.
    c.send(&submit_line("seed", 999));
    let seed = c.next_matching(|v| id_of(v) == Some("seed"));
    assert_eq!(seed.get("status").and_then(Value::as_str), Some("done"));
    let seed_score = seed.get("score").unwrap().as_i64().unwrap();

    // Find the seed's owner shard (the only one with a submission) and
    // its pid.
    let stats = c.poll_stats(|v| field(v, "completed") == 1);
    let victim = shard_rows(&stats)
        .iter()
        .find(|row| field(row, "submitted") > 0)
        .map(|row| field(row, "shard"))
        .expect("some shard owns the seed job");
    c.send(r#"{"op":"shard_info"}"#);
    let info = c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shard_info"));
    let victim_pid = match info.get("members") {
        Some(Value::Arr(rows)) => rows
            .iter()
            .find(|m| field(m, "shard") == victim)
            .map(|m| field(m, "pid"))
            .unwrap(),
        other => panic!("no members array: {other:?}"),
    };

    // A mid-flight batch: every job sleeps 500 ms inside the kernel
    // (fault tag), so killing the victim now catches its share in
    // flight. The `#@n` internal-id suffix must not disturb the tag's
    // fault directive.
    for i in 0..10 {
        let (a, b, c_seq) = content(i);
        c.send(&format!(
            r#"{{"op":"submit","id":"d{i}#fault-delay=500","a":"{a}","b":"{b}","c":"{c_seq}"}}"#
        ));
    }
    std::thread::sleep(Duration::from_millis(150));
    let killed = Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status()
        .expect("run kill -9");
    assert!(killed.success(), "kill -9 {victim_pid} failed");

    // Every batch job still resolves: survivors answer directly, the
    // victim's share is resubmitted to its respawned successor.
    for _ in 0..10 {
        let v = c.next_matching(|v| id_of(v).is_some_and(|id| id.starts_with("d")));
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("done"),
            "batch job lost across the kill: {v:?}"
        );
    }

    // The respawned worker recovered its journal: resubmitting the
    // dead worker's completed seed content is answered from the
    // journal-recovered cache, not recomputed.
    c.send(&submit_line("probe", 999));
    let probe = c.next_matching(|v| id_of(v) == Some("probe"));
    assert_eq!(probe.get("status").and_then(Value::as_str), Some("done"));
    assert_eq!(probe.get("score").unwrap().as_i64(), Some(seed_score));
    assert_eq!(
        probe.get("cached").and_then(Value::as_bool),
        Some(true),
        "probe must hit the recovered cache: {probe:?}"
    );
    assert_eq!(
        probe.get("recovered").and_then(Value::as_bool),
        Some(true),
        "the hit must come from the journal recovery ladder: {probe:?}"
    );

    // Quiescent cluster-wide accounting: one respawn recorded, every
    // submission resolved, identity intact on the aggregate and on
    // every live shard row.
    let stats = c.poll_stats(|v| {
        v.get("coordinator").map(|co| field(co, "respawns")) == Some(1)
            && field(v, "queue_depth") == 0
            && field(v, "submitted")
                == field(v, "completed")
                    + field(v, "rejected")
                    + field(v, "cancelled")
                    + field(v, "failed")
    });
    assert_accounting(&stats);
    for row in shard_rows(&stats) {
        assert_accounting(row);
    }
    let coord = stats.get("coordinator").expect("coordinator section");
    assert_eq!(field(coord, "alive"), 2, "the victim's shard is back");
    assert!(
        stats
            .get("shards")
            .map(|_| shard_rows(&stats).len())
            .unwrap_or(0)
            == 2
    );

    c.send(r#"{"op":"shutdown"}"#);
    let bye = c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some("shutdown"));
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    assert!(c.child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Pids of live processes whose command line contains `needle` (zombies
/// have an empty command line and never match).
#[cfg(target_os = "linux")]
fn processes_with_arg(needle: &str) -> Vec<u32> {
    let own = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != own)
        .filter(|pid| {
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            String::from_utf8_lossy(&cmdline).contains(needle)
        })
        .collect()
}

/// Shutdown and drain reap every worker, including one the supervisor
/// notices exiting mid-shutdown: once the coordinator has exited, no
/// process may still serve one of its shard dirs. A 1 ms heartbeat makes
/// the supervisor see the broadcast's exiting workers while the
/// coordinator is still running.
#[cfg(target_os = "linux")]
#[test]
fn shutdown_and_drain_leave_no_worker_behind() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let dir = std::env::temp_dir().join(format!("tsa-cluster-orphans-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let needle = format!("{}/shard-", dir.display());
    let ops = std::iter::repeat("shutdown").take(10).chain(["drain"]);
    for (cycle, op) in ops.enumerate() {
        let mut c = Cluster::spawn(&[
            "--workers",
            "2",
            "--heartbeat-ms",
            "1",
            "--state-dir",
            dir.to_str().unwrap(),
        ]);
        c.send(&format!(r#"{{"op":"{op}"}}"#));
        let bye = c.next_matching(|v| v.get("op").and_then(Value::as_str) == Some(op));
        assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
        assert!(c.child.wait().unwrap().success(), "cycle {cycle}: {op}");
        let orphans = processes_with_arg(&needle);
        for &pid in &orphans {
            // SAFETY: kill(2) on a leaked worker of this test's cluster.
            unsafe { kill(pid as i32, 9) };
        }
        assert!(
            orphans.is_empty(),
            "cycle {cycle} ({op}): workers {orphans:?} outlived the coordinator"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
