//! Global invariants the harness checks once the cluster quiesces.
//! Every function here is pure over collected artifacts (response rows,
//! aggregated stats JSON, journal texts), so each check is unit-testable
//! without booting a cluster — and the harness's pass/fail lines stay
//! deterministic: a passing check logs only its name, never a number
//! that could drift between same-seed runs.

use tsa_core::Algorithm;
use tsa_service::json::Value;
use tsa_service::result_checksum;

/// One invariant verdict. `detail` is empty on pass and names the
/// offending shards/jobs on failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Stable invariant name.
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Failure explanation (empty on pass).
    pub detail: String,
}

impl Check {
    fn pass(name: &'static str) -> Check {
        Check {
            name,
            passed: true,
            detail: String::new(),
        }
    }

    fn fail(name: &'static str, detail: String) -> Check {
        Check {
            name,
            passed: false,
            detail,
        }
    }

    /// The event-log line for this verdict.
    pub fn log_line(&self) -> String {
        if self.passed {
            format!("invariant {} pass", self.name)
        } else {
            format!("invariant {} FAIL: {}", self.name, self.detail)
        }
    }
}

/// One collected submission response, reduced to its deterministic
/// fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseRow {
    /// Submission index.
    pub index: usize,
    /// Response `status` (`"done"` on the happy path) or a harness
    /// marker (`"timeout"`, `"unparseable"`).
    pub status: String,
    /// Response score, when present.
    pub score: Option<i64>,
    /// Resolved algorithm name, when present.
    pub algorithm: Option<String>,
    /// Nonzero distributed-trace id, when the response carried one.
    pub traced: bool,
}

/// **Accounting identity.** On every live shard, at quiesce:
/// `submitted == completed + rejected + cancelled + failed` and
/// `queue_depth == 0`. Counters reset with a respawned process, so the
/// identity holds per worker lifetime — exactly what each shard row of
/// the aggregated stats reports.
pub fn accounting(stats: &Value) -> Check {
    const NAME: &str = "accounting-identity";
    let Some(Value::Arr(shards)) = stats.get("shards") else {
        return Check::fail(NAME, "cluster stats carry no shard rows".into());
    };
    let mut bad = Vec::new();
    for row in shards {
        let field = |key| row.get(key).and_then(Value::as_u64).unwrap_or(0);
        let shard = field("shard");
        let submitted = field("submitted");
        let resolved =
            field("completed") + field("rejected") + field("cancelled") + field("failed");
        if submitted != resolved || field("queue_depth") != 0 {
            bad.push(format!(
                "shard {shard}: submitted={submitted} resolved={resolved} queue_depth={}",
                field("queue_depth")
            ));
        }
    }
    if bad.is_empty() {
        Check::pass(NAME)
    } else {
        Check::fail(NAME, bad.join("; "))
    }
}

/// **Every submission answered, and answered `done`.** The workload
/// sets no deadlines and the harness disables breakers, so under kills,
/// stops, severed links, and corrupted disks, every job must still
/// resolve to a successful response exactly once.
pub fn responses_complete(rows: &[ResponseRow], total: usize) -> Check {
    const NAME: &str = "every-job-answered";
    if rows.len() != total {
        return Check::fail(NAME, format!("{} responses for {total} jobs", rows.len()));
    }
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| r.status != "done")
        .map(|r| format!("job {} status={}", r.index, r.status))
        .collect();
    if bad.is_empty() {
        Check::pass(NAME)
    } else {
        Check::fail(NAME, bad.join("; "))
    }
}

/// **Repeat consistency.** A job that re-submits earlier content must
/// report the same score — whether it was answered fresh, from cache,
/// or from a journal-recovered entry on a respawned worker.
pub fn repeat_consistency(rows: &[ResponseRow], repeats: &[(usize, usize)]) -> Check {
    const NAME: &str = "repeat-consistency";
    let score_of = |index: usize| rows.iter().find(|r| r.index == index).and_then(|r| r.score);
    let mut bad = Vec::new();
    for &(repeat, original) in repeats {
        let (a, b) = (score_of(repeat), score_of(original));
        if a != b || a.is_none() {
            bad.push(format!(
                "job {repeat} scored {a:?}, original {original} scored {b:?}"
            ));
        }
    }
    if bad.is_empty() {
        Check::pass(NAME)
    } else {
        Check::fail(NAME, bad.join("; "))
    }
}

/// **Trace-tree completeness (light).** With the flight recorder on,
/// every completed response must carry a nonzero trace id — no job may
/// fall out of the distributed trace, however many times it was
/// resubmitted across respawns.
pub fn trace_completeness(rows: &[ResponseRow]) -> Check {
    const NAME: &str = "trace-completeness";
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| r.status == "done" && !r.traced)
        .map(|r| format!("job {}", r.index))
        .collect();
    if bad.is_empty() {
        Check::pass(NAME)
    } else {
        Check::fail(NAME, format!("untraced responses: {}", bad.join(", ")))
    }
}

/// One `done` record parsed back out of a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDone {
    /// Content fingerprint.
    pub uid: String,
    /// Journaled score.
    pub score: i64,
    /// Whether the record's `ck` checksum verifies against its payload.
    pub ck_verified: bool,
}

/// Parse every well-formed `done` record of a journal, in order,
/// re-deriving each record's content checksum the same way replay does.
pub fn parse_journal_dones(text: &str) -> Vec<JournalDone> {
    let mut dones = Vec::new();
    for line in text.lines() {
        let Ok(v) = Value::parse(line) else { continue };
        if v.get("ev").and_then(Value::as_str) != Some("done") {
            continue;
        }
        let Some(uid) = v.get("uid").and_then(Value::as_str) else {
            continue;
        };
        let Some(score) = v.get("score").and_then(Value::as_i64) else {
            continue;
        };
        dones.push(JournalDone {
            uid: uid.to_string(),
            score,
            ck_verified: done_ck_verified(&v, score),
        });
    }
    dones
}

fn done_ck_verified(v: &Value, score: i64) -> bool {
    let Some(algorithm) = v
        .get("algorithm")
        .and_then(Value::as_str)
        .and_then(|name| Algorithm::by_name(name, 16))
    else {
        return false;
    };
    let rows = match v.get("rows") {
        None => None,
        Some(Value::Arr(items)) => {
            let strs: Vec<String> = items
                .iter()
                .filter_map(|r| r.as_str().map(str::to_owned))
                .collect();
            match <[String; 3]>::try_from(strs) {
                Ok(rows) => Some(rows),
                Err(_) => return false,
            }
        }
        Some(_) => return false,
    };
    let Some(ck) = v
        .get("ck")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
    else {
        return false;
    };
    ck == result_checksum(score as i32, rows.as_ref(), algorithm)
}

/// **Journal-replay idempotence + checksum closure.** Reading a shard's
/// journal twice must yield the identical record sequence, and the
/// number of checksum-failing records must equal exactly the injected
/// flips that no respawn has replayed (and therefore quarantined and
/// compacted away) yet.
pub fn journal_integrity(journals: &[(u32, String, String, u32)]) -> Check {
    const NAME: &str = "journal-replay-idempotence";
    let mut bad = Vec::new();
    for (shard, first, second, expected_bad) in journals {
        let a = parse_journal_dones(first);
        let b = parse_journal_dones(second);
        if a != b {
            bad.push(format!("shard {shard}: two replays disagree"));
            continue;
        }
        let failing = a.iter().filter(|d| !d.ck_verified).count() as u32;
        if failing != *expected_bad {
            bad.push(format!(
                "shard {shard}: {failing} checksum-failing done records, expected {expected_bad}"
            ));
        }
    }
    if bad.is_empty() {
        Check::pass(NAME)
    } else {
        Check::fail(NAME, bad.join("; "))
    }
}

/// **Quarantine accounting.** Every bit flip a respawn replayed must
/// have been quarantined (never served): the cluster-aggregated
/// `integrity_quarantined` counter equals the replayed flips. (`>=`
/// would also tolerate cache-entry rot the harness did not inject; the
/// harness injects deterministically, so equality is the honest check.)
pub fn quarantine_accounting(stats: &Value, replayed_flips: u64) -> Check {
    const NAME: &str = "bit-flips-quarantined";
    let quarantined = stats
        .get("integrity_quarantined")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if quarantined == replayed_flips {
        Check::pass(NAME)
    } else {
        Check::fail(
            NAME,
            format!("{quarantined} quarantined, {replayed_flips} corrupt records replayed"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_service::json::JsonObject;

    fn stats_with_shards(rows: Vec<JsonObject>) -> Value {
        Value::parse(
            &JsonObject::new()
                .u64("integrity_quarantined", 0)
                .objects("shards", rows)
                .finish(),
        )
        .unwrap()
    }

    fn shard_row(shard: u64, submitted: u64, completed: u64, failed: u64) -> JsonObject {
        JsonObject::new()
            .u64("shard", shard)
            .u64("submitted", submitted)
            .u64("completed", completed)
            .u64("rejected", 0)
            .u64("cancelled", 0)
            .u64("failed", failed)
            .u64("queue_depth", 0)
    }

    #[test]
    fn accounting_identity_passes_and_fails_per_shard() {
        let ok = stats_with_shards(vec![shard_row(0, 10, 9, 1), shard_row(1, 4, 4, 0)]);
        assert!(accounting(&ok).passed);
        let bad = stats_with_shards(vec![shard_row(0, 10, 8, 1)]);
        let check = accounting(&bad);
        assert!(!check.passed);
        assert!(check.detail.contains("shard 0"), "{}", check.detail);
    }

    #[test]
    fn response_checks_catch_missing_and_unsuccessful_jobs() {
        let rows = vec![
            ResponseRow {
                index: 0,
                status: "done".into(),
                score: Some(-3),
                algorithm: None,
                traced: true,
            },
            ResponseRow {
                index: 1,
                status: "timeout".into(),
                score: None,
                algorithm: None,
                traced: false,
            },
        ];
        assert!(!responses_complete(&rows, 3).passed, "2 of 3 answered");
        let check = responses_complete(&rows, 2);
        assert!(!check.passed, "a timeout is not an answer");
        assert!(check.detail.contains("job 1"), "{}", check.detail);
        assert!(
            !trace_completeness(&[ResponseRow {
                index: 0,
                status: "done".into(),
                score: Some(1),
                algorithm: None,
                traced: false,
            }])
            .passed
        );
    }

    #[test]
    fn repeat_consistency_compares_scores_across_instances() {
        let row = |index: usize, score: i64| ResponseRow {
            index,
            status: "done".into(),
            score: Some(score),
            algorithm: None,
            traced: true,
        };
        let rows = vec![row(0, -3), row(4, -3), row(5, 7)];
        assert!(repeat_consistency(&rows, &[(4, 0)]).passed);
        let check = repeat_consistency(&rows, &[(5, 0)]);
        assert!(!check.passed);
        assert!(check.detail.contains("job 5"), "{}", check.detail);
    }

    #[test]
    fn journal_checks_verify_real_checksums_and_count_flips() {
        // A genuine done line, built with the real checksum helper.
        let algorithm = Algorithm::by_name("wavefront", 16).unwrap();
        let ck = result_checksum(-3, None, algorithm);
        let good = format!(
            "{{\"ev\":\"done\",\"uid\":\"u1\",\"score\":-3,\"algorithm\":\"wavefront\",\"ck\":\"{ck:016x}\"}}"
        );
        let corrupt = good.replace("\"score\":-3", "\"score\":-2");
        let text = format!("{good}\n{corrupt}\n{{\"ev\":\"start\",\"uid\":\"u2\"}}\nnot json\n");
        let dones = parse_journal_dones(&text);
        assert_eq!(dones.len(), 2);
        assert!(dones[0].ck_verified);
        assert!(!dones[1].ck_verified);

        let journals = vec![(0u32, text.clone(), text.clone(), 1u32)];
        assert!(journal_integrity(&journals).passed);
        let wrong = vec![(0u32, text.clone(), text, 0u32)];
        let check = journal_integrity(&wrong);
        assert!(!check.passed);
        assert!(check.detail.contains("expected 0"), "{}", check.detail);
    }

    #[test]
    fn quarantine_accounting_requires_exact_equality() {
        let stats =
            Value::parse(&JsonObject::new().u64("integrity_quarantined", 2).finish()).unwrap();
        assert!(quarantine_accounting(&stats, 2).passed);
        assert!(!quarantine_accounting(&stats, 3).passed);
        assert!(!quarantine_accounting(&stats, 0).passed);
    }
}
