//! Crash-safe durability: a fsync'd append-only NDJSON job journal plus a
//! per-job checkpoint store, giving `tsa serve --state-dir` restartable
//! semantics.
//!
//! ## Journal invariants
//!
//! The journal at `<state-dir>/journal.ndjson` is append-only while the
//! engine runs; each record is one JSON object terminated by `\n` and
//! fsync'd before the operation it describes is acknowledged:
//!
//! * `{"ev":"job", ...}` — a job was admitted. The record carries the
//!   full request (sequences, scoring, algorithm, score-only flag) so a
//!   restarted process can resubmit it verbatim.
//! * `{"ev":"done", ...}` — the job produced a result (score and, for
//!   alignment jobs, the gapped rows). Recovery preloads these into the
//!   result cache.
//! * `{"ev":"gone", ...}` — the job resolved without a reusable result
//!   (cancelled, failed, deadline, worker death). Recovery drops it.
//!
//! Records are keyed by a content `uid` (two independent FNV-1a digests
//! over the request). A `job` with neither `done` nor `gone` is
//! *in-flight*: recovery resubmits it, resuming from its checkpoint
//! snapshot when one exists and validates. A torn trailing line (the
//! process died mid-append) is ignored; on startup the journal is
//! compacted — resolved noise is dropped and only live records are
//! rewritten — then reopened for appending.
//!
//! ## Checkpoint store
//!
//! Durable kernels stream [`FrontierSnapshot`]s through a [`FileSink`]
//! at `<state-dir>/checkpoints/<uid>.ckpt`. Writes go to a temp file,
//! fsync, then rename, so a crash mid-write never corrupts the previous
//! snapshot. Snapshots are checksummed and carry the job fingerprint;
//! recovery re-verifies both before resuming (the `resumed` rung) and
//! falls back to a clean re-run otherwise (the `restarted` rung).

use crate::cache::result_checksum;
use crate::engine::AlignRequest;
use crate::error::JobResult;
use crate::json::{JsonObject, Value};
use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use tsa_core::{Algorithm, CheckpointPolicy, CheckpointSink, FrontierSnapshot};
use tsa_scoring::{GapModel, Scoring};
use tsa_seq::{Alphabet, Seq};

/// Layout of a `--state-dir`: the journal file plus a checkpoint
/// directory.
#[derive(Debug)]
pub(crate) struct StateDir {
    root: PathBuf,
}

impl StateDir {
    fn create(root: &Path) -> io::Result<StateDir> {
        fs::create_dir_all(root.join("checkpoints"))?;
        Ok(StateDir { root: root.into() })
    }

    fn journal_path(&self) -> PathBuf {
        self.root.join("journal.ndjson")
    }

    fn checkpoint_path(&self, uid: &str) -> PathBuf {
        self.root.join("checkpoints").join(format!("{uid}.ckpt"))
    }
}

/// A [`CheckpointSink`] persisting snapshots to one file, atomically:
/// temp file → fsync → rename.
#[derive(Debug)]
pub(crate) struct FileSink {
    path: PathBuf,
}

impl CheckpointSink for FileSink {
    fn store(&self, snapshot: &FrontierSnapshot) -> io::Result<()> {
        let tmp = self.path.with_extension("ckpt.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&snapshot.encode())?;
        f.sync_all()?;
        fs::rename(&tmp, &self.path)
    }
}

/// FNV-1a with a selectable offset basis (same construction as the
/// result cache's fingerprints).
fn fnv1a(basis: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = basis;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub(crate) fn gap_tuple(scoring: &Scoring) -> (u8, i32, i32) {
    match scoring.gap.linear_penalty() {
        Some(g) => (0, g, 0),
        None => (1, scoring.gap.open_penalty(), scoring.gap.extend_penalty()),
    }
}

fn uid_digest(req: &AlignRequest, include_tag: bool) -> String {
    let content = || {
        let mut bytes: Vec<u8> = Vec::new();
        if include_tag {
            bytes.extend_from_slice(req.tag.as_bytes());
            bytes.push(0xFF);
        }
        for seq in &req.seqs {
            bytes.extend_from_slice(seq.alphabet().name().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(seq.residues());
            bytes.push(0xFF);
        }
        bytes.extend_from_slice(req.scoring.matrix.name().as_bytes());
        bytes.push(0);
        let (kind, open, extend) = gap_tuple(&req.scoring);
        bytes.push(kind);
        bytes.extend_from_slice(&open.to_le_bytes());
        bytes.extend_from_slice(&extend.to_le_bytes());
        bytes.extend_from_slice(req.algorithm.name().as_bytes());
        bytes.push(req.score_only as u8);
        bytes
    };
    format!(
        "{:016x}{:016x}",
        fnv1a(0xCBF2_9CE4_8422_2325, content()),
        fnv1a(0x6C62_272E_07BB_0142, content())
    )
}

/// Content identity of a journaled job: 32 hex chars from two
/// independent FNV-1a digests over the full request, tag included.
pub(crate) fn job_uid(req: &AlignRequest) -> String {
    uid_digest(req, true)
}

/// Tag-independent content identity: the same digest with the client's
/// id excluded, so resubmissions of the same sequences/scoring/algorithm
/// under different ids collapse to one value. This is what the cluster
/// coordinator routes by — it follows the result cache's content-only
/// keying, so every repeat lands on the shard whose cache is warm.
pub fn content_uid(req: &AlignRequest) -> String {
    uid_digest(req, false)
}

/// The `Scoring::by_name` key this scoring's matrix journals under, if
/// any. Preset display names differ in case from their lookup keys
/// (`"BLOSUM62"` vs `"blosum62"`), so the key is the lowercased display
/// name — accepted only when the tables actually agree, so a *custom*
/// matrix that merely reuses a preset's name is not mis-recovered as
/// the preset. A scoring that came from the preset shares its table,
/// which settles the question without comparing entries.
pub(crate) fn preset_key(scoring: &Scoring) -> Option<String> {
    let key = scoring.matrix.name().to_ascii_lowercase();
    let preset = Scoring::by_name(&key)?.matrix;
    let same_table = preset.shares_table(&scoring.matrix)
        || (0..=255u8).all(|a| (0..=255u8).all(|b| preset.sub(a, b) == scoring.matrix.sub(a, b)));
    same_table.then_some(key)
}

/// Whether a request can round-trip through the journal: the scoring
/// must come from a named preset (plus any gap override) and every
/// field must be reconstructible. Custom matrices are served normally
/// but not journaled.
pub(crate) fn journalable(req: &AlignRequest) -> bool {
    preset_key(&req.scoring).is_some()
}

/// The fsync'd append-only journal.
#[derive(Debug)]
struct Journal {
    file: Mutex<File>,
}

impl Journal {
    fn open_append(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    fn append(&self, line: &str) -> io::Result<()> {
        let mut f = self.file.lock();
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_data()
    }

    fn sync(&self) -> io::Result<()> {
        self.file.lock().sync_all()
    }
}

/// An unresolved job replayed from the journal.
#[derive(Debug)]
pub(crate) struct RecoveredJob {
    pub uid: String,
    pub req: AlignRequest,
}

/// A completed job replayed from the journal, ready for cache preload.
#[derive(Debug)]
pub(crate) struct RecoveredDone {
    pub req: AlignRequest,
    pub score: i32,
    pub rows: Option<[String; 3]>,
    pub algorithm: Algorithm,
}

/// Everything the startup replay learned from the journal.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    pub completed: Vec<RecoveredDone>,
    pub inflight: Vec<RecoveredJob>,
    /// `done` records refused during replay because their content
    /// checksum was missing or wrong — each job falls back to in-flight
    /// (re-run) instead of preloading a possibly corrupt result.
    /// Cumulative across this journal's generations: compaction writes
    /// the tally into the rewritten journal so a later restart still
    /// reports quarantines it can no longer see.
    pub quarantined: u64,
    /// Corrupt checkpoint snapshots deleted by the scrub at open.
    pub scrubbed: u64,
}

fn parse_alphabet(name: &str) -> Option<Alphabet> {
    match name {
        "DNA" => Some(Alphabet::Dna),
        "RNA" => Some(Alphabet::Rna),
        "protein" => Some(Alphabet::Protein),
        _ => None,
    }
}

fn parse_algorithm(name: &str) -> Option<Algorithm> {
    Algorithm::by_name(name, 16)
}

/// Algorithm names older journals may carry that no longer parse. Their
/// records are dropped at replay — neither preloaded nor re-run — and are
/// not corruption, so they never count as quarantined.
const RETIRED_ALGORITHMS: [&str; 3] = ["blocked", "dataflow", "banded"];

fn names_retired_algorithm(v: &Value) -> bool {
    v.get("algorithm")
        .and_then(Value::as_str)
        .is_some_and(|name| RETIRED_ALGORITHMS.contains(&name))
}

fn job_record(uid: &str, req: &AlignRequest) -> String {
    let (gap_kind, gap_open, gap_extend) = gap_tuple(&req.scoring);
    let mut obj = JsonObject::new()
        .str("ev", "job")
        .str("uid", uid)
        .str("tag", &req.tag);
    for (field, alpha_field, seq) in [
        ("a", "alpha_a", &req.seqs[0]),
        ("b", "alpha_b", &req.seqs[1]),
        ("c", "alpha_c", &req.seqs[2]),
    ] {
        obj = obj
            .str(field, seq.as_str())
            .str(alpha_field, seq.alphabet().name());
    }
    // `journalable` gating guarantees the lowercased name is a preset
    // key whose table matches this matrix.
    obj.str("matrix", &req.scoring.matrix.name().to_ascii_lowercase())
        .u64("gap_kind", gap_kind as u64)
        .i64("gap_open", gap_open as i64)
        .i64("gap_extend", gap_extend as i64)
        .str("algorithm", req.algorithm.name())
        .bool("score_only", req.score_only)
        .finish()
}

/// Render one `done` line. The `ck` field is the payload's
/// [`result_checksum`] in hex; replay refuses to preload any record
/// whose stored checksum is missing or disagrees with a recomputation,
/// so a bit flipped on disk quarantines the record instead of serving a
/// wrong score.
fn done_line(uid: &str, score: i32, rows: Option<&[String; 3]>, algorithm: Algorithm) -> String {
    let ck = result_checksum(score, rows, algorithm);
    let obj = JsonObject::new()
        .str("ev", "done")
        .str("uid", uid)
        .i64("score", score as i64)
        .str("algorithm", algorithm.name())
        .str("ck", &format!("{ck:016x}"));
    match rows {
        Some(rows) => obj.str_array("rows", rows.as_slice()).finish(),
        None => obj.finish(),
    }
}

fn done_record(uid: &str, result: &JobResult) -> String {
    done_line(uid, result.score, result.rows.as_ref(), result.algorithm)
}

fn gone_record(uid: &str) -> String {
    JsonObject::new().str("ev", "gone").str("uid", uid).finish()
}

/// Render the cumulative-quarantine meta record compaction carries
/// forward, so the count survives journal rewrites and process
/// restarts.
fn quarantined_record(n: u64) -> String {
    JsonObject::new()
        .str("ev", "quarantined")
        .u64("n", n)
        .finish()
}

fn parse_job_record(v: &Value) -> Option<AlignRequest> {
    let text = |field: &str| v.get(field).and_then(Value::as_str);
    let mut seqs = Vec::with_capacity(3);
    for (field, alpha_field) in [("a", "alpha_a"), ("b", "alpha_b"), ("c", "alpha_c")] {
        let alphabet = parse_alphabet(text(alpha_field)?)?;
        seqs.push(Seq::new(field, alphabet, text(field)?.as_bytes()).ok()?);
    }
    let scoring = Scoring::by_name(text("matrix")?)?;
    let gap = match v.get("gap_kind").and_then(Value::as_u64)? {
        0 => GapModel::linear(v.get("gap_open").and_then(Value::as_i64)? as i32),
        1 => GapModel::affine(
            v.get("gap_open").and_then(Value::as_i64)? as i32,
            v.get("gap_extend").and_then(Value::as_i64)? as i32,
        ),
        _ => return None,
    };
    let [a, b, c]: [Seq; 3] = seqs.try_into().ok()?;
    let mut req = AlignRequest::new(text("tag")?, a, b, c)
        .scoring(scoring.with_gap(gap))
        .algorithm(parse_algorithm(text("algorithm")?)?);
    req.score_only = v.get("score_only").and_then(Value::as_bool)?;
    Some(req)
}

#[derive(Debug)]
struct DoneInfo {
    score: i32,
    rows: Option<[String; 3]>,
    algorithm: Algorithm,
}

fn parse_done_record(v: &Value) -> Option<DoneInfo> {
    let rows = match v.get("rows") {
        None => None,
        Some(Value::Arr(items)) if items.len() == 3 => {
            let mut rows: Vec<String> = Vec::with_capacity(3);
            for item in items {
                rows.push(item.as_str()?.to_owned());
            }
            Some([rows.remove(0), rows.remove(0), rows.remove(0)])
        }
        Some(_) => return None,
    };
    Some(DoneInfo {
        score: v.get("score").and_then(Value::as_i64)? as i32,
        rows,
        algorithm: parse_algorithm(v.get("algorithm").and_then(Value::as_str)?)?,
    })
}

/// True when the record's stored `ck` matches a recomputation over its
/// payload. Records without a `ck` (pre-checksum journals, or a flip
/// that mangled the field itself) fail closed: they are quarantined and
/// the job re-runs rather than trusting an unverifiable result.
fn done_record_verified(v: &Value, info: &DoneInfo) -> bool {
    v.get("ck")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .is_some_and(|ck| ck == result_checksum(info.score, info.rows.as_ref(), info.algorithm))
}

/// Replay the journal, tolerating a torn (or otherwise malformed)
/// trailing line: bad lines are skipped, later records win.
fn replay_journal(path: &Path) -> io::Result<Replay> {
    #[derive(Default)]
    struct Slot {
        req: Option<AlignRequest>,
        done: Option<DoneInfo>,
        gone: bool,
    }
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    };
    let mut order: Vec<String> = Vec::new();
    let mut quarantined = 0u64;
    let mut slots: std::collections::HashMap<String, Slot> = std::collections::HashMap::new();
    for line in BufReader::new(file).split(b'\n') {
        let line = line?;
        let Ok(text) = std::str::from_utf8(&line) else {
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        let Ok(v) = Value::parse(text) else {
            continue;
        };
        let Some(ev) = v.get("ev").and_then(Value::as_str) else {
            continue;
        };
        // The carried-forward quarantine tally from earlier generations
        // of this journal (written by compaction). Without it a respawn
        // after the respawn that *did* the quarantining would reset the
        // count to zero — the corrupt records are gone from the clean
        // compacted journal — and `integrity_quarantined` would
        // under-report across restarts.
        if ev == "quarantined" {
            quarantined += v.get("n").and_then(Value::as_u64).unwrap_or(0);
            continue;
        }
        let Some(uid) = v.get("uid").and_then(Value::as_str) else {
            continue;
        };
        let slot = slots.entry(uid.to_owned()).or_insert_with(|| {
            order.push(uid.to_owned());
            Slot::default()
        });
        match ev {
            "job" => {
                if let Some(req) = parse_job_record(&v) {
                    // A resubmission after completion re-opens the slot.
                    slot.req = Some(req);
                    slot.gone = false;
                }
            }
            // A retired algorithm's result: the record parses no more,
            // but nothing on disk was damaged. Its `job` record failed to
            // parse too, so the slot is simply dropped.
            "done" if names_retired_algorithm(&v) => {}
            "done" => match parse_done_record(&v) {
                Some(done) if done_record_verified(&v, &done) => {
                    slot.done = Some(done);
                    slot.gone = false;
                }
                // Structurally broken or checksum-failed: quarantine.
                // The slot keeps its `job` record, so the work re-runs
                // instead of a corrupt result being preloaded.
                _ => quarantined += 1,
            },
            "gone" => slot.gone = true,
            _ => {}
        }
    }
    let mut replay = Replay {
        quarantined,
        ..Replay::default()
    };
    for uid in order {
        let slot = slots.remove(&uid).expect("slot recorded");
        if slot.gone {
            continue;
        }
        match (slot.req, slot.done) {
            (Some(req), Some(done)) => replay.completed.push(RecoveredDone {
                req,
                score: done.score,
                rows: done.rows,
                algorithm: done.algorithm,
            }),
            (Some(req), None) => replay.inflight.push(RecoveredJob { uid, req }),
            // A `done` whose `job` record was lost cannot rebuild a cache
            // key; drop it.
            _ => {}
        }
    }
    Ok(replay)
}

/// The engine's durability handle: state directory, journal, the drain
/// flag every durable kernel polls, and the checkpoint pacing policy.
#[derive(Debug)]
pub(crate) struct Durability {
    state: StateDir,
    journal: Journal,
    pub(crate) drain: AtomicBool,
    pub(crate) policy: CheckpointPolicy,
}

impl Durability {
    /// Open (or create) a state directory: replay the journal, compact it
    /// down to the still-live records (keeping at most `keep_completed`
    /// most-recent completed jobs), and reopen it for appending.
    pub(crate) fn open(
        root: &Path,
        policy: CheckpointPolicy,
        keep_completed: usize,
    ) -> io::Result<(Durability, Replay)> {
        let state = StateDir::create(root)?;
        let journal_path = state.journal_path();
        let mut replay = replay_journal(&journal_path)?;
        // Scrub the checkpoint store before anything resumes from it:
        // snapshots that no longer decode (bad magic, version, or
        // checksum) are deleted so recovery deterministically takes the
        // clean re-run rung instead of tripping over them later.
        replay.scrubbed = tsa_core::scrub_snapshot_dir(&root.join("checkpoints"))?.removed as u64;
        let dropped = replay.completed.len().saturating_sub(keep_completed);
        replay.completed.drain(..dropped);
        // Compact: rewrite only the live records, atomically.
        let tmp = journal_path.with_extension("ndjson.tmp");
        {
            let mut f = File::create(&tmp)?;
            // Quarantines are cumulative across generations: the corrupt
            // records themselves are dropped by this rewrite, so the
            // tally is the only trace they ever existed.
            if replay.quarantined > 0 {
                writeln!(f, "{}", quarantined_record(replay.quarantined))?;
            }
            for done in &replay.completed {
                let uid = job_uid(&done.req);
                writeln!(f, "{}", job_record(&uid, &done.req))?;
                writeln!(
                    f,
                    "{}",
                    done_line(&uid, done.score, done.rows.as_ref(), done.algorithm)
                )?;
            }
            for job in &replay.inflight {
                writeln!(f, "{}", job_record(&job.uid, &job.req))?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, &journal_path)?;
        let journal = Journal::open_append(&journal_path)?;
        Ok((
            Durability {
                state,
                journal,
                drain: AtomicBool::new(false),
                policy,
            },
            replay,
        ))
    }

    /// True once a drain was requested; durable kernels and workers poll
    /// this cooperatively.
    pub(crate) fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::Relaxed)
    }

    /// Stop admitting durable work: queued jobs short-circuit (staying
    /// in-flight in the journal) and running durable kernels store a
    /// final snapshot and stop.
    pub(crate) fn request_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Flush the journal to stable storage.
    pub(crate) fn sync(&self) -> io::Result<()> {
        self.journal.sync()
    }

    /// The checkpoint sink for one job.
    pub(crate) fn sink_for(&self, uid: &str) -> FileSink {
        FileSink {
            path: self.state.checkpoint_path(uid),
        }
    }

    /// Load a job's snapshot, if one exists and decodes (checksum, magic,
    /// version). Fingerprint validation is the caller's job.
    pub(crate) fn load_snapshot(&self, uid: &str) -> Option<FrontierSnapshot> {
        let bytes = fs::read(self.state.checkpoint_path(uid)).ok()?;
        FrontierSnapshot::decode(&bytes).ok()
    }

    /// Delete a job's snapshot (done, failed, or invalid).
    pub(crate) fn remove_checkpoint(&self, uid: &str) {
        let _ = fs::remove_file(self.state.checkpoint_path(uid));
    }

    /// Journal a job admission. Best-effort: an unwritable journal
    /// degrades durability, never the job itself.
    pub(crate) fn record_job(&self, uid: &str, req: &AlignRequest) {
        let _ = self.journal.append(&job_record(uid, req));
    }

    /// Journal a completion with its reusable result.
    pub(crate) fn record_done(&self, uid: &str, result: &JobResult) {
        let _ = self.journal.append(&done_record(uid, result));
    }

    /// Journal a terminal resolution without a reusable result.
    pub(crate) fn record_gone(&self, uid: &str) {
        let _ = self.journal.append(&gone_record(uid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{SystemTime, UNIX_EPOCH};

    fn tmp_dir(label: &str) -> PathBuf {
        let nonce = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "tsa-durability-{label}-{}-{nonce}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn request(tag: &str, text: &str, score_only: bool) -> AlignRequest {
        let seq = || Seq::dna(text).unwrap();
        let mut req = AlignRequest::new(tag, seq(), seq(), seq());
        req.score_only = score_only;
        req
    }

    fn policy() -> CheckpointPolicy {
        CheckpointPolicy {
            every_planes: 1,
            every: None,
        }
    }

    #[test]
    fn uid_is_stable_and_content_sensitive() {
        let r1 = request("t", "GATTACA", false);
        assert_eq!(job_uid(&r1), job_uid(&request("t", "GATTACA", false)));
        assert_ne!(job_uid(&r1), job_uid(&request("t2", "GATTACA", false)));
        assert_ne!(job_uid(&r1), job_uid(&request("t", "GATTACC", false)));
        assert_ne!(job_uid(&r1), job_uid(&request("t", "GATTACA", true)));
        let scored = request("t", "GATTACA", false).scoring(Scoring::unit());
        assert_ne!(job_uid(&r1), job_uid(&scored));
        assert_eq!(job_uid(&r1).len(), 32);
        assert!(job_uid(&r1).bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn content_uid_ignores_the_tag_but_tracks_content() {
        let r1 = request("t", "GATTACA", false);
        assert_eq!(
            content_uid(&r1),
            content_uid(&request("t2", "GATTACA", false))
        );
        assert_ne!(
            content_uid(&r1),
            content_uid(&request("t", "GATTACC", false))
        );
        assert_ne!(
            content_uid(&r1),
            content_uid(&request("t", "GATTACA", true))
        );
        assert_eq!(content_uid(&r1).len(), 32);
    }

    #[test]
    fn preset_scorings_are_journalable_custom_matrices_are_not() {
        assert!(journalable(&request("t", "ACGT", false)));
        let custom = request("t", "ACGT", false).scoring(Scoring::new(
            tsa_scoring::SubstMatrix::match_mismatch("house-rules", 3, -2),
            GapModel::linear(-1),
        ));
        assert!(!journalable(&custom));
        // Display names differ in case from lookup keys ("BLOSUM62" vs
        // "blosum62"); the mapping must still hold.
        assert!(journalable(
            &request("t", "ACGT", false).scoring(Scoring::blosum62())
        ));
        // A custom matrix squatting on a preset's name must not be
        // recovered as the preset.
        let spoofed = request("t", "ACGT", false).scoring(Scoring::new(
            tsa_scoring::SubstMatrix::match_mismatch("dna", 5, -4),
            GapModel::linear(-2),
        ));
        assert!(!journalable(&spoofed));
        // A gap override on a preset matrix still round-trips.
        let overridden = request("t", "ACGT", false)
            .scoring(Scoring::dna_default().with_gap(GapModel::linear(-7)));
        assert!(journalable(&overridden));
    }

    #[test]
    fn job_record_round_trips() {
        let mut req = request("job-1", "GATTACA", true);
        req = req
            .scoring(Scoring::blosum62().with_gap(GapModel::affine(-11, -1)))
            .algorithm(Algorithm::Hirschberg);
        let line = job_record("u1", &req);
        let v = Value::parse(&line).unwrap();
        let back = parse_job_record(&v).expect("round trip");
        assert_eq!(back.tag, "job-1");
        assert_eq!(back.seqs[0].residues(), req.seqs[0].residues());
        assert_eq!(back.scoring.matrix.name(), "BLOSUM62");
        assert_eq!(back.scoring.gap.open_penalty(), -11);
        assert_eq!(back.algorithm, Algorithm::Hirschberg);
        assert!(back.score_only);
    }

    #[test]
    fn replay_classifies_done_gone_and_inflight() {
        let dir = tmp_dir("replay");
        let (d, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert!(replay.completed.is_empty() && replay.inflight.is_empty());
        let finished = request("f", "GATTACA", true);
        let cancelled = request("x", "ACGTACGT", true);
        let running = request("r", "GTTACA", true);
        let (uid_f, uid_x, uid_r) = (job_uid(&finished), job_uid(&cancelled), job_uid(&running));
        d.record_job(&uid_f, &finished);
        d.record_job(&uid_x, &cancelled);
        d.record_job(&uid_r, &running);
        d.record_done(
            &uid_f,
            &JobResult {
                score: -3,
                rows: None,
                algorithm: Algorithm::Wavefront,
                degraded_from: None,
                cached: false,
                recovered: false,
                wait: Default::default(),
                service: Default::default(),
            },
        );
        d.record_gone(&uid_x);
        drop(d);

        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(replay.completed[0].score, -3);
        assert_eq!(replay.completed[0].req.tag, "f");
        assert_eq!(replay.inflight.len(), 1);
        assert_eq!(replay.inflight[0].uid, uid_r);
        assert_eq!(replay.inflight[0].req.tag, "r");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let dir = tmp_dir("torn");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        let req = request("whole", "GATTACA", true);
        d.record_job(&job_uid(&req), &req);
        drop(d);
        // Simulate a crash mid-append: valid record followed by a torn one.
        let journal = dir.join("journal.ndjson");
        let mut f = OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(b"{\"ev\":\"job\",\"uid\":\"dead\",\"ta")
            .unwrap();
        drop(f);
        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.inflight.len(), 1);
        assert_eq!(replay.inflight[0].req.tag, "whole");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_resolved_records_and_caps_completed() {
        let dir = tmp_dir("compact");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        for i in 0..4 {
            let req = request(&format!("j{i}"), "GATTACA", true);
            let uid = job_uid(&req);
            d.record_job(&uid, &req);
            d.record_done(
                &uid,
                &JobResult {
                    score: i,
                    rows: None,
                    algorithm: Algorithm::Wavefront,
                    degraded_from: None,
                    cached: false,
                    recovered: false,
                    wait: Default::default(),
                    service: Default::default(),
                },
            );
        }
        let gone = request("gone", "ACGT", true);
        d.record_job(&job_uid(&gone), &gone);
        d.record_gone(&job_uid(&gone));
        drop(d);

        // keep_completed=2 retains only the most recent completions.
        let (_, replay) = Durability::open(&dir, policy(), 2).unwrap();
        assert_eq!(replay.completed.len(), 2);
        assert_eq!(replay.completed[0].req.tag, "j2");
        assert_eq!(replay.completed[1].req.tag, "j3");
        // The compacted file replays identically.
        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.completed.len(), 2);
        assert!(replay.inflight.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    fn done_result(score: i32) -> JobResult {
        JobResult {
            score,
            rows: None,
            algorithm: Algorithm::Wavefront,
            degraded_from: None,
            cached: false,
            recovered: false,
            wait: Default::default(),
            service: Default::default(),
        }
    }

    #[test]
    fn done_records_carry_a_verifying_checksum() {
        let line = done_line("u1", -7, None, Algorithm::Wavefront);
        let v = Value::parse(&line).unwrap();
        let info = parse_done_record(&v).unwrap();
        assert!(done_record_verified(&v, &info));
        assert_eq!(
            v.get("ck").unwrap().as_str().unwrap().len(),
            16,
            "ck is a fixed-width hex digest"
        );
        // A record without ck (legacy journal) fails closed.
        let bare = JsonObject::new()
            .str("ev", "done")
            .str("uid", "u1")
            .i64("score", -7)
            .str("algorithm", Algorithm::Wavefront.name())
            .finish();
        let bare = Value::parse(&bare).unwrap();
        let info = parse_done_record(&bare).unwrap();
        assert!(!done_record_verified(&bare, &info));
    }

    #[test]
    fn corrupt_done_record_is_quarantined_and_re_run() {
        let dir = tmp_dir("quarantine");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        let req = request("q", "GATTACA", true);
        let uid = job_uid(&req);
        d.record_job(&uid, &req);
        d.record_done(&uid, &done_result(-3));
        drop(d);
        // Flip one score digit in place, keeping the line valid JSON —
        // exactly what the chaos harness's bit-flip injector does.
        let journal = dir.join("journal.ndjson");
        let text = fs::read_to_string(&journal).unwrap();
        let needle = "\"score\":-3";
        let flipped = text.replace(needle, "\"score\":-2");
        assert_ne!(text, flipped, "corruption target present");
        fs::write(&journal, flipped).unwrap();

        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.quarantined, 1, "the flip is counted");
        assert!(replay.completed.is_empty(), "never preloaded");
        assert_eq!(replay.inflight.len(), 1, "the job re-runs instead");
        assert_eq!(replay.inflight[0].uid, uid);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_algorithm_records_are_dropped_not_quarantined() {
        let dir = tmp_dir("retired");
        fs::create_dir_all(&dir).unwrap();
        let job = |uid: &str, algorithm: &str| {
            format!(
                r#"{{"ev":"job","uid":"{uid}","tag":"{uid}","a":"GATTACA","alpha_a":"DNA","b":"GATACA","alpha_b":"DNA","c":"GTTACA","alpha_c":"DNA","matrix":"dna","gap_kind":0,"gap_open":-2,"gap_extend":0,"algorithm":"{algorithm}","score_only":false}}"#
            )
        };
        let done = |uid: &str, algorithm: &str| {
            format!(
                r#"{{"ev":"done","uid":"{uid}","score":26,"algorithm":"{algorithm}","ck":"0123456789abcdef","rows":["GATTACA","GA-TACA","G-TTACA"]}}"#
            )
        };
        let journal = [
            job("old-blocked", "blocked"),
            done("old-blocked", "blocked"),
            job("old-dataflow", "dataflow"),
            done("old-dataflow", "dataflow"),
            // `banded` was retired for returning sub-optimal scores: its
            // journaled answers must never be served again.
            job("old-banded", "banded"),
            done("old-banded", "banded"),
            // An unresolved retired job is dropped too.
            job("pending-blocked", "blocked"),
            job("pending-banded", "banded"),
            // A live job of a current algorithm still replays.
            job("live", "wavefront"),
        ]
        .join("\n");
        fs::write(dir.join("journal.ndjson"), journal + "\n").unwrap();

        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.quarantined, 0, "retired names are not corruption");
        assert!(
            replay.completed.is_empty(),
            "retired results are not preloaded"
        );
        assert_eq!(replay.inflight.len(), 1, "only the live job re-runs");
        assert_eq!(replay.inflight[0].uid, "live");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_tally_survives_compaction_and_later_restarts() {
        let dir = tmp_dir("quarantine-carry");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        let req = request("qc", "GATTACA", true);
        let uid = job_uid(&req);
        d.record_job(&uid, &req);
        d.record_done(&uid, &done_result(-3));
        drop(d);
        let journal = dir.join("journal.ndjson");
        let text = fs::read_to_string(&journal).unwrap();
        fs::write(&journal, text.replace("\"score\":-3", "\"score\":-2")).unwrap();

        // The reopen quarantines the flip and compacts it away; the
        // rewritten journal must carry the tally forward so restarts
        // that never saw the corrupt record still report it.
        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.quarantined, 1);
        let compacted = fs::read_to_string(&journal).unwrap();
        assert!(compacted.contains("\"ev\":\"quarantined\""), "{compacted}");
        assert!(
            !compacted.contains("\"score\":-2"),
            "corrupt record dropped"
        );

        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.quarantined, 1, "carried across a clean restart");
        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.quarantined, 1, "no double counting");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_done_records_still_verify() {
        let dir = tmp_dir("compact-ck");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        let req = request("c", "GATTACA", true);
        let uid = job_uid(&req);
        d.record_job(&uid, &req);
        d.record_done(&uid, &done_result(5));
        drop(d);
        // First reopen compacts (rewrites the done line); the second
        // reopen must still verify and preload it.
        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(replay.quarantined, 0);
        let (_, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(replay.completed[0].score, 5);
        assert_eq!(replay.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_scrubs_corrupt_checkpoints() {
        let dir = tmp_dir("scrub");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        let snap = FrontierSnapshot {
            fingerprint: 7,
            kind: 0,
            next_index: 1,
            cells_done: 5,
            buffers: vec![vec![0; 8]],
        };
        d.sink_for("good").store(&snap).unwrap();
        d.sink_for("bad").store(&snap).unwrap();
        let bad = dir.join("checkpoints").join("bad.ckpt");
        let mut bytes = fs::read(&bad).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&bad, &bytes).unwrap();
        // A stale temp file from a crash mid-store is swept too.
        fs::write(dir.join("checkpoints").join("stale.ckpt.tmp"), b"junk").unwrap();
        drop(d);

        let (d, replay) = Durability::open(&dir, policy(), 64).unwrap();
        assert_eq!(replay.scrubbed, 1, "one corrupt snapshot deleted");
        assert!(!bad.exists());
        assert!(!dir.join("checkpoints").join("stale.ckpt.tmp").exists());
        assert_eq!(d.load_snapshot("good").unwrap(), snap, "valid one kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_sink_snapshot_round_trips_and_survives_overwrite() {
        let dir = tmp_dir("sink");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        let sink = d.sink_for("u1");
        let snap = FrontierSnapshot {
            fingerprint: 7,
            kind: 1,
            next_index: 3,
            cells_done: 99,
            buffers: vec![vec![1, 2, 3]],
        };
        sink.store(&snap).unwrap();
        assert_eq!(d.load_snapshot("u1").unwrap(), snap);
        let newer = FrontierSnapshot {
            next_index: 4,
            ..snap.clone()
        };
        sink.store(&newer).unwrap();
        assert_eq!(d.load_snapshot("u1").unwrap(), newer);
        d.remove_checkpoint("u1");
        assert!(d.load_snapshot("u1").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_fails_to_load() {
        let dir = tmp_dir("corrupt");
        let (d, _) = Durability::open(&dir, policy(), 64).unwrap();
        let sink = d.sink_for("u1");
        sink.store(&FrontierSnapshot {
            fingerprint: 7,
            kind: 0,
            next_index: 1,
            cells_done: 5,
            buffers: vec![vec![0; 8]],
        })
        .unwrap();
        let path = dir.join("checkpoints").join("u1.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(d.load_snapshot("u1").is_none(), "checksum rejects the flip");
        let _ = fs::remove_dir_all(&dir);
    }
}
