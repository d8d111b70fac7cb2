//! Cooperative checkpoint/resume for the rolling score kernels.
//!
//! The slab and plane orders of the sweep engine ([`crate::sweep`]) keep
//! only a thin frontier of DP state alive, which makes them naturally
//! checkpointable: persist the frontier plus the next index and the sweep
//! can continue on another day — or another process — producing the exact
//! same score, because the recurrence is a pure max over the restored
//! planes.
//!
//! The moving parts, in the spirit of [`crate::cancel::CancelToken`]
//! (everything is cooperative, polled once per plane/slab):
//!
//! * [`CheckpointSink`] — where snapshots go (a file, memory in tests);
//! * [`CheckpointPolicy`] — how often (every N planes and/or every T);
//! * [`CheckpointConfig`] — sink + policy + an optional *drain* flag: when
//!   the flag fires, the kernel writes one final snapshot and stops with
//!   [`DurableStop::Drained`] instead of throwing work away;
//! * [`job_fingerprint`] — binds a snapshot to one (sequences, scoring,
//!   kernel) configuration so a resumed sweep can never continue from the
//!   wrong job's frontier;
//! * [`crate::sweep::Checkpoint`] — config plus the snapshot to resume
//!   from, handed to a sweep (or [`crate::Aligner::score3_durable`]).

use crate::aligner::AlignError;
use crate::cancel::CancelProgress;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::snapshot::{fnv1a, FNV_OFFSET_BASIS};
pub use tsa_wavefront::snapshot::{FrontierSnapshot, SnapshotError};

/// Which rolling kernel produced (or may consume) a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Sequential slab sweep ([`crate::sweep::Order::Slabs`]):
    /// the frontier is the previous `i`-slab.
    Slabs,
    /// Plane-rolling parallel sweep
    /// ([`crate::sweep::Order::Planes`]): the frontier is the
    /// last three anti-diagonal planes.
    Planes,
}

impl KernelKind {
    /// Wire discriminant stored in [`FrontierSnapshot::kind`].
    pub fn code(self) -> u8 {
        match self {
            KernelKind::Slabs => 1,
            KernelKind::Planes => 2,
        }
    }

    /// Inverse of [`KernelKind::code`].
    pub fn from_code(code: u8) -> Option<KernelKind> {
        match code {
            1 => Some(KernelKind::Slabs),
            2 => Some(KernelKind::Planes),
            _ => None,
        }
    }

    /// Human-readable name (used in journal records and errors).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Slabs => "slabs",
            KernelKind::Planes => "planes",
        }
    }
}

/// Digest binding a snapshot to one job configuration: sequences
/// (alphabet + residues + lengths), scoring scheme (matrix name + gap
/// parameters), and kernel kind. Snapshots whose fingerprint differs from
/// the job they are asked to continue are *stale* and rejected.
pub fn job_fingerprint(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, kind: KernelKind) -> u64 {
    let mut h = fnv1a(FNV_OFFSET_BASIS, &[kind.code()]);
    for s in [a, b, c] {
        h = fnv1a(h, s.alphabet().name().as_bytes());
        h = fnv1a(h, &[0x00]);
        h = fnv1a(h, &(s.len() as u64).to_le_bytes());
        h = fnv1a(h, s.residues());
        h = fnv1a(h, &[0xFF]);
    }
    h = fnv1a(h, scoring.matrix.name().as_bytes());
    h = fnv1a(h, &[0x00]);
    let (kind_byte, p1, p2) = match scoring.gap.linear_penalty() {
        Some(g) => (0u8, g, 0),
        None => (
            1u8,
            scoring.gap.open_penalty(),
            scoring.gap.extend_penalty(),
        ),
    };
    h = fnv1a(h, &[kind_byte]);
    h = fnv1a(h, &p1.to_le_bytes());
    h = fnv1a(h, &p2.to_le_bytes());
    h
}

/// Result of [`scrub_snapshot_dir`]: how many snapshot files survived
/// validation and how many were deleted as undecodable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotScrub {
    /// `.ckpt` files that decoded cleanly and were left in place.
    pub kept: usize,
    /// `.ckpt` files that failed to decode (bad magic, version, shape,
    /// or checksum) and were deleted.
    pub removed: usize,
}

/// Validate every `.ckpt` file in `dir` before anything resumes from it,
/// deleting the ones that no longer decode — on-disk corruption must
/// deterministically route a job to the clean re-run rung, never crash or
/// stall a resume. Stale `.ckpt.tmp` files (a crash mid-store) are swept
/// silently. A missing directory is an empty scrub, not an error.
pub fn scrub_snapshot_dir(dir: &std::path::Path) -> std::io::Result<SnapshotScrub> {
    let mut scrub = SnapshotScrub::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scrub),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("tmp") => {
                let _ = std::fs::remove_file(&path);
            }
            Some("ckpt") => {
                let valid = std::fs::read(&path)
                    .is_ok_and(|bytes| FrontierSnapshot::decode(&bytes).is_ok());
                if valid {
                    scrub.kept += 1;
                } else {
                    let _ = std::fs::remove_file(&path);
                    scrub.removed += 1;
                }
            }
            _ => {}
        }
    }
    Ok(scrub)
}

/// Destination for frontier snapshots. Implementations must be cheap to
/// call once per checkpoint interval and durable enough for their purpose
/// (the service's file sink writes via rename so a crash mid-store can
/// never corrupt the previous snapshot).
pub trait CheckpointSink: Send + Sync {
    /// Persist `snapshot`, replacing any previous snapshot for this job.
    fn store(&self, snapshot: &FrontierSnapshot) -> std::io::Result<()>;
}

/// In-memory sink holding the latest snapshot — the test/bench workhorse.
#[derive(Debug, Default)]
pub struct MemorySink {
    last: Mutex<Option<FrontierSnapshot>>,
    stores: AtomicU64,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The most recent snapshot stored, if any.
    pub fn last(&self) -> Option<FrontierSnapshot> {
        self.last.lock().expect("sink lock").clone()
    }

    /// How many times [`CheckpointSink::store`] ran.
    pub fn store_count(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }
}

impl CheckpointSink for MemorySink {
    fn store(&self, snapshot: &FrontierSnapshot) -> std::io::Result<()> {
        *self.last.lock().expect("sink lock") = Some(snapshot.clone());
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// How often the kernel checkpoints. Both triggers are optional and OR'd;
/// with neither set the kernel only snapshots on drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot after this many planes/slabs (0 disables the count
    /// trigger).
    pub every_planes: usize,
    /// Snapshot when this much wall time has passed since the last one.
    pub every: Option<Duration>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_planes: 32,
            every: None,
        }
    }
}

/// Everything a durable kernel needs: where snapshots go, how often, and
/// an optional drain flag that turns the next poll into
/// checkpoint-and-stop.
pub struct CheckpointConfig<'a> {
    /// Snapshot destination.
    pub sink: &'a dyn CheckpointSink,
    /// Cadence.
    pub policy: CheckpointPolicy,
    /// When set and `true`, the kernel stores a final snapshot at the next
    /// plane boundary and returns [`DurableStop::Drained`].
    pub drain: Option<&'a AtomicBool>,
}

impl<'a> CheckpointConfig<'a> {
    /// Config with the default policy and no drain flag.
    pub fn new(sink: &'a dyn CheckpointSink) -> Self {
        CheckpointConfig {
            sink,
            policy: CheckpointPolicy::default(),
            drain: None,
        }
    }

    /// Set the plane-count trigger.
    pub fn every_planes(mut self, planes: usize) -> Self {
        self.policy.every_planes = planes;
        self
    }

    /// Set the wall-time trigger.
    pub fn every(mut self, interval: Duration) -> Self {
        self.policy.every = Some(interval);
        self
    }

    /// Attach a drain flag.
    pub fn drain_flag(mut self, flag: &'a AtomicBool) -> Self {
        self.drain = Some(flag);
        self
    }

    pub(crate) fn drain_requested(&self) -> bool {
        self.drain.is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// Checkpoint cadence bookkeeping, one per sweep.
pub(crate) struct Pacer {
    policy: CheckpointPolicy,
    since: usize,
    last: Instant,
}

impl Pacer {
    pub(crate) fn new(policy: CheckpointPolicy) -> Self {
        Pacer {
            policy,
            since: 0,
            last: Instant::now(),
        }
    }

    /// Called once per completed plane/slab; true when a checkpoint is
    /// due. Resets the triggers when it fires.
    pub(crate) fn due(&mut self) -> bool {
        self.since += 1;
        let count_due = self.policy.every_planes > 0 && self.since >= self.policy.every_planes;
        let time_due = self.policy.every.is_some_and(|t| self.last.elapsed() >= t);
        if count_due || time_due {
            self.since = 0;
            self.last = Instant::now();
            true
        } else {
            false
        }
    }
}

/// Why a snapshot cannot continue the job it was offered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError {
    /// The snapshot belongs to a different (sequences, scoring, kernel)
    /// configuration.
    Fingerprint {
        /// Fingerprint of the job being resumed.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The snapshot came from the other kernel kind.
    Kind {
        /// Kind the resuming kernel requires.
        expected: u8,
        /// Kind stored in the snapshot.
        found: u8,
    },
    /// `next_index` is outside the sweep for these sequence lengths.
    Index,
    /// Buffer count or buffer lengths disagree with the sequence lengths.
    Shape,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Fingerprint { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match job {expected:#018x}"
            ),
            ResumeError::Kind { expected, found } => {
                write!(f, "snapshot kernel kind {found} (need {expected})")
            }
            ResumeError::Index => write!(f, "snapshot index out of range for these sequences"),
            ResumeError::Shape => write!(f, "snapshot buffers have the wrong shape"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Why a durable sweep stopped without a score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableStop {
    /// The [`crate::cancel::CancelToken`] fired (explicit cancel or
    /// deadline).
    Cancelled(CancelProgress),
    /// The drain flag fired; a final snapshot was stored before stopping.
    Drained(CancelProgress),
    /// The offered snapshot failed validation; nothing ran.
    InvalidResume(ResumeError),
    /// The sink failed to persist a snapshot (e.g. disk full).
    Sink(String),
    /// Aligner-level configuration error (affine gap with a linear-only
    /// kernel, oversized lattice, …) — from the dispatching entry points,
    /// never from the kernels themselves.
    Config(AlignError),
}

impl std::fmt::Display for DurableStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableStop::Cancelled(p) => write!(
                f,
                "cancelled after {}/{} cell updates",
                p.cells_done, p.cells_total
            ),
            DurableStop::Drained(p) => write!(
                f,
                "drained (snapshot stored) after {}/{} cell updates",
                p.cells_done, p.cells_total
            ),
            DurableStop::InvalidResume(e) => write!(f, "invalid resume snapshot: {e}"),
            DurableStop::Sink(e) => write!(f, "checkpoint sink failed: {e}"),
            DurableStop::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableStop {}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_scoring::GapModel;

    fn seqs() -> (Seq, Seq, Seq) {
        (
            Seq::dna("ACGTAC").unwrap(),
            Seq::dna("ACTAC").unwrap(),
            Seq::dna("AGTAC").unwrap(),
        )
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let (a, b, c) = seqs();
        let s = Scoring::dna_default();
        let fp = job_fingerprint(&a, &b, &c, &s, KernelKind::Planes);
        assert_eq!(fp, job_fingerprint(&a, &b, &c, &s, KernelKind::Planes));
        // Kernel kind, argument order, scoring, and content all matter.
        assert_ne!(fp, job_fingerprint(&a, &b, &c, &s, KernelKind::Slabs));
        assert_ne!(fp, job_fingerprint(&b, &a, &c, &s, KernelKind::Planes));
        assert_ne!(
            fp,
            job_fingerprint(&a, &b, &c, &Scoring::unit(), KernelKind::Planes)
        );
        let affine = s.clone().with_gap(GapModel::affine(-4, -1));
        assert_ne!(fp, job_fingerprint(&a, &b, &c, &affine, KernelKind::Planes));
        let d = Seq::dna("ACGTAG").unwrap();
        assert_ne!(fp, job_fingerprint(&d, &b, &c, &s, KernelKind::Planes));
    }

    #[test]
    fn fingerprint_separates_length_splits() {
        // ("AC","GT") vs ("ACG","T"): the length separator must keep
        // concatenation-equal inputs apart.
        let s = Scoring::dna_default();
        let e = Seq::dna("").unwrap();
        let fp1 = job_fingerprint(
            &Seq::dna("AC").unwrap(),
            &Seq::dna("GT").unwrap(),
            &e,
            &s,
            KernelKind::Slabs,
        );
        let fp2 = job_fingerprint(
            &Seq::dna("ACG").unwrap(),
            &Seq::dna("T").unwrap(),
            &e,
            &s,
            KernelKind::Slabs,
        );
        assert_ne!(fp1, fp2);
    }

    #[test]
    fn kernel_kind_codes_round_trip() {
        for kind in [KernelKind::Slabs, KernelKind::Planes] {
            assert_eq!(KernelKind::from_code(kind.code()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(KernelKind::from_code(0), None);
        assert_eq!(KernelKind::from_code(9), None);
    }

    #[test]
    fn memory_sink_keeps_latest() {
        let sink = MemorySink::new();
        assert!(sink.last().is_none());
        let snap = |i| FrontierSnapshot {
            fingerprint: 7,
            kind: 1,
            next_index: i,
            cells_done: 0,
            buffers: vec![],
        };
        sink.store(&snap(1)).unwrap();
        sink.store(&snap(2)).unwrap();
        assert_eq!(sink.store_count(), 2);
        assert_eq!(sink.last().unwrap().next_index, 2);
    }

    #[test]
    fn pacer_counts_planes() {
        let mut p = Pacer::new(CheckpointPolicy {
            every_planes: 3,
            every: None,
        });
        assert!(!p.due());
        assert!(!p.due());
        assert!(p.due()); // 3rd plane fires...
        assert!(!p.due()); // ...and resets.
        assert!(!p.due());
        assert!(p.due());
    }

    #[test]
    fn pacer_disabled_never_fires_on_count() {
        let mut p = Pacer::new(CheckpointPolicy {
            every_planes: 0,
            every: None,
        });
        for _ in 0..100 {
            assert!(!p.due());
        }
    }

    #[test]
    fn pacer_time_trigger_fires() {
        let mut p = Pacer::new(CheckpointPolicy {
            every_planes: 0,
            every: Some(Duration::ZERO),
        });
        assert!(p.due());
    }

    #[test]
    fn scrub_keeps_valid_snapshots_and_deletes_the_rest() {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("tsa-scrub-{}-{nonce}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = FrontierSnapshot {
            fingerprint: 1,
            kind: 0,
            next_index: 2,
            cells_done: 3,
            buffers: vec![vec![0; 4]],
        };
        std::fs::write(dir.join("good.ckpt"), snap.encode()).unwrap();
        let mut bad = snap.encode();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        std::fs::write(dir.join("bad.ckpt"), &bad).unwrap();
        std::fs::write(dir.join("torn.ckpt.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();

        let scrub = scrub_snapshot_dir(&dir).unwrap();
        assert_eq!(
            scrub,
            SnapshotScrub {
                kept: 1,
                removed: 1
            }
        );
        assert!(dir.join("good.ckpt").exists());
        assert!(!dir.join("bad.ckpt").exists());
        assert!(!dir.join("torn.ckpt.tmp").exists());
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(
            scrub_snapshot_dir(&dir.join("missing")).unwrap(),
            SnapshotScrub::default(),
            "missing directory scrubs empty"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_render() {
        for e in [
            ResumeError::Fingerprint {
                expected: 1,
                found: 2,
            },
            ResumeError::Kind {
                expected: 1,
                found: 2,
            },
            ResumeError::Index,
            ResumeError::Shape,
        ] {
            assert!(!e.to_string().is_empty());
            assert!(!DurableStop::InvalidResume(e).to_string().is_empty());
        }
        assert!(!DurableStop::Cancelled(CancelProgress::default())
            .to_string()
            .is_empty());
        assert!(!DurableStop::Drained(CancelProgress::default())
            .to_string()
            .is_empty());
        assert!(!DurableStop::Sink("disk full".into()).to_string().is_empty());
    }
}
