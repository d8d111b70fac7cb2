//! The worker pool: each worker pops jobs, honors cancellation
//! checkpoints, probes the result cache, and runs the aligner inside a
//! panic-isolation boundary.
//!
//! Fault containment is layered. A panicking kernel is caught by
//! `catch_unwind` and reported as [`JobOutcome::Failed`] — the worker
//! survives. If the worker thread itself dies (a panic outside the catch
//! region), a drop guard still resolves the job's handle with `Failed`
//! so no waiter hangs, and the engine's supervisor respawns the thread.
//!
//! When the engine carries a [`tsa_obs::Tracer`], each job emits a span
//! tree: a `job` root opened at submission, with `queued`,
//! `cache_lookup`, `kernel`, `traceback`, and `respond` children marking
//! the lifecycle stages. Spans record on drop, so the tree completes
//! even when a stage panics or the job is cancelled mid-kernel.

use crate::cache::{result_checksum, CacheKey, CachedResult, ResultCache};
use crate::durability::Durability;
use crate::engine::ClientSlot;
use crate::error::{CancelStage, JobOutcome, JobResult};
use crate::faults;
use crate::governor::Reservation;
use crate::sched::FairReceiver;
use crate::stats::ServiceStats;
use crossbeam::channel::Sender;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsa_core::{
    Algorithm, AlignError, Aligner, Alignment3, CancelProgress, CancelToken, CheckpointConfig,
    DurableStop, FrontierSnapshot, SimdKernel,
};
use tsa_obs::Span;
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// The span tree of one traced job: the root covers the whole lifecycle;
/// `queued` is opened at submission and closed when a worker picks the
/// job up (its duration *is* the queue wait).
#[derive(Debug)]
pub(crate) struct JobTrace {
    pub root: Span,
    pub queued: Option<Span>,
}

/// An accepted unit of work travelling from the queue to a worker.
#[derive(Debug)]
pub(crate) struct Job {
    pub id: u64,
    pub tag: String,
    /// Client lane this job was admitted under (empty = anonymous).
    pub client: String,
    pub a: Seq,
    pub b: Seq,
    pub c: Seq,
    pub scoring: Scoring,
    pub algorithm: Algorithm,
    pub score_only: bool,
    pub cancel: CancelToken,
    pub submitted: Instant,
    /// Taken by the worker before serving; `Some` until then.
    pub responder: Option<Responder>,
    /// The governor's original pick when it downgraded an `Auto` request.
    pub degraded_from: Option<Algorithm>,
    /// Share of the global memory budget, released when the job drops.
    pub reservation: Option<Reservation>,
    /// Present when the engine was configured with a tracer.
    pub trace: Option<JobTrace>,
    /// Present when the engine keeps a journal and this request is
    /// journalable: the job's durability attachment.
    pub durable: Option<DurableJob>,
    /// Share of the client's in-flight quota, released when the job
    /// resolves (or drops on any teardown path).
    pub client_slot: Option<ClientSlot>,
}

/// A job's durability attachment: its journal uid, an optional
/// pre-validated checkpoint snapshot to resume from (recovery only),
/// and the engine's durability handle (journal, checkpoint store,
/// drain flag, pacing policy).
#[derive(Debug)]
pub(crate) struct DurableJob {
    pub uid: String,
    pub resume: Option<FrontierSnapshot>,
    pub handle: Arc<Durability>,
}

impl Job {
    /// Attach a field to the root span, if this job is traced.
    fn annotate(&mut self, key: &'static str, value: impl Into<tsa_obs::FieldValue>) {
        if let Some(t) = self.trace.as_mut() {
            t.root.annotate(key, value);
        }
    }

    /// Open a child stage span under the root, if this job is traced.
    fn stage(&self, name: &'static str) -> Option<Span> {
        self.trace.as_ref().map(|t| t.root.child(name))
    }

    /// Mark a traced job as refused at admission: the `queued` stage is
    /// closed and the root records the rejection reason.
    pub(crate) fn reject(&mut self, reason: &'static str) {
        if let Some(t) = self.trace.as_mut() {
            t.queued.take();
            t.root.annotate("rejected", reason);
        }
    }
}

/// How a finished job reports back: a per-job channel (library callers
/// holding a [`crate::JobHandle`]) or a boxed callback (the NDJSON
/// server, which forwards responses to a shared writer).
pub(crate) enum Responder {
    Channel(Sender<CompletedJob>),
    Callback(Box<dyn FnOnce(CompletedJob) + Send>),
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Responder::Channel(_) => "Responder::Channel",
            Responder::Callback(_) => "Responder::Callback",
        })
    }
}

/// A resolved job: its engine id, the caller's tag, and the outcome.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// Engine-assigned sequential id.
    pub id: u64,
    /// Caller-supplied tag (echoed in protocol responses).
    pub tag: String,
    /// Distributed trace id, echoed in protocol responses so failures
    /// are queryable via the `trace` op; 0 = untraced.
    pub trace_id: u64,
    /// Terminal state.
    pub outcome: JobOutcome,
}

fn rows_to_strings(alignment: &Alignment3) -> [String; 3] {
    let rows = alignment.rows();
    rows.map(|row| {
        row.iter()
            .map(|r| r.map(char::from).unwrap_or('-'))
            .collect()
    })
}

/// Run one worker until the queue disconnects and drains.
pub(crate) fn worker_loop(
    rx: FairReceiver<Job>,
    cache: Arc<ResultCache>,
    stats: Arc<ServiceStats>,
) {
    while let Some(mut job) = rx.pop() {
        let mut guard = JobGuard {
            id: job.id,
            tag: job.tag.clone(),
            trace_id: job.trace.as_ref().map_or(0, |t| t.root.trace_id()),
            responder: job.responder.take(),
            stats: Arc::clone(&stats),
            durable: job
                .durable
                .as_ref()
                .map(|d| (d.uid.clone(), Arc::clone(&d.handle))),
        };
        // An injected `#fault-abort` panics *outside* the kernel isolation
        // boundary: this worker thread dies, the guard resolves the
        // handle, and the supervisor respawns the thread. Dropping `job`
        // during the unwind still closes its spans.
        if faults::wants_abort(&job.tag) {
            panic!("injected worker abort");
        }
        let outcome = serve_one(&mut job, &cache, &stats);
        if let Some(d) = &job.durable {
            resolve_durable(d, &job.tag, &outcome);
        }
        // Return the job's share of the memory budget and its client's
        // in-flight slot before the waiter can observe resolution (on
        // unwind, dropping `job` releases both).
        job.reservation.take();
        job.client_slot.take();
        job.annotate("outcome", outcome.label());
        let respond_span = job.stage("respond");
        guard.resolve(outcome);
        drop(respond_span);
        // Dropping `job` here closes the root span.
    }
}

/// Guarantees every popped job resolves exactly once. If the serve path
/// unwinds past this frame (worker death), `Drop` reports `Failed` to
/// the waiter — a [`crate::JobHandle`] must never hang.
struct JobGuard {
    id: u64,
    tag: String,
    trace_id: u64,
    responder: Option<Responder>,
    stats: Arc<ServiceStats>,
    durable: Option<(String, Arc<Durability>)>,
}

impl JobGuard {
    fn resolve(&mut self, outcome: JobOutcome) {
        if let Some(responder) = self.responder.take() {
            respond(
                responder,
                self.id,
                std::mem::take(&mut self.tag),
                self.trace_id,
                outcome,
            );
        }
    }
}

/// Resolve a durable job in the journal. Completions record their
/// reusable result; a drain-stopped job stays *in-flight* — its `job`
/// record and checkpoint survive so the next start resumes it; every
/// other terminal state is recorded as gone.
fn resolve_durable(d: &DurableJob, tag: &str, outcome: &JobOutcome) {
    // An injected `#fault-disk-slow=N` stalls the journal append the way
    // a saturated or failing disk would, so the chaos harness can compose
    // slow durability with kills and corruption.
    if let Some(delay) = faults::disk_delay_of(tag) {
        std::thread::sleep(delay);
    }
    match outcome {
        JobOutcome::Done(result) => {
            d.handle.record_done(&d.uid, result);
            d.handle.remove_checkpoint(&d.uid);
        }
        JobOutcome::Cancelled { .. } | JobOutcome::DeadlineExceeded { .. }
            if d.handle.drain_requested() => {}
        _ => {
            d.handle.record_gone(&d.uid);
            d.handle.remove_checkpoint(&d.uid);
        }
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        if let Some(responder) = self.responder.take() {
            self.stats.failed.inc();
            // The worker died mid-job: resolve it as gone so a restart
            // does not re-run (and re-crash on) the same poisoned job.
            if let Some((uid, d)) = self.durable.take() {
                d.record_gone(&uid);
                d.remove_checkpoint(&uid);
            }
            respond(
                responder,
                self.id,
                std::mem::take(&mut self.tag),
                self.trace_id,
                JobOutcome::Failed("worker thread died mid-job".into()),
            );
        }
    }
}

fn respond(responder: Responder, id: u64, tag: String, trace_id: u64, outcome: JobOutcome) {
    let done = CompletedJob {
        id,
        tag,
        trace_id,
        outcome,
    };
    match responder {
        // A dropped handle means nobody is waiting; that is fine.
        Responder::Channel(tx) => drop(tx.send(done)),
        Responder::Callback(cb) => cb(done),
    }
}

/// Best-effort text from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// Sleep in short slices so an injected delay still honors cancellation
/// with millisecond-scale latency.
fn cancellable_sleep(total: Duration, cancel: &CancelToken) -> Result<(), AlignError> {
    let until = Instant::now() + total;
    loop {
        if cancel.should_stop() {
            return Err(AlignError::Cancelled(CancelProgress::default()));
        }
        let now = Instant::now();
        if now >= until {
            return Ok(());
        }
        std::thread::sleep((until - now).min(Duration::from_millis(2)));
    }
}

/// Why the kernel closure stopped: an aligner error (plain path) or a
/// durable stop (checkpointing path).
enum KernelErr {
    Align(AlignError),
    Stop(DurableStop),
}

fn serve_one(job: &mut Job, cache: &ResultCache, stats: &ServiceStats) -> JobOutcome {
    let wait = job.submitted.elapsed();
    // Close the `queued` stage: a worker now owns the job.
    if let Some(t) = job.trace.as_mut() {
        t.queued.take();
    }
    stats.record_queue_wait(wait);

    // Checkpoint 1: the job may have expired or been cancelled while
    // queued — no work has been done yet.
    if job.cancel.is_cancelled() {
        stats.cancelled.inc();
        job.annotate("cancelled_at", "queued");
        return JobOutcome::Cancelled { progress: None };
    }
    if job.cancel.deadline_expired() {
        stats.cancelled.inc();
        job.annotate("deadline_at", "queued");
        return JobOutcome::DeadlineExceeded {
            stage: CancelStage::Queued,
            progress: None,
        };
    }
    // A draining engine parks queued durable jobs instead of running
    // them: their `job` record stays in the journal and the next start
    // picks them up.
    if let Some(d) = &job.durable {
        if d.handle.drain_requested() {
            stats.cancelled.inc();
            job.annotate("drained", true);
            return JobOutcome::Cancelled { progress: None };
        }
    }

    let served = Instant::now();
    let aligner = Aligner::auto(job.scoring.clone()).algorithm(job.algorithm);
    let resolved = aligner.resolve(job.a.len(), job.b.len(), job.c.len());
    let key = CacheKey::new(
        &job.a,
        &job.b,
        &job.c,
        &job.scoring,
        resolved,
        job.score_only,
    );

    let mut lookup_span = job.stage("cache_lookup");
    let hit = cache.get(&key);
    // Integrity gate: a hit whose recomputed checksum disagrees with the
    // stored one is corrupt. Quarantine it (remove, count, annotate) and
    // fall through to a fresh kernel run — a wrong answer is strictly
    // worse than a recompute.
    let hit = match hit {
        Some(h) if !h.verify() => {
            cache.remove(&key);
            stats.integrity_quarantined.inc();
            if let Some(s) = lookup_span.as_mut() {
                s.annotate("quarantined", true);
            }
            job.annotate("quarantined", true);
            None
        }
        other => other,
    };
    if let Some(s) = lookup_span.as_mut() {
        s.annotate("hit", hit.is_some());
    }
    drop(lookup_span);
    if let Some(hit) = hit {
        stats.cache_hits.inc();
        if hit.recovered {
            stats.cache_recovered_hits.inc();
            job.annotate("recovered", true);
        }
        stats.completed.inc();
        stats.record_latency(job.submitted.elapsed());
        job.annotate("cached", true);
        return JobOutcome::Done(JobResult {
            score: hit.score,
            rows: hit.rows,
            algorithm: hit.algorithm,
            degraded_from: job.degraded_from,
            cached: true,
            recovered: hit.recovered,
            wait,
            service: served.elapsed(),
        });
    }
    stats.cache_misses.inc();

    // The isolation boundary: anything that unwinds out of the kernel
    // (including injected faults) is converted to a structured failure
    // instead of killing this worker.
    let tag = job.tag.clone();
    let cancel = job.cancel.clone();
    // Durable score-only jobs with a checkpointable kernel stream
    // frontier snapshots to their sink and poll the drain flag; all
    // other shapes run the plain cancellable path.
    let durable_run = job.durable.as_ref().and_then(|d| {
        (job.score_only
            && aligner
                .durable_kind(job.a.len(), job.b.len(), job.c.len())
                .is_some())
        .then(|| (d.handle.sink_for(&d.uid), Arc::clone(&d.handle)))
    });
    let resume = job.durable.as_mut().and_then(|d| d.resume.take());
    let kernel = || -> Result<(i32, Option<Alignment3>), KernelErr> {
        if faults::wants_panic(&tag) {
            panic!("injected kernel panic");
        }
        if faults::flap_now(&tag) {
            panic!("injected flap failure");
        }
        if let Some(delay) = faults::delay_of(&tag) {
            cancellable_sleep(delay, &cancel).map_err(KernelErr::Align)?;
        }
        if let Some((sink, handle)) = &durable_run {
            let ckpt = CheckpointConfig {
                sink,
                policy: handle.policy,
                drain: Some(&handle.drain),
            };
            let run = |snap: Option<&FrontierSnapshot>| {
                aligner.score3_durable(&job.a, &job.b, &job.c, &cancel, &ckpt, snap)
            };
            let result = match run(resume.as_ref()) {
                // Startup pre-validation can miss shape drift (e.g. a
                // governor downgrade changed the kernel since the
                // snapshot): re-run cleanly rather than failing the job.
                Err(DurableStop::InvalidResume(_)) => run(None),
                other => other,
            };
            result.map(|score| (score, None)).map_err(KernelErr::Stop)
        } else if job.score_only {
            aligner
                .score3_cancellable(&job.a, &job.b, &job.c, &cancel)
                .map(|score| (score, None))
                .map_err(KernelErr::Align)
        } else {
            aligner
                .align3_cancellable(&job.a, &job.b, &job.c, &cancel)
                .map(|aln| (aln.score, Some(aln)))
                .map_err(KernelErr::Align)
        }
    };
    // The row kernel this job actually runs: served jobs always run
    // `Auto`, resolved against this CPU. Only a sweep — a score-only
    // job's slab, plane or tile order, or a Hirschberg alignment's face
    // sweeps — has SIMD rows; every other path runs scalar cells.
    let swept = aligner
        .sweep_order(job.a.len(), job.b.len(), job.c.len(), job.score_only)
        .is_some();
    let simd = match swept {
        true => SimdKernel::Auto.resolve(),
        false => SimdKernel::Scalar.resolve(),
    };
    if !simd.is_scalar() {
        stats.simd.inc();
    }
    let mut kernel_span = job.stage("kernel");
    if let Some(s) = kernel_span.as_mut() {
        s.annotate("algorithm", resolved.name());
        s.annotate("simd_kernel", simd.name());
    }
    let kernel_started = Instant::now();
    let computed = std::panic::catch_unwind(AssertUnwindSafe(kernel));
    stats.record_kernel(kernel_started.elapsed());
    let computed = match computed {
        Ok(result) => result,
        Err(payload) => {
            stats.panics.inc();
            stats.failed.inc();
            let message = panic_message(payload.as_ref()).to_string();
            if let Some(s) = kernel_span.as_mut() {
                s.annotate("panic", message.as_str());
            }
            drop(kernel_span);
            job.annotate("panic", message.as_str());
            return JobOutcome::Failed(format!("kernel panicked: {message}"));
        }
    };
    drop(kernel_span);

    let (score, alignment) = match computed {
        Ok(r) => r,
        // The cancellation token stopped the DP loop between planes.
        Err(KernelErr::Align(AlignError::Cancelled(progress)))
        | Err(KernelErr::Stop(DurableStop::Cancelled(progress))) => {
            stats.cancelled.inc();
            return if job.cancel.is_cancelled() {
                job.annotate("cancelled_at", "kernel");
                JobOutcome::Cancelled {
                    progress: Some(progress),
                }
            } else {
                job.annotate("deadline_at", "kernel");
                JobOutcome::DeadlineExceeded {
                    stage: CancelStage::Kernel,
                    progress: Some(progress),
                }
            };
        }
        // The drain flag stopped a durable kernel after it persisted a
        // final snapshot: the job stays in-flight and resumes next start.
        Err(KernelErr::Stop(DurableStop::Drained(progress))) => {
            stats.cancelled.inc();
            job.annotate("drained", true);
            return JobOutcome::Cancelled {
                progress: Some(progress),
            };
        }
        Err(KernelErr::Stop(DurableStop::Sink(msg))) => {
            stats.failed.inc();
            job.annotate("error", msg.as_str());
            return JobOutcome::Failed(format!("checkpoint sink failed: {msg}"));
        }
        Err(KernelErr::Align(e)) => {
            stats.failed.inc();
            job.annotate("error", e.to_string());
            return JobOutcome::Failed(e.to_string());
        }
        // Config errors, or an InvalidResume that survived the clean
        // re-run fallback (cannot happen in practice).
        Err(KernelErr::Stop(e)) => {
            stats.failed.inc();
            job.annotate("error", e.to_string());
            return JobOutcome::Failed(e.to_string());
        }
    };

    // Materialize the traceback into gapped rows and cache the result —
    // done regardless of the deadline so repeat requests are cheap even
    // when this one was too slow.
    let traceback_span = job.stage("traceback");
    let rows = alignment.as_ref().map(rows_to_strings);
    cache.put(
        key,
        CachedResult {
            score,
            rows: rows.clone(),
            algorithm: resolved,
            recovered: false,
            checksum: result_checksum(score, rows.as_ref(), resolved),
        },
    );
    drop(traceback_span);

    // Checkpoint 2: the deadline may have fired after the kernel's last
    // cancellation check.
    if job.cancel.is_cancelled() {
        stats.cancelled.inc();
        job.annotate("cancelled_at", "computed");
        return JobOutcome::Cancelled { progress: None };
    }
    if job.cancel.deadline_expired() {
        stats.cancelled.inc();
        job.annotate("deadline_at", "computed");
        return JobOutcome::DeadlineExceeded {
            stage: CancelStage::Computed,
            progress: None,
        };
    }

    stats.completed.inc();
    stats.record_latency(job.submitted.elapsed());
    job.annotate("resolved", resolved.name());
    JobOutcome::Done(JobResult {
        score,
        rows,
        algorithm: resolved,
        degraded_from: job.degraded_from,
        cached: false,
        recovered: false,
        wait,
        service: served.elapsed(),
    })
}
