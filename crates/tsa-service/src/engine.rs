//! The service engine: configuration, submission, and lifecycle.

use crate::cache::{result_checksum, CacheKey, CachedResult, ResultCache};
use crate::durability::{self, Durability, Replay};
use crate::error::{JobOutcome, SubmitError};
use crate::faults;
use crate::governor::{self, MemoryGate, Reservation};
use crate::sched::{fair_queue, FairQueue, FairReceiver, PushError};
use crate::stats::{LaneSnapshot, ServiceStats, StatsSnapshot};
use crate::worker::{worker_loop, CompletedJob, DurableJob, Job, JobTrace, Responder};
use crossbeam::channel::{self, Receiver};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsa_core::{
    job_fingerprint, Algorithm, Aligner, CancelToken, CheckpointPolicy, FrontierSnapshot, Plan,
};
use tsa_obs::{FlightRecorder, TraceContext, Tracer};
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Engine sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; 0 means one per available hardware thread.
    pub workers: usize,
    /// Bounded queue capacity — jobs beyond this are rejected with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Result-cache entries across all shards; 0 disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Per-job cap on estimated DP cell updates (a time bound in
    /// disguise); `None` disables the check.
    pub max_cells: Option<u64>,
    /// Cap on estimated peak kernel bytes — applied per job *and*, summed
    /// over in-flight reservations, globally; `None` disables both.
    pub memory_budget: Option<u64>,
    /// When set, every job emits a span tree (`job` root with `queued`,
    /// `cache_lookup`, `kernel`, `traceback`, `respond` stage children)
    /// to this tracer's sink; refused submissions emit an annotated
    /// zero-stage `job` span. `None` disables tracing entirely.
    pub tracer: Option<Tracer>,
    /// When set (alongside `tracer`, whose sink must feed it), every job
    /// runs under a distributed trace: propagated contexts
    /// ([`AlignRequest::trace`]) are honored, purely local submissions
    /// mint a fresh trace id, and completed trees land in this flight
    /// recorder, queryable via the protocol's `trace` op. `None` (the
    /// default) changes nothing.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// When set, the engine keeps a crash-safe job journal and per-job
    /// checkpoint snapshots under this directory and replays them on
    /// startup (see [`Engine::drain`] and the `durability` module docs).
    pub state_dir: Option<PathBuf>,
    /// Checkpoint cadence for durable kernels: snapshot the frontier
    /// every N planes/slabs (clamped to ≥ 1). Only meaningful with
    /// `state_dir`.
    pub checkpoint_every_planes: usize,
    /// Optional time-based checkpoint cadence (milliseconds); fires in
    /// addition to the plane cadence. Only meaningful with `state_dir`.
    pub checkpoint_every_millis: Option<u64>,
    /// Per-client token-bucket rate limit, jobs per second (burst = one
    /// second's worth, at least 1). Applies only to *named* clients
    /// ([`AlignRequest::client`]); anonymous traffic is never limited.
    /// `None` (the default) disables rate limiting.
    pub client_rate: Option<f64>,
    /// Per-client cap on jobs admitted but not yet resolved. Like
    /// `client_rate`, it governs only named clients; `None` (the
    /// default) disables the quota.
    pub max_in_flight_per_client: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 1024,
            default_deadline: None,
            max_cells: None,
            memory_budget: None,
            tracer: None,
            recorder: None,
            state_dir: None,
            checkpoint_every_planes: 32,
            checkpoint_every_millis: None,
            client_rate: None,
            max_in_flight_per_client: None,
        }
    }
}

/// Retry hint reported when the earliest viable resubmission time is not
/// computable (queue or quota pressure, as opposed to a token-bucket
/// refill, whose hint is exact).
pub(crate) const RETRY_HINT_MS: u64 = 100;

/// Per-client admission control: a token bucket (rate limiting), an
/// in-flight quota, and per-lane tallies for the `stats` lanes section.
/// Both limits govern *named* clients only — anonymous submissions (an
/// empty [`AlignRequest::client`]) bypass this entirely, so single-tenant
/// deployments pay nothing and observe no behavior change.
#[derive(Debug)]
struct ClientGovernor {
    /// Tokens per second; `None` disables rate limiting.
    rate: Option<f64>,
    /// In-flight cap per client; `None` disables the quota.
    max_in_flight: Option<usize>,
    lanes: Mutex<HashMap<String, ClientLane>>,
}

#[derive(Debug, Default)]
struct ClientLane {
    tokens: f64,
    /// Last refill instant; `None` until the first sighting (which
    /// starts the bucket full).
    refilled: Option<Instant>,
    in_flight: usize,
    submitted: u64,
    rejected: u64,
}

impl ClientGovernor {
    /// Admit one submission from `client`, consuming a token and (when a
    /// quota is configured) an in-flight slot. The returned slot must be
    /// dropped when the job resolves.
    fn admit(self: &Arc<Self>, client: &str) -> Result<Option<ClientSlot>, SubmitError> {
        if client.is_empty() {
            return Ok(None);
        }
        let mut lanes = self.lanes.lock();
        let lane = lanes.entry(client.to_owned()).or_default();
        lane.submitted += 1;
        if let Some(rate) = self.rate {
            let burst = rate.max(1.0);
            let now = Instant::now();
            match lane.refilled {
                None => lane.tokens = burst,
                Some(last) => {
                    lane.tokens =
                        (lane.tokens + now.duration_since(last).as_secs_f64() * rate).min(burst);
                }
            }
            lane.refilled = Some(now);
            if lane.tokens < 1.0 {
                lane.rejected += 1;
                let wait_s = (1.0 - lane.tokens) / rate;
                return Err(SubmitError::Overloaded {
                    capacity: burst as usize,
                    retry_after_ms: ((wait_s * 1000.0).ceil() as u64).max(1),
                    scope: "client-rate",
                });
            }
            lane.tokens -= 1.0;
        }
        match self.max_in_flight {
            None => Ok(None),
            Some(quota) if lane.in_flight >= quota => {
                lane.rejected += 1;
                Err(SubmitError::Overloaded {
                    capacity: quota,
                    retry_after_ms: RETRY_HINT_MS,
                    scope: "in-flight",
                })
            }
            Some(_) => {
                lane.in_flight += 1;
                Ok(Some(ClientSlot {
                    governor: Arc::clone(self),
                    client: client.to_owned(),
                }))
            }
        }
    }
}

/// RAII share of a client's in-flight quota, held by the job and
/// released when it resolves (or is dropped on any teardown path).
#[derive(Debug)]
pub(crate) struct ClientSlot {
    governor: Arc<ClientGovernor>,
    client: String,
}

impl Drop for ClientSlot {
    fn drop(&mut self) {
        let mut lanes = self.governor.lanes.lock();
        if let Some(lane) = lanes.get_mut(&self.client) {
            lane.in_flight = lane.in_flight.saturating_sub(1);
        }
    }
}

/// One alignment job to submit.
#[derive(Debug, Clone)]
pub struct AlignRequest {
    /// Caller-chosen tag echoed back with the outcome.
    pub tag: String,
    /// The three sequences.
    pub seqs: [Seq; 3],
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Requested algorithm (usually `Auto`).
    pub algorithm: Algorithm,
    /// Skip traceback and return only the score.
    pub score_only: bool,
    /// Per-job deadline, overriding the engine default.
    pub deadline: Option<Duration>,
    /// Client lane for multi-tenant fairness: the scheduler round-robins
    /// across lanes (FIFO within one), and the per-client rate limit and
    /// in-flight quota key on this. Empty (the default) is the shared
    /// anonymous lane, which is never limited.
    pub client: String,
    /// Distributed trace context propagated by an upstream coordinator:
    /// the job's `job` span joins this trace, parented under the
    /// sender's span. `None` (the default) leaves the span tree local
    /// (or mints a fresh trace when a flight recorder is configured).
    pub trace: Option<TraceContext>,
}

impl AlignRequest {
    /// The aligner this request runs under: its scoring and algorithm.
    pub(crate) fn aligner(&self) -> Aligner {
        Aligner::auto(self.scoring.clone()).algorithm(self.algorithm)
    }

    /// What this request runs: the [`Aligner::plan`] of its lengths.
    pub(crate) fn plan(&self) -> Plan {
        let [a, b, c] = &self.seqs;
        self.aligner()
            .plan(a.len(), b.len(), c.len(), self.score_only)
    }

    /// A request with DNA-default scoring, automatic algorithm selection,
    /// full traceback, and no deadline.
    pub fn new(tag: impl Into<String>, a: Seq, b: Seq, c: Seq) -> Self {
        AlignRequest {
            tag: tag.into(),
            seqs: [a, b, c],
            scoring: Scoring::dna_default(),
            algorithm: Algorithm::Auto,
            score_only: false,
            deadline: None,
            client: String::new(),
            trace: None,
        }
    }

    /// Set the scoring scheme.
    pub fn scoring(mut self, scoring: Scoring) -> Self {
        self.scoring = scoring;
        self
    }

    /// Pin the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Request only the score (cheaper: no traceback).
    pub fn score_only(mut self, yes: bool) -> Self {
        self.score_only = yes;
        self
    }

    /// Set a per-job deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attribute this request to a client lane (see
    /// [`AlignRequest::client`] the field).
    pub fn client(mut self, client: impl Into<String>) -> Self {
        self.client = client.into();
        self
    }
}

/// Waits for one accepted job. Dropping the handle detaches the job (it
/// still runs and still counts in the stats).
#[derive(Debug)]
pub struct JobHandle {
    /// Engine-assigned id (unique per engine instance, monotonic).
    pub id: u64,
    cancel: CancelToken,
    rx: Receiver<CompletedJob>,
}

impl JobHandle {
    /// Block until the job resolves. Returns [`JobOutcome::Cancelled`] if
    /// the engine was torn down before the job could run.
    pub fn wait(self) -> JobOutcome {
        match self.rx.recv() {
            Ok(done) => done.outcome,
            // The engine dropped the job without responding (only possible
            // on abnormal teardown); surface it as a cancellation.
            Err(_) => JobOutcome::Cancelled { progress: None },
        }
    }

    /// Like [`JobHandle::wait`], but returns the full completion record
    /// — tag, distributed trace id, outcome — instead of just the
    /// outcome. `None` only on abnormal engine teardown.
    pub fn wait_completed(self) -> Option<CompletedJob> {
        self.rx.recv().ok()
    }

    /// Request cooperative cancellation of this job.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

/// A multi-threaded batch alignment service.
///
/// ```
/// use tsa_service::{AlignRequest, Engine, ServiceConfig};
/// use tsa_seq::Seq;
///
/// let engine = Engine::start(ServiceConfig::default());
/// let a = Seq::dna("GATTACA").unwrap();
/// let b = Seq::dna("GATACA").unwrap();
/// let c = Seq::dna("GTTACA").unwrap();
/// let handle = engine.submit(AlignRequest::new("demo", a, b, c)).unwrap();
/// let outcome = handle.wait();
/// assert!(outcome.result().is_some());
/// let stats = engine.shutdown();
/// assert_eq!(stats.completed, 1);
/// ```
#[derive(Debug)]
pub struct Engine {
    /// The single producer slot. `None` after shutdown; taking it drops
    /// the last sender, which disconnects the channel and drains workers.
    producer: Mutex<Option<FairQueue<Job>>>,
    /// Receiver clone kept only for depth observation (never popped).
    observer: FairReceiver<Job>,
    /// Per-client rate limiting, in-flight quotas, and lane tallies.
    clients: Arc<ClientGovernor>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    /// Cleared at the start of shutdown; stops the supervisor respawning.
    running: Arc<AtomicBool>,
    /// Present when `memory_budget` is configured.
    gate: Option<Arc<MemoryGate>>,
    stats: Arc<ServiceStats>,
    cache: Arc<ResultCache>,
    /// Present when `state_dir` is configured and usable.
    durability: Option<Arc<Durability>>,
    next_id: AtomicU64,
    config: ServiceConfig,
    /// When this engine was started; reported as `uptime_ms` in the
    /// protocol's `server` stats section.
    started: Instant,
}

impl Engine {
    /// Spawn the worker pool (plus its supervisor) and return a running
    /// engine.
    pub fn start(config: ServiceConfig) -> Engine {
        let opened = config.state_dir.as_ref().and_then(|dir| {
            let policy = CheckpointPolicy {
                every_planes: config.checkpoint_every_planes.max(1),
                every: config.checkpoint_every_millis.map(Duration::from_millis),
            };
            match Durability::open(dir, policy, config.cache_capacity.max(64)) {
                Ok((d, replay)) => Some((Arc::new(d), replay)),
                Err(e) => {
                    eprintln!(
                        "tsa-service: state dir {} unusable, durability disabled: {e}",
                        dir.display()
                    );
                    None
                }
            }
        });
        let (durability, replay) = match opened {
            Some((d, replay)) => (Some(d), Some(replay)),
            None => (None, None),
        };
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let (queue, rx) = fair_queue::<Job>(config.queue_capacity);
        let stats = Arc::new(ServiceStats::default());
        let shards = workers.next_power_of_two().min(16);
        let cache = Arc::new(ResultCache::new(config.cache_capacity, shards));
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let cache = Arc::clone(&cache);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("tsa-worker-{i}"))
                    .spawn(move || worker_loop(rx, cache, stats))
                    .expect("spawn worker thread")
            })
            .collect();
        let workers = Arc::new(Mutex::new(handles));
        let running = Arc::new(AtomicBool::new(true));
        let supervisor = {
            let workers = Arc::clone(&workers);
            let running = Arc::clone(&running);
            let rx = rx.clone();
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("tsa-supervisor".into())
                .spawn(move || supervise(&workers, &running, rx, cache, stats))
                .expect("spawn supervisor thread")
        };
        let clients = Arc::new(ClientGovernor {
            rate: config.client_rate.filter(|&r| r > 0.0),
            max_in_flight: config.max_in_flight_per_client.filter(|&q| q > 0),
            lanes: Mutex::new(HashMap::new()),
        });
        let engine = Engine {
            producer: Mutex::new(Some(queue)),
            observer: rx,
            clients,
            workers,
            supervisor: Mutex::new(Some(supervisor)),
            running,
            gate: config.memory_budget.map(MemoryGate::new),
            stats,
            cache,
            durability,
            next_id: AtomicU64::new(1),
            config,
            started: Instant::now(),
        };
        if let Some(replay) = replay {
            engine.recover(replay);
        }
        engine
    }

    /// Replay the journal: preload completed jobs into the cache
    /// (`recovered`), resubmit in-flight jobs — resuming from their
    /// checkpoint snapshot when it decodes and its fingerprint matches
    /// (`resumed`), re-running cleanly otherwise (`restarted`).
    fn recover(&self, replay: Replay) {
        let d = Arc::clone(
            self.durability
                .as_ref()
                .expect("recover requires durability"),
        );
        let mut recovered = 0u64;
        for done in replay.completed {
            let req = &done.req;
            let resolved = req.plan().algorithm;
            let key = CacheKey::new(
                &req.seqs[0],
                &req.seqs[1],
                &req.seqs[2],
                &req.scoring,
                resolved,
                req.score_only,
            );
            // The record's journal checksum was verified during replay;
            // re-derive the in-memory checksum so cache-hit verification
            // guards the entry from here on.
            let checksum = result_checksum(done.score, done.rows.as_ref(), done.algorithm);
            self.cache.put(
                key,
                CachedResult {
                    score: done.score,
                    rows: done.rows,
                    algorithm: done.algorithm,
                    recovered: true,
                    checksum,
                },
            );
            recovered += 1;
        }
        self.stats.recovered.add(recovered);
        // Journal records refused by the replay checksum check: counted
        // here so `integrity_quarantined` spans both quarantine sites
        // (replay preload and live cache hits).
        self.stats.integrity_quarantined.add(replay.quarantined);
        let (mut resumed, mut restarted) = (0u64, 0u64);
        for job in replay.inflight {
            let req = job.req;
            // The snapshot is usable only if the job's plan checkpoints,
            // it decodes (checksummed), was produced by the kernel kind the
            // plan names, and fingerprints the same sequences and scoring.
            let resume = req.plan().checkpoint.and_then(|kind| {
                d.load_snapshot(&job.uid).filter(|snap| {
                    snap.kind == kind.code()
                        && snap.fingerprint
                            == job_fingerprint(
                                &req.seqs[0],
                                &req.seqs[1],
                                &req.seqs[2],
                                &req.scoring,
                                kind,
                            )
                })
            });
            if resume.is_some() {
                resumed += 1;
            } else {
                restarted += 1;
                d.remove_checkpoint(&job.uid);
            }
            self.resubmit_recovered(req, job.uid, resume);
        }
        self.stats.resumed.add(resumed);
        self.stats.restarted.add(restarted);
        if let Some(tracer) = &self.config.tracer {
            tracer
                .span("recovery")
                .with("recovered", recovered)
                .with("resumed", resumed)
                .with("restarted", restarted)
                .with("quarantined", replay.quarantined)
                .with("scrubbed_checkpoints", replay.scrubbed)
                .end();
        }
    }

    /// Resubmit one journal-replayed in-flight job, detached. Its `job`
    /// record is already in the (compacted) journal, so admission does
    /// not append another; any failure to re-admit resolves it as gone.
    fn resubmit_recovered(
        &self,
        mut req: AlignRequest,
        uid: String,
        resume: Option<FrontierSnapshot>,
    ) {
        let d = Arc::clone(self.durability.as_ref().expect("durability"));
        let drop_job = |uid: &str| {
            d.record_gone(uid);
            d.remove_checkpoint(uid);
        };
        let (degraded_from, reservation) = match self.govern(&mut req, true) {
            Ok(parts) => parts,
            Err(e) => {
                self.trace_rejection(&req, &e);
                drop_job(&uid);
                return;
            }
        };
        let (_id, _cancel, mut job) = self.make_job(
            req,
            Responder::Callback(Box::new(|_| {})),
            degraded_from,
            reservation,
        );
        job.durable = Some(DurableJob {
            uid: uid.clone(),
            resume,
            handle: Arc::clone(&d),
        });
        if self.admit(job, true).is_err() {
            drop_job(&uid);
        }
    }

    /// Admission-time resource governor: read the job's [`tsa_core::Plan`]
    /// (the footprint of its *resolved* algorithm), enforce the
    /// configured limits (walking an `Auto` request down the degradation
    /// ladder instead of rejecting), and take the job's share of the
    /// global memory budget.
    fn govern(
        &self,
        req: &mut AlignRequest,
        blocking: bool,
    ) -> Result<(Option<Algorithm>, Option<Reservation>), SubmitError> {
        if self.config.max_cells.is_none() && self.config.memory_budget.is_none() {
            return Ok((None, None));
        }
        let n = [req.seqs[0].len(), req.seqs[1].len(), req.seqs[2].len()];
        let rungs = governor::ladder(req.aligner(), n, req.score_only);
        // Pinned algorithms have one rung: the resolved plan.
        let rungs = match req.algorithm {
            Algorithm::Auto => &rungs[..],
            _ => &rungs[..1],
        };
        let resolved = rungs[0].algorithm;
        let inflate = faults::inflate_factor(&req.tag);
        let mut admitted = None;
        let mut last_refusal = None;
        for plan in rungs {
            let peak_bytes = plan.peak_bytes.saturating_mul(inflate);
            match governor::check(
                plan.cells,
                peak_bytes,
                self.config.max_cells,
                self.config.memory_budget,
            ) {
                Ok(()) => {
                    admitted = Some((plan.algorithm, peak_bytes));
                    break;
                }
                Err(e) => last_refusal = Some(e),
            }
        }
        let Some((chosen, peak_bytes)) = admitted else {
            return Err(self.refuse(last_refusal.expect("ladder is non-empty")));
        };
        let reservation = match &self.gate {
            Some(gate) if blocking => Some(gate.reserve_blocking(peak_bytes)),
            Some(gate) => match gate.try_reserve(peak_bytes) {
                Some(r) => Some(r),
                // Fits the budget alone, but not alongside the current
                // in-flight jobs — non-blocking submitters get an error.
                None => {
                    return Err(self.refuse(SubmitError::ResourceExhausted {
                        required: peak_bytes,
                        budget: self.config.memory_budget.unwrap_or(0),
                        limit: "memory-budget",
                    }))
                }
            },
            None => None,
        };
        let degraded_from = if chosen == resolved {
            None
        } else {
            req.algorithm = chosen;
            self.stats.downgraded.inc();
            Some(resolved)
        };
        Ok((degraded_from, reservation))
    }

    /// Count a governor refusal in the submission tallies.
    fn refuse(&self, e: SubmitError) -> SubmitError {
        self.stats.submitted.inc();
        self.stats.rejected.inc();
        e
    }

    /// A refused submission still leaves a trace: one `job` span with the
    /// rejection reason and no stage children. Carries the request's
    /// distributed context (or a freshly minted one when the flight
    /// recorder is on) so sheds show up in stitched trees too.
    fn trace_rejection(&self, req: &AlignRequest, err: &SubmitError) {
        if let Some(tracer) = &self.config.tracer {
            let span = match self.trace_context(req, tracer) {
                Some(ctx) => tracer.span_in("job", ctx),
                None => tracer.span("job"),
            };
            span.with("tag", req.tag.as_str())
                .with("rejected", err.to_string())
                .end();
        }
    }

    /// The distributed context a job's `job` span starts under: the
    /// propagated context when the request carries one; a freshly minted
    /// trace when the flight recorder is on (so purely local traffic is
    /// recorded too); `None` otherwise (plain local span, byte-identical
    /// to the pre-recorder behavior).
    fn trace_context(&self, req: &AlignRequest, tracer: &Tracer) -> Option<TraceContext> {
        req.trace.or_else(|| {
            self.config.recorder.as_ref().map(|_| TraceContext {
                trace_id: tracer.mint_trace_id(),
                parent_span: 0,
            })
        })
    }

    fn make_job(
        &self,
        req: AlignRequest,
        responder: Responder,
        degraded_from: Option<Algorithm>,
        reservation: Option<Reservation>,
    ) -> (u64, CancelToken, Job) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = req
            .deadline
            .or(self.config.default_deadline)
            .map(|d| Instant::now() + d);
        let cancel = CancelToken::new(deadline);
        let trace = self.config.tracer.as_ref().map(|tracer| {
            let root = match self.trace_context(&req, tracer) {
                Some(ctx) => tracer.span_in("job", ctx),
                None => tracer.span("job"),
            };
            let mut root = root
                .with("job_id", id)
                .with("tag", req.tag.as_str())
                .with("algorithm", req.algorithm.name());
            if let Some(from) = degraded_from {
                root.annotate("degraded_from", from.name());
            }
            let queued = root.child("queued");
            JobTrace {
                root,
                queued: Some(queued),
            }
        });
        let [a, b, c] = req.seqs;
        let job = Job {
            id,
            tag: req.tag,
            client: req.client,
            a,
            b,
            c,
            scoring: req.scoring,
            algorithm: req.algorithm,
            score_only: req.score_only,
            cancel: cancel.clone(),
            submitted: Instant::now(),
            responder: Some(responder),
            degraded_from,
            reservation,
            trace,
            durable: None,
            client_slot: None,
        };
        (id, cancel, job)
    }

    /// Journal a fresh admission when durability is on and the request
    /// can round-trip (preset scoring); returns the job's attachment.
    fn journal_admission(&self, req: &AlignRequest) -> Option<DurableJob> {
        let d = self.durability.as_ref()?;
        if !durability::journalable(req) {
            return None;
        }
        let uid = durability::job_uid(req);
        d.record_job(&uid, req);
        Some(DurableJob {
            uid,
            resume: None,
            handle: Arc::clone(d),
        })
    }

    fn admit(&self, mut job: Job, blocking: bool) -> Result<(), SubmitError> {
        self.stats.submitted.inc();
        // A draining engine refuses admission even before the producer
        // slot is taken, so queued work stops growing the moment the
        // drain is requested.
        if self
            .durability
            .as_ref()
            .is_some_and(|d| d.drain_requested())
        {
            self.stats.rejected.inc();
            job.reject("shutting_down");
            return Err(SubmitError::ShuttingDown);
        }
        // Clone the producer out of the slot so a blocking push does not
        // hold the lock (shutdown must stay callable concurrently).
        let Some(queue) = self.producer.lock().clone() else {
            self.stats.rejected.inc();
            job.reject("shutting_down");
            return Err(SubmitError::ShuttingDown);
        };
        let lane = job.client.clone();
        let pushed = if blocking {
            queue.push_blocking(&lane, job)
        } else {
            queue.try_push(&lane, job)
        };
        match pushed {
            Ok(()) => Ok(()),
            Err(PushError::Full(mut job)) => {
                self.stats.rejected.inc();
                job.reject("overloaded");
                Err(SubmitError::Overloaded {
                    capacity: queue.capacity(),
                    retry_after_ms: RETRY_HINT_MS,
                    scope: "queue",
                })
            }
            Err(PushError::Closed(mut job)) => {
                self.stats.rejected.inc();
                job.reject("shutting_down");
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Submit with backpressure: a full queue rejects immediately with
    /// [`SubmitError::Overloaded`].
    pub fn submit(&self, req: AlignRequest) -> Result<JobHandle, SubmitError> {
        self.submit_inner(req, false)
    }

    /// Submit, waiting for queue space instead of rejecting. For batch
    /// drivers that want throttling rather than errors.
    pub fn submit_blocking(&self, req: AlignRequest) -> Result<JobHandle, SubmitError> {
        self.submit_inner(req, true)
    }

    /// Per-client admission: the token-bucket rate limit and in-flight
    /// quota for named clients, tallied like any other refusal.
    fn admit_client(&self, req: &AlignRequest) -> Result<Option<ClientSlot>, SubmitError> {
        self.clients.admit(&req.client).map_err(|e| {
            self.stats.submitted.inc();
            self.stats.rejected.inc();
            self.stats.shed.inc();
            self.trace_rejection(req, &e);
            e
        })
    }

    fn submit_inner(
        &self,
        mut req: AlignRequest,
        blocking: bool,
    ) -> Result<JobHandle, SubmitError> {
        let slot = self.admit_client(&req)?;
        let (degraded_from, reservation) = self
            .govern(&mut req, blocking)
            // `map_err`, not `inspect_err`: MSRV 1.75 predates the latter.
            .map_err(|e| {
                self.trace_rejection(&req, &e);
                e
            })?;
        let durable = self.journal_admission(&req);
        let (tx, rx) = channel::bounded(1);
        let (id, cancel, mut job) =
            self.make_job(req, Responder::Channel(tx), degraded_from, reservation);
        job.durable = durable;
        job.client_slot = slot;
        let journaled = job
            .durable
            .as_ref()
            .map(|dj| (dj.uid.clone(), Arc::clone(&dj.handle)));
        if let Err(e) = self.admit(job, blocking) {
            if let Some((uid, d)) = journaled {
                d.record_gone(&uid);
            }
            return Err(e);
        }
        Ok(JobHandle { id, cancel, rx })
    }

    /// Submit with a completion callback instead of a handle. The callback
    /// runs on the worker thread that resolved the job; keep it short.
    /// Returns the engine-assigned job id and its cancellation token.
    pub fn submit_with(
        &self,
        mut req: AlignRequest,
        callback: impl FnOnce(CompletedJob) + Send + 'static,
    ) -> Result<(u64, CancelToken), SubmitError> {
        let slot = self.admit_client(&req)?;
        let (degraded_from, reservation) = self.govern(&mut req, false).map_err(|e| {
            self.trace_rejection(&req, &e);
            e
        })?;
        let durable = self.journal_admission(&req);
        let (id, cancel, mut job) = self.make_job(
            req,
            Responder::Callback(Box::new(callback)),
            degraded_from,
            reservation,
        );
        job.durable = durable;
        job.client_slot = slot;
        let journaled = job
            .durable
            .as_ref()
            .map(|dj| (dj.uid.clone(), Arc::clone(&dj.handle)));
        if let Err(e) = self.admit(job, false) {
            if let Some((uid, d)) = journaled {
                d.record_gone(&uid);
            }
            return Err(e);
        }
        Ok((id, cancel))
    }

    /// Point-in-time counters, including the live queue depth and (once
    /// any named client has been seen) the per-client lane rows.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot(self.observer.depth());
        snap.lanes = self.lane_snapshots();
        snap
    }

    /// Per-client lane rows: the fair scheduler's live depths joined with
    /// the client governor's tallies. Empty while only the anonymous
    /// default lane has ever been seen, so single-tenant `stats`
    /// responses are unchanged.
    fn lane_snapshots(&self) -> Vec<LaneSnapshot> {
        let depths = self.observer.lane_depths();
        let lanes = self.clients.lanes.lock();
        if lanes.is_empty() && depths.iter().all(|(client, _)| client.is_empty()) {
            return Vec::new();
        }
        // Scheduler lanes first (first-seen order), then governor-only
        // lanes (clients shed before ever enqueueing) alphabetically.
        let mut rows: Vec<LaneSnapshot> = depths
            .into_iter()
            .map(|(client, queued)| {
                let mut row = LaneSnapshot {
                    client,
                    queued,
                    ..LaneSnapshot::default()
                };
                if let Some(lane) = lanes.get(&row.client) {
                    row.in_flight = lane.in_flight as u64;
                    row.submitted = lane.submitted;
                    row.rejected = lane.rejected;
                }
                row
            })
            .collect();
        let mut extra: Vec<(&String, &ClientLane)> = lanes
            .iter()
            .filter(|(client, _)| !rows.iter().any(|row| &&row.client == client))
            .collect();
        extra.sort_by(|a, b| a.0.cmp(b.0));
        for (client, lane) in extra {
            rows.push(LaneSnapshot {
                client: client.clone(),
                queued: 0,
                in_flight: lane.in_flight as u64,
                submitted: lane.submitted,
                rejected: lane.rejected,
            });
        }
        rows
    }

    /// Prometheus-style text exposition of every service metric,
    /// including the stage-latency histograms and the live queue depth.
    /// Once any named client has been seen, a labeled
    /// `tsa_lane_queue_depth{client="..."}` gauge family is appended.
    pub fn metrics_text(&self) -> String {
        let mut text = self.stats.expose(self.observer.depth());
        let lanes = self.lane_snapshots();
        if !lanes.is_empty() {
            text.push_str("# HELP tsa_lane_queue_depth Jobs currently queued per client lane.\n");
            text.push_str("# TYPE tsa_lane_queue_depth gauge\n");
            for lane in &lanes {
                let label = lane
                    .client
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n");
                text.push_str(&format!(
                    "tsa_lane_queue_depth{{client=\"{label}\"}} {}\n",
                    lane.queued
                ));
            }
        }
        if let Some(recorder) = &self.config.recorder {
            let rs = recorder.stats();
            let families: [(&str, &str, &str, u64); 5] = [
                (
                    "tsa_recorder_traces_total",
                    "counter",
                    "Distributed traces completed (root span recorded).",
                    rs.completed,
                ),
                (
                    "tsa_recorder_retained_total",
                    "counter",
                    "Completed traces admitted to the flight-recorder ring.",
                    rs.retained,
                ),
                (
                    "tsa_recorder_sampled_out_total",
                    "counter",
                    "Clean traces dropped by probabilistic sampling.",
                    rs.sampled_out,
                ),
                (
                    "tsa_recorder_evicted_total",
                    "counter",
                    "Traces pushed out of the ring or pending buffer by the bound.",
                    rs.evicted,
                ),
                (
                    "tsa_recorder_pending_traces",
                    "gauge",
                    "Traces buffered awaiting their root span.",
                    rs.pending,
                ),
            ];
            for (name, kind, help, value) in families {
                text.push_str(&format!(
                    "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
                ));
            }
        }
        text
    }

    /// The flight recorder, when one is configured (the protocol's
    /// `trace` op queries through this).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.config.recorder.as_ref()
    }

    /// Dump every retained trace tree as text to
    /// `<state_dir>/traces-dump.txt` (the SIGUSR1 path). `Ok(None)` when
    /// the recorder or the state dir is not configured. The write is
    /// atomic (temp file → fsync → rename, like snapshot files), so a
    /// crash mid-dump never leaves a torn file over a previous dump.
    pub fn dump_traces(&self) -> std::io::Result<Option<PathBuf>> {
        let (recorder, dir) = match (&self.config.recorder, &self.config.state_dir) {
            (Some(r), Some(d)) => (r, d),
            _ => return Ok(None),
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join("traces-dump.txt");
        let tmp = dir.join("traces-dump.txt.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            use std::io::Write as _;
            f.write_all(recorder.dump_text().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(Some(path))
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.observer.depth()
    }

    /// Entries currently in the result cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The configuration the engine was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// How long this engine has been running.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// False once [`Engine::shutdown`] has begun; new submissions are
    /// refused from that point.
    pub fn is_running(&self) -> bool {
        self.producer.lock().is_some()
    }

    /// Estimated bytes currently reserved by in-flight jobs (0 when no
    /// memory budget is configured).
    pub fn memory_in_flight(&self) -> u64 {
        self.gate.as_ref().map_or(0, |g| g.in_flight())
    }

    /// Graceful shutdown: stop admitting new jobs, let the workers drain
    /// everything already queued, join them (supervisor first, so nothing
    /// respawns during teardown), and return the final counters.
    /// Idempotent; callable through an `Arc<Engine>`.
    pub fn shutdown(&self) -> StatsSnapshot {
        self.running.store(false, Ordering::SeqCst);
        drop(self.producer.lock().take());
        if let Some(handle) = self.supervisor.lock().take() {
            let _ = handle.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
        let mut snap = self.stats.snapshot(self.observer.depth());
        snap.lanes = self.lane_snapshots();
        snap
    }

    /// Graceful *drain*: like [`Engine::shutdown`], but durable work is
    /// preserved instead of completed — admission stops, queued durable
    /// jobs short-circuit (staying in-flight in the journal), running
    /// durable kernels store a final checkpoint snapshot at the next
    /// plane boundary and stop, and the journal is flushed to stable
    /// storage. A subsequent [`Engine::start`] with the same `state_dir`
    /// resumes the preserved jobs. Without a `state_dir` this is exactly
    /// `shutdown`. Idempotent.
    pub fn drain(&self) -> StatsSnapshot {
        if let Some(d) = &self.durability {
            d.request_drain();
        }
        let snap = self.shutdown();
        if let Some(d) = &self.durability {
            let _ = d.sync();
        }
        snap
    }
}

/// The pool supervisor: while the engine runs, replace any worker thread
/// that died (a panic that escaped the kernel isolation boundary) so the
/// pool stays at full strength. Runs on its own thread; polling is cheap
/// (`JoinHandle::is_finished` is a flag load).
fn supervise(
    workers: &Mutex<Vec<JoinHandle<()>>>,
    running: &AtomicBool,
    rx: FairReceiver<Job>,
    cache: Arc<ResultCache>,
    stats: Arc<ServiceStats>,
) {
    let mut respawned = 0usize;
    while running.load(Ordering::SeqCst) {
        {
            let mut pool = workers.lock();
            for slot in pool.iter_mut() {
                if !slot.is_finished() {
                    continue;
                }
                let fresh = {
                    let (rx, cache, stats) = (rx.clone(), Arc::clone(&cache), Arc::clone(&stats));
                    std::thread::Builder::new()
                        .name(format!("tsa-worker-r{respawned}"))
                        .spawn(move || worker_loop(rx, cache, stats))
                        .expect("respawn worker thread")
                };
                respawned += 1;
                let dead = std::mem::replace(slot, fresh);
                let _ = dead.join();
                stats.respawns.inc();
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CancelStage;

    fn triple(text: &str) -> (Seq, Seq, Seq) {
        (
            Seq::dna(text).unwrap(),
            Seq::dna(text).unwrap(),
            Seq::dna(text).unwrap(),
        )
    }

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 32,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let engine = Engine::start(small_config());
        let (a, b, c) = triple("GATTACA");
        let handle = engine.submit(AlignRequest::new("t", a, b, c)).unwrap();
        let outcome = handle.wait();
        let result = outcome.result().expect("job completes");
        assert!(!result.cached);
        assert_eq!(result.algorithm, Algorithm::CarrilloLipman);
        assert!(result.rows.is_some());
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn identical_resubmission_hits_the_cache() {
        let engine = Engine::start(small_config());
        let (a, b, c) = triple("GATTACAGATTACA");
        let first = engine
            .submit(AlignRequest::new("1", a.clone(), b.clone(), c.clone()))
            .unwrap()
            .wait();
        let second = engine
            .submit(AlignRequest::new("2", a, b, c))
            .unwrap()
            .wait();
        let (r1, r2) = (first.result().unwrap(), second.result().unwrap());
        assert!(!r1.cached);
        assert!(r2.cached, "second identical job is a cache hit");
        assert_eq!(r1.score, r2.score);
        assert_eq!(r1.rows, r2.rows);
        let stats = engine.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn zero_deadline_cancels_while_queued() {
        let engine = Engine::start(small_config());
        let (a, b, c) = triple("GATTACA");
        let outcome = engine
            .submit(AlignRequest::new("d", a, b, c).deadline(Duration::ZERO))
            .unwrap()
            .wait();
        assert!(matches!(
            outcome,
            JobOutcome::DeadlineExceeded {
                stage: CancelStage::Queued,
                ..
            }
        ));
        let stats = engine.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn explicit_cancel_before_run() {
        // One worker pinned on a slow job guarantees the second job is
        // still queued when we cancel it.
        let engine = Engine::start(ServiceConfig {
            workers: 1,
            ..small_config()
        });
        let slow = Seq::dna("ACGTACGTAC".repeat(12)).unwrap();
        let blocker = engine
            .submit(AlignRequest::new("slow", slow.clone(), slow.clone(), slow))
            .unwrap();
        let (a, b, c) = triple("GATTACA");
        let victim = engine.submit(AlignRequest::new("v", a, b, c)).unwrap();
        victim.cancel();
        assert!(matches!(victim.wait(), JobOutcome::Cancelled { .. }));
        assert!(blocker.wait().result().is_some());
        engine.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let engine = Engine::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let slow = Seq::dna("ACGTACGTAC".repeat(12)).unwrap();
        // First job occupies the worker; second fills the queue; the
        // third must bounce.
        let h1 = engine
            .submit(AlignRequest::new(
                "1",
                slow.clone(),
                slow.clone(),
                slow.clone(),
            ))
            .unwrap();
        let mut held = Vec::new();
        let mut rejected = None;
        for i in 0..10 {
            let (a, b, c) = triple("GATTACA");
            match engine.submit(AlignRequest::new(format!("j{i}"), a, b, c)) {
                Ok(h) => held.push(h),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            rejected,
            Some(SubmitError::Overloaded {
                capacity: 1,
                retry_after_ms: RETRY_HINT_MS,
                scope: "queue",
            })
        );
        assert!(h1.wait().result().is_some());
        for h in held {
            assert!(h.wait().result().is_some());
        }
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.resolved(), stats.submitted);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn client_rate_limit_sheds_with_retry_hint() {
        let engine = Engine::start(ServiceConfig {
            client_rate: Some(1.0), // burst of 1: the second submit sheds
            ..small_config()
        });
        let (a, b, c) = triple("GATTACA");
        let first = engine
            .submit(AlignRequest::new("r1", a.clone(), b.clone(), c.clone()).client("tenant-a"));
        assert!(first.is_ok(), "a full bucket admits");
        let err = engine
            .submit(AlignRequest::new("r2", a.clone(), b.clone(), c.clone()).client("tenant-a"))
            .unwrap_err();
        match err {
            SubmitError::Overloaded {
                scope,
                retry_after_ms,
                capacity,
            } => {
                assert_eq!(scope, "client-rate");
                assert!(retry_after_ms > 0, "refill time is a concrete hint");
                assert_eq!(capacity, 1);
            }
            other => panic!("expected client-rate shed, got {other:?}"),
        }
        // Anonymous traffic is never rate limited.
        for i in 0..4 {
            let (a, b, c) = triple("GATTACA");
            assert!(engine
                .submit(AlignRequest::new(format!("anon{i}"), a, b, c))
                .is_ok());
        }
        let stats = engine.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.resolved(), stats.submitted);
        let lane = stats
            .lanes
            .iter()
            .find(|l| l.client == "tenant-a")
            .expect("named client gets a lane row");
        assert_eq!(lane.submitted, 2);
        assert_eq!(lane.rejected, 1);
    }

    #[test]
    fn client_in_flight_quota_rejects_and_releases() {
        let engine = Engine::start(ServiceConfig {
            workers: 1,
            max_in_flight_per_client: Some(1),
            ..small_config()
        });
        // Pin the single worker with a slow anonymous job so tenant-a's
        // first job is guaranteed still in flight for the second.
        let slow = Seq::dna("ACGTACGTAC".repeat(12)).unwrap();
        let blocker = engine
            .submit(AlignRequest::new("slow", slow.clone(), slow.clone(), slow))
            .unwrap();
        let (a, b, c) = triple("GATTACA");
        let held = engine
            .submit(AlignRequest::new("q1", a.clone(), b.clone(), c.clone()).client("tenant-a"))
            .unwrap();
        let err = engine
            .submit(AlignRequest::new("q2", a.clone(), b.clone(), c.clone()).client("tenant-a"))
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Overloaded {
                scope: "in-flight",
                capacity: 1,
                retry_after_ms: RETRY_HINT_MS,
            }
        ));
        // Another client has its own quota.
        let other = engine
            .submit(AlignRequest::new("q3", a.clone(), b.clone(), c.clone()).client("tenant-b"))
            .unwrap();
        assert!(blocker.wait().result().is_some());
        assert!(held.wait().result().is_some());
        assert!(other.wait().result().is_some());
        // The slot came back: tenant-a can submit again.
        assert!(engine
            .submit(AlignRequest::new("q4", a, b, c).client("tenant-a"))
            .is_ok());
        let stats = engine.shutdown();
        assert_eq!(stats.shed, 1);
        let lane = stats.lanes.iter().find(|l| l.client == "tenant-a").unwrap();
        assert_eq!(lane.in_flight, 0, "slots drain to zero");
        assert_eq!(lane.rejected, 1);
    }

    #[test]
    fn scheduler_interleaves_client_lanes() {
        // One worker => completion order is dequeue order. A blocker pins
        // the worker while both lanes fill; DRR then alternates them even
        // though "heavy" enqueued all its jobs first.
        let engine = Engine::start(ServiceConfig {
            workers: 1,
            queue_capacity: 32,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let slow = Seq::dna("ACGTACGTAC".repeat(12)).unwrap();
        let submit = |tag: &str, client: &str, seq: &Seq| {
            let order = Arc::clone(&order);
            engine
                .submit_with(
                    AlignRequest::new(tag, seq.clone(), seq.clone(), seq.clone()).client(client),
                    move |done| order.lock().push(done.tag),
                )
                .unwrap();
        };
        submit("blocker", "", &slow);
        let (tiny, _, _) = triple("GATTACA");
        for i in 0..6 {
            submit(&format!("h{i}"), "heavy", &tiny);
        }
        for i in 0..2 {
            submit(&format!("l{i}"), "light", &tiny);
        }
        engine.shutdown();
        let order: Vec<String> = order.lock().clone();
        assert_eq!(order.len(), 9);
        let pos = |tag: &str| order.iter().position(|t| t == tag).unwrap();
        // Fairness: light's two jobs are served within the first two DRR
        // rotations, not behind heavy's whole backlog.
        assert!(pos("l0") < pos("h2"), "order was {order:?}");
        assert!(pos("l1") < pos("h3"), "order was {order:?}");
        // FIFO within each lane.
        for i in 0..5 {
            assert!(pos(&format!("h{i}")) < pos(&format!("h{}", i + 1)));
        }
    }

    #[test]
    fn heavy_client_cannot_starve_light_client() {
        // The overload-isolation contract: with an in-flight quota below
        // the queue capacity, a flooding tenant saturates its own quota
        // while the other tenant's submissions are admitted and complete.
        let engine = Engine::start(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 0,
            max_in_flight_per_client: Some(4),
            ..ServiceConfig::default()
        });
        let slow = Seq::dna("ACGTACGTAC".repeat(8)).unwrap();
        let mut flood_rejected = 0u64;
        for i in 0..40 {
            let req = AlignRequest::new(format!("a{i}"), slow.clone(), slow.clone(), slow.clone())
                .client("heavy")
                .score_only(true);
            if engine.submit(req).is_err() {
                flood_rejected += 1;
            }
        }
        assert!(flood_rejected > 0, "the flood exceeds the quota");
        for i in 0..10 {
            let (a, b, c) = triple("GATTACA");
            let outcome = engine
                .submit(AlignRequest::new(format!("b{i}"), a, b, c).client("light"))
                .expect("light client is never rejected")
                .wait();
            assert!(outcome.result().is_some(), "light job {i} completes");
        }
        let stats = engine.shutdown();
        assert_eq!(stats.resolved(), stats.submitted);
        let heavy = stats.lanes.iter().find(|l| l.client == "heavy").unwrap();
        let light = stats.lanes.iter().find(|l| l.client == "light").unwrap();
        assert_eq!(heavy.rejected, flood_rejected);
        assert_eq!(light.rejected, 0);
        assert_eq!(light.submitted, 10);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let engine = Engine::start(small_config());
        engine.shutdown();
        let (a, b, c) = triple("ACGT");
        assert_eq!(
            engine.submit(AlignRequest::new("x", a, b, c)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        // Idempotent.
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let engine = Engine::start(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let handles: Vec<JobHandle> = (0..10)
            .map(|i| {
                let (a, b, c) = triple("GATTACAGA");
                engine
                    .submit(AlignRequest::new(format!("{i}"), a, b, c))
                    .unwrap()
            })
            .collect();
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 10, "graceful shutdown runs queued jobs");
        for h in handles {
            assert!(h.wait().result().is_some());
        }
    }

    #[test]
    fn failed_configuration_reports_failed() {
        let engine = Engine::start(small_config());
        let (a, b, c) = triple("GATTACAGATTACA");
        let outcome = engine
            .submit(
                AlignRequest::new("f", a, b, c)
                    .scoring(Scoring::dna_default().with_gap(tsa_scoring::GapModel::affine(-4, -1)))
                    .algorithm(Algorithm::FullDp),
            )
            .unwrap()
            .wait();
        assert!(matches!(outcome, JobOutcome::Failed(_)));
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn score_only_jobs_carry_no_rows() {
        let engine = Engine::start(small_config());
        let (a, b, c) = triple("GATTACA");
        let outcome = engine
            .submit(AlignRequest::new("s", a, b, c).score_only(true))
            .unwrap()
            .wait();
        let result = outcome.result().unwrap();
        assert!(result.rows.is_none());
        engine.shutdown();
    }

    #[test]
    fn only_jobs_that_run_a_simd_sweep_count_as_simd() {
        if tsa_core::SimdKernel::Auto.resolve().is_scalar() {
            return; // no SIMD on this host: nothing can count
        }
        let engine = Engine::start(small_config());
        let (a, b, c) = triple("GATTACAGATTACA");
        // An alignment pinned to the cell wavefront runs scalar cells...
        let cells = AlignRequest::new("cells", a.clone(), b.clone(), c.clone())
            .algorithm(Algorithm::Wavefront);
        engine.submit(cells).unwrap().wait().result().unwrap();
        assert_eq!(
            engine.stats().simd_jobs,
            0,
            "cell wavefront ran no SIMD rows"
        );
        // ...while a default alignment fills its lattice with SIMD slab
        // rows, and a score-only job runs the slab sweep's SIMD rows.
        let align = AlignRequest::new("align", a.clone(), b.clone(), c.clone());
        engine.submit(align).unwrap().wait().result().unwrap();
        assert_eq!(engine.stats().simd_jobs, 1, "slab lattice ran SIMD rows");
        let score = AlignRequest::new("score", a.clone(), b.clone(), c.clone()).score_only(true);
        engine.submit(score).unwrap().wait().result().unwrap();
        assert_eq!(engine.stats().simd_jobs, 2);
        // A tile-wavefront alignment fills its own tile lattice with SIMD
        // slab rows.
        let tiles =
            AlignRequest::new("tiles", a, b, c).algorithm(Algorithm::TileWavefront { tile: 4 });
        engine.submit(tiles).unwrap().wait().result().unwrap();
        assert_eq!(engine.shutdown().simd_jobs, 3, "tile lattice ran SIMD rows");
    }

    #[test]
    fn kernel_spans_report_cells_computed_and_fallbacks() {
        let sink = Arc::new(tsa_obs::RingSink::with_capacity(64));
        let engine = Engine::start(ServiceConfig {
            tracer: Some(Tracer::new(sink.clone())),
            ..small_config()
        });
        let family = tsa_seq::family::FamilyConfig::new(60, 0.15, 0.05).generate(5);
        let [a, b, c] = family.members;
        let cube = ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64;
        // An unrelated lopsided triple, a thin cube: the bounds would cost
        // a large share of it, so the dense lattice runs at once.
        let dna = |n, seed| tsa_seq::gen::random_seq_seeded(tsa_seq::Alphabet::Dna, n, seed);
        let wide = [dna(48, 9060), dna(8, 19060), dna(64, 29060)];
        let wide_cube = 49 * 9 * 65;
        let pinned = AlignRequest::new("pinned", a.clone(), b.clone(), c.clone())
            .algorithm(Algorithm::FullDp);
        let [x, y, z] = wide;
        for req in [
            AlignRequest::new("pruned", a, b, c),
            AlignRequest::new("fallback", x, y, z),
            pinned,
        ] {
            engine.submit(req).unwrap().wait().result().unwrap();
        }
        engine.shutdown();
        let records = sink.snapshot();
        let kernel = |tag: &str| {
            let root = records
                .iter()
                .find(|r| {
                    r.name == "job" && r.field("tag").map(|v| v.to_string()) == Some(tag.into())
                })
                .unwrap_or_else(|| panic!("no job span for {tag}"));
            let span = records
                .iter()
                .find(|r| r.name == "kernel" && r.parent == Some(root.id))
                .unwrap_or_else(|| panic!("no kernel span for {tag}"));
            let field = |key| span.field(key).map(|v| v.to_string());
            let cells: u64 = field("cells").expect("cells annotated").parse().unwrap();
            (cells, field("fallback"), field("algorithm"))
        };
        let (cells, fallback, algorithm) = kernel("pruned");
        assert!(cells > 0 && cells < cube / 4, "{cells} of {cube}");
        assert_eq!(fallback, None);
        assert_eq!(algorithm.as_deref(), Some("carrillo-lipman"));
        let (cells, fallback, _) = kernel("fallback");
        assert_eq!((cells, fallback.as_deref()), (wide_cube, Some("full")));
        // A pinned dense lattice reports its planned cells, no fallback.
        assert_eq!(kernel("pinned"), (cube, None, Some("full".into())));
    }

    #[test]
    fn governor_rejects_pinned_overbudget_algorithm() {
        let engine = Engine::start(ServiceConfig {
            memory_budget: Some(64 * 1024),
            ..small_config()
        });
        // 160³ full lattice ≈ 16.7 MB, far over the 64 KiB budget.
        let long = Seq::dna("ACGTACGTGA".repeat(16)).unwrap();
        let err = engine
            .submit(
                AlignRequest::new("big", long.clone(), long.clone(), long)
                    .algorithm(Algorithm::FullDp),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::ResourceExhausted {
                limit: "memory-budget",
                ..
            }
        ));
        let stats = engine.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.resolved(), stats.submitted);
    }

    #[test]
    fn governor_enforces_max_cells() {
        let engine = Engine::start(ServiceConfig {
            max_cells: Some(1_000_000),
            ..small_config()
        });
        let long = Seq::dna("ACGTACGTGA".repeat(16)).unwrap();
        let err = engine
            .submit(
                AlignRequest::new("slow", long.clone(), long.clone(), long)
                    .algorithm(Algorithm::FullDp),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::ResourceExhausted {
                limit: "max-cells",
                ..
            }
        ));
        // Small jobs still pass.
        let (a, b, c) = triple("GATTACA");
        assert!(engine.submit(AlignRequest::new("ok", a, b, c)).is_ok());
        engine.shutdown();
    }

    #[test]
    fn governor_downgrades_auto_to_fit_budget() {
        let engine = Engine::start(ServiceConfig {
            memory_budget: Some(1024 * 1024),
            ..small_config()
        });
        // Auto resolves to the pruned sweep, which prices the full lattice
        // it may fall back to (≈16.7 MB — over the 1 MiB budget); the
        // ladder lands on Hirschberg (≈0.6 MB).
        let long = Seq::dna("ACGTACGTGA".repeat(16)).unwrap();
        let outcome = engine
            .submit(AlignRequest::new("auto", long.clone(), long.clone(), long))
            .unwrap()
            .wait();
        let result = outcome.result().expect("degraded job still completes");
        assert_eq!(result.algorithm, Algorithm::Hirschberg);
        assert_eq!(result.degraded_from, Some(Algorithm::CarrilloLipman));
        let stats = engine.shutdown();
        assert_eq!(stats.downgraded, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn governor_admits_a_lopsided_auto_score_job_on_the_plane_sweep() {
        // 2×40×400: two slabs of 41×401 cells (≈131 KB) against four
        // planes of 3×41 cells (≈2 KB). The 64 KiB budget fits only the
        // planes, which is what a score-only `auto` job sweeps here.
        let engine = Engine::start(ServiceConfig {
            memory_budget: Some(64 * 1024),
            ..small_config()
        });
        let a = Seq::dna("GA").unwrap();
        let b = Seq::dna("GATTACAGCA".repeat(4)).unwrap();
        let c = Seq::dna("ACGTTGCAAC".repeat(40)).unwrap();
        let req = AlignRequest::new("lopsided", a.clone(), b.clone(), c.clone()).score_only(true);
        let outcome = engine.submit(req).expect("the plane sweep fits").wait();
        let result = outcome.result().expect("admitted job completes");
        assert_eq!(result.algorithm, Algorithm::Wavefront);
        assert_eq!(result.degraded_from, None);
        assert_eq!(
            result.score,
            tsa_core::full::align_score(&a, &b, &c, &Scoring::dna_default())
        );
        let stats = engine.shutdown();
        assert_eq!((stats.completed, stats.rejected), (1, 0));
        assert_eq!(stats.downgraded, 0);
    }

    #[test]
    fn memory_reservations_drain_to_zero() {
        let engine = Engine::start(ServiceConfig {
            memory_budget: Some(64 * 1024 * 1024),
            ..small_config()
        });
        let handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                let (a, b, c) = triple("GATTACAGATTACA");
                engine
                    .submit(AlignRequest::new(format!("{i}"), a, b, c))
                    .unwrap()
            })
            .collect();
        for h in handles {
            assert!(h.wait().result().is_some());
        }
        // All jobs resolved, so every reservation must be back.
        assert_eq!(engine.memory_in_flight(), 0);
        engine.shutdown();
    }

    #[test]
    fn callback_submission_fires_exactly_once() {
        let engine = Engine::start(small_config());
        let (tx, rx) = channel::unbounded();
        let (a, b, c) = triple("GATTACA");
        let (id, _cancel) = engine
            .submit_with(AlignRequest::new("cb", a, b, c), move |done| {
                tx.send(done).unwrap();
            })
            .unwrap();
        let done = rx.recv().unwrap();
        assert_eq!(done.id, id);
        assert_eq!(done.tag, "cb");
        assert!(done.outcome.result().is_some());
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        engine.shutdown();
    }

    fn state_dir(tag: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        dir.push(format!("tsa-engine-{tag}-{}-{nanos}", std::process::id()));
        dir
    }

    fn durable_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 32,
            state_dir: Some(dir.to_path_buf()),
            checkpoint_every_planes: 1,
            ..ServiceConfig::default()
        }
    }

    fn await_completed(engine: &Engine, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while engine.stats().completed < want {
            assert!(
                Instant::now() < deadline,
                "recovered jobs complete within the deadline"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn completed_jobs_recover_into_cache_across_restart() {
        let dir = state_dir("recover");
        let (a, b, c) = triple("GATTACAGATTACA");
        let first_score = {
            let engine = Engine::start(durable_config(&dir));
            let outcome = engine
                .submit(AlignRequest::new("r1", a.clone(), b.clone(), c.clone()))
                .unwrap()
                .wait();
            let score = outcome.result().expect("first run completes").score;
            engine.shutdown();
            score
        };
        let engine = Engine::start(durable_config(&dir));
        let stats = engine.stats();
        assert_eq!(stats.recovered, 1, "done record preloads the cache");
        assert_eq!(stats.resumed + stats.restarted, 0);
        let outcome = engine
            .submit(AlignRequest::new("r2", a, b, c))
            .unwrap()
            .wait();
        let result = outcome.result().expect("replayed result serves");
        assert!(result.cached);
        assert!(result.recovered, "hit is marked as journal-recovered");
        assert_eq!(result.score, first_score);
        let stats = engine.shutdown();
        assert_eq!(stats.cache_recovered_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflight_job_without_snapshot_restarts_cleanly() {
        let dir = state_dir("restart");
        let (a, b, c) = triple("GATTACAGATTACA");
        let mut req = AlignRequest::new("inflight", a.clone(), b.clone(), c.clone());
        req.score_only = true;
        let expected = Aligner::auto(req.scoring.clone())
            .score3(&a, &b, &c)
            .unwrap();
        {
            // A journal holding a `job` record with no `done`: the crash
            // happened mid-run, and no checkpoint snapshot survived.
            let policy = CheckpointPolicy {
                every_planes: 1,
                every: None,
            };
            let (d, _replay) = Durability::open(&dir, policy, 64).unwrap();
            d.record_job(&durability::job_uid(&req), &req);
            d.sync().unwrap();
        }
        let engine = Engine::start(durable_config(&dir));
        let stats = engine.stats();
        assert_eq!(stats.restarted, 1, "no snapshot means a clean re-run");
        assert_eq!(stats.resumed, 0);
        await_completed(&engine, 1);
        let outcome = engine.submit(req).unwrap().wait();
        let result = outcome.result().expect("re-run result is served");
        assert!(result.cached, "recovered re-run populated the cache");
        assert_eq!(result.score, expected);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plane_snapshot_of_an_auto_score_job_restarts_cleanly() {
        use tsa_core::checkpoint::CheckpointConfig;
        // `auto` and `par-hirschberg` score jobs both sweep slabs now.
        for algorithm in [Algorithm::Auto, Algorithm::ParallelHirschberg] {
            let dir = state_dir("planes");
            let (a, b, c) = triple("GATTACAGATTACA");
            let req = AlignRequest::new("planes", a.clone(), b.clone(), c.clone())
                .algorithm(algorithm)
                .score_only(true);
            let uid = durability::job_uid(&req);
            let snapshot = dir.join("checkpoints").join(format!("{uid}.ckpt"));
            {
                // Builds whose score jobs of this algorithm ran the plane
                // order journaled the job and checkpointed it as kind
                // `Planes`, one snapshot per plane; the last one is still
                // on disk after the crash.
                let policy = CheckpointPolicy {
                    every_planes: 1,
                    every: None,
                };
                let (d, _replay) = Durability::open(&dir, policy, 64).unwrap();
                d.record_job(&uid, &req);
                let sink = d.sink_for(&uid);
                let ckpt = CheckpointConfig::new(&sink).every_planes(1);
                Aligner::auto(req.scoring.clone())
                    .algorithm(Algorithm::Wavefront)
                    .score3_durable(&a, &b, &c, &CancelToken::never(), &ckpt, None)
                    .unwrap();
                d.sync().unwrap();
                let snap = d.load_snapshot(&uid).expect("plane snapshot on disk");
                assert_eq!(snap.kind, tsa_core::KernelKind::Planes.code());
            }
            let engine = Engine::start(durable_config(&dir));
            let stats = engine.stats();
            assert_eq!(
                stats.restarted, 1,
                "{algorithm:?}: a plane snapshot fails the slab kind check"
            );
            assert_eq!(stats.resumed, 0, "{algorithm:?}");
            await_completed(&engine, 1);
            // One worker: the re-run resolved (and dropped its checkpoint)
            // before this job was popped.
            let outcome = engine.submit(req).unwrap().wait();
            assert!(!snapshot.exists(), "the stale snapshot is removed");
            let result = outcome.result().expect("re-run result is served");
            assert!(result.cached, "recovered re-run populated the cache");
            assert_eq!(
                result.score,
                tsa_core::full::align_score(&a, &b, &c, &Scoring::dna_default())
            );
            engine.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn auto_score_job_that_falls_back_resumes_its_slab_snapshot() {
        use tsa_core::checkpoint::CheckpointConfig;
        use tsa_seq::gen::random_seq_seeded;
        let dir = state_dir("fallback");
        // An unrelated triple whose intervals keep 39% of the cube: an
        // `auto` score job plans the pruned sweep, falls back to the slab
        // sweep, and checkpoints as `Slabs`.
        let dna = |n, seed| random_seq_seeded(tsa_seq::Alphabet::Dna, n, seed);
        let (a, b, c) = (dna(20, 100), dna(100, 101), dna(40, 102));
        let req = AlignRequest::new("fallback", a.clone(), b.clone(), c.clone()).score_only(true);
        let aligner = Aligner::auto(req.scoring.clone());
        let plan = aligner.plan(a.len(), b.len(), c.len(), true);
        assert_eq!(plan.algorithm, Algorithm::CarrilloLipman);
        assert_eq!(plan.checkpoint, Some(tsa_core::KernelKind::Slabs));
        let uid = durability::job_uid(&req);
        {
            // The crash came mid-run: the job is journaled, and the slab
            // sweep's snapshots (one per slab) left the last on disk.
            let policy = CheckpointPolicy {
                every_planes: 1,
                every: None,
            };
            let (d, _replay) = Durability::open(&dir, policy, 64).unwrap();
            d.record_job(&uid, &req);
            let sink = d.sink_for(&uid);
            let ckpt = CheckpointConfig::new(&sink).every_planes(1);
            let run = aligner
                .run_durable(&a, &b, &c, &CancelToken::never(), &ckpt, None)
                .unwrap();
            assert_eq!(run.fallback, Some(Algorithm::FullDp));
            d.sync().unwrap();
            let snap = d.load_snapshot(&uid).expect("slab snapshot on disk");
            assert_eq!(snap.kind, tsa_core::KernelKind::Slabs.code());
        }
        let engine = Engine::start(durable_config(&dir));
        let stats = engine.stats();
        assert_eq!((stats.resumed, stats.restarted), (1, 0));
        await_completed(&engine, 1);
        let outcome = engine.submit(req).unwrap().wait();
        let result = outcome.result().expect("resumed result is served");
        assert!(result.cached, "the resumed run populated the cache");
        assert_eq!(result.algorithm, Algorithm::CarrilloLipman);
        assert_eq!(
            result.score,
            tsa_core::full::align_score(&a, &b, &c, &Scoring::dna_default())
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_preserves_queued_durable_jobs_for_restart() {
        let dir = state_dir("drain");
        let engine = Engine::start(durable_config(&dir));
        // Occupy the single worker with a slow, non-journalable job
        // (custom matrix) so the durable jobs behind it are still queued
        // when the drain flag goes up.
        let blocker_text: String = "GATTACAGATCCTA".repeat(16);
        let (ba, bb, bc) = triple(&blocker_text);
        let blocker = AlignRequest::new("blocker", ba, bb, bc).scoring(Scoring::new(
            tsa_scoring::SubstMatrix::match_mismatch("blocker", 2, -3),
            tsa_scoring::GapModel::linear(-2),
        ));
        engine.submit(blocker).unwrap();
        let (a, b, c) = triple("GATTACAGATTACAGATTACA");
        for i in 0..3 {
            let mut req = AlignRequest::new(format!("d{i}"), a.clone(), b.clone(), c.clone());
            req.score_only = true;
            // Distinct scorings so the three jobs have distinct uids.
            req = req.scoring(Scoring::by_name(["dna", "unit", "edit"][i]).unwrap());
            engine.submit(req).unwrap();
        }
        let snap = engine.drain();
        assert_eq!(
            snap.submitted,
            snap.completed + snap.rejected + snap.cancelled + snap.failed,
            "accounting identity holds through drain"
        );
        let preserved = snap.cancelled;
        assert!(
            preserved >= 1,
            "at least one queued durable job was preserved, not completed"
        );
        let engine = Engine::start(durable_config(&dir));
        let stats = engine.stats();
        assert_eq!(
            stats.resumed + stats.restarted,
            preserved,
            "every drained job comes back in-flight"
        );
        assert_eq!(
            stats.recovered,
            3 - preserved,
            "durable jobs that did finish recover as cache entries"
        );
        await_completed(&engine, preserved);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
