//! The cluster coordinator: owns the member table and the shard map,
//! routes submissions by content uid, supervises worker processes, and
//! aggregates control-plane answers across the whole cluster.
//!
//! ## Routing = cache affinity
//!
//! A submission routes by [`tsa_service::content_uid`] — the same
//! fingerprint (minus the client tag) that keys each worker's result
//! cache and journal. Two submissions with identical content therefore
//! always land on the same worker, so the second one is a cache hit
//! there instead of a recompute elsewhere. The rendezvous hash in
//! [`crate::shard`] keeps that alignment stable across membership
//! changes: removing a worker re-routes only the uids it owned.
//!
//! ## Identity rewriting
//!
//! Client tags need not be unique (or present), but the coordinator
//! must correlate worker responses to callers. Every forwarded job gets
//! an internal id `<original>#@<n>`; since the fault-injection
//! directives (`#fault-delay=…` and friends) are substring-matched and
//! their numeric arguments stop at the first non-digit, the suffix is
//! transparent to them. Responses are restored by substituting the
//! internal id back out of the raw response line, so unknown fields a
//! newer worker adds survive the round trip untouched.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tsa_obs::{
    Counter, FlightRecorder, Gauge, RecorderConfig, Registry, Span, SpanSink, TraceContext,
    TraceTree, Tracer,
};
use tsa_service::json::{escape, JsonObject, Value};
use tsa_service::protocol::{self, Request};
use tsa_service::{content_uid, AlignRequest, BatchSummary, FlaggedJob};

use crate::breaker::{Admission, Breaker};
use crate::link::{spawn_worker, Event, SpawnOptions, WorkerLink};
use crate::shard::{ShardId, ShardMap};

/// Counter fields summed across workers in aggregated `stats`.
const SUM_FIELDS: [&str; 18] = [
    "submitted",
    "completed",
    "rejected",
    "cancelled",
    "failed",
    "cache_hits",
    "cache_misses",
    "panics",
    "respawns",
    "downgraded",
    "recovered",
    "resumed",
    "restarted",
    "cache_recovered_hits",
    "simd_jobs",
    "shed",
    "integrity_quarantined",
    "queue_depth",
];

/// Retries per job are bounded regardless of the cluster-wide budget.
const RETRY_MAX_ATTEMPTS: u32 = 3;

/// Base unit of the jittered exponential retry backoff.
const RETRY_BACKOFF_MS: u64 = 50;

/// How a cluster is shaped and how its workers are provisioned.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker binary; `None` re-executes the current binary.
    pub binary: Option<PathBuf>,
    /// Number of locally spawned workers (shards `0..workers`).
    pub workers: u32,
    /// Extra pre-started workers to attach over TCP (shards continue
    /// after the spawned range).
    pub attach: Vec<String>,
    /// Root state directory; each spawned worker journals under
    /// `<dir>/shard-<n>` so respawns recover their own shard.
    pub state_dir: Option<PathBuf>,
    /// Per-worker pool size (worker default when `None`).
    pub worker_threads: Option<usize>,
    /// Per-worker queue capacity.
    pub queue: Option<usize>,
    /// Per-worker result-cache capacity.
    pub cache: Option<usize>,
    /// Per-worker default deadline.
    pub deadline_ms: Option<u64>,
    /// Supervisor health-check cadence.
    pub heartbeat: Duration,
    /// Consecutive per-shard failures (disconnects, `failed` or
    /// `deadline` outcomes) that trip that shard's circuit breaker.
    /// 0 disables breakers (the default): routing behaves as before.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before a single half-open
    /// probe is admitted.
    pub breaker_cooldown: Duration,
    /// Cluster-wide retry budget as a percentage of routed traffic:
    /// retries are only granted while `retries ≤ budget% × routed`, so
    /// a retry storm cannot amplify an outage. 0 disables retries (the
    /// default).
    pub retry_budget: f64,
    /// Hedge a still-pending submission to the runner-up shard after
    /// this many milliseconds; first response wins. 0 disables hedging
    /// (the default).
    pub hedge_after_ms: u64,
    /// Per-client token-bucket rate forwarded to every worker.
    pub client_rate: Option<f64>,
    /// Per-client in-flight quota forwarded to every worker.
    pub max_in_flight_per_client: Option<usize>,
    /// Flight-recorder ring capacity. When > 0 the coordinator mints a
    /// trace per submission, stamps a trace context on every outgoing
    /// line, records its own routing/retry/hedge spans, and starts
    /// every worker with a same-sized recorder so the `trace` op can
    /// stitch one tree per job across the cluster. 0 (the default)
    /// disables tracing entirely: the wire stays byte-identical.
    pub flight_recorder: usize,
    /// Traces slower end-to-end than this many milliseconds are always
    /// retained (and marked notable). 0 disables the threshold.
    pub slow_ms: u64,
    /// Keep one in N clean traces; ≤ 1 keeps all. Errors, sheds,
    /// retries, hedges, and slow traces are always retained.
    pub trace_sample: u64,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            binary: None,
            workers: 2,
            attach: Vec::new(),
            state_dir: None,
            worker_threads: None,
            queue: None,
            cache: None,
            deadline_ms: None,
            heartbeat: Duration::from_millis(500),
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(1000),
            retry_budget: 0.0,
            hedge_after_ms: 0,
            client_rate: None,
            max_in_flight_per_client: None,
            flight_recorder: 0,
            slow_ms: 0,
            trace_sample: 1,
        }
    }
}

/// Whether the coordinator owns the worker process or only a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberKind {
    /// Local child process: health = process liveness; failure =
    /// respawn (same shard, same state dir) + resubmit.
    Spawned,
    /// Remote worker reached over TCP: health = ping/pong; failure =
    /// one reconnect attempt, then removal + deterministic rehash.
    Attached,
}

/// One cluster member's live state.
struct Member {
    shard: ShardId,
    kind: MemberKind,
    addr: Mutex<SocketAddr>,
    link: Mutex<Option<Arc<WorkerLink>>>,
    child: Mutex<Option<Child>>,
    alive: AtomicBool,
    /// Bumped on every (re)connect so stale disconnect events from a
    /// replaced link are ignored.
    generation: AtomicU64,
    pid: AtomicU64,
    version: Mutex<String>,
    /// This shard's circuit breaker. Survives respawns on purpose: a
    /// worker that crash-loops keeps its failure history until a real
    /// success closes the breaker.
    breaker: Breaker,
}

/// Where a submission's response goes once a worker answers.
pub enum ReplyTo {
    /// A batch caller blocked on this channel.
    Blocking(SyncSender<String>),
    /// A front-door connection: the line lands in the outbox tagged
    /// with the connection id and the event loop is woken to flush it.
    Conn {
        /// Front-door connection id.
        conn: u64,
    },
}

/// An in-flight submission, keyed by its internal id. Kept until a
/// response arrives so a respawned or re-routed worker can be fed the
/// job again — re-rendered with whatever remains of the client's
/// deadline, so workers never burn cycles on jobs the coordinator has
/// already abandoned.
struct Pending {
    shard: ShardId,
    uid: String,
    original_id: String,
    /// The wire line last sent (internal id, current deadline).
    line: String,
    /// Where the winning response goes. `None` on a hedge twin — the
    /// primary entry owns the reply until the twin wins it.
    reply: Option<ReplyTo>,
    /// The parsed request (tag = internal id, deadline = the client's
    /// original), kept so retries and resubmits can re-render `line`
    /// with the remaining deadline.
    req: AlignRequest,
    /// When the job was first accepted; the deadline clock.
    submitted_at: Instant,
    /// Send attempts so far (1 = the initial submit).
    attempts: u32,
    /// Internal id of this job's hedge twin, when one was launched.
    hedge: Option<String>,
    /// Set on a hedge twin: the internal id of its primary.
    hedge_of: Option<String>,
    /// This submission's distributed-trace handle; `None` when the
    /// flight recorder is off.
    trace: Option<PendingTrace>,
}

/// The coordinator's span handle for one pending submission.
///
/// Spans record to the sink when dropped, and the flight recorder
/// treats the *root's* arrival as trace completion — so field order
/// matters: `attempt` is declared before `root`, guaranteeing the last
/// attempt records before the root does whenever a `Pending` (or this
/// struct) is dropped whole.
struct PendingTrace {
    /// The current send attempt. Replaced — and thereby recorded — by
    /// [`PendingTrace::reattempt`] on every retry/resubmit/rehash.
    attempt: Span,
    /// The submission root. `None` on a hedge twin: the primary owns
    /// the root until the twin wins the race and inherits it.
    root: Option<Span>,
    /// The root span's id, valid on twins too; fresh attempts parent
    /// under it.
    root_id: u64,
}

impl PendingTrace {
    /// Mint a trace for one accepted submission: a `submit` root span
    /// plus its first `attempt` child.
    fn open(tracer: &Tracer, original_id: &str) -> PendingTrace {
        let ctx = TraceContext {
            trace_id: tracer.mint_trace_id(),
            parent_span: 0,
        };
        let mut root = tracer.span_in("submit", ctx);
        if !original_id.is_empty() {
            root.annotate("id", original_id);
        }
        let mut attempt = root.child("attempt");
        attempt.annotate("kind", "first");
        let root_id = root.id();
        PendingTrace {
            attempt,
            root: Some(root),
            root_id,
        }
    }

    /// The trace handle for a hedge twin: a sibling `attempt` under the
    /// primary's root, with no root of its own.
    fn twin(&self, tracer: &Tracer) -> PendingTrace {
        let mut attempt = tracer.span_under("attempt", self.trace_id(), self.root_id);
        attempt.annotate("kind", "hedge");
        PendingTrace {
            attempt,
            root: None,
            root_id: self.root_id,
        }
    }

    fn trace_id(&self) -> u64 {
        self.attempt.trace_id()
    }

    /// The context to stamp on the next outgoing line: the worker's
    /// `job` root parents under the current attempt.
    fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id(),
            parent_span: self.attempt.id(),
        }
    }

    /// Open a fresh attempt (`kind` = `"retry"`, `"resubmit"`, or
    /// `"rehash"`); the previous attempt records as it is replaced.
    fn reattempt(&mut self, tracer: &Tracer, kind: &'static str) {
        let mut attempt = tracer.span_under("attempt", self.trace_id(), self.root_id);
        attempt.annotate("kind", kind);
        self.attempt = attempt;
    }
}

enum ControlOp {
    Stats,
    Metrics,
    Shutdown,
    Drain,
    Trace {
        trace_id: Option<u64>,
        recent: usize,
    },
}

/// Per-shard FIFO of waiters for id-less control responses, keyed by
/// the response `op` each waiter expects.
type ControlLanes = HashMap<ShardId, VecDeque<(&'static str, SyncSender<Value>)>>;

/// The coordinator. Cheap to share; every method takes `&self`.
pub struct Coordinator {
    config: ClusterConfig,
    started: Instant,
    members: Mutex<HashMap<ShardId, Arc<Member>>>,
    map: Mutex<ShardMap>,
    pending: Mutex<HashMap<String, Pending>>,
    /// FIFO lanes of waiters for id-less control responses, per shard:
    /// a `stats` answer resolves the oldest waiter expecting `stats`.
    lanes: Mutex<ControlLanes>,
    seq: AtomicU64,
    running: AtomicBool,
    /// Raised when shutdown or drain begins. The broadcast makes workers
    /// exit while `running` is still true; from then on the supervisor
    /// must not respawn them, or the new worker outlives the cluster.
    stopping: AtomicBool,
    /// Held through every respawn, and by [`Coordinator::stop`] before
    /// it reaps children, so `stop` never passes a member whose
    /// replacement is still booting.
    respawn_gate: Mutex<()>,
    events_tx: Sender<Event>,
    outbox: Mutex<Vec<(u64, String)>>,
    waker: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Retries waiting out their backoff: `(fire_at, internal_id)`.
    retry_queue: Mutex<Vec<(Instant, String)>>,
    /// Present when `flight_recorder > 0`; mints trace ids and records
    /// the coordinator's routing/retry/hedge spans into `recorder`.
    tracer: Option<Tracer>,
    /// The coordinator's own ring of completed trace trees.
    recorder: Option<Arc<FlightRecorder>>,
    registry: Registry,
    routed: Counter,
    respawns: Counter,
    resubmitted: Counter,
    removed: Counter,
    retries: Counter,
    hedges: Counter,
    shed: Counter,
    members_gauge: Gauge,
}

impl Coordinator {
    /// Boot the cluster: spawn/attach every worker, handshake each one,
    /// and start the dispatcher and supervisor threads. On any boot
    /// failure all spawned children are killed before returning.
    pub fn start(config: ClusterConfig) -> io::Result<Arc<Coordinator>> {
        if config.workers == 0 && config.attach.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one worker (--workers or --attach)",
            ));
        }
        let (events_tx, events_rx) = channel();
        let registry = Registry::new();
        let recorder = if config.flight_recorder > 0 {
            Some(Arc::new(FlightRecorder::new(RecorderConfig {
                capacity: config.flight_recorder,
                slow_us: config.slow_ms.saturating_mul(1_000),
                sample_one_in: config.trace_sample,
            })))
        } else {
            None
        };
        let tracer = recorder
            .as_ref()
            .map(|r| Tracer::new(Arc::clone(r) as Arc<dyn SpanSink>));
        let coordinator = Arc::new(Coordinator {
            started: Instant::now(),
            members: Mutex::new(HashMap::new()),
            map: Mutex::new(ShardMap::default()),
            pending: Mutex::new(HashMap::new()),
            lanes: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            running: AtomicBool::new(true),
            stopping: AtomicBool::new(false),
            respawn_gate: Mutex::new(()),
            events_tx,
            outbox: Mutex::new(Vec::new()),
            waker: Mutex::new(None),
            routed: registry.counter("tsa_cluster_routed_total", "Jobs routed to a shard."),
            respawns: registry.counter("tsa_cluster_respawns_total", "Workers respawned."),
            resubmitted: registry.counter(
                "tsa_cluster_resubmitted_total",
                "In-flight jobs re-sent after a worker respawn or removal.",
            ),
            removed: registry.counter(
                "tsa_cluster_members_removed_total",
                "Members removed from the shard map.",
            ),
            retries: registry.counter(
                "tsa_cluster_retries_total",
                "Jobs re-sent after a retryable failure, within the retry budget.",
            ),
            hedges: registry.counter(
                "tsa_cluster_hedges_total",
                "Hedge twins raced against a slow shard.",
            ),
            shed: registry.counter(
                "tsa_cluster_shed_total",
                "Submissions refused because every eligible shard's breaker was open.",
            ),
            retry_queue: Mutex::new(Vec::new()),
            members_gauge: registry.gauge("tsa_cluster_members", "Current cluster member count."),
            tracer,
            recorder,
            registry,
            config,
        });

        {
            let c = Arc::clone(&coordinator);
            thread::Builder::new()
                .name("tsa-cluster-dispatch".into())
                .spawn(move || c.dispatch_loop(events_rx))?;
        }

        let booted = coordinator.boot_members();
        if let Err(e) = booted {
            coordinator.kill_children();
            coordinator.running.store(false, Ordering::SeqCst);
            return Err(e);
        }

        {
            let c = Arc::clone(&coordinator);
            thread::Builder::new()
                .name("tsa-cluster-supervise".into())
                .spawn(move || c.supervise())?;
        }

        // Retry backoffs and hedge launches need a fine-grained clock;
        // the thread only exists when either feature is on.
        if coordinator.config.retry_budget > 0.0 || coordinator.config.hedge_after_ms > 0 {
            let c = Arc::clone(&coordinator);
            thread::Builder::new()
                .name("tsa-cluster-robust".into())
                .spawn(move || c.robustness_loop())?;
        }
        Ok(coordinator)
    }

    fn boot_members(&self) -> io::Result<()> {
        for shard in 0..self.config.workers {
            self.spawn_member(shard)?;
        }
        for (i, addr) in self.config.attach.clone().iter().enumerate() {
            self.attach_member(self.config.workers + i as ShardId, addr)?;
        }
        let members: Vec<Arc<Member>> = self.sorted_members();
        for member in members {
            self.handshake(&member, Duration::from_secs(10))?;
        }
        Ok(())
    }

    /// Shards and addresses, for topology logging.
    pub fn topology(&self) -> Vec<(ShardId, SocketAddr, bool)> {
        self.sorted_members()
            .iter()
            .map(|m| {
                (
                    m.shard,
                    *m.addr.lock().unwrap(),
                    m.kind == MemberKind::Spawned,
                )
            })
            .collect()
    }

    /// False once `shutdown`/`drain` has run.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Install the front-door wake callback (poked whenever a response
    /// lands in the outbox from a worker or control thread).
    pub fn set_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        *self.waker.lock().unwrap() = Some(waker);
    }

    /// Drain queued front-door deliveries as `(conn, line)` pairs.
    pub fn take_outbox(&self) -> Vec<(u64, String)> {
        std::mem::take(&mut *self.outbox.lock().unwrap())
    }

    fn wake(&self) {
        if let Some(waker) = self.waker.lock().unwrap().as_ref() {
            waker();
        }
    }

    fn binary(&self) -> io::Result<PathBuf> {
        match &self.config.binary {
            Some(p) => Ok(p.clone()),
            None => std::env::current_exe(),
        }
    }

    fn spawn_options(&self, shard: ShardId) -> SpawnOptions {
        SpawnOptions {
            state_dir: self
                .config
                .state_dir
                .as_ref()
                .map(|d| d.join(format!("shard-{shard}"))),
            worker_threads: self.config.worker_threads,
            queue: self.config.queue,
            cache: self.config.cache,
            deadline_ms: self.config.deadline_ms,
            client_rate: self.config.client_rate,
            max_in_flight_per_client: self.config.max_in_flight_per_client,
            flight_recorder: (self.config.flight_recorder > 0)
                .then_some(self.config.flight_recorder),
            slow_ms: (self.config.slow_ms > 0).then_some(self.config.slow_ms),
            trace_sample: (self.config.trace_sample > 1).then_some(self.config.trace_sample),
        }
    }

    fn new_breaker(&self) -> Breaker {
        Breaker::new(self.config.breaker_threshold, self.config.breaker_cooldown)
    }

    fn sorted_members(&self) -> Vec<Arc<Member>> {
        let mut v: Vec<Arc<Member>> = self.members.lock().unwrap().values().cloned().collect();
        v.sort_by_key(|m| m.shard);
        v
    }

    fn spawn_member(&self, shard: ShardId) -> io::Result<()> {
        let binary = self.binary()?;
        let spawned = spawn_worker(&binary, shard, &self.spawn_options(shard))?;
        let generation = 1;
        let link = WorkerLink::connect(shard, spawned.addr, generation, self.events_tx.clone())?;
        let member = Arc::new(Member {
            shard,
            kind: MemberKind::Spawned,
            addr: Mutex::new(spawned.addr),
            link: Mutex::new(Some(Arc::new(link))),
            pid: AtomicU64::new(spawned.child.id() as u64),
            child: Mutex::new(Some(spawned.child)),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(generation),
            version: Mutex::new(String::new()),
            breaker: self.new_breaker(),
        });
        self.insert_member(member);
        Ok(())
    }

    fn attach_member(&self, shard: ShardId, addr: &str) -> io::Result<()> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("unresolvable {addr}"))
        })?;
        let generation = 1;
        let link = WorkerLink::connect(shard, addr, generation, self.events_tx.clone())?;
        let member = Arc::new(Member {
            shard,
            kind: MemberKind::Attached,
            addr: Mutex::new(addr),
            link: Mutex::new(Some(Arc::new(link))),
            pid: AtomicU64::new(0),
            child: Mutex::new(None),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(generation),
            version: Mutex::new(String::new()),
            breaker: self.new_breaker(),
        });
        self.insert_member(member);
        Ok(())
    }

    fn insert_member(&self, member: Arc<Member>) {
        let shard = member.shard;
        let mut members = self.members.lock().unwrap();
        members.insert(shard, member);
        self.members_gauge.set(members.len() as i64);
        drop(members);
        self.map.lock().unwrap().add(shard);
    }

    /// Verify a worker answers the protocol; learn its version/pid.
    fn handshake(&self, member: &Member, timeout: Duration) -> io::Result<()> {
        let shard = member.shard;
        let link = member.link.lock().unwrap().clone().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("shard {shard} has no link"),
            )
        })?;
        let (tx, rx) = sync_channel(1);
        self.lanes
            .lock()
            .unwrap()
            .entry(shard)
            .or_default()
            .push_back(("hello", tx));
        link.send("{\"op\":\"hello\"}")?;
        let value = rx.recv_timeout(timeout).map_err(|_| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("shard {shard} did not answer the hello handshake"),
            )
        })?;
        if member.kind == MemberKind::Spawned {
            match value.get("shard").and_then(Value::as_u64) {
                Some(s) if s == shard as u64 => {}
                got => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("worker at shard {shard} identifies as {got:?}"),
                    ))
                }
            }
        }
        if let Some(server) = value.get("server") {
            if let Some(pid) = server.get("pid").and_then(Value::as_u64) {
                member.pid.store(pid, Ordering::SeqCst);
            }
            if let Some(version) = server.get("version").and_then(Value::as_str) {
                *member.version.lock().unwrap() = version.to_string();
            }
        }
        Ok(())
    }

    // ---- dispatch -------------------------------------------------

    fn dispatch_loop(&self, events: Receiver<Event>) {
        loop {
            match events.recv_timeout(Duration::from_secs(1)) {
                Ok(event) => self.on_event(event),
                Err(RecvTimeoutError::Timeout) => {
                    if !self.is_running() {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    fn on_event(&self, event: Event) {
        match event {
            Event::Response { shard, line, value } => {
                if let Some(id) = value.get("id").and_then(Value::as_str) {
                    self.on_data_response(shard, id, &line, &value);
                } else {
                    let op = value.get("op").and_then(Value::as_str).unwrap_or("");
                    let waiter = {
                        let mut lanes = self.lanes.lock().unwrap();
                        lanes.get_mut(&shard).and_then(|q| {
                            q.iter()
                                .position(|(expect, _)| *expect == op)
                                .and_then(|at| q.remove(at))
                        })
                    };
                    if let Some((_, tx)) = waiter {
                        tx.send(value).ok();
                    }
                }
            }
            Event::Disconnected { shard, generation } => {
                let member = self.members.lock().unwrap().get(&shard).cloned();
                if let Some(m) = member {
                    if m.generation.load(Ordering::SeqCst) == generation {
                        m.alive.store(false, Ordering::SeqCst);
                        *m.link.lock().unwrap() = None;
                        self.lanes.lock().unwrap().remove(&shard);
                        // One disconnect = one breaker failure; a
                        // single crash never trips a threshold > 1.
                        m.breaker.record_failure();
                    }
                }
            }
        }
    }

    /// Resolve one data-plane response: feed the shard's breaker,
    /// settle hedge races, grant in-budget retries, deliver the rest.
    /// Unknown ids are duplicates from a pre-respawn delivery or a
    /// settled hedge race — dropped.
    fn on_data_response(&self, shard: ShardId, id: &str, line: &str, value: &Value) {
        let ok = value.get("ok").and_then(Value::as_bool).unwrap_or(false);
        let status = value.get("status").and_then(Value::as_str);
        // Breaker bookkeeping sees every response from the shard, even
        // ones whose pending entry is already gone: completed work is
        // evidence of health, failed work of sickness.
        if let Some(member) = self.members.lock().unwrap().get(&shard) {
            match status {
                Some("done") => member.breaker.record_success(),
                Some("deadline") | Some("failed") => member.breaker.record_failure(),
                _ => {}
            }
        }
        let Some(mut p) = self.pending.lock().unwrap().remove(id) else {
            return;
        };
        // Every settled attempt records its outcome (or error code) so
        // the stitched tree tells which attempt won and how each lost.
        let outcome_label = status
            .or_else(|| value.get("error").and_then(Value::as_str))
            .unwrap_or("unknown");
        if let Some(primary_id) = &p.hedge_of {
            // A hedge twin answered. A winning (ok) answer takes the
            // primary's reply; a losing one just leaves the race.
            let primary = if ok {
                self.pending.lock().unwrap().remove(primary_id)
            } else {
                if let Some(pr) = self.pending.lock().unwrap().get_mut(primary_id) {
                    pr.hedge = None;
                }
                None
            };
            if let Some(t) = p.trace.as_mut() {
                t.attempt.annotate("outcome", outcome_label);
                if !ok {
                    t.attempt.annotate("hedge_loser", true);
                }
            }
            if let Some(mut pr) = primary {
                // The twin won. Record its attempt *before* the
                // primary drops: the primary owns the root, and the
                // root's arrival completes the trace in the recorder.
                drop(p.trace.take());
                if let Some(t) = pr.trace.as_mut() {
                    t.attempt.annotate("hedge_loser", true);
                }
                if let Some(reply) = pr.reply.take() {
                    self.deliver(reply, restore_id(line, id, &p.original_id));
                }
            }
            return;
        }
        if let Some(hedge_id) = p.hedge.take() {
            if ok {
                if let Some(mut h) = self.pending.lock().unwrap().remove(&hedge_id) {
                    if let Some(t) = h.trace.as_mut() {
                        t.attempt.annotate("hedge_loser", true);
                    }
                    // `h` drops here: the losing twin's attempt records
                    // before the primary's root completes the trace.
                }
            } else {
                // The primary failed while its hedge still races: the
                // hedge inherits the reply — and the trace root, which
                // must not complete until the surviving attempt does —
                // and becomes the job.
                let mut pending = self.pending.lock().unwrap();
                if let Some(h) = pending.get_mut(&hedge_id) {
                    h.hedge_of = None;
                    h.reply = p.reply.take();
                    if let Some(pt) = p.trace.as_mut() {
                        pt.attempt.annotate("outcome", outcome_label);
                        if let Some(ht) = h.trace.as_mut() {
                            ht.root = pt.root.take();
                        }
                    }
                    return;
                }
            }
        }
        // A retryable failure: `failed` outcomes (crashed kernels) and
        // worker backpressure. Deadline expiry is not retried — the
        // client's budget is gone either way.
        let retryable = matches!(status, Some("failed"))
            || matches!(
                value.get("error").and_then(Value::as_str),
                Some("overloaded")
            );
        if !ok && retryable && p.attempts < RETRY_MAX_ATTEMPTS && self.retry_allowed() {
            if let Some(t) = p.trace.as_mut() {
                t.attempt.annotate("outcome", outcome_label);
            }
            let hint = value
                .get("retry_after_ms")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            self.schedule_retry(id.to_string(), p, hint);
            return;
        }
        if let Some(t) = p.trace.as_mut() {
            t.attempt.annotate("outcome", outcome_label);
        }
        if let Some(reply) = p.reply.take() {
            self.deliver(reply, restore_id(line, id, &p.original_id));
        }
    }

    /// True while the cluster-wide retry budget has room for one more
    /// retry: `retries ≤ budget% × routed`.
    fn retry_allowed(&self) -> bool {
        let pct = self.config.retry_budget;
        pct > 0.0 && ((self.retries.get() + 1) as f64) * 100.0 <= pct * (self.routed.get() as f64)
    }

    /// Park `p` back in the pending table and queue its re-send after a
    /// jittered exponential backoff, floored at the worker's
    /// `retry_after_ms` hint when one was given.
    fn schedule_retry(&self, id: String, mut p: Pending, hint_ms: u64) {
        let backoff = RETRY_BACKOFF_MS << (p.attempts.min(10) - 1);
        // Deterministic per-id jitter decorrelates simultaneous
        // failures without a global RNG.
        let jitter = fnv1a_str(&id) % (RETRY_BACKOFF_MS / 2).max(1);
        let wait = Duration::from_millis((backoff + jitter).max(hint_ms));
        p.attempts += 1;
        let fire_at = Instant::now() + wait;
        self.pending.lock().unwrap().insert(id.clone(), p);
        self.retry_queue.lock().unwrap().push((fire_at, id));
        self.retries.inc();
    }

    /// The fine-grained clock behind retries and hedging. Exists only
    /// when either feature is enabled; 10ms resolution.
    fn robustness_loop(&self) {
        while self.is_running() {
            thread::sleep(Duration::from_millis(10));
            self.fire_due_retries();
            if self.config.hedge_after_ms > 0 {
                self.launch_hedges();
            }
        }
    }

    fn fire_due_retries(&self) {
        let now = Instant::now();
        let due: Vec<String> = {
            let mut queue = self.retry_queue.lock().unwrap();
            let mut due = Vec::new();
            queue.retain(|(at, id)| {
                let fire = *at <= now;
                if fire {
                    due.push(id.clone());
                }
                !fire
            });
            due
        };
        for id in due {
            self.fire_retry(&id);
        }
    }

    /// Re-send one parked retry. The line re-renders with whatever
    /// remains of the client's deadline and re-routes through the
    /// breakers, so a retry never lands on a shard that tripped while
    /// it waited (and an expired job never reaches a worker at all).
    fn fire_retry(&self, id: &str) {
        let Some(mut p) = self.pending.lock().unwrap().remove(id) else {
            return; // answered by a duplicate delivery while parked
        };
        // A retry is a fresh attempt under the same root; the new
        // attempt span must exist before the line re-renders so the
        // outgoing stamp parents under it.
        if let (Some(t), Some(tracer)) = (p.trace.as_mut(), self.tracer.as_ref()) {
            t.reattempt(tracer, "retry");
            p.req.trace = Some(t.context());
        }
        let trace_id = p.trace.as_ref().map(PendingTrace::trace_id).unwrap_or(0);
        let Some(line) = line_for(&mut p) else {
            if let Some(t) = p.trace.as_mut() {
                t.attempt.annotate("outcome", "deadline");
            }
            if let Some(reply) = p.reply {
                self.deliver(
                    reply,
                    error_line(
                        &p.original_id,
                        "deadline",
                        "deadline exceeded while waiting to retry",
                        trace_id,
                    ),
                );
            }
            return;
        };
        match self.route_admitted(&p.uid) {
            Ok(shard) => {
                p.shard = shard;
                if let Some(t) = p.trace.as_mut() {
                    t.attempt.annotate("shard", shard as u64);
                }
                self.pending.lock().unwrap().insert(id.to_string(), p);
                self.send_to(shard, &line);
            }
            Err(None) => {
                if let Some(t) = p.trace.as_mut() {
                    t.attempt.annotate("outcome", "unavailable");
                }
                if let Some(reply) = p.reply {
                    self.deliver(
                        reply,
                        error_line(&p.original_id, "unavailable", "no live workers", trace_id),
                    );
                }
            }
            Err(Some(retry_after)) => {
                self.shed.inc();
                if let Some(t) = p.trace.as_mut() {
                    t.attempt.annotate("outcome", "shed");
                }
                if let Some(reply) = p.reply {
                    self.deliver(
                        reply,
                        error_line_with_retry(
                            &p.original_id,
                            "unavailable",
                            "every eligible shard's circuit breaker is open",
                            retry_after,
                            trace_id,
                        ),
                    );
                }
            }
        }
    }

    /// Race a second copy of every submission pending longer than the
    /// hedge threshold on its runner-up shard; first response wins.
    fn launch_hedges(&self) {
        let threshold = Duration::from_millis(self.config.hedge_after_ms);
        let now = Instant::now();
        let candidates: Vec<String> = self
            .pending
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, p)| {
                p.hedge.is_none()
                    && p.hedge_of.is_none()
                    && now.duration_since(p.submitted_at) >= threshold
            })
            .map(|(id, _)| id.clone())
            .collect();
        for id in candidates {
            self.launch_hedge(&id);
        }
    }

    fn launch_hedge(&self, id: &str) {
        let snapshot = {
            let pending = self.pending.lock().unwrap();
            pending.get(id).map(|p| {
                (
                    p.uid.clone(),
                    p.shard,
                    p.req.clone(),
                    p.original_id.clone(),
                    p.submitted_at,
                )
            })
        };
        let Some((uid, primary_shard, req, original_id, submitted_at)) = snapshot else {
            return;
        };
        let Some(alt) = self
            .map
            .lock()
            .unwrap()
            .route_excluding(&uid, primary_shard)
        else {
            return;
        };
        // The hedge respects the alternate's breaker like any submit.
        let admitted = match self.members.lock().unwrap().get(&alt) {
            Some(m) => !matches!(m.breaker.admit(), Admission::Deny { .. }),
            None => false,
        };
        if !admitted {
            return;
        }
        let twin_id = format!("{original_id}#@{}", self.seq.fetch_add(1, Ordering::SeqCst));
        let mut twin_req = req;
        twin_req.tag = twin_id.clone();
        // The twin is a sibling attempt under the primary's root; it
        // carries its own span but never the root, which stays with
        // the primary unless the primary loses the race first.
        let mut twin_trace = self.tracer.as_ref().and_then(|tracer| {
            let pending = self.pending.lock().unwrap();
            pending.get(id).and_then(|p| p.trace.as_ref()).map(|t| {
                let mut tt = t.twin(tracer);
                tt.attempt.annotate("shard", alt as u64);
                tt
            })
        });
        if let Some(tt) = twin_trace.as_ref() {
            twin_req.trace = Some(tt.context());
        }
        let Some(base_line) = protocol::render_submit(&twin_req) else {
            return;
        };
        let mut twin = Pending {
            shard: alt,
            uid,
            original_id,
            line: base_line,
            reply: None,
            req: twin_req,
            submitted_at,
            attempts: 1,
            hedge: None,
            hedge_of: Some(id.to_string()),
            trace: twin_trace.take(),
        };
        let Some(line) = line_for(&mut twin) else {
            return; // deadline already spent; nothing to race
        };
        {
            // Link under one lock so a response racing this launch
            // either sees both entries or neither.
            let mut pending = self.pending.lock().unwrap();
            let Some(p) = pending.get_mut(id) else { return };
            if p.hedge.is_some() {
                return;
            }
            p.hedge = Some(twin_id.clone());
            pending.insert(twin_id, twin);
        }
        self.hedges.inc();
        self.send_to(alt, &line);
    }

    /// Pick the shard for `uid`, honoring breakers: the rendezvous
    /// owner when its breaker admits, otherwise the runner-up,
    /// otherwise a shed decision carrying the shortest wait until a
    /// probe window. `Err(None)` means the map is empty.
    fn route_admitted(&self, uid: &str) -> Result<ShardId, Option<Duration>> {
        let map = self.map.lock().unwrap().clone();
        let Some(owner) = map.route(uid) else {
            return Err(None);
        };
        match self.admit(owner) {
            Admission::Allow | Admission::Probe => Ok(owner),
            Admission::Deny { retry_after } => match map.route_excluding(uid, owner) {
                None => Err(Some(retry_after)),
                Some(alt) => match self.admit(alt) {
                    Admission::Allow | Admission::Probe => Ok(alt),
                    Admission::Deny {
                        retry_after: alt_after,
                    } => Err(Some(retry_after.min(alt_after))),
                },
            },
        }
    }

    fn admit(&self, shard: ShardId) -> Admission {
        match self.members.lock().unwrap().get(&shard) {
            Some(m) => m.breaker.admit(),
            None => Admission::Deny {
                retry_after: Duration::from_millis(1),
            },
        }
    }

    /// Best-effort send of one line to a shard's link. A failure
    /// surfaces as a disconnect; the supervisor resubmits after the
    /// respawn.
    fn send_to(&self, shard: ShardId, line: &str) {
        let link = self
            .members
            .lock()
            .unwrap()
            .get(&shard)
            .and_then(|m| m.link.lock().unwrap().clone());
        if let Some(link) = link {
            link.send(line).ok();
        }
    }

    fn deliver(&self, reply: ReplyTo, line: String) {
        match reply {
            ReplyTo::Blocking(tx) => {
                tx.send(line).ok();
            }
            ReplyTo::Conn { conn } => {
                self.outbox.lock().unwrap().push((conn, line));
                self.wake();
            }
        }
    }

    // ---- data plane -----------------------------------------------

    /// Route one submission to its content-owning shard. The response
    /// (or an immediate refusal) arrives through `reply`.
    pub fn submit(&self, mut req: AlignRequest, reply: ReplyTo) {
        let original = req.tag.clone();
        let uid = content_uid(&req);
        let internal = format!("{original}#@{}", self.seq.fetch_add(1, Ordering::SeqCst));
        req.tag = internal.clone();
        let mut trace = self
            .tracer
            .as_ref()
            .map(|t| PendingTrace::open(t, &original));
        let trace_id = trace.as_ref().map_or(0, PendingTrace::trace_id);
        // One stamp per outgoing line: the trace context is written into
        // the request *before* every render, so the worker's `job` span
        // parents under the attempt that actually carried it.
        if let Some(t) = &trace {
            req.trace = Some(t.context());
        }
        let line = match protocol::render_submit(&req) {
            Some(line) => line,
            None => {
                if let Some(t) = trace.as_mut() {
                    if let Some(root) = t.root.as_mut() {
                        root.annotate("rejected", "unserializable");
                    }
                }
                self.deliver(
                    reply,
                    error_line(
                        &original,
                        "unserializable",
                        "custom scoring cannot be forwarded over the cluster wire",
                        trace_id,
                    ),
                );
                return;
            }
        };
        let shard = match self.route_admitted(&uid) {
            Ok(shard) => shard,
            Err(None) => {
                if let Some(t) = trace.as_mut() {
                    if let Some(root) = t.root.as_mut() {
                        root.annotate("rejected", "no live workers");
                    }
                }
                self.deliver(
                    reply,
                    error_line(&original, "unavailable", "no live workers", trace_id),
                );
                return;
            }
            Err(Some(retry_after)) => {
                self.shed.inc();
                if let Some(t) = trace.as_mut() {
                    if let Some(root) = t.root.as_mut() {
                        root.annotate("shed", "breaker_open");
                    }
                }
                self.deliver(
                    reply,
                    error_line_with_retry(
                        &original,
                        "unavailable",
                        "every eligible shard's circuit breaker is open",
                        retry_after,
                        trace_id,
                    ),
                );
                return;
            }
        };
        if let Some(t) = trace.as_mut() {
            t.attempt.annotate("shard", shard as u64);
        }
        self.pending.lock().unwrap().insert(
            internal,
            Pending {
                shard,
                uid,
                original_id: original,
                line: line.clone(),
                reply: Some(reply),
                req,
                submitted_at: Instant::now(),
                attempts: 1,
                hedge: None,
                hedge_of: None,
                trace,
            },
        );
        self.routed.inc();
        // A send failure surfaces as a disconnect; the supervisor will
        // resubmit this pending entry after the respawn.
        self.send_to(shard, &line);
    }

    // ---- chaos hooks ----------------------------------------------
    //
    // Narrow, deliberately low-level handles for the `tsa-chaos`
    // harness: address real processes and sockets (not mocks), so a
    // chaos schedule exercises the same supervise/respawn/resubmit
    // paths a production incident would.

    /// The OS pid of a shard's worker process (0 until the handshake
    /// learns it for attached members).
    pub fn shard_pid(&self, shard: ShardId) -> Option<u64> {
        self.members
            .lock()
            .unwrap()
            .get(&shard)
            .map(|m| m.pid.load(Ordering::SeqCst))
    }

    /// Shards the coordinator itself spawned (and therefore supervises
    /// with full kill/respawn authority), sorted.
    pub fn spawned_shards(&self) -> Vec<ShardId> {
        let mut v: Vec<ShardId> = self
            .members
            .lock()
            .unwrap()
            .values()
            .filter(|m| m.kind == MemberKind::Spawned)
            .map(|m| m.shard)
            .collect();
        v.sort_unstable();
        v
    }

    /// The on-disk state directory a spawned shard journals into, when
    /// the cluster runs durable (`--state-dir`). This is the directory
    /// chaos corruption injectors flip bits in.
    pub fn shard_state_dir(&self, shard: ShardId) -> Option<PathBuf> {
        self.config
            .state_dir
            .as_ref()
            .map(|d| d.join(format!("shard-{shard}")))
    }

    /// SIGKILL a spawned shard's worker process. The supervisor notices
    /// the child's exit and respawns it; in-flight jobs are resubmitted
    /// after the journal replay. Returns false for unknown/attached
    /// shards.
    pub fn kill_shard(&self, shard: ShardId) -> bool {
        self.signal_spawned(shard, 9)
    }

    /// SIGSTOP a spawned shard: the process freezes without exiting, so
    /// the supervisor does *not* respawn it — jobs routed there stall
    /// until hedging/retry or [`Coordinator::resume_shard`].
    pub fn pause_shard(&self, shard: ShardId) -> bool {
        self.signal_spawned(shard, 19)
    }

    /// SIGCONT a shard previously paused with [`Coordinator::pause_shard`].
    pub fn resume_shard(&self, shard: ShardId) -> bool {
        self.signal_spawned(shard, 18)
    }

    /// Sever the coordinator↔worker TCP connection without touching the
    /// process: the reader thread sees EOF, `Disconnected` fires, and
    /// the normal reconnect (attached) or respawn (spawned) path runs.
    pub fn sever_shard_link(&self, shard: ShardId) -> bool {
        let link = self
            .members
            .lock()
            .unwrap()
            .get(&shard)
            .and_then(|m| m.link.lock().unwrap().clone());
        match link {
            Some(link) => {
                link.sever().ok();
                true
            }
            None => false,
        }
    }

    fn signal_spawned(&self, shard: ShardId, sig: i32) -> bool {
        let pid = match self.members.lock().unwrap().get(&shard) {
            Some(m) if m.kind == MemberKind::Spawned => m.pid.load(Ordering::SeqCst),
            _ => return false,
        };
        if pid == 0 {
            return false;
        }
        #[cfg(unix)]
        {
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            // SAFETY: kill(2) with a pid we spawned; worst case the pid
            // was already reaped and the call fails with ESRCH.
            unsafe { kill(pid as i32, sig) == 0 }
        }
        #[cfg(not(unix))]
        {
            let _ = (pid, sig);
            false
        }
    }

    // ---- supervision ----------------------------------------------

    fn supervise(&self) {
        while self.is_running() {
            thread::sleep(self.config.heartbeat);
            if !self.is_running() {
                break;
            }
            for member in self.sorted_members() {
                match member.kind {
                    MemberKind::Spawned => {
                        let exited = {
                            let mut child = member.child.lock().unwrap();
                            match child.as_mut() {
                                Some(c) => matches!(c.try_wait(), Ok(Some(_))),
                                None => true,
                            }
                        };
                        if exited || !member.alive.load(Ordering::SeqCst) {
                            if !self.is_running() {
                                break;
                            }
                            if let Err(e) = self.respawn(&member) {
                                eprintln!(
                                    "# tsa cluster: respawn of shard {} failed: {e}",
                                    member.shard
                                );
                            }
                        }
                    }
                    MemberKind::Attached => {
                        if member.alive.load(Ordering::SeqCst) {
                            if !self.ping(&member) {
                                member.alive.store(false, Ordering::SeqCst);
                            }
                        } else if self.reconnect(&member).is_err() {
                            self.remove_member(member.shard);
                        }
                    }
                }
            }
        }
    }

    fn respawn(&self, member: &Member) -> io::Result<()> {
        let _gate = self.respawn_gate.lock().unwrap();
        if self.stopping.load(Ordering::SeqCst) {
            return Ok(());
        }
        {
            let mut child = member.child.lock().unwrap();
            if let Some(c) = child.as_mut() {
                c.kill().ok();
                c.wait().ok();
            }
            *child = None;
        }
        let binary = self.binary()?;
        let spawned = spawn_worker(&binary, member.shard, &self.spawn_options(member.shard))?;
        {
            let mut child = member.child.lock().unwrap();
            if self.stopping.load(Ordering::SeqCst) {
                // Shutdown began while this worker booted: reap it here
                // instead of handing `stop` a child it may never see.
                let mut orphan = spawned.child;
                orphan.kill().ok();
                orphan.wait().ok();
                return Ok(());
            }
            member
                .pid
                .store(spawned.child.id() as u64, Ordering::SeqCst);
            *child = Some(spawned.child);
        }
        let generation = member.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let link = Arc::new(WorkerLink::connect(
            member.shard,
            spawned.addr,
            generation,
            self.events_tx.clone(),
        )?);
        *member.addr.lock().unwrap() = spawned.addr;
        *member.link.lock().unwrap() = Some(link);
        member.alive.store(true, Ordering::SeqCst);
        self.handshake(member, Duration::from_secs(10))?;
        self.respawns.inc();
        eprintln!(
            "# tsa cluster: respawned shard {} (pid {})",
            member.shard,
            member.pid.load(Ordering::SeqCst)
        );
        self.resubmit_shard(member.shard);
        Ok(())
    }

    fn reconnect(&self, member: &Member) -> io::Result<()> {
        let addr = *member.addr.lock().unwrap();
        let generation = member.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let link = Arc::new(WorkerLink::connect(
            member.shard,
            addr,
            generation,
            self.events_tx.clone(),
        )?);
        *member.link.lock().unwrap() = Some(link);
        member.alive.store(true, Ordering::SeqCst);
        self.handshake(member, Duration::from_secs(5))?;
        self.resubmit_shard(member.shard);
        Ok(())
    }

    fn ping(&self, member: &Member) -> bool {
        let link = match member.link.lock().unwrap().clone() {
            Some(l) => l,
            None => return false,
        };
        let (tx, rx) = sync_channel(1);
        self.lanes
            .lock()
            .unwrap()
            .entry(member.shard)
            .or_default()
            .push_back(("pong", tx));
        if link.send("{\"op\":\"ping\"}").is_err() {
            return false;
        }
        rx.recv_timeout(Duration::from_secs(5)).is_ok()
    }

    /// Re-send every pending submission owned by `shard` to its (new)
    /// link. Workers that journal will answer replays of already
    /// completed content from their recovered cache. Each line is
    /// re-rendered with the deadline that remains; jobs whose deadline
    /// expired during the outage are answered here instead of burning
    /// a fresh worker's cycles.
    fn resubmit_shard(&self, shard: ShardId) {
        let ids: Vec<String> = self
            .pending
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, p)| p.shard == shard)
            .map(|(id, _)| id.clone())
            .collect();
        if ids.is_empty() {
            return;
        }
        let link = self
            .members
            .lock()
            .unwrap()
            .get(&shard)
            .and_then(|m| m.link.lock().unwrap().clone());
        for id in ids {
            let line = {
                let mut pending = self.pending.lock().unwrap();
                let Some(p) = pending.get_mut(&id) else {
                    continue;
                };
                if let (Some(t), Some(tracer)) = (p.trace.as_mut(), self.tracer.as_ref()) {
                    t.reattempt(tracer, "resubmit");
                    t.attempt.annotate("shard", shard as u64);
                    p.req.trace = Some(t.context());
                }
                match line_for(p) {
                    Some(line) => line,
                    None => {
                        let mut p = pending.remove(&id).expect("entry present under lock");
                        drop(pending);
                        let trace_id = p.trace.as_ref().map(PendingTrace::trace_id).unwrap_or(0);
                        if let Some(t) = p.trace.as_mut() {
                            t.attempt.annotate("outcome", "deadline");
                        }
                        if let Some(reply) = p.reply {
                            self.deliver(
                                reply,
                                error_line(
                                    &p.original_id,
                                    "deadline",
                                    "deadline exceeded during a worker respawn",
                                    trace_id,
                                ),
                            );
                        }
                        continue;
                    }
                }
            };
            if let Some(link) = &link {
                if link.send(&line).is_err() {
                    break;
                }
                self.resubmitted.inc();
            }
        }
    }

    /// Drop an unreachable member and rehash: only the departed
    /// shard's pending jobs move (rendezvous-hash guarantee); each is
    /// re-routed to its new owner or failed when no workers remain.
    fn remove_member(&self, shard: ShardId) {
        {
            let mut members = self.members.lock().unwrap();
            if members.remove(&shard).is_none() {
                return;
            }
            self.members_gauge.set(members.len() as i64);
        }
        self.map.lock().unwrap().remove(shard);
        self.lanes.lock().unwrap().remove(&shard);
        self.removed.inc();
        eprintln!("# tsa cluster: removed unreachable shard {shard}; rehashing its jobs");
        let orphans: Vec<String> = self
            .pending
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, p)| p.shard == shard)
            .map(|(id, _)| id.clone())
            .collect();
        for id in orphans {
            let entry = self.pending.lock().unwrap().remove(&id);
            let Some(mut p) = entry else { continue };
            if let (Some(t), Some(tracer)) = (p.trace.as_mut(), self.tracer.as_ref()) {
                t.reattempt(tracer, "rehash");
                p.req.trace = Some(t.context());
            }
            let trace_id = p.trace.as_ref().map(PendingTrace::trace_id).unwrap_or(0);
            let Some(line) = line_for(&mut p) else {
                if let Some(t) = p.trace.as_mut() {
                    t.attempt.annotate("outcome", "deadline");
                }
                if let Some(reply) = p.reply {
                    self.deliver(
                        reply,
                        error_line(
                            &p.original_id,
                            "deadline",
                            "deadline exceeded while rehashing a departed shard",
                            trace_id,
                        ),
                    );
                }
                continue;
            };
            match self.map.lock().unwrap().route(&p.uid) {
                Some(new_shard) => {
                    p.shard = new_shard;
                    if let Some(t) = p.trace.as_mut() {
                        t.attempt.annotate("shard", new_shard as u64);
                    }
                    self.pending.lock().unwrap().insert(id, p);
                    self.send_to(new_shard, &line);
                    self.resubmitted.inc();
                }
                None => {
                    if let Some(t) = p.trace.as_mut() {
                        t.attempt.annotate("outcome", "unavailable");
                    }
                    if let Some(reply) = p.reply {
                        self.deliver(
                            reply,
                            error_line(
                                &p.original_id,
                                "unavailable",
                                "all workers departed",
                                trace_id,
                            ),
                        )
                    }
                }
            }
        }
    }

    fn kill_children(&self) {
        for member in self.sorted_members() {
            if let Some(mut child) = member.child.lock().unwrap().take() {
                child.kill().ok();
                child.wait().ok();
            }
        }
    }

    // ---- control plane --------------------------------------------

    /// Send `request` to every live worker and gather responses whose
    /// `op` equals `expect`, within one shared deadline.
    fn collect_control(
        &self,
        request: &str,
        expect: &'static str,
        timeout: Duration,
    ) -> Vec<(ShardId, Value)> {
        let mut waits = Vec::new();
        for member in self.sorted_members() {
            if !member.alive.load(Ordering::SeqCst) {
                continue;
            }
            let link = match member.link.lock().unwrap().clone() {
                Some(l) => l,
                None => continue,
            };
            let (tx, rx) = sync_channel(1);
            self.lanes
                .lock()
                .unwrap()
                .entry(member.shard)
                .or_default()
                .push_back((expect, tx));
            if link.send(request).is_ok() {
                waits.push((member.shard, rx));
            }
        }
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        for (shard, rx) in waits {
            let left = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            if let Ok(value) = rx.recv_timeout(left) {
                out.push((shard, value));
            }
        }
        out
    }

    /// Cluster-wide `stats`: coordinator section, summed counters, and
    /// a per-shard breakdown.
    pub fn stats_line(&self) -> String {
        let rows = self.collect_control("{\"op\":\"stats\"}", "stats", Duration::from_secs(10));
        self.render_aggregate("stats", &rows)
    }

    /// Cluster-wide `trace`: by id, stitch the coordinator's recorded
    /// spans with each worker's subtree (fetched by fanning the `trace`
    /// op out over the control lanes) into one tree; `recent` answers
    /// from the coordinator's recorder alone, which retains every
    /// notable (failed/shed/retried/hedged/slow) submission.
    pub fn trace_line(&self, trace_id: Option<u64>, recent: usize) -> String {
        let Some(recorder) = self.recorder.as_ref() else {
            return protocol::render_trace_unavailable();
        };
        let Some(id) = trace_id else {
            return protocol::render_trace_response(&recorder.recent(recent));
        };
        let mut tree = recorder.get(id);
        let request = format!("{{\"op\":\"trace\",\"trace_id\":\"{id:016x}\"}}");
        let rows = self.collect_control(&request, "trace", Duration::from_secs(10));
        let mut worker_spans = Vec::new();
        let mut workers_notable = false;
        for (shard, value) in &rows {
            for wtree in protocol::parse_trace_trees(value) {
                workers_notable |= wtree.notable;
                for mut span in wtree.spans {
                    // A worker reports its own spans unsharded; tag
                    // them with the shard they came from so ids from
                    // different workers can never collide in the tree.
                    if span.shard.is_none() {
                        span.shard = Some(*shard as u64);
                    }
                    worker_spans.push(span);
                }
            }
        }
        if tree.is_none() && !worker_spans.is_empty() {
            // The coordinator's ring evicted (or sampled out) its half,
            // but a worker still holds the job subtree — serve that.
            tree = Some(TraceTree {
                trace_id: id,
                notable: workers_notable,
                spans: Vec::new(),
            });
        }
        match tree {
            Some(mut tree) => {
                // Worker spans append *after* the coordinator's own:
                // same-shard parents must appear later in arrival
                // order, and cross-shard parents resolve against the
                // coordinator's unsharded id space.
                tree.spans.extend(worker_spans);
                protocol::render_trace_response(&[tree])
            }
            None => protocol::render_trace_response(&[]),
        }
    }

    /// Cluster-wide `metrics`: every worker's exposition merged with
    /// the coordinator's own registry (summed families plus per-shard
    /// labeled series).
    pub fn metrics_line(&self) -> String {
        let rows = self.collect_control("{\"op\":\"metrics\"}", "metrics", Duration::from_secs(10));
        let mut parts: Vec<(String, String)> = rows
            .iter()
            .filter_map(|(shard, v)| {
                v.get("body")
                    .and_then(Value::as_str)
                    .map(|body| (shard.to_string(), body.to_string()))
            })
            .collect();
        let mut own = self.registry.expose();
        if self.config.breaker_threshold > 0 {
            // Hand-rolled gauge family: one series per member. The
            // label is `member=` (not `shard=`) because the merge
            // below tags every coordinator series with
            // `shard="coordinator"` and a label may not repeat.
            own.push_str(concat!(
                "# HELP tsa_cluster_breaker_state Circuit breaker state per member ",
                "(0 closed, 1 open, 2 half-open).\n",
                "# TYPE tsa_cluster_breaker_state gauge\n",
            ));
            for m in self.sorted_members() {
                own.push_str(&format!(
                    "tsa_cluster_breaker_state{{member=\"{}\"}} {}\n",
                    m.shard,
                    m.breaker.state().code()
                ));
            }
        }
        if let Some(recorder) = self.recorder.as_ref() {
            // Same hand-rolled families the worker engine exposes, so
            // the merge sums worker and coordinator recorders alike.
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
                own.push_str(&format!(
                    "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
                ));
            }
        }
        parts.push(("coordinator".to_string(), own));
        protocol::render_metrics(&tsa_obs::aggregate::merge_expositions(&parts))
    }

    /// Cluster topology: every member's shard, address, liveness, pid.
    pub fn shard_info_line(&self) -> String {
        let members = self.sorted_members();
        let rows = members
            .iter()
            .map(|m| {
                JsonObject::new()
                    .u64("shard", m.shard as u64)
                    .str("addr", &m.addr.lock().unwrap().to_string())
                    .bool("alive", m.alive.load(Ordering::SeqCst))
                    .bool("spawned", m.kind == MemberKind::Spawned)
                    .u64("pid", m.pid.load(Ordering::SeqCst))
                    .str("version", &m.version.lock().unwrap())
            })
            .collect();
        JsonObject::new()
            .bool("ok", true)
            .str("op", "shard_info")
            .str("scope", "cluster")
            .u64("workers", members.len() as u64)
            .objects("members", rows)
            .finish()
    }

    /// Coordinator-level handshake answer.
    pub fn hello_line(&self) -> String {
        JsonObject::new()
            .bool("ok", true)
            .str("op", "hello")
            .u64("proto", 1)
            .str("scope", "cluster")
            .u64("workers", self.members.lock().unwrap().len() as u64)
            .finish()
    }

    /// Coordinator-level liveness answer.
    pub fn pong_line(&self, seq: Option<u64>) -> String {
        let obj = JsonObject::new().bool("ok", true).str("op", "pong");
        let obj = match seq {
            Some(seq) => obj.u64("seq", seq),
            None => obj,
        };
        obj.u64(
            "uptime_ms",
            self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
        )
        .finish()
    }

    /// Broadcast `shutdown` or `drain`, aggregate the final counters,
    /// reap children, and stop the coordinator threads.
    pub fn shutdown(&self, op: &'static str) -> String {
        let line = self.broadcast_shutdown(op);
        self.stop();
        line
    }

    /// The collection half of [`Coordinator::shutdown`]: broadcast the
    /// op and render the final aggregate, leaving the coordinator
    /// running so the caller can still deliver the response line.
    fn broadcast_shutdown(&self, op: &'static str) -> String {
        self.stopping.store(true, Ordering::SeqCst);
        let request = format!("{{\"op\":\"{op}\"}}");
        let rows = self.collect_control(&request, op, Duration::from_secs(60));
        self.render_aggregate(op, &rows)
    }

    /// The teardown half of [`Coordinator::shutdown`]: stop the event
    /// loop and dispatcher, then reap spawned children. A second call
    /// returns once the first has reaped them (both take `respawn_gate`).
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.running.store(false, Ordering::SeqCst);
        let _gate = self.respawn_gate.lock().unwrap();
        for member in self.sorted_members() {
            if let Some(mut child) = member.child.lock().unwrap().take() {
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    if matches!(child.try_wait(), Ok(Some(_))) {
                        break;
                    }
                    if Instant::now() >= deadline {
                        child.kill().ok();
                        child.wait().ok();
                        break;
                    }
                    thread::sleep(Duration::from_millis(20));
                }
            }
            member.alive.store(false, Ordering::SeqCst);
        }
        self.wake();
    }

    fn render_aggregate(&self, op: &str, rows: &[(ShardId, Value)]) -> String {
        let mut sums = [0u64; SUM_FIELDS.len()];
        // Histogram bucket arrays sum element-wise; quantiles are then
        // derived from the merged histogram. Summing the workers'
        // per-shard percentiles would be statistically meaningless.
        const BUCKET_FIELDS: [&str; 3] =
            ["latency_buckets", "queue_wait_buckets", "kernel_buckets"];
        let mut bucket_sums: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut shard_rows = Vec::new();
        for (shard, value) in rows {
            for (bi, field) in BUCKET_FIELDS.iter().enumerate() {
                if let Some(Value::Arr(items)) = value.get(field) {
                    let acc = &mut bucket_sums[bi];
                    if acc.len() < items.len() {
                        acc.resize(items.len(), 0);
                    }
                    for (i, item) in items.iter().enumerate() {
                        acc[i] += item.as_u64().unwrap_or(0);
                    }
                }
            }
            let mut row = JsonObject::new().u64("shard", *shard as u64);
            if let Some(server) = value.get("server") {
                if let Some(version) = server.get("version").and_then(Value::as_str) {
                    row = row.str("version", version);
                }
                if let Some(pid) = server.get("pid").and_then(Value::as_u64) {
                    row = row.u64("pid", pid);
                }
                if let Some(uptime) = server.get("uptime_ms").and_then(Value::as_u64) {
                    row = row.u64("uptime_ms", uptime);
                }
            }
            for (i, field) in SUM_FIELDS.iter().enumerate() {
                if let Some(n) = value.get(field).and_then(Value::as_u64) {
                    sums[i] += n;
                    row = row.u64(field, n);
                }
            }
            // Per-client lane counters pass through verbatim so a
            // cluster `stats` shows each worker's fairness picture.
            if let Some(Value::Arr(items)) = value.get("lanes") {
                let lane_rows: Vec<JsonObject> = items
                    .iter()
                    .filter_map(|lane| {
                        let client = lane.get("client")?.as_str()?;
                        let field = |key| lane.get(key).and_then(Value::as_u64).unwrap_or_default();
                        Some(
                            JsonObject::new()
                                .str("client", client)
                                .u64("queued", field("queued"))
                                .u64("in_flight", field("in_flight"))
                                .u64("submitted", field("submitted"))
                                .u64("rejected", field("rejected")),
                        )
                    })
                    .collect();
                if !lane_rows.is_empty() {
                    row = row.objects("lanes", lane_rows);
                }
            }
            if self.config.breaker_threshold > 0 {
                if let Some(m) = self.members.lock().unwrap().get(shard) {
                    row = row.str("breaker", m.breaker.state().name());
                }
            }
            shard_rows.push(row);
        }
        let (workers, alive) = {
            let members = self.members.lock().unwrap();
            (
                members.len(),
                members
                    .values()
                    .filter(|m| m.alive.load(Ordering::SeqCst))
                    .count(),
            )
        };
        let coordinator = JsonObject::new()
            .u64("workers", workers as u64)
            .u64("alive", alive as u64)
            .u64("routed", self.routed.get())
            .u64("respawns", self.respawns.get())
            .u64("resubmitted", self.resubmitted.get())
            .u64("removed", self.removed.get())
            .u64("retries", self.retries.get())
            .u64("hedges", self.hedges.get())
            .u64("shed", self.shed.get());
        let mut obj = JsonObject::new()
            .bool("ok", true)
            .str("op", op)
            .str("scope", "cluster")
            .object("coordinator", coordinator);
        for (i, field) in SUM_FIELDS.iter().enumerate() {
            obj = obj.u64(field, sums[i]);
        }
        for (bi, prefix) in ["latency", "queue_wait", "kernel"].iter().enumerate() {
            let buckets = &bucket_sums[bi];
            if buckets.is_empty() {
                continue;
            }
            for (q, tag) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                obj = obj.u64(
                    &format!("{prefix}_{tag}_us"),
                    tsa_obs::metrics::quantile_upper_bound(buckets, q),
                );
            }
        }
        obj.objects("shards", shard_rows).finish()
    }

    // ---- front-door line handling ---------------------------------

    /// Handle one NDJSON line from a front-door connection. Returns
    /// lines to write immediately; submissions and cluster-wide
    /// control answers arrive later through the outbox.
    pub fn handle_front_line(self: &Arc<Self>, conn: u64, line: &str) -> Vec<String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Vec::new();
        }
        let owned;
        let text = if trimmed.contains("\"op\"") {
            trimmed
        } else {
            owned = format!("{{\"op\":\"submit\",{}", trimmed.trim_start_matches('{'));
            &owned
        };
        match protocol::parse_request(text) {
            Err(err) => vec![protocol::render_protocol_error(&err)],
            Ok(Request::Submit(req)) => {
                self.submit(*req, ReplyTo::Conn { conn });
                Vec::new()
            }
            Ok(Request::Hello) => vec![self.hello_line()],
            Ok(Request::Ping { seq }) => vec![self.pong_line(seq)],
            Ok(Request::ShardInfo) => vec![self.shard_info_line()],
            Ok(Request::Stats) => {
                self.spawn_control(conn, ControlOp::Stats);
                Vec::new()
            }
            Ok(Request::Metrics) => {
                self.spawn_control(conn, ControlOp::Metrics);
                Vec::new()
            }
            Ok(Request::Shutdown) => {
                self.spawn_control(conn, ControlOp::Shutdown);
                Vec::new()
            }
            Ok(Request::Drain) => {
                self.spawn_control(conn, ControlOp::Drain);
                Vec::new()
            }
            Ok(Request::Trace { trace_id, recent }) => {
                // Stitching fans out to the workers, so it blocks like
                // stats/metrics and answers through the outbox.
                self.spawn_control(conn, ControlOp::Trace { trace_id, recent });
                Vec::new()
            }
        }
    }

    /// Cluster-wide control ops block on worker round-trips, so they
    /// run on a short-lived thread and answer through the outbox — the
    /// event loop never stalls.
    fn spawn_control(self: &Arc<Self>, conn: u64, op: ControlOp) {
        let c = Arc::clone(self);
        thread::spawn(move || {
            let line = match op {
                ControlOp::Stats => c.stats_line(),
                ControlOp::Metrics => c.metrics_line(),
                ControlOp::Shutdown => c.broadcast_shutdown("shutdown"),
                ControlOp::Drain => c.broadcast_shutdown("drain"),
                ControlOp::Trace { trace_id, recent } => c.trace_line(trace_id, recent),
            };
            // The response must be queued before the loop is told to
            // stop, or the final flush would find an empty outbox and
            // drop the shutdown answer on the floor.
            c.outbox.lock().unwrap().push((conn, line));
            c.wake();
            if matches!(op, ControlOp::Shutdown | ControlOp::Drain) {
                c.stop();
            }
        });
    }
}

/// Run a batch file through the cluster: submissions scatter to their
/// owning shards concurrently and responses are written in submission
/// order. Mirrors [`tsa_service::run_batch`], including bare-object
/// submit injection, stopping at `shutdown`/`drain`, and the returned
/// per-outcome tally (`tsa batch` exits nonzero unless
/// [`BatchSummary::all_ok`]).
pub fn run_batch<W: Write>(
    coordinator: &Arc<Coordinator>,
    input: &str,
    writer: &mut W,
) -> io::Result<BatchSummary> {
    let mut summary = BatchSummary::default();
    let mut pending: Vec<(usize, Receiver<String>)> = Vec::new();
    let mut responses: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
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
                responses.push((lineno, protocol::render_protocol_error(&err)));
            }
            Ok(Request::Stats) => responses.push((lineno, coordinator.stats_line())),
            Ok(Request::Metrics) => responses.push((lineno, coordinator.metrics_line())),
            Ok(Request::Trace { trace_id, recent }) => {
                responses.push((lineno, coordinator.trace_line(trace_id, recent)))
            }
            Ok(Request::ShardInfo) => responses.push((lineno, coordinator.shard_info_line())),
            Ok(Request::Hello) => responses.push((lineno, coordinator.hello_line())),
            Ok(Request::Ping { seq }) => responses.push((lineno, coordinator.pong_line(seq))),
            Ok(Request::Shutdown) | Ok(Request::Drain) => break,
            Ok(Request::Submit(req)) => {
                let (tx, rx) = sync_channel(1);
                coordinator.submit(*req, ReplyTo::Blocking(tx));
                pending.push((lineno, rx));
            }
        }
    }
    summary.submitted = pending.len();
    for (lineno, rx) in pending {
        let line = rx
            .recv_timeout(Duration::from_secs(600))
            .unwrap_or_else(|_| {
                error_line("", "timeout", "no response from the cluster within 600s", 0)
            });
        tally(&mut summary, &line);
        responses.push((lineno, line));
    }
    responses.sort_by_key(|(lineno, _)| *lineno);
    for (_, line) in &responses {
        writeln!(writer, "{line}")?;
    }
    writer.flush()?;
    Ok(summary)
}

/// Bucket one submission response into the batch tally: terminal
/// outcomes count under their `status`, refusals (coordinator sheds,
/// worker `overloaded`, unserializable requests) under `errors`. Every
/// non-clean line is also flagged with its `trace_id` so the batch
/// report prints something directly queryable via the `trace` op.
fn tally(summary: &mut BatchSummary, line: &str) {
    let Ok(value) = Value::parse(line) else {
        summary.errors += 1;
        return;
    };
    let outcome = match value.get("status").and_then(Value::as_str) {
        Some("done") => {
            summary.done += 1;
            None
        }
        Some("deadline") => {
            summary.deadline += 1;
            Some("deadline")
        }
        Some("cancelled") => {
            summary.cancelled += 1;
            Some("cancelled")
        }
        Some("failed") => {
            summary.failed += 1;
            Some("failed")
        }
        _ => {
            if value.get("error").is_some() {
                summary.errors += 1;
                Some("error")
            } else {
                None
            }
        }
    };
    if let Some(outcome) = outcome {
        summary.flagged.push(FlaggedJob {
            tag: value
                .get("id")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            outcome,
            trace_id: value
                .get("trace_id")
                .and_then(Value::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .unwrap_or(0),
        });
    }
}

/// A coordinator-originated submit refusal, shaped like a worker one.
/// A nonzero `trace_id` is echoed so the refusal is queryable in the
/// flight recorder; untraced refusals (0) keep the historical shape.
fn error_line(id: &str, code: &str, message: &str, trace_id: u64) -> String {
    let obj = JsonObject::new().bool("ok", false).str("op", "submit");
    let obj = if id.is_empty() {
        obj
    } else {
        obj.str("id", id)
    };
    let obj = obj.str("error", code).str("message", message);
    let obj = if trace_id != 0 {
        obj.str("trace_id", &format!("{trace_id:016x}"))
    } else {
        obj
    };
    obj.finish()
}

/// An [`error_line`] carrying a `retry_after_ms` hint, shaped like a
/// worker `overloaded` refusal so clients handle both alike.
fn error_line_with_retry(
    id: &str,
    code: &str,
    message: &str,
    retry_after: Duration,
    trace_id: u64,
) -> String {
    let obj = JsonObject::new().bool("ok", false).str("op", "submit");
    let obj = if id.is_empty() {
        obj
    } else {
        obj.str("id", id)
    };
    let obj = obj.str("error", code).str("message", message).u64(
        "retry_after_ms",
        retry_after.as_millis().min(u64::MAX as u128) as u64,
    );
    let obj = if trace_id != 0 {
        obj.str("trace_id", &format!("{trace_id:016x}"))
    } else {
        obj
    };
    obj.finish()
}

/// Re-render `p.line` with whatever remains of the client's deadline
/// (deadline propagation: queue and routing time already spent is
/// deducted before the job reaches a worker again). `None` when the
/// deadline has fully elapsed — the coordinator answers such jobs
/// itself. Deadline-less jobs reuse the line as sent.
fn line_for(p: &mut Pending) -> Option<String> {
    if let Some(total) = p.req.deadline {
        let remaining = total.checked_sub(p.submitted_at.elapsed())?;
        if remaining.is_zero() {
            return None;
        }
        let mut req = p.req.clone();
        req.deadline = Some(remaining);
        p.line = protocol::render_submit(&req)?;
    } else if p.req.trace.is_some() {
        // No deadline to shrink, but a traced job must re-render so
        // the outgoing stamp parents under the *current* attempt span.
        p.line = protocol::render_submit(&p.req)?;
    }
    Some(p.line.clone())
}

/// FNV-1a over a string, for deterministic retry jitter.
fn fnv1a_str(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Swap the internal id in a raw response line back to the caller's
/// original tag (or remove the field when the original was empty),
/// leaving every other byte of the worker's answer untouched.
fn restore_id(line: &str, internal: &str, original: &str) -> String {
    let needle = format!("\"id\":\"{}\"", escape(internal));
    if !original.is_empty() {
        return line.replacen(&needle, &format!("\"id\":\"{}\"", escape(original)), 1);
    }
    match line.find(&needle) {
        Some(at) => {
            let mut out = String::with_capacity(line.len());
            out.push_str(&line[..at]);
            let mut rest = &line[at + needle.len()..];
            if let Some(stripped) = rest.strip_prefix(',') {
                rest = stripped;
            } else if out.ends_with(',') {
                out.pop();
            }
            out.push_str(rest);
            out
        }
        None => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_id_round_trips_original_tags() {
        let line = r#"{"ok":true,"op":"submit","id":"job-7#@42","score":-3}"#;
        assert_eq!(
            restore_id(line, "job-7#@42", "job-7"),
            r#"{"ok":true,"op":"submit","id":"job-7","score":-3}"#
        );
    }

    #[test]
    fn restore_id_removes_the_field_for_anonymous_submissions() {
        let line = r##"{"ok":true,"op":"submit","id":"#@0","score":-3}"##;
        assert_eq!(
            restore_id(line, "#@0", ""),
            r#"{"ok":true,"op":"submit","score":-3}"#
        );
        let tail = r##"{"score":-3,"id":"#@0"}"##;
        assert_eq!(restore_id(tail, "#@0", ""), r#"{"score":-3}"#);
    }

    #[test]
    fn restore_id_preserves_fault_directives() {
        let line = r#"{"ok":true,"op":"submit","id":"x#fault-delay=30#@9","score":1}"#;
        assert_eq!(
            restore_id(line, "x#fault-delay=30#@9", "x#fault-delay=30"),
            r#"{"ok":true,"op":"submit","id":"x#fault-delay=30","score":1}"#
        );
    }

    #[test]
    fn error_lines_follow_the_submit_refusal_shape() {
        assert_eq!(
            error_line("j1", "unavailable", "no live workers", 0),
            r#"{"ok":false,"op":"submit","id":"j1","error":"unavailable","message":"no live workers"}"#
        );
        assert!(!error_line("", "timeout", "m", 0).contains("\"id\""));
        // A traced refusal echoes the trace id so it stays queryable.
        assert_eq!(
            error_line("j1", "unavailable", "m", 0xabc),
            r#"{"ok":false,"op":"submit","id":"j1","error":"unavailable","message":"m","trace_id":"0000000000000abc"}"#
        );
    }

    #[test]
    fn shed_refusals_carry_a_retry_hint() {
        let line =
            error_line_with_retry("j2", "unavailable", "shed", Duration::from_millis(120), 0);
        assert_eq!(
            line,
            r#"{"ok":false,"op":"submit","id":"j2","error":"unavailable","message":"shed","retry_after_ms":120}"#
        );
        let traced =
            error_line_with_retry("j2", "unavailable", "shed", Duration::from_millis(5), 0x1f);
        assert!(traced.ends_with(r#""retry_after_ms":5,"trace_id":"000000000000001f"}"#));
    }

    fn parse_submit(line: &str) -> AlignRequest {
        match protocol::parse_request(line) {
            Ok(Request::Submit(req)) => *req,
            other => panic!("expected a submit, got {other:?}"),
        }
    }

    fn pending_for(req: AlignRequest) -> Pending {
        let line = protocol::render_submit(&req).unwrap();
        Pending {
            shard: 0,
            uid: content_uid(&req),
            original_id: String::new(),
            line,
            reply: None,
            req,
            submitted_at: Instant::now(),
            attempts: 1,
            hedge: None,
            hedge_of: None,
            trace: None,
        }
    }

    #[test]
    fn line_for_propagates_the_remaining_deadline() {
        let req =
            parse_submit(r#"{"op":"submit","a":"ACG","b":"AC","c":"AG","deadline_ms":3600000}"#);
        let mut p = pending_for(req);
        p.submitted_at = Instant::now() - Duration::from_secs(1800);
        let line = line_for(&mut p).expect("deadline not yet spent");
        let ms = Value::parse(&line)
            .unwrap()
            .get("deadline_ms")
            .and_then(Value::as_u64)
            .expect("deadline_ms present");
        assert!(
            (1_700_000..=1_800_000).contains(&ms),
            "~half the budget left, got {ms}"
        );
        // Fully elapsed: the coordinator answers instead of forwarding.
        p.submitted_at = Instant::now() - Duration::from_secs(7200);
        assert_eq!(line_for(&mut p), None);
        // Deadline-less jobs reuse the line as sent.
        let mut free = pending_for(parse_submit(
            r#"{"op":"submit","a":"ACG","b":"AC","c":"AG"}"#,
        ));
        let original = free.line.clone();
        assert_eq!(line_for(&mut free), Some(original));
    }

    #[test]
    fn batch_tally_buckets_outcomes_and_refusals() {
        let mut s = BatchSummary::default();
        tally(
            &mut s,
            r#"{"ok":true,"op":"submit","status":"done","score":-1}"#,
        );
        tally(&mut s, r#"{"ok":false,"op":"submit","status":"deadline"}"#);
        tally(
            &mut s,
            r#"{"ok":false,"op":"submit","status":"failed","error":"boom"}"#,
        );
        tally(
            &mut s,
            r#"{"ok":false,"op":"submit","error":"overloaded","retry_after_ms":50}"#,
        );
        tally(&mut s, "not json");
        assert_eq!(s.done, 1);
        assert_eq!(s.deadline, 1);
        assert_eq!(s.failed, 1, "status wins over error when both appear");
        assert_eq!(s.errors, 2);
        // Every parseable non-clean line is flagged for the report.
        assert_eq!(s.flagged.len(), 3);
        assert_eq!(s.flagged[0].outcome, "deadline");
        assert_eq!(s.flagged[2].outcome, "error");
    }

    // ---- span-tree completeness under overload paths --------------
    //
    // These drive PendingTrace through the exact ownership moves the
    // coordinator performs on its overload paths (retry, hedge win,
    // hedge loss with root transfer, breaker shed) and assert every
    // path yields a complete tree in the recorder with zero leaked
    // spans.

    fn recorder_tracer() -> (Arc<FlightRecorder>, Tracer) {
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig {
            capacity: 16,
            slow_us: 0,
            sample_one_in: 1,
        }));
        let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn SpanSink>);
        (recorder, tracer)
    }

    #[test]
    fn retried_submission_yields_one_complete_leak_free_tree() {
        let (recorder, tracer) = recorder_tracer();
        let mut t = PendingTrace::open(&tracer, "job-1");
        let tid = t.trace_id();
        t.attempt.annotate("outcome", "overloaded");
        t.reattempt(&tracer, "retry");
        t.attempt.annotate("shard", 1u64);
        t.attempt.annotate("outcome", "done");
        drop(t);
        assert_eq!(tracer.open_spans(), 0, "no span may outlive its trace");
        let tree = recorder.get(tid).expect("retried traces are retained");
        assert!(tree.notable, "a retry marks the trace notable");
        assert_eq!(tree.spans.len(), 3, "root + first attempt + retry");
        let root = tree.spans.iter().find(|s| s.name == "submit").unwrap();
        let kinds: Vec<&str> = tree
            .spans
            .iter()
            .filter(|s| s.name == "attempt")
            .map(|s| {
                assert_eq!(s.parent, Some(root.id), "attempts parent under the root");
                s.field("kind").unwrap()
            })
            .collect();
        assert_eq!(kinds.len(), 2);
        assert!(kinds.contains(&"first") && kinds.contains(&"retry"));
    }

    #[test]
    fn losing_hedge_twin_closes_annotated_before_the_root() {
        let (recorder, tracer) = recorder_tracer();
        let mut p = PendingTrace::open(&tracer, "job-2");
        let tid = p.trace_id();
        let mut twin = p.twin(&tracer);
        assert_eq!(twin.trace_id(), tid, "the twin shares the trace");
        assert!(twin.root.is_none(), "the primary owns the root");
        // The primary answers first: the loser must record (annotated)
        // before the primary's root completes the trace.
        twin.attempt.annotate("hedge_loser", true);
        drop(twin);
        p.attempt.annotate("outcome", "done");
        drop(p);
        assert_eq!(tracer.open_spans(), 0);
        let tree = recorder.get(tid).expect("hedged traces are retained");
        assert!(tree.notable);
        assert_eq!(tree.spans.len(), 3, "root + primary attempt + twin");
        let root = tree.spans.iter().find(|s| s.name == "submit").unwrap();
        let loser = tree
            .spans
            .iter()
            .find(|s| s.field("hedge_loser").is_some())
            .expect("loser span annotated");
        assert_eq!(loser.name, "attempt");
        assert_eq!(loser.field("kind"), Some("hedge"));
        assert_eq!(loser.parent, Some(root.id));
    }

    #[test]
    fn root_transfer_keeps_the_trace_open_until_the_survivor_settles() {
        let (recorder, tracer) = recorder_tracer();
        let mut p = PendingTrace::open(&tracer, "job-3");
        let tid = p.trace_id();
        let mut twin = p.twin(&tracer);
        // The primary fails while its hedge still races: the twin
        // inherits the root so the trace stays open for the survivor.
        p.attempt.annotate("outcome", "failed");
        twin.root = p.root.take();
        drop(p);
        assert!(
            recorder.get(tid).is_none(),
            "the trace must not complete while an attempt still races"
        );
        twin.attempt.annotate("outcome", "done");
        drop(twin);
        assert_eq!(tracer.open_spans(), 0);
        let tree = recorder
            .get(tid)
            .expect("completed once the survivor settled");
        assert_eq!(tree.spans.len(), 3);
        assert!(tree.notable, "the failed primary attempt marks it");
    }

    #[test]
    fn breaker_shed_yields_a_complete_notable_tree() {
        let (recorder, tracer) = recorder_tracer();
        let mut t = PendingTrace::open(&tracer, "job-4");
        let tid = t.trace_id();
        if let Some(root) = t.root.as_mut() {
            root.annotate("shed", true);
            root.annotate("outcome", "breaker_open");
        }
        drop(t);
        assert_eq!(tracer.open_spans(), 0);
        let tree = recorder.get(tid).expect("sheds are always retained");
        assert!(tree.notable);
        assert_eq!(tree.spans.len(), 2, "root + the never-sent attempt");
    }

    #[test]
    fn batch_tally_flags_carry_tag_and_trace_id() {
        let mut s = BatchSummary::default();
        tally(
            &mut s,
            r#"{"ok":false,"op":"submit","id":"j9","status":"failed","trace_id":"00000000000000ff"}"#,
        );
        assert_eq!(s.flagged.len(), 1);
        assert_eq!(s.flagged[0].tag, "j9");
        assert_eq!(s.flagged[0].outcome, "failed");
        assert_eq!(s.flagged[0].trace_id, 0xff);
    }
}
