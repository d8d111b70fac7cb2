//! The NDJSON wire protocol: one JSON object per line, each a request or
//! a response.
//!
//! Requests (`op` selects the kind):
//!
//! ```json
//! {"op":"submit","id":"j1","a":"GATTACA","b":"GATACA","c":"GTTACA",
//!  "scoring":"dna","algorithm":"auto","deadline_ms":5000,"score_only":false}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `ok`; submissions echo the request `id`.
//! A completed job answers `{"ok":true,"id":...,"status":"done","score":...}`;
//! backpressure answers `{"ok":false,"id":...,"error":"overloaded",...}`.

use crate::engine::AlignRequest;
use crate::error::{CancelStage, JobOutcome, SubmitError};
use crate::json::{JsonObject, Value};
use crate::stats::StatsSnapshot;
use crate::worker::CompletedJob;
use std::time::Duration;
use tsa_core::Algorithm;
use tsa_obs::{StitchSpan, TraceTree};
use tsa_scoring::Scoring;
use tsa_seq::{Alphabet, Seq};

/// A parsed protocol request.
#[derive(Debug)]
pub enum Request {
    /// Run one alignment.
    Submit(Box<AlignRequest>),
    /// Report the engine counters.
    Stats,
    /// Report every metric as Prometheus-style text exposition, embedded
    /// in one JSON response line.
    Metrics,
    /// Drain the queue, stop the workers, report final counters.
    Shutdown,
    /// Graceful drain: stop admission, checkpoint in-flight durable
    /// kernels, flush the journal, report final counters. Identical to
    /// `Shutdown` when the engine has no state directory.
    Drain,
    /// Report this server's shard identity (set when it runs as a
    /// cluster worker) and state directory.
    ShardInfo,
    /// Cluster handshake: the coordinator verifies the worker answers
    /// the NDJSON protocol and learns its shard/version/pid.
    Hello,
    /// Liveness probe; answered with `pong`, echoing `seq` when given.
    Ping {
        /// Client-chosen sequence number, echoed in the response.
        seq: Option<u64>,
    },
    /// Query the flight recorder: one stitched trace tree by id
    /// (`{"op":"trace","trace_id":"<16 hex>"}`) or the most recent
    /// notable (slow/failed/overloaded) traces
    /// (`{"op":"trace","recent":5}`).
    Trace {
        /// The trace to fetch, when querying by id.
        trace_id: Option<u64>,
        /// How many recent notable traces to return otherwise.
        recent: usize,
    },
}

/// A request that could not be honored; `id` is echoed when the line
/// carried one so the client can correlate.
#[derive(Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// The request id, when one was present.
    pub id: Option<String>,
    /// Machine-readable error code: `"bad_request"` for malformed lines,
    /// `"invalid_argument"` for well-formed lines with bad values (e.g. a
    /// residue outside the declared alphabet).
    pub code: &'static str,
    /// Human-readable reason.
    pub message: String,
    /// Offending byte offset within the rejected field, when known.
    pub position: Option<usize>,
}

impl ProtocolError {
    fn new(id: Option<&str>, message: impl Into<String>) -> Self {
        ProtocolError {
            id: id.map(str::to_owned),
            code: "bad_request",
            message: message.into(),
            position: None,
        }
    }

    fn invalid_argument(
        id: Option<&str>,
        message: impl Into<String>,
        position: Option<usize>,
    ) -> Self {
        ProtocolError {
            id: id.map(str::to_owned),
            code: "invalid_argument",
            message: message.into(),
            position,
        }
    }

    /// A request line longer than the server's configured bound; the
    /// position is the first byte past the limit. The oversized line is
    /// consumed, so the session survives to serve the next request.
    pub(crate) fn line_too_long(max_bytes: usize) -> Self {
        ProtocolError {
            id: None,
            code: "invalid_argument",
            message: format!("request line exceeds {max_bytes} bytes"),
            position: Some(max_bytes),
        }
    }

    /// A request line that was not valid UTF-8; `valid_up_to` is the byte
    /// offset of the first invalid byte.
    pub(crate) fn not_utf8(valid_up_to: usize) -> Self {
        ProtocolError {
            id: None,
            code: "bad_request",
            message: "request line is not valid UTF-8".into(),
            position: Some(valid_up_to),
        }
    }
}

/// The declared-alphabet request field (`"alphabet":"dna"`); sequences
/// are validated against it and rejected with `invalid_argument` on the
/// first out-of-alphabet residue.
fn parse_alphabet(obj: &Value, id: Option<&str>) -> Result<Option<Alphabet>, ProtocolError> {
    match obj.get("alphabet") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some("dna") => Ok(Some(Alphabet::Dna)),
            Some("rna") => Ok(Some(Alphabet::Rna)),
            Some("protein") => Ok(Some(Alphabet::Protein)),
            _ => Err(ProtocolError::new(
                id,
                "'alphabet' must be \"dna\", \"rna\", or \"protein\"",
            )),
        },
    }
}

fn parse_seq(
    obj: &Value,
    field: &str,
    declared: Option<Alphabet>,
    id: Option<&str>,
) -> Result<Seq, ProtocolError> {
    let text = obj
        .get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| ProtocolError::new(id, format!("missing string field '{field}'")))?;
    let bytes = text.as_bytes();
    let alphabet = match declared {
        Some(alphabet) => alphabet,
        None => Alphabet::infer(bytes).ok_or_else(|| {
            // Report where inference gave up: `infer` tries protein last,
            // so the first non-protein byte is the culprit.
            let position = Alphabet::Protein
                .validate(bytes)
                .err()
                .and_then(|e| match e {
                    tsa_seq::SeqError::InvalidResidue { position, .. } => Some(position),
                    _ => None,
                });
            ProtocolError::invalid_argument(
                id,
                format!("'{field}' is not a DNA/RNA/protein sequence"),
                position,
            )
        })?,
    };
    Seq::new(field, alphabet, bytes).map_err(|e| match e {
        tsa_seq::SeqError::InvalidResidue { position, .. } => {
            ProtocolError::invalid_argument(id, format!("invalid '{field}': {e}"), Some(position))
        }
        other => ProtocolError::invalid_argument(id, format!("invalid '{field}': {other}"), None),
    })
}

/// Parse one NDJSON request line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let obj = Value::parse(line).map_err(|e| ProtocolError::new(None, format!("bad JSON: {e}")))?;
    let id = obj.get("id").and_then(Value::as_str).map(str::to_owned);
    let id_ref = id.as_deref();
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtocolError::new(id_ref, "missing string field 'op'"))?;
    match op {
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "drain" => Ok(Request::Drain),
        "shard_info" => Ok(Request::ShardInfo),
        "hello" => Ok(Request::Hello),
        "ping" => Ok(Request::Ping {
            seq: obj.get("seq").and_then(Value::as_u64),
        }),
        "trace" => {
            let trace_id = match obj.get("trace_id") {
                None => None,
                Some(v) => {
                    let hex = v.as_str().ok_or_else(|| {
                        ProtocolError::new(id_ref, "'trace_id' must be a hex string")
                    })?;
                    Some(
                        u64::from_str_radix(hex, 16)
                            .ok()
                            .filter(|&t| t != 0)
                            .ok_or_else(|| {
                                ProtocolError::new(
                                    id_ref,
                                    format!("'trace_id' is not a nonzero hex id: '{hex}'"),
                                )
                            })?,
                    )
                }
            };
            let recent = match obj.get("recent") {
                None => 10,
                Some(v) => v.as_u64().ok_or_else(|| {
                    ProtocolError::new(id_ref, "'recent' must be a non-negative integer")
                })? as usize,
            };
            Ok(Request::Trace { trace_id, recent })
        }
        "submit" => {
            let declared = parse_alphabet(&obj, id_ref)?;
            let a = parse_seq(&obj, "a", declared, id_ref)?;
            let b = parse_seq(&obj, "b", declared, id_ref)?;
            let c = parse_seq(&obj, "c", declared, id_ref)?;
            let scoring = match obj.get("scoring").and_then(Value::as_str) {
                None => Scoring::dna_default(),
                Some(name) => Scoring::by_name(name).ok_or_else(|| {
                    ProtocolError::new(id_ref, format!("unknown scoring '{name}'"))
                })?,
            };
            let tile =
                match obj.get("tile") {
                    None => 16,
                    Some(v) => v.as_u64().filter(|&t| t >= 1).ok_or_else(|| {
                        ProtocolError::new(id_ref, "'tile' must be an integer >= 1")
                    })? as usize,
                };
            let algorithm = match obj.get("algorithm").and_then(Value::as_str) {
                None => Algorithm::Auto,
                Some(name) => Algorithm::by_name(name, tile).ok_or_else(|| {
                    let message = format!("unknown algorithm '{name}'");
                    ProtocolError::invalid_argument(id_ref, message, None)
                })?,
            };
            let score_only = match obj.get("score_only") {
                None => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| ProtocolError::new(id_ref, "'score_only' must be a boolean"))?,
            };
            let deadline = match obj.get("deadline_ms") {
                None => None,
                Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                    ProtocolError::new(id_ref, "'deadline_ms' must be a non-negative integer")
                })?)),
            };
            let client = match obj.get("client") {
                None => String::new(),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| ProtocolError::new(id_ref, "'client' must be a string"))?
                    .to_owned(),
            };
            let trace = match obj.get("trace") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .and_then(tsa_obs::TraceContext::parse)
                        .ok_or_else(|| {
                            ProtocolError::new(
                                id_ref,
                                "'trace' must be \"<16 hex digits>:<parent span id>\"",
                            )
                        })?,
                ),
            };
            let mut req = AlignRequest::new(id.unwrap_or_default(), a, b, c)
                .scoring(scoring)
                .algorithm(algorithm)
                .score_only(score_only)
                .client(client);
            req.deadline = deadline;
            req.trace = trace;
            Ok(Request::Submit(Box::new(req)))
        }
        other => Err(ProtocolError::new(id_ref, format!("unknown op '{other}'"))),
    }
}

fn base(ok: bool, id: &str) -> JsonObject {
    let obj = JsonObject::new().bool("ok", ok);
    if id.is_empty() {
        obj
    } else {
        obj.str("id", id)
    }
}

/// Append partial-progress fields when a kernel was stopped mid-flight.
fn progress_fields(obj: JsonObject, progress: &Option<tsa_core::CancelProgress>) -> JsonObject {
    match progress {
        Some(p) => obj
            .u64("cells_done", p.cells_done)
            .u64("cells_total", p.cells_total),
        None => obj,
    }
}

/// Render a resolved job as one response line (no trailing newline).
pub fn render_outcome(done: &CompletedJob) -> String {
    let obj = base(done.outcome.result().is_some(), &done.tag).str("status", done.outcome.label());
    // Untraced jobs render byte-identically to before tracing existed.
    let obj = if done.trace_id != 0 {
        obj.str("trace_id", &format!("{:016x}", done.trace_id))
    } else {
        obj
    };
    match &done.outcome {
        JobOutcome::Done(r) => {
            let obj = obj
                .i64("score", r.score as i64)
                .str("algorithm", r.algorithm.name())
                .bool("cached", r.cached)
                .u64("wait_us", r.wait.as_micros().min(u64::MAX as u128) as u64)
                .u64(
                    "service_us",
                    r.service.as_micros().min(u64::MAX as u128) as u64,
                );
            // Present only when true: a hit on a journal-recovered entry.
            let obj = if r.recovered {
                obj.bool("recovered", true)
            } else {
                obj
            };
            let obj = match r.degraded_from {
                Some(from) => obj.str("degraded_from", from.name()),
                None => obj,
            };
            match &r.rows {
                Some(rows) => obj.str_array("rows", rows.as_slice()).finish(),
                None => obj.finish(),
            }
        }
        JobOutcome::DeadlineExceeded { stage, progress } => progress_fields(
            obj.str(
                "stage",
                match stage {
                    CancelStage::Queued => "queued",
                    CancelStage::Kernel => "kernel",
                    CancelStage::Computed => "computed",
                },
            ),
            progress,
        )
        .finish(),
        JobOutcome::Cancelled { progress } => progress_fields(obj, progress).finish(),
        JobOutcome::Failed(reason) => obj.str("error", reason).finish(),
    }
}

/// Render an admission refusal. Backpressure is the `overloaded` error;
/// a governor refusal is `resource_exhausted`.
pub fn render_submit_error(id: &str, err: &SubmitError) -> String {
    match err {
        SubmitError::Overloaded {
            capacity,
            retry_after_ms,
            scope,
        } => base(false, id)
            .str("error", "overloaded")
            .u64("capacity", *capacity as u64)
            .str("scope", scope)
            .u64("retry_after_ms", *retry_after_ms)
            .finish(),
        SubmitError::ResourceExhausted {
            required,
            budget,
            limit,
        } => base(false, id)
            .str("error", "resource_exhausted")
            .str("limit", limit)
            .u64("required", *required)
            .u64("budget", *budget)
            .finish(),
        SubmitError::ShuttingDown => base(false, id).str("error", "shutting_down").finish(),
    }
}

/// Render a malformed-request response.
pub fn render_protocol_error(err: &ProtocolError) -> String {
    let obj = base(false, err.id.as_deref().unwrap_or(""))
        .str("error", err.code)
        .str("message", &err.message);
    match err.position {
        Some(position) => obj.u64("position", position as u64).finish(),
        None => obj.finish(),
    }
}

/// Identity of the answering process, carried as a nested `server`
/// section so multi-worker aggregators can label per-worker rows.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Crate version of the serving binary.
    pub version: &'static str,
    /// Operating-system process id.
    pub pid: u32,
    /// Milliseconds since the engine started.
    pub uptime_ms: u64,
}

impl ServerInfo {
    /// This process's identity with the given engine uptime.
    pub fn current(uptime: Duration) -> ServerInfo {
        ServerInfo {
            version: env!("CARGO_PKG_VERSION"),
            pid: std::process::id(),
            uptime_ms: uptime.as_millis().min(u64::MAX as u128) as u64,
        }
    }

    fn fields(&self) -> JsonObject {
        JsonObject::new()
            .str("version", self.version)
            .u64("pid", self.pid as u64)
            .u64("uptime_ms", self.uptime_ms)
    }
}

fn stats_fields(obj: JsonObject, stats: &StatsSnapshot) -> JsonObject {
    let obj = obj
        .u64("submitted", stats.submitted)
        .u64("completed", stats.completed)
        .u64("rejected", stats.rejected)
        .u64("cancelled", stats.cancelled)
        .u64("failed", stats.failed)
        .u64("cache_hits", stats.cache_hits)
        .u64("cache_misses", stats.cache_misses)
        .u64("panics", stats.panics)
        .u64("respawns", stats.respawns)
        .u64("downgraded", stats.downgraded)
        .u64("recovered", stats.recovered)
        .u64("resumed", stats.resumed)
        .u64("restarted", stats.restarted)
        .u64("cache_recovered_hits", stats.cache_recovered_hits)
        .u64("simd_jobs", stats.simd_jobs)
        .u64("shed", stats.shed)
        .u64("integrity_quarantined", stats.integrity_quarantined)
        .u64("queue_depth", stats.queue_depth as u64)
        .u64("latency_p50_us", stats.latency_p50_us)
        .u64("latency_p90_us", stats.latency_p90_us)
        .u64("latency_p95_us", stats.latency_p95_us)
        .u64("latency_p99_us", stats.latency_p99_us)
        .u64("queue_wait_p50_us", stats.queue_wait_p50_us)
        .u64("queue_wait_p95_us", stats.queue_wait_p95_us)
        .u64("queue_wait_p99_us", stats.queue_wait_p99_us)
        .u64("kernel_p50_us", stats.kernel_p50_us)
        .u64("kernel_p95_us", stats.kernel_p95_us)
        .u64("kernel_p99_us", stats.kernel_p99_us)
        .u64_array("latency_buckets", &stats.latency_buckets)
        .u64_array("queue_wait_buckets", &stats.queue_wait_buckets)
        .u64_array("kernel_buckets", &stats.kernel_buckets);
    // Per-client lane rows appear only once a named client has been
    // seen, so single-tenant responses are byte-identical to before.
    if stats.lanes.is_empty() {
        obj
    } else {
        obj.objects(
            "lanes",
            stats
                .lanes
                .iter()
                .map(|lane| {
                    JsonObject::new()
                        .str("client", &lane.client)
                        .u64("queued", lane.queued as u64)
                        .u64("in_flight", lane.in_flight)
                        .u64("submitted", lane.submitted)
                        .u64("rejected", lane.rejected)
                })
                .collect(),
        )
    }
}

/// Render a `stats` response. The counters stay top-level (older clients
/// keep working); the answering process identifies itself in the nested
/// `server` section.
pub fn render_stats(stats: &StatsSnapshot, server: &ServerInfo) -> String {
    stats_fields(
        JsonObject::new()
            .bool("ok", true)
            .str("op", "stats")
            .object("server", server.fields()),
        stats,
    )
    .finish()
}

/// Render a `metrics` response: the Prometheus-style exposition text is
/// carried as one escaped string field, keeping the stream NDJSON.
pub fn render_metrics(exposition: &str) -> String {
    JsonObject::new()
        .bool("ok", true)
        .str("op", "metrics")
        .str("format", "prometheus")
        .str("body", exposition)
        .finish()
}

/// Render the final `shutdown` response.
pub fn render_shutdown(stats: &StatsSnapshot) -> String {
    stats_fields(
        JsonObject::new().bool("ok", true).str("op", "shutdown"),
        stats,
    )
    .finish()
}

/// Render the final `drain` response.
pub fn render_drain(stats: &StatsSnapshot) -> String {
    stats_fields(JsonObject::new().bool("ok", true).str("op", "drain"), stats).finish()
}

/// Render a `shard_info` response: the worker's cluster shard identity
/// (absent when the server is not a cluster worker) and state directory.
pub fn render_shard_info(
    shard: Option<u64>,
    state_dir: Option<&str>,
    server: &ServerInfo,
) -> String {
    let obj = JsonObject::new().bool("ok", true).str("op", "shard_info");
    let obj = match shard {
        Some(shard) => obj.u64("shard", shard),
        None => obj,
    };
    let obj = match state_dir {
        Some(dir) => obj.str("state_dir", dir),
        None => obj,
    };
    obj.object("server", server.fields()).finish()
}

/// Render a `hello` handshake response.
pub fn render_hello(shard: Option<u64>, server: &ServerInfo) -> String {
    let obj = JsonObject::new()
        .bool("ok", true)
        .str("op", "hello")
        .u64("proto", 1);
    let obj = match shard {
        Some(shard) => obj.u64("shard", shard),
        None => obj,
    };
    obj.object("server", server.fields()).finish()
}

/// Render a `pong` liveness answer, echoing the probe's `seq`.
pub fn render_pong(seq: Option<u64>, server: &ServerInfo) -> String {
    let obj = JsonObject::new().bool("ok", true).str("op", "pong");
    let obj = match seq {
        Some(seq) => obj.u64("seq", seq),
        None => obj,
    };
    obj.u64("uptime_ms", server.uptime_ms).finish()
}

/// Re-render a parsed submit request as one wire line — the inverse of
/// [`parse_request`], used by the cluster coordinator to forward (and
/// resubmit) jobs to workers. Returns `None` when the request cannot
/// round-trip losslessly: the scoring must be a named preset with its
/// default gap model, which is the only kind the wire can express in
/// the first place, so every wire-originated request re-renders.
pub fn render_submit(req: &AlignRequest) -> Option<String> {
    let scoring_key = crate::durability::preset_key(&req.scoring)?;
    let preset = Scoring::by_name(&scoring_key)?;
    if crate::durability::gap_tuple(&preset) != crate::durability::gap_tuple(&req.scoring) {
        return None;
    }
    let mut obj = JsonObject::new().str("op", "submit");
    if !req.tag.is_empty() {
        obj = obj.str("id", &req.tag);
    }
    if !req.client.is_empty() {
        obj = obj.str("client", &req.client);
    }
    // Re-declare a uniform alphabet explicitly; mixed alphabets are
    // omitted and re-inferred per sequence, which is deterministic.
    let alphabet = req.seqs[0].alphabet();
    if req.seqs.iter().all(|s| s.alphabet() == alphabet) {
        obj = obj.str(
            "alphabet",
            match alphabet {
                Alphabet::Dna => "dna",
                Alphabet::Rna => "rna",
                Alphabet::Protein => "protein",
            },
        );
    }
    obj = obj
        .str("a", req.seqs[0].as_str())
        .str("b", req.seqs[1].as_str())
        .str("c", req.seqs[2].as_str())
        .str("scoring", &scoring_key);
    if let Algorithm::TileWavefront { tile } = req.algorithm {
        obj = obj.u64("tile", tile as u64);
    }
    obj = obj.str("algorithm", req.algorithm.name());
    if req.score_only {
        obj = obj.bool("score_only", true);
    }
    if let Some(deadline) = req.deadline {
        obj = obj.u64(
            "deadline_ms",
            deadline.as_millis().min(u64::MAX as u128) as u64,
        );
    }
    // One stamp per outgoing line: the trace context rides as a single
    // string field, so retries/hedges re-render with a fresh parent.
    if let Some(ctx) = req.trace {
        obj = obj.str("trace", &ctx.render());
    }
    Some(obj.finish())
}

fn trace_tree_json(tree: &TraceTree) -> JsonObject {
    JsonObject::new()
        .str("trace_id", &format!("{:016x}", tree.trace_id))
        .bool("notable", tree.notable)
        .objects(
            "spans",
            tree.spans
                .iter()
                .map(|s| {
                    let obj = JsonObject::new().u64("id", s.id);
                    let obj = match s.parent {
                        Some(p) => obj.u64("parent", p),
                        None => obj,
                    };
                    let obj = match s.shard {
                        Some(shard) => obj.u64("shard", shard),
                        None => obj,
                    };
                    let mut obj = obj
                        .str("name", &s.name)
                        .u64("start_us", s.start_us)
                        .u64("dur_us", s.dur_us);
                    if !s.fields.is_empty() {
                        let mut fields = JsonObject::new();
                        for (k, v) in &s.fields {
                            fields = fields.str(k, v);
                        }
                        obj = obj.object("fields", fields);
                    }
                    obj
                })
                .collect(),
        )
}

/// Render a `trace` response carrying zero or more stitched trace trees.
pub fn render_trace_response(trees: &[TraceTree]) -> String {
    JsonObject::new()
        .bool("ok", true)
        .str("op", "trace")
        .objects("traces", trees.iter().map(trace_tree_json).collect())
        .finish()
}

/// Render the `trace` refusal for a server with no flight recorder.
pub fn render_trace_unavailable() -> String {
    JsonObject::new()
        .bool("ok", false)
        .str("op", "trace")
        .str("error", "no_recorder")
        .str(
            "message",
            "flight recorder is not enabled; start with --flight-recorder N",
        )
        .finish()
}

/// Parse the trees out of a `trace` response line — the inverse of
/// [`render_trace_response`], used by the cluster coordinator to stitch
/// worker subtrees into its own and by `tsa trace` to render text. The
/// response value must be the parsed line; returns an empty vector when
/// it carries no `traces` array.
pub fn parse_trace_trees(response: &Value) -> Vec<TraceTree> {
    let Some(Value::Arr(items)) = response.get("traces") else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|t| {
            let trace_id = u64::from_str_radix(t.get("trace_id")?.as_str()?, 16).ok()?;
            let spans = match t.get("spans") {
                Some(Value::Arr(spans)) => spans
                    .iter()
                    .filter_map(|s| {
                        Some(StitchSpan {
                            shard: s.get("shard").and_then(Value::as_u64),
                            id: s.get("id")?.as_u64()?,
                            parent: s.get("parent").and_then(Value::as_u64),
                            name: s.get("name")?.as_str()?.to_owned(),
                            start_us: s.get("start_us").and_then(Value::as_u64).unwrap_or(0),
                            dur_us: s.get("dur_us").and_then(Value::as_u64).unwrap_or(0),
                            fields: match s.get("fields") {
                                Some(Value::Obj(fields)) => fields
                                    .iter()
                                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                                    .collect(),
                                _ => Vec::new(),
                            },
                        })
                    })
                    .collect(),
                _ => Vec::new(),
            };
            Some(TraceTree {
                trace_id,
                notable: t.get("notable").and_then(Value::as_bool).unwrap_or(false),
                spans,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::JobResult;

    #[test]
    fn parses_minimal_submit() {
        let req =
            parse_request(r#"{"op":"submit","id":"j1","a":"ACGT","b":"ACG","c":"AGT"}"#).unwrap();
        match req {
            Request::Submit(r) => {
                assert_eq!(r.tag, "j1");
                assert_eq!(r.seqs[0].residues(), b"ACGT");
                assert_eq!(r.algorithm, Algorithm::Auto);
                assert!(!r.score_only);
                assert!(r.deadline.is_none());
                assert!(r.client.is_empty());
            }
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn client_field_parses_and_validates() {
        let line =
            r#"{"op":"submit","id":"j1","client":"tenant-a","a":"ACGT","b":"ACG","c":"AGT"}"#;
        match parse_request(line).unwrap() {
            Request::Submit(r) => assert_eq!(r.client, "tenant-a"),
            other => panic!("expected submit, got {other:?}"),
        }
        let err = parse_request(r#"{"op":"submit","id":"j2","client":7,"a":"A","b":"C","c":"G"}"#)
            .unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j2"));
        assert!(err.message.contains("client"));
    }

    #[test]
    fn parses_full_submit() {
        let line = r#"{"op":"submit","id":"x","a":"ACGT","b":"ACG","c":"AGT",
            "scoring":"unit","algorithm":"wavefront","deadline_ms":250,"score_only":true}"#;
        match parse_request(line).unwrap() {
            Request::Submit(r) => {
                assert_eq!(r.algorithm, Algorithm::Wavefront);
                assert!(r.score_only);
                assert_eq!(r.deadline, Some(Duration::from_millis(250)));
            }
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn protein_sequences_are_inferred() {
        let line =
            r#"{"op":"submit","id":"p","a":"MKWV","b":"MKW","c":"MWV","scoring":"blosum62"}"#;
        match parse_request(line).unwrap() {
            Request::Submit(r) => assert_eq!(r.seqs[0].alphabet(), Alphabet::Protein),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn parses_stats_and_shutdown() {
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_request(r#"{"op":"drain"}"#).unwrap(),
            Request::Drain
        ));
    }

    #[test]
    fn line_too_long_is_positioned_invalid_argument() {
        let err = ProtocolError::line_too_long(1024);
        assert_eq!(err.code, "invalid_argument");
        assert_eq!(err.position, Some(1024));
        let v = Value::parse(&render_protocol_error(&err)).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("invalid_argument"));
        assert_eq!(v.get("position").unwrap().as_u64(), Some(1024));
        assert!(v.get("message").unwrap().as_str().unwrap().contains("1024"));
    }

    #[test]
    fn errors_echo_the_request_id() {
        let err = parse_request(r#"{"op":"submit","id":"j9","a":"ACGT","b":"ACG"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j9"));
        assert!(err.message.contains("'c'"));

        let err = parse_request(r#"{"op":"nope","id":"j2"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("j2"));

        let err = parse_request("not json").unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn rejects_bad_fields() {
        for line in [
            r#"{"a":"ACGT","b":"ACG","c":"AGT"}"#,
            r#"{"op":"submit","a":"1234","b":"ACG","c":"AGT"}"#,
            r#"{"op":"submit","a":"ACGT","b":"ACG","c":"AGT","scoring":"nope"}"#,
            r#"{"op":"submit","a":"ACGT","b":"ACG","c":"AGT","algorithm":"nope"}"#,
            r#"{"op":"submit","a":"ACGT","b":"ACG","c":"AGT","deadline_ms":-5}"#,
            r#"{"op":"submit","a":"ACGT","b":"ACG","c":"AGT","score_only":"yes"}"#,
            r#"{"op":"submit","a":"ACGT","b":"ACG","c":"AGT","tile":0}"#,
        ] {
            assert!(parse_request(line).is_err(), "should reject: {line}");
        }
    }

    #[test]
    fn renders_done_outcome() {
        let done = CompletedJob {
            id: 3,
            tag: "j1".into(),
            trace_id: 0,
            outcome: JobOutcome::Done(JobResult {
                score: -7,
                rows: Some(["A-C".into(), "AGC".into(), "A-C".into()]),
                algorithm: Algorithm::Wavefront,
                degraded_from: None,
                cached: true,
                recovered: false,
                wait: Duration::from_micros(10),
                service: Duration::from_micros(20),
            }),
        };
        let line = render_outcome(&done);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("id").unwrap().as_str(), Some("j1"));
        assert_eq!(v.get("score").unwrap().as_i64(), Some(-7));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("wavefront"));
        assert!(v.get("degraded_from").is_none());
        assert!(
            v.get("recovered").is_none(),
            "recovered omitted unless true"
        );
        assert!(v.get("rows").is_some());
    }

    #[test]
    fn renders_recovered_outcome() {
        let done = CompletedJob {
            id: 5,
            tag: "r".into(),
            trace_id: 0,
            outcome: JobOutcome::Done(JobResult {
                score: 4,
                rows: None,
                algorithm: Algorithm::Wavefront,
                degraded_from: None,
                cached: true,
                recovered: true,
                wait: Duration::ZERO,
                service: Duration::ZERO,
            }),
        };
        let v = Value::parse(&render_outcome(&done)).unwrap();
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("recovered").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn renders_degraded_outcome() {
        let done = CompletedJob {
            id: 4,
            tag: "g".into(),
            trace_id: 0,
            outcome: JobOutcome::Done(JobResult {
                score: 9,
                rows: None,
                algorithm: Algorithm::ParallelHirschberg,
                degraded_from: Some(Algorithm::Wavefront),
                cached: false,
                recovered: false,
                wait: Duration::ZERO,
                service: Duration::ZERO,
            }),
        };
        let v = Value::parse(&render_outcome(&done)).unwrap();
        assert_eq!(v.get("algorithm").unwrap().as_str(), Some("par-hirschberg"));
        assert_eq!(v.get("degraded_from").unwrap().as_str(), Some("wavefront"));
    }

    #[test]
    fn renders_deadline_and_errors() {
        let line = render_outcome(&CompletedJob {
            id: 1,
            tag: "d".into(),
            trace_id: 0,
            outcome: JobOutcome::DeadlineExceeded {
                stage: CancelStage::Queued,
                progress: None,
            },
        });
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("status").unwrap().as_str(), Some("deadline"));
        assert_eq!(v.get("stage").unwrap().as_str(), Some("queued"));
        assert!(v.get("cells_done").is_none());

        let line = render_outcome(&CompletedJob {
            id: 2,
            tag: "k".into(),
            trace_id: 0,
            outcome: JobOutcome::DeadlineExceeded {
                stage: CancelStage::Kernel,
                progress: Some(tsa_core::CancelProgress {
                    cells_done: 120,
                    cells_total: 1000,
                }),
            },
        });
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("stage").unwrap().as_str(), Some("kernel"));
        assert_eq!(v.get("cells_done").unwrap().as_u64(), Some(120));
        assert_eq!(v.get("cells_total").unwrap().as_u64(), Some(1000));

        let line = render_submit_error(
            "j3",
            &SubmitError::Overloaded {
                capacity: 4,
                retry_after_ms: 250,
                scope: "client-rate",
            },
        );
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("overloaded"));
        assert_eq!(v.get("capacity").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("scope").unwrap().as_str(), Some("client-rate"));
        assert_eq!(v.get("retry_after_ms").unwrap().as_u64(), Some(250));

        let line = render_submit_error(
            "j5",
            &SubmitError::ResourceExhausted {
                required: 4096,
                budget: 1024,
                limit: "memory-budget",
            },
        );
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("resource_exhausted"));
        assert_eq!(v.get("limit").unwrap().as_str(), Some("memory-budget"));
        assert_eq!(v.get("required").unwrap().as_u64(), Some(4096));
        assert_eq!(v.get("budget").unwrap().as_u64(), Some(1024));

        let line = render_protocol_error(&ProtocolError::new(Some("j4"), "missing 'a'"));
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad_request"));
        assert_eq!(v.get("id").unwrap().as_str(), Some("j4"));
        assert!(v.get("position").is_none());
    }

    #[test]
    fn declared_alphabet_is_validated_with_position() {
        // 'U' is RNA, not DNA: the declared alphabet must reject it even
        // though inference would happily call the string RNA.
        let err = parse_request(
            r#"{"op":"submit","id":"v1","alphabet":"dna","a":"ACGU","b":"ACG","c":"AGT"}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, "invalid_argument");
        assert_eq!(err.position, Some(3));
        let v = Value::parse(&render_protocol_error(&err)).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("invalid_argument"));
        assert_eq!(v.get("position").unwrap().as_u64(), Some(3));

        // A declared alphabet that matches passes.
        let ok = parse_request(
            r#"{"op":"submit","id":"v2","alphabet":"rna","a":"ACGU","b":"ACG","c":"AGU"}"#,
        );
        assert!(ok.is_ok());

        // Unknown alphabet names are malformed requests.
        let err = parse_request(
            r#"{"op":"submit","id":"v3","alphabet":"klingon","a":"ACGT","b":"ACG","c":"AGT"}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn undeclared_junk_sequence_reports_position() {
        let err = parse_request(r#"{"op":"submit","id":"v4","a":"AC!T","b":"ACG","c":"AGT"}"#)
            .unwrap_err();
        assert_eq!(err.code, "invalid_argument");
        assert_eq!(err.position, Some(2));
    }

    #[test]
    fn renders_stats() {
        let stats = StatsSnapshot {
            submitted: 5,
            completed: 3,
            rejected: 1,
            cancelled: 1,
            failed: 0,
            cache_hits: 2,
            cache_misses: 1,
            panics: 1,
            respawns: 1,
            downgraded: 2,
            recovered: 4,
            resumed: 1,
            restarted: 2,
            cache_recovered_hits: 3,
            simd_jobs: 2,
            shed: 4,
            integrity_quarantined: 1,
            lanes: Vec::new(),
            queue_depth: 0,
            latency_p50_us: 64,
            latency_p90_us: 128,
            latency_p95_us: 192,
            latency_p99_us: 256,
            queue_wait_p50_us: 8,
            queue_wait_p95_us: 12,
            queue_wait_p99_us: 16,
            kernel_p50_us: 32,
            kernel_p95_us: 64,
            kernel_p99_us: 128,
            latency_buckets: vec![0, 2, 1],
            queue_wait_buckets: vec![3],
            kernel_buckets: vec![],
        };
        let server = ServerInfo {
            version: "9.9.9",
            pid: 4242,
            uptime_ms: 1500,
        };
        let v = Value::parse(&render_stats(&stats, &server)).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("stats"));
        let srv = v.get("server").expect("server section present");
        assert_eq!(srv.get("version").unwrap().as_str(), Some("9.9.9"));
        assert_eq!(srv.get("pid").unwrap().as_u64(), Some(4242));
        assert_eq!(srv.get("uptime_ms").unwrap().as_u64(), Some(1500));
        assert_eq!(v.get("submitted").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("panics").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("respawns").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("downgraded").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("recovered").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("resumed").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("restarted").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("cache_recovered_hits").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("simd_jobs").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("shed").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("integrity_quarantined").unwrap().as_u64(), Some(1));
        assert!(v.get("lanes").is_none(), "empty lane set is not rendered");
        assert_eq!(v.get("latency_p95_us").unwrap().as_u64(), Some(192));
        assert_eq!(v.get("latency_p99_us").unwrap().as_u64(), Some(256));
        assert_eq!(v.get("queue_wait_p95_us").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("kernel_p95_us").unwrap().as_u64(), Some(64));
        assert_eq!(v.get("queue_wait_p99_us").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("kernel_p50_us").unwrap().as_u64(), Some(32));
        match v.get("latency_buckets").unwrap() {
            Value::Arr(items) => {
                let counts: Vec<u64> = items.iter().map(|i| i.as_u64().unwrap()).collect();
                assert_eq!(counts, vec![0, 2, 1]);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(matches!(v.get("kernel_buckets"), Some(Value::Arr(a)) if a.is_empty()));
        let v = Value::parse(&render_shutdown(&stats)).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("shutdown"));
        let v = Value::parse(&render_drain(&stats)).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("drain"));
        assert_eq!(v.get("resumed").unwrap().as_u64(), Some(1));

        // With named lanes present, stats carry a per-client array.
        let mut stats = stats;
        stats.lanes = vec![crate::stats::LaneSnapshot {
            client: "tenant-a".to_owned(),
            queued: 2,
            in_flight: 1,
            submitted: 9,
            rejected: 3,
        }];
        let v = Value::parse(&render_stats(&stats, &server)).unwrap();
        match v.get("lanes").unwrap() {
            Value::Arr(items) => {
                assert_eq!(items.len(), 1);
                let lane = &items[0];
                assert_eq!(lane.get("client").unwrap().as_str(), Some("tenant-a"));
                assert_eq!(lane.get("queued").unwrap().as_u64(), Some(2));
                assert_eq!(lane.get("in_flight").unwrap().as_u64(), Some(1));
                assert_eq!(lane.get("submitted").unwrap().as_u64(), Some(9));
                assert_eq!(lane.get("rejected").unwrap().as_u64(), Some(3));
            }
            other => panic!("expected lanes array, got {other:?}"),
        }
    }

    #[test]
    fn parses_cluster_ops() {
        assert!(matches!(
            parse_request(r#"{"op":"shard_info"}"#).unwrap(),
            Request::ShardInfo
        ));
        assert!(matches!(
            parse_request(r#"{"op":"hello"}"#).unwrap(),
            Request::Hello
        ));
        assert!(matches!(
            parse_request(r#"{"op":"ping","seq":7}"#).unwrap(),
            Request::Ping { seq: Some(7) }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping { seq: None }
        ));
    }

    #[test]
    fn renders_cluster_op_responses() {
        let server = ServerInfo {
            version: "1.2.3",
            pid: 99,
            uptime_ms: 12,
        };
        let v = Value::parse(&render_shard_info(Some(3), Some("/tmp/s3"), &server)).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("shard_info"));
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("state_dir").unwrap().as_str(), Some("/tmp/s3"));
        assert_eq!(
            v.get("server").unwrap().get("pid").unwrap().as_u64(),
            Some(99)
        );

        let v = Value::parse(&render_shard_info(None, None, &server)).unwrap();
        assert!(v.get("shard").is_none());
        assert!(v.get("state_dir").is_none());

        let v = Value::parse(&render_hello(Some(1), &server)).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("hello"));
        assert_eq!(v.get("proto").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(1));

        let v = Value::parse(&render_pong(Some(41), &server)).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("pong"));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(41));
        assert_eq!(v.get("uptime_ms").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn submit_round_trips_through_render() {
        let line = r#"{"op":"submit","id":"rt#1","client":"tenant-a","alphabet":"dna",
            "a":"ACGT","b":"ACG","c":"AGT",
            "scoring":"unit","algorithm":"wavefront",
            "deadline_ms":250,"score_only":true}"#;
        let Request::Submit(req) = parse_request(line).unwrap() else {
            panic!("expected submit");
        };
        let rendered = render_submit(&req).expect("wire request re-renders");
        let Request::Submit(again) = parse_request(&rendered).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(again.tag, req.tag);
        assert_eq!(again.seqs[0].residues(), req.seqs[0].residues());
        assert_eq!(again.algorithm, req.algorithm);
        assert_eq!(again.score_only, req.score_only);
        assert_eq!(again.deadline, req.deadline);
        assert_eq!(again.client, "tenant-a");
        assert_eq!(
            crate::durability::job_uid(&again),
            crate::durability::job_uid(&req),
            "identity is preserved across the round trip"
        );

        // Tile-wavefront jobs carry their tile through the round trip.
        let line = r#"{"op":"submit","id":"tw","a":"ACGT","b":"ACG","c":"AGT",
            "algorithm":"tile-wavefront","tile":16}"#;
        let Request::Submit(req) = parse_request(line).unwrap() else {
            panic!("expected submit");
        };
        let Request::Submit(again) = parse_request(&render_submit(&req).unwrap()).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(again.algorithm, Algorithm::TileWavefront { tile: 16 });

        // A custom matrix cannot be expressed on the wire: no render.
        let custom = AlignRequest::new(
            "c",
            Seq::dna("ACGT").unwrap(),
            Seq::dna("ACG").unwrap(),
            Seq::dna("AGT").unwrap(),
        )
        .scoring(Scoring::new(
            tsa_scoring::SubstMatrix::match_mismatch("house-rules", 3, -3),
            tsa_scoring::GapModel::linear(-4),
        ));
        assert!(render_submit(&custom).is_none());
    }

    #[test]
    fn renders_metrics_as_parseable_json() {
        let exposition = "# HELP tsa_jobs_submitted_total Submissions.\n# TYPE tsa_jobs_submitted_total counter\ntsa_jobs_submitted_total 3\n";
        let line = render_metrics(exposition);
        assert!(!line.contains('\n'), "metrics response stays one line");
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("metrics"));
        assert_eq!(v.get("format").unwrap().as_str(), Some("prometheus"));
        assert_eq!(v.get("body").unwrap().as_str(), Some(exposition));
    }
}
