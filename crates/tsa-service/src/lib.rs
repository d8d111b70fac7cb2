//! # tsa-service — embeddable batch alignment service engine
//!
//! The paper's setting is a dedicated PC cluster running one alignment at
//! a time over MPI. This crate transposes that deployment story to a
//! single shared-memory machine serving *many* alignments: a bounded
//! submission queue with explicit backpressure, a worker pool dispatching
//! to any [`tsa_core::Algorithm`] (auto-selected by problem size unless
//! pinned), a sharded LRU result cache, per-job deadlines with
//! cooperative cancellation, and live counters.
//!
//! ## Library use
//!
//! ```
//! use tsa_service::{AlignRequest, Engine, ServiceConfig};
//! use tsa_seq::Seq;
//!
//! let engine = Engine::start(ServiceConfig::default());
//! let req = AlignRequest::new(
//!     "job-1",
//!     Seq::dna("GATTACA").unwrap(),
//!     Seq::dna("GATACA").unwrap(),
//!     Seq::dna("GTTACA").unwrap(),
//! );
//! let outcome = engine.submit(req).unwrap().wait();
//! println!("score = {}", outcome.result().unwrap().score);
//! engine.shutdown();
//! ```
//!
//! ## Wire use
//!
//! [`serve_stdio`] / [`serve_listener`] speak an NDJSON protocol (one JSON
//! object per line; see [`protocol`]), and [`run_batch`] drives a file of
//! requests through the pool at full parallelism. The `tsa serve` and
//! `tsa batch` CLI commands are thin wrappers over these.
//!
//! ## Semantics worth knowing
//!
//! * **Backpressure is an error, not a buffer.** A full queue refuses
//!   the job with [`SubmitError::Overloaded`]; the engine never queues
//!   beyond its configured capacity. Batch mode uses the blocking submit
//!   path instead, throttling the producer.
//! * **Deadlines reach into the kernel.** A job's deadline is checked
//!   when a worker picks it up, at cooperative checkpoints inside the DP
//!   (per anti-diagonal plane), and again after the kernel; a mid-kernel
//!   expiry reports [`JobOutcome::DeadlineExceeded`] with partial
//!   [`CancelProgress`], while a kernel that finishes late still writes
//!   its result to the cache first.
//! * **Admission is resource-governed.** With
//!   [`ServiceConfig::memory_budget`] / [`ServiceConfig::max_cells`] set,
//!   each job's cell count and peak bytes are estimated for its resolved
//!   algorithm before enqueue. Over-budget explicit requests are refused
//!   with [`SubmitError::ResourceExhausted`]; `Auto` requests degrade to
//!   a quadratic-space kernel that fits (recorded in
//!   [`JobResult::degraded_from`]). The memory budget also bounds the sum
//!   of in-flight estimates, semaphore-style.
//! * **Failures are values.** A panicking kernel is caught and reported
//!   as [`JobOutcome::Failed`]; a worker thread that dies still resolves
//!   its job through a drop guard and is respawned by the pool
//!   supervisor. A [`JobHandle`] never hangs.
//! * **The cache keys on content.** Sequences are fingerprinted (two
//!   independent FNV-1a digests plus length, per sequence), combined with
//!   the scoring scheme, the *resolved* algorithm, and the score-only
//!   flag — so an `auto` submission and an explicit one share an entry.

mod cache;
mod durability;
mod engine;
mod error;
pub mod faults;
mod governor;
pub mod json;
pub mod protocol;
mod sched;
mod server;
mod stats;
mod worker;

pub use cache::{result_checksum, CacheKey, CachedResult, ResultCache};
pub use durability::content_uid;
pub use engine::{AlignRequest, Engine, JobHandle, ServiceConfig};
pub use error::{CancelStage, JobOutcome, JobResult, SubmitError};
pub use sched::{fair_queue, FairQueue, FairReceiver, PushError};
pub use server::{
    run_all, run_batch, serve_listener, serve_session, serve_stdio, BatchSummary, FlaggedJob,
    ServeOptions,
};
pub use stats::{LaneSnapshot, ServiceStats, StatsSnapshot};
pub use tsa_core::cancel::{CancelProgress, CancelToken};
pub use tsa_obs::{
    render_tree, FlightRecorder, JsonSink, MultiSink, RecorderConfig, RingSink, SpanRecord,
    SpanSink, TextSink, TraceContext, TraceTree, Tracer,
};
pub use worker::CompletedJob;
