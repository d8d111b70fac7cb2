//! In-process replay: the workload's request lines through each layer's
//! public functions, timed from outside the program.
//!
//! [`engine`] feeds one driver thread's parse → submit → wait → render
//! loop through an [`Engine`] configured like `tsa serve --workers 2`.
//! [`lab`] then calls the remaining layers one at a time: the result
//! cache over the workload's key stream, the kernels and the row
//! stringification on its first distinct problems, and shard routing.

use crate::check::{Answer, Checker};
use crate::client::{Budget, CONNECTIONS};
use crate::gen::{Stream, Workload};
use crate::trace::Recorder;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tsa_cluster::ShardMap;
use tsa_core::{Aligner, Alignment3};
use tsa_seq::{Alphabet, Seq};
use tsa_service::protocol::{self, Request};
use tsa_service::{
    content_uid, result_checksum, AlignRequest, CacheKey, CachedResult, Engine, JobHandle,
    ResultCache, ServiceConfig,
};

/// Distinct problems the kernel lab runs `align3` and `score3` on.
pub const LAB_PROBLEMS: usize = 32;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-call samples from [`engine`].
#[derive(Debug, Default)]
pub struct EngineSamples {
    /// `protocol::parse_request`, µs.
    pub parse_us: Vec<f64>,
    /// `Engine::submit`, µs.
    pub admit_us: Vec<f64>,
    /// `JobResult::wait`, ms.
    pub queued_ms: Vec<f64>,
    /// `JobResult::service`, ms.
    pub service_ms: Vec<f64>,
    /// `protocol::render_outcome`, µs.
    pub render_us: Vec<f64>,
    /// Response line sizes including the newline.
    pub response_bytes: Vec<f64>,
}

struct Pending {
    job: usize,
    parsed: Instant,
    admitted: Instant,
    root_start: Instant,
    handle: JobHandle,
}

/// Replay the stream through an engine configured like `tsa serve
/// --workers 2` (queue 64, cache 1024), keeping as many jobs in flight as
/// the TCP client does. Stops at the budget or the workload's design
/// job count, whichever comes first.
pub fn engine(
    workload: Workload,
    seed: u64,
    budget: Budget,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> EngineSamples {
    let engine = Engine::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 1024,
        ..ServiceConfig::default()
    });
    let mut stream = Stream::new(workload, seed);
    let mut samples = EngineSamples::default();
    let cap = budget
        .max_jobs
        .map_or(workload.design_jobs(), |m| m.min(workload.design_jobs()));
    let stop_at = Instant::now() + Duration::from_secs_f64(budget.seconds);
    let mut in_flight = VecDeque::new();
    loop {
        while in_flight.len() < CONNECTIONS * workload.window()
            && stream.jobs.len() < cap
            && Instant::now() < stop_at
        {
            let job = stream.next_job();
            let line = stream.line(job);
            let root_start = Instant::now();
            let parsed = protocol::parse_request(&line);
            let parse_end = Instant::now();
            let req = match parsed {
                Ok(Request::Submit(req)) => req,
                other => {
                    checker.check_job(job, Err(format!("parse: {other:?}")));
                    continue;
                }
            };
            let handle = engine.submit(*req);
            let admitted = Instant::now();
            samples.parse_us.push(us(parse_end - root_start));
            samples.admit_us.push(us(admitted - parse_end));
            match handle {
                Ok(handle) => in_flight.push_back(Pending {
                    job,
                    parsed: parse_end,
                    admitted,
                    root_start,
                    handle,
                }),
                Err(e) => checker.check_job(job, Err(format!("admit: {e}"))),
            }
        }
        let Some(p) = in_flight.pop_front() else {
            break;
        };
        let Some(done) = p.handle.wait_completed() else {
            checker.check_job(p.job, Err("engine dropped the job".into()));
            continue;
        };
        let render_start = Instant::now();
        let line = protocol::render_outcome(&done);
        let render_end = Instant::now();
        samples.render_us.push(us(render_end - render_start));
        samples.response_bytes.push(line.len() as f64 + 1.0);
        let root = rec.record("replay", p.job, None, "job", p.root_start, render_end);
        rec.record("replay", p.job, Some(root), "parse", p.root_start, p.parsed);
        rec.record("replay", p.job, Some(root), "admit", p.parsed, p.admitted);
        rec.record(
            "replay",
            p.job,
            Some(root),
            "respond",
            render_start,
            render_end,
        );
        match done.outcome.result() {
            Some(r) => {
                samples.queued_ms.push(ms(r.wait));
                samples.service_ms.push(ms(r.service));
                // Positions are reconstructed from the engine's durations.
                let picked = p.admitted + r.wait;
                rec.record("replay", p.job, Some(root), "queued", p.admitted, picked);
                rec.record(
                    "replay",
                    p.job,
                    Some(root),
                    "service",
                    picked,
                    picked + r.service,
                );
                let answer = Answer {
                    score: r.score,
                    rows: r.rows.clone(),
                };
                checker.check_job(p.job, Ok(answer));
            }
            None => checker.check_job(p.job, Err(format!("not done: {line}"))),
        }
    }
    engine.shutdown();
    samples
}

/// Per-call samples and counts from [`lab`].
#[derive(Debug, Default)]
pub struct LabSamples {
    /// `CacheKey::new` + `ResultCache::get`, µs.
    pub lookup_us: Vec<f64>,
    /// `ResultCache::put` on each miss, µs.
    pub put_us: Vec<f64>,
    /// Lookups that hit.
    pub hits: usize,
    /// `Aligner::align3`, ms.
    pub align_ms: Vec<f64>,
    /// `Aligner::score3`, ms.
    pub score_ms: Vec<f64>,
    /// `Alignment3::rows` plus string conversion, µs.
    pub rows_us: Vec<f64>,
    /// Full-lattice cells of the lab problems (each kernel ran them all).
    pub cells: u64,
    /// Largest shard's share of the key stream over the mean share.
    pub route_skew: f64,
}

fn submit_of(line: &str) -> AlignRequest {
    match protocol::parse_request(line) {
        Ok(Request::Submit(req)) => *req,
        other => panic!("generated line does not parse as a submit: {other:?}"),
    }
}

/// The worker's row stringification (`-` for gaps).
pub(crate) fn rows_to_strings(alignment: &Alignment3) -> [String; 3] {
    alignment
        .rows()
        .map(|row| row.iter().map(|r| r.map_or('-', char::from)).collect())
}

/// Call the cache, routing, kernel and traceback layers directly on the
/// workload's lines: the cache and router over its first
/// [`Workload::design_jobs`] keys, the kernels on its first
/// [`LAB_PROBLEMS`] distinct problems.
pub fn lab(
    workload: Workload,
    seed: u64,
    max_jobs: Option<usize>,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> LabSamples {
    let jobs = max_jobs.map_or(workload.design_jobs(), |m| m.min(workload.design_jobs()));
    let mut stream = Stream::new(workload, seed);
    stream.extend_to(jobs - 1);
    let mut samples = LabSamples::default();

    // Two shards, like the engine's cache at two workers.
    let cache = ResultCache::new(1024, 2);
    let shards = ShardMap::new(0..CONNECTIONS as u32);
    let mut routed = [0usize; CONNECTIONS];
    for job in 0..jobs {
        let req = submit_of(&stream.line(job));
        routed[shards.route(&content_uid(&req)).expect("two shards") as usize] += 1;
        let [a, b, c] = &req.seqs;
        let resolved = Aligner::auto(req.scoring.clone())
            .algorithm(req.algorithm)
            .resolve(a.len(), b.len(), c.len());
        let start = Instant::now();
        let key = CacheKey::new(a, b, c, &req.scoring, resolved, req.score_only);
        let hit = cache.get(&key);
        let looked = Instant::now();
        samples.lookup_us.push(us(looked - start));
        rec.record("lab", job, None, "cache_lookup", start, looked);
        if hit.is_some() {
            samples.hits += 1;
            continue;
        }
        // A stand-in payload of the right size: the inputs as rows.
        let rows = (!req.score_only).then(|| [a, b, c].map(|s| s.as_str().to_owned()));
        let value = CachedResult {
            score: 0,
            checksum: result_checksum(0, rows.as_ref(), resolved),
            rows,
            algorithm: resolved,
            recovered: false,
        };
        let start = Instant::now();
        cache.put(key, value);
        let stored = Instant::now();
        samples.put_us.push(us(stored - start));
        rec.record("lab", job, None, "cache_put", start, stored);
    }
    let largest = routed.iter().max().copied().unwrap_or(0);
    samples.route_skew = largest as f64 * CONNECTIONS as f64 / jobs as f64;

    for (problem, p) in stream.problems.iter().enumerate().take(LAB_PROBLEMS) {
        let alphabet = if p.protein {
            Alphabet::Protein
        } else {
            Alphabet::Dna
        };
        let seq = |i: usize| Seq::new("lab", alphabet, p.seqs[i].as_slice()).expect("generated");
        let (a, b, c) = (seq(0), seq(1), seq(2));
        let aligner =
            Aligner::auto(tsa_scoring::Scoring::by_name(p.scoring()).expect("preset scoring"));
        let job = stream
            .jobs
            .iter()
            .position(|&q| q == problem)
            .expect("problem was asked for");
        let start = Instant::now();
        let aligned = aligner.align3(&a, &b, &c);
        let kernel_end = Instant::now();
        let rows = aligned.as_ref().ok().map(rows_to_strings);
        let rows_end = Instant::now();
        let scored = aligner.score3(&a, &b, &c);
        let end = Instant::now();
        samples.cells += p.cells();
        samples.align_ms.push(ms(kernel_end - start));
        samples.rows_us.push(us(rows_end - kernel_end));
        samples.score_ms.push(ms(end - rows_end));
        let root = rec.record("lab", job, None, "lab", start, end);
        rec.record("lab", job, Some(root), "kernel", start, kernel_end);
        rec.record("lab", job, Some(root), "traceback", kernel_end, rows_end);
        rec.record("lab", job, Some(root), "kernel_score", rows_end, end);
        let aligned = aligned.map(|aln| Answer {
            score: aln.score,
            rows,
        });
        checker.check(problem, true, aligned.map_err(|e| e.to_string()));
        let scored = scored.map(|score| Answer { score, rows: None });
        checker.check(problem, false, scored.map_err(|e| e.to_string()));
    }
    samples
}
