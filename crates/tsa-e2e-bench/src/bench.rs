//! One workload, end to end (`run`) or layer by layer (`trace`).

use crate::check::{Answer, Checker};
use crate::client::{self, Budget, Server};
use crate::gen::{Shares, Stream, Topology, Workload};
use crate::replay;
use crate::stats::{metric_def, percentile, END_TO_END, MIN_BEYOND, PER_LAYER};
use crate::trace::Recorder;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tsa_service::json::Value;

/// Fresh server starts per `run`; `setup_s` is their median.
const SETUP_STARTS: usize = 5;

/// Time shares of a `trace` run: the workload's own server over TCP,
/// the other topology over TCP, and the in-process engine replay.
const TRACE_OWN: f64 = 0.4;
const TRACE_OTHER: f64 = 0.1;
const TRACE_REPLAY: f64 = 0.3;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `tsa` binary; `trace` without it replays in-process only.
    pub tsa: Option<PathBuf>,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Cap on jobs per phase (the smoke test's tiny runs).
    pub max_jobs: Option<usize>,
    /// Where span files go.
    pub out: PathBuf,
}

impl Config {
    fn budget(&self) -> Budget {
        Budget {
            seconds: self.seconds,
            max_jobs: self.max_jobs,
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name, as in [`END_TO_END`] / [`PER_LAYER`].
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind it.
    pub samples: usize,
    /// For a tail percentile, the samples ranked above it.
    pub beyond: Option<usize>,
}

impl Measured {
    fn total(name: &'static str, value: f64, samples: usize) -> Measured {
        Measured {
            name,
            value,
            samples,
            beyond: None,
        }
    }

    fn percentile(name: &'static str, values: &[f64], pct: usize) -> Option<Measured> {
        let p = percentile(values, pct)?;
        Some(Measured {
            name,
            value: p.value,
            samples: p.samples,
            beyond: (pct > 50).then_some(p.beyond),
        })
    }

    fn unit(&self) -> &'static str {
        metric_def(self.name).map_or("", |d| d.unit)
    }
}

/// The outcome of one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs not answered `done`, answered wrongly, or timed out.
    pub failed: usize,
    /// Metrics, in table order.
    pub metrics: Vec<Measured>,
    /// Context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    fn new(
        workload: Workload,
        checker: &Checker,
        metrics: Vec<Measured>,
        mut notes: Vec<String>,
    ) -> Report {
        let mut metrics: Vec<Measured> = metrics
            .into_iter()
            .filter(|m| m.value.is_finite())
            .collect();
        let order = |m: &Measured| {
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .position(|d| d.name == m.name)
        };
        metrics.sort_by_key(order);
        notes.push(checker.summary());
        Report {
            workload,
            attempted: checker.checked,
            failed: checker.failed,
            metrics,
            notes,
        }
    }

    /// No job failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `name workload value unit n=<samples>` per metric, with the
    /// samples beyond each percentile or `insufficient`.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let mut line = format!(
                    "{} {} {} {} n={}",
                    m.name,
                    self.workload.name(),
                    m.value,
                    m.unit(),
                    m.samples
                );
                match m.beyond {
                    Some(b) if b < MIN_BEYOND => line.push_str(" insufficient"),
                    Some(b) => line.push_str(&format!(" beyond={b}")),
                    None => {}
                }
                line
            })
            .collect()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    m.value,
                    m.unit()
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Drive the workload through its server with tracing off: set-up time
/// over fresh starts, then the timed closed-loop phase, then the checks.
pub fn run(workload: Workload, cfg: &Config) -> io::Result<Report> {
    let tsa = cfg.tsa.as_deref().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "run needs the tsa binary (--tsa PATH)",
        )
    })?;
    let notes = vec![Shares::of(workload, cfg.seed).to_string()];
    let mut setups = Vec::new();
    let mut running: Option<Server> = None;
    for _ in 0..SETUP_STARTS {
        if let Some(server) = running.take() {
            server.stop()?;
        }
        let start = Instant::now();
        let server = Server::start(tsa, workload.topology())?;
        server.warm_up()?;
        setups.push(start.elapsed().as_secs_f64());
        running = Some(server);
    }
    let server = running.expect("at least one start");
    let mut stream = Stream::new(workload, cfg.seed);
    let load = client::drive(
        server.addr(),
        &mut stream,
        workload.window(),
        cfg.budget(),
        |_| {},
    )?;
    let rss = server.peak_rss_mb()?;
    server.stop()?;

    let mut checker = Checker::new(workload, cfg.seed);
    let mut latencies = Vec::new();
    for reply in &load.replies {
        let answer = reply.response.clone().and_then(|v| Answer::from_reply(&v));
        if answer.is_ok() {
            latencies.push((reply.received - reply.sent).as_secs_f64() * 1e3);
        }
        checker.check_job(reply.job, answer);
    }
    let done = latencies.len();
    let metrics = [
        Some(Measured::total(
            "jobs_per_s",
            done as f64 / load.wall.as_secs_f64(),
            done,
        )),
        Measured::percentile("latency_p50_ms", &latencies, 50),
        Measured::percentile("latency_p95_ms", &latencies, 95),
        Measured::percentile("setup_s", &setups, 50),
        Some(Measured::total("peak_rss_mb", rss, 1)),
    ];
    Ok(Report::new(
        workload,
        &checker,
        metrics.into_iter().flatten().collect(),
        notes,
    ))
}

/// The per-layer view: both topologies over TCP with client-side spans,
/// then the in-process replay and the layer lab. Writes the spans to
/// `<out>/trace-<workload>.jsonl`.
pub fn trace(workload: Workload, cfg: &Config) -> io::Result<Report> {
    let mut notes = vec![Shares::of(workload, cfg.seed).to_string()];
    let mut metrics = Vec::new();
    let mut rec = Recorder::default();
    let mut checker = Checker::new(workload, cfg.seed);
    match &cfg.tsa {
        Some(tsa) => {
            for (topology, share) in [
                (workload.topology(), TRACE_OWN),
                (workload.topology().other(), TRACE_OTHER),
            ] {
                let (remainder, note) =
                    traced_load(tsa, workload, topology, cfg, share, &mut checker, &mut rec)?;
                let name = match topology {
                    Topology::Serve => "server.transport_ms_p50",
                    Topology::Cluster => "cluster.hop_ms_p50",
                };
                metrics.extend(Measured::percentile(name, &remainder, 50));
                notes.push(note);
            }
        }
        None => notes.push("tcp legs skipped: no tsa binary".into()),
    }

    let e = replay::engine(
        workload,
        cfg.seed,
        cfg.budget().share(TRACE_REPLAY),
        &mut checker,
        &mut rec,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    metrics.extend(
        [
            Measured::percentile("protocol.parse_us", &e.parse_us, 50),
            Measured::percentile("protocol.render_us", &e.render_us, 50),
            Some(Measured::total(
                "protocol.response_bytes",
                mean(&e.response_bytes),
                e.response_bytes.len(),
            )),
            Measured::percentile("engine.admit_us", &e.admit_us, 50),
            Measured::percentile("engine.queued_ms_p50", &e.queued_ms, 50),
            Measured::percentile("engine.queued_ms_p99", &e.queued_ms, 99),
            Measured::percentile("engine.service_ms_p50", &e.service_ms, 50),
        ]
        .into_iter()
        .flatten(),
    );

    let lab = replay::lab(workload, cfg.seed, cfg.max_jobs, &mut checker, &mut rec);
    let lookups = lab.lookup_us.len();
    let rate = |ms: &[f64]| lab.cells as f64 / ms.iter().sum::<f64>() / 1e3;
    metrics.extend(
        [
            Some(Measured::total(
                "cache.hit_ratio",
                lab.hits as f64 / lookups as f64,
                lookups,
            )),
            Measured::percentile("cache.lookup_us", &lab.lookup_us, 50),
            Measured::percentile("cache.put_us", &lab.put_us, 50),
            Measured::percentile("kernel.align_ms_p50", &lab.align_ms, 50),
            Some(Measured::total(
                "kernel.align_mcells_per_s",
                rate(&lab.align_ms),
                lab.align_ms.len(),
            )),
            Measured::percentile("kernel.score_ms_p50", &lab.score_ms, 50),
            Some(Measured::total(
                "kernel.score_mcells_per_s",
                rate(&lab.score_ms),
                lab.score_ms.len(),
            )),
            Some(Measured::total(
                "kernel.cells",
                lab.cells as f64,
                lab.align_ms.len(),
            )),
            Measured::percentile("traceback.rows_us", &lab.rows_us, 50),
            Some(Measured::total(
                "cluster.route_skew",
                lab.route_skew,
                lookups,
            )),
        ]
        .into_iter()
        .flatten(),
    );

    for (stage, self_us) in rec.self_times_by_stage() {
        if let Some(p) = percentile(&self_us, 50) {
            notes.push(format!(
                "self {} {stage} p50_us={:.3} n={}",
                workload.name(),
                p.value,
                p.samples
            ));
        }
    }
    std::fs::create_dir_all(&cfg.out)?;
    let spans = cfg.out.join(format!("trace-{}.jsonl", workload.name()));
    rec.write_jsonl(&spans)?;
    notes.push(format!(
        "spans {} {} -> {}",
        workload.name(),
        rec.spans.len(),
        spans.display()
    ));
    Ok(Report::new(workload, &checker, metrics, notes))
}

/// One traced TCP leg. Each reply becomes a `job` span with `queued`,
/// `service` and `transport` children, built from the reply's `wait_us`
/// and `service_us`; the transport remainder is client latency minus
/// both. Returns the remainders (ms) and the tracing-overhead note: the
/// time spent recording spans inside the client loop, as a share of the
/// leg's wall time.
fn traced_load(
    tsa: &std::path::Path,
    workload: Workload,
    topology: Topology,
    cfg: &Config,
    share: f64,
    checker: &mut Checker,
    rec: &mut Recorder,
) -> io::Result<(Vec<f64>, String)> {
    let phase = match topology {
        Topology::Serve => "tcp-serve",
        Topology::Cluster => "tcp-cluster",
    };
    let server = Server::start(tsa, topology)?;
    server.warm_up()?;
    let mut stream = Stream::new(workload, cfg.seed);
    let (mut remainder, mut overhead) = (Vec::new(), Duration::ZERO);
    let load = client::drive(
        server.addr(),
        &mut stream,
        workload.window(),
        cfg.budget().share(share),
        |reply| {
            let start = Instant::now();
            let field = |v: &Value, key| {
                v.get(key)
                    .and_then(Value::as_u64)
                    .map(Duration::from_micros)
            };
            if let Ok(v) = &reply.response {
                if let (Some(wait), Some(service)) = (field(v, "wait_us"), field(v, "service_us")) {
                    let root =
                        rec.record(phase, reply.job, None, "job", reply.sent, reply.received);
                    let picked = reply.sent + wait;
                    let served = picked + service;
                    rec.record(phase, reply.job, Some(root), "queued", reply.sent, picked);
                    rec.record(phase, reply.job, Some(root), "service", picked, served);
                    rec.record(
                        phase,
                        reply.job,
                        Some(root),
                        "transport",
                        served,
                        reply.received,
                    );
                    let latency = reply.received - reply.sent;
                    remainder.push(latency.saturating_sub(wait + service).as_secs_f64() * 1e3);
                }
            }
            overhead += start.elapsed();
        },
    )?;
    server.stop()?;
    for reply in &load.replies {
        checker.check_job(
            reply.job,
            reply.response.clone().and_then(|v| Answer::from_reply(&v)),
        );
    }
    let note = format!(
        "trace-overhead {} {phase} {:.4}% of {:.3} s over {} jobs",
        workload.name(),
        100.0 * overhead.as_secs_f64() / load.wall.as_secs_f64(),
        load.wall.as_secs_f64(),
        load.replies.len(),
    );
    Ok((remainder, note))
}
