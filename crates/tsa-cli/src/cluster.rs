//! `tsa cluster` — coordinator front end over [`tsa_cluster`].
//!
//! Spawns/attaches the worker set, prints the topology, then either
//! runs one batch through the cluster (default: stdin) or serves the
//! NDJSON protocol over TCP through the poll(2) event-loop front door.

use std::io::Read;
use std::time::Duration;

use crate::args::ClusterArgs;
use tsa_cluster::{ClusterConfig, Coordinator};

pub fn run_cluster(c: ClusterArgs) -> Result<(), String> {
    let config = ClusterConfig {
        binary: None, // workers re-execute this binary
        workers: c.workers,
        attach: c.attach.clone(),
        state_dir: c.state_dir.as_ref().map(std::path::PathBuf::from),
        worker_threads: c.worker_threads,
        queue: c.queue,
        cache: c.cache,
        deadline_ms: c.deadline_ms,
        heartbeat: Duration::from_millis(c.heartbeat_ms),
        breaker_threshold: c.breaker_threshold,
        breaker_cooldown: Duration::from_millis(c.breaker_cooldown_ms),
        retry_budget: c.retry_budget,
        hedge_after_ms: c.hedge_after_ms,
        client_rate: c.client_rate,
        max_in_flight_per_client: c.max_in_flight_per_client,
        flight_recorder: c.flight_recorder,
        slow_ms: c.slow_ms,
        trace_sample: c.trace_sample,
    };
    let coordinator = Coordinator::start(config).map_err(|e| format!("cluster: {e}"))?;
    for (shard, addr, spawned) in coordinator.topology() {
        let kind = if spawned { "spawned" } else { "attached" };
        eprintln!("# tsa cluster: shard {shard} {kind} at {addr}");
    }

    match &c.listen {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("cluster: {addr}: {e}"))?;
            let bound = listener.local_addr().map_err(|e| format!("cluster: {e}"))?;
            eprintln!("# tsa cluster: listening on {bound}");
            let options = tsa_cluster::FrontOptions {
                idle_timeout: (c.idle_timeout_ms > 0)
                    .then(|| Duration::from_millis(c.idle_timeout_ms)),
            };
            tsa_cluster::serve_front_with(&coordinator, listener, options)
                .map_err(|e| format!("cluster: {e}"))?;
        }
        None => {
            let input = match c.batch.as_deref() {
                Some("-") | None => {
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .map_err(|e| format!("cluster: stdin: {e}"))?;
                    buf
                }
                Some(path) => {
                    std::fs::read_to_string(path).map_err(|e| format!("cluster: {path}: {e}"))?
                }
            };
            let mut stdout = std::io::stdout().lock();
            let summary = tsa_cluster::run_batch(&coordinator, &input, &mut stdout)
                .map_err(|e| format!("cluster: {e}"))?;
            let line = coordinator.shutdown("shutdown");
            eprintln!("{line}");
            eprintln!("# batch outcomes: {summary}");
            crate::commands::report_flagged(&summary.flagged);
            if !summary.all_ok() {
                return Err(format!("batch had non-success outcomes: {summary}"));
            }
        }
    }
    Ok(())
}
