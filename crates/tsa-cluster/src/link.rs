//! One coordinator↔worker connection: a write half guarded by a mutex
//! and a reader thread turning NDJSON response lines into [`Event`]s on
//! the coordinator's dispatch channel.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Sender;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use tsa_service::json::Value;

use crate::shard::ShardId;

/// What a worker connection reports back to the coordinator.
pub enum Event {
    /// One response line from a worker, already parsed.
    Response {
        shard: ShardId,
        line: String,
        value: Value,
    },
    /// The connection closed (worker exit, crash, or network drop). The
    /// generation lets the coordinator ignore events from a link it has
    /// already replaced.
    Disconnected { shard: ShardId, generation: u64 },
}

/// The coordinator's handle to one worker connection.
pub struct WorkerLink {
    pub shard: ShardId,
    pub generation: u64,
    writer: Mutex<TcpStream>,
}

impl WorkerLink {
    /// Connect to a worker, spawning a reader thread that forwards each
    /// response line (and a final disconnect) to `events`.
    pub fn connect(
        shard: ShardId,
        addr: SocketAddr,
        generation: u64,
        events: Sender<Event>,
    ) -> io::Result<WorkerLink> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        thread::Builder::new()
            .name(format!("tsa-cluster-read-{shard}"))
            .spawn(move || {
                let reader = BufReader::new(read_half);
                for line in reader.lines() {
                    let line = match line {
                        Ok(l) => l,
                        Err(_) => break,
                    };
                    if line.trim().is_empty() {
                        continue;
                    }
                    let value = match Value::parse(&line) {
                        Ok(v) => v,
                        Err(_) => continue,
                    };
                    if events.send(Event::Response { shard, line, value }).is_err() {
                        return;
                    }
                }
                events.send(Event::Disconnected { shard, generation }).ok();
            })?;
        Ok(WorkerLink {
            shard,
            generation,
            writer: Mutex::new(stream),
        })
    }

    /// Send one request line (newline appended) to the worker.
    pub fn send(&self, line: &str) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }

    /// Tear down the connection at the socket level. The reader thread
    /// observes EOF and reports [`Event::Disconnected`], driving the
    /// coordinator through its normal reconnect/respawn machinery —
    /// exactly what a mid-flight network drop looks like.
    pub fn sever(&self) -> io::Result<()> {
        self.writer
            .lock()
            .unwrap()
            .shutdown(std::net::Shutdown::Both)
    }
}

/// Options for spawning a local worker process.
#[derive(Debug, Clone, Default)]
pub struct SpawnOptions {
    pub state_dir: Option<std::path::PathBuf>,
    pub worker_threads: Option<usize>,
    pub queue: Option<usize>,
    pub cache: Option<usize>,
    pub deadline_ms: Option<u64>,
    pub client_rate: Option<f64>,
    pub max_in_flight_per_client: Option<usize>,
    pub flight_recorder: Option<usize>,
    pub slow_ms: Option<u64>,
    pub trace_sample: Option<u64>,
}

/// A freshly spawned local worker: the child process and the address
/// its listener actually bound (workers listen on port 0).
pub struct SpawnedWorker {
    pub child: Child,
    pub addr: SocketAddr,
}

/// Spawn `binary serve --listen 127.0.0.1:0 --shard <shard> ...` and
/// wait for the single stderr line announcing the bound address.
pub fn spawn_worker(
    binary: &std::path::Path,
    shard: ShardId,
    opts: &SpawnOptions,
) -> io::Result<SpawnedWorker> {
    let mut cmd = Command::new(binary);
    cmd.arg("serve")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--shard")
        .arg(shard.to_string());
    if let Some(dir) = &opts.state_dir {
        cmd.arg("--state-dir").arg(dir);
    }
    if let Some(n) = opts.worker_threads {
        cmd.arg("--workers").arg(n.to_string());
    }
    if let Some(n) = opts.queue {
        cmd.arg("--queue").arg(n.to_string());
    }
    if let Some(n) = opts.cache {
        cmd.arg("--cache").arg(n.to_string());
    }
    if let Some(ms) = opts.deadline_ms {
        cmd.arg("--deadline-ms").arg(ms.to_string());
    }
    if let Some(rate) = opts.client_rate {
        cmd.arg("--client-rate").arg(rate.to_string());
    }
    if let Some(n) = opts.max_in_flight_per_client {
        cmd.arg("--max-in-flight-per-client").arg(n.to_string());
    }
    if let Some(n) = opts.flight_recorder {
        cmd.arg("--flight-recorder").arg(n.to_string());
    }
    if let Some(ms) = opts.slow_ms {
        cmd.arg("--slow-ms").arg(ms.to_string());
    }
    if let Some(n) = opts.trace_sample {
        cmd.arg("--trace-sample").arg(n.to_string());
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn()?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let mut reader = BufReader::new(stderr);

    // The worker prints exactly one announcement line once bound:
    //   # tsa serve: listening on 127.0.0.1:PORT
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            child.kill().ok();
            child.wait().ok();
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("worker {shard} exited before announcing its address"),
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("# tsa serve: listening on ") {
            match rest.trim().parse::<SocketAddr>() {
                Ok(a) => break a,
                Err(e) => {
                    child.kill().ok();
                    child.wait().ok();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("worker {shard} announced unparseable address {rest:?}: {e}"),
                    ));
                }
            }
        }
        // Anything else (recovery-ladder notes, warnings) is forwarded.
        eprint!("# [shard {shard}] {}", line);
    };

    // Keep forwarding the worker's stderr, tagged with its shard.
    thread::Builder::new()
        .name(format!("tsa-cluster-stderr-{shard}"))
        .spawn(move || {
            for line in reader.lines() {
                match line {
                    Ok(l) => eprintln!("# [shard {shard}] {l}"),
                    Err(_) => break,
                }
            }
        })?;

    Ok(SpawnedWorker { child, addr })
}
