//! The real-binary transport: starting `tsa serve` / `tsa cluster`, the
//! closed-loop `poll(2)` client, and process clean-up.
//!
//! The client is one thread multiplexing [`CONNECTIONS`] nonblocking
//! sockets. Each socket sets `TCP_NODELAY` and every request goes out in
//! one write, so a stall the benchmark sees is the server's.

use crate::gen::{Stream, Topology};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tsa_service::json::Value;

/// Client connections: one per core of the 2-core reference host.
pub const CONNECTIONS: usize = 2;
/// A job with no reply after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const START_TIMEOUT: Duration = Duration::from_secs(30);
const STOP_TIMEOUT: Duration = Duration::from_secs(15);

/// The job whose first `done` reply ends set-up: tiny, and shorter than
/// any workload problem, so it never warms a workload cache entry.
const WARM_UP: &str = r#"{"op":"submit","id":"warm-up","alphabet":"dna","a":"GATTACA","b":"GATACA","c":"GTTACA","scoring":"dna"}"#;

/// A running `tsa serve` or `tsa cluster` with its pinned flags.
#[derive(Debug)]
pub struct Server {
    child: Child,
    topology: Topology,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
    log: mpsc::Receiver<String>,
}

impl Server {
    /// Spawn the server and wait until it announces its bound address.
    pub fn start(tsa: &Path, topology: Topology) -> io::Result<Server> {
        adopt_orphans();
        let mut cmd = Command::new(tsa);
        match topology {
            Topology::Serve => cmd.args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"]),
            Topology::Cluster => cmd.args([
                "cluster",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--worker-threads",
                "1",
            ]),
        };
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| io::Error::other(format!("{}: {e}", tsa.display())))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, log) = mpsc::channel();
        // Drain stderr for the server's whole life so it can never block
        // on a full pipe.
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            topology,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(stderr),
            log,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let line = server
                .log
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .map_err(|_| io::Error::other("server exited or never announced its address"))?;
            if let Some(addr) = line.split("listening on ").nth(1) {
                server.addr = addr
                    .trim()
                    .parse()
                    .map_err(|e| io::Error::other(format!("bad listen address {addr:?}: {e}")))?;
                return Ok(server);
            }
        }
    }

    /// The front-door address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One request on a fresh connection; returns the parsed reply.
    fn request(&self, line: &str) -> io::Result<Value> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(JOB_TIMEOUT))?;
        (&stream).write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply)?;
        Value::parse(reply.trim())
            .map_err(|e| io::Error::other(format!("bad reply {reply:?}: {e}")))
    }

    /// Send the warm-up job; returns once it is answered `done`.
    pub fn warm_up(&self) -> io::Result<()> {
        let reply = self.request(WARM_UP)?;
        match reply.get("status").and_then(Value::as_str) {
            Some("done") => Ok(()),
            _ => Err(io::Error::other(format!("warm-up job failed: {reply:?}"))),
        }
    }

    /// Peak resident set (`VmHWM`) in MB, summed over the server process
    /// and, for a cluster, the worker pids its `stats` reports.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut pids = vec![self.child.id()];
        if self.topology == Topology::Cluster {
            let stats = self.request(r#"{"op":"stats"}"#)?;
            if let Some(Value::Arr(shards)) = stats.get("shards") {
                pids.extend(
                    shards
                        .iter()
                        .filter_map(|s| Some(s.get("pid")?.as_u64()? as u32)),
                );
            }
            if pids.len() == 1 {
                return Err(io::Error::other("cluster stats name no worker pids"));
            }
        }
        let kb = pids
            .iter()
            .map(|&pid| vm_hwm_kb(pid))
            .sum::<io::Result<u64>>()?;
        Ok(kb as f64 / 1024.0)
    }

    /// Ask the server to shut down and wait until it and every process it
    /// started have exited.
    pub fn stop(mut self) -> io::Result<()> {
        let workers = workers_of(self.child.id());
        let _ = self.request(r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + STOP_TIMEOUT;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                // Dropping `self` kills the server and its workers.
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // A cluster coordinator can exit before its workers finish their
        // own shutdown; those are now ours (see `adopt_orphans`). A worker
        // its supervisor respawned during the shutdown never got one.
        let mut killed: Vec<u32> = workers_of(std::process::id())
            .into_iter()
            .filter(|pid| !workers.contains(pid))
            .collect();
        for &pid in &killed {
            kill(pid);
            wait_for(pid, true);
        }
        for pid in workers {
            while !wait_for(pid, false) {
                if Instant::now() > deadline {
                    killed.push(pid);
                    kill(pid);
                    wait_for(pid, true);
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if !killed.is_empty() {
            eprintln!(
                "tsa-e2e-bench: killed cluster workers {killed:?} left running after shutdown"
            );
        }
        Ok(())
    }
}

impl Drop for Server {
    /// Whatever path leaves a server behind, kill it and its workers, and
    /// wait for them.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        // The killed coordinator's workers are now ours.
        for pid in workers_of(std::process::id()) {
            kill(pid);
            wait_for(pid, true);
        }
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

fn vm_hwm_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM for pid {pid}")))
}

/// Make this process the reaper of its orphaned descendants, so cluster
/// workers that outlive their coordinator become its children instead of
/// init's, and it can wait for them.
fn adopt_orphans() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_CHILD_SUBREAPER: i32 = 36;
        // SAFETY: this prctl option reads one integer argument and touches
        // no memory of ours.
        unsafe {
            prctl(PR_SET_CHILD_SUBREAPER, 1 as std::os::raw::c_ulong);
        }
    }
}

/// The live cluster workers (`tsa serve ... --shard i`) whose parent is
/// `parent`. A zombie's empty command line excludes it.
fn workers_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|&pid| parent_of(pid) == Some(parent))
        .filter(|pid| {
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            cmdline.split(|&b| b == 0).any(|arg| arg == b"--shard")
        })
        .collect()
}

/// The parent pid from `/proc/<pid>/stat`.
fn parent_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn kill(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    // Callers pass a worker they saw as their own child; a child's pid
    // cannot be recycled before its parent reaps it.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// Reap `pid` if it is an exited child of this process. Returns false only
/// while it is a child still running; with `block`, waits for it to exit.
fn wait_for(pid: u32, block: bool) -> bool {
    extern "C" {
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }
    const WNOHANG: i32 = 1;
    let mut status = 0;
    // SAFETY: waitpid(2) writes one int through a pointer to a live local.
    let rc = unsafe { waitpid(pid as i32, &mut status, if block { 0 } else { WNOHANG }) };
    // 0: still running; the pid, or -1 (not our child: its coordinator
    // reaped it), means it is gone.
    rc != 0
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[cfg(target_os = "linux")]
type NfdsT = u64;
#[cfg(not(target_os = "linux"))]
type NfdsT = u32;

fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of records laid
        // out as `struct pollfd`, and `nfds` is its length; poll(2) only
        // writes their `revents` fields.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// How long a load phase sends new jobs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop sending after this many seconds.
    pub seconds: f64,
    /// Stop sending after this many jobs, if set.
    pub max_jobs: Option<usize>,
}

impl Budget {
    /// A share of this budget's time, with the same job cap.
    pub fn share(self, fraction: f64) -> Budget {
        Budget {
            seconds: self.seconds * fraction,
            ..self
        }
    }

    fn allows(&self, jobs: usize) -> bool {
        self.max_jobs.map_or(true, |max| jobs < max)
    }
}

/// One job's fate in a load phase.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Job index in the workload stream.
    pub job: usize,
    /// When the request was written.
    pub sent: Instant,
    /// When the reply was read (or the job was given up on).
    pub received: Instant,
    /// The parsed reply, or why there is none.
    pub response: Result<Value, String>,
}

/// The replies of one load phase.
#[derive(Debug)]
pub struct Load {
    /// Every job sent, answered or failed.
    pub replies: Vec<Reply>,
    /// Wall time from the first send to the last reply.
    pub wall: Duration,
}

struct Conn {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
    in_flight: HashMap<usize, Instant>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbox: Vec::new(),
            outbox: Vec::new(),
            in_flight: HashMap::new(),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what is available; returns the complete lines and, when the
    /// connection ended, why.
    fn receive(&mut self) -> (Vec<Vec<u8>>, Option<String>) {
        let mut buf = [0u8; 1 << 16];
        let closed = loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break Some("server closed the connection".to_string()),
                Ok(n) => self.inbox.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Some(format!("connection error: {e}")),
            }
        };
        let mut lines = Vec::new();
        while let Some(end) = self.inbox.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = self.inbox.drain(..=end).collect();
            line.pop();
            lines.push(line);
        }
        (lines, closed)
    }
}

/// Drive `stream` closed-loop: each connection keeps at most `window`
/// requests in flight and sends its next one only when a reply arrives.
/// `observe` sees each reply as it arrives. A lost connection, an
/// unmatched reply or a 60 s silence fails every job still in flight and
/// ends the phase.
pub fn drive(
    addr: SocketAddr,
    stream: &mut Stream,
    window: usize,
    budget: Budget,
    mut observe: impl FnMut(&Reply),
) -> io::Result<Load> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let started = Instant::now();
    let stop_at = started + Duration::from_secs_f64(budget.seconds);
    let (mut sent, mut replies, mut fatal) = (0usize, Vec::new(), None::<String>);
    loop {
        let now = Instant::now();
        let sending = fatal.is_none() && now < stop_at && budget.allows(sent);
        if sending {
            for conn in &mut conns {
                while conn.in_flight.len() < window && budget.allows(sent) {
                    let job = stream.next_job();
                    let mut line = stream.line(job);
                    line.push('\n');
                    conn.outbox.extend_from_slice(line.as_bytes());
                    conn.in_flight.insert(job, Instant::now());
                    sent += 1;
                    if let Err(e) = conn.flush() {
                        fatal = Some(format!("send failed: {e}"));
                    }
                }
            }
        }
        let oldest = conns
            .iter()
            .flat_map(|c| c.in_flight.values())
            .min()
            .copied();
        if fatal.is_none() && oldest.is_some_and(|t| now.duration_since(t) > JOB_TIMEOUT) {
            fatal = Some(format!("no reply within {} s", JOB_TIMEOUT.as_secs()));
        }
        if fatal.is_some() || (oldest.is_none() && !sending) {
            break;
        }
        let wake = [sending.then_some(stop_at), oldest.map(|t| t + JOB_TIMEOUT)]
            .into_iter()
            .flatten()
            .min();
        let timeout_ms = wake.map_or(1000, |w| {
            w.saturating_duration_since(now).as_millis().clamp(1, 1000) as i32
        });
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.outbox.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                },
                revents: 0,
            })
            .collect();
        poll_fds(&mut fds, timeout_ms)?;
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents & POLLOUT != 0 {
                if let Err(e) = conn.flush() {
                    fatal = Some(format!("send failed: {e}"));
                }
            }
            if fd.revents & (POLLIN | POLLHUP | POLLERR) == 0 {
                continue;
            }
            let (lines, closed) = conn.receive();
            let received = Instant::now();
            for line in lines {
                let response = Value::parse_bytes(&line);
                let job = response.as_ref().ok().and_then(|v| {
                    let id = v.get("id")?.as_str()?;
                    id.strip_prefix('j')?.parse::<usize>().ok()
                });
                match job.and_then(|job| Some((job, conn.in_flight.remove(&job)?))) {
                    Some((job, sent)) => {
                        let reply = Reply {
                            job,
                            sent,
                            received,
                            response,
                        };
                        observe(&reply);
                        replies.push(reply);
                    }
                    None => {
                        fatal = Some(format!(
                            "unmatched reply: {}",
                            String::from_utf8_lossy(&line)
                        ))
                    }
                }
            }
            if let Some(reason) = closed {
                fatal = fatal.or(Some(reason));
            }
        }
    }
    if let Some(reason) = fatal {
        let now = Instant::now();
        for conn in &mut conns {
            for (job, sent) in conn.in_flight.drain() {
                replies.push(Reply {
                    job,
                    sent,
                    received: now,
                    response: Err(reason.clone()),
                });
            }
        }
    }
    let last = replies.iter().map(|r| r.received).max().unwrap_or(started);
    Ok(Load {
        replies,
        wall: last.duration_since(started),
    })
}
