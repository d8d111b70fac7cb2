//! The cluster's front door: a single-threaded, bounded event loop
//! multiplexing every client connection over one `poll(2)` call.
//!
//! Threads-per-connection would cap the cluster at a few hundred idle
//! clients; here each connection costs one nonblocking socket, one
//! registered pollfd, and two byte buffers, so 10k+ mostly idle
//! connections are cheap. Submissions leave the loop immediately
//! (routed to a worker by the coordinator); responses come back through
//! the coordinator's outbox, and a loopback "wake" socket pair kicks
//! the poll so they flush without waiting for the next timeout tick.
//!
//! `poll(2)` is called through a minimal FFI shim (the repo vendors no
//! libc/mio), following the `signal(2)` shim precedent in the CLI; on
//! non-unix targets the front door reports `Unsupported`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use crate::coordinator::Coordinator;

/// A line longer than this without a newline is a protocol abuse; the
/// connection is answered with an error and closed.
const MAX_LINE: usize = 1 << 20;

/// Tunables for the front-door event loop.
#[derive(Debug, Clone)]
pub struct FrontOptions {
    /// Close a connection that has sent no bytes for this long, so
    /// dead clients cannot pin poll slots forever. `None` disables the
    /// sweep. The default matches `tsa serve`'s per-connection read
    /// timeout (300s).
    pub idle_timeout: Option<Duration>,
}

impl Default for FrontOptions {
    fn default() -> FrontOptions {
        FrontOptions {
            idle_timeout: Some(Duration::from_secs(300)),
        }
    }
}

#[cfg(unix)]
mod sys {
    /// Mirrors `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    pub type NfdsT = u64;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// `poll(2)` with EINTR retry. Returns the ready count.
    pub fn poll_retry(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(unix)]
struct Conn {
    stream: std::net::TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Last time the peer sent bytes or a response was queued for it;
    /// the idle sweep closes connections quiet past the timeout.
    last_activity: std::time::Instant,
}

/// Serve the cluster protocol on `listener` until the coordinator
/// stops running (a `shutdown`/`drain` op). Blocks the calling thread,
/// and returns only once every spawned worker has been reaped. Uses the
/// default [`FrontOptions`].
pub fn serve_front(coordinator: &Arc<Coordinator>, listener: TcpListener) -> io::Result<()> {
    serve_front_with(coordinator, listener, FrontOptions::default())
}

/// [`serve_front`] with explicit options.
#[cfg(unix)]
pub fn serve_front_with(
    coordinator: &Arc<Coordinator>,
    listener: TcpListener,
    options: FrontOptions,
) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    use sys::*;

    listener.set_nonblocking(true)?;

    // Wake channel: a loopback socket pair. The waker writes one byte;
    // the loop sees POLLIN on the read end and drains the outbox.
    let wake_listener = TcpListener::bind("127.0.0.1:0")?;
    let wake_tx = std::net::TcpStream::connect(wake_listener.local_addr()?)?;
    let (wake_rx, _) = wake_listener.accept()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    {
        let wake_tx = wake_tx.try_clone()?;
        coordinator.set_waker(Box::new(move || {
            // A full socket buffer already guarantees a pending wake.
            (&wake_tx).write_all(b"w").ok();
        }));
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;

    loop {
        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        // Order here matches the iteration below: ids snapshot once.
        let ids: Vec<u64> = conns.keys().copied().collect();
        for id in &ids {
            let conn = &conns[id];
            let mut events = POLLIN;
            if !conn.wbuf.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }

        poll_retry(&mut fds, 250)?;

        // New connections.
        if fds[0].revents & (POLLIN | POLLERR) != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        stream.set_nodelay(true).ok();
                        conns.insert(
                            next_conn,
                            Conn {
                                stream,
                                rbuf: Vec::new(),
                                wbuf: Vec::new(),
                                last_activity: std::time::Instant::now(),
                            },
                        );
                        next_conn += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        // Wake bytes: drain them, then route outbox lines to buffers.
        if fds[1].revents & POLLIN != 0 {
            let mut sink = [0u8; 256];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        for (conn_id, line) in coordinator.take_outbox() {
            if let Some(conn) = conns.get_mut(&conn_id) {
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
                // A connection waiting on a slow job is not idle.
                conn.last_activity = std::time::Instant::now();
            }
            // A departed connection drops its responses on the floor —
            // same as a stdio client that hung up mid-batch.
        }

        // Per-connection I/O.
        let mut closed: Vec<u64> = Vec::new();
        for (slot, id) in ids.iter().enumerate() {
            let revents = fds[slot + 2].revents;
            if revents == 0 {
                continue;
            }
            let conn = conns.get_mut(id).expect("snapshot id");
            if revents & (POLLERR | POLLNVAL) != 0 {
                closed.push(*id);
                continue;
            }
            if revents & (POLLIN | POLLHUP) != 0 {
                let mut buf = [0u8; 16 * 1024];
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            closed.push(*id);
                            break;
                        }
                        Ok(n) => {
                            conn.last_activity = std::time::Instant::now();
                            conn.rbuf.extend_from_slice(&buf[..n]);
                            while let Some(nl) = conn.rbuf.iter().position(|&b| b == b'\n') {
                                let line: Vec<u8> = conn.rbuf.drain(..=nl).collect();
                                let line = String::from_utf8_lossy(&line[..nl]).into_owned();
                                for resp in coordinator.handle_front_line(*id, &line) {
                                    conn.wbuf.extend_from_slice(resp.as_bytes());
                                    conn.wbuf.push(b'\n');
                                }
                            }
                            if conn.rbuf.len() > MAX_LINE {
                                conn.wbuf
                                    .extend_from_slice(br#"{"ok":false,"error":"line_too_long"}"#);
                                conn.wbuf.push(b'\n');
                                let _ = conn.stream.write_all(&conn.wbuf);
                                closed.push(*id);
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            closed.push(*id);
                            break;
                        }
                    }
                }
            }
            if closed.contains(id) {
                continue;
            }
            if !conn.wbuf.is_empty() {
                match write_some(&mut conn.stream, &mut conn.wbuf) {
                    Ok(()) => {}
                    Err(_) => closed.push(*id),
                }
            }
        }
        for id in closed {
            conns.remove(&id);
        }

        // Idle sweep: the 250ms poll timeout bounds how stale this
        // check can get, so no extra timer is needed.
        if let Some(idle) = options.idle_timeout {
            let now = std::time::Instant::now();
            conns.retain(|_, conn| now.duration_since(conn.last_activity) < idle);
        }

        if !coordinator.is_running() {
            // Final courtesy flush of anything already queued (the
            // shutdown response itself), bounded so a stuck peer
            // cannot wedge process exit.
            for (conn_id, line) in coordinator.take_outbox() {
                if let Some(conn) = conns.get_mut(&conn_id) {
                    conn.wbuf.extend_from_slice(line.as_bytes());
                    conn.wbuf.push(b'\n');
                }
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
            for conn in conns.values_mut() {
                while !conn.wbuf.is_empty() && std::time::Instant::now() < deadline {
                    if write_some(&mut conn.stream, &mut conn.wbuf).is_err() {
                        break;
                    }
                    if !conn.wbuf.is_empty() {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                }
            }
            // The control thread that answered the op is still reaping
            // workers; wait for it, so the caller never exits first.
            coordinator.stop();
            return Ok(());
        }
    }
}

/// Write as much of `wbuf` as the socket accepts right now.
#[cfg(unix)]
fn write_some(stream: &mut std::net::TcpStream, wbuf: &mut Vec<u8>) -> io::Result<()> {
    while !wbuf.is_empty() {
        match stream.write(wbuf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Non-unix targets have no `poll(2)`; the cluster front door is a
/// unix-only feature (batch mode still works everywhere).
#[cfg(not(unix))]
pub fn serve_front_with(
    _coordinator: &Arc<Coordinator>,
    _listener: TcpListener,
    _options: FrontOptions,
) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the cluster front door requires poll(2); use --batch on this platform",
    ))
}
