//! The event loop: one thread, one [`Poller`], every connection.
//!
//! Each wakeup services exactly the registrations the poller reported —
//! accept, read + frame + dispatch, flush — and re-syncs a connection's
//! interest mask only when it changed. The two things that are not
//! per-event run off the hot path: the wake-driven flush scan (a worker's
//! response did not fully flush, so some session now needs `POLLOUT`) and
//! the idle/stall deadline sweep on [`SWEEP_INTERVAL`]. Nothing here
//! knows which implementation the poller chose.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::dispatch::handle_frame;
use crate::metrics::server_metrics;
use crate::poller::{Event, Poller, POLLIN, POLLOUT};
use crate::proto::{ErrorKind, HELLO_V2, PROTOCOL_V2};
use crate::server::Inner;
use crate::session::{release_session_gauges, Session, BUF_RETAIN_CAP};

/// A connected loopback socket pair used as the event loop's wake channel
/// (a std-only stand-in for a self-pipe): sessions write a byte to the
/// `tx` end when a flush leaves residual output, the loop polls `rx`.
fn wake_pair() -> io::Result<(Arc<TcpStream>, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, peer) = listener.accept()?;
    if peer != tx.local_addr()? {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "wake pair hijacked by a foreign connection",
        ));
    }
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((Arc::new(tx), rx))
}

/// Per-connection event-loop state. Cheap on purpose: an idle session is
/// this struct + an empty `Vec` + one poller registration.
struct Conn {
    stream: TcpStream,
    session: Arc<Session>,
    /// No bytes seen yet: the first byte decides the dialect (0xCC ⇒ v2
    /// hello, anything else ⇒ a v1 length prefix), which is then recorded
    /// in `session.proto()`.
    negotiating: bool,
    /// Received-but-unconsumed bytes (partial frames across reads).
    buf: Vec<u8>,
    /// When the first byte of the frame currently being accumulated
    /// arrived; `None` while the buffer is empty (idle between frames).
    frame_start: Option<Instant>,
    last_activity: Instant,
    /// Lame-duck: no more reads; close as soon as buffered output (a
    /// final error response, typically) is flushed or the stall deadline
    /// passes.
    closing: bool,
    /// Interest mask currently registered with the poller.
    interest: i16,
}

/// Result of servicing one connection's readiness.
enum ConnAfter {
    Keep,
    Close,
    /// Close, but only after any buffered output (the error response just
    /// queued) has reached the kernel — never block to get it there.
    CloseAfterFlush,
}

pub(crate) struct EventLoop {
    listener: TcpListener,
    inner: Arc<Inner>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    scratch: Box<[u8; 64 * 1024]>,
    /// Read end of the wake channel; see [`wake_pair`].
    wake_rx: TcpStream,
    /// Write end, cloned into every session.
    wake_tx: Arc<TcpStream>,
}

/// Poller token for the listener socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token for the wake channel's read end.
const TOKEN_WAKE: u64 = 1;
/// Connection tokens are `session id + TOKEN_CONN_BASE`.
const TOKEN_CONN_BASE: u64 = 2;

/// How often the loop runs its idle/stall deadline sweep (and the upper
/// bound on its wait timeout). An O(connections) sweep per request would
/// give back the poller's O(ready) wakeups, so deadlines are checked on
/// this cadence instead (timeouts are seconds-scale; 100 ms of slack is
/// noise).
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

impl EventLoop {
    /// Builds the loop and registers the listener and the wake channel;
    /// any failure here fails `Server::start` before a thread exists.
    pub(crate) fn new(
        listener: TcpListener,
        inner: Arc<Inner>,
        mut poller: Poller,
    ) -> io::Result<EventLoop> {
        let (wake_tx, wake_rx) = wake_pair()?;
        poller.add(listener.as_raw_fd(), POLLIN, TOKEN_LISTENER)?;
        poller.add(wake_rx.as_raw_fd(), POLLIN, TOKEN_WAKE)?;
        Ok(EventLoop {
            listener,
            inner,
            poller,
            conns: HashMap::new(),
            scratch: Box::new([0u8; 64 * 1024]),
            wake_rx,
            wake_tx,
        })
    }

    pub(crate) fn run(mut self) {
        let m = server_metrics();
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.inner.draining() {
                // Leave sessions registered: workers may still be
                // flushing responses; drain_and_join tears them down.
                return;
            }
            m.eventloop_iterations.inc();
            self.inner.inline_spent_ns.store(0, Ordering::Relaxed);
            let timeout_ms = SWEEP_INTERVAL
                .saturating_sub(last_sweep.elapsed())
                .as_millis() as i32
                + 1;
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                // The wait itself failing is not a per-conn condition;
                // back off briefly rather than spin.
                thread::sleep(Duration::from_millis(5));
                continue;
            }
            if self.inner.draining() {
                return;
            }
            let mut wake_fired = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => wake_fired = true,
                    token => {
                        let id = token - TOKEN_CONN_BASE;
                        if ev.ready(POLLIN) || ev.failed() {
                            let after = match self.conns.get_mut(&id) {
                                Some(conn) if !conn.closing => {
                                    service_conn(&self.inner, conn, &mut self.scratch[..])
                                }
                                _ => continue,
                            };
                            match after {
                                ConnAfter::Keep => {}
                                ConnAfter::Close => {
                                    self.close_conn(id);
                                    continue;
                                }
                                ConnAfter::CloseAfterFlush => {
                                    self.begin_close(id);
                                    continue;
                                }
                            }
                        }
                        self.flush_and_sync(id);
                    }
                }
            }
            if wake_fired {
                // A session's outbound buffer went empty→non-empty (a
                // worker response didn't fully flush): find the owing
                // sessions and register POLLOUT for them. Wakes only
                // happen on that transition, so this scan is off the
                // per-request path.
                self.drain_wake();
                let pending_ids: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.closing || c.session.has_pending())
                    .map(|(id, _)| *id)
                    .collect();
                for id in pending_ids {
                    self.flush_and_sync(id);
                }
            }
            if last_sweep.elapsed() >= SWEEP_INTERVAL {
                last_sweep = Instant::now();
                self.sweep_deadlines();
            }
        }
    }

    /// Flushes a connection that may owe bytes, closes it if its write
    /// half died (or a lame-duck drain finished), and re-syncs its
    /// interest mask.
    fn flush_and_sync(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        if conn.closing || conn.session.has_pending() {
            let alive = conn.session.flush_pending();
            if !alive || (conn.closing && !conn.session.has_pending()) {
                self.close_conn(id);
                return;
            }
        }
        self.sync_interest(id);
    }

    /// Reconciles a connection's registered interest with what it needs
    /// now (`POLLIN` unless lame-duck, `POLLOUT` while output is
    /// buffered). One `modify` only when the mask actually changed.
    fn sync_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut want = if conn.closing { 0 } else { POLLIN };
        if conn.session.has_pending() {
            want |= POLLOUT;
        }
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), want, TOKEN_CONN_BASE + id)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Sweeps connection deadlines, driven by the clock alone
    /// (WouldBlock never gets a connection here): silence beyond the
    /// idle window, or buffered output the peer has not drained within
    /// the stall window (it stopped reading its socket).
    fn sweep_deadlines(&mut self) {
        let m = server_metrics();
        let idle = self.inner.cfg.idle_timeout;
        let stall = self.inner.cfg.write_stall_timeout;
        let dead_ids: Vec<(u64, bool)> = self
            .conns
            .iter()
            .filter_map(|(id, c)| {
                let stalled = c.session.has_pending()
                    && matches!(c.session.stalled_for(), Some(d) if d >= stall);
                if stalled {
                    Some((*id, true))
                } else if c.last_activity.elapsed() >= idle {
                    Some((*id, false))
                } else {
                    None
                }
            })
            .collect();
        for (id, stalled) in dead_ids {
            if stalled {
                m.write_stalled_closed.inc();
            } else {
                m.idle_closed.inc();
            }
            self.close_conn(id);
        }
    }

    /// Empties the wake channel; the actual work happens in the flush
    /// pass, keyed off each session's `has_pending` flag.
    fn drain_wake(&mut self) {
        loop {
            match self.wake_rx.read(&mut self.scratch[..]) {
                Ok(0) => return, // tx end closed: server is tearing down
                Ok(n) if n < self.scratch.len() => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Starts a lame-duck close: flush what is already writable now, keep
    /// the connection (write side only) while output remains, close as
    /// soon as it drains. The stall sweep bounds how long that lasts.
    fn begin_close(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let alive = conn.session.flush_pending();
        if !alive || !conn.session.has_pending() {
            self.close_conn(id);
        } else {
            conn.closing = true;
        }
    }

    fn accept_ready(&mut self) {
        // Drain the accept backlog; nonblocking accept ends with WouldBlock.
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.inner.draining() {
                        return;
                    }
                    self.register_conn(stream, peer.to_string());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept error (e.g. EMFILE): yield briefly,
                    // keep serving existing connections.
                    thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream, peer: String) {
        let m = server_metrics();
        m.connections.inc();
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.inner.cfg.send_buffer_bytes {
            let _ = polling::set_send_buffer(stream.as_raw_fd(), bytes);
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return, // dead on arrival
        };
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session::new(
            id,
            peer,
            writer,
            Arc::clone(&self.wake_tx),
            self.inner.cfg.max_frame_bytes,
        ));
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, Arc::clone(&session));
        m.sessions_active.add(1);
        // Counted as v1 until a hello upgrades it (v1 needs no handshake).
        m.sessions_v1.add(1);
        let fd = stream.as_raw_fd();
        self.conns.insert(
            id,
            Conn {
                stream,
                session,
                negotiating: true,
                buf: Vec::new(),
                frame_start: None,
                last_activity: Instant::now(),
                closing: false,
                interest: POLLIN,
            },
        );
        if self.poller.add(fd, POLLIN, TOKEN_CONN_BASE + id).is_err() {
            // Unregisterable connection is unservable; drop it.
            self.close_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        // Explicit deregistration is required: the session's OutBuf holds
        // a dup of this socket, and epoll tracks the open file
        // *description* — dropping `conn.stream` alone would leave the
        // registration (and its token) alive.
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // A transaction must not outlive its connection: its inherited
        // locks would block every other session until the lock timeout.
        self.inner.txns.abort_if_any(id);
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
        if self
            .inner
            .watchers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id)
            .is_some()
        {
            // A subscription that dies with its connection (stall-killed
            // or peer disconnect) is a drop, not a cancel.
            server_metrics().watch_subscribers.add(-1);
            server_metrics().watch_dropped.inc();
        }
        release_session_gauges(server_metrics(), conn.session.proto());
        // Force the FIN out even if a queued job still holds the session
        // (its late write will just fail, which is already tolerated).
        conn.session.close();
    }
}

/// Reads whatever the kernel has buffered for `conn` and processes every
/// complete frame in it.
fn service_conn(inner: &Arc<Inner>, conn: &mut Conn, scratch: &mut [u8]) -> ConnAfter {
    let after = service_conn_io(inner, conn, scratch);
    // A connection retains only a small receive buffer between frames; a
    // one-off large frame must not pin its allocation for the session's
    // lifetime.
    if conn.buf.is_empty() && conn.buf.capacity() > BUF_RETAIN_CAP {
        conn.buf = Vec::new();
    }
    after
}

fn service_conn_io(inner: &Arc<Inner>, conn: &mut Conn, scratch: &mut [u8]) -> ConnAfter {
    let m = server_metrics();
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                // EOF. Mid-frame it is a truncation worth counting.
                if !conn.buf.is_empty() {
                    m.malformed.inc();
                    return ConnAfter::Close;
                }
                // A clean half-close may still be waiting on buffered
                // pipelined responses; let those drain first.
                return if conn.session.has_pending() {
                    ConnAfter::CloseAfterFlush
                } else {
                    ConnAfter::Close
                };
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                if conn.frame_start.is_none() {
                    conn.frame_start = Some(conn.last_activity);
                }
                conn.buf.extend_from_slice(&scratch[..n]);
                match process_buffer(inner, conn) {
                    ConnAfter::Keep => {}
                    close => return close,
                }
                if n < scratch.len() {
                    // Short read: the kernel buffer is drained.
                    return ConnAfter::Keep;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnAfter::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnAfter::Close,
        }
    }
}

/// Consumes every complete unit (hello or frame) in `conn.buf`.
fn process_buffer(inner: &Arc<Inner>, conn: &mut Conn) -> ConnAfter {
    let m = server_metrics();
    loop {
        if conn.negotiating {
            let Some(&first) = conn.buf.first() else {
                return ConnAfter::Keep;
            };
            if first != HELLO_V2[0] {
                // A v1 length prefix (its first byte is always 0x00 under
                // the 1 MiB cap; anything non-0xCC gets v1's strict
                // framing checks below).
                conn.negotiating = false;
            } else {
                if conn.buf.len() < HELLO_V2.len() {
                    return ConnAfter::Keep; // partial hello
                }
                if conn.buf[..HELLO_V2.len()] != HELLO_V2 {
                    m.malformed.inc();
                    let msg = format!("bad hello magic (expected {:02x?})", &HELLO_V2[..]);
                    conn.session.reply(0, &Err((ErrorKind::Protocol, msg)));
                    return ConnAfter::CloseAfterFlush;
                }
                if inner.cfg.max_proto < PROTOCOL_V2 {
                    m.malformed.inc();
                    let msg = "protocol v2 not supported (server pinned to v1)";
                    conn.session
                        .reply(0, &Err((ErrorKind::Protocol, msg.into())));
                    return ConnAfter::CloseAfterFlush;
                }
                // Accept: echo the magic raw (unframed) and switch modes.
                conn.buf.drain(..HELLO_V2.len());
                conn.frame_start = if conn.buf.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                conn.session.upgrade_to_v2();
                m.sessions_v1.add(-1);
                m.sessions_v2.add(1);
                // The ack is queued ahead of any response to pipelined v2
                // frames already in `buf`, preserving stream order.
                if !conn.session.enqueue_raw(&HELLO_V2) {
                    return ConnAfter::Close;
                }
                conn.negotiating = false;
                continue;
            }
        }

        // Framed modes: extract one length-prefixed frame.
        if conn.buf.len() < 4 {
            return ConnAfter::Keep;
        }
        let len = u32::from_be_bytes(conn.buf[..4].try_into().unwrap()) as usize;
        if len > inner.cfg.max_frame_bytes {
            // Refused before the body is ever buffered past what already
            // arrived; framing is unrecoverable after this.
            m.malformed.inc();
            let msg = format!(
                "frame of {len} bytes exceeds cap of {}",
                inner.cfg.max_frame_bytes
            );
            conn.session.reply(0, &Err((ErrorKind::Protocol, msg)));
            return ConnAfter::CloseAfterFlush;
        }
        if conn.buf.len() < 4 + len {
            return ConnAfter::Keep; // partial frame
        }
        let first_byte = conn.frame_start.take().unwrap_or_else(Instant::now);
        conn.frame_start = if conn.buf.len() == 4 + len {
            None
        } else {
            Some(Instant::now())
        };
        let recv_ns = first_byte.elapsed().as_nanos() as u64;
        // The frame runs borrowed from the read buffer, which drops it
        // only afterwards; a queued job copies what it keeps.
        handle_frame(
            inner,
            &conn.session,
            &conn.buf[4..4 + len],
            first_byte,
            recv_ns,
        );
        conn.buf.drain(..4 + len);
    }
}

#[cfg(test)]
mod tests {
    use ccdb_core::Value;
    use serde_json::Value as Json;

    use crate::handler::tests::fixture;
    use crate::poller::Poller;
    use crate::{Client, Server, ServerConfig};

    /// The same create / bind / attr / set_attr / txn round trips, once on
    /// the poller the platform probe picks and once on the `poll(2)`
    /// fallback (the only path on non-Linux Unix, reachable here through
    /// the crate-private seams alone). `server_info` must name whichever
    /// one is actually running.
    #[test]
    fn the_probed_poller_and_the_poll_fallback_serve_the_same_workload() {
        for poller in [Poller::new().unwrap(), Poller::new_poll()] {
            let name = poller.name();
            let server = Server::start_on(ServerConfig::default(), fixture().0, poller).unwrap();
            assert_eq!(server.backend(), name);

            let mut c = Client::connect(server.local_addr()).unwrap();
            let info = c.ping_info().unwrap();
            assert_eq!(
                info.get("backend").and_then(Json::as_str),
                Some(name),
                "server_info must report the active backend: {info:?}"
            );

            let interface = c.create("If", &[("X", Value::Int(7))]).unwrap();
            let imp = c.create("Impl", &[]).unwrap();
            c.bind("AllOf_If", interface, imp).unwrap();
            for n in 0..50i64 {
                c.set_attr(interface, "X", Value::Int(n)).unwrap();
                assert_eq!(
                    c.attr(imp, "X").unwrap(),
                    Value::Int(n),
                    "[{name}] write not visible through the binding"
                );
            }

            // A second (v2) session reads while the first holds a
            // transaction: uncommitted writes stay private, the commit
            // publishes them.
            let mut other = Client::connect_v2(server.local_addr()).unwrap();
            c.begin().unwrap();
            c.set_attr(interface, "X", Value::Int(1_000)).unwrap();
            assert_eq!(c.attr(imp, "X").unwrap(), Value::Int(1_000), "[{name}]");
            assert_eq!(other.attr(imp, "X").unwrap(), Value::Int(49), "[{name}]");
            c.commit().unwrap();
            assert_eq!(other.attr(imp, "X").unwrap(), Value::Int(1_000), "[{name}]");
            server.shutdown();
        }
    }
}
