//! Per-connection session state and its never-blocking outbound half.
//!
//! A [`Session`] is what outlives one readiness event: workers, the
//! streamer and the event loop all hold it by `Arc` and answer through
//! [`Session::reply`], which encodes a whole frame straight into the
//! [`OutBuf`] and flushes as far as the kernel allows. Nothing here ever
//! parks on a client socket (the one exception,
//! [`Session::flush_blocking`], runs only after the event loop has
//! exited).

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value as Json;

use crate::handler::HandlerResult;
use crate::metrics::{server_metrics, ServerMetrics};
use crate::proto::PROTOCOL_V2;

/// Per-connection session state (the paper's "designer at a workstation").
pub(crate) struct Session {
    pub(crate) id: u64,
    peer: String,
    /// Negotiated wire protocol (1 until a v2 hello upgrades it).
    proto: AtomicU8,
    /// Outbound write half. Workers and the event loop append whole
    /// frames under the lock and flush them without ever blocking; see
    /// [`OutBuf`] for the stall/desync story.
    out: Mutex<OutBuf>,
    /// Lock-free mirror of "`out.pending` is non-empty": the event loop
    /// reads it to decide `POLLOUT` interest without touching the
    /// connection's mutex.
    has_pending: AtomicBool,
    /// Write end of the event loop's wake channel; a byte is nudged in
    /// when a flush first leaves residual bytes so the loop registers
    /// `POLLOUT` now instead of at its next wait timeout.
    wake: Arc<TcpStream>,
    /// Cap on buffered-but-unsent response bytes; a backlog beyond it
    /// means the peer stopped draining and the connection is killed.
    out_cap: usize,
    pub(crate) requests: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    started: Instant,
}

/// The outbound half of a connection.
///
/// Every write — worker responses and the event loop's inline errors and
/// acks alike — appends whole frames here and then flushes as far as the
/// kernel will take without blocking. Residual bytes stay queued (a frame
/// is never abandoned mid-write, so the length-prefixed stream cannot
/// desync) and are pushed out by the event loop on `POLLOUT` readiness.
/// Nothing ever parks on this socket: a peer that stops draining is
/// caught by the stall deadline or the backlog cap and the socket is shut
/// down, which the event loop observes as readiness and reaps.
struct OutBuf {
    stream: TcpStream,
    /// Bytes accepted but not yet written to the kernel.
    pending: Vec<u8>,
    /// When `pending` last became non-empty — origin of the stall
    /// deadline. `None` whenever the buffer is drained.
    stalled_since: Option<Instant>,
    /// A write failed or the stall budget ran out: the socket has been
    /// shut down and every later send is dropped.
    dead: bool,
}

impl OutBuf {
    /// Writes as much of `pending` as the kernel will take right now.
    /// Never blocks; `WouldBlock` leaves the rest queued.
    fn flush(&mut self) {
        while !self.pending.is_empty() && !self.dead {
            match self.stream.write(&self.pending) {
                Ok(0) => return self.kill(),
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return self.kill(),
            }
        }
        if self.pending.is_empty() && !self.dead {
            self.stalled_since = None;
            if self.pending.capacity() > BUF_RETAIN_CAP {
                self.pending = Vec::new();
            }
            let _ = self.stream.flush();
        }
    }

    /// Declares the write half unusable and forces the socket closed, so
    /// the event loop reaps the connection via readiness (EOF/`POLLERR`)
    /// instead of anyone ever writing onto a desynced stream.
    fn kill(&mut self) {
        self.dead = true;
        self.pending = Vec::new();
        self.stalled_since = None;
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Session {
    /// A fresh v1 session answering through `writer` (a dup of the
    /// connection's socket). `max_frame_bytes` sizes the backlog cap.
    pub(crate) fn new(
        id: u64,
        peer: String,
        writer: TcpStream,
        wake: Arc<TcpStream>,
        max_frame_bytes: usize,
    ) -> Session {
        Session {
            id,
            peer,
            proto: AtomicU8::new(1),
            out: Mutex::new(OutBuf {
                stream: writer,
                pending: Vec::new(),
                stalled_since: None,
                dead: false,
            }),
            has_pending: AtomicBool::new(false),
            wake,
            out_cap: max_frame_bytes.saturating_mul(OUT_CAP_FRAMES),
            requests: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    pub(crate) fn proto(&self) -> u8 {
        self.proto.load(Ordering::Relaxed)
    }

    /// The v2 hello was accepted: every later frame is binary.
    pub(crate) fn upgrade_to_v2(&self) {
        self.proto.store(PROTOCOL_V2, Ordering::Relaxed);
    }

    /// Whether buffered output is waiting on the peer (one atomic load;
    /// the event loop's `POLLOUT` interest follows this).
    pub(crate) fn has_pending(&self) -> bool {
        self.has_pending.load(Ordering::Acquire)
    }

    pub(crate) fn info_json(&self) -> Json {
        Json::Object(vec![
            ("session".into(), Json::UInt(self.id)),
            ("peer".into(), Json::String(self.peer.clone())),
            ("proto".into(), Json::UInt(self.proto() as u64)),
            (
                "requests".into(),
                Json::UInt(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "bytes_in".into(),
                Json::UInt(self.bytes_in.load(Ordering::Relaxed)),
            ),
            (
                "bytes_out".into(),
                Json::UInt(self.bytes_out.load(Ordering::Relaxed)),
            ),
            (
                "uptime_ms".into(),
                Json::UInt(self.started.elapsed().as_millis() as u64),
            ),
        ])
    }

    /// Answers request `id` with `result`, encoded in this session's
    /// dialect straight into the outbound buffer under its lock (see
    /// [`append_reply`](crate::reply::append_reply): no half frame is
    /// ever visible), then flushes what the kernel will take, never
    /// blocking. Returns when encoding ended — the boundary between the
    /// request's `serialize` and `write` phases. Write errors are
    /// swallowed: the peer may have gone away, which is its problem.
    pub(crate) fn reply(&self, id: u64, result: &HandlerResult) -> Instant {
        let proto = self.proto();
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        if !self.admit(&mut o) {
            return Instant::now();
        }
        let len = crate::reply::append_reply(&mut o.pending, proto, id, result);
        let encoded = Instant::now();
        let Some(len) = len else {
            return encoded;
        };
        o.flush();
        if self.note_flush_state(&mut o) {
            self.bytes_out.fetch_add(len as u64, Ordering::Relaxed);
            server_metrics().bytes_out.add(len as u64);
        }
        encoded
    }

    /// Queues `bytes` on the write half and flushes what the kernel will
    /// take, never blocking. Returns `false` when the write half is (or
    /// just became) dead — the bytes were dropped.
    pub(crate) fn enqueue_raw(&self, bytes: &[u8]) -> bool {
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        if !self.admit(&mut o) {
            return false;
        }
        o.pending.extend_from_slice(bytes);
        o.flush();
        self.note_flush_state(&mut o)
    }

    /// Whether the write half takes more bytes: it is alive, and its
    /// backlog is under the cap.
    fn admit(&self, o: &mut OutBuf) -> bool {
        if o.dead {
            return false;
        }
        if o.pending.len() > self.out_cap {
            // The peer stopped draining and the backlog hit the cap:
            // buffering more is unbounded memory, not kindness. This is
            // the same failure the timed stall sweep hunts — count it
            // there (the sweep can't: `kill` clears `pending`, so by the
            // time it looks this connection is indistinguishable from an
            // idle one).
            o.kill();
            self.has_pending.store(false, Ordering::Release);
            server_metrics().write_stalled_closed.inc();
            return false;
        }
        true
    }

    /// Flushes any buffered output (event loop, on `POLLOUT` readiness or
    /// a wake). Returns `false` when the write half is dead.
    pub(crate) fn flush_pending(&self) -> bool {
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        o.flush();
        self.note_flush_state(&mut o)
    }

    /// Post-flush bookkeeping shared by every flush site: keeps the
    /// lock-free `has_pending` mirror in sync (all updates happen under
    /// the `out` lock), arms the stall deadline, and nudges the event
    /// loop's wake channel on the empty→non-empty transition.
    fn note_flush_state(&self, o: &mut OutBuf) -> bool {
        if o.dead {
            self.has_pending.store(false, Ordering::Release);
            return false;
        }
        if o.pending.is_empty() {
            self.has_pending.store(false, Ordering::Release);
        } else {
            if o.stalled_since.is_none() {
                o.stalled_since = Some(Instant::now());
            }
            if !self.has_pending.swap(true, Ordering::AcqRel) {
                let _ = (&*self.wake).write(&[1]);
            }
        }
        true
    }

    /// How long the oldest buffered response byte has waited on a peer
    /// that is not draining its socket, if any wait is in progress.
    pub(crate) fn stalled_for(&self) -> Option<Duration> {
        let o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        o.stalled_since.map(|t| t.elapsed())
    }

    /// Whether the write half has been killed (stall/backlog/error). The
    /// streamer uses this to drop subscriptions to reaped connections.
    pub(crate) fn is_dead(&self) -> bool {
        self.out.lock().unwrap_or_else(|p| p.into_inner()).dead
    }

    /// Drain-path flush: parks on `POLLOUT` (bounded by `budget`) so
    /// in-flight responses reach slow-but-live clients. Only called from
    /// shutdown, after the event loop has exited — nothing else may block
    /// on a client.
    pub(crate) fn flush_blocking(&self, budget: Duration) {
        let deadline = Instant::now() + budget;
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            o.flush();
            if o.dead || o.pending.is_empty() {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            match polling::wait_writable(o.stream.as_raw_fd(), left.as_millis() as i32 + 1) {
                Ok(true) => {}
                Ok(false) | Err(_) => return,
            }
        }
    }

    /// Shuts the socket down (both halves), dropping anything still
    /// buffered. Late writes from workers holding the `Arc` just die.
    pub(crate) fn close(&self) {
        let mut o = self.out.lock().unwrap_or_else(|p| p.into_inner());
        o.kill();
        self.has_pending.store(false, Ordering::Release);
    }
}

/// How long buffered response bytes may sit undrained (the peer is not
/// reading its socket) before the connection is declared stalled and
/// killed. Also the total budget shutdown spends flushing stragglers.
pub(crate) const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Outbound backlog cap, as a multiple of the frame-size cap.
const OUT_CAP_FRAMES: usize = 4;

/// Retained-capacity ceiling for drained per-connection buffers: an
/// allocation that outgrew this during a burst is freed once empty, so an
/// idle session goes back to costing ~nothing instead of pinning the
/// largest frame it ever saw.
pub(crate) const BUF_RETAIN_CAP: usize = 8 * 1024;

pub(crate) fn release_session_gauges(m: &ServerMetrics, proto: u8) {
    m.sessions_active.add(-1);
    match proto {
        p if p == PROTOCOL_V2 => m.sessions_v2.add(-1),
        _ => m.sessions_v1.add(-1),
    }
}
