//! The TCP server: one event loop over one `Poller` + a worker pool, with
//! an inline fast path for storeless and read verbs.
//!
//! ```text
//!            accept / readiness              sharded queues (1/worker)
//!  clients ──────────────▶ event loop (1 thread) ─────▶ workers (N)
//!                │  one Poller over listener + conns     │ steal-on-empty
//!                │  framing, negotiation, admission      ▼
//!                │  + inline reads on a pinned   SharedStore (MVCC:
//!                ▼    MVCC snapshot               readers pin snapshots,
//!          per-conn session state                 writers publish)
//!          + outbound buffer (workers and
//!            the loop append frames; flushed
//!            nonblockingly, drained on POLLOUT)
//! ```
//!
//! Connections used to get a pinned reader thread each; thousands of
//! mostly-idle CAD sessions (the paper's designers parked at
//! workstations) made that the dominant cost — a thread's stack and a
//! context switch per frame for connections that talk once a minute. The
//! event loop registers every connection in one readiness set instead
//! (`polling::Poller`: epoll where the platform has it, `poll(2)`
//! elsewhere — chosen by a platform probe, never by configuration): an
//! idle session costs one fd and ~a hundred bytes of buffer, and the
//! thread count is `1 + workers` no matter how many clients are parked.
//!
//! This module holds the configuration, [`Server`] start/drain and the
//! state every thread shares; the rest is split by responsibility:
//! `session` (per-connection state and its never-blocking outbound
//! buffer), `event_loop` (readiness, framing, negotiation), `dispatch`
//! (inline policy, worker loop, request execution) and `watch`
//! (telemetry subscriptions and their streamer thread).
//!
//! Production-shaping behaviors:
//!
//! - **Protocol negotiation**: a v2 client leads with the raw
//!   [`HELLO_V2`] magic and gets it echoed back; anything else is a v1
//!   length prefix and the connection stays JSON. A server pinned to v1
//!   (`max_proto = 1`) refuses the hello with a clean v1 `protocol`
//!   error.
//! - **Admission control**: parsed requests go into a [`ShardedQueue`]
//!   (one bounded FIFO per worker, global cap, work stealing); at
//!   capacity the request is answered `Overloaded` immediately — offered
//!   load beyond capacity costs one response, never unbounded memory.
//! - **Inline fast path**: storeless and read verbs (by their
//!   [`VerbClass`](crate::proto::VerbClass)) execute directly on the
//!   event-loop thread against a pinned MVCC snapshot when the queue is
//!   shallow — no enqueue, no worker wakeup. Write verbs, txn verbs, batches, and
//!   in-transaction sessions always go to workers, and a per-iteration
//!   time budget falls back to the queue under load so the loop cannot
//!   starve its readiness duties.
//! - **Idle timeouts**: the event loop sweeps connection deadlines on a
//!   100 ms cadence; a connection that sends nothing for the window is
//!   closed (counted in `ccdb_server_idle_closed_total`). `WouldBlock`
//!   on these nonblocking sockets means "no data yet", never "idle" —
//!   see [`FrameError::is_would_block`].
//! - **Stalled writers**: no thread ever blocks writing to a client.
//!   Responses are appended to a per-session outbound buffer and flushed as
//!   far as the kernel allows; residual bytes drain on `POLLOUT`
//!   readiness. A peer that stops reading its socket is killed once its
//!   backlog outlives the stall window or exceeds the backlog cap
//!   (counted in `ccdb_server_write_stalled_closed_total`) — it can never
//!   stall the event loop, a worker, or any other connection.
//! - **Malformed-frame hardening**: oversized length prefixes are refused
//!   before any allocation, truncated frames and bad JSON/bval/versions
//!   are counted and answered (or the connection dropped) without
//!   panicking.
//! - **Panic isolation**: a handler panic is caught in the worker,
//!   answered as an `internal` error, and the worker keeps serving.
//! - **Graceful shutdown**: draining stops the event loop (no new reads),
//!   lets queued requests finish and their responses flush through the
//!   sessions' write halves, then unblocks and joins every thread.
//!
//! [`HELLO_V2`]: crate::proto::HELLO_V2
//! [`FrameError::is_would_block`]: crate::proto::FrameError::is_would_block

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ccdb_core::schema::Catalog;
use ccdb_core::shared::SharedStore;
use ccdb_obs::timeseries;
use ccdb_txn::TxnRegistry;

use crate::dispatch::{worker_loop, Job};
use crate::event_loop::EventLoop;
use crate::handler::ServerContext;
use crate::metrics::server_metrics;
use crate::poller::Poller;
use crate::proto::{MAX_FRAME_BYTES, PROTOCOL_V2};
use crate::queue::{QueueObservers, ShardedQueue};
use crate::session::{release_session_gauges, Session, WRITE_STALL_TIMEOUT};
use crate::watch::{streamer_loop, WatchSub};

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; the CLI exposes the production-relevant ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests against the store.
    pub workers: usize,
    /// Bounded request-queue capacity (admission control).
    pub queue_depth: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame_bytes: usize,
    /// Close connections idle longer than this.
    pub idle_timeout: Duration,
    /// Kill connections whose peer has not drained buffered response
    /// bytes for this long (a client that stopped reading its socket).
    pub write_stall_timeout: Duration,
    /// Enable test-only verbs (`boom`); never set in production.
    pub debug_verbs: bool,
    /// Highest wire protocol the server will negotiate: `2` (default)
    /// accepts both dialects, `1` pins the server to v1 JSON and refuses
    /// the v2 hello with a `protocol` error.
    pub max_proto: u8,
    /// Telemetry sampler interval in ms (`0` disables the sampler and the
    /// `watch` verb). The sampler is process-global; the first server to
    /// start it fixes the cadence for the process lifetime.
    pub sample_interval_ms: u64,
    /// How long a wire transaction waits for a contended §6 item lock
    /// before its acquire fails with `conflict` (and the transaction is
    /// aborted).
    pub txn_lock_timeout: Duration,
    /// Kernel send-buffer size (`SO_SNDBUF`) requested for accepted
    /// sockets; `None` leaves the OS auto-tuned default. Auto-tuned
    /// loopback buffers run to megabytes, so a peer that stops reading
    /// can absorb minutes of output before the write-stall machinery
    /// even sees queued bytes — tests (and memory-tight deployments)
    /// clamp this to make backpressure visible quickly.
    pub send_buffer_bytes: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            idle_timeout: Duration::from_secs(30),
            write_stall_timeout: WRITE_STALL_TIMEOUT,
            debug_verbs: false,
            max_proto: PROTOCOL_V2,
            sample_interval_ms: timeseries::DEFAULT_INTERVAL_MS,
            txn_lock_timeout: Duration::from_secs(5),
            send_buffer_bytes: None,
        }
    }
}

/// State shared by the event loop, the workers and the streamer.
pub(crate) struct Inner {
    pub(crate) cfg: ServerConfig,
    pub(crate) store: SharedStore,
    pub(crate) catalog: Catalog,
    pub(crate) ctx: ServerContext,
    pub(crate) queue: ShardedQueue<Job<'static>>,
    /// Nanoseconds of inline handler execution this event-loop iteration
    /// (reset by the loop each wakeup); the fast path's starvation guard.
    pub(crate) inline_spent_ns: AtomicU64,
    draining: AtomicBool,
    drain_cv: (Mutex<bool>, Condvar),
    pub(crate) sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// Live `watch` subscriptions, keyed by session id (one per session;
    /// a re-`watch` replaces the previous subscription).
    pub(crate) watchers: Mutex<HashMap<u64, WatchSub>>,
    /// Per-session wire transactions (`begin`/`commit`/`abort`), keyed by
    /// session id. Sessions that disconnect mid-transaction are aborted in
    /// `close_conn` so their §6 inherited locks never outlive the socket.
    pub(crate) txns: TxnRegistry,
    pub(crate) next_session: AtomicU64,
    local_addr: SocketAddr,
}

impl Inner {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the server into draining mode and wakes the event loop.
    pub(crate) fn begin_shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        let (lock, cv) = &self.drain_cv;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cv.notify_all();
        // Make the listener readable so the event loop's wait returns.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A handle that can trigger shutdown from any thread (used by the CLI's
/// signalless smoke flow: a client sends the `shutdown` verb).
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Starts draining; returns immediately.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// threads until process exit; call `shutdown` (or `run_until_shutdown`)
/// for a clean stop.
pub struct Server {
    inner: Arc<Inner>,
    event_loop: Option<JoinHandle<()>>,
    streamer: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the event loop and worker pool, and returns
    /// immediately.
    pub fn start(cfg: ServerConfig, store: SharedStore) -> io::Result<Server> {
        Server::start_on(cfg, store, Poller::new()?)
    }

    /// [`Server::start`] over a caller-supplied readiness set: the seam
    /// unit tests use to serve on the `poll(2)` fallback.
    pub(crate) fn start_on(
        cfg: ServerConfig,
        store: SharedStore,
        poller: Poller,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let catalog = store.read(|st| st.catalog().clone());
        let workers_n = cfg.workers.max(1);
        let ctx = ServerContext {
            started: Instant::now(),
            workers: workers_n,
            queue_depth: cfg.queue_depth,
            rescache_shards: store.read(|st| st.resolution_cache_shards()),
            max_proto: cfg.max_proto,
            backend: poller.name(),
        };
        let txns = TxnRegistry::with_timeout(cfg.txn_lock_timeout);
        let registry = ccdb_obs::global();
        let m = server_metrics();
        let inner = Arc::new(Inner {
            queue: ShardedQueue::with_observers(
                workers_n,
                cfg.queue_depth,
                QueueObservers {
                    wakeup: Some(Arc::clone(&m.wakeup_latency)),
                    wakeup_per_shard: (0..workers_n)
                        .map(|i| {
                            registry.histogram(
                                &format!("ccdb_server_shard{i}_wakeup_latency_ns"),
                                ccdb_obs::metrics::LATENCY_BUCKETS_NS,
                            )
                        })
                        .collect(),
                    steals: Some(Arc::clone(&m.steals)),
                    steals_per_worker: (0..workers_n)
                        .map(|i| registry.counter(&format!("ccdb_server_worker{i}_steals_total")))
                        .collect(),
                },
            ),
            inline_spent_ns: AtomicU64::new(0),
            cfg,
            store,
            catalog,
            ctx,
            draining: AtomicBool::new(false),
            drain_cv: (Mutex::new(false), Condvar::new()),
            sessions: Mutex::new(HashMap::new()),
            watchers: Mutex::new(HashMap::new()),
            txns,
            next_session: AtomicU64::new(1),
            local_addr,
        });
        // Everything fallible happens before the first thread is spawned.
        let event_loop = EventLoop::new(listener, Arc::clone(&inner), poller)?;

        if inner.cfg.sample_interval_ms > 0 {
            timeseries::start_global_sampler(
                inner.cfg.sample_interval_ms,
                timeseries::DEFAULT_RETENTION,
            );
        }
        let workers = (0..workers_n)
            .map(|w| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner, w))
            })
            .collect();
        let streamer = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || streamer_loop(&inner))
        };
        let event_loop = thread::spawn(move || event_loop.run());
        Ok(Server {
            inner,
            event_loop: Some(event_loop),
            streamer: Some(streamer),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// The readiness backend the platform probe chose at startup
    /// (`"epoll"` or `"poll"`).
    pub fn backend(&self) -> &'static str {
        self.inner.ctx.backend
    }

    /// A cloneable shutdown trigger.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Blocks until some client/handle triggers shutdown, then drains and
    /// joins everything. This is what `ccdb serve` sits in.
    pub fn run_until_shutdown(mut self) {
        {
            let (lock, cv) = &self.inner.drain_cv;
            let mut fired = lock.lock().unwrap_or_else(|p| p.into_inner());
            while !*fired {
                fired = cv.wait(fired).unwrap_or_else(|p| p.into_inner());
            }
        }
        self.drain_and_join();
    }

    /// Triggers shutdown and performs the full drain (see module docs).
    pub fn shutdown(mut self) {
        self.inner.begin_shutdown();
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        // 1. Event loop exits (woken by begin_shutdown's self-connect):
        //    no more reads are admitted, but sessions and their write
        //    halves stay alive for in-flight responses.
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        // The streamer polls the drain flag every tick; join it and drop
        // its subscriptions so no telemetry frame races the final flush.
        if let Some(h) = self.streamer.take() {
            let _ = h.join();
        }
        {
            let mut w = self
                .inner
                .watchers
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            server_metrics().watch_subscribers.add(-(w.len() as i64));
            w.clear();
        }
        // 2. Stop admission; queued jobs still drain. Workers run each
        //    remaining job, write its response, then exit.
        self.inner.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // 3. Every response is written or buffered; flush stragglers to
        //    slow-but-live clients (one shared budget — healthy sockets
        //    cost nothing), then shut the sockets so clients see EOF
        //    instead of a hang.
        let sessions: Vec<Arc<Session>> = {
            let mut map = self
                .inner
                .sessions
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            map.drain().map(|(_, s)| s).collect()
        };
        let m = server_metrics();
        let deadline = Instant::now() + WRITE_STALL_TIMEOUT;
        for s in sessions {
            // Uncommitted wire transactions die with the server: abort so
            // their locks are accounted for (mirrors close_conn).
            self.inner.txns.abort_if_any(s.id);
            release_session_gauges(m, s.proto());
            s.flush_blocking(deadline.saturating_duration_since(Instant::now()));
            s.close();
        }
    }
}
