//! Dispatch: what happens to one complete frame.
//!
//! [`handle_frame`] parses it — the envelope only: params stay where they
//! lie, behind a [`Params`] view — resolves its [`Verb`] once, answers
//! connection-level verbs on the spot, runs storeless and read verbs
//! inline on the event-loop thread when the queue is shallow, and admits
//! everything else to the worker queue; [`worker_loop`] drains that
//! queue; [`run_request`] is the one execution path both share (handler,
//! phase attribution, flight record, reply).

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ccdb_core::lockprobe;
use ccdb_obs::flight::FlightRecord;
use ccdb_obs::TraceId;
use serde_json::Value as Json;

use crate::handler::{Handler, HandlerResult};
use crate::metrics::server_metrics;
use crate::params::Params;
use crate::proto::{parse_v1_json, v1_envelope, ErrorKind, V2Header, Verb, VerbClass, PROTOCOL_V2};
use crate::queue::PushError;
use crate::reply::Reply;
use crate::server::Inner;
use crate::session::Session;
use crate::watch::register_watch;

/// A frame's params, in the form its dialect parsed them to.
enum Body<'a> {
    /// v2: validated bval bytes (empty = `{}`), borrowed from the read
    /// buffer while the frame runs inline, owned once it is queued.
    Bval(Cow<'a, [u8]>),
    /// v1: the params object, moved out of the parsed envelope.
    Json(Json),
}

impl Body<'_> {
    fn params(&self) -> Params<'_> {
        match self {
            Body::Bval(bytes) => Params::Bval(bytes),
            Body::Json(tree) => Params::Json(tree),
        }
    }

    fn into_owned(self) -> Body<'static> {
        match self {
            Body::Bval(bytes) => Body::Bval(Cow::Owned(bytes.into_owned())),
            Body::Json(tree) => Body::Json(tree),
        }
    }
}

/// A parsed frame: the envelope, and its params.
struct Frame<'a> {
    id: u64,
    /// The verb, or the `bad_request` message naming an unknown one.
    verb: Result<Verb, String>,
    trace: Option<u64>,
    body: Body<'a>,
}

/// Why a frame could not be parsed: the `protocol` message, and the id to
/// answer it with — the request's own once its params are the fault (the
/// envelope was read), else 0.
type Malformed = (u64, String);

/// A v2 frame: the fixed header, then the params validated in place.
fn parse_v2(payload: &[u8]) -> Result<Frame<'_>, Malformed> {
    let head = V2Header::parse(payload).map_err(|msg| (0, msg))?;
    let bytes = Params::validate_bval(head.body).map_err(|msg| (head.id, msg))?;
    Ok(Frame {
        id: head.id,
        verb: Ok(head.verb),
        trace: head.trace,
        body: Body::Bval(Cow::Borrowed(bytes)),
    })
}

/// A v1 frame: the JSON envelope, with its params moved out of the tree.
fn parse_v1(payload: &[u8]) -> Result<Frame<'static>, Malformed> {
    let mut tree = parse_v1_json(payload).map_err(|msg| (0, msg))?;
    let (id, name, trace) = v1_envelope(&tree).map_err(|msg| (0, msg))?;
    let verb = Verb::from_name(name).ok_or_else(|| format!("unknown verb `{name}`"));
    let params = match &mut tree {
        Json::Object(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == "params")
            .map(|(_, v)| std::mem::take(v)),
        _ => None,
    };
    let params = match params {
        Some(p) if !p.is_null() => {
            Params::Json(&p).object().map_err(|msg| (id, msg))?;
            p
        }
        // Absent and `null` both stand for `{}`.
        _ => Json::Object(Vec::new()),
    };
    Ok(Frame {
        id,
        verb,
        trace,
        body: Body::Json(params),
    })
}

/// A unit of admitted work: the frame + the session to answer, plus the
/// phase timings the event loop already banked for it. Inline work
/// borrows its params from the read buffer; queued work owns them.
pub(crate) struct Job<'a> {
    id: u64,
    verb: Verb,
    trace: Option<u64>,
    body: Body<'a>,
    session: Arc<Session>,
    admitted: Instant,
    /// When the frame's first byte arrived — origin of the phase timeline.
    first_byte: Instant,
    /// First byte to complete frame, ns.
    recv_ns: u64,
    /// Envelope parse + params validation, ns.
    parse_ns: u64,
}

/// One complete frame, borrowed from the connection's read buffer: parse
/// in the connection's dialect, answer session-local verbs inline, admit
/// the rest to the worker queue.
pub(crate) fn handle_frame(
    inner: &Arc<Inner>,
    session: &Arc<Session>,
    payload: &[u8],
    first_byte: Instant,
    recv_ns: u64,
) {
    let m = server_metrics();
    session
        .bytes_in
        .fetch_add(payload.len() as u64, Ordering::Relaxed);
    m.bytes_in.add(payload.len() as u64);

    let parse_start = Instant::now();
    let parsed = if session.proto() == PROTOCOL_V2 {
        parse_v2(payload)
    } else {
        parse_v1(payload)
    };
    let frame = match parsed {
        Ok(f) => f,
        Err((id, msg)) => {
            // Framing is intact; answer and keep the connection.
            m.malformed.inc();
            session.reply(id, &Err((ErrorKind::Protocol, msg)));
            return;
        }
    };
    let parse_ns = parse_start.elapsed().as_nanos() as u64;
    m.requests.inc();
    session.requests.fetch_add(1, Ordering::Relaxed);
    let Frame {
        id,
        verb,
        trace,
        body,
    } = frame;
    let verb = match verb {
        Ok(verb) => verb,
        Err(msg) => {
            session.reply(id, &Err((ErrorKind::BadRequest, msg)));
            return;
        }
    };
    if let Some(vm) = m.verb(verb) {
        vm.requests.inc();
    }

    // Connection verbs never touch the store or the queue: `session`
    // introspects this session; `watch` binds a stream to it, whose frames
    // the streamer thread pushes later through the session's ordinary
    // outbound buffer.
    if verb.class() == VerbClass::Connection {
        let result = match verb {
            Verb::Watch => register_watch(inner, session, id, body.params()),
            _ => Ok(Reply::Json(session.info_json())),
        };
        session.reply(id, &result);
        return;
    }
    if inner.draining() {
        session.reply(id, &Err((ErrorKind::Shutdown, "server is draining".into())));
        return;
    }
    let job = Job {
        id,
        verb,
        trace,
        body,
        session: Arc::clone(session),
        admitted: Instant::now(),
        first_byte,
        recv_ns,
        parse_ns,
    };
    // Inline fast path: a storeless or read verb from a session that is
    // not in a transaction can run right here against a pinned MVCC
    // snapshot — no enqueue, no worker wakeup, no copy of its params,
    // reply through the same never-blocking OutBuf. Gated on a shallow
    // queue (when workers are behind, queue-jumping reads would starve
    // admitted writes of CPU) and a per-iteration time budget (the loop's
    // readiness duties come first).
    if runs_inline(verb, job.body.params()) && !inner.txns.in_txn(session.id) {
        if inner.queue.len() <= inner.ctx.workers
            && inner.inline_spent_ns.load(Ordering::Relaxed) < INLINE_BUDGET_NS
        {
            let started = job.admitted;
            run_request(inner, job, 0);
            m.inline_requests.inc();
            inner
                .inline_spent_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return;
        }
        m.inline_fallback.inc();
    }
    let job = Job {
        body: job.body.into_owned(),
        ..job
    };
    match inner.queue.push(job) {
        Ok(()) => m.queue_depth.set(inner.queue.len() as i64),
        Err(PushError::Full(job)) => {
            m.overloaded.inc();
            let msg = format!(
                "request queue full (depth {}); back off and retry",
                inner.cfg.queue_depth
            );
            job.session.reply(id, &Err((ErrorKind::Overloaded, msg)));
        }
        Err(PushError::Closed(job)) => {
            job.session
                .reply(id, &Err((ErrorKind::Shutdown, "server is draining".into())));
        }
    }
}

/// Inline-execution budget per event-loop iteration: once inline
/// handlers have consumed this much of an iteration, further eligible
/// requests are enqueued instead, so a read burst cannot starve the
/// loop's accept/read/flush duties.
const INLINE_BUDGET_NS: u64 = 1_000_000;

/// Whether this request may run on the event-loop thread: storeless and
/// read verbs never block. Writes, txn verbs, `batch` (it may carry
/// writes) and `shutdown` always take the queue, and so do the debug
/// `boom` (a panic) and a `ping` carrying `delay_ms` (an artificial sleep
/// for the drain/overload tests) — those must park a worker, never the
/// loop.
fn runs_inline(verb: Verb, params: Params) -> bool {
    match verb {
        Verb::Boom => false,
        Verb::Ping => params.get("delay_ms").is_none(),
        _ => matches!(verb.class(), VerbClass::Storeless | VerbClass::Read),
    }
}

pub(crate) fn worker_loop(inner: &Arc<Inner>, worker_idx: usize) {
    let m = server_metrics();
    // Per-worker utilization counters, plus the pool-wide aggregates:
    // Δbusy / (Δbusy + Δidle) over a ring window is the utilization the
    // dashboards show.
    let r = ccdb_obs::global();
    let w_busy = r.counter(&format!("ccdb_server_worker{worker_idx}_busy_ns_total"));
    let w_idle = r.counter(&format!("ccdb_server_worker{worker_idx}_idle_ns_total"));
    let mut idle_since = Instant::now();
    while let Some(job) = inner.queue.pop(worker_idx) {
        let idle_ns = idle_since.elapsed().as_nanos() as u64;
        w_idle.add(idle_ns);
        m.workers_idle_ns.add(idle_ns);
        m.workers_busy.inc();
        let busy_start = Instant::now();
        m.queue_depth.set(inner.queue.len() as i64);
        let queue_ns = Instant::now().duration_since(job.admitted).as_nanos() as u64;
        run_request(inner, job, queue_ns);
        let busy_ns = busy_start.elapsed().as_nanos() as u64;
        w_busy.add(busy_ns);
        m.workers_busy_ns.add(busy_ns);
        m.workers_busy.dec();
        idle_since = Instant::now();
    }
}

/// Executes one admitted request end to end — handler dispatch, phase
/// attribution, flight record, reply — on whichever thread calls it:
/// a worker (passing the measured queue wait) or the event loop's inline
/// fast path (`queue_ns == 0`; the request never saw the queue, and its
/// timeline says so).
fn run_request(inner: &Arc<Inner>, job: Job<'_>, queue_ns: u64) {
    let m = server_metrics();
    let Job {
        id,
        verb,
        trace,
        body,
        session,
        admitted,
        first_byte,
        recv_ns,
        parse_ns,
    } = job;

    // A client-stamped trace id continues the client's trace tree into
    // the server span, bypassing the sampler; otherwise the span is
    // subject to normal sampling.
    let mut span = match trace {
        Some(t) => ccdb_obs::trace::span_in_trace("server.request", TraceId(t)),
        None => ccdb_obs::trace::span("server.request"),
    };
    if let Some(s) = span.as_mut() {
        s.str("verb", verb.name());
        s.u64("session", session.id);
    }

    let handle_start = Instant::now();
    let wait0_lock = lockprobe::thread_lock_wait_ns();
    let wait0_snap = lockprobe::thread_snapshot_wait_ns();
    let result: HandlerResult = if verb == Verb::Shutdown {
        inner.begin_shutdown();
        Ok(Reply::Json(Json::String("draining".into())))
    } else {
        let handler = Handler {
            store: &inner.store,
            catalog: &inner.catalog,
            ctx: &inner.ctx,
            txns: &inner.txns,
            debug_verbs: inner.cfg.debug_verbs,
        };
        catch_unwind(AssertUnwindSafe(|| {
            handler.handle(session.id, verb, body.params())
        }))
        .unwrap_or_else(|_| {
            m.internal_errors.inc();
            Err((
                ErrorKind::Internal,
                "request handler panicked; see server logs".into(),
            ))
        })
    };
    let outcome = match &result {
        Ok(_) => "ok",
        Err((kind, _)) => kind.as_str(),
    };
    let handled = Instant::now();
    let handler_ns = handled.duration_since(handle_start).as_nanos() as u64;
    // Store-lock wait is charged to this thread by the lock probe,
    // split by mode: exclusive master-lock + txn-lock wait becomes the
    // `lock` phase, shared snapshot-pin wait the `snapshot` phase. The
    // deltas across the handler are this request's numbers (clamped:
    // sampled hold clocks can't overrun the handler time).
    let lock_ns = lockprobe::thread_lock_wait_ns()
        .saturating_sub(wait0_lock)
        .min(handler_ns);
    let snapshot_ns = lockprobe::thread_snapshot_wait_ns()
        .saturating_sub(wait0_snap)
        .min(handler_ns - lock_ns);
    let handle_ns = handler_ns - lock_ns - snapshot_ns;

    // `serialize` is the encode straight into the session's buffer,
    // `write` the flush behind it.
    let serialized = session.reply(id, &result);
    let serialize_ns = serialized.duration_since(handled).as_nanos() as u64;
    let write_ns = serialized.elapsed().as_nanos() as u64;

    let total_ns = first_byte.elapsed().as_nanos() as u64;
    let phases = [
        recv_ns,
        parse_ns,
        queue_ns,
        snapshot_ns,
        lock_ns,
        handle_ns,
        serialize_ns,
        write_ns,
    ];
    for (h, ns) in m.phase_all.iter().zip(phases) {
        h.observe(ns);
    }
    m.phase_all_total.observe(total_ns);
    if let Some(vp) = m.verb(verb) {
        for (h, ns) in vp.phases.iter().zip(phases) {
            h.observe(ns);
        }
        vp.total.observe(total_ns);
    }
    ccdb_obs::flight::record(FlightRecord {
        verb: verb.name(),
        outcome,
        end_unix_ns: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
        total_ns,
        phases,
        trace,
        session: session.id,
        proto: session.proto(),
    });
    m.request_latency
        .observe(admitted.elapsed().as_nanos() as u64);
    drop(span);
}
