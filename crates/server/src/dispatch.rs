//! Dispatch: what happens to one complete frame.
//!
//! [`handle_frame`] parses it, resolves its [`Verb`] once, answers
//! connection-level verbs on the spot, runs storeless and read verbs
//! inline on the event-loop thread when the queue is shallow, and admits
//! everything else to the worker queue; [`worker_loop`] drains that
//! queue; [`run_request`] is the one execution path both share (handler,
//! phase attribution, flight record, response).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ccdb_core::lockprobe;
use ccdb_obs::flight::FlightRecord;
use ccdb_obs::TraceId;
use serde_json::Value as Json;

use crate::handler::Handler;
use crate::metrics::server_metrics;
use crate::proto::{err_response, ok_response, ErrorKind, Request, Verb, VerbClass, PROTOCOL_V2};
use crate::queue::PushError;
use crate::server::Inner;
use crate::session::Session;
use crate::watch::register_watch;

/// A unit of admitted work: request + the session to answer, plus the
/// phase timings the event loop already banked for it.
pub(crate) struct Job {
    request: Request,
    /// The request's verb, resolved once from `request.verb`.
    verb: Verb,
    session: Arc<Session>,
    admitted: Instant,
    /// When the frame's first byte arrived — origin of the phase timeline.
    first_byte: Instant,
    /// First byte to complete frame, ns.
    recv_ns: u64,
    /// JSON/bval parse + envelope validation, ns.
    parse_ns: u64,
}

/// One complete frame: parse in the connection's dialect, answer
/// session-local verbs inline, admit the rest to the worker queue.
pub(crate) fn handle_frame(
    inner: &Arc<Inner>,
    session: &Arc<Session>,
    payload: Vec<u8>,
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
        Request::parse_v2(&payload)
    } else {
        Request::parse(&payload)
    };
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            // Framing is intact; answer and keep the connection.
            m.malformed.inc();
            session.send(&err_response(0, ErrorKind::Protocol, &msg));
            return;
        }
    };
    let parse_ns = parse_start.elapsed().as_nanos() as u64;
    m.requests.inc();
    session.requests.fetch_add(1, Ordering::Relaxed);
    let Some(verb) = Verb::from_name(&request.verb) else {
        let msg = format!("unknown verb `{}`", request.verb);
        session.send(&err_response(request.id, ErrorKind::BadRequest, &msg));
        return;
    };
    if let Some(vm) = m.verb(verb) {
        vm.requests.inc();
    }

    // Connection verbs never touch the store or the queue: `session`
    // introspects this session; `watch` binds a stream to it, whose frames
    // the streamer thread pushes later through the session's ordinary
    // outbound buffer.
    if verb.class() == VerbClass::Connection {
        session.send(&match verb {
            Verb::Watch => register_watch(inner, session, &request),
            _ => ok_response(request.id, session.info_json()),
        });
        return;
    }
    if inner.draining() {
        session.send(&err_response(
            request.id,
            ErrorKind::Shutdown,
            "server is draining",
        ));
        return;
    }
    // Inline fast path: a storeless or read verb from a session that is
    // not in a transaction can run right here against a pinned MVCC
    // snapshot — no enqueue, no worker wakeup, response through the same
    // never-blocking OutBuf. Gated on a shallow queue (when workers are
    // behind, queue-jumping reads would starve admitted writes of CPU)
    // and a per-iteration time budget (the loop's readiness duties come
    // first).
    if runs_inline(verb, &request) && !inner.txns.in_txn(session.id) {
        if inner.queue.len() <= inner.ctx.workers
            && inner.inline_spent_ns.load(Ordering::Relaxed) < INLINE_BUDGET_NS
        {
            let started = Instant::now();
            run_request(
                inner,
                Job {
                    request,
                    verb,
                    session: Arc::clone(session),
                    admitted: started,
                    first_byte,
                    recv_ns,
                    parse_ns,
                },
                0,
            );
            m.inline_requests.inc();
            inner
                .inline_spent_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return;
        }
        m.inline_fallback.inc();
    }
    let id = request.id;
    let job = Job {
        request,
        verb,
        session: Arc::clone(session),
        admitted: Instant::now(),
        first_byte,
        recv_ns,
        parse_ns,
    };
    match inner.queue.push(job) {
        Ok(()) => m.queue_depth.set(inner.queue.len() as i64),
        Err(PushError::Full(job)) => {
            m.overloaded.inc();
            job.session.send(&err_response(
                id,
                ErrorKind::Overloaded,
                &format!(
                    "request queue full (depth {}); back off and retry",
                    inner.cfg.queue_depth
                ),
            ));
        }
        Err(PushError::Closed(job)) => {
            job.session
                .send(&err_response(id, ErrorKind::Shutdown, "server is draining"));
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
fn runs_inline(verb: Verb, request: &Request) -> bool {
    match verb {
        Verb::Boom => false,
        Verb::Ping => request.params.get("delay_ms").is_none(),
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
/// attribution, flight record, response — on whichever thread calls it:
/// a worker (passing the measured queue wait) or the event loop's inline
/// fast path (`queue_ns == 0`; the request never saw the queue, and its
/// timeline says so).
fn run_request(inner: &Arc<Inner>, job: Job, queue_ns: u64) {
    let m = server_metrics();
    let Job {
        request,
        verb,
        session,
        admitted,
        first_byte,
        recv_ns,
        parse_ns,
    } = job;

    // A client-stamped trace id continues the client's trace tree into
    // the server span, bypassing the sampler; otherwise the span is
    // subject to normal sampling.
    let mut span = match request.trace {
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
    let (response, outcome) = if verb == Verb::Shutdown {
        inner.begin_shutdown();
        (
            ok_response(request.id, Json::String("draining".into())),
            "ok",
        )
    } else {
        let handler = Handler {
            store: &inner.store,
            catalog: &inner.catalog,
            ctx: &inner.ctx,
            txns: &inner.txns,
            debug_verbs: inner.cfg.debug_verbs,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handler.handle(session.id, verb, &request.params)
        }));
        match outcome {
            Ok(Ok(result)) => (ok_response(request.id, result), "ok"),
            Ok(Err((kind, msg))) => (err_response(request.id, kind, &msg), kind.as_str()),
            Err(_) => {
                m.internal_errors.inc();
                (
                    err_response(
                        request.id,
                        ErrorKind::Internal,
                        "request handler panicked; see server logs",
                    ),
                    ErrorKind::Internal.as_str(),
                )
            }
        }
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

    let payload = session.encode(&response);
    let serialized = Instant::now();
    let serialize_ns = serialized.duration_since(handled).as_nanos() as u64;
    session.send_bytes(&payload);
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
        verb: request.verb,
        outcome: outcome.into(),
        end_unix_ns: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
        total_ns,
        phases,
        trace: request.trace,
        session: session.id,
        proto: session.proto(),
    });
    m.request_latency
        .observe(admitted.elapsed().as_nanos() as u64);
    drop(span);
}
