//! Process-global `ccdb_server_*` metrics, registered in the
//! [`ccdb_obs::global`] registry so they show up in the `stats`/`metrics`
//! verbs and the Prometheus scrape alongside the core/txn/storage series.

use std::sync::{Arc, OnceLock};

use ccdb_obs::flight::PHASE_NAMES;
use ccdb_obs::metrics::{HOP_BUCKETS, LATENCY_BUCKETS_NS};
use ccdb_obs::{Counter, Gauge, Histogram};

use crate::proto::Verb;

/// One public verb's series: its request counter, the eight per-phase
/// histograms and the first-byte-to-response-written total.
pub(crate) struct VerbMetrics {
    /// `ccdb_server_requests_<verb>_total`.
    pub requests: Arc<Counter>,
    /// `ccdb_server_phase_<verb>_<phase>_ns`, indexed like [`PHASE_NAMES`].
    pub phases: [Arc<Histogram>; 8],
    /// `ccdb_server_phase_<verb>_total_ns`.
    pub total: Arc<Histogram>,
}

pub(crate) struct ServerMetrics {
    /// `ccdb_server_connections_total` — accepted TCP connections.
    pub connections: Arc<Counter>,
    /// `ccdb_server_sessions_active` — live sessions right now.
    pub sessions_active: Arc<Gauge>,
    /// `ccdb_server_sessions_v1` — live sessions speaking v1 JSON.
    pub sessions_v1: Arc<Gauge>,
    /// `ccdb_server_sessions_v2` — live sessions that negotiated v2 binary.
    pub sessions_v2: Arc<Gauge>,
    /// `ccdb_server_requests_total` — every parsed request, any outcome.
    pub requests: Arc<Counter>,
    /// `ccdb_server_bytes_in_total` — request payload bytes read.
    pub bytes_in: Arc<Counter>,
    /// `ccdb_server_bytes_out_total` — response payload bytes written.
    pub bytes_out: Arc<Counter>,
    /// `ccdb_server_overloaded_total` — requests refused at admission.
    pub overloaded: Arc<Counter>,
    /// `ccdb_server_malformed_total` — bad frames / JSON / versions.
    pub malformed: Arc<Counter>,
    /// `ccdb_server_internal_errors_total` — handler panics survived.
    pub internal_errors: Arc<Counter>,
    /// `ccdb_server_idle_closed_total` — connections closed by idle timeout.
    pub idle_closed: Arc<Counter>,
    /// `ccdb_server_write_stalled_closed_total` — connections killed
    /// because the peer stopped draining buffered responses.
    pub write_stalled_closed: Arc<Counter>,
    /// `ccdb_server_queue_depth` — jobs waiting for a worker.
    pub queue_depth: Arc<Gauge>,
    /// `ccdb_server_wakeup_latency_ns` — enqueue→dequeue delta measured
    /// by the admission queue itself: how long an admitted job sat before
    /// a worker picked it up. Distinct from the per-request `queue` phase
    /// number (which is attributed into the phase timeline); this one is
    /// the scheduler's own histogram, sampled into the telemetry ring as
    /// the "before" baseline for admission/MVCC work.
    pub wakeup_latency: Arc<Histogram>,
    /// `ccdb_server_inline_requests_total` — read-only requests executed
    /// on the event-loop thread against a pinned snapshot, skipping the
    /// queue hop entirely (queue phase = 0 in their timeline).
    pub inline_requests: Arc<Counter>,
    /// `ccdb_server_inline_fallback_total` — inline-eligible requests
    /// enqueued anyway because the queue was deep or the loop's
    /// per-iteration inline budget was spent.
    pub inline_fallback: Arc<Counter>,
    /// `ccdb_server_steals_total` — jobs a worker took from another
    /// worker's shard (per-worker counts are
    /// `ccdb_server_worker<i>_steals_total`).
    pub steals: Arc<Counter>,
    /// `ccdb_server_eventloop_iterations_total` — event-loop wakeups, any
    /// backend (`ccdb top` derives the iteration rate from its delta).
    pub eventloop_iterations: Arc<Counter>,
    /// `ccdb_server_workers_busy` — workers executing a job right now.
    pub workers_busy: Arc<Gauge>,
    /// `ccdb_server_workers_busy_ns_total` — ns spent in handlers, summed
    /// over all workers (utilization numerator).
    pub workers_busy_ns: Arc<Counter>,
    /// `ccdb_server_workers_idle_ns_total` — ns spent parked on the queue,
    /// summed over all workers (utilization denominator with busy).
    pub workers_idle_ns: Arc<Counter>,
    /// `ccdb_server_watch_subscribers` — live `watch` subscriptions.
    pub watch_subscribers: Arc<Gauge>,
    /// `ccdb_server_watch_frames_total` — telemetry frames streamed.
    pub watch_frames: Arc<Counter>,
    /// `ccdb_server_watch_dropped_total` — subscriptions removed because
    /// the subscriber's write half died (stall-killed or disconnected).
    pub watch_dropped: Arc<Counter>,
    /// `ccdb_server_request_latency_ns` — admission to response written.
    pub request_latency: Arc<Histogram>,
    /// `ccdb_server_batch_frames_total` — `batch` frames handled.
    pub batch_frames: Arc<Counter>,
    /// `ccdb_server_batch_subrequests_total` — sub-requests carried inside
    /// batch frames.
    pub batch_subrequests: Arc<Counter>,
    /// `ccdb_server_batch_size` — sub-requests per batch frame.
    pub batch_size: Arc<Histogram>,
    /// `ccdb_server_phase_all_<phase>_ns` — per-phase time across every
    /// verb (the `ccdb top` phase bar).
    pub phase_all: [Arc<Histogram>; 8],
    /// `ccdb_server_phase_all_total_ns` — first byte read to response
    /// written, across every verb.
    pub phase_all_total: Arc<Histogram>,
    /// Per-verb series, parallel to [`Verb::PUBLIC`].
    by_verb: Vec<VerbMetrics>,
}

impl ServerMetrics {
    /// `verb`'s series; `None` for the debug-only `boom`, whose id lies
    /// past the public range.
    pub fn verb(&self, verb: Verb) -> Option<&VerbMetrics> {
        self.by_verb.get(verb as usize - 1)
    }
}

pub(crate) fn server_metrics() -> &'static ServerMetrics {
    static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ccdb_obs::global();
        ServerMetrics {
            connections: r.counter("ccdb_server_connections_total"),
            sessions_active: r.gauge("ccdb_server_sessions_active"),
            sessions_v1: r.gauge("ccdb_server_sessions_v1"),
            sessions_v2: r.gauge("ccdb_server_sessions_v2"),
            requests: r.counter("ccdb_server_requests_total"),
            bytes_in: r.counter("ccdb_server_bytes_in_total"),
            bytes_out: r.counter("ccdb_server_bytes_out_total"),
            overloaded: r.counter("ccdb_server_overloaded_total"),
            malformed: r.counter("ccdb_server_malformed_total"),
            internal_errors: r.counter("ccdb_server_internal_errors_total"),
            idle_closed: r.counter("ccdb_server_idle_closed_total"),
            write_stalled_closed: r.counter("ccdb_server_write_stalled_closed_total"),
            queue_depth: r.gauge("ccdb_server_queue_depth"),
            wakeup_latency: r.histogram("ccdb_server_wakeup_latency_ns", LATENCY_BUCKETS_NS),
            inline_requests: r.counter("ccdb_server_inline_requests_total"),
            inline_fallback: r.counter("ccdb_server_inline_fallback_total"),
            steals: r.counter("ccdb_server_steals_total"),
            eventloop_iterations: r.counter("ccdb_server_eventloop_iterations_total"),
            workers_busy: r.gauge("ccdb_server_workers_busy"),
            workers_busy_ns: r.counter("ccdb_server_workers_busy_ns_total"),
            workers_idle_ns: r.counter("ccdb_server_workers_idle_ns_total"),
            watch_subscribers: r.gauge("ccdb_server_watch_subscribers"),
            watch_frames: r.counter("ccdb_server_watch_frames_total"),
            watch_dropped: r.counter("ccdb_server_watch_dropped_total"),
            request_latency: r.histogram("ccdb_server_request_latency_ns", LATENCY_BUCKETS_NS),
            batch_frames: r.counter("ccdb_server_batch_frames_total"),
            batch_subrequests: r.counter("ccdb_server_batch_subrequests_total"),
            batch_size: r.histogram("ccdb_server_batch_size", HOP_BUCKETS),
            phase_all: PHASE_NAMES.map(|phase| {
                r.histogram(
                    &format!("ccdb_server_phase_all_{phase}_ns"),
                    LATENCY_BUCKETS_NS,
                )
            }),
            phase_all_total: r.histogram("ccdb_server_phase_all_total_ns", LATENCY_BUCKETS_NS),
            by_verb: Verb::PUBLIC
                .iter()
                .map(|v| {
                    let v = v.name();
                    VerbMetrics {
                        requests: r.counter(&format!("ccdb_server_requests_{v}_total")),
                        phases: PHASE_NAMES.map(|phase| {
                            r.histogram(
                                &format!("ccdb_server_phase_{v}_{phase}_ns"),
                                LATENCY_BUCKETS_NS,
                            )
                        }),
                        total: r.histogram(
                            &format!("ccdb_server_phase_{v}_total_ns"),
                            LATENCY_BUCKETS_NS,
                        ),
                    }
                })
                .collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric-name pin: every public verb's request counter and phase
    /// series, named literally, are the ones its `Verb` indexes.
    #[test]
    fn verb_counters_cover_every_verb() {
        let pinned = [
            "ping",
            "session",
            "create",
            "attr",
            "set_attr",
            "bind",
            "unbind",
            "select",
            "check_all",
            "effective",
            "explain",
            "stats",
            "metrics",
            "flight",
            "batch",
            "shutdown",
            "telemetry",
            "watch",
            "begin",
            "commit",
            "abort",
        ];
        let m = server_metrics();
        let r = ccdb_obs::global();
        assert_eq!(Verb::PUBLIC.len(), pinned.len());
        for (v, name) in Verb::PUBLIC.iter().zip(pinned) {
            let vm = m.verb(*v).unwrap_or_else(|| panic!("no series for {name}"));
            let counter = r
                .find_counter(&format!("ccdb_server_requests_{name}_total"))
                .unwrap_or_else(|| panic!("no counter for {name}"));
            assert!(Arc::ptr_eq(&vm.requests, &counter), "{name}");
            let total = r
                .find_histogram(&format!("ccdb_server_phase_{name}_total_ns"))
                .unwrap_or_else(|| panic!("no phase total for {name}"));
            assert!(Arc::ptr_eq(&vm.total, &total), "{name}");
            for (phase, h) in PHASE_NAMES.iter().zip(&vm.phases) {
                let found = r
                    .find_histogram(&format!("ccdb_server_phase_{name}_{phase}_ns"))
                    .unwrap_or_else(|| panic!("no {phase} phase for {name}"));
                assert!(Arc::ptr_eq(h, &found), "{name} {phase}");
            }
        }
        assert!(m.verb(Verb::Boom).is_none());
    }

    #[test]
    fn series_appear_in_the_global_registry() {
        let _ = server_metrics();
        let text = ccdb_obs::global().render_prometheus();
        for series in [
            "ccdb_server_requests_total",
            "ccdb_server_requests_attr_total",
            "ccdb_server_sessions_v1",
            "ccdb_server_sessions_v2",
            "ccdb_server_overloaded_total",
            "ccdb_server_write_stalled_closed_total",
            "ccdb_server_queue_depth",
            "ccdb_server_request_latency_ns",
            "ccdb_server_requests_batch_total",
            "ccdb_server_batch_frames_total",
            "ccdb_server_batch_size",
            "ccdb_server_phase_all_lock_ns",
            "ccdb_server_phase_attr_total_ns",
            "ccdb_server_phase_set_attr_queue_ns",
            "ccdb_server_requests_flight_total",
            "ccdb_server_wakeup_latency_ns",
            "ccdb_server_inline_requests_total",
            "ccdb_server_inline_fallback_total",
            "ccdb_server_steals_total",
            "ccdb_server_eventloop_iterations_total",
            "ccdb_server_workers_busy",
            "ccdb_server_workers_busy_ns_total",
            "ccdb_server_workers_idle_ns_total",
            "ccdb_server_watch_subscribers",
            "ccdb_server_watch_frames_total",
            "ccdb_server_requests_telemetry_total",
            "ccdb_server_requests_watch_total",
        ] {
            assert!(text.contains(series), "missing {series}");
        }
    }

    #[test]
    fn phase_histograms_cover_every_verb_and_phase() {
        let m = server_metrics();
        // Indexing by id gives every verb series of its own.
        for (i, a) in Verb::PUBLIC.iter().enumerate() {
            for b in &Verb::PUBLIC[i + 1..] {
                let (a, b) = (m.verb(*a).unwrap(), m.verb(*b).unwrap());
                assert!(!Arc::ptr_eq(&a.total, &b.total));
                assert!(!Arc::ptr_eq(&a.requests, &b.requests));
            }
        }
    }
}
