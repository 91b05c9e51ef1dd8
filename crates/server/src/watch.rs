//! `watch`: telemetry subscriptions and the streamer thread that feeds
//! them.
//!
//! A subscription binds a frame stream to a session; frames ride the
//! session's ordinary outbound buffer, so backpressure (backlog cap,
//! stall kill) is exactly the request-path machinery.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_obs::timeseries::{self, SeriesDelta, TelemetryFrame};
use serde_json::Value as Json;

use crate::handler::{bad, HandlerResult};
use crate::metrics::server_metrics;
use crate::params::Params;
use crate::reply::Reply;
use crate::server::Inner;
use crate::session::Session;

/// Default `watch` frame interval when the subscriber names none.
const WATCH_DEFAULT_INTERVAL_MS: u64 = 500;

/// Fastest frame interval a subscriber may request.
const WATCH_MIN_INTERVAL_MS: u64 = 20;

/// Slowest frame interval a subscriber may request.
const WATCH_MAX_INTERVAL_MS: u64 = 60_000;

/// Streamer scheduling granularity: how often due subscriptions are
/// checked. Bounds how late a frame can be, and how long shutdown waits
/// for the streamer to notice the drain flag.
const WATCH_TICK: Duration = Duration::from_millis(25);

/// Series selected when a `watch`/`telemetry` request names none.
const DEFAULT_SERIES_PATTERNS: &[&str] = &["ccdb_server_*"];

/// One live `watch` subscription. Owned by the streamer thread's map;
/// frames ride the session's ordinary outbound buffer, so backpressure
/// (backlog cap, stall kill) is exactly the request-path machinery.
pub(crate) struct WatchSub {
    session: Arc<Session>,
    /// The `watch` request's id — every streamed frame echoes it, so a
    /// pipelining client can tell frames from its own request/response
    /// traffic.
    request_id: u64,
    interval: Duration,
    patterns: Vec<String>,
    /// Ring tick already reported; the next frame covers `(last_tick, now]`.
    last_tick: u64,
    seq: u64,
    next_due: Instant,
}

/// Handles `watch` request `id`: registers (or replaces, or with
/// `stop: true` cancels) this session's telemetry subscription and
/// returns the ack. Streaming itself happens on the streamer thread.
pub(crate) fn register_watch(
    inner: &Arc<Inner>,
    session: &Arc<Session>,
    id: u64,
    p: Params,
) -> HandlerResult {
    let m = server_metrics();
    if p.get("stop").and_then(Params::as_bool) == Some(true) {
        let removed = inner
            .watchers
            .lock()
            .unwrap_or_else(|q| q.into_inner())
            .remove(&session.id)
            .is_some();
        if removed {
            m.watch_subscribers.add(-1);
        }
        return Ok(Reply::Json(Json::Object(vec![(
            "watching".into(),
            Json::Bool(false),
        )])));
    }
    if inner.cfg.sample_interval_ms == 0 {
        return Err(bad(
            "telemetry sampler disabled on this server (sample_interval_ms = 0)",
        ));
    }
    let interval_ms = p
        .get("interval_ms")
        .and_then(Params::as_u64)
        .unwrap_or(WATCH_DEFAULT_INTERVAL_MS)
        .clamp(WATCH_MIN_INTERVAL_MS, WATCH_MAX_INTERVAL_MS);
    let patterns = series_patterns(p);
    let tick = timeseries::global_series().tick();
    let sub = WatchSub {
        session: Arc::clone(session),
        request_id: id,
        interval: Duration::from_millis(interval_ms),
        patterns: patterns.clone(),
        last_tick: tick,
        seq: 0,
        next_due: Instant::now() + Duration::from_millis(interval_ms),
    };
    let replaced = inner
        .watchers
        .lock()
        .unwrap_or_else(|q| q.into_inner())
        .insert(session.id, sub)
        .is_some();
    if !replaced {
        m.watch_subscribers.add(1);
    }
    Ok(Reply::Json(Json::Object(vec![
        ("watching".into(), Json::Bool(true)),
        ("interval_ms".into(), Json::UInt(interval_ms)),
        ("tick".into(), Json::UInt(tick)),
        (
            "sampler_interval_ms".into(),
            Json::UInt(timeseries::global_series().interval_ms()),
        ),
        (
            "series".into(),
            Json::Array(patterns.into_iter().map(Json::String).collect()),
        ),
    ])))
}

/// Extracts the `series` name/pattern list from request params, falling
/// back to [`DEFAULT_SERIES_PATTERNS`].
pub(crate) fn series_patterns(params: Params) -> Vec<String> {
    let named: Vec<String> = params
        .get("series")
        .and_then(Params::elems)
        .map(|items| items.filter_map(|v| v.as_str().map(String::from)).collect())
        .unwrap_or_default();
    if named.is_empty() {
        DEFAULT_SERIES_PATTERNS
            .iter()
            .map(|s| (*s).to_string())
            .collect()
    } else {
        named
    }
}

/// Renders one series delta as the wire object shared by `watch` frames
/// and the `telemetry` verb. `window_secs` converts counter deltas to
/// rates.
fn series_delta_json(name: &str, delta: &SeriesDelta, window_secs: f64) -> Json {
    let mut fields = vec![("name".into(), Json::String(name.to_string()))];
    match delta {
        SeriesDelta::Counter { delta } => {
            fields.push(("kind".into(), Json::String("counter".into())));
            fields.push(("delta".into(), Json::UInt(*delta)));
            fields.push((
                "rate".into(),
                Json::Float(*delta as f64 / window_secs.max(1e-9)),
            ));
        }
        SeriesDelta::Gauge { value } => {
            fields.push(("kind".into(), Json::String("gauge".into())));
            fields.push(("value".into(), Json::Int(*value)));
        }
        SeriesDelta::Histogram { delta } => {
            fields.push(("kind".into(), Json::String("histogram".into())));
            fields.push(("count".into(), Json::UInt(delta.count)));
            fields.push(("sum".into(), Json::UInt(delta.sum)));
            for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                fields.push((
                    label.into(),
                    delta.quantile(q).map(Json::Float).unwrap_or(Json::Null),
                ));
            }
        }
    }
    Json::Object(fields)
}

/// Renders one incremental telemetry frame for the wire.
fn watch_frame_json(frame: &TelemetryFrame, seq: u64) -> Json {
    let window_ms = frame.tick.saturating_sub(frame.from_tick) * frame.interval_ms;
    let window_secs = (window_ms as f64 / 1_000.0).max(frame.interval_ms as f64 / 1_000.0);
    Json::Object(vec![
        ("watch".into(), Json::Bool(true)),
        ("seq".into(), Json::UInt(seq)),
        ("from_tick".into(), Json::UInt(frame.from_tick)),
        ("tick".into(), Json::UInt(frame.tick)),
        ("interval_ms".into(), Json::UInt(frame.interval_ms)),
        ("window_ms".into(), Json::UInt(window_ms)),
        ("unix_ms".into(), Json::UInt(frame.unix_ms)),
        (
            "series".into(),
            Json::Array(
                frame
                    .series
                    .iter()
                    .map(|(name, d)| series_delta_json(name, d, window_secs))
                    .collect(),
            ),
        ),
    ])
}

/// The streamer thread: every [`WATCH_TICK`] it sends each due
/// subscription an incremental frame built from the telemetry ring.
/// Frames go through [`Session::reply`] — the same never-blocking
/// outbound buffer as responses — so a subscriber that stops reading is
/// killed by the stall sweep or backlog cap exactly like any other slow
/// peer, without the streamer (or anyone else) ever blocking on it.
pub(crate) fn streamer_loop(inner: &Arc<Inner>) {
    let m = server_metrics();
    loop {
        thread::sleep(WATCH_TICK);
        if inner.draining() {
            return;
        }
        let now = Instant::now();
        let mut watchers = inner.watchers.lock().unwrap_or_else(|p| p.into_inner());
        let mut dead: Vec<u64> = Vec::new();
        for (id, sub) in watchers.iter_mut() {
            if sub.session.is_dead() {
                dead.push(*id);
                continue;
            }
            if now < sub.next_due {
                continue;
            }
            let frame = timeseries::global_series().frame_since(sub.last_tick, &sub.patterns);
            sub.seq += 1;
            sub.last_tick = frame.tick;
            sub.next_due = now + sub.interval;
            sub.session.reply(
                sub.request_id,
                &Ok(Reply::Json(watch_frame_json(&frame, sub.seq))),
            );
            m.watch_frames.inc();
            if sub.session.is_dead() {
                dead.push(*id);
            }
        }
        for id in dead {
            watchers.remove(&id);
            m.watch_subscribers.add(-1);
            m.watch_dropped.inc();
        }
    }
}
