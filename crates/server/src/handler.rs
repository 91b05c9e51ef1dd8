//! Verb dispatch: one parsed request against the shared store.
//!
//! Handlers are pure request → `Result<Json, (ErrorKind, message)>`
//! functions over [`SharedStore`]; the threading, framing, and response
//! writing live in [`crate::server`]. Read verbs take the store's shared
//! lock (many in parallel across workers), write verbs the exclusive one —
//! so a transmitter update by one session is visible to every other
//! session's next read, which is the paper's instant-visibility semantics
//! carried over the wire.

use std::time::Instant;

use ccdb_core::expr::Expr;
use ccdb_core::schema::{Catalog, ItemSource};
use ccdb_core::shared::SharedStore;
use ccdb_core::{CoreError, Surrogate, Value};
use ccdb_txn::{SessionError, TxnRegistry};
use serde_json::Value as Json;

use crate::proto::ErrorKind;

/// Handler failure: wire error kind plus client-safe message.
pub(crate) type HandlerError = (ErrorKind, String);
pub(crate) type HandlerResult = Result<Json, HandlerError>;

/// Static facts about the serving process, echoed in the `ping` reply as
/// `server_info` so dashboards (`ccdb top`) can label what they scrape.
pub(crate) struct ServerContext {
    /// When the server started (uptime reference).
    pub started: Instant,
    /// Configured worker-thread count.
    pub workers: usize,
    /// Configured admission-queue capacity.
    pub queue_depth: usize,
    /// Resolution-cache shard count of the served store.
    pub rescache_shards: usize,
    /// Highest wire protocol this server negotiates (1 = pinned to v1).
    pub max_proto: u8,
    /// Event-loop readiness backend the platform probe chose
    /// (`"epoll"` or `"poll"`).
    pub backend: &'static str,
}

impl Default for ServerContext {
    fn default() -> Self {
        ServerContext {
            started: Instant::now(),
            workers: 1,
            queue_depth: 0,
            rescache_shards: 0,
            max_proto: crate::proto::PROTOCOL_V2,
            backend: "poll",
        }
    }
}

impl ServerContext {
    fn info_json(&self) -> Json {
        Json::Object(vec![
            (
                "version".into(),
                Json::String(env!("CARGO_PKG_VERSION").into()),
            ),
            (
                "uptime_ms".into(),
                Json::UInt(self.started.elapsed().as_millis() as u64),
            ),
            ("workers".into(), Json::UInt(self.workers as u64)),
            ("queue_depth".into(), Json::UInt(self.queue_depth as u64)),
            (
                "rescache_shards".into(),
                Json::UInt(self.rescache_shards as u64),
            ),
            ("max_proto".into(), Json::UInt(self.max_proto as u64)),
            ("backend".into(), Json::String(self.backend.into())),
        ])
    }
}

/// Renders one flight-recorder entry for the `flight` verb.
fn flight_record_json(r: &ccdb_obs::FlightRecord) -> Json {
    let phases = ccdb_obs::flight::PHASE_NAMES
        .iter()
        .zip(r.phases.iter())
        .map(|(name, ns)| ((*name).to_string(), Json::UInt(*ns)))
        .collect();
    Json::Object(vec![
        ("verb".into(), Json::String(r.verb.clone())),
        ("outcome".into(), Json::String(r.outcome.clone())),
        ("end_unix_ns".into(), Json::UInt(r.end_unix_ns)),
        ("total_ns".into(), Json::UInt(r.total_ns)),
        ("phases".into(), Json::Object(phases)),
        (
            "trace".into(),
            r.trace.map(Json::UInt).unwrap_or(Json::Null),
        ),
        ("session".into(), Json::UInt(r.session)),
        ("proto".into(), Json::UInt(r.proto as u64)),
    ])
}

/// `telemetry`: windowed queries over the server-side time-series ring.
///
/// Params (all optional): `points` — sparkline length in samples
/// (default 32); `window_ms` — quantile/rate window (default
/// `points × sampler interval`); `series` — names or trailing-`*`
/// prefixes (default `ccdb_server_*`).
///
/// Returns per-series data (counter per-tick deltas + windowed rate,
/// gauge point vectors, histogram windowed count/p50/p95/p99), plus two
/// convenience blocks dashboards want pre-digested: `verbs` (per-verb
/// windowed total-latency quantiles, from the ring — not from cumulative
/// scrapes, so they track the window instead of skewing after long
/// uptimes) and `wakeup` (the scheduler's enqueue→dequeue histogram over
/// the same window).
fn handle_telemetry(params: &Json) -> HandlerResult {
    let ts = ccdb_obs::global_series();
    let interval_ms = ts.interval_ms().max(1);
    let retention = ts.retention();
    let points = params
        .get("points")
        .and_then(Json::as_u64)
        .unwrap_or(32)
        .clamp(1, retention as u64) as usize;
    let window_ms = params
        .get("window_ms")
        .and_then(Json::as_u64)
        .unwrap_or(points as u64 * interval_ms)
        .max(interval_ms);
    let window_samples = (window_ms.div_ceil(interval_ms) as usize).clamp(1, retention);
    let window_secs = (window_samples as u64 * interval_ms) as f64 / 1_000.0;
    let patterns = {
        let named: Vec<String> = params
            .get("series")
            .and_then(Json::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        if named.is_empty() {
            vec!["ccdb_server_*".to_string()]
        } else {
            named
        }
    };

    let mut series = Vec::new();
    for (name, kind) in ts.names_matching(&patterns) {
        let mut fields = vec![
            ("name".into(), Json::String(name.clone())),
            ("kind".into(), Json::String(kind.as_str().into())),
        ];
        match kind {
            ccdb_obs::SeriesKind::Counter => {
                let pts = ts.counter_points(&name, points).unwrap_or_default();
                let delta = ts.counter_delta(&name, window_samples).unwrap_or(0);
                fields.push(("delta".into(), Json::UInt(delta)));
                fields.push(("rate".into(), Json::Float(delta as f64 / window_secs)));
                fields.push((
                    "points".into(),
                    Json::Array(pts.into_iter().map(Json::UInt).collect()),
                ));
            }
            ccdb_obs::SeriesKind::Gauge => {
                let pts = ts.gauge_points(&name, points).unwrap_or_default();
                fields.push(("value".into(), Json::Int(pts.last().copied().unwrap_or(0))));
                fields.push((
                    "points".into(),
                    Json::Array(pts.into_iter().map(Json::Int).collect()),
                ));
            }
            ccdb_obs::SeriesKind::Histogram => {
                if let Some(w) = ts.hist_window(&name, window_samples) {
                    fields.push(("count".into(), Json::UInt(w.count)));
                    fields.push(("sum".into(), Json::UInt(w.sum)));
                    for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                        fields.push((
                            label.into(),
                            w.quantile(q).map(Json::Float).unwrap_or(Json::Null),
                        ));
                    }
                }
            }
        }
        series.push(Json::Object(fields));
    }

    let verbs: Vec<Json> = crate::proto::VERBS
        .iter()
        .filter_map(|v| {
            let w = ts.hist_window(&format!("ccdb_server_phase_{v}_total_ns"), window_samples)?;
            if w.count == 0 {
                return None;
            }
            let mut fields = vec![
                ("verb".into(), Json::String((*v).into())),
                ("count".into(), Json::UInt(w.count)),
            ];
            for (label, q) in [("p50_ns", 0.5), ("p95_ns", 0.95), ("p99_ns", 0.99)] {
                fields.push((
                    label.into(),
                    w.quantile(q).map(Json::Float).unwrap_or(Json::Null),
                ));
            }
            Some(Json::Object(fields))
        })
        .collect();

    let wakeup = match ts.hist_window("ccdb_server_wakeup_latency_ns", window_samples) {
        Some(w) => {
            let mut fields = vec![("count".into(), Json::UInt(w.count))];
            for (label, q) in [("p50_ns", 0.5), ("p95_ns", 0.95), ("p99_ns", 0.99)] {
                fields.push((
                    label.into(),
                    w.quantile(q).map(Json::Float).unwrap_or(Json::Null),
                ));
            }
            Json::Object(fields)
        }
        None => Json::Null,
    };

    Ok(Json::Object(vec![
        ("tick".into(), Json::UInt(ts.tick())),
        ("interval_ms".into(), Json::UInt(interval_ms)),
        ("retention".into(), Json::UInt(retention as u64)),
        ("points".into(), Json::UInt(points as u64)),
        ("window_ms".into(), Json::UInt(window_ms)),
        ("window_samples".into(), Json::UInt(window_samples as u64)),
        (
            "sampler_running".into(),
            Json::Bool(ccdb_obs::timeseries::global_sampler_running()),
        ),
        ("series".into(), Json::Array(series)),
        ("verbs".into(), Json::Array(verbs)),
        ("wakeup".into(), wakeup),
    ]))
}

/// `flight`: dump the flight recorder (most-recent + slowest retained
/// request timelines).
fn handle_flight() -> HandlerResult {
    let s = ccdb_obs::flight::snapshot();
    Ok(Json::Object(vec![
        (
            "recent".into(),
            Json::Array(s.recent.iter().map(flight_record_json).collect()),
        ),
        (
            "slowest".into(),
            Json::Array(s.slowest.iter().map(flight_record_json).collect()),
        ),
        ("recent_cap".into(), Json::UInt(s.recent_cap as u64)),
        ("slowest_cap".into(), Json::UInt(s.slowest_cap as u64)),
        ("recorded".into(), Json::UInt(s.recorded)),
    ]))
}

fn bad(msg: impl Into<String>) -> HandlerError {
    (ErrorKind::BadRequest, msg.into())
}

fn core_err(e: CoreError) -> HandlerError {
    (ErrorKind::Core, e.to_string())
}

/// Maps a wire-transaction failure onto the wire error kinds: lock
/// conflicts and first-committer-wins rejections are `conflict` (the
/// transaction is already aborted when these surface — the client should
/// retry from a fresh `begin`); bookkeeping misuse is `bad_request`.
fn session_err(e: SessionError) -> HandlerError {
    match e {
        SessionError::Lock(_) | SessionError::WriteConflict { .. } => {
            (ErrorKind::Conflict, e.to_string())
        }
        SessionError::Core(e) => core_err(e),
        SessionError::NoTxn | SessionError::AlreadyInTxn => bad(e.to_string()),
    }
}

fn param<'a>(params: &'a Json, key: &str) -> Result<&'a Json, HandlerError> {
    params
        .get(key)
        .ok_or_else(|| bad(format!("missing parameter `{key}`")))
}

fn surrogate_param(params: &Json, key: &str) -> Result<Surrogate, HandlerError> {
    param(params, key)?
        .as_u64()
        .map(Surrogate)
        .ok_or_else(|| bad(format!("parameter `{key}` must be an unsigned surrogate")))
}

fn str_param<'a>(params: &'a Json, key: &str) -> Result<&'a str, HandlerError> {
    param(params, key)?
        .as_str()
        .ok_or_else(|| bad(format!("parameter `{key}` must be a string")))
}

fn value_param(params: &Json, key: &str) -> Result<Value, HandlerError> {
    let raw = param(params, key)?;
    serde_json::from_value::<Value>(raw).map_err(|e| {
        bad(format!(
            "parameter `{key}` is not a valid value encoding: {e}"
        ))
    })
}

/// Decodes an optional `{name: <value encoding>}` object into attr pairs.
fn attrs_param(params: &Json, key: &str) -> Result<Vec<(String, Value)>, HandlerError> {
    let Some(raw) = params.get(key) else {
        return Ok(vec![]);
    };
    if raw.is_null() {
        return Ok(vec![]);
    }
    let pairs = raw
        .as_object_slice()
        .ok_or_else(|| bad(format!("parameter `{key}` must be an object of attributes")))?;
    pairs
        .iter()
        .map(|(name, v)| {
            serde_json::from_value::<Value>(v)
                .map(|val| (name.clone(), val))
                .map_err(|e| {
                    bad(format!(
                        "attribute `{name}` has invalid value encoding: {e}"
                    ))
                })
        })
        .collect()
}

fn surrogates_json(items: &[Surrogate]) -> Json {
    Json::Array(items.iter().map(|s| Json::UInt(s.0)).collect())
}

fn item_source_json(source: &ItemSource) -> Json {
    match source {
        ItemSource::Local => Json::String("local".into()),
        ItemSource::Inherited { via_rel, from_type } => Json::Object(vec![
            ("via_rel".into(), Json::String(via_rel.clone())),
            ("from_type".into(), Json::String(from_type.clone())),
        ]),
    }
}

/// `effective`: a type's effective schema with provenance, as JSON.
fn handle_effective(catalog: &Catalog, params: &Json) -> HandlerResult {
    let ty = str_param(params, "type")?;
    let eff = catalog.effective_schema(ty).map_err(core_err)?;
    let attrs = eff
        .attrs
        .iter()
        .map(|(name, domain, source)| {
            Json::Object(vec![
                ("name".into(), Json::String(name.clone())),
                ("domain".into(), Json::String(domain.describe())),
                ("source".into(), item_source_json(source)),
            ])
        })
        .collect();
    let subclasses = eff
        .subclasses
        .iter()
        .map(|(name, elem, source)| {
            Json::Object(vec![
                ("name".into(), Json::String(name.clone())),
                ("element_type".into(), Json::String(elem.clone())),
                ("source".into(), item_source_json(source)),
            ])
        })
        .collect();
    Ok(Json::Object(vec![
        ("type".into(), Json::String(ty.into())),
        ("attrs".into(), Json::Array(attrs)),
        ("subclasses".into(), Json::Array(subclasses)),
    ]))
}

/// `explain`: synthesize the inheritance chain an attribute resolves
/// through, from effective-schema provenance (type level; no instances).
fn handle_explain(catalog: &Catalog, params: &Json) -> HandlerResult {
    let ty = str_param(params, "type")?;
    let attr = str_param(params, "attr")?;
    let mut hops = Vec::new();
    let mut cur_ty = ty.to_string();
    let domain = loop {
        let eff = catalog.effective_schema(&cur_ty).map_err(core_err)?;
        match eff.attr(attr) {
            None => {
                return Err((
                    ErrorKind::Core,
                    format!("type `{cur_ty}` has no attribute `{attr}`"),
                ))
            }
            Some((domain, ItemSource::Local)) => break domain.describe(),
            Some((_, ItemSource::Inherited { via_rel, from_type })) => {
                hops.push(Json::Object(vec![
                    ("inheritor_type".into(), Json::String(cur_ty.clone())),
                    ("via_rel".into(), Json::String(via_rel.clone())),
                    ("transmitter_type".into(), Json::String(from_type.clone())),
                    (
                        "permeable".into(),
                        Json::Bool(catalog.is_permeable(via_rel, attr)),
                    ),
                ]));
                cur_ty = from_type.clone();
            }
        }
    };
    Ok(Json::Object(vec![
        ("type".into(), Json::String(ty.into())),
        ("attr".into(), Json::String(attr.into())),
        ("owner_type".into(), Json::String(cur_ty)),
        ("domain".into(), Json::String(domain)),
        ("hops".into(), Json::Array(hops)),
    ]))
}

/// Verbs that take the store's exclusive lock.
fn is_write_verb(verb: &str) -> bool {
    matches!(verb, "create" | "set_attr" | "bind" | "unbind")
}

/// Session-level transaction verbs: they mutate per-connection state, so
/// they are never allowed inside a `batch` frame.
fn is_txn_verb(verb: &str) -> bool {
    matches!(verb, "begin" | "commit" | "abort")
}

/// `begin`/`commit`/`abort` against the session's wire transaction.
fn handle_txn_verb(
    store: &SharedStore,
    txns: &TxnRegistry,
    session: u64,
    verb: &str,
) -> HandlerResult {
    match verb {
        "begin" => {
            let (txn, snapshot_version) = txns.begin(session, store).map_err(session_err)?;
            Ok(Json::Object(vec![
                ("txn".into(), Json::UInt(txn)),
                ("snapshot_version".into(), Json::UInt(snapshot_version)),
            ]))
        }
        "commit" => {
            let info = txns.commit(session, store).map_err(session_err)?;
            Ok(Json::Object(vec![
                ("version".into(), Json::UInt(info.version)),
                ("writes".into(), Json::UInt(info.writes as u64)),
            ]))
        }
        "abort" => {
            let released = txns.abort(session).map_err(session_err)?;
            Ok(Json::Object(vec![(
                "released".into(),
                Json::UInt(released as u64),
            )]))
        }
        other => Err(bad(format!("unknown verb `{other}`"))),
    }
}

/// A verb on a session with an open transaction. `attr` and `set_attr`
/// run against the transaction's workspace under §6 lock inheritance;
/// the structural write verbs and `batch` are refused (the wire
/// transaction's scope is item values — structure changes go through
/// plain writes outside a transaction); everything else falls through to
/// normal dispatch (reads see the published store, not the workspace).
fn handle_in_txn(
    txns: &TxnRegistry,
    session: u64,
    verb: &str,
    params: &Json,
) -> Option<HandlerResult> {
    match verb {
        "attr" => Some((|| {
            let obj = surrogate_param(params, "obj")?;
            let name = str_param(params, "name")?;
            let value = txns.read_attr(session, obj, name).map_err(session_err)?;
            Ok(serde_json::to_value(&value))
        })()),
        "set_attr" => Some((|| {
            let obj = surrogate_param(params, "obj")?;
            let name = str_param(params, "name")?;
            let value = value_param(params, "value")?;
            txns.set_attr(session, obj, name, value)
                .map_err(session_err)?;
            Ok(Json::Null)
        })()),
        "create" | "bind" | "unbind" | "batch" => Some(Err(bad(format!(
            "verb `{verb}` is not allowed inside a transaction; commit or abort first"
        )))),
        _ => None,
    }
}

/// Verbs that take the store's shared lock.
fn is_read_verb(verb: &str) -> bool {
    matches!(verb, "attr" | "select" | "check_all")
}

/// Verbs that never touch the store (so a batch can run them under
/// whichever guard it already holds, and a lone `ping` holds no guard at
/// all). Returns `None` for store verbs.
fn storeless_verb(
    catalog: &Catalog,
    ctx: &ServerContext,
    verb: &str,
    params: &Json,
    debug_verbs: bool,
) -> Option<HandlerResult> {
    match verb {
        "ping" => {
            // Optional artificial service time (capped); used by the drain
            // and overload tests and the latency harness.
            if let Some(ms) = params.get("delay_ms").and_then(Json::as_u64) {
                std::thread::sleep(std::time::Duration::from_millis(ms.min(1_000)));
            }
            Some(Ok(Json::Object(vec![
                ("pong".into(), Json::Bool(true)),
                ("server_info".into(), ctx.info_json()),
            ])))
        }
        "effective" => Some(handle_effective(catalog, params)),
        "explain" => Some(handle_explain(catalog, params)),
        "stats" => Some(
            serde_json::from_str(&ccdb_obs::global().render_json())
                .map_err(|e| (ErrorKind::Internal, format!("stats render: {e}"))),
        ),
        "metrics" => {
            // The plaintext Prometheus scrape, `GET /metrics`-style, so the
            // PR 1 exporter is reachable over the network.
            Some(Ok(Json::String(ccdb_obs::global().render_prometheus())))
        }
        "flight" => Some(handle_flight()),
        "telemetry" => Some(handle_telemetry(params)),
        "boom" if debug_verbs => panic!("boom: requested handler panic"),
        _ => None,
    }
}

/// One read verb against an already-acquired shared guard.
fn store_read_verb(
    st: &ccdb_core::ObjectStore,
    catalog: &Catalog,
    verb: &str,
    params: &Json,
) -> HandlerResult {
    match verb {
        "attr" => {
            let obj = surrogate_param(params, "obj")?;
            let name = str_param(params, "name")?;
            let value = st.attr(obj, name).map_err(core_err)?;
            Ok(serde_json::to_value(&value))
        }
        "select" => {
            let ty = str_param(params, "type")?;
            let predicate = match params.get("where").and_then(Json::as_str) {
                Some(src) => ccdb_lang::compile_expr(src, catalog)
                    .map_err(|e| bad(format!("invalid `where` expression: {e}")))?,
                // No predicate: match everything.
                None => Expr::eq(Expr::int(0), Expr::int(0)),
            };
            let hits = st.select(ty, &predicate).map_err(core_err)?;
            Ok(surrogates_json(&hits))
        }
        "check_all" => {
            let violations = st.check_all().map_err(core_err)?;
            Ok(Json::Array(
                violations
                    .iter()
                    .map(|v| {
                        Json::Object(vec![
                            ("object".into(), Json::UInt(v.object.0)),
                            ("constraint".into(), Json::String(v.constraint.clone())),
                            (
                                "detail".into(),
                                v.detail
                                    .as_ref()
                                    .map(|d| Json::String(d.clone()))
                                    .unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ))
        }
        other => Err(bad(format!("unknown verb `{other}`"))),
    }
}

/// One write verb against an already-acquired exclusive guard.
fn store_write_verb(st: &mut ccdb_core::ObjectStore, verb: &str, params: &Json) -> HandlerResult {
    match verb {
        "create" => {
            let ty = str_param(params, "type")?;
            let attrs = attrs_param(params, "attrs")?;
            let owned: Vec<(&str, Value)> =
                attrs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            let s = st.create_object(ty, owned).map_err(core_err)?;
            Ok(Json::UInt(s.0))
        }
        "set_attr" => {
            let obj = surrogate_param(params, "obj")?;
            let name = str_param(params, "name")?;
            let value = value_param(params, "value")?;
            st.set_attr(obj, name, value).map_err(core_err)?;
            Ok(Json::Null)
        }
        "bind" => {
            let rel = str_param(params, "rel")?;
            let transmitter = surrogate_param(params, "transmitter")?;
            let inheritor = surrogate_param(params, "inheritor")?;
            let attrs = attrs_param(params, "attrs")?;
            let borrowed: Vec<(&str, Value)> =
                attrs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            let rel_obj = st
                .bind(rel, transmitter, inheritor, borrowed)
                .map_err(core_err)?;
            Ok(Json::UInt(rel_obj.0))
        }
        "unbind" => {
            let rel_obj = surrogate_param(params, "rel_obj")?;
            st.unbind(rel_obj).map_err(core_err)?;
            Ok(Json::Null)
        }
        other => Err(bad(format!("unknown verb `{other}`"))),
    }
}

/// One pre-parsed batch entry: verb + params, or a parse error carried to
/// its response slot.
enum BatchEntry<'a> {
    Run { verb: &'a str, params: &'a Json },
    Malformed(String),
}

/// Encodes a sub-request outcome into its positional response slot.
fn batch_slot(result: HandlerResult) -> Json {
    match result {
        Ok(v) => Json::Object(vec![("ok".into(), Json::Bool(true)), ("result".into(), v)]),
        Err((kind, message)) => Json::Object(vec![
            ("ok".into(), Json::Bool(false)),
            (
                "error".into(),
                Json::Object(vec![
                    ("kind".into(), Json::String(kind.as_str().into())),
                    ("message".into(), Json::String(message)),
                ]),
            ),
        ]),
    }
}

/// `batch`: execute `params.requests` (an array of `{verb, params}`
/// objects) under **one** store guard acquisition, returning one result
/// slot per entry in order. A failing entry fills its slot with an error
/// and later entries still execute (per-entry isolation); the store guard
/// is exclusive iff any entry is a write verb. Nested batches are
/// rejected per entry — one frame, one guard, no recursion.
fn handle_batch(
    store: &SharedStore,
    catalog: &Catalog,
    ctx: &ServerContext,
    params: &Json,
    debug_verbs: bool,
) -> HandlerResult {
    let subs = param(params, "requests")?
        .as_array()
        .ok_or_else(|| bad("`requests` must be an array"))?;
    let m = crate::metrics::server_metrics();
    m.batch_frames.inc();
    m.batch_subrequests.add(subs.len() as u64);
    m.batch_size.observe(subs.len() as u64);
    if subs.is_empty() {
        return Ok(Json::Array(vec![]));
    }
    let empty = Json::Object(vec![]);
    let entries: Vec<BatchEntry> = subs
        .iter()
        .map(|sub| {
            let Some(verb) = sub.get("verb").and_then(Json::as_str) else {
                return BatchEntry::Malformed("sub-request missing `verb`".into());
            };
            if verb == "batch" {
                return BatchEntry::Malformed("nested `batch` is not allowed".into());
            }
            if is_txn_verb(verb) {
                return BatchEntry::Malformed(format!(
                    "transaction verb `{verb}` is not allowed inside `batch`"
                ));
            }
            BatchEntry::Run {
                verb,
                params: sub.get("params").unwrap_or(&empty),
            }
        })
        .collect();
    let needs_write = entries
        .iter()
        .any(|e| matches!(e, BatchEntry::Run { verb, .. } if is_write_verb(verb)));
    let slots: Vec<Json> = if needs_write {
        store.write(|st| {
            entries
                .iter()
                .map(|e| {
                    batch_slot(match e {
                        BatchEntry::Malformed(msg) => Err(bad(msg.clone())),
                        BatchEntry::Run { verb, params } => {
                            if let Some(r) = storeless_verb(catalog, ctx, verb, params, debug_verbs)
                            {
                                r
                            } else if is_write_verb(verb) {
                                store_write_verb(st, verb, params)
                            } else if is_read_verb(verb) {
                                store_read_verb(st, catalog, verb, params)
                            } else {
                                Err(bad(format!("unknown verb `{verb}`")))
                            }
                        }
                    })
                })
                .collect()
        })
    } else {
        store.read(|st| {
            entries
                .iter()
                .map(|e| {
                    batch_slot(match e {
                        BatchEntry::Malformed(msg) => Err(bad(msg.clone())),
                        BatchEntry::Run { verb, params } => {
                            if let Some(r) = storeless_verb(catalog, ctx, verb, params, debug_verbs)
                            {
                                r
                            } else if is_read_verb(verb) {
                                store_read_verb(st, catalog, verb, params)
                            } else {
                                Err(bad(format!("unknown verb `{verb}`")))
                            }
                        }
                    })
                })
                .collect()
        })
    };
    Ok(Json::Array(slots))
}

/// Dispatches one verb. `debug_verbs` additionally enables the
/// test-only `boom` verb (panics inside the handler, exercising the
/// worker's panic isolation). Store verbs acquire exactly one guard —
/// a snapshot pin for reads, the exclusive master lock for writes, and
/// for a `batch` frame one guard covering every sub-request.
/// `begin`/`commit`/`abort` manage the session's wire transaction in
/// `txns`; while one is open, `attr`/`set_attr` route through it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_verb(
    store: &SharedStore,
    catalog: &Catalog,
    ctx: &ServerContext,
    txns: &TxnRegistry,
    session: u64,
    verb: &str,
    params: &Json,
    debug_verbs: bool,
) -> HandlerResult {
    if is_txn_verb(verb) {
        return handle_txn_verb(store, txns, session, verb);
    }
    if txns.in_txn(session) {
        if let Some(result) = handle_in_txn(txns, session, verb, params) {
            return result;
        }
    }
    if verb == "batch" {
        return handle_batch(store, catalog, ctx, params, debug_verbs);
    }
    if let Some(result) = storeless_verb(catalog, ctx, verb, params, debug_verbs) {
        return result;
    }
    if is_write_verb(verb) {
        store.write(|st| store_write_verb(st, verb, params))
    } else if is_read_verb(verb) {
        store.read(|st| store_read_verb(st, catalog, verb, params))
    } else {
        Err(bad(format!("unknown verb `{verb}`")))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ccdb_core::domain::Domain;
    use ccdb_core::schema::{AttrDef, InherRelTypeDef, ObjectTypeDef};
    use serde_json::json;

    pub(crate) fn fixture() -> (SharedStore, Catalog) {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "If".into(),
            attributes: vec![AttrDef::new("X", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_If".into(),
            transmitter_type: "If".into(),
            inheritor_type: None,
            inheriting: vec!["X".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "Impl".into(),
            inheritor_in: vec!["AllOf_If".into()],
            attributes: vec![AttrDef::new("Local", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        (SharedStore::new(c.clone()).unwrap(), c)
    }

    fn call(store: &SharedStore, catalog: &Catalog, verb: &str, params: Json) -> HandlerResult {
        call_s(store, catalog, &TxnRegistry::new(), 0, verb, params)
    }

    /// Like [`call`], with an explicit registry + session id so tests can
    /// exercise transactional state across calls.
    fn call_s(
        store: &SharedStore,
        catalog: &Catalog,
        txns: &TxnRegistry,
        session: u64,
        verb: &str,
        params: Json,
    ) -> HandlerResult {
        handle_verb(
            store,
            catalog,
            &ServerContext::default(),
            txns,
            session,
            verb,
            &params,
            false,
        )
    }

    #[test]
    fn create_bind_read_write_roundtrip() {
        let (store, catalog) = fixture();
        let interface = call(
            &store,
            &catalog,
            "create",
            json!({"type": "If", "attrs": {"X": {"Int": 7}}}),
        )
        .unwrap()
        .as_u64()
        .unwrap();
        let imp = call(&store, &catalog, "create", json!({"type": "Impl"}))
            .unwrap()
            .as_u64()
            .unwrap();
        call(
            &store,
            &catalog,
            "bind",
            json!({"rel": "AllOf_If", "transmitter": interface, "inheritor": imp}),
        )
        .unwrap();
        let v = call(&store, &catalog, "attr", json!({"obj": imp, "name": "X"})).unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(7));
        call(
            &store,
            &catalog,
            "set_attr",
            json!({"obj": interface, "name": "X", "value": {"Int": 41}}),
        )
        .unwrap();
        let v = call(&store, &catalog, "attr", json!({"obj": imp, "name": "X"})).unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(41));
    }

    #[test]
    fn select_with_and_without_predicate() {
        let (store, catalog) = fixture();
        for k in 0..4 {
            call(
                &store,
                &catalog,
                "create",
                json!({"type": "Impl", "attrs": {"Local": {"Int": k}}}),
            )
            .unwrap();
        }
        let all = call(&store, &catalog, "select", json!({"type": "Impl"})).unwrap();
        assert_eq!(all.as_array().unwrap().len(), 4);
        let some = call(
            &store,
            &catalog,
            "select",
            json!({"type": "Impl", "where": "Local < 2"}),
        )
        .unwrap();
        assert_eq!(some.as_array().unwrap().len(), 2);
        let err = call(
            &store,
            &catalog,
            "select",
            json!({"type": "Impl", "where": "][ not an expr"}),
        )
        .unwrap_err();
        assert_eq!(err.0, ErrorKind::BadRequest);
    }

    #[test]
    fn explain_reports_chain_and_effective_reports_provenance() {
        let (store, catalog) = fixture();
        let out = call(
            &store,
            &catalog,
            "explain",
            json!({"type": "Impl", "attr": "X"}),
        )
        .unwrap();
        assert_eq!(out.get("owner_type").and_then(Json::as_str), Some("If"));
        let hops = out.get("hops").and_then(|h| h.as_array()).unwrap();
        assert_eq!(hops.len(), 1);
        assert_eq!(
            hops[0].get("via_rel").and_then(Json::as_str),
            Some("AllOf_If")
        );
        assert_eq!(hops[0].get("permeable").and_then(Json::as_bool), Some(true));

        let eff = call(&store, &catalog, "effective", json!({"type": "Impl"})).unwrap();
        let attrs = eff.get("attrs").and_then(|a| a.as_array()).unwrap();
        assert!(attrs.iter().any(|a| {
            a.get("name").and_then(Json::as_str) == Some("X")
                && a.get("source").and_then(|s| s.get("via_rel")).is_some()
        }));
    }

    #[test]
    fn errors_map_to_kinds() {
        let (store, catalog) = fixture();
        let e = call(&store, &catalog, "attr", json!({"obj": 999, "name": "X"})).unwrap_err();
        assert_eq!(e.0, ErrorKind::Core);
        let e = call(&store, &catalog, "attr", json!({"name": "X"})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);
        let e = call(&store, &catalog, "warp", json!({})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);
        // `boom` is hidden unless debug verbs are enabled.
        let e = call(&store, &catalog, "boom", json!({})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);
    }

    #[test]
    fn stats_and_metrics_are_scrapeable() {
        let (store, catalog) = fixture();
        let stats = call(&store, &catalog, "stats", json!({})).unwrap();
        assert!(stats.get("counters").is_some());
        let text = call(&store, &catalog, "metrics", json!({})).unwrap();
        let text = text.as_str().unwrap();
        assert!(text.contains("# TYPE"), "{text}");
    }

    fn slot_ok(slot: &Json) -> bool {
        slot.get("ok").and_then(Json::as_bool) == Some(true)
    }

    fn slot_error_kind(slot: &Json) -> Option<&str> {
        slot.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    #[test]
    fn batch_empty_is_an_empty_array_and_non_array_requests_is_rejected() {
        let (store, catalog) = fixture();
        let out = call(&store, &catalog, "batch", json!({"requests": []})).unwrap();
        assert_eq!(out.as_array().unwrap().len(), 0);

        let e = call(&store, &catalog, "batch", json!({"requests": 3})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);
        let e = call(&store, &catalog, "batch", json!({})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);
    }

    #[test]
    fn batch_failing_entry_fills_its_slot_and_later_entries_still_run() {
        let (store, catalog) = fixture();
        let out = call(
            &store,
            &catalog,
            "batch",
            json!({"requests": [
                {"verb": "create", "params": {"type": "If", "attrs": {"X": {"Int": 5}}}},
                {"verb": "attr", "params": {"obj": 424242, "name": "X"}},
                {"verb": "create", "params": {"type": "Impl"}},
            ]}),
        )
        .unwrap();
        let slots = out.as_array().unwrap();
        assert_eq!(slots.len(), 3);
        assert!(slot_ok(&slots[0]));
        assert_eq!(slot_error_kind(&slots[1]), Some("core"));
        assert!(slot_ok(&slots[2]), "entry after a failure must execute");

        // Both creates landed despite the failing middle entry.
        let interface = slots[0].get("result").and_then(Json::as_u64).unwrap();
        let imp = slots[2].get("result").and_then(Json::as_u64).unwrap();
        let out = call(
            &store,
            &catalog,
            "batch",
            json!({"requests": [
                {"verb": "bind",
                 "params": {"rel": "AllOf_If", "transmitter": interface, "inheritor": imp}},
                {"verb": "attr", "params": {"obj": imp, "name": "X"}},
            ]}),
        )
        .unwrap();
        let slots = out.as_array().unwrap();
        assert!(slot_ok(&slots[0]) && slot_ok(&slots[1]));
        let v = slots[1].get("result").unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(5));
    }

    #[test]
    fn batch_rejects_nested_batches_and_missing_verbs_per_entry() {
        let (store, catalog) = fixture();
        let out = call(
            &store,
            &catalog,
            "batch",
            json!({"requests": [
                {"verb": "batch", "params": {"requests": []}},
                {"params": {"delay_ms": 0}},
                {"verb": "ping"},
            ]}),
        )
        .unwrap();
        let slots = out.as_array().unwrap();
        assert_eq!(slot_error_kind(&slots[0]), Some("bad_request"));
        assert_eq!(slot_error_kind(&slots[1]), Some("bad_request"));
        assert!(slot_ok(&slots[2]), "well-formed entry after malformed ones");
    }

    /// Creates If{X=7} bound to an Impl{Local=1}; returns their surrogates.
    fn seeded(store: &SharedStore, catalog: &Catalog) -> (u64, u64) {
        let interface = call(
            store,
            catalog,
            "create",
            json!({"type": "If", "attrs": {"X": {"Int": 7}}}),
        )
        .unwrap()
        .as_u64()
        .unwrap();
        let imp = call(
            store,
            catalog,
            "create",
            json!({"type": "Impl", "attrs": {"Local": {"Int": 1}}}),
        )
        .unwrap()
        .as_u64()
        .unwrap();
        call(
            store,
            catalog,
            "bind",
            json!({"rel": "AllOf_If", "transmitter": interface, "inheritor": imp}),
        )
        .unwrap();
        (interface, imp)
    }

    #[test]
    fn txn_verbs_roundtrip_with_isolation_and_conflict_mapping() {
        let (store, catalog) = fixture();
        let (interface, imp) = seeded(&store, &catalog);
        let txns = TxnRegistry::new();

        let out = call_s(&store, &catalog, &txns, 1, "begin", json!({})).unwrap();
        assert!(out.get("txn").and_then(Json::as_u64).is_some());
        call_s(
            &store,
            &catalog,
            &txns,
            1,
            "set_attr",
            json!({"obj": interface, "name": "X", "value": {"Int": 50}}),
        )
        .unwrap();
        // Session 2 (no txn) still reads the published value...
        let v = call_s(
            &store,
            &catalog,
            &txns,
            2,
            "attr",
            json!({"obj": imp, "name": "X"}),
        )
        .unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(7));
        // ...while session 1 reads its own write through inheritance.
        let v = call_s(
            &store,
            &catalog,
            &txns,
            1,
            "attr",
            json!({"obj": imp, "name": "X"}),
        )
        .unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(50));

        let out = call_s(&store, &catalog, &txns, 1, "commit", json!({})).unwrap();
        assert_eq!(out.get("writes").and_then(Json::as_u64), Some(1));
        let v = call(&store, &catalog, "attr", json!({"obj": imp, "name": "X"})).unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(50));

        // First-committer-wins surfaces as the `conflict` wire kind.
        call_s(&store, &catalog, &txns, 1, "begin", json!({})).unwrap();
        call_s(
            &store,
            &catalog,
            &txns,
            1,
            "set_attr",
            json!({"obj": interface, "name": "X", "value": {"Int": 60}}),
        )
        .unwrap();
        call(
            &store,
            &catalog,
            "set_attr",
            json!({"obj": interface, "name": "X", "value": {"Int": 61}}),
        )
        .unwrap();
        let e = call_s(&store, &catalog, &txns, 1, "commit", json!({})).unwrap_err();
        assert_eq!(e.0, ErrorKind::Conflict);
    }

    #[test]
    fn txn_bookkeeping_and_scope_rules() {
        let (store, catalog) = fixture();
        let (interface, _) = seeded(&store, &catalog);
        let txns = TxnRegistry::new();

        // commit/abort without a txn, double begin.
        let e = call_s(&store, &catalog, &txns, 1, "commit", json!({})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);
        let e = call_s(&store, &catalog, &txns, 1, "abort", json!({})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);
        call_s(&store, &catalog, &txns, 1, "begin", json!({})).unwrap();
        let e = call_s(&store, &catalog, &txns, 1, "begin", json!({})).unwrap_err();
        assert_eq!(e.0, ErrorKind::BadRequest);

        // Structural writes and batch are refused inside a transaction.
        for (verb, params) in [
            ("create", json!({"type": "Impl"})),
            ("batch", json!({"requests": []})),
        ] {
            let e = call_s(&store, &catalog, &txns, 1, verb, params).unwrap_err();
            assert_eq!(e.0, ErrorKind::BadRequest, "{verb} must be refused in-txn");
        }
        // Storeless verbs still work mid-transaction.
        call_s(&store, &catalog, &txns, 1, "ping", json!({})).unwrap();

        // Abort discards the buffered write and reports released locks.
        call_s(
            &store,
            &catalog,
            &txns,
            1,
            "set_attr",
            json!({"obj": interface, "name": "X", "value": {"Int": 99}}),
        )
        .unwrap();
        let out = call_s(&store, &catalog, &txns, 1, "abort", json!({})).unwrap();
        assert!(out.get("released").and_then(Json::as_u64).unwrap() >= 1);
        let v = call(
            &store,
            &catalog,
            "attr",
            json!({"obj": interface, "name": "X"}),
        )
        .unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(7));

        // Txn verbs are per-session state: they never ride inside a batch.
        let out = call(
            &store,
            &catalog,
            "batch",
            json!({"requests": [{"verb": "begin"}, {"verb": "ping"}]}),
        )
        .unwrap();
        let slots = out.as_array().unwrap();
        assert_eq!(slot_error_kind(&slots[0]), Some("bad_request"));
        assert!(slot_ok(&slots[1]));
    }

    #[test]
    fn read_only_batch_runs_under_the_shared_guard() {
        // A batch of pure reads takes the shared guard, so it completes
        // even while another thread is sitting inside a read section. (A
        // write-guard batch would block here and the test would hang.)
        let (store, catalog) = fixture();
        call(&store, &catalog, "create", json!({"type": "Impl"})).unwrap();

        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let reader_store = store.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                reader_store.read(|_guard| {
                    held_tx.send(()).unwrap();
                    // Hold the shared guard until the batch has finished.
                    done_rx
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .unwrap();
                });
            });
            held_rx.recv().unwrap();
            let out = call(
                &store,
                &catalog,
                "batch",
                json!({"requests": [
                    {"verb": "select", "params": {"type": "Impl"}},
                    {"verb": "ping", "params": {}},
                ]}),
            )
            .unwrap();
            let slots = out.as_array().unwrap();
            assert!(slot_ok(&slots[0]) && slot_ok(&slots[1]));
            assert_eq!(slots[0].get("result").unwrap().as_array().unwrap().len(), 1);
            done_tx.send(()).unwrap();
        });
    }
}
