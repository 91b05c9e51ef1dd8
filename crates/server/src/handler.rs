//! Verb dispatch: one parsed request against the shared store.
//!
//! [`Handler::handle`] is a pure params → `Result<Reply, (ErrorKind,
//! message)>` function: it reads its [`Params`] in place and answers a
//! typed [`Reply`]; the threading, framing, and response writing live
//! in [`crate::dispatch`] and [`crate::session`]. Every decision is a `match` on the request's
//! [`Verb`] and its [`VerbClass`]. A store verb runs on one [`Target`]:
//! the session's wire transaction when it has one, else a pinned snapshot
//! (reads, many in parallel across workers) or one exclusive write cycle
//! on the master — so a transmitter update by one session is visible to
//! every other session's next read, which is the paper's
//! instant-visibility semantics carried over the wire. Every write decodes
//! into one [`Op`]: replayed on the master outside a transaction, handed
//! to [`ccdb_txn::Txn::apply`] inside one.

use std::time::Instant;

use ccdb_core::expr::Expr;
use ccdb_core::schema::{Catalog, ItemSource};
use ccdb_core::shared::SharedStore;
use ccdb_core::{CoreError, ObjectStore};
use ccdb_txn::{Op, SessionError, Txn, TxnError, TxnRegistry, TxnResult};
use serde_json::Value as Json;

use crate::params::Params;
use crate::proto::{ErrorKind, Verb, VerbClass};
use crate::reply::Reply;

/// Handler failure: wire error kind plus client-safe message.
pub(crate) type HandlerError = (ErrorKind, String);
pub(crate) type HandlerResult = Result<Reply, HandlerError>;

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
        ("verb".into(), Json::String(r.verb.into())),
        ("outcome".into(), Json::String(r.outcome.into())),
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
fn handle_telemetry(params: Params) -> Json {
    let ts = ccdb_obs::global_series();
    let interval_ms = ts.interval_ms().max(1);
    let retention = ts.retention();
    let points = params
        .get("points")
        .and_then(Params::as_u64)
        .unwrap_or(32)
        .clamp(1, retention as u64) as usize;
    let window_ms = params
        .get("window_ms")
        .and_then(Params::as_u64)
        .unwrap_or(points as u64 * interval_ms)
        .max(interval_ms);
    let window_samples = (window_ms.div_ceil(interval_ms) as usize).clamp(1, retention);
    let window_secs = (window_samples as u64 * interval_ms) as f64 / 1_000.0;
    let patterns = crate::watch::series_patterns(params);

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

    let verbs: Vec<Json> = Verb::PUBLIC
        .iter()
        .filter_map(|v| {
            let v = v.name();
            let w = ts.hist_window(&format!("ccdb_server_phase_{v}_total_ns"), window_samples)?;
            if w.count == 0 {
                return None;
            }
            let mut fields = vec![
                ("verb".into(), Json::String(v.into())),
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

    Json::Object(vec![
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
    ])
}

/// `flight`: dump the flight recorder (most-recent + slowest retained
/// request timelines).
fn handle_flight() -> Json {
    let s = ccdb_obs::flight::snapshot();
    Json::Object(vec![
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
    ])
}

pub(crate) fn bad(msg: impl Into<String>) -> HandlerError {
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
        SessionError::Txn(TxnError::Lock(_) | TxnError::WriteConflict { .. }) => {
            (ErrorKind::Conflict, e.to_string())
        }
        SessionError::Txn(_) => (ErrorKind::Core, e.to_string()),
        SessionError::NoTxn | SessionError::AlreadyInTxn => bad(e.to_string()),
    }
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
fn handle_effective(catalog: &Catalog, params: Params) -> Result<Json, HandlerError> {
    let ty = params.str("type")?;
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
fn handle_explain(catalog: &Catalog, params: Params) -> Result<Json, HandlerError> {
    let ty = params.str("type")?;
    let attr = params.str("attr")?;
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

/// `begin`/`commit`/`abort` against the session's wire transaction.
fn txn_verb(store: &SharedStore, txns: &TxnRegistry, session: u64, verb: Verb) -> HandlerResult {
    match verb {
        Verb::Begin => {
            let (txn, snapshot_version) = txns.begin(session, store).map_err(session_err)?;
            Ok(Reply::Begin {
                txn,
                snapshot_version,
            })
        }
        Verb::Commit => {
            let info = txns.commit(session, store).map_err(session_err)?;
            Ok(Reply::Commit {
                version: info.version,
                writes: info.writes as u64,
            })
        }
        Verb::Abort => {
            let released = txns.abort(session).map_err(session_err)?;
            Ok(Reply::Abort {
                released: released as u64,
            })
        }
        other => Err(bad(format!("`{}` is not a transaction verb", other.name()))),
    }
}

/// One read verb against one view of the store: a pinned snapshot, the
/// master inside a write cycle, or a transaction's workspace.
fn read(st: &ObjectStore, verb: Verb, params: Params) -> HandlerResult {
    match verb {
        Verb::Attr => {
            let (obj, name) = (params.surrogate("obj")?, params.str("name")?);
            Ok(Reply::Value(st.attr(obj, name).map_err(core_err)?))
        }
        Verb::Select => {
            let ty = params.str("type")?;
            let predicate = match params.get("where").and_then(Params::as_str) {
                Some(src) => ccdb_lang::compile_expr(src, st.catalog())
                    .map_err(|e| bad(format!("invalid `where` expression: {e}")))?,
                // No predicate: match everything.
                None => Expr::eq(Expr::int(0), Expr::int(0)),
            };
            let hits = st.select(ty, &predicate).map_err(core_err)?;
            Ok(Reply::Surrogates(hits))
        }
        Verb::CheckAll => Ok(Reply::Violations(st.check_all().map_err(core_err)?)),
        other => Err(bad(format!("`{}` is not a read verb", other.name()))),
    }
}

/// Decodes a write verb's params into its one [`Op`], against the store
/// view the op will be applied to: a creating op draws its surrogate from
/// that store's shared generator (last, so a malformed request burns
/// none), an unbind names the binding it holds.
fn decode_op(st: &ObjectStore, verb: Verb, params: Params) -> Result<Op, HandlerError> {
    Ok(match verb {
        Verb::Create => Op::CreateObject {
            type_name: params.str("type")?.into(),
            attrs: params.attrs("attrs")?,
            s: st.reserve_surrogate(),
        },
        Verb::SetAttr => Op::SetAttr {
            obj: params.surrogate("obj")?,
            attr: params.str("name")?.into(),
            value: params.value("value")?,
        },
        Verb::Bind => Op::Bind {
            rel_type: params.str("rel")?.into(),
            transmitter: params.surrogate("transmitter")?,
            inheritor: params.surrogate("inheritor")?,
            attrs: params.attrs("attrs")?,
            s: st.reserve_surrogate(),
        },
        Verb::Unbind => Op::unbind(st, params.surrogate("rel_obj")?).map_err(core_err)?,
        other => return Err(bad(format!("`{}` is not a write verb", other.name()))),
    })
}

/// A read or write verb inside `session`'s wire transaction: reads see the
/// workspace (`attr` under §6 lock inheritance), writes go through
/// [`Txn::apply`]. A lock failure kills the transaction
/// ([`TxnRegistry::with_txn`]), so later entries of a batch find none.
fn in_txn(txns: &TxnRegistry, session: u64, verb: Verb, params: Params) -> HandlerResult {
    if verb == Verb::Attr {
        let (obj, name) = (params.surrogate("obj")?, params.str("name")?);
        let value = txns.read_attr(session, obj, name).map_err(session_err)?;
        return Ok(Reply::Value(value));
    }
    let run = |txn: &mut Txn| -> TxnResult<HandlerResult> {
        if verb.class() != VerbClass::Write {
            return Ok(read(txn.workspace(), verb, params));
        }
        let op = match decode_op(txn.workspace(), verb, params) {
            Ok(op) => op,
            Err(e) => return Ok(Err(e)),
        };
        let created = op.created();
        txn.apply(op)?;
        Ok(Ok(Reply::Created(created)))
    };
    txns.with_txn(session, run).map_err(session_err)?
}

/// Where a store verb runs.
enum Target<'a> {
    /// A pinned published snapshot: reads only.
    Snapshot(&'a ObjectStore),
    /// The master inside one [`SharedStore::write`] cycle: a write replays
    /// its op directly — no `Txn`, no locks.
    Master(&'a mut ObjectStore),
    /// The session's wire transaction.
    Txn(&'a TxnRegistry, u64),
}

/// Everything a request may touch.
pub(crate) struct Handler<'a> {
    pub store: &'a SharedStore,
    pub catalog: &'a Catalog,
    pub ctx: &'a ServerContext,
    pub txns: &'a TxnRegistry,
    /// Enables the test-only `boom` verb (panics inside the handler,
    /// exercising the worker's panic isolation).
    pub debug_verbs: bool,
}

impl Handler<'_> {
    /// Dispatches one verb for `session` by its class. A store verb
    /// acquires exactly one guard — the session's transaction if it has
    /// one, else a snapshot pin for reads or the exclusive master lock for
    /// writes — and a `batch` frame one guard covering every sub-request.
    pub(crate) fn handle(&self, session: u64, verb: Verb, params: Params) -> HandlerResult {
        match verb.class() {
            VerbClass::Storeless => self.storeless(verb, params),
            VerbClass::Read => self.on_target(session, false, |t| self.run(t, verb, params)),
            VerbClass::Write => self.on_target(session, true, |t| self.run(t, verb, params)),
            VerbClass::Batch => self.batch(session, params),
            VerbClass::Txn => txn_verb(self.store, self.txns, session, verb),
            // Answered by the event loop (`session`, `watch`) and by
            // `dispatch::run_request` (`shutdown`) before reaching here.
            VerbClass::Connection | VerbClass::Control => {
                Err(bad(format!("verb `{}` cannot run here", verb.name())))
            }
        }
    }

    /// Runs `f` on `session`'s target: its wire transaction when one is
    /// open, else one write cycle on the master (`writes`) or a pinned
    /// snapshot.
    fn on_target<R>(&self, session: u64, writes: bool, f: impl FnOnce(&mut Target) -> R) -> R {
        if self.txns.in_txn(session) {
            f(&mut Target::Txn(self.txns, session))
        } else if writes {
            self.store.write(|st| f(&mut Target::Master(st)))
        } else {
            self.store.read(|st| f(&mut Target::Snapshot(st)))
        }
    }

    /// One verb on `target`: the body of a lone request, and of every
    /// `batch` entry.
    fn run(&self, target: &mut Target, verb: Verb, params: Params) -> HandlerResult {
        match (verb.class(), target) {
            (VerbClass::Storeless, _) => self.storeless(verb, params),
            (VerbClass::Read, Target::Snapshot(st)) => read(st, verb, params),
            (VerbClass::Read, Target::Master(st)) => read(st, verb, params),
            (VerbClass::Write, Target::Master(st)) => {
                let op = decode_op(st, verb, params)?;
                op.replay(st).map_err(core_err)?;
                Ok(Reply::Created(op.created()))
            }
            (VerbClass::Read | VerbClass::Write, Target::Txn(txns, session)) => {
                in_txn(txns, *session, verb, params)
            }
            (VerbClass::Batch, _) => Err(bad("nested `batch` is not allowed")),
            (VerbClass::Txn, _) => Err(bad(format!(
                "transaction verb `{}` is not allowed inside `batch`",
                verb.name()
            ))),
            _ => Err(bad(format!(
                "verb `{}` is not allowed inside `batch`",
                verb.name()
            ))),
        }
    }

    /// Verbs that never touch the store.
    fn storeless(&self, verb: Verb, params: Params) -> HandlerResult {
        let tree = match verb {
            Verb::Ping => {
                // Optional artificial service time (capped); used by the drain
                // and overload tests and the latency harness.
                if let Some(ms) = params.get("delay_ms").and_then(Params::as_u64) {
                    std::thread::sleep(std::time::Duration::from_millis(ms.min(1_000)));
                }
                Json::Object(vec![
                    ("pong".into(), Json::Bool(true)),
                    ("server_info".into(), self.ctx.info_json()),
                ])
            }
            Verb::Effective => handle_effective(self.catalog, params)?,
            Verb::Explain => handle_explain(self.catalog, params)?,
            Verb::Stats => serde_json::from_str(&ccdb_obs::global().render_json())
                .map_err(|e| (ErrorKind::Internal, format!("stats render: {e}")))?,
            // The plaintext Prometheus scrape, `GET /metrics`-style, so the
            // PR 1 exporter is reachable over the network.
            Verb::Metrics => Json::String(ccdb_obs::global().render_prometheus()),
            Verb::Flight => handle_flight(),
            Verb::Telemetry => handle_telemetry(params),
            Verb::Boom if self.debug_verbs => panic!("boom: requested handler panic"),
            other => return Err(bad(format!("unknown verb `{}`", other.name()))),
        };
        Ok(Reply::Json(tree))
    }

    /// `batch`: execute `params.requests` (an array of `{verb, params}`
    /// objects) as one loop over [`Handler::run`] on **one** target —
    /// inside a wire transaction every entry runs against it; outside, one
    /// guard acquisition, exclusive iff any entry is a write verb — and
    /// return one result slot per entry in order. A failing entry fills
    /// its slot with an error and later entries still execute (per-entry
    /// isolation); nested batches, transaction verbs and entries whose
    /// params are not an object are refused per entry.
    fn batch(&self, session: u64, params: Params) -> HandlerResult {
        let subs = params.array("requests")?;
        let m = crate::metrics::server_metrics();
        m.batch_frames.inc();
        m.batch_subrequests.add(subs.len() as u64);
        m.batch_size.observe(subs.len() as u64);
        if subs.len() == 0 {
            return Ok(Reply::Batch(vec![]));
        }
        let entries: Vec<Result<(Verb, Params), HandlerError>> = subs
            .map(|sub| {
                let name = sub
                    .get("verb")
                    .and_then(Params::as_str)
                    .ok_or_else(|| bad("sub-request missing `verb`"))?;
                let verb =
                    Verb::from_name(name).ok_or_else(|| bad(format!("unknown verb `{name}`")))?;
                let params = sub.get("params").map_or(Ok(Params::EMPTY), Params::object);
                Ok((verb, params.map_err(bad)?))
            })
            .collect();
        let writes = entries
            .iter()
            .any(|e| matches!(e, Ok((verb, _)) if verb.class() == VerbClass::Write));
        let slots = self.on_target(session, writes, |target| {
            entries
                .into_iter()
                .map(|e| e.and_then(|(verb, params)| self.run(target, verb, params)))
                .collect()
        });
        Ok(Reply::Batch(slots))
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

    /// A handler's answer as the tree a v1 client reads: the reply is
    /// written by the session's encoder and parsed back.
    type Answer = Result<Json, HandlerError>;

    fn call(store: &SharedStore, catalog: &Catalog, verb: &str, params: Json) -> Answer {
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
    ) -> Answer {
        let handler = Handler {
            store,
            catalog,
            ctx: &ServerContext::default(),
            txns,
            debug_verbs: false,
        };
        let verb = Verb::from_name(verb).unwrap_or_else(|| panic!("no verb `{verb}`"));
        let reply = handler.handle(session, verb, Params::Json(&params))?;
        let mut out = Vec::new();
        crate::reply::append_reply(&mut out, 1, 0, &Ok(reply)).unwrap();
        let envelope: Json = serde_json::from_slice(&out[4..]).unwrap();
        Ok(envelope["result"].clone())
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
        // Unknown names never become a `Verb` (dispatch answers them); in a
        // batch they fill their slot.
        let out = call(
            &store,
            &catalog,
            "batch",
            json!({"requests": [{"verb": "warp"}]}),
        )
        .unwrap();
        assert_eq!(
            slot_error_kind(&out.as_array().unwrap()[0]),
            Some("bad_request")
        );
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

        // Structural writes and a write-carrying batch run inside the
        // transaction, and its reads see them; other sessions do not.
        let imp = call_s(
            &store,
            &catalog,
            &txns,
            1,
            "create",
            json!({"type": "Impl"}),
        )
        .unwrap()
        .as_u64()
        .unwrap();
        let out = call_s(
            &store,
            &catalog,
            &txns,
            1,
            "batch",
            json!({"requests": [
                {"verb": "bind",
                 "params": {"rel": "AllOf_If", "transmitter": interface, "inheritor": imp}},
                {"verb": "attr", "params": {"obj": imp, "name": "X"}},
                {"verb": "select", "params": {"type": "Impl"}},
                {"verb": "batch", "params": {"requests": []}},
                {"verb": "commit"},
            ]}),
        )
        .unwrap();
        let slots = out.as_array().unwrap();
        assert!(slot_ok(&slots[0]), "{slots:?}");
        let v = slots[1].get("result").unwrap();
        assert_eq!(v.get("Int").and_then(Json::as_i64), Some(7));
        let extent = slots[2].get("result").unwrap().as_array().unwrap();
        assert_eq!(extent.len(), 2, "the workspace holds the new Impl");
        // Nested batches and txn verbs stay refused inside a batch.
        assert_eq!(slot_error_kind(&slots[3]), Some("bad_request"));
        assert_eq!(slot_error_kind(&slots[4]), Some("bad_request"));
        let outside = call_s(
            &store,
            &catalog,
            &txns,
            2,
            "select",
            json!({"type": "Impl"}),
        );
        assert_eq!(outside.unwrap().as_array().unwrap().len(), 1);
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
        let extent = call(&store, &catalog, "select", json!({"type": "Impl"})).unwrap();
        assert_eq!(
            extent.as_array().unwrap().len(),
            1,
            "abort drops the create"
        );

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
