//! The in-process half of the traced run: the same requests the wire
//! carries, pushed through the program's public functions in the order the
//! server calls them, with a span around each layer; and direct probes for
//! the layer costs no workload op isolates.
//!
//! What the replay cannot reach (socket syscalls, the event loop, the
//! server's private JSON glue) is what `server.residual_us` reports: wire
//! round trip minus the replayed request.

use std::io::Cursor;
use std::time::Instant;

use ccdb_core::expr::{eval, Env};
use ccdb_core::schema::Catalog;
use ccdb_core::shared::SharedStore;
use ccdb_core::{ObjectStore, Surrogate, Value};
use ccdb_server::proto::{
    append_frame, decode_response_v2, encode_response_v2, ok_response, read_frame,
};
use ccdb_server::queue::ShardedQueue;
use ccdb_server::{Request, MAX_FRAME_BYTES};
use ccdb_txn::{TxnId, TxnRegistry};
use serde_json::Value as Json;

use crate::corpus::Model;
use crate::ops::{scan_where, Transport};
use crate::trace::Tracer;

/// A [`Transport`] that answers in-process.
pub struct Replay {
    store: SharedStore,
    catalog: Catalog,
    txns: TxnRegistry,
    queue: ShardedQueue<Request>,
    in_txn: bool,
    next_id: u64,
    frame: Vec<u8>,
    last_rtt_ns: u64,
    /// Rows a `select Mid` scans (the extent size), to report ns per row.
    mid_rows: u32,
    pub tracer: Tracer,
}

/// The replay's one session id in its own `TxnRegistry`.
const SESSION: u64 = 1;

fn obj_param(p: &Json) -> Result<Surrogate, String> {
    p.get("obj")
        .and_then(Json::as_u64)
        .map(Surrogate)
        .ok_or_else(|| "missing `obj`".to_string())
}

fn str_param<'a>(p: &'a Json, key: &str) -> Result<&'a str, String> {
    p.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing `{key}`"))
}

fn value_param(p: &Json) -> Result<Value, String> {
    let raw = p.get("value").ok_or("missing `value`")?;
    serde_json::from_value(raw).map_err(|e| e.to_string())
}

impl Replay {
    pub fn new(store: SharedStore, model: &Model, tracer: Tracer) -> Replay {
        let catalog = store.read(|st| st.catalog().clone());
        Replay {
            store,
            catalog,
            txns: TxnRegistry::new(),
            queue: ShardedQueue::new(1, 64),
            in_txn: false,
            next_id: 1,
            frame: Vec::with_capacity(256),
            last_rtt_ns: 0,
            mid_rows: model.shape.mids() as u32,
            tracer,
        }
    }

    /// `append_frame` then `read_frame` on a cursor: the framing work of one
    /// direction without a socket.
    fn through_frame(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let Replay { tracer, frame, .. } = self;
        tracer.leaf("proto.frame", || {
            frame.clear();
            append_frame(frame, payload).map_err(|e| e.to_string())?;
            read_frame(&mut Cursor::new(&*frame), MAX_FRAME_BYTES).map_err(|e| e.to_string())
        })
    }

    /// The handler's work for one parsed request, layer by layer.
    fn handle(&mut self, req: &Request) -> Result<Json, String> {
        let Replay {
            store,
            catalog,
            txns,
            tracer: t,
            in_txn,
            mid_rows,
            ..
        } = self;
        let p = &req.params;
        match (req.verb.as_str(), *in_txn) {
            ("attr", false) => {
                let (obj, name) = (obj_param(p)?, str_param(p, "name")?);
                let snap = t.leaf("shared.snapshot_pin", || store.snapshot());
                let v = t.leaf("store.attr", || snap.attr(obj, name));
                Ok(serde_json::to_value(&v.map_err(|e| e.to_string())?))
            }
            ("select", false) => {
                let (ty, src) = (str_param(p, "type")?, str_param(p, "where")?);
                let snap = t.leaf("shared.snapshot_pin", || store.snapshot());
                let pred = t
                    .leaf("lang.compile_where", || {
                        ccdb_lang::compile_expr(src, catalog)
                    })
                    .map_err(|e| e.to_string())?;
                let id = t.open("store.select");
                let hits = snap.select(ty, &pred);
                t.close_batch(id, *mid_rows);
                let hits = hits.map_err(|e| e.to_string())?;
                Ok(Json::Array(hits.iter().map(|s| Json::UInt(s.0)).collect()))
            }
            ("set_attr", false) => {
                let (obj, name, v) = (obj_param(p)?, str_param(p, "name")?, value_param(p)?);
                // The write cycle's self time is master lock + COW clone +
                // publish; the mutation itself is the child span.
                let cycle = t.open("shared.write_publish");
                let out = store.write(|st| t.leaf("store.set_attr", || st.set_attr(obj, name, v)));
                t.close(cycle);
                out.map(|()| Json::Null).map_err(|e| e.to_string())
            }
            ("begin", false) => {
                let (txn, version) = t
                    .leaf("txn.begin", || txns.begin(SESSION, store))
                    .map_err(|e| e.to_string())?;
                *in_txn = true;
                Ok(Json::Object(vec![
                    ("txn".into(), Json::UInt(txn)),
                    ("snapshot_version".into(), Json::UInt(version)),
                ]))
            }
            ("attr", true) => {
                let (obj, name) = (obj_param(p)?, str_param(p, "name")?);
                let v = t.leaf("txn.read_attr", || txns.read_attr(SESSION, obj, name));
                Ok(serde_json::to_value(&v.map_err(|e| e.to_string())?))
            }
            ("set_attr", true) => {
                let (obj, name, v) = (obj_param(p)?, str_param(p, "name")?, value_param(p)?);
                t.leaf("txn.set_attr", || txns.set_attr(SESSION, obj, name, v))
                    .map(|()| Json::Null)
                    .map_err(|e| e.to_string())
            }
            ("commit", true) => {
                *in_txn = false;
                let info = t
                    .leaf("txn.commit", || txns.commit(SESSION, store))
                    .map_err(|e| e.to_string())?;
                Ok(Json::Object(vec![
                    ("version".into(), Json::UInt(info.version)),
                    ("writes".into(), Json::UInt(info.writes as u64)),
                ]))
            }
            ("abort", true) => {
                *in_txn = false;
                let released = t
                    .leaf("txn.abort", || txns.abort(SESSION))
                    .map_err(|e| e.to_string())?;
                Ok(Json::Object(vec![(
                    "released".into(),
                    Json::UInt(released as u64),
                )]))
            }
            (verb, in_txn) => Err(format!("replay has no path for `{verb}` (in_txn={in_txn})")),
        }
    }

    /// One request from client encode to client decode, as the wire
    /// carries it but without the sockets.
    fn exchange(&mut self, req: &Request) -> Result<Json, String> {
        let payload = self.tracer.leaf("proto.encode_req", || req.encode_v2())?;
        let received = self.through_frame(&payload)?;
        let mut parsed = self
            .tracer
            .leaf("proto.parse_req", || Request::parse_v2(&received))?;
        // Reads outside a transaction run inline on the event loop; writes,
        // txn verbs and in-transaction reads hop to a worker.
        let inline = matches!(parsed.verb.as_str(), "attr" | "select") && !self.in_txn;
        if !inline {
            let Replay { queue, tracer, .. } = self;
            parsed = tracer.leaf("queue.push_pop", || {
                queue
                    .push(parsed)
                    .map_err(|_| "replay queue refused a push")?;
                queue.pop(0).ok_or("replay queue closed")
            })?;
        }
        let result = self.handle(&parsed)?;
        let reply = self.tracer.leaf("proto.encode_resp", || {
            encode_response_v2(&ok_response(parsed.id, result.clone()))
        });
        let received = self.through_frame(&reply)?;
        self.tracer
            .leaf("proto.decode_resp", || decode_response_v2(&received))?;
        Ok(result)
    }

    fn request(&mut self, verb: &'static str, params: Json) -> Result<Json, String> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            verb: verb.into(),
            params,
            trace: None,
        };
        let root = self.tracer.open("replay.request");
        let out = self.exchange(&req);
        self.tracer.close(root);
        let result = out?;
        // The v1 JSON dialect of the same exchange, outside the replayed
        // request: what the binary dialect is measured against.
        let text = req.to_json().to_json_string();
        self.tracer
            .leaf("proto.v1_parse_req", || Request::parse(text.as_bytes()))?;
        self.tracer.leaf("proto.v1_encode_resp", || {
            ok_response(id, result.clone()).to_json_string()
        });
        Ok(result)
    }
}

impl Transport for Replay {
    fn call(&mut self, verb: &'static str, params: Json) -> Result<Json, String> {
        let t0 = Instant::now();
        let out = self.request(verb, params);
        self.last_rtt_ns = t0.elapsed().as_nanos() as u64;
        out
    }

    fn last_rtt_ns(&self) -> u64 {
        self.last_rtt_ns
    }
}

/// Counts the direct probes report beside their spans.
pub struct ProbeCounts {
    /// Bytes allocated by one empty write cycle (the COW publish).
    pub publish_alloc_bytes: f64,
    /// Chain hops walked per cold read of a two-hop inherited attribute.
    pub hops_per_miss: f64,
    /// Item locks one in-transaction read of a two-hop attribute takes.
    pub locks_per_read: f64,
    /// Rows the interpreted `select Mid` examines per row it returns.
    pub rows_per_result: f64,
}

const PROBE: &str = "probe";
/// Repetitions of each probe; its layer number is the median of these.
const ROUNDS: usize = 7;

/// A private copy of the served snapshot whose resolution cache is its own,
/// so probes can empty, disable and fill it without touching the server's.
fn scratch_of(store: &SharedStore) -> ObjectStore {
    let mut scratch = (*store.snapshot()).clone();
    scratch.detach_resolution_cache();
    scratch
}

fn read_all(st: &ObjectStore, objs: &[Surrogate], name: &str) -> Result<(), String> {
    for o in objs {
        std::hint::black_box(st.attr(*o, name).map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// Direct probes on the corpus for layer costs that no workload op isolates.
/// Every probe is a span in group `probe`; batched ones divide by `calls`.
pub fn layer_probes(
    store: &SharedStore,
    model: &Model,
    t: &mut Tracer,
) -> Result<ProbeCounts, String> {
    t.begin_op(PROBE);
    let e = |e: ccdb_core::CoreError| e.to_string();

    // COW publish: a write cycle whose closure does nothing.
    let cycles = ROUNDS * 8;
    let bytes = crate::alloc::bytes_requested_during(|| {
        for _ in 0..cycles {
            t.leaf("shared.write_publish_empty", || store.write(|_| ()));
        }
    });
    let publish_alloc_bytes = bytes as f64 / cycles as f64;

    // Resolution: the same reads with the cache off, cold and warm, spread
    // over the whole `Comp` population (so memory, not L1, is what is read).
    let scratch = scratch_of(store);
    let step = (model.comp_ids.len() / 4096).max(1);
    let comps: Vec<Surrogate> = model.comp_ids.iter().step_by(step).copied().collect();
    let n = comps.len() as u32;
    let mut hops_per_miss = 0.0;
    for _ in 0..ROUNDS {
        scratch.set_resolution_cache(false); // also empties it
        let id = t.open("store.attr_walk");
        read_all(&scratch, &comps, "A0")?;
        t.close_batch(id, n);
        scratch.set_resolution_cache(true);
        let before = scratch.stats();
        let id = t.open("store.attr_miss");
        read_all(&scratch, &comps, "A0")?;
        t.close_batch(id, n);
        let after = scratch.stats();
        let misses = after.rescache_misses - before.rescache_misses;
        hops_per_miss = (after.hops - before.hops) as f64 / misses.max(1) as f64;
        let id = t.open("store.attr_hit");
        read_all(&scratch, &comps, "A0")?;
        t.close_batch(id, n);
        // A local attribute has no chain behind it: its warm read is the
        // cache lookup and nothing else.
        read_all(&scratch, &comps, "Pos")?;
        let id = t.open("rescache.get");
        read_all(&scratch, &comps, "Pos")?;
        t.close_batch(id, n);
    }

    // Invalidation: the same transmitter write with nothing cached below
    // it, and with its whole inheritor closure cached.
    let mut scratch = scratch;
    let ifs = model.shape.ifs;
    let under = model.shape.mids_per_if * model.shape.comps_per_mid;
    for k in 0..8.min(ifs) {
        // Untimed: the first writes pay for unsharing the clone's shards.
        scratch
            .set_attr(model.if_ids[k], "A3", Value::Int(k as i64))
            .map_err(e)?;
    }
    for round in 0..ROUNDS * 4 {
        let iface = (round * 7 + 11) % ifs;
        let closure = &model.comp_ids[iface * under..(iface + 1) * under];
        let target = model.if_ids[iface];
        // Untimed: the first write under a transmitter unshares the
        // relationship objects it flags; the two timed ones must not differ
        // in that.
        scratch.set_resolution_cache(false);
        scratch.set_attr(target, "A3", Value::Int(0)).map_err(e)?;
        t.leaf("store.set_attr_nocache", || {
            scratch.set_attr(target, "A3", Value::Int(1))
        })
        .map_err(e)?;
        scratch.set_resolution_cache(true);
        read_all(&scratch, closure, "A3")?;
        t.leaf("store.set_attr_swept", || {
            scratch.set_attr(target, "A3", Value::Int(2))
        })
        .map_err(e)?;
    }
    drop(scratch);

    // Predicate evaluation and the two select paths over the `Mid` extent.
    let snap = store.snapshot();
    let rows = model.mid_ids.len() as u32;
    let interpreted =
        ccdb_lang::compile_expr(&scan_where(0), snap.catalog()).map_err(|e| e.to_string())?;
    let equality = ccdb_lang::compile_expr("M = 3", snap.catalog()).map_err(|e| e.to_string())?;
    let hits = snap.select("Mid", &interpreted).map_err(e)?; // also warms the cache
    let rows_per_result = rows as f64 / hits.len().max(1) as f64;
    for _ in 0..ROUNDS {
        let id = t.open("expr.eval");
        for mid in &model.mid_ids {
            std::hint::black_box(eval(&*snap, *mid, &mut Env::new(), &interpreted).map_err(e)?);
        }
        t.close_batch(id, rows);
        let id = t.open("store.select_eq");
        std::hint::black_box(snap.select("Mid", &equality).map_err(e)?);
        t.close_batch(id, rows);
    }

    // Abort, and the width of one inherited read's lock closure.
    let txns = TxnRegistry::new();
    let mut locks_per_read = 0.0;
    for round in 0..ROUNDS * 4 {
        let comp = model.comp_ids[(round * 13) % model.comp_ids.len()];
        let (txn, _) = txns.begin(SESSION, store).map_err(|e| e.to_string())?;
        txns.read_attr(SESSION, comp, "A2")
            .map_err(|e| e.to_string())?;
        locks_per_read = txns.locks().held_count(TxnId(txn)) as f64;
        t.leaf("txn.abort", || txns.abort(SESSION))
            .map_err(|e| e.to_string())?;
    }

    Ok(ProbeCounts {
        publish_alloc_bytes,
        hops_per_miss,
        locks_per_read,
        rows_per_result,
    })
}
