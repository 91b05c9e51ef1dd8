//! `ccdb stats`: run a small synthetic workload over a compiled schema and
//! dump the process-global [`ccdb_obs`] metrics registry.
//!
//! The workload exercises every instrumented subsystem so the snapshot is
//! representative, not empty:
//!
//! - **resolution** — for each inheritance-relationship type, bind a few
//!   transmitter/inheritor pairs and read every effective attribute of the
//!   inheritors (local *and* inherited reads, hop histogram, chains);
//! - **adaptation** — update permeable transmitter attributes so adaptation
//!   flags propagate to the bound inheritors;
//! - **locking** — a multi-granularity lock workload with deliberate
//!   contention: one waiter that is eventually granted and one that times
//!   out (waits, timeouts, acquire-latency histogram);
//! - **storage** — a transactional put/abort workload against a [`DurableKv`]
//!   in a temporary directory with a tiny buffer pool (hits, misses,
//!   evictions, WAL appends/syncs), then a simulated crash + reopen so
//!   recovery replay counters move;
//! - **serving** — an in-process server answering a plain ping and one
//!   batched frame, so the `ccdb_server_*` request and batch series are
//!   present in the snapshot.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ccdb_core::domain::Domain;
use ccdb_core::schema::Catalog;
use ccdb_core::{ObjectStore, Surrogate, Value};
use ccdb_storage::DurableKv;
use ccdb_txn::{LockManager, LockMode, Resource, TxnId};

use crate::{load_catalog, CliError};

fn internal(e: impl std::fmt::Display) -> CliError {
    CliError {
        message: format!("stats workload failed: {e}"),
        code: 1,
    }
}

/// Synthesize a value conforming to `domain` (deterministic, seeded by `n`).
/// Shared with `ccdb explain`, which sets one synthetic value at the head
/// of its demonstration chain.
pub(crate) fn synth(domain: &Domain, n: i64) -> Value {
    match domain {
        Domain::Int => Value::Int(n),
        Domain::Real => Value::Real(n as f64 * 0.5),
        Domain::Bool => Value::Bool(n % 2 == 0),
        Domain::Text => Value::Str(format!("v{n}")),
        Domain::Enum(items) => {
            let i = (n.unsigned_abs() as usize) % items.len().max(1);
            Value::Enum(items.get(i).cloned().unwrap_or_default())
        }
        Domain::Point => Value::Point { x: n, y: n + 1 },
        Domain::Record(fields) => Value::Record(
            fields
                .iter()
                .map(|(name, d)| (name.clone(), synth(d, n)))
                .collect(),
        ),
        Domain::ListOf(inner) => Value::List(vec![synth(inner, n), synth(inner, n + 1)]),
        Domain::SetOf(inner) => Value::Set(vec![synth(inner, n)]),
        Domain::MatrixOf(inner) => {
            Value::Matrix(vec![vec![synth(inner, n)], vec![synth(inner, n + 1)]])
        }
        // A dangling reference may violate referential constraints but is
        // structurally valid for set_attr; keep it simple.
        Domain::Ref(_) => Value::Missing,
    }
}

/// Number of transmitter/inheritor pairs built per inheritance-relationship
/// type. Small, but enough for non-trivial hop/fan-out distributions.
const PAIRS_PER_REL: i64 = 4;

/// Resolution + adaptation workload over every type in the catalog.
fn core_workload(catalog: &Catalog) -> Result<(), CliError> {
    let mut store = ObjectStore::new(catalog.clone()).map_err(internal)?;

    // Plain objects of every (non-inline) type: local writes + local reads.
    for ty in catalog.object_type_names() {
        if ty.contains('.') {
            continue; // inline member types are created through their owners
        }
        let def = catalog.object_type(ty).map_err(internal)?;
        let attrs: Vec<(&str, Value)> = def
            .attributes
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.as_str(), synth(&a.domain, i as i64 + 1)))
            .collect();
        let s = store.create_object(ty, attrs).map_err(internal)?;
        for a in &def.attributes {
            let _ = store.attr(s, &a.name);
        }
    }

    // Inheritance: bind pairs, read through the binding, then mutate the
    // transmitter so adaptation propagates.
    for rel in catalog.inher_rel_type_names() {
        let def = catalog.inher_rel_type(rel).map_err(internal)?.clone();
        // Any type declaring `inheritor-in: rel` can be the inheritor.
        let Some(inh_ty) = catalog
            .object_type_names()
            .into_iter()
            .find(|t| {
                catalog
                    .object_type(t)
                    .map(|d| d.inheritor_in.iter().any(|r| r == rel))
                    .unwrap_or(false)
            })
            .map(str::to_string)
        else {
            continue;
        };
        for n in 0..PAIRS_PER_REL {
            let t = store
                .create_object(&def.transmitter_type, Vec::new())
                .map_err(internal)?;
            let i = store.create_object(&inh_ty, Vec::new()).map_err(internal)?;
            if store.bind(rel, t, i, Vec::new()).is_err() {
                continue; // e.g. abstract transmitters; skip, keep going
            }
            // Write the permeable attributes on the transmitter (adaptation
            // fan-out), then resolve them through the inheritor.
            let t_def = catalog
                .object_type(&def.transmitter_type)
                .map_err(internal)?
                .clone();
            for item in &def.inheriting {
                if let Some(a) = t_def.attributes.iter().find(|a| &a.name == item) {
                    let _ = store.set_attr(t, item, synth(&a.domain, n + 10));
                }
            }
            let eff = catalog.effective_schema(&inh_ty).map_err(internal)?;
            for (name, _, _) in &eff.attrs {
                let _ = store.attr(i, name);
                let _ = store.resolution_chain(i, name);
            }
            // Second pass answers from the resolution value cache (hits);
            // a permeable rewrite then stamps the items, so the closing pass
            // finds the memos stale (invalidations), re-walks and refills.
            for (name, _, _) in &eff.attrs {
                let _ = store.attr(i, name);
            }
            for item in &def.inheriting {
                if let Some(a) = t_def.attributes.iter().find(|a| &a.name == item) {
                    let _ = store.set_attr(t, item, synth(&a.domain, n + 20));
                }
            }
            for (name, _, _) in &eff.attrs {
                let _ = store.attr(i, name);
            }
        }
    }
    Ok(())
}

/// Multi-granularity locking with deliberate contention: uncontended
/// acquires, one wait that is granted, one wait that times out.
fn lock_workload() -> Result<(), CliError> {
    let lm = Arc::new(LockManager::with_timeout(Duration::from_millis(40)));

    // Uncontended acquires populate the latency histogram cheaply.
    for k in 0..32u64 {
        let txn = TxnId(k + 100);
        lm.acquire(txn, Resource::Object(Surrogate(k)), LockMode::X)
            .map_err(internal)?;
        lm.acquire(txn, Resource::Item(Surrogate(k), "A".into()), LockMode::X)
            .map_err(internal)?;
        lm.release_all(txn);
    }

    // A wait that is eventually granted: the holder releases mid-wait.
    let holder = TxnId(1);
    let res = Resource::Object(Surrogate(500));
    lm.acquire(holder, res.clone(), LockMode::X)
        .map_err(internal)?;
    let waiter = {
        let lm = Arc::clone(&lm);
        let res = res.clone();
        thread::spawn(move || lm.acquire(TxnId(2), res, LockMode::S))
    };
    thread::sleep(Duration::from_millis(10));
    lm.release_all(holder);
    waiter
        .join()
        .map_err(|_| internal("waiter thread panicked"))?
        .map_err(internal)?;
    lm.release_all(TxnId(2));

    // A wait that times out: nobody releases.
    lm.acquire(holder, res.clone(), LockMode::X)
        .map_err(internal)?;
    let _ = lm.acquire(TxnId(3), res, LockMode::S); // Err(Timeout) expected
    lm.release_all(holder);
    lm.release_all(TxnId(3));
    Ok(())
}

/// Durable-KV workload: commits, aborts, a checkpoint, then a simulated
/// crash (in-flight transaction at drop) and reopen, which runs recovery.
fn storage_workload() -> Result<(), CliError> {
    let dir = tempfile::tempdir().map_err(internal)?;
    {
        // A tiny pool (8 pages × 8 KiB) against ~96 KiB of records forces
        // evictions; ~1 KiB values keep the record count modest.
        let kv = DurableKv::open_with_pool_size(dir.path(), 8).map_err(internal)?;
        for k in 0..96u64 {
            let tx = kv.begin().map_err(internal)?;
            kv.put(
                tx,
                k,
                format!("value-{k:04}-{}", "x".repeat(1024)).as_bytes(),
            )
            .map_err(internal)?;
            if k % 8 == 7 {
                kv.abort(tx).map_err(internal)?;
            } else {
                kv.commit(tx).map_err(internal)?;
            }
        }
        for k in 0..96u64 {
            let _ = kv.get(k).map_err(internal)?;
        }
        kv.checkpoint().map_err(internal)?;
        // Post-checkpoint work left in the WAL: one committed transaction to
        // redo and one in-flight loser to undo at the next open.
        let tx = kv.begin().map_err(internal)?;
        kv.put(tx, 1000, b"redo-me").map_err(internal)?;
        kv.commit(tx).map_err(internal)?;
        let loser = kv.begin().map_err(internal)?;
        kv.put(loser, 1001, b"undo-me").map_err(internal)?;
        // Dropped without commit/abort: simulated crash.
    }
    let kv = DurableKv::open_with_pool_size(dir.path(), 8).map_err(internal)?;
    if kv.get(1000).map_err(internal)?.is_none() {
        return Err(internal("recovery lost a committed write"));
    }
    if kv.get(1001).map_err(internal)?.is_some() {
        return Err(internal("recovery kept a loser's write"));
    }
    Ok(())
}

/// Wire workload: an in-process server on an ephemeral port answers one
/// plain ping and one batched frame, so the `ccdb_server_*` series
/// (request counters, batch frame/sub-request/size series) move.
fn server_workload(catalog: &Catalog) -> Result<(), CliError> {
    use ccdb_core::shared::SharedStore;
    use ccdb_server::{Client, Server, ServerConfig};

    let store = SharedStore::new(catalog.clone()).map_err(internal)?;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, store).map_err(internal)?;
    let mut c = Client::connect(server.local_addr()).map_err(internal)?;
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(internal)?;
    c.ping().map_err(internal)?;
    let slots = c
        .batch(vec![
            ("ping", serde_json::Value::Object(vec![])),
            ("check_all", serde_json::Value::Object(vec![])),
        ])
        .map_err(internal)?;
    for slot in slots {
        slot.map_err(internal)?;
    }
    server.shutdown();
    Ok(())
}

/// `stats`: run the synthetic workload and render the metrics snapshot.
///
/// Text output is the quantile summary (`count`/`sum`/`p50`/`p95`/`p99`
/// per histogram, derived from the bucket counts) rather than raw bucket
/// dumps; JSON output carries the same quantile estimates alongside the
/// buckets for machine consumers.
pub fn cmd_stats(source: &str, json: bool) -> Result<String, CliError> {
    let catalog = load_catalog(source)?;
    let registry = ccdb_obs::global();
    registry.reset_all();
    core_workload(&catalog)?;
    lock_workload()?;
    storage_workload()?;
    server_workload(&catalog)?;
    // Trace-buffer health, mirrored into the registry so the snapshot
    // shows whether the sampled span buffer overflowed and how many
    // slow-op events fired (both process-lifetime values, not reset).
    registry
        .gauge("ccdb_obs_trace_dropped_spans")
        .set(ccdb_obs::trace::dropped_spans() as i64);
    registry
        .gauge("ccdb_obs_trace_slow_ops")
        .set(ccdb_obs::trace::slow_op_count() as i64);
    Ok(if json {
        registry.render_json()
    } else {
        registry.render_text_summary()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `cmd_stats` resets the process-global registry; serialize the tests
    /// so one run's reset cannot zero another's counters mid-workload.
    static SERIAL: Mutex<()> = Mutex::new(());

    const SCHEMA: &str = r#"
        obj-type If =
            attributes: Length: integer;
        end If;
        inher-rel-type AllOf_If =
            transmitter: object-of-type If;
            inheritor: object;
            inheriting: Length;
        end AllOf_If;
        obj-type Impl =
            inheritor-in: AllOf_If;
            attributes: Cost: integer;
        end Impl;
    "#;

    #[test]
    fn snapshot_contains_required_series() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let out = cmd_stats(SCHEMA, false).unwrap();
        for series in [
            "ccdb_core_resolution_local_reads_total",
            "ccdb_core_resolution_inherited_reads_total",
            "ccdb_core_resolution_hops",
            "ccdb_core_rescache_hits_total",
            "ccdb_core_rescache_misses_total",
            "ccdb_core_rescache_invalidations_total",
            "ccdb_core_rescache_shard_count",
            "ccdb_txn_lock_acquire_latency_ns",
            "ccdb_txn_lock_timeouts_total",
            "ccdb_storage_wal_appends_total",
            "ccdb_storage_wal_syncs_total",
            "ccdb_storage_buffer_hits_total",
            "ccdb_storage_buffer_misses_total",
            "ccdb_storage_buffer_evictions_total",
            "ccdb_server_requests_total",
            "ccdb_server_requests_batch_total",
            "ccdb_server_batch_frames_total",
            "ccdb_server_batch_subrequests_total",
            "ccdb_server_batch_size",
            "ccdb_obs_trace_dropped_spans",
            "ccdb_obs_trace_slow_ops",
        ] {
            assert!(out.contains(series), "missing {series} in:\n{out}");
        }
        // Histograms render as quantile summaries, never raw bucket dumps.
        assert!(
            out.contains("ccdb_txn_lock_acquire_latency_ns count="),
            "{out}"
        );
        assert!(out.contains(" p95="), "{out}");
        assert!(!out.contains("_bucket"), "{out}");
    }

    #[test]
    fn workload_moves_the_counters() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        // The workload is the assertion: non-zero values for the headline
        // counters prove instrumentation fires end to end. Note these are
        // process-global, so read them from the snapshot produced by the
        // same call (other tests run concurrently).
        let out = cmd_stats(SCHEMA, false).unwrap();
        let value = |name: &str| -> f64 {
            out.lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        assert!(
            value("ccdb_core_resolution_inherited_reads_total") >= 1.0,
            "{out}"
        );
        assert!(value("ccdb_core_rescache_hits_total") >= 1.0, "{out}");
        assert!(value("ccdb_core_rescache_misses_total") >= 1.0, "{out}");
        assert!(
            value("ccdb_core_rescache_invalidations_total") >= 1.0,
            "{out}"
        );
        assert!(value("ccdb_core_rescache_shard_count") >= 1.0, "{out}");
        assert!(value("ccdb_server_batch_frames_total") >= 1.0, "{out}");
        assert!(value("ccdb_server_batch_subrequests_total") >= 2.0, "{out}");
        assert!(value("ccdb_txn_lock_timeouts_total") >= 1.0, "{out}");
        assert!(value("ccdb_txn_lock_waits_total") >= 2.0, "{out}");
        assert!(value("ccdb_storage_wal_appends_total") >= 96.0, "{out}");
        assert!(value("ccdb_storage_buffer_evictions_total") >= 1.0, "{out}");
        assert!(value("ccdb_storage_recovery_replays_total") >= 1.0, "{out}");
    }

    #[test]
    fn json_snapshot_parses_and_has_histograms() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let out = cmd_stats(SCHEMA, true).unwrap();
        assert!(
            out.starts_with('{') && out.trim_end().ends_with('}'),
            "{out}"
        );
        assert!(out.contains("\"ccdb_core_resolution_hops\""), "{out}");
        assert!(
            out.contains("\"ccdb_storage_wal_sync_latency_ns\""),
            "{out}"
        );
    }
}
