//! Process-global metric handles for ccdb-core, registered in the
//! [`ccdb_obs::global`] registry under `ccdb_core_*` names.
//!
//! Per-[`crate::store::ObjectStore`] counters (the [`crate::store::StoreStats`]
//! view) stay per-instance so concurrent stores — e.g. parallel tests —
//! don't cross-talk; the handles here aggregate across all stores in the
//! process and feed the `ccdb stats` snapshot and bench sidecars.

use std::sync::{Arc, OnceLock};

use ccdb_obs::{metrics::HOP_BUCKETS, Counter, Gauge, Histogram};

pub(crate) struct CoreMetrics {
    /// `ccdb_core_resolution_local_reads_total`
    pub local_reads: Arc<Counter>,
    /// `ccdb_core_resolution_inherited_reads_total`
    pub inherited_reads: Arc<Counter>,
    /// `ccdb_core_resolution_hops_total`
    pub hops: Arc<Counter>,
    /// `ccdb_core_resolution_hops` — hops walked per top-level resolution.
    pub hop_hist: Arc<Histogram>,
    /// `ccdb_core_resolution_chains_total`
    pub resolution_chains: Arc<Counter>,
    /// `ccdb_core_store_set_attr_total`
    pub set_attr: Arc<Counter>,
    /// `ccdb_core_store_bind_total`
    pub bind: Arc<Counter>,
    /// `ccdb_core_store_unbind_total`
    pub unbind: Arc<Counter>,
    /// `ccdb_core_adaptation_events_total` — items newly raised on an
    /// adaptation flag (a raise that finds its item present counts nothing).
    pub adaptation_events: Arc<Counter>,
    /// `ccdb_core_adaptation_fanout` — relationship objects flagged per
    /// transmitter update that flagged at least one.
    pub adaptation_fanout: Arc<Histogram>,
    /// `ccdb_core_rescache_hits_total` — attr reads answered from the
    /// resolution value cache.
    pub rescache_hits: Arc<Counter>,
    /// `ccdb_core_rescache_misses_total` — attr reads that walked the chain
    /// and filled the cache.
    pub rescache_misses: Arc<Counter>,
    /// `ccdb_core_rescache_invalidations_total` — cache entries a read
    /// found stale (a dependency changed since the entry was resolved).
    pub rescache_invalidations: Arc<Counter>,
    /// `ccdb_core_rescache_shard_count` — stripes in the most recently
    /// constructed store's resolution cache.
    pub rescache_shard_count: Arc<Gauge>,
    /// `ccdb_core_snapshot_age_ms` — milliseconds since the most recent
    /// snapshot publication (refreshed on every snapshot pin and publish).
    pub snapshot_age_ms: Arc<Gauge>,
    /// `ccdb_core_snapshot_publish_ns` — time to build (COW-clone) and
    /// publish one store version.
    pub snapshot_publish_ns: Arc<Histogram>,
    /// `ccdb_core_snapshot_publishes_total` — versions published.
    pub snapshot_publishes: Arc<Counter>,
    /// `ccdb_core_snapshot_version` — most recently published version.
    pub snapshot_version: Arc<Gauge>,
    /// `ccdb_core_snapshot_rollbacks_total` — write cycles that panicked
    /// or failed and were rolled back to the last published version.
    pub snapshot_rollbacks: Arc<Counter>,
}

pub(crate) fn core_metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ccdb_obs::global();
        CoreMetrics {
            local_reads: r.counter("ccdb_core_resolution_local_reads_total"),
            inherited_reads: r.counter("ccdb_core_resolution_inherited_reads_total"),
            hops: r.counter("ccdb_core_resolution_hops_total"),
            hop_hist: r.histogram("ccdb_core_resolution_hops", HOP_BUCKETS),
            resolution_chains: r.counter("ccdb_core_resolution_chains_total"),
            set_attr: r.counter("ccdb_core_store_set_attr_total"),
            bind: r.counter("ccdb_core_store_bind_total"),
            unbind: r.counter("ccdb_core_store_unbind_total"),
            adaptation_events: r.counter("ccdb_core_adaptation_events_total"),
            adaptation_fanout: r.histogram("ccdb_core_adaptation_fanout", HOP_BUCKETS),
            rescache_hits: r.counter("ccdb_core_rescache_hits_total"),
            rescache_misses: r.counter("ccdb_core_rescache_misses_total"),
            rescache_invalidations: r.counter("ccdb_core_rescache_invalidations_total"),
            rescache_shard_count: r.gauge("ccdb_core_rescache_shard_count"),
            snapshot_age_ms: r.gauge("ccdb_core_snapshot_age_ms"),
            snapshot_publish_ns: r.histogram(
                "ccdb_core_snapshot_publish_ns",
                ccdb_obs::metrics::LATENCY_BUCKETS_NS,
            ),
            snapshot_publishes: r.counter("ccdb_core_snapshot_publishes_total"),
            snapshot_version: r.gauge("ccdb_core_snapshot_version"),
            snapshot_rollbacks: r.counter("ccdb_core_snapshot_rollbacks_total"),
        }
    })
}
