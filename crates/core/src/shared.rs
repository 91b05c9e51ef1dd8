//! A thread-safe, shareable MVCC front-end over [`ObjectStore`].
//!
//! The paper's value-inheritance model is read-dominated: every `attr()`
//! read walks the binding chain (§4), while writes are comparatively rare
//! transmitter updates. Earlier revisions shared one `Arc<RwLock<_>>`, so
//! every read still serialized on the lock word under load (E12). This
//! version removes the reader/writer lock from the read path entirely:
//!
//! - the store is **epoch-published**: [`SharedStore::snapshot`] pins the
//!   current immutable `Arc<ObjectStore>` with one (probed) read-lock of a
//!   pointer-sized cell — held for nanoseconds — and the reader then runs
//!   against that snapshot for as long as it likes, never blocking and
//!   never being blocked by writers;
//! - writers serialize on a **master copy** behind an exclusive lock,
//!   stamp the cycle with a fresh monotonic version, mutate, then publish
//!   `Arc::new(master.clone())` — an O(1) structural-sharing clone
//!   ([`crate::snapshot`]); the cycle's writes paid for unsharing only the
//!   paths they touched. Publish latency and snapshot age are recorded as
//!   `ccdb_core_snapshot_*` metrics;
//! - the resolution value cache is **shared across snapshots**; no write
//!   touches it, and each reader validates entries against its own
//!   snapshot ([`crate::rescache`]);
//! - a **panic inside a write closure — or an `Err` from a
//!   [`SharedStore::try_write`] closure — rolls the master back** to the
//!   last published version (cheap COW clone), clearing the resolution
//!   cache if the cycle mutated anything, so no torn write cycle is ever
//!   published; a panic then propagates to the caller while every other
//!   handle keeps full service.
//!
//! Visibility guarantee: `write` publishes before returning, and every
//! subsequent `read`/`snapshot` pins the newest published version — so a
//! thread always reads its own completed writes, and concurrent readers
//! see each write atomically (all of a cycle's mutations or none).
//!
//! [`SharedStore::par_select`] and [`SharedStore::par_check_all`] fan a
//! scan out over scoped threads sharing **one** pinned snapshot — the
//! multi-threaded read path measured by experiments E11/E17.

use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use parking_lot::RwLock;

use crate::error::CoreResult;
use crate::expr::Expr;
use crate::lockprobe;
use crate::metrics::core_metrics;
use crate::schema::Catalog;
use crate::store::{ObjectStore, Violation};
use crate::surrogate::Surrogate;
use crate::value::Value;

struct Shared {
    /// The published snapshot. Readers take the (probed) shared lock only
    /// long enough to clone the `Arc`; the writer's publish step takes the
    /// exclusive lock only long enough to swap the pointer. Shared-mode
    /// wait on this lock is therefore the MVCC "snapshot acquire" cost and
    /// stays ~0 under any load.
    published: RwLock<Arc<ObjectStore>>,
    /// The master copy writers mutate, serialized by its (probed,
    /// exclusive-only) lock.
    master: RwLock<ObjectStore>,
    /// Next write-cycle version. Monotonic and never reused — a rolled-back
    /// cycle burns its version.
    next_version: AtomicU64,
    /// Time origin for the snapshot-age gauge.
    created: Instant,
    /// Nanoseconds (since `created`) of the most recent publish.
    last_publish_ns: AtomicU64,
}

/// A cloneable handle to a store shared across threads. All clones see the
/// same store; dropping the last clone drops the store.
#[derive(Clone)]
pub struct SharedStore {
    inner: Arc<Shared>,
}

impl SharedStore {
    /// Create a shared store over a validated catalog.
    pub fn new(catalog: Catalog) -> CoreResult<Self> {
        Ok(SharedStore::from_store(ObjectStore::new(catalog)?))
    }

    /// Wrap an already-populated store. The store's current contents become
    /// version 0 (published immediately); the first write cycle is
    /// version 1.
    pub fn from_store(store: ObjectStore) -> Self {
        SharedStore {
            inner: Arc::new(Shared {
                published: RwLock::new(Arc::new(store.clone())),
                master: RwLock::new(store),
                next_version: AtomicU64::new(1),
                created: Instant::now(),
                last_publish_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Pin the currently-published snapshot. One probed shared-lock
    /// acquisition (mode `shared` in the `core.storelock` metrics/spans,
    /// charged to [`lockprobe::thread_snapshot_wait_ns`]) plus one `Arc`
    /// clone; the returned snapshot is immutable and valid for as long as
    /// the caller holds it, entirely outside any lock.
    pub fn snapshot(&self) -> Arc<ObjectStore> {
        let snap = Arc::clone(&lockprobe::probed_read(&self.inner.published));
        if ccdb_obs::enabled() {
            let now = ns_since(self.inner.created);
            let last = self.inner.last_publish_ns.load(Ordering::Relaxed);
            core_metrics()
                .snapshot_age_ms
                .set((now.saturating_sub(last) / 1_000_000) as i64);
        }
        snap
    }

    /// The version of the currently-published snapshot.
    pub fn published_version(&self) -> u64 {
        self.inner.published.read().version()
    }

    /// Run `f` against a pinned snapshot. Readers never block writers and
    /// are never blocked by them; the snapshot is immutable for the whole
    /// closure ([`SharedStore::snapshot`] semantics).
    pub fn read<R>(&self, f: impl FnOnce(&ObjectStore) -> R) -> R {
        f(&self.snapshot())
    }

    /// Run `f` as one exclusive write cycle: serialize on the master lock,
    /// stamp a fresh version, mutate, publish. Whatever `f` returns is
    /// published — use [`SharedStore::try_write`] for a cycle that must be
    /// all-or-nothing. A panic in `f` rolls the cycle back and propagates.
    pub fn write<R>(&self, f: impl FnOnce(&mut ObjectStore) -> R) -> R {
        match self.try_write(|st| Ok::<R, Infallible>(f(st))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// One exclusive write cycle that publishes only if `f` returns `Ok`.
    /// On `Err` — or a panic, which then propagates — the master is rolled
    /// back to the last published version, the resolution cache is cleared
    /// if the cycle mutated anything, and the cycle's version is burnt:
    /// nothing of a torn cycle is ever published.
    pub fn try_write<R, E>(
        &self,
        f: impl FnOnce(&mut ObjectStore) -> Result<R, E>,
    ) -> Result<R, E> {
        let mut guard = lockprobe::probed_write(&self.inner.master);
        let version = self.inner.next_version.fetch_add(1, Ordering::Relaxed);
        guard.set_version(version);
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut guard)));
        if let Ok(Ok(_)) = &outcome {
            let t0 = Instant::now();
            let snap = Arc::new(guard.clone());
            *self.inner.published.write() = snap;
            drop(guard);
            self.inner
                .last_publish_ns
                .store(ns_since(self.inner.created), Ordering::Relaxed);
            if ccdb_obs::enabled() {
                let m = core_metrics();
                m.snapshot_publish_ns
                    .observe(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                m.snapshot_publishes.inc();
                m.snapshot_version.set(version as i64);
                m.snapshot_age_ms.set(0);
            }
        } else {
            let last_good = Arc::clone(&self.inner.published.read());
            // The next cycle reuses the counter positions this one reached;
            // a cycle that mutated nothing left nothing to mistake.
            if guard.tick() != last_good.tick() {
                guard.clear_resolution_cache();
            }
            *guard = (*last_good).clone();
            core_metrics().snapshot_rollbacks.inc();
            drop(guard);
        }
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Recover the inner store if this is the last handle. Snapshots still
    /// pinned elsewhere keep their (structurally shared) versions alive but
    /// cannot observe the returned master.
    pub fn try_into_inner(self) -> Result<ObjectStore, SharedStore> {
        match Arc::try_unwrap(self.inner) {
            Ok(shared) => Ok(shared.master.into_inner()),
            Err(inner) => Err(SharedStore { inner }),
        }
    }

    /// Resolved attribute read against a pinned snapshot (cached reads cost
    /// one lookup; no store-wide lock is held while resolving).
    pub fn attr(&self, obj: Surrogate, name: &str) -> CoreResult<Value> {
        self.read(|st| st.attr(obj, name))
    }

    /// Local attribute write (one write cycle; cached resolutions of the
    /// inheritor closure see the new stamp when next read).
    pub fn set_attr(&self, obj: Surrogate, name: &str, value: Value) -> CoreResult<()> {
        self.write(|st| st.set_attr(obj, name, value))
    }

    /// Bind an inheritor to a transmitter (one write cycle).
    pub fn bind(
        &self,
        rel_type: &str,
        transmitter: Surrogate,
        inheritor: Surrogate,
        rel_attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        self.write(|st| st.bind(rel_type, transmitter, inheritor, rel_attrs))
    }

    /// Dissolve an inheritance binding (one write cycle).
    pub fn unbind(&self, rel_obj: Surrogate) -> CoreResult<()> {
        self.write(|st| st.unbind(rel_obj))
    }

    /// Parallel [`ObjectStore::select`]: evaluate `predicate` over all
    /// objects of `type_name` on up to `threads` scoped threads, all
    /// sharing **one** pinned snapshot — the scan is consistent by
    /// construction, writers proceed concurrently, and results are in
    /// surrogate order, identical to the sequential scan. Each thread runs
    /// `select`'s own row routine over its chunk of the extent.
    pub fn par_select(
        &self,
        type_name: &str,
        predicate: &Expr,
        threads: usize,
    ) -> CoreResult<Vec<Surrogate>> {
        let snap = self.snapshot();
        snap.catalog().object_type(type_name)?;
        let candidates = snap.extent_of(type_name);
        let chunks = partition(&candidates, threads);
        let hits = thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|part| {
                    let snap = &snap;
                    scope.spawn(move || snap.select_rows(type_name, part, predicate))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("select worker panicked"))
                .collect::<CoreResult<Vec<_>>>()
        })?;
        Ok(hits.into_iter().flatten().collect())
    }

    /// Parallel [`ObjectStore::check_all`]: constraint-check every object on
    /// up to `threads` scoped threads sharing one pinned snapshot.
    /// Violations come back in the same (surrogate) order as the sequential
    /// check.
    pub fn par_check_all(&self, threads: usize) -> CoreResult<Vec<Violation>> {
        let snap = self.snapshot();
        let surrogates: Vec<Surrogate> = snap.surrogates().collect();
        let chunks = partition(&surrogates, threads);
        let out = thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|part| {
                    let snap = &snap;
                    scope.spawn(move || -> CoreResult<Vec<Violation>> {
                        let mut out = Vec::new();
                        for s in part {
                            out.extend(snap.check_constraints(s)?);
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check worker panicked"))
                .collect::<CoreResult<Vec<_>>>()
        })?;
        Ok(out.into_iter().flatten().collect())
    }
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Split `items` into at most `threads` contiguous, order-preserving chunks.
fn partition(items: &[Surrogate], threads: usize) -> Vec<Vec<Surrogate>> {
    let threads = threads.max(1);
    if items.is_empty() {
        return vec![];
    }
    let chunk = items.len().div_ceil(threads);
    items.chunks(chunk).map(<[Surrogate]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::error::CoreError;
    use crate::expr::{BinOp, PathExpr};
    use crate::schema::{AttrDef, InherRelTypeDef, ObjectTypeDef};

    fn catalog() -> Catalog {
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
        c
    }

    fn populated(n: usize) -> (SharedStore, Surrogate, Vec<Surrogate>) {
        let mut st = ObjectStore::new(catalog()).unwrap();
        let interface = st.create_object("If", vec![("X", Value::Int(7))]).unwrap();
        let imps: Vec<Surrogate> = (0..n)
            .map(|k| {
                let i = st
                    .create_object("Impl", vec![("Local", Value::Int(k as i64))])
                    .unwrap();
                st.bind("AllOf_If", interface, i, vec![]).unwrap();
                i
            })
            .collect();
        (SharedStore::from_store(st), interface, imps)
    }

    fn local_lt(limit: i64) -> Expr {
        Expr::bin(
            BinOp::Lt,
            Expr::Path(PathExpr::self_path(&["Local"])),
            Expr::int(limit),
        )
    }

    #[test]
    fn par_select_matches_sequential() {
        let (shared, _, _) = populated(64);
        let pred = local_lt(20);
        let seq = shared.read(|st| st.select("Impl", &pred)).unwrap();
        for threads in [1, 2, 4, 8] {
            assert_eq!(shared.par_select("Impl", &pred, threads).unwrap(), seq);
        }
        assert_eq!(seq.len(), 20);
    }

    #[test]
    fn par_check_all_matches_sequential() {
        let (shared, _, _) = populated(16);
        let seq = shared.read(|st| st.check_all()).unwrap();
        for threads in [1, 3, 8] {
            assert_eq!(shared.par_check_all(threads).unwrap(), seq);
        }
    }

    #[test]
    fn concurrent_reads_see_writer_updates_instantly() {
        let (shared, interface, imps) = populated(8);
        // Warm the cache so readers start on the hit path.
        for &i in &imps {
            assert_eq!(shared.attr(i, "X").unwrap(), Value::Int(7));
        }
        thread::scope(|scope| {
            let writer = {
                let shared = shared.clone();
                scope.spawn(move || {
                    for v in 0..200 {
                        shared.set_attr(interface, "X", Value::Int(v)).unwrap();
                    }
                })
            };
            for &i in &imps[..4] {
                let shared = shared.clone();
                scope.spawn(move || {
                    for _ in 0..200 {
                        // Any interleaving must observe some written value.
                        match shared.attr(i, "X").unwrap() {
                            Value::Int(v) => assert!((0..200).contains(&v) || v == 7),
                            other => panic!("unexpected {other}"),
                        }
                    }
                });
            }
            writer.join().unwrap();
        });
        // After the writer finished, every inheritor resolves the final
        // value — each write published its version before returning, and a
        // fresh read pins the newest snapshot.
        for &i in &imps {
            assert_eq!(shared.attr(i, "X").unwrap(), Value::Int(199));
        }
    }

    #[test]
    fn panic_inside_write_does_not_poison_the_store() {
        let (shared, interface, imps) = populated(2);
        // A handler panics in the middle of a write cycle...
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.write(|_st| panic!("handler bug inside the write cycle"));
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        // ...and every other handle still gets full service: reads,
        // writes, and reads-after-writes all succeed.
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(7));
        shared.set_attr(interface, "X", Value::Int(42)).unwrap();
        assert_eq!(shared.attr(imps[1], "X").unwrap(), Value::Int(42));
        // Same for a panic on the (lock-free) read path.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.read(|_st| panic!("reader bug against a pinned snapshot"));
        }));
        assert!(result.is_err());
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(42));
    }

    #[test]
    fn panic_mid_write_publishes_nothing_from_the_torn_cycle() {
        let (shared, interface, imps) = populated(2);
        let before = shared.published_version();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.write(|st| {
                // First mutation lands, then the handler dies: neither may
                // become visible.
                st.set_attr(interface, "X", Value::Int(666)).unwrap();
                panic!("die after a partial mutation");
            });
        }));
        assert!(result.is_err());
        assert_eq!(shared.published_version(), before, "nothing published");
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(7));
        // The rolled-back master keeps serving writes with fresh versions.
        shared.set_attr(interface, "X", Value::Int(8)).unwrap();
        assert!(shared.published_version() > before);
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(8));
    }

    #[test]
    fn err_from_try_write_rolls_back_like_a_panic() {
        let (shared, interface, imps) = populated(2);
        let before = shared.published_version();
        let err = shared
            .try_write(|st| {
                // First mutation lands, the second fails: neither may
                // become visible.
                st.set_attr(interface, "X", Value::Int(666))?;
                st.set_attr(interface, "NoSuchAttr", Value::Int(1))
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::NoSuchAttribute { .. }), "{err}");
        assert_eq!(shared.published_version(), before, "nothing published");
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(7));
        // The cycle's version is burnt; the rolled-back master keeps
        // serving writes with fresh ones.
        shared.set_attr(interface, "X", Value::Int(8)).unwrap();
        assert!(shared.published_version() > before + 1);
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(8));
    }

    /// What a torn cycle resolved from its own state must not outlive it:
    /// the next cycle reuses its mutation counter positions. A cycle refused
    /// before it stamped anything keeps the cache.
    #[test]
    fn rollback_drops_what_the_torn_cycle_resolved() {
        let (shared, interface, imps) = populated(2);
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(7));
        let cached = shared.read(|st| st.resolution_cache_len());
        let refused = shared.try_write(|_| Err::<(), _>(CoreError::EvalError("refused".into())));
        assert!(refused.is_err());
        assert_eq!(shared.read(|st| st.resolution_cache_len()), cached);

        let torn = shared.try_write(|st| {
            st.set_attr(interface, "X", Value::Int(666))?;
            assert_eq!(st.attr(imps[0], "X")?, Value::Int(666));
            Err::<(), _>(CoreError::EvalError("torn".into()))
        });
        assert!(torn.is_err());
        // A write elsewhere reaches the torn cycle's counter position.
        shared.set_attr(imps[1], "Local", Value::Int(1)).unwrap();
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(7));
    }

    #[test]
    fn storelock_span_appears_in_traces() {
        use ccdb_obs::trace;
        let (shared, _, imps) = populated(1);
        trace::set_sample_rate(1.0);
        trace::set_tracing(true);
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(7));
        shared.write(|_st| {});
        trace::set_tracing(false);
        let spans = trace::snapshot_spans();
        let modes: Vec<&str> = spans
            .iter()
            .filter(|s| s.name == "core.storelock")
            .filter_map(|s| match s.field("mode") {
                Some(ccdb_obs::FieldValue::Str(m)) => Some(*m),
                _ => None,
            })
            .collect();
        assert!(
            modes.contains(&"shared"),
            "snapshot acquisition traced: {modes:?}"
        );
        assert!(
            modes.contains(&"exclusive"),
            "write acquisition traced: {modes:?}"
        );
    }

    #[test]
    fn pinned_snapshot_is_immutable_while_writes_proceed() {
        let (shared, interface, imps) = populated(2);
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(7));
        let pinned = shared.snapshot();
        let v0 = pinned.version();
        for v in 0..5 {
            shared
                .set_attr(interface, "X", Value::Int(100 + v))
                .unwrap();
        }
        // The pinned snapshot still resolves the old value (its rescache
        // view is version-gated), while fresh reads see the newest.
        assert_eq!(pinned.attr(imps[0], "X").unwrap(), Value::Int(7));
        assert_eq!(pinned.version(), v0);
        assert_eq!(shared.attr(imps[0], "X").unwrap(), Value::Int(104));
        assert!(shared.published_version() > v0);
    }

    #[test]
    fn try_into_inner_roundtrip() {
        let (shared, interface, _) = populated(2);
        let clone = shared.clone();
        assert!(clone.try_into_inner().is_err(), "two handles alive");
        let st = shared.try_into_inner().ok().expect("last handle unwraps");
        assert_eq!(st.attr(interface, "X").unwrap(), Value::Int(7));
    }
}
