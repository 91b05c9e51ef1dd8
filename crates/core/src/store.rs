//! The object store: objects, classes, complex objects, relationship
//! objects, and the **value-inheritance engine** (§4).
//!
//! Value inheritance is *resolved, not materialized*: reading an attribute
//! that reaches an object through an inheritance binding walks to the
//! transmitter (transitively, through interface hierarchies), so transmitter
//! updates are instantly visible in every inheritor and the data exists once
//! (§2: "a view to the component is granted to the composite object").
//! Inherited data is **read-only in the inheritor**; transmitter-side
//! updates raise the adaptation flag of every affected
//! inheritance-relationship object and append to the adaptation log — the
//! paper's consistency-control bookkeeping on the relationship. The store
//! keeps the flags in a set keyed by the relationship's surrogate, beside
//! the objects, so raising one never copies object storage.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ccdb_obs::{event, trace, Counter, Event, FieldValue};
use parking_lot::Mutex;

use crate::error::{CoreError, CoreResult};
use crate::expr::{eval, BinOp, Env, Expr, ObjectView, PathRoot, REL_VAR};
use crate::metrics::core_metrics;
use crate::object::{ObjectData, ObjectKind, Owner};
use crate::rescache::{ShardedResCache, DEFAULT_RESOLUTION_CACHE_SHARDS};
use crate::schema::{
    Catalog, Constraint, EffectiveSchema, ItemSource, ParticipantSpec, SubrelSpec,
};
use crate::snapshot::RadixMap;
use crate::surrogate::{Surrogate, SurrogateGen};
use crate::value::Value;

/// A named class: a set of objects of one type (§3; several classes may hold
/// objects of the same type).
#[derive(Clone, Debug)]
pub struct ClassDef {
    /// Object type of the members.
    pub type_name: String,
    /// Member surrogates in insertion order.
    pub members: Vec<Surrogate>,
}

/// A recorded transmitter-side update affecting an inheritance binding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdaptationEvent {
    /// The inheritance-relationship object whose flag was raised.
    pub rel_object: Surrogate,
    /// The transmitter that changed.
    pub transmitter: Surrogate,
    /// The inheritor that may need manual adaptation.
    pub inheritor: Surrogate,
    /// The permeable attribute or subclass that changed; shared by every
    /// event of one write.
    pub item: Arc<str>,
    /// Logical timestamp (store-wide monotonic counter).
    pub at: u64,
}

/// One inheritance relationship crossed by an inheritor-closure walk.
struct Crossing {
    rel: Surrogate,
    transmitter: Surrogate,
    inheritor: Surrogate,
}

/// Counters for the resolution experiments (E2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of attribute reads answered locally.
    pub local_reads: u64,
    /// Number of attribute reads that walked at least one inheritance hop.
    pub inherited_reads: u64,
    /// Total inheritance hops walked.
    pub hops: u64,
    /// Attribute reads answered from the resolution value cache.
    pub rescache_hits: u64,
    /// Attribute reads that walked the chain and filled the cache.
    pub rescache_misses: u64,
    /// Cache entries dropped by write-path invalidation.
    pub rescache_invalidations: u64,
}

/// Upper bound on inheritance hops walked by one resolution. `bind` refuses
/// to create object-level cycles, so a healthy store never comes close; the
/// cap turns a corrupt or hand-edited persisted store (loaded through a
/// side channel) into a clean [`CoreError::EvalError`] instead of a hang.
pub const MAX_RESOLUTION_DEPTH: u64 = 512;

/// A failed integrity constraint.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The object the constraint was checked on.
    pub object: Surrogate,
    /// Constraint label.
    pub constraint: String,
    /// Extra detail (e.g. an evaluation error).
    pub detail: Option<String>,
}

/// The in-memory object store. Persistence is provided by
/// [`crate::persist`]; concurrency control by `ccdb-txn` on top.
///
/// Every versioned collection is a persistent [`RadixMap`] keyed by
/// surrogate (or log timestamp), or an `Arc` unshared on write: cloning the
/// store is O(1) and shares every untouched object, index entry and log
/// event with the clone, which is what makes
/// [`crate::shared::SharedStore`]'s per-write snapshot publication cheap.
/// The schema memo, resolution value cache, and stats counters are
/// `Arc`-shared across clones (they are caches/telemetry over immutable
/// schema, not versioned data).
pub struct ObjectStore {
    catalog: Arc<Catalog>,
    /// Shared by every COW clone of this store ([`SurrogateGen`]).
    gen: SurrogateGen,
    /// Set only inside [`ObjectStore::create_as`]: the surrogate the next
    /// created object takes instead of a fresh one.
    replay_as: Option<Surrogate>,
    objects: RadixMap<Arc<ObjectData>>,
    classes: Arc<BTreeMap<String, ClassDef>>,
    /// transmitter → inheritance-relationship objects it feeds.
    inheritors_of: RadixMap<Vec<Surrogate>>,
    /// object → relationship objects having it as a participant.
    participant_in: RadixMap<Vec<Surrogate>>,
    /// Inheritance-relationship objects whose adaptation flag is raised.
    adaptation_flags: RadixMap<()>,
    /// Adaptation events keyed by their (unique, increasing) `at`.
    adaptation_log: RadixMap<AdaptationEvent>,
    clock: u64,
    /// MVCC version stamp: 0 for a standalone store; set by
    /// [`crate::shared::SharedStore`] to the (monotonic, never-reused)
    /// version a write cycle is building. Resolution-cache entries are
    /// stamped with it and snapshot readers only accept entries at or below
    /// their own version.
    version: u64,
    /// Per-object `attr → version` stamps of transactional-visible writes,
    /// consulted by commit-time write-write conflict detection
    /// ([`ObjectStore::write_stamp`]). Only maintained once the store is
    /// version-managed (`version > 0`).
    write_stamps: RadixMap<Arc<HashMap<String, u64>>>,
    /// Memoized effective schemas (the catalog is immutable once the store
    /// exists). Disable with [`ObjectStore::set_schema_cache`] for the E2
    /// ablation.
    eff_cache: Arc<Mutex<HashMap<String, Arc<EffectiveSchema>>>>,
    cache_enabled: Arc<AtomicBool>,
    /// Memoized [`ObjectStore::attr`] results, lock-striped by surrogate
    /// hash so concurrent hits on different objects never contend
    /// ([`crate::rescache`]). Invalidated *precisely* on writes — the
    /// written object's entries plus the transitive inheritor closure, the
    /// same walk that raises the adaptation flags — so
    /// transmitter updates stay instantly visible (§4 view semantics), and
    /// a sweep locks only the shards the closure maps to. Disable with
    /// [`ObjectStore::set_resolution_cache`] for the E11 ablation.
    res_cache: Arc<ShardedResCache>,
    /// Class-extent secondary index: type name → live surrogates of that
    /// exact type, in surrogate order. Maintained by
    /// [`ObjectStore::insert_object`] / [`ObjectStore::remove_object`], which
    /// wrap every insertion into and removal from `objects`, so `select`
    /// iterates one type's extent instead of the whole store.
    extent: Arc<HashMap<String, RadixMap<()>>>,
    /// Ablation switch for E1: when off, transmitter updates skip the
    /// adaptation-flag walk (losing the paper's notification semantics).
    adaptation_enabled: bool,
    // Per-instance resolution counters (the `StoreStats` view), Arc-shared
    // across COW clones so snapshot reads feed the same stats. Global
    // `ccdb_core_*` registry metrics are dual-written via `core_metrics()`.
    local_reads: Arc<Counter>,
    inherited_reads: Arc<Counter>,
    hops: Arc<Counter>,
    rescache_hits: Arc<Counter>,
    rescache_misses: Arc<Counter>,
    rescache_invalidations: Arc<Counter>,
}

impl Clone for ObjectStore {
    /// O(1) structural-sharing clone — the snapshot publication step. The
    /// clone shares the schema memo, the resolution value cache, and the
    /// stats counters with the original (they are caches over immutable
    /// schema / process telemetry, not versioned state); all object data is
    /// copy-on-write.
    fn clone(&self) -> Self {
        ObjectStore {
            catalog: Arc::clone(&self.catalog),
            gen: self.gen.clone(),
            replay_as: None,
            objects: self.objects.clone(),
            classes: Arc::clone(&self.classes),
            inheritors_of: self.inheritors_of.clone(),
            participant_in: self.participant_in.clone(),
            adaptation_flags: self.adaptation_flags.clone(),
            adaptation_log: self.adaptation_log.clone(),
            clock: self.clock,
            version: self.version,
            write_stamps: self.write_stamps.clone(),
            eff_cache: Arc::clone(&self.eff_cache),
            cache_enabled: Arc::clone(&self.cache_enabled),
            res_cache: Arc::clone(&self.res_cache),
            extent: Arc::clone(&self.extent),
            adaptation_enabled: self.adaptation_enabled,
            local_reads: Arc::clone(&self.local_reads),
            inherited_reads: Arc::clone(&self.inherited_reads),
            hops: Arc::clone(&self.hops),
            rescache_hits: Arc::clone(&self.rescache_hits),
            rescache_misses: Arc::clone(&self.rescache_misses),
            rescache_invalidations: Arc::clone(&self.rescache_invalidations),
        }
    }
}

impl ObjectStore {
    /// Create a store over a validated catalog, with the default
    /// resolution-cache shard count
    /// ([`DEFAULT_RESOLUTION_CACHE_SHARDS`]).
    pub fn new(catalog: Catalog) -> CoreResult<Self> {
        Self::with_resolution_cache_shards(catalog, DEFAULT_RESOLUTION_CACHE_SHARDS)
    }

    /// Create a store whose resolution value cache is striped over
    /// `shards` locks (clamped to ≥ 1 and rounded up to a power of two).
    /// Shard count is a pure performance knob — the E13 sweep compares
    /// counts, and the shadow-store property test runs at 1/4/16 to show
    /// resolution semantics are identical at every count.
    pub fn with_resolution_cache_shards(catalog: Catalog, shards: usize) -> CoreResult<Self> {
        catalog.validate()?;
        let res_cache = Arc::new(ShardedResCache::new(shards));
        core_metrics()
            .rescache_shard_count
            .set(res_cache.shard_count() as i64);
        Ok(ObjectStore {
            catalog: Arc::new(catalog),
            gen: SurrogateGen::new(),
            replay_as: None,
            objects: RadixMap::new(),
            classes: Arc::default(),
            inheritors_of: RadixMap::new(),
            participant_in: RadixMap::new(),
            adaptation_flags: RadixMap::new(),
            adaptation_log: RadixMap::new(),
            clock: 0,
            version: 0,
            write_stamps: RadixMap::new(),
            eff_cache: Arc::new(Mutex::new(HashMap::new())),
            cache_enabled: Arc::new(AtomicBool::new(true)),
            res_cache,
            extent: Arc::default(),
            adaptation_enabled: true,
            local_reads: Arc::new(Counter::new()),
            inherited_reads: Arc::new(Counter::new()),
            hops: Arc::new(Counter::new()),
            rescache_hits: Arc::new(Counter::new()),
            rescache_misses: Arc::new(Counter::new()),
            rescache_invalidations: Arc::new(Counter::new()),
        })
    }

    /// The catalog this store was created with.
    pub fn catalog(&self) -> &Catalog {
        self.catalog.as_ref()
    }

    /// The MVCC version this store instance represents: 0 for a standalone
    /// store, otherwise the version stamp assigned by
    /// [`crate::shared::SharedStore`] (monotonic, never reused — an aborted
    /// write cycle burns its version).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamp the version the next mutations belong to. Called by
    /// [`crate::shared::SharedStore`] at the start of every write cycle,
    /// before any mutation runs.
    pub fn set_version(&mut self, v: u64) {
        self.version = v;
    }

    /// The version of the last version-managed write to `attr` of `obj`
    /// (0 = never written under version management). Commit-time
    /// write-write conflict detection compares this against a
    /// transaction's begin version (first committer wins).
    pub fn write_stamp(&self, obj: Surrogate, attr: &str) -> u64 {
        self.write_stamps
            .get(obj.0)
            .and_then(|m| m.get(attr))
            .copied()
            .unwrap_or(0)
    }

    /// The newest [`ObjectStore::write_stamp`] over all items of `obj`: what
    /// a whole-object write (a cascade delete) is validated against.
    pub fn object_stamp(&self, obj: Surrogate) -> u64 {
        let stamps = self.write_stamps.get(obj.0);
        stamps.and_then(|m| m.values().copied().max()).unwrap_or(0)
    }

    /// Enable/disable the effective-schema memo (ablation for experiment E2).
    pub fn set_schema_cache(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.eff_cache.lock().clear();
        }
    }

    /// Enable/disable the resolution value cache (ablation for experiment
    /// E11). Disabling clears it *atomically with respect to concurrent
    /// fills* — the fill path re-checks the flag under the shard write
    /// lock, so once this returns no stale entry is readable and none can
    /// reappear ([`crate::rescache::ShardedResCache::set_enabled`]).
    /// Re-enabling starts cold. Correctness is unaffected either way —
    /// with the cache off every read walks the binding chain, exactly the
    /// paper's resolved-not-materialized model.
    pub fn set_resolution_cache(&self, enabled: bool) {
        self.res_cache.set_enabled(enabled);
    }

    /// Is the resolution value cache currently enabled?
    pub fn resolution_cache_enabled(&self) -> bool {
        self.res_cache.enabled()
    }

    /// Number of memoized resolution entries (tests/diagnostics). Sums
    /// per-shard snapshots one lock at a time, so heavy read traffic on
    /// the other shards is never stalled behind the sum.
    pub fn resolution_cache_len(&self) -> usize {
        self.res_cache.len()
    }

    /// Number of stripes in the resolution value cache (a power of two).
    pub fn resolution_cache_shards(&self) -> usize {
        self.res_cache.shard_count()
    }

    /// Which cache stripe `s` maps to (tests/diagnostics — lets a test
    /// pick inheritors that provably live in different shards).
    pub fn resolution_cache_shard_of(&self, s: Surrogate) -> usize {
        self.res_cache.shard_of(s)
    }

    /// Drop every memoized resolution (watermarks survive). Used by the
    /// MVCC rollback path: fills stamped with an aborted write-cycle
    /// version must not outlive the rollback.
    pub(crate) fn clear_resolution_cache(&self) {
        self.res_cache.clear();
    }

    /// Replace this store's resolution value cache with a private, empty
    /// one. A COW clone shares the cache with its origin by default —
    /// transaction workspaces call this so speculative fills and
    /// invalidations from uncommitted writes never touch the published
    /// store's shared cache.
    pub fn detach_resolution_cache(&mut self) {
        self.res_cache = Arc::new(ShardedResCache::new(8));
    }

    /// The inheritor closure of `root`, walked once: every object reached
    /// by following inheritance relationships from `root` — only those
    /// permeable for `item`, or all of them for `None` — starting with
    /// `root`, plus each relationship crossed, in walk order. A transmitter
    /// update feeds both the resolution-cache sweep and the adaptation
    /// flags from this one walk, so the two can never disagree about which
    /// inheritors a write reaches.
    fn inheritor_closure(
        &self,
        root: Surrogate,
        item: Option<&str>,
    ) -> (Vec<Surrogate>, Vec<Crossing>) {
        let mut closure = Vec::new();
        let mut crossings = Vec::new();
        let mut frontier = vec![root];
        let mut seen = HashSet::new();
        while let Some(t) = frontier.pop() {
            if !seen.insert(t) {
                continue;
            }
            closure.push(t);
            for &rel in self.inheritance_rels_of(t) {
                let Some(o) = self.objects.get(rel.0) else {
                    continue;
                };
                if let Some(name) = item {
                    if !self.catalog.is_permeable(&o.type_name, name) {
                        continue;
                    }
                }
                if let Some(inheritor) = o.inheritor() {
                    crossings.push(Crossing {
                        rel,
                        transmitter: t,
                        inheritor,
                    });
                    // The inheritor may re-transmit the same item further.
                    frontier.push(inheritor);
                }
            }
        }
        (closure, crossings)
    }

    /// Drop every memoized resolution of `root` and of every object that
    /// (transitively) inherits through it, following every binding: what
    /// bind/unbind/delete need, since they change which chain an object
    /// resolves through.
    fn invalidate_resolution(&self, root: Surrogate) {
        if self.res_cache.enabled() {
            let (mut closure, _) = self.inheritor_closure(root, None);
            self.sweep_resolution(root, &mut closure, None);
        }
    }

    /// Drop the memoized resolutions of `closure` (all entries for
    /// `item: None`, that attribute's only for `Some`), locking only the
    /// shards the closure maps to, each exactly once.
    fn sweep_resolution(&self, root: Surrogate, closure: &mut [Surrogate], item: Option<&str>) {
        // No shortcut for an empty cache: the sweep is also what raises the
        // shard watermarks, and a fill from an older snapshot may land
        // *after* this write found nothing to drop.
        if !self.res_cache.enabled() {
            return;
        }
        let mut tspan = trace::span("core.rescache.invalidate");
        if let Some(s) = &mut tspan {
            s.u64("root", root.0);
            match item {
                Some(name) => s.field("item", FieldValue::Owned(name.to_string())),
                None => s.str("item", "*"),
            }
        }
        let (removed, shards_locked) = self.res_cache.invalidate(closure, item, self.version);
        if let Some(s) = &mut tspan {
            s.u64("swept", closure.len() as u64);
            s.u64("removed", removed);
            s.u64("shards", shards_locked);
        }
        core_metrics().rescache_shard_sweeps.add(shards_locked);
        if removed > 0 {
            self.rescache_invalidations.add(removed);
            core_metrics().rescache_invalidations.add(removed);
        }
    }

    /// Effective schema of a type, memoized.
    fn effective(&self, type_name: &str) -> CoreResult<Arc<EffectiveSchema>> {
        if self.cache_enabled.load(Ordering::Relaxed) {
            if let Some(e) = self.eff_cache.lock().get(type_name) {
                return Ok(Arc::clone(e));
            }
        }
        let eff = Arc::new(self.catalog.effective_schema(type_name)?);
        if self.cache_enabled.load(Ordering::Relaxed) {
            self.eff_cache
                .lock()
                .insert(type_name.to_string(), Arc::clone(&eff));
        }
        Ok(eff)
    }

    /// Snapshot the resolution counters (this store only; the process-wide
    /// aggregates live in the `ccdb-obs` global registry).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            local_reads: self.local_reads.get(),
            inherited_reads: self.inherited_reads.get(),
            hops: self.hops.get(),
            rescache_hits: self.rescache_hits.get(),
            rescache_misses: self.rescache_misses.get(),
            rescache_invalidations: self.rescache_invalidations.get(),
        }
    }

    /// Reset the resolution counters (this store only; the global registry
    /// is untouched).
    pub fn reset_stats(&self) {
        self.local_reads.reset();
        self.inherited_reads.reset();
        self.hops.reset();
        self.rescache_hits.reset();
        self.rescache_misses.reset();
        self.rescache_invalidations.reset();
    }

    /// Number of live objects (of all kinds).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Raw object access.
    pub fn object(&self, s: Surrogate) -> CoreResult<&ObjectData> {
        self.objects
            .get(s.0)
            .map(|o| &**o)
            .ok_or(CoreError::NoSuchObject(s))
    }

    /// Mutable object access; copies the object only if an older version
    /// still shares it.
    fn object_mut(&mut self, s: Surrogate) -> CoreResult<&mut ObjectData> {
        self.objects
            .get_mut(s.0)
            .map(Arc::make_mut)
            .ok_or(CoreError::NoSuchObject(s))
    }

    /// All live surrogates, in surrogate order.
    pub fn surrogates(&self) -> impl Iterator<Item = Surrogate> + '_ {
        self.objects.keys().map(Surrogate)
    }

    // ------------------------------------------------------------------
    // Classes
    // ------------------------------------------------------------------

    /// Create a named class for objects of `type_name`.
    pub fn create_class(&mut self, name: &str, type_name: &str) -> CoreResult<()> {
        self.catalog.object_type(type_name)?;
        if self.classes.contains_key(name) {
            return Err(CoreError::Duplicate {
                kind: "class",
                name: name.into(),
            });
        }
        Arc::make_mut(&mut self.classes).insert(
            name.to_string(),
            ClassDef {
                type_name: type_name.into(),
                members: vec![],
            },
        );
        Ok(())
    }

    /// Members of a named class.
    pub fn class_members(&self, name: &str) -> CoreResult<&[Surrogate]> {
        self.classes
            .get(name)
            .map(|c| c.members.as_slice())
            .ok_or_else(|| CoreError::Unknown {
                kind: "class",
                name: name.into(),
            })
    }

    /// Names of the classes `obj` is a member of (sorted by class name).
    pub fn classes_of(&self, obj: Surrogate) -> Vec<&str> {
        self.classes
            .iter()
            .filter(|(_, def)| def.members.contains(&obj))
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Add an existing top-level object to a class of matching type.
    pub fn add_to_class(&mut self, class: &str, obj: Surrogate) -> CoreResult<()> {
        let ty = self.object(obj)?.type_name.clone();
        let c = Arc::make_mut(&mut self.classes)
            .get_mut(class)
            .ok_or_else(|| CoreError::Unknown {
                kind: "class",
                name: class.into(),
            })?;
        if c.type_name != ty {
            return Err(CoreError::TypeMismatch {
                expected: c.type_name.clone(),
                got: ty,
                role: format!("member of class `{class}`"),
            });
        }
        if !c.members.contains(&obj) {
            c.members.push(obj);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Object creation
    // ------------------------------------------------------------------

    /// Surrogate for the object being created: fresh from the shared
    /// generator, unless a transaction replay pinned one.
    fn issue(&mut self) -> Surrogate {
        self.replay_as.take().unwrap_or_else(|| self.gen.issue())
    }

    /// Draw a fresh surrogate without creating anything yet, for a later
    /// [`ObjectStore::create_as`]. The generator is shared by all COW clones
    /// of this store, so the surrogate is unused in every one of them.
    pub fn reserve_surrogate(&self) -> Surrogate {
        self.gen.issue()
    }

    /// Run `create` — one `create_*` or `bind` call — so that the object it
    /// creates gets the reserved surrogate `s` instead of a fresh one. This
    /// is how a transaction logs a create once and applies it twice, to its
    /// workspace and at commit to the master, under one surrogate.
    /// A surrogate that is already live is refused, not overwritten.
    pub fn create_as(
        &mut self,
        s: Surrogate,
        create: impl FnOnce(&mut Self) -> CoreResult<Surrogate>,
    ) -> CoreResult<()> {
        if self.objects.contains_key(s.0) {
            return Err(CoreError::Duplicate {
                kind: "surrogate",
                name: s.to_string(),
            });
        }
        self.replay_as = Some(s);
        let made = create(self);
        self.replay_as = None;
        made.map(|made| debug_assert_eq!(made, s))
    }

    /// The one way objects enter `self.objects`: inserts the object and
    /// records it in its type's extent index, so the two can never
    /// disagree ([`ObjectStore::verify_integrity`] cross-checks them).
    fn insert_object(&mut self, obj: ObjectData) {
        let extent = Arc::make_mut(&mut self.extent);
        match extent.get_mut(&obj.type_name) {
            Some(members) => members.insert(obj.surrogate.0, ()),
            None => extent
                .entry(obj.type_name.clone())
                .or_default()
                .insert(obj.surrogate.0, ()),
        };
        self.objects.insert(obj.surrogate.0, Arc::new(obj));
    }

    /// The one way objects leave `self.objects`: removes the object, drops
    /// it from its type's extent index and drops its adaptation flag.
    fn remove_object(&mut self, s: Surrogate) {
        let Some(obj) = self.objects.remove(s.0) else {
            return;
        };
        let extent = Arc::make_mut(&mut self.extent);
        if let Some(members) = extent.get_mut(&obj.type_name) {
            members.remove(s.0);
            if members.is_empty() {
                extent.remove(&obj.type_name);
            }
        }
        self.adaptation_flags.remove(s.0);
    }

    /// Live surrogates of exactly `type_name` (the class-extent index),
    /// in surrogate order. Empty if the type has no live objects.
    pub fn extent_of(&self, type_name: &str) -> Vec<Surrogate> {
        self.extent
            .get(type_name)
            .map(|m| m.keys().map(Surrogate).collect())
            .unwrap_or_default()
    }

    /// Create a top-level object of `type_name` with initial local
    /// attribute values.
    pub fn create_object(
        &mut self,
        type_name: &str,
        attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        self.catalog.object_type(type_name)?;
        let s = self.issue();
        let obj = ObjectData::plain(s, type_name);
        self.insert_object(obj);
        for (name, value) in attrs {
            self.set_attr(s, name, value)?;
        }
        Ok(s)
    }

    /// Create an object directly into a named class.
    pub fn create_in_class(
        &mut self,
        class: &str,
        attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        let ty = self
            .classes
            .get(class)
            .map(|c| c.type_name.clone())
            .ok_or_else(|| CoreError::Unknown {
                kind: "class",
                name: class.into(),
            })?;
        let s = self.create_object(&ty, attrs)?;
        self.add_to_class(class, s)?;
        Ok(s)
    }

    /// Create a subobject in a **local** subclass of `parent`. Members of
    /// inherited subclasses belong to the transmitter and cannot be created
    /// here (read-only view).
    pub fn create_subobject(
        &mut self,
        parent: Surrogate,
        subclass: &str,
        attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        let parent_ty = self.object(parent)?.type_name.clone();
        let spec = self
            .local_subclass_spec(&parent_ty, subclass)
            .map(|s| s.element_type.clone());
        let elem_ty = match spec {
            Some(t) => t,
            None => {
                // Is it inherited? Then it is read-only in this object.
                let eff = self.effective(&parent_ty).ok();
                if eff.as_ref().and_then(|e| e.subclass(subclass)).is_some() {
                    return Err(CoreError::InheritedReadOnly {
                        object: parent,
                        attr: subclass.into(),
                    });
                }
                return Err(CoreError::NoSuchSubclass {
                    object: parent,
                    subclass: subclass.into(),
                });
            }
        };
        let s = self.issue();
        let mut obj = ObjectData::plain(s, &elem_ty);
        obj.owner = Some(Owner {
            parent,
            subclass: subclass.to_string(),
        });
        self.insert_object(obj);
        self.object_mut(parent)?
            .subclasses
            .entry(subclass.to_string())
            .or_default()
            .push(s);
        for (name, value) in attrs {
            self.set_attr(s, name, value)?;
        }
        Ok(s)
    }

    /// Create a top-level relationship object.
    pub fn create_rel(
        &mut self,
        rel_type: &str,
        participants: Vec<(&str, Vec<Surrogate>)>,
        attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        let specs = self.catalog.rel_type(rel_type)?.participants.clone();
        let mut map = BTreeMap::new();
        for (role, members) in &participants {
            map.insert(role.to_string(), members.clone());
        }
        self.check_participants(rel_type, &specs, &map)?;
        let s = self.issue();
        let obj = ObjectData::relationship(s, rel_type, map.clone());
        self.insert_object(obj);
        for members in map.values() {
            for m in members {
                self.participant_in.entry_or_default(m.0).push(s);
            }
        }
        for (name, value) in attrs {
            self.set_attr(s, name, value)?;
        }
        Ok(s)
    }

    /// Create a relationship object inside a local subrel class of `parent`
    /// (e.g. a `Wires` member of a `Gate`).
    pub fn create_subrel(
        &mut self,
        parent: Surrogate,
        subrel: &str,
        participants: Vec<(&str, Vec<Surrogate>)>,
        attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        let parent_ty = self.object(parent)?.type_name.clone();
        let spec = self
            .local_subrel_spec(&parent_ty, subrel)
            .ok_or_else(|| CoreError::NoSuchSubclass {
                object: parent,
                subclass: subrel.into(),
            })?
            .clone();
        let s = self.create_rel(&spec.rel_type, participants, attrs)?;
        self.object_mut(s)?.owner = Some(Owner {
            parent,
            subclass: subrel.to_string(),
        });
        self.object_mut(parent)?
            .subclasses
            .entry(subrel.to_string())
            .or_default()
            .push(s);
        Ok(s)
    }

    /// Create a subobject in a local subclass of a **relationship** object
    /// (§5: `ScrewingType` embeds `Bolt` and `Nut` subclasses).
    pub fn create_rel_subobject(
        &mut self,
        rel_obj: Surrogate,
        subclass: &str,
        attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        let rel_ty = self.object(rel_obj)?.type_name.clone();
        let def = self.catalog.rel_type(&rel_ty)?;
        let elem_ty = def
            .subclasses
            .iter()
            .find(|sc| sc.name == subclass)
            .map(|sc| sc.element_type.clone())
            .ok_or_else(|| CoreError::NoSuchSubclass {
                object: rel_obj,
                subclass: subclass.into(),
            })?;
        let s = self.issue();
        let mut obj = ObjectData::plain(s, &elem_ty);
        obj.owner = Some(Owner {
            parent: rel_obj,
            subclass: subclass.to_string(),
        });
        self.insert_object(obj);
        self.object_mut(rel_obj)?
            .subclasses
            .entry(subclass.to_string())
            .or_default()
            .push(s);
        for (name, value) in attrs {
            self.set_attr(s, name, value)?;
        }
        Ok(s)
    }

    fn check_participants(
        &self,
        rel_type: &str,
        specs: &[ParticipantSpec],
        provided: &BTreeMap<String, Vec<Surrogate>>,
    ) -> CoreResult<()> {
        for spec in specs {
            let members = provided.get(&spec.name).map(Vec::as_slice).unwrap_or(&[]);
            if !spec.many && members.len() != 1 {
                return Err(CoreError::InvalidSchema {
                    type_name: rel_type.into(),
                    reason: format!(
                        "participant `{}` needs exactly one object, got {}",
                        spec.name,
                        members.len()
                    ),
                });
            }
            if let Some(required) = &spec.required_type {
                for m in members {
                    let got = &self.object(*m)?.type_name;
                    if got != required {
                        return Err(CoreError::TypeMismatch {
                            expected: required.clone(),
                            got: got.clone(),
                            role: format!("participant `{}` of `{rel_type}`", spec.name),
                        });
                    }
                }
            } else {
                for m in members {
                    self.object(*m)?;
                }
            }
        }
        for role in provided.keys() {
            if !specs.iter().any(|s| &s.name == role) {
                return Err(CoreError::InvalidSchema {
                    type_name: rel_type.into(),
                    reason: format!("unknown participant role `{role}`"),
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Inheritance bindings
    // ------------------------------------------------------------------

    /// Bind `inheritor` to `transmitter` through inheritance-relationship
    /// type `rel_type`, creating the relationship object (returned).
    pub fn bind(
        &mut self,
        rel_type: &str,
        transmitter: Surrogate,
        inheritor: Surrogate,
        rel_attrs: Vec<(&str, Value)>,
    ) -> CoreResult<Surrogate> {
        let mut tspan = trace::span("core.bind");
        if let Some(s) = &mut tspan {
            s.field("rel_type", FieldValue::Owned(rel_type.to_string()));
            s.u64("transmitter", transmitter.0);
            s.u64("inheritor", inheritor.0);
        }
        let def = self.catalog.inher_rel_type(rel_type)?.clone();
        let trans_ty = self.object(transmitter)?.type_name.clone();
        if trans_ty != def.transmitter_type {
            return Err(CoreError::TypeMismatch {
                expected: def.transmitter_type.clone(),
                got: trans_ty,
                role: format!("transmitter of `{rel_type}`"),
            });
        }
        // The declared `inheritor:` type is the *canonical* inheritor; any
        // type that explicitly states `inheritor-in:` may bind (the paper's
        // §5 WeightCarrying_Structure embeds anonymous Girders/Plates member
        // types as further inheritors of AllOf_GirderIf/AllOf_PlateIf).
        let inh_ty = self.object(inheritor)?.type_name.clone();
        let inh_def = self.catalog.object_type(&inh_ty)?;
        if !inh_def.inheritor_in.iter().any(|r| r == rel_type) {
            return Err(CoreError::NotAnInheritor {
                type_name: inh_ty,
                rel_type: rel_type.into(),
            });
        }
        if self.object(inheritor)?.bindings.contains_key(rel_type) {
            return Err(CoreError::AlreadyBound {
                object: inheritor,
                rel_type: rel_type.into(),
            });
        }
        // Object-level cycle check: does `transmitter` (transitively)
        // inherit from `inheritor`?
        if transmitter == inheritor || self.transitively_inherits_from(transmitter, inheritor)? {
            return Err(CoreError::InheritanceCycle { object: inheritor });
        }
        // Validate the relationship attributes *before* mutating anything:
        // an invalid attribute must not leave a half-created binding behind.
        for (name, value) in &rel_attrs {
            let Some(a) = def.attributes.iter().find(|a| a.name.as_str() == *name) else {
                return Err(CoreError::NoSuchAttribute {
                    object: inheritor,
                    attr: (*name).into(),
                });
            };
            if !value.conforms_to(&a.domain) {
                return Err(CoreError::DomainMismatch {
                    attr: (*name).into(),
                    expected: a.domain.describe(),
                    got: format!("{value}"),
                });
            }
        }
        let s = self.issue();
        let obj = ObjectData::inheritance(s, rel_type, transmitter, inheritor);
        self.insert_object(obj);
        self.object_mut(inheritor)?
            .bindings
            .insert(rel_type.to_string(), s);
        self.inheritors_of.entry_or_default(transmitter.0).push(s);
        for (name, value) in rel_attrs {
            self.set_attr(s, name, value)?;
        }
        // The inheritor (and anything inheriting through it) now resolves
        // through the new binding.
        self.invalidate_resolution(inheritor);
        core_metrics().bind.inc();
        event::emit(|| {
            Event::now(
                "core.bind",
                vec![
                    ("rel", FieldValue::U64(s.0)),
                    ("transmitter", FieldValue::U64(transmitter.0)),
                    ("inheritor", FieldValue::U64(inheritor.0)),
                ],
            )
        });
        Ok(s)
    }

    /// Remove an inheritance binding given its relationship object.
    pub fn unbind(&mut self, rel_obj: Surrogate) -> CoreResult<()> {
        let mut tspan = trace::span("core.unbind");
        if let Some(s) = &mut tspan {
            s.u64("rel_obj", rel_obj.0);
        }
        let (transmitter, inheritor, rel_ty) = {
            let o = self.object(rel_obj)?;
            match &o.kind {
                ObjectKind::InheritanceRel {
                    transmitter,
                    inheritor,
                } => (*transmitter, *inheritor, o.type_name.clone()),
                _ => {
                    return Err(CoreError::TypeMismatch {
                        expected: "inheritance relationship".into(),
                        got: o.type_name.clone(),
                        role: "unbind target".into(),
                    })
                }
            }
        };
        if let Some(list) = self.inheritors_of.get_mut(transmitter.0) {
            list.retain(|r| *r != rel_obj);
            if list.is_empty() {
                self.inheritors_of.remove(transmitter.0);
            }
        }
        if let Ok(inh) = self.object_mut(inheritor) {
            inh.bindings.remove(&rel_ty);
        }
        self.remove_object(rel_obj);
        // The inheritor (and its transitive inheritors) lost a resolution
        // path; the relationship object's own attrs are gone too.
        self.invalidate_resolution(inheritor);
        self.invalidate_resolution(rel_obj);
        core_metrics().unbind.inc();
        event::emit(|| {
            Event::now(
                "core.unbind",
                vec![
                    ("rel", FieldValue::U64(rel_obj.0)),
                    ("transmitter", FieldValue::U64(transmitter.0)),
                    ("inheritor", FieldValue::U64(inheritor.0)),
                ],
            )
        });
        Ok(())
    }

    fn transitively_inherits_from(&self, from: Surrogate, target: Surrogate) -> CoreResult<bool> {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            let obj = self.object(cur)?;
            for rel in obj.bindings.values() {
                if let Some(t) = self.object(*rel)?.transmitter() {
                    if t == target {
                        return Ok(true);
                    }
                    stack.push(t);
                }
            }
        }
        Ok(false)
    }

    /// The inheritance-relationship objects fed by `transmitter`.
    pub fn inheritance_rels_of(&self, transmitter: Surrogate) -> &[Surrogate] {
        self.inheritors_of
            .get(transmitter.0)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The relationship objects in which `obj` participates (any role).
    pub fn relationships_of(&self, obj: Surrogate) -> &[Surrogate] {
        self.participant_in
            .get(obj.0)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The binding relationship object of `inheritor` in `rel_type`, if any.
    pub fn binding_of(&self, inheritor: Surrogate, rel_type: &str) -> Option<Surrogate> {
        self.objects
            .get(inheritor.0)
            .and_then(|o| o.bindings.get(rel_type))
            .copied()
    }

    // ------------------------------------------------------------------
    // Attribute access (value inheritance lives here)
    // ------------------------------------------------------------------

    fn local_attr_domain(&self, type_name: &str, attr: &str) -> Option<crate::domain::Domain> {
        if let Ok(def) = self.catalog.object_type(type_name) {
            return def
                .attributes
                .iter()
                .find(|a| a.name == attr)
                .map(|a| a.domain.clone());
        }
        if let Ok(def) = self.catalog.rel_type(type_name) {
            return def
                .attributes
                .iter()
                .find(|a| a.name == attr)
                .map(|a| a.domain.clone());
        }
        if let Ok(def) = self.catalog.inher_rel_type(type_name) {
            return def
                .attributes
                .iter()
                .find(|a| a.name == attr)
                .map(|a| a.domain.clone());
        }
        None
    }

    fn local_subclass_spec(
        &self,
        type_name: &str,
        name: &str,
    ) -> Option<&crate::schema::SubclassSpec> {
        if let Ok(def) = self.catalog.object_type(type_name) {
            if let Some(sc) = def.subclasses.iter().find(|sc| sc.name == name) {
                return Some(sc);
            }
        }
        if let Ok(def) = self.catalog.rel_type(type_name) {
            if let Some(sc) = def.subclasses.iter().find(|sc| sc.name == name) {
                return Some(sc);
            }
        }
        None
    }

    fn local_subrel_spec(&self, type_name: &str, name: &str) -> Option<&SubrelSpec> {
        // Mirror `local_subclass_spec`: relationship types may own subrels
        // too (a relationship object is a full object, §3/§5).
        if let Ok(def) = self.catalog.object_type(type_name) {
            if let Some(sr) = def.subrels.iter().find(|sr| sr.name == name) {
                return Some(sr);
            }
        }
        if let Ok(def) = self.catalog.rel_type(type_name) {
            if let Some(sr) = def.subrels.iter().find(|sr| sr.name == name) {
                return Some(sr);
            }
        }
        None
    }

    /// Effective attribute read with value-inheritance resolution.
    ///
    /// Local attributes answer directly; inherited attributes walk the
    /// binding chain to the transmitter. An *unbound* inheritor yields
    /// [`Value::Missing`] — it inherits only the structure (§4.1).
    pub fn attr(&self, obj: Surrogate, name: &str) -> CoreResult<Value> {
        // One relaxed load and a branch when tracing is off (the same
        // quiescent pattern as SpanTimer); hop spans below are only
        // attempted when this root span exists.
        let mut tspan = trace::span("core.attr");
        if let Some(s) = &mut tspan {
            s.u64("object", obj.0);
            s.field("attr", FieldValue::Owned(name.to_string()));
        }
        let caching = self.res_cache.enabled();
        if caching {
            // Hits take only the owning shard's shared lock, so concurrent
            // cached readers (SharedStore::par_select, E11b/E13a) neither
            // serialize nor contend across shards.
            if let Some(v) = self.res_cache.get(obj, name, self.version) {
                self.rescache_hits.inc();
                core_metrics().rescache_hits.inc();
                if let Some(s) = &mut tspan {
                    s.str("rescache", "hit");
                }
                return Ok(v);
            }
        }
        // Iterative chain walk with *batched* counter updates: bookkeeping
        // happens once per read, not once per hop, keeping instrumentation
        // overhead on the resolution hot path within noise.
        let mut cur = obj;
        let mut depth = 0u64;
        let mut inherited = false;
        let value = loop {
            let o = self.object(cur)?;
            if self.local_attr_domain(&o.type_name, name).is_some() {
                break o.attrs.get(name).cloned().unwrap_or(Value::Missing);
            }
            // Not local: find the inheritance source in the effective schema.
            let eff = self.effective(&o.type_name)?;
            match eff.attr(name) {
                Some((_, ItemSource::Inherited { via_rel, .. })) => {
                    inherited = true;
                    match o.bindings.get(via_rel) {
                        Some(rel_obj) => {
                            let from = cur;
                            cur = self
                                .object(*rel_obj)?
                                .transmitter()
                                .ok_or_else(|| CoreError::EvalError("corrupt binding".into()))?;
                            depth += 1;
                            if tspan.is_some() {
                                let mut hop = trace::span("core.attr.hop");
                                if let Some(h) = &mut hop {
                                    h.u64("hop", depth);
                                    h.u64("from", from.0);
                                    h.field("via_rel", FieldValue::Owned(via_rel.clone()));
                                    h.u64("rel_obj", rel_obj.0);
                                    h.u64("transmitter", cur.0);
                                    h.str(
                                        "permeable",
                                        if self.catalog.is_permeable(via_rel, name) {
                                            "yes"
                                        } else {
                                            "no"
                                        },
                                    );
                                }
                            }
                            if depth > MAX_RESOLUTION_DEPTH {
                                return Err(CoreError::EvalError(format!(
                                    "resolution of `{name}` on {obj} exceeded \
                                     {MAX_RESOLUTION_DEPTH} hops — binding cycle in a corrupt \
                                     store?"
                                )));
                            }
                        }
                        None => {
                            if let Some(s) = &mut tspan {
                                s.str("unbound", "yes");
                            }
                            break Value::Missing; // unbound inheritor (§4.1)
                        }
                    }
                }
                Some((_, ItemSource::Local)) => unreachable!("local handled above"),
                None => {
                    return Err(CoreError::NoSuchAttribute {
                        object: cur,
                        attr: name.into(),
                    })
                }
            }
        };
        if let Some(s) = &mut tspan {
            if caching {
                s.str("rescache", "miss");
            }
            s.u64("hops", depth);
            s.u64("resolved_from", cur.0);
        }
        if caching {
            self.rescache_misses.inc();
            core_metrics().rescache_misses.inc();
            self.res_cache.fill(obj, name, &value, self.version);
        }
        let m = core_metrics();
        if inherited {
            self.inherited_reads.inc();
            m.inherited_reads.inc();
            if depth > 0 {
                self.hops.add(depth);
                m.hops.add(depth);
            }
        } else {
            self.local_reads.inc();
            m.local_reads.inc();
        }
        if ccdb_obs::enabled() {
            m.hop_hist.observe(depth);
        }
        Ok(value)
    }

    /// The chain of `(object, item)` pairs consulted when resolving `item`
    /// (attribute or subclass) on `obj`: starts at `obj` and follows
    /// inheritance bindings to the providing transmitter. This is exactly
    /// the set a transaction must read-lock (§6 lock inheritance —
    /// "the parts of the component which are visible in the composite
    /// object have to be read-locked").
    pub fn resolution_chain(
        &self,
        obj: Surrogate,
        item: &str,
    ) -> CoreResult<Vec<(Surrogate, String)>> {
        let chain = self.resolution_chain_inner(obj, item)?;
        core_metrics().resolution_chains.inc();
        if ccdb_obs::enabled() {
            let hops = (chain.len() - 1) as u64;
            core_metrics().hop_hist.observe(hops);
            event::emit(|| {
                Event::now(
                    "core.resolution.chain",
                    vec![
                        ("object", FieldValue::U64(obj.0)),
                        ("item", FieldValue::Owned(item.to_string())),
                        ("hops", FieldValue::U64(hops)),
                    ],
                )
            });
        }
        Ok(chain)
    }

    fn resolution_chain_inner(
        &self,
        obj: Surrogate,
        item: &str,
    ) -> CoreResult<Vec<(Surrogate, String)>> {
        let mut chain = vec![(obj, item.to_string())];
        let mut cur = obj;
        loop {
            let o = self.object(cur)?;
            if self.local_attr_domain(&o.type_name, item).is_some()
                || self.local_subclass_spec(&o.type_name, item).is_some()
                || self.local_subrel_spec(&o.type_name, item).is_some()
            {
                return Ok(chain);
            }
            let eff = self.effective(&o.type_name)?;
            let via = match (eff.attr(item), eff.subclass(item)) {
                (Some((_, ItemSource::Inherited { via_rel, .. })), _) => via_rel.clone(),
                (_, Some((_, ItemSource::Inherited { via_rel, .. }))) => via_rel.clone(),
                _ => {
                    return Err(CoreError::NoSuchAttribute {
                        object: cur,
                        attr: item.into(),
                    })
                }
            };
            match o.bindings.get(&via) {
                Some(rel_obj) => {
                    let t = self
                        .object(*rel_obj)?
                        .transmitter()
                        .ok_or_else(|| CoreError::EvalError("corrupt binding".into()))?;
                    chain.push((t, item.to_string()));
                    cur = t;
                    if chain.len() as u64 > MAX_RESOLUTION_DEPTH {
                        return Err(CoreError::EvalError(format!(
                            "resolution chain of `{item}` on {obj} exceeded \
                             {MAX_RESOLUTION_DEPTH} hops — binding cycle in a corrupt store?"
                        )));
                    }
                }
                None => return Ok(chain), // unbound: chain ends here
            }
        }
    }

    /// Write a **local** attribute. Writing an inherited attribute is
    /// rejected ([`CoreError::InheritedReadOnly`]); a successful write to a
    /// permeable attribute of a transmitter marks every (transitively)
    /// affected inheritance-relationship object as needing adaptation.
    pub fn set_attr(&mut self, obj: Surrogate, name: &str, value: Value) -> CoreResult<()> {
        let o = self.object(obj)?;
        let Some(domain) = self.local_attr_domain(&o.type_name, name) else {
            // Inherited → read-only; unknown → no such attribute.
            if let Ok(eff) = self.effective(&o.type_name) {
                if eff.attr(name).is_some() {
                    return Err(CoreError::InheritedReadOnly {
                        object: obj,
                        attr: name.into(),
                    });
                }
            }
            return Err(CoreError::NoSuchAttribute {
                object: obj,
                attr: name.into(),
            });
        };
        if !value.conforms_to(&domain) {
            return Err(CoreError::DomainMismatch {
                attr: name.into(),
                expected: domain.describe(),
                got: format!("{value}"),
            });
        }
        self.object_mut(obj)?.attrs.insert(name.to_string(), value);
        if self.version > 0 {
            Arc::make_mut(self.write_stamps.entry_or_default(obj.0))
                .insert(name.to_string(), self.version);
        }
        core_metrics().set_attr.inc();
        let (mut closure, crossings) = self.inheritor_closure(obj, Some(name));
        self.sweep_resolution(obj, &mut closure, Some(name));
        self.propagate_adaptation(obj, name, &crossings);
        Ok(())
    }

    /// Enable/disable adaptation tracking (ablation for experiment E1).
    /// With tracking off, inheritors still see updates instantly (view
    /// semantics are resolution-based) but no flags/events are recorded.
    pub fn set_adaptation_tracking(&mut self, enabled: bool) {
        self.adaptation_enabled = enabled;
    }

    /// Raise the adaptation flag of, and log an event for, every
    /// inheritance relationship `crossings` names: those through which
    /// `item` of `transmitter` is (transitively) visible.
    fn propagate_adaptation(&mut self, transmitter: Surrogate, item: &str, crossings: &[Crossing]) {
        if !self.adaptation_enabled || crossings.is_empty() {
            return;
        }
        let mut tspan = trace::span("core.adaptation.propagate");
        if let Some(s) = &mut tspan {
            s.u64("transmitter", transmitter.0);
            s.field("item", FieldValue::Owned(item.to_string()));
        }
        let shared_item: Arc<str> = Arc::from(item);
        for c in crossings {
            // A flag already up is left alone: no write, no unshare.
            if !self.adaptation_flags.contains_key(c.rel.0) {
                self.adaptation_flags.insert(c.rel.0, ());
            }
            self.log_adaptation(c, &shared_item);
            if tspan.is_some() {
                let mut flag = trace::span("core.adaptation.flag");
                if let Some(fs) = &mut flag {
                    fs.u64("rel_obj", c.rel.0);
                    fs.u64("transmitter", c.transmitter.0);
                    fs.u64("inheritor", c.inheritor.0);
                    if let Ok(rel) = self.object(c.rel) {
                        fs.field("via_rel", FieldValue::Owned(rel.type_name.clone()));
                    }
                }
            }
        }
        let flagged = crossings.len() as u64;
        if let Some(s) = &mut tspan {
            s.u64("fanout", flagged);
        }
        if ccdb_obs::enabled() {
            core_metrics().adaptation_fanout.observe(flagged);
            event::emit(|| {
                Event::now(
                    "core.adaptation.propagate",
                    vec![
                        ("transmitter", FieldValue::U64(transmitter.0)),
                        ("item", FieldValue::Owned(item.to_string())),
                        ("fanout", FieldValue::U64(flagged)),
                    ],
                )
            });
        }
    }

    /// Append one event to the adaptation log at the next logical time.
    fn log_adaptation(&mut self, c: &Crossing, item: &Arc<str>) {
        self.clock += 1;
        let event = AdaptationEvent {
            rel_object: c.rel,
            transmitter: c.transmitter,
            inheritor: c.inheritor,
            item: Arc::clone(item),
            at: self.clock,
        };
        self.adaptation_log.insert(self.clock, event);
        core_metrics().adaptation_events.inc();
    }

    /// Adaptation events since a given logical time.
    pub fn adaptation_events_since(&self, at: u64) -> Vec<AdaptationEvent> {
        let Some(from) = at.checked_add(1) else {
            return Vec::new();
        };
        let events = self.adaptation_log.iter_from(from);
        events.map(|(_, e)| e.clone()).collect()
    }

    /// All adaptation events.
    pub fn adaptation_log(&self) -> Vec<AdaptationEvent> {
        self.adaptation_events_since(0)
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Does this inheritance-relationship object currently flag a needed
    /// adaptation?
    pub fn needs_adaptation(&self, rel_obj: Surrogate) -> CoreResult<bool> {
        match &self.object(rel_obj)?.kind {
            ObjectKind::InheritanceRel { .. } => Ok(self.adaptation_flags.contains_key(rel_obj.0)),
            _ => Err(CoreError::TypeMismatch {
                expected: "inheritance relationship".into(),
                got: self.object(rel_obj)?.type_name.clone(),
                role: "adaptation flag".into(),
            }),
        }
    }

    /// Clear the adaptation flag after the inheritor was (manually) adapted.
    pub fn acknowledge_adaptation(&mut self, rel_obj: Surrogate) -> CoreResult<()> {
        match &self.object(rel_obj)?.kind {
            ObjectKind::InheritanceRel { .. } => {
                self.adaptation_flags.remove(rel_obj.0);
                Ok(())
            }
            _ => Err(CoreError::TypeMismatch {
                expected: "inheritance relationship".into(),
                got: "other".into(),
                role: "adaptation flag".into(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Subclass access (with inheritance)
    // ------------------------------------------------------------------

    /// Effective subclass members: local members, or — for an inherited
    /// subclass — the transmitter's members (a read-only view).
    pub fn subclass_members(&self, obj: Surrogate, name: &str) -> CoreResult<Vec<Surrogate>> {
        let o = self.object(obj)?;
        if self.local_subclass_spec(&o.type_name, name).is_some()
            || self.local_subrel_spec(&o.type_name, name).is_some()
        {
            return Ok(o.subclasses.get(name).cloned().unwrap_or_default());
        }
        let eff = self.effective(&o.type_name)?;
        match eff.subclass(name) {
            Some((_, ItemSource::Inherited { via_rel, .. })) => match o.bindings.get(via_rel) {
                Some(rel_obj) => {
                    let transmitter = self
                        .object(*rel_obj)?
                        .transmitter()
                        .ok_or_else(|| CoreError::EvalError("corrupt binding".into()))?;
                    self.hops.inc();
                    core_metrics().hops.inc();
                    self.subclass_members(transmitter, name)
                }
                None => Ok(vec![]), // unbound inheritor: structure only
            },
            Some((_, ItemSource::Local)) => unreachable!("local handled above"),
            None => Err(CoreError::NoSuchSubclass {
                object: obj,
                subclass: name.into(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Delete an object and cascade over its subobjects/subrels (§3: "all
    /// subobjects depend on the complex object, they are deleted with the
    /// complex object"). Relationship objects referencing a deleted object
    /// are deleted too. A transmitter with live inheritors is protected —
    /// unbind first or use [`ObjectStore::delete_force`].
    pub fn delete(&mut self, obj: Surrogate) -> CoreResult<()> {
        self.check_deletable(obj)?;
        self.delete_unchecked_rec(obj)
    }

    fn check_deletable(&self, obj: Surrogate) -> CoreResult<()> {
        // Protect transmitters anywhere in the doomed subtree.
        let doomed = self.collect_subtree(obj)?;
        for d in &doomed {
            let ext: Vec<Surrogate> = self
                .inheritance_rels_of(*d)
                .iter()
                .filter(|r| {
                    // An inheritor inside the same doomed subtree is fine.
                    self.objects
                        .get(r.0)
                        .and_then(|o| o.inheritor())
                        .map(|i| !doomed.contains(&i))
                        .unwrap_or(false)
                })
                .copied()
                .collect();
            if !ext.is_empty() {
                return Err(CoreError::TransmitterInUse {
                    object: *d,
                    inheritors: ext.len(),
                });
            }
        }
        Ok(())
    }

    /// Delete even if the object (or a subobject) still transmits: bindings
    /// are dissolved and the affected inheritors are flagged for adaptation.
    pub fn delete_force(&mut self, obj: Surrogate) -> CoreResult<()> {
        let doomed = self.collect_subtree(obj)?;
        let deleted: Arc<str> = Arc::from("<deleted>");
        for d in doomed {
            for rel in self.inheritance_rels_of(d).to_vec() {
                let inheritor = self.object(rel)?.inheritor().unwrap_or_default();
                let crossing = Crossing {
                    rel,
                    transmitter: d,
                    inheritor,
                };
                self.log_adaptation(&crossing, &deleted);
                self.unbind(rel)?;
            }
        }
        self.delete_unchecked_rec(obj)
    }

    fn collect_subtree(&self, root: Surrogate) -> CoreResult<Vec<Surrogate>> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            let o = self.object(s)?;
            out.push(s);
            stack.extend(o.all_subclass_members());
        }
        Ok(out)
    }

    fn delete_unchecked_rec(&mut self, obj: Surrogate) -> CoreResult<()> {
        let o = self.objects.get(obj.0).cloned();
        let o = o.ok_or(CoreError::NoSuchObject(obj))?;

        // Cascade into subobjects and subrels first.
        for member in o.all_subclass_members().collect::<Vec<_>>() {
            if self.objects.contains_key(member.0) {
                self.delete_unchecked_rec(member)?;
            }
        }
        // Dissolve own inheritance bindings (this object as inheritor).
        for rel in o.bindings.values().copied().collect::<Vec<_>>() {
            if self.objects.contains_key(rel.0) {
                self.unbind(rel)?;
            }
        }
        // Delete relationship objects having this object as a participant.
        for rel in self.participant_in.remove(obj.0).unwrap_or_default() {
            if self.objects.contains_key(rel.0) {
                self.delete_unchecked_rec(rel)?;
            }
        }
        // If this *is* an inheritance-relationship object, unbind cleanly.
        if matches!(o.kind, ObjectKind::InheritanceRel { .. }) {
            if self.objects.contains_key(obj.0) {
                self.unbind(obj)?;
            }
            return Ok(());
        }
        // If a relationship object: drop participant back-references.
        if let ObjectKind::Relationship { participants } = &o.kind {
            for members in participants.values() {
                for m in members {
                    if let Some(list) = self.participant_in.get_mut(m.0) {
                        list.retain(|r| *r != obj);
                    }
                }
            }
        }
        // Detach from owner.
        if let Some(owner) = &o.owner {
            if let Ok(p) = self.object_mut(owner.parent) {
                if let Some(list) = p.subclasses.get_mut(&owner.subclass) {
                    list.retain(|m| *m != obj);
                }
            }
        }
        // Detach from classes.
        if self.classes.values().any(|c| c.members.contains(&obj)) {
            for c in Arc::make_mut(&mut self.classes).values_mut() {
                c.members.retain(|m| *m != obj);
            }
        }
        self.remove_object(obj);
        self.invalidate_resolution(obj);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Constraint checking
    // ------------------------------------------------------------------

    /// Check all constraints applying to `obj`: its type's constraints, the
    /// `where` clauses of subrel members it owns, and — for relationship
    /// objects — the relationship type's constraints.
    pub fn check_constraints(&self, obj: Surrogate) -> CoreResult<Vec<Violation>> {
        let o = self.object(obj)?;
        let mut out = Vec::new();
        let constraints: Vec<Constraint> = if let Ok(def) = self.catalog.object_type(&o.type_name) {
            def.constraints.clone()
        } else if let Ok(def) = self.catalog.rel_type(&o.type_name) {
            def.constraints.clone()
        } else if let Ok(def) = self.catalog.inher_rel_type(&o.type_name) {
            def.constraints.clone()
        } else {
            vec![]
        };
        for c in &constraints {
            self.check_one(obj, c, &mut Env::new(), &mut out);
        }
        // Subrel member `where` clauses (object-type and rel-type owners
        // alike — relationship objects may own subrels too).
        let subrel_specs: Vec<SubrelSpec> = if let Ok(def) = self.catalog.object_type(&o.type_name)
        {
            def.subrels.clone()
        } else if let Ok(def) = self.catalog.rel_type(&o.type_name) {
            def.subrels.clone()
        } else {
            vec![]
        };
        for sr in &subrel_specs {
            for member in o.subclasses.get(&sr.name).cloned().unwrap_or_default() {
                for c in &sr.member_constraints {
                    let mut env = Env::with(REL_VAR, member);
                    self.check_one(obj, c, &mut env, &mut out);
                }
            }
        }
        Ok(out)
    }

    fn check_one(
        &self,
        obj: Surrogate,
        constraint: &Constraint,
        env: &mut Env,
        out: &mut Vec<Violation>,
    ) {
        match eval(self, obj, env, &constraint.expr) {
            Ok(Value::Bool(true)) => {}
            Ok(Value::Bool(false)) => out.push(Violation {
                object: obj,
                constraint: constraint.name.clone(),
                detail: None,
            }),
            Ok(other) => out.push(Violation {
                object: obj,
                constraint: constraint.name.clone(),
                detail: Some(format!("constraint evaluated to non-boolean {other}")),
            }),
            Err(e) => out.push(Violation {
                object: obj,
                constraint: constraint.name.clone(),
                detail: Some(e.to_string()),
            }),
        }
    }

    /// All objects of `type_name` whose effective data satisfies the
    /// boolean predicate (used for top-down component selection, §6, and
    /// ad-hoc queries). Results are in surrogate order.
    ///
    /// Defined as [`ObjectStore::select_rows`] over the type's class-extent
    /// index, so the cost scales with that type's population (E13b). When
    /// the predicate opens with conditions on attributes the type inherits
    /// through one relationship, the same answer is computed from the
    /// transmitters instead ([`ObjectStore::select_pushed`]).
    pub fn select(&self, type_name: &str, predicate: &Expr) -> CoreResult<Vec<Surrogate>> {
        self.catalog.object_type(type_name)?;
        let Some(extent) = self.extent.get(type_name) else {
            return Ok(Vec::new());
        };
        if let Some(hits) = self.select_pushed(type_name, extent, predicate) {
            return Ok(hits);
        }
        self.select_rows(type_name, extent.keys().map(Surrogate), predicate)
    }

    /// The rows among `rows` (objects of `type_name`) on which `predicate`
    /// evaluates to `true`, in the order given; the first evaluation error
    /// fails the whole call. The one per-row routine of both
    /// [`ObjectStore::select`] and [`crate::shared::SharedStore::par_select`].
    pub(crate) fn select_rows(
        &self,
        type_name: &str,
        rows: impl IntoIterator<Item = Surrogate>,
        predicate: &Expr,
    ) -> CoreResult<Vec<Surrogate>> {
        let view = ExtentView::new(self, type_name);
        let mut env = Env::new();
        let mut hits = Vec::new();
        for s in rows {
            if let Value::Bool(true) = view.eval_row(s, &mut env, predicate)? {
                hits.push(s);
            }
        }
        Ok(hits)
    }

    /// `select` as a semi-join through the inheritance relationship.
    ///
    /// Takes the longest leading run of `and`-ed conditions whose every
    /// path names an attribute `type_name` inherits through one
    /// relationship type `R`, evaluates that run once per object of `R`'s
    /// transmitter type, expands the transmitters it holds on to their
    /// `R`-inheritors in `type_name`'s extent, and evaluates the whole
    /// predicate on those candidates in surrogate order. An inheritor reads
    /// an inherited attribute as its transmitter's value of the same name,
    /// so the run decides each row exactly as it decides the row's
    /// transmitter, and a row it rejects is rejected without error.
    ///
    /// Returns `None`, leaving the answer to the row loop, when the
    /// predicate opens with no such run, when the transmitters are not
    /// fewer than the rows, when some object that could inherit through `R`
    /// is unbound (it reads `Missing`, not a transmitter's value), and when
    /// any evaluation here errs or yields a non-boolean — so every error
    /// `select` returns is the row loop's own.
    fn select_pushed(
        &self,
        type_name: &str,
        extent: &RadixMap<()>,
        predicate: &Expr,
    ) -> Option<Vec<Surrogate>> {
        let eff = self.effective(type_name).ok()?;
        let mut rel = None;
        let (prefix, _) = inherited_prefix(predicate, &eff, &mut rel);
        let (prefix, rel) = (prefix?, rel?);
        let def = self.catalog.inher_rel_type(rel).ok()?;
        let transmitters = self.extent.get(&def.transmitter_type)?;
        if transmitters.len() >= extent.len() {
            return None;
        }
        // `bind` only lets objects of the declaring types inherit through
        // `R`, each at most once, and every binding is one live `R` object:
        // equal counts mean every one of them is bound.
        let extent_len = |ty: &str| self.extent.get(ty).map_or(0, RadixMap::len);
        let could_inherit: usize = self.catalog.inheritor_types(rel).map(extent_len).sum();
        if extent_len(rel) != could_inherit {
            return None;
        }
        let view = ExtentView::new(self, &def.transmitter_type);
        let mut env = Env::new();
        let mut candidates = Vec::new();
        for t in transmitters.keys().map(Surrogate) {
            match view.eval_row(t, &mut env, prefix) {
                Ok(Value::Bool(true)) => {}
                Ok(Value::Bool(false)) => continue,
                _ => return None,
            }
            for r in self.inheritance_rels_of(t) {
                let o = self.objects.get(r.0)?;
                match o.inheritor() {
                    Some(i) if o.type_name == rel && extent.contains_key(i.0) => candidates.push(i),
                    _ => {}
                }
            }
        }
        candidates.sort_unstable();
        self.select_rows(type_name, candidates, predicate).ok()
    }

    /// Check every object in the store (in surrogate order); returns all
    /// violations.
    pub fn check_all(&self) -> CoreResult<Vec<Violation>> {
        let mut out = Vec::new();
        for s in self.surrogates() {
            out.extend(self.check_constraints(s)?);
        }
        Ok(out)
    }

    /// Verify the store's structural invariants; returns human-readable
    /// descriptions of any violations (empty = healthy). Checked:
    /// subclass members exist and back-link their owner; bindings point to
    /// live inheritance-relationship objects naming this object as
    /// inheritor; the `inheritors_of`/`participant_in` indexes agree with
    /// the objects; class members exist and have the class's type; the
    /// class-extent index and the live objects agree in both directions;
    /// every raised adaptation flag belongs to a live inheritance
    /// relationship.
    pub fn verify_integrity(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (s, o) in self.objects_map() {
            for (subclass, members) in &o.subclasses {
                for m in members {
                    match self.objects.get(m.0) {
                        None => problems.push(format!("{s}.{subclass} lists dead member {m}")),
                        Some(mo) => {
                            let ok = mo
                                .owner
                                .as_ref()
                                .map(|w| w.parent == s && &w.subclass == subclass)
                                .unwrap_or(false);
                            if !ok {
                                problems
                                    .push(format!("{m} does not back-link owner {s}.{subclass}"));
                            }
                        }
                    }
                }
            }
            for (rel_type, rel) in &o.bindings {
                match self.objects.get(rel.0) {
                    None => problems.push(format!("{s} binding {rel_type} → dead {rel}")),
                    Some(r) => {
                        if r.inheritor() != Some(s) {
                            problems.push(format!(
                                "{s} binding {rel_type} → {rel} names a different inheritor"
                            ));
                        }
                        match r.transmitter() {
                            Some(t) if self.objects.contains_key(t.0) => {
                                if !self.inheritance_rels_of(t).contains(rel) {
                                    problems.push(format!("inheritors_of[{t}] misses rel {rel}"));
                                }
                            }
                            _ => problems.push(format!("{rel} has a dead transmitter")),
                        }
                    }
                }
            }
            if let ObjectKind::Relationship { participants } = &o.kind {
                for members in participants.values() {
                    for m in members {
                        if !self.objects.contains_key(m.0) {
                            problems.push(format!("{s} references dead participant {m}"));
                        } else if !self.relationships_of(*m).contains(&s) {
                            problems.push(format!("participant_in[{m}] misses rel {s}"));
                        }
                    }
                }
            }
        }
        for (t, rels) in self.inheritors_of.iter() {
            let t = Surrogate(t);
            for rel in rels {
                let ok = self
                    .objects
                    .get(rel.0)
                    .and_then(|o| o.transmitter())
                    .map(|tt| tt == t)
                    .unwrap_or(false);
                if !ok {
                    problems.push(format!("inheritors_of[{t}] lists stale rel {rel}"));
                }
            }
        }
        for (name, class) in self.classes.iter() {
            for m in &class.members {
                match self.objects.get(m.0) {
                    None => problems.push(format!("class `{name}` lists dead member {m}")),
                    Some(o) if o.type_name != class.type_name => {
                        problems.push(format!("class `{name}` member {m} has wrong type"))
                    }
                    _ => {}
                }
            }
        }
        // Object-level binding cycles: `bind` refuses to create them, but a
        // corrupt or hand-edited persisted store can contain one, which
        // would (absent the resolution depth cap) loop reads forever.
        for (s, o) in self.objects_map() {
            if !o.bindings.is_empty() && self.transitively_inherits_from(s, s).unwrap_or(false) {
                problems.push(format!("{s} lies on an inheritance-binding cycle"));
            }
        }
        // Class-extent index ↔ objects agreement (both directions).
        for (s, o) in self.objects_map() {
            let indexed = self
                .extent
                .get(&o.type_name)
                .map(|m| m.contains_key(s.0))
                .unwrap_or(false);
            if !indexed {
                problems.push(format!("extent[{}] misses {s}", o.type_name));
            }
        }
        for (ty, members) in self.extent.iter() {
            for m in members.keys().map(Surrogate) {
                match self.objects.get(m.0) {
                    None => problems.push(format!("extent[{ty}] lists dead {m}")),
                    Some(o) if &o.type_name != ty => {
                        problems.push(format!("extent[{ty}] lists {m} of type {}", o.type_name))
                    }
                    _ => {}
                }
            }
        }
        for rel in self.adaptation_flags() {
            match self.objects.get(rel.0) {
                None => problems.push(format!("adaptation flag on dead {rel}")),
                Some(o) if o.transmitter().is_none() => problems.push(format!(
                    "adaptation flag on {rel}, which is not an inheritance relationship"
                )),
                _ => {}
            }
        }
        problems
    }

    // ------------------------------------------------------------------
    // Internals shared with persistence
    // ------------------------------------------------------------------

    /// Every live object, in surrogate order.
    pub(crate) fn objects_map(&self) -> impl Iterator<Item = (Surrogate, &ObjectData)> + '_ {
        self.objects.iter().map(|(s, o)| (Surrogate(s), &**o))
    }

    pub(crate) fn classes_map(&self) -> &BTreeMap<String, ClassDef> {
        &self.classes
    }

    /// The inheritance relationships whose adaptation flag is raised, in
    /// surrogate order.
    pub(crate) fn adaptation_flags(&self) -> impl Iterator<Item = Surrogate> + '_ {
        self.adaptation_flags.keys().map(Surrogate)
    }

    /// Raise `rel`'s adaptation flag as a persisted store recorded it;
    /// [`ObjectStore::verify_integrity`] checks that `rel` is a live
    /// inheritance relationship.
    pub(crate) fn restore_adaptation_flag(&mut self, rel: Surrogate) {
        self.adaptation_flags.insert(rel.0, ());
    }

    pub(crate) fn restore(
        catalog: Catalog,
        objects: Vec<ObjectData>,
        classes: Vec<(String, String, Vec<Surrogate>)>,
    ) -> CoreResult<Self> {
        let mut store = ObjectStore::new(catalog)?;
        let mut max = 0;
        for o in objects {
            max = max.max(o.surrogate.0);
            // Rebuild indexes.
            match &o.kind {
                ObjectKind::InheritanceRel { transmitter, .. } => {
                    store
                        .inheritors_of
                        .entry_or_default(transmitter.0)
                        .push(o.surrogate);
                }
                ObjectKind::Relationship { participants } => {
                    for members in participants.values() {
                        for m in members {
                            store.participant_in.entry_or_default(m.0).push(o.surrogate);
                        }
                    }
                }
                ObjectKind::Plain => {}
            }
            store.insert_object(o);
        }
        store.classes = Arc::new(
            classes
                .into_iter()
                .map(|(name, type_name, members)| (name, ClassDef { type_name, members }))
                .collect(),
        );
        store.gen = SurrogateGen::resume_after(max);
        Ok(store)
    }
}

/// The longest leading run of `e`'s left-deep `and` chain in which every
/// path is a one-segment `self` path naming an attribute `eff` inherits
/// through the one relationship type left in `rel` (literals may join in).
/// Returns the chain node that spans the run, if any, and whether the run
/// is all of `e`.
fn inherited_prefix<'e, 's>(
    e: &'e Expr,
    eff: &'s EffectiveSchema,
    rel: &mut Option<&'s str>,
) -> (Option<&'e Expr>, bool) {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = e
    {
        let (prefix, whole) = inherited_prefix(lhs, eff, rel);
        if whole && inherited_only(rhs, eff, rel) {
            return (Some(e), true);
        }
        return (prefix, false);
    }
    if inherited_only(e, eff, rel) {
        (Some(e), true)
    } else {
        (None, false)
    }
}

/// Whether every path in `e` names an attribute `eff` inherits through
/// `rel` (which the first such path fixes). Leaves `rel` untouched when not.
fn inherited_only<'s>(e: &Expr, eff: &'s EffectiveSchema, rel: &mut Option<&'s str>) -> bool {
    fn walk<'s>(e: &Expr, eff: &'s EffectiveSchema, rel: &mut Option<&'s str>) -> bool {
        match e {
            Expr::Lit(_) => true,
            Expr::Path(p) => {
                let [seg] = p.segments.as_slice() else {
                    return false;
                };
                let Some((_, ItemSource::Inherited { via_rel, .. })) = eff.attr(seg) else {
                    return false;
                };
                p.root == PathRoot::SelfObject && *rel.get_or_insert(via_rel) == via_rel.as_str()
            }
            Expr::Neg(x) | Expr::Not(x) => walk(x, eff, rel),
            Expr::Binary { lhs, rhs, .. } => walk(lhs, eff, rel) && walk(rhs, eff, rel),
            _ => false,
        }
    }
    let mut fixed = *rel;
    let ok = walk(e, eff, &mut fixed);
    if ok {
        *rel = fixed;
    }
    ok
}

/// The store as one `select` pass over objects of one type sees it: the
/// type's effective schema is fetched once per pass, so asking whether the
/// row under evaluation has an attribute neither takes the schema memo's
/// lock nor reads the row's object.
struct ExtentView<'a> {
    store: &'a ObjectStore,
    eff: Option<Arc<EffectiveSchema>>,
    row: Cell<Option<Surrogate>>,
}

impl<'a> ExtentView<'a> {
    fn new(store: &'a ObjectStore, ty: &str) -> Self {
        ExtentView {
            store,
            eff: store.effective(ty).ok(),
            row: Cell::new(None),
        }
    }

    /// Evaluate `expr` on `row`, which must be an object of the view's type.
    fn eval_row(&self, row: Surrogate, env: &mut Env, expr: &Expr) -> CoreResult<Value> {
        self.row.set(Some(row));
        eval(self, row, env, expr)
    }
}

impl ObjectView for ExtentView<'_> {
    fn view_attr(&self, obj: Surrogate, name: &str) -> CoreResult<Value> {
        self.store.attr(obj, name)
    }

    fn view_subclass(&self, obj: Surrogate, name: &str) -> CoreResult<Vec<Surrogate>> {
        self.store.view_subclass(obj, name)
    }

    fn view_participants(&self, obj: Surrogate, role: &str) -> CoreResult<Vec<Surrogate>> {
        self.store.view_participants(obj, role)
    }

    fn view_has_attr(&self, obj: Surrogate, name: &str) -> bool {
        // An object type's effective schema lists its local attributes too.
        match &self.eff {
            Some(eff) if self.row.get() == Some(obj) => eff.attr(name).is_some(),
            _ => self.store.view_has_attr(obj, name),
        }
    }

    fn view_has_subclass(&self, obj: Surrogate, name: &str) -> bool {
        self.store.view_has_subclass(obj, name)
    }

    fn view_has_participant(&self, obj: Surrogate, name: &str) -> bool {
        self.store.view_has_participant(obj, name)
    }
}

impl ObjectView for ObjectStore {
    fn view_attr(&self, obj: Surrogate, name: &str) -> CoreResult<Value> {
        self.attr(obj, name)
    }

    fn view_subclass(&self, obj: Surrogate, name: &str) -> CoreResult<Vec<Surrogate>> {
        self.subclass_members(obj, name)
    }

    fn view_participants(&self, obj: Surrogate, role: &str) -> CoreResult<Vec<Surrogate>> {
        let o = self.object(obj)?;
        // Inheritance-relationship objects expose their two ends as the
        // implicit roles `transmitter` and `inheritor`, so constraints on
        // inher-rel types can navigate both sides.
        if let ObjectKind::InheritanceRel {
            transmitter,
            inheritor,
        } = &o.kind
        {
            match role {
                "transmitter" => return Ok(vec![*transmitter]),
                "inheritor" => return Ok(vec![*inheritor]),
                _ => {
                    return Err(CoreError::EvalError(format!(
                        "no participant role `{role}` on {obj}"
                    )))
                }
            }
        }
        match o.participants(role) {
            Some(m) => Ok(m.to_vec()),
            None => {
                // Role declared but unset → empty.
                if let Ok(def) = self.catalog.rel_type(&o.type_name) {
                    if def.participants.iter().any(|p| p.name == role) {
                        return Ok(vec![]);
                    }
                }
                Err(CoreError::EvalError(format!(
                    "no participant role `{role}` on {obj}"
                )))
            }
        }
    }

    fn view_has_attr(&self, obj: Surrogate, name: &str) -> bool {
        let Some(o) = self.objects.get(obj.0) else {
            return false;
        };
        if self.local_attr_domain(&o.type_name, name).is_some() {
            return true;
        }
        self.effective(&o.type_name)
            .map(|e| e.attr(name).is_some())
            .unwrap_or(false)
    }

    fn view_has_subclass(&self, obj: Surrogate, name: &str) -> bool {
        let Some(o) = self.objects.get(obj.0) else {
            return false;
        };
        if self.local_subclass_spec(&o.type_name, name).is_some()
            || self.local_subrel_spec(&o.type_name, name).is_some()
        {
            return true;
        }
        self.effective(&o.type_name)
            .map(|e| e.subclass(name).is_some())
            .unwrap_or(false)
    }

    fn view_has_participant(&self, obj: Surrogate, name: &str) -> bool {
        let Some(o) = self.objects.get(obj.0) else {
            return false;
        };
        match &o.kind {
            ObjectKind::Relationship { participants } => {
                participants.contains_key(name)
                    || self
                        .catalog
                        .rel_type(&o.type_name)
                        .map(|d| d.participants.iter().any(|p| p.name == name))
                        .unwrap_or(false)
            }
            ObjectKind::InheritanceRel { .. } => {
                matches!(name, "transmitter" | "inheritor")
            }
            ObjectKind::Plain => false,
        }
    }
}

#[cfg(test)]
#[path = "store_tests.rs"]
mod tests;
