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
//! inheritance-relationship object with the items that changed — the
//! paper's consistency-control bookkeeping on the relationship, kept beside
//! the objects so raising a flag never copies one. A write touches no cache
//! and appends no log: it stamps the item, and cached resolutions check the
//! stamps on read ([`crate::rescache`]).

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
use crate::rescache::{Deps, Lookup, ShardedResCache, DEFAULT_RESOLUTION_CACHE_SHARDS};
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

/// The items raised on one adaptation flag since its last acknowledgement,
/// sorted, and shared by the flags one write raises.
pub type FlagItems = Arc<Vec<String>>;

/// The stamped item of a write to an object as a whole (removal, re-creation).
const WHOLE_OBJECT: &str = "*";

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
    /// Cache entries a read found stale (a dependency changed in its
    /// snapshot); such a read also counts as a miss.
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
/// surrogate, or an `Arc` unshared on write: cloning the store is O(1) and
/// shares every untouched object, index entry, flag and stamp with the
/// clone, which is what makes
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
    /// Raised adaptation flags: relationship → items raised.
    adaptation_flags: RadixMap<FlagItems>,
    /// MVCC version stamp: 0 for a standalone store; set by
    /// [`crate::shared::SharedStore`] to the (monotonic, never-reused)
    /// version a write cycle is building.
    version: u64,
    /// The mutation counter ([`ObjectStore::tick`]).
    tick: u64,
    /// Per-object `item → tick` write stamps ([`ObjectStore::write_stamp`]),
    /// checked by cached resolutions and commit-time conflict detection.
    write_stamps: RadixMap<Arc<HashMap<String, u64>>>,
    /// Memoized effective schemas (the catalog is immutable once the store
    /// exists). Disable with [`ObjectStore::set_schema_cache`] for the E2
    /// ablation.
    eff_cache: Arc<Mutex<HashMap<String, Arc<EffectiveSchema>>>>,
    cache_enabled: Arc<AtomicBool>,
    /// Memoized [`ObjectStore::attr`] results, lock-striped by surrogate
    /// hash so concurrent hits on different objects never contend
    /// ([`crate::rescache`]). No write touches it; a reader validates each
    /// entry against its own snapshot, so transmitter updates stay
    /// instantly visible (§4 view semantics). Disable with
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
            version: self.version,
            tick: self.tick,
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
            version: 0,
            tick: 0,
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

    /// The mutation counter: every mutation advances it, and a write to an
    /// existing item records it as the item's [`ObjectStore::write_stamp`].
    /// COW clones carry it, so along one line of versions it only grows and
    /// equal counters mean equal states.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The [`ObjectStore::tick`] of the last write to `item` of `obj` — an
    /// attribute, a subclass, a binding slot `@RelType`, or `*` for the
    /// object as a whole — or 0. First-committer-wins validation compares
    /// it with a transaction's begin tick.
    pub fn write_stamp(&self, obj: Surrogate, item: &str) -> u64 {
        self.write_stamps
            .get(obj.0)
            .and_then(|m| m.get(item))
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

    /// Drop every memoized resolution (the MVCC rollback path).
    pub(crate) fn clear_resolution_cache(&self) {
        self.res_cache.clear();
    }

    /// Replace this store's resolution value cache with a private, empty
    /// one. Two COW clones that both write reach equal counters with
    /// different states, so a transaction workspace detaches its cache.
    pub fn detach_resolution_cache(&mut self) {
        self.res_cache = Arc::new(ShardedResCache::new(8));
    }

    /// Advance the mutation counter and record it as `(obj, item)`'s stamp.
    fn stamp(&mut self, obj: Surrogate, item: &str) {
        self.tick += 1;
        let stamps = Arc::make_mut(self.write_stamps.entry_or_default(obj.0));
        match stamps.get_mut(item) {
            Some(at) => *at = self.tick,
            None => {
                stamps.insert(item.to_string(), self.tick);
            }
        }
    }

    /// [`ObjectStore::stamp`] for a structural item, which only transactions
    /// read: a store that is not version-managed just advances the counter.
    fn stamp_structure(&mut self, obj: Surrogate, item: &str) {
        match self.version {
            0 => self.tick += 1,
            _ => self.stamp(obj, item),
        }
    }

    /// Whether the entry for `(obj, name)` resolved at `resolved_at` holds
    /// here: the relationships it crossed are live (immutable, so their
    /// bindings are unchanged), and so is the holder, with neither `name`
    /// nor the whole object stamped since.
    fn deps_unchanged(&self, obj: Surrogate, name: &str, deps: &Deps, resolved_at: u64) -> bool {
        let Some(rels) = deps.rels() else {
            return false;
        };
        let mut holder = self.objects.contains_key(obj.0).then_some(obj);
        for rel in rels {
            holder = holder
                .and(self.objects.get(rel.0))
                .and_then(|r| r.transmitter());
        }
        let stamps = holder.map(|h| self.write_stamps.get(h.0));
        let newer = |item| stamps.flatten().and_then(|s| s.get(item)) > Some(&resolved_at);
        stamps.is_some() && !newer(name) && !newer(WHOLE_OBJECT)
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
        let made = made?;
        debug_assert_eq!(made, s);
        // What was cached about a deleted object `s` named is not this one's.
        self.stamp(s, WHOLE_OBJECT);
        Ok(())
    }

    /// The one way objects enter `self.objects`: inserts the object and
    /// records it in its type's extent index, so the two can never
    /// disagree ([`ObjectStore::verify_integrity`] cross-checks them).
    fn insert_object(&mut self, obj: ObjectData) {
        self.tick += 1;
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
        self.stamp_structure(s, WHOLE_OBJECT);
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
            self.assign(s, name, value)?;
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
        self.stamp_structure(parent, subclass);
        for (name, value) in attrs {
            self.assign(s, name, value)?;
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
            self.assign(s, name, value)?;
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
        self.stamp_structure(parent, subrel);
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
        self.stamp_structure(rel_obj, subclass);
        for (name, value) in attrs {
            self.assign(s, name, value)?;
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
            self.assign(s, name, value)?;
        }
        if self.version > 0 {
            self.stamp(inheritor, &format!("@{rel_type}"));
        }
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
        if self.version > 0 {
            self.stamp(inheritor, &format!("@{rel_ty}"));
        }
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
        let mut stale = false;
        if caching {
            // Hits take only the owning shard's shared lock, so concurrent
            // cached readers (SharedStore::par_select, E11b/E13a) neither
            // serialize nor contend across shards.
            let unchanged = |deps: &Deps, at: u64| self.deps_unchanged(obj, name, deps, at);
            match self.res_cache.get(obj, name, self.tick, unchanged) {
                Lookup::Hit(v) => {
                    self.rescache_hits.inc();
                    core_metrics().rescache_hits.inc();
                    if let Some(s) = &mut tspan {
                        s.str("rescache", "hit");
                    }
                    return Ok(v);
                }
                Lookup::Stale => {
                    stale = true;
                    self.rescache_invalidations.inc();
                    core_metrics().rescache_invalidations.inc();
                }
                Lookup::Miss => {}
            }
        }
        // Iterative chain walk with *batched* counter updates: bookkeeping
        // happens once per read, not once per hop, keeping instrumentation
        // overhead on the resolution hot path within noise.
        let mut cur = obj;
        let mut depth = 0u64;
        let mut inherited = false;
        let mut deps = Deps::default();
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
                            deps.cross(*rel_obj);
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
                            // Depends on an empty slot, which nothing stamps.
                            deps = Deps::UNRECORDED;
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
                s.str("rescache", if stale { "stale" } else { "miss" });
            }
            s.u64("hops", depth);
            s.u64("resolved_from", cur.0);
        }
        if caching {
            self.rescache_misses.inc();
            core_metrics().rescache_misses.inc();
            self.res_cache.fill(obj, name, &value, self.tick, deps);
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
    /// permeable attribute of a transmitter raises the item on the
    /// adaptation flag of every (transitively) affected
    /// inheritance-relationship object. No cache lock, no log.
    pub fn set_attr(&mut self, obj: Surrogate, name: &str, value: Value) -> CoreResult<()> {
        self.assign(obj, name, value)?;
        self.stamp(obj, name);
        core_metrics().set_attr.inc();
        self.raise_flags(obj, name);
        Ok(())
    }

    /// [`ObjectStore::set_attr`] without stamp and flags, which an object
    /// being created needs neither of.
    fn assign(&mut self, obj: Surrogate, name: &str, value: Value) -> CoreResult<()> {
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
        let attrs = &mut self.object_mut(obj)?.attrs;
        match attrs.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                attrs.insert(name.to_string(), value);
            }
        }
        Ok(())
    }

    /// Enable/disable adaptation tracking (ablation for experiment E1).
    /// With tracking off, inheritors still see updates instantly (view
    /// semantics are resolution-based) but no flags are raised.
    pub fn set_adaptation_tracking(&mut self, enabled: bool) {
        self.adaptation_enabled = enabled;
    }

    /// Raise `item` on the flag of every inheritance relationship through
    /// which `item` of `transmitter` is (transitively) visible. A flag that
    /// already records `item` is left alone: no write, no allocation.
    fn raise_flags(&mut self, transmitter: Surrogate, item: &str) {
        if !self.adaptation_enabled || !self.inheritors_of.contains_key(transmitter.0) {
            return;
        }
        let mut tspan = trace::span("core.adaptation.propagate");
        if let Some(s) = &mut tspan {
            s.u64("transmitter", transmitter.0);
            s.field("item", FieldValue::Owned(item.to_string()));
        }
        // The set a flag holding `from` becomes, reused while `from` repeats.
        let mut made: Option<(Option<FlagItems>, FlagItems)> = None;
        let mut frontier = vec![transmitter];
        let mut seen = HashSet::new();
        let (mut fanout, mut raised) = (0u64, 0u64);
        while let Some(t) = frontier.pop() {
            let rels = self.inheritors_of.get(t.0).map_or(&[][..], Vec::as_slice);
            for &rel in rels {
                let crossed = self.objects.get(rel.0).map(|o| (o, o.inheritor()));
                let Some((o, Some(inheritor))) = crossed else {
                    continue;
                };
                if !self.catalog.is_permeable(&o.type_name, item) {
                    continue;
                }
                fanout += 1;
                if tspan.is_some() {
                    let mut flag = trace::span("core.adaptation.flag");
                    if let Some(fs) = &mut flag {
                        fs.u64("rel_obj", rel.0);
                        fs.u64("transmitter", t.0);
                        fs.u64("inheritor", inheritor.0);
                        fs.field("via_rel", FieldValue::Owned(o.type_name.clone()));
                    }
                }
                // The inheritor may re-transmit the same item further.
                if self.inheritors_of.contains_key(inheritor.0) && seen.insert(inheritor) {
                    frontier.push(inheritor);
                }
                let old = self.adaptation_flags.get(rel.0);
                if old.is_some_and(|items| items.iter().any(|i| &**i == item)) {
                    continue;
                }
                let items = match &made {
                    Some((from, to)) if from.as_ref() == old => Arc::clone(to),
                    _ => {
                        let mut items = old.map(|o| o.to_vec()).unwrap_or_default();
                        items.insert(items.partition_point(|i| i.as_str() < item), item.into());
                        Arc::clone(&made.insert((old.cloned(), Arc::new(items))).1)
                    }
                };
                self.adaptation_flags.insert(rel.0, items);
                raised += 1;
            }
        }
        if let Some(s) = &mut tspan {
            s.u64("fanout", fanout);
        }
        core_metrics().adaptation_events.add(raised);
        if fanout > 0 && ccdb_obs::enabled() {
            core_metrics().adaptation_fanout.observe(fanout);
            event::emit(|| {
                Event::now(
                    "core.adaptation.propagate",
                    vec![
                        ("transmitter", FieldValue::U64(transmitter.0)),
                        ("item", FieldValue::Owned(item.to_string())),
                        ("fanout", FieldValue::U64(fanout)),
                    ],
                )
            });
        }
    }

    /// Does this inheritance-relationship object currently flag a needed
    /// adaptation?
    pub fn needs_adaptation(&self, rel_obj: Surrogate) -> CoreResult<bool> {
        self.flag_holder(rel_obj)?;
        Ok(self.adaptation_flags.contains_key(rel_obj.0))
    }

    /// Clear the adaptation flag after the inheritor was (manually) adapted.
    pub fn acknowledge_adaptation(&mut self, rel_obj: Surrogate) -> CoreResult<()> {
        self.flag_holder(rel_obj)?;
        self.adaptation_flags.remove(rel_obj.0);
        Ok(())
    }

    /// `rel_obj`, if it is an inheritance relationship (what holds a flag).
    fn flag_holder(&self, rel_obj: Surrogate) -> CoreResult<&ObjectData> {
        let o = self.object(rel_obj)?;
        match o.kind {
            ObjectKind::InheritanceRel { .. } => Ok(o),
            _ => Err(CoreError::TypeMismatch {
                expected: "inheritance relationship".into(),
                got: o.type_name.clone(),
                role: "adaptation flag".into(),
            }),
        }
    }

    /// Acknowledge `item` of `rel_obj`'s flag; the flag goes with its last
    /// item, and an item raised since the caller read the flag stays.
    pub(crate) fn acknowledge_item(&mut self, rel_obj: Surrogate, item: &str) {
        if let Some(raised) = self.adaptation_flags.get(rel_obj.0) {
            let left: Vec<String> = raised.iter().filter(|i| *i != item).cloned().collect();
            match left.is_empty() {
                true => self.adaptation_flags.remove(rel_obj.0),
                false => self.adaptation_flags.insert(rel_obj.0, Arc::new(left)),
            };
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
    /// are dissolved first, so the former inheritors read their inherited
    /// items as `Missing` (unbound, §4.1). The relationship objects — and
    /// with them their adaptation flags — go away; the `core.unbind` event
    /// of each is the notification a `watch` subscriber sees.
    pub fn delete_force(&mut self, obj: Surrogate) -> CoreResult<()> {
        for d in self.collect_subtree(obj)? {
            for rel in self.inheritance_rels_of(d).to_vec() {
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
                self.stamp_structure(owner.parent, &owner.subclass);
            }
        }
        // Detach from classes.
        if self.classes.values().any(|c| c.members.contains(&obj)) {
            for c in Arc::make_mut(&mut self.classes).values_mut() {
                c.members.retain(|m| *m != obj);
            }
        }
        self.remove_object(obj);
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
        for (rel, _) in self.adaptation_flags() {
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
    /// surrogate order, each with the items raised since its last
    /// acknowledgement — the store's whole adaptation record (§4.1: "the
    /// attributes of the relationship"), O(flagged relationships).
    pub fn adaptation_flags(&self) -> impl Iterator<Item = (Surrogate, &FlagItems)> + '_ {
        self.adaptation_flags
            .iter()
            .map(|(s, items)| (Surrogate(s), items))
    }

    /// Raise `rel`'s adaptation flag as a persisted store recorded it;
    /// [`ObjectStore::verify_integrity`] checks that `rel` is a live
    /// inheritance relationship.
    pub(crate) fn restore_adaptation_flag(&mut self, rel: Surrogate, items: Vec<String>) {
        self.adaptation_flags.insert(rel.0, Arc::new(items));
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
