//! The one transaction mechanism: a [`Txn`] is a private copy-on-write
//! **workspace** of its begin snapshot plus an ordered **op log**, and the
//! paper's §6 locking is a policy over it.
//!
//! Every read and write of a transaction runs against the workspace (a
//! structural-sharing clone of the [`SharedStore`] snapshot pinned at
//! begin, with a detached resolution cache), so a transaction reads its
//! begin snapshot plus its own writes — with full inheritance semantics —
//! and nothing uncommitted is ever visible outside it. Abort is "drop the
//! `Txn`": the workspace goes away and the locks are released.
//!
//! Every write is an [`Op`] through the one entry [`Txn::apply`]; the
//! typed `create_object`/`bind`/… methods only construct the op. §6 lives
//! in one place — `Txn::cap` consults access control, `Txn::take`
//! acquires — and what a write X-locks is what commit validates: both read
//! it off `Op::writes` (what it S-locks is `Op::reads`).
//!
//! - **lock inheritance** opposite to data inheritance: reading an inherited
//!   item S-locks the *(transmitter, item)* pairs along the resolution
//!   chain, not whole transmitters;
//! - **expansion locking**: one operation locks a composite's whole
//!   visibility footprint;
//! - **access-control coupling**: every lock is capped to what the
//!   access-control manager admits (standard parts stay read-locked even
//!   inside an update expansion), and writes need
//!   [`Right::Update`](crate::access::Right::Update).
//!
//! Whether those locks are actually *taken* is the [`Policy`]:
//! [`Policy::Pessimistic`] for short transactions (embedded and wire),
//! [`Policy::Optimistic`] for long design check-outs, which hold nothing
//! for days, rely on commit-time validation alone, and may touch only the
//! objects they checked out or created.
//!
//! Commit is one [`SharedStore::try_write`] cycle on the store the
//! transaction began on: **validate** (first-committer-wins — no item this
//! transaction wrote, and no item of an object it deletes, may carry a
//! write stamp newer than the begin snapshot; structural items — a binding
//! slot, a subclass, a whole object — are stamped like attributes),
//! **check** (optionally, the
//! deferred constraint pass, on the workspace, which already holds the
//! final state), **replay** the log once on the master, **publish**. A
//! replay error — an object deleted since begin, a binding slot taken
//! meanwhile, a delete whose cascade is no longer the one the transaction
//! saw — rolls the master back to the last published version, so a
//! half-applied commit is impossible.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ccdb_core::expand::{expand, expansion_footprint, ExpandedObject};
use ccdb_core::object::Owner;
use ccdb_core::schema::Catalog;
use ccdb_core::shared::SharedStore;
use ccdb_core::store::{ObjectStore, Violation};
use ccdb_core::{lockprobe, CoreError, CoreResult, Surrogate, Value};
use parking_lot::RwLock;

use crate::access::AccessControl;
use crate::lock::{LockError, LockManager, LockMode, Resource, TxnId};

/// Transaction-layer errors.
#[derive(Debug)]
pub enum TxnError {
    /// Locking failed (deadlock/timeout) — caller should abort and retry.
    Lock(LockError),
    /// Object-model error.
    Core(CoreError),
    /// Access control refused the operation.
    AccessDenied {
        /// The requesting user.
        user: String,
        /// The protected object.
        object: Surrogate,
    },
    /// A design check-out touched an object outside its declared set.
    NotCheckedOut(Surrogate),
    /// First-committer-wins validation failed at commit: a newer version of
    /// an item this transaction wrote was published after it began.
    WriteConflict {
        /// The contended object.
        obj: Surrogate,
        /// The contended item; `*` when the whole object was written (a
        /// delete) and any item of it, or its cascade, changed.
        attr: String,
        /// The version this commit was building when it found the
        /// conflict: an upper bound on the version that beat this
        /// transaction to the item, which is above its begin version.
        committed_version: u64,
    },
    /// [`Txn::commit_checked`] found violated integrity constraints.
    Violations(Vec<Violation>),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Lock(e) => write!(f, "{e}"),
            TxnError::Core(e) => write!(f, "{e}"),
            TxnError::AccessDenied { user, object } => {
                write!(f, "access denied: user `{user}` may not update {object}")
            }
            TxnError::NotCheckedOut(s) => write!(f, "object {s} is not checked out"),
            TxnError::WriteConflict {
                obj,
                attr,
                committed_version,
            } => write!(
                f,
                "write-write conflict on {obj}.{attr}: version {committed_version} \
                 committed after this transaction began"
            ),
            TxnError::Violations(v) => write!(f, "{} integrity constraint(s) violated", v.len()),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        TxnError::Lock(e)
    }
}

impl From<CoreError> for TxnError {
    fn from(e: CoreError) -> Self {
        TxnError::Core(e)
    }
}

/// Result alias.
pub type TxnResult<T> = Result<T, TxnError>;

/// Whether a transaction takes its §6 locks or only validates at commit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Take every lock (short transactions: embedded callers, the wire).
    Pessimistic,
    /// Take none; access rights are still enforced and commit still
    /// validates (long design check-outs). The work is confined to the
    /// checked-out objects and whatever the transaction creates.
    Optimistic {
        /// The declared object set, grown by every create.
        checked_out: BTreeSet<Surrogate>,
    },
}

/// One mutation: the closed list of everything that writes a store. A
/// transaction logs ops and replays them at commit; a plain wire write
/// replays one on the master. Creating ops carry a surrogate drawn from
/// the store's shared generator, so the object keeps it wherever the op is
/// replayed.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum Op {
    SetAttr {
        obj: Surrogate,
        attr: String,
        value: Value,
    },
    CreateObject {
        s: Surrogate,
        type_name: String,
        attrs: Vec<(String, Value)>,
    },
    CreateSubobject {
        s: Surrogate,
        parent: Surrogate,
        subclass: String,
        attrs: Vec<(String, Value)>,
    },
    CreateRel {
        s: Surrogate,
        rel_type: String,
        participants: Vec<(String, Vec<Surrogate>)>,
        attrs: Vec<(String, Value)>,
    },
    CreateSubrel {
        s: Surrogate,
        parent: Surrogate,
        subrel: String,
        participants: Vec<(String, Vec<Surrogate>)>,
        attrs: Vec<(String, Value)>,
    },
    Bind {
        s: Surrogate,
        rel_type: String,
        transmitter: Surrogate,
        inheritor: Surrogate,
        attrs: Vec<(String, Value)>,
    },
    Unbind {
        rel_obj: Surrogate,
        rel_type: String,
        inheritor: Surrogate,
    },
    /// `doomed`: everything the cascade removes (`cascade`), as seen by
    /// the workspace when the op was logged; `owner`: the surviving complex
    /// object's subclass `obj` is detached from.
    Delete {
        obj: Surrogate,
        doomed: Vec<Surrogate>,
        owner: Option<Owner>,
    },
}

/// What deleting `obj` removes from `st` (§3), sorted: its subtree, the
/// bindings of doomed inheritors, and relationship objects referencing a
/// doomed participant.
fn cascade(st: &ObjectStore, obj: Surrogate) -> CoreResult<Vec<Surrogate>> {
    st.object(obj)?;
    let mut doomed = BTreeSet::new();
    let mut stack = vec![obj];
    while let Some(s) = stack.pop() {
        let Ok(o) = st.object(s) else { continue };
        if doomed.insert(s) {
            stack.extend(o.all_subclass_members());
            stack.extend(o.bindings.values());
            stack.extend(st.relationships_of(s));
        }
    }
    Ok(doomed.into_iter().collect())
}

fn owned<T: Clone>(pairs: &[(&str, T)]) -> Vec<(String, T)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn borrowed<T: Clone>(pairs: &[(String, T)]) -> Vec<(&str, T)> {
    pairs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect()
}

impl Op {
    /// The unbind of `rel_obj`, naming the binding slot it frees as `st`
    /// sees it.
    pub fn unbind(st: &ObjectStore, rel_obj: Surrogate) -> CoreResult<Op> {
        let rel = st.object(rel_obj)?;
        let Some(inheritor) = rel.inheritor() else {
            return Err(CoreError::TypeMismatch {
                expected: "inheritance relationship".into(),
                got: rel.type_name.clone(),
                role: "unbind target".into(),
            });
        };
        Ok(Op::Unbind {
            rel_obj,
            rel_type: rel.type_name.clone(),
            inheritor,
        })
    }

    /// The cascade delete of `obj` (§3), with everything it removes as
    /// `st` sees it.
    pub fn delete(st: &ObjectStore, obj: Surrogate) -> CoreResult<Op> {
        Ok(Op::Delete {
            obj,
            doomed: cascade(st, obj)?,
            owner: st.object(obj)?.owner.clone(),
        })
    }

    /// Apply this op to `st`: a transaction's workspace, then the master
    /// at commit; or, for a plain write, the master directly.
    pub fn replay(&self, st: &mut ObjectStore) -> CoreResult<()> {
        match self {
            Op::SetAttr { obj, attr, value } => st.set_attr(*obj, attr, value.clone()),
            Op::CreateObject {
                s,
                type_name,
                attrs,
            } => st.create_as(*s, |st| st.create_object(type_name, borrowed(attrs))),
            Op::CreateSubobject {
                s,
                parent,
                subclass,
                attrs,
            } => st.create_as(*s, |st| {
                st.create_subobject(*parent, subclass, borrowed(attrs))
            }),
            Op::CreateRel {
                s,
                rel_type,
                participants,
                attrs,
            } => st.create_as(*s, |st| {
                st.create_rel(rel_type, borrowed(participants), borrowed(attrs))
            }),
            Op::CreateSubrel {
                s,
                parent,
                subrel,
                participants,
                attrs,
            } => st.create_as(*s, |st| {
                st.create_subrel(*parent, subrel, borrowed(participants), borrowed(attrs))
            }),
            Op::Bind {
                s,
                rel_type,
                transmitter,
                inheritor,
                attrs,
            } => st.create_as(*s, |st| {
                st.bind(rel_type, *transmitter, *inheritor, borrowed(attrs))
            }),
            Op::Unbind { rel_obj, .. } => st.unbind(*rel_obj),
            Op::Delete { obj, .. } => st.delete(*obj),
        }
    }

    /// The resources this op reads without writing, which a lock-taking
    /// transaction S-locks so they cannot change under it: a bind's
    /// permeable transmitter items (lock inheritance, §6) and a
    /// relationship's participants, which must not vanish under a
    /// concurrent transactional delete.
    fn reads(&self, catalog: &Catalog) -> Vec<Resource> {
        match self {
            Op::Bind {
                rel_type,
                transmitter,
                ..
            } => match catalog.inher_rel_type(rel_type) {
                Ok(def) => def
                    .inheriting
                    .iter()
                    .map(|item| Resource::Item(*transmitter, item.clone()))
                    .collect(),
                // An unknown type fails the replay; there is nothing to lock.
                Err(_) => vec![],
            },
            Op::CreateRel { participants, .. } | Op::CreateSubrel { participants, .. } => {
                participants
                    .iter()
                    .flat_map(|(_, members)| members)
                    .map(|m| Resource::Object(*m))
                    .collect()
            }
            _ => vec![],
        }
    }

    /// The resources this op writes: what a lock-taking transaction X-locks
    /// before applying it, and what commit validates against the begin
    /// version (first committer wins). A created object is nobody else's
    /// yet and needs neither.
    fn writes(&self) -> Vec<Resource> {
        match self {
            Op::SetAttr { obj, attr, .. } => vec![Resource::Item(*obj, attr.clone())],
            Op::CreateObject { .. } | Op::CreateRel { .. } => vec![],
            Op::CreateSubobject {
                parent, subclass, ..
            } => vec![Resource::Item(*parent, subclass.clone())],
            Op::CreateSubrel { parent, subrel, .. } => {
                vec![Resource::Item(*parent, subrel.clone())]
            }
            Op::Bind {
                rel_type,
                inheritor,
                ..
            } => vec![Resource::Item(*inheritor, format!("@{rel_type}"))],
            Op::Unbind {
                rel_obj,
                rel_type,
                inheritor,
            } => vec![
                Resource::Item(*inheritor, format!("@{rel_type}")),
                Resource::Object(*rel_obj),
            ],
            Op::Delete { doomed, owner, .. } => {
                let mut out: Vec<_> = doomed.iter().map(|s| Resource::Object(*s)).collect();
                out.extend(
                    owner
                        .iter()
                        .map(|w| Resource::Item(w.parent, w.subclass.clone())),
                );
                out
            }
        }
    }

    /// The surrogate this op gives a new object, if it creates one.
    pub fn created(&self) -> Option<Surrogate> {
        match self {
            Op::CreateObject { s, .. }
            | Op::CreateSubobject { s, .. }
            | Op::CreateRel { s, .. }
            | Op::CreateSubrel { s, .. }
            | Op::Bind { s, .. } => Some(*s),
            Op::SetAttr { .. } | Op::Unbind { .. } | Op::Delete { .. } => None,
        }
    }

    /// The objects whose stored records `log` changes, creates or removes.
    pub fn touched_by(log: &[Op]) -> BTreeSet<Surrogate> {
        let written = log.iter().flat_map(Op::writes).map(|res| res.object());
        written.chain(log.iter().filter_map(Op::created)).collect()
    }
}

/// Outcome of a successful commit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitInfo {
    /// The store version this commit published (0 for a read-only
    /// transaction, which publishes nothing).
    pub version: u64,
    /// Logged ops replayed.
    pub writes: usize,
}

struct ManagerState {
    locks: LockManager,
    access: RwLock<AccessControl>,
    next_txn: AtomicU64,
}

/// What transactions share: the lock manager, access control and the id
/// counter. It holds no data — a transaction names its [`SharedStore`] at
/// begin and commits to that one. A cheap, cloneable handle.
#[derive(Clone)]
pub struct TxnManager {
    state: Arc<ManagerState>,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

impl TxnManager {
    /// Manager with the lock manager's default wait timeout.
    pub fn new() -> Self {
        TxnManager::with_lock_manager(LockManager::new())
    }

    /// Use a pre-configured lock manager (e.g. short timeouts in tests).
    pub fn with_lock_manager(locks: LockManager) -> Self {
        TxnManager {
            state: Arc::new(ManagerState {
                locks,
                access: RwLock::new(AccessControl::new()),
                next_txn: AtomicU64::new(1),
            }),
        }
    }

    /// The lock manager (stats/diagnostics).
    pub fn locks(&self) -> &LockManager {
        &self.state.locks
    }

    /// Configure access control.
    pub fn with_access_mut<R>(&self, f: impl FnOnce(&mut AccessControl) -> R) -> R {
        f(&mut self.state.access.write())
    }

    /// Begin a short, lock-taking transaction for `user` on the currently
    /// published snapshot of `store`.
    pub fn begin(&self, user: &str, store: &SharedStore) -> Txn {
        let snap = store.snapshot();
        let mut workspace = (*snap).clone();
        workspace.detach_resolution_cache();
        Txn {
            mgr: self.clone(),
            store: store.clone(),
            id: TxnId(self.state.next_txn.fetch_add(1, Ordering::Relaxed)),
            user: user.to_string(),
            policy: Policy::Pessimistic,
            begin_version: snap.version(),
            begin_tick: snap.tick(),
            workspace,
            log: Vec::new(),
        }
    }

    /// Check `objects` out (§6 long transactions, after \[KSUW85\]): the
    /// same [`Txn`] under [`Policy::Optimistic`] — the designer works on the
    /// private workspace for as long as they like, holding no locks, and
    /// checks in with [`Txn::commit`], which fails if someone else changed
    /// one of the same items meanwhile. The check-out may read and write
    /// only `objects` and what it creates itself; anything else — a
    /// transmitter an inherited read resolves through included — is
    /// [`TxnError::NotCheckedOut`].
    pub fn checkout(
        &self,
        designer: &str,
        store: &SharedStore,
        objects: &[Surrogate],
    ) -> TxnResult<Txn> {
        let mut txn = self.begin(designer, store);
        for s in objects {
            txn.workspace.object(*s)?;
        }
        let checked_out = objects.iter().copied().collect();
        txn.policy = Policy::Optimistic { checked_out };
        Ok(txn)
    }
}

/// An open transaction. Dropping it aborts: the workspace is discarded and
/// every lock released.
pub struct Txn {
    mgr: TxnManager,
    /// The store this transaction began on and commits to.
    store: SharedStore,
    id: TxnId,
    user: String,
    policy: Policy,
    begin_version: u64,
    /// The begin snapshot's mutation counter ([`ObjectStore::tick`]): what
    /// commit compares write stamps against.
    begin_tick: u64,
    workspace: ObjectStore,
    log: Vec<Op>,
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.mgr.state.locks.release_all(self.id);
    }
}

impl Txn {
    /// Lock-manager id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The published version this transaction reads.
    pub fn begin_version(&self) -> u64 {
        self.begin_version
    }

    /// The transaction's view: its begin snapshot plus its own writes.
    /// Reading it directly takes no locks.
    pub fn workspace(&self) -> &ObjectStore {
        &self.workspace
    }

    /// The ops logged so far, in order.
    pub fn log(&self) -> &[Op] {
        &self.log
    }

    /// Objects this transaction has written so far (sorted, deduplicated).
    pub fn write_set(&self) -> Vec<Surrogate> {
        Op::touched_by(&self.log).into_iter().collect()
    }

    // ------------------------------------------------------------------
    // §6 locking policy
    // ------------------------------------------------------------------

    /// Cap `requested` on `object` to what access control admits for this
    /// user (`AccessDenied` if not even readable); a check-out may not
    /// reach outside its object set at all.
    fn cap(&self, object: Surrogate, requested: LockMode) -> TxnResult<LockMode> {
        if matches!(&self.policy, Policy::Optimistic { checked_out } if !checked_out.contains(&object))
        {
            return Err(TxnError::NotCheckedOut(object));
        }
        let access = self.mgr.state.access.read();
        let right = access.right(&self.user, object, || self.workspace.classes_of(object));
        right.cap(requested).ok_or_else(|| self.denied(object))
    }

    fn denied(&self, object: Surrogate) -> TxnError {
        TxnError::AccessDenied {
            user: self.user.clone(),
            object,
        }
    }

    /// The one place locks are taken: under [`Policy::Pessimistic`],
    /// acquire `mode` on `res`, charging the wait to the calling thread's
    /// `lock` phase.
    fn take(&self, res: Resource, mode: LockMode) -> TxnResult<()> {
        if self.policy == Policy::Pessimistic {
            let t0 = Instant::now();
            let out = self.mgr.state.locks.acquire(self.id, res, mode);
            lockprobe::charge_exclusive_wait(t0.elapsed().as_nanos() as u64);
            out?;
        }
        Ok(())
    }

    /// Lock `res` in `requested` mode capped to the user's right; returns
    /// the granted mode.
    fn acquire_capped(&self, res: Resource, requested: LockMode) -> TxnResult<LockMode> {
        let mode = self.cap(res.object(), requested)?;
        self.take(res, mode)?;
        Ok(mode)
    }

    /// X-lock `res` for a write; the user must hold
    /// [`Right::Update`](crate::access::Right::Update) on it
    /// (a write is never silently degraded).
    fn acquire_update(&self, res: Resource) -> TxnResult<()> {
        if self.cap(res.object(), LockMode::X)? != LockMode::X {
            return Err(self.denied(res.object()));
        }
        self.take(res, LockMode::X)
    }

    /// Lock inheritance: S-lock every `(object, item)` of the resolution
    /// chain, computed on the workspace so it follows the transaction's own
    /// uncommitted bindings.
    fn lock_chain(&self, obj: Surrogate, item: &str) -> TxnResult<()> {
        for (o, item) in self.workspace.resolution_chain(obj, item)? {
            self.acquire_capped(Resource::Item(o, item), LockMode::S)?;
        }
        Ok(())
    }

    /// The one write entry: S-lock what `op` reads ([`Op::reads`]), X-lock
    /// what it writes ([`Op::writes`]), apply it to the workspace and log it
    /// for replay at commit. A creating op's object is invisible to
    /// everyone else until commit, so it needs no lock of its own.
    pub fn apply(&mut self, op: Op) -> TxnResult<()> {
        for res in op.reads(self.workspace.catalog()) {
            self.acquire_capped(res, LockMode::S)?;
        }
        for res in op.writes() {
            self.acquire_update(res)?;
        }
        op.replay(&mut self.workspace)?;
        if let (Policy::Optimistic { checked_out }, Some(s)) = (&mut self.policy, op.created()) {
            checked_out.insert(s);
        }
        self.log.push(op);
        Ok(())
    }

    /// [`Txn::apply`] the op `make` builds around a fresh surrogate from
    /// the shared generator; returns that surrogate, which is final.
    fn create(&mut self, make: impl FnOnce(Surrogate) -> Op) -> TxnResult<Surrogate> {
        let s = self.workspace.reserve_surrogate();
        self.apply(make(s))?;
        Ok(s)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Read an attribute under lock inheritance.
    pub fn read_attr(&self, obj: Surrogate, attr: &str) -> TxnResult<Value> {
        self.lock_chain(obj, attr)?;
        Ok(self.workspace.attr(obj, attr)?)
    }

    /// Read subclass members under lock inheritance.
    pub fn read_subclass(&self, obj: Surrogate, name: &str) -> TxnResult<Vec<Surrogate>> {
        self.lock_chain(obj, name)?;
        Ok(self.workspace.subclass_members(obj, name)?)
    }

    /// Expand a composite for reading: S-locks every object in the
    /// visibility footprint, then materializes the expansion.
    pub fn expand_read(&self, obj: Surrogate) -> TxnResult<ExpandedObject> {
        for s in expansion_footprint(&self.workspace, obj)? {
            self.acquire_capped(Resource::Object(s), LockMode::S)?;
        }
        Ok(expand(&self.workspace, obj, usize::MAX)?)
    }

    /// Expand a composite for update: requests X on every object in the
    /// footprint but — following the paper — consults access control and
    /// silently degrades to S on objects the user may only read (standard
    /// cells). Returns the objects actually granted X.
    pub fn expand_update(&self, obj: Surrogate) -> TxnResult<Vec<Surrogate>> {
        let mut writable = Vec::new();
        for s in expansion_footprint(&self.workspace, obj)? {
            if self.acquire_capped(Resource::Object(s), LockMode::X)? == LockMode::X {
                writable.push(s);
            }
        }
        Ok(writable)
    }

    // ------------------------------------------------------------------
    // Writes (workspace now, master at commit): constructors for
    // [`Txn::apply`]
    // ------------------------------------------------------------------

    /// Write a local attribute under an X item lock.
    pub fn write_attr(&mut self, obj: Surrogate, attr: &str, value: Value) -> TxnResult<()> {
        self.apply(Op::SetAttr {
            obj,
            attr: attr.to_string(),
            value,
        })
    }

    /// Create a top-level object.
    pub fn create_object(
        &mut self,
        type_name: &str,
        attrs: Vec<(&str, Value)>,
    ) -> TxnResult<Surrogate> {
        self.create(|s| Op::CreateObject {
            s,
            type_name: type_name.to_string(),
            attrs: owned(&attrs),
        })
    }

    /// Create a subobject (X on the parent's subclass item).
    pub fn create_subobject(
        &mut self,
        parent: Surrogate,
        subclass: &str,
        attrs: Vec<(&str, Value)>,
    ) -> TxnResult<Surrogate> {
        self.create(|s| Op::CreateSubobject {
            s,
            parent,
            subclass: subclass.to_string(),
            attrs: owned(&attrs),
        })
    }

    /// Create a top-level relationship object (S on the participants).
    pub fn create_rel(
        &mut self,
        rel_type: &str,
        participants: Vec<(&str, Vec<Surrogate>)>,
        attrs: Vec<(&str, Value)>,
    ) -> TxnResult<Surrogate> {
        self.create(|s| Op::CreateRel {
            s,
            rel_type: rel_type.to_string(),
            participants: owned(&participants),
            attrs: owned(&attrs),
        })
    }

    /// Create a relationship member in a local subrel class of `parent`
    /// (X on the parent's subrel item, S on the participants).
    pub fn create_subrel(
        &mut self,
        parent: Surrogate,
        subrel: &str,
        participants: Vec<(&str, Vec<Surrogate>)>,
        attrs: Vec<(&str, Value)>,
    ) -> TxnResult<Surrogate> {
        self.create(|s| Op::CreateSubrel {
            s,
            parent,
            subrel: subrel.to_string(),
            participants: owned(&participants),
            attrs: owned(&attrs),
        })
    }

    /// Bind an inheritor to a transmitter (X on the inheritor's binding
    /// slot, S on the transmitter's permeable items).
    pub fn bind(
        &mut self,
        rel_type: &str,
        transmitter: Surrogate,
        inheritor: Surrogate,
    ) -> TxnResult<Surrogate> {
        self.create(|s| Op::Bind {
            s,
            rel_type: rel_type.to_string(),
            transmitter,
            inheritor,
            attrs: vec![],
        })
    }

    /// Dissolve a binding (X on the inheritor's binding slot and on the
    /// relationship object, which goes away).
    pub fn unbind(&mut self, rel_obj: Surrogate) -> TxnResult<()> {
        self.apply(Op::unbind(&self.workspace, rel_obj)?)
    }

    /// Transactional cascade delete (§3): X-locks everything the
    /// `cascade` removes and the owner's subclass item `obj` leaves.
    /// Transmitters with live external inheritors are protected, as in
    /// [`ObjectStore::delete`].
    pub fn delete(&mut self, obj: Surrogate) -> TxnResult<()> {
        self.apply(Op::delete(&self.workspace, obj)?)
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Abort: discard the workspace and the log, release all locks
    /// (including inherited ones). Returns the number of locks released.
    pub fn abort(self) -> usize {
        // Only counts; dropping `self` does the releasing.
        self.mgr.state.locks.held_count(self.id)
    }

    /// Commit to the store the transaction began on: validate, replay,
    /// publish, release all locks. On any error the transaction is gone and
    /// nothing of it was published.
    pub fn commit(self) -> TxnResult<CommitInfo> {
        self.commit_with(false, |_, _| Ok(()))
    }

    /// Commit with deferred integrity checking (§3: constraints are
    /// conditions the objects have to obey): every written object — and,
    /// for subobjects, the owning complex objects whose constraints may
    /// span them — is checked on the workspace first;
    /// [`TxnError::Violations`] aborts the transaction.
    pub fn commit_checked(self) -> TxnResult<CommitInfo> {
        self.commit_with(true, |_, _| Ok(()))
    }

    /// The commit protocol. `durable` runs inside the write cycle on the
    /// master *after* the replay and *before* the publish — the point where
    /// a persistence layer makes the commit durable; its `Err` rolls the
    /// cycle back like a replay error.
    pub fn commit_with(
        self,
        check: bool,
        durable: impl FnOnce(&ObjectStore, &[Op]) -> TxnResult<()>,
    ) -> TxnResult<CommitInfo> {
        if self.log.is_empty() {
            // Read-only: nothing to validate or publish.
            return Ok(CommitInfo::default());
        }
        if check {
            let violations = self.violations();
            if !violations.is_empty() {
                return Err(TxnError::Violations(violations));
            }
        }
        self.store.try_write(|master| {
            // A conflict is found before anything is mutated, so its
            // rollback stamps nothing and keeps the resolution cache.
            self.validate(master)?;
            for op in &self.log {
                // A delete must remove exactly what the transaction saw it
                // remove — judged here, after the log's earlier ops.
                if let Op::Delete { obj, doomed, .. } = op {
                    if cascade(master, *obj)? != *doomed {
                        return Err(TxnError::WriteConflict {
                            obj: *obj,
                            attr: "*".into(),
                            committed_version: master.version(),
                        });
                    }
                }
                op.replay(master)?;
            }
            durable(master, &self.log)?;
            Ok(CommitInfo {
                version: master.version(),
                writes: self.log.len(),
            })
        })
    }

    /// First committer wins: nothing this transaction wrote ([`Op::writes`])
    /// may have been written by someone else since the begin snapshot —
    /// for a whole object, none of its items. Write stamps are positions of
    /// the store's mutation counter, which the master carries through every
    /// published version, so "since begin" is "stamped after the begin
    /// snapshot's counter". (Liveness of the touched objects is checked by
    /// the replay itself.)
    fn validate(&self, master: &ObjectStore) -> TxnResult<()> {
        for res in self.log.iter().flat_map(Op::writes) {
            let (obj, stamp, attr) = match res {
                Resource::Item(o, item) => (o, master.write_stamp(o, &item), item),
                Resource::Object(o) => (o, master.object_stamp(o), "*".to_string()),
            };
            if stamp > self.begin_tick {
                return Err(TxnError::WriteConflict {
                    obj,
                    attr,
                    committed_version: master.version(),
                });
            }
        }
        Ok(())
    }

    /// Constraint violations of the write set and its owner chains,
    /// evaluated on the workspace.
    fn violations(&self) -> Vec<Violation> {
        let ws = &self.workspace;
        let mut to_check = BTreeSet::new();
        for s in self.write_set() {
            // A wire write must re-check its gate: pull in the owner chain.
            let mut cur = Some(s);
            while let Some(o) = cur.and_then(|c| ws.object(c).ok()) {
                if !to_check.insert(o.surrogate) {
                    break;
                }
                cur = o.owner.as_ref().map(|w| w.parent);
            }
        }
        let mut violations = Vec::new();
        for s in to_check {
            match ws.check_constraints(s) {
                Ok(v) => violations.extend(v),
                Err(e) => violations.push(Violation {
                    object: s,
                    constraint: "<check failed>".into(),
                    detail: Some(e.to_string()),
                }),
            }
        }
        violations
    }
}

#[cfg(test)]
#[path = "txn_tests.rs"]
mod tests;
