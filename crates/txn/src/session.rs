//! Wire-transaction sessions: `begin`/`commit`/`abort` for server
//! connections over a [`SharedStore`].
//!
//! A network server needs transactions keyed by *session* (one per
//! connection) with crash-safe cleanup when the peer disappears.
//! [`TxnRegistry`] is that and nothing more: a session-id → [`Txn`] map
//! over one [`TxnManager`]. Everything a wire transaction does — reads
//! under §6 lock inheritance against its workspace, writes as
//! [`Txn::apply`]'d ops, first-committer-wins commit as one atomic write
//! cycle — is the [`Txn`]'s own behaviour ([`crate::txn`]), reached
//! through [`TxnRegistry::with_txn`]; the registry adds the 2PL rule that
//! a failed lock acquisition kills the whole transaction, and the
//! `ccdb_txn_wire_*` counters.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ccdb_core::shared::SharedStore;
use ccdb_core::{Surrogate, Value};
use parking_lot::Mutex;

use crate::lock::LockManager;
use crate::metrics::txn_metrics;
use crate::txn::{CommitInfo, Txn, TxnError, TxnManager, TxnResult};

/// Why a wire-transaction operation failed.
#[derive(Debug)]
pub enum SessionError {
    /// The session has no open transaction.
    NoTxn,
    /// The session already has an open transaction.
    AlreadyInTxn,
    /// The transaction's own failure. After a lock failure (deadlock or
    /// timeout) or out of `commit` the transaction has been aborted and all
    /// its locks released; after an object-model error elsewhere it stays
    /// open.
    Txn(TxnError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoTxn => write!(f, "no transaction is open on this session"),
            SessionError::AlreadyInTxn => {
                write!(f, "a transaction is already open on this session")
            }
            SessionError::Txn(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<TxnError> for SessionError {
    fn from(e: TxnError) -> Self {
        SessionError::Txn(e)
    }
}

/// Per-server registry of wire transactions, keyed by session id.
///
/// The outer map lock is held only for entry bookkeeping; each session's
/// transaction sits behind its own mutex, so one session blocked in a lock
/// wait never stalls another session's begin/commit/abort. A slot is
/// emptied (`None`) the moment its transaction ends, so an operation that
/// raced the end sees "no transaction", never a finished one.
pub struct TxnRegistry {
    mgr: TxnManager,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Option<Txn>>>>>,
}

impl Default for TxnRegistry {
    fn default() -> Self {
        TxnRegistry::new()
    }
}

impl TxnRegistry {
    /// Registry with the lock manager's default wait timeout.
    pub fn new() -> Self {
        TxnRegistry::with_lock_manager(LockManager::new())
    }

    /// Registry with a custom lock-wait timeout (a server usually wants a
    /// shorter leash than an embedded caller).
    pub fn with_timeout(timeout: Duration) -> Self {
        TxnRegistry::with_lock_manager(LockManager::with_timeout(timeout))
    }

    /// Registry over an externally-constructed lock manager.
    pub fn with_lock_manager(locks: LockManager) -> Self {
        TxnRegistry {
            mgr: TxnManager::with_lock_manager(locks),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying lock manager (stats/diagnostics).
    pub fn locks(&self) -> &LockManager {
        self.mgr.locks()
    }

    /// Does `session` have an open transaction?
    pub fn in_txn(&self, session: u64) -> bool {
        self.sessions.lock().contains_key(&session)
    }

    /// Open a transaction on `session`, pinning the current published
    /// version as its begin snapshot. Returns `(txn_id, begin_version)`.
    pub fn begin(&self, session: u64, store: &SharedStore) -> Result<(u64, u64), SessionError> {
        let mut sessions = self.sessions.lock();
        if sessions.contains_key(&session) {
            return Err(SessionError::AlreadyInTxn);
        }
        let txn = self.mgr.begin("", store);
        let ids = (txn.id().0, txn.begin_version());
        sessions.insert(session, Arc::new(Mutex::new(Some(txn))));
        txn_metrics().wire_begins.inc();
        Ok(ids)
    }

    /// End `session`'s transaction: unregister it and hand it out.
    fn take(&self, session: u64) -> Result<Txn, SessionError> {
        let entry = self.sessions.lock().remove(&session);
        let entry = entry.ok_or(SessionError::NoTxn)?;
        let txn = entry.lock().take();
        txn.ok_or(SessionError::NoTxn)
    }

    /// Run one in-transaction operation — any read or [`Txn::apply`] — on
    /// `session`'s transaction. A failed lock acquisition kills the whole
    /// transaction (2PL): it is aborted and its locks released, and later
    /// operations find no transaction.
    pub fn with_txn<R>(
        &self,
        session: u64,
        op: impl FnOnce(&mut Txn) -> TxnResult<R>,
    ) -> Result<R, SessionError> {
        let entry = self.sessions.lock().get(&session).cloned();
        let entry = entry.ok_or(SessionError::NoTxn)?;
        let mut slot = entry.lock();
        let out = op(slot.as_mut().ok_or(SessionError::NoTxn)?);
        if let Err(TxnError::Lock(_)) = &out {
            drop(slot.take());
            self.sessions.lock().remove(&session);
            txn_metrics().wire_aborts.inc();
        }
        Ok(out?)
    }

    /// In-transaction attribute read under §6 lock inheritance.
    pub fn read_attr(
        &self,
        session: u64,
        obj: Surrogate,
        attr: &str,
    ) -> Result<Value, SessionError> {
        self.with_txn(session, |txn| txn.read_attr(obj, attr))
    }

    /// In-transaction local write: X-locks the written item, applies the
    /// write to the workspace (visible to this session's later reads),
    /// and logs it for replay at commit.
    pub fn set_attr(
        &self,
        session: u64,
        obj: Surrogate,
        attr: &str,
        value: Value,
    ) -> Result<(), SessionError> {
        self.with_txn(session, |txn| txn.write_attr(obj, attr, value))
    }

    /// Commit ([`Txn::commit`]): validate, replay as one atomic write
    /// cycle, publish, release all locks — including the inherited S-locks
    /// along every resolution chain this transaction read. On any error the
    /// transaction is aborted and nothing is published from it. It commits
    /// to the store it began on; `_store` is that store again.
    pub fn commit(&self, session: u64, _store: &SharedStore) -> Result<CommitInfo, SessionError> {
        let outcome = self.take(session)?.commit();
        let m = txn_metrics();
        match &outcome {
            Ok(_) => m.wire_commits.inc(),
            Err(e) => {
                if matches!(e, TxnError::WriteConflict { .. }) {
                    m.wire_conflicts.inc();
                }
                m.wire_aborts.inc();
            }
        }
        Ok(outcome?)
    }

    /// Abort: discard the workspace and the log, release all locks
    /// (including inherited ones). Returns the number of locks released.
    pub fn abort(&self, session: u64) -> Result<usize, SessionError> {
        let released = self.take(session)?.abort();
        txn_metrics().wire_aborts.inc();
        Ok(released)
    }

    /// Abort `session`'s transaction if it has one — the disconnect/drain
    /// hook. Returns whether a transaction was open.
    pub fn abort_if_any(&self, session: u64) -> bool {
        self.abort(session).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::{LockError, TxnId};
    use ccdb_core::domain::Domain;
    use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
    use ccdb_core::store::ObjectStore;

    fn fixture() -> (SharedStore, Surrogate, Surrogate) {
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
        let mut st = ObjectStore::new(c).unwrap();
        let interface = st.create_object("If", vec![("X", Value::Int(7))]).unwrap();
        let imp = st
            .create_object("Impl", vec![("Local", Value::Int(1))])
            .unwrap();
        st.bind("AllOf_If", interface, imp, vec![]).unwrap();
        (SharedStore::from_store(st), interface, imp)
    }

    fn quick_registry() -> TxnRegistry {
        TxnRegistry::with_timeout(Duration::from_millis(100))
    }

    #[test]
    fn begin_set_commit_publishes_one_version() {
        let (store, interface, imp) = fixture();
        let reg = quick_registry();
        let before = store.published_version();
        let (_, begin_v) = reg.begin(1, &store).unwrap();
        assert_eq!(begin_v, before);
        reg.set_attr(1, interface, "X", Value::Int(50)).unwrap();
        // Uncommitted: published readers still see the old value...
        assert_eq!(store.attr(imp, "X").unwrap(), Value::Int(7));
        // ...while the transaction reads its own write through inheritance.
        assert_eq!(reg.read_attr(1, imp, "X").unwrap(), Value::Int(50));
        let info = reg.commit(1, &store).unwrap();
        assert_eq!(info.writes, 1);
        assert!(info.version > before);
        assert_eq!(store.attr(imp, "X").unwrap(), Value::Int(50));
        assert!(!reg.in_txn(1));
    }

    #[test]
    fn abort_discards_writes_and_releases_inherited_locks() {
        let (store, interface, imp) = fixture();
        let reg = quick_registry();
        let (tid, _) = reg.begin(1, &store).unwrap();
        // The read S-locks the whole resolution chain (§6): the
        // transmitter's item is part of the inherited closure.
        reg.read_attr(1, imp, "X").unwrap();
        reg.set_attr(1, imp, "Local", Value::Int(9)).unwrap();
        assert!(
            reg.locks().held_count(TxnId(tid)) >= 2,
            "chain S-locks + write X-lock"
        );
        let released = reg.abort(1).unwrap();
        assert!(released >= 2);
        assert_eq!(reg.locks().held_count(TxnId(tid)), 0);
        assert_eq!(store.attr(imp, "Local").unwrap(), Value::Int(1));
        // The transmitter item is immediately lockable by someone else.
        let (store2, _, _) = (store.clone(), interface, imp);
        reg.begin(2, &store2).unwrap();
        reg.set_attr(2, interface, "X", Value::Int(8)).unwrap();
        reg.commit(2, &store2).unwrap();
        assert_eq!(store.attr(imp, "X").unwrap(), Value::Int(8));
    }

    #[test]
    fn component_write_conflicts_with_composite_read_lock() {
        let (store, interface, imp) = fixture();
        let reg = quick_registry();
        // Session 1 reads the component's inherited attr: S-locks the
        // transmitter's permeable item along the chain.
        reg.begin(1, &store).unwrap();
        reg.read_attr(1, imp, "X").unwrap();
        // Session 2 tries to write that transmitter item: X conflicts with
        // the inherited S lock and times out.
        reg.begin(2, &store).unwrap();
        let err = reg.set_attr(2, interface, "X", Value::Int(0)).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Txn(TxnError::Lock(LockError::Timeout { .. }))
        ));
        // The failed acquire aborted session 2.
        assert!(!reg.in_txn(2));
        // After session 1 ends, the item is free again.
        reg.abort(1).unwrap();
        reg.begin(3, &store).unwrap();
        reg.set_attr(3, interface, "X", Value::Int(3)).unwrap();
        reg.commit(3, &store).unwrap();
    }

    #[test]
    fn first_committer_wins_against_plain_writers() {
        let (store, interface, imp) = fixture();
        let reg = quick_registry();
        let (tid, begin_v) = reg.begin(1, &store).unwrap();
        reg.set_attr(1, interface, "X", Value::Int(100)).unwrap();
        // A plain (non-transactional) writer slips in after begin — it
        // takes no locks, so only commit-time validation can catch it.
        store.set_attr(interface, "X", Value::Int(55)).unwrap();
        let err = reg.commit(1, &store).unwrap_err();
        match err {
            SessionError::Txn(TxnError::WriteConflict {
                obj,
                attr,
                committed_version,
            }) => {
                assert_eq!(obj, interface);
                assert_eq!(attr, "X");
                assert!(committed_version > begin_v);
            }
            other => panic!("expected WriteConflict, got {other}"),
        }
        // The losing transaction is gone and published nothing.
        assert!(!reg.in_txn(1));
        assert_eq!(store.attr(imp, "X").unwrap(), Value::Int(55));
        assert_eq!(reg.locks().held_count(TxnId(tid)), 0);
    }

    #[test]
    fn failing_write_rejects_the_whole_commit_atomically() {
        let (store, interface, imp) = fixture();
        let reg = quick_registry();
        reg.begin(1, &store).unwrap();
        reg.set_attr(1, interface, "X", Value::Int(1)).unwrap();
        reg.set_attr(1, imp, "Local", Value::Int(2)).unwrap();
        // Sabotage the second write: delete the object after begin. (No
        // write stamp is bumped by delete, so stamp validation passes — the
        // replay itself fails, after the first write already hit the master.)
        store.write(|st| st.delete_force(imp)).unwrap();
        let published = store.published_version();
        assert_eq!(store.attr(interface, "X").unwrap(), Value::Int(7));
        assert!(store.read(|st| st.resolution_cache_len()) > 0, "warm cache");
        let err = reg.commit(1, &store).unwrap_err();
        assert!(
            matches!(err, SessionError::Txn(TxnError::Core(_))),
            "got {err}"
        );
        // Neither write landed: the master was rolled back to the last
        // published version, the resolution cache was cleared (fills
        // stamped with the aborted version must not survive) and nothing
        // new was published...
        assert_eq!(store.read(|st| st.resolution_cache_len()), 0);
        assert_eq!(store.published_version(), published);
        assert_eq!(store.attr(interface, "X").unwrap(), Value::Int(7));
        assert!(!reg.in_txn(1));
        // ...and the next commit goes through on a fresh version (the
        // failed cycle burnt its own), against a master that really is the
        // published state.
        reg.begin(2, &store).unwrap();
        reg.set_attr(2, interface, "X", Value::Int(3)).unwrap();
        let info = reg.commit(2, &store).unwrap();
        assert!(info.version > published + 1, "rolled-back version is burnt");
        assert_eq!(store.attr(interface, "X").unwrap(), Value::Int(3));
        assert!(store.read(|st| st.verify_integrity()).is_empty());
    }

    #[test]
    fn session_bookkeeping_errors() {
        let (store, interface, _) = fixture();
        let reg = quick_registry();
        assert!(matches!(reg.abort(9), Err(SessionError::NoTxn)));
        assert!(matches!(reg.commit(9, &store), Err(SessionError::NoTxn)));
        assert!(matches!(
            reg.set_attr(9, interface, "X", Value::Int(0)),
            Err(SessionError::NoTxn)
        ));
        reg.begin(9, &store).unwrap();
        assert!(matches!(
            reg.begin(9, &store),
            Err(SessionError::AlreadyInTxn)
        ));
        assert!(reg.abort_if_any(9));
        assert!(!reg.abort_if_any(9));
    }

    #[test]
    fn read_only_commit_publishes_nothing() {
        let (store, _, imp) = fixture();
        let reg = quick_registry();
        let before = store.published_version();
        reg.begin(1, &store).unwrap();
        assert_eq!(reg.read_attr(1, imp, "X").unwrap(), Value::Int(7));
        let info = reg.commit(1, &store).unwrap();
        assert_eq!(info.writes, 0);
        assert_eq!(store.published_version(), before);
    }

    #[test]
    fn txn_reads_are_repeatable_against_the_begin_snapshot() {
        let (store, interface, imp) = fixture();
        let reg = TxnRegistry::new();
        reg.begin(1, &store).unwrap();
        assert_eq!(reg.read_attr(1, imp, "X").unwrap(), Value::Int(7));
        // The S lock from the read blocks transactional writers, and the
        // workspace pins the snapshot against plain writers: even after a
        // plain write publishes X=77, this transaction still reads 7.
        store.set_attr(interface, "X", Value::Int(77)).unwrap();
        assert_eq!(reg.read_attr(1, imp, "X").unwrap(), Value::Int(7));
        reg.commit(1, &store).unwrap();
        assert_eq!(store.attr(imp, "X").unwrap(), Value::Int(77));
    }
}
