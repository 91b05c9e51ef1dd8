//! Write-through persistent database: the transaction layer coupled to the
//! WAL-protected KV store, so every committed transaction is durable.
//!
//! [`PersistentDatabase`] bundles a [`SharedStore`], a [`TxnManager`] and a
//! [`DurableKv`]. A commit writes the transaction's [`PersistenceDelta`] —
//! derived from its op log — and the store's adaptation flags in one KV
//! transaction *inside* the commit's
//! write cycle, after the replay and before the publish: a crash after
//! commit replays the change, a crash before commit leaves no trace, and a
//! persistence failure rolls the in-memory commit back.

use std::path::Path;

use ccdb_core::persist::{self, load_store};
use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::{CoreError, Surrogate};
use ccdb_storage::kv::DurableKv;

use crate::txn::{CommitInfo, Op, Txn, TxnManager, TxnResult};

/// What a persistence layer must do to make a committed op log durable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistenceDelta {
    /// Live objects whose records must be (re)written.
    pub save: Vec<Surrogate>,
    /// Surrogates whose records must be removed.
    pub delete: Vec<Surrogate>,
}

impl PersistenceDelta {
    /// The records `log` changed, judged against `committed` — the store
    /// *after* the log was replayed: every touched object that is live
    /// there is saved (written and created objects, owners whose subclass
    /// lists changed, inheritors whose bindings changed), every touched
    /// surrogate that no longer exists is deleted (cascaded subtrees,
    /// dissolved inheritance-relationship objects, create-then-delete).
    pub fn of(log: &[Op], committed: &ObjectStore) -> Self {
        let (save, delete) = Op::touched_by(log)
            .into_iter()
            .partition(|s| committed.object(*s).is_ok());
        PersistenceDelta { save, delete }
    }
}

/// A durable, multi-user object database in a directory.
pub struct PersistentDatabase {
    store: SharedStore,
    mgr: TxnManager,
    kv: DurableKv,
}

impl PersistentDatabase {
    /// Create a fresh database in `dir` from a store (fails over whatever
    /// was there: the full store is written as the initial state).
    pub fn create(dir: impl AsRef<Path>, store: ObjectStore) -> TxnResult<Self> {
        let kv = DurableKv::open(dir).map_err(CoreError::from)?;
        persist::save_store(&store, &kv)?;
        Ok(Self::over(store, kv))
    }

    /// Open an existing database from `dir` (running crash recovery).
    pub fn open(dir: impl AsRef<Path>) -> TxnResult<Self> {
        let kv = DurableKv::open(dir).map_err(CoreError::from)?;
        let store = load_store(&kv)?;
        Ok(Self::over(store, kv))
    }

    fn over(store: ObjectStore, kv: DurableKv) -> Self {
        PersistentDatabase {
            store: SharedStore::from_store(store),
            mgr: TxnManager::new(),
            kv,
        }
    }

    /// The in-memory store. Read it freely; write it only through
    /// transactions — a plain write is not persisted.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The transaction manager (locks, access control).
    pub fn manager(&self) -> &TxnManager {
        &self.mgr
    }

    /// Begin a transaction; all reads and writes go through the [`Txn`].
    /// End a writing one with [`PersistentDatabase::commit`] —
    /// [`Txn::commit`] publishes without persisting.
    pub fn begin(&self, user: &str) -> Txn {
        self.mgr.begin(user, &self.store)
    }

    /// Durable commit: persist the transaction's delta in one KV
    /// transaction, then publish and release locks. On persistence failure
    /// nothing is published and the error is returned.
    pub fn commit(&self, tx: Txn) -> TxnResult<CommitInfo> {
        tx.commit_with(false, |committed, log| {
            let delta = PersistenceDelta::of(log, committed);
            let kv_tx = self.kv.begin().map_err(CoreError::from)?;
            for s in &delta.save {
                persist::save_object(committed, &self.kv, kv_tx, *s)?;
            }
            for s in &delta.delete {
                persist::delete_object(&self.kv, kv_tx, *s)?;
            }
            // Flags live outside the object records: a write raises them on
            // relationships it never touched, an unbind or delete drops them.
            persist::save_adaptation_flags(committed, &self.kv, kv_tx)?;
            self.kv.commit(kv_tx).map_err(CoreError::from)?;
            Ok(())
        })
    }

    /// Checkpoint the underlying KV store (truncates the WAL).
    pub fn checkpoint(&self) -> TxnResult<()> {
        self.kv.checkpoint().map_err(CoreError::from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdb_core::domain::Domain;
    use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef, SubclassSpec};
    use ccdb_core::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "Pin".into(),
            attributes: vec![AttrDef::new("Id", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "If".into(),
            attributes: vec![AttrDef::new("Length", Domain::Int)],
            subclasses: vec![SubclassSpec {
                name: "Pins".into(),
                element_type: "Pin".into(),
            }],
            ..Default::default()
        })
        .unwrap();
        c.register_inher_rel_type(InherRelTypeDef {
            name: "AllOf_If".into(),
            transmitter_type: "If".into(),
            inheritor_type: None,
            inheriting: vec!["Length".into()],
            attributes: vec![],
            constraints: vec![],
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "Impl".into(),
            inheritor_in: vec!["AllOf_If".into()],
            ..Default::default()
        })
        .unwrap();
        c
    }

    #[test]
    fn committed_transactions_survive_restart() {
        let dir = tempfile::tempdir().unwrap();
        let (interface, imp);
        {
            let pdb = PersistentDatabase::create(dir.path(), ObjectStore::new(catalog()).unwrap())
                .unwrap();
            let mut tx = pdb.begin("alice");
            interface = tx
                .create_object("If", vec![("Length", Value::Int(5))])
                .unwrap();
            imp = tx.create_object("Impl", vec![]).unwrap();
            tx.bind("AllOf_If", interface, imp).unwrap();
            pdb.commit(tx).unwrap();
            // Crash (no checkpoint).
        }
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        let tx = pdb.begin("bob");
        assert_eq!(tx.read_attr(imp, "Length").unwrap(), Value::Int(5));
        tx.commit().unwrap();
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let dir = tempfile::tempdir().unwrap();
        let interface;
        {
            let pdb = PersistentDatabase::create(dir.path(), ObjectStore::new(catalog()).unwrap())
                .unwrap();
            let mut tx = pdb.begin("alice");
            interface = tx
                .create_object("If", vec![("Length", Value::Int(5))])
                .unwrap();
            pdb.commit(tx).unwrap();
            let mut tx = pdb.begin("alice");
            tx.write_attr(interface, "Length", Value::Int(99)).unwrap();
            let ghost = tx.create_object("If", vec![]).unwrap();
            tx.abort();
            assert!(pdb.store().read(|st| st.object(ghost).is_err()));
        }
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        assert_eq!(
            pdb.store().read(|st| st.attr(interface, "Length").unwrap()),
            Value::Int(5)
        );
        assert_eq!(pdb.store().read(|st| st.object_count()), 1);
    }

    #[test]
    fn delta_partitions_the_touched_set_by_liveness_after_replay() {
        let dir = tempfile::tempdir().unwrap();
        let pdb =
            PersistentDatabase::create(dir.path(), ObjectStore::new(catalog()).unwrap()).unwrap();
        let mut tx = pdb.begin("alice");
        let interface = tx.create_object("If", vec![]).unwrap();
        let pin = tx.create_subobject(interface, "Pins", vec![]).unwrap();
        let imp = tx.create_object("Impl", vec![]).unwrap();
        let rel = tx.bind("AllOf_If", interface, imp).unwrap();
        // Created and dissolved / deleted again inside the same transaction.
        tx.unbind(rel).unwrap();
        tx.delete(pin).unwrap();
        let delta = PersistenceDelta::of(tx.log(), tx.workspace());
        assert_eq!(delta.save, vec![interface, imp]);
        assert_eq!(delta.delete, vec![pin, rel]);
        pdb.commit(tx).unwrap();
    }

    #[test]
    fn unbind_deletes_the_relationship_record() {
        let dir = tempfile::tempdir().unwrap();
        let (interface, imp);
        {
            let pdb = PersistentDatabase::create(dir.path(), ObjectStore::new(catalog()).unwrap())
                .unwrap();
            let mut tx = pdb.begin("alice");
            interface = tx
                .create_object("If", vec![("Length", Value::Int(5))])
                .unwrap();
            imp = tx.create_object("Impl", vec![]).unwrap();
            tx.bind("AllOf_If", interface, imp).unwrap();
            pdb.commit(tx).unwrap();
            let rel = pdb
                .store()
                .read(|st| st.binding_of(imp, "AllOf_If").unwrap());
            let mut tx = pdb.begin("alice");
            tx.unbind(rel).unwrap();
            pdb.commit(tx).unwrap();
        }
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        pdb.store().read(|st| {
            assert_eq!(
                st.attr(imp, "Length").unwrap(),
                Value::Missing,
                "binding gone"
            );
            assert!(st.binding_of(imp, "AllOf_If").is_none());
            assert!(st.object(interface).is_ok());
        });
    }

    #[test]
    fn adaptation_flags_follow_committed_transactions() {
        let dir = tempfile::tempdir().unwrap();
        let (interface, rel);
        {
            let mut st = ObjectStore::new(catalog()).unwrap();
            interface = st
                .create_object("If", vec![("Length", Value::Int(5))])
                .unwrap();
            let imp = st.create_object("Impl", vec![]).unwrap();
            let flagged = st.bind("AllOf_If", interface, imp, vec![]).unwrap();
            st.set_attr(interface, "Length", Value::Int(6)).unwrap();
            assert!(st.needs_adaptation(flagged).unwrap());
            let pdb = PersistentDatabase::create(dir.path(), st).unwrap();
            // Dissolve the flagged relationship: its flag must not outlive it.
            let mut tx = pdb.begin("alice");
            tx.unbind(flagged).unwrap();
            pdb.commit(tx).unwrap();
            // A committed transmitter write raises the flag of a new binding.
            let mut tx = pdb.begin("alice");
            let imp = tx.create_object("Impl", vec![]).unwrap();
            rel = tx.bind("AllOf_If", interface, imp).unwrap();
            pdb.commit(tx).unwrap();
            let mut tx = pdb.begin("alice");
            tx.write_attr(interface, "Length", Value::Int(7)).unwrap();
            pdb.commit(tx).unwrap();
        }
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        pdb.store().read(|st| {
            assert!(st.needs_adaptation(rel).unwrap());
            assert!(st.verify_integrity().is_empty());
        });
    }

    #[test]
    fn triggers_survive_a_committed_transaction() {
        use ccdb_core::trigger::{TriggerOutcome, TriggerRegistry};

        let dir = tempfile::tempdir().unwrap();
        let (interface, rel);
        {
            let mut st = ObjectStore::new(catalog()).unwrap();
            interface = st
                .create_object("If", vec![("Length", Value::Int(5))])
                .unwrap();
            let imp = st.create_object("Impl", vec![]).unwrap();
            rel = st.bind("AllOf_If", interface, imp, vec![]).unwrap();
            let pdb = PersistentDatabase::create(dir.path(), st).unwrap();
            let mut tx = pdb.begin("alice");
            tx.write_attr(interface, "Length", Value::Int(6)).unwrap();
            pdb.commit(tx).unwrap();
        }
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", move |_, ev| {
            assert_eq!((ev.rel_object, ev.transmitter), (rel, interface));
            assert_eq!(&*ev.item, "Length");
            Ok(TriggerOutcome::Handled)
        });
        let report = pdb.store().write(|st| triggers.process(st)).unwrap();
        assert_eq!((report.events, report.handled), (1, 1));
        pdb.store()
            .read(|st| assert!(!st.needs_adaptation(rel).unwrap()));
    }

    #[test]
    fn subobject_creation_persists_the_parent_membership() {
        let dir = tempfile::tempdir().unwrap();
        let (interface, pin);
        {
            let pdb = PersistentDatabase::create(dir.path(), ObjectStore::new(catalog()).unwrap())
                .unwrap();
            let mut tx = pdb.begin("alice");
            interface = tx.create_object("If", vec![]).unwrap();
            pdb.commit(tx).unwrap();
            pdb.checkpoint().unwrap();
            let mut tx = pdb.begin("alice");
            pin = tx
                .create_subobject(interface, "Pins", vec![("Id", Value::Int(1))])
                .unwrap();
            pdb.commit(tx).unwrap();
        }
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        pdb.store().read(|st| {
            assert_eq!(st.subclass_members(interface, "Pins").unwrap(), vec![pin]);
        });
    }
}

#[cfg(test)]
mod delete_tests {
    use super::*;
    use ccdb_core::domain::Domain;
    use ccdb_core::schema::{AttrDef, Catalog, ObjectTypeDef, SubclassSpec};
    use ccdb_core::Value;

    #[test]
    fn committed_deletes_are_durable() {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "Pin".into(),
            attributes: vec![AttrDef::new("Id", Domain::Int)],
            ..Default::default()
        })
        .unwrap();
        c.register_object_type(ObjectTypeDef {
            name: "Gate".into(),
            subclasses: vec![SubclassSpec {
                name: "Pins".into(),
                element_type: "Pin".into(),
            }],
            ..Default::default()
        })
        .unwrap();
        let dir = tempfile::tempdir().unwrap();
        let (gate, pin, survivor);
        {
            let pdb = PersistentDatabase::create(dir.path(), ObjectStore::new(c).unwrap()).unwrap();
            let mut tx = pdb.begin("alice");
            gate = tx.create_object("Gate", vec![]).unwrap();
            pin = tx
                .create_subobject(gate, "Pins", vec![("Id", Value::Int(1))])
                .unwrap();
            survivor = tx.create_object("Gate", vec![]).unwrap();
            pdb.commit(tx).unwrap();
            let mut tx = pdb.begin("alice");
            tx.delete(gate).unwrap();
            pdb.commit(tx).unwrap();
        }
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        pdb.store().read(|st| {
            assert!(st.object(gate).is_err());
            assert!(st.object(pin).is_err(), "cascade persisted");
            assert!(st.object(survivor).is_ok());
        });
    }
}
