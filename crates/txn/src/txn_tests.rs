//! Tests for the transaction manager, centred on §6's lock inheritance,
//! expansion locking, and access-control coupling.

use std::sync::Arc;
use std::time::Duration;

use ccdb_core::domain::Domain;
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef, SubclassSpec};

use super::*;
use crate::access::Right;
use crate::lock::LockManager;

/// Interface/implementation schema with two attributes, only one permeable.
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
        attributes: vec![
            AttrDef::new("Length", Domain::Int),   // permeable
            AttrDef::new("Internal", Domain::Int), // NOT permeable
        ],
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
        inheriting: vec!["Length".into(), "Pins".into()],
        attributes: vec![],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Impl".into(),
        inheritor_in: vec!["AllOf_If".into()],
        attributes: vec![AttrDef::new("Cost", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c
}

/// A shared store plus a manager with a short lock leash — what an
/// embedded caller holds.
struct Db {
    store: SharedStore,
    mgr: TxnManager,
}

impl Db {
    fn over(store: ObjectStore, locks: LockManager) -> Db {
        Db {
            store: SharedStore::from_store(store),
            mgr: TxnManager::with_lock_manager(locks),
        }
    }

    fn begin(&self, user: &str) -> Txn {
        self.mgr.begin(user, &self.store)
    }

    /// Read the *published* store (what any non-transactional reader sees).
    fn with_store<R>(&self, f: impl FnOnce(&ObjectStore) -> R) -> R {
        self.store.read(f)
    }

    /// Plain, non-transactional write cycle (setup).
    fn with_store_mut<R>(&self, f: impl FnOnce(&mut ObjectStore) -> R) -> R {
        self.store.write(f)
    }
}

fn quick_db() -> Db {
    let store = ObjectStore::new(catalog()).unwrap();
    Db::over(store, LockManager::with_timeout(Duration::from_millis(80)))
}

/// (interface, implementation) with the implementation bound.
fn bound_pair(db: &Db) -> (Surrogate, Surrogate) {
    db.with_store_mut(|st| {
        let i = st
            .create_object(
                "If",
                vec![("Length", Value::Int(5)), ("Internal", Value::Int(1))],
            )
            .unwrap();
        st.create_subobject(i, "Pins", vec![("Id", Value::Int(1))])
            .unwrap();
        let imp = st
            .create_object("Impl", vec![("Cost", Value::Int(3))])
            .unwrap();
        st.bind("AllOf_If", i, imp, vec![]).unwrap();
        (i, imp)
    })
}

#[test]
fn read_write_commit_cycle() {
    let db = quick_db();
    let (i, _) = bound_pair(&db);
    let mut tx = db.begin("alice");
    assert_eq!(tx.read_attr(i, "Length").unwrap(), Value::Int(5));
    tx.write_attr(i, "Length", Value::Int(6)).unwrap();
    tx.commit().unwrap();
    assert_eq!(
        db.with_store(|st| st.attr(i, "Length").unwrap()),
        Value::Int(6)
    );
}

#[test]
fn abort_undoes_writes_and_creates() {
    let db = quick_db();
    let (i, _) = bound_pair(&db);
    let mut tx = db.begin("alice");
    tx.write_attr(i, "Length", Value::Int(99)).unwrap();
    let fresh = tx
        .create_object("If", vec![("Length", Value::Int(1))])
        .unwrap();
    tx.abort();
    assert_eq!(
        db.with_store(|st| st.attr(i, "Length").unwrap()),
        Value::Int(5)
    );
    assert!(db.with_store(|st| st.object(fresh).is_err()));
}

#[test]
fn abort_undoes_bind_and_unbind() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    // Unbind inside a txn, then abort → binding restored. The transaction
    // itself sees the unbound state; the published store never does.
    let rel = db.with_store(|st| st.binding_of(imp, "AllOf_If").unwrap());
    let mut tx = db.begin("alice");
    tx.unbind(rel).unwrap();
    assert_eq!(tx.read_attr(imp, "Length").unwrap(), Value::Missing);
    tx.abort();
    assert_eq!(
        db.with_store(|st| st.attr(imp, "Length").unwrap()),
        Value::Int(5)
    );
    assert_eq!(
        db.with_store(|st| st.binding_of(imp, "AllOf_If")),
        Some(rel)
    );
    // Bind a second implementation inside a txn, abort → gone.
    let imp2 = db.with_store_mut(|st| st.create_object("Impl", vec![]).unwrap());
    let mut tx = db.begin("alice");
    tx.bind("AllOf_If", i, imp2).unwrap();
    assert_eq!(tx.read_attr(imp2, "Length").unwrap(), Value::Int(5));
    tx.abort();
    assert_eq!(
        db.with_store(|st| st.attr(imp2, "Length").unwrap()),
        Value::Missing
    );
}

#[test]
fn uncommitted_effects_are_invisible_to_plain_readers() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let before = db.store.published_version();
    let mut tx = db.begin("alice");
    tx.write_attr(i, "Length", Value::Int(99)).unwrap();
    let fresh = tx.create_object("If", vec![]).unwrap();
    tx.delete(imp).unwrap();
    // The transaction sees all three...
    assert_eq!(tx.read_attr(i, "Length").unwrap(), Value::Int(99));
    assert!(tx.workspace().object(fresh).is_ok());
    assert!(tx.workspace().object(imp).is_err());
    // ...a plain reader of the shared store sees none: no dirty reads.
    assert_eq!(db.store.published_version(), before);
    assert_eq!(db.store.attr(imp, "Length").unwrap(), Value::Int(5));
    db.with_store(|st| {
        assert!(st.object(fresh).is_err());
        assert!(st.object(imp).is_ok());
    });
    // Commit makes all three visible at once.
    tx.commit().unwrap();
    db.with_store(|st| {
        assert_eq!(st.attr(i, "Length").unwrap(), Value::Int(99));
        assert!(st.object(fresh).is_ok());
        assert!(st.object(imp).is_err());
    });
}

#[test]
fn surrogates_handed_out_in_a_transaction_survive_commit() {
    let db = quick_db();
    let (i, _) = bound_pair(&db);
    // Two concurrent transactions create objects: the surrogates are
    // distinct although neither has committed, and a plain create that
    // slips in between collides with neither.
    let mut t1 = db.begin("alice");
    let mut t2 = db.begin("bob");
    let a = t1
        .create_object("Impl", vec![("Cost", Value::Int(1))])
        .unwrap();
    let b = t2
        .create_object("Impl", vec![("Cost", Value::Int(2))])
        .unwrap();
    let plain = db.with_store_mut(|st| st.create_object("Impl", vec![]).unwrap());
    let rel = t1.bind("AllOf_If", i, a).unwrap();
    assert!(a != b && a != plain && b != plain);
    t2.commit().unwrap();
    t1.commit().unwrap();
    // Each surrogate resolves, after commit, to the object it named inside
    // its transaction.
    db.with_store(|st| {
        assert_eq!(st.attr(a, "Cost").unwrap(), Value::Int(1));
        assert_eq!(st.attr(b, "Cost").unwrap(), Value::Int(2));
        assert_eq!(st.attr(a, "Length").unwrap(), Value::Int(5));
        assert_eq!(st.binding_of(a, "AllOf_If"), Some(rel));
        assert!(st.verify_integrity().is_empty());
    });
}

#[test]
fn replay_error_mid_commit_rolls_the_master_back() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    // Log: create an implementation, then bind it to the interface.
    let mut tx = db.begin("alice");
    let fresh = tx.create_object("Impl", vec![]).unwrap();
    tx.bind("AllOf_If", i, fresh).unwrap();
    // The interface is force-deleted after begin: the create replays fine,
    // the bind cannot.
    db.with_store_mut(|st| st.delete_force(i).unwrap());
    let published = db.store.published_version();
    let err = tx.commit().unwrap_err();
    assert!(
        matches!(err, TxnError::Core(CoreError::NoSuchObject(s)) if s == i),
        "{err}"
    );
    // Master == last published: the half-replayed create is gone, nothing
    // was published, the failed cycle's version is burnt...
    assert_eq!(db.store.published_version(), published);
    db.with_store(|st| assert!(st.object(fresh).is_err()));
    // ...and the next commit goes through against a clean master.
    let mut tx = db.begin("alice");
    tx.write_attr(imp, "Cost", Value::Int(8)).unwrap();
    let info = tx.commit().unwrap();
    assert!(info.version > published + 1);
    db.with_store(|st| {
        assert_eq!(st.attr(imp, "Cost").unwrap(), Value::Int(8));
        assert!(st.object(fresh).is_err());
        assert!(st.verify_integrity().is_empty());
    });
}

#[test]
fn failing_durability_hook_rolls_the_commit_back() {
    let db = quick_db();
    let (i, _) = bound_pair(&db);
    let published = db.store.published_version();
    let mut tx = db.begin("alice");
    tx.write_attr(i, "Length", Value::Int(6)).unwrap();
    // The hook sees the master after the replay and before the publish...
    let err = tx
        .commit_with(false, |master, log| {
            assert_eq!(master.attr(i, "Length").unwrap(), Value::Int(6));
            assert_eq!(log.len(), 1);
            Err(CoreError::EvalError("disk full".into()).into())
        })
        .unwrap_err();
    assert!(matches!(err, TxnError::Core(CoreError::EvalError(_))));
    // ...and its failure means nothing was published.
    assert_eq!(db.store.published_version(), published);
    assert_eq!(db.store.attr(i, "Length").unwrap(), Value::Int(5));
}

#[test]
fn lock_inheritance_read_locks_the_permeable_item() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let reader = db.begin("reader");
    // Reading the *inherited* Length locks (imp, Length) and (i, Length).
    assert_eq!(reader.read_attr(imp, "Length").unwrap(), Value::Int(5));
    // A writer on the transmitter's permeable item blocks…
    let mut writer = db.begin("writer");
    let err = writer.write_attr(i, "Length", Value::Int(7)).unwrap_err();
    assert!(matches!(err, TxnError::Lock(_)), "{err}");
    writer.abort();
    // …but a writer on the transmitter's NON-permeable item does not —
    // this is the point of item-granular lock inheritance.
    let mut writer2 = db.begin("writer2");
    writer2.write_attr(i, "Internal", Value::Int(8)).unwrap();
    writer2.commit().unwrap();
    reader.commit().unwrap();
}

#[test]
fn writer_on_transmitter_blocks_inherited_reader() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let mut writer = db.begin("writer");
    writer.write_attr(i, "Length", Value::Int(7)).unwrap();
    let reader = db.begin("reader");
    let err = reader.read_attr(imp, "Length").unwrap_err();
    assert!(matches!(err, TxnError::Lock(_)));
    writer.commit().unwrap();
    // The lock is free again. The old reader still reads its begin
    // snapshot; a reader that begins after the commit sees the new value.
    assert_eq!(reader.read_attr(imp, "Length").unwrap(), Value::Int(5));
    reader.abort();
    let reader = db.begin("reader");
    assert_eq!(reader.read_attr(imp, "Length").unwrap(), Value::Int(7));
    reader.commit().unwrap();
}

#[test]
fn expansion_read_locks_footprint() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let tx = db.begin("alice");
    let expanded = tx.expand_read(imp).unwrap();
    assert_eq!(expanded.type_name, "Impl");
    // The transmitter is S-locked whole: updates elsewhere block.
    let mut writer = db.begin("bob");
    let err = writer.write_attr(i, "Internal", Value::Int(9)).unwrap_err();
    assert!(matches!(err, TxnError::Lock(_)));
    tx.commit().unwrap();
    writer.write_attr(i, "Internal", Value::Int(9)).unwrap();
    writer.commit().unwrap();
}

#[test]
fn expansion_update_respects_access_control() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    // The interface is a protected standard part: bob may only read it.
    db.mgr
        .with_access_mut(|ac| ac.grant_object("bob", i, Right::Read));
    let mut tx = db.begin("bob");
    let writable = tx.expand_update(imp).unwrap();
    assert!(writable.contains(&imp), "own composite is writable");
    assert!(!writable.contains(&i), "standard part capped to S");
    // A concurrent reader of the standard part is NOT blocked (S vs S)…
    let tx2 = db.begin("carol");
    assert_eq!(tx2.read_attr(i, "Length").unwrap(), Value::Int(5));
    tx2.commit().unwrap();
    // …and bob cannot write it either (access denied, not just unlocked).
    let err = tx.write_attr(i, "Length", Value::Int(0)).unwrap_err();
    assert!(matches!(err, TxnError::AccessDenied { .. }));
    tx.commit().unwrap();
}

#[test]
fn no_access_at_all_fails_expansion() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    db.mgr
        .with_access_mut(|ac| ac.grant_object("mallory", i, Right::None));
    let tx = db.begin("mallory");
    let err = tx.expand_read(imp).unwrap_err();
    assert!(matches!(err, TxnError::AccessDenied { object, .. } if object == i));
    tx.abort();
}

#[test]
fn concurrent_writers_on_different_implementations() {
    let db = Arc::new(quick_db());
    let (i, _) = bound_pair(&db);
    // Many implementations of one interface; concurrent writers on their
    // local attrs never conflict.
    let imps: Vec<Surrogate> = (0..4)
        .map(|_| {
            db.with_store_mut(|st| {
                let imp = st
                    .create_object("Impl", vec![("Cost", Value::Int(0))])
                    .unwrap();
                st.bind("AllOf_If", i, imp, vec![]).unwrap();
                imp
            })
        })
        .collect();
    let mut handles = Vec::new();
    for (k, imp) in imps.iter().enumerate() {
        let db = Arc::clone(&db);
        let imp = *imp;
        handles.push(std::thread::spawn(move || {
            for n in 0..50 {
                let mut tx = db.begin(&format!("user{k}"));
                tx.write_attr(imp, "Cost", Value::Int(n)).unwrap();
                tx.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for imp in imps {
        assert_eq!(
            db.with_store(|st| st.attr(imp, "Cost").unwrap()),
            Value::Int(49)
        );
    }
}

#[test]
fn create_subobject_under_txn() {
    let db = quick_db();
    let (i, _) = bound_pair(&db);
    let mut tx = db.begin("alice");
    let pin = tx
        .create_subobject(i, "Pins", vec![("Id", Value::Int(2))])
        .unwrap();
    tx.abort();
    assert!(
        db.with_store(|st| st.object(pin).is_err()),
        "aborted create rolled back"
    );
    let mut tx = db.begin("alice");
    let pin = tx
        .create_subobject(i, "Pins", vec![("Id", Value::Int(2))])
        .unwrap();
    tx.commit().unwrap();
    assert!(db.with_store(|st| st.object(pin).is_ok()));
}

#[test]
fn write_set_tracks_all_mutations() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let mut tx = db.begin("alice");
    tx.write_attr(i, "Length", Value::Int(7)).unwrap();
    let fresh = tx.create_object("If", vec![]).unwrap();
    let ws = tx.write_set();
    assert!(ws.contains(&i) && ws.contains(&fresh));
    assert!(!ws.contains(&imp));
    tx.abort();
}

#[test]
fn commit_checked_rejects_constraint_violations() {
    // Schema with a constraint: Length < 100.
    let mut c = ccdb_core::schema::Catalog::new();
    c.register_object_type(ccdb_core::schema::ObjectTypeDef {
        name: "Part".into(),
        attributes: vec![ccdb_core::schema::AttrDef::new("Length", Domain::Int)],
        constraints: vec![ccdb_core::schema::Constraint::named(
            "Length < 100",
            ccdb_core::expr::Expr::bin(
                ccdb_core::expr::BinOp::Lt,
                ccdb_core::expr::Expr::Path(ccdb_core::expr::PathExpr::self_path(&["Length"])),
                ccdb_core::expr::Expr::int(100),
            ),
        )],
        ..Default::default()
    })
    .unwrap();
    let db = Db::over(ObjectStore::new(c).unwrap(), LockManager::new());
    let part = db.with_store_mut(|st| {
        st.create_object("Part", vec![("Length", Value::Int(10))])
            .unwrap()
    });

    // A valid write commits.
    let mut tx = db.begin("alice");
    tx.write_attr(part, "Length", Value::Int(50)).unwrap();
    tx.commit_checked().unwrap();
    assert_eq!(
        db.with_store(|st| st.attr(part, "Length").unwrap()),
        Value::Int(50)
    );

    // An invalid write is rejected AND rolled back.
    let mut tx = db.begin("alice");
    tx.write_attr(part, "Length", Value::Int(200)).unwrap();
    let Err(TxnError::Violations(violations)) = tx.commit_checked() else {
        panic!("expected violations");
    };
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].constraint, "Length < 100");
    assert_eq!(
        db.with_store(|st| st.attr(part, "Length").unwrap()),
        Value::Int(50),
        "violating txn rolled back"
    );
}

#[test]
fn commit_checked_walks_owner_chain() {
    // Owner constraint: count (Children) <= 1; writing a child subobject
    // must re-check the parent.
    let mut c = ccdb_core::schema::Catalog::new();
    c.register_object_type(ccdb_core::schema::ObjectTypeDef {
        name: "Child".into(),
        attributes: vec![ccdb_core::schema::AttrDef::new("X", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c.register_object_type(ccdb_core::schema::ObjectTypeDef {
        name: "Parent".into(),
        subclasses: vec![ccdb_core::schema::SubclassSpec {
            name: "Children".into(),
            element_type: "Child".into(),
        }],
        constraints: vec![ccdb_core::schema::Constraint::named(
            "at most one child",
            ccdb_core::expr::Expr::bin(
                ccdb_core::expr::BinOp::Le,
                ccdb_core::expr::Expr::Count {
                    path: ccdb_core::expr::PathExpr::self_path(&["Children"]),
                    filter: None,
                },
                ccdb_core::expr::Expr::int(1),
            ),
        )],
        ..Default::default()
    })
    .unwrap();
    let db = Db::over(ObjectStore::new(c).unwrap(), LockManager::new());
    let parent = db.with_store_mut(|st| st.create_object("Parent", vec![]).unwrap());

    let mut tx = db.begin("alice");
    tx.create_subobject(parent, "Children", vec![]).unwrap();
    tx.commit_checked().unwrap();

    let mut tx = db.begin("alice");
    let second = tx.create_subobject(parent, "Children", vec![]).unwrap();
    let Err(TxnError::Violations(violations)) = tx.commit_checked() else {
        panic!("expected violations");
    };
    assert_eq!(violations[0].constraint, "at most one child");
    assert!(
        db.with_store(|st| st.object(second).is_err()),
        "second child rolled back"
    );
    assert_eq!(
        db.with_store(|st| st.subclass_members(parent, "Children").unwrap().len()),
        1
    );
}

#[test]
fn class_level_access_grants_apply() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    // Put the interface into a "StandardCells" class; eve may only read
    // members of that class but updates everything else.
    db.with_store_mut(|st| {
        st.create_class("StandardCells", "If").unwrap();
        st.add_to_class("StandardCells", i).unwrap();
    });
    db.mgr.with_access_mut(|ac| {
        ac.grant_class("eve", "StandardCells", crate::access::Right::Read);
    });
    let mut tx = db.begin("eve");
    // Class members: read ok, write denied.
    assert_eq!(tx.read_attr(i, "Length").unwrap(), Value::Int(5));
    assert!(matches!(
        tx.write_attr(i, "Length", Value::Int(9)),
        Err(TxnError::AccessDenied { .. })
    ));
    // Non-members unaffected.
    tx.write_attr(imp, "Cost", Value::Int(4)).unwrap();
    tx.commit().unwrap();
}

#[test]
fn transactional_delete_commits_and_aborts() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    // Abort: the implementation (and its binding) are exactly as before.
    let mut tx = db.begin("alice");
    tx.delete(imp).unwrap();
    assert!(tx.workspace().object(imp).is_err());
    tx.abort();
    assert!(db.with_store(|st| st.object(imp).is_ok()));
    assert_eq!(
        db.with_store(|st| st.attr(imp, "Length").unwrap()),
        Value::Int(5)
    );
    // Commit: gone for good; the interface no longer transmits.
    let mut tx = db.begin("alice");
    tx.delete(imp).unwrap();
    tx.commit().unwrap();
    assert!(db.with_store(|st| st.object(imp).is_err()));
    assert!(db.with_store(|st| st.inheritance_rels_of(i).is_empty()));
}

/// Chip-like schema for the cascade test: a gate with subgates bound to an
/// external interface, and wires between the interface's pins.
fn gate_catalog() -> Catalog {
    let mut c = catalog();
    c.register_rel_type(ccdb_core::schema::RelTypeDef {
        name: "Wire".into(),
        participants: vec![
            ccdb_core::schema::ParticipantSpec::one("A", "Pin"),
            ccdb_core::schema::ParticipantSpec::one("B", "Pin"),
        ],
        ..Default::default()
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Gate".into(),
        subclasses: vec![SubclassSpec {
            name: "SubGates".into(),
            element_type: "Impl".into(),
        }],
        subrels: vec![ccdb_core::schema::SubrelSpec {
            name: "Wires".into(),
            rel_type: "Wire".into(),
            member_constraints: vec![],
        }],
        ..Default::default()
    })
    .unwrap();
    c
}

#[test]
fn abort_restores_a_deleted_complex_subtree_exactly() {
    let db = Db::over(
        ObjectStore::new(gate_catalog()).unwrap(),
        LockManager::new(),
    );
    let (interface, p1, p2, gate, sub, wire) = db.with_store_mut(|st| {
        let interface = st
            .create_object("If", vec![("Length", Value::Int(10))])
            .unwrap();
        let p1 = st.create_subobject(interface, "Pins", vec![]).unwrap();
        let p2 = st.create_subobject(interface, "Pins", vec![]).unwrap();
        let gate = st.create_object("Gate", vec![]).unwrap();
        let sub = st
            .create_subobject(gate, "SubGates", vec![("Cost", Value::Int(4))])
            .unwrap();
        st.bind("AllOf_If", interface, sub, vec![]).unwrap();
        let wire = st
            .create_subrel(
                gate,
                "Wires",
                vec![("A", vec![p1]), ("B", vec![p2])],
                vec![],
            )
            .unwrap();
        st.create_class("Lib", "Gate").unwrap();
        st.add_to_class("Lib", gate).unwrap();
        (interface, p1, p2, gate, sub, wire)
    });
    let count_before = db.with_store(|st| st.object_count());

    let mut tx = db.begin("alice");
    tx.delete(gate).unwrap();
    {
        let ws = tx.workspace();
        assert!(ws.object(gate).is_err());
        assert!(ws.object(sub).is_err());
        assert!(ws.object(wire).is_err(), "subrel member deleted with owner");
        assert!(
            ws.inheritance_rels_of(interface).is_empty(),
            "binding dissolved"
        );
    }
    tx.abort();

    // Nothing of it ever reached the store: subclass membership, placement,
    // inherited view, wire participants, indexes, class membership and
    // transmitter protection are all as before.
    db.with_store(|st| {
        assert_eq!(st.object_count(), count_before);
        assert_eq!(st.subclass_members(gate, "SubGates").unwrap(), vec![sub]);
        assert_eq!(st.attr(sub, "Cost").unwrap(), Value::Int(4));
        assert_eq!(st.attr(sub, "Length").unwrap(), Value::Int(10));
        assert_eq!(st.object(wire).unwrap().participants("A"), Some(&[p1][..]));
        assert_eq!(st.object(wire).unwrap().participants("B"), Some(&[p2][..]));
        assert_eq!(st.relationships_of(p1), &[wire]);
        assert_eq!(st.class_members("Lib").unwrap(), &[gate]);
        assert!(st.verify_integrity().is_empty());
    });
    assert!(matches!(
        db.with_store_mut(|st| st.delete(interface)),
        Err(CoreError::TransmitterInUse { .. })
    ));
}

#[test]
fn transactional_delete_respects_transmitter_protection_and_acl() {
    let db = quick_db();
    let (i, _imp) = bound_pair(&db);
    // The interface still transmits → delete refused, nothing locked burns.
    let mut tx = db.begin("alice");
    let err = tx.delete(i).unwrap_err();
    assert!(matches!(
        err,
        TxnError::Core(CoreError::TransmitterInUse { .. })
    ));
    tx.abort();
    // A read-only user cannot delete.
    db.mgr
        .with_access_mut(|ac| ac.grant_object("eve", i, Right::Read));
    let mut tx = db.begin("eve");
    let err = tx.delete(i).unwrap_err();
    assert!(matches!(err, TxnError::AccessDenied { .. }));
    tx.abort();
}

#[test]
fn delete_blocks_concurrent_readers_until_commit() {
    let db = quick_db();
    let (_i, imp) = bound_pair(&db);
    let mut tx = db.begin("alice");
    tx.delete(imp).unwrap();
    // Another txn cannot even read the doomed object (X held)...
    let tx2 = db.begin("bob");
    let err = tx2.read_attr(imp, "Cost").unwrap_err();
    assert!(matches!(err, TxnError::Lock(_)));
    tx.commit().unwrap();
    tx2.abort();
    // ...and for a transaction that begins after the commit the object is
    // simply gone.
    let tx3 = db.begin("bob");
    let err = tx3.read_attr(imp, "Cost").unwrap_err();
    assert!(matches!(err, TxnError::Core(CoreError::NoSuchObject(_))));
    tx3.abort();
}

#[test]
fn transactional_relationship_creation() {
    // WireType-like schema local to this test.
    let mut c = Catalog::new();
    c.register_object_type(ObjectTypeDef {
        name: "Pin2".into(),
        attributes: vec![AttrDef::new("Id", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Board".into(),
        subclasses: vec![SubclassSpec {
            name: "Pins".into(),
            element_type: "Pin2".into(),
        }],
        subrels: vec![ccdb_core::schema::SubrelSpec {
            name: "Wires".into(),
            rel_type: "Wire2".into(),
            member_constraints: vec![],
        }],
        ..Default::default()
    })
    .unwrap();
    c.register_rel_type(ccdb_core::schema::RelTypeDef {
        name: "Wire2".into(),
        participants: vec![
            ccdb_core::schema::ParticipantSpec::one("A", "Pin2"),
            ccdb_core::schema::ParticipantSpec::one("B", "Pin2"),
        ],
        ..Default::default()
    })
    .unwrap();
    let db = Db::over(ObjectStore::new(c).unwrap(), LockManager::new());
    let (board, p1, p2) = db.with_store_mut(|st| {
        let b = st.create_object("Board", vec![]).unwrap();
        let p1 = st
            .create_subobject(b, "Pins", vec![("Id", Value::Int(1))])
            .unwrap();
        let p2 = st
            .create_subobject(b, "Pins", vec![("Id", Value::Int(2))])
            .unwrap();
        (b, p1, p2)
    });
    // Abort removes both the top-level rel and the subrel member.
    let mut tx = db.begin("alice");
    let rel = tx
        .create_rel("Wire2", vec![("A", vec![p1]), ("B", vec![p2])], vec![])
        .unwrap();
    let wire = tx
        .create_subrel(
            board,
            "Wires",
            vec![("A", vec![p1]), ("B", vec![p2])],
            vec![],
        )
        .unwrap();
    tx.abort();
    db.with_store(|st| {
        assert!(st.object(rel).is_err());
        assert!(st.object(wire).is_err());
        assert!(st.subclass_members(board, "Wires").unwrap().is_empty());
    });
    // Commit keeps them; participants hold S locks during the txn.
    let mut tx = db.begin("alice");
    let wire = tx
        .create_subrel(
            board,
            "Wires",
            vec![("A", vec![p1]), ("B", vec![p2])],
            vec![],
        )
        .unwrap();
    assert_eq!(
        db.mgr.locks().held_mode(tx.id(), &Resource::Object(p1)),
        Some(LockMode::S)
    );
    tx.commit().unwrap();
    db.with_store(|st| {
        assert_eq!(st.subclass_members(board, "Wires").unwrap(), vec![wire]);
        assert_eq!(st.object(wire).unwrap().participants("A"), Some(&[p1][..]));
    });
}

// ----------------------------------------------------------------------
// Long design transactions: the same Txn, optimistic, with a long lifetime
// ----------------------------------------------------------------------

#[test]
fn checkout_modify_checkin() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let mut session = db.mgr.checkout("alice", &db.store, &[i, imp]).unwrap();
    session.write_attr(i, "Length", Value::Int(42)).unwrap();
    assert_eq!(session.read_attr(imp, "Length").unwrap(), Value::Int(42));
    // The store is untouched while the designer works, and the designer
    // holds no locks meanwhile.
    assert_eq!(db.store.attr(imp, "Length").unwrap(), Value::Int(5));
    assert_eq!(db.mgr.locks().held_count(session.id()), 0);
    session.commit().unwrap();
    assert_eq!(db.store.attr(imp, "Length").unwrap(), Value::Int(42));
}

#[test]
fn concurrent_designers_first_wins() {
    let db = quick_db();
    let (i, _) = bound_pair(&db);
    let mut alice = db.mgr.checkout("alice", &db.store, &[i]).unwrap();
    let mut bob = db.mgr.checkout("bob", &db.store, &[i]).unwrap();
    alice.write_attr(i, "Length", Value::Int(10)).unwrap();
    bob.write_attr(i, "Length", Value::Int(20)).unwrap();
    alice.commit().unwrap();
    let err = bob.commit().unwrap_err();
    assert!(
        matches!(&err, TxnError::WriteConflict { obj, attr, .. } if *obj == i && attr == "Length"),
        "{err}"
    );
    assert_eq!(db.store.attr(i, "Length").unwrap(), Value::Int(10));
}

#[test]
fn disjoint_checkouts_do_not_conflict() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let mut alice = db.mgr.checkout("alice", &db.store, &[i]).unwrap();
    let mut bob = db.mgr.checkout("bob", &db.store, &[imp]).unwrap();
    alice.write_attr(i, "Length", Value::Int(10)).unwrap();
    bob.write_attr(imp, "Cost", Value::Int(20)).unwrap();
    alice.commit().unwrap();
    bob.commit().unwrap();
    assert_eq!(db.store.attr(i, "Length").unwrap(), Value::Int(10));
    assert_eq!(db.store.attr(imp, "Cost").unwrap(), Value::Int(20));
}

#[test]
fn checkout_edits_go_through_the_validated_write_path() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let mut session = db.mgr.checkout("alice", &db.store, &[i, imp]).unwrap();
    // A domain-violating private edit is refused on the spot, as is a
    // write to an inherited (read-only) attribute.
    assert!(matches!(
        session.write_attr(i, "Length", Value::Bool(true)),
        Err(TxnError::Core(CoreError::DomainMismatch { .. }))
    ));
    assert!(matches!(
        session.write_attr(imp, "Length", Value::Int(1)),
        Err(TxnError::Core(CoreError::InheritedReadOnly { .. }))
    ));
    // Access rights are enforced although no locks are taken.
    db.mgr
        .with_access_mut(|ac| ac.grant_object("alice", i, Right::Read));
    assert!(matches!(
        session.write_attr(i, "Length", Value::Int(1)),
        Err(TxnError::AccessDenied { .. })
    ));
    assert!(session.log().is_empty());
}

#[test]
fn touching_foreign_objects_rejected() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    // A check-out is limited to its declared object set, for reads and
    // writes alike...
    let mut session = db.mgr.checkout("alice", &db.store, &[imp]).unwrap();
    assert!(matches!(
        session.write_attr(i, "Length", Value::Int(1)),
        Err(TxnError::NotCheckedOut(s)) if s == i
    ));
    assert!(matches!(
        session.read_attr(i, "Length"),
        Err(TxnError::NotCheckedOut(s)) if s == i
    ));
    // ...including the transmitter an inherited read resolves through...
    assert!(matches!(
        session.read_attr(imp, "Length"),
        Err(TxnError::NotCheckedOut(s)) if s == i
    ));
    assert!(matches!(session.delete(i), Err(TxnError::NotCheckedOut(_))));
    assert!(session.log().is_empty());
    // ...but what it checked out or created itself is its own.
    session.write_attr(imp, "Cost", Value::Int(9)).unwrap();
    let fresh = session.create_object("If", vec![]).unwrap();
    session.write_attr(fresh, "Length", Value::Int(2)).unwrap();
    assert_eq!(session.read_attr(fresh, "Length").unwrap(), Value::Int(2));
    session.commit().unwrap();
    assert_eq!(db.store.attr(fresh, "Length").unwrap(), Value::Int(2));
    // Checking out something that does not exist fails at check-out.
    assert!(matches!(
        db.mgr.checkout("alice", &db.store, &[Surrogate(9_999)]),
        Err(TxnError::Core(CoreError::NoSuchObject(_)))
    ));
}

/// A stale delete or unbind must not swallow a write committed after its
/// begin snapshot: whole-object writes validate every item of the object.
#[test]
fn stale_delete_and_unbind_lose_to_a_committed_write() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    for optimistic in [false, true] {
        let rel = db.with_store(|st| st.binding_of(imp, "AllOf_If").unwrap());
        let begin = |objects: &[Surrogate]| match optimistic {
            false => db.begin("alice"),
            true => db.mgr.checkout("alice", &db.store, objects).unwrap(),
        };
        let mut deleter = begin(&[imp, rel]);
        let mut unbinder = begin(&[imp, rel]);
        deleter.delete(imp).unwrap();
        // Bob's write lands after both began (plain: no locks in the way).
        let published = db.store.published_version();
        db.store.set_attr(imp, "Cost", Value::Int(77)).unwrap();
        match deleter.commit().unwrap_err() {
            TxnError::WriteConflict {
                obj,
                attr,
                committed_version,
            } => {
                assert_eq!((obj, attr.as_str()), (imp, "*"));
                assert!(committed_version > published);
            }
            other => panic!("expected WriteConflict, got {other}"),
        }
        assert_eq!(db.store.attr(imp, "Cost").unwrap(), Value::Int(77));
        // An unbind writes only the binding slot and the relationship
        // object, neither of which Bob wrote: it still goes through...
        unbinder.unbind(rel).unwrap();
        unbinder.commit().unwrap();
        assert_eq!(db.store.attr(imp, "Cost").unwrap(), Value::Int(77));
        // ...whereas one racing a re-bind of the same slot does not: the
        // slot's stamp catches it before the replay would.
        let rebound = db.store.bind("AllOf_If", i, imp, vec![]).unwrap();
        let mut stale = begin(&[imp, rebound]);
        stale.unbind(rebound).unwrap();
        db.store.unbind(rebound).unwrap();
        assert!(matches!(
            stale.commit(),
            Err(TxnError::WriteConflict { obj, attr, .. }) if obj == imp && attr == "@AllOf_If"
        ));
        db.store.bind("AllOf_If", i, imp, vec![]).unwrap();
        assert!(db.with_store(|st| st.verify_integrity().is_empty()));
    }
}

/// A delete removes on the master exactly what it removed in the
/// workspace: a cascade that grew after begin is a conflict, not a silent
/// deletion of objects the transaction never saw (or locked, or reported
/// to the persistence layer).
#[test]
fn stale_delete_with_a_grown_cascade_is_a_conflict() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    db.store
        .unbind(db.with_store(|st| st.binding_of(imp, "AllOf_If").unwrap()))
        .unwrap();
    let pins = db.with_store(|st| st.subclass_members(i, "Pins").unwrap());
    let mut scope = vec![i];
    scope.extend(&pins);
    let mut alice = db.mgr.checkout("alice", &db.store, &scope).unwrap();
    alice.delete(i).unwrap();
    // Bob adds a pin alice's cascade does not know about.
    let late_pin = db
        .store
        .write(|st| st.create_subobject(i, "Pins", vec![]).unwrap());
    let published = db.store.published_version();
    let err = alice.commit().unwrap_err();
    assert!(
        matches!(&err, TxnError::WriteConflict { obj, attr, .. } if *obj == i && attr == "*"),
        "{err}"
    );
    // Nothing of the delete was applied; the refused cycle burned a version.
    assert_eq!(db.store.published_version(), published);
    db.with_store(|st| {
        assert!(st.object(i).is_ok() && st.object(late_pin).is_ok());
        assert!(st.verify_integrity().is_empty());
    });
    // A log that creates under the doomed object first is judged after its
    // own earlier ops, and goes through.
    let mut scope = vec![i, late_pin];
    scope.extend(&pins);
    let mut alice = db.mgr.checkout("alice", &db.store, &scope).unwrap();
    let own_pin = alice.create_subobject(i, "Pins", vec![]).unwrap();
    alice.delete(i).unwrap();
    let info = alice.commit().unwrap();
    assert!(info.version > published + 1);
    db.with_store(|st| {
        assert!(st.object(i).is_err() && st.object(own_pin).is_err());
        assert!(st.verify_integrity().is_empty());
    });
}

/// Structural writes are first-committer-wins too: two transactions that
/// fill the same binding slot, or an unbind racing a re-bind of it, lose
/// with a `WriteConflict` at validation, not with a replay error.
#[test]
fn racing_binds_of_one_slot_are_write_conflicts() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    let rel = db.with_store(|st| st.binding_of(imp, "AllOf_If").unwrap());
    db.store.unbind(rel).unwrap();
    let slot_conflict = |err: TxnError| {
        assert!(
            matches!(&err, TxnError::WriteConflict { obj, attr, .. } if *obj == imp && attr == "@AllOf_If"),
            "{err}"
        );
    };

    // Bind vs bind.
    let mut alice = db.mgr.checkout("alice", &db.store, &[i, imp]).unwrap();
    let mut bob = db.mgr.checkout("bob", &db.store, &[i, imp]).unwrap();
    alice.bind("AllOf_If", i, imp).unwrap();
    bob.bind("AllOf_If", i, imp).unwrap();
    alice.commit().unwrap();
    let published = db.store.published_version();
    slot_conflict(bob.commit().unwrap_err());
    assert_eq!(db.store.published_version(), published, "nothing published");

    // Unbind vs bind: alice dissolves the binding, bob re-binds the slot
    // from a snapshot in which it was still taken.
    let rel = db.with_store(|st| st.binding_of(imp, "AllOf_If").unwrap());
    let mut alice = db.mgr.checkout("alice", &db.store, &[i, imp, rel]).unwrap();
    let mut bob = db.mgr.checkout("bob", &db.store, &[i, imp, rel]).unwrap();
    alice.unbind(rel).unwrap();
    bob.unbind(rel).unwrap();
    bob.bind("AllOf_If", i, imp).unwrap();
    alice.commit().unwrap();
    slot_conflict(bob.commit().unwrap_err());
    db.with_store(|st| {
        assert_eq!(st.binding_of(imp, "AllOf_If"), None);
        assert!(st.verify_integrity().is_empty());
    });
}

#[test]
fn first_committer_wins_against_plain_writers() {
    let db = quick_db();
    let (i, imp) = bound_pair(&db);
    for optimistic in [false, true] {
        let mut tx = match optimistic {
            false => db.begin("alice"),
            true => db.mgr.checkout("alice", &db.store, &[i]).unwrap(),
        };
        tx.write_attr(i, "Length", Value::Int(100)).unwrap();
        // A plain writer takes no locks, so only commit-time validation
        // can catch it — under either policy.
        let current = db.store.attr(i, "Length").unwrap().as_int().unwrap();
        db.store
            .set_attr(i, "Length", Value::Int(current + 1))
            .unwrap();
        let begin = tx.begin_version();
        match tx.commit().unwrap_err() {
            TxnError::WriteConflict {
                committed_version, ..
            } => assert!(committed_version > begin),
            other => panic!("expected WriteConflict, got {other}"),
        }
        assert_eq!(
            db.store.attr(imp, "Length").unwrap(),
            Value::Int(current + 1)
        );
    }
}
