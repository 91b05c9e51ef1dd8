//! Concurrency integration tests: many designers against one shared store
//! and transaction manager, exercising lock inheritance, deadlock recovery,
//! and serializability of the final state.
//!
//! A transaction reads its begin snapshot, so a retry loop treats a
//! commit-time write conflict exactly like a lock failure: abort, begin
//! again.

use std::sync::Arc;
use std::time::Duration;

use ccdb_core::domain::Domain;
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};
use ccdb_txn::lock::LockManager;
use ccdb_txn::txn::{Txn, TxnError, TxnManager};

/// A shared store plus the transaction manager over it.
struct Db {
    store: SharedStore,
    mgr: TxnManager,
}

impl Db {
    fn begin(&self, user: &str) -> Txn {
        self.mgr.begin(user, &self.store)
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_object_type(ObjectTypeDef {
        name: "If".into(),
        attributes: vec![
            AttrDef::new("A", Domain::Int),
            AttrDef::new("B", Domain::Int),
        ],
        ..Default::default()
    })
    .unwrap();
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_If".into(),
        transmitter_type: "If".into(),
        inheritor_type: None,
        inheriting: vec!["A".into()],
        attributes: vec![],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Impl".into(),
        inheritor_in: vec!["AllOf_If".into()],
        attributes: vec![AttrDef::new("Counter", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c
}

fn setup(n_impls: usize) -> (Db, Surrogate, Vec<Surrogate>) {
    let mut st = ObjectStore::new(catalog()).unwrap();
    let interface = st
        .create_object("If", vec![("A", Value::Int(0)), ("B", Value::Int(0))])
        .unwrap();
    let imps: Vec<Surrogate> = (0..n_impls)
        .map(|_| {
            let i = st
                .create_object("Impl", vec![("Counter", Value::Int(0))])
                .unwrap();
            st.bind("AllOf_If", interface, i, vec![]).unwrap();
            i
        })
        .collect();
    let db = Db {
        store: SharedStore::from_store(st),
        mgr: TxnManager::with_lock_manager(LockManager::with_timeout(Duration::from_millis(200))),
    };
    (db, interface, imps)
}

/// Lost-update check: concurrent increments of distinct objects all land.
#[test]
fn concurrent_increments_no_lost_updates() {
    let (db, _interface, imps) = setup(4);
    let db = Arc::new(db);
    let per_thread = 100;
    let handles: Vec<_> = imps
        .iter()
        .map(|imp| {
            let db = Arc::clone(&db);
            let imp = *imp;
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    loop {
                        let mut tx = db.begin("worker");
                        let Ok(cur) = tx.read_attr(imp, "Counter") else {
                            continue; // dropping the txn aborts it
                        };
                        let next = Value::Int(cur.as_int().unwrap() + 1);
                        if tx.write_attr(imp, "Counter", next).is_ok() && tx.commit().is_ok() {
                            break;
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for imp in imps {
        assert_eq!(
            db.store.attr(imp, "Counter").unwrap(),
            Value::Int(per_thread)
        );
    }
}

/// Deadlock-prone workload: two objects locked in opposite orders. All
/// transactions eventually succeed through abort-and-retry, and at least
/// one deadlock is detected (not a timeout storm).
#[test]
fn deadlocks_are_detected_and_recovered() {
    let (db, _interface, imps) = setup(2);
    let db = Arc::new(db);
    let a = imps[0];
    let b = imps[1];

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            let (first, second) = if t % 2 == 0 { (a, b) } else { (b, a) };
            for n in 0..30 {
                loop {
                    let mut tx = db.begin(&format!("t{t}"));
                    if tx.write_attr(first, "Counter", Value::Int(n)).is_err() {
                        continue; // dropping the txn aborts it
                    }
                    let r2 = tx
                        .write_attr(second, "Counter", Value::Int(n))
                        .and_then(|()| tx.commit());
                    match r2 {
                        Ok(_) => break,
                        Err(TxnError::Lock(_) | TxnError::WriteConflict { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Both objects ended at the final value of some thread.
    let va = db.store.attr(a, "Counter").unwrap();
    let vb = db.store.attr(b, "Counter").unwrap();
    assert_eq!(va, Value::Int(29));
    assert_eq!(vb, Value::Int(29));
}

/// Readers of inherited data and writers of non-permeable data proceed in
/// parallel; writers of permeable data serialize with the readers.
#[test]
fn lock_inheritance_allows_disjoint_parallelism() {
    let (db, interface, imps) = setup(1);
    let db = Arc::new(db);
    let imp = imps[0];

    let reader_db = Arc::clone(&db);
    let reader = std::thread::spawn(move || {
        let mut sum = 0i64;
        for _ in 0..200 {
            let tx = reader_db.begin("reader");
            if let Ok(v) = tx.read_attr(imp, "A") {
                sum += v.as_int().unwrap_or(0);
            }
            tx.commit().unwrap();
        }
        sum
    });
    // Writer on the NON-permeable attribute B never conflicts.
    let writer_db = Arc::clone(&db);
    let writer = std::thread::spawn(move || {
        let mut failures = 0;
        for n in 0..200 {
            let mut tx = writer_db.begin("writer");
            let done = tx
                .write_attr(interface, "B", Value::Int(n))
                .and_then(|()| tx.commit());
            if done.is_err() {
                failures += 1;
            }
        }
        failures
    });
    reader.join().unwrap();
    let failures = writer.join().unwrap();
    assert_eq!(
        failures, 0,
        "non-permeable writes never conflict with view readers"
    );
}

/// Durable concurrent workload: several writers through a
/// PersistentDatabase; after a crash every committed write is present.
#[test]
fn persistent_database_durability_under_concurrency() {
    use ccdb_txn::PersistentDatabase;

    let dir = tempfile::tempdir().unwrap();
    let imps: Vec<Surrogate>;
    {
        let mut st = ObjectStore::new(catalog()).unwrap();
        let interface = st
            .create_object("If", vec![("A", Value::Int(0)), ("B", Value::Int(0))])
            .unwrap();
        imps = (0..4)
            .map(|_| {
                let i = st
                    .create_object("Impl", vec![("Counter", Value::Int(0))])
                    .unwrap();
                st.bind("AllOf_If", interface, i, vec![]).unwrap();
                i
            })
            .collect();
        let pdb = Arc::new(PersistentDatabase::create(dir.path(), st).unwrap());
        let handles: Vec<_> = imps
            .iter()
            .map(|imp| {
                let pdb = Arc::clone(&pdb);
                let imp = *imp;
                std::thread::spawn(move || {
                    for n in 1..=25i64 {
                        loop {
                            let mut tx = pdb.begin("w");
                            if tx.write_attr(imp, "Counter", Value::Int(n)).is_ok() {
                                pdb.commit(tx).unwrap();
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Crash without checkpoint.
    }
    let pdb = PersistentDatabase::open(dir.path()).unwrap();
    for imp in imps {
        assert_eq!(pdb.store().attr(imp, "Counter").unwrap(), Value::Int(25));
    }
}
