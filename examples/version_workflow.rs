//! Multi-designer workflow: transactions, lock inheritance, access control,
//! long design transactions, and version management together (paper §6).
//!
//! Run with: `cargo run -p ccdb-examples --bin version_workflow`

use std::time::Duration;

use ccdb_core::domain::Domain;
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::Value;
use ccdb_txn::lock::LockManager;
use ccdb_txn::txn::{TxnError, TxnManager};
use ccdb_txn::Right;
use ccdb_version::{
    Configuration, EnvironmentRegistry, GenericBindings, GenericRef, RebindOutcome, Selector,
    VersionManager, VersionStatus,
};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_object_type(ObjectTypeDef {
        name: "CellInterface".into(),
        attributes: vec![
            AttrDef::new("Area", Domain::Int),
            AttrDef::new("Delay", Domain::Int),
        ],
        ..Default::default()
    })
    .unwrap();
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_Cell".into(),
        transmitter_type: "CellInterface".into(),
        inheritor_type: None,
        inheriting: vec!["Area".into()],
        attributes: vec![],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "ChipPart".into(),
        inheritor_in: vec!["AllOf_Cell".into()],
        attributes: vec![AttrDef::new("Placement", Domain::Point)],
        ..Default::default()
    })
    .unwrap();
    c
}

fn main() {
    // ---------------------------------------------------------------
    // Setup: a standard-cell library (versioned) and a chip using it.
    // ---------------------------------------------------------------
    let mut store = ObjectStore::new(catalog()).unwrap();
    let mut vm = VersionManager::new();
    vm.create_set("StdCell").unwrap();
    let cell_v1 = store
        .create_object(
            "CellInterface",
            vec![("Area", Value::Int(100)), ("Delay", Value::Int(9))],
        )
        .unwrap();
    let v1 = vm.add_version("StdCell", cell_v1, &[]).unwrap();
    vm.set_status("StdCell", v1, VersionStatus::Released)
        .unwrap();

    let part = store
        .create_object("ChipPart", vec![("Placement", Value::Point { x: 1, y: 2 })])
        .unwrap();
    store.bind("AllOf_Cell", cell_v1, part, vec![]).unwrap();

    // One shared MVCC store, one transaction manager (locks + access
    // control) over it.
    let db = SharedStore::from_store(store);
    let txns = TxnManager::with_lock_manager(LockManager::with_timeout(Duration::from_millis(50)));

    // ---------------------------------------------------------------
    // Lock inheritance: alice reads the part's inherited Area — this
    // read-locks only (cell, Area). bob can still update Delay, but not
    // Area, until alice commits.
    // ---------------------------------------------------------------
    let alice = txns.begin("alice", &db);
    let area = alice.read_attr(part, "Area").unwrap();
    println!("alice reads part.Area = {area} (inherited; locks the permeable item)");

    let mut bob = txns.begin("bob", &db);
    bob.write_attr(cell_v1, "Delay", Value::Int(8)).unwrap();
    println!("bob updates cell.Delay concurrently: OK (not permeable)");
    match bob.write_attr(cell_v1, "Area", Value::Int(120)) {
        Err(TxnError::Lock(e)) => println!("bob updates cell.Area: blocked ({e})"),
        other => panic!("expected lock conflict, got {other:?}"),
    }
    bob.abort();
    alice.commit().unwrap();

    // ---------------------------------------------------------------
    // Access control: the standard cell is read-only for designers; an
    // expansion-for-update degrades its lock to S instead of failing.
    // ---------------------------------------------------------------
    txns.with_access_mut(|ac| ac.grant_object("carol", cell_v1, Right::Read));
    let carol = txns.begin("carol", &db);
    let writable = carol.expand_update(part).unwrap();
    println!(
        "carol expands the part for update: {} writable object(s); the standard cell is protected",
        writable.len()
    );
    assert!(!writable.contains(&cell_v1));
    carol.commit().unwrap();

    // ---------------------------------------------------------------
    // Long design transaction: dave designs a new cell version in a
    // private workspace — the same transaction object, checked out
    // optimistically (no locks held for the session) and checked in by
    // its commit.
    // ---------------------------------------------------------------
    let mut session = txns.checkout("dave", &db, &[]).unwrap();
    let cell_v2 = session
        .create_object(
            "CellInterface",
            vec![("Area", Value::Int(90)), ("Delay", Value::Int(7))],
        )
        .unwrap();
    session.write_attr(cell_v2, "Area", Value::Int(85)).unwrap();
    assert!(db.read(|st| st.object(cell_v2).is_err()), "still private");
    session.commit().unwrap();
    println!("dave's design session checked in: new cell Area = 85");

    // ---------------------------------------------------------------
    // Version release + generic rebinding: the chip part follows the
    // latest released cell.
    // ---------------------------------------------------------------
    let v2 = vm.add_version("StdCell", cell_v2, &[v1]).unwrap();
    vm.set_status("StdCell", v2, VersionStatus::Released)
        .unwrap();
    let mut gb = GenericBindings::new();
    gb.register(GenericRef {
        inheritor: part,
        rel_type: "AllOf_Cell".into(),
        set: "StdCell".into(),
        selector: Selector::LatestWithStatus(VersionStatus::Released),
    });
    let envs = EnvironmentRegistry::new();
    let report = db.write(|st| gb.refresh(st, &vm, &envs));
    match &report[0].1 {
        RebindOutcome::Rebound { from, to } => {
            println!("part rebound from {from:?} to {to} (new released version)")
        }
        other => panic!("expected rebind, got {other:?}"),
    }
    let new_area = db.read(|st| st.attr(part, "Area").unwrap());
    println!("part.Area now = {new_area} (inherited from the new version)");
    assert_eq!(new_area, Value::Int(85));

    // ---------------------------------------------------------------
    // Configuration control: snapshot the shipped binding state, move the
    // design forward, then restore the shipped configuration exactly.
    // ---------------------------------------------------------------
    let shipped = db.read(|st| Configuration::capture("ship-1", st, part).unwrap());
    // Design marches on: rebind the part back to v1.
    db.write(|st| {
        let rel = st.binding_of(part, "AllOf_Cell").unwrap();
        st.unbind(rel).unwrap();
        st.bind("AllOf_Cell", cell_v1, part, vec![]).unwrap();
    });
    assert_eq!(
        db.read(|st| st.attr(part, "Area").unwrap()),
        Value::Int(100)
    );
    let report = db.write(|st| shipped.apply(st));
    println!(
        "configuration `{}` re-applied: {} slot(s) rebound — part.Area = {}",
        shipped.name,
        report.rebound,
        db.read(|st| st.attr(part, "Area").unwrap())
    );
    assert_eq!(db.read(|st| st.attr(part, "Area").unwrap()), Value::Int(85));
    println!("version_workflow OK");
}
