//! Integration test of the §5 steel-construction scenario combined with
//! design transactions and relationship-based conflict detection.

use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};
use ccdb_lang::paper::steel_catalog;
use ccdb_txn::{potential_conflicts, ConflictKind, TxnError, TxnManager};

/// Build the library + one structure (smaller sibling of the bench
/// generator, kept local so this test exercises the public API directly).
fn build() -> (ObjectStore, Surrogate, Surrogate, Surrogate) {
    let mut st = ObjectStore::new(steel_catalog().unwrap()).unwrap();
    let girder_if = st
        .create_object(
            "GirderInterface",
            vec![
                ("Length", Value::Int(100)),
                ("Height", Value::Int(10)),
                ("Width", Value::Int(5)),
            ],
        )
        .unwrap();
    let g_bore = st
        .create_subobject(
            girder_if,
            "Bores",
            vec![
                ("Diameter", Value::Int(6)),
                ("Length", Value::Int(7)),
                ("Position", Value::Point { x: 0, y: 0 }),
            ],
        )
        .unwrap();
    let plate_if = st
        .create_object(
            "PlateInterface",
            vec![
                ("Thickness", Value::Int(3)),
                (
                    "Area",
                    Value::record(vec![
                        ("Length".into(), Value::Int(40)),
                        ("Width".into(), Value::Int(20)),
                    ]),
                ),
            ],
        )
        .unwrap();
    let p_bore = st
        .create_subobject(
            plate_if,
            "Bores",
            vec![
                ("Diameter", Value::Int(6)),
                ("Length", Value::Int(3)),
                ("Position", Value::Point { x: 0, y: 0 }),
            ],
        )
        .unwrap();
    let bolt = st
        .create_object(
            "BoltType",
            vec![("Length", Value::Int(12)), ("Diameter", Value::Int(6))],
        )
        .unwrap();
    let nut = st
        .create_object(
            "NutType",
            vec![("Length", Value::Int(2)), ("Diameter", Value::Int(6))],
        )
        .unwrap();
    let structure = st
        .create_object(
            "WeightCarrying_Structure",
            vec![
                ("Designer", Value::Str("test".into())),
                ("Description", Value::Str("t".into())),
            ],
        )
        .unwrap();
    let g = st.create_subobject(structure, "Girders", vec![]).unwrap();
    st.bind("AllOf_GirderIf", girder_if, g, vec![]).unwrap();
    let p = st.create_subobject(structure, "Plates", vec![]).unwrap();
    st.bind("AllOf_PlateIf", plate_if, p, vec![]).unwrap();
    let screwing = st
        .create_subrel(
            structure,
            "Screwings",
            vec![("Bores", vec![g_bore, p_bore])],
            vec![("Strength", Value::Int(10))],
        )
        .unwrap();
    let b = st.create_rel_subobject(screwing, "Bolt", vec![]).unwrap();
    st.bind("AllOf_BoltType", bolt, b, vec![]).unwrap();
    let n = st.create_rel_subobject(screwing, "Nut", vec![]).unwrap();
    st.bind("AllOf_NutType", nut, n, vec![]).unwrap();
    (st, structure, girder_if, bolt)
}

#[test]
fn structure_is_consistent_and_constraints_localize_faults() {
    let (mut st, structure, _girder_if, bolt) = build();
    assert!(st.check_all().unwrap().is_empty());

    // Fault 1: nut/bolt diameter mismatch.
    st.set_attr(bolt, "Diameter", Value::Int(7)).unwrap();
    let v = st.check_all().unwrap();
    assert!(!v.is_empty());
    assert!(v.iter().all(|x| x.constraint.contains("Diameter")), "{v:?}");
    st.set_attr(bolt, "Diameter", Value::Int(6)).unwrap();

    // Fault 2: a screwing bore outside the structure's components.
    let foreign_bore = {
        let girder2 = st
            .create_object(
                "GirderInterface",
                vec![
                    ("Length", Value::Int(50)),
                    ("Height", Value::Int(5)),
                    ("Width", Value::Int(5)),
                ],
            )
            .unwrap();
        st.create_subobject(
            girder2,
            "Bores",
            vec![
                ("Diameter", Value::Int(6)),
                ("Length", Value::Int(7)),
                ("Position", Value::Point { x: 9, y: 9 }),
            ],
        )
        .unwrap()
    };
    let nut2 = st
        .create_object(
            "NutType",
            vec![("Length", Value::Int(5)), ("Diameter", Value::Int(6))],
        )
        .unwrap();
    let bad_screwing = st
        .create_subrel(
            structure,
            "Screwings",
            vec![("Bores", vec![foreign_bore])],
            vec![("Strength", Value::Int(1))],
        )
        .unwrap();
    let b2 = st
        .create_rel_subobject(bad_screwing, "Bolt", vec![])
        .unwrap();
    st.bind("AllOf_BoltType", bolt, b2, vec![]).unwrap();
    let n2 = st
        .create_rel_subobject(bad_screwing, "Nut", vec![])
        .unwrap();
    st.bind("AllOf_NutType", nut2, n2, vec![]).unwrap();
    let v = st.check_constraints(structure).unwrap();
    assert!(
        v.iter()
            .any(|x| x.constraint.contains("Screwings where-clause")),
        "the `x in Girders.Bores or x in Plates.Bores` clause must fire: {v:?}"
    );
}

#[test]
fn design_sessions_and_conflict_detection() {
    let (st, structure, girder_if, bolt) = build();
    let g_component = st.subclass_members(structure, "Girders").unwrap()[0];
    let store = SharedStore::from_store(st);
    let mgr = TxnManager::new();

    // Two designers check out the design and work on overlapping parts of
    // it, in private workspaces, holding no locks.
    let mut alice = mgr.checkout("alice", &store, &[girder_if]).unwrap();
    let mut bob = mgr.checkout("bob", &store, &[girder_if, bolt]).unwrap();
    alice
        .write_attr(girder_if, "Length", Value::Int(120))
        .unwrap();
    bob.write_attr(girder_if, "Length", Value::Int(130))
        .unwrap();
    bob.write_attr(bolt, "Length", Value::Int(14)).unwrap();

    // Conflict analysis over their write sets: both touch the girder
    // interface → SameObject; bolt vs girder-if are unrelated.
    let st = store.snapshot();
    let conflicts = potential_conflicts(&st, &alice.write_set(), &bob.write_set());
    assert_eq!(conflicts.len(), 1);
    assert_eq!(conflicts[0].kind, ConflictKind::SameObject);

    // The structure's component subobject is related to the interface by an
    // inheritance edge — a transaction updating the interface potentially
    // conflicts with one updating the component.
    let conflicts = potential_conflicts(&st, &[girder_if], &[g_component]);
    assert!(conflicts
        .iter()
        .any(|c| c.kind == ConflictKind::InheritanceEdge));

    // Optimistic check-in: alice lands, bob's overlapping session is stale
    // and nothing of it — the bolt edit included — is applied.
    alice.commit().unwrap();
    assert!(matches!(
        bob.commit(),
        Err(TxnError::WriteConflict { obj, .. }) if obj == girder_if
    ));
    assert_eq!(store.attr(girder_if, "Length").unwrap(), Value::Int(120));
    assert_eq!(store.attr(bolt, "Length").unwrap(), Value::Int(12));

    // The structure's view reflects alice's change instantly.
    assert_eq!(store.attr(g_component, "Length").unwrap(), Value::Int(120));
}
