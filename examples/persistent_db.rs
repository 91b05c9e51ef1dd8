//! Durable operation: a design database that survives restarts.
//!
//! Opens (or creates) a `PersistentDatabase` in a directory, runs
//! transactions whose commits are WAL-durable, simulates a crash, reopens,
//! and shows the committed state — including a transactional cascade
//! delete rolled back by abort.
//!
//! Run with: `cargo run -p ccdb-examples --bin persistent_db`

use ccdb_core::prelude::*;
use ccdb_lang::compile_str;
use ccdb_txn::PersistentDatabase;

fn fresh_store() -> ObjectStore {
    let mut catalog = Catalog::new();
    compile_str(
        r#"
        obj-type PadType =
            attributes: Size: integer;
        end PadType;

        obj-type Module =
            attributes:
                Name: char;
                Revision: integer;
            types-of-subclasses:
                Pads: PadType;
        end Module;

        inher-rel-type AllOf_Module =
            transmitter: object-of-type Module;
            inheritor: object;
            inheriting: Name, Revision, Pads;
        end AllOf_Module;

        obj-type Placement =
            inheritor-in: AllOf_Module;
            attributes: Pos: Point;
        end Placement;
        "#,
        &mut catalog,
    )
    .unwrap();
    ObjectStore::new(catalog).unwrap()
}

fn main() {
    let dir = tempfile::tempdir().unwrap();
    println!("database directory: {}", dir.path().display());

    // Session 1: create, commit, crash.
    let (module, placement, doomed);
    {
        let pdb = PersistentDatabase::create(dir.path(), fresh_store()).unwrap();
        let mut tx = pdb.begin("alice");
        module = tx
            .create_object(
                "Module",
                vec![
                    ("Name", Value::Str("CPU".into())),
                    ("Revision", Value::Int(1)),
                ],
            )
            .unwrap();
        tx.create_subobject(module, "Pads", vec![("Size", Value::Int(3))])
            .unwrap();
        placement = tx
            .create_object("Placement", vec![("Pos", Value::Point { x: 10, y: 20 })])
            .unwrap();
        tx.bind("AllOf_Module", module, placement).unwrap();
        pdb.commit(tx).unwrap();
        println!("session 1: committed module + placement (binding inherited Revision = 1)");

        // A transaction that never commits: its effects must not survive.
        let mut tx = pdb.begin("alice");
        doomed = tx
            .create_object("Module", vec![("Revision", Value::Int(666))])
            .unwrap();
        tx.write_attr(module, "Revision", Value::Int(999)).unwrap();
        // Crash before commit: drop everything.
    }

    // Session 2: reopen — recovery replays exactly the committed state.
    {
        let pdb = PersistentDatabase::open(dir.path()).unwrap();
        pdb.store().read(|st| {
            assert_eq!(st.attr(placement, "Revision").unwrap(), Value::Int(1));
            assert!(st.object(doomed).is_err(), "uncommitted module gone");
            println!(
                "session 2: recovered — placement sees Revision = {} through the binding; \
                 uncommitted work absent",
                st.attr(placement, "Revision").unwrap()
            );
        });

        // Transactional cascade delete: abort restores the module tree.
        let rel = pdb
            .store()
            .read(|st| st.binding_of(placement, "AllOf_Module").unwrap());
        let mut tx = pdb.begin("bob");
        tx.unbind(rel).unwrap();
        tx.delete(module).unwrap();
        assert!(tx.workspace().object(module).is_err());
        tx.abort();
        pdb.store().read(|st| {
            assert!(st.object(module).is_ok());
            assert_eq!(st.binding_of(placement, "AllOf_Module"), Some(rel));
        });
        println!("session 2: cascade delete aborted — module (and pads, binding) untouched");

        // Now delete for real and make it durable.
        let mut tx = pdb.begin("bob");
        tx.unbind(rel).unwrap();
        tx.delete(module).unwrap();
        pdb.commit(tx).unwrap();
        pdb.checkpoint().unwrap();
    }

    // Session 3: the delete survived.
    let pdb = PersistentDatabase::open(dir.path()).unwrap();
    pdb.store().read(|st| {
        assert!(st.object(module).is_err());
        assert!(st.object(placement).is_ok(), "placement survives, unbound");
        assert_eq!(st.attr(placement, "Revision").unwrap(), Value::Missing);
    });
    println!("session 3: committed delete is durable; placement is an unbound inheritor");
    println!("persistent_db OK");
}
