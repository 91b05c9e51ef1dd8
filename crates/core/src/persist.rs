//! Persistence bridge: save/load an [`ObjectStore`] to the durable,
//! WAL-protected KV store of `ccdb-storage`.
//!
//! Layout: key 0 holds the serialized catalog, key 1 the class directory,
//! key 2 the raised adaptation flags with their items, and each object
//! lives at
//! `OBJ_BASE + surrogate`. Objects are serialized
//! as JSON (one record per object), so individual object updates map to
//! individual transactional KV writes — [`save_object`] is what an
//! application calls after mutating one object inside a transaction, and
//! [`save_adaptation_flags`] after a write that may raise, acknowledge or
//! dissolve a flag.
//!
//! Stores saved before flags had a record of their own kept each flag as
//! `needs_adaptation: true` inside its relationship's record;
//! [`load_store`] raises those flags when the flag record is absent.

use ccdb_storage::kv::{DurableKv, KvTx};

use crate::error::{CoreError, CoreResult};
use crate::object::ObjectData;
use crate::schema::Catalog;
use crate::store::ObjectStore;
use crate::surrogate::Surrogate;
use crate::trigger::UNKNOWN_ITEM;

/// Key of the catalog record.
pub const KEY_CATALOG: u64 = 0;
/// Key of the class-directory record.
pub const KEY_CLASSES: u64 = 1;
/// Key of the record listing the inheritance relationships whose
/// adaptation flag is raised.
pub const KEY_FLAGS: u64 = 2;
/// Objects are stored at `OBJ_BASE + surrogate`.
pub const OBJ_BASE: u64 = 16;

fn codec_err<E: std::fmt::Display>(e: E) -> CoreError {
    CoreError::Codec(e.to_string())
}

/// Key under which `surrogate`'s object record is stored.
pub fn object_key(surrogate: Surrogate) -> u64 {
    OBJ_BASE + surrogate.0
}

/// Serialized class directory entry.
type ClassRow = (String, String, Vec<Surrogate>);

/// Write the complete store (catalog, classes, adaptation flags, all
/// objects) in one transaction.
pub fn save_store(store: &ObjectStore, kv: &DurableKv) -> CoreResult<()> {
    let tx = kv.begin()?;
    let cat = serde_json::to_vec(store.catalog()).map_err(codec_err)?;
    kv.put(tx, KEY_CATALOG, &cat)?;
    let classes: Vec<ClassRow> = store
        .classes_map()
        .iter()
        .map(|(name, def)| (name.clone(), def.type_name.clone(), def.members.clone()))
        .collect();
    kv.put(
        tx,
        KEY_CLASSES,
        &serde_json::to_vec(&classes).map_err(codec_err)?,
    )?;
    save_adaptation_flags(store, kv, tx)?;
    for (s, obj) in store.objects_map() {
        kv.put(
            tx,
            object_key(s),
            &serde_json::to_vec(obj).map_err(codec_err)?,
        )?;
    }
    kv.commit(tx)?;
    Ok(())
}

/// Write one object record inside an existing transaction.
pub fn save_object(store: &ObjectStore, kv: &DurableKv, tx: KvTx, s: Surrogate) -> CoreResult<()> {
    let obj = store.object(s)?;
    kv.put(
        tx,
        object_key(s),
        &serde_json::to_vec(obj).map_err(codec_err)?,
    )?;
    Ok(())
}

/// One raised adaptation flag in the flag record: relationship, items.
type FlagRow = (Surrogate, Vec<String>);

/// Rewrite the record of raised adaptation flags inside an existing
/// transaction.
pub fn save_adaptation_flags(store: &ObjectStore, kv: &DurableKv, tx: KvTx) -> CoreResult<()> {
    let flags: Vec<FlagRow> = store
        .adaptation_flags()
        .map(|(rel, items)| (rel, (**items).clone()))
        .collect();
    kv.put(
        tx,
        KEY_FLAGS,
        &serde_json::to_vec(&flags).map_err(codec_err)?,
    )?;
    Ok(())
}

/// Decode the flag record. One of bare surrogates, written before flags
/// kept their items, loads each flag with the item [`UNKNOWN_ITEM`].
fn decode_flags(bytes: &[u8]) -> CoreResult<Vec<FlagRow>> {
    let bare = |rels: Vec<Surrogate>| rels.into_iter().map(|r| (r, vec![UNKNOWN_ITEM.into()]));
    let rows = serde_json::from_slice(bytes);
    rows.or_else(|_| serde_json::from_slice(bytes).map(|rels| bare(rels).collect()))
        .map_err(codec_err)
}

/// Whether an object record carries the flag the pre-flag-record layout
/// kept inside `InheritanceRel`.
fn legacy_flag(bytes: &[u8]) -> CoreResult<bool> {
    let v: serde_json::Value = serde_json::from_slice(bytes).map_err(codec_err)?;
    Ok(v["kind"]["InheritanceRel"]["needs_adaptation"].as_bool() == Some(true))
}

/// Delete one object record inside an existing transaction.
pub fn delete_object(kv: &DurableKv, tx: KvTx, s: Surrogate) -> CoreResult<()> {
    kv.delete(tx, object_key(s))?;
    Ok(())
}

/// Load a complete store from the KV store.
pub fn load_store(kv: &DurableKv) -> CoreResult<ObjectStore> {
    let cat_bytes = kv
        .get(KEY_CATALOG)?
        .ok_or_else(|| CoreError::Storage("no catalog record; store never saved".into()))?;
    let catalog: Catalog = serde_json::from_slice(&cat_bytes).map_err(codec_err)?;
    let classes: Vec<ClassRow> = match kv.get(KEY_CLASSES)? {
        Some(bytes) => serde_json::from_slice(&bytes).map_err(codec_err)?,
        None => vec![],
    };
    let flags = match kv.get(KEY_FLAGS)? {
        Some(bytes) => Some(decode_flags(&bytes)?),
        None => None,
    };
    let mut objects = Vec::new();
    let mut legacy_flags = Vec::new();
    for (key, bytes) in kv.scan()? {
        if key < OBJ_BASE {
            continue;
        }
        let obj: ObjectData = serde_json::from_slice(&bytes).map_err(codec_err)?;
        if flags.is_none() && legacy_flag(&bytes)? {
            legacy_flags.push((obj.surrogate, vec![UNKNOWN_ITEM.into()]));
        }
        objects.push(obj);
    }
    let mut store = ObjectStore::restore(catalog, objects, classes)?;
    // A relationship dissolved and persisted with `delete_object` alone
    // leaves its flag in the record; such a flag names nothing and is
    // dropped. A flag on a live object that is no relationship is refused
    // below.
    for (rel, items) in flags.unwrap_or(legacy_flags) {
        if store.object(rel).is_ok() {
            store.restore_adaptation_flag(rel, items);
        }
    }
    // A persisted store may have been edited (or corrupted) outside this
    // process; re-verify the structural invariants — notably the absence of
    // binding cycles and of flags on anything but a live relationship —
    // before handing it to resolution.
    let problems = store.verify_integrity();
    if !problems.is_empty() {
        return Err(CoreError::Storage(format!(
            "persisted store fails integrity verification ({} problem(s)): {}",
            problems.len(),
            problems.join("; ")
        )));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::{AttrDef, InherRelTypeDef, ObjectTypeDef, SubclassSpec};
    use crate::value::Value;

    fn sample_store() -> (ObjectStore, Surrogate, Surrogate) {
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
            inheriting: vec!["Length".into(), "Pins".into()],
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
        let mut store = ObjectStore::new(c).unwrap();
        store.create_class("Interfaces", "If").unwrap();
        let interface = store
            .create_in_class("Interfaces", vec![("Length", Value::Int(5))])
            .unwrap();
        store
            .create_subobject(interface, "Pins", vec![("Id", Value::Int(1))])
            .unwrap();
        let implementation = store.create_object("Impl", vec![]).unwrap();
        store
            .bind("AllOf_If", interface, implementation, vec![])
            .unwrap();
        (store, interface, implementation)
    }

    #[test]
    fn save_and_load_roundtrip() {
        let (store, interface, implementation) = sample_store();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();

        let loaded = load_store(&kv).unwrap();
        assert_eq!(loaded.object_count(), store.object_count());
        // Inheritance still resolves after reload.
        assert_eq!(
            loaded.attr(implementation, "Length").unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            loaded
                .subclass_members(implementation, "Pins")
                .unwrap()
                .len(),
            1
        );
        // Classes restored.
        assert_eq!(loaded.class_members("Interfaces").unwrap(), &[interface]);
        // Indexes restored: transmitter still protected from deletion.
        let mut loaded = loaded;
        assert!(matches!(
            loaded.delete(interface),
            Err(CoreError::TransmitterInUse { .. })
        ));
    }

    #[test]
    fn adaptation_flags_survive_save_and_load() {
        let (mut store, interface, implementation) = sample_store();
        let rel = store.binding_of(implementation, "AllOf_If").unwrap();
        store.set_attr(interface, "Length", Value::Int(6)).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();
        assert!(load_store(&kv).unwrap().needs_adaptation(rel).unwrap());

        store.acknowledge_adaptation(rel).unwrap();
        save_store(&store, &kv).unwrap();
        assert!(!load_store(&kv).unwrap().needs_adaptation(rel).unwrap());

        // A flag record naming a plain object is refused like any other
        // integrity violation.
        let tx = kv.begin().unwrap();
        let forged = serde_json::to_vec(&vec![interface]).unwrap();
        kv.put(tx, KEY_FLAGS, &forged).unwrap();
        kv.commit(tx).unwrap();
        assert!(matches!(load_store(&kv), Err(CoreError::Storage(_))));
    }

    #[test]
    fn triggers_survive_save_and_load() {
        use crate::trigger::{TriggerOutcome, TriggerRegistry};

        let (mut store, interface, implementation) = sample_store();
        let rel = store.binding_of(implementation, "AllOf_If").unwrap();
        store.set_attr(interface, "Length", Value::Int(6)).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();

        let mut loaded = load_store(&kv).unwrap();
        let mut triggers = TriggerRegistry::new();
        triggers.register("AllOf_If", move |_, ev| {
            assert_eq!((ev.rel_object, &*ev.item), (rel, "Length"));
            Ok(TriggerOutcome::Handled)
        });
        let report = triggers.process(&mut loaded).unwrap();
        assert_eq!((report.events, report.handled), (1, 1));
        assert!(!loaded.needs_adaptation(rel).unwrap());
    }

    #[test]
    fn a_flag_record_of_bare_surrogates_loads_with_unknown_items() {
        let (store, _, implementation) = sample_store();
        let rel = store.binding_of(implementation, "AllOf_If").unwrap();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();
        let tx = kv.begin().unwrap();
        let bare = serde_json::to_vec(&vec![rel]).unwrap();
        kv.put(tx, KEY_FLAGS, &bare).unwrap();
        kv.commit(tx).unwrap();

        let loaded = load_store(&kv).unwrap();
        assert!(loaded.needs_adaptation(rel).unwrap());
        let (flagged, items) = loaded.adaptation_flags().next().unwrap();
        assert_eq!((flagged, &**items), (rel, &vec![UNKNOWN_ITEM.to_string()]));
    }

    #[test]
    fn stale_flag_of_a_deleted_relationship_is_dropped_on_load() {
        let (mut store, interface, implementation) = sample_store();
        let rel = store.binding_of(implementation, "AllOf_If").unwrap();
        store.set_attr(interface, "Length", Value::Int(6)).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();

        // Persist the unbind incrementally, without rewriting the flags.
        store.unbind(rel).unwrap();
        let tx = kv.begin().unwrap();
        save_object(&store, &kv, tx, implementation).unwrap();
        delete_object(&kv, tx, rel).unwrap();
        kv.commit(tx).unwrap();

        let loaded = load_store(&kv).unwrap();
        assert!(loaded.object(rel).is_err());
        assert_eq!(loaded.adaptation_flags().count(), 0);
    }

    #[test]
    fn flags_kept_inside_relationship_records_are_raised_on_load() {
        let (store, _, implementation) = sample_store();
        let rel = store.binding_of(implementation, "AllOf_If").unwrap();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();

        // Rewrite the store in the earlier layout: no flag record, the flag
        // inside the relationship's record.
        let record = serde_json::to_string(store.object(rel).unwrap()).unwrap();
        let legacy = record.replace(
            "\"InheritanceRel\":{",
            "\"InheritanceRel\":{\"needs_adaptation\":true,",
        );
        assert_ne!(legacy, record);
        let tx = kv.begin().unwrap();
        kv.delete(tx, KEY_FLAGS).unwrap();
        kv.put(tx, object_key(rel), legacy.as_bytes()).unwrap();
        kv.commit(tx).unwrap();

        let loaded = load_store(&kv).unwrap();
        assert!(loaded.needs_adaptation(rel).unwrap());
    }

    #[test]
    fn surrogates_continue_after_reload() {
        let (store, ..) = sample_store();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();
        let mut loaded = load_store(&kv).unwrap();
        let fresh = loaded.create_object("If", vec![]).unwrap();
        assert!(
            store.surrogates().all(|s| s != fresh),
            "new surrogate must not collide with persisted ones"
        );
    }

    #[test]
    fn incremental_object_save() {
        let (mut store, interface, _) = sample_store();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();

        store.set_attr(interface, "Length", Value::Int(99)).unwrap();
        let tx = kv.begin().unwrap();
        save_object(&store, &kv, tx, interface).unwrap();
        kv.commit(tx).unwrap();

        let loaded = load_store(&kv).unwrap();
        assert_eq!(loaded.attr(interface, "Length").unwrap(), Value::Int(99));
    }

    #[test]
    fn load_without_catalog_fails_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        assert!(matches!(load_store(&kv), Err(CoreError::Storage(_))));
    }

    #[test]
    fn corrupted_store_with_binding_cycle_refused_on_load() {
        use crate::object::ObjectKind;

        let (store, ..) = sample_store();
        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();

        // Forge two records that form an inheritance-binding cycle — the
        // kind of damage an external editor (or bit rot) could introduce.
        let imp = Surrogate(100);
        let rel = Surrogate(101);
        let mut imp_obj = ObjectData::plain(imp, "Impl");
        imp_obj.bindings.insert("AllOf_If".into(), rel);
        let rel_obj = ObjectData {
            surrogate: rel,
            type_name: "AllOf_If".into(),
            kind: ObjectKind::InheritanceRel {
                transmitter: imp,
                inheritor: imp,
            },
            owner: None,
            attrs: Default::default(),
            subclasses: Default::default(),
            bindings: Default::default(),
        };
        let tx = kv.begin().unwrap();
        for obj in [&imp_obj, &rel_obj] {
            kv.put(
                tx,
                object_key(obj.surrogate),
                &serde_json::to_vec(obj).unwrap(),
            )
            .unwrap();
        }
        kv.commit(tx).unwrap();

        let err = match load_store(&kv) {
            Err(e) => e,
            Ok(_) => panic!("corrupted store loaded successfully"),
        };
        assert!(
            matches!(&err, CoreError::Storage(msg) if msg.contains("integrity")),
            "got {err:?}"
        );
    }

    #[test]
    fn survives_crash_via_wal() {
        let (store, interface, implementation) = sample_store();
        let dir = tempfile::tempdir().unwrap();
        {
            let kv = DurableKv::open(dir.path()).unwrap();
            save_store(&store, &kv).unwrap();
            // no checkpoint: drop simulates crash after commit
        }
        let kv = DurableKv::open(dir.path()).unwrap();
        let loaded = load_store(&kv).unwrap();
        assert_eq!(
            loaded.attr(implementation, "Length").unwrap(),
            Value::Int(5)
        );
        assert_eq!(loaded.class_members("Interfaces").unwrap(), &[interface]);
    }
}

#[cfg(test)]
mod large_object_tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::{AttrDef, ObjectTypeDef};
    use crate::value::Value;

    #[test]
    fn objects_exceeding_a_page_persist() {
        let mut c = Catalog::new();
        c.register_object_type(ObjectTypeDef {
            name: "Polyline".into(),
            attributes: vec![AttrDef::new(
                "Points",
                Domain::ListOf(Box::new(Domain::Point)),
            )],
            ..Default::default()
        })
        .unwrap();
        let mut store = ObjectStore::new(c).unwrap();
        // ~5000 points ≈ 100+ KiB of JSON — far beyond one 8 KiB page.
        let points: Vec<Value> = (0..5000).map(|i| Value::Point { x: i, y: -i }).collect();
        let poly = store
            .create_object("Polyline", vec![("Points", Value::List(points.clone()))])
            .unwrap();

        let dir = tempfile::tempdir().unwrap();
        let kv = DurableKv::open(dir.path()).unwrap();
        save_store(&store, &kv).unwrap();
        let reloaded = load_store(&kv).unwrap();
        assert_eq!(reloaded.attr(poly, "Points").unwrap(), Value::List(points));
    }
}
