//! Property test for the resolution value cache: a cached store and a
//! cache-disabled shadow store receive the same random operation stream,
//! and after every operation every resolvable attribute must read the same
//! through both. This is the §4.1 instant-visibility guarantee — the memo
//! may never serve a stale value past a write, a (re)bind, an unbind, a
//! move to another transmitter, or a delete and re-create. No write touches
//! the memo; each read validates what an entry depends on, so the streams
//! run on a standalone store (one that never changes version) and on a
//! shared one whose old snapshots stay pinned and keep reading — and
//! filling the one shared memo — while newer versions are published.
//!
//! The same streams check `select`: after every operation, predicates that
//! the store answers from the transmitters, from the rows, or from both
//! must select what `eval` selects row by row, in both stores.

use ccdb_core::domain::Domain;
use ccdb_core::expr::{eval, BinOp, Env, Expr, PathExpr};
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};
use proptest::prelude::*;

/// Two-hop abstraction chain: `If` transmits X/Y to `Mid`, which re-exports
/// both to `Leaf`. `Mid` and `Leaf` each add a local attribute.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_object_type(ObjectTypeDef {
        name: "If".into(),
        attributes: vec![
            AttrDef::new("X", Domain::Int),
            AttrDef::new("Y", Domain::Int),
        ],
        ..Default::default()
    })
    .unwrap();
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_If".into(),
        transmitter_type: "If".into(),
        inheritor_type: None,
        inheriting: vec!["X".into(), "Y".into()],
        attributes: vec![],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Mid".into(),
        inheritor_in: vec!["AllOf_If".into()],
        attributes: vec![AttrDef::new("M", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_Mid".into(),
        transmitter_type: "Mid".into(),
        inheritor_type: None,
        inheriting: vec!["X".into(), "Y".into()],
        attributes: vec![],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Leaf".into(),
        inheritor_in: vec!["AllOf_Mid".into()],
        attributes: vec![AttrDef::new("L", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c
}

struct Population {
    ifs: Vec<Surrogate>,
    mids: Vec<Surrogate>,
    leafs: Vec<Surrogate>,
}

/// Two `If`s, four `Mid`s and eight `Leaf`s, so each level has fewer
/// transmitters than inheritors; the ops below only touch the first two of
/// each, and `Mid` k inherits from `If` k % 2, `Leaf` k from `Mid` k % 4.
fn populate(st: &mut ObjectStore) -> Population {
    let ifs: Vec<Surrogate> = (0..2)
        .map(|k| {
            st.create_object("If", vec![("X", Value::Int(k)), ("Y", Value::Int(k + 10))])
                .unwrap()
        })
        .collect();
    let mids: Vec<Surrogate> = (0..4)
        .map(|k| st.create_object("Mid", vec![("M", Value::Int(k))]).unwrap())
        .collect();
    let leafs: Vec<Surrogate> = (0..8)
        .map(|k| {
            st.create_object("Leaf", vec![("L", Value::Int(k))])
                .unwrap()
        })
        .collect();
    for (k, mid) in mids.iter().enumerate() {
        st.bind("AllOf_If", ifs[k % 2], *mid, vec![]).unwrap();
    }
    for (k, leaf) in leafs.iter().enumerate() {
        st.bind("AllOf_Mid", mids[k % 4], *leaf, vec![]).unwrap();
    }
    Population { ifs, mids, leafs }
}

/// Apply one op to a store. Decisions (e.g. bind vs unbind) depend only on
/// store state, which is identical in both stores by induction.
fn apply(st: &mut ObjectStore, p: &Population, op: usize, t: usize, v: i64) {
    match op {
        0 => st.set_attr(p.ifs[t], "X", Value::Int(v)).unwrap(),
        1 => st.set_attr(p.ifs[t], "Y", Value::Int(v)).unwrap(),
        2 => {
            // Toggle the mid-level binding (invalidate the whole sub-chain).
            match st.binding_of(p.mids[t], "AllOf_If") {
                Some(rel) => st.unbind(rel).unwrap(),
                None => {
                    st.bind("AllOf_If", p.ifs[t], p.mids[t], vec![]).unwrap();
                }
            }
        }
        3 => {
            // Toggle the leaf-level binding.
            match st.binding_of(p.leafs[t], "AllOf_Mid") {
                Some(rel) => st.unbind(rel).unwrap(),
                None => {
                    st.bind("AllOf_Mid", p.mids[t], p.leafs[t], vec![]).unwrap();
                }
            }
        }
        4 => {
            // Move the mid-level binding to the other interface.
            if let Some(rel) = st.binding_of(p.mids[t], "AllOf_If") {
                st.unbind(rel).unwrap();
            }
            st.bind("AllOf_If", p.ifs[1 - t], p.mids[t], vec![])
                .unwrap();
        }
        _ => {
            // Delete a leaf and create it again under the same surrogate
            // (as a transaction replay does): the re-created, re-bound leaf
            // must resolve the *current* transmitter values afterwards.
            let leaf = p.leafs[t];
            let was_bound = st.binding_of(leaf, "AllOf_Mid").is_some();
            st.delete(leaf).unwrap();
            st.create_as(leaf, |st| st.create_object("Leaf", vec![]))
                .unwrap();
            if was_bound {
                st.bind("AllOf_Mid", p.mids[t], leaf, vec![]).unwrap();
            }
        }
    }
}

/// Read every attribute of every object, as comparable values (errors are
/// part of the observable behavior and must match too).
fn observe(st: &ObjectStore, p: &Population) -> Vec<Result<Value, String>> {
    let mut out = Vec::new();
    for s in p.ifs.iter().chain(&p.mids).chain(&p.leafs) {
        for name in ["X", "Y"] {
            out.push(st.attr(*s, name).map_err(|e| e.to_string()));
        }
    }
    out
}

fn path(name: &str) -> Expr {
    Expr::Path(PathExpr::self_path(&[name]))
}

fn cmp(op: BinOp, name: &str, v: i64) -> Expr {
    Expr::bin(op, path(name), Expr::int(v))
}

fn and(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinOp::And, lhs, rhs)
}

/// Predicates over `X`/`Y` (inherited) and `local` (the type's own
/// attribute): a leading run on inherited attributes alone, a local
/// condition first, and each followed by the other.
fn predicates(local: &str, v: i64) -> Vec<Expr> {
    vec![
        cmp(BinOp::Ge, "X", v),
        and(cmp(BinOp::Ge, "X", v), cmp(BinOp::Lt, "Y", v + 20)),
        Expr::Not(Box::new(cmp(BinOp::Eq, "Y", v))),
        Expr::eq(Expr::bin(BinOp::Add, path("X"), path("Y")), Expr::int(v)),
        cmp(BinOp::Lt, local, 3),
        and(cmp(BinOp::Lt, local, 3), cmp(BinOp::Ge, "X", v)),
        and(cmp(BinOp::Ne, "X", v), cmp(BinOp::Lt, local, 3)),
        and(
            and(cmp(BinOp::Le, "Y", v), cmp(BinOp::Ne, "X", v)),
            cmp(BinOp::Ge, local, 1),
        ),
    ]
}

/// `eval` on every member of the extent, in surrogate order; the first
/// error is the answer.
fn row_loop(st: &ObjectStore, ty: &str, pred: &Expr) -> Result<Vec<Surrogate>, String> {
    let mut hits = Vec::new();
    for s in st.extent_of(ty) {
        match eval(st, s, &mut Env::new(), pred) {
            Ok(Value::Bool(true)) => hits.push(s),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(hits)
}

/// `select` on `Mid` and `Leaf` for every predicate shape, checked against
/// the row loop, as comparable results.
fn selections(st: &ObjectStore, v: i64) -> Vec<Result<Vec<Surrogate>, String>> {
    let mut out = Vec::new();
    for (ty, local) in [("Mid", "M"), ("Leaf", "L")] {
        for pred in predicates(local, v) {
            let got = st.select(ty, &pred).map_err(|e| e.to_string());
            assert_eq!(got, row_loop(st, ty, &pred), "select {ty} where {pred}");
            out.push(got);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_store_always_agrees_with_uncached(
        ops in proptest::collection::vec((0usize..6, 0usize..2, -100i64..100), 1..50)
    ) {
        // Shard count is a pure performance knob: the same stream must
        // agree with the cache-disabled shadow at one shard (the old
        // single-lock shape), a few, and the default-scale sixteen.
        for shards in [1usize, 4, 16] {
            let mut cached =
                ObjectStore::with_resolution_cache_shards(catalog(), shards).unwrap();
            let mut shadow = ObjectStore::new(catalog()).unwrap();
            shadow.set_resolution_cache(false);
            prop_assert!(cached.resolution_cache_enabled());
            prop_assert_eq!(cached.resolution_cache_shards(), shards);

            // Deterministic surrogate generation keeps the two populations
            // aligned: the k-th create in each store yields the same
            // surrogate.
            let p_cached = populate(&mut cached);
            let p_shadow = populate(&mut shadow);
            prop_assert_eq!(&p_cached.ifs, &p_shadow.ifs);
            prop_assert_eq!(&p_cached.leafs, &p_shadow.leafs);

            for (op, t, v) in &ops {
                apply(&mut cached, &p_cached, *op, *t, *v);
                apply(&mut shadow, &p_shadow, *op, *t, *v);
                prop_assert_eq!(
                    observe(&cached, &p_cached),
                    observe(&shadow, &p_shadow),
                    "divergence after op {} on target {} with {} shards", op, t, shards
                );
                prop_assert_eq!(
                    selections(&cached, *v),
                    selections(&shadow, *v),
                    "select divergence after op {} on target {} with {} shards", op, t, shards
                );
            }
            prop_assert!(cached.verify_integrity().is_empty());
            // The shadow never cached anything; the cached store's stats
            // add up.
            prop_assert_eq!(shadow.stats().rescache_hits, 0);
            prop_assert_eq!(shadow.stats().rescache_misses, 0);
        }
    }

    /// The same streams on a shared store, one write cycle per op, while
    /// snapshots pinned before earlier ops keep reading: each old reader
    /// sees exactly the state it pinned, and the newest reader — served
    /// from the memo those old readers keep filling — sees the current one.
    #[test]
    fn pinned_old_snapshot_readers_agree_with_uncached(
        ops in proptest::collection::vec((0usize..6, 0usize..2, -100i64..100), 1..40),
        pin_every in 1usize..4,
    ) {
        let mut base = ObjectStore::new(catalog()).unwrap();
        let mut shadow = ObjectStore::new(catalog()).unwrap();
        shadow.set_resolution_cache(false);
        let p = populate(&mut base);
        let p_shadow = populate(&mut shadow);
        let shared = SharedStore::from_store(base);
        let mut pinned = Vec::new();
        for (k, (op, t, v)) in ops.iter().enumerate() {
            if k % pin_every == 0 {
                if pinned.len() == 4 {
                    pinned.remove(0);
                }
                pinned.push((shared.snapshot(), observe(&shadow, &p_shadow)));
            }
            shared.write(|st| apply(st, &p, *op, *t, *v));
            apply(&mut shadow, &p_shadow, *op, *t, *v);
            for (snap, then) in &pinned {
                prop_assert_eq!(&observe(snap, &p), then, "pinned reader after op {}", op);
            }
            prop_assert_eq!(
                shared.read(|st| observe(st, &p)),
                observe(&shadow, &p_shadow),
                "newest reader after op {} on target {}", op, t
            );
        }
        prop_assert!(shared.read(|st| st.verify_integrity()).is_empty());
    }
}
