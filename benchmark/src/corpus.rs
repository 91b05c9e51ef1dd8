//! The seeded CAD corpus all four workloads share, and the harness's own
//! model of what the store must answer.
//!
//! Three levels of value inheritance: `If {A0..A3}` transmits to `Mid {M}`
//! through `AllOf_If`, and `Mid` re-transmits `A0..A3` plus `M` to
//! `Comp {Pos}` through `AllOf_Mid`. `cad_110k` is 500 `If` x 10 `Mid` x 10
//! `Comp` = 55 500 objects + 55 000 relationship objects, about 90 MiB
//! resident: far outside any CPU cache, which a three-object fixture is not.
//!
//! Expected answers always come from [`Model`], never from the program.

use std::time::Instant;

use ccdb_core::domain::Domain;
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
use ccdb_core::{ObjectStore, Surrogate, Value};

use crate::rng::Rng;

/// Attributes of `If`, inherited by `Mid` and (two hops) by `Comp`.
pub const IF_ATTRS: [&str; 4] = ["A0", "A1", "A2", "A3"];

/// How many objects of each level a corpus has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub ifs: usize,
    pub mids_per_if: usize,
    pub comps_per_mid: usize,
}

/// The benchmark's corpus: 55 500 objects + 55 000 relationship objects.
pub const CAD_110K: Shape = Shape {
    ifs: 500,
    mids_per_if: 10,
    comps_per_mid: 10,
};

impl Shape {
    pub fn mids(&self) -> usize {
        self.ifs * self.mids_per_if
    }

    pub fn comps(&self) -> usize {
        self.mids() * self.comps_per_mid
    }

    /// Objects plus relationship objects (one per `Mid` and per `Comp`).
    pub fn objects(&self) -> usize {
        self.ifs + 2 * (self.mids() + self.comps())
    }
}

/// What the store must answer, kept by the harness beside the store and
/// updated by every write the harness issues. Objects are addressed by
/// level-local index; `*_ids` map an index to its surrogate.
pub struct Model {
    pub shape: Shape,
    pub if_ids: Vec<Surrogate>,
    pub mid_ids: Vec<Surrogate>,
    pub comp_ids: Vec<Surrogate>,
    /// `A0..A3` of every `If`. `A1` is a permutation of `0..ifs`, so a
    /// half-open `A1` range of width w names exactly w interfaces.
    pub a: Vec<[i64; 4]>,
    /// `M` of every `Mid`; built as the `Mid`'s position under its `If`.
    pub m: Vec<i64>,
    /// `A1` value -> `If` index.
    pub if_by_a1: Vec<usize>,
}

impl Model {
    pub fn if_of_mid(&self, mid: usize) -> usize {
        mid / self.shape.mids_per_if
    }

    pub fn mid_of_comp(&self, comp: usize) -> usize {
        comp / self.shape.comps_per_mid
    }

    pub fn if_of_comp(&self, comp: usize) -> usize {
        self.if_of_mid(self.mid_of_comp(comp))
    }

    /// First `Comp` index under `Mid` `mid`.
    pub fn first_comp_of_mid(&self, mid: usize) -> usize {
        mid * self.shape.comps_per_mid
    }

    /// First `Mid` index under `If` `i`.
    pub fn first_mid_of_if(&self, i: usize) -> usize {
        i * self.shape.mids_per_if
    }

    /// Surrogates `select Mid where A1 >= lo and A1 < hi and M < m_below`
    /// must return, in surrogate order.
    pub fn select_mids(&self, lo: i64, hi: i64, m_below: i64) -> Vec<Surrogate> {
        let mut hits: Vec<Surrogate> = (lo.max(0)..hi.min(self.shape.ifs as i64))
            .flat_map(|a1| {
                let first = self.first_mid_of_if(self.if_by_a1[a1 as usize]);
                first..first + self.shape.mids_per_if
            })
            .filter(|&mid| self.m[mid] < m_below)
            .map(|mid| self.mid_ids[mid])
            .collect();
        hits.sort();
        hits
    }
}

/// Per-object cost of the two build phases (the `store.create_ns` and
/// `store.bind_ns` layer metrics; two clock reads each, so always taken).
pub struct BuildTimes {
    pub create_ns: f64,
    pub bind_ns: f64,
}

/// The corpus schema.
pub fn catalog() -> Result<Catalog, String> {
    let int = |name: &str| AttrDef::new(name, Domain::Int);
    let mut c = Catalog::new();
    let e = |e: ccdb_core::CoreError| e.to_string();
    c.register_object_type(ObjectTypeDef {
        name: "If".into(),
        attributes: IF_ATTRS.iter().map(|a| int(a)).collect(),
        ..Default::default()
    })
    .map_err(e)?;
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_If".into(),
        transmitter_type: "If".into(),
        inheritor_type: None,
        inheriting: IF_ATTRS.iter().map(|a| a.to_string()).collect(),
        attributes: vec![],
        constraints: vec![],
    })
    .map_err(e)?;
    c.register_object_type(ObjectTypeDef {
        name: "Mid".into(),
        inheritor_in: vec!["AllOf_If".into()],
        attributes: vec![int("M")],
        ..Default::default()
    })
    .map_err(e)?;
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_Mid".into(),
        transmitter_type: "Mid".into(),
        inheritor_type: None,
        inheriting: IF_ATTRS
            .iter()
            .map(|a| a.to_string())
            .chain(["M".to_string()])
            .collect(),
        attributes: vec![],
        constraints: vec![],
    })
    .map_err(e)?;
    c.register_object_type(ObjectTypeDef {
        name: "Comp".into(),
        inheritor_in: vec!["AllOf_Mid".into()],
        attributes: vec![int("Pos")],
        ..Default::default()
    })
    .map_err(e)?;
    Ok(c)
}

/// Builds the corpus through the store's public `create_object`/`bind`, and
/// the matching [`Model`]. The same `(shape, seed)` gives the same values.
pub fn build(shape: Shape, seed: u64) -> Result<(ObjectStore, Model, BuildTimes), String> {
    let e = |e: ccdb_core::CoreError| e.to_string();
    let mut rng = Rng::new(seed ^ 0xC0_4B05);
    let mut store = ObjectStore::new(catalog()?).map_err(e)?;

    let mut a1: Vec<i64> = (0..shape.ifs as i64).collect();
    rng.shuffle(&mut a1);
    let mut if_by_a1 = vec![0usize; shape.ifs];
    for (i, v) in a1.iter().enumerate() {
        if_by_a1[*v as usize] = i;
    }
    let a: Vec<[i64; 4]> = a1
        .iter()
        .map(|&a1| {
            [
                rng.below(1_000_000),
                a1,
                rng.below(1_000_000),
                rng.below(1_000_000),
            ]
        })
        .collect();
    let m: Vec<i64> = (0..shape.mids())
        .map(|mid| (mid % shape.mids_per_if) as i64)
        .collect();

    let t_create = Instant::now();
    let mut if_ids = Vec::with_capacity(shape.ifs);
    for vals in &a {
        let attrs = IF_ATTRS
            .iter()
            .zip(vals)
            .map(|(n, v)| (*n, Value::Int(*v)))
            .collect();
        if_ids.push(store.create_object("If", attrs).map_err(e)?);
    }
    let mut mid_ids = Vec::with_capacity(shape.mids());
    for v in &m {
        mid_ids.push(
            store
                .create_object("Mid", vec![("M", Value::Int(*v))])
                .map_err(e)?,
        );
    }
    let mut comp_ids = Vec::with_capacity(shape.comps());
    for _ in 0..shape.comps() {
        let pos = Value::Int(rng.below(1_000_000));
        comp_ids.push(store.create_object("Comp", vec![("Pos", pos)]).map_err(e)?);
    }
    let created = shape.ifs + shape.mids() + shape.comps();
    let create_ns = t_create.elapsed().as_nanos() as f64 / created as f64;

    let t_bind = Instant::now();
    for (mid, id) in mid_ids.iter().enumerate() {
        store
            .bind("AllOf_If", if_ids[mid / shape.mids_per_if], *id, vec![])
            .map_err(e)?;
    }
    for (comp, id) in comp_ids.iter().enumerate() {
        store
            .bind(
                "AllOf_Mid",
                mid_ids[comp / shape.comps_per_mid],
                *id,
                vec![],
            )
            .map_err(e)?;
    }
    let bind_ns = t_bind.elapsed().as_nanos() as f64 / (shape.mids() + shape.comps()) as f64;

    let problems = store.verify_integrity();
    if !problems.is_empty() {
        return Err(format!(
            "corpus fails verify_integrity: {} problems, first: {}",
            problems.len(),
            problems[0]
        ));
    }
    let model = Model {
        shape,
        if_ids,
        mid_ids,
        comp_ids,
        a,
        m,
        if_by_a1,
    };
    Ok((store, model, BuildTimes { create_ns, bind_ns }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        ifs: 5,
        mids_per_if: 3,
        comps_per_mid: 3,
    };

    #[test]
    fn same_seed_same_corpus_and_the_store_agrees_with_the_model() {
        let (store, model, _) = build(SMALL, 7).unwrap();
        let (_, again, _) = build(SMALL, 7).unwrap();
        let (_, other, _) = build(SMALL, 8).unwrap();
        assert_eq!(model.a, again.a);
        assert_ne!(model.a, other.a);
        assert_eq!(store.object_count(), SMALL.objects());
        for comp in 0..SMALL.comps() {
            let i = model.if_of_comp(comp);
            for (k, name) in IF_ATTRS.iter().enumerate() {
                let got = store.attr(model.comp_ids[comp], name).unwrap();
                assert_eq!(got, Value::Int(model.a[i][k]));
            }
            let got = store.attr(model.comp_ids[comp], "M").unwrap();
            assert_eq!(got, Value::Int(model.m[model.mid_of_comp(comp)]));
        }
    }

    #[test]
    fn model_select_matches_the_store() {
        let (store, model, _) = build(SMALL, 3).unwrap();
        let pred =
            ccdb_lang::compile_expr("A1 >= 1 and A1 < 3 and M < 2", store.catalog()).unwrap();
        let hits = store.select("Mid", &pred).unwrap();
        assert_eq!(hits.len(), 4);
        assert_eq!(hits, model.select_mids(1, 3, 2));
    }
}
