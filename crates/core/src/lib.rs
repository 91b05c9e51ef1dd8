#![warn(missing_docs)]

//! # ccdb-core
//!
//! An implementation of the object model of
//!
//! > W. Wilkes, P. Klahold, G. Schlageter: *Complex and Composite Objects in
//! > CAD/CAM Databases*. Informatik-Berichte 80, FernUniversität Hagen, 1988
//! > (ICDE 1989).
//!
//! The model's basic units are **objects** with attributes over structured
//! [`domain`]s, grouped into **classes**; **complex objects** own local
//! subobjects in local subclasses; **relationship objects** relate objects
//! (across nesting levels) and can carry attributes, subclasses and
//! constraints of their own.
//!
//! The paper's distinctive mechanism is the **inheritance relationship**
//! ([`schema::InherRelTypeDef`]): an inheritor object inherits not only the
//! *existence* of attributes from a transmitter object (type-level
//! generalization) but their **values and subobjects** too — selectively
//! (the `inheriting:` permeability clause), read-only on the inheritor side,
//! and with transmitter updates instantly visible (view semantics). One
//! mechanism models both the *interface ↔ implementation* relationship and
//! the *composite ↔ component* relationship, including multi-level
//! abstraction hierarchies.
//!
//! ## Quick start
//!
//! ```
//! use ccdb_core::prelude::*;
//!
//! // Schema: an interface type, an implementation type, and the
//! // inheritance relationship between them.
//! let mut catalog = Catalog::new();
//! catalog.register_object_type(ObjectTypeDef {
//!     name: "GateInterface".into(),
//!     attributes: vec![AttrDef::new("Length", Domain::Int),
//!                      AttrDef::new("Width", Domain::Int)],
//!     ..Default::default()
//! }).unwrap();
//! catalog.register_inher_rel_type(InherRelTypeDef {
//!     name: "AllOf_GateInterface".into(),
//!     transmitter_type: "GateInterface".into(),
//!     inheritor_type: None,
//!     inheriting: vec!["Length".into(), "Width".into()],
//!     attributes: vec![],
//!     constraints: vec![],
//! }).unwrap();
//! catalog.register_object_type(ObjectTypeDef {
//!     name: "GateImplementation".into(),
//!     inheritor_in: vec!["AllOf_GateInterface".into()],
//!     ..Default::default()
//! }).unwrap();
//!
//! let mut store = ObjectStore::new(catalog).unwrap();
//! let interface = store.create_object("GateInterface",
//!     vec![("Length", Value::Int(10)), ("Width", Value::Int(4))]).unwrap();
//! let implementation = store.create_object("GateImplementation", vec![]).unwrap();
//! store.bind("AllOf_GateInterface", interface, implementation, vec![]).unwrap();
//!
//! // The implementation *sees* the interface's values...
//! assert_eq!(store.attr(implementation, "Length").unwrap(), Value::Int(10));
//! // ...they are read-only on the inheritor side...
//! assert!(store.set_attr(implementation, "Length", Value::Int(11)).is_err());
//! // ...and transmitter updates are instantly visible.
//! store.set_attr(interface, "Length", Value::Int(12)).unwrap();
//! assert_eq!(store.attr(implementation, "Length").unwrap(), Value::Int(12));
//! ```

pub mod domain;
pub mod error;
pub mod expand;
pub mod expr;
pub mod lockprobe;
pub(crate) mod metrics;
pub mod object;
pub mod persist;
pub mod rescache;
pub mod schema;
pub mod shared;
pub mod snapshot;
pub mod store;
pub mod surrogate;
pub mod trigger;
pub mod value;

/// Convenient glob import for applications and tests.
pub mod prelude {
    pub use crate::domain::Domain;
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::expr::{BinOp, Env, Expr, ObjectView, PathExpr, PathRoot, ELEM_VAR, REL_VAR};
    pub use crate::object::{ObjectData, ObjectKind, Owner};
    pub use crate::rescache::DEFAULT_RESOLUTION_CACHE_SHARDS;
    pub use crate::schema::{
        AttrDef, Catalog, Constraint, InherRelTypeDef, ItemSource, ObjectTypeDef, ParticipantSpec,
        RelTypeDef, SubclassSpec, SubrelSpec,
    };
    pub use crate::shared::SharedStore;
    pub use crate::store::{FlagItems, ObjectStore, StoreStats, Violation};
    pub use crate::surrogate::Surrogate;
    pub use crate::trigger::{AdaptationEvent, ProcessReport, TriggerOutcome, TriggerRegistry};
    pub use crate::value::Value;
}

pub use error::{CoreError, CoreResult};
pub use store::ObjectStore;
pub use surrogate::Surrogate;
pub use value::Value;
