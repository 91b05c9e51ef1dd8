//! Shared fixture for the server integration tests: an interface type
//! transmitting `X` to implementations, served on an ephemeral port.

use ccdb_core::domain::Domain;
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
use ccdb_core::shared::SharedStore;
use ccdb_server::{Server, ServerConfig};

pub fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_object_type(ObjectTypeDef {
        name: "If".into(),
        attributes: vec![AttrDef::new("X", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_If".into(),
        transmitter_type: "If".into(),
        inheritor_type: None,
        inheriting: vec!["X".into()],
        // A relationship attribute, so `bind {attrs}` has something to set.
        attributes: vec![AttrDef::new("Weight", Domain::Int)],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Impl".into(),
        inheritor_in: vec!["AllOf_If".into()],
        attributes: vec![AttrDef::new("Local", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    c
}

pub fn start(cfg: ServerConfig) -> Server {
    Server::start(cfg, SharedStore::new(catalog()).unwrap()).expect("server binds")
}

// Each integration-test binary compiles this module separately and uses
// a different subset of the helpers.
#[allow(dead_code)]
pub fn start_default() -> Server {
    start(ServerConfig::default())
}
