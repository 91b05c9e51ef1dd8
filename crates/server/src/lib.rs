#![warn(missing_docs)]

//! # ccdb-server
//!
//! A concurrent network serving layer over [`ccdb_core::shared::SharedStore`].
//!
//! The paper's inheritance model makes one transmitter update instantly
//! visible to every inheritor — which only matters operationally when many
//! clients read inheritors concurrently while designers update
//! transmitters. This crate turns the in-process store into exactly that
//! system: a `std::net` TCP server (no async runtime; the workspace is
//! offline/shim-only) speaking a length-prefixed JSON protocol
//! ([`proto`]), with a configurable worker thread pool over the store's
//! reader-parallel `RwLock`.
//!
//! Production-shaping concerns are first-class:
//!
//! - **admission control** — sharded per-worker bounded queues with work
//!   stealing ([`queue`]); beyond the global cap the server answers
//!   `Overloaded` instead of buffering (explicit backpressure, bounded
//!   memory);
//! - **dispatch fast paths** — one event loop multiplexes connections
//!   over one `polling::Poller` (epoll where the platform has it,
//!   `poll(2)` elsewhere) and executes storeless and read verbs inline
//!   against a pinned MVCC snapshot when the queue is shallow, skipping
//!   the worker hop entirely;
//! - **one verb table, one write path** — every verb is a row of
//!   [`proto::Verb`] and is dispatched by its class; every write decodes
//!   into one `ccdb_txn::Op`, replayed on the master outside a wire
//!   transaction and applied by `Txn::apply` inside one;
//! - **per-connection sessions** — id, peer, request/byte counters,
//!   introspectable via the `session` verb;
//! - **timeouts & hardening** — idle/read timeouts, frame-size caps
//!   enforced before allocation, protocol-version checks, handler-panic
//!   isolation;
//! - **graceful shutdown** — draining finishes queued requests and flushes
//!   their responses before threads exit;
//! - **observability** — every request runs under a `server.request` trace
//!   span and feeds `ccdb_server_*` counters/gauges/histograms; the
//!   `metrics` verb exposes the whole process registry as a plaintext
//!   Prometheus scrape over the wire.
//!
//! ## Quick start
//!
//! ```
//! use ccdb_core::domain::Domain;
//! use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
//! use ccdb_core::shared::SharedStore;
//! use ccdb_core::Value;
//! use ccdb_server::{Client, Server, ServerConfig};
//!
//! let mut catalog = Catalog::new();
//! catalog.register_object_type(ObjectTypeDef {
//!     name: "If".into(),
//!     attributes: vec![AttrDef::new("X", Domain::Int)],
//!     ..Default::default()
//! }).unwrap();
//! catalog.register_inher_rel_type(InherRelTypeDef {
//!     name: "AllOf_If".into(),
//!     transmitter_type: "If".into(),
//!     inheritor_type: None,
//!     inheriting: vec!["X".into()],
//!     attributes: vec![],
//!     constraints: vec![],
//! }).unwrap();
//! catalog.register_object_type(ObjectTypeDef {
//!     name: "Impl".into(),
//!     inheritor_in: vec!["AllOf_If".into()],
//!     ..Default::default()
//! }).unwrap();
//!
//! let server = Server::start(
//!     ServerConfig::default(),
//!     SharedStore::new(catalog).unwrap(),
//! ).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! let interface = client.create("If", &[("X", Value::Int(10))]).unwrap();
//! let imp = client.create("Impl", &[]).unwrap();
//! client.bind("AllOf_If", interface, imp).unwrap();
//! // The implementation sees the interface's value over the wire...
//! assert_eq!(client.attr(imp, "X").unwrap(), Value::Int(10));
//! // ...and a transmitter update is instantly visible.
//! client.set_attr(interface, "X", Value::Int(12)).unwrap();
//! assert_eq!(client.attr(imp, "X").unwrap(), Value::Int(12));
//! server.shutdown();
//! ```

pub mod client;
mod dispatch;
mod event_loop;
mod handler;
mod metrics;
mod params;
pub mod proto;
pub mod queue;
mod reply;
pub mod server;
mod session;
mod watch;

// The event loop's readiness set. Unit tests compile the shim's
// `poller.rs` as a module of this crate, which puts its crate-private
// `poll(2)` constructor in reach: the fallback stays covered at server
// level (`event_loop::tests`) while no build offers a way to select it.
#[cfg(not(test))]
use polling::poller;
#[cfg(test)]
#[path = "../../../shims/polling/src/poller.rs"]
mod poller;

pub use client::{Client, ClientError, ClientResult};
pub use proto::{
    ErrorKind, FrameError, Request, Verb, VerbClass, HELLO_V2, MAX_FRAME_BYTES, PROTOCOL_V2,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
