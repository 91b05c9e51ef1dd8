#![warn(missing_docs)]

//! # ccdb-txn
//!
//! Transaction management for the ccdb object model, implementing §6 of
//! *Complex and Composite Objects in CAD/CAM Databases* with **one
//! mechanism**: a [`txn::Txn`] is a private copy-on-write workspace of its
//! begin snapshot plus an ordered op log, and §6 locking is a policy over
//! it. Every transactional read, write, commit and abort in the repo —
//! embedded, wire, design check-out, persistent — runs the same code.
//!
//! - [`txn::Txn`] / [`txn::TxnManager`]: snapshot isolation on the begin
//!   snapshot of a [`ccdb_core::shared::SharedStore`]; **lock inheritance**
//!   (reading inherited data read-locks the permeable items of the
//!   transmitters along the resolution chain), **expansion locking**, and
//!   the access-control cap, all through one acquisition routine; commit =
//!   validate (first committer wins) → check → replay → publish, atomic by
//!   rollback, on the store the transaction began on.
//!   [`txn::Policy::Pessimistic`] takes the locks (short transactions),
//!   [`txn::Policy::Optimistic`] takes none and confines the work to a
//!   checked-out object set (long design check-outs: `checkout` …
//!   `commit`);
//! - a hierarchical [`lock::LockManager`] with attribute-group granularity
//!   and deadlock detection;
//! - an [`access::AccessControl`] manager coupled to locking, so implicit
//!   expansion locks never exceed a user's rights (the paper's protected
//!   standard cells);
//! - relationship-based [`conflict`] detection between update transactions;
//! - a [`session::TxnRegistry`]: the session-id → `Txn` map behind the
//!   server's `begin`/`commit`/`abort` verbs;
//! - a [`persistent::PersistentDatabase`] whose commits write the op log's
//!   delta to the WAL-protected KV store before they publish.

pub mod access;
pub mod conflict;
pub mod lock;
pub(crate) mod metrics;
pub mod persistent;
pub mod session;
pub mod txn;

pub use access::{AccessControl, Right};
pub use conflict::{potential_conflicts, ConflictKind, PotentialConflict};
pub use lock::{LockError, LockManager, LockMode, LockStats, Resource, TxnId};
pub use persistent::{PersistenceDelta, PersistentDatabase};
pub use session::{SessionError, TxnRegistry};
pub use txn::{CommitInfo, Op, Policy, Txn, TxnError, TxnManager, TxnResult};
