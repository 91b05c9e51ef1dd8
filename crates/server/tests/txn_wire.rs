//! End-to-end wire transactions: `begin`/`commit`/`abort` over real
//! sockets, two sessions contending under §6 lock inheritance.
//!
//! The fixture is the paper's composite: an `If` interface transmitting
//! `X` to an `Impl` through `AllOf_If`. Reading `Impl.X` inside a
//! transaction S-locks the whole resolution chain — including the
//! transmitter's item — so another session's transactional write to
//! `If.X` conflicts even though it never names the `Impl`.

mod common;

use std::time::Duration;

use ccdb_core::shared::SharedStore;
use ccdb_core::{Surrogate, Value};
use ccdb_server::{Client, ClientError, Server, ServerConfig};
use serde_json::{json, Value as Json};

fn quick_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        // Short leash so conflicting acquires fail in test time.
        txn_lock_timeout: Duration::from_millis(200),
        debug_verbs: false,
        ..ServerConfig::default()
    }
}

fn start_quick() -> Server {
    common::start(quick_config())
}

/// [`start_quick`], keeping a handle on the served store so a test can
/// check its published version and integrity directly.
fn start_with_store() -> (Server, SharedStore) {
    let store = SharedStore::new(common::catalog()).unwrap();
    let server = Server::start(quick_config(), store.clone()).unwrap();
    (server, store)
}

fn connect(server: &ccdb_server::Server, proto: u8) -> Client {
    let c = match proto {
        2 => Client::connect_v2(server.local_addr()).unwrap(),
        _ => Client::connect(server.local_addr()).unwrap(),
    };
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

/// Creates If{X=7} bound to Impl{Local=1} through `c`.
fn seed(c: &mut Client) -> (Surrogate, Surrogate) {
    let interface = c.create("If", &[("X", Value::Int(7))]).unwrap();
    let imp = c.create("Impl", &[("Local", Value::Int(1))]).unwrap();
    c.bind("AllOf_If", interface, imp).unwrap();
    (interface, imp)
}

/// The full §6 story over the wire, on both dialects: a composite read's
/// inherited S-locks block a component write from another session; abort
/// releases the whole closure; a commit is visible to the next read.
#[test]
fn lock_inheritance_conflict_abort_release_and_commit_visibility() {
    for proto in [1u8, 2] {
        let server = start_quick();
        let mut a = connect(&server, proto);
        let mut b = connect(&server, proto);
        let (interface, imp) = seed(&mut a);

        // Session A reads the component's inherited attr in a txn:
        // S-locks If.X along the chain.
        a.begin().unwrap();
        assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(7));

        // Session B's transactional write to the transmitter item
        // conflicts with A's inherited S-lock and times out.
        b.begin().unwrap();
        let err = b.set_attr(interface, "X", Value::Int(0)).unwrap_err();
        assert!(
            err.is_conflict(),
            "proto v{proto}: expected conflict, got {err}"
        );
        // The failed acquire aborted B server-side.
        let err = b.commit().unwrap_err();
        assert!(!err.is_conflict(), "B's txn is gone, commit is bad_request");

        // A aborts: the inherited closure (≥2 chain S-locks) is released…
        let released = a.abort().unwrap();
        assert!(
            released >= 2,
            "proto v{proto}: chain locks released, got {released}"
        );

        // …so B can immediately write the same item and commit.
        b.begin().unwrap();
        b.set_attr(interface, "X", Value::Int(42)).unwrap();
        let (version, writes) = b.commit().unwrap();
        assert!(version > 0);
        assert_eq!(writes, 1);

        // The commit is in the next published snapshot: both sessions'
        // plain reads (and A's fresh txn read) resolve the new value.
        assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(42));
        a.begin().unwrap();
        assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(42));
        a.commit().unwrap();

        server.shutdown();
    }
}

/// Per-session isolation: uncommitted writes are invisible to the other
/// session until commit, and the writer reads-its-own-writes through the
/// inheritance chain.
#[test]
fn uncommitted_writes_are_isolated_per_session() {
    let server = start_quick();
    let mut a = connect(&server, 2);
    let mut b = connect(&server, 1);
    let (interface, imp) = seed(&mut a);

    a.begin().unwrap();
    a.set_attr(interface, "X", Value::Int(50)).unwrap();
    // B (no txn) still sees the published 7…
    assert_eq!(b.attr(imp, "X").unwrap(), Value::Int(7));
    // …while A resolves its own uncommitted write through AllOf_If.
    assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(50));
    a.commit().unwrap();
    assert_eq!(b.attr(imp, "X").unwrap(), Value::Int(50));
    server.shutdown();
}

/// A session that disconnects mid-transaction is aborted by the server:
/// its inherited locks are released, so a surviving session's conflicting
/// write succeeds instead of waiting out the lock timeout forever.
#[test]
fn disconnect_aborts_the_txn_and_releases_inherited_locks() {
    let server = start_quick();
    let mut a = connect(&server, 2);
    let mut b = connect(&server, 2);
    let (interface, imp) = seed(&mut a);

    // A pins the chain S-locks and vanishes without abort/commit.
    a.begin().unwrap();
    assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(7));
    drop(a);

    // The event loop notices the disconnect and aborts A's transaction.
    // B polls with fresh transactions (a conflict aborts the txn, so each
    // attempt needs its own begin).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        b.begin().unwrap();
        match b.set_attr(interface, "X", Value::Int(9)) {
            Ok(()) => break,
            Err(e) if e.is_conflict() && std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("disconnected session's locks never released: {e}"),
        }
    }
    b.commit().unwrap();
    assert_eq!(b.attr(imp, "X").unwrap(), Value::Int(9));
    server.shutdown();
}

/// First-committer-wins over the wire: a plain (lock-free) write that
/// lands after `begin` invalidates the transaction's buffered write at
/// commit, surfacing as the `conflict` error kind.
#[test]
fn plain_writer_beats_the_transaction_at_commit() {
    let server = start_quick();
    let mut a = connect(&server, 2);
    let mut b = connect(&server, 2);
    let (interface, imp) = seed(&mut a);

    a.begin().unwrap();
    a.set_attr(interface, "X", Value::Int(100)).unwrap();
    // B writes outside any transaction: no locks, publishes immediately.
    b.set_attr(interface, "X", Value::Int(55)).unwrap();
    let err = a.commit().unwrap_err();
    assert!(
        err.is_conflict(),
        "expected first-committer-wins conflict, got {err}"
    );
    // The losing txn published nothing.
    assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(55));
    server.shutdown();
}

/// One transaction's structural work through `a`: `create`, `bind` with a
/// relationship attribute, `unbind` of `rel`, and a `batch` carrying a
/// create and a write, with the transaction reading its own structure
/// along the way. Returns the created `Impl` and the number of logged ops.
fn structural_work(a: &mut Client, interface: Surrogate, rel: Surrogate) -> (Surrogate, u64) {
    let imp = a.create("Impl", &[("Local", Value::Int(5))]).unwrap();
    let (t, i) = (interface.0, imp.0);
    let bound = a
        .request(
            "bind",
            json!({"rel": "AllOf_If", "transmitter": t, "inheritor": i,
                   "attrs": {"Weight": {"Int": 4}}}),
        )
        .unwrap();
    let bound = Surrogate(bound.as_u64().unwrap());
    assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(7));
    assert_eq!(a.attr(bound, "Weight").unwrap(), Value::Int(4));
    a.unbind(rel).unwrap();
    let slots = a
        .batch(vec![
            ("create", json!({"type": "If", "attrs": {"X": {"Int": 9}}})),
            (
                "set_attr",
                json!({"obj": i, "name": "Local", "value": {"Int": 6}}),
            ),
            ("attr", json!({"obj": i, "name": "Local"})),
        ])
        .unwrap();
    let local = slots[2].as_ref().unwrap();
    assert_eq!(
        local.get("Int").and_then(Json::as_i64),
        Some(6),
        "{slots:?}"
    );
    assert!(slots.iter().all(Result::is_ok), "{slots:?}");
    (imp, 5)
}

/// Structural writes inside a wire transaction, on both dialects: other
/// sessions see none of them before commit; abort leaves the published
/// version, the extent and the store's integrity exactly as they were;
/// commit publishes every op under the surrogates handed out in the
/// transaction.
#[test]
fn structural_writes_and_batches_run_inside_the_transaction() {
    for proto in [1u8, 2] {
        let (server, store) = start_with_store();
        let mut a = connect(&server, proto);
        let mut b = connect(&server, proto);
        let interface = a.create("If", &[("X", Value::Int(7))]).unwrap();
        let seeded = a.create("Impl", &[("Local", Value::Int(1))]).unwrap();
        // A plain bind carries relationship attrs through the same `Op`.
        let (t, i) = (interface.0, seeded.0);
        let rel = a
            .request(
                "bind",
                json!({"rel": "AllOf_If", "transmitter": t, "inheritor": i,
                       "attrs": {"Weight": {"Int": 2}}}),
            )
            .unwrap();
        let rel = Surrogate(rel.as_u64().unwrap());
        assert_eq!(b.attr(rel, "Weight").unwrap(), Value::Int(2));
        let published = store.published_version();
        let extent = b.select("Impl", None).unwrap();

        for commit in [false, true] {
            let (_, snapshot) = a.begin().unwrap();
            assert_eq!(snapshot, published);
            let (imp, ops) = structural_work(&mut a, interface, rel);
            // Another session sees none of it.
            assert_eq!(b.select("Impl", None).unwrap(), extent);
            assert_eq!(b.attr(seeded, "X").unwrap(), Value::Int(7));
            assert!(b.attr(imp, "Local").is_err());
            assert_eq!(store.published_version(), published);
            if !commit {
                a.abort().unwrap();
                assert_eq!(store.published_version(), published, "v{proto}");
                assert_eq!(b.select("Impl", None).unwrap(), extent);
                assert!(store.read(|st| st.verify_integrity()).is_empty());
                continue;
            }
            let (version, writes) = a.commit().unwrap();
            assert_eq!(writes, ops, "v{proto}");
            assert!(version > published);
            // The surrogate the transaction handed out is the published one.
            assert_eq!(b.attr(imp, "Local").unwrap(), Value::Int(6));
            assert_eq!(b.attr(imp, "X").unwrap(), Value::Int(7));
            assert_eq!(b.select("Impl", None).unwrap(), vec![seeded, imp]);
            assert_eq!(b.select("If", None).unwrap().len(), 2);
            assert!(store.read(|st| st.verify_integrity()).is_empty());
        }
        server.shutdown();
    }
}

/// A batch whose transaction dies on a lock conflict partway through:
/// the later entries answer errors instead of falling through to plain
/// writes, and nothing of the batch is published.
#[test]
fn a_batch_whose_transaction_dies_publishes_nothing() {
    for proto in [1u8, 2] {
        let (server, store) = start_with_store();
        let mut a = connect(&server, proto);
        let mut b = connect(&server, proto);
        let (interface, imp) = seed(&mut a);
        let extent = b.select("Impl", None).unwrap();
        // A's transactional read S-locks If.X along the chain.
        a.begin().unwrap();
        a.attr(imp, "X").unwrap();
        let published = store.published_version();

        b.begin().unwrap();
        let (t, i) = (interface.0, imp.0);
        let slots = b
            .batch(vec![
                ("create", json!({"type": "Impl"})),
                (
                    "set_attr",
                    json!({"obj": t, "name": "X", "value": {"Int": 0}}),
                ),
                ("create", json!({"type": "Impl"})),
                (
                    "set_attr",
                    json!({"obj": i, "name": "Local", "value": {"Int": 3}}),
                ),
            ])
            .unwrap();
        assert!(slots[0].is_ok(), "{slots:?}");
        assert!(matches!(&slots[1], Err(e) if e.is_conflict()), "{slots:?}");
        for later in &slots[2..] {
            assert!(
                matches!(later, Err(ClientError::Server { kind, .. }) if kind == "bad_request"),
                "v{proto}: {slots:?}"
            );
        }
        // B's transaction is gone and published nothing.
        assert!(b.commit().is_err());
        a.abort().unwrap();
        assert_eq!(store.published_version(), published, "v{proto}");
        assert_eq!(b.select("Impl", None).unwrap(), extent);
        assert_eq!(b.attr(imp, "Local").unwrap(), Value::Int(1));
        assert_eq!(b.attr(imp, "X").unwrap(), Value::Int(7));
        server.shutdown();
    }
}
