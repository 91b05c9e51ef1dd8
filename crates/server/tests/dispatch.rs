//! Dispatch-tier correctness: the inline fast path may only ever serve
//! read-only snapshot verbs, and turning it on must not change any
//! transactional semantics. Metric deltas prove routing (every inline
//! execution increments `ccdb_server_inline_requests_total`; a request
//! that takes the worker queue does not).

mod common;

use std::time::Duration;

use ccdb_core::{Surrogate, Value};
use ccdb_server::{Client, ServerConfig};

/// Extracts a scalar value from a Prometheus-text scrape.
fn scrape_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
}

fn inline_count(c: &mut Client) -> u64 {
    scrape_value(&c.metrics().unwrap(), "ccdb_server_inline_requests_total").unwrap_or(0)
}

fn connect(server: &ccdb_server::Server) -> Client {
    let c = Client::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

fn seed(c: &mut Client) -> (Surrogate, Surrogate) {
    let interface = c.create("If", &[("X", Value::Int(7))]).unwrap();
    let imp = c.create("Impl", &[]).unwrap();
    c.bind("AllOf_If", interface, imp).unwrap();
    (interface, imp)
}

/// Reads inline; writes and batches carrying writes never do. The metric
/// delta is the proof: a `metrics` scrape is itself inline, but its own
/// increment lands after the response is serialized, so between two
/// scrapes on one connection the first scrape contributes exactly one
/// count and nothing else hides in the delta.
#[test]
fn read_verbs_inline_while_writes_always_take_the_queue() {
    let server = common::start(ServerConfig::default());
    let mut c = connect(&server);
    let (interface, imp) = seed(&mut c);

    let before_reads = inline_count(&mut c);
    for _ in 0..20 {
        assert_eq!(c.attr(imp, "X").unwrap(), Value::Int(7));
    }
    let after_reads = inline_count(&mut c);
    assert!(
        after_reads - before_reads >= 20,
        "resolved reads on an idle server must run inline: \
         delta {} (before {before_reads}, after {after_reads})",
        after_reads - before_reads
    );

    // 20 transmitter writes: none may inline. The only admissible delta
    // is the prior scrape's own deferred increment.
    for n in 0..20i64 {
        c.set_attr(interface, "X", Value::Int(n)).unwrap();
    }
    let after_writes = inline_count(&mut c);
    assert!(
        after_writes - after_reads <= 1,
        "writes leaked onto the inline path: delta {}",
        after_writes - after_reads
    );

    // A batch frame is worker-only even when every sub-request is a
    // read, and certainly when it carries a write.
    let subs = vec![
        (
            "set_attr",
            serde_json::json!({
                "obj": interface.0, "name": "X",
                "value": serde_json::to_value(&Value::Int(99)),
            }),
        ),
        ("attr", serde_json::json!({"obj": imp.0, "name": "X"})),
    ];
    for slot in c.batch(subs).unwrap() {
        slot.unwrap();
    }
    let after_batch = inline_count(&mut c);
    assert!(
        after_batch - after_writes <= 1,
        "batch frames leaked onto the inline path: delta {}",
        after_batch - after_writes
    );

    // Cross-session visibility: a second session's inline read sees the
    // batch's committed write immediately — the pinned snapshot is the
    // current one, not a stale one.
    let mut other = connect(&server);
    assert_eq!(other.attr(imp, "X").unwrap(), Value::Int(99));
    server.shutdown();
}

/// A session inside a transaction loses inline eligibility entirely: its
/// reads must go to workers so they resolve against the transaction's
/// own uncommitted writes (the pinned snapshot can't see those), while
/// other sessions' inline reads keep seeing the committed state.
#[test]
fn in_txn_reads_bypass_the_inline_path_and_see_uncommitted_writes() {
    let server = common::start(ServerConfig {
        txn_lock_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut a = connect(&server);
    let mut b = connect(&server);
    let (interface, imp) = seed(&mut a);

    a.begin().unwrap();
    a.set_attr(interface, "X", Value::Int(42)).unwrap();

    // A's in-transaction reads observe its own uncommitted write…
    let before = inline_count(&mut b);
    for _ in 0..10 {
        assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(42));
    }
    let after = inline_count(&mut b);
    assert!(
        after - before <= 1,
        "in-txn reads leaked onto the inline path: delta {}",
        after - before
    );

    a.commit().unwrap();
    // …and after commit the other session's inline read sees it.
    assert_eq!(b.attr(imp, "X").unwrap(), Value::Int(42));
    server.shutdown();
}

/// §6 lock inheritance is untouched by the fast path: a transactional
/// composite read still S-locks the resolution chain, a competing
/// transactional write still conflicts, and the first committer wins.
#[test]
fn first_committer_wins_holds_with_the_fast_path_on() {
    let server = common::start(ServerConfig {
        txn_lock_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut a = connect(&server);
    let mut b = connect(&server);
    let (interface, imp) = seed(&mut a);

    a.begin().unwrap();
    assert_eq!(a.attr(imp, "X").unwrap(), Value::Int(7));

    b.begin().unwrap();
    let err = b.set_attr(interface, "X", Value::Int(0)).unwrap_err();
    assert!(err.is_conflict(), "expected conflict, got {err}");

    // A (the first committer) lands; inline reads then see the state A
    // committed, not anything of B's.
    a.commit().unwrap();
    assert_eq!(b.attr(imp, "X").unwrap(), Value::Int(7));
    server.shutdown();
}
