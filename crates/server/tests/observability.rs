//! Observability under fire: scraping `metrics`/`stats`/`flight` while
//! writers are mutating the store must never poison a lock, corrupt a
//! counter, or return a malformed payload — and the counters a scraper
//! sees must be monotonic across scrapes.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccdb_core::Value;
use ccdb_server::Client;
use serde_json::Value as Json;

/// Extracts a scalar counter value from a Prometheus-text scrape.
fn scrape_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
}

#[test]
fn concurrent_scrapes_survive_a_write_storm() {
    let server = common::start_default();
    let addr = server.local_addr();

    // Seed an inheritance pair for the writers to hammer.
    let mut setup = Client::connect(addr).unwrap();
    setup
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let interface = setup.create("If", &[("X", Value::Int(1))]).unwrap();
    let imp = setup.create("Impl", &[]).unwrap();
    setup.bind("AllOf_If", interface, imp).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut n = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    c.set_attr(interface, "X", Value::Int(w * 1000 + n))
                        .unwrap();
                    let _ = c.attr(imp, "X").unwrap();
                    n += 1;
                }
            })
        })
        .collect();

    // Scrapers: each thread alternates metrics / stats / flight and checks
    // that every payload is well-formed and its request counter only ever
    // moves forward.
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut last_requests = 0u64;
                for _ in 0..25 {
                    let text = c.metrics().expect("metrics scrape failed mid-storm");
                    let requests = scrape_value(&text, "ccdb_server_requests_total")
                        .expect("scrape is missing ccdb_server_requests_total");
                    assert!(
                        requests >= last_requests,
                        "requests counter went backwards: {last_requests} -> {requests}"
                    );
                    last_requests = requests;
                    assert!(
                        text.contains("ccdb_server_phase_all_handle_ns_bucket"),
                        "scrape lost the phase histograms"
                    );
                    assert!(
                        text.contains("ccdb_core_storelock_exclusive_wait_ns"),
                        "scrape lost the lock probes"
                    );

                    let stats = c.stats().expect("stats failed mid-storm");
                    assert!(stats.get("counters").is_some(), "stats lost its shape");

                    let flight = c.flight().expect("flight failed mid-storm");
                    assert!(
                        flight.get("recorded").and_then(Json::as_u64).is_some(),
                        "flight payload lost its shape"
                    );
                }
            })
        })
        .collect();

    for s in scrapers {
        s.join().expect("a scraper thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("a writer thread panicked");
    }

    // The store is still consistent after the storm: a final read resolves.
    let v = setup.attr(imp, "X").unwrap();
    assert!(
        matches!(v, Value::Int(_)),
        "post-storm read corrupted: {v:?}"
    );
    server.shutdown();
}

#[test]
fn flight_recorder_catches_slow_requests_with_phase_timelines() {
    let server = common::start_default();
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // A deliberately slow request (service-time injection) plus fast ones.
    // The recorder is global to this test binary, and the scrape-storm
    // test's `metrics` requests run tens of ms in debug builds — the
    // injected delay must dominate them to stay in the slowest view.
    c.ping_delay_ms(400).unwrap();
    for _ in 0..5 {
        c.ping().unwrap();
    }

    // Find *our* slow ping rather than assuming it ranks first: a ping
    // with ≥400ms total, dominated by the handle phase. Its worker records
    // it only after writing the reply, so this inline `flight` can beat the
    // record: poll, bounded.
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    let slow_ping = loop {
        let f = c.flight().unwrap();
        let slowest = f
            .get("slowest")
            .and_then(Json::as_array)
            .expect("flight payload has a slowest array");
        let found = slowest.iter().find(|r| {
            r.get("verb").and_then(Json::as_str) == Some("ping")
                && r.get("total_ns").and_then(Json::as_u64).unwrap_or(0) >= 400_000_000
        });
        if let Some(rec) = found {
            break rec.clone();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow ping not retained in slowest view: {f:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let handle = slow_ping
        .get("phases")
        .and_then(|p| p.get("handle"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        handle >= 350_000_000,
        "delay not attributed to handle phase: {handle}ns"
    );
    server.shutdown();
}

#[test]
fn flight_recorder_attributes_v2_requests_with_proto_phases_and_trace() {
    let server = common::start_default();
    let addr = server.local_addr();
    let mut c = Client::connect_proto(addr, 2).expect("v2 handshake");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(c.proto(), 2);

    // A traced, deliberately slow request over the binary dialect: slow
    // enough to be retained in the slowest view whatever else this test
    // binary has recorded, traced so the record links to the client.
    c.set_trace(Some(424_242_424));
    c.ping_delay_ms(450).unwrap();
    c.set_trace(None);

    // A flight record becomes visible *after* its response is written (the
    // `write` phase is only known then), so this `flight` — served inline —
    // can beat the worker that is still recording the ping: poll, bounded.
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    let rec = loop {
        let f = c.flight().unwrap();
        let slowest = f
            .get("slowest")
            .and_then(Json::as_array)
            .expect("flight payload has a slowest array");
        let traced = slowest
            .iter()
            .find(|r| r.get("trace").and_then(Json::as_u64) == Some(424_242_424));
        if let Some(rec) = traced {
            break rec.clone();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "traced v2 ping not retained within 1 s of its response: {f:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    // The record names the dialect it arrived on...
    assert_eq!(rec.get("proto").and_then(Json::as_u64), Some(2));
    assert_eq!(rec.get("verb").and_then(Json::as_str), Some("ping"));
    // ...carries the full eight-phase timeline...
    let phases = rec.get("phases").expect("record has phases");
    for name in ccdb_obs::flight::PHASE_NAMES {
        assert!(
            phases.get(name).and_then(Json::as_u64).is_some(),
            "phase `{name}` missing from v2 record: {rec:?}"
        );
    }
    assert!(
        phases.get("handle").and_then(Json::as_u64).unwrap() >= 400_000_000,
        "delay not attributed to handle phase: {rec:?}"
    );
    // ...and non-trivial framing work was actually measured (the v2
    // decode path feeds the parse phase, so it must at least be stamped).
    assert!(rec.get("session").and_then(Json::as_u64).is_some());
    server.shutdown();
}

#[test]
fn client_trace_ids_continue_into_server_spans() {
    ccdb_obs::trace::set_tracing(true);
    let server = common::start_default();
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    c.set_trace(Some(987_654_321));
    c.ping().unwrap();
    c.set_trace(None);

    // The worker commits the span on drop, *after* it sends the reply —
    // poll briefly instead of racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let found = loop {
        let spans = ccdb_obs::trace::snapshot_spans();
        if spans
            .iter()
            .any(|s| s.trace.0 == 987_654_321 && s.name == "server.request")
        {
            break true;
        }
        if std::time::Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    ccdb_obs::trace::set_tracing(false);
    assert!(found, "no server.request span under the client's trace id");
    server.shutdown();
}
