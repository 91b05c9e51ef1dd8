//! Allocation budgets for the serving path, counted rather than timed.
//!
//! A counting `#[global_allocator]` tallies every heap allocation made by
//! threads that have not opted out; the client (the test thread) opts
//! out, so what is counted is the server's own work per request. Counts
//! repeat from run to run where clocks on a shared machine do not, so
//! these budgets are tier-1 safe.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ccdb_core::Value;
use ccdb_server::{Client, ServerConfig};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` + no destructor: reading it inside the allocator neither
    // allocates nor registers a TLS destructor.
    static SKIP: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic and
// a destructor-less thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[inline]
fn count() {
    // A thread whose TLS is already torn down is exiting: do not count it.
    if SKIP.try_with(Cell::get) == Ok(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every test here owns the process-wide counter while it runs.
static SERIAL: Mutex<()> = Mutex::new(());

const ROUND_TRIPS: u64 = 1_000;

/// A v2 session on a fresh server (telemetry sampler off, so no
/// background thread allocates), with an interface bound to an
/// implementation; returns the client, the interface and the
/// implementation. The calling thread stops being counted.
fn served() -> (ccdb_server::Server, Client, u64, u64) {
    let server = common::start(ServerConfig {
        sample_interval_ms: 0,
        ..ServerConfig::default()
    });
    let mut c = Client::connect_v2(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let interface = c.create("If", &[("X", Value::Int(7))]).unwrap();
    let imp = c.create("Impl", &[]).unwrap();
    c.bind("AllOf_If", interface, imp).unwrap();
    SKIP.with(|s| s.set(true));
    (server, c, interface.0, imp.0)
}

/// Server-side allocations per call of `op`, after a warm-up that lets
/// every buffer and cache reach its steady size.
fn allocs_per_request(mut op: impl FnMut(u64)) -> f64 {
    for i in 0..200 {
        op(i);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..ROUND_TRIPS {
        op(i);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before) as f64 / ROUND_TRIPS as f64
}

/// The `hot_read` floor: an inline v2 `attr` that hits the resolution
/// cache is read in place and answered straight into the session's
/// buffer.
#[test]
fn an_inline_v2_attr_allocates_at_most_four_times() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (server, mut c, _, imp) = served();
    let per = allocs_per_request(|_| {
        assert_eq!(
            c.attr(ccdb_core::Surrogate(imp), "X").unwrap(),
            Value::Int(7)
        );
    });
    SKIP.with(|s| s.set(false));
    server.shutdown();
    assert!(per <= 1.0, "inline v2 attr: {per} allocations per request");
}

/// A `select` over a small extent: the predicate, the row walk and the
/// hit list allocate; the envelope around them does not.
#[test]
fn a_v2_select_stays_within_its_budget() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (server, mut c, _, _) = served();
    let per = allocs_per_request(|_| {
        assert_eq!(c.select("Impl", None).unwrap().len(), 1);
    });
    SKIP.with(|s| s.set(false));
    server.shutdown();
    assert!(
        per <= SELECT_BUDGET,
        "v2 select: {per} allocations per request"
    );
}

/// A transmitter `set_attr`: the queued job owns its params, the op owns
/// its attribute name, and the write cycle publishes a new version.
#[test]
fn a_v2_set_attr_stays_within_its_budget() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (server, mut c, interface, _) = served();
    let per = allocs_per_request(|i| {
        c.set_attr(ccdb_core::Surrogate(interface), "X", Value::Int(i as i64))
            .unwrap();
    });
    SKIP.with(|s| s.set(false));
    server.shutdown();
    assert!(
        per <= SET_ATTR_BUDGET,
        "v2 set_attr: {per} allocations per request"
    );
}

const SELECT_BUDGET: f64 = 4.0;
const SET_ATTR_BUDGET: f64 = 16.0;
