//! A counting `#[global_allocator]`: heap allocations and bytes requested by
//! every thread except those that opted out. The load-generating client
//! thread opts out, so the counters read as the *server's* allocations —
//! counts repeat from run to run far better than any clock on a shared box.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` + no destructor: reading it inside the allocator neither
    // allocates nor registers a TLS destructor.
    static SKIP: Cell<bool> = const { Cell::new(false) };
}

/// The allocator installed by `main.rs`.
pub struct Counting;

#[inline]
fn count(bytes: usize) {
    // A thread whose TLS is already torn down is exiting: do not count it.
    if SKIP.try_with(Cell::get) == Ok(false) {
        // Relaxed: statistics, read after the measured phase ends.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and a
// destructor-less thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Stops (`true`) or resumes (`false`) counting the calling thread.
pub fn skip_this_thread(skip: bool) {
    SKIP.with(|s| s.set(skip));
}

/// Runs `f` with the calling thread counted, whatever it was before, and
/// returns the bytes requested meanwhile (by every counted thread).
pub fn bytes_requested_during(f: impl FnOnce()) -> u64 {
    let was = SKIP.with(|s| s.replace(false));
    let (_, before) = counters();
    f();
    let (_, after) = counters();
    skip_this_thread(was);
    after - before
}

/// `(allocations, bytes requested)` by counted threads since process start.
pub fn counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
