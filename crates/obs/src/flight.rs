//! A flight recorder for completed requests: a bounded, process-global
//! ring that answers "what did the slowest recent requests spend their
//! time on?" *after the fact*, without tracing having been enabled.
//!
//! Each entry is one finished request's phase timeline (the eight server
//! phases: recv → parse → queue → snapshot → lock → handle → serialize →
//! write) plus
//! its verb, outcome, and — when the client stamped one — the trace id
//! linking it to a span tree in the trace buffer.
//!
//! Retention keeps two views under one lock, both bounded:
//!
//! - **most-recent-M** ([`RECENT_CAP`] default): a FIFO ring of the last
//!   completed requests, whatever their speed — the "what is happening
//!   right now" view;
//! - **slowest-N** ([`SLOWEST_CAP`] default): the slowest requests *ever*
//!   (by total ns) since the last [`clear`], kept sorted slowest-first —
//!   the "what should I look at" view. A fast request never evicts a slow
//!   one; a new slow request evicts the fastest of the current N.
//!
//! The server dumps both views over the wire (`flight` verb; `ccdb flight`
//! renders them).

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// Names of the eight request phases, in timeline order. Indexes into
/// [`FlightRecord::phases`]. `snapshot` is MVCC snapshot acquisition
/// (shared-mode store pin); `lock` is exclusive write-lock and
/// transaction-lock wait.
pub const PHASE_NAMES: [&str; 8] = [
    "recv",
    "parse",
    "queue",
    "snapshot",
    "lock",
    "handle",
    "serialize",
    "write",
];

/// Default capacity of the most-recent ring.
pub const RECENT_CAP: usize = 128;
/// Default capacity of the slowest-retained set.
pub const SLOWEST_CAP: usize = 64;

/// One completed request, as remembered by the flight recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Request verb (`attr`, `set_attr`, `batch`, ...).
    pub verb: &'static str,
    /// `"ok"` or the error kind (`"core"`, `"overloaded"`, ...).
    pub outcome: &'static str,
    /// Wall-clock completion time, ns since the Unix epoch.
    pub end_unix_ns: u64,
    /// First byte read to response written, ns.
    pub total_ns: u64,
    /// Per-phase ns, indexed like [`PHASE_NAMES`].
    pub phases: [u64; 8],
    /// Client-supplied trace id, when the frame carried one.
    pub trace: Option<u64>,
    /// Server session the request arrived on.
    pub session: u64,
    /// Wire protocol the session had negotiated (1 = JSON, 2 = binary).
    pub proto: u8,
}

/// A copied-out view of the recorder.
#[derive(Clone, Debug)]
pub struct FlightSnapshot {
    /// Most recent completions, oldest first.
    pub recent: Vec<FlightRecord>,
    /// Slowest completions since the last clear, slowest first.
    pub slowest: Vec<FlightRecord>,
    /// Configured capacity of `recent`.
    pub recent_cap: usize,
    /// Configured capacity of `slowest`.
    pub slowest_cap: usize,
    /// Requests recorded since the last clear (≥ what is retained).
    pub recorded: u64,
}

struct RecorderState {
    recent: VecDeque<FlightRecord>,
    slowest: Vec<FlightRecord>,
    recent_cap: usize,
    slowest_cap: usize,
    recorded: u64,
}

fn recorder() -> &'static Mutex<RecorderState> {
    static REC: OnceLock<Mutex<RecorderState>> = OnceLock::new();
    REC.get_or_init(|| {
        Mutex::new(RecorderState {
            recent: VecDeque::new(),
            slowest: Vec::new(),
            recent_cap: RECENT_CAP,
            slowest_cap: SLOWEST_CAP,
            recorded: 0,
        })
    })
}

/// Commits one completed request. No-op when observability is disabled.
pub fn record(rec: FlightRecord) {
    if !crate::enabled() {
        return;
    }
    let mut r = recorder().lock().unwrap_or_else(|p| p.into_inner());
    r.recorded += 1;
    if r.recent.len() == r.recent_cap {
        r.recent.pop_front();
    }
    if r.recent_cap > 0 {
        r.recent.push_back(rec.clone());
    }
    if r.slowest_cap == 0 {
        return;
    }
    if r.slowest.len() == r.slowest_cap
        && r.slowest.last().is_some_and(|s| s.total_ns >= rec.total_ns)
    {
        return; // Faster than everything retained: not interesting.
    }
    // Insert in sorted (slowest-first) position; ties keep insertion order.
    let at = r.slowest.partition_point(|s| s.total_ns >= rec.total_ns);
    r.slowest.insert(at, rec);
    if r.slowest.len() > r.slowest_cap {
        r.slowest.pop();
    }
}

/// Copies out both retained views.
pub fn snapshot() -> FlightSnapshot {
    let r = recorder().lock().unwrap_or_else(|p| p.into_inner());
    FlightSnapshot {
        recent: r.recent.iter().cloned().collect(),
        slowest: r.slowest.clone(),
        recent_cap: r.recent_cap,
        slowest_cap: r.slowest_cap,
        recorded: r.recorded,
    }
}

/// Reconfigures the retention capacities, trimming existing entries to
/// fit (recent drops oldest, slowest drops fastest).
pub fn configure(recent_cap: usize, slowest_cap: usize) {
    let mut r = recorder().lock().unwrap_or_else(|p| p.into_inner());
    r.recent_cap = recent_cap;
    r.slowest_cap = slowest_cap;
    while r.recent.len() > recent_cap {
        r.recent.pop_front();
    }
    r.slowest.truncate(slowest_cap);
}

/// Forgets everything (tests; also resets the recorded count).
pub fn clear() {
    let mut r = recorder().lock().unwrap_or_else(|p| p.into_inner());
    r.recent.clear();
    r.slowest.clear();
    r.recorded = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The recorder is process-global; these tests serialize on it.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn rec(verb: &'static str, total_ns: u64) -> FlightRecord {
        FlightRecord {
            verb,
            outcome: "ok",
            end_unix_ns: 0,
            total_ns,
            phases: [total_ns / 8; 8],
            trace: None,
            session: 1,
            proto: 1,
        }
    }

    #[test]
    fn recent_is_a_fifo_ring_and_slowest_is_sorted() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        configure(4, 3);
        // One slow outlier early, then a stream of fast requests.
        record(rec("attr", 9_000));
        for i in 0..10 {
            record(rec("attr", 100 + i));
        }
        let s = snapshot();
        assert_eq!(s.recorded, 11);
        // Recent holds only the last 4, oldest first...
        let recent: Vec<u64> = s.recent.iter().map(|r| r.total_ns).collect();
        assert_eq!(recent, vec![106, 107, 108, 109]);
        // ...but the early outlier survives in the slowest view.
        let slowest: Vec<u64> = s.slowest.iter().map(|r| r.total_ns).collect();
        assert_eq!(slowest, vec![9_000, 109, 108]);
        clear();
        configure(RECENT_CAP, SLOWEST_CAP);
    }

    #[test]
    fn fast_requests_never_evict_slow_ones() {
        let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        configure(2, 2);
        record(rec("a", 500));
        record(rec("b", 400));
        record(rec("c", 10)); // Too fast to retain in `slowest`.
        let s = snapshot();
        let slowest: Vec<&str> = s.slowest.iter().map(|r| r.verb).collect();
        assert_eq!(slowest, vec!["a", "b"]);
        assert_eq!(s.recent.len(), 2, "but it still shows up in recent");
        clear();
        configure(RECENT_CAP, SLOWEST_CAP);
    }
}
