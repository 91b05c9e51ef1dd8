//! E16 — observability overhead: what does watching the server cost?
//!
//! PR 8 adds a background sampler (every registered series snapshotted
//! into the telemetry ring on a fixed cadence) and `watch` streaming
//! subscriptions. Observability that perturbs the system it observes is
//! worse than none, so E16 measures the cost directly: the E12 workload
//! shape (in-process server, closed-loop clients, 90% resolved reads /
//! 10% transmitter writes) runs in interleaved A/B arms —
//!
//! - **off**: global sampler stopped, no subscribers;
//! - **on**: sampler running *plus* one live `watch` subscriber
//!   streaming `ccdb_server_*` frames at 100 ms.
//!
//! Arms alternate (off, on, off, on, …) so thermal/cache drift hits both
//! equally, and the medians are compared. The documented target is ≤2%
//! throughput overhead (measured in release mode, see EXPERIMENTS.md).
//! The table reports it; the unit test checks only the experiment's
//! structure, because it runs the quick shape in debug builds on shared
//! machines, where run-to-run jitter alone exceeds the effect size — a
//! timing bound belongs in `benchmark/`'s pinned, quiet-window runs.
//!
//! The table also reports the first wakeup-latency distribution: the
//! admission queue's own enqueue→dequeue histogram
//! (`ccdb_server_wakeup_latency_ns`), deltaed around the measured arms —
//! how long an admitted job waits before a worker picks it up, measured
//! at the source rather than reconstructed from phase timelines.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_core::shared::SharedStore;
use ccdb_core::Value;
use ccdb_obs::metrics::LATENCY_BUCKETS_NS;
use ccdb_obs::timeseries::{start_global_sampler, stop_global_sampler};
use ccdb_obs::HistogramSnapshot;
use ccdb_server::{Client, Server, ServerConfig};

use crate::table::Table;
use crate::workload::fanout_store;

/// One closed-loop client; returns (completed, errors).
fn client_loop(
    addr: std::net::SocketAddr,
    interface: ccdb_core::Surrogate,
    imps: &[ccdb_core::Surrogate],
    requests: u64,
    seed: u64,
) -> (u64, u64) {
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return (0, requests),
    };
    if c.set_read_timeout(Some(Duration::from_secs(30))).is_err() {
        return (0, requests);
    }
    let mut n = 0u64;
    while n < requests {
        let outcome = if n % 10 == 9 {
            c.set_attr(interface, "A0", Value::Int((seed + n) as i64))
        } else {
            let imp = imps[(seed + n) as usize % imps.len()];
            c.attr(imp, "A0").map(|_| ())
        };
        match outcome {
            Ok(()) => {
                completed += 1;
                n += 1;
            }
            Err(e) if e.is_overloaded() => thread::sleep(Duration::from_millis(1)),
            Err(_) => {
                errors += 1;
                n += 1;
            }
        }
    }
    (completed, errors)
}

/// Runs one arm of the workload; returns (throughput req/s, errors).
fn run_arm(
    addr: std::net::SocketAddr,
    interface: ccdb_core::Surrogate,
    imps: &[ccdb_core::Surrogate],
    clients: usize,
    requests_per_client: u64,
) -> (f64, u64) {
    let total_completed = Arc::new(AtomicU64::new(0));
    let total_errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    thread::scope(|scope| {
        for w in 0..clients {
            let imps = &imps;
            let (tc, te) = (Arc::clone(&total_completed), Arc::clone(&total_errors));
            scope.spawn(move || {
                let (c, e) =
                    client_loop(addr, interface, imps, requests_per_client, w as u64 * 7919);
                tc.fetch_add(c, Ordering::Relaxed);
                te.fetch_add(e, Ordering::Relaxed);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    (
        total_completed.load(Ordering::Relaxed) as f64 / elapsed,
        total_errors.load(Ordering::Relaxed),
    )
}

/// Bucket-wise histogram delta (the registry entries are process-global).
fn snap_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        bounds: after.bounds.clone(),
        buckets: after
            .buckets
            .iter()
            .zip(before.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a.saturating_sub(*b))
            .collect(),
        sum: after.sum.saturating_sub(before.sum),
        count: after.count.saturating_sub(before.count),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Run E16: sampler+watch overhead plus the wakeup-latency distribution.
pub fn run(quick: bool) -> Table {
    let clients = if quick { 4 } else { 8 };
    let requests_per_client: u64 = if quick { 800 } else { 2_500 };
    let pairs = 3;
    let n_imps = if quick { 64 } else { 256 };

    let (st, interface, imps) = fanout_store(n_imps, 4, 4);
    let shared = SharedStore::from_store(st);
    // The server's config enables `watch`; the arms flip the
    // process-global sampler themselves, so the config's own interval is
    // only the streaming gate here.
    let server = Server::start(
        ServerConfig {
            workers: 4,
            queue_depth: 128,
            sample_interval_ms: 100,
            ..ServerConfig::default()
        },
        shared,
    )
    .expect("server binds");
    let addr = server.local_addr();

    let wakeup_hist =
        ccdb_obs::global().histogram("ccdb_server_wakeup_latency_ns", LATENCY_BUCKETS_NS);
    let wakeup_before = wakeup_hist.snapshot();

    // Warmup arm (not measured): populate the rescache, fault in pages.
    run_arm(addr, interface, &imps, clients, requests_per_client / 4);

    let mut thr_off = Vec::new();
    let mut thr_on = Vec::new();
    let mut errors = 0u64;
    let mut frames_seen = 0u64;
    for _ in 0..pairs {
        // Arm A: sampler stopped, nobody watching.
        stop_global_sampler();
        let (thr, e) = run_arm(addr, interface, &imps, clients, requests_per_client);
        thr_off.push(thr);
        errors += e;

        // Arm B: sampler on at the server's cadence, one live subscriber
        // draining frames for the duration of the arm.
        start_global_sampler(100, 512);
        let stop = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let watcher = {
            let (stop, frames) = (Arc::clone(&stop), Arc::clone(&frames));
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("watcher connects");
                c.set_read_timeout(Some(Duration::from_millis(500))).ok();
                if c.watch(100, &["ccdb_server_*"]).is_err() {
                    return;
                }
                while !stop.load(Ordering::Relaxed) {
                    if c.recv_watch_frame().is_ok() {
                        frames.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        let (thr, e) = run_arm(addr, interface, &imps, clients, requests_per_client);
        thr_on.push(thr);
        errors += e;
        stop.store(true, Ordering::Relaxed);
        watcher.join().expect("watcher joins");
        frames_seen += frames.load(Ordering::Relaxed);
    }
    // Leave the process-global sampler running for whoever runs next.
    start_global_sampler(100, 512);
    server.shutdown();

    let wakeup = snap_delta(&wakeup_before, &wakeup_hist.snapshot());
    let off = median(thr_off);
    let on = median(thr_on);
    let overhead_pct = if off > 0.0 {
        100.0 * (off - on) / off
    } else {
        0.0
    };

    let mut t = Table::new(
        "E16: telemetry sampler + watch subscriber overhead (E12 workload, interleaved A/B)",
        &["metric", "value", "note"],
    );
    t.row(vec![
        "throughput off".into(),
        format!("{off:.0} req/s"),
        "median, sampler stopped".into(),
    ]);
    t.row(vec![
        "throughput on".into(),
        format!("{on:.0} req/s"),
        "median, sampler @100ms + 1 watcher".into(),
    ]);
    t.row(vec![
        "overhead".into(),
        format!("{overhead_pct:.2}%"),
        "target <=2% (release); reported, not asserted".into(),
    ]);
    t.row(vec![
        "watch frames".into(),
        frames_seen.to_string(),
        "streamed to the subscriber".into(),
    ]);
    t.row(vec![
        "errors".into(),
        errors.to_string(),
        "server error responses".into(),
    ]);
    let q = |p: f64| {
        wakeup
            .quantile(p)
            .map(|v| format!("{:.1} us", v / 1e3))
            .unwrap_or_else(|| "-".into())
    };
    t.row(vec![
        "wakeup count".into(),
        wakeup.count.to_string(),
        "enqueue->dequeue observations".into(),
    ]);
    t.row(vec!["wakeup p50".into(), q(0.50), "queue wait".into()]);
    t.row(vec!["wakeup p95".into(), q(0.95), "queue wait".into()]);
    t.row(vec!["wakeup p99".into(), q(0.99), "queue wait".into()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural only: both arms ran, every row is present, nothing
    /// failed, and the watcher and the queue histogram saw the workload.
    /// The overhead is printed, not bounded — a ratio of two timed runs on
    /// a shared box is noise in tier-1; the quiet-window home for that
    /// bound is `trace.overhead_pct` in `benchmark/`.
    #[test]
    fn sampler_and_watcher_cost_stays_inside_the_guard() {
        let t = run(true);
        let get = |name: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("no `{name}` row in {:?}", t.rows))
        };
        assert_eq!(get("errors")[1], "0", "{:?}", t.rows);
        for arm in ["throughput off", "throughput on"] {
            let rate: f64 = get(arm)[1].trim_end_matches(" req/s").parse().unwrap();
            assert!(rate > 0.0, "`{arm}` arm did not run: {:?}", t.rows);
        }
        let overhead: Result<f64, _> = get("overhead")[1].trim_end_matches('%').parse();
        assert!(overhead.is_ok(), "{:?}", t.rows);
        for row in ["wakeup p50", "wakeup p95", "wakeup p99"] {
            get(row);
        }
        let frames: u64 = get("watch frames")[1].parse().unwrap();
        assert!(frames > 0, "subscriber saw no frames: {:?}", t.rows);
        let wakeups: u64 = get("wakeup count")[1].parse().unwrap();
        assert!(wakeups > 0, "wakeup histogram empty: {:?}", t.rows);
    }
}
