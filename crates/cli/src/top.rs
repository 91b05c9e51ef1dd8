//! `ccdb top` and `ccdb flight`: live latency decomposition for a running
//! server, over the regular wire protocol (no side channel).
//!
//! - [`cmd_top`] queries the server's `telemetry` verb each frame: the
//!   server computes windowed rates and quantiles from its own sampler
//!   ring, so the dashboard needs no client-side scrape-diffing and every
//!   number is a *windowed* figure, not a since-boot cumulative. Counter
//!   and gauge series come back with per-tick point vectors, rendered as
//!   sparklines (req/s, queue depth, worker utilization, rescache hit
//!   rate). `--once` prints a single frame (CI smoke); otherwise it
//!   refreshes until the connection drops.
//! - [`cmd_flight`] dumps the server's flight recorder (`flight` verb):
//!   the slowest-N and most-recent-M completed requests with their
//!   per-phase timelines.

use std::time::Duration;

use ccdb_server::Client;
use serde_json::Value as Json;

use crate::CliError;

fn net(e: impl std::fmt::Display) -> CliError {
    CliError {
        message: format!("cannot reach server: {e}"),
        code: 1,
    }
}

/// Formats nanoseconds compactly (`950ns`, `12.3µs`, `4.5ms`, `1.2s`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders per-tick points as a sparkline scaled to the window maximum
/// (an all-zero window renders as a flat baseline).
pub fn sparkline(points: &[f64]) -> String {
    let max = points.iter().copied().fold(0.0_f64, f64::max);
    points
        .iter()
        .map(|p| {
            if max <= 0.0 || *p <= 0.0 {
                SPARK[0]
            } else {
                SPARK[(((p / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Finds a series entry by name in a `telemetry` response.
fn series<'a>(t: &'a Json, name: &str) -> Option<&'a Json> {
    t.get("series")?
        .as_array()?
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
}

/// A counter/gauge series' per-tick point vector, as f64.
fn points_f64(t: &Json, name: &str) -> Vec<f64> {
    series(t, name)
        .and_then(|s| s.get("points"))
        .and_then(Json::as_array)
        .map(|pts| pts.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// A counter series' windowed delta (0 when absent).
fn counter_delta(t: &Json, name: &str) -> f64 {
    series(t, name)
        .and_then(|s| s.get("delta"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A counter series' windowed per-second rate (0 when absent).
fn counter_rate(t: &Json, name: &str) -> f64 {
    series(t, name)
        .and_then(|s| s.get("rate"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A gauge series' latest value (0 when absent).
fn gauge_value(t: &Json, name: &str) -> f64 {
    series(t, name)
        .and_then(|s| s.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A windowed histogram field (`p50`/`p95`/`p99`/`sum`), `-` when absent.
fn hist_field(t: &Json, name: &str, field: &str) -> Option<f64> {
    series(t, name)
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
}

fn fmt_q(t: &Json, name: &str, field: &str) -> String {
    match hist_field(t, name, field) {
        Some(v) => fmt_ns(v),
        None => "-".into(),
    }
}

/// Per-tick ratio sparkline: `num[i] / (num[i] + den[i])`, in percent.
fn ratio_points(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter()
        .zip(den)
        .map(|(n, d)| {
            if n + d > 0.0 {
                100.0 * n / (n + d)
            } else {
                0.0
            }
        })
        .collect()
}

/// Renders one dashboard frame from a `ping` info object and a
/// `telemetry` response. Pure — unit tests feed synthetic payloads.
pub fn render_top(addr: &str, info: &Json, t: &Json) -> String {
    let mut out = String::new();
    let gets = |k: &str| {
        info.get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let getu = |k: &str| info.get(k).and_then(Json::as_u64).unwrap_or(0);
    let window_ms = t.get("window_ms").and_then(Json::as_u64).unwrap_or(0);
    let interval_ms = t.get("interval_ms").and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!(
        "ccdb top — {addr} | v{} up {:.0}s | workers {} | queue cap {} | rescache shards {}\n",
        gets("version"),
        getu("uptime_ms") as f64 / 1000.0,
        getu("workers"),
        getu("queue_depth"),
        getu("rescache_shards"),
    ));
    out.push_str(&format!(
        "window {:.1}s @ {interval_ms}ms samples (server-side ring, tick {})\n",
        window_ms as f64 / 1000.0,
        t.get("tick").and_then(Json::as_u64).unwrap_or(0),
    ));

    if t.get("sampler_running").and_then(Json::as_bool) == Some(false) {
        out.push_str("telemetry sampler disabled on this server — numbers below are empty\n");
    }

    // Headline rates with per-tick sparklines.
    let req_pts = points_f64(t, "ccdb_server_requests_total");
    out.push_str(&format!(
        "req/s {:>8.1} {}\n",
        counter_rate(t, "ccdb_server_requests_total"),
        sparkline(&req_pts),
    ));
    let depth_pts = points_f64(t, "ccdb_server_queue_depth");
    out.push_str(&format!(
        "queue depth {:>3.0} {}  overloaded/s {:.1}\n",
        gauge_value(t, "ccdb_server_queue_depth"),
        sparkline(&depth_pts),
        counter_rate(t, "ccdb_server_overloaded_total"),
    ));

    // Worker utilization: busy ns / (busy + idle) ns, windowed and per tick.
    let busy_pts = points_f64(t, "ccdb_server_workers_busy_ns_total");
    let idle_pts = points_f64(t, "ccdb_server_workers_idle_ns_total");
    let busy = counter_delta(t, "ccdb_server_workers_busy_ns_total");
    let idle = counter_delta(t, "ccdb_server_workers_idle_ns_total");
    let util = if busy + idle > 0.0 {
        100.0 * busy / (busy + idle)
    } else {
        0.0
    };
    out.push_str(&format!(
        "workers {util:>5.1}% busy {}  busy now {:.0}\n",
        sparkline(&ratio_points(&busy_pts, &idle_pts)),
        gauge_value(t, "ccdb_server_workers_busy"),
    ));

    // Resolution-cache hit rate over the window, with a per-tick sparkline.
    let hit_pts = points_f64(t, "ccdb_core_rescache_hits_total");
    let miss_pts = points_f64(t, "ccdb_core_rescache_misses_total");
    let hits = counter_delta(t, "ccdb_core_rescache_hits_total");
    let misses = counter_delta(t, "ccdb_core_rescache_misses_total");
    let hit_rate = if hits + misses > 0.0 {
        100.0 * hits / (hits + misses)
    } else {
        0.0
    };
    out.push_str(&format!(
        "rescache hit rate {hit_rate:>5.1}% {}\n",
        sparkline(&ratio_points(&hit_pts, &miss_pts)),
    ));

    out.push_str(&format!(
        "sessions: {} (v1 json {}, v2 binary {}) | watch subs {} frames/s {:.1}\n",
        gauge_value(t, "ccdb_server_sessions_active"),
        gauge_value(t, "ccdb_server_sessions_v1"),
        gauge_value(t, "ccdb_server_sessions_v2"),
        gauge_value(t, "ccdb_server_watch_subscribers"),
        counter_rate(t, "ccdb_server_watch_frames_total"),
    ));

    // Dispatch tiers: readiness backend and event-loop iteration rate,
    // the inline fast path's share of the request stream, and per-worker
    // steal rates from the sharded queue.
    let inline = counter_delta(t, "ccdb_server_inline_requests_total");
    let reqs = counter_delta(t, "ccdb_server_requests_total");
    let inline_share = if reqs > 0.0 {
        100.0 * inline / reqs
    } else {
        0.0
    };
    let mut steal_parts: Vec<String> = Vec::new();
    if let Some(all) = t.get("series").and_then(Json::as_array) {
        let mut workers: Vec<(usize, f64)> = all
            .iter()
            .filter_map(|s| {
                let name = s.get("name").and_then(Json::as_str)?;
                let idx: usize = name
                    .strip_prefix("ccdb_server_worker")?
                    .strip_suffix("_steals_total")?
                    .parse()
                    .ok()?;
                Some((idx, s.get("rate").and_then(Json::as_f64).unwrap_or(0.0)))
            })
            .collect();
        workers.sort_unstable_by_key(|(i, _)| *i);
        steal_parts = workers
            .iter()
            .map(|(i, r)| format!("w{i} {r:.1}"))
            .collect();
    }
    out.push_str(&format!(
        "dispatch: {} backend | loop {:.0} iters/s | \
         inline {inline_share:.1}% of requests ({:.1}/s fallback) | steals/s {:.1}{}\n",
        gets("backend"),
        counter_rate(t, "ccdb_server_eventloop_iterations_total"),
        counter_rate(t, "ccdb_server_inline_fallback_total"),
        counter_rate(t, "ccdb_server_steals_total"),
        if steal_parts.is_empty() {
            String::new()
        } else {
            format!(" [{}]", steal_parts.join(" "))
        },
    ));

    // Scheduler wakeup latency: the queue's own enqueue→dequeue histogram.
    if let Some(w) = t.get("wakeup").filter(|w| !matches!(w, Json::Null)) {
        let q = |f: &str| {
            w.get(f)
                .and_then(Json::as_f64)
                .map(fmt_ns)
                .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "wakeup latency: {} dequeues | p50 {} p95 {} p99 {}\n",
            w.get("count").and_then(Json::as_u64).unwrap_or(0),
            q("p50_ns"),
            q("p95_ns"),
            q("p99_ns"),
        ));
    }

    // Store-lock contention probes, windowed.
    out.push_str("store lock: ");
    for mode in ["shared", "exclusive"] {
        out.push_str(&format!(
            "{mode} wait p95 {} hold p95 {} | ",
            fmt_q(t, &format!("ccdb_core_storelock_{mode}_wait_ns"), "p95"),
            fmt_q(t, &format!("ccdb_core_storelock_{mode}_hold_ns"), "p95"),
        ));
    }
    out.push('\n');

    // MVCC snapshot health: reader-visible staleness, publish cost, and
    // the windowed publish rate.
    out.push_str(&format!(
        "snapshot: v{:.0} age {:.0}ms | publish p95 {} ({:.1}/s) | txn begin/commit/abort/conflict {:.0}/{:.0}/{:.0}/{:.0}\n",
        gauge_value(t, "ccdb_core_snapshot_version"),
        gauge_value(t, "ccdb_core_snapshot_age_ms"),
        fmt_q(t, "ccdb_core_snapshot_publish_ns", "p95"),
        counter_rate(t, "ccdb_core_snapshot_publishes_total"),
        counter_delta(t, "ccdb_txn_wire_begins_total"),
        counter_delta(t, "ccdb_txn_wire_commits_total"),
        counter_delta(t, "ccdb_txn_wire_aborts_total"),
        counter_delta(t, "ccdb_txn_wire_conflicts_total"),
    ));

    // Phase decomposition across all verbs, from the windowed sums.
    let phase_sums: Vec<(&str, f64)> = ccdb_obs::flight::PHASE_NAMES
        .iter()
        .map(|p| {
            (
                *p,
                hist_field(t, &format!("ccdb_server_phase_all_{p}_ns"), "sum").unwrap_or(0.0),
            )
        })
        .collect();
    let total_sum: f64 = phase_sums.iter().map(|(_, s)| s).sum();
    out.push_str("phase p95: ");
    for p in ccdb_obs::flight::PHASE_NAMES {
        out.push_str(&format!(
            "{p} {} | ",
            fmt_q(t, &format!("ccdb_server_phase_all_{p}_ns"), "p95")
        ));
    }
    out.push('\n');
    if total_sum > 0.0 {
        out.push_str("phase share: ");
        for (p, s) in &phase_sums {
            let pct = 100.0 * s / total_sum;
            let ticks = (pct / 2.5).round() as usize; // 40 chars = 100%
            out.push_str(&format!("{p} {pct:.0}% {} ", "#".repeat(ticks)));
        }
        out.push('\n');
    }

    // Per-verb latency table, computed server-side over the same window.
    out.push_str(&format!(
        "{:<10} {:>10} {:>9} {:>9} {:>9}\n",
        "verb", "count", "p50", "p95", "p99"
    ));
    let mut verbs: Vec<&Json> = t
        .get("verbs")
        .and_then(Json::as_array)
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    verbs.sort_by_key(|v| v.get("verb").and_then(Json::as_str).unwrap_or(""));
    for v in verbs {
        let name = v.get("verb").and_then(Json::as_str).unwrap_or("?");
        let count = v.get("count").and_then(Json::as_u64).unwrap_or(0);
        let q = |f: &str| {
            v.get(f)
                .and_then(Json::as_f64)
                .map(fmt_ns)
                .unwrap_or_else(|| "-".into())
        };
        out.push_str(&format!(
            "{name:<10} {count:>10} {:>9} {:>9} {:>9}\n",
            q("p50_ns"),
            q("p95_ns"),
            q("p99_ns"),
        ));
    }
    out
}

/// The series patterns `ccdb top` asks the server to digest: the server's
/// own metrics plus the core-layer cache and lock probes.
const TOP_SERIES: &[&str] = &[
    "ccdb_server_*",
    "ccdb_core_rescache_*",
    "ccdb_core_storelock_*",
    "ccdb_core_snapshot_*",
    "ccdb_txn_wire_*",
];

fn query_telemetry(c: &mut Client, points: u64) -> Result<Json, CliError> {
    c.telemetry(serde_json::json!({
        "points": points,
        "series": TOP_SERIES,
    }))
    .map_err(net)
}

/// `top`: refreshing dashboard over the `telemetry` verb. `--once`
/// renders a single frame and returns it; otherwise frames stream to
/// stdout every `interval_ms` until the connection drops.
pub fn cmd_top(addr: &str, once: bool, interval_ms: u64) -> Result<String, CliError> {
    let mut c = Client::connect(addr).map_err(net)?;
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(net)?;
    let info = c.ping_info().map_err(net)?;
    loop {
        let t = query_telemetry(&mut c, 32)?;
        let frame = render_top(addr, &info, &t);
        if once {
            return Ok(frame);
        }
        // ANSI clear + home, then the frame.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(interval_ms.max(100)));
    }
}

/// Renders a flight-recorder dump (the `flight` verb's result) as text.
/// Pure — unit tests feed a synthetic payload.
pub fn render_flight(r: &Json) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flight recorder: {} recorded | recent cap {} | slowest cap {}\n",
        r.get("recorded").and_then(Json::as_u64).unwrap_or(0),
        r.get("recent_cap").and_then(Json::as_u64).unwrap_or(0),
        r.get("slowest_cap").and_then(Json::as_u64).unwrap_or(0),
    ));
    for section in ["slowest", "recent"] {
        let records = r
            .get(section)
            .and_then(Json::as_array)
            .map(|a| a.to_vec())
            .unwrap_or_default();
        out.push_str(&format!("\n{section} ({}):\n", records.len()));
        out.push_str(&format!(
            "  {:<10} {:<10} {:>9}  {}\n",
            "verb", "outcome", "total", "phases"
        ));
        for rec in &records {
            let verb = rec.get("verb").and_then(Json::as_str).unwrap_or("?");
            let outcome = rec.get("outcome").and_then(Json::as_str).unwrap_or("?");
            let total = rec.get("total_ns").and_then(Json::as_u64).unwrap_or(0);
            let phases = rec.get("phases");
            let mut parts = Vec::new();
            for p in ccdb_obs::flight::PHASE_NAMES {
                let ns = phases
                    .and_then(|ph| ph.get(p))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                parts.push(format!("{p} {}", fmt_ns(ns as f64)));
            }
            let trace = rec
                .get("trace")
                .and_then(Json::as_u64)
                .map(|t| format!(" trace={t}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {verb:<10} {outcome:<10} {:>9}  {}{trace}\n",
                fmt_ns(total as f64),
                parts.join(" | "),
            ));
        }
    }
    out
}

/// `flight`: dump the server's flight recorder, as text or raw JSON.
pub fn cmd_flight(addr: &str, json: bool) -> Result<String, CliError> {
    let mut c = Client::connect(addr).map_err(net)?;
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(net)?;
    let r = c.flight().map_err(net)?;
    Ok(if json {
        r.to_json_string()
    } else {
        render_flight(&r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic `telemetry` response in the server's shape.
    fn payload() -> Json {
        serde_json::from_str(
            r#"{
            "tick": 40, "interval_ms": 250, "retention": 512,
            "points": 8, "window_ms": 2000, "window_samples": 8,
            "sampler_running": true,
            "series": [
                {"name": "ccdb_server_requests_total", "kind": "counter",
                 "delta": 100, "rate": 50.0,
                 "points": [0, 5, 10, 20, 25, 20, 15, 5]},
                {"name": "ccdb_server_queue_depth", "kind": "gauge",
                 "value": 2, "points": [0, 0, 1, 3, 4, 3, 2, 2]},
                {"name": "ccdb_server_sessions_active", "kind": "gauge",
                 "value": 3, "points": [3]},
                {"name": "ccdb_server_sessions_v1", "kind": "gauge",
                 "value": 1, "points": [1]},
                {"name": "ccdb_server_sessions_v2", "kind": "gauge",
                 "value": 2, "points": [2]},
                {"name": "ccdb_server_workers_busy_ns_total", "kind": "counter",
                 "delta": 900, "rate": 450.0,
                 "points": [100, 100, 100, 100, 100, 100, 100, 200]},
                {"name": "ccdb_server_workers_idle_ns_total", "kind": "counter",
                 "delta": 100, "rate": 50.0,
                 "points": [10, 10, 10, 10, 10, 10, 10, 30]},
                {"name": "ccdb_core_rescache_hits_total", "kind": "counter",
                 "delta": 90, "rate": 45.0, "points": [10, 10, 10, 15]},
                {"name": "ccdb_core_rescache_misses_total", "kind": "counter",
                 "delta": 10, "rate": 5.0, "points": [2, 1, 1, 1]},
                {"name": "ccdb_core_storelock_shared_wait_ns", "kind": "histogram",
                 "count": 40, "sum": 40000, "p50": 500.0, "p95": 2000.0, "p99": 4000.0},
                {"name": "ccdb_core_snapshot_version", "kind": "gauge",
                 "value": 17, "points": [17]},
                {"name": "ccdb_core_snapshot_age_ms", "kind": "gauge",
                 "value": 12, "points": [12]},
                {"name": "ccdb_core_snapshot_publish_ns", "kind": "histogram",
                 "count": 9, "sum": 90000, "p50": 6000.0, "p95": 30000.0, "p99": 50000.0},
                {"name": "ccdb_core_snapshot_publishes_total", "kind": "counter",
                 "delta": 9, "rate": 4.5, "points": [1, 1, 2, 5]},
                {"name": "ccdb_txn_wire_begins_total", "kind": "counter",
                 "delta": 6, "rate": 3.0, "points": [6]},
                {"name": "ccdb_txn_wire_commits_total", "kind": "counter",
                 "delta": 4, "rate": 2.0, "points": [4]},
                {"name": "ccdb_txn_wire_aborts_total", "kind": "counter",
                 "delta": 2, "rate": 1.0, "points": [2]},
                {"name": "ccdb_txn_wire_conflicts_total", "kind": "counter",
                 "delta": 1, "rate": 0.5, "points": [1]},
                {"name": "ccdb_server_phase_all_handle_ns", "kind": "histogram",
                 "count": 100, "sum": 90000, "p50": 700.0, "p95": 1000.0, "p99": 1500.0},
                {"name": "ccdb_server_eventloop_iterations_total", "kind": "counter",
                 "delta": 2400, "rate": 1200.0, "points": [300, 300, 300, 300]},
                {"name": "ccdb_server_inline_requests_total", "kind": "counter",
                 "delta": 60, "rate": 30.0, "points": [15, 15, 15, 15]},
                {"name": "ccdb_server_inline_fallback_total", "kind": "counter",
                 "delta": 4, "rate": 2.0, "points": [1, 1, 1, 1]},
                {"name": "ccdb_server_steals_total", "kind": "counter",
                 "delta": 12, "rate": 6.0, "points": [3, 3, 3, 3]},
                {"name": "ccdb_server_worker0_steals_total", "kind": "counter",
                 "delta": 8, "rate": 4.0, "points": [2, 2, 2, 2]},
                {"name": "ccdb_server_worker1_steals_total", "kind": "counter",
                 "delta": 4, "rate": 2.0, "points": [1, 1, 1, 1]}
            ],
            "verbs": [
                {"verb": "attr", "count": 80,
                 "p50_ns": 4000.0, "p95_ns": 9000.0, "p99_ns": 20000.0},
                {"verb": "ping", "count": 20,
                 "p50_ns": 1000.0, "p95_ns": 2000.0, "p99_ns": 2500.0}
            ],
            "wakeup": {"count": 100, "p50_ns": 1500.0,
                       "p95_ns": 8000.0, "p99_ns": 16000.0}
        }"#,
        )
        .unwrap()
    }

    fn info() -> Json {
        serde_json::from_str(
            r#"{"version": "0.1.0", "uptime_ms": 5000, "workers": 4,
                "queue_depth": 64, "rescache_shards": 16,
                "backend": "epoll"}"#,
        )
        .unwrap()
    }

    #[test]
    fn sparkline_scales_to_window_max() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0, 8.0]);
        assert_eq!(s.chars().count(), 5);
        assert!(s.starts_with('▁'), "{s}");
        assert!(s.ends_with('█'), "{s}");
        // All-zero windows render flat instead of dividing by zero.
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
    }

    #[test]
    fn frame_renders_server_side_rates_sparklines_and_verbs() {
        let frame = render_top("127.0.0.1:7878", &info(), &payload());
        assert!(frame.contains("ccdb top"), "{frame}");
        assert!(frame.contains("req/s     50.0"), "{frame}");
        assert!(frame.contains('█'), "no sparkline in frame: {frame}");
        assert!(frame.contains("rescache hit rate  90.0%"), "{frame}");
        assert!(frame.contains("workers  90.0% busy"), "{frame}");
        // The per-verb table comes straight from the server-side digest.
        assert!(
            frame
                .lines()
                .any(|l| l.starts_with("attr") && l.contains("80") && l.contains("4.0µs")),
            "{frame}"
        );
        // Scheduler wakeup latency is surfaced.
        assert!(
            frame.contains("wakeup latency: 100 dequeues | p50 1.5µs"),
            "{frame}"
        );
        // Dispatch line: resolved backend, loop iteration rate, inline
        // share of the request stream, and per-worker steal rates.
        assert!(
            frame.contains("dispatch: epoll backend | loop 1200 iters/s"),
            "{frame}"
        );
        assert!(
            frame.contains("inline 60.0% of requests (2.0/s fallback)"),
            "{frame}"
        );
        assert!(frame.contains("steals/s 6.0 [w0 4.0 w1 2.0]"), "{frame}");
        assert!(frame.contains("shared wait p95 2.0µs"), "{frame}");
        assert!(frame.contains("window 2.0s @ 250ms samples"), "{frame}");
        // MVCC snapshot health line: version, age, publish p95 + rate,
        // and the wire-transaction counters.
        assert!(
            frame.contains("snapshot: v17 age 12ms | publish p95 30.0µs (4.5/s)"),
            "{frame}"
        );
        assert!(
            frame.contains("txn begin/commit/abort/conflict 6/4/2/1"),
            "{frame}"
        );
    }

    #[test]
    fn frame_flags_a_disabled_sampler() {
        let t = serde_json::from_str(
            r#"{"tick": 0, "interval_ms": 250, "window_ms": 0,
                "sampler_running": false, "series": [], "verbs": [],
                "wakeup": null}"#,
        )
        .unwrap();
        let frame = render_top("x", &info(), &t);
        assert!(frame.contains("sampler disabled"), "{frame}");
    }

    #[test]
    fn flight_render_shows_phases_and_trace() {
        let payload = serde_json::from_str(
            r#"{"recorded": 3, "recent_cap": 128, "slowest_cap": 64,
                "slowest": [{"verb": "attr", "outcome": "ok", "total_ns": 12345,
                             "phases": {"recv": 100, "parse": 200, "queue": 300,
                                        "lock": 400, "handle": 10000,
                                        "serialize": 500, "write": 845},
                             "trace": 42, "session": 1}],
                "recent": []}"#,
        )
        .unwrap();
        let out = render_flight(&payload);
        assert!(out.contains("3 recorded"), "{out}");
        assert!(out.contains("attr"), "{out}");
        assert!(out.contains("handle 10.0µs"), "{out}");
        assert!(out.contains("trace=42"), "{out}");
        assert!(out.contains("12.3µs"), "{out}");
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(950.0), "950ns");
        assert_eq!(fmt_ns(1_500.0), "1.5µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.5ms");
        assert_eq!(fmt_ns(1_200_000_000.0), "1.20s");
    }
}
