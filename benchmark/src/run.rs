//! One benchmark run: set-up, the untraced measured pass that yields the
//! end-to-end metrics, and (with `--trace 1`) the traced passes that yield
//! the per-layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use ccdb_core::shared::SharedStore;
use ccdb_obs::flight::PHASE_NAMES;
use ccdb_server::{Server, ServerConfig};

use crate::corpus::{self, BuildTimes, Model, Shape};
use crate::host;
use crate::measure::{run_pass, warm_up, Pass, Plan};
use crate::ops::{execute, Stream, Workload};
use crate::replay::{layer_probes, Replay};
use crate::spec::{assemble, Metric, END_TO_END, PER_LAYER};
use crate::trace::{median, Tracer};
use crate::wire::Wire;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shape: Shape,
    /// Where `<workload>.trace.jsonl` goes.
    pub out_dir: PathBuf,
}

/// What a run reports through the contract's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Facts printed beside the metrics (sample counts, machine).
    pub notes: Vec<String>,
}

/// Complete set-ups per untraced run. `setup_s` is their median, which
/// keeps one slow page-fault storm out of a gated number; each is measured
/// for a third of `--seconds`, which keeps one heap layout or one bad
/// stretch of seconds from being the whole sample.
const SETUPS: usize = 3;
/// Share of `--seconds` the traced run spends on its untraced reference
/// pass; the traced wire pass gets a fixed few windows.
const TRACE_REFERENCE_SHARE: f64 = 0.5;
const TRACED_WIRE_WINDOWS: usize = 6;
/// Ops of each workload's stream the in-process replay covers: one window's
/// worth, capped for the cheap ops.
const REPLAY_SLICE_MAX: usize = 512;

/// A built corpus being served, with a warmed-up connection to it.
struct Live {
    store: SharedStore,
    model: Model,
    server: Server,
    wire: Wire,
    stream: Stream,
    build: BuildTimes,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

/// `round` numbers the set-ups of one run: each gets its own op stream over
/// the same corpus, so pooled windows are independent samples.
fn set_up(cfg: &Config, round: u64) -> Result<Live, String> {
    let (store, mut model, build) = corpus::build(cfg.shape, cfg.seed)?;
    let store = SharedStore::from_store(store);
    // Shipped defaults are what is measured; one worker, because the whole
    // process is pinned to one CPU.
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..Default::default()
        },
        store.clone(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut wire = Wire::connect(server.local_addr())?;
    let mut stream = Stream::new(cfg.workload, cfg.seed.wrapping_add(round << 32), &model);
    let (attempted, failed, first_failure) =
        warm_up(cfg.workload, &mut stream, &mut model, &mut wire);
    Ok(Live {
        store,
        model,
        server,
        wire,
        stream,
        build,
        attempted,
        failed,
        first_failure,
    })
}

fn tear_down(live: Live) -> Vec<String> {
    let Live {
        store,
        server,
        wire,
        ..
    } = live;
    drop(wire);
    server.shutdown();
    store.read(|st| st.verify_integrity())
}

/// Runs the benchmark once. `Err` is a harness error (the only non-zero
/// exit); failed ops are reported in the [`Report`], not as an error.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let machine = Machine {
        nproc: host::nproc(), // read before pinning shrinks it to 1
        cpu: host::pin_to_first_allowed_cpu(),
    };
    // This thread is the load generator: its allocations are not the
    // server's. Server threads are spawned later and are counted.
    crate::alloc::skip_this_thread(true);
    if cfg.trace {
        run_traced(cfg, machine)
    } else {
        run_untraced(cfg, machine)
    }
}

fn too_few_windows(pass: &Pass, plan: &Plan) -> Result<(), String> {
    if pass.windows.len() < plan.min_windows {
        return Err(format!(
            "only {} of {} windows fit under the {:?} wall cap (minimum {}): the box is too \
             disturbed for a result",
            pass.windows.len(),
            plan.windows,
            plan.wall_cap,
            plan.min_windows
        ));
    }
    Ok(())
}

fn run_untraced(cfg: &Config, machine: Machine) -> Result<Report, String> {
    // Every set-up is measured: a third of the windows each, pooled.
    let plan = Plan::for_seconds(cfg.workload, cfg.seconds / SETUPS as f64);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut pooled: Option<Pass> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut first_failure = None;
    let mut problems = Vec::new();
    for round in 0..SETUPS {
        let t0 = Instant::now();
        let mut live = set_up(cfg, round as u64)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let pass = run_pass(
            plan,
            &mut live.stream,
            &mut live.model,
            &mut live.wire,
            machine.cpu,
        );
        too_few_windows(&pass, &plan)?;
        attempted += live.attempted;
        failed += live.failed;
        first_failure = first_failure.or(live.first_failure.take());
        problems.extend(tear_down(live));
        match pooled.as_mut() {
            Some(all) => all.absorb(pass),
            None => pooled = Some(pass),
        }
    }
    let pass = pooled.expect("SETUPS > 0");
    attempted += pass.attempted;
    failed += pass.failed;
    let first_failure = first_failure.or(pass.first_failure.clone());
    let quiet = pass.quiet().ok_or("no window without a failed op")?;

    let values = [
        ("ops_per_s", quiet.ops_per_s),
        ("rtt_p50_us", quiet.rtt_p50_us),
        ("server_cpu_us_per_op", quiet.server_cpu_us_per_op),
        ("rss_mb", host::peak_rss_mb()),
        (
            "wire_bytes_per_op",
            pass.per_op(pass.bytes_out + pass.bytes_in),
        ),
        ("allocs_per_op", pass.per_op(pass.allocs)),
        ("alloc_bytes_per_op", pass.per_op(pass.alloc_bytes)),
        ("setup_s", median(setup_s.clone())),
    ];
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let mut notes = vec![
        format!(
            "quiet decile: {} of {} windows x {} ops; rtt_p50_us over {} round trips",
            quiet.windows,
            pass.windows.len(),
            pass.ops_per_window,
            quiet.rtt_samples
        ),
        format!("set-ups: {setup_s:.3?} s"),
        machine.note(pass.steal_share()),
    ];
    notes.extend(failure_notes(&first_failure, &problems));
    Ok(Report {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics: assemble(&names, &values)?,
        notes,
    })
}

/// Where the run happened: the facts a reader needs beside any timing.
#[derive(Clone, Copy)]
struct Machine {
    nproc: usize,
    /// The one CPU every thread is pinned to, unless the kernel refused.
    cpu: Option<usize>,
}

impl Machine {
    fn note(&self, steal_share: f64) -> String {
        format!(
            "machine: nproc {}, pinned to cpu {}, steal share {:.3}",
            self.nproc,
            self.cpu
                .map_or("none (refused)".to_string(), |c| c.to_string()),
            steal_share
        )
    }
}

fn failure_notes(first_failure: &Option<String>, problems: &[String]) -> Vec<String> {
    let mut notes = Vec::new();
    if let Some(why) = first_failure {
        notes.push(format!("first failed op: {why}"));
    }
    if let Some(first) = problems.first() {
        notes.push(format!(
            "verify_integrity: {} problems, first: {first}",
            problems.len()
        ));
    }
    notes
}

/// Counters and histograms scraped from the process-global registry; the
/// per-layer `server.*` and `rescache.*` numbers are their deltas over the
/// untraced reference pass.
struct Scrape {
    phase_sum: [u64; 8],
    phase_count: [u64; 8],
    requests: u64,
    inline: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    publishes: u64,
}

fn scrape(store: &SharedStore) -> Scrape {
    let r = ccdb_obs::global();
    let counter = |name: &str| r.find_counter(name).map_or(0, |c| c.get());
    let stats = store.read(|st| st.stats());
    let mut s = Scrape {
        phase_sum: [0; 8],
        phase_count: [0; 8],
        requests: counter("ccdb_server_requests_total"),
        inline: counter("ccdb_server_inline_requests_total"),
        hits: stats.rescache_hits,
        misses: stats.rescache_misses,
        invalidations: stats.rescache_invalidations,
        publishes: counter("ccdb_core_snapshot_publishes_total"),
    };
    for (i, phase) in PHASE_NAMES.iter().enumerate() {
        if let Some(h) = r.find_histogram(&format!("ccdb_server_phase_all_{phase}_ns")) {
            s.phase_sum[i] = h.sum();
            s.phase_count[i] = h.count();
        }
    }
    s
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_traced(cfg: &Config, machine: Machine) -> Result<Report, String> {
    let mut live = set_up(cfg, 0)?;

    // 1. Untraced reference pass: what the traced numbers are compared to.
    let plan = Plan::for_seconds(cfg.workload, cfg.seconds * TRACE_REFERENCE_SHARE);
    let before = scrape(&live.store);
    let reference = run_pass(
        plan,
        &mut live.stream,
        &mut live.model,
        &mut live.wire,
        machine.cpu,
    );
    let after = scrape(&live.store);
    too_few_windows(&reference, &plan)?;
    let quiet = reference.quiet().ok_or("no window without a failed op")?;
    let all = reference.all().ok_or("no window without a failed op")?;

    // 2. The same stream over the wire with spans around client encode,
    //    send->receive and decode.
    let mut t = Tracer::new();
    t.begin_op("wire");
    live.wire.tracer = Some(t);
    let traced_plan = Plan {
        windows: TRACED_WIRE_WINDOWS,
        min_windows: 1,
        ..plan
    };
    let traced = run_pass(
        traced_plan,
        &mut live.stream,
        &mut live.model,
        &mut live.wire,
        machine.cpu,
    );
    let t = live.wire.tracer.take().expect("set above");

    // 3. In-process replay: a slice of every workload's stream through the
    //    public functions, so that every layer has spans whatever the
    //    workload; this workload's own slice gives `proto.*` and the
    //    residual.
    let mut replay = Replay::new(live.store.clone(), &live.model, t);
    let (mut replayed, mut replay_failed) = (0u64, 0u64);
    let mut first_failure = live
        .first_failure
        .take()
        .or(reference.first_failure.clone())
        .or(traced.first_failure.clone());
    for workload in Workload::ALL {
        let stream = Stream::new(workload, cfg.seed, &live.model);
        // Each slice runs twice from the same stream position: muted, to
        // leave the caches as the workload's own warm-up would, then timed.
        for recording in [false, true] {
            replay.tracer.set_recording(recording);
            let mut stream = stream.clone();
            for _ in 0..workload.ops_per_window().min(REPLAY_SLICE_MAX) {
                replay.tracer.begin_op(workload.name());
                let op = stream.next_op(&live.model);
                replayed += 1;
                if let Err(why) = execute(&op, &mut live.model, &mut replay) {
                    replay_failed += 1;
                    first_failure.get_or_insert(why);
                }
            }
        }
    }

    // 4. Direct probes for what no op isolates.
    let mut t = replay.tracer;
    let counts = layer_probes(&live.store, &live.model, &mut t)?;

    let attempted = live.attempted + reference.attempted + traced.attempted + replayed;
    let failed = live.failed + reference.failed + traced.failed + replay_failed;
    let build_times = (live.build.create_ns, live.build.bind_ns);
    let objects = live.model.shape.objects();
    let problems = tear_down(live);

    let own = cfg.workload.name();
    let m = |name: &str| t.median_self_ns(name, own);
    let mut values: Vec<(&str, f64)> = vec![
        ("proto.encode_req_ns", m("proto.encode_req")),
        ("proto.parse_req_ns", m("proto.parse_req")),
        ("proto.encode_resp_ns", m("proto.encode_resp")),
        ("proto.decode_resp_ns", m("proto.decode_resp")),
        ("proto.frame_ns", m("proto.frame")),
        (
            "proto.req_bytes",
            ratio(reference.bytes_out, reference.requests),
        ),
        (
            "proto.resp_bytes",
            ratio(reference.bytes_in, reference.requests),
        ),
        ("proto.v1_parse_req_ns", m("proto.v1_parse_req")),
        ("proto.v1_encode_resp_ns", m("proto.v1_encode_resp")),
        ("queue.push_pop_ns", m("queue.push_pop")),
        ("shared.snapshot_pin_ns", m("shared.snapshot_pin")),
        ("shared.write_publish_ns", m("shared.write_publish_empty")),
        ("shared.publish_alloc_bytes", counts.publish_alloc_bytes),
        (
            "shared.publish_ns_per_kobj",
            m("shared.write_publish") * 1000.0 / objects as f64,
        ),
        ("store.attr_hit_ns", m("store.attr_hit")),
        ("store.attr_miss_ns", m("store.attr_miss")),
        ("store.hops_per_miss", counts.hops_per_miss),
        ("store.select_expr_ns_per_row", m("store.select")),
        ("store.select_eq_ns_per_row", m("store.select_eq")),
        ("store.rows_per_result", counts.rows_per_result),
        ("store.set_attr_ns", m("store.set_attr")),
        ("store.bind_ns", build_times.1),
        ("store.create_ns", build_times.0),
        ("rescache.get_ns", m("rescache.get")),
        (
            "rescache.fill_ns",
            (m("store.attr_miss") - m("store.attr_walk")).max(0.0),
        ),
        (
            "rescache.hit_ratio",
            ratio(
                after.hits - before.hits,
                (after.hits - before.hits) + (after.misses - before.misses),
            ),
        ),
        ("rescache.invalidate_ns", invalidate_ns(&t)),
        (
            "rescache.swept_per_write",
            ratio(
                after.invalidations - before.invalidations,
                after.publishes - before.publishes,
            ),
        ),
        ("expr.eval_ns_per_row", m("expr.eval")),
        ("lang.compile_where_ns", m("lang.compile_where")),
        ("txn.begin_ns", m("txn.begin")),
        ("txn.read_attr_ns", m("txn.read_attr")),
        ("txn.locks_per_read", counts.locks_per_read),
        ("txn.set_attr_ns", m("txn.set_attr")),
        ("txn.commit_ns", m("txn.commit")),
        ("txn.abort_ns", m("txn.abort")),
        (
            "server.inline_share",
            ratio(
                after.inline - before.inline,
                after.requests - before.requests,
            ),
        ),
        ("client.ops_per_s_all", all.ops_per_s),
        ("client.rtt_p50_all_us", all.rtt_p50_us),
        ("client.rtt_p99_us", reference.rtt_p99_us()),
        ("client.quiet_spread", reference.quiet_spread()),
        ("host.steal_share", reference.steal_share()),
        ("host.pinned", machine.cpu.is_some() as u64 as f64),
        (
            "trace.overhead_pct",
            (traced.median_window_ns() / reference.median_window_ns() - 1.0) * 100.0,
        ),
    ];
    const PHASE_METRICS: [&str; 8] = [
        "server.phase_recv_ns",
        "server.phase_parse_ns",
        "server.phase_queue_ns",
        "server.phase_snapshot_ns",
        "server.phase_lock_ns",
        "server.phase_handle_ns",
        "server.phase_serialize_ns",
        "server.phase_write_ns",
    ];
    for (i, name) in PHASE_METRICS.iter().enumerate() {
        values.push((
            name,
            ratio(
                after.phase_sum[i] - before.phase_sum[i],
                after.phase_count[i] - before.phase_count[i],
            ),
        ));
    }
    // What the replay cannot reach: sockets, event loop, private JSON glue.
    let primary_in_process = median(primary_request_durations(&t, cfg.workload));
    values.push((
        "server.residual_us",
        all.rtt_p50_us - primary_in_process / 1e3,
    ));

    let path = cfg.out_dir.join(format!("{own}.trace.jsonl"));
    t.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let mut notes = vec![
        format!(
            "reference pass: {} windows x {} ops, quiet decile {} windows; traced wire pass: {} windows",
            reference.windows.len(),
            reference.ops_per_window,
            quiet.windows,
            traced.windows.len()
        ),
        format!("spans: {} written to {}", t.len(), path.display()),
        machine.note(reference.steal_share()),
    ];
    notes.extend(failure_notes(&first_failure, &problems));
    Ok(Report {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics: assemble(&PER_LAYER, &values)?,
        notes,
    })
}

/// Cost of sweeping a fully cached inheritor closure: the probe writes each
/// transmitter twice, cache off then closure cached, so the median of the
/// paired differences cancels what the two writes share.
fn invalidate_ns(t: &Tracer) -> f64 {
    let off = t.self_times("store.set_attr_nocache", None);
    let swept = t.self_times("store.set_attr_swept", None);
    median(swept.iter().zip(&off).map(|(s, o)| s - o).collect()).max(0.0)
}

/// Whole in-process durations of the workload's primary request in its own
/// replayed slice: every `replay.request` for the single-request workloads,
/// the `set_attr` / `commit` request for the composite ones.
fn primary_request_durations(t: &Tracer, workload: Workload) -> Vec<f64> {
    let marker = match workload {
        Workload::HotRead | Workload::ExtentScan => {
            return t.durations("replay.request", workload.name())
        }
        Workload::Propagate => "shared.write_publish",
        Workload::TxnCheckout => "txn.commit",
    };
    t.parents_of(marker, workload.name())
}
