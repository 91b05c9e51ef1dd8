//! `ccdb serve`: expose a schema's store over TCP, and `ccdb bench-net`:
//! a closed-loop load generator against that wire protocol.
//!
//! `serve` compiles the schema into a fresh [`SharedStore`] and blocks in
//! the server's drain loop until some client sends the `shutdown` verb
//! (there is no signal handling — the wire is the control plane, which
//! keeps the smoke tests portable).

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_core::schema::Catalog;
use ccdb_core::shared::SharedStore;
use ccdb_core::Value;
use ccdb_server::{Client, Server, ServerConfig};
use serde_json::Value as Json;

use crate::{load_catalog, CliError};

fn internal(e: impl std::fmt::Display) -> CliError {
    CliError {
        message: e.to_string(),
        code: 1,
    }
}

/// Flags shared by `serve` and accepted by `bench-net` where meaningful.
#[derive(Debug)]
pub struct ServeFlags {
    /// Bind address (`serve`) or target address (`bench-net`, optional).
    pub addr: Option<String>,
    /// Worker-pool size.
    pub threads: Option<usize>,
    /// Bounded queue capacity.
    pub queue_depth: Option<usize>,
    /// `bench-net`: concurrent client connections.
    pub clients: Option<usize>,
    /// `bench-net`: requests per client.
    pub requests: Option<u64>,
    /// `bench-net`: sub-requests per `batch` frame (1 = plain frames).
    pub batch: Option<u64>,
    /// `bench-net`: percentage of operations that are transmitter writes
    /// (0–100; the rest are resolved reads). Default 10.
    pub write_pct: Option<u8>,
    /// Wire protocol: `serve` pins the server's maximum (1 = JSON only),
    /// `bench-net` selects the client dialect. Default: v2.
    pub proto: Option<u8>,
    /// `bench-net`: idle v2 sessions parked on the server for the whole
    /// measurement (the E15 "designers at workstations" crowd).
    pub idle_sessions: Option<usize>,
}

impl ServeFlags {
    /// Parses `--addr A --threads N --queue-depth N --clients N
    /// --requests N --batch N --write-pct N --proto v1|v2
    /// --idle-sessions N` in any order; rejects unknown flags and bad
    /// numbers.
    pub fn parse(args: &[String]) -> Result<ServeFlags, CliError> {
        let mut flags = ServeFlags {
            addr: None,
            threads: None,
            queue_depth: None,
            clients: None,
            requests: None,
            batch: None,
            write_pct: None,
            proto: None,
            idle_sessions: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut num = |name: &str| -> Result<u64, CliError> {
                let v = it.next().ok_or_else(|| CliError {
                    message: format!("{name} requires a value"),
                    code: 2,
                })?;
                v.parse().map_err(|_| CliError {
                    message: format!("{name}: `{v}` is not a positive integer"),
                    code: 2,
                })
            };
            match flag.as_str() {
                "--addr" => {
                    flags.addr = Some(
                        it.next()
                            .ok_or_else(|| CliError {
                                message: "--addr requires a value".into(),
                                code: 2,
                            })?
                            .clone(),
                    )
                }
                "--threads" => flags.threads = Some(num("--threads")?.max(1) as usize),
                "--queue-depth" => flags.queue_depth = Some(num("--queue-depth")?.max(1) as usize),
                "--clients" => flags.clients = Some(num("--clients")?.max(1) as usize),
                "--requests" => flags.requests = Some(num("--requests")?.max(1)),
                "--batch" => flags.batch = Some(num("--batch")?.max(1)),
                "--write-pct" => {
                    let pct = num("--write-pct")?;
                    if pct > 100 {
                        return Err(CliError {
                            message: format!("--write-pct: `{pct}` is not in 0..=100"),
                            code: 2,
                        });
                    }
                    flags.write_pct = Some(pct as u8);
                }
                "--idle-sessions" => flags.idle_sessions = Some(num("--idle-sessions")? as usize),
                "--proto" => {
                    let v = it.next().ok_or_else(|| CliError {
                        message: "--proto requires a value (v1 or v2)".into(),
                        code: 2,
                    })?;
                    flags.proto = Some(match v.as_str() {
                        "v1" | "1" => 1,
                        "v2" | "2" => 2,
                        other => {
                            return Err(CliError {
                                message: format!("--proto: `{other}` is not v1 or v2"),
                                code: 2,
                            })
                        }
                    });
                }
                other => {
                    return Err(CliError {
                        message: format!("unknown flag `{other}`"),
                        code: 2,
                    })
                }
            }
        }
        Ok(flags)
    }

    fn config(&self, default_addr: &str) -> ServerConfig {
        ServerConfig {
            addr: self.addr.clone().unwrap_or_else(|| default_addr.into()),
            workers: self.threads.unwrap_or(4),
            queue_depth: self.queue_depth.unwrap_or(64),
            max_proto: self.proto.unwrap_or(ccdb_server::PROTOCOL_V2),
            ..ServerConfig::default()
        }
    }
}

/// `serve`: bind, announce, block until a client sends `shutdown`.
pub fn cmd_serve(source: &str, flags: &ServeFlags) -> Result<String, CliError> {
    let catalog = load_catalog(source)?;
    let store = SharedStore::new(catalog).map_err(internal)?;
    let cfg = flags.config("127.0.0.1:7878");
    let server = Server::start(cfg.clone(), store).map_err(|e| CliError {
        message: format!("cannot bind `{}`: {e}", cfg.addr),
        code: 2,
    })?;
    // Announce before blocking so scripted callers (CI smoke) can wait for
    // this line, then connect.
    println!(
        "ccdb-server listening on {} ({} workers, queue depth {}, max proto v{}, {} backend)",
        server.local_addr(),
        cfg.workers,
        cfg.queue_depth,
        cfg.max_proto,
        server.backend()
    );
    let _ = std::io::stdout().flush();
    server.run_until_shutdown();
    Ok("shutdown complete\n".to_string())
}

/// The transmitter/relationship/inheritor triple `bench-net` drives:
/// the first inheritance relationship whose transmitter declares an
/// integer permeable attribute (the adaptation path the paper cares
/// about), plus any type that can be its inheritor.
fn bench_triple(catalog: &Catalog) -> Result<(String, String, String, String), CliError> {
    for rel in catalog.inher_rel_type_names() {
        let def = catalog.inher_rel_type(rel).map_err(internal)?;
        let t_def = catalog
            .object_type(&def.transmitter_type)
            .map_err(internal)?;
        let Some(attr) = def.inheriting.iter().find(|item| {
            t_def
                .attributes
                .iter()
                .any(|a| &a.name == *item && matches!(a.domain, ccdb_core::domain::Domain::Int))
        }) else {
            continue;
        };
        let Some(inh_ty) = catalog
            .object_type_names()
            .into_iter()
            .find(|t| {
                catalog
                    .object_type(t)
                    .map(|d| d.inheritor_in.iter().any(|r| r == rel))
                    .unwrap_or(false)
            })
            .map(str::to_string)
        else {
            continue;
        };
        return Ok((
            def.transmitter_type.clone(),
            rel.to_string(),
            inh_ty,
            attr.clone(),
        ));
    }
    Err(CliError {
        message: "bench-net: schema has no inheritance relationship with an integer \
                  permeable attribute"
            .into(),
        code: 1,
    })
}

/// Backoff window for `overloaded` retries starts here, doubles per
/// consecutive rejection, and is capped at [`BACKOFF_CAP_US`]. The actual
/// sleep is drawn uniformly from the window ("full jitter"), so a herd of
/// rejected clients does not re-arrive in lockstep and hammer the queue.
const BACKOFF_BASE_US: u64 = 500;
const BACKOFF_CAP_US: u64 = 50_000;

/// One client's closed loop: create its own transmitter/inheritor pair,
/// then alternate resolved reads with occasional transmitter writes.
/// With `batch > 1` the same operation mix is shipped as `batch`
/// sub-requests per wire frame (one admission, one guard per frame).
/// Returns (per-frame latencies ns, overloaded retries, server errors).
///
/// Error accounting: `overloaded` responses are retried after a capped
/// exponential backoff with jitter (backpressure is not a failure); any
/// other *server* error response is counted and the loop moves on — a
/// healthy run reports zero. Transport failures (socket or protocol)
/// abort the client.
fn bench_client(
    addr: std::net::SocketAddr,
    triple: &(String, String, String, String),
    requests: u64,
    batch: u64,
    write_pct: u8,
    proto: u8,
    seed: u64,
) -> Result<(Vec<u64>, u64, u64), String> {
    let (t_ty, rel, inh_ty, attr) = triple;
    let mut c = Client::connect_proto(addr, proto).map_err(|e| e.to_string())?;
    c.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut overloaded = 0u64;
    let mut errors = 0u64;
    // Cheap xorshift64 for the backoff jitter; seeded per client so the
    // sleep sequences decorrelate without pulling in an RNG dependency.
    let mut jitter = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    // Ok(true) = succeeded; Ok(false) = server rejected the op (counted).
    let mut with_retry =
        |f: &mut dyn FnMut(&mut Client) -> Result<(), ccdb_server::ClientError>,
         c: &mut Client|
         -> Result<bool, String> {
            let mut attempt = 0u32;
            loop {
                match f(c) {
                    Ok(()) => return Ok(true),
                    Err(e) if e.is_overloaded() => {
                        overloaded += 1;
                        let window = (BACKOFF_BASE_US << attempt.min(16)).min(BACKOFF_CAP_US);
                        jitter ^= jitter << 13;
                        jitter ^= jitter >> 7;
                        jitter ^= jitter << 17;
                        thread::sleep(Duration::from_micros(1 + jitter % window));
                        attempt += 1;
                    }
                    Err(ccdb_server::ClientError::Server { .. }) => {
                        errors += 1;
                        return Ok(false);
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
        };

    let mut transmitter = None;
    if !with_retry(
        &mut |c| {
            transmitter = Some(c.create(t_ty, &[(attr, Value::Int(seed as i64))])?);
            Ok(())
        },
        &mut c,
    )? {
        return Err("bench-net: setup create rejected by server".into());
    }
    let transmitter = transmitter.unwrap();
    let mut inheritor = None;
    if !with_retry(
        &mut |c| {
            inheritor = Some(c.create(inh_ty, &[])?);
            Ok(())
        },
        &mut c,
    )? {
        return Err("bench-net: setup create rejected by server".into());
    }
    let inheritor = inheritor.unwrap();
    if !with_retry(
        &mut |c| c.bind(rel, transmitter, inheritor).map(|_| ()),
        &mut c,
    )? {
        return Err("bench-net: setup bind rejected by server".into());
    }

    // The n-th operation of the mix: `write_pct`% transmitter writes (the
    // adaptation path), the rest resolved reads through the binding.
    // Shared by the plain and batched loops so both ship the identical
    // workload.
    let is_write = move |n: u64| n % 100 < write_pct as u64;
    let op_params = |n: u64| -> (&'static str, Json) {
        if is_write(n) {
            (
                "set_attr",
                Json::Object(vec![
                    ("obj".into(), Json::UInt(transmitter.0)),
                    ("name".into(), Json::String(attr.clone())),
                    (
                        "value".into(),
                        serde_json::to_value(&Value::Int((seed + n) as i64)),
                    ),
                ]),
            )
        } else {
            (
                "attr",
                Json::Object(vec![
                    ("obj".into(), Json::UInt(inheritor.0)),
                    ("name".into(), Json::String(attr.clone())),
                ]),
            )
        }
    };

    let mut latencies = Vec::with_capacity(requests.div_ceil(batch.max(1)) as usize);
    if batch <= 1 {
        for n in 0..requests {
            let start = Instant::now();
            if is_write(n) {
                with_retry(
                    &mut |c| c.set_attr(transmitter, attr, Value::Int((seed + n) as i64)),
                    &mut c,
                )?;
            } else {
                with_retry(&mut |c| c.attr(inheritor, attr).map(|_| ()), &mut c)?;
            }
            latencies.push(start.elapsed().as_nanos() as u64);
        }
    } else {
        let mut n = 0;
        while n < requests {
            let frame: Vec<u64> = (n..(n + batch).min(requests)).collect();
            let start = Instant::now();
            with_retry(
                &mut |c| {
                    let subs = frame.iter().map(|&k| op_params(k)).collect();
                    for slot in c.batch(subs)? {
                        slot?;
                    }
                    Ok(())
                },
                &mut c,
            )?;
            latencies.push(start.elapsed().as_nanos() as u64);
            n += batch;
        }
    }
    Ok((latencies, overloaded, errors))
}

/// Queries the target's telemetry ring for the scheduler's
/// enqueue→dequeue wakeup-latency digest over (at least) the bench
/// window. Returns a ready-to-print fragment; a server whose sampler has
/// not ticked yet (very short runs) reports that instead of numbers.
fn wakeup_summary(addr: std::net::SocketAddr, elapsed: Duration) -> String {
    let digest = (|| -> Result<Json, ccdb_server::ClientError> {
        let mut c = Client::connect(addr)?;
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        c.telemetry(serde_json::json!({
            "window_ms": (elapsed.as_millis() as u64).max(1_000),
            "series": &["ccdb_server_wakeup_latency_ns"][..],
        }))
    })();
    let fmt = |w: &Json, f: &str| {
        w.get(f)
            .and_then(Json::as_f64)
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".into())
    };
    match digest {
        Ok(t) => match t.get("wakeup") {
            Some(w) if w.get("count").and_then(Json::as_u64).unwrap_or(0) > 0 => format!(
                "p50={} p95={} (ns enqueue→dequeue, {} dequeues sampled)",
                fmt(w, "p50_ns"),
                fmt(w, "p95_ns"),
                w.get("count").and_then(Json::as_u64).unwrap_or(0),
            ),
            _ => "no samples in window (sampler idle or run shorter than one tick)".into(),
        },
        Err(e) => format!("unavailable ({e})"),
    }
}

/// Parks `n` idle v2 sessions on the target: each completes the HELLO_V2
/// exchange and then sits silent, so the event loop carries their
/// registered-but-never-ready fds for the whole measurement (the E15
/// "designers at idle workstations" crowd, reproducible from one
/// command). Returns the held sockets — dropping them ends the crowd —
/// plus the count of connect/handshake failures.
fn park_idle_sessions(addr: std::net::SocketAddr, n: usize) -> (Vec<std::net::TcpStream>, usize) {
    if n == 0 {
        return (Vec::new(), 0);
    }
    // Headroom over the crowd: each session is one fd here plus one
    // server-side, and the bench clients need their own on top.
    let _ = polling::raise_nofile_limit((n as u64 * 3) + 2_000);
    let mut held = Vec::with_capacity(n);
    let mut failures = 0usize;
    for _ in 0..n {
        match std::net::TcpStream::connect(addr) {
            Ok(mut s) => {
                let handshake = s
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .and_then(|()| s.write_all(&ccdb_server::HELLO_V2))
                    .and_then(|()| {
                        let mut ack = [0u8; 4];
                        std::io::Read::read_exact(&mut s, &mut ack)
                    });
                match handshake {
                    Ok(()) => held.push(s),
                    Err(_) => failures += 1,
                }
            }
            Err(_) => failures += 1,
        }
    }
    (held, failures)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `bench-net`: drive the wire protocol with N concurrent clients.
///
/// Without `--addr` an in-process server is started on an ephemeral port
/// (self-contained benchmark); with `--addr` an already-running `ccdb
/// serve` is the target.
pub fn cmd_bench_net(source: &str, flags: &ServeFlags) -> Result<String, CliError> {
    let catalog = load_catalog(source)?;
    let triple = bench_triple(&catalog)?;
    let clients = flags.clients.unwrap_or(8);
    let requests = flags.requests.unwrap_or(200);
    let batch = flags.batch.unwrap_or(1);
    let write_pct = flags.write_pct.unwrap_or(10);
    let proto = flags.proto.unwrap_or(ccdb_server::PROTOCOL_V2);

    // Own server only when no target was given.
    let (addr, server) = match &flags.addr {
        Some(a) => {
            let addr = a.parse().map_err(|_| CliError {
                message: format!("--addr: `{a}` is not a socket address"),
                code: 2,
            })?;
            (addr, None)
        }
        None => {
            let store = SharedStore::new(catalog.clone()).map_err(internal)?;
            let mut cfg = flags.config("127.0.0.1:0");
            cfg.addr = "127.0.0.1:0".into(); // never collide on a fixed port
            let server = Server::start(cfg, store).map_err(internal)?;
            (server.local_addr(), Some(server))
        }
    };

    // The idle crowd must be in place before measurement starts: its
    // point is to load the event loop's readiness scan while the timed
    // clients run.
    let idle_requested = flags.idle_sessions.unwrap_or(0);
    let (idle_crowd, idle_failures) = park_idle_sessions(addr, idle_requested);

    let total_overloaded = Arc::new(AtomicU64::new(0));
    let total_errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let triple = triple.clone();
            let total_overloaded = Arc::clone(&total_overloaded);
            let total_errors = Arc::clone(&total_errors);
            thread::spawn(move || -> Result<Vec<u64>, String> {
                let (lat, over, errs) = bench_client(
                    addr,
                    &triple,
                    requests,
                    batch,
                    write_pct,
                    proto,
                    i as u64 * 1000,
                )?;
                total_overloaded.fetch_add(over, Ordering::Relaxed);
                total_errors.fetch_add(errs, Ordering::Relaxed);
                Ok(lat)
            })
        })
        .collect();

    let mut all = Vec::with_capacity(clients * requests as usize);
    let mut failed = 0usize;
    for h in handles {
        match h.join() {
            Ok(Ok(lat)) => all.extend(lat),
            Ok(Err(msg)) => {
                failed += 1;
                eprintln!("ccdb: bench-net client failed: {msg}");
            }
            Err(_) => failed += 1,
        }
    }
    let elapsed = started.elapsed();
    // Pull the scheduler's wakeup-latency digest while the server is
    // still up: it comes from the server-side telemetry ring, not from
    // anything the clients measured. The idle crowd stays parked until
    // after the clock stops so it loads the whole measurement.
    let wakeup = wakeup_summary(addr, elapsed);
    let idle_parked = idle_crowd.len();
    drop(idle_crowd);
    if let Some(server) = server {
        server.shutdown();
    }
    if failed > 0 {
        return Err(CliError {
            message: format!("bench-net: {failed} client(s) failed"),
            code: 1,
        });
    }

    all.sort_unstable();
    let frames = all.len() as u64;
    // Throughput counts operations (sub-requests), so batched and plain
    // runs are directly comparable; latency quantiles are per frame.
    let ops = clients as u64 * requests;
    let rps = ops as f64 / elapsed.as_secs_f64().max(1e-9);
    let (t_ty, rel, inh_ty, attr) = &triple;
    Ok(format!(
        "bench-net: {clients} clients x {requests} requests ({t_ty} -[{rel}]-> {inh_ty}, attr {attr})\n\
           protocol   : v{proto} ({})\n\
           requests   : {ops}\n\
           mix        : {write_pct}% writes / {}% resolved reads\n\
           batching   : {batch} sub-requests/frame ({frames} frames)\n\
           elapsed    : {:.3}s\n\
           throughput : {rps:.0} req/s\n\
           latency    : p50={} p95={} p99={} (ns/frame)\n\
           retries    : {} (overloaded, capped exp backoff + jitter)\n\
           errors     : {} (server error responses)\n\
           idle crowd : {idle_parked} parked sessions ({idle_failures} connect failures)\n\
           wakeup     : {wakeup}\n",
        if proto >= 2 { "binary framing" } else { "JSON framing" },
        100 - write_pct as u64,
        elapsed.as_secs_f64(),
        quantile(&all, 0.50),
        quantile(&all, 0.95),
        quantile(&all, 0.99),
        total_overloaded.load(Ordering::Relaxed),
        total_errors.load(Ordering::Relaxed),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = r#"
        obj-type If =
            attributes: Length: integer;
        end If;
        inher-rel-type AllOf_If =
            transmitter: object-of-type If;
            inheritor: object;
            inheriting: Length;
        end AllOf_If;
        obj-type Impl =
            inheritor-in: AllOf_If;
            attributes: Cost: integer;
        end Impl;
    "#;

    #[test]
    fn flags_parse_and_reject() {
        let f = ServeFlags::parse(&[
            "--addr".into(),
            "127.0.0.1:9999".into(),
            "--threads".into(),
            "2".into(),
            "--queue-depth".into(),
            "8".into(),
            "--batch".into(),
            "32".into(),
            "--write-pct".into(),
            "40".into(),
            "--proto".into(),
            "v1".into(),
            "--idle-sessions".into(),
            "128".into(),
        ])
        .unwrap();
        assert_eq!(f.addr.as_deref(), Some("127.0.0.1:9999"));
        assert_eq!(f.threads, Some(2));
        assert_eq!(f.queue_depth, Some(8));
        assert_eq!(f.batch, Some(32));
        assert_eq!(f.write_pct, Some(40));
        assert_eq!(f.proto, Some(1));
        assert_eq!(f.idle_sessions, Some(128));

        // The readiness backend is not selectable: `--backend` is an
        // unknown flag like any other.
        let err = ServeFlags::parse(&["--backend".into(), "poll".into()]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown flag `--backend`"), "{err:?}");
        assert_eq!(
            ServeFlags::parse(&["--idle-sessions".into(), "some".into()])
                .unwrap_err()
                .code,
            2
        );

        // 0 is a legal mix (pure reads); 101 is not a percentage.
        let f = ServeFlags::parse(&["--write-pct".into(), "0".into()]).unwrap();
        assert_eq!(f.write_pct, Some(0));
        assert_eq!(
            ServeFlags::parse(&["--write-pct".into(), "101".into()])
                .unwrap_err()
                .code,
            2
        );

        let f = ServeFlags::parse(&["--proto".into(), "2".into()]).unwrap();
        assert_eq!(f.proto, Some(2));
        assert_eq!(
            ServeFlags::parse(&["--proto".into(), "v3".into()])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(ServeFlags::parse(&["--proto".into()]).unwrap_err().code, 2);

        assert_eq!(ServeFlags::parse(&["--bogus".into()]).unwrap_err().code, 2);
        assert_eq!(
            ServeFlags::parse(&["--threads".into(), "lots".into()])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            ServeFlags::parse(&["--threads".into()]).unwrap_err().code,
            2
        );
    }

    #[test]
    fn bench_triple_discovers_the_inheritance_path() {
        let catalog = crate::load_catalog(SCHEMA).unwrap();
        let (t, rel, i, attr) = bench_triple(&catalog).unwrap();
        assert_eq!(t, "If");
        assert_eq!(rel, "AllOf_If");
        assert_eq!(i, "Impl");
        assert_eq!(attr, "Length");
    }

    #[test]
    fn bench_net_runs_self_contained() {
        let flags = ServeFlags {
            addr: None,
            threads: Some(2),
            queue_depth: Some(16),
            clients: Some(4),
            requests: Some(20),
            batch: None,
            write_pct: None,
            proto: None,
            idle_sessions: None,
        };
        let out = cmd_bench_net(SCHEMA, &flags).unwrap();
        assert!(out.contains("4 clients x 20 requests"), "{out}");
        assert!(out.contains("protocol   : v2"), "{out}");
        assert!(out.contains("requests   : 80"), "{out}");
        assert!(out.contains("throughput"), "{out}");
        assert!(out.contains("p95="), "{out}");
        assert!(
            out.contains("errors     : 0"),
            "healthy run must report zero server errors: {out}"
        );
        assert!(out.contains("idle crowd : 0 parked sessions"), "{out}");
        // The wakeup line is always present; short runs may report that
        // the sampler has not ticked rather than numbers.
        assert!(out.contains("wakeup     :"), "{out}");
    }

    #[test]
    fn bench_net_parks_an_idle_crowd_for_the_whole_run() {
        let flags = ServeFlags {
            addr: None,
            threads: Some(2),
            queue_depth: Some(16),
            clients: Some(2),
            requests: Some(20),
            batch: None,
            write_pct: None,
            proto: None,
            idle_sessions: Some(32),
        };
        let out = cmd_bench_net(SCHEMA, &flags).unwrap();
        assert!(
            out.contains("idle crowd : 32 parked sessions (0 connect failures)"),
            "{out}"
        );
        assert!(out.contains("errors     : 0"), "{out}");
    }

    #[test]
    fn bench_net_still_speaks_v1_when_pinned() {
        let flags = ServeFlags {
            addr: None,
            threads: Some(2),
            queue_depth: Some(16),
            clients: Some(2),
            requests: Some(10),
            batch: None,
            write_pct: None,
            proto: Some(1),
            idle_sessions: None,
        };
        let out = cmd_bench_net(SCHEMA, &flags).unwrap();
        assert!(out.contains("protocol   : v1"), "{out}");
        assert!(out.contains("errors     : 0"), "{out}");
    }

    #[test]
    fn bench_net_batched_ships_the_same_ops_in_fewer_frames() {
        let flags = ServeFlags {
            addr: None,
            threads: Some(2),
            queue_depth: Some(16),
            clients: Some(2),
            requests: Some(20),
            batch: Some(8),
            write_pct: None,
            proto: None,
            idle_sessions: None,
        };
        let out = cmd_bench_net(SCHEMA, &flags).unwrap();
        assert!(out.contains("requests   : 40"), "{out}");
        // 20 ops at 8/frame = 3 frames per client, 2 clients.
        assert!(out.contains("8 sub-requests/frame (6 frames)"), "{out}");
    }
}
