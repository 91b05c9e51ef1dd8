#![warn(missing_docs)]

//! # ccdb-cli
//!
//! Schema tooling for the paper's definition language:
//!
//! - `ccdb check <file>` — parse, compile, and validate a schema; print a
//!   summary of the declared types;
//! - `ccdb effective <file> <type>` — show a type's *effective schema*
//!   (local + inherited items with their provenance);
//! - `ccdb render <file>` — normalize: compile and render back to source;
//! - `ccdb stats <file> [--json]` — run a synthetic workload over the schema
//!   and dump the process-global metrics snapshot ([`stats`]);
//! - `ccdb explain <file> <type> <attr> [--json]` — resolve one attribute
//!   with tracing forced on and print the causal span tree ([`explain`]);
//! - `ccdb serve <file> [--addr A] [--threads N] [--queue-depth N]
//!   [--proto v1|v2]` — serve the schema's store over TCP until a client
//!   sends `shutdown`; `--proto v1` pins the server to the JSON dialect
//!   ([`serve`]);
//! - `ccdb bench-net <file> [--clients N] [--requests N] [--batch N]
//!   [--addr A] [--proto v1|v2] [--idle-sessions N]` — drive the wire
//!   protocol with concurrent
//!   closed-loop clients, optionally shipping `--batch` sub-requests per
//!   frame, over the binary v2 framing (default) or v1 JSON;
//!   `--idle-sessions` parks that many silent connections for the whole
//!   measurement so event-loop scan cost under a connection crowd is
//!   reproducible from one command ([`serve`]);
//! - `ccdb top <addr> [--once] [--interval-ms N]` — refreshing latency
//!   dashboard for a running server, computed server-side from the
//!   telemetry ring: req/s and queue-depth sparklines, worker
//!   utilization, per-verb windowed quantiles, phase decomposition,
//!   wakeup latency, store-lock contention ([`top`]);
//! - `ccdb monitor <addr> [--record F] [--interval-ms N] [--duration-ms N]
//!   [--series p1,p2] [--proto v1|v2]` — subscribe to the server's
//!   `watch` stream and dump each telemetry frame as JSONL;
//!   `ccdb monitor --replay F` digests a recording offline ([`monitor`]);
//! - `ccdb flight <addr> [--json]` — dump the server's flight recorder:
//!   slowest and most recent requests with per-phase timelines ([`top`]).
//!
//! The functions are exposed as a library so they are unit-testable; the
//! binary is a thin wrapper.
//!
//! Setting the environment variable `CCDB_SLOW_OP_NS` to a nanosecond
//! threshold turns on the slow-operation log for the process: traced root
//! operations at least that slow are mirrored as `obs.slow_op` events.

use ccdb_core::schema::{Catalog, ItemSource};
use ccdb_lang::{compile_str, render};

pub mod explain;
pub mod monitor;
pub mod serve;
pub mod stats;
pub mod top;
pub use explain::cmd_explain;
pub use monitor::{cmd_monitor, MonitorFlags};
pub use serve::{cmd_bench_net, cmd_serve, ServeFlags};
pub use stats::cmd_stats;
pub use top::{cmd_flight, cmd_top};

/// CLI failure: message for stderr + suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn fail<T>(message: impl Into<String>, code: i32) -> Result<T, CliError> {
    Err(CliError {
        message: message.into(),
        code,
    })
}

/// Compile and validate schema text into a catalog.
pub fn load_catalog(source: &str) -> Result<Catalog, CliError> {
    let mut catalog = Catalog::new();
    compile_str(source, &mut catalog).map_err(|e| CliError {
        message: e.to_string(),
        code: 1,
    })?;
    catalog.validate().map_err(|e| CliError {
        message: e.to_string(),
        code: 1,
    })?;
    Ok(catalog)
}

/// `check`: validate and summarize.
pub fn cmd_check(source: &str) -> Result<String, CliError> {
    let catalog = load_catalog(source)?;
    let mut out = String::from("schema OK\n");
    let obj_names: Vec<&str> = catalog
        .object_type_names()
        .into_iter()
        .filter(|n| !n.contains('.'))
        .collect();
    out.push_str(&format!("  object types        : {}\n", obj_names.len()));
    for n in &obj_names {
        let def = catalog.object_type(n).expect("listed");
        let mut notes = Vec::new();
        if !def.inheritor_in.is_empty() {
            notes.push(format!("inheritor-in {}", def.inheritor_in.join(", ")));
        }
        if !def.subclasses.is_empty() {
            notes.push(format!("{} subclass(es)", def.subclasses.len()));
        }
        if !def.subrels.is_empty() {
            notes.push(format!("{} subrel(s)", def.subrels.len()));
        }
        if !def.constraints.is_empty() {
            notes.push(format!("{} constraint(s)", def.constraints.len()));
        }
        let suffix = if notes.is_empty() {
            String::new()
        } else {
            format!(" — {}", notes.join(", "))
        };
        out.push_str(&format!("    {n}{suffix}\n"));
    }
    out.push_str(&format!(
        "  relationship types  : {}\n",
        catalog.rel_type_names().len()
    ));
    for n in catalog.rel_type_names() {
        out.push_str(&format!("    {n}\n"));
    }
    out.push_str(&format!(
        "  inheritance rels    : {}\n",
        catalog.inher_rel_type_names().len()
    ));
    for n in catalog.inher_rel_type_names() {
        let def = catalog.inher_rel_type(n).expect("listed");
        out.push_str(&format!(
            "    {n}: {} ─▶ inheritor ({} item(s) permeable)\n",
            def.transmitter_type,
            def.inheriting.len()
        ));
    }
    Ok(out)
}

/// `effective`: print a type's effective schema with provenance.
pub fn cmd_effective(source: &str, type_name: &str) -> Result<String, CliError> {
    let catalog = load_catalog(source)?;
    let eff = catalog.effective_schema(type_name).map_err(|e| CliError {
        message: e.to_string(),
        code: 1,
    })?;
    let mut out = format!("effective schema of {type_name}:\n");
    out.push_str("  attributes:\n");
    for (name, domain, source) in &eff.attrs {
        out.push_str(&format!(
            "    {name}: {} {}\n",
            domain.describe(),
            provenance(source)
        ));
    }
    if !eff.subclasses.is_empty() {
        out.push_str("  subclasses:\n");
        for (name, elem, source) in &eff.subclasses {
            out.push_str(&format!("    {name}: {elem} {}\n", provenance(source)));
        }
    }
    Ok(out)
}

fn provenance(s: &ItemSource) -> String {
    match s {
        ItemSource::Local => "(local)".to_string(),
        ItemSource::Inherited { via_rel, from_type } => {
            format!("(inherited from {from_type} via {via_rel})")
        }
    }
}

/// `render`: compile then render back to normalized source.
pub fn cmd_render(source: &str) -> Result<String, CliError> {
    let catalog = load_catalog(source)?;
    render(&catalog).map_err(|e| CliError {
        message: e.to_string(),
        code: 1,
    })
}

/// Dispatch `argv[1..]`; returns the stdout text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let usage = "usage: ccdb <check|effective|render|stats|explain|serve|bench-net> \
                 <schema-file> [type [attr]] [--json] [--addr A] [--threads N] \
                 [--queue-depth N] [--clients N] [--requests N] [--batch N] \
                 [--proto v1|v2] [--idle-sessions N] | \
                 ccdb top <addr> [--once] [--interval-ms N] | \
                 ccdb monitor <addr|--replay F> [--record F] [--interval-ms N] \
                 [--duration-ms N] [--series p1,p2] [--proto v1|v2] | \
                 ccdb flight <addr> [--json]";
    // Opt-in slow-op log: traced roots slower than this are mirrored as
    // `obs.slow_op` events through the installed subscriber.
    if let Some(ns) = std::env::var("CCDB_SLOW_OP_NS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        ccdb_obs::trace::set_slow_op_threshold_ns(ns);
    }
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let read = |path: &str| -> Result<String, CliError> {
        std::fs::read_to_string(path).map_err(|e| CliError {
            message: format!("cannot read `{path}`: {e}"),
            code: 2,
        })
    };
    match cmd {
        "check" => {
            let path = args.get(1).map(String::as_str);
            let Some(path) = path else {
                return fail(usage, 2);
            };
            cmd_check(&read(path)?)
        }
        "effective" => {
            let (Some(path), Some(ty)) = (args.get(1), args.get(2)) else {
                return fail(usage, 2);
            };
            cmd_effective(&read(path)?, ty)
        }
        "render" => {
            let Some(path) = args.get(1) else {
                return fail(usage, 2);
            };
            cmd_render(&read(path)?)
        }
        "stats" => {
            let Some(path) = args.get(1) else {
                return fail(usage, 2);
            };
            let json = match args.get(2).map(String::as_str) {
                None => false,
                Some("--json") => true,
                Some(_) => return fail(usage, 2),
            };
            cmd_stats(&read(path)?, json)
        }
        "explain" => {
            let (Some(path), Some(ty), Some(attr)) = (args.get(1), args.get(2), args.get(3)) else {
                return fail(usage, 2);
            };
            let json = match args.get(4).map(String::as_str) {
                None => false,
                Some("--json") => true,
                Some(_) => return fail(usage, 2),
            };
            cmd_explain(&read(path)?, ty, attr, json)
        }
        "serve" => {
            let Some(path) = args.get(1) else {
                return fail(usage, 2);
            };
            let flags = serve::ServeFlags::parse(&args[2..])?;
            cmd_serve(&read(path)?, &flags)
        }
        "bench-net" => {
            let Some(path) = args.get(1) else {
                return fail(usage, 2);
            };
            let flags = serve::ServeFlags::parse(&args[2..])?;
            cmd_bench_net(&read(path)?, &flags)
        }
        "top" => {
            let Some(addr) = args.get(1) else {
                return fail(usage, 2);
            };
            let mut once = false;
            let mut interval_ms = 1000u64;
            let mut it = args[2..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--once" => once = true,
                    "--interval-ms" => {
                        interval_ms =
                            it.next()
                                .and_then(|v| v.parse().ok())
                                .ok_or_else(|| CliError {
                                    message: usage.into(),
                                    code: 2,
                                })?;
                    }
                    _ => return fail(usage, 2),
                }
            }
            cmd_top(addr, once, interval_ms)
        }
        "monitor" => {
            let flags = MonitorFlags::parse(&args[1..])?;
            cmd_monitor(&flags)
        }
        "flight" => {
            let Some(addr) = args.get(1) else {
                return fail(usage, 2);
            };
            let json = match args.get(2).map(String::as_str) {
                None => false,
                Some("--json") => true,
                Some(_) => return fail(usage, 2),
            };
            cmd_flight(addr, json)
        }
        _ => fail(usage, 2),
    }
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
    fn check_summarizes() {
        let out = cmd_check(SCHEMA).unwrap();
        assert!(out.contains("schema OK"));
        assert!(out.contains("Impl — inheritor-in AllOf_If"), "{out}");
        assert!(out.contains("AllOf_If: If"), "{out}");
    }

    #[test]
    fn check_reports_invalid_schema() {
        let err = cmd_check("obj-type Broken = attributes: X: NoDomain; end Broken;").unwrap_err();
        assert!(err.message.contains("NoDomain"));
        assert_eq!(err.code, 1);
    }

    #[test]
    fn effective_shows_provenance() {
        let out = cmd_effective(SCHEMA, "Impl").unwrap();
        assert!(out.contains("Cost: integer (local)"), "{out}");
        assert!(
            out.contains("Length: integer (inherited from If via AllOf_If)"),
            "{out}"
        );
        assert!(cmd_effective(SCHEMA, "Ghost").is_err());
    }

    #[test]
    fn render_roundtrips_through_cli() {
        let rendered = cmd_render(SCHEMA).unwrap();
        let again = cmd_check(&rendered).unwrap();
        assert!(again.contains("schema OK"));
    }

    #[test]
    fn run_dispatches_and_validates_args() {
        let dir = tempfile::tempdir().unwrap();
        let file = dir.path().join("s.ccdb");
        std::fs::write(&file, SCHEMA).unwrap();
        let path = file.to_str().unwrap().to_string();
        assert!(run(&["check".into(), path.clone()])
            .unwrap()
            .contains("schema OK"));
        assert!(run(&["effective".into(), path.clone(), "Impl".into()])
            .unwrap()
            .contains("(local)"));
        assert!(run(&["render".into(), path]).is_ok());
        assert_eq!(run(&["bogus".into()]).unwrap_err().code, 2);
        assert_eq!(run(&[]).unwrap_err().code, 2);
        assert_eq!(
            run(&["check".into(), "/no/such/file".into()])
                .unwrap_err()
                .code,
            2
        );
    }
}
