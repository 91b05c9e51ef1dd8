//! Integration tests for the causal tracing subsystem against the §5
//! steel-construction schema: trace-tree construction across real
//! inheritance resolutions, adaptation-cascade spans, sampling edge
//! cases, and exporter JSON round-trips through the `serde_json` parser.

use std::sync::Mutex;

use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};
use ccdb_lang::paper::steel_catalog;
use ccdb_obs::trace;

/// Tracing state (flag, sampler, span buffer) is process-global;
/// serialize the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

/// RAII: tracing on at the given rate with a clean buffer; fully reset on
/// drop so a panicking test cannot leak tracing into the next one.
struct Session;

impl Session {
    fn start(rate: f64) -> Self {
        trace::set_sample_rate(rate);
        trace::set_tracing(true);
        trace::clear();
        Session
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        trace::set_tracing(false);
        trace::set_sample_rate(1.0);
        trace::clear();
    }
}

/// A girder bound to its interface: the canonical one-hop inheritance.
fn girder_store() -> (ObjectStore, Surrogate, Surrogate) {
    let mut st = ObjectStore::new(steel_catalog().unwrap()).unwrap();
    let girder_if = st
        .create_object(
            "GirderInterface",
            vec![
                ("Length", Value::Int(100)),
                ("Height", Value::Int(10)),
                ("Width", Value::Int(5)),
            ],
        )
        .unwrap();
    let structure = st
        .create_object(
            "WeightCarrying_Structure",
            vec![
                ("Designer", Value::Str("t".into())),
                ("Description", Value::Str("t".into())),
            ],
        )
        .unwrap();
    let g = st.create_subobject(structure, "Girders", vec![]).unwrap();
    st.bind("AllOf_GirderIf", girder_if, g, vec![]).unwrap();
    (st, g, girder_if)
}

#[test]
fn inherited_read_produces_hop_tree_with_permeability_and_cache_outcome() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (st, girder, girder_if) = girder_store();
    let _s = Session::start(1.0);

    assert_eq!(st.attr(girder, "Length").unwrap(), Value::Int(100));
    let cold = trace::take_spans();
    assert_eq!(st.attr(girder, "Length").unwrap(), Value::Int(100));
    let warm = trace::take_spans();

    // Cold read: one root with one hop child naming the transmitter, the
    // relationship it went through, and the permeability decision.
    let trees = trace::build_trees(&cold);
    assert_eq!(trees.len(), 1, "{cold:?}");
    let root = &trees[0];
    assert_eq!(root.record.name, "core.attr");
    assert_eq!(
        root.record.field("rescache").map(ToString::to_string),
        Some("miss".into())
    );
    assert_eq!(root.children.len(), 1);
    let hop = &root.children[0];
    assert_eq!(hop.record.name, "core.attr.hop");
    assert_eq!(hop.record.parent, Some(root.record.span));
    assert_eq!(
        hop.record.field("via_rel").map(ToString::to_string),
        Some("AllOf_GirderIf".into())
    );
    assert_eq!(
        hop.record.field("transmitter").map(ToString::to_string),
        Some(girder_if.0.to_string())
    );
    assert_eq!(
        hop.record.field("permeable").map(ToString::to_string),
        Some("yes".into())
    );

    // Warm read answers from the resolution cache: root only, no hops.
    let trees = trace::build_trees(&warm);
    assert_eq!(trees.len(), 1, "{warm:?}");
    assert_eq!(
        trees[0].record.field("rescache").map(ToString::to_string),
        Some("hit".into())
    );
    assert!(trees[0].children.is_empty());
}

#[test]
fn transmitter_update_traces_adaptation_cascade_and_invalidation() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (mut st, girder, girder_if) = girder_store();
    // Warm the resolution cache so the update has a memo to outdate.
    let _ = st.attr(girder, "Length").unwrap();
    let _s = Session::start(1.0);

    st.set_attr(girder_if, "Length", Value::Int(120)).unwrap();
    let spans = trace::take_spans();
    // The write touches no cache entry: there is no invalidation span.
    assert!(!spans.iter().any(|s| s.name.starts_with("core.rescache")));

    let prop = spans
        .iter()
        .find(|s| s.name == "core.adaptation.propagate")
        .expect("propagation span");
    assert_eq!(
        prop.field("item").map(ToString::to_string),
        Some("Length".into())
    );
    assert_eq!(
        prop.field("fanout").map(ToString::to_string),
        Some("1".into())
    );
    // The flagged relationship is recorded as a child of the propagation.
    let flag = spans
        .iter()
        .find(|s| s.name == "core.adaptation.flag")
        .expect("flag span");
    assert_eq!(flag.parent, Some(prop.span));
    assert_eq!(
        flag.field("inheritor").map(ToString::to_string),
        Some(girder.0.to_string())
    );
    // The next read finds the memo stale, walks the chain and sees the new
    // value: the invalidation happens on read.
    assert_eq!(st.attr(girder, "Length").unwrap(), Value::Int(120));
    let spans = trace::take_spans();
    let read = spans
        .iter()
        .find(|s| s.name == "core.attr")
        .expect("read span");
    assert_eq!(
        read.field("rescache").map(ToString::to_string),
        Some("stale".into())
    );
    assert_eq!(
        read.field("hops").map(ToString::to_string),
        Some("1".into())
    );
}

#[test]
fn sampling_edge_cases_zero_and_one() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (st, girder, _) = girder_store();

    // Rate 0.0: spans exist as guards but nothing is recorded.
    {
        let _s = Session::start(0.0);
        for _ in 0..10 {
            let _ = st.attr(girder, "Length").unwrap();
        }
        assert!(trace::take_spans().is_empty());
    }
    // Rate 1.0: every resolution becomes a trace.
    {
        let _s = Session::start(1.0);
        for _ in 0..10 {
            let _ = st.attr(girder, "Length").unwrap();
        }
        let spans = trace::take_spans();
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 10, "{spans:?}");
    }
}

#[test]
fn exporters_round_trip_through_json_parser() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (st, girder, _) = girder_store();
    let _s = Session::start(1.0);
    let _ = st.attr(girder, "Length").unwrap();
    let spans = trace::take_spans();
    assert_eq!(spans.len(), 2, "{spans:?}");

    // Chrome-trace: parses, one traceEvent per span, ids and args survive.
    let chrome = trace::export_chrome_trace(&spans);
    let v: serde_json::Value = serde_json::from_str(&chrome).expect("chrome trace parses");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for (ev, span) in events.iter().zip(&spans) {
        assert_eq!(ev["name"].as_str(), Some(span.name));
        assert_eq!(ev["ph"].as_str(), Some("X"));
        assert_eq!(ev["tid"].as_u64(), Some(span.trace.0));
        assert_eq!(ev["id"].as_u64(), Some(span.span.0));
    }
    let hop_ev = &events[0];
    assert_eq!(hop_ev["args"]["via_rel"].as_str(), Some("AllOf_GirderIf"));

    // JSONL: every line parses; parent links reconstruct the same tree
    // shape build_trees sees (golden structural round-trip).
    let jsonl = trace::export_jsonl(&spans);
    let lines: Vec<serde_json::Value> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).expect("jsonl line parses"))
        .collect();
    assert_eq!(lines.len(), spans.len());
    for (line, span) in lines.iter().zip(&spans) {
        assert_eq!(line["span"].as_u64(), Some(span.span.0));
        assert_eq!(line["parent"].as_u64(), span.parent.map(|p| p.0));
        assert_eq!(line["name"].as_str(), Some(span.name));
        assert_eq!(line["dur_ns"].as_u64(), Some(span.dur_ns));
    }
    let trees = trace::build_trees(&spans);
    assert_eq!(trees.len(), 1);
    assert_eq!(
        lines
            .iter()
            .filter(|l| l["parent"].as_u64().is_none())
            .count(),
        1,
        "exactly one root in the exported trace"
    );
}
