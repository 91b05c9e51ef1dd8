//! The metric names, units, directions and bounds the harness emits. The
//! same facts are in `BENCHMARK.json` at the repo root; a test fails when
//! the two disagree.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees; reported for every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "rtt_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Single-layer numbers from the traced run, `(name, unit)`. Layer = module.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("proto.encode_req_ns", "ns"),
    ("proto.parse_req_ns", "ns"),
    ("proto.encode_resp_ns", "ns"),
    ("proto.decode_resp_ns", "ns"),
    ("proto.frame_ns", "ns"),
    ("proto.req_bytes", "B"),
    ("proto.resp_bytes", "B"),
    ("proto.v1_parse_req_ns", "ns"),
    ("proto.v1_encode_resp_ns", "ns"),
    ("queue.push_pop_ns", "ns"),
    ("shared.snapshot_pin_ns", "ns"),
    ("shared.write_publish_ns", "ns"),
    ("shared.publish_alloc_bytes", "B"),
    ("shared.publish_ns_per_kobj", "ns"),
    ("store.attr_hit_ns", "ns"),
    ("store.attr_miss_ns", "ns"),
    ("store.hops_per_miss", "count"),
    ("store.select_expr_ns_per_row", "ns"),
    ("store.select_eq_ns_per_row", "ns"),
    ("store.rows_per_result", "count"),
    ("store.set_attr_ns", "ns"),
    ("store.bind_ns", "ns"),
    ("store.create_ns", "ns"),
    ("rescache.get_ns", "ns"),
    ("rescache.fill_ns", "ns"),
    ("rescache.hit_ratio", "ratio"),
    ("rescache.invalidate_ns", "ns"),
    ("rescache.swept_per_write", "count"),
    ("expr.eval_ns_per_row", "ns"),
    ("lang.compile_where_ns", "ns"),
    ("txn.begin_ns", "ns"),
    ("txn.read_attr_ns", "ns"),
    ("txn.locks_per_read", "count"),
    ("txn.set_attr_ns", "ns"),
    ("txn.commit_ns", "ns"),
    ("txn.abort_ns", "ns"),
    ("server.phase_recv_ns", "ns"),
    ("server.phase_parse_ns", "ns"),
    ("server.phase_queue_ns", "ns"),
    ("server.phase_snapshot_ns", "ns"),
    ("server.phase_lock_ns", "ns"),
    ("server.phase_handle_ns", "ns"),
    ("server.phase_serialize_ns", "ns"),
    ("server.phase_write_ns", "ns"),
    ("server.inline_share", "ratio"),
    ("server.residual_us", "us"),
    ("client.ops_per_s_all", "1/s"),
    ("client.rtt_p50_all_us", "us"),
    ("client.rtt_p99_us", "us"),
    ("client.quiet_spread", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.pinned", "count"),
    ("trace.overhead_pct", "%"),
];

/// One emitted metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Pairs `values` with their units, in the order of `names`. Every listed
/// name must have been produced and nothing unlisted may be: the contract
/// wants exactly the listed names on every run. A number the run could not
/// form (0/0 of a scraped series that saw no request) is reported as 0.
pub fn assemble(
    names: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Result<Vec<Metric>, String> {
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| !names.iter().any(|(listed, _)| listed == n))
    {
        return Err(format!("produced a metric that is not listed: {stray}"));
    }
    names
        .iter()
        .map(|(name, unit)| {
            let (_, v) = values
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("listed metric was not produced: {name}"))?;
            Ok(Metric {
                name,
                value: if v.is_finite() { *v } else { 0.0 },
                unit,
            })
        })
        .collect()
}

/// The result line the driver reads: one JSON object, last on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value as Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_harness_emits() {
        let doc = benchmark_json();
        let listed =
            |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_array().unwrap().to_vec() };
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (doc, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(doc, "name"), spec.name);
            assert_eq!(str_of(doc, "unit"), spec.unit);
            let better = if spec.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(str_of(doc, "better"), better);
            assert_eq!(doc.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (doc, (name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(doc, "name"), *name);
            assert_eq!(str_of(doc, "unit"), *unit);
        }
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::ops::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let names = [("a", "ns"), ("b", "B")];
        assert!(
            assemble(&names, &[("a", 1.0)]).is_err(),
            "b was not produced"
        );
        assert!(
            assemble(&names[..1], &[("a", 1.0), ("b", 2.0)]).is_err(),
            "b is unlisted"
        );
        let metrics = assemble(&names, &[("a", 1.5), ("b", f64::NAN)]).unwrap();
        let line = result_line(true, 10, 0, &metrics);
        let doc: Json = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object_slice()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let a = doc.get("metrics").unwrap().get("a").unwrap();
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("ns"));
        let b = doc.get("metrics").unwrap().get("b").unwrap();
        assert_eq!(b.get("value").and_then(Json::as_f64), Some(0.0));
    }
}
