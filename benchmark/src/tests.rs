//! Harness-level tests on a 5 x 3 x 3 corpus: the generators are
//! deterministic, wrong answers are failed ops, and a whole run emits
//! exactly the metric names `BENCHMARK.json` lists.

use std::path::PathBuf;

use ccdb_core::shared::SharedStore;
use ccdb_server::proto::{encode_response_v2, ok_response};
use ccdb_server::Request;
use serde_json::Value as Json;

use crate::corpus::{self, Shape};
use crate::ops::{execute, Op, Stream, Transport, Workload};
use crate::replay::Replay;
use crate::run::{run, Config};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;

const SMALL: Shape = Shape {
    ifs: 5,
    mids_per_if: 3,
    comps_per_mid: 3,
};

/// Hashes everything that crosses the transport and counts the frame bytes
/// the wire would carry for it.
struct Recording<T> {
    inner: T,
    hash: u64,
    bytes: u64,
    answers: Vec<Json>,
}

impl<T> Recording<T> {
    fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.hash = (self.hash ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl<T: Transport> Transport for Recording<T> {
    fn call(&mut self, verb: &'static str, params: Json) -> Result<Json, String> {
        let request = Request {
            id: 0,
            verb: verb.into(),
            params: params.clone(),
            trace: None,
        }
        .encode_v2()?;
        self.feed(&request);
        let result = self.inner.call(verb, params)?;
        let reply = encode_response_v2(&ok_response(0, result.clone()));
        self.bytes += (request.len() + 4 + reply.len() + 4) as u64;
        self.answers.push(result.clone());
        Ok(result)
    }

    fn last_rtt_ns(&self) -> u64 {
        self.inner.last_rtt_ns()
    }
}

/// `(stream hash, wire bytes per op, every answer)` of the first `ops` ops
/// of `workload` at `seed`, answered by a real store through the replay.
fn fingerprint(workload: Workload, seed: u64, ops: usize) -> (u64, f64, Vec<Json>) {
    let (store, mut model, _) = corpus::build(SMALL, seed).unwrap();
    let mut tracer = Tracer::new();
    tracer.set_recording(false);
    let mut tp = Recording {
        inner: Replay::new(SharedStore::from_store(store), &model, tracer),
        hash: 0xCBF2_9CE4_8422_2325,
        bytes: 0,
        answers: Vec::new(),
    };
    let mut stream = Stream::new(workload, seed, &model);
    for _ in 0..ops {
        let op = stream.next_op(&model);
        if let Err(why) = execute(&op, &mut model, &mut tp) {
            panic!("{workload:?} seed {seed}: {why}");
        }
    }
    (tp.hash, tp.bytes as f64 / ops as f64, tp.answers)
}

#[test]
fn same_seed_same_stream_bytes_and_answers_and_another_seed_differs() {
    for workload in Workload::ALL {
        let a = fingerprint(workload, 11, 40);
        let b = fingerprint(workload, 11, 40);
        let c = fingerprint(workload, 12, 40);
        assert_eq!(a.0, b.0, "{workload:?}: stream hash");
        assert_eq!(a.1, b.1, "{workload:?}: wire bytes per op");
        assert_eq!(a.2, b.2, "{workload:?}: answers");
        assert_ne!(a.0, c.0, "{workload:?}: another seed, another stream");
    }
}

/// Answers `Int(0)` to every read and succeeds at everything else.
struct Liar;

impl Transport for Liar {
    fn call(&mut self, verb: &'static str, _params: Json) -> Result<Json, String> {
        Ok(match verb {
            "attr" => serde_json::to_value(&ccdb_core::Value::Int(0)),
            "select" => Json::Array(vec![]),
            "commit" => Json::Object(vec![("writes".into(), Json::UInt(1))]),
            _ => Json::Null,
        })
    }

    fn last_rtt_ns(&self) -> u64 {
        1
    }
}

#[test]
fn a_wrong_answer_is_a_failed_op_in_every_workload() {
    let (_, mut model, _) = corpus::build(SMALL, 5).unwrap();
    for workload in Workload::ALL {
        let op = Stream::new(workload, 5, &model).next_op(&model);
        let op = match op {
            // Make sure the liar's constant is not the right answer.
            Op::Propagate { iface, readers, .. } => Op::Propagate {
                iface,
                value: 7,
                readers,
            },
            other => other,
        };
        let outcome = execute(&op, &mut model, &mut Liar);
        assert!(outcome.is_err(), "{workload:?} accepted a wrong answer");
    }
}

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.5,
        trace,
        shape: SMALL,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test")),
    }
}

#[test]
fn a_small_corpus_pass_emits_exactly_the_listed_metrics() {
    let doc: Json = serde_json::from_str(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    let listed = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    for workload in Workload::ALL {
        // `run` fails when a listed metric was not produced or an unlisted
        // one was, so the names below are values the pass really computed.
        let untraced = run(&config(workload, false)).unwrap();
        assert!(untraced.correct, "{workload:?}: {:?}", untraced.notes);
        assert_eq!(untraced.failed, 0);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, listed("end_to_end"));
        assert_eq!(names.len(), END_TO_END.len());
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{workload:?}: {} must never be 0", m.name);
        }

        let traced = run(&config(workload, true)).unwrap();
        assert!(traced.correct, "{workload:?}: {:?}", traced.notes);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, listed("per_layer"));
        assert_eq!(names.len(), PER_LAYER.len());
        let file = config(workload, true)
            .out_dir
            .join(format!("{}.trace.jsonl", workload.name()));
        let spans = std::fs::read_to_string(file).unwrap();
        assert!(spans.lines().count() > 100);
        for line in spans.lines().take(50) {
            let span: Json = serde_json::from_str(line).unwrap();
            for key in [
                "id", "name", "op", "parent", "start_ns", "end_ns", "self_ns",
            ] {
                assert!(span.get(key).is_some(), "span lacks {key}: {line}");
            }
        }
    }
}
