//! Typed replies, written straight into the bytes of either dialect.
//!
//! A handler answers with a [`Reply`]; [`append_reply`] emits it inside
//! the response envelope — v1 JSON text or a v2 header plus bval — through
//! one [`Enc`] walk, byte for byte what `ok_response`/`err_response`
//! followed by `to_json_string`/`encode_response_v2` produce for the
//! same answer. Only the diagnostic verbs, whose answers are free-form
//! trees, still carry a [`Json`].

use ccdb_core::store::Violation;
use ccdb_core::{Surrogate, Value};
use serde_json::Value as Json;

use crate::handler::{HandlerError, HandlerResult};
use crate::proto::{emit_json, BvalOut, Enc, JsonOut, PROTOCOL_V2};

/// What a verb answers.
#[derive(Debug)]
pub(crate) enum Reply {
    /// `attr`: one attribute value.
    Value(Value),
    /// `select`: the matching surrogates.
    Surrogates(Vec<Surrogate>),
    /// A write: the surrogate it created, if any.
    Created(Option<Surrogate>),
    /// `check_all`: every violated constraint.
    Violations(Vec<Violation>),
    Begin {
        txn: u64,
        snapshot_version: u64,
    },
    Commit {
        version: u64,
        writes: u64,
    },
    Abort {
        released: u64,
    },
    /// `batch`: one slot per entry, in order.
    Batch(Vec<HandlerResult>),
    /// The diagnostic verbs' free-form trees (`ping`, `session`,
    /// `effective`, `explain`, `stats`, `metrics`, `flight`, `telemetry`,
    /// `watch`).
    Json(Json),
}

/// Appends one whole response frame for request `id` to `out`: a 4-byte
/// length placeholder, the payload carrying `result` in dialect `proto`,
/// then the length back-patched. A payload too long for the prefix is cut
/// back off, so `out` never holds half a frame. Returns the payload
/// length, or `None` when the reply was dropped.
pub(crate) fn append_reply(
    out: &mut Vec<u8>,
    proto: u8,
    id: u64,
    result: &HandlerResult,
) -> Option<usize> {
    let mark = out.len();
    out.extend_from_slice(&[0; 4]);
    write_payload(out, proto, id, result);
    let len = out.len() - mark - 4;
    let Ok(prefix) = u32::try_from(len) else {
        out.truncate(mark);
        return None;
    };
    out[mark..mark + 4].copy_from_slice(&prefix.to_be_bytes());
    Some(len)
}

/// Writes one response payload — the envelope carrying `result` for
/// request `id` — in dialect `proto`, appending to `out`.
fn write_payload(out: &mut Vec<u8>, proto: u8, id: u64, result: &HandlerResult) {
    if proto == PROTOCOL_V2 {
        let status = match result {
            Ok(_) => 0,
            Err((kind, _)) => kind.code(),
        };
        out.extend_from_slice(&[PROTOCOL_V2, status, 0, 0]);
        out.extend_from_slice(&id.to_be_bytes());
        let e = &mut BvalOut(out);
        match result {
            Ok(reply) => reply.emit(e),
            Err((_, message)) => e.str(message),
        }
    } else {
        let e = &mut JsonOut(out);
        e.object(3);
        e.key("id", true);
        e.uint(id);
        e.key("ok", false);
        e.bool(result.is_ok());
        slot_body(e, result);
        e.end_object();
    }
}

/// The part of an envelope (or a `batch` slot) after `"ok"`: `"result"`,
/// or `"error": {"kind", "message"}`.
fn slot_body(e: &mut impl Enc, result: &HandlerResult) {
    match result {
        Ok(reply) => {
            e.key("result", false);
            reply.emit(e);
        }
        Err((kind, message)) => {
            e.key("error", false);
            e.object(2);
            e.key("kind", true);
            e.str(kind.as_str());
            e.key("message", false);
            e.str(message);
            e.end_object();
        }
    }
}

/// An array of `items`, each written by `each`.
fn seq<E: Enc, T>(e: &mut E, items: &[T], each: impl Fn(&mut E, &T)) {
    e.array(items.len());
    for (i, item) in items.iter().enumerate() {
        e.item(i == 0);
        each(e, item);
    }
    e.end_array();
}

/// An object of unsigned fields.
fn uints(e: &mut impl Enc, fields: &[(&str, u64)]) {
    e.object(fields.len());
    for (i, (k, v)) in fields.iter().enumerate() {
        e.key(k, i == 0);
        e.uint(*v);
    }
    e.end_object();
}

impl Reply {
    fn emit<E: Enc>(&self, e: &mut E) {
        match self {
            Reply::Value(v) => value(e, v),
            Reply::Surrogates(hits) => seq(e, hits, |e, s| e.uint(s.0)),
            Reply::Created(Some(s)) => e.uint(s.0),
            Reply::Created(None) => e.null(),
            Reply::Violations(violations) => seq(e, violations, |e, v| {
                e.object(3);
                e.key("object", true);
                e.uint(v.object.0);
                e.key("constraint", false);
                e.str(&v.constraint);
                e.key("detail", false);
                match &v.detail {
                    Some(d) => e.str(d),
                    None => e.null(),
                }
                e.end_object();
            }),
            Reply::Begin {
                txn,
                snapshot_version,
            } => uints(e, &[("txn", *txn), ("snapshot_version", *snapshot_version)]),
            Reply::Commit { version, writes } => {
                uints(e, &[("version", *version), ("writes", *writes)])
            }
            Reply::Abort { released } => uints(e, &[("released", *released)]),
            Reply::Batch(slots) => seq(e, slots, |e, slot: &Result<Reply, HandlerError>| {
                e.object(2);
                e.key("ok", true);
                e.bool(slot.is_ok());
                slot_body(e, slot);
                e.end_object();
            }),
            Reply::Json(j) => emit_json(e, j),
        }
    }
}

/// A [`Value`] in its serde derive encoding: unit variants as strings,
/// data variants as single-key objects.
fn value<E: Enc>(e: &mut E, v: &Value) {
    let name = match v {
        Value::Missing => return e.str("Missing"),
        Value::Int(_) => "Int",
        Value::Real(_) => "Real",
        Value::Bool(_) => "Bool",
        Value::Str(_) => "Str",
        Value::Enum(_) => "Enum",
        Value::Point { .. } => "Point",
        Value::List(_) => "List",
        Value::Set(_) => "Set",
        Value::Record(_) => "Record",
        Value::Matrix(_) => "Matrix",
        Value::Ref(_) => "Ref",
    };
    e.object(1);
    e.key(name, true);
    match v {
        Value::Missing => {}
        Value::Int(i) => e.int(*i),
        Value::Real(f) => e.float(*f),
        Value::Bool(b) => e.bool(*b),
        Value::Str(s) | Value::Enum(s) => e.str(s),
        Value::Point { x, y } => {
            e.object(2);
            e.key("x", true);
            e.int(*x);
            e.key("y", false);
            e.int(*y);
            e.end_object();
        }
        Value::List(items) | Value::Set(items) => seq(e, items, value),
        Value::Record(fields) => seq(e, fields, |e, (k, v)| {
            e.array(2);
            e.item(true);
            e.str(k);
            e.item(false);
            value(e, v);
            e.end_array();
        }),
        Value::Matrix(rows) => seq(e, rows, |e, row| seq(e, row, value)),
        // A `u64` serializes as a signed integer whenever it fits one.
        Value::Ref(s) => match i64::try_from(s.0) {
            Ok(i) => e.int(i),
            Err(_) => e.uint(s.0),
        },
    }
    e.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{append_frame, encode_response_v2, err_response, ok_response, ErrorKind};

    /// The tree the handler built for `reply` before replies were typed:
    /// the reference the typed writer must match byte for byte.
    fn reference(reply: &Reply) -> Json {
        let uints = |fields: &[(&str, u64)]| {
            Json::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::UInt(*v)))
                    .collect(),
            )
        };
        match reply {
            Reply::Value(v) => serde_json::to_value(v),
            Reply::Surrogates(hits) => Json::Array(hits.iter().map(|s| Json::UInt(s.0)).collect()),
            Reply::Created(s) => s.map_or(Json::Null, |s| Json::UInt(s.0)),
            Reply::Violations(vs) => Json::Array(
                vs.iter()
                    .map(|v| {
                        Json::Object(vec![
                            ("object".into(), Json::UInt(v.object.0)),
                            ("constraint".into(), Json::String(v.constraint.clone())),
                            (
                                "detail".into(),
                                v.detail.clone().map_or(Json::Null, Json::String),
                            ),
                        ])
                    })
                    .collect(),
            ),
            Reply::Begin {
                txn,
                snapshot_version,
            } => uints(&[("txn", *txn), ("snapshot_version", *snapshot_version)]),
            Reply::Commit { version, writes } => {
                uints(&[("version", *version), ("writes", *writes)])
            }
            Reply::Abort { released } => uints(&[("released", *released)]),
            Reply::Batch(slots) => Json::Array(
                slots
                    .iter()
                    .map(|slot| match slot {
                        Ok(r) => Json::Object(vec![
                            ("ok".into(), Json::Bool(true)),
                            ("result".into(), reference(r)),
                        ]),
                        Err((kind, message)) => Json::Object(vec![
                            ("ok".into(), Json::Bool(false)),
                            (
                                "error".into(),
                                Json::Object(vec![
                                    ("kind".into(), Json::String(kind.as_str().into())),
                                    ("message".into(), Json::String(message.clone())),
                                ]),
                            ),
                        ]),
                    })
                    .collect(),
            ),
            Reply::Json(j) => j.clone(),
        }
    }

    /// The frame the client codec writes for the same answer.
    fn reference_frame(proto: u8, id: u64, result: &HandlerResult) -> Vec<u8> {
        let envelope = match result {
            Ok(reply) => ok_response(id, reference(reply)),
            Err((kind, message)) => err_response(id, *kind, message),
        };
        let payload = if proto == PROTOCOL_V2 {
            encode_response_v2(&envelope)
        } else {
            envelope.to_json_string().into_bytes()
        };
        let mut out = Vec::new();
        append_frame(&mut out, &payload).unwrap();
        out
    }

    const KINDS: [ErrorKind; 7] = [
        ErrorKind::Protocol,
        ErrorKind::BadRequest,
        ErrorKind::Overloaded,
        ErrorKind::Shutdown,
        ErrorKind::Core,
        ErrorKind::Internal,
        ErrorKind::Conflict,
    ];

    fn values() -> Vec<Value> {
        vec![
            Value::Missing,
            Value::Int(-5),
            Value::Int(i64::MAX),
            Value::Real(1.0),
            Value::Real(-0.0),
            Value::Real(2.5e-300),
            Value::Real(f64::NAN),
            Value::Real(f64::INFINITY),
            Value::Bool(true),
            Value::Str("héllo \"q\" \\ \n\r\t\u{8}\u{c}\u{1}\u{1f} 😀".into()),
            Value::Str(String::new()),
            Value::Enum("NAND".into()),
            Value::Point { x: -1, y: 2 },
            Value::List(vec![Value::Int(1), Value::Missing, Value::List(vec![])]),
            Value::set(vec![Value::Str("b".into()), Value::Str("a".into())]),
            Value::record(vec![
                ("w".into(), Value::Real(0.5)),
                ("n".into(), Value::Point { x: 0, y: 0 }),
            ]),
            Value::Matrix(vec![vec![Value::Int(1), Value::Int(2)], vec![]]),
            Value::Ref(Surrogate(3)),
            Value::Ref(Surrogate(u64::MAX)),
        ]
    }

    /// Every reply shape and every error kind, in both dialects: the
    /// typed writer's frame is exactly the client codec's.
    #[test]
    fn typed_frames_match_the_client_codec_byte_for_byte() {
        let mut diagnostic: Json = serde_json::from_str(
            r#"{"pong": true, "server_info": {"uptime_ms": 12, "load": 0.25},
                "hops": [{"via_rel": "AllOf_If", "permeable": false}, null, -3, {}]}"#,
        )
        .unwrap();
        if let Json::Object(fields) = &mut diagnostic {
            fields.push(("nan".into(), Json::Float(f64::NAN)));
            fields.push(("big".into(), Json::UInt(u64::MAX)));
        }
        let mut results: Vec<HandlerResult> =
            values().into_iter().map(|v| Ok(Reply::Value(v))).collect();
        results.extend([
            Ok(Reply::Surrogates(vec![])),
            Ok(Reply::Surrogates(vec![Surrogate(1), Surrogate(u64::MAX)])),
            Ok(Reply::Created(Some(Surrogate(42)))),
            Ok(Reply::Created(None)),
            Ok(Reply::Violations(vec![
                Violation {
                    object: Surrogate(9),
                    constraint: "Length > 0".into(),
                    detail: None,
                },
                Violation {
                    object: Surrogate(10),
                    constraint: "c\"2".into(),
                    detail: Some("eval: missing `X`".into()),
                },
            ])),
            Ok(Reply::Begin {
                txn: 3,
                snapshot_version: 0,
            }),
            Ok(Reply::Commit {
                version: 17,
                writes: 2,
            }),
            Ok(Reply::Abort { released: 5 }),
            Ok(Reply::Batch(vec![])),
            Ok(Reply::Batch(vec![
                Ok(Reply::Value(Value::Int(7))),
                Err((ErrorKind::Core, "no attribute `Y`".into())),
                Ok(Reply::Created(None)),
                Err((ErrorKind::BadRequest, "sub-request missing `verb`".into())),
                Ok(Reply::Surrogates(vec![Surrogate(4)])),
            ])),
            Ok(Reply::Json(Json::String("draining".into()))),
            Ok(Reply::Json(diagnostic)),
        ]);
        results.extend(KINDS.map(|kind| Err((kind, format!("{} \"went\"\nwrong", kind.as_str())))));
        for proto in [1, PROTOCOL_V2] {
            for id in [0, 7, u64::MAX] {
                for result in &results {
                    let mut typed = vec![0xAA];
                    let len = append_reply(&mut typed, proto, id, result).unwrap();
                    assert_eq!(typed[0], 0xAA, "appends after what is buffered");
                    assert_eq!(len + 4, typed.len() - 1);
                    assert_eq!(
                        typed[1..],
                        reference_frame(proto, id, result),
                        "proto {proto}, id {id}: {result:?}"
                    );
                }
            }
        }
    }
}
