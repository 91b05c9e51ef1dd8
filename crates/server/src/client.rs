//! A blocking client for the ccdb wire protocol.
//!
//! One [`Client`] owns one TCP connection (= one server session) and
//! issues lock-step request/response pairs. It is deliberately simple —
//! tests, the `ccdb bench-net` load generator, and the E12 harness all
//! drive the server through this type, so any protocol drift breaks them
//! first.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ccdb_core::{Surrogate, Value};
use serde_json::Value as Json;

use crate::proto::{
    decode_response_v2, read_frame, write_frame, FrameError, Request, Verb, HELLO_V2,
    MAX_FRAME_BYTES, PROTOCOL_V2,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The response frame/JSON was malformed or mismatched.
    Protocol(String),
    /// The server answered with an error response.
    Server {
        /// Machine-matchable kind (`"overloaded"`, `"core"`, ...).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

impl ClientError {
    /// Whether the server refused this request at admission (backpressure).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Server { kind, .. } if kind == "overloaded")
    }

    /// Whether this failure is a transaction conflict (lock
    /// timeout/deadlock or first-committer-wins rejection). The
    /// transaction is already aborted server-side — retry from a fresh
    /// `begin`.
    pub fn is_conflict(&self) -> bool {
        matches!(self, ClientError::Server { kind, .. } if kind == "conflict")
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { kind, message } => write!(f, "server [{kind}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A blocking connection to a ccdb server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    trace: Option<u64>,
    proto: u8,
}

impl Client {
    /// Connects to `addr`, speaking v1 JSON (no handshake needed).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_id: 1,
            trace: None,
            proto: 1,
        })
    }

    /// Connects to `addr` and negotiates protocol v2 (binary framing):
    /// sends the raw [`HELLO_V2`] magic and expects it echoed back. A
    /// v1-pinned server answers with a v1 JSON `protocol` error instead,
    /// which surfaces here as [`ClientError::Server`].
    pub fn connect_v2(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let mut client = Client::connect(addr)?;
        client.stream.write_all(&HELLO_V2)?;
        let mut ack = [0u8; 4];
        client.stream.read_exact(&mut ack)?;
        if ack == HELLO_V2 {
            client.proto = PROTOCOL_V2;
            return Ok(client);
        }
        if ack[0] == 0 {
            // Not the ack but a v1 length prefix: the server refused the
            // hello and framed a JSON error. Read it out and surface it.
            let len = u32::from_be_bytes(ack) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(ClientError::Protocol(format!(
                    "refusal frame of {len} bytes exceeds cap"
                )));
            }
            let mut payload = vec![0u8; len];
            client.stream.read_exact(&mut payload)?;
            let v = parse_v1_envelope(&payload)?;
            return Err(envelope_error(&v));
        }
        Err(ClientError::Protocol(format!(
            "unexpected hello ack {ack:02x?}"
        )))
    }

    /// Connects speaking the given protocol (`1` or `2`); anything else
    /// is rejected. Convenience for flag-driven callers (`--proto`).
    pub fn connect_proto(addr: impl ToSocketAddrs, proto: u8) -> ClientResult<Client> {
        match proto {
            1 => Ok(Client::connect(addr)?),
            p if p == PROTOCOL_V2 => Client::connect_v2(addr),
            p => Err(ClientError::Protocol(format!("unsupported protocol v{p}"))),
        }
    }

    /// The wire protocol this connection negotiated (1 or 2).
    pub fn proto(&self) -> u8 {
        self.proto
    }

    /// Stamps every subsequent request with `trace` (`None` stops). The
    /// server opens its handling span inside that trace id, so a client
    /// trace continues into the server's span tree.
    pub fn set_trace(&mut self, trace: Option<u64>) {
        self.trace = trace;
    }

    /// Sets the read timeout for responses (`None` blocks forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Sends one raw payload without waiting for the response. Test-only
    /// building block for pipelined / malformed-traffic scenarios.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Reads one raw response frame.
    pub fn recv_raw(&mut self) -> Result<Vec<u8>, FrameError> {
        read_frame(&mut self.stream, MAX_FRAME_BYTES)
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Issues `verb` with `params`, returning the response's `result`.
    /// The request and response travel in whichever dialect the
    /// connection negotiated; the envelope semantics are identical.
    pub fn request(&mut self, verb: &str, params: Json) -> ClientResult<Json> {
        let id = self.next_id();
        let req = Request {
            id,
            verb: verb.into(),
            params,
            trace: self.trace,
        };
        let payload = if self.proto == PROTOCOL_V2 {
            req.encode_v2().map_err(ClientError::Protocol)?
        } else {
            req.to_json().to_json_string().into_bytes()
        };
        write_frame(&mut self.stream, &payload)?;
        let v = self.read_response_json()?;
        let got_id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
        if got_id != id {
            return Err(ClientError::Protocol(format!(
                "response id {got_id} does not match request id {id}"
            )));
        }
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v.get("result").cloned().unwrap_or(Json::Null)),
            Some(false) => Err(envelope_error(&v)),
            None => Err(ClientError::Protocol("response missing `ok`".into())),
        }
    }

    /// `ping` → `{"pong": true, "server_info": {...}}`.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.request(Verb::Ping.name(), Json::Object(vec![]))
            .map(|_| ())
    }

    /// `ping`, returning the `server_info` object (version, uptime,
    /// workers, queue depth, rescache shards).
    pub fn ping_info(&mut self) -> ClientResult<Json> {
        let r = self.request(Verb::Ping.name(), Json::Object(vec![]))?;
        r.get("server_info")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("ping: missing server_info".into()))
    }

    /// The server's flight-recorder snapshot (recent + slowest requests
    /// with per-phase timelines).
    pub fn flight(&mut self) -> ClientResult<Json> {
        self.request(Verb::Flight.name(), Json::Object(vec![]))
    }

    /// `ping` with an artificial service delay (drain/load tests).
    pub fn ping_delay_ms(&mut self, ms: u64) -> ClientResult<()> {
        self.request(
            Verb::Ping.name(),
            Json::Object(vec![("delay_ms".into(), Json::UInt(ms))]),
        )
        .map(|_| ())
    }

    /// Creates an object of `ty` with initial attributes.
    pub fn create(&mut self, ty: &str, attrs: &[(&str, Value)]) -> ClientResult<Surrogate> {
        let encoded = Json::Object(
            attrs
                .iter()
                .map(|(n, v)| (n.to_string(), serde_json::to_value(v)))
                .collect(),
        );
        let params = Json::Object(vec![
            ("type".into(), Json::String(ty.into())),
            ("attrs".into(), encoded),
        ]);
        let r = self.request(Verb::Create.name(), params)?;
        r.as_u64()
            .map(Surrogate)
            .ok_or_else(|| ClientError::Protocol("create: non-integer surrogate".into()))
    }

    /// Resolved attribute read.
    pub fn attr(&mut self, obj: Surrogate, name: &str) -> ClientResult<Value> {
        let params = Json::Object(vec![
            ("obj".into(), Json::UInt(obj.0)),
            ("name".into(), Json::String(name.into())),
        ]);
        let r = self.request(Verb::Attr.name(), params)?;
        serde_json::from_value(&r)
            .map_err(|e| ClientError::Protocol(format!("attr: bad value encoding: {e}")))
    }

    /// `begin`: opens a wire transaction on this connection's session.
    /// Returns `(txn_id, snapshot_version)` — the published version the
    /// transaction's reads are pinned to.
    pub fn begin(&mut self) -> ClientResult<(u64, u64)> {
        let r = self.request(Verb::Begin.name(), Json::Object(vec![]))?;
        match (
            r.get("txn").and_then(Json::as_u64),
            r.get("snapshot_version").and_then(Json::as_u64),
        ) {
            (Some(txn), Some(v)) => Ok((txn, v)),
            _ => Err(ClientError::Protocol("begin: malformed result".into())),
        }
    }

    /// `commit`: validates and publishes the transaction's buffered
    /// writes. Returns `(version, writes)`; version 0 means the
    /// transaction was read-only and published nothing.
    pub fn commit(&mut self) -> ClientResult<(u64, u64)> {
        let r = self.request(Verb::Commit.name(), Json::Object(vec![]))?;
        match (
            r.get("version").and_then(Json::as_u64),
            r.get("writes").and_then(Json::as_u64),
        ) {
            (Some(version), Some(writes)) => Ok((version, writes)),
            _ => Err(ClientError::Protocol("commit: malformed result".into())),
        }
    }

    /// `abort`: discards the transaction's workspace and buffered writes.
    /// Returns the number of locks released (inherited S-locks included).
    pub fn abort(&mut self) -> ClientResult<u64> {
        let r = self.request(Verb::Abort.name(), Json::Object(vec![]))?;
        r.get("released")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("abort: malformed result".into()))
    }

    /// Local attribute write.
    pub fn set_attr(&mut self, obj: Surrogate, name: &str, value: Value) -> ClientResult<()> {
        let params = Json::Object(vec![
            ("obj".into(), Json::UInt(obj.0)),
            ("name".into(), Json::String(name.into())),
            ("value".into(), serde_json::to_value(&value)),
        ]);
        self.request(Verb::SetAttr.name(), params).map(|_| ())
    }

    /// Binds `inheritor` to `transmitter` in `rel`; returns the
    /// relationship object's surrogate.
    pub fn bind(
        &mut self,
        rel: &str,
        transmitter: Surrogate,
        inheritor: Surrogate,
    ) -> ClientResult<Surrogate> {
        let params = Json::Object(vec![
            ("rel".into(), Json::String(rel.into())),
            ("transmitter".into(), Json::UInt(transmitter.0)),
            ("inheritor".into(), Json::UInt(inheritor.0)),
        ]);
        let r = self.request(Verb::Bind.name(), params)?;
        r.as_u64()
            .map(Surrogate)
            .ok_or_else(|| ClientError::Protocol("bind: non-integer surrogate".into()))
    }

    /// Dissolves an inheritance binding.
    pub fn unbind(&mut self, rel_obj: Surrogate) -> ClientResult<()> {
        let params = Json::Object(vec![("rel_obj".into(), Json::UInt(rel_obj.0))]);
        self.request(Verb::Unbind.name(), params).map(|_| ())
    }

    /// Selects objects of `ty` matching the `where` expression source
    /// (`None` selects all).
    pub fn select(&mut self, ty: &str, where_src: Option<&str>) -> ClientResult<Vec<Surrogate>> {
        let mut params = vec![("type".to_string(), Json::String(ty.into()))];
        if let Some(src) = where_src {
            params.push(("where".into(), Json::String(src.into())));
        }
        let r = self.request(Verb::Select.name(), Json::Object(params))?;
        r.as_array()
            .map(|items| {
                items
                    .iter()
                    .filter_map(Json::as_u64)
                    .map(Surrogate)
                    .collect()
            })
            .ok_or_else(|| ClientError::Protocol("select: non-array result".into()))
    }

    /// Constraint-checks every object; returns `(object, constraint)` pairs.
    pub fn check_all(&mut self) -> ClientResult<Vec<(Surrogate, String)>> {
        let r = self.request(Verb::CheckAll.name(), Json::Object(vec![]))?;
        r.as_array()
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| {
                        Some((
                            Surrogate(v.get("object")?.as_u64()?),
                            v.get("constraint")?.as_str()?.to_string(),
                        ))
                    })
                    .collect()
            })
            .ok_or_else(|| ClientError::Protocol("check_all: non-array result".into()))
    }

    /// A type's effective schema with provenance.
    pub fn effective(&mut self, ty: &str) -> ClientResult<Json> {
        self.request(
            Verb::Effective.name(),
            Json::Object(vec![("type".into(), Json::String(ty.into()))]),
        )
    }

    /// The inheritance chain `ty.attr` resolves through.
    pub fn explain(&mut self, ty: &str, attr: &str) -> ClientResult<Json> {
        self.request(
            Verb::Explain.name(),
            Json::Object(vec![
                ("type".into(), Json::String(ty.into())),
                ("attr".into(), Json::String(attr.into())),
            ]),
        )
    }

    /// The server's metrics snapshot as JSON.
    pub fn stats(&mut self) -> ClientResult<Json> {
        self.request(Verb::Stats.name(), Json::Object(vec![]))
    }

    /// The plaintext Prometheus scrape.
    pub fn metrics(&mut self) -> ClientResult<String> {
        let r = self.request(Verb::Metrics.name(), Json::Object(vec![]))?;
        r.as_str()
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics: non-string result".into()))
    }

    /// Windowed time-series query: per-series points/rates/quantiles plus
    /// the per-verb latency and wakeup-latency digests, computed
    /// server-side from the telemetry ring. `params` carries the optional
    /// `points` / `window_ms` / `series` knobs (empty object for
    /// defaults).
    pub fn telemetry(&mut self, params: Json) -> ClientResult<Json> {
        self.request(Verb::Telemetry.name(), params)
    }

    /// Subscribes this connection to streamed telemetry frames every
    /// `interval_ms`, filtered to `series` name patterns (empty → server
    /// default). Returns the acknowledgement object (`tick`,
    /// `interval_ms` as clamped, `series` matched now). After this call
    /// the server pushes unsolicited frames; drain them with
    /// [`Client::recv_watch_frame`]. The lock-step [`Client::request`]
    /// path must not be used while a watch is live — an interleaved frame
    /// would be mistaken for the response.
    pub fn watch(&mut self, interval_ms: u64, series: &[&str]) -> ClientResult<Json> {
        let mut params = vec![("interval_ms".to_string(), Json::UInt(interval_ms))];
        if !series.is_empty() {
            params.push((
                "series".into(),
                Json::Array(series.iter().map(|s| Json::String((*s).into())).collect()),
            ));
        }
        self.request(Verb::Watch.name(), Json::Object(params))
    }

    /// Cancels this connection's watch subscription. Frames already in
    /// flight may still arrive before the acknowledgement; callers should
    /// drain until they see the `watching: false` ack envelope.
    pub fn watch_stop(&mut self) -> ClientResult<Json> {
        self.request(
            Verb::Watch.name(),
            Json::Object(vec![("stop".into(), Json::Bool(true))]),
        )
    }

    /// Reads one streamed telemetry frame (the `result` of the pushed
    /// envelope). Only meaningful after [`Client::watch`]; respects the
    /// configured read timeout.
    pub fn recv_watch_frame(&mut self) -> ClientResult<Json> {
        let v = self.read_response_json()?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v.get("result").cloned().unwrap_or(Json::Null)),
            Some(false) => Err(envelope_error(&v)),
            None => Err(ClientError::Protocol("frame missing `ok`".into())),
        }
    }

    /// Issues `sub_requests` — `(verb, params)` pairs — as **one** `batch`
    /// frame, executed by the server under a single store guard
    /// acquisition. Returns one result per sub-request, in order; a
    /// failing sub-request yields an `Err` in its slot without aborting
    /// the rest (per-entry isolation). The outer `Err` covers
    /// frame/admission failures — notably `overloaded`, which rejects the
    /// whole batch as one queue job.
    pub fn batch(
        &mut self,
        sub_requests: Vec<(&str, Json)>,
    ) -> ClientResult<Vec<Result<Json, ClientError>>> {
        let requests = Json::Array(
            sub_requests
                .into_iter()
                .map(|(verb, params)| {
                    Json::Object(vec![
                        ("verb".into(), Json::String(verb.into())),
                        ("params".into(), params),
                    ])
                })
                .collect(),
        );
        let r = self.request(
            Verb::Batch.name(),
            Json::Object(vec![("requests".into(), requests)]),
        )?;
        let slots = r
            .as_array()
            .ok_or_else(|| ClientError::Protocol("batch: non-array result".into()))?;
        Ok(slots
            .iter()
            .map(|slot| match slot.get("ok").and_then(Json::as_bool) {
                Some(true) => Ok(slot.get("result").cloned().unwrap_or(Json::Null)),
                _ => {
                    let err = slot.get("error");
                    Err(ClientError::Server {
                        kind: err
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                        message: err
                            .and_then(|e| e.get("message"))
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    })
                }
            })
            .collect())
    }

    /// This connection's session info.
    pub fn session(&mut self) -> ClientResult<Json> {
        self.request(Verb::Session.name(), Json::Object(vec![]))
    }

    /// Asks the server to drain and stop.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.request(Verb::Shutdown.name(), Json::Object(vec![]))
            .map(|_| ())
    }

    /// Reads one frame directly (after `send_raw`) and decodes it into
    /// the response envelope in this connection's dialect; exposed for
    /// tests.
    pub fn read_response_json(&mut self) -> ClientResult<Json> {
        let raw = match self.recv_raw() {
            Ok(r) => r,
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            Err(e) => return Err(ClientError::Protocol(e.to_string())),
        };
        if self.proto == PROTOCOL_V2 {
            decode_response_v2(&raw).map_err(ClientError::Protocol)
        } else {
            parse_v1_envelope(&raw)
        }
    }

    /// The underlying stream (tests use this to half-close or mangle it).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

/// Parses a v1 JSON response payload into the envelope value.
fn parse_v1_envelope(raw: &[u8]) -> ClientResult<Json> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| ClientError::Protocol(format!("bad response JSON: {e}")))
}

/// Lifts an `ok: false` envelope into [`ClientError::Server`].
fn envelope_error(v: &Json) -> ClientError {
    let err = v.get("error");
    ClientError::Server {
        kind: err
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        message: err
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
    }
}

/// Blanket `Read`/`Write` passthrough so tests can speak raw bytes.
impl Write for Client {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Read for Client {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}
