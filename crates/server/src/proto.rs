//! The ccdb wire protocol: length-prefixed frames in two dialects.
//!
//! **v1 (JSON)**: a frame is a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. Both directions use the same
//! framing.
//!
//! **v2 (binary)**: same 4-byte length prefix, but the payload is a fixed
//! binary header (version byte, verb id / status byte, flags, request id,
//! optional trace id) followed by a length-delimited binary value
//! encoding ("bval") of the params/result. A connection opts into v2 by
//! sending the 4-byte [`HELLO_V2`] magic immediately after connect; the
//! server echoes it back as the ack. The magic's first byte (`0xCC`)
//! cannot collide with a legal v1 frame: v1 payloads cap at
//! [`MAX_FRAME_BYTES`] (1 MiB), so the first byte of every valid v1
//! length prefix is `0x00`. See DESIGN.md §10 for the layout.
//!
//! **Request** objects carry `{"v": 1, "id": <u64>, "verb": "<name>",
//! "params": {...}}`. `v` is the protocol version and must equal
//! [`PROTOCOL_VERSION`]; `id` is chosen by the client and echoed verbatim
//! in the response so pipelined requests can be matched. An optional
//! `"trace": <u64>` field carries a client-chosen trace id: the server
//! opens its handling span inside that trace (bypassing the sampler), so
//! a client-side trace continues into the server's span tree.
//!
//! **Response** objects are `{"id": <u64>, "ok": true, "result": ...}` on
//! success and `{"id": <u64>, "ok": false, "error": {"kind": "...",
//! "message": "..."}}` on failure. The error `kind` is machine-matchable
//! ([`ErrorKind`]); `"overloaded"` in particular is the server's explicit
//! backpressure signal — the request was *rejected at admission*, not
//! queued, and the client should back off and retry.
//!
//! Attribute values travel in the serde encoding of
//! [`ccdb_core::Value`]: unit variants as strings (`"Missing"`),
//! data-carrying variants as single-key objects (`{"Int": 5}`,
//! `{"Point": {"x": 1, "y": 2}}`).

use std::io::{self, Read, Write};

use serde_json::Value as Json;

/// Version tag every v1 request must carry; bumped on incompatible changes.
pub const PROTOCOL_VERSION: u64 = 1;

/// Version byte stamped into every v2 binary frame header.
pub const PROTOCOL_V2: u8 = 2;

/// The 4-byte magic a v2 client sends raw (unframed) immediately after
/// connect, and the server echoes back as the acceptance ack. Layout:
/// `0xCC 0xDB <version> 0x00`. A v1-pinned server answers the hello with
/// a v1 JSON `protocol` error instead of the ack.
pub const HELLO_V2: [u8; 4] = [0xCC, 0xDB, PROTOCOL_V2, 0x00];

/// Default cap on a single frame's payload, in bytes. A length prefix
/// above the server's cap is answered with a `protocol` error and the
/// connection is closed *without reading the body* — a hostile or corrupt
/// prefix cannot make the server allocate.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary.
    Closed,
    /// The stream ended mid-prefix or mid-payload (truncated frame).
    Truncated,
    /// The length prefix exceeded the frame cap.
    TooLarge(usize),
    /// Underlying socket error (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl FrameError {
    /// Whether the platform reported a genuine read timeout
    /// (`TimedOut`) — the connection is idle, not dead.
    ///
    /// This used to also match `WouldBlock`, which conflated two
    /// meanings: on a *blocking* socket with `SO_RCVTIMEO`, Linux reports
    /// the timeout as `EAGAIN`/`WouldBlock`, but on a *nonblocking*
    /// socket the very same kind means "no data buffered yet" and the
    /// connection is very much alive. Under a readiness event loop that
    /// conflation reaps live connections, so the meanings are split:
    /// blocking `SO_RCVTIMEO` callers must check
    /// `is_timeout() || is_would_block()`, nonblocking callers treat
    /// [`is_would_block`] as "retry after the next readiness event" and
    /// leave idle detection to the event loop's own deadlines.
    ///
    /// [`is_would_block`]: FrameError::is_would_block
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == io::ErrorKind::TimedOut
        )
    }

    /// Whether this is `WouldBlock`: on a nonblocking socket the kernel
    /// simply has no bytes right now and the read should be retried after
    /// the next readiness event; on a blocking socket with `SO_RCVTIMEO`,
    /// Linux uses this same kind for the idle timeout.
    pub fn is_would_block(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
        )
    }
}

/// Writes one frame: big-endian length prefix + payload, coalesced into a
/// single `write_all` call. Issuing the prefix and payload as two
/// separate writes on a `TCP_NODELAY` socket can put the 4-byte prefix on
/// the wire as its own segment — one extra syscall and, at worst, one
/// extra packet per frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Appends one frame (length prefix + payload) to `out` without any I/O.
/// The event loop and batched writers use this to build a single flush
/// buffer covering several responses.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads one frame's payload, enforcing `max` on the length prefix.
///
/// EOF before the first prefix byte is a clean [`FrameError::Closed`];
/// EOF anywhere later is [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    read_frame_timed(r, max).map(|(payload, _)| payload)
}

/// [`read_frame`], additionally stamping the instant the *first* bytes of
/// the frame arrived. The server's `recv` phase is measured from that
/// stamp to frame completion — time spent blocked waiting for a client to
/// send anything at all (think time between requests) is not part of any
/// request and must not be charged to one.
pub fn read_frame_timed(
    r: &mut impl Read,
    max: usize,
) -> Result<(Vec<u8>, std::time::Instant), FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    let mut first_byte = None;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                })
            }
            Ok(n) => {
                if first_byte.is_none() {
                    first_byte = Some(std::time::Instant::now());
                }
                got += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let first_byte = first_byte.unwrap_or_else(std::time::Instant::now);
    Ok((payload, first_byte))
}

/// Machine-matchable response error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame/JSON or unsupported protocol version.
    Protocol,
    /// Well-formed request with missing/invalid verb or parameters.
    BadRequest,
    /// Rejected at admission: the bounded request queue is full.
    Overloaded,
    /// The server is draining; no new requests are admitted.
    Shutdown,
    /// The store rejected the operation (a `CoreError`).
    Core,
    /// A handler panicked; the request died but the server did not.
    Internal,
    /// Transaction conflict: a lock wait timed out or deadlocked, or
    /// commit-time first-committer-wins validation failed. The session's
    /// transaction has been aborted; the client should retry it.
    Conflict,
}

impl ErrorKind {
    /// Wire string for this kind (v1 JSON responses).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Core => "core",
            ErrorKind::Internal => "internal",
            ErrorKind::Conflict => "conflict",
        }
    }

    /// Parses the v1 wire string back into a kind.
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "protocol" => ErrorKind::Protocol,
            "bad_request" => ErrorKind::BadRequest,
            "overloaded" => ErrorKind::Overloaded,
            "shutdown" => ErrorKind::Shutdown,
            "core" => ErrorKind::Core,
            "internal" => ErrorKind::Internal,
            "conflict" => ErrorKind::Conflict,
            _ => return None,
        })
    }

    /// Status byte for v2 response headers (`0` is reserved for success).
    pub fn code(self) -> u8 {
        match self {
            ErrorKind::Protocol => 1,
            ErrorKind::BadRequest => 2,
            ErrorKind::Overloaded => 3,
            ErrorKind::Shutdown => 4,
            ErrorKind::Core => 5,
            ErrorKind::Internal => 6,
            ErrorKind::Conflict => 7,
        }
    }

    /// Inverse of [`code`](ErrorKind::code).
    pub fn from_code(code: u8) -> Option<ErrorKind> {
        Some(match code {
            1 => ErrorKind::Protocol,
            2 => ErrorKind::BadRequest,
            3 => ErrorKind::Overloaded,
            4 => ErrorKind::Shutdown,
            5 => ErrorKind::Core,
            6 => ErrorKind::Internal,
            7 => ErrorKind::Conflict,
            _ => return None,
        })
    }
}

/// A parsed request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Operation name.
    pub verb: String,
    /// Verb parameters (an object; `{}` when absent).
    pub params: Json,
    /// Client-supplied trace id to continue server-side, if any.
    pub trace: Option<u64>,
}

impl Request {
    /// Serializes a request envelope.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("v".into(), Json::UInt(PROTOCOL_VERSION)),
            ("id".into(), Json::UInt(self.id)),
            ("verb".into(), Json::String(self.verb.clone())),
            ("params".into(), self.params.clone()),
        ];
        if let Some(t) = self.trace {
            fields.push(("trace".into(), Json::UInt(t)));
        }
        Json::Object(fields)
    }

    /// Parses and validates a request envelope (including the version
    /// check). The error string is safe to echo to the client.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let v = parse_v1_json(payload)?;
        let (id, verb, trace) = v1_envelope(&v)?;
        let params = v.get("params").cloned().unwrap_or(Json::Object(vec![]));
        Ok(Request {
            id,
            verb: verb.to_string(),
            params,
            trace,
        })
    }
}

/// Parses a v1 payload's JSON text.
pub(crate) fn parse_v1_json(payload: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))
}

/// A v1 envelope's `id`, `verb` and optional `trace`, after the version
/// check. The error string is safe to echo to the client.
pub(crate) fn v1_envelope(v: &Json) -> Result<(u64, &str, Option<u64>), String> {
    let version = v
        .get("v")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing protocol version `v`".to_string())?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
        ));
    }
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing request `id`".to_string())?;
    let verb = v
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing `verb`".to_string())?;
    Ok((id, verb, v.get("trace").and_then(Json::as_u64)))
}

/// Builds a success response.
pub fn ok_response(id: u64, result: Json) -> Json {
    Json::Object(vec![
        ("id".into(), Json::UInt(id)),
        ("ok".into(), Json::Bool(true)),
        ("result".into(), result),
    ])
}

/// Builds an error response.
pub fn err_response(id: u64, kind: ErrorKind, message: &str) -> Json {
    Json::Object(vec![
        ("id".into(), Json::UInt(id)),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Object(vec![
                ("kind".into(), Json::String(kind.as_str().into())),
                ("message".into(), Json::String(message.into())),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Verbs: one table for both dialects
// ---------------------------------------------------------------------------

/// What a verb does, which decides where and how it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbClass {
    /// Binds to the connection (`session`, `watch`): answered by the
    /// event loop on the spot.
    Connection,
    /// Touches no store (catalog, metrics, diagnostics).
    Storeless,
    /// Reads the store: a pinned snapshot, or the transaction's workspace.
    Read,
    /// Writes the store: one `Op`, applied to the master under
    /// `SharedStore::write` or logged by `Txn::apply`.
    Write,
    /// Opens or ends the session's wire transaction.
    Txn,
    /// Runs a list of sub-requests under one guard.
    Batch,
    /// Steers the server itself (`shutdown`).
    Control,
}

/// The one verb table: each row gives a verb its v2 id (the enum
/// discriminant), its wire name and its [`VerbClass`].
macro_rules! verb_table {
    ($($verb:ident = $id:literal, $name:literal, $class:ident;)*) => {
        /// Every verb the server speaks; the discriminant is the v2 verb id.
        /// Public ids are dense from 1 and append-only, so v1↔v2 ids never
        /// drift between releases; the debug-only `boom` (enabled by
        /// `ServerConfig::debug_verbs`) sits far above them.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum Verb {
            $($verb = $id,)*
        }

        impl Verb {
            /// Every verb, in id order.
            pub const ALL: &'static [Verb] = &[$(Verb::$verb,)*];

            /// The wire name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Verb::$verb => $name,)*
                }
            }

            /// The verb with wire name `name`.
            pub fn from_name(name: &str) -> Option<Verb> {
                match name {
                    $($name => Some(Verb::$verb),)*
                    _ => None,
                }
            }

            /// The verb with v2 id `id`.
            pub fn from_id(id: u8) -> Option<Verb> {
                match id {
                    $($id => Some(Verb::$verb),)*
                    _ => None,
                }
            }

            /// What the verb does.
            pub fn class(self) -> VerbClass {
                match self {
                    $(Verb::$verb => VerbClass::$class,)*
                }
            }
        }
    };
}

verb_table! {
    Ping = 1, "ping", Storeless;
    Session = 2, "session", Connection;
    Create = 3, "create", Write;
    Attr = 4, "attr", Read;
    SetAttr = 5, "set_attr", Write;
    Bind = 6, "bind", Write;
    Unbind = 7, "unbind", Write;
    Select = 8, "select", Read;
    CheckAll = 9, "check_all", Read;
    Effective = 10, "effective", Storeless;
    Explain = 11, "explain", Storeless;
    Stats = 12, "stats", Storeless;
    Metrics = 13, "metrics", Storeless;
    Flight = 14, "flight", Storeless;
    Batch = 15, "batch", Batch;
    Shutdown = 16, "shutdown", Control;
    Telemetry = 17, "telemetry", Storeless;
    Watch = 18, "watch", Connection;
    Begin = 19, "begin", Txn;
    Commit = 20, "commit", Txn;
    Abort = 21, "abort", Txn;
    Boom = 0xF0, "boom", Storeless;
}

impl Verb {
    /// The verbs every server speaks (all but the debug-only `boom`):
    /// `PUBLIC[i]` has id `i + 1`, so per-verb tables index by `id - 1`.
    pub const PUBLIC: &'static [Verb] = Verb::ALL.split_last().unwrap().1;
}

// ---------------------------------------------------------------------------
// Protocol v2: binary framing
// ---------------------------------------------------------------------------

/// v2 header flag: an 8-byte trace id follows the fixed header.
pub const V2_FLAG_TRACE: u8 = 0x01;

/// Fixed v2 header length: version, kind, flags, reserved, 8-byte id.
pub const V2_HEADER_LEN: usize = 12;

// bval type tags. Strings/arrays/objects carry a u32 big-endian
// count/length; objects repeat (key-string-without-tag, value).
const BV_NULL: u8 = 0x00;
pub(crate) const BV_FALSE: u8 = 0x01;
pub(crate) const BV_TRUE: u8 = 0x02;
pub(crate) const BV_INT: u8 = 0x03; // i64 BE
pub(crate) const BV_UINT: u8 = 0x04; // u64 BE
pub(crate) const BV_FLOAT: u8 = 0x05; // f64 bits BE
pub(crate) const BV_STR: u8 = 0x06;
pub(crate) const BV_ARRAY: u8 = 0x07;
pub(crate) const BV_OBJECT: u8 = 0x08;

/// Nesting cap for bval decoding; deeper input is hostile, not data.
const BV_MAX_DEPTH: u32 = 64;

/// Appends the bval encoding of `v` to `out`.
pub fn bval_encode(v: &Json, out: &mut Vec<u8>) {
    emit_json(&mut BvalOut(out), v);
}

/// A streaming writer of the value tree both dialects carry: v1 JSON text
/// ([`JsonOut`]) or bval ([`BvalOut`]). Typed replies and [`Json`] trees
/// are emitted through it straight into an output buffer, so neither
/// dialect builds an intermediate tree. Containers announce their length
/// up front (bval needs it), and every element or key says whether it is
/// the first (JSON needs the commas).
pub(crate) trait Enc {
    fn null(&mut self);
    fn bool(&mut self, b: bool);
    fn int(&mut self, i: i64);
    fn uint(&mut self, u: u64);
    fn float(&mut self, f: f64);
    fn str(&mut self, s: &str);
    fn array(&mut self, len: usize);
    fn item(&mut self, first: bool);
    fn end_array(&mut self);
    fn object(&mut self, len: usize);
    fn key(&mut self, k: &str, first: bool);
    fn end_object(&mut self);
}

/// [`Enc`] writing bval.
pub(crate) struct BvalOut<'a>(pub &'a mut Vec<u8>);

impl BvalOut<'_> {
    fn tagged(&mut self, tag: u8, bytes: [u8; 8]) {
        self.0.push(tag);
        self.0.extend_from_slice(&bytes);
    }

    fn counted(&mut self, len: usize) {
        self.0.extend_from_slice(&(len as u32).to_be_bytes());
    }
}

impl Enc for BvalOut<'_> {
    fn null(&mut self) {
        self.0.push(BV_NULL);
    }
    fn bool(&mut self, b: bool) {
        self.0.push(if b { BV_TRUE } else { BV_FALSE });
    }
    fn int(&mut self, i: i64) {
        self.tagged(BV_INT, i.to_be_bytes());
    }
    fn uint(&mut self, u: u64) {
        self.tagged(BV_UINT, u.to_be_bytes());
    }
    fn float(&mut self, f: f64) {
        self.tagged(BV_FLOAT, f.to_bits().to_be_bytes());
    }
    fn str(&mut self, s: &str) {
        self.0.push(BV_STR);
        self.key(s, true);
    }
    fn array(&mut self, len: usize) {
        self.0.push(BV_ARRAY);
        self.counted(len);
    }
    fn item(&mut self, _first: bool) {}
    fn end_array(&mut self) {}
    fn object(&mut self, len: usize) {
        self.0.push(BV_OBJECT);
        self.counted(len);
    }
    fn key(&mut self, k: &str, _first: bool) {
        self.counted(k.len());
        self.0.extend_from_slice(k.as_bytes());
    }
    fn end_object(&mut self) {}
}

/// [`Enc`] writing compact JSON text, byte for byte what
/// `Json::to_json_string` writes for the same tree.
pub(crate) struct JsonOut<'a>(pub &'a mut Vec<u8>);

impl Enc for JsonOut<'_> {
    fn null(&mut self) {
        self.0.extend_from_slice(b"null");
    }
    fn bool(&mut self, b: bool) {
        self.0
            .extend_from_slice(if b { b"true" as &[u8] } else { b"false" });
    }
    fn int(&mut self, i: i64) {
        let _ = write!(self.0, "{i}");
    }
    fn uint(&mut self, u: u64) {
        let _ = write!(self.0, "{u}");
    }
    fn float(&mut self, f: f64) {
        // `{:?}` keeps the `.0` on integral floats; non-finite floats
        // degrade to null, as serde_json does.
        if f.is_finite() {
            let _ = write!(self.0, "{f:?}");
        } else {
            self.null();
        }
    }
    fn str(&mut self, s: &str) {
        let out = &mut *self.0;
        out.push(b'"');
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0C => b"\\f",
                c if c < 0x20 => b"",
                _ => continue,
            };
            out.extend_from_slice(&s.as_bytes()[plain..i]);
            if esc.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.extend_from_slice(esc);
            }
            plain = i + 1;
        }
        out.extend_from_slice(&s.as_bytes()[plain..]);
        out.push(b'"');
    }
    fn array(&mut self, _len: usize) {
        self.0.push(b'[');
    }
    fn item(&mut self, first: bool) {
        if !first {
            self.0.push(b',');
        }
    }
    fn end_array(&mut self) {
        self.0.push(b']');
    }
    fn object(&mut self, _len: usize) {
        self.0.push(b'{');
    }
    fn key(&mut self, k: &str, first: bool) {
        self.item(first);
        self.str(k);
        self.0.push(b':');
    }
    fn end_object(&mut self) {
        self.0.push(b'}');
    }
}

/// Emits a [`Json`] tree through `e`.
pub(crate) fn emit_json(e: &mut impl Enc, v: &Json) {
    match v {
        Json::Null => e.null(),
        Json::Bool(b) => e.bool(*b),
        Json::Int(i) => e.int(*i),
        Json::UInt(u) => e.uint(*u),
        Json::Float(f) => e.float(*f),
        Json::String(s) => e.str(s),
        Json::Array(items) => {
            e.array(items.len());
            for (i, item) in items.iter().enumerate() {
                e.item(i == 0);
                emit_json(e, item);
            }
            e.end_array();
        }
        Json::Object(pairs) => {
            e.object(pairs.len());
            for (i, (k, val)) in pairs.iter().enumerate() {
                e.key(k, i == 0);
                emit_json(e, val);
            }
            e.end_object();
        }
    }
}

/// Streaming bval reader over a borrowed byte slice. Counts claimed by
/// the input never drive allocation directly: capacities are clamped to
/// what the remaining bytes could actually hold, so a hostile
/// `count = u32::MAX` header fails on truncation instead of reserving
/// gigabytes.
pub(crate) struct BvalReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BvalReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        BvalReader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err("truncated bval payload".to_string());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed string, borrowed from the input.
    pub(crate) fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "bval string is not UTF-8".to_string())
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth > BV_MAX_DEPTH {
            return Err("bval nesting too deep".to_string());
        }
        match self.u8()? {
            BV_NULL => Ok(Json::Null),
            BV_FALSE => Ok(Json::Bool(false)),
            BV_TRUE => Ok(Json::Bool(true)),
            BV_INT => Ok(Json::Int(self.u64()? as i64)),
            BV_UINT => Ok(Json::UInt(self.u64()?)),
            BV_FLOAT => Ok(Json::Float(f64::from_bits(self.u64()?))),
            BV_STR => Ok(Json::String(self.str()?.to_string())),
            BV_ARRAY => {
                let count = self.u32()? as usize;
                // Each element costs at least its one tag byte.
                let mut items = Vec::with_capacity(count.min(self.remaining()));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Array(items))
            }
            BV_OBJECT => {
                let count = self.u32()? as usize;
                // Each pair costs at least 4 (key length) + 1 (tag) bytes.
                let mut pairs = Vec::with_capacity(count.min(self.remaining() / 5));
                for _ in 0..count {
                    let key = self.str()?.to_string();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                }
                Ok(Json::Object(pairs))
            }
            tag => Err(format!("unknown bval tag 0x{tag:02x}")),
        }
    }

    /// Steps over one value exactly as [`value`](Self::value) would read
    /// it — same checks, same order, same messages — without building
    /// anything: validation that allocates nothing.
    pub(crate) fn skip(&mut self, depth: u32) -> Result<(), String> {
        if depth > BV_MAX_DEPTH {
            return Err("bval nesting too deep".to_string());
        }
        match self.u8()? {
            BV_NULL | BV_FALSE | BV_TRUE => {}
            BV_INT | BV_UINT | BV_FLOAT => {
                self.take(8)?;
            }
            BV_STR => {
                self.str()?;
            }
            BV_ARRAY => {
                for _ in 0..self.u32()? {
                    self.skip(depth + 1)?;
                }
            }
            BV_OBJECT => {
                for _ in 0..self.u32()? {
                    self.str()?;
                    self.skip(depth + 1)?;
                }
            }
            tag => return Err(format!("unknown bval tag 0x{tag:02x}")),
        }
        Ok(())
    }
}

/// Runs `read` over `bytes`, requiring it to consume them all.
fn bval_whole<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut BvalReader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut r = BvalReader::new(bytes);
    let v = read(&mut r)?;
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after bval value", r.remaining()));
    }
    Ok(v)
}

/// Decodes one bval value, requiring the input to be fully consumed.
pub fn bval_decode(bytes: &[u8]) -> Result<Json, String> {
    bval_whole(bytes, |r| r.value(0))
}

/// Checks that `bytes` hold exactly one well-formed bval value, refusing
/// precisely what [`bval_decode`] refuses, with the same message.
pub(crate) fn bval_validate(bytes: &[u8]) -> Result<(), String> {
    bval_whole(bytes, |r| r.skip(0))
}

impl Request {
    /// Encodes this request as a v2 frame payload (header + bval params).
    /// Fails only for verbs without an assigned v2 id.
    pub fn encode_v2(&self) -> Result<Vec<u8>, String> {
        let verb = Verb::from_name(&self.verb)
            .ok_or_else(|| format!("verb `{}` has no v2 id", self.verb))?;
        let mut out = Vec::with_capacity(V2_HEADER_LEN + 16);
        out.push(PROTOCOL_V2);
        out.push(verb as u8);
        out.push(if self.trace.is_some() {
            V2_FLAG_TRACE
        } else {
            0
        });
        out.push(0);
        out.extend_from_slice(&self.id.to_be_bytes());
        if let Some(t) = self.trace {
            out.extend_from_slice(&t.to_be_bytes());
        }
        bval_encode(&self.params, &mut out);
        Ok(out)
    }

    /// Parses a v2 frame payload into a request envelope. All validation
    /// (version byte, verb id, header length, params shape) happens
    /// against the borrowed slice before anything request-sized is
    /// allocated; the error string is safe to echo to the client.
    pub fn parse_v2(payload: &[u8]) -> Result<Request, String> {
        let head = V2Header::parse(payload)?;
        let params = if head.body.is_empty() {
            Json::Object(vec![])
        } else {
            match bval_decode(head.body)? {
                Json::Null => Json::Object(vec![]),
                obj @ Json::Object(_) => obj,
                other => {
                    return Err(format!(
                        "v2 params must be an object, got {}",
                        other.type_name()
                    ))
                }
            }
        };
        Ok(Request {
            id: head.id,
            verb: head.verb.name().to_string(),
            params,
            trace: head.trace,
        })
    }
}

/// A v2 request's fixed header, and the params bytes behind it.
pub(crate) struct V2Header<'a> {
    pub id: u64,
    pub verb: Verb,
    pub trace: Option<u64>,
    /// The bval params (empty when the frame carries none).
    pub body: &'a [u8],
}

impl<'a> V2Header<'a> {
    /// Validates the header (version byte, verb id, flags, trace id).
    pub(crate) fn parse(payload: &'a [u8]) -> Result<V2Header<'a>, String> {
        if payload.len() < V2_HEADER_LEN {
            return Err(format!(
                "v2 header needs {V2_HEADER_LEN} bytes, got {}",
                payload.len()
            ));
        }
        if payload[0] != PROTOCOL_V2 {
            return Err(format!(
                "unsupported protocol version {} (connection negotiated {PROTOCOL_V2})",
                payload[0]
            ));
        }
        let verb = Verb::from_id(payload[1])
            .ok_or_else(|| format!("unknown v2 verb id {}", payload[1]))?;
        let flags = payload[2];
        if flags & !V2_FLAG_TRACE != 0 {
            return Err(format!("unknown v2 flags 0x{flags:02x}"));
        }
        let id = u64::from_be_bytes(payload[4..12].try_into().expect("an 8-byte range"));
        let mut body = &payload[V2_HEADER_LEN..];
        let trace = if flags & V2_FLAG_TRACE != 0 {
            if body.len() < 8 {
                return Err("v2 header truncated before trace id".to_string());
            }
            let t = u64::from_be_bytes(body[..8].try_into().expect("an 8-byte range"));
            body = &body[8..];
            Some(t)
        } else {
            None
        };
        Ok(V2Header {
            id,
            verb,
            trace,
            body,
        })
    }
}

/// Encodes a response envelope (the same [`ok_response`]/[`err_response`]
/// shape v1 serializes as JSON) into a v2 frame payload: fixed header
/// with a status byte (`0` = ok, else [`ErrorKind::code`]), then the bval
/// result (ok) or bval error-message string (error). Malformed envelopes
/// degrade to an `internal` error frame rather than panicking a worker.
pub fn encode_response_v2(resp: &Json) -> Vec<u8> {
    let id = resp.get("id").and_then(Json::as_u64).unwrap_or(0);
    let ok = resp.get("ok").and_then(Json::as_bool).unwrap_or(false);
    let mut out = Vec::with_capacity(V2_HEADER_LEN + 16);
    out.push(PROTOCOL_V2);
    if ok {
        out.push(0);
        out.push(0);
        out.push(0);
        out.extend_from_slice(&id.to_be_bytes());
        bval_encode(resp.get("result").unwrap_or(&Json::Null), &mut out);
    } else {
        let kind = resp
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .and_then(ErrorKind::from_wire)
            .unwrap_or(ErrorKind::Internal);
        let message = resp
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("malformed error envelope");
        out.push(kind.code());
        out.push(0);
        out.push(0);
        out.extend_from_slice(&id.to_be_bytes());
        bval_encode(&Json::String(message.to_string()), &mut out);
    }
    out
}

/// Decodes a v2 response frame payload back into the v1-shaped envelope
/// (`{"id", "ok", "result"}` / `{"id", "ok", "error": {...}}`), so
/// clients can share one response-matching path across both protocols.
pub fn decode_response_v2(payload: &[u8]) -> Result<Json, String> {
    if payload.len() < V2_HEADER_LEN {
        return Err(format!(
            "v2 response header needs {V2_HEADER_LEN} bytes, got {}",
            payload.len()
        ));
    }
    if payload[0] != PROTOCOL_V2 {
        return Err(format!("unsupported response version {}", payload[0]));
    }
    let status = payload[1];
    let id = u64::from_be_bytes(payload[4..12].try_into().unwrap());
    let body = bval_decode(&payload[V2_HEADER_LEN..])?;
    if status == 0 {
        return Ok(ok_response(id, body));
    }
    let kind =
        ErrorKind::from_code(status).ok_or_else(|| format!("unknown v2 status code {status}"))?;
    let message = body.as_str().unwrap_or("").to_string();
    Ok(err_response(id, kind, &message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 5]);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"hello");
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_prefix_rejected_without_reading_body() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1_000_000u32).to_be_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::TooLarge(1_000_000))
        ));
    }

    #[test]
    fn truncated_payload_detected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(10u32).to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Truncated)));
        // Truncation inside the prefix itself.
        let short = [0u8, 0];
        assert!(matches!(
            read_frame(&mut &short[..], 64),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn request_roundtrip_and_version_check() {
        let req = Request {
            id: 9,
            verb: "attr".into(),
            params: Json::Object(vec![("obj".into(), Json::UInt(3))]),
            trace: None,
        };
        let bytes = serde_json::to_vec(&req.to_json()).unwrap();
        let back = Request::parse(&bytes).unwrap();
        assert_eq!(back.id, 9);
        assert_eq!(back.verb, "attr");
        assert_eq!(back.params.get("obj").and_then(Json::as_u64), Some(3));
        assert_eq!(back.trace, None);

        // A trace id survives the round trip; absent stays absent.
        let traced = Request {
            trace: Some(777),
            ..req
        };
        let bytes = serde_json::to_vec(&traced.to_json()).unwrap();
        assert_eq!(Request::parse(&bytes).unwrap().trace, Some(777));

        let bad = br#"{"v": 99, "id": 1, "verb": "ping"}"#;
        let err = Request::parse(bad).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        assert!(Request::parse(b"not json").is_err());
        assert!(Request::parse(br#"{"v": 1, "id": 1}"#).is_err());
    }

    #[test]
    fn response_shapes() {
        let ok = ok_response(4, Json::String("pong".into()));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("id").and_then(Json::as_u64), Some(4));
        let err = err_response(4, ErrorKind::Overloaded, "queue full");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
    }

    #[test]
    fn timeout_and_would_block_are_distinct() {
        let wb = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "no data"));
        let to = FrameError::Io(io::Error::new(io::ErrorKind::TimedOut, "idle"));
        assert!(wb.is_would_block() && !wb.is_timeout());
        assert!(to.is_timeout() && !to.is_would_block());
        assert!(!FrameError::Closed.is_timeout());
        assert!(!FrameError::Closed.is_would_block());
    }

    #[test]
    fn write_frame_is_a_single_write_call() {
        // A writer that counts write() calls: the prefix and payload must
        // arrive coalesced (one syscall on a real socket).
        struct Counting {
            calls: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.calls += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting {
            calls: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, b"payload").unwrap();
        assert_eq!(w.calls, 1, "prefix and payload must be one write");
        assert_eq!(&w.bytes[..4], &[0, 0, 0, 7]);
        assert_eq!(&w.bytes[4..], b"payload");
    }

    /// The wire pin: every verb's v2 id, written out literally so a
    /// reordered or renumbered table fails here.
    #[test]
    fn verb_ids_are_stable_and_bijective() {
        let pinned: [(&str, u8); 22] = [
            ("ping", 1),
            ("session", 2),
            ("create", 3),
            ("attr", 4),
            ("set_attr", 5),
            ("bind", 6),
            ("unbind", 7),
            ("select", 8),
            ("check_all", 9),
            ("effective", 10),
            ("explain", 11),
            ("stats", 12),
            ("metrics", 13),
            ("flight", 14),
            ("batch", 15),
            ("shutdown", 16),
            ("telemetry", 17),
            ("watch", 18),
            ("begin", 19),
            ("commit", 20),
            ("abort", 21),
            ("boom", 0xF0),
        ];
        assert_eq!(Verb::ALL.len(), pinned.len());
        for (name, id) in pinned {
            let v = Verb::from_name(name).unwrap_or_else(|| panic!("no verb {name}"));
            assert_eq!(v as u8, id, "{name}");
            assert_eq!(Verb::from_id(id), Some(v));
            assert_eq!(v.name(), name);
        }
        for (i, v) in Verb::PUBLIC.iter().enumerate() {
            assert_eq!(*v as usize, i + 1, "{v:?}");
        }
        assert!(!Verb::PUBLIC.contains(&Verb::Boom));
        assert_eq!(Verb::from_name("no_such_verb"), None);
        assert_eq!(Verb::from_id(0), None);
        assert_eq!(Verb::from_id(99), None);
    }

    #[test]
    fn bval_roundtrips_every_shape() {
        let v = Json::Object(vec![
            ("null".into(), Json::Null),
            ("t".into(), Json::Bool(true)),
            ("f".into(), Json::Bool(false)),
            ("neg".into(), Json::Int(-42)),
            ("big".into(), Json::UInt(u64::MAX)),
            ("pi".into(), Json::Float(3.25)),
            ("s".into(), Json::String("héllo\n".into())),
            (
                "arr".into(),
                Json::Array(vec![Json::Int(1), Json::String("x".into()), Json::Null]),
            ),
            (
                "nested".into(),
                Json::Object(vec![("k".into(), Json::Array(vec![]))]),
            ),
        ]);
        let mut buf = Vec::new();
        bval_encode(&v, &mut buf);
        assert_eq!(bval_decode(&buf).unwrap(), v);
    }

    /// Each hostile input is refused by the tree decoder and, with the
    /// same message, by the in-place params view the server reads.
    #[test]
    fn bval_rejects_hostile_input_without_huge_allocation() {
        let refuse = |buf: &[u8]| -> String {
            let err = bval_decode(buf).unwrap_err();
            assert_eq!(
                crate::params::Params::validate_bval(buf).unwrap_err(),
                err,
                "{buf:02x?}"
            );
            err
        };

        // Array claiming u32::MAX elements with no bytes behind it.
        let mut buf = vec![BV_ARRAY];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(refuse(&buf).contains("truncated"));

        // Object claiming a huge pair count.
        let mut buf = vec![BV_OBJECT];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        refuse(&buf);

        // String length running past the end.
        let mut buf = vec![BV_STR];
        buf.extend_from_slice(&1_000_000u32.to_be_bytes());
        buf.push(b'x');
        refuse(&buf);

        // Nesting bomb: deeper than BV_MAX_DEPTH arrays of one element.
        let mut buf = Vec::new();
        for _ in 0..(BV_MAX_DEPTH + 2) {
            buf.push(BV_ARRAY);
            buf.extend_from_slice(&1u32.to_be_bytes());
        }
        buf.push(BV_NULL);
        assert!(refuse(&buf).contains("deep"));

        // Unknown tag and trailing garbage.
        assert!(refuse(&[0x7F]).contains("tag"));
        assert!(refuse(&[BV_NULL, BV_NULL]).contains("trailing"));
        // (Empty input is a missing value to the decoder, `{}` to a
        // frame's params.)
        assert!(bval_decode(&[]).is_err());
    }

    #[test]
    fn v2_request_roundtrip() {
        let req = Request {
            id: 0xDEAD_BEEF_u64,
            verb: "set_attr".into(),
            params: Json::Object(vec![
                ("obj".into(), Json::UInt(3)),
                ("name".into(), Json::String("X".into())),
                (
                    "value".into(),
                    Json::Object(vec![("Int".into(), Json::Int(12))]),
                ),
            ]),
            trace: None,
        };
        let payload = req.encode_v2().unwrap();
        assert_eq!(payload[0], PROTOCOL_V2);
        assert_eq!(payload[1], Verb::SetAttr as u8);
        let back = Request::parse_v2(&payload).unwrap();
        assert_eq!(back.id, req.id);
        assert_eq!(back.verb, "set_attr");
        assert_eq!(back.params, req.params);
        assert_eq!(back.trace, None);

        // Trace id flag + extension bytes.
        let traced = Request {
            trace: Some(0x1234_5678),
            ..req
        };
        let payload = traced.encode_v2().unwrap();
        assert_eq!(payload[2] & V2_FLAG_TRACE, V2_FLAG_TRACE);
        assert_eq!(
            Request::parse_v2(&payload).unwrap().trace,
            Some(0x1234_5678)
        );
    }

    #[test]
    fn v2_request_rejects_malformed_headers() {
        // Too short for the fixed header.
        assert!(Request::parse_v2(&[PROTOCOL_V2, 1, 0]).is_err());
        // Wrong version byte.
        let mut p = Request {
            id: 1,
            verb: "ping".into(),
            params: Json::Object(vec![]),
            trace: None,
        }
        .encode_v2()
        .unwrap();
        p[0] = 9;
        assert!(Request::parse_v2(&p).unwrap_err().contains("version 9"));
        // Unknown verb id.
        p[0] = PROTOCOL_V2;
        p[1] = 0xEE;
        assert!(Request::parse_v2(&p).unwrap_err().contains("verb id"));
        // Unknown flag bits.
        p[1] = 1;
        p[2] = 0x80;
        assert!(Request::parse_v2(&p).unwrap_err().contains("flags"));
        // Trace flag set but no trace bytes.
        let mut short = vec![PROTOCOL_V2, 1, V2_FLAG_TRACE, 0];
        short.extend_from_slice(&7u64.to_be_bytes());
        assert!(Request::parse_v2(&short).unwrap_err().contains("trace"));
        // Params must be an object.
        let mut bad = vec![PROTOCOL_V2, 1, 0, 0];
        bad.extend_from_slice(&7u64.to_be_bytes());
        bad.push(BV_INT);
        bad.extend_from_slice(&5i64.to_be_bytes());
        assert!(Request::parse_v2(&bad).unwrap_err().contains("object"));
    }

    #[test]
    fn v2_response_roundtrip_both_outcomes() {
        let ok = ok_response(42, Json::Array(vec![Json::UInt(1), Json::UInt(2)]));
        let payload = encode_response_v2(&ok);
        assert_eq!(payload[1], 0);
        assert_eq!(decode_response_v2(&payload).unwrap(), ok);

        let err = err_response(43, ErrorKind::Overloaded, "queue full");
        let payload = encode_response_v2(&err);
        assert_eq!(payload[1], ErrorKind::Overloaded.code());
        assert_eq!(decode_response_v2(&payload).unwrap(), err);

        // Every kind survives the code round trip.
        for kind in [
            ErrorKind::Protocol,
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::Shutdown,
            ErrorKind::Core,
            ErrorKind::Internal,
            ErrorKind::Conflict,
        ] {
            assert_eq!(ErrorKind::from_code(kind.code()), Some(kind));
            assert_eq!(ErrorKind::from_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_code(0), None);
        assert_eq!(ErrorKind::from_code(200), None);
    }

    #[test]
    fn hello_magic_cannot_be_a_v1_prefix() {
        // Any valid v1 frame's first prefix byte is 0x00 (cap is 1 MiB),
        // so 0xCC unambiguously marks the v2 hello.
        const { assert!(MAX_FRAME_BYTES < (1 << 24)) };
        assert_eq!(HELLO_V2[0], 0xCC);
        assert_eq!(HELLO_V2[2], PROTOCOL_V2);
    }
}
