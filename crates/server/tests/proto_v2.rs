//! Wire protocol v2 integration tests: negotiation, dialect coexistence
//! on one server, a v1-pinned server refusing the hello cleanly, hostile
//! v2 frames, and the poll-based reader's many-idle-sessions guarantee.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ccdb_core::Value;
use ccdb_server::{Client, ClientError, ServerConfig, HELLO_V2};
use serde_json::Value as Json;

/// v1 and v2 clients interleave requests on the same server and the same
/// shared state; responses stay matched to the dialect that asked.
#[test]
fn v1_and_v2_clients_interleave_on_one_server() {
    let server = common::start_default();
    let addr = server.local_addr();

    let mut v1 = Client::connect(addr).unwrap();
    let mut v2 = Client::connect_v2(addr).unwrap();
    assert_eq!(v1.proto(), 1);
    assert_eq!(v2.proto(), 2);
    v1.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    v2.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // A write made through one dialect is read back through the other.
    let interface = v2.create("If", &[("X", Value::Int(1))]).unwrap();
    let imp = v1.create("Impl", &[]).unwrap();
    v1.bind("AllOf_If", interface, imp).unwrap();
    for round in 0..20i64 {
        if round % 2 == 0 {
            v1.set_attr(interface, "X", Value::Int(round)).unwrap();
            assert_eq!(v2.attr(imp, "X").unwrap(), Value::Int(round));
        } else {
            v2.set_attr(interface, "X", Value::Int(round)).unwrap();
            assert_eq!(v1.attr(imp, "X").unwrap(), Value::Int(round));
        }
    }

    // Both sessions are visible with their negotiated dialect.
    let info = v2.session().unwrap();
    assert_eq!(info.get("proto").and_then(Json::as_u64), Some(2));
    let info = v1.session().unwrap();
    assert_eq!(info.get("proto").and_then(Json::as_u64), Some(1));
    server.shutdown();
}

/// Errors and the whole verb surface keep working over v2: unknown verb,
/// bad params, batch, and an explain tree survive the binary encoding.
#[test]
fn v2_carries_errors_batches_and_structured_results() {
    let server = common::start_default();
    let addr = server.local_addr();
    let mut c = Client::connect_v2(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let interface = c.create("If", &[("X", Value::Int(7))]).unwrap();
    let imp = c.create("Impl", &[]).unwrap();
    c.bind("AllOf_If", interface, imp).unwrap();

    // Server-side error arrives as a typed error, not a transport fault.
    match c.attr(imp, "NoSuchAttr") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "core"),
        other => panic!("expected server error over v2, got {other:?}"),
    }

    // A batch frame round-trips sub-responses in order.
    let subs: Vec<(&str, Json)> = (0..5)
        .map(|_| {
            (
                "attr",
                Json::Object(vec![
                    ("obj".into(), Json::UInt(imp.0)),
                    ("name".into(), Json::String("X".into())),
                ]),
            )
        })
        .collect();
    let results = c.batch(subs).unwrap();
    assert_eq!(results.len(), 5);
    for slot in results {
        slot.unwrap();
    }

    // Structured (nested) result payloads survive the value encoding.
    let tree = c.explain("Impl", "X").unwrap();
    assert!(
        tree.get("hops")
            .and_then(Json::as_array)
            .is_some_and(|h| !h.is_empty()),
        "explain tree over v2: {tree:?}"
    );

    // Trace ids ride the v2 header flag and come back in the flight
    // recorder, same as over v1.
    c.set_trace(Some(0xDEAD_BEEF));
    c.ping().unwrap();
    c.set_trace(None);
    server.shutdown();
}

/// A server pinned to v1 answers the v2 hello with a clean, framed v1
/// `protocol` error and closes; a v1 client on the same server is fine.
#[test]
fn v1_pinned_server_rejects_the_hello_cleanly() {
    let server = common::start(ServerConfig {
        max_proto: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    match Client::connect_v2(addr) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, "protocol");
            assert!(
                message.contains("pinned"),
                "error should say the server is pinned: {message}"
            );
        }
        Err(other) => panic!("expected protocol error from pinned server, got {other}"),
        Ok(_) => panic!("pinned server must not accept the v2 hello"),
    }

    // The fallback constructor lands on v1 and works.
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.ping().unwrap();
    server.shutdown();
}

/// Raw byte-level abuse of the v2 framing: truncated headers, hostile
/// element counts, and bad magic must be refused without the server
/// allocating for the claimed sizes or falling over.
#[test]
fn hostile_v2_frames_are_refused_without_allocation() {
    let server = common::start(ServerConfig {
        max_frame_bytes: 1 << 20,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let hello = |s: &mut TcpStream| {
        s.write_all(&HELLO_V2).unwrap();
        let mut ack = [0u8; 4];
        s.read_exact(&mut ack).unwrap();
        assert_eq!(ack, HELLO_V2);
    };
    let alive = |addr| {
        let mut c = Client::connect_v2(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.ping().expect("server still serves v2 after abuse");
    };

    // Bad hello magic (0xCC prefix but wrong tail): refused, closed.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&[0xCC, 0xDB, 0xFF, 0xFF]).unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf); // server answers an error then closes
    }
    alive(addr);

    // Truncated v2 header: a framed payload shorter than the fixed
    // header. Parse error is reported on the session, which survives.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        hello(&mut s);
        let payload = [2u8, 1, 0]; // 3 bytes < 12-byte header
        s.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
        s.write_all(&payload).unwrap();
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut resp = vec![0u8; u32::from_be_bytes(len) as usize];
        s.read_exact(&mut resp).unwrap();
        // Error status byte, not an ok: kind slot carries a nonzero code.
        assert_eq!(resp[0], 2, "v2 response version byte");
        assert_ne!(resp[1], 0, "truncated header must be an error");
    }
    alive(addr);

    // Hostile element count: an array claiming u32::MAX elements inside
    // a tiny frame. The decoder must reject it from the *available
    // bytes*, instantly, instead of reserving gigabytes.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        hello(&mut s);
        let mut payload = vec![2u8, 15, 0, 0]; // version, verb id (batch), flags, reserved
        payload.extend_from_slice(&1u64.to_be_bytes()); // request id
        payload.push(0x08); // object tag
        payload.extend_from_slice(&u32::MAX.to_be_bytes()); // hostile count
        s.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
        s.write_all(&payload).unwrap();
        let started = std::time::Instant::now();
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut resp = vec![0u8; u32::from_be_bytes(len) as usize];
        s.read_exact(&mut resp).unwrap();
        assert_ne!(resp[1], 0, "hostile count must be an error");
        assert_eq!(
            u64::from_be_bytes(resp[4..12].try_into().unwrap()),
            1,
            "the refusal answers the request id that was sent"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "refusal must be immediate, not an allocation stall"
        );
    }
    alive(addr);

    // Malformed params behind a well-formed header — a non-object, a
    // truncated body, a bad tag — are `protocol` errors answered with the
    // header's id, so a pipelining client can match them; the session
    // survives each one.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        hello(&mut s);
        let bodies: [&[u8]; 3] = [
            &[0x03, 0, 0, 0, 0, 0, 0, 0, 5],  // the integer 5
            &[0x06, 0, 0, 0, 10, b'a', b'b'], // a string cut short
            &[0x7F],                          // no such tag
        ];
        for (id, body) in (100u64..).zip(bodies) {
            let mut payload = vec![2u8, 4, 0, 0]; // attr
            payload.extend_from_slice(&id.to_be_bytes());
            payload.extend_from_slice(body);
            s.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
            s.write_all(&payload).unwrap();
            let mut len = [0u8; 4];
            s.read_exact(&mut len).unwrap();
            let mut resp = vec![0u8; u32::from_be_bytes(len) as usize];
            s.read_exact(&mut resp).unwrap();
            assert_eq!(resp[1], 1, "protocol status for {body:02x?}");
            assert_eq!(u64::from_be_bytes(resp[4..12].try_into().unwrap()), id);
        }
    }
    alive(addr);

    // A v1 JSON frame sent after negotiating v2 is a parse error on the
    // v2 session, answered in v2 framing, and the session survives.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        hello(&mut s);
        let json = br#"{"v":1,"id":1,"verb":"ping"}"#;
        s.write_all(&(json.len() as u32).to_be_bytes()).unwrap();
        s.write_all(json).unwrap();
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut resp = vec![0u8; u32::from_be_bytes(len) as usize];
        s.read_exact(&mut resp).unwrap();
        assert_ne!(resp[1], 0, "JSON on a v2 session must be an error");
    }
    alive(addr);
    server.shutdown();
}

/// Sends one raw frame on a fresh session (after the hello when
/// `hello`) and returns the reply payload.
fn raw_exchange(addr: std::net::SocketAddr, hello: bool, payload: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    if hello {
        s.write_all(&HELLO_V2).unwrap();
        let mut ack = [0u8; 4];
        s.read_exact(&mut ack).unwrap();
    }
    s.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
    s.write_all(payload).unwrap();
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    let mut resp = vec![0u8; u32::from_be_bytes(len) as usize];
    s.read_exact(&mut resp).unwrap();
    resp
}

/// v1 applies the rule v2 always had: params that are neither an object
/// nor `null` are a `protocol` error ("params must be an object"), not a
/// request that later misses its parameters. `null` reads as `{}`.
#[test]
fn v1_refuses_non_object_params_as_a_protocol_error() {
    let server = common::start_default();
    let addr = server.local_addr();
    for params in ["[1]", "5", r#""obj""#] {
        let frame = format!(r#"{{"v":1,"id":5,"verb":"attr","params":{params}}}"#);
        let resp: Json =
            serde_json::from_slice(&raw_exchange(addr, false, frame.as_bytes())).unwrap();
        assert_eq!(resp["id"].as_u64(), Some(5), "{resp}");
        assert_eq!(resp["ok"].as_bool(), Some(false), "{resp}");
        assert_eq!(resp["error"]["kind"], "protocol", "{resp}");
        let msg = resp["error"]["message"].as_str().unwrap();
        assert!(msg.starts_with("params must be an object"), "{msg}");
    }
    let frame = br#"{"v":1,"id":6,"verb":"ping","params":null}"#;
    let resp: Json = serde_json::from_slice(&raw_exchange(addr, false, frame)).unwrap();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    server.shutdown();
}

/// The same inputs over v2 get the same answer: `protocol`, the same
/// message, the request's id; `null` params read as `{}`.
#[test]
fn v2_refuses_non_object_params_as_v1_does() {
    let server = common::start_default();
    let addr = server.local_addr();
    let bodies: [(&[u8], &str); 3] = [
        (&[0x07, 0, 0, 0, 1, 0x03, 0, 0, 0, 0, 0, 0, 0, 1], "array"),
        (&[0x03, 0, 0, 0, 0, 0, 0, 0, 5], "integer"),
        (&[0x06, 0, 0, 0, 3, b'o', b'b', b'j'], "string"),
    ];
    for (body, ty) in bodies {
        let mut payload = vec![2u8, 4, 0, 0]; // attr
        payload.extend_from_slice(&5u64.to_be_bytes());
        payload.extend_from_slice(body);
        let resp = raw_exchange(addr, true, &payload);
        assert_eq!(resp[1], 1, "protocol status");
        assert_eq!(u64::from_be_bytes(resp[4..12].try_into().unwrap()), 5);
        let mut msg = b"\x06".to_vec();
        let text = format!("params must be an object, got {ty}");
        msg.extend_from_slice(&(text.len() as u32).to_be_bytes());
        msg.extend_from_slice(text.as_bytes());
        assert_eq!(resp[12..], msg[..]);
    }
    let mut payload = vec![2u8, 1, 0, 0]; // ping
    payload.extend_from_slice(&6u64.to_be_bytes());
    payload.push(0x00); // null params
    assert_eq!(raw_exchange(addr, true, &payload)[1], 0);
    server.shutdown();
}

/// The poll-based reader's core promise: parking hundreds of idle
/// sessions adds zero OS threads, and the server stays responsive.
#[test]
fn many_idle_sessions_cost_no_threads() {
    let server = common::start(ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let threads = || -> Option<u64> {
        let text = std::fs::read_to_string("/proc/self/status").ok()?;
        text.lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
    };

    let before = threads();
    let mut parked = Vec::new();
    for _ in 0..300 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&HELLO_V2).unwrap();
        let mut ack = [0u8; 4];
        s.read_exact(&mut ack).unwrap();
        parked.push(s);
    }
    let after = threads();

    if let (Some(b), Some(a)) = (before, after) {
        assert!(
            a.saturating_sub(b) < 32,
            "300 idle sessions must not spawn reader threads ({b} -> {a})"
        );
    }

    // Still promptly serving both dialects under the parked crowd.
    let mut c = Client::connect_v2(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.ping().unwrap();
    let mut c1 = Client::connect(addr).unwrap();
    c1.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c1.ping().unwrap();
    drop(parked);
    server.shutdown();
}
