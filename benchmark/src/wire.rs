//! One v2 connection to the server, driven in a closed loop: the next
//! request is sent only after the previous reply has been decoded (a design
//! tool waits for each answer). It sends and receives raw frames through the
//! crate's own `Client`, and encodes and decodes them with the public codec
//! itself, so that frame bytes can be counted and, in the traced run, spans
//! put around client encode, send->receive and decode.

use std::net::SocketAddr;
use std::time::Instant;

use ccdb_server::proto::decode_response_v2;
use ccdb_server::{Client, Request};
use serde_json::Value as Json;

use crate::ops::Transport;
use crate::trace::Tracer;

/// Length prefix of a frame.
const PREFIX: u64 = 4;

pub struct Wire {
    client: Client,
    next_id: u64,
    last_rtt_ns: u64,
    /// Request and response frame bytes, length prefixes included.
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub requests: u64,
    /// `Some` in the traced pass only.
    pub tracer: Option<Tracer>,
}

impl Wire {
    /// Connects and negotiates the v2 binary dialect.
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        Ok(Wire {
            client: Client::connect_v2(addr).map_err(|e| format!("connect: {e}"))?,
            next_id: 1,
            last_rtt_ns: 0,
            bytes_out: 0,
            bytes_in: 0,
            requests: 0,
            tracer: None,
        })
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Wire) -> R) -> R {
        let id = self.tracer.as_mut().map(|t| t.open(name));
        let out = f(self);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.close(id);
        }
        out
    }

    fn exchange(&mut self, verb: &'static str, params: Json) -> Result<Json, String> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = self.span("client.encode", |_| {
            Request {
                id,
                verb: verb.into(),
                params,
                trace: None,
            }
            .encode_v2()
        })?;
        let reply = self.span("client.wire", |w| {
            w.client
                .send_raw(&payload)
                .map_err(|e| format!("{verb}: send: {e}"))?;
            w.client
                .recv_raw()
                .map_err(|e| format!("{verb}: receive: {e}"))
        })?;
        self.bytes_out += PREFIX + payload.len() as u64;
        self.bytes_in += PREFIX + reply.len() as u64;
        self.requests += 1;
        let envelope = self.span("client.decode", |_| decode_response_v2(&reply))?;
        if envelope.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(format!("{verb}: reply does not carry request id {id}"));
        }
        match envelope.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(envelope.get("result").cloned().unwrap_or(Json::Null)),
            _ => Err(format!(
                "{verb}: error reply {}",
                envelope
                    .get("error")
                    .map_or_else(String::new, Json::to_json_string)
            )),
        }
    }
}

impl Transport for Wire {
    fn call(&mut self, verb: &'static str, params: Json) -> Result<Json, String> {
        let t0 = Instant::now();
        let out = self.span("client.call", |w| w.exchange(verb, params));
        self.last_rtt_ns = t0.elapsed().as_nanos() as u64;
        out
    }

    fn last_rtt_ns(&self) -> u64 {
        self.last_rtt_ns
    }
}
