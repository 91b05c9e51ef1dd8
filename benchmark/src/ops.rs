//! The four workloads: seeded op streams, and the execution of one logical
//! op over any [`Transport`] with every answer checked against the
//! [`Model`]. The program under test sees only the generated requests.

use ccdb_core::{Surrogate, Value};
use serde_json::Value as Json;

use crate::corpus::Model;
use crate::rng::Rng;

/// Objects `hot_read` cycles over: small enough that every read after the
/// warm-up is a resolution-cache hit.
pub const HOT_SET: usize = 1024;
/// Read-backs after `propagate`'s write, and in-transaction reads of
/// `txn_checkout`.
pub const READS_PER_OP: usize = 4;
/// `extent_scan` selects the interfaces of a half-open `A1` range this wide...
pub const SCAN_IFS: i64 = 2;
/// ...and of their `Mid`s those with `M` below this: 10 hits on `cad_110k`.
pub const SCAN_M_BELOW: i64 = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ExtentScan,
    Propagate,
    TxnCheckout,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotRead,
        Workload::ExtentScan,
        Workload::Propagate,
        Workload::TxnCheckout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ExtentScan => "extent_scan",
            Workload::Propagate => "propagate",
            Workload::TxnCheckout => "txn_checkout",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Logical ops per measurement window: a fixed count, sized so that a
    /// window is about 40 ms on the reference box. Fixed counts (not fixed
    /// durations) make every window the same work, so the fastest windows
    /// are the undisturbed ones.
    pub fn ops_per_window(self) -> usize {
        match self {
            Workload::HotRead => 3200,
            Workload::ExtentScan => 10,
            Workload::Propagate => 16,
            Workload::TxnCheckout => 24,
        }
    }
}

/// One logical op. Indices are level-local (see [`Model`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `attr(Comp, "A0")` on a hot object.
    HotRead { comp: usize },
    /// `select Mid where A1 >= lo and A1 < lo + SCAN_IFS and M < SCAN_M_BELOW`.
    ExtentScan { lo: i64 },
    /// `set_attr(If, "A0", value)`, then `A0` read back through two hops on
    /// each of `readers`.
    Propagate {
        iface: usize,
        value: i64,
        readers: [usize; READS_PER_OP],
    },
    /// `begin`; `attr(Comp, "A2")` on `reads`; `set_attr(Mid, "M", value)`;
    /// `commit`; then `M` read back on `reads[0]` outside the transaction.
    TxnCheckout {
        mid: usize,
        value: i64,
        reads: Vec<usize>,
    },
}

/// The seeded, endless op stream of one workload.
#[derive(Clone)]
pub struct Stream {
    workload: Workload,
    rng: Rng,
    hot: Vec<usize>,
    /// `extent_scan` draws its range starts from a shuffled cycle of all of
    /// them, not independently: the predicate short-circuits on `A1 >= lo`,
    /// so an op's cost depends on `lo`, and a cycle keeps every run's mix of
    /// costs the same to a fraction of a percent.
    los: Vec<i64>,
    next_lo: usize,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, model: &Model) -> Stream {
        let mut rng = Rng::new(seed.wrapping_mul(0x1000_0000_01B3) ^ workload as u64);
        let mut comps: Vec<usize> = (0..model.shape.comps()).collect();
        rng.shuffle(&mut comps);
        comps.truncate(HOT_SET);
        let mut los: Vec<i64> = (0..(model.shape.ifs as i64 - SCAN_IFS + 1).max(1)).collect();
        rng.shuffle(&mut los);
        Stream {
            workload,
            rng,
            hot: comps,
            los,
            next_lo: 0,
        }
    }

    pub fn next_op(&mut self, model: &Model) -> Op {
        let shape = model.shape;
        let rng = &mut self.rng;
        match self.workload {
            Workload::HotRead => Op::HotRead {
                comp: self.hot[rng.index(self.hot.len())],
            },
            Workload::ExtentScan => {
                let lo = self.los[self.next_lo];
                self.next_lo = (self.next_lo + 1) % self.los.len();
                Op::ExtentScan { lo }
            }
            Workload::Propagate => {
                let iface = rng.index(shape.ifs);
                let under = shape.mids_per_if * shape.comps_per_mid;
                let first = model.first_comp_of_mid(model.first_mid_of_if(iface));
                // Distinct inheritors: a stride walk from a random start.
                let start = rng.index(under);
                let stride = under / READS_PER_OP;
                let mut readers = [0; READS_PER_OP];
                for (j, r) in readers.iter_mut().enumerate() {
                    *r = first + (start + j * stride.max(1)) % under;
                }
                Op::Propagate {
                    iface,
                    value: rng.below(1_000_000),
                    readers,
                }
            }
            Workload::TxnCheckout => {
                let mid = rng.index(shape.mids());
                let first = model.first_comp_of_mid(mid);
                let start = rng.index(shape.comps_per_mid);
                let reads = (0..READS_PER_OP.min(shape.comps_per_mid))
                    .map(|j| first + (start + j) % shape.comps_per_mid)
                    .collect();
                Op::TxnCheckout {
                    mid,
                    value: rng.below(10),
                    reads,
                }
            }
        }
    }
}

/// One request/response exchange with the program: the wire, or the
/// in-process replay of the same layers.
pub trait Transport {
    /// Sends `verb(params)` and returns the reply's result. `Err` is a
    /// transport error, an error reply or an unreadable answer.
    fn call(&mut self, verb: &'static str, params: Json) -> Result<Json, String>;
    /// How long the last `call` took, as its caller saw it.
    fn last_rtt_ns(&self) -> u64;
}

pub fn attr_params(obj: Surrogate, name: &str) -> Json {
    Json::Object(vec![
        ("obj".into(), Json::UInt(obj.0)),
        ("name".into(), Json::String(name.into())),
    ])
}

pub fn set_attr_params(obj: Surrogate, name: &str, value: i64) -> Json {
    Json::Object(vec![
        ("obj".into(), Json::UInt(obj.0)),
        ("name".into(), Json::String(name.into())),
        ("value".into(), serde_json::to_value(&Value::Int(value))),
    ])
}

pub fn select_params(ty: &str, where_src: &str) -> Json {
    Json::Object(vec![
        ("type".into(), Json::String(ty.into())),
        ("where".into(), Json::String(where_src.into())),
    ])
}

pub fn scan_where(lo: i64) -> String {
    format!(
        "A1 >= {lo} and A1 < {} and M < {SCAN_M_BELOW}",
        lo + SCAN_IFS
    )
}

fn read_int(tp: &mut impl Transport, obj: Surrogate, name: &str, want: i64) -> Result<(), String> {
    let got = tp.call("attr", attr_params(obj, name))?;
    if got == serde_json::to_value(&Value::Int(want)) {
        Ok(())
    } else {
        Err(format!(
            "attr({obj}, {name}) = {}, want Int({want})",
            got.to_json_string()
        ))
    }
}

/// Executes one logical op, checking every answer, and returns the round
/// trip of its primary request; `Err` says why the op failed. The model is
/// advanced by exactly the writes the program acknowledged.
pub fn execute(op: &Op, model: &mut Model, tp: &mut impl Transport) -> Result<u64, String> {
    match op {
        Op::HotRead { comp } => {
            let want = model.a[model.if_of_comp(*comp)][0];
            read_int(tp, model.comp_ids[*comp], "A0", want)?;
            Ok(tp.last_rtt_ns())
        }
        Op::ExtentScan { lo } => {
            let got = tp.call("select", select_params("Mid", &scan_where(*lo)))?;
            let rtt = tp.last_rtt_ns();
            // Cardinality and membership, in the store's surrogate order.
            let want = model.select_mids(*lo, lo + SCAN_IFS, SCAN_M_BELOW);
            let got: Option<Vec<Surrogate>> = got.as_array().map(|items| {
                items
                    .iter()
                    .filter_map(Json::as_u64)
                    .map(Surrogate)
                    .collect()
            });
            if got.as_ref() != Some(&want) {
                return Err(format!(
                    "select lo={lo}: got {:?}, want {} hits {want:?}",
                    got,
                    want.len()
                ));
            }
            Ok(rtt)
        }
        Op::Propagate {
            iface,
            value,
            readers,
        } => {
            tp.call(
                "set_attr",
                set_attr_params(model.if_ids[*iface], "A0", *value),
            )?;
            let rtt = tp.last_rtt_ns();
            model.a[*iface][0] = *value;
            // The paper's instant visibility: every two-hop inheritor must
            // already see the transmitter's new value.
            for comp in readers {
                read_int(tp, model.comp_ids[*comp], "A0", *value)?;
            }
            Ok(rtt)
        }
        Op::TxnCheckout { mid, value, reads } => {
            tp.call("begin", Json::Object(vec![]))?;
            let in_txn = (|| {
                let a2 = model.a[model.if_of_mid(*mid)][2];
                for comp in reads {
                    read_int(tp, model.comp_ids[*comp], "A2", a2)?;
                }
                tp.call(
                    "set_attr",
                    set_attr_params(model.mid_ids[*mid], "M", *value),
                )?;
                let done = tp.call("commit", Json::Object(vec![]))?;
                let rtt = tp.last_rtt_ns();
                if done.get("writes").and_then(Json::as_u64) != Some(1) {
                    return Err(format!("commit replied {}", done.to_json_string()));
                }
                Ok(rtt)
            })();
            let rtt = match in_txn {
                Ok(rtt) => rtt,
                Err(why) => {
                    // Leave no transaction open behind a failed op (a
                    // conflict reply has already aborted it server-side).
                    let _ = tp.call("abort", Json::Object(vec![]));
                    return Err(why);
                }
            };
            model.m[*mid] = *value;
            read_int(tp, model.comp_ids[reads[0]], "M", *value)?;
            Ok(rtt)
        }
    }
}
