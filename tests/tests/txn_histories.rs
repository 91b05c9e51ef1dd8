//! Seeded, thread-free interleavings of transactional sessions, judged by
//! a history checker.
//!
//! A seed expands into a step list: four logical sessions — three wire
//! sessions on a [`TxnRegistry`] (pessimistic) and one long design
//! check-out on a [`TxnManager`] (optimistic) — step through begin / read /
//! write / commit / abort, interleaved with plain non-transactional writes,
//! against one [`SharedStore`]. Nothing ever waits: the lock manager runs
//! with a zero timeout, so a step that would block is an observable
//! `Blocked` outcome (which, by 2PL, kills that wire transaction), and
//! after every step the harness probes the transmitter's permeable item
//! with [`LockManager::try_acquire`].
//!
//! The run is recorded as a [`History`] and [`check`] asserts over it:
//!
//! (a) every read returned the begin-snapshot value or the transaction's
//!     own write — no dirty and no non-repeatable reads;
//! (b) no two committed transactions (plain writes count as one-step
//!     transactions) with overlapping lifetimes wrote the same
//!     `(object, attr)` — first committer wins;
//! (c) while a live transaction holds the *inherited* S lock on a
//!     transmitter item, no other transaction's X on it is granted —
//!     neither to a session's write nor to the probe;
//! (d) after the last step the published store equals a serial replay of
//!     the committed logs in commit order.
//!
//! A failing case prints its seed and step list; `replay(seed)` re-runs
//! exactly that schedule. The checker is itself tested against fabricated
//! bad histories, so a green run is not vacuous.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use ccdb_core::domain::Domain;
use ccdb_core::schema::{AttrDef, Catalog, InherRelTypeDef, ObjectTypeDef};
use ccdb_core::shared::SharedStore;
use ccdb_core::store::ObjectStore;
use ccdb_core::{Surrogate, Value};
use ccdb_txn::{
    LockManager, LockMode, Resource, SessionError, Txn, TxnError, TxnId, TxnManager, TxnRegistry,
};
use proptest::prelude::*;
use proptest::TestRng;

const WIRE_SESSIONS: usize = 3;
const DESIGNER: usize = WIRE_SESSIONS;
const STEPS: usize = 48;
const PROBE: TxnId = TxnId(u64::MAX);

type Item = (Surrogate, &'static str);

/// One transmitter (`X` permeable, `Y` not) feeding two inheritors.
fn fixture() -> (ObjectStore, Vec<Item>, Vec<Item>) {
    let mut c = Catalog::new();
    c.register_object_type(ObjectTypeDef {
        name: "If".into(),
        attributes: vec![
            AttrDef::new("X", Domain::Int),
            AttrDef::new("Y", Domain::Int),
        ],
        ..Default::default()
    })
    .unwrap();
    c.register_inher_rel_type(InherRelTypeDef {
        name: "AllOf_If".into(),
        transmitter_type: "If".into(),
        inheritor_type: None,
        inheriting: vec!["X".into()],
        attributes: vec![],
        constraints: vec![],
    })
    .unwrap();
    c.register_object_type(ObjectTypeDef {
        name: "Impl".into(),
        inheritor_in: vec!["AllOf_If".into()],
        attributes: vec![AttrDef::new("Local", Domain::Int)],
        ..Default::default()
    })
    .unwrap();
    let mut st = ObjectStore::new(c).unwrap();
    let interface = st
        .create_object("If", vec![("X", Value::Int(1)), ("Y", Value::Int(2))])
        .unwrap();
    let mut readable = vec![(interface, "X"), (interface, "Y")];
    let mut writable = readable.clone();
    for k in 0..2 {
        let imp = st
            .create_object("Impl", vec![("Local", Value::Int(10 + k))])
            .unwrap();
        st.bind("AllOf_If", interface, imp, vec![]).unwrap();
        readable.extend([(imp, "X"), (imp, "Local")]);
        writable.push((imp, "Local"));
    }
    (st, readable, writable)
}

#[derive(Clone, Copy, Debug)]
enum Action {
    /// Also what any transactional action turns into on an idle session.
    Begin,
    Read(Item),
    Write(Item, i64),
    Commit,
    Abort,
    /// Non-transactional write; the session index is irrelevant.
    PlainWrite(Item, i64),
}

#[derive(Clone, Copy, Debug)]
struct Step {
    session: usize,
    action: Action,
}

/// Expand a seed into a schedule. Written values are unique per step, so a
/// read identifies its writer.
fn schedule(seed: u64) -> Vec<Step> {
    let (_, readable, writable) = fixture();
    let mut rng = TestRng::seed_from_u64(seed);
    let mut pick = |n: usize| rng.below(n as u64) as usize;
    (0..STEPS)
        .map(|n| {
            let value = 1000 + n as i64;
            let action = match pick(12) {
                0..=3 => Action::Read(readable[pick(readable.len())]),
                4..=6 => Action::Write(writable[pick(writable.len())], value),
                7..=8 => Action::Commit,
                9 => Action::Abort,
                10 => Action::PlainWrite(writable[pick(writable.len())], value),
                _ => Action::Begin,
            };
            Step {
                session: pick(WIRE_SESSIONS + 1),
                action,
            }
        })
        .collect()
}

/// What the checker sees of a run.
#[derive(Debug, PartialEq)]
enum Event {
    Begin {
        session: usize,
        version: u64,
    },
    /// A successful read. `chain` is the resolution chain the read locked
    /// (wire sessions only; empty for the lock-free designer).
    Read {
        session: usize,
        got: Value,
        snapshot_value: Value,
        own_write: Option<Value>,
        chain: Vec<Item>,
    },
    /// A write whose X lock was granted (or, for the designer, not needed).
    Write {
        session: usize,
        item: Item,
        value: i64,
    },
    /// The step could not get its lock; the wire transaction is dead.
    Blocked {
        session: usize,
    },
    /// Commit succeeded and published `version` (0 = read-only).
    Commit {
        session: usize,
        version: u64,
    },
    /// Commit refused (write conflict) or explicit abort.
    Abort {
        session: usize,
    },
    Plain {
        item: Item,
        value: i64,
        version: u64,
    },
    /// `try_acquire(X)` on a transmitter item by a bystander.
    Probe {
        item: Item,
        granted: bool,
    },
}

struct History {
    events: Vec<Event>,
    /// Published value of every readable item after the last step.
    end_state: Vec<(Item, Value)>,
}

/// One session's transaction, whichever mechanism fronts it.
struct Live {
    snapshot: Arc<ObjectStore>,
    writes: HashMap<Item, Value>,
    /// `None` for wire sessions (the registry owns the `Txn`).
    designer: Option<Txn>,
}

fn run(steps: &[Step]) -> History {
    let (st, readable, _) = fixture();
    let interface_x = readable[0];
    let store = SharedStore::from_store(st);
    let registry = TxnRegistry::with_lock_manager(LockManager::with_timeout(Duration::ZERO));
    let designers = TxnManager::new();
    let mut live: Vec<Option<Live>> = (0..=WIRE_SESSIONS).map(|_| None).collect();
    let mut events = Vec::new();

    for step in steps {
        let s = step.session;
        let wire = s != DESIGNER;
        match (step.action, live[s].as_mut()) {
            (Action::PlainWrite(item, value), _) => {
                store.set_attr(item.0, item.1, Value::Int(value)).unwrap();
                events.push(Event::Plain {
                    item,
                    value,
                    version: store.published_version(),
                });
            }
            (_, None) => {
                let snapshot = store.snapshot();
                let designer = if wire {
                    let (_, version) = registry.begin(s as u64, &store).unwrap();
                    assert_eq!(version, snapshot.version());
                    None
                } else {
                    // The designer checks the whole (tiny) design out.
                    let all: Vec<Surrogate> = readable.iter().map(|item| item.0).collect();
                    Some(designers.checkout("designer", &store, &all).unwrap())
                };
                events.push(Event::Begin {
                    session: s,
                    version: snapshot.version(),
                });
                live[s] = Some(Live {
                    snapshot,
                    writes: HashMap::new(),
                    designer,
                });
            }
            (Action::Begin, Some(_)) => {
                if wire {
                    let again = registry.begin(s as u64, &store);
                    assert!(matches!(again, Err(SessionError::AlreadyInTxn)));
                }
            }
            (Action::Read(item), Some(txn)) => {
                let got = match &txn.designer {
                    Some(d) => d.read_attr(item.0, item.1).map_err(SessionError::from),
                    None => registry.read_attr(s as u64, item.0, item.1),
                };
                match got {
                    Ok(got) => {
                        let chain: Vec<Item> = txn
                            .snapshot
                            .resolution_chain(item.0, item.1)
                            .unwrap()
                            .into_iter()
                            .map(|(o, _)| (o, item.1))
                            .collect();
                        events.push(Event::Read {
                            session: s,
                            got,
                            snapshot_value: txn.snapshot.attr(item.0, item.1).unwrap(),
                            own_write: txn.writes.get(chain.last().unwrap()).cloned(),
                            chain: if wire { chain } else { vec![] },
                        });
                    }
                    Err(SessionError::Txn(TxnError::Lock(_))) => {
                        events.push(Event::Blocked { session: s });
                        live[s] = None;
                    }
                    Err(e) => panic!("read failed: {e}"),
                }
            }
            (Action::Write(item, value), Some(txn)) => {
                let done = match &mut txn.designer {
                    Some(d) => d
                        .write_attr(item.0, item.1, Value::Int(value))
                        .map_err(SessionError::from),
                    None => registry.set_attr(s as u64, item.0, item.1, Value::Int(value)),
                };
                match done {
                    Ok(()) => {
                        txn.writes.insert(item, Value::Int(value));
                        events.push(Event::Write {
                            session: s,
                            item,
                            value,
                        });
                    }
                    Err(SessionError::Txn(TxnError::Lock(_))) => {
                        events.push(Event::Blocked { session: s });
                        live[s] = None;
                    }
                    Err(e) => panic!("write failed: {e}"),
                }
            }
            (Action::Commit, Some(_)) => {
                let txn = live[s].take().unwrap();
                let outcome = match txn.designer {
                    Some(d) => d.commit().map_err(SessionError::from),
                    None => registry.commit(s as u64, &store),
                };
                events.push(match outcome {
                    Ok(info) => Event::Commit {
                        session: s,
                        version: info.version,
                    },
                    Err(SessionError::Txn(TxnError::WriteConflict { .. })) => {
                        Event::Abort { session: s }
                    }
                    Err(e) => panic!("commit failed: {e}"),
                });
            }
            (Action::Abort, Some(_)) => {
                let txn = live[s].take().unwrap();
                match txn.designer {
                    Some(d) => drop(d.abort()),
                    None => drop(registry.abort(s as u64).unwrap()),
                }
                events.push(Event::Abort { session: s });
            }
        }
        for (session, txn) in live.iter().enumerate().take(WIRE_SESSIONS) {
            assert_eq!(registry.in_txn(session as u64), txn.is_some());
        }
        // A bystander tries to X-lock the transmitter's permeable item.
        let res = Resource::Item(interface_x.0, interface_x.1.to_string());
        let granted = registry
            .locks()
            .try_acquire(PROBE, res, LockMode::X)
            .is_ok();
        registry.locks().release_all(PROBE);
        events.push(Event::Probe {
            item: interface_x,
            granted,
        });
    }

    let end = store.snapshot();
    let end_state = readable
        .iter()
        .map(|&item| (item, end.attr(item.0, item.1).unwrap()))
        .collect();
    History { events, end_state }
}

/// Per-session bookkeeping of the checker.
#[derive(Default)]
struct Open {
    begin: u64,
    writes: Vec<(Item, i64)>,
    /// Items this transaction S-locked through inheritance (chain[1..]).
    inherited: Vec<Item>,
}

/// A committed writer: `(begin_version, commit_version, items)`.
type Committed = (u64, u64, Vec<Item>);

fn check(h: &History) -> Result<(), String> {
    let (mut serial, ..) = fixture();
    let mut open: BTreeMap<usize, Open> = BTreeMap::new();
    let mut committed: Vec<Committed> = Vec::new();
    let holders = |open: &BTreeMap<usize, Open>, item: Item, except: Option<usize>| {
        open.iter()
            .filter(|(s, o)| Some(**s) != except && o.inherited.contains(&item))
            .map(|(s, _)| *s)
            .collect::<Vec<_>>()
    };
    for (n, e) in h.events.iter().enumerate() {
        match e {
            Event::Begin { session, version } => {
                let fresh = Open {
                    begin: *version,
                    ..Default::default()
                };
                if open.insert(*session, fresh).is_some() {
                    return Err(format!("event {n}: session {session} began twice"));
                }
            }
            Event::Read {
                session,
                got,
                snapshot_value,
                own_write,
                chain,
            } => {
                // (a)
                let expected = own_write.as_ref().unwrap_or(snapshot_value);
                if got != expected {
                    return Err(format!(
                        "event {n}: (a) session {session} read {got}, expected {expected} \
                         (begin snapshot {snapshot_value}, own write {own_write:?})"
                    ));
                }
                let o = open.get_mut(session).ok_or("read outside a transaction")?;
                o.inherited.extend(chain.iter().skip(1));
            }
            Event::Write {
                session,
                item,
                value,
            } => {
                // (c), against a session's granted X
                let blockers = holders(&open, *item, Some(*session));
                if *session != DESIGNER && !blockers.is_empty() {
                    return Err(format!(
                        "event {n}: (c) session {session} was granted X on {item:?} while \
                         sessions {blockers:?} hold the inherited S lock"
                    ));
                }
                let o = open.get_mut(session).ok_or("write outside a transaction")?;
                o.writes.push((*item, *value));
            }
            Event::Probe { item, granted } => {
                // (c), against the bystander's try_acquire
                let blockers = holders(&open, *item, None);
                if *granted && !blockers.is_empty() {
                    return Err(format!(
                        "event {n}: (c) probe was granted X on {item:?} while sessions \
                         {blockers:?} hold the inherited S lock"
                    ));
                }
            }
            Event::Blocked { session } | Event::Abort { session } => {
                open.remove(session).ok_or("end outside a transaction")?;
            }
            Event::Commit { session, version } => {
                let o = open.remove(session).ok_or("commit outside a transaction")?;
                if o.writes.is_empty() != (*version == 0) {
                    return Err(format!("event {n}: commit version {version} vs writes"));
                }
                for (item, value) in &o.writes {
                    serial.set_attr(item.0, item.1, Value::Int(*value)).unwrap();
                }
                let items = o.writes.iter().map(|(i, _)| *i).collect();
                committed.push((o.begin, *version, items));
            }
            Event::Plain {
                item,
                value,
                version,
            } => {
                serial.set_attr(item.0, item.1, Value::Int(*value)).unwrap();
                committed.push((version - 1, *version, vec![*item]));
            }
        }
    }
    // (b): `committed` is in commit order, so a later writer overlaps an
    // earlier one iff it began before the earlier one committed.
    for (k, (_, first_commit, first_items)) in committed.iter().enumerate() {
        for (begin, commit, items) in &committed[k + 1..] {
            if let Some(item) = items.iter().find(|i| first_items.contains(i)) {
                if begin < first_commit {
                    return Err(format!(
                        "(b) writers committed at {first_commit} and {commit} overlap \
                         (the later began at {begin}) and both wrote {item:?}"
                    ));
                }
            }
        }
    }
    // (d)
    for (item, published) in &h.end_state {
        let replayed = serial.attr(item.0, item.1).unwrap();
        if *published != replayed {
            return Err(format!(
                "(d) {item:?}: published {published}, serial replay of the committed logs \
                 gives {replayed}"
            ));
        }
    }
    Ok(())
}

/// Run one seed through the system and the checker.
fn replay(seed: u64) -> Result<(), String> {
    let steps = schedule(seed);
    check(&run(&steps)).map_err(|why| {
        let listing: Vec<String> = steps
            .iter()
            .enumerate()
            .map(|(n, s)| format!("  {n:2}: session {} {:?}", s.session, s.action))
            .collect();
        format!(
            "history violation: {why}\nseed {seed:#x} — re-run with replay({seed:#x})\n\
             steps:\n{}",
            listing.join("\n")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn seeded_interleavings_satisfy_the_history_checker(seed in any::<u64>()) {
        if let Err(report) = replay(seed) {
            prop_assert!(false, "{report}");
        }
    }
}

/// The schedules are rich enough to mean something: across a handful of
/// seeds every kind of outcome occurs.
#[test]
fn schedules_reach_every_outcome() {
    let mut seen = [false; 6];
    for seed in 0..64u64 {
        for e in run(&schedule(seed)).events {
            match e {
                Event::Blocked { .. } => seen[0] = true,
                Event::Commit { version, .. } if version > 0 => seen[1] = true,
                Event::Abort { .. } => seen[2] = true,
                Event::Plain { .. } => seen[3] = true,
                Event::Probe { granted: false, .. } => seen[4] = true,
                Event::Read {
                    own_write: Some(_), ..
                } => seen[5] = true,
                _ => {}
            }
        }
    }
    assert_eq!(seen, [true; 6], "blocked/commit/abort/plain/probe/own-read");
}

// ----------------------------------------------------------------------
// The checker rejects what it claims to reject
// ----------------------------------------------------------------------

fn fabricated(events: Vec<Event>, end: &[(Item, i64)]) -> Result<(), String> {
    let (st, readable, _) = fixture();
    let end_state = readable
        .iter()
        .map(|&item| {
            let forced = end.iter().find(|(i, _)| *i == item);
            let value =
                forced.map_or_else(|| st.attr(item.0, item.1).unwrap(), |f| Value::Int(f.1));
            (item, value)
        })
        .collect();
    check(&History { events, end_state })
}

#[test]
fn checker_rejects_a_dirty_read() {
    let (_, readable, _) = fixture();
    let (if_x, imp_x) = (readable[0], readable[2]);
    let err = fabricated(
        vec![
            Event::Begin {
                session: 0,
                version: 0,
            },
            Event::Begin {
                session: 1,
                version: 0,
            },
            Event::Write {
                session: 1,
                item: if_x,
                value: 9,
            },
            // Session 0 sees session 1's uncommitted write.
            Event::Read {
                session: 0,
                got: Value::Int(9),
                snapshot_value: Value::Int(1),
                own_write: None,
                chain: vec![imp_x, if_x],
            },
        ],
        &[],
    )
    .unwrap_err();
    assert!(err.contains("(a)"), "{err}");
}

#[test]
fn checker_rejects_two_overlapping_committed_writers() {
    let (_, readable, _) = fixture();
    let if_y = readable[1];
    let err = fabricated(
        vec![
            Event::Begin {
                session: 0,
                version: 0,
            },
            Event::Begin {
                session: 1,
                version: 0,
            },
            Event::Write {
                session: 0,
                item: if_y,
                value: 5,
            },
            Event::Write {
                session: 1,
                item: if_y,
                value: 6,
            },
            Event::Commit {
                session: 0,
                version: 1,
            },
            // Began at 0, before the first committer's version 1: must lose.
            Event::Commit {
                session: 1,
                version: 2,
            },
        ],
        &[(if_y, 6)],
    )
    .unwrap_err();
    assert!(err.contains("(b)"), "{err}");
}

#[test]
fn checker_rejects_an_x_grant_under_an_inherited_s_lock() {
    let (_, readable, _) = fixture();
    let (if_x, imp_x) = (readable[0], readable[2]);
    let reader = || {
        vec![
            Event::Begin {
                session: 0,
                version: 0,
            },
            Event::Read {
                session: 0,
                got: Value::Int(1),
                snapshot_value: Value::Int(1),
                own_write: None,
                chain: vec![imp_x, if_x],
            },
        ]
    };
    let mut by_session = reader();
    by_session.extend([
        Event::Begin {
            session: 1,
            version: 0,
        },
        Event::Write {
            session: 1,
            item: if_x,
            value: 9,
        },
    ]);
    let err = fabricated(by_session, &[]).unwrap_err();
    assert!(err.contains("(c) session 1"), "{err}");

    let mut by_probe = reader();
    by_probe.push(Event::Probe {
        item: if_x,
        granted: true,
    });
    let err = fabricated(by_probe, &[]).unwrap_err();
    assert!(err.contains("(c) probe"), "{err}");
}

#[test]
fn checker_rejects_a_lost_or_phantom_commit() {
    let (_, readable, _) = fixture();
    let if_y = readable[1];
    // A commit whose write never reached the published store.
    let err = fabricated(
        vec![
            Event::Begin {
                session: 0,
                version: 0,
            },
            Event::Write {
                session: 0,
                item: if_y,
                value: 5,
            },
            Event::Commit {
                session: 0,
                version: 1,
            },
        ],
        &[],
    )
    .unwrap_err();
    assert!(err.contains("(d)"), "{err}");
    // An aborted write that did.
    let err = fabricated(
        vec![
            Event::Begin {
                session: 0,
                version: 0,
            },
            Event::Write {
                session: 0,
                item: if_y,
                value: 5,
            },
            Event::Abort { session: 0 },
        ],
        &[(if_y, 5)],
    )
    .unwrap_err();
    assert!(err.contains("(d)"), "{err}");
}

/// Policies differ only in locking: the same conflict is caught for both.
#[test]
fn designer_and_wire_session_race_first_committer_wins() {
    let (st, readable, _) = fixture();
    let if_y = readable[1];
    let store = SharedStore::from_store(st);
    let registry = TxnRegistry::with_lock_manager(LockManager::with_timeout(Duration::ZERO));
    let mut designer = TxnManager::new()
        .checkout("dave", &store, &[if_y.0])
        .unwrap();
    registry.begin(0, &store).unwrap();
    designer.write_attr(if_y.0, "Y", Value::Int(5)).unwrap();
    registry.set_attr(0, if_y.0, "Y", Value::Int(6)).unwrap();
    registry.commit(0, &store).unwrap();
    assert!(matches!(
        designer.commit(),
        Err(TxnError::WriteConflict { .. })
    ));
    assert_eq!(store.attr(if_y.0, "Y").unwrap(), Value::Int(6));
}
