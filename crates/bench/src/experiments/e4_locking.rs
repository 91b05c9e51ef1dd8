//! E4 — lock inheritance: item-granular read locks on transmitters.
//!
//! Paper claim (§6): "the parts of the component which are visible in the
//! composite object have to be read-locked when the data is touched in the
//! composite object" — the *parts*, not the whole component. Measured:
//! with a composite reading its inherited attribute, which writer updates on
//! the transmitter's 8 attributes are blocked, (a) under the paper's
//! item-granular lock inheritance and (b) under naive whole-object locking;
//! swept over the permeability k. Plus multi-threaded writer throughput on
//! non-permeable attributes while readers hold inherited views.

use std::time::Duration;

use ccdb_core::shared::SharedStore;
use ccdb_core::Value;
use ccdb_txn::lock::{LockManager, LockMode, Resource, TxnId};
use ccdb_txn::txn::TxnManager;

use crate::table::Table;
use crate::workload::fanout_store;

const N_ATTRS: usize = 8;

/// Run E4.
pub fn run(quick: bool) -> Table {
    let ks: &[usize] = if quick { &[2, 8] } else { &[1, 2, 4, 8] };
    let mut t = Table::new(
        "E4: lock inheritance — writer attrs blocked while a composite reads its view (8-attr component)",
        &[
            "permeable k",
            "blocked (item-granular)",
            "blocked (whole-object)",
            "concurrent writer ops/s (item-granular)",
        ],
    );
    for &k in ks {
        // --- item-granular (the paper's lock inheritance) ---
        let (st, interface, imps) = fanout_store(1, N_ATTRS, k);
        let imp = imps[0];
        let store = SharedStore::from_store(st);
        let txns =
            TxnManager::with_lock_manager(LockManager::with_timeout(Duration::from_millis(10)));
        let reader = txns.begin("reader", &store);
        // Read every inherited attribute: locks (imp, Ai) and (interface, Ai)
        // for i < k.
        for i in 0..k {
            reader.read_attr(imp, &format!("A{i}")).unwrap();
        }
        let mut blocked_item = 0;
        for j in 0..N_ATTRS {
            let mut writer = txns.begin("writer", &store);
            match writer.write_attr(interface, &format!("A{j}"), Value::Int(-1)) {
                Ok(()) => {
                    writer.commit().unwrap();
                }
                Err(_) => blocked_item += 1, // dropping the writer aborts it
            }
        }
        reader.commit().unwrap();

        // --- naive whole-object locking ---
        let lm = LockManager::with_timeout(Duration::from_millis(10));
        let robj = Resource::Object(interface);
        lm.acquire(TxnId(1), robj.clone(), LockMode::S).unwrap(); // reader locks whole component
        let mut blocked_whole = 0;
        for j in 0..N_ATTRS {
            let txn = TxnId(100 + j as u64);
            if lm.try_acquire(txn, robj.clone(), LockMode::X).is_err() {
                blocked_whole += 1;
            }
            lm.release_all(txn);
        }
        lm.release_all(TxnId(1));

        // --- threaded throughput: writers on non-permeable attrs while a
        //     reader keeps the view locked ---
        let ops = measure_writer_throughput(k, quick);

        t.row(vec![
            k.to_string(),
            format!("{blocked_item}/{N_ATTRS}"),
            format!("{blocked_whole}/{N_ATTRS}"),
            format!("{ops:.0}"),
        ]);
    }
    t
}

fn measure_writer_throughput(k: usize, quick: bool) -> f64 {
    let (st, interface, imps) = fanout_store(1, N_ATTRS, k);
    let imp = imps[0];
    let store = SharedStore::from_store(st);
    let txns =
        TxnManager::with_lock_manager(LockManager::with_timeout(Duration::from_millis(if quick {
            2
        } else {
            10
        })));
    // Reader holds the inherited view for the whole run.
    let reader = txns.begin("reader", &store);
    for i in 0..k {
        reader.read_attr(imp, &format!("A{i}")).unwrap();
    }
    let per_thread = if quick { 25 } else { 500 };
    let threads = 4;
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let (store, txns) = (store.clone(), txns.clone());
            std::thread::spawn(move || {
                // Each writer updates a non-permeable attribute (if any).
                let attr = format!("A{}", k.min(N_ATTRS - 1).max(k % N_ATTRS));
                let mut done = 0u64;
                for n in 0..per_thread {
                    let mut tx = txns.begin(&format!("w{w}"), &store);
                    let target = if k < N_ATTRS {
                        attr.clone()
                    } else {
                        format!("A{w}")
                    };
                    // A blocked write or a lost first-committer race both
                    // abort; only commits count.
                    let committed = tx
                        .write_attr(interface, &target, Value::Int(n))
                        .and_then(|()| tx.commit());
                    if committed.is_ok() {
                        done += 1;
                    }
                }
                done
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let secs = start.elapsed().as_secs_f64();
    reader.commit().unwrap();
    total as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_granularity_blocks_only_permeable_attrs() {
        let t = run(true);
        // k=2 row: exactly the 2 permeable attrs blocked; naive blocks all 8.
        assert_eq!(t.rows[0][1], "2/8");
        assert_eq!(t.rows[0][2], "8/8");
        // k=8: everything permeable → both block all.
        assert_eq!(t.rows[1][1], "8/8");
    }
}
