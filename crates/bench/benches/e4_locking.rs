//! Criterion bench for E4: cost of a lock-inheritance read (chain locking)
//! vs. a plain local read under the transaction layer.

use ccdb_bench::workload::fanout_store;
use ccdb_core::shared::SharedStore;
use ccdb_txn::txn::TxnManager;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_locking");
    g.bench_function("txn_read_inherited_attr", |b| {
        let (st, _, imps) = fanout_store(1, 8, 4);
        let (store, txns) = (SharedStore::from_store(st), TxnManager::new());
        b.iter(|| {
            let tx = txns.begin("u", &store);
            black_box(tx.read_attr(imps[0], "A0").unwrap());
            tx.commit().unwrap();
        });
    });
    g.bench_function("txn_read_local_attr", |b| {
        let (st, _, imps) = fanout_store(1, 8, 4);
        let (store, txns) = (SharedStore::from_store(st), TxnManager::new());
        b.iter(|| {
            let tx = txns.begin("u", &store);
            black_box(tx.read_attr(imps[0], "Local").unwrap());
            tx.commit().unwrap();
        });
    });
    g.bench_function("txn_write_attr", |b| {
        let (st, interface, _) = fanout_store(1, 8, 4);
        let (store, txns) = (SharedStore::from_store(st), TxnManager::new());
        let mut n = 0;
        b.iter(|| {
            n += 1;
            let mut tx = txns.begin("u", &store);
            tx.write_attr(interface, "A7", ccdb_core::Value::Int(n))
                .unwrap();
            tx.commit().unwrap();
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
