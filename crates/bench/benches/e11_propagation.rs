//! E11 (Fig. 13, §5.3): database propagation cost vs database size.

mod common;

use common::{quick, NOW};
use criterion::{BenchmarkId, Criterion, Throughput};
use krb_crypto::string_to_key;
use krb_kdb::{dump::dump, MemStore, PrincipalDb};
use krb_kprop::{build_full_seq, verify_full_seq};
use std::hint::black_box;

fn db_of(n: usize) -> PrincipalDb<MemStore> {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), NOW).unwrap();
    for i in 0..n {
        db.add_principal(&format!("u{i}"), "", &string_to_key(&format!("p{i}")), NOW * 2, 96, NOW, "i.")
            .unwrap();
    }
    db
}

/// `kprop`: dump the database and seal it as a full-dump packet.
fn kprop_dump(db: &PrincipalDb<MemStore>) -> Vec<u8> {
    build_full_seq(db.master_sched(), 0, dump(db).unwrap().as_bytes())
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_propagation");
    for n in [100usize, 1000, 5000] {
        let db = db_of(n);
        let packet = kprop_dump(&db);
        g.throughput(Throughput::Bytes(packet.len() as u64));
        g.bench_with_input(BenchmarkId::new("kprop_dump", n), &n, |b, _| {
            b.iter(|| black_box(kprop_dump(&db)))
        });
        g.bench_with_input(BenchmarkId::new("verify_full_seq", n), &n, |b, _| {
            b.iter(|| black_box(verify_full_seq(db.master_sched(), &packet).unwrap()))
        });
    }
    g.finish();
}

fn main() {
    let mut c = quick();
    bench(&mut c);
    c.final_summary();
}
