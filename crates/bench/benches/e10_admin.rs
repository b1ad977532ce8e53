//! E10 (Fig. 11/12, §5): the administration protocol — a full kpasswd, and
//! the database write it ends in against realms of growing size.

mod common;

use common::{kdc_with_users, quick, tick, REALM, WS};
use criterion::{BenchmarkId, Criterion};
use kerberos::Principal;
use krb_crypto::string_to_key;
use krb_kadm::{
    build_admin_request, build_kdbm_ticket_request, kpasswd_op, read_admin_reply,
    read_kdbm_ticket_reply, Acl, KdbmServer,
};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let (kdc, clock) = kdc_with_users(100);
    let kdc = Arc::new(kdc);
    KdbmServer::register_service(&kdc, &string_to_key("kdbm"), common::NOW).unwrap();
    let mut kdbm = KdbmServer::new(
        Arc::clone(&kdc),
        Acl::new(),
        krb_kdc::shared_clock(Arc::clone(&clock)),
    )
    .unwrap();
    let client = Principal::parse("u3", REALM).unwrap();

    let mut flip = false;
    c.bench_function("e10_kpasswd_full", |b| {
        b.iter(|| {
            flip = !flip;
            let (old_pw, new_pw) = if flip { ("p3", "p3x") } else { ("p3x", "p3") };
            let t = tick(&clock);
            let req = build_kdbm_ticket_request(&client, t);
            let reply = kdc.handle(&req, WS);
            let cred = read_kdbm_ticket_reply(&reply, old_pw, t).unwrap();
            let admin = build_admin_request(&cred, &client, WS, t, &kpasswd_op(new_pw));
            read_admin_reply(&kdbm.handle(&admin, WS)).unwrap();
        })
    });
}

/// `with_db_mut(change_key)`: mutate the primary, snapshot it, swap the
/// snapshot in — what every admin write costs the master, by realm size.
fn bench_write_by_realm_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_with_db_mut_change_key");
    let key = string_to_key("rekeyed");
    for users in [1_000usize, 10_000, 100_000, 1_000_000] {
        let (kdc, _clock) = kdc_with_users(users);
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, &users| {
            b.iter(|| {
                next = (next + 7919) % users;
                kdc.with_db_mut(|db| db.change_key(&format!("u{next}"), "", &key, common::NOW, "bench."))
                    .unwrap()
                    .unwrap();
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = quick();
    bench(&mut c);
    bench_write_by_realm_size(&mut c);
    c.final_summary();
}
