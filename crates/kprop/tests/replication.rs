//! Skew-edge regression suite for incremental replication (ISSUE 10).
//!
//! The two sequencing edges a journaled stream can get wrong — a record
//! the slave has already applied, and a record from beyond the next
//! expected position — must each be refused with a *typed* error
//! ([`PropError::ReplayedUpdate`] / [`PropError::SequenceGap`]) carrying
//! the exact sequence numbers, must leave the replica untouched, and on
//! the wire must surface as `kprop_reject` journal events with the right
//! slugs, reconciling exactly with the counters (the krb-mon
//! metrics≡journal oracle).

use krb_crypto::string_to_key;
use krb_kdb::dump as kdump;
use krb_kdb::{MemStore, PrincipalDb};
use krb_kprop::{
    build_full_seq, build_incr_segment, parse_incr_reply, IncrKpropdService, IncrReply,
    KpropMaster, PropError, UpdateOp, UpdateRecord,
};

const NOW: u32 = 600_000_000;

/// A master whose packets these tests build and deliver by hand: only its
/// write path and its journal are used.
fn journal_only() -> KpropMaster {
    KpropMaster::new([18, 72, 0, 10], 1000, 0, 32, &[])
}

fn add(master: &mut PrincipalDb<MemStore>, kprop: &mut KpropMaster, name: &str) {
    let key = string_to_key(&format!("pw-{name}"));
    kprop
        .write(master, |tx| tx.add_principal(name, "", &key, u32::MAX, 96, NOW, "kadmin."))
        .unwrap();
}

#[test]
fn replayed_record_and_sequence_gap_draw_typed_errors() {
    use krb_kprop::IncrReplica;
    let mk = string_to_key("mk");
    let mut master = PrincipalDb::create(MemStore::new(), mk, NOW).unwrap();
    let mut kprop = journal_only();
    let mut replica = IncrReplica::new(mk);

    // Bootstrap at journal position 0.
    let dump = kdump::dump(&master).unwrap();
    let full = build_full_seq(master.master_sched(), 0, dump.as_bytes());
    assert_eq!(replica.apply(&full).unwrap().seq(), 0);

    // Two journaled writes, shipped as one segment.
    add(&mut master, &mut kprop, "amy");
    add(&mut master, &mut kprop, "bcn");
    let seg = build_incr_segment(master.master_sched(), 0, &kprop.log().since(0).unwrap()).unwrap();
    assert_eq!(replica.apply(&seg).unwrap().seq(), 2);

    // Skew edge 1: the identical segment again. The refusal must be the
    // typed replay error with the exact positions, not a generic failure.
    match replica.apply(&seg) {
        Err(PropError::ReplayedUpdate { applied: 2, first: 1 }) => {}
        other => panic!("replayed segment drew {other:?}"),
    }

    // Skew edge 2: a record from beyond the next expected sequence.
    let future = UpdateRecord {
        seq: 4,
        op: UpdateOp::Delete { name: "amy".to_string(), instance: String::new() },
    };
    let gap = build_incr_segment(master.master_sched(), 3, &[future]).unwrap();
    match replica.apply(&gap) {
        Err(PropError::SequenceGap { applied: 2, first: 4 }) => {}
        other => panic!("out-of-order segment drew {other:?}"),
    }

    // Neither refusal touched the installed mirror.
    assert_eq!(replica.applied_seq(), 2);
    assert_eq!(replica.dump_text().unwrap(), kdump::dump(&master).unwrap());
}

#[test]
fn refusals_surface_as_typed_reject_events_and_counters_reconcile() {
    use krb_netsim::{ports, Endpoint, NetConfig, Router, SimNet};
    use krb_telemetry::{fixed_clock_us, EventKind, Field, Journal, Registry, TraceId};
    use std::sync::Arc;

    let mk = string_to_key("mk");
    let mut master = PrincipalDb::create(MemStore::new(), mk, NOW).unwrap();
    let mut kprop = journal_only();
    add(&mut master, &mut kprop, "amy");

    let registry = Arc::new(Registry::new());
    let journal = Journal::shared();
    let mut svc = IncrKpropdService::new(mk, |_db| {});
    svc.set_registry(Arc::clone(&registry));
    svc.set_journal(Arc::clone(&journal), fixed_clock_us(7));
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let slave_ep = Endpoint::new([18, 72, 0, 11], ports::KPROP);
    router.serve(slave_ep, svc);
    let master_ep = Endpoint::new([18, 72, 0, 10], 1000);
    let mut trace_n = 0u64;
    let mut ship = |router: &mut Router, packet: &[u8]| {
        trace_n += 1;
        let t = TraceId::derive(11, trace_n);
        parse_incr_reply(&router.rpc_traced(master_ep, slave_ep, packet, Some(t)).unwrap())
    };

    // Transfer 1: bootstrap full dump at the current head — accepted.
    let dump = kdump::dump(&master).unwrap();
    let full = build_full_seq(master.master_sched(), kprop.log().head(), dump.as_bytes());
    assert_eq!(ship(&mut router, &full), IncrReply::Accepted(1));

    // Transfer 2: one more write, shipped incrementally — accepted.
    add(&mut master, &mut kprop, "bcn");
    let seg = build_incr_segment(master.master_sched(), 1, &kprop.log().since(1).unwrap()).unwrap();
    assert_eq!(ship(&mut router, &seg), IncrReply::Accepted(2));

    // Transfer 3: the same segment replayed — refused, typed.
    match ship(&mut router, &seg) {
        IncrReply::Rejected(why) => assert!(why.contains("replayed update"), "{why}"),
        other => panic!("replay drew {other:?}"),
    }

    // Transfer 4: a segment from the future — refused, typed.
    let future = UpdateRecord {
        seq: 6,
        op: UpdateOp::Delete { name: "amy".to_string(), instance: String::new() },
    };
    let gap = build_incr_segment(master.master_sched(), 5, &[future]).unwrap();
    match ship(&mut router, &gap) {
        IncrReply::Rejected(why) => assert!(why.contains("sequence gap"), "{why}"),
        other => panic!("gap drew {other:?}"),
    }

    // The counters tell the same story...
    assert_eq!(registry.counter_value("kprop_rounds_total"), 4);
    assert_eq!(registry.counter_value("kprop_accepted_total"), 2);
    assert_eq!(registry.counter_value("kprop_rejected_total"), 2);
    // The mode split counts *installed* transfers: one bootstrap full,
    // one incremental apply — the two refusals installed nothing.
    assert_eq!(registry.counter_value("kprop_full_total"), 1);
    assert_eq!(registry.counter_value("kprop_incr_total"), 1);
    let gauges = registry.gauges();
    assert!(gauges.iter().any(|(n, v)| n == "kprop_applied_seq" && *v == 2), "{gauges:?}");

    // ...as the journal: two typed reject events with the exact slugs.
    let why_slugs: Vec<String> = journal
        .dump()
        .iter()
        .filter(|e| e.kind == EventKind::KpropReject)
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match v {
                Field::Str(s) if *k == "why" => Some(s.clone()),
                _ => None,
            })
        })
        .collect();
    assert_eq!(why_slugs, vec!["replayed_update".to_string(), "sequence_gap".to_string()]);

    // And the krb-mon oracle agrees the two views reconcile exactly.
    let consistency = krb_mon::consistency_check(&registry, &journal).unwrap();
    assert!(consistency.is_consistent(), "{}", consistency.describe_mismatches());
}
