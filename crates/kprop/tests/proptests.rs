//! Property tests for the propagation wire and the master's ack rule:
//! rejection of any single-byte corruption, a slave that survives anything
//! a master-key holder can seal, a checksum that needs the master key, and
//! a cursor that advances on exactly one reply.

use krb_crypto::{cbc_checksum_with, string_to_key, DesKey, Scheduled};
use krb_kdb::dump as kdump;
use krb_kdb::{MemStore, PrincipalDb};
use krb_kprop::{
    build_full_seq, verify_full_seq, IncrReplica, KpropMaster, SlaveCursor, FULL_MAGIC, INCR_MAGIC,
};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = DesKey> {
    any::<[u8; 8]>().prop_map(DesKey::from_bytes)
}

/// A real, valid database: `K.M` plus one user.
fn small_db() -> PrincipalDb<MemStore> {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), 0).unwrap();
    db.add_principal("alpha", "", &string_to_key("a"), 100, 96, 0, "i.").unwrap();
    db
}

fn full_dump(db: &PrincipalDb<MemStore>, as_of: u64) -> Vec<u8> {
    build_full_seq(db.master_sched(), as_of, kdump::dump(db).unwrap().as_bytes())
}

/// Payloads aimed at the parser: raw bytes, or a segment header with an
/// arbitrary `after_seq` and `count` in front of raw bytes.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    let raw = || proptest::collection::vec(any::<u8>(), 0..400);
    prop_oneof![
        raw(),
        (any::<u64>(), any::<u32>(), raw()).prop_map(|(after_seq, count, tail)| {
            let mut p = after_seq.to_be_bytes().to_vec();
            p.extend_from_slice(&count.to_be_bytes());
            p.extend_from_slice(&tail);
            p
        }),
    ]
}

proptest! {
    /// Any corruption of any byte of a full dump is detected (either as
    /// framing damage or as a checksum mismatch).
    #[test]
    fn every_single_byte_corruption_detected(
        idx_seed in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let db = small_db();
        let packet_ok = full_dump(&db, 3);
        let mut packet = packet_ok.clone();
        let idx = (idx_seed as usize) % packet.len();
        packet[idx] ^= flip;
        match verify_full_seq(db.master_sched(), &packet) {
            Err(_) => {}
            Ok(_) => prop_assert!(false, "corruption at {idx} accepted"),
        }
        // The pristine packet still verifies (the corruption detection is
        // not just rejecting everything).
        prop_assert!(verify_full_seq(db.master_sched(), &packet_ok).is_ok());
    }

    /// Whatever follows the checksum — sealed by someone who holds the
    /// master key, or not sealed at all — `apply` returns: no panic, no
    /// allocation sized by a header field. A refusal leaves the mirror and
    /// its sequence number exactly as they were.
    #[test]
    fn sealed_arbitrary_payloads_are_applied_or_refused_never_fatal(
        payload in arb_payload(),
        incr in any::<bool>(),
        sealed in any::<bool>(),
        junk_sum in any::<[u8; 8]>(),
    ) {
        let db = small_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_dump(&db, 5)).unwrap();
        let before = replica.dump_text().unwrap();

        let sum = if sealed { cbc_checksum_with(db.master_sched(), &[0u8; 8], &payload) } else { junk_sum };
        let mut packet = if incr { INCR_MAGIC.to_vec() } else { FULL_MAGIC.to_vec() };
        packet.extend_from_slice(&sum);
        packet.extend_from_slice(&payload);

        if replica.apply(&packet).is_err() {
            prop_assert_eq!(replica.dump_text().unwrap(), before);
            prop_assert_eq!(replica.applied_seq(), 5);
        }
    }

    /// The checksum is key-dependent: a dump sealed under one key never
    /// verifies under a different key.
    #[test]
    fn checksum_requires_the_master_key(k1 in arb_key(), k2 in arb_key(), data in proptest::collection::vec(any::<u8>(), 8..64)) {
        prop_assume!(k1.as_bytes() != k2.as_bytes());
        let packet = build_full_seq(&Scheduled::new(&k1), 0, &data);
        prop_assert_eq!(
            verify_full_seq(&Scheduled::new(&k2), &packet).unwrap_err(),
            krb_kprop::PropError::ChecksumMismatch
        );
    }

    /// The ack rule, once: the cursor ends synced at `expected` iff the
    /// reply is byte for byte `OK <expected>`. Anything else — silence, a
    /// neighbouring or unparseable number, another spelling of the right
    /// one, a refusal, noise — leaves `acked` where it was and makes the
    /// next transfer a full dump.
    #[test]
    fn settle_advances_only_on_the_exact_ack(
        before in 0usize..4,
        pending in 1usize..4,
        shape in 0usize..14,
        noise in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let mut db = small_db();
        let mut kprop = KpropMaster::new([18, 72, 0, 10], 1000, 0, 64, &[]);
        let write = |db: &mut PrincipalDb<MemStore>, kprop: &mut KpropMaster, n: usize| {
            let key = string_to_key(&format!("pw{n}"));
            kprop.write(db, |tx| tx.change_key("alpha", "", &key, n as u32, "kadmin.")).unwrap();
        };
        for n in 0..before {
            write(&mut db, &mut kprop, n);
        }
        let mut cursor = SlaveCursor::new();
        let boot = cursor.next_transfer(&db, kprop.log(), false).unwrap().unwrap();
        let boot_ack = format!("OK {}", boot.expected);
        prop_assert!(cursor.settle(&boot, Some(boot_ack.as_bytes())));
        let acked = cursor.acked();
        for n in 0..pending {
            write(&mut db, &mut kprop, before + n);
        }
        let sent = cursor.next_transfer(&db, kprop.log(), false).unwrap().unwrap();
        prop_assert_eq!((sent.mode(), sent.expected), ("incr", kprop.log().head()));

        let n = sent.expected;
        let reply: Option<Vec<u8>> = match shape {
            0 => None,
            1 => Some(format!("OK {}", n - 1).into_bytes()),
            2 => Some(format!("OK {}", n + 1).into_bytes()),
            3 => Some(b"OK 18446744073709551616".to_vec()),
            4 => Some(b"OK".to_vec()),
            5 => Some(Vec::new()),
            6 => Some(format!("OK +{n}").into_bytes()),
            7 => Some(format!("OK 0{n}").into_bytes()),
            8 => Some(b"ERR propagation checksum mismatch".to_vec()),
            // Mostly non-UTF-8, once in a while an accidental "OK <n>".
            9 | 10 => Some(noise),
            _ => Some(format!("OK {n}").into_bytes()),
        };
        let exact = reply.as_deref() == Some(format!("OK {n}").as_bytes());
        prop_assert_eq!(cursor.settle(&sent, reply.as_deref()), exact);
        let next = cursor.next_transfer(&db, kprop.log(), false).unwrap();
        if exact {
            prop_assert_eq!((cursor.acked(), cursor.synced()), (n, true));
            prop_assert_eq!(next, None);
        } else {
            prop_assert_eq!((cursor.acked(), cursor.synced()), (acked, false));
            prop_assert_eq!(next.map(|t| t.mode()), Some("full"));
        }
    }
}
