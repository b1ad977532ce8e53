//! Robustness: the KDC must answer *every* datagram — valid, truncated,
//! malformed, or adversarial — with a well-formed reply, and never panic.
//! An authentication service that can be crashed by a packet fails the
//! paper's reliability requirement (§1: "it must be reliable").

use kerberos::{Message, Principal};
use krb_crypto::{string_to_key, Scheduled};
use krb_kdb::{MemStore, PrincipalDb};
use krb_kdc::{fixed_clock, Kdc, KdcRole, RealmConfig};
use proptest::prelude::*;

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;

fn kdc() -> Kdc<MemStore> {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), NOW).unwrap();
    db.add_principal("krbtgt", REALM, &string_to_key("tgs"), NOW * 2, 96, NOW, "i.").unwrap();
    db.add_principal("bcn", "", &string_to_key("pw"), NOW * 2, 96, NOW, "i.").unwrap();
    Kdc::new(db, RealmConfig::new(REALM), fixed_clock(NOW), KdcRole::Master, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: the KDC replies with a decodable message (an
    /// error), never panics, never replies with a ticket.
    #[test]
    fn arbitrary_bytes_never_panic_or_issue(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let k = kdc();
        let reply = k.handle(&data, [1, 2, 3, 4]);
        match Message::decode(&reply).expect("reply must decode") {
            Message::Err(_) => {}
            Message::KdcRep(_) => {
                // Only possible if the bytes happened to be a VALID AsReq
                // for a known principal — astronomically unlikely from
                // random bytes, and harmless anyway (the reply is sealed in
                // that principal's key). Treat as acceptable.
            }
            other => prop_assert!(false, "unexpected reply {other:?}"),
        }
    }

    /// Mutated valid requests: flip bytes in a real AS request — the KDC
    /// always answers cleanly.
    #[test]
    fn mutated_as_requests_never_panic(idx in 0usize..64, flip in any::<u8>()) {
        let client = Principal::parse("bcn", REALM).unwrap();
        let tgs = Principal::tgs(REALM, REALM);
        let mut req = kerberos::build_as_req(&client, &tgs, 96, NOW);
        let i = idx % req.len();
        req[i] ^= flip;
        let k = kdc();
        let reply = k.handle(&req, [1, 2, 3, 4]);
        prop_assert!(Message::decode(&reply).is_ok());
    }

    /// Truncations of a valid TGS request never panic.
    #[test]
    fn truncated_tgs_requests_never_panic(cut_ratio in 0.0f64..1.0) {
        let k = kdc();
        let client = Principal::parse("bcn", REALM).unwrap();
        let tgs = Principal::tgs(REALM, REALM);
        let as_req = kerberos::build_as_req(&client, &tgs, 96, NOW);
        let tgt = kerberos::read_as_reply_with_password(&k.handle(&as_req, [1, 2, 3, 4]), "pw", NOW).unwrap();
        let tgt_sched = Scheduled::new(&tgt.key());
        let rlogin = Principal::new("rlogin", "priam", REALM).unwrap();
        let full = kerberos::build_tgs_req_with(&tgt, &tgt_sched, &client, [1, 2, 3, 4], NOW + 1, &rlogin, 96);
        let cut = ((full.len() as f64) * cut_ratio) as usize;
        let reply = k.handle(&full[..cut.min(full.len())], [1, 2, 3, 4]);
        prop_assert!(Message::decode(&reply).is_ok());
    }
}
