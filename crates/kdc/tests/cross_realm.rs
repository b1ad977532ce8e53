//! Cross-realm authentication (paper §7.2, experiment E16).
//!
//! A user registered at ATHENA.MIT.EDU obtains, from the local TGS, a
//! ticket-granting ticket for the TGS at LCS.MIT.EDU (sealed in the shared
//! inter-realm key), presents it there, and receives a service ticket whose
//! client realm is the realm of *original* authentication.

use kerberos::{
    build_as_req, build_tgs_req_with, krb_mk_req, krb_rd_req, read_as_reply_with_password,
    read_tgs_reply_with, ErrorCode, Principal, ReplayCache,
};
use krb_crypto::{string_to_key, Scheduled};
use krb_kdb::{MemStore, PrincipalDb};
use krb_kdc::{fixed_clock, Kdc, KdcRole, RealmConfig};

const ATHENA: &str = "ATHENA.MIT.EDU";
const LCS: &str = "LCS.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS: [u8; 4] = [18, 72, 0, 5];

fn realm_db(realm: &str, master_pw: &str, extra: &[(&str, &str, &str)]) -> PrincipalDb<MemStore> {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key(master_pw), NOW).unwrap();
    let far = NOW * 3;
    db.add_principal("krbtgt", realm, &string_to_key(&format!("tgs-{realm}")), far, 96, NOW, "i.")
        .unwrap();
    for (n, i, pw) in extra {
        db.add_principal(n, i, &string_to_key(pw), far, 96, NOW, "i.").unwrap();
    }
    db
}

fn paired_kdcs() -> (Kdc<MemStore>, Kdc<MemStore>) {
    let mut athena_cfg = RealmConfig::new(ATHENA);
    let mut lcs_cfg = RealmConfig::new(LCS);
    krb_kdc::pair_realms(&mut athena_cfg, &mut lcs_cfg, string_to_key("athena-lcs-shared")).unwrap();

    let athena_db = realm_db(ATHENA, "ma", &[("steiner", "", "steiner-pw")]);
    let lcs_db = realm_db(LCS, "ml", &[("supdup", "zeus", "supdup-srvtab")]);
    (
        Kdc::new(athena_db, athena_cfg, fixed_clock(NOW), KdcRole::Master, 1),
        Kdc::new(lcs_db, lcs_cfg, fixed_clock(NOW), KdcRole::Master, 2),
    )
}

#[test]
fn athena_user_reaches_lcs_service() {
    let (athena, lcs) = paired_kdcs();
    let user = Principal::parse("steiner", ATHENA).unwrap();

    // Phase 1: local login.
    let as_req = build_as_req(&user, &Principal::tgs(ATHENA, ATHENA), 96, NOW);
    let tgt = read_as_reply_with_password(&athena.handle(&as_req, WS), "steiner-pw", NOW).unwrap();
    let tgt_sched = Scheduled::new(&tgt.key());

    // Phase 2a: ask the LOCAL TGS for a TGT for the REMOTE realm.
    let remote_tgs = Principal::tgs(LCS, ATHENA);
    let req = build_tgs_req_with(&tgt, &tgt_sched, &user, WS, NOW + 1, &remote_tgs, 96);
    let remote_tgt = read_tgs_reply_with(&athena.handle(&req, WS), &tgt_sched, NOW + 1).unwrap();
    let remote_tgt_sched = Scheduled::new(&remote_tgt.key());
    assert_eq!(remote_tgt.service.name, "krbtgt");
    assert_eq!(remote_tgt.service.instance, LCS);
    assert_eq!(remote_tgt.issuing_realm, ATHENA, "issued by the local realm");

    // Phase 2b: present it to the REMOTE TGS for a service there.
    let supdup = Principal::parse("supdup.zeus", LCS).unwrap();
    let req = build_tgs_req_with(&remote_tgt, &remote_tgt_sched, &user, WS, NOW + 2, &supdup, 96);
    let cred = read_tgs_reply_with(&lcs.handle(&req, WS), &remote_tgt_sched, NOW + 2).unwrap();

    // Phase 3: the LCS service accepts, and sees the ORIGINAL realm.
    let rc = ReplayCache::new();
    let ap = krb_mk_req(&cred.ticket, &cred.issuing_realm, &cred.key(), &user, WS, NOW + 3, 0, false);
    let v = krb_rd_req(&ap, &supdup, &Scheduled::new(&string_to_key("supdup-srvtab")), WS, NOW + 3, &rc, None).unwrap();
    assert_eq!(v.client.realm, ATHENA, "realm of original authentication is preserved");
    assert_eq!(v.client.name, "steiner");
}

#[test]
fn unpaired_realm_is_refused() {
    let (athena, _) = paired_kdcs();
    let user = Principal::parse("steiner", ATHENA).unwrap();
    let as_req = build_as_req(&user, &Principal::tgs(ATHENA, ATHENA), 96, NOW);
    let tgt = read_as_reply_with_password(&athena.handle(&as_req, WS), "steiner-pw", NOW).unwrap();
    let tgt_sched = Scheduled::new(&tgt.key());

    let stranger_tgs = Principal::tgs("EVIL.ORG", ATHENA);
    let req = build_tgs_req_with(&tgt, &tgt_sched, &user, WS, NOW + 1, &stranger_tgs, 96);
    assert_eq!(
        read_tgs_reply_with(&athena.handle(&req, WS), &tgt_sched, NOW + 1).unwrap_err(),
        ErrorCode::KdcUnknownRealm
    );
}

#[test]
fn local_tgt_does_not_work_at_remote_realm() {
    // The ATHENA TGT is sealed in ATHENA's krbtgt key; presenting it to LCS
    // claiming it came from ATHENA makes LCS try the inter-realm key, which
    // fails to decrypt a local TGT.
    let (athena, lcs) = paired_kdcs();
    let user = Principal::parse("steiner", ATHENA).unwrap();
    let as_req = build_as_req(&user, &Principal::tgs(ATHENA, ATHENA), 96, NOW);
    let tgt = read_as_reply_with_password(&athena.handle(&as_req, WS), "steiner-pw", NOW).unwrap();
    let tgt_sched = Scheduled::new(&tgt.key());

    let supdup = Principal::parse("supdup.zeus", LCS).unwrap();
    let req = build_tgs_req_with(&tgt, &tgt_sched, &user, WS, NOW + 1, &supdup, 96);
    let err = read_tgs_reply_with(&lcs.handle(&req, WS), &tgt_sched, NOW + 1).unwrap_err();
    assert_eq!(err, ErrorCode::RdApNotUs);
}

#[test]
fn remote_user_ticket_is_distinguishable_by_service() {
    // "Services in the remote realm can choose whether to honor those
    // credentials" — the service sees client.realm != its own realm and may
    // apply its own policy.
    let (athena, lcs) = paired_kdcs();
    let user = Principal::parse("steiner", ATHENA).unwrap();
    let as_req = build_as_req(&user, &Principal::tgs(ATHENA, ATHENA), 96, NOW);
    let tgt = read_as_reply_with_password(&athena.handle(&as_req, WS), "steiner-pw", NOW).unwrap();
    let tgt_sched = Scheduled::new(&tgt.key());
    let remote_tgs = Principal::tgs(LCS, ATHENA);
    let req = build_tgs_req_with(&tgt, &tgt_sched, &user, WS, NOW + 1, &remote_tgs, 96);
    let remote_tgt = read_tgs_reply_with(&athena.handle(&req, WS), &tgt_sched, NOW + 1).unwrap();
    let remote_tgt_sched = Scheduled::new(&remote_tgt.key());
    let supdup = Principal::parse("supdup.zeus", LCS).unwrap();
    let req = build_tgs_req_with(&remote_tgt, &remote_tgt_sched, &user, WS, NOW + 2, &supdup, 96);
    let cred = read_tgs_reply_with(&lcs.handle(&req, WS), &remote_tgt_sched, NOW + 2).unwrap();

    let rc = ReplayCache::new();
    let ap = krb_mk_req(&cred.ticket, &cred.issuing_realm, &cred.key(), &user, WS, NOW + 3, 0, false);
    let v = krb_rd_req(&ap, &supdup, &Scheduled::new(&string_to_key("supdup-srvtab")), WS, NOW + 3, &rc, None).unwrap();
    // Policy hook: a paranoid LCS service refuses foreign realms.
    let honor_foreign = false;
    let decision = honor_foreign || v.client.realm == LCS;
    assert!(!decision, "paranoid service declines ATHENA-realm credentials");
}

#[test]
fn realm_chaining_is_refused() {
    // §7.2's closing paragraph: hopping A -> B -> C would require the
    // ticket to record the whole path; V4 tickets cannot, so the remote
    // TGS refuses to issue onward cross-realm TGTs to foreign clients.
    const SIPB: &str = "SIPB.MIT.EDU";
    let mut athena_cfg = RealmConfig::new(ATHENA);
    let mut lcs_cfg = RealmConfig::new(LCS);
    krb_kdc::pair_realms(&mut athena_cfg, &mut lcs_cfg, string_to_key("a-l")).unwrap();
    // LCS also pairs with a third realm.
    let mut sipb_cfg = RealmConfig::new(SIPB);
    krb_kdc::pair_realms(&mut lcs_cfg, &mut sipb_cfg, string_to_key("l-s")).unwrap();

    let athena_db = realm_db(ATHENA, "ma", &[("steiner", "", "steiner-pw")]);
    let lcs_db = realm_db(LCS, "ml", &[]);
    let athena = Kdc::new(athena_db, athena_cfg, fixed_clock(NOW), KdcRole::Master, 11);
    let lcs = Kdc::new(lcs_db, lcs_cfg, fixed_clock(NOW), KdcRole::Master, 12);

    // Athena user gets a TGT for LCS (one hop: fine).
    let user = Principal::parse("steiner", ATHENA).unwrap();
    let as_req = build_as_req(&user, &Principal::tgs(ATHENA, ATHENA), 96, NOW);
    let tgt = read_as_reply_with_password(&athena.handle(&as_req, WS), "steiner-pw", NOW).unwrap();
    let tgt_sched = Scheduled::new(&tgt.key());
    let req = build_tgs_req_with(&tgt, &tgt_sched, &user, WS, NOW + 1, &Principal::tgs(LCS, ATHENA), 96);
    let lcs_tgt = read_tgs_reply_with(&athena.handle(&req, WS), &tgt_sched, NOW + 1).unwrap();
    let lcs_tgt_sched = Scheduled::new(&lcs_tgt.key());

    // Second hop: ask LCS for a TGT for SIPB. Refused — the path would be
    // unrecorded.
    let req = build_tgs_req_with(&lcs_tgt, &lcs_tgt_sched, &user, WS, NOW + 2, &Principal::tgs(SIPB, LCS), 96);
    assert_eq!(
        read_tgs_reply_with(&lcs.handle(&req, WS), &lcs_tgt_sched, NOW + 2).unwrap_err(),
        ErrorCode::KdcUnknownRealm
    );
}
