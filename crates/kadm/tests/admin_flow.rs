//! End-to-end administration protocol tests (paper §5, Figures 11–12;
//! experiment E10).

use kerberos::{
    build_as_req, build_tgs_req_with, read_as_reply_with_password, read_tgs_reply_with, ErrorCode,
    Principal,
};
use krb_crypto::{string_to_key, Scheduled};
use krb_kadm::{
    build_admin_request, build_kdbm_ticket_request, kadmin_add_op, kadmin_cpw_op, kpasswd_op,
    read_admin_reply, read_kdbm_ticket_reply, Acl, KdbmServer,
};
use krb_kdb::{MemStore, PrincipalDb};
use krb_kdc::{fixed_clock, Kdc, KdcRole, RealmConfig};
use std::sync::Arc;

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS: [u8; 4] = [18, 72, 0, 5];

struct Rig {
    kdc: Arc<Kdc<MemStore>>,
    kdbm: KdbmServer<MemStore>,
}

fn rig() -> Rig {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("master"), NOW).unwrap();
    let far = NOW * 3;
    db.add_principal("krbtgt", REALM, &string_to_key("tgs"), far, 96, NOW, "i.").unwrap();
    db.add_principal("bcn", "", &string_to_key("bcn-pw"), far, 96, NOW, "i.").unwrap();
    db.add_principal("jis", "", &string_to_key("jis-pw"), far, 96, NOW, "i.").unwrap();
    db.add_principal("steiner", "admin", &string_to_key("steiner-admin-pw"), far, 96, NOW, "i.").unwrap();
    let kdc = Arc::new(Kdc::new(
        db,
        RealmConfig::new(REALM),
        fixed_clock(NOW),
        KdcRole::Master,
        5,
    ));
    KdbmServer::register_service(&kdc, &string_to_key("kdbm-svc"), NOW).unwrap();
    let mut acl = Acl::new();
    acl.add(&Principal::parse("steiner.admin", REALM).unwrap());
    let kdbm = KdbmServer::new(Arc::clone(&kdc), acl, fixed_clock(NOW)).unwrap();
    Rig { kdc, kdbm }
}

fn kdbm_cred(rig: &Rig, who: &str, password: &str) -> kerberos::Credential {
    let client = Principal::parse(who, REALM).unwrap();
    let req = build_kdbm_ticket_request(&client, NOW);
    let reply = rig.kdc.handle(&req, WS);
    read_kdbm_ticket_reply(&reply, password, NOW).unwrap()
}

#[test]
fn user_changes_own_password() {
    let mut r = rig();
    let client = Principal::parse("bcn", REALM).unwrap();
    let cred = kdbm_cred(&r, "bcn", "bcn-pw");
    let req = build_admin_request(&cred, &client, WS, NOW + 1, &kpasswd_op("bcn-new-pw"));
    read_admin_reply(&r.kdbm.handle(&req, WS)).unwrap();

    // Old password no longer works for login; new one does.
    let as_req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW + 2);
    let reply = r.kdc.handle(&as_req, WS);
    assert_eq!(
        read_as_reply_with_password(&reply, "bcn-pw", NOW + 2).unwrap_err(),
        ErrorCode::IntkBadPw
    );
    let as_req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW + 3);
    let reply = r.kdc.handle(&as_req, WS);
    assert!(read_as_reply_with_password(&reply, "bcn-new-pw", NOW + 3).is_ok());
}

#[test]
fn non_admin_cannot_change_others_password() {
    let mut r = rig();
    let client = Principal::parse("bcn", REALM).unwrap();
    let cred = kdbm_cred(&r, "bcn", "bcn-pw");
    let req = build_admin_request(&cred, &client, WS, NOW + 1, &kadmin_cpw_op("jis", "", "stolen"));
    assert_eq!(read_admin_reply(&r.kdbm.handle(&req, WS)).unwrap_err(), ErrorCode::KadmUnauth);
    // The denial is logged (§5.1: permitted or denied, all logged).
    let log = r.kdbm.audit_log();
    assert!(log.iter().any(|a| !a.permitted && a.requester.starts_with("bcn")));
}

#[test]
fn admin_instance_on_acl_can_administer() {
    let mut r = rig();
    let admin = Principal::parse("steiner.admin", REALM).unwrap();
    let cred = kdbm_cred(&r, "steiner.admin", "steiner-admin-pw");

    // Add a brand-new principal.
    let req = build_admin_request(
        &cred, &admin, WS, NOW + 1,
        &kadmin_add_op("newbie", "", "newbie-pw", NOW * 2, 96),
    );
    read_admin_reply(&r.kdbm.handle(&req, WS)).unwrap();

    // Change another user's password.
    let req = build_admin_request(&cred, &admin, WS, NOW + 2, &kadmin_cpw_op("jis", "", "jis-new"));
    read_admin_reply(&r.kdbm.handle(&req, WS)).unwrap();

    // Both take effect.
    let newbie = Principal::parse("newbie", REALM).unwrap();
    let as_req = build_as_req(&newbie, &Principal::tgs(REALM, REALM), 96, NOW + 3);
    let reply = r.kdc.handle(&as_req, WS);
    assert!(read_as_reply_with_password(&reply, "newbie-pw", NOW + 3).is_ok());

    let log = r.kdbm.audit_log();
    assert_eq!(log.len(), 2);
    assert!(log.iter().all(|a| a.permitted));
}

#[test]
fn plain_instance_not_on_acl_even_if_admin_of_nothing() {
    // steiner (NULL instance) is NOT on the ACL — only steiner.admin is.
    // §5.1: "names with a NULL instance ... do not appear in the access
    // control list file; instead, an admin instance is used."
    let mut r = rig();
    r.kdc
        .with_db_mut(|db| {
            db.add_principal("steiner", "", &string_to_key("steiner-pw"), NOW * 3, 96, NOW, "i.")
                .unwrap();
        })
        .unwrap();
    let steiner = Principal::parse("steiner", REALM).unwrap();
    let cred = kdbm_cred(&r, "steiner", "steiner-pw");
    let req = build_admin_request(&cred, &steiner, WS, NOW + 1, &kadmin_cpw_op("jis", "", "x"));
    assert_eq!(read_admin_reply(&r.kdbm.handle(&req, WS)).unwrap_err(), ErrorCode::KadmUnauth);
}

#[test]
fn tgs_issued_ticket_rejected_by_kdbm() {
    // A passerby at an unattended workstation has the TGT but not the
    // password. The TGS refuses to issue KDBM tickets, and even a
    // long-lived ticket smuggled through would be rejected by the KDBM's
    // lifetime check.
    let r = rig();
    let client = Principal::parse("bcn", REALM).unwrap();
    let tgt = {
        let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
        let reply = r.kdc.handle(&req, WS);
        read_as_reply_with_password(&reply, "bcn-pw", NOW).unwrap()
    };
    let tgt_sched = Scheduled::new(&tgt.key());
    let kdbm_svc = Principal::kdbm(REALM);
    let tgs_req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW + 1, &kdbm_svc, 12);
    let reply = r.kdc.handle(&tgs_req, WS);
    assert_eq!(
        read_tgs_reply_with(&reply, &tgt_sched, NOW + 1).unwrap_err(),
        ErrorCode::KdcNoTgsForService
    );
}

#[test]
fn kdbm_refuses_to_run_on_slave() {
    let r = rig();
    let dump = r.kdc.dump_text().unwrap();
    let records = krb_kdb::dump::parse(&dump).unwrap();
    let mut store = MemStore::new();
    krb_kdb::dump::install(&mut store, records).unwrap();
    let db = PrincipalDb::open(store, string_to_key("master")).unwrap();
    let slave = Arc::new(Kdc::new(
        db, RealmConfig::new(REALM), fixed_clock(NOW), KdcRole::Slave, 9,
    ));
    assert_eq!(
        KdbmServer::new(slave, Acl::new(), fixed_clock(NOW)).err(),
        Some(ErrorCode::KadmUnauth)
    );
}

#[test]
fn admin_request_replay_rejected() {
    let mut r = rig();
    let client = Principal::parse("bcn", REALM).unwrap();
    let cred = kdbm_cred(&r, "bcn", "bcn-pw");
    let req = build_admin_request(&cred, &client, WS, NOW + 1, &kpasswd_op("first"));
    read_admin_reply(&r.kdbm.handle(&req, WS)).unwrap();
    assert_eq!(
        read_admin_reply(&r.kdbm.handle(&req, WS)).unwrap_err(),
        ErrorCode::RdApRepeat
    );
}

#[test]
fn acl_file_round_trip() {
    let mut acl = Acl::new();
    acl.add(&Principal::parse("steiner.admin", REALM).unwrap());
    acl.add(&Principal::parse("jis.admin", REALM).unwrap());
    let text = acl.to_file();
    let parsed = Acl::from_file(&text, REALM).unwrap();
    assert!(parsed.contains(&Principal::parse("steiner.admin", REALM).unwrap()));
    assert!(parsed.contains(&Principal::parse("jis.admin", REALM).unwrap()));
    assert!(!parsed.contains(&Principal::parse("bcn", REALM).unwrap()));

    // Comments and blanks are tolerated.
    let with_comments = format!("# admins\n\n{text}");
    assert!(Acl::from_file(&with_comments, REALM).is_ok());
}

#[test]
fn admin_protocol_over_the_network() {
    // Figure 11: "The client side of the program may be run on any machine
    // on the network. The server side, however, must run on the machine
    // housing the Kerberos database." Here both KDC and KDBM answer on
    // network endpoints; the kpasswd client speaks only datagrams.
    use krb_kadm::KdbmService;
    use krb_netsim::{ports, Endpoint, NetConfig, Router, SimNet};

    let r = rig();
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let master_host = [18, 72, 0, 10];
    let kdc_ep = Endpoint::new(master_host, ports::KDC);
    let kdbm_ep = Endpoint::new(master_host, ports::KADM);
    router.serve(kdc_ep, krb_kdc::KdcService(Arc::clone(&r.kdc)));
    router.serve(kdbm_ep, KdbmService(Arc::new(parking_lot::Mutex::new(r.kdbm))));

    let ws_ep = Endpoint::new(WS, 1021);
    let client = Principal::parse("bcn", REALM).unwrap();

    // kpasswd over the wire: AS ticket from the KDC endpoint...
    let req = krb_kadm::build_kdbm_ticket_request(&client, NOW);
    let reply = router.rpc(ws_ep, kdc_ep, &req).unwrap();
    let cred = krb_kadm::read_kdbm_ticket_reply(&reply, "bcn-pw", NOW).unwrap();
    // ...then the sealed admin request to the KDBM endpoint.
    let admin =
        krb_kadm::build_admin_request(&cred, &client, WS, NOW + 1, &krb_kadm::kpasswd_op("net-pw"));
    let reply = router.rpc(ws_ep, kdbm_ep, &admin).unwrap();
    krb_kadm::read_admin_reply(&reply).unwrap();

    // The change took effect on the shared master database.
    let as_req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW + 2);
    let reply = router.rpc(ws_ep, kdc_ep, &as_req).unwrap();
    assert!(read_as_reply_with_password(&reply, "net-pw", NOW + 2).is_ok());
}
