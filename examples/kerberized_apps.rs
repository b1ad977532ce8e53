//! The §7.1 application tour: rlogin with `.rhosts` fallback, the
//! Kerberized Post Office Protocol, Zephyr notices with authenticated
//! senders, and signing up a new user with `register` (SMS + Kerberos),
//! plus a kpasswd password change through the KDBM (§5).
//!
//! The servers are called in-process here, so every operation passes no
//! payload binding and no trace context (`None, None`); over the network,
//! `NetService` passes both (see `crates/apps/tests/over_the_wire.rs`).
//!
//! Run with: `cargo run --example kerberized_apps`

use athena_kerberos::apps::{Mail, PopServer, RloginServer, Sms, ZephyrServer};
use athena_kerberos::kadm::{
    build_admin_request, build_kdbm_ticket_request, kpasswd_op, read_admin_reply,
    read_kdbm_ticket_reply, Acl, KdbmServer,
};
use athena_kerberos::kdc::{Deployment, RealmConfig};
use athena_kerberos::krb::Principal;
use athena_kerberos::netsim::{NetConfig, Router, SimNet};
use athena_kerberos::tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const REALM: &str = "ATHENA.MIT.EDU";
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];

fn main() {
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "master", start, 50).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    register_user(&mut boot.db, "jis", "", "jis-pw", start).unwrap();
    let mut keygen = athena_kerberos::crypto::KeyGenerator::new(StdRng::seed_from_u64(51));
    let rcmd_key = register_service(&mut boot.db, "rcmd", "priam", start, &mut keygen).unwrap();
    let pop_key = register_service(&mut boot.db, "pop", "paris", start, &mut keygen).unwrap();
    let zephyr_key = register_service(&mut boot.db, "zephyr", "zion", start, &mut keygen).unwrap();

    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, start,
    ).unwrap();
    // The KDBM runs on the master only (§5, Fig. 11).
    KdbmServer::register_service(&dep.master, &keygen.generate(), start).unwrap();
    let mut kdbm = KdbmServer::new(
        std::sync::Arc::clone(&dep.master),
        Acl::new(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    )
    .unwrap();

    let mut ws = Workstation::new(
        WS_ADDR, REALM, dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    );
    ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
    println!("== logged in as {} ==", ws.whoami().unwrap());

    // --- rlogin: Kerberos first, .rhosts fallback (§7.1).
    let mut rlogin = RloginServer::new(Principal::parse("rcmd.priam", REALM).unwrap(), rcmd_key);
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut router, &rcmd, 0, false).unwrap();
    let session = rlogin.connect(Some(&ap), "bcn", WS_ADDR, ws.now(), None, None).unwrap();
    println!("rlogin: authorized {} via {:?} (no .rhosts needed)", session.user, session.method);
    rlogin.add_rhosts("jis", [18, 72, 0, 7]);
    let fallback = rlogin.connect(None, "jis", [18, 72, 0, 7], ws.now(), None, None).unwrap();
    println!("rlogin: authorized {} via {:?} (old world)", fallback.user, fallback.method);

    // --- POP: only your own mailbox (§7.1). A retrieve hands over as much
    // mail as fits one reply; `deliver` refuses a mail no reply could carry.
    let mut pop = PopServer::new(Principal::parse("pop.paris", REALM).unwrap(), pop_key);
    pop.deliver("bcn", Mail { from: "jis".into(), body: "4.3BSD tapes arrived".into() }).unwrap();
    let pop_svc = Principal::parse("pop.paris", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut router, &pop_svc, 0, false).unwrap();
    let (mail, _) = pop.retrieve(&ap, WS_ADDR, ws.now(), None, None).unwrap();
    println!("pop: retrieved {} message(s): {:?}", mail.len(), mail[0].body);

    // --- Zephyr: authenticated notices (§7.1).
    let mut zephyr = ZephyrServer::new(Principal::parse("zephyr.zion", REALM).unwrap(), zephyr_key);
    zephyr.subscribe("jis");
    let z = Principal::parse("zephyr.zion", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut router, &z, 0, false).unwrap();
    zephyr.send(&ap, WS_ADDR, ws.now(), "jis", "MESSAGE", "lunch at walker?", None, None).unwrap();
    let notices = zephyr.receive("jis");
    println!("zephyr: jis received from {}: {:?}", notices[0].from, notices[0].body);

    // --- register: SMS validity + Kerberos uniqueness (§7.1).
    let mut sms = Sms::new();
    sms.enroll("Window Treese", "912345678");
    athena_kerberos::apps::register(&sms, &dep.master, "Window Treese", "912345678", "treese", "treese-pw", ws.now())
        .unwrap();
    println!("register: created principal 'treese' after SMS + uniqueness checks");

    // --- kpasswd: change a password through the KDBM (§5.2, Fig. 12).
    // A fresh KDBM ticket must come from the AS — the password is typed again.
    let client = Principal::parse("bcn", REALM).unwrap();
    let now = ws.now();
    let req = build_kdbm_ticket_request(&client, now);
    let reply = router.rpc(ws.endpoint, dep.kdc_endpoints()[0], &req).unwrap();
    let cred = read_kdbm_ticket_reply(&reply, "bcn-pw", now).unwrap();
    let admin_req = build_admin_request(&cred, &client, WS_ADDR, now, &kpasswd_op("bcn-new-pw"));
    read_admin_reply(&kdbm.handle(&admin_req, WS_ADDR)).unwrap();
    println!("kpasswd: password changed (audit log has {} entry)", kdbm.audit_log().len());

    // The new password works; the old one is dead.
    let mut ws2 = Workstation::new(
        [18, 72, 0, 6], REALM, dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    );
    assert!(ws2.kinit(&mut router, "bcn", "bcn-pw").is_err());
    ws2.kinit(&mut router, "bcn", "bcn-new-pw").unwrap();
    println!("login with new password: ok");
}
