//! The §6.2 client/server split over an actual (simulated) network: the
//! AP_REQ produced by krb_mk_req travels inside datagrams, the services
//! answer on well-known ports, and POP mail comes back sealed in the
//! session key.

use kerberos::{ErrorCode, Principal};
use krb_apps::{
    frame_request, open_pop_reply, parse_reply, request_cksum, Mail, PopNetService, PopServer,
    RloginNetService, RloginServer, ZephyrNetService, ZephyrServer,
};
use krb_crypto::{KeyGenerator, Scheduled};
use krb_kdc::{Deployment, RealmConfig};
use krb_netsim::{ports, Endpoint, NetConfig, Router, SimNet};
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];
const PRIAM: [u8; 4] = [18, 72, 0, 40];
const PARIS: [u8; 4] = [18, 72, 0, 41];
const ZION: [u8; 4] = [18, 72, 0, 42];

struct Net {
    router: Router,
    dep: Deployment,
}

fn build() -> Net {
    let mut boot = kdb_init(REALM, "master", NOW, 80).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", NOW).unwrap();
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(81));
    let rcmd_key = register_service(&mut boot.db, "rcmd", "priam", NOW, &mut keygen).unwrap();
    let pop_key = register_service(&mut boot.db, "pop", "paris", NOW, &mut keygen).unwrap();
    let zephyr_key = register_service(&mut boot.db, "zephyr", "zion", NOW, &mut keygen).unwrap();

    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 0, NOW,
    ).unwrap();
    let clock = || krb_kdc::shared_clock(Arc::clone(&dep.clock_cell));

    let rlogin = RloginServer::new(Principal::parse("rcmd.priam", REALM).unwrap(), rcmd_key);
    router.serve(Endpoint::new(PRIAM, ports::KLOGIN), RloginNetService::new(rlogin, clock()));

    let mut pop = PopServer::new(Principal::parse("pop.paris", REALM).unwrap(), pop_key);
    pop.deliver("bcn", Mail { from: "jis".into(), body: "the tapes arrived".into() });
    pop.deliver("jis", Mail { from: "x".into(), body: "not for bcn".into() });
    router.serve(Endpoint::new(PARIS, ports::POP), PopNetService::new(pop, clock()));

    let mut zephyr = ZephyrServer::new(Principal::parse("zephyr.zion", REALM).unwrap(), zephyr_key);
    zephyr.subscribe("jis");
    router.serve(Endpoint::new(ZION, ports::ZEPHYR), ZephyrNetService::new(zephyr, clock()));

    Net { router, dep }
}

fn workstation(net: &Net) -> Workstation {
    Workstation::new(
        WS_ADDR, REALM, net.dep.kdc_endpoints(),
        krb_kdc::shared_clock(Arc::clone(&net.dep.clock_cell)),
    )
}

#[test]
fn rlogin_over_the_wire_with_mutual_auth() {
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    // The binding checksum is keyed with the session key, so fetch the
    // service ticket first (mk_request reuses the cached credential).
    let cred = ws.get_service_ticket(&mut net.router, &rcmd).unwrap();
    let cksum = request_cksum(&cred.key(), "login", b"bcn");
    let (ap, cred) = ws.mk_request(&mut net.router, &rcmd, cksum, true).unwrap();
    // Recover the authenticator timestamp for the mutual-auth check.
    let auth = kerberos::SealedAuthenticator(ap.authenticator.clone())
        .open_with(&Scheduled::new(&cred.key()))
        .unwrap();

    let req = frame_request(&ap, "login", b"bcn");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(PRIAM, ports::KLOGIN), &req)
        .unwrap();
    let rep_payload = parse_reply(&reply).unwrap();
    assert!(!rep_payload.is_empty(), "mutual-auth reply expected");
    kerberos::krb_rd_rep(
        &kerberos::ApRep { enc_part: rep_payload },
        &cred.key(),
        auth.timestamp,
    )
    .unwrap();
}

#[test]
fn rsh_over_the_wire() {
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &rcmd).unwrap();
    let cksum = request_cksum(&cred.key(), "rsh", b"bcn\0uptime");
    let (ap, _) = ws.mk_request(&mut net.router, &rcmd, cksum, false).unwrap();
    let req = frame_request(&ap, "rsh", b"bcn\0uptime");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(PRIAM, ports::KLOGIN), &req)
        .unwrap();
    let out = parse_reply(&reply).unwrap();
    assert_eq!(out, b"bcn@priam: uptime");
}

#[test]
fn pop_reply_is_sealed_and_only_ours() {
    let mut net = build();
    let captured = net.router.net().add_capture();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let pop_svc = Principal::parse("pop.paris", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &pop_svc).unwrap();
    let cksum = request_cksum(&cred.key(), "retrieve", b"");
    let (ap, cred) = ws.mk_request(&mut net.router, &pop_svc, cksum, false).unwrap();
    let req = frame_request(&ap, "retrieve", b"");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(PARIS, ports::POP), &req)
        .unwrap();
    let mail = open_pop_reply(&reply, &cred.key(), PARIS, ws.now()).unwrap();
    assert_eq!(mail.len(), 1);
    assert_eq!(mail[0].body, "the tapes arrived");

    // The mail body never crossed the wire in cleartext.
    let wire = captured.lock();
    assert!(
        !wire.iter().any(|p| p
            .payload
            .windows("the tapes arrived".len())
            .any(|w| w == b"the tapes arrived")),
        "mail content leaked in cleartext"
    );
}

#[test]
fn zephyr_over_the_wire() {
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let z = Principal::parse("zephyr.zion", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &z).unwrap();
    let cksum = request_cksum(&cred.key(), "send", b"jis\0MESSAGE\0lunch?");
    let (ap, _) = ws.mk_request(&mut net.router, &z, cksum, false).unwrap();
    let req = frame_request(&ap, "send", b"jis\0MESSAGE\0lunch?");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(ZION, ports::ZEPHYR), &req)
        .unwrap();
    assert!(parse_reply(&reply).is_ok());
}

#[test]
fn junk_datagrams_get_clean_errors() {
    let mut net = build();
    let ws = workstation(&net);
    for target in [
        Endpoint::new(PRIAM, ports::KLOGIN),
        Endpoint::new(PARIS, ports::POP),
        Endpoint::new(ZION, ports::ZEPHYR),
    ] {
        let reply = net.router.rpc(ws.endpoint, target, b"garbage").unwrap();
        assert_eq!(parse_reply(&reply).unwrap_err(), ErrorCode::RdApUndec);
    }
}

#[test]
fn rewritten_rsh_command_is_refused() {
    // The command rides in cleartext next to the AP_REQ; binding its
    // checksum into the sealed authenticator means an on-path attacker
    // cannot substitute `rm -rf` for `uptime` in flight.
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &rcmd).unwrap();
    let cksum = request_cksum(&cred.key(), "rsh", b"bcn\0uptime");
    let (ap, _) = ws.mk_request(&mut net.router, &rcmd, cksum, false).unwrap();
    // The attacker rewrites the payload but cannot touch the sealed cksum,
    // and — the checksum being keyed — cannot compute a matching one for
    // the substitute command either.
    let forged = frame_request(&ap, "rsh", b"bcn\0rm -rf /");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(PRIAM, ports::KLOGIN), &forged)
        .unwrap();
    assert_eq!(
        parse_reply(&reply).unwrap_err(),
        ErrorCode::RdApModified,
        "tampered command must be refused"
    );
}

#[test]
fn replayed_wire_request_is_refused() {
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &rcmd).unwrap();
    let cksum = request_cksum(&cred.key(), "rsh", b"bcn\0cat /etc/passwd");
    let (ap, _) = ws.mk_request(&mut net.router, &rcmd, cksum, false).unwrap();
    let req = frame_request(&ap, "rsh", b"bcn\0cat /etc/passwd");
    let ep = Endpoint::new(PRIAM, ports::KLOGIN);
    assert!(parse_reply(&net.router.rpc(ws.endpoint, ep, &req).unwrap()).is_ok());
    // Captured and resent byte-for-byte.
    let again = net.router.rpc(ws.endpoint, ep, &req).unwrap();
    assert!(parse_reply(&again).is_err(), "replay must be refused");
}

#[test]
fn unbound_requests_with_side_effects_are_refused() {
    // A cksum of 0 means the client never bound the payload. The network
    // services refuse such requests outright — accepting them would be a
    // silent downgrade an attacker could exploit with any client that
    // forgot to bind.
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut net.router, &rcmd, 0, false).unwrap();
    let req = frame_request(&ap, "rsh", b"bcn\0uptime");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(PRIAM, ports::KLOGIN), &req)
        .unwrap();
    assert_eq!(parse_reply(&reply).unwrap_err(), ErrorCode::RdApModified);
}

#[test]
fn tampered_retrieve_does_not_drain_mailbox() {
    // Regression: the binding check must run before the destructive
    // mailbox drain. A tampered retrieve is refused AND the legitimate
    // client's retry still finds its mail — detectable tampering must not
    // become attacker-triggered data loss.
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let pop_svc = Principal::parse("pop.paris", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &pop_svc).unwrap();
    let cksum = request_cksum(&cred.key(), "retrieve", b"");
    let (ap, _) = ws.mk_request(&mut net.router, &pop_svc, cksum, false).unwrap();
    // The attacker rewrites the payload in flight.
    let forged = frame_request(&ap, "retrieve", b"give-me-jis-mail");
    let pop_ep = Endpoint::new(PARIS, ports::POP);
    let reply = net.router.rpc(ws.endpoint, pop_ep, &forged).unwrap();
    assert_eq!(parse_reply(&reply).unwrap_err(), ErrorCode::RdApModified);

    // The legitimate client retries with a fresh authenticator and gets
    // its mail: the tampered request deleted nothing.
    let (ap, cred) = ws.mk_request(&mut net.router, &pop_svc, cksum, false).unwrap();
    let req = frame_request(&ap, "retrieve", b"");
    let reply = net.router.rpc(ws.endpoint, pop_ep, &req).unwrap();
    let mail = open_pop_reply(&reply, &cred.key(), PARIS, ws.now()).unwrap();
    assert_eq!(mail.len(), 1, "mailbox must survive a tampered retrieve");
    assert_eq!(mail[0].body, "the tapes arrived");
}
