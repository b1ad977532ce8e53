//! The §6.2 client/server split over an actual (simulated) network: the
//! AP_REQ produced by krb_mk_req travels inside datagrams, the services
//! answer on well-known ports, and POP mail comes back sealed in the
//! session key.

use kerberos::{ApReq, EncryptedTicket, ErrorCode, Principal};
use krb_apps::{
    frame_request, open_pop_reply, parse_reply, request_cksum, AppService, Mail, NetService,
    PopServer, RloginServer, ZephyrServer,
};
use krb_crypto::{KeyGenerator, Scheduled};
use krb_kdc::{Clock, Deployment, RealmConfig};
use krb_netsim::{ports, Endpoint, NetConfig, Packet, Router, Service, SimNet};
use krb_telemetry::Registry;
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];
const PRIAM: [u8; 4] = [18, 72, 0, 40];
const PARIS: [u8; 4] = [18, 72, 0, 41];
const ZION: [u8; 4] = [18, 72, 0, 42];

struct Net {
    router: Router,
    dep: Deployment,
    /// Every server's request and replay-cache counters.
    registry: Arc<Registry>,
    pop: Arc<Mutex<NetService<PopServer>>>,
    zephyr: Arc<Mutex<NetService<ZephyrServer>>>,
}

/// Serve `server` at `ep`, keeping a handle so a test can look inside it.
fn serve<S: AppService + 'static>(
    router: &mut Router,
    ep: Endpoint,
    server: S,
    clock: Clock,
) -> Arc<Mutex<NetService<S>>> {
    let svc = Arc::new(Mutex::new(NetService::new(server, clock)));
    let handle = Arc::clone(&svc);
    router.serve(ep, move |p: &Packet| svc.lock().unwrap().handle(p));
    handle
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
    let registry = Registry::shared();

    let mut rlogin = RloginServer::new(Principal::parse("rcmd.priam", REALM).unwrap(), rcmd_key);
    rlogin.set_telemetry(Arc::clone(&registry));
    // The old world trusts jis at the workstation: a Kerberos request
    // rewritten to claim jis must still not get in that way.
    rlogin.add_rhosts("jis", WS_ADDR);
    serve(&mut router, Endpoint::new(PRIAM, ports::KLOGIN), rlogin, clock());

    let mut pop = PopServer::new(Principal::parse("pop.paris", REALM).unwrap(), pop_key);
    pop.set_telemetry(Arc::clone(&registry));
    pop.deliver("bcn", Mail { from: "jis".into(), body: "the tapes arrived".into() }).unwrap();
    pop.deliver("jis", Mail { from: "x".into(), body: "not for bcn".into() }).unwrap();
    let pop = serve(&mut router, Endpoint::new(PARIS, ports::POP), pop, clock());

    let mut zephyr = ZephyrServer::new(Principal::parse("zephyr.zion", REALM).unwrap(), zephyr_key);
    zephyr.set_telemetry(Arc::clone(&registry));
    zephyr.subscribe("jis");
    let zephyr = serve(&mut router, Endpoint::new(ZION, ports::ZEPHYR), zephyr, clock());

    Net { router, dep, registry, pop, zephyr }
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
    // Well framed, but an op the server does not have or a payload it
    // cannot split: refused before the ticket (here an empty one) is
    // looked at, so the reply is not a ticket error and nothing counts.
    let ap = ApReq {
        realm: REALM.into(),
        ticket: EncryptedTicket(Vec::new()),
        authenticator: Vec::new(),
        mutual: false,
    };
    let junk = [
        b"garbage".to_vec(),
        frame_request(&ap, "rsh", b"bcn uptime"),
        frame_request(&ap, "send", b"jis\0MESSAGE"),
        frame_request(&ap, "finger", b"bcn"),
    ];
    for target in [
        Endpoint::new(PRIAM, ports::KLOGIN),
        Endpoint::new(PARIS, ports::POP),
        Endpoint::new(ZION, ports::ZEPHYR),
    ] {
        for datagram in &junk {
            let reply = net.router.rpc(ws.endpoint, target, datagram).unwrap();
            assert_eq!(parse_reply(&reply).unwrap_err(), ErrorCode::RdApUndec);
        }
    }
    let rendered = net.registry.render();
    for app in ["rlogin", "pop", "zephyr"] {
        for outcome in ["ok", "err"] {
            let name = format!("{app}_requests_{outcome}_total");
            assert!(rendered.contains(&name), "{name} not published");
            assert_eq!(net.registry.counter_value(&name), 0, "{name}");
        }
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

#[test]
fn rebound_login_is_refused_without_rhosts_fallback() {
    // bcn's login is rewritten in flight to claim jis, whom `.rhosts`
    // trusts at this very address. The ticket is good but no longer bound
    // to the payload: the server refuses it and does not retry the
    // request under `.rhosts`.
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &rcmd).unwrap();
    let cksum = request_cksum(&cred.key(), "login", b"bcn");
    let (ap, _) = ws.mk_request(&mut net.router, &rcmd, cksum, false).unwrap();
    let forged = frame_request(&ap, "login", b"jis");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(PRIAM, ports::KLOGIN), &forged)
        .unwrap();
    assert_eq!(parse_reply(&reply).unwrap_err(), ErrorCode::RdApModified);
}

#[test]
fn rebound_zephyr_send_is_refused_and_queues_nothing() {
    let mut net = build();
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let z = Principal::parse("zephyr.zion", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &z).unwrap();
    let cksum = request_cksum(&cred.key(), "send", b"jis\0MESSAGE\0lunch?");
    let (ap, _) = ws.mk_request(&mut net.router, &z, cksum, false).unwrap();
    let forged = frame_request(&ap, "send", b"jis\0MESSAGE\0the exam is cancelled");
    let reply = net
        .router
        .rpc(ws.endpoint, Endpoint::new(ZION, ports::ZEPHYR), &forged)
        .unwrap();
    assert_eq!(parse_reply(&reply).unwrap_err(), ErrorCode::RdApModified);
    assert!(net.zephyr.lock().unwrap().server.receive("jis").is_empty());
}

/// Retrieve bcn's mail over the wire until a reply comes back empty.
fn retrieve_all(net: &mut Net, ws: &mut Workstation) -> Vec<Vec<Mail>> {
    let pop_svc = Principal::parse("pop.paris", REALM).unwrap();
    let cred = ws.get_service_ticket(&mut net.router, &pop_svc).unwrap();
    let cksum = request_cksum(&cred.key(), "retrieve", b"");
    let mut replies = Vec::new();
    loop {
        let (ap, cred) = ws.mk_request(&mut net.router, &pop_svc, cksum, false).unwrap();
        let req = frame_request(&ap, "retrieve", b"");
        let reply =
            net.router.rpc(ws.endpoint, Endpoint::new(PARIS, ports::POP), &req).unwrap();
        let mail = open_pop_reply(&reply, &cred.key(), PARIS, ws.now()).unwrap();
        if mail.is_empty() {
            return replies;
        }
        assert!(replies.len() < 10, "retrieve never drains the mailbox");
        replies.push(mail);
    }
}

#[test]
fn a_mailbox_larger_than_one_reply_comes_back_whole_over_several_retrieves() {
    // 100 mails of 1,000 bytes do not fit one private message (its data
    // has a 2-byte length). Each retrieve hands over the longest prefix
    // that fits and leaves the rest; none is lost or repeated.
    let mut net = build();
    let mut expected = vec![Mail { from: "jis".into(), body: "the tapes arrived".into() }];
    for i in 0..100 {
        let mail = Mail { from: format!("sender{i}"), body: format!("{i:04}").repeat(250) };
        net.pop.lock().unwrap().server.deliver("bcn", mail.clone()).unwrap();
        expected.push(mail);
    }
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let replies = retrieve_all(&mut net, &mut ws);
    assert!(replies.len() > 1, "100 KB cannot come back in one reply");
    assert_eq!(replies.concat(), expected);
}

#[test]
fn deliver_refuses_a_mail_no_reply_can_carry() {
    // A reply's data holds 65,535 bytes: the count (2), then the sender
    // (1 + 1 here) and the body (2 + length). The largest body that fits
    // alone is delivered and comes back whole, after the mail before it;
    // one byte more is refused at delivery.
    let mut net = build();
    let largest = Mail { from: "x".into(), body: "m".repeat(65_529) };
    let too_big = Mail { from: "x".into(), body: "m".repeat(65_530) };
    let long_sender = Mail { from: "s".repeat(256), body: "hi".into() };
    {
        let pop = &mut net.pop.lock().unwrap().server;
        assert!(pop.deliver("bcn", too_big).is_err());
        assert!(pop.deliver("bcn", long_sender).is_err());
        pop.deliver("bcn", largest.clone()).unwrap();
    }
    let mut ws = workstation(&net);
    ws.kinit(&mut net.router, "bcn", "bcn-pw").unwrap();
    let tapes = Mail { from: "jis".into(), body: "the tapes arrived".into() };
    assert_eq!(retrieve_all(&mut net, &mut ws), vec![vec![tapes], vec![largest]]);
}
